//! Stage **fold**: add each chunk's deterministic-true tuples to the
//! block's replicated aggregate states, then rebuild the uncertain set
//! from the tuples classification left open.
//!
//! This is the only stage with two paths, and the pool's size picks
//! between them. At one thread chunks fold in order straight into the
//! block runtime — no shards, no merges. With workers and mergeable
//! aggregates each chunk folds into a private shard and the shards merge
//! in chunk order. Both produce the same bits: every mergeable state
//! (COUNT/SUM/AVG/MIN/MAX/VAR) finalizes to a pure function of the folded
//! *multiset* (`ExactSum` expansions; exact small-integer weight sums;
//! strict MIN/MAX comparisons). Quantile/UDAF states cannot merge, so they
//! take the direct path at any thread count. Neither path subsumes the
//! other: sharding at one thread pays a state allocation and a merge per
//! (chunk, group) for nothing, and the direct path cannot use workers —
//! the benchmark keeps a workload on each side (`c2_fold_t1`, `c2_fold_t2`).

use std::collections::hash_map::Entry;

use gola_agg::{AggKind, ReplicatedStates};
use gola_common::{ColumnData, FxHashMap, Result, Value};
use gola_expr::Expr;

use crate::classify::{ChunkClass, CHUNK};
use crate::join::Candidates;
use crate::runtime::{entry_mut, BlockEnv, BlockRuntime, CtxMode, TupleReader, UncertainSet};

/// Run the stage. Mutates `rt` only: `groups`/`semi_groups` gain the
/// folds, `uncertain` is replaced by the still-uncertain candidates.
pub(crate) fn fold(
    env: &BlockEnv<'_>,
    cand: &Candidates,
    classes: &[ChunkClass],
    rt: &mut BlockRuntime,
) -> Result<()> {
    let mergeable = env.cb.agg_kinds.iter().all(AggKind::is_mergeable);
    if mergeable && classes.len() > 1 && env.pool.threads() > 1 {
        let shards = env.pool.map(classes.iter().enumerate(), |(ci, class)| {
            let mut shard = BlockRuntime::default();
            fold_chunk(env, cand, ci, class, &mut shard, &mut Vec::new()).map(|()| shard)
        });
        let _merge_span = gola_obs::span!("merge");
        for shard in shards {
            let shard = shard?;
            merge_groups(&mut rt.groups, shard.groups);
            // golint: allow(hash-order-leak) -- per-key merge into disjoint
            // entries; visit order only affects map insertion order, which
            // is sorted before anything observable reads it
            for (mkey, groups) in shard.semi_groups {
                merge_groups(rt.semi_groups.entry(mkey).or_default(), groups);
            }
        }
    } else {
        let mut wbuf: Vec<u32> = Vec::new();
        for (ci, class) in classes.iter().enumerate() {
            fold_chunk(env, cand, ci, class, rt, &mut wbuf)?;
        }
    }

    // The still-uncertain tuples, in candidate order (chunk order ×
    // chunk-relative index order). Carried tuples keep their cached
    // bootstrap weights; tuples entering the set get theirs from one
    // batched kernel call, so publish never recomputes a weight.
    let keep: Vec<usize> = classes
        .iter()
        .enumerate()
        .flat_map(|(ci, class)| {
            class
                .uncertain_idx
                .iter()
                .map(move |&r| ci * CHUNK + r as usize)
        })
        .collect();
    let spec = &env.config.bootstrap;
    let mut wbuf: Vec<u32> = Vec::new();
    let mut weights = cand.weights_of(spec, keep.iter().copied(), &mut wbuf);
    let mut kept_weights: Vec<u32> = Vec::with_capacity(keep.len() * spec.trials as usize);
    for &i in &keep {
        kept_weights.extend_from_slice(weights.next(i));
    }
    rt.uncertain = UncertainSet {
        tuple_ids: keep.iter().map(|&i| cand.ids[i]).collect(),
        weights: kept_weights,
        chunk: cand.chunk.gather(&keep),
    };
    Ok(())
}

/// Merge one shard's groups into `into`, key by key.
fn merge_groups(
    into: &mut FxHashMap<Vec<Value>, ReplicatedStates>,
    shard: FxHashMap<Vec<Value>, ReplicatedStates>,
) {
    // golint: allow(hash-order-leak) -- per-key merge into disjoint entries;
    // visit order only affects map insertion order, which is sorted before
    // anything observable reads it
    for (key, states) in shard {
        match into.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().merge(&states),
            Entry::Vacant(v) => {
                v.insert(states);
            }
        }
    }
}

/// Fold chunk `ci`'s deterministic-true tuples into `rt` with batched
/// bootstrap weights (one flat `tuples × trials` buffer, `wbuf`, instead of
/// a hash chain per cell).
fn fold_chunk(
    env: &BlockEnv<'_>,
    cand: &Candidates,
    ci: usize,
    class: &ChunkClass,
    rt: &mut BlockRuntime,
    wbuf: &mut Vec<u32>,
) -> Result<()> {
    let cb = env.cb;
    let spec = &env.config.bootstrap;
    let folds = class.folds.iter().map(|&r| ci * CHUNK + r as usize);
    let mut weights = cand.weights_of(spec, folds.clone(), wbuf);
    let mut reader = TupleReader::new(&cand.chunk, env.pubs);
    let new_states = || Ok(ReplicatedStates::new(&cb.agg_kinds, spec.trials));
    let mut key: Vec<Value> = Vec::new();
    for i in folds {
        let w = weights.next(i);
        let groups = match &cb.semi_join {
            // Semi-join aggregation keys the partial aggregates by the
            // membership key first; NULL never passes `IN (...)`.
            Some((_, member_key, _)) => {
                reader.values_into(i, member_key, CtxMode::Point, &mut key)?;
                if key.iter().any(Value::is_null) {
                    continue;
                }
                entry_mut(&mut rt.semi_groups, &key, || Ok(FxHashMap::default()))?
            }
            None => &mut rt.groups,
        };
        reader.values_into(i, &cb.lin_group_by, CtxMode::Point, &mut key)?;
        let states = entry_mut(groups, &key, new_states)?;
        fold_args(&mut reader, i, &cb.lin_agg_args, states, w)?;
    }
    Ok(())
}

/// Fold tuple `i`'s aggregate arguments into `states` with the fused
/// weight × value kernels: a valid numeric column skips `Value`
/// materialization per (tuple, replica); anything else goes through
/// `fold_value`, which is bit-identical lane for lane.
fn fold_args(
    reader: &mut TupleReader<'_>,
    i: usize,
    args: &[Expr],
    states: &mut ReplicatedStates,
    weights: &[u32],
) -> Result<()> {
    for (j, e) in args.iter().enumerate() {
        if let Expr::Column(c) = e {
            let col = reader.chunk.column(*c);
            match col.data() {
                ColumnData::Float(xs) if col.is_valid(i) => {
                    states.fold_numeric(j, &Value::Float(xs[i]), xs[i], weights);
                    continue;
                }
                ColumnData::Int(xs) if col.is_valid(i) => {
                    states.fold_numeric(j, &Value::Int(xs[i]), xs[i] as f64, weights);
                    continue;
                }
                _ => {}
            }
        }
        let v = reader.value(i, e, CtxMode::Point)?;
        states.fold_value(j, &v, weights);
    }
    Ok(())
}
