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

use gola_agg::{AggKind, FoldScratch, ReplicatedStates};
use gola_common::{row_u32, FxHashMap, Result, Value};

use crate::classify::{ChunkClass, CHUNK};
use crate::join::{BatchWeights, Candidates};
use crate::runtime::{entry_mut, BlockEnv, BlockRuntime, CtxMode, TupleReader, UncertainSet};

/// The batch rows whose bootstrap weights this stage will read for one
/// block: every new candidate classification folds or leaves uncertain.
pub(crate) fn weights_needed<'a>(
    cand: &'a Candidates,
    classes: &'a [ChunkClass],
) -> impl Iterator<Item = u32> + 'a {
    classes.iter().enumerate().flat_map(move |(ci, class)| {
        let kept = class.folds.iter().chain(&class.uncertain_idx);
        kept.filter_map(move |&r| cand.batch_row(ci * CHUNK + r as usize))
    })
}

/// Run the stage. Mutates `rt` only: `groups`/`semi_groups` gain the
/// folds, `uncertain` is replaced by the still-uncertain candidates.
pub(crate) fn fold(
    env: &BlockEnv<'_>,
    cand: &Candidates,
    classes: &[ChunkClass],
    weights: &BatchWeights,
    rt: &mut BlockRuntime,
) -> Result<()> {
    let mergeable = env.cb.agg_kinds.iter().all(AggKind::is_mergeable);
    if mergeable && classes.len() > 1 && env.pool.threads() > 1 {
        let shards = env.pool.map(classes.iter().enumerate(), |(ci, class)| {
            let mut shard = BlockRuntime::default();
            let mut scratch = FoldScratch::default();
            fold_chunk(env, cand, weights, ci, class, &mut shard, &mut scratch).map(|()| shard)
        });
        let _merge_span = gola_obs::span!("merge");
        for shard in shards {
            let shard = shard?;
            merge_groups(&mut rt.groups, shard.groups);
            #[expect(
                clippy::iter_over_hash_type,
                reason = "per-key merge into disjoint entries; the visit order only \
                          moves map insertion order, which is sorted before it is read"
            )]
            for (mkey, groups) in shard.semi_groups {
                merge_groups(rt.semi_groups.entry(mkey).or_default(), groups);
            }
        }
    } else {
        let mut scratch = FoldScratch::default();
        for (ci, class) in classes.iter().enumerate() {
            fold_chunk(env, cand, weights, ci, class, rt, &mut scratch)?;
        }
    }

    // The still-uncertain tuples, in candidate order (chunk order ×
    // chunk-relative index order). Carried tuples keep their cached
    // bootstrap weights; tuples entering the set copy their row of the
    // step's matrix, so publish never recomputes a weight.
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
    let trials = env.config.bootstrap.trials as usize;
    let mut kept_weights: Vec<u32> = Vec::with_capacity(keep.len() * trials);
    for &i in &keep {
        kept_weights.extend_from_slice(cand.weights_of(weights, i));
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
    #[expect(
        clippy::iter_over_hash_type,
        reason = "per-key merge into disjoint entries; the visit order only \
                  moves map insertion order, which is sorted before it is read"
    )]
    for (key, states) in shard {
        match into.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().merge(&states),
            Entry::Vacant(v) => {
                v.insert(states);
            }
        }
    }
}

/// Fold chunk `ci`'s deterministic-true tuples into `rt`, one *run* per
/// group the chunk touches: the tuples are bucketed by group first, so
/// every (group, aggregate lane) takes its tuples' values and weight rows
/// in a single [`ReplicatedStates::fold_run`] instead of one exact update
/// per (tuple, replica). A run keeps candidate order, which is all the
/// order-sensitive states (MIN/MAX ties, QUANTILE, UDAF) can see: each
/// state only ever meets its own group's tuples.
fn fold_chunk(
    env: &BlockEnv<'_>,
    cand: &Candidates,
    weights: &BatchWeights,
    ci: usize,
    class: &ChunkClass,
    rt: &mut BlockRuntime,
    scratch: &mut FoldScratch,
) -> Result<()> {
    let cb = env.cb;
    let mut reader = TupleReader::new(&cand.chunk, env.pubs);
    // Semi-join aggregation keys the partial aggregates by the membership
    // key first, so a slot's key is `member key ++ group key`.
    let member_key = cb.semi_join.as_ref().map_or(&[][..], |(_, key, _)| key);
    let mut slots: FxHashMap<Vec<Value>, u32> = FxHashMap::default();
    // (slot, candidate) per folded tuple.
    let mut members: Vec<(u32, usize)> = Vec::with_capacity(class.folds.len());
    let mut key: Vec<Value> = Vec::new();
    for &r in &class.folds {
        let i = ci * CHUNK + r as usize;
        reader.values_into(i, member_key, CtxMode::Point, &mut key)?;
        // NULL never passes `IN (...)`.
        if key.iter().any(Value::is_null) {
            continue;
        }
        for e in &cb.lin_group_by {
            key.push(reader.value(i, e, CtxMode::Point)?);
        }
        let fresh = row_u32(slots.len());
        members.push((*entry_mut(&mut slots, &key, || Ok(fresh))?, i));
    }
    // Stable: a run keeps candidate order.
    members.sort_by_key(|&(slot, _)| slot);
    let mut keys: Vec<&[Value]> = vec![&[]; slots.len()];
    #[expect(
        clippy::iter_over_hash_type,
        reason = "each key lands at its own slot index; the visit order leaves no trace"
    )]
    for (key, &slot) in &slots {
        keys[slot as usize] = key;
    }
    let trials = env.config.bootstrap.trials;
    let mut rows: Vec<&[u32]> = Vec::new();
    let mut lanes: Vec<Vec<Value>> = vec![Vec::new(); cb.lin_agg_args.len()];
    for run in members.chunk_by(|a, b| a.0 == b.0) {
        let (mkey, gkey) = keys[run[0].0 as usize].split_at(member_key.len());
        let groups = match &cb.semi_join {
            Some(_) => entry_mut(&mut rt.semi_groups, mkey, || Ok(FxHashMap::default()))?,
            None => &mut rt.groups,
        };
        let states = entry_mut(groups, gkey, || {
            Ok(ReplicatedStates::new(&cb.agg_kinds, trials))
        })?;
        rows.clear();
        rows.extend(run.iter().map(|&(_, i)| cand.weights_of(weights, i)));
        lanes.iter_mut().for_each(Vec::clear);
        // Tuple-major, so a computed argument fills the row buffer once
        // per tuple.
        for &(_, i) in run {
            for (lane, e) in lanes.iter_mut().zip(&cb.lin_agg_args) {
                lane.push(reader.value(i, e, CtxMode::Point)?);
            }
        }
        for (j, values) in lanes.iter().enumerate() {
            states.fold_run(j, values, &rows, true, scratch);
        }
    }
    Ok(())
}
