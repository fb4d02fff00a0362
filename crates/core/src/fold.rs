//! Stage **fold**: add the block's deterministic-true tuples to its
//! replicated aggregate states, then rebuild the uncertain set from the
//! tuples classification left open.
//!
//! The states live in the block's fold-state table, one slot per group id
//! the join stage labelled (`BlockRuntime::slots`): a fold indexes it and
//! hashes no key. A semi-join block's group id names its whole slot key,
//! membership key then GROUP BY key, so both strategies fold the same way.
//!
//! One path at every thread count: a block's folds go in one pass straight
//! into the block runtime. Folding on the pool into private shards and
//! merging them was measured and lost (DESIGN.md §3.5.8): it costs a state
//! allocation and a 101-replica merge per (shard, group), and the wave
//! already keeps both cores busy (`ingest_wave` runs a wave's blocks on the
//! pool, so C2's two inner blocks fold concurrently). Weights are filled
//! before fold reads them: ahead of the step on the pool
//! (`join::Prefetch`) when a block folds every row, on demand otherwise.

use gola_agg::{FoldScratch, ReplicatedStates};
use gola_common::{Result, Value};

use crate::classify::Classes;
use crate::join::{BatchWeights, Candidates};
use crate::metrics;
use crate::runtime::{
    decision_words, gather_rows, BlockEnv, BlockRuntime, CtxMode, TupleReader, UncertainSet,
};

/// The batch rows whose bootstrap weights this stage will read for one
/// block: every new candidate classification folds or leaves uncertain.
pub(crate) fn weights_needed<'a>(
    cand: &'a Candidates,
    classes: &'a Classes,
) -> impl Iterator<Item = u32> + 'a {
    let kept = classes.folds.iter().chain(&classes.uncertain);
    kept.filter_map(|&i| cand.batch_row(i))
}

/// Run the stage. Mutates `rt` only: `slots` gain the folds, `uncertain`
/// is replaced by the still-uncertain candidates, the carried tuples that
/// left it go to the re-merge to be retracted, and the seen index, if the
/// block keeps one, learns which candidates folded.
///
/// The folds go in one *run* per group: the tuples are bucketed by group id
/// first, so every (group, aggregate lane) takes its tuples' values and
/// weight rows in a single [`ReplicatedStates::fold_run`] instead of one
/// exact update per (tuple, replica), and each group's slot is indexed
/// once. A run keeps candidate order, which is all the order-sensitive
/// states (MIN/MAX ties, QUANTILE, UDAF) can see: each state only ever
/// meets its own group's tuples.
pub(crate) fn fold(
    env: &BlockEnv<'_>,
    cand: &Candidates,
    classes: &Classes,
    weights: &BatchWeights,
    rt: &mut BlockRuntime,
) -> Result<()> {
    let cb = env.cb;
    rt.slots.resize_with(rt.labels.groups.len(), || None);
    let mut reader = TupleReader::new(&cand.chunk, env.pubs);
    let mut scratch = FoldScratch::default();
    // (group id, candidate) per folded tuple; stable, so a run keeps
    // candidate order.
    let mut members: Vec<(u32, usize)> = (classes.folds.iter())
        .map(|&i| (cand.group_ids[i], i))
        .collect();
    members.sort_by_key(|&(group, _)| group);
    // A semi-join block's group key starts with its membership key.
    let member_len = cb.semi_join.as_ref().map_or(0, |(_, key, _)| key.len());
    let trials = env.config.bootstrap.trials;
    let mut rows: Vec<&[u8]> = Vec::new();
    let mut lanes: Vec<Vec<Value>> = vec![Vec::new(); cb.lin_agg_args.len()];
    let (mut runs, mut run_tuples) = (0, 0);
    for run in members.chunk_by(|a, b| a.0 == b.0) {
        let group = run[0].0;
        // NULL never passes `IN (...)`.
        let member_key = &rt.labels.groups.key(group)[..member_len];
        if member_key.iter().any(Value::is_null) {
            continue;
        }
        let states = rt.slots[group as usize]
            .get_or_insert_with(|| ReplicatedStates::new(&cb.agg_kinds, trials));
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
            states.fold_run(j, values, &rows, true, &mut scratch);
        }
        runs += lanes.len();
        run_tuples += lanes.len() * run.len();
    }
    count_runs(runs, run_tuples);
    if let Some(seen) = &mut rt.seen {
        classes.folds.iter().for_each(|&i| seen.fold(cand.seen[i]));
    }

    // The still-uncertain tuples, in candidate order. Carried tuples keep
    // their cached bootstrap weights and last decisions; tuples entering
    // the set copy their row of the step's matrix and are undecided. Every
    // candidate carries its key ids from the join stage's label, so
    // publish never recomputes a weight or hashes a key.
    let keep = &classes.uncertain;
    let words = decision_words(trials);
    let mut kept_weights: Vec<u8> = Vec::with_capacity(keep.len() * trials as usize);
    let mut decisions: Vec<u64> = Vec::with_capacity(keep.len() * words);
    for &i in keep {
        kept_weights.extend_from_slice(cand.weights_of(weights, i));
        match cand.batch_row(i) {
            None => decisions.extend_from_slice(&cand.carried_decisions[i * words..][..words]),
            Some(_) => decisions.resize(decisions.len() + words, 0),
        }
    }
    rt.uncertain = UncertainSet {
        tuple_ids: keep.iter().map(|&i| cand.ids[i]).collect(),
        weights: kept_weights,
        key_ids: gather_rows(&cand.key_ids, cb.cmp_conjuncts(), keep),
        group_ids: gather_rows(&cand.group_ids, 1, keep),
        decisions,
        seen: gather_rows(&cand.seen, usize::from(!cand.seen.is_empty()), keep),
        chunk: cand.chunk.gather(keep),
    };
    record_gone(cand, keep, trials as usize, words, rt);
    Ok(())
}

/// Hand the re-merge the carried tuples that left the uncertain set and
/// still count in their group's contribution: those whose last decision
/// folded them somewhere, in a group the re-merge keeps a contribution
/// for. `keep` is the still-uncertain candidates, ascending.
fn record_gone(
    cand: &Candidates,
    keep: &[usize],
    trials: usize,
    words: usize,
    rt: &mut BlockRuntime,
) {
    let mut kept = keep.iter().copied().peekable();
    let gone: Vec<usize> = (0..cand.carried_len)
        .filter(|&i| kept.next_if_eq(&i).is_none())
        .filter(|&i| rt.remerge.tracks(cand.group_ids[i]))
        .filter(|&i| {
            cand.carried_decisions[i * words..][..words]
                .iter()
                .any(|&w| w != 0)
        })
        .collect();
    if gone.is_empty() {
        return;
    }
    let exits = UncertainSet {
        tuple_ids: gone.iter().map(|&i| cand.ids[i]).collect(),
        weights: gather_rows(&cand.carried_weights, trials, &gone),
        key_ids: Vec::new(),
        group_ids: gather_rows(&cand.group_ids, 1, &gone),
        decisions: gather_rows(&cand.carried_decisions, words, &gone),
        seen: Vec::new(),
        chunk: cand.chunk.gather(&gone),
    };
    let prior = std::mem::take(&mut rt.remerge.gone);
    rt.remerge.gone = prior.concat(exits);
}

/// Add `runs` `fold_run` calls over `tuples` tuples to the replica-work
/// counters.
pub(crate) fn count_runs(runs: usize, tuples: usize) {
    if gola_obs::enabled() {
        metrics::fold_runs().add(runs as u64);
        metrics::fold_run_tuples().add(tuples as u64);
    }
}
