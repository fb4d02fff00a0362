//! Stage **recover**: after a failure, replay all seen batches for every
//! transitive consumer of the violated blocks (the Query Controller's
//! recomputation jobs, paper §4) — for every group of those blocks, or,
//! when the violated keys can reach only some groups of one block, for just
//! those groups: its *group scope* (DESIGN.md §3.5.8, "Scoped replay").
//!
//! A block that can be scoped keeps a [`SeenIndex`]: each seen candidate's
//! batch row, group id and correlation-key ids — the ids the join stage
//! labelled it with from the block's [`Labels`] — appended once when its
//! batch is first ingested. A scoped recovery reads only the index, the
//! label set's keys and the rows it replays. Pass 1 ([`violated_groups`])
//! is an integer scan of the index: the groups holding a violated key, and
//! the reliance marks a full replay would leave. Pass 2 gathers each
//! batch's in-scope rows alone
//! ([`Partitioner::batch_rows`](gola_storage::Partitioner::batch_rows)) and
//! ingests them. A full-scope recovery replays whole batches.

use gola_agg::AggKind;
use gola_common::{row_u32, Result, Value};
use gola_expr::SubqueryId;
use gola_obs::span::SpanGuard;

use crate::compiled::{CompiledBlock, FastScalarCmp};
use crate::join::{BatchWeights, Candidates};
use crate::metrics;
use crate::publish::Violated;
use crate::report::BatchTiming;
use crate::runtime::{BlockEnv, BlockRuntime, Labels, UncertainSet};
use crate::step::OnlineExecution;

/// What the stage reads besides the executor it repairs.
pub(crate) struct RecoverInput<'a> {
    /// Blocks whose publication violated a relied-upon commitment, each
    /// with the keys that did.
    pub violated: &'a [(usize, Violated)],
    /// Replay batches `0..=upto`.
    pub upto: usize,
    pub m: f64,
    pub last: bool,
}

impl RecoverInput<'_> {
    /// The violated keys of producer `id`, if it failed.
    fn keys_of(&self, id: SubqueryId) -> Option<&Violated> {
        let mut blocks = self.violated.iter();
        blocks.find(|(b, _)| *b == id.0).map(|(_, keys)| keys)
    }
}

/// The groups of the affected blocks a recovery replays.
pub(crate) enum GroupScope {
    /// Every group: the blocks restart empty.
    All,
    /// The groups of the one affected block whose group id is `true` here;
    /// its other groups, and their uncertain tuples, stand.
    Groups(Vec<bool>),
}

/// Every seen candidate of one block a recovery can scope, as integer
/// columns: its batch row, its group id and one correlation-key id per
/// `FastScalarCmp` conjunct, in candidate order. Ingest appends a batch's
/// candidates once, the first time it ingests that batch. The ids are the
/// block's [`Labels`], which name its uncertain tuples too
/// ([`UncertainSet::key_ids`] and [`UncertainSet::group_ids`]).
///
/// Costs 4 B × (2 + conjuncts) per seen candidate; it lives as long as the
/// query.
#[derive(Debug, Default)]
pub struct SeenIndex {
    /// Exclusive end of each ingested batch's entries.
    ends: Vec<usize>,
    rows: Vec<u32>,
    groups: Vec<u32>,
    /// Row-major `len × conjuncts`.
    keys: Vec<u32>,
}

impl SeenIndex {
    /// Index `cand`'s new candidates, batch `batch` of the schedule, if
    /// the batch is new.
    pub(crate) fn record(&mut self, batch: usize, cand: &Candidates, conjuncts: usize) {
        if batch == self.ends.len() {
            self.rows.extend_from_slice(&cand.batch_rows);
            self.groups
                .extend_from_slice(&cand.group_ids[cand.carried_len..]);
            self.keys
                .extend_from_slice(&cand.key_ids[cand.carried_len * conjuncts..]);
            self.ends.push(self.rows.len());
        }
    }

    /// The batch rows of batch `j`'s candidates whose group is in scope.
    fn rows_in(&self, j: usize, in_scope: &[bool]) -> Vec<usize> {
        let start = if j == 0 { 0 } else { self.ends[j - 1] };
        let entries = start..self.ends[j];
        let rows = entries.filter(|&s| in_scope[self.groups[s] as usize]);
        rows.map(|s| self.rows[s] as usize).collect()
    }
}

/// Can a recovery ever scope block `cb`, whose direct consumers are
/// `consumers`? Only a streaming block with no consumers of its own that
/// compiles to `fast_scalar_cmp` (so every reference it makes sits in a
/// comparison's correlation key; a semi-join block never does) with at
/// least one correlated reference, has a GROUP BY and no dimension joins,
/// and whose aggregates all merge. Such a block keeps a [`SeenIndex`].
pub(crate) fn scopable(cb: &CompiledBlock, consumers: &[usize]) -> bool {
    let correlated =
        |fscs: &Vec<FastScalarCmp>| fscs.iter().any(|f| f.refs.iter().any(|r| r.1 > 0));
    cb.block.is_streaming
        && consumers.is_empty()
        && cb.fast_scalar_cmp.as_ref().is_some_and(correlated)
        && cb.num_keys() > 0
        && cb.block.dims.is_empty()
        && cb.agg_kinds.iter().all(AggKind::is_mergeable)
}

/// Run the stage under its `span`. Mutates the affected blocks' runtimes
/// and publications (and producers' reliance marks) and returns how many
/// blocks were recomputed.
pub(crate) fn recover(
    exec: &mut OnlineExecution,
    input: RecoverInput<'_>,
    span: &SpanGuard,
) -> Result<usize> {
    span.field("blocks", input.violated.len() as f64);
    let mut affected: Vec<bool> = vec![false; exec.compiled.len()];
    let mut stack: Vec<usize> = input.violated.iter().map(|(b, _)| *b).collect();
    while let Some(v) = stack.pop() {
        for &c in &exec.consumers[v] {
            if !affected[c] {
                affected[c] = true;
                stack.push(c);
            }
        }
    }
    let scope = scope(exec, &input, &affected);
    #[cfg(test)]
    if let GroupScope::Groups(_) = scope {
        exec.scoped_recoveries += 1;
    }
    // Replay wavefront by wavefront: blocks within a wave are mutually
    // independent, so each batch re-ingests across the whole wave in
    // parallel. Interleaving batches across a wave's blocks is
    // semantically identical to replaying each block to completion — same
    // per-block ingest sequence, and no block of a wave reads another's
    // output.
    let (mut replayed, mut gathered) = (0, 0);
    for wave in exec.meta.wavefronts() {
        let replay: Vec<usize> = wave.into_iter().filter(|&b| affected[b]).collect();
        if replay.is_empty() {
            continue;
        }
        let kept: Vec<UncertainSet> = (replay.iter())
            .map(|&b| clear_scope(exec, b, &scope))
            .collect();
        // Replay time lands in the step's `recover` bucket, not per stage.
        let mut scratch = BatchTiming::default();
        let (r, g) = replay_batches(exec, &replay, input.upto, &scope, &mut scratch)?;
        (replayed, gathered) = (replayed + r, gathered + g);
        // Publish once per block, from fresh (post-replay) state.
        for (&b, kept) in replay.iter().zip(kept) {
            let rt = &mut exec.runtimes[b];
            rt.uncertain = kept.concat(std::mem::take(&mut rt.uncertain));
            exec.publish_block(b, input.m, input.last)?;
        }
    }
    if gola_obs::enabled() {
        let groups = match &scope {
            GroupScope::All => {
                metrics::recover_full().inc();
                None
            }
            GroupScope::Groups(in_scope) => {
                metrics::recover_scoped().inc();
                Some(in_scope.iter().filter(|&&g| g).count())
            }
        };
        let keys = input.violated.iter().map(|(_, keys)| keys.len() as u64);
        metrics::recover_violated_keys().add(keys.sum());
        metrics::recover_replayed_tuples().add(replayed as u64);
        metrics::recover_gathered_rows().add(gathered as u64);
        span.field("scope", f64::from(u8::from(groups.is_some())));
        span.field("groups", groups.unwrap_or(0) as f64);
        span.field("gathered", gathered as f64);
    }
    Ok(affected.iter().filter(|&&a| a).count())
}

/// Re-ingest batches `0..=upto` into `blocks`, one wave whose state the
/// caller has cleared to `scope`: whole batches, or under a group scope
/// each batch's in-scope rows alone, gathered from the block's
/// [`SeenIndex`]. Returns how many candidates the replay read and how many
/// batch rows it gathered. Recovery and
/// [`OnlineExecution::step_recomputing`] both rebuild through here.
pub(crate) fn replay_batches(
    exec: &mut OnlineExecution,
    blocks: &[usize],
    upto: usize,
    scope: &GroupScope,
    timing: &mut BatchTiming,
) -> Result<(usize, usize)> {
    let (mut replayed, mut gathered) = (0, 0);
    for j in 0..=upto {
        let batch = match (scope, &exec.runtimes[blocks[0]].seen) {
            (GroupScope::Groups(in_scope), Some(seen)) => {
                let rows = seen.rows_in(j, in_scope);
                if rows.is_empty() {
                    // Nothing new to ingest, and no carried tuple can
                    // change class: the publications do not move during
                    // a replay, and each was uncertain against them.
                    continue;
                }
                exec.partitioner.batch_rows(j, &rows)
            }
            _ => exec.partitioner.batch(j),
        };
        gathered += batch.len();
        let mut weights = BatchWeights::new(&batch, &exec.config.bootstrap);
        replayed += exec.ingest_wave(blocks, &batch, &mut weights, timing)?;
    }
    Ok((replayed, gathered))
}

/// The groups a recovery replays: every group, unless the violated keys
/// can reach only some groups of one block — the violated producers' only
/// transitive consumer is one block that keeps a [`SeenIndex`] (see
/// [`scopable`]), and every reference it makes to a violated producer has
/// a correlation key. Then those groups are [`violated_groups`].
fn scope(exec: &OnlineExecution, input: &RecoverInput<'_>, affected: &[bool]) -> GroupScope {
    #[cfg(test)]
    if exec.full_scope_only {
        return GroupScope::All;
    }
    let mut blocks = (0..affected.len()).filter(|&b| affected[b]);
    let (Some(c), None) = (blocks.next(), blocks.next()) else {
        return GroupScope::All;
    };
    let (Some(fscs), Some(seen)) = (&exec.compiled[c].fast_scalar_cmp, &exec.runtimes[c].seen)
    else {
        return GroupScope::All;
    };
    let mut refs = fscs.iter().flat_map(|f| &f.refs);
    if !refs.all(|&(id, n)| n > 0 || input.keys_of(id).is_none()) {
        return GroupScope::All;
    }
    let rt = &exec.runtimes[c];
    GroupScope::Groups(violated_groups(&exec.env(c), seen, rt, input))
}

/// Each reference of `fsc` with its own slice of `key`, one of the
/// conjunct's correlation keys (every reference's key, one after the
/// other).
fn own_keys<'k>(
    fsc: &'k FastScalarCmp,
    mut key: &'k [Value],
) -> impl Iterator<Item = (SubqueryId, &'k [Value])> + 'k {
    fsc.refs.iter().map(move |&(producer, n)| {
        let (own, rest) = key.split_at(n);
        key = rest;
        (producer, own)
    })
}

/// Pass 1 of a scoped recovery: the groups of the block (`env`, with seen
/// index `seen` and runtime `rt`) that hold a seen candidate reading a
/// violated key, as an in-scope flag per group id. An integer scan of the
/// index: no batch is gathered or joined.
///
/// A full replay also re-marks reliance for every candidate it decides.
/// Outside the scope those are the candidates not in the uncertain set —
/// their decisions stand — and each marked the entries it read when it
/// was decided; but an entry published since, one the decision did not
/// need (a NULL LHS, another conjunct already false), the full replay
/// would mark now. This pass marks it too, so the producers' envelopes
/// carry on exactly as after a full replay: per (conjunct, key), it
/// counts the seen candidates reading no violated key, less the uncertain
/// tuples among them, and marks the key's entries when some remain.
fn violated_groups(
    env: &BlockEnv<'_>,
    seen: &SeenIndex,
    rt: &BlockRuntime,
    input: &RecoverInput<'_>,
) -> Vec<bool> {
    let fscs = env.cb.fast_scalar_cmp.as_deref().unwrap_or_default();
    let Labels { groups, keys } = &rt.labels;
    let is_violated =
        |(p, own): (SubqueryId, &[Value])| input.keys_of(p).is_some_and(|v| v.contains(own));
    // Per conjunct, per key id: does the key read a violated entry?
    let violated: Vec<Vec<bool>> = (fscs.iter().zip(keys))
        .map(|(fsc, ids)| {
            (0..ids.len())
                .map(|x| own_keys(fsc, ids.key(row_u32(x))).any(is_violated))
                .collect()
        })
        .collect();
    let reads_violated = |ids: &[u32]| (ids.iter().zip(&violated)).any(|(&x, v)| v[x as usize]);
    let mut in_scope = vec![false; groups.len()];
    let mut decided: Vec<Vec<i32>> = violated.iter().map(|v| vec![0; v.len()]).collect();
    let mut count = |ids: &[u32], by: i32| {
        for (&x, n) in ids.iter().zip(&mut decided) {
            n[x as usize] += by;
        }
    };
    for (ids, &group) in seen.keys.chunks_exact(fscs.len()).zip(&seen.groups) {
        if reads_violated(ids) {
            in_scope[group as usize] = true;
        } else {
            count(ids, 1);
        }
    }
    for ids in rt.uncertain.key_ids.chunks_exact(fscs.len()) {
        if !reads_violated(ids) {
            count(ids, -1);
        }
    }
    for ((fsc, ids), n) in fscs.iter().zip(keys).zip(&decided) {
        for (x, _) in n.iter().enumerate().filter(|(_, &n)| n > 0) {
            for (producer, own) in own_keys(fsc, ids.key(row_u32(x))) {
                if let Some(entry) = env.pubs[producer.0].scalars.get(own) {
                    entry.mark_used();
                }
            }
        }
    }
    in_scope
}

/// Clear what a replay in `scope` rebuilds of block `b`'s state, and hand
/// back its uncertain tuples outside the scope: they stand, and the replay
/// must not ingest them again.
fn clear_scope(exec: &mut OnlineExecution, b: usize, scope: &GroupScope) -> UncertainSet {
    let rt = &mut exec.runtimes[b];
    let GroupScope::Groups(in_scope) = scope else {
        rt.reset();
        return UncertainSet::default();
    };
    let uncertain = &rt.uncertain;
    let outside: Vec<usize> = (0..uncertain.len())
        .filter(|&i| !in_scope[uncertain.group_ids[i] as usize])
        .collect();
    let trials = exec.config.bootstrap.trials;
    let kept = uncertain.gather(&outside, trials, exec.compiled[b].cmp_conjuncts());
    for (slot, _) in rt.slots.iter_mut().zip(in_scope).filter(|(_, &s)| s) {
        *slot = None;
    }
    rt.uncertain.clear();
    // The replay decides again what the re-merge last saw: it rebuilds.
    rt.remerge.clear();
    kept
}
