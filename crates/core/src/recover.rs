//! Stage **recover**: after a failure, recompute what relied on a violated
//! envelope (the Query Controller's recomputation jobs, paper §4). Either
//! every transitive consumer of the violated blocks replays every seen
//! batch, or — when the violated keys can reach only one block, and that
//! block keeps a seen index — only that block's seen candidates that read a
//! violated key are decided again: its *key scope* (DESIGN.md §3.5.8,
//! "Scoped recovery").
//!
//! A block that can be scoped keeps a [`SeenIndex`]: each seen candidate's
//! batch row, group id and correlation-key ids — the ids the join stage
//! labelled it with from the block's [`Labels`] — appended once when its
//! batch is first ingested, and whether it is folded in its group's slot.
//! A scoped recovery reads only the index, the label set's keys and the
//! rows it decides again. Pass 1 ([`violated_candidates`]) is an integer
//! scan of the index: the candidates that read a violated key, and the
//! reliance marks a full replay would leave. Pass 2 ([`redecide`]) gathers
//! the in-scope candidates outside the uncertain set in one gather across
//! their batches
//! ([`Partitioner::batch_rows`](gola_storage::Partitioner::batch_rows)),
//! retracts the folded ones from their groups' slots, and ingests them all
//! once against the current publications.
//!
//! Why that equals a full replay. A candidate outside the scope read only
//! envelopes that held; a committed envelope only narrows while it holds,
//! and a decision against a range stays the decision against any range
//! inside it, so a full replay would fold, drop or keep it as it stands.
//! An in-scope candidate in the uncertain set was classified in this very
//! step, after every producer it reads published, so against the
//! publications a recovery reads — which do not move during it — it is
//! uncertain again, and stays. Every summing lane finalizes to a function
//! of the multiset it folded (DESIGN.md §3.9), so a retraction leaves a
//! slot as if the tuple had never been folded. A group whose states cannot
//! forget a value (MIN/MAX), or whose arguments or sums would not retract
//! exactly, is cleared and folded again instead.

use gola_agg::{AggKind, FoldScratch, ReplicatedStates};
use gola_common::{row_u32, Bitmap, Result, Value};
use gola_expr::SubqueryId;
use gola_obs::span::SpanGuard;
use gola_storage::{MiniBatch, Partitioner};

use crate::compiled::{CompiledBlock, FastScalarCmp};
use crate::join::{BatchWeights, Candidates};
use crate::publish::Violated;
use crate::report::BatchTiming;
use crate::runtime::{BlockEnv, BlockRuntime, CtxMode, Labels, TupleReader, UncertainSet};
use crate::step::OnlineExecution;
use crate::{classify, fold, groups, join, metrics};

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

/// What a recovery recomputes.
pub(crate) enum GroupScope {
    /// Every group of every affected block: the blocks restart empty and
    /// replay every seen batch.
    All,
    /// The seen candidates of one block that read a violated key.
    Keys(KeyScope),
}

/// Pass 1's answer for one block: which of its seen candidates read a
/// violated key, and per group id how many do.
pub(crate) struct KeyScope {
    block: usize,
    /// The seen-index entries in scope, ascending.
    in_scope: Vec<u32>,
    groups: Vec<GroupCount>,
}

/// One group's seen candidates: in scope, and folded in scope.
#[derive(Clone, Copy, Default)]
struct GroupCount {
    in_scope: u32,
    folded_in_scope: u32,
}

/// What pass 2 does to one group of the scoped block.
#[derive(Clone, Copy, PartialEq)]
enum Redo {
    /// No candidate of the group reads a violated key: it stands.
    Stands,
    /// Its folded in-scope candidates are retracted from its slot, and its
    /// in-scope candidates outside the uncertain set are decided again.
    Retract,
    /// Its slot restarts empty, and every candidate outside the uncertain
    /// set that is folded or in scope is decided again.
    Refold,
    /// The whole group restarts — its slot and its uncertain tuples — and
    /// every one of its candidates is decided again in seen order, as a
    /// full replay decides them: a MIN/MAX lane cannot forget a value, and
    /// its ties are broken by fold order.
    Replay,
}

/// Every seen candidate of one block a recovery can scope, as integer
/// columns: its batch row, its group id, one correlation-key id per
/// `FastScalarCmp` conjunct, and whether it is folded in its group's slot,
/// in candidate order, and each group's count of folded entries. Ingest
/// appends a batch's candidates once, the first time it ingests that
/// batch; the fold stage sets the folded bit, and a reset or a recovery
/// that decides the candidate again clears it. The ids are the block's
/// [`Labels`], which name its uncertain tuples too
/// ([`UncertainSet::key_ids`] and [`UncertainSet::group_ids`]).
///
/// Costs 4 B × (2 + conjuncts) and a bit per seen candidate, and 4 B per
/// group; it lives as long as the query (its bytes are the gauge
/// `core.mem.seen_index`).
#[derive(Debug, Default)]
pub struct SeenIndex {
    /// Exclusive end of each ingested batch's entries.
    ends: Vec<usize>,
    rows: Vec<u32>,
    groups: Vec<u32>,
    /// Row-major `len × conjuncts`.
    keys: Vec<u32>,
    folded: Bitmap,
    /// Per group id, its entries whose folded bit is set.
    folded_in: Vec<u32>,
}

impl SeenIndex {
    /// Give `cand`'s new candidates, batch `batch` of the schedule, their
    /// entries: appended if the batch is new, the batch's own if it is
    /// replayed (a batch always yields the same candidates).
    pub(crate) fn record(&mut self, batch: usize, cand: &mut Candidates, conjuncts: usize) {
        let new = cand.batch_rows.len();
        if batch == self.ends.len() {
            self.rows.extend_from_slice(&cand.batch_rows);
            let groups = &cand.group_ids[cand.carried_len..];
            self.groups.extend_from_slice(groups);
            let most = groups.iter().max().map_or(0, |&g| g as usize + 1);
            self.folded_in.resize(self.folded_in.len().max(most), 0);
            self.keys
                .extend_from_slice(&cand.key_ids[cand.carried_len * conjuncts..]);
            (0..new).for_each(|_| self.folded.push(false));
            self.ends.push(self.rows.len());
        }
        let start = batch.checked_sub(1).map_or(0, |b| self.ends[b]);
        debug_assert_eq!(self.ends[batch] - start, new, "batch {batch}");
        cand.seen.extend(row_u32(start)..row_u32(start + new));
    }

    /// Entry `s` is folded in its group's slot.
    pub(crate) fn fold(&mut self, s: u32) {
        self.folded.set(s as usize, true);
        self.folded_in[self.groups[s as usize] as usize] += 1;
    }

    /// Entry `s` is not folded (any more).
    fn unfold(&mut self, s: u32) {
        if self.folded.get(s as usize) {
            self.folded.set(s as usize, false);
            self.folded_in[self.groups[s as usize] as usize] -= 1;
        }
    }

    /// No entry is folded: the slots were dropped.
    pub(crate) fn unfold_all(&mut self) {
        self.folded = Bitmap::new_clear(self.rows.len());
        self.folded_in.fill(0);
    }

    /// Bytes the index holds.
    pub(crate) fn bytes(&self) -> usize {
        let ids = self.rows.len() + self.groups.len() + self.keys.len() + self.folded_in.len();
        4 * ids + 8 * (self.ends.len() + self.rows.len().div_ceil(64))
    }

    /// The batch rows of `entries` (ascending) as one batch of their own,
    /// in entry order.
    fn gather(&self, partitioner: &Partitioner, entries: &[u32]) -> MiniBatch {
        let picks: Vec<(usize, usize)> = (entries.iter())
            .map(|&s| {
                let j = self.ends.partition_point(|&end| end <= s as usize);
                (j, self.rows[s as usize] as usize)
            })
            .collect();
        partitioner.batch_rows(&picks)
    }
}

/// Can a recovery ever scope block `cb`, whose direct consumers are
/// `consumers`? Only a streaming block with no consumers of its own that
/// compiles to `fast_scalar_cmp` (so every reference it makes sits in a
/// comparison's correlation key; a semi-join block never does) with at
/// least one correlated reference, has no dimension joins, and whose
/// aggregates all merge — and either has a GROUP BY, or retracts a folded
/// tuple ([`CompiledBlock::retracts`]): a block whose one group cannot
/// forget a value would replay whole. Such a block keeps a [`SeenIndex`].
pub(crate) fn scopable(cb: &CompiledBlock, consumers: &[usize]) -> bool {
    let correlated =
        |fscs: &Vec<FastScalarCmp>| fscs.iter().any(|f| f.refs.iter().any(|r| r.1 > 0));
    cb.block.is_streaming
        && consumers.is_empty()
        && cb.fast_scalar_cmp.as_ref().is_some_and(correlated)
        && cb.block.dims.is_empty()
        && cb.agg_kinds.iter().all(AggKind::is_mergeable)
        && (cb.num_keys() > 0 || cb.retracts())
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
    let (decided, gathered, groups) = match scope(exec, &input, &affected) {
        GroupScope::Keys(keys) => {
            #[cfg(test)]
            {
                exec.scoped_recoveries += 1;
            }
            let block = keys.block;
            let (decided, redone) = redecide(exec, &keys)?;
            #[cfg(test)]
            (exec.redone.iter_mut().zip(redone)).for_each(|(a, b)| *a += b);
            exec.publish_block(block, input.m, input.last)?;
            (decided, decided, Some(redone.iter().sum::<usize>()))
        }
        GroupScope::All => {
            let (replayed, gathered) = replay_all(exec, &affected, &input)?;
            (replayed, gathered, None)
        }
    };
    if gola_obs::enabled() {
        match groups {
            Some(_) => metrics::recover_scoped().inc(),
            None => metrics::recover_full().inc(),
        }
        let keys = input.violated.iter().map(|(_, keys)| keys.len() as u64);
        metrics::recover_violated_keys().add(keys.sum());
        metrics::recover_replayed_tuples().add(decided as u64);
        metrics::recover_gathered_rows().add(gathered as u64);
        span.field("scope", f64::from(u8::from(groups.is_some())));
        span.field("groups", groups.unwrap_or(0) as f64);
        span.field("gathered", gathered as f64);
    }
    Ok(affected.iter().filter(|&&a| a).count())
}

/// Replay every seen batch into every affected block, wavefront by
/// wavefront: blocks within a wave are mutually independent, so each batch
/// re-ingests across the whole wave in parallel. Interleaving batches
/// across a wave's blocks is semantically identical to replaying each block
/// to completion — same per-block ingest sequence, and no block of a wave
/// reads another's output. Returns the candidates read and the rows
/// gathered.
fn replay_all(
    exec: &mut OnlineExecution,
    affected: &[bool],
    input: &RecoverInput<'_>,
) -> Result<(usize, usize)> {
    let (mut replayed, mut gathered) = (0, 0);
    for wave in exec.meta.wavefronts() {
        let replay: Vec<usize> = wave.into_iter().filter(|&b| affected[b]).collect();
        if replay.is_empty() {
            continue;
        }
        replay.iter().for_each(|&b| exec.runtimes[b].reset());
        // Replay time lands in the step's `recover` bucket, not per stage.
        let mut scratch = BatchTiming::default();
        let (r, g) = replay_batches(exec, &replay, input.upto, &mut scratch)?;
        (replayed, gathered) = (replayed + r, gathered + g);
        // Publish once per block, from fresh (post-replay) state.
        for &b in &replay {
            exec.publish_block(b, input.m, input.last)?;
        }
    }
    Ok((replayed, gathered))
}

/// Re-ingest batches `0..=upto`, whole, into `blocks`, one wave whose
/// state the caller has reset. Returns how many candidates the replay read
/// and how many batch rows it gathered. A full recovery and
/// [`OnlineExecution::step_recomputing`] both rebuild through here.
pub(crate) fn replay_batches(
    exec: &mut OnlineExecution,
    blocks: &[usize],
    upto: usize,
    timing: &mut BatchTiming,
) -> Result<(usize, usize)> {
    let (mut replayed, mut gathered) = (0, 0);
    for j in 0..=upto {
        let batch = exec.partitioner.batch(j);
        gathered += batch.len();
        let mut weights = BatchWeights::new(&batch, &exec.config.bootstrap);
        replayed += exec.ingest_wave(blocks, &batch, &mut weights, timing)?;
    }
    Ok((replayed, gathered))
}

/// The scope of a recovery: every group, unless the violated keys can
/// reach only one block that keeps a [`SeenIndex`] (see [`scopable`]) —
/// the violated producers' only transitive consumer — and every reference
/// it makes to a violated producer has a correlation key. Then it is the
/// block's candidates that read a violated key ([`violated_candidates`]).
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
    GroupScope::Keys(violated_candidates(c, &exec.env(c), seen, rt, input))
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

/// Pass 1 of a scoped recovery: the seen candidates of block `block`
/// (`env`, with seen index `seen` and runtime `rt`) that read a violated
/// key, and per group how many do and how many of those are folded. An
/// integer scan of the index: no batch is gathered or joined.
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
fn violated_candidates(
    block: usize,
    env: &BlockEnv<'_>,
    seen: &SeenIndex,
    rt: &BlockRuntime,
    input: &RecoverInput<'_>,
) -> KeyScope {
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
    let mut in_scope = Vec::new();
    let mut counts = vec![GroupCount::default(); groups.len()];
    let mut decided: Vec<Vec<i32>> = violated.iter().map(|v| vec![0; v.len()]).collect();
    let mut count = |ids: &[u32], by: i32| {
        for (&x, n) in ids.iter().zip(&mut decided) {
            n[x as usize] += by;
        }
    };
    let entries = seen.keys.chunks_exact(fscs.len()).zip(&seen.groups);
    for (s, (ids, &group)) in entries.enumerate() {
        if reads_violated(ids) {
            let c = &mut counts[group as usize];
            c.in_scope += 1;
            c.folded_in_scope += u32::from(seen.folded.get(s));
            in_scope.push(row_u32(s));
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
    KeyScope {
        block,
        in_scope,
        groups: counts,
    }
}

/// Pass 2 of a scoped recovery: take `scope`'s block to where a full
/// replay would leave it. Per group ([`Redo`]): retract its in-scope folded
/// candidates from its slot, or clear the slot, and then decide every
/// candidate that left a slot, or was dropped in scope, again — one
/// ingest of their rows against the current publications, the tuples it
/// leaves uncertain appended to the uncertain set. Returns how many
/// candidates were decided again (the rows gathered) and how many groups
/// the scope touched, per way: retracted, refolded, replayed.
fn redecide(exec: &mut OnlineExecution, scope: &KeyScope) -> Result<(usize, [usize; 3])> {
    let mut rt = std::mem::take(&mut exec.runtimes[scope.block]);
    let out = redecide_in(exec, scope, &mut rt);
    exec.runtimes[scope.block] = rt;
    out
}

#[expect(
    clippy::expect_used,
    reason = "a recovery takes a key scope only where the block keeps a seen index"
)]
fn redecide_in(
    exec: &OnlineExecution,
    scope: &KeyScope,
    rt: &mut BlockRuntime,
) -> Result<(usize, [usize; 3])> {
    let env = exec.env(scope.block);
    let (cb, spec) = (env.cb, &exec.config.bootstrap);
    let retracts = cb.retracts();
    let slot = |g: usize| rt.slots.get(g).and_then(Option::as_ref);
    let seen = rt.seen.as_ref().expect("a scoped block keeps a seen index");
    let mut redo: Vec<Redo> = (scope.groups.iter().enumerate())
        .map(|(g, c)| match c {
            c if c.in_scope == 0 => Redo::Stands,
            _ if !retracts => Redo::Replay,
            c if c.folded_in_scope == seen.folded_in[g] => Redo::Refold,
            _ if slot(g).is_some_and(ReplicatedStates::takes_exact_merge) => Redo::Retract,
            _ => Redo::Refold,
        })
        .collect();
    let mut in_u = Bitmap::new_clear(seen.rows.len());
    (rt.uncertain.seen.iter()).for_each(|&s| in_u.set(s as usize, true));
    // The entries to decide again, and the candidates among them that
    // leave their slot by retraction with their arguments. A group with an
    // argument that would not retract exactly is refolded instead.
    let (entries, batch, cand, retracted, args) = loop {
        let in_scope = |s: u32| scope.in_scope.binary_search(&s).is_ok();
        let picked = |s: u32| match redo[seen.groups[s as usize] as usize] {
            Redo::Stands => false,
            Redo::Retract => in_scope(s) && !in_u.get(s as usize),
            Redo::Refold => (seen.folded.get(s as usize) || in_scope(s)) && !in_u.get(s as usize),
            Redo::Replay => true,
        };
        // Only a group that restarts decides again what is outside the
        // scope.
        let restarts = redo
            .iter()
            .any(|r| matches!(r, Redo::Refold | Redo::Replay));
        let entries: Vec<u32> = if restarts {
            (0..row_u32(seen.rows.len()))
                .filter(|&s| picked(s))
                .collect()
        } else {
            scope
                .in_scope
                .iter()
                .copied()
                .filter(|&s| picked(s))
                .collect()
        };
        if entries.is_empty() {
            break (entries, None, None, Vec::new(), Vec::new());
        }
        let batch = seen.gather(&exec.partitioner, &entries);
        let cand = join::join(&env, &batch, UncertainSet::default(), &mut rt.labels)?;
        debug_assert_eq!(
            cand.chunk.len(),
            entries.len(),
            "a seen candidate was filtered"
        );
        let mut reader = TupleReader::new(&cand.chunk, env.pubs);
        let (mut retracted, mut args, mut one) = (Vec::new(), Vec::new(), Vec::new());
        let mut inexact = Vec::new();
        for (i, &s) in entries.iter().enumerate() {
            let g = seen.groups[s as usize] as usize;
            if redo[g] != Redo::Retract || !seen.folded.get(s as usize) {
                continue;
            }
            reader.values_into(i, &cb.lin_agg_args, CtxMode::Point, &mut one)?;
            match slot(g).is_some_and(|states| groups::retracts_exactly(states, &one)) {
                true => {
                    retracted.push((g, i));
                    args.extend_from_slice(&one);
                }
                false => inexact.push(g),
            }
        }
        if inexact.is_empty() {
            break (entries, Some(batch), Some(cand), retracted, args);
        }
        inexact.into_iter().for_each(|g| redo[g] = Redo::Refold);
    };
    // Groups that restart: a replayed one's uncertain tuples go too, to be
    // decided again in seen order.
    for (g, _) in
        (redo.iter().enumerate()).filter(|(_, r)| matches!(r, Redo::Refold | Redo::Replay))
    {
        if let Some(s) = rt.slots.get_mut(g) {
            *s = None;
        }
    }
    if redo.contains(&Redo::Replay) {
        let u = &rt.uncertain;
        let stays: Vec<usize> = (0..u.len())
            .filter(|&i| redo[u.group_ids[i] as usize] != Redo::Replay)
            .collect();
        rt.uncertain = u.gather(&stays, spec.trials, cb.cmp_conjuncts());
    }
    let ways = [Redo::Retract, Redo::Refold, Redo::Replay];
    let touched = ways.map(|way| redo.iter().filter(|&&r| r == way).count());
    let (Some(batch), Some(mut cand)) = (batch, cand) else {
        return Ok((0, touched));
    };
    let mut weights = BatchWeights::new(&batch, spec);
    let rows = retracted.iter().map(|&(_, i)| cand.batch_rows[i]);
    weights.extend(&exec.store, spec, &exec.pool, &batch, rows);
    retract(
        rt,
        &cand,
        &weights,
        (&retracted, &args),
        cb.lin_agg_args.len(),
    );
    let seen = rt.seen.as_mut().expect("a scoped block keeps a seen index");
    entries.iter().for_each(|&s| seen.unfold(s));
    cand.seen = entries;
    let classes = classify::classify(&env, &cand)?;
    let needed = fold::weights_needed(&cand, &classes);
    weights.extend(&exec.store, spec, &exec.pool, &batch, needed);
    let kept = std::mem::take(&mut rt.uncertain);
    fold::fold(&env, &cand, &classes, &weights, rt)?;
    rt.uncertain = kept.concat(std::mem::take(&mut rt.uncertain));
    Ok((cand.chunk.len(), touched))
}

/// Take `retracted` — `(group id, candidate)`, each with its `lanes`
/// arguments in `args`, one tuple after another — back out of their
/// groups' slots: per group one replica run per lane and the main states
/// tuple by tuple, the inverse of the fold stage's runs.
fn retract(
    rt: &mut BlockRuntime,
    cand: &Candidates,
    weights: &BatchWeights,
    (retracted, args): (&[(usize, usize)], &[Value]),
    lanes: usize,
) {
    let mut order: Vec<usize> = (0..retracted.len()).collect();
    order.sort_by_key(|&k| retracted[k].0);
    let (mut scratch, mut values) = (FoldScratch::default(), Vec::new());
    let (mut runs, mut run_tuples) = (0, 0);
    for run in order.chunk_by(|&a, &b| retracted[a].0 == retracted[b].0) {
        let Some(states) = rt.slots[retracted[run[0]].0].as_mut() else {
            continue;
        };
        let of = |k: usize| &args[k * lanes..][..lanes];
        let rows: Vec<&[u8]> = run
            .iter()
            .map(|&k| cand.weights_of(weights, retracted[k].1))
            .collect();
        for j in 0..lanes {
            values.clear();
            values.extend(run.iter().map(|&k| of(k)[j].clone()));
            states.retract_run(j, &values, &rows, &mut scratch);
        }
        run.iter().for_each(|&k| states.retract_main(of(k)));
        (runs, run_tuples) = (runs + lanes, run_tuples + lanes * run.len());
    }
    fold::count_runs(runs, run_tuples);
}
