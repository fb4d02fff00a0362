//! Stage **recover**: after a failure, replay all seen batches for every
//! transitive consumer of the violated blocks (the Query Controller's
//! recomputation jobs, paper §4) — for every group of those blocks, or,
//! when the violated keys can reach only some groups of one block, for just
//! those groups: its *group scope* (DESIGN.md §3.5.8, "Scoped replay").

use gola_agg::AggKind;
use gola_common::{FxHashMap, FxHashSet, Result, Value};
use gola_expr::SubqueryId;
use gola_storage::ColumnChunk;

use crate::join::{self, BatchWeights};
use crate::metrics;
use crate::publish::Violated;
use crate::report::BatchTiming;
use crate::runtime::{entry_mut, BlockEnv, CtxMode, PublishedScalar, TupleReader, UncertainSet};
use crate::step::OnlineExecutor;

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
    /// These groups of the one affected block; its other groups, and their
    /// uncertain tuples, stand.
    Groups(FxHashSet<Vec<Value>>),
}

impl GroupScope {
    /// One batch's new candidates — batch rows and lineage chunk — limited
    /// to the groups in scope.
    pub(crate) fn select(
        &self,
        env: &BlockEnv<'_>,
        rows: Vec<u32>,
        chunk: ColumnChunk,
    ) -> Result<(Vec<u32>, ColumnChunk)> {
        let GroupScope::Groups(groups) = self else {
            return Ok((rows, chunk));
        };
        let sel = positions(env, &chunk, groups, true)?;
        Ok((sel.iter().map(|&i| rows[i]).collect(), chunk.gather(&sel)))
    }
}

/// The positions of `chunk`'s tuples whose group is (`inside`) or is not
/// in `groups`.
fn positions(
    env: &BlockEnv<'_>,
    chunk: &ColumnChunk,
    groups: &FxHashSet<Vec<Value>>,
    inside: bool,
) -> Result<Vec<usize>> {
    let mut reader = TupleReader::new(chunk, env.pubs);
    let (mut key, mut out) = (Vec::new(), Vec::new());
    for i in 0..chunk.len() {
        reader.values_into(i, &env.cb.lin_group_by, CtxMode::Point, &mut key)?;
        if groups.contains(key.as_slice()) == inside {
            out.push(i);
        }
    }
    Ok(out)
}

/// Run the stage. Mutates the affected blocks' runtimes and publications
/// (and producers' reliance marks) and returns how many blocks were
/// recomputed.
pub(crate) fn recover(exec: &mut OnlineExecutor, input: RecoverInput<'_>) -> Result<usize> {
    let mut affected: FxHashSet<usize> = FxHashSet::default();
    let mut stack: Vec<usize> = input.violated.iter().map(|(b, _)| *b).collect();
    while let Some(v) = stack.pop() {
        for &c in &exec.consumers[v] {
            if affected.insert(c) {
                stack.push(c);
            }
        }
    }
    let scope = scope(exec, &input, &affected)?;
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
    let mut replayed: usize = 0;
    for wave in exec.meta.wavefronts() {
        let replay: Vec<usize> = wave.into_iter().filter(|b| affected.contains(b)).collect();
        if replay.is_empty() {
            continue;
        }
        let kept =
            (replay.iter().map(|&b| clear_scope(exec, b, &scope))).collect::<Result<Vec<_>>>()?;
        // Replay time lands in the step's `recover` bucket, not per stage.
        let mut scratch = BatchTiming::default();
        for j in 0..=input.upto {
            let batch = exec.partitioner.batch(j);
            let mut weights = BatchWeights::new(&batch, &exec.config.bootstrap);
            replayed += exec.ingest_wave(&replay, &batch, &scope, &mut weights, &mut scratch)?;
        }
        // Publish once per block, from fresh (post-replay) state.
        for (&b, kept) in replay.iter().zip(kept) {
            let rt = &mut exec.runtimes[b];
            rt.uncertain = kept.concat(std::mem::take(&mut rt.uncertain));
            exec.publish_block(b, input.m, input.last)?;
        }
    }
    if gola_obs::enabled() {
        match scope {
            GroupScope::All => metrics::recover_full().inc(),
            GroupScope::Groups(_) => metrics::recover_scoped().inc(),
        }
        let keys = input.violated.iter().map(|(_, keys)| keys.len() as u64);
        metrics::recover_violated_keys().add(keys.sum());
        metrics::recover_replayed_tuples().add(replayed as u64);
    }
    Ok(affected.len())
}

/// The groups a recovery replays: every group, unless the violated keys
/// can reach only some groups of one block — the violated producers' only
/// transitive consumer is one block with no consumers of its own, it
/// compiles to `fast_scalar_cmp` (so every reference it makes sits in a
/// comparison's correlation key; a semi-join block never does), it has a
/// GROUP BY and no dimension joins, every aggregate is mergeable, and every
/// reference to a violated producer has a correlation key. Then those
/// groups are [`violated_groups`].
fn scope(
    exec: &OnlineExecutor,
    input: &RecoverInput<'_>,
    affected: &FxHashSet<usize>,
) -> Result<GroupScope> {
    #[cfg(test)]
    if exec.full_scope_only {
        return Ok(GroupScope::All);
    }
    #[expect(clippy::disallowed_methods, reason = "a one-element set")]
    let (Some(&c), 1) = (affected.iter().next(), affected.len()) else {
        return Ok(GroupScope::All);
    };
    let cb = &exec.compiled[c];
    let Some(fscs) = &cb.fast_scalar_cmp else {
        return Ok(GroupScope::All);
    };
    let mut refs = fscs.iter().flat_map(|f| &f.refs);
    let correlated = refs.all(|&(id, n)| n > 0 || input.keys_of(id).is_none());
    if !exec.consumers[c].is_empty()
        || cb.num_keys() == 0
        || !cb.block.dims.is_empty()
        || !cb.agg_kinds.iter().all(AggKind::is_mergeable)
        || !correlated
    {
        return Ok(GroupScope::All);
    }
    Ok(GroupScope::Groups(violated_groups(exec, c, input)?))
}

/// Pass 1 of a scoped recovery: the groups of block `c` that hold a seen
/// candidate reading a violated key. Gathers and joins batches
/// `0..=input.upto` again, without weights, classify or fold.
///
/// A full replay also re-marks reliance for every candidate it decides.
/// Outside the scope those are the candidates not in the uncertain set —
/// their decisions stand — and each marked the entries it read when it
/// was decided; but an entry published since, one the decision did not
/// need (a NULL LHS, another conjunct already false), the full replay
/// would mark now. This pass marks it too, so the producers' envelopes
/// carry on exactly as after a full replay.
fn violated_groups(
    exec: &OnlineExecutor,
    c: usize,
    input: &RecoverInput<'_>,
) -> Result<FxHashSet<Vec<Value>>> {
    let env = exec.env(c);
    let fscs = env.cb.fast_scalar_cmp.as_deref().unwrap_or_default();
    let uncertain: FxHashSet<u64> = exec.runtimes[c]
        .uncertain
        .tuple_ids
        .iter()
        .copied()
        .collect();
    // Per correlation key (every conjunct's, one after the other): does it
    // read a violated entry, and which entries it reads are still unmarked.
    let mut keys: FxHashMap<Vec<Value>, (bool, Vec<&PublishedScalar>)> = FxHashMap::default();
    let mut groups: FxHashSet<Vec<Value>> = FxHashSet::default();
    let (mut key, mut group) = (Vec::new(), Vec::new());
    for j in 0..=input.upto {
        let batch = exec.partitioner.batch(j);
        let cand = join::join(&env, &batch, UncertainSet::default(), &GroupScope::All)?;
        let mut reader = TupleReader::new(&cand.chunk, env.pubs);
        for i in 0..cand.chunk.len() {
            key.clear();
            for e in fscs.iter().flat_map(|f| &f.key) {
                key.push(reader.value(i, e, CtxMode::Point)?);
            }
            let (violated, unmarked) = entry_mut(&mut keys, &key, || {
                let (mut violated, mut unmarked, mut rest) = (false, Vec::new(), key.as_slice());
                for &(id, n) in fscs.iter().flat_map(|f| &f.refs) {
                    let (own, tail) = rest.split_at(n);
                    rest = tail;
                    violated |= input.keys_of(id).is_some_and(|keys| keys.contains(own));
                    let entry = env.pubs[id.0].scalars.get(own);
                    unmarked.extend(entry.filter(|s| !s.is_used()));
                }
                Ok((violated, unmarked))
            })?;
            if *violated {
                reader.values_into(i, &env.cb.lin_group_by, CtxMode::Point, &mut group)?;
                if !groups.contains(group.as_slice()) {
                    groups.insert(group.clone());
                }
            } else if !unmarked.is_empty() && !uncertain.contains(&cand.ids[i]) {
                unmarked.drain(..).for_each(PublishedScalar::mark_used);
            }
        }
    }
    Ok(groups)
}

/// Clear what a replay in `scope` rebuilds of block `b`'s state, and hand
/// back its uncertain tuples outside the scope: they stand, and the replay
/// must not ingest them again.
fn clear_scope(exec: &mut OnlineExecutor, b: usize, scope: &GroupScope) -> Result<UncertainSet> {
    let GroupScope::Groups(groups) = scope else {
        exec.runtimes[b].reset();
        return Ok(UncertainSet::default());
    };
    let uncertain = &exec.runtimes[b].uncertain;
    let outside = positions(&exec.env(b), &uncertain.chunk, groups, false)?;
    let kept = uncertain.gather(&outside, exec.config.bootstrap.trials as usize);
    let rt = &mut exec.runtimes[b];
    rt.groups.retain(|key, _| !groups.contains(key));
    rt.uncertain.clear();
    Ok(kept)
}
