//! Stage **recover**: after a failure, reset every transitive consumer of
//! the violated blocks and replay all seen batches for just those blocks
//! (the Query Controller's recomputation jobs, paper §4).

use gola_common::{FxHashSet, Result};

use crate::join::BatchWeights;
use crate::report::BatchTiming;
use crate::step::OnlineExecutor;

/// What the stage reads besides the executor it repairs.
pub(crate) struct RecoverInput<'a> {
    /// Blocks whose publication violated a relied-upon commitment.
    pub violated: &'a [usize],
    /// Replay batches `0..=upto`.
    pub upto: usize,
    pub m: f64,
    pub last: bool,
}

/// Run the stage. Mutates the affected blocks' runtimes and publications
/// and returns how many blocks were recomputed.
pub(crate) fn recover(exec: &mut OnlineExecutor, input: RecoverInput<'_>) -> Result<usize> {
    let mut affected: FxHashSet<usize> = FxHashSet::default();
    let mut stack: Vec<usize> = input.violated.to_vec();
    while let Some(v) = stack.pop() {
        for &c in &exec.consumers[v] {
            if affected.insert(c) {
                stack.push(c);
            }
        }
    }
    // Replay wavefront by wavefront: blocks within a wave are mutually
    // independent, so each batch re-ingests across the whole wave in
    // parallel. Interleaving batches across a wave's blocks is
    // semantically identical to replaying each block to completion — same
    // per-block ingest sequence, and no block of a wave reads another's
    // output.
    for wave in exec.meta.wavefronts() {
        let replay: Vec<usize> = wave.into_iter().filter(|b| affected.contains(b)).collect();
        if replay.is_empty() {
            continue;
        }
        for &b in &replay {
            exec.runtimes[b].reset();
        }
        // Replay time lands in the step's `recover` bucket, not per stage.
        let mut scratch = BatchTiming::default();
        for j in 0..=input.upto {
            let batch = exec.partitioner.batch(j);
            let mut weights = BatchWeights::new(&batch, &exec.config.bootstrap);
            exec.ingest_wave(&replay, &batch, &mut weights, &mut scratch)?;
        }
        // Publish once per block, from fresh (post-replay) state.
        for &b in &replay {
            exec.publish_block(b, input.m, input.last)?;
        }
    }
    Ok(affected.len())
}
