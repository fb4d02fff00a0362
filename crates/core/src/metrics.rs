//! Cached metric handles for gola-core's instrumentation sites.
//!
//! Registry lookups take a mutex; the hot path must not. Each site resolves
//! its handle once through a `OnceLock` (an atomic load afterwards) and the
//! handle itself is a plain atomic cell. Every caller gates on
//! [`gola_obs::enabled`] *before* touching these, so a disabled registry
//! never registers anything and never reads a clock.
//!
//! The no-perturbation contract (see `gola-obs`): these handles are
//! write-only from the executor's point of view — no metric value ever
//! flows back into computation. `tests/obs_inert.rs` holds this to
//! bit-identical `BatchReport`s.

use gola_obs::{handle, Counter, Gauge, Histogram};

/// Per-report instrumentation handles for one executor. A single-process
/// session (`session_label = None`) resolves the historical unlabeled
/// names; an executor running under the multi-tenant scheduler resolves a
/// `session="<label>"` series per instrument, so concurrent sessions never
/// write through the same gauge cell (`tests/obs_sessions.rs` pins this).
/// Resolved lazily on the first enabled batch and cached on the executor,
/// so a disabled registry never registers anything.
#[derive(Clone, Debug)]
pub(crate) struct SessionMetrics {
    pub(crate) batches: Counter,
    pub(crate) ci_width: Gauge,
    pub(crate) fpc: Gauge,
    pub(crate) uncertain: Gauge,
    pub(crate) recomputations: Gauge,
}

impl SessionMetrics {
    pub(crate) fn resolve(session: Option<&str>) -> SessionMetrics {
        let labels: Vec<(&str, &str)> = match session {
            Some(s) => vec![("session", s)],
            None => Vec::new(),
        };
        SessionMetrics {
            batches: gola_obs::counter_with("report.batches", &labels),
            ci_width: gola_obs::gauge_with("report.ci_width", &labels),
            fpc: gola_obs::gauge_with("report.fpc", &labels),
            uncertain: gola_obs::gauge_with("report.uncertain", &labels),
            recomputations: gola_obs::gauge_with("report.recomputations", &labels),
        }
    }
}

// Worker-pool queue instrumentation (parallel dispatch path only; the
// sequential fast path has no queue to wait in).
handle!(pub(crate) pool_runs: Counter = gola_obs::counter("pool.runs"));
handle!(pub(crate) pool_jobs: Counter = gola_obs::counter("pool.jobs"));
handle!(pub(crate) pool_queue_wait: Histogram =
    gola_obs::duration_histogram("pool.queue_wait_seconds"));
handle!(pub(crate) pool_job_run: Histogram =
    gola_obs::duration_histogram("pool.job_run_seconds"));

// One-batch-ahead prefetch (`join::Prefetch`): batches a step adopted
// from the pool instead of generating on demand, the weight cells they
// carried, and how long the step waited for prefetch jobs still running.
handle!(pub(crate) prefetch_batches: Counter = gola_obs::counter("core.prefetch.batches"));
handle!(pub(crate) prefetch_weight_cells: Counter =
    gola_obs::counter("core.prefetch.weight_cells"));
handle!(pub(crate) prefetch_wait: Histogram =
    gola_obs::duration_histogram("core.prefetch.wait_seconds"));

// The weight store (`join::WeightStore`): cells the kernel generated into
// it, cells fills copied out of it, and the bytes it holds.
handle!(pub(crate) weights_stored_cells: Counter =
    gola_obs::counter("core.weights.stored_cells"));
handle!(pub(crate) weights_reused_cells: Counter =
    gola_obs::counter("core.weights.reused_cells"));
handle!(pub(crate) mem_weight_store: Gauge = gola_obs::gauge("core.mem.weight_store"));

// The uncertain set's re-evaluation (`groups::effective_states`, reached
// from publish, report and recover): tuples decided, and RHS vectors built
// — one per (comparison, correlation key in the set), not per tuple.
handle!(pub(crate) uncertain_evals: Counter = gola_obs::counter("publish.uncertain_evals"));
handle!(pub(crate) rhs_vectors: Counter = gola_obs::counter("publish.rhs_vectors"));
// Point and trial decisions the re-merge applied to a group's uncertain
// contribution: flips, tuples entering U and tuples leaving it (a rebuilt
// group applies every decision it folds).
handle!(pub(crate) flipped_cells: Counter = gola_obs::counter("publish.flipped_cells"));

// Replica work: the `fold_run` calls of the fold stage and of the
// uncertain set's re-merge, the tuples they fold (one per lane and tuple),
// and the replica values publish and report finalize.
handle!(pub(crate) fold_runs: Counter = gola_obs::counter("fold.runs"));
handle!(pub(crate) fold_run_tuples: Counter = gola_obs::counter("fold.run_tuples"));
handle!(pub(crate) replica_finalizes: Counter =
    gola_obs::counter("publish.replica_finalizes"));

// Recoveries (`recover::recover`): how many replayed a group scope and how
// many every group, the violated keys that triggered them, the batch
// tuples their replays ingested again, and the batch rows they gathered to
// do so.
handle!(pub(crate) recover_scoped: Counter = gola_obs::counter("recover.scoped"));
handle!(pub(crate) recover_full: Counter = gola_obs::counter("recover.full"));
handle!(pub(crate) recover_violated_keys: Counter = gola_obs::counter("recover.violated_keys"));
handle!(pub(crate) recover_replayed_tuples: Counter =
    gola_obs::counter("recover.replayed_tuples"));
handle!(pub(crate) recover_gathered_rows: Counter = gola_obs::counter("recover.gathered_rows"));
