//! `gola-obs` — inert observability for the G-OLA engine.
//!
//! A span API plus a metrics registry (monotonic counters, gauges,
//! fixed-bucket histograms) with two exporters: a JSON snapshot and the
//! Prometheus text format. Zero external dependencies; all elapsed-time
//! measurement routes through [`gola_common::timing::Stopwatch`], because
//! `clippy.toml` disallows `Instant::now` and `SystemTime::now` (the one
//! absolute-time read lives in [`clock`], behind an explicit `#[expect]`).
//!
//! # The no-perturbation contract
//!
//! Observability must never change what the engine computes:
//!
//! * **Write-only in the hot path.** Handles record into atomics; nothing
//!   in `gola-core` ever reads a metric back. The `tests/obs_inert.rs`
//!   integration test proves `BatchReport`s are bit-identical with the
//!   registry enabled vs. disabled at threads 1 and 4.
//! * **Off by default, cheap when off.** Instrumentation sites check
//!   [`enabled`] (one relaxed atomic load) before creating handles or
//!   reading clocks; a disabled registry stays empty.
//! * **Deterministic exports.** Metrics are stored and exported in sorted
//!   name order, and wall-clock-derived values (duration sums, span elapsed
//!   time, the snapshot timestamp) are excluded unless the caller passes
//!   `timings = true` — so the default snapshot of a seeded run is
//!   byte-for-byte reproducible.
//! * **Schedule-independent parent links.** Span nesting uses a
//!   thread-local stack, and the worker pool re-establishes the submitting
//!   thread's span path around every job ([`span::current_path`] /
//!   [`span::with_path`]), so parent edges depend on program structure, not
//!   on which thread a job landed on.
//!
//! # Usage
//!
//! ```
//! gola_obs::set_enabled(true);
//! {
//!     let _span = gola_obs::span!("classify", batch = 3);
//!     gola_obs::counter("core.chunks").add(7);
//! }
//! let snapshot = gola_obs::snapshot_json(false);
//! assert!(snapshot.contains("\"core.chunks\": 7"));
//! # gola_obs::set_enabled(false);
//! # gola_obs::reset();
//! ```

pub mod clock;
pub mod export;
pub mod json;
pub mod registry;
pub mod span;

pub use export::{prometheus, snapshot_json};
pub use registry::{
    counter, counter_with, duration_histogram, enabled, gauge, gauge_with, histogram, labeled,
    reset, retire, set_enabled, Counter, Gauge, Histogram, DURATION_BOUNDS,
};
pub use span::SpanGuard;

/// A cached metric handle: `handle!(pub(crate) name: Counter =
/// gola_obs::counter("a.b"))` defines `fn name() -> &'static Counter`,
/// which resolves the registry entry on first call (the registry takes a
/// mutex) and is one atomic load afterwards. Call it only behind
/// [`enabled`], so a disabled registry registers nothing.
#[macro_export]
macro_rules! handle {
    ($vis:vis $fn_name:ident: $ty:ty = $ctor:expr) => {
        $vis fn $fn_name() -> &'static $ty {
            static H: ::std::sync::OnceLock<$ty> = ::std::sync::OnceLock::new();
            H.get_or_init(|| $ctor)
        }
    };
}
