//! The blessed home for wall-clock reads.
//!
//! G-OLA's determinism contract (threads=1 ≡ threads=N bit-identical
//! `BatchReport`s) means estimator state must never depend on physical time
//! or the physical schedule. Wall-clock reads are still needed — batch
//! timing telemetry, baseline comparisons, the CLI's `\exact` timer — so
//! they are funneled through this module. `clippy.toml` lists
//! `Instant::now`, `SystemTime::now`, thread identity and thread counts
//! under `disallowed-methods`, and [`Stopwatch::start`] holds the one
//! `#[expect]` for `Instant::now`: code anywhere else routes through a
//! [`Stopwatch`].
//!
//! The rule this module encodes: a `Duration` may flow into *telemetry*
//! (`BatchTiming`), never into *estimator state*. `Stopwatch` only hands
//! out `Duration`s, keeping the raw `Instant` anchors private.

use std::time::{Duration, Instant};

/// A monotonically-anchored timer. The only sanctioned way to measure
/// elapsed wall-clock time outside benchmark code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopwatch {
    anchor: Instant,
}

impl Stopwatch {
    /// Start (or restart) a stopwatch at the current instant.
    #[expect(clippy::disallowed_methods, reason = "the one `Instant` read")]
    pub fn start() -> Stopwatch {
        Stopwatch {
            anchor: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.anchor.elapsed()
    }

    /// Time between an `earlier` stopwatch's anchor and this one's —
    /// saturating to zero, like `Instant` subtraction.
    pub fn since(&self, earlier: &Stopwatch) -> Duration {
        self.anchor.duration_since(earlier.anchor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn since_orders_anchors() {
        let early = Stopwatch::start();
        let late = Stopwatch::start();
        // `late` was started after `early`, so the gap is non-negative and
        // the reverse direction saturates to zero.
        let gap = late.since(&early);
        assert_eq!(early.since(&late), Duration::ZERO.max(early.since(&late)));
        assert!(gap >= Duration::ZERO);
    }
}
