//! The snapshot timestamp — gola-obs's one sanctioned `SystemTime` read.
//!
//! Everything else in this crate measures elapsed time through
//! [`gola_common::timing::Stopwatch`]; the only absolute-time value is the
//! `generated_unix_ms` field stamped onto JSON snapshots, and only when the
//! caller opted into wall-clock output (`--timings`). `SystemTime::now` is
//! a `disallowed-methods` entry in `clippy.toml`; [`unix_millis`] is its
//! one `#[expect]`, mirroring how `gola_common::timing` is the one home
//! for `Instant::now`.

use std::time::{SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch (0 if the system clock reads earlier
/// than the epoch, rather than panicking inside an exporter).
#[expect(clippy::disallowed_methods, reason = "the one `SystemTime` read")]
pub fn unix_millis() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn epoch_is_in_the_past() {
        // Any sane clock reads after 2020-01-01.
        assert!(super::unix_millis() > 1_577_836_800_000);
    }
}
