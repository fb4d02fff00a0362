//! Cached `gola_obs` handles for the durable path: seal and fsync latency,
//! `open_dir`'s manifest replay, and the bytes segment files take. Every
//! site goes through [`timed`] or checks [`gola_obs::enabled`] first, so a
//! disabled registry registers nothing and no clock is read.

use std::fs::File;

use gola_common::timing::Stopwatch;
use gola_obs::{handle, Counter, Histogram};

handle!(pub(crate) seal: Histogram = gola_obs::duration_histogram("storage.seal_seconds"));
handle!(pub(crate) fsync: Histogram = gola_obs::duration_histogram("storage.fsync_seconds"));
handle!(pub(crate) open_dir: Histogram =
    gola_obs::duration_histogram("storage.open_dir_seconds"));
handle!(pub(crate) segment_bytes: Counter = gola_obs::counter("storage.segment_bytes"));

/// `f()`, timed into `hist` while the registry is on.
pub(crate) fn timed<R>(hist: fn() -> &'static Histogram, f: impl FnOnce() -> R) -> R {
    if !gola_obs::enabled() {
        return f();
    }
    let sw = Stopwatch::start();
    let out = f();
    hist().observe_duration(sw.elapsed());
    out
}

/// `file.sync_all()`, timed into [`fsync`].
pub(crate) fn sync(file: &File) -> std::io::Result<()> {
    timed(fsync, || file.sync_all())
}
