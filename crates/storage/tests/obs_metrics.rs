//! Storage's own metrics: seal and fsync latency histograms, `open_dir`'s
//! manifest replay, and the bytes segment files take, all recorded only
//! while the `gola_obs` registry is on.
//!
//! One test function only: the registry is process-global.

use std::sync::Arc;

use gola_common::{row, DataType, Row, Schema};
use gola_storage::stream::StreamTable;

fn rows(lo: i64, n: i64) -> Vec<Row> {
    (lo..lo + n).map(|i| row![i, i as f64 * 0.5]).collect()
}

#[test]
fn seals_fsyncs_and_replays_are_measured_only_while_enabled() {
    let schema = Arc::new(Schema::from_pairs(&[
        ("k", DataType::Int),
        ("x", DataType::Float),
    ]));
    let dir = std::env::temp_dir().join(format!("gola-storage-obs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let seal = gola_obs::duration_histogram("storage.seal_seconds");
    let fsync = gola_obs::duration_histogram("storage.fsync_seconds");
    let open_dir = gola_obs::duration_histogram("storage.open_dir_seconds");
    let bytes = gola_obs::counter("storage.segment_bytes");

    // Off: a seal moves nothing.
    let quiet = StreamTable::create_dir(Arc::clone(&schema), &dir.join("off")).unwrap();
    quiet.append_rows(&rows(0, 4)).unwrap();
    quiet.seal().unwrap();
    assert_eq!((seal.count(), fsync.count(), bytes.get()), (0, 0, 0));

    gola_obs::set_enabled(true);
    gola_obs::reset();
    let on = dir.join("on");
    let stream = StreamTable::create_dir(Arc::clone(&schema), &on).unwrap();
    for s in 0..3 {
        stream.append_rows(&rows(s * 10, 10)).unwrap();
        stream.seal().unwrap();
    }
    // An empty seal is a no-op, and is not measured.
    stream.seal().unwrap();
    stream.close().unwrap();
    let reopened = StreamTable::open_dir(&on).unwrap();
    gola_obs::set_enabled(false);

    assert_eq!(seal.count(), 3, "one observation per nonempty seal");
    // The manifest's creation, each seal's segment file and manifest line,
    // and the close line.
    assert_eq!(fsync.count(), 1 + 3 * 2 + 1);
    assert_eq!(open_dir.count(), 1);
    let mut on_disk = 0;
    for entry in std::fs::read_dir(&on).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "gseg") {
            on_disk += std::fs::metadata(&path).unwrap().len();
        }
    }
    assert_eq!(bytes.get(), on_disk, "every segment byte counted once");
    assert_eq!(reopened.num_segments(), 3);
    std::fs::remove_dir_all(&dir).ok();
}
