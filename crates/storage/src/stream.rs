//! Streaming ingest: an appendable table made of sealed immutable
//! segments plus one mutable write buffer (DESIGN.md §3.12).
//!
//! A [`StreamTable`] accumulates appended rows in a write buffer; `seal`
//! transposes the buffer into an immutable [`ColumnChunk`] segment and —
//! when the stream is durable — persists it as a [`crate::segment`] file
//! before making it visible. Long-running queries observe the stream
//! through two monotone quantities:
//!
//! * **watermark** — rows sealed so far; only sealed rows are queryable,
//! * **total_rows** — watermark + buffered rows; this is the live `N`
//!   that finite-population corrections must use while the stream is open
//!   (the moving-N contract: a CI may never claim completeness against an
//!   `N` that can still grow).
//!
//! `close` seals any pending buffer and forbids further appends, so
//! `closed ⇒ pending = 0 ⇒ watermark = total_rows`: the final batch of a
//! growing query runs at multiplicity exactly 1 and FPC exactly 0, same
//! as the static path.
//!
//! Durability protocol: segment files are write-once; the append-only
//! `MANIFEST` is the commit point. A seal writes + fsyncs the segment
//! file, then appends one manifest line and fsyncs the manifest. On
//! reopen, only manifest-listed segments are loaded, in manifest order —
//! a torn segment file from a crash is invisible, and a torn final
//! manifest line is discarded. `close` is itself a manifest line, so a
//! closed stream reopens closed — without that, a replayed final batch
//! would not know it is final and reports would drift. Replay is
//! therefore bit-exact: same segments, same order, same row ids, same
//! end-of-stream.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::task::Waker;

use gola_common::sync::lock;
use gola_common::{DataType, Error, Result, Row, Schema};

use crate::chunk::ColumnChunk;
use crate::metrics;
use crate::segment::{read_segment, write_segment};
use crate::table::Table;

/// Manifest file name inside a durable stream directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "gola-stream\tv1";
/// Manifest line marking a durably-closed stream.
const CLOSE_LINE: &str = "close";

/// One sealed, immutable segment.
#[derive(Clone)]
pub struct SealedSegment {
    /// Sequential id (also the on-disk file stem for durable streams).
    pub id: u64,
    /// Global row offset of this segment's first row.
    pub start_row: u64,
    /// The columnar payload.
    pub chunk: ColumnChunk,
}

#[derive(Default)]
struct StreamInner {
    segments: Vec<SealedSegment>,
    buffer: Vec<Row>,
    closed: bool,
    next_id: u64,
    /// Rows sealed so far (== sum of segment lengths).
    sealed_rows: u64,
    /// Who waits for the next seal or the close (see
    /// [`StreamTable::poll`]); each seal and the close wake and drain it.
    wakers: Vec<Waker>,
}

/// An appendable table: sealed segments + a write buffer. Shared via
/// `Arc` between the ingest path and any number of running queries.
pub struct StreamTable {
    schema: Arc<Schema>,
    dir: Option<PathBuf>,
    inner: Mutex<StreamInner>,
}

impl std::fmt::Debug for StreamTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamTable")
            .field("schema", &self.schema)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl StreamTable {
    /// A new, empty, in-memory stream.
    pub fn new(schema: Arc<Schema>) -> Arc<StreamTable> {
        Arc::new(StreamTable {
            schema,
            dir: None,
            inner: Mutex::default(),
        })
    }

    /// Create a durable stream rooted at `dir` (created if absent; must
    /// not already contain a manifest).
    pub fn create_dir(schema: Arc<Schema>, dir: &Path) -> Result<Arc<StreamTable>> {
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join(MANIFEST_FILE);
        if manifest.exists() {
            return Err(Error::catalog(format!(
                "stream directory {} already has a manifest; use open_dir",
                dir.display()
            )));
        }
        let mut header = String::from(MANIFEST_HEADER);
        for field in schema.fields() {
            header.push('\t');
            header.push_str(&field.name);
            header.push('\t');
            header.push_str(dtype_token(field.data_type));
        }
        header.push('\n');
        let mut f = std::fs::File::create(&manifest)?;
        f.write_all(header.as_bytes())?;
        metrics::sync(&f)?;
        Ok(Arc::new(StreamTable {
            schema,
            dir: Some(dir.to_path_buf()),
            inner: Mutex::default(),
        }))
    }

    /// Reopen a durable stream: replay the manifest, loading each listed
    /// segment in order. Unlisted (torn) segment files are ignored; a
    /// partial final manifest line (no trailing newline) is discarded —
    /// both are the expected residue of a crash mid-seal.
    pub fn open_dir(dir: &Path) -> Result<Arc<StreamTable>> {
        metrics::timed(metrics::open_dir, || StreamTable::replay_dir(dir))
    }

    /// [`StreamTable::open_dir`], untimed.
    fn replay_dir(dir: &Path) -> Result<Arc<StreamTable>> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path).map_err(|e| {
            Error::Io(format!(
                "open stream manifest {}: {e}",
                manifest_path.display()
            ))
        })?;
        let complete: &str = match text.rfind('\n') {
            Some(end) => &text[..end],
            None => {
                return Err(Error::catalog(format!(
                    "stream manifest {} has no complete header line",
                    manifest_path.display()
                )))
            }
        };
        let mut lines = complete.lines();
        let header = lines
            .next()
            .ok_or_else(|| Error::catalog("stream manifest is empty".to_string()))?;
        let schema = parse_manifest_header(header)?;
        let schema = Arc::new(schema);

        let mut segments = Vec::new();
        let mut sealed_rows: u64 = 0;
        let mut next_id: u64 = 0;
        let mut closed = false;
        let mut seen = BTreeSet::new();
        for line in lines {
            if line == CLOSE_LINE {
                closed = true;
                continue;
            }
            if closed {
                return Err(Error::catalog(format!(
                    "stream manifest {} lists a segment after close",
                    manifest_path.display()
                )));
            }
            let (id, file, rows) = parse_manifest_line(line)?;
            if !seen.insert(id) {
                return Err(Error::catalog(format!(
                    "stream manifest lists segment {id} twice"
                )));
            }
            let path = dir.join(&file);
            let (seg_schema, chunk) = read_segment(&path)?;
            if seg_schema != *schema {
                return Err(Error::catalog(format!(
                    "segment {} schema disagrees with stream manifest",
                    path.display()
                )));
            }
            if chunk.len() as u64 != rows {
                return Err(Error::catalog(format!(
                    "segment {} has {} rows; manifest says {rows}",
                    path.display(),
                    chunk.len()
                )));
            }
            segments.push(SealedSegment {
                id,
                start_row: sealed_rows,
                chunk,
            });
            sealed_rows += rows;
            next_id = next_id.max(id + 1);
        }
        Ok(Arc::new(StreamTable {
            schema,
            dir: Some(dir.to_path_buf()),
            inner: Mutex::new(StreamInner {
                segments,
                buffer: Vec::new(),
                closed,
                next_id,
                sealed_rows,
                wakers: Vec::new(),
            }),
        }))
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Append rows to the write buffer. Rows are arity- and type-checked
    /// against the stream schema (`NULL` is valid in any column). Fails
    /// once the stream is closed — `closed` is final, which is what makes
    /// the last mini-batch of a growing query truly last.
    pub fn append_rows(&self, rows: &[Row]) -> Result<()> {
        for row in rows {
            if row.len() != self.schema.len() {
                return Err(Error::catalog(format!(
                    "append: row has {} values, schema has {} columns",
                    row.len(),
                    self.schema.len()
                )));
            }
            for (v, field) in row.iter().zip(self.schema.fields()) {
                let vt = v.data_type();
                if vt != DataType::Null
                    && field.data_type != DataType::Null
                    && vt != field.data_type
                {
                    return Err(Error::catalog(format!(
                        "append: value {v} is {vt}, column '{}' is {}",
                        field.name, field.data_type
                    )));
                }
            }
        }
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err(Error::catalog(
                "append: stream is closed to further ingest".to_string(),
            ));
        }
        inner.buffer.extend_from_slice(rows);
        Ok(())
    }

    /// Seal the write buffer into one immutable segment. Durable streams
    /// persist the segment file (fsync) and then commit it with a
    /// manifest line (fsync) before it becomes visible. Returns the
    /// number of rows sealed; an empty buffer is a no-op.
    pub fn seal(&self) -> Result<usize> {
        let mut inner = lock(&self.inner);
        let n = self.seal_locked(&mut inner)?;
        let wakers = if n > 0 {
            std::mem::take(&mut inner.wakers)
        } else {
            Vec::new()
        };
        drop(inner);
        wakers.into_iter().for_each(Waker::wake);
        Ok(n)
    }

    fn seal_locked(&self, inner: &mut StreamInner) -> Result<usize> {
        if inner.buffer.is_empty() {
            return Ok(0);
        }
        metrics::timed(metrics::seal, || self.seal_buffer(inner))
    }

    /// Seal the nonempty write buffer: [`StreamTable::seal_locked`]'s work.
    fn seal_buffer(&self, inner: &mut StreamInner) -> Result<usize> {
        let rows = std::mem::take(&mut inner.buffer);
        let chunk = ColumnChunk::from_rows(&self.schema, &rows);
        let id = inner.next_id;
        if let Some(dir) = &self.dir {
            let file = format!("seg-{id:08}.gseg");
            let path = dir.join(&file);
            if let Err(e) = write_segment(&path, &self.schema, &chunk) {
                // The seal failed before the commit point: put the rows
                // back so nothing is lost and nothing half-visible.
                inner.buffer = rows;
                return Err(e);
            }
            if let Err(e) = append_manifest_line(dir, id, &file, chunk.len()) {
                inner.buffer = rows;
                return Err(e);
            }
        }
        let n = chunk.len();
        inner.segments.push(SealedSegment {
            id,
            start_row: inner.sealed_rows,
            chunk,
        });
        inner.next_id = id + 1;
        inner.sealed_rows += n as u64;
        Ok(n)
    }

    /// Seal any pending rows, then close the stream to further appends.
    /// Idempotent. After `close`, `watermark == total_rows` and waiting
    /// queries are woken to run their final batch or end. Durable streams commit
    /// the close to the manifest, so a reopened stream is still closed —
    /// end-of-stream is part of what replay must reproduce.
    pub fn close(&self) -> Result<()> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Ok(());
        }
        self.seal_locked(&mut inner)?;
        if let Some(dir) = &self.dir {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(MANIFEST_FILE))?;
            f.write_all(format!("{CLOSE_LINE}\n").as_bytes())?;
            metrics::sync(&f)?;
        }
        inner.closed = true;
        let wakers = std::mem::take(&mut inner.wakers);
        drop(inner);
        wakers.into_iter().for_each(Waker::wake);
        Ok(())
    }

    pub fn is_closed(&self) -> bool {
        lock(&self.inner).closed
    }

    /// Rows sealed (queryable) so far.
    pub fn watermark(&self) -> u64 {
        lock(&self.inner).sealed_rows
    }

    /// The live `N`: sealed + buffered rows. This is the population size
    /// finite-population corrections must divide by while the stream is
    /// open (see executor `build_report`).
    pub fn total_rows(&self) -> u64 {
        let inner = lock(&self.inner);
        inner.sealed_rows + inner.buffer.len() as u64
    }

    /// Number of sealed segments.
    pub fn num_segments(&self) -> usize {
        lock(&self.inner).segments.len()
    }

    /// A point-in-time [`Table`] over the sealed segments (cheap: chunks
    /// share their `Arc`ed columns with the stream).
    pub fn snapshot(&self) -> Result<Table> {
        Ok(self.snapshot_with_segments()?.0)
    }

    /// Atomic snapshot plus the number of segments it covers — the pair a
    /// growing partitioner needs so its "segments consumed so far" cursor
    /// cannot straddle a concurrent seal.
    pub fn snapshot_with_segments(&self) -> Result<(Table, usize)> {
        let inner = lock(&self.inner);
        let chunks: Vec<ColumnChunk> = inner.segments.iter().map(|s| s.chunk.clone()).collect();
        let n = inner.segments.len();
        Ok((Table::from_chunks(Arc::clone(&self.schema), chunks)?, n))
    }

    /// Atomically read `(segments sealed at or after index from, closed)`.
    /// Because `closed` forbids further appends and seals, a `true` here
    /// with the returned tail consumed means the caller has seen the whole
    /// stream — the property that makes "last batch" well-defined under
    /// ingest. When there is nothing new and the stream is open, `waker`
    /// is registered in the same critical section, so the next seal or the
    /// close wakes it and no growth can slip in between. A waker that
    /// [`Waker::will_wake`] an already registered one is not added again,
    /// so the list holds one entry per distinct waiter.
    pub fn poll(&self, from: usize, waker: Option<&Waker>) -> (Vec<SealedSegment>, bool) {
        let mut inner = lock(&self.inner);
        let fresh = inner.segments.get(from..).unwrap_or(&[]).to_vec();
        if let Some(waker) = waker.filter(|_| fresh.is_empty() && !inner.closed) {
            if !inner.wakers.iter().any(|w| w.will_wake(waker)) {
                inner.wakers.push(waker.clone());
            }
        }
        (fresh, inner.closed)
    }
}

fn dtype_token(t: DataType) -> &'static str {
    match t {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Str => "str",
        DataType::Null => "null",
    }
}

fn dtype_from_token(tok: &str) -> Result<DataType> {
    Ok(match tok {
        "bool" => DataType::Bool,
        "int" => DataType::Int,
        "float" => DataType::Float,
        "str" => DataType::Str,
        "null" => DataType::Null,
        other => {
            return Err(Error::catalog(format!(
                "stream manifest: unknown column type '{other}'"
            )))
        }
    })
}

fn parse_manifest_header(line: &str) -> Result<Schema> {
    let mut parts = line.split('\t');
    let (magic, version) = (parts.next(), parts.next());
    if magic != Some("gola-stream") || version != Some("v1") {
        return Err(Error::catalog(
            "stream manifest: unrecognized header".to_string(),
        ));
    }
    let mut fields = Vec::new();
    while let Some(name) = parts.next() {
        let Some(tok) = parts.next() else {
            return Err(Error::catalog(
                "stream manifest: column name without a type".to_string(),
            ));
        };
        fields.push(gola_common::Field::new(name, dtype_from_token(tok)?));
    }
    if fields.is_empty() {
        return Err(Error::catalog(
            "stream manifest: header declares no columns".to_string(),
        ));
    }
    Ok(Schema::new(fields))
}

fn parse_manifest_line(line: &str) -> Result<(u64, String, u64)> {
    let bad = || Error::catalog(format!("stream manifest: malformed segment line '{line}'"));
    let mut parts = line.split('\t');
    if parts.next() != Some("seg") {
        return Err(bad());
    }
    let id = parts
        .next()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(bad)?;
    let file = parts.next().ok_or_else(bad)?;
    if file.contains('/') || file.contains("..") {
        return Err(bad());
    }
    let rows = parts
        .next()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(bad)?;
    Ok((id, file.to_string(), rows))
}

fn append_manifest_line(dir: &Path, id: u64, file: &str, rows: usize) -> Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(MANIFEST_FILE))?;
    f.write_all(format!("seg\t{id}\t{file}\t{rows}\n").as_bytes())?;
    metrics::sync(&f)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::row;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs(&[
            ("id", DataType::Int),
            ("score", DataType::Float),
        ]))
    }

    fn some_rows(lo: i64, n: i64) -> Vec<Row> {
        (lo..lo + n).map(|i| row![i, i as f64 * 0.5]).collect()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gola-stream-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn watermark_and_total_rows_track_seals() {
        let s = StreamTable::new(schema());
        s.append_rows(&some_rows(0, 10)).unwrap();
        assert_eq!(s.watermark(), 0);
        assert_eq!(s.total_rows(), 10);
        assert_eq!(s.seal().unwrap(), 10);
        assert_eq!(s.watermark(), 10);
        s.append_rows(&some_rows(10, 5)).unwrap();
        assert_eq!(s.total_rows(), 15);
        s.close().unwrap();
        assert_eq!(s.watermark(), 15);
        assert_eq!(s.total_rows(), 15);
        assert!(s.is_closed());
        assert!(s.append_rows(&some_rows(0, 1)).is_err());
        // Idempotent close.
        s.close().unwrap();
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.num_rows(), 15);
    }

    #[test]
    fn appends_are_type_checked() {
        let s = StreamTable::new(schema());
        assert!(s.append_rows(&[row![1i64]]).is_err()); // arity
        assert!(s.append_rows(&[row!["x", 1.0f64]]).is_err()); // type
        s.append_rows(&[Row::new(vec![
            gola_common::Value::Null,
            gola_common::Value::Float(1.0),
        ])])
        .unwrap(); // null ok
    }

    #[test]
    fn durable_stream_reopens_bit_exact() {
        let dir = tmpdir("reopen");
        {
            let s = StreamTable::create_dir(schema(), &dir).unwrap();
            s.append_rows(&some_rows(0, 7)).unwrap();
            s.seal().unwrap();
            s.append_rows(&some_rows(7, 4)).unwrap();
            s.seal().unwrap();
        } // drop everything
        let r = StreamTable::open_dir(&dir).unwrap();
        assert_eq!(r.watermark(), 11);
        assert_eq!(r.num_segments(), 2);
        let snap = r.snapshot().unwrap();
        let expect: Vec<Row> = some_rows(0, 11);
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(&snap.row(i), want, "row {i}");
        }
        // Reopened stream keeps accepting appends with continuing ids.
        r.append_rows(&some_rows(11, 3)).unwrap();
        r.seal().unwrap();
        let r2 = StreamTable::open_dir(&dir).unwrap();
        assert_eq!(r2.watermark(), 14);
        assert!(!r2.is_closed());
        // Close is durable: the reopened stream is still end-of-stream.
        r2.close().unwrap();
        let r3 = StreamTable::open_dir(&dir).unwrap();
        assert!(r3.is_closed());
        assert!(r3.append_rows(&some_rows(14, 1)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_segment_and_manifest_lines_ignored_or_rejected() {
        let dir = tmpdir("torn");
        let s = StreamTable::create_dir(schema(), &dir).unwrap();
        s.append_rows(&some_rows(0, 6)).unwrap();
        s.seal().unwrap();
        drop(s);
        // A torn segment file never listed in the manifest is invisible.
        std::fs::write(dir.join("seg-00000099.gseg"), b"GSEGgarbage").unwrap();
        let r = StreamTable::open_dir(&dir).unwrap();
        assert_eq!(r.num_segments(), 1);
        drop(r);
        // A torn (unterminated) final manifest line is discarded.
        let manifest = dir.join(MANIFEST_FILE);
        let mut text = std::fs::read_to_string(&manifest).unwrap();
        text.push_str("seg\t1\tseg-000");
        std::fs::write(&manifest, &text).unwrap();
        let r = StreamTable::open_dir(&dir).unwrap();
        assert_eq!(r.num_segments(), 1);
        assert_eq!(r.watermark(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Counts its wakes.
    struct Count(std::sync::atomic::AtomicUsize);

    impl std::task::Wake for Count {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// One waiter registered a thousand times is one entry, and the seal
    /// and the close each wake it once and drain the list.
    #[test]
    fn a_waker_registers_once_and_seal_and_close_each_wake_it() {
        let s = StreamTable::new(schema());
        let count = Arc::new(Count(Default::default()));
        let waker = Waker::from(Arc::clone(&count));
        let wakes = || count.0.load(std::sync::atomic::Ordering::Relaxed);
        let registered = || lock(&s.inner).wakers.len();
        for _ in 0..1_000 {
            s.poll(0, Some(&waker.clone()));
        }
        assert_eq!(registered(), 1);
        s.append_rows(&some_rows(0, 3)).unwrap();
        assert_eq!(wakes(), 0, "an append is not a seal");
        s.seal().unwrap();
        assert_eq!((wakes(), registered()), (1, 0));
        let (fresh, closed) = s.poll(1, Some(&waker));
        assert!(fresh.is_empty() && !closed);
        assert_eq!(registered(), 1);
        s.close().unwrap();
        assert_eq!((wakes(), registered()), (2, 0));
        // A closed stream registers nobody: nothing will wake them.
        s.poll(1, Some(&waker));
        assert_eq!(registered(), 0);
    }

    #[test]
    fn create_refuses_existing_manifest() {
        let dir = tmpdir("dup");
        let _s = StreamTable::create_dir(schema(), &dir).unwrap();
        assert!(StreamTable::create_dir(schema(), &dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
