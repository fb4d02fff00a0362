//! Write-once columnar **segment files** (the durable half of streaming
//! ingest, DESIGN.md §3.12).
//!
//! A segment is one immutable [`ColumnChunk`] serialized to disk: a small
//! header (magic, version, row/column counts), the schema (so a directory
//! of segments is self-describing), then one typed column payload per
//! attribute — optional validity bitmap packed as `u64` words, followed by
//! the column vector in its native encoding (i64 / f64 LE, bool bytes,
//! dictionary + u32 codes for strings, tagged values for mixed columns).
//!
//! Segments are written whole and never modified; atomicity comes from the
//! stream manifest ([`crate::stream`]) — a segment file becomes visible
//! only once its manifest line is durable, so a torn write from a crash is
//! simply ignored on reopen. The read path is buffered `std::io` (the
//! toolchain is dependency-free, so no mmap crate; segment payloads are
//! decoded once into `Arc`-shared columns and then never re-read).
//!
//! Round-tripping is **bit-exact**: floats are stored as raw IEEE-754 bits
//! and row order is preserved, which is what lets crash recovery replay a
//! durable stream to a bit-identical report stream.

use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use gola_common::{Bitmap, Column, ColumnData, DataType, Error, Result, Schema, Value};

use crate::chunk::ColumnChunk;
use crate::metrics;

/// File magic: "GSEG" + format version.
pub const SEGMENT_MAGIC: [u8; 4] = *b"GSEG";
/// Current (only) format version.
pub const SEGMENT_VERSION: u16 = 1;

// Column payload tags.
const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_MIXED: u8 = 4;

// Value tags inside mixed payloads.
const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Null => 4,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Null,
        other => return Err(Error::Io(format!("segment: unknown dtype tag {other}"))),
    })
}

fn corrupt(what: &str) -> Error {
    Error::Io(format!("segment: corrupt file ({what})"))
}

// ---------------------------------------------------------------------------
// Little-endian primitive helpers over std::io
// ---------------------------------------------------------------------------

fn put_u16(w: &mut impl Write, v: u16) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn put_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn put_u64(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn put_len(w: &mut impl Write, n: usize) -> Result<()> {
    put_u64(w, n as u64)
}

fn put_bytes(w: &mut impl Write, b: &[u8]) -> Result<()> {
    put_len(w, b.len())?;
    w.write_all(b)?;
    Ok(())
}

fn get_u16(r: &mut impl Read) -> Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn get_u32(r: &mut impl Read) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Bounded length read: `cap` is a loose sanity ceiling so a corrupt
/// length field fails with a diagnostic instead of a huge allocation.
fn get_len(r: &mut impl Read, cap: u64, what: &str) -> Result<usize> {
    let n = get_u64(r)?;
    if n > cap {
        return Err(corrupt(what));
    }
    usize::try_from(n).map_err(|_| corrupt(what))
}

fn get_bytes(r: &mut impl Read, cap: u64, what: &str) -> Result<Vec<u8>> {
    let n = get_len(r, cap, what)?;
    let mut b = vec![0u8; n];
    r.read_exact(&mut b)?;
    Ok(b)
}

/// Upper bound on declared element counts: far beyond any real segment,
/// small enough that a corrupt header cannot drive a giant allocation.
const MAX_ELEMS: u64 = 1 << 33;

// ---------------------------------------------------------------------------
// Column payloads
// ---------------------------------------------------------------------------

fn write_value(w: &mut impl Write, v: &Value) -> Result<()> {
    match v {
        Value::Null => w.write_all(&[VAL_NULL])?,
        Value::Bool(b) => w.write_all(&[VAL_BOOL, u8::from(*b)])?,
        Value::Int(x) => {
            w.write_all(&[VAL_INT])?;
            w.write_all(&x.to_le_bytes())?;
        }
        Value::Float(x) => {
            w.write_all(&[VAL_FLOAT])?;
            w.write_all(&x.to_bits().to_le_bytes())?;
        }
        Value::Str(s) => {
            w.write_all(&[VAL_STR])?;
            put_bytes(w, s.as_bytes())?;
        }
    }
    Ok(())
}

fn read_value(r: &mut impl Read) -> Result<Value> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        VAL_NULL => Value::Null,
        VAL_BOOL => {
            let mut b = [0u8; 1];
            r.read_exact(&mut b)?;
            Value::Bool(b[0] != 0)
        }
        VAL_INT => Value::Int(get_u64(r)? as i64),
        VAL_FLOAT => Value::Float(f64::from_bits(get_u64(r)?)),
        VAL_STR => {
            let bytes = get_bytes(r, MAX_ELEMS, "mixed string length")?;
            Value::Str(Arc::from(
                std::str::from_utf8(&bytes).map_err(|_| corrupt("mixed string utf-8"))?,
            ))
        }
        _ => return Err(corrupt("mixed value tag")),
    })
}

fn write_column(w: &mut impl Write, col: &Column) -> Result<()> {
    // Validity bitmap, packed LSB-first into u64 words (the in-memory
    // layout is reproduced bit for bit on read via Bitmap::push).
    match col.validity() {
        None => w.write_all(&[0u8])?,
        Some(bm) => {
            w.write_all(&[1u8])?;
            let mut word = 0u64;
            let mut fill = 0u32;
            for i in 0..bm.len() {
                if bm.get(i) {
                    word |= 1u64 << fill;
                }
                fill += 1;
                if fill == 64 {
                    put_u64(w, word)?;
                    word = 0;
                    fill = 0;
                }
            }
            if fill > 0 {
                put_u64(w, word)?;
            }
        }
    }
    match col.data() {
        ColumnData::Int(xs) => {
            w.write_all(&[TAG_INT])?;
            for &x in xs {
                w.write_all(&x.to_le_bytes())?;
            }
        }
        ColumnData::Float(xs) => {
            w.write_all(&[TAG_FLOAT])?;
            for &x in xs {
                w.write_all(&x.to_bits().to_le_bytes())?;
            }
        }
        ColumnData::Bool(xs) => {
            w.write_all(&[TAG_BOOL])?;
            for &x in xs {
                w.write_all(&[u8::from(x)])?;
            }
        }
        ColumnData::Str { dict, codes } => {
            w.write_all(&[TAG_STR])?;
            put_u32(
                w,
                u32::try_from(dict.len()).map_err(|_| corrupt("dictionary size"))?,
            )?;
            for entry in dict.iter() {
                put_bytes(w, entry.as_bytes())?;
            }
            for &c in codes {
                put_u32(w, c)?;
            }
        }
        ColumnData::Mixed(vs) => {
            w.write_all(&[TAG_MIXED])?;
            for v in vs {
                write_value(w, v)?;
            }
        }
    }
    Ok(())
}

fn read_column(r: &mut impl Read, nrows: usize) -> Result<Column> {
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let validity = if flag[0] == 0 {
        None
    } else {
        let mut bm = Bitmap::new();
        let words = nrows.div_ceil(64);
        let mut remaining = nrows;
        for _ in 0..words {
            let word = get_u64(r)?;
            let bits = remaining.min(64);
            for b in 0..bits {
                bm.push(word & (1u64 << b) != 0);
            }
            remaining -= bits;
        }
        Some(bm)
    };
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let data = match tag[0] {
        TAG_INT => {
            let mut xs = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                xs.push(get_u64(r)? as i64);
            }
            ColumnData::Int(xs)
        }
        TAG_FLOAT => {
            let mut xs = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                xs.push(f64::from_bits(get_u64(r)?));
            }
            ColumnData::Float(xs)
        }
        TAG_BOOL => {
            let mut bytes = vec![0u8; nrows];
            r.read_exact(&mut bytes)?;
            ColumnData::Bool(bytes.into_iter().map(|b| b != 0).collect())
        }
        TAG_STR => {
            let dict_len = get_u32(r)? as usize;
            let mut dict: Vec<Arc<str>> = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                let bytes = get_bytes(r, MAX_ELEMS, "dictionary entry length")?;
                dict.push(Arc::from(
                    std::str::from_utf8(&bytes).map_err(|_| corrupt("dictionary utf-8"))?,
                ));
            }
            let mut codes = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let c = get_u32(r)?;
                if (c as usize) >= dict_len.max(1) {
                    return Err(corrupt("dictionary code out of range"));
                }
                codes.push(c);
            }
            ColumnData::Str {
                dict: Arc::new(dict),
                codes,
            }
        }
        TAG_MIXED => {
            let mut vs = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                vs.push(read_value(r)?);
            }
            ColumnData::Mixed(vs)
        }
        other => return Err(Error::Io(format!("segment: unknown column tag {other}"))),
    };
    Ok(Column::new(data, validity))
}

// ---------------------------------------------------------------------------
// Whole-segment read/write
// ---------------------------------------------------------------------------

/// Serialize `chunk` (columns described by `schema`) into the write-once
/// segment file at `path`. The file is flushed and fsynced before return —
/// once this returns `Ok`, the bytes survive a crash (visibility is still
/// gated by the stream manifest).
pub fn write_segment(path: &Path, schema: &Schema, chunk: &ColumnChunk) -> Result<()> {
    if chunk.num_columns() != schema.len() {
        return Err(Error::catalog(format!(
            "segment: chunk has {} columns, schema has {}",
            chunk.num_columns(),
            schema.len()
        )));
    }
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(&SEGMENT_MAGIC)?;
    put_u16(&mut w, SEGMENT_VERSION)?;
    put_u32(
        &mut w,
        u32::try_from(schema.len()).map_err(|_| corrupt("column count"))?,
    )?;
    put_len(&mut w, chunk.len())?;
    for field in schema.fields() {
        put_bytes(&mut w, field.name.as_bytes())?;
        w.write_all(&[dtype_tag(field.data_type)])?;
    }
    for j in 0..chunk.num_columns() {
        write_column(&mut w, chunk.column(j))?;
    }
    let file = w
        .into_inner()
        .map_err(|e| Error::Io(format!("segment flush: {e}")))?;
    metrics::sync(&file)?;
    if gola_obs::enabled() {
        metrics::segment_bytes().add(file.metadata()?.len());
    }
    Ok(())
}

/// Read a segment file back as `(schema, chunk)`. Fails with a typed
/// [`Error::Io`] on any malformed or truncated input — a torn segment from
/// a crash is rejected here, never half-loaded.
pub fn read_segment(path: &Path) -> Result<(Schema, ColumnChunk)> {
    // Decode from the file's bytes in memory: a slice's `read_exact` is
    // always inlined, so the per-value reads below do not depend on how
    // the compiler splits this crate into codegen units, as a
    // `BufReader`'s did.
    let bytes = std::fs::read(path)?;
    let mut r = bytes.as_slice();
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != SEGMENT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = get_u16(&mut r)?;
    if version != SEGMENT_VERSION {
        return Err(Error::Io(format!(
            "segment: unsupported version {version} (this build reads v{SEGMENT_VERSION})"
        )));
    }
    let ncols = get_u32(&mut r)? as usize;
    let nrows = get_len(&mut r, MAX_ELEMS, "row count")?;
    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = get_bytes(&mut r, MAX_ELEMS, "field name length")?;
        let name = String::from_utf8(name).map_err(|_| corrupt("field name utf-8"))?;
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        fields.push(gola_common::Field::new(name, dtype_from_tag(tag[0])?));
    }
    let schema = Schema::new(fields);
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let col = read_column(&mut r, nrows)?;
        if col.len() != nrows {
            return Err(corrupt("column length"));
        }
        columns.push(Arc::new(col));
    }
    // Trailing garbage means the file is not what we wrote.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(corrupt("trailing bytes"));
    }
    Ok((schema, ColumnChunk::new(columns, nrows)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::{row, Row};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("score", DataType::Float),
            ("name", DataType::Str),
            ("ok", DataType::Bool),
        ])
    }

    // A quiet NaN with a distinctive payload: round-tripping must keep the
    // exact bit pattern, not normalize it.
    fn odd_nan() -> f64 {
        f64::from_bits(0x7ff8_0000_dead_beef)
    }

    fn rows() -> Vec<Row> {
        vec![
            row![1i64, 1.5f64, "alpha", true],
            Row::new(vec![
                Value::Int(2),
                Value::Null,
                Value::str("beta"),
                Value::Bool(false),
            ]),
            row![3i64, odd_nan(), "alpha", true],
        ]
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gola-seg-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("seg-0.gseg");
        let schema = schema();
        let chunk = ColumnChunk::from_rows(&schema, &rows());
        write_segment(&path, &schema, &chunk).unwrap();
        let (rschema, rchunk) = read_segment(&path).unwrap();
        assert_eq!(rschema, schema);
        assert_eq!(rchunk.len(), chunk.len());
        for i in 0..chunk.len() {
            for (a, b) in rchunk.row(i).iter().zip(chunk.row(i).iter()) {
                match (a, b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "row {i}")
                    }
                    _ => assert_eq!(a, b, "row {i}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_and_corrupt_files_rejected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("seg.gseg");
        let schema = schema();
        let chunk = ColumnChunk::from_rows(&schema, &rows());
        write_segment(&path, &schema, &chunk).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Torn write: drop the tail.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(read_segment(&path).is_err());
        // Bad magic.
        let mut evil = bytes.clone();
        evil[0] = b'X';
        std::fs::write(&path, &evil).unwrap();
        assert!(read_segment(&path).is_err());
        // Future version.
        let mut future = bytes.clone();
        future[4] = 99;
        std::fs::write(&path, &future).unwrap();
        let e = read_segment(&path).unwrap_err().to_string();
        assert!(e.contains("version"), "{e}");
        // Trailing garbage.
        let mut longer = bytes;
        longer.push(0);
        std::fs::write(&path, &longer).unwrap();
        assert!(read_segment(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_and_all_null_columns_round_trip() {
        let dir = tmpdir("edge");
        let schema = Schema::from_pairs(&[("x", DataType::Int), ("s", DataType::Str)]);
        // Every value null: builders keep the declared type with a cleared
        // validity bitmap.
        let rows = vec![
            Row::new(vec![Value::Null, Value::Null]),
            Row::new(vec![Value::Null, Value::Null]),
        ];
        let chunk = ColumnChunk::from_rows(&schema, &rows);
        let path = dir.join("nulls.gseg");
        write_segment(&path, &schema, &chunk).unwrap();
        let (_, rchunk) = read_segment(&path).unwrap();
        assert_eq!(rchunk.to_rows(), rows);
        // Zero rows.
        let empty = ColumnChunk::from_rows(&schema, &[]);
        let path = dir.join("empty.gseg");
        write_segment(&path, &schema, &empty).unwrap();
        let (_, rempty) = read_segment(&path).unwrap();
        assert_eq!(rempty.len(), 0);
        assert_eq!(rempty.num_columns(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn width_mismatch_rejected_at_write() {
        let dir = tmpdir("width");
        let narrow = Schema::from_pairs(&[("x", DataType::Int)]);
        let chunk = ColumnChunk::from_rows(&schema(), &rows());
        let err = write_segment(&dir.join("w.gseg"), &narrow, &chunk);
        assert!(err.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
