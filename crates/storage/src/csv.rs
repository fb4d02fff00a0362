//! Minimal CSV import/export for tables.
//!
//! Supports quoted fields with embedded commas/quotes/newlines (RFC-4180
//! style) — enough to round-trip any table the engine produces and to load
//! external traces for the examples.

use std::io::{BufReader, Read, Write};
use std::sync::Arc;

use gola_common::{DataType, Error, Result, Row, Schema, Value};

use crate::table::{Table, TableBuilder};

/// Write `table` as CSV with a header row.
pub fn write_csv<W: Write>(table: &Table, out: &mut W) -> Result<()> {
    let header: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .map(|f| escape(&f.name))
        .collect();
    writeln!(out, "{}", header.join(","))?;
    for row in table.rows() {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Str(s) => escape(s),
                other => other.to_string(),
            })
            .collect();
        writeln!(out, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Read CSV with a header row into a table with the given schema. Column
/// order must match the schema. An empty cell is `NULL`, except a quoted
/// one (`""`) in a `Str` column, which is the empty string.
pub fn read_csv<R: Read>(schema: Arc<Schema>, input: R) -> Result<Table> {
    let mut reader = BufReader::new(input);
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let mut records = parse_records(&text)?;
    if records.is_empty() {
        return Err(Error::Io("csv input has no header row".into()));
    }
    let header = records.remove(0);
    if header.len() != schema.len() {
        return Err(Error::Io(format!(
            "csv header has {} columns, schema has {}",
            header.len(),
            schema.len()
        )));
    }
    let mut builder = TableBuilder::with_capacity(Arc::clone(&schema), records.len());
    for (line_no, rec) in records.into_iter().enumerate() {
        if rec.len() != schema.len() {
            return Err(Error::Io(format!(
                "csv record {} has {} fields, expected {}",
                line_no + 2,
                rec.len(),
                schema.len()
            )));
        }
        let values: Result<Vec<Value>> = rec
            .into_iter()
            .enumerate()
            .map(|(i, (cell, quoted))| parse_cell(&cell, quoted, schema.field(i).data_type))
            .collect();
        builder.push(Row::new(values?))?;
    }
    builder.finish_checked()
}

fn parse_cell(cell: &str, quoted: bool, ty: DataType) -> Result<Value> {
    if cell.is_empty() && !(quoted && ty == DataType::Str) {
        return Ok(Value::Null);
    }
    Value::str(cell).cast(ty)
}

/// `s` as one CSV field: quoted when it is empty (so it reads back as a
/// string, not `NULL`) or holds a comma, quote or line break.
fn escape(s: &str) -> String {
    if s.is_empty() || s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// RFC-4180-ish record parser handling quoted fields. Each field comes with
/// whether any of it was quoted.
fn parse_records(text: &str) -> Result<Vec<Vec<(String, bool)>>> {
    let mut records = Vec::new();
    let mut record: Vec<(String, bool)> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;
    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => (in_quotes, quoted) = (true, true),
                ',' => record.push((std::mem::take(&mut field), std::mem::take(&mut quoted))),
                '\r' => {} // swallow; \n terminates the record
                '\n' => {
                    record.push((std::mem::take(&mut field), std::mem::take(&mut quoted)));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(Error::Io("unterminated quoted csv field".into()));
    }
    if saw_any && (!field.is_empty() || quoted || !record.is_empty()) {
        record.push((field, quoted));
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::row;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
        ]))
    }

    #[test]
    fn round_trip() {
        let t = Table::try_new(
            schema(),
            vec![
                row![1i64, "plain", 1.5f64],
                row![2i64, "with,comma", 2.5f64],
                row![3i64, "with \"quote\"", 3.5f64],
                Row::new(vec![Value::Int(4), Value::Null, Value::Null]),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(schema(), &buf[..]).unwrap();
        assert_eq!(back.num_rows(), 4);
        assert_eq!(back.rows()[1].get(1), &Value::str("with,comma"));
        assert_eq!(back.rows()[2].get(1), &Value::str("with \"quote\""));
        assert!(back.rows()[3].get(1).is_null());
    }

    #[test]
    fn a_quoted_empty_field_is_an_empty_string_only_in_a_str_column() {
        let t = Table::try_new(
            schema(),
            vec![
                row![1i64, "", 1.5f64],
                Row::new(vec![Value::Int(2), Value::Null, Value::Null]),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        assert_eq!(buf, b"id,name,score\n1,\"\",1.5\n2,,\n");
        assert_eq!(read_csv(schema(), &buf[..]).unwrap(), t);
        // `""` in a non-string column, like an unquoted empty cell, is NULL.
        let t = read_csv(schema(), "id,name,score\n\"\",,\"\"".as_bytes()).unwrap();
        assert!(t.rows()[0].iter().all(Value::is_null));
        let one = Arc::new(Schema::from_pairs(&[("name", DataType::Str)]));
        let t = read_csv(one, "name\n\"\"".as_bytes()).unwrap();
        assert_eq!(t.rows()[0].get(0), &Value::str(""));
    }

    #[test]
    fn rejects_bad_arity() {
        let input = "id,name,score\n1,x\n";
        assert!(read_csv(schema(), input.as_bytes()).is_err());
    }

    #[test]
    fn rejects_unterminated_quote() {
        let input = "id,name,score\n1,\"oops,2.0\n";
        assert!(read_csv(schema(), input.as_bytes()).is_err());
    }

    #[test]
    fn rejects_empty_input() {
        assert!(read_csv(schema(), "".as_bytes()).is_err());
    }

    #[test]
    fn parses_crlf() {
        let input = "id,name,score\r\n1,a,2.0\r\n2,b,3.0\r\n";
        let t = read_csv(schema(), input.as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.rows()[1].get(1), &Value::str("b"));
    }

    #[test]
    fn quoted_newline_in_field() {
        let input = "id,name,score\n1,\"two\nlines\",2.0\n";
        let t = read_csv(schema(), input.as_bytes()).unwrap();
        assert_eq!(t.rows()[0].get(1), &Value::str("two\nlines"));
    }
}
