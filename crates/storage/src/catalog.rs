//! Named-table [`Catalog`].

use std::collections::BTreeMap;
use std::sync::Arc;

use gola_common::{Error, Result};

use crate::stream::StreamTable;
use crate::table::Table;

/// What one catalog name resolves to: a static table or a live stream,
/// never both.
#[derive(Debug, Clone)]
pub enum Entry {
    Static(Arc<Table>),
    Stream(Arc<StreamTable>),
}

impl Entry {
    /// The table a query reads: the static table itself, or a fresh
    /// point-in-time snapshot of the stream's sealed segments (cheap —
    /// chunks are `Arc`-shared).
    pub fn table(&self) -> Result<Arc<Table>> {
        match self {
            Entry::Static(table) => Ok(Arc::clone(table)),
            Entry::Stream(stream) => Ok(Arc::new(stream.snapshot()?)),
        }
    }
}

/// A case-insensitive map from table name to one [`Entry`].
///
/// `BTreeMap` keeps iteration deterministic (catalog listings in tests and
/// the CLI are stable across runs). One map holds static tables and
/// streams alike, so a name cannot resolve to a static table for the exact
/// engine and to a stream for a growing query. [`Catalog::get`] resolves a
/// stream-backed name to a snapshot, while [`Catalog::stream`] hands out
/// the live handle so growing queries and ingest paths observe appends.
/// Cloning a catalog clones the `Arc`s, so a clone shares every stream
/// with the original.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    entries: BTreeMap<String, Entry>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table; errors on duplicate names.
    pub fn register(&mut self, name: impl Into<String>, table: Arc<Table>) -> Result<()> {
        self.insert(name.into(), Entry::Static(table))
    }

    /// Register an appendable stream under `name`; errors on duplicates.
    /// Queries resolve the name to a snapshot of the sealed segments;
    /// [`Catalog::stream`] returns the live handle.
    pub fn register_stream(
        &mut self,
        name: impl Into<String>,
        stream: Arc<StreamTable>,
    ) -> Result<()> {
        self.insert(name.into(), Entry::Stream(stream))
    }

    fn insert(&mut self, name: String, entry: Entry) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.entries.contains_key(&key) {
            return Err(Error::catalog(format!("table '{key}' already exists")));
        }
        self.entries.insert(key, entry);
        Ok(())
    }

    /// Replace or insert a static table. A stream-backed name is refused:
    /// a static table never shadows a stream.
    pub fn register_or_replace(
        &mut self,
        name: impl Into<String>,
        table: Arc<Table>,
    ) -> Result<()> {
        let key = name.into().to_ascii_lowercase();
        if let Some(Entry::Stream(_)) = self.entries.get(&key) {
            return Err(Error::catalog(format!(
                "table '{key}' is an attached stream; a static table does not replace it"
            )));
        }
        self.entries.insert(key, Entry::Static(table));
        Ok(())
    }

    /// What `name` (case-insensitive) resolves to; an unknown name's error
    /// lists the names there are.
    pub fn entry(&self, name: &str) -> Result<&Entry> {
        self.entries.get(&name.to_ascii_lowercase()).ok_or_else(|| {
            Error::catalog(format!(
                "unknown table '{name}' (available: {})",
                self.names().join(", ")
            ))
        })
    }

    /// Every name with its entry, in name order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Entry)> {
        self.entries
            .iter()
            .map(|(name, entry)| (name.as_str(), entry))
    }

    /// The live stream handle behind `name`, if `name` is stream-backed.
    pub fn stream(&self, name: &str) -> Option<&Arc<StreamTable>> {
        match self.entries.get(&name.to_ascii_lowercase())? {
            Entry::Stream(stream) => Some(stream),
            Entry::Static(_) => None,
        }
    }

    /// Look up a table by name (case-insensitive). A stream-backed name
    /// yields a fresh snapshot of its sealed segments, so batch engines and
    /// dimension reads see a consistent point-in-time table.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.entry(name)?.table()
    }

    /// Sorted table names (static tables and streams alike), each once.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::{row, DataType, Schema};

    fn table() -> Arc<Table> {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        Arc::new(Table::try_new(schema, vec![row![1i64]]).unwrap())
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register("Sessions", table()).unwrap();
        assert!(c.get("sessions").is_ok());
        assert!(c.get("SESSIONS").is_ok());
        assert!(c.entry("SeSsIoNs").is_ok());
    }

    #[test]
    fn duplicate_rejected_but_replace_allowed() {
        let mut c = Catalog::new();
        c.register("t", table()).unwrap();
        assert!(c.register("T", table()).is_err());
        c.register_or_replace("T", table()).unwrap();
        assert_eq!(c.names(), ["t"]);
    }

    #[test]
    fn missing_table_error_lists_names() {
        let mut c = Catalog::new();
        c.register("alpha", table()).unwrap();
        c.register("beta", table()).unwrap();
        let e = c.get("gamma").unwrap_err().to_string();
        assert!(e.contains("alpha") && e.contains("beta"));
    }

    #[test]
    fn stream_backed_names_snapshot_and_share() {
        use crate::stream::StreamTable;
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        let s = StreamTable::new(Arc::clone(&schema));
        let mut c = Catalog::new();
        c.register_stream("Live", Arc::clone(&s)).unwrap();
        assert!(c.entry("live").is_ok());
        assert!(c.register("LIVE", table()).is_err(), "name is taken");
        assert!(c.register_stream("live", StreamTable::new(schema)).is_err());
        // Snapshot sees only sealed rows; a catalog clone shares the stream.
        s.append_rows(&[row![1i64], row![2i64]]).unwrap();
        assert_eq!(c.get("live").unwrap().num_rows(), 0);
        let c2 = c.clone();
        s.seal().unwrap();
        assert_eq!(c.get("live").unwrap().num_rows(), 2);
        assert_eq!(c2.get("live").unwrap().num_rows(), 2);
        assert!(c2.stream("live").is_some());
        assert_eq!(c.names(), vec!["live".to_string()]);
    }

    #[test]
    fn a_static_table_does_not_shadow_a_stream() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        let s = StreamTable::new(schema);
        s.append_rows(&[row![1i64], row![2i64]]).unwrap();
        s.seal().unwrap();
        let mut c = Catalog::new();
        c.register_stream("sessions", Arc::clone(&s)).unwrap();
        let e = c.register_or_replace("Sessions", table()).unwrap_err();
        assert!(matches!(e, Error::Catalog(_)), "{e}");
        // The name still resolves to the stream, for the live handle and
        // the snapshot alike.
        assert!(c.stream("sessions").is_some());
        assert_eq!(c.get("sessions").unwrap().num_rows(), 2);
        assert!(matches!(c.entry("SESSIONS").unwrap(), Entry::Stream(_)));
    }

    #[test]
    fn names_list_each_name_once() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        let mut c = Catalog::new();
        c.register("b", table()).unwrap();
        c.register_stream("a", StreamTable::new(schema)).unwrap();
        c.register_or_replace("B", table()).unwrap();
        c.register_or_replace("c", table()).unwrap();
        assert!(c.register_or_replace("A", table()).is_err());
        assert_eq!(c.names(), ["a", "b", "c"]);
        let kinds: Vec<bool> = c
            .entries()
            .map(|(_, e)| matches!(e, Entry::Stream(_)))
            .collect();
        assert_eq!(kinds, [true, false, false]);
    }
}
