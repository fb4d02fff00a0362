//! Per-block runtime state and the online evaluation contexts.
//!
//! A block's [`BlockRuntime`] holds its fold-state table, its uncertain set
//! and its [`Labels`]: one label set per block for the query's lifetime,
//! naming every group and correlation key its candidates hold by a dense
//! id, so no later stage hashes a key. The table is indexed by those group
//! ids. Ids never order anything a report can see: a walk over them that
//! reaches one goes through [`KeyIds::sorted`], the one crossing from id
//! order to key order.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use gola_agg::ReplicatedStates;
use gola_common::{cmp_values, row_u32, Error, FxHashMap, Result, Value};
use gola_engine::HashIndex;
use gola_expr::eval::ExactResolver;
use gola_expr::lanes::{LaneContext, ScalarLanes};
use gola_expr::{EvalContext, Expr, RangeVal, SubqueryId, Tri};
use gola_storage::ColumnChunk;

use crate::compiled::CompiledBlock;
use crate::config::OnlineConfig;
use crate::pool::WorkerPool;
use crate::recover::SeenIndex;

/// Everything a stage may read about the block it runs for. Frozen while
/// the stage runs, and `Sync`, so chunk jobs on pool workers share it.
#[derive(Clone, Copy)]
pub(crate) struct BlockEnv<'a> {
    pub cb: &'a CompiledBlock,
    /// Per dimension join of a block that runs the join stage: the
    /// dimension table indexed on its join keys (empty for a static
    /// producer, which indexes its own).
    pub dims: &'a [HashIndex],
    pub config: &'a OnlineConfig,
    pub pool: &'a WorkerPool,
    /// Published output of every block, indexed by block id.
    pub pubs: &'a [Published],
}

/// A hash map's entries in canonical key order ([`cmp_values`]).
///
/// Hash iteration order must never be observable downstream: any walk of a
/// `FxHashMap` whose effects can reach a `BatchReport` (float merge order,
/// row order, chunk boundaries) goes through this sort.
pub fn sorted_into_entries<V>(map: FxHashMap<Vec<Value>, V>) -> Vec<(Vec<Value>, V)> {
    // `into_iter` is out of clippy.toml's reach; the sort below is what
    // keeps hash order from escaping.
    let mut entries: Vec<(Vec<Value>, V)> = map.into_iter().collect();
    entries.sort_by(|a, b| cmp_values(&a.0, &b.0));
    entries
}

/// The uncertain set `Uᵢ` of one block, stored struct-of-arrays: stable
/// tuple ids, the tuples' bootstrap weights, correlation-key ids and group
/// ids, and their lineage projections as a columnar chunk.
///
/// Weights are a pure function of `(tuple_id, trial, seed)`, and a tuple's
/// keys a pure function of the tuple, so both are computed exactly once —
/// the weights when a tuple first stays uncertain, the key ids when the
/// join stage labels it — and carried here for every later re-evaluation
/// (`effective_states`) and re-classify, instead of re-deriving
/// `|Uᵢ| × trials` hash streams and re-hashing `|Uᵢ|` value keys per batch.
#[derive(Debug)]
pub struct UncertainSet {
    /// Stable per-tuple ids (row index in the source table).
    pub tuple_ids: Vec<u64>,
    /// Bootstrap weights, row-major `len × trials`.
    pub weights: Vec<u32>,
    /// Correlation-key ids from the block's [`Labels::keys`], row-major
    /// `len × conjuncts` (one per `FastScalarCmp` conjunct; empty when the
    /// block has none).
    pub key_ids: Vec<u32>,
    /// Group ids from the block's [`Labels::groups`], one per tuple.
    pub group_ids: Vec<u32>,
    /// Lineage projections, column-major (one column per lineage column).
    pub chunk: ColumnChunk,
}

impl Default for UncertainSet {
    fn default() -> UncertainSet {
        UncertainSet {
            tuple_ids: Vec::new(),
            weights: Vec::new(),
            key_ids: Vec::new(),
            group_ids: Vec::new(),
            chunk: ColumnChunk::empty(0),
        }
    }
}

impl UncertainSet {
    pub fn len(&self) -> usize {
        self.tuple_ids.len()
    }

    pub fn clear(&mut self) {
        self.tuple_ids.clear();
        self.weights.clear();
        self.key_ids.clear();
        self.group_ids.clear();
        self.chunk = ColumnChunk::empty(0);
    }

    /// The tuples at `positions`, in that order, with their cached
    /// `trials`-wide weight rows, `conjuncts`-wide key-id rows and group
    /// ids.
    pub(crate) fn gather(
        &self,
        positions: &[usize],
        trials: usize,
        conjuncts: usize,
    ) -> UncertainSet {
        UncertainSet {
            tuple_ids: positions.iter().map(|&i| self.tuple_ids[i]).collect(),
            weights: gather_rows(&self.weights, trials, positions),
            key_ids: gather_rows(&self.key_ids, conjuncts, positions),
            group_ids: gather_rows(&self.group_ids, 1, positions),
            chunk: self.chunk.gather(positions),
        }
    }

    /// `self`'s tuples followed by `other`'s.
    pub(crate) fn concat(mut self, other: UncertainSet) -> UncertainSet {
        self.tuple_ids.extend(other.tuple_ids);
        self.weights.extend(other.weights);
        self.key_ids.extend(other.key_ids);
        self.group_ids.extend(other.group_ids);
        self.chunk = self.chunk.concat(&other.chunk);
        self
    }
}

/// Rows `positions` of the row-major `width`-wide matrix `v`, in that
/// order.
pub(crate) fn gather_rows(v: &[u32], width: usize, positions: &[usize]) -> Vec<u32> {
    let row = |&i: &usize| &v[i * width..][..width];
    positions.iter().flat_map(row).copied().collect()
}

/// One kind of key of a block — its group keys, or one conjunct's
/// correlation keys — each interned to a dense `u32` id the first time a
/// candidate holding it is labelled. Ids only ever bucket tuples by key —
/// no answer depends on their numbering — and [`KeyIds::key`] reads a key
/// back from its id. Nothing is forgotten: an interner holds one entry per
/// key it ever saw.
#[derive(Debug, Default)]
pub struct KeyIds {
    ids: FxHashMap<Arc<[Value]>, u32>,
    keys: Vec<Arc<[Value]>>,
}

impl KeyIds {
    /// `key`'s id, assigning the next one on first sight.
    pub fn intern(&mut self, key: &[Value]) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = row_u32(self.keys.len());
        let key: Arc<[Value]> = Arc::from(key);
        self.keys.push(Arc::clone(&key));
        self.ids.insert(key, id);
        id
    }

    /// The id of the key `exprs` read off tuple `i` (`key` is scratch
    /// space). The empty key — no expressions — is id 0, unhashed.
    pub(crate) fn label(
        &mut self,
        reader: &mut TupleReader<'_>,
        i: usize,
        exprs: &[Expr],
        key: &mut Vec<Value>,
    ) -> Result<u32> {
        if exprs.is_empty() {
            if self.keys.is_empty() {
                self.intern(&[]);
            }
            return Ok(0);
        }
        reader.values_into(i, exprs, CtxMode::Point, key)?;
        Ok(self.intern(key))
    }

    /// The key interned as `id`.
    pub fn key(&self, id: u32) -> &[Value] {
        &self.keys[id as usize]
    }

    /// Ids assigned so far: every id is below this.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `ids` with their keys, in canonical key order ([`cmp_values`]).
    ///
    /// Ids number keys in the order the join stage first met them, which
    /// batch layout, chunking and replays decide, so that order must never
    /// be observable downstream: any walk over ids whose effects can reach
    /// a `BatchReport` (float merge order, row order, chunk boundaries)
    /// goes through this sort. It is the one crossing from id order to
    /// published order.
    pub(crate) fn sorted(&self, ids: impl Iterator<Item = u32>) -> Vec<(u32, &[Value])> {
        let mut out: Vec<(u32, &[Value])> = ids.map(|id| (id, self.key(id))).collect();
        out.sort_by(|a, b| cmp_values(a.1, b.1));
        out
    }
}

/// A block's label set: the names of every key its candidates hold, one
/// [`KeyIds`] for group keys and one per `FastScalarCmp` conjunct for
/// correlation keys. The join stage labels each new candidate once
/// (`join::label`); classify, fold, the uncertain set's re-merge and
/// recovery read the ids. It lives as long as the query:
/// [`BlockRuntime::reset`] keeps it, so a replay finds every key under the
/// id it had.
///
/// A group key is the block's fold slot key: the membership key followed
/// by the GROUP BY key for a semi-join block, the GROUP BY key otherwise.
/// Each streaming block interns one key per distinct group and correlation
/// key it ever saw. Its group keys are held nowhere else — the fold-state
/// table is indexed by their ids — and when a producer reads the same
/// stream as its consumer (Q17, Q20, C3), the correlation keys are among
/// the producer's own groups, each of which it already publishes with a
/// whole trial vector.
#[derive(Debug, Default)]
pub struct Labels {
    pub groups: KeyIds,
    /// One per conjunct.
    pub keys: Vec<KeyIds>,
}

/// The published output of a **scalar** block for one group.
#[derive(Debug)]
pub struct PublishedScalar {
    /// Current point estimate of the subquery value.
    pub value: Value,
    /// Per-bootstrap-trial values (used for consistent replica propagation
    /// into consumer aggregates).
    pub trials: Vec<Value>,
    /// The committed envelope: the intersection of every variation range a
    /// consumer decision was made against. Only narrows while `used`.
    pub env: RangeVal,
    /// Set once any consumer makes a deterministic decision against `env`.
    pub used: AtomicBool,
}

impl PublishedScalar {
    pub fn is_used(&self) -> bool {
        self.used.load(Ordering::Relaxed)
    }

    pub(crate) fn mark_used(&self) {
        self.used.store(true, Ordering::Relaxed);
    }
}

/// The published output of a **membership** block for one group.
#[derive(Debug)]
pub struct PublishedMember {
    /// Current point membership (does the group pass HAVING now?).
    pub point: bool,
    /// Per-trial membership.
    pub trials: Vec<bool>,
    /// Range-classified membership: deterministic or may-flip.
    pub tri: Tri,
    /// 0 = no consumer relied; 1 = relied on `false`; 2 = relied on `true`.
    pub relied: AtomicU8,
}

impl PublishedMember {
    pub fn relied_on(&self) -> Option<bool> {
        match self.relied.load(Ordering::Relaxed) {
            1 => Some(false),
            2 => Some(true),
            _ => None,
        }
    }

    pub fn mark_relied(&self, value: bool) {
        let _ = self.relied.compare_exchange(
            0,
            if value { 2 } else { 1 },
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
}

/// Everything a block exposes to its consumers.
///
/// Keys are interned as `Arc<[Value]>`: the publisher reuses the previous
/// batch's key allocations (group keys are stable across batches), and
/// lookups hash the slice directly via `Borrow<[Value]>`.
#[derive(Debug, Default)]
pub struct Published {
    pub scalars: FxHashMap<Arc<[Value]>, PublishedScalar>,
    pub members: FxHashMap<Arc<[Value]>, PublishedMember>,
    /// `true` while the producer may still add groups or move values
    /// (streaming and not yet finished).
    pub live: bool,
}

/// Runtime state of one lineage block.
#[derive(Debug, Default)]
pub struct BlockRuntime {
    /// The fold-state table: each group's deterministic aggregate states
    /// (main + bootstrap replicas), indexed by its id in
    /// [`Labels::groups`]; `None` while no tuple of the group has folded.
    /// A semi-join block's group is its fold slot — membership key, then
    /// GROUP BY key — so its partial aggregates live here too.
    pub slots: Vec<Option<ReplicatedStates>>,
    /// The uncertain set `Uᵢ`.
    pub uncertain: UncertainSet,
    /// The ids of every key the block's candidates hold.
    pub labels: Labels,
    /// Every seen candidate by group and correlation key, for a block a
    /// recovery can scope (`None` for any other block).
    pub seen: Option<SeenIndex>,
}

impl BlockRuntime {
    /// Drop all accumulated state (failure-triggered recomputation). The
    /// label set and the seen index stay: they record which keys and
    /// candidates the batches hold, not what was decided about them, and
    /// replays add nothing to them.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.uncertain.clear();
    }

    /// Group `id`'s deterministic states, if any tuple of it has folded.
    pub(crate) fn slot(&self, id: u32) -> Option<&ReplicatedStates> {
        self.slots.get(id as usize)?.as_ref()
    }
}

/// Evaluation mode of the online contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxMode {
    /// Range-based classification (uses envelopes / membership tri).
    Classify,
    /// Current point estimates.
    Point,
    /// Values of one bootstrap trial.
    Trial(u32),
}

fn scalar_at<'a>(
    pubs: &'a [Published],
    id: SubqueryId,
    key: &[Value],
) -> Result<(&'a Published, Option<&'a PublishedScalar>)> {
    let p = pubs
        .get(id.0)
        .ok_or_else(|| Error::exec(format!("no published output for {id}")))?;
    Ok((p, p.scalars.get(key)))
}

fn member_at<'a>(
    pubs: &'a [Published],
    id: SubqueryId,
    key: &[Value],
) -> Result<(&'a Published, Option<&'a PublishedMember>)> {
    let p = pubs
        .get(id.0)
        .ok_or_else(|| Error::exec(format!("no published output for {id}")))?;
    Ok((p, p.members.get(key)))
}

fn scalar_current_impl(
    pubs: &[Published],
    id: SubqueryId,
    key: &[Value],
    mode: CtxMode,
) -> Result<Value> {
    let (_, entry) = scalar_at(pubs, id, key)?;
    Ok(match entry {
        Some(s) => match mode {
            CtxMode::Trial(b) => s
                .trials
                .get(b as usize)
                .cloned()
                .unwrap_or_else(|| s.value.clone()),
            _ => s.value.clone(),
        },
        // Missing group: behaves like an empty subquery (NULL) for now.
        None => Value::Null,
    })
}

fn scalar_range_impl(
    pubs: &[Published],
    id: SubqueryId,
    key: &[Value],
    mode: CtxMode,
) -> Result<RangeVal> {
    let (p, entry) = scalar_at(pubs, id, key)?;
    Ok(match (entry, mode) {
        (Some(s), CtxMode::Classify) => s.env.clone(),
        (Some(s), CtxMode::Point) => RangeVal::Exact(s.value.clone()),
        (Some(s), CtxMode::Trial(b)) => RangeVal::Exact(
            s.trials
                .get(b as usize)
                .cloned()
                .unwrap_or_else(|| s.value.clone()),
        ),
        (None, _) => {
            if p.live && mode == CtxMode::Classify {
                // The group may still appear — nothing can be bounded.
                RangeVal::Unknown
            } else {
                RangeVal::Exact(Value::Null)
            }
        }
    })
}

fn member_current_impl(
    pubs: &[Published],
    id: SubqueryId,
    key: &[Value],
    mode: CtxMode,
) -> Result<bool> {
    let (_, entry) = member_at(pubs, id, key)?;
    Ok(match entry {
        Some(m) => match mode {
            CtxMode::Trial(b) => m.trials.get(b as usize).copied().unwrap_or(m.point),
            _ => m.point,
        },
        None => false,
    })
}

fn member_tri_impl(
    pubs: &[Published],
    id: SubqueryId,
    key: &[Value],
    mode: CtxMode,
) -> Result<Tri> {
    let (p, entry) = member_at(pubs, id, key)?;
    Ok(match entry {
        Some(m) => match mode {
            CtxMode::Classify => m.tri,
            CtxMode::Point => Tri::from(m.point),
            CtxMode::Trial(b) => Tri::from(m.trials.get(b as usize).copied().unwrap_or(m.point)),
        },
        None => {
            if p.live && mode == CtxMode::Classify {
                Tri::Maybe
            } else {
                Tri::False
            }
        }
    })
}

/// Exact subquery resolution from published outputs at their point values,
/// as [`CtxMode::Point`] reads them: what a static producer's expressions
/// see, since its producers are static and so exact too.
pub(crate) struct PointResolver<'a>(pub &'a [Published]);

impl ExactResolver for PointResolver<'_> {
    fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<Value> {
        scalar_current_impl(self.0, id, key, CtxMode::Point)
    }

    fn member(&self, id: SubqueryId, key: &[Value]) -> Result<bool> {
        member_current_impl(self.0, id, key, CtxMode::Point)
    }
}

/// Context for evaluating block-source expressions over one tuple. The row
/// is a plain value slice so both materialized [`gola_common::Row`]s
/// (`row.values()`) and reused per-chunk row buffers work without copies.
pub struct TupleCtx<'a> {
    pub row: &'a [Value],
    pub pubs: &'a [Published],
    pub mode: CtxMode,
}

impl EvalContext for TupleCtx<'_> {
    fn column(&self, idx: usize) -> &Value {
        &self.row[idx]
    }

    fn scalar_current(&self, id: SubqueryId, key: &[Value]) -> Result<Value> {
        scalar_current_impl(self.pubs, id, key, self.mode)
    }

    fn scalar_range(&self, id: SubqueryId, key: &[Value]) -> Result<RangeVal> {
        scalar_range_impl(self.pubs, id, key, self.mode)
    }

    fn member_current(&self, id: SubqueryId, key: &[Value]) -> Result<bool> {
        member_current_impl(self.pubs, id, key, self.mode)
    }

    fn member_tri(&self, id: SubqueryId, key: &[Value]) -> Result<Tri> {
        member_tri_impl(self.pubs, id, key, self.mode)
    }
}

/// One tuple under [`CtxMode::Point`] (lane `0`) and every
/// [`CtxMode::Trial`] (lane `1 + b`) at once, for the lane evaluator.
pub(crate) struct TupleLanes<'a> {
    pub row: &'a [Value],
    pub pubs: &'a [Published],
    pub trials: u32,
}

impl LaneContext for TupleLanes<'_> {
    fn lanes(&self) -> usize {
        1 + self.trials as usize
    }

    fn eval_at(&self, lane: usize, expr: &Expr) -> Result<Value> {
        let mode = match lane.checked_sub(1) {
            Some(b) => CtxMode::Trial(gola_common::row_u32(b)),
            None => CtxMode::Point,
        };
        let ctx = TupleCtx {
            row: self.row,
            pubs: self.pubs,
            mode,
        };
        gola_expr::eval::eval(expr, &ctx)
    }

    fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<ScalarLanes<'_>> {
        let (_, entry) = scalar_at(self.pubs, id, key)?;
        // Missing group: NULL everywhere, as `scalar_current` reads it.
        Ok(entry.map_or(ScalarLanes::NULL, |s| ScalarLanes {
            point: &s.value,
            trials: &s.trials,
        }))
    }
}

/// Reads per-tuple expressions off a candidate chunk: a plain column
/// reference comes straight from the column and a literal is itself (the
/// common cases — no row materialization, no expression-tree walk); a
/// general expression evaluates over a row buffer filled at most once per
/// tuple.
pub(crate) struct TupleReader<'a> {
    pub chunk: &'a ColumnChunk,
    pubs: &'a [Published],
    rowbuf: Vec<Value>,
    /// The tuple `rowbuf` currently holds.
    filled: Option<usize>,
}

impl<'a> TupleReader<'a> {
    pub fn new(chunk: &'a ColumnChunk, pubs: &'a [Published]) -> TupleReader<'a> {
        TupleReader {
            chunk,
            pubs,
            rowbuf: Vec::new(),
            filled: None,
        }
    }

    /// Evaluation context over tuple `i`'s full row.
    pub fn ctx(&mut self, i: usize, mode: CtxMode) -> TupleCtx<'_> {
        if self.filled != Some(i) {
            self.chunk.row_values_into(i, &mut self.rowbuf);
            self.filled = Some(i);
        }
        TupleCtx {
            row: &self.rowbuf,
            pubs: self.pubs,
            mode,
        }
    }

    /// Tuple `i`'s full row under every point/trial mode.
    pub fn lanes(&mut self, i: usize, trials: u32) -> TupleLanes<'_> {
        let TupleCtx { row, pubs, .. } = self.ctx(i, CtxMode::Point);
        TupleLanes { row, pubs, trials }
    }

    pub fn value(&mut self, i: usize, e: &Expr, mode: CtxMode) -> Result<Value> {
        match e {
            Expr::Column(c) => Ok(self.chunk.column(*c).value(i)),
            // `COUNT(*)`'s argument: no reason to fill the row buffer.
            Expr::Literal(v) => Ok(v.clone()),
            e => gola_expr::eval::eval(e, &self.ctx(i, mode)),
        }
    }

    /// `exprs` evaluated for tuple `i`, replacing `out`'s contents.
    pub fn values_into(
        &mut self,
        i: usize,
        exprs: &[Expr],
        mode: CtxMode,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        out.clear();
        for e in exprs {
            out.push(self.value(i, e, mode)?);
        }
        Ok(())
    }
}

/// Context for evaluating HAVING / post-projection expressions over one
/// group row (`keys ++ aggs`), optionally with per-aggregate variation
/// ranges for classification.
pub struct GroupCtx<'a> {
    pub keys: &'a [Value],
    pub aggs: &'a [Value],
    /// Variation range per aggregate column (classification mode).
    pub agg_ranges: Option<&'a [RangeVal]>,
    pub pubs: &'a [Published],
    pub mode: CtxMode,
}

impl EvalContext for GroupCtx<'_> {
    fn column(&self, idx: usize) -> &Value {
        if idx < self.keys.len() {
            &self.keys[idx]
        } else {
            &self.aggs[idx - self.keys.len()]
        }
    }

    fn column_range(&self, idx: usize) -> RangeVal {
        if idx >= self.keys.len() {
            if let Some(ranges) = self.agg_ranges {
                return ranges[idx - self.keys.len()].clone();
            }
        }
        RangeVal::Exact(self.column(idx).clone())
    }

    fn scalar_current(&self, id: SubqueryId, key: &[Value]) -> Result<Value> {
        scalar_current_impl(self.pubs, id, key, self.mode)
    }

    fn scalar_range(&self, id: SubqueryId, key: &[Value]) -> Result<RangeVal> {
        scalar_range_impl(self.pubs, id, key, self.mode)
    }

    fn member_current(&self, id: SubqueryId, key: &[Value]) -> Result<bool> {
        member_current_impl(self.pubs, id, key, self.mode)
    }

    fn member_tri(&self, id: SubqueryId, key: &[Value]) -> Result<Tri> {
        member_tri_impl(self.pubs, id, key, self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gola_common::row;
    use gola_expr::{eval, eval_tri, Expr};

    fn pubs_with_scalar(live: bool) -> Vec<Published> {
        let mut p = Published {
            live,
            ..Default::default()
        };
        p.scalars.insert(
            Arc::from(Vec::new()),
            PublishedScalar {
                value: Value::Float(37.0),
                trials: vec![Value::Float(36.0), Value::Float(38.0)],
                env: RangeVal::num(28.9, 45.1),
                used: AtomicBool::new(false),
            },
        );
        vec![p]
    }

    fn sref() -> Expr {
        Expr::ScalarRef {
            id: SubqueryId(0),
            key: vec![],
        }
    }

    #[test]
    fn tuple_ctx_modes() {
        let pubs = pubs_with_scalar(true);
        let row = row![35.0f64];
        let pred = Expr::gt(Expr::col(0), sref());
        // Point: 35 > 37 → false.
        let ctx = TupleCtx {
            row: row.values(),
            pubs: &pubs,
            mode: CtxMode::Point,
        };
        assert_eq!(eval(&pred, &ctx).unwrap(), Value::Bool(false));
        // Trial 0: 35 > 36 → false; trial 1: 35 > 38 → false.
        let ctx = TupleCtx {
            row: row.values(),
            pubs: &pubs,
            mode: CtxMode::Trial(0),
        };
        assert_eq!(eval(&pred, &ctx).unwrap(), Value::Bool(false));
        // Classify: 35 ∈ [28.9, 45.1] → Maybe.
        let ctx = TupleCtx {
            row: row.values(),
            pubs: &pubs,
            mode: CtxMode::Classify,
        };
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::Maybe);
    }

    #[test]
    fn missing_group_semantics() {
        let pubs = pubs_with_scalar(true);
        let row = row![35.0f64];
        let pred = Expr::gt(
            Expr::col(0),
            Expr::ScalarRef {
                id: SubqueryId(0),
                key: vec![Expr::lit(99i64)],
            },
        );
        // Unknown group while live: uncertain.
        let ctx = TupleCtx {
            row: row.values(),
            pubs: &pubs,
            mode: CtxMode::Classify,
        };
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::Maybe);
        // Point: NULL comparison → filtered.
        let ctx = TupleCtx {
            row: row.values(),
            pubs: &pubs,
            mode: CtxMode::Point,
        };
        assert_eq!(eval(&pred, &ctx).unwrap(), Value::Null);
        // Once the producer is finished, missing = deterministic NULL.
        let pubs = pubs_with_scalar(false);
        let ctx = TupleCtx {
            row: row.values(),
            pubs: &pubs,
            mode: CtxMode::Classify,
        };
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::False);
    }

    #[test]
    fn membership_semantics() {
        let mut p = Published {
            live: true,
            ..Default::default()
        };
        p.members.insert(
            Arc::from(vec![Value::Int(7)]),
            PublishedMember {
                point: true,
                trials: vec![true, false],
                tri: Tri::Maybe,
                relied: AtomicU8::new(0),
            },
        );
        let pubs = vec![p];
        let row = row![7i64];
        let e = Expr::InSubquery {
            id: SubqueryId(0),
            key: vec![Expr::col(0)],
            negated: false,
        };
        let ctx = TupleCtx {
            row: row.values(),
            pubs: &pubs,
            mode: CtxMode::Classify,
        };
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::Maybe);
        let ctx = TupleCtx {
            row: row.values(),
            pubs: &pubs,
            mode: CtxMode::Point,
        };
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Bool(true));
        let ctx = TupleCtx {
            row: row.values(),
            pubs: &pubs,
            mode: CtxMode::Trial(1),
        };
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Bool(false));
        // Missing key while live → Maybe; not live → False.
        let row2 = row![8i64];
        let ctx = TupleCtx {
            row: row2.values(),
            pubs: &pubs,
            mode: CtxMode::Classify,
        };
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::Maybe);
    }

    #[test]
    fn group_ctx_ranges() {
        let pubs: Vec<Published> = vec![];
        let keys = [Value::Int(1)];
        let aggs = [Value::Float(310.0)];
        let ranges = [RangeVal::num(280.0, 340.0)];
        // HAVING sum > 300 with range overlapping → Maybe.
        let having = Expr::gt(Expr::col(1), Expr::lit(300.0));
        let ctx = GroupCtx {
            keys: &keys,
            aggs: &aggs,
            agg_ranges: Some(&ranges),
            pubs: &pubs,
            mode: CtxMode::Classify,
        };
        assert_eq!(eval_tri(&having, &ctx).unwrap(), Tri::Maybe);
        // Point evaluation passes.
        let ctx = GroupCtx {
            keys: &keys,
            aggs: &aggs,
            agg_ranges: None,
            pubs: &pubs,
            mode: CtxMode::Point,
        };
        assert_eq!(eval(&having, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn relied_transitions() {
        let m = PublishedMember {
            point: true,
            trials: vec![],
            tri: Tri::True,
            relied: AtomicU8::new(0),
        };
        assert_eq!(m.relied_on(), None);
        m.mark_relied(true);
        assert_eq!(m.relied_on(), Some(true));
        // First reliance wins.
        m.mark_relied(false);
        assert_eq!(m.relied_on(), Some(true));
    }

    #[test]
    fn runtime_reset() {
        let mut rt = BlockRuntime::default();
        rt.uncertain.tuple_ids.push(1);
        rt.slots.push(None);
        assert_eq!(rt.labels.groups.intern(&[Value::Int(7)]), 0);
        rt.reset();
        assert_eq!(rt.uncertain.len(), 0);
        assert!(rt.slots.is_empty());
        // The label set outlives a reset: a replay finds the same ids.
        assert_eq!(rt.labels.groups.len(), 1);
        assert_eq!(rt.labels.groups.intern(&[Value::Int(7)]), 0);
    }
}
