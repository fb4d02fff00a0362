//! Per-block runtime state and the online evaluation contexts.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use gola_agg::ReplicatedStates;
use gola_common::{cmp_values, Error, FxHashMap, Result, Row, Value};
use gola_expr::lanes::{LaneContext, ScalarLanes};
use gola_expr::{EvalContext, Expr, RangeVal, SubqueryId, Tri};
use gola_storage::ColumnChunk;

use crate::compiled::CompiledBlock;
use crate::config::OnlineConfig;
use crate::pool::WorkerPool;

/// Everything a stage may read about the block it runs for. Frozen while
/// the stage runs, and `Sync`, so chunk jobs on pool workers share it.
#[derive(Clone, Copy)]
pub(crate) struct BlockEnv<'a> {
    pub cb: &'a CompiledBlock,
    /// Per dimension join of the block: join key → dimension rows.
    pub dims: &'a [FxHashMap<Vec<Value>, Vec<Row>>],
    pub config: &'a OnlineConfig,
    pub pool: &'a WorkerPool,
    /// Published output of every block, indexed by block id.
    pub pubs: &'a [Published],
}

/// Borrow a hash map's entries in canonical key order ([`cmp_values`]).
///
/// The runtime keeps grouped state in `FxHashMap`s (lookup-heavy hot path),
/// but hash iteration order must never be observable downstream — any walk
/// whose effects can reach a `BatchReport` (float merge order, row order,
/// chunk boundaries) goes through this helper instead. This is the single
/// blessed crossing from hash-ordered storage to published order.
pub fn sorted_entries<V>(map: &FxHashMap<Vec<Value>, V>) -> Vec<(&Vec<Value>, &V)> {
    #[expect(clippy::disallowed_methods, reason = "sorted by total key order below")]
    let mut entries: Vec<(&Vec<Value>, &V)> = map.iter().collect();
    entries.sort_by(|a, b| cmp_values(a.0, b.0));
    entries
}

/// Consuming variant of [`sorted_entries`].
pub fn sorted_into_entries<V>(map: FxHashMap<Vec<Value>, V>) -> Vec<(Vec<Value>, V)> {
    // `into_iter` is out of clippy.toml's reach; the sort below is what
    // keeps hash order from escaping.
    let mut entries: Vec<(Vec<Value>, V)> = map.into_iter().collect();
    entries.sort_by(|a, b| cmp_values(&a.0, &b.0));
    entries
}

/// `map[key]`, created by `new` on first sight. Probing with the borrowed
/// slice means the key is cloned once per group, not once per tuple.
#[expect(clippy::expect_used, reason = "the entry is inserted above if missing")]
pub(crate) fn entry_mut<'m, V>(
    map: &'m mut FxHashMap<Vec<Value>, V>,
    key: &[Value],
    new: impl FnOnce() -> Result<V>,
) -> Result<&'m mut V> {
    if !map.contains_key(key) {
        map.insert(key.to_vec(), new()?);
    }
    Ok(map.get_mut(key).expect("entry exists"))
}

/// The uncertain set `Uᵢ` of one block, stored struct-of-arrays: stable
/// tuple ids, the tuples' bootstrap weights, and their lineage projections
/// as a columnar chunk.
///
/// Weights are a pure function of `(tuple_id, trial, seed)`, so they are
/// computed exactly once — when a tuple first stays uncertain — and carried
/// here for every later re-evaluation (`effective_states`) and re-classify,
/// instead of re-deriving `|Uᵢ| × trials` hash streams per batch.
#[derive(Debug)]
pub struct UncertainSet {
    /// Stable per-tuple ids (row index in the source table).
    pub tuple_ids: Vec<u64>,
    /// Bootstrap weights, row-major `len × trials`.
    pub weights: Vec<u32>,
    /// Lineage projections, column-major (one column per lineage column).
    pub chunk: ColumnChunk,
}

impl Default for UncertainSet {
    fn default() -> UncertainSet {
        UncertainSet {
            tuple_ids: Vec::new(),
            weights: Vec::new(),
            chunk: ColumnChunk::empty(0),
        }
    }
}

impl UncertainSet {
    pub fn len(&self) -> usize {
        self.tuple_ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuple_ids.is_empty()
    }

    pub fn clear(&mut self) {
        self.tuple_ids.clear();
        self.weights.clear();
        self.chunk = ColumnChunk::empty(0);
    }

    /// The tuples at `positions`, in that order, with their cached
    /// `trials`-wide weight rows.
    pub(crate) fn gather(&self, positions: &[usize], trials: usize) -> UncertainSet {
        UncertainSet {
            tuple_ids: positions.iter().map(|&i| self.tuple_ids[i]).collect(),
            weights: (positions.iter())
                .flat_map(|&i| &self.weights[i * trials..][..trials])
                .copied()
                .collect(),
            chunk: self.chunk.gather(positions),
        }
    }

    /// `self`'s tuples followed by `other`'s.
    pub(crate) fn concat(mut self, other: UncertainSet) -> UncertainSet {
        self.tuple_ids.extend(other.tuple_ids);
        self.weights.extend(other.weights);
        self.chunk = self.chunk.concat(&other.chunk);
        self
    }
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
    /// Deterministic aggregate states per group (main + bootstrap replicas).
    pub groups: FxHashMap<Vec<Value>, ReplicatedStates>,
    /// The uncertain set `Uᵢ`.
    pub uncertain: UncertainSet,
    /// Semi-join partial aggregates: membership key → (group key → states).
    /// Used instead of `groups`/`uncertain` when the block compiles to the
    /// semi-join aggregation strategy.
    pub semi_groups: FxHashMap<Vec<Value>, FxHashMap<Vec<Value>, ReplicatedStates>>,
    /// `true` once a static (non-streaming) block has been computed.
    pub static_done: bool,
}

impl BlockRuntime {
    /// Drop all accumulated state (failure-triggered recomputation).
    pub fn reset(&mut self) {
        self.groups.clear();
        self.uncertain.clear();
        self.semi_groups.clear();
        self.static_done = false;
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
        rt.static_done = true;
        rt.reset();
        assert!(rt.uncertain.is_empty());
        assert!(!rt.static_done);
    }
}
