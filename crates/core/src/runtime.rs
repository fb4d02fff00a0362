//! Per-block runtime state, the blocks' publications, and [`PubView`], the
//! one reader of those publications.
//!
//! Every online evaluation that reads a producer — a candidate's filters
//! under classification, point or a bootstrap trial, a group's HAVING and
//! projection, a static producer's exact publication, reliance marking —
//! reads it through a [`PubView`] in one [`CtxMode`], the
//! [`gola_expr::Resolver`] that holds the reading rules.
//!
//! A block's [`BlockRuntime`] holds its fold-state table, its uncertain set
//! and its [`Labels`]: one label set per block for the query's lifetime,
//! naming every group and correlation key its candidates hold by a dense
//! id, so no later stage hashes a key. The table is indexed by those group
//! ids. Ids never order anything a report can see: a walk over them that
//! reaches one goes through [`KeyIds::sorted`], the one crossing from id
//! order to key order.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use gola_agg::ReplicatedStates;
use gola_common::{cmp_values, row_u32, Error, FxHashMap, Result, Value};
use gola_engine::HashIndex;
use gola_expr::lanes::{LaneContext, ScalarLanes, Trials};
use gola_expr::{EvalContext, Expr, RangeVal, Resolver, RowContext, SubqueryId, Tri};
use gola_storage::ColumnChunk;

use crate::compiled::CompiledBlock;
use crate::config::OnlineConfig;
use crate::recover::SeenIndex;

/// Everything a stage may read about the block it runs for. Frozen while
/// the stage runs, and `Sync`, so a wave's block jobs on pool workers
/// share it.
#[derive(Clone, Copy)]
pub(crate) struct BlockEnv<'a> {
    pub cb: &'a CompiledBlock,
    /// Per dimension join of a block that runs the join stage: the
    /// dimension table indexed on its join keys (empty for a static
    /// producer, which indexes its own).
    pub dims: &'a [HashIndex],
    pub config: &'a OnlineConfig,
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
/// tuple ids, the tuples' bootstrap weights, correlation-key ids, group
/// ids, last decisions and seen-index entries, and their lineage
/// projections as a columnar chunk.
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
    pub weights: Vec<u8>,
    /// Correlation-key ids from the block's [`Labels::keys`], row-major
    /// `len × conjuncts` (one per `FastScalarCmp` conjunct; empty when the
    /// block has none).
    pub key_ids: Vec<u32>,
    /// Group ids from the block's [`Labels::groups`], one per tuple.
    pub group_ids: Vec<u32>,
    /// Each tuple's decision at the last re-merge, row-major `len ×`
    /// [`decision_words`]: word `0` is the point (`1` when the tuple folds
    /// into the main state), then bit `b % 64` of word `1 + b / 64` is
    /// trial `b` (set when it folds into replica `b`). All zero for a tuple
    /// no re-merge has decided, which has contributed nothing.
    pub decisions: Vec<u64>,
    /// Each tuple's entry in the block's [`SeenIndex`], so the index learns
    /// when a carried tuple folds (empty for a block that keeps none).
    pub seen: Vec<u32>,
    /// Lineage projections, column-major (one column per lineage column).
    pub chunk: ColumnChunk,
}

/// `u64` words per tuple of [`UncertainSet::decisions`]: one for the
/// point, then a bit per trial.
pub(crate) fn decision_words(trials: u32) -> usize {
    1 + (trials as usize).div_ceil(64)
}

impl Default for UncertainSet {
    fn default() -> UncertainSet {
        UncertainSet {
            tuple_ids: Vec::new(),
            weights: Vec::new(),
            key_ids: Vec::new(),
            group_ids: Vec::new(),
            decisions: Vec::new(),
            seen: Vec::new(),
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
        self.decisions.clear();
        self.seen.clear();
        self.chunk = ColumnChunk::empty(0);
    }

    /// The tuples at `positions`, in that order, with their cached
    /// `trials`-wide weight rows, `conjuncts`-wide key-id rows, group ids,
    /// decisions and seen-index entries.
    pub(crate) fn gather(
        &self,
        positions: &[usize],
        trials: u32,
        conjuncts: usize,
    ) -> UncertainSet {
        UncertainSet {
            tuple_ids: positions.iter().map(|&i| self.tuple_ids[i]).collect(),
            weights: gather_rows(&self.weights, trials as usize, positions),
            key_ids: gather_rows(&self.key_ids, conjuncts, positions),
            group_ids: gather_rows(&self.group_ids, 1, positions),
            decisions: gather_rows(&self.decisions, decision_words(trials), positions),
            seen: gather_rows(&self.seen, usize::from(!self.seen.is_empty()), positions),
            chunk: self.chunk.gather(positions),
        }
    }

    /// `self`'s tuples followed by `other`'s.
    pub(crate) fn concat(mut self, other: UncertainSet) -> UncertainSet {
        self.tuple_ids.extend(other.tuple_ids);
        self.weights.extend(other.weights);
        self.key_ids.extend(other.key_ids);
        self.group_ids.extend(other.group_ids);
        self.decisions.extend(other.decisions);
        self.seen.extend(other.seen);
        self.chunk = self.chunk.concat(&other.chunk);
        self
    }
}

/// What the uncertain set's re-merge (`groups::effective_states`) keeps
/// between calls, so that a call folds only what changed.
///
/// Per group id, U's contribution at the last call: every tuple's stored
/// decision ([`UncertainSet::decisions`]) folded into fresh states — its
/// arguments into the main state where the point bit is set, at its
/// weight into each replica whose bit is set. Summing lanes are exact
/// sums, so the next call takes it forward by adding what entered and
/// retracting what left, and hands out the deterministic states merged
/// with it. `None` for a group the next call rebuilds from scratch: one no
/// call has merged, one whose contribution would not retract exactly
/// (non-finite or huge arguments), and every group after a reset.
#[derive(Debug, Default)]
pub struct Remerge {
    pub(crate) contrib: Vec<Option<ReplicatedStates>>,
    /// Tuples that left U (folded or dropped) since the last call, from
    /// groups with a contribution, with the decisions that call stored:
    /// the next call retracts them.
    pub(crate) gone: UncertainSet,
    /// The test oracle's switch: every call folds every decided tuple
    /// straight into a copy of the deterministic states and keeps nothing.
    #[cfg(test)]
    pub(crate) straight_only: bool,
    /// Groups re-merged from a kept contribution, from a rebuilt one, and
    /// straight into a copy of the deterministic states.
    #[cfg(test)]
    pub(crate) paths: [usize; 3],
}

impl Remerge {
    /// Does group `g` have a contribution a tuple leaving U must be
    /// retracted from?
    pub(crate) fn tracks(&self, g: u32) -> bool {
        self.contrib.get(g as usize).is_some_and(Option::is_some)
    }

    /// Forget every contribution: the next call rebuilds every group.
    pub(crate) fn clear(&mut self) {
        self.contrib.clear();
        self.gone.clear();
    }

    /// Does the test oracle's switch hold contributions off?
    #[cfg(test)]
    pub(crate) fn straight_only(&self) -> bool {
        self.straight_only
    }

    #[cfg(not(test))]
    pub(crate) fn straight_only(&self) -> bool {
        false
    }

    /// Count a group re-merged through path `path` (see `paths`).
    #[cfg(test)]
    pub(crate) fn took(&mut self, path: usize) {
        self.paths[path] += 1;
    }

    #[cfg(not(test))]
    pub(crate) fn took(&mut self, _path: usize) {}
}

/// Rows `positions` of the row-major `width`-wide matrix `v`, in that
/// order.
pub(crate) fn gather_rows<T: Copy>(v: &[T], width: usize, positions: &[usize]) -> Vec<T> {
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
    /// into consumer aggregates): bare `f64` lanes when every trial is
    /// `Float` or NULL — what a summing aggregate finalizes to — and
    /// `Value`s for an `Int`, `Bool` or string scalar.
    pub trials: Trials,
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

    /// The value a reference reads under `mode`: trial `b`'s where it was
    /// published, the point otherwise.
    fn at(&self, mode: CtxMode) -> Value {
        let trial = match mode {
            CtxMode::Trial(b) => self.trials.get(b as usize),
            _ => None,
        };
        trial.unwrap_or_else(|| self.value.clone())
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
    /// Every seen candidate by group and correlation key, and whether it
    /// is folded, for a block a recovery can scope (`None` for any other
    /// block).
    pub seen: Option<SeenIndex>,
    /// The uncertain set's contribution per group at the last re-merge.
    pub remerge: Remerge,
}

impl BlockRuntime {
    /// Drop all accumulated state (failure-triggered recomputation). The
    /// label set and the seen index stay: they record which keys and
    /// candidates the batches hold, and replays add nothing to them. Only
    /// the index's record of which candidates are folded goes, with the
    /// folds.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.uncertain.clear();
        self.remerge.clear();
        if let Some(seen) = &mut self.seen {
            seen.unfold_all();
        }
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

/// Every block's publications read in one [`CtxMode`]: the one place that
/// says how a subquery reference reads its producer.
///
/// * A group the producer has not published reads as NULL (a scalar) or
///   not-a-member — except under [`CtxMode::Classify`] while the producer
///   is live, where it may still appear: `Unknown` / `Maybe`.
/// * [`CtxMode::Trial`] past the published trials reads the point.
/// * Under [`CtxMode::Classify`] a published scalar reads its committed
///   envelope and a membership its range-classified `tri`.
#[derive(Clone, Copy)]
pub(crate) struct PubView<'a> {
    pub pubs: &'a [Published],
    pub mode: CtxMode,
}

impl<'a> PubView<'a> {
    /// Producer `id`'s publication.
    pub fn producer(&self, id: SubqueryId) -> Result<&'a Published> {
        self.pubs
            .get(id.0)
            .ok_or_else(|| Error::exec(format!("no published output for {id}")))
    }

    /// `point`, or under [`CtxMode::Trial`] that trial's value when it was
    /// published.
    fn pick<'v, T>(&self, point: &'v T, trials: &'v [T]) -> &'v T {
        match self.mode {
            CtxMode::Trial(b) => trials.get(b as usize).unwrap_or(point),
            _ => point,
        }
    }

    fn may_appear(&self, p: &Published) -> bool {
        p.live && self.mode == CtxMode::Classify
    }

    /// Scalar producer `id`'s entry for `key` in every lane; a missing
    /// group is NULL everywhere, as [`Resolver::scalar`] reads it.
    pub fn scalar_lanes(&self, id: SubqueryId, key: &[Value]) -> Result<ScalarLanes<'a>> {
        Ok(match self.producer(id)?.scalars.get(key) {
            Some(s) => ScalarLanes {
                point: &s.value,
                trials: &s.trials,
            },
            None => ScalarLanes::NULL,
        })
    }
}

impl Resolver for PubView<'_> {
    fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<Value> {
        Ok(match self.producer(id)?.scalars.get(key) {
            Some(s) => s.at(self.mode),
            None => Value::Null,
        })
    }

    fn member(&self, id: SubqueryId, key: &[Value]) -> Result<bool> {
        Ok(match self.producer(id)?.members.get(key) {
            Some(m) => *self.pick(&m.point, &m.trials),
            None => false,
        })
    }

    fn scalar_range(&self, id: SubqueryId, key: &[Value]) -> Result<RangeVal> {
        let p = self.producer(id)?;
        Ok(match p.scalars.get(key) {
            Some(s) if self.mode == CtxMode::Classify => s.env.clone(),
            Some(s) => RangeVal::Exact(s.at(self.mode)),
            None if self.may_appear(p) => RangeVal::Unknown,
            None => RangeVal::Exact(Value::Null),
        })
    }

    fn member_tri(&self, id: SubqueryId, key: &[Value]) -> Result<Tri> {
        let p = self.producer(id)?;
        Ok(match p.members.get(key) {
            Some(m) if self.mode == CtxMode::Classify => m.tri,
            Some(m) => Tri::from(*self.pick(&m.point, &m.trials)),
            None if self.may_appear(p) => Tri::Maybe,
            None => Tri::False,
        })
    }
}

/// One tuple under [`CtxMode::Point`] (lane `0`) and every
/// [`CtxMode::Trial`] (lane `1 + b`) at once, for the lane evaluator. A
/// column is read straight off the chunk; the whole row is built only for
/// an expression that needs it.
pub(crate) struct TupleLanes<'a> {
    chunk: &'a ColumnChunk,
    i: usize,
    row: OnceCell<Vec<Value>>,
    view: PubView<'a>,
    trials: u32,
}

impl LaneContext for TupleLanes<'_> {
    fn lanes(&self) -> usize {
        1 + self.trials as usize
    }

    fn eval_at(&self, lane: usize, expr: &Expr) -> Result<Value> {
        if let Expr::Column(c) = expr {
            return Ok(self.chunk.column(*c).value(self.i));
        }
        let mode = match lane.checked_sub(1) {
            Some(b) => CtxMode::Trial(row_u32(b)),
            None => CtxMode::Point,
        };
        let view = PubView { mode, ..self.view };
        let row = self.row.get_or_init(|| {
            let mut row = Vec::new();
            self.chunk.row_values_into(self.i, &mut row);
            row
        });
        gola_expr::eval::eval(expr, &RowContext::new(row, &view))
    }

    fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<ScalarLanes<'_>> {
        self.view.scalar_lanes(id, key)
    }
}

/// Reads per-tuple expressions off a candidate chunk: a plain column
/// reference comes straight from the column and a literal is itself (the
/// common cases — no row materialization, no expression-tree walk); a
/// general expression evaluates over a row buffer filled at most once per
/// tuple.
pub(crate) struct TupleReader<'a> {
    pub chunk: &'a ColumnChunk,
    view: PubView<'a>,
    rowbuf: Vec<Value>,
    /// The tuple `rowbuf` currently holds.
    filled: Option<usize>,
}

impl<'a> TupleReader<'a> {
    pub fn new(chunk: &'a ColumnChunk, pubs: &'a [Published]) -> TupleReader<'a> {
        TupleReader {
            chunk,
            view: PubView {
                pubs,
                mode: CtxMode::Point,
            },
            rowbuf: Vec::new(),
            filled: None,
        }
    }

    /// Evaluation context over tuple `i`'s full row, reading the producers
    /// in `mode`.
    pub fn ctx(&mut self, i: usize, mode: CtxMode) -> RowContext<'_> {
        if self.filled != Some(i) {
            self.chunk.row_values_into(i, &mut self.rowbuf);
            self.filled = Some(i);
        }
        self.view.mode = mode;
        RowContext::new(&self.rowbuf, &self.view)
    }

    /// Tuple `i` under every point/trial mode.
    pub fn lanes(&self, i: usize, trials: u32) -> TupleLanes<'a> {
        TupleLanes {
            chunk: self.chunk,
            i,
            row: OnceCell::new(),
            view: self.view,
            trials,
        }
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
    pub view: PubView<'a>,
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

    fn resolver(&self) -> &dyn Resolver {
        &self.view
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
                trials: Trials::from_values(vec![Value::Float(36.0), Value::Float(38.0)]),
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

    fn view(pubs: &[Published], mode: CtxMode) -> PubView<'_> {
        PubView { pubs, mode }
    }

    #[test]
    fn tuple_ctx_modes() {
        let pubs = pubs_with_scalar(true);
        let row = row![35.0f64];
        let pred = Expr::gt(Expr::col(0), sref());
        let ctx = |v: &PubView<'_>| eval(&pred, &RowContext::new(row.values(), v)).unwrap();
        // Point: 35 > 37 → false.
        assert_eq!(ctx(&view(&pubs, CtxMode::Point)), Value::Bool(false));
        // Trial 0: 35 > 36 → false; trial 1: 35 > 38 → false.
        assert_eq!(ctx(&view(&pubs, CtxMode::Trial(0))), Value::Bool(false));
        // Classify: 35 ∈ [28.9, 45.1] → Maybe.
        let classify = view(&pubs, CtxMode::Classify);
        let tri = eval_tri(&pred, &RowContext::new(row.values(), &classify));
        assert_eq!(tri.unwrap(), Tri::Maybe);
        // The whole scalar table: point, each trial, a trial past the
        // published ones (the point), and the range each mode reads.
        let (id, exact) = (SubqueryId(0), |x| RangeVal::Exact(Value::Float(x)));
        for (mode, value, range) in [
            (CtxMode::Point, 37.0, exact(37.0)),
            (CtxMode::Trial(0), 36.0, exact(36.0)),
            (CtxMode::Trial(1), 38.0, exact(38.0)),
            (CtxMode::Trial(2), 37.0, exact(37.0)),
            (CtxMode::Classify, 37.0, RangeVal::num(28.9, 45.1)),
        ] {
            let v = view(&pubs, mode);
            assert_eq!(v.scalar(id, &[]).unwrap(), Value::Float(value), "{mode:?}");
            assert_eq!(v.scalar_range(id, &[]).unwrap(), range, "{mode:?}");
        }
        // A producer that was never published is an error, in every mode.
        assert!(view(&pubs, CtxMode::Point)
            .scalar(SubqueryId(1), &[])
            .is_err());
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
        let classify = view(&pubs, CtxMode::Classify);
        let ctx = RowContext::new(row.values(), &classify);
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::Maybe);
        // Point: NULL comparison → filtered.
        let point = view(&pubs, CtxMode::Point);
        let ctx = RowContext::new(row.values(), &point);
        assert_eq!(eval(&pred, &ctx).unwrap(), Value::Null);
        // Only classification of a live producer leaves a missing group
        // open; every other mode reads NULL.
        let key = [Value::Int(99)];
        for (live, mode, range) in [
            (true, CtxMode::Classify, RangeVal::Unknown),
            (true, CtxMode::Point, RangeVal::Exact(Value::Null)),
            (true, CtxMode::Trial(1), RangeVal::Exact(Value::Null)),
            (false, CtxMode::Classify, RangeVal::Exact(Value::Null)),
        ] {
            let pubs = pubs_with_scalar(live);
            let v = view(&pubs, mode);
            assert_eq!(v.scalar(SubqueryId(0), &key).unwrap(), Value::Null);
            assert_eq!(v.scalar_range(SubqueryId(0), &key).unwrap(), range);
        }
        // Once the producer is finished, missing = deterministic NULL.
        let pubs = pubs_with_scalar(false);
        let classify = view(&pubs, CtxMode::Classify);
        let ctx = RowContext::new(row.values(), &classify);
        assert_eq!(eval_tri(&pred, &ctx).unwrap(), Tri::False);
    }

    #[test]
    fn membership_semantics() {
        let members = |live: bool| {
            let mut p = Published {
                live,
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
            vec![p]
        };
        let pubs = members(true);
        let row = row![7i64];
        let e = Expr::InSubquery {
            id: SubqueryId(0),
            key: vec![Expr::col(0)],
            negated: false,
        };
        let classify = view(&pubs, CtxMode::Classify);
        let ctx = RowContext::new(row.values(), &classify);
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::Maybe);
        let point = view(&pubs, CtxMode::Point);
        let ctx = RowContext::new(row.values(), &point);
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Bool(true));
        let trial = view(&pubs, CtxMode::Trial(1));
        let ctx = RowContext::new(row.values(), &trial);
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Bool(false));
        // Missing key while live → Maybe; not live → False.
        let row2 = row![8i64];
        let ctx = RowContext::new(row2.values(), &classify);
        assert_eq!(eval_tri(&e, &ctx).unwrap(), Tri::Maybe);
        // The whole membership table, present key 7 and missing key 8.
        let id = SubqueryId(0);
        let (k7, k8) = ([Value::Int(7)], [Value::Int(8)]);
        for (live, mode, member, tri, missing) in [
            (true, CtxMode::Point, true, Tri::True, Tri::False),
            (true, CtxMode::Trial(0), true, Tri::True, Tri::False),
            (true, CtxMode::Trial(1), false, Tri::False, Tri::False),
            // Past the published trials: the point.
            (true, CtxMode::Trial(2), true, Tri::True, Tri::False),
            (true, CtxMode::Classify, true, Tri::Maybe, Tri::Maybe),
            // A finished producer's missing member is deterministic.
            (false, CtxMode::Classify, true, Tri::Maybe, Tri::False),
        ] {
            let pubs = members(live);
            let v = view(&pubs, mode);
            assert_eq!(v.member(id, &k7).unwrap(), member, "{live} {mode:?}");
            assert_eq!(v.member_tri(id, &k7).unwrap(), tri, "{live} {mode:?}");
            assert!(!v.member(id, &k8).unwrap(), "{live} {mode:?}");
            assert_eq!(v.member_tri(id, &k8).unwrap(), missing, "{live} {mode:?}");
        }
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
            view: view(&pubs, CtxMode::Classify),
        };
        assert_eq!(eval_tri(&having, &ctx).unwrap(), Tri::Maybe);
        // Point evaluation passes.
        let ctx = GroupCtx {
            keys: &keys,
            aggs: &aggs,
            agg_ranges: None,
            view: view(&pubs, CtxMode::Point),
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
