//! Bootstrap-replicated aggregate states.
//!
//! A [`ReplicatedStates`] bundles, for a list of aggregate specs, one
//! *main* state (updated with weight 1; the true estimate) and `B`
//! *replica* states (updated with each tuple's deterministic `Poisson(1)`
//! weights). This is the per-group incremental unit inside every lineage
//! block: a mini-batch folds each tuple in once, and at any point the
//! states finalize into an [`Estimate`] carrying a value plus its bootstrap
//! distribution — from which confidence intervals *and* variation ranges
//! are derived.
//!
//! Storage is lane-major: each aggregate keeps its main state and all its
//! replicas together (index `0` the main state, `1 + b` replica `b`). The
//! summing kinds (COUNT/SUM/AVG/VAR/STDDEV) keep them as dense arrays —
//! one weight total and one exact sum ([`DenseSums`]) per replica — so a
//! run fold and a finalize over every replica are straight loops over
//! contiguous `f64`s; MIN/MAX/QUANTILE/UDAF keep one [`AggState`] each.
//!
//! Every summing lane is exact — integer weight tallies and [`DenseSums`]
//! — so a contribution folded in can be taken back out
//! ([`ReplicatedStates::retract_run`], [`ReplicatedStates::retract_main`])
//! and the states finalize as if it had never been folded, as long as no
//! sum leaves the finite range ([`ReplicatedStates::retracts_exactly`]).

use gola_bootstrap::{BootstrapSpec, Estimate};
use gola_common::fsum::{self, two_product, CellBuf, DenseSums, RunBuf, WeightedRun};
use gola_common::Value;

use crate::kind::AggKind;
use crate::state::AggState;

/// Reusable buffers of [`ReplicatedStates::fold_run`] (one per fold loop).
#[derive(Debug, Default)]
pub struct FoldScratch {
    run: RunBuf,
    xs: Vec<f64>,
    /// Both halves of `two_product(x, x)` per tuple (VAR/STDDEV).
    hi: Vec<f64>,
    lo: Vec<f64>,
    /// [`ReplicatedStates::move_cells`]' cells of one lane, and the
    /// kernel's buffers.
    cells: Vec<(u32, u32, i16)>,
    cell_buf: CellBuf,
}

/// What a [`Dense`] lane finalizes to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Moment {
    Count,
    Sum,
    Avg,
    Var { stddev: bool },
}

/// A summing aggregate's main state and replicas, one array slot each.
/// Slot `i` holds what [`AggState`]'s matching variant would: COUNT's
/// `weight_sum`, SUM/AVG's `weight_sum` and `sum`, VAR's `count`, `sum`
/// and `sumsq`.
#[derive(Debug, Clone)]
struct Dense {
    moment: Moment,
    weight: Vec<f64>,
    /// `Σw·x` (none for COUNT).
    sum: DenseSums,
    /// `Σw·x²` (VAR only).
    sumsq: DenseSums,
    /// SUM: how many of the main state's contributions are negative, net
    /// of retractions (states that only carry a difference may hold fewer
    /// than none). A replica's count would have no reader: only the main
    /// state has a lower bound.
    negatives: i64,
}

/// Largest magnitude of an argument a summing lane folds and retracts
/// exactly: its weighted square, times 2^50 contributions, stays below
/// 2^900, so no exact sum of such contributions overflows.
const RETRACT_BOUND: f64 = 1.0e120;

/// Largest magnitude of a finite sum that takes a merge of retractable
/// contributions exactly (2^1020): the merged total stays finite, so it
/// rounds as a fold of the same contributions would.
const MERGE_BOUND: f64 = f64::from_bits((1023 + 1020) << 52);

impl Dense {
    fn new(moment: Moment, slots: usize) -> Dense {
        let sums = |on: bool| DenseSums::new(if on { slots } else { 0 });
        Dense {
            moment,
            weight: vec![0.0; slots],
            sum: sums(moment != Moment::Count),
            sumsq: sums(matches!(moment, Moment::Var { .. })),
            negatives: 0,
        }
    }

    /// [`AggState::update`] on slot `i`.
    fn update(&mut self, i: usize, v: &Value, w: f64) {
        self.put(i, v, w, 1.0);
    }

    /// Take an [`update`](Self::update) of slot `i` back out: the same
    /// terms, negated.
    fn retract(&mut self, i: usize, v: &Value, w: f64) {
        self.put(i, v, w, -1.0);
    }

    /// [`update`](Self::update) with every term times `sign` (`±1`).
    fn put(&mut self, i: usize, v: &Value, w: f64, sign: f64) {
        if v.is_null() || w <= 0.0 {
            return;
        }
        if self.moment == Moment::Count {
            self.weight[i] += sign * w;
            return;
        }
        let Some(x) = v.as_f64() else { return };
        self.weight[i] += sign * w;
        self.sum.add_product(i, sign * x, w);
        match self.moment {
            Moment::Sum if x < 0.0 && i == 0 => self.negatives += if sign < 0.0 { -1 } else { 1 },
            Moment::Var { .. } => {
                // `add_product(·, 1.0)` is `add(·)`, so this is
                // `ExactVariance::add_weighted` at every weight.
                let (p, e) = two_product(x, x);
                self.sumsq.add_product(i, sign * e, w);
                self.sumsq.add_product(i, sign * p, w);
            }
            _ => {}
        }
    }

    /// [`AggState::merge`] of `other`'s slot `i` into slot `i`.
    fn merge(&mut self, i: usize, other: &Dense) {
        self.weight[i] += other.weight[i];
        if !self.sum.is_empty() {
            self.sum.merge(i, &other.sum, i);
        }
        if !self.sumsq.is_empty() {
            self.sumsq.merge(i, &other.sumsq, i);
        }
        if i == 0 {
            self.negatives += other.negatives;
        }
    }

    /// [`merge`](Self::merge) of every slot at once.
    fn merge_all(&mut self, other: &Dense) {
        let weights = self.weight.iter_mut().zip(&other.weight);
        weights.for_each(|(a, &b)| *a += b);
        self.sum.merge_all(&other.sum);
        self.sumsq.merge_all(&other.sumsq);
        self.negatives += other.negatives;
    }

    /// Is every sum non-finite (no finite term moves it) or within
    /// [`MERGE_BOUND`]?
    fn within_merge_bound(&self) -> bool {
        let fits = |sums: &DenseSums| {
            (0..sums.len()).all(|i| {
                let v = sums.value(i);
                !v.is_finite() || v.abs() <= MERGE_BOUND
            })
        };
        fits(&self.sum) && fits(&self.sumsq)
    }

    /// [`AggState::finalize_f64`] of slot `i`.
    #[inline]
    fn finalize_f64(&self, i: usize, scale: f64) -> Option<f64> {
        let w = self.weight[i];
        match self.moment {
            Moment::Count => Some(w * scale),
            _ if w == 0.0 => None,
            Moment::Sum => Some(self.sum.value(i) * scale),
            Moment::Avg => Some(self.sum.value(i) / w),
            Moment::Var { stddev } => {
                let sums = || (self.sum.value(i), self.sumsq.value(i));
                fsum::variance_pop(w, sums).map(|v| if stddev { v.sqrt() } else { v })
            }
        }
    }

    /// [`finalize_f64`](Self::finalize_f64) of every replica, appended to
    /// `out` in trial order: one pass over the arrays while the sums are
    /// dense.
    fn finalize_replicas(&self, scale: f64, out: &mut Vec<Option<f64>>) {
        let weights = &self.weight[1..];
        match (self.moment, self.sum.dense_values()) {
            (Moment::Count, _) => out.extend(weights.iter().map(|&w| Some(w * scale))),
            (Moment::Sum, Some(sums)) => {
                let each = weights.iter().zip(&sums[1..]);
                out.extend(each.map(|(&w, &s)| (w != 0.0).then_some(s * scale)));
            }
            (Moment::Avg, Some(sums)) => {
                let each = weights.iter().zip(&sums[1..]);
                out.extend(each.map(|(&w, &s)| (w != 0.0).then_some(s / w)));
            }
            _ => out.extend((1..self.weight.len()).map(|i| self.finalize_f64(i, scale))),
        }
    }

    /// Add the stream `run` summed last into `sums`: each level's pieces
    /// with one [`DenseSums::add_slice`] over the replicas (and one `add`
    /// for the main state), then one `add_product` per cell of what the
    /// run handed back — in each slot the order a per-replica fold takes.
    fn take_sums(sums: &mut DenseSums, run: &WeightedRun<'_>, rows: &[&[u8]], main: bool) {
        let trials = sums.len() - 1;
        for level in run.levels() {
            sums.add_slice(1, &level[..trials]);
            if main {
                sums.add(0, level[trials]);
            }
        }
        for &(t, x) in run.leftover() {
            for (i, &w) in (1..).zip(rows[t]) {
                if w != 0 {
                    sums.add_product(i, x, f64::from(w));
                }
            }
            if main {
                sums.add_product(0, x, 1.0);
            }
        }
    }
}

/// One aggregate's states, lane-major (slot `0` main, `1 + b` replica `b`).
#[derive(Debug, Clone)]
enum Lane {
    Dense(Dense),
    /// MIN/MAX/QUANTILE/UDAF: they look at every value themselves.
    States(Vec<AggState>),
}

impl Lane {
    fn new(kind: &AggKind, slots: usize) -> Lane {
        let moment = match kind {
            AggKind::Count => Moment::Count,
            AggKind::Sum => Moment::Sum,
            AggKind::Avg => Moment::Avg,
            AggKind::VarPop => Moment::Var { stddev: false },
            AggKind::StdDev => Moment::Var { stddev: true },
            _ => return Lane::States((0..slots).map(|_| kind.new_state()).collect()),
        };
        Lane::Dense(Dense::new(moment, slots))
    }

    fn update(&mut self, i: usize, v: &Value, w: f64) {
        match self {
            Lane::Dense(d) => d.update(i, v, w),
            Lane::States(s) => s[i].update(v, w),
        }
    }

    fn merge(&mut self, i: usize, other: &Lane) {
        match (self, other) {
            (Lane::Dense(a), Lane::Dense(b)) => a.merge(i, b),
            (Lane::States(a), Lane::States(b)) => a[i].merge(&b[i]),
            (a, b) => panic!("cannot merge lanes of different kinds: {a:?} / {b:?}"),
        }
    }

    fn finalize(&self, i: usize, scale: f64) -> Value {
        match self {
            Lane::Dense(d) => d.finalize_f64(i, scale).map_or(Value::Null, Value::Float),
            Lane::States(s) => s[i].finalize(scale),
        }
    }

    #[inline]
    fn finalize_f64(&self, i: usize, scale: f64) -> Option<f64> {
        match self {
            Lane::Dense(d) => d.finalize_f64(i, scale),
            Lane::States(s) => s[i].finalize_f64(scale),
        }
    }
}

/// Main + replica accumulators for a list of aggregates over one group.
#[derive(Debug, Clone)]
pub struct ReplicatedStates {
    lanes: Vec<Lane>,
    trials: u32,
}

impl ReplicatedStates {
    /// Fresh states for `kinds` with `trials` bootstrap replicas.
    pub fn new(kinds: &[AggKind], trials: u32) -> Self {
        let slots = 1 + trials as usize;
        ReplicatedStates {
            lanes: kinds.iter().map(|k| Lane::new(k, slots)).collect(),
            trials,
        }
    }

    /// Number of bootstrap replicas.
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// Number of aggregates per state.
    pub fn num_aggs(&self) -> usize {
        self.lanes.len()
    }

    /// Fold one tuple in: `values[j]` is the j-th aggregate's argument
    /// evaluated on the tuple. The main state updates with weight 1; each
    /// replica with the tuple's hash-derived Poisson weight.
    pub fn update(&mut self, values: &[Value], tuple_id: u64, bootstrap: &BootstrapSpec) {
        debug_assert_eq!(values.len(), self.num_aggs());
        let row: Vec<u32> = (0..self.trials)
            .map(|b| bootstrap.weight(tuple_id, b))
            .collect();
        for (lane, v) in self.lanes.iter_mut().zip(values) {
            lane.update(0, v, 1.0);
            for (i, &w) in (1..).zip(&row).filter(|(_, &w)| w != 0) {
                lane.update(i, v, f64::from(w));
            }
        }
    }

    /// Fold a *run* of tuples into aggregate lane `j`: `values[t]` is the
    /// lane's argument on tuple `t`, `rows[t]` the tuple's weight in each
    /// replica (a row of [`BootstrapSpec::weights_batch`], or a masked
    /// copy — weight 0 leaves a replica out). With `include_main` the main
    /// state takes every tuple at weight 1; without it only replicas move
    /// (uncertain-set evaluation decides main inclusion tuple by tuple and
    /// uses [`ReplicatedStates::update_main`]).
    ///
    /// Equals, bit for bit at every finalize, [`ReplicatedStates::update_main`]
    /// plus one [`ReplicatedStates::update_replica`] per non-zero weight in
    /// ascending trial order, tuple after tuple. COUNT and every weight
    /// tally take the run's integer column totals; SUM/AVG/VAR take the
    /// exact column sums of a [`WeightedRun`] (VAR: of `x` and of both
    /// halves of `two_product(x, x)`); MIN/MAX/QUANTILE/UDAF look at every
    /// value themselves, in run order.
    pub fn fold_run(
        &mut self,
        j: usize,
        values: &[Value],
        rows: &[&[u8]],
        include_main: bool,
        scratch: &mut FoldScratch,
    ) {
        self.fold_signed(j, values, rows, include_main, 1.0, scratch);
    }

    /// Take a replica-only [`fold_run`](Self::fold_run) of the same values
    /// and rows back out of summing lane `j`: the weight tallies drop by
    /// the run's totals and the sums take the negated values, so the
    /// states finalize as if the run had never been folded — provided every
    /// value [`retracts_exactly`](Self::retracts_exactly). Panics on a
    /// MIN/MAX/QUANTILE/UDAF lane, which cannot forget a value.
    pub fn retract_run(
        &mut self,
        j: usize,
        values: &[Value],
        rows: &[&[u8]],
        scratch: &mut FoldScratch,
    ) {
        self.fold_signed(j, values, rows, false, -1.0, scratch);
    }

    /// [`fold_run`](Self::fold_run) with every value times `sign` (`±1`);
    /// `-1` takes the weight tallies down instead of up.
    fn fold_signed(
        &mut self,
        j: usize,
        values: &[Value],
        rows: &[&[u8]],
        include_main: bool,
        sign: f64,
        scratch: &mut FoldScratch,
    ) {
        assert_eq!(values.len(), rows.len(), "one weight row per tuple");
        let trials = self.trials as usize;
        if !include_main && trials == 0 {
            return; // no state to fold into
        }
        let lane = match &mut self.lanes[j] {
            Lane::Dense(lane) => lane,
            Lane::States(_) if sign < 0.0 => panic!("lane {j} cannot retract: not a summing lane"),
            Lane::States(states) => {
                let (main, replicas) = states.split_at_mut(1);
                for (v, row) in values.iter().zip(rows).filter(|(v, _)| !v.is_null()) {
                    if include_main {
                        main[0].update(v, 1.0);
                    }
                    for (st, &w) in replicas.iter_mut().zip(*row) {
                        if w != 0 {
                            st.update(v, f64::from(w));
                        }
                    }
                }
                return;
            }
        };
        // COUNT takes every non-null argument, the sums every numeric one;
        // the tuples a lane skips leave the run before it is weighed.
        let counts = lane.moment == Moment::Count;
        let arg = |v: &Value| match v {
            Value::Null => None,
            _ if counts => Some(0.0),
            v => v.as_f64(),
        };
        let FoldScratch {
            run, xs, hi, lo, ..
        } = scratch;
        xs.clear();
        xs.extend(values.iter().filter_map(arg).map(|x| sign * x));
        let kept: Vec<&[u8]>;
        let rows = if xs.len() == values.len() {
            rows
        } else {
            let taken = rows.iter().zip(values).filter(|(_, v)| arg(v).is_some());
            kept = taken.map(|(row, _)| *row).collect();
            &kept
        };
        let mut run = WeightedRun::new(rows, trials, include_main, run);
        // Exact: a run's weight total is far below 2^53.
        let tallies = lane.weight[1..].iter_mut().zip(run.totals());
        tallies.for_each(|(tally, &total)| *tally += sign * total as f64);
        if include_main {
            lane.weight[0] += rows.len() as f64;
        }
        if counts {
            return;
        }
        run.sum(xs);
        Dense::take_sums(&mut lane.sum, &run, rows, include_main);
        if matches!(lane.moment, Moment::Var { .. }) {
            hi.clear();
            lo.clear();
            for (p, e) in xs.iter().map(|&x| two_product(x, x)) {
                hi.push(sign * p);
                lo.push(sign * e);
            }
            for half in [&*lo, &*hi] {
                run.sum(half);
                Dense::take_sums(&mut lane.sumsq, &run, rows, include_main);
            }
        }
        // SUM's main state counts its negative contributions.
        if lane.moment == Moment::Sum && include_main {
            lane.negatives += xs.iter().filter(|&&x| x < 0.0).count() as i64;
        }
    }

    /// Merge every state of `other` — main and replicas — into `self`'s.
    pub fn merge(&mut self, other: &ReplicatedStates) {
        for (a, b) in self.lanes.iter_mut().zip(&other.lanes) {
            match (a, b) {
                (Lane::Dense(a), Lane::Dense(b)) => a.merge_all(b),
                (a, b) => (0..=self.trials as usize).for_each(|i| a.merge(i, b)),
            }
        }
    }

    /// Merge only the main states (selective combination: per-trial
    /// inclusion of the other partition is decided separately).
    pub fn merge_main(&mut self, other: &ReplicatedStates) {
        for (a, b) in self.lanes.iter_mut().zip(&other.lanes) {
            a.merge(0, b);
        }
    }

    /// Merge only replica `b`'s states.
    pub fn merge_replica(&mut self, b: u32, other: &ReplicatedStates) {
        for (a, o) in self.lanes.iter_mut().zip(&other.lanes) {
            a.merge(1 + b as usize, o);
        }
    }

    /// Fold one tuple into the main state only (weight 1). Used when the
    /// per-trial inclusion of a tuple is decided separately (uncertain-set
    /// evaluation at answer time).
    pub fn update_main(&mut self, values: &[Value]) {
        for (lane, v) in self.lanes.iter_mut().zip(values) {
            lane.update(0, v, 1.0);
        }
    }

    /// Take an [`update_main`](Self::update_main) back out (see
    /// [`retract_run`](Self::retract_run)).
    pub fn retract_main(&mut self, values: &[Value]) {
        for (j, (lane, v)) in self.lanes.iter_mut().zip(values).enumerate() {
            match lane {
                Lane::Dense(d) => d.retract(0, v, 1.0),
                Lane::States(_) => panic!("lane {j} cannot retract: not a summing lane"),
            }
        }
    }

    /// `true` when `v`, as lane `j`'s argument, can be folded and later
    /// retracted without moving a bit: COUNT takes any value; SUM, AVG and
    /// VAR a NULL, a non-numeric value (which they skip) or a finite number
    /// of magnitude at most 1e120, so no exact sum of such terms leaves
    /// the finite range.
    pub fn retracts_exactly(&self, j: usize, v: &Value) -> bool {
        match &self.lanes[j] {
            Lane::Dense(d) if d.moment == Moment::Count => true,
            Lane::Dense(_) => v.as_f64().is_none_or(|x| x.abs() <= RETRACT_BOUND),
            Lane::States(_) => false,
        }
    }

    /// `true` when a [`merge`](Self::merge) of retractable contributions
    /// into `self` finalizes as a fold of those contributions would: every
    /// sum is non-finite, which no finite term moves, or at most 2^1020 in
    /// magnitude, so the merged total stays finite.
    pub fn takes_exact_merge(&self) -> bool {
        self.lanes.iter().all(|lane| match lane {
            Lane::Dense(d) => d.within_merge_bound(),
            Lane::States(_) => false,
        })
    }

    /// Fold one tuple into replica `b` only, with an explicit weight.
    pub fn update_replica(&mut self, b: u32, values: &[Value], weight: f64) {
        for (lane, v) in self.lanes.iter_mut().zip(values) {
            lane.update(1 + b as usize, v, weight);
        }
    }

    /// Move many tuples' replica decisions at once. Tuple `t`'s arguments
    /// are `values[t * lanes..][..lanes]`, one per lane; a cell `(t, b, w)`
    /// folds them into replica `b` at weight `w` (one
    /// [`update_replica`](Self::update_replica)), or with `w < 0` takes
    /// such a fold at `-w` back out. Per lane one exact pass over the cells
    /// ([`DenseSums::add_cells`]), so the states finalize as the per-cell
    /// updates would — provided every value
    /// [`retracts_exactly`](Self::retracts_exactly). Panics on a
    /// MIN/MAX/QUANTILE/UDAF lane.
    pub fn move_cells(
        &mut self,
        values: &[Value],
        cells: &[(u32, u32, i16)],
        scratch: &mut FoldScratch,
    ) {
        let lanes = self.lanes.len();
        let FoldScratch {
            xs,
            hi,
            lo,
            cells: kept,
            cell_buf,
            ..
        } = scratch;
        for (j, lane) in self.lanes.iter_mut().enumerate() {
            let Lane::Dense(d) = lane else {
                panic!("lane {j} cannot move cells: not a summing lane");
            };
            let counts = d.moment == Moment::Count;
            let args = values.iter().skip(j).step_by(lanes);
            let arg = |v: &Value| match v {
                Value::Null => None,
                _ if counts => Some(0.0),
                v => v.as_f64(),
            };
            xs.clear();
            xs.extend(args.map(|v| arg(v).unwrap_or(f64::NAN)));
            kept.clear();
            for &(t, b, w) in cells {
                if arg(&values[t as usize * lanes + j]).is_some() {
                    d.weight[1 + b as usize] += f64::from(w);
                    kept.push((t, 1 + b, w));
                }
            }
            if counts {
                continue;
            }
            d.sum.add_cells(xs, kept, cell_buf);
            if matches!(d.moment, Moment::Var { .. }) {
                hi.clear();
                lo.clear();
                for (p, e) in xs.iter().map(|&x| two_product(x, x)) {
                    hi.push(p);
                    lo.push(e);
                }
                d.sumsq.add_cells(lo, kept, cell_buf);
                d.sumsq.add_cells(hi, kept, cell_buf);
            }
        }
    }

    /// Current value of aggregate `j` from the main state.
    pub fn value(&self, j: usize, scale: f64) -> Value {
        self.lanes[j].finalize(0, scale)
    }

    /// Value of aggregate `j` in bootstrap replica `b`.
    pub fn trial_value(&self, j: usize, b: u32, scale: f64) -> Value {
        self.lanes[j].finalize(1 + b as usize, scale)
    }

    /// Aggregate `j`'s value in every replica, in trial order: one pass
    /// over the lane.
    pub fn trial_values(&self, j: usize, scale: f64) -> impl Iterator<Item = Value> + '_ {
        let lane = &self.lanes[j];
        (1..=self.trials as usize).map(move |i| lane.finalize(i, scale))
    }

    /// [`trial_values`](Self::trial_values) as numbers, without boxing
    /// (`None`: null or non-numeric).
    pub fn trial_values_f64(&self, j: usize, scale: f64) -> impl Iterator<Item = Option<f64>> + '_ {
        let lane = &self.lanes[j];
        (1..=self.trials as usize).map(move |i| lane.finalize_f64(i, scale))
    }

    /// Append [`trial_values_f64`](Self::trial_values_f64) of a summing
    /// lane — every value is `Float` or NULL, so this is
    /// [`trial_values`](Self::trial_values) unboxed — to `out`, in one pass
    /// over the lane's arrays. Returns `false`, appending nothing, for a
    /// MIN/MAX/QUANTILE/UDAF lane.
    pub fn trial_floats_into(&self, j: usize, scale: f64, out: &mut Vec<Option<f64>>) -> bool {
        match &self.lanes[j] {
            Lane::Dense(d) => {
                d.finalize_replicas(scale, out);
                true
            }
            Lane::States(_) => false,
        }
    }

    /// Monotone lower bound on aggregate `j`'s final value (see
    /// [`AggState::monotone_lower_bound`]).
    pub fn lower_bound(&self, j: usize) -> Option<f64> {
        match &self.lanes[j] {
            Lane::Dense(d) => match d.moment {
                Moment::Count => Some(d.weight[0]),
                Moment::Sum if d.negatives == 0 && d.weight[0] != 0.0 => Some(d.sum.value(0)),
                _ => None,
            },
            Lane::States(s) => s[0].monotone_lower_bound(),
        }
    }

    /// Observation count of aggregate `j`'s main state, if tracked.
    pub fn observations(&self, j: usize) -> Option<f64> {
        match &self.lanes[j] {
            Lane::Dense(d) => Some(d.weight[0]),
            Lane::States(s) => s[0].observations(),
        }
    }

    /// Replica values of aggregate `j` (numeric replicas only; non-numeric
    /// and null replica outcomes are dropped from the distribution).
    pub fn replica_values(&self, j: usize, scale: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.trials as usize);
        out.extend(self.trial_values_f64(j, scale).flatten());
        out
    }

    /// Full [`Estimate`] (value + bootstrap distribution) of aggregate `j`.
    /// Returns `None` when the main value is non-numeric (e.g. MIN over
    /// strings, or an empty SUM) — such results carry no error model.
    pub fn estimate(&self, j: usize, scale: f64) -> Option<Estimate> {
        let v = self.value(j, scale).as_f64()?;
        Some(Estimate::new(v, self.replica_values(j, scale)))
    }

    /// `true` if the main states saw no data.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|lane| match lane {
            Lane::Dense(d) => d.weight[0] == 0.0,
            Lane::States(s) => s[0].is_empty(),
        })
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact float results")]
mod tests {
    use super::*;
    use gola_common::stats::mean;

    fn spec() -> BootstrapSpec {
        BootstrapSpec::new(64, 42)
    }

    #[test]
    fn main_state_is_exact() {
        let kinds = [AggKind::Sum, AggKind::Avg, AggKind::Count];
        let mut rs = ReplicatedStates::new(&kinds, 8);
        for t in 0..100u64 {
            let x = Value::Float(t as f64);
            rs.update(&[x.clone(), x.clone(), x], t, &spec());
        }
        assert_eq!(rs.value(0, 1.0), Value::Float(4950.0));
        assert_eq!(rs.value(1, 1.0), Value::Float(49.5));
        assert_eq!(rs.value(2, 1.0), Value::Float(100.0));
        // Multiplicity scales SUM and COUNT but not AVG.
        assert_eq!(rs.value(0, 2.0), Value::Float(9900.0));
        assert_eq!(rs.value(1, 2.0), Value::Float(49.5));
    }

    #[test]
    fn replica_distribution_centers_on_estimate() {
        let kinds = [AggKind::Avg];
        let mut rs = ReplicatedStates::new(&kinds, 100);
        for t in 0..5000u64 {
            rs.update(&[Value::Float((t % 100) as f64)], t, &spec());
        }
        let est = rs.estimate(0, 1.0).unwrap();
        let m = mean(&est.replicas).unwrap();
        assert!(
            (m - est.value).abs() < 1.0,
            "replica mean {m} vs {}",
            est.value
        );
        assert!(est.std_error().unwrap() > 0.0);
        assert_eq!(est.replicas.len(), 100);
    }

    #[test]
    fn update_is_replayable() {
        // Feeding the same tuples twice in different order produces the
        // same replica values for SUM (weights are per-tuple-id).
        let kinds = [AggKind::Sum];
        let mut a = ReplicatedStates::new(&kinds, 16);
        let mut b = ReplicatedStates::new(&kinds, 16);
        let s = spec();
        for t in 0..50u64 {
            a.update(&[Value::Float(t as f64)], t, &s);
        }
        for t in (0..50u64).rev() {
            b.update(&[Value::Float(t as f64)], t, &s);
        }
        assert_eq!(a.replica_values(0, 1.0), b.replica_values(0, 1.0));
    }

    #[test]
    fn zero_trials_disables_error_estimation() {
        let kinds = [AggKind::Avg];
        let mut rs = ReplicatedStates::new(&kinds, 0);
        rs.update(&[Value::Float(5.0)], 1, &BootstrapSpec::new(0, 1));
        let est = rs.estimate(0, 1.0).unwrap();
        assert_eq!(est.value, 5.0);
        assert!(est.replicas.is_empty());
        assert_eq!(est.std_error(), None);
    }

    #[test]
    fn non_numeric_estimate_is_none() {
        let kinds = [AggKind::Min];
        let mut rs = ReplicatedStates::new(&kinds, 4);
        rs.update(&[Value::str("abc")], 1, &spec());
        assert!(rs.estimate(0, 1.0).is_none());
        assert_eq!(rs.value(0, 1.0), Value::str("abc"));
    }

    #[test]
    fn empty_detection() {
        let rs = ReplicatedStates::new(&[AggKind::Sum], 2);
        assert!(rs.is_empty());
    }
}
