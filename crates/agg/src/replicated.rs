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

use gola_bootstrap::{BootstrapSpec, Estimate};
use gola_common::fsum::{two_product, RunBuf, WeightedRun};
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
    /// Per replica: OR of the weights of the run's negative tuples (SUM).
    neg: Vec<u32>,
}

/// Main + replica accumulators for a list of aggregates over one group.
#[derive(Debug, Clone)]
pub struct ReplicatedStates {
    /// Flat, replica-major storage: row `0` holds the main state of each
    /// aggregate, row `1 + b` holds replica `b`; row stride is `num_aggs`.
    /// A single allocation keeps the per-tuple replica update loop walking
    /// one contiguous region.
    states: Vec<AggState>,
    num_aggs: usize,
}

impl ReplicatedStates {
    /// Fresh states for `kinds` with `trials` bootstrap replicas.
    pub fn new(kinds: &[AggKind], trials: u32) -> Self {
        let rows = 1 + trials as usize;
        let mut states = Vec::with_capacity(rows * kinds.len());
        for _ in 0..rows {
            states.extend(kinds.iter().map(AggKind::new_state));
        }
        ReplicatedStates {
            states,
            num_aggs: kinds.len(),
        }
    }

    #[inline]
    fn row(&self, r: usize) -> &[AggState] {
        &self.states[r * self.num_aggs..(r + 1) * self.num_aggs]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [AggState] {
        let stride = self.num_aggs;
        &mut self.states[r * stride..(r + 1) * stride]
    }

    /// Number of bootstrap replicas.
    pub fn trials(&self) -> u32 {
        match self.states.len().checked_div(self.num_aggs) {
            // `rows == 0` (empty state table) must not underflow, and a
            // replica count that overflows `u32` is a construction bug —
            // fail loudly instead of truncating.
            Some(rows) if rows > 0 => u32::try_from(rows - 1).expect("replica count exceeds u32"),
            _ => 0,
        }
    }

    /// Number of aggregates per state.
    pub fn num_aggs(&self) -> usize {
        self.num_aggs
    }

    /// Fold one tuple in: `values[j]` is the j-th aggregate's argument
    /// evaluated on the tuple. The main state updates with weight 1; each
    /// replica with the tuple's hash-derived Poisson weight.
    pub fn update(&mut self, values: &[Value], tuple_id: u64, bootstrap: &BootstrapSpec) {
        debug_assert_eq!(values.len(), self.num_aggs());
        for (s, v) in self.row_mut(0).iter_mut().zip(values) {
            s.update(v, 1.0);
        }
        for b in 0..self.trials() {
            let w = bootstrap.weight(tuple_id, b);
            if w == 0 {
                continue;
            }
            for (s, v) in self.row_mut(1 + b as usize).iter_mut().zip(values) {
                s.update(v, w as f64);
            }
        }
    }

    /// Lane `j`'s replica states, in trial order.
    fn replicas_mut(&mut self, j: usize) -> impl Iterator<Item = &mut AggState> {
        let stride = self.num_aggs;
        // `get_mut(..)`, not `[..]`: with zero replicas the slice start
        // lies past the main-row-only allocation.
        (self.states.get_mut(stride + j..).unwrap_or_default())
            .iter_mut()
            .step_by(stride)
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
        rows: &[&[u32]],
        include_main: bool,
        scratch: &mut FoldScratch,
    ) {
        assert_eq!(values.len(), rows.len(), "one weight row per tuple");
        if !include_main && self.trials() == 0 {
            return; // no state to fold into
        }
        if self.states[j].weight_total_mut().is_none() {
            for (v, row) in values.iter().zip(rows) {
                if v.is_null() {
                    continue;
                }
                if include_main {
                    self.states[j].update(v, 1.0);
                }
                for (st, &w) in self.replicas_mut(j).zip(*row) {
                    if w != 0 {
                        st.update(v, f64::from(w));
                    }
                }
            }
            return;
        }
        // COUNT takes every non-null argument, the sums every numeric one;
        // the tuples a lane skips leave the run before it is weighed.
        let counts = matches!(self.states[j], AggState::Count { .. });
        let arg = |v: &Value| match v {
            Value::Null => None,
            _ if counts => Some(0.0),
            v => v.as_f64(),
        };
        let FoldScratch {
            run,
            xs,
            hi,
            lo,
            neg,
        } = scratch;
        xs.clear();
        xs.extend(values.iter().filter_map(arg));
        let kept: Vec<&[u32]>;
        let rows = if xs.len() == values.len() {
            rows
        } else {
            let taken = rows.iter().zip(values).filter(|(_, v)| arg(v).is_some());
            kept = taken.map(|(row, _)| *row).collect();
            &kept
        };
        let mut run = WeightedRun::new(rows, self.trials() as usize, include_main, run);
        let tallies = self.replicas_mut(j).filter_map(AggState::weight_total_mut);
        for (tally, &total) in tallies.zip(run.totals()) {
            // Exact: a run's weight total is far below 2^53.
            *tally += total as f64;
        }
        if include_main {
            if let Some(tally) = self.states[j].weight_total_mut() {
                *tally += rows.len() as f64;
            }
        }
        if counts {
            return;
        }
        run.sum(xs);
        self.take_sums(j, &run, rows, include_main, false);
        if matches!(self.states[j], AggState::Var { .. }) {
            hi.clear();
            lo.clear();
            for (p, e) in xs.iter().map(|&x| two_product(x, x)) {
                hi.push(p);
                lo.push(e);
            }
            for half in [&*lo, &*hi] {
                run.sum(half);
                self.take_sums(j, &run, rows, include_main, true);
            }
        }
        // SUM remembers having seen a negative contribution.
        if matches!(self.states[j], AggState::Sum { .. }) && xs.iter().any(|&x| x < 0.0) {
            neg.clear();
            neg.resize(self.trials() as usize, 0);
            for (_, row) in xs.iter().zip(rows).filter(|(&x, _)| x < 0.0) {
                for (n, &w) in neg.iter_mut().zip(*row) {
                    *n |= w;
                }
            }
            if include_main {
                self.states[j].mark_negative();
            }
            let hit = self.replicas_mut(j).zip(&*neg).filter(|(_, &n)| n != 0);
            hit.for_each(|(st, _)| st.mark_negative());
        }
    }

    /// Add the stream `run` summed last into lane `j`'s `Σw·x` sums (or,
    /// with `squares`, its `Σw·x²` sums): each level's piece with one
    /// `add`, what the run handed back with one `add_product` per cell.
    fn take_sums(
        &mut self,
        j: usize,
        run: &WeightedRun<'_>,
        rows: &[&[u32]],
        include_main: bool,
        squares: bool,
    ) {
        let trials = self.trials() as usize;
        let sums = (self.replicas_mut(j)).filter_map(|st| st.exact_sum_mut(squares));
        for (b, sum) in sums.enumerate() {
            run.pieces(b).for_each(|piece| sum.add(piece));
            for &(t, x) in run.leftover() {
                if rows[t][b] != 0 {
                    sum.add_product(x, f64::from(rows[t][b]));
                }
            }
        }
        if let Some(sum) = self.states[j]
            .exact_sum_mut(squares)
            .filter(|_| include_main)
        {
            run.pieces(trials).for_each(|piece| sum.add(piece));
            for &(_, x) in run.leftover() {
                sum.add_product(x, 1.0);
            }
        }
    }

    /// Merge another group's states (same kinds/trials; used when combining
    /// partial aggregations).
    pub fn merge(&mut self, other: &ReplicatedStates) {
        assert_eq!(self.states.len(), other.states.len());
        for (a, b) in self.states.iter_mut().zip(&other.states) {
            a.merge(b);
        }
    }

    /// Merge only the main states (selective combination: per-trial
    /// inclusion of the other partition is decided separately).
    pub fn merge_main(&mut self, other: &ReplicatedStates) {
        let stride = self.num_aggs;
        for (a, b) in self.states[..stride]
            .iter_mut()
            .zip(&other.states[..stride])
        {
            a.merge(b);
        }
    }

    /// Merge only replica `b`'s states.
    pub fn merge_replica(&mut self, b: u32, other: &ReplicatedStates) {
        let idx = 1 + b as usize;
        for (a, o) in self.row_mut(idx).iter_mut().zip(other.row(idx)) {
            a.merge(o);
        }
    }

    /// Fold one tuple into the main state only (weight 1). Used when the
    /// per-trial inclusion of a tuple is decided separately (uncertain-set
    /// evaluation at answer time).
    pub fn update_main(&mut self, values: &[Value]) {
        for (s, v) in self.row_mut(0).iter_mut().zip(values) {
            s.update(v, 1.0);
        }
    }

    /// Fold one tuple into replica `b` only, with an explicit weight.
    pub fn update_replica(&mut self, b: u32, values: &[Value], weight: f64) {
        for (s, v) in self.row_mut(1 + b as usize).iter_mut().zip(values) {
            s.update(v, weight);
        }
    }

    /// Current value of aggregate `j` from the main state.
    pub fn value(&self, j: usize, scale: f64) -> Value {
        self.states[j].finalize(scale)
    }

    /// Value of aggregate `j` in bootstrap replica `b`.
    pub fn trial_value(&self, j: usize, b: u32, scale: f64) -> Value {
        self.states[(1 + b as usize) * self.num_aggs + j].finalize(scale)
    }

    /// Numeric value of aggregate `j` in replica `b`, without boxing —
    /// the hot path of per-trial membership tests.
    #[inline]
    pub fn trial_value_f64(&self, j: usize, b: u32, scale: f64) -> Option<f64> {
        self.states[(1 + b as usize) * self.num_aggs + j].finalize_f64(scale)
    }

    /// Monotone lower bound on aggregate `j`'s final value (see
    /// [`AggState::monotone_lower_bound`]).
    pub fn lower_bound(&self, j: usize) -> Option<f64> {
        self.states[j].monotone_lower_bound()
    }

    /// Observation count of aggregate `j`'s main state, if tracked.
    pub fn observations(&self, j: usize) -> Option<f64> {
        self.states[j].observations()
    }

    /// Replica values of aggregate `j` (numeric replicas only; non-numeric
    /// and null replica outcomes are dropped from the distribution).
    pub fn replica_values(&self, j: usize, scale: f64) -> Vec<f64> {
        (0..self.trials())
            .filter_map(|b| self.trial_value_f64(j, b, scale))
            .collect()
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
        self.row(0).iter().all(AggState::is_empty)
    }

    /// Snapshot the states (cheap for the numeric aggregates; quantile and
    /// UDAF states deep-clone).
    pub fn snapshot(&self) -> ReplicatedStates {
        self.clone()
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
    fn merge_combines_partials() {
        let kinds = [AggKind::Sum];
        let s = spec();
        let mut a = ReplicatedStates::new(&kinds, 16);
        let mut b = ReplicatedStates::new(&kinds, 16);
        let mut whole = ReplicatedStates::new(&kinds, 16);
        for t in 0..40u64 {
            let v = [Value::Float(t as f64)];
            whole.update(&v, t, &s);
            if t % 2 == 0 {
                a.update(&v, t, &s);
            } else {
                b.update(&v, t, &s);
            }
        }
        a.merge(&b);
        assert_eq!(a.value(0, 1.0), whole.value(0, 1.0));
        assert_eq!(a.replica_values(0, 1.0), whole.replica_values(0, 1.0));
    }

    #[test]
    fn snapshot_isolates() {
        let kinds = [AggKind::Count];
        let mut rs = ReplicatedStates::new(&kinds, 2);
        rs.update(&[Value::Int(1)], 0, &spec());
        let snap = rs.snapshot();
        rs.update(&[Value::Int(1)], 1, &spec());
        assert_eq!(snap.value(0, 1.0), Value::Float(1.0));
        assert_eq!(rs.value(0, 1.0), Value::Float(2.0));
    }

    #[test]
    fn empty_detection() {
        let rs = ReplicatedStates::new(&[AggKind::Sum], 2);
        assert!(rs.is_empty());
    }
}
