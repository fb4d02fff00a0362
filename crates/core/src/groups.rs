//! A block's groups as the publish and report stages see them: the
//! deterministic folds plus the uncertain set's current contribution
//! ([`effective_states`]), and one way to evaluate a group at point values
//! and at every bootstrap trial ([`GroupEval`]).

use std::borrow::Cow;

use gola_agg::{FoldScratch, ReplicatedStates};
use gola_bootstrap::VariationRange;
use gola_common::{row_u32, ColumnData, FxHashMap, Result, Value};
use gola_expr::eval::{eval_predicate, eval_tri};
use gola_expr::lanes::{eval_lanes, numeric_view};
use gola_expr::vector::{num_total_key, op_holds};
use gola_expr::{BinOp, Expr, RangeVal, Tri};

use crate::classify::CHUNK;
use crate::compiled::FastScalarCmp;
use crate::metrics;
use crate::runtime::{
    sorted_into_entries, BlockEnv, BlockRuntime, CtxMode, GroupCtx, PubView, TupleReader,
};

/// Small-sample guard: while a group's aggregate has fewer than this many
/// observations, its bootstrap variation range is not trusted for
/// deterministic classification (only monotone bounds apply). Bootstrap
/// ranges over a handful of observations are spuriously tight and would
/// cause failure/recompute churn on sparse groups.
const MIN_GROUP_OBS: f64 = 5.0;

/// One group's aggregate states at answer time: borrowed when no uncertain
/// tuple touches the group, an owned merged snapshot otherwise.
pub(crate) struct EffGroup<'a> {
    pub key: Cow<'a, [Value]>,
    pub states: Cow<'a, ReplicatedStates>,
    /// *Point support*: the group has a supporting tuple under point
    /// evaluation — a deterministic fold, or an uncertain tuple whose
    /// predicate passes at point values. A group fed only by uncertain
    /// tuples that all fail at point does not exist in the point answer
    /// (the exact engine never creates it), so callers must not
    /// materialize or publish it.
    pub supported: bool,
    /// *Deterministic support*: the group cannot vanish as its uncertain
    /// inputs resolve. A plain block's group has a deterministic fold; a
    /// semi-join block's has one in a partition whose membership key is
    /// settled in the (possibly negated) set.
    pub settled: bool,
}

/// Zero the trials of weight row `row` in which `lk (op) keys[b]` does not
/// hold or `valid[b]` is `0` — a NULL RHS never holds. The operands are
/// [`num_total_key`]s, so integer order is the generic evaluator's
/// ([`Value::total_cmp`]'s numeric order, NaN, ±∞ and −0.0 included) and
/// this one sweep serves every numeric operand. The operator dispatch
/// happens once per call so each arm compiles to a tight sweep over the
/// trials.
fn mask_cmp(row: &mut [u32], keys: &[i64], valid: &[u32], op: BinOp, lk: i64) {
    #[inline(always)]
    fn sweep(row: &mut [u32], keys: &[i64], valid: &[u32], holds: impl Fn(i64) -> bool) {
        // Branch-free: an uncertain tuple is one whose trials disagree, so
        // a branch on the outcome would mispredict about every other lane.
        for ((w, &rk), &ok) in row.iter_mut().zip(keys).zip(valid) {
            *w *= ok & u32::from(holds(rk));
        }
    }
    match op {
        BinOp::Lt => sweep(row, keys, valid, |rk| lk < rk),
        BinOp::LtEq => sweep(row, keys, valid, |rk| lk <= rk),
        BinOp::Gt => sweep(row, keys, valid, |rk| lk > rk),
        BinOp::GtEq => sweep(row, keys, valid, |rk| lk >= rk),
        BinOp::Eq => sweep(row, keys, valid, |rk| lk == rk),
        BinOp::NotEq => sweep(row, keys, valid, |rk| lk != rk),
        _ => row.fill(0),
    }
}

/// [`CmpSweep::row_of`] of a key id no tuple of the set holds.
const UNSEEN: u32 = u32::MAX;
/// [`CmpSweep::row_of`] of a key id whose RHS holds a string in some lane.
const NOT_NUMERIC: u32 = u32::MAX - 1;

/// One more than the largest of `ids`: the length a table indexed by them
/// needs.
fn ids_below(ids: &[u32]) -> usize {
    ids.iter().max().map_or(0, |&m| m as usize + 1)
}

/// One `lhs θ rhs` conjunct prepared for a whole uncertain set: the RHS
/// depends on a tuple only through its correlation key, whose id the set
/// carries ([`crate::runtime::UncertainSet::key_ids`]), so it is evaluated
/// once per id present — every mode of it in one walk — and keyed once
/// for [`mask_cmp`].
struct CmpSweep<'a> {
    fsc: &'a FastScalarCmp,
    /// Tuple `i`'s key id is `key_ids[i * conjuncts + k]`.
    key_ids: &'a [u32],
    conjuncts: usize,
    k: usize,
    /// `1 + trials`.
    lanes: usize,
    /// Per key id: its RHS row, [`UNSEEN`] or [`NOT_NUMERIC`].
    row_of: Vec<u32>,
    /// `lanes` per RHS row — the point, then each trial — as total-order
    /// keys and 0/1 validity (`0` = NULL).
    keys: Vec<i64>,
    valid: Vec<u32>,
}

impl<'a> CmpSweep<'a> {
    /// Conjunct `k` of `fscs`, the block's `fast_scalar_cmp`, over `rt`'s
    /// uncertain set.
    fn new(
        env: &BlockEnv<'_>,
        fscs: &'a [FastScalarCmp],
        k: usize,
        rt: &'a BlockRuntime,
        reader: &mut TupleReader<'_>,
    ) -> Result<CmpSweep<'a>> {
        let trials = env.config.bootstrap.trials;
        let mut sweep = CmpSweep {
            fsc: &fscs[k],
            key_ids: &rt.uncertain.key_ids,
            conjuncts: fscs.len(),
            k,
            lanes: 1 + trials as usize,
            row_of: vec![UNSEEN; ids_below(&rt.uncertain.key_ids)],
            keys: Vec::new(),
            valid: Vec::new(),
        };
        let mut vectors = 0u64;
        for i in 0..rt.uncertain.len() {
            let id = sweep.id(i);
            if sweep.row_of[id] != UNSEEN {
                continue;
            }
            let rhs = eval_lanes(&sweep.fsc.rhs, &reader.lanes(i, trials))?;
            let row = row_u32(sweep.keys.len() / sweep.lanes);
            let numeric = rhs.total_order_keys(sweep.lanes, &mut sweep.keys, &mut sweep.valid);
            sweep.row_of[id] = if numeric { row } else { NOT_NUMERIC };
            vectors += 1;
        }
        if gola_obs::enabled() {
            metrics::rhs_vectors().add(vectors);
        }
        Ok(sweep)
    }

    fn id(&self, i: usize) -> usize {
        self.key_ids[i * self.conjuncts + self.k] as usize
    }

    /// Tuple `i`'s RHS lanes as `(keys, validity)`; `None` when a lane is
    /// a string.
    fn rhs(&self, i: usize) -> Option<(&[i64], &[u32])> {
        let row = self.row_of[self.id(i)];
        (row != NOT_NUMERIC).then(|| {
            let at = row as usize * self.lanes;
            (
                &self.keys[at..][..self.lanes],
                &self.valid[at..][..self.lanes],
            )
        })
    }

    /// Tuple `i`'s LHS as a numeric comparison reads it: `Some(None)` for
    /// NULL, `None` for a string. A column is read straight from its
    /// typed data, no [`Value`] built.
    fn lhs(&self, reader: &mut TupleReader<'_>, i: usize) -> Result<Option<Option<f64>>> {
        let col = match &self.fsc.lhs {
            Expr::Column(c) => reader.chunk.column(*c),
            e => return Ok(numeric_view(&reader.value(i, e, CtxMode::Point)?)),
        };
        Ok(match col.data() {
            ColumnData::Str { .. } if col.is_valid(i) => None,
            ColumnData::Mixed(vs) => numeric_view(&vs[i]),
            _ => Some(col.as_f64(i)),
        })
    }
}

/// How an uncertain tuple's inclusion is decided, at point values and per
/// trial. The two fast shapes are pure shortcuts for [`Inclusion::Generic`]
/// (full predicate evaluation per tuple and trial).
enum Inclusion<'a> {
    /// A single membership predicate (Q18-shaped semi-joins whose
    /// aggregates cannot merge): one hash lookup, then direct reads of the
    /// published per-trial membership bits.
    Member(gola_expr::SubqueryId, &'a [Expr], bool),
    /// A conjunction of `lhs θ f(scalar-refs)`: each LHS is read and keyed
    /// once per tuple, then swept against its key id's RHS row.
    ScalarCmp(Vec<CmpSweep<'a>>),
    Generic,
}

impl Inclusion<'_> {
    /// Does uncertain tuple `i` pass at point values? Also appends to
    /// `mask` the tuple's row: its bootstrap weight in every trial it
    /// passes and `0` elsewhere. `key` is scratch space for the predicate's
    /// lookup key.
    fn decide(
        &self,
        env: &BlockEnv<'_>,
        reader: &mut TupleReader<'_>,
        i: usize,
        weights: &[u32],
        mask: &mut Vec<u32>,
        key: &mut Vec<Value>,
    ) -> Result<bool> {
        match self {
            Inclusion::Member(id, key_exprs, negated) => {
                reader.values_into(i, key_exprs, CtxMode::Point, key)?;
                let entry = env.pubs[id.0].members.get(key.as_slice());
                // NULL never passes `IN (...)`, negated or not.
                let null_key = key.iter().any(Value::is_null);
                let passes = |in_set: bool| !null_key && in_set != *negated;
                mask.extend(weights.iter().enumerate().map(|(b, &w)| {
                    let in_set = entry.is_some_and(|m| m.trials.get(b).copied().unwrap_or(m.point));
                    if passes(in_set) {
                        w
                    } else {
                        0
                    }
                }));
                Ok(passes(entry.is_some_and(|m| m.point)))
            }
            Inclusion::ScalarCmp(sweeps) => {
                let start = mask.len();
                mask.extend_from_slice(weights);
                let mut point = true;
                for s in sweeps {
                    let (Some(lhs), Some((keys, valid))) = (s.lhs(reader, i)?, s.rhs(i)) else {
                        // Strings compare by other rules: the generic
                        // path decides this tuple.
                        mask.truncate(start);
                        return decide_generic(env, reader, i, weights, mask);
                    };
                    match lhs {
                        Some(lx) => {
                            let lk = num_total_key(lx);
                            mask_cmp(&mut mask[start..], &keys[1..], &valid[1..], s.fsc.op, lk);
                            point &= valid[0] == 1 && op_holds(s.fsc.op, lk.cmp(&keys[0]));
                        }
                        // A null LHS compares false against every RHS under
                        // every operator: no point support, no trial folds.
                        None => {
                            mask[start..].fill(0);
                            point = false;
                        }
                    }
                }
                Ok(point)
            }
            Inclusion::Generic => decide_generic(env, reader, i, weights, mask),
        }
    }
}

/// [`Inclusion::decide`] by full predicate evaluation, per tuple and trial.
fn decide_generic(
    env: &BlockEnv<'_>,
    reader: &mut TupleReader<'_>,
    i: usize,
    weights: &[u32],
    mask: &mut Vec<u32>,
) -> Result<bool> {
    let mut pass = |mode| -> Result<bool> {
        let ctx = reader.ctx(i, mode);
        for f in &env.cb.lin_filters {
            if !eval_predicate(f, &ctx)? {
                return Ok(false);
            }
        }
        Ok(true)
    };
    let point = pass(CtxMode::Point)?;
    // Each trial sees that trial's own upstream values.
    for (b, &w) in (0..env.config.bootstrap.trials).zip(weights) {
        let keep = w != 0 && pass(CtxMode::Trial(b))?;
        mask.push(if keep { w } else { 0 });
    }
    Ok(point)
}

/// Merge the uncertain set's current contributions into snapshots of the
/// affected groups; untouched groups are borrowed. Sorted by key: the
/// result feeds publish chunking and the report's row order, so its order
/// must not leak id numbering or hash layout.
pub(crate) fn effective_states<'a>(
    env: &BlockEnv<'_>,
    rt: &'a BlockRuntime,
) -> Result<Vec<EffGroup<'a>>> {
    // Report, publish and recover all come through here: the span puts the
    // re-merge under whichever of them called it.
    let _span = gola_obs::span!("reeval", tuples = rt.uncertain.len());
    let cb = env.cb;
    let trials = env.config.bootstrap.trials;
    let mut out = match &cb.semi_join {
        Some(semi_join) => semi_join_states(env, rt, semi_join),
        None => uncertain_states(env, rt)?,
    };
    // A global aggregate over no data still has one (empty) group.
    if out.is_empty() && cb.num_keys() == 0 {
        out.push(EffGroup {
            key: Cow::Owned(Vec::new()),
            states: Cow::Owned(ReplicatedStates::new(&cb.agg_kinds, trials)),
            supported: true,
            settled: true,
        });
    }
    Ok(out)
}

/// One walk over the block's groups in key order: a group no uncertain
/// tuple touches is borrowed from its slot, a touched one gets a merged
/// snapshot.
fn uncertain_states<'a>(env: &BlockEnv<'_>, rt: &'a BlockRuntime) -> Result<Vec<EffGroup<'a>>> {
    let cb = env.cb;
    let trials = env.config.bootstrap.trials;
    // The uncertain set carries its bootstrap weights and its group and
    // correlation-key ids — computed once per tuple — so no weight kernel
    // and no key hashing runs here no matter how many batches a tuple stays
    // uncertain.
    let us = &rt.uncertain;
    let stride = trials as usize;
    let mut reader = TupleReader::new(&us.chunk, env.pubs);
    let inclusion = match (&cb.lin_filters[..], &cb.fast_scalar_cmp) {
        ([Expr::InSubquery { id, key, negated }], _) => Inclusion::Member(*id, key, *negated),
        (_, Some(fscs)) => {
            let sweeps = (0..fscs.len()).map(|k| CmpSweep::new(env, fscs, k, rt, &mut reader));
            Inclusion::ScalarCmp(sweeps.collect::<Result<_>>()?)
        }
        _ => Inclusion::Generic,
    };
    if gola_obs::enabled() {
        metrics::uncertain_evals().add(us.len() as u64);
    }
    // Per group id, the uncertain tuples of the group in set order: bucketed
    // by a stable sort on the id.
    let mut by_group: Vec<(u32, usize)> = (us.group_ids.iter().copied()).zip(0..us.len()).collect();
    by_group.sort_by_key(|&(group, _)| group);
    let mut touched: Vec<&[(u32, usize)]> = vec![&[]; rt.labels.groups.len()];
    for run in by_group.chunk_by(|a, b| a.0 == b.0) {
        touched[run[0].0 as usize] = run;
    }
    // Every group with a fold or an uncertain tuple, in key order.
    let live = (0..row_u32(touched.len()))
        .filter(|&g| rt.slot(g).is_some() || !touched[g as usize].is_empty());
    let groups = rt.labels.groups.sorted(live);
    let mut out: Vec<EffGroup<'a>> = Vec::with_capacity(groups.len());
    let mut scratch = FoldScratch::default();
    let mut args: Vec<Value> = Vec::new();
    let mut lanes: Vec<Vec<Value>> = vec![Vec::new(); cb.lin_agg_args.len()];
    let mut masks: Vec<u32> = Vec::new();
    let mut lookup_key: Vec<Value> = Vec::new();
    for (g, key) in groups {
        let det = rt.slot(g);
        let tuples = touched[g as usize];
        if let (Some(states), []) = (det, tuples) {
            out.push(EffGroup {
                key: Cow::Borrowed(key),
                states: Cow::Borrowed(states),
                supported: true,
                settled: true,
            });
            continue;
        }
        // A snapshot of the group's deterministic states takes the
        // uncertain contributions.
        let mut states =
            (det.cloned()).unwrap_or_else(|| ReplicatedStates::new(&cb.agg_kinds, trials));
        let mut supported = det.is_some();
        // Main inclusion is per tuple, at point values. The replicas take
        // the group's tuples as runs (of at most a chunk, which bounds the
        // mask buffer): excluded trials are masked to weight 0 — a no-op —
        // so one replica-only run per aggregate lane covers every trial.
        for run in tuples.chunks(CHUNK) {
            masks.clear();
            lanes.iter_mut().for_each(Vec::clear);
            for &(_, i) in run {
                let weights = &us.weights[i * stride..][..stride];
                reader.values_into(i, &cb.lin_agg_args, CtxMode::Point, &mut args)?;
                if inclusion.decide(env, &mut reader, i, weights, &mut masks, &mut lookup_key)? {
                    states.update_main(&args);
                    supported = true;
                }
                for (lane, v) in lanes.iter_mut().zip(args.drain(..)) {
                    lane.push(v);
                }
            }
            let rows: Vec<&[u32]> = (0..run.len())
                .map(|t| &masks[t * stride..][..stride])
                .collect();
            for (j, values) in lanes.iter().enumerate() {
                states.fold_run(j, values, &rows, false, &mut scratch);
            }
        }
        out.push(EffGroup {
            key: Cow::Borrowed(key),
            states: Cow::Owned(states),
            supported,
            settled: det.is_some(),
        });
    }
    Ok(out)
}

/// Combine semi-join partial aggregates: merge, per output group, the
/// partitions whose membership key currently passes — main states by
/// point membership, each replica by that trial's membership.
fn semi_join_states<'a>(
    env: &BlockEnv<'_>,
    rt: &'a BlockRuntime,
    (id, member_key, negated): &(gola_expr::SubqueryId, Vec<Expr>, bool),
) -> Vec<EffGroup<'a>> {
    let trials = env.config.bootstrap.trials;
    let members = &env.pubs[id.0].members;
    // Deterministically *in* the (possibly negated) set.
    let settled = if *negated { Tri::False } else { Tri::True };
    // Per output group: its merged states, point support and settledness.
    let kinds = &env.cb.agg_kinds;
    let fresh = || (ReplicatedStates::new(kinds, trials), false, false);
    let mut merged: FxHashMap<Vec<Value>, (ReplicatedStates, bool, bool)> = FxHashMap::default();
    // Merge in slot key order — membership key, then group key, since
    // every membership key has the same length: merge order across
    // membership partitions can reach the published value (MIN/MAX keep
    // the first of equal values), so it must be a function of the keys
    // alone.
    for (g, key) in rt.labels.groups.sorted(0..row_u32(rt.slots.len())) {
        let Some(states) = rt.slot(g) else { continue };
        let (mkey, gkey) = key.split_at(member_key.len());
        let entry = members.get(mkey);
        let point_in = entry.is_some_and(|m| m.point) != *negated;
        let acc = merged.entry(gkey.to_vec()).or_insert_with(fresh);
        if point_in {
            acc.0.merge_main(states);
            // Point support: at least one partition of this group
            // passes the membership test at point values.
            acc.1 = true;
        }
        acc.2 |= entry.is_some_and(|m| m.tri == settled);
        for b in 0..trials {
            let in_set =
                entry.is_some_and(|m| m.trials.get(b as usize).copied().unwrap_or(m.point));
            if in_set != *negated {
                acc.0.merge_replica(b, states);
            }
        }
    }
    sorted_into_entries(merged)
        .into_iter()
        .map(|(k, (v, supported, settled))| EffGroup {
            key: Cow::Owned(k),
            states: Cow::Owned(v),
            supported,
            settled,
        })
        .collect()
}

/// One group under evaluation: its key, its states, the multiplicity `m`
/// that scales them, and the aggregates' point values. Scalar publish,
/// membership publish and the root report all evaluate expressions over a
/// group the same way — at point, then at each trial — through this.
pub(crate) struct GroupEval<'a> {
    env: &'a BlockEnv<'a>,
    pub key: &'a [Value],
    pub states: &'a ReplicatedStates,
    pub m: f64,
    pub point_aggs: Vec<Value>,
}

impl<'a> GroupEval<'a> {
    pub(crate) fn new(
        env: &'a BlockEnv<'a>,
        key: &'a [Value],
        states: &'a ReplicatedStates,
        m: f64,
    ) -> GroupEval<'a> {
        let point_aggs = (0..states.num_aggs()).map(|j| states.value(j, m)).collect();
        GroupEval {
            env,
            key,
            states,
            m,
            point_aggs,
        }
    }

    fn ctx<'c>(
        &'c self,
        aggs: &'c [Value],
        agg_ranges: Option<&'c [RangeVal]>,
        mode: CtxMode,
    ) -> GroupCtx<'c> {
        GroupCtx {
            keys: self.key,
            aggs,
            agg_ranges,
            view: PubView {
                pubs: self.env.pubs,
                mode,
            },
        }
    }

    /// The group at point values.
    pub(crate) fn point_ctx(&self) -> GroupCtx<'_> {
        self.ctx(&self.point_aggs, None, CtxMode::Point)
    }

    /// `f` over the group at each bootstrap trial's values, in trial order.
    pub(crate) fn for_each_trial(
        &self,
        mut f: impl FnMut(&GroupCtx<'_>) -> Result<()>,
    ) -> Result<()> {
        let n_aggs = self.point_aggs.len();
        let mut aggs: Vec<Value> = Vec::with_capacity(n_aggs);
        for t in 0..self.env.config.bootstrap.trials {
            aggs.clear();
            aggs.extend((0..n_aggs).map(|j| self.states.trial_value(j, t, self.m)));
            f(&self.ctx(&aggs, None, CtxMode::Trial(t)))?;
        }
        Ok(())
    }

    /// Classify the block's HAVING over the aggregates' variation ranges
    /// (meaningful while the block is live; a finished block's HAVING is
    /// its point value).
    pub(crate) fn having_tri(&self) -> Result<Tri> {
        let ranges: Vec<RangeVal> = (0..self.point_aggs.len())
            .map(|j| self.agg_range(j))
            .collect();
        let ctx = self.ctx(&self.point_aggs, Some(&ranges), CtxMode::Classify);
        let mut tri = Tri::True;
        for h in &self.env.cb.block.having {
            tri = tri.and(eval_tri(h, &ctx)?);
            if tri == Tri::False {
                break;
            }
        }
        Ok(tri)
    }

    /// Variation range of live aggregate `j`, for classification.
    ///
    /// Combines three sources of knowledge (paper §3.2 plus two
    /// engineering refinements documented in DESIGN.md):
    /// * the bootstrap range `[min(û) − ε, max(û) + ε]` of the
    ///   multiplicity-scaled replicas;
    /// * a **monotone lower bound** — COUNT and SUM over non-negative
    ///   values can only grow, so their raw running total bounds the final
    ///   value from below *with certainty*;
    /// * a **small-sample guard** — with fewer than [`MIN_GROUP_OBS`]
    ///   observations the bootstrap spread is untrustworthy, so only the
    ///   monotone bound is used (upper end stays unbounded).
    fn agg_range(&self, j: usize) -> RangeVal {
        let lower = self.states.lower_bound(j);
        match self.point_aggs[j].as_f64() {
            Some(v) if !self.tiny(j) => {
                let reps = self.states.replica_values(j, self.m);
                let vr = VariationRange::from_replicas(v, &reps, self.env.config.epsilon);
                let lo = lower.map_or(vr.lo, |l| vr.lo.max(l));
                RangeVal::num(lo, vr.hi.max(lo))
            }
            _ => match lower {
                Some(lo) => RangeVal::Num {
                    lo,
                    hi: f64::INFINITY,
                },
                None => RangeVal::Unknown,
            },
        }
    }

    /// Small-sample guard: with no replicas at all, or fewer than
    /// [`MIN_GROUP_OBS`] observations, aggregate `j`'s bootstrap spread is
    /// not trusted for deterministic classification.
    pub(crate) fn tiny(&self, j: usize) -> bool {
        self.env.config.bootstrap.trials == 0
            || self
                .states
                .observations(j)
                .is_some_and(|o| o < MIN_GROUP_OBS)
    }
}

/// Does the group pass every HAVING conjunct under `ctx`?
pub(crate) fn having_pass(having: &[Expr], ctx: &GroupCtx<'_>) -> Result<bool> {
    for h in having {
        if !eval_predicate(h, ctx)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use gola_expr::lanes::Lanes;
    use gola_expr::vector::num_total_cmp;
    use proptest::prelude::*;

    use super::*;

    const OPS: [BinOp; 6] = [
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
        BinOp::Eq,
        BinOp::NotEq,
    ];

    /// Any `f64` bit pattern, with the ones a total order gets wrong most
    /// easily drawn often: both zeros, both infinities, NaNs of either
    /// sign and several payloads, subnormals, and the extremes.
    fn float() -> impl Strategy<Value = f64> {
        let edges = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(u64::MAX),
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            (0..edges.len()).prop_map(move |i| edges[i]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The key sweep keeps weight `w` in exactly the trials where the
        /// scalar evaluator's comparison holds, under every operator, and
        /// never against a NULL RHS. The RHS is keyed the way the
        /// re-evaluation keys it ([`Lanes::total_order_keys`]).
        #[test]
        fn mask_cmp_equals_scalar_reference(
            lx in float(),
            rhs in prop::collection::vec(prop::option::of(float()), 0..48),
            seed in 1u32..7,
        ) {
            let weights: Vec<u32> = (0..rhs.len()).map(|b| (row_u32(b) * seed) % 5).collect();
            let (mut keys, mut valid) = (Vec::new(), Vec::new());
            prop_assert!(Lanes::Float(rhs.clone()).total_order_keys(rhs.len(), &mut keys, &mut valid));
            for op in OPS {
                let mut row = weights.clone();
                mask_cmp(&mut row, &keys, &valid, op, num_total_key(lx));
                for (b, (&got, y)) in row.iter().zip(&rhs).enumerate() {
                    let holds = y.is_some_and(|y| op_holds(op, num_total_cmp(lx, y)));
                    let want = if holds { weights[b] } else { 0 };
                    prop_assert_eq!(got, want, "{:?} {:?} {:?} ({:#x} vs {:?})", lx, op, y, lx.to_bits(), y.map(f64::to_bits));
                }
            }
        }
    }
}
