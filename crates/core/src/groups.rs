//! A block's groups as the publish and report stages see them: the
//! deterministic folds plus the uncertain set's current contribution
//! ([`effective_states`]), and one way to evaluate a group at point values
//! and at every bootstrap trial ([`GroupEval`]).

use std::borrow::Cow;
use std::ops::Range;

use gola_agg::{AggKind, FoldScratch, ReplicatedStates};
use gola_bootstrap::VariationRange;
use gola_common::{row_u32, ColumnData, FxHashMap, Result, Value};
use gola_expr::eval::{eval, eval_predicate, eval_tri};
use gola_expr::lanes::{eval_lanes, numeric_view, LaneContext, Lanes, ScalarLanes};
use gola_expr::vector::{num_total_key, op_holds};
use gola_expr::{BinOp, Expr, RangeVal, SubqueryId, Tri};

use crate::compiled::FastScalarCmp;
use crate::join::CHUNK;
use crate::metrics;
use crate::runtime::{
    decision_words, sorted_into_entries, BlockEnv, BlockRuntime, CtxMode, GroupCtx, Labels,
    PubView, TupleReader, UncertainSet,
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
fn mask_cmp(row: &mut [u8], keys: &[i64], valid: &[u32], op: BinOp, lk: i64) {
    #[inline(always)]
    fn sweep(row: &mut [u8], keys: &[i64], valid: &[u32], holds: impl Fn(i64) -> bool) {
        // Branch-free: an uncertain tuple is one whose trials disagree, so
        // a branch on the outcome would mispredict about every other lane.
        for ((w, &rk), &ok) in row.iter_mut().zip(keys).zip(valid) {
            *w *= u8::from(ok != 0) & u8::from(holds(rk));
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
        key_ids: &'a [u32],
        reader: &mut TupleReader<'_>,
    ) -> Result<CmpSweep<'a>> {
        let trials = env.config.bootstrap.trials;
        let mut sweep = CmpSweep {
            fsc: &fscs[k],
            key_ids,
            conjuncts: fscs.len(),
            k,
            lanes: 1 + trials as usize,
            row_of: vec![UNSEEN; ids_below(key_ids)],
            keys: Vec::new(),
            valid: Vec::new(),
        };
        let mut vectors = 0u64;
        for i in 0..reader.chunk.len() {
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
        weights: &[u8],
        mask: &mut Vec<u8>,
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
    weights: &[u8],
    mask: &mut Vec<u8>,
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
    rt: &'a mut BlockRuntime,
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
/// tuple touches is borrowed from its slot, a touched one gets a snapshot
/// of its deterministic states merged with U's contribution.
///
/// Every tuple of U is decided again — point and every trial — and its
/// decision stored ([`UncertainSet::decisions`]). Where the block's
/// aggregates are exact sums of row-only arguments, each group keeps U's
/// contribution between calls ([`Remerge`]) and a call applies only the
/// difference: a tuple entering U is folded as a run, a carried tuple's
/// flipped trials are added or retracted as signed cells of one exact pass
/// per lane, and a tuple the fold stage moved out is retracted as a run. A group with no kept contribution (first call,
/// after a reset, a group new to U) rebuilds it from every decision. Where
/// a contribution could not retract exactly — an argument that is not
/// finite or is huge — or the deterministic sums are too close to
/// overflow for a merge, the group folds its decisions straight into a
/// copy of its deterministic states instead, as does every group of a
/// block with a MIN, MAX, QUANTILE or UDAF lane. The choice reads only lane
/// kinds and values, and every path hands out the same bits.
fn uncertain_states<'a>(env: &BlockEnv<'_>, rt: &'a mut BlockRuntime) -> Result<Vec<EffGroup<'a>>> {
    let cb = env.cb;
    let trials = env.config.bootstrap.trials;
    let (stride, words) = (trials as usize, decision_words(trials));
    let BlockRuntime {
        slots,
        uncertain,
        labels,
        remerge,
        ..
    } = rt;
    let (slots, labels): (&'a [Option<ReplicatedStates>], &'a Labels) = (slots, labels);
    let slot = |g: u32| slots.get(g as usize).and_then(Option::as_ref);
    // Contributions are kept only where every lane is an exact sum of
    // row-only arguments: what an unchanged decision folds never moves.
    let keeps = cb.agg_kinds.iter().all(AggKind::is_retractable)
        && !cb.lin_agg_args.iter().any(Expr::has_subquery_ref)
        && !remerge.straight_only();
    let gone = std::mem::take(&mut remerge.gone);
    if !keeps {
        remerge.clear();
    }
    remerge.contrib.resize_with(labels.groups.len(), || None);
    // The uncertain set carries its bootstrap weights and its group and
    // correlation-key ids — computed once per tuple — so no weight kernel
    // and no key hashing runs here no matter how many batches a tuple stays
    // uncertain.
    let UncertainSet {
        weights,
        key_ids,
        group_ids,
        decisions,
        chunk,
        ..
    } = uncertain;
    let mut reader = TupleReader::new(chunk, env.pubs);
    let inclusion = match (&cb.lin_filters[..], &cb.fast_scalar_cmp) {
        ([Expr::InSubquery { id, key, negated }], _) => Inclusion::Member(*id, key, *negated),
        (_, Some(fscs)) => {
            let sweeps = (0..fscs.len()).map(|k| CmpSweep::new(env, fscs, k, key_ids, &mut reader));
            Inclusion::ScalarCmp(sweeps.collect::<Result<_>>()?)
        }
        _ => Inclusion::Generic,
    };
    if gola_obs::enabled() {
        metrics::uncertain_evals().add(group_ids.len() as u64);
    }
    // Per group id, the uncertain tuples of the group in set order, and the
    // tuples that left U since the last call.
    let touched = Buckets::new(group_ids, labels.groups.len());
    let left = Buckets::new(&gone.group_ids, labels.groups.len());
    let mut gone_reader = TupleReader::new(&gone.chunk, env.pubs);
    // Every group with a fold or an uncertain tuple, in key order.
    let live = (0..row_u32(labels.groups.len()))
        .filter(|&g| slot(g).is_some() || !touched.of(g).is_empty());
    let groups = labels.groups.sorted(live);
    let mut out: Vec<EffGroup<'a>> = Vec::with_capacity(groups.len());
    let fresh = || ReplicatedStates::new(&cb.agg_kinds, trials);
    let mut work = Work::default();
    let (mut masks, mut points) = (Vec::new(), Vec::new());
    let (mut lookup_key, mut args) = (Vec::new(), Vec::new());
    let mut decided = vec![0u64; words];
    // A run's tuples whose decision moved, and their stored decisions.
    let (mut moved, mut before): (Vec<usize>, Vec<u64>) = (Vec::new(), Vec::new());
    for (g, key) in groups {
        let det = slot(g);
        let tuples = touched.of(g);
        if let (Some(states), []) = (det, tuples) {
            out.push(EffGroup {
                key: Cow::Borrowed(key),
                states: Cow::Borrowed(states),
                supported: true,
                settled: true,
            });
            continue;
        }
        // Where the tuples fold: U's kept contribution, moved by the
        // difference; a fresh one, rebuilt; or a copy of the deterministic
        // states, for a block that keeps none.
        let kept = remerge.contrib[g as usize].take();
        let delta = kept.is_some();
        let mut target = match kept {
            Some(c) => c,
            None if keeps => fresh(),
            None => det.cloned().unwrap_or_else(fresh),
        };
        let mut exact = true;
        let mut supported = det.is_some();
        // Decided in runs of at most a chunk, which bounds the mask buffer.
        for run in tuples.chunks(CHUNK) {
            masks.clear();
            points.clear();
            for &i in run {
                let w = &weights[i * stride..][..stride];
                points.push(inclusion.decide(
                    env,
                    &mut reader,
                    i,
                    w,
                    &mut masks,
                    &mut lookup_key,
                )?);
            }
            // The new decisions replace the stored ones; a tuple whose
            // decision moved (every tuple, when nothing is kept) keeps its
            // old one in `before`.
            moved.clear();
            before.clear();
            for (t, &i) in run.iter().enumerate() {
                decision_bits(points[t], &masks[t * stride..][..stride], &mut decided);
                let stored = &mut decisions[i * words..][..words];
                if !delta || stored.iter().zip(&decided).any(|(a, b)| a != b) {
                    moved.push(t);
                    before.extend_from_slice(stored);
                    stored.iter_mut().zip(&decided).for_each(|(s, &d)| *s = d);
                }
            }
            supported |= points.iter().any(|&p| p);
            for (k, &t) in moved.iter().enumerate() {
                let i = run[t];
                let (was, now) = (
                    &before[k * words..][..words],
                    &decisions[i * words..][..words],
                );
                let held = delta && any_set(was);
                if !held && !any_set(now) {
                    continue;
                }
                reader.values_into(i, &cb.lin_agg_args, CtxMode::Point, &mut args)?;
                exact &= !keeps || retracts_exactly(&target, &args);
                let w = &weights[i * stride..][..stride];
                match held {
                    true => work.flip(&mut target, &args, w, was, now),
                    false => work.add(&args, &masks[t * stride..][..stride], points[t]),
                }
            }
            work.flush(&mut target);
        }
        work.flush_cells(&mut target);
        for part in left.of(g).chunks(CHUNK).filter(|_| delta) {
            for &e in part {
                gone_reader.values_into(e, &cb.lin_agg_args, CtxMode::Point, &mut args)?;
                exact &= retracts_exactly(&target, &args);
                let weights = &gone.weights[e * stride..][..stride];
                work.decided(&args, weights, &gone.decisions[e * words..][..words], true);
            }
            work.flush(&mut target);
        }
        let (states, contrib) = match (keeps, exact) {
            (false, _) => {
                remerge.took(STRAIGHT);
                (target, None)
            }
            (true, true) if det.is_none_or(ReplicatedStates::takes_exact_merge) => {
                remerge.took(if delta { KEPT } else { REBUILT });
                let mut states = det.cloned().unwrap_or_else(fresh);
                states.merge(&target);
                (states, Some(target))
            }
            // The decisions just stored, straight into a copy of the
            // deterministic states; a contribution that would not retract
            // exactly is dropped and rebuilt.
            (true, exact) => {
                remerge.took(STRAIGHT);
                let mut states = det.cloned().unwrap_or_else(fresh);
                for part in tuples.chunks(CHUNK) {
                    for &i in part {
                        let decision = &decisions[i * words..][..words];
                        if any_set(decision) {
                            reader.values_into(i, &cb.lin_agg_args, CtxMode::Point, &mut args)?;
                            work.decided(&args, &weights[i * stride..][..stride], decision, false);
                        }
                    }
                    work.flush(&mut states);
                }
                (states, exact.then_some(target))
            }
        };
        remerge.contrib[g as usize] = contrib;
        out.push(EffGroup {
            key: Cow::Borrowed(key),
            states: Cow::Owned(states),
            supported,
            settled: det.is_some(),
        });
    }
    // A group with no uncertain tuple left contributes nothing.
    for (g, c) in (0..).zip(&mut remerge.contrib) {
        if touched.of(g).is_empty() {
            *c = None;
        }
    }
    work.count();
    Ok(out)
}

/// The ways a group is re-merged, as `Remerge::took` counts them: from
/// the kept contribution, from a rebuilt one, or straight into a copy of
/// the deterministic states.
pub(crate) const KEPT: usize = 0;
pub(crate) const REBUILT: usize = 1;
pub(crate) const STRAIGHT: usize = 2;

/// Positions of a set's tuples bucketed by group id, each bucket in set
/// order (a stable sort on the id).
struct Buckets {
    order: Vec<usize>,
    /// Per group id, its bucket's range of `order`.
    ranges: Vec<Range<usize>>,
}

impl Buckets {
    fn new(group_ids: &[u32], groups: usize) -> Buckets {
        let mut order: Vec<usize> = (0..group_ids.len()).collect();
        order.sort_by_key(|&i| group_ids[i]);
        let mut ranges = vec![0..0; groups];
        let mut at = 0;
        for run in order.chunk_by(|&a, &b| group_ids[a] == group_ids[b]) {
            ranges[group_ids[run[0]] as usize] = at..at + run.len();
            at += run.len();
        }
        Buckets { order, ranges }
    }

    fn of(&self, g: u32) -> &[usize] {
        &self.order[self.ranges[g as usize].clone()]
    }
}

/// Replace `out` with the decision `point` and weight row `mask` stand
/// for (see [`UncertainSet::decisions`]): word `0` the point, then a bit
/// per trial, set where the trial keeps a weight.
fn decision_bits(point: bool, mask: &[u8], out: &mut [u64]) {
    out[0] = u64::from(point);
    for (word, trials) in out[1..].iter_mut().zip(mask.chunks(64)) {
        let eights = trials.chunks_exact(8);
        let tail = eights.remainder();
        *word = (0..).zip(eights).fold(0, |word, (k, eight)| {
            let bytes: [u8; 8] = eight.try_into().unwrap_or_default();
            word | nonzero_bytes(u64::from_le_bytes(bytes)) << (8 * k)
        });
        let at = trials.len() - tail.len();
        for (i, &w) in (at..).zip(tail) {
            *word |= u64::from(w != 0) << i;
        }
    }
}

/// One bit per byte of `m`, bit `i` set where byte `i` is non-zero.
fn nonzero_bytes(m: u64) -> u64 {
    // Gather bit `8i + 7` to bit `56 + i`: the products land on distinct
    // bits, so nothing carries into the top byte.
    (nonzero_bytes_high(m) >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Bit 7 of each byte of `m` set where the byte is non-zero, every other
/// bit clear (no carry crosses a byte: `(b & 0x7f) + 0x7f ≤ 0xfe`).
fn nonzero_bytes_high(m: u64) -> u64 {
    const LOW: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    (((m & LOW) + LOW) | m) & !LOW
}

/// Append to `out` the weights of `weights` whose trial bit is set in
/// `trials` (a decision's trial words), and zero for the others.
fn keep_weights(trials: &[u64], weights: &[u8], out: &mut Vec<u8>) {
    for (&bits, chunk) in trials.iter().zip(weights.chunks(64)) {
        let eights = chunk.chunks_exact(8);
        let tail = eights.remainder();
        for (k, eight) in (0..).zip(eights) {
            let w = u64::from_le_bytes(eight.try_into().unwrap_or_default());
            out.extend_from_slice(&(w & byte_mask(bits >> (8 * k) & 0xff)).to_le_bytes());
        }
        let at = chunk.len() - tail.len();
        out.extend(
            (at..)
                .zip(tail)
                .map(|(i, &w)| w * u8::from(bits >> i & 1 != 0)),
        );
    }
}

/// `0xff` in byte `i` where bit `i` of `bits` (below 256) is set, else 0.
fn byte_mask(bits: u64) -> u64 {
    // Byte `i` keeps bit `i` of its copy of `bits`.
    let spread = bits.wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
    (nonzero_bytes_high(spread) >> 7).wrapping_mul(0xff)
}

fn any_set(decision: &[u64]) -> bool {
    decision.iter().any(|&w| w != 0)
}

/// Does every argument of one tuple retract exactly from `states`?
fn retracts_exactly(states: &ReplicatedStates, args: &[Value]) -> bool {
    (args.iter().enumerate()).all(|(j, v)| states.retracts_exactly(j, v))
}

/// Tuples on their way into (or out of) some states as one run: per
/// aggregate lane their arguments, per tuple its weight row with only the
/// trials it counts in, and the arguments of those that count at point.
#[derive(Default)]
struct Run {
    lanes: Vec<Vec<Value>>,
    rows: Vec<u8>,
    len: usize,
    /// One tuple's arguments after another.
    mains: Vec<Value>,
    /// Point and trial decisions the run applies.
    cells: u64,
}

impl Run {
    /// One tuple: `row` appends its kept weights to the run's rows.
    fn push(&mut self, args: &[Value], point: bool, row: impl FnOnce(&mut Vec<u8>)) {
        if point {
            self.mains.extend_from_slice(args);
            self.cells += 1;
        }
        let at = self.rows.len();
        row(&mut self.rows);
        let kept = self.rows[at..]
            .iter()
            .map(|&w| u64::from(w != 0))
            .sum::<u64>();
        if kept == 0 {
            self.rows.truncate(at);
            return;
        }
        self.cells += kept;
        self.lanes.resize_with(args.len(), Vec::new);
        for (lane, v) in self.lanes.iter_mut().zip(args) {
            lane.push(v.clone());
        }
        self.len += 1;
    }

    /// Fold the run into `states` (or take it back out), then empty it.
    /// Returns the `fold_run` calls made and the tuples they held.
    fn apply(
        &mut self,
        states: &mut ReplicatedStates,
        retract: bool,
        scratch: &mut FoldScratch,
    ) -> (usize, usize) {
        let stride = states.trials() as usize;
        let rows: Vec<&[u8]> = (0..self.len)
            .map(|t| &self.rows[t * stride..][..stride])
            .collect();
        for (j, values) in self.lanes.iter().enumerate() {
            match retract {
                true => states.retract_run(j, values, &rows, scratch),
                false => states.fold_run(j, values, &rows, false, scratch),
            }
        }
        for args in self.mains.chunks(states.num_aggs().max(1)) {
            match retract {
                true => states.retract_main(args),
                false => states.update_main(args),
            }
        }
        let counted = (self.lanes.len(), self.lanes.len() * self.len);
        self.lanes.iter_mut().for_each(Vec::clear);
        self.rows.clear();
        self.mains.clear();
        self.len = 0;
        counted
    }
}

/// The folds and retractions of one re-merge call, and what they count.
#[derive(Default)]
struct Work {
    add: Run,
    sub: Run,
    /// Flipped trials not yet applied: `(tuple, trial, ±weight)`, the
    /// tuple's arguments at `moved_args[tuple * lanes..]`.
    cells: Vec<(u32, u32, i16)>,
    moved_args: Vec<Value>,
    moved: usize,
    scratch: FoldScratch,
    runs: usize,
    run_tuples: usize,
    /// Decisions [`Work::flip`] applied.
    flipped: u64,
}

impl Work {
    /// A tuple entering the states: `row` its kept weights, `point`
    /// whether it counts at point.
    fn add(&mut self, args: &[Value], row: &[u8], point: bool) {
        self.add
            .push(args, point, |rows| rows.extend_from_slice(row));
    }

    /// Move a carried tuple's contribution from decision `was` to `now`
    /// where they differ: the point at once into `states`, each flipped
    /// trial as a cell for [`Work::flush_cells`]. A carried tuple flips few
    /// trials at a time, where a run would sweep its whole weight row.
    fn flip(
        &mut self,
        states: &mut ReplicatedStates,
        args: &[Value],
        weights: &[u8],
        was: &[u64],
        now: &[u64],
    ) {
        if was[0] != now[0] {
            match now[0] != 0 {
                true => states.update_main(args),
                false => states.retract_main(args),
            }
            self.flipped += 1;
        }
        let t = row_u32(self.moved);
        self.moved += 1;
        self.moved_args.extend_from_slice(args);
        for (k, (&a, &b)) in was[1..].iter().zip(&now[1..]).enumerate() {
            let mut diff = a ^ b;
            self.flipped += u64::from(diff.count_ones());
            while diff != 0 {
                let i = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                let trial = 64 * k + i;
                let w = i16::from(weights[trial]);
                let w = if b >> i & 1 != 0 { w } else { -w };
                self.cells.push((t, row_u32(trial), w));
            }
        }
    }

    /// Apply the flipped cells gathered since the last call to `states`,
    /// one exact pass per lane ([`ReplicatedStates::move_cells`]).
    fn flush_cells(&mut self, states: &mut ReplicatedStates) {
        if self.moved == 0 {
            return;
        }
        states.move_cells(&self.moved_args, &self.cells, &mut self.scratch);
        self.runs += states.num_aggs();
        self.run_tuples += states.num_aggs() * self.moved;
        self.moved_args.clear();
        self.cells.clear();
        self.moved = 0;
    }

    /// A tuple entering the states under a stored `decision` — or, with
    /// `leaving`, leaving them: its weights where the decision keeps them,
    /// through the runs.
    fn decided(&mut self, args: &[Value], weights: &[u8], decision: &[u64], leaving: bool) {
        let run = if leaving {
            &mut self.sub
        } else {
            &mut self.add
        };
        run.push(args, decision[0] != 0, |rows| {
            keep_weights(&decision[1..], weights, rows)
        });
    }

    /// Apply the pending runs to `states`.
    fn flush(&mut self, states: &mut ReplicatedStates) {
        for (run, retract) in [(&mut self.add, false), (&mut self.sub, true)] {
            let (runs, tuples) = run.apply(states, retract, &mut self.scratch);
            self.runs += runs;
            self.run_tuples += tuples;
        }
    }

    /// Add the call's work to the counters.
    fn count(&self) {
        crate::fold::count_runs(self.runs, self.run_tuples);
        if gola_obs::enabled() {
            metrics::flipped_cells().add(self.flipped + self.add.cells + self.sub.cells);
        }
    }
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
        let trials = self.env.config.bootstrap.trials;
        // Trial-major: finalized lane by lane, read trial by trial.
        let mut table = vec![Value::Null; trials as usize * n_aggs];
        for j in 0..n_aggs {
            let cells = table[j..].iter_mut().step_by(n_aggs);
            cells.zip(self.trial_values(j)).for_each(|(c, v)| *c = v);
        }
        for t in 0..trials {
            let aggs = &table[t as usize * n_aggs..][..n_aggs];
            f(&self.ctx(aggs, None, CtxMode::Trial(t)))?;
        }
        Ok(())
    }

    /// `expr` over the group at point (lane `0`) and at every trial (lane
    /// `1 + b`), in one walk of the lane evaluator: an aggregate that
    /// finalizes to `Float`/NULL enters as bare `f64` lanes read off its
    /// replicas, and only what the evaluator cannot do lane-wise is
    /// evaluated once per lane.
    pub(crate) fn lanes(&self, expr: &Expr) -> Result<Lanes> {
        if let Expr::Column(c) = expr {
            return Ok(self.column_lanes(*c));
        }
        let mut cols = Vec::new();
        expr.collect_columns(&mut cols);
        let n_keys = self.key.len();
        // Columns `expr` does not read stay NULL: nothing looks at them.
        let mut aggs = vec![Lanes::Const(Value::Null); self.point_aggs.len()];
        for c in cols.into_iter().filter(|&c| c >= n_keys) {
            if matches!(aggs[c - n_keys], Lanes::Const(Value::Null)) {
                aggs[c - n_keys] = self.column_lanes(c);
            }
        }
        eval_lanes(expr, &GroupLanes { g: self, aggs })
    }

    /// Group column `c` — a key, the same in every lane, or an aggregate,
    /// read off its replicas — in every lane.
    fn column_lanes(&self, c: usize) -> Lanes {
        let Some(j) = c.checked_sub(self.key.len()) else {
            return Lanes::Const(self.key[c].clone());
        };
        let point = &self.point_aggs[j];
        let mut xs = Vec::with_capacity(1 + self.states.trials() as usize);
        if let Value::Float(_) | Value::Null = point {
            xs.push(point.as_f64());
            if self.states.trial_floats_into(j, self.m, &mut xs) {
                count_finalizes(self.states.trials());
                return Lanes::Float(xs);
            }
        }
        let mut vs = vec![point.clone()];
        vs.extend(self.trial_values(j));
        Lanes::Values(vs)
    }

    /// Aggregate `j`'s value in every trial (counted as replica work).
    pub(crate) fn trial_values(&self, j: usize) -> impl Iterator<Item = Value> + '_ {
        count_finalizes(self.states.trials());
        self.states.trial_values(j, self.m)
    }

    /// [`GroupEval::trial_values`] as numbers (`None`: null or
    /// non-numeric).
    pub(crate) fn trial_values_f64(&self, j: usize) -> impl Iterator<Item = Option<f64>> + '_ {
        count_finalizes(self.states.trials());
        self.states.trial_values_f64(j, self.m)
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
                count_finalizes(self.states.trials());
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

/// A group under every mode at once, for [`GroupEval::lanes`]: its keys
/// are the same in every lane, aggregate `j` moves with the lane.
struct GroupLanes<'g> {
    g: &'g GroupEval<'g>,
    /// Per aggregate, its value in every lane.
    aggs: Vec<Lanes>,
}

impl GroupLanes<'_> {
    fn mode(lane: usize) -> CtxMode {
        match lane.checked_sub(1) {
            Some(b) => CtxMode::Trial(row_u32(b)),
            None => CtxMode::Point,
        }
    }
}

impl LaneContext for GroupLanes<'_> {
    fn lanes(&self) -> usize {
        1 + self.g.env.config.bootstrap.trials as usize
    }

    fn eval_at(&self, lane: usize, expr: &Expr) -> Result<Value> {
        let aggs: Vec<Value> = self.aggs.iter().map(|a| a.value(lane)).collect();
        eval(expr, &self.g.ctx(&aggs, None, Self::mode(lane)))
    }

    fn scalar(&self, id: SubqueryId, key: &[Value]) -> Result<ScalarLanes<'_>> {
        let view = PubView {
            pubs: self.g.env.pubs,
            mode: CtxMode::Point,
        };
        view.scalar_lanes(id, key)
    }

    fn column(&self, idx: usize) -> Option<Lanes> {
        let j = idx.checked_sub(self.g.key.len())?;
        Some(self.aggs[j].clone())
    }

    fn moves(&self, expr: &Expr) -> bool {
        let mut cols = Vec::new();
        expr.collect_columns(&mut cols);
        expr.has_subquery_ref() || cols.iter().any(|&c| c >= self.g.key.len())
    }
}

/// Add `n` finalized replica values to the replica-work counter.
fn count_finalizes(n: u32) {
    if gola_obs::enabled() {
        metrics::replica_finalizes().add(u64::from(n));
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
            let weights: Vec<u8> = (0..rhs.len())
                .map(|b| u8::try_from(row_u32(b) * seed % 5).unwrap())
                .collect();
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
