//! Stage **publish**: refresh a producer block's externally visible
//! values — point, per-trial and variation range per group — carry the
//! committed envelopes forward, and detect **failures**: a relied-upon
//! value escaping its envelope, a relied-upon membership flipping, or a
//! relied-upon group vanishing (paper §3.2).

use std::sync::atomic::{AtomicBool, AtomicU8};
use std::sync::Arc;

use gola_bootstrap::VariationRange;
use gola_common::{FxHashMap, FxHashSet, Result, Value};
use gola_expr::eval::eval;
use gola_expr::lanes::{Lanes, Trials};
use gola_expr::vector::num_cmp_holds;
use gola_expr::{BinOp, Expr, RangeVal, Tri};
use gola_plan::BlockRole;
use gola_storage::{Catalog, Table};

use crate::groups::{effective_states, having_pass, GroupEval};
use crate::join;
use crate::runtime::{
    BlockEnv, BlockRuntime, CtxMode, GroupCtx, PubView, Published, PublishedMember, PublishedScalar,
};

/// What the stage reads besides the block's [`BlockEnv`].
pub(crate) struct PublishInput<'a> {
    pub rt: &'a mut BlockRuntime,
    /// The block's previous publication: envelopes and reliance marks.
    pub old: &'a Published,
    /// Multiplicity `k/i` scaling the states to full-data estimates.
    pub m: f64,
    /// This is the final batch: the block stops being live.
    pub last: bool,
}

/// Per-call constants shared by every group of one publication.
struct PubCtx<'a> {
    old: &'a Published,
    m: f64,
    live: bool,
    /// Numeric-only fast HAVING: every conjunct compares an aggregate
    /// against a numeric constant — `(aggregate, op, constant)` each.
    numeric_having: Option<Vec<(usize, BinOp, f64)>>,
}

/// The keys of one publication whose relied-upon commitment broke: used
/// scalars that left their envelope or vanished, relied-on members that
/// flipped or vanished. Empty when nothing failed.
pub(crate) type Violated = FxHashSet<Arc<[Value]>>;

/// Run the stage. Returns the block's new publication and the keys whose
/// relied-upon value violated its commitment.
pub(crate) fn publish(
    env: &BlockEnv<'_>,
    input: PublishInput<'_>,
) -> Result<(Published, Violated)> {
    let cb = env.cb;
    let n_keys = cb.num_keys();
    let mut eff = effective_states(env, input.rt)?;
    // Groups without point support don't exist in the point answer, so
    // they must not publish — a consumer would see a group the exact
    // engine never creates (e.g. COUNT = 0 where the true subquery yields
    // no row at all). A global aggregate always has exactly one row.
    eff.retain(|g| g.supported || n_keys == 0);
    let live = cb.block.is_streaming && !input.last;
    let p = PubCtx {
        old: input.old,
        m: input.m,
        live,
        numeric_having: cb.fast_having.as_ref().and_then(|fh| {
            fh.iter()
                .map(|(c, op, k)| Some((c.checked_sub(n_keys)?, *op, k.as_f64()?)))
                .collect()
        }),
    };
    // Sized for last batch's groups, so a live block's map never grows.
    let mut out = Published {
        live,
        scalars: FxHashMap::with_capacity_and_hasher(input.old.scalars.len(), Default::default()),
        members: FxHashMap::with_capacity_and_hasher(input.old.members.len(), Default::default()),
    };
    let mut violated = Violated::default();
    let scalar = cb.block.role == BlockRole::Scalar;
    for group in &eff {
        let key: &[Value] = &group.key;
        let g = GroupEval::new(env, key, &group.states, p.m);
        // Keys are interned `Arc` slices: a live group reuses the previous
        // batch's allocation instead of cloning a `Vec<Value>` every batch.
        let intern = |prev: Option<&Arc<[Value]>>| prev.map_or_else(|| Arc::from(key), Arc::clone);
        let (interned, v) = if scalar {
            let (s, v) = scalar_entry(env, &p, &g)?;
            let k = intern(p.old.scalars.get_key_value(key).map(|(k, _)| k));
            out.scalars.insert(Arc::clone(&k), s);
            (k, v)
        } else {
            let (m, v) = member_entry(env, &p, &g)?;
            let k = intern(p.old.members.get_key_value(key).map(|(k, _)| k));
            out.members.insert(Arc::clone(&k), m);
            (k, v)
        };
        if v {
            violated.insert(interned);
        }
    }
    // Groups that vanished (their only contributions were uncertain tuples
    // that resolved to false): decisions that relied on them are void.
    // Relying on `false` for a vanished member stays correct.
    #[expect(clippy::disallowed_methods, reason = "collected into a set")]
    let vanished = (p.old.scalars.iter())
        .filter(|(k, s)| s.is_used() && !out.scalars.contains_key(*k))
        .map(|(k, _)| k);
    violated.extend(vanished.cloned());
    #[expect(clippy::disallowed_methods, reason = "collected into a set")]
    let vanished = (p.old.members.iter())
        .filter(|(k, m)| m.relied_on() == Some(true) && !out.members.contains_key(*k))
        .map(|(k, _)| k);
    violated.extend(vanished.cloned());
    Ok((out, violated))
}

/// A scalar block's first post-projection expression — its value.
#[expect(clippy::expect_used, reason = "Scalar blocks carry a post projection")]
fn scalar_projection<'a>(env: &BlockEnv<'a>) -> &'a Expr {
    &env.cb
        .block
        .post_project
        .as_ref()
        .expect("scalar has projection")[0]
}

/// Finalize one scalar group: point value, per-trial values, envelope
/// carry and violation check against the previous publication.
fn scalar_entry(
    env: &BlockEnv<'_>,
    p: &PubCtx<'_>,
    g: &GroupEval<'_>,
) -> Result<(PublishedScalar, bool)> {
    let n_trials = env.config.bootstrap.trials as usize;
    let n_aggs = g.point_aggs.len();
    // One walk of the lane evaluator: a summing aggregate's replicas and
    // arithmetic over them stay `f64` lanes, published as such.
    let (value, trials) = match g.lanes(scalar_projection(env))? {
        Lanes::Float(mut xs) => {
            let point = xs.remove(0);
            (point.map_or(Value::Null, Value::Float), Trials::Float(xs))
        }
        Lanes::Const(v) => (v.clone(), Trials::from_values(vec![v; n_trials])),
        Lanes::Values(mut vs) => (vs.remove(0), Trials::from_values(vs)),
    };
    let mut numeric_trials: Vec<f64> = Vec::with_capacity(n_trials);
    match &trials {
        Trials::Float(xs) => numeric_trials.extend(xs.iter().flatten()),
        Trials::Values(vs) => numeric_trials.extend(vs.iter().filter_map(Value::as_f64)),
    }
    // Small-sample guard: do not trust the bootstrap range of a scalar
    // derived from a handful of observations. With no replicas at all
    // there is no error model — nothing classifies deterministically.
    let tiny = p.live && (n_trials == 0 || (0..n_aggs).any(|j| g.tiny(j)));
    let fresh = match value.as_f64() {
        _ if tiny => RangeVal::Unknown,
        Some(v) => {
            let vr = VariationRange::from_replicas(v, &numeric_trials, env.config.epsilon);
            RangeVal::num(vr.lo, vr.hi)
        }
        None if value.is_null() && p.live => RangeVal::Unknown,
        None => RangeVal::Exact(value.clone()),
    };
    let mut violated = false;
    let (env_range, used) = match p.old.scalars.get(g.key) {
        Some(prev) if prev.is_used() => {
            // `RangeVal::contains`, with the bounds read once.
            let bounds = prev.env.bounds();
            let contains = |v: f64| bounds.is_none_or(|(lo, hi)| lo <= v && v <= hi);
            let inside =
                value.as_f64().is_some_and(contains) && numeric_trials.iter().all(|&v| contains(v));
            violated = !inside;
            if inside {
                (prev.env.intersect(&fresh).unwrap_or(fresh), true)
            } else {
                (fresh, false)
            }
        }
        _ => (fresh, false),
    };
    let entry = PublishedScalar {
        value,
        trials,
        env: env_range,
        used: AtomicBool::new(used),
    };
    Ok((entry, violated))
}

/// Does every `aggregate θ constant` conjunct hold for these aggregates?
fn all_pass(fh: &[(usize, BinOp, f64)], agg: impl Fn(usize) -> Option<f64>) -> bool {
    fh.iter()
        .all(|&(j, op, k)| agg(j).is_some_and(|x| num_cmp_holds(op, x, k)))
}

/// Finalize one membership group: HAVING at point and per trial, its
/// range classification, and the check that a relied-upon membership
/// still holds everywhere.
fn member_entry(
    env: &BlockEnv<'_>,
    p: &PubCtx<'_>,
    g: &GroupEval<'_>,
) -> Result<(PublishedMember, bool)> {
    let trials = env.config.bootstrap.trials;
    let having = &env.cb.block.having;
    let mut trial_pass: Vec<bool> = Vec::with_capacity(trials as usize);
    let point = match &p.numeric_having {
        Some(fh) => {
            // Conjunct by conjunct, each over its lane's trial values.
            trial_pass.resize(trials as usize, true);
            for &(j, op, k) in fh {
                let holds = |x: Option<f64>| x.is_some_and(|x| num_cmp_holds(op, x, k));
                let lane = trial_pass.iter_mut().zip(g.trial_values_f64(j));
                lane.for_each(|(pass, x)| *pass &= holds(x));
            }
            all_pass(fh, |j| g.point_aggs[j].as_f64())
        }
        None => {
            g.for_each_trial(|ctx| {
                trial_pass.push(having_pass(having, ctx)?);
                Ok(())
            })?;
            having_pass(having, &g.point_ctx())?
        }
    };
    let tri = if p.live {
        g.having_tri()?
    } else {
        Tri::from(point)
    };
    // Reliance carries over (1 = relied on `false`, 2 = on `true`) unless
    // the point or any trial now contradicts it.
    let (relied, violated) = match p.old.members.get(g.key).and_then(|prev| prev.relied_on()) {
        Some(r) if point != r || trial_pass.iter().any(|&t| t != r) => (0, true),
        Some(r) => (1 + u8::from(r), false),
        None => (0, false),
    };
    let entry = PublishedMember {
        point,
        trials: trial_pass,
        tri,
        relied: AtomicU8::new(relied),
    };
    Ok((entry, violated))
}

/// Publish a static (non-streaming) block once, exactly, on the exact
/// engine's operators: its source table joined to its dimensions, one
/// filter per WHERE conjunct, then the aggregation into group rows. A full
/// table has no sampling error, so every trial equals the point value and
/// nothing can ever violate. Every group publishes; a membership group
/// HAVING rejects publishes `false`.
pub(crate) fn publish_exact(env: &BlockEnv<'_>, catalog: &Catalog) -> Result<Published> {
    let block = &env.cb.block;
    let view = PubView {
        pubs: env.pubs,
        mode: CtxMode::Point,
    };
    let indexes = join::index_dims(catalog, block)?;
    let source = catalog.get(&block.source_table)?;
    let mut joined = Vec::with_capacity(source.chunks().len());
    for c in source.chunks() {
        joined.push(join::join_dims(block, &indexes, c)?.1);
    }
    let mut t = Table::from_chunks(Arc::clone(&block.source_schema), joined)?;
    for f in &block.filters {
        t = gola_engine::filter(&t, f, &view)?;
    }
    let schema = Arc::clone(&block.agg_row_schema);
    let groups = gola_engine::aggregate(schema, &t, &block.group_by, &block.aggs, &view)?;
    let trials = env.config.bootstrap.trials as usize;
    let mut out = Published::default();
    let mut row = Vec::new();
    for c in groups.chunks() {
        for i in 0..c.len() {
            c.row_values_into(i, &mut row);
            let (keys, aggs) = row.split_at(env.cb.num_keys());
            let point = GroupCtx {
                keys,
                aggs,
                agg_ranges: None,
                view,
            };
            if block.role == BlockRole::Scalar {
                let value = eval(scalar_projection(env), &point)?;
                let entry = PublishedScalar {
                    trials: Trials::from_values(vec![value.clone(); trials]),
                    env: RangeVal::Exact(value.clone()),
                    value,
                    used: AtomicBool::new(false),
                };
                out.scalars.insert(keys.into(), entry);
            } else {
                let pass = having_pass(&block.having, &point)?;
                let entry = PublishedMember {
                    point: pass,
                    trials: vec![pass; trials],
                    tri: Tri::from(pass),
                    relied: AtomicU8::new(0),
                };
                out.members.insert(keys.into(), entry);
            }
        }
    }
    Ok(out)
}
