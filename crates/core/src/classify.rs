//! Stage **classify**: sort every candidate against the producers'
//! committed envelopes — deterministic-true (fold), deterministic-false
//! (drop), or uncertain (cache and re-examine next batch; paper §3.2).
//!
//! Classification is per-tuple independent and reliance marking is an
//! idempotent atomic store, so fixed-size chunks classify in parallel for
//! *every* block, including ones whose aggregates cannot merge.

use std::collections::hash_map::Entry;
use std::ops::Range;

use gola_common::{row_u32, FxHashMap, Result, Value};
use gola_expr::eval::{eval, eval_range, eval_tri};
use gola_expr::{BinOp, Expr, RangeVal, RowContext, Tri};

use crate::compiled::FastScalarCmp;
use crate::join::Candidates;
use crate::runtime::{BlockEnv, CtxMode, PubView, Published, PublishedScalar, TupleReader};

/// Candidate-chunk size of the classify → fold pipeline. Chunk boundaries
/// depend only on candidate order — never on the thread count — so
/// chunk-order merging yields bit-identical runtimes (and therefore
/// bit-identical reports) for `threads = 1` and `threads = N`.
pub(crate) const CHUNK: usize = 1024;

/// Classification of one candidate chunk, as chunk-relative indices: the
/// deterministic-true tuples (the fold stage reads their inputs straight
/// off the candidate columns) and the ones that stay uncertain.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct ChunkClass {
    pub folds: Vec<u32>,
    pub uncertain_idx: Vec<u32>,
}

/// Run the stage: one [`ChunkClass`] per `CHUNK` candidates, in order.
pub(crate) fn classify(env: &BlockEnv<'_>, cand: &Candidates) -> Result<Vec<ChunkClass>> {
    let n = cand.chunk.len();
    let starts = (0..n).step_by(CHUNK);
    env.pool
        .map(starts, |s| classify_chunk(env, cand, s, CHUNK.min(n - s)))
        .into_iter()
        .collect()
}

fn classify_chunk(
    env: &BlockEnv<'_>,
    cand: &Candidates,
    start: usize,
    len: usize,
) -> Result<ChunkClass> {
    let cb = env.cb;
    let mut out = ChunkClass::default();
    // Semi-join aggregation folds every candidate into partial aggregates
    // keyed by its membership key — no classification, no caching, no
    // reliance on the producer; the answer re-selects member partitions
    // each batch, so membership flips cost nothing. Likewise a block with
    // no uncertain predicates folds everything.
    if cb.semi_join.is_some() || cb.lin_filters.is_empty() {
        out.folds = (0..row_u32(len)).collect();
        return Ok(out);
    }
    let mut reader = TupleReader::new(&cand.chunk, env.pubs);
    if let Some(fsc) = &cb.fast_scalar_cmp {
        classify_scalar_cmp(env, fsc, cand, &mut reader, start, len, &mut out)?;
        return Ok(out);
    }
    for r in 0..len {
        let ctx = reader.ctx(start + r, CtxMode::Classify);
        let mut tri = Tri::True;
        for f in &cb.lin_filters {
            tri = tri.and(eval_tri(f, &ctx)?);
            if tri == Tri::False {
                break;
            }
        }
        if tri == Tri::Maybe {
            out.uncertain_idx.push(row_u32(r));
            continue;
        }
        mark_reliance(&cb.lin_filters, ctx.row, env.pubs)?;
        if tri == Tri::True {
            out.folds.push(row_u32(r));
        }
    }
    Ok(out)
}

/// One conjunct's RHS at one correlation key: its variation range and
/// which of the call's `entries` it was read from (for reliance marking).
type RhsAtKey = (RangeVal, Range<usize>);

/// Scalar-comparison fast classification: cache each conjunct's RHS
/// variation range (and the producers' published entries) per correlation
/// key id, so each tuple classifies with two float comparisons per
/// conjunct instead of a generic interval evaluation. A key is read only
/// the first time the chunk meets its id.
fn classify_scalar_cmp(
    env: &BlockEnv<'_>,
    fscs: &[FastScalarCmp],
    cand: &Candidates,
    reader: &mut TupleReader<'_>,
    start: usize,
    len: usize,
    out: &mut ChunkClass,
) -> Result<()> {
    let mut by_id: Vec<FxHashMap<u32, RhsAtKey>> = vec![FxHashMap::default(); fscs.len()];
    // Every published entry some cached RHS was read from (one arena, so a
    // cache miss allocates nothing of its own), and the current tuple's.
    let mut entries: Vec<&PublishedScalar> = Vec::new();
    let mut relied: Vec<&PublishedScalar> = Vec::new();
    let mut skey: Vec<Value> = Vec::new();
    for r in 0..len {
        let i = start + r;
        let mut tri = Tri::True;
        relied.clear();
        for (k, fsc) in fscs.iter().enumerate() {
            let lhs = reader.value(i, &fsc.lhs, CtxMode::Classify)?;
            let (range, read) = match by_id[k].entry(cand.key_id(i, k, fscs.len())) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    reader.values_into(i, &fsc.key, CtxMode::Classify, &mut skey)?;
                    e.insert(rhs_at_key(env, fsc, reader, i, &skey, &mut entries)?)
                }
            };
            tri = tri.and(classify_cmp(&lhs, fsc.op, range));
            relied.extend_from_slice(&entries[read.clone()]);
        }
        if tri == Tri::Maybe {
            out.uncertain_idx.push(row_u32(r));
            continue;
        }
        // The decision relies on every conjunct's envelopes at this
        // tuple's keys, like `mark_reliance`.
        for ps in &relied {
            ps.mark_used();
        }
        if tri == Tri::True {
            out.folds.push(row_u32(r));
        }
    }
    Ok(())
}

/// Conjunct `fsc`'s RHS at candidate `i`'s correlation key `skey`; the
/// published entries it reads are appended to `entries`.
fn rhs_at_key<'p>(
    env: &BlockEnv<'p>,
    fsc: &FastScalarCmp,
    reader: &mut TupleReader<'_>,
    i: usize,
    skey: &[Value],
    entries: &mut Vec<&'p PublishedScalar>,
) -> Result<RhsAtKey> {
    // `skey` is every reference's key, one after the other.
    let (from, mut rest) = (entries.len(), skey);
    for &(id, n) in &fsc.refs {
        let (own, tail) = rest.split_at(n);
        entries.extend(env.pubs[id.0].scalars.get(own));
        rest = tail;
    }
    let range = eval_range(&fsc.rhs, &reader.ctx(i, CtxMode::Classify))?;
    Ok((range, from..entries.len()))
}

/// Record that a deterministic decision was made against the referenced
/// producers' envelopes/membership.
fn mark_reliance(filters: &[Expr], row: &[Value], pubs: &[Published]) -> Result<()> {
    fn walk(e: &Expr, ctx: &RowContext<'_>, view: &PubView<'_>) -> Result<()> {
        let keys = |key: &[Expr]| key.iter().map(|k| eval(k, ctx)).collect::<Result<Vec<_>>>();
        match e {
            Expr::ScalarRef { id, key } => {
                if let Some(s) = view.producer(*id)?.scalars.get(keys(key)?.as_slice()) {
                    s.mark_used();
                }
            }
            Expr::InSubquery { id, key, .. } => {
                if let Some(m) = view.producer(*id)?.members.get(keys(key)?.as_slice()) {
                    if m.tri.is_deterministic() {
                        m.mark_relied(m.tri == Tri::True);
                    }
                }
            }
            _ => {}
        }
        e.children()
            .into_iter()
            .try_for_each(|c| walk(c, ctx, view))
    }
    let view = PubView {
        pubs,
        mode: CtxMode::Point,
    };
    let ctx = RowContext::new(row, &view);
    filters.iter().try_for_each(|f| walk(f, &ctx, &view))
}

/// Classify `lhs θ rhs-range` exactly like the generic three-valued
/// evaluator's comparison branch (NULL operands filter deterministically).
fn classify_cmp(lhs: &Value, op: BinOp, rhs: &RangeVal) -> Tri {
    if lhs.is_null() {
        return Tri::False;
    }
    if matches!(rhs, RangeVal::Exact(v) if v.is_null()) {
        return Tri::False;
    }
    let l = RangeVal::Exact(lhs.clone());
    match op {
        BinOp::Lt => l.lt(rhs),
        BinOp::LtEq => l.le(rhs),
        BinOp::Gt => l.gt(rhs),
        BinOp::GtEq => l.ge(rhs),
        BinOp::Eq => l.eq_tri(rhs),
        BinOp::NotEq => l.eq_tri(rhs).not(),
        _ => Tri::Maybe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_cmp_matches_range_semantics() {
        let r = RangeVal::num(10.0, 20.0);
        // Deterministic on either side of the range.
        assert_eq!(classify_cmp(&Value::Float(5.0), BinOp::Lt, &r), Tri::True);
        assert_eq!(classify_cmp(&Value::Float(25.0), BinOp::Lt, &r), Tri::False);
        assert_eq!(classify_cmp(&Value::Float(15.0), BinOp::Lt, &r), Tri::Maybe);
        assert_eq!(classify_cmp(&Value::Float(25.0), BinOp::Gt, &r), Tri::True);
        assert_eq!(
            classify_cmp(&Value::Float(15.0), BinOp::GtEq, &r),
            Tri::Maybe
        );
        // Equality against a non-degenerate range can only be refuted.
        assert_eq!(classify_cmp(&Value::Float(5.0), BinOp::Eq, &r), Tri::False);
        assert_eq!(classify_cmp(&Value::Float(15.0), BinOp::Eq, &r), Tri::Maybe);
    }

    #[test]
    fn classify_cmp_null_semantics() {
        let r = RangeVal::num(0.0, 1.0);
        // NULL lhs: the predicate is SQL NULL → deterministically filtered.
        assert_eq!(classify_cmp(&Value::Null, BinOp::Lt, &r), Tri::False);
        // NULL rhs (finished empty subquery): also filtered.
        assert_eq!(
            classify_cmp(&Value::Float(1.0), BinOp::Lt, &RangeVal::Exact(Value::Null)),
            Tri::False
        );
        // Unknown rhs: cannot classify.
        assert_eq!(
            classify_cmp(&Value::Float(1.0), BinOp::Lt, &RangeVal::Unknown),
            Tri::Maybe
        );
    }

    #[test]
    fn classify_cmp_boundaries() {
        let r = RangeVal::num(10.0, 20.0);
        // x = hi: x < u still possible only if u > 20 — impossible → False.
        assert_eq!(classify_cmp(&Value::Float(20.0), BinOp::Lt, &r), Tri::False);
        // x = lo: x <= u always true (u >= 10).
        assert_eq!(
            classify_cmp(&Value::Float(10.0), BinOp::LtEq, &r),
            Tri::True
        );
        // Degenerate (point) range: fully deterministic.
        let p = RangeVal::point(5.0);
        assert_eq!(classify_cmp(&Value::Float(5.0), BinOp::Eq, &p), Tri::True);
        assert_eq!(
            classify_cmp(&Value::Float(5.0), BinOp::NotEq, &p),
            Tri::False
        );
    }
}
