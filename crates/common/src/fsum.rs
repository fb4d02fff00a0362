//! Exact, order-independent floating-point accumulation.
//!
//! The online executor folds tuples in mini-batch (permutation) order while
//! the batch engine folds the same tuples in table order. Plain `f64`
//! addition is not associative, so the two paths used to disagree in the
//! last bits — which is why older end-to-end tests compared answers with a
//! `1e-6` tolerance. The conformance harness demands more: the final-batch
//! online answer must *bit-match* the exact engine answer.
//!
//! [`ExactSum`] delivers that. It maintains the running sum as a Shewchuk
//! floating-point expansion — a list of non-overlapping components whose
//! mathematical sum is *exactly* the sum of everything added — using only
//! error-free transforms ([`two_sum`], [`two_product`]). Because the
//! representation is exact, [`ExactSum::value`] (the exact total rounded
//! once, to nearest-even) depends only on the *multiset* of inputs, never
//! on the order they arrived or how partial sums were merged.
//!
//! [`WeightedRun`] is the bulk form: the exact weighted sums of a whole *run*
//! of values against many weight columns at once, in plain vectorizable
//! `f64` arithmetic, by pre-rounding the values onto a common grid first.
//!
//! References: J. R. Shewchuk, "Adaptive Precision Floating-Point
//! Arithmetic and Fast Robust Geometric Predicates" (1997) —
//! GROW-EXPANSION; the final rounding is the one of CPython's `math.fsum`;
//! the pre-rounding is ExtractVector of S. M. Rump, T. Ogita, S. Oishi,
//! "Accurate Floating-Point Summation" (2008).
#![expect(
    clippy::float_cmp,
    reason = "error-free transforms test exact float identities; this module defines the order others use"
)]

/// Error-free transform: returns `(s, e)` with `s = fl(a + b)` and
/// `a + b = s + e` exactly (Knuth's TwoSum; no magnitude precondition).
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let err = (a - (s - bb)) + (b - bb);
    (s, err)
}

/// Error-free transform for products: `(p, e)` with `p = fl(a · b)` and
/// `a · b = p + e` exactly, via fused multiply-add.
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let err = a.mul_add(b, -p);
    (p, err)
}

/// Fast variant of [`two_sum`] requiring `|a| >= |b|` (Dekker).
#[inline]
fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let err = b - (s - a);
    (s, err)
}

/// An exact running sum of `f64` values.
///
/// All of `add`, `add_product` and `merge` preserve the invariant that the
/// components sum to the exact (real-arithmetic) total, so `value()` is a
/// pure function of the multiset of contributions: permuting the update
/// order, or splitting the stream across shards and merging, cannot change
/// a single bit of the result.
///
/// Non-finite inputs (and overflow past ~1.8e308 during accumulation) fall
/// back to a sticky IEEE scalar so NaN/∞ propagate deterministically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactSum {
    /// Non-overlapping expansion components, increasing magnitude.
    comps: Vec<f64>,
    /// Sticky non-finite accumulator; `0.0` while everything is finite.
    special: f64,
}

impl ExactSum {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one value (exact).
    #[inline]
    pub fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        if !x.is_finite() || self.special != 0.0 {
            self.stick(x);
            return;
        }
        self.grow(x);
    }

    /// Fold in `a · b` exactly (both rounding error and product are kept).
    /// A non-finite product has no error term (the fma's would be NaN), so
    /// it folds in alone: `add_product(±∞, w)` is `add(±∞)`.
    #[inline]
    pub fn add_product(&mut self, a: f64, b: f64) {
        let (p, e) = two_product(a, b);
        if p.is_finite() {
            self.add(e);
        }
        self.add(p);
    }

    /// Fold another exact sum in (exact; order of merges is irrelevant).
    pub fn merge(&mut self, other: &ExactSum) {
        if other.special != 0.0 {
            self.stick(other.special);
        }
        for &c in &other.comps {
            self.add(c);
        }
    }

    /// Shewchuk GROW-EXPANSION with zero elimination. `x` must be finite
    /// and nonzero.
    fn grow(&mut self, x: f64) {
        let mut q = x;
        let mut j = 0usize;
        for i in 0..self.comps.len() {
            let (s, e) = two_sum(q, self.comps[i]);
            q = s;
            if e != 0.0 {
                self.comps[j] = e;
                j += 1;
            }
        }
        self.comps.truncate(j);
        if !q.is_finite() {
            // The running total escaped the f64 range: from here on results
            // are saturated and only IEEE-deterministic, not exact.
            self.comps.clear();
            self.stick(q);
            return;
        }
        if q != 0.0 {
            self.comps.push(q);
        }
    }

    /// Add `x` to the sticky scalar. A NaN there is always the canonical
    /// [`f64::NAN`]: which NaN IEEE addition hands back depends on code
    /// generation (`∞ + −∞` makes a fresh one, whose sign the target
    /// chooses), and the state must not.
    fn stick(&mut self, x: f64) {
        self.special += x;
        if self.special.is_nan() {
            self.special = f64::NAN;
        }
    }

    /// `true` if nothing (or only zeros) has been folded in.
    pub fn is_zero(&self) -> bool {
        self.comps.is_empty() && self.special == 0.0
    }

    /// The exact sum rounded once, to nearest-even — so a pure function of
    /// the real number the expansion represents, whatever its components.
    ///
    /// Sums the components from the top while the partial sum stays exact;
    /// the first inexact step leaves `hi` (the rounded total so far) and
    /// `lo` (what it dropped). Everything below `lo` is smaller than `lo`,
    /// so `hi` is already the answer unless `lo` is exactly half an ulp of
    /// `hi` — a tie that round-to-even broke without seeing the lower
    /// components. The next one's sign says on which side of the tie the
    /// exact total lies (the correction of CPython's `math.fsum`).
    ///
    /// A NaN total is always the canonical [`f64::NAN`]: which NaN IEEE
    /// addition hands back depends on the order its operands met (`∞ + −∞`
    /// makes a fresh one, a NaN operand passes its own sign and payload),
    /// and the result must not.
    pub fn value(&self) -> f64 {
        if self.special != 0.0 {
            return if self.special.is_nan() {
                f64::NAN
            } else {
                self.special
            };
        }
        let Some((&top, mut rest)) = self.comps.split_last() else {
            return 0.0;
        };
        let (mut hi, mut lo) = (top, 0.0);
        while let Some((&c, below)) = rest.split_last() {
            rest = below;
            (hi, lo) = fast_two_sum(hi, c);
            if lo != 0.0 {
                break;
            }
        }
        if let Some(&next) = rest.last() {
            if (lo < 0.0 && next < 0.0) || (lo > 0.0 && next > 0.0) {
                let twice = lo * 2.0;
                let away = hi + twice;
                // Exact only when `lo` is half an ulp of `hi`.
                if away - hi == twice {
                    hi = away;
                }
            }
        }
        hi
    }
}

/// The payload bits of a quiet NaN: where a spilled cell keeps its index.
const PAYLOAD: u64 = (1 << 51) - 1;

/// A NaN whose payload is index `k` of a [`DenseSums`]' side vector.
fn spill_mark(k: usize) -> f64 {
    f64::from_bits(f64::NAN.to_bits() | k as u64)
}

/// The side-vector index a [`DenseSums`] cell marks, if it marks one.
#[inline]
fn spill_index(d: f64) -> Option<usize> {
    let k = (d.to_bits() & PAYLOAD) as usize;
    d.is_nan().then_some(k)
}

/// A vector of [`ExactSum`]s stored one `f64` each while that is exact.
///
/// Cell `i` is either *dense* — a finite double `d` standing for the
/// `ExactSum` whose only component is `d` (none when `d == 0`) — or
/// *spilled*: a NaN marking its full `ExactSum` in a side vector. Every
/// operation does what the same operation on cell `i`'s `ExactSum` would
/// do, and a cell spills exactly when that `ExactSum` would leave the
/// one-component form: a `two_sum` error term, a non-finite value, or an
/// overflow. So a cell is always in the state its `ExactSum` would be in,
/// and [`value`](Self::value) returns the same bits. Sums of integers
/// (counts, quantities) stay dense for as long as they fit 53 bits, and
/// adding a row of pieces that all stay exact ([`add_slice`](Self::add_slice))
/// is one plain vector add.
#[derive(Debug, Clone)]
pub struct DenseSums {
    dense: Vec<f64>,
    spilled: Vec<ExactSum>,
}

impl DenseSums {
    /// `n` empty sums.
    pub fn new(n: usize) -> Self {
        DenseSums {
            dense: vec![0.0; n],
            spilled: Vec::new(),
        }
    }

    /// Number of sums.
    pub fn len(&self) -> usize {
        self.dense.len()
    }

    /// `true` when there are no sums.
    pub fn is_empty(&self) -> bool {
        self.dense.is_empty()
    }

    /// Sum `i` as its side `ExactSum`, moved there (same state) if it is
    /// still dense.
    fn exact(&mut self, i: usize) -> &mut ExactSum {
        match spill_index(self.dense[i]) {
            Some(k) => &mut self.spilled[k],
            None => self.spill(i),
        }
    }

    /// Move dense sum `i` to a side `ExactSum` in the same state.
    #[cold]
    fn spill(&mut self, i: usize) -> &mut ExactSum {
        let mut sum = ExactSum::new();
        sum.add(self.dense[i]);
        let k = self.spilled.len();
        self.dense[i] = spill_mark(k);
        self.spilled.push(sum);
        &mut self.spilled[k]
    }

    /// [`ExactSum::add`] on sum `i`.
    #[inline]
    pub fn add(&mut self, i: usize, x: f64) {
        let d = self.dense[i];
        if let Some(k) = spill_index(d) {
            return self.spilled[k].add(x);
        }
        // `ExactSum::grow` on the component list `[d]`: one `two_sum`.
        let (s, e) = two_sum(x, d);
        if e == 0.0 && s.is_finite() {
            self.dense[i] = s;
        } else {
            self.spill(i).add(x);
        }
    }

    /// [`ExactSum::add_product`] on sum `i`.
    #[inline]
    pub fn add_product(&mut self, i: usize, a: f64, b: f64) {
        if let Some(k) = spill_index(self.dense[i]) {
            return self.spilled[k].add_product(a, b);
        }
        let (p, e) = two_product(a, b);
        if p.is_finite() {
            self.add(i, e);
        }
        self.add(i, p);
    }

    /// [`add`](Self::add) `xs[k]` to sum `start + k`, for every `k`. When
    /// every one of those sums is dense and stays exact, that is one plain
    /// vector add; otherwise each cell goes its own way.
    pub fn add_slice(&mut self, start: usize, xs: &[f64]) {
        let all_spilled = self.spilled.len() == self.dense.len();
        let dense = &mut self.dense[start..][..xs.len()];
        let exact = !all_spilled
            && dense.iter().zip(xs).fold(true, |ok, (&d, &x)| {
                let (s, e) = two_sum(x, d);
                ok & (e == 0.0) & s.is_finite()
            });
        if exact {
            dense.iter_mut().zip(xs).for_each(|(d, &x)| *d += x);
        } else {
            (start..).zip(xs).for_each(|(i, &x)| self.add(i, x));
        }
    }

    /// [`ExactSum::merge`] of `other`'s sum `j` into sum `i`.
    pub fn merge(&mut self, i: usize, other: &DenseSums, j: usize) {
        let d = other.dense[j];
        match spill_index(d) {
            Some(k) => self.exact(i).merge(&other.spilled[k]),
            None => self.add(i, d),
        }
    }

    /// [`merge`](Self::merge) of every sum of `other` into the same sum
    /// here: one [`add_slice`](Self::add_slice) while `other` has no
    /// spilled sum.
    pub fn merge_all(&mut self, other: &DenseSums) {
        assert_eq!(self.len(), other.len(), "sums of equal length");
        if other.spilled.is_empty() {
            self.add_slice(0, &other.dense);
        } else {
            (0..other.len()).for_each(|i| self.merge(i, other, i));
        }
    }

    /// Add `w · xs[t]` to sum `i` for every cell `(t, i, w)` of `cells`:
    /// what one [`add_product`](Self::add_product) per cell does, by the
    /// pre-rounding of [`WeightedRun`] — each level rounds every remaining
    /// value onto one grid, after which every product and every partial
    /// sum of a cell's sum is plain, exact `f64` arithmetic (see that
    /// type's doc: the weights here are signed, and `2^K` bounds each
    /// sum's `Σ|w|`). Each level hands each touched sum one piece, so a
    /// sum that many sparse cells reach is grown a few times, not twice a
    /// cell. Non-finite values, and remainders past the last level, go
    /// cell by cell. Equal at [`value`](Self::value) while no sum's
    /// running total overflows.
    pub fn add_cells(&mut self, xs: &[f64], cells: &[(u32, u32, i16)], buf: &mut CellBuf) {
        let CellBuf { total, acc, rem, q } = buf;
        total.clear();
        total.resize(self.len(), 0);
        for &(_, i, w) in cells {
            total[i as usize] += u64::from(w.unsigned_abs());
        }
        let bound = total.iter().copied().max().unwrap_or(0);
        // Smallest K ≥ 2 with 2^K ≥ bound.
        let headroom = u64::from(64 - bound.saturating_sub(1).leading_zeros()).max(2);
        rem.clear();
        rem.extend_from_slice(xs);
        let mut top = 0u64;
        for r in rem.iter_mut() {
            if r.is_finite() {
                top = top.max(r.abs().to_bits());
            }
        }
        for &(t, i, w) in cells {
            if !xs[t as usize].is_finite() {
                self.add_product(i as usize, xs[t as usize], f64::from(w));
            }
        }
        rem.iter_mut()
            .filter(|r| !r.is_finite())
            .for_each(|r| *r = 0.0);
        acc.clear();
        acc.resize(self.len(), 0.0);
        for level in 0..=MAX_LEVELS {
            if top == 0 {
                break;
            }
            let sigma_exp = (top >> 52) + headroom;
            if level == MAX_LEVELS || sigma_exp > 2045 {
                for &(t, i, w) in cells.iter().filter(|c| rem[c.0 as usize] != 0.0) {
                    self.add_product(i as usize, rem[t as usize], f64::from(w));
                }
                break;
            }
            let sigma = f64::from_bits(sigma_exp << 52 | 1 << 51);
            q.clear();
            top = 0;
            for r in rem.iter_mut() {
                let grid = (sigma + *r) - sigma;
                *r -= grid;
                top = top.max(r.abs().to_bits());
                q.push(grid);
            }
            // Exact: every product and partial sum is a multiple of
            // ulp(σ) of at most 2^53 ulps.
            for &(t, i, w) in cells {
                acc[i as usize] += f64::from(w) * q[t as usize];
            }
            for (i, piece) in acc.iter_mut().enumerate().filter(|(_, p)| **p != 0.0) {
                self.add(i, *piece);
                *piece = 0.0;
            }
        }
    }

    /// Every sum's [`value`](Self::value) as one slice, while no sum has
    /// spilled.
    pub fn dense_values(&self) -> Option<&[f64]> {
        self.spilled.is_empty().then_some(&self.dense)
    }

    /// [`ExactSum::value`] of sum `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        let d = self.dense[i];
        match spill_index(d) {
            Some(k) => self.spilled[k].value(),
            None => d,
        }
    }
}

/// Pre-rounding levels a run gets before what is still left of its values
/// is handed back ([`WeightedRun::leftover`]). A level takes the top
/// `53 − K` bits off every remainder (`K` ≈ 11 for a 1024-tuple run), so six
/// consume doubles spread over ~200 binades; a wider run hands back tails.
const MAX_LEVELS: usize = 6;

/// Reusable buffers of [`DenseSums::add_cells`].
#[derive(Debug, Default)]
pub struct CellBuf {
    total: Vec<u64>,
    acc: Vec<f64>,
    rem: Vec<f64>,
    q: Vec<f64>,
}

/// Reusable buffers of [`WeightedRun`]s (one per fold loop, not per run).
#[derive(Debug, Default)]
pub struct RunBuf {
    totals: Vec<u64>,
    /// `pieces[l * cols + c]`: level `l`'s exact partial sum of column `c`.
    pieces: Vec<f64>,
    rem: Vec<f64>,
    leftover: Vec<(usize, f64)>,
}

/// Exact weighted sums of a *run* of values: `Σ_t rows[t][c] · x[t]` for
/// every weight column `c` at once (and, with `unit`, `Σ_t x[t]` as one more
/// column), computed by sweeps of plain `f64` multiply-adds.
///
/// **Why plain arithmetic is exact here.** Let `2^ex` bound every `|x[t]|`
/// and `2^K` every column's weight total (`K ≥ 2`). A level adds and
/// subtracts `σ = 1.5 · 2^E`, `E = ex + K − 1`: since `|x| < 2^(E−1)`,
/// `σ + x` stays inside `σ`'s binade, so it rounds `x` to the nearest
/// multiple `q` of `u = ulp(σ) = 2^(ex+K−53)` and both `q = (σ + x) − σ`
/// and the remainder `x − q` are error-free. (A power-of-two `σ` would let
/// a negative `x` drop the sum into the binade below, whose ulp is `u/2` —
/// one more bit of headroom; the `1.5` keeps both signs on one grid.) Now
/// `|q| ≤ 2^ex`, so every product `w · q` and every partial sum of a
/// column is a multiple of `u` no larger than `2^ex · 2^K = 2^53 · u` —
/// exactly representable, hence every operation of the sweep is exact and
/// its order irrelevant. The remainders (at most `u/2`) get the next
/// level, until none is left. Each level's column sum is handed out as one
/// exact piece ([`WeightedRun::levels`]); adding the pieces to an
/// [`ExactSum`] leaves it representing the same real number as one
/// `add_product` per (tuple, column) would — so `value()` cannot differ.
///
/// **What is handed back** ([`WeightedRun::leftover`]) for `add_product`:
/// non-finite values, everything if `σ` would overflow (`|x|` within `2^K`
/// of `f64::MAX`), and remainders that outlive `MAX_LEVELS` (6) levels.
/// All are properties of the run's values and weights alone. Weights are
/// `u8`, so `K ≤ 8 + log₂(rows)`: every level of a run shorter than 2³²
/// rows still takes at least 13 bits off each remainder.
pub struct WeightedRun<'a> {
    rows: &'a [&'a [u8]],
    /// Weight columns (`rows[t].len()`); the unit column, if any, follows.
    width: usize,
    unit: bool,
    headroom: u64,
    levels: usize,
    buf: &'a mut RunBuf,
}

impl<'a> WeightedRun<'a> {
    /// Start a run over `rows` (one weight row of `width` columns per
    /// tuple): totals every column.
    pub fn new(rows: &'a [&'a [u8]], width: usize, unit: bool, buf: &'a mut RunBuf) -> Self {
        buf.totals.clear();
        buf.totals.resize(width, 0);
        for row in rows {
            debug_assert_eq!(row.len(), width);
            for (t, &w) in buf.totals.iter_mut().zip(*row) {
                *t += u64::from(w);
            }
        }
        let unit_total = if unit { rows.len() as u64 } else { 0 };
        let bound = buf.totals.iter().copied().fold(unit_total, u64::max);
        // Smallest K ≥ 2 with 2^K ≥ bound.
        let headroom = u64::from(64 - bound.saturating_sub(1).leading_zeros()).max(2);
        WeightedRun {
            rows,
            width,
            unit,
            headroom,
            levels: 0,
            buf,
        }
    }

    fn cols(&self) -> usize {
        self.width + usize::from(self.unit)
    }

    /// `Σ_t rows[t][c]` per weight column.
    pub fn totals(&self) -> &[u64] {
        &self.buf.totals
    }

    /// Sum the value stream `xs` (one per row) against every column;
    /// replaces the previous stream's [`levels`](Self::levels) and
    /// [`leftover`](Self::leftover).
    pub fn sum(&mut self, xs: &[f64]) {
        assert_eq!(xs.len(), self.rows.len(), "one value per weight row");
        let cols = self.cols();
        let buf = &mut *self.buf;
        buf.pieces.clear();
        buf.leftover.clear();
        buf.rem.clear();
        buf.rem.extend_from_slice(xs);
        self.levels = 0;
        let mut top = 0u64;
        // The largest magnitude, as bits (which order like the magnitudes).
        for (t, r) in buf.rem.iter_mut().enumerate() {
            if r.is_finite() {
                top = top.max(r.abs().to_bits());
            } else {
                buf.leftover.push((t, *r));
                *r = 0.0;
            }
        }
        while top != 0 {
            // Biased exponent of σ: that of the largest remainder, plus K.
            let sigma_exp = (top >> 52) + self.headroom;
            if self.levels == MAX_LEVELS || sigma_exp > 2045 {
                let rest = buf.rem.iter().enumerate().filter(|(_, r)| **r != 0.0);
                buf.leftover.extend(rest.map(|(t, r)| (t, *r)));
                // In row order, as a cell-by-cell fold meets them: once a
                // running total overflows, IEEE order decides ±∞ vs NaN.
                buf.leftover.sort_unstable_by_key(|&(t, _)| t);
                break;
            }
            let sigma = f64::from_bits(sigma_exp << 52 | 1 << 51);
            buf.pieces.resize((self.levels + 1) * cols, 0.0);
            let acc = &mut buf.pieces[self.levels * cols..];
            let (acc, unit_acc) = acc.split_at_mut(self.width);
            top = 0;
            for (r, row) in buf.rem.iter_mut().zip(self.rows) {
                if *r == 0.0 {
                    continue;
                }
                let q = (sigma + *r) - sigma;
                *r -= q;
                top = top.max(r.abs().to_bits());
                // Plain `f64` accumulation, and exact: every product and
                // partial sum is a multiple of ulp(σ) of at most 2^53 ulps
                // (see the type's doc).
                for (a, &w) in acc.iter_mut().zip(*row) {
                    *a += f64::from(w) * q;
                }
                if let Some(a) = unit_acc.first_mut() {
                    *a += q;
                }
            }
            self.levels += 1;
        }
        // Fold each level's piece into the one above it (error-free), so a
        // column whose sum fits one double — every weight-1 or -2 column of
        // a one-tuple run — hands out one non-zero piece, not one per level.
        for l in (1..self.levels).rev() {
            let (above, below) = buf.pieces[(l - 1) * cols..].split_at_mut(cols);
            for (a, b) in above.iter_mut().zip(&mut below[..cols]) {
                (*a, *b) = two_sum(*a, *b);
            }
        }
    }

    /// One row per level: that level's exact piece of every column's sum
    /// (the weight columns, then the unit column, if any); zero pieces
    /// included. A column's sum is its pieces plus what
    /// [`leftover`](Self::leftover) owes it.
    pub fn levels(&self) -> impl Iterator<Item = &[f64]> + '_ {
        // No column, no piece: `max(1)` only keeps `chunks_exact` legal.
        self.buf.pieces.chunks_exact(self.cols().max(1))
    }

    /// `(row, value)` pairs no level consumed, in row order: the caller
    /// owes every column `c` an `add_product(value, rows[row][c])`.
    pub fn leftover(&self) -> &[(usize, f64)] {
        &self.buf.leftover
    }
}

/// Exact weighted first and second moments, for VAR_POP / STDDEV.
///
/// Keeps `Σw`, `Σw·x` and `Σw·x²` as exact sums, so the derived variance is
/// a deterministic function of the observation multiset — the property the
/// conformance harness's bit-match oracle needs, and what lets the agg
/// proptests demand weighted-vs-repeated agreement at 1e-9 instead of the
/// old Welford state's 1e-4.
///
/// `variance_pop` uses the textbook `E[x²] − E[x]²` form on the *exact*
/// moments: its only rounding happens in the final few flops, identically
/// on every update order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactVariance {
    /// Total weight Σw (plain f64: engine weights are small integers, so
    /// this is exact and order-independent on its own).
    pub count: f64,
    sum: ExactSum,
    sumsq: ExactSum,
}

impl ExactVariance {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation with weight `w` (non-positive weights are no-ops).
    #[inline]
    pub fn add_weighted(&mut self, x: f64, w: f64) {
        if w <= 0.0 {
            return;
        }
        self.count += w;
        let (p, e) = two_product(x, x);
        if w == 1.0 {
            self.sum.add(x);
            self.sumsq.add(e);
            self.sumsq.add(p);
        } else {
            self.sum.add_product(x, w);
            self.sumsq.add_product(e, w);
            self.sumsq.add_product(p, w);
        }
    }

    /// Add an unweighted observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1.0);
    }

    /// Merge another accumulator (exact, order-insensitive).
    pub fn merge(&mut self, other: &ExactVariance) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.sumsq.merge(&other.sumsq);
    }

    /// Weighted mean; `None` with no observations.
    pub fn mean(&self) -> Option<f64> {
        if self.count <= 0.0 {
            return None;
        }
        Some(self.sum.value() / self.count)
    }

    /// Population variance; see [`variance_pop`].
    pub fn variance_pop(&self) -> Option<f64> {
        variance_pop(self.count, || (self.sum.value(), self.sumsq.value()))
    }
}

/// Population variance from the total weight and the exact `Σw·x` and
/// `Σw·x²` (`sums`, read only when there is weight); `None` with no
/// observations. Clamped at zero (the subtraction can go negative by
/// rounding when variance ≈ 0), except that NaN passes, as the canonical
/// [`f64::NAN`]: a group holding NaN or ±∞, or whose moments overflow, has
/// no variance, not a zero one.
#[inline]
pub fn variance_pop(count: f64, sums: impl FnOnce() -> (f64, f64)) -> Option<f64> {
    if count <= 0.0 {
        return None;
    }
    let (sum, sumsq) = sums();
    let mean = sum / count;
    let ex2 = sumsq / count;
    let var = ex2 - mean * mean;
    Some(if var.is_nan() { f64::NAN } else { var.max(0.0) })
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are small bounded draws"
)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn two_sum_is_error_free() {
        let (s, e) = two_sum(1.0, 1e-20);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-20);
        let (s, e) = two_sum(0.1, 0.2);
        // s + e reconstructs more of the true sum than s alone.
        assert_eq!(s, 0.1 + 0.2);
        assert!(e != 0.0);
    }

    #[test]
    fn two_product_is_error_free() {
        let (p, e) = two_product(1.0 + f64::EPSILON, 1.0 + f64::EPSILON);
        assert_eq!(p, (1.0 + f64::EPSILON) * (1.0 + f64::EPSILON));
        assert!(e != 0.0, "square of 1+ε is not exactly representable");
    }

    #[test]
    fn non_finite_products_fold_like_plain_adds() {
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            for w in [1.0, 2.0, 7.0] {
                let (mut by_product, mut by_add) = (ExactSum::new(), ExactSum::new());
                by_product.add(3.5);
                by_add.add(3.5);
                by_product.add_product(x, w);
                by_add.add(x);
                assert_eq!(by_product.value().to_bits(), by_add.value().to_bits());
                assert_eq!(by_product.value(), x);
            }
        }
        // A finite product that overflows saturates the same way.
        let mut s = ExactSum::new();
        s.add_product(1e308, 4.0);
        assert_eq!(s.value(), f64::INFINITY);
    }

    #[test]
    fn variance_of_non_finite_groups_is_nan() {
        for xs in [[1.0, f64::NAN], [1.0, f64::INFINITY], [1e308, 1e308]] {
            let mut v = ExactVariance::new();
            xs.iter().for_each(|&x| v.add(x));
            assert!(v.variance_pop().is_some_and(f64::is_nan), "{xs:?}");
        }
        let mut v = ExactVariance::new();
        [2.0, 2.0].iter().for_each(|&x| v.add(x));
        assert_eq!(v.variance_pop(), Some(0.0));
    }

    #[test]
    fn sums_cancelling_magnitudes_exactly() {
        let mut s = ExactSum::new();
        s.add(1e16);
        s.add(1.0);
        s.add(-1e16);
        assert_eq!(s.value(), 1.0);
    }

    #[test]
    fn value_is_permutation_invariant() {
        let mut rng = SplitMix64::new(42);
        let xs: Vec<f64> = (0..300)
            .map(|_| (rng.next_f64() - 0.5) * 10f64.powi((rng.next_below(30) as i32) - 15))
            .collect();
        let mut fwd = ExactSum::new();
        for &x in &xs {
            fwd.add(x);
        }
        let mut rev = ExactSum::new();
        for &x in xs.iter().rev() {
            rev.add(x);
        }
        // Interleaved shard merge.
        let (mut a, mut b) = (ExactSum::new(), ExactSum::new());
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        b.merge(&a);
        assert_eq!(fwd.value().to_bits(), rev.value().to_bits());
        assert_eq!(fwd.value().to_bits(), b.value().to_bits());
    }

    /// Found by random search over few-bit inputs: with the old COMPRESS
    /// finish the forward order parked a remainder that was an exact
    /// half-ulp tie and double-rounded, one ulp above the reversed and the
    /// shard-merged orders.
    #[test]
    fn value_breaks_half_ulp_ties_by_the_lower_components() {
        let xs = [
            2748779069440.0,
            -81920.0,
            -0.625,
            3940649673949184.0,
            2.0816681711721685e-17,
            -0.125,
        ];
        let sum_of = |order: &mut dyn Iterator<Item = &f64>| {
            let mut s = ExactSum::new();
            order.for_each(|&x| s.add(x));
            s
        };
        let fwd = sum_of(&mut xs.iter());
        let rev = sum_of(&mut xs.iter().rev());
        let mut merged = sum_of(&mut xs[..3].iter());
        merged.merge(&sum_of(&mut xs[3..].iter()));
        // The exact total is 3943398452936703.25 + 2^-55.5…: just above the
        // tie between …703 and …703.5, so it rounds up to …703.5.
        let expect = 3.9433984529367035e15f64;
        assert_eq!(fwd.value().to_bits(), expect.to_bits());
        assert_eq!(rev.value().to_bits(), expect.to_bits());
        assert_eq!(merged.value().to_bits(), expect.to_bits());
        // A tie with nothing below it still goes to even.
        let mut tie = ExactSum::new();
        tie.add(2f64.powi(53));
        tie.add(1.0);
        assert_eq!(tie.value(), 2f64.powi(53));
        tie.add(2f64.powi(-60));
        assert_eq!(tie.value(), 2f64.powi(53) + 2.0);
    }

    /// Reference for [`WeightedRun`]: one `add_product` per cell.
    fn cellwise(xs: &[f64], rows: &[&[u8]], c: Option<usize>) -> ExactSum {
        let mut s = ExactSum::new();
        for (&x, row) in xs.iter().zip(rows) {
            s.add_product(x, c.map_or(1.0, |c| f64::from(row[c])));
        }
        s
    }

    /// Column `c`'s sum from a run, the way a caller assembles it.
    fn from_run(run: &WeightedRun<'_>, rows: &[&[u8]], c: Option<usize>) -> ExactSum {
        let mut s = ExactSum::new();
        let width = rows.first().map_or(0, |r| r.len());
        run.levels().for_each(|l| s.add(l[c.unwrap_or(width)]));
        for &(t, x) in run.leftover() {
            s.add_product(x, c.map_or(1.0, |c| f64::from(rows[t][c])));
        }
        s
    }

    #[test]
    fn weighted_run_equals_cellwise_products() {
        let mut rng = SplitMix64::new(3);
        let mut buf = RunBuf::default();
        for (n, spread) in [(1usize, 0i32), (2, 3), (8, 40), (300, 12), (1024, 150)] {
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    let e = rng.next_below(spread as u64 + 1) as i32 - spread / 2;
                    (rng.next_f64() - 0.5) * 2f64.powi(e)
                })
                .collect();
            let flat: Vec<u8> = (0..n * 7).map(|_| rng.next_below(5) as u8).collect();
            let rows: Vec<&[u8]> = flat.chunks(7).collect();
            let mut run = WeightedRun::new(&rows, 7, true, &mut buf);
            let totals: Vec<u64> = (0..7)
                .map(|c| rows.iter().map(|r| u64::from(r[c])).sum())
                .collect();
            assert_eq!(run.totals(), totals);
            run.sum(&xs);
            assert!(run.leftover().is_empty(), "n={n}: {:?}", run.leftover());
            for c in (0..7).map(Some).chain([None]) {
                let (a, b) = (from_run(&run, &rows, c), cellwise(&xs, &rows, c));
                assert_eq!(a.value().to_bits(), b.value().to_bits(), "n={n} c={c:?}");
            }
        }
    }

    #[test]
    fn weighted_run_hands_back_what_it_cannot_bin() {
        let mut buf = RunBuf::default();
        let w = |ws: &'static [u8]| ws;
        // Non-finite values and a value too close to f64::MAX for σ.
        let xs = [1.5, f64::INFINITY, -0.0, f64::NAN, 3.25];
        let rows = [w(&[1, 0]), w(&[2, 1]), w(&[3, 3]), w(&[0, 1]), w(&[1, 2])];
        let mut run = WeightedRun::new(&rows, 2, false, &mut buf);
        run.sum(&xs);
        let back: Vec<usize> = run.leftover().iter().map(|&(t, _)| t).collect();
        assert_eq!(back, [1, 3]);
        assert_eq!(run.levels().map(|l| l[0]).sum::<f64>(), 1.5 + 3.25);
        assert_eq!(run.levels().map(|l| l[1]).sum::<f64>(), 6.5);
        run.sum(&[f64::MAX, 1.0, 0.0, 0.0, -f64::MAX]);
        assert_eq!(run.leftover().len(), 3, "σ would overflow: all handed back");
        assert_eq!(run.levels().count(), 0);
        // Wider than MAX_LEVELS can consume: the tails come back, and the
        // assembled sums still match.
        let wide: Vec<f64> = (0..40).map(|i| 2f64.powi(-25 * i) * 1.000000123).collect();
        let ones: Vec<&[u8]> = (0..40).map(|_| w(&[1, 3])).collect();
        let mut run = WeightedRun::new(&ones, 2, true, &mut buf);
        run.sum(&wide);
        assert!(!run.leftover().is_empty());
        for c in [Some(0), Some(1), None] {
            let (a, b) = (from_run(&run, &ones, c), cellwise(&wide, &ones, c));
            assert_eq!(a.value().to_bits(), b.value().to_bits(), "c={c:?}");
        }
        // The widest weights: every level still bins the run exactly.
        let top = [w(&[u8::MAX]); 600];
        let xs: Vec<f64> = (0..600).map(|i| f64::from(i) * 0.3 - 77.0).collect();
        let mut run = WeightedRun::new(&top, 1, true, &mut buf);
        run.sum(&xs);
        assert!(run.leftover().is_empty());
        for c in [Some(0), None] {
            let (a, b) = (from_run(&run, &top, c), cellwise(&xs, &top, c));
            assert_eq!(a.value().to_bits(), b.value().to_bits(), "c={c:?}");
        }
    }

    /// Every `DenseSums` cell is in the very state (components and sticky
    /// scalar) its `ExactSum` would be in, after any mix of `add`,
    /// `add_product`, `add_slice` and `merge` over values that round, cancel,
    /// overflow and are not finite.
    #[test]
    fn dense_sums_keep_their_exact_sums_state() {
        let mut rng = SplitMix64::new(11);
        let pick = |rng: &mut SplitMix64| -> f64 {
            let xs = [
                1.0,
                -3.0,
                0.5,
                2f64.powi(53),
                1e308,
                -1e308,
                5e-324,
                0.1,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                0.0,
            ];
            let x = xs[rng.next_below(xs.len() as u64) as usize];
            // Mostly small integers, which stay dense.
            if rng.next_below(3) == 0 {
                x
            } else {
                rng.next_below(1000) as f64 - 500.0
            }
        };
        // The state as bits: a NaN is not equal to itself.
        let bits = |s: &ExactSum| {
            let comps: Vec<u64> = s.comps.iter().map(|c| c.to_bits()).collect();
            (comps, s.special.to_bits())
        };
        let state = |d: &DenseSums, i: usize| match spill_index(d.dense[i]) {
            Some(k) => bits(&d.spilled[k]),
            None => {
                let mut s = ExactSum::new();
                s.add(d.dense[i]);
                bits(&s)
            }
        };
        for round in 0..200 {
            let n = 1 + rng.next_below(6) as usize;
            let (mut dense, mut other) = (DenseSums::new(n), DenseSums::new(n));
            let (mut exact, mut other_exact) = (vec![ExactSum::new(); n], vec![ExactSum::new(); n]);
            for _ in 0..40 {
                let i = rng.next_below(n as u64) as usize;
                let (x, w) = (pick(&mut rng), rng.next_below(4) as f64);
                match rng.next_below(5) {
                    0 => {
                        dense.add(i, x);
                        exact[i].add(x);
                    }
                    1 => {
                        dense.add_product(i, x, w);
                        exact[i].add_product(x, w);
                    }
                    2 => {
                        let xs: Vec<f64> = (i..n).map(|_| pick(&mut rng)).collect();
                        dense.add_slice(i, &xs);
                        (i..).zip(&xs).for_each(|(c, &x)| exact[c].add(x));
                    }
                    3 => {
                        other.add(i, x);
                        other_exact[i].add(x);
                    }
                    _ => {
                        let j = rng.next_below(n as u64) as usize;
                        dense.merge(i, &other, j);
                        let o = other_exact[j].clone();
                        exact[i].merge(&o);
                    }
                }
                for (c, e) in exact.iter().enumerate() {
                    assert_eq!(state(&dense, c), bits(e), "round {round} cell {c}");
                    assert_eq!(dense.value(c).to_bits(), e.value().to_bits());
                }
            }
        }
    }

    /// `add_cells` sums to the bits of one `add_product` per cell: signed
    /// weights, values over ~600 binades, exact cancellations, repeated
    /// and idle sums, and a few non-finite values.
    #[test]
    fn add_cells_equals_one_add_product_per_cell() {
        let mut rng = SplitMix64::new(5);
        let mut buf = CellBuf::default();
        for round in 0..300 {
            let (n, tuples) = (
                1 + rng.next_below(8) as usize,
                1 + rng.next_below(40) as usize,
            );
            let xs: Vec<f64> = (0..tuples)
                .map(|_| match rng.next_below(40) {
                    0 => f64::INFINITY,
                    1 => f64::NAN,
                    2 => 0.1,
                    3 => -0.0,
                    _ => {
                        let scale = 2f64.powi(rng.next_below(600) as i32 - 300);
                        (rng.next_f64() - 0.5) * scale
                    }
                })
                .collect();
            let cells: Vec<(u32, u32, i16)> = (0..rng.next_below(120))
                .map(|_| {
                    let w = rng.next_below(511) as i16 - 255;
                    (
                        rng.next_below(tuples as u64) as u32,
                        rng.next_below(n as u64) as u32,
                        w,
                    )
                })
                .collect();
            let (mut kernel, mut reference) = (DenseSums::new(n), DenseSums::new(n));
            for i in 0..n {
                let start = (rng.next_f64() - 0.5) * 1e6;
                kernel.add(i, start);
                reference.add(i, start);
            }
            kernel.add_cells(&xs, &cells, &mut buf);
            for &(t, i, w) in &cells {
                reference.add_product(i as usize, xs[t as usize], f64::from(w));
            }
            for i in 0..n {
                let (got, want) = (kernel.value(i), reference.value(i));
                assert_eq!(got.to_bits(), want.to_bits(), "round {round} sum {i}");
            }
        }
    }

    #[test]
    fn product_updates_are_exact() {
        // 0.1 * 3 accumulated once must equal 0.1 added three times.
        let mut w = ExactSum::new();
        w.add_product(0.1, 3.0);
        let mut r = ExactSum::new();
        r.add(0.1);
        r.add(0.1);
        r.add(0.1);
        assert_eq!(w.value().to_bits(), r.value().to_bits());
    }

    #[test]
    fn empty_and_zero_sums() {
        let mut s = ExactSum::new();
        assert!(s.is_zero());
        assert_eq!(s.value(), 0.0);
        s.add(0.0);
        assert!(s.is_zero());
        s.add(5.0);
        s.add(-5.0);
        assert_eq!(s.value(), 0.0);
    }

    #[test]
    fn non_finite_inputs_are_sticky() {
        let mut s = ExactSum::new();
        s.add(1.0);
        s.add(f64::INFINITY);
        s.add(2.0);
        assert_eq!(s.value(), f64::INFINITY);
        let mut n = ExactSum::new();
        n.add(f64::INFINITY);
        n.add(f64::NEG_INFINITY);
        assert!(n.value().is_nan());
    }

    #[test]
    fn long_random_sum_matches_integer_reference() {
        // Integer-valued doubles: the exact total fits i64, giving an
        // independent ground truth.
        let mut rng = SplitMix64::new(7);
        let xs: Vec<i64> = (0..1000)
            .map(|_| rng.next_below(1_000_000) as i64 - 500_000)
            .collect();
        let mut s = ExactSum::new();
        for &x in &xs {
            s.add(x as f64);
        }
        let truth: i64 = xs.iter().sum();
        assert_eq!(s.value(), truth as f64);
    }

    #[test]
    fn variance_matches_reference_and_order() {
        let mut rng = SplitMix64::new(9);
        let xs: Vec<f64> = (0..500).map(|_| rng.next_f64() * 100.0 - 30.0).collect();
        let mut fwd = ExactVariance::new();
        for &x in &xs {
            fwd.add(x);
        }
        let mut rev = ExactVariance::new();
        for &x in xs.iter().rev() {
            rev.add(x);
        }
        assert_eq!(
            fwd.variance_pop().unwrap().to_bits(),
            rev.variance_pop().unwrap().to_bits()
        );
        // Against the naive reference at loose tolerance.
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((fwd.variance_pop().unwrap() - var).abs() < 1e-9 * (1.0 + var));
    }

    #[test]
    fn weighted_variance_equals_repetition_bitwise() {
        let mut w = ExactVariance::new();
        w.add_weighted(0.3, 3.0);
        w.add_weighted(-7.7, 2.0);
        let mut r = ExactVariance::new();
        for _ in 0..3 {
            r.add(0.3);
        }
        for _ in 0..2 {
            r.add(-7.7);
        }
        assert_eq!(w.count, r.count);
        assert_eq!(
            w.variance_pop().unwrap().to_bits(),
            r.variance_pop().unwrap().to_bits()
        );
        assert_eq!(w.mean().unwrap().to_bits(), r.mean().unwrap().to_bits());
    }

    #[test]
    fn variance_merge_is_exact() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut whole = ExactVariance::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = ExactVariance::new();
        let mut b = ExactVariance::new();
        for (i, &x) in xs.iter().enumerate() {
            if i < 37 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        assert_eq!(
            whole.variance_pop().unwrap().to_bits(),
            a.variance_pop().unwrap().to_bits()
        );
    }

    #[test]
    fn variance_empty_is_none_and_clamped_at_zero() {
        assert_eq!(ExactVariance::new().variance_pop(), None);
        let mut s = ExactVariance::new();
        s.add(2.75);
        s.add(2.75);
        assert_eq!(s.variance_pop(), Some(0.0));
    }

    #[test]
    fn compress_handles_wide_dynamic_range() {
        let mut s = ExactSum::new();
        for i in -150..150 {
            s.add(2f64.powi(i));
        }
        // Σ 2^i for i in [-150, 149] = 2^150 - 2^-150; correctly rounded
        // this is 2^150 (the tail is far below half an ulp... of 2^150?
        // ulp(2^150)/2 = 2^97, and 2^-150 < 2^97). The top component must
        // round to the nearest double of the exact value.
        let expect = 2f64.powi(150) - 2f64.powi(-150); // fl() of the true sum
        assert_eq!(s.value(), expect);
    }
}
