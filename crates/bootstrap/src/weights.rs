//! Bootstrap trial configuration and weight streams.

use std::sync::OnceLock;

use gola_common::rng::{mix, poisson_weight};

/// Per-call timing of the batched weight kernel (chunk granularity — the
/// per-tuple [`BootstrapSpec::weights_into`] entry is deliberately left
/// uninstrumented). Only touched when the obs registry is enabled.
fn weights_seconds() -> &'static gola_obs::Histogram {
    static H: OnceLock<gola_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| gola_obs::duration_histogram("bootstrap.weights_seconds"))
}

/// Replica-weight cells (`tuples × trials`) produced by the batched kernel.
fn weight_cells() -> &'static gola_obs::Counter {
    static C: OnceLock<gola_obs::Counter> = OnceLock::new();
    C.get_or_init(|| gola_obs::counter("bootstrap.weight_cells"))
}

/// `hash_combine`'s multiplier (the SplitMix64 increment), reproduced here
/// so the batched kernel can hoist the per-replica term out of the tuple
/// loop while staying bit-identical to [`poisson_weight`].
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Replicas per stack-resident block of the weight kernel (the default
/// 100 trials are one block).
const BLOCK: usize = 128;

/// Configuration of the poissonized bootstrap: how many replicas to
/// maintain and the seed of the weight streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapSpec {
    /// Number of bootstrap replicas `B`. Zero disables error estimation
    /// entirely (used by the overhead ablation).
    pub trials: u32,
    /// Seed of the hash-derived weight streams.
    pub seed: u64,
    /// Fault-injection offset added to every replica weight (see
    /// [`BootstrapSpec::with_weight_bias`], which holds it to
    /// [`MAX_WEIGHT_BIAS`]).
    weight_bias: u8,
}

/// The largest [`BootstrapSpec::with_weight_bias`]: a draw is at most 16
/// (the cap of [`poisson_weight`]), and every weight the kernel stores is a
/// `u8`, so `16 + bias` must fit one.
pub const MAX_WEIGHT_BIAS: u8 = u8::MAX - 16;

impl BootstrapSpec {
    pub fn new(trials: u32, seed: u64) -> Self {
        BootstrapSpec {
            trials,
            seed,
            weight_bias: 0,
        }
    }

    /// Fault-injection constructor: add `bias` to every replica weight.
    /// Always `0` in production; the conformance harness sets `1` to plant
    /// a canonical "off-by-one bootstrap weight" estimator bug and prove
    /// its calibration oracle catches the resulting overconfident CIs.
    ///
    /// # Panics
    ///
    /// If `bias` exceeds [`MAX_WEIGHT_BIAS`]: a stored weight would wrap.
    pub fn with_weight_bias(mut self, bias: u8) -> Self {
        assert!(
            bias <= MAX_WEIGHT_BIAS,
            "weight bias {bias} exceeds {MAX_WEIGHT_BIAS}: a biased weight must fit a u8"
        );
        self.weight_bias = bias;
        self
    }

    /// The `Poisson(1)` weight of `tuple_id` in replica `trial`.
    /// Deterministic: the same `(tuple_id, trial)` always yields the same
    /// weight under a given seed.
    #[inline]
    pub fn weight(&self, tuple_id: u64, trial: u32) -> u32 {
        poisson_weight(tuple_id, trial, self.seed) + u32::from(self.weight_bias)
    }

    /// All replica weights of one tuple, reusing `buf`.
    pub fn weights_into(&self, tuple_id: u64, buf: &mut Vec<u8>) {
        buf.clear();
        buf.resize(self.trials as usize, 0);
        self.fill(&[tuple_id], buf);
    }

    /// Batched weight kernel: the full `tuples × trials` weight matrix as a
    /// flat row-major buffer, `out[i * trials + b]` = weight of
    /// `tuple_ids[i]` in replica `b`. Bit-identical to calling
    /// [`BootstrapSpec::weight`] per cell: every weight is at most
    /// `16 + MAX_WEIGHT_BIAS`, so a `u8` holds it.
    pub fn weights_batch(&self, tuple_ids: &[u64], out: &mut Vec<u8>) {
        out.clear();
        out.resize(tuple_ids.len() * self.trials as usize, 0);
        self.weights_fill(tuple_ids, out);
    }

    /// [`BootstrapSpec::weights_batch`] into a caller-sized slice
    /// (`tuple_ids.len() × trials`), so pool workers can fill disjoint
    /// parts of one matrix.
    pub fn weights_fill(&self, tuple_ids: &[u64], out: &mut [u8]) {
        let sw = gola_obs::enabled().then(gola_common::timing::Stopwatch::start);
        self.fill(tuple_ids, out);
        if let Some(sw) = sw {
            weights_seconds().observe_duration(sw.elapsed());
            weight_cells().add(out.len() as u64);
        }
    }

    /// The one weight kernel, allocation-free: replicas go in blocks of
    /// [`BLOCK`] whose per-cell scratch lives on the stack.
    ///
    /// Restructured for throughput while staying bit-identical to
    /// [`poisson_weight`]: the per-replica and per-seed `hash_combine`
    /// terms are hoisted out of the tuple loop, and each (tuple, block)
    /// runs the Knuth product chain draw by draw across every lane of the
    /// block. A lane's weight is the number of draws after which its
    /// running product is still above `e⁻¹`, and the product never rises
    /// (each uniform is ≤ 1 and rounding is monotone), so once a lane's
    /// product has dropped to `e⁻¹` further draws cannot change its count.
    /// That lets every lane take every draw without a branch:
    ///
    /// * Pass 1 derives every replica's first two draw mantissas and counts
    ///   up to 2 in a straight sweep (vectorizable: four 64-bit mixes plus
    ///   two float multiplies per cell). The first draw's test is an exact
    ///   integer threshold; ~37% of cells end at 0 and ~37% at 1.
    /// * Draws 3 and 4 are two more branch-free sweeps ([`draw_sweep`]) over
    ///   every lane. A lane that already stopped computes a draw it does not
    ///   need and keeps its count; that is cheaper than the mispredicted
    ///   branch that the ~26% of cells still chaining, at random, would pay.
    /// * Only the ~1.9% of cells still chaining after four draws take the
    ///   scalar tail, which resumes the reference loop with the same cap at
    ///   16.
    ///
    /// Every chaining lane performs the arithmetic of
    /// [`poisson_from_stream`], in the same order, so no weight bit moves.
    ///
    /// [`poisson_from_stream`]: gola_common::rng::poisson_from_stream
    fn fill(&self, tuple_ids: &[u64], out: &mut [u8]) {
        let trials = self.trials as usize;
        assert_eq!(out.len(), tuple_ids.len() * trials, "one row per tuple");
        let seed_m = self.seed.wrapping_mul(PHI);
        let limit = (-1.0f64).exp();
        // ⌊e⁻¹ · 2⁵³⌋, the exact integer form of the first-draw test: with
        // u₁ = m₁ · 2⁻⁵³ (an exact product), u₁ ≤ e⁻¹ ⟺ m₁ ≤ this.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "an exact power-of-two scaling of e⁻¹, so the truncating cast is the floor"
        )]
        let t0 = (limit * (1u64 << 53) as f64) as u64;
        let bias = self.weight_bias;
        for b0 in (0..trials).step_by(BLOCK) {
            let width = BLOCK.min(trials - b0);
            // hash_combine(a, b) = mix(a ^ b * PHI); both inner multiplies
            // are invariant across tuples, so precompute them.
            let mut xb = [0u64; BLOCK];
            for (b, x) in (b0 as u64..).zip(&mut xb[..width]) {
                *x = (b ^ 0xB0_07).wrapping_mul(PHI);
            }
            let mut states = [0u64; BLOCK];
            let mut ks = [0u8; BLOCK];
            let mut ps = [0f64; BLOCK];
            let (states, ks, ps) = (&mut states[..width], &mut ks[..width], &mut ps[..width]);
            for (i, &t) in tuple_ids.iter().enumerate() {
                // Pass 1: branch-free stream derivation and the first two
                // draws. `ps[b]` is the running product after two draws —
                // `u₁ · (m₂ · 2⁻⁵³)`, with `m₂ · 2⁻⁵³` an exact power-of-two
                // scaling, so every bit matches the reference loop in
                // `poisson_from_stream` — and `states[b]` the second Knuth
                // state, so draw 3 resumes it. `u₁ ≤ e⁻¹` forces
                // `p₂ ≤ e⁻¹`, so the two tests add up to the count.
                for (((&x, state), k), p) in xb[..width]
                    .iter()
                    .zip(&mut *states)
                    .zip(&mut *ks)
                    .zip(&mut *ps)
                {
                    let s1 = mix(mix(t ^ x) ^ seed_m).wrapping_add(PHI);
                    let s2 = s1.wrapping_add(PHI);
                    let m1 = (mix(s1) >> 11) + 1;
                    let m2 = (mix(s2) >> 11) + 1;
                    *p = (m1 as f64 * SCALE) * ((m2 as f64) * SCALE);
                    *state = s2;
                    *k = u8::from(m1 > t0) + u8::from(*p > limit);
                }
                // Draws 3 and 4.
                draw_sweep(limit, ks, ps, states);
                draw_sweep(limit, ks, ps, states);
                let row = &mut out[i * trials + b0..][..width];
                for (w, &k) in row.iter_mut().zip(&*ks) {
                    *w = k + bias;
                }
                // Scalar tail: the ~1.9% of lanes whose chain survived four
                // draws resume the reference loop at k = 4.
                for (b, &k) in ks.iter().enumerate() {
                    if k < 4 {
                        continue;
                    }
                    let (mut p, mut state, mut k) = (ps[b], states[b], k);
                    loop {
                        state = state.wrapping_add(PHI);
                        p *= (((mix(state) >> 11) + 1) as f64) * SCALE;
                        if p <= limit {
                            break;
                        }
                        k += 1;
                        // Poisson(1) mass above 16 is ~1e-14 — cap keeps the
                        // worst case tiny (same cap as `poisson_from_stream`).
                        if k >= 16 {
                            break;
                        }
                    }
                    row[b] = k + bias;
                }
            }
        }
    }
}

/// `2⁻⁵³`: turns a 53-bit draw mantissa into its uniform, exactly.
const SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// One Knuth draw across every lane of a block, without a branch: every
/// lane advances its state, multiplies its product by the next uniform and
/// counts the draw if the product is still above `limit` (`e⁻¹`). For a
/// chaining lane that is one iteration of the reference loop in
/// `poisson_from_stream`; a lane whose product already dropped to `limit`
/// stays there, so its count holds.
#[inline(always)]
fn draw_sweep(limit: f64, ks: &mut [u8], ps: &mut [f64], states: &mut [u64]) {
    for ((k, p), state) in ks.iter_mut().zip(ps.iter_mut()).zip(states.iter_mut()) {
        *state = state.wrapping_add(PHI);
        *p *= (((mix(*state) >> 11) + 1) as f64) * SCALE;
        *k += u8::from(*p > limit);
    }
}

impl Default for BootstrapSpec {
    /// 100 trials — the BlinkDB/FluoDB default.
    fn default() -> Self {
        BootstrapSpec {
            trials: 100,
            seed: 0x60_1A,
            weight_bias: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_replayable() {
        let spec = BootstrapSpec::new(50, 7);
        let mut a = Vec::new();
        let mut b = Vec::new();
        spec.weights_into(12345, &mut a);
        spec.weights_into(12345, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn different_tuples_get_different_streams() {
        let spec = BootstrapSpec::new(20, 7);
        let mut a = Vec::new();
        let mut b = Vec::new();
        spec.weights_into(1, &mut a);
        spec.weights_into(2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_trials_is_allowed() {
        let spec = BootstrapSpec::new(0, 7);
        let mut buf = vec![99];
        spec.weights_into(1, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn batch_matches_scalar_kernel() {
        let spec = BootstrapSpec::new(33, 0x60_1A);
        let ids: Vec<u64> = (0..257).map(|i| i * 7919 + 13).collect();
        let mut batch = Vec::new();
        spec.weights_batch(&ids, &mut batch);
        assert_eq!(batch.len(), ids.len() * 33);
        for (i, &t) in ids.iter().enumerate() {
            for b in 0..33u32 {
                let w = u32::from(batch[i * 33 + b as usize]);
                assert_eq!(w, spec.weight(t, b), "t={t} b={b}");
            }
        }
    }

    #[test]
    fn batch_with_zero_trials_is_empty() {
        let spec = BootstrapSpec::new(0, 7);
        let mut batch = vec![4u8];
        spec.weights_batch(&[1, 2, 3], &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn the_largest_bias_fits_every_weight() {
        let spec = BootstrapSpec::new(100, 7).with_weight_bias(MAX_WEIGHT_BIAS);
        let mut batch = Vec::new();
        spec.weights_batch(&[1, 2, 3], &mut batch);
        assert!(batch.iter().all(|&w| w >= MAX_WEIGHT_BIAS));
    }

    #[test]
    #[should_panic(expected = "must fit a u8")]
    fn a_bias_that_could_wrap_is_refused() {
        let _ = BootstrapSpec::new(1, 7).with_weight_bias(MAX_WEIGHT_BIAS + 1);
    }

    #[test]
    fn mean_weight_is_about_one_per_trial() {
        let spec = BootstrapSpec::default();
        let mut buf = Vec::new();
        let mut total = 0u64;
        for t in 0..2000u64 {
            spec.weights_into(t, &mut buf);
            total += buf.iter().map(|&w| w as u64).sum::<u64>();
        }
        let mean = total as f64 / (2000.0 * spec.trials as f64);
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }
}
