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
    /// Fault-injection offset added to every replica weight. Always `0` in
    /// production; the conformance harness sets `1` to plant a canonical
    /// "off-by-one bootstrap weight" estimator bug and prove its
    /// calibration oracle catches the resulting overconfident CIs.
    pub weight_bias: u32,
}

impl BootstrapSpec {
    pub fn new(trials: u32, seed: u64) -> Self {
        BootstrapSpec {
            trials,
            seed,
            weight_bias: 0,
        }
    }

    /// Fault-injection constructor: see [`BootstrapSpec::weight_bias`].
    pub fn with_weight_bias(mut self, bias: u32) -> Self {
        self.weight_bias = bias;
        self
    }

    /// The `Poisson(1)` weight of `tuple_id` in replica `trial`.
    /// Deterministic: the same `(tuple_id, trial)` always yields the same
    /// weight under a given seed.
    #[inline]
    pub fn weight(&self, tuple_id: u64, trial: u32) -> u32 {
        poisson_weight(tuple_id, trial, self.seed) + self.weight_bias
    }

    /// All replica weights of one tuple, reusing `buf`.
    pub fn weights_into(&self, tuple_id: u64, buf: &mut Vec<u32>) {
        buf.clear();
        buf.resize(self.trials as usize, 0);
        self.fill(&[tuple_id], buf);
    }

    /// Batched weight kernel: the full `tuples × trials` weight matrix as a
    /// flat row-major buffer, `out[i * trials + b]` = weight of
    /// `tuple_ids[i]` in replica `b`. Bit-identical to calling
    /// [`BootstrapSpec::weight`] per cell.
    pub fn weights_batch(&self, tuple_ids: &[u64], out: &mut Vec<u32>) {
        out.clear();
        out.resize(tuple_ids.len() * self.trials as usize, 0);
        self.weights_fill(tuple_ids, out);
    }

    /// [`BootstrapSpec::weights_batch`] into a caller-sized slice
    /// (`tuple_ids.len() × trials`), so pool workers can fill disjoint
    /// parts of one matrix.
    pub fn weights_fill(&self, tuple_ids: &[u64], out: &mut [u32]) {
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
    /// runs in two passes. Pass 1 derives every replica's first two draw
    /// mantissas and resolves the draw count up to `k = 1` in a straight
    /// branch-free sweep (vectorizable: four 64-bit mixes plus two float
    /// multiplies per cell, no data-dependent control flow) — ~37% of
    /// draws terminate at `k = 0` by an exact integer threshold test and
    /// another ~37% at `k = 1`. Pass 2 emits the resolved weights; only the
    /// remaining ~26% run the Knuth float-product continuation — the same
    /// arithmetic [`poisson_from_stream`] performs, in the same order.
    ///
    /// [`poisson_from_stream`]: gola_common::rng::poisson_from_stream
    fn fill(&self, tuple_ids: &[u64], out: &mut [u32]) {
        let trials = self.trials as usize;
        assert_eq!(out.len(), tuple_ids.len() * trials, "one row per tuple");
        let seed_m = self.seed.wrapping_mul(PHI);
        // ⌊e⁻¹ · 2⁵³⌋, the exact integer form of the first-draw test: with
        // u₁ = m₁ · 2⁻⁵³ (an exact product), u₁ ≤ e⁻¹ ⟺ m₁ ≤ this.
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        let limit = (-1.0f64).exp();
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
            let mut w01s = [0u32; BLOCK];
            let mut p2s = [0f64; BLOCK];
            for (i, &t) in tuple_ids.iter().enumerate() {
                // Pass 1: branch-free stream derivation AND draw resolution
                // up to k = 1. `w01s[b]` is the draw count when ≤ 1, or 2
                // when the product chain must continue; `p2s[b]` is the
                // running product after two draws — `u₁ · (m₂ · 2⁻⁵³)`,
                // with `m₂ · 2⁻⁵³` an exact power-of-two scaling, so every
                // bit matches the reference loop in `poisson_from_stream` —
                // and `states[b]` the second Knuth state, so the rare
                // continuation can resume at draw 3.
                for (((&x, state), w01), p2) in xb[..width]
                    .iter()
                    .zip(&mut states)
                    .zip(&mut w01s)
                    .zip(&mut p2s)
                {
                    let s1 = mix(mix(t ^ x) ^ seed_m).wrapping_add(PHI);
                    let s2 = s1.wrapping_add(PHI);
                    let m1 = (mix(s1) >> 11) + 1;
                    let m2 = (mix(s2) >> 11) + 1;
                    *p2 = (m1 as f64 * SCALE) * ((m2 as f64) * SCALE);
                    let nonzero = (m1 > t0) as u32;
                    *state = s2;
                    *w01 = nonzero + (nonzero & (*p2 > limit) as u32);
                }
                // Pass 2: emit resolved draws; only chain cells (~26%)
                // branch.
                let row = &mut out[i * trials + b0..][..width];
                for (((w, &w01), &p2), &s2) in row.iter_mut().zip(&w01s).zip(&p2s).zip(&states) {
                    if w01 < 2 {
                        *w = w01 + bias;
                        continue;
                    }
                    let mut p = p2;
                    let mut state = s2;
                    let mut k = 2u32;
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
                    *w = k + bias;
                }
            }
        }
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
                assert_eq!(batch[i * 33 + b as usize], spec.weight(t, b), "t={t} b={b}");
            }
        }
    }

    #[test]
    fn batch_with_zero_trials_is_empty() {
        let spec = BootstrapSpec::new(0, 7);
        let mut batch = vec![4u32];
        spec.weights_batch(&[1, 2, 3], &mut batch);
        assert!(batch.is_empty());
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
