//! Deterministic randomness utilities.
//!
//! Two needs drive this module:
//!
//! 1. **Reproducible engines.** Every stochastic component (shuffling,
//!    generators) takes an explicit `u64` seed; [`SplitMix64`] is the small,
//!    fast PRNG underneath.
//! 2. **Incremental poissonized bootstrap.** Each bootstrap replica `b`
//!    weights tuple `t` by an i.i.d. `Poisson(1)` draw. The G-OLA executor
//!    must re-derive the *same* weight for a tuple whenever it touches it
//!    again (uncertain-set re-evaluation, failure-triggered recomputation)
//!    without storing O(tuples × replicas) weights. [`poisson_weight`]
//!    derives the draw purely from `hash(tuple_id, replica, seed)`.

/// SplitMix64: tiny, fast, passes BigCrush; ideal for seeding and for
/// hash-derived streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift bounded rand (Lemire); bias is negligible for the
        // table sizes used here and the method is branch-free.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The SplitMix64 finalizer — also used directly as a 64-bit mixer.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combine two 64-bit values into one well-mixed value.
#[inline]
pub fn hash_combine(a: u64, b: u64) -> u64 {
    mix(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Deterministic `Poisson(1)` draw for `(tuple_id, replica)` under `seed`.
///
/// Uses Knuth's product method: count multiplications of hash-derived
/// uniforms until the product drops below `e^-1`. Mean 1, so the expected
/// number of hashes per call is ~2.
#[inline]
pub fn poisson_weight(tuple_id: u64, replica: u32, seed: u64) -> u32 {
    let stream = hash_combine(hash_combine(tuple_id, replica as u64 ^ 0xB0_07), seed);
    poisson_from_stream(stream)
}

/// The Knuth loop shared by [`poisson_weight`] and the batched weight
/// kernel: a `Poisson(1)` draw from a fully mixed 64-bit stream id. Callers
/// that derive `stream` differently (e.g. with hoisted per-replica terms)
/// must produce bit-identical streams to `hash_combine(hash_combine(t, b ^
/// 0xB007), seed)` or weights will diverge.
///
/// The first draw's termination test is done in integer space: with
/// `u = m · 2⁻⁵³` for the integer mantissa `m = (h >> 11) + 1` (an exact
/// product — `m ≤ 2⁵³` and the scale is a power of two), `u ≤ e⁻¹` holds
/// iff `m ≤ ⌊e⁻¹ · 2⁵³⌋`. ~37% of draws return 0, and every call skips one
/// int→float conversion, multiply and float compare — with not a single
/// bit of output changed (the remaining iterations run the original float
/// product chain seeded with the exact same `p = 1.0 · u₁ = u₁`).
#[inline]
pub fn poisson_from_stream(stream: u64) -> u32 {
    // ⌊e⁻¹ · 2⁵³⌋: the f64 product is exact (power-of-two scaling of a
    // 53-bit significand), so the truncating cast is the true floor.
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    let limit = (-1.0f64).exp();
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "an exact power-of-two scaling of e⁻¹, so the truncating cast is the floor"
    )]
    let t0 = (limit * (1u64 << 53) as f64) as u64;
    let mut state = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let m1 = (mix(state) >> 11) + 1;
    if m1 <= t0 {
        return 0;
    }
    let mut p = m1 as f64 * SCALE;
    let mut k = 1u32;
    loop {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        p *= (((mix(state) >> 11) + 1) as f64) * SCALE;
        if p <= limit {
            return k;
        }
        k += 1;
        // Poisson(1) mass above 16 is ~1e-14 — cap to keep worst case tiny.
        if k >= 16 {
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_f64_in_range() {
        let mut g = SplitMix64::new(1);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut g = SplitMix64::new(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = usize::try_from(g.next_below(10)).unwrap();
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn poisson_deterministic_per_key() {
        for t in 0..100u64 {
            for b in 0..8u32 {
                assert_eq!(poisson_weight(t, b, 42), poisson_weight(t, b, 42));
            }
        }
        // Different seed gives a different stream somewhere.
        let differs = (0..100u64).any(|t| poisson_weight(t, 0, 1) != poisson_weight(t, 0, 2));
        assert!(differs);
    }

    #[test]
    fn poisson_mean_and_variance_are_about_one() {
        let n = 200_000u64;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for t in 0..n {
            let w = poisson_weight(t, 3, 9) as f64;
            sum += w;
            sumsq += w * w;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_replicas_are_independent_ish() {
        // Correlation between replica 0 and 1 weights should be ~0.
        let n = 100_000u64;
        let (mut sx, mut sy, mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for t in 0..n {
            let x = poisson_weight(t, 0, 5) as f64;
            let y = poisson_weight(t, 1, 5) as f64;
            sx += x;
            sy += y;
            sxy += x * y;
            sxx += x * x;
            syy += y * y;
        }
        let nf = n as f64;
        let cov = sxy / nf - (sx / nf) * (sy / nf);
        let corr =
            cov / ((sxx / nf - (sx / nf).powi(2)).sqrt() * (syy / nf - (sy / nf).powi(2)).sqrt());
        assert!(corr.abs() < 0.02, "corr {corr}");
    }
}
