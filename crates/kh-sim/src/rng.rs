//! Deterministic random number generation.
//!
//! The simulation must be bit-reproducible across runs and crate-version
//! bumps, so the generators are implemented here rather than pulled from
//! an external crate: [`SplitMix64`] for seeding/stream-splitting and
//! xoshiro256** (in [`SimRng`]) as the workhorse generator.

use crate::fastmath;

/// SplitMix64: tiny, fast, passes BigCrush; used to expand a single `u64`
/// seed into independent streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the simulation's general-purpose RNG.
///
/// One `SimRng` exists per independent noise source (per core, per
/// background-task model, per workload) so that adding a new consumer does
/// not perturb the streams other consumers observe.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a seed. The seed is expanded through
    /// SplitMix64, per the xoshiro authors' recommendation, so `seed = 0`
    /// is fine.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is invalid; SplitMix64 cannot produce four
        // zeros from any seed, but keep the guard for clarity.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Derive an independent child stream, e.g. one per simulated core.
    pub fn split(&mut self, label: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ label.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)` using Lemire's multiply-shift rejection.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening multiply; the bias for 64-bit bounds used here
        // (always far below 2^63) is negligible, but do one rejection
        // pass anyway for correctness at any bound.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard-normal sample (Box–Muller; deterministic, two uniforms per
    /// pair, second value discarded for simplicity).
    pub fn next_gaussian(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 <= f64::EPSILON {
                continue;
            }
            let u2 = self.next_f64();
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }

    /// A phase duration with Gaussian timing jitter:
    /// `(base_ns · max(1 + g·sigma, 0.5) · tax) as u64`, where `g` is the
    /// value [`next_gaussian`](Self::next_gaussian) would have returned.
    ///
    /// Bit-identical to that expression, and it consumes exactly the
    /// same draws (the `u1 <= ε` rejection loop, then `u1`, then `u2`).
    /// Only the integer leaves this function, and at the simulator's
    /// σ = 0.003 it is decided by `g` to within ~1e-6, so a fast
    /// Box–Muller accurate to ~1e-12 decides it too whenever it can
    /// prove the floor; otherwise the libm expression runs.
    ///
    /// **Fast path.** [`fastmath::ln`] and [`fastmath::cos_2pi`] (a
    /// 128-entry `ln` table over the mantissa's top 7 bits with a
    /// degree-5 `log1p`, a 256-entry cos/sin table with degree-4/5
    /// polynomials) give `L = −2 ln u1`, `r = √L`, `c = cos 2πu2` and
    /// `g′ = r·c`. Error budget against libm's `g`, for `L > 1e-6`:
    ///
    /// - **`L`:** the fast `ln` is within `2e-15 + 5e-16·|ln u1|`
    ///   (table rounding, polynomial remainder and each step's rounding;
    ///   see [`fastmath::ln`]) and libm's within 1 ulp, so
    ///   |δL| ≤ 5.1e-15 for `u1 ≥ ½` (`L ≤ 1.39`) and ≤ 5.8e-14 for any
    ///   `u1 > ε` (|ln u1| < 36.1);
    /// - **`r`:** |δr| ≤ |δL|/(2r) plus one rounding of `√` on each
    ///   side: ≤ 2.6e-12 at `r > 1e-3`, ≤ 2.7e-14 once `L > 1.39`;
    /// - **`c`:** the fast cosine is within 5.5e-15 (see
    ///   [`fastmath::cos_2pi`]); libm's is within 1 ulp of the cosine of
    ///   `fl(2π·u2)`, itself within 7e-16 of `2πu2`: |δc| ≤ 6.4e-15;
    /// - **`g`:** |δg| ≤ |δr| + r·|δc| + one rounding of `r·c` on each
    ///   side ≤ 2.7e-12, |r| ≤ 8.49.
    ///
    /// That is nearly six decades under the 1e-6 the certificate
    /// grants. With `v = base·(1 + g′·σ)·tax`, evaluated in the libm
    /// expression's order, the floor is returned only when `v ± B`, with
    /// `B = base·tax·(σ·1e-6 + 1e-14) + 1e-9`, truncate to the same
    /// integer and `v > B`: `base·tax·σ·1e-6` covers the draw error,
    /// `base·tax·1e-14` the three roundings of `v` on each side (≤ 7e-16
    /// relative, as `1 + g·σ < 1.5`), and the `1e-9` keeps `v = 0` on
    /// the libm path. Below `L = 1e-6` the `1/(2r)` amplification is not
    /// budgeted, so those draws take the libm path too.
    ///
    /// **Domain.** `0 ≤ σ` and `9σ < 0.5`, so the `max(0.5)` clamp
    /// cannot bind (|g| ≤ √(−2 ln ε) ≈ 8.49); `base < 2⁴⁰` and
    /// `0 < tax < 4`, so `v < 2⁴³` and its truncation cannot saturate.
    /// Outside it, for `L ≤ 1e-6` (`u1` within 5e-7 of 1), and whenever
    /// the floor is in doubt, the libm expression runs: about 2·B per
    /// draw, ~1e-5 at σ = 0.003 on a ~1.8 µs phase.
    #[inline]
    pub fn jittered(&mut self, base_ns: u64, sigma: f64, tax: f64) -> u64 {
        let (u1, u2) = self.gaussian_uniforms();
        jittered_fast(u1, u2, base_ns, sigma, tax)
            .unwrap_or_else(|| jittered_libm(u1, u2, base_ns, sigma, tax))
    }

    /// `(u1, u2)` exactly as [`next_gaussian`](Self::next_gaussian)
    /// draws them.
    #[inline]
    fn gaussian_uniforms(&mut self) -> (f64, f64) {
        let u1 = loop {
            let u1 = self.next_f64();
            if u1 > f64::EPSILON {
                break u1;
            }
        };
        (u1, self.next_f64())
    }

    /// Exponentially-distributed sample with the given mean.
    ///
    /// Used for Poisson arrival processes (e.g. Linux deferred-work
    /// dispatch in the noise model).
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// The jittered phase duration as libm computes it: the reference the
/// fast path must reproduce, and its fallback.
fn jittered_libm(u1: f64, u2: f64, base_ns: u64, sigma: f64, tax: f64) -> u64 {
    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (base_ns as f64 * (1.0 + g * sigma).max(0.5) * tax) as u64
}

/// The certified fast path of [`SimRng::jittered`]: `Some(floor)` when
/// the floor is proven equal to [`jittered_libm`]'s, `None` when the
/// inputs are outside the certified domain or the floor is in doubt.
#[inline]
fn jittered_fast(u1: f64, u2: f64, base_ns: u64, sigma: f64, tax: f64) -> Option<u64> {
    if !(sigma >= 0.0 && sigma * 9.0 < 0.5 && base_ns < 1 << 40 && tax > 0.0 && tax < 4.0) {
        return None;
    }
    let (g, l) = gaussian_fast(u1, u2);
    let v = base_ns as f64 * (1.0 + g * sigma) * tax;
    let b = base_ns as f64 * tax * (sigma * 1e-6 + 1e-14) + 1e-9;
    let floor = (v - b) as i64;
    (floor == (v + b) as i64 && v > b && l > 1e-6).then_some(floor as u64)
}

/// Table-driven Box–Muller: `(g, L)` with `L = −2 ln u1` and
/// `g = √L·cos 2πu2`, for `u1 ∈ (ε, 1)` and `u2 ∈ [0, 1)`.
#[inline]
fn gaussian_fast(u1: f64, u2: f64) -> (f64, f64) {
    let l = -2.0 * fastmath::ln(u1);
    (l.sqrt() * fastmath::cos_2pi(u2), l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c reference implementation.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent() {
        let mut root = SimRng::new(7);
        let mut c1 = root.split(0);
        let mut c2 = root.split(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SimRng::new(3);
        for bound in [1u64, 2, 3, 10, 1000, u32::MAX as u64] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn range_in_range() {
        let mut r = SimRng::new(4);
        for _ in 0..500 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut r = SimRng::new(6);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    /// The jitter expression the call sites used before `jittered`.
    fn call_site(g: f64, base: u64, sigma: f64, tax: f64) -> u64 {
        let jitter = 1.0 + g * sigma;
        (base as f64 * jitter.max(0.5) * tax) as u64
    }

    const SWEEP_BASES: [u64; 7] = [0, 1, 5, 1800, 97_000, (1 << 40) - 1, 1 << 40];
    const SWEEP_SIGMAS: [f64; 5] = [0.0, 0.003, 0.05, 0.0555, 0.06];
    /// 1.0 and the Theseus safety tax `1.0 + SAFETY_TAX`.
    const SWEEP_TAXES: [f64; 2] = [1.0, 1.01];

    #[test]
    fn jittered_is_the_gaussian_jitter_bit_for_bit() {
        // 70 configurations × 15k draws: 1.05e6 draws.
        let mut seed = 0xD1CE;
        for base in SWEEP_BASES {
            for sigma in SWEEP_SIGMAS {
                for tax in SWEEP_TAXES {
                    seed += 1;
                    let mut fast = SimRng::new(seed);
                    let mut gauss = fast.clone();
                    let mut raw = fast.clone();
                    let mut certified = 0u32;
                    for _ in 0..15_000 {
                        let want = call_site(gauss.next_gaussian(), base, sigma, tax);
                        assert_eq!(
                            fast.jittered(base, sigma, tax),
                            want,
                            "{base} {sigma} {tax}"
                        );
                        let (u1, u2) = raw.gaussian_uniforms();
                        assert_eq!(jittered_libm(u1, u2, base, sigma, tax), want);
                        if let Some(got) = jittered_fast(u1, u2, base, sigma, tax) {
                            assert_eq!(got, want, "u1={u1:e} u2={u2:e} {base} {sigma} {tax}");
                            certified += 1;
                        }
                    }
                    let next = gauss.next_u64();
                    assert_eq!(fast.next_u64(), next, "stream position moved");
                    assert_eq!(raw.next_u64(), next);
                    // The fast path must carry the sweep where it can:
                    // its doubt window 2B is ≤ 1.1% of draws here.
                    if (base == 1800 || base == 97_000) && sigma > 0.0 && sigma < 0.06 {
                        assert!(certified >= 14_700, "{certified} {base} {sigma} {tax}");
                    }
                }
            }
        }
    }

    #[test]
    fn jittered_fast_edge_inputs() {
        let configs = [(1800, 0.003, 1.0), (1800, 0.003, 1.01), (97_000, 0.05, 1.0)];
        // Tiny L (u1 within 1e-9 of 1): always the libm path.
        for u1 in [1.0 - 1e-9, 1.0 - 1e-12, 1.0 - f64::EPSILON / 2.0] {
            for u2 in [0.0, 0.3, 0.5] {
                for (base, sigma, tax) in configs {
                    assert_eq!(jittered_fast(u1, u2, base, sigma, tax), None, "u1={u1}");
                }
            }
        }
        // Quadrant and table edges: u2 at k/4 and at k/256 ± 1 ulp.
        let mut u2s = vec![0.0, 0.25, 0.5, 0.75, f64::from_bits(1)];
        for k in 1..256 {
            let edge = k as f64 / 256.0;
            u2s.extend([edge.next_down(), edge, edge.next_up()]);
        }
        u2s.push(1.0f64.next_down());
        let u1s = [
            2.0 * f64::EPSILON,
            1e-9,
            0.001,
            0.25,
            0.5,
            0.5f64.next_down(),
            0.9,
            0.999_999,
        ];
        let mut certified = 0;
        for &u1 in &u1s {
            for &u2 in &u2s {
                for (base, sigma, tax) in configs {
                    let want = jittered_libm(u1, u2, base, sigma, tax);
                    if let Some(got) = jittered_fast(u1, u2, base, sigma, tax) {
                        assert_eq!(got, want, "u1={u1:e} u2={u2:e} {base} {sigma} {tax}");
                        certified += 1;
                    }
                }
            }
        }
        // Fallbacks: u2 at the quarter points ±1 ulp (g ≈ 0 puts v on
        // the integer base·tax) and the 1% doubt window at σ = 0.05.
        assert!(certified > u1s.len() * u2s.len() * configs.len() * 97 / 100);
        // Forced fallback: solve cos 2πu2 = g/r for the g that puts
        // libm's v within 1e-9 of the integer n.
        let mut forced = 0;
        for (base, sigma, tax) in configs {
            for u1 in [0.01, 0.3, 0.7] {
                let r = (-2.0 * f64::ln(u1)).sqrt();
                for n in (base - 5)..(base + 5) {
                    let g = (n as f64 / (base as f64 * tax) - 1.0) / sigma;
                    if g.abs() >= r {
                        continue;
                    }
                    let u2 = (g / r).acos() / (2.0 * std::f64::consts::PI);
                    let g_libm = r * (2.0 * std::f64::consts::PI * u2).cos();
                    let v = base as f64 * (1.0 + g_libm * sigma) * tax;
                    assert!((v - n as f64).abs() < 1e-9, "v={v} n={n}");
                    assert_eq!(jittered_fast(u1, u2, base, sigma, tax), None, "v={v}");
                    forced += 1;
                }
            }
        }
        assert!(forced >= 20, "{forced}");
        // Outside the certified domain: always the libm path.
        for (base, sigma, tax) in [
            (1 << 40, 0.003, 1.0),
            (1800, 0.06, 1.0),
            (1800, -0.003, 1.0),
            (1800, 0.003, 4.0),
            (1800, 0.003, 0.0),
            (1800, f64::NAN, 1.0),
        ] {
            assert_eq!(jittered_fast(0.5, 0.1, base, sigma, tax), None);
        }
    }

    #[test]
    fn fast_gaussian_error_is_far_under_the_certificate() {
        let mut r = SimRng::new(0x6A55);
        let mut inputs: Vec<(f64, f64)> = (0..1_000_000).map(|_| r.gaussian_uniforms()).collect();
        // The ends of u1's range: just above ε, and as close to 1 as
        // the L > 1e-6 guard admits.
        for k in 1..200 {
            let u2 = k as f64 / 199.5;
            inputs.push((f64::EPSILON * (1.0 + k as f64 / 64.0), u2));
            inputs.push((1.0 - 4.9e-7 - k as f64 * 1e-9, u2));
        }
        let mut worst = 0.0f64;
        let mut checked = 0;
        for (u1, u2) in inputs {
            let (g_fast, l) = gaussian_fast(u1, u2);
            if l > 1e-6 {
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                worst = worst.max((g_fast - g).abs());
                checked += 1;
            }
        }
        assert!(checked >= 1_000_000, "{checked}");
        assert!(worst <= 1e-9, "max |g' - g| = {worst:e}");
    }

    #[test]
    fn exp_mean_is_plausible() {
        let mut r = SimRng::new(8);
        let n = 20_000;
        let mean = 4.0;
        let s: f64 = (0..n).map(|_| r.next_exp(mean)).sum::<f64>() / n as f64;
        assert!((s - mean).abs() < 0.2, "sample mean = {s}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }
}
