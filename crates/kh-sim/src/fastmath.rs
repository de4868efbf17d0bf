//! Table-driven `ln` and `cos 2πu` with stated error bounds.
//!
//! They exist for callers that keep only an integer derived from the
//! libm value (a jittered phase duration, a histogram bucket): such a
//! caller computes the integer from these kernels, proves with the
//! bounds below that libm would have produced the same one, and calls
//! libm only when it cannot. Both kernels read one 6 KiB table set,
//! built from std on first use.

use std::sync::OnceLock;

/// Mantissa slices of the `ln` table (top 7 bits).
const LN_SLICES: usize = 128;
/// Angle slices of the cosine table.
const TRIG_SLICES: usize = 256;

struct Tables {
    /// `(ln c_i, 1/c_i)` at the slice centre `c_i = 1 + (i + ½)/128`.
    ln: [(f64, f64); LN_SLICES],
    /// `(cos θ_j, sin θ_j)` at `θ_j = 2πj/256`.
    trig: [(f64, f64); TRIG_SLICES],
}

#[inline]
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Tables {
            ln: [(0.0, 0.0); LN_SLICES],
            trig: [(0.0, 0.0); TRIG_SLICES],
        };
        for (i, e) in t.ln.iter_mut().enumerate() {
            let c = 1.0 + (i as f64 + 0.5) / LN_SLICES as f64;
            *e = (c.ln(), 1.0 / c);
        }
        for (j, e) in t.trig.iter_mut().enumerate() {
            let theta = 2.0 * std::f64::consts::PI * (j as f64 / TRIG_SLICES as f64);
            *e = (theta.cos(), theta.sin());
        }
        t
    })
}

/// Natural log of a positive, normal, finite `x`, within
/// `2e-15 + 5e-16·|ln x|` of the exact value.
///
/// `x = 2^e·m` with `m ∈ [1, 2)`; `ln x = e·ln2 + ln c_i + log1p(x′)`
/// with `c_i` the centre of `m`'s slice and `x′ = m·(1/c_i) − 1`,
/// |x′| ≤ 2⁻⁸. Error budget:
///
/// - **tables:** `ln c_i` and `1/c_i` within 1 ulp of std (tested):
///   ≤ 1.1e-16 each, and the `m·(1/c_i)` product ≤ 1.1e-16 (the
///   `− 1` is exact);
/// - **polynomial:** degree-5 `log1p`, remainder `x′⁶/6` ≤ 5.9e-16,
///   evaluation ≤ 1e-17;
/// - **`e·ln2`:** `LN_2`'s own rounding, 3.3e-17 relative, and the
///   product's, 1.1e-16 relative;
/// - **the two sums:** ≤ 1.1e-16 relative each.
#[inline]
pub fn ln(x: f64) -> f64 {
    debug_assert!(x.is_normal() && x > 0.0, "ln({x})");
    let bits = x.to_bits();
    let e = (bits >> 52) as i64 - 1023;
    let m = f64::from_bits((bits & ((1 << 52) - 1)) | (1023 << 52));
    let (ln_c, inv_c) = tables().ln[(bits >> 45) as usize & (LN_SLICES - 1)];
    let x = m * inv_c - 1.0;
    // Estrin's split: a shorter dependency chain than Horner's.
    let x2 = x * x;
    let log1p = (x - 0.5 * x2) + x2 * x * ((1.0 / 3.0 - 0.25 * x) + 0.2 * x2);
    (e as f64 * std::f64::consts::LN_2 + ln_c) + log1p
}

/// `cos 2πu` for `u ∈ [0, 1)`, within 5.5e-15 of the exact value.
///
/// `cos 2πu = cos θ_j·cos d − sin θ_j·sin d` at the nearest table angle
/// `θ_j = 2πj/256`, |d| ≤ π/256. Error budget: `cos θ_j` and `sin θ_j`
/// within 1 ulp of std (tested), ≤ 2.2e-16 together; polynomial
/// remainders `d⁶/720` ≤ 4.8e-15 (degree-4 cosine) and `d⁷/5040` ≤
/// 1e-17 (degree-5 sine); `d`'s rounding and the final combination
/// ≤ 4e-16.
#[inline]
pub fn cos_2pi(u: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&u), "cos_2pi({u})");
    let s = u * TRIG_SLICES as f64;
    let j = (s + 0.5) as i32;
    let d = (s - f64::from(j)) * (2.0 * std::f64::consts::PI / TRIG_SLICES as f64);
    let d2 = d * d;
    let cos_d = 1.0 + d2 * (-0.5 + d2 * (1.0 / 24.0));
    let sin_d = d * (1.0 + d2 * (-1.0 / 6.0 + d2 * (1.0 / 120.0)));
    let (cos_j, sin_j) = tables().trig[j as usize & (TRIG_SLICES - 1)];
    cos_j * cos_d - sin_j * sin_d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// Distance in units in the last place between two f64s of the
    /// same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    #[test]
    fn tables_match_std_within_one_ulp() {
        let t = tables();
        for (i, &(ln_c, inv_c)) in t.ln.iter().enumerate() {
            let c = 1.0 + (2 * i + 1) as f64 / 256.0;
            assert!(ulps(ln_c, c.ln()) <= 1, "ln c_{i}");
            assert!(ulps(inv_c, 1.0 / c) <= 1, "1/c_{i}");
        }
        for (j, &(cos, sin)) in t.trig.iter().enumerate() {
            let theta = std::f64::consts::PI * j as f64 / 128.0;
            // The axes compare by value: ±0 and the signs of tiny
            // residues there are not an ulp apart.
            assert!(
                cos == theta.cos() || ulps(cos, theta.cos()) <= 1,
                "cos θ_{j}"
            );
            assert!(
                sin == theta.sin() || ulps(sin, theta.sin()) <= 1,
                "sin θ_{j}"
            );
        }
    }

    /// The stated bounds hold against std (itself within 1 ulp of
    /// exact, hence the extra 2.2e-16 relative slack) over every binade
    /// the callers use and both ends of each kernel's range.
    #[test]
    fn kernels_stay_within_their_stated_bounds() {
        let mut r = SimRng::new(0xFA57);
        let mut xs: Vec<f64> = (0..200_000)
            .map(|_| {
                let e = r.range(0, 2 * 1022) as i32 - 1021;
                (1.0 + r.next_f64()) * 2f64.powi(e)
            })
            .collect();
        xs.extend([
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0,
            1.0f64.next_up(),
            1.0f64.next_down(),
        ]);
        xs.extend((1..2000).map(|k| 1.0 - k as f64 * 1e-9));
        for x in xs {
            let bound = 2e-15 + 7.2e-16 * x.ln().abs();
            assert!((ln(x) - x.ln()).abs() <= bound, "ln({x:e})");
        }
        let mut us: Vec<f64> = (0..200_000).map(|_| r.next_f64()).collect();
        for k in 0..=256 {
            let edge = k as f64 / 256.0;
            us.extend([edge.next_down(), edge, edge.next_up(), edge + 0.5 / 256.0]);
        }
        us.retain(|u| (0.0..1.0).contains(u));
        for u in us {
            let want = (2.0 * std::f64::consts::PI * u).cos();
            // libm's argument fl(2π·u) is itself off by ≤ 7e-16.
            assert!(
                (cos_2pi(u) - want).abs() <= 5.5e-15 + 7e-16 + 2.2e-16,
                "cos_2pi({u:e})"
            );
        }
    }
}
