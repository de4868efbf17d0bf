//! Log-scale histograms and percentile estimation.
//!
//! Noise analysis needs tail statistics: the paper's scatter plots are
//! really statements about detour-duration distributions. The histogram
//! uses logarithmic bucketing (constant relative resolution over many
//! decades, like HDR histograms) so a 2 µs tick and a 250 µs kworker
//! burst are both resolved.

use kh_sim::fastmath;
use serde::{Deserialize, Serialize};

/// Fixed-point scale for the running sum: 2^20 fractional bits. Each
/// sample is rounded once to this grid on `record`, and from then on
/// the sum is integer arithmetic — exact, overflow-safe for simulation
/// magnitudes (u128 holds ~3e32 at this scale), and independent of
/// accumulation order, so `merge` reproduces the union's sum bit for
/// bit no matter how samples were sharded across histograms.
const SUM_SCALE: u128 = 1 << 20;

/// A log-bucketed histogram over positive values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Lowest representable value; everything below lands in bucket 0.
    min_value: f64,
    /// Buckets per decade.
    resolution: u32,
    counts: Vec<u64>,
    total: u64,
    /// Sum of all samples in `SUM_SCALE` fixed point.
    sum_fp: u128,
    /// Smallest recorded value (post-clamping); `INFINITY` when empty.
    min_seen: f64,
    /// Largest recorded value (post-clamping); `0.0` when empty.
    max_seen: f64,
}

impl LogHistogram {
    /// `min_value` is the smallest distinguishable value; `decades` sets
    /// the range (`min_value * 10^decades`); `resolution` buckets per
    /// decade.
    pub fn new(min_value: f64, decades: u32, resolution: u32) -> Self {
        assert!(min_value > 0.0 && decades > 0 && resolution > 0);
        LogHistogram {
            min_value,
            resolution,
            counts: vec![0; (decades * resolution + 1) as usize],
            total: 0,
            sum_fp: 0,
            min_seen: f64::INFINITY,
            max_seen: 0.0,
        }
    }

    /// Histogram for detour durations: 100 ns .. 1 s, 20 buckets/decade.
    pub fn for_detours() -> Self {
        LogHistogram::new(100.0, 7, 20)
    }

    /// Histogram for end-to-end request latencies: 1 µs .. 1000 s, 100
    /// buckets/decade (2.3% relative resolution — fine enough that a few
    /// tens of microseconds of OS noise on a sub-millisecond request
    /// moves the reported tail).
    pub fn for_latency() -> Self {
        LogHistogram::new(1_000.0, 9, 100)
    }

    fn bucket_of(&self, value: f64) -> usize {
        if value <= self.min_value {
            return 0;
        }
        let q = value / self.min_value;
        let res = self.resolution as f64;
        let b =
            floor_log10_scaled(q, res).unwrap_or_else(|| (q.log10() * res).floor() as usize) + 1;
        b.min(self.counts.len() - 1)
    }

    /// Lower edge of a bucket (only the tests need it now that the
    /// estimators all report upper edges).
    #[cfg(test)]
    fn bucket_floor(&self, bucket: usize) -> f64 {
        if bucket == 0 {
            return 0.0;
        }
        self.min_value * 10f64.powf((bucket - 1) as f64 / self.resolution as f64)
    }

    /// Upper edge of a bucket: bucket 0 holds `(0, min_value]`, bucket
    /// `b > 0` holds `(ceil(b-1), ceil(b)]`.
    fn bucket_ceil(&self, bucket: usize) -> f64 {
        self.min_value * 10f64.powf(bucket as f64 / self.resolution as f64)
    }

    /// Record one sample. Negative and non-finite values (a workload
    /// model bug, but one that must not corrupt published statistics)
    /// are clamped to zero instead of poisoning `sum`/`mean`.
    pub fn record(&mut self, value: f64) {
        let value = if value.is_finite() && value >= 0.0 {
            value
        } else {
            0.0
        };
        let b = self.bucket_of(value);
        self.counts[b] += 1;
        self.total += 1;
        self.sum_fp += (value * SUM_SCALE as f64).round() as u128;
        self.min_seen = self.min_seen.min(value);
        self.max_seen = self.max_seen.max(value);
    }

    /// Smallest recorded value, exactly as recorded (not bucket-quantized).
    /// `NaN` when empty.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.min_seen
        }
    }

    /// Largest recorded value, exactly as recorded (not bucket-quantized).
    /// `NaN` when empty.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.max_seen
        }
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            (self.sum_fp as f64 / SUM_SCALE as f64) / self.total as f64
        }
    }

    /// Percentile estimate (bucket upper edge), q in [0, 1]. The upper
    /// edge is a conservative tail estimate: the lower edge would report
    /// a p99/max *below* a value actually observed.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bucket_ceil(b);
            }
        }
        self.bucket_ceil(self.counts.len() - 1)
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// The 99.9th percentile — the svcload tail-latency headline number.
    pub fn p999(&self) -> f64 {
        self.percentile(0.999)
    }

    /// The 99.99th percentile.
    pub fn p9999(&self) -> f64 {
        self.percentile(0.9999)
    }

    /// Upper edge of the highest populated bucket — the histogram's
    /// estimate of the maximum recorded value.
    pub fn max_bucket_ceil(&self) -> f64 {
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        self.bucket_ceil(last)
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.min_value, other.min_value);
        assert_eq!(self.resolution, other.resolution);
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_fp += other.sum_fp;
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }
}

/// `floor(log10(q)·res)` for `q ≥ 1`, exactly as
/// `(q.log10() * res).floor()` computes it, from [`fastmath::ln`]; `None`
/// when `q` is not finite or the floor is in doubt.
///
/// With `y′ = ln′(q)·(res·log10 e)` and `y` libm's value: the fast `ln`
/// is within `2e-15 + 5e-16·ln q`, so `y′` is within
/// `2e-15·res·log10 e + 8.3e-16·y` of the exact `y` after its three
/// roundings; libm's `log10` (a few ulp) and the product stay within
/// `8e-16·y`. The floor is returned only when `y′ ± B`, with
/// `B = (y′ + res)·1e-13`, truncate to the same integer and `y′ > B`:
/// over 60× that sum. A value on a bucket edge (`q` a power of ten,
/// say) therefore takes the libm path.
fn floor_log10_scaled(q: f64, res: f64) -> Option<usize> {
    if !q.is_finite() {
        return None;
    }
    let y = fastmath::ln(q) * (res * std::f64::consts::LOG10_E);
    let b = (y + res) * 1e-13;
    let floor = (y - b) as i64;
    (floor == (y + b) as i64 && y > b).then_some(floor as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_matches_libm_at_every_edge() {
        let libm = |h: &LogHistogram, v: f64| {
            if v <= h.min_value {
                return 0;
            }
            let b = ((v / h.min_value).log10() * h.resolution as f64).floor() as usize + 1;
            b.min(h.counts.len() - 1)
        };
        let mut rng = kh_sim::SimRng::new(0x4157);
        for h in [LogHistogram::for_latency(), LogHistogram::for_detours()] {
            let res = h.resolution as f64;
            let certified = |v: f64| floor_log10_scaled(v / h.min_value, res).is_some();
            for b in 0..h.counts.len() + 2 {
                let edge = h.min_value * 10f64.powf(b as f64 / res);
                let (mut below, mut above) = (edge, edge);
                let mut on_edge = vec![edge];
                for _ in 0..4 {
                    below = below.next_down();
                    above = above.next_up();
                    on_edge.extend([below, above]);
                }
                for v in on_edge {
                    assert_eq!(h.bucket_of(v), libm(&h, v), "{v:e}");
                }
                // Just outside the doubt window the fast path decides.
                for v in [1e-11, -1e-11, 1e-9, -1e-9].map(|r| edge * (1.0 + r)) {
                    assert_eq!(h.bucket_of(v), libm(&h, v), "{v:e}");
                    assert!(v <= h.min_value || certified(v), "{v:e}");
                }
            }
            // Integer nanoseconds, as the simulators record them,
            // log-uniform over 1 ns to 2⁴⁰ ns.
            let (mut above_min, mut fast) = (0, 0);
            for _ in 0..100_000 {
                let v = 2f64.powf(40.0 * rng.next_f64()).round();
                assert_eq!(h.bucket_of(v), libm(&h, v), "{v:e}");
                if v > h.min_value {
                    above_min += 1;
                    fast += usize::from(certified(v));
                }
            }
            assert!(fast * 1000 >= above_min * 999, "{fast} of {above_min}");
        }
    }

    #[test]
    fn records_and_counts() {
        let mut h = LogHistogram::new(1.0, 6, 10);
        for v in [1.0, 10.0, 100.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 277.75).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let mut h = LogHistogram::new(1.0, 6, 20);
        // 99 values at ~10, one at ~10000.
        for _ in 0..99 {
            h.record(10.0);
        }
        h.record(10_000.0);
        let p50 = h.median();
        let p99 = h.p99();
        assert!((8.0..13.0).contains(&p50), "p50 = {p50}");
        assert!(p99 < 20.0, "99 of 100 values are ~10: p99 = {p99}");
        let p100 = h.percentile(1.0);
        assert!(p100 > 5000.0, "max = {p100}");
    }

    #[test]
    fn relative_resolution_holds_across_decades() {
        let h = LogHistogram::new(1.0, 6, 20);
        // Adjacent buckets differ by 10^(1/20) ≈ 12%.
        for v in [2.0, 20.0, 200.0, 20_000.0] {
            let b = h.bucket_of(v);
            let floor = h.bucket_floor(b);
            let ceil = h.bucket_floor(b + 1);
            assert!(floor <= v && v < ceil * 1.0001, "{v}: [{floor}, {ceil})");
            assert!(ceil / floor < 1.13);
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = LogHistogram::new(1.0, 2, 10); // up to 100
        h.record(0.0001);
        h.record(1e9);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(0.1) <= 1.0);
        // The huge value lands in the top bucket (upper edge 10^2 = 100).
        assert!(h.max_bucket_ceil() >= 99.0, "{}", h.max_bucket_ceil());
    }

    #[test]
    fn negative_and_nonfinite_values_clamp_to_zero() {
        let mut h = LogHistogram::new(1.0, 3, 10);
        h.record(-250.0);
        h.record(f64::NAN);
        h.record(f64::NEG_INFINITY);
        h.record(10.0);
        assert_eq!(h.count(), 4);
        // sum must be 10.0, not poisoned by negatives or NaN.
        assert!((h.mean() - 2.5).abs() < 1e-9, "mean = {}", h.mean());
        assert!(h.percentile(0.25) <= 1.0, "clamped values sit in bucket 0");
    }

    #[test]
    fn percentile_upper_edge_covers_observed_values() {
        // The tail estimate must never be below a recorded value's
        // bucket: with one sample, p100 >= the sample's bucket ceiling
        // which is >= the sample itself (modulo bucket resolution).
        let mut h = LogHistogram::new(1.0, 6, 20);
        h.record(10.0);
        assert!(h.percentile(1.0) >= 10.0, "p100 = {}", h.percentile(1.0));
        assert!(h.max_bucket_ceil() >= 10.0);
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::for_detours();
        assert!(h.mean().is_nan());
        assert!(h.percentile(0.5).is_nan());
        assert!(h.min().is_nan());
        assert!(h.max().is_nan());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn min_max_track_recorded_extremes() {
        let mut h = LogHistogram::new(1.0, 6, 20);
        for v in [42.0, 3.0, 900.0, 17.0] {
            h.record(v);
        }
        assert_eq!(h.min(), 3.0);
        assert_eq!(h.max(), 900.0);
    }

    #[test]
    fn deep_tail_percentiles_resolve_rare_outliers() {
        let mut h = LogHistogram::new(1.0, 6, 20);
        // 9998 values at ~10, one at ~100000 (the outlier is rank
        // 9999 of 9999 = above the 99.99th): p99/p999 stay near the
        // mass, p9999 reaches the outlier.
        for _ in 0..9_998 {
            h.record(10.0);
        }
        h.record(100_000.0);
        assert!(h.p99() < 20.0, "p99 = {}", h.p99());
        assert!(h.p999() < 20.0, "p999 = {}", h.p999());
        assert!(h.p9999() > 50_000.0, "p9999 = {}", h.p9999());
        assert!(h.p999() <= h.p9999());
    }

    #[test]
    fn merge_combines() {
        let mut a = LogHistogram::new(1.0, 3, 10);
        let mut b = LogHistogram::new(1.0, 3, 10);
        a.record(5.0);
        b.record(50.0);
        b.record(50.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_min_max() {
        let mut a = LogHistogram::new(1.0, 3, 10);
        let mut b = LogHistogram::new(1.0, 3, 10);
        a.record(5.0);
        b.record(0.5);
        b.record(700.0);
        a.merge(&b);
        assert_eq!(a.min(), 0.5);
        assert_eq!(a.max(), 700.0);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_geometry() {
        let mut a = LogHistogram::new(1.0, 3, 10);
        let b = LogHistogram::new(2.0, 3, 10);
        a.merge(&b);
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// Percentiles are monotone in the quantile for any sample set.
            #[test]
            fn percentile_monotone_in_quantile(
                values in prop::collection::vec(1.0f64..1e6, 1..300),
                qa in 0.0f64..1.0,
                qb in 0.0f64..1.0,
            ) {
                let mut h = LogHistogram::new(1.0, 7, 20);
                for v in &values {
                    h.record(*v);
                }
                let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
                prop_assert!(
                    h.percentile(lo) <= h.percentile(hi),
                    "p({lo}) = {} > p({hi}) = {}",
                    h.percentile(lo),
                    h.percentile(hi)
                );
            }

            /// Every percentile is bounded by the recorded min and max:
            /// the upper-edge estimator never reports below the minimum
            /// sample, and never above the maximum sample's bucket
            /// ceiling (one bucket of relative slack, 10^(1/resolution)).
            #[test]
            fn percentile_bounded_by_recorded_min_max(
                values in prop::collection::vec(1.0f64..1e6, 1..300),
                q in 0.0f64..1.0,
            ) {
                let resolution = 20u32;
                let mut h = LogHistogram::new(1.0, 7, resolution);
                for v in &values {
                    h.record(*v);
                }
                let p = h.percentile(q);
                prop_assert!(p >= h.min(), "p({q}) = {p} below min {}", h.min());
                let slack = 10f64.powf(1.0 / resolution as f64) * (1.0 + 1e-9);
                prop_assert!(
                    p <= h.max() * slack,
                    "p({q}) = {p} above max {} (+slack)",
                    h.max()
                );
            }

            /// merge(a, b) is indistinguishable from recording the
            /// union of both sample sets into one histogram: the same
            /// buckets fill, so count, extremes, and every percentile
            /// match exactly — and the fixed-point sum makes the mean
            /// exactly equal too (each sample rounds to the integer
            /// grid once at record time; integer addition commutes).
            #[test]
            fn merge_equals_recording_the_union(
                xs in prop::collection::vec(1.0f64..1e6, 0..200),
                ys in prop::collection::vec(1.0f64..1e6, 0..200),
                q in 0.0f64..1.0,
            ) {
                let mut a = LogHistogram::for_latency();
                let mut b = LogHistogram::for_latency();
                let mut union = LogHistogram::for_latency();
                for v in &xs {
                    a.record(*v);
                    union.record(*v);
                }
                for v in &ys {
                    b.record(*v);
                    union.record(*v);
                }
                a.merge(&b);
                prop_assert_eq!(a.count(), union.count());
                let same = |x: f64, y: f64| x == y || (x.is_nan() && y.is_nan());
                prop_assert!(same(a.min(), union.min()));
                prop_assert!(same(a.max(), union.max()));
                let (pa, pu) = (a.percentile(q), union.percentile(q));
                prop_assert!(same(pa, pu), "p({q}): merged {pa} vs union {pu}");
                for (ma, mu) in [
                    (a.median(), union.median()),
                    (a.p99(), union.p99()),
                    (a.p999(), union.p999()),
                    (a.percentile(0.0), union.percentile(0.0)),
                    (a.percentile(1.0), union.percentile(1.0)),
                ] {
                    prop_assert!(same(ma, mu), "{ma} vs {mu}");
                }
                if a.count() > 0 {
                    let (ma, mu) = (a.mean(), union.mean());
                    prop_assert!(same(ma, mu), "mean: merged {ma} vs union {mu}");
                }
            }
        }
    }
}
