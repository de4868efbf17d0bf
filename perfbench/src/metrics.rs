//! Metric math, kept free of any simulation so it can be tested on
//! hand-built inputs.

use kh_metrics::hist::LogHistogram;
use kh_metrics::outcome::OutcomeCounters;

/// One reported value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Median of a sample; the mean of the middle pair for even sizes.
/// `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile is reported only where at least this many samples
/// lie beyond it; fewer than that and the value is one or two outliers.
pub const MIN_BEYOND: u64 = 10;

/// Samples of a population of `n` that lie beyond quantile `q`: the
/// ones ranked after the `ceil(q * n)`-th, which is the sample the
/// percentile estimate lands on.
pub fn samples_beyond(n: u64, q: f64) -> u64 {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as u64;
    n.saturating_sub(rank)
}

/// A percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The histogram's estimate (bucket upper edge), in the histogram's
    /// own unit.
    pub value: f64,
    /// Samples beyond the percentile.
    pub beyond: u64,
}

/// Percentile `q` of `hist`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn reportable_tail(hist: &LogHistogram, q: f64) -> Option<Tail> {
    let beyond = samples_beyond(hist.count(), q);
    (beyond >= MIN_BEYOND).then(|| Tail {
        value: hist.percentile(q),
        beyond,
    })
}

/// A ratio kept with its base, so a report can state both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    pub num: u64,
    pub base: u64,
}

impl Ratio {
    /// `num / base`; 0 when the base is 0 (nothing was attempted).
    pub fn value(self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.num as f64 / self.base as f64
        }
    }
}

impl std::ops::Add for Ratio {
    type Output = Ratio;

    fn add(self, other: Ratio) -> Ratio {
        Ratio {
            num: self.num + other.num,
            base: self.base + other.base,
        }
    }
}

/// Requests that ended not-ok over requests attempted. Shed, deadline,
/// corrupt, failed and refused requests all count as errors: a refused
/// request missed its latency limit just as surely as a lost one.
pub fn error_rate(o: &OutcomeCounters) -> Ratio {
    Ratio {
        num: o.total() - o.good(),
        base: o.total(),
    }
}

/// Mean absolute relative error, in percent, of simulated normalized
/// scores against reference normalized scores, over paired cells.
pub fn mean_abs_err_pct(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = pairs
        .iter()
        .map(|&(sim, reference)| ((sim - reference) / reference).abs())
        .sum();
    100.0 * sum / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_with(n: u64) -> LogHistogram {
        let mut h = LogHistogram::for_latency();
        for i in 0..n {
            h.record(10_000.0 + i as f64);
        }
        h
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert_eq!(samples_beyond(9_999, 0.999), 9);
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.99), 0);
        let t = reportable_tail(&hist_with(10_000), 0.999).expect("10 beyond");
        assert_eq!(t.beyond, 10);
        assert!(t.value >= 10_000.0);
        assert!(reportable_tail(&hist_with(9_999), 0.999).is_none());
        let p99 = reportable_tail(&hist_with(2_000), 0.99).expect("20 beyond");
        assert_eq!(p99.beyond, 20);
    }

    #[test]
    fn error_rate_counts_shed_and_refused() {
        let o = OutcomeCounters {
            ok: 90,
            ok_hedged: 4,
            shed: 3,
            refused: 2,
            deadline: 1,
            ..Default::default()
        };
        let r = error_rate(&o);
        assert_eq!(r, Ratio { num: 6, base: 100 });
        assert!((r.value() - 0.06).abs() < 1e-12);
        let clean = OutcomeCounters {
            ok: 5,
            ..Default::default()
        };
        assert_eq!(error_rate(&clean).value(), 0.0);
    }

    #[test]
    fn ratios_keep_their_base() {
        let a = Ratio { num: 3, base: 4 };
        let b = Ratio { num: 1, base: 4 };
        assert_eq!(a + b, Ratio { num: 4, base: 8 });
        assert_eq!((a + b).value(), 0.5);
        assert_eq!(Ratio::default().value(), 0.0);
    }

    #[test]
    fn mean_abs_err_is_relative_percent() {
        let e = mean_abs_err_pct(&[(1.1, 1.0), (0.9, 1.0), (2.0, 2.0)]);
        assert!((e - 20.0 / 3.0).abs() < 1e-9, "{e}");
        assert!(mean_abs_err_pct(&[]).is_nan());
    }
}
