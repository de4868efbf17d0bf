//! The paper's own measurements, the only reference any metric of this
//! benchmark has. Values are the raw Figure 8 and Figure 10 means as
//! quoted in the repository's EXPERIMENTS.md, in (native, Kitten
//! primary, Linux primary) order. The cluster metrics extend the paper
//! and have no reference, so they are unvalidated.

use crate::metrics::mean_abs_err_pct;
use kh_core::figures::SuiteResult;
use kh_core::StackKind;

/// Figure 8: HPCG (GFlop/s), STREAM (MB/s), RandomAccess (GUP/s).
pub const FIG8: [(&str, [f64; 3]); 3] = [
    ("HPCG", [0.0018, 0.0019, 0.0018]),
    ("Stream", [59.6, 59.8, 60.2]),
    ("RandomAccess", [6.5e-5, 6.2e-5, 6.04e-5]),
];

/// Figure 10: NAS class S, Mop/s.
pub const FIG10: [(&str, [f64; 3]); 5] = [
    ("LU", [33.16, 33.12, 32.06]),
    ("BT", [34.21, 34.20, 34.14]),
    ("CG", [4.38, 4.38, 4.37]),
    ("EP", [0.77, 0.77, 0.77]),
    ("SP", [15.08, 15.08, 15.10]),
];

/// (Kitten/native, Linux/native) for one benchmark of the reference.
pub fn reference_normalized(raw: [f64; 3]) -> (f64, f64) {
    (raw[1] / raw[0], raw[2] / raw[0])
}

/// Simulated (Kitten/native, Linux/native) for every benchmark of a
/// suite, by name.
pub fn simulated_normalized(suite: &SuiteResult) -> Vec<(&'static str, f64, f64)> {
    suite
        .benches
        .iter()
        .enumerate()
        .map(|(bi, &name)| {
            let native = suite.mean(StackKind::NativeKitten, bi);
            (
                name,
                suite.mean(StackKind::HafniumKitten, bi) / native,
                suite.mean(StackKind::HafniumLinux, bi) / native,
            )
        })
        .collect()
}

/// `paper_err_pct`: mean absolute relative error, in percent, of the
/// simulated normalized Kitten and Linux scores against the paper's,
/// over the 16 cells of Figures 8 and 10. `None` when a reference
/// benchmark is missing from the simulated rows.
pub fn paper_err_pct(simulated: &[(&str, f64, f64)]) -> Option<f64> {
    let mut pairs = Vec::with_capacity(16);
    for (name, raw) in FIG8.iter().chain(FIG10.iter()) {
        let &(_, kitten, linux) = simulated.iter().find(|(n, _, _)| n == name)?;
        let (ref_kitten, ref_linux) = reference_normalized(*raw);
        pairs.push((kitten, ref_kitten));
        pairs.push((linux, ref_linux));
    }
    Some(mean_abs_err_pct(&pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_rows() -> Vec<(&'static str, f64, f64)> {
        FIG8.iter()
            .chain(FIG10.iter())
            .map(|(n, raw)| {
                let (k, l) = reference_normalized(*raw);
                (*n, k, l)
            })
            .collect()
    }

    #[test]
    fn reference_matches_itself_exactly() {
        assert_eq!(paper_err_pct(&reference_rows()), Some(0.0));
    }

    #[test]
    fn error_is_mean_over_sixteen_cells() {
        // Every cell 1% high: the mean error is 1%.
        let rows: Vec<_> = reference_rows()
            .into_iter()
            .map(|(n, k, l)| (n, k * 1.01, l * 1.01))
            .collect();
        let e = paper_err_pct(&rows).unwrap();
        assert!((e - 1.0).abs() < 1e-9, "{e}");
        // One cell (LU Linux, reference 32.06/33.16) 16% low, the rest
        // exact: 16% / 16 cells = 1%.
        let rows: Vec<_> = reference_rows()
            .into_iter()
            .map(|(n, k, l)| {
                if n == "LU" {
                    (n, k, l * 0.84)
                } else {
                    (n, k, l)
                }
            })
            .collect();
        let e = paper_err_pct(&rows).unwrap();
        assert!((e - 1.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn missing_benchmark_is_no_score() {
        let rows: Vec<_> = reference_rows()
            .into_iter()
            .filter(|(n, _, _)| *n != "EP")
            .collect();
        assert_eq!(paper_err_pct(&rows), None);
    }

    #[test]
    fn reference_values_normalize_as_quoted() {
        // RandomAccess: Kitten -4.6%, Linux -7.1% against native.
        let (k, l) = reference_normalized(FIG8[2].1);
        assert!((k - 0.954).abs() < 1e-3, "{k}");
        assert!((l - 0.929).abs() < 1e-3, "{l}");
    }
}
