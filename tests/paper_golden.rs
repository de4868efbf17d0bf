//! Golden values for the paper's own figures.
//!
//! `tests/full_stack.rs` checks the *shape* of Figures 4–10 inside wide
//! bands; this file pins the exact numbers the figure binaries print at
//! their committed seed (`0x5C21`) and trial count (5). Any change that
//! moves one simulated bit of the core reproduction fails here, so a
//! host-side optimisation of the machine loop or phase pricing can show
//! it preserved behaviour by leaving this file untouched.
//!
//! The Figures 4–6 rows are the EXPERIMENTS.md "Measured" table in
//! integer nanoseconds; the Figure 8 and Figure 10 cell means are
//! compared by `f64::to_bits`. If a deliberate model change moves them,
//! regenerate with the figure binaries, update EXPERIMENTS.md, and
//! update the constants here in the same change.

use kitten_hafnium::core::config::StackKind;
use kitten_hafnium::core::figures::{figure_7_8, figure_9_10, figures_4_to_6, SuiteResult};
use kitten_hafnium::sim::Nanos;

/// The figure binaries' seed (`kh_bench::SEED`).
const SEED: u64 = 0x5C21;
/// The figure binaries' trial count (`kh_bench::TRIALS`).
const TRIALS: u32 = 5;

/// One selfish-detour profile, reduced to exact integers.
#[derive(Debug, PartialEq, Eq)]
struct SelfishGolden {
    stack: StackKind,
    detours: usize,
    detour_sum_ns: u64,
    detour_max_ns: u64,
    stolen_ns: u64,
    host_ticks: u64,
    guest_ticks: u64,
    background_events: u64,
    elapsed_ns: u64,
}

/// Figures 4–6 (plus the Theseus extension), 1 s window, in
/// `StackKind::ALL` order.
const FIG_4_6: [SelfishGolden; 4] = [
    SelfishGolden {
        stack: StackKind::NativeKitten,
        detours: 10,
        detour_sum_ns: 24_536,
        detour_max_ns: 2_462,
        stolen_ns: 23_900,
        host_ticks: 10,
        guest_ticks: 0,
        background_events: 0,
        elapsed_ns: 1_000_000_601,
    },
    SelfishGolden {
        stack: StackKind::HafniumKitten,
        detours: 20,
        detour_sum_ns: 105_643,
        detour_max_ns: 7_442,
        stolen_ns: 102_120,
        host_ticks: 10,
        guest_ticks: 10,
        background_events: 0,
        elapsed_ns: 1_000_000_878,
    },
    SelfishGolden {
        stack: StackKind::HafniumLinux,
        detours: 321,
        detour_sum_ns: 10_660_809,
        detour_max_ns: 254_974,
        stolen_ns: 10_317_256,
        host_ticks: 250,
        guest_ticks: 10,
        background_events: 64,
        elapsed_ns: 1_000_000_312,
    },
    SelfishGolden {
        stack: StackKind::NativeTheseus,
        detours: 0,
        detour_sum_ns: 0,
        detour_max_ns: 0,
        stolen_ns: 10_000,
        host_ticks: 10,
        guest_ticks: 0,
        background_events: 0,
        elapsed_ns: 1_000_001_209,
    },
];

/// Figure 8 cell means (HPCG GFlop/s, STREAM MB/s, RandomAccess GUP/s)
/// as `f64` bit patterns, rows in `StackKind::ALL` order.
const FIG_8_MEANS: [[u64; 3]; 4] = [
    [0x3f8f54ecea3a58c3, 0x409adb4fd6038478, 0x3f6bc1530ffe7e2d],
    [0x3f8f2beb77387df2, 0x409ac4ac0582aa88, 0x3f6a53dc025071b8],
    [0x3f8ecabc0c981f46, 0x409a7e9d68d30e18, 0x3f6a116643e6f171],
    [0x3f8f05a1f24be4a2, 0x409a97534d96f3f7, 0x3f6b7b124ae67c46],
];

/// Figure 10 cell means (LU, BT, CG, EP, SP in Mop/s) as `f64` bit
/// patterns, rows in `StackKind::ALL` order.
const FIG_10_MEANS: [[u64; 5]; 4] = [
    [
        0x4045680fb9606648,
        0x40447aecd3d80103,
        0x404a54e54aefecd0,
        0x40387cc5d265f6a3,
        0x404290a8e513bf16,
    ],
    [
        0x404567d02fba6fdb,
        0x404479c8f30a9761,
        0x404a51cfaa53a637,
        0x40387a6148b8626f,
        0x40429259b8689e7e,
    ],
    [
        0x404529d9ba64bb08,
        0x404434dbf60c26aa,
        0x4049ec609825ba2e,
        0x40382fc7a325f6f9,
        0x404241bc2fa9fd61,
    ],
    [
        0x404531e35496945a,
        0x4044471934252a09,
        0x404a12450711d6bc,
        0x40383ec9a4e7c6c3,
        0x404261aa38896b95,
    ],
];

#[test]
fn figures_4_to_6_are_pinned() {
    let profiles = figures_4_to_6(SEED, Nanos::from_secs(1));
    let measured: Vec<SelfishGolden> = profiles
        .iter()
        .map(|p| {
            let durations = p.detours.iter().map(|d| d.duration.as_nanos());
            SelfishGolden {
                stack: p.stack,
                detours: p.detours.len(),
                detour_sum_ns: durations.clone().sum(),
                detour_max_ns: durations.max().unwrap_or(0),
                stolen_ns: p.report.stolen.as_nanos(),
                host_ticks: p.report.host_ticks,
                guest_ticks: p.report.guest_ticks,
                background_events: p.report.background_events,
                elapsed_ns: p.report.elapsed.as_nanos(),
            }
        })
        .collect();
    assert_eq!(measured, FIG_4_6);
}

/// Every cell mean of `suite`, as bit patterns in `StackKind::ALL` ×
/// bench order.
fn mean_bits(suite: &SuiteResult) -> Vec<Vec<u64>> {
    StackKind::ALL
        .iter()
        .map(|&s| {
            (0..suite.benches.len())
                .map(|b| suite.mean(s, b).to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn figure_8_cell_means_are_pinned() {
    let suite = figure_7_8(TRIALS, SEED);
    assert_eq!(suite.benches, ["HPCG", "Stream", "RandomAccess"]);
    assert_eq!(mean_bits(&suite), FIG_8_MEANS.map(Vec::from).to_vec());
}

#[test]
fn figure_10_cell_means_are_pinned() {
    let suite = figure_9_10(TRIALS, SEED);
    assert_eq!(suite.benches, ["LU", "BT", "CG", "EP", "SP"]);
    assert_eq!(mean_bits(&suite), FIG_10_MEANS.map(Vec::from).to_vec());
}
