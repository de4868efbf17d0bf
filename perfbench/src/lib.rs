//! The repository benchmark: host wall time of the simulator and the
//! simulated tails it produces, end to end and per layer, on three
//! workloads. It drives the simulator only through public functions
//! and times those calls from outside; see README.md for the metric
//! map.

mod cluster;
pub mod host;
pub mod metrics;
mod paper;
mod single;
pub mod trace;

use metrics::{median, Metric};
use std::time::Instant;
use trace::{total_by_name, Totals, Tracer};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x5C21;
/// A second seed kept out of tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 0x0B5E_7711;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SvcloadOpen,
    ScenarioFaulted,
    PaperSingleNode,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SvcloadOpen,
        Workload::ScenarioFaulted,
        Workload::PaperSingleNode,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcloadOpen => "svcload-open",
            Workload::ScenarioFaulted => "scenario-faulted",
            Workload::PaperSingleNode => "paper-single-node",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run length of the simulated work. `Tiny` is for smoke tests only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds to keep measuring iterations for.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// End-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics every workload reports with tracing on; a layer
/// a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kh_scenario.parse_s", "s"),
    ("kh_sim.fault_parse_s", "s"),
    ("kh_cluster.boot_s", "s"),
    ("attest.frames", "count"),
    ("attest.done_us", "us"),
    ("kh_cluster.run_s.kitten", "s"),
    ("kh_cluster.run_s.linux", "s"),
    ("kh_cluster.run_s.theseus", "s"),
    ("kh_cluster.ns_per_frame", "ns"),
    ("kh_cluster.ns_per_leg", "ns"),
    ("kh_cluster.transit_ns", "ns"),
    ("kh_cluster.serve_ns", "ns"),
    ("kh_workloads.encode_ns", "ns"),
    ("kh_workloads.decode_ns", "ns"),
    ("kh_workloads.frame_share", "fraction"),
    ("kh_metrics.report_s", "s"),
    ("kh_core.boot_s.native", "s"),
    ("kh_core.boot_s.kitten", "s"),
    ("kh_core.boot_s.linux", "s"),
    ("kh_core.boot_s.theseus", "s"),
    ("kh_core.run_s.native", "s"),
    ("kh_core.run_s.kitten", "s"),
    ("kh_core.run_s.linux", "s"),
    ("kh_core.run_s.theseus", "s"),
    ("kh_core.ns_per_sim_us", "ns"),
    ("kh_core.suite_s", "s"),
    ("trace.overhead_pct", "%"),
    ("fabric.frames", "count"),
    ("fabric.bytes", "bytes"),
    ("fabric.drops", "count"),
    ("fabric.corrupted", "count"),
    ("node.stolen_us.kitten", "us"),
    ("node.stolen_us.linux", "us"),
    ("node.stolen_us.theseus", "us"),
    ("node.host_ticks.kitten", "count"),
    ("node.host_ticks.linux", "count"),
    ("node.host_ticks.theseus", "count"),
    ("node.background_events.kitten", "count"),
    ("node.background_events.linux", "count"),
    ("node.background_events.theseus", "count"),
    ("node.vcpu_runs.kitten", "count"),
    ("node.vcpu_runs.linux", "count"),
    ("node.vcpu_runs.theseus", "count"),
    ("node.served", "count"),
    ("node.shed", "count"),
    ("node.dup_hits", "count"),
    ("node.crash_drops", "count"),
    ("node.restarts", "count"),
    ("rel.retransmits", "count"),
    ("rel.hedges", "count"),
    ("rel.suppressed", "count"),
    ("rel.dups_absorbed", "count"),
    ("rel.breaker_opens", "count"),
    ("rel.nacks", "count"),
    ("rel.useful_ratio", "fraction"),
    ("rel.transmissions", "count"),
    ("scn.legs_sent", "count"),
    ("scn.legs_ok", "count"),
    ("scn.late_legs", "count"),
    ("scn.joins_failed", "count"),
    ("scn.leg_yield", "fraction"),
    ("scn.tier1_p99_us", "us"),
    ("machine.stolen_us.native", "us"),
    ("machine.stolen_us.kitten", "us"),
    ("machine.stolen_us.linux", "us"),
    ("machine.stolen_us.theseus", "us"),
    ("machine.interruptions.native", "count"),
    ("machine.interruptions.kitten", "count"),
    ("machine.interruptions.linux", "count"),
    ("machine.interruptions.theseus", "count"),
    ("machine.vcpu_runs.native", "count"),
    ("machine.vcpu_runs.kitten", "count"),
    ("machine.vcpu_runs.linux", "count"),
    ("machine.vcpu_runs.theseus", "count"),
    ("machine.detours.native", "count"),
    ("machine.detours.kitten", "count"),
    ("machine.detours.linux", "count"),
    ("machine.detours.theseus", "count"),
];

/// Median over samples of one span's total, in seconds; 0 when the
/// span never occurred.
pub(crate) fn median_s(samples: &[Totals], name: &str) -> f64 {
    median_ns(samples, name) / 1e9
}

/// Median over samples of one span's total, in nanoseconds.
pub(crate) fn median_ns(samples: &[Totals], name: &str) -> f64 {
    let xs: Vec<f64> = samples
        .iter()
        .map(|t| t.get(name).copied().unwrap_or(0) as f64)
        .collect();
    if xs.is_empty() {
        0.0
    } else {
        median(&xs)
    }
}

/// One workload as the run loop sees it. Set-up and iterations are
/// timed from outside; everything else is untimed.
pub(crate) trait Bench {
    type Setup;
    type Iter;

    /// Everything before traffic: parsing and booting. Timed as
    /// `setup_s`.
    fn setup(&self, t: &mut Tracer) -> Self::Setup;
    /// One full run of the workload plus rendering its report. Timed
    /// as `wall_s`.
    fn iterate(&self, s: &Self::Setup, t: &mut Tracer) -> Self::Iter;
    /// Hash of everything simulated the iteration produced.
    fn digest(&self, it: &Self::Iter) -> u64;
    /// Operations attempted and operations that ended not-ok.
    fn attempted_failed(&self, it: &Self::Iter) -> (u64, u64);
    /// Conservation checks; each failure is one line.
    fn check(&self, s: &Self::Setup, it: &Self::Iter) -> Vec<String>;
    /// Checks that need to run only once per run.
    fn check_once(&self) -> Vec<String> {
        Vec::new()
    }
    /// Layer probes replayed after a traced iteration, inside spans.
    fn probe(&self, _s: &Self::Setup, _it: &Self::Iter, _t: &mut Tracer) {}
    /// Simulated end-to-end metrics, printed but not gated.
    fn sim_end_to_end(&self, it: &Self::Iter) -> Vec<(Metric, String)>;
    /// Per-layer metrics: host times from span totals of the set-up
    /// samples and traced iterations, and simulated counters.
    fn per_layer(&self, setup: &[Totals], iters: &[Totals], it: &Self::Iter) -> Vec<Metric>;
    /// One line describing the generated inputs.
    fn describe(&self) -> String;
}

/// What one run produced.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result line: [`END_TO_END`] with tracing off,
    /// [`PER_LAYER`] with tracing on, in that order.
    pub metrics: Vec<Metric>,
    /// Human-readable report, printed before the result line.
    pub lines: Vec<String>,
    pub sim_digest: u64,
    pub trace_json: Option<String>,
}

impl RunResult {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Fill `wanted` in order from `have`; a wanted name with no value
/// reads 0, and a value outside `wanted` is a bug.
fn select(wanted: &[(&str, &'static str)], have: Vec<Metric>) -> Vec<Metric> {
    for m in &have {
        assert!(
            wanted.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} ({}) is not declared",
            m.name,
            m.unit
        );
    }
    wanted
        .iter()
        .map(|&(name, unit)| {
            have.iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, 0.0))
        })
        .collect()
}

/// FNV-1a over everything fed to it: the simulated-identity digest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Lower-case stack name used in metric and span names.
pub(crate) fn stack_label(stack: kh_core::StackKind) -> &'static str {
    use kh_core::StackKind::*;
    match stack {
        NativeKitten => "native",
        HafniumKitten => "kitten",
        HafniumLinux => "linux",
        NativeTheseus => "theseus",
    }
}

/// Timed set-up samples, and the measured iterations a run makes at
/// least whatever its length.
fn counts(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (50, 5),
        Size::Tiny => (2, 1),
    }
}

/// Run one workload: a warm-up set-up and reference iteration, the
/// timed set-up samples, then measured iterations for `opts.seconds`
/// (alternating untraced and traced ones when tracing), each checked.
pub fn run(opts: &Options) -> RunResult {
    match opts.workload {
        Workload::SvcloadOpen | Workload::ScenarioFaulted => run_bench(
            &cluster::ClusterBench::new(opts.workload, opts.seed, opts.size),
            opts,
        ),
        Workload::PaperSingleNode => {
            run_bench(&single::PaperBench::new(opts.seed, opts.size), opts)
        }
    }
}

fn run_bench<B: Bench>(bench: &B, opts: &Options) -> RunResult {
    let (setup_samples, min_iters) = counts(opts.size);
    let mut tracer = Tracer::new(false);
    let mut failures: Vec<String> = Vec::new();

    // Warm-up: one untimed set-up and the reference iteration. It fixes
    // the digest every measured iteration must reproduce, and the
    // simulated metrics. Every iteration is identical, so the peak
    // after it is the workload's; it is read before the calibration
    // allocates.
    let setup = bench.setup(&mut tracer);
    let reference = bench.iterate(&setup, &mut tracer);
    let sim_digest = bench.digest(&reference);
    failures.extend(bench.check(&setup, &reference));
    failures.extend(bench.check_once());
    let peak_rss_mb = host::peak_rss_mib();

    // Each timed set-up and iteration is followed by a calibration pass
    // and reported as its ratio to that pass; see `host::Calibration`.
    let mut calibration = host::Calibration::default();
    let mut setup_times = Vec::with_capacity(setup_samples);
    let mut setup_ratios = Vec::with_capacity(setup_samples);
    let mut setup_totals = Vec::with_capacity(setup_samples);
    tracer.set_on(opts.trace);
    for _ in 0..setup_samples {
        let mark = tracer.spans().len();
        let t0 = Instant::now();
        tracer.begin("setup");
        drop(bench.setup(&mut tracer));
        tracer.end();
        let dt = t0.elapsed().as_secs_f64();
        setup_totals.push(total_by_name(&tracer.spans()[mark..]));
        setup_times.push(dt);
        setup_ratios.push(dt / calibration.measure());
    }

    let mut walls = Vec::new();
    let mut wall_ratios = Vec::new();
    let mut traced_walls = Vec::new();
    let mut iter_totals = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    for i in 0.. {
        let traced = opts.trace && i % 2 == 1;
        tracer.set_on(traced);
        let mark = tracer.spans().len();
        let t0 = Instant::now();
        tracer.begin("iteration");
        let it = bench.iterate(&setup, &mut tracer);
        tracer.end();
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            bench.probe(&setup, &it, &mut tracer);
            iter_totals.push(total_by_name(&tracer.spans()[mark..]));
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            wall_ratios.push(wall / calibration.measure());
        }
        tracer.set_on(false);

        let (a, f) = bench.attempted_failed(&it);
        let mut bad = bench.check(&setup, &it);
        if bench.digest(&it) != sim_digest {
            bad.push(format!(
                "iteration {i}: simulated digest differs from the reference"
            ));
        }
        attempted += a;
        if bad.is_empty() {
            failed += f;
        } else {
            failed += a;
            failures.extend(bad);
        }
        let enough = walls.len() >= min_iters && (!opts.trace || traced_walls.len() >= min_iters);
        if enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let (raw_wall_s, raw_setup_s) = (median(&walls), median(&setup_times));
    let wall_s = median(&wall_ratios) * host::CALIBRATION_REF_S;
    let setup_s = median(&setup_ratios) * host::CALIBRATION_REF_S;
    let mut lines = vec![
        format!(
            "perfbench {} seed {} ({}) size {:?} trace {}",
            opts.workload.name(),
            opts.seed,
            if opts.seed == DEFAULT_SEED {
                "default"
            } else if opts.seed == HELD_OUT_SEED {
                "held-out"
            } else {
                "other"
            },
            opts.size,
            opts.trace as u8
        ),
        format!("host: {}", host::describe()),
        format!("inputs: {}", bench.describe()),
        format!(
            "iterations: {} untraced, {} traced; set-up samples: {}",
            walls.len(),
            traced_walls.len(),
            setup_times.len()
        ),
        format!(
            "host speed: times scaled to a {:.1} ms calibration pass; raw medians: \
             wall {raw_wall_s:.6} s, set-up {raw_setup_s:.6e} s",
            host::CALIBRATION_REF_S * 1e3
        ),
        "end-to-end (host seconds at reference host speed, tracing off; gated):".to_string(),
    ];
    let e2e = vec![
        Metric::new("wall_s", "s", wall_s),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb.unwrap_or(0.0)),
    ];
    if peak_rss_mb.is_none() {
        failures.push("peak RSS unavailable (no /proc/self/status VmHWM)".to_string());
    }
    for m in &e2e {
        lines.push(format!("  {:<24} {:>16} {}", m.name, fmt(m.value), m.unit));
    }
    lines.push("end-to-end (simulated; not gated):".to_string());
    for (m, note) in bench.sim_end_to_end(&reference) {
        lines.push(format!(
            "  {:<24} {:>16} {} {}",
            m.name,
            fmt(m.value),
            m.unit,
            note
        ));
    }
    lines.push(format!(
        "sim_digest {} {:#018x}",
        opts.workload.name(),
        sim_digest
    ));

    let metrics = if opts.trace {
        let mut layer = bench.per_layer(&setup_totals, &iter_totals, &reference);
        let overhead = (median(&traced_walls) / raw_wall_s - 1.0) * 100.0;
        layer.push(Metric::new("trace.overhead_pct", "%", overhead));
        let layer = select(PER_LAYER, layer);
        lines.push(
            "per layer (traced run; host times are medians over traced iterations):".to_string(),
        );
        for m in &layer {
            lines.push(format!("  {:<32} {:>16} {}", m.name, fmt(m.value), m.unit));
        }
        layer
    } else {
        select(&END_TO_END, e2e)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not finite", m.name));
        }
    }
    lines.push(if failures.is_empty() {
        "checks: all passed".to_string()
    } else {
        format!("checks: {} FAILED", failures.len())
    });
    for f in failures.iter().take(20) {
        lines.push(format!("  FAIL {f}"));
    }
    RunResult {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|m| {
                if m.value.is_finite() {
                    m
                } else {
                    Metric { value: 0.0, ..m }
                }
            })
            .collect(),
        lines,
        sim_digest,
        trace_json: opts.trace.then(|| tracer.chrome_json()),
    }
}

fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}
