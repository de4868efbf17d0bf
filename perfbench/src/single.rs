//! `paper-single-node`: the paper's single-machine reproduction.
//! Selfish-detour under all four stacks (Figures 4-6), then the
//! Figure 7/8 and Figure 9/10 suites, scored against the paper.

use crate::metrics::Metric;
use crate::paper::{paper_err_pct, simulated_normalized};
use crate::trace::{Totals, Tracer};
use crate::{median_ns, median_s, stack_label, Bench, Digest, Size};
use kh_core::figures::{figure_7_8, figure_9_10, render_selfish, SelfishProfile, SuiteResult};
use kh_core::{Machine, MachineConfig, StackKind};
use kh_sim::{Nanos, SimRng};
use kh_workloads::nas::{bt, cg, ep, lu, sp};
use kh_workloads::selfish::{SelfishConfig, SelfishDetour};
use kh_workloads::{gups, hpcg, stream};

pub struct PaperBench {
    machine_seed: u64,
    suite_seed: u64,
    selfish: Nanos,
    trials: u32,
}

pub struct PaperRun {
    profiles: Vec<SelfishProfile>,
    fig8: SuiteResult,
    fig10: SuiteResult,
    report: String,
}

impl PaperBench {
    pub fn new(seed: u64, size: Size) -> Self {
        let mut rng = SimRng::new(seed ^ 0x7065_7266_7061_7072); // "perfpapr"
        let (selfish, trials) = match size {
            Size::Full => (Nanos::from_millis(750), 3),
            Size::Tiny => (Nanos::from_millis(20), 1),
        };
        PaperBench {
            machine_seed: rng.next_u64(),
            suite_seed: rng.next_u64(),
            selfish,
            trials,
        }
    }

    fn machine(&self, stack: StackKind) -> MachineConfig {
        MachineConfig::pine_a64(stack, self.machine_seed)
    }
}

fn stolen_us_per_s(p: &SelfishProfile) -> f64 {
    p.report.stolen.as_nanos() as f64 / 1e3 / p.report.elapsed.as_secs_f64()
}

impl Bench for PaperBench {
    type Setup = ();
    type Iter = PaperRun;

    fn setup(&self, t: &mut Tracer) {
        for stack in StackKind::ALL {
            let m = t.span(
                &format!("kh_core::Machine::new[{}]", stack_label(stack)),
                || Machine::new(self.machine(stack)),
            );
            drop(std::hint::black_box(m));
        }
    }

    fn iterate(&self, _: &(), t: &mut Tracer) -> PaperRun {
        let profiles: Vec<SelfishProfile> = StackKind::ALL
            .iter()
            .map(|&stack| {
                let label = stack_label(stack);
                let mut m = t.span(&format!("kh_core::Machine::new[{label}]"), || {
                    Machine::new(self.machine(stack))
                });
                let mut w = SelfishDetour::new(SelfishConfig {
                    duration: self.selfish,
                    ..Default::default()
                });
                let report = t.span(&format!("kh_core::Machine::run[{label}]"), || m.run(&mut w));
                SelfishProfile {
                    stack,
                    detours: report.output.detours().unwrap_or(&[]).to_vec(),
                    report,
                }
            })
            .collect();
        let fig8 = t.span("kh_core::figure_7_8", || {
            figure_7_8(self.trials, self.suite_seed)
        });
        let fig10 = t.span("kh_core::figure_9_10", || {
            figure_9_10(self.trials, self.suite_seed)
        });
        let report = t.span("kh_metrics::report", || {
            let mut s = render_selfish(&profiles, self.selfish);
            for suite in [&fig8, &fig10] {
                s.push_str(&suite.raw_table());
                s.push_str(&suite.normalized_table());
                s.push_str(&suite.csv());
            }
            s
        });
        PaperRun {
            profiles,
            fig8,
            fig10,
            report,
        }
    }

    fn digest(&self, it: &PaperRun) -> u64 {
        let mut d = Digest::default();
        d.feed(it.report.as_bytes());
        for p in &it.profiles {
            let r = &p.report;
            d.feed(
                format!(
                    "{:?}{:?}{}{:?}{}{}{}{}{}{:?}",
                    p.detours,
                    r.elapsed,
                    r.interruptions,
                    r.stolen,
                    r.host_ticks,
                    r.guest_ticks,
                    r.background_events,
                    r.vcpu_runs,
                    r.aborted,
                    r.output.throughput(),
                )
                .as_bytes(),
            );
        }
        d.value()
    }

    /// Selfish-detour runs plus suite trials.
    fn attempted_failed(&self, it: &PaperRun) -> (u64, u64) {
        let cells: usize = [&it.fig8, &it.fig10]
            .iter()
            .map(|s| s.cells.iter().map(Vec::len).sum::<usize>())
            .sum();
        let aborted = it.profiles.iter().filter(|p| p.report.aborted).count();
        (
            (it.profiles.len() + cells * self.trials as usize) as u64,
            aborted as u64,
        )
    }

    fn check(&self, _: &(), it: &PaperRun) -> Vec<String> {
        let mut bad = Vec::new();
        for p in &it.profiles {
            let r = &p.report;
            let label = stack_label(p.stack);
            if r.aborted || r.elapsed < self.selfish {
                bad.push(format!(
                    "selfish {label}: aborted or short ({:?})",
                    r.elapsed
                ));
            }
            if p.detours.len() as u64 > r.interruptions {
                bad.push(format!(
                    "selfish {label}: {} detours but only {} interruptions",
                    p.detours.len(),
                    r.interruptions
                ));
            }
        }
        for suite in [&it.fig8, &it.fig10] {
            for (si, row) in suite.cells.iter().enumerate() {
                for (bi, cell) in row.iter().enumerate() {
                    let v = cell.mean();
                    if !(v.is_finite() && v > 0.0) {
                        bad.push(format!("{} cell ({si},{bi}) scored {v}", suite.title));
                    }
                }
            }
        }
        bad
    }

    /// The numeric kernels behind the models, run for real at test
    /// sizes, must pass their own verification.
    fn check_once(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut expect = |ok: bool, what: String| {
            if !ok {
                bad.push(format!("kernel self-check: {what}"));
            }
        };
        let h = hpcg::run_native(&hpcg::HpcgConfig {
            nx: 8,
            ny: 8,
            nz: 8,
            max_iters: 50,
            tolerance: 1e-10,
        });
        expect(
            h.final_residual / h.initial_residual < 1e-10 && h.rms_error < 1e-6,
            format!(
                "HPCG residual {:e}, rms {:e}",
                h.final_residual / h.initial_residual,
                h.rms_error
            ),
        );
        let s = stream::run_native(&stream::StreamConfig {
            n: 100_000,
            ntimes: 3,
        });
        expect(
            s.max_error < 1e-9,
            format!("STREAM max error {:e}", s.max_error),
        );
        let g = gups::run_native(&gups::GupsConfig {
            log2_table: 14,
            updates_per_entry: 4,
        });
        expect(
            g.error_rate == 0.0,
            format!("RandomAccess error rate {}", g.error_rate),
        );
        let l = lu::run_native(&lu::LuConfig {
            n: 8,
            itmax: 60,
            omega: 1.2,
        });
        expect(
            l.final_residual < l.initial_residual * 1e-6,
            format!(
                "LU residual {:e} -> {:e}",
                l.initial_residual, l.final_residual
            ),
        );
        let b = bt::run_native(&bt::BtConfig { n: 6, timesteps: 2 });
        expect(
            b.max_line_residual < 1e-8,
            format!("BT residual {:e}", b.max_line_residual),
        );
        let c = cg::run_native(
            &cg::CgConfig {
                n: 200,
                nonzer: 5,
                niter: 10,
                inner: 25,
                shift: 10.0,
            },
            42,
        );
        expect(
            c.inner_residual < 1e-8,
            format!("CG inner residual {:e}", c.inner_residual),
        );
        let e = ep::run_native(&ep::EpConfig { log2_pairs: 16 });
        let rate = e.pairs_accepted as f64 / e.pairs_tested as f64;
        expect(
            (rate - std::f64::consts::FRAC_PI_4).abs() < 0.01
                && e.annulus.iter().sum::<u64>() == e.pairs_accepted,
            format!("EP acceptance {rate}, annulus total vs accepted"),
        );
        let p = sp::run_native(&sp::SpConfig { n: 6, timesteps: 2 });
        expect(
            p.max_line_residual < 1e-9,
            format!("SP residual {:e}", p.max_line_residual),
        );
        bad
    }

    fn sim_end_to_end(&self, it: &PaperRun) -> Vec<(Metric, String)> {
        let by = |stack| {
            it.profiles
                .iter()
                .find(|p| p.stack == stack)
                .expect("every stack ran")
        };
        let mut rows = simulated_normalized(&it.fig8);
        rows.extend(simulated_normalized(&it.fig10));
        vec![
            (
                Metric::new(
                    "noise_us_per_s.kitten",
                    "us/s",
                    stolen_us_per_s(by(StackKind::HafniumKitten)),
                ),
                "[selfish-detour, Kitten primary]".to_string(),
            ),
            (
                Metric::new(
                    "noise_us_per_s.linux",
                    "us/s",
                    stolen_us_per_s(by(StackKind::HafniumLinux)),
                ),
                "[selfish-detour, Linux primary]".to_string(),
            ),
            (
                Metric::new(
                    "paper_err_pct",
                    "%",
                    paper_err_pct(&rows).unwrap_or(f64::NAN),
                ),
                "[vs the paper's Fig 8 and Fig 10, 16 normalized cells]".to_string(),
            ),
        ]
    }

    fn per_layer(&self, setup: &[Totals], iters: &[Totals], it: &PaperRun) -> Vec<Metric> {
        let mut m = Vec::new();
        let mut run_ns = 0.0;
        let mut sim_us = 0.0;
        for p in &it.profiles {
            let label = stack_label(p.stack);
            m.push(Metric::new(
                format!("kh_core.boot_s.{label}"),
                "s",
                median_s(setup, &format!("kh_core::Machine::new[{label}]")),
            ));
            let ns = median_ns(iters, &format!("kh_core::Machine::run[{label}]"));
            run_ns += ns;
            sim_us += p.report.elapsed.as_nanos() as f64 / 1e3;
            m.push(Metric::new(format!("kh_core.run_s.{label}"), "s", ns / 1e9));
            let r = &p.report;
            m.push(Metric::new(
                format!("machine.stolen_us.{label}"),
                "us",
                r.stolen.as_nanos() as f64 / 1e3,
            ));
            m.push(Metric::new(
                format!("machine.interruptions.{label}"),
                "count",
                r.interruptions as f64,
            ));
            m.push(Metric::new(
                format!("machine.vcpu_runs.{label}"),
                "count",
                r.vcpu_runs as f64,
            ));
            m.push(Metric::new(
                format!("machine.detours.{label}"),
                "count",
                p.detours.len() as f64,
            ));
        }
        m.push(Metric::new("kh_core.ns_per_sim_us", "ns", run_ns / sim_us));
        m.push(Metric::new(
            "kh_core.suite_s",
            "s",
            median_s(iters, "kh_core::figure_7_8") + median_s(iters, "kh_core::figure_9_10"),
        ));
        m.push(Metric::new(
            "kh_metrics.report_s",
            "s",
            median_s(iters, "kh_metrics::report"),
        ));
        m
    }

    fn describe(&self) -> String {
        format!(
            "stacks {:?}, selfish-detour {} ms simulated per stack, Fig 7/8 and 9/10 suites with \
             {} trials, machine seed {:#x}, suite seed {:#x}",
            StackKind::ALL.map(stack_label),
            self.selfish.as_nanos() / 1_000_000,
            self.trials,
            self.machine_seed,
            self.suite_seed
        )
    }
}
