//! Multi-core execution: one workload (thread) per core, optional
//! per-phase barrier synchronization.
//!
//! The paper's node has four cores, and its future-work section calls
//! for studying "the performance isolation capabilities of our approach
//! when multiple workloads are hosted on the same compute node." This
//! executor provides the mechanism:
//!
//! * each core gets its own noise streams (its own tick alignment and,
//!   under Linux, its own kthread mix),
//! * DRAM bandwidth is shared: concurrently streaming cores split the
//!   platform bandwidth,
//! * in [`BarrierMode::PerPhase`], all threads synchronize at phase
//!   boundaries — OpenMP-style — so a noise event on *any* core delays
//!   *every* core. This is the amplification mechanism behind the
//!   classic "OS noise at scale" results and behind NPB LU's special
//!   sensitivity to FWK noise.

use crate::config::{MachineConfig, StackKind};
use crate::machine::{background_steal, guest_tick_steal, host_tick_steal, rewarm_extra};
use kh_arch::cpu::{CoreTimer, Phase, PollutionState, TranslationRegime};
use kh_arch::noise::{NoiseEvent, OsTimingModel};
use kh_hafnium::hypercall::HfCall;
use kh_hafnium::manifest::{BootManifest, VmKind, VmManifest};
use kh_hafnium::spm::{Spm, SpmConfig};
use kh_hafnium::vm::VmId;
use kh_kitten::profile::KittenProfile;
use kh_linux::profile::LinuxProfile;
use kh_sim::{Nanos, SimRng};
use kh_theseus::{TheseusProfile, SAFETY_TAX};
use kh_workloads::{Workload, WorkloadOutput};

const MB: u64 = 1 << 20;

/// How threads synchronize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierMode {
    /// Independent threads (embarrassingly parallel).
    None,
    /// All threads complete phase *k* before any starts phase *k+1*
    /// (OpenMP parallel-for semantics).
    PerPhase,
}

/// Per-core statistics from a parallel run.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    pub interruptions: u64,
    pub stolen: Nanos,
    /// Time spent waiting at barriers for slower cores.
    pub barrier_wait: Nanos,
}

/// Result of a parallel run.
#[derive(Debug)]
pub struct ParallelReport {
    pub outputs: Vec<WorkloadOutput>,
    /// Wall time: the last core's completion.
    pub elapsed: Nanos,
    pub per_core: Vec<CoreStats>,
    pub barriers: u64,
}

impl ParallelReport {
    /// Total useful throughput (sum over cores reporting throughput).
    pub fn aggregate_throughput(&self) -> f64 {
        self.outputs.iter().filter_map(|o| o.throughput()).sum()
    }

    /// Total time lost to barrier skew.
    pub fn total_barrier_wait(&self) -> Nanos {
        Nanos(
            self.per_core
                .iter()
                .map(|c| c.barrier_wait.as_nanos())
                .sum(),
        )
    }
}

struct CoreCtx {
    now: Nanos,
    host_tick_at: Nanos,
    guest_tick_at: Nanos,
    background: Option<NoiseEvent>,
    jitter_rng: SimRng,
    stats: CoreStats,
    done: bool,
}

/// How workload threads map onto VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tenancy {
    /// All threads are VCPUs of one secondary VM (a parallel job).
    SingleVm,
    /// Each thread is its own isolated secondary VM (co-resident
    /// tenants — the paper's multi-workload scenario).
    VmPerThread,
}

/// The multi-core machine.
pub struct ParallelMachine {
    cfg: MachineConfig,
    timer: CoreTimer,
    host: Box<dyn OsTimingModel>,
    guest: Option<KittenProfile>,
    spm: Option<Spm>,
    regime: TranslationRegime,
    /// (vm, vcpu) the thread on core i drives.
    placements: Vec<(VmId, u16)>,
}

impl ParallelMachine {
    /// Build the machine for `threads` workload threads (≤ core count),
    /// all VCPUs of one secondary VM.
    pub fn new(cfg: MachineConfig, threads: u16) -> Self {
        Self::with_tenancy(cfg, threads, Tenancy::SingleVm)
    }

    /// Build with an explicit tenancy model.
    pub fn with_tenancy(cfg: MachineConfig, threads: u16, tenancy: Tenancy) -> Self {
        assert!(threads >= 1 && threads <= cfg.platform.num_cores);
        let timer = CoreTimer::new(cfg.platform);
        let mut rng = SimRng::new(cfg.seed ^ 0x7061_7261);
        let host: Box<dyn OsTimingModel> = match cfg.stack {
            StackKind::NativeKitten | StackKind::HafniumKitten => {
                Box::new(match cfg.options.host_tick_hz {
                    Some(hz) => KittenProfile::with_tick_hz(hz),
                    None => KittenProfile::default(),
                })
            }
            StackKind::HafniumLinux => Box::new(match cfg.options.host_tick_hz {
                Some(hz) => LinuxProfile::with_hz(rng.next_u64(), cfg.platform.num_cores, hz),
                None => LinuxProfile::new(rng.next_u64(), cfg.platform.num_cores),
            }),
            StackKind::NativeTheseus => Box::new(match cfg.options.host_tick_hz {
                Some(hz) => TheseusProfile::with_tick_hz(hz),
                None => TheseusProfile::default(),
            }),
        };
        let placements: Vec<(VmId, u16)> = match tenancy {
            Tenancy::SingleVm => (0..threads).map(|c| (VmId(2), c)).collect(),
            Tenancy::VmPerThread => (0..threads).map(|c| (VmId(2 + c), 0)).collect(),
        };
        let (spm, guest, regime) = if cfg.stack.is_virtualized() {
            let spm_cfg = SpmConfig::default_for(cfg.platform);
            let primary_name = match cfg.stack {
                StackKind::HafniumKitten => "kitten-primary",
                _ => "linux-primary",
            };
            let mut manifest = BootManifest::new().with_vm(VmManifest::new(
                primary_name,
                VmKind::Primary,
                64 * MB,
                cfg.platform.num_cores,
            ));
            match tenancy {
                Tenancy::SingleVm => {
                    manifest = manifest.with_vm(VmManifest::new(
                        "bench",
                        VmKind::Secondary,
                        512 * MB,
                        threads,
                    ));
                }
                Tenancy::VmPerThread => {
                    for i in 0..threads {
                        manifest = manifest.with_vm(VmManifest::new(
                            format!("tenant-{i}"),
                            VmKind::Secondary,
                            256 * MB,
                            1,
                        ));
                    }
                }
            }
            let (mut spm, _) = kh_hafnium::boot::boot(spm_cfg, &manifest, vec![])
                .expect("parallel manifest boots");
            // Dispatch each thread's VCPU on its core.
            for (core, &(vm, vcpu)) in placements.iter().enumerate() {
                spm.hypercall(
                    VmId::PRIMARY,
                    core as u16,
                    core as u16,
                    HfCall::VcpuRun { vm, vcpu },
                    Nanos::ZERO,
                )
                .expect("initial parallel dispatch");
            }
            (
                Some(spm),
                Some(KittenProfile::with_tick_hz(cfg.options.guest_tick_hz)),
                TranslationRegime::TwoStage,
            )
        } else {
            (None, None, TranslationRegime::Stage1Only)
        };
        ParallelMachine {
            cfg,
            timer,
            host,
            guest,
            spm,
            regime,
            placements,
        }
    }

    pub fn spm(&self) -> Option<&Spm> {
        self.spm.as_ref()
    }

    fn make_ctx(&mut self, core: u16, rng: &mut SimRng) -> CoreCtx {
        let host_period = self.host.tick_period();
        let guest_tick_at = self
            .guest
            .as_ref()
            .map(|g| Nanos(1 + rng.next_below(g.tick_period.as_nanos().max(1))))
            .unwrap_or(Nanos::MAX);
        CoreCtx {
            now: Nanos::ZERO,
            host_tick_at: Nanos(1 + rng.next_below(host_period.as_nanos().max(1))),
            guest_tick_at,
            background: self.host.next_background(core, Nanos::ZERO),
            jitter_rng: rng.split(core as u64 + 100),
            stats: CoreStats::default(),
            done: false,
        }
    }

    /// Execute one phase on one core starting at `ctx.now`; returns the
    /// completion time. Mirrors the single-core executor's inner loop.
    fn advance_phase(
        &mut self,
        core: u16,
        ctx: &mut CoreCtx,
        phase: &Phase,
        streams: u32,
    ) -> Nanos {
        let mut clean = PollutionState::default();
        let cost = self
            .timer
            .price(phase, self.regime, &mut clean, streams.max(1));
        // Safe-language runtime tax (exactly 1.0 for every other stack).
        let tax = if self.cfg.stack == StackKind::NativeTheseus {
            1.0 + SAFETY_TAX
        } else {
            1.0
        };
        let mut remaining = Nanos(ctx.jitter_rng.jittered(
            cost.time.as_nanos(),
            self.cfg.options.jitter_sigma,
            tax,
        ));
        let host_period = self.host.tick_period();
        let guest_period = self.guest.as_ref().map(|g| g.tick_period);

        loop {
            let next_bg = ctx.background.as_ref().map(|e| e.at).unwrap_or(Nanos::MAX);
            let next_event = ctx.host_tick_at.min(ctx.guest_tick_at).min(next_bg);
            if ctx
                .now
                .checked_add(remaining)
                .map(|end| end <= next_event)
                .unwrap_or(true)
            {
                ctx.now += remaining;
                break;
            }
            let advance = next_event.saturating_sub(ctx.now);
            remaining = remaining.saturating_sub(advance);
            ctx.now = ctx.now.max(next_event);
            ctx.stats.interruptions += 1;

            let (stolen, pollution) = if next_event == ctx.host_tick_at {
                ctx.host_tick_at += host_period;
                let (vm, vcpu) = self.placements[core as usize];
                if let Some(spm) = self.spm.as_mut() {
                    spm.preempt(core);
                    spm.hypercall(
                        VmId::PRIMARY,
                        core,
                        core,
                        HfCall::VcpuRun { vm, vcpu },
                        ctx.now,
                    )
                    .expect("parallel re-dispatch");
                }
                let mut pol = self.host.tick_pollution();
                if self.cfg.stack.is_virtualized() {
                    pol.add(PollutionState {
                        tlb_evicted: 12,
                        cache_lines_evicted: 96,
                    });
                }
                (host_tick_steal(&self.cfg, self.host.as_ref()), pol)
            } else if next_event == ctx.guest_tick_at {
                let period = guest_period.expect("guest tick implies guest");
                ctx.guest_tick_at += period;
                let guest = self.guest.as_ref().expect("guest profile");
                (guest_tick_steal(&self.cfg, guest), guest.tick_pollution)
            } else {
                let ev = ctx.background.take().expect("bg event");
                let stolen = if self.cfg.stack.is_virtualized() {
                    background_steal(&self.cfg, self.host.as_ref(), ev.duration)
                } else {
                    ev.duration + self.host.ctx_switch_cost().scaled(2)
                };
                let res = (stolen, ev.pollution);
                ctx.background = self.host.next_background(core, ctx.now);
                res
            };

            ctx.now += stolen;
            ctx.stats.stolen += stolen;
            remaining += rewarm_extra(&self.timer, self.regime, phase, pollution);
        }
        ctx.now
    }

    /// Fast-forward a core's event schedules past `to` (idle waiting at
    /// a barrier: interruptions during the wait cost the workload
    /// nothing).
    fn skip_to(&mut self, core: u16, ctx: &mut CoreCtx, to: Nanos) {
        let host_period = self.host.tick_period();
        while ctx.host_tick_at <= to {
            ctx.host_tick_at += host_period;
        }
        if let Some(g) = self.guest.as_ref() {
            let p = g.tick_period;
            while ctx.guest_tick_at <= to {
                ctx.guest_tick_at += p;
            }
        }
        while ctx.background.as_ref().map(|e| e.at <= to).unwrap_or(false) {
            ctx.background = self.host.next_background(core, to);
        }
        ctx.now = to;
    }

    /// Run the workloads (one per core) to completion.
    pub fn run(
        &mut self,
        mut workloads: Vec<Box<dyn Workload + Send>>,
        barrier: BarrierMode,
    ) -> ParallelReport {
        let threads = workloads.len() as u16;
        assert!(threads >= 1 && threads <= self.cfg.platform.num_cores);
        let mut seed_rng = SimRng::new(self.cfg.seed ^ 0x636F_7265);
        let mut ctxs: Vec<CoreCtx> = (0..threads)
            .map(|c| {
                let mut r = seed_rng.split(c as u64);
                self.make_ctx(c, &mut r)
            })
            .collect();
        let mut barriers = 0u64;

        match barrier {
            BarrierMode::PerPhase => loop {
                // Collect this round's phases.
                let mut round: Vec<(usize, Phase)> = Vec::new();
                for (i, w) in workloads.iter_mut().enumerate() {
                    if ctxs[i].done {
                        continue;
                    }
                    match w.next_phase(ctxs[i].now) {
                        Some(p) => round.push((i, p)),
                        None => ctxs[i].done = true,
                    }
                }
                if round.is_empty() {
                    break;
                }
                let streams = round.iter().filter(|(_, p)| p.dram_bytes > 0).count() as u32;
                let mut round_end = Nanos::ZERO;
                let mut ends: Vec<(usize, Nanos)> = Vec::new();
                for (i, phase) in &round {
                    let core = *i as u16;
                    let mut ctx = std::mem::replace(
                        &mut ctxs[*i],
                        CoreCtx {
                            now: Nanos::ZERO,
                            host_tick_at: Nanos::MAX,
                            guest_tick_at: Nanos::MAX,
                            background: None,
                            jitter_rng: SimRng::new(0),
                            stats: CoreStats::default(),
                            done: false,
                        },
                    );
                    let end = self.advance_phase(core, &mut ctx, phase, streams.max(1));
                    ctxs[*i] = ctx;
                    round_end = round_end.max(end);
                    ends.push((*i, end));
                }
                // Complete phases at each core's own time, then barrier.
                for (i, end) in &ends {
                    let cost = kh_arch::cpu::PhaseCost {
                        cycles: 0,
                        time: Nanos::ZERO,
                        walk_cycles: 0,
                        rewarm_cycles: 0,
                        bandwidth_bound: false,
                    };
                    workloads[*i].phase_complete(*end, &cost);
                    ctxs[*i].stats.barrier_wait += round_end.saturating_sub(*end);
                }
                for (i, _) in &ends {
                    let core = *i as u16;
                    let mut ctx = std::mem::replace(
                        &mut ctxs[*i],
                        CoreCtx {
                            now: Nanos::ZERO,
                            host_tick_at: Nanos::MAX,
                            guest_tick_at: Nanos::MAX,
                            background: None,
                            jitter_rng: SimRng::new(0),
                            stats: CoreStats::default(),
                            done: false,
                        },
                    );
                    self.skip_to(core, &mut ctx, round_end);
                    ctxs[*i] = ctx;
                }
                barriers += 1;
            },
            BarrierMode::None => {
                // Static bandwidth sharing: every thread with any
                // DRAM-heavy phase counts as a streamer for the whole
                // run (the conservative approximation; exact interleaved
                // accounting matters only when phase mixes differ a lot).
                let streams = threads as u32;
                for i in 0..workloads.len() {
                    let core = i as u16;
                    loop {
                        let phase = {
                            let ctx = &ctxs[i];
                            workloads[i].next_phase(ctx.now)
                        };
                        let Some(phase) = phase else { break };
                        let mut ctx = std::mem::replace(
                            &mut ctxs[i],
                            CoreCtx {
                                now: Nanos::ZERO,
                                host_tick_at: Nanos::MAX,
                                guest_tick_at: Nanos::MAX,
                                background: None,
                                jitter_rng: SimRng::new(0),
                                stats: CoreStats::default(),
                                done: false,
                            },
                        );
                        let end = self.advance_phase(core, &mut ctx, &phase, streams);
                        ctxs[i] = ctx;
                        let cost = kh_arch::cpu::PhaseCost {
                            cycles: 0,
                            time: Nanos::ZERO,
                            walk_cycles: 0,
                            rewarm_cycles: 0,
                            bandwidth_bound: false,
                        };
                        workloads[i].phase_complete(end, &cost);
                    }
                }
            }
        }

        let elapsed = ctxs.iter().map(|c| c.now).max().unwrap_or(Nanos::ZERO);
        let outputs = workloads
            .iter_mut()
            .zip(&ctxs)
            .map(|(w, c)| w.finish(c.now))
            .collect();
        if let Some(spm) = self.spm.as_ref() {
            spm.audit_isolation().expect("isolation preserved");
        }
        ParallelReport {
            outputs,
            elapsed,
            per_core: ctxs.into_iter().map(|c| c.stats).collect(),
            barriers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kh_workloads::nas::NasBenchmark;
    use kh_workloads::stream::{StreamConfig, StreamModel};

    fn lu_threads(n: usize) -> Vec<Box<dyn Workload + Send>> {
        (0..n).map(|_| NasBenchmark::Lu.model()).collect()
    }

    #[test]
    fn four_threads_complete_with_barriers() {
        let cfg = MachineConfig::pine_a64(StackKind::HafniumKitten, 3);
        let mut m = ParallelMachine::new(cfg, 4);
        let r = m.run(lu_threads(4), BarrierMode::PerPhase);
        assert_eq!(r.outputs.len(), 4);
        assert!(r.barriers > 0);
        for o in &r.outputs {
            assert!(o.throughput().unwrap() > 0.0);
        }
        assert!(m.spm().unwrap().audit_isolation().is_ok());
    }

    #[test]
    fn barrier_wait_reflects_noise_skew() {
        let wait_for = |stack| {
            let cfg = MachineConfig::pine_a64(stack, 7);
            let mut m = ParallelMachine::new(cfg, 4);
            let r = m.run(lu_threads(4), BarrierMode::PerPhase);
            (r.total_barrier_wait(), r.elapsed)
        };
        let (kitten_wait, kitten_elapsed) = wait_for(StackKind::HafniumKitten);
        let (linux_wait, linux_elapsed) = wait_for(StackKind::HafniumLinux);
        assert!(
            linux_wait > kitten_wait.scaled(2),
            "linux barrier skew {linux_wait} should dwarf kitten {kitten_wait}"
        );
        assert!(linux_elapsed > kitten_elapsed);
    }

    #[test]
    fn noise_amplification_under_barriers() {
        // Parallel LU with barriers must lose more to the Linux primary
        // than the serial run does: any core's burst delays all.
        let normalized = |barrier| {
            let run = |stack| {
                let cfg = MachineConfig::pine_a64(stack, 11);
                let mut m = ParallelMachine::new(cfg, 4);
                let r = m.run(lu_threads(4), barrier);
                (r.aggregate_throughput(), r.elapsed)
            };
            let (kitten, _) = run(StackKind::HafniumKitten);
            let (linux, _) = run(StackKind::HafniumLinux);
            linux / kitten
        };
        let with_barriers = normalized(BarrierMode::PerPhase);
        let without = normalized(BarrierMode::None);
        assert!(
            with_barriers < without,
            "barriers amplify noise: {with_barriers} vs {without}"
        );
        assert!(with_barriers > 0.8, "but not absurdly: {with_barriers}");
    }

    #[test]
    fn bandwidth_contention_caps_parallel_stream() {
        let cfg = MachineConfig::pine_a64(StackKind::NativeKitten, 1);
        let mut m1 = ParallelMachine::new(cfg, 1);
        let single = m1.run(
            vec![Box::new(StreamModel::new(StreamConfig::default()))],
            BarrierMode::None,
        );
        let mut m4 = ParallelMachine::new(cfg, 4);
        let quad = m4.run(
            (0..4)
                .map(|_| Box::new(StreamModel::new(StreamConfig::default())) as _)
                .collect(),
            BarrierMode::None,
        );
        let single_bw = single.aggregate_throughput();
        let quad_bw = quad.aggregate_throughput();
        // Four streaming cores share one memory controller: aggregate
        // bandwidth stays near the single-core figure, far below 4x.
        assert!(
            quad_bw < single_bw * 1.5,
            "quad {quad_bw} vs single {single_bw}"
        );
    }

    #[test]
    fn vm_per_thread_tenancy_is_fully_isolated() {
        use kh_workloads::gups::{GupsConfig, GupsModel};
        let cfg = MachineConfig::pine_a64(StackKind::HafniumKitten, 13);
        let mut m = ParallelMachine::with_tenancy(cfg, 4, Tenancy::VmPerThread);
        let ws: Vec<Box<dyn Workload + Send>> = (0..4)
            .map(|_| {
                Box::new(GupsModel::new(GupsConfig {
                    log2_table: 19,
                    updates_per_entry: 2,
                })) as _
            })
            .collect();
        let r = m.run(ws, BarrierMode::None);
        assert_eq!(r.outputs.len(), 4);
        let spm = m.spm().unwrap();
        // One primary + four tenant VMs, pairwise isolated.
        assert_eq!(spm.vm_count(), 5);
        assert!(spm.audit_isolation().is_ok());
        // Each tenant made progress.
        for o in &r.outputs {
            assert!(o.throughput().unwrap() > 0.0);
        }
    }

    #[test]
    fn tenancy_models_perform_equivalently_for_independent_work() {
        // With no cross-thread sharing in the workloads, the VM-per-
        // thread and single-VM tenancies cost the same — isolation
        // between tenants is free, the paper's core claim.
        use kh_workloads::nas::NasBenchmark;
        let run = |tenancy| {
            let cfg = MachineConfig::pine_a64(StackKind::HafniumKitten, 23);
            let mut m = ParallelMachine::with_tenancy(cfg, 4, tenancy);
            let ws = (0..4).map(|_| NasBenchmark::Ep.model()).collect();
            m.run(ws, BarrierMode::None).aggregate_throughput()
        };
        let single = run(Tenancy::SingleVm);
        let multi = run(Tenancy::VmPerThread);
        let ratio = multi / single;
        assert!((0.99..1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let cfg = MachineConfig::pine_a64(StackKind::HafniumLinux, 42);
            let mut m = ParallelMachine::new(cfg, 2);
            let r = m.run(lu_threads(2), BarrierMode::PerPhase);
            (r.elapsed, r.total_barrier_wait())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn too_many_threads_rejected() {
        let cfg = MachineConfig::pine_a64(StackKind::NativeKitten, 1);
        let mut m = ParallelMachine::new(cfg, 4);
        let _ = m.run(lu_threads(5), BarrierMode::None);
    }
}
