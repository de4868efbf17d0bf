//! The discrete-event machine executor.
//!
//! One [`Machine`] simulates one node running one benchmark under a
//! [`StackKind`]. For virtualized stacks it boots a real
//! [`kh_hafnium::spm::Spm`] from a manifest (Kitten or Linux primary +
//! the benchmark's secondary VM), drives the actual `vcpu_run` /
//! `preempt` / vGIC state machine on every scheduling event, and charges
//! the architectural costs — trap round trips, EL2 VM context switches,
//! tick handlers, background bursts, and the cache/TLB pollution each one
//! inflicts on the interrupted benchmark.

use crate::config::{MachineConfig, StackKind};
use crate::victim::{VictimReport, VictimVm};
use kh_arch::cpu::{AccessPattern, CoreTimer, Phase, PhaseCost, PollutionState, TranslationRegime};
use kh_arch::el::ExceptionLevel;
use kh_arch::mmu::{AccessKind, MemAttr, PagePerms, Stage1Table, BLOCK_SIZE, PAGE_SIZE};
use kh_arch::noise::OsTimingModel;
use kh_arch::walkcache::WalkCacheStats;
use kh_hafnium::hypercall::HfCall;
use kh_hafnium::manifest::{BootManifest, VmKind, VmManifest};
use kh_hafnium::spm::{Spm, SpmConfig};
use kh_hafnium::vm::VmId;
use kh_kitten::profile::KittenProfile;
use kh_kitten::secondary::SecondaryPort;
use kh_linux::profile::LinuxProfile;
use kh_sim::{FaultPlan, FaultStats, Nanos, SimRng, TraceCategory, TraceRecorder};
use kh_theseus::{TheseusProfile, TheseusRuntime, SAFETY_TAX};
use kh_workloads::{Workload, WorkloadOutput};

const MB: u64 = 1 << 20;
/// Cache/TLB damage a co-tenant VM's slice does: a whole competing
/// working set ran, so most of the benchmark's cached state is gone.
const CO_TENANT_POLLUTION: PollutionState = PollutionState {
    tlb_evicted: 400,
    cache_lines_evicted: 6000,
};
/// Extra TLB/cache damage of a full VM switch (beyond the tick handler's
/// own footprint): VMID tagging avoids full flushes, but the primary's
/// working set still displaces guest entries.
const VM_SWITCH_POLLUTION: PollutionState = PollutionState {
    tlb_evicted: 12,
    cache_lines_evicted: 96,
};

/// Nanoseconds to switch one VM's EL1 context at EL2.
pub fn vm_ctx_switch(platform: &kh_arch::platform::Platform) -> Nanos {
    platform
        .core_freq
        .cycles_to_nanos(platform.transitions.vm_context_switch_cycles)
}

fn round_trip_p(
    platform: &kh_arch::platform::Platform,
    lo: ExceptionLevel,
    hi: ExceptionLevel,
) -> Nanos {
    platform.transitions.round_trip(lo, hi, platform.core_freq)
}

/// CPU time one host tick steals from a benchmark under `cfg`.
///
/// Virtualized: the secondary exits to EL2, Hafnium switches to the
/// primary's VCPU context, the primary's tick handler runs, then the
/// primary re-runs the secondary — two VM context switches and two
/// EL1<->EL2 round trips around the handler. Native: an EL0->EL1 trap
/// round trip around the handler.
pub fn host_tick_steal(cfg: &MachineConfig, host: &dyn OsTimingModel) -> Nanos {
    if cfg.stack.is_virtualized() {
        round_trip_p(&cfg.platform, ExceptionLevel::El1, ExceptionLevel::El2).scaled(2)
            + vm_ctx_switch(&cfg.platform).scaled(2)
            + host.tick_cost()
    } else if cfg.stack == StackKind::NativeTheseus {
        // Single privilege level: the timer IRQ is a same-level vector
        // dispatch; there is no EL0<->EL1 round trip to pay around the
        // handler.
        host.tick_cost()
    } else {
        round_trip_p(&cfg.platform, ExceptionLevel::El0, ExceptionLevel::El1) + host.tick_cost()
    }
}

/// CPU time one guest (secondary-Kitten) tick steals: the virtual timer
/// fires, Hafnium injects it through the para-virtual interface, and the
/// guest handler's `interrupt_get` hypercall adds another EL1->EL2 round
/// trip.
pub fn guest_tick_steal(cfg: &MachineConfig, guest: &KittenProfile) -> Nanos {
    round_trip_p(&cfg.platform, ExceptionLevel::El1, ExceptionLevel::El2).scaled(2)
        + guest.tick_cost
        + cfg
            .platform
            .core_freq
            .cycles_to_nanos(cfg.platform.gic.ack_eoi_cycles())
}

/// CPU time a background burst steals (Linux primary only): the
/// secondary is exited, CFS context-switches to the kthread, the burst
/// runs, and everything unwinds.
pub fn background_steal(cfg: &MachineConfig, host: &dyn OsTimingModel, burst: Nanos) -> Nanos {
    round_trip_p(&cfg.platform, ExceptionLevel::El1, ExceptionLevel::El2).scaled(2)
        + vm_ctx_switch(&cfg.platform).scaled(2)
        + host.ctx_switch_cost().scaled(2)
        + burst
}

/// Extra time a phase needs after an interruption polluted its
/// cache/TLB state.
pub fn rewarm_extra(
    timer: &CoreTimer,
    regime: TranslationRegime,
    phase: &Phase,
    pollution: PollutionState,
) -> Nanos {
    let mut p = pollution;
    let empty = Phase {
        instructions: 0,
        mem_refs: 0,
        flops: 0,
        footprint: phase.footprint,
        dram_bytes: 0,
        pattern: phase.pattern,
    };
    timer.price(&empty, regime, &mut p, 1).time
}

/// Everything a run produced, beyond the workload's own output.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub stack: StackKind,
    pub output: WorkloadOutput,
    /// Total virtual time from first phase to completion.
    pub elapsed: Nanos,
    /// Count of all interruptions the benchmark experienced.
    pub interruptions: u64,
    /// CPU time stolen from the benchmark by those interruptions.
    pub stolen: Nanos,
    pub host_ticks: u64,
    pub guest_ticks: u64,
    pub background_events: u64,
    /// Co-tenant slices that displaced the benchmark (interference
    /// ablation only).
    pub co_tenant_slices: u64,
    /// `vcpu_run` hypercalls issued by the primary during the run.
    pub vcpu_runs: u64,
    /// True when an injected stage-2 fault aborted the VM before the
    /// benchmark completed.
    pub aborted: bool,
    /// What the fault plan injected (all zeros without `--faults`).
    pub fault_stats: FaultStats,
    /// How the victim secondary fared (None without a fault plan).
    pub victim: Option<VictimReport>,
    /// Secondary restarts the SPM performed during the run.
    pub vm_restarts: u64,
    /// Walk-cache counters from the translation replay (None unless
    /// `StackOptions::model_translation` was enabled on a virtualized
    /// stack).
    pub walk_cache: Option<WalkCacheStats>,
}

/// The per-run machine.
pub struct Machine {
    cfg: MachineConfig,
    timer: CoreTimer,
    host: Box<dyn OsTimingModel>,
    guest: Option<KittenProfile>,
    spm: Option<Spm>,
    port: Option<SecondaryPort>,
    regime: TranslationRegime,
    rng: SimRng,
    workload_vm: VmId,
    trace: TraceRecorder,
    /// Fault-injection plan (inert by default). All its randomness comes
    /// from its own seed's streams, never from `rng` — a faulted run and
    /// a clean run with the same workload seed see identical noise.
    faults: FaultPlan,
    /// The sacrificial secondary absorbing the plan's injections.
    victim: Option<VictimVm>,
    /// Guest stage-1 table for the translation replay (present only when
    /// `model_translation` is on and the stack is virtualized). Grown
    /// lazily to cover each phase's footprint.
    s1_replay: Option<Stage1Table>,
    /// Bytes of the replay VA window mapped so far.
    replay_mapped: u64,
    /// RNG for replay access sampling. A dedicated stream (like the
    /// fault plan's): enabling the replay must not shift the noise
    /// drawn from `rng`, so a modeled and an unmodeled run with the same
    /// seed see identical tick alignment and jitter.
    replay_rng: SimRng,
    /// Component runtime (NativeTheseus only): owns the stack's
    /// measurement and the cooperative-restart fault story that stands
    /// in for the SPM's `restart_vm`.
    theseus: Option<TheseusRuntime>,
}

impl Machine {
    /// Build (and for virtualized stacks, boot) the machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut timing_platform = cfg.platform;
        if cfg.options.guest_block_mappings {
            // 2 MiB block descriptors: each TLB entry covers 512x the
            // reach of a 4 KiB page.
            timing_platform.tlb_entries *= 512;
        }
        let timer = CoreTimer::new(timing_platform);
        let mut rng = SimRng::new(cfg.seed ^ 0x6B68_636F_7265);
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
        let (spm, port, guest, regime, workload_vm) = if cfg.stack.is_virtualized() {
            let mut spm_cfg = SpmConfig::default_for(cfg.platform);
            spm_cfg.routing = cfg.options.routing;
            spm_cfg.require_signed_images = cfg.options.verify_images;
            spm_cfg.allow_dynamic_partitions = cfg.options.dynamic_partitions;
            let primary_name = match cfg.stack {
                StackKind::HafniumKitten => "kitten-primary",
                _ => "linux-primary",
            };
            let manifest = BootManifest::new()
                .with_vm(VmManifest::new(
                    primary_name,
                    VmKind::Primary,
                    64 * MB,
                    cfg.platform.num_cores,
                ))
                .with_vm(VmManifest::new("bench", VmKind::Secondary, 512 * MB, 1));
            let (spm, _report) = kh_hafnium::boot::boot(spm_cfg, &manifest, vec![])
                .expect("benchmark manifest boots");
            let workload_vm = VmId(2);
            let port = SecondaryPort::new(workload_vm);
            port.boot_probe().expect("secondary port has workarounds");
            (
                Some(spm),
                Some(port),
                Some(KittenProfile::with_tick_hz(cfg.options.guest_tick_hz)),
                TranslationRegime::TwoStage,
                workload_vm,
            )
        } else {
            (None, None, None, TranslationRegime::Stage1Only, VmId(0))
        };
        let s1_replay = (cfg.options.model_translation && cfg.stack.is_virtualized())
            .then(|| Stage1Table::new(1));
        let replay_rng = SimRng::new(cfg.seed ^ 0x6B68_7761_6C6B);
        Machine {
            cfg,
            timer,
            host,
            guest,
            spm,
            port,
            regime,
            rng,
            workload_vm,
            trace: TraceRecorder::disabled(),
            faults: FaultPlan::none(),
            victim: None,
            s1_replay,
            replay_mapped: 0,
            replay_rng,
            theseus: (cfg.stack == StackKind::NativeTheseus).then(|| TheseusRuntime::new(cfg.seed)),
        }
    }

    /// The component runtime, for post-run inspection (NativeTheseus
    /// only).
    pub fn theseus(&self) -> Option<&TheseusRuntime> {
        self.theseus.as_ref()
    }

    /// Arm a fault-injection plan. For virtualized stacks this also
    /// boots the victim secondary that absorbs the injections; for
    /// native stacks the plan is inert (there is no hypervisor to fault
    /// against). Call before [`Machine::run`].
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        if !plan.is_empty() && self.cfg.stack.is_virtualized() {
            if let Some(spm) = self.spm.as_mut() {
                spm.create_vm(
                    crate::victim::VICTIM_VM,
                    &VmManifest::new("victim", VmKind::Secondary, 64 * MB, 1),
                )
                .expect("victim VM boots");
                self.victim = Some(VictimVm::new(self.cfg.platform));
            }
        }
        self.faults = plan;
    }

    /// The armed plan's injection counters.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.faults.stats
    }

    /// The victim's degradation report, if a plan was armed.
    pub fn victim_report(&self) -> Option<&VictimReport> {
        self.victim.as_ref().map(|v| &v.report)
    }

    /// Drive every victim-side happening (scheduled injections and
    /// heartbeats) due at or before `boundary`, in time order. All of it
    /// runs on the victim's core: the benchmark's timeline on core 0 is
    /// untouched, which is exactly the isolation property under test.
    fn drive_faults(&mut self, boundary: Nanos) {
        let (Some(victim), Some(spm)) = (self.victim.as_mut(), self.spm.as_mut()) else {
            return;
        };
        loop {
            let next_fault = self.faults.next_scheduled_at().unwrap_or(Nanos::MAX);
            let next_beat = victim.next_beat;
            if next_fault > boundary && next_beat > boundary {
                return;
            }
            if next_fault <= next_beat {
                for ev in self.faults.take_due(next_fault) {
                    victim.apply(ev, spm, &mut self.trace);
                }
            } else {
                victim.beat(spm, &mut self.faults, &mut self.trace);
            }
        }
    }

    /// The SPM, for post-run inspection (virtualized stacks only).
    pub fn spm(&self) -> Option<&Spm> {
        self.spm.as_ref()
    }

    /// Replay a sample of the phase's memory accesses through the real
    /// stage-1/stage-2 tables via the SPM's walk cache, and return the
    /// measured walk-cost factor (fraction of full nested-walk cost
    /// actually paid) for this phase. Returns 1.0 — i.e. the analytic
    /// full-cost model — when the replay is disabled or the phase touches
    /// no memory.
    fn replay_translation(&mut self, phase: &Phase) -> f64 {
        const REPLAY_VA_BASE: u64 = 0x4000_0000;
        /// Accesses sampled per phase: enough to warm and exercise the
        /// cache, small enough to keep simulation overhead bounded.
        const REPLAY_SAMPLES: u64 = 1024;

        let (Some(s1), Some(spm)) = (self.s1_replay.as_mut(), self.spm.as_mut()) else {
            return 1.0;
        };
        if phase.mem_refs == 0 || phase.footprint == 0 {
            return 1.0;
        }
        // Grow the guest mapping to cover this phase's footprint. Granule
        // follows the stack's mapping policy: 2 MiB blocks when the guest
        // kernel uses them, 4 KiB pages otherwise.
        let blocks = self.cfg.options.guest_block_mappings;
        let granule = if blocks { BLOCK_SIZE } else { PAGE_SIZE };
        let want = phase.footprint.div_ceil(granule) * granule;
        if want > self.replay_mapped {
            s1.map_with_granule(
                REPLAY_VA_BASE + self.replay_mapped,
                self.replay_mapped,
                want - self.replay_mapped,
                PagePerms::RW,
                MemAttr::Normal,
                blocks,
            )
            .expect("replay window extends contiguously");
            self.replay_mapped = want;
        }
        let pages = (phase.footprint / PAGE_SIZE).max(1);
        let samples = phase.mem_refs.min(REPLAY_SAMPLES);
        let before = spm.walk_cache_stats();
        for s in 0..samples {
            let vpn = match phase.pattern {
                // GUPS-style: uniform over the whole table.
                AccessPattern::Random => self.replay_rng.next_below(pages),
                // Unit stride sweeps the footprint.
                AccessPattern::Stream => s % pages,
                // Cache-blocked: hot working set far below the footprint.
                AccessPattern::Blocked { .. } => self.replay_rng.next_below(pages.min(512)),
                AccessPattern::Compute => 0,
            };
            let va = REPLAY_VA_BASE + vpn * PAGE_SIZE + (s % PAGE_SIZE);
            let _ = spm.translate_guest(self.workload_vm, s1, va, AccessKind::Read);
        }
        spm.walk_cache_stats().since(&before).walk_cost_factor()
    }

    /// Enable machine-event tracing (ring buffer of `capacity` records).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = TraceRecorder::new(capacity);
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// CPU time one host tick steals from the benchmark.
    fn host_tick_steal(&self) -> Nanos {
        host_tick_steal(&self.cfg, self.host.as_ref())
    }

    /// CPU time one guest (secondary-Kitten) tick steals.
    fn guest_tick_steal(&self, guest: &KittenProfile) -> Nanos {
        guest_tick_steal(&self.cfg, guest)
    }

    /// CPU time a background burst steals (Linux primary only).
    fn background_steal(&self, burst: Nanos) -> Nanos {
        background_steal(&self.cfg, self.host.as_ref(), burst)
    }

    /// Extra time the current phase needs after an interruption polluted
    /// the caches/TLB.
    fn rewarm_extra(&self, phase: &Phase, pollution: PollutionState) -> Nanos {
        rewarm_extra(&self.timer, self.regime, phase, pollution)
    }

    /// Run a workload to completion on core 0.
    pub fn run(&mut self, w: &mut dyn Workload) -> RunReport {
        let core = 0u16;
        let mut now = Nanos::ZERO;
        let mut report = RunReport {
            workload: w.name().to_string(),
            stack: self.cfg.stack,
            output: WorkloadOutput::Detours(Vec::new()),
            elapsed: Nanos::ZERO,
            interruptions: 0,
            stolen: Nanos::ZERO,
            host_ticks: 0,
            guest_ticks: 0,
            background_events: 0,
            co_tenant_slices: 0,
            vcpu_runs: 0,
            aborted: false,
            fault_stats: FaultStats::default(),
            victim: None,
            vm_restarts: 0,
            walk_cache: None,
        };

        // Tick schedules start at a random phase offset so repeated
        // trials sample the tick/benchmark alignment space.
        let host_period = self.host.tick_period();
        let mut host_tick_at = Nanos(1 + self.rng.next_below(host_period.as_nanos().max(1)));
        let guest_period = self.guest.as_ref().map(|g| g.tick_period);
        let mut guest_tick_at = guest_period
            .map(|p| Nanos(1 + self.rng.next_below(p.as_nanos().max(1))))
            .unwrap_or(Nanos::MAX);
        let mut background = self.host.next_background(core, now);
        let co_tenant = self.cfg.options.co_tenant;
        let mut co_tenant_at = co_tenant
            .map(|c| Nanos(c.own_slice_ns.max(1)))
            .unwrap_or(Nanos::MAX);

        // Virtualized: the primary dispatches the benchmark VCPU, and
        // the guest arms its virtual timer.
        if let (Some(spm), Some(port)) = (self.spm.as_mut(), self.port.as_mut()) {
            spm.hypercall(
                VmId::PRIMARY,
                core,
                core,
                HfCall::VcpuRun {
                    vm: self.workload_vm,
                    vcpu: 0,
                },
                now,
            )
            .expect("initial dispatch");
            report.vcpu_runs += 1;
            if let Some(p) = guest_period {
                port.init_timer(spm, 0, core, p, now).expect("vtimer init");
            }
        }

        // Virtualized stacks take an unrecoverable stage-2 abort;
        // Theseus survives the same injection by unwinding and relinking
        // the faulted component (one-shot: `fault_at` is cleared after).
        let mut fault_at = self
            .cfg
            .options
            .inject_fault_at_ns
            .filter(|_| self.cfg.stack.is_virtualized() || self.theseus.is_some())
            .map(Nanos)
            .unwrap_or(Nanos::MAX);

        let jitter_sigma = self.cfg.options.jitter_sigma;
        // Safe-language runtime tax on all service work (exactly 1.0 for
        // every other stack, so their phase costs are bit-identical to
        // the pre-Theseus model).
        let tax = if self.theseus.is_some() {
            1.0 + SAFETY_TAX
        } else {
            1.0
        };
        // The last phase priced at walk factor 1.0 and its cost. With an
        // immutable timer, a clean pollution state, one stream and a
        // fixed regime, the price depends on the phase alone, so a
        // repeat (selfish-detour emits ~600k identical chunks per
        // simulated second) reuses it instead of re-pricing.
        let mut last_priced: Option<(Phase, PhaseCost)> = None;
        'run: while let Some(phase) = w.next_phase(now) {
            // Walk-cache discount from the functional translation replay;
            // exactly 1.0 (the analytic full-cost model) when disabled.
            let walk_factor = if self.s1_replay.is_some() {
                self.replay_translation(&phase)
            } else {
                1.0
            };
            let cost = match last_priced {
                Some((prev, cost)) if walk_factor == 1.0 && prev == phase => cost,
                _ => {
                    let mut clean = PollutionState::default();
                    let cost = self.timer.price_with_walk_factor(
                        &phase,
                        self.regime,
                        &mut clean,
                        1,
                        walk_factor,
                    );
                    last_priced = (walk_factor == 1.0).then_some((phase, cost));
                    cost
                }
            };
            // Per-phase timing jitter models DRAM refresh/thermal
            // variation: the source of run-to-run stdev.
            let mut remaining = Nanos(self.rng.jittered(cost.time.as_nanos(), jitter_sigma, tax));

            loop {
                let next_bg = background.as_ref().map(|e| e.at).unwrap_or(Nanos::MAX);
                let next_event = host_tick_at
                    .min(guest_tick_at)
                    .min(next_bg)
                    .min(co_tenant_at)
                    .min(fault_at);
                // Victim-side fault activity runs on its own core up to
                // wherever the benchmark is about to advance; it never
                // enters core 0's event competition above.
                let horizon = now
                    .checked_add(remaining)
                    .unwrap_or(Nanos::MAX)
                    .min(next_event);
                self.drive_faults(horizon);
                if next_event == fault_at
                    && now
                        .checked_add(remaining)
                        .map(|end| end > fault_at)
                        .unwrap_or(true)
                {
                    if let Some(rt) = self.theseus.as_mut() {
                        // The service component panics mid-phase. The
                        // runtime detects the unwind, drops the cell's
                        // heap, and relinks a fresh instance; the
                        // benchmark resumes where it stopped.
                        let advance = fault_at.saturating_sub(now);
                        remaining = remaining.saturating_sub(advance);
                        now = now.max(fault_at);
                        let stolen = rt.crash_svc() + rt.restart_svc();
                        self.trace.emit(
                            now,
                            core,
                            TraceCategory::ContextSwitch,
                            stolen,
                            "component-restart",
                        );
                        report.interruptions += 1;
                        now += stolen;
                        report.stolen += stolen;
                        fault_at = Nanos::MAX;
                        continue;
                    }
                    // The benchmark VM takes an unrecoverable stage-2
                    // abort mid-phase: Hafnium reports `Aborted` to the
                    // primary and the VCPU never runs again.
                    now = now.max(fault_at);
                    if let Some(spm) = self.spm.as_mut() {
                        use kh_hafnium::vm::{VcpuRunExit, VcpuState};
                        spm.finish_run(core, VcpuRunExit::Aborted);
                        let state = spm
                            .vm(self.workload_vm)
                            .and_then(|vm| vm.vcpu(0))
                            .map(|v| v.state);
                        debug_assert!(matches!(state, Some(VcpuState::Aborted)));
                    }
                    report.aborted = true;
                    break 'run;
                }
                if now
                    .checked_add(remaining)
                    .map(|end| end <= next_event)
                    .unwrap_or(true)
                {
                    now += remaining;
                    break;
                }
                // An event that fell due while a previous interruption
                // was being serviced fires immediately (advance = 0).
                let advance = next_event.saturating_sub(now);
                remaining = remaining.saturating_sub(advance);
                now = now.max(next_event);
                report.interruptions += 1;

                let (stolen, pollution, category, label) = if next_event == host_tick_at {
                    report.host_ticks += 1;
                    host_tick_at += host_period;
                    // Drive the real hypervisor state machine: the
                    // physical timer IRQ preempts the secondary; after
                    // handling, the primary re-dispatches it.
                    if let Some(spm) = self.spm.as_mut() {
                        spm.preempt(core);
                        spm.hypercall(
                            VmId::PRIMARY,
                            core,
                            core,
                            HfCall::VcpuRun {
                                vm: self.workload_vm,
                                vcpu: 0,
                            },
                            now,
                        )
                        .expect("re-dispatch after tick");
                        report.vcpu_runs += 1;
                    }
                    let mut pol = self.host.tick_pollution();
                    if self.cfg.stack.is_virtualized() {
                        pol.add(VM_SWITCH_POLLUTION);
                    }
                    (
                        self.host_tick_steal(),
                        pol,
                        TraceCategory::TimerTick,
                        "host-tick",
                    )
                } else if next_event == guest_tick_at {
                    report.guest_ticks += 1;
                    let period = guest_period.expect("guest tick implies guest");
                    guest_tick_at += period;
                    // Re-arm the virtual timer and drain the para-virtual
                    // interrupt through the real SPM interfaces.
                    if let (Some(spm), Some(port)) = (self.spm.as_mut(), self.port.as_ref()) {
                        let _ = spm.hypercall(
                            VmId::PRIMARY,
                            core,
                            core,
                            HfCall::InterruptInject {
                                vm: self.workload_vm,
                                vcpu: 0,
                                intid: port.vtimer_intid,
                            },
                            now,
                        );
                        let _ = port.next_interrupt(spm, 0, core, now);
                        let _ = spm.hypercall(
                            self.workload_vm,
                            0,
                            core,
                            HfCall::ArmVtimer {
                                delay_ns: period.as_nanos(),
                            },
                            now,
                        );
                    }
                    let guest = self.guest.as_ref().expect("guest profile");
                    (
                        self.guest_tick_steal(guest),
                        guest.tick_pollution,
                        TraceCategory::TimerTick,
                        "guest-tick",
                    )
                } else if next_event == co_tenant_at {
                    let c = co_tenant.expect("co-tenant event implies config");
                    report.co_tenant_slices += 1;
                    // The co-tenant VM runs its slice: a full VM switch
                    // out and back, plus the slice itself.
                    let stolen = if self.cfg.stack.is_virtualized() {
                        self.background_steal(Nanos(c.other_slice_ns))
                    } else {
                        Nanos(c.other_slice_ns) + self.host.ctx_switch_cost().scaled(2)
                    };
                    co_tenant_at = now + stolen + Nanos(c.own_slice_ns.max(1));
                    (
                        stolen,
                        CO_TENANT_POLLUTION,
                        TraceCategory::ContextSwitch,
                        "co-tenant",
                    )
                } else {
                    let ev = background.take().expect("bg event");
                    report.background_events += 1;
                    let stolen = if self.cfg.stack.is_virtualized() {
                        self.background_steal(ev.duration)
                    } else {
                        ev.duration + self.host.ctx_switch_cost().scaled(2)
                    };
                    let res = (
                        stolen,
                        ev.pollution,
                        TraceCategory::BackgroundTask,
                        ev.label,
                    );
                    background = self.host.next_background(core, now);
                    res
                };

                self.trace.emit(now, core, category, stolen, label);
                now += stolen;
                report.stolen += stolen;
                remaining += self.rewarm_extra(&phase, pollution);
            }
            w.phase_complete(now, &cost);
        }

        report.elapsed = now;
        report.output = w.finish(now);
        report.fault_stats = self.faults.stats;
        report.victim = self.victim.as_ref().map(|v| v.report);
        if let Some(spm) = self.spm.as_ref() {
            report.vm_restarts = spm.stats.vm_restarts;
            if self.s1_replay.is_some() {
                report.walk_cache = Some(spm.walk_cache_stats());
            }
            // The isolation invariant must survive the whole run.
            spm.audit_isolation().expect("isolation preserved");
        }
        if let Some(rt) = self.theseus.as_ref() {
            report.vm_restarts = rt.total_restarts;
            // The language-level analogue of the SPM audit: every cell
            // live, restart ledger balanced.
            rt.audit().expect("component isolation preserved");
        }
        report
    }
}

/// Convenience: build a machine and run one workload.
pub fn run_workload(cfg: MachineConfig, mut w: Box<dyn Workload>) -> RunReport {
    Machine::new(cfg).run(w.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StackOptions;
    use kh_workloads::gups::{GupsConfig, GupsModel};
    use kh_workloads::selfish::{SelfishConfig, SelfishDetour};
    use kh_workloads::stream::{StreamConfig, StreamModel};

    fn cfg(stack: StackKind, seed: u64) -> MachineConfig {
        MachineConfig::pine_a64(stack, seed)
    }

    fn selfish(duration_ms: u64) -> Box<SelfishDetour> {
        Box::new(SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(duration_ms),
            ..Default::default()
        }))
    }

    fn small_gups() -> Box<GupsModel> {
        Box::new(GupsModel::new(GupsConfig {
            log2_table: 20,
            updates_per_entry: 2,
        }))
    }

    #[test]
    fn model_translation_reports_walk_cache_stats() {
        let mut c = cfg(StackKind::HafniumKitten, 5);
        c.options.model_translation = true;
        let mut m = Machine::new(c);
        let r = m.run(small_gups().as_mut());
        let wc = r.walk_cache.expect("replay must record stats");
        assert!(wc.lookups() > 0);
        assert!(wc.hit_rate() > 0.0, "warm phases must hit the walk cache");
        assert!(wc.walk_cost_factor() < 1.0);
    }

    #[test]
    fn model_translation_off_reports_none_and_is_unchanged() {
        let run = |model: bool| {
            let mut c = cfg(StackKind::HafniumKitten, 5);
            c.options.model_translation = model;
            let mut m = Machine::new(c);
            m.run(small_gups().as_mut())
        };
        let off = run(false);
        assert!(off.walk_cache.is_none());
        // The replay draws from its own RNG stream and only *discounts*
        // walk time: the modeled run is at least as fast, never noisier.
        let on = run(true);
        assert!(on.elapsed <= off.elapsed);
        assert_eq!(on.host_ticks, off.host_ticks);
    }

    #[test]
    fn model_translation_speeds_up_gups_under_virtualization() {
        let run = |model: bool| {
            let mut c = cfg(StackKind::HafniumKitten, 11);
            c.options.model_translation = model;
            let mut m = Machine::new(c);
            m.run(small_gups().as_mut()).elapsed
        };
        let analytic = run(false);
        let cached = run(true);
        assert!(
            cached < analytic,
            "walk cache must shorten two-stage gups: {cached:?} vs {analytic:?}"
        );
    }

    #[test]
    fn native_stack_ignores_model_translation() {
        let mut c = cfg(StackKind::NativeKitten, 3);
        c.options.model_translation = true;
        let mut m = Machine::new(c);
        let r = m.run(small_gups().as_mut());
        assert!(r.walk_cache.is_none(), "no stage 2 to cache natively");
    }

    #[test]
    fn native_kitten_has_few_detours() {
        let mut m = Machine::new(cfg(StackKind::NativeKitten, 1));
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        let detours = r.output.detours().unwrap();
        // 10 Hz tick over 1 s: ~10 detours, nothing else.
        assert!(
            (5..=15).contains(&detours.len()),
            "native detours = {}",
            detours.len()
        );
        assert_eq!(r.background_events, 0);
        assert_eq!(r.vcpu_runs, 0, "no hypervisor in native mode");
    }

    #[test]
    fn kitten_primary_adds_little_noise() {
        let mut m = Machine::new(cfg(StackKind::HafniumKitten, 2));
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        let detours = r.output.detours().unwrap();
        // Host 10 Hz + guest 10 Hz: ~20 events, still tiny.
        assert!(
            (10..=30).contains(&detours.len()),
            "kitten detours = {}",
            detours.len()
        );
        assert!(r.vcpu_runs > 0, "the SPM dispatch path must be exercised");
        assert_eq!(r.background_events, 0, "kitten has no kthreads");
    }

    #[test]
    fn linux_primary_is_noisy_and_scattered() {
        let mut m = Machine::new(cfg(StackKind::HafniumLinux, 3));
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        let linux_detours = r.output.detours().unwrap().len();
        let mut m2 = Machine::new(cfg(StackKind::HafniumKitten, 3));
        let mut w2 = selfish(1000);
        let kitten_detours = m2.run(w2.as_mut()).output.detours().unwrap().len();
        assert!(
            linux_detours > kitten_detours * 5,
            "linux {linux_detours} vs kitten {kitten_detours}"
        );
        assert!(r.background_events > 10, "kthread noise must appear");
    }

    #[test]
    fn detour_magnitudes_increase_under_virtualization() {
        // Figure 5's observation: same count, slightly larger latency.
        let max_detour = |stack, seed| {
            let mut m = Machine::new(cfg(stack, seed));
            let mut w = selfish(1000);
            let r = m.run(w.as_mut());
            r.output
                .detours()
                .unwrap()
                .iter()
                .map(|d| d.duration)
                .max()
                .unwrap_or(Nanos::ZERO)
        };
        let native = max_detour(StackKind::NativeKitten, 5);
        let kitten = max_detour(StackKind::HafniumKitten, 5);
        assert!(
            kitten > native,
            "virtualized detours ({kitten}) must exceed native ({native})"
        );
    }

    #[test]
    fn gups_ordering_matches_figure_7() {
        let gups = |stack, seed| {
            let mut m = Machine::new(cfg(stack, seed));
            let mut w = Box::new(GupsModel::new(GupsConfig::default()));
            m.run(w.as_mut()).output.throughput().unwrap()
        };
        let native = gups(StackKind::NativeKitten, 7);
        let kitten = gups(StackKind::HafniumKitten, 7);
        let linux = gups(StackKind::HafniumLinux, 7);
        assert!(
            native > kitten && kitten > linux,
            "native {native} > kitten {kitten} > linux {linux}"
        );
        let kitten_loss = 1.0 - kitten / native;
        let linux_loss = 1.0 - linux / native;
        // Paper band: Kitten −4.6%, Linux −7%.
        assert!(
            (0.01..0.15).contains(&kitten_loss),
            "kitten loss {kitten_loss}"
        );
        assert!(linux_loss > kitten_loss, "{linux_loss} vs {kitten_loss}");
    }

    #[test]
    fn stream_is_insensitive_to_the_stack() {
        let stream = |stack, seed| {
            let mut m = Machine::new(cfg(stack, seed));
            let mut w = Box::new(StreamModel::new(StreamConfig::default()));
            m.run(w.as_mut()).output.throughput().unwrap()
        };
        let native = stream(StackKind::NativeKitten, 11);
        let kitten = stream(StackKind::HafniumKitten, 11);
        let linux = stream(StackKind::HafniumLinux, 11);
        for (label, v) in [("kitten", kitten), ("linux", linux)] {
            let delta = (1.0 - v / native).abs();
            assert!(delta < 0.02, "{label} stream delta {delta}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = Machine::new(cfg(StackKind::HafniumLinux, seed));
            let mut w = Box::new(GupsModel::new(GupsConfig {
                log2_table: 18,
                updates_per_entry: 2,
            }));
            let r = m.run(w.as_mut());
            (r.elapsed, r.interruptions, r.stolen)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn isolation_holds_through_the_run() {
        let mut m = Machine::new(cfg(StackKind::HafniumKitten, 1));
        let mut w = selfish(100);
        m.run(w.as_mut());
        assert!(m.spm().unwrap().audit_isolation().is_ok());
    }

    #[test]
    fn stolen_time_is_accounted() {
        let mut m = Machine::new(cfg(StackKind::HafniumLinux, 9));
        let mut w = selfish(500);
        let r = m.run(w.as_mut());
        assert!(r.stolen > Nanos::ZERO);
        assert!(r.elapsed > Nanos::from_millis(500));
        assert_eq!(
            r.interruptions,
            r.host_ticks + r.guest_ticks + r.background_events
        );
    }

    #[test]
    fn trace_records_machine_events() {
        use kh_sim::TraceCategory;
        let mut m = Machine::new(cfg(StackKind::HafniumLinux, 8));
        m.enable_tracing(100_000);
        let mut w = selfish(500);
        let r = m.run(w.as_mut());
        let trace = m.trace();
        assert_eq!(
            trace.count(TraceCategory::TimerTick) as u64,
            r.host_ticks + r.guest_ticks
        );
        assert_eq!(
            trace.count(TraceCategory::BackgroundTask) as u64,
            r.background_events
        );
        // Trace time accounting matches the report.
        let ticks = trace.time_in(TraceCategory::TimerTick, 0);
        let bg = trace.time_in(TraceCategory::BackgroundTask, 0);
        assert_eq!(ticks + bg, r.stolen);
        // Events carry labels.
        assert!(trace.iter().any(|e| e.detail == "host-tick"));
        assert!(trace.iter().any(|e| e.detail == "kworker"));
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mut m = Machine::new(cfg(StackKind::HafniumLinux, 8));
        let mut w = selfish(100);
        m.run(w.as_mut());
        assert!(m.trace().is_empty());
    }

    #[test]
    fn injected_fault_aborts_the_vm_cleanly() {
        use kh_hafnium::hypercall::{HfCall, HfError};
        use kh_hafnium::vm::{VcpuState, VmId};
        let mut c = cfg(StackKind::HafniumKitten, 6);
        c.options.inject_fault_at_ns = Some(Nanos::from_millis(100).as_nanos());
        let mut m = Machine::new(c);
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        assert!(r.aborted);
        assert!(
            r.elapsed < Nanos::from_millis(150),
            "run must stop at the fault: {}",
            r.elapsed
        );
        // The VCPU is dead and cannot be re-run; the primary and
        // isolation survive.
        let spm = m.spm.as_mut().unwrap();
        assert!(matches!(
            spm.vm(VmId(2)).unwrap().vcpu(0).unwrap().state,
            VcpuState::Aborted
        ));
        assert_eq!(
            spm.hypercall(
                VmId::PRIMARY,
                0,
                0,
                HfCall::VcpuRun {
                    vm: VmId(2),
                    vcpu: 0
                },
                r.elapsed
            ),
            Err(HfError::NotRunnable)
        );
        assert_eq!(spm.current(0), Some((VmId::PRIMARY, 0)));
        assert!(spm.audit_isolation().is_ok());
    }

    #[test]
    fn fault_injection_is_inert_for_native_runs() {
        let mut c = cfg(StackKind::NativeKitten, 6);
        c.options.inject_fault_at_ns = Some(Nanos::from_millis(100).as_nanos());
        let mut m = Machine::new(c);
        let mut w = selfish(300);
        let r = m.run(w.as_mut());
        assert!(!r.aborted, "no hypervisor, no stage-2 fault to take");
        assert!(r.elapsed >= Nanos::from_millis(300));
    }

    #[test]
    fn fault_plan_degrades_only_the_victim() {
        use kh_sim::{FaultPlan, FaultSpec};
        let clean = {
            let mut m = Machine::new(cfg(StackKind::HafniumKitten, 21));
            let mut w = selfish(300);
            m.run(w.as_mut())
        };
        let faulted = {
            let mut m = Machine::new(cfg(StackKind::HafniumKitten, 21));
            let spec = FaultSpec::parse(
                "crash@50ms,hang@120ms:30ms,drop-mailbox:0.3,corrupt-mailbox:0.2,\
                 lose-doorbell:0.3,lose-irq:0.3,spurious-doorbell:5,spurious-irq:5,\
                 delay-timer:5:1ms,corrupt-ring:0.2",
            )
            .unwrap();
            m.inject_faults(FaultPlan::new(&spec, 7, Nanos::from_millis(300)));
            let mut w = selfish(300);
            m.run(w.as_mut())
        };
        // The acceptance criterion: the benchmark's noise profile is
        // bit-identical with and without the storm next door.
        assert_eq!(clean.output.detours(), faulted.output.detours());
        assert_eq!(clean.elapsed, faulted.elapsed);
        assert_eq!(clean.stolen, faulted.stolen);
        assert_eq!(clean.interruptions, faulted.interruptions);
        // ... while the victim visibly degrades.
        let v = faulted.victim.expect("victim report under a plan");
        assert!(v.heartbeats > 100, "heartbeats = {}", v.heartbeats);
        assert_eq!(v.crashes, 1);
        assert_eq!(v.hangs, 1);
        assert!(v.missed > 0, "a 30ms hang must miss beats");
        assert!(v.dropped + v.corrupt > 0);
        assert!(
            v.frames_echoed > 0,
            "the echo service must still make progress"
        );
        assert!(
            v.rekicks > 0,
            "lost doorbells must be recovered by the watchdog"
        );
        assert_eq!(faulted.vm_restarts, 1);
        assert!(faulted.fault_stats.total() > 0);
        // And a clean run carries no victim at all.
        assert!(clean.victim.is_none());
        assert_eq!(clean.fault_stats.total(), 0);
        assert_eq!(clean.vm_restarts, 0);
    }

    #[test]
    fn faulted_run_is_deterministic_per_fault_seed() {
        use kh_sim::{FaultPlan, FaultSpec};
        let run = |fault_seed| {
            let mut m = Machine::new(cfg(StackKind::HafniumKitten, 13));
            let spec = FaultSpec::parse("drop-mailbox:0.5,lose-doorbell:0.5,lose-irq:0.5").unwrap();
            m.inject_faults(FaultPlan::new(&spec, fault_seed, Nanos::from_millis(200)));
            let mut w = selfish(200);
            let r = m.run(w.as_mut());
            (r.victim.unwrap(), r.fault_stats)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1, "different streams, different losses");
    }

    #[test]
    fn crashed_victim_leaves_isolation_auditable() {
        use kh_sim::{FaultPlan, FaultSpec};
        let mut m = Machine::new(cfg(StackKind::HafniumKitten, 17));
        let spec = FaultSpec::parse("crash@20ms,crash@60ms").unwrap();
        m.inject_faults(FaultPlan::new(&spec, 1, Nanos::from_millis(100)));
        let mut w = selfish(100);
        let r = m.run(w.as_mut());
        assert_eq!(r.victim.unwrap().crashes, 2);
        assert_eq!(r.vm_restarts, 2);
        // run() already audits, but make the property explicit here.
        assert!(m.spm().unwrap().audit_isolation().is_ok());
    }

    #[test]
    fn theseus_is_as_quiet_as_native() {
        let mut m = Machine::new(cfg(StackKind::NativeTheseus, 1));
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        let detours = r.output.detours().unwrap();
        // Same 10 Hz tick as the native LWK, nothing else — and the 1us
        // handler is so cheap it ducks under the detour threshold.
        assert!(
            (5..=15).contains(&r.host_ticks),
            "theseus host ticks = {}",
            r.host_ticks
        );
        assert!(detours.len() <= 15, "theseus detours = {}", detours.len());
        assert_eq!(r.background_events, 0, "no daemons in the safe stack");
        assert_eq!(r.vcpu_runs, 0, "no hypervisor underneath");
        assert!(m.theseus().unwrap().svc_alive());
    }

    #[test]
    fn theseus_pays_only_the_safety_tax_on_gups() {
        let gups = |stack, seed| {
            let mut m = Machine::new(cfg(stack, seed));
            let mut w = Box::new(GupsModel::new(GupsConfig::default()));
            m.run(w.as_mut()).output.throughput().unwrap()
        };
        let native = gups(StackKind::NativeKitten, 7);
        let theseus = gups(StackKind::NativeTheseus, 7);
        let kitten = gups(StackKind::HafniumKitten, 7);
        // Bounds checks cost less than stage-2 walks: the safe stack
        // sits strictly between bare metal and the virtualized LWK.
        assert!(
            native > theseus && theseus > kitten,
            "native {native} > theseus {theseus} > kitten {kitten}"
        );
        let tax = 1.0 - theseus / native;
        assert!((0.005..0.03).contains(&tax), "safety tax {tax}");
    }

    #[test]
    fn theseus_fault_restarts_the_component_and_finishes() {
        let mut c = cfg(StackKind::NativeTheseus, 6);
        c.options.inject_fault_at_ns = Some(Nanos::from_millis(100).as_nanos());
        let mut m = Machine::new(c);
        let mut w = selfish(300);
        let r = m.run(w.as_mut());
        // No SPM abort: the crashed cell is unwound and relinked in
        // place and the run carries on to completion.
        assert!(!r.aborted, "component restart must not kill the run");
        assert!(r.elapsed >= Nanos::from_millis(300));
        assert_eq!(r.vm_restarts, 1, "one component restart recorded");
        let rt = m.theseus().unwrap();
        assert!(rt.svc_alive());
        assert_eq!(rt.total_restarts, 1);
        assert!(rt.audit().is_ok());
    }

    #[test]
    fn theseus_restart_undercuts_spm_reboot() {
        use kh_theseus::runtime::{FAULT_DETECT, RELINK_COST, UNWIND_COST};
        let stolen = |stack| {
            let mut c = cfg(stack, 6);
            c.options.inject_fault_at_ns = Some(Nanos::from_millis(50).as_nanos());
            let mut m = Machine::new(c);
            let mut w = selfish(300);
            let r = m.run(w.as_mut());
            (r.aborted, r.stolen)
        };
        let (theseus_aborted, _) = stolen(StackKind::NativeTheseus);
        let (kitten_aborted, _) = stolen(StackKind::HafniumKitten);
        assert!(!theseus_aborted && kitten_aborted);
        // The cooperative unwind + relink is bounded well under the
        // SPM's image re-verification reboot path (>= 300us).
        let restart = FAULT_DETECT + UNWIND_COST + RELINK_COST;
        assert!(restart < Nanos::from_micros(300), "restart = {restart}");
    }

    #[test]
    fn guest_tick_rate_is_configurable() {
        let mut c = cfg(StackKind::HafniumKitten, 4);
        c.options = StackOptions {
            guest_tick_hz: 100,
            ..Default::default()
        };
        let mut m = Machine::new(c);
        let mut w = selfish(1000);
        let r = m.run(w.as_mut());
        assert!(
            (80..=130).contains(&r.guest_ticks),
            "guest ticks = {}",
            r.guest_ticks
        );
    }

    /// Replays a fixed phase sequence and records every cost the machine
    /// hands back.
    struct PhaseProbe {
        phases: Vec<Phase>,
        next: usize,
        seen: Vec<(Phase, PhaseCost)>,
    }

    impl Workload for PhaseProbe {
        fn name(&self) -> &'static str {
            "phase-probe"
        }

        fn next_phase(&mut self, _now: Nanos) -> Option<Phase> {
            let phase = *self.phases.get(self.next)?;
            self.next += 1;
            Some(phase)
        }

        fn phase_complete(&mut self, _now: Nanos, cost: &PhaseCost) {
            self.seen.push((self.phases[self.next - 1], *cost));
        }

        fn finish(&mut self, _elapsed: Nanos) -> WorkloadOutput {
            WorkloadOutput::Detours(Vec::new())
        }
    }

    /// A walk through phase space where each step changes exactly one
    /// field pricing reads, out and back again, each state issued twice
    /// in a row so the repeated-phase slot is exercised between changes.
    fn probe_phases() -> Vec<Phase> {
        let base = Phase {
            instructions: 40_000,
            mem_refs: 10_000,
            flops: 0,
            footprint: 4 * MB,
            dram_bytes: 0,
            pattern: AccessPattern::Blocked { reuse: 0.5 },
        };
        let steps: [fn(&mut Phase); 7] = [
            |p| p.instructions = 90_000,
            |p| p.mem_refs = 25_000,
            |p| p.footprint = 48 * MB,
            |p| p.pattern = AccessPattern::Blocked { reuse: 0.9 },
            |p| p.pattern = AccessPattern::Random,
            |p| p.dram_bytes = 64 * MB,
            |p| p.pattern = AccessPattern::Stream,
        ];
        let mut states = vec![base];
        for step in steps {
            let mut next = *states.last().unwrap();
            step(&mut next);
            states.push(next);
        }
        let back: Vec<Phase> = states[..states.len() - 1].iter().rev().copied().collect();
        states.extend(back);
        let round: Vec<Phase> = states.iter().flat_map(|&p| [p, p]).collect();
        round.repeat(3)
    }

    /// Every cost the machine loop hands a workload equals a fresh price
    /// of that phase, so the repeated-phase slot never serves a stale
    /// one. Neighbouring probe phases differ in exactly one field pricing
    /// reads (checked to change the price below), and with the walk-cache
    /// replay on, a repeat gets its own walk factor, which a reused cost
    /// would ignore.
    #[test]
    fn repeated_phase_costs_equal_fresh_prices() {
        let phases = probe_phases();
        let timer = CoreTimer::new(cfg(StackKind::NativeKitten, 1).platform);
        for pair in phases.windows(2).filter(|w| w[0] != w[1]) {
            let price = |p: &Phase| {
                timer.price(
                    p,
                    TranslationRegime::TwoStage,
                    &mut PollutionState::default(),
                    1,
                )
            };
            assert_ne!(
                price(&pair[0]),
                price(&pair[1]),
                "{pair:?} must price apart"
            );
        }

        let stacks = [
            (StackKind::NativeKitten, false),
            (StackKind::HafniumKitten, false),
            (StackKind::NativeTheseus, false),
            (StackKind::HafniumKitten, true),
        ];
        for (stack, model_translation) in stacks {
            let mut c = cfg(stack, 9);
            c.options.model_translation = model_translation;
            let mut probe = PhaseProbe {
                phases: phases.clone(),
                next: 0,
                seen: Vec::new(),
            };
            Machine::new(c).run(&mut probe);
            assert_eq!(probe.seen.len(), phases.len(), "{stack:?}");

            // A twin machine replays the same translations (the walk
            // cache sees nothing else in a fault-free run) and prices
            // every phase from scratch.
            let mut twin = Machine::new(c);
            for (i, (phase, cost)) in probe.seen.iter().enumerate() {
                let walk_factor = if model_translation {
                    twin.replay_translation(phase)
                } else {
                    1.0
                };
                let fresh = if walk_factor == 1.0 {
                    twin.timer
                        .price(phase, twin.regime, &mut PollutionState::default(), 1)
                } else {
                    twin.timer.price_with_walk_factor(
                        phase,
                        twin.regime,
                        &mut PollutionState::default(),
                        1,
                        walk_factor,
                    )
                };
                assert_eq!(
                    *cost, fresh,
                    "{stack:?} (replay {model_translation}) phase {i}: {phase:?}"
                );
            }
        }
    }
}
