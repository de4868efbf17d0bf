//! The selfish-detour benchmark (Figures 4–6).
//!
//! Selfish-detour (from ANL's "selfish" noise benchmark family) spins in
//! a tight timestamp-reading loop and records a *detour* whenever the
//! gap between consecutive iterations exceeds a threshold — i.e. whenever
//! the OS stole the CPU. The output is a scatter of (time, detour
//! duration) points characterizing the node's noise profile.
//!
//! The simulation model runs the same algorithm over virtual time: the
//! loop body is a short compute phase; the executor stretches a phase
//! when machine events (ticks, VM exits, background tasks) interrupt it,
//! and the benchmark compares each phase's observed duration against the
//! calibrated minimum, exactly like the real benchmark.
//!
//! A native runner ([`run_native`]) executes the real spin loop on the
//! host for the quickstart example and for validating the detection
//! logic itself.

use crate::{Detour, Workload, WorkloadOutput};
use kh_arch::cpu::{Phase, PhaseCost};
use kh_sim::Nanos;

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct SelfishConfig {
    /// Instructions per loop chunk (one phase). Small enough that detour
    /// timestamps have microsecond resolution.
    pub chunk_instructions: u64,
    /// Total run length in virtual time.
    pub duration: Nanos,
    /// A phase counts as detoured when its elapsed time exceeds
    /// `threshold_factor × calibrated_minimum`.
    pub threshold_factor: f64,
    /// Chunks used to calibrate the minimum before detection starts.
    pub warmup_chunks: u32,
}

impl Default for SelfishConfig {
    fn default() -> Self {
        SelfishConfig {
            chunk_instructions: 2_000,
            duration: Nanos::from_secs(1),
            threshold_factor: 2.0,
            warmup_chunks: 64,
        }
    }
}

/// The simulation-side benchmark.
#[derive(Debug)]
pub struct SelfishDetour {
    cfg: SelfishConfig,
    started: Option<Nanos>,
    phase_start: Nanos,
    min_elapsed: Nanos,
    /// `threshold_for(min_elapsed, threshold_factor)`, refreshed
    /// whenever the minimum drops.
    threshold: Nanos,
    chunks_done: u32,
    detours: Vec<Detour>,
    done: bool,
}

impl SelfishDetour {
    pub fn new(cfg: SelfishConfig) -> Self {
        SelfishDetour {
            cfg,
            started: None,
            phase_start: Nanos::ZERO,
            min_elapsed: Nanos::MAX,
            threshold: threshold_for(Nanos::MAX, cfg.threshold_factor),
            chunks_done: 0,
            detours: Vec::new(),
            done: false,
        }
    }

    pub fn detour_count(&self) -> usize {
        self.detours.len()
    }
}

/// A phase longer than this, given the calibrated minimum, is a detour.
fn threshold_for(min_elapsed: Nanos, factor: f64) -> Nanos {
    Nanos((min_elapsed.as_nanos() as f64 * factor) as u64)
}

impl Workload for SelfishDetour {
    fn name(&self) -> &'static str {
        "selfish-detour"
    }

    #[inline]
    fn next_phase(&mut self, now: Nanos) -> Option<Phase> {
        if self.done {
            return None;
        }
        let start = *self.started.get_or_insert(now);
        if now.saturating_sub(start) >= self.cfg.duration {
            self.done = true;
            return None;
        }
        self.phase_start = now;
        Some(Phase::compute(self.cfg.chunk_instructions))
    }

    #[inline]
    fn phase_complete(&mut self, now: Nanos, _cost: &PhaseCost) {
        let elapsed = now.saturating_sub(self.phase_start);
        self.chunks_done += 1;
        if elapsed < self.min_elapsed {
            self.min_elapsed = elapsed;
            self.threshold = threshold_for(elapsed, self.cfg.threshold_factor);
        }
        if self.chunks_done <= self.cfg.warmup_chunks {
            return;
        }
        if elapsed > self.threshold {
            let run_start = self.started.unwrap_or(Nanos::ZERO);
            self.detours.push(Detour {
                at: self.phase_start.saturating_sub(run_start),
                duration: elapsed.saturating_sub(self.min_elapsed),
            });
        }
    }

    fn finish(&mut self, _elapsed: Nanos) -> WorkloadOutput {
        WorkloadOutput::Detours(std::mem::take(&mut self.detours))
    }
}

/// Result of a native (host) run.
#[derive(Debug, Clone)]
pub struct NativeSelfishResult {
    pub detours: Vec<Detour>,
    pub iterations: u64,
    pub min_iter: Nanos,
}

/// Run the real spin loop on the host for `duration` wall time. The host
/// is a noisy multi-tasking machine, so this mostly demonstrates the
/// detection algorithm; the controlled experiments use the model.
pub fn run_native(duration: std::time::Duration, threshold_factor: f64) -> NativeSelfishResult {
    use std::time::Instant;
    let start = Instant::now();
    let mut last = start;
    let mut min_gap = u64::MAX;
    let mut iterations = 0u64;
    let mut detours = Vec::new();
    // Calibrate for the first 1% of the run.
    let calibration = duration / 100;
    while start.elapsed() < duration {
        let now = Instant::now();
        let gap = now.duration_since(last).as_nanos() as u64;
        last = now;
        iterations += 1;
        if gap == 0 {
            continue;
        }
        min_gap = min_gap.min(gap);
        if start.elapsed() > calibration {
            let threshold = (min_gap as f64 * threshold_factor) as u64;
            if gap > threshold.max(200) {
                detours.push(Detour {
                    at: Nanos(start.elapsed().as_nanos() as u64),
                    duration: Nanos(gap - min_gap),
                });
            }
        }
    }
    NativeSelfishResult {
        detours,
        iterations,
        min_iter: Nanos(if min_gap == u64::MAX { 0 } else { min_gap }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kh_arch::cpu::PhaseCost;

    fn cost() -> PhaseCost {
        PhaseCost {
            cycles: 2000,
            time: Nanos(1800),
            walk_cycles: 0,
            rewarm_cycles: 0,
            bandwidth_bound: false,
        }
    }

    /// Drive the model by hand: constant 1.8 µs phases except a few
    /// stretched ones.
    #[test]
    fn detects_stretched_phases() {
        let mut s = SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(10),
            warmup_chunks: 8,
            ..Default::default()
        });
        let mut now = Nanos::ZERO;
        let mut phase_idx = 0u32;
        while let Some(_p) = s.next_phase(now) {
            phase_idx += 1;
            // Every 100th phase is interrupted for 50 µs.
            let elapsed = if phase_idx.is_multiple_of(100) {
                Nanos(1_800 + 50_000)
            } else {
                Nanos(1_800)
            };
            now += elapsed;
            s.phase_complete(now, &cost());
        }
        let out = s.finish(now);
        let detours = out.detours().unwrap();
        assert!(!detours.is_empty());
        // ~5555 phases in 10ms → ~55 interruptions (minus warmup effects)
        assert!((40..70).contains(&detours.len()), "{}", detours.len());
        for d in detours {
            // Detour duration ≈ the 50 µs steal.
            assert!((45_000..55_000).contains(&d.duration.as_nanos()), "{:?}", d);
            assert!(d.at <= Nanos::from_millis(10));
        }
    }

    #[test]
    fn quiet_run_has_no_detours() {
        let mut s = SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(5),
            ..Default::default()
        });
        let mut now = Nanos::ZERO;
        while let Some(_p) = s.next_phase(now) {
            now += Nanos(1_800);
            s.phase_complete(now, &cost());
        }
        assert_eq!(s.detour_count(), 0);
    }

    #[test]
    fn warmup_suppresses_initial_jitter() {
        let mut s = SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(5),
            warmup_chunks: 16,
            ..Default::default()
        });
        let mut now = Nanos::ZERO;
        let mut i = 0;
        while let Some(_p) = s.next_phase(now) {
            i += 1;
            // Cold-start jitter in the first 10 phases.
            let elapsed = if i < 10 { Nanos(9_000) } else { Nanos(1_800) };
            now += elapsed;
            s.phase_complete(now, &cost());
        }
        assert_eq!(s.detour_count(), 0, "warmup phases must not count");
    }

    #[test]
    fn terminates_at_duration() {
        let mut s = SelfishDetour::new(SelfishConfig {
            duration: Nanos::from_millis(1),
            ..Default::default()
        });
        let mut now = Nanos::ZERO;
        let mut phases = 0u32;
        while let Some(_p) = s.next_phase(now) {
            phases += 1;
            now += Nanos(1_800);
            s.phase_complete(now, &cost());
            assert!(phases < 10_000, "must terminate");
        }
        // ~1ms / 1.8µs ≈ 555 phases
        assert!((500..620).contains(&phases), "{phases}");
    }

    /// Reference detector: recomputes the threshold from the running
    /// minimum on every phase.
    fn reference_detours(cfg: &SelfishConfig, elapsed: &[u64]) -> Vec<Detour> {
        let (mut now, mut min, mut detours) = (0u64, u64::MAX, Vec::new());
        for (i, &e) in elapsed.iter().enumerate() {
            min = min.min(e);
            if i as u32 >= cfg.warmup_chunks && e > (min as f64 * cfg.threshold_factor) as u64 {
                detours.push(Detour {
                    at: Nanos(now),
                    duration: Nanos(e - min),
                });
            }
            now += e;
        }
        detours
    }

    /// The cached threshold follows every new minimum: one at the last
    /// warm-up chunk (64), one at the first measured chunk (65) and one
    /// long after warm-up. Each is probed at exactly its threshold (not a
    /// detour) and one nanosecond above it (a detour).
    #[test]
    fn cached_threshold_matches_recomputed_reference() {
        for threshold_factor in [2.0, 1.37] {
            let cfg = SelfishConfig {
                duration: Nanos::MAX,
                threshold_factor,
                ..Default::default()
            };
            let at = |min: u64| (min as f64 * threshold_factor) as u64;
            let mut elapsed = vec![2_000; 63];
            elapsed.extend([1_900, 1_800, at(1_800), at(1_800) + 1]);
            elapsed.extend([1_800; 2_000]);
            elapsed.extend([1_700, at(1_700), at(1_700) + 1, at(1_800), 1_800]);

            let mut s = SelfishDetour::new(cfg);
            let mut now = Nanos::ZERO;
            for &e in &elapsed {
                s.next_phase(now).expect("unbounded run");
                now += Nanos(e);
                s.phase_complete(now, &cost());
            }
            let want = reference_detours(&cfg, &elapsed);
            let got = s.finish(now);
            assert_eq!(got.detours().unwrap(), want, "factor {threshold_factor}");
            // Threshold + 1 ns after each new minimum, and the old
            // minimum's threshold once the minimum has dropped.
            assert_eq!(want.len(), 3, "factor {threshold_factor}");
        }
    }

    #[test]
    fn native_runner_smoke() {
        let r = run_native(std::time::Duration::from_millis(30), 10.0);
        assert!(r.iterations > 1000, "spin loop must actually spin");
        // min_iter is sub-microsecond on any modern host.
        assert!(r.min_iter < Nanos::from_micros(10));
    }
}
