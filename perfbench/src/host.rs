//! Facts about the host a result set was measured on.

/// Pin glibc's allocator to one regime: blocks up to 32 MiB come from
/// the heap, and freed heap memory stays mapped. Left alone, glibc
/// maps large blocks afresh (page faults on every use) until it first
/// frees one and raises its threshold, and whether that happens early
/// or never differs from process to process: cluster set-up then read
/// either ~1 ms or ~3.4 ms per run on the same seed. Pinned, every
/// run allocates the same way.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only updates allocator parameters; it is
        // called before any other thread exists.
        let ok =
            unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) + mallopt(M_TRIM_THRESHOLD, 1 << 30) };
        assert_eq!(ok, 2, "mallopt failed");
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it. One process runs one workload, so this
/// is the workload's own peak.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `nproc` and CPU model, recorded with every result set.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc {nproc}, cpu \"{model}\", experiment pool 1 job, 1 thread")
}

/// The calibration pass's time on the host the benchmark was defined
/// on (2-core Xeon VM). Host times are reported at this host speed:
/// each timed sample is divided by a calibration pass run next to it,
/// and the median ratio is multiplied by this.
pub const CALIBRATION_REF_S: f64 = 0.02;

/// A fixed, program-independent kernel timed next to the workload to
/// track the host's speed. On a shared host, neighbours slow the
/// simulator by up to a fifth for a fraction of a second to minutes at
/// a time. Kernels slow by different amounts: a serial hash chain
/// hardly at all, a sort of a 2 MiB array or B-tree churn more than
/// the simulator. Sampled next to simulator iterations, an equal-time
/// blend of the three tracked the simulator's speed best. No program
/// change can move the pass, so scaled times still move with the
/// program.
pub struct Calibration {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    chain: Vec<u8>,
}

impl Default for Calibration {
    fn default() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let keys: Vec<u64> = (0..1u64 << 18)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibration {
            scratch: keys.clone(),
            chain: keys.iter().take(1 << 13).map(|&k| k as u8).collect(),
            keys,
        }
    }
}

impl Calibration {
    /// Seconds for one pass: sort, hash chain, B-tree churn, about a
    /// third of the time each.
    pub fn measure(&mut self) -> f64 {
        use std::hint::black_box;
        self.scratch.copy_from_slice(&self.keys);
        let t0 = std::time::Instant::now();
        self.scratch.sort_unstable();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..600 {
            for &b in black_box(&self.chain) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut tree = std::collections::BTreeMap::new();
        for (i, &k) in self.keys[..40_000].iter().enumerate() {
            tree.insert(k % 20_000, i);
            if i % 3 == 0 {
                tree.remove(&(k.rotate_left(17) % 20_000));
            }
        }
        let s = t0.elapsed().as_secs_f64();
        black_box((h, &self.scratch, tree.len()));
        s
    }
}
