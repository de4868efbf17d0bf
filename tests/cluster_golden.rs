//! Golden values for the cluster executors under frame corruption.
//!
//! No committed BENCH file corrupts a frame, so this file is the
//! equivalence oracle for the fabric's corrupt gate and the receivers'
//! checksum path: five runs with `corrupt:` armed, three through the
//! svcload loop (no policy, static retries, the adaptive layer) and two
//! through the scenario executor (with a mid-run `crashsvc`). Each run is
//! pinned by a hash of its full report and trace CSV plus the outcome
//! counters, so any change that moves one simulated bit, or one
//! attribution of a corrupt reply, fails here.
//!
//! If a deliberate model change moves them, rerun this file, copy the
//! printed values, and say why in the same change.

use kitten_hafnium::cluster::{self, ClusterConfig, ClusterReport};
use kitten_hafnium::core::config::StackKind;
use kitten_hafnium::scenario::Scenario;
use kitten_hafnium::sim::fault::FabricFaultSpec;
use kitten_hafnium::workloads::adaptive::AdaptivePolicy;
use kitten_hafnium::workloads::svcload::{RetryPolicy, SvcLoadConfig};

/// One run, reduced to exact integers.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a 64 of `render()` followed by `csv()`.
    artifacts: u64,
    sent: u64,
    completed: u64,
    /// `[ok, ok_hedged, shed, deadline, corrupt, failed, refused]`.
    outcomes: [u64; 7],
    /// Frames the fabric delivered with the corrupt flag set.
    corrupted: u64,
    /// Checksum rejections seen by receivers.
    corrupt_rx: u64,
    retransmits: u64,
    hedges: u64,
    crash_drops: u64,
}

fn fnv1a64(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parts.iter().flat_map(|p| p.bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn golden(r: &ClusterReport) -> Golden {
    let o = &r.reliability.outcomes;
    Golden {
        artifacts: fnv1a64(&[&r.render(), &r.csv()]),
        sent: r.sent,
        completed: r.completed,
        outcomes: [
            o.ok,
            o.ok_hedged,
            o.shed,
            o.deadline,
            o.corrupt,
            o.failed,
            o.refused,
        ],
        corrupted: r.fabric.corrupted,
        corrupt_rx: r.reliability.corrupt_rx,
        retransmits: r.reliability.retransmits,
        hedges: r.reliability.hedges,
        crash_drops: r.reliability.crash_drops,
    }
}

fn base(seed: u64, faults: &str) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(8, StackKind::HafniumKitten, seed);
    cfg.svcload = SvcLoadConfig::quick();
    cfg.faults = Some((FabricFaultSpec::parse(faults).unwrap(), seed ^ 0xC0));
    cfg
}

fn check(name: &str, cfg: &ClusterConfig, want: &Golden) {
    let r = cluster::run(cfg);
    assert!(r.fabric.corrupted > 0, "{name}: the corrupt gate must fire");
    assert!(
        r.reliability.corrupt_rx > 0,
        "{name}: receivers must reject corrupt frames"
    );
    let got = golden(&r);
    assert_eq!(&got, want, "{name}: golden moved; got {got:#?}");
}

#[test]
fn svcload_under_corruption_is_pinned() {
    const FAULTS: &str = "corrupt:0.1,drop:0.03";
    let plain = base(23, FAULTS);
    let mut retry = base(23, FAULTS);
    retry.retry = Some(RetryPolicy::default());
    let mut adaptive = base(23, FAULTS);
    adaptive.adaptive = Some(AdaptivePolicy::default());
    check("svcload no policy", &plain, &SVCLOAD_PLAIN);
    check("svcload retry", &retry, &SVCLOAD_RETRY);
    check("svcload adaptive", &adaptive, &SVCLOAD_ADAPTIVE);
}

#[test]
fn scenarios_under_corruption_and_crash_are_pinned() {
    let mut fanout = base(29, "corrupt:0.1,crashsvc@10ms:5");
    fanout.scenario =
        Some(Scenario::parse("arrive=exp:800us,svc=exp,backend=exp,fanout=3:quorum:2").unwrap());
    fanout.retry = Some(RetryPolicy::default());
    let mut closed = base(31, "corrupt:0.08,drop:0.02,crashsvc@20ms:5");
    closed.scenario = Some(
        Scenario::parse(
            "clients=4:think:400us,svc=det,backend=det,\
             fanout=2:quorum:1,tier=2:1:all,retry=t1:adaptive",
        )
        .unwrap(),
    );
    closed.adaptive = Some(AdaptivePolicy::default());
    check("scenario fan-out retry", &fanout, &SCENARIO_FANOUT);
    check("scenario closed-loop adaptive", &closed, &SCENARIO_CLOSED);
}

const SVCLOAD_PLAIN: Golden = Golden {
    artifacts: 0x16bd153e2cbe5d77,
    sent: 377,
    completed: 292,
    outcomes: [292, 0, 0, 0, 37, 48, 0],
    corrupted: 69,
    corrupt_rx: 69,
    retransmits: 0,
    hedges: 0,
    crash_drops: 0,
};

const SVCLOAD_RETRY: Golden = Golden {
    artifacts: 0x8619dce3ee3f1775,
    sent: 377,
    completed: 375,
    outcomes: [375, 0, 0, 0, 2, 0, 0],
    corrupted: 88,
    corrupt_rx: 88,
    retransmits: 105,
    hedges: 0,
    crash_drops: 0,
};

const SVCLOAD_ADAPTIVE: Golden = Golden {
    artifacts: 0x3b19fe74672532da,
    sent: 377,
    completed: 343,
    outcomes: [338, 5, 0, 20, 14, 0, 0],
    corrupted: 79,
    corrupt_rx: 79,
    retransmits: 58,
    hedges: 7,
    crash_drops: 0,
};

const SCENARIO_FANOUT: Golden = Golden {
    artifacts: 0x3984c930eafd8907,
    sent: 254,
    completed: 244,
    outcomes: [244, 0, 0, 6, 4, 0, 0],
    corrupted: 338,
    corrupt_rx: 338,
    retransmits: 853,
    hedges: 0,
    crash_drops: 0,
};

const SCENARIO_CLOSED: Golden = Golden {
    artifacts: 0x7948c48e593b1d65,
    sent: 91,
    completed: 90,
    outcomes: [90, 0, 0, 0, 1, 0, 0],
    corrupted: 77,
    corrupt_rx: 77,
    retransmits: 125,
    hedges: 0,
    crash_drops: 5,
};
