//! The two cluster workloads: `svcload-open` (open-loop svcload on a
//! clean fabric) and `scenario-faulted` (closed-loop sessions over a
//! depth-2 tier chain with attestation, the adaptive reliability layer,
//! frame loss and one service-VM crash). Each runs once per server arm.

use crate::metrics::{error_rate, reportable_tail, samples_beyond, Metric, Ratio};
use crate::trace::{Totals, Tracer};
use crate::{median_ns, median_s, stack_label, Bench, Digest, Size, Workload};
use kh_cluster::figures::ARMS;
use kh_cluster::{ClusterConfig, ClusterReport, Fabric, Node, Role, DEFAULT_QUEUE_DEPTH};
use kh_scenario::Scenario;
use kh_sim::{FabricFaultSpec, Nanos, SimRng};
use kh_virtio::LinkProfile;
use kh_workloads::adaptive::AdaptivePolicy;
use kh_workloads::svcload::{decode_frame, request_frame_into, response_frame_into};
use std::hint::black_box;

const NODES: usize = 8;
/// Closed-loop sessions over a depth-2 chain: each request fans out to
/// two tier-1 backends joined at quorum 1, each of which calls one
/// tier-2 backend.
const SCENARIO_SPEC: &str =
    "clients=2:think:2ms:exp,svc=exp,backend=det,fanout=2:quorum:1,tier=2:1:all";
/// Buffers the frame probe cycles through; bounds its memory.
const PROBE_BUFFERS: usize = 4096;

pub struct ClusterBench {
    workload: Workload,
    size: Size,
    run_seed: u64,
    duration: Nanos,
    spec_text: Option<String>,
    fault_text: Option<String>,
    fault_seed: u64,
}

impl ClusterBench {
    /// Every input is a function of `seed`: the cluster seed, and for
    /// the faulted scenario the crash instant, crashed server and
    /// fault-stream seed.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Self {
        let mut rng = SimRng::new(seed ^ 0x7065_7266_6265_6E63); // "perfbenc"
        let run_seed = rng.next_u64();
        let fault_seed = rng.next_u64();
        let scenario = workload == Workload::ScenarioFaulted;
        let duration = match (scenario, size) {
            (false, Size::Full) => Nanos::from_millis(1500),
            (true, Size::Full) => Nanos::from_millis(2000),
            (false, Size::Tiny) => Nanos::from_millis(20),
            (true, Size::Tiny) => Nanos::from_millis(30),
        };
        let (spec_text, fault_text) = if scenario {
            // The crash lands between 35% and 55% of the window, on any
            // server, leaving runway for detection, restart and drain.
            let ms = duration.as_nanos() / 1_000_000;
            let crash_ms = ms * 35 / 100 + rng.next_below(ms * 20 / 100 + 1);
            let clients = NODES / 2;
            let node = clients as u64 + rng.next_below((NODES - clients) as u64);
            (
                Some(SCENARIO_SPEC.to_string()),
                Some(format!("drop:0.01,crashsvc@{crash_ms}ms:{node}")),
            )
        } else {
            (None, None)
        };
        ClusterBench {
            workload,
            size,
            run_seed,
            duration,
            spec_text,
            fault_text,
            fault_seed,
        }
    }

    fn probe_ops(&self) -> u64 {
        match self.size {
            Size::Full => 20_000,
            Size::Tiny => 200,
        }
    }
}

pub struct ClusterSetup {
    arms: Vec<ClusterConfig>,
    failures: Vec<String>,
}

pub struct ArmRun {
    report: ClusterReport,
    render: String,
    csv: String,
}

impl Bench for ClusterBench {
    type Setup = ClusterSetup;
    type Iter = Vec<ArmRun>;

    fn setup(&self, t: &mut Tracer) -> ClusterSetup {
        let scenario = self.spec_text.as_ref().map(|s| {
            t.span("kh_scenario::Scenario::parse", || Scenario::parse(s))
                .expect("generated scenario spec parses")
        });
        let faults = self.fault_text.as_ref().map(|s| {
            t.span("kh_sim::FabricFaultSpec::parse", || {
                FabricFaultSpec::parse(s)
            })
            .expect("generated fault spec parses")
        });
        let mut failures = Vec::new();
        let arms: Vec<ClusterConfig> = ARMS
            .iter()
            .map(|&stack| {
                let mut cfg = ClusterConfig::new(NODES, stack, self.run_seed);
                cfg.svcload.duration = self.duration;
                cfg.scenario = scenario.clone();
                cfg.faults = faults.clone().map(|f| (f, self.fault_seed));
                if self.workload == Workload::ScenarioFaulted {
                    cfg.attest = true;
                    cfg.adaptive = Some(AdaptivePolicy::default());
                }
                // Boot (and attest) with no traffic at all.
                let mut idle = cfg.clone();
                idle.svcload.duration = Nanos::ZERO;
                let r = t.span("kh_cluster::run[zero-traffic]", || kh_cluster::run(&idle));
                if r.sent != 0 {
                    failures.push(format!(
                        "zero-traffic {} run sent {}",
                        stack_label(stack),
                        r.sent
                    ));
                }
                cfg
            })
            .collect();
        ClusterSetup { arms, failures }
    }

    fn iterate(&self, s: &ClusterSetup, t: &mut Tracer) -> Vec<ArmRun> {
        s.arms
            .iter()
            .map(|cfg| {
                let label = stack_label(cfg.server_stack);
                let report = t.span(&format!("kh_cluster::run[{label}]"), || {
                    kh_cluster::run(cfg)
                });
                let (render, csv) =
                    t.span("kh_metrics::report", || (report.render(), report.csv()));
                ArmRun {
                    report,
                    render,
                    csv,
                }
            })
            .collect()
    }

    fn digest(&self, it: &Vec<ArmRun>) -> u64 {
        let mut d = Digest::default();
        for a in it {
            let r = &a.report;
            d.feed(a.csv.as_bytes());
            d.feed(a.render.as_bytes());
            let counters = format!(
                "{:?}{:?}{:?}{:?}{:?}{:?}",
                r.fabric,
                r.fault_stats,
                r.reliability,
                r.recoveries,
                r.per_node
                    .iter()
                    .map(|n| (n.stats, n.noise_hist.count()))
                    .collect::<Vec<_>>(),
                r.scenario,
            );
            d.feed(counters.as_bytes());
            if let Some(att) = &r.attestation {
                d.feed(att.csv().as_bytes());
            }
        }
        d.value()
    }

    fn attempted_failed(&self, it: &Vec<ArmRun>) -> (u64, u64) {
        let e = errors(it);
        (e.base, e.num)
    }

    fn check(&self, s: &ClusterSetup, it: &Vec<ArmRun>) -> Vec<String> {
        let mut bad = s.failures.clone();
        for a in it {
            let arm = stack_label(a.report.server_stack);
            check_report(arm, &a.report, &mut bad);
        }
        bad
    }

    fn probe(&self, s: &ClusterSetup, it: &Vec<ArmRun>, t: &mut Tracer) {
        // Probes replay layer functions on the Kitten arm's own inputs:
        // its frame count and size mix, its service phase and load.
        let cfg = &s.arms[0];
        let r = &it[0].report;
        let sv = &cfg.svcload;
        let ops = self.probe_ops();
        let frames = r.fabric.frames_forwarded.max(1);
        // Responses among the frames, from bytes = req*n_req + resp*n_resp.
        let (req_b, resp_b) = (sv.request_bytes as u64, sv.response_bytes as u64);
        let resp = r
            .fabric
            .bytes_forwarded
            .saturating_sub(frames * req_b)
            .checked_div(resp_b.saturating_sub(req_b))
            .unwrap_or(0)
            .min(frames);
        let resp_frac = resp as f64 / frames as f64;
        let is_resp =
            |k: u64| ((k + 1) as f64 * resp_frac).floor() > (k as f64 * resp_frac).floor();
        let clients = cfg.clients() as u64;
        let mut bufs: Vec<Vec<u8>> = (0..PROBE_BUFFERS)
            .map(|_| Vec::with_capacity(sv.response_bytes))
            .collect();

        t.span("probe:kh_workloads::encode", || {
            for k in 0..ops {
                let buf = &mut bufs[k as usize % PROBE_BUFFERS];
                let (client, sent) = ((k % clients) as u16, Nanos(k * 1_000));
                if is_resp(k) {
                    response_frame_into(sv, k, client, sent, 0, buf);
                } else {
                    request_frame_into(sv, k, client, sent, 0, buf);
                }
            }
        });
        t.span("probe:kh_workloads::decode", || {
            for k in 0..ops {
                black_box(decode_frame(black_box(&bufs[k as usize % PROBE_BUFFERS]))).ok();
            }
        });

        let mut fabric = Fabric::new(
            LinkProfile::from_platform(&cfg.platform),
            DEFAULT_QUEUE_DEPTH,
            NODES,
        );
        let servers = cfg.servers() as u64;
        t.span("probe:kh_cluster::Fabric::transit", || {
            for k in 0..ops {
                let bytes = if is_resp(k) { resp_b } else { req_b };
                let (src, dst) = ((k % clients) as u16, (clients + k % servers) as u16);
                black_box(fabric.transit(src, dst, bytes, Nanos(k * 20_000)));
            }
        });

        // One server's share of the offered load, back to back.
        let mut node = Node::new(
            clients as u16,
            Role::Server,
            cfg.server_stack,
            cfg.platform,
            self.run_seed,
        );
        let phase = sv.service_phase();
        let gap = sv.mean_interarrival.as_nanos();
        t.span("probe:kh_cluster::Node::serve", || {
            for k in 0..ops {
                black_box(node.serve(Nanos(k * gap), &phase, Nanos::MAX));
            }
        });
    }

    fn sim_end_to_end(&self, it: &Vec<ArmRun>) -> Vec<(Metric, String)> {
        let us = |ns: f64| ns / 1e3;
        let kitten = &it[0].report.latency;
        let n = kitten.count();
        let mut out = vec![
            (
                Metric::new("p50_us", "us", us(kitten.median())),
                format!("[Kitten arm, n={n}; unvalidated: no reference]"),
            ),
            (
                Metric::new("p99_us", "us", us(kitten.p99())),
                format!("[Kitten arm, {} samples beyond]", samples_beyond(n, 0.99)),
            ),
        ];
        out.push(match reportable_tail(kitten, 0.999) {
            Some(t) => (
                Metric::new("p999_us", "us", us(t.value)),
                format!("[Kitten arm, {} samples beyond]", t.beyond),
            ),
            None => (
                Metric::new("p999_us", "us", f64::NAN),
                format!(
                    "[not reported: {} samples beyond, fewer than 10]",
                    samples_beyond(n, 0.999)
                ),
            ),
        });
        for a in &it[1..] {
            let label = stack_label(a.report.server_stack);
            out.push((
                Metric::new(format!("p99_us.{label}"), "us", us(a.report.latency.p99())),
                format!(
                    "[{label} arm, {} samples beyond]",
                    samples_beyond(a.report.latency.count(), 0.99)
                ),
            ));
        }
        let e = errors(it);
        out.push((
            Metric::new("error_rate", "fraction", e.value()),
            format!("[{} of {} requests not ok, all arms]", e.num, e.base),
        ));
        out
    }

    fn per_layer(&self, setup: &[Totals], iters: &[Totals], it: &Vec<ArmRun>) -> Vec<Metric> {
        let ops = self.probe_ops() as f64;
        let mut m = vec![
            Metric::new(
                "kh_scenario.parse_s",
                "s",
                median_s(setup, "kh_scenario::Scenario::parse"),
            ),
            Metric::new(
                "kh_sim.fault_parse_s",
                "s",
                median_s(setup, "kh_sim::FabricFaultSpec::parse"),
            ),
            Metric::new(
                "kh_cluster.boot_s",
                "s",
                median_s(setup, "kh_cluster::run[zero-traffic]"),
            ),
            Metric::new(
                "kh_metrics.report_s",
                "s",
                median_s(iters, "kh_metrics::report"),
            ),
        ];
        let mut run_ns = 0.0;
        for a in it {
            let label = stack_label(a.report.server_stack);
            let ns = median_ns(iters, &format!("kh_cluster::run[{label}]"));
            run_ns += ns;
            m.push(Metric::new(
                format!("kh_cluster.run_s.{label}"),
                "s",
                ns / 1e9,
            ));
        }
        let encode_ns = median_ns(iters, "probe:kh_workloads::encode") / ops;
        let decode_ns = median_ns(iters, "probe:kh_workloads::decode") / ops;
        m.push(Metric::new("kh_workloads.encode_ns", "ns", encode_ns));
        m.push(Metric::new("kh_workloads.decode_ns", "ns", decode_ns));
        m.push(Metric::new(
            "kh_cluster.transit_ns",
            "ns",
            median_ns(iters, "probe:kh_cluster::Fabric::transit") / ops,
        ));
        m.push(Metric::new(
            "kh_cluster.serve_ns",
            "ns",
            median_ns(iters, "probe:kh_cluster::Node::serve") / ops,
        ));

        // Simulated counters, summed over arms (and server nodes) unless
        // suffixed with an arm.
        let sum = |f: &dyn Fn(&ClusterReport) -> u64| it.iter().map(|a| f(&a.report)).sum::<u64>();
        let forwarded = sum(&|r| r.fabric.frames_forwarded);
        let drops = sum(&|r| r.fabric.total_drops());
        m.push(Metric::new("fabric.frames", "count", forwarded as f64));
        m.push(Metric::new(
            "fabric.bytes",
            "bytes",
            sum(&|r| r.fabric.bytes_forwarded) as f64,
        ));
        m.push(Metric::new("fabric.drops", "count", drops as f64));
        m.push(Metric::new(
            "fabric.corrupted",
            "count",
            sum(&|r| r.fabric.corrupted) as f64,
        ));
        // Frames are encoded once per send and decoded once per delivery.
        m.push(Metric::new(
            "kh_workloads.frame_share",
            "fraction",
            (encode_ns * (forwarded + drops) as f64 + decode_ns * forwarded as f64) / run_ns,
        ));
        m.push(Metric::new(
            "kh_cluster.ns_per_frame",
            "ns",
            run_ns / forwarded.max(1) as f64,
        ));

        let servers = |r: &ClusterReport, f: &dyn Fn(&kh_cluster::NodeStats) -> u64| -> u64 {
            r.per_node
                .iter()
                .filter(|n| n.role == Role::Server)
                .map(|n| f(&n.stats))
                .sum()
        };
        for a in it {
            let r = &a.report;
            let label = stack_label(r.server_stack);
            let stolen = servers(r, &|s| s.stolen.as_nanos());
            m.push(Metric::new(
                format!("node.stolen_us.{label}"),
                "us",
                stolen as f64 / 1e3,
            ));
            m.push(Metric::new(
                format!("node.host_ticks.{label}"),
                "count",
                servers(r, &|s| s.host_ticks) as f64,
            ));
            m.push(Metric::new(
                format!("node.background_events.{label}"),
                "count",
                servers(r, &|s| s.background_events) as f64,
            ));
            m.push(Metric::new(
                format!("node.vcpu_runs.{label}"),
                "count",
                servers(r, &|s| s.vcpu_runs) as f64,
            ));
        }
        let all_servers = |f: &dyn Fn(&kh_cluster::NodeStats) -> u64| -> f64 {
            it.iter().map(|a| servers(&a.report, f)).sum::<u64>() as f64
        };
        m.push(Metric::new(
            "node.served",
            "count",
            all_servers(&|s| s.served),
        ));
        m.push(Metric::new("node.shed", "count", all_servers(&|s| s.shed)));
        m.push(Metric::new(
            "node.dup_hits",
            "count",
            all_servers(&|s| s.dup_hits),
        ));
        m.push(Metric::new(
            "node.crash_drops",
            "count",
            all_servers(&|s| s.crash_drops),
        ));
        m.push(Metric::new(
            "node.restarts",
            "count",
            all_servers(&|s| s.restarts),
        ));

        let retransmits = sum(&|r| r.reliability.retransmits);
        let hedges = sum(&|r| r.reliability.hedges);
        let sent = sum(&|r| r.sent);
        let useful = Ratio {
            num: sum(&|r| r.reliability.outcomes.good()),
            base: sent + retransmits + hedges,
        };
        m.push(Metric::new("rel.retransmits", "count", retransmits as f64));
        m.push(Metric::new("rel.hedges", "count", hedges as f64));
        m.push(Metric::new(
            "rel.suppressed",
            "count",
            sum(&|r| r.reliability.retries_suppressed + r.reliability.hedges_suppressed) as f64,
        ));
        m.push(Metric::new(
            "rel.dups_absorbed",
            "count",
            sum(&|r| r.reliability.dups_absorbed) as f64,
        ));
        m.push(Metric::new(
            "rel.breaker_opens",
            "count",
            sum(&|r| r.reliability.breaker_opens) as f64,
        ));
        m.push(Metric::new(
            "rel.nacks",
            "count",
            sum(&|r| r.reliability.nacks_sent) as f64,
        ));
        m.push(Metric::new("rel.useful_ratio", "fraction", useful.value()));
        m.push(Metric::new(
            "rel.transmissions",
            "count",
            useful.base as f64,
        ));

        let scn = |f: &dyn Fn(&kh_cluster::ScenarioStats) -> u64| -> u64 {
            it.iter()
                .filter_map(|a| a.report.scenario.as_ref())
                .map(f)
                .sum()
        };
        let legs = Ratio {
            num: scn(&|s| s.legs_ok),
            base: scn(&|s| s.legs_sent),
        };
        m.push(Metric::new("scn.legs_sent", "count", legs.base as f64));
        m.push(Metric::new("scn.legs_ok", "count", legs.num as f64));
        m.push(Metric::new(
            "scn.late_legs",
            "count",
            scn(&|s| s.late_legs) as f64,
        ));
        m.push(Metric::new(
            "scn.joins_failed",
            "count",
            scn(&|s| s.joins_failed) as f64,
        ));
        m.push(Metric::new("scn.leg_yield", "fraction", legs.value()));
        if let Some(s) = &it[0].report.scenario {
            m.push(Metric::new("scn.tier1_p99_us", "us", s.tier1.p99() / 1e3));
        }
        m.push(Metric::new(
            "kh_cluster.ns_per_leg",
            "ns",
            run_ns / (sent + legs.base + retransmits + hedges).max(1) as f64,
        ));

        if let Some(att) = &it[0].report.attestation {
            m.push(Metric::new("attest.frames", "count", att.frames as f64));
            m.push(Metric::new(
                "attest.done_us",
                "us",
                att.completed_at.as_nanos() as f64 / 1e3,
            ));
        }
        m
    }

    fn describe(&self) -> String {
        format!(
            "{NODES} nodes ({} clients, {} servers), arms {:?}, {} ms simulated per arm, \
             cluster seed {:#x}, scenario {:?}, faults {:?}, attestation {}, policy {}",
            NODES / 2,
            NODES - NODES / 2,
            ARMS.map(stack_label),
            self.duration.as_nanos() / 1_000_000,
            self.run_seed,
            self.spec_text
                .as_deref()
                .unwrap_or("none (svcload open loop)"),
            self.fault_text.as_deref().unwrap_or("none"),
            self.workload == Workload::ScenarioFaulted,
            if self.workload == Workload::ScenarioFaulted {
                "adaptive"
            } else {
                "none"
            },
        )
    }
}

/// Requests not ok over requests sent, all arms.
fn errors(it: &[ArmRun]) -> Ratio {
    it.iter()
        .map(|a| error_rate(&a.report.reliability.outcomes))
        .fold(Ratio::default(), |a, b| a + b)
}

/// Conservation checks on one arm's report.
fn check_report(arm: &str, r: &ClusterReport, bad: &mut Vec<String>) {
    // One record per client request (tier 0) and per backend leg.
    let o = &r.reliability.outcomes;
    let requests = r.records.iter().filter(|rec| rec.tier == 0).count() as u64;
    if o.total() != r.sent || requests != r.sent {
        bad.push(format!(
            "{arm}: outcomes sum to {} and {requests} request records, but {} requests sent",
            o.total(),
            r.sent
        ));
    }
    if r.completed != o.good() {
        bad.push(format!(
            "{arm}: completed {} != ok outcomes {}",
            r.completed,
            o.good()
        ));
    }
    let leg_records = r.records.len() as u64 - requests;
    let legs_sent = r.scenario.as_ref().map_or(0, |s| s.legs_sent);
    if leg_records != legs_sent {
        bad.push(format!(
            "{arm}: {leg_records} leg records, {legs_sent} legs sent"
        ));
    }
    if let Some(s) = &r.scenario {
        let ended = s.legs_ok + s.legs_shed + s.legs_failed + s.legs_refused;
        if ended != s.legs_sent {
            bad.push(format!(
                "{arm}: leg outcomes sum to {ended}, {} legs sent",
                s.legs_sent
            ));
        }
    }
    let f = &r.fabric;
    let port = |g: &dyn Fn(&kh_cluster::PortStats) -> u64| f.per_port.iter().map(g).sum::<u64>();
    let pairs = [
        ("forwarded", port(&|p| p.forwarded), f.frames_forwarded),
        ("queue_drops", port(&|p| p.queue_drops), f.queue_drops),
        ("loss_drops", port(&|p| p.loss_drops), f.loss_drops),
        (
            "partition_drops",
            port(&|p| p.partition_drops),
            f.partition_drops,
        ),
        ("corrupted", port(&|p| p.corrupted), f.corrupted),
    ];
    for (name, per_port, total) in pairs {
        if per_port != total {
            bad.push(format!(
                "{arm}: fabric per-port {name} sum {per_port} != total {total}"
            ));
        }
    }
    for n in &r.per_node {
        let hist_ns = if n.noise_hist.count() == 0 {
            0.0
        } else {
            n.noise_hist.mean() * n.noise_hist.count() as f64
        };
        let stolen = n.stats.stolen.as_nanos() as f64;
        if (hist_ns - stolen).abs() > 1e-6 * stolen.max(1.0) {
            bad.push(format!(
                "{arm}: node{} noise histogram totals {hist_ns:.0} ns, stats say {stolen:.0} ns stolen",
                n.index
            ));
        }
    }
}
