//! The cluster: N nodes, one event queue, one clock.
//!
//! Topology is fixed by node count: the first half of the nodes are
//! clients, the second half servers, and client `i` pins to server
//! `clients + (i % servers)`. Clients always run the Kitten-primary
//! stack so the *offered load and client-side costs are byte-identical*
//! across the server-stack comparison — the ablation measures the
//! servers, nothing else.
//!
//! The shared [`EventQueue`] carries only cross-node events (request
//! arrivals and fabric deliveries); per-node OS noise lives in each
//! node's own lazily-advanced cursor (see [`crate::node`]). That split
//! is what makes the run order-independent: processing a Deliver for
//! node 3 never consumes randomness belonging to node 5.

use crate::fabric::{Fabric, FabricStats, DEFAULT_QUEUE_DEPTH};
use crate::node::{AdmissionPolicy, Node, NodeStats, Role};
use crate::scenario::ScenarioStats;
use kh_arch::platform::Platform;
use kh_core::config::StackKind;
use kh_metrics::hist::LogHistogram;
use kh_metrics::outcome::OutcomeCounters;
use kh_metrics::quantile::WindowedQuantile;
use kh_metrics::table::Table;
use kh_scenario::Scenario;
use kh_sim::{EventQueue, FabricFaultPlan, FabricFaultSpec, FabricFaultStats, Nanos, SimRng};
use kh_virtio::LinkProfile;
use kh_workloads::adaptive::{AdaptivePolicy, CircuitBreaker, RetryBudget};
use kh_workloads::svcload::{
    retry_seed, Arrivals, Frame, FrameError, FrameHeader, FrameKind, RequestOutcome, RetryPolicy,
    SvcLoadConfig,
};

pub use crate::node::DEFAULT_ADMISSION_LIMIT;

/// How many future arrivals each client keeps filed in the event queue.
/// Refilled in one generator pass when the batch drains; arrival *times*
/// are identical to one-at-a-time generation (same per-client stream,
/// same draw order), only the filing is amortised.
pub(crate) const ARRIVAL_BATCH: usize = 32;

/// Everything a cluster run needs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total node count (>= 2): first half clients, second half servers.
    pub nodes: usize,
    /// Stack the *server* nodes run (clients are always Kitten-primary).
    pub server_stack: StackKind,
    pub platform: Platform,
    pub seed: u64,
    pub svcload: SvcLoadConfig,
    /// Switch egress queue depth, frames per port.
    pub queue_depth: usize,
    /// Fabric fault plan: (spec, fault seed). None = clean fabric.
    pub faults: Option<(FabricFaultSpec, u64)>,
    /// Client-side reliability policy. None = fire-and-forget (a lost
    /// frame silently erases its request, outcome `Failed`).
    pub retry: Option<RetryPolicy>,
    /// The adaptive reliability layer: hedge delays follow each
    /// destination's *live* latency quantile, retransmits/hedges pay
    /// from a token-bucket budget, per-destination circuit breakers
    /// stop retransmits into silence, and servers run CoDel
    /// queue-delay admission (from the policy's `codel_*` fields,
    /// overriding `admission`). Takes precedence over `retry` when
    /// both are set.
    pub adaptive: Option<AdaptivePolicy>,
    /// Server admission policy (ignored when `adaptive` is set).
    pub admission: AdmissionPolicy,
    /// How long the Kitten primary takes to notice a dead secondary
    /// (`Spm::vm_is_crashed` poll cadence) before driving restart.
    pub detect_latency: Nanos,
    /// Service-core time a restart costs (stage-2 rebuild, reboot).
    pub restart_cost: Nanos,
    /// Traffic scenario. When set, [`run`] dispatches to the multi-tier
    /// executor in [`crate::scenario`] instead of the svcload loop.
    pub scenario: Option<Scenario>,
    /// Run the remote-attestation handshake ([`crate::attest`]) at
    /// bring-up, before any traffic. Nodes whose evidence fails the
    /// registry are quarantined: requests targeting them terminate in
    /// [`RequestOutcome::Refused`] without ever touching the wire.
    pub attest: bool,
}

impl ClusterConfig {
    /// The paper's evaluation platform with `nodes` nodes.
    pub fn new(nodes: usize, server_stack: StackKind, seed: u64) -> Self {
        ClusterConfig {
            nodes: nodes.max(2),
            server_stack,
            platform: Platform::pine_a64_lts(),
            seed,
            svcload: SvcLoadConfig::default(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            faults: None,
            retry: None,
            adaptive: None,
            admission: AdmissionPolicy::default(),
            detect_latency: Nanos::from_millis(1),
            restart_cost: Nanos::from_millis(2),
            scenario: None,
            attest: false,
        }
    }

    /// Client node count (first `clients()` indices).
    pub fn clients(&self) -> usize {
        (self.nodes / 2).max(1)
    }

    /// Server node count.
    pub fn servers(&self) -> usize {
        (self.nodes - self.clients()).max(1)
    }
}

/// One request's life, for the run trace CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    pub id: u64,
    pub client: u16,
    pub server: u16,
    pub sent: Nanos,
    /// None when the request never completed (lost, shed, expired).
    /// Always paired with a terminal [`RequestOutcome`] — analysis code
    /// matches on `outcome` instead of unwrapping this.
    pub completed: Option<Nanos>,
    /// Transmissions made for this request (1 = first send only).
    pub attempts: u32,
    /// How the request's story ended.
    pub outcome: RequestOutcome,
    /// 0 = client-facing request, 1 = a backend leg of a fan-out.
    pub tier: u8,
    /// Fan-out degree of the request's tree (0 = single-tier).
    pub fanout: u16,
}

/// Aggregate reliability-layer counters for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Terminal outcome of every generated request.
    pub outcomes: OutcomeCounters,
    /// Backoff-scheduled retransmissions actually sent.
    pub retransmits: u64,
    /// Hedge transmissions actually sent.
    pub hedges: u64,
    /// NACKs servers sent when shedding.
    pub nacks_sent: u64,
    /// Checksum-rejected frames observed at any receiver.
    pub corrupt_rx: u64,
    /// Request frames that arrived at a down (crashed) service VM.
    pub crash_drops: u64,
    /// Retransmits withheld by the adaptive budget or circuit breaker.
    pub retries_suppressed: u64,
    /// Hedges withheld by the adaptive budget or circuit breaker.
    pub hedges_suppressed: u64,
    /// Duplicate attempts the server response cache answered without
    /// re-admission or a second service.
    pub dups_absorbed: u64,
    /// Times any destination's circuit breaker tripped open.
    pub breaker_opens: u64,
}

/// One service-VM crash and its recovery, for time-to-recovery gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    pub node: u16,
    /// When the fault killed the service VM.
    pub crashed_at: Nanos,
    /// When the primary saw `vm_is_crashed` and started the restart.
    pub detected_at: Nanos,
    /// When the restarted service VM accepts requests again.
    pub recovered_at: Nanos,
}

impl RecoveryRecord {
    /// Crash-to-serving downtime.
    pub fn downtime(&self) -> Nanos {
        self.recovered_at.saturating_sub(self.crashed_at)
    }
}

/// What one node contributed, for the report.
#[derive(Debug, Clone)]
pub struct NodeReport {
    pub index: u16,
    pub role: Role,
    pub stack: StackKind,
    pub stats: NodeStats,
    pub noise_hist: LogHistogram,
}

/// Everything a cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub server_stack: StackKind,
    pub nodes: usize,
    pub clients: usize,
    pub servers: usize,
    pub seed: u64,
    /// Requests generated by all clients.
    pub sent: u64,
    /// Requests whose response made it back.
    pub completed: u64,
    /// End-to-end latency over all completed requests.
    pub latency: LogHistogram,
    pub records: Vec<RequestRecord>,
    pub per_node: Vec<NodeReport>,
    pub fabric: FabricStats,
    pub fault_stats: FabricFaultStats,
    /// Reliability-layer counters (all zero on a clean, policy-less run).
    pub reliability: ReliabilityStats,
    /// One entry per `crashsvc` fault that fired.
    pub recoveries: Vec<RecoveryRecord>,
    /// Multi-tier counters; Some only for scenario runs.
    pub scenario: Option<ScenarioStats>,
    /// Remote-attestation handshake result; Some only when
    /// `cfg.attest` was set.
    pub attestation: Option<crate::attest::AttestationReport>,
    /// Virtual time of the last event processed.
    pub elapsed: Nanos,
}

enum Ev {
    /// A client's open-loop generator fires.
    Arrival { client: u16 },
    /// A frame exits the fabric at `dst`'s NIC.
    Deliver { dst: u16, frame: Frame },
    /// Backoff timer: retransmit request `id` unless it resolved.
    Retry { id: u64 },
    /// Hedge timer: duplicate request `id` unless it resolved.
    Hedge { id: u64 },
    /// Request `id`'s deadline expires.
    Deadline { id: u64 },
    /// The `crashsvc` fault kills `node`'s service VM.
    CrashSvc { node: u16 },
    /// `node`'s primary detected the dead secondary; drive restart.
    RestartSvc { node: u16 },
}

/// Client-side in-flight state for one request, indexed by id.
struct ReqState {
    server: u16,
    /// First-send time; every retransmission echoes it so latency is
    /// end-to-end from the original send.
    sent: Nanos,
    deadline_at: Nanos,
    /// Seeded jittered backoff delays still unconsumed.
    backoff: Vec<Nanos>,
    next_backoff: usize,
    /// Attempt index the hedge transmission used, if one was sent.
    hedge_attempt: Option<u8>,
    nack_seen: bool,
    corrupt_seen: bool,
    done: bool,
}

/// Route one frame from `src`'s NIC through the fabric to `dst`,
/// flagging it when the corrupt gate fires. A dropped frame vanishes.
#[allow(clippy::too_many_arguments)]
fn push_frame(
    nodes: &mut [Node],
    fabric: &mut Fabric,
    q: &mut EventQueue<Ev>,
    src: u16,
    dst: u16,
    mut frame: Frame,
    at: Nanos,
    horizon: Nanos,
) {
    let bytes = u64::from(frame.len);
    let enter = nodes[src as usize].send(at, bytes, horizon);
    if let Some(d) = fabric.transit(src, dst, bytes, enter) {
        frame.corrupt = d.corrupt_salt.is_some();
        q.schedule_at(d.at, Ev::Deliver { dst, frame });
    }
}

/// Run the svcload workload over a freshly booted cluster.
///
/// With `cfg.scenario` set, dispatches to the multi-tier executor
/// instead; everything below is the single-tier svcload loop.
pub fn run(cfg: &ClusterConfig) -> ClusterReport {
    if let Some(scn) = &cfg.scenario {
        return crate::scenario::run_scenario(cfg, scn);
    }
    let clients = cfg.clients();
    let servers = cfg.servers();
    let total = clients + servers;
    // Everything in flight must land before noise accounting stops;
    // requests arrive only inside `duration`, so one extra window of
    // slack comfortably covers queued tails.
    let horizon = cfg.svcload.duration + cfg.svcload.duration + Nanos::from_millis(50);

    // Seed fan-out: one stream label space for nodes, one for arrival
    // generators, all split off the run seed.
    let mut node_seeds = SimRng::new(cfg.seed ^ 0x6B68_636C_7573); // "khclus"
    let mut nodes: Vec<Node> = (0..total)
        .map(|i| {
            let role = if i < clients {
                Role::Client
            } else {
                Role::Server
            };
            let stack = match role {
                Role::Client => StackKind::HafniumKitten,
                Role::Server => cfg.server_stack,
            };
            Node::new(
                i as u16,
                role,
                stack,
                cfg.platform,
                node_seeds.split(i as u64).next_u64(),
            )
        })
        .collect();
    let mut arrival_seeds = SimRng::new(cfg.seed ^ 0x6B68_6172_7276); // "kharrv"
    let mut arrivals: Vec<Arrivals> = (0..clients)
        .map(|c| Arrivals::new(&cfg.svcload, arrival_seeds.split(c as u64).next_u64()))
        .collect();

    let mut fabric = Fabric::new(
        LinkProfile::from_platform(&cfg.platform),
        cfg.queue_depth,
        total,
    );
    if let Some((spec, fault_seed)) = &cfg.faults {
        fabric.faults = FabricFaultPlan::new(spec, *fault_seed);
    }

    // Attestation happens at bring-up, before the first arrival: every
    // node sweeps its peers, and anyone whose evidence fails the
    // registry is quarantined for the whole run. The handshake draws
    // from its own stream roots and mutates no node, so arming it (or
    // a tamper clause) leaves every other stream byte-identical.
    let attestation = cfg.attest.then(|| {
        crate::attest::handshake(
            &nodes,
            cfg.seed,
            fabric.faults.tampered_nodes(),
            &LinkProfile::from_platform(&cfg.platform),
        )
    });
    let quarantined: Vec<u16> = attestation
        .as_ref()
        .map(|a| a.quarantined.clone())
        .unwrap_or_default();

    let phase = cfg.svcload.service_phase();
    let mut q: EventQueue<Ev> = EventQueue::new();
    // Open-loop arrivals are filed a batch at a time: each client keeps
    // `ARRIVAL_BATCH` future arrivals in the queue and refills when the
    // last one fires, amortising generator re-entry across K events.
    let mut arrival_buf: Vec<Nanos> = Vec::with_capacity(ARRIVAL_BATCH);
    let mut outstanding: Vec<usize> = vec![0; clients];
    for (c, gen) in arrivals.iter_mut().enumerate().take(clients) {
        arrival_buf.clear();
        let n = gen.next_arrivals(ARRIVAL_BATCH, &mut arrival_buf);
        for &t in &arrival_buf[..n] {
            q.schedule_at(t, Ev::Arrival { client: c as u16 });
        }
        outstanding[c] = n;
    }
    // Scheduled service-VM crashes become events; each is detected and
    // recovered by the node's own primary, on the cluster clock.
    for e in fabric.faults.svc_crash_events().to_vec() {
        q.schedule_at(e.at, Ev::CrashSvc { node: e.node });
    }
    // The retry layer draws per-request jitter from its own stream root,
    // split off the run seed like every other stream — arming it never
    // perturbs arrivals, noise, or fabric fault draws.
    let retry_root = SimRng::new(cfg.seed ^ 0x6B68_7274_7279).next_u64(); // "khrtry"

    // The adaptive layer: deadline/backoff semantics come from its
    // embedded base policy; hedging, budgets, breakers, and admission
    // are its own. Breaker reopen jitter rides a dedicated stream per
    // destination ("khbrkr"), so arming adaptivity perturbs nothing.
    let base_retry: Option<RetryPolicy> = cfg.adaptive.map(|a| a.retry).or(cfg.retry);
    let admission = match &cfg.adaptive {
        Some(a) => AdmissionPolicy::CoDel {
            target: a.codel_target,
            interval: a.codel_interval,
        },
        None => cfg.admission,
    };
    struct DestState {
        tracker: WindowedQuantile,
        budget: RetryBudget,
        breaker: CircuitBreaker,
    }
    let mut dest_state: Vec<DestState> = match &cfg.adaptive {
        Some(a) => {
            let mut breaker_seeds = SimRng::new(cfg.seed ^ 0x6B68_6272_6B72); // "khbrkr"
            (0..total)
                .map(|i| DestState {
                    tracker: WindowedQuantile::new(a.window),
                    budget: RetryBudget::new(a.budget_percent, a.budget_burst),
                    breaker: CircuitBreaker::new(
                        a.breaker_threshold,
                        a.breaker_open_base,
                        a.breaker_jitter,
                        breaker_seeds.split(i as u64),
                    ),
                })
                .collect()
        }
        None => Vec::new(),
    };

    let mut records: Vec<RequestRecord> = Vec::new();
    let mut states: Vec<ReqState> = Vec::new();
    let mut latency = LogHistogram::for_latency();
    let mut rel = ReliabilityStats::default();
    let mut recoveries: Vec<RecoveryRecord> = Vec::new();
    let mut sent = 0u64;
    let mut completed = 0u64;

    while let Some(ev) = q.pop_next() {
        let now = ev.at;
        match ev.payload {
            Ev::Arrival { client } => {
                // Keep the generator open-loop: when this batch's last
                // arrival fires, the next batch is filed before this
                // request does anything.
                let c = client as usize;
                outstanding[c] -= 1;
                if outstanding[c] == 0 {
                    arrival_buf.clear();
                    let n = arrivals[c].next_arrivals(ARRIVAL_BATCH, &mut arrival_buf);
                    for &t in &arrival_buf[..n] {
                        q.schedule_at(t, Ev::Arrival { client });
                    }
                    outstanding[c] = n;
                }
                let id = records.len() as u64;
                let server = (clients + (client as usize % servers)) as u16;
                if quarantined.contains(&server) {
                    // The target failed attestation: the client refuses
                    // to transmit. Terminal immediately — no frame, no
                    // retry timers, no service work anywhere.
                    records.push(RequestRecord {
                        id,
                        client,
                        server,
                        sent: now,
                        completed: None,
                        attempts: 0,
                        outcome: RequestOutcome::Refused,
                        tier: 0,
                        fanout: 0,
                    });
                    states.push(ReqState {
                        server,
                        sent: now,
                        deadline_at: Nanos::MAX,
                        backoff: Vec::new(),
                        next_backoff: 0,
                        hedge_attempt: None,
                        nack_seen: false,
                        corrupt_seen: false,
                        done: true,
                    });
                    sent += 1;
                    continue;
                }
                records.push(RequestRecord {
                    id,
                    client,
                    server,
                    sent: now,
                    completed: None,
                    attempts: 1,
                    // Placeholder until a terminal outcome resolves it.
                    outcome: RequestOutcome::Failed,
                    tier: 0,
                    fanout: 0,
                });
                sent += 1;
                let mut st = ReqState {
                    server,
                    sent: now,
                    deadline_at: Nanos::MAX,
                    backoff: Vec::new(),
                    next_backoff: 0,
                    hedge_attempt: None,
                    nack_seen: false,
                    corrupt_seen: false,
                    done: false,
                };
                if let Some(policy) = &base_retry {
                    st.deadline_at = now + policy.deadline;
                    st.backoff = policy.backoff_schedule(retry_seed(retry_root, id));
                    q.schedule_at(st.deadline_at, Ev::Deadline { id });
                    if let Some(first) = st.backoff.first() {
                        let at = now + *first;
                        if at < st.deadline_at {
                            q.schedule_at(at, Ev::Retry { id });
                        }
                        st.next_backoff = 1;
                    }
                    // Static policy: hedge at the frozen configured
                    // delay. Adaptive: hedge at the destination's live
                    // hedge-quantile latency, and only once the tracker
                    // has seen enough completions to know the
                    // distribution — the cold-start guard that replaces
                    // the frozen baseline.
                    let hedge_delay = match &cfg.adaptive {
                        Some(a) => {
                            let d = &dest_state[server as usize];
                            if d.tracker.recorded() >= a.hedge_min_samples {
                                let (qn, qd) = a.hedge_quantile;
                                d.tracker
                                    .quantile(qn, qd)
                                    .map(|v| Nanos(v).max(a.hedge_floor))
                            } else {
                                None
                            }
                        }
                        None => policy.hedge_delay,
                    };
                    if let Some(h) = hedge_delay {
                        let at = now + h;
                        if at < st.deadline_at {
                            q.schedule_at(at, Ev::Hedge { id });
                        }
                    }
                }
                if cfg.adaptive.is_some() {
                    // First sends are never gated; they earn budget.
                    dest_state[server as usize].budget.on_send();
                }
                push_frame(
                    &mut nodes,
                    &mut fabric,
                    &mut q,
                    client,
                    server,
                    Frame::request(&cfg.svcload, id, client, now, 0),
                    now,
                    horizon,
                );
                states.push(st);
            }
            Ev::Retry { id } => {
                let rec = &mut records[id as usize];
                let st = &mut states[id as usize];
                let max = base_retry.as_ref().map(|p| p.max_attempts).unwrap_or(1);
                if st.done || now >= st.deadline_at {
                    continue;
                }
                // The backoff timer firing means the outstanding
                // attempt went unanswered — the breaker's failure
                // signal, whether or not a retransmit follows.
                if cfg.adaptive.is_some() {
                    dest_state[st.server as usize].breaker.on_timeout(now);
                }
                if rec.attempts >= max {
                    continue;
                }
                // Chain the next backoff timer off this instant whether
                // or not this retransmit is allowed out: a suppressed
                // attempt must leave the request a later chance (e.g. a
                // breaker probe after the cooldown).
                if let Some(delay) = st.backoff.get(st.next_backoff).copied() {
                    st.next_backoff += 1;
                    let at = now + delay;
                    if at < st.deadline_at {
                        q.schedule_at(at, Ev::Retry { id });
                    }
                }
                if cfg.adaptive.is_some() {
                    let d = &mut dest_state[st.server as usize];
                    if !d.breaker.allow_attempt(now) || !d.budget.try_spend() {
                        rel.retries_suppressed += 1;
                        continue;
                    }
                }
                let attempt = rec.attempts as u8;
                rec.attempts += 1;
                rel.retransmits += 1;
                let client = rec.client;
                push_frame(
                    &mut nodes,
                    &mut fabric,
                    &mut q,
                    client,
                    st.server,
                    Frame::request(&cfg.svcload, id, client, st.sent, attempt),
                    now,
                    horizon,
                );
            }
            Ev::Hedge { id } => {
                let rec = &mut records[id as usize];
                let st = &mut states[id as usize];
                let max = base_retry.as_ref().map(|p| p.max_attempts).unwrap_or(1);
                if st.done || now >= st.deadline_at || rec.attempts >= max {
                    continue;
                }
                if cfg.adaptive.is_some() {
                    let d = &mut dest_state[st.server as usize];
                    if !d.breaker.allow_attempt(now) || !d.budget.try_spend() {
                        rel.hedges_suppressed += 1;
                        continue;
                    }
                }
                let attempt = rec.attempts as u8;
                rec.attempts += 1;
                rel.hedges += 1;
                st.hedge_attempt = Some(attempt);
                let client = rec.client;
                push_frame(
                    &mut nodes,
                    &mut fabric,
                    &mut q,
                    client,
                    st.server,
                    Frame::request(&cfg.svcload, id, client, st.sent, attempt),
                    now,
                    horizon,
                );
            }
            Ev::Deadline { id } => {
                let st = &mut states[id as usize];
                if st.done {
                    continue;
                }
                st.done = true;
                // A deadline expiring in silence (no NACK, no corrupt
                // reply attributable) is a timeout signal too; a shed
                // or corrupt story proves the destination reachable.
                if cfg.adaptive.is_some() && !st.nack_seen && !st.corrupt_seen {
                    dest_state[st.server as usize].breaker.on_timeout(now);
                }
                records[id as usize].outcome = if st.nack_seen {
                    RequestOutcome::Shed
                } else if st.corrupt_seen {
                    RequestOutcome::Corrupt
                } else {
                    RequestOutcome::DeadlineExceeded
                };
            }
            Ev::CrashSvc { node } => {
                let n = node as usize;
                if n >= nodes.len() || nodes[n].role != Role::Server || nodes[n].is_crashed() {
                    continue;
                }
                fabric.faults.note_svc_crash();
                nodes[n].crash_svc(now, horizon);
                recoveries.push(RecoveryRecord {
                    node,
                    crashed_at: now,
                    detected_at: now + cfg.detect_latency,
                    recovered_at: Nanos::MAX,
                });
                q.schedule_at(now + cfg.detect_latency, Ev::RestartSvc { node });
            }
            Ev::RestartSvc { node } => {
                let up = nodes[node as usize].restart_svc(now, cfg.restart_cost, horizon);
                if let Some(r) = recoveries
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == node && r.recovered_at == Nanos::MAX)
                {
                    r.recovered_at = up;
                }
            }
            Ev::Deliver { dst, frame } => {
                let bytes = u64::from(frame.len);
                if nodes[dst as usize].role == Role::Server {
                    match frame.decode() {
                        Ok(FrameHeader {
                            id,
                            client,
                            sent: sent_at,
                            kind: FrameKind::Request,
                            attempt,
                        }) => {
                            let node = &mut nodes[dst as usize];
                            if node.is_crashed() {
                                // The NIC died with the VM: nothing to
                                // receive into. The client's retry path
                                // (or deadline) owns recovery.
                                node.stats.crash_drops += 1;
                                rel.crash_drops += 1;
                                continue;
                            }
                            // Request lands at the server: RX copy, dedupe
                            // check, admission check, queue for the service
                            // core, compute, then answer (response or NACK)
                            // back through the fabric.
                            let ready = node.receive(now, bytes, horizon);
                            let (reply, depart) = if let Some(done) = node.cached_response(id) {
                                // A duplicate attempt (hedge/retransmit) of a
                                // request this server already admitted:
                                // replay the cached answer — at-most-once
                                // execution against the client's
                                // at-least-once transmission. It never
                                // consumes an admission slot or a second
                                // service, so duplicates cannot shed or feed
                                // the congestion loop. The replay departs no
                                // earlier than this RX finished and no
                                // earlier than the original service did.
                                rel.dups_absorbed += 1;
                                (
                                    Frame::response(&cfg.svcload, id, client, sent_at, attempt),
                                    ready.max(done),
                                )
                            } else if node.admit_with(ready, &admission) {
                                let done = node.serve(ready, &phase, horizon);
                                node.note_served(id, done);
                                (
                                    Frame::response(&cfg.svcload, id, client, sent_at, attempt),
                                    done,
                                )
                            } else {
                                rel.nacks_sent += 1;
                                (Frame::nack(id, client, sent_at, attempt), ready)
                            };
                            push_frame(
                                &mut nodes,
                                &mut fabric,
                                &mut q,
                                dst,
                                client,
                                reply,
                                depart,
                                horizon,
                            );
                        }
                        Ok(_) => {
                            // response/NACK routed to a server: unreachable
                        }
                        Err(_) => {
                            // Mangled request: the RX path still pays the copy,
                            // then the checksum rejects it. The client's retry
                            // path (or deadline) owns recovery.
                            rel.corrupt_rx += 1;
                            if !nodes[dst as usize].is_crashed() {
                                let _ = nodes[dst as usize].receive(now, bytes, horizon);
                            }
                        }
                    }
                } else {
                    // A reply lands back at the client.
                    let done = nodes[dst as usize].receive(now, bytes, horizon);
                    let h = match frame.decode() {
                        Ok(h) => h,
                        Err(e) => {
                            rel.corrupt_rx += 1;
                            // The header survived (the corrupt gate models
                            // a payload flip), so the damage is attributable.
                            if let FrameError::Corrupt(Some(h)) = e {
                                let st = &mut states[h.id as usize];
                                if !st.done {
                                    st.corrupt_seen = true;
                                }
                            }
                            continue;
                        }
                    };
                    let st = &mut states[h.id as usize];
                    if st.done {
                        continue; // duplicate answer after resolution
                    }
                    match h.kind {
                        FrameKind::Response => {
                            st.done = true;
                            let lat = done.saturating_sub(h.sent);
                            if cfg.adaptive.is_some() {
                                // Feed the live distribution and clear the
                                // breaker's streak.
                                let d = &mut dest_state[st.server as usize];
                                d.tracker.record(lat.as_nanos().max(1));
                                d.breaker.on_success();
                            }
                            latency.record(lat.as_nanos().max(1) as f64);
                            nodes[dst as usize]
                                .latency_hist
                                .record(lat.as_nanos().max(1) as f64);
                            let rec = &mut records[h.id as usize];
                            rec.completed = Some(done);
                            rec.outcome = if st.hedge_attempt == Some(h.attempt) {
                                RequestOutcome::OkHedged { attempt: h.attempt }
                            } else {
                                RequestOutcome::Ok { attempt: h.attempt }
                            };
                            completed += 1;
                        }
                        FrameKind::Nack => {
                            st.nack_seen = true;
                            // A NACK is proof of reachability: the breaker
                            // detects silent destinations, not loaded ones.
                            if cfg.adaptive.is_some() {
                                dest_state[st.server as usize].breaker.on_success();
                            }
                        }
                        FrameKind::Request => {} // unreachable
                    }
                }
            }
        }
    }
    let elapsed = q.now();

    // Resolve what the event loop could not: with no retry policy there
    // are no deadline timers, so an unanswered request stays open until
    // this end-of-run sweep names its outcome explicitly.
    for (rec, st) in records.iter_mut().zip(states.iter_mut()) {
        if st.done {
            continue;
        }
        st.done = true;
        rec.outcome = if st.nack_seen {
            RequestOutcome::Shed
        } else if st.corrupt_seen {
            RequestOutcome::Corrupt
        } else {
            RequestOutcome::Failed
        };
    }
    rel.breaker_opens = dest_state.iter().map(|d| d.breaker.opens).sum();
    for rec in &records {
        match rec.outcome {
            RequestOutcome::Ok { .. } => rel.outcomes.ok += 1,
            RequestOutcome::OkHedged { .. } => rel.outcomes.ok_hedged += 1,
            RequestOutcome::Shed => rel.outcomes.shed += 1,
            RequestOutcome::DeadlineExceeded => rel.outcomes.deadline += 1,
            RequestOutcome::Corrupt => rel.outcomes.corrupt += 1,
            RequestOutcome::Failed => rel.outcomes.failed += 1,
            RequestOutcome::Refused => rel.outcomes.refused += 1,
        }
    }

    // Final sweep: every node replays noise out to the fixed horizon, so
    // the noise histograms cover the same window regardless of traffic.
    let per_node = nodes
        .iter_mut()
        .map(|n| {
            n.advance_noise_to(horizon, horizon);
            n.audit_isolation().expect("isolation preserved per node");
            NodeReport {
                index: n.index,
                role: n.role,
                stack: if n.role == Role::Client {
                    StackKind::HafniumKitten
                } else {
                    cfg.server_stack
                },
                stats: n.stats,
                noise_hist: n.noise_hist.clone(),
            }
        })
        .collect();

    ClusterReport {
        server_stack: cfg.server_stack,
        nodes: total,
        clients,
        servers,
        seed: cfg.seed,
        sent,
        completed,
        latency,
        records,
        per_node,
        fabric: fabric.stats.clone(),
        fault_stats: fabric.faults.stats,
        reliability: rel,
        recoveries,
        scenario: None,
        attestation,
        elapsed,
    }
}

impl ClusterReport {
    /// Loss fraction: requests that never completed.
    pub fn loss(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.completed as f64 / self.sent as f64
    }

    /// Fraction of requests whose client got an answer.
    pub fn goodput(&self) -> f64 {
        self.reliability.outcomes.goodput()
    }

    /// Human-readable run summary.
    pub fn render(&self) -> String {
        let us = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}", v / 1_000.0)
            }
        };
        let mut t = Table::new(
            format!(
                "cluster svcload: {} nodes ({} clients -> {} {} servers), seed {}",
                self.nodes,
                self.clients,
                self.servers,
                self.server_stack.label(),
                self.seed
            ),
            &[
                "sent", "done", "loss%", "p50 us", "p99 us", "p999 us", "max us",
            ],
        );
        t.row(
            "latency",
            vec![
                self.sent.to_string(),
                self.completed.to_string(),
                format!("{:.2}", self.loss() * 100.0),
                us(self.latency.median()),
                us(self.latency.p99()),
                us(self.latency.p999()),
                us(self.latency.max()),
            ],
        );
        let mut out = t.render();
        let mut nt = Table::new(
            "per-node noise (events below horizon)",
            &["role", "stack", "events", "stolen us", "served"],
        );
        for n in &self.per_node {
            nt.row(
                format!("node{}", n.index),
                vec![
                    format!("{:?}", n.role),
                    n.stack.label().to_string(),
                    n.noise_hist.count().to_string(),
                    format!("{:.1}", n.stats.stolen.as_nanos() as f64 / 1_000.0),
                    n.stats.served.to_string(),
                ],
            );
        }
        out.push('\n');
        out.push_str(&nt.render());
        if let Some(a) = &self.attestation {
            out.push('\n');
            out.push_str(&a.render());
            out.push('\n');
        }
        if self.fault_stats.total() > 0 || self.fabric.queue_drops > 0 {
            out.push_str(&format!(
                "\nfabric: {} forwarded, {} queue drops, {} fault drops, {} reordered, {} jittered, {} partition drops, {} corrupted\n",
                self.fabric.frames_forwarded,
                self.fabric.queue_drops,
                self.fault_stats.frames_dropped,
                self.fault_stats.frames_reordered,
                self.fault_stats.frames_jittered,
                self.fault_stats.partition_drops,
                self.fault_stats.frames_corrupted,
            ));
        }
        let r = &self.reliability;
        if r.retransmits + r.hedges + r.nacks_sent + r.corrupt_rx + r.crash_drops > 0
            || r.outcomes.good() != r.outcomes.total()
        {
            out.push_str(&format!(
                "reliability: goodput {:.3}%, outcomes [{}], {} retransmits, {} hedges, {} nacks, {} corrupt rx, {} crash drops\n",
                self.goodput() * 100.0,
                r.outcomes.render(),
                r.retransmits,
                r.hedges,
                r.nacks_sent,
                r.corrupt_rx,
                r.crash_drops,
            ));
        }
        if r.retries_suppressed + r.hedges_suppressed + r.dups_absorbed + r.breaker_opens > 0 {
            out.push_str(&format!(
                "adaptive: {} retries suppressed, {} hedges suppressed, {} dups absorbed, {} breaker opens\n",
                r.retries_suppressed,
                r.hedges_suppressed,
                r.dups_absorbed,
                r.breaker_opens,
            ));
        }
        for rec in &self.recoveries {
            out.push_str(&format!(
                "recovery: node{} crashed at {}ns, detected +{}ns, serving again +{}ns\n",
                rec.node,
                rec.crashed_at.as_nanos(),
                rec.detected_at.saturating_sub(rec.crashed_at).as_nanos(),
                rec.downtime().as_nanos(),
            ));
        }
        if let Some(s) = &self.scenario {
            out.push_str(&format!(
                "scenario: {} (effective fanout {}, depth {})\n  legs: {} sent, {} ok, {} shed, {} failed, {} refused, {} late; joins: {} ok, {} failed\n  tier1 p50/p99 us: {}/{}\n",
                s.spec,
                s.fanout,
                s.depth,
                s.legs_sent,
                s.legs_ok,
                s.legs_shed,
                s.legs_failed,
                s.legs_refused,
                s.late_legs,
                s.joins_ok,
                s.joins_failed,
                us(s.tier1.median()),
                us(s.tier1.p99()),
            ));
            if !s.hpc_nodes.is_empty() {
                out.push_str(&format!(
                    "  hpc neighbors on {:?}: {} quanta, {:.1}ms busy below horizon\n",
                    s.hpc_nodes,
                    s.hpc_quanta,
                    s.hpc_busy.as_nanos() as f64 / 1e6,
                ));
            }
        }
        out
    }

    /// The per-request trace as CSV — the byte-identity artifact the
    /// determinism tests (and `khsim cluster --out`) compare.
    ///
    /// Rows are rendered straight into one byte buffer with
    /// `push_decimal` rather than through `core::fmt`, whose
    /// per-argument dispatch dominated the render.
    pub fn csv(&self) -> String {
        const HEADER: &str =
            "req,client,server,sent_ns,completed_ns,latency_ns,attempts,outcome,tier,fanout\n";
        // A row is ~60 bytes at cluster scale; reserving up front keeps
        // the render to one allocation.
        let mut out = Vec::with_capacity(HEADER.len() + 64 * self.records.len());
        out.extend_from_slice(HEADER.as_bytes());
        for r in &self.records {
            push_decimal(&mut out, r.id);
            out.push(b',');
            push_decimal(&mut out, r.client.into());
            out.push(b',');
            push_decimal(&mut out, r.server.into());
            out.push(b',');
            push_decimal(&mut out, r.sent.as_nanos());
            out.push(b',');
            if let Some(c) = r.completed {
                push_decimal(&mut out, c.as_nanos());
                out.push(b',');
                push_decimal(&mut out, c.saturating_sub(r.sent).as_nanos());
            } else {
                out.push(b',');
            }
            out.push(b',');
            push_decimal(&mut out, r.attempts.into());
            out.push(b',');
            out.extend_from_slice(r.outcome.label().as_bytes());
            out.push(b',');
            push_decimal(&mut out, r.tier.into());
            out.push(b',');
            push_decimal(&mut out, r.fanout.into());
            out.push(b'\n');
        }
        String::from_utf8(out).expect("CSV rows are ASCII")
    }
}

/// `"00"` through `"99"`: two decimal digits per table entry.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Append `n` in decimal, exactly as `{}` formats it: two digits per
/// division, most significant digit first, no leading zero.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `core::fmt` row renderer `csv` replaced, kept as the
    /// byte-identity reference.
    fn csv_reference(records: &[RequestRecord]) -> String {
        use std::fmt::Write as _;
        let mut s = String::from(
            "req,client,server,sent_ns,completed_ns,latency_ns,attempts,outcome,tier,fanout\n",
        );
        for r in records {
            write!(
                s,
                "{},{},{},{},",
                r.id,
                r.client,
                r.server,
                r.sent.as_nanos()
            )
            .unwrap();
            if let Some(c) = r.completed {
                write!(
                    s,
                    "{},{}",
                    c.as_nanos(),
                    c.saturating_sub(r.sent).as_nanos()
                )
                .unwrap();
            } else {
                s.push(',');
            }
            writeln!(
                s,
                ",{},{},{},{}",
                r.attempts,
                r.outcome.label(),
                r.tier,
                r.fanout
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn csv_matches_the_fmt_renderer_byte_for_byte() {
        const EDGES: [u64; 10] = [
            0,
            9,
            10,
            99,
            100,
            999,
            1000,
            12_345_678,
            u64::MAX - 1,
            u64::MAX,
        ];
        let outcomes = [
            RequestOutcome::Ok { attempt: 0 },
            RequestOutcome::OkHedged { attempt: u8::MAX },
            RequestOutcome::Shed,
            RequestOutcome::DeadlineExceeded,
            RequestOutcome::Corrupt,
            RequestOutcome::Failed,
            RequestOutcome::Refused,
        ];
        let mut records = Vec::new();
        for (i, &v) in EDGES.iter().enumerate() {
            for (j, &outcome) in outcomes.iter().enumerate() {
                let small = |max: u64| if (i + j) % 2 == 0 { 0 } else { v.min(max) };
                records.push(RequestRecord {
                    id: v,
                    client: small(u16::MAX.into()) as u16,
                    server: EDGES[(i + j) % EDGES.len()].min(u16::MAX.into()) as u16,
                    sent: Nanos(EDGES[(i + 3 * j) % EDGES.len()]),
                    completed: (j % 3 != 0).then_some(Nanos(v)),
                    attempts: small(u32::MAX.into()) as u32,
                    outcome,
                    tier: small(u8::MAX.into()) as u8,
                    fanout: small(u16::MAX.into()) as u16,
                });
            }
        }
        // Every small field also at its type maximum.
        records.push(RequestRecord {
            id: u64::MAX,
            client: u16::MAX,
            server: u16::MAX,
            sent: Nanos::ZERO,
            completed: Some(Nanos(u64::MAX)),
            attempts: u32::MAX,
            outcome: RequestOutcome::Ok { attempt: 1 },
            tier: u8::MAX,
            fanout: u16::MAX,
        });
        let mut report = run(&quick(StackKind::HafniumKitten, 1));
        assert_eq!(
            report.csv(),
            csv_reference(&report.records),
            "simulated rows"
        );
        report.records = records;
        assert_eq!(report.csv(), csv_reference(&report.records), "edge rows");
        let mut n = 1u64;
        for digits in 1..=20 {
            let mut got = Vec::new();
            push_decimal(&mut got, n - 1);
            push_decimal(&mut got, n);
            assert_eq!(got, format!("{}{n}", n - 1).into_bytes(), "{digits} digits");
            n = n.saturating_mul(10);
        }
    }

    fn quick(stack: StackKind, seed: u64) -> ClusterConfig {
        let mut c = ClusterConfig::new(4, stack, seed);
        c.svcload = SvcLoadConfig::quick();
        c
    }

    #[test]
    fn four_node_cluster_completes_the_load() {
        let r = run(&quick(StackKind::HafniumKitten, 1));
        assert_eq!(r.nodes, 4);
        assert_eq!(r.clients, 2);
        assert_eq!(r.servers, 2);
        assert!(r.sent > 50, "sent = {}", r.sent);
        assert_eq!(r.completed, r.sent, "clean fabric loses nothing");
        assert_eq!(r.latency.count(), r.completed);
        assert!(r.latency.median() > 0.0);
        // Every record resolved Ok, is complete, and causally ordered —
        // matched on outcome, never unwrapped: an uncompleted request
        // is a first-class result, not a panic hazard.
        assert!(r.records.iter().all(|rec| {
            rec.outcome.is_ok()
                && rec.attempts == 1
                && matches!(rec.completed, Some(done) if done > rec.sent)
        }));
        assert_eq!(r.goodput(), 1.0);
        assert_eq!(r.reliability.outcomes.ok, r.sent);
    }

    #[test]
    fn same_seed_same_bytes() {
        let a = run(&quick(StackKind::HafniumLinux, 7));
        let b = run(&quick(StackKind::HafniumLinux, 7));
        assert_eq!(a.csv(), b.csv());
        assert_eq!(a.render(), b.render());
        let c = run(&quick(StackKind::HafniumLinux, 8));
        assert_ne!(a.csv(), c.csv());
    }

    #[test]
    fn offered_load_is_stack_independent() {
        let kitten = run(&quick(StackKind::HafniumKitten, 3));
        let linux = run(&quick(StackKind::HafniumLinux, 3));
        assert_eq!(kitten.sent, linux.sent, "open loop: same arrivals");
        let sends = |r: &ClusterReport| {
            r.records
                .iter()
                .map(|rec| (rec.id, rec.client, rec.sent))
                .collect::<Vec<_>>()
        };
        assert_eq!(sends(&kitten), sends(&linux));
    }

    #[test]
    fn kitten_servers_have_tighter_tails_than_linux() {
        let kitten = run(&quick(StackKind::HafniumKitten, 5));
        let linux = run(&quick(StackKind::HafniumLinux, 5));
        assert!(
            kitten.latency.p99() <= linux.latency.p99(),
            "p99: kitten {} vs linux {}",
            kitten.latency.p99(),
            linux.latency.p99()
        );
        assert!(
            kitten.latency.p999() <= linux.latency.p999(),
            "p999: kitten {} vs linux {}",
            kitten.latency.p999(),
            linux.latency.p999()
        );
    }

    #[test]
    fn faulty_fabric_loses_frames_deterministically() {
        let mut cfg = quick(StackKind::HafniumKitten, 9);
        cfg.faults = Some((
            FabricFaultSpec::parse("drop:0.05,jitter:0.2:50us,reorder:0.05").unwrap(),
            3,
        ));
        let a = run(&cfg);
        assert!(a.completed < a.sent, "5% drop must lose something");
        assert!(a.fault_stats.frames_dropped > 0);
        assert!(a.loss() > 0.0);
        // No reliability layer: every loss is a silent-drop Failure.
        assert_eq!(a.reliability.outcomes.failed, a.sent - a.completed);
        assert_eq!(a.fabric.loss_drops, a.fault_stats.frames_dropped);
        let b = run(&cfg);
        assert_eq!(a.csv(), b.csv(), "faulted runs are reproducible");
    }

    #[test]
    fn retries_recover_random_loss() {
        let mut cfg = quick(StackKind::HafniumKitten, 9);
        cfg.faults = Some((FabricFaultSpec::parse("drop:0.05").unwrap(), 3));
        let bare = run(&cfg);
        assert!(bare.goodput() < 1.0, "no-retry arm must lose requests");
        cfg.retry = Some(RetryPolicy::default());
        let armed = run(&cfg);
        assert_eq!(armed.sent, bare.sent, "open loop: same offered load");
        assert!(
            armed.goodput() >= 0.99,
            "goodput with retries = {}",
            armed.goodput()
        );
        assert!(armed.goodput() > bare.goodput());
        assert!(armed.reliability.retransmits > 0);
        assert!(armed
            .records
            .iter()
            .any(|r| matches!(r.outcome, RequestOutcome::Ok { attempt } if attempt > 0)));
        // Armed runs stay byte-reproducible.
        let again = run(&cfg);
        assert_eq!(armed.csv(), again.csv());
    }

    #[test]
    fn hedging_duplicates_slow_requests() {
        let mut cfg = quick(StackKind::HafniumKitten, 11);
        cfg.faults = Some((FabricFaultSpec::parse("drop:0.1").unwrap(), 5));
        cfg.retry = Some(RetryPolicy {
            // Hedge well before the first backoff so hedges win races.
            hedge_delay: Some(Nanos::from_micros(900)),
            ..RetryPolicy::default()
        });
        let r = run(&cfg);
        assert!(r.reliability.hedges > 0, "hedge timer must fire");
        assert!(
            r.records
                .iter()
                .any(|rec| matches!(rec.outcome, RequestOutcome::OkHedged { .. })),
            "some hedge transmission should win"
        );
        assert!(r.goodput() >= 0.99, "goodput = {}", r.goodput());
    }

    #[test]
    fn admission_control_sheds_with_explicit_nacks() {
        let mut cfg = quick(StackKind::HafniumKitten, 13);
        // Overdrive one server pair and bound the queue tightly.
        cfg.svcload.mean_interarrival = Nanos::from_micros(40);
        cfg.admission = AdmissionPolicy::Fixed { limit: 2 };
        cfg.retry = Some(RetryPolicy::default());
        let r = run(&cfg);
        assert!(r.reliability.nacks_sent > 0, "overload must shed");
        assert!(
            r.records
                .iter()
                .any(|rec| rec.outcome == RequestOutcome::Shed),
            "shed requests end as Shed, not silent loss"
        );
        assert_eq!(
            r.reliability.outcomes.failed, 0,
            "with the policy armed nothing fails silently"
        );
        let shed_total: u64 = r.per_node.iter().map(|n| n.stats.shed).sum();
        assert_eq!(shed_total, r.reliability.nacks_sent);
    }

    #[test]
    fn duplicate_attempts_never_shed_or_double_serve() {
        // An aggressive static policy (hedge every request at 300us,
        // backoff floor near the median) floods servers with
        // duplicates; before the response cache this self-shed with
        // zero faults. Now every duplicate of an admitted request is
        // absorbed: no NACKs, no sheds, no double service.
        let mut cfg = quick(StackKind::HafniumKitten, 29);
        cfg.retry = Some(RetryPolicy {
            hedge_delay: Some(Nanos::from_micros(300)),
            base_backoff: Nanos::from_millis(1),
            max_backoff: Nanos::from_millis(2),
            ..RetryPolicy::default()
        });
        let r = run(&cfg);
        assert!(
            r.reliability.hedges + r.reliability.retransmits > 0,
            "the policy must generate duplicates for this test to bite"
        );
        assert!(r.reliability.dups_absorbed > 0, "cache must absorb them");
        assert_eq!(r.reliability.nacks_sent, 0, "no self-induced shedding");
        let served: u64 = r.per_node.iter().map(|n| n.stats.served).sum();
        assert_eq!(served, r.sent, "each request is served exactly once");
        let dup_hits: u64 = r.per_node.iter().map(|n| n.stats.dup_hits).sum();
        assert_eq!(dup_hits, r.reliability.dups_absorbed);
        assert_eq!(r.goodput(), 1.0);
    }

    #[test]
    fn adaptive_no_faults_tail_tracks_retries_off() {
        let off = run(&quick(StackKind::HafniumKitten, 31));
        let mut cfg = quick(StackKind::HafniumKitten, 31);
        cfg.adaptive = Some(AdaptivePolicy::default());
        let adaptive = run(&cfg);
        assert_eq!(adaptive.sent, off.sent, "open loop: same offered load");
        assert_eq!(adaptive.goodput(), 1.0);
        // The whole point: arming the adaptive policy on a healthy
        // cluster must not manufacture a tail (static hedging at a
        // frozen baseline inflated p99 ~17x here).
        assert!(
            adaptive.latency.p99() <= off.latency.p99() * 1.5,
            "adaptive p99 {} vs off p99 {}",
            adaptive.latency.p99(),
            off.latency.p99()
        );
        assert_eq!(
            adaptive.reliability.breaker_opens, 0,
            "healthy cluster never trips a breaker"
        );
        // Reproducible with the full adaptive stack armed.
        let again = run(&cfg);
        assert_eq!(adaptive.csv(), again.csv());
        assert_eq!(adaptive.render(), again.render());
    }

    #[test]
    fn adaptive_partition_recovers_at_least_retries_off_goodput() {
        let mut cfg = quick(StackKind::HafniumKitten, 33);
        let victim = cfg.clients();
        cfg.faults = Some((
            FabricFaultSpec::parse(&format!("partition@10ms:5ms:{victim}")).unwrap(),
            3,
        ));
        let off = run(&cfg);
        assert!(off.goodput() < 1.0, "partition must hurt the bare arm");
        cfg.adaptive = Some(AdaptivePolicy::default());
        let adaptive = run(&cfg);
        assert_eq!(adaptive.sent, off.sent, "open loop: same offered load");
        assert!(
            adaptive.goodput() >= off.goodput(),
            "adaptive {} vs off {}",
            adaptive.goodput(),
            off.goodput()
        );
        assert!(
            adaptive.reliability.retransmits > 0,
            "recovery needs retransmits"
        );
    }

    #[test]
    fn corrupt_frames_are_detected_not_misparsed() {
        let mut cfg = quick(StackKind::HafniumKitten, 17);
        cfg.faults = Some((FabricFaultSpec::parse("corrupt:0.1").unwrap(), 7));
        let r = run(&cfg);
        assert!(r.fault_stats.frames_corrupted > 0);
        assert!(r.reliability.corrupt_rx > 0, "checksum catches mangling");
        assert!(
            r.records
                .iter()
                .any(|rec| rec.outcome == RequestOutcome::Corrupt),
            "a corrupted reply is attributed to its request"
        );
        // With retries armed the corruption is survivable.
        cfg.retry = Some(RetryPolicy::default());
        let armed = run(&cfg);
        assert!(armed.goodput() >= 0.99, "goodput = {}", armed.goodput());
    }

    #[test]
    fn crashsvc_recovers_within_the_gate() {
        let mut cfg = quick(StackKind::HafniumKitten, 19);
        let victim = cfg.clients(); // first server node
        cfg.faults = Some((
            FabricFaultSpec::parse(&format!("crashsvc@10ms:{victim}")).unwrap(),
            1,
        ));
        cfg.retry = Some(RetryPolicy::default());
        let r = run(&cfg);
        assert_eq!(r.recoveries.len(), 1);
        let rec = r.recoveries[0];
        assert_eq!(rec.node as usize, victim);
        assert_eq!(rec.crashed_at, Nanos::from_millis(10));
        assert_eq!(rec.detected_at, rec.crashed_at + cfg.detect_latency);
        assert!(
            rec.downtime() <= cfg.detect_latency + cfg.restart_cost + Nanos::from_millis(1),
            "downtime {}ns",
            rec.downtime().as_nanos()
        );
        assert_eq!(r.fault_stats.svc_crashes, 1);
        let crashed_node = &r.per_node[victim];
        assert_eq!(crashed_node.stats.restarts, 1);
        assert!(r.goodput() >= 0.99, "goodput = {}", r.goodput());
        // Reproducible, crash and all.
        assert_eq!(run(&cfg).csv(), r.csv());
    }

    #[test]
    fn clean_attestation_does_not_perturb_traffic() {
        // Arming the handshake with nothing tampered is free: every
        // node attests, nobody is quarantined, and the request trace is
        // byte-identical to the unattested run — the handshake draws
        // only from its own stream roots.
        let base = run(&quick(StackKind::HafniumKitten, 23));
        let mut cfg = quick(StackKind::HafniumKitten, 23);
        cfg.attest = true;
        let attested = run(&cfg);
        let a = attested.attestation.as_ref().unwrap();
        assert!(a.all_clean());
        assert_eq!(a.nodes, 4);
        assert_eq!(attested.csv(), base.csv());
        assert!(base.attestation.is_none());
    }

    #[test]
    fn tampered_node_is_quarantined_and_refused() {
        // tamper@3 forges the second server's measurement. Every
        // request routed at it is refused without touching the wire;
        // the other server's records and every node's noise histogram
        // are byte-identical to the tamper-free attested run.
        let mut clean = quick(StackKind::HafniumKitten, 29);
        clean.attest = true;
        let clean_r = run(&clean);

        let mut cfg = quick(StackKind::HafniumKitten, 29);
        cfg.attest = true;
        cfg.faults = Some((FabricFaultSpec::parse("tamper@3").unwrap(), 1));
        let r = run(&cfg);

        let a = r.attestation.as_ref().unwrap();
        assert_eq!(a.quarantined, vec![3]);
        let refused: Vec<_> = r.records.iter().filter(|rec| rec.server == 3).collect();
        assert!(!refused.is_empty());
        assert!(refused
            .iter()
            .all(|rec| rec.outcome == RequestOutcome::Refused && rec.attempts == 0));
        assert_eq!(r.reliability.outcomes.refused, refused.len() as u64);
        assert!(r.goodput() < 1.0);

        // The healthy server's traffic is untouched (client 0 -> server
        // 2 shares no fabric port with the quarantined pair) ...
        let healthy = |rep: &ClusterReport| {
            rep.records
                .iter()
                .filter(|rec| rec.server == 2)
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(healthy(&r), healthy(&clean_r));
        // ... and noise never depended on traffic in the first place:
        // every node's histogram, the quarantined one included, is
        // bit-identical with the tamper armed.
        for (t, c) in r.per_node.iter().zip(clean_r.per_node.iter()) {
            assert_eq!(t.noise_hist, c.noise_hist, "node {}", t.index);
        }
        // Reproducible, quarantine and all.
        assert_eq!(run(&cfg).csv(), r.csv());
    }

    #[test]
    fn theseus_servers_run_the_cluster_load() {
        let r = run(&quick(StackKind::NativeTheseus, 31));
        assert_eq!(r.completed, r.sent);
        assert!(r.sent > 50);
        // Theseus nodes tick quietly and run no guest: their noise
        // event count undercuts the Kitten arm's.
        let kitten = run(&quick(StackKind::HafniumKitten, 31));
        let server_noise = |rep: &ClusterReport| {
            rep.per_node
                .iter()
                .filter(|n| n.role == Role::Server)
                .map(|n| n.noise_hist.count())
                .sum::<u64>()
        };
        assert!(server_noise(&r) <= server_noise(&kitten));
        assert_eq!(r.goodput(), 1.0);
    }
}
