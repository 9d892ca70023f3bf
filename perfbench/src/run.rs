//! Workloads, set-up, the measured window, output checks and metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::app::BenchApp;
use crate::host::Speed;
use crate::probe::{self, Kind, Probe, SpanTotals, KINDS};
use whisper_bench::chaos::DROP_COUNTERS;
use whisper_bench::harness::{gen_keys_parallel, NetBuilder, WhisperNet};
use whisper_core::{GroupId, WhisperNode};
use whisper_crypto::sha256::Sha256;
use whisper_net::metrics::Metrics;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Protocol, Sim};
use whisper_net::{NodeId, SimTime};
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

/// One workload's parameters.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Population, bootstraps included.
    pub nodes: usize,
    /// Private groups (0: no groups, no application traffic).
    pub groups: usize,
    /// Requests per simulated second, over all senders.
    pub rate: u64,
    /// Request size in bytes.
    pub request_bytes: usize,
    /// Each sender pins one partner into its PCP and only talks to it;
    /// otherwise each request picks a random private-view member.
    pub pinned: bool,
    /// PSS convergence before group formation, simulated seconds.
    pub warmup_s: u64,
    /// Settling after the joins, simulated seconds.
    pub settle_s: u64,
    /// Simulated seconds after the window for retries to resolve.
    pub drain_s: u64,
    /// Simulated seconds of window per requested wall second, sized on a
    /// 2-CPU Xeon host so that the rounds' windows together last about
    /// `--seconds` there.
    pub pace: f64,
}

/// Rounds of an end-to-end run, each a set-up and a window; host-side
/// metrics are medians over the rounds.
const ROUNDS: usize = 3;

/// Engine shards. Every workload runs the engine sequentially on one
/// shard: on a 2-CPU host two threaded shards varied twofold in wall
/// time on identical windows.
const SHARDS: usize = 1;

/// Distinct RSA key pairs, cycled over the population as the scale sweep
/// does ([`NetBuilder::key_cycle`]): unique keys would make key generation
/// most of a set-up.
const KEY_CYCLE: usize = 256;

impl Spec {
    /// The workload called `name`; `smoke` picks a tiny population.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let chat = Spec {
            name: "chat",
            nodes: 1000,
            groups: 20,
            rate: 400,
            request_bytes: 1024,
            pinned: true,
            warmup_s: 100,
            // Two PPSS cycles after the last join: private views hold no
            // stale entries any more.
            settle_s: 130,
            drain_s: 20,
            pace: 15.0,
        };
        let spec = match name {
            "chat" => chat,
            "fanout" => Spec {
                name: "fanout",
                groups: 5,
                request_bytes: 64,
                pinned: false,
                pace: 6.5,
                ..chat
            },
            "gossip" => Spec {
                name: "gossip",
                nodes: 20_000,
                groups: 0,
                rate: 0,
                request_bytes: 0,
                pinned: false,
                // Past the bootstrap transient: twelve gossip cycles.
                warmup_s: 120,
                settle_s: 0,
                drain_s: 0,
                pace: 20.0,
            },
            _ => return None,
        };
        Some(if smoke {
            Spec {
                nodes: if spec.groups == 0 { 3000 } else { 150 },
                groups: spec.groups.min(3),
                rate: spec.rate / 20,
                ..spec
            }
        } else {
            spec
        })
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub spec: Spec,
    /// Seed of every input.
    pub seed: u64,
    /// Wall seconds the measured windows should last together; each
    /// round's window covers `seconds × spec.pace / ROUNDS` simulated
    /// seconds.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// Simulated seconds of one round's window. The window is fixed in
    /// simulated time, so a run does the same work on any host and its
    /// simulated metrics are exact for a seed.
    fn window_secs(&self) -> u64 {
        let per_round = self.seconds * self.spec.pace / ROUNDS as f64;
        (per_round.round() as u64).max(1)
    }
}

/// Wall seconds of each set-up phase, and of the whole set-up in
/// reference seconds.
#[derive(Clone, Copy, Debug, Default)]
struct Phases {
    keygen: f64,
    build: f64,
    warmup: f64,
    join: f64,
    settle: f64,
    reference: f64,
}

impl Phases {
    fn total(&self) -> f64 {
        self.keygen + self.build + self.warmup + self.join + self.settle
    }

    /// Adds `wall` seconds of set-up that ended just now to the
    /// reference total, and returns them.
    fn timed(&mut self, wall: f64, speed: &mut Speed) -> f64 {
        self.reference += wall * speed.factor();
        wall
    }
}

/// A population ready for the measured window.
struct Bed {
    net: WhisperNet,
    /// Every group member with its group.
    senders: Vec<(NodeId, GroupId)>,
    phases: Phases,
    /// Generator calls into the stack during set-up (joins).
    join_span: SpanTotals,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs a set-up phase of `n` simulated seconds, one at a time so that
/// the host's speed is sampled each second; returns its wall seconds.
fn run_phase(sim: &mut Sim, n: u64, phases: &mut Phases, speed: &mut Speed) -> f64 {
    let mut wall = 0.0;
    for _ in 0..n {
        let t = Instant::now();
        sim.run_for_secs(1);
        wall += phases.timed(secs(t), speed);
    }
    wall
}

/// Builds, converges and forms the groups of one population. With
/// `probe` every node is wrapped in a [`Probe`] (`trace` turns its spans
/// on); the population is the one [`NetBuilder::build_whisper`] makes.
fn setup(spec: &Spec, seed: u64, probe: bool, trace: bool) -> Bed {
    let mut builder = NetBuilder::cluster(spec.nodes, seed);
    builder.sim = builder
        .sim
        .clone()
        .with_shards(SHARDS)
        .with_profiling(trace)
        .with_expected_nodes(spec.nodes);
    builder.key_cycle = Some(KEY_CYCLE);
    let mut phases = Phases::default();
    let mut speed = Speed::new();

    let t = Instant::now();
    let distinct = KEY_CYCLE.min(spec.nodes);
    let keys = gen_keys_parallel(distinct, builder.whisper.nylon.rsa, builder.key_seed);
    phases.keygen = phases.timed(secs(t), &mut speed);

    let t = Instant::now();
    let mut sim = Sim::new(builder.sim.clone());
    let dist = NatDistribution::with_public_ratio(builder.public_ratio);
    let boots = builder.bootstraps as u64;
    let mut ids = Vec::with_capacity(spec.nodes);
    for i in 0..spec.nodes {
        let key = keys[i % distinct].clone();
        let mut node = WhisperNode::with_app(
            builder.whisper.clone(),
            key,
            Box::new(BenchApp::new(seed, spec.request_bytes)),
        );
        let nat = if i < builder.bootstraps {
            NatType::Public
        } else {
            dist.sample(sim.rng())
        };
        node.nylon_mut()
            .set_bootstrap((0..boots).map(NodeId).filter(|n| n.0 != i as u64).collect());
        let proto: Box<dyn Protocol> = if probe {
            Box::new(Probe::new(node, trace, spec.groups == 0))
        } else {
            Box::new(node)
        };
        ids.push(sim.add_node(proto, nat));
    }
    drop(keys);
    let mut net = WhisperNet { sim, ids, builder };
    phases.build = phases.timed(secs(t), &mut speed);

    phases.warmup = run_phase(&mut net.sim, spec.warmup_s, &mut phases, &mut speed);

    let t = Instant::now();
    let mut join_span = SpanTotals::default();
    let mut senders = Vec::new();
    if spec.groups > 0 {
        let leaders: Vec<NodeId> = net.publics().into_iter().take(spec.groups).collect();
        assert_eq!(
            leaders.len(),
            spec.groups,
            "not enough public nodes to lead the groups"
        );
        let membership = probe::span(&mut join_span, || {
            let groups = net.create_groups(&leaders, "bench");
            let members = net.subscribe_members(&leaders, &groups, 1, seed ^ 0x51);
            groups.into_iter().zip(members).collect::<Vec<_>>()
        });
        for (gi, (group, members)) in membership.into_iter().enumerate() {
            senders.push((leaders[gi], group));
            senders.extend(members.into_iter().map(|m| (m, group)));
        }
    }
    phases.join = phases.timed(secs(t), &mut speed);

    phases.settle = run_phase(&mut net.sim, spec.settle_s, &mut phases, &mut speed);
    let t = Instant::now();
    if spec.pinned {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9C9);
        for &(node, group) in &senders {
            net.sim.with_node_ctx::<WhisperNode>(node, |n, _| {
                n.with_api(|api, app| {
                    let me = api.id();
                    let view: Vec<NodeId> = api
                        .private_view(group)
                        .iter()
                        .map(|e| e.node)
                        .filter(|&n| n != me)
                        .collect();
                    if view.is_empty() {
                        return;
                    }
                    let partner = view[rng.gen_range(0..view.len())];
                    if api.make_persistent(group, partner) {
                        bench_app(app).partner = Some(partner);
                    }
                })
            });
        }
    }
    let pin = phases.timed(secs(t), &mut speed);
    phases.settle += pin;
    Bed {
        net,
        senders,
        phases,
        join_span,
    }
}

fn bench_app(app: &mut dyn whisper_core::GroupApp) -> &mut BenchApp {
    app.as_any_mut()
        .downcast_mut()
        .expect("benchmark nodes run BenchApp")
}

fn apps(sim: &Sim) -> impl Iterator<Item = &BenchApp> + '_ {
    sim.node_ids().into_iter().filter_map(move |id| {
        sim.node::<WhisperNode>(id)
            .and_then(|n| n.app::<BenchApp>())
    })
}

/// What the measured window did.
struct Window {
    sim_secs: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Wall and CPU seconds of each simulated second, in reference
    /// seconds.
    steps: Vec<(f64, f64)>,
    /// Requests the generator issued.
    sends: u64,
    /// Requests attempted: the generator's, or on `gossip` the exchanges
    /// the stack initiated.
    attempted: u64,
    /// Sends the stack refused.
    refused: u64,
    /// Answers that arrived inside the window.
    answered_in_window: u64,
    /// Answers by the end of the drain.
    answered: u64,
    /// Wall nanoseconds inside `run_until`.
    run_ns: u64,
    /// Generator send calls.
    send_span: SpanTotals,
    /// Callback spans (traced runs).
    spans: [SpanTotals; KINDS],
    /// Counter deltas over the window.
    counters: BTreeMap<&'static str, u64>,
    up_bytes: u64,
    up_msgs: u64,
    down_msgs: u64,
    latencies_us: Vec<u64>,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Process CPU seconds (user + system, all threads, exited ones
/// included), at nanosecond resolution.
fn cpu_secs() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; the clock id is a
    // constant the kernel defines, and the C library is linked by std.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// Peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn counter_map(m: &Metrics) -> BTreeMap<&'static str, u64> {
    m.counter_names().map(|n| (n, m.counter(n))).collect()
}

fn traffic_totals(m: &Metrics) -> (u64, u64, u64) {
    m.traffic_snapshot()
        .values()
        .fold((0, 0, 0), |(b, u, d), t| {
            (b + t.up_bytes, u + t.up_msgs, d + t.down_msgs)
        })
}

fn run_until(sim: &mut Sim, at: u64, run_ns: &mut u64) {
    let t = Instant::now();
    sim.run_until(SimTime::from_micros(at));
    *run_ns += t.elapsed().as_nanos() as u64;
}

/// Issues one request from `src`. Returns `false` when refused.
fn send(
    bed: &mut Bed,
    src: NodeId,
    group: GroupId,
    nonce: u64,
    spec: &Spec,
    rng: &mut StdRng,
) -> bool {
    let mut sent = false;
    bed.net.sim.with_node_ctx::<WhisperNode>(src, |node, ctx| {
        node.with_api(|api, app| {
            let app = bench_app(app);
            let to = if spec.pinned {
                app.partner
            } else {
                let me = api.id();
                let view: Vec<NodeId> = api
                    .private_view(group)
                    .iter()
                    .map(|e| e.node)
                    .filter(|&n| n != me)
                    .collect();
                (!view.is_empty()).then(|| view[rng.gen_range(0..view.len())])
            };
            if let Some(to) = to {
                sent = app.request(ctx, api, group, to, nonce);
            }
        })
    });
    sent
}

/// Runs the open-loop load for `sim_secs` simulated seconds, then the
/// drain.
fn window(bed: &mut Bed, args: &Args, sim_secs: u64) -> Window {
    let spec = &args.spec;
    let ids = bed.net.sim.node_ids();
    for &id in &ids {
        if let Some(node) = bed.net.sim.node_mut::<WhisperNode>(id) {
            node.with_api(|_, app| bench_app(app).latencies_us.clear());
        }
    }
    probe::take_spans();
    let before = counter_map(bed.net.sim.metrics());
    let (b0, u0, d0) = traffic_totals(bed.net.sim.metrics());
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xD21E_5EED);
    let (mut sends, mut refused, mut run_ns) = (0u64, 0u64, 0u64);
    let mut send_span = SpanTotals::default();
    let t0 = bed.net.sim.now().as_micros();
    let mut steps = Vec::with_capacity(sim_secs as usize);
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let mut speed = Speed::new();
    for s in 0..sim_secs {
        let base = t0 + s * 1_000_000;
        let (step, cpu0) = (Instant::now(), cpu_secs());
        for k in 0..spec.rate {
            // Arrivals are spread evenly through the simulated second;
            // each request is sent exactly at its due instant.
            run_until(
                &mut bed.net.sim,
                base + k * 1_000_000 / spec.rate,
                &mut run_ns,
            );
            let (src, group) = bed.senders[rng.gen_range(0..bed.senders.len())];
            sends += 1;
            let ok = if args.trace {
                probe::span(&mut send_span, || {
                    send(bed, src, group, sends, spec, &mut rng)
                })
            } else {
                send(bed, src, group, sends, spec, &mut rng)
            };
            refused += u64::from(!ok);
        }
        run_until(&mut bed.net.sim, base + 1_000_000, &mut run_ns);
        let (wall, cpu) = (secs(step), cpu_secs() - cpu0);
        wall_s += wall;
        cpu_s += cpu;
        let f = speed.factor();
        steps.push((wall * f, cpu * f));
    }
    let spans = probe::take_spans();
    let m = bed.net.sim.metrics();
    let after = counter_map(m);
    let counters: BTreeMap<&'static str, u64> = after
        .iter()
        .map(|(&n, &v)| (n, v - before.get(n).copied().unwrap_or(0)))
        .collect();
    let (b1, u1, d1) = traffic_totals(m);
    let mut answered_in_window: u64 = apps(&bed.net.sim).map(|a| a.answered).sum();
    bed.net.sim.run_for_secs(spec.drain_s);
    let mut answered: u64 = apps(&bed.net.sim).map(|a| a.answered).sum();
    let mut attempted = sends;
    if spec.groups == 0 {
        // No application traffic: the requests are the Nylon gossip
        // exchanges the stack initiates, answered when they complete.
        attempted = counters.get("pss.gossip_initiated").copied().unwrap_or(0);
        answered_in_window = counters.get("pss.gossip_completed").copied().unwrap_or(0);
        answered = answered_in_window;
    }
    let latencies_us = apps(&bed.net.sim)
        .flat_map(|a| a.latencies_us.iter().copied())
        .collect();
    Window {
        sim_secs,
        wall_s,
        cpu_s,
        steps,
        sends,
        attempted,
        refused,
        answered_in_window,
        answered,
        run_ns,
        send_span,
        spans,
        counters,
        up_bytes: b1 - b0,
        up_msgs: u1 - u0,
        down_msgs: d1 - d0,
        latencies_us,
    }
}

impl Window {
    fn reference_wall_s(&self) -> f64 {
        self.steps.iter().map(|s| s.0).sum()
    }
}

/// Percentile `p` (0–100) of sorted `v`, nearest rank.
fn percentile(v: &[u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 digests of the run's deterministic observables: counters
/// (without the host-side `net.pool_*` and `prof.*`), sample series
/// (without `*_wall_us`), per-node traffic and the application outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Digests {
    counters: String,
    samples: String,
    traffic: String,
    app: String,
}

impl Digests {
    fn of(sim: &Sim) -> Digests {
        let m = sim.metrics();
        let mut h = Sha256::new();
        for name in m
            .counter_names()
            .filter(|n| !n.starts_with("net.pool_") && !n.starts_with("prof."))
        {
            h.update(format!("{name}={}\n", m.counter(name)).as_bytes());
        }
        let counters = hex(&h.finalize());
        let mut h = Sha256::new();
        for name in m.sample_names().filter(|n| !n.ends_with("_wall_us")) {
            h.update(name.as_bytes());
            for v in m.samples(name) {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        let samples = hex(&h.finalize());
        let mut h = Sha256::new();
        for (node, t) in m.traffic_snapshot() {
            for v in [node.0, t.up_bytes, t.down_bytes, t.up_msgs, t.down_msgs] {
                h.update(&v.to_le_bytes());
            }
        }
        let traffic = hex(&h.finalize());
        let mut h = Sha256::new();
        for a in apps(sim) {
            for v in [
                a.sent,
                a.answered,
                a.received,
                a.bad_requests,
                a.bad_replies,
            ] {
                h.update(&v.to_le_bytes());
            }
            for v in &a.latencies_us {
                h.update(&v.to_le_bytes());
            }
        }
        let app = hex(&h.finalize());
        Digests {
            counters,
            samples,
            traffic,
            app,
        }
    }

    fn combined(&self) -> String {
        hex(&Sha256::digest(
            format!(
                "{}{}{}{}",
                self.counters, self.samples, self.traffic, self.app
            )
            .as_bytes(),
        ))
    }
}

/// One metric as printed.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// What a run prints.
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// The checks that failed.
    pub failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Report {
    /// Prints the human-readable lines, then the JSON result line.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for m in &self.metrics {
            println!("{:<26} {:>16.4} {}{}", m.name, m.value, m.unit, m.note);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout came from, read from `.git` without running
/// git; `unknown` outside a repository.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn manifest(args: &Args, w: &Window, d: &Digests, traced: bool) -> String {
    let s = &args.spec;
    format!(
        "manifest {{\"workload\": \"{}\", \"seed\": {}, \"nodes\": {}, \"groups\": {}, \"rate_per_sim_s\": {}, \
         \"request_bytes\": {}, \"pinned\": {}, \"key_cycle\": {}, \"warmup_s\": {}, \"settle_s\": {}, \
         \"window_sim_s\": {}, \"drain_s\": {}, \"shards\": {}, \"threads\": {}, \"nproc\": {}, \"traced\": {}, \
         \"git_rev\": \"{}\", \"digest\": {{\"counters\": \"{}\", \"samples\": \"{}\", \"traffic\": \"{}\", \
         \"app\": \"{}\", \"all\": \"{}\"}}}}",
        s.name,
        args.seed,
        s.nodes,
        s.groups,
        s.rate,
        s.request_bytes,
        s.pinned,
        KEY_CYCLE,
        s.warmup_s,
        s.settle_s,
        w.sim_secs,
        s.drain_s,
        SHARDS,
        SHARDS > 1,
        nproc(),
        traced,
        git_rev(),
        d.counters,
        d.samples,
        d.traffic,
        d.app,
        d.combined()
    )
}

/// The output checks common to both modes.
fn check(bed: &Bed, w: &Window, spec: &Spec) -> Vec<String> {
    let mut failures = Vec::new();
    let sim = &bed.net.sim;
    let (mut bad_req, mut bad_rep, mut received) = (0u64, 0u64, 0u64);
    for a in apps(sim) {
        bad_req += a.bad_requests;
        bad_rep += a.bad_replies;
        received += a.received;
    }
    if bad_req > 0 {
        failures.push(format!(
            "{bad_req} requests differed from their generated content"
        ));
    }
    if bad_rep > 0 {
        failures.push(format!("{bad_rep} replies did not match their request"));
    }
    let m = sim.metrics();
    let (_, up, down) = traffic_totals(m);
    let drops: u64 = DROP_COUNTERS.iter().map(|n| m.counter(n)).sum();
    let unattributed = up as i128 - (down + drops + sim.in_flight_msgs()) as i128;
    if unattributed != 0 {
        failures.push(format!(
            "{unattributed} messages unattributed (sent − delivered − dropped − in flight)"
        ));
    }
    if w.attempted == 0 || w.answered == 0 {
        failures.push(format!(
            "{} attempted, {} answered: the workload did nothing",
            w.attempted, w.answered
        ));
    }
    if spec.groups > 0 && received < w.answered {
        failures.push(format!(
            "{} answers but only {received} requests received",
            w.answered
        ));
    }
    failures
}

/// The operations the generator issued and how many failed: requests on
/// the messaging workloads; on `gossip`, which carries no requests, the
/// simulated-second steps (the stack's own gossip exchanges are the
/// workload's requests in `delivery_ratio`, where timeouts are protocol
/// behaviour, not failed operations).
fn operations(spec: &Spec, w: &Window) -> (u64, u64) {
    if spec.groups == 0 {
        (w.sim_secs, 0)
    } else {
        (w.attempted, w.attempted.saturating_sub(w.answered))
    }
}

/// The end-to-end metrics of window `w`, with host-side times `wall_s`,
/// `cpu_s` and `setup_s`.
fn e2e_metrics(args: &Args, w: &Window, wall_s: f64, cpu_s: f64, setup_s: f64) -> Vec<Metric> {
    let nodes = args.spec.nodes as f64;
    let node_s = nodes * w.sim_secs as f64;
    let mut lat = w.latencies_us.clone();
    lat.sort_unstable();
    let n = lat.len();
    let mut p50 = metric("latency_p50_ms", percentile(&lat, 50.0) / 1000.0, "ms");
    let mut p99 = metric("latency_p99_ms", percentile(&lat, 99.0) / 1000.0, "ms");
    p50.note = format!("  (n={n}, simulated)");
    p99.note = format!(
        "  (n={n}, {} beyond, simulated)",
        n - (n as f64 * 0.99).ceil() as usize
    );
    vec![
        metric(
            "delivered_per_s",
            w.answered_in_window as f64 / wall_s,
            "msg/s",
        ),
        metric(
            "delivered_per_cpu_s",
            w.answered_in_window as f64 / cpu_s,
            "msg/s",
        ),
        metric("node_s_per_s", node_s / wall_s, "node-s/s"),
        metric("node_s_per_cpu_s", node_s / cpu_s, "node-s/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "delivery_ratio",
            w.answered as f64 / w.attempted.max(1) as f64,
            "fraction",
        ),
        p50,
        p99,
        metric("bytes_per_node_s", w.up_bytes as f64 / node_s, "B/node-s"),
    ]
}

fn header(args: &Args) -> String {
    let s = &args.spec;
    let load = if s.groups == 0 {
        "no application load: requests are the Nylon gossip exchanges the stack initiates; \
         latency is their round trip"
            .to_string()
    } else {
        format!(
            "open loop: {} requests of {} B per simulated second, spread evenly, each sent at its due \
             instant (generator lateness is 0 by construction); latency is one-way, due instant to \
             arrival at the destination app",
            s.rate, s.request_bytes
        )
    };
    format!("workload {} seed {}: {}", s.name, args.seed, load)
}

fn window_line(label: &str, setup: &Phases, w: &Window, drain_s: u64) -> String {
    format!(
        "{label}: set-up {:.3} wall s ({:.3} reference s); window {} simulated s in {:.3} wall s, {:.3} CPU s \
         ({:.3} reference wall s), then {drain_s} s drain; {} attempted, {} refused, {} answered ({} inside \
         the window)",
        setup.total(),
        setup.reference,
        w.sim_secs,
        w.wall_s,
        w.cpu_s,
        w.reference_wall_s(),
        w.attempted,
        w.refused,
        w.answered,
        w.answered_in_window
    )
}

/// The end-to-end run: [`ROUNDS`] rounds of a set-up and an
/// untraced window. The rounds repeat the same simulated work, which the
/// digests check; host-side times are medians over the rounds.
pub fn end_to_end(args: &Args) -> Report {
    let spec = &args.spec;
    let mut failures = Vec::new();
    let mut rounds = Vec::new();
    let mut digests: Option<Digests> = None;
    for round in 0..ROUNDS {
        let mut bed = setup(spec, args.seed, spec.groups == 0, false);
        let w = window(&mut bed, args, args.window_secs());
        failures.extend(check(&bed, &w, spec));
        let d = Digests::of(&bed.net.sim);
        match &digests {
            Some(first) if *first != d => failures.push(format!(
                "round {round} did other work than round 0: {d:?} vs {first:?}"
            )),
            Some(_) => {}
            None => digests = Some(d),
        }
        rounds.push((bed.phases, w));
    }
    // The rounds repeat each simulated second exactly, so each second's
    // host time is the median of its repeats: a burst of load from other
    // processes on the host spoils one repeat, not the run.
    let step_median = |i: usize, pick: fn(&(f64, f64)) -> f64| {
        median(
            &mut rounds
                .iter()
                .map(|(_, w)| pick(&w.steps[i]))
                .collect::<Vec<_>>(),
        )
    };
    let steps = rounds[0].1.steps.len();
    let wall_s = (0..steps).map(|i| step_median(i, |s| s.0)).sum();
    let cpu_s = (0..steps).map(|i| step_median(i, |s| s.1)).sum();
    let mut setups: Vec<f64> = rounds.iter().map(|(p, _)| p.reference).collect();
    let metrics = e2e_metrics(args, &rounds[0].1, wall_s, cpu_s, median(&mut setups));
    let mut lines = vec![header(args)];
    for (r, (setup, w)) in rounds.iter().enumerate() {
        lines.push(window_line(&format!("round {r}"), setup, w, spec.drain_s));
    }
    let w = &rounds[0].1;
    let count = |name: &str| w.counters.get(name).copied().unwrap_or(0);
    let (hits, onions) = (count("wcl.circuit_hit"), count("wcl.paths_built"));
    lines.push(format!(
        "wcl circuit share {:.4} ({hits} circuit hits, {onions} onions built)",
        hits as f64 / (hits + onions).max(1) as f64
    ));
    lines.push(manifest(
        args,
        w,
        digests.as_ref().expect("at least one round"),
        false,
    ));
    let (attempted, failed) = operations(spec, w);
    Report {
        correct: failures.is_empty(),
        failures,
        attempted,
        failed,
        metrics,
        lines,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The per-layer run: a traced set-up and window, then an untraced run
/// of exactly the same simulated work, whose observables must be
/// byte-identical and whose wall time gives the tracing overhead.
pub fn traced(args: &Args) -> Report {
    let spec = &args.spec;
    let mut bed = setup(spec, args.seed, true, true);
    let tw = window(&mut bed, args, args.window_secs());
    let mut failures = check(&bed, &tw, spec);
    let traced_digests = Digests::of(&bed.net.sim);
    let phases = bed.phases;
    let join_span = bed.join_span;
    let c = |name: &str| tw.counters.get(name).copied().unwrap_or(0) as f64;
    let prof = |name: &str| ms(tw.counters.get(name).copied().unwrap_or(0));
    drop(bed);

    let mut reference = setup(spec, args.seed, spec.groups == 0, false);
    let rw = window(&mut reference, args, tw.sim_secs);
    let reference_digests = Digests::of(&reference.net.sim);
    let reference_phases = reference.phases;
    drop(reference);
    if traced_digests != reference_digests {
        failures.push(format!(
            "traced run differs from the untraced one: {traced_digests:?} vs {reference_digests:?}"
        ));
    }

    let k = |kind: Kind| tw.spans[kind as usize];
    let mut callbacks = SpanTotals::default();
    for t in &tw.spans {
        callbacks.merge(t);
    }
    let mut crypto = callbacks;
    crypto.merge(&tw.send_span);
    let mut pss = k(Kind::Gossip);
    pss.merge(&k(Kind::Nat));
    pss.merge(&k(Kind::NylonTimer));
    let hits = c("wcl.circuit_hit");
    let onions = c("wcl.paths_built");
    let fresh = c("net.allocs");
    let sends = fresh + c("net.payload_cloned") + c("net.payload_pooled");
    let drops: f64 = DROP_COUNTERS.iter().map(|n| c(n)).sum();
    let metrics = vec![
        metric("driver.send_ms", ms(tw.send_span.ns), "ms"),
        metric("driver.sends", tw.sends as f64, "count"),
        metric("driver.refused", tw.refused as f64, "count"),
        metric("driver.keygen_ms", phases.keygen * 1e3, "ms"),
        metric("driver.build_ms", phases.build * 1e3, "ms"),
        metric("driver.warmup_ms", phases.warmup * 1e3, "ms"),
        metric("driver.join_ms", phases.join * 1e3, "ms"),
        metric("driver.settle_ms", phases.settle * 1e3, "ms"),
        metric("net.run_ms", ms(tw.run_ns), "ms"),
        metric(
            "net.engine_self_ms",
            ms(tw.run_ns.saturating_sub(callbacks.ns)),
            "ms",
        ),
        metric("net.sched_ms", prof("prof.sched_ns"), "ms"),
        metric("net.engine_ms", prof("prof.engine_ns"), "ms"),
        metric("net.events", c("prof.events"), "count"),
        metric("net.msgs_sent", tw.up_msgs as f64, "count"),
        metric("net.msgs_delivered", tw.down_msgs as f64, "count"),
        metric("net.drops", drops, "count"),
        metric("net.nat_blocked", c("net.nat_blocked"), "count"),
        metric(
            "net.allocs_per_send",
            (fresh + c("net.pool_misses")) / sends.max(1.0),
            "allocs/send",
        ),
        metric("wire.encode_ms", prof("prof.encode_ns"), "ms"),
        metric("wire.decode_ms", prof("prof.decode_ns"), "ms"),
        metric("pss.gossip_ms", ms(pss.self_ns()), "ms"),
        metric("pss.relay_ms", ms(k(Kind::Relayed).self_ns()), "ms"),
        metric("pss.gossip_completed", c("pss.gossip_completed"), "count"),
        metric("pss.gossip_timeout", c("pss.gossip_timeout"), "count"),
        metric("pss.relayed_forwarded", c("pss.relayed_forwarded"), "count"),
        metric(
            "pss.open_relay_fallback",
            c("pss.open_relay_fallback"),
            "count",
        ),
        metric("wcl.packet_ms", ms(k(Kind::Wcl).self_ns()), "ms"),
        metric("wcl.retry_ms", ms(k(Kind::WclRetry).self_ns()), "ms"),
        metric("wcl.onions_built", onions, "count"),
        metric("wcl.circuit_hits", hits, "count"),
        metric(
            "wcl.circuit_share",
            hits / (hits + onions).max(1.0),
            "fraction",
        ),
        metric("wcl.retries", c("wcl.route_retry"), "count"),
        metric("wcl.route_exhausted", c("wcl.route_exhausted"), "count"),
        metric("wcl.circuit_teardown", c("wcl.circuit_teardown"), "count"),
        metric("ppss.cycle_ms", ms(k(Kind::PpssCycle).self_ns()), "ms"),
        metric(
            "ppss.pcp_refresh_ms",
            ms(k(Kind::PcpRefresh).self_ns()),
            "ms",
        ),
        metric(
            "ppss.exchanges_initiated",
            c("ppss.exchanges_initiated"),
            "count",
        ),
        metric(
            "ppss.exchanges_completed",
            c("ppss.exchanges_completed"),
            "count",
        ),
        metric(
            "ppss.dropped_bad_passport",
            c("ppss.dropped_bad_passport"),
            "count",
        ),
        metric("crypto.rsa_ms", ms(crypto.rsa_ns), "ms"),
        metric("crypto.aes_ms", ms(crypto.aes_ns), "ms"),
        metric("crypto.rsa_limb_ops", crypto.rsa_limb_ops as f64, "count"),
        metric("crypto.aes_blocks", crypto.aes_blocks as f64, "count"),
        metric(
            "trace.overhead",
            tw.reference_wall_s() / rw.reference_wall_s() - 1.0,
            "fraction",
        ),
    ];
    let mut lines = vec![
        header(args),
        window_line("traced", &phases, &tw, spec.drain_s),
        window_line("untraced", &reference_phases, &rw, spec.drain_s),
    ];
    lines.push(format!(
        "traced join calls: {:.1} ms, {} RSA limb ops",
        ms(join_span.ns),
        join_span.rsa_limb_ops
    ));
    lines.push(format!(
        "observables traced == untraced: {}",
        if traced_digests == reference_digests {
            "yes, byte-identical"
        } else {
            "NO"
        }
    ));
    lines.push(manifest(args, &tw, &traced_digests, true));
    let (attempted, failed) = operations(spec, &tw);
    Report {
        correct: failures.is_empty(),
        failures,
        attempted,
        failed,
        metrics,
        lines,
    }
}
