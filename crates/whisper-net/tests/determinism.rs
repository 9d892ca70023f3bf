//! Determinism regression: the simulator is a pure function of its seed.
//!
//! WHISPER's evaluation (paper §V) is reproduced by replaying seeded
//! simulator runs, so two runs with the same seed must produce
//! **byte-identical** event traces — across processes, machines and
//! rebuilds. This test serializes everything observable about a run (every
//! message receipt with its timestamp and payload, every timer firing,
//! final metrics counters and per-node traffic) and compares the raw
//! bytes. If it ever breaks, something snuck a nondeterministic input into
//! the engine: OS entropy, hash-map iteration order, wall-clock time…
//! See `DESIGN.md` § "Determinism & randomness".

use whisper_net::nat::NatType;
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::{Endpoint, NodeId, Payload, SimDuration};
use whisper_rand::{Rng, RngCore};

/// A protocol that exercises every randomness source a real protocol
/// uses — random partner selection, random payload bytes, random timer
/// jitter — and appends every event it observes to a byte trace.
struct Chatter {
    peers: Vec<NodeId>,
    trace: Vec<u8>,
}

impl Chatter {
    fn log(&mut self, tag: u8, now_us: u64, detail: &[u8]) {
        self.trace.push(tag);
        self.trace.extend_from_slice(&now_us.to_le_bytes());
        self.trace.extend_from_slice(detail);
    }
}

impl Protocol for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let jitter = ctx.rng().gen_range(0..20_000u64);
        ctx.set_timer(SimDuration::from_micros(10_000 + jitter), 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, _ep: Endpoint, data: &Payload) {
        let now = ctx.now().as_micros();
        let mut detail = from.0.to_le_bytes().to_vec();
        detail.extend_from_slice(data);
        self.log(b'M', now, &detail);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let now = ctx.now().as_micros();
        self.log(b'T', now, &token.to_le_bytes());
        // Fire a random-length payload of random bytes at a random peer,
        // encoded into a buffer from the shard's payload pool, so every
        // shard count recycles delivered buffers along its own history.
        let target = self.peers[ctx.rng().gen_range(0..self.peers.len())];
        let len = ctx.rng().gen_range(8..64usize);
        let mut payload = vec![0u8; len];
        ctx.rng().fill_bytes(&mut payload);
        ctx.send_wire(Endpoint::public(target), &payload);
        let jitter = ctx.rng().gen_range(0..30_000u64);
        ctx.set_timer(SimDuration::from_micros(20_000 + jitter), token + 1);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Runs a 16-node, 30-simulated-second chatter mesh on the PlanetLab
/// profile (latency jitter + loss, so engine randomness shapes delivery)
/// and returns the full serialized observable state.
fn run_trace(seed: u64) -> Vec<u8> {
    run_trace_sharded(seed, 1)
}

/// [`run_trace`] with an explicit shard count, for the shard-invariance
/// matrix.
fn run_trace_sharded(seed: u64, shards: usize) -> Vec<u8> {
    serialize_chatter(&run_chatter(seed, shards))
}

/// Builds and runs the chatter mesh.
fn run_chatter(seed: u64, shards: usize) -> Sim {
    // Profiling stays ON for the whole matrix: the wall-clock buckets it
    // gathers land only in the exempt `prof.*` counters, so the trace must
    // not change with the profiler running (DESIGN.md §16).
    let mut sim =
        Sim::new(SimConfig::planetlab(seed).with_shards(shards).with_profiling(true));
    let peers: Vec<NodeId> = (0..16).map(NodeId).collect();
    for _ in 0..16u64 {
        // All nodes public so the chatter mesh is fully connected; the NAT
        // machinery has its own tests.
        sim.add_node(
            Box::new(Chatter { peers: peers.clone(), trace: Vec::new() }),
            NatType::Public,
        );
    }
    sim.run_for_secs(30);
    sim
}

/// Serializes everything observable about a chatter run.
fn serialize_chatter(sim: &Sim) -> Vec<u8> {
    let mut out = Vec::new();
    for id in sim.node_ids() {
        let chatter = sim.node::<Chatter>(id).expect("chatter node");
        out.extend_from_slice(&id.0.to_le_bytes());
        out.extend_from_slice(&(chatter.trace.len() as u64).to_le_bytes());
        out.extend_from_slice(&chatter.trace);
    }
    // Engine-side observables: counters and per-node traffic (BTreeMap:
    // iteration order is defined).
    let metrics = sim.metrics();
    for (node, traffic) in metrics.traffic_snapshot() {
        out.extend_from_slice(&node.0.to_le_bytes());
        out.extend_from_slice(&traffic.up_msgs.to_le_bytes());
        out.extend_from_slice(&traffic.down_msgs.to_le_bytes());
        out.extend_from_slice(&traffic.up_bytes.to_le_bytes());
        out.extend_from_slice(&traffic.down_bytes.to_le_bytes());
    }
    out.extend_from_slice(&sim.now().as_micros().to_le_bytes());
    out
}

/// Two runs with the same seed are byte-identical.
#[test]
fn same_seed_is_byte_identical() {
    let a = run_trace(0x5748_5350); // "WHSP"
    let b = run_trace(0x5748_5350);
    assert_eq!(a.len(), b.len(), "trace lengths diverged");
    assert!(a == b, "same-seed traces are not byte-identical");
    assert!(!a.is_empty(), "trace must actually contain events");
}

/// A different seed produces a different trace (the engine actually uses
/// the seed).
#[test]
fn different_seed_differs() {
    assert_ne!(run_trace(1), run_trace(2), "seed does not influence the trace");
}

/// The determinism contract's strongest clause (DESIGN.md §12): the shard
/// count is a *layout knob*, invisible to the trace. For every seed in
/// the matrix, the 2- and 4-shard runs must be byte-identical to the
/// 1-shard run, including every counter and per-node traffic figure.
/// Chatter sends through pooled buffers, so each shard count also reuses
/// delivered buffers along a different shard-local history (DESIGN.md
/// §13): any leak of a recycled buffer's old bytes shows up here.
#[test]
fn shard_count_is_invisible_to_the_trace() {
    for seed in [7u64, 11, 13] {
        let base = run_trace_sharded(seed, 1);
        assert!(!base.is_empty(), "seed {seed}: empty trace proves nothing");
        for shards in [2usize, 4] {
            let sim = run_chatter(seed, shards);
            if shards == 4 {
                assert!(
                    sim.metrics().counter("net.pool_hits") > 0,
                    "seed {seed}: the 4-shard run never reused a pooled buffer"
                );
            }
            assert!(
                base == serialize_chatter(&sim),
                "seed {seed}: {shards}-shard trace diverged from 1-shard"
            );
        }
    }
}

/// Runs the full WHISPER stack — PSS warm-up, then WCL sends that
/// establish and then ride a cached circuit — and serializes every
/// deterministic observable: all counters, all sample series *except* the
/// wall-clock `*_wall_us` secondaries (the one sanctioned
/// host-dependent output; see DESIGN.md § "Deterministic crypto
/// accounting"), per-node traffic, and the final clock.
fn run_stack_trace(seed: u64) -> Vec<u8> {
    run_stack_trace_sharded(seed, 1)
}

/// [`run_stack_trace`] with an explicit shard count,
/// proving the full crypto stack rides the contract too.
fn run_stack_trace_sharded(seed: u64, shards: usize) -> Vec<u8> {
    use whisper_core::{WhisperConfig, WhisperNode};
    use whisper_crypto::rsa::KeyPair;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    let cfg = WhisperConfig::default();
    let mut keyrng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(SimConfig::cluster(seed).with_shards(shards).with_profiling(true));
    let mk = |boot: bool, keyrng: &mut StdRng| {
        let mut node = WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, keyrng));
        if !boot {
            node.nylon_mut().set_bootstrap(vec![NodeId(0), NodeId(1)]);
        }
        node
    };
    let b0 = sim.add_node(Box::new(mk(true, &mut keyrng)), NatType::Public);
    let b1 = sim.add_node(Box::new(mk(true, &mut keyrng)), NatType::Public);
    sim.with_node_ctx::<WhisperNode>(b0, |n, _| n.nylon_mut().set_bootstrap(vec![b1]));
    sim.with_node_ctx::<WhisperNode>(b1, |n, _| n.nylon_mut().set_bootstrap(vec![b0]));
    for _ in 0..6 {
        sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::Public);
    }
    let source = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::RestrictedCone);
    let dest = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::PortRestrictedCone);
    sim.run_for_secs(250);

    let mut dest_info = None;
    sim.with_node_ctx::<WhisperNode>(dest, |node, _| {
        node.with_api(|api, _| dest_info = Some(api.my_entry().dest_info()));
    });
    let dest_info = dest_info.expect("dest alive");
    // First send builds the RSA onion and installs the circuit; the rest
    // ride it, so the trace covers both packet formats.
    for i in 0..4u8 {
        sim.with_node_ctx::<WhisperNode>(source, |node, ctx| {
            node.with_api(|api, _| {
                api.wcl.send_untracked(ctx, api.nylon, &dest_info, &[b'p', i]);
            });
        });
        sim.run_for_secs(3);
    }

    let metrics = sim.metrics();
    assert!(metrics.counter("wcl.circuit_hit") >= 1, "steady-state path exercised");
    let mut out = Vec::new();
    // `net.pool_*` hit/miss statistics are shard-local by construction (a
    // buffer freed on shard i is only reusable there) and exempt from the
    // contract, exactly like the `*_wall_us` samples and the wall-clock
    // `prof.*` profiler buckets. DESIGN.md §13, §16.
    for name in metrics
        .counter_names()
        .filter(|n| !n.starts_with("net.pool_") && !n.starts_with("prof."))
    {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&metrics.counter(name).to_le_bytes());
    }
    for name in metrics.sample_names().filter(|n| !n.ends_with("_wall_us")) {
        out.extend_from_slice(name.as_bytes());
        for v in metrics.samples(name) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    for (node, traffic) in metrics.traffic_snapshot() {
        out.extend_from_slice(&node.0.to_le_bytes());
        out.extend_from_slice(&traffic.up_msgs.to_le_bytes());
        out.extend_from_slice(&traffic.down_msgs.to_le_bytes());
        out.extend_from_slice(&traffic.up_bytes.to_le_bytes());
        out.extend_from_slice(&traffic.down_bytes.to_le_bytes());
    }
    out.extend_from_slice(&sim.now().as_micros().to_le_bytes());
    out
}

/// Two same-seed full-stack runs with circuits enabled are byte-identical
/// — the circuit tables, eviction order, nonce chains and crypto-cost
/// model all feed only from the seed.
#[test]
fn full_stack_with_circuits_is_byte_identical() {
    let a = run_stack_trace(0xC1AC_0137);
    let b = run_stack_trace(0xC1AC_0137);
    assert_eq!(a.len(), b.len(), "stack trace lengths diverged");
    assert!(a == b, "same-seed circuit-enabled runs are not byte-identical");
}

/// The full stack — PSS, Nylon, WCL circuits, the crypto cost model —
/// produces the same bytes whether the engine runs 1 shard or 4.
#[test]
fn full_stack_is_shard_invariant() {
    let a = run_stack_trace_sharded(0xC1AC_0137, 1);
    let b = run_stack_trace_sharded(0xC1AC_0137, 4);
    assert!(a == b, "4-shard full-stack trace diverged from 1-shard");
}

/// Runs the chatter mesh under a scripted [`FaultPlan`] covering every
/// fault type — partition, Gilbert–Elliott burst loss, latency spike,
/// crash-and-restart, NAT rebinding — and serializes the observable
/// state. Fault decisions (burst-chain transitions, drop attribution,
/// deferred-timer ordering across a restart) all draw from the engine
/// RNG, so they must replay byte-for-byte.
fn run_fault_trace(seed: u64) -> Vec<u8> {
    run_fault_trace_sharded(seed, 1)
}

/// [`run_fault_trace`] with an explicit shard count:
/// crash/restart deferral, burst chains and drop attribution are applied
/// shard-locally and must not leak the partitioning.
fn run_fault_trace_sharded(seed: u64, shards: usize) -> Vec<u8> {
    use whisper_net::fault::{FaultPlan, GilbertElliott};
    use whisper_net::SimTime;

    let mut sim = Sim::new(SimConfig::planetlab(seed).with_shards(shards));
    let peers: Vec<NodeId> = (0..16).map(NodeId).collect();
    for _ in 0..16u64 {
        sim.add_node(
            Box::new(Chatter { peers: peers.clone(), trace: Vec::new() }),
            NatType::Public,
        );
    }
    // One NATted talker (in nobody's peer list, so all its traffic is
    // outbound) to give the rebind fault a binding table to clear.
    let natted = sim.add_node(
        Box::new(Chatter { peers: peers.clone(), trace: Vec::new() }),
        NatType::RestrictedCone,
    );

    let at = |s: u64| SimTime::from_micros(s * 1_000_000);
    let plan = FaultPlan::new()
        .partition([NodeId(2), NodeId(3)], at(4), at(9))
        .burst_loss(at(10), at(15), GilbertElliott::heavy())
        .latency_spike(at(16), at(20), 10)
        .crash_restart(NodeId(5), at(21), at(25))
        .nat_rebind(natted, at(26));
    sim.install_fault_plan(plan);
    sim.run_for_secs(30);

    for fired in [
        "net.drop_partition",
        "net.lost_burst",
        "net.fault_crash",
        "net.fault_restart",
        "net.fault_nat_rebind",
    ] {
        assert!(sim.metrics().counter(fired) > 0, "{fired} never fired");
    }

    let mut out = Vec::new();
    for id in sim.node_ids() {
        let chatter = sim.node::<Chatter>(id).expect("chatter node");
        out.extend_from_slice(&id.0.to_le_bytes());
        out.extend_from_slice(&(chatter.trace.len() as u64).to_le_bytes());
        out.extend_from_slice(&chatter.trace);
    }
    let metrics = sim.metrics();
    // Same `net.pool_*` / `prof.*` exemptions as the full-stack trace
    // (DESIGN.md §13, §16).
    for name in metrics
        .counter_names()
        .filter(|n| !n.starts_with("net.pool_") && !n.starts_with("prof."))
    {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&metrics.counter(name).to_le_bytes());
    }
    for (node, traffic) in metrics.traffic_snapshot() {
        out.extend_from_slice(&node.0.to_le_bytes());
        out.extend_from_slice(&traffic.up_msgs.to_le_bytes());
        out.extend_from_slice(&traffic.down_msgs.to_le_bytes());
    }
    out.extend_from_slice(&sim.now().as_micros().to_le_bytes());
    out
}

/// Two same-seed runs under a full fault plan are byte-identical, and
/// every scripted fault actually fired (otherwise the trace proves
/// nothing about the fault paths).
#[test]
fn fault_plan_run_is_byte_identical() {
    let a = run_fault_trace(0xFA_017);
    let b = run_fault_trace(0xFA_017);
    assert_eq!(a.len(), b.len(), "fault-plan trace lengths diverged");
    assert!(a == b, "same-seed fault-plan runs are not byte-identical");
    assert_ne!(
        run_fault_trace(0xFA_017),
        run_fault_trace(0xFA_018),
        "seed does not influence the fault-plan trace"
    );
}

/// Every fault type fires identically whether the victims share a shard
/// or are spread across four.
#[test]
fn fault_plan_is_shard_invariant() {
    for seed in [7u64, 11, 13] {
        let base = run_fault_trace_sharded(seed, 1);
        for shards in [2usize, 4] {
            assert!(
                base == run_fault_trace_sharded(seed, shards),
                "seed {seed}: {shards}-shard fault-plan trace diverged from 1-shard"
            );
        }
    }
}
