//! Engine-semantics tests: ordering, loss accounting, churn-runner
//! integration with the latency profiles, and determinism across
//! heterogeneous configurations.

use whisper_net::nat::NatType;
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::{Endpoint, NodeId, Payload, SimDuration, SimTime};

/// Records every delivery with its arrival time.
struct Recorder {
    received: Vec<(SimTime, NodeId, Vec<u8>)>,
}

impl Protocol for Recorder {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, _ep: Endpoint, data: &Payload) {
        self.received.push((ctx.now(), from, data.to_vec()));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Sends a burst of numbered messages at start.
struct Burst {
    target: NodeId,
    count: u32,
}

impl Protocol for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.count {
            ctx.send_to(Endpoint::public(self.target), i.to_be_bytes().to_vec());
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &Payload) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn deliveries_are_time_ordered() {
    let mut sim = Sim::new(SimConfig::planetlab(1));
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Burst { target: sink, count: 200 }), NatType::Public);
    sim.run_for_secs(30);
    let rec: &Recorder = sim.node(sink).unwrap();
    assert!(!rec.received.is_empty());
    // Arrival times are monotone in processing order even though the
    // heavy-tailed latency model reorders messages relative to sending.
    for w in rec.received.windows(2) {
        assert!(w[0].0 <= w[1].0, "event times went backwards");
    }
    // The heavy tail actually reordered something (messages were sent in
    // sequence; payloads arriving out of numeric order prove reordering).
    let payloads: Vec<u32> = rec
        .received
        .iter()
        .map(|(_, _, d)| u32::from_be_bytes(d.as_slice().try_into().unwrap()))
        .collect();
    assert!(
        payloads.windows(2).any(|w| w[0] > w[1]),
        "PlanetLab latencies should reorder a 200-message burst"
    );
}

#[test]
fn loss_rate_matches_profile() {
    let mut sim = Sim::new(SimConfig::planetlab(2)); // 2% loss
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Burst { target: sink, count: 5000 }), NatType::Public);
    sim.run_for_secs(60);
    let rec: &Recorder = sim.node(sink).unwrap();
    let delivered = rec.received.len();
    let lost = sim.metrics().counter("net.lost");
    assert_eq!(delivered as u64 + lost, 5000);
    let rate = lost as f64 / 5000.0;
    assert!((rate - 0.02).abs() < 0.01, "loss rate {rate}");
}

#[test]
fn cluster_profile_is_lossless() {
    let mut sim = Sim::new(SimConfig::cluster(3));
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Burst { target: sink, count: 2000 }), NatType::Public);
    sim.run_for_secs(60);
    let rec: &Recorder = sim.node(sink).unwrap();
    assert_eq!(rec.received.len(), 2000);
    assert_eq!(sim.metrics().counter("net.lost"), 0);
}

#[test]
fn removing_receiver_mid_flight_drops_cleanly() {
    let mut sim = Sim::new(SimConfig::planetlab(4));
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Burst { target: sink, count: 100 }), NatType::Public);
    // Kill the sink while messages are still in flight.
    sim.run_for(SimDuration::from_millis(10));
    sim.remove_node(sink);
    sim.run_for_secs(30);
    // Nothing panicked; undeliverable messages were counted.
    assert!(sim.metrics().counter("net.drop_dead_target") > 0);
}

/// Removal while deliveries are in flight must keep the accounting
/// identity exact and stay O(1): the removed node's queued messages are
/// attributed to `net.drop_dead_target` when they surface, and the
/// engine's incremental in-flight counter never drifts — including when
/// the removed node lives on a non-zero shard.
#[test]
fn removal_during_in_flight_delivery_keeps_accounting_exact() {
    for shards in [1usize, 4] {
        let mut sim = Sim::new(SimConfig::planetlab(6).with_shards(shards).with_threads(false));
        let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
        sim.add_node(Box::new(Burst { target: sink, count: 300 }), NatType::Public);
        sim.run_for(SimDuration::from_millis(20));
        let in_flight_before = sim.in_flight_msgs();
        assert!(in_flight_before > 0, "burst must still be in flight");
        sim.remove_node(sink);
        assert!(!sim.contains(sink), "removed node is gone");
        assert!(!sim.is_down(sink), "removed is distinct from crashed");
        assert_eq!(
            sim.in_flight_msgs(),
            in_flight_before,
            "removal must not forget queued deliveries ({shards} shards)"
        );
        sim.run_for_secs(60);
        let m = sim.metrics();
        let delivered: u64 = m
            .traffic_snapshot()
            .values()
            .map(|t| t.down_msgs)
            .sum();
        assert_eq!(sim.in_flight_msgs(), 0, "everything drained");
        assert_eq!(
            delivered + m.counter("net.drop_dead_target") + m.counter("net.lost"),
            300,
            "every send delivered, dropped-dead, or lost ({shards} shards)"
        );
        assert!(m.counter("net.drop_dead_target") > 0);
    }
}

#[test]
fn node_ids_are_never_reused() {
    let mut sim = Sim::new(SimConfig::ideal(5));
    let a = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.remove_node(a);
    let b = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    assert_ne!(a, b, "ids are unique across the whole run");
    assert!(b > a);
}

#[test]
fn identical_seeds_replay_identical_arrival_times() {
    fn arrivals(seed: u64) -> Vec<u64> {
        let mut sim = Sim::new(SimConfig::planetlab(seed));
        let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
        sim.add_node(Box::new(Burst { target: sink, count: 50 }), NatType::Public);
        sim.run_for_secs(30);
        let rec: &Recorder = sim.node(sink).unwrap();
        rec.received.iter().map(|(t, _, _)| t.as_micros()).collect()
    }
    assert_eq!(arrivals(42), arrivals(42));
    assert_ne!(arrivals(42), arrivals(43), "different seeds differ");
}

/// Sends one message to `target` every 100 ms, forever.
struct Ticker {
    target: NodeId,
    sent: u64,
}

impl Protocol for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &Payload) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_to(Endpoint::public(self.target), vec![0xAB]);
        self.sent += 1;
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Like [`Ticker`] but sends through the pooled wire-encode path, the way
/// real protocols do — this is the hot path the buffer pool serves.
struct WireTicker {
    target: NodeId,
}

impl Protocol for WireTicker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &Payload) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_wire(Endpoint::public(self.target), &0xABAB_CDCD_u64);
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The allocation claim, asserted deterministically: the engine's honest
/// heap-allocation figure (`net.allocs` for fresh payloads plus
/// `net.pool_misses` for pool refills) collapses to a handful of warm-up
/// allocations. The unpooled baseline is one allocation and 8 bytes (the
/// encoded `u64`) per send, so both figures are held to ≥5× below it.
#[test]
fn pooling_slashes_allocations_per_event() {
    let mut sim = Sim::new(SimConfig::cluster(21));
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    for _ in 0..8 {
        sim.add_node(Box::new(WireTicker { target: sink }), NatType::Public);
    }
    sim.run_for_secs(30);
    let m = sim.metrics();
    let allocs = m.counter("net.allocs") + m.counter("net.pool_misses");
    let bytes = m.counter("net.alloc_bytes") + m.counter("net.pool_miss_bytes");
    let (sent, delivered) = traffic_totals(&sim);
    assert!(delivered > 4000, "workload too small to mean anything");
    // Steady state recycles the delivery's buffer before the next send
    // needs one.
    assert!(allocs * 5 <= sent, "pooling must cut allocations ≥5×: {allocs} for {sent} sends");
    assert!(
        bytes * 5 <= 8 * sent,
        "pooling must cut allocated bytes ≥5×: {bytes} B for {sent} sends"
    );
}

/// Cross-shard exchange batches are recycled through a shared spare-vector
/// pool: the threaded engine draws fresh vectors only while the pool warms
/// up (`net.pool_exchange_fresh`), then reuses them forever. The sequential
/// path swaps batches in place and cannot allocate by construction, so the
/// threaded path is the one worth pinning down.
#[test]
fn steady_state_exchange_allocations_are_zero() {
    let mut sim = Sim::new(
        SimConfig::cluster(33)
            .with_shards(4)
            .with_threads(true) // force the pooled path even on 1 CPU
            .with_expected_nodes(16),
    );
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    for _ in 0..12 {
        sim.add_node(Box::new(Ticker { target: sink, sent: 0 }), NatType::Public);
    }
    sim.run_for_secs(10);
    let warm = sim.metrics().counter("net.pool_exchange_fresh");
    assert!(warm > 0, "threaded exchange must draw fresh vectors during warm-up");
    let (_, delivered_warm) = traffic_totals(&sim);
    sim.run_for_secs(60);
    let steady = sim.metrics().counter("net.pool_exchange_fresh");
    let (_, delivered) = traffic_totals(&sim);
    assert!(delivered > delivered_warm, "measurement epoch must carry traffic");
    assert_eq!(
        steady, warm,
        "steady-state cross-shard exchange must recycle batches, not allocate"
    );
}

/// Sum of all per-node up / down message counts.
fn traffic_totals(sim: &Sim) -> (u64, u64) {
    let t = sim.metrics().traffic_snapshot();
    (
        t.values().map(|t| t.up_msgs).sum(),
        t.values().map(|t| t.down_msgs).sum(),
    )
}

/// Every send must end up delivered, attributed to a *named* drop
/// counter, or still in flight — even with every fault class active at
/// once. This is the accounting identity the chaos suite relies on.
#[test]
fn every_sim_drop_has_a_named_counter() {
    use whisper_net::fault::{FaultPlan, GilbertElliott};
    let mut sim = Sim::new(SimConfig::planetlab(11)); // 2% base loss
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    let a = sim.add_node(Box::new(Ticker { target: sink, sent: 0 }), NatType::Public);
    let b = sim.add_node(Box::new(Ticker { target: sink, sent: 0 }), NatType::Public);
    let at = |s: u64| SimTime::from_micros(s * 1_000_000);
    sim.install_fault_plan(
        FaultPlan::new()
            .partition([a], at(5), at(10))
            .burst_loss(at(12), at(18), GilbertElliott::heavy())
            .latency_spike(at(20), at(25), 10)
            .crash_restart(sink, at(27), at(33))
            .nat_rebind(b, at(35)),
    );
    sim.run_for_secs(60);
    let m = sim.metrics();
    // Each fault class left its mark under its own counter.
    for name in [
        "net.lost",
        "net.lost_burst",
        "net.drop_partition",
        "net.drop_crashed",
        "net.delay_spiked",
        "net.fault_crash",
        "net.fault_restart",
        "net.fault_nat_rebind",
    ] {
        assert!(m.counter(name) > 0, "expected {name} > 0");
    }
    let (up, down) = traffic_totals(&sim);
    let drops = m.counter("net.lost")
        + m.counter("net.lost_burst")
        + m.counter("net.drop_partition")
        + m.counter("net.drop_crashed")
        + m.counter("net.drop_dead_target")
        + m.counter("net.nat_blocked")
        + m.counter("net.drop_sender_gone");
    assert_eq!(
        up,
        down + drops + sim.in_flight_msgs(),
        "a message vanished without attribution"
    );
}

/// Partition drops and crash drops are distinct causes: a send across the
/// cut is `net.drop_partition`, a send to a down-but-coming-back node is
/// `net.drop_crashed`, and a send to a removed node is
/// `net.drop_dead_target`.
#[test]
fn drop_causes_are_not_conflated() {
    use whisper_net::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::cluster(12)); // lossless base
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    let gone = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Ticker { target: sink, sent: 0 }), NatType::Public);
    sim.add_node(Box::new(Ticker { target: gone, sent: 0 }), NatType::Public);
    let at = |s: u64| SimTime::from_micros(s * 1_000_000);
    sim.install_fault_plan(
        FaultPlan::new()
            .partition([sink], at(5), at(10))
            .crash_restart(sink, at(15), at(20)),
    );
    sim.run_for_secs(12);
    sim.remove_node(gone);
    sim.run_for_secs(18);
    let m = sim.metrics();
    assert!(m.counter("net.drop_partition") > 0);
    assert!(m.counter("net.drop_crashed") > 0);
    assert!(m.counter("net.drop_dead_target") > 0);
    assert_eq!(m.counter("net.lost"), 0, "cluster profile is lossless");
    assert_eq!(m.counter("net.lost_burst"), 0, "no burst window installed");
    // The sink survived its crash: deliveries resumed after restart.
    let rec: &Recorder = sim.node(sink).unwrap();
    assert!(
        rec.received.iter().any(|(t, _, _)| *t >= at(20)),
        "deliveries should resume after the restart"
    );
    assert!(
        !rec.received.iter().any(|(t, _, _)| *t >= at(15) && *t < at(20)),
        "no delivery may reach a crashed node"
    );
}
