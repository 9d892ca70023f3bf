//! Deterministic fault injection.
//!
//! A [`FaultPlan`] scripts failures against a running [`crate::sim::Sim`]:
//! network partitions, Gilbert–Elliott burst loss, latency spikes,
//! crash-and-restart of individual nodes, and NAT rebinding. The plan is
//! *data*, not callbacks — the engine interprets it at well-defined points
//! (send time, delivery time, and scripted instants routed through the
//! ordinary event queue), and every probabilistic decision draws from the
//! sending node's link RNG stream. Two runs with the same seed and the
//! same plan therefore produce byte-identical traces — for any shard
//! count — which is what makes chaos scenarios regression-testable (see
//! `tests/chaos.rs` and DESIGN.md §11–12).
//!
//! Every packet a fault kills is attributed to a named metric counter
//! (`net.drop_partition`, `net.lost_burst`, `net.drop_crashed`, …); the
//! chaos suite asserts that the sum of those counters plus deliveries
//! plus in-flight messages equals the number of sends — no silent loss.

use crate::id::NodeId;
use crate::time::SimTime;
use std::collections::BTreeSet;
use whisper_rand::rngs::StdRng;
use whisper_rand::Rng;

/// A two-state Markov (Gilbert–Elliott) burst-loss model.
///
/// Each **sending node** runs its own chain (modelling a bursty uplink),
/// stepped once per packet that node sends while the fault window is
/// active: first the state may flip (good ↔ bad), then the packet is lost
/// with the state's loss probability. The chain draws from the sender's
/// link RNG stream, so its trajectory is a pure function of
/// `(seed, sender)` — independent of how nodes are partitioned across
/// simulator shards.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    /// Per-packet probability of entering the bad (bursty) state.
    pub p_good_to_bad: f64,
    /// Per-packet probability of leaving the bad state.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A heavy but realistic default: bursts start rarely, last ~5 packets
    /// on average, and kill more than half of what they touch. Mean loss
    /// over a long window is ≈ `p_g2b/(p_g2b+p_b2g) · loss_bad` ≈ 4%.
    pub fn heavy() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.25,
            loss_good: 0.0,
            loss_bad: 0.6,
        }
    }

    /// Steps the chain once for one packet; returns whether it is lost.
    fn step(&self, bad: &mut bool, rng: &mut StdRng) -> bool {
        let flip = if *bad { self.p_bad_to_good } else { self.p_good_to_bad };
        if flip > 0.0 && rng.gen_bool(flip) {
            *bad = !*bad;
        }
        let loss = if *bad { self.loss_bad } else { self.loss_good };
        loss > 0.0 && rng.gen_bool(loss)
    }
}

/// One scripted failure.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Bisects the network: while active, any packet whose sender and
    /// receiver are on opposite sides of `island` is dropped (counted as
    /// `net.drop_partition`). Heals at `heal_at`.
    Partition {
        /// One side of the bisection; everything else is the other side.
        island: BTreeSet<NodeId>,
        /// When the partition appears.
        from: SimTime,
        /// When it heals.
        heal_at: SimTime,
    },
    /// Applies a [`GilbertElliott`] chain to every packet sent while the
    /// window `[from, to)` is active (drops counted as `net.lost_burst`).
    BurstLoss {
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
        /// The burst-loss chain.
        model: GilbertElliott,
    },
    /// Multiplies every sampled one-way delay by `factor` while the
    /// window `[from, to)` is active (counted as `net.delay_spiked`).
    LatencySpike {
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
        /// Delay multiplier (≥ 2 to be observable).
        factor: u64,
    },
    /// Crashes `node` at `at` and restarts it at `restart_at`. While down
    /// the node receives nothing (`net.drop_crashed`), its timers are
    /// deferred to the restart instant, and its NAT bindings are wiped.
    /// On restart the engine invokes
    /// [`crate::sim::Protocol::on_crash_restart`] so the protocol can
    /// model volatile-state loss.
    CrashRestart {
        /// The node that crashes.
        node: NodeId,
        /// Crash instant.
        at: SimTime,
        /// Restart instant (must be ≥ `at`).
        restart_at: SimTime,
    },
    /// Replaces `node`'s NAT device with a fresh one of the same type at
    /// `at`: every mapping and association rule vanishes, exactly like a
    /// consumer NAT rebooting (counted as `net.fault_nat_rebind`).
    NatRebind {
        /// The node whose NAT reboots.
        node: NodeId,
        /// Rebind instant.
        at: SimTime,
    },
}

/// An ordered script of [`Fault`]s, installed into a sim with
/// [`crate::sim::Sim::install_fault_plan`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The scripted faults, in installation order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a partition of `island` vs. the rest over `[from, heal_at)`.
    pub fn partition(
        mut self,
        island: impl IntoIterator<Item = NodeId>,
        from: SimTime,
        heal_at: SimTime,
    ) -> Self {
        self.faults.push(Fault::Partition {
            island: island.into_iter().collect(),
            from,
            heal_at,
        });
        self
    }

    /// Adds a burst-loss window.
    pub fn burst_loss(mut self, from: SimTime, to: SimTime, model: GilbertElliott) -> Self {
        self.faults.push(Fault::BurstLoss { from, to, model });
        self
    }

    /// Adds a latency-spike window.
    pub fn latency_spike(mut self, from: SimTime, to: SimTime, factor: u64) -> Self {
        self.faults.push(Fault::LatencySpike { from, to, factor });
        self
    }

    /// Adds a crash-and-restart of `node`.
    pub fn crash_restart(mut self, node: NodeId, at: SimTime, restart_at: SimTime) -> Self {
        assert!(restart_at >= at, "restart_at must not precede the crash");
        self.faults.push(Fault::CrashRestart { node, at, restart_at });
        self
    }

    /// Adds a NAT rebind of `node`.
    pub fn nat_rebind(mut self, node: NodeId, at: SimTime) -> Self {
        self.faults.push(Fault::NatRebind { node, at });
        self
    }
}

/// Engine-side runtime state for installed faults. Owned by the sim and
/// shared read-only across shards; methods are called from the
/// send/deliver paths. Mutable per-sender chain state (the Gilbert–Elliott
/// `bad` flags) lives in the per-node arena slots, not here, so this
/// state stays read-only while shards run.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    faults: Vec<Fault>,
}

impl FaultState {
    /// Appends a plan's faults (point-in-time actions are scheduled by the
    /// sim separately, through the event queue).
    pub(crate) fn install(&mut self, plan: FaultPlan) {
        self.faults.extend(plan.faults);
    }

    /// Whether an active partition separates `a` from `b`.
    pub(crate) fn partition_blocks(&self, now: SimTime, a: NodeId, b: NodeId) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::Partition { island, from, heal_at } => {
                now >= *from && now < *heal_at && island.contains(&a) != island.contains(&b)
            }
            _ => false,
        })
    }

    /// Steps every active burst-loss chain of one sender once; returns
    /// whether any of them drops this packet. `ge_bad` is the sender's
    /// per-fault chain state (indexed like `faults`, grown lazily) and
    /// `rng` the sender's link RNG — both are shard-local, so traces are
    /// independent of shard count, and no draw happens outside an active
    /// window, so traces outside fault windows are unchanged.
    pub(crate) fn burst_drop(
        &self,
        now: SimTime,
        ge_bad: &mut Vec<bool>,
        rng: &mut StdRng,
    ) -> bool {
        let mut dropped = false;
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::BurstLoss { from, to, model } = f {
                if now >= *from && now < *to {
                    if ge_bad.len() <= i {
                        ge_bad.resize(i + 1, false);
                    }
                    if model.step(&mut ge_bad[i], rng) {
                        dropped = true;
                    }
                }
            }
        }
        dropped
    }

    /// The delay multiplier currently in force (1 when no spike is
    /// active; the maximum factor when several overlap).
    pub(crate) fn delay_factor(&self, now: SimTime) -> u64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::LatencySpike { from, to, factor } if now >= *from && now < *to => {
                    Some(*factor)
                }
                _ => None,
            })
            .max()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::SeedableRng;

    #[test]
    fn partition_blocks_only_across_the_cut() {
        let mut fs = FaultState::default();
        fs.install(FaultPlan::new().partition(
            [NodeId(1), NodeId(2)],
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        ));
        let mid = SimTime::from_micros(15);
        assert!(fs.partition_blocks(mid, NodeId(1), NodeId(3)));
        assert!(fs.partition_blocks(mid, NodeId(3), NodeId(2)));
        assert!(!fs.partition_blocks(mid, NodeId(1), NodeId(2)), "same island");
        assert!(!fs.partition_blocks(mid, NodeId(3), NodeId(4)), "same island");
        assert!(!fs.partition_blocks(SimTime::from_micros(5), NodeId(1), NodeId(3)));
        assert!(
            !fs.partition_blocks(SimTime::from_micros(20), NodeId(1), NodeId(3)),
            "heals at heal_at"
        );
    }

    #[test]
    fn burst_chain_is_deterministic_and_window_scoped() {
        let run = |seed| {
            let mut fs = FaultState::default();
            fs.install(FaultPlan::new().burst_loss(
                SimTime::from_micros(0),
                SimTime::from_micros(100),
                GilbertElliott::heavy(),
            ));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ge_bad = Vec::new();
            (0..200u64)
                .map(|i| fs.burst_drop(SimTime::from_micros(i), &mut ge_bad, &mut rng))
                .collect::<Vec<_>>()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same drop pattern");
        assert!(a[..100].iter().any(|&d| d), "heavy chain drops something");
        assert!(a[100..].iter().all(|&d| !d), "no drops outside the window");
    }

    #[test]
    fn burst_losses_cluster() {
        // The point of Gilbert–Elliott: losses arrive in runs, not
        // independently. Count adjacent drop pairs and compare with what
        // independent losses at the same rate would produce.
        let mut fs = FaultState::default();
        fs.install(FaultPlan::new().burst_loss(
            SimTime::ZERO,
            SimTime::from_micros(100_000),
            GilbertElliott::heavy(),
        ));
        let mut rng = StdRng::seed_from_u64(7);
        let mut ge_bad = Vec::new();
        let drops: Vec<bool> = (0..50_000u64)
            .map(|i| fs.burst_drop(SimTime::from_micros(i), &mut ge_bad, &mut rng))
            .collect();
        let total = drops.iter().filter(|&&d| d).count() as f64;
        let pairs = drops.windows(2).filter(|w| w[0] && w[1]).count() as f64;
        let rate = total / drops.len() as f64;
        // Independent losses: P(pair) = rate²; bursty losses do far better.
        let independent_pairs = rate * rate * drops.len() as f64;
        assert!(
            pairs > 3.0 * independent_pairs,
            "losses do not cluster: {pairs} adjacent pairs vs {independent_pairs:.1} expected if independent"
        );
    }

    #[test]
    fn delay_factor_takes_max_of_overlapping_spikes() {
        let mut fs = FaultState::default();
        fs.install(
            FaultPlan::new()
                .latency_spike(SimTime::from_micros(0), SimTime::from_micros(100), 3)
                .latency_spike(SimTime::from_micros(50), SimTime::from_micros(150), 8),
        );
        assert_eq!(fs.delay_factor(SimTime::from_micros(10)), 3);
        assert_eq!(fs.delay_factor(SimTime::from_micros(75)), 8);
        assert_eq!(fs.delay_factor(SimTime::from_micros(120)), 8);
        assert_eq!(fs.delay_factor(SimTime::from_micros(200)), 1);
    }

    #[test]
    #[should_panic(expected = "restart_at must not precede")]
    fn crash_restart_validates_order() {
        let _ = FaultPlan::new().crash_restart(
            NodeId(1),
            SimTime::from_micros(10),
            SimTime::from_micros(5),
        );
    }
}
