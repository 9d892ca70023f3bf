//! The benchmark-owned [`Protocol`] wrapper around a [`WhisperNode`].
//!
//! It forwards every call (and `as_any`/`as_any_mut`, so harness
//! downcasts to `WhisperNode` keep working) and observes two things:
//!
//! * with tracing on, one span per callback: wall time and the
//!   thread-local crypto cost delta, summed per callback kind into
//!   process-wide atomics ([`take_spans`]);
//! * always, the round trip of each Nylon gossip exchange the node
//!   initiates — the `gossip` workload's request latency, stored in the
//!   node's [`BenchApp`]. The probe only reads the shard's counters, so
//!   it cannot change the simulation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::app::BenchApp;
use whisper_core::node::TIMER_APP;
use whisper_core::ppss::{TIMER_PCP_REFRESH, TIMER_PPSS_CYCLE};
use whisper_core::wcl::TIMER_WCL_RETRY;
use whisper_core::WhisperNode;
use whisper_crypto::costs;
use whisper_net::sim::{Ctx, Protocol};
use whisper_net::{Endpoint, NodeId, Payload};

/// Callback kinds, named after the layer that handles them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Node start-up.
    Start,
    /// Nylon gossip request/response messages.
    Gossip,
    /// NAT traversal: open, punch, ping (and their replies).
    Nat,
    /// Messages relayed through a public node.
    Relayed,
    /// Application-tagged Nylon messages: WCL onions and circuits.
    Wcl,
    /// Messages with an unknown leading tag.
    OtherMsg,
    /// Nylon timers (gossip cycle and timeout, open timeout, punch).
    NylonTimer,
    /// WCL retry timer.
    WclRetry,
    /// PPSS exchange cycle.
    PpssCycle,
    /// PCP refresh.
    PcpRefresh,
    /// Application timer.
    AppTimer,
    /// Crash-restart.
    Restart,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 12;

// Leading tag bytes of Nylon messages and the low byte of the gossip-cycle
// timer token. whisper-pss keeps them private; these mirror its
// `messages.rs` and `nylon.rs`.
const TAG_GOSSIP_REQ: u8 = 1;
const TAG_GOSSIP_RESP: u8 = 2;
const TAG_RELAYED: u8 = 3;
const TAG_NAT_FIRST: u8 = 4;
const TAG_NAT_LAST: u8 = 9;
const TAG_APP: u8 = 10;
const TIMER_GOSSIP_CYCLE: u64 = 1;
const TIMER_GOSSIP_TIMEOUT: u64 = 2;

fn message_kind(data: &[u8]) -> Kind {
    match data.first().copied() {
        Some(TAG_GOSSIP_REQ | TAG_GOSSIP_RESP) => Kind::Gossip,
        Some(TAG_RELAYED) => Kind::Relayed,
        Some(TAG_NAT_FIRST..=TAG_NAT_LAST) => Kind::Nat,
        Some(TAG_APP) => Kind::Wcl,
        _ => Kind::OtherMsg,
    }
}

fn timer_kind(token: u64) -> Kind {
    match token & 0xFF {
        TIMER_WCL_RETRY => Kind::WclRetry,
        TIMER_PPSS_CYCLE => Kind::PpssCycle,
        TIMER_PCP_REFRESH => Kind::PcpRefresh,
        TIMER_APP => Kind::AppTimer,
        _ => Kind::NylonTimer,
    }
}

/// Totals of the spans of one kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Callbacks.
    pub count: u64,
    /// Wall nanoseconds inside the callbacks.
    pub ns: u64,
    /// Wall nanoseconds of RSA work inside them.
    pub rsa_ns: u64,
    /// Wall nanoseconds of AES work inside them.
    pub aes_ns: u64,
    /// RSA limb-operation units inside them.
    pub rsa_limb_ops: u64,
    /// AES blocks inside them.
    pub aes_blocks: u64,
}

impl SpanTotals {
    /// Wall nanoseconds outside crypto: the layer's self time.
    pub fn self_ns(&self) -> u64 {
        self.ns.saturating_sub(self.rsa_ns + self.aes_ns)
    }

    /// Adds one span.
    pub fn add(&mut self, ns: u64, crypto: costs::CryptoCosts) {
        self.count += 1;
        self.ns += ns;
        self.rsa_ns += crypto.rsa_ns;
        self.aes_ns += crypto.aes_ns;
        self.rsa_limb_ops += crypto.rsa_limb_ops;
        self.aes_blocks += crypto.aes_blocks;
    }

    /// Element-wise sum.
    pub fn merge(&mut self, o: &SpanTotals) {
        self.count += o.count;
        self.ns += o.ns;
        self.rsa_ns += o.rsa_ns;
        self.aes_ns += o.aes_ns;
        self.rsa_limb_ops += o.rsa_limb_ops;
        self.aes_blocks += o.aes_blocks;
    }
}

const FIELDS: usize = 6;

/// Span totals per kind. Callbacks run on the engine's worker threads,
/// so the totals are atomics; they are statistics and publish nothing
/// else, hence `Relaxed` (the engine's window barrier orders them before
/// the main thread reads them).
static SPANS: [[AtomicU64; FIELDS]; KINDS] =
    [const { [const { AtomicU64::new(0) }; FIELDS] }; KINDS];

fn record(kind: Kind, ns: u64, crypto: costs::CryptoCosts) {
    let row = &SPANS[kind as usize];
    for (cell, v) in row.iter().zip([
        1,
        ns,
        crypto.rsa_ns,
        crypto.aes_ns,
        crypto.rsa_limb_ops,
        crypto.aes_blocks,
    ]) {
        if v > 0 {
            cell.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// Reads and resets the span totals of every kind.
pub fn take_spans() -> [SpanTotals; KINDS] {
    let mut out = [SpanTotals::default(); KINDS];
    for (row, t) in SPANS.iter().zip(out.iter_mut()) {
        let v: Vec<u64> = row.iter().map(|c| c.swap(0, Ordering::Relaxed)).collect();
        *t = SpanTotals {
            count: v[0],
            ns: v[1],
            rsa_ns: v[2],
            aes_ns: v[3],
            rsa_limb_ops: v[4],
            aes_blocks: v[5],
        };
    }
    out
}

/// Runs `f` as one span of `kind` on the calling thread and returns its
/// result. The crypto delta is exact because a call never migrates
/// threads and the cost counters are thread-local.
pub fn span<R>(totals: &mut SpanTotals, f: impl FnOnce() -> R) -> R {
    let c0 = costs::snapshot();
    let t0 = Instant::now();
    let r = f();
    totals.add(t0.elapsed().as_nanos() as u64, costs::snapshot().since(c0));
    r
}

/// A [`WhisperNode`] with the benchmark's probes around it.
#[derive(Debug)]
pub struct Probe {
    inner: WhisperNode,
    trace: bool,
    gossip_rtt: bool,
    /// When the exchange in progress started; `None` when none is.
    gossip_started_us: Option<u64>,
}

impl Probe {
    /// Wraps `inner`; `trace` turns the callback spans on, `gossip_rtt`
    /// the gossip round-trip samples.
    pub fn new(inner: WhisperNode, trace: bool, gossip_rtt: bool) -> Self {
        Probe {
            inner,
            trace,
            gossip_rtt,
            gossip_started_us: None,
        }
    }

    fn timed(
        &mut self,
        kind: Kind,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut WhisperNode, &mut Ctx<'_>),
    ) {
        if !self.trace {
            return f(&mut self.inner, ctx);
        }
        let c0 = costs::snapshot();
        let t0 = Instant::now();
        f(&mut self.inner, ctx);
        record(
            kind,
            t0.elapsed().as_nanos() as u64,
            costs::snapshot().since(c0),
        );
    }
}

impl Protocol for Probe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(Kind::Start, ctx, |n, ctx| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        let kind = message_kind(data);
        // A gossip response arrives directly or relayed.
        let watch = self.gossip_started_us.is_some()
            && (data.first() == Some(&TAG_GOSSIP_RESP) || kind == Kind::Relayed);
        let before = if watch {
            ctx.metrics().counter("pss.gossip_completed")
        } else {
            0
        };
        self.timed(kind, ctx, |n, ctx| n.on_message(ctx, from, from_ep, data));
        if watch && ctx.metrics().counter("pss.gossip_completed") > before {
            let started = self.gossip_started_us.take().expect("watched");
            let rtt = ctx.now().as_micros().saturating_sub(started);
            self.inner.with_api(|_, app| {
                if let Some(app) = app.as_any_mut().downcast_mut::<BenchApp>() {
                    app.latencies_us.push(rtt);
                }
            });
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let exchange_timer = matches!(token & 0xFF, TIMER_GOSSIP_CYCLE | TIMER_GOSSIP_TIMEOUT);
        if !(self.gossip_rtt && exchange_timer) {
            return self.timed(timer_kind(token), ctx, |n, ctx| n.on_timer(ctx, token));
        }
        // An exchange ends without an answer when its timeout fires or its
        // request cannot be sent; a response arriving after that belongs
        // to no exchange in progress and is not timed.
        let ended = |ctx: &mut Ctx<'_>| {
            let m = ctx.metrics();
            m.counter("pss.gossip_timeout")
                + m.counter("pss.sendfail_removed_public")
                + m.counter("pss.sendfail_removed_natted")
        };
        let initiated = |ctx: &mut Ctx<'_>| ctx.metrics().counter("pss.gossip_initiated");
        let (ended0, initiated0) = (ended(ctx), initiated(ctx));
        self.timed(timer_kind(token), ctx, |n, ctx| n.on_timer(ctx, token));
        if ended(ctx) > ended0 {
            self.gossip_started_us = None;
        } else if initiated(ctx) > initiated0 {
            self.gossip_started_us = Some(ctx.now().as_micros());
        }
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.gossip_started_us = None;
        self.timed(Kind::Restart, ctx, |n, ctx| n.on_crash_restart(ctx));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}
