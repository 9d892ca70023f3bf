//! Scale-out sweep — engine throughput against population size and
//! shard count (DESIGN.md §12).
//!
//! For each `(nodes, shards)` cell the sweep builds a population, runs a
//! fixed simulated gossip window and reports **nodes-per-second**: how
//! many node-seconds of simulated time the engine sustains per
//! wall-clock second (`nodes × simulated seconds ÷ wall seconds`). The
//! curve 384 → 1k → 4k → 10k nodes at 1/2/4/8 shards is the PR's
//! scaling evidence; cells land in the `WHISPER_BENCH_JSON` merge file
//! under `scaling/...` ids.
//!
//! Two stack flavours share the sweep: the PSS-only population (the
//! Fig. 5 build, gossip only) and the full WHISPER stack (the Table I
//! build: PSS + Nylon + WCL timers). Key material is cycled through at
//! most 256 distinct RSA pairs ([`NetBuilder::key_cycle`]) so keygen
//! stays O(1) in population size and the timed window measures the
//! engine, not `KeyPair::generate`.
//!
//! Honesty note: wall-clock timing is host-dependent by design — this is
//! the *one* experiment whose numbers may differ across machines. The
//! simulated traces remain byte-identical for every cell (the
//! determinism contract); only the wall seconds vary. Shards run one
//! after another, so the shard curve measures what the sharded layout
//! costs or saves, not parallel speed-up; see EXPERIMENTS.md § "Scaling".

use std::time::Instant;

use crate::experiments;
use crate::harness::NetBuilder;
use crate::report;
use whisper_core::node::NoApp;
use whisper_net::sim::Sim;
use whisper_pss::NylonConfig;
use whisper_rand::bench::Bench;

/// Which protocol stack the sweep populates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    /// PSS-only nodes (the Fig. 5 population): pure gossip load.
    Pss,
    /// Full WHISPER stacks (the Table I population): gossip + Nylon +
    /// WCL timers.
    Whisper,
}

impl Stack {
    fn name(self) -> &'static str {
        match self {
            Stack::Pss => "pss",
            Stack::Whisper => "whisper",
        }
    }
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population sizes to sweep.
    pub nodes: Vec<usize>,
    /// Shard counts to sweep at every population size.
    pub shards: Vec<usize>,
    /// Simulated seconds per timed cell.
    pub secs: u64,
    /// Engine seed.
    pub seed: u64,
    /// Timed repetitions per cell; the best (minimum) wall and CPU
    /// times are reported. The trace is deterministic, so repetitions
    /// do identical work — the minimum is the run least disturbed by
    /// the host.
    pub reps: usize,
    /// When set, run one *extra, untimed* repetition of every cell with
    /// the scoped hot-path profiler enabled (DESIGN.md §16) and record
    /// the per-bucket wall-time breakdown as `prof/...` rows. The timed
    /// repetitions stay unprofiled so the two `Instant::now` calls per
    /// event cannot perturb the reported nodes-per-second.
    pub prof: bool,
    /// Allocation-regression gate: when set, any cell whose
    /// allocs-per-send exceeds this threshold terminates the process
    /// with a non-zero exit (used by `scripts/verify.sh`).
    pub max_allocs_per_send: Option<f64>,
}

impl Params {
    /// The full scaling curve: 384 → 1k → 4k → 10k → 100k → 1M nodes
    /// at 1/2/4/8 shards.
    pub fn paper() -> Self {
        Params {
            nodes: vec![384, 1000, 4000, 10_000, 100_000, 1_000_000],
            shards: vec![1, 2, 4, 8],
            secs: 60,
            seed: 7,
            reps: 1,
            prof: false,
            max_allocs_per_send: None,
        }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params { nodes: vec![384, 1000], shards: vec![1, 4], secs: 20, ..Params::paper() }
    }

    /// The sweep selected by the process arguments, as read by the
    /// `--scale` mode of the experiment binaries: `--quick`, `--nodes N`,
    /// `--shards S`, `--reps N`, `--prof` and `--max-allocs-per-send X`.
    pub fn from_args() -> Self {
        let mut params =
            if experiments::quick_flag() { Params::quick() } else { Params::paper() };
        if let Some(nodes) = experiments::arg_value("--nodes") {
            params.nodes = vec![nodes];
        }
        if let Some(shards) = experiments::arg_value("--shards") {
            params.shards = vec![shards];
        }
        if let Some(reps) = experiments::arg_value("--reps") {
            params.reps = reps;
        }
        params.prof = std::env::args().any(|a| a == "--prof");
        if let Some(max) = experiments::arg_str("--max-allocs-per-send") {
            params.max_allocs_per_send =
                Some(max.parse().expect("--max-allocs-per-send takes a number"));
        }
        params
    }

    /// Simulated seconds for one cell. Populations of 50k+ get a
    /// shortened window (and 500k+ an even shorter one) so the big cells
    /// stay minutes-not-hours; the per-node event rate is steady after
    /// startup, so a shorter window measures the same thing.
    pub fn window_secs(&self, nodes: usize) -> u64 {
        if nodes >= 500_000 {
            self.secs.min(5)
        } else if nodes >= 50_000 {
            self.secs.min(20)
        } else {
            self.secs
        }
    }
}

/// One timed cell's raw results.
struct Cell {
    /// Wall seconds the simulated window took (best of `reps`).
    wall: f64,
    /// User-mode CPU seconds the window took (best of `reps`); `None`
    /// where the measurement is unavailable or too short to be
    /// meaningful. On hosts with noisy demand paging (shared microVMs)
    /// this is the stable throughput signal — kernel fault-service
    /// time is excluded.
    cpu: Option<f64>,
    /// Honest heap-allocation count for payload buffers:
    /// `net.allocs + net.pool_misses` (DESIGN.md §13).
    allocs: u64,
    /// Total sends — every send classifies its payload's provenance
    /// exactly once, so the three provenance counters sum to it.
    sends: u64,
}

/// User-mode CPU seconds consumed by this process so far, from
/// `/proc/self/stat` (whole process, all threads). `None` off-Linux or
/// on any parse surprise; callers fall back to wall time.
fn user_cpu_secs() -> Option<f64> {
    // USER_HZ is 100 on every Linux ABI this runs on (the value is
    // frozen for userspace compatibility).
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // `comm` (field 2) may contain spaces; fields are reliable only
    // after the closing paren. utime is field 14 overall, i.e. the
    // 12th after the paren.
    let (_, rest) = stat.rsplit_once(')')?;
    let utime: f64 = rest.split_whitespace().nth(11)?.parse().ok()?;
    Some(utime / TICKS_PER_SEC)
}

/// CPU windows shorter than this are below the `/proc` tick resolution
/// and are not reported.
const MIN_CPU_WINDOW: f64 = 0.5;

/// Builds one cell's population, with the hot-path profiler on or off.
fn build_cell(stack: Stack, nodes: usize, shards: usize, profiling: bool, params: &Params) -> Sim {
    let mut builder = NetBuilder::cluster(nodes, params.seed);
    builder.sim = builder.sim.clone().with_shards(shards).with_profiling(profiling);
    builder.key_cycle = Some(256);
    match stack {
        Stack::Pss => builder.build_pss(&NylonConfig::default()).sim,
        Stack::Whisper => builder.build_whisper(|_| Box::new(NoApp)).sim,
    }
}

/// Builds one cell's population and runs the timed simulation window,
/// `params.reps` times; keeps the best wall / CPU timings.
fn run_cell(stack: Stack, nodes: usize, shards: usize, params: &Params) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..params.reps.max(1) {
        let mut sim = build_cell(stack, nodes, shards, false, params);
        let cpu0 = user_cpu_secs();
        let start = Instant::now();
        sim.run_for_secs(params.window_secs(nodes));
        let wall = start.elapsed().as_secs_f64();
        let cpu = match (cpu0, user_cpu_secs()) {
            (Some(a), Some(b)) if b - a >= MIN_CPU_WINDOW => Some(b - a),
            _ => None,
        };
        let m = sim.metrics();
        let fresh = m.counter("net.allocs");
        let cell = Cell {
            wall,
            cpu,
            allocs: fresh + m.counter("net.pool_misses"),
            sends: fresh + m.counter("net.payload_cloned") + m.counter("net.payload_pooled"),
        };
        best = Some(match best.take() {
            None => cell,
            Some(b) => Cell {
                wall: b.wall.min(cell.wall),
                cpu: match (b.cpu, cell.cpu) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                },
                ..b
            },
        });
    }
    best.expect("reps >= 1")
}

/// The profiler buckets recorded per cell, in display order. `engine_ns`
/// is dispatch minus callback (derived in the engine at flush time);
/// `encode/decode/crypto_model` are sub-buckets *inside* `callback_ns`.
const PROF_BUCKETS: [&str; 7] = [
    "sched_ns",
    "engine_ns",
    "callback_ns",
    "encode_ns",
    "decode_ns",
    "crypto_model_ns",
    "events",
];

/// Runs one extra, untimed repetition of a cell with the hot-path
/// profiler on and returns the `prof.*` counter values in
/// [`PROF_BUCKETS`] order. The profiled trace is byte-identical to the
/// timed one (the determinism suite runs with profiling enabled), so
/// the breakdown attributes exactly the work the timed cell did.
fn run_prof_cell(stack: Stack, nodes: usize, shards: usize, params: &Params) -> [u64; 7] {
    let mut sim = build_cell(stack, nodes, shards, true, params);
    sim.run_for_secs(params.window_secs(nodes));
    let m = sim.metrics();
    let mut out = [0u64; 7];
    for (slot, bucket) in out.iter_mut().zip(PROF_BUCKETS) {
        *slot = m.counter(&format!("prof.{bucket}"));
    }
    out
}

/// Runs the sweep, prints the curve and records every cell into the
/// bench merge file. Also prints the one-line `scaling:` summary that
/// `scripts/verify.sh` surfaces.
pub fn run(stack: Stack, params: &Params) {
    report::banner(
        "Scaling",
        &format!("{}-stack nodes-per-second vs. population and shard count", stack.name()),
    );
    println!(
        "window={}s (20s at 50k+, 5s at 500k+) seed={} reps={} key_cycle=256 \
         (wall-clock timing: host-dependent by design; cpu = user-mode CPU time, \
         immune to demand-paging jitter)",
        params.secs,
        params.seed,
        params.reps.max(1)
    );
    println!(
        "{:<8} {:>7} {:>12} {:>12} {:>16} {:>16} {:>14}",
        "nodes", "shards", "wall (s)", "cpu (s)", "nodes/sec", "nodes/sec-cpu", "allocs/send"
    );
    let mut bench = Bench::new();
    let mut best: Option<(usize, usize, f64)> = None;
    for &nodes in &params.nodes {
        for &shards in &params.shards {
            let cell = run_cell(stack, nodes, shards, params);
            let secs = params.window_secs(nodes);
            let node_secs = nodes as f64 * secs as f64;
            let nodes_per_sec = node_secs / cell.wall.max(1e-9);
            let cpu_rate = cell.cpu.map(|c| node_secs / c.max(1e-9));
            let allocs_per_send = cell.allocs as f64 / cell.sends.max(1) as f64;
            println!(
                "{nodes:<8} {shards:>7} {:>12.2} {:>12} {nodes_per_sec:>16.0} {:>16} \
                 {allocs_per_send:>14.3}",
                cell.wall,
                cell.cpu.map_or("-".into(), |c| format!("{c:.2}")),
                cpu_rate.map_or("-".into(), |r| format!("{r:.0}")),
            );
            let id = format!("{}_n{nodes}_s{shards}", stack.name());
            bench.record(format!("scaling/{id}_nodes_per_sec"), nodes_per_sec);
            bench.record(format!("scaling/{id}_allocs_per_send"), allocs_per_send);
            if let Some(r) = cpu_rate {
                bench.record(format!("scaling/{id}_nodes_per_sec_cpu"), r);
            }
            if let Some(max) = params.max_allocs_per_send {
                if allocs_per_send > max {
                    eprintln!(
                        "scaling: ALLOC REGRESSION — {id}: {allocs_per_send:.4} \
                         allocs/send exceeds the --max-allocs-per-send gate of {max}"
                    );
                    std::process::exit(1);
                }
            }
            if params.prof {
                let buckets = run_prof_cell(stack, nodes, shards, params);
                let total: u64 = buckets[..3].iter().sum(); // sched + engine + callback
                print!("    prof {id}:");
                for (&v, name) in buckets.iter().zip(PROF_BUCKETS) {
                    bench.record(format!("prof/{id}_{name}"), v as f64);
                    if name == "events" {
                        println!(" | {v} events");
                    } else {
                        let pct = 100.0 * v as f64 / total.max(1) as f64;
                        let short = name.trim_end_matches("_ns");
                        print!(" {short} {:.1}ms ({pct:.1}%)", v as f64 / 1e6);
                    }
                }
            }
            if best.is_none_or(|(_, _, b)| nodes_per_sec > b) {
                best = Some((nodes, shards, nodes_per_sec));
            }
        }
    }
    if let Some((nodes, shards, nps)) = best {
        println!(
            "scaling: {} stack peak {:.0} nodes/sec ({} nodes, {} shard(s))",
            stack.name(),
            nps,
            nodes,
            shards
        );
    }
    bench.emit_json();
}
