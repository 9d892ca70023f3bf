//! Binary wrapper; see `whisper_bench::experiments::table1`.
//! Flags:
//! * `--quick` — fast smoke-test configuration;
//! * `--faults` — run only the fault-plan extension (burst loss /
//!   partition, adaptive vs. fixed RTO; medians land in
//!   `WHISPER_BENCH_JSON` when set);
//! * `--nodes N` / `--shards S` — override the population size and the
//!   engine shard count (DESIGN.md §12); with `--scale` they restrict
//!   the sweep to the single `(N, S)` cell;
//! * `--scale` — run the scale-out sweep (full-stack nodes-per-second
//!   curve, 384→1M nodes × 1/2/4/8 shards) instead of Table I;
//! * `--reps N` — with `--scale`, time each cell N times and keep the
//!   best run (suppresses shared-host noise);
//! * `--prof` — with `--scale`, add one untimed profiled repetition
//!   per cell recording the `prof/...` bucket rows (DESIGN.md §16);
//! * `--max-allocs-per-send X` — with `--scale`, exit non-zero if any
//!   cell exceeds X allocs/send.

use whisper_bench::experiments::{self, scaling, table1};

fn main() {
    let quick = experiments::quick_flag();
    if std::env::args().any(|a| a == "--scale") {
        scaling::run(scaling::Stack::Whisper, &scaling::Params::from_args());
        return;
    }
    let faults_only = std::env::args().any(|a| a == "--faults");
    if !faults_only {
        let mut params = if quick { table1::Params::quick() } else { table1::Params::paper() };
        if let Some(nodes) = experiments::arg_value("--nodes") {
            params.nodes = nodes;
        }
        if let Some(shards) = experiments::arg_value("--shards") {
            params.shards = shards;
        }
        table1::run(&params);
    }
    table1::run_fault_scenarios(quick, 7);
}
