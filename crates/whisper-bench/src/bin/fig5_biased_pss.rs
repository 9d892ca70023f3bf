//! Binary wrapper; see `whisper_bench::experiments::fig5`.
//! Flags:
//! * `--quick` — smoke-test scale;
//! * `--no-oldest-p-discard` — ablation: protect P-node slots by
//!   seniority instead of freshness;
//! * `--nodes N` / `--shards S` — override the population size and the
//!   engine shard count (DESIGN.md §12); with `--scale` they restrict
//!   the sweep to the single `(N, S)` cell;
//! * `--scale` — run the scale-out sweep (PSS-only nodes-per-second
//!   curve, 384→1M nodes × 1/2/4/8 shards) instead of Fig. 5;
//! * `--reps N` — with `--scale`, time each cell N times and keep the
//!   best run (suppresses shared-host noise);
//! * `--prof` — with `--scale`, run one extra untimed repetition of
//!   each cell with the scoped hot-path profiler on (DESIGN.md §16)
//!   and record the per-bucket breakdown as `prof/...` rows;
//! * `--max-allocs-per-send X` — with `--scale`, exit non-zero if any
//!   cell's allocs-per-send exceeds X (the verify.sh regression gate).

use whisper_bench::experiments::{self, fig5, scaling};

fn main() {
    let quick = experiments::quick_flag();
    if std::env::args().any(|a| a == "--scale") {
        scaling::run(scaling::Stack::Pss, &scaling::Params::from_args());
        return;
    }
    let mut params = if quick { fig5::Params::quick() } else { fig5::Params::paper() };
    if std::env::args().any(|a| a == "--no-oldest-p-discard") {
        params.oldest_p_discard = false;
    }
    if let Some(nodes) = experiments::arg_value("--nodes") {
        params.nodes = nodes;
    }
    if let Some(shards) = experiments::arg_value("--shards") {
        params.shards = shards;
    }
    fig5::run(&params);
}
