#!/usr/bin/env bash
# Tier-1 verification for the WHISPER reproduction.
#
# Hermetic by construction: every step runs with `--offline`, so it works
# from a clean checkout with an empty cargo registry and no network. The
# workspace has zero external dependencies (see crates/whisper-rand for
# the in-tree randomness/test/bench substrate that makes this possible).
#
# Each step is wall-clock timed so regressions in verify latency are
# visible in the step-by-step log (`[t+...s]` prefixes).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

VERIFY_T0=$SECONDS
STEP_T0=$SECONDS
step() {
  local now=$SECONDS
  if [ "$now" -ne "$VERIFY_T0" ]; then
    echo "    [step took $((now - STEP_T0))s, t+$((now - VERIFY_T0))s total]"
  fi
  STEP_T0=$now
  echo "==> $1"
}

step "offline release build (lib, bins, tests, benches, examples)"
cargo build --release --offline --workspace --all-targets

step "offline test suite (whole workspace)"
cargo test -q --offline --workspace

step "end-to-end benchmark smoke tests (perfbench: output checks, request/reply digests, traced == untraced)"
# perfbench is a package of its own; its smoke runs push real private
# messages through RSA onions and circuits, so a crypto or protocol bug
# fails here through its correctness checks.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

step "clippy clean (all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

step "rustdoc builds clean (no warnings; whisper-net denies missing docs)"
# whisper-net carries #![deny(missing_docs)], so an undocumented public
# item fails the build steps above; -D warnings catches the remaining
# rustdoc lint classes (broken intra-doc links etc.) workspace-wide.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

step "shard-matrix determinism (release: byte-identical traces, 1/2/4 shards sequential, shard-local pool reuse, profiler on)"
cargo test -q --release --offline -p whisper-net --test determinism

step "chaos acceptance suite (384 + 1k-node/4-shard, release, fixed seed matrix)"
for s in 7 11 13; do
  echo "    seed $s"
  WHISPER_CHAOS_SEED=$s cargo test -q --release --offline --test chaos -- --ignored
done

step "group-lifecycle bench (1k nodes / 4 shards; propagation + recovery metrics -> BENCH_pr9.json)"
WHISPER_BENCH_JSON=BENCH_pr9.json cargo run -q --release --offline -p whisper-bench --bin group_lifecycle

step "engine scale-out smoke (nodes-per-second, quick sweep)"
cargo run -q --release --offline -p whisper-bench --bin fig5_biased_pss -- --scale --quick | grep '^scaling:'

step "allocation-regression gate (10k-node pooled cell must stay <= 0.2 allocs/send)"
# Steady-state allocs/send with the payload pool is ~0.1 (DESIGN.md §13/§16);
# the 0.2 gate catches any change that silently re-introduces per-send heap
# allocation on the hot path without flaking on startup-phase noise.
cargo run -q --release --offline -p whisper-bench --bin fig5_biased_pss -- --scale --quick --nodes 10000 --shards 1 --max-allocs-per-send 0.2 | grep '^scaling:'

step "100k-node smoke (release, single cell, pooled hot path)"
cargo run -q --release --offline -p whisper-bench --bin fig5_biased_pss -- --scale --quick --nodes 100000 --shards 4 | grep '^scaling:'

step "1M-node smoke (release, single cell, short window)"
cargo run -q --release --offline -p whisper-bench --bin fig5_biased_pss -- --scale --nodes 1000000 --shards 4 | grep '^scaling:'

step "code size (non-blank src lines per crate)"
scripts/loc.sh

step "done"
echo "verify: OK (total $((SECONDS - VERIFY_T0))s)"
