//! Smoke runs of every workload on a tiny population (`--smoke`): the
//! output checks pass, the traced run's observables are byte-identical
//! to the untraced run's, and each mode prints exactly the metrics
//! `BENCHMARK.json` declares for it.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["chat", "fanout", "gossip"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_whisper-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn smoke(workload: &str, trace: &str) -> (String, String) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        // Three rounds of 15, 7 and 20 simulated seconds on chat, fanout
        // and gossip.
        "--seconds",
        "3",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (stdout, last)
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json beside perfbench");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// The metric names in a result line, in order.
fn printed(last: &str) -> Vec<String> {
    let metrics = &last[last.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("\": {\"value\"").collect();
    // Every chunk but the last ends with the next metric's opening quote
    // and name.
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk.rsplit_once('"').expect("a quoted name").1.to_string())
        .collect()
}

#[test]
fn end_to_end_runs_pass_their_checks_and_print_every_metric() {
    let names = declared("end_to_end");
    assert!(names.contains(&"setup_s".to_string()));
    for w in WORKLOADS {
        let (_, last) = smoke(w, "0");
        assert!(last.starts_with("{\"correct\": true"), "{w}: {last}");
        assert_eq!(printed(&last), names, "{w}");
    }
}

#[test]
fn traced_runs_match_the_untraced_run_byte_for_byte() {
    let names = declared("per_layer");
    for w in WORKLOADS {
        let (stdout, last) = smoke(w, "1");
        assert!(
            stdout.contains("observables traced == untraced: yes, byte-identical"),
            "{w}:\n{stdout}"
        );
        assert!(last.starts_with("{\"correct\": true"), "{w}: {last}");
        assert_eq!(printed(&last), names, "{w}");
        if w == "gossip" {
            for counter in [
                "crypto.rsa_limb_ops",
                "crypto.aes_blocks",
                "wcl.onions_built",
            ] {
                assert!(
                    last.contains(&format!("\"{counter}\": {{\"value\": 0,")),
                    "{w}: {counter} not 0"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "chat",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "chat",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
