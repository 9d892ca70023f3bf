//! Confidential-messaging benchmark of the WHISPER stack.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`chat`, `fanout` or `gossip`) against the full
//! stack through its public API, checks the outputs and prints every
//! metric with its unit; the last line of standard output is one JSON
//! object. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones from a traced run plus its overhead against an
//! untraced run of the same work. See `perfbench/README.md`.

mod app;
mod host;
mod probe;
mod run;

use std::process::ExitCode;

use run::{Args, Spec};

fn usage() -> &'static str {
    "usage: whisper-perfbench --workload <chat|fanout|gossip> --seed <n> --seconds <s> \
     --trace <0|1> [--smoke]"
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec =
        Spec::named(&workload, smoke).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run::traced(&args)
    } else {
        run::end_to_end(&args)
    };
    report.print();
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("output checks failed: {}", report.failures.join("; "));
        ExitCode::from(1)
    }
}
