//! The repo benchmark. One invocation runs one workload in this process:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as its last stdout line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs report the
//! end-to-end figures; traced runs (`--trace 1`) first print their own
//! end-to-end figures on a line of their own, then replay the workload's
//! inputs through each layer's public functions and report per-layer
//! figures. See README.md for the workloads and what each figure means.

mod check;
mod fixture;
mod ingest_mixed;
mod layers;
mod load;
mod lookup_hot;
mod recommend_cold;
mod serving;
mod train_fit;
mod util;

use std::process::ExitCode;
use util::Report;

/// A workload's end-to-end report, plus its per-layer figures when traced.
pub struct Outcome {
    pub report: Report,
    pub layers: Report,
}

const WORKLOADS: [&str; 4] = ["recommend_cold", "lookup_hot", "ingest_mixed", "train_fit"];

/// Every end-to-end figure, in the order `BENCHMARK.json` lists them. Every
/// workload reports exactly these.
const END_TO_END: [&str; 4] = ["setup_s", "p50_ms", "throughput_rps", "peak_rss_mb"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("build-artifact") {
        let rest: Vec<String> = argv.skip(1).collect();
        return match fixture::build_artifact_main(&rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench build-artifact: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "recommend_cold" => recommend_cold::run,
        "lookup_hot" => lookup_hot::run,
        "ingest_mixed" => ingest_mixed::run,
        _ => train_fit::run,
    };
    let outcome = match run(args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    // A run that cannot report every figure of the manifest prints no
    // result line.
    let complete = outcome.report.reports_exactly(&END_TO_END).and_then(|()| {
        if args.trace {
            outcome.layers.reports_exactly(&layers::NAMES)
        } else {
            Ok(())
        }
    });
    if let Err(e) = complete {
        eprintln!("perfbench {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    for why in &outcome.report.errors {
        eprintln!("perfbench {}: check failed: {why}", args.workload);
    }
    if args.trace {
        // The traced run's own end-to-end figures, so its overhead shows.
        println!(
            "{{\"traced_run_end_to_end\": {}}}",
            outcome.report.to_json()
        );
        let Outcome { report, layers } = outcome;
        println!(
            "{}",
            Report {
                metrics: layers.metrics,
                ..report
            }
            .to_json()
        );
    } else {
        println!("{}", outcome.report.to_json());
    }
    ExitCode::SUCCESS
}
