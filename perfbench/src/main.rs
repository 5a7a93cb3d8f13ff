//! The repository benchmark: runs one named federated workload for a set
//! time, checks its outputs, and prints every metric by name with its
//! unit as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zkt-cifar --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with the timing
//! decorator's clocks off; `--trace 1` reports the per-layer metrics from
//! a traced run and writes its spans to
//! `$CARGO_TARGET_DIR/perfbench-traces/` (default `perfbench/target/`).
//! `BENCHMARK.json` at the repository root lists the workloads and
//! metrics.

mod bench;
mod check;
mod episode;
mod host;
mod layers;
mod timed;
mod workload;

#[cfg(test)]
mod tests;

use fedzkt_tensor::par;
use std::fmt::Write as _;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("expected a positive number"))?,
                )
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
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Shortest round-trip rendering; a non-finite value has no JSON literal
/// and prints as `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Write the traced run's spans as one JSON document.
fn write_spans(args: &Args, threads: usize, spans: &[timed::Span]) -> std::io::Result<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&dir).join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"threads\":{threads},\"nproc\":{},\"backend\":\"{}\",\"spans\":[",
        args.workload.name(),
        args.seed,
        host::nproc(),
        fedzkt_tensor::ops::gemm::backend_name(),
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".into(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"start\":{},\"end\":{},\"cpu\":{},\"parent\":{parent},\"round\":{},\"threads\":{}}}",
            if i == 0 { "" } else { "," },
            s.name,
            number(s.start),
            number(s.end),
            number(s.cpu),
            s.round,
            s.threads,
        );
    }
    out.push_str("]}\n");
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <zkt-cifar|gkt-q8|fleet-1m> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Kernels resolve their thread count through `par::max_threads`, the
    // driver's device-parallel phases through `SimConfig::threads`: pin
    // both to the same value.
    let threads = host::nproc();
    par::set_threads(threads);
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} threads={threads} backend={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        fedzkt_tensor::ops::gemm::backend_name(),
    );
    let report = if args.trace {
        bench::trace(args.workload, args.seed, args.seconds, threads)
    } else {
        bench::measure(args.workload, args.seed, args.seconds, threads)
    };
    if args.trace {
        match write_spans(&args, threads, &report.spans) {
            Ok(path) => eprintln!("perfbench: {} spans written to {path}", report.spans.len()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            number(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    );
}
