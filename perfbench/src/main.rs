//! camsoc end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload in a closed loop for `--seconds`, checks
//! every output, and prints as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md`.

mod common;
mod eco;
mod farm;
mod flows;
mod metrics;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Args;
use metrics::Outcome;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: &[&str] = &["dsc_tapeout", "tiled_route", "dsc_eco_replay", "serve_farm"];

/// Where the benchmark writes its scratch files (farm directories,
/// span dumps): the build directory, relative to the working directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
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
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let wall = std::time::Instant::now();
    let mut out: Outcome = match args.workload.as_str() {
        "dsc_tapeout" => flows::dsc_tapeout(&args, &mut tr),
        "tiled_route" => flows::tiled_route(&args, &mut tr),
        "dsc_eco_replay" => eco::dsc_eco_replay(&args, &mut tr),
        "serve_farm" => farm::serve_farm(&args, &mut tr),
        _ => unreachable!("workload validated by parse_args"),
    };
    out.metrics.set("peak_rss_mb", common::peak_rss_mb());
    out.metrics.set(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    if args.trace {
        out.metrics.set("host.nproc", common::nproc() as f64);
        out.metrics.set(
            "host.effective_parallelism",
            common::effective_parallelism(),
        );
        out.metrics.set(
            "trace_overhead",
            tr.bookkeeping().as_secs_f64() / wall.elapsed().as_secs_f64(),
        );
        let path = scratch_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    match out.to_json(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
