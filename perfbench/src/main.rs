//! The repository benchmark: compiles and serves the seven main workload
//! programs, checks every output against the tree-walking interpreter
//! running the untransformed program, and prints end-to-end metrics (or,
//! with `--trace 1`, per-layer metrics from spans recorded around each
//! call into the program).
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile|serve_hot|serve_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it
//! give host facts, per-program rows, every metric with its sample count,
//! and the self-checks. `perfbench/README.md` lists the metrics and what
//! each one should move.

mod common;
mod compile;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;

#[cfg(test)]
mod tests;

use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "peak_rss_mb",
    "compile_s",
    "speedup_cycles",
    "speedup_host",
    "table_kib",
    "throughput_rps",
    "latency_p50_ms",
    "latency_tail_ms",
];

/// Per-layer metrics and their units, printed by every workload with
/// `--trace 1`. A layer a workload does not exercise reads 0 with no
/// samples.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("minic.parse_ms", "ms"),
    ("minic.check_ms", "ms"),
    ("analysis.build_ms", "ms"),
    ("core.pipeline_ms", "ms"),
    ("core.pipeline_ms.G721_encode", "ms"),
    ("core.pipeline_ms.G721_decode", "ms"),
    ("core.pipeline_ms.MPEG2_encode", "ms"),
    ("core.pipeline_ms.MPEG2_decode", "ms"),
    ("core.pipeline_ms.RASTA", "ms"),
    ("core.pipeline_ms.UNEPIC", "ms"),
    ("core.pipeline_ms.GNUGO", "ms"),
    ("vm.freq_run_ms", "ms"),
    ("vm.lower_ms", "ms"),
    ("vm.precompile_ms", "ms"),
    ("core.make_tables_ms", "ms"),
    ("vm.run_base_ms", "ms"),
    ("vm.run_memo_ms", "ms"),
    ("vm.base_ns_per_kcycle", "ns/kcycle"),
    ("core.segments_analyzed", "count"),
    ("core.segments_profiled", "count"),
    ("core.segments_transformed", "count"),
    ("core.merged_tables", "count"),
    ("runtime.private_hit_ratio", "ratio"),
    ("runtime.private_accesses", "count"),
    ("service.new_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.worker_imbalance", "ratio"),
    ("vm.memo_ns_per_kcycle", "ns/kcycle"),
    ("vm.kcycles_per_req", "kcycles"),
    ("runtime.hit_ratio", "ratio"),
    ("runtime.optimistic_hit_share", "ratio"),
    ("runtime.optimistic_retries", "count"),
    ("runtime.green_hits", "count"),
    ("runtime.stale_reds", "count"),
    ("runtime.l1_hits", "count"),
    ("runtime.l1_promotions", "count"),
    ("runtime.miss_share", "ratio"),
    ("runtime.insertions_per_req", "count"),
    ("runtime.evictions_per_req", "count"),
    ("runtime.collisions_per_req", "count"),
    ("runtime.admission_rejects", "count"),
    ("runtime.store_kib", "KiB"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_ms", "ms"),
];

/// Compile rounds measured per second of `--seconds`. A round takes about
/// 2.7 s on a 2-CPU host, and single rounds vary by ±15% there, so the
/// run measures more rounds than `--seconds` holds to keep the median
/// steady; 12 rounds at `--seconds 15` also keep the tail (the eleventh
/// largest of 84 program steps) inside the GNUGO samples.
const COMPILE_ROUNDS_PER_SECOND: f64 = 0.8;

const USAGE: &str = "usage: perfbench --workload compile|serve_hot|serve_churn --seed N \
--seconds S --trace 0|1";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["compile", "serve_hot", "serve_churn"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload and returns its report.
fn run_workload(args: &Args, tracer: &mut Tracer) -> Report {
    let programs = workloads::main_seven();
    if args.workload == "compile" {
        // The count depends on --seconds only, so every run with one
        // setting takes the same number of samples and its tail
        // percentile compares.
        let rounds = (args.seconds * COMPILE_ROUNDS_PER_SECOND).ceil() as usize;
        let opts = compile::Opts {
            seed: args.seed,
            traced: args.trace,
            programs: &programs,
            corrupt_expected: false,
            rounds: rounds.max(2),
        };
        let run = compile::run(&opts, tracer);
        let mut report = run.report;
        // Two runs with one seed must print the same digest.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(&run.counts, &mut h);
        report.notes.push(format!(
            "deterministic counts digest {:016x}",
            std::hash::Hasher::finish(&h)
        ));
        report
    } else {
        let opts = serve::Opts {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.trace,
            programs: &programs,
            churn: args.workload == "serve_churn",
            corrupt_expected: false,
        };
        serve::run(&opts, tracer)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(false, Instant::now());
    let mut report = run_workload(&args, &mut tracer);
    if args.trace {
        let path = format!(
            "perfbench/out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        );
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
        if let Err(e) = &written {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
        }
        report
            .notes
            .push(format!("spans {} written to {path}", tracer.spans().len()));
        report.check("spans written out", written.is_ok());
        report.complete_layers(&PER_LAYER);
    } else {
        report.assert_end_to_end(&END_TO_END);
    }
    let host = format!(
        "nproc={} threads={} rustc=\"{}\" commit={} workload={} seed={} scale={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        common::threads(),
        common::rustc_version(),
        common::commit(),
        args.workload,
        args.seed,
        inputs::SCALE,
        args.seconds,
        u8::from(args.trace),
    );
    print!("{}", report.render(&host, args.trace));
    ExitCode::SUCCESS
}
