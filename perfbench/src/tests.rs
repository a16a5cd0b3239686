//! Self-tests of the benchmark: the reference check is not vacuous, seeds
//! change the inputs without breaking the check, and the deterministic
//! counts repeat. They run the harness on two small programs; run them
//! with `cargo test --release`.

use std::time::Instant;

use crate::inputs::{generate, Family};
use crate::trace::Tracer;
use crate::{compile, serve, END_TO_END, PER_LAYER};

fn small() -> Vec<workloads::Workload> {
    workloads::main_seven()
        .into_iter()
        .filter(|w| w.name == "UNEPIC" || w.name == "MPEG2_decode")
        .collect()
}

fn compile_run(programs: &[workloads::Workload], seed: u64, corrupt: bool) -> compile::Run {
    let opts = compile::Opts {
        seed,
        traced: true,
        programs,
        corrupt_expected: corrupt,
        rounds: 2,
    };
    compile::run(&opts, &mut Tracer::new(false, Instant::now()))
}

fn serve_run(
    programs: &[workloads::Workload],
    seed: u64,
    churn: bool,
    corrupt: bool,
) -> crate::report::Report {
    let opts = serve::Opts {
        seed,
        seconds: 0.0,
        traced: true,
        programs,
        churn,
        corrupt_expected: corrupt,
    };
    serve::run(&opts, &mut Tracer::new(false, Instant::now()))
}

#[test]
fn corrupted_expectation_is_counted_as_failed() {
    let programs = small();
    let run = compile_run(&programs, 5, true);
    // The first program mismatches in both rounds.
    assert_eq!(run.report.failed, 2);
    assert!(!run.report.correct());
    let report = serve_run(&programs, 5, false, true);
    assert!(report.failed >= 1);
    assert!(!report.correct());
}

#[test]
fn different_seeds_change_inputs_and_both_pass() {
    let programs = small();
    for w in &programs {
        for family in [Family::Calibrated, Family::Churn] {
            assert_ne!(generate(w.name, 1, family), generate(w.name, 2, family));
        }
    }
    for seed in [1, 2] {
        for churn in [false, true] {
            let report = serve_run(&programs, seed, churn, false);
            assert_eq!(report.failed, 0, "seed {seed} churn {churn}");
            assert_eq!(report.checked, report.attempted);
            assert!(
                report.correct(),
                "seed {seed} churn {churn}: {:?}",
                report.checks
            );
        }
    }
}

#[test]
fn deterministic_counts_repeat_across_rounds_and_runs() {
    let programs = small();
    let a = compile_run(&programs, 9, false);
    let b = compile_run(&programs, 9, false);
    assert!(a.report.correct(), "{:?}", a.report.checks);
    assert!(b.report.correct(), "{:?}", b.report.checks);
    assert_eq!(a.counts, b.counts);
    let c = compile_run(&programs, 10, false);
    assert_ne!(a.counts, c.counts, "another seed gives other check inputs");
    // The profile is the fixed training input, so the table cost is the
    // same for every seed.
    let tables = |r: &compile::Run| r.counts.iter().map(|c| c.table_bytes).collect::<Vec<_>>();
    assert_eq!(tables(&a), tables(&c));
}

#[test]
fn benchmark_json_declares_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let printed: Vec<&str> = ["compile", "serve_hot", "serve_churn"]
        .into_iter()
        .chain(END_TO_END)
        .chain(PER_LAYER.iter().map(|(n, _)| *n))
        .collect();
    assert_eq!(declared, printed);
}
