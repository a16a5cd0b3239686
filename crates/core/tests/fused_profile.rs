//! The pipeline reads each segment's execution count from its value-set
//! probe. These tests recompute every count the way a separate frequency
//! run would — a plain run of the baseline, read through that module's
//! own `NodeId` maps — and require the two to agree on every workload.

use analysis::segments::{self, Reject, SegKind};
use compreuse::{run_pipeline, PipelineConfig, ReuseOutcome};
use std::collections::HashMap;
use vm::{CostModel, OptLevel, RunConfig};

/// Input scale: small enough for a debug build.
const SCALE: f64 = 0.02;

/// Execution counts of every segment of `outcome.baseline`, by name,
/// from a plain run of the baseline's own module.
fn reference_counts(outcome: &ReuseOutcome, config: &PipelineConfig) -> HashMap<String, u64> {
    let module = vm::lower(&outcome.baseline);
    let run = vm::run(
        &module,
        RunConfig {
            cost: config.cost.clone(),
            input: config.profile_input.clone(),
            max_cycles: config.max_profile_cycles,
            ..RunConfig::default()
        },
    )
    .expect("reference run");
    let index = |origins: &[minic::ast::NodeId]| -> HashMap<minic::ast::NodeId, usize> {
        origins.iter().enumerate().map(|(i, &id)| (id, i)).collect()
    };
    let loops = index(&module.loop_origins);
    let branches = index(&module.branch_origins);
    segments::enumerate(&outcome.baseline)
        .into_iter()
        .map(|seg| {
            let count = match seg.kind {
                SegKind::FuncBody => run.func_calls[seg.func],
                SegKind::LoopBody(id) => loops.get(&id).map_or(0, |&i| run.loop_counts[i]),
                SegKind::IfBranch(id, then) => branches
                    .get(&id)
                    .map_or(0, |&i| run.branch_counts[i * 2 + usize::from(!then)]),
                SegKind::BareBlock(_) => unreachable!("sub-segments are off"),
            };
            (seg.name, count)
        })
        .collect()
}

#[test]
fn probe_counts_match_a_separate_frequency_run() {
    for w in workloads::main_seven() {
        let program = minic::parse(&w.source).expect("parse");
        for opt in [OptLevel::O0, OptLevel::O3] {
            let config = PipelineConfig {
                cost: CostModel::for_level(opt),
                profile_input: (w.default_input)(SCALE),
                ..PipelineConfig::default()
            };
            let outcome = run_pipeline(&program, &config)
                .unwrap_or_else(|e| panic!("{} {opt:?}: pipeline failed: {e}", w.name));
            let reference = reference_counts(&outcome, &config);
            let report = &outcome.report;
            assert!(!report.decisions.is_empty(), "{} {opt:?}", w.name);
            for d in &report.decisions {
                assert_eq!(
                    d.exec_count, reference[&d.name],
                    "{} {opt:?}: {}",
                    w.name, d.name
                );
                assert_eq!(d.exec_count, d.n, "{} {opt:?}: {}", w.name, d.name);
                assert!(d.exec_count >= config.min_exec);
            }
            for (name, reason) in &report.rejects {
                if matches!(reason, Reject::ColdCode) {
                    assert!(
                        reference[name] < config.min_exec,
                        "{} {opt:?}: {name} rejected as cold at {}",
                        w.name,
                        reference[name]
                    );
                }
            }
        }
    }
}
