//! Plan-built bytecode runs on the one bytecode dispatch loop. On the
//! seven workloads, the precompiled specialized module fuses pairs and
//! enters its cloned segment bodies (some guard matches), and every
//! modelled observable equals the generic precompiled module's.

use compreuse::{run_pipeline, PipelineConfig};
use vm::{CostModel, Engine, OptLevel, RunConfig};

/// Everything an [`vm::Outcome`] observes, as a deterministic string.
fn fingerprint(o: &vm::Outcome) -> String {
    let stats: Vec<_> = o.tables.iter().map(|t| *t.stats()).collect();
    format!(
        "out={:?} ret={} cycles={} energy={} words={} calls={:?} loops={:?} branches={:?} \
         tables={stats:?}",
        o.output_text(),
        o.ret,
        o.cycles,
        o.energy_joules.to_bits(),
        o.table_words,
        o.func_calls,
        o.loop_counts,
        o.branch_counts,
    )
}

#[test]
fn planned_code_enters_clones_and_matches_generic() {
    let cost = CostModel::for_level(OptLevel::O3);
    let (mut fused, mut guard_hits) = (0, 0);
    for w in workloads::main_seven() {
        let input = (w.default_input)(0.02);
        let config = PipelineConfig {
            cost: cost.clone(),
            profile_input: input.clone(),
            engine: Engine::Specialized,
            ..PipelineConfig::default()
        };
        let program = minic::parse(&w.source).expect("workload parses");
        let outcome = run_pipeline(&program, &config).expect("pipeline runs");
        let plan = outcome
            .spec_plan
            .clone()
            .expect("specialized pipeline mines a plan");
        let module = vm::lower(&outcome.transformed);
        let run = |pre: &vm::Precompiled<'_>| {
            let config = RunConfig {
                cost: cost.clone(),
                input: input.clone(),
                tables: outcome.make_tables(),
                ..RunConfig::default()
            };
            vm::run_precompiled(&module, pre, config).expect("workload runs")
        };
        let generic = run(&vm::precompile(&module, &cost));
        let planned = run(&vm::precompile_spec(&module, &cost, &plan));
        assert_eq!(fingerprint(&planned), fingerprint(&generic), "{}", w.name);
        assert_eq!(
            generic.spec, None,
            "{}: generic code reports no plan",
            w.name
        );
        let s = planned.spec.expect("plan-built code reports its counters");
        assert_eq!(s.guard_probes, s.guard_hits + s.deopts, "{}", w.name);
        fused += s.fused_sites;
        guard_hits += s.guard_hits;
    }
    assert!(fused > 0, "no plan fused a pair");
    assert!(guard_hits > 0, "no cloned segment body ever ran");
}
