//! The `compile` workload: each round compiles every program (front end,
//! reuse pipeline with its profiling runs, lowering and bytecode
//! compilation of both versions) and runs each once, baseline and
//! memoized, on a seeded input with private tables.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use compreuse::PipelineConfig;
use vm::{CostModel, Outcome, RunConfig, Trap};
use workloads::Workload;

use crate::common::{par_map, peak_rss_mib, threads, Expected, Original};
use crate::inputs::{derive, generate, stream, training, Family};
use crate::report::Report;
use crate::stats::{geometric_mean, harmonic_mean, median, ratio, tail};
use crate::trace::Tracer;

/// Run options.
#[derive(Debug)]
pub struct Opts<'a> {
    /// Input seed.
    pub seed: u64,
    /// Alternate traced and untraced rounds and report per-layer metrics.
    pub traced: bool,
    /// Programs to compile each round.
    pub programs: &'a [Workload],
    /// Flip one expected fingerprint, so the check must report a failure.
    /// Only the self-tests set it.
    pub corrupt_expected: bool,
    /// Rounds to measure. A fixed count keeps the
    /// sample count, and with it the tail percentile, the same between
    /// runs and commits.
    pub rounds: usize,
}

/// Front-end passes repeated to time the set-up.
const SETUP_REPEATS: usize = 9;

struct Prog<'a> {
    w: &'a Workload,
    profile: Vec<i64>,
    check: Vec<i64>,
    expected: Expected,
}

/// Counts that depend only on the seed: they must repeat exactly across
/// rounds and runs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Counts {
    /// `Report::analyzed`.
    pub analyzed: usize,
    /// `Report::profiled`.
    pub profiled: usize,
    /// `Report::transformed`.
    pub transformed: usize,
    /// `Report::merged_tables`.
    pub merged_tables: usize,
    /// `Report::total_table_bytes`.
    pub table_bytes: usize,
    /// Modelled baseline cycles on the check input.
    pub base_cycles: u64,
    /// Modelled memoized cycles on the check input.
    pub memo_cycles: u64,
    /// Private-table accesses in the memoized run.
    pub private_accesses: u64,
    /// Private-table hits in the memoized run.
    pub private_hits: u64,
}

/// One program's share of a round.
struct Step {
    /// Parse through memoized run, without the traced-only frequency run.
    latency: Duration,
    freq: Duration,
    base: Duration,
    memo: Duration,
    runs: Option<(Result<Outcome, Trap>, Result<Outcome, Trap>)>,
    counts: Counts,
}

struct Round {
    id: u64,
    traced: bool,
    wall: Duration,
    steps: Vec<Step>,
}

/// The outcome of a run: the report plus the deterministic counts, which
/// callers compare across runs.
#[derive(Debug)]
pub struct Run {
    /// Metrics and checks.
    pub report: Report,
    /// Per-program deterministic counts of the first round.
    pub counts: Vec<Counts>,
}

/// Runs the workload.
pub fn run(opts: &Opts<'_>, tracer: &mut Tracer) -> Run {
    let originals: Vec<Original> = opts.programs.iter().map(Original::new).collect();
    let inputs: Vec<(Vec<i64>, Vec<i64>)> = opts
        .programs
        .iter()
        .enumerate()
        .map(|(p, w)| {
            (
                training(w),
                generate(
                    w.name,
                    derive(opts.seed, stream::CHECK, p as u64),
                    Family::Calibrated,
                ),
            )
        })
        .collect();

    let setup_s = median(
        &(0..SETUP_REPEATS)
            .map(|_| front_end(opts.programs))
            .collect::<Vec<_>>(),
    );

    let mut expected: Vec<Expected> =
        par_map(&originals, threads(), |p, o| o.reference(&inputs[p].1));
    if opts.corrupt_expected {
        expected[0].fingerprint ^= 1;
    }
    let progs: Vec<Prog<'_>> = opts
        .programs
        .iter()
        .zip(inputs)
        .zip(&expected)
        .map(|((w, (profile, check)), &expected)| Prog {
            w,
            profile,
            check,
            expected,
        })
        .collect();

    let mut report = Report::default();
    let mut stable = true;
    let mut rounds = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    for id in 1..=opts.rounds as u64 {
        tracer.set_enabled(opts.traced && id % 2 == 0);
        let mut r = round(&progs, tracer, id);
        tracer.set_enabled(false);
        if counts.is_empty() {
            counts = r.steps.iter().map(|s| s.counts.clone()).collect();
        }
        tally(&mut r, &progs, &counts, &mut report, &mut stable);
        rounds.push(r);
    }
    report.check("deterministic counts repeat in every round", stable);

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    end_to_end(&mut report, &untraced, &counts, setup_s);
    if opts.traced {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        per_layer(
            &mut report,
            tracer,
            &traced,
            &untraced,
            &counts,
            opts.programs,
        );
    }
    notes(&mut report, &untraced, &counts, opts.programs);
    Run { report, counts }
}

/// Set-up: the front end and analyses over every source, validating the
/// programs before any round. Returns the wall time in seconds.
fn front_end(programs: &[Workload]) -> f64 {
    let t = Instant::now();
    for w in programs {
        let checked = minic::parse(&w.source)
            .ok()
            .and_then(|ast| minic::check(ast).ok())
            .unwrap_or_else(|| panic!("{} fails the front end", w.name));
        std::hint::black_box(analysis::Analyses::build(&checked));
    }
    t.elapsed().as_secs_f64()
}

/// Checks a round's outputs against the reference and its counts against
/// the first round's, then drops the outputs.
fn tally(
    round: &mut Round,
    progs: &[Prog<'_>],
    first: &[Counts],
    report: &mut Report,
    stable: &mut bool,
) {
    for ((step, prog), first) in round.steps.iter_mut().zip(progs).zip(first) {
        report.attempted += 1;
        *stable &= step.counts == *first;
        let Some((base, memo)) = step.runs.take() else {
            report.failed += 1;
            continue;
        };
        report.checked += 1;
        let matches = |out: &Result<Outcome, Trap>| {
            out.is_ok() && service::fingerprint_outcome(out) == prog.expected.fingerprint
        };
        if prog.expected.trapped || !matches(&base) || !matches(&memo) {
            report.failed += 1;
        }
    }
}

fn round(progs: &[Prog<'_>], tr: &mut Tracer, id: u64) -> Round {
    let traced = tr.enabled();
    let open = tr.begin("compile.round", "", id);
    let steps = progs.iter().map(|p| step(p, tr, id)).collect();
    let wall = tr.end(open);
    Round {
        id,
        traced,
        wall,
        steps,
    }
}

fn step(prog: &Prog<'_>, tr: &mut Tracer, id: u64) -> Step {
    let name = prog.w.name;
    let cost = CostModel::o0();
    let mut step = Step {
        latency: Duration::ZERO,
        freq: Duration::ZERO,
        base: Duration::ZERO,
        memo: Duration::ZERO,
        runs: None,
        counts: Counts::default(),
    };
    let open = tr.begin("compile.program", name, id);
    let config = PipelineConfig {
        cost: cost.clone(),
        profile_input: prog.profile.clone(),
        ..PipelineConfig::default()
    };
    let (ast, _) = tr.call("minic.parse", name, id, || minic::parse(&prog.w.source));
    let Ok(ast) = ast else {
        step.latency = tr.end(open);
        return step;
    };
    let copy = ast.clone();
    let (checked, _) = tr.call("minic.check", name, id, || minic::check(copy));
    if let Ok(checked) = checked {
        let _ = tr.call("analysis.build", name, id, || {
            std::hint::black_box(analysis::Analyses::build(&checked))
        });
    }
    let (outcome, _) = tr.call("core.pipeline", name, id, || {
        compreuse::run_pipeline(&ast, &config)
    });
    let Ok(outcome) = outcome else {
        step.latency = tr.end(open);
        return step;
    };
    let (base_module, _) = tr.call("vm.lower", name, id, || vm::lower(&outcome.baseline));
    let (memo_module, _) = tr.call("vm.lower", name, id, || vm::lower(&outcome.transformed));
    let (base_pre, _) = tr.call("vm.precompile", name, id, || {
        vm::precompile(&base_module, &cost)
    });
    let (memo_pre, _) = tr.call("vm.precompile", name, id, || {
        vm::precompile(&memo_module, &cost)
    });
    if tr.enabled() {
        // The pipeline's stage-2 frequency run, repeated from outside to
        // show how much of the pipeline is VM profiling.
        let input = prog.profile.clone();
        let run_config = RunConfig {
            cost: cost.clone(),
            input,
            ..RunConfig::default()
        };
        let (freq, d) = tr.call("vm.freq_run", name, id, || {
            vm::run(&base_module, run_config)
        });
        std::hint::black_box(freq.is_ok());
        step.freq = d;
    }
    let (tables, _) = tr.call("core.make_tables", name, id, || outcome.try_make_tables());
    let Ok(tables) = tables else {
        step.latency = tr.end(open).saturating_sub(step.freq);
        return step;
    };
    let base_config = RunConfig {
        cost: cost.clone(),
        input: prog.check.clone(),
        ..RunConfig::default()
    };
    let memo_config = RunConfig {
        cost,
        input: prog.check.clone(),
        tables,
        ..RunConfig::default()
    };
    let (base, base_d) = tr.call("vm.run_base", name, id, || {
        vm::run_precompiled(&base_module, &base_pre, base_config)
    });
    let (memo, memo_d) = tr.call("vm.run_memo", name, id, || {
        vm::run_precompiled(&memo_module, &memo_pre, memo_config)
    });
    step.latency = tr.end(open).saturating_sub(step.freq);
    step.base = base_d;
    step.memo = memo_d;
    let r = &outcome.report;
    step.counts = Counts {
        analyzed: r.analyzed,
        profiled: r.profiled,
        transformed: r.transformed,
        merged_tables: r.merged_tables,
        table_bytes: r.total_table_bytes,
        base_cycles: base.as_ref().map_or(0, |o| o.cycles),
        memo_cycles: memo.as_ref().map_or(0, |o| o.cycles),
        private_accesses: memo
            .as_ref()
            .map_or(0, |o| o.tables.iter().map(|t| t.stats().accesses).sum()),
        private_hits: memo
            .as_ref()
            .map_or(0, |o| o.tables.iter().map(|t| t.stats().hits).sum()),
    };
    step.runs = Some((base, memo));
    step
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Harmonic mean over programs of modelled baseline/memoized cycles.
fn speedup_cycles(counts: &[Counts]) -> f64 {
    let per: Vec<f64> = counts
        .iter()
        .map(|c| ratio(c.base_cycles as f64, c.memo_cycles as f64))
        .collect();
    harmonic_mean(&per)
}

fn end_to_end(report: &mut Report, rounds: &[&Round], counts: &[Counts], setup_s: f64) {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.steps.iter().map(|s| ms(s.latency)))
        .collect();
    let host: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let per: Vec<f64> = r
                .steps
                .iter()
                .map(|s| ratio(s.base.as_secs_f64(), s.memo.as_secs_f64()))
                .collect();
            geometric_mean(&per)
        })
        .collect();
    let n = rounds.len();
    report.e2e("setup_s", setup_s, "s", SETUP_REPEATS, "median");
    report.e2e("peak_rss_mb", peak_rss_mib(), "MiB", 1, "VmHWM");
    report.e2e("compile_s", median(&walls), "s", n, "median");
    report.e2e(
        "speedup_cycles",
        speedup_cycles(counts),
        "x",
        counts.len(),
        "harmonic mean",
    );
    report.e2e(
        "speedup_host",
        median(&host),
        "x",
        n,
        "median of geometric means",
    );
    let kib = counts.iter().map(|c| c.table_bytes).sum::<usize>() as f64 / 1024.0;
    report.e2e("table_kib", kib, "KiB", counts.len(), "total");
    report.e2e(
        "throughput_rps",
        latencies.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
        latencies.len(),
        "programs compiled per second",
    );
    // Program costs differ widely and every program adds one step per
    // round, so both order statistics follow one program: the median the
    // program ranked 4th of 7 by cost, the tail the fast end of GNUGO's
    // steps (the costliest program).
    report.e2e(
        "latency_p50_ms",
        median(&latencies),
        "ms",
        latencies.len(),
        "median per-program step, follows the 4th-costliest program",
    );
    let (p, v) = tail(&latencies);
    report.e2e(
        "latency_tail_ms",
        v,
        "ms",
        latencies.len(),
        &format!("p{p:.1}, within GNUGO's steps"),
    );
}

fn per_layer(
    report: &mut Report,
    tracer: &Tracer,
    traced: &[&Round],
    untraced: &[&Round],
    counts: &[Counts],
    programs: &[Workload],
) {
    let totals = tracer.self_totals();
    let n = traced.len();
    // Median over traced rounds of the per-round self time of the spans
    // matching `name` (and `label`, when given).
    let per_round = |name: &str, label: Option<&str>| -> f64 {
        let mut by_round: BTreeMap<u64, u64> = traced.iter().map(|r| (r.id, 0)).collect();
        for (&(n, l, g), &ns) in &totals {
            if n == name && label.is_none_or(|want| want == l) {
                *by_round.entry(g).or_insert(0) += ns;
            }
        }
        median(
            &by_round
                .values()
                .map(|&ns| ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    for (span, metric) in [
        ("minic.parse", "minic.parse_ms"),
        ("minic.check", "minic.check_ms"),
        ("analysis.build", "analysis.build_ms"),
        ("core.pipeline", "core.pipeline_ms"),
        ("vm.freq_run", "vm.freq_run_ms"),
        ("vm.lower", "vm.lower_ms"),
        ("vm.precompile", "vm.precompile_ms"),
        ("core.make_tables", "core.make_tables_ms"),
        ("vm.run_base", "vm.run_base_ms"),
        ("vm.run_memo", "vm.run_memo_ms"),
    ] {
        report.layer(metric, per_round(span, None), "ms", n, "median per round");
    }
    for w in programs {
        let v = per_round("core.pipeline", Some(w.name));
        report.layer(
            &format!("core.pipeline_ms.{}", w.name),
            v,
            "ms",
            n,
            "median per round",
        );
    }
    let base_ns: f64 = traced
        .iter()
        .flat_map(|r| r.steps.iter().map(|s| s.base.as_secs_f64() * 1e9))
        .sum();
    let base_cycles = counts.iter().map(|c| c.base_cycles).sum::<u64>() as f64 * n as f64;
    report.layer(
        "vm.base_ns_per_kcycle",
        ratio(base_ns, base_cycles / 1e3),
        "ns/kcycle",
        n,
        "total",
    );
    let memo_ns: f64 = traced
        .iter()
        .flat_map(|r| r.steps.iter().map(|s| s.memo.as_secs_f64() * 1e9))
        .sum();
    let memo_cycles = counts.iter().map(|c| c.memo_cycles).sum::<u64>() as f64 * n as f64;
    report.layer(
        "vm.memo_ns_per_kcycle",
        ratio(memo_ns, memo_cycles / 1e3),
        "ns/kcycle",
        n,
        "total",
    );
    let sum = |f: fn(&Counts) -> usize| counts.iter().map(f).sum::<usize>() as f64;
    report.layer(
        "core.segments_analyzed",
        sum(|c| c.analyzed),
        "count",
        1,
        "per round",
    );
    report.layer(
        "core.segments_profiled",
        sum(|c| c.profiled),
        "count",
        1,
        "per round",
    );
    report.layer(
        "core.segments_transformed",
        sum(|c| c.transformed),
        "count",
        1,
        "per round",
    );
    report.layer(
        "core.merged_tables",
        sum(|c| c.merged_tables),
        "count",
        1,
        "per round",
    );
    let accesses = counts.iter().map(|c| c.private_accesses).sum::<u64>() as f64;
    let hits = counts.iter().map(|c| c.private_hits).sum::<u64>() as f64;
    report.layer(
        "runtime.private_hit_ratio",
        ratio(hits, accesses),
        "ratio",
        1,
        "per round",
    );
    report.layer(
        "runtime.private_accesses",
        accesses,
        "count",
        1,
        "per round",
    );

    // Everything in a round outside the timed calls: harness bookkeeping.
    let unattributed: Vec<f64> = traced
        .iter()
        .map(|r| {
            let ns: u64 = totals
                .iter()
                .filter(|((name, _, g), _)| {
                    *g == r.id && (*name == "compile.round" || *name == "compile.program")
                })
                .map(|(_, &ns)| ns)
                .sum();
            ns as f64 / 1e6
        })
        .collect();
    let covered = traced
        .iter()
        .zip(&unattributed)
        .all(|(r, &u)| u <= 0.05 * ms(r.wall));
    report.check(
        "timed calls cover at least 95% of every traced round",
        covered,
    );
    report.layer(
        "unattributed_ms",
        median(&unattributed),
        "ms",
        n,
        "median per round",
    );
    let traced_walls: Vec<f64> = traced
        .iter()
        .map(|r| ms(r.wall) - r.steps.iter().map(|s| ms(s.freq)).sum::<f64>())
        .collect();
    let untraced_walls: Vec<f64> = untraced.iter().map(|r| ms(r.wall)).collect();
    report.layer(
        "trace_overhead_ms",
        median(&traced_walls) - median(&untraced_walls),
        "ms",
        n + untraced.len(),
        "median traced round minus median untraced round",
    );
}

fn notes(report: &mut Report, rounds: &[&Round], counts: &[Counts], programs: &[Workload]) {
    let walls: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.1}", ms(r.wall)))
        .collect();
    report
        .notes
        .push(format!("round walls ms {}", walls.join(" ")));
    for (p, (w, c)) in programs.iter().zip(counts).enumerate() {
        let host: Vec<f64> = rounds
            .iter()
            .map(|r| ratio(r.steps[p].base.as_secs_f64(), r.steps[p].memo.as_secs_f64()))
            .collect();
        let latency: Vec<f64> = rounds.iter().map(|r| ms(r.steps[p].latency)).collect();
        report.notes.push(format!(
            "program {} speedup_cycles={:.4} speedup_host={:.4} compile_ms={:.1} table_bytes={} segments={}/{}/{} private_hit_ratio={:.4}",
            w.name,
            ratio(c.base_cycles as f64, c.memo_cycles as f64),
            median(&host),
            median(&latency),
            c.table_bytes,
            c.analyzed,
            c.profiled,
            c.transformed,
            ratio(c.private_hits as f64, c.private_accesses as f64),
        ));
    }
}
