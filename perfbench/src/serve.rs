//! The `serve_hot` and `serve_churn` workloads: a closed loop of two
//! clients in lockstep against one `service::ReuseService`. Each round
//! submits one request per client as a single batch; the next round starts
//! when the batch returns, and a request's latency is its batch's wall
//! time.
//!
//! `serve_hot` draws every request's input from a pool of four seeded
//! inputs per program, so the shared store answers most probes.
//! `serve_churn` gives every request a fresh input generated with the
//! repetition parameters at the low end of their range, so misses,
//! recordings and evictions dominate.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use compreuse::PipelineConfig;
use memo_runtime::TableStats;
use service::{Request, RequestStatus, ReuseService, ServiceConfig, ServiceProgram};
use vm::{CostModel, RunConfig};
use workloads::Workload;

use crate::common::{par_map, peak_rss_mib, threads, Expected, Original};
use crate::inputs::{derive, generate, stream, training, Family, Mix};
use crate::report::Report;
use crate::stats::{geometric_mean, harmonic_mean, median, ratio, tail};
use crate::trace::Tracer;

/// Run options.
#[derive(Debug)]
pub struct Opts<'a> {
    /// Input seed.
    pub seed: u64,
    /// Measured batch time in seconds (at least `MIN_BATCHES` batches).
    pub seconds: f64,
    /// Alternate traced and untraced batches and report per-layer metrics.
    pub traced: bool,
    /// Programs the service hosts.
    pub programs: &'a [Workload],
    /// Fresh low-repetition input per request (`serve_churn`) instead of
    /// the seeded pool (`serve_hot`).
    pub churn: bool,
    /// Flip one expected fingerprint, so the check must report a failure.
    /// Only the self-tests set it.
    pub corrupt_expected: bool,
}

/// Service set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 4;
/// Inputs per program in the hot pool and in the warm-up.
const POOL: usize = 4;
/// Timed batches per run at least, however short `seconds` is.
const MIN_BATCHES: usize = 32;
/// Batches whose inputs and references are prepared at a time.
const CHUNK: usize = 32;
/// Concurrent clients, one request each per batch.
const CLIENTS: usize = 2;

/// A request input with its expected behaviour.
#[derive(Debug, Clone)]
struct Job {
    program: usize,
    input: Vec<i64>,
    expected: Expected,
}

/// What the benchmark keeps of one served request.
struct Served {
    program: usize,
    latency_ns: u64,
    cycles: u64,
    expected_cycles: u64,
    ok: bool,
}

struct Batch {
    id: u64,
    traced: bool,
    wall: Duration,
    served: Vec<Served>,
    per_worker: Vec<u64>,
    store: TableStats,
}

struct Setup {
    service: ReuseService,
    wall: f64,
    compile: f64,
    table_bytes: usize,
    segments: [usize; 4],
}

/// Runs the workload.
pub fn run(opts: &Opts<'_>, tracer: &mut Tracer) -> Report {
    let names: Vec<&'static str> = opts.programs.iter().map(|w| w.name).collect();
    let family = if opts.churn {
        Family::Churn
    } else {
        Family::Calibrated
    };
    let profiles: Vec<Vec<i64>> = opts.programs.iter().map(training).collect();
    let fresh = |index: u64, p: usize| {
        generate(names[p], derive(opts.seed, stream::REQUEST, index), family)
    };

    tracer.set_enabled(opts.traced);
    let mut setup_walls = Vec::new();
    let mut compile_walls = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS as u64 {
        // Drop the previous service first, so only one is ever alive.
        drop(last.take());
        let s = setup(opts.programs, &profiles, tracer, i);
        setup_walls.push(s.wall);
        compile_walls.push(s.compile);
        last = Some(s);
    }
    tracer.set_enabled(false);
    let setup = last.expect("at least one set-up");
    let service = &setup.service;

    // Warm-up: every program on POOL inputs, interleaved so a batch pairs
    // different programs. For serve_hot these inputs are the pool.
    let originals: Vec<Original> = opts.programs.iter().map(Original::new).collect();
    let cost = CostModel::o0();
    let baselines: Vec<vm::Precompiled<'_>> = originals
        .iter()
        .map(|o| vm::precompile(&o.module, &cost))
        .collect();
    let jobs = |inputs: Vec<(usize, Vec<i64>)>| -> Vec<Job> {
        let expected = par_map(&inputs, threads(), |_, (p, input)| {
            originals[*p].reference(input)
        });
        inputs
            .into_iter()
            .zip(expected)
            .map(|((program, input), expected)| Job {
                program,
                input,
                expected,
            })
            .collect()
    };
    let mut warm = jobs(
        (0..POOL)
            .flat_map(|k| (0..names.len()).map(move |p| (p, k)))
            .map(|(p, k)| (p, fresh((p * POOL + k) as u64, p)))
            .collect(),
    );
    if opts.corrupt_expected {
        warm[0].expected.fingerprint ^= 1;
    }
    let mut pool: Vec<Vec<Job>> = vec![Vec::new(); names.len()];
    for job in &warm {
        pool[job.program].push(job.clone());
    }

    let mut report = Report::default();
    for (i, pair) in warm.chunks(CLIENTS).enumerate() {
        tally(&serve(service, pair, tracer, i as u64), &mut report);
    }

    let mut mix = Mix::new(opts.seed, &names);
    let mut pick = workloads::inputs::rng(derive(opts.seed, stream::REQUEST, u64::MAX));
    let mut next_fresh = (names.len() * POOL) as u64;
    let mut batches: Vec<Batch> = Vec::new();
    let mut paired = Paired::new(names.len());
    let mut measured = 0.0;
    let mut chunk_no = 0u64;
    let mut id = (warm.len() / CLIENTS) as u64;
    'outer: loop {
        let programs: Vec<usize> = (0..CHUNK * CLIENTS).map(|_| mix.next_program()).collect();
        let chunk: Vec<Job> = if opts.churn {
            jobs(
                programs
                    .iter()
                    .map(|&p| {
                        next_fresh += 1;
                        (p, fresh(next_fresh, p))
                    })
                    .collect(),
            )
        } else {
            programs
                .iter()
                .map(|&p| pool[p][pick.gen_range(0..POOL)].clone())
                .collect()
        };
        // In every other chunk, the first request of each program is rerun
        // on the untransformed program right after its batch, so the host
        // speedup compares runs made under the same host conditions.
        let mut timed = vec![chunk_no % 2 == 1; names.len()];
        chunk_no += 1;
        for pair in chunk.chunks(CLIENTS) {
            tracer.set_enabled(opts.traced && id % 2 == 1);
            let batch = serve(service, pair, tracer, id);
            tracer.set_enabled(false);
            tally(&batch, &mut report);
            for (s, job) in batch.served.iter().zip(pair) {
                if !std::mem::replace(&mut timed[job.program], true) {
                    let original = &originals[job.program];
                    let base_ns = time_baseline(original, &baselines[job.program], &job.input);
                    paired.record(job, base_ns, s.latency_ns);
                }
            }
            measured += batch.wall.as_secs_f64();
            batches.push(batch);
            id += 1;
            if measured >= opts.seconds && batches.len() >= MIN_BATCHES {
                break 'outer;
            }
        }
    }
    let untraced: Vec<&Batch> = batches.iter().filter(|b| !b.traced).collect();
    let m = Measured {
        batches: &untraced,
        programs: names.len(),
    };
    let latencies = m.latencies_ms();
    let (p, tail_ms) = tail(&latencies);
    let sets = SETUP_REPEATS;
    report.e2e("setup_s", median(&setup_walls), "s", sets, "median");
    report.e2e("peak_rss_mb", peak_rss_mib(), "MiB", 1, "VmHWM");
    report.e2e(
        "compile_s",
        median(&compile_walls),
        "s",
        sets,
        "median of set-up pipelines",
    );
    report.e2e(
        "speedup_cycles",
        m.speedup_cycles(),
        "x",
        m.requests(),
        "harmonic mean over programs",
    );
    report.e2e(
        "speedup_host",
        paired.speedup(),
        "x",
        paired.samples(),
        "geometric mean over programs of paired medians",
    );
    report.e2e(
        "table_kib",
        setup.table_bytes as f64 / 1024.0,
        "KiB",
        names.len(),
        "total",
    );
    report.e2e(
        "throughput_rps",
        m.requests() as f64 / m.wall_s(),
        "1/s",
        m.requests(),
        "requests per batch second",
    );
    report.e2e(
        "latency_p50_ms",
        median(&latencies),
        "ms",
        latencies.len(),
        "median",
    );
    report.e2e(
        "latency_tail_ms",
        tail_ms,
        "ms",
        latencies.len(),
        &format!("p{p:.1}"),
    );

    if opts.traced {
        let traced: Vec<&Batch> = batches.iter().filter(|b| b.traced).collect();
        per_layer(&mut report, tracer, &traced, &untraced, &names);
        Measured {
            batches: &traced,
            programs: names.len(),
        }
        .runtime_layers(&mut report);
        let [a, p, t, mt] = setup.segments;
        for (name, v) in [
            ("core.segments_analyzed", a),
            ("core.segments_profiled", p),
            ("core.segments_transformed", t),
            ("core.merged_tables", mt),
        ] {
            report.layer(name, v as f64, "count", 1, "set-up");
        }
        let ns_per_kcycle = ratio(paired.base_ns, paired.base_cycles / 1e3);
        report.layer(
            "vm.base_ns_per_kcycle",
            ns_per_kcycle,
            "ns/kcycle",
            paired.samples(),
            "paired baseline runs",
        );
        let store_kib = setup.service.store_bytes() as f64 / 1024.0;
        report.layer("runtime.store_kib", store_kib, "KiB", 1, "at end");
    }
    Measured {
        batches: &batches.iter().collect::<Vec<_>>(),
        programs: names.len(),
    }
    .notes(&mut report, &names);
    report
}

/// Baseline runs paired with served requests of the same input.
struct Paired {
    /// Per program: baseline host time over served host time.
    ratios: Vec<Vec<f64>>,
    base_ns: f64,
    base_cycles: f64,
}

impl Paired {
    fn new(programs: usize) -> Self {
        Paired {
            ratios: vec![Vec::new(); programs],
            base_ns: 0.0,
            base_cycles: 0.0,
        }
    }

    fn record(&mut self, job: &Job, base_ns: f64, served_ns: u64) {
        self.ratios[job.program].push(ratio(base_ns, served_ns as f64));
        self.base_ns += base_ns;
        self.base_cycles += job.expected.cycles as f64;
    }

    fn samples(&self) -> usize {
        self.ratios.iter().map(Vec::len).sum()
    }

    /// Geometric mean over programs of the median paired ratio.
    fn speedup(&self) -> f64 {
        let per: Vec<f64> = self
            .ratios
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| median(r))
            .collect();
        geometric_mean(&per)
    }
}

/// Plans every program (on at most two threads) and builds the service.
fn setup(programs: &[Workload], profiles: &[Vec<i64>], tr: &mut Tracer, id: u64) -> Setup {
    let open = tr.begin("serve.setup", "", id);
    let t = Instant::now();
    let root = tr.fork();
    let planned = par_map(programs, threads(), |p, w| {
        let mut t = root.fork();
        let name = w.name;
        let config = PipelineConfig {
            profile_input: profiles[p].clone(),
            ..PipelineConfig::default()
        };
        let (ast, _) = t.call("minic.parse", name, id, || minic::parse(&w.source));
        let ast = ast.unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let (outcome, _) = t.call("core.pipeline", name, id, || {
            compreuse::run_pipeline(&ast, &config)
        });
        let outcome = outcome.unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
        let (module, _) = t.call("vm.lower", name, id, || vm::lower(&outcome.transformed));
        (outcome, module, t)
    });
    let compile = t.elapsed().as_secs_f64();
    let mut table_bytes = 0;
    let mut segments = [0; 4];
    let mut hosted = Vec::new();
    for (w, (outcome, module, t)) in programs.iter().zip(planned) {
        tr.absorb(t);
        let r = &outcome.report;
        table_bytes += r.total_table_bytes;
        for (s, v) in
            segments
                .iter_mut()
                .zip([r.analyzed, r.profiled, r.transformed, r.merged_tables])
        {
            *s += v;
        }
        hosted.push(ServiceProgram {
            name: w.name.to_string(),
            module,
            specs: outcome.specs,
            policies: outcome.policies,
            table_deps: outcome.table_deps,
            spec_plan: outcome.spec_plan,
        });
    }
    let config = ServiceConfig {
        workers: threads(),
        ..ServiceConfig::default()
    };
    let (service, _) = tr.call("service.new", "", id, || ReuseService::new(hosted, config));
    let service = service.unwrap_or_else(|e| panic!("the pipeline planned an invalid table: {e}"));
    let wall = t.elapsed().as_secs_f64();
    tr.end(open);
    Setup {
        service,
        wall,
        compile,
        table_bytes,
        segments,
    }
}

/// Host nanoseconds of one run of the untransformed program.
fn time_baseline(original: &Original, pre: &vm::Precompiled<'_>, input: &[i64]) -> f64 {
    let config = RunConfig {
        input: input.to_vec(),
        ..RunConfig::default()
    };
    let t = Instant::now();
    let out = vm::run_precompiled(&original.module, pre, config);
    let ns = t.elapsed().as_secs_f64() * 1e9;
    std::hint::black_box(out.is_ok());
    ns
}

/// Serves one batch (one request per job) and keeps what the metrics need.
fn serve(service: &ReuseService, jobs: &[Job], tr: &mut Tracer, id: u64) -> Batch {
    let traced = tr.enabled();
    let round = tr.begin("serve.round", "", id);
    let requests: Vec<Request> = jobs
        .iter()
        .map(|j| Request::new(j.program, j.input.clone()))
        .collect();
    let (report, wall) = tr.call("service.batch", "", id, || service.run(&requests));
    let served = report
        .results
        .iter()
        .zip(jobs)
        .map(|(r, j)| Served {
            program: r.program,
            latency_ns: r.latency_ns,
            cycles: r.cycles,
            expected_cycles: j.expected.cycles,
            ok: r.status == RequestStatus::Ok
                && !r.trapped
                && !j.expected.trapped
                && r.fingerprint == j.expected.fingerprint,
        })
        .collect();
    let batch = Batch {
        id,
        traced,
        wall,
        served,
        per_worker: report.per_worker,
        store: report.store_delta,
    };
    tr.end(round);
    batch
}

/// Counts a batch's requests as attempted and checked, and its
/// mismatches as failed.
fn tally(batch: &Batch, report: &mut Report) {
    for s in &batch.served {
        report.attempted += 1;
        report.checked += 1;
        report.failed += u64::from(!s.ok);
    }
}

/// Metrics over a set of measured batches.
struct Measured<'a> {
    batches: &'a [&'a Batch],
    programs: usize,
}

impl Measured<'_> {
    fn served(&self) -> impl Iterator<Item = &Served> {
        self.batches.iter().flat_map(|b| &b.served)
    }

    fn requests(&self) -> usize {
        self.served().count()
    }

    fn wall_s(&self) -> f64 {
        self.batches.iter().map(|b| b.wall.as_secs_f64()).sum()
    }

    /// Each request's latency: its batch's wall time.
    fn latencies_ms(&self) -> Vec<f64> {
        self.batches
            .iter()
            .flat_map(|b| b.served.iter().map(|_| b.wall.as_secs_f64() * 1e3))
            .collect()
    }

    /// Per-program `(reference cycles, served cycles, served ns, requests)`.
    fn per_program(&self) -> Vec<(f64, f64, Vec<f64>)> {
        let mut out = vec![(0.0, 0.0, Vec::new()); self.programs];
        for s in self.served() {
            let e = &mut out[s.program];
            e.0 += s.expected_cycles as f64;
            e.1 += s.cycles as f64;
            e.2.push(s.latency_ns as f64);
        }
        out
    }

    /// Harmonic mean over programs of reference (untransformed program)
    /// cycles over served cycles.
    fn speedup_cycles(&self) -> f64 {
        let per: Vec<f64> = self
            .per_program()
            .iter()
            .filter(|p| !p.2.is_empty())
            .map(|p| ratio(p.0, p.1))
            .collect();
        harmonic_mean(&per)
    }

    fn store(&self) -> TableStats {
        let mut total = TableStats::default();
        for b in self.batches {
            total.merge(&b.store);
        }
        total
    }

    fn runtime_layers(&self, report: &mut Report) {
        let n = self.requests();
        let batches = self.batches.len();
        let exec: Vec<f64> = self.served().map(|s| s.latency_ns as f64 / 1e6).collect();
        report.layer(
            "service.exec_ms",
            median(&exec),
            "ms",
            n,
            "median per request",
        );
        let overhead: Vec<f64> = self
            .batches
            .iter()
            .map(|b| {
                let slowest = b.served.iter().map(|s| s.latency_ns).max().unwrap_or(0);
                (b.wall.as_nanos() as f64 - slowest as f64) / 1e6
            })
            .collect();
        report.layer(
            "service.overhead_ms",
            median(&overhead),
            "ms",
            batches,
            "median per batch",
        );
        let mut per_worker: Vec<u64> = Vec::new();
        for b in self.batches {
            per_worker.resize(per_worker.len().max(b.per_worker.len()), 0);
            for (acc, n) in per_worker.iter_mut().zip(&b.per_worker) {
                *acc += n;
            }
        }
        let max = per_worker.iter().copied().max().unwrap_or(0) as f64;
        let min = per_worker.iter().copied().min().unwrap_or(0).max(1) as f64;
        report.layer(
            "service.worker_imbalance",
            max / min,
            "ratio",
            per_worker.len(),
            "max/min requests per worker",
        );
        let ns: f64 = self.served().map(|s| s.latency_ns as f64).sum();
        let cycles: f64 = self.served().map(|s| s.cycles as f64).sum();
        report.layer(
            "vm.memo_ns_per_kcycle",
            ratio(ns, cycles / 1e3),
            "ns/kcycle",
            n,
            "total",
        );
        report.layer(
            "vm.kcycles_per_req",
            ratio(cycles / 1e3, n as f64),
            "kcycles",
            n,
            "mean",
        );
        let st = self.store();
        let acc = st.accesses as f64;
        let per_req = |v: u64| ratio(v as f64, n as f64);
        for (name, value, unit) in [
            ("runtime.hit_ratio", ratio(st.hits as f64, acc), "ratio"),
            (
                "runtime.optimistic_hit_share",
                ratio(st.optimistic_hits as f64, st.hits as f64),
                "ratio",
            ),
            (
                "runtime.optimistic_retries",
                st.optimistic_retries as f64,
                "count",
            ),
            ("runtime.green_hits", st.green_hits as f64, "count"),
            ("runtime.stale_reds", st.stale_reds as f64, "count"),
            ("runtime.l1_hits", st.l1_hits as f64, "count"),
            ("runtime.l1_promotions", st.promotions as f64, "count"),
            ("runtime.miss_share", ratio(st.misses as f64, acc), "ratio"),
            (
                "runtime.insertions_per_req",
                per_req(st.insertions),
                "count",
            ),
            ("runtime.evictions_per_req", per_req(st.evictions), "count"),
            (
                "runtime.collisions_per_req",
                per_req(st.collisions),
                "count",
            ),
            (
                "runtime.admission_rejects",
                st.admission_rejects as f64,
                "count",
            ),
        ] {
            report.layer(name, value, unit, n, "over traced batches");
        }
    }

    fn notes(&self, report: &mut Report, names: &[&str]) {
        let per = self.per_program();
        let total_ns: f64 = per.iter().flat_map(|p| &p.2).sum();
        for (name, (reference, served, ns)) in names.iter().zip(&per) {
            if ns.is_empty() {
                continue;
            }
            report.notes.push(format!(
                "program {name} requests={} share_of_serve_time={:.4} exec_ms_p50={:.2} speedup_cycles={:.4}",
                ns.len(),
                ns.iter().sum::<f64>() / total_ns,
                median(ns) / 1e6,
                ratio(*reference, *served),
            ));
        }
        let st = self.store();
        report.notes.push(format!(
            "store hit_ratio={:.4} miss_share={:.4} evictions_per_req={:.1} insertions_per_req={:.1}",
            st.hit_ratio(),
            ratio(st.misses as f64, st.accesses as f64),
            ratio(st.evictions as f64, self.requests() as f64),
            ratio(st.insertions as f64, self.requests() as f64),
        ));
    }
}

fn per_layer(
    report: &mut Report,
    tracer: &Tracer,
    traced: &[&Batch],
    untraced: &[&Batch],
    names: &[&'static str],
) {
    let totals = tracer.self_totals();
    // Median over set-ups of the summed self time of `name` spans.
    let per_setup = |name: &str, label: Option<&str>| -> f64 {
        let mut by: BTreeMap<u64, u64> = (0..SETUP_REPEATS as u64).map(|g| (g, 0)).collect();
        for (&(n, l, g), &ns) in &totals {
            if n == name && label.is_none_or(|want| want == l) {
                *by.entry(g).or_insert(0) += ns;
            }
        }
        median(&by.values().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>())
    };
    for (span, metric) in [
        ("minic.parse", "minic.parse_ms"),
        ("core.pipeline", "core.pipeline_ms"),
        ("vm.lower", "vm.lower_ms"),
        ("service.new", "service.new_ms"),
    ] {
        report.layer(
            metric,
            per_setup(span, None),
            "ms",
            SETUP_REPEATS,
            "median per set-up",
        );
    }
    for name in names {
        let v = per_setup("core.pipeline", Some(name));
        report.layer(
            &format!("core.pipeline_ms.{name}"),
            v,
            "ms",
            SETUP_REPEATS,
            "median per set-up",
        );
    }
    let unattributed: Vec<f64> = traced
        .iter()
        .map(|b| {
            totals
                .get(&("serve.round", "", b.id))
                .map_or(0.0, |&ns| ns as f64 / 1e6)
        })
        .collect();
    // `service.exec_ms + service.overhead_ms` rebuilds each batch's wall
    // time by definition; what can fail is the harness's own share of a
    // round, outside the `ReuseService::run` call.
    let covered = traced
        .iter()
        .zip(&unattributed)
        .all(|(b, &u)| u <= 0.05 * b.wall.as_secs_f64() * 1e3);
    report.check(
        "the service call covers at least 95% of every traced round",
        covered,
    );
    report.layer(
        "unattributed_ms",
        median(&unattributed),
        "ms",
        traced.len(),
        "median per round",
    );
    let walls = |bs: &[&Batch]| {
        median(
            &bs.iter()
                .map(|b| b.wall.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    report.layer(
        "trace_overhead_ms",
        walls(traced) - walls(untraced),
        "ms",
        traced.len() + untraced.len(),
        "median traced batch minus median untraced batch",
    );
}
