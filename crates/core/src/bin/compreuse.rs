//! `compreuse` — command-line front end for the reuse pipeline.
//!
//! ```sh
//! compreuse program.mc                       # report decisions
//! compreuse program.mc --emit                # print transformed source
//! compreuse program.mc --run --input in.txt  # execute both versions
//! compreuse program.mc --opt o3 --input in.txt --run
//! ```
//!
//! The input file (one integer per line) feeds both the profiling run and
//! — with `--run` — the execution comparison.

use compreuse::{run_pipeline, PipelineConfig};
use std::process::ExitCode;
use vm::{CostModel, OptLevel, RunConfig};

struct Cli {
    source_path: String,
    input_path: Option<String>,
    opt: OptLevel,
    emit: bool,
    run: bool,
    min_exec: u64,
    subsegments: bool,
    cleanup: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: compreuse <program.mc> [--input <ints.txt>] [--opt o0|o3] [--emit] [--run] [--min-exec N] [--subsegments] [--cleanup]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let mut cli = Cli {
        source_path: String::new(),
        input_path: None,
        opt: OptLevel::O0,
        emit: false,
        run: false,
        min_exec: 32,
        subsegments: false,
        cleanup: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--input" => cli.input_path = Some(args.next().unwrap_or_else(|| usage())),
            "--opt" => {
                cli.opt = match args.next().as_deref() {
                    Some("o0") | Some("O0") => OptLevel::O0,
                    Some("o3") | Some("O3") => OptLevel::O3,
                    _ => usage(),
                }
            }
            "--emit" => cli.emit = true,
            "--run" => cli.run = true,
            "--subsegments" => cli.subsegments = true,
            "--cleanup" => cli.cleanup = true,
            "--min-exec" => {
                cli.min_exec = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other if cli.source_path.is_empty() && !other.starts_with('-') => {
                cli.source_path = other.to_string()
            }
            _ => usage(),
        }
    }
    if cli.source_path.is_empty() {
        usage();
    }
    cli
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let source = match std::fs::read_to_string(&cli.source_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compreuse: cannot read {}: {e}", cli.source_path);
            return ExitCode::FAILURE;
        }
    };
    let input: Vec<i64> = match &cli.input_path {
        None => Vec::new(),
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => text
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect(),
            Err(e) => {
                eprintln!("compreuse: cannot read {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let program = match minic::parse(&source) {
        Ok(p) => p,
        Err(d) => {
            let map = minic::span::LineMap::new(&source);
            eprintln!("compreuse: {}", d.render(&map));
            return ExitCode::FAILURE;
        }
    };

    let outcome = match run_pipeline(
        &program,
        &PipelineConfig {
            cost: CostModel::for_level(cli.opt),
            profile_input: input.clone(),
            min_exec: cli.min_exec,
            enable_subsegments: cli.subsegments,
            enable_cleanup: cli.cleanup,
            ..PipelineConfig::default()
        },
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("compreuse: {e}");
            return ExitCode::FAILURE;
        }
    };

    let r = &outcome.report;
    println!(
        "segments: {} analyzed, {} profiled, {} transformed; {} merged table(s); {} table bytes",
        r.analyzed, r.profiled, r.transformed, r.merged_tables, r.total_table_bytes
    );
    for s in &r.specializations {
        println!(
            "specialized {} -> {} (bound {})",
            s.original,
            s.specialized,
            s.bound_params.join(", ")
        );
    }
    for d in &r.decisions {
        println!(
            "  {:<28} N={:<8} DIP={:<7} R={:>5.1}% C={:>8.0} O={:>5.0} gain={:>8.0}  {}",
            d.name,
            d.n,
            d.dip,
            d.reuse_rate * 100.0,
            d.measured_c,
            d.overhead_o,
            d.gain,
            if d.chosen { "TRANSFORMED" } else { "skipped" }
        );
    }
    if !r.rejects.is_empty() {
        println!("rejected segments:");
        for (name, why) in &r.rejects {
            println!("  {name}: {why}");
        }
    }

    if cli.emit {
        println!("\n/* ---- transformed program ---- */");
        println!(
            "{}",
            minic::pretty::print_program(&outcome.transformed.program)
        );
    }

    if cli.run {
        let tables = match outcome.try_make_tables() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("compreuse: invalid table spec: {e}");
                return ExitCode::FAILURE;
            }
        };
        let base = vm::run(
            &vm::lower(&outcome.baseline),
            RunConfig {
                cost: CostModel::for_level(cli.opt),
                input: input.clone(),
                ..RunConfig::default()
            },
        );
        let memo = vm::run(
            &vm::lower(&outcome.transformed),
            RunConfig {
                cost: CostModel::for_level(cli.opt),
                input,
                tables,
                ..RunConfig::default()
            },
        );
        match (base, memo) {
            (Ok(b), Ok(m)) => {
                if b.output_text() != m.output_text() {
                    eprintln!("compreuse: BUG — outputs diverged");
                    return ExitCode::FAILURE;
                }
                println!("\noutput:\n{}", b.output_text());
                println!(
                    "original {:>12} cycles | memoized {:>12} cycles | speedup {:.2}x | energy saving {:.1}%",
                    b.cycles,
                    m.cycles,
                    b.seconds / m.seconds,
                    (1.0 - m.energy_joules / b.energy_joules) * 100.0
                );
            }
            (Err(t), _) | (_, Err(t)) => {
                eprintln!("compreuse: program trapped: {t}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
