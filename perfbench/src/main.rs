//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload population|sync_fleet|paper [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Standard output: the run context and one row per metric, then the
//! result line (one JSON object). Standard error: progress, failed checks
//! and, for a traced run, the span and counter dump and the self-time table.

use perfbench::metrics::{result_line, rows, Metric};
use perfbench::sys::run_context;
use perfbench::tracer::Tracer;
use perfbench::{cli, measure, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    eprintln!(
        "perfbench: {name} seed {:#x}, {} (tracing {})",
        args.seed,
        if args.trace {
            "one traced run plus layer probes".to_string()
        } else {
            format!("{} s", args.seconds)
        },
        if args.trace { "on" } else { "off" },
    );

    let mut tracer = if args.trace {
        Tracer::on(format!("{name}-{:x}-{}", args.seed, std::process::id()))
    } else {
        Tracer::off()
    };
    let result = if args.trace {
        measure::traced(args.workload, args.seed, Scale::Full, &mut tracer)
    } else {
        measure::end_to_end(args.workload, args.seed, args.seconds, Scale::Full)
    };

    if tracer.enabled() {
        eprint!("{}", tracer.dump());
        eprintln!("{:<32} {:>10} {:>10}", "span", "total s", "self s");
        for (span, total, own) in tracer.self_times() {
            eprintln!("{span:<32} {total:>10.4} {own:>10.4}");
        }
    }
    for failure in result.checks.failures() {
        eprintln!("perfbench: check failed: {failure}");
    }
    eprintln!(
        "perfbench: {name}: {} repetitions, {} checks, {} failed",
        result.repetitions,
        result.checks.attempted(),
        result.checks.failed()
    );

    let context = run_context(name, args.seed, args.seconds, args.trace, result.sizes.clone());
    let error_rate =
        Metric { name: "error_rate", value: result.checks.error_rate(), unit: "ratio" };
    print!("{}", rows(&context, &[result.metrics.as_slice(), &[error_rate]].concat()));
    println!("{}", result_line(&result.checks, &result.metrics));
    ExitCode::SUCCESS
}
