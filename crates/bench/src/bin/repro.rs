//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [all|table1|fig1|fig2|fig3|fig4|fig5|fig6a|fig6b|fig6c|arch|fleet|hetero|restore|schedule|faults] [--reps N] [--json PATH]
//! repro fleet-scale [--clients N] [--json PATH] [--capture PATH]
//! repro replay --capture PATH [--link PRESET | --profile SERVICE] [--json PATH] [--metrics PATH]
//! repro partition [--clients N] [--partitions K] [--capture PATH] [--json PATH]
//! repro trace [--clients N] [--json PATH]
//! repro suites
//! repro bench-json [PATH]
//! ```
//!
//! Every flag goes through the shared [`cloudbench_bench::cli`] surface:
//! `--json PATH` (on `restore`, `schedule`, `faults`, `fleet-scale`,
//! `replay`, `partition` and `trace`) additionally dumps the suite struct
//! as deterministic JSON, with `-` streaming the JSON to stdout *instead
//! of* the text report (what the CI determinism legs `cmp`); counted flags
//! like `--clients N` reject missing/malformed/zero values with the usage
//! text and exit code 2 everywhere instead of silently falling back, and a
//! population the scale driver cannot run (event or packet counts that
//! overflow, a traced run past the 2^24-client address space) is refused
//! the same way before anything is allocated.
//!
//! Each target runs the corresponding experiment on the simulated substrate
//! and prints the same rows/series the paper reports. Absolute values differ
//! from the 2013 testbed; EXPERIMENTS.md records the paper-vs-measured
//! comparison for every target.
//!
//! Beyond the paper, `fleet` prints the multi-tenant fleet scaling suite,
//! `hetero` runs the heterogeneous scenario matrix (mixed service profiles ×
//! mixed access links × churn, against eager- and mark-sweep-collected
//! stores), `restore` runs the download/restore suite (downloader slots
//! pulling other users' content back through asymmetric links), `schedule`
//! runs the temporal suite (think-time distributions, idle rounds and
//! arrival jitter on a virtual clock, with start-up delay distributions,
//! the concurrency high-water mark and the background-vs-payload split),
//! `faults` runs the fault-injection suite (identical seeded link-outage
//! schedules per access-link preset, replayed under every retry policy plus
//! a fault-free control, with resumable upload sessions and SHA-256
//! validated ranged restores), `fleet-scale` drives `--clients` (default
//! 100 000) lightweight clients through the discrete-event engine against
//! the sharded store — commits per virtual second, concurrency peak,
//! population-scale dedup and the server load curve, with `--json PATH`
//! dumping the suite deterministically for the CI fleet-scale determinism
//! leg and `--capture PATH` recording the workload as a versioned JSONL
//! capture — `replay` re-drives such a capture through the same scale
//! driver (same mix by default: bit-identical metrics; `--link`/`--profile`
//! remap every client for the paper-style A/B comparison, with
//! `--metrics PATH` dumping the replayed gate metrics for `bench_gate
//! --subset`), `partition` runs the worker-sharded partition mode —
//! `--partitions K` disjoint client sets (round-robin stripes over a live
//! population, contiguous capture slices with `--capture PATH`) driven
//! concurrently against one shared store and merged back bit-identically,
//! with `--json PATH` dumping only the *merged* suite so dumps `cmp` equal
//! across partition counts and against `fleet-scale` — `trace` runs the
//! trace-overhead suite (the fleet-scale population with the sharded
//! packet capture off and on, asserting the traced run's data is
//! bit-identical and reporting the capture's packet/flow/overhead
//! figures) — `suites` prints the gated suite table CI scripts iterate
//! over, and `bench-json` dumps the deterministic gate metrics as flat
//! JSON (to PATH, default stdout) for the CI bench-regression gate.
//! `fleet-scale` and `trace` are not part of `all`: at the default
//! population they run for minutes, not seconds.

use cloudbench::architecture::discover_architecture;
use cloudbench::benchmarks::run_performance_suite;
use cloudbench::capability::{
    compression_series, delta_encoding_series, syn_series, CapabilityMatrix,
};
use cloudbench::fleet::{run_fleet_scaling, FLEET_SIZES};
use cloudbench::idle::idle_traffic_series;
use cloudbench::report::{Fig6Metric, Report};
use cloudbench::testbed::Testbed;
use cloudbench::{FileKind, Provider, ServiceProfile};
use cloudbench_bench::cli::{
    die_usage, emit, parse_clients, parse_count, parse_path, print_report, write_payload,
};
use cloudbench_bench::{BENCH_REPETITIONS, REPRO_SEED};
use cloudsim_geo::ResolverFleet;
use cloudsim_services::capture::{parse_capture, render_capture, ReplayMix};
use cloudsim_services::{AccessLink, ScaleSpec};

fn table1(testbed: &Testbed) {
    let matrix = CapabilityMatrix::detect_all(testbed);
    print_report(&Report::table1(&matrix));
}

fn fig1(testbed: &Testbed) {
    let series = idle_traffic_series(testbed);
    print_report(&Report::figure1(&series));
}

fn fig2() {
    let fleet = ResolverFleet::paper_scale();
    let reports: Vec<_> =
        Provider::ALL.iter().map(|p| discover_architecture(*p, &fleet, REPRO_SEED)).collect();
    let refs: Vec<&_> = reports.iter().collect();
    print_report(&Report::figure2(&refs));
}

fn fig3(testbed: &Testbed) {
    let series: Vec<(String, Vec<(f64, u64)>)> =
        [ServiceProfile::google_drive(), ServiceProfile::cloud_drive()]
            .iter()
            .map(|p| (p.name().to_string(), syn_series(testbed, p)))
            .collect();
    print_report(&Report::figure3(&series));
}

fn fig4(testbed: &Testbed) {
    let append_sizes: Vec<u64> = vec![100_000, 500_000, 1_000_000, 1_500_000, 2_000_000];
    let random_sizes: Vec<u64> =
        vec![1_000_000, 2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000];
    for (case, sizes, random) in
        [("append", &append_sizes, false), ("random offset", &random_sizes, true)]
    {
        let series: Vec<(String, Vec<_>)> = ServiceProfile::all()
            .iter()
            .map(|p| (p.name().to_string(), delta_encoding_series(testbed, p, sizes, random)))
            .collect();
        print_report(&Report::figure4(&series, case));
    }
}

fn fig5(testbed: &Testbed) {
    let sizes: Vec<u64> = vec![100_000, 500_000, 1_000_000, 1_500_000, 2_000_000];
    for (kind, label) in [
        (FileKind::Text, "random readable text"),
        (FileKind::RandomBinary, "random bytes"),
        (FileKind::FakeJpeg, "fake JPEGs"),
    ] {
        let series: Vec<(String, Vec<_>)> = ServiceProfile::all()
            .iter()
            .map(|p| (p.name().to_string(), compression_series(testbed, p, kind, &sizes)))
            .collect();
        print_report(&Report::figure5(&series, label));
    }
}

fn fleet() {
    let suite = run_fleet_scaling(&ServiceProfile::dropbox(), &FLEET_SIZES, REPRO_SEED);
    print_report(&Report::fleet_scaling(&suite));
}

fn hetero() {
    let suite =
        cloudbench::hetero::run_hetero(cloudbench_bench::metrics::HETERO_CLIENTS, REPRO_SEED);
    print_report(&Report::heterogeneous(&suite));
}

fn restore(json: Option<&str>) {
    let suite =
        cloudbench::restore::run_restore(cloudbench_bench::metrics::RESTORE_CLIENTS, REPRO_SEED);
    emit(&Report::restore(&suite), json, &Report::to_json(&suite), "the restore suite");
}

fn schedule(json: Option<&str>) {
    let suite =
        cloudbench::schedule::run_schedule(cloudbench_bench::metrics::SCHEDULE_CLIENTS, REPRO_SEED);
    emit(&Report::schedule(&suite), json, &Report::to_json(&suite), "the schedule suite");
}

fn faults(json: Option<&str>) {
    let suite = cloudbench::faults::run_faults(REPRO_SEED);
    emit(&Report::faults(&suite), json, &Report::to_json(&suite), "the faults suite");
}

/// The `--clients` count, refused with usage (exit 2) when `check` —
/// [`ScaleSpec::validate`] or [`ScaleSpec::validate_traced`] — rejects the
/// canonical population of that size.
fn checked_clients(args: &[String], check: fn(&ScaleSpec) -> Result<(), String>) -> usize {
    let clients = parse_clients(args, &usage());
    if let Err(e) = check(&cloudbench::scale::scale_spec(clients, REPRO_SEED)) {
        die_usage(&format!("--clients {clients}: {e}"), &usage());
    }
    clients
}

fn fleet_scale(clients: usize, json: Option<&str>, capture: Option<&str>) {
    let suite = cloudbench::scale::run_fleet_scale(clients, REPRO_SEED);
    emit(&Report::fleet_scale(&suite), json, &Report::to_json(&suite), "the fleet-scale suite");
    if let Some(path) = capture {
        let spec = cloudbench::scale::scale_spec(clients, REPRO_SEED);
        write_payload(path, &render_capture(&spec), "the fleet-scale workload capture");
    }
}

fn trace(args: &[String]) {
    let clients = checked_clients(args, ScaleSpec::validate_traced);
    let json = parse_path(args, "--json", &usage());
    let suite = cloudbench::trace_overhead::run_trace_overhead(clients, REPRO_SEED);
    emit(
        &Report::trace_overhead(&suite),
        json,
        &Report::to_json(&suite),
        "the trace-overhead suite",
    );
}

fn replay(args: &[String]) {
    let Some(capture_path) = parse_path(args, "--capture", &usage()) else {
        die_usage(
            "repro replay needs --capture PATH \
             (record one with `repro fleet-scale --capture PATH`)",
            &usage(),
        );
    };
    let text = std::fs::read_to_string(capture_path).unwrap_or_else(|e| {
        eprintln!("cannot read {capture_path}: {e}");
        std::process::exit(2);
    });
    let capture = parse_capture(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {capture_path}: {e}");
        std::process::exit(2);
    });

    let mix = match (parse_path(args, "--link", &usage()), parse_path(args, "--profile", &usage()))
    {
        (Some(_), Some(_)) => {
            die_usage("--link and --profile are mutually exclusive", &usage());
        }
        (Some(name), None) => ReplayMix::Link(AccessLink::by_name(name).unwrap_or_else(|| {
            let valid: Vec<&str> = AccessLink::all().iter().map(|l| l.name).collect();
            die_usage(
                &format!("unknown link preset '{name}' (valid: {})", valid.join(", ")),
                &usage(),
            );
        })),
        (None, Some(name)) => {
            let wanted = name.to_lowercase();
            let profile = ServiceProfile::all()
                .into_iter()
                .find(|p| p.name().to_lowercase().replace(' ', "_") == wanted)
                .unwrap_or_else(|| {
                    let valid: Vec<String> = ServiceProfile::all()
                        .iter()
                        .map(|p| p.name().to_lowercase().replace(' ', "_"))
                        .collect();
                    die_usage(
                        &format!("unknown service profile '{name}' (valid: {})", valid.join(", ")),
                        &usage(),
                    );
                });
            ReplayMix::Profile(profile)
        }
        (None, None) => ReplayMix::Original,
    };

    let suite = cloudbench::scale::replay_fleet_scale(&capture, &mix).unwrap_or_else(|e| {
        eprintln!("replay failed: {e}");
        std::process::exit(1);
    });
    emit(
        &Report::fleet_scale(&suite),
        parse_path(args, "--json", &usage()),
        &Report::to_json(&suite),
        "the replayed fleet-scale suite",
    );
    if let Some(path) = parse_path(args, "--metrics", &usage()) {
        let metrics = cloudbench_bench::metrics::scale_suite_metrics(&suite);
        let rendered = cloudbench_bench::gate::render_flat(&metrics);
        write_payload(path, &rendered, "the replayed gate metrics");
    }
}

fn partition(args: &[String]) {
    let partitions = parse_count(args, "--partitions", 4, &usage());
    let json = parse_path(args, "--json", &usage());

    let suite = match parse_path(args, "--capture", &usage()) {
        Some(capture_path) => {
            let text = std::fs::read_to_string(capture_path).unwrap_or_else(|e| {
                eprintln!("cannot read {capture_path}: {e}");
                std::process::exit(2);
            });
            let capture = parse_capture(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse {capture_path}: {e}");
                std::process::exit(2);
            });
            cloudbench::partition::replay_partition_suite(&capture, partitions).unwrap_or_else(
                |e| {
                    eprintln!("partitioned replay failed: {e}");
                    std::process::exit(2);
                },
            )
        }
        None => {
            let clients = checked_clients(args, ScaleSpec::validate);
            if partitions > clients {
                die_usage(
                    &format!("cannot cut {clients} clients into {partitions} non-empty partitions"),
                    &usage(),
                );
            }
            cloudbench::partition::run_partition_suite(clients, partitions, REPRO_SEED)
        }
    };

    // The JSON dump carries only the *merged* suite — bit-identical across
    // partition counts and against `repro fleet-scale --json`, which is
    // exactly what the CI partition-determinism leg `cmp`s. The text report
    // adds the per-partition split accounting on top.
    if json != Some("-") {
        print_report(&Report::partition(&suite));
        print_report(&Report::fleet_scale(&suite.merged));
    }
    if let Some(path) = json {
        write_payload(path, &Report::to_json(&suite.merged), "the merged partitioned suite");
    }
}

fn bench_json(path: Option<&str>) {
    let metrics = cloudbench_bench::metrics::collect();
    let rendered = cloudbench_bench::gate::render_flat(&metrics);
    match path {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {} metrics to {path}", metrics.len());
        }
        None => print!("{rendered}"),
    }
}

fn fig6(testbed: &Testbed, reps: usize, metric: Option<Fig6Metric>) {
    let suite = run_performance_suite(testbed, reps);
    let metrics = match metric {
        Some(m) => vec![m],
        None => vec![Fig6Metric::Startup, Fig6Metric::Completion, Fig6Metric::Overhead],
    };
    for m in metrics {
        print_report(&Report::figure6(&suite, m));
    }
}

/// The usage text of the error path. The suite list is derived from the
/// shared table, so `repro` never advertises a stale set.
fn usage() -> String {
    format!(
        "usage: repro [all|table1|fig1|fig2|fig3|fig4|fig5|fig6|fig6a|fig6b|fig6c|arch|fleet|hetero|restore|schedule|faults] [--reps N] [--json PATH]\n       \
         repro fleet-scale [--clients N] [--json PATH] [--capture PATH]\n       \
         repro replay --capture PATH [--link PRESET | --profile SERVICE] [--json PATH] [--metrics PATH]\n       \
         repro partition [--clients N] [--partitions K] [--capture PATH] [--json PATH]\n       \
         repro trace [--clients N] [--json PATH]\n       \
         repro suites\n       \
         repro bench-json [PATH]\n\
         gated suites (see `repro suites`): {}",
        cloudbench_bench::suites::prefix_list()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target = args.first().map(|s| s.as_str()).unwrap_or("all");
    let reps = parse_count(&args, "--reps", BENCH_REPETITIONS, &usage());
    let json = parse_path(&args, "--json", &usage());
    let testbed = Testbed::new(REPRO_SEED);

    match target {
        "table1" => table1(&testbed),
        "fig1" => fig1(&testbed),
        "fig2" | "arch" => fig2(),
        "fig3" => fig3(&testbed),
        "fig4" => fig4(&testbed),
        "fig5" => fig5(&testbed),
        "fig6a" => fig6(&testbed, reps, Some(Fig6Metric::Startup)),
        "fig6b" => fig6(&testbed, reps, Some(Fig6Metric::Completion)),
        "fig6c" => fig6(&testbed, reps, Some(Fig6Metric::Overhead)),
        "fig6" => fig6(&testbed, reps, None),
        "fleet" => fleet(),
        "hetero" => hetero(),
        "restore" => restore(json),
        "schedule" => schedule(json),
        "faults" => faults(json),
        "fleet-scale" => {
            fleet_scale(
                checked_clients(&args, ScaleSpec::validate),
                json,
                parse_path(&args, "--capture", &usage()),
            );
        }
        "replay" => replay(&args),
        "partition" => partition(&args),
        "trace" => trace(&args),
        "suites" => print!("{}", cloudbench_bench::suites::render_table()),
        "bench-json" => bench_json(args.get(1).map(String::as_str)),
        "all" => {
            table1(&testbed);
            fig1(&testbed);
            fig2();
            fig3(&testbed);
            fig4(&testbed);
            fig5(&testbed);
            fig6(&testbed, reps, None);
            fleet();
            hetero();
            restore(None);
            schedule(None);
            faults(None);
        }
        other => {
            die_usage(&format!("unknown target '{other}'"), &usage());
        }
    }
}
