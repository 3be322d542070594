//! The benchmark's own contract: metric names, the catalogue against
//! `BENCHMARK.json`, reduced-size runs of every workload, and a tampered
//! digest showing up in `error_rate`.

use perfbench::checks::{digest, Checks};
use perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use perfbench::tracer::Tracer;
use perfbench::workloads::{run, setup};
use perfbench::{measure, Scale, Workload};

fn names(catalogue: &[(&str, &str, &str)]) -> Vec<String> {
    catalogue.iter().map(|(name, _, _)| name.to_string()).collect()
}

#[test]
fn every_metric_name_is_valid() {
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?} of {name}");
        assert!(matches!(*better, "lower" | "higher"), "bad direction {better:?} of {name}");
    }
    assert!(valid_name("error_rate"));
    for name in ["", "-x", "a b", "x/y", &"a".repeat(65)] {
        assert!(!valid_name(name), "{name:?} must be rejected");
    }
    let mut all = names(END_TO_END);
    all.extend(names(PER_LAYER));
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "metric names must be unique");
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for workload in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())),
            "{workload:?}"
        );
    }
    for (name, unit, better) in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": "
        );
        assert!(json.contains(&entry), "missing end-to-end entry {entry}");
    }
    for (name, unit, better) in PER_LAYER {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(json.contains(&entry), "missing per-layer entry {entry}");
    }
    let entries = json.matches("{\"name\": ").count();
    assert_eq!(entries, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn every_workload_reports_every_end_to_end_metric_with_no_errors() {
    for workload in Workload::ALL {
        let result = measure::end_to_end(workload, 0x5EED, 1, Scale::Smoke);
        assert_eq!(result.checks.failures(), &[] as &[String], "{workload:?}");
        assert_eq!(result.checks.error_rate(), 0.0);
        assert!(result.checks.attempted() > 0);
        assert!(result.repetitions >= measure::MIN_REPETITIONS);
        let reported: Vec<String> = result.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(reported, names(END_TO_END), "{workload:?}");
        for metric in &result.metrics {
            assert!(metric.value.is_finite() && metric.value > 0.0, "{workload:?} {metric:?}");
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_with_no_errors() {
    for workload in Workload::ALL {
        let mut tracer = Tracer::on(format!("test-{}", workload.name()));
        let result = measure::traced(workload, 0x5EED, Scale::Smoke, &mut tracer);
        assert_eq!(result.checks.failures(), &[] as &[String], "{workload:?}");
        let reported: Vec<String> = result.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(reported, names(PER_LAYER), "{workload:?}");
        let value =
            |name: &str| result.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        assert!(value("trace_overhead.ratio") > 0.0);
        assert!(value("kernel.sha256_mb_s") > 0.0);
        assert!(value("store.put_chunk_ns") > 0.0);
        let own = match workload {
            Workload::Population => "scale.run_s",
            Workload::SyncFleet => "fleet.run_s",
            Workload::Paper => "paper.fig4_s",
        };
        assert!(value(own) > 0.0, "{workload:?} must time its own layer");
        // Spans of the run share its identifier and close in order.
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let run_id = format!("\"run\":\"test-{}\"", workload.name());
        assert!(tracer.dump().lines().all(|line| line.contains(&run_id)));
    }
}

#[test]
fn a_mismatched_digest_raises_the_error_rate() {
    let workers = cloudsim_parallel::available_workers();
    let mut checks = Checks::new();
    let first =
        run(setup(Workload::Population, 7, Scale::Smoke, workers), &mut Tracer::off(), &mut checks);
    let again =
        run(setup(Workload::Population, 7, Scale::Smoke, workers), &mut Tracer::off(), &mut checks);
    checks.same_digest("repeat", first.digest, again.digest);
    assert_eq!(checks.error_rate(), 0.0, "{:?}", checks.failures());

    let other =
        run(setup(Workload::Population, 8, Scale::Smoke, workers), &mut Tracer::off(), &mut checks);
    assert_ne!(first.digest, other.digest, "the digest must depend on the result");
    checks.same_digest("tampered", first.digest ^ 1, first.digest);
    assert!(checks.error_rate() > 0.0);
    assert_eq!(checks.failed(), 1);
}

#[test]
fn population_assembles_the_suite_the_repro_binary_emits() {
    let seed = 0x5EED;
    let spec = perfbench::workloads::population_spec(seed, Scale::Smoke);
    let workers = cloudsim_parallel::available_workers();
    let input = setup(Workload::Population, seed, Scale::Smoke, workers);
    let harness = run(input, &mut Tracer::off(), &mut Checks::new());
    let suite = cloudbench::scale::run_fleet_scale(spec.clients, seed);
    let repro = digest(cloudbench::Report::to_json(&suite).as_bytes());
    assert_eq!(harness.digest, repro, "the population phase must assemble the fleet-scale suite");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--workload", "paper", "--trace", "2"], &[]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
