//! The deterministic metric set behind the CI bench-regression gate.
//!
//! Every metric is a pure function of the simulation (no wall-clock, no
//! host parallelism dependence): per-service completion times and overheads
//! on the paper's key workloads, the fleet suite's multi-tenant metrics at
//! 8 clients, the heterogeneous scenario matrix (`hetero.*` per-profile
//! completions and per-link goodputs, `gc.*` reclamation under churn), the
//! restore suite's down-path metrics (`restore.*`), the temporal
//! schedule suite (`schedule.*` start-up delays, idle-round accounting,
//! concurrency peaks and the background-vs-payload split) and the
//! fault-injection suite (`faults.*` retry counts, wasted-bytes ratios,
//! completion-time inflation against the fault-free control and resume
//! efficiency) and the fleet-scale suite (`fleetscale.*` commits per virtual
//! second, concurrency peak and population-scale dedup from 10k lightweight
//! clients) and the partition runner (`partition.*` per-partition commit
//! skew, finish skew and merge overhead) and the trace-overhead suite
//! (`trace.*` wire volume, packet rate and the wire/logical overhead ratio
//! of the sharded fleet-scale capture — the wall-clock bound itself lives
//! in the `trace_overhead` Criterion bench, since gate values must be
//! deterministic), plus `hist.*` log-bucketed latency quantiles (sync
//! commits, restore pulls, retry backoff waits and fleet-scale
//! transfers). `repro bench-json` dumps them; the `bench_gate` binary
//! compares a fresh dump against the committed `bench_baseline.json`.

use cloudbench::faults::run_faults;
use cloudbench::fleet::{fleet_spec, FleetScalingRow};
use cloudbench::hetero::run_hetero;
use cloudbench::restore::run_restore;
use cloudbench::scale::FleetScaleSuite;
use cloudbench::schedule::run_schedule;
use cloudbench::testbed::Testbed;
use cloudbench::ServiceProfile;
use cloudsim_services::fleet::run_fleet;
use cloudsim_services::GcPolicy;
use cloudsim_storage::ObjectStore;
use cloudsim_trace::HistogramSummary;
use cloudsim_workload::{BatchSpec, FileKind};

use crate::REPRO_SEED;

/// Gate repetitions: enough to exercise the repetition loop, small enough to
/// keep the CI gate fast.
pub const GATE_REPETITIONS: usize = 2;

/// The fleet size the gate pins (the acceptance point of the scaling suite).
pub const GATE_FLEET_CLIENTS: usize = 8;

/// The fleet size of the heterogeneous scenario. Slot `i` gets profile
/// `i % 3` and link `i % 4`, so 9 slots cover 9 of the 12 profile×link
/// pairs — every profile appears on three distinct links and every link
/// carries at least two profiles (the full matrix would need lcm(3,4)=12
/// slots; 9 keeps the CI gate fast).
pub const HETERO_CLIENTS: usize = 9;

/// The fleet size of the restore scenario: eight slots cycle through all
/// four link presets, so the four pullers (the last half) land one behind
/// each preset — every link class gets a `restore.*` goodput and TTFB
/// metric.
pub const RESTORE_CLIENTS: usize = 8;

/// The fleet size of the temporal schedule scenario: ten slots cycling
/// through three profiles and four links give ~60 connected rounds, enough
/// activation draws that a 0.7 probability reliably yields both synced and
/// idle rounds for the pinned seed.
pub const SCHEDULE_CLIENTS: usize = 10;

/// The population size of the fleet-scale gate point: four orders of
/// magnitude above the full-fidelity fleet (enough that the shared pool and
/// the concurrency peak are population-scale effects), small enough that
/// the gate collects in seconds. `repro fleet-scale` defaults to 100k.
pub const GATE_SCALE_CLIENTS: usize = 10_000;

/// Partitions of the partition-runner gate point. Eight-way matches the CI
/// partition-determinism leg's widest split; the merged suite is
/// bit-identical to the unsliced `fleetscale.*` run, so only the split's
/// own accounting (skew, merge overhead) is gated under `partition.*`.
pub const GATE_PARTITIONS: usize = 8;

/// Appends one gate-metric quadruple (`.count`, `.p50_s`, `.p90_s`,
/// `.p99_s`) for a log-bucketed latency distribution. Quantiles are bucket
/// lower bounds, so they are exactly reproducible and safe to gate at zero
/// tolerance.
fn hist_metrics(metrics: &mut Vec<(String, f64)>, prefix: &str, hist: &HistogramSummary) {
    metrics.push((format!("{prefix}.count"), hist.count as f64));
    metrics.push((format!("{prefix}.p50_s"), hist.p50_s));
    metrics.push((format!("{prefix}.p90_s"), hist.p90_s));
    metrics.push((format!("{prefix}.p99_s"), hist.p99_s));
}

/// The fleet-scale suite's gate metrics, as a pure function of an assembled
/// suite. Shared by [`collect`] and `repro replay --metrics`, so a replayed
/// capture can be gated against the very same `fleetscale.*` and
/// `hist.scale_transfer.*` baseline entries the live run produced.
pub fn scale_suite_metrics(suite: &FleetScaleSuite) -> Vec<(String, f64)> {
    let mut metrics = vec![
        ("fleetscale.commits".to_string(), suite.commits as f64),
        ("fleetscale.commits_per_vsec".to_string(), suite.commits_per_vsec),
        ("fleetscale.concurrency_peak".to_string(), suite.concurrency_peak as f64),
        ("fleetscale.dedup_ratio".to_string(), suite.dedup_ratio),
        ("fleetscale.logical_mb".to_string(), suite.logical_mb),
        ("fleetscale.physical_mb".to_string(), suite.physical_mb),
        ("fleetscale.virtual_span_s".to_string(), suite.virtual_span_s),
    ];
    hist_metrics(&mut metrics, "hist.scale_transfer", &suite.transfer_hist);
    metrics
}

/// Collects the gate metrics. Deterministic for a given `REPRO_SEED`:
/// rerunning produces bit-identical values, so the gate's ±tolerance only
/// absorbs intentional simulator changes, not noise.
pub fn collect() -> Vec<(String, f64)> {
    let mut metrics = Vec::new();
    let testbed = Testbed::new(REPRO_SEED);

    // Fig. 6 key cells: the many-small-files and single-large-file regimes
    // that separate the services most sharply.
    let small_files = BatchSpec::new(100, 10_000, FileKind::RandomBinary);
    let one_megabyte = BatchSpec::new(1, 1_000_000, FileKind::RandomBinary);
    let cells: [(&str, ServiceProfile, &BatchSpec); 5] = [
        ("dropbox", ServiceProfile::dropbox(), &small_files),
        ("google_drive", ServiceProfile::google_drive(), &small_files),
        ("cloud_drive", ServiceProfile::cloud_drive(), &small_files),
        ("dropbox", ServiceProfile::dropbox(), &one_megabyte),
        ("skydrive", ServiceProfile::skydrive(), &one_megabyte),
    ];
    for (name, profile, spec) in &cells {
        let row =
            cloudbench::benchmarks::run_performance_cell(&testbed, profile, spec, GATE_REPETITIONS);
        let label = spec.label();
        metrics.push((format!("fig6.completion_s.{name}.{label}"), row.completion_secs.mean));
        metrics.push((format!("fig6.overhead.{name}.{label}"), row.overhead.mean));
    }

    // Fleet suite at the acceptance size: the multi-tenant metrics.
    let spec = fleet_spec(&ServiceProfile::dropbox(), GATE_FLEET_CLIENTS, REPRO_SEED);
    let run = run_fleet(&spec, ObjectStore::new(), GATE_FLEET_CLIENTS);
    let row = FleetScalingRow::from_run(&run);
    metrics.push(("fleet8.goodput_mbps".to_string(), row.aggregate_goodput_bps / 1e6));
    metrics.push(("fleet8.completion_mean_s".to_string(), row.completion_secs.mean));
    metrics.push(("fleet8.dedup_ratio".to_string(), row.dedup_ratio));
    metrics.push(("fleet8.physical_mb".to_string(), row.physical_bytes as f64 / 1e6));
    metrics.push(("fleet8.uploaded_mb".to_string(), row.uploaded_payload as f64 / 1e6));
    hist_metrics(&mut metrics, "hist.sync", &run.sync_duration_histogram().summary());

    // The heterogeneous scenario matrix: per-profile completion
    // distributions, per-link goodput, dedup over churn, and GC reclamation
    // under both policies.
    let suite = run_hetero(HETERO_CLIENTS, REPRO_SEED);
    for (service, stats) in &suite.completion_by_service {
        let key = service.to_lowercase().replace(' ', "_");
        metrics.push((format!("hetero.completion_mean_s.{key}"), stats.mean));
    }
    for (link, bps) in &suite.goodput_by_link {
        metrics.push((format!("hetero.goodput_mbps.{link}"), bps / 1e6));
    }
    for row in &suite.gc_rows {
        metrics.push((format!("gc.reclaimed_mb.{}", row.policy), row.reclaimed_bytes as f64 / 1e6));
        metrics.push((format!("gc.physical_mb.{}", row.policy), row.physical_bytes as f64 / 1e6));
        metrics.push((format!("gc.freed_chunks.{}", row.policy), row.freed_chunks as f64));
    }
    let eager = suite.gc_row(GcPolicy::Eager).expect("eager row");
    metrics.push(("hetero.dedup_ratio".to_string(), eager.dedup_ratio));

    // The restore suite: down-path goodput and time-to-first-byte per link
    // class, the cross-user dedup savings of the pull direction, and the
    // clean failures of the restore-after-departure path.
    let suite = run_restore(RESTORE_CLIENTS, REPRO_SEED);
    for row in &suite.per_link {
        metrics.push((format!("restore.goodput_mbps.{}", row.link), row.restore_goodput_bps / 1e6));
        metrics.push((format!("restore.ttfb_s.{}", row.link), row.ttfb_secs));
    }
    metrics.push(("restore.downloaded_mb".to_string(), suite.downloaded_payload as f64 / 1e6));
    metrics.push(("restore.dedup_saved_mb".to_string(), suite.dedup_saved_bytes as f64 / 1e6));
    metrics.push(("restore.failures".to_string(), suite.failures as f64));
    hist_metrics(&mut metrics, "hist.restore", &suite.restore_hist);

    // The temporal schedule suite: start-up delays, idle-round accounting,
    // the arrival spread, concurrency peaks (jittered vs lock-step) and the
    // §3.1-style background-vs-payload byte split.
    let suite = run_schedule(SCHEDULE_CLIENTS, REPRO_SEED);
    metrics.push(("schedule.sync_rounds".to_string(), suite.sync_rounds as f64));
    metrics.push(("schedule.idle_rounds".to_string(), suite.idle_rounds as f64));
    metrics.push(("schedule.startup_delay_mean_s".to_string(), suite.startup_delay.mean));
    metrics.push(("schedule.completion_mean_s".to_string(), suite.completion.mean));
    metrics.push(("schedule.first_sync_spread_s".to_string(), suite.first_sync_spread_s));
    metrics.push(("schedule.concurrency_peak".to_string(), suite.concurrency_peak as f64));
    metrics.push((
        "schedule.lockstep_concurrency_peak".to_string(),
        suite.lockstep_concurrency_peak as f64,
    ));
    metrics.push(("schedule.background_kb".to_string(), suite.background_wire_bytes as f64 / 1e3));
    metrics.push(("schedule.payload_mb".to_string(), suite.payload_wire_bytes as f64 / 1e6));

    // The fault-injection suite: per link preset the retry spend and the
    // completion-time inflation of the exponential policy against the
    // fault-free control (both directions), plus the aggregate recovery
    // accounting — resume efficiency, the no-retry policy's wasted-bytes
    // ratio, backoff time and the SHA-256 verdicts of the resumed restores.
    let suite = run_faults(REPRO_SEED);
    for row in &suite.per_link {
        let exp = row.cell("exponential").expect("exponential cell");
        metrics
            .push((format!("faults.interruptions.{}", row.link), exp.stats.interruptions as f64));
        metrics.push((format!("faults.retries.{}", row.link), exp.stats.retries as f64));
        metrics.push((format!("faults.sync_inflation.{}", row.link), exp.sync_inflation));
        metrics.push((format!("faults.restore_inflation.{}", row.link), exp.restore_inflation));
    }
    let exp = suite.stats_for("exponential");
    metrics
        .push(("faults.completed_fraction".to_string(), suite.completed_fraction("exponential")));
    metrics.push(("faults.resume_efficiency".to_string(), exp.resume_efficiency()));
    metrics.push(("faults.backoff_wait_s".to_string(), exp.backoff_wait.as_secs_f64()));
    metrics.push(("faults.checksums_verified".to_string(), exp.checksums_verified as f64));
    metrics.push(("faults.wasted_ratio_none".to_string(), suite.wasted_ratio("none")));
    hist_metrics(&mut metrics, "hist.backoff", &suite.backoff_hist);

    // The fleet-scale suite: the provider's view of a 10k-client
    // population. Deterministic for any worker count (per-client timelines
    // are independent; store aggregates are order-independent), so the
    // values are safe to gate byte-for-byte. Wall-clock time is
    // deliberately absent — it is the one non-deterministic field.
    let suite = cloudbench::scale::run_fleet_scale(GATE_SCALE_CLIENTS, REPRO_SEED);
    metrics.extend(scale_suite_metrics(&suite));

    // The partition runner: the same 10k population split eight ways
    // across workers over one shared store. The merged run reproduces the
    // `fleetscale.*` values bit for bit (asserted in the core crate), so
    // the gate pins the split's own accounting. The partition count is an
    // input and the sum-of-parts invariants are exact equalities asserted
    // in the services crate's partition tests, so neither is gated.
    let suite =
        cloudbench::partition::run_partition_suite(GATE_SCALE_CLIENTS, GATE_PARTITIONS, REPRO_SEED);
    metrics.push(("partition.commits".to_string(), suite.merged.commits as f64));
    metrics.push(("partition.commit_skew".to_string(), suite.commit_skew));
    metrics.push(("partition.finish_skew_s".to_string(), suite.finish_skew_s));
    metrics.push(("partition.merge_overhead".to_string(), suite.merge_overhead));

    // The trace-overhead suite: the same 10k population with the sharded
    // packet capture switched on. Every gated value is derived from the
    // merged capture (a pure function of the spec — the merge order is
    // worker-count independent); the wall-clock overhead bound lives in
    // the `trace_overhead` Criterion bench, which is where
    // non-deterministic numbers belong. Packet, flow and SYN counts restate
    // the commit count (`commits x (1 + files)`, `commits`, `commits`) and
    // are asserted exactly by the core crate's trace-overhead tests.
    let suite = cloudbench::trace_overhead::run_trace_overhead(GATE_SCALE_CLIENTS, REPRO_SEED);
    metrics.push(("trace.wire_mb".to_string(), suite.wire_mb));
    metrics.push(("trace.overhead_ratio".to_string(), suite.overhead_ratio));
    metrics.push(("trace.packets_per_vsec".to_string(), suite.packets_per_vsec));

    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared collection run: `collect` simulates every suite, so the
    /// assertions below share a single pass (plus one more for the
    /// determinism check) instead of re-simulating per test.
    fn collected() -> &'static Vec<(String, f64)> {
        static METRICS: OnceLock<Vec<(String, f64)>> = OnceLock::new();
        METRICS.get_or_init(collect)
    }

    #[test]
    fn metrics_are_deterministic_and_named_uniquely() {
        let a = collected();
        let b = collect();
        assert_eq!(*a, b, "gate metrics must be bit-identical across runs");
        let names: std::collections::HashSet<&String> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(names.len(), a.len(), "metric names must be unique");
        assert!(a.len() >= 10);
        for (key, value) in a.iter() {
            assert!(value.is_finite(), "{key} must be finite");
            assert!(*value > 0.0, "{key} must be positive, got {value}");
        }
    }

    #[test]
    fn schedule_suite_is_represented_in_the_gate() {
        let metrics = collected();
        let schedule: Vec<&String> =
            metrics.iter().map(|(k, _)| k).filter(|k| k.starts_with("schedule.")).collect();
        assert!(schedule.len() >= 9, "schedule.* must be gated, got {schedule:?}");
        for key in [
            "schedule.sync_rounds",
            "schedule.idle_rounds",
            "schedule.startup_delay_mean_s",
            "schedule.first_sync_spread_s",
            "schedule.concurrency_peak",
            "schedule.background_kb",
        ] {
            assert!(metrics.iter().any(|(k, _)| k == key), "{key} missing from the gate");
        }
    }

    #[test]
    fn faults_suite_is_represented_in_the_gate() {
        let metrics = collected();
        let faults: Vec<&String> =
            metrics.iter().map(|(k, _)| k).filter(|k| k.starts_with("faults.")).collect();
        assert!(faults.len() >= 16, "faults.* must be gated, got {faults:?}");
        for key in [
            "faults.retries.adsl",
            "faults.sync_inflation.campus",
            "faults.restore_inflation.3g",
            "faults.completed_fraction",
            "faults.resume_efficiency",
            "faults.wasted_ratio_none",
            "faults.checksums_verified",
        ] {
            assert!(metrics.iter().any(|(k, _)| k == key), "{key} missing from the gate");
        }
    }

    #[test]
    fn fleet_scale_suite_is_represented_in_the_gate() {
        let metrics = collected();
        let scale: Vec<&String> =
            metrics.iter().map(|(k, _)| k).filter(|k| k.starts_with("fleetscale.")).collect();
        assert!(scale.len() >= 7, "fleetscale.* must be gated, got {scale:?}");
        for key in [
            "fleetscale.commits",
            "fleetscale.commits_per_vsec",
            "fleetscale.concurrency_peak",
            "fleetscale.dedup_ratio",
            "fleetscale.virtual_span_s",
        ] {
            assert!(metrics.iter().any(|(k, _)| k == key), "{key} missing from the gate");
        }
    }

    #[test]
    fn partition_suite_is_represented_in_the_gate() {
        let metrics = collected();
        let partition: Vec<&String> =
            metrics.iter().map(|(k, _)| k).filter(|k| k.starts_with("partition.")).collect();
        assert!(partition.len() >= 4, "partition.* must be gated, got {partition:?}");
        for key in [
            "partition.commits",
            "partition.commit_skew",
            "partition.finish_skew_s",
            "partition.merge_overhead",
        ] {
            assert!(metrics.iter().any(|(k, _)| k == key), "{key} missing from the gate");
        }
        // The merged commits gate the same value as the unsliced run.
        let fleet = metrics.iter().find(|(k, _)| k == "fleetscale.commits").unwrap().1;
        let part = metrics.iter().find(|(k, _)| k == "partition.commits").unwrap().1;
        assert_eq!(part.to_bits(), fleet.to_bits());
    }

    #[test]
    fn trace_suite_is_represented_in_the_gate() {
        let metrics = collected();
        let trace: Vec<&String> =
            metrics.iter().map(|(k, _)| k).filter(|k| k.starts_with("trace.")).collect();
        assert!(trace.len() >= 3, "trace.* must be gated, got {trace:?}");
        for key in ["trace.wire_mb", "trace.overhead_ratio", "trace.packets_per_vsec"] {
            assert!(metrics.iter().any(|(k, _)| k == key), "{key} missing from the gate");
        }
        // The capture's overhead is a thin TCP-header margin over the
        // logical volume — above 1, nowhere near the gate tolerance band.
        let ratio = metrics.iter().find(|(k, _)| k == "trace.overhead_ratio").unwrap().1;
        assert!(ratio > 1.0 && ratio < 1.01, "trace.overhead_ratio {ratio} out of band");
    }

    /// The single-sourcing contract: the collector and the suites table
    /// (the list `repro suites` prints and CI scripts over) may not drift
    /// apart in either direction.
    #[test]
    fn every_metric_prefix_is_a_registered_suite() {
        let metrics = collected();
        for (key, _) in metrics.iter() {
            let prefix = key.split('.').next().unwrap_or(key);
            assert!(
                crate::suites::by_prefix(prefix).is_some(),
                "{key}: prefix {prefix} is not in the suites table"
            );
        }
        for suite in crate::suites::SUITES {
            let dotted = format!("{}.", suite.prefix);
            assert!(
                metrics.iter().any(|(k, _)| k.starts_with(&dotted)),
                "suite {} has no gate metrics",
                suite.prefix
            );
        }
    }

    #[test]
    fn latency_histograms_are_represented_in_the_gate() {
        let metrics = collected();
        for prefix in ["hist.sync", "hist.restore", "hist.backoff", "hist.scale_transfer"] {
            for suffix in [".count", ".p50_s", ".p90_s", ".p99_s"] {
                let key = format!("{prefix}{suffix}");
                assert!(metrics.iter().any(|(k, _)| k == &key), "{key} missing from the gate");
            }
        }
    }

    /// The acceptance proof of the scheduler refactor: a legacy-configured
    /// fleet (zero think time, zero jitter, activation 1.0 — what every
    /// pre-existing suite runs) must reproduce the *committed* baseline
    /// values byte-identically, not merely within the gate's ±15%. The
    /// baseline file is the one the CI gate compares against, so any
    /// timeline drift the tolerance would absorb still fails here.
    #[test]
    fn legacy_config_reproduces_the_committed_baseline_byte_identically() {
        let baseline = crate::gate::parse_flat(include_str!("../../../bench_baseline.json"))
            .expect("committed baseline parses");
        let current = collected();
        let legacy_prefixes = ["fig6.", "fleet8.", "hetero.", "gc.", "restore.", "schedule."];
        let mut compared = 0usize;
        for (key, base) in &baseline {
            if !legacy_prefixes.iter().any(|p| key.starts_with(p)) {
                continue;
            }
            let (_, cur) = current
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{key} dropped from the collector"));
            assert_eq!(
                cur.to_bits(),
                base.to_bits(),
                "{key}: collected {cur} != committed baseline {base} — the legacy \
                 (lock-step) timeline drifted"
            );
            compared += 1;
        }
        assert!(compared >= 49, "only {compared} legacy metrics compared — baseline truncated?");
    }
}
