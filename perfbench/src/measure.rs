//! The two kinds of run: end-to-end (tracing off, repeated for the run's
//! seconds) and traced (one workload run under spans, plus layer probes).

use crate::checks::Checks;
use crate::metrics::{from_catalogue, median, percentile, Metric, END_TO_END, PER_LAYER};
use crate::probes;
use crate::sys::{cpu_time, peak_rss_bytes, release_free_heap, MB};
use crate::tracer::Tracer;
use crate::workloads::{self, describe, setup, Outcome, Scale, Workload};
use std::time::Instant;

/// Samples behind `setup_s` taken before each repetition, each the mean of
/// [`SETUP_BATCH`] set-ups. Spreading them over the run lets them see the
/// host in the same states the repetitions see.
pub const SETUP_SAMPLES: usize = 64;
/// Set-ups timed together as one sample; their inputs are dropped outside
/// the timing.
pub const SETUP_BATCH: usize = 64;
/// Repetitions an end-to-end run makes however long they take.
pub const MIN_REPETITIONS: usize = 3;

/// The result of one run.
#[derive(Debug)]
pub struct RunResult {
    /// The reported metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Output checks made.
    pub checks: Checks,
    /// Input sizes, for the run context.
    pub sizes: String,
    /// Repetitions of the measured phase.
    pub repetitions: usize,
}

/// Host seconds per set-up, averaged over a batch of [`SETUP_BATCH`]
/// set-ups timed as one interval.
fn setup_sample(workload: Workload, seed: u64, scale: Scale, workers: usize) -> f64 {
    let mut inputs = Vec::with_capacity(SETUP_BATCH);
    let started = Instant::now();
    for _ in 0..SETUP_BATCH {
        inputs.push(setup(workload, seed, scale, workers));
    }
    let secs = started.elapsed().as_secs_f64();
    drop(std::hint::black_box(inputs));
    secs / SETUP_BATCH as f64
}

/// Compares a repetition's outcome with the first repetition's.
fn check_repeat(
    workload: Workload,
    what: &str,
    reference: &Outcome,
    outcome: &Outcome,
    checks: &mut Checks,
) {
    let name = workload.name();
    checks.same_digest(&format!("{name}: {what} result"), reference.digest, outcome.digest);
    checks.check(&format!("{name}: {what} commits"), reference.commits == outcome.commits);
}

/// Repeats the workload with tracing off for about `seconds` (at least
/// [`MIN_REPETITIONS`] times) and reports the end-to-end metrics:
/// medians of the measured phase's wall time and of the set-up time, the
/// process's peak RSS, and commits per host second.
pub fn end_to_end(workload: Workload, seed: u64, seconds: u64, scale: Scale) -> RunResult {
    let started = Instant::now();
    let mut checks = Checks::new();
    let workers = cloudsim_parallel::available_workers();
    let sizes = describe(&setup(workload, seed, scale, workers));

    let mut tracer = Tracer::off();
    let mut setups: Vec<f64> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut reference: Option<Outcome> = None;
    loop {
        setups.extend((0..SETUP_SAMPLES).map(|_| setup_sample(workload, seed, scale, workers)));
        let input = setup(workload, seed, scale, workers);
        let phase = Instant::now();
        let outcome = workloads::run(input, &mut tracer, &mut checks);
        walls.push(phase.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some(outcome),
            Some(first) => check_repeat(workload, "repeated", first, &outcome, &mut checks),
        }
        // Stop where the run ends nearest to `seconds`: start another
        // repetition only if at least half of it fits.
        let half_next_ends_at = started.elapsed().as_secs_f64() + median(&walls) / 2.0;
        if walls.len() >= MIN_REPETITIONS && half_next_ends_at > seconds as f64 {
            break;
        }
    }

    eprintln!("perfbench: {} phase seconds {walls:.4?}", workload.name());
    let wall_s = median(&walls);
    let commits = reference.map_or(0, |o| o.commits) as f64;
    let values = [
        ("wall_s", wall_s),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_bytes() as f64 / MB),
        ("commits_per_s", commits / wall_s),
    ];
    RunResult {
        metrics: from_catalogue(END_TO_END, &values),
        checks,
        sizes,
        repetitions: walls.len(),
    }
}

/// One untraced repetition, for the trace-overhead baseline.
fn untraced(workload: Workload, seed: u64, scale: Scale, checks: &mut Checks) -> (Outcome, f64) {
    release_free_heap();
    let input = setup(workload, seed, scale, cloudsim_parallel::available_workers());
    let started = Instant::now();
    let outcome = workloads::run(input, &mut Tracer::off(), checks);
    (outcome, started.elapsed().as_secs_f64())
}

/// The traced run: the layer probes, one untraced repetition, one traced
/// repetition, a second untraced repetition, then the workload's own
/// one-worker or per-sync probe. Reports every per-layer metric; a layer
/// the workload does not call reads 0. The traced repetition's result must
/// match the untraced ones.
pub fn traced(workload: Workload, seed: u64, scale: Scale, tracer: &mut Tracer) -> RunResult {
    let mut checks = Checks::new();
    let mut values: Vec<(&str, f64)> = Vec::new();

    // Probes shared by every workload. The store pass runs first, on a heap
    // no repetition has grown yet, so its resident-memory delta is its own.
    let store = probes::store_pass(&workloads::population_spec(seed, scale), tracer);
    values.extend([
        ("store.put_chunk_ns", store.put_chunk_ns),
        ("store.commit_manifest_ns", store.commit_manifest_ns),
        ("store.resident_mb", store.resident_bytes / MB),
        ("store.bytes_per_client", store.bytes_per_client),
        ("store.aggregate_s", store.aggregate_s),
        ("store.drop_s", store.drop_s),
    ]);
    let engine = match workload {
        Workload::Population => {
            Some(probes::engine_population(&workloads::population_spec(seed, scale), tracer))
        }
        Workload::SyncFleet => {
            Some(probes::engine_fleet(&workloads::fleet_spec(seed, scale), tracer))
        }
        Workload::Paper => None,
    };
    if let Some(engine) = engine {
        values.extend([
            ("engine.events_s", engine.events_s),
            ("engine.waves", engine.waves as f64),
            ("proc.rss_after_events_mb", engine.rss_after_events / MB),
        ]);
    }
    values.extend(probes::kernels(seed, tracer));
    values.push(("tcp.transfer_1mb_us", probes::tcp_transfer_us(seed, tracer)));
    let (process, generate) = probes::pipeline(&workloads::fleet_spec(seed, scale), tracer);
    values.extend([("pipeline.process_mb_s", process), ("workload.generate_mb_s", generate)]);

    // The workload itself: untraced, traced, untraced.
    let (first, before_s) = untraced(workload, seed, scale, &mut checks);
    release_free_heap();
    let workers = cloudsim_parallel::available_workers();
    let input = tracer.stage("setup", || setup(workload, seed, scale, workers));
    let sizes = describe(&input);
    let cpu = cpu_time();
    let span = tracer.enter("traced_run");
    let started = Instant::now();
    let outcome = workloads::run(input, tracer, &mut checks);
    let traced_s = started.elapsed().as_secs_f64();
    tracer.exit(span);
    let cpu_s = (cpu_time() - cpu).as_secs_f64();
    let (second, after_s) = untraced(workload, seed, scale, &mut checks);
    check_repeat(workload, "traced", &first, &outcome, &mut checks);
    check_repeat(workload, "second untraced", &first, &second, &mut checks);
    values.extend([
        ("proc.cpu_s", cpu_s),
        ("trace_overhead.ratio", traced_s / ((before_s + after_s) / 2.0)),
        ("report.to_json_s", tracer.secs("report.to_json")),
        ("trace.concurrency_peak_s", tracer.secs("trace.concurrency_peak")),
        ("trace.histogram_s", tracer.secs("trace.histogram")),
        ("trace.load_curve_s", tracer.secs("trace.load_curve")),
    ]);
    if let Some(rss) = tracer.counter("proc.rss_after_run") {
        values.push(("proc.rss_after_run_mb", rss / MB));
    }
    if let Some(puts) = tracer.counter("store.chunk_puts") {
        let counter = |name: &str| tracer.counter(name).unwrap_or(0.0);
        values.extend([
            ("store.chunk_puts", puts),
            (
                "store.dedup_hit_ratio",
                if puts > 0.0 { counter("store.server_dedup_hits") / puts } else { 0.0 },
            ),
            ("store.unique_chunks", counter("store.unique_chunks")),
            ("store.freed_chunks", counter("store.freed_chunks")),
            ("store.reclaimed_mb", counter("store.reclaimed_bytes") / MB),
        ]);
    }

    // The workload's own layers.
    match workload {
        Workload::Population => {
            let run_s = tracer.secs("scale.run");
            let one_worker_s = probes::scale_one_worker(
                &workloads::population_spec(seed, scale),
                tracer,
                &mut checks,
            );
            values.extend([
                ("scale.run_s", run_s),
                ("scale.run_1w_s", one_worker_s),
                ("parallel.scale_speedup", one_worker_s / run_s),
            ]);
        }
        Workload::SyncFleet => {
            let run_s = tracer.secs("fleet.run");
            let one_worker_s =
                probes::fleet_one_worker(&workloads::fleet_spec(seed, scale), tracer, &mut checks);
            let counter = |name: &str| tracer.counter(name).unwrap_or(0.0);
            values.extend([
                ("fleet.run_s", run_s),
                ("fleet.run_1w_s", one_worker_s),
                ("parallel.fleet_speedup", one_worker_s / run_s),
                ("fleet.synced_rounds", counter("fleet.synced_rounds")),
                ("fleet.restore_failures", counter("fleet.restore_failures")),
                ("fleet.uploaded_mb", counter("fleet.uploaded_bytes") / MB),
                ("fleet.downloaded_mb", counter("fleet.downloaded_bytes") / MB),
            ]);
        }
        Workload::Paper => {
            values.extend([
                ("paper.table1_s", tracer.secs("paper.table1")),
                ("paper.fig4_s", tracer.secs("paper.fig4")),
                ("paper.fig5_s", tracer.secs("paper.fig5")),
                ("paper.fig6_s", tracer.secs("paper.fig6")),
            ]);
            let samples = probes::run_sync_grid(
                &cloudbench::Testbed::new(seed),
                &workloads::paper_plan(scale),
                tracer,
            );
            values.extend([
                ("testbed.run_sync_ms.p50", percentile(&samples, 50.0)),
                ("testbed.run_sync_ms.p90", percentile(&samples, 90.0)),
                ("testbed.run_sync_ms.count", samples.len() as f64),
            ]);
        }
    }

    RunResult { metrics: from_catalogue(PER_LAYER, &values), checks, sizes, repetitions: 3 }
}
