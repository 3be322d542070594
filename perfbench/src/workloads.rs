//! The three workloads: their inputs ([`setup`]), their measured phase
//! ([`run`]) and the output checks that phase ends with.
//!
//! A workload's measured phase starts at its first call into the simulator
//! and ends once the result has been checked and dropped, so analysis,
//! serialisation and teardown are inside it. The phase takes a [`Tracer`]:
//! the end-to-end run passes a disabled one, the traced run a recording one,
//! and both execute exactly the same simulator calls.

use crate::checks::{digest, Checks, Digest};
use crate::sys::rss_bytes;
use crate::tracer::Tracer;
use cloudbench::benchmarks::run_suite_with_workloads;
use cloudbench::capability::{
    compression_series, delta_encoding_series, CapabilityMatrix, ChunkingVerdict, CompressionPoint,
};
use cloudbench::hetero::hetero_spec;
use cloudbench::scale::{FleetScaleSuite, LOAD_CURVE_BUCKETS};
use cloudbench::{BatchSpec, FileKind, Report, ServiceProfile, Testbed};
use cloudsim_services::fleet::{run_fleet, FleetSpec};
use cloudsim_services::scale::{run_scale, ScaleSpec};
use cloudsim_services::schedule::ThinkTime;
use cloudsim_storage::{
    sha256, AggregateStats, GcPolicy, ObjectStore, PipelineSpec, RestorePipeline, RestoreRequest,
};
use cloudsim_trace::SimDuration;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100k lightweight clients on the event engine against the sharded store.
    Population,
    /// A churning, restoring fleet of real sync clients.
    SyncFleet,
    /// Table 1 and Figs. 4–6 of the paper.
    Paper,
}

/// Input size of a workload: the benchmarked size, or a reduced one for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the benchmark measures.
    Full,
    /// A reduced size that runs in seconds in a test build.
    Smoke,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [Workload::Population, Workload::SyncFleet, Workload::Paper];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Population => "population",
            Workload::SyncFleet => "sync_fleet",
            Workload::Paper => "paper",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The paper figures one `paper` phase reproduces.
#[derive(Debug, Clone)]
pub struct PaperPlan {
    /// Fig. 4 file sizes for the append case.
    pub append_sizes: Vec<u64>,
    /// Fig. 4 file sizes for the random-offset case.
    pub random_sizes: Vec<u64>,
    /// Fig. 5 file sizes, for each of the three file kinds.
    pub fig5_sizes: Vec<u64>,
    /// Fig. 6 workloads.
    pub fig6_workloads: Vec<BatchSpec>,
    /// Fig. 6 repetitions per (service, workload) cell.
    pub fig6_repetitions: usize,
}

/// Everything a measured phase consumes, built before it starts.
#[derive(Debug)]
pub enum Input {
    /// `population` inputs.
    Population {
        /// The population.
        spec: ScaleSpec,
        /// The empty store it commits into.
        store: ObjectStore,
        /// Worker threads.
        workers: usize,
    },
    /// `sync_fleet` inputs.
    SyncFleet {
        /// The fleet.
        spec: FleetSpec,
        /// The empty store it commits into.
        store: ObjectStore,
        /// Worker threads.
        workers: usize,
        /// Sync activations the fleet's schedule holds.
        expected_rounds: usize,
    },
    /// `paper` inputs.
    Paper {
        /// The testbed every experiment runs on.
        testbed: Testbed,
        /// The figures to reproduce.
        plan: PaperPlan,
    },
}

/// What a measured phase hands back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated upload commits the phase performed.
    pub commits: u64,
    /// Digest of the phase's simulated result; equal across repetitions
    /// and between the traced and untraced runs.
    pub digest: u64,
}

/// The fleet-scale population of `population`.
pub fn population_spec(seed: u64, scale: Scale) -> ScaleSpec {
    let clients = match scale {
        Scale::Full => 100_000,
        Scale::Smoke => 2_000,
    };
    ScaleSpec::new(clients).with_seed(seed)
}

/// The full-fidelity fleet of `sync_fleet`: the heterogeneous profile and
/// link mix with churn (two joiners, two leavers), half the slots pulling
/// two other namespaces back after every sync, exponential think time with
/// arrival jitter, and a mark-sweep store.
pub fn fleet_spec(seed: u64, scale: Scale) -> FleetSpec {
    let (clients, spec) = match scale {
        Scale::Full => (32, hetero_spec(32, seed, GcPolicy::MarkSweep)),
        Scale::Smoke => (8, hetero_spec(8, seed, GcPolicy::MarkSweep).with_files(2, 32 * 1024)),
    };
    spec.with_restore_fan(clients / 2, 2)
        .with_think_time(ThinkTime::Exponential { mean: SimDuration::from_secs(8) })
        .with_arrival_jitter(SimDuration::from_secs(20))
}

/// The figures of `paper`: the sizes the `repro` binary plots.
pub fn paper_plan(scale: Scale) -> PaperPlan {
    match scale {
        Scale::Full => PaperPlan {
            append_sizes: vec![100_000, 500_000, 1_000_000, 1_500_000, 2_000_000],
            random_sizes: vec![1_000_000, 2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000],
            fig5_sizes: vec![100_000, 500_000, 1_000_000, 1_500_000, 2_000_000],
            fig6_workloads: BatchSpec::figure6_workloads(),
            fig6_repetitions: 3,
        },
        Scale::Smoke => PaperPlan {
            append_sizes: vec![500_000],
            random_sizes: vec![1_000_000],
            fig5_sizes: vec![1_000_000],
            fig6_workloads: BatchSpec::figure6_workloads()[..1].to_vec(),
            fig6_repetitions: 1,
        },
    }
}

/// Builds a workload's inputs from its seed — the set-up that `setup_s`
/// times. `workers` is the host's core count, queried once per process.
pub fn setup(workload: Workload, seed: u64, scale: Scale, workers: usize) -> Input {
    match workload {
        Workload::Population => Input::Population {
            spec: population_spec(seed, scale),
            store: ObjectStore::with_policy(GcPolicy::MarkSweep),
            workers,
        },
        Workload::SyncFleet => {
            let spec = fleet_spec(seed, scale);
            let expected_rounds = spec.schedule().clients.iter().map(|c| c.sync_rounds()).sum();
            let workers = workers.clamp(1, spec.clients());
            Input::SyncFleet {
                store: ObjectStore::with_policy(spec.gc),
                spec,
                workers,
                expected_rounds,
            }
        }
        Workload::Paper => Input::Paper { testbed: Testbed::new(seed), plan: paper_plan(scale) },
    }
}

/// A one-line description of the input sizes, for the run context.
pub fn describe(input: &Input) -> String {
    match input {
        Input::Population { spec, workers, .. } => format!(
            "clients={} commits_per_client={} files_per_commit={} file_size={} shared_fraction={} workers={}",
            spec.clients, spec.commits_per_client, spec.files_per_commit, spec.file_size, spec.shared_fraction, workers
        ),
        Input::SyncFleet { spec, workers, expected_rounds, .. } => format!(
            "clients={} rounds={} files_per_batch={} file_size={} pullers={} churn={:?} sync_activations={} workers={}",
            spec.clients(),
            spec.rounds,
            spec.files_per_batch,
            spec.file_size,
            spec.restore_fan.map_or(0, |(p, _)| p),
            spec.churn,
            expected_rounds,
            workers
        ),
        Input::Paper { plan, .. } => format!(
            "fig4_append={:?} fig4_random={:?} fig5_sizes={:?} fig6_workloads={} fig6_repetitions={}",
            plan.append_sizes,
            plan.random_sizes,
            plan.fig5_sizes,
            plan.fig6_workloads.len(),
            plan.fig6_repetitions
        ),
    }
}

/// Runs one measured phase of `input`'s workload, recording spans and
/// counters on `tracer` and the output checks on `checks`.
pub fn run(input: Input, tracer: &mut Tracer, checks: &mut Checks) -> Outcome {
    match input {
        Input::Population { spec, store, workers } => {
            run_population(&spec, store, workers, tracer, checks)
        }
        Input::SyncFleet { spec, store, workers, expected_rounds } => {
            run_sync_fleet(&spec, store, workers, expected_rounds, tracer, checks)
        }
        Input::Paper { testbed, plan } => run_paper(&testbed, &plan, tracer, checks),
    }
}

/// Records the store's counters at the current span.
fn count_store(tracer: &mut Tracer, aggregate: &AggregateStats) {
    tracer.count("store.chunk_puts", aggregate.chunk_puts as f64);
    tracer.count("store.server_dedup_hits", aggregate.server_dedup_hits as f64);
    tracer.count("store.unique_chunks", aggregate.unique_chunks as f64);
    tracer.count("store.freed_chunks", aggregate.freed_chunks as f64);
    tracer.count("store.reclaimed_bytes", aggregate.reclaimed_bytes as f64);
}

fn run_population(
    spec: &ScaleSpec,
    store: ObjectStore,
    workers: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Outcome {
    let root = tracer.enter("population");
    let run = tracer.stage("scale.run", || run_scale(spec, store, workers));
    tracer.count("scale.commits", run.commits as f64);
    tracer.count_with("proc.rss_after_run", || rss_bytes() as f64);

    // The cloudbench::scale suite assembly, call for call.
    let assembly = tracer.enter("scale.suite");
    let aggregate = tracer.stage("store.aggregate", || run.aggregate());
    let dedup_ratio = tracer.stage("store.aggregate", || run.dedup_ratio());
    let concurrency_peak = tracer.stage("trace.concurrency_peak", || run.concurrency_peak());
    let load_curve = tracer.stage("trace.load_curve", || run.load_curve(LOAD_CURVE_BUCKETS));
    let transfer_hist = tracer.stage("trace.histogram", || run.transfer_histogram().summary());
    let suite = FleetScaleSuite {
        clients: run.clients,
        commits_per_client: spec.commits_per_client,
        workload: format!("{}x{}kB", spec.files_per_commit, spec.file_size / 1024),
        horizon_s: spec.horizon.as_secs_f64(),
        commits: run.commits,
        files: run.files,
        logical_mb: run.logical_bytes as f64 / 1e6,
        physical_mb: aggregate.physical_bytes as f64 / 1e6,
        dedup_ratio,
        virtual_span_s: run.virtual_span_secs(),
        commits_per_vsec: run.commits_per_vsec(),
        concurrency_peak,
        load_curve,
        transfer_hist,
        wall_secs: run.elapsed.as_secs_f64(),
    };
    tracer.exit(assembly);
    count_store(tracer, &aggregate);

    let json = tracer.stage("report.to_json", || Report::to_json(&suite));
    let result = digest(json.as_bytes());

    let span = tracer.enter("checks");
    let expected = (spec.clients * spec.commits_per_client) as u64;
    checks.check("population: commits = clients x commits per client", run.commits == expected);
    checks.check("population: histogram count = commits", suite.transfer_hist.count == run.commits);
    checks.check(
        "population: load curve sums to commits",
        suite.load_curve.iter().sum::<u64>() == run.commits,
    );
    checks.check("population: chunk puts = files", aggregate.chunk_puts == run.files);
    checks.check(
        "population: files = commits x files per commit",
        run.files == expected * spec.files_per_commit as u64,
    );
    tracer.exit(span);

    let commits = run.commits;
    tracer.stage("store.drop", || drop(run));
    tracer.exit(root);
    Outcome { commits, digest: result }
}

fn run_sync_fleet(
    spec: &FleetSpec,
    store: ObjectStore,
    workers: usize,
    expected_rounds: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Outcome {
    let root = tracer.enter("sync_fleet");
    let run = tracer.stage("fleet.run", || run_fleet(spec, store, workers));
    tracer.count_with("proc.rss_after_run", || rss_bytes() as f64);

    // The provider-side analysis the hetero, restore and schedule suites
    // derive from a fleet run.
    let analysis = tracer.enter("fleet.analysis");
    let aggregate = tracer.stage("store.aggregate", || run.aggregate());
    let summary = format!(
        "{:?}",
        (
            run.completion_stats(),
            run.per_service_completion(),
            run.per_link_goodput_bps(),
            run.dedup_ratio(),
            run.per_link_restore_goodput_bps(),
            run.per_link_restore_ttfb_secs(),
            run.restore_dedup_saved_bytes(),
            run.startup_delay_stats(),
            run.background_fraction(),
        )
    );
    let peak = tracer.stage("trace.concurrency_peak", || run.sync_concurrency_peak());
    let histograms = tracer.stage("trace.histogram", || {
        (run.sync_duration_histogram().summary(), run.restore_duration_histogram().summary())
    });
    tracer.exit(analysis);
    count_store(tracer, &aggregate);
    tracer.count("fleet.synced_rounds", run.total_synced_rounds() as f64);
    tracer.count("fleet.restore_failures", run.total_restore_failures() as f64);
    tracer.count("fleet.uploaded_bytes", run.total_uploaded_payload() as f64);
    tracer.count("fleet.downloaded_bytes", run.total_downloaded_payload() as f64);

    let result = tracer.stage("fleet.digest", || {
        let mut d = Digest::default();
        d.update(format!("{:?}", run.clients).as_bytes());
        d.update(format!("{aggregate:?}{summary}{peak}{histograms:?}").as_bytes());
        d.value()
    });

    let span = tracer.enter("checks");
    checks.check(
        "sync_fleet: synced rounds = schedule activations",
        run.total_synced_rounds() == expected_rounds,
    );
    checks.check("sync_fleet: chunks reached the store", aggregate.chunk_puts > 0);
    for client in &run.clients {
        for restore in &client.restores {
            checks.check(
                &format!("sync_fleet: restore by {} answered", client.user),
                restore.files_restored + restore.files_failed >= 1,
            );
            if restore.files_failed == 0 {
                checks.check(
                    &format!("sync_fleet: restore by {} restored whole files", client.user),
                    restore.logical_bytes == (restore.files_restored * spec.file_size) as u64,
                );
            }
        }
    }
    tracer.stage("store.restore_verify", || verify_restores(spec, &run.store, checks));
    tracer.exit(span);

    let commits = run.total_synced_rounds() as u64;
    tracer.stage("store.drop", || drop(run));
    tracer.exit(root);
    Outcome { commits, digest: result }
}

/// Restores the newest private file of every namespace the fleet's pullers
/// read from, through the public restore pipeline, and checks its SHA-256
/// against the content the workload generated for that path. Namespaces
/// whose owner left (and took the files along) have nothing to verify.
fn verify_restores(spec: &FleetSpec, store: &ObjectStore, checks: &mut Checks) {
    let mut sources: Vec<usize> =
        spec.slots.iter().flat_map(|s| s.pull_from.iter().copied()).collect();
    sources.sort_unstable();
    sources.dedup();
    for source in sources {
        let user = spec.user(source);
        let Some(path) =
            store.list_files(&user).into_iter().filter(|p| p.starts_with("private/")).max()
        else {
            continue;
        };
        // Paths read `private/bRRR_fFFFF.ext`.
        let indices = path
            .strip_prefix("private/b")
            .and_then(|rest| rest.split_once("_f"))
            .and_then(|(round, rest)| {
                Some((round.parse::<usize>().ok()?, rest.split('.').next()?.parse::<usize>().ok()?))
            });
        let Some((round, file)) = indices else {
            checks.check(&format!("sync_fleet: {user}:{path} names its round and file"), false);
            continue;
        };
        let profile = &spec.slots[source].profile;
        let pipeline_spec = PipelineSpec {
            chunking: profile.chunking,
            compression: profile.compression,
            delta_encoding: profile.delta_encoding,
        };
        let request = RestoreRequest { owner: &user, path: &path, base: None };
        let restored =
            RestorePipeline::sequential().restore_file(store, &pipeline_spec, request, &|_| None);
        let expected = spec.workload_stream(source, round).nth(file).map(|f| sha256(&f.content));
        let ok = matches!((&restored, expected), (Ok(r), Some(e)) if sha256(&r.content) == e);
        checks.check(&format!("sync_fleet: restored {user}:{path} matches its SHA-256"), ok);
    }
}

fn run_paper(
    testbed: &Testbed,
    plan: &PaperPlan,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Outcome {
    let root = tracer.enter("paper");
    let profiles = ServiceProfile::all();
    let matrix = tracer.stage("paper.table1", || CapabilityMatrix::detect_all(testbed));
    let fig4 = tracer.stage("paper.fig4", || {
        [(&plan.append_sizes, false), (&plan.random_sizes, true)]
            .into_iter()
            .map(|(sizes, random)| {
                profiles
                    .iter()
                    .map(|p| {
                        (p.name().to_string(), delta_encoding_series(testbed, p, sizes, random))
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let fig5 = tracer.stage("paper.fig5", || {
        [FileKind::Text, FileKind::RandomBinary, FileKind::FakeJpeg]
            .into_iter()
            .map(|kind| {
                profiles
                    .iter()
                    .map(|p| {
                        (
                            p.name().to_string(),
                            compression_series(testbed, p, kind, &plan.fig5_sizes),
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let fig6 = tracer.stage("paper.fig6", || {
        run_suite_with_workloads(testbed, &plan.fig6_workloads, plan.fig6_repetitions)
    });
    let json = tracer.stage("report.to_json", || {
        [
            Report::to_json(&matrix),
            Report::to_json(&fig4),
            Report::to_json(&fig5),
            Report::to_json(&fig6),
        ]
        .concat()
    });
    let result = digest(json.as_bytes());

    let span = tracer.enter("checks");
    check_table1(&matrix, checks);
    for (case, series) in ["append", "random offset"].iter().zip(&fig4) {
        for ((service, points), profile) in series.iter().zip(&profiles) {
            for point in points {
                checks.check(
                    &format!(
                        "paper: fig4 {case} {service} {} B uploads {} B",
                        point.file_size, point.uploaded
                    ),
                    fig4_upload_ok(profile, point.file_size, point.uploaded),
                );
            }
        }
    }
    check_fig5(&fig5, plan.fig5_sizes.len(), checks);
    let cells = profiles.len() * plan.fig6_workloads.len();
    checks.check("paper: fig6 has one row per service and workload", fig6.rows.len() == cells);
    for row in &fig6.rows {
        checks.check(
            &format!("paper: fig6 {} {} completed every repetition", row.service, row.workload),
            row.completion_secs.count == plan.fig6_repetitions && row.completion_secs.mean > 0.0,
        );
    }
    tracer.exit(span);

    // Each Fig. 4 point is two syncs, each Fig. 5 point one, and each
    // Fig. 6 cell one per repetition.
    let commits = (2 * fig4.iter().flatten().map(|(_, p)| p.len()).sum::<usize>()
        + fig5.iter().flatten().map(|(_, p)| p.len()).sum::<usize>()
        + fig6.rows.iter().map(|r| r.repetitions).sum::<usize>()) as u64;
    tracer.stage("paper.drop", || drop((matrix, fig4, fig5, fig6, json)));
    tracer.exit(root);
    Outcome { commits, digest: result }
}

/// Bytes Fig. 4 inserts into or appends to each file.
const FIG4_CHANGE: u64 = 100_000;

/// Fig. 4's shape, per service capability. A delta-encoding service
/// (Dropbox) uploads about the 100 kB change whatever the file size — under
/// four times the change, so well under every file of 1 MB and more. A
/// service with neither delta encoding nor deduplication re-uploads at least
/// the whole original file. A deduplicating service without delta encoding
/// (Wuala) keeps unchanged content-defined chunks off the wire, so it
/// uploads anything from the changed chunks to the whole file, and never
/// less than the change itself.
fn fig4_upload_ok(profile: &ServiceProfile, file_size: u64, uploaded: u64) -> bool {
    if profile.delta_encoding {
        uploaded < 4 * FIG4_CHANGE
    } else if profile.dedup {
        uploaded >= FIG4_CHANGE
    } else {
        uploaded >= file_size
    }
}

/// The cells of the paper's Table 1, as the capability integration test
/// asserts them.
fn check_table1(matrix: &CapabilityMatrix, checks: &mut Checks) {
    checks.check("paper: table1 has five services", matrix.rows.len() == 5);
    fn dropbox_chunks(v: ChunkingVerdict) -> bool {
        matches!(v, ChunkingVerdict::Fixed { size } if (3_500_000..4_700_000).contains(&size))
    }
    fn gdrive_chunks(v: ChunkingVerdict) -> bool {
        matches!(v, ChunkingVerdict::Fixed { size } if (7_000_000..9_400_000).contains(&size))
    }
    // (service, chunking ok, bundling, compression, dedup, delta)
    type Row = (&'static str, fn(ChunkingVerdict) -> bool, bool, &'static str, bool, bool);
    let expected: [Row; 5] = [
        ("Dropbox", dropbox_chunks, true, "always", true, true),
        ("SkyDrive", |v| v == ChunkingVerdict::Variable, false, "no", false, false),
        ("Wuala", |v| v == ChunkingVerdict::Variable, false, "no", true, false),
        ("Google Drive", gdrive_chunks, false, "smart", false, false),
        ("Cloud Drive", |v| v == ChunkingVerdict::None, false, "no", false, false),
    ];
    for (service, chunking, bundling, compression, dedup, delta) in expected {
        let ok = matrix.row(service).is_some_and(|row| {
            chunking(row.chunking)
                && row.bundling == bundling
                && row.compression == compression
                && row.deduplication == dedup
                && row.delta_encoding == delta
        });
        checks.check(&format!("paper: table1 row {service} matches the paper"), ok);
    }
}

/// Fig. 5's shape, as the capability integration test asserts it: text
/// shrinks only under Dropbox and Google Drive, and only Google Drive
/// leaves fake JPEGs uncompressed. Every series the shape compares must be
/// present with one point per planned size, so a missing series fails
/// rather than skipping its comparisons.
fn check_fig5(fig5: &[Fig5Series], sizes: usize, checks: &mut Checks) {
    let [text, _random, fake_jpeg] = fig5 else {
        checks.check("paper: fig5 covers three file kinds", false);
        return;
    };
    fn series<'a>(
        kind: &str,
        points: &'a Fig5Series,
        service: &str,
        sizes: usize,
        checks: &mut Checks,
    ) -> &'a [CompressionPoint] {
        let found = points.iter().find(|(s, _)| s == service).map(|(_, p)| p.as_slice());
        checks.check(
            &format!("paper: fig5 {kind} has {sizes} points for {service}"),
            found.is_some_and(|p| p.len() == sizes),
        );
        found.unwrap_or_default()
    }
    let skydrive_text = series("text", text, "SkyDrive", sizes, checks);
    let compressing =
        ["Dropbox", "Google Drive"].map(|s| (s, series("text", text, s, sizes, checks)));
    let gdrive_jpeg = series("fake JPEG", fake_jpeg, "Google Drive", sizes, checks);
    for (service, points) in compressing {
        for (p, sky) in points.iter().zip(skydrive_text) {
            checks.check(
                &format!("paper: fig5 {service} compresses {} B of text", p.file_size),
                p.uploaded < sky.uploaded && sky.uploaded >= sky.file_size,
            );
        }
    }
    for p in gdrive_jpeg {
        checks.check(
            &format!("paper: fig5 Google Drive skips a {} B fake JPEG", p.file_size),
            p.uploaded >= p.file_size,
        );
    }
}

/// One file kind's Fig. 5 series: each service's name and points.
type Fig5Series = Vec<(String, Vec<CompressionPoint>)>;

#[cfg(test)]
mod tests {
    use super::*;

    fn point(file_size: u64, uploaded: u64) -> CompressionPoint {
        CompressionPoint { file_size, uploaded }
    }

    fn kind(services: &[(&str, u64)]) -> Fig5Series {
        services.iter().map(|&(s, uploaded)| (s.to_string(), vec![point(1000, uploaded)])).collect()
    }

    #[test]
    fn fig5_check_fails_on_a_missing_series() {
        let text = kind(&[("Dropbox", 400), ("SkyDrive", 1000), ("Google Drive", 500)]);
        let jpeg = kind(&[("Google Drive", 1000)]);
        let mut checks = Checks::new();
        check_fig5(&[text.clone(), vec![], jpeg.clone()], 1, &mut checks);
        assert_eq!(checks.failed(), 0, "{:?}", checks.failures());

        let without_gdrive = kind(&[("Dropbox", 400), ("SkyDrive", 1000)]);
        let mut checks = Checks::new();
        check_fig5(&[without_gdrive, vec![], jpeg], 1, &mut checks);
        assert_eq!(checks.failed(), 1, "{:?}", checks.failures());

        let mut checks = Checks::new();
        check_fig5(&[text, vec![], vec![]], 1, &mut checks);
        assert_eq!(checks.failed(), 1, "{:?}", checks.failures());

        let mut checks = Checks::new();
        check_fig5(&[kind(&[]), vec![], kind(&[])], 2, &mut checks);
        assert_eq!(checks.failed(), 4, "{:?}", checks.failures());
    }
}
