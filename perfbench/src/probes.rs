//! Fixed-size probes of single layers, run only in the traced run.
//!
//! Each probe calls one layer's public API on inputs derived from the
//! workload seed (and, where the layer serves one workload, from that
//! workload's own spec), records a `probe.*` span around it, and returns
//! the layer's figure. Rates are medians over several samples.

use crate::checks::Checks;
use crate::metrics::median;
use crate::sys::{release_free_heap, rss_bytes};
use crate::tracer::Tracer;
use crate::workloads::PaperPlan;
use cloudbench::{ServiceProfile, Testbed};
use cloudsim_net::tcp::{ConnectionOptions, TcpConnection};
use cloudsim_net::{Network, PathSpec, SimDuration, SimTime, Simulator};
use cloudsim_services::engine::{wave_count, EventHeap, FleetEvent};
use cloudsim_services::fleet::{run_fleet, FleetSpec};
use cloudsim_services::scale::{run_scale, ScaleSpec};
use cloudsim_storage::{
    compress, sha256, ChunkingStrategy, ContentHash, ConvergentCipher, DeltaScript, FileJob,
    FileManifest, GcPolicy, ObjectStore, PipelineSpec, Signature, StoredChunk, UploadPipeline,
};
use cloudsim_trace::FlowKind;
use cloudsim_workload::seed::derive_seed;
use cloudsim_workload::{generate, FileKind};
use std::hint::black_box;
use std::time::Instant;

/// Samples behind each kernel rate.
const KERNEL_SAMPLES: usize = 9;
/// Bytes each kernel sample processes: the paper's 1 MB benchmark file.
const KERNEL_BYTES: usize = 1_000_000;
/// Samples behind the TCP transfer time.
const TCP_SAMPLES: usize = 101;
/// Passes behind the pipeline and generator rates.
const PIPELINE_PASSES: usize = 3;
/// Fleet clients (one per service of the mix) whose files a pass covers.
const PIPELINE_CLIENTS: usize = 3;

/// What the store-only pass measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreProbe {
    /// Mean host nanoseconds per `put_chunk`.
    pub put_chunk_ns: f64,
    /// Mean host nanoseconds per `commit_manifest`.
    pub commit_manifest_ns: f64,
    /// Resident bytes the filled store added to the process.
    pub resident_bytes: f64,
    /// `resident_bytes` per client.
    pub bytes_per_client: f64,
    /// Host seconds of `aggregate()` on the filled store.
    pub aggregate_s: f64,
    /// Host seconds to drop the filled store.
    pub drop_s: f64,
}

/// Sends `population`'s call shape — the same users, commits, files and
/// shared-pool share — through `ObjectStore::put_chunk` and
/// `commit_manifest` on one thread, with synthetic content hashes. Hashes
/// and manifests are built outside the timed calls.
pub fn store_pass(spec: &ScaleSpec, tracer: &mut Tracer) -> StoreProbe {
    let root = tracer.enter("probe.store");
    release_free_heap();
    let before = rss_bytes();
    let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
    let shared = spec.shared_files_per_commit();
    let (mut put_ns, mut commit_ns) = (0u128, 0u128);
    let mut hashes: Vec<ContentHash> = Vec::with_capacity(spec.files_per_commit);
    let mut manifests: Vec<FileManifest> = Vec::with_capacity(spec.files_per_commit);
    let calls = tracer.enter("probe.store.calls");
    for i in 0..spec.clients {
        let user = spec.user(i);
        for k in 0..spec.commits_per_client {
            hashes.clear();
            for f in 0..spec.files_per_commit {
                let owner = if f < shared { u64::MAX } else { i as u64 };
                let hash = synthetic_hash(derive_seed(spec.seed, owner, k as u64, f as u64));
                let label = if f < shared { "shared" } else { "private" };
                manifests.push(FileManifest {
                    path: format!("{label}/c{k:03}_f{f:03}"),
                    size: spec.file_size,
                    chunks: vec![hash],
                    version: 0,
                });
                hashes.push(hash);
            }
            let t0 = Instant::now();
            for &hash in &hashes {
                let chunk =
                    StoredChunk { hash, stored_len: spec.file_size, plain_len: spec.file_size };
                store.put_chunk(&user, chunk);
            }
            let t1 = Instant::now();
            for manifest in manifests.drain(..) {
                store.commit_manifest(&user, manifest);
            }
            let t2 = Instant::now();
            put_ns += (t1 - t0).as_nanos();
            commit_ns += (t2 - t1).as_nanos();
        }
    }
    tracer.exit(calls);
    let resident = rss_bytes().saturating_sub(before) as f64;
    let (aggregate, aggregate_s) = tracer.timed("probe.store.aggregate", || store.aggregate());
    black_box(aggregate);
    let ((), drop_s) = tracer.timed("probe.store.drop", || drop(store));
    release_free_heap();
    tracer.exit(root);
    let files = (spec.clients * spec.commits_per_client * spec.files_per_commit).max(1) as f64;
    StoreProbe {
        put_chunk_ns: put_ns as f64 / files,
        commit_manifest_ns: commit_ns as f64 / files,
        resident_bytes: resident,
        bytes_per_client: resident / spec.clients.max(1) as f64,
        aggregate_s,
        drop_s,
    }
}

/// A 256-bit content hash spread from a 64-bit content seed.
fn synthetic_hash(seed: u64) -> ContentHash {
    let mut bytes = [0u8; 32];
    for (lane, word) in bytes.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&derive_seed(seed, lane as u64, 0, 0).to_le_bytes());
    }
    ContentHash(bytes)
}

/// What an event-list derivation measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineProbe {
    /// Host seconds to derive the event heap.
    pub events_s: f64,
    /// Waves the heap pops into.
    pub waves: usize,
    /// Process `VmRSS` with the derived heap alive, in bytes.
    pub rss_after_events: f64,
}

fn drain(mut heap: EventHeap) -> Vec<FleetEvent> {
    let mut events = Vec::with_capacity(heap.len());
    while let Some(event) = heap.pop() {
        events.push(event);
    }
    events
}

/// Derives `population`'s event heap (`ScaleSpec::events`) and counts its
/// waves.
pub fn engine_population(spec: &ScaleSpec, tracer: &mut Tracer) -> EngineProbe {
    let root = tracer.enter("probe.engine");
    let (heap, events_s) = tracer.timed("probe.engine.events", || spec.events());
    let rss_after_events = rss_bytes() as f64;
    let events = drain(heap);
    let waves = tracer.stage("probe.engine.wave_count", || wave_count(&events));
    tracer.exit(root);
    EngineProbe { events_s, waves, rss_after_events }
}

/// Derives `sync_fleet`'s schedule and event heap (`FleetSpec::schedule` +
/// `EventHeap::derive`) and counts its waves.
pub fn engine_fleet(spec: &FleetSpec, tracer: &mut Tracer) -> EngineProbe {
    let root = tracer.enter("probe.engine");
    let (heap, events_s) =
        tracer.timed("probe.engine.events", || EventHeap::derive(spec, &spec.schedule()));
    let rss_after_events = rss_bytes() as f64;
    let events = drain(heap);
    let waves = tracer.stage("probe.engine.wave_count", || wave_count(&events));
    tracer.exit(root);
    EngineProbe { events_s, waves, rss_after_events }
}

/// Runs `population` on one worker and returns the host seconds of
/// `run_scale`; the commit count must match the parallel run's.
pub fn scale_one_worker(spec: &ScaleSpec, tracer: &mut Tracer, checks: &mut Checks) -> f64 {
    let store = ObjectStore::with_policy(GcPolicy::MarkSweep);
    let (run, secs) = tracer.timed("probe.scale_1w", || run_scale(spec, store, 1));
    let expected = (spec.clients * spec.commits_per_client) as u64;
    checks.check("population: one-worker run commits every commit", run.commits == expected);
    drop(run);
    secs
}

/// Runs `sync_fleet` on one worker and returns the host seconds of
/// `run_fleet`; the synced rounds must match the schedule.
pub fn fleet_one_worker(spec: &FleetSpec, tracer: &mut Tracer, checks: &mut Checks) -> f64 {
    let expected: usize = spec.schedule().clients.iter().map(|c| c.sync_rounds()).sum();
    let store = ObjectStore::with_policy(spec.gc);
    let (run, secs) = tracer.timed("probe.fleet_1w", || run_fleet(spec, store, 1));
    checks.check(
        "sync_fleet: one-worker run syncs every activation",
        run.total_synced_rounds() == expected,
    );
    drop(run);
    secs
}

/// Times every `Testbed::run_sync` of the Fig. 6 grid one at a time (the
/// suite itself runs its cells two at a time) and returns the samples in
/// milliseconds.
pub fn run_sync_grid(testbed: &Testbed, plan: &PaperPlan, tracer: &mut Tracer) -> Vec<f64> {
    let root = tracer.enter("probe.run_sync");
    let testbed = testbed.with_pipeline(UploadPipeline::sequential());
    let mut samples = Vec::new();
    for profile in ServiceProfile::all() {
        for spec in &plan.fig6_workloads {
            for rep in 0..plan.fig6_repetitions {
                let (run, secs) = tracer
                    .timed("testbed.run_sync", || testbed.run_sync(&profile, spec, rep as u64));
                black_box(run);
                samples.push(secs * 1e3);
            }
        }
    }
    tracer.exit(root);
    samples
}

/// Median MB/s of `work` over `bytes` per call.
fn rate(bytes: usize, mut work: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..KERNEL_SAMPLES)
        .map(|_| {
            let started = Instant::now();
            work();
            bytes as f64 / 1e6 / started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// MB/s of the storage kernels on 1 MB of the paper's text and random
/// content: SHA-256, content-defined chunking, LZSS on text and on random
/// bytes, convergent ChaCha20, and an rsync signature plus delta of a
/// 100 kB append.
pub fn kernels(seed: u64, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let root = tracer.enter("probe.kernels");
    let text = generate(FileKind::Text, KERNEL_BYTES, seed);
    let random = generate(FileKind::RandomBinary, KERNEL_BYTES, seed ^ 1);
    let mut appended = random.clone();
    appended.extend_from_slice(&generate(FileKind::RandomBinary, 100_000, seed ^ 2));
    let cipher = ConvergentCipher::new();
    let mut out = Vec::new();
    let mut kernel =
        |tracer: &mut Tracer, name: &'static str, bytes: usize, work: &mut dyn FnMut()| {
            let value = tracer.stage(name, || rate(bytes, work));
            out.push((name, value));
        };
    kernel(tracer, "kernel.sha256_mb_s", random.len(), &mut || {
        black_box(sha256(black_box(&random)));
    });
    kernel(tracer, "kernel.cdc_mb_s", random.len(), &mut || {
        black_box(ChunkingStrategy::VARIABLE.chunk(black_box(&random)));
    });
    kernel(tracer, "kernel.lzss_text_mb_s", text.len(), &mut || {
        black_box(compress(black_box(&text)));
    });
    kernel(tracer, "kernel.lzss_random_mb_s", random.len(), &mut || {
        black_box(compress(black_box(&random)));
    });
    kernel(tracer, "kernel.chacha20_mb_s", random.len(), &mut || {
        black_box(cipher.encrypt(black_box(&random)));
    });
    kernel(tracer, "kernel.rsync_delta_mb_s", appended.len(), &mut || {
        let signature = Signature::new(black_box(&random));
        black_box(DeltaScript::compute(&signature, black_box(&appended)));
    });
    tracer.exit(root);
    out
}

/// Median host microseconds of `TcpConnection::open` plus a 1 MB
/// `request` on a 50 ms, 50 Mbit/s path.
pub fn tcp_transfer_us(seed: u64, tracer: &mut Tracer) -> f64 {
    let root = tracer.enter("probe.tcp");
    let mut net = Network::new();
    let host = net.add_server("bench.example", [10, 0, 0, 1], 443);
    net.set_path(host, PathSpec::symmetric(SimDuration::from_millis(50), 50_000_000));
    let samples: Vec<f64> = (0..TCP_SAMPLES as u64)
        .map(|i| {
            let started = Instant::now();
            let mut sim = Simulator::new(seed.wrapping_add(i));
            let mut conn = TcpConnection::open(
                &mut sim,
                &net,
                host,
                ConnectionOptions::https(FlowKind::Storage),
                SimTime::ZERO,
            );
            let established = conn.established_at();
            black_box(conn.request(
                &mut sim,
                &net,
                established,
                1_000_000,
                500,
                SimDuration::from_millis(20),
            ));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    tracer.exit(root);
    median(&samples)
}

/// MB/s of the workload generator and of the sequential upload pipeline
/// on `sync_fleet`'s own first-round files of its first three clients
/// (one per service of the mix), each pass processed with the client's
/// own service parameters.
pub fn pipeline(spec: &FleetSpec, tracer: &mut Tracer) -> (f64, f64) {
    let root = tracer.enter("probe.pipeline");
    let clients = PIPELINE_CLIENTS.min(spec.clients());
    let mut generate_rates = Vec::new();
    let mut process_rates = Vec::new();
    for _ in 0..PIPELINE_PASSES {
        let (mut generate_s, mut process_s, mut bytes) = (0.0, 0.0, 0usize);
        for client in 0..clients {
            let (files, secs) =
                tracer.timed("probe.workload.generate", || spec.workload(client, 0));
            generate_s += secs;
            bytes += files.iter().map(|f| f.content.len()).sum::<usize>();
            let profile = &spec.slots[client].profile;
            let pipeline_spec = PipelineSpec {
                chunking: profile.chunking,
                compression: profile.compression,
                delta_encoding: profile.delta_encoding,
            };
            let jobs: Vec<FileJob<'_>> =
                files.iter().map(|f| FileJob { content: &f.content, previous: None }).collect();
            let (artifacts, secs) = tracer.timed("probe.pipeline.process", || {
                UploadPipeline::sequential().process(&pipeline_spec, &jobs)
            });
            black_box(artifacts);
            process_s += secs;
        }
        generate_rates.push(bytes as f64 / 1e6 / generate_s);
        process_rates.push(bytes as f64 / 1e6 / process_s);
    }
    tracer.exit(root);
    (median(&process_rates), median(&generate_rates))
}
