//! The fleet-scale runner: 100k–1M lightweight clients against the shared
//! store.
//!
//! The full fleet harness ([`crate::fleet`]) gives every client a real
//! [`crate::client::SyncClient`] — a planner, a simulator, a packet trace —
//! which is the right fidelity for tens of clients and hopeless for a
//! million. This module keeps the *population-scale* questions (commits per
//! second against the sharded store, concurrency peaks, inter-user dedup at
//! scale) and drops the per-client machinery: a client's only state is the
//! instant its link is free again, its commit instants are seeded draws
//! over a virtual horizon, its transfer times are computed analytically
//! from its access link, and its chunks are committed to the
//! [`ObjectStore`] as metadata-only records (hashes derived from the
//! content seeds — no file bytes are ever generated or retained, because
//! at 100k clients the plaintext would dominate the host's memory).
//!
//! One driver executes every lightweight population, whatever its source:
//! a live [`ScaleSpec`], a parsed [`FleetCapture`], or the same capture
//! remapped onto another link or service ([`ReplayMix`]). It cuts the
//! population into disjoint [`ClientSet`]s — one round-robin stripe per
//! worker, or the caller's partitions ([`crate::partition`]) — and worker
//! threads that live for the whole run pull the sets, stepping each set's
//! commits in [`FleetEvent::key`] order against the shared store, whose
//! aggregate accounting is order-independent. [`merge_partitions`] k-way
//! merges the sets' streams back into global key order, so every worker
//! and partition count is bit-identical to the 1-set inline run, and two
//! runs of the same spec dump identical JSON (the CI fleet-scale
//! determinism leg `cmp`s exactly that).
//!
//! Memory discipline is the point: the per-client budget is that instant
//! plus the client's share of the event list and the interval log — a few
//! hundred bytes per client, asserted by a `size_of` test below — against
//! the many kilobytes a `SyncClient` costs. 100k clients fit in a few tens
//! of megabytes before store contents.

use crate::capture::{FleetCapture, ReplayMix};
use crate::engine::{wave_count, EventHeap, FleetEvent, Phase};
use crate::partition::{merge_partitions, ClientSet, PartitionRun, PartitionedRun};
use cloudsim_net::AccessLink;
use cloudsim_storage::{AggregateStats, ContentHash, FileManifest, ObjectStore, StoredChunk};
use cloudsim_trace::packet::{
    Direction, Endpoint, PacketRecord, TcpFlags, TransportProtocol, TCP_HEADER_BYTES,
};
use cloudsim_trace::{
    FlowId, FlowKind, LatencyHistogram, SimDuration, SimTime, Trace, TraceRecorder, TraceShard,
};
use cloudsim_workload::seed::{derive_seed, unit_f64};
use serde::Serialize;

/// The user name of scale client `i` in the shared store — shared with the
/// capture/replay path ([`crate::capture`]), which reconstructs the same
/// store keyspace from client indices alone.
pub(crate) fn scale_user(i: usize) -> String {
    format!("scale-{i:06}")
}

/// Salt distinguishing commit-instant draws from every other seeded stream.
const SALT_SCALE_AT: u64 = 0x5CA1_E0A7;
/// Salt base for per-file content seeds (offset by the file index, which
/// stays far below the distance to any other salt).
const SALT_SCALE_CONTENT: u64 = 0x5CA1_EC00;

/// Workload description for one fleet-scale run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScaleSpec {
    /// Number of lightweight clients.
    pub clients: usize,
    /// Commits (batches) each client performs over the horizon.
    pub commits_per_client: usize,
    /// Files per commit; each file is one metadata-only chunk.
    pub files_per_commit: usize,
    /// Plaintext size of each file in bytes.
    pub file_size: u64,
    /// Fraction of each commit drawn from a population-wide shared pool
    /// (identical content seeds across clients — what inter-user dedup
    /// acts on at scale).
    pub shared_fraction: f64,
    /// The virtual horizon commit instants are drawn uniformly over.
    pub horizon: SimDuration,
    /// Access links distributed round-robin across the clients (client `i`
    /// uploads through `links[i % len]`).
    pub links: Vec<AccessLink>,
    /// Master seed; every draw derives from it.
    pub seed: u64,
}

impl ScaleSpec {
    /// A population of `clients` uploaders: two commits each of four 64 kB
    /// files (half from the shared pool) spread over one virtual hour,
    /// across all four link presets.
    pub fn new(clients: usize) -> ScaleSpec {
        ScaleSpec {
            clients,
            commits_per_client: 2,
            files_per_commit: 4,
            file_size: 64 * 1024,
            shared_fraction: 0.5,
            horizon: SimDuration::from_secs(3600),
            links: AccessLink::all().to_vec(),
            seed: 0x5CA1E,
        }
    }

    /// Sets the commits each client performs.
    pub fn with_commits(mut self, commits: usize) -> ScaleSpec {
        self.commits_per_client = commits;
        self
    }

    /// Sets the per-commit workload (file count and size).
    pub fn with_files(mut self, files_per_commit: usize, file_size: u64) -> ScaleSpec {
        self.files_per_commit = files_per_commit;
        self.file_size = file_size;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> ScaleSpec {
        self.seed = seed;
        self
    }

    /// The user name of client `i` in the shared store.
    pub fn user(&self, i: usize) -> String {
        scale_user(i)
    }

    /// Files per commit that come from the population-wide shared pool.
    pub fn shared_files_per_commit(&self) -> usize {
        ((self.files_per_commit as f64) * self.shared_fraction).round() as usize
    }

    /// The seeded virtual instant of client `i`'s commit `k`: a uniform
    /// draw over the horizon. Pure data — no wall clock, no shared RNG.
    pub fn commit_at(&self, i: usize, k: usize) -> SimTime {
        let draw = derive_seed(self.seed, i as u64, k as u64, SALT_SCALE_AT);
        SimTime::ZERO + self.horizon * unit_f64(draw)
    }

    /// The content seed of file `f` of client `i`'s commit `k`. Shared-pool
    /// files exclude the client index, so the same hash lands from every
    /// client and the server dedups it to one physical entry. Captures
    /// record these seeds verbatim so a replay commits identical hashes.
    pub(crate) fn content_seed(&self, i: usize, k: usize, f: usize) -> u64 {
        if f < self.shared_files_per_commit() {
            derive_seed(self.seed, u64::MAX, k as u64, SALT_SCALE_CONTENT + f as u64)
        } else {
            derive_seed(self.seed, i as u64, k as u64, SALT_SCALE_CONTENT + f as u64)
        }
    }

    /// Lowers the spec into its event heap: one [`Phase::Sync`] event per
    /// `(client, commit)` pair at its seeded instant. Deriving twice yields
    /// identical heaps.
    pub fn events(&self) -> EventHeap {
        let everyone = ClientSet::Range { start: 0, end: self.clients };
        EventHeap::from_events(Workload::from_spec(self).events_of(&everyone))
    }

    /// Checks that the spec describes a runnable population: nothing empty,
    /// and event (clients × commits) and packet (clients × commits × (1 +
    /// files)) totals the driver can allocate without overflowing.
    pub fn validate(&self) -> Result<(), String> {
        let empty = [
            (self.clients == 0, "a scale run needs at least one client"),
            (self.commits_per_client == 0, "a scale run needs at least one commit per client"),
            (self.files_per_commit == 0, "a commit needs at least one file"),
            (self.file_size == 0, "files must have at least one byte"),
            (self.links.is_empty(), "a scale run needs at least one link"),
            (self.horizon.is_zero(), "the horizon must be positive"),
        ];
        if let Some((_, message)) = empty.iter().find(|(is_empty, _)| *is_empty) {
            return Err((*message).into());
        }
        let packets = self
            .clients
            .checked_mul(self.commits_per_client)
            .and_then(|events| events.checked_mul(self.files_per_commit.checked_add(1)?));
        packets.map(|_| ()).ok_or_else(|| {
            format!(
                "{} clients x {} commits of {} files overflow the event and packet counts",
                self.clients, self.commits_per_client, self.files_per_commit
            )
        })
    }

    /// [`ScaleSpec::validate`] plus the traced run's address space: the
    /// capture gives client `i` the synthetic source address `10.x.y.z`
    /// from the low 24 bits of `i`, so past 2^24 clients two clients would
    /// share a source address.
    pub fn validate_traced(&self) -> Result<(), String> {
        const ADDRESSABLE: usize = 1 << 24;
        self.validate()?;
        if self.clients > ADDRESSABLE {
            return Err(format!(
                "a traced run addresses at most {ADDRESSABLE} clients (10.x.y.z sources), got {}",
                self.clients
            ));
        }
        Ok(())
    }
}

/// Expands a content seed into a synthetic 256-bit content hash: four
/// chained [`derive_seed`] finalisations, one per 8-byte lane. Identical
/// seeds (the shared pool) produce identical hashes, which is all the
/// dedup accounting needs — no file bytes exist to hash for real.
fn synth_hash(content_seed: u64) -> ContentHash {
    let mut bytes = [0u8; 32];
    for lane in 0..4u64 {
        let word = derive_seed(content_seed, lane, 0, 0);
        bytes[(lane as usize) * 8..][..8].copy_from_slice(&word.to_le_bytes());
    }
    ContentHash(bytes)
}

/// One lightweight population as the driver sees it: the per-commit
/// shape, the links, and where each commit's instant and content seeds come
/// from — a live spec ([`Workload::from_spec`]) or a capture with its
/// replay mix resolved to links and round trips ([`Workload::from_capture`]).
pub(crate) struct Workload<'a> {
    /// Global index of the population's first client.
    client_base: usize,
    clients: usize,
    commits_per_client: usize,
    files_per_commit: usize,
    file_size: u64,
    shared_files: usize,
    /// Access round trips per commit: one for a bundling service, one per
    /// file for a non-bundling remap.
    rtts_per_commit: u64,
    /// Links assigned round-robin over global client indices.
    links: Vec<AccessLink>,
    commits: Commits<'a>,
}

/// Where a [`Workload`]'s commit instants and content seeds come from.
enum Commits<'a> {
    /// Seeded draws from the spec.
    Drawn(&'a ScaleSpec),
    /// A capture's recorded `(instant, content seeds)`, indexed by
    /// capture-local `client * commits_per_client + round`.
    Recorded(Vec<(SimTime, &'a [u64])>),
}

impl<'a> Workload<'a> {
    /// The live source. The caller validates the spec first.
    pub(crate) fn from_spec(spec: &'a ScaleSpec) -> Workload<'a> {
        Workload {
            client_base: 0,
            clients: spec.clients,
            commits_per_client: spec.commits_per_client,
            files_per_commit: spec.files_per_commit,
            file_size: spec.file_size,
            shared_files: spec.shared_files_per_commit(),
            rtts_per_commit: 1,
            links: spec.links.clone(),
            commits: Commits::Drawn(spec),
        }
    }

    /// The replay source: the capture's recorded commits under `mix`. The
    /// capture must record every `(client, round)` of its header exactly
    /// once, as [`crate::capture::parse_capture`] checks and
    /// [`crate::capture::capture_of_spec`] and
    /// [`crate::capture::slice_capture`] guarantee. Fails on an unknown link
    /// preset.
    pub(crate) fn from_capture(
        capture: &'a FleetCapture,
        mix: &ReplayMix,
    ) -> Result<Workload<'a>, String> {
        let links: Vec<AccessLink> = match mix {
            ReplayMix::Link(link) => vec![*link],
            ReplayMix::Original | ReplayMix::Profile(_) => capture
                .link_names
                .iter()
                .map(|name| {
                    AccessLink::by_name(name)
                        .ok_or_else(|| format!("capture references unknown link preset \"{name}\""))
                })
                .collect::<Result<_, _>>()?,
        };
        let rtts_per_commit = match mix {
            ReplayMix::Profile(profile) if !profile.bundles() => capture.files_per_commit as u64,
            _ => 1,
        };

        let (base, commits) = (capture.client_base, capture.commits_per_client);
        let mut recorded: Vec<(SimTime, &[u64])> = vec![(SimTime::ZERO, &[]); capture.events.len()];
        for ev in &capture.events {
            recorded[(ev.client - base) * commits + ev.round] = (ev.at, &ev.content_seeds);
        }

        Ok(Workload {
            client_base: base,
            clients: capture.clients,
            commits_per_client: commits,
            files_per_commit: capture.files_per_commit,
            file_size: capture.file_size,
            shared_files: capture.shared_files_per_commit,
            rtts_per_commit,
            links,
            commits: Commits::Recorded(recorded),
        })
    }

    /// `k` round-robin stripes over the population, `k` clamped to
    /// `[1, clients]` — the one-set-per-worker split.
    pub(crate) fn stripes(&self, k: usize) -> Vec<ClientSet> {
        let k = k.min(self.clients).max(1);
        let total = self.client_base + self.clients;
        (0..k).map(|j| ClientSet::Stripe { offset: self.client_base + j, step: k, total }).collect()
    }

    fn link(&self, i: usize) -> &AccessLink {
        &self.links[i % self.links.len()]
    }

    fn batch_bytes(&self) -> u64 {
        self.files_per_commit as u64 * self.file_size
    }

    /// One [`Phase::Sync`] event per `(client, commit)` pair of `set`, in
    /// set order.
    fn events_of(&self, set: &ClientSet) -> Vec<FleetEvent> {
        let mut events = Vec::with_capacity(set.len() * self.commits_per_client);
        for i in set.iter() {
            for k in 0..self.commits_per_client {
                let at = self.commit_at(i, k);
                events.push(FleetEvent { at, phase: Phase::Sync, client: i, round: k });
            }
        }
        events
    }

    fn slot(&self, i: usize, k: usize) -> usize {
        (i - self.client_base) * self.commits_per_client + k
    }

    fn commit_at(&self, i: usize, k: usize) -> SimTime {
        match &self.commits {
            Commits::Drawn(spec) => spec.commit_at(i, k),
            Commits::Recorded(recorded) => recorded[self.slot(i, k)].0,
        }
    }

    fn content_seed(&self, i: usize, k: usize, f: usize) -> u64 {
        match &self.commits {
            Commits::Drawn(spec) => spec.content_seed(i, k, f),
            Commits::Recorded(recorded) => recorded[self.slot(i, k)].1[f],
        }
    }
}

/// Executes one commit event: one metadata-only chunk and manifest per file
/// into the shared store, then the transfer interval — from when both the
/// event and the client's link (`busy_until`) are ready, for
/// `rtts_per_commit` access round trips plus the commit's transmission.
fn execute_transfer(
    store: &ObjectStore,
    w: &Workload,
    ev: &FleetEvent,
    busy_until: SimTime,
) -> (SimTime, SimTime) {
    let (i, round, size) = (ev.client, ev.round, w.file_size);
    let user = scale_user(i);
    for f in 0..w.files_per_commit {
        let hash = synth_hash(w.content_seed(i, round, f));
        store.put_chunk(&user, StoredChunk { hash, stored_len: size, plain_len: size });
        let label = if f < w.shared_files { "shared" } else { "private" };
        let path = format!("{label}/c{round:03}_f{f:03}");
        store.commit_manifest(&user, FileManifest { path, size, chunks: vec![hash], version: 0 });
    }

    let link = w.link(i);
    let start = ev.at.max(busy_until);
    let end = start
        + link.access_rtt * w.rtts_per_commit
        + SimDuration::for_transmission(w.batch_bytes(), link.up_bandwidth);
    (start, end)
}

/// Records one commit's packet skeleton into a worker's trace shard: a SYN
/// at the transfer start, then one payload packet per file at its analytic
/// completion. Timestamps, sizes and the flow id (`client *
/// commits_per_client + commit`, never a shard allocation) are pure
/// functions of the workload, so the `(timestamp, flow, seq)` merge
/// reproduces one canonical trace for any worker count.
fn record_commit_packets(shard: &mut TraceShard, w: &Workload, ev: &FleetEvent, start: SimTime) {
    let (i, k) = (ev.client, ev.round);
    let flow = FlowId((i * w.commits_per_client + k) as u64);
    let link = w.link(i);
    let src = Endpoint::from_octets(
        10,
        (i >> 16) as u8,
        (i >> 8) as u8,
        i as u8,
        40_000u16.wrapping_add(k as u16),
    );
    let dst = Endpoint::from_octets(198, 18, 0, 1, 443);
    let packet = |timestamp, flags, payload_len| PacketRecord {
        timestamp,
        src,
        dst,
        protocol: TransportProtocol::Tcp,
        flags,
        payload_len,
        header_len: TCP_HEADER_BYTES,
        direction: Direction::Upload,
        flow,
        kind: FlowKind::Storage,
    };
    shard.record(packet(start, TcpFlags::SYN, 0));
    for f in 0..w.files_per_commit {
        let sent = start
            + link.access_rtt
            + SimDuration::for_transmission((f as u64 + 1) * w.file_size, link.up_bandwidth);
        shard.record(packet(sent, TcpFlags::ACK, w.file_size as u32));
    }
}

/// Drives one client set: steps its clients' events in [`FleetEvent::key`]
/// order through [`execute_transfer`], keeping per client only when its
/// link is free again, and records each commit's packets when the worker
/// carries a trace shard.
fn drive_set(
    w: &Workload,
    index: usize,
    set: &ClientSet,
    store: &ObjectStore,
    mut shard: Option<&mut TraceShard>,
) -> PartitionRun {
    let mut events = w.events_of(set);
    events.sort_unstable();

    let mut busy_until = vec![SimTime::ZERO; set.len()];
    let intervals: Vec<(SimTime, SimTime)> = events
        .iter()
        .map(|ev| {
            let local = set.local_index(ev.client).expect("a set derives only its own events");
            let interval = execute_transfer(store, w, ev, busy_until[local]);
            busy_until[local] = interval.1;
            if let Some(shard) = shard.as_deref_mut() {
                record_commit_packets(shard, w, ev, interval.0);
            }
            interval
        })
        .collect();

    let commits = intervals.len() as u64;
    PartitionRun {
        index,
        clients: set.clone(),
        commits,
        logical_bytes: commits * w.batch_bytes(),
        waves: wave_count(&events),
        events,
        intervals,
    }
}

/// The one driver behind every lightweight population. Each entry of
/// `workers` is one worker thread, alive for the whole run, whose context
/// is an optional trace shard; the workers pull `sets` through a single
/// [`cloudsim_parallel::run_with_contexts`] call, all committing into
/// `store`, and [`merge_partitions`] recombines the sets' streams. With one
/// worker everything runs inline on the calling thread.
pub(crate) fn drive(
    w: &Workload,
    sets: &[ClientSet],
    store: ObjectStore,
    workers: &mut [Option<TraceShard>],
) -> PartitionedRun {
    let started = std::time::Instant::now();
    // No more workers than sets, so a 1-set run stays on the calling thread.
    let active = sets.len().min(workers.len()).max(1);
    let workers = &mut workers[..active];
    let parts = cloudsim_parallel::run_with_contexts(workers, sets.len(), |shard, index| {
        drive_set(w, index, &sets[index], &store, shard.as_mut())
    });
    let files = w.clients as u64 * w.commits_per_client as u64 * w.files_per_commit as u64;
    let (run, merged_waves) =
        merge_partitions(w.client_base, w.clients, files, &parts, store, started)
            .expect("the driver's client sets tile the population");
    PartitionedRun { run, parts, merged_waves }
}

/// The result of one fleet-scale run: population-level aggregates plus the
/// transfer intervals the concurrency analysis consumes.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// Clients the run drove.
    pub clients: usize,
    /// Commits (batches) performed across the population.
    pub commits: u64,
    /// File manifests committed across the population.
    pub files: u64,
    /// Plaintext bytes committed across the population.
    pub logical_bytes: u64,
    /// Every commit's `[start, end)` transfer interval on the shared
    /// virtual axis, in event order.
    pub intervals: Vec<(SimTime, SimTime)>,
    /// The shared store the population committed into.
    pub store: ObjectStore,
    /// Host wall-clock time the run took (the only non-deterministic
    /// field).
    pub elapsed: std::time::Duration,
}

impl ScaleRun {
    /// Aggregate server-side statistics after the run.
    pub fn aggregate(&self) -> AggregateStats {
        self.store.aggregate()
    }

    /// Population-scale inter-user dedup ratio (see
    /// [`AggregateStats::dedup_ratio`]).
    pub fn dedup_ratio(&self) -> f64 {
        self.aggregate().dedup_ratio()
    }

    /// Start of the earliest transfer.
    pub fn first_start(&self) -> SimTime {
        self.intervals.iter().map(|&(s, _)| s).min().unwrap_or(SimTime::ZERO)
    }

    /// End of the latest transfer.
    pub fn last_end(&self) -> SimTime {
        self.intervals.iter().map(|&(_, e)| e).max().unwrap_or(SimTime::ZERO)
    }

    /// The virtual span the population was active over, in seconds.
    pub fn virtual_span_secs(&self) -> f64 {
        (self.last_end() - self.first_start()).as_secs_f64()
    }

    /// Commits per virtual second over the active span — the server-side
    /// load figure. 0.0 for an empty run, never NaN.
    pub fn commits_per_vsec(&self) -> f64 {
        let span = self.virtual_span_secs();
        if span > 0.0 {
            self.commits as f64 / span
        } else {
            0.0
        }
    }

    /// The most transfers in flight at any virtual instant.
    pub fn concurrency_peak(&self) -> usize {
        cloudsim_trace::series::concurrency_peak(&self.intervals)
    }

    /// Distribution of per-commit transfer durations. Intervals are logged
    /// in event order and the histogram's buckets are fixed, so the result
    /// is bit-identical across worker counts and reruns.
    pub fn transfer_histogram(&self) -> LatencyHistogram {
        self.intervals.iter().map(|&(s, e)| e - s).collect()
    }

    /// The server-side load curve: commits bucketed by start instant into
    /// `buckets` equal slices of the active span. The sum of the buckets is
    /// the commit total; an empty run yields all-zero buckets.
    pub fn load_curve(&self, buckets: usize) -> Vec<u64> {
        bucket_starts(&self.intervals, self.first_start(), self.last_end(), buckets)
    }
}

/// Counts `intervals` by start instant into `buckets` equal slices of
/// `[first, last]` (all in bucket 0 for a zero-length span), so summing
/// the partitions' curves over the merged span reproduces the merged curve.
pub(crate) fn bucket_starts(
    intervals: &[(SimTime, SimTime)],
    first: SimTime,
    last: SimTime,
    buckets: usize,
) -> Vec<u64> {
    assert!(buckets > 0, "need at least one bucket");
    let mut curve = vec![0u64; buckets];
    let span = (last - first).as_secs_f64();
    if span <= 0.0 {
        curve[0] = intervals.len() as u64;
        return curve;
    }
    for &(start, _) in intervals {
        let frac = (start - first).as_secs_f64() / span;
        let b = ((frac * buckets as f64) as usize).min(buckets - 1);
        curve[b] += 1;
    }
    curve
}

/// Runs the population on up to `workers` OS threads, committing into
/// `store`: one round-robin stripe of clients per worker. Any worker count
/// produces bit-identical [`ScaleRun`] data (wall-clock `elapsed` aside).
/// Panics when [`ScaleSpec::validate`] rejects the spec.
pub fn run_scale(spec: &ScaleSpec, store: ObjectStore, workers: usize) -> ScaleRun {
    spec.validate().unwrap_or_else(|e| panic!("{e}"));
    let workload = Workload::from_spec(spec);
    drive(&workload, &workload.stripes(workers), store, &mut vec![None; workers.max(1)]).run
}

/// Runs the population with full packet capture: each worker records its
/// stripe's commits into its own [`TraceShard`], and the shards are k-way
/// merged into one frozen [`Trace`] at the end. The [`ScaleRun`] is
/// bit-identical to the traceless [`run_scale`] of the same spec, and the
/// merged trace is bit-identical for any worker count — flow ids are pure
/// functions of `(client, commit)`, not shard allocations. Panics when
/// [`ScaleSpec::validate_traced`] rejects the spec.
pub fn run_scale_traced(spec: &ScaleSpec, store: ObjectStore, workers: usize) -> (ScaleRun, Trace) {
    spec.validate_traced().unwrap_or_else(|e| panic!("{e}"));
    let workload = Workload::from_spec(spec);
    let sets = workload.stripes(workers);
    // Steady-state recording should never reallocate: reserve the largest
    // stripe's packets (the first stripe is never smaller than the rest).
    let packets = sets[0].len() * spec.commits_per_client * (1 + spec.files_per_commit);
    let mut shards: Vec<Option<TraceShard>> = TraceRecorder::with_shards(sets.len())
        .into_shards()
        .into_iter()
        .map(|mut shard| {
            shard.reserve(packets);
            Some(shard)
        })
        .collect();
    let run = drive(&workload, &sets, store, &mut shards).run;
    (run, TraceRecorder::from_shards(shards.into_iter().flatten().collect()).finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim_storage::GcPolicy;

    fn small_spec() -> ScaleSpec {
        ScaleSpec::new(64).with_seed(0xAB)
    }

    fn run(spec: &ScaleSpec, workers: usize) -> ScaleRun {
        run_scale(spec, ObjectStore::with_policy(GcPolicy::MarkSweep), workers)
    }

    #[test]
    fn per_client_state_respects_the_memory_budget() {
        // The whole point of the lightweight path: a client is the instant
        // its link is free again, an event per commit and an interval per
        // commit — not a SyncClient. Pin the sizes so a refactor cannot
        // silently fatten the per-client footprint.
        assert!(
            std::mem::size_of::<FleetEvent>() <= 40,
            "FleetEvent grew past the 40-byte budget: {} bytes",
            std::mem::size_of::<FleetEvent>()
        );
        // Per-client budget at the default two commits per client: state +
        // 2 events + 2 intervals stays under a quarter kilobyte.
        let per_client = std::mem::size_of::<SimTime>()
            + 2 * std::mem::size_of::<FleetEvent>()
            + 2 * std::mem::size_of::<(SimTime, SimTime)>();
        assert!(per_client <= 256, "per-client footprint {per_client} B exceeds 256 B");
    }

    #[test]
    fn parallel_run_matches_sequential_replay_bit_for_bit() {
        let spec = small_spec();
        let parallel = run(&spec, 8);
        let sequential = run(&spec, 1);
        assert_eq!(parallel.commits, sequential.commits);
        assert_eq!(parallel.logical_bytes, sequential.logical_bytes);
        assert_eq!(parallel.intervals, sequential.intervals);
        assert_eq!(parallel.aggregate(), sequential.aggregate());
        for i in [0, 17, 63] {
            let user = scale_user(i);
            assert_eq!(parallel.store.stats(&user), sequential.store.stats(&user));
            assert_eq!(parallel.store.list_files(&user), sequential.store.list_files(&user));
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let spec = small_spec();
        let a = run(&spec, 2);
        let b = run(&spec, 3);
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.aggregate(), b.aggregate());
        assert_eq!(a.load_curve(16), b.load_curve(16));
        // A different seed reshuffles the instants.
        let c = run(&spec.clone().with_seed(0xCD), 2);
        assert_ne!(a.intervals, c.intervals);
    }

    #[test]
    fn shared_pool_dedups_across_the_population() {
        let run = run(&small_spec(), 4);
        let agg = run.aggregate();
        assert_eq!(agg.users, 64);
        assert_eq!(run.commits, 128);
        assert_eq!(run.files, 512);
        // Half of every commit is shared content: 64 clients commit the
        // same two chunks per commit, so referenced approaches twice the
        // physical bytes (private files bound the ratio from above at 2).
        assert!(
            run.dedup_ratio() > 1.5 && run.dedup_ratio() < 2.1,
            "population-scale dedup ratio {} outside the expected band",
            run.dedup_ratio()
        );
        assert!(agg.server_dedup_hits > 0);
        // Private files stay private: physical entries cover at least the
        // private chunks plus the shared pool.
        let shared = 2 * 2u64; // 2 shared files x 2 commits
        let private = 64 * 2 * 2u64;
        assert_eq!(agg.unique_chunks, shared + private);
    }

    #[test]
    fn load_metrics_are_positive_and_consistent() {
        let run = run(&small_spec(), 4);
        assert!(run.virtual_span_secs() > 0.0);
        assert!(run.commits_per_vsec() > 0.0);
        assert!(run.concurrency_peak() >= 1);
        let curve = run.load_curve(12);
        assert_eq!(curve.iter().sum::<u64>(), run.commits);
        assert!(curve.iter().filter(|&&c| c > 0).count() > 1, "load must spread over the horizon");
    }

    #[test]
    fn commit_instants_stay_inside_the_horizon_and_serialise_per_client() {
        let spec = small_spec().with_commits(4);
        for i in [0usize, 9, 63] {
            for k in 0..4 {
                let at = spec.commit_at(i, k);
                assert!(at <= SimTime::ZERO + spec.horizon);
            }
        }
        let run = run(&spec, 1);
        // Intervals are logged in global key order, which is the order the
        // event heap pops.
        let mut heap = spec.events();
        let order: Vec<FleetEvent> = std::iter::from_fn(|| heap.pop()).collect();
        // A client's transfers never overlap: its link serialises them.
        for i in 0..spec.clients {
            let mine: Vec<(SimTime, SimTime)> = order
                .iter()
                .zip(&run.intervals)
                .filter(|(ev, _)| ev.client == i)
                .map(|(_, &interval)| interval)
                .collect();
            for pair in mine.windows(2) {
                assert!(pair[0].1 <= pair[1].0 || pair[1].1 <= pair[0].0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panic() {
        run(&ScaleSpec::new(0), 1);
    }

    #[test]
    fn traced_capture_accounts_every_commit() {
        let spec = small_spec();
        let (run, trace) =
            run_scale_traced(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep), 4);
        let view = trace.view();
        // One SYN + one payload packet per file, per commit.
        let expected = run.commits as usize * (1 + spec.files_per_commit);
        assert_eq!(view.len(), expected);
        let syns = view.packets().iter().filter(|p| p.flags == TcpFlags::SYN).count();
        assert_eq!(syns as u64, run.commits);
        let table = view.flow_table();
        assert_eq!(table.len(), run.commits as usize, "one flow per commit");
        // Wire bytes exceed the logical payload (headers), but not by much.
        let wire = view.wire_bytes(FlowKind::Storage);
        assert!(wire > run.logical_bytes);
        assert!((wire as f64) < run.logical_bytes as f64 * 1.1);
        // The capture is timestamp-faithful: packets stay inside the span.
        assert!(view.last_timestamp().expect("packets") <= run.last_end());
    }
}
