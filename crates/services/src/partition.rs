//! Partitioned runs: the fleet population split into disjoint client sets,
//! driven against the one shared [`ObjectStore`] and merged back.
//!
//! A partitioned run is the scale driver ([`crate::scale`]) with the split
//! made explicit: [`run_partitioned`] cuts a live [`ScaleSpec`] into
//! round-robin stripes and [`replay_partitioned`] cuts a [`FleetCapture`]
//! into contiguous [`ClientSet::Range`]s. [`merge_partitions`] recombines
//! the finished [`PartitionRun`]s **bit-identically** to the unsliced run,
//! whatever the partition count: a client's commits serialise on its own
//! link only, store aggregates commute, and each set's event stream is a
//! subsequence of the global [`FleetEvent::key`] order, so a k-way merge
//! reconstructs it exactly. `docs/ARCHITECTURE.md` spells out the
//! invariants; the bench crate asserts them with `to_bits` equality at 10k
//! clients and CI `cmp`s the dumps.

use crate::capture::{FleetCapture, ReplayMix};
use crate::engine::{wave_count, FleetEvent};
use crate::scale::{drive, ScaleRun, ScaleSpec, Workload};
use cloudsim_storage::{GcPolicy, ObjectStore};
use cloudsim_trace::{LatencyHistogram, SimTime};

/// The disjoint set of global client indices one partition owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientSet {
    /// Contiguous global clients `[start, end)` — what capture slices
    /// cover.
    Range {
        /// First global client index (inclusive).
        start: usize,
        /// One past the last global client index.
        end: usize,
    },
    /// Every `step`-th client from `offset` up to (excluding) `total` —
    /// the round-robin split, which balances the link mix (links are
    /// assigned round-robin too) across partitions.
    Stripe {
        /// First global client index of the stripe.
        offset: usize,
        /// Distance between consecutive stripe members (the partition
        /// count).
        step: usize,
        /// One past the population's last global client index (its size
        /// when it starts at client 0).
        total: usize,
    },
}

impl ClientSet {
    /// The set as `(first, step, end)`: a range is a stripe of step 1.
    fn bounds(&self) -> (usize, usize, usize) {
        match *self {
            ClientSet::Range { start, end } => (start, 1, end),
            ClientSet::Stripe { offset, step, total } => (offset, step, total),
        }
    }

    /// Clients in the set.
    pub fn len(&self) -> usize {
        let (first, step, end) = self.bounds();
        end.saturating_sub(first).div_ceil(step)
    }

    /// True when the set holds no clients.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the set owns global client `id`.
    pub fn contains(&self, id: usize) -> bool {
        self.local_index(id).is_some()
    }

    /// The set-local index of global client `id`, if the set owns it. The
    /// inverse of [`ClientSet::global_id`].
    pub fn local_index(&self, id: usize) -> Option<usize> {
        let (first, step, end) = self.bounds();
        (first..end).contains(&id).then(|| id - first).filter(|d| d % step == 0).map(|d| d / step)
    }

    /// The global index of the set's `local`-th client.
    pub fn global_id(&self, local: usize) -> usize {
        debug_assert!(
            local < self.len(),
            "local index {local} outside the {}-client set",
            self.len()
        );
        let (first, step, _) = self.bounds();
        first + local * step
    }

    /// The set's global client indices in local order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|local| self.global_id(local))
    }
}

/// One finished partition: its events in key order (global client
/// indices), the matching transfer intervals and its totals.
#[derive(Debug, Clone)]
pub struct PartitionRun {
    /// The partition's index among its siblings.
    pub index: usize,
    /// The global clients the partition drove.
    pub clients: ClientSet,
    /// The partition's events in key order, with global client indices —
    /// each stream is a subsequence of the unsliced run's global event
    /// order, which is what makes the k-way merge exact.
    pub events: Vec<FleetEvent>,
    /// Transfer intervals, parallel to `events`.
    pub intervals: Vec<(SimTime, SimTime)>,
    /// Waves the partition's own event stream splits into
    /// ([`wave_count`]).
    pub waves: usize,
    /// Commits the partition performed.
    pub commits: u64,
    /// Plaintext bytes the partition committed.
    pub logical_bytes: u64,
}

impl PartitionRun {
    /// Start of the partition's earliest transfer.
    pub fn first_start(&self) -> SimTime {
        self.intervals.iter().map(|&(s, _)| s).min().unwrap_or(SimTime::ZERO)
    }

    /// End of the partition's latest transfer.
    pub fn last_end(&self) -> SimTime {
        self.intervals.iter().map(|&(_, e)| e).max().unwrap_or(SimTime::ZERO)
    }

    /// Distribution of the partition's per-commit transfer durations.
    /// Merging the partitions' histograms elementwise reproduces the
    /// unsliced run's histogram exactly.
    pub fn transfer_histogram(&self) -> LatencyHistogram {
        self.intervals.iter().map(|&(s, e)| e - s).collect()
    }
}

/// Near-equal contiguous ranges splitting `clients` into `partitions`
/// parts: the first `clients % partitions` ranges get one extra client.
/// Capture-local, half-open — exactly what
/// [`crate::capture::slice_capture`] consumes.
pub fn partition_ranges(clients: usize, partitions: usize) -> Vec<(usize, usize)> {
    assert!(partitions > 0, "need at least one partition");
    let base = clients / partitions;
    let extra = clients % partitions;
    let mut ranges = Vec::with_capacity(partitions);
    let mut start = 0usize;
    for k in 0..partitions {
        let end = start + base + usize::from(k < extra);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// K-way merges `streams`, each sorted by `key`, calling `emit(stream,
/// index)` for every element in global key order. Keys are distinct across
/// streams, so the merge is independent of the streams' order.
pub(crate) fn kway_merge<T, K: Ord>(
    streams: &[&[T]],
    key: impl Fn(&T) -> K,
    mut emit: impl FnMut(usize, usize),
) {
    let mut cursors = vec![0usize; streams.len()];
    while let Some(s) = (0..streams.len())
        .filter(|&s| cursors[s] < streams[s].len())
        .min_by_key(|&s| key(&streams[s][cursors[s]]))
    {
        emit(s, cursors[s]);
        cursors[s] += 1;
    }
}

/// Merges finished partitions back into one [`ScaleRun`], in any partition
/// order. Validates that the partitions exactly tile the global client
/// range `[client_base, client_base + clients)`, sums the partitions'
/// totals, and k-way merges the per-partition (event, interval) streams by
/// [`FleetEvent::key`] — each stream is a subsequence of the globally
/// ordered stream, so the merge reconstructs the unsliced order exactly.
/// Returns the merged run plus the wave count of the merged event stream.
pub fn merge_partitions(
    client_base: usize,
    clients: usize,
    files: u64,
    parts: &[PartitionRun],
    store: ObjectStore,
    started: std::time::Instant,
) -> Result<(ScaleRun, usize), String> {
    let mut owned = vec![false; clients];
    for part in parts {
        for id in part.clients.iter() {
            if id < client_base || id - client_base >= clients {
                return Err(format!(
                    "partition {} owns client {id} outside the [{client_base}, {}) population",
                    part.index,
                    client_base + clients
                ));
            }
            if owned[id - client_base] {
                return Err(format!("client {id} is owned by more than one partition"));
            }
            owned[id - client_base] = true;
        }
    }
    if let Some(orphan) = owned.iter().position(|&o| !o) {
        return Err(format!("no partition owns client {}", client_base + orphan));
    }

    let total: usize = parts.iter().map(|p| p.events.len()).sum();
    let mut merged_events = Vec::with_capacity(total);
    let mut intervals = Vec::with_capacity(total);
    let streams: Vec<&[FleetEvent]> = parts.iter().map(|p| p.events.as_slice()).collect();
    kway_merge(&streams, FleetEvent::key, |p, i| {
        merged_events.push(parts[p].events[i]);
        intervals.push(parts[p].intervals[i]);
    });

    let run = ScaleRun {
        clients,
        commits: parts.iter().map(|p| p.commits).sum(),
        files,
        logical_bytes: parts.iter().map(|p| p.logical_bytes).sum(),
        intervals,
        store,
        elapsed: started.elapsed(),
    };
    Ok((run, wave_count(&merged_events)))
}

/// A merged partitioned run: the recombined [`ScaleRun`] (bit-identical to
/// the unsliced run) plus the per-partition runs the merge consumed.
#[derive(Debug)]
pub struct PartitionedRun {
    /// The recombined run — every derived metric matches the unsliced run
    /// to the bit.
    pub run: ScaleRun,
    /// The finished partitions, in partition-index order.
    pub parts: Vec<PartitionRun>,
    /// Waves the merged event stream splits into (the unsliced run's wave
    /// count).
    pub merged_waves: usize,
}

/// Runs a live spec split into `partitions` round-robin stripes on one
/// worker per host core. The merged run is bit-identical to
/// [`crate::scale::run_scale`] on the same spec, whatever the partition
/// count. Panics when [`ScaleSpec::validate`] rejects the spec or the
/// partition count is outside `[1, clients]`.
pub fn run_partitioned(spec: &ScaleSpec, partitions: usize) -> PartitionedRun {
    spec.validate().unwrap_or_else(|e| panic!("{e}"));
    assert!(
        partitions > 0 && partitions <= spec.clients,
        "partition count must be within [1, {}], got {partitions}",
        spec.clients
    );
    let workload = Workload::from_spec(spec);
    run_sets(&workload, &workload.stripes(partitions))
}

/// Replays a capture split into `partitions` contiguous client ranges. The
/// merged run is bit-identical to an unsliced [`crate::capture::replay`] of
/// the same capture (and, for a spec-derived capture, to the live run).
pub fn replay_partitioned(
    capture: &FleetCapture,
    partitions: usize,
) -> Result<PartitionedRun, String> {
    if partitions == 0 || partitions > capture.clients {
        return Err(format!(
            "cannot cut {} clients into {partitions} non-empty partitions",
            capture.clients
        ));
    }
    let workload = Workload::from_capture(capture, &ReplayMix::Original)?;
    let base = capture.client_base;
    let sets: Vec<ClientSet> = partition_ranges(capture.clients, partitions)
        .into_iter()
        .map(|(start, end)| ClientSet::Range { start: base + start, end: base + end })
        .collect();
    Ok(run_sets(&workload, &sets))
}

/// Drives `sets` on one worker per host core against a fresh store.
fn run_sets(workload: &Workload, sets: &[ClientSet]) -> PartitionedRun {
    let workers = cloudsim_parallel::available_workers();
    drive(workload, sets, ObjectStore::with_policy(GcPolicy::MarkSweep), &mut vec![None; workers])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_of_spec, replay};
    use crate::scale::{bucket_starts, run_scale};

    fn small_spec() -> ScaleSpec {
        ScaleSpec::new(60).with_seed(0xFACE)
    }

    /// The exact sum-of-parts invariants: the partitions' commits and bytes
    /// add up to the whole run's totals, their histograms merge to the
    /// whole run's histogram, and their load curves — bucketed over the
    /// whole run's span — sum to the whole run's curve.
    fn assert_parts_sum_to(split: &PartitionedRun, whole: &ScaleRun) {
        let parts = &split.parts;
        assert_eq!(parts.iter().map(|p| p.commits).sum::<u64>(), whole.commits);
        assert_eq!(parts.iter().map(|p| p.logical_bytes).sum::<u64>(), whole.logical_bytes);
        let mut hist = LatencyHistogram::new();
        let mut curve = vec![0u64; 12];
        for part in parts {
            hist.merge(&part.transfer_histogram());
            let part_curve =
                bucket_starts(&part.intervals, whole.first_start(), whole.last_end(), 12);
            curve.iter_mut().zip(part_curve).for_each(|(sum, count)| *sum += count);
        }
        assert_eq!(hist, whole.transfer_histogram());
        assert_eq!(curve, whole.load_curve(12));
    }

    #[test]
    fn client_sets_index_both_ways() {
        let range = ClientSet::Range { start: 10, end: 14 };
        assert_eq!(range.len(), 4);
        assert_eq!(range.iter().collect::<Vec<_>>(), vec![10, 11, 12, 13]);
        let stripe = ClientSet::Stripe { offset: 1, step: 3, total: 8 };
        assert_eq!(stripe.len(), 3);
        assert_eq!(stripe.iter().collect::<Vec<_>>(), vec![1, 4, 7]);
        for set in [range, stripe] {
            for (local, id) in set.iter().enumerate() {
                assert!(set.contains(id));
                assert_eq!(set.local_index(id), Some(local));
                assert_eq!(set.global_id(local), id);
            }
            assert_eq!(set.local_index(9), None);
        }
        assert!(ClientSet::Stripe { offset: 5, step: 2, total: 5 }.is_empty());
    }

    #[test]
    fn partition_ranges_tile_the_population() {
        assert_eq!(partition_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(partition_ranges(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(partition_ranges(5, 1), vec![(0, 5)]);
    }

    #[test]
    fn striped_partitions_recombine_bit_identically_to_the_unsliced_run() {
        let spec = small_spec();
        let whole = run_scale(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep), 2);
        for partitions in [1usize, 2, 7] {
            let split = run_partitioned(&spec, partitions);
            assert_eq!(split.run.commits, whole.commits);
            assert_eq!(split.run.files, whole.files);
            assert_eq!(split.run.logical_bytes, whole.logical_bytes);
            assert_eq!(split.run.intervals, whole.intervals, "k={partitions}");
            assert_eq!(split.run.aggregate(), whole.aggregate());
            assert_eq!(split.run.load_curve(12), whole.load_curve(12));
            assert_eq!(
                split.run.dedup_ratio().to_bits(),
                whole.dedup_ratio().to_bits(),
                "k={partitions}"
            );
            assert_eq!(split.parts.len(), partitions);
            assert_parts_sum_to(&split, &whole);
        }
    }

    #[test]
    fn sliced_capture_replays_recombine_bit_identically() {
        let spec = small_spec();
        let capture = capture_of_spec(&spec);
        let whole = replay(&capture, &ReplayMix::Original, 2).unwrap();
        let split = replay_partitioned(&capture, 4).unwrap();
        assert_eq!(split.run.intervals, whole.intervals);
        assert_eq!(split.run.aggregate(), whole.aggregate());
        assert_eq!(split.run.load_curve(12), whole.load_curve(12));
        assert_parts_sum_to(&split, &whole);
        // And the live run matches too (capture replay is bit-faithful).
        let live = run_scale(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep), 1);
        assert_eq!(split.run.intervals, live.intervals);
    }

    #[test]
    fn merge_rejects_overlaps_and_gaps() {
        let spec = small_spec();
        let finished = run_partitioned(&spec, 2).parts;
        let started = std::time::Instant::now();
        let files = (spec.clients * spec.commits_per_client * spec.files_per_commit) as u64;
        // A duplicated partition overlaps itself.
        let doubled = vec![finished[0].clone(), finished[0].clone()];
        let err = merge_partitions(
            0,
            spec.clients,
            files,
            &doubled,
            ObjectStore::with_policy(GcPolicy::MarkSweep),
            started,
        )
        .unwrap_err();
        assert!(err.contains("more than one partition"), "got: {err}");
        // A missing partition leaves a gap.
        let err = merge_partitions(
            0,
            spec.clients,
            files,
            &finished[..1],
            ObjectStore::with_policy(GcPolicy::MarkSweep),
            started,
        )
        .unwrap_err();
        assert!(err.contains("no partition owns"), "got: {err}");
    }

    #[test]
    fn capture_partitions_reject_degenerate_counts() {
        let capture = capture_of_spec(&ScaleSpec::new(3).with_seed(1));
        assert!(replay_partitioned(&capture, 0).is_err());
        let err = replay_partitioned(&capture, 4).unwrap_err();
        assert!(err.contains("non-empty partitions"), "got: {err}");
        let split = replay_partitioned(&capture, 3).unwrap();
        let owned: Vec<Vec<usize>> =
            split.parts.iter().map(|p| p.clients.iter().collect()).collect();
        assert_eq!(owned, vec![vec![0], vec![1], vec![2]]);
    }
}
