//! Report rendering: every table and figure of the paper as text.
//!
//! The `repro` binary in the bench crate calls into this module to regenerate
//! Table 1, Fig. 1–6 and the §3 architecture summary from freshly measured
//! data, printing the same rows/series the paper reports (absolute numbers
//! differ — the substrate is a simulator — but the shapes and rankings are
//! expected to hold; EXPERIMENTS.md records the comparison).

use crate::architecture::ArchitectureReport;
use crate::benchmarks::PerformanceSuite;
use crate::capability::{CapabilityMatrix, CompressionPoint, DeltaPoint};
use crate::faults::FaultsSuite;
use crate::fleet::FleetScalingSuite;
use crate::hetero::HeteroSuite;
use crate::idle::IdleSeries;
use crate::partition::PartitionSuite;
use crate::restore::RestoreSuite;
use crate::scale::FleetScaleSuite;
use crate::schedule::ScheduleSuite;
use crate::trace_overhead::TraceOverheadSuite;
use cloudsim_trace::HistogramSummary;
use serde::Serialize;
use std::fmt::Write as _;

/// One latency-distribution line, shared by every suite that carries a
/// [`HistogramSummary`].
fn hist_line(body: &mut String, label: &str, hist: &HistogramSummary) {
    let _ = writeln!(
        body,
        "{label} latency (s, log-bucketed): n={} p50 {:.3} p90 {:.3} p99 {:.3} p99.9 {:.3}",
        hist.count, hist.p50_s, hist.p90_s, hist.p99_s, hist.p999_s,
    );
}

/// A rendered report section.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// Section title (e.g. "Table 1").
    pub title: String,
    /// Rendered text body (fixed-width table / series listing).
    pub body: String,
}

impl Report {
    /// Renders Table 1 (the capability matrix).
    pub fn table1(matrix: &CapabilityMatrix) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{:<14} {:>10} {:>10} {:>12} {:>14} {:>15}",
            "Service", "Chunking", "Bundling", "Compression", "Deduplication", "Delta-encoding"
        );
        for row in &matrix.rows {
            let _ = writeln!(
                body,
                "{:<14} {:>10} {:>10} {:>12} {:>14} {:>15}",
                row.service,
                row.chunking.describe(),
                if row.bundling { "yes" } else { "no" },
                row.compression,
                if row.deduplication { "yes" } else { "no" },
                if row.delta_encoding { "yes" } else { "no" },
            );
        }
        Report { title: "Table 1: capabilities implemented in each service".to_string(), body }
    }

    /// Renders Fig. 1 (idle traffic) as a per-minute cumulative-kB table.
    pub fn figure1(series: &[IdleSeries]) -> Report {
        let mut body = String::new();
        let _ = write!(body, "{:<8}", "min");
        for s in series {
            let _ = write!(body, "{:>14}", s.service);
        }
        let _ = writeln!(body);
        if let Some(first) = series.first() {
            for (i, (minute, _)) in first.points.iter().enumerate() {
                let _ = write!(body, "{:<8.0}", minute);
                for s in series {
                    let _ = write!(body, "{:>14.1}", s.points.get(i).map(|p| p.1).unwrap_or(0.0));
                }
                let _ = writeln!(body);
            }
        }
        let _ = writeln!(body);
        for s in series {
            let _ = writeln!(
                body,
                "{:<14} steady rate {:>8.0} b/s  (~{:.1} MB/day)",
                s.service, s.steady_rate_bps, s.megabytes_per_day
            );
        }
        Report {
            title: "Figure 1: background traffic while idle (cumulative kB)".to_string(),
            body,
        }
    }

    /// Renders Fig. 2 / §3.2 (architecture discovery summaries).
    pub fn figure2(reports: &[&ArchitectureReport]) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{:<14} {:>13} {:>9} {:>9} {:>16}",
            "Service", "entry points", "owners", "cities", "mean geo err km"
        );
        for r in reports {
            let _ = writeln!(
                body,
                "{:<14} {:>13} {:>9} {:>9} {:>16.0}",
                r.provider,
                r.entry_points(),
                r.owners.len(),
                r.cities.len(),
                r.mean_error_km
            );
        }
        Report {
            title: "Figure 2 / §3.2: data centres and edge nodes discovered".to_string(),
            body,
        }
    }

    /// Renders Fig. 3 (cumulative TCP SYNs while uploading 100 × 10 kB).
    pub fn figure3(series: &[(String, Vec<(f64, u64)>)]) -> Report {
        let mut body = String::new();
        for (service, points) in series {
            let total = points.last().map(|(_, v)| *v).unwrap_or(0);
            let duration = points.last().map(|(t, _)| *t).unwrap_or(0.0);
            let _ =
                writeln!(body, "{:<14} {:>4} connections over {:>6.1} s", service, total, duration);
            // A coarse 10-point resampling of the cumulative curve.
            if !points.is_empty() {
                let _ = write!(body, "    t(s)/SYNs:");
                for i in 0..=10 {
                    let target_t = duration * i as f64 / 10.0;
                    let v = points
                        .iter()
                        .take_while(|(t, _)| *t <= target_t + 1e-9)
                        .last()
                        .map(|(_, v)| *v)
                        .unwrap_or(0);
                    let _ = write!(body, " {target_t:.0}/{v}");
                }
                let _ = writeln!(body);
            }
        }
        Report { title: "Figure 3: cumulative TCP SYNs, 100 files of 10 kB".to_string(), body }
    }

    /// Renders Fig. 4 (delta-encoding test series).
    pub fn figure4(series: &[(String, Vec<DeltaPoint>)], case: &str) -> Report {
        let mut body = String::new();
        let _ = writeln!(body, "{:<14} file size MB -> uploaded MB", "Service");
        for (service, points) in series {
            let _ = write!(body, "{service:<14} ");
            for p in points {
                let _ = write!(
                    body,
                    "{:.1}->{:.2}  ",
                    p.file_size as f64 / 1e6,
                    p.uploaded as f64 / 1e6
                );
            }
            let _ = writeln!(body);
        }
        Report { title: format!("Figure 4 ({case}): delta encoding test"), body }
    }

    /// Renders Fig. 5 (compression test series for one content type).
    pub fn figure5(series: &[(String, Vec<CompressionPoint>)], content: &str) -> Report {
        let mut body = String::new();
        let _ = writeln!(body, "{:<14} file size MB -> uploaded MB", "Service");
        for (service, points) in series {
            let _ = write!(body, "{service:<14} ");
            for p in points {
                let _ = write!(
                    body,
                    "{:.1}->{:.2}  ",
                    p.file_size as f64 / 1e6,
                    p.uploaded as f64 / 1e6
                );
            }
            let _ = writeln!(body);
        }
        Report {
            title: format!("Figure 5 ({content}): bytes uploaded during the compression test"),
            body,
        }
    }

    /// Renders one Fig. 6 panel from the performance suite.
    pub fn figure6(suite: &PerformanceSuite, metric: Fig6Metric) -> Report {
        let workloads = suite.workloads();
        let mut body = String::new();
        let _ = write!(body, "{:<14}", "Service");
        for w in &workloads {
            let _ = write!(body, "{w:>12}");
        }
        let _ = writeln!(body);
        let mut services: Vec<String> = Vec::new();
        for row in &suite.rows {
            if !services.contains(&row.service) {
                services.push(row.service.clone());
            }
        }
        for service in &services {
            let _ = write!(body, "{service:<14}");
            for w in &workloads {
                let value = suite.row(service, w).map(|r| metric.extract(r)).unwrap_or(f64::NAN);
                let _ = write!(body, "{value:>12.2}");
            }
            let _ = writeln!(body);
        }
        Report { title: format!("Figure 6{}: {}", metric.panel(), metric.describe()), body }
    }

    /// Renders the fleet scaling suite: the multi-tenant metrics a
    /// single-computer testbed cannot observe, as a function of fleet size.
    pub fn fleet_scaling(suite: &FleetScalingSuite) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} fleet, {} per client, shared pool {:.0}%",
            suite.service,
            suite.workload,
            suite.shared_fraction * 100.0
        );
        let _ = writeln!(
            body,
            "{:>8} {:>14} {:>14} {:>12} {:>12} {:>12} {:>10}",
            "clients",
            "goodput Mb/s",
            "completion s",
            "p-bytes MB",
            "r-bytes MB",
            "dedup x",
            "wall s"
        );
        for row in &suite.rows {
            let _ = writeln!(
                body,
                "{:>8} {:>14.2} {:>9.1}±{:<4.1} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
                row.clients,
                row.aggregate_goodput_bps / 1e6,
                row.completion_secs.mean,
                row.completion_secs.std_dev,
                row.physical_bytes as f64 / 1e6,
                row.referenced_bytes as f64 / 1e6,
                row.dedup_ratio,
                row.wall_secs,
            );
        }
        Report {
            title: "Fleet scaling: concurrent multi-client sync into one sharded store".to_string(),
            body,
        }
    }

    /// Renders the heterogeneous scenario suite: per-profile completion
    /// distributions, per-link goodput, and the GC policy comparison of the
    /// churning fleet.
    pub fn heterogeneous(suite: &HeteroSuite) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients, {} rounds of {}, churn: {} leavers / {} joiners",
            suite.clients, suite.rounds, suite.workload, suite.leavers, suite.joiners
        );
        let _ = writeln!(body, "\ncompletion time by service profile (simulated seconds):");
        let _ = writeln!(
            body,
            "{:<16} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "service", "clients", "mean", "min", "max", "stddev"
        );
        for (service, stats) in &suite.completion_by_service {
            let _ = writeln!(
                body,
                "{:<16} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                service, stats.count, stats.mean, stats.min, stats.max, stats.std_dev
            );
        }
        let _ = writeln!(body, "\ngoodput by access link (Mb/s, simulated):");
        let _ = writeln!(body, "{:<16} {:>12}", "link", "goodput Mb/s");
        for (link, bps) in &suite.goodput_by_link {
            let _ = writeln!(body, "{:<16} {:>12.3}", link, bps / 1e6);
        }
        let _ = writeln!(body, "\ngarbage collection over churn (identical schedule per policy):");
        let _ = writeln!(
            body,
            "{:<12} {:>12} {:>12} {:>8} {:>10} {:>9}",
            "policy", "physical MB", "reclaimed MB", "freed", "manifests", "dedup x"
        );
        for row in &suite.gc_rows {
            let _ = writeln!(
                body,
                "{:<12} {:>12.2} {:>12.2} {:>8} {:>10} {:>9.2}",
                row.policy,
                row.physical_bytes as f64 / 1e6,
                row.reclaimed_bytes as f64 / 1e6,
                row.freed_chunks,
                row.manifest_deletes,
                row.dedup_ratio,
            );
        }
        Report {
            title: "Heterogeneous fleet: profiles x links x churn with a GC'd store".to_string(),
            body,
        }
    }

    /// Renders the restore suite: per-link download goodput against the
    /// same link's upload goodput (the asymmetry table), time-to-first-byte,
    /// and the cross-user dedup savings of the down path.
    pub fn restore(suite: &RestoreSuite) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients ({} pullers), {} rounds of {}, one source departs after round 0",
            suite.clients, suite.pullers, suite.rounds, suite.workload
        );
        let _ = writeln!(body, "\nrestore vs upload goodput by access link (Mb/s, simulated):");
        let _ = writeln!(
            body,
            "{:<10} {:>8} {:>14} {:>14} {:>10}",
            "link", "pullers", "restore Mb/s", "upload Mb/s", "ttfb s"
        );
        for row in &suite.per_link {
            let _ = writeln!(
                body,
                "{:<10} {:>8} {:>14.3} {:>14.3} {:>10.3}",
                row.link,
                row.pullers,
                row.restore_goodput_bps / 1e6,
                row.upload_goodput_bps / 1e6,
                row.ttfb_secs,
            );
        }
        let _ = writeln!(body, "\ndown-path volume:");
        let _ = writeln!(
            body,
            "  restored {:.2} MB, downloaded {:.2} MB, dedup saved {:.2} MB ({:.0}%), {} clean failures",
            suite.restored_logical_bytes as f64 / 1e6,
            suite.downloaded_payload as f64 / 1e6,
            suite.dedup_saved_bytes as f64 / 1e6,
            suite.dedup_saved_fraction() * 100.0,
            suite.failures,
        );
        body.push('\n');
        hist_line(&mut body, "restore", &suite.restore_hist);
        Report { title: "Restore: fleets pulling other users' content back down".to_string(), body }
    }

    /// Renders the temporal schedule suite: sync/idle round accounting, the
    /// start-up delay and completion distributions, the concurrency
    /// high-water mark against its lock-step control, and the
    /// background-vs-payload byte split.
    pub fn schedule(suite: &ScheduleSuite) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients, {} rounds of {}, think {}, jitter <= {:.0}s, activation {:.2}",
            suite.clients,
            suite.rounds,
            suite.workload,
            suite.think,
            suite.arrival_jitter_s,
            suite.activation,
        );
        let _ = writeln!(
            body,
            "\nrounds: {} synced, {} idle ({:.0}% idle, keep-alive signalling only)",
            suite.sync_rounds,
            suite.idle_rounds,
            suite.idle_fraction() * 100.0
        );
        let _ = writeln!(body, "\ntemporal distributions (simulated seconds):");
        let _ = writeln!(
            body,
            "{:<22} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "quantity", "samples", "mean", "min", "max", "stddev"
        );
        for (name, stats) in
            [("startup delay", &suite.startup_delay), ("completion", &suite.completion)]
        {
            let _ = writeln!(
                body,
                "{:<22} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                name, stats.count, stats.mean, stats.min, stats.max, stats.std_dev
            );
        }
        hist_line(&mut body, "sync commit", &suite.sync_hist);
        let _ = writeln!(
            body,
            "\narrival spread {:.2}s; concurrency peak {} (lock-step control: {})",
            suite.first_sync_spread_s, suite.concurrency_peak, suite.lockstep_concurrency_peak,
        );
        let _ = writeln!(
            body,
            "background vs payload: {:.1} kB signalling vs {:.2} MB storage ({:.1}% background)",
            suite.background_wire_bytes as f64 / 1e3,
            suite.payload_wire_bytes as f64 / 1e6,
            suite.background_fraction() * 100.0,
        );
        let _ = writeln!(body, "\nper-client rounds (synced/idle):");
        let _ = writeln!(body, "{:<12} {:>7} {:>6}", "user", "synced", "idle");
        for (user, synced, idle) in &suite.per_client_rounds {
            let _ = writeln!(body, "{:<12} {:>7} {:>6}", user, synced, idle);
        }
        Report {
            title: "Schedule: think times, idle rounds and arrival jitter on a virtual clock"
                .to_string(),
            body,
        }
    }

    /// Renders the fleet-scale suite: the provider's view of a 100k+ client
    /// population on the event heap — commits per virtual second, the
    /// concurrency peak, population-scale dedup and the server load curve.
    pub fn fleet_scale(suite: &FleetScaleSuite) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} lightweight clients, {} commits each of {}, over {:.0}s of virtual time",
            suite.clients, suite.commits_per_client, suite.workload, suite.horizon_s,
        );
        let _ = writeln!(
            body,
            "\n{:>12} {:>10} {:>12} {:>12} {:>9} {:>14} {:>12} {:>9}",
            "commits",
            "files",
            "logical MB",
            "physical MB",
            "dedup x",
            "commits/vsec",
            "conc peak",
            "wall s"
        );
        let _ = writeln!(
            body,
            "{:>12} {:>10} {:>12.2} {:>12.2} {:>9.2} {:>14.2} {:>12} {:>9.2}",
            suite.commits,
            suite.files,
            suite.logical_mb,
            suite.physical_mb,
            suite.dedup_ratio,
            suite.commits_per_vsec,
            suite.concurrency_peak,
            suite.wall_secs,
        );
        body.push('\n');
        hist_line(&mut body, "transfer", &suite.transfer_hist);
        let _ = writeln!(
            body,
            "\nserver load curve over the {:.0}s active span ({} buckets, commits per bucket):",
            suite.virtual_span_s,
            suite.load_curve.len(),
        );
        let top = suite.load_curve.iter().copied().max().unwrap_or(0).max(1);
        for (i, &count) in suite.load_curve.iter().enumerate() {
            let bar = "#".repeat((count * 40).div_ceil(top) as usize);
            let _ = writeln!(body, "  [{i:>2}] {count:>8} {bar}");
        }
        Report {
            title: "Fleet scale: 100k+ event-driven clients against the sharded store".to_string(),
            body,
        }
    }

    /// Renders the trace-overhead suite: what the sharded packet capture of
    /// a fleet-scale run contains, and what it cost in host time next to
    /// the traceless baseline (the wall figures are text-only; the bound
    /// itself is asserted by the `trace_overhead` Criterion bench).
    pub fn trace_overhead(suite: &TraceOverheadSuite) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients, {} commits, captured on one trace shard per worker",
            suite.clients, suite.commits,
        );
        let _ = writeln!(
            body,
            "\n{:>10} {:>8} {:>8} {:>10} {:>12} {:>10} {:>13} {:>11}",
            "packets",
            "flows",
            "syns",
            "wire MB",
            "logical MB",
            "overhead",
            "packets/vsec",
            "pkts/commit"
        );
        let _ = writeln!(
            body,
            "{:>10} {:>8} {:>8} {:>10.2} {:>12.2} {:>10.4} {:>13.2} {:>11.1}",
            suite.packets,
            suite.flows,
            suite.syns,
            suite.wire_mb,
            suite.logical_mb,
            suite.overhead_ratio,
            suite.packets_per_vsec,
            suite.packets_per_commit,
        );
        let _ = writeln!(
            body,
            "\nwall time: traced {:.2}s vs traceless {:.2}s ({:.2}x)",
            suite.traced_wall_secs,
            suite.baseline_wall_secs,
            suite.traced_wall_secs / suite.baseline_wall_secs.max(f64::MIN_POSITIVE),
        );
        Report { title: "Trace overhead: sharded packet capture at fleet scale".to_string(), body }
    }

    /// Renders the partitioned run's split accounting: one row per
    /// partition plus the skew/overhead figures. The merged population
    /// itself renders through [`Report::fleet_scale`] — bit-identical to
    /// the unsliced run, which is the whole point.
    pub fn partition(suite: &PartitionSuite) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} clients across {} partitions (shared store, per-partition event streams)",
            suite.merged.clients, suite.partitions,
        );
        let _ = writeln!(
            body,
            "\n{:>4} {:>9} {:>9} {:>7} {:>13} {:>13}",
            "part", "clients", "commits", "waves", "first start s", "last end s"
        );
        for row in &suite.rows {
            let _ = writeln!(
                body,
                "{:>4} {:>9} {:>9} {:>7} {:>13.2} {:>13.2}",
                row.index, row.clients, row.commits, row.waves, row.first_start_s, row.last_end_s,
            );
        }
        let _ = writeln!(
            body,
            "\ncommit skew {:.4} (max/mean), finish skew {:.2}s, merge overhead {:.4} (part waves / merged waves)",
            suite.commit_skew, suite.finish_skew_s, suite.merge_overhead,
        );
        Report {
            title: "Partitioned fleet: worker-sharded clients merged bit-identically".to_string(),
            body,
        }
    }

    /// Renders the fault-injection suite: per `link x policy` cell the
    /// retry spend, the wasted/salvaged byte split, the completion-time
    /// inflation against the fault-free control, and the SHA-256 verdicts
    /// of the resumed restores.
    pub fn faults(suite: &FaultsSuite) -> Report {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{} per client, identical seeded outage schedules per link, policies: {}",
            suite.workload,
            suite.policies.join(", "),
        );
        let _ = writeln!(
            body,
            "\n{:<10} {:<12} {:>5} {:>7} {:>9} {:>11} {:>11} {:>9} {:>9} {:>8}",
            "link",
            "policy",
            "cuts",
            "retries",
            "abandons",
            "wasted kB",
            "salvage kB",
            "sync x",
            "restore x",
            "sha256"
        );
        for row in &suite.per_link {
            for cell in &row.cells {
                let _ = writeln!(
                    body,
                    "{:<10} {:<12} {:>5} {:>7} {:>9} {:>11.1} {:>11.1} {:>9.2} {:>9.2} {:>5}/{}",
                    row.link,
                    cell.policy,
                    cell.stats.interruptions,
                    cell.stats.retries,
                    cell.abandoned_chunks + cell.files_abandoned,
                    cell.stats.wasted_bytes as f64 / 1e3,
                    cell.stats.salvaged_bytes as f64 / 1e3,
                    cell.sync_inflation,
                    cell.restore_inflation,
                    cell.stats.checksums_verified,
                    cell.stats.checksum_failures,
                );
            }
        }
        let _ = writeln!(body, "\nper-policy totals:");
        for policy in &suite.policies {
            let stats = suite.stats_for(policy);
            let _ = writeln!(
                body,
                "  {:<12} completed {:>4.0}%, wasted ratio {:.3}, resume efficiency {:.3}, backoff {:.1}s",
                policy,
                suite.completed_fraction(policy) * 100.0,
                suite.wasted_ratio(policy),
                stats.resume_efficiency(),
                stats.backoff_wait.as_secs_f64(),
            );
        }
        body.push('\n');
        hist_line(&mut body, "backoff wait", &suite.backoff_hist);
        Report {
            title: "Faults: seeded outages, resumable sessions and retry policies".to_string(),
            body,
        }
    }

    /// Serialises any serialisable payload as pretty JSON (used by the repro
    /// harness to dump machine-readable results next to the text tables).
    pub fn to_json<T: Serialize>(value: &T) -> String {
        serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
    }
}

/// Which Fig. 6 panel to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6Metric {
    /// Fig. 6a: synchronisation start-up time (seconds).
    Startup,
    /// Fig. 6b: completion time (seconds).
    Completion,
    /// Fig. 6c: protocol overhead (ratio).
    Overhead,
}

impl Fig6Metric {
    fn extract(&self, row: &crate::benchmarks::PerformanceRow) -> f64 {
        match self {
            Fig6Metric::Startup => row.startup_secs.mean,
            Fig6Metric::Completion => row.completion_secs.mean,
            Fig6Metric::Overhead => row.overhead.mean,
        }
    }

    fn panel(&self) -> &'static str {
        match self {
            Fig6Metric::Startup => "a",
            Fig6Metric::Completion => "b",
            Fig6Metric::Overhead => "c",
        }
    }

    fn describe(&self) -> &'static str {
        match self {
            Fig6Metric::Startup => "synchronization start-up time (s)",
            Fig6Metric::Completion => "completion time (s)",
            Fig6Metric::Overhead => "protocol overhead (traffic / payload)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::run_suite_with_workloads;
    use crate::capability::{ChunkingVerdict, ServiceCapabilities};
    use crate::testbed::Testbed;
    use cloudsim_workload::{BatchSpec, FileKind};

    fn sample_matrix() -> CapabilityMatrix {
        CapabilityMatrix {
            rows: vec![ServiceCapabilities {
                service: "Dropbox".to_string(),
                chunking: ChunkingVerdict::Fixed { size: 4 * 1024 * 1024 },
                bundling: true,
                compression: "always".to_string(),
                deduplication: true,
                delta_encoding: true,
            }],
        }
    }

    #[test]
    fn table1_rendering_contains_the_expected_cells() {
        let report = Report::table1(&sample_matrix());
        assert!(report.title.contains("Table 1"));
        assert!(report.body.contains("Dropbox"));
        assert!(report.body.contains("4 MB"));
        assert!(report.body.contains("always"));
        let json = Report::to_json(&sample_matrix());
        assert!(json.contains("\"bundling\": true"));
    }

    #[test]
    fn figure6_rendering_has_one_row_per_service() {
        let testbed = Testbed::new(31);
        let suite = run_suite_with_workloads(
            &testbed,
            &[BatchSpec::new(1, 50_000, FileKind::RandomBinary)],
            1,
        );
        for metric in [Fig6Metric::Startup, Fig6Metric::Completion, Fig6Metric::Overhead] {
            let report = Report::figure6(&suite, metric);
            assert!(report.body.lines().count() >= 6, "{}", report.body);
            assert!(report.body.contains("Dropbox"));
            assert!(report.body.contains("1x50kB"));
        }
    }

    #[test]
    fn figure3_and_4_and_5_render_series() {
        let fig3 = Report::figure3(&[(
            "Google Drive".to_string(),
            vec![(0.0, 1), (10.0, 50), (30.0, 100)],
        )]);
        assert!(fig3.body.contains("100 connections"));
        let fig4 = Report::figure4(
            &[(
                "Dropbox".to_string(),
                vec![DeltaPoint { file_size: 1_000_000, uploaded: 120_000 }],
            )],
            "append",
        );
        assert!(fig4.body.contains("Dropbox"));
        let fig5 = Report::figure5(
            &[(
                "Wuala".to_string(),
                vec![CompressionPoint { file_size: 1_000_000, uploaded: 1_000_000 }],
            )],
            "text",
        );
        assert!(fig5.body.contains("Wuala"));
        assert!(fig5.title.contains("text"));
    }
}
