//! Host-time benchmark of the cloudbench simulator.
//!
//! The simulator's own gate metrics are virtual-time outputs; this package
//! measures what the simulator costs the host that runs it. It drives the
//! simulator crates only through their public APIs and runs one of three
//! workloads per process:
//!
//! * [`Workload::Population`] — the 100k-client fleet-scale runner against
//!   the sharded store, plus the suite assembly and its JSON dump;
//! * [`Workload::SyncFleet`] — a churning, restoring fleet of real
//!   `SyncClient`s through the upload pipeline and the TCP model;
//! * [`Workload::Paper`] — Table 1 and Figs. 4–6 of the paper on one testbed.
//!
//! With tracing off ([`measure::end_to_end`]) a run repeats its workload for
//! the requested number of seconds and reports medians of host wall time,
//! set-up time, peak RSS and commit throughput. With tracing on
//! ([`measure::traced`]) it runs the workload once more under spans and
//! counters, plus fixed-size probes of the layers underneath, and reports
//! per-layer metrics. Every run checks the simulator's outputs: a failed
//! check counts as a failed operation, never as an abort.

pub mod checks;
pub mod cli;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod sys;
pub mod tracer;
pub mod workloads;

pub use workloads::{Scale, Workload};

/// The seed a run uses when none is given — the same master seed the
/// `repro` binary reproduces the paper with.
pub const DEFAULT_SEED: u64 = 0x2013_1023;
