//! Distributed sweep fan-out: a coordinator that shards the canonical
//! [`dtn_sim::sweep`] job list across worker processes and folds their
//! results back into the exact output a single-process
//! [`dtn_sim::sweep::run_sweep`] run would produce.
//!
//! # Architecture
//!
//! * [`coordinator`] owns all supervision — cell assignment
//!   (longest-job first from restored durations), heartbeat and
//!   per-cell timeout supervision, bounded re-dispatch of cells lost
//!   with their worker, worker respawn budgets and shard merge — and
//!   keeps its books in the same [`dtn_sim::sweep::SweepLedger`] the
//!   in-process runner uses.
//! * [`subprocess`] spawns the thin `dtn-fleet-worker` binary per
//!   worker slot and carries [`protocol`] frames over the child's
//!   stdin/stdout, in one length-prefixed framing
//!   ([`protocol::write_frame`] / [`protocol::read_frame`]).
//! * [`cli`] is the command-line front end every binary shares:
//!   [`cli::parse_args`] is the flag loop, [`cli::SweepFlags`] the
//!   sweep flags, [`cli::SweepRunner`] parses the six fleet flags and
//!   runs a spec or a job list in-process (`--workers 0`) or on
//!   subprocess workers, and [`cli::print_sweep`] prints the
//!   [`cli::report_sweep`] summary (which decides the exit status) and
//!   the tables.
//!
//! The reference the fleet is tested against is the in-process
//! [`dtn_sim::sweep::run_cells`] / [`dtn_sim::sweep::run_sweep`].
//!
//! See DESIGN.md ("Fleet wire protocol") for the full message state
//! machine and failure→retry semantics.
//!
//! # Determinism
//!
//! Cells are identified by the FNV-1a hash of their canonical config
//! JSON ([`dtn_telemetry::hash_config_json`]) — the same resume key the
//! single-process checkpoint uses — and each
//! [`protocol::CoordinatorMsg::Assign`] carries that JSON next to its
//! hash, so workers keep no config between cells. Workers return the
//! exact [`dtn_sim::sweep::CellRun`] record (shortest-roundtrip `f64`
//! metrics, integer [`dtn_validate::ReportFingerprint`]), so a fleet
//! sweep — killed at any point, with any mix of main-checkpoint and
//! per-worker shard survivors — resumes and aggregates bit-identically
//! to an uninterrupted single-process run.

#![forbid(unsafe_code)]

pub mod cli;
pub mod coordinator;
pub mod merge;
pub mod protocol;
pub mod schedule;
pub mod subprocess;
pub mod worker;

pub use coordinator::{run_fleet, FleetOptions, FleetRun, FleetStats, WorkerUtilization};
pub use merge::{discover_shards, shard_path};
pub use protocol::{CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION};
pub use subprocess::{locate_worker, FleetError, SubprocessTransport};
pub use worker::{worker_main, FaultHook, WorkerConfig};
