//! # dtn-sim
//!
//! The assembled DTN simulator: scenarios in, the paper's three metrics
//! out.
//!
//! * [`config`] — [`config::ScenarioConfig`] with the
//!   paper's Table II (random waypoint) and Table III (EPFL substitute)
//!   presets; [`config::PolicyKind`] /
//!   [`config::RoutingKind`] factories.
//! * [`message`] — message descriptors and per-node buffered copies.
//! * [`node`] — a node: buffer + buffer policy + routing protocol.
//! * [`report`] — delivery ratio, average hopcount, overhead ratio and
//!   the supporting counters, with the paper's exact definitions.
//! * [`world`] — the event-driven simulation itself. A
//!   [`World`] advances with [`World::step_until`] and closes with
//!   [`World::finish`], which returns a [`world::RunOutput`] (report,
//!   recorder, optional validation report and contact trace);
//!   [`World::run`] is `finish().report`.
//! * [`sweep`] — parallel parameter sweeps (policies x axis x seeds)
//!   used by every Fig. 8 / Fig. 9 series, with panic isolation,
//!   checkpoint/resume and optional per-cell invariant validation.
//! * [`scenario_gen`] — seeded random scenario generation shared by the
//!   property tests and the `dtn-fuzz` nightly fuzzer.
//! * [`replay`] — deterministic replay from a run manifest, plus
//!   differential harnesses (thread counts, policy matrix).
//! * [`output`] — CSV and markdown emitters for the figure harnesses.
//!
//! ## Model fidelity notes (vs. the ONE simulator)
//!
//! * Movement is sampled on a fixed tick (default 1 s, like ONE's 0.1-1 s
//!   step) and contacts are disc-model with inclusive range.
//! * One transfer at a time per contact (the link is half-duplex and
//!   serialises), `duration = size / bitrate`; a contact ending mid
//!   transfer aborts it with no partial delivery.
//! * No ACKs / immunity: delivered messages keep circulating until TTL
//!   expiry (paper Section III-A). TTL expiry purges copies everywhere.
//! * Deliverable messages always preempt relay traffic, then the buffer
//!   policy's scheduling order decides (paper Algorithm 1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod message;
pub mod node;
pub mod output;
pub mod replay;
pub mod report;
pub mod scenario_gen;
pub mod sweep;
pub mod world;

pub use config::{PolicyKind, RoutingKind, ScenarioConfig};
pub use report::Report;
pub use world::World;
