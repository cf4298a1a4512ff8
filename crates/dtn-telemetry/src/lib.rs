//! # dtn-telemetry
//!
//! Low-overhead instrumentation for the SDSRP simulator: a metrics
//! registry, a structured simulation event log, and per-run manifests.
//!
//! * [`metrics`] — monotonic counters, gauges and fixed-bucket
//!   histograms behind integer handles ([`metrics::MetricsRegistry`]).
//! * [`event`] — the [`event::SimEvent`] vocabulary (generation,
//!   replication, delivery, drops, refusals, gossip merges, contacts,
//!   TTL expiry, validation samples and violations, injected faults)
//!   and the per-kind [`event::EventTotals`].
//! * [`ring`] — a bounded in-memory ring of recent events.
//! * [`sink`] — the pluggable [`sink::EventSink`] trait with JSONL and
//!   in-memory exporters.
//! * [`recorder`] — the [`recorder::Recorder`] handle the simulator
//!   carries: when disabled, every emission is a single branch and the
//!   event is never even constructed.
//! * [`manifest`] — the per-run [`manifest::RunManifest`] (config hash,
//!   seed, totals, wall clock) with structural diffing.
//! * [`perf`] — process-level probes ([`perf::peak_rss_bytes`]) shared
//!   by the `dtn-bench` harness and the sweep runner.
//! * [`sweep`] — [`sweep::SweepEvent`], the lifecycle vocabulary of
//!   hardened sweep/fuzz runs (cells completed/failed/skipped/
//!   dispatched, checkpoint resumed/failed, fleet workers, fuzz cases).
//!
//! Both event enums derive `Serialize` as internally tagged objects, so
//! one JSONL line is `serde_json::to_string(&event)`: the snake-case
//! `kind` first, then the fields in declaration order.
//! * [`timeseries`] — sampled run histories (occupancy, contacts,
//!   copies), folded in from `dtn-sim` so there is one instrumentation
//!   path.
//!
//! The crate deliberately depends on nothing but the (in-tree) serde
//! stack: events carry primitive `u32`/`u64`/`f64` fields, and the
//! simulator converts its typed ids at the emission site. That keeps
//! `dtn-telemetry` at the bottom of the dependency graph, usable from
//! every other crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod manifest;
pub mod metrics;
pub mod perf;
pub mod recorder;
pub mod ring;
pub mod sink;
pub mod sweep;
pub mod timeseries;

pub use event::{DropReason, EventTotals, SimEvent};
pub use manifest::{diff_json, hash_config_json, RunManifest};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};
pub use perf::peak_rss_bytes;
pub use recorder::Recorder;
pub use ring::EventRing;
pub use sink::{EventSink, JsonlSink, MemorySink};
pub use sweep::SweepEvent;
pub use timeseries::{TimePoint, TimeSeries};
