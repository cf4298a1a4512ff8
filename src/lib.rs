//! # sdsrp — facade crate
//!
//! Reproduction of *"A Buffer Management Strategy on Spray and Wait
//! Routing Protocol in DTNs"* (En Wang, Yongjian Yang, Jie Wu, Wenbin
//! Liu; ICPP 2015).
//!
//! This crate re-exports the whole workspace under one roof so examples
//! and downstream users can depend on a single package:
//!
//! * [`core`] — DES engine, geometry, statistics ([`dtn_core`]).
//! * [`mobility`] — movement models incl. the EPFL-trace substitute
//!   ([`dtn_mobility`]).
//! * [`net`] — radio contacts and transfers ([`dtn_net`]).
//! * [`buffer`] — buffer-policy framework and baselines ([`dtn_buffer`]).
//! * [`sdsrp`] — the paper's contribution: SDSRP priorities, estimators
//!   and the policy itself ([`sdsrp_core`]).
//! * [`routing`] — Spray-and-Wait and friends ([`dtn_routing`]).
//! * [`sim`] — scenario assembly, metrics, sweeps ([`dtn_sim`]).
//! * [`analysis`] — distribution fitting and confidence intervals
//!   ([`dtn_analysis`]).
//! * [`telemetry`] — metrics registry, structured event log and run
//!   manifests ([`dtn_telemetry`]).
//! * [`validate`] — simulation invariants, the estimator oracle and
//!   run fingerprints ([`dtn_validate`]); replay harnesses live in
//!   [`sim::replay`].
//! * [`fleet`] — distributed sweep fan-out: coordinator, worker
//!   protocol and subprocess workers ([`dtn_fleet`]).
//!
//! ## Quick start
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```no_run
//! use sdsrp::sim::config::{presets, PolicyKind};
//! use sdsrp::sim::world::World;
//!
//! let mut cfg = presets::random_waypoint_paper();
//! cfg.policy = PolicyKind::Sdsrp;
//! cfg.seed = 1;
//! let report = World::build(&cfg).run();
//! println!("delivery ratio = {:.3}", report.delivery_ratio());
//!
//! // `run` is `finish().report`; `finish` also returns the recorder
//! // and, when enabled, the validation report and contact trace.
//! let mut world = World::build(&cfg);
//! world.enable_validation(sdsrp::validate::ValidateConfig::default());
//! let out = world.finish();
//! assert!(out.validation.expect("enabled").ok());
//! ```

#![forbid(unsafe_code)]

pub use dtn_analysis as analysis;
pub use dtn_buffer as buffer;
pub use dtn_core as core;
pub use dtn_fleet as fleet;
pub use dtn_mobility as mobility;
pub use dtn_net as net;
pub use dtn_routing as routing;
pub use dtn_sim as sim;
pub use dtn_telemetry as telemetry;
pub use dtn_validate as validate;
pub use sdsrp_core as sdsrp;

/// Version of the reproduction workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
