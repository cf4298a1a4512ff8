//! # dtn-mobility
//!
//! Node movement models for the SDSRP DTN simulator.
//!
//! The paper evaluates under two mobility regimes:
//!
//! 1. **Random waypoint** in a 4500 m x 3400 m playground at 2 m/s
//!    (Table II) — implemented exactly in
//!    [`RandomWaypointPlanner`](random_waypoint::RandomWaypointPlanner).
//! 2. **The EPFL/CRAWDAD San-Francisco taxi trace** (200 cabs) — the real
//!    GPS data is not redistributable here, so
//!    [`HotspotTaxiPlanner`](hotspot::HotspotTaxiPlanner) synthesises
//!    taxi-like movement (weighted city hotspots, taxi speeds, pick-up
//!    pauses) that reproduces the properties the paper relies on: heavy
//!    spatial aggregation, heterogeneous contact rates and approximately
//!    exponential intermeeting tails (verified by the Fig. 3 harness).
//!    Real traces can still be replayed byte-for-byte through
//!    [`TraceMobility`](trace::TraceMobility).
//!
//! All waypoint-style models share one integrator,
//! [`model::LegMover`], which turns a
//! [`model::WaypointPlanner`]'s decisions
//! ("go there, at this speed, then pause this long") into an exact
//! piecewise-linear trajectory — positions are computed analytically, not
//! by Euler stepping, so querying at any time is exact regardless of the
//! simulator tick.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clustered;
pub mod config;
pub mod hotspot;
pub mod model;
pub mod random_direction;
pub mod random_walk;
pub mod random_waypoint;
pub mod stationary;
pub mod trace;

pub use config::{build_fleet, MobilityConfig};
pub use model::{Leg, LegMover, Mobility, WaypointDecision, WaypointPlanner};
