//! # sdsrp-core — the paper's contribution
//!
//! SDSRP (*Scheduling and Drop Strategy on spray and wait Routing
//! Protocol*, Wang/Yang/Wu/Liu, ICPP 2015) assigns every buffered
//! message a priority equal to the **marginal effect of one replication /
//! one drop on the global delivery ratio**, then schedules the highest
//! priority first and drops the lowest first.
//!
//! The crate mirrors the paper's Section III structure:
//!
//! * [`priority`] — the analytical model (Eqs. 3-13): delivery
//!   probability, the closed-form priority `U_i` (Eq. 10), its
//!   probability form (Eq. 11) with the `1 - 1/e` peak (Fig. 4), and the
//!   Taylor-series approximation (Eq. 13).
//! * [`estimator`] — the distributed estimators (Section III-C): `m_i`
//!   from binary-spray timestamps (Eq. 15, Fig. 6), `n_i = m_i + 1 - d_i`
//!   (Eq. 14), and an online intermeeting-rate (λ) estimator.
//! * [`dropped_list`] — the gossiped dropped-message records (Fig. 5)
//!   that make `d_i` observable without a control channel.
//! * [`policy`] — [`policy::Sdsrp`], wiring the above into the
//!   [`dtn_buffer::BufferPolicy`] trait used by the simulator.
//!
//! ## Example: ranking two messages by Eq. 10
//!
//! ```
//! use sdsrp_core::priority::PriorityModel;
//!
//! // 100 nodes, E(I) = 1000 s  =>  λ = 1e-3 (Table I notation).
//! let model = PriorityModel::new(100, 1e-3);
//!
//! // A fresh message: nobody has seen it, two holders, 8 copy tokens,
//! // 600 s of TTL left...
//! let fresh = model.log_priority(0, 2, 8, 600.0);
//! // ...versus a stale one: seen by 60 nodes, 20 holders, 1 token.
//! let stale = model.log_priority(60, 20, 1, 600.0);
//!
//! // The fresh message is replicated first / dropped last.
//! assert!(fresh > stale);
//!
//! // The Eq. 3 spray interval the estimators use:
//! assert!((model.e_i_min() - 1000.0 / 99.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dropped_list;
pub mod estimator;
pub mod policy;
pub mod priority;

pub use dropped_list::DroppedList;
pub use estimator::{estimate_m, estimate_n, LambdaEstimator};
pub use policy::{GossipTally, LambdaMode, PriorityMode, Sdsrp, SdsrpConfig};
pub use priority::PriorityModel;
