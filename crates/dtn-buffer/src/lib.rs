//! # dtn-buffer
//!
//! The buffer-management framework the paper's comparison is built on:
//! a [`BufferPolicy`] trait that ranks buffered messages for **scheduling**
//! (which message to replicate first when a contact comes up) and
//! **dropping** (which message to evict when the buffer overflows), plus
//! the baseline policies the paper evaluates against:
//!
//! | paper name        | type                                  | priority |
//! |-------------------|---------------------------------------|----------|
//! | Spray and Wait    | [`Fifo`](fifo::Fifo)                  | oldest-received first (send), drop-oldest |
//! | Spray and Wait-O  | [`TtlRatio`](ttl::TtlRatio)           | remaining TTL / initial TTL |
//! | Spray and Wait-C  | [`CopiesRatio`](copies::CopiesRatio)  | copies held / initial copies |
//!
//! Extra baselines from the buffer-management literature are included for
//! the ablation benches: [`Lifo`](fifo::Lifo), [`Mofo`](mofo::Mofo)
//! (most-forwarded dropped first), [`Shli`](ttl::Shli) (smallest
//! remaining TTL dropped first) and [`RandomDrop`](random::RandomDrop),
//! plus two congestion-adaptive extensions,
//! [`OccupancyGate`](congestion::OccupancyGate) and
//! [`TieredRetention`](congestion::TieredRetention), that throttle
//! admission by buffer occupancy.
//!
//! The paper's own policy, SDSRP, implements this same trait from the
//! `sdsrp-core` crate.
//!
//! Admission control (Algorithm 1's drop step, generalised to
//! heterogeneous message sizes) is implemented once in
//! [`policy::plan_admission`] and shared by every policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod congestion;
pub mod copies;
pub mod fifo;
pub mod knapsack;
pub mod mofo;
pub mod policy;
pub mod random;
pub mod ttl;
pub mod view;

pub use policy::{
    plan_admission, plan_admission_with, AdmissionPlan, BufferPolicy, EvictionScratch,
};
pub use view::MessageView;
