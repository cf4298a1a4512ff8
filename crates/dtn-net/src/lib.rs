//! # dtn-net
//!
//! The wireless substrate of the SDSRP DTN simulator: disc-model radio
//! links, contact detection over moving nodes, contact traces, and the
//! intermeeting-time statistics the paper's Fig. 3 and the SDSRP λ
//! estimator are built on.
//!
//! * [`link`] — radio parameters (range, bitrate) and transfer timing.
//! * [`contact`] — per-tick contact detection: positions in, ContactUp /
//!   ContactDown events out, via a spatial hash grid.
//! * [`trace`] — recorded contact intervals; replay and intermeeting-time
//!   extraction (global, per-pair, and per-node minimum).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod contact;
pub mod link;
pub mod trace;

pub use contact::{ContactEvent, ContactTracker};
pub use link::LinkConfig;
pub use trace::{ContactInterval, ContactTrace};
