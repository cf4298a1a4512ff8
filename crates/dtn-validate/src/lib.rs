//! # dtn-validate
//!
//! Simulation invariants, a ground-truth estimator oracle and run
//! fingerprints for the SDSRP reproduction.
//!
//! * [`validator`] — the [`validator::Validator`] the world drives via
//!   per-tick sweeps and gossip hooks: copy-token conservation across
//!   the spray tree, buffer-capacity and usage accounting, delivered
//!   messages never resident at their destination, dropped-list gossip
//!   monotonicity and soundness, and TTL-expiry timeliness. It also
//!   scores the paper's Eq. 14/15 estimates against the true
//!   `m_i`/`n_i`/`d_i`.
//! * [`violation`] — the invariant vocabulary
//!   ([`violation::ViolationKind`], [`violation::Violation`]).
//! * [`report`] — the per-run [`report::ValidationReport`].
//! * [`truth`] — per-message ground truth ([`truth::MessageTruth`]),
//!   kept in one [`truth::TruthLedger`] that the world writes once per
//!   state transition. The oracle ablation ranks on its counts; the
//!   validator checks it against full buffer sweeps.
//! * [`oracle`] — closed-form analytic models, currently the binary
//!   Spray and Wait delivery-delay CDF
//!   ([`oracle::delay::DelayModel`]) with a KS-style deviation
//!   statistic against simulated delays.
//! * [`fingerprint`] — integer-only
//!   [`fingerprint::ReportFingerprint`]s for bit-identical replay
//!   comparison and golden snapshots.
//!
//! Validation is strictly opt-in: the simulator holds an
//! `Option<Box<Validator>>` and an `Option<TruthLedger>` (present in
//! oracle mode or when validating), and every hook sits behind one
//! branch, so a plain run pays nothing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod fingerprint;
pub mod oracle;
pub mod report;
pub mod truth;
pub mod validator;
pub mod violation;

pub use fingerprint::ReportFingerprint;
pub use oracle::delay::DelayModel;
pub use report::{ErrStats, FaultLedger, ValidationReport};
pub use truth::{MessageTruth, TruthLedger};
pub use validator::{EstimatorSweepSample, SweepOutcome, ValidateConfig, Validator, ViolationNote};
pub use violation::{Violation, ViolationKind};
