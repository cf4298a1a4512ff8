//! # dtn-analysis
//!
//! Distribution analysis for the experiment harnesses — principally the
//! paper's Fig. 3, which argues that intermeeting times under
//! random-waypoint and the taxi trace "approximately follow an
//! exponential distribution" and fits `f(x) = λ e^{-λx}`.
//!
//! * [`fit`] — exponential MLE, CCDF comparison, Kolmogorov–Smirnov
//!   distance and the coefficient of variation (an exponential has
//!   CV = 1).
//! * [`ci`] — Student-t confidence intervals for the few-seed means the
//!   sweep harness reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ci;
pub mod fit;

pub use ci::{mean_ci95, MeanCi};
pub use fit::{fit_exponential, ks_distance_exponential, ExponentialFit};
