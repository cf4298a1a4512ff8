//! Building blocks of the SDSRP benchmark.
//!
//! Every layer is timed at its public API from these files; nothing
//! inside the simulator is instrumented. [`layers`] holds the timing
//! decorator around the buffer policies, the cell runners and the
//! mobility/contact replay; [`parse`] reads what the `dtn-scenario`
//! CLI leaves behind; [`stats`] summarises repetitions.

pub mod layers;
pub mod parse;
pub mod stats;
