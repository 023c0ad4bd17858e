//! # svqa-bench
//!
//! The experiment harness of the SVQA reproduction: one runner per table
//! and figure of the paper's evaluation (§VII). The binaries `exp_tables`
//! and `exp_figures` print paper-style rows (with the paper's reported
//! numbers alongside for comparison) and write JSON reports under
//! `results/` (`results/quick/` for `--quick` runs). Exp-5 (Figs. 10–11) and its ablations time the served
//! batch path, `Svqa::run_batch`, and report deterministic cache and merge
//! counters next to wall time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::*;
