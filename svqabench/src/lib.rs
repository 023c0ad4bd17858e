//! SVQA benchmark: open-loop `/ask` over real TCP against an in-process
//! `QueryServer`, the eval batch, and a traced per-layer run. See
//! `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod http;
pub mod loadgen;
pub mod report;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod world;
