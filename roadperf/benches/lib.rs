//! The repository benchmark: seeded workloads that serve the ROAD
//! framework end to end, check every answer, and report end-to-end
//! metrics (untraced runs) or per-layer metrics (traced runs).
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions and reading the counters it already exposes; see
//! `METRICS.md` beside this crate for which metric belongs to which layer.

pub mod check;
pub mod inputs;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
