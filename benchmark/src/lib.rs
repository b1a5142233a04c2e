//! # nowmp-benchmark — one seeded harness for the three clocks
//!
//! Measures the repository from outside: every number comes from timing
//! calls into the crates' public functions or from reading their public
//! counters. No library code is touched.
//!
//! Three clocks, and every metric name says which one it is on:
//!
//! * `sim` — seconds on the `VirtualClock` / `TaskScheduler` timeline:
//!   what the modelled 1999 network of workstations would take;
//! * `wall` — host seconds the simulator itself takes;
//! * `real` — the DSM library run as real software (`Clock::real()`,
//!   `NetModel::disabled()`).
//!
//! See `README.md` for the workloads, the metrics and how they interact.

#![warn(missing_docs)]

pub mod compare;
pub mod env;
pub mod json;
pub mod lanes;
pub mod report;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
