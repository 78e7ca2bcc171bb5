//! `cia-perfbench` — the repository's scenario benchmark.
//!
//! Three paper-scale workloads run through `cia_scenarios::run_scenario`
//! (the entry point behind `scenario run`) in a closed loop, reporting
//! end-to-end metrics; a separate traced run rebuilds each scenario from the
//! program's public parts with timing wrappers at its trait seams and
//! reports per-layer metrics. See `README.md` for the metric definitions and
//! `BENCHMARK.json` at the repository root for the workloads and bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod layers;
pub mod rebuild;
pub mod run;
pub mod seams;
pub mod spans;
pub mod stats;
pub mod workload;

pub use run::{run, Config, Report};
pub use workload::Workload;
