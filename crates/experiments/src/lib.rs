//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each experiment lives in its own module under [`experiments`], produces
//! [`tables::Table`] values, and is runnable through the `repro` binary:
//!
//! ```text
//! cargo run --release -p cia-experiments --bin repro -- table2 --scale small
//! ```
//!
//! Each module's docs name the table or figure it regenerates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod runner;
pub mod tables;

pub use cia_data::presets::{Preset, Scale};
pub use cia_scenarios::setup::{build_setup, RecsysSetup};
pub use cia_scenarios::spec::{DefenseKind, ModelKind, ProtocolKind, ScaleParams};
pub use cia_scenarios::RunResult;
