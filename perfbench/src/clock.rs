//! The benchmark's one wall-clock read.

use std::time::Instant;

/// The current instant, for the benchmark's own timers.
#[must_use]
pub fn now() -> Instant {
    // cia-lint: allow(D02, the benchmark times the program from outside; its clock feeds only the printed metrics, never a transcript)
    Instant::now()
}
