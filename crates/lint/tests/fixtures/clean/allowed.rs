//! Allowlisted fixture: the same constructs as `bad/determinism.rs`, each
//! carrying a reasoned allow comment — the whole file must lint clean.
use std::collections::HashMap;
use std::time::Instant;

fn histogram(xs: &[u64]) -> Vec<(u64, u64)> {
    // cia-lint: allow(D01, drained into a sorted Vec before anything observes order)
    let mut counts = HashMap::new();
    for &x in xs {
        *counts.entry(x).or_insert(0u64) += 1;
    }
    let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
    v.sort_unstable();
    v
}

fn elapsed_micros() -> u128 {
    // cia-lint: allow(D02, fixture demonstrating the escape hatch; feeds nothing)
    let t0 = Instant::now();
    t0.elapsed().as_micros()
}

fn truncate(x: u64) -> u32 {
    x as u32 // cia-lint: allow(D05, caller validates x < 2^32 at the API boundary)
}

fn spawn_worker() {
    // cia-lint: allow(D06, fixture demonstrating the escape hatch; joins immediately)
    std::thread::spawn(|| {});
}

fn total(xs: &[f32]) -> f32 {
    // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order)
    xs.iter().sum::<f32>()
}

fn sort_desc(xs: &mut [f32]) {
    xs.sort_by(|a, b| {
        // cia-lint: allow(D08, NaN is filtered out by the caller before sorting)
        b.partial_cmp(a).expect("finite")
    });
}
