//! Known-bad fixture for D08: comparators that panic on the first NaN.

fn best(xs: &[(f32, u32)]) -> Option<&(f32, u32)> {
    xs.iter().max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
}

fn sort_desc(xs: &mut [f64]) {
    xs.sort_by(|a, b| {
        b.partial_cmp(a)
            .expect("finite")
    });
}

fn fine(xs: &mut [f64]) {
    // Safe shapes: a total order, and a handled `None`.
    xs.sort_by(|a, b| a.total_cmp(b));
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}
