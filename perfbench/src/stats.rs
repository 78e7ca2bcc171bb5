//! Order statistics under the repository's nearest-rank convention
//! (`cia_obs::nearest_rank`, the one `scenario report` uses).

use cia_core::obs::nearest_rank;

/// The `q`-quantile of `values` by nearest rank; 0 for no values.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(q, sorted.len() as u64);
    sorted[usize::try_from(rank).expect("rank within the sample count") - 1]
}

/// The median of `values`; 0 for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p50, p90, p99 and p99.9 with at least ten samples beyond
/// it among `n` samples, as `(label, q)`; `None` when even the median has
/// fewer than ten samples beyond it.
#[must_use]
pub fn tail_quantile(n: usize) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p50", 0.5)]
        .into_iter()
        .find(|&(_, q)| n as u64 - nearest_rank(q, n as u64) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20).map(|t| t.0), Some("p50"));
        assert_eq!(tail_quantile(100).map(|t| t.0), Some("p90"));
        assert_eq!(tail_quantile(28_290).map(|t| t.0), Some("p99.9"));
    }
}
