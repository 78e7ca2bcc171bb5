//! Zipf-distributed sampling of item popularity.
//!
//! Real recommendation catalogs have heavily skewed popularity; the synthetic
//! generator uses a Zipf prior inside each topic cluster so that the item
//! frequency distribution resembles MovieLens/Foursquare traces.

use rand::Rng;

/// A Zipf distribution over `0..n` with exponent `s`, sampled by inverse
/// transform over the precomputed CDF.
///
/// Probability of rank `k` (0-based) is proportional to `1 / (k + 1)^s`.
///
/// ```
/// use cia_data::Zipf;
/// use rand::SeedableRng;
///
/// let z = Zipf::new(100, 1.1).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = z.sample(&mut rng);
/// assert!(x < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `0..n` with exponent `s >= 0`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Result<Self, crate::DataError> {
        if n == 0 {
            return Err(crate::DataError::InvalidConfig {
                field: "zipf.n",
                reason: "support size must be positive".into(),
            });
        }
        if !s.is_finite() || s < 0.0 {
            return Err(crate::DataError::InvalidConfig {
                field: "zipf.s",
                reason: format!("exponent must be finite and non-negative, got {s}"),
            });
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating point drift: the last entry must be 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Zipf { cdf })
    }

    /// Number of values in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the support is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..len()`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index whose CDF value is >= u. The CDF lies in [0, 1] and u in
        // [0, 1), with no NaN or -0.0, where `total_cmp` is the partial order.
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `k`, or 0 if out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_config() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let z = Zipf::new(4, 0.0).unwrap();
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12, "pmf({k}) = {}", z.pmf(k));
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.2).unwrap();
        let sum: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_favors_low_ranks() {
        let z = Zipf::new(100, 1.5).unwrap();
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
    }

    #[test]
    fn samples_match_pmf_roughly() {
        let z = Zipf::new(10, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n = 200_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!((emp - z.pmf(k)).abs() < 0.01, "rank {k}: empirical {emp} vs pmf {}", z.pmf(k));
        }
    }

    #[test]
    fn sample_is_always_in_range() {
        let z = Zipf::new(3, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }
}
