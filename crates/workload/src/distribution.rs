//! Discrete utilization distributions, including the Fig. 8 substitute.

use core::fmt;

use rand::{Rng, RngExt};

/// A discrete probability distribution over utilization values in `[0, 1]`.
///
/// Used to model the distribution of *fleet-average* CPU utilization over
/// time (paper Fig. 8): each Monte-Carlo trial of the capacity planner
/// draws one value from it and jitters individual servers around it.
///
/// # Examples
///
/// ```
/// use capmaestro_workload::DiscreteDistribution;
///
/// let d = DiscreteDistribution::new(vec![(0.2, 1.0), (0.4, 3.0)]).unwrap();
/// assert!((d.mean() - 0.35).abs() < 1e-12);
/// assert!((d.prob_above(0.3) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDistribution {
    values: Vec<f64>,
    probs: Vec<f64>,
    cumulative: Vec<f64>,
}

/// Error returned when a distribution specification is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidDistributionError;

impl fmt::Display for InvalidDistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "distribution needs at least one bin, finite non-negative weights with a positive sum, and values within [0, 1]"
        )
    }
}

impl std::error::Error for InvalidDistributionError {}

impl DiscreteDistribution {
    /// Creates a distribution from `(value, weight)` bins. Weights are
    /// normalized; bins are sorted by value.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistributionError`] if no bin exists, any weight is
    /// negative or non-finite, the weights sum to zero, or any value falls
    /// outside `[0, 1]`.
    pub fn new(bins: Vec<(f64, f64)>) -> Result<Self, InvalidDistributionError> {
        if bins.is_empty() {
            return Err(InvalidDistributionError);
        }
        let mut bins = bins;
        bins.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = bins.iter().map(|(_, w)| *w).sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(InvalidDistributionError);
        }
        for &(v, w) in &bins {
            if !(0.0..=1.0).contains(&v) || !w.is_finite() || w < 0.0 {
                return Err(InvalidDistributionError);
            }
        }
        let values: Vec<f64> = bins.iter().map(|(v, _)| *v).collect();
        let probs: Vec<f64> = bins.iter().map(|(_, w)| w / total).collect();
        let mut cumulative = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for p in &probs {
            acc += p;
            cumulative.push(acc);
        }
        // Guard against floating-point shortfall in the last bin.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Ok(DiscreteDistribution {
            values,
            probs,
            cumulative,
        })
    }

    /// The bin values, ascending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The normalized bin probabilities, aligned with
    /// [`DiscreteDistribution::values`].
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// The expected value.
    pub fn mean(&self) -> f64 {
        self.values
            .iter()
            .zip(&self.probs)
            .map(|(v, p)| v * p)
            .sum()
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        let m = self.mean();
        let var: f64 = self
            .values
            .iter()
            .zip(&self.probs)
            .map(|(v, p)| (v - m) * (v - m) * p)
            .sum();
        var.sqrt()
    }

    /// Probability mass strictly above `x`.
    pub fn prob_above(&self, x: f64) -> f64 {
        self.values
            .iter()
            .zip(&self.probs)
            .filter(|(v, _)| **v > x)
            .map(|(_, p)| p)
            .sum()
    }

    /// The `q`-quantile (smallest value with CDF ≥ q).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level must be in [0, 1]");
        let idx = self
            .cumulative
            .iter()
            .position(|&c| c >= q)
            .unwrap_or(self.cumulative.len() - 1);
        self.values[idx]
    }

    /// Draws one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        self.quantile(u)
    }

    /// The expectation of an arbitrary function under the distribution —
    /// handy for computing expected cap ratios analytically instead of by
    /// sampling.
    pub fn expect(&self, mut f: impl FnMut(f64) -> f64) -> f64 {
        self.values
            .iter()
            .zip(&self.probs)
            .map(|(v, p)| f(*v) * p)
            .sum()
    }
}

/// Unnormalized Beta(α, β) density, used to shape synthetic histograms.
fn beta_pdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 || x >= 1.0 {
        return 0.0;
    }
    x.powf(a - 1.0) * (1.0 - x).powf(b - 1.0)
}

/// A Beta(α, β)-shaped histogram over `[0, 1]` with `bins` equal-width bins
/// (bin centers at `(i + 0.5)/bins`).
///
/// # Panics
///
/// Panics if `bins == 0` or the shape parameters are not positive.
pub(crate) fn beta_histogram(alpha: f64, beta: f64, bins: usize) -> DiscreteDistribution {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(
        alpha > 0.0 && beta > 0.0,
        "beta shape parameters must be positive"
    );
    let step = 1.0 / bins as f64;
    let data: Vec<(f64, f64)> = (0..bins)
        .map(|i| {
            let center = (i as f64 + 0.5) * step;
            (center, beta_pdf(alpha, beta, center))
        })
        .collect();
    DiscreteDistribution::new(data).expect("beta histogram bins are valid")
}

/// The Fig. 8 substitute: a synthetic distribution of fleet-average CPU
/// utilization with the qualitative shape of the Google profile the paper
/// uses (unimodal, mode ≈ 25–30 %, thin tail above 50 %).
///
/// The shape is a Beta(6, 19) histogram (mean 0.24, σ ≈ 0.084) over 40
/// bins. This calibration makes the Fig. 9 typical-case criterion (<1 %
/// average cap ratio) admit exactly the paper's 39-servers-per-rack
/// deployment (6318 servers) and reject 40; see `EXPERIMENTS.md` for the
/// calibration notes.
pub fn google_like_profile() -> DiscreteDistribution {
    beta_histogram(6.0, 19.0, 40)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Quantiles are monotone in the level.
        #[test]
        fn quantile_monotone(
            bins in prop::collection::vec((0.0f64..1.0, 0.01f64..10.0), 1..20),
            q1 in 0.0f64..1.0,
            dq in 0.0f64..1.0,
        ) {
            let d = DiscreteDistribution::new(bins).unwrap();
            let q2 = (q1 + dq).min(1.0);
            prop_assert!(d.quantile(q2) >= d.quantile(q1));
        }

        /// Beta histograms have means near α/(α+β) for reasonable shapes.
        #[test]
        fn beta_mean_matches(alpha in 2.0f64..10.0, beta in 2.0f64..30.0) {
            let d = beta_histogram(alpha, beta, 200);
            let analytic = alpha / (alpha + beta);
            prop_assert!(
                (d.mean() - analytic).abs() < 0.02,
                "mean {} vs analytic {analytic}",
                d.mean()
            );
        }
    }

    #[test]
    fn validates_bins() {
        assert!(DiscreteDistribution::new(vec![]).is_err());
        assert!(DiscreteDistribution::new(vec![(0.5, -1.0)]).is_err());
        assert!(DiscreteDistribution::new(vec![(1.5, 1.0)]).is_err());
        assert!(DiscreteDistribution::new(vec![(0.5, 0.0)]).is_err());
        assert!(DiscreteDistribution::new(vec![(0.5, f64::NAN)]).is_err());
        assert!(DiscreteDistribution::new(vec![(0.5, 1.0)]).is_ok());
    }

    #[test]
    fn normalizes_and_sorts() {
        let d = DiscreteDistribution::new(vec![(0.8, 2.0), (0.2, 2.0)]).unwrap();
        assert_eq!(d.values(), &[0.2, 0.8]);
        assert_eq!(d.probabilities(), &[0.5, 0.5]);
        assert!((d.mean() - 0.5).abs() < 1e-12);
        assert!((d.std_dev() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let d =
            DiscreteDistribution::new(vec![(0.1, 1.0), (0.2, 1.0), (0.3, 2.0)]).unwrap();
        assert_eq!(d.quantile(0.0), 0.1);
        assert_eq!(d.quantile(0.25), 0.1);
        assert_eq!(d.quantile(0.5), 0.2);
        assert_eq!(d.quantile(0.51), 0.3);
        assert_eq!(d.quantile(1.0), 0.3);
    }

    #[test]
    #[should_panic(expected = "quantile level")]
    fn quantile_out_of_range_panics() {
        let d = DiscreteDistribution::new(vec![(0.5, 1.0)]).unwrap();
        let _ = d.quantile(1.5);
    }

    #[test]
    fn sampling_matches_mean() {
        let d = google_like_profile();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - d.mean()).abs() < 0.01,
            "sample mean {sample_mean} vs analytic {}",
            d.mean()
        );
    }

    #[test]
    fn google_profile_shape() {
        let d = google_like_profile();
        // Mean around 24 %, per Barroso et al.'s "servers mostly run at
        // 10–50 % utilization".
        assert!((d.mean() - 0.24).abs() < 0.02, "mean {}", d.mean());
        // Thin tail: little mass above 50 %, almost none above 70 %.
        assert!(d.prob_above(0.5) < 0.02);
        assert!(d.prob_above(0.7) < 1e-4);
        // But a real tail above 35 % exists (it drives the capping events).
        assert!(d.prob_above(0.35) > 0.03);
    }

    #[test]
    fn expectation_helper() {
        let d = DiscreteDistribution::new(vec![(0.2, 1.0), (0.4, 1.0)]).unwrap();
        let second_moment = d.expect(|v| v * v);
        assert!((second_moment - (0.04 + 0.16) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_conversion_of_samples() {
        let d = google_like_profile();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = d.sample(&mut rng);
            // All samples are valid utilization fractions.
            assert!((0.0..=1.0).contains(&v), "sample {v} is not a fraction");
        }
    }
}
