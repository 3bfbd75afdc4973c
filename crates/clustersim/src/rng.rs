//! Deterministic sampling helpers for the workload model.
//!
//! Everything in the simulator draws through [`Sampler`], seeded from the
//! cluster config, so runs are exactly reproducible — a property both the
//! test suite and the benchmark harness rely on.

use supremm_metrics::rng::SplitMix64;

/// A seeded source of the distributions the workload model needs.
#[derive(Debug, Clone)]
pub struct Sampler {
    rng: SplitMix64,
    spare_normal: Option<f64>,
}

impl Sampler {
    pub fn new(seed: u64) -> Sampler {
        Sampler { rng: SplitMix64::new(seed), spare_normal: None }
    }

    /// Derive an independent sampler (e.g. one per job) without consuming
    /// much parent state.
    pub fn fork(&mut self, salt: u64) -> Sampler {
        let seed = self.rng.next_u64() ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Sampler::new(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.uniform()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0);
        self.rng.below(n as u64) as usize
    }

    /// Standard normal via Box–Muller (with the spare cached).
    pub fn std_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0).
        let u1 = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.spare_normal = Some(r * s);
        r * c
    }

    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.std_normal()
    }

    /// Log-normal parameterised by its *median* and log-space sigma.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        (median.ln() + sigma * self.std_normal()).exp()
    }

    /// Pareto with scale `xmin` and shape `alpha` (heavy-tailed user
    /// activity).
    pub fn pareto(&mut self, xmin: f64, alpha: f64) -> f64 {
        xmin / self.uniform().max(1e-12).powf(1.0 / alpha)
    }

    /// Exponential with the given rate.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -self.uniform().max(1e-12).ln() / rate
    }

    /// Poisson count. Knuth's method for small λ, normal approximation
    /// above 30 (error is irrelevant at that scale here).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            return self.normal(lambda, lambda.sqrt()).round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Draw an index with the given (unnormalised, non-negative) weights.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut x = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Bernoulli.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Sampler::new(42);
        let mut b = Sampler::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn forks_are_independent_but_deterministic() {
        let mut a = Sampler::new(1);
        let mut b = Sampler::new(1);
        let mut fa = a.fork(7);
        let mut fb = b.fork(7);
        assert_eq!(fa.uniform(), fb.uniform());
        let mut other = a.fork(8);
        assert_ne!(fa.uniform(), other.uniform());
    }

    #[test]
    fn normal_moments() {
        let mut s = Sampler::new(3);
        let xs: Vec<f64> = (0..20_000).map(|_| s.normal(5.0, 2.0)).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 5.0).abs() < 0.05, "{mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "{}", var.sqrt());
    }

    #[test]
    fn lognormal_median() {
        let mut s = Sampler::new(4);
        let mut xs: Vec<f64> = (0..20_001).map(|_| s.lognormal(100.0, 1.0)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median / 100.0 - 1.0).abs() < 0.08, "{median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut s = Sampler::new(5);
        for lambda in [2.0, 80.0] {
            let xs: Vec<f64> = (0..20_000).map(|_| s.poisson(lambda) as f64).collect();
            let (mean, _) = moments(&xs);
            assert!((mean / lambda - 1.0).abs() < 0.05, "λ={lambda}: {mean}");
        }
        assert_eq!(s.poisson(0.0), 0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut s = Sampler::new(6);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[s.weighted_index(&[1.0, 2.0, 7.0])] += 1;
        }
        let total: usize = counts.iter().sum();
        let f2 = counts[2] as f64 / total as f64;
        assert!((f2 - 0.7).abs() < 0.02, "{f2}");
        assert!(counts[0] > 0);
    }

    #[test]
    fn pareto_is_heavy_tailed_above_xmin() {
        let mut s = Sampler::new(7);
        let xs: Vec<f64> = (0..10_000).map(|_| s.pareto(1.0, 1.5)).collect();
        assert!(xs.iter().all(|&x| x >= 1.0));
        let max = xs.iter().cloned().fold(0.0, f64::max);
        assert!(max > 20.0, "heavy tail expected, max={max}");
    }

    #[test]
    fn exponential_mean() {
        let mut s = Sampler::new(8);
        let xs: Vec<f64> = (0..20_000).map(|_| s.exponential(0.5)).collect();
        let (mean, _) = moments(&xs);
        assert!((mean - 2.0).abs() < 0.1, "{mean}");
    }
}
