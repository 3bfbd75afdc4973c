//! Gaussian kernel density estimation.
//!
//! Figures 10 and 12 of the paper show kernel densities "produced by the
//! R statistical software environment ... in order to avoid making
//! binning choices", citing Scott's *Multivariate Density Estimation*.
//! This is the same estimator family: a Gaussian kernel with bandwidth
//! from Scott's / Silverman's rule, evaluated on a regular grid.

use crate::stats::{percentile_sorted, Moments};

/// A fitted kernel density estimate.
#[derive(Debug, Clone)]
pub struct Kde {
    data: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Fit with Silverman's rule-of-thumb bandwidth
    /// `0.9·min(σ, IQR/1.34)·n^(−1/5)` (what R's `density()` defaults to,
    /// modulo the `bw.nrd0` details).
    pub fn fit(data: &[f64]) -> Kde {
        assert!(!data.is_empty(), "KDE needs data");
        let m = Moments::from_slice(data);
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let iqr = percentile_sorted(&sorted, 0.75) - percentile_sorted(&sorted, 0.25);
        let sigma = m.std_dev();
        let spread = if iqr > 0.0 { sigma.min(iqr / 1.34) } else { sigma };
        let bw = 0.9 * spread * (data.len() as f64).powf(-0.2);
        Kde::with_bandwidth(data, if bw > 0.0 { bw } else { 1.0 })
    }

    pub fn with_bandwidth(data: &[f64], bandwidth: f64) -> Kde {
        assert!(bandwidth > 0.0);
        Kde { data: data.to_vec(), bandwidth }
    }

    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density at a point.
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.data.len() as f64);
        let sum: f64 = self
            .data
            .iter()
            .map(|&xi| {
                let u = (x - xi) / h;
                (-0.5 * u * u).exp()
            })
            .sum();
        norm * sum
    }

    /// Evaluate on a regular grid of `points` spanning the data range
    /// padded by 3 bandwidths (R's `cut = 3`). Returns `(x, density)`
    /// pairs.
    pub fn grid(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        let lo = self.data.iter().cloned().fold(f64::INFINITY, f64::min) - 3.0 * self.bandwidth;
        let hi = self.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 3.0 * self.bandwidth;
        let step = (hi - lo) / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + i as f64 * step;
                (x, self.density(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic, roughly-normal sample via inverse-ish construction.
    fn normalish(n: usize, mean: f64, sd: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                // Sum of 12 uniforms − 6 ≈ N(0, 1).
                let mut acc = 0.0;
                let mut state = (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
                for _ in 0..12 {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    acc += (state >> 11) as f64 / (1u64 << 53) as f64;
                }
                mean + sd * (acc - 6.0)
            })
            .collect()
    }

    #[test]
    fn density_integrates_to_one() {
        let data = normalish(500, 10.0, 2.0);
        let kde = Kde::fit(&data);
        let grid = kde.grid(512);
        let dx = grid[1].0 - grid[0].0;
        let integral: f64 = grid.iter().map(|&(_, d)| d * dx).sum();
        assert!((integral - 1.0).abs() < 0.01, "{integral}");
    }

    #[test]
    fn density_peaks_near_the_mean() {
        let data = normalish(500, 10.0, 2.0);
        let kde = Kde::fit(&data);
        let grid = kde.grid(512);
        let peak = grid.iter().cloned().fold((0.0, 0.0), |a, b| if b.1 > a.1 { b } else { a });
        assert!((peak.0 - 10.0).abs() < 0.7, "peak at {}", peak.0);
    }

    #[test]
    fn bimodal_data_gives_two_modes() {
        let mut data = normalish(400, 0.0, 1.0);
        data.extend(normalish(400, 12.0, 1.0));
        let kde = Kde::fit(&data);
        let grid = kde.grid(600);
        // Count strict local maxima with meaningful height.
        let max_d = grid.iter().map(|&(_, d)| d).fold(0.0, f64::max);
        let modes = grid
            .windows(3)
            .filter(|w| w[1].1 > w[0].1 && w[1].1 > w[2].1 && w[1].1 > 0.2 * max_d)
            .count();
        assert_eq!(modes, 2);
    }

    #[test]
    fn silverman_bandwidth_shrinks_with_n() {
        let small = Kde::fit(&normalish(100, 0.0, 1.0));
        let large = Kde::fit(&normalish(10_000, 0.0, 1.0));
        assert!(large.bandwidth() < small.bandwidth());
    }

    #[test]
    fn constant_data_does_not_panic() {
        let kde = Kde::fit(&[5.0; 50]);
        assert!(kde.density(5.0) > 0.0);
        assert!(kde.bandwidth() > 0.0);
    }

    #[test]
    fn density_is_nonnegative_everywhere() {
        let data = normalish(200, 3.0, 1.5);
        let kde = Kde::fit(&data);
        for (_, d) in kde.grid(256) {
            assert!(d >= 0.0);
        }
    }
}
