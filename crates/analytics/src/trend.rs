//! Resource-use trends and predictions (§4.3.5).
//!
//! The resource-manager reports include "Job-level resource use trends"
//! and "Resource use trends and predictions"; the funding-agency section
//! wants "trends in resource use by applications and at the system
//! level". This module provides the machinery: a classical additive
//! decomposition of a system series into diurnal season + linear trend +
//! residual, and a forecast built from the two structured parts.

use crate::regression::{linear_fit, LinearFit};

/// Additive decomposition `x(t) = trend(t) + season(t mod period) + resid`.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Samples per season cycle (e.g. 144 ten-minute bins per day).
    pub period: usize,
    /// The fitted linear trend over the de-seasonalised series.
    pub trend: LinearFit,
    /// Seasonal offsets, one per position in the cycle (mean zero).
    pub seasonal: Vec<f64>,
    /// Residual standard deviation (forecast uncertainty).
    pub resid_sd: f64,
    pub n: usize,
}

/// Decompose an equally-spaced series with the given season length.
/// Returns `None` when the series is shorter than two full cycles.
pub fn decompose(series: &[f64], period: usize) -> Option<Decomposition> {
    if period < 2 || series.len() < 2 * period {
        return None;
    }
    let x: Vec<f64> = (0..series.len()).map(|i| i as f64).collect();
    // 1. Rough trend on the raw series (the season averages out over full
    //    cycles, but a one-pass seasonal estimate would absorb the
    //    within-cycle part of the trend — hence detrend first).
    let rough = linear_fit(&x, series)?;
    // 2. Seasonal means by phase on the detrended series.
    let mut phase_sum = vec![0.0f64; period];
    let mut phase_n = vec![0usize; period];
    for (i, &v) in series.iter().enumerate() {
        phase_sum[i % period] += v - rough.predict(i as f64);
        phase_n[i % period] += 1;
    }
    let mut seasonal: Vec<f64> =
        phase_sum.iter().zip(&phase_n).map(|(s, &n)| s / n as f64).collect();
    let grand = seasonal.iter().sum::<f64>() / period as f64;
    for s in &mut seasonal {
        *s -= grand;
    }
    // 3. Final linear trend on the de-seasonalised series.
    let y: Vec<f64> = series.iter().enumerate().map(|(i, &v)| v - seasonal[i % period]).collect();
    let trend = linear_fit(&x, &y)?;
    // 3. Residuals.
    let resid_var = series
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let fitted = trend.predict(i as f64) + seasonal[i % period];
            (v - fitted).powi(2)
        })
        .sum::<f64>()
        / series.len() as f64;
    Some(Decomposition { period, trend, seasonal, resid_sd: resid_var.sqrt(), n: series.len() })
}

impl Decomposition {
    /// Point forecast for `steps` past the end of the fitted series.
    pub fn forecast(&self, steps: usize) -> f64 {
        let i = self.n + steps;
        self.trend.predict(i as f64) + self.seasonal[i % self.period]
    }

    /// Forecast with a ±2σ band.
    pub fn forecast_band(&self, steps: usize) -> (f64, f64, f64) {
        let p = self.forecast(steps);
        (p - 2.0 * self.resid_sd, p, p + 2.0 * self.resid_sd)
    }

    /// Growth per cycle (e.g. per day for a diurnal period) — the number
    /// a capacity planner extrapolates.
    pub fn growth_per_cycle(&self) -> f64 {
        self.trend.slope * self.period as f64
    }

    /// Whether the trend is statistically significant at the given level.
    pub fn trend_significant(&self, alpha: f64) -> bool {
        self.trend.slope_p < alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(n: usize, base: f64, slope: f64, amp: f64, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let phase = (i % period) as f64 / period as f64 * std::f64::consts::TAU;
                let noise = (((i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) >> 40) as f64
                    / (1u64 << 24) as f64
                    - 0.5)
                    * 0.2;
                base + slope * i as f64 + amp * phase.sin() + noise
            })
            .collect()
    }

    #[test]
    fn recovers_trend_and_season() {
        let s = synth(144 * 14, 50.0, 0.01, 5.0, 144);
        let d = decompose(&s, 144).unwrap();
        assert!((d.trend.slope - 0.01).abs() < 0.0005, "{}", d.trend.slope);
        // Seasonal amplitude ≈ 5 (peak-to-mean).
        let amp = d.seasonal.iter().cloned().fold(0.0, f64::max);
        assert!((amp - 5.0).abs() < 0.3, "{amp}");
        assert!(d.trend_significant(0.001));
        assert!(d.resid_sd < 0.2);
    }

    #[test]
    fn forecast_extends_trend_plus_season() {
        let s = synth(144 * 10, 100.0, 0.02, 8.0, 144);
        let d = decompose(&s, 144).unwrap();
        // One full cycle ahead, same phase as the series end.
        let want = 100.0 + 0.02 * (s.len() + 144) as f64 + d.seasonal[(s.len() + 144) % 144];
        let got = d.forecast(144);
        assert!((got - want).abs() < 0.5, "{got} vs {want}");
        let (lo, mid, hi) = d.forecast_band(144);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn flat_series_has_negligible_growth() {
        // The deterministic test noise carries a microscopic drift that a
        // large-n OLS happily calls "significant", so judge by effect
        // size: the fitted growth must be practically zero.
        let s = synth(144 * 8, 10.0, 0.0, 2.0, 144);
        let d = decompose(&s, 144).unwrap();
        assert!(d.growth_per_cycle().abs() < 0.05, "{}", d.growth_per_cycle());
        assert!(d.trend.slope.abs() < 3e-4, "{}", d.trend.slope);
    }

    #[test]
    fn too_short_series_is_rejected() {
        let s = synth(200, 1.0, 0.0, 1.0, 144);
        assert!(decompose(&s, 144).is_none());
        assert!(decompose(&s, 1).is_none());
    }

    #[test]
    fn growth_per_cycle_scales_slope() {
        let s = synth(144 * 12, 0.0, 0.05, 1.0, 144);
        let d = decompose(&s, 144).unwrap();
        assert!((d.growth_per_cycle() - 0.05 * 144.0).abs() < 0.5);
    }
}
