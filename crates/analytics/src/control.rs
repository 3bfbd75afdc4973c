//! Statistical process control for performance auditing.
//!
//! XDMoD's application-kernel framework (the paper's reference \[2\],
//! Furlani et al., "Performance metrics and auditing framework using
//! application kernels") runs fixed benchmark kernels on a cadence and
//! flags when a machine's delivered performance *changes*. The detectors
//! here are the classical ones that framework uses: Shewhart control
//! limits for gross excursions and a two-sided CUSUM for slow drifts.

/// Baseline statistics learned from an in-control window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    pub mean: f64,
    pub sd: f64,
    pub n: usize,
}

impl Baseline {
    /// Learn a baseline from the first `window` points of a series.
    /// Returns `None` when there are too few points or no variance.
    pub fn learn(series: &[f64], window: usize) -> Option<Baseline> {
        if series.len() < window || window < 4 {
            return None;
        }
        let w = &series[..window];
        let mean = w.iter().sum::<f64>() / window as f64;
        let var = w.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (window - 1) as f64;
        if var <= 0.0 {
            return None;
        }
        Some(Baseline { mean, sd: var.sqrt(), n: window })
    }

    pub fn z(&self, x: f64) -> f64 {
        (x - self.mean) / self.sd
    }
}

/// A detected change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Index into the series where the alarm fired.
    pub at: usize,
    /// Positive = the statistic drifted up, negative = down.
    pub direction: f64,
    /// The accumulated CUSUM (or z for Shewhart) at the alarm.
    pub statistic: f64,
}

/// Two-sided CUSUM over a series with a learned baseline.
///
/// `k` is the allowance (slack) in σ units — drifts smaller than `k·σ`
/// are ignored; `h` is the decision threshold in σ units. Standard
/// choices `k = 0.5`, `h = 5` detect ~1σ shifts within a handful of
/// samples at a very low false-alarm rate.
pub fn cusum(series: &[f64], baseline: Baseline, k: f64, h: f64) -> Option<Detection> {
    let mut s_hi = 0.0f64;
    let mut s_lo = 0.0f64;
    for (i, &x) in series.iter().enumerate().skip(baseline.n) {
        let z = baseline.z(x);
        s_hi = (s_hi + z - k).max(0.0);
        s_lo = (s_lo + (-z) - k).max(0.0);
        if s_hi > h {
            return Some(Detection { at: i, direction: 1.0, statistic: s_hi });
        }
        if s_lo > h {
            return Some(Detection { at: i, direction: -1.0, statistic: s_lo });
        }
    }
    None
}

/// Shewhart 3σ rule: first point beyond `limit_sigma` after the baseline
/// window.
pub fn shewhart(series: &[f64], baseline: Baseline, limit_sigma: f64) -> Option<Detection> {
    for (i, &x) in series.iter().enumerate().skip(baseline.n) {
        let z = baseline.z(x);
        if z.abs() > limit_sigma {
            return Some(Detection { at: i, direction: z.signum(), statistic: z });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic noise in ±0.5.
    fn noise(i: usize) -> f64 {
        (((i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) >> 40) as f64 / (1u64 << 24) as f64) - 0.5
    }

    fn series_with_shift(n: usize, shift_at: usize, shift: f64) -> Vec<f64> {
        (0..n).map(|i| 100.0 + noise(i) + if i >= shift_at { shift } else { 0.0 }).collect()
    }

    #[test]
    fn baseline_learning() {
        let s = series_with_shift(50, 100, 0.0);
        let b = Baseline::learn(&s, 20).unwrap();
        assert!((b.mean - 100.0).abs() < 0.2);
        assert!(b.sd > 0.0 && b.sd < 1.0);
        assert!(Baseline::learn(&s, 2).is_none());
        assert!(Baseline::learn(&[1.0; 30], 10).is_none(), "no variance");
    }

    #[test]
    fn cusum_detects_downward_drift_quickly() {
        // A 15% performance loss = huge in σ units here.
        let s = series_with_shift(60, 30, -15.0);
        let b = Baseline::learn(&s, 20).unwrap();
        let d = cusum(&s, b, 0.5, 5.0).expect("detected");
        assert!(d.direction < 0.0);
        assert!(d.at >= 30 && d.at <= 33, "alarm at {}", d.at);
    }

    #[test]
    fn cusum_detects_subtle_drift_eventually() {
        let s = series_with_shift(200, 60, -0.35); // ~1.2 sigma
        let b = Baseline::learn(&s, 40).unwrap();
        let d = cusum(&s, b, 0.5, 5.0).expect("detected");
        assert!(d.at > 60 && d.at < 90, "alarm at {}", d.at);
    }

    #[test]
    fn cusum_stays_quiet_in_control() {
        let s = series_with_shift(300, 1000, 0.0);
        let b = Baseline::learn(&s, 40).unwrap();
        assert_eq!(cusum(&s, b, 0.5, 5.0), None);
    }

    #[test]
    fn shewhart_catches_gross_excursions_only() {
        let mut s = series_with_shift(80, 1000, 0.0);
        s[50] = 80.0; // one broken run
        let b = Baseline::learn(&s, 20).unwrap();
        let d = shewhart(&s, b, 3.0).expect("detected");
        assert_eq!(d.at, 50);
        assert!(d.direction < 0.0);
        // A mild drift stays under the 3σ radar (that's CUSUM's job).
        let s = series_with_shift(80, 40, -0.3);
        let b = Baseline::learn(&s, 20).unwrap();
        assert_eq!(shewhart(&s, b, 3.0), None);
    }

    #[test]
    fn upward_shifts_detected_with_positive_direction() {
        let s = series_with_shift(60, 30, 4.0);
        let b = Baseline::learn(&s, 20).unwrap();
        let d = cusum(&s, b, 0.5, 5.0).unwrap();
        assert!(d.direction > 0.0);
    }
}
