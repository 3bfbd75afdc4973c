//! Streaming and weighted moments.
//!
//! Every job-level statistic in the paper is weighted by node·hours
//! (§4.1: "values were calculated by the job weighted by node*hour"), so
//! the weighted accumulator is the workhorse here. Welford's update keeps
//! both numerically stable over millions of samples.

/// Unweighted streaming moments (Welford).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    pub fn new() -> Moments {
        Moments { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation σ/μ (the paper orders metric
    /// predictability by it).
    pub fn cv(&self) -> f64 {
        self.std_dev() / self.mean()
    }

    /// Merge two accumulators (parallel reduction).
    pub fn merge(self, other: Moments) -> Moments {
        if self.n == 0 {
            return other;
        }
        if other.n == 0 {
            return self;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        Moments { n, mean, m2, min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    pub fn from_slice(xs: &[f64]) -> Moments {
        let mut m = Moments::new();
        for &x in xs {
            m.push(x);
        }
        m
    }
}

/// Weighted streaming moments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedMoments {
    w_sum: f64,
    mean: f64,
    m2: f64,
    n: u64,
    max: f64,
}

impl WeightedMoments {
    pub fn new() -> WeightedMoments {
        WeightedMoments { w_sum: 0.0, mean: 0.0, m2: 0.0, n: 0, max: f64::NEG_INFINITY }
    }

    /// Push `x` with weight `w` (ignored if `w <= 0`).
    pub fn push(&mut self, x: f64, w: f64) {
        if w <= 0.0 {
            return;
        }
        self.n += 1;
        self.w_sum += w;
        let d = x - self.mean;
        self.mean += d * w / self.w_sum;
        self.m2 += w * d * (x - self.mean);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn weight_sum(&self) -> f64 {
        self.w_sum
    }

    pub fn mean(&self) -> f64 {
        if self.w_sum <= 0.0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    pub fn variance(&self) -> f64 {
        if self.w_sum <= 0.0 {
            f64::NAN
        } else {
            self.m2 / self.w_sum
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    pub fn merge(self, other: WeightedMoments) -> WeightedMoments {
        if other.w_sum <= 0.0 {
            return self;
        }
        if self.w_sum <= 0.0 {
            return other;
        }
        let w = self.w_sum + other.w_sum;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.w_sum / w;
        let m2 = self.m2 + other.m2 + d * d * self.w_sum * other.w_sum / w;
        WeightedMoments { w_sum: w, mean, m2, n: self.n + other.n, max: self.max.max(other.max) }
    }
}

/// p-th percentile (linear interpolation) of a sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let p = p.clamp(0.0, 1.0);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let m = Moments::from_slice(&xs);
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 4.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let whole = Moments::from_slice(&xs);
        let merged = Moments::from_slice(&xs[..37]).merge(Moments::from_slice(&xs[37..]));
        assert!((whole.mean() - merged.mean()).abs() < 1e-10);
        assert!((whole.variance() - merged.variance()).abs() < 1e-10);
        assert_eq!(whole.count(), merged.count());
    }

    #[test]
    fn empty_moments_are_nan_not_garbage() {
        let m = Moments::new();
        assert!(m.mean().is_nan());
        assert!(m.variance().is_nan());
    }

    #[test]
    fn weighted_mean_reduces_to_plain_when_equal_weights() {
        let xs = [1.0, 2.0, 3.0, 10.0];
        let mut w = WeightedMoments::new();
        for &x in &xs {
            w.push(x, 2.5);
        }
        let m = Moments::from_slice(&xs);
        assert!((w.mean() - m.mean()).abs() < 1e-12);
        assert!((w.variance() - m.variance()).abs() < 1e-12);
    }

    #[test]
    fn weighting_shifts_the_mean() {
        let mut w = WeightedMoments::new();
        w.push(0.0, 1.0);
        w.push(10.0, 9.0);
        assert!((w.mean() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn zero_and_negative_weights_are_ignored() {
        let mut w = WeightedMoments::new();
        w.push(5.0, 1.0);
        w.push(100.0, 0.0);
        w.push(200.0, -3.0);
        assert_eq!(w.count(), 1);
        assert!((w.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_merge_equals_single_pass() {
        let data: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 1.0 + (i % 7) as f64)).collect();
        let mut whole = WeightedMoments::new();
        for &(x, w) in &data {
            whole.push(x, w);
        }
        let mut a = WeightedMoments::new();
        let mut b = WeightedMoments::new();
        for &(x, w) in &data[..20] {
            a.push(x, w);
        }
        for &(x, w) in &data[20..] {
            b.push(x, w);
        }
        let merged = a.merge(b);
        assert!((whole.mean() - merged.mean()).abs() < 1e-10);
        assert!((whole.variance() - merged.variance()).abs() < 1e-10);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 4.0);
        assert_eq!(percentile_sorted(&xs, 0.5), 2.5);
    }

    #[test]
    fn cv_is_scale_invariant() {
        let a = Moments::from_slice(&[1.0, 2.0, 3.0]);
        let b = Moments::from_slice(&[10.0, 20.0, 30.0]);
        assert!((a.cv() - b.cv()).abs() < 1e-12);
    }
}
