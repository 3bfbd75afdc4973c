//! Normalized usage profiles — the radar-chart octagons of Figures 2, 3
//! and 5.
//!
//! A profile is the eight key metrics of an entity (user, application,
//! job) divided by the all-jobs average of each metric on the same
//! machine, so a perfectly typical entity plots as a unit octagon and
//! values above 1 mean heavier-than-average use.

use supremm_metrics::metric::KeyMetricVec;
use supremm_metrics::KeyMetric;

use crate::stats::WeightedMoments;

/// Accumulates node·hour-weighted means of the eight key metrics.
#[derive(Debug, Clone, Default)]
pub struct ProfileAccumulator {
    acc: [WeightedMoments; 8],
}

impl ProfileAccumulator {
    pub fn new() -> ProfileAccumulator {
        ProfileAccumulator::default()
    }

    /// Add one job's metric vector with its node·hour weight.
    pub fn push(&mut self, metrics: &KeyMetricVec, weight: f64) {
        for m in KeyMetric::ALL {
            self.acc[m.index()].push(metrics.get(m), weight);
        }
    }

    pub fn count(&self) -> u64 {
        self.acc[0].count()
    }

    pub fn weight_sum(&self) -> f64 {
        self.acc[0].weight_sum()
    }

    /// The weighted mean vector.
    pub fn means(&self) -> KeyMetricVec {
        let mut v = KeyMetricVec::default();
        for m in KeyMetric::ALL {
            v.set(m, self.acc[m.index()].mean());
        }
        v
    }

    pub fn merge(mut self, other: ProfileAccumulator) -> ProfileAccumulator {
        for i in 0..8 {
            self.acc[i] = self.acc[i].merge(other.acc[i]);
        }
        self
    }
}

/// Normalize an entity's mean vector by the global (all-jobs) means:
/// `profile[m] = entity[m] / global[m]`. Metrics whose global mean is
/// zero or non-finite normalize to zero rather than NaN/∞.
pub fn normalize(entity: &KeyMetricVec, global: &KeyMetricVec) -> KeyMetricVec {
    entity.map(|m, v| {
        let g = global.get(m);
        if g.is_finite() && g != 0.0 {
            v / g
        } else {
            0.0
        }
    })
}

/// A labelled, normalized profile ready for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    pub label: String,
    pub values: KeyMetricVec,
    /// Node·hours behind this profile (its statistical weight).
    pub node_hours: f64,
}

impl Profile {
    /// Render one line per metric, `name value` — the dataset behind a
    /// radar chart.
    pub fn to_rows(&self) -> Vec<(String, f64)> {
        self.values.iter().map(|(m, v)| (m.name().to_string(), v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(vals: [f64; 8]) -> KeyMetricVec {
        KeyMetricVec(vals)
    }

    #[test]
    fn average_entity_normalizes_to_unit_octagon() {
        let global = vec_of([0.1, 8e9, 12e9, 5e9, 2e6, 1e5, 3e7, 2e6]);
        let profile = normalize(&global.clone(), &global);
        for (m, v) in profile.iter() {
            assert!((v - 1.0).abs() < 1e-12, "{m}");
        }
    }

    #[test]
    fn heavier_usage_exceeds_one() {
        let global = vec_of([0.1; 8]);
        let entity = vec_of([0.2; 8]);
        let p = normalize(&entity, &global);
        for (_, v) in p.iter() {
            assert!((v - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_global_mean_normalizes_to_zero_not_nan() {
        let mut global = vec_of([1.0; 8]);
        global.set(KeyMetric::IoWorkWrite, 0.0);
        let entity = vec_of([1.0; 8]);
        let p = normalize(&entity, &global);
        assert_eq!(p.get(KeyMetric::IoWorkWrite), 0.0);
        assert_eq!(p.get(KeyMetric::CpuIdle), 1.0);
    }

    #[test]
    fn accumulator_weights_jobs_by_node_hours() {
        let mut acc = ProfileAccumulator::new();
        let mut a = KeyMetricVec::default();
        a.set(KeyMetric::CpuIdle, 0.0);
        let mut b = KeyMetricVec::default();
        b.set(KeyMetric::CpuIdle, 1.0);
        acc.push(&a, 1.0);
        acc.push(&b, 9.0);
        assert!((acc.means().get(KeyMetric::CpuIdle) - 0.9).abs() < 1e-12);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.weight_sum(), 10.0);
    }

    #[test]
    fn accumulator_merge_matches_single_pass() {
        let jobs: Vec<(KeyMetricVec, f64)> = (0..20)
            .map(|i| {
                let mut v = KeyMetricVec::default();
                v.set(KeyMetric::CpuFlops, i as f64);
                v.set(KeyMetric::MemUsed, 100.0 - i as f64);
                (v, 1.0 + (i % 3) as f64)
            })
            .collect();
        let mut whole = ProfileAccumulator::new();
        for (v, w) in &jobs {
            whole.push(v, *w);
        }
        let mut left = ProfileAccumulator::new();
        let mut right = ProfileAccumulator::new();
        for (v, w) in &jobs[..7] {
            left.push(v, *w);
        }
        for (v, w) in &jobs[7..] {
            right.push(v, *w);
        }
        let merged = left.merge(right);
        for m in KeyMetric::ALL {
            assert!((whole.means().get(m) - merged.means().get(m)).abs() < 1e-9);
        }
    }

    #[test]
    fn profile_rows_cover_all_eight_metrics() {
        let p = Profile { label: "user 1".into(), values: vec_of([1.0; 8]), node_hours: 5.0 };
        let rows = p.to_rows();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].0, "cpu_idle");
    }
}
