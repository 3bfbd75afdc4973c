//! Anomaly flagging for jobs and users with aberrant resource profiles.
//!
//! §4.3.1: "Anomalous resource use patterns may be an indicator of
//! undetected bugs in a program. They are also commonly the precursors of
//! job failures." The detector uses the robust modified z-score
//! (median/MAD), which tolerates the heavy-tailed usage distributions
//! HPC workloads actually have.

/// Robust location/scale of a sample: `(median, MAD)`.
pub fn median_mad(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty());
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let mut dev: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    (median, dev[dev.len() / 2])
}

/// Modified z-score `0.6745·(x − median)/MAD` (Iglewicz & Hoaglin).
/// Returns 0 when the MAD is zero (more than half the sample identical).
pub fn modified_z(x: f64, median: f64, mad: f64) -> f64 {
    if mad <= 0.0 {
        return 0.0;
    }
    0.6745 * (x - median) / mad
}

/// One flagged entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Outlier<K> {
    pub key: K,
    pub value: f64,
    pub score: f64,
}

/// Flag entities whose value's |modified z| exceeds `threshold`
/// (conventionally 3.5). Results are sorted by descending |score|.
pub fn flag_outliers<K: Clone>(
    entities: impl IntoIterator<Item = (K, f64)>,
    threshold: f64,
) -> Vec<Outlier<K>> {
    let items: Vec<(K, f64)> = entities.into_iter().collect();
    if items.len() < 4 {
        return Vec::new();
    }
    let values: Vec<f64> = items.iter().map(|(_, v)| *v).collect();
    let (median, mad) = median_mad(&values);
    let mut out: Vec<Outlier<K>> = items
        .into_iter()
        .filter_map(|(key, value)| {
            let score = modified_z(value, median, mad);
            (score.abs() > threshold).then(|| Outlier { key, value, score })
        })
        .collect();
    out.sort_by(|a, b| b.score.abs().total_cmp(&a.score.abs()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mad_basics() {
        let (med, mad) = median_mad(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(med, 3.0);
        assert_eq!(mad, 1.0);
    }

    #[test]
    fn obvious_outlier_is_flagged_first() {
        let data: Vec<(u32, f64)> =
            (0..50).map(|i| (i, 10.0 + (i % 5) as f64 * 0.1)).chain([(99, 50.0)]).collect();
        let flags = flag_outliers(data, 3.5);
        assert!(!flags.is_empty());
        assert_eq!(flags[0].key, 99);
        assert!(flags[0].score > 3.5);
    }

    #[test]
    fn clean_data_produces_no_flags() {
        let data: Vec<(u32, f64)> = (0..50).map(|i| (i, 5.0 + (i % 7) as f64 * 0.2)).collect();
        assert!(flag_outliers(data, 3.5).is_empty());
    }

    #[test]
    fn low_outliers_also_flagged() {
        let data: Vec<(u32, f64)> =
            (0..40).map(|i| (i, 100.0 + (i % 3) as f64)).chain([(7_000, 1.0)]).collect();
        let flags = flag_outliers(data, 3.5);
        assert_eq!(flags[0].key, 7_000);
        assert!(flags[0].score < -3.5);
    }

    #[test]
    fn tiny_samples_are_not_judged() {
        assert!(flag_outliers(vec![(1, 1.0), (2, 100.0)], 3.5).is_empty());
    }

    #[test]
    fn degenerate_mad_means_no_flags() {
        // More than half identical -> MAD 0 -> nothing flagged.
        let data: Vec<(u32, f64)> = (0..10).map(|i| (i, 5.0)).chain([(99, 1e9)]).collect();
        assert!(flag_outliers(data, 3.5).is_empty());
    }
}
