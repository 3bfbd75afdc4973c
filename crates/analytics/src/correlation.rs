//! Pearson correlation and the minimal-independent-metric selection.
//!
//! §4.2: "We have chosen these eight based on a correlation analysis over
//! all of the measured metrics. We found that there are many highly
//! correlated or anti-correlated metrics, such as cpu user is negatively
//! correlated to cpu idle, or net ib rx is positively correlated to net
//! ib tx. Therefore, we have selected the smallest independent set of
//! metrics that describe the execution behavior of the job mix."

/// Pearson correlation of two equal-length series. `NaN` when either
/// side is constant.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len() as f64;
    if x.is_empty() {
        return f64::NAN;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    sxy / (sxx * syy).sqrt()
}

/// Full correlation matrix of `vars` (each an equal-length series),
/// computed over the upper triangle and mirrored.
pub fn correlation_matrix(vars: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let k = vars.len();
    let mut m = vec![vec![0.0; k]; k];
    for i in 0..k {
        for j in i..k {
            let v = if i == j { 1.0 } else { pearson(&vars[i], &vars[j]) };
            m[i][j] = v;
            m[j][i] = v;
        }
    }
    m
}

/// Select a (greedy) smallest independent subset: walk candidates in
/// priority order, keep one iff its |r| against every already-kept metric
/// is below `threshold`. Returns kept indices.
///
/// `priority` orders the candidates (the paper keeps the most
/// operationally meaningful member of each correlated cluster — e.g.
/// `cpu_idle` rather than `cpu_user`); pass `0..k` for no preference.
pub fn select_independent(corr: &[Vec<f64>], priority: &[usize], threshold: f64) -> Vec<usize> {
    let mut kept: Vec<usize> = Vec::new();
    for &i in priority {
        let independent = kept.iter().all(|&j| {
            let r = corr[i][j];
            r.is_nan() || r.abs() < threshold
        });
        if independent {
            kept.push(i);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..200).map(f).collect()
    }

    #[test]
    fn perfect_correlation_and_anticorrelation() {
        let x = series(|i| i as f64);
        let y = series(|i| 3.0 * i as f64 + 7.0);
        let z = series(|i| -2.0 * i as f64);
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_series_are_uncorrelated() {
        // Deterministic pseudo-random pair with no linear relation.
        let x = series(|i| ((i * 2654435761) % 1000) as f64);
        let y = series(|i| ((i * 40503 + 7) % 997) as f64);
        assert!(pearson(&x, &y).abs() < 0.15);
    }

    #[test]
    fn constant_series_gives_nan() {
        let x = series(|_| 4.0);
        let y = series(|i| i as f64);
        assert!(pearson(&x, &y).is_nan());
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let vars =
            vec![series(|i| i as f64), series(|i| (i as f64).sin()), series(|i| -(i as f64) + 3.0)];
        let m = correlation_matrix(&vars);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i]);
            }
        }
        assert!((m[0][2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn selection_drops_correlated_partners() {
        // 0 and 1 perfectly anticorrelated; 2 independent.
        let vars = vec![
            series(|i| i as f64),
            series(|i| -(i as f64)),
            series(|i| ((i * 2654435761) % 1000) as f64),
        ];
        let m = correlation_matrix(&vars);
        let kept = select_independent(&m, &[0, 1, 2], 0.8);
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn priority_order_decides_the_survivor() {
        let vars = vec![series(|i| i as f64), series(|i| -(i as f64))];
        let m = correlation_matrix(&vars);
        assert_eq!(select_independent(&m, &[1, 0], 0.8), vec![1]);
        assert_eq!(select_independent(&m, &[0, 1], 0.8), vec![0]);
    }

    #[test]
    fn threshold_one_keeps_everything_noncollinear() {
        let vars = vec![series(|i| i as f64), series(|i| (i as f64) * 0.9 + 1.0)];
        let m = correlation_matrix(&vars);
        // r ≈ 1.0, threshold 1.0 is exclusive but |r| < 1 only numerically;
        // use a strictly higher threshold to keep both.
        let kept = select_independent(&m, &[0, 1], 1.1);
        assert_eq!(kept, vec![0, 1]);
    }
}
