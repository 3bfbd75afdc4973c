//! Analytics kernels: the statistical machinery under the reports.

use std::hint::black_box;

use supremm_analytics::persistence::persistence_ratios;
use supremm_analytics::stats::Moments;
use supremm_analytics::{correlation_matrix, linear_fit, Kde};
use supremm_bench::bench;

/// Deterministic pseudo-random series.
fn series(n: usize, salt: u64) -> Vec<f64> {
    let mut state = salt.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut x = 0.0f64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let z = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            x = 0.95 * x + z;
            x
        })
        .collect()
}

fn main() {
    let data = series(5_000, 1);
    bench("analytics/welford_5k", None, || black_box(Moments::from_slice(black_box(&data))));

    let vars: Vec<Vec<f64>> = (0..20).map(|i| series(2_000, i)).collect();
    bench("analytics/correlation_matrix_20x2k", None, || {
        black_box(correlation_matrix(black_box(&vars)))
    });

    let long = series(4_320, 7); // 30 days of 10-min bins
    bench("analytics/persistence_ratios_30d", None, || {
        black_box(persistence_ratios(black_box(&long), 10.0, &[1, 3, 10, 50, 100]))
    });

    let kde_data = series(2_000, 9);
    let kde = Kde::fit(&kde_data);
    bench("analytics/kde_fit_2k", None, || black_box(Kde::fit(black_box(&kde_data))));
    bench("analytics/kde_grid_512_over_2k", None, || black_box(kde.grid(512)));

    let x: Vec<f64> = (0..1_000).map(|i| i as f64).collect();
    let y = series(1_000, 11);
    bench("analytics/ols_fit_1k", None, || black_box(linear_fit(black_box(&x), black_box(&y))));
}
