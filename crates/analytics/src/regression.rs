//! Ordinary least squares with inference.
//!
//! Figure 6 of the paper reports, for the combined persistence fit,
//! intercept/slope *with standard errors and p-values* plus R²
//! (Ranger: intercept −0.17(6) p=0.016, slope 0.36(2) p=5e−12, R²=0.87).
//! Reproducing those numbers needs a real OLS implementation: standard
//! errors from the residual variance and two-sided p-values from the
//! Student-t distribution (via the regularized incomplete beta function).

/// Result of a simple linear fit `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    pub intercept: f64,
    pub slope: f64,
    pub intercept_se: f64,
    pub slope_se: f64,
    /// Two-sided p-value of the intercept against 0.
    pub intercept_p: f64,
    /// Two-sided p-value of the slope against 0.
    pub slope_p: f64,
    pub r_squared: f64,
    pub n: usize,
}

impl LinearFit {
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fit `y = a + b·x` by OLS. Returns `None` for fewer than 3 points or a
/// degenerate (constant-x) design.
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    if n < 3 {
        return None;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxx += (a - mx) * (a - mx);
        sxy += (a - mx) * (b - my);
        syy += (b - my) * (b - my);
    }
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let df = nf - 2.0;
    // Residual sum of squares.
    let rss: f64 = x
        .iter()
        .zip(y)
        .map(|(&a, &b)| {
            let e = b - (intercept + slope * a);
            e * e
        })
        .sum();
    let sigma2 = rss / df;
    let slope_se = (sigma2 / sxx).sqrt();
    let intercept_se = (sigma2 * (1.0 / nf + mx * mx / sxx)).sqrt();
    let r_squared = if syy > 0.0 { 1.0 - rss / syy } else { 1.0 };
    let t_slope = slope / slope_se;
    let t_intercept = intercept / intercept_se;
    Some(LinearFit {
        intercept,
        slope,
        intercept_se,
        slope_se,
        intercept_p: student_t_two_sided(t_intercept, df),
        slope_p: student_t_two_sided(t_slope, df),
        r_squared,
        n,
    })
}

/// Two-sided p-value for a t statistic with `df` degrees of freedom:
/// `P(|T| >= |t|) = I_{df/(df+t²)}(df/2, 1/2)`.
pub fn student_t_two_sided(t: f64, df: f64) -> f64 {
    if !t.is_finite() {
        return 0.0;
    }
    let x = df / (df + t * t);
    incomplete_beta(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// ln Γ via the Lanczos approximation (g = 7, n = 9).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = 0.999_999_999_999_81;
    for (i, &c) in COEFFS.iter().enumerate() {
        a += c / (x + i as f64 + 1.0);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta `I_x(a, b)` via the continued fraction
/// (Numerical Recipes `betacf`, with the symmetry transformation).
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovers_coefficients() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.5 * v - 1.0).collect();
        let f = linear_fit(&x, &y).unwrap();
        assert!((f.slope - 2.5).abs() < 1e-10);
        assert!((f.intercept + 1.0).abs() < 1e-10);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert!(f.slope_p < 1e-10);
    }

    #[test]
    fn noisy_line_fit_is_reasonable() {
        // Deterministic noise.
        let x: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 3.0 * v + 1.0 + ((i * 7919 % 100) as f64 / 100.0 - 0.5))
            .collect();
        let f = linear_fit(&x, &y).unwrap();
        assert!((f.slope - 3.0).abs() < 0.05, "{}", f.slope);
        assert!((f.intercept - 1.0).abs() < 0.2, "{}", f.intercept);
        assert!(f.r_squared > 0.99);
        assert!(f.slope_se > 0.0 && f.intercept_se > 0.0);
    }

    #[test]
    fn pure_noise_has_insignificant_slope() {
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| ((i * 2654435761u64 as usize) % 100) as f64).collect();
        let f = linear_fit(&x, &y).unwrap();
        assert!(f.slope_p > 0.05, "p={}", f.slope_p);
        assert!(f.r_squared < 0.2);
    }

    #[test]
    fn degenerate_designs_return_none() {
        assert!(linear_fit(&[1.0, 2.0], &[1.0, 2.0]).is_none());
        assert!(linear_fit(&[3.0; 10], &(0..10).map(|i| i as f64).collect::<Vec<_>>()).is_none());
    }

    #[test]
    fn incomplete_beta_reference_values() {
        // I_x(a,b) checked against scipy.special.betainc.
        let cases = [
            (0.5, 0.5, 0.5, 0.5),
            (2.0, 3.0, 0.4, 0.5248),
            (5.0, 1.0, 0.8, 0.32768),
            (1.0, 1.0, 0.25, 0.25),
        ];
        for (a, b, x, want) in cases {
            let got = incomplete_beta(a, b, x);
            assert!((got - want).abs() < 2e-4, "I_{x}({a},{b}) = {got}, want {want}");
        }
    }

    #[test]
    fn t_distribution_reference_values() {
        // Two-sided p-values checked against scipy.stats.t.sf(t, df)*2.
        let cases =
            [(2.0, 10.0, 0.0734), (1.0, 5.0, 0.3632), (3.5, 30.0, 0.00147), (0.0, 7.0, 1.0)];
        for (t, df, want) in cases {
            let got = student_t_two_sided(t, df);
            assert!(
                (got - want).abs() < f64::max(2e-3, want * 0.05),
                "p(|T|>{t}, df={df}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn t_p_value_is_symmetric_in_sign() {
        let p_pos = student_t_two_sided(2.3, 12.0);
        let p_neg = student_t_two_sided(-2.3, 12.0);
        assert!((p_pos - p_neg).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..10 {
            let fact: u64 = (1..n).product();
            let got = ln_gamma(n as f64);
            assert!((got - (fact as f64).ln()).abs() < 1e-9, "Γ({n})");
        }
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }
}
