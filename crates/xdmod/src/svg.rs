//! SVG chart rendering — the paper's figures as actual images.
//!
//! XDMoD is a charting product; the paper's radar charts (Figures 2, 3,
//! 5), time series (Figures 8, 9, 11) and densities (Figures 10, 12) are
//! its bread and butter. This module renders those three chart families
//! as standalone SVG documents with no dependencies, so the examples and
//! the `supremm` CLI can write real figures next to the text reports.

use supremm_analytics::profile::Profile;
use supremm_metrics::KeyMetric;

const W: f64 = 640.0;
const H: f64 = 480.0;
const PALETTE: [&str; 6] = ["#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951", "#a463f2"];

fn svg_header(title: &str) -> String {
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\">\n\
         <rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\n\
         <text x=\"{}\" y=\"24\" text-anchor=\"middle\" font-size=\"16\">{}</text>\n",
        W / 2.0,
        escape(title)
    )
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// A radar (spider) chart of normalized 8-metric profiles — the paper's
/// Figure 2/3/5 presentation. The unit octagon (the "average" entity) is
/// drawn as a reference ring.
pub fn radar_chart(title: &str, profiles: &[Profile]) -> String {
    let cx = W / 2.0;
    let cy = H / 2.0 + 12.0;
    let r_max = 160.0;
    // Scale: the largest value (or 2.0, whichever is bigger) maps to r_max.
    let v_max =
        profiles.iter().flat_map(|p| p.values.iter().map(|(_, v)| v)).fold(2.0f64, f64::max);
    let angle = |i: usize| {
        std::f64::consts::TAU * i as f64 / KeyMetric::ALL.len() as f64 - std::f64::consts::FRAC_PI_2
    };
    let point = |i: usize, v: f64| {
        let r = (v / v_max).min(1.0) * r_max;
        (cx + r * angle(i).cos(), cy + r * angle(i).sin())
    };

    let mut out = svg_header(title);
    // Spokes + axis labels.
    for (i, m) in KeyMetric::ALL.iter().enumerate() {
        let (x, y) = point(i, v_max);
        out.push_str(&format!(
            "<line x1=\"{cx}\" y1=\"{cy}\" x2=\"{x:.1}\" y2=\"{y:.1}\" stroke=\"#ddd\"/>\n"
        ));
        let (lx, ly) = point(i, v_max * 1.13);
        out.push_str(&format!(
            "<text x=\"{lx:.1}\" y=\"{ly:.1}\" text-anchor=\"middle\" font-size=\"11\" fill=\"#555\">{}</text>\n",
            m.name()
        ));
    }
    // The unit ring (average = 1.0).
    let ring: Vec<String> = (0..KeyMetric::ALL.len())
        .map(|i| {
            let (x, y) = point(i, 1.0);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    out.push_str(&format!(
        "<polygon points=\"{}\" fill=\"none\" stroke=\"#999\" stroke-dasharray=\"4 3\"/>\n",
        ring.join(" ")
    ));
    // One polygon per profile.
    for (pi, p) in profiles.iter().enumerate() {
        let color = PALETTE[pi % PALETTE.len()];
        let pts: Vec<String> = p
            .values
            .iter()
            .enumerate()
            .map(|(i, (_, v))| {
                let (x, y) = point(i, v);
                format!("{x:.1},{y:.1}")
            })
            .collect();
        out.push_str(&format!(
            "<polygon points=\"{}\" fill=\"{color}\" fill-opacity=\"0.12\" stroke=\"{color}\" stroke-width=\"1.8\"/>\n",
            pts.join(" ")
        ));
        // Legend.
        let ly = 44.0 + 16.0 * pi as f64;
        out.push_str(&format!(
            "<rect x=\"16\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n\
             <text x=\"32\" y=\"{:.1}\" font-size=\"11\">{}</text>\n",
            ly - 9.0,
            ly,
            escape(&p.label)
        ));
    }
    out.push_str("</svg>\n");
    out
}

/// A time-series line chart (Figures 8, 9, 11). `series` is a list of
/// `(label, points)`; x values are shared sample indices.
pub fn line_chart(title: &str, y_label: &str, series: &[(&str, Vec<f64>)]) -> String {
    let (x0, y0, x1, y1) = (70.0, 50.0, W - 20.0, H - 40.0);
    let n = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0).max(2);
    let v_max = series
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1e-12);
    let v_min =
        series.iter().flat_map(|(_, s)| s.iter().copied()).fold(f64::INFINITY, f64::min).min(0.0);
    let sx = |i: usize| x0 + (x1 - x0) * i as f64 / (n - 1) as f64;
    let sy = |v: f64| y1 - (y1 - y0) * (v - v_min) / (v_max - v_min);

    let mut out = svg_header(title);
    // Axes + gridlines with tick labels.
    out.push_str(&format!(
        "<line x1=\"{x0}\" y1=\"{y1}\" x2=\"{x1}\" y2=\"{y1}\" stroke=\"#333\"/>\n\
         <line x1=\"{x0}\" y1=\"{y0}\" x2=\"{x0}\" y2=\"{y1}\" stroke=\"#333\"/>\n"
    ));
    for k in 0..=4 {
        let v = v_min + (v_max - v_min) * k as f64 / 4.0;
        let y = sy(v);
        out.push_str(&format!(
            "<line x1=\"{x0}\" y1=\"{y:.1}\" x2=\"{x1}\" y2=\"{y:.1}\" stroke=\"#eee\"/>\n\
             <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\" font-size=\"10\" fill=\"#555\">{v:.3}</text>\n",
            x0 - 6.0,
            y + 3.0
        ));
    }
    out.push_str(&format!(
        "<text x=\"16\" y=\"{:.1}\" font-size=\"11\" fill=\"#555\" transform=\"rotate(-90 16 {:.1})\">{}</text>\n",
        (y0 + y1) / 2.0,
        (y0 + y1) / 2.0,
        escape(y_label)
    ));
    for (si, (label, s)) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        let pts: Vec<String> =
            s.iter().enumerate().map(|(i, &v)| format!("{:.1},{:.1}", sx(i), sy(v))).collect();
        out.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.4\"/>\n",
            pts.join(" ")
        ));
        let ly = 44.0 + 16.0 * si as f64;
        out.push_str(&format!(
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n\
             <text x=\"{:.1}\" y=\"{ly:.1}\" font-size=\"11\">{}</text>\n",
            x1 - 150.0,
            ly - 9.0,
            x1 - 134.0,
            escape(label)
        ));
    }
    out.push_str("</svg>\n");
    out
}

/// A density chart from `(x, density)` pairs (Figures 10, 12) — one curve
/// per labelled dataset.
pub fn density_chart(title: &str, x_label: &str, curves: &[(&str, Vec<(f64, f64)>)]) -> String {
    let series: Vec<(&str, Vec<f64>)> =
        curves.iter().map(|(label, pts)| (*label, pts.iter().map(|&(_, d)| d).collect())).collect();
    let mut out = line_chart(title, "density", &series);
    // Replace the closing tag to append the x-label.
    out.truncate(out.len() - "</svg>\n".len());
    out.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\" font-size=\"11\" fill=\"#555\">{}</text>\n</svg>\n",
        W / 2.0,
        H - 12.0,
        escape(x_label)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::metric::KeyMetricVec;

    fn profile(label: &str, v: f64) -> Profile {
        Profile { label: label.into(), values: KeyMetricVec([v; 8]), node_hours: 10.0 }
    }

    fn assert_valid_svg(svg: &str) {
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Balanced tags for the elements we emit.
        for tag in ["polygon", "polyline", "line", "text", "rect"] {
            let opens = svg.matches(&format!("<{tag} ")).count();
            let closes = svg.matches("/>").count() + svg.matches("</").count();
            assert!(opens <= closes, "{tag} unbalanced");
        }
    }

    #[test]
    fn radar_renders_profiles_and_reference_ring() {
        let svg = radar_chart("Figure 2", &[profile("u1", 0.5), profile("u2", 1.8)]);
        assert_valid_svg(&svg);
        // Two data polygons + one reference ring.
        assert_eq!(svg.matches("<polygon").count(), 3);
        assert!(svg.contains("cpu_idle"));
        assert!(svg.contains("u1") && svg.contains("u2"));
    }

    #[test]
    fn line_chart_scales_to_data() {
        let svg = line_chart("Figure 9", "TF", &[("flops", vec![0.0, 5.0, 2.5, 10.0])]);
        assert_valid_svg(&svg);
        assert!(svg.contains("polyline"));
        assert!(svg.contains("10.000"), "max tick present: {svg}");
    }

    #[test]
    fn density_chart_has_two_curves_and_x_label() {
        let a: Vec<(f64, f64)> =
            (0..32).map(|i| (i as f64, (i as f64 / 10.0).sin().abs())).collect();
        let svg = density_chart("Figure 12", "GB", &[("mem_used", a.clone()), ("mem_used_max", a)]);
        assert_valid_svg(&svg);
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains(">GB<"));
    }

    #[test]
    fn labels_are_escaped() {
        let svg = radar_chart("a < b & c", &[profile("<script>", 1.0)]);
        assert!(!svg.contains("<script>"));
        assert!(svg.contains("&lt;script&gt;"));
        assert!(svg.contains("a &lt; b &amp; c"));
    }
}
