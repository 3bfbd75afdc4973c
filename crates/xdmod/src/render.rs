//! Dataset renderers: aligned text tables, CSV, JSON chart series.

use crate::framework::Dataset;

/// Render rows as an aligned two-column text table with a title.
pub fn to_ascii_table(title: &str, ds: &Dataset, value_header: &str) -> String {
    let label_w =
        ds.rows.iter().map(|(l, _)| l.len()).chain([8]).max().unwrap_or(8).max(title.len().min(40));
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<label_w$}  {:>14}\n", "group", value_header));
    out.push_str(&format!("{}  {}\n", "-".repeat(label_w), "-".repeat(14)));
    for (label, value) in &ds.rows {
        out.push_str(&format!("{label:<label_w$}  {value:>14.4}\n"));
    }
    out
}

/// Render rows as CSV with a header.
pub fn to_csv(ds: &Dataset, value_header: &str) -> String {
    let mut out = format!("group,{value_header}\n");
    for (label, value) in &ds.rows {
        // Quote labels containing separators.
        if label.contains(',') || label.contains('"') {
            let escaped = label.replace('"', "\"\"");
            out.push_str(&format!("\"{escaped}\",{value}\n"));
        } else {
            out.push_str(&format!("{label},{value}\n"));
        }
    }
    out
}

/// Render an `(x, y)` chart series as JSON (what the XDMoD web front end
/// consumes).
pub fn to_json_series(name: &str, points: &[(f64, f64)]) -> String {
    use supremm_metrics::json::{obj, Value};
    let series: Vec<Value> =
        points.iter().map(|&(x, y)| Value::Array(vec![x.into(), y.into()])).collect();
    obj([("name", name.into()), ("data", Value::Array(series))]).to_string()
}

/// Sparkline-ish text rendering of a series (for terminal reports):
/// scales values into eight block characters.
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    if values.is_empty() || !max.is_finite() || !min.is_finite() {
        return String::new();
    }
    let span = (max - min).max(1e-30);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BLOCKS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset { rows: vec![("NAMD".into(), 320.5), ("AMBER, v12".into(), 50.0)] }
    }

    #[test]
    fn ascii_table_contains_rows_and_alignment() {
        let t = to_ascii_table("Node hours by app", &ds(), "node_hours");
        assert!(t.contains("Node hours by app"));
        assert!(t.contains("NAMD"));
        assert!(t.contains("320.5000"));
        // Header separator present.
        assert!(t.contains("----"));
    }

    #[test]
    fn csv_quotes_labels_with_commas() {
        let c = to_csv(&ds(), "node_hours");
        assert!(c.starts_with("group,node_hours\n"));
        assert!(c.contains("\"AMBER, v12\",50\n"));
        assert!(c.contains("NAMD,320.5\n"));
    }

    #[test]
    fn json_series_is_valid_json() {
        let j = to_json_series("flops", &[(0.0, 1.0), (600.0, 2.5)]);
        let v = supremm_metrics::json::Value::parse(&j).unwrap();
        assert_eq!(v["name"], "flops");
        assert_eq!(v["data"][1][1], 2.5);
    }

    #[test]
    fn sparkline_spans_blocks() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_constant_series_is_flat() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s, "▁▁▁");
    }
}
