//! From what a run measured to named metrics, the result JSON, the
//! printed table, and `--compare`.

use std::collections::BTreeMap;

use crate::api;
use crate::json::Json;
use crate::probe::Values;
use crate::run::{Measured, Run, FLEET, HISTORY, PANEL, POINT, RANGE};
use crate::spec::{Better, MetricDef, Spec, END_TO_END, PER_LAYER};
use crate::stat::{fastest, median};
use crate::trace;

/// Bytes a sample takes as the client hands it over: `(u64, f64)`.
const SAMPLE_BYTES: f64 = 16.0;

pub struct Metric {
    pub def: &'static MetricDef,
    pub value: f64,
    /// Samples behind the value; 0 for a count or a ratio of counts.
    pub n: usize,
}

pub struct Outcome {
    pub workload: &'static Spec,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub store_fs: String,
    pub metrics: Vec<Metric>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Samples per second over one write round, the round's time being the
/// sum of the fastest repeat of each of its apply groups (day-boundary
/// flush and retention pass included) plus its share of a compaction.
fn ingest_rate(m: &Measured) -> f64 {
    let groups_ms: f64 = m.ack_ms.best().iter().sum();
    let compact_ms = ratio(fastest(&m.compact_ms), m.compact_every_rounds as f64);
    ratio(m.round_samples as f64, (groups_ms + compact_ms) / 1e3)
}

pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let class = |c: usize| &m.class_ms[c];
    let values = [
        ("setup_s", median(&m.setup_s), m.setup_s.len()),
        ("ingest_samples_per_s", ingest_rate(m), m.ack_ms.count()),
        ("ack_ms_p50", m.ack_ms.p50(), m.ack_ms.count()),
        ("reopen_ms", fastest(&m.reopen_ms), m.reopen_ms.len()),
        (
            "disk_bytes_per_sample",
            ratio(m.disk_bytes as f64, m.samples_stored as f64),
            0,
        ),
        (
            "point_us_p50",
            class(POINT).p50() * 1e3,
            class(POINT).count(),
        ),
        ("range_ms_p50", class(RANGE).p50(), class(RANGE).count()),
        ("panel_ms_p50", class(PANEL).p50(), class(PANEL).count()),
    ];
    END_TO_END
        .iter()
        .map(|def| {
            let (_, value, n) = values
                .iter()
                .find(|(name, ..)| *name == def.name)
                .unwrap_or_else(|| panic!("no value computed for {}", def.name));
            Metric {
                def,
                value: *value,
                n: *n,
            }
        })
        .collect()
}

/// Traced over untraced cost per unit of work, less one.
fn overhead(rounds: impl Iterator<Item = (bool, f64)>) -> Option<(f64, f64)> {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (traced, cost) in rounds {
        if traced { &mut on } else { &mut off }.push(cost);
    }
    (!on.is_empty() && !off.is_empty()).then(|| (median(&on), median(&off)))
}

pub fn per_layer(run: &Run, probes: Values) -> Vec<Metric> {
    let m = &run.m;
    let mut v: Values = probes;
    let observe_ns = v.get("obs.observe_ns").copied().unwrap_or(0.0);
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };

    // S: spans around the engine's public calls.
    let spans = &m.tracer.spans;
    let dur = trace::durations(spans);
    let total = |name: &str| dur.get(name).map_or(0.0, |d| d.iter().sum::<u64>() as f64);
    let p50 = |name: &str| {
        median(
            &dur.get(name)
                .map_or(Vec::new(), |d| d.iter().map(|&ns| ns as f64).collect()),
        )
    };
    let append_ns = ratio(total("db.append_batch"), m.samples_traced as f64);
    set("db.append_ns_per_sample", append_ns);
    set("db.sync_us_p50", p50("db.sync") / 1e3);
    set("db.flush_ms_p50", p50("db.flush") / 1e6);
    set(
        "db.flush_ns_per_sample",
        ratio(total("db.flush"), m.samples_traced as f64),
    );
    set("db.compact_ms_p50", p50("db.compact") / 1e6);
    set(
        "db.compact_ns_per_sample",
        ratio(total("db.compact"), m.samples_compacted_traced as f64),
    );
    set("db.open_ms_p50", p50("db.open") / 1e6);
    set("db.stall_ms_max", median(&m.stall_ms));
    // Tails over operations, each at its fastest repeat: what is left is
    // the slow operation, not the slow moment.
    set("fleet_ms_p50", m.class_ms[FLEET].p50());
    set("history_ms_p50", m.class_ms[HISTORY].p50());
    set("ack_ms_p99", m.ack_ms.tail(99.0));
    set("range_ms_p99", m.class_ms[RANGE].tail(99.0));
    set("panel_ms_p99", m.class_ms[PANEL].tail(99.0));
    set("retention.pass_ms_p50", p50("db.enforce_retention") / 1e6);

    // C: exact counts of the write phase.
    if let Some(after) = &m.after_write {
        let counter = |name: &str| {
            let at = |s: &api::Snapshot| s.counter(name).unwrap_or(0);
            (at(after) - m.before_write.as_ref().map_or(0, at)) as f64
        };
        let observations = |name: &str| {
            let at = |s: &api::Snapshot| s.histogram(name).map_or(0, |h| h.count);
            (at(after) - m.before_write.as_ref().map_or(0, at)) as f64
        };
        let samples = m.counted_samples as f64;
        set("wal.fsyncs", observations(api::OBS_WAL_FSYNC));
        let written = m.wal_bytes as f64
            + counter(api::OBS_FLUSH_BYTES)
            + counter(api::OBS_COMPACT_BYTES)
            + m.rollup_bytes as f64;
        set("db.write_amp", ratio(written, SAMPLE_BYTES * samples));
        let flushed_ever = after.counter(api::OBS_FLUSH_BYTES).unwrap_or(0) as f64;
        set(
            "retention.kept_bytes_share",
            ratio(m.disk_bytes as f64, flushed_ever),
        );
        let bins: Vec<f64> = m.rollup_bins.iter().map(|&b| b as f64).collect();
        set("retention.rollup_bins_per_pass", median(&bins));
        let observed_per_sample = ratio(observations(api::OBS_WAL_APPEND), samples);
        set(
            "obs.share_of_append.b1",
            ratio(observed_per_sample * observe_ns, append_ns),
        );
    }
    for (i, tier) in ["raw", "rollup_3600", "rollup_86400"].iter().enumerate() {
        set(
            &format!("retention.tier_hits.{tier}"),
            m.tier_hits[i] as f64,
        );
    }

    // The harness: traced against untraced rounds of the same work, each
    // phase weighted by the time it took; and how much of the traced
    // rounds' wall time the top-level spans cover.
    let write = overhead(m.write_rounds.iter().map(|r| (r.traced, r.group_ns as f64)));
    let read = overhead(m.read_rounds.iter().map(|r| (r.traced, r.busy_ns as f64)));
    let (extra, base) = [write, read]
        .iter()
        .flatten()
        .fold((0.0, 0.0), |(extra, base), (on, off)| {
            (extra + (on - off) / off, base + 1.0)
        });
    set("trace.overhead_share", ratio(extra, base));
    let traced_wall: u64 = m
        .write_rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.wall_ns)
        .sum::<u64>()
        + m.read_rounds
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.wall_ns)
            .sum::<u64>();
    // Reopens are traced too, but belong to no round.
    let in_rounds = trace::top_level_ns(spans) as f64 - total("reopen");
    set("trace.span_coverage", ratio(in_rounds, traced_wall as f64));

    let unknown: Vec<&String> = v
        .keys()
        .filter(|k| !PER_LAYER.iter().any(|d| d.name == k.as_str()))
        .collect();
    assert!(
        unknown.is_empty(),
        "metrics computed but not declared: {unknown:?}"
    );
    PER_LAYER
        .iter()
        .map(|def| Metric {
            def,
            value: v.get(def.name).copied().unwrap_or(0.0),
            n: 0,
        })
        .collect()
}

impl Outcome {
    pub fn new(run: &Run, trace: bool, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            workload: run.spec,
            trace,
            attempted: run.m.attempted,
            failed: run.m.failed,
            failures: run.m.failures.clone(),
            store_fs: run.m.store_fs.clone(),
            metrics,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result the benchmark contract asks for.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let fields = [
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.def.unit)),
                    ];
                    (m.def.name, Json::obj(fields))
                })),
            ),
        ])
    }

    pub fn print_table(&self) {
        println!(
            "# {} ({}): {} operations, {} failed, failed_ops_share {}, store on {}",
            self.workload.name,
            if self.trace {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            },
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64),
            self.store_fs,
        );
        println!("# {}", self.workload.why);
        for m in &self.metrics {
            let n = if m.n > 0 {
                format!("  (n={})", m.n)
            } else {
                String::new()
            };
            println!("{:<42} {:>16.4} {}{}", m.def.name, m.value, m.def.unit, n);
        }
        for why in &self.failures {
            println!("FAILED: {why}");
        }
    }
}

/// `(workload, metric)` → values, from result files as the run-all mode
/// writes them. Only untraced (end-to-end) results are compared.
fn load(paths: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for path in paths.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        for result in doc.get("results").map_or(&[][..], Json::as_arr) {
            let workload = result.get("workload").and_then(Json::as_str).unwrap_or("?");
            if result.get("trace") != Some(&Json::Bool(false)) {
                continue;
            }
            for (name, m) in result.get("metrics").map_or(&[][..], Json::as_obj) {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Relative worsening of `b` against `a`; negative when `b` is better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => ratio(b - a, a),
        Better::Higher => ratio(a - b, a),
    }
}

/// Compare the medians of two sets of result files (each a comma-separated
/// list). Prints one line per (metric, workload); returns how many
/// worsened beyond their bound.
pub fn compare(a: &str, b: &str) -> Result<usize, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut beyond = 0;
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound"
    );
    for ((workload, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(def) = END_TO_END.iter().find(|d| d.name == name) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let worse = worsening(def.better, ma, mb);
        let mark = if worse > def.bound {
            "  BEYOND BOUND"
        } else {
            ""
        };
        beyond += usize::from(worse > def.bound);
        println!(
            "{workload:<14} {name:<24} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.1}%{mark}",
            worse * 100.0,
            def.bound * 100.0
        );
    }
    Ok(beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 8.0) - 0.2).abs() < 1e-12);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
        assert!(worsening(Better::Higher, 10.0, 11.0) < 0.0);
    }

    /// Every end-to-end metric is emitted, under its declared name, and
    /// the result line reads back as it was written.
    #[test]
    fn result_line_holds_every_end_to_end_metric_and_round_trips() {
        let mut m = Measured::default();
        m.setup_s = vec![0.5, 0.25, 0.75];
        m.attempted = 10;
        let metrics = end_to_end(&m);
        let names: Vec<&str> = metrics.iter().map(|x| x.def.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        let outcome = Outcome {
            workload: &crate::spec::WORKLOADS[0],
            trace: false,
            attempted: m.attempted,
            failed: 0,
            failures: Vec::new(),
            store_fs: "tmpfs".into(),
            metrics,
        };
        let line = outcome.to_json().to_string();
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, outcome.to_json());
        let keys: Vec<&str> = back.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn overhead_needs_both_kinds_of_round() {
        assert_eq!(
            overhead([(true, 11.0), (false, 10.0), (true, 13.0)].into_iter()),
            Some((12.0, 10.0))
        );
        assert_eq!(overhead([(false, 10.0)].into_iter()), None);
    }
}
