//! The custom report builder.
//!
//! §4.3: XDMoD "has many analyses reports preprogrammed and also the
//! option for stakeholders to define custom reports" — and the real
//! product ships a report builder that assembles selected panels into a
//! periodic document for center directors. This module is that feature:
//! a [`ReportSpec`] lists sections; [`build_report`] renders them into
//! one markdown document against a warehouse.

use supremm_metrics::KeyMetric;
use supremm_warehouse::{JobTable, SystemSeries};

use crate::framework::{run, Dimension, Query, Statistic};
use crate::reports;

/// One section of a custom report.
#[derive(Debug, Clone, PartialEq)]
pub enum Section {
    /// Free-text introduction.
    Preamble(String),
    /// Headline numbers: jobs, node-hours, users, efficiency.
    Summary,
    /// Any framework query, rendered as a markdown table.
    QueryTable { title: String, query: Query, value_header: String, top: Option<usize> },
    /// Normalized profiles of the top-N users (Figure 2 style).
    TopUserProfiles(usize),
    /// The wasted-node-hours summary (Figure 4 style).
    Efficiency,
    /// Per-mount Lustre + CPU-state + memory-per-core panels (Figure 7).
    SystemPanels,
    /// Utilisation trend + forecast (§4.3.5).
    Trend,
}

/// A custom report definition.
#[derive(Debug, Clone)]
pub struct ReportSpec {
    pub title: String,
    pub sections: Vec<Section>,
}

impl ReportSpec {
    /// The canned "center director monthly" report.
    pub fn center_monthly() -> ReportSpec {
        ReportSpec {
            title: "Center Operations Report".to_string(),
            sections: vec![
                Section::Summary,
                Section::QueryTable {
                    title: "Node-hours by application".into(),
                    query: Query {
                        dimension: Dimension::Application,
                        statistic: Statistic::NodeHours,
                        filters: vec![],
                    },
                    value_header: "node-hours".into(),
                    top: Some(10),
                },
                Section::QueryTable {
                    title: "Node-hours by parent science".into(),
                    query: Query {
                        dimension: Dimension::ScienceField,
                        statistic: Statistic::NodeHours,
                        filters: vec![],
                    },
                    value_header: "node-hours".into(),
                    top: None,
                },
                Section::Efficiency,
                Section::TopUserProfiles(5),
                Section::SystemPanels,
                Section::Trend,
            ],
        }
    }
}

/// Everything a report needs to render.
pub struct ReportInputs<'a> {
    pub table: &'a JobTable,
    pub series: &'a SystemSeries,
    pub node_count: u32,
    pub cores_per_node: u32,
    /// Label for the reporting window, e.g. "June 2011 – January 2013".
    pub window: String,
    pub machine: String,
}

fn md_table(title: &str, rows: &[(String, f64)], value_header: &str) -> String {
    let mut out = format!("### {title}\n\n| group | {value_header} |\n|---|---:|\n");
    for (label, value) in rows {
        out.push_str(&format!("| {label} | {value:.2} |\n"));
    }
    out.push('\n');
    out
}

/// Render a spec into one markdown document.
pub fn build_report(spec: &ReportSpec, inputs: &ReportInputs<'_>) -> String {
    let mut out =
        format!("# {} — {}\n\n*window: {}*\n\n", spec.title, inputs.machine, inputs.window);
    for section in &spec.sections {
        match section {
            Section::Preamble(text) => {
                out.push_str(text);
                out.push_str("\n\n");
            }
            Section::Summary => {
                let users = inputs.table.group_by(|j| j.user).len();
                out.push_str("## Summary\n\n");
                out.push_str(&format!(
                    "- jobs ingested: **{}**\n- node-hours delivered: **{:.0}**\n\
                     - distinct users: **{}**\n- node-hour-weighted mean job length: **{:.0} min**\n\n",
                    inputs.table.len(),
                    inputs.table.total_node_hours(),
                    users,
                    inputs.table.weighted_mean_job_len_min(),
                ));
            }
            Section::QueryTable { title, query, value_header, top } => {
                let mut ds = run(inputs.table, query);
                if let Some(n) = top {
                    ds.rows.truncate(*n);
                }
                out.push_str(&md_table(title, &ds.rows, value_header));
            }
            Section::TopUserProfiles(n) => {
                out.push_str(&format!("### Top-{n} user profiles (1.0 = machine average)\n\n"));
                out.push_str("| user | node-hrs |");
                for m in KeyMetric::ALL {
                    out.push_str(&format!(" {} |", m.name()));
                }
                out.push_str("\n|---|---:|");
                out.push_str(&"---:|".repeat(8));
                out.push('\n');
                for p in reports::user_profiles(inputs.table, *n) {
                    out.push_str(&format!("| {} | {:.0} |", p.label, p.node_hours));
                    for (_, v) in p.values.iter() {
                        out.push_str(&format!(" {v:.2} |"));
                    }
                    out.push('\n');
                }
                out.push('\n');
            }
            Section::Efficiency => {
                let w = reports::wasted_hours(inputs.table);
                out.push_str("### Efficiency\n\n");
                out.push_str(&format!(
                    "- machine average efficiency: **{:.1} %**\n- users above the efficiency line: **{}**\n",
                    w.average_efficiency * 100.0,
                    w.above_line().count()
                ));
                if let Some(worst) = w.worst_heavy_offender(0.5) {
                    out.push_str(&format!(
                        "- worst heavy offender: **{}** ({:.0} node-hrs at {:.0} % idle)\n",
                        worst.key,
                        worst.usage.node_hours,
                        worst.usage.idle_frac() * 100.0
                    ));
                }
                out.push('\n');
            }
            Section::SystemPanels => {
                let a = reports::mem_per_core_by_science(inputs.table, inputs.cores_per_node);
                out.push_str(&md_table(
                    "Memory per core by parent science [GB]",
                    &a.rows,
                    "GB/core",
                ));
                let b = reports::cpu_hours_breakdown(inputs.series);
                out.push_str(&md_table("CPU node-hours by state", &b.rows, "node-hours"));
                let c = reports::lustre_throughput(inputs.series);
                out.push_str(&md_table("Lustre throughput by mount [MB/s]", &c.rows, "MB/s"));
            }
            Section::Trend => {
                out.push_str("### Utilisation trend\n\n");
                match reports::utilization_trend(inputs.series, inputs.node_count) {
                    Some(t) => out.push_str(&format!(
                        "- mean busy share: **{:.1} %**\n- diurnal swing: **{:.1} pp**\n\
                         - growth: **{:+.2} pp/day**{}\n- one-day-ahead forecast: \
                         **{:.1} %** [{:.1}, {:.1}]\n\n",
                        t.mean_busy_share * 100.0,
                        t.diurnal_swing * 100.0,
                        t.growth_per_day * 100.0,
                        if t.growth_significant { " (significant)" } else { "" },
                        t.next_day_forecast.1 * 100.0,
                        t.next_day_forecast.0 * 100.0,
                        t.next_day_forecast.2 * 100.0,
                    )),
                    None => out.push_str("window too short for a trend decomposition\n\n"),
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::metric::KeyMetricVec;
    use supremm_metrics::{ExtendedMetric, JobId, ScienceField, Timestamp, UserId};
    use supremm_warehouse::record::{ExitKind, JobRecord};
    use supremm_warehouse::SystemBin;

    fn inputs_fixture() -> (JobTable, SystemSeries) {
        let job = |id: u64, user: u32| {
            let mut metrics = KeyMetricVec::default();
            metrics.set(KeyMetric::CpuIdle, 0.1);
            metrics.set(KeyMetric::MemUsed, 6e9);
            JobRecord {
                job: JobId(id),
                user: UserId(user),
                app: Some("NAMD".into()),
                science: ScienceField::Physics,
                queue: "normal".into(),
                submit: Timestamp(0),
                start: Timestamp(0),
                end: Timestamp(7200),
                nodes: 4,
                exit: ExitKind::Completed,
                metrics,
                extended: [0.0; ExtendedMetric::ALL.len()],
                flops_valid: true,
                samples: 12,
                coverage_gaps: 0,
            }
        };
        let table = JobTable::new((0..12).map(|i| job(i, (i % 5) as u32)).collect());
        let bins = (0..4320)
            .map(|i| {
                let mut b = SystemBin {
                    ts: Timestamp(i * 600),
                    active_nodes: 16,
                    busy_nodes: 13 + ((i / 72) % 3) as u32,
                    intervals: 16,
                    flops: 1e12,
                    mem_used_bytes: 16.0 * 6e9,
                    scratch_write_bps: 2e8,
                    ..Default::default()
                };
                b.cpu_user_sum = 13.0;
                b.cpu_idle_sum = 2.6;
                b.cpu_system_sum = 0.4;
                b
            })
            .collect();
        (table, SystemSeries { bin_secs: 600, bins })
    }

    #[test]
    fn monthly_report_renders_every_section() {
        let (table, series) = inputs_fixture();
        let spec = ReportSpec::center_monthly();
        let md = build_report(
            &spec,
            &ReportInputs {
                table: &table,
                series: &series,
                node_count: 16,
                cores_per_node: 16,
                window: "30 simulated days".into(),
                machine: "ranger".into(),
            },
        );
        for needle in [
            "# Center Operations Report — ranger",
            "## Summary",
            "Node-hours by application",
            "Node-hours by parent science",
            "### Efficiency",
            "Top-5 user profiles",
            "Lustre throughput by mount",
            "### Utilisation trend",
            "| NAMD |",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
    }

    #[test]
    fn preamble_and_top_truncation_work() {
        let (table, series) = inputs_fixture();
        let spec = ReportSpec {
            title: "T".into(),
            sections: vec![
                Section::Preamble("hello world".into()),
                Section::QueryTable {
                    title: "users".into(),
                    query: Query {
                        dimension: Dimension::User,
                        statistic: Statistic::JobCount,
                        filters: vec![],
                    },
                    value_header: "jobs".into(),
                    top: Some(2),
                },
            ],
        };
        let md = build_report(
            &spec,
            &ReportInputs {
                table: &table,
                series: &series,
                node_count: 16,
                cores_per_node: 16,
                window: "w".into(),
                machine: "m".into(),
            },
        );
        assert!(md.contains("hello world"));
        // 5 users exist; only 2 rows rendered.
        let rows = md.lines().filter(|l| l.starts_with("| u0")).count();
        assert_eq!(rows, 2, "{md}");
    }

    #[test]
    fn markdown_tables_are_well_formed() {
        let md = md_table("t", &[("a".into(), 1.0), ("b".into(), 2.5)], "v");
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "### t");
        assert!(lines[2].starts_with("| group |"));
        assert!(lines[3].starts_with("|---|"));
        assert_eq!(lines[4], "| a | 1.00 |");
    }
}
