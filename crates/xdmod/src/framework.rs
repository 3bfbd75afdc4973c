//! Realms, dimensions, statistics and the query engine.
//!
//! The XDMoD UI's core interaction is: pick a *statistic*, group it by a
//! *dimension*, optionally *filter*, get a dataset. That is exactly the
//! surface implemented here, over the warehouse's [`JobTable`].

use supremm_metrics::{KeyMetric, ScienceField, UserId};
use supremm_warehouse::record::ExitKind;
use supremm_warehouse::store::weighted_metric_mean;
use supremm_warehouse::{JobRecord, JobTable};

/// Grouping dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dimension {
    /// One row for the whole table.
    None,
    User,
    Application,
    ScienceField,
    Queue,
    ExitStatus,
    /// Job size class (1, 2-4, 5-16, 17-64, 65+ nodes).
    JobSize,
}

/// What to compute per group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Statistic {
    JobCount,
    NodeHours,
    /// Node·hour-weighted mean of a key metric.
    WeightedMean(KeyMetric),
    /// Mean queue wait, hours.
    AvgWaitHours,
    /// Mean job length, minutes, node·hour-weighted.
    WeightedJobLengthMin,
    /// Fraction of jobs that did not complete normally.
    FailureRate,
}

/// Row filters.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    App(String),
    User(UserId),
    Science(ScienceField),
    Exit(ExitKind),
    MinNodes(u32),
    /// Keep jobs whose FLOPS reading is trustworthy.
    FlopsValid,
}

impl Filter {
    fn keep(&self, j: &JobRecord) -> bool {
        match self {
            Filter::App(name) => j.app.as_deref() == Some(name.as_str()),
            Filter::User(u) => j.user == *u,
            Filter::Science(s) => j.science == *s,
            Filter::Exit(e) => j.exit == *e,
            Filter::MinNodes(n) => j.nodes >= *n,
            Filter::FlopsValid => j.flops_valid,
        }
    }
}

/// A complete query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub dimension: Dimension,
    pub statistic: Statistic,
    pub filters: Vec<Filter>,
}

/// Query result: labelled rows, ordered by descending value.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    pub rows: Vec<(String, f64)>,
}

impl Dataset {
    pub fn get(&self, label: &str) -> Option<f64> {
        self.rows.iter().find(|(l, _)| l == label).map(|&(_, v)| v)
    }

    /// Serialise as the `{"rows":[[label,value],...]}` JSON document the
    /// HTTP API returns.
    pub fn to_json(&self) -> String {
        use supremm_metrics::json::Value;
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|(label, value)| Value::Array(vec![label.as_str().into(), (*value).into()]))
            .collect();
        supremm_metrics::json::obj([("rows", Value::Array(rows))]).to_string()
    }
}

fn size_class(nodes: u32) -> &'static str {
    match nodes {
        1 => "1",
        2..=4 => "2-4",
        5..=16 => "5-16",
        17..=64 => "17-64",
        _ => "65+",
    }
}

fn dimension_label(dim: Dimension, j: &JobRecord) -> String {
    match dim {
        Dimension::None => "all".to_string(),
        Dimension::User => j.user.to_string(),
        Dimension::Application => j.app.clone().unwrap_or_else(|| "(unresolved)".to_string()),
        Dimension::ScienceField => j.science.name().to_string(),
        Dimension::Queue => j.queue.clone(),
        Dimension::ExitStatus => j.exit.name().to_string(),
        Dimension::JobSize => size_class(j.nodes).to_string(),
    }
}

fn statistic_of(stat: Statistic, jobs: &[&JobRecord]) -> f64 {
    match stat {
        Statistic::JobCount => jobs.len() as f64,
        Statistic::NodeHours => jobs.iter().map(|j| j.node_hours()).sum(),
        Statistic::WeightedMean(m) => weighted_metric_mean(jobs.iter().copied(), m),
        Statistic::AvgWaitHours => {
            if jobs.is_empty() {
                f64::NAN
            } else {
                jobs.iter().map(|j| j.wait_secs() as f64 / 3600.0).sum::<f64>() / jobs.len() as f64
            }
        }
        Statistic::WeightedJobLengthMin => {
            let mut acc = supremm_analytics::stats::WeightedMoments::new();
            for j in jobs {
                acc.push(j.wall_secs() as f64 / 60.0, j.node_hours());
            }
            acc.mean()
        }
        Statistic::FailureRate => {
            if jobs.is_empty() {
                f64::NAN
            } else {
                jobs.iter().filter(|j| j.exit != ExitKind::Completed).count() as f64
                    / jobs.len() as f64
            }
        }
    }
}

/// Run a query.
pub fn run(table: &JobTable, query: &Query) -> Dataset {
    let mut groups: std::collections::BTreeMap<String, Vec<&JobRecord>> = Default::default();
    for j in table.jobs() {
        if query.filters.iter().all(|f| f.keep(j)) {
            groups.entry(dimension_label(query.dimension, j)).or_default().push(j);
        }
    }
    let mut rows: Vec<(String, f64)> = groups
        .into_iter()
        .map(|(label, jobs)| (label, statistic_of(query.statistic, &jobs)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    Dataset { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::metric::KeyMetricVec;
    use supremm_metrics::{ExtendedMetric, JobId, Timestamp};

    #[allow(clippy::too_many_arguments)]
    fn job(
        id: u64,
        user: u32,
        app: &str,
        sci: ScienceField,
        hours: u64,
        nodes: u32,
        idle: f64,
        exit: ExitKind,
    ) -> JobRecord {
        let mut metrics = KeyMetricVec::default();
        metrics.set(KeyMetric::CpuIdle, idle);
        JobRecord {
            job: JobId(id),
            user: UserId(user),
            app: Some(app.to_string()),
            science: sci,
            queue: "normal".into(),
            submit: Timestamp(0),
            start: Timestamp(1800),
            end: Timestamp(1800 + hours * 3600),
            nodes,
            exit,
            metrics,
            extended: [0.0; ExtendedMetric::ALL.len()],
            flops_valid: true,
            samples: 4,
            coverage_gaps: 0,
        }
    }

    fn table() -> JobTable {
        JobTable::new(vec![
            job(1, 1, "NAMD", ScienceField::MolecularBiosciences, 10, 4, 0.05, ExitKind::Completed),
            job(
                2,
                2,
                "AMBER",
                ScienceField::MolecularBiosciences,
                10,
                4,
                0.30,
                ExitKind::Completed,
            ),
            job(3, 2, "AMBER", ScienceField::MolecularBiosciences, 5, 2, 0.35, ExitKind::Failed),
            job(4, 3, "WRF", ScienceField::AtmosphericSciences, 20, 16, 0.10, ExitKind::Completed),
        ])
    }

    #[test]
    fn node_hours_by_app_ordered_descending() {
        let ds = run(
            &table(),
            &Query {
                dimension: Dimension::Application,
                statistic: Statistic::NodeHours,
                filters: vec![],
            },
        );
        assert_eq!(ds.rows[0].0, "WRF");
        assert_eq!(ds.rows[0].1, 320.0);
        assert_eq!(ds.get("NAMD"), Some(40.0));
        assert_eq!(ds.get("AMBER"), Some(50.0));
    }

    #[test]
    fn filters_compose() {
        let ds = run(
            &table(),
            &Query {
                dimension: Dimension::User,
                statistic: Statistic::JobCount,
                filters: vec![Filter::App("AMBER".into()), Filter::Exit(ExitKind::Failed)],
            },
        );
        assert_eq!(ds.rows.len(), 1);
        assert_eq!(ds.rows[0], ("u00002".to_string(), 1.0));
    }

    #[test]
    fn weighted_mean_statistic() {
        let ds = run(
            &table(),
            &Query {
                dimension: Dimension::Application,
                statistic: Statistic::WeightedMean(KeyMetric::CpuIdle),
                filters: vec![Filter::App("AMBER".into())],
            },
        );
        // (40·0.30 + 10·0.35)/50 = 0.31.
        assert!((ds.get("AMBER").unwrap() - 0.31).abs() < 1e-12);
    }

    #[test]
    fn failure_rate_by_science() {
        let ds = run(
            &table(),
            &Query {
                dimension: Dimension::ScienceField,
                statistic: Statistic::FailureRate,
                filters: vec![],
            },
        );
        assert!((ds.get("Molecular Biosciences").unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ds.get("Atmospheric Sciences"), Some(0.0));
    }

    #[test]
    fn job_size_classes() {
        let ds = run(
            &table(),
            &Query {
                dimension: Dimension::JobSize,
                statistic: Statistic::JobCount,
                filters: vec![],
            },
        );
        assert_eq!(ds.get("2-4"), Some(3.0));
        assert_eq!(ds.get("5-16"), Some(1.0));
    }

    #[test]
    fn wait_hours() {
        let ds = run(
            &table(),
            &Query {
                dimension: Dimension::None,
                statistic: Statistic::AvgWaitHours,
                filters: vec![],
            },
        );
        assert!((ds.get("all").unwrap() - 0.5).abs() < 1e-12);
    }
}
