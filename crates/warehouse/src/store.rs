//! The queryable job table — the warehouse's analysis surface.
//!
//! Deliberately small: filter, group-by, and node·hour-weighted metric
//! aggregation are all the reporting layer needs, and each is a thin,
//! composable method rather than a query language.

use std::collections::BTreeMap;

use supremm_metrics::metric::KeyMetricVec;
use supremm_metrics::KeyMetric;

use crate::record::JobRecord;

/// An owned collection of job records with query helpers.
#[derive(Debug, Clone, Default)]
pub struct JobTable {
    jobs: Vec<JobRecord>,
}

/// Node·hour-weighted aggregate over a set of jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Weighted means of the key metrics (`MemUsedMax` is the weighted
    /// mean of the per-job maxima; take `max` separately if needed).
    pub means: KeyMetricVec,
    pub jobs: usize,
    pub node_hours: f64,
}

impl JobTable {
    pub fn new(jobs: Vec<JobRecord>) -> JobTable {
        JobTable { jobs }
    }

    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    pub fn total_node_hours(&self) -> f64 {
        self.jobs.iter().map(|j| j.node_hours()).sum()
    }

    /// Jobs matching a predicate, as a new table (cheap enough at this
    /// scale; keeps the API composable).
    pub fn filter(&self, pred: impl Fn(&JobRecord) -> bool) -> JobTable {
        JobTable { jobs: self.jobs.iter().filter(|j| pred(j)).cloned().collect() }
    }

    /// Group jobs by an arbitrary key.
    pub fn group_by<K: Ord>(&self, key: impl Fn(&JobRecord) -> K) -> BTreeMap<K, Vec<&JobRecord>> {
        let mut out: BTreeMap<K, Vec<&JobRecord>> = BTreeMap::new();
        for j in &self.jobs {
            out.entry(key(j)).or_default().push(j);
        }
        out
    }

    /// Node·hour-weighted aggregate of a job set.
    pub fn aggregate<'a>(jobs: impl IntoIterator<Item = &'a JobRecord>) -> Aggregate {
        let mut acc = supremm_analytics::profile::ProfileAccumulator::new();
        let mut n = 0usize;
        let mut node_hours = 0.0;
        for j in jobs {
            let w = j.node_hours();
            acc.push(&j.metrics, w);
            n += 1;
            node_hours += w;
        }
        Aggregate { means: acc.means(), jobs: n, node_hours }
    }

    /// Whole-table aggregate (the "average job" that profiles normalize
    /// against).
    pub fn global_aggregate(&self) -> Aggregate {
        Self::aggregate(self.jobs.iter())
    }

    /// Node·hour-weighted mean job length in minutes — the §4.3.4
    /// calibration statistic (549 min on Ranger, 446 on Lonestar4).
    pub fn weighted_mean_job_len_min(&self) -> f64 {
        let mut acc = supremm_analytics::stats::WeightedMoments::new();
        for j in &self.jobs {
            acc.push(j.wall_secs() as f64 / 60.0, j.node_hours());
        }
        acc.mean()
    }

    /// The top `n` consumers by node-hours of a grouping key.
    pub fn top_by_node_hours<K: Ord + Clone>(
        &self,
        key: impl Fn(&JobRecord) -> K,
        n: usize,
    ) -> Vec<(K, f64)> {
        let mut totals: BTreeMap<K, f64> = BTreeMap::new();
        for j in &self.jobs {
            *totals.entry(key(j)).or_default() += j.node_hours();
        }
        let mut v: Vec<(K, f64)> = totals.into_iter().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.truncate(n);
        v
    }
}

impl FromIterator<JobRecord> for JobTable {
    fn from_iter<T: IntoIterator<Item = JobRecord>>(iter: T) -> JobTable {
        JobTable { jobs: iter.into_iter().collect() }
    }
}

/// Weighted-mean key metric across a slice of jobs, exposed for report
/// code that works on group-by results.
pub fn weighted_metric_mean<'a>(
    jobs: impl IntoIterator<Item = &'a JobRecord>,
    m: KeyMetric,
) -> f64 {
    let mut acc = supremm_analytics::stats::WeightedMoments::new();
    for j in jobs {
        acc.push(j.metrics.get(m), j.node_hours());
    }
    acc.mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ExitKind;
    use supremm_metrics::{ExtendedMetric, JobId, ScienceField, Timestamp, UserId};

    fn job(id: u64, user: u32, app: &str, hours: u64, nodes: u32, idle: f64) -> JobRecord {
        let mut metrics = KeyMetricVec::default();
        metrics.set(KeyMetric::CpuIdle, idle);
        metrics.set(KeyMetric::CpuFlops, 1e9 * (1.0 - idle));
        JobRecord {
            job: JobId(id),
            user: UserId(user),
            app: Some(app.to_string()),
            science: ScienceField::Physics,
            queue: "normal".into(),
            submit: Timestamp(0),
            start: Timestamp(0),
            end: Timestamp(hours * 3600),
            nodes,
            exit: ExitKind::Completed,
            metrics,
            extended: [0.5; ExtendedMetric::ALL.len()],
            flops_valid: true,
            samples: 6,
            coverage_gaps: 0,
        }
    }

    fn table() -> JobTable {
        JobTable::new(vec![
            job(1, 1, "NAMD", 10, 4, 0.05),
            job(2, 1, "NAMD", 5, 2, 0.10),
            job(3, 2, "AMBER", 20, 8, 0.40),
            job(4, 3, "WRF", 2, 1, 0.15),
        ])
    }

    #[test]
    fn filter_and_group() {
        let t = table();
        let namd = t.filter(|j| j.app.as_deref() == Some("NAMD"));
        assert_eq!(namd.len(), 2);
        let by_user = t.group_by(|j| j.user);
        assert_eq!(by_user.len(), 3);
        assert_eq!(by_user[&UserId(1)].len(), 2);
    }

    #[test]
    fn aggregate_is_node_hour_weighted() {
        let t = table();
        let agg = t.global_aggregate();
        // Weights: 40, 10, 160, 2 node-hours.
        let want = (40.0 * 0.05 + 10.0 * 0.10 + 160.0 * 0.40 + 2.0 * 0.15) / 212.0;
        assert!((agg.means.get(KeyMetric::CpuIdle) - want).abs() < 1e-12);
        assert_eq!(agg.jobs, 4);
        assert!((agg.node_hours - 212.0).abs() < 1e-9);
    }

    #[test]
    fn top_by_node_hours_orders_consumers() {
        let t = table();
        let top = t.top_by_node_hours(|j| j.user, 2);
        assert_eq!(top[0].0, UserId(2));
        assert!((top[0].1 - 160.0).abs() < 1e-9);
        assert_eq!(top[1].0, UserId(1));
    }

    #[test]
    fn weighted_job_length() {
        let t = JobTable::new(vec![job(1, 1, "NAMD", 1, 1, 0.0), job(2, 1, "NAMD", 10, 1, 0.0)]);
        // Weights 1 and 10 node-hours; lengths 60 and 600 min.
        let want = (60.0 * 1.0 + 600.0 * 10.0) / 11.0;
        assert!((t.weighted_mean_job_len_min() - want).abs() < 1e-9);
    }

    #[test]
    fn empty_table_is_safe() {
        let t = JobTable::default();
        assert!(t.is_empty());
        assert_eq!(t.total_node_hours(), 0.0);
        assert!(t.global_aggregate().means.get(KeyMetric::CpuIdle).is_nan());
    }

    #[test]
    fn weighted_metric_mean_over_groups() {
        let t = table();
        let groups = t.group_by(|j| j.app.clone());
        let namd = weighted_metric_mean(
            groups[&Some("NAMD".to_string())].iter().copied(),
            KeyMetric::CpuIdle,
        );
        let want = (40.0 * 0.05 + 10.0 * 0.10) / 50.0;
        assert!((namd - want).abs() < 1e-12);
    }
}

/// Disk persistence: the export/import format is a tsdb record segment
/// (kind 1) — one binary [`JobRecord`] per entry ([`crate::jobcodec`]),
/// CRC-checked blocks, atomic rename on write.
impl JobTable {
    /// Write the table to a file (atomic: tmp + fsync + rename).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let records: Vec<(u64, Vec<u8>)> =
            self.jobs.iter().map(|j| (j.end.0, crate::jobcodec::encode(j))).collect();
        supremm_tsdb::recordlog::write_records(path, &records)
            .map(|_| ())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Load a table previously written with [`JobTable::save`]. Any
    /// other file, and any corruption, is an error — never a skip.
    pub fn load(path: &std::path::Path) -> std::io::Result<JobTable> {
        let records = supremm_tsdb::recordlog::read_records(path)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let jobs = records
            .iter()
            .map(|bytes| crate::jobcodec::decode(bytes))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(JobTable::new(jobs))
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::record::ExitKind;
    use supremm_metrics::{ExtendedMetric, JobId, ScienceField, Timestamp, UserId};

    fn sample_table() -> JobTable {
        let mut metrics = KeyMetricVec::default();
        metrics.set(KeyMetric::CpuFlops, 3.25e9);
        JobTable::new(vec![JobRecord {
            job: JobId(9),
            user: UserId(4),
            app: Some("WRF".into()),
            science: ScienceField::AtmosphericSciences,
            queue: "large".into(),
            submit: Timestamp(10),
            start: Timestamp(600),
            end: Timestamp(7200),
            nodes: 32,
            exit: ExitKind::Failed,
            metrics,
            extended: [0.125; ExtendedMetric::ALL.len()],
            flops_valid: false,
            samples: 11,
            coverage_gaps: 0,
        }])
    }

    #[test]
    fn segment_file_round_trip() {
        let path = std::env::temp_dir().join(format!("supremm-table-{}.tsdb", std::process::id()));
        let t = sample_table();
        t.save(&path).unwrap();
        let back = JobTable::load(&path).unwrap();
        assert_eq!(back.jobs(), t.jobs());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_table_round_trips_through_file() {
        let path = std::env::temp_dir().join(format!("supremm-empty-{}.tsdb", std::process::id()));
        JobTable::default().save(&path).unwrap();
        assert!(JobTable::load(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
