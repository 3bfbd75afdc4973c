//! Preprogrammed stakeholder reports — the datasets behind each figure.
//!
//! §4.3 walks through six stakeholder classes; each function here
//! regenerates one of the analyses the paper illustrates, against a
//! warehouse built from any (real or simulated) machine:
//!
//! | paper artifact | function |
//! |---|---|
//! | Fig 2 (heavy-user profiles) | [`user_profiles`] |
//! | Fig 3 (MD application profiles) | [`app_profiles`] |
//! | Fig 4 (node-hours vs wasted) | [`wasted_hours`] |
//! | Fig 5 (circled anomalous user) | [`anomalous_user_profile`] |
//! | Table 1 + Fig 6 (persistence) | [`persistence_report`] |
//! | Fig 7a (memory/core by science) | [`mem_per_core_by_science`] |
//! | Fig 7b (CPU hours breakdown) | [`cpu_hours_breakdown`] |
//! | Fig 7c (Lustre throughput) | [`lustre_throughput`] |
//! | §4.2 (correlations / metric set) | [`metric_correlation_report`] |

use supremm_analytics::efficiency::{ScatterPoint, UserUsage, WastedHoursReport};
use supremm_analytics::persistence::{log_fit, persistence_ratios, PersistencePoint};
use supremm_analytics::profile::{normalize, Profile};
use supremm_analytics::regression::LinearFit;
use supremm_metrics::{ExtendedMetric, KeyMetric, UserId};
use supremm_warehouse::store::weighted_metric_mean;
use supremm_warehouse::{JobTable, SystemSeries};

use crate::framework::Dataset;

/// Figure 2: normalized 8-metric profiles of the `n` heaviest users by
/// node-hours.
pub fn user_profiles(table: &JobTable, n: usize) -> Vec<Profile> {
    let global = table.global_aggregate().means;
    table
        .top_by_node_hours(|j| j.user, n)
        .into_iter()
        .map(|(user, node_hours)| {
            let jobs: Vec<_> = table.jobs().iter().filter(|j| j.user == user).collect();
            let agg = JobTable::aggregate(jobs);
            Profile { label: user.to_string(), values: normalize(&agg.means, &global), node_hours }
        })
        .collect()
}

/// Figure 3: normalized profiles of named applications (run once per
/// machine and compare).
pub fn app_profiles(table: &JobTable, apps: &[&str]) -> Vec<Profile> {
    let global = table.global_aggregate().means;
    apps.iter()
        .map(|&name| {
            let jobs: Vec<_> =
                table.jobs().iter().filter(|j| j.app.as_deref() == Some(name)).collect();
            let agg = JobTable::aggregate(jobs);
            Profile {
                label: name.to_string(),
                values: normalize(&agg.means, &global),
                node_hours: agg.node_hours,
            }
        })
        .collect()
}

/// Figure 4: per-user node-hours vs wasted node-hours, plus the machine
/// average-efficiency line.
pub fn wasted_hours(table: &JobTable) -> WastedHoursReport<UserId> {
    let mut per_user: std::collections::BTreeMap<UserId, UserUsage> = Default::default();
    for j in table.jobs() {
        per_user
            .entry(j.user)
            .or_default()
            .push_job(j.node_hours(), j.metrics.get(KeyMetric::CpuIdle));
    }
    WastedHoursReport::build(
        per_user.into_iter().map(|(key, usage)| ScatterPoint { key, usage }).collect(),
    )
}

/// Figure 5: the profile of the "circled" user — heaviest consumer among
/// those idling ≥ `idle_threshold` of their node-hours. Returns the user,
/// their idle fraction, and their normalized profile.
pub fn anomalous_user_profile(
    table: &JobTable,
    idle_threshold: f64,
) -> Option<(UserId, f64, Profile)> {
    let report = wasted_hours(table);
    let global = table.global_aggregate().means;
    let profile_for = |point: &ScatterPoint<UserId>| {
        let jobs: Vec<_> = table.jobs().iter().filter(|j| j.user == point.key).collect();
        let agg = JobTable::aggregate(jobs);
        Profile {
            label: point.key.to_string(),
            values: normalize(&agg.means, &global),
            node_hours: point.usage.node_hours,
        }
    };
    // The circled user is defined by shape — massive idle, everything
    // else unremarkable — not by consumption alone. Walk extreme-idle
    // candidates heaviest-first and take the first whose non-idle
    // ratios sit in the normal band; a simulated workload can hand the
    // single heaviest offender a busy IO band, which is a different
    // phenomenon than the paper circles. Fall back to the heaviest if
    // no candidate has the clean shape.
    let mut candidates: Vec<&ScatterPoint<UserId>> =
        report.points.iter().filter(|p| p.usage.idle_frac() >= idle_threshold).collect();
    candidates
        .sort_by(|a, b| b.usage.node_hours.total_cmp(&a.usage.node_hours).then(a.key.cmp(&b.key)));
    let clean = |prof: &Profile| {
        KeyMetric::ALL
            .into_iter()
            .filter(|&m| m != KeyMetric::CpuIdle)
            .all(|m| prof.values.get(m) < 3.0)
    };
    let picked = candidates
        .iter()
        .map(|p| (*p, profile_for(p)))
        .find(|(_, prof)| clean(prof))
        .or_else(|| candidates.first().map(|p| (*p, profile_for(p))))?;
    Some((picked.0.key, picked.0.usage.idle_frac(), picked.1))
}

/// Table 1 + Figure 6 output for one machine.
#[derive(Debug, Clone)]
pub struct PersistenceReport {
    /// Per metric: its points at each offset and the log-model R².
    pub per_metric: Vec<(KeyMetric, Vec<PersistencePoint>, Option<LinearFit>)>,
    /// The combined fit over all metrics' normalized points (Figure 6).
    pub combined: Option<LinearFit>,
}

/// The system-level series a metric's persistence is computed over.
fn metric_series(series: &SystemSeries, m: KeyMetric) -> Vec<f64> {
    series.series(|b| match m {
        KeyMetric::CpuFlops => b.flops,
        KeyMetric::MemUsed => b.mem_per_node(),
        KeyMetric::MemUsedMax => b.mem_per_node(),
        KeyMetric::IoScratchWrite => b.scratch_write_bps,
        KeyMetric::IoWorkWrite => b.work_write_bps,
        KeyMetric::NetIbTx => b.ib_tx_bps,
        KeyMetric::NetLnetTx => b.lnet_tx_bps,
        KeyMetric::CpuIdle => b.cpu_shares().2,
    })
}

/// Compute the persistence analysis of §4.3.4 over the system series,
/// using the paper's five metrics and offsets (10/30/100/500/1000 min).
pub fn persistence_report(series: &SystemSeries) -> PersistenceReport {
    let dense = series.dense();
    let sample_minutes = dense.bin_secs as f64 / 60.0;
    let offsets: Vec<usize> = [10.0, 30.0, 100.0, 500.0, 1000.0]
        .iter()
        .map(|&m| (m / sample_minutes).round() as usize)
        .filter(|&k| k > 0)
        .collect();
    let mut per_metric = Vec::new();
    let mut all_points = Vec::new();
    for m in KeyMetric::PERSISTENCE_FIVE {
        let data = metric_series(&dense, m);
        let points = persistence_ratios(&data, sample_minutes, &offsets);
        let fit = log_fit(&points);
        all_points.extend(points.iter().copied());
        per_metric.push((m, points, fit));
    }
    let combined = log_fit(&all_points);
    PersistenceReport { per_metric, combined }
}

impl PersistenceReport {
    /// Render Table 1: offsets down, metrics across, plus the fit-R² row.
    pub fn to_table(&self) -> String {
        let mut out = String::from("offset(min)");
        for (m, _, _) in &self.per_metric {
            out.push_str(&format!(" {:>16}", m.name()));
        }
        out.push('\n');
        let offsets: Vec<f64> = self
            .per_metric
            .first()
            .map(|(_, pts, _)| pts.iter().map(|p| p.offset_minutes).collect())
            .unwrap_or_default();
        for (row, &off) in offsets.iter().enumerate() {
            out.push_str(&format!("{off:>11.0}"));
            for (_, pts, _) in &self.per_metric {
                match pts.get(row) {
                    Some(p) => out.push_str(&format!(" {:>16.3}", p.ratio)),
                    None => out.push_str(&format!(" {:>16}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{:>11}", "fit R^2"));
        for (_, _, fit) in &self.per_metric {
            match fit {
                Some(f) => out.push_str(&format!(" {:>16.3}", f.r_squared)),
                None => out.push_str(&format!(" {:>16}", "-")),
            }
        }
        out.push('\n');
        out
    }
}

/// Figure 7a: node·hour-weighted mean memory per *core* (GB), grouped by
/// parent science.
pub fn mem_per_core_by_science(table: &JobTable, cores_per_node: u32) -> Dataset {
    let groups = table.group_by(|j| j.science);
    let mut rows: Vec<(String, f64)> = groups
        .into_iter()
        .map(|(sci, jobs)| {
            let mean_node_bytes = weighted_metric_mean(jobs.iter().copied(), KeyMetric::MemUsed);
            let gb_per_core = mean_node_bytes / cores_per_node as f64 / 1.073_741_824e9;
            (sci.name().to_string(), gb_per_core)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    Dataset { rows }
}

/// Figure 7b: total CPU node-hours split into user/system/idle over the
/// whole series.
pub fn cpu_hours_breakdown(series: &SystemSeries) -> Dataset {
    let hours_per_interval = series.bin_secs as f64 / 3600.0;
    let (mut user, mut system, mut idle) = (0.0, 0.0, 0.0);
    for bin in &series.bins {
        // Each host-interval contributes `hours_per_interval` node-hours,
        // split by the state fractions.
        user += bin.cpu_user_sum * hours_per_interval;
        system += bin.cpu_system_sum * hours_per_interval;
        idle += bin.cpu_idle_sum * hours_per_interval;
    }
    Dataset {
        rows: vec![
            ("user".to_string(), user),
            ("idle".to_string(), idle),
            ("system".to_string(), system),
        ],
    }
}

/// Figure 7c: mean Lustre filesystem throughput (MB/s, read+write) per
/// mount — scratch / share / work.
pub fn lustre_throughput(series: &SystemSeries) -> Dataset {
    let n = series.bins.len().max(1) as f64;
    const MB: f64 = 1024.0 * 1024.0;
    let mut scratch = 0.0;
    let mut share = 0.0;
    let mut work = 0.0;
    for bin in &series.bins {
        scratch += (bin.scratch_write_bps + bin.scratch_read_bps) / MB;
        share += (bin.share_write_bps + bin.share_read_bps) / MB;
        work += (bin.work_write_bps + bin.work_read_bps) / MB;
    }
    Dataset {
        rows: vec![
            ("scratch".to_string(), scratch / n),
            ("share".to_string(), share / n),
            ("work".to_string(), work / n),
        ],
    }
}

/// §4.2: the correlation analysis over the measured metric set and the
/// resulting minimal independent subset.
#[derive(Debug, Clone)]
pub struct CorrelationReport {
    pub metrics: Vec<ExtendedMetric>,
    pub matrix: Vec<Vec<f64>>,
    /// Indices (into `metrics`) of the selected independent set.
    pub selected: Vec<usize>,
}

impl CorrelationReport {
    pub fn correlation_of(&self, a: ExtendedMetric, b: ExtendedMetric) -> f64 {
        let ia = self.metrics.iter().position(|&m| m == a).expect("known metric");
        let ib = self.metrics.iter().position(|&m| m == b).expect("known metric");
        self.matrix[ia][ib]
    }

    pub fn selected_metrics(&self) -> Vec<ExtendedMetric> {
        self.selected.iter().map(|&i| self.metrics[i]).collect()
    }
}

/// Run the §4.2 correlation analysis over per-job extended metrics.
///
/// The priority order lists the paper's eight key metrics first, so the
/// greedy independent-set selection keeps exactly them when the data's
/// correlation structure matches the paper's.
pub fn metric_correlation_report(table: &JobTable, threshold: f64) -> CorrelationReport {
    let metrics: Vec<ExtendedMetric> = ExtendedMetric::ALL.to_vec();
    let vars: Vec<Vec<f64>> =
        metrics.iter().map(|&m| table.jobs().iter().map(|j| j.extended_get(m)).collect()).collect();
    let matrix = supremm_analytics::correlation_matrix(&vars);
    // Key metrics first (paper's preference), then the rest.
    let mut priority: Vec<usize> = Vec::new();
    for km in KeyMetric::ALL {
        if let Some(i) = metrics.iter().position(|&m| m.as_key() == Some(km)) {
            priority.push(i);
        }
    }
    for (i, m) in metrics.iter().enumerate() {
        if m.as_key().is_none() {
            priority.push(i);
        }
    }
    // Skip constant metrics (NaN rows) during selection.
    let selected = supremm_analytics::select_independent(&matrix, &priority, threshold)
        .into_iter()
        .filter(|&i| vars[i].iter().any(|&v| v != vars[i][0]))
        .collect();
    CorrelationReport { metrics, matrix, selected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::metric::KeyMetricVec;
    use supremm_metrics::{JobId, ScienceField, Timestamp};
    use supremm_warehouse::record::{ExitKind, JobRecord};

    fn job(
        id: u64,
        user: u32,
        app: &str,
        hours: u64,
        nodes: u32,
        idle: f64,
        mem: f64,
    ) -> JobRecord {
        let mut metrics = KeyMetricVec::default();
        metrics.set(KeyMetric::CpuIdle, idle);
        metrics.set(KeyMetric::MemUsed, mem);
        metrics.set(KeyMetric::CpuFlops, 1e9 * (1.0 - idle));
        let mut extended = [0.0; ExtendedMetric::ALL.len()];
        extended[ExtendedMetric::CpuIdle.index()] = idle;
        extended[ExtendedMetric::CpuUser.index()] = 1.0 - idle;
        extended[ExtendedMetric::MemUsed.index()] = mem;
        // IB traffic varies with the job id, independent of idle.
        let ib = 1e6 * ((id * 37 % 11) as f64 + 1.0);
        extended[ExtendedMetric::NetIbTx.index()] = ib;
        extended[ExtendedMetric::NetIbRx.index()] = ib * 1.02;
        JobRecord {
            job: JobId(id),
            user: UserId(user),
            app: Some(app.to_string()),
            science: if user.is_multiple_of(2) {
                ScienceField::Physics
            } else {
                ScienceField::MolecularBiosciences
            },
            queue: "normal".into(),
            submit: Timestamp(0),
            start: Timestamp(0),
            end: Timestamp(hours * 3600),
            nodes,
            exit: ExitKind::Completed,
            metrics,
            extended,
            flops_valid: true,
            samples: 6,
            coverage_gaps: 0,
        }
    }

    fn table() -> JobTable {
        JobTable::new(vec![
            job(1, 1, "NAMD", 100, 8, 0.05, 6e9),
            job(2, 1, "NAMD", 50, 4, 0.06, 6e9),
            job(3, 2, "AMBER", 80, 8, 0.30, 4e9),
            job(4, 3, "WRF", 10, 2, 0.10, 11e9),
            job(5, 4, "GROMACS", 5, 1, 0.88, 5e9), // the anomaly
            job(6, 4, "GROMACS", 40, 16, 0.87, 5e9),
        ])
    }

    #[test]
    fn fig2_top_users_profiles() {
        let profiles = user_profiles(&table(), 3);
        assert_eq!(profiles.len(), 3);
        // Heaviest first: user 1 (1000 nh), user 4 (645 nh), user 2 (640).
        assert_eq!(profiles[0].label, "u00001");
        assert!(profiles[0].node_hours > profiles[1].node_hours);
        // The anomalous user's idle is far above average (profile >> 1);
        // the efficient NAMD user is far below.
        assert_eq!(profiles[1].label, "u00004");
        assert!(profiles[1].values.get(KeyMetric::CpuIdle) > 1.5);
        assert!(profiles[0].values.get(KeyMetric::CpuIdle) < 0.5);
    }

    #[test]
    fn fig3_app_profile_contrast() {
        let profiles = app_profiles(&table(), &["NAMD", "AMBER"]);
        let namd = &profiles[0].values;
        let amber = &profiles[1].values;
        assert!(amber.get(KeyMetric::CpuIdle) > namd.get(KeyMetric::CpuIdle));
    }

    #[test]
    fn fig4_wasted_hours_flags_the_heavy_idler() {
        let report = wasted_hours(&table());
        let worst = report.worst_heavy_offender(0.8).unwrap();
        assert_eq!(worst.key, UserId(4));
        assert!(worst.usage.idle_frac() > 0.85);
        assert!(report.average_efficiency < 0.9);
    }

    #[test]
    fn fig5_anomalous_profile_is_idle_heavy_otherwise_normal() {
        let (user, idle, profile) = anomalous_user_profile(&table(), 0.8).unwrap();
        assert_eq!(user, UserId(4));
        assert!(idle > 0.85);
        assert!(profile.values.get(KeyMetric::CpuIdle) > 1.5);
        // Memory usage is in the normal range (ratio near 1).
        let mem_ratio = profile.values.get(KeyMetric::MemUsed);
        assert!(mem_ratio > 0.5 && mem_ratio < 1.5, "{mem_ratio}");
    }

    #[test]
    fn fig7a_mem_per_core_grouping() {
        let ds = mem_per_core_by_science(&table(), 16);
        assert_eq!(ds.rows.len(), 2);
        for (_, gb) in &ds.rows {
            assert!(*gb > 0.0 && *gb < 2.0, "{gb}");
        }
    }

    #[test]
    fn corr_report_selects_independent_metrics() {
        let report = metric_correlation_report(&table(), 0.8);
        // cpu_user ~ -cpu_idle: only one survives, and priority keeps idle.
        let selected = report.selected_metrics();
        assert!(selected.contains(&ExtendedMetric::CpuIdle));
        assert!(!selected.contains(&ExtendedMetric::CpuUser));
        // ib_rx correlates with ib_tx: tx kept.
        assert!(selected.contains(&ExtendedMetric::NetIbTx));
        assert!(!selected.contains(&ExtendedMetric::NetIbRx));
        // The paper's published pairs:
        assert!(report.correlation_of(ExtendedMetric::CpuUser, ExtendedMetric::CpuIdle) < -0.9);
        assert!(report.correlation_of(ExtendedMetric::NetIbRx, ExtendedMetric::NetIbTx) > 0.9);
    }

    #[test]
    fn persistence_report_renders_table1_shape() {
        // Synthetic series: persistent AR-like bins.
        use supremm_warehouse::SystemBin;
        let bins: Vec<SystemBin> = (0..4000)
            .map(|i| {
                let slow = ((i as f64) / 120.0).sin();
                let mut b = SystemBin {
                    ts: Timestamp(i * 600),
                    intervals: 10,
                    flops: 1e12 * (1.0 + 0.3 * slow),
                    mem_used_bytes: 8e9 * 10.0 * (1.0 + 0.1 * slow),
                    ib_tx_bps: 1e9 * (1.0 + 0.4 * slow),
                    scratch_write_bps: 1e8 * (1.0 + if i % 7 == 0 { 3.0 } else { 0.0 }),
                    ..Default::default()
                };
                b.cpu_idle_sum = 1.0 + 0.2 * slow;
                b.cpu_user_sum = 8.0 - 0.2 * slow;
                b
            })
            .collect();
        let series = SystemSeries { bin_secs: 600, bins };
        let report = persistence_report(&series);
        assert_eq!(report.per_metric.len(), 5);
        let table = report.to_table();
        assert!(table.contains("cpu_flops"));
        assert!(table.contains("fit R^2"));
        assert!(table.lines().count() >= 7, "{table}");
        // Bursty scratch writes are less persistent at 10 min than flops.
        let flops_10 = report.per_metric[0].1[0].ratio;
        let write_10 = report.per_metric[2].1[0].ratio;
        assert!(write_10 > flops_10, "{write_10} vs {flops_10}");
    }

    #[test]
    fn cpu_hours_sum_to_total_node_hours() {
        use supremm_warehouse::SystemBin;
        let bins: Vec<SystemBin> = (0..10)
            .map(|i| {
                let mut b =
                    SystemBin { ts: Timestamp(i * 600), intervals: 4, ..Default::default() };
                b.cpu_user_sum = 3.0;
                b.cpu_idle_sum = 0.8;
                b.cpu_system_sum = 0.2;
                b
            })
            .collect();
        let series = SystemSeries { bin_secs: 600, bins };
        let ds = cpu_hours_breakdown(&series);
        let total: f64 = ds.rows.iter().map(|(_, v)| v).sum();
        // 10 bins × 4 host-intervals × (1/6 h) = 6.67 node-hours.
        assert!((total - 10.0 * 4.0 / 6.0).abs() < 1e-9, "{total}");
        assert_eq!(ds.rows[0].0, "user");
    }
}

/// §5's "bouquet of machines" analysis: "although it is hardly surprising
/// to learn that some applications run considerably better on certain
/// machine architectures, with the present tools we can easily identify
/// those applications and provide incentives for users to run on
/// architectures best suited for their application."
///
/// For each application, compare its CPU efficiency and its
/// relative-to-machine-average FLOP rate on every machine, and recommend
/// the machine where it does best.
#[derive(Debug, Clone)]
pub struct MachineScore {
    pub machine: String,
    /// 1 − node·hour-weighted cpu_idle of the app's jobs there.
    pub efficiency: f64,
    /// App FLOP rate relative to the machine's average job.
    pub flops_ratio: f64,
    /// Node-hours the app consumed there (the evidence weight).
    pub node_hours: f64,
}

#[derive(Debug, Clone)]
pub struct MachineRecommendation {
    pub app: String,
    pub scores: Vec<MachineScore>,
    /// Machine with the best combined score, `None` when the app ran on
    /// fewer than two machines.
    pub recommended: Option<String>,
}

/// Build the bouquet recommendation table for the named applications
/// across several machines' warehouses.
pub fn machine_bouquet(
    machines: &[(&str, &JobTable)],
    apps: &[&str],
) -> Vec<MachineRecommendation> {
    apps.iter()
        .map(|&app| {
            let mut scores = Vec::new();
            for &(machine, table) in machines {
                let jobs: Vec<_> =
                    table.jobs().iter().filter(|j| j.app.as_deref() == Some(app)).collect();
                if jobs.is_empty() {
                    continue;
                }
                let idle = weighted_metric_mean(jobs.iter().copied(), KeyMetric::CpuIdle);
                let flops = weighted_metric_mean(jobs.iter().copied(), KeyMetric::CpuFlops);
                let machine_flops = weighted_metric_mean(table.jobs().iter(), KeyMetric::CpuFlops);
                let node_hours: f64 = jobs.iter().map(|j| j.node_hours()).sum();
                scores.push(MachineScore {
                    machine: machine.to_string(),
                    efficiency: 1.0 - idle,
                    flops_ratio: if machine_flops > 0.0 { flops / machine_flops } else { 0.0 },
                    node_hours,
                });
            }
            // Combined score: run where the app is both efficient and
            // above the local average in floating-point delivery.
            let recommended = (scores.len() >= 2)
                .then(|| {
                    scores
                        .iter()
                        .max_by(|a, b| {
                            (a.efficiency * a.flops_ratio)
                                .total_cmp(&(b.efficiency * b.flops_ratio))
                        })
                        .map(|s| s.machine.clone())
                })
                .flatten();
            MachineRecommendation { app: app.to_string(), scores, recommended }
        })
        .collect()
}

#[cfg(test)]
mod bouquet_tests {
    use super::*;
    use supremm_metrics::metric::KeyMetricVec;
    use supremm_metrics::{ExtendedMetric, JobId, ScienceField, Timestamp};
    use supremm_warehouse::record::{ExitKind, JobRecord};

    fn job(id: u64, app: &str, idle: f64, flops: f64) -> JobRecord {
        let mut metrics = KeyMetricVec::default();
        metrics.set(KeyMetric::CpuIdle, idle);
        metrics.set(KeyMetric::CpuFlops, flops);
        JobRecord {
            job: JobId(id),
            user: UserId(1),
            app: Some(app.to_string()),
            science: ScienceField::Physics,
            queue: "normal".into(),
            submit: Timestamp(0),
            start: Timestamp(0),
            end: Timestamp(36_000),
            nodes: 4,
            exit: ExitKind::Completed,
            metrics,
            extended: [0.0; ExtendedMetric::ALL.len()],
            flops_valid: true,
            samples: 10,
            coverage_gaps: 0,
        }
    }

    #[test]
    fn bouquet_recommends_the_better_machine() {
        // AMBER: inefficient on machine A, efficient + flops-strong on B.
        let a = JobTable::new(vec![job(1, "AMBER", 0.4, 1e9), job(2, "NAMD", 0.05, 5e9)]);
        let b = JobTable::new(vec![job(3, "AMBER", 0.1, 6e9), job(4, "NAMD", 0.05, 5e9)]);
        let recs = machine_bouquet(&[("A", &a), ("B", &b)], &["AMBER"]);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].scores.len(), 2);
        assert_eq!(recs[0].recommended.as_deref(), Some("B"));
    }

    #[test]
    fn single_machine_apps_get_no_recommendation() {
        let a = JobTable::new(vec![job(1, "WRF", 0.1, 1e9)]);
        let b = JobTable::new(vec![job(2, "NAMD", 0.1, 1e9)]);
        let recs = machine_bouquet(&[("A", &a), ("B", &b)], &["WRF"]);
        assert_eq!(recs[0].scores.len(), 1);
        assert!(recs[0].recommended.is_none());
    }
}

/// §4.3.5's "resource use trends and predictions": decompose system
/// utilisation into diurnal season + growth trend, and forecast ahead.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// Mean busy-node share over the window.
    pub mean_busy_share: f64,
    /// Peak-to-trough diurnal swing of the busy share (absolute).
    pub diurnal_swing: f64,
    /// Fitted growth of the busy share per day.
    pub growth_per_day: f64,
    pub growth_significant: bool,
    /// (lo, point, hi) forecast of the busy share one day ahead.
    pub next_day_forecast: (f64, f64, f64),
}

/// Build the utilisation trend report from the system series.
/// `node_count` converts busy-node counts into shares.
pub fn utilization_trend(series: &SystemSeries, node_count: u32) -> Option<TrendReport> {
    let dense = series.dense();
    let busy: Vec<f64> = dense.series(|b| b.busy_nodes as f64 / node_count.max(1) as f64);
    let bins_per_day = (86_400 / dense.bin_secs.max(1)) as usize;
    let d = supremm_analytics::trend::decompose(&busy, bins_per_day)?;
    let season_hi = d.seasonal.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let season_lo = d.seasonal.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    Some(TrendReport {
        mean_busy_share: mean,
        diurnal_swing: season_hi - season_lo,
        growth_per_day: d.growth_per_cycle(),
        growth_significant: d.trend_significant(0.01),
        next_day_forecast: d.forecast_band(bins_per_day),
    })
}

/// §4.3.1's consolidated USER report: everything the paper says a user
/// should be able to see about themselves — their normalized profile,
/// how their efficiency ranks against the whole machine, and their job
/// completion/failure history.
#[derive(Debug, Clone)]
pub struct UserReport {
    pub user: UserId,
    pub jobs: usize,
    pub node_hours: f64,
    /// Normalized 8-metric profile (1.0 = machine average).
    pub profile: Profile,
    /// This user's CPU efficiency and the machine average.
    pub efficiency: f64,
    pub machine_efficiency: f64,
    /// Rank by node-hours among all users (1 = heaviest).
    pub node_hours_rank: usize,
    pub total_users: usize,
    /// Jobs by exit status.
    pub completions: Vec<(&'static str, usize)>,
    /// Plain-language advice lines derived from the numbers.
    pub advice: Vec<String>,
}

/// Build the §4.3.1 user report. Returns `None` for a user with no jobs.
pub fn user_report(table: &JobTable, user: UserId) -> Option<UserReport> {
    let jobs: Vec<_> = table.jobs().iter().filter(|j| j.user == user).collect();
    if jobs.is_empty() {
        return None;
    }
    let agg = JobTable::aggregate(jobs.iter().copied());
    let global = table.global_aggregate();
    let profile = Profile {
        label: user.to_string(),
        values: normalize(&agg.means, &global.means),
        node_hours: agg.node_hours,
    };
    let wasted = wasted_hours(table);
    let mine = wasted.points.iter().find(|p| p.key == user)?;
    let ranks = table.top_by_node_hours(|j| j.user, usize::MAX);
    let node_hours_rank =
        ranks.iter().position(|&(u, _)| u == user).map(|i| i + 1).unwrap_or(ranks.len());

    use supremm_warehouse::record::ExitKind;
    let mut completions = Vec::new();
    for kind in [ExitKind::Completed, ExitKind::Failed, ExitKind::NodeFailure, ExitKind::Cancelled]
    {
        let n = jobs.iter().filter(|j| j.exit == kind).count();
        if n > 0 {
            completions.push((kind.name(), n));
        }
    }

    let mut advice = Vec::new();
    let efficiency = mine.usage.efficiency();
    if efficiency + 0.1 < wasted.average_efficiency {
        advice.push(format!(
            "your CPU efficiency ({:.0}%) is well below the machine average ({:.0}%): \
             check rank counts, binding, and whether the job actually uses all cores",
            efficiency * 100.0,
            wasted.average_efficiency * 100.0
        ));
    }
    let mem_ratio = profile.values.get(KeyMetric::MemUsed);
    if mem_ratio < 0.3 {
        advice.push(
            "memory use is far below average: consider more ranks per node or smaller allocations"
                .to_string(),
        );
    }
    let failed = jobs.iter().filter(|j| j.exit == ExitKind::Failed).count();
    if failed * 5 > jobs.len() {
        advice.push(format!(
            "{failed} of {} jobs failed: the failure-diagnosis report can attribute causes",
            jobs.len()
        ));
    }
    if advice.is_empty() {
        advice.push("resource use looks healthy".to_string());
    }

    Some(UserReport {
        user,
        jobs: jobs.len(),
        node_hours: agg.node_hours,
        profile,
        efficiency,
        machine_efficiency: wasted.average_efficiency,
        node_hours_rank,
        total_users: ranks.len(),
        completions,
        advice,
    })
}

impl UserReport {
    pub fn render(&self) -> String {
        let mut out = format!(
            "user {} — {} jobs, {:.0} node-hours (rank {}/{} by consumption)\n\
             efficiency: {:.1}% (machine average {:.1}%)\nprofile (1.0 = average):\n",
            self.user,
            self.jobs,
            self.node_hours,
            self.node_hours_rank,
            self.total_users,
            self.efficiency * 100.0,
            self.machine_efficiency * 100.0,
        );
        for (m, v) in self.profile.values.iter() {
            out.push_str(&format!("  {:<18} {v:>6.2}x\n", m.name()));
        }
        out.push_str("completions:");
        for (kind, n) in &self.completions {
            out.push_str(&format!(" {kind}={n}"));
        }
        out.push('\n');
        for a in &self.advice {
            out.push_str(&format!("advice: {a}\n"));
        }
        out
    }
}

#[cfg(test)]
mod user_report_tests {
    use super::*;
    use supremm_metrics::metric::KeyMetricVec;
    use supremm_metrics::{ExtendedMetric, JobId, ScienceField, Timestamp};
    use supremm_warehouse::record::{ExitKind, JobRecord};

    fn job(id: u64, user: u32, idle: f64, exit: ExitKind) -> JobRecord {
        let mut metrics = KeyMetricVec::default();
        metrics.set(KeyMetric::CpuIdle, idle);
        metrics.set(KeyMetric::MemUsed, 6e9);
        JobRecord {
            job: JobId(id),
            user: UserId(user),
            app: Some("NAMD".into()),
            science: ScienceField::Physics,
            queue: "normal".into(),
            submit: Timestamp(0),
            start: Timestamp(0),
            end: Timestamp(36_000),
            nodes: 4,
            exit,
            metrics,
            extended: [0.0; ExtendedMetric::ALL.len()],
            flops_valid: true,
            samples: 60,
            coverage_gaps: 0,
        }
    }

    fn table() -> JobTable {
        JobTable::new(vec![
            job(1, 1, 0.05, ExitKind::Completed),
            job(2, 1, 0.06, ExitKind::Completed),
            job(3, 2, 0.60, ExitKind::Completed),
            job(4, 2, 0.65, ExitKind::Failed),
            job(5, 2, 0.62, ExitKind::Failed),
            job(6, 3, 0.10, ExitKind::Completed),
        ])
    }

    #[test]
    fn efficient_user_gets_a_clean_bill() {
        let r = user_report(&table(), UserId(1)).unwrap();
        assert_eq!(r.jobs, 2);
        assert!(r.efficiency > 0.9);
        assert_eq!(r.advice, vec!["resource use looks healthy".to_string()]);
        assert_eq!(r.completions, vec![("completed", 2)]);
        let text = r.render();
        assert!(text.contains("u00001"));
        assert!(text.contains("cpu_idle"));
    }

    #[test]
    fn inefficient_failing_user_gets_both_warnings() {
        let r = user_report(&table(), UserId(2)).unwrap();
        assert!(r.efficiency < r.machine_efficiency);
        assert!(r.advice.iter().any(|a| a.contains("efficiency")), "{:?}", r.advice);
        assert!(r.advice.iter().any(|a| a.contains("failed")), "{:?}", r.advice);
        assert_eq!(r.node_hours_rank, 1, "heaviest user by node-hours");
        assert!(r.completions.contains(&("failed", 2)));
    }

    #[test]
    fn unknown_user_is_none() {
        assert!(user_report(&table(), UserId(99)).is_none());
    }
}

/// Data-quality report for one resource: what fraction of the machine's
/// node-time actually has valid samples behind it, and where the rest
/// went. §4.1 notes the ingested raw data is incomplete in practice
/// (collector crashes, lost files); this makes that incompleteness a
/// first-class, per-resource number instead of a silent bias in every
/// downstream figure.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    pub resource: String,
    /// Fraction of node·bins over the series span with a valid sample
    /// (1.0 = every node reported in every bin).
    pub series_coverage: f64,
    /// Fraction of job node-hours backed by gap-free raw data.
    pub clean_node_hours_fraction: f64,
    /// Jobs whose raw data contained at least one corrupt region.
    pub jobs_with_gaps: usize,
    pub total_jobs: usize,
    /// Contiguous corrupt regions across the whole archive.
    pub gaps: usize,
    /// Quarantine accounting carried over from ingest.
    pub records_seen: usize,
    pub samples_quarantined: usize,
    pub bytes_quarantined: u64,
    /// Files rejected outright (unreadable header, or any error under
    /// strict ingest).
    pub files_rejected: usize,
}

/// Build the per-resource coverage report from the three artifacts a
/// pipeline run already produces: the job table (per-job gap counts),
/// the system series (node·bin coverage), and the ingest stats
/// (quarantine totals). `node_count` sizes the fleet the series is
/// measured against.
pub fn coverage_report(
    resource: &str,
    table: &JobTable,
    series: &SystemSeries,
    stats: &supremm_warehouse::IngestStats,
    node_count: u32,
) -> CoverageReport {
    let mut clean_hours = 0.0;
    let mut total_hours = 0.0;
    let mut jobs_with_gaps = 0usize;
    for j in table.jobs() {
        let h = j.node_hours();
        total_hours += h;
        if j.coverage_gaps == 0 {
            clean_hours += h;
        } else {
            jobs_with_gaps += 1;
        }
    }
    CoverageReport {
        resource: resource.to_string(),
        series_coverage: series.coverage(node_count),
        clean_node_hours_fraction: if total_hours > 0.0 { clean_hours / total_hours } else { 1.0 },
        jobs_with_gaps,
        total_jobs: table.len(),
        gaps: stats.gaps,
        records_seen: stats.records_seen,
        samples_quarantined: stats.samples_quarantined,
        bytes_quarantined: stats.bytes_quarantined,
        files_rejected: stats.parse_errors,
    }
}

impl CoverageReport {
    /// True when the archive behind this resource was fully intact.
    pub fn is_complete(&self) -> bool {
        self.samples_quarantined == 0
            && self.gaps == 0
            && self.files_rejected == 0
            && self.jobs_with_gaps == 0
    }

    /// Plain-text rendering for operator consoles.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("coverage report: {}\n", self.resource));
        out.push_str(&format!(
            "  node-bin coverage        {:6.2}%\n",
            self.series_coverage * 100.0
        ));
        out.push_str(&format!(
            "  clean job node-hours     {:6.2}%\n",
            self.clean_node_hours_fraction * 100.0
        ));
        out.push_str(&format!(
            "  jobs with gaps           {:>6} / {}\n",
            self.jobs_with_gaps, self.total_jobs
        ));
        out.push_str(&format!("  corrupt regions          {:>6}\n", self.gaps));
        out.push_str(&format!(
            "  records quarantined      {:>6} / {}\n",
            self.samples_quarantined, self.records_seen
        ));
        out.push_str(&format!("  bytes quarantined        {:>6}\n", self.bytes_quarantined));
        out.push_str(&format!("  files rejected           {:>6}\n", self.files_rejected));
        out
    }
}

#[cfg(test)]
mod coverage_tests {
    use super::*;
    use supremm_metrics::metric::KeyMetricVec;
    use supremm_metrics::{JobId, ScienceField, Timestamp};
    use supremm_warehouse::record::{ExitKind, JobRecord};
    use supremm_warehouse::{IngestStats, SystemBin};

    fn job(id: u64, hours: u64, nodes: u32, gaps: u32) -> JobRecord {
        JobRecord {
            job: JobId(id),
            user: UserId(1),
            app: None,
            science: ScienceField::Physics,
            queue: "normal".into(),
            submit: Timestamp(0),
            start: Timestamp(0),
            end: Timestamp(hours * 3600),
            nodes,
            exit: ExitKind::Completed,
            metrics: KeyMetricVec::default(),
            extended: [0.0; ExtendedMetric::ALL.len()],
            flops_valid: true,
            samples: 4,
            coverage_gaps: gaps,
        }
    }

    fn series() -> SystemSeries {
        // Three bins over a 3-bin span; 2+1+2 = 5 of 6 node-bins seen.
        let mut bins = Vec::new();
        for (i, active) in [(0u64, 2u32), (1, 1), (2, 2)] {
            bins.push(SystemBin {
                ts: Timestamp(i * 600),
                active_nodes: active,
                ..SystemBin::default()
            });
        }
        SystemSeries { bin_secs: 600, bins }
    }

    #[test]
    fn clean_run_is_complete() {
        let table = JobTable::new(vec![job(1, 10, 2, 0), job(2, 5, 1, 0)]);
        let r = coverage_report("ranger", &table, &series(), &IngestStats::default(), 2);
        assert!(r.is_complete());
        assert!((r.clean_node_hours_fraction - 1.0).abs() < 1e-12);
        assert!((r.series_coverage - 5.0 / 6.0).abs() < 1e-12);
        assert!(r.to_table().contains("ranger"));
    }

    #[test]
    fn gaps_show_up_in_node_hour_fraction() {
        // 20 clean node-hours vs 5 gap-backed ones.
        let table = JobTable::new(vec![job(1, 10, 2, 0), job(2, 5, 1, 3)]);
        let stats = IngestStats {
            records_seen: 40,
            records: 37,
            samples_quarantined: 3,
            bytes_quarantined: 512,
            gaps: 3,
            parse_errors: 1,
            ..IngestStats::default()
        };
        let r = coverage_report("lonestar4", &table, &series(), &stats, 2);
        assert!(!r.is_complete());
        assert_eq!(r.jobs_with_gaps, 1);
        assert_eq!(r.total_jobs, 2);
        assert!((r.clean_node_hours_fraction - 20.0 / 25.0).abs() < 1e-12);
        assert_eq!(r.gaps, 3);
        assert_eq!(r.files_rejected, 1);
        assert!(stats.conservation_holds());
    }

    #[test]
    fn empty_table_reports_full_clean_fraction() {
        let r = coverage_report(
            "stampede",
            &JobTable::default(),
            &SystemSeries { bin_secs: 600, bins: Vec::new() },
            &IngestStats::default(),
            4,
        );
        assert!((r.clean_node_hours_fraction - 1.0).abs() < 1e-12);
        assert_eq!(r.series_coverage, 0.0);
    }
}
