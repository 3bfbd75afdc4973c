//! Cross-crate integration: one pipeline run, checked from every angle —
//! the raw archive, the logs, the warehouse, and the reports must all
//! agree with each other.

use std::sync::OnceLock;

use supremm_suite::metrics::KeyMetric;
use supremm_suite::prelude::*;
use supremm_suite::ratlog::accounting::parse_file;
use supremm_suite::taccstats::format::parse;
use supremm_suite::warehouse::record::ExitKind;
use supremm_suite::xdmod::framework::{run as run_query, Dimension, Query, Statistic};

fn dataset() -> &'static MachineDataset {
    static DS: OnceLock<MachineDataset> = OnceLock::new();
    DS.get_or_init(|| {
        run_pipeline(ClusterConfig::ranger().scaled(24, 5), &PipelineOptions::default())
    })
}

#[test]
fn every_raw_file_parses_and_matches_its_key() {
    let ds = dataset();
    assert!(!ds.archive.is_empty());
    for (key, content) in ds.archive.iter() {
        let parsed = parse(content).unwrap_or_else(|e| panic!("{}: {e}", key.file_name()));
        assert_eq!(parsed.hostname, key.host.hostname());
        for rec in parsed.records() {
            assert_eq!(rec.ts.day(), key.day, "record filed under the wrong day");
        }
    }
}

#[test]
fn accounting_log_round_trips_through_text() {
    let ds = dataset();
    let text: String = ds.accounting.iter().map(|r| r.to_line() + "\n").collect();
    let parsed = parse_file(&text);
    assert_eq!(parsed.len(), ds.accounting.len());
    for (a, b) in parsed.iter().zip(&ds.accounting) {
        assert_eq!(a, b);
    }
}

#[test]
fn warehouse_agrees_with_accounting_ground_truth() {
    let ds = dataset();
    let by_id: std::collections::HashMap<_, _> = ds.accounting.iter().map(|a| (a.job, a)).collect();
    for job in ds.table.jobs() {
        let acct = by_id[&job.job];
        assert_eq!(job.user, acct.owner);
        assert_eq!(job.nodes, acct.nodes);
        assert_eq!(job.start, acct.start);
        assert_eq!(job.end, acct.end);
        assert_eq!(job.exit, ExitKind::from_failed_code(acct.failed));
    }
}

#[test]
fn every_ingested_job_has_a_lariat_record_and_consistent_app() {
    let ds = dataset();
    let lariat_by_id: std::collections::HashMap<_, _> =
        ds.lariat.iter().map(|l| (l.job, l)).collect();
    for job in ds.table.jobs() {
        let lariat =
            lariat_by_id.get(&job.job).unwrap_or_else(|| panic!("job {} missing lariat", job.job));
        match &job.app {
            Some(app) => assert_eq!(app, &lariat.app_name),
            // Only the long-tail custom code lacks a resolvable name.
            None => assert_eq!(lariat.app_name, "CustomMPI"),
        }
    }
}

#[test]
fn node_hours_roughly_conserved_between_sim_and_warehouse() {
    let ds = dataset();
    let acct_nh: f64 = ds.accounting.iter().map(|a| a.node_hours()).sum();
    let table_nh = ds.table.total_node_hours();
    // The table misses only sub-interval jobs.
    assert!(table_nh <= acct_nh + 1e-6);
    assert!(table_nh / acct_nh > 0.9, "{table_nh} vs {acct_nh}");
}

#[test]
fn xdmod_queries_are_consistent_with_direct_aggregation() {
    let ds = dataset();
    let q = Query { dimension: Dimension::None, statistic: Statistic::NodeHours, filters: vec![] };
    let total = run_query(&ds.table, &q).get("all").unwrap();
    assert!((total - ds.table.total_node_hours()).abs() < 1e-6);

    // Per-user node-hours sum back to the total.
    let per_user = run_query(
        &ds.table,
        &Query { dimension: Dimension::User, statistic: Statistic::NodeHours, filters: vec![] },
    );
    let sum: f64 = per_user.rows.iter().map(|(_, v)| v).sum();
    assert!((sum - total).abs() < 1e-6);
}

#[test]
fn system_series_busy_nodes_match_job_table_occupancy() {
    let ds = dataset();
    // Total busy node-samples from the series ≈ total node-intervals from
    // the job table (each interval's endpoint sample is busy).
    let busy_samples: u64 = ds.series.bins.iter().map(|b| b.busy_nodes as u64).sum();
    let table_intervals: u64 = ds.table.jobs().iter().map(|j| j.samples as u64).sum();
    let ratio = busy_samples as f64 / table_intervals as f64;
    // Busy samples include each job's begin sample (one extra per
    // host-run) and jobs missing accounting; allow a modest band.
    assert!((0.9..1.4).contains(&ratio), "{busy_samples} vs {table_intervals}");
}

#[test]
fn single_pass_ingest_matches_the_old_two_pass_outputs() {
    use supremm_suite::warehouse::{consume_archive, ingest, ConsumeOptions, SystemSeries};
    let ds = dataset();
    // One parse pass producing both products ...
    let opts = ConsumeOptions { bin_secs: Some(600), ..Default::default() };
    let single = consume_archive(&ds.archive, opts).finish(&ds.accounting, &ds.lariat);
    let (jobs_single, stats_single) = (single.records, single.stats);
    let series_single = single.series.expect("binning requested");
    // ... must equal the two independent passes it replaced, bit for bit.
    let (jobs_two, stats_two) = ingest(&ds.archive, &ds.accounting, &ds.lariat);
    let series_two = SystemSeries::from_archive(&ds.archive, 600);
    assert_eq!(stats_single, stats_two);
    assert_eq!(jobs_single.len(), jobs_two.len());
    for (a, b) in jobs_single.iter().zip(&jobs_two) {
        assert_eq!(a, b, "job {} diverged between passes", a.job);
    }
    assert_eq!(series_single.bins, series_two.bins);
}

#[test]
fn syslog_failure_events_reference_real_jobs() {
    let ds = dataset();
    // Lariat records are written at job *start*, so they also cover jobs
    // still running when the window closed (which accounting cannot).
    let known: std::collections::HashSet<_> = ds.lariat.iter().map(|l| l.job).collect();
    for rec in &ds.syslog {
        if let Some(job) = rec.job {
            assert!(known.contains(&job), "syslog references unknown job {job}");
        }
    }
}

#[test]
fn reports_run_on_the_integrated_dataset() {
    let ds = dataset();
    // Each stakeholder entry point produces non-empty output.
    assert_eq!(reports::user_profiles(&ds.table, 3).len(), 3);
    assert!(!reports::wasted_hours(&ds.table).points.is_empty());
    let persistence = reports::persistence_report(&ds.series);
    assert_eq!(persistence.per_metric.len(), 5);
    let fig7a = reports::mem_per_core_by_science(&ds.table, 16);
    assert!(!fig7a.rows.is_empty());
    let corr = reports::metric_correlation_report(&ds.table, 0.8);
    assert!(corr.selected.len() >= 6);
}

#[test]
fn key_metric_means_stay_physical_end_to_end() {
    let ds = dataset();
    let agg = ds.table.global_aggregate();
    let idle = agg.means.get(KeyMetric::CpuIdle);
    assert!((0.02..0.5).contains(&idle), "weighted idle {idle}");
    let mem = agg.means.get(KeyMetric::MemUsed);
    assert!(mem > 1e9 && mem < 32.0 * 1.1e9, "mem {mem}");
    let flops = agg.means.get(KeyMetric::CpuFlops);
    assert!(flops > 1e8 && flops < 150e9, "flops {flops}");
}

#[test]
fn http_api_answers_over_the_pipeline_table() {
    use supremm_suite::xdmod::serve::handle;
    let ds = dataset();
    let resp = handle(
        &ds.table,
        None,
        &supremm_obs::ObsRegistry::new(),
        "GET /v1/query?dimension=application&statistic=node_hours HTTP/1.0",
    );
    assert_eq!(resp.status, 200);
    let v = supremm_suite::metrics::json::Value::parse(&resp.body).unwrap();
    let rows = v["rows"].as_array().unwrap();
    assert!(!rows.is_empty());
    // Sum of per-app node-hours equals the table total.
    let sum: f64 = rows.iter().map(|r| r[1].as_f64().unwrap()).sum();
    assert!((sum - ds.table.total_node_hours()).abs() < 1e-6);
}

#[test]
fn monthly_report_builds_from_the_pipeline() {
    use supremm_suite::xdmod::report_builder::{build_report, ReportInputs, ReportSpec};
    let ds = dataset();
    let md = build_report(
        &ReportSpec::center_monthly(),
        &ReportInputs {
            table: &ds.table,
            series: &ds.series,
            node_count: ds.cfg.node_count,
            cores_per_node: ds.cfg.node_spec.cores,
            window: "integration".into(),
            machine: ds.cfg.name.into(),
        },
    );
    assert!(md.contains("## Summary"));
    assert!(md.contains("### Efficiency"));
    assert!(md.len() > 1000);
}
