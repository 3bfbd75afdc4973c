//! Ingested results vs simulation ground truth: the numbers the warehouse
//! reports must reflect what the workload model actually did — the
//! measurement chain may not invent or lose signal.

use std::sync::OnceLock;

use supremm_suite::clustersim::{AppCatalog, Simulation};
use supremm_suite::metrics::KeyMetric;
use supremm_suite::prelude::*;

fn dataset() -> &'static MachineDataset {
    static DS: OnceLock<MachineDataset> = OnceLock::new();
    DS.get_or_init(|| {
        run_pipeline(
            ClusterConfig::ranger().scaled(32, 6),
            &PipelineOptions { keep_archive: false, ..Default::default() },
        )
    })
}

/// The anomalous users injected by the population model must surface in
/// the warehouse with their pathological idle — the full measurement
/// chain (kernel counters → collector → ingest) preserves the signal.
#[test]
fn injected_idle_anomalies_survive_the_measurement_chain() {
    let ds = dataset();
    let sim = Simulation::new(ds.cfg.clone());
    let mut found = 0;
    for user in sim.users().anomalous() {
        let jobs: Vec<_> = ds.table.jobs().iter().filter(|j| j.user == user.id).collect();
        if jobs.is_empty() {
            continue;
        }
        found += 1;
        let idle = supremm_suite::warehouse::store::weighted_metric_mean(
            jobs.iter().copied(),
            KeyMetric::CpuIdle,
        );
        let expect = user.idle_anomaly.unwrap();
        assert!(
            (idle - expect).abs() < 0.06,
            "user {}: measured idle {idle:.3}, injected {expect:.3}",
            user.id
        );
    }
    assert!(found > 0, "at least one anomalous user ran jobs");
}

/// Per-application idle means from the warehouse reflect the catalog's
/// signatures (ordering, not exact values — users add their own traits).
#[test]
fn app_idle_ordering_matches_catalog_signatures() {
    let ds = dataset();
    let catalog = AppCatalog::standard();
    let idle_of = |name: &str| {
        let jobs: Vec<_> =
            ds.table.jobs().iter().filter(|j| j.app.as_deref() == Some(name)).collect();
        assert!(jobs.len() >= 3, "{name}: only {} jobs at this scale", jobs.len());
        supremm_suite::warehouse::store::weighted_metric_mean(
            jobs.iter().copied(),
            KeyMetric::CpuIdle,
        )
    };
    let namd = idle_of("NAMD");
    let amber = idle_of("AMBER");
    assert!(amber > 1.5 * namd, "AMBER ({amber:.3}) should idle far more than NAMD ({namd:.3})");
    // And both should be in the ballpark of their configured medians.
    let namd_sig = catalog.by_name("NAMD").unwrap().signature_for(false, 1.0, ds.cfg.idle_scale);
    assert!(
        namd / namd_sig.idle_frac.0 > 0.4 && namd / namd_sig.idle_frac.0 < 2.5,
        "NAMD measured {namd:.3} vs configured median {:.3}",
        namd_sig.idle_frac.0
    );
}

/// FLOPS integrity: jobs flagged `flops_valid == false` exist exactly
/// because PAPI-style reprogramming happened, and valid jobs report
/// physically possible rates.
#[test]
fn flops_validity_flag_tracks_counter_clobbering() {
    let ds = dataset();
    for job in ds.table.jobs() {
        let flops = job.metrics.get(KeyMetric::CpuFlops);
        let peak = ds.cfg.node_spec.peak_gflops * 1e9;
        assert!(flops <= peak, "{}: impossible rate {flops}", job.job);
        if !job.flops_valid {
            // Clobbered jobs must not carry a trustworthy-looking rate
            // from partial intervals: the mean over valid intervals may
            // exist but the flag warns the analyst.
            assert!(job.samples > 0);
        }
    }
    // At this scale some jobs should be flagged (CustomMPI's papi_prob).
    let invalid = ds.table.jobs().iter().filter(|j| !j.flops_valid).count();
    let valid = ds.table.len() - invalid;
    assert!(valid > 0);
}

/// Memory reported per job must stay below the node's physical memory
/// and above the OS floor.
#[test]
fn memory_bounds_hold_for_every_job() {
    let ds = dataset();
    let cap = ds.cfg.node_spec.mem_bytes as f64;
    for job in ds.table.jobs() {
        let used = job.metrics.get(KeyMetric::MemUsed);
        let max = job.metrics.get(KeyMetric::MemUsedMax);
        assert!(used > 100e6, "{}: {used}", job.job);
        assert!(max <= cap * 1.01, "{}: {max}", job.job);
        assert!(max + 1.0 >= used, "{}: max {max} < mean {used}", job.job);
    }
}

/// The efficiency target calibrated into the config lands where the paper
/// says (Ranger ≈ 90 %).
#[test]
fn machine_efficiency_hits_the_calibrated_band() {
    let ds = dataset();
    let report = reports::wasted_hours(&ds.table);
    assert!(
        (report.average_efficiency - 0.90).abs() < 0.06,
        "efficiency {:.3}",
        report.average_efficiency
    );
}

/// Job time accounting: every ingested job's sample count is consistent
/// with its duration and node count (one sample per node per interval,
/// plus the begin sample).
#[test]
fn sample_counts_match_job_geometry() {
    let ds = dataset();
    let iv = ds.cfg.interval.seconds();
    for job in ds.table.jobs() {
        let intervals_per_node = job.wall_secs() / iv;
        let expected = intervals_per_node * job.nodes as u64;
        let got = job.samples as u64;
        // Outage-killed jobs may lose up to all their remaining samples;
        // everything else should be nearly exact.
        if job.exit == supremm_suite::warehouse::record::ExitKind::Completed {
            assert!(
                got + job.nodes as u64 >= expected && got <= expected + job.nodes as u64,
                "{}: got {got}, expected ~{expected}",
                job.job
            );
        } else {
            assert!(got <= expected + job.nodes as u64);
        }
    }
}
