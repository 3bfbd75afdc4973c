//! The systems-administrator view (§4.3.4, Table 1 + Figure 6): how far
//! into the future does the current resource-use pattern predict? Also
//! demonstrates §4.3.4's closing idea — using the persistence model to
//! pick queue jobs that *complement* current usage ("add high I/O jobs
//! when I/O is relatively free").
//!
//! ```text
//! cargo run --release --example persistence_forecast
//! ```

use supremm_suite::analytics::persistence::log_fit;
use supremm_suite::prelude::*;
use supremm_suite::xdmod::reports;

fn main() {
    let cfg = ClusterConfig::ranger().scaled(32, 12);
    println!("simulating {} nodes x {} days ...\n", cfg.node_count, cfg.sim_days);
    let ds = run_pipeline(cfg, &PipelineOptions { keep_archive: false, ..Default::default() });

    // Table 1.
    let report = reports::persistence_report(&ds.series);
    println!("-- Table 1: sigma(offset)/sigma per metric --");
    print!("{}", report.to_table());

    // Figure 6: combined logarithmic fit.
    if let Some(fit) = &report.combined {
        println!("\n-- Figure 6: combined fit over all five metrics --");
        println!(
            "ratio = {:.3} (se {:.3}, p {:.1e})  +  {:.3} (se {:.3}, p {:.1e}) * log10(offset_min)",
            fit.intercept, fit.intercept_se, fit.intercept_p, fit.slope, fit.slope_se, fit.slope_p
        );
        println!("R^2 = {:.3}   (paper, Ranger: -0.17 + 0.36*log10, R^2 = 0.87)", fit.r_squared);
        // The paper's horizon observation: predictability is gone near the
        // weighted mean job length.
        let horizon = 10f64.powf((1.0 - fit.intercept) / fit.slope);
        println!(
            "model horizon (ratio = 1): {:.0} min; weighted mean job length: {:.0} min",
            horizon,
            ds.table.weighted_mean_job_len_min()
        );
    }

    // §4.3.4's scheduling idea: look at the last sampled bin and say what
    // kind of queued job would complement the machine state right now.
    let last = ds.series.bins.iter().rev().find(|b| b.intervals > 0).expect("non-empty series");
    let io_mbs = (last.scratch_write_bps + last.scratch_read_bps) / (1024.0 * 1024.0);
    let idle_share = last.cpu_shares().2;
    // Per-metric ten-minute predictability tells us the suggestion will
    // still be valid when the scheduler acts on it.
    let ten_min = report
        .per_metric
        .iter()
        .filter_map(|(m, pts, _)| pts.first().map(|p| (m, p.ratio)))
        .map(|(m, r)| format!("{m}: {r:.2}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!("\n-- complement-the-load suggestion (end of simulated window) --");
    println!(
        "current scratch traffic: {io_mbs:.0} MB/s; cpu idle share: {:.0}%",
        idle_share * 100.0
    );
    println!("10-minute predictability ratios: {ten_min}");
    if io_mbs < 50.0 {
        println!("=> I/O is relatively free: prefer I/O-heavy queue jobs (WRF, ENZO class).");
    } else {
        println!("=> I/O is busy: prefer compute-bound queue jobs (NAMD, GROMACS class).");
    }

    // Sanity: the per-metric log fits that Table 1's last row reports.
    for (m, pts, _) in &report.per_metric {
        if let Some(f) = log_fit(pts) {
            println!("   {m}: own-fit R^2 {:.3}", f.r_squared);
        }
    }
}
