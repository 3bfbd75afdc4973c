//! Quickstart: run the whole SUPReMM tool chain on a small simulated
//! cluster and print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use supremm_suite::prelude::*;

fn main() {
    // A pocket-sized Ranger: 16 nodes, 2 simulated days.
    let cfg = ClusterConfig::ranger().scaled(16, 2);
    println!("simulating {} ({} nodes x {} days) ...", cfg.name, cfg.node_count, cfg.sim_days);
    let ds = run_pipeline(cfg, &PipelineOptions::default());

    println!("\n-- collection --");
    println!("raw files:        {}", ds.archive.len());
    println!(
        "raw volume:       {:.2} MB total, {:.2} MB/node/day (paper: ~0.5)",
        ds.raw_total_bytes as f64 / (1024.0 * 1024.0),
        ds.raw_mean_bytes_per_node_day / (1024.0 * 1024.0)
    );

    println!("\n-- ingest --");
    println!("jobs ingested:    {}", ds.table.len());
    println!("intervals:        {}", ds.ingest_stats.intervals);
    println!("syslog records:   {}", ds.syslog.len());
    println!("lariat records:   {}", ds.lariat.len());

    println!("\n-- warehouse --");
    println!("node-hours:       {:.0}", ds.table.total_node_hours());
    println!("weighted job len: {:.0} min", ds.table.weighted_mean_job_len_min());
    let agg = ds.table.global_aggregate();
    println!("avg cpu_idle:     {:.1}%", agg.means.get(KeyMetric::CpuIdle) * 100.0);
    println!(
        "avg mem_used:     {:.1} GB/node",
        agg.means.get(KeyMetric::MemUsed) / 1.073_741_824e9
    );

    println!("\n-- a report (top applications by node-hours) --");
    let query = supremm_suite::xdmod::framework::Query {
        dimension: supremm_suite::xdmod::framework::Dimension::Application,
        statistic: supremm_suite::xdmod::framework::Statistic::NodeHours,
        filters: vec![],
    };
    let dataset = supremm_suite::xdmod::framework::run(&ds.table, &query);
    print!(
        "{}",
        supremm_suite::xdmod::render::to_ascii_table(
            "node-hours by application",
            &dataset,
            "node_hours"
        )
    );
}
