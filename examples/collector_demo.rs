//! Collector close-up: one simulated node, one job, and the raw
//! self-describing TACC_Stats file it produces — then parse the file back
//! and derive the per-interval metrics, exactly as the ingest pipeline
//! does.
//!
//! ```text
//! cargo run --release --example collector_demo
//! ```

use supremm_suite::metrics::{Duration, ExtendedMetric, HostId, JobId, Timestamp};
use supremm_suite::procsim::{KernelState, NodeActivity, NodeSpec};
use supremm_suite::taccstats::derive::interval_metrics;
use supremm_suite::taccstats::format::parse;
use supremm_suite::taccstats::Collector;

fn main() {
    let mut kernel = KernelState::new(NodeSpec::ranger());
    let mut collector = Collector::new(HostId(412));

    // A 40-minute job doing ~4 GF/s/core with bursty scratch writes.
    let mut ts = Timestamp(600);
    collector.begin_job(&mut kernel, JobId(20_311), ts);
    for i in 0..4 {
        let act = NodeActivity {
            user_frac: 0.88,
            system_frac: 0.04,
            flops: 4.0e9 * 16.0 * 600.0,
            mem_used_bytes: 11 << 30,
            mem_cached_bytes: 3 << 30,
            scratch_write_bytes: if i == 2 { 4 << 30 } else { 200 << 20 },
            ib_tx_bytes: 20 << 30,
            ib_rx_bytes: 20 << 30,
            lnet_tx_bytes: 300 << 20,
            ..NodeActivity::idle()
        };
        kernel.advance(&act, 600.0);
        ts = ts + Duration(600);
        collector.sample(&kernel, ts);
    }
    collector.end_job(&mut kernel, JobId(20_311), ts);

    let files = collector.into_files();
    let (_, content) = &files[0];

    println!("-- raw file (first 24 lines of {} total) --", content.lines().count());
    for line in content.lines().take(24) {
        println!("{line}");
    }

    let parsed = parse(content).expect("the file we just wrote parses");
    println!("\n-- parsed --");
    println!("host {}  arch {}  cores {}", parsed.hostname, parsed.arch, parsed.cores);
    println!("{} records, {} job marks", parsed.records().count(), parsed.marks().count());

    println!("\n-- derived per-interval metrics --");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>14} {:>12}",
        "t(min)", "cpu_idle", "mem(GB)", "GF/s", "scratch MB/s", "ib MB/s"
    );
    let records: Vec<_> = parsed.records().collect();
    for pair in records.windows(2) {
        if pair[0].job != pair[1].job {
            continue;
        }
        if let Some(m) = interval_metrics(pair[0], pair[1]) {
            println!(
                "{:>6} {:>10.3} {:>10.1} {:>12.1} {:>14.1} {:>12.1}",
                pair[1].ts.minutes(),
                m.get(ExtendedMetric::CpuIdle),
                m.get(ExtendedMetric::MemUsed) / 1.073_741_824e9,
                m.get(ExtendedMetric::CpuFlops) / 1e9,
                m.get(ExtendedMetric::IoScratchWrite) / (1024.0 * 1024.0),
                m.get(ExtendedMetric::NetIbTx) / (1024.0 * 1024.0),
            );
        }
    }
}
