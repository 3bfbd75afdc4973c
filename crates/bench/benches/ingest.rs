//! Warehouse-side benchmarks: ingest and time-series assembly throughput
//! over a realistic multi-node archive (the Netezza/MySQL role of §4.1).

use std::hint::black_box;

use supremm_bench::bench;
use supremm_clustersim::ClusterConfig;
use supremm_core::pipeline::{run_pipeline, MachineDataset, PipelineOptions};
use supremm_warehouse::{ingest, SystemSeries};

fn small_dataset() -> MachineDataset {
    run_pipeline(
        ClusterConfig::ranger().scaled(12, 2),
        &PipelineOptions { keep_archive: true, ..Default::default() },
    )
}

fn main() {
    let ds = small_dataset();
    let bytes = ds.raw_total_bytes;

    bench("ingest/archive_to_job_table", Some(bytes), || {
        let (records, stats) = ingest(black_box(&ds.archive), &ds.accounting, &ds.lariat);
        black_box((records.len(), stats))
    });

    bench("ingest/archive_to_system_series", Some(bytes), || {
        black_box(SystemSeries::from_archive(&ds.archive, 600)).bins.len()
    });

    bench("warehouse_queries/global_aggregate", None, || black_box(ds.table.global_aggregate()));
    bench("warehouse_queries/group_by_user_node_hours", None, || {
        let groups = ds.table.group_by(|j| j.user);
        black_box(groups.len())
    });
    bench("warehouse_queries/top5_users", None, || {
        black_box(ds.table.top_by_node_hours(|j| j.user, 5))
    });
}
