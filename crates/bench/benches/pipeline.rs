//! Pipeline-shape benchmarks for the streaming-ingest work:
//!
//! - `raw_parse/*` — zero-copy streaming scan vs owned batch parse of
//!   one node-day file (MB/s);
//! - `pipeline/overlapped` — end-to-end wall time of the pipeline
//!   (collection overlapped with pooled ingest);
//! - `consume/*` — single-pass ingest+series vs the two separate passes
//!   the batch code used to make.

use std::hint::black_box;

use supremm_bench::bench;
use supremm_clustersim::ClusterConfig;
use supremm_core::pipeline::{run_pipeline, PipelineOptions};
use supremm_metrics::{Duration, HostId, JobId, Timestamp};
use supremm_procsim::{KernelState, NodeActivity, NodeSpec};
use supremm_taccstats::format::{parse, stream, SampleRef};
use supremm_taccstats::Collector;
use supremm_warehouse::{consume_archive, ingest, ConsumeOptions, SystemSeries};

/// One day of one busy node's raw output.
fn one_node_day() -> String {
    let mut kernel = KernelState::new(NodeSpec::ranger());
    let mut c = Collector::new(HostId(1));
    let mut ts = Timestamp(600);
    c.begin_job(&mut kernel, JobId(7), ts);
    for _ in 0..144 {
        kernel.advance(
            &NodeActivity {
                user_frac: 0.8,
                flops: 3e12,
                mem_used_bytes: 9 << 30,
                scratch_write_bytes: 400 << 20,
                ..NodeActivity::idle()
            },
            600.0,
        );
        ts = ts + Duration(600);
        c.sample(&kernel, ts);
    }
    c.end_job(&mut kernel, JobId(7), ts);
    c.into_files().remove(0).1
}

fn bench_raw_parse() {
    let day = one_node_day();
    bench("raw_parse/zero_copy_stream", Some(day.len() as u64), || {
        let mut rows = 0usize;
        for item in stream(black_box(&day)).unwrap() {
            if let SampleRef::Record(rec) = item.unwrap() {
                rows += rec.row_count();
            }
        }
        rows
    });
    bench("raw_parse/owned_batch_parse", Some(day.len() as u64), || {
        parse(black_box(&day)).unwrap().samples.len()
    });
}

fn bench_pipeline() {
    let cfg = || ClusterConfig::ranger().scaled(12, 3);
    bench("pipeline/overlapped", None, || {
        run_pipeline(cfg(), &PipelineOptions { keep_archive: false, ..Default::default() })
            .table
            .len()
    });
}

fn bench_consume() {
    let ds = run_pipeline(
        ClusterConfig::ranger().scaled(12, 2),
        &PipelineOptions { keep_archive: true, ..Default::default() },
    );
    bench("consume/single_pass_jobs_and_series", Some(ds.raw_total_bytes), || {
        let opts = ConsumeOptions { bin_secs: Some(600), ..Default::default() };
        let out = consume_archive(black_box(&ds.archive), opts).finish(&ds.accounting, &ds.lariat);
        black_box((out.records.len(), out.stats, out.series.map(|s| s.bins.len())))
    });
    bench("consume/two_separate_passes", Some(ds.raw_total_bytes), || {
        let (records, stats) = ingest(black_box(&ds.archive), &ds.accounting, &ds.lariat);
        let series = SystemSeries::from_archive(&ds.archive, 600);
        black_box((records.len(), stats, series.bins.len()))
    });
}

fn main() {
    bench_raw_parse();
    bench_pipeline();
    bench_consume();
}
