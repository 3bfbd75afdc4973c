//! One benchmark per paper artifact: the cost of regenerating each table
//! and figure from a warehoused dataset (the interactive-XDMoD latency
//! question — every one of these backs a dashboard panel).
//!
//! The datasets are built once; each bench then measures pure
//! report-generation time. Correctness of the artifacts is covered by the
//! `repro` binary and the experiment tests; this file sizes them.

use std::hint::black_box;

use supremm_bench::bench;
use supremm_clustersim::ClusterConfig;
use supremm_core::experiments;
use supremm_core::pipeline::{run_pipeline, MachineDataset, PipelineOptions};

fn datasets() -> (MachineDataset, MachineDataset) {
    let opts = PipelineOptions { keep_archive: false, ..Default::default() };
    (
        run_pipeline(ClusterConfig::ranger().scaled(16, 4), &opts),
        run_pipeline(ClusterConfig::lonestar4().scaled(12, 4), &opts),
    )
}

fn main() {
    let (ranger, ls4) = datasets();

    bench("figures/sec4_2_correlation_selection", None, || {
        black_box(experiments::corr_metric_selection(&ranger))
    });
    bench("figures/fig2_user_profiles", None, || {
        black_box(experiments::fig2_user_profiles(&ranger))
    });
    bench("figures/fig3_md_app_profiles", None, || {
        black_box(experiments::fig3_md_apps(&ranger, &ls4))
    });
    bench("figures/fig4_wasted_node_hours", None, || {
        black_box(experiments::fig4_wasted_hours(&ranger, 0.90))
    });
    bench("figures/fig5_anomalous_user_profile", None, || {
        black_box(experiments::fig5_anomalous_profile(&ranger))
    });
    bench("figures/table1_persistence", None, || {
        black_box(experiments::table1_persistence(&ranger))
    });
    bench("figures/fig6_persistence_fit", None, || {
        black_box(experiments::fig6_persistence_fit(&ranger, &ls4))
    });
    bench("figures/fig7_system_reports", None, || {
        black_box(experiments::fig7_system_reports(&ranger))
    });
    bench("figures/fig8_active_nodes", None, || black_box(experiments::fig8_active_nodes(&ranger)));
    bench("figures/fig9_10_flops_series_and_kde", None, || {
        black_box(experiments::fig9_10_flops(&ranger))
    });
    bench("figures/fig11_12_memory_series_and_kde", None, || {
        black_box(experiments::fig11_12_memory(&ranger))
    });
    bench("figures/sec3_volume_and_workload", None, || {
        black_box(experiments::volume_and_workload(&ranger, 549.0))
    });
}
