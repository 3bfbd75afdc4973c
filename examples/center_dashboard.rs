//! The resource-manager / funding-agency view (§4.3.5–4.3.6, Figures
//! 7–12): system-level resource-use reports for the whole machine.
//!
//! ```text
//! cargo run --release --example center_dashboard
//! ```

use supremm_suite::analytics::Kde;
use supremm_suite::prelude::*;
use supremm_suite::xdmod::render::{sparkline, to_ascii_table};
use supremm_suite::xdmod::reports;
use supremm_suite::xdmod::svg;

const GB: f64 = 1.073_741_824e9;

fn downsample(xs: &[f64], n: usize) -> Vec<f64> {
    xs.iter().step_by((xs.len() / n).max(1)).cloned().collect()
}

fn main() {
    let cfg = ClusterConfig::ranger().scaled(32, 30); // a month, with outages
    println!("simulating {} nodes x {} days ...\n", cfg.node_count, cfg.sim_days);
    let ds = run_pipeline(cfg, &PipelineOptions { keep_archive: false, ..Default::default() });
    let dense = ds.series.dense();

    // Figure 7a/b/c.
    let a = reports::mem_per_core_by_science(&ds.table, ds.cfg.node_spec.cores);
    print!(
        "{}",
        to_ascii_table("Fig 7a: avg memory per core by parent science [GB]", &a, "GB/core")
    );
    let b = reports::cpu_hours_breakdown(&ds.series);
    print!("\n{}", to_ascii_table("Fig 7b: CPU node-hours by state", &b, "node-hours"));
    let c = reports::lustre_throughput(&ds.series);
    print!("\n{}", to_ascii_table("Fig 7c: Lustre throughput by mount [MB/s]", &c, "MB/s"));

    // Figure 8: active nodes.
    let active = dense.series(|bin| bin.active_nodes as f64);
    println!("\nFig 8: active nodes (dips = outages)");
    println!("  {}", sparkline(&downsample(&active, 120)));

    // Figure 9: system FLOPS.
    let tf = dense.series(|bin| bin.flops / 1e12);
    let mean_tf = tf.iter().sum::<f64>() / tf.len() as f64;
    let peak_tf = ds.cfg.node_count as f64 * ds.cfg.node_spec.peak_gflops / 1000.0;
    println!(
        "\nFig 9: system SSE FLOPS (mean {mean_tf:.3} TF of {peak_tf:.1} TF benchmarked peak)"
    );
    println!("  {}", sparkline(&downsample(&tf, 120)));

    // Figure 10: FLOPS kernel density.
    let kde = Kde::fit(&tf);
    println!(
        "\nFig 10: FLOPS distribution (kernel density, Silverman bandwidth {:.4} TF)",
        kde.bandwidth()
    );
    let grid = kde.grid(60);
    println!("  {}", sparkline(&grid.iter().map(|&(_, d)| d).collect::<Vec<_>>()));
    let mode = grid.iter().cloned().fold((0.0, 0.0), |acc, p| if p.1 > acc.1 { p } else { acc });
    println!("  mode at {:.3} TF — a small fraction of peak, as in the paper", mode.0);

    // Figure 11: memory per node.
    let mem: Vec<f64> = dense
        .bins
        .iter()
        .filter(|bin| bin.intervals > 0)
        .map(|bin| bin.mem_per_node() / GB)
        .collect();
    let mean_mem = mem.iter().sum::<f64>() / mem.len() as f64;
    println!(
        "\nFig 11: memory used per node (mean {:.1} GB of {:.0} GB)",
        mean_mem,
        ds.cfg.node_spec.mem_bytes as f64 / GB
    );
    println!("  {}", sparkline(&downsample(&mem, 120)));

    // Figure 12: per-job mem_used vs mem_used_max densities.
    let used: Vec<f64> =
        ds.table.jobs().iter().map(|j| j.metrics.get(KeyMetric::MemUsed) / GB).collect();
    let used_max: Vec<f64> =
        ds.table.jobs().iter().map(|j| j.metrics.get(KeyMetric::MemUsedMax) / GB).collect();
    println!("\nFig 12: per-job memory distributions (black = mean, red = max in the paper)");
    for (label, data) in [("mem_used    ", &used), ("mem_used_max", &used_max)] {
        let kde = Kde::fit(data);
        let density: Vec<f64> = kde.grid(60).iter().map(|&(_, d)| d).collect();
        println!("  {label} {}", sparkline(&density));
    }

    // Funding-agency cut: node-hours by parent science.
    let q = supremm_suite::xdmod::framework::Query {
        dimension: supremm_suite::xdmod::framework::Dimension::ScienceField,
        statistic: supremm_suite::xdmod::framework::Statistic::NodeHours,
        filters: vec![],
    };
    let by_science = supremm_suite::xdmod::framework::run(&ds.table, &q);
    print!(
        "\n{}",
        to_ascii_table("Funding view: node-hours by parent science", &by_science, "node_hours")
    );

    // Real figures: write the paper's charts as SVG next to the text.
    let out = std::env::temp_dir().join("supremm-figures");
    std::fs::create_dir_all(&out).expect("mkdir");
    let figs: Vec<(&str, String)> = vec![
        (
            "fig2_user_profiles.svg",
            svg::radar_chart(
                "Figure 2: heavy-user usage profiles",
                &reports::user_profiles(&ds.table, 5),
            ),
        ),
        (
            "fig9_flops.svg",
            svg::line_chart("Figure 9: system SSE FLOPS", "TF", &[("flops", downsample(&tf, 400))]),
        ),
        (
            "fig11_memory.svg",
            svg::line_chart(
                "Figure 11: memory used per node",
                "GB",
                &[("mem/node", downsample(&mem, 400))],
            ),
        ),
        (
            "fig12_memory_density.svg",
            svg::density_chart(
                "Figure 12: per-job memory distributions",
                "GB",
                &[
                    ("mem_used", Kde::fit(&used).grid(128)),
                    ("mem_used_max", Kde::fit(&used_max).grid(128)),
                ],
            ),
        ),
    ];
    for (name, content) in figs {
        std::fs::write(out.join(name), content).expect("write svg");
    }
    println!("\nwrote SVG figures to {out:?}");
}
