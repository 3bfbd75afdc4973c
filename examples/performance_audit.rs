//! Application-kernel performance auditing (the paper's reference [2] —
//! the XDMoD companion framework): run fixed benchmark kernels on a
//! cadence, learn baselines, and let CUSUM catch delivered-performance
//! degradation before users notice.
//!
//! This example injects two faults into a node's health timeline — a
//! thermal CPU throttle and a later filesystem-write degradation — and
//! shows the audit implicating exactly the right subsystems.
//!
//! ```text
//! cargo run --release --example performance_audit
//! ```

use supremm_suite::appkernels::{
    screen_fleet, AuditConfig, Auditor, DegradationEvent, HealthTimeline, NodeHealth, Subsystem,
};
use supremm_suite::metrics::Timestamp;
use supremm_suite::procsim::NodeSpec;
use supremm_suite::xdmod::render::sparkline;

fn main() {
    let spec = NodeSpec::ranger();
    // Day 9: the fan fails, the CPU throttles to 88 %.
    // Day 15: an OST rebuild drags scratch writes to 65 %.
    let timeline = HealthTimeline::new(vec![
        DegradationEvent { at: Timestamp(9 * 86_400), subsystem: Subsystem::Cpu, factor: 0.88 },
        DegradationEvent {
            at: Timestamp(15 * 86_400),
            subsystem: Subsystem::FilesystemWrite,
            factor: 0.65,
        },
    ]);

    let auditor = Auditor::new(AuditConfig::default());
    println!(
        "auditing a {} node for 21 days, suite of {} kernels every {} h ...\n",
        spec.arch.name(),
        auditor.suite.len(),
        auditor.cfg.cadence_hours
    );
    let report = auditor.audit(&spec, &timeline, 21);

    for (name, runs) in &report.series {
        let scores: Vec<f64> = runs.iter().filter_map(|r| r.score).collect();
        println!("{name:<14} {}", sparkline(&scores));
    }
    println!();
    print!("{}", report.render());

    println!("\ninjected ground truth:");
    for e in timeline.events() {
        println!(
            "  day {:>2}: {} -> {:.0}%",
            e.at.0 / 86_400,
            e.subsystem.name(),
            e.factor * 100.0
        );
    }
    let implicated = report.implicated();
    println!(
        "\naudit implicates: {:?} — {}",
        implicated.iter().map(|s| s.name()).collect::<Vec<_>>(),
        if implicated == vec![Subsystem::Cpu, Subsystem::FilesystemWrite] {
            "exactly the injected faults, nothing else"
        } else {
            "unexpected at this configuration"
        }
    );

    // Part two: the maintenance-window fleet sweep — which node is broken?
    println!("\n-- fleet screen: 32 nodes, one with a degraded HCA --");
    let mut healths = vec![NodeHealth::HEALTHY; 32];
    healths[21] = NodeHealth { net: 0.55, ..NodeHealth::HEALTHY };
    let screen = screen_fleet(&spec, &healths, Timestamp(600), 3.5);
    for flag in &screen.flags {
        println!(
            "node c{:04}: {} at {:.0} vs fleet median {:.0} (z = {:.1}) -> check the {}",
            flag.node,
            flag.kernel,
            flag.score,
            flag.fleet_median,
            flag.z,
            flag.implicates.name()
        );
    }
    println!("suspects: {:?}", screen.suspect_nodes());
}
