//! The support-staff view (§4.3.3, Figures 2, 4, 5): who are the heavy
//! users, where do the node-hours go to waste, and which user deserves a
//! friendly phone call.
//!
//! ```text
//! cargo run --release --example support_staff
//! ```

use supremm_suite::prelude::*;
use supremm_suite::xdmod::reports;

fn main() {
    let cfg = ClusterConfig::ranger().scaled(32, 7);
    println!("simulating {} nodes x {} days ...\n", cfg.node_count, cfg.sim_days);
    let ds = run_pipeline(cfg, &PipelineOptions { keep_archive: false, ..Default::default() });

    // Figure 2: the five heaviest users, normalized profiles.
    println!("-- Figure 2: heavy-user usage profiles (1.0 = machine average) --");
    for p in reports::user_profiles(&ds.table, 5) {
        print!("{:>8} {:>8.0} nh |", p.label, p.node_hours);
        for (m, v) in p.values.iter() {
            print!(" {}={:.2}", m.name(), v);
        }
        println!();
    }

    // Figure 4: wasted node-hours.
    let wasted = reports::wasted_hours(&ds.table);
    println!(
        "\n-- Figure 4: machine average efficiency {:.1}% (the red line) --",
        wasted.average_efficiency * 100.0
    );
    println!("users above the efficiency line: {}", wasted.above_line().count());
    let mut offenders: Vec<_> = wasted
        .points
        .iter()
        .filter(|p| p.usage.idle_frac() > 0.5 && p.usage.node_hours > 1.0)
        .collect();
    offenders.sort_by(|a, b| b.usage.node_hours.total_cmp(&a.usage.node_hours));
    println!("{:>8} {:>12} {:>12} {:>8}", "user", "node-hrs", "wasted", "idle%");
    for p in offenders.iter().take(8) {
        println!(
            "{:>8} {:>12.0} {:>12.0} {:>8.0}",
            p.key.to_string(),
            p.usage.node_hours,
            p.usage.wasted_node_hours,
            p.usage.idle_frac() * 100.0
        );
    }

    // Figure 5: the circled user.
    match reports::anomalous_user_profile(&ds.table, 0.8) {
        Some((user, idle, profile)) => {
            println!("\n-- Figure 5: user {user} spent {:.0}% of node-hours idle --", idle * 100.0);
            println!("normalized profile (everything but cpu_idle should look ordinary):");
            for (name, v) in profile.to_rows() {
                println!("  {name:<18} {v:>6.2}x");
            }
            println!("=> worth contacting: no memory/IO/fabric signal explains the idling.");
        }
        None => println!("\n-- Figure 5: no user above the 80% idle threshold in this run --"),
    }

    // §4.3.1 job-completion failure profile: the ANCOR-style linkage of
    // rationalized logs with job metrics.
    use supremm_suite::xdmod::diagnose::{diagnose_failures, failure_profile};
    let diagnoses = diagnose_failures(&ds.table, &ds.syslog, ds.cfg.node_spec.mem_bytes as f64);
    println!("\n-- failure diagnosis ({} abnormal terminations) --", diagnoses.len());
    for (cause, n) in failure_profile(&diagnoses) {
        println!("  {:<20} {n}", cause.name());
    }
    if let Some(d) = diagnoses.iter().find(|d| !d.evidence.is_empty()) {
        println!("example: job {} ({}) -> {} | {}", d.job, d.exit.name(), d.cause.name(), d.note);
    }
    println!(
        "\nrationalized syslog: {} records, {} error-or-worse, all job-tagged where a job ran",
        ds.syslog.len(),
        ds.syslog.iter().filter(|r| r.severity >= supremm_suite::ratlog::Severity::Error).count()
    );
}
