//! The application-developer view (§4.3.2, Figure 3): compare the three
//! molecular-dynamics community codes across both machines.
//!
//! ```text
//! cargo run --release --example md_applications
//! ```

use supremm_suite::prelude::*;
use supremm_suite::xdmod::reports;

const APPS: [&str; 3] = ["NAMD", "AMBER", "GROMACS"];

fn main() {
    let ranger = run_pipeline(
        ClusterConfig::ranger().scaled(32, 7),
        &PipelineOptions { keep_archive: false, ..Default::default() },
    );
    let ls4 = run_pipeline(
        ClusterConfig::lonestar4().scaled(24, 7),
        &PipelineOptions { keep_archive: false, ..Default::default() },
    );

    println!("-- Figure 3: MD application profiles, normalized per machine --");
    println!("(values are ratios to the machine's average job; 1.0 = typical)\n");
    for (tag, ds) in [("R", &ranger), ("L", &ls4)] {
        for p in reports::app_profiles(&ds.table, &APPS) {
            print!("{tag}-{:<8} ({:>6.0} nh)", p.label, p.node_hours);
            for (m, v) in p.values.iter() {
                print!(" {}={:<5.2}", m.name(), v);
            }
            println!();
        }
        println!();
    }

    // The paper's reading of the figure.
    let idle_of = |ds: &MachineDataset, app: &str| {
        reports::app_profiles(&ds.table, &[app])[0].values.get(KeyMetric::CpuIdle)
    };
    println!("-- the paper's conclusions, checked --");
    for (label, ds) in [("Ranger", &ranger), ("Lonestar4", &ls4)] {
        let (n, a, g) = (idle_of(ds, "NAMD"), idle_of(ds, "AMBER"), idle_of(ds, "GROMACS"));
        println!(
            "{label}: cpu_idle ratios NAMD {n:.2} / GROMACS {g:.2} / AMBER {a:.2} -> {}",
            if a > n && a > g {
                "NAMD and GROMACS run more efficiently than AMBER (paper agrees)"
            } else {
                "unexpected ordering at this scale"
            }
        );
    }
    println!(
        "\n=> an HPC center could steer MD users toward NAMD (§5's suggestion), and \
         AMBER's flop/idle variation between machines merits investigation."
    );
}
