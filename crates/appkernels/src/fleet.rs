//! Fleet screening: find the broken node.
//!
//! Per-node auditing (one CUSUM per node per kernel) needs a long history;
//! the complementary tool — what a sysadmin reaches for after a
//! maintenance window — is a *fleet sweep*: run the suite once on every
//! node and flag the ones whose scores sit far off the fleet's robust
//! centre. One pass localises the throttled socket or the flaky HCA
//! without any baseline history (§4.3.4's "diagnosing system faults and
//! failures").

use supremm_analytics::outlier::{median_mad, modified_z};
use supremm_metrics::{JobId, Timestamp};
use supremm_procsim::NodeSpec;

use crate::health::{NodeHealth, Subsystem};
use crate::kernels::{standard_suite, AppKernel};
use crate::runner::run_kernel;

/// One flagged node.
#[derive(Debug, Clone)]
pub struct NodeFlag {
    pub node: usize,
    pub kernel: &'static str,
    pub implicates: Subsystem,
    pub score: f64,
    pub fleet_median: f64,
    /// Modified z-score of the node's result against the fleet.
    pub z: f64,
}

/// Outcome of one fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetScreenReport {
    /// Per kernel: every node's score.
    pub scores: Vec<(&'static str, Vec<f64>)>,
    pub flags: Vec<NodeFlag>,
}

impl FleetScreenReport {
    /// Nodes flagged by at least one kernel, deduplicated.
    pub fn suspect_nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.flags.iter().map(|f| f.node).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Sweep the fleet: run every suite kernel once on every node and flag
/// robust outliers (|modified z| > `threshold`, conventionally 3.5; only
/// *under*-performers are flagged — a lucky fast run is not a fault).
pub fn screen_fleet(
    spec: &NodeSpec,
    healths: &[NodeHealth],
    ts: Timestamp,
    threshold: f64,
) -> FleetScreenReport {
    let suite: Vec<AppKernel> = standard_suite();
    let mut scores: Vec<(&'static str, Vec<f64>)> = Vec::with_capacity(suite.len());
    let mut flags = Vec::new();
    let mut job = 1u64;
    for kernel in &suite {
        let mut node_scores = Vec::with_capacity(healths.len());
        for &health in healths {
            let run = run_kernel(kernel, spec, health, ts, JobId(job));
            job += 1;
            node_scores.push(run.score.unwrap_or(0.0));
        }
        let (median, mad) = median_mad(&node_scores);
        // A uniform fleet has MAD ≈ 0; floor the scale at 0.5 % of the
        // median (measurement resolution) so the z-score stays defined.
        let mad_eff = mad.max(0.005 * median.abs());
        for (node, &score) in node_scores.iter().enumerate() {
            let z = modified_z(score, median, mad_eff);
            if z < -threshold {
                flags.push(NodeFlag {
                    node,
                    kernel: kernel.name,
                    implicates: kernel.probes,
                    score,
                    fleet_median: median,
                    z,
                });
            }
        }
        scores.push((kernel.name, node_scores));
    }
    FleetScreenReport { scores, flags }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<NodeHealth> {
        vec![NodeHealth::HEALTHY; n]
    }

    #[test]
    fn healthy_fleet_has_no_suspects() {
        let report = screen_fleet(&NodeSpec::ranger(), &fleet(16), Timestamp(600), 3.5);
        assert!(report.suspect_nodes().is_empty(), "{:?}", report.flags);
        assert_eq!(report.scores.len(), 4);
        for (name, scores) in &report.scores {
            assert_eq!(scores.len(), 16, "{name}");
        }
    }

    #[test]
    fn single_throttled_node_is_localised_with_the_right_subsystem() {
        let mut healths = fleet(24);
        healths[17] = NodeHealth { cpu: 0.8, ..NodeHealth::HEALTHY };
        let report = screen_fleet(&NodeSpec::ranger(), &healths, Timestamp(600), 3.5);
        assert_eq!(report.suspect_nodes(), vec![17], "{:?}", report.flags);
        assert!(report.flags.iter().all(|f| f.implicates == Subsystem::Cpu));
        let flag = &report.flags[0];
        assert!(flag.z < -3.5);
        assert!((flag.score / flag.fleet_median - 0.8).abs() < 0.05);
    }

    #[test]
    fn two_faults_in_different_subsystems_both_localised() {
        let mut healths = fleet(20);
        healths[3] = NodeHealth { net: 0.5, ..NodeHealth::HEALTHY };
        healths[11] = NodeHealth { fs_write: 0.6, ..NodeHealth::HEALTHY };
        let report = screen_fleet(&NodeSpec::lonestar4(), &healths, Timestamp(600), 3.5);
        assert_eq!(report.suspect_nodes(), vec![3, 11]);
        let implicated: Vec<(usize, Subsystem)> =
            report.flags.iter().map(|f| (f.node, f.implicates)).collect();
        assert!(implicated.contains(&(3, Subsystem::Interconnect)));
        assert!(implicated.contains(&(11, Subsystem::FilesystemWrite)));
        // And no cross-contamination.
        assert!(!implicated.contains(&(3, Subsystem::FilesystemWrite)));
    }

    #[test]
    fn overperformers_are_not_faults() {
        // A node somehow faster than the fleet must not be flagged.
        let mut healths = fleet(16);
        healths[5] = NodeHealth { cpu: 1.2, ..NodeHealth::HEALTHY };
        let report = screen_fleet(&NodeSpec::ranger(), &healths, Timestamp(600), 3.5);
        assert!(report.suspect_nodes().is_empty(), "{:?}", report.flags);
    }
}
