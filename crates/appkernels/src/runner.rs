//! Executing one kernel through the real measurement chain.
//!
//! A kernel run is a short batch job: the collector programs the
//! performance counters, the kernel's activity advances the node, and the
//! score is derived from the *collected* records — so a broken collector,
//! clobbered counters, or parse regressions all surface in the audit,
//! exactly as they would on the real machine.

use supremm_metrics::{Duration, HostId, JobId, Timestamp};
use supremm_procsim::{KernelState, NodeSpec};
use supremm_taccstats::format::parse;
use supremm_taccstats::Collector;

use crate::health::NodeHealth;
use crate::kernels::AppKernel;

/// One execution's outcome.
#[derive(Debug, Clone)]
pub struct KernelRun {
    pub kernel: &'static str,
    pub ts: Timestamp,
    /// `None` when the measurement chain failed to produce a score.
    pub score: Option<f64>,
}

/// Run `kernel` once on a fresh node with the given health, starting at
/// `ts`. `job` tags the run in the raw data.
pub fn run_kernel(
    kernel: &AppKernel,
    spec: &NodeSpec,
    health: NodeHealth,
    ts: Timestamp,
    job: JobId,
) -> KernelRun {
    let mut node = KernelState::new(spec.clone());
    let mut collector = Collector::new(HostId(0));
    collector.begin_job(&mut node, job, ts);
    let act = kernel.activity(spec, health);
    node.advance(&act, kernel.duration_secs as f64);
    let end = ts + Duration(kernel.duration_secs);
    collector.end_job(&mut node, job, end);

    // Score through the raw format, not the in-memory state.
    let mut score = None;
    for (_, text) in collector.into_files() {
        let Ok(parsed) = parse(&text) else { continue };
        let records: Vec<_> = parsed.records().collect();
        for pair in records.windows(2) {
            if pair[0].job == pair[1].job {
                if let Some(s) = kernel.score(pair[0], pair[1]) {
                    score = Some(s);
                }
            }
        }
    }
    KernelRun { kernel: kernel.name, ts, score }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::Subsystem;
    use crate::kernels::standard_suite;

    #[test]
    fn every_kernel_scores_on_a_healthy_node() {
        let spec = NodeSpec::ranger();
        for (i, k) in standard_suite().iter().enumerate() {
            let run =
                run_kernel(k, &spec, NodeHealth::HEALTHY, Timestamp(600), JobId(i as u64 + 1));
            let score = run.score.unwrap_or_else(|| panic!("{} did not score", k.name));
            assert!(score > 0.0, "{}: {score}", k.name);
        }
    }

    #[test]
    fn dgemm_score_tracks_cpu_health_linearly() {
        let spec = NodeSpec::ranger();
        let dgemm = &standard_suite()[0];
        let healthy =
            run_kernel(dgemm, &spec, NodeHealth::HEALTHY, Timestamp(600), JobId(1)).score.unwrap();
        let throttled = run_kernel(
            dgemm,
            &spec,
            NodeHealth { cpu: 0.85, ..NodeHealth::HEALTHY },
            Timestamp(600),
            JobId(2),
        )
        .score
        .unwrap();
        assert!((throttled / healthy - 0.85).abs() < 0.02, "{throttled} vs {healthy}");
        // Healthy DGEMM delivers ~30 % of the node's 147 GF peak.
        assert!((healthy / (0.30 * spec.peak_gflops) - 1.0).abs() < 0.05, "{healthy}");
    }

    #[test]
    fn stream_score_tracks_membw_not_cpu() {
        let spec = NodeSpec::ranger();
        let stream = &standard_suite()[1];
        let healthy =
            run_kernel(stream, &spec, NodeHealth::HEALTHY, Timestamp(600), JobId(1)).score.unwrap();
        let cpu_throttled = run_kernel(
            stream,
            &spec,
            NodeHealth { cpu: 0.5, ..NodeHealth::HEALTHY },
            Timestamp(600),
            JobId(2),
        )
        .score
        .unwrap();
        let bw_degraded = run_kernel(
            stream,
            &spec,
            NodeHealth { mem_bw: 0.6, ..NodeHealth::HEALTHY },
            Timestamp(600),
            JobId(3),
        )
        .score
        .unwrap();
        assert!((cpu_throttled / healthy - 1.0).abs() < 0.05, "CPU fault must not move STREAM");
        assert!((bw_degraded / healthy - 0.6).abs() < 0.05, "{bw_degraded} vs {healthy}");
    }

    #[test]
    fn io_and_net_kernels_isolate_their_subsystems() {
        let spec = NodeSpec::ranger();
        let suite = standard_suite();
        let ior = suite.iter().find(|k| k.probes == Subsystem::FilesystemWrite).unwrap();
        let osu = suite.iter().find(|k| k.probes == Subsystem::Interconnect).unwrap();
        let sick_io = NodeHealth { fs_write: 0.4, ..NodeHealth::HEALTHY };
        let ior_h =
            run_kernel(ior, &spec, NodeHealth::HEALTHY, Timestamp(600), JobId(1)).score.unwrap();
        let ior_s = run_kernel(ior, &spec, sick_io, Timestamp(600), JobId(2)).score.unwrap();
        let osu_h =
            run_kernel(osu, &spec, NodeHealth::HEALTHY, Timestamp(600), JobId(3)).score.unwrap();
        let osu_s = run_kernel(osu, &spec, sick_io, Timestamp(600), JobId(4)).score.unwrap();
        assert!((ior_s / ior_h - 0.4).abs() < 0.05);
        assert!((osu_s / osu_h - 1.0).abs() < 0.05, "I/O fault must not move OSU");
    }
}
