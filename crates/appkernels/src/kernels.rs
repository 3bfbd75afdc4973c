//! The application-kernel suite.
//!
//! Modeled on the real XDMoD kernel set (HPCC, NPB, IOR, IMB/OSU): each
//! kernel drives one subsystem hard, generates the corresponding node
//! activity, and knows how to score itself *from the collected records* —
//! the score is read back through TACC_Stats, so the audit exercises the
//! same measurement chain production jobs use.

use supremm_metrics::schema::DeviceClass;
use supremm_metrics::ExtendedMetric;
use supremm_procsim::{NodeActivity, NodeSpec};
use supremm_taccstats::derive::interval_metrics;
use supremm_taccstats::format::Record;

use crate::health::{NodeHealth, Subsystem};

/// How a kernel extracts its score from two consecutive records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    /// GFLOP/s from the programmed FLOPS counter.
    Gflops,
    /// Memory bandwidth, GB/s, from the NUMA access counters (64 B per
    /// access).
    MemBandwidthGBs,
    /// `$SCRATCH` write bandwidth, MB/s.
    ScratchWriteMBs,
    /// Fabric transmit bandwidth, MB/s.
    IbBandwidthMBs,
}

/// One benchmark kernel.
#[derive(Debug, Clone)]
pub struct AppKernel {
    pub name: &'static str,
    /// The subsystem this kernel is sensitive to (what a detection
    /// implicates).
    pub probes: Subsystem,
    pub scoring: Scoring,
    /// Runtime of one execution, seconds (one sampling interval by
    /// default, like the short XDMoD kernels).
    pub duration_secs: u64,
    /// Healthy-machine activity intensity knobs.
    flops_frac_peak: f64,
    mem_access_rate: f64,
    scratch_write_bps: f64,
    ib_tx_bps: f64,
}

impl AppKernel {
    /// The activity this kernel generates on a node with the given
    /// health. Degradation scales the *delivered* rate of the probed
    /// subsystem (a throttled CPU retires fewer flops in the same wall
    /// time, etc.).
    pub fn activity(&self, spec: &NodeSpec, health: NodeHealth) -> NodeActivity {
        let dt = self.duration_secs as f64;
        NodeActivity {
            user_frac: 0.95,
            system_frac: 0.02,
            flops: self.flops_frac_peak * spec.peak_gflops * 1e9 * health.cpu * dt,
            mem_accesses: self.mem_access_rate * health.mem_bw * dt,
            mem_used_bytes: 4 << 30,
            mem_cached_bytes: 1 << 30,
            scratch_write_bytes: (self.scratch_write_bps * health.fs_write * dt) as u64,
            ib_tx_bytes: (self.ib_tx_bps * health.net * dt) as u64,
            ib_rx_bytes: (self.ib_tx_bps * health.net * dt) as u64,
            lnet_tx_bytes: (self.scratch_write_bps * health.fs_write * dt) as u64,
            nr_running: spec.cores,
            load_1: spec.cores as f64,
            numa_local_frac: 0.85,
            ..NodeActivity::idle()
        }
    }

    /// Score from a pair of collected records. `None` when the records
    /// lack what the scoring needs (e.g. clobbered FLOPS counter).
    pub fn score(&self, prev: &Record, cur: &Record) -> Option<f64> {
        let m = interval_metrics(prev, cur)?;
        match self.scoring {
            Scoring::Gflops => m.flops_valid.then(|| m.get(ExtendedMetric::CpuFlops) / 1e9),
            Scoring::MemBandwidthGBs => {
                // NUMA hit+miss counters count memory accesses; 64 B each.
                let dt = cur.ts.since(prev.ts).seconds() as f64;
                let (ps, cs) =
                    (prev.readings.get(&DeviceClass::Numa)?, cur.readings.get(&DeviceClass::Numa)?);
                let mut accesses = 0u64;
                for c in cs {
                    let p = ps.iter().find(|p| p.device == c.device)?;
                    // hit (0) + miss (1).
                    accesses += c.values[0].saturating_sub(p.values[0]);
                    accesses += c.values[1].saturating_sub(p.values[1]);
                }
                Some(accesses as f64 * 64.0 / dt / 1e9)
            }
            Scoring::ScratchWriteMBs => {
                Some(m.get(ExtendedMetric::IoScratchWrite) / (1024.0 * 1024.0))
            }
            Scoring::IbBandwidthMBs => Some(m.get(ExtendedMetric::NetIbTx) / (1024.0 * 1024.0)),
        }
    }
}

/// The standard four-kernel suite: one probe per subsystem.
pub fn standard_suite() -> Vec<AppKernel> {
    vec![
        AppKernel {
            name: "hpcc.dgemm",
            probes: Subsystem::Cpu,
            scoring: Scoring::Gflops,
            duration_secs: 600,
            flops_frac_peak: 0.30,
            mem_access_rate: 2.0e9,
            scratch_write_bps: 1e6,
            ib_tx_bps: 1e6,
        },
        AppKernel {
            name: "hpcc.stream",
            probes: Subsystem::MemoryBandwidth,
            scoring: Scoring::MemBandwidthGBs,
            duration_secs: 600,
            flops_frac_peak: 0.02,
            mem_access_rate: 6.0e8, // ≈38 GB/s per node at 64 B/access
            scratch_write_bps: 1e6,
            ib_tx_bps: 1e6,
        },
        AppKernel {
            name: "ior.write",
            probes: Subsystem::FilesystemWrite,
            scoring: Scoring::ScratchWriteMBs,
            duration_secs: 600,
            flops_frac_peak: 0.002,
            mem_access_rate: 1.0e8,
            scratch_write_bps: 350.0 * 1024.0 * 1024.0,
            ib_tx_bps: 1e6,
        },
        AppKernel {
            name: "osu.bw",
            probes: Subsystem::Interconnect,
            scoring: Scoring::IbBandwidthMBs,
            duration_secs: 600,
            flops_frac_peak: 0.002,
            mem_access_rate: 1.0e8,
            scratch_write_bps: 1e6,
            ib_tx_bps: 1.5e9,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_subsystem_once() {
        let suite = standard_suite();
        let mut probed: Vec<Subsystem> = suite.iter().map(|k| k.probes).collect();
        probed.sort();
        probed.dedup();
        assert_eq!(probed.len(), Subsystem::ALL.len());
    }

    #[test]
    fn degradation_scales_only_the_probed_activity() {
        let spec = NodeSpec::ranger();
        let dgemm = &standard_suite()[0];
        let healthy = dgemm.activity(&spec, NodeHealth::HEALTHY);
        let throttled = dgemm.activity(&spec, NodeHealth { cpu: 0.8, ..NodeHealth::HEALTHY });
        assert!((throttled.flops / healthy.flops - 0.8).abs() < 1e-12);
        assert_eq!(throttled.scratch_write_bytes, healthy.scratch_write_bytes);
        assert_eq!(throttled.ib_tx_bytes, healthy.ib_tx_bytes);
    }

    #[test]
    fn kernel_activities_are_valid() {
        let spec = NodeSpec::lonestar4();
        for k in standard_suite() {
            let a = k.activity(&spec, NodeHealth::HEALTHY).normalized();
            assert!(a.user_frac + a.system_frac + a.iowait_frac <= 1.0 + 1e-9, "{}", k.name);
            assert!(a.flops >= 0.0);
        }
    }
}
