//! Job specifications and the per-slice activity model.
//!
//! Each running job produces one [`NodeActivity`] per sample slice, built
//! from its application signature drawn at start time:
//!
//! - a slowly-varying AR(1) *intensity* multiplies compute and fabric
//!   rates, giving the within-job temporal persistence that Table 1
//!   measures;
//! - `$SCRATCH` writes concentrate into periodic checkpoint slices, which
//!   is why `io_scratch_write` is the *least* persistent metric in the
//!   paper's ordering;
//! - memory ramps up over the first slices then plateaus (so
//!   `mem_used_max` > mean `mem_used`, Figure 12's red-vs-black gap).

use supremm_metrics::{AppId, Duration, HostId, JobId, ScienceField, Timestamp, UserId};
use supremm_procsim::{NodeActivity, NodeSpec};

use crate::apps::ResourceSignature;
use crate::rng::Sampler;

/// How a job finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitStatus {
    Completed,
    /// Application-level failure (nonzero exit, exception, OOM...).
    Failed,
    /// Killed because a node it ran on went down.
    NodeFailure,
    /// Cancelled from the queue or mid-run by the user.
    Cancelled,
}

impl ExitStatus {
    pub fn name(self) -> &'static str {
        match self {
            ExitStatus::Completed => "completed",
            ExitStatus::Failed => "failed",
            ExitStatus::NodeFailure => "node_failure",
            ExitStatus::Cancelled => "cancelled",
        }
    }
}

/// Immutable description of a submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub id: JobId,
    pub user: UserId,
    pub app: AppId,
    pub science: ScienceField,
    pub nodes: u32,
    pub submit: Timestamp,
    /// Actual runtime (the scheduler also sees a padded request).
    pub duration: Duration,
    /// Requested wall time, ≥ duration.
    pub requested: Duration,
    /// Whether this job runs its own PAPI session mid-way (clobbering the
    /// collector's counter programming).
    pub papi: bool,
}

/// A job that has been placed on nodes and is producing activity.
#[derive(Debug, Clone)]
pub struct RunningJob {
    pub spec: JobSpec,
    pub hosts: Vec<HostId>,
    pub start: Timestamp,
    /// Scheduled end (start + duration); outages may end it earlier.
    pub end: Timestamp,
    /// Fraction of node memory this job's plateau occupies — drives the
    /// OOM-failure channel and the diagnosis ground truth.
    pub mem_frac: f64,
    sig: JobDraw,
    intensity: f64,
    slice_idx: u64,
    checkpoint_phase: u32,
    sampler: Sampler,
}

/// Per-job realisation of the application signature.
#[derive(Debug, Clone)]
struct JobDraw {
    flops_per_sec: f64,
    /// Physical ceiling: even vectorised kernels rarely retire more than
    /// ~a third of nominal peak.
    max_flops_per_sec: f64,
    mem_bytes: f64,
    idle_frac: f64,
    system_frac: f64,
    scratch_write_bps: f64,
    scratch_read_bps: f64,
    work_write_bps: f64,
    ib_tx_bps: f64,
    checkpoint_period: u32,
    checkpoint_burst: f64,
    ar1_rho: f64,
    ar1_sigma: f64,
}

const MB: f64 = 1024.0 * 1024.0;

impl RunningJob {
    /// Materialise a job on its nodes, drawing the per-job signature.
    ///
    /// `idle_override` (the user anomaly trait) pins the idle fraction;
    /// `efficiency_trait` scales it multiplicatively.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        spec: JobSpec,
        hosts: Vec<HostId>,
        start: Timestamp,
        node_spec: &NodeSpec,
        sig: &ResourceSignature,
        efficiency_trait: f64,
        idle_override: Option<f64>,
        sampler: &mut Sampler,
    ) -> RunningJob {
        let mut s = sampler.fork(spec.id.0);
        let mut idle = (s.lognormal(sig.idle_frac.0, sig.idle_frac.1)
            * efficiency_trait.powf(sig.trait_sensitivity))
        .clamp(0.005, 0.93);
        let mut flops_frac = s.lognormal(sig.flops_frac_peak.0, sig.flops_frac_peak.1);
        if let Some(anomaly_idle) = idle_override {
            // The Figure 5 pathology: massive idle, every *other* resource
            // at normal levels; flops scale with the CPU actually used.
            idle = anomaly_idle;
            flops_frac *= (1.0 - anomaly_idle).max(0.05);
        }
        let draw = JobDraw {
            flops_per_sec: (flops_frac * (1.0 - idle)).min(0.35) * node_spec.peak_gflops * 1.0e9,
            max_flops_per_sec: 0.35 * node_spec.peak_gflops * 1.0e9,
            mem_bytes: (s.lognormal(sig.mem_gb.0, sig.mem_gb.1) * 1.073_741_824e9)
                .min(node_spec.mem_bytes as f64 * 0.98),
            idle_frac: idle,
            system_frac: sig.system_frac,
            scratch_write_bps: s.lognormal(sig.scratch_write_mbs.0, sig.scratch_write_mbs.1) * MB,
            scratch_read_bps: s.lognormal(sig.scratch_read_mbs.0, sig.scratch_read_mbs.1) * MB,
            work_write_bps: s.lognormal(sig.work_write_mbs.0, sig.work_write_mbs.1) * MB,
            ib_tx_bps: s.lognormal(sig.ib_tx_mbs.0, sig.ib_tx_mbs.1) * MB,
            // Per-job period jitter: real checkpoint cadences are set per
            // run, so aggregate write traffic carries no cluster-wide
            // periodicity.
            checkpoint_period:
                ((sig.checkpoint_period as f64 * s.uniform_range(0.75, 1.35)).round() as u32).max(3),
            checkpoint_burst: sig.checkpoint_burst.max(1.0),
            ar1_rho: sig.ar1_rho,
            ar1_sigma: sig.ar1_sigma,
        };
        let checkpoint_phase = s.index(draw.checkpoint_period as usize) as u32;
        let end = start + spec.duration;
        let mem_frac = draw.mem_bytes / node_spec.mem_bytes as f64;
        RunningJob {
            spec,
            hosts,
            start,
            end,
            mem_frac,
            sig: draw,
            intensity: 1.0,
            slice_idx: 0,
            checkpoint_phase,
            sampler: s,
        }
    }

    /// Whether this slice is a checkpoint slice. Each checkpoint spans
    /// *two* adjacent slices — real checkpoint dumps straddle ten-minute
    /// sample boundaries, which keeps adjacent write samples positively
    /// correlated (part of Table 1's io_scratch_write behaviour).
    fn is_checkpoint(&self) -> bool {
        let period = self.sig.checkpoint_period;
        let pos = self.slice_idx as u32 % period;
        pos == self.checkpoint_phase || (pos + period - 1) % period == self.checkpoint_phase
    }

    /// Whether the PAPI clobber fires this slice (mid-job, once).
    pub fn papi_fires(&self) -> bool {
        if !self.spec.papi {
            return false;
        }
        let total_slices = (self.spec.duration.seconds() / 600).max(2);
        self.slice_idx == total_slices / 2
    }

    /// Produce the next slice of activity (same on every node of the job;
    /// rank-level skew is below the resolution of any analysis here).
    pub fn next_slice(&mut self, slice_secs: f64) -> NodeActivity {
        let d = &self.sig;

        // AR(1) intensity with stationary mean 1.
        let z = self.sampler.std_normal();
        self.intensity = (1.0
            + d.ar1_rho * (self.intensity - 1.0)
            + d.ar1_sigma * (1.0 - d.ar1_rho * d.ar1_rho).sqrt() * z)
            .clamp(0.25, 2.5);

        // Memory ramp: 45 % → 100 % across the first three slices, with a
        // little ongoing jitter above the plateau (AMR growth etc.).
        let ramp = match self.slice_idx {
            0 => 0.45,
            1 => 0.75,
            2 => 0.92,
            _ => 1.0 + 0.06 * (self.sampler.uniform() - 0.3),
        };
        let mem = (d.mem_bytes * ramp).max(256.0 * MB);

        // Checkpoint burst: concentrate scratch writes into the two burst
        // slices, keeping the configured time average.
        let period = d.checkpoint_period as f64;
        let burst = d.checkpoint_burst;
        // avg = (2·burst + (period-2)·base) / period with base chosen so
        // avg == 1.
        let base_scale = ((period - 2.0 * burst) / (period - 2.0)).max(0.05);
        let write_scale = if self.is_checkpoint() { burst } else { base_scale };

        let busy = 1.0 - d.idle_frac;
        let io_bytes = |rate: f64, scale: f64| (rate * scale * slice_secs) as u64;

        let scratch_write = io_bytes(d.scratch_write_bps, write_scale * self.intensity);
        let scratch_read = io_bytes(
            d.scratch_read_bps,
            if self.slice_idx == 0 { 6.0 } else { 0.7 }, // startup input read
        );
        let work_write = io_bytes(d.work_write_bps, self.intensity);
        let lustre_total = scratch_write + scratch_read + work_write;

        let ib_tx = io_bytes(d.ib_tx_bps, self.intensity * busy);
        // LNET carries the Lustre bytes (plus ~6 % RPC overhead); the IB
        // port counters see both MPI and LNET traffic.
        let lnet_tx = (lustre_total as f64 * 1.06) as u64;

        let act = NodeActivity {
            user_frac: busy * (1.0 - d.system_frac) * (0.97 + 0.03 * self.intensity),
            system_frac: busy * d.system_frac + (ib_tx as f64 / slice_secs) / (2.0e9) * 0.05,
            iowait_frac: (lustre_total as f64 / slice_secs) / (500.0 * MB) * 0.05,
            flops: (d.flops_per_sec * self.intensity).min(d.max_flops_per_sec) * slice_secs,
            mem_accesses: 0.0, // derived from flops

            mem_used_bytes: mem as u64,
            mem_cached_bytes: (mem * 0.25) as u64,
            scratch_read_bytes: scratch_read,
            scratch_write_bytes: scratch_write,
            work_read_bytes: io_bytes(d.work_write_bps, 0.3),
            work_write_bytes: work_write,
            share_read_bytes: io_bytes(d.work_write_bps, 0.15),
            share_write_bytes: io_bytes(d.work_write_bps, 0.08),
            ib_tx_bytes: ib_tx + lnet_tx,
            ib_rx_bytes: ((ib_tx + lnet_tx) as f64 * (0.92 + 0.12 * self.sampler.uniform())) as u64,
            lnet_tx_bytes: lnet_tx,
            lnet_rx_bytes: (scratch_read as f64 * 1.06) as u64,
            eth_tx_bytes: 40 << 10,
            eth_rx_bytes: 50 << 10,
            pgfault: (mem / 4096.0 * 0.02) as u64 + 500,
            pgmajfault: if self.slice_idx == 0 { 200 } else { 2 },
            pswpin: 0,
            pswpout: 0,
            nr_running: ((1.0 - d.idle_frac) * 16.0).round() as u32,
            load_1: (1.0 - d.idle_frac) * 16.0,
            numa_local_frac: 0.9,
            sysv_shm_bytes: (mem * 0.05) as u64,
            tmpfs_bytes: 64 << 20,
        }
        .normalized();
        self.slice_idx += 1;
        act
    }
}

/// A finished job, as recorded by the simulator (ground truth for the
/// accounting log).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    pub spec: JobSpec,
    pub hosts: Vec<HostId>,
    pub start: Timestamp,
    pub end: Timestamp,
    pub exit: ExitStatus,
    /// Plateau memory fraction (ground truth for OOM diagnosis).
    pub mem_frac: f64,
}

impl CompletedJob {
    pub fn node_hours(&self) -> f64 {
        self.end.since(self.start).hours() * self.hosts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppCatalog;

    fn test_spec(duration_min: u64) -> JobSpec {
        JobSpec {
            id: JobId(1),
            user: UserId(0),
            app: AppId(0),
            science: ScienceField::Physics,
            nodes: 2,
            submit: Timestamp(0),
            duration: Duration::from_minutes(duration_min),
            requested: Duration::from_minutes(duration_min * 2),
            papi: false,
        }
    }

    fn launch(idle_override: Option<f64>) -> RunningJob {
        let catalog = AppCatalog::standard();
        let sig = catalog.by_name("NAMD").unwrap().signature_for(false, 1.0, 1.0);
        let mut s = Sampler::new(9);
        RunningJob::launch(
            test_spec(600),
            vec![HostId(0), HostId(1)],
            Timestamp(600),
            &NodeSpec::ranger(),
            &sig,
            1.0,
            idle_override,
            &mut s,
        )
    }

    #[test]
    fn activity_is_valid_and_busy_for_namd() {
        let mut job = launch(None);
        for i in 0..20 {
            let a = job.next_slice(600.0);
            let total = a.user_frac + a.system_frac + a.iowait_frac;
            assert!(total <= 1.0 + 1e-9, "slice {i}: {total}");
            assert!(a.idle_frac() < 0.30, "NAMD should be busy, idle={}", a.idle_frac());
            assert!(a.flops > 0.0);
        }
    }

    #[test]
    fn intensity_is_autocorrelated() {
        let mut job = launch(None);
        let flops: Vec<f64> = (0..200).map(|_| job.next_slice(600.0).flops).collect();
        // Lag-1 autocorrelation of the flops series should be high.
        let n = flops.len();
        let mean = flops.iter().sum::<f64>() / n as f64;
        let var: f64 = flops.iter().map(|x| (x - mean).powi(2)).sum();
        let cov: f64 = flops.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        let rho = cov / var;
        assert!(rho > 0.7, "lag-1 autocorrelation {rho}");
    }

    #[test]
    fn checkpoints_make_write_traffic_bursty() {
        let mut job = launch(None);
        let writes: Vec<u64> = (0..64).map(|_| job.next_slice(600.0).scratch_write_bytes).collect();
        let max = *writes.iter().max().unwrap() as f64;
        let mean = writes.iter().sum::<u64>() as f64 / writes.len() as f64;
        assert!(max / mean > 1.7, "burstiness {max}/{mean}");
    }

    #[test]
    fn memory_ramps_then_plateaus() {
        let mut job = launch(None);
        let mem: Vec<u64> = (0..8).map(|_| job.next_slice(600.0).mem_used_bytes).collect();
        assert!(mem[0] < mem[1] && mem[1] < mem[2], "{mem:?}");
        let plateau = mem[3] as f64;
        for &m in &mem[4..] {
            assert!((m as f64 / plateau - 1.0).abs() < 0.2);
        }
    }

    #[test]
    fn idle_override_pins_idle_but_keeps_other_resources() {
        let mut normal = launch(None);
        let mut anomalous = launch(Some(0.88));
        let (mut an_idle, mut an_mem, mut n_mem) = (0.0, 0.0, 0.0);
        for _ in 0..10 {
            let a = anomalous.next_slice(600.0);
            let n = normal.next_slice(600.0);
            an_idle += a.idle_frac() / 10.0;
            an_mem += a.mem_used_bytes as f64 / 10.0;
            n_mem += n.mem_used_bytes as f64 / 10.0;
        }
        assert!(an_idle > 0.8, "{an_idle}");
        // Memory stays in the normal band (same draw distribution).
        assert!(an_mem / n_mem > 0.2 && an_mem / n_mem < 5.0);
    }

    #[test]
    fn papi_fires_once_mid_job() {
        let catalog = AppCatalog::standard();
        let sig = catalog.by_name("NAMD").unwrap().signature_for(false, 1.0, 1.0);
        let mut s = Sampler::new(3);
        let mut spec = test_spec(100); // 10 slices
        spec.papi = true;
        let mut job = RunningJob::launch(
            spec,
            vec![HostId(0)],
            Timestamp(0),
            &NodeSpec::ranger(),
            &sig,
            1.0,
            None,
            &mut s,
        );
        let mut fired = 0;
        for _ in 0..10 {
            if job.papi_fires() {
                fired += 1;
            }
            job.next_slice(600.0);
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn lnet_traffic_tracks_lustre_not_mpi() {
        let mut job = launch(None);
        for _ in 0..10 {
            let a = job.next_slice(600.0);
            let lustre = a.scratch_read_bytes + a.scratch_write_bytes + a.work_write_bytes;
            assert!(a.lnet_tx_bytes >= lustre, "LNET carries lustre bytes");
            assert!(a.ib_tx_bytes >= a.lnet_tx_bytes, "IB carries LNET + MPI");
        }
    }

    #[test]
    fn node_hours_accounting() {
        let job = CompletedJob {
            spec: test_spec(600),
            hosts: vec![HostId(0), HostId(1), HostId(2), HostId(3)],
            start: Timestamp(0),
            end: Timestamp(3600 * 10),
            exit: ExitStatus::Completed,
            mem_frac: 0.3,
        };
        assert_eq!(job.node_hours(), 40.0);
    }

    #[test]
    fn memory_never_exceeds_node_capacity() {
        let catalog = AppCatalog::standard();
        // Force a huge memory draw via mem_scale.
        let sig = catalog.by_name("QuantumESPRESSO").unwrap().signature_for(true, 10.0, 1.0);
        let mut s = Sampler::new(11);
        let spec_node = NodeSpec::lonestar4();
        let mut job = RunningJob::launch(
            test_spec(600),
            vec![HostId(0)],
            Timestamp(0),
            &spec_node,
            &sig,
            1.0,
            None,
            &mut s,
        );
        for _ in 0..10 {
            let a = job.next_slice(600.0);
            assert!(a.mem_used_bytes as f64 <= spec_node.mem_bytes as f64 * 1.05);
        }
    }
}
