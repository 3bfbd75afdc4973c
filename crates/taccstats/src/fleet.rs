//! Cluster-wide collection: one collector per node, driven in parallel.
//!
//! On the real machines every node runs its own TACC_Stats process; here
//! scoped threads play the role of "all nodes at once". Work is embarrassingly
//! parallel (node state and collector state pair 1:1), which is exactly
//! the property the real deployment relies on to keep overhead ~0.1 %.

use supremm_metrics::{par, HostId, JobId, Timestamp};
use supremm_procsim::KernelState;

use crate::archive::{RawArchive, RawFileKey};
use crate::collector::Collector;

/// All collectors of a cluster, indexed by node.
#[derive(Debug)]
pub struct FleetCollector {
    collectors: Vec<Collector>,
}

impl FleetCollector {
    pub fn new(node_count: u32) -> FleetCollector {
        FleetCollector { collectors: (0..node_count).map(|i| Collector::new(HostId(i))).collect() }
    }

    pub fn len(&self) -> usize {
        self.collectors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.collectors.is_empty()
    }

    /// Job begin on a set of nodes.
    pub fn begin_job(
        &mut self,
        kernels: &mut [KernelState],
        hosts: &[HostId],
        job: JobId,
        ts: Timestamp,
    ) {
        for &h in hosts {
            self.collectors[h.0 as usize].begin_job(&mut kernels[h.0 as usize], job, ts);
        }
    }

    /// Job end on a set of nodes.
    pub fn end_job(
        &mut self,
        kernels: &mut [KernelState],
        hosts: &[HostId],
        job: JobId,
        ts: Timestamp,
    ) {
        for &h in hosts {
            self.collectors[h.0 as usize].end_job(&mut kernels[h.0 as usize], job, ts);
        }
    }

    /// Periodic sample of every *running* node, in parallel.
    ///
    /// `active` marks nodes that are powered on; nodes that are down
    /// (outage injection) produce no records, which is how Figure 8's
    /// active-node dips become visible downstream.
    pub fn sample_all(&mut self, kernels: &[KernelState], active: &[bool], ts: Timestamp) {
        self.sample_all_except(kernels, active, ts, &std::collections::HashSet::new());
    }

    /// Periodic sample of every running node except those in `skip`
    /// (nodes that already got a begin/end sample at this tick).
    pub fn sample_all_except(
        &mut self,
        kernels: &[KernelState],
        active: &[bool],
        ts: Timestamp,
        skip: &std::collections::HashSet<HostId>,
    ) {
        par::for_each_mut(&mut self.collectors, |i, collector| {
            if active[i] && !skip.contains(&collector.host()) {
                collector.sample(&kernels[i], ts);
            }
        });
    }

    /// Drain every file the collectors have rotated out so far (days
    /// already closed). Feeds the overlapped pipeline: rotated files can
    /// be ingested while the fleet keeps collecting the current day.
    pub fn drain_finished(&mut self) -> Vec<(RawFileKey, String)> {
        let mut out = Vec::new();
        for c in &mut self.collectors {
            out.append(&mut c.take_finished());
        }
        out
    }

    /// Flush everything into a flat file list (node order).
    pub fn into_files(self) -> Vec<(RawFileKey, String)> {
        self.collectors.into_iter().flat_map(|c| c.into_files()).collect()
    }

    /// Flush everything into an archive.
    pub fn into_archive(self) -> RawArchive {
        self.into_files().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_procsim::{NodeActivity, NodeSpec};

    #[test]
    fn fleet_samples_only_active_nodes() {
        let n = 8;
        let mut kernels: Vec<KernelState> =
            (0..n).map(|_| KernelState::new(NodeSpec::ranger())).collect();
        let mut fleet = FleetCollector::new(n);
        let mut active = vec![true; n as usize];
        active[3] = false;
        for k in &mut kernels {
            k.advance(&NodeActivity::idle(), 600.0);
        }
        fleet.sample_all(&kernels, &active, Timestamp(600));
        let archive = fleet.into_archive();
        assert_eq!(archive.host_count(), 7);
        assert!(archive.get(&crate::archive::RawFileKey { host: HostId(3), day: 0 }).is_none());
    }

    #[test]
    fn job_marks_land_on_job_nodes_only() {
        let n = 4;
        let mut kernels: Vec<KernelState> =
            (0..n).map(|_| KernelState::new(NodeSpec::ranger())).collect();
        let mut fleet = FleetCollector::new(n);
        let hosts = [HostId(1), HostId(2)];
        fleet.begin_job(&mut kernels, &hosts, JobId(5), Timestamp(600));
        for k in &mut kernels {
            k.advance(&NodeActivity::idle(), 600.0);
        }
        fleet.sample_all(&kernels, &vec![true; n as usize], Timestamp(1200));
        fleet.end_job(&mut kernels, &hosts, JobId(5), Timestamp(1800));
        let archive = fleet.into_archive();
        for host in 0..n {
            let content =
                archive.get(&crate::archive::RawFileKey { host: HostId(host), day: 0 }).unwrap();
            let has_marks = content.contains("% begin 5");
            assert_eq!(has_marks, hosts.contains(&HostId(host)), "host {host}");
        }
    }

    #[test]
    fn parallel_and_serial_sampling_agree() {
        let n = 80u32; // enough nodes that `sample_all` really fans out
        let build = || -> Vec<KernelState> {
            let mut ks: Vec<KernelState> =
                (0..n).map(|_| KernelState::new(NodeSpec::ranger())).collect();
            for (i, k) in ks.iter_mut().enumerate() {
                let act =
                    NodeActivity { user_frac: 0.1 * i as f64 / n as f64, ..NodeActivity::idle() };
                k.advance(&act, 600.0);
            }
            ks
        };
        // Parallel fleet.
        let kernels = build();
        let mut fleet = FleetCollector::new(n);
        fleet.sample_all(&kernels, &vec![true; n as usize], Timestamp(600));
        let par = fleet.into_archive();
        // Serial reference.
        let kernels = build();
        let mut serial = RawArchive::new();
        for (i, k) in kernels.iter().enumerate() {
            let mut c = Collector::new(HostId(i as u32));
            c.sample(k, Timestamp(600));
            for (key, content) in c.into_files() {
                serial.insert(key, content);
            }
        }
        assert_eq!(par.iter().collect::<Vec<_>>(), serial.iter().collect::<Vec<_>>());
    }
}
