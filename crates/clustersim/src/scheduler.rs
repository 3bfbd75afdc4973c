//! FCFS + EASY-backfill batch scheduler.
//!
//! The paper's machines ran SGE with backfill; what matters downstream is
//! that (a) the machine stays packed under the over-requested load the
//! paper describes, and (b) small/short jobs flow around the big ones, so
//! the node-assignment mosaic looks like a production machine's.

use std::collections::VecDeque;

use supremm_metrics::{HostId, Timestamp};

use crate::job::JobSpec;

/// Scheduling policy — the §4.3.4 "determining optimal settings for
/// system software such as job schedulers" knob. The ablation bench and
/// experiment compare the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict first-come-first-served: nothing runs ahead of a blocked
    /// queue head.
    Fcfs,
    /// FCFS head + EASY backfill behind it (the production default).
    EasyBackfill,
}

/// A running-job reservation the scheduler knows about: when its nodes
/// come back.
#[derive(Debug, Clone, Copy)]
pub struct Reservation {
    pub end: Timestamp,
    pub nodes: u32,
}

/// The scheduler: a free-node pool plus a FIFO queue with EASY backfill.
#[derive(Debug)]
pub struct Scheduler {
    free: Vec<HostId>,
    queue: VecDeque<JobSpec>,
    policy: SchedPolicy,
}

impl Scheduler {
    pub fn new(node_count: u32) -> Scheduler {
        Scheduler::with_policy(node_count, SchedPolicy::EasyBackfill)
    }

    pub fn with_policy(node_count: u32, policy: SchedPolicy) -> Scheduler {
        Scheduler { free: (0..node_count).map(HostId).collect(), queue: VecDeque::new(), policy }
    }

    pub fn submit(&mut self, job: JobSpec) {
        self.queue.push_back(job);
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Nodes released by a finished job.
    pub fn release(&mut self, hosts: &[HostId]) {
        self.free.extend_from_slice(hosts);
    }

    /// Remove specific nodes from the free pool (they went down). Nodes
    /// not in the pool (busy or already removed) are ignored — the caller
    /// handles killing the jobs on them.
    pub fn remove_nodes(&mut self, down: &[HostId]) {
        self.free.retain(|h| !down.contains(h));
    }

    /// EASY backfill pass. `reservations` describes currently running
    /// jobs (end time and node count). Returns `(job, hosts)` placements;
    /// the caller launches them.
    pub fn schedule(
        &mut self,
        now: Timestamp,
        reservations: &[Reservation],
    ) -> Vec<(JobSpec, Vec<HostId>)> {
        let mut placements = Vec::new();
        // Plain FCFS from the head while it fits.
        while let Some(head) = self.queue.front() {
            if head.nodes as usize <= self.free.len() {
                let job = self.queue.pop_front().expect("front exists");
                let hosts = self.take_nodes(job.nodes);
                placements.push((job, hosts));
            } else {
                break;
            }
        }
        let Some(head) = self.queue.front() else {
            return placements;
        };
        if self.policy == SchedPolicy::Fcfs {
            // Strict FCFS: a blocked head blocks everyone.
            return placements;
        }

        // Head is blocked: compute its shadow time and spare node count.
        let needed = head.nodes as usize - self.free.len();
        let mut ends: Vec<Reservation> = reservations.to_vec();
        ends.sort_by_key(|r| r.end);
        let mut reclaimed = 0usize;
        let mut shadow = None;
        for r in &ends {
            reclaimed += r.nodes as usize;
            if reclaimed >= needed {
                shadow = Some((r.end, reclaimed - needed));
                break;
            }
        }
        let Some((shadow_time, spare)) = shadow else {
            // Head can never run with current reservations (e.g. nodes
            // down); leave the queue as is.
            return placements;
        };

        // Backfill: any later job that fits in the current free pool and
        // cannot delay the head — it either finishes before the shadow
        // time, or it is small enough to run on nodes the head will not
        // need even at shadow time (the over-reclaimed `spare`).
        let mut i = 1; // skip the blocked head
        while i < self.queue.len() {
            let cand = &self.queue[i];
            let fits_now = cand.nodes as usize <= self.free.len();
            let ends_before_shadow = now + cand.requested <= shadow_time;
            let harmless = ends_before_shadow || cand.nodes as usize <= spare;
            if fits_now && harmless {
                let job = self.queue.remove(i).expect("index in range");
                let hosts = self.take_nodes(job.nodes);
                placements.push((job, hosts));
                // Queue shifted; same index now holds the next candidate.
            } else {
                i += 1;
            }
        }
        placements
    }

    fn take_nodes(&mut self, n: u32) -> Vec<HostId> {
        let n = n as usize;
        debug_assert!(n <= self.free.len());
        self.free.split_off(self.free.len() - n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::{AppId, Duration, JobId, ScienceField, UserId};

    fn job(id: u64, nodes: u32, req_min: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: UserId(0),
            app: AppId(0),
            science: ScienceField::Physics,
            nodes,
            submit: Timestamp(0),
            duration: Duration::from_minutes(req_min),
            requested: Duration::from_minutes(req_min),
            papi: false,
        }
    }

    #[test]
    fn fcfs_places_jobs_in_order_while_they_fit() {
        let mut s = Scheduler::new(10);
        s.submit(job(1, 4, 60));
        s.submit(job(2, 4, 60));
        s.submit(job(3, 4, 60));
        let placed = s.schedule(Timestamp(0), &[]);
        let ids: Vec<u64> = placed.iter().map(|(j, _)| j.id.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.free_count(), 2);
    }

    #[test]
    fn placements_use_disjoint_nodes() {
        let mut s = Scheduler::new(12);
        s.submit(job(1, 5, 60));
        s.submit(job(2, 5, 60));
        let placed = s.schedule(Timestamp(0), &[]);
        let mut all: Vec<HostId> = placed.iter().flat_map(|(_, h)| h.clone()).collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before);
        assert_eq!(before, 10);
    }

    #[test]
    fn backfill_runs_short_small_job_behind_blocked_head() {
        let mut s = Scheduler::new(10);
        // 8 nodes busy until t=7200.
        s.remove_nodes(&(0..8).map(HostId).collect::<Vec<_>>());
        let res = [Reservation { end: Timestamp(7200), nodes: 8 }];
        s.submit(job(1, 6, 600)); // head: needs 6, only 2 free -> blocked
        s.submit(job(2, 2, 60)); // short small: ends (3600) before shadow (7200)
        let placed = s.schedule(Timestamp(0), &res);
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].0.id.0, 2);
        // Head still queued, at the front.
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn backfill_refuses_job_that_would_delay_head() {
        let mut s = Scheduler::new(10);
        s.remove_nodes(&(0..8).map(HostId).collect::<Vec<_>>());
        // Two running 4-node jobs; the head (6 nodes) must wait for the
        // first to end (shadow t=3600) and there is no spare at shadow.
        let res = [
            Reservation { end: Timestamp(3600), nodes: 4 },
            Reservation { end: Timestamp(7200), nodes: 4 },
        ];
        s.submit(job(1, 6, 600)); // head blocked until 3600
        s.submit(job(2, 2, 600)); // would run 0..36000, past the shadow
        let placed = s.schedule(Timestamp(0), &res);
        assert!(placed.is_empty(), "{placed:?}");
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn backfill_allows_long_job_on_spare_nodes() {
        let mut s = Scheduler::new(10);
        s.remove_nodes(&(0..8).map(HostId).collect::<Vec<_>>());
        // One 8-node job ends at 3600: head takes 6 of (2 free + 8), so 4
        // nodes are spare at shadow — a long 2-node job cannot delay it.
        let res = [Reservation { end: Timestamp(3600), nodes: 8 }];
        s.submit(job(1, 6, 600));
        s.submit(job(2, 2, 600));
        let placed = s.schedule(Timestamp(0), &res);
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].0.id.0, 2);
    }

    #[test]
    fn release_makes_nodes_schedulable_again() {
        let mut s = Scheduler::new(4);
        s.submit(job(1, 4, 60));
        let placed = s.schedule(Timestamp(0), &[]);
        let hosts = placed[0].1.clone();
        assert_eq!(s.free_count(), 0);
        s.release(&hosts);
        assert_eq!(s.free_count(), 4);
        s.submit(job(2, 4, 60));
        assert_eq!(s.schedule(Timestamp(0), &[]).len(), 1);
    }

    #[test]
    fn unsatisfiable_head_does_not_deadlock_scheduler() {
        let mut s = Scheduler::new(4);
        s.submit(job(1, 100, 60)); // bigger than the machine
        let placed = s.schedule(Timestamp(0), &[]);
        assert!(placed.is_empty());
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn remove_nodes_ignores_busy_nodes() {
        let mut s = Scheduler::new(4);
        s.submit(job(1, 2, 60));
        let placed = s.schedule(Timestamp(0), &[]);
        let busy = placed[0].1.clone();
        s.remove_nodes(&busy); // not in free pool; no-op
        assert_eq!(s.free_count(), 2);
    }
}
