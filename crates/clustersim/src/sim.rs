//! The simulation driver: arrivals → scheduling → activity → kernels.
//!
//! [`Simulation::step`] advances one sample interval and reports what
//! happened, so the integration layer can drive the TACC_Stats fleet
//! (job begin/end marks, periodic samples) and the log generators exactly
//! the way the real deployment's hooks do.

use supremm_metrics::{Duration, HostId, JobId, Timestamp, UserId};
use supremm_procsim::{KernelState, NodeActivity, PerfEvent};

use crate::apps::AppCatalog;
use crate::config::ClusterConfig;
use crate::job::{CompletedJob, ExitStatus, JobSpec, RunningJob};
use crate::outage::down_frac_at;
use crate::rng::Sampler;
use crate::scheduler::{Reservation, Scheduler};
use crate::users::UserPopulation;

/// What happened during one step. The step advances time to `ts`; ends
/// and starts happen *at* `ts`.
#[derive(Debug)]
pub struct StepEvents {
    pub ts: Timestamp,
    pub started: Vec<(JobSpec, Vec<HostId>)>,
    pub ended: Vec<CompletedJob>,
    /// Nodes whose perf counters were clobbered by a user PAPI session
    /// during this interval.
    pub papi_clobbers: Vec<HostId>,
}

/// One machine plus its workload, stepping in sample intervals.
pub struct Simulation {
    cfg: ClusterConfig,
    catalog: AppCatalog,
    users: UserPopulation,
    user_weights: Vec<f64>,
    kernels: Vec<KernelState>,
    node_up: Vec<bool>,
    running: Vec<RunningJob>,
    scheduler: Scheduler,
    sampler: Sampler,
    now: Timestamp,
    next_job_id: u64,
    total_submitted: u64,
    /// Per-user, per-day campaign intensity: users run in bursts of
    /// activity spanning days (paper-scale "campaigns"), which is the
    /// aperiodic slow component behind Table 1's short-offset
    /// predictability. `campaigns[user][day]` multiplies the user's
    /// submission weight.
    campaigns: Vec<Vec<f64>>,
}

impl Simulation {
    pub fn new(cfg: ClusterConfig) -> Simulation {
        let catalog = AppCatalog::standard();
        let mut sampler = Sampler::new(cfg.seed);
        let users = UserPopulation::generate(&cfg, &catalog, &mut sampler);
        let user_weights = users.activity_weights();
        let kernels =
            (0..cfg.node_count).map(|_| KernelState::new(cfg.node_spec.clone())).collect();
        let scheduler = Scheduler::with_policy(cfg.node_count, cfg.sched_policy);
        // Day-scale AR(1) campaign factor per user (log-space, ρ = 0.75,
        // stationary σ ≈ 0.7): multi-day activity bursts.
        let days = cfg.sim_days as usize + 1;
        let campaigns: Vec<Vec<f64>> = (0..users.len())
            .map(|u| {
                let mut s = sampler.fork(0xCA3F_0000 ^ u as u64);
                let mut x = s.normal(0.0, 0.7);
                (0..days)
                    .map(|_| {
                        x = 0.75 * x + s.normal(0.0, 0.7 * (1.0f64 - 0.75 * 0.75).sqrt());
                        x.exp()
                    })
                    .collect()
            })
            .collect();
        Simulation {
            node_up: vec![true; cfg.node_count as usize],
            kernels,
            users,
            user_weights,
            catalog,
            running: Vec::new(),
            scheduler,
            sampler,
            now: Timestamp::EPOCH,
            next_job_id: 1,
            total_submitted: 0,
            campaigns,
            cfg,
        }
    }

    pub fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn catalog(&self) -> &AppCatalog {
        &self.catalog
    }

    pub fn users(&self) -> &UserPopulation {
        &self.users
    }

    pub fn now(&self) -> Timestamp {
        self.now
    }

    pub fn is_done(&self) -> bool {
        self.now >= self.cfg.end()
    }

    pub fn kernels(&self) -> &[KernelState] {
        &self.kernels
    }

    pub fn kernels_mut(&mut self) -> &mut [KernelState] {
        &mut self.kernels
    }

    /// Which nodes are powered on (Figure 8's "active nodes").
    pub fn node_up(&self) -> &[bool] {
        &self.node_up
    }

    pub fn running_jobs(&self) -> usize {
        self.running.len()
    }

    pub fn busy_nodes(&self) -> usize {
        self.running.iter().map(|j| j.hosts.len()).sum()
    }

    pub fn queue_len(&self) -> usize {
        self.scheduler.queue_len()
    }

    pub fn total_submitted(&self) -> u64 {
        self.total_submitted
    }

    /// Draw a fresh job for a weighted-random user, folding in the
    /// current day's campaign intensities.
    fn draw_job(&mut self, submit: Timestamp) -> JobSpec {
        let day = (submit.day() as usize).min(self.campaigns[0].len() - 1);
        let weights: Vec<f64> =
            self.user_weights.iter().zip(&self.campaigns).map(|(w, c)| w * c[day]).collect();
        let uidx = self.sampler.weighted_index(&weights);
        let user = self.users.get(UserId(uidx as u32)).clone();
        let app_weights: Vec<f64> = user.apps.iter().map(|&(_, w)| w).collect();
        let app_id = user.apps[self.sampler.weighted_index(&app_weights)].0;
        let app = self.catalog.get(app_id);
        let papi_prob = app.signature_for(self.cfg.is_lonestar4, 1.0, 1.0).papi_prob;

        let nodes =
            (self.sampler.lognormal(user.job_nodes_median, self.cfg.job_nodes_sigma).round()
                as u32)
                .clamp(1, self.cfg.node_count / 2);
        // Durations quantise to whole sample intervals (the paper's
        // analyses exclude sub-interval jobs anyway).
        let iv = self.cfg.interval.seconds();
        let minutes = self
            .sampler
            .lognormal(user.job_len_median_min, self.cfg.job_len_sigma_job)
            .clamp(10.0, 14.0 * 1440.0);
        let dur_secs = ((minutes * 60.0 / iv as f64).round().max(1.0) as u64) * iv;
        let duration = Duration(dur_secs);
        let requested = Duration(
            ((dur_secs as f64 * self.sampler.uniform_range(1.1, 2.5)) / iv as f64).ceil() as u64
                * iv,
        );
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        JobSpec {
            id,
            user: user.id,
            app: app_id,
            science: user.science,
            nodes,
            submit,
            duration,
            requested,
            papi: self.sampler.chance(papi_prob),
        }
    }

    fn launch(&mut self, spec: JobSpec, hosts: Vec<HostId>, at: Timestamp) -> RunningJob {
        let user = self.users.get(spec.user);
        let app = self.catalog.get(spec.app);
        let sig = app.signature_for(self.cfg.is_lonestar4, self.cfg.mem_scale, self.cfg.idle_scale);
        RunningJob::launch(
            spec,
            hosts,
            at,
            &self.cfg.node_spec,
            &sig,
            user.efficiency_trait,
            user.idle_anomaly,
            &mut self.sampler,
        )
    }

    /// Advance one sample interval.
    pub fn step(&mut self) -> StepEvents {
        let dt = self.cfg.interval.seconds();
        let t1 = self.now + Duration(dt);

        // 1. Arrivals during [now, t1): Poisson at the offered rate,
        //    modulated by the diurnal/weekly submission cycle. Day peaks
        //    over-request the machine (the regime the paper describes);
        //    nights partially drain the backlog — the slow breathing this
        //    induces in every aggregate metric is what Table 1 measures.
        let lambda = self.cfg.arrival_rate_per_sec() * self.cfg.load_factor(self.now) * dt as f64;
        let arrivals = self.sampler.poisson(lambda);
        for _ in 0..arrivals {
            let job = self.draw_job(self.now);
            self.total_submitted += 1;
            self.scheduler.submit(job);
        }

        // 2. Generate this interval's activity (mutates each job once)
        //    and apply it to the kernels.
        let n = self.kernels.len();
        let mut acts: Vec<Option<NodeActivity>> = vec![None; n];
        let mut papi_clobbers = Vec::new();
        for job in &mut self.running {
            if job.papi_fires() {
                papi_clobbers.extend(job.hosts.iter().copied());
            }
            let act = job.next_slice(dt as f64);
            for &h in &job.hosts {
                acts[h.0 as usize] = Some(act);
            }
        }
        for &h in &papi_clobbers {
            self.kernels[h.0 as usize]
                .perfctrs_mut()
                .user_reprogram(0, PerfEvent::UserDefined(0x5aa5));
        }
        for (i, kernel) in self.kernels.iter_mut().enumerate() {
            if !self.node_up[i] {
                continue; // powered off
            }
            let act = acts[i].unwrap_or_else(NodeActivity::idle);
            kernel.advance(&act, dt as f64);
        }

        self.now = t1;

        // 3. Natural job completions at t1.
        let mut ended = Vec::new();
        let mut still_running = Vec::new();
        for job in self.running.drain(..) {
            if job.end <= t1 {
                self.scheduler.release(&job.hosts);
                let exit = {
                    // A small tail of abnormal terminations (§4.3.1's
                    // "job completion failure profiles"); jobs flying
                    // close to the memory ceiling fail (OOM) far more
                    // often.
                    let u = self.sampler.uniform();
                    let fail_p = if job.mem_frac > 0.85 { 0.30 } else { 0.03 };
                    if u < fail_p {
                        ExitStatus::Failed
                    } else if u < fail_p + 0.02 {
                        ExitStatus::Cancelled
                    } else {
                        ExitStatus::Completed
                    }
                };
                ended.push(CompletedJob {
                    hosts: job.hosts.clone(),
                    start: job.start,
                    end: t1.min(job.end),
                    exit,
                    mem_frac: job.mem_frac,
                    spec: job.spec,
                });
            } else {
                still_running.push(job);
            }
        }
        self.running = still_running;

        // 4. Outage transitions at t1. The deterministic "first k nodes"
        //    subset keeps runs reproducible.
        let down_frac = down_frac_at(&self.cfg.outages, t1);
        let down_count = (down_frac * n as f64).ceil() as usize;
        let newly_down: Vec<HostId> = (0..n)
            .filter(|&i| i < down_count && self.node_up[i])
            .map(|i| HostId(i as u32))
            .collect();
        if !newly_down.is_empty() {
            // Kill jobs touching newly-down nodes.
            let mut survivors = Vec::new();
            for job in self.running.drain(..) {
                if job.hosts.iter().any(|h| newly_down.contains(h)) {
                    // Surviving nodes of the killed job go back to free.
                    let up_hosts: Vec<HostId> = job
                        .hosts
                        .iter()
                        .copied()
                        .filter(|h| (h.0 as usize) >= down_count)
                        .collect();
                    self.scheduler.release(&up_hosts);
                    ended.push(CompletedJob {
                        hosts: job.hosts.clone(),
                        start: job.start,
                        end: t1,
                        exit: ExitStatus::NodeFailure,
                        mem_frac: job.mem_frac,
                        spec: job.spec,
                    });
                } else {
                    survivors.push(job);
                }
            }
            self.running = survivors;
            self.scheduler.remove_nodes(&newly_down);
            for h in &newly_down {
                self.node_up[h.0 as usize] = false;
            }
        }
        // Nodes coming back up.
        let newly_up: Vec<HostId> = (0..n)
            .filter(|&i| i >= down_count && !self.node_up[i])
            .map(|i| HostId(i as u32))
            .collect();
        if !newly_up.is_empty() {
            for h in &newly_up {
                self.node_up[h.0 as usize] = true;
            }
            self.scheduler.release(&newly_up);
        }

        // 5. Schedule at t1.
        let reservations: Vec<Reservation> = self
            .running
            .iter()
            .map(|j| Reservation { end: j.end, nodes: j.hosts.len() as u32 })
            .collect();
        let placements = self.scheduler.schedule(t1, &reservations);
        let mut started = Vec::with_capacity(placements.len());
        for (spec, hosts) in placements {
            started.push((spec.clone(), hosts.clone()));
            let job = self.launch(spec, hosts, t1);
            self.running.push(job);
        }

        StepEvents { ts: t1, started, ended, papi_clobbers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ClusterConfig {
        ClusterConfig::ranger().scaled(32, 2)
    }

    #[test]
    fn simulation_fills_the_machine() {
        let mut sim = Simulation::new(tiny_cfg());
        // Warm up half a day.
        for _ in 0..72 {
            sim.step();
        }
        // Judge utilisation and backlog over the following half day (any
        // single instant can transiently drain the queue).
        let mut util_sum = 0.0;
        let mut saw_backlog = false;
        for _ in 0..72 {
            sim.step();
            util_sum += sim.busy_nodes() as f64 / 32.0;
            saw_backlog |= sim.queue_len() > 0;
        }
        let util = util_sum / 72.0;
        assert!(util > 0.75, "utilisation {util}");
        assert!(saw_backlog, "over-requested machine keeps a backlog");
    }

    #[test]
    fn events_are_consistent() {
        let mut sim = Simulation::new(tiny_cfg());
        let mut started = 0usize;
        let mut ended = 0usize;
        while !sim.is_done() {
            let ev = sim.step();
            started += ev.started.len();
            ended += ev.ended.len();
            for (spec, hosts) in &ev.started {
                assert_eq!(spec.nodes as usize, hosts.len());
            }
        }
        assert!(started > 50, "{started}");
        assert!(ended > 30, "{ended}");
        assert_eq!(started, ended + sim.running_jobs());
    }

    #[test]
    fn no_node_runs_two_jobs_at_once() {
        let mut sim = Simulation::new(tiny_cfg());
        let mut owner: std::collections::HashMap<HostId, JobId> = Default::default();
        for _ in 0..144 {
            let ev = sim.step();
            for job in &ev.ended {
                for h in &job.hosts {
                    owner.remove(h);
                }
            }
            for (spec, hosts) in &ev.started {
                for h in hosts {
                    let prev = owner.insert(*h, spec.id);
                    assert!(prev.is_none(), "node {h} double-booked");
                }
            }
        }
    }

    #[test]
    fn outage_kills_jobs_and_empties_nodes() {
        let mut cfg = tiny_cfg();
        cfg.outages = vec![crate::outage::Outage {
            start: Timestamp(86_400 / 2),
            duration: Duration::from_hours(3),
            frac: 1.0,
        }];
        let mut sim = Simulation::new(cfg);
        let mut saw_node_failures = false;
        let mut saw_full_down = false;
        while !sim.is_done() {
            let ev = sim.step();
            if ev.ended.iter().any(|j| j.exit == ExitStatus::NodeFailure) {
                saw_node_failures = true;
            }
            if sim.node_up().iter().all(|&u| !u) {
                saw_full_down = true;
                assert_eq!(sim.busy_nodes(), 0);
            }
        }
        assert!(saw_node_failures);
        assert!(saw_full_down);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = Simulation::new(tiny_cfg());
            let mut log = Vec::new();
            for _ in 0..100 {
                let ev = sim.step();
                log.push((
                    ev.started.iter().map(|(s, _)| s.id.0).collect::<Vec<_>>(),
                    ev.ended.iter().map(|j| j.spec.id.0).collect::<Vec<_>>(),
                ));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn job_durations_are_interval_aligned_and_bounded() {
        let mut sim = Simulation::new(tiny_cfg());
        let iv = sim.cfg().interval.seconds();
        for _ in 0..144 {
            let ev = sim.step();
            for (spec, _) in &ev.started {
                assert_eq!(spec.duration.seconds() % iv, 0);
                assert!(spec.duration.seconds() >= iv);
                assert!(spec.requested >= spec.duration);
            }
        }
    }

    #[test]
    fn papi_clobbers_eventually_happen() {
        // PAPI jobs are a few percent of submissions, so give the test a
        // week of a busy 64-node machine (seed pinned, fully
        // deterministic).
        let mut sim = Simulation::new(ClusterConfig::ranger().scaled(64, 7).with_seed(1234));
        let mut clobbers = 0;
        while !sim.is_done() {
            clobbers += sim.step().papi_clobbers.len();
        }
        assert!(clobbers > 0);
    }
}
