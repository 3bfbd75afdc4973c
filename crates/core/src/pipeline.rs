//! The end-to-end pipeline: Figure 1 of the paper as code.
//!
//! The real deployment's flow — per-node TACC_Stats raw files, scheduler
//! accounting, rationalized syslog, Lariat summaries, all ingested into a
//! warehouse from which XDMoD serves reports — is reproduced faithfully,
//! with the cluster simulator standing in for the machine:
//!
//! ```text
//! clustersim ──activity──▶ procsim kernels
//!      │                        │
//!      │ job events        reads│
//!      ▼                        ▼
//!  scheduler hooks ───▶ taccstats fleet ──▶ RawArchive
//!      │                                        │
//!      ├──▶ accounting log      ┌───────────────┤
//!      ├──▶ lariat log          ▼               ▼
//!      └──▶ raw syslog ──▶ warehouse::ingest  SystemSeries
//!                               │
//!                               ▼
//!                         JobTable ──▶ xdmod reports
//! ```

use std::collections::HashSet;
use std::sync::mpsc;

use supremm_clustersim::faultsim::InjectionLog;
use supremm_clustersim::job::{CompletedJob, ExitStatus};
use supremm_clustersim::{ClusterConfig, FaultPlan, Simulation};
use supremm_metrics::{HostId, JobId, Timestamp};
use supremm_ratlog::accounting::AccountingRecord;
use supremm_ratlog::lariat::{exe_for_app, libraries_for, LariatRecord};
use supremm_ratlog::syslog::{self, RatRecord};
use supremm_taccstats::fleet::FleetCollector;
use supremm_taccstats::{RawArchive, RawFileKey};
use supremm_warehouse::{ConsumeOptions, IngestStats, JobTable, StreamAccumulator, SystemSeries};

/// Files in flight between the collector (producer) and the ingest
/// workers. Small on purpose: with `keep_archive: false` this bound is
/// the pipeline's peak raw-text footprint (~0.5 MB per file).
const INGEST_QUEUE_DEPTH: usize = 32;

/// Pipeline tuning.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Bin width of the assembled system series (defaults to the
    /// sampling interval).
    pub series_bin_secs: Option<u64>,
    /// Keep the raw archive in the result (it is by far the largest
    /// artifact; reports only need the table + series).
    pub keep_archive: bool,
    /// Seeded fault injection applied to every raw file at the
    /// collector → ingest boundary (crashes, truncation, torn lines,
    /// duplicated ticks, clock skew, dropped records). `None` — and any
    /// plan whose rates are all zero — leaves every file untouched.
    pub fault_plan: Option<FaultPlan>,
    /// Flush the run's products through the `tsdb` storage engine rooted
    /// here and read them back, making the on-disk store the source of
    /// truth for everything downstream (reports, serving): the system
    /// series lands in `<dir>/series` (WAL + compressed segments), the
    /// job table in `<dir>/jobs.tsdb`. `None` keeps everything in
    /// memory. Both paths produce bit-identical output.
    pub store_dir: Option<std::path::PathBuf>,
    /// Telemetry registry the pipeline reports into (file/byte/record
    /// counters, quarantine tallies, per-stage durations). `None` uses
    /// the process-wide [`supremm_obs::global`] registry.
    pub obs: Option<supremm_obs::ObsHandle>,
    /// Retention policy applied to the series store when `store_dir` is
    /// set: the store opens under this policy and one retention pass
    /// (data-time `now`) runs after the series land, so the reloaded
    /// dataset is exactly what a retention-managed deployment serves.
    /// `None` keeps everything forever (the previous behaviour).
    pub retention: Option<supremm_warehouse::tsdb::RetentionPolicy>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            series_bin_secs: None,
            keep_archive: true,
            fault_plan: None,
            store_dir: None,
            obs: None,
            retention: None,
        }
    }
}

/// Obs handles cached once per run; the per-file hot path does two
/// relaxed atomic adds.
#[derive(Clone)]
struct PipelineMetrics {
    files_total: supremm_obs::Counter,
    bytes_total: supremm_obs::Counter,
    records_total: supremm_obs::Counter,
    quarantined_samples_total: supremm_obs::Counter,
    quarantined_bytes_total: supremm_obs::Counter,
    files_lost_total: supremm_obs::Counter,
    worker_panics_total: supremm_obs::Counter,
    stage_collect_ingest: supremm_obs::Histogram,
    stage_store: supremm_obs::Histogram,
}

impl PipelineMetrics {
    fn new(obs: &supremm_obs::ObsRegistry) -> PipelineMetrics {
        PipelineMetrics {
            files_total: obs.counter("pipeline_files_consumed_total"),
            bytes_total: obs.counter("pipeline_bytes_consumed_total"),
            records_total: obs.counter("pipeline_records_total"),
            quarantined_samples_total: obs.counter("pipeline_quarantined_samples_total"),
            quarantined_bytes_total: obs.counter("pipeline_quarantined_bytes_total"),
            files_lost_total: obs.counter("pipeline_files_lost_total"),
            worker_panics_total: obs.counter("pipeline_worker_panics_total"),
            stage_collect_ingest: obs.histogram("pipeline_stage_micros{stage=\"collect_ingest\"}"),
            stage_store: obs.histogram("pipeline_stage_micros{stage=\"store\"}"),
        }
    }
}

/// Everything the tool chain produces for one machine.
pub struct MachineDataset {
    pub cfg: ClusterConfig,
    /// Raw collector output (empty if `keep_archive` was false).
    pub archive: RawArchive,
    /// Raw-archive volume statistics, captured before any drop.
    pub raw_total_bytes: u64,
    pub raw_mean_bytes_per_node_day: f64,
    /// The warehouse job table.
    pub table: JobTable,
    pub ingest_stats: IngestStats,
    /// Cluster-wide time series.
    pub series: SystemSeries,
    /// Ground-truth accounting/lariat/syslog streams.
    pub accounting: Vec<AccountingRecord>,
    pub lariat: Vec<LariatRecord>,
    pub syslog: Vec<RatRecord>,
    /// Jobs submitted by the simulator (includes still-queued ones).
    pub submitted_jobs: u64,
    /// Ground truth of what the fault plan did to the raw files (all
    /// zeros when fault injection is off).
    pub faults_injected: InjectionLog,
}

fn exit_to_failed_code(e: ExitStatus) -> u32 {
    match e {
        ExitStatus::Completed => 0,
        ExitStatus::Failed => 1,
        ExitStatus::NodeFailure => 19,
        ExitStatus::Cancelled => 100,
    }
}

fn accounting_of(job: &CompletedJob) -> AccountingRecord {
    AccountingRecord {
        queue: if job.spec.nodes >= 16 { "large" } else { "normal" }.to_string(),
        owner: job.spec.user,
        job: job.spec.id,
        account: job.spec.science,
        submit: job.spec.submit,
        start: job.start,
        end: job.end,
        failed: exit_to_failed_code(job.exit),
        exit_status: if job.exit == ExitStatus::Failed { 137 } else { 0 },
        nodes: job.spec.nodes,
        slots: job.spec.nodes * 16,
        hosts: job.hosts.clone(),
    }
}

/// Raw syslog lines a step's events would generate on a real machine.
fn syslog_lines_for_step(
    ended: &[CompletedJob],
    papi_hosts: &[HostId],
    node_up: &[bool],
    ts: Timestamp,
) -> Vec<String> {
    let mut lines = Vec::new();
    for job in ended {
        let host = job.hosts[0];
        match job.exit {
            ExitStatus::Failed => {
                // Failures announce themselves (§4.3.1's precursors): OOM
                // kills when the job was flying near the memory ceiling,
                // soft lockups otherwise.
                if job.mem_frac > 0.85 {
                    lines.push(syslog::raw_oom(ts, host, "a.out", 9000 + job.spec.id.0 as u32));
                } else {
                    lines.push(syslog::raw_soft_lockup(ts, host, 3, 67));
                }
            }
            ExitStatus::Cancelled => {
                lines.push(syslog::raw_wallclock(ts, host, job.spec.id));
            }
            ExitStatus::NodeFailure => {
                for &h in &job.hosts {
                    if !node_up[h.0 as usize] {
                        lines.push(syslog::raw_node_state(ts, h, false));
                    }
                }
                lines.push(syslog::raw_lustre_error(ts, host, "scratch-OST0003", -107));
            }
            ExitStatus::Completed => {}
        }
    }
    for &h in papi_hosts {
        // PAPI sessions often coincide with MCE-counter reads showing up
        // in logs; emit a benign hardware-event line.
        lines.push(syslog::raw_mce(ts, h, 0, 4));
    }
    // Ambient noise: one ntpd line per step from a rotating host.
    if !node_up.is_empty() {
        let h = HostId((ts.0 / 600 % node_up.len() as u64) as u32);
        if node_up[h.0 as usize] {
            lines.push(syslog::raw_noise(ts, h));
        }
    }
    lines
}

/// The simulation's ground-truth side channels, separated from the raw
/// files, which flow to the ingest pool as they rotate.
struct SimStreams {
    accounting: Vec<AccountingRecord>,
    lariat: Vec<LariatRecord>,
    syslog: Vec<RatRecord>,
    submitted_jobs: u64,
}

/// Drive the simulation + fleet collection to completion, handing every
/// finished raw file to `on_file`. Files rotate out at day boundaries
/// *during* the run (enabling overlapped ingest); the remainder flushes
/// at the end.
fn drive_simulation(
    cfg: &ClusterConfig,
    mut on_file: impl FnMut(RawFileKey, String),
) -> SimStreams {
    let mut sim = Simulation::new(cfg.clone());
    let mut fleet = FleetCollector::new(cfg.node_count);
    let mut accounting: Vec<AccountingRecord> = Vec::new();
    let mut lariat: Vec<LariatRecord> = Vec::new();
    let mut syslog_records: Vec<RatRecord> = Vec::new();
    // Current host → job assignment, for the rationalizer's job tagging.
    let mut owner: Vec<Option<JobId>> = vec![None; cfg.node_count as usize];

    while !sim.is_done() {
        let ev = sim.step();
        let mut touched: HashSet<HostId> = HashSet::new();

        // Job endings: final sample + end mark on surviving nodes, then
        // the accounting record.
        for job in &ev.ended {
            let up_hosts: Vec<HostId> =
                job.hosts.iter().copied().filter(|h| sim.node_up()[h.0 as usize]).collect();
            fleet.end_job(sim.kernels_mut(), &up_hosts, job.spec.id, ev.ts);
            touched.extend(up_hosts);
            accounting.push(accounting_of(job));
            for &h in &job.hosts {
                owner[h.0 as usize] = None;
            }
        }

        // Raw syslog for this step, rationalized with the *pre-start*
        // ownership map (events refer to the jobs that just ran).
        let raw_lines = syslog_lines_for_step(&ev.ended, &ev.papi_clobbers, sim.node_up(), ev.ts);
        // Ended jobs' messages should still map to them.
        let mut ended_owner = owner.clone();
        for job in &ev.ended {
            for &h in &job.hosts {
                ended_owner[h.0 as usize] = Some(job.spec.id);
            }
        }
        syslog_records.extend(syslog::rationalize(raw_lines, |h, _| {
            ended_owner.get(h.0 as usize).copied().flatten()
        }));

        // Job starts: counter programming + begin mark + first sample,
        // plus the Lariat record.
        for (spec, hosts) in &ev.started {
            fleet.begin_job(sim.kernels_mut(), hosts, spec.id, ev.ts);
            touched.extend(hosts.iter().copied());
            for &h in hosts {
                owner[h.0 as usize] = Some(spec.id);
            }
            let app_name = sim.catalog().get(spec.app).name;
            lariat.push(LariatRecord {
                job: spec.id,
                user: spec.user,
                exe: exe_for_app(app_name).to_string(),
                app_name: app_name.to_string(),
                nodes: spec.nodes,
                threads_per_rank: 1,
                libraries: libraries_for(app_name),
            });
        }

        // Periodic samples everywhere else.
        fleet.sample_all_except(sim.kernels(), sim.node_up(), ev.ts, &touched);

        // Hand over any files the collectors just rotated (day closed).
        for (key, text) in fleet.drain_finished() {
            on_file(key, text);
        }
    }

    let submitted_jobs = sim.total_submitted();
    for (key, text) in fleet.into_files() {
        on_file(key, text);
    }
    SimStreams { accounting, lariat, syslog: syslog_records, submitted_jobs }
}

/// Wrap a file sink with the fault plan: every rotated file is mutated
/// or dropped *before* it reaches ingest — exactly where a real
/// facility's crashes corrupt the data — with the ground truth of what
/// happened accumulated in `log`. With no plan the sink is untouched.
fn faulted<'a>(
    plan: Option<FaultPlan>,
    log: &'a mut InjectionLog,
    mut on_file: impl FnMut(RawFileKey, String) + 'a,
) -> impl FnMut(RawFileKey, String) + 'a {
    move |key, text| match plan {
        None => on_file(key, text),
        Some(plan) => {
            let (out, l) = plan.apply_logged(key.host, key.day, text);
            log.merge(&l);
            if let Some(text) = out {
                on_file(key, text);
            }
        }
    }
}

/// Persist the run's products through the storage engine and read them
/// back, so downstream consumers exercise exactly what a restarted
/// process would see. The engine's compressed segment format replaces
/// the old JSON-lines job export here.
fn store_and_reload(
    dir: &std::path::Path,
    table: JobTable,
    series: SystemSeries,
    retention: Option<&supremm_warehouse::tsdb::RetentionPolicy>,
) -> (JobTable, SystemSeries) {
    use supremm_warehouse::tsdb::{DbOptions, Tsdb};
    use supremm_warehouse::tsdbio;

    std::fs::create_dir_all(dir).expect("create store dir");
    let opts =
        DbOptions { retention: retention.cloned().unwrap_or_default(), ..Default::default() };
    let mut db = Tsdb::open_with(&dir.join("series"), opts).expect("open tsdb store");
    tsdbio::store_system_series(&mut db, &series).expect("append system series");
    db.flush().expect("flush tsdb store");
    if retention.is_some() {
        tsdbio::enforce_store_retention(&mut db).expect("retention pass");
    }
    let series = tsdbio::load_system_series(&db).expect("reload system series");
    let jobs = dir.join("jobs.tsdb");
    table.save(&jobs).expect("save job table");
    let table = JobTable::load(&jobs).expect("reload job table");
    (table, series)
}

fn ingest_worker_count() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    // Leave one core for the producer (the simulation itself).
    cores.saturating_sub(1).clamp(1, 8)
}

/// Run the whole tool chain over one simulated machine.
///
/// Collection and ingest run concurrently: the simulation thread
/// produces raw files into bounded per-worker channels as soon as the
/// collector rotates them; the pool consumes each file exactly once
/// into per-file partials. With `keep_archive: false` the text is freed
/// right after its parse, so peak raw-text memory is bounded by the
/// files in flight, not the whole run.
pub fn run_pipeline(cfg: ClusterConfig, opts: &PipelineOptions) -> MachineDataset {
    let bin = opts.series_bin_secs.unwrap_or(cfg.interval.seconds());
    let consume_opts = ConsumeOptions { bin_secs: Some(bin), job_fragments: true, strict: false };

    let obs = opts.obs.clone().unwrap_or_else(supremm_obs::global);
    let met = PipelineMetrics::new(&obs);

    let mut fault_log = InjectionLog::default();
    let t = supremm_obs::Timer::start();
    let (streams, acc, archive, pool) =
        pooled_ingest(consume_opts, ingest_worker_count(), opts.keep_archive, &met, |on_file| {
            drive_simulation(&cfg, faulted(opts.fault_plan, &mut fault_log, on_file))
        });
    met.stage_collect_ingest.observe_timer(t);

    let raw_total_bytes = acc.total_bytes();
    let raw_mean = acc.mean_bytes_per_file();
    let mut out = acc.finish(&streams.accounting, &streams.lariat);
    out.stats.worker_panics = pool.worker_panics;
    out.stats.files_lost = pool.files_lost;

    met.records_total.add(out.stats.records_seen as u64);
    met.quarantined_samples_total.add(out.stats.samples_quarantined as u64);
    met.quarantined_bytes_total.add(out.stats.bytes_quarantined);
    met.files_lost_total.add(out.stats.files_lost as u64);
    met.worker_panics_total.add(out.stats.worker_panics as u64);

    let table = JobTable::new(out.records);
    let series = out.series.expect("pipeline always bins");
    let (table, series) = match &opts.store_dir {
        None => (table, series),
        Some(dir) => {
            let t = supremm_obs::Timer::start();
            let reloaded = store_and_reload(dir, table, series, opts.retention.as_ref());
            met.stage_store.observe_timer(t);
            reloaded
        }
    };

    MachineDataset {
        cfg,
        archive,
        raw_total_bytes,
        raw_mean_bytes_per_node_day: raw_mean,
        table,
        ingest_stats: out.stats,
        series,
        accounting: streams.accounting,
        lariat: streams.lariat,
        syslog: streams.syslog,
        submitted_jobs: streams.submitted_jobs,
        faults_injected: fault_log,
    }
}

/// Worker-pool failures, surfaced into [`IngestStats`] so a degraded
/// ingest is visible in the run's accounting instead of aborting it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PoolFailures {
    /// Files whose parse panicked (each is quarantined whole).
    worker_panics: usize,
    /// Files dispatched but never folded into a partial.
    files_lost: usize,
}

/// Marker a test can plant in a raw file's text to make its ingest
/// worker panic mid-parse, exercising the quarantine-and-continue path.
#[cfg(test)]
const INJECTED_PANIC_MARKER: &str = "##test-ingest-panic##";

fn consume_one(acc: &mut StreamAccumulator, key: RawFileKey, text: &str) {
    #[cfg(test)]
    if text.contains(INJECTED_PANIC_MARKER) {
        panic!("injected ingest panic for {key:?}");
    }
    acc.consume(key, text);
}

/// Hand one file to the pool: a non-blocking sweep first (any worker
/// with queue room takes it), then a blocking send in round-robin
/// order. A worker found dead is dropped from rotation; returns `false`
/// only once every worker is gone.
fn dispatch(
    senders: &mut Vec<mpsc::SyncSender<(RawFileKey, String)>>,
    next: &mut usize,
    mut item: (RawFileKey, String),
) -> bool {
    for i in 0..senders.len() {
        let idx = (*next + i) % senders.len();
        match senders[idx].try_send(item) {
            Ok(()) => {
                *next = idx + 1;
                return true;
            }
            Err(mpsc::TrySendError::Full(it)) | Err(mpsc::TrySendError::Disconnected(it)) => {
                item = it;
            }
        }
    }
    while !senders.is_empty() {
        let idx = *next % senders.len();
        match senders[idx].send(item) {
            Ok(()) => {
                *next = idx + 1;
                return true;
            }
            Err(mpsc::SendError(it)) => {
                item = it;
                senders.remove(idx);
            }
        }
    }
    false
}

/// Run `produce` with a worker pool consuming every file it emits.
///
/// Each worker owns its receiver outright (no shared-`Receiver` mutex,
/// so no lock to poison and no guard held across a blocking `recv`). A
/// panic while parsing one file quarantines that file and keeps both
/// the worker and its accumulated partials; a worker lost entirely is
/// tallied, and the files it took with it show up in
/// [`PoolFailures::files_lost`] rather than tearing down the run.
fn pooled_ingest<T>(
    consume_opts: ConsumeOptions,
    workers: usize,
    keep: bool,
    met: &PipelineMetrics,
    produce: impl FnOnce(&mut dyn FnMut(RawFileKey, String)) -> T,
) -> (T, StreamAccumulator, RawArchive, PoolFailures) {
    let workers = workers.max(1);
    let depth = (INGEST_QUEUE_DEPTH / workers).max(1);

    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<(RawFileKey, String)>(depth);
            senders.push(tx);
            let met = met.clone();
            handles.push(scope.spawn(move || {
                let mut acc = StreamAccumulator::new(consume_opts);
                let mut kept: Vec<(RawFileKey, String)> = Vec::new();
                let mut received = 0usize;
                let mut panics = 0usize;
                while let Ok((key, text)) = rx.recv() {
                    received += 1;
                    met.files_total.inc();
                    met.bytes_total.add(text.len() as u64);
                    let parse = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        consume_one(&mut acc, key, &text);
                    }));
                    if parse.is_err() {
                        panics += 1;
                        acc.quarantine(key, text.len() as u64);
                    }
                    if keep {
                        kept.push((key, text));
                    }
                }
                (acc, kept, received, panics)
            }));
        }

        let mut next = 0usize;
        let mut sent = 0usize;
        let mut lost_sends = 0usize;
        let mut on_file = |key: RawFileKey, text: String| {
            if dispatch(&mut senders, &mut next, (key, text)) {
                sent += 1;
            } else {
                lost_sends += 1;
            }
        };
        let value = produce(&mut on_file);
        drop(senders); // hang up: workers drain their queues and exit

        let mut failures = PoolFailures { files_lost: lost_sends, ..PoolFailures::default() };
        let mut received = 0usize;
        let mut acc = StreamAccumulator::new(consume_opts);
        let mut archive = RawArchive::new();
        for handle in handles {
            match handle.join() {
                Ok((worker_acc, kept, worker_received, panics)) => {
                    failures.worker_panics += panics;
                    received += worker_received;
                    acc = acc.absorb(worker_acc);
                    for (key, text) in kept {
                        archive.insert(key, text);
                    }
                }
                // Died outside the per-file guard; its partials (and
                // any queued files) are gone — counted via `received`.
                Err(_) => failures.worker_panics += 1,
            }
        }
        failures.files_lost += sent.saturating_sub(received);
        (value, acc, archive, failures)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::KeyMetric;

    fn tiny_dataset() -> MachineDataset {
        let cfg = ClusterConfig::ranger().scaled(24, 3);
        run_pipeline(cfg, &PipelineOptions::default())
    }

    #[test]
    fn pipeline_produces_consistent_artifacts() {
        let ds = tiny_dataset();
        assert!(ds.table.len() > 20, "jobs ingested: {}", ds.table.len());
        assert_eq!(ds.accounting.len(), ds.table.len() + ds.ingest_stats.jobs_missing_samples);
        assert!(ds.ingest_stats.parse_errors == 0);
        // Every ingested job's app resolved or absent, never bogus.
        for j in ds.table.jobs() {
            if let Some(app) = &j.app {
                assert!(ds.lariat.iter().any(|l| l.app_name == *app));
            }
        }
        // Raw archive volume in the right ballpark (paper: ~0.5 MB/node/day).
        let mb = ds.raw_mean_bytes_per_node_day / (1024.0 * 1024.0);
        assert!(mb > 0.05 && mb < 5.0, "{mb} MB/node/day");
    }

    #[test]
    fn table_metrics_are_physical() {
        let ds = tiny_dataset();
        for j in ds.table.jobs() {
            let idle = j.metrics.get(KeyMetric::CpuIdle);
            assert!((0.0..=1.0).contains(&idle), "idle {idle}");
            let mem = j.metrics.get(KeyMetric::MemUsed);
            assert!((0.0..=32.5e9).contains(&mem), "mem {mem}");
            let memmax = j.metrics.get(KeyMetric::MemUsedMax);
            assert!(memmax + 1.0 >= mem, "max {memmax} < mean {mem}");
        }
    }

    #[test]
    fn series_covers_the_simulated_span() {
        let ds = tiny_dataset();
        let last = ds.series.bins.last().unwrap();
        assert!(last.ts.0 >= 3 * 86_400 - 1200);
        // Active nodes never exceed the machine size.
        for bin in &ds.series.bins {
            assert!(bin.active_nodes <= 24);
        }
    }

    #[test]
    fn syslog_records_are_job_tagged_for_failures() {
        let ds = tiny_dataset();
        let failure_msgs: Vec<_> = ds
            .syslog
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    supremm_ratlog::EventCode::OomKill | supremm_ratlog::EventCode::SoftLockup
                )
            })
            .collect();
        if !failure_msgs.is_empty() {
            assert!(
                failure_msgs.iter().all(|r| r.job.is_some()),
                "failure messages must carry the job id"
            );
        }
    }

    #[test]
    fn drop_archive_option_saves_memory_but_keeps_stats() {
        let cfg = ClusterConfig::ranger().scaled(8, 1);
        let ds = run_pipeline(cfg, &PipelineOptions { keep_archive: false, ..Default::default() });
        assert!(ds.archive.is_empty());
        assert!(ds.raw_total_bytes > 0);
        assert!(!ds.table.is_empty());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let run = || {
            let ds = run_pipeline(
                ClusterConfig::ranger().scaled(12, 1),
                &PipelineOptions { keep_archive: false, ..Default::default() },
            );
            (ds.table.len(), ds.table.total_node_hours(), ds.accounting.len(), ds.syslog.len())
        };
        assert_eq!(run(), run());
    }

    /// The pooled, streamed ingest must be byte-identical to one
    /// `consume_archive` pass over the archive it kept: same ingest
    /// accounting, same job records, same series bins.
    #[test]
    fn pipeline_matches_consume_of_its_kept_archive_exactly() {
        let cfg = ClusterConfig::ranger().scaled(10, 2);
        let consume_opts = ConsumeOptions {
            bin_secs: Some(cfg.interval.seconds()),
            job_fragments: true,
            strict: false,
        };
        let ds = run_pipeline(cfg, &PipelineOptions::default());
        assert!(!ds.archive.is_empty());
        let acc = supremm_warehouse::consume_archive(&ds.archive, consume_opts);
        assert_eq!(ds.raw_total_bytes, acc.total_bytes());
        let want = acc.finish(&ds.accounting, &ds.lariat);
        assert_eq!(ds.ingest_stats, want.stats);
        assert_eq!(ds.table.jobs(), JobTable::new(want.records).jobs());
        assert_eq!(ds.series.bins, want.series.expect("binning requested").bins);
    }

    /// With `keep_archive: false`, streaming never materialises the
    /// archive — and losing the text loses no results.
    #[test]
    fn streaming_without_archive_is_lossless() {
        let cfg = || ClusterConfig::ranger().scaled(8, 2);
        let lean =
            run_pipeline(cfg(), &PipelineOptions { keep_archive: false, ..Default::default() });
        let full =
            run_pipeline(cfg(), &PipelineOptions { keep_archive: true, ..Default::default() });
        assert!(lean.archive.is_empty(), "keep_archive: false must not retain the archive");
        assert!(!full.archive.is_empty());
        assert_eq!(lean.ingest_stats, full.ingest_stats);
        assert_eq!(lean.raw_total_bytes, full.raw_total_bytes);
        assert_eq!(lean.series.bins, full.series.bins);
        assert_eq!(lean.table.len(), full.table.len());
    }

    /// The store-backed pipeline (flush through tsdb, read back) must be
    /// bit-identical to the in-memory path: same series bins, same job
    /// aggregates.
    #[test]
    fn store_backed_pipeline_matches_in_memory_exactly() {
        let cfg = || ClusterConfig::ranger().scaled(8, 2);
        let dir = std::env::temp_dir().join(format!("pipeline-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mem =
            run_pipeline(cfg(), &PipelineOptions { keep_archive: false, ..Default::default() });
        let stored = run_pipeline(
            cfg(),
            &PipelineOptions {
                keep_archive: false,
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        );
        assert_eq!(stored.series.bins, mem.series.bins, "series through the store");
        assert_eq!(stored.table.len(), mem.table.len());
        assert_eq!(
            stored.table.total_node_hours().to_bits(),
            mem.table.total_node_hours().to_bits(),
            "job aggregates must be bit-identical through the store"
        );
        // The store outlives the process: a fresh open sees the same data.
        let db = supremm_warehouse::tsdb::Tsdb::open(&dir.join("series")).unwrap();
        let series = supremm_warehouse::tsdbio::load_system_series(&db).unwrap();
        assert_eq!(series.bins, mem.series.bins);
        let table = JobTable::load(&dir.join("jobs.tsdb")).unwrap();
        assert_eq!(table.total_node_hours().to_bits(), mem.table.total_node_hours().to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The pool's output does not depend on how many workers split
    /// the files.
    #[test]
    fn pooled_ingest_is_independent_of_worker_count() {
        let ds = run_pipeline(ClusterConfig::ranger().scaled(6, 1), &PipelineOptions::default());
        let opts = ConsumeOptions { bin_secs: Some(600), job_fragments: true, strict: false };
        let met = PipelineMetrics::new(&supremm_obs::ObsRegistry::new());
        let run = |workers: usize| {
            let ((), acc, _, failures) = pooled_ingest(opts, workers, false, &met, |on_file| {
                for (key, text) in ds.archive.iter() {
                    on_file(*key, text.to_string());
                }
            });
            assert_eq!(failures, PoolFailures::default());
            acc.finish(&ds.accounting, &ds.lariat)
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.stats, four.stats);
        assert_eq!(one.records, four.records);
        assert_eq!(one.series.expect("binned").bins, four.series.expect("binned").bins);
        assert_eq!(one.stats, ds.ingest_stats);
    }

    #[test]
    fn worker_panic_quarantines_file_and_pool_survives() {
        let opts = ConsumeOptions { bin_secs: Some(600), job_fragments: true, strict: false };
        let key = |h: u32| RawFileKey { host: HostId(h), day: 7 };
        let texts: Vec<String> = (0..8u32)
            .map(|h| {
                if h == 3 {
                    format!("junk file {h}\n{INJECTED_PANIC_MARKER}\n")
                } else {
                    format!("junk file {h}\n")
                }
            })
            .collect();

        let obs = supremm_obs::ObsRegistry::new();
        let met = PipelineMetrics::new(&obs);
        let ((), acc, _archive, failures) = pooled_ingest(opts, 4, false, &met, |on_file| {
            for (h, text) in texts.iter().enumerate() {
                on_file(key(h as u32), text.clone());
            }
        });
        assert_eq!(failures.worker_panics, 1, "exactly the marked file panicked");
        assert_eq!(failures.files_lost, 0, "the pool lost nothing");
        assert_eq!(acc.files(), 8, "every file has a partial, panicked one included");

        // The pool's output matches a serial pass that quarantines the
        // panicking file by hand.
        let mut expect = StreamAccumulator::new(opts);
        for (h, text) in texts.iter().enumerate() {
            if h == 3 {
                expect.quarantine(key(3), text.len() as u64);
            } else {
                expect.consume(key(h as u32), text);
            }
        }
        let got = acc.finish(&[], &[]);
        let want = expect.finish(&[], &[]);
        assert_eq!(got.stats, want.stats);
        assert!(got.stats.conservation_holds());
        assert_eq!(got.stats.parse_errors, 8, "all junk: 7 rejected parses + 1 quarantined");

        // The obs registry saw every file and byte the pool consumed.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("pipeline_files_consumed_total"), Some(8));
        let total: u64 = texts.iter().map(|t| t.len() as u64).sum();
        assert_eq!(snap.counter("pipeline_bytes_consumed_total"), Some(total));
    }

    #[test]
    fn pipeline_reports_into_an_isolated_registry() {
        use std::sync::Arc;
        let obs = Arc::new(supremm_obs::ObsRegistry::new());
        let cfg = ClusterConfig::ranger().scaled(8, 1);
        let ds =
            run_pipeline(cfg, &PipelineOptions { obs: Some(obs.clone()), ..Default::default() });
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("pipeline_files_consumed_total"),
            Some(ds.ingest_stats.files as u64)
        );
        assert_eq!(snap.counter("pipeline_bytes_consumed_total"), Some(ds.raw_total_bytes));
        assert_eq!(
            snap.counter("pipeline_records_total"),
            Some(ds.ingest_stats.records_seen as u64)
        );
        assert_eq!(snap.counter("pipeline_worker_panics_total"), Some(0));
        assert!(snap
            .histogram("pipeline_stage_micros{stage=\"collect_ingest\"}")
            .is_some_and(|h| h.count == 1 && h.sum > 0));
        // No stage is registered that the pipeline never observes (an
        // always-empty series would read as a stalled stage).
        for dead in ["collect", "ingest"] {
            let name = format!("pipeline_stage_micros{{stage=\"{dead}\"}}");
            assert!(snap.histogram(&name).is_none(), "{name} still registered");
        }
    }
}
