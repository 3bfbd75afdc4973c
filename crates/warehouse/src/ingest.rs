//! The ingest pipeline: raw files + accounting + Lariat → job records.
//!
//! Parallelises over raw files (hosts × days are independent) through
//! the single-pass [`crate::streaming`] layer, then joins per-job
//! fragments across hosts and against the accounting/Lariat sources.
//! Design decision 3 of DESIGN.md: samples are matched to jobs by the
//! *job-id tags in the raw data* (TACC_Stats' batch-job awareness), not
//! by time-window joins against the accounting log — the ablation bench
//! measures what that buys.

use std::collections::BTreeMap;

use supremm_metrics::metric::KeyMetricVec;
use supremm_metrics::{ExtendedMetric, JobId, KeyMetric};
use supremm_ratlog::accounting::AccountingRecord;
use supremm_ratlog::lariat::LariatRecord;
use supremm_taccstats::IntervalMetrics;
use supremm_taccstats::RawArchive;

use crate::record::{ExitKind, JobRecord};
use crate::streaming::{consume_archive, ConsumeOptions};

/// Per-job accumulation of interval metrics (one fragment per host file;
/// fragments merge associatively).
#[derive(Debug, Clone, Default)]
pub(crate) struct JobFragment {
    /// Sum of each extended metric over intervals.
    sums: [f64; ExtendedMetric::ALL.len()],
    /// Observed memory maximum (bytes).
    mem_max: f64,
    intervals: u32,
    flops_invalid: u32,
    /// Corrupt-region coverage gaps charged to this job (lenient scans).
    pub(crate) gaps: u32,
}

impl JobFragment {
    /// Fold one interval into the fragment.
    pub(crate) fn absorb(&mut self, m: &IntervalMetrics) {
        for em in ExtendedMetric::ALL {
            self.sums[em.index()] += m.get(em);
        }
        self.mem_max = self.mem_max.max(m.get(ExtendedMetric::MemUsed));
        self.intervals += 1;
        if !m.flops_valid {
            self.flops_invalid += 1;
        }
    }

    pub(crate) fn merge(&mut self, other: &JobFragment) {
        for (a, b) in self.sums.iter_mut().zip(other.sums) {
            *a += b;
        }
        self.mem_max = self.mem_max.max(other.mem_max);
        self.intervals += other.intervals;
        self.flops_invalid += other.flops_invalid;
        self.gaps += other.gaps;
    }

    pub(crate) fn add_gaps(&mut self, n: u32) {
        self.gaps += n;
    }
}

/// Pipeline accounting, reported alongside the records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    pub files: usize,
    pub parse_errors: usize,
    pub records: usize,
    pub intervals: usize,
    /// Jobs with both samples and an accounting record.
    pub jobs: usize,
    /// Jobs seen in raw data with no accounting record (lost log lines).
    pub jobs_missing_accounting: usize,
    /// Accounted jobs with no usable samples (mostly shorter than the
    /// sampling interval — the paper excludes these from analysis too).
    pub jobs_missing_samples: usize,
    /// Records whose `T` line parsed, whether or not they survived.
    /// Conservation: `records_seen == records + samples_quarantined`.
    pub records_seen: usize,
    /// Records torn by corruption and discarded by the lenient scanner.
    pub samples_quarantined: usize,
    /// Bytes attributed to corrupt lines/regions (includes every byte
    /// of files rejected outright).
    pub bytes_quarantined: u64,
    /// Contiguous corrupt regions across all files — the archive-wide
    /// coverage-gap count.
    pub gaps: usize,
    /// Ingest worker threads that panicked mid-file (the file is
    /// quarantined whole and the pool keeps running).
    pub worker_panics: usize,
    /// Files handed to the ingest pool that never produced a partial —
    /// a send that found every worker dead, or a worker that died with
    /// files still queued. Always 0 on a healthy run.
    pub files_lost: usize,
}

impl IngestStats {
    /// The quarantine conservation invariant: every record the scanner
    /// accepted a `T` line for was either ingested or quarantined.
    pub fn conservation_holds(&self) -> bool {
        self.records_seen == self.records + self.samples_quarantined
    }
}

/// Run the full ingest: parse every raw file in parallel (one pass per
/// file), merge job fragments, join with accounting + Lariat.
pub fn ingest(
    archive: &RawArchive,
    accounting: &[AccountingRecord],
    lariat: &[LariatRecord],
) -> (Vec<JobRecord>, IngestStats) {
    let opts = ConsumeOptions { bin_secs: None, job_fragments: true, strict: false };
    let out = consume_archive(archive, opts).finish(accounting, lariat);
    (out.records, out.stats)
}

/// Join merged per-job fragments against the accounting and Lariat
/// logs. Shared tail of every ingest path; fills the job-level fields
/// of `stats`.
pub(crate) fn assemble_jobs(
    mut jobs: BTreeMap<JobId, JobFragment>,
    accounting: &[AccountingRecord],
    lariat: &[LariatRecord],
    stats: &mut IngestStats,
) -> Vec<JobRecord> {
    let lariat_by_job: BTreeMap<JobId, &LariatRecord> = lariat.iter().map(|l| (l.job, l)).collect();
    let mut seen_in_raw = jobs.len();

    let mut records = Vec::with_capacity(accounting.len());
    for acct in accounting {
        let Some(frag) = jobs.remove(&acct.job) else {
            stats.jobs_missing_samples += 1;
            continue;
        };
        seen_in_raw -= 1;
        let n = frag.intervals.max(1) as f64;
        let mut extended = [0.0; ExtendedMetric::ALL.len()];
        for (dst, sum) in extended.iter_mut().zip(frag.sums) {
            *dst = sum / n;
        }
        let mut metrics = KeyMetricVec::default();
        for km in KeyMetric::ALL {
            let em = ExtendedMetric::ALL
                .into_iter()
                .find(|e| e.as_key() == Some(km))
                .expect("every key metric has an extended twin");
            metrics.set(km, extended[em.index()]);
        }
        metrics.set(KeyMetric::MemUsedMax, frag.mem_max);

        let app = lariat_by_job
            .get(&acct.job)
            .and_then(|l| supremm_ratlog::lariat::app_for_exe(&l.exe))
            .map(str::to_string);

        records.push(JobRecord {
            job: acct.job,
            user: acct.owner,
            app,
            science: acct.account,
            queue: acct.queue.clone(),
            submit: acct.submit,
            start: acct.start,
            end: acct.end,
            nodes: acct.nodes,
            exit: ExitKind::from_failed_code(acct.failed),
            metrics,
            extended,
            flops_valid: frag.flops_invalid == 0,
            samples: frag.intervals,
            coverage_gaps: frag.gaps,
        });
    }
    stats.jobs = records.len();
    stats.jobs_missing_accounting = seen_in_raw;
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::{HostId, ScienceField, Timestamp, UserId};
    use supremm_procsim::{KernelState, NodeActivity, NodeSpec};
    use supremm_taccstats::archive::RawFileKey;
    use supremm_taccstats::Collector;

    /// Run one two-node job through real collectors and ingest it.
    fn collect_job(job: JobId, idle_act: bool) -> RawArchive {
        let mut archive = RawArchive::new();
        for host in 0..2u32 {
            let mut kernel = KernelState::new(NodeSpec::ranger());
            let mut c = Collector::new(HostId(host));
            let mut ts = Timestamp(600);
            c.begin_job(&mut kernel, job, ts);
            let act = if idle_act {
                NodeActivity::idle()
            } else {
                NodeActivity {
                    user_frac: 0.85,
                    flops: 4.0e9 * 600.0 * 16.0,
                    mem_used_bytes: 9 << 30,
                    scratch_write_bytes: 300 << 20,
                    ib_tx_bytes: 2 << 30,
                    ..NodeActivity::idle()
                }
            };
            for _ in 0..5 {
                kernel.advance(&act, 600.0);
                ts = ts + supremm_metrics::Duration(600);
                c.sample(&kernel, ts);
            }
            c.end_job(&mut kernel, job, ts);
            for (k, text) in c.into_files() {
                archive.insert(k, text);
            }
        }
        archive
    }

    fn acct(job: JobId) -> AccountingRecord {
        AccountingRecord {
            queue: "normal".into(),
            owner: UserId(7),
            job,
            account: ScienceField::Physics,
            submit: Timestamp(0),
            start: Timestamp(600),
            end: Timestamp(3600),
            failed: 0,
            exit_status: 0,
            nodes: 2,
            slots: 32,
            hosts: vec![HostId(0), HostId(1)],
        }
    }

    fn lariat(job: JobId) -> LariatRecord {
        LariatRecord {
            job,
            user: UserId(7),
            exe: "namd2".into(),
            app_name: "NAMD".into(),
            nodes: 2,
            threads_per_rank: 1,
            libraries: vec![],
        }
    }

    #[test]
    fn end_to_end_job_assembly() {
        let archive = collect_job(JobId(42), false);
        let (records, stats) = ingest(&archive, &[acct(JobId(42))], &[lariat(JobId(42))]);
        assert_eq!(records.len(), 1);
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.parse_errors, 0);
        let r = &records[0];
        assert_eq!(r.user, UserId(7));
        assert_eq!(r.app.as_deref(), Some("NAMD"));
        assert_eq!(r.nodes, 2);
        assert!(r.flops_valid);
        // 2 hosts × 5 intervals (begin sample + 5 periodic, paired).
        assert_eq!(r.samples, 10);
        // Derived means are sane.
        let idle = r.metrics.get(KeyMetric::CpuIdle);
        assert!(idle < 0.2, "{idle}");
        let flops = r.metrics.get(KeyMetric::CpuFlops);
        assert!((flops / (4.0e9 * 16.0) - 1.0).abs() < 0.05, "{flops}");
        let memmax = r.metrics.get(KeyMetric::MemUsedMax);
        assert!(memmax > 8.9e9, "{memmax}");
    }

    #[test]
    fn job_without_accounting_is_counted_not_invented() {
        let archive = collect_job(JobId(42), false);
        let (records, stats) = ingest(&archive, &[], &[]);
        assert!(records.is_empty());
        assert_eq!(stats.jobs_missing_accounting, 1);
    }

    #[test]
    fn accounting_without_samples_is_counted() {
        let archive = RawArchive::new();
        let (records, stats) = ingest(&archive, &[acct(JobId(1))], &[]);
        assert!(records.is_empty());
        assert_eq!(stats.jobs_missing_samples, 1);
    }

    #[test]
    fn missing_lariat_means_unknown_app() {
        let archive = collect_job(JobId(9), false);
        let (records, _) = ingest(&archive, &[acct(JobId(9))], &[]);
        assert_eq!(records[0].app, None);
    }

    #[test]
    fn corrupt_file_is_isolated() {
        let mut archive = collect_job(JobId(3), false);
        archive.insert(
            RawFileKey { host: HostId(99), day: 0 },
            "total garbage\nnot a file".to_string(),
        );
        let (records, stats) = ingest(&archive, &[acct(JobId(3))], &[]);
        assert_eq!(records.len(), 1);
        assert_eq!(stats.parse_errors, 1);
    }

    #[test]
    fn idle_job_has_high_cpu_idle() {
        let archive = collect_job(JobId(4), true);
        let (records, _) = ingest(&archive, &[acct(JobId(4))], &[]);
        assert!(records[0].metrics.get(KeyMetric::CpuIdle) > 0.95);
    }
}
