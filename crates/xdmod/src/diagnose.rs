//! ANCOR-style fault diagnosis: link resource-usage anomalies with
//! system failures from cluster log data.
//!
//! §4.3.4 of the paper points to the ANCOR tool \[26\] ("Linking Resource
//! Usage Anomalies with System Failures from Cluster Log Data"), which
//! "combines TACC_Stats data with rationalized logs to generate analyses
//! and reports which diagnose the possible causes of system faults and
//! failures". This module implements that linkage: for every abnormally
//! terminated job, the rationalized syslog records tagged with its job id
//! are combined with the job's own resource metrics to classify the
//! probable cause — and to corroborate or contradict the log evidence
//! (an OOM kill *with* near-capacity `mem_used_max` is a confident
//! memory-exhaustion diagnosis; one without is suspicious).

use std::collections::BTreeMap;

use supremm_metrics::{JobId, KeyMetric};
use supremm_ratlog::{EventCode, RatRecord};
use supremm_warehouse::record::ExitKind;
use supremm_warehouse::{JobRecord, JobTable};

/// Probable cause of an abnormal job termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cause {
    /// OOM-killer fired; corroborated when the job's memory maximum
    /// approached node capacity.
    MemoryExhaustion,
    /// Soft lockup — the §4.3.1 "node-level hangups" precursor.
    NodeHang,
    /// Lustre/filesystem errors around the failure.
    FilesystemFault,
    /// Machine-check (hardware) events.
    HardwareError,
    /// Scheduler killed the job at its wallclock limit.
    WallclockKill,
    /// The node(s) went down under the job (outage, power, fabric).
    NodeFailure,
    /// User-initiated cancellation.
    UserCancelled,
    /// Abnormal exit with no log evidence.
    Unexplained,
}

impl Cause {
    pub fn name(self) -> &'static str {
        match self {
            Cause::MemoryExhaustion => "memory_exhaustion",
            Cause::NodeHang => "node_hang",
            Cause::FilesystemFault => "filesystem_fault",
            Cause::HardwareError => "hardware_error",
            Cause::WallclockKill => "wallclock_kill",
            Cause::NodeFailure => "node_failure",
            Cause::UserCancelled => "user_cancelled",
            Cause::Unexplained => "unexplained",
        }
    }
}

/// One diagnosed job.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    pub job: JobId,
    pub exit: ExitKind,
    pub cause: Cause,
    /// Log events found for this job, by kind.
    pub evidence: Vec<(EventCode, usize)>,
    /// Whether the job's own metrics corroborate the log evidence
    /// (e.g. OOM + memory near capacity, lockup + high idle tail).
    pub metrics_corroborate: bool,
    /// Human-readable one-liner.
    pub note: String,
}

fn classify(
    job: &JobRecord,
    events: &BTreeMap<EventCode, usize>,
    mem_capacity: f64,
) -> (Cause, bool, String) {
    let mem_max_frac = job.metrics.get(KeyMetric::MemUsedMax) / mem_capacity;
    let idle = job.metrics.get(KeyMetric::CpuIdle);
    if events.contains_key(&EventCode::OomKill) {
        let corroborated = mem_max_frac > 0.85;
        return (
            Cause::MemoryExhaustion,
            corroborated,
            format!(
                "OOM kill in logs; job peaked at {:.0}% of node memory{}",
                mem_max_frac * 100.0,
                if corroborated { "" } else { " — log/metric mismatch, inspect the node" }
            ),
        );
    }
    if events.contains_key(&EventCode::SoftLockup) {
        return (
            Cause::NodeHang,
            idle > 0.3,
            format!("soft lockup in logs; job idle fraction {:.0}%", idle * 100.0),
        );
    }
    if events.contains_key(&EventCode::NodeDown) || job.exit == ExitKind::NodeFailure {
        let fs = events.contains_key(&EventCode::LustreError);
        return (
            Cause::NodeFailure,
            true,
            if fs {
                "node(s) went down with Lustre errors — fabric or storage-side fault".to_string()
            } else {
                "node(s) went down under the job".to_string()
            },
        );
    }
    if events.contains_key(&EventCode::WallclockExceeded) || job.exit == ExitKind::Cancelled {
        let kind = if events.contains_key(&EventCode::WallclockExceeded) {
            Cause::WallclockKill
        } else {
            Cause::UserCancelled
        };
        return (kind, true, "terminated by scheduler/user, not a fault".to_string());
    }
    if events.contains_key(&EventCode::LustreError) || events.contains_key(&EventCode::FsError) {
        return (Cause::FilesystemFault, true, "filesystem errors during the job".to_string());
    }
    if events.contains_key(&EventCode::MceError) {
        return (Cause::HardwareError, true, "machine-check events during the job".to_string());
    }
    (
        Cause::Unexplained,
        false,
        format!(
            "no log evidence; job idle {:.0}%, mem peak {:.0}%",
            idle * 100.0,
            mem_max_frac * 100.0
        ),
    )
}

/// Diagnose every abnormally terminated job in the table against the
/// rationalized syslog.
pub fn diagnose_failures(
    table: &JobTable,
    syslog: &[RatRecord],
    mem_capacity_bytes: f64,
) -> Vec<Diagnosis> {
    // Index log events by job.
    let mut by_job: BTreeMap<JobId, BTreeMap<EventCode, usize>> = BTreeMap::new();
    for rec in syslog {
        if let Some(job) = rec.job {
            *by_job.entry(job).or_default().entry(rec.event).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    for job in table.jobs() {
        if job.exit == ExitKind::Completed {
            continue;
        }
        let empty = BTreeMap::new();
        let events = by_job.get(&job.job).unwrap_or(&empty);
        let (cause, corroborated, note) = classify(job, events, mem_capacity_bytes);
        out.push(Diagnosis {
            job: job.job,
            exit: job.exit,
            cause,
            evidence: events.iter().map(|(&e, &n)| (e, n)).collect(),
            metrics_corroborate: corroborated,
            note,
        });
    }
    out
}

/// Aggregate view: failure counts per cause (the §4.3.1 "job completion
/// failure profile").
pub fn failure_profile(diagnoses: &[Diagnosis]) -> Vec<(Cause, usize)> {
    let mut counts: BTreeMap<Cause, usize> = BTreeMap::new();
    for d in diagnoses {
        *counts.entry(d.cause).or_default() += 1;
    }
    let mut v: Vec<(Cause, usize)> = counts.into_iter().collect();
    v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    v
}

/// Render the self-observability side of a diagnosis from the obs
/// event log: slow queries, and retention passes that grew a rollup
/// level by more than the raw segments they dropped. Empty string when
/// there is nothing to report, so callers can print it unconditionally.
pub fn obs_report(snap: &supremm_obs::Snapshot) -> String {
    use std::fmt::Write as _;
    const KINDS: [(&str, &str); 2] = [
        ("slow_query", "slow quer(y/ies)"),
        ("retention.rollup_larger_than_raw", "rollup level(s) grown past the raw they replaced"),
    ];
    let mut out = String::new();
    for (kind, heading) in KINDS {
        let events: Vec<_> = snap.events.iter().filter(|e| e.kind == kind).collect();
        if !events.is_empty() {
            let _ = writeln!(out, "{} {heading}:", events.len());
            for e in &events {
                let _ = writeln!(out, "  {}", e.detail);
            }
        }
    }
    if snap.events_dropped > 0 {
        let _ = writeln!(
            out,
            "  ({} older event(s) evicted from the ring buffer)",
            snap.events_dropped
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::metric::KeyMetricVec;
    use supremm_metrics::{ExtendedMetric, HostId, ScienceField, Timestamp, UserId};
    use supremm_ratlog::Severity;

    const CAP: f64 = 32.0 * 1.073_741_824e9;

    fn job(id: u64, exit: ExitKind, mem_max_frac: f64, idle: f64) -> JobRecord {
        let mut metrics = KeyMetricVec::default();
        metrics.set(KeyMetric::MemUsedMax, mem_max_frac * CAP);
        metrics.set(KeyMetric::CpuIdle, idle);
        JobRecord {
            job: JobId(id),
            user: UserId(1),
            app: None,
            science: ScienceField::Physics,
            queue: "normal".into(),
            submit: Timestamp(0),
            start: Timestamp(0),
            end: Timestamp(3600),
            nodes: 2,
            exit,
            metrics,
            extended: [0.0; ExtendedMetric::ALL.len()],
            flops_valid: true,
            samples: 5,
            coverage_gaps: 0,
        }
    }

    fn log(job: u64, event: EventCode) -> RatRecord {
        RatRecord {
            ts: Timestamp(1800),
            host: HostId(0),
            job: Some(JobId(job)),
            severity: Severity::Critical,
            event,
            component: "kernel".into(),
            message: "x".into(),
        }
    }

    #[test]
    fn oom_with_full_memory_is_corroborated_exhaustion() {
        let table = JobTable::new(vec![job(1, ExitKind::Failed, 0.97, 0.1)]);
        let logs = vec![log(1, EventCode::OomKill)];
        let d = diagnose_failures(&table, &logs, CAP);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cause, Cause::MemoryExhaustion);
        assert!(d[0].metrics_corroborate);
    }

    #[test]
    fn oom_with_low_memory_is_flagged_as_mismatch() {
        let table = JobTable::new(vec![job(1, ExitKind::Failed, 0.2, 0.1)]);
        let logs = vec![log(1, EventCode::OomKill)];
        let d = diagnose_failures(&table, &logs, CAP);
        assert_eq!(d[0].cause, Cause::MemoryExhaustion);
        assert!(!d[0].metrics_corroborate);
        assert!(d[0].note.contains("mismatch"));
    }

    #[test]
    fn lockup_classifies_as_hang() {
        let table = JobTable::new(vec![job(2, ExitKind::Failed, 0.3, 0.6)]);
        let logs = vec![log(2, EventCode::SoftLockup)];
        let d = diagnose_failures(&table, &logs, CAP);
        assert_eq!(d[0].cause, Cause::NodeHang);
        assert!(d[0].metrics_corroborate);
    }

    #[test]
    fn node_failure_without_logs_still_classified() {
        let table = JobTable::new(vec![job(3, ExitKind::NodeFailure, 0.3, 0.1)]);
        let d = diagnose_failures(&table, &[], CAP);
        assert_eq!(d[0].cause, Cause::NodeFailure);
    }

    #[test]
    fn no_evidence_is_unexplained_and_completed_jobs_skipped() {
        let table = JobTable::new(vec![
            job(4, ExitKind::Failed, 0.3, 0.1),
            job(5, ExitKind::Completed, 0.3, 0.1),
        ]);
        let d = diagnose_failures(&table, &[], CAP);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].cause, Cause::Unexplained);
        assert!(!d[0].metrics_corroborate);
    }

    #[test]
    fn cancelled_jobs_are_not_faults() {
        let table = JobTable::new(vec![job(6, ExitKind::Cancelled, 0.3, 0.1)]);
        let d = diagnose_failures(&table, &[], CAP);
        assert_eq!(d[0].cause, Cause::UserCancelled);
        let with_wallclock =
            diagnose_failures(&table, &[log(6, EventCode::WallclockExceeded)], CAP);
        assert_eq!(with_wallclock[0].cause, Cause::WallclockKill);
    }

    #[test]
    fn profile_orders_causes_by_count() {
        let table = JobTable::new(vec![
            job(1, ExitKind::Failed, 0.95, 0.1),
            job(2, ExitKind::Failed, 0.95, 0.1),
            job(3, ExitKind::NodeFailure, 0.3, 0.1),
        ]);
        let logs = vec![log(1, EventCode::OomKill), log(2, EventCode::OomKill)];
        let d = diagnose_failures(&table, &logs, CAP);
        let profile = failure_profile(&d);
        assert_eq!(profile[0], (Cause::MemoryExhaustion, 2));
        assert_eq!(profile[1], (Cause::NodeFailure, 1));
    }

    #[test]
    fn obs_report_surfaces_slow_queries() {
        let obs = supremm_obs::ObsRegistry::new();
        assert_eq!(obs_report(&obs.snapshot()), "");
        obs.event("slow_query", "/v1/series?name=cpu_user took 250000us (status 200)");
        obs.event("info", "not interesting");
        let report = obs_report(&obs.snapshot());
        assert!(report.contains("1 slow quer(y/ies):"));
        assert!(report.contains("250000us"));
        assert!(!report.contains("not interesting"));
        assert!(!report.contains("rollup"));
    }

    #[test]
    fn obs_report_surfaces_rollup_levels_larger_than_the_raw_they_replaced() {
        let obs = supremm_obs::ObsRegistry::new();
        let detail = "level 1: 596 bins grew it by 9000 B, more than the 4000 B of raw \
                      segments the pass dropped";
        obs.event("retention.rollup_larger_than_raw", detail);
        obs.event("slow_query", "/v1/series took 250000us (status 200)");
        let report = obs_report(&obs.snapshot());
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(
            lines,
            [
                "1 slow quer(y/ies):",
                "  /v1/series took 250000us (status 200)",
                "1 rollup level(s) grown past the raw they replaced:",
                &format!("  {detail}"),
            ]
        );
    }
}
