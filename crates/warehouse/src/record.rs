//! The assembled per-job record.

use supremm_metrics::metric::KeyMetricVec;
use supremm_metrics::{ExtendedMetric, JobId, ScienceField, Timestamp, UserId};

/// Job termination classification, decoded from the accounting `failed`
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitKind {
    Completed,
    Failed,
    NodeFailure,
    Cancelled,
}

impl ExitKind {
    /// Decode the SGE-style `failed` code used by the accounting log.
    pub fn from_failed_code(code: u32) -> ExitKind {
        match code {
            0 => ExitKind::Completed,
            19 => ExitKind::NodeFailure,
            100 => ExitKind::Cancelled,
            _ => ExitKind::Failed,
        }
    }

    pub fn to_failed_code(self) -> u32 {
        match self {
            ExitKind::Completed => 0,
            ExitKind::Failed => 1,
            ExitKind::NodeFailure => 19,
            ExitKind::Cancelled => 100,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ExitKind::Completed => "completed",
            ExitKind::Failed => "failed",
            ExitKind::NodeFailure => "node_failure",
            ExitKind::Cancelled => "cancelled",
        }
    }
}

/// One job with everything the reports need: identity and timing from
/// accounting, application from Lariat, resource metrics from TACC_Stats.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    pub job: JobId,
    pub user: UserId,
    /// Canonical application name from Lariat; `None` when Lariat saw an
    /// unrecognised executable.
    pub app: Option<String>,
    pub science: ScienceField,
    pub queue: String,
    pub submit: Timestamp,
    pub start: Timestamp,
    pub end: Timestamp,
    pub nodes: u32,
    pub exit: ExitKind,
    /// Mean values of the eight key metrics over the job's node-intervals
    /// (`MemUsedMax` holds the observed maximum instead).
    pub metrics: KeyMetricVec,
    /// Mean values of the full measured metric set.
    pub extended: [f64; ExtendedMetric::ALL.len()],
    /// False when any interval's FLOPS reading was invalidated by user
    /// counter reprogramming.
    pub flops_valid: bool,
    /// Node-interval observations behind the means.
    pub samples: u32,
    /// Corrupt-region coverage gaps in this job's raw data (lenient
    /// ingest only; always 0 on clean archives or strict scans).
    pub coverage_gaps: u32,
}

impl JobRecord {
    pub fn wall_secs(&self) -> u64 {
        self.end.since(self.start).seconds()
    }

    pub fn node_hours(&self) -> f64 {
        self.wall_secs() as f64 / 3600.0 * self.nodes as f64
    }

    pub fn extended_get(&self, m: ExtendedMetric) -> f64 {
        self.extended[m.index()]
    }

    /// Wait time in the queue.
    pub fn wait_secs(&self) -> u64 {
        self.start.since(self.submit).seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::KeyMetric;

    pub(crate) fn sample_record() -> JobRecord {
        let mut metrics = KeyMetricVec::default();
        metrics.set(KeyMetric::CpuIdle, 0.12);
        JobRecord {
            job: JobId(5),
            user: UserId(2),
            app: Some("NAMD".into()),
            science: ScienceField::MolecularBiosciences,
            queue: "normal".into(),
            submit: Timestamp(0),
            start: Timestamp(3600),
            end: Timestamp(3600 * 5),
            nodes: 8,
            exit: ExitKind::Completed,
            metrics,
            extended: [0.0; ExtendedMetric::ALL.len()],
            flops_valid: true,
            samples: 24,
            coverage_gaps: 0,
        }
    }

    #[test]
    fn derived_times() {
        let r = sample_record();
        assert_eq!(r.wall_secs(), 4 * 3600);
        assert_eq!(r.node_hours(), 32.0);
        assert_eq!(r.wait_secs(), 3600);
    }

    #[test]
    fn failed_code_round_trip() {
        for kind in
            [ExitKind::Completed, ExitKind::Failed, ExitKind::NodeFailure, ExitKind::Cancelled]
        {
            assert_eq!(ExitKind::from_failed_code(kind.to_failed_code()), kind);
        }
        // Unknown nonzero codes are generic failures.
        assert_eq!(ExitKind::from_failed_code(7), ExitKind::Failed);
    }
}
