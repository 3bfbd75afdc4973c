//! The periodic auditor: run the suite on a cadence, learn baselines,
//! detect changes, implicate subsystems.

use supremm_analytics::control::{cusum, Baseline, Detection};
use supremm_metrics::{Duration, JobId, Timestamp};
use supremm_procsim::NodeSpec;

use crate::health::{HealthTimeline, Subsystem};
use crate::kernels::{standard_suite, AppKernel};
use crate::runner::{run_kernel, KernelRun};

/// Auditing parameters.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Hours between suite executions (XDMoD typically runs kernels a few
    /// times per day).
    pub cadence_hours: u64,
    /// Runs used to learn each kernel's baseline.
    pub baseline_runs: usize,
    /// CUSUM allowance and threshold, in σ units.
    pub cusum_k: f64,
    pub cusum_h: f64,
    /// Multiplicative measurement jitter applied to scores (real kernels
    /// vary run to run from placement and contention).
    pub noise: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig { cadence_hours: 6, baseline_runs: 12, cusum_k: 0.5, cusum_h: 5.0, noise: 0.01 }
    }
}

/// A flagged kernel: where the alarm fired and what it implicates.
#[derive(Debug, Clone)]
pub struct Alarm {
    pub kernel: &'static str,
    pub implicates: Subsystem,
    pub detection: Detection,
    /// Timestamp of the alarming run.
    pub at: Timestamp,
    /// Score level relative to baseline at the alarm.
    pub level_vs_baseline: f64,
}

/// The audit outcome.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Per kernel: its full score series.
    pub series: Vec<(&'static str, Vec<KernelRun>)>,
    pub alarms: Vec<Alarm>,
}

impl AuditReport {
    /// Subsystems implicated by at least one alarm.
    pub fn implicated(&self) -> Vec<Subsystem> {
        let mut v: Vec<Subsystem> = self.alarms.iter().map(|a| a.implicates).collect();
        v.sort();
        v.dedup();
        v
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, runs) in &self.series {
            let scores: Vec<f64> = runs.iter().filter_map(|r| r.score).collect();
            let mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
            out.push_str(&format!("{name:<14} {} runs, mean score {mean:.2}\n", runs.len()));
        }
        if self.alarms.is_empty() {
            out.push_str("no alarms\n");
        }
        for a in &self.alarms {
            out.push_str(&format!(
                "ALARM {}: implicates {} at t={} min ({:+.0}% vs baseline)\n",
                a.kernel,
                a.implicates.name(),
                a.at.minutes(),
                (a.level_vs_baseline - 1.0) * 100.0
            ));
        }
        out
    }
}

/// The auditor itself.
pub struct Auditor {
    pub suite: Vec<AppKernel>,
    pub cfg: AuditConfig,
}

impl Auditor {
    pub fn new(cfg: AuditConfig) -> Auditor {
        Auditor { suite: standard_suite(), cfg }
    }

    /// Audit a node over `days`, with the given health timeline in effect.
    pub fn audit(&self, spec: &NodeSpec, timeline: &HealthTimeline, days: u64) -> AuditReport {
        let cadence = Duration::from_hours(self.cadence_hours_checked());
        let total_runs = (days * 24 / self.cfg.cadence_hours.max(1)) as usize;
        let mut series: Vec<(&'static str, Vec<KernelRun>)> =
            self.suite.iter().map(|k| (k.name, Vec::with_capacity(total_runs))).collect();
        let mut job = 1u64;
        let mut ts = Timestamp(600);
        for run_idx in 0..total_runs {
            let health = timeline.health_at(ts);
            for (kernel, (_, runs)) in self.suite.iter().zip(series.iter_mut()) {
                let mut run = run_kernel(kernel, spec, health, ts, JobId(job));
                job += 1;
                // Deterministic per-run jitter (placement/contention).
                if let Some(s) = run.score.as_mut() {
                    let h = (run_idx as u64 + 1)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(kernel.name.len() as u64);
                    let jitter = ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 2.0;
                    *s *= 1.0 + self.cfg.noise * jitter;
                }
                runs.push(run);
            }
            ts = ts + cadence;
        }

        // Detection per kernel.
        let mut alarms = Vec::new();
        for ((name, runs), kernel) in series.iter().zip(&self.suite) {
            let scores: Vec<f64> = runs.iter().map(|r| r.score.unwrap_or(0.0)).collect();
            let Some(baseline) = Baseline::learn(&scores, self.cfg.baseline_runs) else {
                continue;
            };
            if let Some(det) = cusum(&scores, baseline, self.cfg.cusum_k, self.cfg.cusum_h) {
                alarms.push(Alarm {
                    kernel: name,
                    implicates: kernel.probes,
                    detection: det,
                    at: runs[det.at].ts,
                    level_vs_baseline: scores[det.at] / baseline.mean,
                });
            }
        }
        AuditReport { series, alarms }
    }

    fn cadence_hours_checked(&self) -> u64 {
        self.cfg.cadence_hours.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{DegradationEvent, NodeHealth};

    fn throttle_at_day(day: u64, subsystem: Subsystem, factor: f64) -> HealthTimeline {
        HealthTimeline::new(vec![DegradationEvent {
            at: Timestamp(day * 86_400),
            subsystem,
            factor,
        }])
    }

    #[test]
    fn healthy_machine_raises_no_alarms() {
        let report = Auditor::new(AuditConfig::default()).audit(
            &NodeSpec::ranger(),
            &HealthTimeline::healthy(),
            20,
        );
        assert!(report.alarms.is_empty(), "{}", report.render());
        assert_eq!(report.series.len(), 4);
        for (name, runs) in &report.series {
            assert_eq!(runs.len(), 80, "{name}");
            assert!(runs.iter().all(|r| r.score.is_some()), "{name}");
        }
    }

    #[test]
    fn cpu_throttle_is_detected_and_implicates_cpu_only() {
        let report = Auditor::new(AuditConfig::default()).audit(
            &NodeSpec::ranger(),
            &throttle_at_day(10, Subsystem::Cpu, 0.85),
            20,
        );
        assert_eq!(report.implicated(), vec![Subsystem::Cpu], "{}", report.render());
        let alarm = &report.alarms[0];
        assert_eq!(alarm.kernel, "hpcc.dgemm");
        // Detected shortly after the injection, not before.
        assert!(alarm.at >= Timestamp(10 * 86_400));
        assert!(alarm.at <= Timestamp(11 * 86_400), "{}", alarm.at.minutes());
        assert!(alarm.detection.direction < 0.0);
        assert!((alarm.level_vs_baseline - 0.85).abs() < 0.05);
    }

    #[test]
    fn io_fault_implicates_filesystem_only() {
        let report = Auditor::new(AuditConfig::default()).audit(
            &NodeSpec::ranger(),
            &throttle_at_day(8, Subsystem::FilesystemWrite, 0.6),
            16,
        );
        assert_eq!(report.implicated(), vec![Subsystem::FilesystemWrite], "{}", report.render());
    }

    #[test]
    fn concurrent_faults_implicate_both_subsystems() {
        let timeline = HealthTimeline::new(vec![
            DegradationEvent {
                at: Timestamp(6 * 86_400),
                subsystem: Subsystem::MemoryBandwidth,
                factor: 0.8,
            },
            DegradationEvent {
                at: Timestamp(9 * 86_400),
                subsystem: Subsystem::Interconnect,
                factor: 0.7,
            },
        ]);
        let report =
            Auditor::new(AuditConfig::default()).audit(&NodeSpec::lonestar4(), &timeline, 16);
        assert_eq!(
            report.implicated(),
            vec![Subsystem::MemoryBandwidth, Subsystem::Interconnect],
            "{}",
            report.render()
        );
    }

    #[test]
    fn subtle_degradation_still_caught_by_cusum() {
        // 4% loss vs 1% run-to-run noise: invisible to a 3σ rule per run,
        // caught by accumulation.
        let report = Auditor::new(AuditConfig::default()).audit(
            &NodeSpec::ranger(),
            &throttle_at_day(10, Subsystem::Cpu, 0.96),
            24,
        );
        assert_eq!(report.implicated(), vec![Subsystem::Cpu], "{}", report.render());
    }

    #[test]
    fn repaired_fault_before_audit_window_is_invisible() {
        let timeline = HealthTimeline::new(vec![
            DegradationEvent { at: Timestamp(0), subsystem: Subsystem::Cpu, factor: 0.9 },
            DegradationEvent { at: Timestamp(600), subsystem: Subsystem::Cpu, factor: 1.0 },
        ]);
        let _ = NodeHealth::HEALTHY;
        let report = Auditor::new(AuditConfig::default()).audit(&NodeSpec::ranger(), &timeline, 12);
        assert!(report.alarms.is_empty(), "{}", report.render());
    }
}
