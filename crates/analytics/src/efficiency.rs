//! Wasted-node-hour accounting (Figure 4) and efficiency lines.
//!
//! Figure 4 plots, per user, total node-hours consumed vs node-hours
//! "wasted" (spent with the CPU idle), with a reference line at the
//! machine's average efficiency (90 % on Ranger, 85 % on Lonestar4) and
//! the worst offenders circled.

/// Per-user usage/waste tallies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UserUsage {
    pub node_hours: f64,
    /// Node-hours × cpu_idle fraction.
    pub wasted_node_hours: f64,
}

impl UserUsage {
    pub fn push_job(&mut self, node_hours: f64, cpu_idle_frac: f64) {
        self.node_hours += node_hours;
        self.wasted_node_hours += node_hours * cpu_idle_frac.clamp(0.0, 1.0);
    }

    /// Efficiency = fraction of node-hours *not* idle.
    pub fn efficiency(&self) -> f64 {
        if self.node_hours <= 0.0 {
            return f64::NAN;
        }
        1.0 - self.wasted_node_hours / self.node_hours
    }

    pub fn idle_frac(&self) -> f64 {
        1.0 - self.efficiency()
    }
}

/// One point of the Figure 4 scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterPoint<K> {
    pub key: K,
    pub usage: UserUsage,
}

/// The Figure 4 dataset: scatter points plus the machine-average
/// efficiency (the red line's slope: wasted = (1−eff)·total).
#[derive(Debug, Clone)]
pub struct WastedHoursReport<K> {
    pub points: Vec<ScatterPoint<K>>,
    pub average_efficiency: f64,
}

impl<K: Clone> WastedHoursReport<K> {
    /// Build from per-key usage tallies.
    pub fn build(points: Vec<ScatterPoint<K>>) -> WastedHoursReport<K> {
        let total: f64 = points.iter().map(|p| p.usage.node_hours).sum();
        let wasted: f64 = points.iter().map(|p| p.usage.wasted_node_hours).sum();
        let average_efficiency = if total > 0.0 { 1.0 - wasted / total } else { f64::NAN };
        WastedHoursReport { points, average_efficiency }
    }

    /// Users above the efficiency line (more wasted hours than the
    /// machine-average waste for their consumption).
    pub fn above_line(&self) -> impl Iterator<Item = &ScatterPoint<K>> {
        let waste_slope = 1.0 - self.average_efficiency;
        self.points
            .iter()
            .filter(move |p| p.usage.wasted_node_hours > waste_slope * p.usage.node_hours)
    }

    /// The Figure 4 "circled user": the heaviest consumer among those
    /// idling at least `idle_threshold` of their node-hours.
    pub fn worst_heavy_offender(&self, idle_threshold: f64) -> Option<&ScatterPoint<K>> {
        self.points
            .iter()
            .filter(|p| p.usage.idle_frac() >= idle_threshold)
            .max_by(|a, b| a.usage.node_hours.total_cmp(&b.usage.node_hours))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(key: u32, hours: f64, idle: f64) -> ScatterPoint<u32> {
        let mut usage = UserUsage::default();
        usage.push_job(hours, idle);
        ScatterPoint { key, usage }
    }

    #[test]
    fn efficiency_accounting() {
        let mut u = UserUsage::default();
        u.push_job(100.0, 0.1);
        u.push_job(300.0, 0.2);
        assert_eq!(u.node_hours, 400.0);
        assert_eq!(u.wasted_node_hours, 70.0);
        assert!((u.efficiency() - 0.825).abs() < 1e-12);
    }

    #[test]
    fn idle_clamped_to_valid_range() {
        let mut u = UserUsage::default();
        u.push_job(10.0, 1.7);
        assert_eq!(u.wasted_node_hours, 10.0);
        u.push_job(10.0, -0.5);
        assert_eq!(u.wasted_node_hours, 10.0);
    }

    #[test]
    fn average_line_is_node_hour_weighted() {
        let report = WastedHoursReport::build(vec![point(1, 900.0, 0.10), point(2, 100.0, 0.90)]);
        // Weighted idle = (900·0.1 + 100·0.9)/1000 = 0.18.
        assert!((report.average_efficiency - 0.82).abs() < 1e-12);
    }

    #[test]
    fn above_line_flags_only_wasters() {
        let report = WastedHoursReport::build(vec![point(1, 500.0, 0.05), point(2, 500.0, 0.40)]);
        let above: Vec<u32> = report.above_line().map(|p| p.key).collect();
        assert_eq!(above, vec![2]);
    }

    #[test]
    fn worst_offender_is_heaviest_among_high_idle() {
        let report = WastedHoursReport::build(vec![
            point(1, 100.0, 0.88),
            point(2, 5000.0, 0.05),
            point(3, 800.0, 0.87),
        ]);
        let worst = report.worst_heavy_offender(0.8).unwrap();
        assert_eq!(worst.key, 3);
        assert!(report.worst_heavy_offender(0.95).is_none());
    }

    #[test]
    fn empty_usage_is_nan_not_panic() {
        assert!(UserUsage::default().efficiency().is_nan());
        let report: WastedHoursReport<u32> = WastedHoursReport::build(vec![]);
        assert!(report.average_efficiency.is_nan());
    }
}
