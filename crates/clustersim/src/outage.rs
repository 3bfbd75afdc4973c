//! Downtime windows.
//!
//! Figure 8 of the paper shows active-node counts dipping to zero during
//! "relatively infrequent planned or unplanned shutdowns", with smaller
//! wiggles from scheduling gaps. Outages here reproduce the big dips:
//! whole-cluster maintenance windows plus partial unscheduled failures.

use supremm_metrics::{Duration, Timestamp};

/// One downtime window affecting a fraction of the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    pub start: Timestamp,
    pub duration: Duration,
    /// Fraction of nodes down during the window, `(0, 1]`.
    pub frac: f64,
}

impl Outage {
    pub fn end(&self) -> Timestamp {
        self.start + self.duration
    }

    pub fn contains(&self, ts: Timestamp) -> bool {
        ts >= self.start && ts < self.end()
    }
}

/// The default maintenance calendar for a simulation of `days` days:
/// a full 8-hour scheduled outage mid-way through every 30-day block and
/// a 3-hour unscheduled partial (35 % of nodes) outage per block, placed
/// deterministically from the seed.
pub fn default_calendar(days: u64, seed: u64) -> Vec<Outage> {
    let mut out = Vec::new();
    let blocks = days / 30;
    for b in 0..blocks {
        let block_start = b * 30;
        // Scheduled full-cluster maintenance, day 15 of the block, 08:00.
        out.push(Outage {
            start: Timestamp((block_start + 15) * 86_400 + 8 * 3600),
            duration: Duration::from_hours(8),
            frac: 1.0,
        });
        // One unscheduled partial failure at a seed-dependent day/hour.
        let h = seed.wrapping_mul(0x9e37_79b9).wrapping_add(b * 0x85eb_ca6b);
        let day = block_start + 2 + (h % 26);
        let hour = (h >> 8) % 24;
        out.push(Outage {
            start: Timestamp(day * 86_400 + hour * 3600),
            duration: Duration::from_hours(3),
            frac: 0.35,
        });
    }
    out.sort_by_key(|o| o.start);
    out
}

/// Which fraction of nodes is down at `ts` (max over overlapping windows).
pub fn down_frac_at(outages: &[Outage], ts: Timestamp) -> f64 {
    outages.iter().filter(|o| o.contains(ts)).map(|o| o.frac).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_membership() {
        let o = Outage { start: Timestamp(100), duration: Duration(50), frac: 1.0 };
        assert!(!o.contains(Timestamp(99)));
        assert!(o.contains(Timestamp(100)));
        assert!(o.contains(Timestamp(149)));
        assert!(!o.contains(Timestamp(150)));
    }

    #[test]
    fn calendar_has_one_full_and_one_partial_per_block() {
        let cal = default_calendar(90, 7);
        assert_eq!(cal.len(), 6);
        let full = cal.iter().filter(|o| o.frac == 1.0).count();
        assert_eq!(full, 3);
        assert!(cal.windows(2).all(|w| w[0].start <= w[1].start), "sorted");
    }

    #[test]
    fn short_sims_have_no_outages() {
        assert!(default_calendar(29, 1).is_empty());
    }

    #[test]
    fn down_frac_takes_max_of_overlaps() {
        let cal = vec![
            Outage { start: Timestamp(0), duration: Duration(100), frac: 0.3 },
            Outage { start: Timestamp(50), duration: Duration(100), frac: 1.0 },
        ];
        assert_eq!(down_frac_at(&cal, Timestamp(10)), 0.3);
        assert_eq!(down_frac_at(&cal, Timestamp(60)), 1.0);
        assert_eq!(down_frac_at(&cal, Timestamp(200)), 0.0);
    }

    #[test]
    fn calendar_is_deterministic_per_seed() {
        assert_eq!(default_calendar(60, 5), default_calendar(60, 5));
        assert_ne!(default_calendar(60, 5), default_calendar(60, 6));
    }
}
