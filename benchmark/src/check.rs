//! Expected answers, recomputed from the generator and a model of the
//! retention tiers — never from the engine's own oracles.

use crate::api::Agg;
use crate::gen::{tick_ts, Fleet, CADENCE, DAY, T0};

/// The benchmark's one tiered policy, as data days.
pub const RAW_TTL_DAYS: u64 = 2;
pub const HOURLY_TTL_DAYS: u64 = 7;

/// Where each tier of a store begins: `[.., hourly_from)` is served by
/// the 86 400 s rollups, `[hourly_from, raw_from)` by the 3600 s rollups
/// and `[raw_from, ..)` by raw samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiers {
    pub hourly_from: u64,
    pub raw_from: u64,
}

impl Tiers {
    pub fn untiered() -> Tiers {
        Tiers {
            hourly_from: 0,
            raw_from: 0,
        }
    }

    /// Of a store that holds `days` whole data days, and under the policy
    /// ran a retention pass after each.
    pub fn of_store(tiered: bool, days: u64) -> Tiers {
        if tiered && days > 0 {
            Tiers::after_day(days - 1)
        } else {
            Tiers::untiered()
        }
    }

    /// After a retention pass run when data day `day` (0-based) is
    /// complete: watermarks are `now − ttl` cut down to a whole day, the
    /// coarsest bin.
    pub fn after_day(day: u64) -> Tiers {
        let now = tick_ts((day + 1) * (DAY / CADENCE) - 1);
        let raw_from = (now - RAW_TTL_DAYS * DAY) / DAY * DAY;
        let hourly_from = ((now - HOURLY_TTL_DAYS * DAY) / DAY * DAY).min(raw_from);
        Tiers {
            hourly_from,
            raw_from,
        }
    }

    /// Width of the stored bin that holds `ts`; `None` for a raw sample.
    fn level(&self, ts: u64) -> Option<u64> {
        if ts >= self.raw_from {
            None
        } else if ts >= self.hourly_from {
            Some(3600)
        } else {
            Some(DAY)
        }
    }
}

/// What `query` on one series must return.
pub fn query(
    fleet: &Fleet,
    tiers: Tiers,
    last_tick: u64,
    host: usize,
    metric: usize,
    t0: u64,
    t1: u64,
) -> Vec<(u64, f64)> {
    let t0 = t0.max(tiers.raw_from).max(T0);
    if t0 > t1 {
        return Vec::new();
    }
    let first = (t0 - T0).div_ceil(CADENCE);
    let last = ((t1 - T0) / CADENCE).min(last_tick);
    (first..=last)
        .map(|t| (tick_ts(t), fleet.value(host, metric, t)))
        .collect()
}

#[derive(Clone, Copy)]
struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Acc {
    fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.last = v;
    }

    fn finish(&self, agg: Agg) -> f64 {
        match agg {
            Agg::Mean => self.sum / self.count as f64,
            Agg::Sum => self.sum,
            Agg::Min => self.min,
            Agg::Max => self.max,
            Agg::Last => self.last,
            Agg::Count => self.count as f64,
        }
    }
}

/// One series of an expected answer: `(host, metric)` and its values.
pub type Expected = ((usize, usize), Vec<(u64, f64)>);

pub struct Downsampled {
    /// `(host, metric)` ascending, then bins ascending.
    pub series: Vec<Expected>,
    /// `raw`, then `rollup:<bin>` finest first.
    pub tiers: Vec<String>,
}

/// What `downsample_tiered` must return for the series `hosts × metrics`.
/// A raw sample counts when `t0 <= ts <= t1`; a rolled one when its
/// stored bin overlaps `[t0, t1]`, and it lands in the query bin that
/// holds the stored bin's start.
#[allow(clippy::too_many_arguments)]
pub fn downsample(
    fleet: &Fleet,
    tiers: Tiers,
    last_tick: u64,
    hosts: std::ops::Range<usize>,
    metrics: std::ops::Range<usize>,
    t0: u64,
    t1: u64,
    bin_secs: u64,
    agg: Agg,
) -> Downsampled {
    let mut used = [false; 3]; // raw, 3600, 86400
    let mut series = Vec::new();
    for host in hosts {
        for metric in metrics.clone() {
            let mut bins: Vec<(u64, Acc)> = Vec::new();
            for tick in 0..=last_tick {
                let ts = tick_ts(tick);
                let (key, slot) = match tiers.level(ts) {
                    None if ts < t0 || ts > t1 => continue,
                    None => (ts / bin_secs * bin_secs, 0),
                    Some(level) => {
                        let start = ts / level * level;
                        if start > t1 || start + level - 1 < t0 {
                            continue;
                        }
                        (
                            start / bin_secs * bin_secs,
                            if level == 3600 { 1 } else { 2 },
                        )
                    }
                };
                used[slot] = true;
                let v = fleet.value(host, metric, tick);
                match bins.last_mut() {
                    Some((k, acc)) if *k == key => acc.add(v),
                    _ => {
                        let mut acc = Acc {
                            count: 0,
                            sum: 0.0,
                            min: f64::INFINITY,
                            max: f64::NEG_INFINITY,
                            last: f64::NAN,
                        };
                        acc.add(v);
                        bins.push((key, acc));
                    }
                }
            }
            if !bins.is_empty() {
                let out = bins.iter().map(|(k, acc)| (*k, acc.finish(agg))).collect();
                series.push(((host, metric), out));
            }
        }
    }
    let names = ["raw", "rollup:3600", "rollup:86400"];
    let tiers = names
        .iter()
        .zip(used)
        .filter(|(_, u)| *u)
        .map(|(n, _)| n.to_string())
        .collect();
    Downsampled { series, tiers }
}

/// Bit-exact, except that `Sum`/`Mean` over rolled ranges may differ by
/// 1e-9 relative: a rollup keeps per-bin partial sums, and adding those
/// rounds differently from adding the samples one by one.
pub fn same_value(got: f64, want: f64, agg: Agg, rolled: bool) -> bool {
    if got.to_bits() == want.to_bits() {
        return true;
    }
    rolled
        && matches!(agg, Agg::Sum | Agg::Mean)
        && (got - want).abs() <= 1e-9 * want.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TICKS_PER_DAY;

    #[test]
    fn tier_model_matches_the_policy_the_tiered_workload_opens() {
        let spec = crate::spec::Spec::by_name("tiered-mixed").unwrap();
        assert_eq!(
            spec.policy,
            format!("raw={RAW_TTL_DAYS}d,1h={HOURLY_TTL_DAYS}d,1d=inf")
        );
        // End of day 9: raw keeps days 7–9, hourly rollups days 2–6.
        let t = Tiers::after_day(9);
        assert_eq!(t.raw_from, T0 + 7 * DAY);
        assert_eq!(t.hourly_from, T0 + 2 * DAY);
        // Early on nothing has aged out yet.
        assert!(Tiers::after_day(1).raw_from < T0);
    }

    #[test]
    fn query_reference_clips_to_data_and_to_the_raw_tier() {
        let fleet = Fleet::new(1);
        let last = 3 * TICKS_PER_DAY - 1;
        let all = query(&fleet, Tiers::untiered(), last, 3, 4, 0, u64::MAX);
        assert_eq!(all.len() as u64, 3 * TICKS_PER_DAY);
        assert_eq!(all[0], (T0, fleet.value(3, 4, 0)));
        let point = query(
            &fleet,
            Tiers::untiered(),
            last,
            3,
            4,
            tick_ts(7),
            tick_ts(7),
        );
        assert_eq!(point, vec![(tick_ts(7), fleet.value(3, 4, 7))]);
        let tiers = Tiers {
            hourly_from: T0,
            raw_from: T0 + DAY,
        };
        assert_eq!(
            query(&fleet, tiers, last, 3, 4, 0, u64::MAX).len() as u64,
            2 * TICKS_PER_DAY
        );
        assert!(query(&fleet, tiers, last, 3, 4, T0, T0 + DAY - 1).is_empty());
    }

    #[test]
    fn downsample_reference_counts_every_sample_once_across_tiers() {
        let fleet = Fleet::new(1);
        let last = 4 * TICKS_PER_DAY + 9; // four whole days and ten ticks
        let tiers = Tiers {
            hourly_from: T0 + DAY,
            raw_from: T0 + 3 * DAY,
        };
        let d = downsample(
            &fleet,
            tiers,
            last,
            0..2,
            5..6,
            T0,
            tick_ts(last),
            DAY,
            Agg::Count,
        );
        assert_eq!(d.tiers, ["raw", "rollup:3600", "rollup:86400"]);
        assert_eq!(d.series.len(), 2);
        let counts: Vec<f64> = d.series[0].1.iter().map(|b| b.1).collect();
        assert_eq!(counts, [144.0, 144.0, 144.0, 144.0, 10.0]);
        // Hourly bins over a day served by daily rollups: all in one bin.
        let p = downsample(
            &fleet,
            tiers,
            last,
            0..1,
            0..1,
            T0,
            T0 + DAY - 1,
            3600,
            Agg::Count,
        );
        assert_eq!(p.tiers, ["rollup:86400"]);
        assert_eq!(p.series[0].1, vec![(T0, 144.0)]);
    }

    #[test]
    fn only_rolled_sums_get_a_tolerance() {
        let a = 1.0e6_f64;
        let b = f64::from_bits(a.to_bits() + 1);
        assert!(same_value(a, a, Agg::Max, false));
        assert!(!same_value(a, b, Agg::Mean, false));
        assert!(same_value(a, b, Agg::Mean, true));
        assert!(!same_value(a, b, Agg::Max, true));
        assert!(!same_value(a, a * 1.001, Agg::Mean, true));
    }
}
