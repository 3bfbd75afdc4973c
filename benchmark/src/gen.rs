//! The simulated fleet: every sample is a pure function of
//! `(seed, host, metric, tick)`, so the benchmark can recompute the
//! expected answer to any query without asking the engine.

/// Hosts × metrics is never cut when the benchmark is scaled down; only
/// rounds and data days are.
pub const HOSTS: usize = 256;
pub const METRICS: usize = 16;
pub const SERIES: usize = HOSTS * METRICS;
/// The paper's TACC_Stats cadence.
pub const CADENCE: u64 = 600;
pub const DAY: u64 = 86_400;
pub const TICKS_PER_DAY: u64 = DAY / CADENCE;
/// First sample time; day-aligned, so a data day is one 86 400 s bin.
pub const T0: u64 = 15_000 * DAY;

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded stream for the query lists (not for samples, which are hashed).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed ^ 0xA5A5_5A5A_C3C3_3C3C))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

pub struct Fleet {
    seed: u64,
    pub hosts: Vec<String>,
    pub metrics: Vec<String>,
    /// Per series: a counter's per-tick step, a gauge's level.
    param: Vec<u64>,
}

pub fn tick_ts(tick: u64) -> u64 {
    T0 + tick * CADENCE
}

impl Fleet {
    pub fn new(seed: u64) -> Fleet {
        // Names in the paper's style; zero-padded so lexicographic order
        // (the engine's) equals index order (the generator's).
        let hosts = (0..HOSTS)
            .map(|h| format!("c{:03}-{:03}", 300 + h / 16, 100 + h % 16))
            .collect();
        let metrics = (0..METRICS)
            .map(|m| format!("m{m:02}_{}", if m % 2 == 0 { "ctr" } else { "gauge" }))
            .collect();
        let mut fleet = Fleet {
            seed,
            hosts,
            metrics,
            param: Vec::new(),
        };
        fleet.param = (0..SERIES)
            .map(|s| {
                let h = fleet.hash(s / METRICS, s % METRICS, u64::MAX);
                if s % 2 == 0 {
                    1 + h % 5_000
                } else {
                    h % 1_000
                }
            })
            .collect();
        fleet
    }

    fn hash(&self, host: usize, metric: usize, tick: u64) -> u64 {
        let series = (host * METRICS + metric) as u64;
        splitmix64(splitmix64(self.seed ^ (series << 32)) ^ tick)
    }

    /// Even metrics are counters: monotone integers whose per-tick step
    /// depends on the series. Odd metrics are gauges: noisy non-integral
    /// floats around a per-series level.
    pub fn value(&self, host: usize, metric: usize, tick: u64) -> f64 {
        let h = self.hash(host, metric, tick);
        let param = self.param[host * METRICS + metric];
        if metric.is_multiple_of(2) {
            let step = param;
            // tick·step + (h mod step) never decreases from tick to tick.
            (tick * step + h % step) as f64
        } else {
            let level = param as f64;
            // Odd 128ths: never integral, and few mantissa bits, as a
            // sensor reading has.
            level + ((h % 8_192) * 2 + 1) as f64 / 128.0
        }
    }

    /// One series over `ticks`, in the engine's `(ts, value)` form.
    pub fn series(
        &self,
        host: usize,
        metric: usize,
        ticks: std::ops::Range<u64>,
    ) -> Vec<(u64, f64)> {
        ticks
            .map(|t| (tick_ts(t), self.value(host, metric, t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_samples_other_seed_other_samples() {
        let (a, b, c) = (Fleet::new(7), Fleet::new(7), Fleet::new(8));
        let ticks = 0..3 * TICKS_PER_DAY;
        let mut differing = 0;
        for (h, m) in [(0, 0), (0, 1), (17, 6), (255, 15)] {
            assert_eq!(a.series(h, m, ticks.clone()), b.series(h, m, ticks.clone()));
            differing +=
                usize::from(a.series(h, m, ticks.clone()) != c.series(h, m, ticks.clone()));
        }
        assert_eq!(differing, 4);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn counters_are_monotone_integers_and_gauges_are_not_integral() {
        let fleet = Fleet::new(3);
        for h in [0, 100, 255] {
            for m in 0..METRICS {
                let s = fleet.series(h, m, 0..2 * TICKS_PER_DAY);
                if m % 2 == 0 {
                    assert!(
                        s.windows(2).all(|w| w[0].1 <= w[1].1),
                        "counter {h}/{m} decreases"
                    );
                    assert!(s.iter().all(|(_, v)| v.fract() == 0.0));
                } else {
                    assert!(s.iter().all(|(_, v)| v.fract() != 0.0 && v.is_finite()));
                }
            }
        }
    }

    #[test]
    fn names_sort_in_index_order_and_days_align_to_bins() {
        let fleet = Fleet::new(1);
        assert_eq!((fleet.hosts.len(), fleet.metrics.len()), (HOSTS, METRICS));
        assert!(fleet.hosts.windows(2).all(|w| w[0] < w[1]));
        assert!(fleet.metrics.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(T0 % DAY, 0);
        assert_eq!(tick_ts(TICKS_PER_DAY), T0 + DAY);
    }
}
