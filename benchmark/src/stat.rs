//! Percentile and median arithmetic over latency samples.

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the two middle values averaged; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The fastest of the repeats of one operation; 0 when there are none.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Timings of a fixed sequence of operations that is run once per round:
/// position `i` of every round is the same operation, or one doing the
/// same work.
///
/// On a shared machine interference only ever adds time, and it does so
/// most of the time (a fixed CPU kernel here ran 30 % slower at its
/// median than at its fastest, while its fastest stayed within ±3 % from
/// window to window). So an operation's cost is taken as the fastest of
/// its repeats, and a class's p50 is the median of that over the class's
/// operations.
#[derive(Default, Clone)]
pub struct Rounds {
    rounds: Vec<Vec<f64>>,
}

impl Rounds {
    /// Start a round; samples pushed next belong to it.
    pub fn begin(&mut self) {
        self.rounds.push(Vec::new());
    }

    pub fn push(&mut self, v: f64) {
        if self.rounds.is_empty() {
            self.begin();
        }
        self.rounds.last_mut().expect("a round was begun").push(v);
    }

    /// Samples taken, over all rounds.
    pub fn count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Per position, the fastest sample any round took. Positions a
    /// round did not reach are left out.
    pub fn best(&self) -> Vec<f64> {
        let len = self.rounds.iter().map(Vec::len).min().unwrap_or(0);
        (0..len)
            .map(|i| fastest(&self.rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
            .collect()
    }

    /// Median over positions of the fastest sample.
    pub fn p50(&self) -> f64 {
        median(&self.best())
    }

    /// Percentile over positions of the fastest sample.
    pub fn tail(&self, p: f64) -> f64 {
        percentile(&sorted(&self.best()), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn rounds_take_each_positions_fastest_repeat() {
        let mut r = Rounds::default();
        for round in [[1.0, 20.0, 300.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]] {
            r.begin();
            round.into_iter().for_each(|v| r.push(v));
        }
        assert_eq!(r.best(), [1.0, 5.0, 6.0]);
        assert_eq!(r.p50(), 5.0);
        assert_eq!(r.tail(99.0), 6.0);
        assert_eq!(r.count(), 9);
        // A round cut short shortens what can be compared.
        r.begin();
        r.push(0.5);
        assert_eq!(r.best(), [0.5]);
        assert_eq!(Rounds::default().p50(), 0.0);
    }
}
