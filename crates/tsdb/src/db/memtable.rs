//! The one in-memory series shape: per series a strictly-ascending run
//! of `(timestamp, f64 bits)`, found from borrowed names without
//! allocating and walked in [`super::SeriesKey`] order.

use std::collections::BTreeMap;
use std::ops::Bound;

use super::{merge_runs, normalize_run};

/// One series' samples, strictly ascending in time.
type Run = Vec<(u64, u64)>;

#[derive(Default)]
pub(super) struct Memtable {
    /// Host name → slot in `hosts`; walked for host order.
    index: BTreeMap<String, usize>,
    /// Per host, by slot: its name, and metric name → run.
    hosts: Vec<(String, BTreeMap<String, Run>)>,
    /// Slot of the previous append's host, tried before `index`:
    /// agents, the relay and batch ingest all send a host's metrics
    /// together.
    last: usize,
    series: usize,
    samples: u64,
}

/// Add `first` and then `rest` to the strictly-ascending `run`,
/// last-write-wins on an equal timestamp; returns how many timestamps
/// are new. Ascending input — the live and batch case — is pushed. From
/// the first sample that is not past the run's end, what is left of the
/// batch is sorted once and merged in once, so any batch costs
/// O(n log n + m), never a shift per sample.
fn extend_run(run: &mut Run, first: (u64, u64), mut rest: impl Iterator<Item = (u64, u64)>) -> u64 {
    let before = run.len();
    let mut next = Some(first);
    while let Some(sample) = next {
        if run.last().is_some_and(|&(last, _)| sample.0 <= last) {
            break;
        }
        run.push(sample);
        next = rest.next();
    }
    if let Some(sample) = next {
        let batch = normalize_run(std::iter::once(sample).chain(rest).collect());
        let overlap = run.partition_point(|&(ts, _)| ts < batch[0].0);
        let tail = run.split_off(overlap);
        run.extend(merge_runs(vec![tail, batch]));
    }
    (run.len() - before) as u64
}

impl Memtable {
    /// Add one series' batch, in the order given: a later sample wins
    /// its timestamp, within the batch and over what is held. An empty
    /// batch adds nothing, not even the series.
    pub(super) fn extend(
        &mut self,
        host: &str,
        metric: &str,
        samples: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let mut samples = samples.into_iter();
        let Some(first) = samples.next() else { return };
        if self.hosts.get(self.last).is_none_or(|(name, _)| name != host) {
            self.last = match self.index.get(host) {
                Some(&slot) => slot,
                None => {
                    self.index.insert(host.to_owned(), self.hosts.len());
                    self.hosts.push((host.to_owned(), BTreeMap::new()));
                    self.hosts.len() - 1
                }
            };
        }
        let metrics = &mut self.hosts[self.last].1;
        self.samples += match metrics.get_mut(metric) {
            Some(run) => extend_run(run, first, samples),
            None => {
                let mut run = Vec::new();
                let added = extend_run(&mut run, first, samples);
                metrics.insert(metric.to_owned(), run);
                self.series += 1;
                added
            }
        };
    }

    /// The series of `host` — of every host when `None` — in
    /// `SeriesKey` order, as `(host, metric, run)`. No run is empty.
    pub(super) fn series(
        &self,
        host: Option<&str>,
    ) -> impl Iterator<Item = (&str, &str, &[(u64, u64)])> {
        let hosts = match host {
            Some(h) => self.index.range::<str, _>((Bound::Included(h), Bound::Included(h))),
            None => self.index.range::<str, _>(..),
        };
        hosts.flat_map(|(host, &slot)| {
            let metrics = self.hosts.get(slot).map(|(_, metrics)| metrics.iter());
            metrics.into_iter().flatten().map(|(metric, run)| (&**host, &**metric, &**run))
        })
    }

    /// Number of series held.
    pub(super) fn len(&self) -> usize {
        self.series
    }

    pub(super) fn is_empty(&self) -> bool {
        self.series == 0
    }

    /// Number of samples held (distinct `(series, timestamp)` pairs).
    pub(super) fn samples(&self) -> u64 {
        self.samples
    }

    /// Newest timestamp held.
    pub(super) fn max_timestamp(&self) -> Option<u64> {
        self.series(None).filter_map(|(_, _, run)| run.last().map(|&(ts, _)| ts)).max()
    }

    pub(super) fn clear(&mut self) {
        *self = Memtable::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn series_walk_in_key_order_whatever_the_append_order() {
        let mut mem = Memtable::default();
        for (host, metric) in [("c2", "b"), ("c10", "z"), ("c2", "a"), ("a", "m"), ("c10", "a")] {
            mem.extend(host, metric, [(600, 1)]);
            mem.extend(host, metric, [(1200, 2)]);
        }
        mem.extend("never", "seen", []);
        let keys: Vec<(&str, &str)> = mem.series(None).map(|(h, m, _)| (h, m)).collect();
        assert_eq!(keys, [("a", "m"), ("c10", "a"), ("c10", "z"), ("c2", "a"), ("c2", "b")]);
        assert!(mem.series(None).all(|(_, _, run)| run == [(600, 1), (1200, 2)]));
        assert_eq!((mem.len(), mem.samples()), (5, 10));
        assert_eq!(mem.max_timestamp(), Some(1200));
        let c10: Vec<&str> = mem.series(Some("c10")).map(|(_, m, _)| m).collect();
        assert_eq!(c10, ["a", "z"]);
        assert_eq!(mem.series(Some("c1")).count(), 0, "a prefix of a host names no series");
        mem.clear();
        assert!(mem.is_empty() && mem.samples() == 0 && mem.max_timestamp().is_none());
    }

    /// Reversed, interleaved and duplicate-laden batches against the
    /// map the memtable used to be — and promptly: per-sample insertion
    /// into a sorted run would move ~10^10 samples here.
    #[test]
    fn out_of_order_batches_merge_once_and_equal_a_map_model() {
        let n = 100_000u64;
        let mut mem = Memtable::default();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut apply = |mem: &mut Memtable, batch: Vec<(u64, u64)>| {
            model.extend(batch.iter().copied());
            mem.extend("h", "m", batch);
            let (_, _, run) = mem.series(None).next().unwrap();
            assert!(run.iter().copied().eq(model.iter().map(|(&ts, &b)| (ts, b))));
            assert_eq!(mem.samples(), model.len() as u64);
        };
        let started = Instant::now();
        // Populate ascending, on even timestamps.
        apply(&mut mem, (0..n).map(|i| (i * 2, i)).collect());
        // Reversed, over the whole populated range: odd timestamps are
        // new, every fourth overwrites.
        apply(&mut mem, (0..n).rev().map(|i| (i * 2 + (i % 4).min(1), !i)).collect());
        // Duplicate-laden: every timestamp four times, the last wins.
        apply(&mut mem, (0..n).map(|i| (i / 4 * 3, i)).collect());
        // Ascending up to the run's end, then back into it.
        apply(&mut mem, vec![(2 * n, 1), (2 * n + 1, 2), (7, 3), (2 * n, 4), (5, 5)]);
        assert!(started.elapsed().as_secs() < 5, "took {:?}", started.elapsed());
    }
}
