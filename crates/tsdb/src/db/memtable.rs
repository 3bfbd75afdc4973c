//! The one in-memory series shape: per series a strictly-ascending run
//! of `(timestamp, f64 bits)`, addressed by host slot and metric id and
//! walked in [`super::SeriesKey`] order. A host name is owned twice per
//! host and a metric name twice per store — as its map key, and beside
//! its slot or id — never once per series; nothing is allocated to find
//! a series the store holds.
//!
//! An append resolves its names once, in [`Memtable::resolve`]. The
//! engine hands the `(slot, id)` it returns to the WAL, which interns by
//! them, and then to [`Memtable::extend_at`]. A slot or id names the same
//! host or metric until [`Memtable::clear`]; the engine resets the WAL
//! before it clears the memtable.

use std::collections::BTreeMap;
use std::ops::Bound;

use super::Append;
use crate::wal::WalFrame;

/// One series' samples, strictly ascending in time.
type Run = Vec<(u64, u64)>;

#[derive(Default)]
pub(super) struct Memtable {
    /// Host name → slot in `hosts`; walked for host order.
    index: BTreeMap<String, usize>,
    /// Metric name → id, store-wide; walked for metric order.
    metrics: BTreeMap<String, usize>,
    /// Metric name by id, so a guessed id is checked by one compare.
    metric_names: Vec<String>,
    /// Per host, by slot: its name, and its runs by metric id. A metric
    /// the host has no samples of is an empty run, or past the end.
    hosts: Vec<(String, Vec<Run>)>,
    /// Slot of the previous append's host, tried before `index`:
    /// agents, the relay and batch ingest all send a host's metrics
    /// together.
    last: usize,
    /// Id of the previous append's metric; its successor is tried
    /// before `metrics`: every sender sends a host's metrics in one
    /// fixed order, so after a host's first tick the ids follow it.
    last_metric: usize,
    series: usize,
    samples: u64,
}

impl Memtable {
    /// [`Memtable::resolve`], then [`Memtable::extend_at`]: the engine
    /// makes the two calls with the WAL's append between them.
    #[cfg(test)]
    fn extend(&mut self, host: &str, metric: &str, samples: impl IntoIterator<Item = (u64, u64)>) {
        let (slot, id) = self.resolve(host, metric);
        self.extend_at(slot, id, samples);
    }

    /// The host slot and metric id of a series, each added on first
    /// sight.
    #[inline]
    pub(super) fn resolve(&mut self, host: &str, metric: &str) -> (usize, usize) {
        (self.host_slot(host), self.metric_id(metric))
    }

    /// Add a replayed WAL frame's records in order, as
    /// [`Memtable::extend_at`] would one by one. Each name of the frame's
    /// table is resolved to a host slot or a metric id the first time a
    /// record with samples uses it; after that a record costs two array
    /// loads and a push. A table may list a name twice, once as a host
    /// and once as a metric: each index resolves on its own.
    pub(super) fn extend_frame(&mut self, frame: &WalFrame<'_>) {
        // Per name of the table: its host slot and its metric id, once
        // resolved. A name can be both.
        let mut resolved = vec![(None, None); frame.names.len()];
        for (host, metric, samples) in frame.records() {
            if samples.is_empty() {
                continue;
            }
            let slot = *resolved[host].0.get_or_insert_with(|| self.host_slot(frame.names[host]));
            let id = *resolved[metric].1.get_or_insert_with(|| self.metric_id(frame.names[metric]));
            self.extend_at(slot, id, samples.iter().copied());
        }
    }

    /// The slot of `host`, added on first sight.
    fn host_slot(&mut self, host: &str) -> usize {
        if self.hosts.get(self.last).is_none_or(|(name, _)| name != host) {
            self.last = match self.index.get(host) {
                Some(&slot) => slot,
                None => {
                    self.index.insert(host.to_owned(), self.hosts.len());
                    self.hosts.push((host.to_owned(), Vec::new()));
                    self.hosts.len() - 1
                }
            };
        }
        self.last
    }

    /// The id of `metric`, added on first sight. The successor of the
    /// previous id is tried first, by one compare.
    fn metric_id(&mut self, metric: &str) -> usize {
        let next = self.last_metric + 1;
        let next = if next < self.metric_names.len() { next } else { 0 };
        if self.metric_names.get(next).is_some_and(|name| name == metric) {
            self.last_metric = next;
            return next;
        }
        self.last_metric = match self.metrics.get(metric) {
            Some(&id) => id,
            None => {
                self.metrics.insert(metric.to_owned(), self.metric_names.len());
                self.metric_names.push(metric.to_owned());
                self.metric_names.len() - 1
            }
        };
        self.last_metric
    }

    /// Add one series' batch, in the order given: a later sample wins
    /// its timestamp, within the batch and over what is held. An empty
    /// batch adds no series. `slot` and `id` come from
    /// [`Memtable::resolve`].
    #[inline]
    pub(super) fn extend_at(
        &mut self,
        slot: usize,
        id: usize,
        samples: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let Some((_, runs)) = self.hosts.get_mut(slot) else { return };
        if id >= runs.len() {
            runs.resize_with(self.metrics.len(), Vec::new);
        }
        let Some(run) = runs.get_mut(id) else { return };
        let new_series = run.is_empty();
        let mut batch = Append::to(run);
        batch.extend(samples);
        let (added, _) = batch.finish();
        self.series += usize::from(new_series && added > 0);
        self.samples += added;
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
            let runs = self.hosts.get(slot).map_or(&[][..], |(_, runs)| runs);
            self.metrics.iter().filter_map(move |(metric, &id)| {
                let run = runs.get(id).filter(|run| !run.is_empty())?;
                Some((&**host, &**metric, &**run))
            })
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
        let runs = self.hosts.iter().flat_map(|(_, runs)| runs);
        runs.filter_map(|run| run.last().map(|&(ts, _)| ts)).max()
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

    /// Metric ids go in first-seen order; the walk goes in name order.
    #[test]
    fn the_walk_follows_metric_names_not_ids() {
        let mut mem = Memtable::default();
        for (host, metric) in [("h2", "z"), ("h1", "m"), ("h2", "a"), ("h1", "z"), ("h3", "m")] {
            mem.extend(host, metric, [(600, 1)]);
        }
        let ids: Vec<(&str, usize)> = mem.metrics.iter().map(|(m, &id)| (&**m, id)).collect();
        assert_eq!(ids, [("a", 2), ("m", 1), ("z", 0)]);
        let keys: Vec<(&str, &str)> = mem.series(None).map(|(h, m, _)| (h, m)).collect();
        assert_eq!(keys, [("h1", "m"), ("h1", "z"), ("h2", "a"), ("h2", "z"), ("h3", "m")]);
        let h3: Vec<&str> = mem.series(Some("h3")).map(|(_, m, _)| m).collect();
        assert_eq!(h3, ["m"], "the metrics h3 never had are skipped");
    }

    #[test]
    fn a_host_that_only_got_empty_records_holds_no_series() {
        let mut mem = Memtable::default();
        mem.extend("h", "m", [(600, 1)]);
        mem.extend("empty", "m", []);
        mem.extend("empty", "never", []);
        assert_eq!(mem.series(Some("empty")).count(), 0);
        assert_eq!((mem.len(), mem.samples()), (1, 1));
        assert_eq!(mem.series(None).count(), 1);
    }

    /// A frame whose record carries no samples for a name no other
    /// record uses — CRC-correct, written by hand — replays to no series
    /// and leaves the name unresolved.
    #[test]
    fn an_empty_record_for_an_unseen_name_replays_to_nothing() {
        use crate::codec::{put_str, put_varint};
        use crate::wal::{Wal, WAL_MAGIC};

        let dir = std::env::temp_dir().join(format!("tsdb-mem-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // names h, m, ghost · two records: (h, m, one sample at Δts
        // zigzag(1200) = 2400), (ghost, ghost, none)
        let mut payload = Vec::new();
        put_varint(&mut payload, 3);
        for name in ["h", "m", "ghost"] {
            put_str(&mut payload, name);
        }
        for v in [2, 0, 1, 1, 2400] {
            put_varint(&mut payload, v);
        }
        payload.extend_from_slice(&7u64.to_le_bytes());
        for v in [2, 2, 0] {
            put_varint(&mut payload, v);
        }
        let mut file = WAL_MAGIC.to_vec();
        file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        file.extend_from_slice(&crate::crc::crc32(&payload).to_le_bytes());
        file.extend_from_slice(&payload);
        std::fs::write(dir.join("wal.log"), &file).unwrap();

        let mut mem = Memtable::default();
        let (_, truncated) = Wal::replay(&dir.join("wal.log"), |f| mem.extend_frame(f)).unwrap();
        assert_eq!(truncated, 0);
        assert!(mem.series(None).eq([("h", "m", &[(1200, 7)][..])]));
        assert!(!mem.index.contains_key("ghost") && !mem.metrics.contains_key("ghost"));

        let db = crate::Tsdb::open(&dir).unwrap();
        let stats = db.stats();
        assert_eq!((stats.mem_series, stats.mem_samples), (1, 1));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
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
