//! Reference implementations of the read path: read every overlapping
//! block whole, decode each of its chunks the owned series-index view
//! addresses into a map, last insert wins. Differential-test oracles for
//! [`Tsdb::query`] and [`Tsdb::downsample`] — do not "optimize" these;
//! their value is being obviously correct.

use std::collections::BTreeMap;

use super::{Agg, Selector, SeriesKey, SeriesPoints, Tsdb};
use crate::segment::TsdbError;
use crate::stats::BinAcc;

/// Bin one merged sample stream, scalar by scalar.
fn bin_samples(samples: &[(u64, f64)], bin_secs: u64, agg: Agg) -> Vec<(u64, f64)> {
    let mut bins: BTreeMap<u64, BinAcc> = BTreeMap::new();
    for &(ts, v) in samples {
        bins.entry(ts / bin_secs * bin_secs).or_default().add(v);
    }
    bins.into_iter().map(|(start, acc)| (start, agg.finish(&acc))).collect()
}

fn bin_series(series: SeriesPoints, bin_secs: u64, agg: Agg) -> SeriesPoints {
    series
        .into_iter()
        .map(|(key, samples)| {
            let binned = bin_samples(&samples, bin_secs, agg);
            (key, binned)
        })
        .collect()
}

impl Tsdb {
    /// Reference implementation of [`Tsdb::query`].
    pub fn query_naive(&self, sel: &Selector, t0: u64, t1: u64) -> Result<SeriesPoints, TsdbError> {
        // Same retention clamp as `query` — the oracle sees the same
        // logically-surviving raw data as the fast path.
        let t0 = t0.max(self.manifest.raw_dropped_before);
        if t0 > t1 {
            return Ok(Vec::new());
        }
        let mut acc: BTreeMap<SeriesKey, BTreeMap<u64, u64>> = BTreeMap::new();
        for (_, reader) in &self.segments {
            // The owned view of the index, not the engine's lookup.
            let index = reader.series_index().unwrap_or_default();
            for (block_ix, entry) in reader.entries.iter().enumerate() {
                // Sparse time index: skip blocks outside the range.
                if entry.max_ts < t0 || entry.min_ts > t1 {
                    continue;
                }
                let payload = reader.read_block(entry)?;
                for series in index {
                    let key = SeriesKey::new(&series.host, &series.metric);
                    if !sel.matches(&key) {
                        continue;
                    }
                    let points = acc.entry(key).or_default();
                    for r in series.chunks.iter().filter(|r| r.block_ix as usize == block_ix) {
                        for (ts, bits) in reader.decode_chunk_in_block(&payload, r)? {
                            if ts >= t0 && ts <= t1 {
                                points.insert(ts, bits);
                            }
                        }
                    }
                }
            }
        }
        for (host, metric, run) in self.mem.series(None) {
            let key = SeriesKey::new(host, metric);
            if !sel.matches(&key) {
                continue;
            }
            let series = acc.entry(key).or_default();
            for &(ts, bits) in run {
                if ts >= t0 && ts <= t1 {
                    series.insert(ts, bits);
                }
            }
        }
        Ok(acc
            .into_iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(key, series)| {
                let samples =
                    series.into_iter().map(|(ts, bits)| (ts, f64::from_bits(bits))).collect();
                (key, samples)
            })
            .collect())
    }

    /// Reference implementation of [`Tsdb::downsample`] over
    /// [`Tsdb::query_naive`]: decode everything, bin scalar-by-scalar.
    pub fn downsample_naive(
        &self,
        sel: &Selector,
        t0: u64,
        t1: u64,
        bin_secs: u64,
        agg: Agg,
    ) -> Result<SeriesPoints, TsdbError> {
        let bin_secs = bin_secs.max(1);
        Ok(bin_series(self.query_naive(sel, t0, t1)?, bin_secs, agg))
    }
}
