//! Chunk-level pre-aggregates shared by the segment index and the query
//! engine.
//!
//! A sealed segment's series index stores, per chunk, the statistics a
//! downsampling query needs — count, sequential sum, min, max, last —
//! so a bin that fully covers a chunk can fold the stats instead of
//! decompressing the chunk. Bit-identity with the decode-everything
//! path is the contract, so BOTH paths must run the exact same
//! arithmetic. That arithmetic lives here, and nowhere else:
//!
//! - **sum** is the sequential (timestamp-order) f64 sum starting from
//!   `0.0`. Sequential summation decomposes exactly at *prefix*
//!   boundaries: after folding a chunk's samples the accumulator is
//!   bit-for-bit the chunk's stored sum, so a chunk stat may seed a bin
//!   only while the bin is still empty ([`BinAcc::can_fold`]).
//! - **min/max** use a strict `<` / `>` scan from ±∞. NaN compares
//!   false either way, so NaN samples are skipped; ties (including
//!   `-0.0` vs `0.0`) keep the earlier value. This scan is associative
//!   under grouping, so chunk minima can fold in at any position.
//! - **count/last** are exact under grouping by construction.

/// Pre-computed statistics for one compressed chunk, stored in the
/// segment's per-series index (all f64 fields travel as raw bits).
///
/// `count == 0` marks stats that must not be folded — either the chunk
/// was empty or its samples were not strictly ascending in time (an
/// out-of-order chunk has no well-defined "sequential" sum or "last").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStats {
    /// Number of samples; 0 means "do not fold, decode instead".
    pub count: u64,
    /// Sequential f64 sum in timestamp order.
    pub sum: f64,
    /// Strict-`<` minimum (NaN-skipping, keep-first on ties); `+∞` if
    /// every sample was NaN.
    pub min: f64,
    /// Strict-`>` maximum; `-∞` if every sample was NaN.
    pub max: f64,
    /// Value of the last (highest-timestamp) sample.
    pub last: f64,
}

impl ChunkStats {
    /// Stats that can never be folded (forces the decode path).
    pub fn invalid() -> ChunkStats {
        ChunkStats { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, last: 0.0 }
    }

    /// Compute stats over `(ts, value_bits)` samples. Returns
    /// [`ChunkStats::invalid`] unless timestamps are strictly
    /// ascending — the only order under which "sequential sum" and
    /// "last" are meaningful.
    pub fn from_samples(samples: &[(u64, u64)]) -> ChunkStats {
        if samples.is_empty() {
            return ChunkStats::invalid();
        }
        let sorted = samples.windows(2).all(|w| match w {
            [a, b] => a.0 < b.0,
            _ => true,
        });
        if !sorted {
            return ChunkStats::invalid();
        }
        let mut acc = BinAcc::new();
        for &(_, bits) in samples {
            acc.add(f64::from_bits(bits));
        }
        acc.stats()
    }
}

/// One downsampling bin's running state. Feeding samples one by one
/// ([`BinAcc::add`]) reproduces the naive fold bit-for-bit; folding a
/// whole chunk ([`BinAcc::fold_chunk`]) is the fast path and is only
/// legal when [`BinAcc::can_fold`] says so for the aggregate in use.
#[derive(Debug, Clone, Copy)]
pub struct BinAcc {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub last: f64,
}

impl BinAcc {
    pub fn new() -> BinAcc {
        BinAcc { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, last: f64::NAN }
    }

    /// Fold one sample, in timestamp order.
    pub fn add(&mut self, v: f64) {
        self.count = self.count.saturating_add(1);
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.last = v;
    }

    /// May `stats` be folded in wholesale without breaking bit-identity
    /// for `needs_sequential_sum` aggregates (Sum/Mean)? The sum only
    /// decomposes at prefix boundaries, so the bin must still be empty.
    pub fn can_fold(&self, needs_sequential_sum: bool) -> bool {
        !needs_sequential_sum || self.count == 0
    }

    /// The bin as stored statistics; an empty bin's may not be folded.
    pub fn stats(&self) -> ChunkStats {
        match self.count {
            0 => ChunkStats::invalid(),
            count => {
                ChunkStats { count, sum: self.sum, min: self.min, max: self.max, last: self.last }
            }
        }
    }

    /// Fold a whole chunk's stats. Caller must have checked
    /// [`BinAcc::can_fold`] for the active aggregate and that
    /// `stats.count > 0`.
    pub fn fold_chunk(&mut self, stats: &ChunkStats) {
        if self.count == 0 {
            self.sum = stats.sum;
        } else {
            // Only reachable for aggregates that never read `sum`
            // (can_fold gates Sum/Mean); keep it monotone anyway.
            self.sum += stats.sum;
        }
        self.count = self.count.saturating_add(stats.count);
        if stats.min < self.min {
            self.min = stats.min;
        }
        if stats.max > self.max {
            self.max = stats.max;
        }
        self.last = stats.last;
    }
}

impl Default for BinAcc {
    fn default() -> BinAcc {
        BinAcc::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(vals: &[f64]) -> ChunkStats {
        let samples: Vec<(u64, u64)> =
            vals.iter().enumerate().map(|(i, v)| (i as u64, v.to_bits())).collect();
        ChunkStats::from_samples(&samples)
    }

    #[test]
    fn stats_match_scalar_fold() {
        let st = stats_of(&[3.0, 1.0, 2.0]);
        assert_eq!(st.count, 3);
        assert_eq!(st.sum, 6.0);
        assert_eq!(st.min, 1.0);
        assert_eq!(st.max, 3.0);
        assert_eq!(st.last, 2.0);
    }

    #[test]
    fn nan_samples_are_skipped_by_min_max_but_poison_sum() {
        let st = stats_of(&[f64::NAN, 2.0]);
        assert!(st.sum.is_nan());
        assert_eq!(st.min, 2.0);
        assert_eq!(st.max, 2.0);
        let all_nan = stats_of(&[f64::NAN, f64::NAN]);
        assert_eq!(all_nan.min, f64::INFINITY);
        assert_eq!(all_nan.max, f64::NEG_INFINITY);
    }

    #[test]
    fn ties_keep_the_first_value_bitwise() {
        let st = stats_of(&[0.0, -0.0]);
        assert_eq!(st.min.to_bits(), 0.0f64.to_bits(), "strict < keeps the first zero");
        let st = stats_of(&[-0.0, 0.0]);
        assert_eq!(st.min.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn unsorted_or_duplicate_timestamps_invalidate() {
        assert_eq!(ChunkStats::from_samples(&[(5, 0), (3, 0)]).count, 0);
        assert_eq!(ChunkStats::from_samples(&[(5, 0), (5, 0)]).count, 0);
        assert_eq!(ChunkStats::from_samples(&[]).count, 0);
    }

    #[test]
    fn grouped_min_max_equals_flat_scan() {
        // Associativity witness: folding chunk minima equals one flat scan.
        let vals = [2.0, -0.0, 0.0, f64::NAN, -3.5, -3.5, 7.0];
        let mut flat = BinAcc::new();
        for v in vals {
            flat.add(v);
        }
        for split in 1..vals.len() {
            let (a, b) = vals.split_at(split);
            let (sa, sb) = (stats_of(a), stats_of(b));
            let mut grouped = BinAcc::new();
            if sa.count > 0 {
                grouped.fold_chunk(&sa);
            }
            if sb.count > 0 {
                grouped.fold_chunk(&sb);
            }
            assert_eq!(grouped.min.to_bits(), flat.min.to_bits(), "split {split}");
            assert_eq!(grouped.max.to_bits(), flat.max.to_bits(), "split {split}");
            assert_eq!(grouped.count, flat.count);
            assert_eq!(grouped.last.to_bits(), flat.last.to_bits());
        }
    }

    #[test]
    fn sum_decomposes_at_prefix_boundary() {
        let vals = [0.1, 0.2, 0.30000000000000004, 1e17, -1e17];
        for split in 1..vals.len() {
            let (a, b) = vals.split_at(split);
            let mut seq = BinAcc::new();
            for &v in a.iter().chain(b) {
                seq.add(v);
            }
            // Seed with the prefix chunk's sum, then continue scalar.
            let mut seeded = BinAcc::new();
            seeded.fold_chunk(&stats_of(a));
            for &v in b {
                seeded.add(v);
            }
            assert_eq!(seeded.sum.to_bits(), seq.sum.to_bits(), "split {split}");
        }
    }
}
