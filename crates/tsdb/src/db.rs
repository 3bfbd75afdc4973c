//! The storage engine: WAL-fronted memtable over immutable segments.
//!
//! Write path: `append*` buffers samples in the memtable **and** encodes
//! them into the WAL's pending frame; [`Tsdb::sync`] seals the frame and
//! makes it durable (the ack point);
//! [`Tsdb::flush`] seals the memtable into a new immutable segment and
//! resets the WAL. [`Tsdb::compact`] merges all sealed segments into
//! one.
//!
//! Read path — plan → fetch → fold. Every read first builds one
//! `ReadPlan`: per matching series, the chunk refs overlapping the
//! window in each sealed segment plus the memtable's samples. The plan
//! is built in a single pass that looks the selector up once in each
//! segment's series index, in place (`SegmentReader::lookup`: a host is
//! a binary search, a metric an integer filter, refs are decoded from
//! the index bytes); a segment whose time range misses the window is
//! skipped before its index is touched. The plan is then walked
//! series-major through one `BlockFetcher`, which reads per block the
//! plan touches one *extent* — the bytes from the first to the last
//! planned chunk of that block — holds at most one per segment, and
//! verifies each chunk against its own CRC as it decodes it. The
//! engine lays chunks out
//! series-major too, so each extent is read once per walk; a foreign
//! layout only costs a re-read.
//!
//! `Tsdb::walk` is that walk as a stream: it builds each series' run by
//! appending its sources in priority order — each segment's planned
//! chunks, oldest segment first, then the memtable window (when asked
//! to) — through the one last-write-wins append the memtable uses, so
//! later sources win per `(series, timestamp)`. A source that ascends
//! past the run is pushed; one that overlaps it is merged once with the
//! run's tail. That makes compaction and crash-leftover
//! segments (a compacted segment sealed but its inputs not yet deleted)
//! both idempotent: re-merging identical samples changes nothing.
//! Everything that visits every sample of a series in key order is a
//! consumer of it: [`Tsdb::query`] collects it, [`Tsdb::compact`] feeds
//! it to the segment writer, and [`Tsdb::enforce_retention`] bins it
//! into every rollup level at once. Each holds one series' run and the
//! fetcher's extents, never the store.
//!
//! [`Tsdb::downsample`] folds instead of decoding where it can: when a
//! series' planned sources are disjoint in time and a bin fully covers
//! a chunk, the chunk's pre-computed statistics
//! ([`crate::stats::ChunkStats`]) go straight into the bin and the
//! chunk is never decompressed (nor its block fetched). Sources that
//! overlap fall back to binning the walk's run of the series.
//! Both ways run the same [`BinAcc`] arithmetic, and the fold is only
//! taken where the sequential-sum prefix rule allows it, so the result
//! is bit-identical to decoding everything.
//!
//! Each series' bins are one ascending vector (`Bins`), reserved once,
//! that `bin_run` fills: it divides out a bin start and looks a bin up
//! only when a sample leaves the bin the previous one went to. Samples
//! reach the bins in time order on every path — rollup tiers first
//! (older), then the raw tier — and the fold takes the sources in
//! stored order only when that order is time order: the sources are
//! disjoint, each segment's chunks ascend, and every chunk holding
//! samples has foldable stats, which `ChunkStats::from_samples` denies
//! a chunk whose samples are out of order or repeat a timestamp (a
//! foreign or hand-built segment's). Any other series takes the merge.
//! A bin that still arrives out of order is found or inserted by binary
//! search, so the bins are a map's for any order. Every chunk a walk
//! decodes goes into one buffer the fetcher keeps.
//!
//! The slow reference implementations ([`Tsdb::query_naive`],
//! [`Tsdb::downsample_naive`]) live in the child module `oracle`, kept
//! public as differential-test oracles.
//!
//! A rollup level is one more segment — stats chunks instead of sample
//! chunks — and [`Tsdb::downsample_tiered`] reads it through the same
//! plan and fetcher, folding a chunk's stored stats where one query bin
//! covers it whole.
//!
//! Crash recovery = [`Tsdb::open`]: open every `seg-*.tsdb` and
//! `roll-*.tsdb` (ignoring `*.tmp` leftovers) — a file of the wrong
//! kind or version fails the open before anything is deleted — then
//! finish committed raw drops and delete superseded level files, open
//! the WAL (which truncates any torn tail), and replay the records of
//! its surviving frames into the memtable.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use supremm_obs::{Counter, Gauge, Histogram, ObsHandle, Timer};

use crate::retention::{
    roll_file_name, roll_id, RetentionManifest, RetentionPolicy, RetentionReport,
};
use crate::segment::{ChunkRef, SegmentReader, SegmentWriter, TsdbError, KIND_SERIES, KIND_STATS};
use crate::stats::{BinAcc, ChunkStats};
use crate::wal::Wal;
use crate::{codec, durable};

mod memtable;
mod oracle;

use memtable::Memtable;

/// Identity of one series: a (host, metric) pair.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    pub host: String,
    pub metric: String,
}

impl SeriesKey {
    pub fn new(host: impl Into<String>, metric: impl Into<String>) -> SeriesKey {
        SeriesKey { host: host.into(), metric: metric.into() }
    }
}

/// A query answer: each matching series with its `(ts, value)` points.
type SeriesPoints = Vec<(SeriesKey, Vec<(u64, f64)>)>;

/// Predicate over series: `None` matches everything.
#[derive(Debug, Clone, Default)]
pub struct Selector {
    pub host: Option<String>,
    pub metric: Option<String>,
}

impl Selector {
    pub fn all() -> Selector {
        Selector::default()
    }

    pub fn host(host: impl Into<String>) -> Selector {
        Selector { host: Some(host.into()), metric: None }
    }

    pub fn metric(metric: impl Into<String>) -> Selector {
        Selector { host: None, metric: Some(metric.into()) }
    }

    pub fn matches(&self, key: &SeriesKey) -> bool {
        self.accepts(&key.host, &key.metric)
    }

    /// [`Selector::matches`] on names no `SeriesKey` owns yet.
    pub(crate) fn accepts(&self, host: &str, metric: &str) -> bool {
        self.host.as_deref().is_none_or(|h| h == host)
            && self.metric.as_deref().is_none_or(|m| m == metric)
    }
}

/// Downsampling aggregate for [`Tsdb::downsample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Mean,
    Sum,
    Min,
    Max,
    /// Last sample in the bin (by timestamp).
    Last,
    /// Number of samples in the bin.
    Count,
}

impl Agg {
    /// Sum/Mean read the sequential f64 sum, which only decomposes at
    /// prefix boundaries — chunk folds for them require an empty bin.
    fn needs_sequential_sum(self) -> bool {
        matches!(self, Agg::Sum | Agg::Mean)
    }

    /// Extract this aggregate's value from a finished bin. Both the
    /// naive and the pre-aggregated path end here, which is what makes
    /// them bit-identical.
    fn finish(self, acc: &BinAcc) -> f64 {
        match self {
            Agg::Mean => acc.sum / acc.count as f64,
            Agg::Sum => acc.sum,
            Agg::Min => acc.min,
            Agg::Max => acc.max,
            Agg::Last => acc.last,
            Agg::Count => acc.count as f64,
        }
    }
}

/// Tuning knobs; the defaults suit the warehouse's ten-minute samples.
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Max samples per compressed chunk at flush time.
    pub chunk_samples: usize,
    /// Max chunks per segment block (one CRC + index entry per block).
    pub block_chunks: usize,
    /// Retention & rollup tiers (see [`crate::retention`]); the default
    /// keeps every raw sample forever, exactly the pre-retention
    /// behavior.
    pub retention: RetentionPolicy,
}

impl Default for DbOptions {
    fn default() -> DbOptions {
        DbOptions { chunk_samples: 2048, block_chunks: 64, retention: RetentionPolicy::default() }
    }
}

/// Point-in-time store statistics (what `repro` reports in the bench).
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    pub segments: usize,
    pub segment_bytes: u64,
    pub wal_bytes: u64,
    pub mem_series: usize,
    pub mem_samples: u64,
    /// Samples recovered from the WAL at open.
    pub recovered_samples: u64,
    /// Torn-tail bytes discarded at open.
    pub recovered_truncated_bytes: u64,
    /// Rollup level files on disk: one per level that has rolled.
    pub rollup_segments: usize,
    /// Raw samples below this data timestamp are logically dropped
    /// (the retention watermark; 0 when retention never ran).
    pub raw_watermark: u64,
}

/// The embedded time-series store. One instance owns one directory.
pub struct Tsdb {
    dir: PathBuf,
    wal: Wal,
    mem: Memtable,
    segments: Vec<(u64, SegmentReader)>, // (seq, reader), ascending seq
    next_seq: u64,
    /// Rollup tiers: bin_secs → `(seq, reader)` of the level's file, its
    /// highest seq (see [`crate::retention`]).
    rollups: BTreeMap<u64, (u64, SegmentReader)>,
    /// Durable retention watermarks (see [`crate::retention`]).
    manifest: RetentionManifest,
    opts: DbOptions,
    /// Bumped on every mutation; serve-layer caches key on this.
    generation: u64,
    recovered_samples: u64,
    recovered_truncated_bytes: u64,
    met: TsdbMetrics,
}

/// Obs handles cached at open so the write/query hot paths never touch
/// the registry lock (see DESIGN.md § "Self-observability").
struct TsdbMetrics {
    wal_fsync_micros: Histogram,
    mem_samples: Gauge,
    segments: Gauge,
    chunks: Gauge,
    flush_micros: Histogram,
    flush_bytes_total: Counter,
    compact_micros: Histogram,
    compact_bytes_total: Counter,
    query_index_segments_total: Counter,
    query_blocks_read_total: Counter,
    query_bytes_verified_total: Counter,
    /// Segment sources a query had to merge into a series' run, because
    /// they overlapped what the run already held: overlapping segments,
    /// or a segment whose chunks are out of order, which a compaction
    /// would rewrite. A memtable window that reaches back into the
    /// segments merges too but does not count: compaction leaves it.
    query_merged_sources_total: Counter,
    retention_pass_micros: Histogram,
    rollup_segments_written_total: Counter,
    rollup_bins_written_total: Counter,
    retention_raw_dropped_total: Counter,
    retention_rollup_dropped_total: Counter,
    raw_watermark: Gauge,
    rollup_segments: Gauge,
    tier_hit_raw: Counter,
    /// One hit counter per rollup level, keyed by bin_secs — built at
    /// open from the policy plus the levels found on disk.
    tier_hit_rollup: BTreeMap<u64, Counter>,
    /// The registry the store was opened with, for its events.
    obs: ObsHandle,
}

impl TsdbMetrics {
    fn new(obs: ObsHandle, tier_bins: &[u64]) -> TsdbMetrics {
        TsdbMetrics {
            wal_fsync_micros: obs.histogram("tsdb_wal_fsync_micros"),
            mem_samples: obs.gauge("tsdb_memtable_samples"),
            segments: obs.gauge("tsdb_segments"),
            chunks: obs.gauge("tsdb_indexed_chunks"),
            flush_micros: obs.histogram("tsdb_flush_micros"),
            flush_bytes_total: obs.counter("tsdb_flush_bytes_total"),
            compact_micros: obs.histogram("tsdb_compact_micros"),
            compact_bytes_total: obs.counter("tsdb_compact_bytes_total"),
            query_index_segments_total: obs.counter("tsdb_query_index_segments_total"),
            query_blocks_read_total: obs.counter("tsdb_query_blocks_read_total"),
            query_bytes_verified_total: obs.counter("tsdb_query_bytes_verified_total"),
            query_merged_sources_total: obs.counter("tsdb_query_merged_sources_total"),
            retention_pass_micros: obs.histogram("tsdb_retention_pass_micros"),
            rollup_segments_written_total: obs.counter("tsdb_retention_rollup_segments_total"),
            rollup_bins_written_total: obs.counter("tsdb_retention_rollup_bins_total"),
            retention_raw_dropped_total: obs.counter("tsdb_retention_dropped_raw_segments_total"),
            retention_rollup_dropped_total: obs
                .counter("tsdb_retention_dropped_rollup_segments_total"),
            raw_watermark: obs.gauge("tsdb_retention_raw_watermark"),
            rollup_segments: obs.gauge("tsdb_rollup_segments"),
            tier_hit_raw: obs.counter("tsdb_query_tier_hits_total{tier=\"raw\"}"),
            tier_hit_rollup: tier_bins
                .iter()
                .map(|&b| {
                    // suplint: allow(R7, R8) -- tier labels are data-driven (one per configured rollup level); registered once at open, never per query
                    (b, obs.counter(&format!("tsdb_query_tier_hits_total{{tier=\"rollup_{b}\"}}")))
                })
                .collect(),
            obs,
        }
    }
}

fn as_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

fn seg_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let num = name.strip_prefix("seg-")?.strip_suffix(".tsdb")?;
    num.parse().ok()
}

/// Open one segment file, which must be of `kind`.
fn open_kind(path: &Path, kind: u8) -> Result<SegmentReader, TsdbError> {
    let reader = SegmentReader::open(path)?;
    if reader.kind != kind {
        return Err(TsdbError::Corrupt(format!(
            "{}: segment kind {}, expected {kind}; the file is left untouched",
            path.display(),
            reader.kind
        )));
    }
    Ok(reader)
}

/// `(seq, path)` of every segment wholly below `dropped_before` — the
/// only ones retention may unlink (drops are whole-file).
fn wholly_below(readers: &[(u64, SegmentReader)], dropped_before: u64) -> Vec<(u64, PathBuf)> {
    readers
        .iter()
        .filter(|(_, r)| r.time_range().is_some_and(|(_, max)| max < dropped_before))
        .map(|(seq, r)| (*seq, r.path().to_path_buf()))
        .collect()
}

/// One series' share of a read plan: where its samples in the window
/// live. `segs` is oldest segment first — the last-write-wins order.
#[derive(Default)]
struct SeriesPlan<'a> {
    /// `(slot in Tsdb::segments, chunk refs overlapping the window in
    /// index order)`; never an empty ref list.
    segs: Vec<(usize, Vec<ChunkRef>)>,
    /// The series' memtable samples inside the window, when there are
    /// any.
    mem: Option<&'a [(u64, u64)]>,
}

impl SeriesPlan<'_> {
    /// The samples planned: the memtable window's plus each planned
    /// chunk's stored count, which a sample costs at least a byte of the
    /// chunk to back. It sizes buffers only: a foreign chunk's count may
    /// be zero.
    fn planned_samples(&self) -> u64 {
        let chunks = self.segs.iter().flat_map(|(_, refs)| refs);
        let counts = chunks.map(|r| r.stats.count.min(u64::from(r.len)));
        counts.fold(self.mem.map_or(0, |mem| mem.len() as u64), u64::saturating_add)
    }
}

/// `(host, metric)` → plan, in the order answers are returned (the
/// same order `SeriesKey` sorts in) and the order segments store chunks.
type ReadPlan<'a> = BTreeMap<(&'a str, &'a str), SeriesPlan<'a>>;

/// One series as [`Tsdb::walk`] yields it: `(host, metric, samples)`,
/// the samples strictly ascending and merged last-write-wins.
type WalkedSeries<'a> = (&'a str, &'a str, Vec<(u64, u64)>);

/// Reads chunks for one walk of one plan. Per `(segment, block)` the
/// plan touches it reads one *extent* — the payload bytes from the
/// first to the last planned chunk of that block — at the first decode
/// that needs it, and holds at most one extent per segment, never more
/// than a block. Every chunk is verified against its own CRC as it is
/// decoded. A plan walked series-major over engine-written segments
/// asks for each block in one consecutive stretch, so each extent is
/// read once; any other order only costs a re-read.
struct BlockFetcher<'a> {
    extents: Extents<'a>,
    /// The last decoded chunk: one buffer for the whole walk.
    chunk: Vec<(u64, u64)>,
    /// The last decoded stats chunk's bins.
    bins: Vec<(u64, ChunkStats)>,
}

/// The extents a [`BlockFetcher`] reads and holds.
struct Extents<'a> {
    segments: &'a [(u64, SegmentReader)],
    /// Per slot of `segments`, per block of it: the payload span
    /// `(from, to)` that covers the block's planned chunks. Empty for a
    /// slot the plan leaves alone.
    planned: Vec<Vec<(u32, u32)>>,
    /// Per slot of `segments`: the extent held, as `(block_ix, payload
    /// offset it starts at, bytes)`.
    held: Vec<Option<(u32, u32, Vec<u8>)>>,
    /// The store's `tsdb_query_*` counters, when the walk is a query's.
    counters: Option<&'a TsdbMetrics>,
}

impl<'a> Extents<'a> {
    /// The reader of segment `slot` and the extent holding the chunk `r`
    /// addresses, with the payload offset it starts at — read now
    /// unless it is the one held.
    fn holding(
        &mut self,
        slot: usize,
        r: &ChunkRef,
    ) -> Result<(&'a SegmentReader, u32, &[u8]), TsdbError> {
        let (reader, held) = (&self.segments[slot].1, &mut self.held[slot]);
        let (_, from, bytes) = match held.take() {
            Some(extent) if extent.0 == r.block_ix => held.insert(extent),
            stale => {
                let (from, to) =
                    self.planned[slot].get(r.block_ix as usize).copied().unwrap_or_default();
                let mut bytes = stale.map_or_else(Vec::new, |(_, _, bytes)| bytes);
                reader.read_extent(r.block_ix, from..to, &mut bytes)?;
                if let Some(met) = self.counters {
                    met.query_blocks_read_total.inc();
                }
                held.insert((r.block_ix, from, bytes))
            }
        };
        if let Some(met) = self.counters {
            met.query_bytes_verified_total.add(u64::from(r.len));
        }
        Ok((reader, *from, bytes))
    }
}

impl BlockFetcher<'_> {
    /// Decode the chunk `r` addresses in segment `slot` — a chunk of
    /// the plan this fetcher was made from. Its samples are valid until
    /// the next decode.
    fn decode(&mut self, slot: usize, r: &ChunkRef) -> Result<&[(u64, u64)], TsdbError> {
        let (reader, from, bytes) = self.extents.holding(slot, r)?;
        reader.decode_chunk_in_extent(bytes, from, r, &mut self.chunk)?;
        Ok(&self.chunk)
    }

    /// The encoded bytes of the chunk `r` addresses in segment `slot`,
    /// checked against its CRC; valid until the next read.
    fn bytes(&mut self, slot: usize, r: &ChunkRef) -> Result<&[u8], TsdbError> {
        let (reader, from, bytes) = self.extents.holding(slot, r)?;
        reader.verified_chunk(bytes, from, r)
    }

    /// [`BlockFetcher::decode`] for a stats chunk of a level file: its
    /// bins, valid until the next decode.
    fn decode_stats(
        &mut self,
        slot: usize,
        r: &ChunkRef,
    ) -> Result<&[(u64, ChunkStats)], TsdbError> {
        let (reader, from, bytes) = self.extents.holding(slot, r)?;
        let (column, bins) = (&mut self.chunk, &mut self.bins);
        reader.decode_verified(bytes, from, r, |bytes, pos| {
            codec::decode_stats_chunk_into(bytes, pos, column, bins)
        })?;
        Ok(&self.bins)
    }
}

/// One source's append to a series' strictly-ascending run — the one
/// last-write-wins append the memtable and every walk share. Samples
/// past the run's end are pushed. From the first one that is not, the
/// rest of the source, over as many [`Append::extend`] calls as it
/// takes, is held back; [`Append::finish`] sorts it once (stable, the
/// last occurrence of a timestamp wins) and merges it once with the
/// run's tail, the source winning ties. So a source costs its pushes
/// when it ascends past the run, and O(n log n + m) otherwise, for its
/// n held-back samples and the m of the run they reach back into.
struct Append<'r> {
    run: &'r mut Vec<(u64, u64)>,
    /// The run's length before the source.
    before: usize,
    /// The source's samples from the first one not past the run's end.
    rest: Vec<(u64, u64)>,
}

impl<'r> Append<'r> {
    #[inline]
    fn to(run: &'r mut Vec<(u64, u64)>) -> Append<'r> {
        let before = run.len();
        Append { run, before, rest: Vec::new() }
    }

    /// Add the source's next samples, in the order given. Inlined, as
    /// `finish` is: a replayed or live record is one sample, and a call
    /// per record made a WAL tail's replay ≈ 10 % slower (2-vCPU x86_64).
    #[inline]
    fn extend(&mut self, samples: impl IntoIterator<Item = (u64, u64)>) {
        let (run, rest) = (&mut *self.run, &mut self.rest);
        let mut samples = samples.into_iter();
        if rest.is_empty() {
            // A batch reserves once for what it says it holds; a
            // one-sample record skips the call, which cost a WAL tail's
            // replay ≈ 7 % on a 2-vCPU x86_64 box.
            let (batch, _) = samples.size_hint();
            if batch > 1 {
                run.reserve(batch);
            }
            for sample in samples.by_ref() {
                if run.last().is_some_and(|&(end, _)| sample.0 <= end) {
                    rest.push(sample);
                    break;
                }
                run.push(sample);
            }
        }
        rest.extend(samples);
    }

    /// Merge in what was held back. Returns how many timestamps the
    /// source added to the run, and whether it had to be merged.
    #[inline]
    fn finish(self) -> (u64, bool) {
        let Append { run, before, rest } = self;
        let merged = !rest.is_empty();
        if merged {
            merge_into(run, rest);
        }
        ((run.len() - before) as u64, merged)
    }
}

/// Sort `rest` (stable, the last occurrence of a timestamp wins) and
/// merge it into the strictly-ascending `run`, `rest` winning ties.
fn merge_into(run: &mut Vec<(u64, u64)>, mut rest: Vec<(u64, u64)>) {
    rest.sort_by_key(|&(ts, _)| ts);
    rest.dedup_by(|later, earlier| {
        let same = later.0 == earlier.0;
        if same {
            earlier.1 = later.1;
        }
        same
    });
    let Some(&(first, _)) = rest.first() else { return };
    let overlap = run.partition_point(|&(ts, _)| ts < first);
    let mut tail = run.split_off(overlap).into_iter().peekable();
    run.reserve(tail.len() + rest.len());
    for sample in rest {
        while let Some(older) = tail.next_if(|older| older.0 < sample.0) {
            run.push(older);
        }
        tail.next_if(|older| older.0 == sample.0);
        run.push(sample);
    }
    run.extend(tail);
}

/// One planned series' samples in `[t0, t1]`, strictly ascending and
/// last-write-wins: each segment's planned chunks in index order,
/// oldest segment first, then the memtable window, each appended as
/// one source. Sources that ascend without overlapping — every
/// engine-written store — are pushed and never merged; any other
/// source costs one merge with the run's tail, so a series costs at
/// most O(samples × sources), never one merge per chunk. A query's walk
/// counts its merged segment sources in `tsdb_query_merged_sources_total`.
fn walk_series(
    series: &SeriesPlan<'_>,
    fetch: &mut BlockFetcher<'_>,
    t0: u64,
    t1: u64,
) -> Result<Vec<(u64, u64)>, TsdbError> {
    let planned = usize::try_from(series.planned_samples()).unwrap_or(0);
    let mut run: Vec<(u64, u64)> = Vec::with_capacity(planned);
    let mut merged = 0u64;
    for (slot, refs) in &series.segs {
        let mut source = Append::to(&mut run);
        for r in refs {
            let samples = fetch.decode(*slot, r)?;
            source.extend(samples.iter().copied().filter(|&(ts, _)| ts >= t0 && ts <= t1));
        }
        merged += u64::from(source.finish().1);
    }
    if let Some(mem) = series.mem {
        let mut source = Append::to(&mut run);
        source.extend(mem.iter().copied());
        source.finish();
    }
    if let Some(met) = fetch.extents.counters.filter(|_| merged > 0) {
        met.query_merged_sources_total.add(merged);
    }
    Ok(run)
}

/// Whether `(first ts, last ts)` spans ascend without touching: no two
/// of them can hold the same timestamp.
fn ascending_disjoint(spans: impl IntoIterator<Item = (u64, u64)>) -> bool {
    let mut prev_last: Option<u64> = None;
    spans.into_iter().all(|(first, last)| prev_last.replace(last).is_none_or(|p| p < first))
}

/// One series' bins, ascending by start: what a map from bin start to
/// [`BinAcc`] would hold, in one vector. Every downsample path hands a
/// series its samples in time order, so a sample's bin is nearly always
/// the last one or a new one past it; any other start is found or
/// inserted by binary search, so any arrival order still gives the
/// map's bins, each fed in the same order.
#[derive(Default)]
struct Bins(Vec<(u64, BinAcc)>);

impl Bins {
    /// Position of the bin starting at `start`, made empty if missing.
    fn slot(&mut self, start: u64) -> usize {
        let bins = &mut self.0;
        let at = match bins.last() {
            Some(&(last, _)) if last == start => return bins.len() - 1,
            Some(&(last, _)) if last > start => bins.partition_point(|&(s, _)| s < start),
            _ => bins.len(),
        };
        if bins.get(at).is_none_or(|&(s, _)| s != start) {
            bins.insert(at, (start, BinAcc::new()));
        }
        at
    }

    /// The accumulator of the bin starting at `start`, made empty if
    /// missing.
    fn at(&mut self, start: u64) -> &mut BinAcc {
        let at = self.slot(start);
        &mut self.0[at].1
    }
}

/// Add samples to `bins` one by one, in the order given, each to the
/// `bin_secs`-wide bin holding it; returns whether there was any. A
/// bin start is divided out and looked up only when a sample leaves the
/// bin the previous one went to.
fn bin_run(bins: &mut Bins, bin_secs: u64, run: impl IntoIterator<Item = (u64, u64)>) -> bool {
    // `(start, end, slot)` of the open bin; `end` saturates, which only
    // costs a lookup per sample in the last bin of the u64 range.
    let mut open: Option<(u64, u64, usize)> = None;
    for (ts, bits) in run {
        let at = match open {
            Some((start, end, at)) if start <= ts && ts < end => at,
            _ => {
                let start = ts / bin_secs * bin_secs;
                let at = bins.slot(start);
                open = Some((start, start.saturating_add(bin_secs), at));
                at
            }
        };
        bins.0[at].1.add(f64::from_bits(bits));
    }
    open.is_some()
}

/// Bin one planned series' samples in `[t0, t1]` into `bins`; returns
/// whether any sample contributed. When the series' sources are
/// disjoint in time, each segment's chunks ascend and every chunk's
/// samples do too, a chunk that one bin fully covers folds its stored
/// statistics and is never decoded; otherwise overwrites are possible
/// and the series' walked run ([`walk_series`]) is binned instead.
/// Either way the samples reach `bins` in time order.
///
/// `bins` may arrive pre-seeded with rollup-tier folds for older time:
/// the raw walk is strictly newer, so adding on top preserves time
/// order, and a Sum/Mean bin seeded by a rollup fails `can_fold` and
/// decodes its raw chunk, continuing the sequential sum sample by
/// sample.
fn fold_planned(
    series: &SeriesPlan<'_>,
    fetch: &mut BlockFetcher<'_>,
    t0: u64,
    t1: u64,
    bin_secs: u64,
    agg: Agg,
    bins: &mut Bins,
) -> Result<bool, TsdbError> {
    enum Source<'p, 'a> {
        Seg(usize, &'p [ChunkRef]),
        Mem(&'a [(u64, u64)]),
    }
    // `(first ts, last ts, source)` clipped to the window.
    let mut sources: Vec<(u64, u64, Source<'_, '_>)> = Vec::with_capacity(series.segs.len() + 1);
    let mut orderly = true;
    for (slot, refs) in &series.segs {
        orderly &= ascending_disjoint(refs.iter().map(|r| (r.min_ts, r.max_ts)));
        // Unfoldable stats on a chunk that holds samples (an empty one
        // is its one-byte count) mean they may be out of order.
        orderly &= refs.iter().all(|r| r.stats.count > 0 || r.len <= 1);
        let first = refs.iter().map(|r| r.min_ts).min().unwrap_or(0).max(t0);
        let last = refs.iter().map(|r| r.max_ts).max().unwrap_or(0).min(t1);
        sources.push((first, last, Source::Seg(*slot, refs)));
    }
    if let Some(mem) = series.mem {
        if let (Some(&(first, _)), Some(&(last, _))) = (mem.first(), mem.last()) {
            sources.push((first, last, Source::Mem(mem)));
        }
    }
    // Walk order is ascending time; it only means something when no two
    // sources can hold the same timestamp.
    sources.sort_unstable_by_key(|&(first, last, _)| (first, last));
    let window_bins = (t1 / bin_secs).saturating_sub(t0 / bin_secs).saturating_add(1);
    // An upper bound on the bins this series adds: one per sample
    // planned, and no more than the window holds.
    let planned = series.planned_samples().min(window_bins);
    bins.0.reserve(usize::try_from(planned).unwrap_or(0));
    if !orderly || !ascending_disjoint(sources.iter().map(|&(first, last, _)| (first, last))) {
        let run = walk_series(series, fetch, t0, t1)?;
        return Ok(bin_run(bins, bin_secs, run));
    }
    let needs_sum = agg.needs_sequential_sum();
    let mut added = false;
    for (_, _, source) in sources {
        match source {
            Source::Mem(mem) => added |= bin_run(bins, bin_secs, mem.iter().copied()),
            Source::Seg(slot, refs) => {
                for r in refs {
                    let fully_inside = r.min_ts >= t0 && r.max_ts <= t1;
                    let single_bin = r.min_ts / bin_secs == r.max_ts / bin_secs;
                    if fully_inside && single_bin && r.stats.count > 0 {
                        let acc = bins.at(r.min_ts / bin_secs * bin_secs);
                        if acc.can_fold(needs_sum) {
                            acc.fold_chunk(&r.stats);
                            added = true;
                            continue;
                        }
                    }
                    let samples = fetch.decode(slot, r)?.iter().copied();
                    added |=
                        bin_run(bins, bin_secs, samples.filter(|&(ts, _)| ts >= t0 && ts <= t1));
                }
            }
        }
    }
    Ok(added)
}

/// Fold one planned series of a rollup level into `bins` at query bin
/// `q`. `window` is `(lo, hi, t0, t1)`: the level serves bin starts in
/// `[lo, hi)`, and a `level_bin`-wide bin starting at `bs` overlaps the
/// query when `bs <= t1 && bs + level_bin − 1 >= t0`; each such bin
/// folds into the query bin holding its start. A chunk that lies inside
/// both and that one query bin covers whole folds its stored stats — the
/// fold of its bins — under the same `can_fold` gate as a raw chunk, so
/// the answer is the bin-by-bin one to the bit; any other chunk is
/// decoded. Returns whether any bin contributed.
fn fold_level(
    series: &SeriesPlan<'_>,
    fetch: &mut BlockFetcher<'_>,
    (lo, hi, t0, t1): (u64, u64, u64, u64),
    level_bin: u64,
    q: u64,
    agg: Agg,
    bins: &mut Bins,
) -> Result<bool, TsdbError> {
    let (first, last) = (t0.max(lo), t1.min(hi - 1));
    let needs_sum = agg.needs_sequential_sum();
    let mut added = false;
    for (slot, refs) in &series.segs {
        for r in refs {
            let fully_inside = r.min_ts >= first && r.max_ts <= last;
            if fully_inside && r.min_ts / q == r.max_ts / q && r.stats.count > 0 {
                let acc = bins.at(r.min_ts / q * q);
                if acc.can_fold(needs_sum) {
                    acc.fold_chunk(&r.stats);
                    added = true;
                    continue;
                }
            }
            for (bs, stats) in fetch.decode_stats(*slot, r)? {
                if *bs < lo
                    || *bs >= hi
                    || *bs > t1
                    || bs.saturating_add(level_bin.saturating_sub(1)) < t0
                {
                    continue;
                }
                bins.at(bs / q * q).fold_chunk(stats);
                added = true;
            }
        }
    }
    Ok(added)
}

/// Seal a stream of series, in `SeriesKey` order, into
/// `seg-{seq:06}.tsdb`; `None` (and no file) when it held no sample.
/// Each run is cut into chunks and encoded as it arrives, so only the
/// encoded segment accumulates.
fn write_segment<'a, R: AsRef<[(u64, u64)]>>(
    dir: &Path,
    seq: u64,
    opts: &DbOptions,
    series: impl Iterator<Item = Result<(&'a str, &'a str, R), TsdbError>>,
) -> Result<Option<SegmentReader>, TsdbError> {
    let mut writer = SegmentWriter::new(KIND_SERIES);
    for item in series {
        let (host, metric, run) = item?;
        for chunk in run.as_ref().chunks(opts.chunk_samples.max(1)) {
            if writer.push_chunk(host, metric, chunk) >= opts.block_chunks.max(1) {
                writer.close_block();
            }
        }
    }
    if writer.is_empty() {
        return Ok(None);
    }
    // suplint: allow(R7) -- filename built once per segment seal
    let path = dir.join(format!("seg-{seq:06}.tsdb"));
    writer.seal_reader(&path).map(Some)
}

/// A level's next file, as the roll pass writes it.
///
/// A series' bins are cut into stats chunks at every multiple of `cell`
/// seconds and every `chunk_samples` bins, so a chunk's bytes depend on
/// the bins of its cell alone. A chunk of the level's file whose cell
/// lies inside `keep` is copied as it is — checked against its CRC, not
/// decoded; any other is decoded, and its bins in `keep` are cut afresh
/// with the new ones.
struct LevelRewrite<'a> {
    bin: u64,
    /// The width of the cells chunks are cut on.
    cell: u64,
    /// Raw samples at or past this roll into new bins.
    from: u64,
    /// The level file's bins that carry over: `[dropped_before,
    /// rolled_through)`.
    keep: (u64, u64),
    /// The level file's series with chunks in `keep`, in series order,
    /// and the fetcher that reads them.
    old: std::iter::Peekable<
        std::collections::btree_map::IntoIter<(&'a str, &'a str), SeriesPlan<'a>>,
    >,
    fetch: BlockFetcher<'a>,
    writer: SegmentWriter,
    /// Bins rolled from raw samples (not carried over).
    new_bins: u64,
}

impl LevelRewrite<'_> {
    /// Carry over the level file's series that sort before `key` — all
    /// that are left, for `None` — through the scratch `cut`.
    fn copy_old(
        &mut self,
        key: Option<(&str, &str)>,
        opts: &DbOptions,
        cut: &mut Vec<(u64, ChunkStats)>,
    ) -> Result<(), TsdbError> {
        while let Some(((host, metric), old)) =
            self.old.next_if(|(at, _)| key.is_none_or(|key| *at < key))
        {
            self.series(host, metric, Some(&old), &[], opts, cut)?;
        }
        Ok(())
    }

    /// Write one series: what of the level file's `old` chunks carries
    /// over, then its `new` bins, which start past them. `cut` is
    /// scratch for the bins to be cut into chunks.
    fn series(
        &mut self,
        host: &str,
        metric: &str,
        old: Option<&SeriesPlan<'_>>,
        new: &[(u64, ChunkStats)],
        opts: &DbOptions,
        cut: &mut Vec<(u64, ChunkStats)>,
    ) -> Result<(), TsdbError> {
        let (lo, hi) = self.keep;
        cut.clear();
        for (slot, refs) in old.iter().flat_map(|old| &old.segs) {
            for r in refs {
                let start = r.min_ts / self.cell * self.cell;
                let end = start.saturating_add(self.cell);
                if r.max_ts < end && lo <= start && end <= hi {
                    self.push(host, metric, cut, opts);
                    cut.clear();
                    let bytes = self.fetch.bytes(*slot, r)?;
                    let n_chunks = self.writer.push_chunk_bytes(host, metric, r, bytes);
                    self.close_full_block(n_chunks, opts);
                } else {
                    let bins = self.fetch.decode_stats(*slot, r)?;
                    cut.extend(bins.iter().filter(|&&(start, _)| lo <= start && start < hi));
                }
            }
        }
        cut.extend_from_slice(new);
        self.push(host, metric, cut, opts);
        Ok(())
    }

    /// Write `bins` as stats chunks cut at every cell boundary and every
    /// `chunk_samples` bins; no bins, no chunk.
    fn push(&mut self, host: &str, metric: &str, bins: &[(u64, ChunkStats)], opts: &DbOptions) {
        let mut rest = bins;
        while let Some(&(first, _)) = rest.first() {
            let end = (first / self.cell * self.cell).saturating_add(self.cell);
            let n = rest.partition_point(|&(start, _)| start < end);
            let (chunk, tail) = rest.split_at(n.clamp(1, opts.chunk_samples.max(1)));
            let n_chunks = self.writer.push_stats_chunk(host, metric, self.bin, chunk);
            self.close_full_block(n_chunks, opts);
            rest = tail;
        }
    }

    fn close_full_block(&mut self, n_chunks: usize, opts: &DbOptions) {
        if n_chunks >= opts.block_chunks.max(1) {
            self.writer.close_block();
        }
    }
}

impl Tsdb {
    pub fn open(dir: &Path) -> Result<Tsdb, TsdbError> {
        Tsdb::open_with(dir, DbOptions::default())
    }

    pub fn open_with(dir: &Path, opts: DbOptions) -> Result<Tsdb, TsdbError> {
        Tsdb::open_with_obs(dir, opts, supremm_obs::global())
    }

    /// Open reporting into an explicit registry instead of the
    /// process-wide [`supremm_obs::global`] one (test isolation, or one
    /// registry per serve instance).
    pub fn open_with_obs(dir: &Path, opts: DbOptions, obs: ObsHandle) -> Result<Tsdb, TsdbError> {
        opts.retention.validate().map_err(TsdbError::Policy)?;
        fs::create_dir_all(dir)?;
        let manifest = RetentionManifest::load(dir)?.unwrap_or_default();
        let mut segments = Vec::new();
        let mut rolls: Vec<(u64, u64, SegmentReader)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if let Some(seq) = seg_seq(&path) {
                segments.push((seq, open_kind(&path, KIND_SERIES)?));
            } else if let Some((bin, seq)) = roll_id(&path) {
                rolls.push((bin, seq, open_kind(&path, KIND_STATS)?));
            }
        }
        // Every file opened: only now may open delete any. A raw segment
        // wholly below the watermark is a committed drop a crash cut
        // short, and a level file below its level's highest seq is
        // superseded.
        for (seq, path) in wholly_below(&segments, manifest.raw_dropped_before) {
            segments.retain(|(s, _)| *s != seq);
            durable::remove_file(&path)?;
        }
        segments.sort_by_key(|&(seq, _)| seq);
        let next_seq = segments.last().map(|&(seq, _)| seq + 1).unwrap_or(1);
        rolls.sort_by_key(|&(bin, seq, _)| (bin, seq));
        let mut rollups: BTreeMap<u64, (u64, SegmentReader)> = BTreeMap::new();
        for (bin, seq, reader) in rolls {
            if let Some((_, superseded)) = rollups.insert(bin, (seq, reader)) {
                durable::remove_file(superseded.path())?;
            }
        }

        let mut mem = Memtable::default();
        let mut recovered_samples = 0u64;
        let (mut wal, recovered_truncated_bytes) = Wal::replay(&dir.join("wal.log"), |frame| {
            recovered_samples += frame.n_samples() as u64;
            mem.extend_frame(frame);
        })
        .map_err(TsdbError::Io)?;
        wal.observe(
            obs.histogram("tsdb_wal_append_micros"),
            obs.counter("tsdb_wal_zero_fill_bytes_total"),
        );

        let tier_bins: Vec<u64> = {
            let mut bins: BTreeSet<u64> =
                opts.retention.levels.iter().map(|l| l.bin_secs).collect();
            bins.extend(rollups.keys().copied());
            bins.into_iter().collect()
        };
        let met = TsdbMetrics::new(obs, &tier_bins);
        let db = Tsdb {
            dir: dir.to_path_buf(),
            wal,
            mem,
            segments,
            next_seq,
            rollups,
            manifest,
            opts,
            generation: 0,
            recovered_samples,
            recovered_truncated_bytes,
            met,
        };
        db.met.raw_watermark.set(as_i64(db.manifest.raw_dropped_before));
        db.update_storage_gauges();
        Ok(db)
    }

    /// Refresh the segment / chunk / memtable gauges after a structural
    /// change (open, flush, compact, retention). Chunks are counted from
    /// the block entries, not the series indexes.
    fn update_storage_gauges(&self) {
        self.met.segments.set(as_i64(self.segments.len() as u64));
        let blocks = self.segments.iter().flat_map(|(_, r)| &r.entries);
        let chunks: u64 = blocks.map(|e| u64::from(e.n_chunks)).sum();
        self.met.chunks.set(as_i64(chunks));
        self.met.mem_samples.set(as_i64(self.mem.samples()));
        self.met.rollup_segments.set(as_i64(self.rollups.len() as u64));
    }

    /// Monotone mutation counter: bumped by every append, flush, and
    /// compaction. A cached response computed at generation `g` is valid
    /// exactly while `generation() == g`.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Append one sample. Buffered: call [`Tsdb::sync`] to make durable.
    pub fn append(&mut self, host: &str, metric: &str, ts: u64, value: f64) -> io::Result<()> {
        self.append_batch(host, metric, &[(ts, value)])
    }

    /// Append a batch for one series (one WAL record). For a series the
    /// store has seen, nothing is allocated on the way in.
    pub fn append_batch(
        &mut self,
        host: &str,
        metric: &str,
        samples: &[(u64, f64)],
    ) -> io::Result<()> {
        if samples.is_empty() {
            return Ok(());
        }
        let bits = || samples.iter().map(|&(ts, v)| (ts, v.to_bits()));
        self.wal.append_samples(host, metric, bits())?;
        self.mem.extend(host, metric, bits());
        self.met.mem_samples.set(as_i64(self.mem.samples()));
        self.generation += 1;
        Ok(())
    }

    /// Durability ack: when this returns, every appended sample survives
    /// any crash.
    pub fn sync(&mut self) -> io::Result<()> {
        let t = Timer::start();
        self.wal.sync()?;
        self.met.wal_fsync_micros.observe_timer(t);
        Ok(())
    }

    /// Seal the memtable into a new immutable segment and reset the WAL.
    /// No-op on an empty memtable. Implies [`Tsdb::sync`] semantics — on
    /// return, all data is durable in segment form.
    pub fn flush(&mut self) -> Result<(), TsdbError> {
        if self.mem.is_empty() {
            // Still reset a non-empty WAL (e.g. deletes-only future use).
            if !self.wal.is_empty() {
                self.wal.reset()?;
            }
            return Ok(());
        }
        let t = Timer::start();
        let seq = self.next_seq;
        let series = self.mem.series(None).map(|(host, metric, run)| Ok((host, metric, run)));
        let reader = write_segment(&self.dir, seq, &self.opts, series)?;
        self.met.flush_bytes_total.add(reader.as_ref().map_or(0, SegmentReader::file_len));
        self.segments.extend(reader.map(|r| (seq, r)));
        self.next_seq = seq + 1;
        // Segment is durable; only now is it safe to drop the WAL.
        self.wal.reset()?;
        self.mem.clear();
        self.generation += 1;
        self.met.flush_micros.observe_timer(t);
        self.update_storage_gauges();
        Ok(())
    }

    /// Merge all sealed segments into one. Queries are equivalent before
    /// and after. Crash-safe: the merged segment (higher seq) is sealed
    /// before the inputs are deleted, and last-wins merging makes any
    /// leftover inputs harmless.
    ///
    /// Physical GC: compaction is where logically-dropped samples
    /// (below the retention watermark) actually leave the disk, so a
    /// lone segment is rewritten too when it reaches below the
    /// watermark.
    pub fn compact(&mut self) -> Result<(), TsdbError> {
        let watermark = self.manifest.raw_dropped_before;
        let holds_dropped =
            |r: &SegmentReader| r.time_range().is_some_and(|(min, _)| min < watermark);
        if self.segments.len() <= 1 && !self.segments.iter().any(|(_, r)| holds_dropped(r)) {
            return Ok(());
        }
        let t = Timer::start();
        // The sealed segments alone, clamped at the watermark: a series
        // the watermark empties never reaches the writer, and the
        // memtable stays the WAL's.
        let seq = self.next_seq;
        let series = self.walk(&Selector::all(), 0, u64::MAX, false);
        let replacement = write_segment(&self.dir, seq, &self.opts, series)?.map(|r| (seq, r));
        if let Some((_, reader)) = &replacement {
            self.met.compact_bytes_total.add(reader.file_len());
            self.next_seq = seq + 1;
        }
        // The merged segment is sealed: only now may its inputs go.
        let old: Vec<PathBuf> =
            self.segments.drain(..).map(|(_, r)| r.path().to_path_buf()).collect();
        self.segments.extend(replacement);
        for p in old {
            durable::remove_file(&p)?;
        }
        self.generation += 1;
        self.met.compact_micros.observe_timer(t);
        self.update_storage_gauges();
        Ok(())
    }

    /// The one gather every walk starts from: per series matching
    /// `sel`, the chunk refs overlapping `[t0, t1]` in each of
    /// `segments` — the raw tier's or a level's file — plus, for a
    /// `live` walk, its memtable samples. Looks `sel` up once in each
    /// segment's index, decoding the matches' refs from its bytes; a
    /// segment whose time range misses the window is skipped before its
    /// index is touched.
    ///
    /// `live` says the walk is a query's of the raw tier: it sees the
    /// memtable and the `tsdb_query_*` counters count it. Maintenance
    /// (compaction, the roll pass) and the rollup tiers walk sealed
    /// segments only, uncounted.
    fn plan<'a>(
        &'a self,
        segments: &'a [(u64, SegmentReader)],
        sel: &Selector,
        t0: u64,
        t1: u64,
        live: bool,
    ) -> ReadPlan<'a> {
        let mut plan = ReadPlan::new();
        for (slot, (_, reader)) in segments.iter().enumerate() {
            if reader.time_range().is_none_or(|(min, max)| max < t0 || min > t1) {
                continue;
            }
            if live {
                self.met.query_index_segments_total.inc();
            }
            for series in reader.lookup(sel) {
                let refs: Vec<ChunkRef> =
                    series.refs.filter(|r| r.max_ts >= t0 && r.min_ts <= t1).collect();
                if !refs.is_empty() {
                    plan.entry((series.host, series.metric)).or_default().segs.push((slot, refs));
                }
            }
        }
        if !live {
            return plan;
        }
        for (host, metric, run) in self.mem.series(sel.host.as_deref()) {
            if sel.metric.as_deref().is_some_and(|m| m != metric) {
                continue;
            }
            let lo = run.partition_point(|&(ts, _)| ts < t0);
            let hi = run.partition_point(|&(ts, _)| ts <= t1);
            if let Some(window) = run.get(lo..hi).filter(|w| !w.is_empty()) {
                plan.entry((host, metric)).or_default().mem = Some(window);
            }
        }
        plan
    }

    /// The fetcher for one walk of `plan` over `segments`; see
    /// [`Tsdb::plan`] for `live`.
    fn fetcher<'a>(
        &'a self,
        segments: &'a [(u64, SegmentReader)],
        plan: &ReadPlan<'_>,
        live: bool,
    ) -> BlockFetcher<'a> {
        let mut planned: Vec<Vec<(u32, u32)>> = vec![Vec::new(); segments.len()];
        for (slot, refs) in plan.values().flat_map(|series| &series.segs) {
            let spans = &mut planned[*slot];
            spans.resize(segments[*slot].1.entries.len(), (u32::MAX, 0));
            for r in refs {
                // `r` came out of this reader's index, which holds no
                // block out of range and no chunk past its block's end.
                let span = &mut spans[r.block_ix as usize];
                *span = (span.0.min(r.offset), span.1.max(r.offset + r.len));
            }
        }
        let extents = Extents {
            segments,
            planned,
            held: vec![None; segments.len()],
            counters: live.then_some(&self.met),
        };
        BlockFetcher { extents, chunk: Vec::new(), bins: Vec::new() }
    }

    /// The one series-major walk, as a stream: each planned series
    /// with its samples in `[t0, t1]` appended last-write-wins from its
    /// sources ([`walk_series`]), in `SeriesKey` order; a series the
    /// window leaves empty is skipped. It holds one series' run and the
    /// fetcher's one extent per segment. See [`Tsdb::plan`] for `live`.
    ///
    /// Retention truncates the raw tier logically: samples below the
    /// watermark are gone even while their segment still spans it
    /// (files are only ever dropped whole; see `enforce_retention`), so
    /// every walk starts no earlier than the watermark.
    fn walk<'a>(
        &'a self,
        sel: &Selector,
        t0: u64,
        t1: u64,
        live: bool,
    ) -> impl Iterator<Item = Result<WalkedSeries<'a>, TsdbError>> + 'a {
        let t0 = t0.max(self.manifest.raw_dropped_before);
        let segments = &self.segments;
        let plan = if t0 > t1 { ReadPlan::new() } else { self.plan(segments, sel, t0, t1, live) };
        let mut fetch = self.fetcher(segments, &plan, live);
        plan.into_iter().filter_map(move |((host, metric), series)| {
            match walk_series(&series, &mut fetch, t0, t1) {
                Ok(run) if run.is_empty() => None,
                run => Some(run.map(|run| (host, metric, run))),
            }
        })
    }

    /// Range scan: all series matching `sel`, samples with
    /// `t0 <= ts <= t1`, merged last-write-wins, sorted by key then ts.
    pub fn query(&self, sel: &Selector, t0: u64, t1: u64) -> Result<SeriesPoints, TsdbError> {
        self.walk(sel, t0, t1, true)
            .map(|series| {
                let (host, metric, run) = series?;
                let samples = run.into_iter().map(|(ts, bits)| (ts, f64::from_bits(bits)));
                Ok((SeriesKey::new(host, metric), samples.collect()))
            })
            .collect()
    }

    /// Downsample matching series into `bin_secs` bins aligned at
    /// multiples of `bin_secs`; returns `(bin_start_ts, agg)` per
    /// non-empty bin.
    ///
    /// Fast path: when a series' sources are disjoint in time, bins
    /// that fully cover a chunk fold the chunk's stored statistics and
    /// the chunk is never decompressed; only boundary chunks are
    /// decoded. Falls back to binning the merged scan — the two produce
    /// bit-identical output (see [`crate::stats`] for why, and the
    /// differential proptests for proof).
    pub fn downsample(
        &self,
        sel: &Selector,
        t0: u64,
        t1: u64,
        bin_secs: u64,
        agg: Agg,
    ) -> Result<SeriesPoints, TsdbError> {
        Ok(self.downsample_tiered(sel, t0, t1, bin_secs, agg)?.0)
    }

    /// [`Tsdb::downsample`] plus the list of tiers that served the
    /// answer: `"raw"` first, then `"rollup:<bin_secs>"` finest-first.
    ///
    /// Tier selection: the raw tier serves `[watermark, t1]`; below the
    /// watermark each sub-range is served by the *finest* rollup level
    /// still holding it (coarser levels cover only what finer levels
    /// have already expired, so tiers nest without overlap — the
    /// divisibility-chain alignment rule guarantees no rollup bin ever
    /// straddles a boundary). Results are bit-identical to the naive
    /// oracle wherever raw data survives; on rolled ranges min / max /
    /// count / last stay exact and sum / mean are the deterministic
    /// fold of exact per-bin sequential sums (exact too when the query
    /// bin equals the level bin).
    pub fn downsample_tiered(
        &self,
        sel: &Selector,
        t0: u64,
        t1: u64,
        bin_secs: u64,
        agg: Agg,
    ) -> Result<(SeriesPoints, Vec<String>), TsdbError> {
        let bin_secs = bin_secs.max(1);
        let mut accs: BTreeMap<SeriesKey, Bins> = BTreeMap::new();
        // Rollup tiers fold first: they cover strictly older time than
        // the raw tier, and accumulators must fill in ascending time
        // order (`last` and the sequential-sum seed depend on it).
        let rollup_tiers = self.fold_rollup_tiers(sel, t0, t1, bin_secs, agg, &mut accs)?;
        let raw_t0 = t0.max(self.manifest.raw_dropped_before);
        let mut raw_hit = false;
        if raw_t0 <= t1 {
            let plan = self.plan(&self.segments, sel, raw_t0, t1, true);
            let mut fetch = self.fetcher(&self.segments, &plan, true);
            for ((host, metric), series) in plan {
                let bins = accs.entry(SeriesKey::new(host, metric)).or_default();
                raw_hit |= fold_planned(&series, &mut fetch, raw_t0, t1, bin_secs, agg, bins)?;
            }
        }
        let mut tiers: Vec<String> = Vec::new();
        if raw_hit {
            self.met.tier_hit_raw.inc();
            tiers.push("raw".to_string());
        }
        for bin in rollup_tiers {
            // suplint: allow(R7) -- tier label built once per query, not per sample
            tiers.push(format!("rollup:{bin}"));
        }
        let out = accs
            .into_iter()
            .filter(|(_, bins)| !bins.0.is_empty())
            .map(|(key, bins)| {
                let series: Vec<(u64, f64)> =
                    bins.0.into_iter().map(|(start, acc)| (start, agg.finish(&acc))).collect();
                (key, series)
            })
            .collect();
        Ok((out, tiers))
    }

    /// Fold rollup bins overlapping `[t0, t1]` below the raw watermark
    /// into per-series accumulators; returns the levels that
    /// contributed (ascending bin_secs). Levels are walked finest-first
    /// to assign each sub-range of the rolled region to the finest
    /// level still holding it, then folded coarsest-window-first so
    /// each accumulator fills in ascending time order. Each level is
    /// read through the raw tier's plan and fetcher, over its one file.
    fn fold_rollup_tiers(
        &self,
        sel: &Selector,
        t0: u64,
        t1: u64,
        q: u64,
        agg: Agg,
        accs: &mut BTreeMap<SeriesKey, Bins>,
    ) -> Result<Vec<u64>, TsdbError> {
        let w = self.manifest.raw_dropped_before;
        if w == 0 || t0 >= w || self.rollups.is_empty() {
            return Ok(Vec::new());
        }
        // Serve windows [lo, hi) per level, finest first; `hi` walks
        // down as finer levels claim the newer sub-ranges.
        let mut windows: Vec<(u64, u64, u64)> = Vec::new();
        let mut hi = w;
        for &bin in self.rollups.keys() {
            let lo = self.manifest.level(bin).dropped_before.min(hi);
            if lo < hi {
                windows.push((bin, lo, hi));
                hi = lo;
            }
        }
        let mut used: Vec<u64> = Vec::new();
        for &(bin, lo, hi) in windows.iter().rev() {
            if hi - 1 < t0 || lo > t1 {
                continue; // window entirely outside the query range
            }
            let Some(file) = self.rollups.get(&bin) else { continue };
            let level = std::slice::from_ref(file);
            let plan = self.plan(level, sel, t0.max(lo), t1.min(hi - 1), false);
            let mut fetch = self.fetcher(level, &plan, false);
            let mut hit = false;
            for ((host, metric), series) in plan {
                let bins = accs.entry(SeriesKey::new(host, metric)).or_default();
                let window = (lo, hi, t0, t1);
                hit |= fold_level(&series, &mut fetch, window, bin, q, agg, bins)?;
            }
            if hit {
                if let Some(c) = self.met.tier_hit_rollup.get(&bin) {
                    c.inc();
                }
                used.push(bin);
            }
        }
        used.sort_unstable();
        Ok(used)
    }

    /// Newest data timestamp anywhere in the store (memtable, raw
    /// segments, rollup tiers). Retention callers pass this as `now` so
    /// a store ages by its own data clock, not the wall clock —
    /// simulated facilities run on simulated time (see
    /// `warehouse::tsdbio::enforce_store_retention`).
    pub fn max_timestamp(&self) -> Option<u64> {
        let mut max: Option<u64> = None;
        let mut push = |v: u64| max = Some(max.map_or(v, |m| m.max(v)));
        if let Some(ts) = self.mem.max_timestamp() {
            push(ts);
        }
        for (_, r) in &self.segments {
            if let Some((_, hi)) = r.time_range() {
                push(hi);
            }
        }
        for (_, r) in self.rollups.values() {
            if let Some((_, hi)) = r.time_range() {
                push(hi);
            }
        }
        max
    }

    /// Durably replace the manifest with an edited copy. The in-memory
    /// manifest changes only once the new file is in place, so a failed
    /// (or crashed) store leaves both as they were.
    fn commit_manifest(
        &mut self,
        edit: impl FnOnce(&mut RetentionManifest),
    ) -> Result<(), TsdbError> {
        // suplint: allow(R7) -- manifest is a few lines; cloned once per transition
        let mut m = self.manifest.clone();
        edit(&mut m);
        m.store(&self.dir)?;
        self.manifest = m;
        Ok(())
    }

    /// The next file of every level in `behind` — `(bin_secs, from)`
    /// of a level whose mark is short of `target`, raw samples at or past
    /// `from` rolling into new bins — off one walk of the raw samples in
    /// `[earliest from, target)`. Each level merge-joins, in series
    /// order, its file's bins in `[dropped_before, rolled_through)` with
    /// the new ones (see [`LevelRewrite`]). The bins are precisely what [`Tsdb::downsample`]'s
    /// accumulators would compute, which is what makes rollup-served
    /// answers exact (see [`crate::stats`] for the sequential-sum
    /// argument).
    /// Returns each level's bin, writer and count of new bins.
    fn roll_levels(
        &self,
        behind: &[(u64, u64)],
        target: u64,
    ) -> Result<Vec<(u64, SegmentWriter, u64)>, TsdbError> {
        let policy = &self.opts.retention;
        let mut levels: Vec<LevelRewrite<'_>> = behind
            .iter()
            .map(|&(bin, from)| {
                let mark = self.manifest.level(bin);
                let file = self.rollups.get(&bin).map_or(&[][..], std::slice::from_ref);
                let (lo, hi) = (mark.dropped_before, mark.rolled_through);
                let plan = match lo < hi {
                    true => self.plan(file, &Selector::all(), lo, hi - 1, false),
                    false => ReadPlan::new(),
                };
                LevelRewrite {
                    bin,
                    cell: policy.chunk_cell(bin),
                    from,
                    keep: (lo, hi),
                    fetch: self.fetcher(file, &plan, false),
                    old: plan.into_iter().peekable(),
                    writer: SegmentWriter::new(KIND_STATS),
                    new_bins: 0,
                }
            })
            .collect();
        let Some(from) = levels.iter().map(|l| l.from).min() else { return Ok(Vec::new()) };
        let (opts, mut cut, mut new) = (&self.opts, Vec::new(), Vec::new());
        let mut bins = Bins::default();
        for series in self.walk(&Selector::all(), from, target - 1, false) {
            let (host, metric, run) = series?;
            for level in &mut levels {
                level.copy_old(Some((host, metric)), opts, &mut cut)?;
                let old = level.old.next_if(|(key, _)| *key == (host, metric)).map(|(_, old)| old);
                let unrolled = &run[run.partition_point(|&(ts, _)| ts < level.from)..];
                bins.0.clear();
                bin_run(&mut bins, level.bin, unrolled.iter().copied());
                level.new_bins += bins.0.len() as u64;
                new.clear();
                new.extend(bins.0.iter().map(|(start, acc)| (*start, acc.stats())));
                level.series(host, metric, old.as_ref(), &new, opts, &mut cut)?;
            }
        }
        let mut rolled = Vec::with_capacity(levels.len());
        for mut level in levels {
            level.copy_old(None, opts, &mut cut)?;
            rolled.push((level.bin, level.writer, level.new_bins));
        }
        Ok(rolled)
    }

    /// Apply the store's [`RetentionPolicy`] as of data time `now`.
    /// No-op (and `Ok`) when the policy keeps raw forever.
    ///
    /// Three phases, each durable before the next begins:
    ///
    /// 1. **Expire rollups**: per level with a TTL, advance
    ///    `dropped_before` in the manifest. Its bins below the mark are
    ///    clipped at read time from then on, and the roll below leaves
    ///    them out of the level's next file.
    /// 2. **Roll**: one walk of the raw tier folds each level's
    ///    `[rolled_through, target)` into exact per-bin statistics;
    ///    then, level by level, merge them with the level's file into
    ///    the next seq (tmp → fsync → rename), advance the level's
    ///    `rolled_through` in the manifest, and delete the superseded
    ///    file. The roll target is aligned to the coarsest configured
    ///    bin, so no rollup bin ever straddles a watermark.
    /// 3. **Drop raw**: advance the raw watermark to the minimum
    ///    `rolled_through` (manifest first), then delete raw segments
    ///    wholly below it — never partial files; spanning segments are
    ///    clipped logically at read time and GC'd by [`Tsdb::compact`].
    ///
    /// A crash anywhere leaves the store correct: reopen finishes
    /// manifest-committed raw drops and deletes superseded level files,
    /// and re-running the pass completes unfinished rolls. A level that
    /// grew by more bytes than the pass dropped of raw segments is
    /// reported as one `retention.rollup_larger_than_raw` event: its bins
    /// are too fine to save space.
    pub fn enforce_retention(&mut self, now: u64) -> Result<RetentionReport, TsdbError> {
        let mut report = RetentionReport {
            raw_watermark: self.manifest.raw_dropped_before,
            ..Default::default()
        };
        // suplint: allow(R7) -- retention pass is cold; the clone frees &mut self for the roll loop
        let policy = self.opts.retention.clone();
        let Some(raw_ttl) = policy.raw_ttl else { return Ok(report) };
        let t = Timer::start();
        // Everything must be segment-resident before rolling so the
        // WAL and memtable never hold pre-watermark samples.
        self.flush()?;
        let coarse = policy.coarsest_bin();
        let target = now.saturating_sub(raw_ttl) / coarse * coarse;

        // Phase 1: expire rollup tiers per their own TTLs, never past
        // the mark this pass rolls them through.
        for level in &policy.levels {
            let bin = level.bin_secs;
            let Some(ttl) = level.ttl else { continue };
            let mark = self.manifest.level(bin);
            let cut = now.saturating_sub(ttl) / coarse * coarse;
            let dropped_before = cut.min(mark.rolled_through.max(target));
            if dropped_before <= mark.dropped_before {
                continue;
            }
            self.commit_manifest(|m| {
                m.levels.entry(bin).or_default().dropped_before = dropped_before
            })?;
            self.generation += 1;
        }

        // Phase 2: roll [rolled_through, target) into every level that
        // is behind — one walk, then each level's seal, commit and
        // delete of the file it supersedes.
        let behind: Vec<(u64, u64)> = policy
            .levels
            .iter()
            .filter_map(|l| {
                let mark = self.manifest.level(l.bin_secs);
                let from = mark.rolled_through.max(mark.dropped_before);
                (mark.rolled_through < target).then_some((l.bin_secs, from))
            })
            .collect();
        let mut grown: Vec<(u64, u64, u64)> = Vec::new();
        for (bin, writer, new_bins) in self.roll_levels(&behind, target)? {
            let superseded = match self.rollups.get(&bin) {
                None if writer.is_empty() => None,
                file => {
                    let seq = file.map_or(1, |&(seq, _)| seq + 1);
                    let reader = writer.seal_reader(&self.dir.join(roll_file_name(bin, seq)))?;
                    let old_len = file.map_or(0, |(_, r)| r.file_len());
                    grown.push((bin, new_bins, reader.file_len().saturating_sub(old_len)));
                    report.rollup_segments_written += 1;
                    report.rollup_bins_written += new_bins;
                    self.met.rollup_segments_written_total.inc();
                    self.met.rollup_bins_written_total.add(new_bins);
                    self.rollups.insert(bin, (seq, reader))
                }
            };
            self.commit_manifest(|m| m.levels.entry(bin).or_default().rolled_through = target)?;
            if let Some((_, old)) = superseded {
                durable::remove_file(old.path())?;
                report.rollup_segments_dropped += 1;
                self.met.retention_rollup_dropped_total.inc();
            }
        }

        // Phase 3: advance the raw watermark, then drop raw segments
        // wholly below it. Manifest-first means a crash mid-drop is a
        // committed drop that reopen finishes.
        let new_w = policy
            .levels
            .iter()
            .map(|l| self.manifest.level(l.bin_secs).rolled_through)
            .min()
            .unwrap_or(target)
            .max(self.manifest.raw_dropped_before);
        if new_w > self.manifest.raw_dropped_before {
            self.commit_manifest(|m| m.raw_dropped_before = new_w)?;
            self.met.raw_watermark.set(as_i64(new_w));
            self.generation += 1;
        }
        let mut raw_bytes_dropped = 0u64;
        for (seq, path) in wholly_below(&self.segments, self.manifest.raw_dropped_before) {
            // Forget the reader before unlinking: if the delete faults,
            // the in-memory view stays consistent with a file reopen
            // will finish deleting anyway.
            let at = self.segments.iter().position(|(s, _)| *s == seq);
            raw_bytes_dropped += at.map_or(0, |at| self.segments.remove(at).1.file_len());
            durable::remove_file(&path)?;
            report.raw_segments_dropped += 1;
            self.met.retention_raw_dropped_total.inc();
            self.generation += 1;
        }
        for (bin, bins, bytes) in grown.into_iter().filter(|&(.., b)| b > raw_bytes_dropped) {
            let detail = [
                "level ",
                &bin.to_string(),
                ": ",
                &bins.to_string(),
                " bins grew it by ",
                &bytes.to_string(),
                " B, more than the ",
                &raw_bytes_dropped.to_string(),
                " B of raw segments the pass dropped",
            ];
            self.met.obs.event("retention.rollup_larger_than_raw", detail.concat());
        }

        report.raw_watermark = self.manifest.raw_dropped_before;
        self.met.retention_pass_micros.observe_timer(t);
        self.update_storage_gauges();
        Ok(report)
    }

    /// Total bytes of sealed segments on disk (raw + rollup tiers).
    pub fn disk_bytes(&self) -> u64 {
        self.segments.iter().map(|(_, r)| r.file_len()).sum::<u64>()
            + self.rollups.values().map(|(_, r)| r.file_len()).sum::<u64>()
    }

    pub fn stats(&self) -> DbStats {
        DbStats {
            segments: self.segments.len(),
            segment_bytes: self.disk_bytes(),
            wal_bytes: self.wal.len(),
            mem_series: self.mem.len(),
            mem_samples: self.mem.samples(),
            recovered_samples: self.recovered_samples,
            recovered_truncated_bytes: self.recovered_truncated_bytes,
            rollup_segments: self.rollups.len(),
            raw_watermark: self.manifest.raw_dropped_before,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdb-db-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A day of 144 samples for each of 64 series, one batch a series,
    /// never synced.
    fn fill_unsynced(db: &mut Tsdb, day: u64) {
        for s in 0..64u64 {
            let samples: Vec<(u64, f64)> =
                (0..144).map(|i| (day * 86_400 + i * 600, (s + i) as f64)).collect();
            db.append_batch(&format!("c301-{:03}", s / 4), &format!("m{}", s % 4), &samples)
                .unwrap();
        }
    }

    fn fill(db: &mut Tsdb) {
        for host in ["c301-101", "c301-102"] {
            for (metric, base) in [("cpu_user", 0.25), ("mem_used", 1.0e9)] {
                let samples: Vec<(u64, f64)> =
                    (0..200).map(|i| (i * 600, base + i as f64)).collect();
                db.append_batch(host, metric, &samples).unwrap();
            }
        }
        db.sync().unwrap();
    }

    /// Samples of one series in `[t0, t1]`.
    fn one_series(db: &Tsdb, host: &str, metric: &str, t0: u64, t1: u64) -> Vec<(u64, f64)> {
        let sel = Selector { host: Some(host.into()), metric: Some(metric.into()) };
        db.query(&sel, t0, t1).unwrap().into_iter().next().map(|(_, s)| s).unwrap_or_default()
    }

    /// Compare query outputs bitwise (NaN-safe): same keys, same
    /// timestamps, same value bits.
    fn assert_bit_identical(
        a: &[(SeriesKey, Vec<(u64, f64)>)],
        b: &[(SeriesKey, Vec<(u64, f64)>)],
    ) {
        assert_eq!(a.len(), b.len(), "series count");
        for ((ka, sa), (kb, sb)) in a.iter().zip(b) {
            assert_eq!(ka, kb);
            assert_eq!(sa.len(), sb.len(), "sample count for {ka:?}");
            for (&(ta, va), &(tb, vb)) in sa.iter().zip(sb) {
                assert_eq!(ta, tb, "timestamp for {ka:?}");
                assert_eq!(va.to_bits(), vb.to_bits(), "value at ts {ta} for {ka:?}");
            }
        }
    }

    #[test]
    fn append_query_from_memtable() {
        let dir = tmpdir("mem");
        let mut db = Tsdb::open(&dir).unwrap();
        fill(&mut db);
        let out = one_series(&db, "c301-101", "cpu_user", 600, 1800);
        assert_eq!(out, vec![(600, 1.25), (1200, 2.25), (1800, 3.25)]);
        assert_eq!(db.stats().mem_series, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_then_query_identical() {
        let dir = tmpdir("flush");
        let mut db = Tsdb::open(&dir).unwrap();
        fill(&mut db);
        let before = db.query(&Selector::all(), 0, u64::MAX).unwrap();
        db.flush().unwrap();
        assert_eq!(db.stats().mem_samples, 0);
        assert_eq!(db.stats().segments, 1);
        assert!(db.wal.is_empty());
        let after = db.query(&Selector::all(), 0, u64::MAX).unwrap();
        assert_eq!(before, after);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_after_flush_sees_segments() {
        let dir = tmpdir("reopen");
        let expect;
        {
            let mut db = Tsdb::open(&dir).unwrap();
            fill(&mut db);
            db.flush().unwrap();
            expect = db.query(&Selector::all(), 0, u64::MAX).unwrap();
        }
        let db = Tsdb::open(&dir).unwrap();
        assert_eq!(db.query(&Selector::all(), 0, u64::MAX).unwrap(), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_without_flush_recovers_from_wal() {
        let dir = tmpdir("crash");
        let expect;
        {
            let mut db = Tsdb::open(&dir).unwrap();
            fill(&mut db);
            expect = db.query(&Selector::all(), 0, u64::MAX).unwrap();
            // drop without flush = crash after sync
        }
        let db = Tsdb::open(&dir).unwrap();
        assert!(db.stats().recovered_samples > 0);
        assert_eq!(db.query(&Selector::all(), 0, u64::MAX).unwrap(), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A clean close keeps an append no `sync` ever acked: the WAL
    /// seals its pending frame as it drops.
    #[test]
    fn clean_close_keeps_unsynced_appends() {
        let dir = tmpdir("clean-close");
        let expect;
        {
            let mut db = Tsdb::open(&dir).unwrap();
            fill(&mut db);
            db.append_batch("c301-101", "cpu_user", &[(600, 99.0), (200_000, 7.0)]).unwrap();
            db.append("c301-103", "cpu_user", 0, 0.5).unwrap();
            expect = db.query(&Selector::all(), 0, u64::MAX).unwrap();
        }
        let db = Tsdb::open(&dir).unwrap();
        assert_eq!(db.stats().recovered_truncated_bytes, 0);
        assert_eq!(db.stats().recovered_samples, 803);
        assert_eq!(db.stats().mem_samples, 802, "the overwrite of ts 600 is one sample");
        assert_eq!(db.query(&Selector::all(), 0, u64::MAX).unwrap(), expect);
        assert_eq!(one_series(&db, "c301-101", "cpu_user", 600, 600), vec![(600, 99.0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_query_results() {
        let dir = tmpdir("compact");
        let mut db = Tsdb::open(&dir).unwrap();
        fill(&mut db);
        db.flush().unwrap();
        // Second generation: overwrite some points, add new ones.
        db.append_batch("c301-101", "cpu_user", &[(600, 99.0), (200_000, 7.0)]).unwrap();
        db.sync().unwrap();
        db.flush().unwrap();
        assert_eq!(db.stats().segments, 2);
        let before = db.query(&Selector::all(), 0, u64::MAX).unwrap();
        db.compact().unwrap();
        assert_eq!(db.stats().segments, 1);
        let after = db.query(&Selector::all(), 0, u64::MAX).unwrap();
        assert_eq!(before, after);
        // Overwrite won: ts=600 is 99.0.
        let s = one_series(&db, "c301-101", "cpu_user", 600, 600);
        assert_eq!(s, vec![(600, 99.0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn selectors_filter_host_and_metric() {
        let dir = tmpdir("sel");
        let mut db = Tsdb::open(&dir).unwrap();
        fill(&mut db);
        let by_host = db.query(&Selector::host("c301-101"), 0, u64::MAX).unwrap();
        assert_eq!(by_host.len(), 2);
        assert!(by_host.iter().all(|(k, _)| k.host == "c301-101"));
        let by_metric = db.query(&Selector::metric("mem_used"), 0, u64::MAX).unwrap();
        assert_eq!(by_metric.len(), 2);
        assert!(by_metric.iter().all(|(k, _)| k.metric == "mem_used"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The four selector shapes against the oracles while the data sits
    /// in the memtable, then in a segment, then in both. The memtable is
    /// consulted by key range, so the hosts sit on that range's edges:
    /// first and last key, and a strict prefix of its successor.
    #[test]
    fn selector_shapes_match_the_oracle_across_memtable_and_segments() {
        let dir = tmpdir("sel-shapes");
        let mut db = Tsdb::open(&dir).unwrap();
        let write = |db: &mut Tsdb, hosts: &[&str], t: u64| {
            for (h, host) in hosts.iter().enumerate() {
                for (metric, base) in [("cpu_user", 0.25), ("mem_used", 1.0e9)] {
                    let v = base + h as f64;
                    db.append_batch(host, metric, &[(t, v), (t + 600, v + 0.5)]).unwrap();
                }
            }
            db.sync().unwrap();
        };
        let check = |db: &Tsdb, stage: &str, c1_samples: usize| {
            // "c" and "zz" name no series: one falls before "c1", one
            // past the last key.
            for host in
                [None, Some("a0"), Some("c1"), Some("c10"), Some("z9"), Some("c"), Some("zz")]
            {
                for metric in [None, Some("cpu_user"), Some("mem_used"), Some("nope")] {
                    let sel =
                        Selector { host: host.map(Into::into), metric: metric.map(Into::into) };
                    let fast = db.query(&sel, 0, u64::MAX).unwrap();
                    assert_bit_identical(&fast, &db.query_naive(&sel, 0, u64::MAX).unwrap());
                    let fast = db.downsample(&sel, 0, u64::MAX, 3600, Agg::Mean).unwrap();
                    let slow = db.downsample_naive(&sel, 0, u64::MAX, 3600, Agg::Mean).unwrap();
                    assert_bit_identical(&fast, &slow);
                }
            }
            let c1 = db.query(&Selector::host("c1"), 0, u64::MAX).unwrap();
            let want = vec![("c1", c1_samples); 2];
            let got: Vec<_> = c1.iter().map(|(k, s)| (k.host.as_str(), s.len())).collect();
            assert_eq!(got, want, "{stage}");
        };
        write(&mut db, &["a0", "c1", "c10", "z9"], 0);
        check(&db, "memtable only", 2);
        db.flush().unwrap();
        check(&db, "segment only", 2);
        // "c1" is now absent from the memtable and its range starts on
        // "c10"; "c10" and "z9" are split across segment and memtable.
        write(&mut db, &["c10", "z9"], 7200);
        check(&db, "split", 2);
        write(&mut db, &["c1"], 7200);
        check(&db, "split, c1 in both", 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn downsampling_bins_align_and_aggregate() {
        let dir = tmpdir("down");
        let mut db = Tsdb::open(&dir).unwrap();
        db.append_batch("h", "m", &[(0, 1.0), (600, 2.0), (3600, 10.0), (4200, 20.0)]).unwrap();
        db.sync().unwrap();
        let sel = Selector { host: Some("h".into()), metric: Some("m".into()) };
        let out = db.downsample(&sel, 0, u64::MAX, 3600, Agg::Mean).unwrap();
        assert_eq!(out[0].1, vec![(0, 1.5), (3600, 15.0)]);
        let out = db.downsample(&sel, 0, u64::MAX, 3600, Agg::Max).unwrap();
        assert_eq!(out[0].1, vec![(0, 2.0), (3600, 20.0)]);
        let out = db.downsample(&sel, 0, u64::MAX, 3600, Agg::Count).unwrap();
        assert_eq!(out[0].1, vec![(0, 2.0), (3600, 2.0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn time_range_queries_use_sparse_index() {
        let dir = tmpdir("range");
        let mut db = Tsdb::open(&dir).unwrap();
        fill(&mut db);
        db.flush().unwrap();
        let out = one_series(&db, "c301-102", "mem_used", 6000, 6600);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 6000);
        let empty = one_series(&db, "c301-102", "mem_used", 10_000_000, 20_000_000);
        assert!(empty.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn special_floats_round_trip_through_disk() {
        let dir = tmpdir("specials");
        let nan_bits = 0x7FF8_0000_0000_0001u64;
        {
            let mut db = Tsdb::open(&dir).unwrap();
            db.append_batch(
                "h",
                "m",
                &[(0, f64::from_bits(nan_bits)), (600, f64::NEG_INFINITY), (1200, -0.0)],
            )
            .unwrap();
            db.sync().unwrap();
            db.flush().unwrap();
        }
        let db = Tsdb::open(&dir).unwrap();
        let out = one_series(&db, "h", "m", 0, u64::MAX);
        assert_eq!(out[0].1.to_bits(), nan_bits);
        assert_eq!(out[1].1, f64::NEG_INFINITY);
        assert_eq!(out[2].1.to_bits(), (-0.0f64).to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_query_matches_naive_on_mixed_store() {
        let dir = tmpdir("diffq");
        let mut db = Tsdb::open_with(
            &dir,
            DbOptions { chunk_samples: 16, block_chunks: 4, ..Default::default() },
        )
        .unwrap();
        fill(&mut db);
        db.flush().unwrap();
        // Overwrites + fresh tail in a second segment, plus live
        // memtable data on top.
        db.append_batch("c301-101", "cpu_user", &[(600, 99.0), (130_000, 7.0)]).unwrap();
        db.sync().unwrap();
        db.flush().unwrap();
        db.append_batch("c301-102", "mem_used", &[(0, -1.0), (999_999, 4.5)]).unwrap();
        db.sync().unwrap();
        for (t0, t1) in [(0, u64::MAX), (600, 1800), (50_000, 200_000), (5, 5)] {
            for sel in [
                Selector::all(),
                Selector::host("c301-101"),
                Selector::metric("mem_used"),
                Selector { host: Some("c301-102".into()), metric: Some("cpu_user".into()) },
                Selector::host("no-such-host"),
            ] {
                let fast = db.query(&sel, t0, t1).unwrap();
                let slow = db.query_naive(&sel, t0, t1).unwrap();
                assert_bit_identical(&fast, &slow);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn preagg_downsample_matches_naive() {
        let dir = tmpdir("diffd");
        let mut db = Tsdb::open_with(
            &dir,
            DbOptions { chunk_samples: 8, block_chunks: 4, ..Default::default() },
        )
        .unwrap();
        fill(&mut db);
        db.flush().unwrap();
        for agg in [Agg::Mean, Agg::Sum, Agg::Min, Agg::Max, Agg::Last, Agg::Count] {
            for bin in [600, 3600, 86_400, 604_800] {
                for (t0, t1) in [(0, u64::MAX), (600, 100_000), (7000, 7000)] {
                    let fast = db.downsample(&Selector::all(), t0, t1, bin, agg).unwrap();
                    let slow = db.downsample_naive(&Selector::all(), t0, t1, bin, agg).unwrap();
                    assert_bit_identical(&fast, &slow);
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A chunk whose samples are out of order and repeat a timestamp —
    /// a foreign or hand-built segment's — downsamples as the oracle
    /// does: a repeated timestamp counts once, with its last value, and
    /// `Last` is the latest timestamp's, not the last stored.
    #[test]
    fn an_unsorted_chunk_downsamples_as_its_query_answers() {
        let dir = tmpdir("unsorted-chunk");
        let samples = [(1200, 1.0f64), (600, 2.0), (600, 3.0)].map(|(ts, v)| (ts, v.to_bits()));
        let mut w = SegmentWriter::new(KIND_SERIES);
        w.push_series_block(&[("h", "m", &samples)]);
        w.seal(&dir.join("seg-000001.tsdb")).unwrap();
        let db = Tsdb::open(&dir).unwrap();
        let sel = Selector::all();
        assert_eq!(db.query(&sel, 0, u64::MAX).unwrap()[0].1, vec![(600, 3.0), (1200, 1.0)]);
        assert_bit_identical(
            &db.query(&sel, 0, u64::MAX).unwrap(),
            &db.query_naive(&sel, 0, u64::MAX).unwrap(),
        );
        let aggs = [
            (Agg::Count, 2.0),
            (Agg::Last, 1.0),
            (Agg::Sum, 4.0),
            (Agg::Mean, 2.0),
            (Agg::Min, 1.0),
            (Agg::Max, 3.0),
        ];
        for (agg, want) in aggs {
            for bin in [600, 3600] {
                let fast = db.downsample(&sel, 0, u64::MAX, bin, agg).unwrap();
                let slow = db.downsample_naive(&sel, 0, u64::MAX, bin, agg).unwrap();
                assert_bit_identical(&fast, &slow);
            }
            let fast = db.downsample(&sel, 0, u64::MAX, 3600, agg).unwrap();
            assert_eq!(fast[0].1, vec![(0, want)], "{agg:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// `bin_run` over runs in any arrival order gives every bin the
    /// samples that fall in it, in arrival order — what the stable sort
    /// by bin start gives: the find and insert paths, not only the push.
    #[test]
    fn bins_fill_in_arrival_order_whatever_the_order() {
        use supremm_metrics::rng::cases;
        cases("bins_fill_in_arrival_order_whatever_the_order", 64, |rng| {
            let bin_secs = rng.range(1..50);
            let samples: Vec<(u64, u64)> = rng.vec(0..200, |r| (r.range(0..1000), r.next_u64()));
            let mut bins = Bins::default();
            let mut rest = samples.as_slice();
            while !rest.is_empty() {
                let (run, tail) = rest.split_at((rng.range(1..20) as usize).min(rest.len()));
                assert!(bin_run(&mut bins, bin_secs, run.iter().copied()));
                rest = tail;
            }
            let mut sorted = samples.clone();
            sorted.sort_by_key(|&(ts, _)| ts / bin_secs);
            let mut want = Bins::default();
            bin_run(&mut want, bin_secs, sorted);
            let bits = |bins: &Bins| -> Vec<[u64; 6]> {
                let acc = bins.0.iter();
                acc.map(|(s, a)| {
                    [
                        *s,
                        a.count,
                        a.sum.to_bits(),
                        a.min.to_bits(),
                        a.max.to_bits(),
                        a.last.to_bits(),
                    ]
                })
                .collect()
            };
            assert_eq!(bits(&bins), bits(&want));
        });
    }

    /// A foreign index may claim any sample count for a chunk: the bins
    /// a series reserves are capped by its chunks' bytes (a sample costs
    /// at least one), so a claim of 2⁶² samples over a window of 2⁶⁴
    /// one-second bins is answered, not a failed allocation.
    #[test]
    fn a_claimed_sample_count_does_not_size_the_bins() {
        let dir = tmpdir("claimed-count");
        let path = dir.join("seg-000001.tsdb");
        let samples = [(5, 1.0f64), (6, 2.0)].map(|(ts, v)| (ts, v.to_bits()));
        let mut w = SegmentWriter::new(KIND_SERIES);
        w.push_series_block(&[("h", "m", &samples)]);
        w.seal(&path).unwrap();
        // Footer: index offset u64 · index len u32 · index crc u32 · magic.
        let bytes = fs::read(&path).unwrap();
        let footer = bytes.len() - 20;
        let at = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize;
        let mut index = bytes[at..footer].to_vec();
        // The index ends on the one chunk ref's `varint count · 4 × u64`.
        let count_at = index.len() - 33;
        assert_eq!(index[count_at], 2);
        let mut claim = Vec::new();
        crate::codec::put_varint(&mut claim, 1 << 62);
        index.splice(count_at..=count_at, claim);
        let mut forged = bytes[..at].to_vec();
        forged.extend_from_slice(&index);
        forged.extend_from_slice(&(at as u64).to_le_bytes());
        forged.extend_from_slice(&(index.len() as u32).to_le_bytes());
        forged.extend_from_slice(&crate::crc::crc32(&index).to_le_bytes());
        forged.extend_from_slice(&bytes[bytes.len() - 4..]);
        fs::write(&path, &forged).unwrap();

        let db = Tsdb::open(&dir).unwrap();
        let out = db.downsample(&Selector::all(), 0, u64::MAX, 1, Agg::Count).unwrap();
        assert_eq!(out[0].1, vec![(5, 1.0), (6, 1.0)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_bumps_on_mutation_only() {
        let dir = tmpdir("gen");
        let mut db = Tsdb::open(&dir).unwrap();
        let g0 = db.generation();
        assert_eq!(db.query(&Selector::all(), 0, u64::MAX).unwrap().len(), 0);
        assert_eq!(db.generation(), g0, "reads do not bump the generation");
        db.append("h", "m", 0, 1.0).unwrap();
        let g1 = db.generation();
        assert!(g1 > g0);
        db.flush().unwrap();
        assert!(db.generation() > g1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_counters_track_write_and_query_paths() {
        use std::sync::Arc;
        let dir = tmpdir("obs");
        let _ = fs::remove_dir_all(&dir);
        let obs = Arc::new(supremm_obs::ObsRegistry::new());
        let mut db = Tsdb::open_with_obs(&dir, DbOptions::default(), obs.clone()).unwrap();
        fill(&mut db);
        db.sync().unwrap();
        db.flush().unwrap();
        fill(&mut db);
        db.flush().unwrap();
        db.compact().unwrap();
        let _ = db.query(&Selector::all(), 0, u64::MAX).unwrap();
        let snap = obs.snapshot();
        assert!(snap.histogram("tsdb_wal_append_micros").is_some_and(|h| h.count > 0));
        // `fill` syncs once per call, plus the explicit sync above.
        assert!(snap.histogram("tsdb_wal_fsync_micros").is_some_and(|h| h.count == 3));
        assert!(snap.histogram("tsdb_flush_micros").is_some_and(|h| h.count == 2));
        assert!(snap.histogram("tsdb_compact_micros").is_some_and(|h| h.count == 1));
        assert!(snap.counter("tsdb_flush_bytes_total").unwrap() > 0);
        assert!(snap.counter("tsdb_compact_bytes_total").unwrap() > 0);
        assert_eq!(snap.counter("tsdb_query_index_segments_total"), Some(1));
        assert_eq!(snap.gauge("tsdb_segments"), Some(1));
        assert_eq!(snap.gauge("tsdb_memtable_samples"), Some(0));
        assert!(snap.gauge("tsdb_indexed_chunks").unwrap() > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Syncs zero-fill the WAL one `ZERO_FILL_STEP` at a time: a day of
    /// one-sample records, synced a tick at a time, zero-fills
    /// ⌈WAL bytes ÷ step⌉ times, and a batch load that never syncs
    /// zero-fills nothing.
    #[test]
    fn wal_syncs_zero_fill_a_step_at_a_time() {
        use crate::durable::ZERO_FILL_STEP;
        use std::sync::Arc;
        let dir = tmpdir("zero-fill");
        let obs = Arc::new(supremm_obs::ObsRegistry::new());
        let filled = || obs.snapshot().counter("tsdb_wal_zero_fill_bytes_total").unwrap_or(0);
        let mut db = Tsdb::open_with_obs(&dir, DbOptions::default(), obs.clone()).unwrap();
        let mut fills = 0;
        for tick in 0..144u64 {
            for h in 0..32 {
                for m in 0..16 {
                    let (host, metric) = (format!("c301-{h:03}"), format!("metric_{m:02}"));
                    db.append(&host, &metric, tick * 600, (h * 16 + m) as f64).unwrap();
                }
            }
            let before = filled();
            db.sync().unwrap();
            fills += u64::from(filled() > before);
        }
        let wal_bytes = db.stats().wal_bytes;
        assert!(wal_bytes > 2 * ZERO_FILL_STEP, "{wal_bytes} B cross several steps");
        assert_eq!(fills, wal_bytes.div_ceil(ZERO_FILL_STEP));
        let file_len = fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(file_len, fills * ZERO_FILL_STEP);
        assert!(filled() > 0 && filled() < file_len);
        drop(db);
        let _ = fs::remove_dir_all(&dir);

        let obs = Arc::new(supremm_obs::ObsRegistry::new());
        let filled = || obs.snapshot().counter("tsdb_wal_zero_fill_bytes_total").unwrap_or(0);
        let mut db = Tsdb::open_with_obs(&dir, DbOptions::default(), obs.clone()).unwrap();
        for day in 0..2 {
            fill_unsynced(&mut db, day);
            db.flush().unwrap();
        }
        fill_unsynced(&mut db, 2);
        assert_eq!(filled(), 0, "a load that never syncs zero-fills nothing");
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }

    /// No engine path makes a segment's `series_index()` view: a store
    /// taken through open, one read of each class, compaction, a
    /// retention pass and a reopen reads every index in place. The
    /// chunk gauge, counted from the block entries, agrees with the view
    /// once a test makes it.
    #[test]
    fn no_engine_path_materializes_a_series_view() {
        use std::sync::Arc;
        let dir = tmpdir("no-view");
        let retention = RetentionPolicy::parse("raw=2d,3600=forever").unwrap();
        let opts = DbOptions { retention, ..Default::default() };
        let obs = Arc::new(supremm_obs::ObsRegistry::new());
        let open = || Tsdb::open_with_obs(&dir, opts.clone(), obs.clone()).unwrap();
        let untouched = |db: &Tsdb, stage: &str| {
            for (_, r) in db.segments.iter().chain(db.rollups.values()) {
                assert!(!r.view_is_built(), "{stage}: {}", r.path().display());
            }
        };
        let day = 86_400;
        let read_each_class = |db: &Tsdb| {
            let one = Selector { host: Some("h1".into()), metric: Some("m2".into()) };
            assert_eq!(db.query(&one, 4 * day + 600, 4 * day + 600).unwrap()[0].1.len(), 1);
            assert_eq!(db.query(&one, 3 * day, 5 * day).unwrap().len(), 1);
            let panel = db.downsample(&Selector::host("h2"), 4 * day, 5 * day, 3600, Agg::Mean);
            assert_eq!(panel.unwrap().len(), 3);
            let fleet = db.downsample(&Selector::metric("m0"), 0, u64::MAX, day, Agg::Max);
            assert_eq!(fleet.unwrap().len(), 4);
            let history = db.downsample_tiered(&Selector::host("h3"), 0, u64::MAX, day, Agg::Sum);
            assert_eq!(history.unwrap().0.len(), 3);
            assert_eq!(db.query(&Selector::all(), 0, u64::MAX).unwrap().len(), 12);
        };
        let mut db = open();
        for d in 0..5u64 {
            for h in 0..4 {
                for m in 0..3 {
                    let samples: Vec<(u64, f64)> =
                        (0..144).map(|i| (d * day + i * 600, (h * m + i) as f64)).collect();
                    db.append_batch(&format!("h{h}"), &format!("m{m}"), &samples).unwrap();
                }
            }
            db.flush().unwrap();
        }
        db.append("h0", "m0", 5 * day, 1.0).unwrap();
        db.sync().unwrap();
        drop(db);

        let mut db = open();
        assert_eq!(db.stats().segments, 5);
        untouched(&db, "open");
        read_each_class(&db);
        untouched(&db, "reads");
        db.compact().unwrap();
        untouched(&db, "compact");
        db.enforce_retention(db.max_timestamp().unwrap()).unwrap();
        assert!(db.stats().rollup_segments > 0);
        untouched(&db, "retention");
        read_each_class(&db);
        untouched(&db, "reads after retention");
        drop(db);
        let db = open();
        untouched(&db, "reopen");
        read_each_class(&db);
        untouched(&db, "reads after reopen");

        let views = db.segments.iter().map(|(_, r)| r.series_index().unwrap());
        let viewed: usize = views.flat_map(|view| view.iter().map(|e| e.chunks.len())).sum();
        assert_eq!(obs.snapshot().gauge("tsdb_indexed_chunks"), Some(viewed as i64));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A small store rolled through 1200 into one level-600 file, with
    /// raw samples on both sides of that watermark.
    fn rolled_store(dir: &Path, obs: ObsHandle) -> (Tsdb, DbOptions) {
        let retention = RetentionPolicy::parse("raw=600,600=forever").unwrap();
        let opts = DbOptions { retention, ..Default::default() };
        let mut db = Tsdb::open_with_obs(dir, opts.clone(), obs).unwrap();
        for (host, base) in [("a", 1.0), ("b", 10.0)] {
            let samples: Vec<(u64, f64)> =
                [0, 300, 600, 1100, 1500, 2000].iter().map(|&ts| (ts, base + ts as f64)).collect();
            db.append_batch(host, "m", &samples).unwrap();
            db.flush().unwrap();
        }
        let report = db.enforce_retention(2000).unwrap();
        assert_eq!((report.raw_watermark, report.rollup_bins_written), (1200, 4));
        (db, opts)
    }

    /// Compaction and the roll pass walk the store as the read path
    /// does, but are not queries: the query counters do not see them.
    #[test]
    fn maintenance_walks_leave_the_query_counters_alone() {
        use std::sync::Arc;
        let dir = tmpdir("maintenance");
        let obs = Arc::new(supremm_obs::ObsRegistry::new());
        let (mut db, _) = rolled_store(&dir, obs.clone());
        assert_eq!(db.stats().segments, 2, "both straddle the watermark");
        // A third segment overlaps the first, so the next roll pass and
        // the compaction each merge a source.
        db.append_batch("a", "m", &[(1500, -1.0), (2000, -2.0)]).unwrap();
        db.flush().unwrap();
        assert_eq!(db.enforce_retention(2600).unwrap().raw_watermark, 1800);
        db.compact().unwrap();
        assert_eq!(db.stats().segments, 1);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("tsdb_query_index_segments_total").unwrap_or(0), 0);
        assert_eq!(snap.counter("tsdb_query_blocks_read_total").unwrap_or(0), 0);
        assert_eq!(snap.counter("tsdb_query_merged_sources_total").unwrap_or(0), 0);
        let answer = db.query(&Selector::all(), 0, u64::MAX).unwrap();
        assert_eq!(answer.len(), 2);
        assert_eq!(answer, db.query_naive(&Selector::all(), 0, u64::MAX).unwrap());
        assert_eq!(answer[0].1, [(2000, -2.0)], "the newer segment won");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("tsdb_query_index_segments_total"), Some(1));
        assert_eq!(snap.counter("tsdb_query_blocks_read_total"), Some(1));
        assert_eq!(snap.counter("tsdb_query_merged_sources_total"), Some(0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `tsdb_query_merged_sources_total` counts the segment sources a
    /// query had to merge into a series' run: none for day segments and
    /// a memtable tail that follow one another, one per series a
    /// backfill reaches back into — and none once the window leaves the
    /// backfill out. A memtable write behind the segments merges but
    /// does not count, before or after a compaction.
    #[test]
    fn a_query_counts_the_sources_it_merges() {
        use std::sync::Arc;
        let dir = tmpdir("merged-sources");
        let obs = Arc::new(supremm_obs::ObsRegistry::new());
        let merged = || obs.snapshot().counter("tsdb_query_merged_sources_total").unwrap_or(0);
        let mut db = Tsdb::open_with_obs(&dir, DbOptions::default(), obs.clone()).unwrap();
        let day = |db: &mut Tsdb, day: u64| {
            for (host, metric) in [("a", "m"), ("a", "n"), ("b", "m"), ("b", "n"), ("c", "m")] {
                let samples: Vec<(u64, f64)> =
                    (0..144).map(|i| (day * 86_400 + i * 600, (day * 1000 + i) as f64)).collect();
                db.append_batch(host, metric, &samples).unwrap();
            }
        };
        let all = Selector::all();
        for d in 0..2 {
            day(&mut db, d);
            db.flush().unwrap();
        }
        day(&mut db, 2);
        assert_eq!(db.query(&all, 0, u64::MAX).unwrap().len(), 5);
        assert_eq!(merged(), 0, "day segments and a tail ascend");

        db.flush().unwrap();
        for (host, metric) in [("a", "n"), ("c", "m")] {
            db.append_batch(host, metric, &[(600, -1.0), (900, -2.0)]).unwrap();
        }
        db.flush().unwrap();
        day(&mut db, 3);
        let answer = db.query(&all, 0, u64::MAX).unwrap();
        assert_eq!(answer, db.query_naive(&all, 0, u64::MAX).unwrap());
        assert_eq!(merged(), 2, "one source a backfilled series");
        db.query(&all, 86_400, u64::MAX).unwrap();
        assert_eq!(merged(), 2, "a window past day 0 plans no backfill");

        db.append("b", "m", 86_400 + 600, -3.0).unwrap();
        let answer = db.query(&all, 86_400, u64::MAX).unwrap();
        assert_eq!(answer, db.query_naive(&all, 86_400, u64::MAX).unwrap());
        assert_eq!(merged(), 2, "a memtable overwrite of a flushed sample");
        db.compact().unwrap();
        let answer = db.query(&all, 0, u64::MAX).unwrap();
        assert_eq!(answer, db.query_naive(&all, 0, u64::MAX).unwrap());
        assert_eq!(merged(), 2, "the overwrite, after a compaction");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A flipped byte in a level file's stats chunk fails the tiered
    /// read that decodes it — the chunk's CRC refuses it before the
    /// decoder sees it — and folds nothing: the read returns no partial
    /// answer. A read that needs only the other series' chunk answers
    /// as before.
    #[test]
    fn a_flipped_byte_in_a_level_chunk_fails_the_read_that_decodes_it() {
        let dir = tmpdir("roll-refused");
        let (db, opts) = rolled_store(&dir, supremm_obs::global());
        drop(db);
        let roll = dir.join("roll-600-000001.tsdb");
        let reader = SegmentReader::open(&roll).unwrap();
        let index = reader.series_index().unwrap();
        let chunk = index.iter().find(|e| e.host == "b").unwrap().chunks[0].clone();
        assert_eq!((index.len(), chunk.min_ts, chunk.max_ts), (2, 0, 1199));
        let at = (reader.entries[chunk.block_ix as usize].offset + 8) as usize;
        let at = at + chunk.offset as usize;
        // Bins narrower than the chunk: it is decoded, not folded whole.
        let tiered = |host: &str| {
            let db = Tsdb::open_with(&dir, opts.clone()).unwrap();
            db.downsample_tiered(&Selector::host(host), 0, u64::MAX, 600, Agg::Sum)
        };
        let (good_a, good_b) = (tiered("a").unwrap(), tiered("b").unwrap());
        assert_eq!(good_b.1, vec!["raw", "rollup:600"]);
        assert_eq!(good_b.0[0].1, vec![(0, 320.0), (600, 1720.0), (1200, 1510.0), (1800, 2010.0)]);

        let file = fs::read(&roll).unwrap();
        for i in at..at + chunk.len as usize {
            let mut bad = file.clone();
            bad[i] ^= 0xFF;
            fs::write(&roll, &bad).unwrap();
            let Err(TsdbError::Corrupt(msg)) = tiered("b") else { panic!("flip {i} read") };
            assert!(msg.contains("crc mismatch"), "flip {i}: {msg}");
            assert_bit_identical(&tiered("a").unwrap().0, &good_a.0);
        }
        fs::write(&roll, &file).unwrap();
        assert_bit_identical(&tiered("b").unwrap().0, &good_b.0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The read plan's property: a query reads each block it needs
    /// once, and a segment outside the window costs nothing.
    #[test]
    fn each_needed_block_is_read_once_per_query() {
        use std::sync::Arc;
        let dir = tmpdir("blocks");
        let obs = Arc::new(supremm_obs::ObsRegistry::new());
        // One chunk per series, one host's 16 series per block.
        let opts = DbOptions { block_chunks: 16, ..Default::default() };
        let mut db = Tsdb::open_with_obs(&dir, opts, obs.clone()).unwrap();
        for h in 0..8 {
            for m in 0..16 {
                let samples: Vec<(u64, f64)> =
                    (0..12).map(|i| (1000 + i * 600, (h * 16 + m) as f64 + i as f64)).collect();
                db.append_batch(&format!("h{h:02}"), &format!("m{m:02}"), &samples).unwrap();
            }
        }
        db.flush().unwrap();
        assert_eq!(db.stats().segments, 1);
        let (_, reader) = &db.segments[0];
        assert_eq!(reader.entries.len(), 8, "multi-block segment");
        let blocks_holding_m03: BTreeSet<u32> = reader
            .series_index()
            .unwrap()
            .iter()
            .filter(|e| e.metric == "m03")
            .flat_map(|e| e.chunks.iter().map(|r| r.block_ix))
            .collect();
        assert_eq!(blocks_holding_m03.len(), 8);

        let blocks_read = || obs.snapshot().counter("tsdb_query_blocks_read_total").unwrap_or(0);
        let index_walks = || obs.snapshot().counter("tsdb_query_index_segments_total").unwrap_or(0);
        let reads_of = |f: &dyn Fn()| {
            let before = blocks_read();
            f();
            blocks_read() - before
        };

        // Panel: one host, all 16 metrics, bins narrower than a chunk so
        // every chunk is decoded — out of one block, fetched once.
        let panel = reads_of(&|| {
            let out = db.downsample(&Selector::host("h05"), 0, u64::MAX, 1800, Agg::Mean).unwrap();
            assert_eq!(out.len(), 16);
        });
        assert_eq!(panel, 1);
        // Fleet: one metric on every host — one chunk in each block.
        let fleet = reads_of(&|| {
            let out = db.downsample(&Selector::metric("m03"), 0, u64::MAX, 1800, Agg::Max).unwrap();
            assert_eq!(out.len(), 8);
        });
        assert_eq!(fleet, blocks_holding_m03.len() as u64);
        let scan = reads_of(&|| {
            assert_eq!(db.query(&Selector::metric("m03"), 0, u64::MAX).unwrap().len(), 8);
        });
        assert_eq!(scan, blocks_holding_m03.len() as u64);
        // A bin that covers whole chunks folds their stats: no block at all.
        let folded = reads_of(&|| {
            let out = db.downsample(&Selector::host("h05"), 0, u64::MAX, 86_400, Agg::Max).unwrap();
            assert_eq!(out.len(), 16);
        });
        assert_eq!(folded, 0);
        // A window the segment's time range misses: index untouched.
        let walks = index_walks();
        let outside = reads_of(&|| {
            assert!(db.query(&Selector::all(), 100_000, 200_000).unwrap().is_empty());
            let down = db.downsample(&Selector::all(), 0, 999, 600, Agg::Sum).unwrap();
            assert!(down.is_empty());
        });
        assert_eq!(outside, 0);
        assert_eq!(index_walks(), walks);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The fetcher's property: a query reads and verifies the chunks it
    /// decodes — counted to the byte — and no other byte of their block.
    #[test]
    fn a_query_verifies_the_chunks_it_decodes_and_nothing_else() {
        use std::sync::Arc;
        let dir = tmpdir("verified");
        let obs = Arc::new(supremm_obs::ObsRegistry::new());
        // One chunk per series, four hosts' 16 series per block.
        let mut db = Tsdb::open_with_obs(&dir, DbOptions::default(), obs.clone()).unwrap();
        for h in 0..8 {
            for m in 0..16 {
                let samples: Vec<(u64, f64)> =
                    (0..144).map(|i| (86_400 + i * 600, (h * 16 + m) as f64 + i as f64)).collect();
                db.append_batch(&format!("h{h:02}"), &format!("m{m:02}"), &samples).unwrap();
            }
        }
        db.flush().unwrap();
        let (_, reader) = &db.segments[0];
        assert_eq!(reader.entries.len(), 2);
        let chunk_lens = |host: &str| -> Vec<u64> {
            let index = reader.series_index().unwrap().iter();
            index.filter(|e| e.host == host).map(|e| u64::from(e.chunks[0].len)).collect()
        };
        let counter = |name: &str| obs.snapshot().counter(name).unwrap_or(0);
        let counted = |f: &dyn Fn()| {
            let before = (
                counter("tsdb_query_blocks_read_total"),
                counter("tsdb_query_bytes_verified_total"),
            );
            f();
            (
                counter("tsdb_query_blocks_read_total") - before.0,
                counter("tsdb_query_bytes_verified_total") - before.1,
            )
        };

        let h05 = chunk_lens("h05");
        assert_eq!(h05.len(), 16);
        let block_len = u64::from(reader.entries[1].len);
        assert!(h05.iter().sum::<u64>() * 3 < block_len, "a panel is a fraction of its block");
        let point = counted(&|| {
            let sel = Selector { host: Some("h05".into()), metric: Some("m07".into()) };
            assert_eq!(db.query(&sel, 90_000, 90_000).unwrap()[0].1.len(), 1);
        });
        assert_eq!(point, (1, h05[7]));
        let panel = counted(&|| {
            let out = db.downsample(&Selector::host("h05"), 0, u64::MAX, 1800, Agg::Mean).unwrap();
            assert_eq!(out.len(), 16);
        });
        assert_eq!(panel, (1, h05.iter().sum()));
        // A whole-chunk fold reads nothing, so verifies nothing.
        let folded = counted(&|| {
            db.downsample(&Selector::host("h05"), 0, u64::MAX, 172_800, Agg::Max).unwrap();
        });
        assert_eq!(folded, (0, 0));
        // Everything: one extent per block, every chunk once.
        let all = counted(&|| {
            assert_eq!(db.query(&Selector::all(), 0, u64::MAX).unwrap().len(), 128);
        });
        let every_chunk: u64 = (0..8).flat_map(|h| chunk_lens(&format!("h{h:02}"))).sum();
        assert_eq!(all, (2, every_chunk));
        let _ = fs::remove_dir_all(&dir);
    }
}
