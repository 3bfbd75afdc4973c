//! Immutable segment files.
//!
//! A segment is the sealed, on-disk form of a batch of series data (or,
//! via [`crate::recordlog`], opaque records). Layout:
//!
//! ```text
//! ┌──────────────────────────────────────────────┐
//! │ header: magic "SUPTSDB1" · u16 version · u8  │ 12 bytes
//! │         kind · u8 reserved                   │
//! ├──────────────────────────────────────────────┤
//! │ block 0: u32 len · u32 crc32 · payload       │
//! │ block 1: …                                   │
//! ├──────────────────────────────────────────────┤
//! │ index block: one entry per data block,       │ (framed by the
//! │ then the per-series chunk index, which       │  footer, not by
//! │ carries one crc32 per chunk                  │  a block frame)
//! ├──────────────────────────────────────────────┤
//! │ footer: u64 index_offset · u32 index_len ·   │ 20 bytes
//! │         u32 index_crc · magic "BDST"         │
//! └──────────────────────────────────────────────┘
//! ```
//!
//! The block index is *sparse in time*: per block it records the covered
//! `[min_ts, max_ts]`, so a range query opens only blocks that can
//! intersect it. A **per-series chunk index** follows in the same
//! CRC-protected index frame: for every `(host, metric)` in the
//! segment, the exact location of each of its compressed chunks
//! (`block · offset · len`), the CRC-32 of the chunk's encoded bytes,
//! the chunk's time range, and its pre-computed statistics
//! ([`crate::stats::ChunkStats`]). A selective query then reads only
//! the bytes of the chunks it wants — an *extent* of a block, see
//! [`SegmentReader::read_extent`] — and verifies each against its own
//! checksum as it decodes it; a downsampling query can fold whole
//! chunks from the stats without reading them at all.
//!
//! Three checksums, each over bytes no other covers alone:
//!
//! - `index_crc` (footer) covers the index frame: block entries, string
//!   tables, and every chunk ref with its `crc`. It is checked at open,
//!   so everything a reader holds in memory has been verified.
//! - a chunk's `crc` (in the index) covers that chunk's encoded bytes
//!   inside its block payload, and is checked whenever the chunk is
//!   decoded out of an extent. This is the read path's unit of
//!   verification.
//! - a block frame's `crc32` covers the whole payload and is checked by
//!   [`SegmentReader::read_block`], the unit for whole-block consumers
//!   (the naive oracles, and [`crate::recordlog`], whose blocks have no
//!   chunk index). A series block's payload is its chunks and nothing
//!   else, so every byte of it also sits under a chunk CRC.
//!
//! One format version is written and read: [`VERSION`]. Any other
//! version in the header is refused at open with
//! [`TsdbError::BadVersion`]; the file is left alone.
//!
//! [`SegmentWriter`] builds the file's image in memory, each chunk
//! encoded at its final offset, and seals it through
//! [`crate::durable::replace_file`] — a crash mid-write leaves no
//! visible segment.
//!
//! Series-block payload (kind 0): the encoded chunks back to back, in
//! the order they were written. The series index is the only map of
//! them: a block's [`ChunkRef`]s, sorted by `offset`, tile `[0, len)`
//! of its payload — no gap, no overlap. No reader looks at a byte no
//! ref addresses, which is why a version-3 file written while series
//! blocks still led with string tables and gave each chunk a `(host_id,
//! metric_id, len)` prefix reads exactly as a bare one (`compact`
//! rewrites such a file bare).
//!
//! Stats-block payload (kind 3, one rollup level): the same, but each
//! chunk is a *stats chunk* — one series' `bin_secs`-wide bins, `varint
//! n · bin starts as a timestamp stream · count, sum, min, max and last
//! each as a value stream` (see [`codec::encode_stats_chunk_into`]).
//! Its ref's time range is the time its bins cover, first start to last
//! start + `bin_secs` − 1, and its stats are its bins folded in order,
//! so a reader plans, fetches, verifies and folds it as it does a raw
//! chunk. Kind 2 — a rollup level as opaque blocks with their own
//! string tables and fixed-width stats per bin — is retired: a store
//! holding such a file does not open, and the file is left alone.
//!
//! Index frame: the block entries, then the series-index tail.
//!
//! ```text
//! varint n_blocks ·
//!   (varint offset · varint len · varint min_ts · varint max_ts ·
//!    varint n_chunks)*
//! varint n_hosts · (varint len · bytes)*        segment-wide tables
//! varint n_metrics · (varint len · bytes)*
//! varint n_series ·
//!   (varint host_id · varint metric_id · varint n_chunks ·
//!     (varint block_ix · varint offset · varint len · u32 crc ·
//!      varint d_min · varint d_max · varint count ·
//!      u64 sum_bits · u64 min_bits · u64 max_bits · u64 last_bits)*)*
//! ```
//!
//! `crc` is the little-endian CRC-32 of the `len` chunk bytes at
//! `offset` in block `block_ix`'s payload. A chunk's time range is
//! stored as two deltas: `d_min = min_ts − block.min_ts` (the block
//! entry's, never larger than any of its chunks') and `d_max = max_ts −
//! min_ts`. On a store of day segments at a 2020s epoch that is 1 + 3
//! varint bytes where the absolute pair took 5 + 5, which more than
//! pays for the four CRC bytes.
//!
//! Series entries are strictly ascending by `(host, metric)` — readers
//! binary-search them — and a file where they are not is refused at
//! open as corrupt.
//!
//! **Opening.** [`SegmentReader::open`] checks the header's magic and
//! version and the footer, reads the index frame and checks it against
//! `index_crc`, then validates every field of it in one pass: block
//! entries lie between the header and the index and their `len` and
//! `n_chunks` fit a `u32`; the string tables are UTF-8; every series'
//! host and metric ids are in range; every chunk ref's `block_ix`,
//! `offset` and `len` fit a `u32`, its bytes lie inside its block's
//! payload and its time deltas do not overflow; series ascend strictly
//! by `(host, metric)` name; and nothing trails the last series. A file
//! that fails any of it does not open. [`SegmentWriter::seal_reader`]
//! makes its reader from the frame it just wrote through the same
//! constructor.
//!
//! What a reader holds is that frame's bytes plus, for the series index,
//! the distinct host and metric names ranked by byte order (spans of the
//! frame) and one 12-byte row per series: host rank, metric rank and
//! where its chunk refs start — ≈ 64 B a series for an engine day
//! segment, nothing allocated per series. The ranks exist because the
//! writer's metric table is in first-seen order, which is not name
//! order when the first host lacks a metric. A lookup by host is a
//! binary search over the rows, by metric an integer filter, and a
//! match's [`ChunkRef`]s are decoded from the bytes by the same decoder
//! that validated them. [`SegmentReader::series_index`] still hands out
//! the index as owned [`SeriesEntry`]s, made on its first call; no
//! engine path calls it.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::codec::{
    self, decode_chunk, get_stats, get_str, get_varint, put_stats, put_varint, StrTable,
};
use crate::crc::crc32;
use crate::db::Selector;
use crate::durable;
use crate::stats::{BinAcc, ChunkStats};

pub const MAGIC: &[u8; 8] = b"SUPTSDB1";
pub const FOOTER_MAGIC: &[u8; 4] = b"BDST";
pub const VERSION: u16 = 3;
/// Segment holds compressed time series (host/metric chunks).
pub const KIND_SERIES: u8 = 0;
/// Segment holds opaque length-framed records (job table, etc.).
pub const KIND_RECORDS: u8 = 1;
/// Segment holds one rollup level: per series, stats chunks of
/// pre-aggregated bins (see `tsdb::retention`). Kind 2, the opaque
/// rollup block that came before it, is retired: a store holding one
/// does not open.
pub const KIND_STATS: u8 = 3;

const HEADER_LEN: usize = 12;
const FOOTER_LEN: usize = 20;

/// Everything that can go wrong opening or scanning a store.
#[derive(Debug)]
pub enum TsdbError {
    Io(io::Error),
    /// Structural damage: bad magic, bad CRC, truncated frame — with a
    /// human-readable description of where.
    Corrupt(String),
    /// The file is a segment, but of a format version this build does
    /// not read (older or newer than [`VERSION`]).
    BadVersion(u16),
    /// A retention policy failed validation (see `tsdb::retention`).
    Policy(String),
}

impl fmt::Display for TsdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsdbError::Io(e) => write!(f, "tsdb io error: {e}"),
            TsdbError::Corrupt(what) => write!(f, "tsdb corruption: {what}"),
            TsdbError::BadVersion(v) => write!(
                f,
                "tsdb segment version {v} is not readable: this build reads version {VERSION} \
                 only. The file is left untouched; rebuild the store from the raw archive, or \
                 read it with the release that wrote it"
            ),
            TsdbError::Policy(what) => write!(f, "tsdb retention policy: {what}"),
        }
    }
}

impl std::error::Error for TsdbError {}

impl From<io::Error> for TsdbError {
    fn from(e: io::Error) -> TsdbError {
        TsdbError::Io(e)
    }
}

fn corrupt(what: impl Into<String>) -> TsdbError {
    TsdbError::Corrupt(what.into())
}

/// One entry of the sparse time index: where a data block lives and the
/// time range its samples cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    pub offset: u64,
    pub len: u32,
    pub min_ts: u64,
    pub max_ts: u64,
    pub n_chunks: u32,
}

/// Series index: the exact location of one compressed chunk plus its
/// checksum, time range and pre-aggregates. `offset`/`len` are relative
/// to the owning block's payload and frame the chunk's encoded bytes;
/// `crc` is the CRC-32 of those bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRef {
    pub block_ix: u32,
    pub offset: u32,
    pub len: u32,
    pub crc: u32,
    pub min_ts: u64,
    pub max_ts: u64,
    pub stats: ChunkStats,
}

/// Series index: every chunk of one `(host, metric)` series, in the
/// order the writer emitted them (ascending time for engine-produced
/// segments).
#[derive(Debug, Clone)]
pub struct SeriesEntry {
    pub host: String,
    pub metric: String,
    pub chunks: Vec<ChunkRef>,
}

// --- writing --------------------------------------------------------------

/// Builds a segment as the image of its file, then seals it to disk
/// atomically.
pub struct SegmentWriter {
    kind: u8,
    /// The file so far: the header, then every block frame. The open
    /// block's frame is last, its `len` and `crc` still zero.
    image: Vec<u8>,
    /// One sparse-index entry per closed block.
    entries: Vec<IndexEntry>,
    /// The block chunks are arriving into, once its first has come:
    /// `offset` is its frame's, `len` is set when it closes.
    open: Option<IndexEntry>,
    /// Per-series chunk refs for the series index, by host, then metric.
    series: BTreeMap<String, BTreeMap<String, Vec<ChunkRef>>>,
}

/// One chunk handed to [`SegmentWriter::push_series_block`]:
/// `(host, metric, samples)`, all borrowed.
pub(crate) type ChunkSamples<'a> = (&'a str, &'a str, &'a [(u64, u64)]);

impl SegmentWriter {
    pub fn new(kind: u8) -> SegmentWriter {
        let mut image = Vec::with_capacity(HEADER_LEN);
        image.extend_from_slice(MAGIC);
        image.extend_from_slice(&VERSION.to_le_bytes());
        image.push(kind);
        image.push(0); // reserved
        SegmentWriter { kind, image, entries: Vec::new(), open: None, series: BTreeMap::new() }
    }

    /// Add a series block of `chunks`, `(host, metric, samples)` each;
    /// samples are borrowed — no copy is made on the way into the
    /// encoder.
    pub fn push_series_block(&mut self, chunks: &[ChunkSamples<'_>]) {
        for (host, metric, samples) in chunks {
            self.push_chunk(host, metric, samples);
        }
        self.close_block();
    }

    /// Encode one chunk into the open series block, at its place in the
    /// file; returns how many chunks the block now holds. The caller
    /// decides when it is full ([`SegmentWriter::close_block`]).
    pub(crate) fn push_chunk(&mut self, host: &str, metric: &str, samples: &[(u64, u64)]) -> usize {
        let mut chunk_min = u64::MAX;
        let mut chunk_max = 0u64;
        for &(ts, _) in samples {
            chunk_min = chunk_min.min(ts);
            chunk_max = chunk_max.max(ts);
        }
        let stats = ChunkStats::from_samples(samples);
        self.push_encoded(host, metric, (chunk_min, chunk_max), stats, |image| {
            codec::encode_chunk_into(image, samples);
            None
        })
    }

    /// Encode one stats chunk — `bin_secs`-wide bins, `(start, stats)`
    /// ascending — into the open block, as [`SegmentWriter::push_chunk`]
    /// does a sample chunk. Its time range is the time its bins cover,
    /// and its stats are its bins folded in order.
    pub(crate) fn push_stats_chunk(
        &mut self,
        host: &str,
        metric: &str,
        bin_secs: u64,
        bins: &[(u64, ChunkStats)],
    ) -> usize {
        let span = match (bins.first(), bins.last()) {
            (Some(&(first, _)), Some(&(last, _))) => {
                (first, last.saturating_add(bin_secs.saturating_sub(1)))
            }
            _ => (u64::MAX, 0),
        };
        let mut acc = BinAcc::new();
        bins.iter().for_each(|(_, stats)| acc.fold_chunk(stats));
        self.push_encoded(host, metric, span, acc.stats(), |image| {
            codec::encode_stats_chunk_into(image, bins);
            None
        })
    }

    /// Append a chunk another segment holds — `bytes`, as `r` indexes
    /// them there, already checked against `r.crc` — unchanged, as
    /// [`SegmentWriter::push_chunk`] does a sample chunk.
    pub(crate) fn push_chunk_bytes(
        &mut self,
        host: &str,
        metric: &str,
        r: &ChunkRef,
        bytes: &[u8],
    ) -> usize {
        self.push_encoded(host, metric, (r.min_ts, r.max_ts), r.stats, |image| {
            image.extend_from_slice(bytes);
            Some(r.crc)
        })
    }

    /// Append one chunk that `encode` writes onto the end of the image to
    /// the open block, covering `(min, max)` — `(u64::MAX, 0)` when it
    /// holds nothing — and index it under `stats`. `encode` returns the
    /// chunk's CRC when it knows it already.
    fn push_encoded(
        &mut self,
        host: &str,
        metric: &str,
        (chunk_min, chunk_max): (u64, u64),
        stats: ChunkStats,
        encode: impl FnOnce(&mut Vec<u8>) -> Option<u32>,
    ) -> usize {
        // An empty chunk covers `[0, 0]`, and its block with it: the
        // index stores a chunk's `min_ts` as a delta over its block's.
        let chunk_min = chunk_min.min(chunk_max);
        let block = self.open_block(chunk_min, chunk_max);
        block.min_ts = block.min_ts.min(chunk_min);
        block.max_ts = block.max_ts.max(chunk_max);
        block.n_chunks += 1;
        let (payload_at, n_chunks) = (block.offset as usize + 8, block.n_chunks);
        let at = self.image.len();
        let known_crc = encode(&mut self.image);
        let chunk = &self.image[at..];
        let r = ChunkRef {
            block_ix: self.entries.len() as u32,
            offset: (at - payload_at) as u32,
            len: chunk.len() as u32,
            crc: known_crc.unwrap_or_else(|| crc32(chunk)),
            min_ts: chunk_min,
            max_ts: chunk_max,
            stats,
        };
        // Names are owned once per series: a known one is found by
        // borrowing.
        let metrics = match self.series.get_mut(host) {
            Some(metrics) => metrics,
            None => self.series.entry(host.to_owned()).or_default(),
        };
        let refs = match metrics.get_mut(metric) {
            Some(refs) => refs,
            None => metrics.entry(metric.to_owned()).or_default(),
        };
        refs.push(r);
        n_chunks as usize
    }

    /// The open block, opening one that covers `[min_ts, max_ts]` if
    /// none is: its frame goes into the image, `len` and `crc` zero.
    fn open_block(&mut self, min_ts: u64, max_ts: u64) -> &mut IndexEntry {
        let image = &mut self.image;
        self.open.get_or_insert_with(|| {
            let offset = image.len() as u64;
            image.extend_from_slice(&[0; 8]);
            IndexEntry { offset, len: 0, min_ts, max_ts, n_chunks: 0 }
        })
    }

    /// End the open block, if there is one: its payload is the rest of
    /// the image, so fill in its frame and index it.
    pub(crate) fn close_block(&mut self) {
        let Some(mut block) = self.open.take() else { return };
        let frame = block.offset as usize;
        let payload = &self.image[frame + 8..];
        block.len = payload.len() as u32;
        let crc = crc32(payload);
        self.image[frame..frame + 4].copy_from_slice(&block.len.to_le_bytes());
        self.image[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
        self.entries.push(block);
    }

    /// Add an opaque block (kind-1 segments); time range is caller-set.
    pub fn push_raw_block(&mut self, payload: &[u8], min_ts: u64, max_ts: u64, n_items: u32) {
        self.close_block();
        let block = self.open_block(min_ts, max_ts);
        block.n_chunks = n_items;
        self.image.extend_from_slice(payload);
        self.close_block();
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.open.is_none()
    }

    /// Seal to `path` atomically (see [`durable::replace_file`]);
    /// returns the file's size in bytes.
    pub fn seal(self, path: &Path) -> Result<u64, TsdbError> {
        self.seal_reader(path).map(|r| r.file_len)
    }

    /// [`SegmentWriter::seal`], handing back the reader of the sealed
    /// file — made from the index frame this writer just wrote by the
    /// constructor [`SegmentReader::open`] uses, without reading it back.
    pub(crate) fn seal_reader(mut self, path: &Path) -> Result<SegmentReader, TsdbError> {
        self.close_block();
        // One sparse-index entry per block frame.
        let mut index = Vec::new();
        put_varint(&mut index, self.entries.len() as u64);
        for e in &self.entries {
            put_varint(&mut index, e.offset);
            put_varint(&mut index, u64::from(e.len));
            put_varint(&mut index, e.min_ts);
            put_varint(&mut index, e.max_ts);
            put_varint(&mut index, u64::from(e.n_chunks));
        }
        // Segment-wide string tables, then per-series chunk refs.
        let mut hosts = StrTable::default();
        let mut metrics = StrTable::default();
        let mut series = Vec::new();
        for (host, by_metric) in &self.series {
            let host_id = hosts.intern(host);
            for (metric, refs) in by_metric {
                series.push((host_id, metrics.intern(metric), refs));
            }
        }
        hosts.write(&mut index);
        metrics.write(&mut index);
        put_varint(&mut index, series.len() as u64);
        for (host_id, metric_id, refs) in series {
            put_varint(&mut index, host_id);
            put_varint(&mut index, metric_id);
            put_varint(&mut index, refs.len() as u64);
            for r in refs {
                // `push_chunk` folded this chunk's range into its
                // block's, so neither delta can go below zero.
                let block_min = self.entries[r.block_ix as usize].min_ts;
                put_varint(&mut index, u64::from(r.block_ix));
                put_varint(&mut index, u64::from(r.offset));
                put_varint(&mut index, u64::from(r.len));
                index.extend_from_slice(&r.crc.to_le_bytes());
                put_varint(&mut index, r.min_ts - block_min);
                put_varint(&mut index, r.max_ts - r.min_ts);
                put_stats(&mut index, &r.stats);
            }
        }
        let mut image = self.image;
        let index_offset = image.len() as u64;
        image.extend_from_slice(&index);
        image.extend_from_slice(&index_offset.to_le_bytes());
        image.extend_from_slice(&(index.len() as u32).to_le_bytes());
        image.extend_from_slice(&crc32(&index).to_le_bytes());
        image.extend_from_slice(FOOTER_MAGIC);

        durable::replace_file(path, &image)?;
        let file = File::open(path)?;
        let file_len = image.len() as u64;
        let index = index.into_boxed_slice();
        SegmentReader::from_index(path, file, self.kind, file_len, index_offset, index)
    }
}

// --- reading --------------------------------------------------------------

/// Read-side handle: validates header, footer and every field of the
/// index on open, then serves CRC-checked blocks and chunks on demand.
///
/// The series index stays the bytes it was read as. What the reader
/// adds is the host and metric tables ranked by name and one
/// [`SeriesRow`] per series, so [`SegmentReader::lookup`] finds a
/// series by integer compares and decodes its refs from the bytes.
///
/// It keeps the file it opened and reads it positionally, so any number
/// of threads may read through one `&SegmentReader` at once: there is
/// no shared cursor to race on.
pub struct SegmentReader {
    path: PathBuf,
    file: File,
    pub kind: u8,
    pub entries: Vec<IndexEntry>,
    /// The index frame, validated whole at open.
    index: Box<[u8]>,
    series: SeriesRows,
    /// [`SegmentReader::series_index`], made on its first call.
    view: OnceLock<Vec<SeriesEntry>>,
    file_len: u64,
    time_range: Option<(u64, u64)>,
}

/// Bytes `start..end` of a reader's index frame.
type Span = (u32, u32);

/// What a reader keeps of its series index beside the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SeriesRows {
    /// The distinct host / metric names in byte order, as spans of the
    /// index frame: a name's rank is its place here.
    hosts: Vec<Span>,
    metrics: Vec<Span>,
    /// One row per series, in index order: strictly ascending.
    rows: Vec<SeriesRow>,
}

/// One series of the index: its host and metric by rank, so rows sort
/// as their names do, and where its chunk refs start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeriesRow {
    host: u32,
    metric: u32,
    /// Offset of the series' `n_chunks` in the index frame.
    at: u32,
}

/// One series of a reader's index, read in place by
/// [`SegmentReader::lookup`].
pub(crate) struct IndexedSeries<'s> {
    pub host: &'s str,
    pub metric: &'s str,
    pub refs: ChunkRefs<'s>,
}

/// A series' chunk refs in index order, decoded from the index bytes
/// as they are iterated.
pub(crate) struct ChunkRefs<'s> {
    index: &'s [u8],
    entries: &'s [IndexEntry],
    pos: usize,
    left: u64,
}

impl Iterator for ChunkRefs<'_> {
    type Item = ChunkRef;

    fn next(&mut self) -> Option<ChunkRef> {
        self.left = self.left.checked_sub(1)?;
        // `open` ran this decoder over every ref of these bytes, so it
        // cannot fail here; were it to, the series would end early.
        let r = read_ref(self.index, &mut self.pos, self.entries).ok();
        if r.is_none() {
            self.left = 0;
        }
        r
    }
}

/// One chunk ref of the series index at `pos`, its time range made
/// absolute against its block's. The one ref decoder: `open` validates
/// every ref with it, and lookups and the view read through it. `Err`
/// says what is wrong.
fn read_ref(
    index: &[u8],
    pos: &mut usize,
    entries: &[IndexEntry],
) -> Result<ChunkRef, &'static str> {
    // A varint field that must fit the `u32` it is kept in.
    let field32 = |pos: &mut usize, name: &'static str| {
        get_varint(index, pos).and_then(|v| u32::try_from(v).ok()).ok_or(name)
    };
    let block_ix = field32(pos, "block_ix")?;
    let offset = field32(pos, "offset")?;
    let len = field32(pos, "len")?;
    let crc = pos
        .checked_add(4)
        .and_then(|end| <[u8; 4]>::try_from(index.get(*pos..end)?).ok())
        .map(u32::from_le_bytes)
        .ok_or("crc")?;
    *pos += 4;
    let d_min = get_varint(index, pos).ok_or("d_min")?;
    let d_max = get_varint(index, pos).ok_or("d_max")?;
    let stats = get_stats(index, pos).ok_or("stats")?;
    let entry = entries.get(block_ix as usize).ok_or("block out of range")?;
    if offset.checked_add(len).is_none_or(|end| end > entry.len) {
        return Err("bytes exceed its block");
    }
    let min_ts = entry.min_ts.checked_add(d_min).ok_or("min_ts overflow")?;
    let max_ts = min_ts.checked_add(d_max).ok_or("max_ts overflow")?;
    Ok(ChunkRef { block_ix, offset, len, crc, min_ts, max_ts, stats })
}

/// Bytes `span` of `index`; empty if it lies outside.
fn span_bytes(index: &[u8], (start, end): Span) -> &[u8] {
    index.get(start as usize..end as usize).unwrap_or_default()
}

/// Read the string table at `pos` and rank it: its distinct names in
/// byte order, as spans of `index`, and per id the rank of its name.
/// Names spelled alike share a rank, so ranks compare as names do.
fn ranked_names(index: &[u8], pos: &mut usize) -> Option<(Vec<Span>, Vec<u32>)> {
    let n = usize::try_from(get_varint(index, pos)?).ok()?;
    // Each name costs at least its length byte: bound before allocating.
    if n > index.len() {
        return None;
    }
    let mut by_name: Vec<(Span, u32)> = Vec::with_capacity(n);
    for id in 0..n as u32 {
        let len = get_str(index, pos)?.len();
        by_name.push((((*pos - len) as u32, *pos as u32), id));
    }
    by_name.sort_unstable_by(|a, b| span_bytes(index, a.0).cmp(span_bytes(index, b.0)));
    let mut distinct: Vec<Span> = Vec::with_capacity(n);
    let mut rank_of = vec![0u32; n];
    for (span, id) in by_name {
        if distinct.last().is_none_or(|&last| span_bytes(index, last) != span_bytes(index, span)) {
            distinct.push(span);
        }
        rank_of[id as usize] = distinct.len() as u32 - 1;
    }
    Some((distinct, rank_of))
}

/// Validate the series index at `pos` in one pass: every field fits its
/// type, ids are in range, each chunk lies inside its block, the time
/// deltas do not overflow, and series ascend strictly by `(host,
/// metric)`. Returns the ranked host and metric tables and one row per
/// series; nothing is allocated per series.
fn series_rows(
    index: &[u8],
    pos: &mut usize,
    entries: &[IndexEntry],
    path: &Path,
) -> Result<SeriesRows, TsdbError> {
    let bad = |w: String| corrupt(format!("{}: series index: {w}", path.display()));
    let (hosts, host_rank) = ranked_names(index, pos).ok_or_else(|| bad("host table".into()))?;
    let (metrics, metric_rank) =
        ranked_names(index, pos).ok_or_else(|| bad("metric table".into()))?;
    let n_series = get_varint(index, pos).ok_or_else(|| bad("series count".into()))? as usize;
    if n_series > index.len() {
        return Err(bad("series count out of range".into()));
    }
    let mut rows: Vec<SeriesRow> = Vec::with_capacity(n_series);
    for s in 0..n_series {
        let field = |pos: &mut usize, name: &str| {
            get_varint(index, pos).ok_or_else(|| bad(format!("series[{s}].{name}")))
        };
        let host_id = field(pos, "host_id")? as usize;
        let metric_id = field(pos, "metric_id")? as usize;
        let at = *pos as u32;
        let n_refs = field(pos, "n_chunks")? as usize;
        let host = *host_rank
            .get(host_id)
            .ok_or_else(|| bad(format!("series[{s}] host id out of range")))?;
        let metric = *metric_rank
            .get(metric_id)
            .ok_or_else(|| bad(format!("series[{s}] metric id out of range")))?;
        if n_refs > index.len() {
            return Err(bad(format!("series[{s}] chunk count out of range")));
        }
        for c in 0..n_refs {
            read_ref(index, pos, entries)
                .map_err(|what| bad(format!("series[{s}].chunk[{c}] {what}")))?;
        }
        // Lookups binary-search the rows by host: an unsorted or
        // duplicated entry would silently hide series.
        if rows.last().is_some_and(|p| (p.host, p.metric) >= (host, metric)) {
            return Err(bad(format!("series[{s}] not in ascending (host, metric) order")));
        }
        rows.push(SeriesRow { host, metric, at });
    }
    Ok(SeriesRows { hosts, metrics, rows })
}

/// Overall `[min_ts, max_ts]` across `entries`; `None` if empty.
fn time_range_of(entries: &[IndexEntry]) -> Option<(u64, u64)> {
    let min = entries.iter().map(|e| e.min_ts).min()?;
    let max = entries.iter().map(|e| e.max_ts).max()?;
    Some((min, max))
}

impl SegmentReader {
    pub fn open(path: &Path) -> Result<SegmentReader, TsdbError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(corrupt(format!("{}: too short ({file_len} bytes)", path.display())));
        }
        let mut header = [0u8; HEADER_LEN];
        file.read_exact_at(&mut header, 0)?;
        if &header[..8] != MAGIC {
            return Err(corrupt(format!("{}: bad magic", path.display())));
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != VERSION {
            return Err(TsdbError::BadVersion(version));
        }
        let kind = header[10];

        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, file_len - FOOTER_LEN as u64)?;
        if &footer[16..] != FOOTER_MAGIC {
            return Err(corrupt(format!("{}: bad footer magic", path.display())));
        }
        let [o0, o1, o2, o3, o4, o5, o6, o7, l0, l1, l2, l3, c0, c1, c2, c3, ..] = footer;
        let index_offset = u64::from_le_bytes([o0, o1, o2, o3, o4, o5, o6, o7]);
        let index_len = u32::from_le_bytes([l0, l1, l2, l3]) as u64;
        let index_crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if index_offset.checked_add(index_len).is_none_or(|end| end != file_len - FOOTER_LEN as u64)
        {
            return Err(corrupt(format!("{}: index frame out of bounds", path.display())));
        }
        let mut index = vec![0u8; index_len as usize].into_boxed_slice();
        file.read_exact_at(&mut index, index_offset)?;
        if crc32(&index) != index_crc {
            return Err(corrupt(format!("{}: index crc mismatch", path.display())));
        }
        SegmentReader::from_index(path, file, kind, file_len, index_offset, index)
    }

    /// The one constructor, behind [`SegmentReader::open`] and
    /// [`SegmentWriter::seal_reader`]: `index` is the file's index frame
    /// at `index_offset`, CRC-checked or just written. One pass checks
    /// every field of it; the reader keeps the bytes, the ranked name
    /// tables and one row per series.
    fn from_index(
        path: &Path,
        file: File,
        kind: u8,
        file_len: u64,
        index_offset: u64,
        index: Box<[u8]>,
    ) -> Result<SegmentReader, TsdbError> {
        // Rows address the frame by `u32`; the footer's length is one.
        if u32::try_from(index.len()).is_err() {
            return Err(corrupt(format!("{}: index frame too long", path.display())));
        }
        let mut pos = 0usize;
        let n = get_varint(&index, &mut pos)
            .ok_or_else(|| corrupt(format!("{}: index count", path.display())))?
            as usize;
        if n > index.len() {
            return Err(corrupt(format!("{}: index claims {n} entries", path.display())));
        }
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let bad = |name: &str| corrupt(format!("{}: index[{i}].{name}", path.display()));
            let mut field = |name: &str| get_varint(&index, &mut pos).ok_or_else(|| bad(name));
            let offset = field("offset")?;
            let len = u32::try_from(field("len")?).map_err(|_| bad("len"))?;
            let min_ts = field("min_ts")?;
            let max_ts = field("max_ts")?;
            let n_chunks = u32::try_from(field("n_chunks")?).map_err(|_| bad("n_chunks"))?;
            // Block frame = 8-byte len+crc header, then `len` payload bytes.
            let end = offset.checked_add(8 + u64::from(len));
            if offset < HEADER_LEN as u64 || end.is_none_or(|e| e > index_offset) {
                return Err(corrupt(format!("{}: index[{i}] out of bounds", path.display())));
            }
            entries.push(IndexEntry { offset, len, min_ts, max_ts, n_chunks });
        }

        let series = series_rows(&index, &mut pos, &entries, path)?;
        if pos != index.len() {
            return Err(corrupt(format!("{}: trailing index bytes", path.display())));
        }
        Ok(SegmentReader {
            path: path.to_path_buf(),
            file,
            kind,
            time_range: time_range_of(&entries),
            entries,
            index,
            series,
            view: OnceLock::new(),
            file_len,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The series `sel` names, in index order — `(host, metric)`
    /// ascending — read in place: a host is a binary search over the
    /// rows, a metric an integer filter, and a name no series here has
    /// matches nothing.
    pub(crate) fn lookup<'s>(
        &'s self,
        sel: &Selector,
    ) -> impl Iterator<Item = IndexedSeries<'s>> + 's {
        let SeriesRows { hosts, metrics, rows } = &self.series;
        let rows = match sel.host.as_deref().map(|h| self.rank(hosts, h)) {
            None => &rows[..],
            Some(None) => &[],
            Some(Some(host)) => {
                let lo = rows.partition_point(|r| r.host < host);
                let hi = lo + rows[lo..].partition_point(|r| r.host == host);
                &rows[lo..hi]
            }
        };
        // `Some(None)`: a metric no series here has.
        let metric = sel.metric.as_deref().map(|m| self.rank(metrics, m));
        let rows = if metric == Some(None) { &[] } else { rows };
        rows.iter()
            .filter(move |r| metric.flatten().is_none_or(|m| r.metric == m))
            .map(|r| self.indexed(r))
    }

    /// The rank of `name` among `names`; `None` if no series has it.
    fn rank(&self, names: &[Span], name: &str) -> Option<u32> {
        let found = names.binary_search_by(|&s| span_bytes(&self.index, s).cmp(name.as_bytes()));
        found.ok().map(|rank| rank as u32)
    }

    /// The name of rank `rank` among `names`.
    fn name(&self, names: &[Span], rank: u32) -> &str {
        let bytes = names.get(rank as usize).map_or(&[][..], |&s| span_bytes(&self.index, s));
        // `open` checked every name is UTF-8.
        std::str::from_utf8(bytes).unwrap_or_default()
    }

    fn indexed(&self, row: &SeriesRow) -> IndexedSeries<'_> {
        let mut pos = row.at as usize;
        let left = get_varint(&self.index, &mut pos).unwrap_or(0);
        IndexedSeries {
            host: self.name(&self.series.hosts, row.host),
            metric: self.name(&self.series.metrics, row.metric),
            refs: ChunkRefs { index: &self.index, entries: &self.entries, pos, left },
        }
    }

    /// The per-series chunk index, sorted by `(host, metric)`, as owned
    /// structs: made on the first call, by the decoder lookups use. No
    /// engine path calls it. Always `Some`: every readable segment
    /// carries one.
    pub fn series_index(&self) -> Option<&[SeriesEntry]> {
        Some(self.view.get_or_init(|| {
            let entry = |s: IndexedSeries<'_>| SeriesEntry {
                host: s.host.to_owned(),
                metric: s.metric.to_owned(),
                chunks: s.refs.collect(),
            };
            self.series.rows.iter().map(|r| entry(self.indexed(r))).collect()
        }))
    }

    /// Whether [`SegmentReader::series_index`] has been made.
    #[cfg(test)]
    pub(crate) fn view_is_built(&self) -> bool {
        self.view.get().is_some()
    }

    /// Overall `[min_ts, max_ts]` across all blocks; `None` if empty.
    /// Computed once, when the reader is made.
    pub fn time_range(&self) -> Option<(u64, u64)> {
        self.time_range
    }

    /// Fetch + CRC-check one block's payload.
    pub fn read_block(&self, entry: &IndexEntry) -> Result<Vec<u8>, TsdbError> {
        let mut frame = [0u8; 8];
        self.file.read_exact_at(&mut frame, entry.offset)?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = frame;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if len != entry.len {
            return Err(corrupt(format!(
                "{}: block at {} length mismatch (frame {len}, index {})",
                self.path.display(),
                entry.offset,
                entry.len
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.file.read_exact_at(&mut payload, entry.offset.saturating_add(8))?;
        if crc32(&payload) != crc {
            return Err(corrupt(format!(
                "{}: block at {} crc mismatch",
                self.path.display(),
                entry.offset
            )));
        }
        Ok(payload)
    }

    /// Read an *extent* — bytes `span` of block `block_ix`'s payload —
    /// into `buf`, replacing what it held. Nothing is verified here:
    /// the block frame's CRC covers bytes this does not read. Each
    /// chunk inside is checked against its own CRC as
    /// [`SegmentReader::decode_chunk_in_extent`] decodes it.
    pub(crate) fn read_extent(
        &self,
        block_ix: u32,
        span: Range<u32>,
        buf: &mut Vec<u8>,
    ) -> Result<(), TsdbError> {
        let entry = self
            .entries
            .get(block_ix as usize)
            .filter(|e| span.start <= span.end && span.end <= e.len)
            .ok_or_else(|| {
                corrupt(format!(
                    "{}: extent {span:?} outside block {block_ix}",
                    self.path.display()
                ))
            })?;
        buf.clear();
        buf.resize((span.end - span.start) as usize, 0);
        // `open` checked that the frame ends inside the file, so the
        // sum cannot wrap.
        self.file.read_exact_at(buf, entry.offset + 8 + u64::from(span.start))?;
        Ok(())
    }

    /// The encoded bytes `r` frames, out of `buf` — its block's payload
    /// from offset `from` on.
    fn chunk_bytes<'b>(
        &self,
        buf: &'b [u8],
        from: u32,
        r: &ChunkRef,
    ) -> Result<&'b [u8], TsdbError> {
        r.offset
            .checked_sub(from)
            .and_then(|at| buf.get(at as usize..)?.get(..r.len as usize))
            .ok_or_else(|| self.bad_chunk(r, "out of bounds"))
    }

    fn bad_chunk(&self, r: &ChunkRef, what: &str) -> TsdbError {
        corrupt(format!(
            "{}: chunk at block {} offset {}: {what}",
            self.path.display(),
            r.block_ix,
            r.offset
        ))
    }

    /// Decode one chunk addressed by a [`ChunkRef`] out of its
    /// block's already-read payload, without touching the rest of the
    /// block. [`SegmentReader::read_block`] verified the payload.
    pub fn decode_chunk_in_block(
        &self,
        payload: &[u8],
        r: &ChunkRef,
    ) -> Result<Vec<(u64, u64)>, TsdbError> {
        decode_chunk(self.chunk_bytes(payload, 0, r)?).ok_or_else(|| self.bad_chunk(r, "decode"))
    }

    /// Verify one chunk against its CRC and decode it into `out`
    /// (replacing what it held), out of an extent that
    /// [`SegmentReader::read_extent`] read from payload offset `from` on.
    pub(crate) fn decode_chunk_in_extent(
        &self,
        extent: &[u8],
        from: u32,
        r: &ChunkRef,
        out: &mut Vec<(u64, u64)>,
    ) -> Result<(), TsdbError> {
        self.decode_verified(extent, from, r, |bytes, pos| {
            codec::decode_chunk_into(bytes, pos, out)
        })
    }

    /// The bytes `r` frames out of an extent read from payload offset
    /// `from` on, checked against its CRC.
    pub(crate) fn verified_chunk<'b>(
        &self,
        extent: &'b [u8],
        from: u32,
        r: &ChunkRef,
    ) -> Result<&'b [u8], TsdbError> {
        let bytes = self.chunk_bytes(extent, from, r)?;
        if crc32(bytes) != r.crc {
            return Err(self.bad_chunk(r, "crc mismatch"));
        }
        Ok(bytes)
    }

    /// [`SegmentReader::verified_chunk`], then `decode` the bytes — a
    /// sample or a stats chunk — which must end on their last byte.
    pub(crate) fn decode_verified(
        &self,
        extent: &[u8],
        from: u32,
        r: &ChunkRef,
        decode: impl FnOnce(&[u8], &mut usize) -> Option<()>,
    ) -> Result<(), TsdbError> {
        let bytes = self.verified_chunk(extent, from, r)?;
        let mut pos = 0;
        match decode(bytes, &mut pos) {
            Some(()) if pos == bytes.len() => Ok(()),
            _ => Err(self.bad_chunk(r, "decode")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdb-seg-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    type OwnedChunk = (String, String, Vec<(u64, u64)>);

    fn sample_chunks() -> Vec<OwnedChunk> {
        vec![
            (
                "c301-101".into(),
                "cpu_user".into(),
                (0..100).map(|i| (i * 600, (i as f64 * 0.01).to_bits())).collect(),
            ),
            (
                "c301-101".into(),
                "mem_used".into(),
                (0..100).map(|i| (i * 600, ((i * 4096) as f64).to_bits())).collect(),
            ),
            (
                "c301-102".into(),
                "cpu_user".into(),
                (50..150).map(|i| (i * 600, 0.5f64.to_bits())).collect(),
            ),
        ]
    }

    /// Borrow an owned chunk list into `push_series_block` form.
    fn as_refs(owned: &[OwnedChunk]) -> Vec<ChunkSamples<'_>> {
        owned.iter().map(|(h, m, s)| (h.as_str(), m.as_str(), s.as_slice())).collect()
    }

    #[test]
    fn seal_and_reopen_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("seg-000001.tsdb");
        let mut w = SegmentWriter::new(KIND_SERIES);
        let owned = sample_chunks();
        w.push_series_block(&as_refs(&owned));
        let bytes = w.seal(&path).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), bytes);
        assert!(!dir.join("seg-000001.tsdb.tmp").exists(), "tmp file cleaned up");

        let r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.kind, KIND_SERIES);
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.time_range(), Some((0, 149 * 600)));
        let payload = r.read_block(&r.entries[0]).unwrap();
        let index = r.series_index().unwrap();
        assert_eq!(index.len(), 3);
        assert_eq!(index[0].host, "c301-101");
        assert_eq!(index[2].metric, "cpu_user");
        let samples = r.decode_chunk_in_block(&payload, &index[1].chunks[0]).unwrap();
        assert_eq!(samples, owned[1].2);
        assert_eq!(samples[3], (3 * 600, (3.0 * 4096.0f64).to_bits()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_index_addresses_every_chunk_with_stats() {
        let dir = tmpdir("sindex");
        let path = dir.join("seg-000001.tsdb");
        let mut w = SegmentWriter::new(KIND_SERIES);
        let owned = sample_chunks();
        w.push_series_block(&as_refs(&owned));
        w.seal(&path).unwrap();

        let r = SegmentReader::open(&path).unwrap();
        let idx = r.series_index().expect("every segment has a series index");
        assert_eq!(idx.len(), 3);
        // Sorted by (host, metric).
        let names: Vec<(&str, &str)> =
            idx.iter().map(|e| (e.host.as_str(), e.metric.as_str())).collect();
        assert_eq!(
            names,
            vec![("c301-101", "cpu_user"), ("c301-101", "mem_used"), ("c301-102", "cpu_user")]
        );
        // Each chunk decodes exactly, and its stats match a fresh scan.
        for entry in idx {
            for cref in &entry.chunks {
                let payload = r.read_block(&r.entries[cref.block_ix as usize]).unwrap();
                let samples = r.decode_chunk_in_block(&payload, cref).unwrap();
                assert!(!samples.is_empty());
                assert_eq!(cref.min_ts, samples.iter().map(|&(ts, _)| ts).min().unwrap());
                assert_eq!(cref.max_ts, samples.iter().map(|&(ts, _)| ts).max().unwrap());
                let expect = ChunkStats::from_samples(&samples);
                assert_eq!(cref.stats.count, expect.count);
                assert_eq!(cref.stats.sum.to_bits(), expect.sum.to_bits());
                assert_eq!(cref.stats.min.to_bits(), expect.min.to_bits());
                assert_eq!(cref.stats.max.to_bits(), expect.max.to_bits());
                assert_eq!(cref.stats.last.to_bits(), expect.last.to_bits());
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Three files no writer of this build produces, all with every CRC
    /// valid: an index entry whose offset sits at the top of `u64`, a
    /// series index out of `(host, metric)` order, and a version-1
    /// header. None may panic, and a refused file is never unlinked.
    #[test]
    fn hostile_index_offset_and_old_version_are_refused_not_panicked_on() {
        let dir = tmpdir("hostile");

        let mut index = Vec::new();
        for v in [1, u64::MAX - 3, 0, 0, 0, 0] {
            put_varint(&mut index, v); // one entry: offset, len, min_ts, max_ts, n_chunks
        }
        index.extend_from_slice(&[0, 0, 0]); // empty series index
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[KIND_SERIES, 0]);
        bytes.extend_from_slice(&index);
        bytes.extend_from_slice(&(HEADER_LEN as u64).to_le_bytes()); // index_offset
        bytes.extend_from_slice(&(index.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&index).to_le_bytes());
        bytes.extend_from_slice(FOOTER_MAGIC);
        let hostile = dir.join("hostile.tsdb");
        fs::write(&hostile, &bytes).unwrap();
        assert!(matches!(SegmentReader::open(&hostile), Err(TsdbError::Corrupt(_))));

        // Two series, no blocks, index order `(b, m)` then `(a, m)`; then
        // the same entry twice. Either would make the host binary search
        // answer with a wrong subset.
        for second_host_id in [0, 1] {
            let mut index = vec![0]; // no block entries
            index.extend_from_slice(&[2, 1, b'a', 1, b'b']); // hosts: a, b
            index.extend_from_slice(&[1, 1, b'm']); // metrics: m
            index.extend_from_slice(&[2, 1, 0, 0, second_host_id, 0, 0]); // (host, metric, 0 chunks) x2
            let mut bytes = bytes[..HEADER_LEN].to_vec();
            bytes.extend_from_slice(&index);
            bytes.extend_from_slice(&(HEADER_LEN as u64).to_le_bytes());
            bytes.extend_from_slice(&(index.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&index).to_le_bytes());
            bytes.extend_from_slice(FOOTER_MAGIC);
            fs::write(&hostile, &bytes).unwrap();
            let Err(TsdbError::Corrupt(msg)) = SegmentReader::open(&hostile) else {
                panic!("unsorted series index must not open")
            };
            assert!(msg.contains("ascending (host, metric)"), "{msg}");
            assert_eq!(fs::read(&hostile).unwrap(), bytes, "refused segment left in place");
        }
        fs::remove_file(&hostile).unwrap();

        let path = dir.join("seg-000001.tsdb");
        let mut w = SegmentWriter::new(KIND_SERIES);
        w.push_series_block(&as_refs(&sample_chunks()));
        w.seal(&path).unwrap();
        let mut v1 = fs::read(&path).unwrap();
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        fs::write(&path, &v1).unwrap();
        let Err(err) = SegmentReader::open(&path) else { panic!("v1 header must not open") };
        assert!(matches!(err, TsdbError::BadVersion(1)));
        let msg = err.to_string();
        assert!(msg.contains("version 1") && msg.contains("left untouched"), "{msg}");
        assert!(matches!(crate::db::Tsdb::open(&dir), Err(TsdbError::BadVersion(1))));
        assert_eq!(fs::read(&path).unwrap(), v1, "refused segment left in place");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Format pin: the sealed bytes of a fixed input (length + CRC32 of
    /// the whole file). Version 3: the version-2 file of this input was
    /// `(1609, 0x2569_9914)`; three chunk CRCs make it 12 bytes longer,
    /// and at these small timestamps the two time deltas save nothing.
    /// With bare series blocks — no string tables or chunk prefixes in
    /// the payload — the tabled `(1621, 0x3EC1_C50C)` (kept as
    /// `tests/fixtures/seg-tabled-v3.tsdb`) is 50 bytes shorter.
    #[test]
    fn sealed_bytes_are_pinned() {
        let dir = tmpdir("golden");
        let path = dir.join("seg-000001.tsdb");
        let mut w = SegmentWriter::new(KIND_SERIES);
        w.push_series_block(&as_refs(&sample_chunks()));
        w.seal(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (1571, 0xF8C8_C6E4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupting_any_byte_is_detected_or_harmless() {
        let dir = tmpdir("corrupt");
        let path = dir.join("seg-000001.tsdb");
        let mut w = SegmentWriter::new(KIND_SERIES);
        let owned = sample_chunks();
        w.push_series_block(&as_refs(&owned));
        w.seal(&path).unwrap();
        let good = fs::read(&path).unwrap();

        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            fs::write(&path, &bad).unwrap();
            // Must never panic. Either open fails, or a block read /
            // decode fails, or (for truly dont-care bytes) data matches.
            if let Ok(r) = SegmentReader::open(&path) {
                for cref in r.series_index().unwrap().iter().flat_map(|e| &e.chunks) {
                    if let Ok(p) = r.read_block(&r.entries[cref.block_ix as usize]) {
                        let _ = r.decode_chunk_in_block(&p, cref);
                    }
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_offset_never_panics() {
        let dir = tmpdir("trunc");
        let path = dir.join("seg-000001.tsdb");
        let mut w = SegmentWriter::new(KIND_SERIES);
        let owned = sample_chunks();
        w.push_series_block(&as_refs(&owned));
        w.seal(&path).unwrap();
        let good = fs::read(&path).unwrap();
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(
                SegmentReader::open(&path).is_err(),
                "truncated segment ({cut} bytes) must not open clean"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn multiple_blocks_index_time_ranges() {
        let dir = tmpdir("multi");
        let path = dir.join("seg-000002.tsdb");
        let mut w = SegmentWriter::new(KIND_SERIES);
        w.push_series_block(&[("h1", "m", &[(100, 1u64), (200, 2)][..])]);
        w.push_series_block(&[("h2", "m", &[(5000, 3u64), (9000, 4)][..])]);
        w.seal(&path).unwrap();
        let r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.entries.len(), 2);
        assert_eq!((r.entries[0].min_ts, r.entries[0].max_ts), (100, 200));
        assert_eq!((r.entries[1].min_ts, r.entries[1].max_ts), (5000, 9000));
        // The series index spans both blocks.
        let idx = r.series_index().unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx[0].chunks[0].block_ix, 0);
        assert_eq!(idx[1].chunks[0].block_ix, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A file older than this build's format is refused by version,
    /// with a message that sends nobody to `compact`, and nothing is
    /// unlinked — neither it nor its neighbours in a store.
    #[test]
    fn a_version_2_segment_is_refused_and_left_on_disk() {
        let dir = tmpdir("v2");
        let path = dir.join("seg-000002.tsdb");
        for name in ["seg-000001.tsdb", "seg-000002.tsdb"] {
            let mut w = SegmentWriter::new(KIND_SERIES);
            w.push_series_block(&as_refs(&sample_chunks()));
            w.seal(&dir.join(name)).unwrap();
        }
        let mut v2 = fs::read(&path).unwrap();
        v2[8..10].copy_from_slice(&2u16.to_le_bytes());
        fs::write(&path, &v2).unwrap();
        let listing = || {
            let mut names: Vec<_> =
                fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
            names.sort();
            names
        };
        let before = listing();

        let Err(err) = SegmentReader::open(&path) else { panic!("v2 header must not open") };
        assert!(matches!(err, TsdbError::BadVersion(2)));
        let msg = err.to_string();
        assert!(msg.contains("version 2") && msg.contains("reads version 3 only"), "{msg}");
        assert!(msg.contains("left untouched") && !msg.contains("compact"), "{msg}");
        assert_eq!(fs::read(&path).unwrap(), v2);
        assert!(matches!(crate::db::Tsdb::open(&dir), Err(TsdbError::BadVersion(2))));
        assert_eq!(fs::read(&path).unwrap(), v2);
        assert_eq!(listing(), before, "a refusing open unlinks nothing");
        let _ = fs::remove_dir_all(&dir);
    }

    /// `fields` as the index frame of a one-block, one-series,
    /// one-chunk segment, every field a `u64` so a test can write what
    /// no writer would: `[block offset, len, min_ts, max_ts, n_chunks,
    /// chunk block_ix, offset, len, crc, d_min, d_max]`.
    fn one_chunk_index(fields: [u64; 11], stats: &ChunkStats) -> Vec<u8> {
        let [b_offset, b_len, b_min, b_max, b_chunks, block_ix, offset, len, crc, d_min, d_max] =
            fields;
        let mut index = vec![1];
        for v in [b_offset, b_len, b_min, b_max, b_chunks] {
            put_varint(&mut index, v);
        }
        index.extend_from_slice(&[1, 1, b'h', 1, 1, b'm', 1, 0, 0, 1]);
        for v in [block_ix, offset, len] {
            put_varint(&mut index, v);
        }
        index.extend_from_slice(&(crc as u32).to_le_bytes());
        put_varint(&mut index, d_min);
        put_varint(&mut index, d_max);
        put_stats(&mut index, stats);
        index
    }

    /// A varint the writer keeps in a `u32` is refused when it does not
    /// fit one, not wrapped into range: each such field of a valid
    /// index, plus 2³², under a valid index CRC.
    #[test]
    fn index_fields_beyond_u32_are_refused_not_wrapped() {
        let dir = tmpdir("wrap");
        let path = dir.join("seg-000001.tsdb");
        let mut w = SegmentWriter::new(KIND_SERIES);
        w.push_series_block(&[("h", "m", &[(1000, 1u64), (1600, 2)][..])]);
        let sealed = w.seal_reader(&path).unwrap();
        let entry = sealed.entries[0].clone();
        let r = sealed.series_index().unwrap()[0].chunks[0].clone();
        let good = fs::read(&path).unwrap();
        let fields = [
            entry.offset,
            u64::from(entry.len),
            entry.min_ts,
            entry.max_ts,
            u64::from(entry.n_chunks),
            u64::from(r.block_ix),
            u64::from(r.offset),
            u64::from(r.len),
            u64::from(r.crc),
            r.min_ts - entry.min_ts,
            r.max_ts - r.min_ts,
        ];
        let with_index = |index: &[u8]| {
            let frames_end = entry.offset as usize + 8 + entry.len as usize;
            let mut bytes = good[..frames_end].to_vec();
            bytes.extend_from_slice(index);
            bytes.extend_from_slice(&(frames_end as u64).to_le_bytes());
            bytes.extend_from_slice(&(index.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(index).to_le_bytes());
            bytes.extend_from_slice(FOOTER_MAGIC);
            bytes
        };
        assert_eq!(with_index(&one_chunk_index(fields, &r.stats)), good, "the grammar, by hand");

        for (at, name) in [(1, "len"), (4, "n_chunks"), (5, "block_ix"), (6, "offset"), (7, "len")]
        {
            let mut hostile = fields;
            hostile[at] += 1 << 32;
            fs::write(&path, with_index(&one_chunk_index(hostile, &r.stats))).unwrap();
            let Err(TsdbError::Corrupt(msg)) = SegmentReader::open(&path) else {
                panic!("field {at} ({name}) + 2^32 must not open")
            };
            assert!(msg.contains(name), "field {at}: {msg}");
        }
        // The two time deltas are `u64`s: they may not carry past it.
        for at in [9, 10] {
            let mut hostile = fields;
            hostile[at] = u64::MAX;
            fs::write(&path, with_index(&one_chunk_index(hostile, &r.stats))).unwrap();
            let Err(TsdbError::Corrupt(msg)) = SegmentReader::open(&path) else {
                panic!("delta {at} must not wrap")
            };
            assert!(msg.contains("overflow"), "{msg}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A chunk ref, floats as bits (NaN statistics must compare equal
    /// to themselves).
    type RefBits = ((u32, u32, u32, u32), u64, u64, u64, [u64; 4]);

    fn ref_bits(c: &ChunkRef) -> RefBits {
        let s = &c.stats;
        let stats = [s.sum, s.min, s.max, s.last].map(f64::to_bits);
        ((c.block_ix, c.offset, c.len, c.crc), c.min_ts, c.max_ts, s.count, stats)
    }

    /// Everything a reader holds.
    fn reader_fields(r: &SegmentReader) -> impl PartialEq + std::fmt::Debug {
        let series: Vec<_> = r
            .series_index()
            .unwrap()
            .iter()
            .map(|e| {
                let chunks: Vec<RefBits> = e.chunks.iter().map(ref_bits).collect();
                (e.host.clone(), e.metric.clone(), chunks)
            })
            .collect();
        let held = (r.index.clone(), r.series.clone());
        (r.path.clone(), r.kind, r.entries.clone(), series, held, r.file_len, r.time_range)
    }

    /// The reader a writer hands back is the one `open` parses out of
    /// the file it sealed, field for field.
    #[test]
    fn the_reader_from_the_writer_is_the_reader_open_builds() {
        use supremm_metrics::rng::cases;
        let dir = tmpdir("from-writer");
        let path = dir.join("seg-000001.tsdb");
        cases("the_reader_from_the_writer_is_the_reader_open_builds", 64, |rng| {
            let mut w = SegmentWriter::new(KIND_SERIES);
            for _ in 0..rng.range(0..5) {
                let epoch = rng.pick(&[0, 1_700_000_000, u64::MAX - 1_000_000]);
                let chunks = rng.vec(0..6, |r| {
                    let samples = r.vec(0..40, |r| (epoch + r.range(0..1_000_000), r.next_u64()));
                    (format!("h{}", r.range(0..4)), format!("m{}", r.range(0..3)), samples)
                });
                w.push_series_block(&as_refs(&chunks));
            }
            let sealed = w.seal_reader(&path).unwrap();
            let opened = SegmentReader::open(&path).unwrap();
            assert_eq!(reader_fields(&sealed), reader_fields(&opened));
            assert_eq!(sealed.file_len(), fs::metadata(&path).unwrap().len());
            for (block, entry) in opened.entries.iter().enumerate() {
                let payload = opened.read_block(entry).unwrap();
                for r in opened.series_index().unwrap().iter().flat_map(|e| &e.chunks) {
                    if r.block_ix as usize == block {
                        let bytes = &payload[r.offset as usize..][..r.len as usize];
                        assert_eq!(crc32(bytes), r.crc);
                    }
                }
            }
        });
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every lookup shape — all, host, metric, host + metric, and names
    /// no series has — returns exactly what a filter over the
    /// materialized view returns, in the same order; and the view holds
    /// exactly the series written. Hosts carry different metric sets:
    /// the first host never has `m0` and the second always does, so the
    /// writer's first-seen metric table is out of name order.
    #[test]
    fn lookups_match_a_filter_over_the_view() {
        use supremm_metrics::rng::cases;
        let dir = tmpdir("lookup");
        let path = dir.join("seg-000001.tsdb");
        let hosts = ["a0", "c1", "c10", "c2", "z9"];
        let metrics = ["m0", "m1", "m10", "m2", "n"];
        let mut unsorted_tables = 0;
        cases("lookups_match_a_filter_over_the_view", 64, |rng| {
            let n_hosts = rng.range(1..6) as usize;
            let sets: Vec<u64> = (0..n_hosts)
                .map(|h| match (h, rng.range(0..32)) {
                    (0, mask) => mask & !1,
                    (1, mask) => mask | 1,
                    (_, mask) => mask,
                })
                .collect();
            let series: Vec<(&str, &str)> = (0..n_hosts)
                .flat_map(|h| (0..5).map(move |m| (h, m)))
                .filter(|&(h, m)| sets[h] >> m & 1 == 1)
                .map(|(h, m)| (hosts[h], metrics[m]))
                .collect();
            // (chunks, samples) per series written.
            let mut model: BTreeMap<(&str, &str), (usize, u64)> = BTreeMap::new();
            let mut w = SegmentWriter::new(KIND_SERIES);
            let n_blocks = if series.is_empty() { 0 } else { rng.range(1..4) };
            for _ in 0..n_blocks {
                let epoch = rng.pick(&[0, 1_700_000_000, u64::MAX - 1_000_000]);
                let block: Vec<_> = rng.vec(0..8, |r| {
                    // Ascending: a chunk's stats count nothing else.
                    let mut ts = epoch + r.range(0..100_000);
                    let samples = r.vec(0..20, |r| {
                        ts += r.range(1..600);
                        (ts, r.next_u64())
                    });
                    (r.pick(&series), samples)
                });
                for (key, samples) in &block {
                    let (chunks, n) = model.entry(*key).or_default();
                    *chunks += 1;
                    *n += samples.len() as u64;
                }
                let block: Vec<ChunkSamples<'_>> =
                    block.iter().map(|&((h, m), ref s)| (h, m, s.as_slice())).collect();
                w.push_series_block(&block);
            }
            w.seal(&path).unwrap();
            let r = SegmentReader::open(&path).unwrap();
            let view = r.series_index().unwrap();
            let written: Vec<_> = model.iter().map(|(&(h, m), &counts)| (h, m, counts)).collect();
            let held: Vec<_> = view
                .iter()
                .map(|e| {
                    let samples = e.chunks.iter().map(|c| c.stats.count).sum();
                    (e.host.as_str(), e.metric.as_str(), (e.chunks.len(), samples))
                })
                .collect();
            assert_eq!(held, written);
            let mut first_seen: Vec<&str> = Vec::new();
            for e in view {
                if !first_seen.contains(&e.metric.as_str()) {
                    first_seen.push(&e.metric);
                }
            }
            unsorted_tables += usize::from(!first_seen.is_sorted());

            let host_names = hosts.iter().chain(&["", "a", "c", "c100", "zz"]);
            let metric_names = metrics.iter().chain(&["", "m", "m3", "zz"]);
            for host in std::iter::once(None).chain(host_names.map(Some)) {
                for metric in std::iter::once(None).chain(metric_names.clone().map(Some)) {
                    let sel = Selector {
                        host: host.map(|h| h.to_string()),
                        metric: metric.map(|m| m.to_string()),
                    };
                    let got: Vec<(&str, &str, Vec<RefBits>)> = r
                        .lookup(&sel)
                        .map(|s| (s.host, s.metric, s.refs.map(|c| ref_bits(&c)).collect()))
                        .collect();
                    let want: Vec<(&str, &str, Vec<RefBits>)> = view
                        .iter()
                        .filter(|e| sel.accepts(&e.host, &e.metric))
                        .map(|e| (&*e.host, &*e.metric, e.chunks.iter().map(ref_bits).collect()))
                        .collect();
                    assert_eq!(got, want, "{sel:?}");
                }
            }
        });
        assert!(unsorted_tables > 0, "no case wrote a metric table out of name order");
        let _ = fs::remove_dir_all(&dir);
    }

    /// `index` (block entries, then the series index) as a whole
    /// segment file, under a valid index CRC.
    fn with_index(index: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[KIND_SERIES, 0]);
        bytes.extend_from_slice(index);
        bytes.extend_from_slice(&(HEADER_LEN as u64).to_le_bytes());
        bytes.extend_from_slice(&(index.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(index).to_le_bytes());
        bytes.extend_from_slice(FOOTER_MAGIC);
        bytes
    }

    /// A string table may list one name twice (no writer of this build
    /// does). Both ids are that one name, as they were when the index
    /// was parsed into strings: the series still have to ascend by name,
    /// and a lookup of it finds them under either id.
    #[test]
    fn a_name_listed_twice_is_one_name() {
        let dir = tmpdir("twice");
        let path = dir.join("seg-000001.tsdb");
        let mut index = vec![0]; // no block entries
        index.extend_from_slice(&[2, 1, b'a', 1, b'a']); // hosts: a, a
        index.extend_from_slice(&[2, 1, b'n', 1, b'm']); // metrics: n, m
        let series = |s: [u8; 2], t: [u8; 2]| {
            let mut index = index.clone();
            index.extend_from_slice(&[2, s[0], s[1], 0, t[0], t[1], 0]); // 0 chunks each
            index
        };
        // (a, m) then (a, n), through different host ids: ascending.
        fs::write(&path, with_index(&series([0, 1], [1, 0]))).unwrap();
        let r = SegmentReader::open(&path).unwrap();
        let names = |sel: Selector| -> Vec<(String, String)> {
            r.lookup(&sel).map(|s| (s.host.to_owned(), s.metric.to_owned())).collect()
        };
        let both = vec![("a".into(), "m".into()), ("a".into(), "n".into())];
        assert_eq!(names(Selector::host("a")), both);
        assert_eq!(names(Selector::all()), both);
        assert_eq!(names(Selector::metric("n")), both[1..]);
        // (a, n) then (a, m): descending by name, whatever the ids say.
        fs::write(&path, with_index(&series([0, 0], [1, 1]))).unwrap();
        let Err(TsdbError::Corrupt(msg)) = SegmentReader::open(&path) else {
            panic!("unsorted series index must not open")
        };
        assert!(msg.contains("ascending (host, metric)"), "{msg}");
        // (a, m) twice, through different host ids.
        fs::write(&path, with_index(&series([0, 1], [1, 1]))).unwrap();
        assert!(matches!(SegmentReader::open(&path), Err(TsdbError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    /// An intact segment file and its chunks.
    struct Intact {
        bytes: Vec<u8>,
        chunks: Vec<IntactChunk>,
    }

    struct IntactChunk {
        /// `(series, chunk)` in the index.
        ix: (usize, usize),
        /// Where its encoded bytes lie in the file.
        at: Range<usize>,
        samples: Vec<(u64, u64)>,
    }

    fn seal_intact(path: &Path, blocks: &[Vec<OwnedChunk>]) -> Intact {
        let mut w = SegmentWriter::new(KIND_SERIES);
        for block in blocks {
            w.push_series_block(&as_refs(block));
        }
        let r = w.seal_reader(path).unwrap();
        let mut chunks = Vec::new();
        for (s, entry) in r.series_index().unwrap().iter().enumerate() {
            for (c, cref) in entry.chunks.iter().enumerate() {
                let block = &r.entries[cref.block_ix as usize];
                let at = block.offset as usize + 8 + cref.offset as usize;
                let payload = r.read_block(block).unwrap();
                let samples = r.decode_chunk_in_block(&payload, cref).unwrap();
                chunks.push(IntactChunk { ix: (s, c), at: at..at + cref.len as usize, samples });
            }
        }
        Intact { bytes: fs::read(path).unwrap(), chunks }
    }

    /// Damage byte `i` of `intact` with `mask` and read everything back:
    /// `open` refuses the file, or every chunk whose bytes hold `i` is
    /// refused by its extent read and every other chunk decodes to its
    /// own samples, and — when `i` is in no chunk — it is one of a block
    /// frame's 8 bytes and `read_block` refuses that block: chunks tile
    /// every payload, so no other byte is left. No read returns a wrong
    /// sample.
    fn assert_flip_is_caught(path: &Path, intact: &Intact, i: usize, mask: u8) {
        let mut bad = intact.bytes.clone();
        bad[i] ^= mask;
        fs::write(path, &bad).unwrap();
        let Ok(r) = SegmentReader::open(path) else { return };
        // The index passed its CRC: these are the intact file's refs.
        // One extent per block, first chunk to last, as a walk of the
        // whole segment reads them.
        let (mut extent, mut samples) = (Vec::new(), Vec::new());
        let mut in_a_chunk = false;
        let series = r.series_index().unwrap();
        for (block_ix, block) in r.entries.iter().enumerate() {
            let in_block = |c: &&ChunkRef| c.block_ix as usize == block_ix;
            let refs = || series.iter().flat_map(|e| &e.chunks).filter(in_block);
            let from = refs().map(|c| c.offset).min().unwrap_or(0);
            let to = refs().map(|c| c.offset + c.len).max().unwrap_or(0);
            r.read_extent(block_ix as u32, from..to, &mut extent).unwrap();
            assert!(extent.len() <= block.len as usize);
            for IntactChunk { ix: (s, c), at, samples: want } in &intact.chunks {
                let cref = &series[*s].chunks[*c];
                if !in_block(&cref) {
                    continue;
                }
                let got = r.decode_chunk_in_extent(&extent, from, cref, &mut samples);
                if at.contains(&i) {
                    in_a_chunk = true;
                    assert!(matches!(got, Err(TsdbError::Corrupt(_))), "byte {i} in chunk {s}/{c}");
                } else {
                    got.unwrap();
                    assert_eq!(&samples, want, "byte {i}, chunk {s}/{c}");
                }
            }
        }
        if in_a_chunk {
            return;
        }
        let frame = |e: &&IndexEntry| (e.offset as usize..e.offset as usize + 8).contains(&i);
        match r.entries.iter().find(frame) {
            Some(block) => assert!(r.read_block(block).is_err(), "byte {i} in a block frame"),
            // The header's kind and reserved bytes are under no
            // checksum; a store refuses a wrong kind by value.
            None => assert!(
                i == 11 || (i == 10 && r.kind != KIND_SERIES),
                "byte {i} is in no chunk and no block frame"
            ),
        }
    }

    #[test]
    fn every_flipped_byte_is_caught_where_it_is_read() {
        let dir = tmpdir("flip-all");
        let path = dir.join("seg-000001.tsdb");
        let owned = sample_chunks();
        let intact = seal_intact(&path, &[owned[..2].to_vec(), owned[2..].to_vec(), owned.clone()]);
        assert_eq!(SegmentReader::open(&path).unwrap().entries.len(), 3, "multi-block");
        for i in 0..intact.bytes.len() {
            assert_flip_is_caught(&path, &intact, i, 0xFF);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The same on a segment of engine size — 8 blocks of 64 chunks of
    /// a day's samples — at seeded random positions and masks.
    #[test]
    fn random_flips_in_a_large_segment_are_caught_where_they_are_read() {
        use supremm_metrics::rng::cases;
        let dir = tmpdir("flip-large");
        let path = dir.join("seg-000001.tsdb");
        let blocks: Vec<Vec<OwnedChunk>> = (0..8u64)
            .map(|b| {
                (0..64u64)
                    .map(|c| {
                        let (host, metric) = (b * 4 + c / 16, c % 16);
                        let samples = (0..144u64)
                            .map(|i| (1_700_000_000 + i * 600, (host * 1000 + metric * i) as f64))
                            .map(|(ts, v)| (ts, v.to_bits()))
                            .collect();
                        (format!("h{host:03}"), format!("m{metric:02}"), samples)
                    })
                    .collect()
            })
            .collect();
        let intact = seal_intact(&path, &blocks);
        cases("random_flips_in_a_large_segment_are_caught_where_they_are_read", 64, |rng| {
            let i = rng.range(0..intact.bytes.len() as u64) as usize;
            let mask = rng.range(1..256) as u8;
            assert_flip_is_caught(&path, &intact, i, mask);
        });
        let _ = fs::remove_dir_all(&dir);
    }

    /// Each block's refs, sorted by offset, cover `[0, len)` of its
    /// payload exactly — no gap, no overlap — and there are `n_chunks`
    /// of them.
    fn assert_refs_tile(r: &SegmentReader) {
        let series = r.series_index().unwrap();
        for (block_ix, entry) in r.entries.iter().enumerate() {
            let mut spans: Vec<(u32, u32)> = series
                .iter()
                .flat_map(|e| &e.chunks)
                .filter(|c| c.block_ix as usize == block_ix)
                .map(|c| (c.offset, c.len))
                .collect();
            spans.sort_unstable();
            assert_eq!(spans.len(), entry.n_chunks as usize, "block {block_ix}");
            let mut end = 0;
            for (offset, len) in spans {
                assert_eq!(offset, end, "block {block_ix}: a gap or an overlap at {end}");
                end += len;
            }
            assert_eq!(end, entry.len, "block {block_ix}: its refs end at {end}");
        }
    }

    /// A series block is its chunks back to back: whether chunks come
    /// one at a time (`push_chunk` / `close_block`, as `write_segment`
    /// gives them) or a block at once (`push_series_block`), the file is
    /// the same and its refs tile every block. Every case holds a series
    /// split across a block boundary, chunks out of key order and an
    /// empty chunk.
    #[test]
    fn refs_tile_every_series_block() {
        use supremm_metrics::rng::{cases, SplitMix64};
        let dir = tmpdir("tile");
        let (path, again) = (dir.join("seg-000001.tsdb"), dir.join("seg-000002.tsdb"));
        cases("refs_tile_every_series_block", 64, |rng| {
            let epoch = rng.pick(&[0, 1_700_000_000, u64::MAX - 1_000_000]);
            let draw = |r: &mut SplitMix64, n: Range<usize>| -> Vec<(u64, u64)> {
                r.vec(n, |r| (epoch + r.range(0..1_000_000), r.next_u64()))
            };
            let mut blocks: Vec<Vec<OwnedChunk>> = vec![
                vec![("h2".into(), "m1".into(), draw(rng, 1..20))],
                vec![
                    ("h0".into(), "m0".into(), Vec::new()),
                    ("h2".into(), "m1".into(), draw(rng, 1..20)),
                ],
            ];
            for _ in 0..rng.range(0..5) {
                blocks.push(rng.vec(1..8, |r| {
                    (format!("h{}", r.range(0..4)), format!("m{}", r.range(0..3)), draw(r, 0..30))
                }));
            }

            let mut w = SegmentWriter::new(KIND_SERIES);
            for block in &blocks {
                w.push_series_block(&as_refs(block));
            }
            w.seal(&path).unwrap();
            let mut w = SegmentWriter::new(KIND_SERIES);
            for block in &blocks {
                for (n, (host, metric, samples)) in block.iter().enumerate() {
                    assert_eq!(w.push_chunk(host, metric, samples), n + 1);
                }
                w.close_block();
                if rng.range(0..2) == 0 {
                    w.close_block(); // closing no open block writes nothing
                }
            }
            let r = w.seal_reader(&again).unwrap();
            assert_eq!(fs::read(&again).unwrap(), fs::read(&path).unwrap());

            assert_eq!(r.entries.len(), blocks.len());
            assert_refs_tile(&r);
            let h2m1 =
                r.series_index().unwrap().iter().find(|e| (&*e.host, &*e.metric) == ("h2", "m1"));
            let split = &h2m1.unwrap().chunks;
            assert_eq!((split[0].block_ix, split[1].block_ix), (0, 1), "h2/m1 spans a boundary");
            // Every chunk decodes to what was pushed, in push order.
            let mut pushed: BTreeMap<_, Vec<_>> = BTreeMap::new();
            for (host, metric, samples) in blocks.iter().flatten() {
                pushed
                    .entry((host.as_str(), metric.as_str()))
                    .or_default()
                    .push(samples.as_slice());
            }
            let payloads: Vec<Vec<u8>> =
                r.entries.iter().map(|e| r.read_block(e).unwrap()).collect();
            for e in r.series_index().unwrap() {
                let got: Vec<Vec<(u64, u64)>> = e
                    .chunks
                    .iter()
                    .map(|c| r.decode_chunk_in_block(&payloads[c.block_ix as usize], c).unwrap())
                    .collect();
                assert_eq!(got, pushed[&(&*e.host, &*e.metric)], "{}/{}", e.host, e.metric);
            }
        });
        let _ = fs::remove_dir_all(&dir);
    }

    /// `sealed_bytes_are_pinned`'s input as the writer sealed it while
    /// series blocks still carried string tables and a `(host_id,
    /// metric_id, len)` prefix per chunk. Same version, same index
    /// grammar: no reader looks at a byte no ref addresses.
    const TABLED: &[u8] = include_bytes!("../tests/fixtures/seg-tabled-v3.tsdb");

    /// Query output with values as bits, so NaNs compare.
    fn bits(
        points: Vec<(crate::db::SeriesKey, Vec<(u64, f64)>)>,
    ) -> Vec<(String, Vec<(u64, u64)>)> {
        let series = |(k, p): (crate::db::SeriesKey, Vec<(u64, f64)>)| {
            let p = p.into_iter().map(|(t, v)| (t, v.to_bits())).collect();
            (format!("{}/{}", k.host, k.metric), p)
        };
        points.into_iter().map(series).collect()
    }

    /// A store that holds the tabled fixture beside a bare segment of the
    /// same series over overlapping times, either one the newer: every
    /// read answers as the oracles do, none of them touches the
    /// fixture's bytes, and `compact` rewrites the store bare.
    #[test]
    fn a_tabled_segment_reads_beside_a_bare_one_and_compacts_bare() {
        use crate::db::{Agg, Tsdb};
        use supremm_metrics::rng::cases;
        assert_eq!((TABLED.len(), crc32(TABLED)), (1621, 0x3EC1_C50C), "the tabled writer's bytes");
        let dir = tmpdir("tabled");

        // The fixture's index is what a bare file of the same input
        // indexes, but where the chunks sit; its chunks decode alike.
        fs::write(dir.join("seg-000001.tsdb"), TABLED).unwrap();
        let tabled = SegmentReader::open(&dir.join("seg-000001.tsdb")).unwrap();
        let mut w = SegmentWriter::new(KIND_SERIES);
        w.push_series_block(&as_refs(&sample_chunks()));
        let fresh = w.seal_reader(&dir.join("seg-000002.tsdb")).unwrap();
        let refs = |r: &SegmentReader| -> Vec<_> {
            let payload = r.read_block(&r.entries[0]).unwrap();
            let index = r.series_index().unwrap().iter();
            let chunks = index.flat_map(|e| e.chunks.iter().map(move |c| (e, c)));
            chunks
                .map(|(e, c)| {
                    let samples = r.decode_chunk_in_block(&payload, c).unwrap();
                    let at_zero = ref_bits(&ChunkRef { offset: 0, ..c.clone() });
                    (e.host.clone(), e.metric.clone(), at_zero, samples)
                })
                .collect()
        };
        assert_eq!(refs(&tabled), refs(&fresh));
        assert_eq!((tabled.entries[0].len, fresh.entries[0].len), (1386, 1336));
        let _ = fs::remove_dir_all(&dir);

        cases("a_tabled_segment_reads_beside_a_bare_one_and_compacts_bare", 16, |rng| {
            let dir = tmpdir("tabled-store");
            let seg = |seq: u64| dir.join(format!("seg-{seq:06}.tsdb"));
            let tabled_seq = rng.range(1..3);
            fs::write(seg(tabled_seq), TABLED).unwrap();
            // On the fixture's 600 s grid and between it, so samples
            // collide and last-write-wins decides.
            let hosts = ["c301-101", "c301-102", "c301-103"];
            let metrics = ["cpu_user", "mem_used"];
            let blocks: Vec<Vec<OwnedChunk>> = rng.vec(1..4, |r| {
                r.vec(1..6, |r| {
                    let mut ts: Vec<u64> = r.vec(1..40, |r| r.range(0..300) * 300);
                    ts.sort_unstable();
                    ts.dedup();
                    let samples = ts.into_iter().map(|t| (t, r.next_u64())).collect();
                    (r.pick(&hosts).to_string(), r.pick(&metrics).to_string(), samples)
                })
            });
            let mut w = SegmentWriter::new(KIND_SERIES);
            for block in &blocks {
                w.push_series_block(&as_refs(block));
            }
            w.seal(&seg(3 - tabled_seq)).unwrap();

            let selectors = [
                Selector::all(),
                Selector::host("c301-101"),
                Selector::host("c301-103"),
                Selector::metric("cpu_user"),
                Selector { host: Some("c301-102".into()), metric: Some("mem_used".into()) },
                Selector::host("c999"),
            ];
            let windows =
                [(0, u64::MAX), (30_000, 60_000), (rng.range(0..90_000), rng.range(0..90_000))];
            let answers = |db: &Tsdb| {
                let mut out = Vec::new();
                for sel in &selectors {
                    for &(t0, t1) in &windows {
                        let fast = bits(db.query(sel, t0, t1).unwrap());
                        assert_eq!(fast, bits(db.query_naive(sel, t0, t1).unwrap()), "{sel:?}");
                        out.push(fast);
                        for (bin, agg) in [(600, Agg::Sum), (3600, Agg::Mean), (7, Agg::Last)] {
                            let naive = bits(db.downsample_naive(sel, t0, t1, bin, agg).unwrap());
                            let fast = bits(db.downsample(sel, t0, t1, bin, agg).unwrap());
                            assert_eq!(fast, naive, "{sel:?} {bin} {agg:?}");
                            let tiered = db.downsample_tiered(sel, t0, t1, bin, agg).unwrap();
                            assert_eq!(bits(tiered.0), naive, "{sel:?} {bin} {agg:?} tiered");
                            out.push(fast);
                        }
                    }
                }
                out
            };
            let db = Tsdb::open(&dir).unwrap();
            let before = answers(&db);
            drop(db);
            assert_eq!(fs::read(seg(tabled_seq)).unwrap(), TABLED, "reads leave the fixture alone");

            let mut db = Tsdb::open(&dir).unwrap();
            db.compact().unwrap();
            assert_eq!(answers(&db), before, "across compact");
            let segments: Vec<PathBuf> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("seg-"))
                .collect();
            assert_eq!(segments, [seg(3)], "compact writes one segment");
            assert_refs_tile(&SegmentReader::open(&segments[0]).unwrap());
            let _ = fs::remove_dir_all(&dir);
        });
    }
}
