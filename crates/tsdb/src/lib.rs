//! `supremm-tsdb`: an embedded, append-only time-series storage engine.
//!
//! The paper's warehouse ingests 20 months of node-level counters from
//! two clusters and has to answer XDMoD's interactive queries over them;
//! §5 names "technologies ... to quickly process, store, and query
//! massive TACC_Stats data" as the missing piece. This crate is that
//! layer for the Rust tool chain: a single-directory storage engine the
//! warehouse flushes ingest output through and the report/serving layer
//! queries, instead of keeping everything in memory and re-scanning raw
//! archives.
//!
//! Shape (one directory per store):
//!
//! ```text
//! store/
//! ├── wal.log              append-only write-ahead log (torn-tail safe)
//! ├── seg-000001.tsdb      immutable sealed segment (CRC'd blocks + index)
//! ├── seg-000002.tsdb
//! ├── roll-3600-000004.tsdb  one rollup level: a segment of stats chunks
//! │                          (its highest seq; open deletes older ones)
//! └── retention.manifest   per-tier watermarks (rolled/dropped; CRC'd)
//! ```
//!
//! - [`codec`] — Gorilla-style per-series chunk compression:
//!   delta-of-delta timestamps and XOR / zigzag-varint values, for sample
//!   chunks and for a rollup level's stats chunks; plus the
//!   one reader/writer for varint-length-prefixed fields every
//!   container here (and the relay wire format) uses;
//! - [`durable`] — the durable-file layer: atomic whole-file replace,
//!   the framed append log with valid-prefix recovery and file removal,
//!   which the WAL, the relay spool, segment seal, compaction and the
//!   retention manifest are built on; each of their steps passes one
//!   per-thread crash seam that tests arm to kill a call at any op;
//! - [`segment`] — immutable segment files: versioned header, per-block
//!   CRC32, sparse time index + per-series chunk index (a CRC32 per
//!   chunk) in the footer's index frame;
//! - [`stats`] — chunk-level pre-aggregates ([`stats::ChunkStats`]) and
//!   the bin accumulator both downsampling paths share;
//! - [`wal`] — the write-ahead log: one length+CRC frame per apply
//!   group (string table + delta-timed records) over a
//!   [`durable::AppendLog`];
//! - [`db`] — the engine: [`Tsdb`] (open → append → sync → flush →
//!   compact) with time-range + host/metric predicate scans and
//!   downsampling;
//! - [`recordlog`] — the same segment container for opaque records
//!   (the warehouse's job table rides on it);
//! - [`retention`] — time-partitioned retention + multi-resolution
//!   rollup tiers: [`retention::RetentionPolicy`], the durable
//!   watermark manifest, and the one-file-per-level layout that
//!   [`Tsdb::enforce_retention`] rewrites each pass.
//!
//! Durability contract: a sample is *acked* once [`Tsdb::sync`] (or
//! [`Tsdb::flush`]) returns. Recovery after any crash — including a torn
//! write anywhere in the WAL tail — never panics and never loses an
//! acked sample; unacked tail samples may be dropped.

pub mod codec;
pub mod crc;
pub mod db;
pub mod durable;
pub mod recordlog;
pub mod retention;
pub mod segment;
pub mod stats;
pub mod wal;

pub use db::{Agg, DbOptions, DbStats, Selector, SeriesKey, Tsdb};
pub use retention::{RetentionManifest, RetentionPolicy, RetentionReport, RollupLevel};
pub use segment::TsdbError;
pub use stats::{BinAcc, ChunkStats};
