//! The one file that names `supremm_tsdb::` / `supremm_obs::` items.
//!
//! Everything else in the benchmark reaches the engine through these
//! re-exports and the three helpers below, so a rename or an entry-point
//! consolidation in the engine costs the benchmark a change here only.
//! The naive oracles (`query_naive`, `downsample_naive`) are deliberately
//! not reachable: answers are checked against the generator instead.

use std::path::Path;
use std::sync::Arc;

pub use supremm_obs::{ObsHandle, ObsRegistry, Snapshot};
pub use supremm_tsdb::codec::{decode_chunk, encode_chunk};
pub use supremm_tsdb::crc::crc32;
pub use supremm_tsdb::retention::RetentionManifest;
pub use supremm_tsdb::segment::{SegmentReader, SegmentWriter, KIND_SERIES};
pub use supremm_tsdb::stats::{BinAcc, ChunkStats};
pub use supremm_tsdb::wal::Wal;
pub use supremm_tsdb::{Agg, DbOptions, RetentionPolicy, Selector, SeriesKey, Tsdb, TsdbError};

/// Histogram the store observes one value into per `sync`.
pub const OBS_WAL_FSYNC: &str = "tsdb_wal_fsync_micros";
/// Histogram the store observes one value into per `append_batch`.
pub const OBS_WAL_APPEND: &str = "tsdb_wal_append_micros";
pub const OBS_FLUSH_BYTES: &str = "tsdb_flush_bytes_total";
pub const OBS_COMPACT_BYTES: &str = "tsdb_compact_bytes_total";

/// Obs counter of queries a tier served; `tier` is `raw` or `rollup_<bin>`.
pub fn obs_tier_hits(tier: &str) -> String {
    format!("tsdb_query_tier_hits_total{{tier=\"{tier}\"}}")
}

/// A registry of the benchmark's own, so counts belong to one workload.
pub fn new_registry() -> ObsHandle {
    Arc::new(ObsRegistry::new())
}

/// Open with the default `DbOptions` (2048-sample chunks, 64-chunk
/// blocks) and the given retention spec (`""` keeps raw forever).
pub fn open_store(dir: &Path, policy: &str, obs: &ObsHandle) -> Result<Tsdb, TsdbError> {
    let retention = RetentionPolicy::parse(policy).expect("benchmark retention spec is valid");
    let opts = DbOptions {
        retention,
        ..DbOptions::default()
    };
    Tsdb::open_with_obs(dir, opts, obs.clone())
}
