//! Warehouse ⇄ tsdb bridge.
//!
//! Three things flow through the store:
//!
//! 1. **System series** ([`SystemSeries`]): each [`SystemBin`] field
//!    becomes one series under the pseudo-host `_sys` (counts are exact
//!    in f64; float sums travel as raw bits), so
//!    [`load_system_series`]`(`[`store_system_series`]`(s))` is
//!    bit-identical — the property the pipeline differential tests pin.
//! 2. **Per-host metric series**: [`store_archive_series`] reduces each
//!    raw file to its per-interval [`ExtendedMetric`] values and appends
//!    them under the real hostname — the store-side replacement for
//!    re-scanning raw archives, and the payload the compression
//!    benchmark measures.
//! 3. Store metadata (`_meta`/`bin_secs`) so a reopened store knows its
//!    own binning.

use std::collections::BTreeMap;
use std::io;

use supremm_metrics::Timestamp;
use supremm_taccstats::derive::file_extended_series;
use supremm_taccstats::RawArchive;
use supremm_tsdb::{Agg, RetentionReport, Selector, Tsdb, TsdbError};

use crate::timeseries::{SystemBin, SystemSeries};

/// Pseudo-host for cluster-wide series.
pub const SYSTEM_HOST: &str = "_sys";
/// Pseudo-host for store metadata.
pub const META_HOST: &str = "_meta";

/// One system-bin field: its series metric name bound to a getter and
/// setter, so lookups can fail softly instead of hitting a match-arm
/// `unreachable!` when the store holds a metric this build never wrote.
struct SystemField {
    name: &'static str,
    get: fn(&SystemBin) -> f64,
    set: fn(&mut SystemBin, f64),
}

const FIELDS: [SystemField; 16] = [
    SystemField {
        name: "active_nodes",
        get: |b| b.active_nodes as f64,
        set: |b, v| b.active_nodes = v as u32,
    },
    SystemField {
        name: "busy_nodes",
        get: |b| b.busy_nodes as f64,
        set: |b, v| b.busy_nodes = v as u32,
    },
    SystemField {
        name: "intervals",
        get: |b| b.intervals as f64,
        set: |b, v| b.intervals = v as u32,
    },
    SystemField { name: "flops", get: |b| b.flops, set: |b, v| b.flops = v },
    SystemField {
        name: "mem_used_bytes",
        get: |b| b.mem_used_bytes,
        set: |b, v| b.mem_used_bytes = v,
    },
    SystemField { name: "cpu_user_sum", get: |b| b.cpu_user_sum, set: |b, v| b.cpu_user_sum = v },
    SystemField {
        name: "cpu_system_sum",
        get: |b| b.cpu_system_sum,
        set: |b, v| b.cpu_system_sum = v,
    },
    SystemField { name: "cpu_idle_sum", get: |b| b.cpu_idle_sum, set: |b, v| b.cpu_idle_sum = v },
    SystemField {
        name: "scratch_write_bps",
        get: |b| b.scratch_write_bps,
        set: |b, v| b.scratch_write_bps = v,
    },
    SystemField {
        name: "scratch_read_bps",
        get: |b| b.scratch_read_bps,
        set: |b, v| b.scratch_read_bps = v,
    },
    SystemField {
        name: "work_write_bps",
        get: |b| b.work_write_bps,
        set: |b, v| b.work_write_bps = v,
    },
    SystemField {
        name: "work_read_bps",
        get: |b| b.work_read_bps,
        set: |b, v| b.work_read_bps = v,
    },
    SystemField {
        name: "share_write_bps",
        get: |b| b.share_write_bps,
        set: |b, v| b.share_write_bps = v,
    },
    SystemField {
        name: "share_read_bps",
        get: |b| b.share_read_bps,
        set: |b, v| b.share_read_bps = v,
    },
    SystemField { name: "ib_tx_bps", get: |b| b.ib_tx_bps, set: |b, v| b.ib_tx_bps = v },
    SystemField { name: "lnet_tx_bps", get: |b| b.lnet_tx_bps, set: |b, v| b.lnet_tx_bps = v },
];

/// Append a [`SystemSeries`] into the store (one series per bin field,
/// plus binning metadata). Call [`Tsdb::sync`] or [`Tsdb::flush`] after.
pub fn store_system_series(db: &mut Tsdb, series: &SystemSeries) -> io::Result<()> {
    db.append(META_HOST, "bin_secs", 0, series.bin_secs as f64)?;
    for field in &FIELDS {
        let samples: Vec<(u64, f64)> =
            series.bins.iter().map(|b| (b.ts.0, (field.get)(b))).collect();
        db.append_batch(SYSTEM_HOST, field.name, &samples)?;
    }
    Ok(())
}

/// Rebuild the [`SystemSeries`] from the store — the query-API path the
/// report/serving layer uses instead of recomputing from raw archives.
pub fn load_system_series(db: &Tsdb) -> Result<SystemSeries, TsdbError> {
    // The binning row lives at ts 0, which a retention pass expires
    // from raw; the tier-aware read serves it from the rollup (Last is
    // exact there), so a store never forgets its own binning.
    let meta_sel = Selector { host: Some(META_HOST.into()), metric: Some("bin_secs".into()) };
    let bin_secs = db
        .downsample(&meta_sel, 0, u64::MAX, u64::MAX, Agg::Last)?
        .first()
        .and_then(|(_, pts)| pts.first())
        .map(|&(_, v)| v as u64)
        .unwrap_or(0);
    let mut bins: BTreeMap<u64, SystemBin> = BTreeMap::new();
    for (key, samples) in db.query(&Selector::host(SYSTEM_HOST), 0, u64::MAX)? {
        // A metric this build does not know (written by a newer schema,
        // or a stray series under `_sys`) is skipped, not fatal.
        let Some(field) = FIELDS.iter().find(|f| f.name == key.metric) else { continue };
        for (ts, v) in samples {
            let bin = bins.entry(ts).or_default();
            bin.ts = Timestamp(ts);
            (field.set)(bin, v);
        }
    }
    Ok(SystemSeries { bin_secs, bins: into_sorted_bins(bins) })
}

fn into_sorted_bins(bins: BTreeMap<u64, SystemBin>) -> Vec<SystemBin> {
    bins.into_values().collect()
}

/// Run one retention pass against the store under its configured
/// policy, using the store's own newest sample as the data-time `now`.
///
/// Facility stores routinely lag wall clock (backfills, replays,
/// simulated histories), so expiring relative to data time instead of
/// `SystemTime::now()` keeps a replayed history intact: nothing ages
/// out until newer data actually lands.
pub fn enforce_store_retention(db: &mut Tsdb) -> Result<RetentionReport, TsdbError> {
    let now = db.max_timestamp().unwrap_or(0);
    db.enforce_retention(now)
}

/// Reduce every raw file to per-interval [`ExtendedMetric`] series and
/// append them under the real hostnames. Returns the number of samples
/// appended. Pairing matches the streaming ingest: consecutive records
/// with the same job tag form an interval, attributed to the later
/// record's timestamp; corrupt regions are quarantined by the lenient
/// scanner.
pub fn store_archive_series(db: &mut Tsdb, archive: &RawArchive) -> io::Result<u64> {
    let mut appended = 0u64;
    for (key, text) in archive.iter() {
        let host = key.host.hostname();
        for (metric, samples) in file_extended_series(text) {
            appended += samples.len() as u64;
            db.append_batch(&host, metric.name(), &samples)?;
        }
    }
    Ok(appended)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use supremm_metrics::{ExtendedMetric, HostId, JobId};
    use supremm_procsim::{KernelState, NodeActivity, NodeSpec};
    use supremm_taccstats::Collector;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wh-tsdbio-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn archive() -> RawArchive {
        let mut archive = RawArchive::new();
        for host in 0..2u32 {
            let mut kernel = KernelState::new(NodeSpec::ranger());
            let mut c = Collector::new(HostId(host));
            let mut ts = Timestamp(600);
            c.begin_job(&mut kernel, JobId(5), ts);
            let act = NodeActivity { user_frac: 0.7, flops: 1e12, ..NodeActivity::idle() };
            for _ in 0..5 {
                kernel.advance(&act, 600.0);
                ts = ts + supremm_metrics::Duration(600);
                c.sample(&kernel, ts);
            }
            c.end_job(&mut kernel, JobId(5), ts);
            for (k, text) in c.into_files() {
                archive.insert(k, text);
            }
        }
        archive
    }

    #[test]
    fn unknown_system_metric_is_ignored_not_fatal() {
        let dir = tmpdir("unknownmetric");
        let series = SystemSeries::from_archive(&archive(), 600);
        let mut db = Tsdb::open(&dir).unwrap();
        store_system_series(&mut db, &series).unwrap();
        // A future schema writes a metric this build has no field for.
        db.append(SYSTEM_HOST, "gpu_util_sum", 600, 0.5).unwrap();
        db.flush().unwrap();
        let loaded = load_system_series(&db).unwrap();
        assert_eq!(loaded.bins, series.bins);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn system_series_round_trips_bit_identically() {
        let dir = tmpdir("sysround");
        let series = SystemSeries::from_archive(&archive(), 600);
        assert!(!series.bins.is_empty());
        let mut db = Tsdb::open(&dir).unwrap();
        store_system_series(&mut db, &series).unwrap();
        db.flush().unwrap();
        let back = load_system_series(&db).unwrap();
        assert_eq!(back.bin_secs, series.bin_secs);
        assert_eq!(back.bins, series.bins, "bit-identical bins through the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn system_series_survives_reopen_without_flush() {
        let dir = tmpdir("syswal");
        let series = SystemSeries::from_archive(&archive(), 600);
        {
            let mut db = Tsdb::open(&dir).unwrap();
            store_system_series(&mut db, &series).unwrap();
            db.sync().unwrap();
            // Crash: no flush.
        }
        let db = Tsdb::open(&dir).unwrap();
        let back = load_system_series(&db).unwrap();
        assert_eq!(back.bins, series.bins);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_retention_uses_data_time_and_keeps_recent_bins() {
        use supremm_tsdb::{DbOptions, RetentionPolicy};
        let dir = tmpdir("retention");
        let policy = RetentionPolicy::parse("raw=1200s,600=forever").unwrap();
        let mut db =
            Tsdb::open_with(&dir, DbOptions { retention: policy, ..Default::default() }).unwrap();
        let series = SystemSeries::from_archive(&archive(), 600);
        store_system_series(&mut db, &series).unwrap();
        db.flush().unwrap();
        let before = load_system_series(&db).unwrap();
        let report = enforce_store_retention(&mut db).unwrap();
        // Data spans 1200..3600; data-time now = 3600, cut = 2400.
        assert_eq!(report.raw_watermark, 2400);
        assert!(report.rollup_segments_written > 0);
        let after = load_system_series(&db).unwrap();
        assert_eq!(after.bin_secs, before.bin_secs, "metadata rolled up, still served");
        let survivors: Vec<_> = before.bins.iter().filter(|b| b.ts.0 >= 2400).cloned().collect();
        assert_eq!(after.bins, survivors, "surviving bins are bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn archive_series_land_under_hostnames() {
        let dir = tmpdir("hosts");
        let mut db = Tsdb::open(&dir).unwrap();
        let n = store_archive_series(&mut db, &archive()).unwrap();
        assert!(n > 0);
        db.flush().unwrap();
        let one = |host: &str, metric: &str| {
            let sel = Selector { host: Some(host.into()), metric: Some(metric.into()) };
            db.query(&sel, 0, u64::MAX).unwrap()
        };
        let flops = one("c0000", ExtendedMetric::CpuFlops.name());
        assert_eq!(flops.len(), 1);
        assert_eq!(flops[0].1.len(), 5, "five paired intervals");
        assert!(flops[0].1.iter().all(|&(_, v)| v > 0.0));
        assert_eq!(one("c0001", ExtendedMetric::MemUsed.name()).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
