//! Retention & rollup tier battery: integration semantics plus the
//! crash-point torture matrix.
//!
//! The torture test is the WAL truncate-at-every-offset idea lifted to
//! the retention pass: `enforce_retention` fires an injection hook at
//! every durability transition (rollup seal, manifest write, segment
//! delete), and we kill the pass at each such point in turn, reopen,
//! and assert the two invariants the ISSUE names: acked raw newer than
//! the TTL is never lost, and a rollup is never double-applied.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use supremm_tsdb::crc::crc32;
use supremm_tsdb::{
    Agg, DbOptions, RetentionPolicy, RollupLevel, Selector, SeriesKey, Tsdb, TsdbError,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsdb-retention-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// raw_ttl=1000s, 100s bins kept 3000s, 500s bins kept forever.
/// Coarsest bin 500 ⇒ every watermark lands on a multiple of 500.
fn policy() -> RetentionPolicy {
    RetentionPolicy {
        raw_ttl: Some(1000),
        levels: vec![
            RollupLevel { bin_secs: 100, ttl: Some(3000) },
            RollupLevel { bin_secs: 500, ttl: None },
        ],
    }
}

fn opts(retention: RetentionPolicy) -> DbOptions {
    // Small chunks/blocks so stores of a few thousand samples still
    // exercise multi-chunk, multi-block segment layouts.
    DbOptions { chunk_samples: 16, block_chunks: 4, retention }
}

/// Deterministic multi-series data in `[t_lo, t_hi]`, one flush per
/// 1000 s of data so raw segments have tight, droppable time ranges.
fn fill(db: &mut Tsdb, t_lo: u64, t_hi: u64) {
    let mut block_lo = t_lo;
    while block_lo <= t_hi {
        let block_hi = (block_lo + 999).min(t_hi);
        for host in ["c301-101", "c301-102"] {
            for (metric, base) in [("cpu_user", 0.25f64), ("mem_used", 1.0e9)] {
                let samples: Vec<(u64, f64)> = (block_lo..=block_hi)
                    .step_by(10)
                    .map(|ts| (ts, base + (ts % 337) as f64 * 0.5))
                    .collect();
                db.append_batch(host, metric, &samples).unwrap();
            }
        }
        db.sync().unwrap();
        db.flush().unwrap();
        block_lo = block_hi + 1;
    }
}

fn assert_bit_identical(
    a: &[(SeriesKey, Vec<(u64, f64)>)],
    b: &[(SeriesKey, Vec<(u64, f64)>)],
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: series count");
    for ((ka, sa), (kb, sb)) in a.iter().zip(b) {
        assert_eq!(ka, kb, "{what}");
        assert_eq!(sa.len(), sb.len(), "{what}: sample count for {ka:?}");
        for (&(ta, va), &(tb, vb)) in sa.iter().zip(sb) {
            assert_eq!(ta, tb, "{what}: timestamp for {ka:?}");
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{what}: value at ts {ta} for {ka:?} ({va} vs {vb})"
            );
        }
    }
}

const AGGS: [Agg; 6] = [Agg::Mean, Agg::Sum, Agg::Min, Agg::Max, Agg::Last, Agg::Count];

/// `(len, crc32)` of one file of the store: what a format pin compares.
fn file_pin(dir: &std::path::Path, name: &str) -> (usize, u32) {
    let bytes = fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    (bytes.len(), crc32(&bytes))
}

/// Format pin: the rollup segments of a fixed small store (length +
/// CRC32 of each file). A rollup file has no chunk index, so version 3
/// moved its header's version field and nothing else: with a 2 written
/// back there, each file is the one the pass wrote at version 2.
#[test]
fn rollup_segment_bytes_are_pinned() {
    let dir = tmpdir("pin");
    let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    fill(&mut db, 0, 4_000);
    let report = db.enforce_retention(4_000).unwrap();
    assert_eq!((report.raw_watermark, report.rollup_bins_written), (3000, 144));
    assert_eq!(file_pin(&dir, "roll-100-000001.tsdb"), (4295, 0x7A3D_C6D1));
    assert_eq!(file_pin(&dir, "roll-500-000001.tsdb"), (940, 0x75A7_F3D8));
    for (name, v2_pin) in [
        ("roll-100-000001.tsdb", (4295, 0xF4B4_1476)),
        ("roll-500-000001.tsdb", (940, 0xF986_6D44)),
    ] {
        let mut bytes = fs::read(dir.join(name)).unwrap();
        assert_eq!(bytes[8..10], 3u16.to_le_bytes(), "{name}");
        bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!((bytes.len(), crc32(&bytes)), v2_pin, "{name} at version 2");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn retention_rolls_drops_and_serves_exact_tiers() {
    let dir = tmpdir("basic");
    let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    fill(&mut db, 0, 10_000);

    // Pre-retention oracles, captured while all raw data still exists.
    let pre_raw = db.query_naive(&Selector::all(), 0, u64::MAX).unwrap();
    let mut pre_down = Vec::new();
    for agg in AGGS {
        // Tier layout after the pass: level 100 serves [5000, 9000),
        // level 500 serves [0, 5000), raw serves [9000, ..]. Capture
        // the oracle on each window at that tier's own bin width —
        // where rollup-served answers are exact for every aggregate.
        pre_down.push((
            agg,
            100u64,
            5000u64,
            8999u64,
            db.downsample_naive(&Selector::all(), 5000, 8999, 100, agg).unwrap(),
        ));
        pre_down.push((
            agg,
            500,
            0,
            4999,
            db.downsample_naive(&Selector::all(), 0, 4999, 500, agg).unwrap(),
        ));
        pre_down.push((
            agg,
            600,
            9000,
            u64::MAX,
            db.downsample_naive(&Selector::all(), 9000, u64::MAX, 600, agg).unwrap(),
        ));
    }

    // Data time 10_000: raw cut at 9000 (aligned to the coarsest bin),
    // level-100 expiry at (10000-3000) → 7000 → aligned 7000 ... but
    // clamped by nothing; 5000? No: 10_000 - 3000 = 7000, aligned to
    // 500 is 7000. See assertions below for the real numbers.
    let report = db.enforce_retention(10_000).unwrap();
    assert_eq!(report.raw_watermark, 9000);
    assert_eq!(report.rollup_segments_written, 2, "one segment per level");
    assert!(report.rollup_bins_written > 0);
    assert!(report.raw_segments_dropped >= 8, "raw below 9000 is whole-segment dropped");
    let stats = db.stats();
    assert_eq!(stats.raw_watermark, 9000);
    assert_eq!(stats.rollup_segments, 2);

    // Level-100 expiry: 10_000 - 3000 = 7000. Level 100 serves
    // [7000, 9000), level 500 serves [0, 7000).
    let (_, tiers) = db.downsample_tiered(&Selector::all(), 0, u64::MAX, 600, Agg::Mean).unwrap();
    assert_eq!(tiers, vec!["raw", "rollup:100", "rollup:500"]);

    // Surviving raw is bit-identical to the pre-retention oracle.
    let post_raw = db.query_naive(&Selector::all(), 9000, u64::MAX).unwrap();
    let pre_window: Vec<(SeriesKey, Vec<(u64, f64)>)> = pre_raw
        .iter()
        .map(|(k, s)| (k.clone(), s.iter().copied().filter(|&(ts, _)| ts >= 9000).collect()))
        .collect();
    assert_bit_identical(&post_raw, &pre_window, "surviving raw");
    let post_fast = db.query(&Selector::all(), 9000, u64::MAX).unwrap();
    assert_bit_identical(&post_fast, &post_raw, "fast vs naive post-retention");

    // Rollup-served windows are bit-identical to the pre-retention
    // oracle at the tier's own bin width — but only where that tier
    // still holds the data: [7000, 8999] on level 100 and [0, 6999]
    // on level 500. (The capture above used the pre-pass layout guess;
    // recompute the comparison windows from the real watermarks.)
    for agg in AGGS {
        let served = db.downsample(&Selector::all(), 7000, 8999, 100, agg).unwrap();
        let mut oracle = Vec::new();
        for (k, s) in &pre_down
            .iter()
            .find(|(a, b, lo, hi, _)| *a == agg && *b == 100 && *lo == 5000 && *hi == 8999)
            .unwrap()
            .4
        {
            let w: Vec<(u64, f64)> = s.iter().copied().filter(|&(bs, _)| bs >= 7000).collect();
            if !w.is_empty() {
                oracle.push((k.clone(), w));
            }
        }
        assert_bit_identical(&served, &oracle, "level-100 window");

        // The [0,4999] capture covers bins 0..4500; compare those.
        let served = db.downsample(&Selector::all(), 0, 6999, 500, agg).unwrap();
        let pre = &pre_down
            .iter()
            .find(|(a, b, lo, hi, _)| *a == agg && *b == 500 && *lo == 0 && *hi == 4999)
            .unwrap()
            .4;
        let served_sub: Vec<(SeriesKey, Vec<(u64, f64)>)> = served
            .iter()
            .map(|(k, s)| (k.clone(), s.iter().copied().filter(|&(bs, _)| bs < 5000).collect()))
            .filter(|(_, s): &(SeriesKey, Vec<(u64, f64)>)| !s.is_empty())
            .collect();
        assert_bit_identical(&served_sub, pre, "level-500 window");

        // Raw window at an unrelated bin width stays oracle-exact too.
        let served = db.downsample(&Selector::all(), 9000, u64::MAX, 600, agg).unwrap();
        let pre = &pre_down
            .iter()
            .find(|(a, b, lo, hi, _)| *a == agg && *b == 600 && *lo == 9000 && *hi == u64::MAX)
            .unwrap()
            .4;
        assert_bit_identical(&served, pre, "raw window");
    }

    // Series stay discoverable even where only rollups hold them.
    let counts = db.downsample(&Selector::all(), 0, u64::MAX, 500, Agg::Count).unwrap();
    assert_eq!(counts.len(), 4);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reopen_preserves_watermarks_and_tier_answers() {
    let dir = tmpdir("reopen");
    let before;
    {
        let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();
        fill(&mut db, 0, 6_000);
        db.enforce_retention(6_000).unwrap();
        before = db.downsample_tiered(&Selector::all(), 0, u64::MAX, 250, Agg::Sum).unwrap();
        assert!(db.stats().raw_watermark > 0);
    }
    let db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    assert_eq!(db.stats().raw_watermark, 5000);
    let after = db.downsample_tiered(&Selector::all(), 0, u64::MAX, 250, Agg::Sum).unwrap();
    assert_bit_identical(&after.0, &before.0, "reopen");
    assert_eq!(after.1, before.1, "tier labels survive reopen");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn late_writes_below_the_watermark_stay_invisible() {
    let dir = tmpdir("late");
    let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    fill(&mut db, 0, 4_000);
    db.enforce_retention(4_000).unwrap();
    let w = db.stats().raw_watermark;
    assert_eq!(w, 3000);
    let baseline = db.query(&Selector::all(), 0, u64::MAX).unwrap();

    // A straggler writes below the watermark: accepted, never served.
    db.append("c301-101", "cpu_user", w - 500, 123.456).unwrap();
    db.sync().unwrap();
    assert_bit_identical(
        &db.query(&Selector::all(), 0, u64::MAX).unwrap(),
        &baseline,
        "after late append",
    );
    db.flush().unwrap();
    db.compact().unwrap();
    assert_bit_identical(
        &db.query(&Selector::all(), 0, u64::MAX).unwrap(),
        &baseline,
        "after flush+compact",
    );
    // Compaction physically GC'd it: the store reopens identically.
    drop(db);
    let db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    assert_bit_identical(
        &db.query(&Selector::all(), 0, u64::MAX).unwrap(),
        &baseline,
        "after reopen",
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn invalid_policies_fail_open_loudly() {
    let dir = tmpdir("badpolicy");
    let bad = RetentionPolicy {
        raw_ttl: Some(1000),
        levels: vec![
            RollupLevel { bin_secs: 100, ttl: Some(3000) },
            RollupLevel { bin_secs: 250, ttl: None }, // 250 % 100 != 0
        ],
    };
    match Tsdb::open_with(&dir, opts(bad)) {
        Err(TsdbError::Policy(msg)) => assert!(msg.contains("multiple")),
        Err(other) => panic!("expected Policy error, got {other:?}"),
        Ok(_) => panic!("expected Policy error, store opened"),
    }
    // The default policy is a no-op pass.
    let mut db = Tsdb::open_with(&dir, opts(RetentionPolicy::default())).unwrap();
    fill(&mut db, 0, 2_000);
    let report = db.enforce_retention(2_000).unwrap();
    assert_eq!(report, supremm_tsdb::RetentionReport::default());
    assert_eq!(db.stats().raw_watermark, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rollup_tiers_expire_on_their_own_ttls() {
    let dir = tmpdir("tier-ttl");
    let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    fill(&mut db, 0, 4_000);
    db.enforce_retention(4_000).unwrap();
    // Age the store: new data far in the future, then a second pass.
    fill(&mut db, 10_000, 12_000);
    let report = db.enforce_retention(12_000).unwrap();
    assert_eq!(report.raw_watermark, 11_000);
    // Level-100 expiry: 12_000 - 3000 = 9000 ⇒ the first pass's
    // level-100 segment (covering [0, 3000)) is wholly expired.
    assert!(report.rollup_segments_dropped >= 1, "{report:?}");
    // The expired window now comes from the 500s tier only.
    let (_, tiers) = db.downsample_tiered(&Selector::all(), 0, 2999, 500, Agg::Count).unwrap();
    assert_eq!(tiers, vec!["rollup:500"]);
    // Fully-expired fine tier + surviving coarse tier still answer
    // with exact per-bin counts: 100 samples per 1000 s per series.
    let (rows, _) = db.downsample_tiered(&Selector::all(), 0, 2999, 1000, Agg::Count).unwrap();
    assert_eq!(rows.len(), 4);
    for (_, bins) in &rows {
        assert_eq!(bins.iter().map(|&(_, c)| c).sum::<f64>(), 300.0);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `compact` is where samples below the raw watermark leave the disk,
/// and that holds for a store that has come to rest on one segment: a
/// lone segment straddling the watermark is rewritten, one wholly above
/// it is left alone (same file, same bytes).
#[test]
fn a_lone_segment_is_compacted_only_when_it_straddles_the_watermark() {
    let dir = tmpdir("lone");
    let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    // One flush spanning [0, 4000]: the pass drops no file, so the
    // segment keeps the 3000 s the watermark cut off.
    for (host, base) in [("c301-101", 0.25f64), ("c301-102", 7.5)] {
        let samples: Vec<(u64, f64)> =
            (0..=4_000).step_by(10).map(|ts| (ts, base + (ts % 337) as f64)).collect();
        db.append_batch(host, "cpu_user", &samples).unwrap();
    }
    db.flush().unwrap();
    let report = db.enforce_retention(4_000).unwrap();
    assert_eq!((report.raw_watermark, report.raw_segments_dropped), (3000, 0));
    assert_eq!(db.stats().segments, 1);
    let straddling = file_pin(&dir, "seg-000001.tsdb");
    let answers = |db: &Tsdb| {
        let raw = db.query(&Selector::all(), 0, u64::MAX).unwrap();
        assert_bit_identical(&raw, &db.query_naive(&Selector::all(), 0, u64::MAX).unwrap(), "raw");
        (raw, db.downsample_tiered(&Selector::all(), 0, u64::MAX, 500, Agg::Sum).unwrap())
    };
    let before = answers(&db);

    db.compact().unwrap();
    assert_eq!(db.stats().segments, 1);
    assert!(!dir.join("seg-000001.tsdb").exists(), "the straddling segment was rewritten");
    let above = file_pin(&dir, "seg-000002.tsdb");
    assert!(above.0 < straddling.0 / 2, "{above:?} keeps a quarter of {straddling:?}");
    let after = answers(&db);
    assert_bit_identical(&after.0, &before.0, "raw across compact");
    assert_bit_identical(&after.1 .0, &before.1 .0, "tiers across compact");

    // Wholly above the watermark now: compacting again touches nothing.
    let generation = db.generation();
    db.compact().unwrap();
    assert_eq!(file_pin(&dir, "seg-000002.tsdb"), above);
    assert!(!dir.join("seg-000003.tsdb").exists());
    assert_eq!(db.generation(), generation);
    drop(db);
    let db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    assert_bit_identical(&answers(&db).0, &before.0, "raw across reopen");
    let _ = fs::remove_dir_all(&dir);
}

/// One walk feeds every level that is behind, each from its own mark.
/// Kill a pass between its two manifest commits (level 100 rolled
/// through 3000, level 500 sealed but still at 0), add data, and run
/// the next pass: level 100 rolls [3000, 7000) and level 500 rolls
/// [0, 7000) off the same walk. Each file equals what a store whose
/// level started from that mark alone writes for that window.
#[test]
fn a_pass_resumed_from_uneven_marks_rolls_the_same_bytes() {
    let stop_before_second_commit = || -> Box<dyn FnMut(&str) -> bool + Send + Sync> {
        Box::new(|site: &str| site == "manifest-rolled:500")
    };
    let dir = tmpdir("uneven");
    let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    fill(&mut db, 0, 4_000);
    db.set_retention_fault_hook(Some(stop_before_second_commit()));
    assert!(db.enforce_retention(4_000).is_err());
    drop(db);
    let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();
    assert_eq!(db.stats().raw_watermark, 0, "level 500 holds the watermark back");
    fill(&mut db, 4_010, 8_000);
    let report = db.enforce_retention(8_000).unwrap();
    assert_eq!((report.raw_watermark, report.rollup_segments_written), (7000, 2));

    // Never interrupted: level 100's second file covers [3000, 7000).
    let even_dir = tmpdir("uneven-control");
    let mut even = Tsdb::open_with(&even_dir, opts(policy())).unwrap();
    fill(&mut even, 0, 4_000);
    even.enforce_retention(4_000).unwrap();
    fill(&mut even, 4_010, 8_000);
    even.enforce_retention(8_000).unwrap();
    assert_eq!(file_pin(&dir, "roll-100-000002.tsdb"), file_pin(&even_dir, "roll-100-000002.tsdb"));
    // Never rolled before: level 500's first file covers [0, 7000).
    let late_dir = tmpdir("uneven-late");
    let mut late = Tsdb::open_with(&late_dir, opts(policy())).unwrap();
    fill(&mut late, 0, 4_000);
    fill(&mut late, 4_010, 8_000);
    late.enforce_retention(8_000).unwrap();
    assert_eq!(file_pin(&dir, "roll-500-000002.tsdb"), file_pin(&late_dir, "roll-500-000001.tsdb"));
    // And the interrupted pass's sealed-but-uncommitted level-500 file
    // is invisible behind the later one.
    for agg in AGGS {
        for (t0, t1, q) in [(0u64, u64::MAX, 500u64), (0, 4999, 1000), (5000, 6999, 100)] {
            let got = db.downsample_tiered(&Selector::all(), t0, t1, q, agg).unwrap();
            let want = even.downsample_tiered(&Selector::all(), t0, t1, q, agg).unwrap();
            assert_bit_identical(&got.0, &want.0, &format!("agg {agg:?} {t0}..{t1} bin {q}"));
            assert_eq!(got.1, want.1);
        }
    }
    for d in [dir, even_dir, late_dir] {
        let _ = fs::remove_dir_all(&d);
    }
}

/// The crash-point torture matrix (ISSUE satellite #1).
///
/// Scenario: pass 1 runs clean (builds both tiers), more data arrives,
/// then pass 2 — which exercises every durability-transition type:
/// rollup seal, per-level manifest advance, raw-watermark manifest
/// write, raw segment deletes, rollup-expiry manifest write, rollup
/// segment deletes. We kill pass 2 at its k-th hook firing for every
/// k, reopen (completing any manifest-committed drops), re-run the
/// pass, and require the result to be indistinguishable from a store
/// that never crashed.
#[test]
fn crash_point_torture_matrix() {
    let build = |name: &str| -> (PathBuf, Tsdb) {
        let dir = tmpdir(name);
        let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();
        fill(&mut db, 0, 4_000);
        db.enforce_retention(4_000).unwrap();
        fill(&mut db, 4_010, 8_000);
        (dir, db)
    };

    // Control: the same scenario with no faults.
    let (control_dir, mut control) = build("torture-control");
    control.enforce_retention(8_000).unwrap();
    assert_eq!(control.stats().raw_watermark, 7000);

    // Count the injection sites (hook that never fires), and record
    // the site labels so we know every transition type is covered.
    let labels = Arc::new(Mutex::new(Vec::<String>::new()));
    let sites = {
        let (dir, mut db) = build("torture-count");
        let hook_labels = labels.clone();
        db.set_retention_fault_hook(Some(Box::new(move |site: &str| {
            hook_labels.lock().unwrap().push(site.to_string());
            false
        })));
        db.enforce_retention(8_000).unwrap();
        drop(db);
        let _ = fs::remove_dir_all(&dir);
        let n = labels.lock().unwrap().len();
        n
    };
    assert!(sites >= 10, "expected a dense site matrix, got {sites}");
    let seen = labels.lock().unwrap().clone();
    for kind in [
        "rollup-seal:",
        "rollup-sealed:",
        "manifest-rolled:",
        "manifest-raw-watermark:",
        "drop-raw:",
        "manifest-rollup-drop:",
        "drop-rollup:",
    ] {
        assert!(
            seen.iter().any(|s| s.starts_with(kind)),
            "site kind {kind} never fired (saw {seen:?})"
        );
    }

    for k in 0..sites {
        let (dir, mut db) = build("torture-k");
        // Pre-crash capture: raw data newer than the pass-2 cut.
        let acked_new = db.query_naive(&Selector::all(), 7000, u64::MAX).unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        db.set_retention_fault_hook(Some(Box::new(move |_site: &str| {
            fired2.fetch_add(1, Ordering::SeqCst) == k
        })));
        let err = db.enforce_retention(8_000);
        assert!(err.is_err(), "site {k} should have aborted the pass");
        drop(db); // crash

        // Reopen after the crash: no hook, finish the pass.
        let mut db = Tsdb::open_with(&dir, opts(policy())).unwrap();

        // Invariant 1: acked raw newer than the TTL cut is never lost —
        // even before the pass is re-run.
        let survivors = db.query_naive(&Selector::all(), 7000, u64::MAX).unwrap();
        assert_bit_identical(&survivors, &acked_new, &format!("site {k}: acked raw after crash"));

        db.enforce_retention(8_000).unwrap();
        assert_eq!(db.stats().raw_watermark, 7000, "site {k}");

        // Invariant 2: no rollup is double-applied and no tier serves
        // stale data — the recovered store answers bit-identically to
        // the never-crashed control, across tiers and aggregates.
        // (A double-applied rollup would double Sum/Count; a lost one
        // would drop bins.)
        for agg in AGGS {
            for (t0, t1, q) in [
                (0u64, u64::MAX, 500u64), // all tiers
                (0, 4999, 1000),          // coarse tier only
                (5000, 6999, 100),        // fine tier at its own bin
                (7000, u64::MAX, 250),    // raw only
            ] {
                let got = db.downsample_tiered(&Selector::all(), t0, t1, q, agg).unwrap();
                let want = control.downsample_tiered(&Selector::all(), t0, t1, q, agg).unwrap();
                assert_bit_identical(
                    &got.0,
                    &want.0,
                    &format!("site {k}: agg {agg:?} range {t0}..{t1} bin {q}"),
                );
                assert_eq!(got.1, want.1, "site {k}: tier labels");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&control_dir);
}
