//! Crash matrices for flush, compaction and recovery.
//!
//! Every durable op the engine makes passes the `durable` crash seam.
//! Each test records the ops of one call on a fresh store, then for
//! every op `k` builds the same store again, kills the call at op `k`
//! (it and every later op fail without acting, so the directory is what
//! a kill there leaves), reopens, finishes the work, and compares the
//! store with a control that never crashed.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

use supremm_tsdb::durable::{CrashSeam, Op};
use supremm_tsdb::wal::Wal;
use supremm_tsdb::{Agg, DbOptions, RetentionPolicy, RollupLevel, Selector, SeriesKey, Tsdb};

mod seam;
use seam::{crash_at, trace_of};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsdb-crash-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(retention: RetentionPolicy) -> DbOptions {
    DbOptions { chunk_samples: 16, block_chunks: 4, retention }
}

const HOSTS: [&str; 2] = ["c301-101", "c301-102"];
const METRICS: [(&str, f64); 2] = [("cpu_user", 0.25), ("mem_used", 1.0e9)];

/// Every series' samples at `ts` in `[lo, hi]`, 10 s apart; `salt`
/// changes the values, so rewriting a window with another salt
/// overwrites it.
fn append(db: &mut Tsdb, lo: u64, hi: u64, salt: u64) {
    for host in HOSTS {
        for (metric, base) in METRICS {
            let samples: Vec<(u64, f64)> = (lo..=hi)
                .step_by(10)
                .map(|ts| (ts, base + ((ts + salt) % 337) as f64 * 0.5))
                .collect();
            db.append_batch(host, metric, &samples).unwrap();
        }
    }
}

/// One answer, values as bits.
type Rows = Vec<(SeriesKey, Vec<(u64, u64)>)>;

fn bits(rows: Vec<(SeriesKey, Vec<(u64, f64)>)>) -> Rows {
    let row = |(k, s): (SeriesKey, Vec<(u64, f64)>)| {
        (k, s.iter().map(|&(t, v)| (t, v.to_bits())).collect())
    };
    rows.into_iter().map(row).collect()
}

const AGGS: [Agg; 4] = [Agg::Mean, Agg::Sum, Agg::Last, Agg::Count];

/// Every answer the raw tier gives — samples and 500 s bins — each
/// checked against the oracle first.
fn answers(db: &Tsdb) -> Vec<Rows> {
    let (all, t0) = (Selector::all(), db.stats().raw_watermark);
    let raw = bits(db.query(&all, 0, u64::MAX).unwrap());
    assert!(raw == bits(db.query_naive(&all, 0, u64::MAX).unwrap()), "indexed vs naive");
    let mut out = vec![raw];
    for agg in AGGS {
        let fast = bits(db.downsample(&all, t0, u64::MAX, 500, agg).unwrap());
        assert!(
            fast == bits(db.downsample_naive(&all, t0, u64::MAX, 500, agg).unwrap()),
            "{agg:?}"
        );
        out.push(fast);
    }
    out
}

/// Every tier answer of a tiered store, with the tiers that served it.
fn tier_answers(db: &Tsdb) -> Vec<(Rows, Vec<String>)> {
    let windows =
        [(0u64, u64::MAX, 500u64), (0, 4999, 1000), (5000, 6999, 100), (7000, u64::MAX, 250)];
    let answer = |(agg, (t0, t1, bin))| {
        let (rows, tiers) = db.downsample_tiered(&Selector::all(), t0, t1, bin, agg).unwrap();
        (bits(rows), tiers)
    };
    AGGS.into_iter().flat_map(|agg| windows.map(|w| (agg, w))).map(answer).collect()
}

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> =
        fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
    names.sort();
    names
}

/// Two sealed segments, then an acked tail in the WAL that overwrites
/// part of the first: `flush` seals the tail and empties the WAL.
#[test]
fn a_flush_crashed_at_any_op_loses_no_synced_sample() {
    let build = |name: &str| -> (PathBuf, Tsdb) {
        let dir = tmpdir(name);
        let mut db = Tsdb::open_with(&dir, opts(RetentionPolicy::default())).unwrap();
        for (lo, hi) in [(0, 990), (1_000, 1_990)] {
            append(&mut db, lo, hi, 0);
            db.flush().unwrap();
        }
        append(&mut db, 2_000, 2_990, 0);
        append(&mut db, 500, 700, 1);
        db.sync().unwrap();
        (dir, db)
    };
    let (control_dir, mut control) = build("flush-control");
    control.flush().unwrap();
    let want = answers(&control);

    let (dir, mut db) = build("flush-trace");
    let trace = trace_of(|| db.flush().unwrap());
    drop(db);
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(
        trace.iter().map(|(op, name)| (*op, name.as_str())).collect::<Vec<_>>(),
        [
            (Op::WriteTmp, "seg-000003.tsdb"),
            (Op::Rename, "seg-000003.tsdb"),
            (Op::TruncateToHeader, "wal.log")
        ]
    );

    for k in 0..trace.len() {
        let (dir, db) = build("flush-k");
        crash_at(k, db, |db| db.flush().unwrap_err());
        let mut db = Tsdb::open_with(&dir, opts(RetentionPolicy::default())).unwrap();
        assert!(answers(&db) == want, "op {k}: answers after reopen");
        db.flush().unwrap();
        assert!(answers(&db) == want, "op {k}: answers after the second flush");
        assert_eq!(db.stats().wal_bytes, 8, "op {k}: the WAL holds its header alone");
        assert!(listing(&dir).iter().all(|n| !n.ends_with(".tmp")), "op {k}: {:?}", listing(&dir));
        drop(db);
        let db = Tsdb::open_with(&dir, opts(RetentionPolicy::default())).unwrap();
        assert!(answers(&db) == want, "op {k}: answers after the last reopen");
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&control_dir);
}

/// Four overlapping segments and an acked WAL tail: `compact` seals
/// the merged segment, then deletes each input.
#[test]
fn a_compaction_crashed_at_any_op_converges_on_one_segment() {
    let build = |name: &str| -> (PathBuf, Tsdb) {
        let dir = tmpdir(name);
        let mut db = Tsdb::open_with(&dir, opts(RetentionPolicy::default())).unwrap();
        for (salt, lo, hi) in [(0, 0, 1_990), (1, 1_000, 2_990), (2, 500, 1_500), (3, 2_000, 3_990)]
        {
            append(&mut db, lo, hi, salt);
            db.flush().unwrap();
        }
        append(&mut db, 3_000, 4_500, 4);
        db.sync().unwrap();
        (dir, db)
    };
    let (control_dir, mut control) = build("compact-control");
    let want = answers(&control);
    control.compact().unwrap();
    assert!(answers(&control) == want, "compaction moved an answer");

    let (dir, mut db) = build("compact-trace");
    let trace = trace_of(|| db.compact().unwrap());
    drop(db);
    let _ = fs::remove_dir_all(&dir);
    let inputs = (1..=4).map(|seq| (Op::Remove, format!("seg-{seq:06}.tsdb")));
    let seal = [(Op::WriteTmp, "seg-000005.tsdb"), (Op::Rename, "seg-000005.tsdb")];
    assert_eq!(
        trace,
        seal.map(|(op, n)| (op, n.to_string())).into_iter().chain(inputs).collect::<Vec<_>>()
    );

    for k in 0..trace.len() {
        let (dir, db) = build("compact-k");
        crash_at(k, db, |db| db.compact().unwrap_err());
        let mut db = Tsdb::open_with(&dir, opts(RetentionPolicy::default())).unwrap();
        assert!(answers(&db) == want, "op {k}: answers after reopen");
        db.compact().unwrap();
        assert_eq!(db.stats().segments, 1, "op {k}");
        assert!(answers(&db) == want, "op {k}: answers after the finished compaction");
        let segs: Vec<String> =
            listing(&dir).into_iter().filter(|n| n.starts_with("seg-")).collect();
        assert_eq!(segs.len(), 1, "op {k}: {segs:?}");
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&control_dir);
}

/// raw_ttl=1000s, 100s bins kept 3000s, 500s bins kept forever.
fn tiered() -> RetentionPolicy {
    RetentionPolicy {
        raw_ttl: Some(1000),
        levels: vec![
            RollupLevel { bin_secs: 100, ttl: Some(3000) },
            RollupLevel { bin_secs: 500, ttl: None },
        ],
    }
}

/// A store whose second retention pass is due: both levels rolled once,
/// and raw data through 8000 with one flush per 1000 s.
fn tiered_store(name: &str) -> (PathBuf, Tsdb) {
    let dir = tmpdir(name);
    let mut db = Tsdb::open_with(&dir, opts(tiered())).unwrap();
    for lo in (0..8_000).step_by(1_000) {
        append(&mut db, lo + 10 * u64::from(lo > 0), lo + 990, 0);
        db.flush().unwrap();
        if lo == 3_000 {
            db.enforce_retention(4_000).unwrap();
        }
    }
    (dir, db)
}

/// Cut a frame a writer appended to `dir`'s WAL short, as a kill in
/// the middle of its write would: three bytes before the log's end,
/// which is not the file's once a sync has zero-filled past it.
fn tear_the_wal_tail(dir: &Path) {
    let path = dir.join("wal.log");
    let mut wal = Wal::open(&path).unwrap().wal;
    wal.append_parts("c301-101", "cpu_user", &[(8_010, 1f64.to_bits()), (8_020, 2f64.to_bits())])
        .unwrap();
    let len = wal.len();
    drop(wal);
    OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();
}

/// A retention pass crashed where it leaves work for `open` — after a
/// level's next file is committed but before the one it supersedes is
/// deleted, or after the raw watermark is committed but before the
/// segments below it are deleted — and a torn WAL tail. `open` is
/// crashed at each of its ops; the next open and the finished pass
/// answer as a store that never crashed.
#[test]
fn an_open_crashed_at_any_op_recovers_on_the_next() {
    let (control_dir, mut control) = tiered_store("recover-control");
    control.enforce_retention(8_000).unwrap();
    let want = (answers(&control), tier_answers(&control));

    let (dir, mut db) = tiered_store("recover-trace");
    let pass = trace_of(|| {
        db.enforce_retention(8_000).unwrap();
    });
    drop(db);
    let _ = fs::remove_dir_all(&dir);
    let first =
        |op: Op, prefix: &str| pass.iter().position(|(o, n)| *o == op && n.starts_with(prefix));
    let left_for_open =
        [first(Op::Remove, "roll-100-").unwrap(), first(Op::Remove, "seg-").unwrap()];

    // The store each crashed pass leaves, torn WAL tail included.
    let crashed = |name: &str, pass_op: usize| -> PathBuf {
        let (dir, db) = tiered_store(name);
        crash_at(pass_op, db, |db| db.enforce_retention(8_000).unwrap_err());
        tear_the_wal_tail(&dir);
        dir
    };
    let mut seen = Vec::new();
    for pass_op in left_for_open {
        let dir = crashed("recover-open-trace", pass_op);
        let open = trace_of(|| drop(Tsdb::open_with(&dir, opts(tiered())).unwrap()));
        let _ = fs::remove_dir_all(&dir);
        assert!(!open.is_empty() && open.last().unwrap().0 == Op::TruncateTail, "{open:?}");
        for k in 0..open.len() {
            let dir = crashed("recover-k", pass_op);
            let seam = CrashSeam::arm(Some(k));
            assert!(
                Tsdb::open_with(&dir, opts(tiered())).is_err(),
                "pass op {pass_op}, open op {k}"
            );
            assert_eq!(seam.trace().len(), k + 1);
            drop(seam);
            let mut db = Tsdb::open_with(&dir, opts(tiered())).unwrap();
            db.enforce_retention(8_000).unwrap();
            let got = (answers(&db), tier_answers(&db));
            assert!(got == want, "pass op {pass_op}, open op {k}: answers");
            assert_eq!(listing(&dir), listing(&control_dir), "pass op {pass_op}, open op {k}");
            let _ = fs::remove_dir_all(&dir);
        }
        seen.extend(open);
    }
    for (op, prefix) in
        [(Op::Remove, "roll-100-"), (Op::Remove, "seg-"), (Op::TruncateTail, "wal.log")]
    {
        assert!(
            seen.iter().any(|(o, n)| *o == op && n.starts_with(prefix)),
            "no {op:?} of {prefix}"
        );
    }
    let _ = fs::remove_dir_all(&control_dir);
}
