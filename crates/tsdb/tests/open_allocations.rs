//! What opening and sealing a segment allocate, counted exactly: a test
//! binary of its own, because it replaces the global allocator with one
//! that counts the calls made on the current thread.
//!
//! `SegmentReader::open` keeps the series index as the bytes it read
//! plus one fixed-width row per series, so what it allocates is bounded
//! by its tables, not by its series: fewer than `n_hosts + n_metrics +
//! 32` calls for a 4,096-series day segment. Parsing the index into
//! owned structs took three per series (≈ 12,600).
//!
//! `SegmentWriter` encodes every chunk straight into the file image and
//! owns a series' names once, so what it allocates grows with series and
//! blocks, not chunks. Staging each chunk took at least three per chunk:
//! its encoded buffer and two owned names.
//!
//! `Tsdb::open` replays a WAL tail a frame at a time, resolving each
//! name of the frame's table once, into a memtable that owns a metric
//! name once per store: what it allocates is a run per series plus a
//! few per host and per metric. Resolving every record by name and
//! owning a metric name per series took about 2.3 per series.
//!
//! `Tsdb::downsample` bins each series into one vector reserved once and
//! decodes every chunk into one buffer for the whole read: what a panel
//! allocates grows with its series and the segments they span, not with
//! its bins or chunks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use supremm_tsdb::segment::{SegmentReader, SegmentWriter, KIND_SERIES};
use supremm_tsdb::{Agg, DbOptions, Selector, Tsdb};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

const HOSTS: usize = 256;
const METRICS: usize = 16;

/// `(host, metric, samples)`, as `push_series_block` takes it.
type Chunk<'a> = (&'a str, &'a str, &'a [(u64, u64)]);

/// A day of the engine's store: host and metric names, and 144 samples
/// for each of the `HOSTS × METRICS` series, in key order.
struct Day {
    hosts: Vec<String>,
    metrics: Vec<String>,
    samples: Vec<Vec<(u64, u64)>>,
}

impl Day {
    fn new() -> Day {
        let hosts = (0..HOSTS).map(|h| format!("c{:03}-{:03}", h / 16, h % 16)).collect();
        let metrics = (0..METRICS).map(|m| format!("metric_{m:02}")).collect();
        let samples = (0..HOSTS * METRICS)
            .map(|s| {
                (0..144).map(|i| (1_700_000_000 + i * 600, ((s as u64) * 7 + i).to_le())).collect()
            })
            .collect();
        Day { hosts, metrics, samples }
    }

    /// Every series cut into chunks of `chunk_samples`, in key order.
    fn chunks(&self, chunk_samples: usize) -> Vec<Chunk<'_>> {
        let series = self.samples.iter().enumerate().map(|(s, samples)| {
            (self.hosts[s / METRICS].as_str(), self.metrics[s % METRICS].as_str(), samples)
        });
        series
            .flat_map(|(h, m, samples)| samples.chunks(chunk_samples).map(move |c| (h, m, c)))
            .collect()
    }

    /// Seal `chunks` to `path` in 64-chunk blocks, through
    /// `push_series_block`.
    fn seal(chunks: &[Chunk<'_>], path: &std::path::Path) -> u64 {
        let mut writer = SegmentWriter::new(KIND_SERIES);
        for block in chunks.chunks(64) {
            writer.push_series_block(block);
        }
        writer.seal(path).unwrap()
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsdb-{tag}-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn opening_a_day_segment_allocates_per_table_not_per_series() {
    let dir = tmpdir("open");
    let path = dir.join("seg-000001.tsdb");

    // The engine's day segment: one 144-sample chunk per series, 64
    // chunks a block, series in key order.
    let day = Day::new();
    Day::seal(&day.chunks(144), &path);

    let (reader, calls) = allocations(|| SegmentReader::open(&path).unwrap());
    let bound = (HOSTS + METRICS + 32) as u64;
    assert!(calls < bound, "open made {calls} allocations, bound {bound}");
    assert_eq!(reader.entries.len(), HOSTS * METRICS / 64);

    // The view is what costs per series, and only when asked for.
    let (index, calls) = allocations(|| reader.series_index().unwrap().len());
    assert_eq!(index, HOSTS * METRICS);
    assert!(calls >= 3 * index as u64, "the view owns its names and ref lists: {calls}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same day sealed as one chunk per series and as eight: each
/// chunk added costs less than one allocation (a series' ref list grows
/// as its chunks come; the image, the index and the block entries grow
/// by doubling). Staging a chunk took at least three.
#[test]
fn sealing_allocates_per_series_and_block_not_per_chunk() {
    let dir = tmpdir("seal");
    let day = Day::new();
    let (one, eight) = (day.chunks(144), day.chunks(18));
    assert_eq!((one.len(), eight.len()), (HOSTS * METRICS, 8 * HOSTS * METRICS));
    let (one_len, one_calls) = allocations(|| Day::seal(&one, &dir.join("seg-000001.tsdb")));
    let (eight_len, eight_calls) = allocations(|| Day::seal(&eight, &dir.join("seg-000002.tsdb")));
    assert!(eight_len > one_len, "eight chunks a series take more bytes");
    let added = (eight.len() - one.len()) as f64;
    let per_chunk = (eight_calls as f64 - one_calls as f64) / added;
    assert!(
        per_chunk < 1.0,
        "{one_calls} allocations for one chunk a series, {eight_calls} for eight: {per_chunk:.2} an added chunk"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store holding one synced tick of the fleet — one one-sample record
/// per series, no segments — reopens with fewer than `series + 8·hosts
/// + 2·metrics + 64` allocations.
#[test]
fn reopening_a_wal_tail_allocates_per_series_once() {
    let dir = tmpdir("replay");
    let day = Day::new();
    {
        let mut db = Tsdb::open(&dir).unwrap();
        for (s, samples) in day.samples.iter().enumerate() {
            let (host, metric) = (&day.hosts[s / METRICS], &day.metrics[s % METRICS]);
            let (ts, bits) = samples[0];
            db.append(host, metric, ts, f64::from_bits(bits)).unwrap();
        }
        db.sync().unwrap();
    }
    let (db, calls) = allocations(|| Tsdb::open(&dir).unwrap());
    let stats = db.stats();
    assert_eq!((stats.segments, stats.mem_series), (0, HOSTS * METRICS));
    let bound = (HOSTS * METRICS + 8 * HOSTS + 2 * METRICS + 64) as u64;
    assert!(calls < bound, "open made {calls} allocations, bound {bound}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store of `days` day segments of four hosts' `METRICS` series each,
/// every series cut into `chunk_samples`-sample chunks, a day one block.
fn panel_store(tag: &str, days: u64, chunk_samples: usize) -> (Tsdb, std::path::PathBuf) {
    let dir = tmpdir(tag);
    let opts = DbOptions { chunk_samples, block_chunks: 512, ..DbOptions::default() };
    let mut db = Tsdb::open_with(&dir, opts).unwrap();
    let day = Day::new();
    for d in 0..days {
        for s in 0..4 * METRICS {
            let (host, metric) = (&day.hosts[s / METRICS], &day.metrics[s % METRICS]);
            let samples: Vec<(u64, f64)> =
                day.samples[s].iter().map(|&(ts, bits)| (ts + d * 86_400, bits as f64)).collect();
            db.append_batch(host, metric, &samples).unwrap();
        }
        db.flush().unwrap();
    }
    (db, dir)
}

/// Allocations of one panel: the `METRICS` series of the store's second
/// host, over its whole time range, in `bin_secs` bins. Each day of a
/// series straddles two day bins, so every chunk is decoded at every
/// width.
fn panel_allocations(db: &Tsdb, bin_secs: u64) -> u64 {
    let sel = Selector::host("c000-001");
    let (out, calls) =
        allocations(|| db.downsample(&sel, 0, u64::MAX, bin_secs, Agg::Mean).unwrap());
    assert_eq!(out.len(), METRICS);
    calls
}

/// A panel allocates per series and per (series, segment), never per
/// bin or decoded chunk: one day segment costs the same at 600, 3600
/// and 86400 s bins (112), two more days at most two allocations per
/// added (series, segment) (148), and the same three days cut into
/// eight chunks a series at most one more per (series, segment) — the
/// plan's ref list grows as its refs come — and none per chunk (196).
/// Binning into a map per series and decoding each chunk into a vector
/// of its own made 511 / 191 / 143 over one day, 1,347 over three (26
/// per added pair) and 1,731 cut into eight.
#[test]
fn a_panel_allocates_per_series_not_per_bin_or_chunk() {
    let (db, dir) = panel_store("panel-one", 1, 144);
    let one_day: Vec<u64> = [600, 3600, 86_400].map(|bin| panel_allocations(&db, bin)).to_vec();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(one_day.iter().all(|&c| c == one_day[0]), "one day at 600/3600/86400 s: {one_day:?}");

    let (db, dir) = panel_store("panel-three", 3, 144);
    let three_days = panel_allocations(&db, 600);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    let added = (2 * METRICS) as u64;
    let per_added = (three_days - one_day[0]) as f64 / added as f64;
    assert!(
        per_added <= 2.0,
        "{} allocations over one day, {three_days} over three: {per_added:.2} per added (series, segment)",
        one_day[0]
    );

    let (db, dir) = panel_store("panel-cut", 3, 18);
    let cut = panel_allocations(&db, 600);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    let pairs = (3 * METRICS) as u64;
    assert!(
        cut <= three_days + pairs,
        "{three_days} allocations for one chunk a (series, day), {cut} for eight"
    );
}
