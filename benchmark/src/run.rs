//! One run of one workload: set-up, write phase, durability check,
//! reopen phase, read phase. Every call into the engine is timed and, on
//! traced rounds, recorded as a span; answers are checked between timed
//! sections, never inside one.

use std::collections::BTreeSet;
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::api::{self, Agg, ObsHandle, Selector, Snapshot, Tsdb, TsdbError};
use crate::check::{self, Tiers};
use crate::gen::{tick_ts, Fleet, Rng, DAY, HOSTS, METRICS, SERIES, T0, TICKS_PER_DAY};
use crate::spec::{Shape, Spec, CLASSES};
use crate::stat::Rounds;
use crate::trace::Tracer;

/// Hosts per apply group of a tick: a tick reaches the store as 4 groups.
/// A host-day batch is a group of its own.
pub const GROUP_HOSTS: usize = 64;

fn group_hosts(shape: Shape) -> usize {
    match shape {
        Shape::Tick => GROUP_HOSTS,
        Shape::HostDay => 1,
    }
}
pub const SAMPLES_PER_DAY: u64 = SERIES as u64 * TICKS_PER_DAY;
/// Set-up is repeated at least `MIN_SETUP_REPS` times, and again while
/// `SETUP_TIME` has not gone; the median is reported, the last one used.
const MIN_SETUP_REPS: usize = 3;
const SETUP_TIME: Duration = Duration::from_millis(1500);
/// The reopen phase opens the store at least `MIN_REOPENS` times, and
/// again while `REOPEN_TIME` has not gone.
const MIN_REOPENS: usize = 15;
const REOPEN_TIME: Duration = Duration::from_millis(800);
const WARMUP_CYCLES: usize = 20;
const MIN_READ_ROUNDS: usize = 3;
/// Every this-many-th query is recomputed from the generator.
const CHECK_EVERY: u64 = 32;

pub const POINT: usize = 0;
pub const RANGE: usize = 1;
pub const PANEL: usize = 2;
pub const FLEET: usize = 3;
pub const HISTORY: usize = 4;
const PANEL_DAYS: u64 = 3;
const HISTORY_AGGS: [Agg; 4] = [Agg::Max, Agg::Count, Agg::Last, Agg::Mean];

pub struct Query {
    pub class: usize,
    pub sel: Selector,
    pub host: Option<usize>,
    pub metric: Option<usize>,
    pub t0: u64,
    pub t1: u64,
    /// 0 for `query`; else the `downsample_tiered` bin width.
    pub bin_secs: u64,
    pub agg: Agg,
}

type Series = Vec<(api::SeriesKey, Vec<(u64, f64)>)>;

impl Query {
    fn new(class: usize, host: Option<usize>, metric: Option<usize>, fleet: &Fleet) -> Query {
        let sel = Selector {
            host: host.map(|h| fleet.hosts[h].clone()),
            metric: metric.map(|m| fleet.metrics[m].clone()),
        };
        Query {
            class,
            sel,
            host,
            metric,
            t0: 0,
            t1: 0,
            bin_secs: 0,
            agg: Agg::Mean,
        }
    }

    fn window(mut self, t0: u64, t1: u64) -> Query {
        self.t0 = t0;
        self.t1 = t1;
        self
    }

    fn binned(mut self, bin_secs: u64, agg: Agg) -> Query {
        self.bin_secs = bin_secs;
        self.agg = agg;
        self
    }

    pub fn hosts(&self) -> std::ops::Range<usize> {
        self.host.map_or(0..HOSTS, |h| h..h + 1)
    }

    pub fn metrics(&self) -> std::ops::Range<usize> {
        self.metric.map_or(0..METRICS, |m| m..m + 1)
    }
}

/// Draws the queries of one workload from its seed.
struct QueryGen {
    rng: Rng,
    hot: Vec<usize>,
    skewed: bool,
    recent_ticks: u64,
    range_no: u64,
    history_no: usize,
}

impl QueryGen {
    fn new(spec: &Spec, seed: u64) -> QueryGen {
        let mut rng = Rng::new(seed);
        let offset = rng.below(5) as usize;
        QueryGen {
            rng,
            hot: (0..HOSTS / 5).map(|i| i * 5 + offset).collect(),
            skewed: spec.skewed,
            recent_ticks: spec.recent_days * TICKS_PER_DAY,
            range_no: 0,
            history_no: 0,
        }
    }

    fn host(&mut self) -> usize {
        if self.skewed && self.rng.below(10) < 8 {
            self.hot[self.rng.below(self.hot.len() as u64) as usize]
        } else {
            self.rng.below(HOSTS as u64) as usize
        }
    }

    fn metric(&mut self) -> usize {
        self.rng.below(METRICS as u64) as usize
    }

    /// First tick `point` and `range` may touch.
    fn first_tick(&self, last_tick: u64) -> u64 {
        if self.recent_ticks == 0 {
            0
        } else {
            (last_tick + 1).saturating_sub(self.recent_ticks)
        }
    }

    fn point(&mut self, fleet: &Fleet, last_tick: u64) -> Query {
        let from = self.first_tick(last_tick);
        let ts = tick_ts(from + self.rng.below(last_tick - from + 1));
        Query::new(POINT, Some(self.host()), Some(self.metric()), fleet).window(ts, ts)
    }

    /// Window lengths go round 1–7 days, so every list holds the same
    /// mix of them whatever the seed; where the window lies is drawn.
    fn range(&mut self, fleet: &Fleet, last_tick: u64) -> Query {
        let from = self.first_tick(last_tick);
        let span = last_tick - from + 1;
        self.range_no += 1;
        let len = ((1 + self.range_no % 7) * TICKS_PER_DAY).min(span);
        let start = from + self.rng.below(span - len + 1);
        Query::new(RANGE, Some(self.host()), Some(self.metric()), fleet)
            .window(tick_ts(start), tick_ts(start + len - 1))
    }

    /// A dashboard panel shows a recent day: one of the last
    /// `PANEL_DAYS` whole ones, which a tiered store still holds raw.
    fn panel(&mut self, fleet: &Fleet, last_tick: u64) -> Query {
        let days = ((last_tick + 1) / TICKS_PER_DAY).max(1);
        let day = days - 1 - self.rng.below(PANEL_DAYS.min(days));
        Query::new(PANEL, Some(self.host()), None, fleet)
            .window(T0 + day * DAY, T0 + (day + 1) * DAY - 1)
            .binned(3600, Agg::Mean)
    }

    fn fleet(&mut self, fleet: &Fleet, last_tick: u64) -> Query {
        Query::new(FLEET, None, Some(self.metric()), fleet)
            .window(T0, tick_ts(last_tick))
            .binned(DAY, Agg::Max)
    }

    fn history(&mut self, fleet: &Fleet, last_tick: u64) -> Query {
        self.history_no += 1;
        Query::new(HISTORY, Some(self.host()), None, fleet)
            .window(T0, tick_ts(last_tick))
            .binned(DAY, HISTORY_AGGS[self.history_no % HISTORY_AGGS.len()])
    }

    fn cycles(&mut self, fleet: &Fleet, last_tick: u64, n: usize) -> Vec<Query> {
        let mut out = Vec::with_capacity(n * 16);
        for _ in 0..n {
            out.extend((0..8).map(|_| self.point(fleet, last_tick)));
            out.extend((0..4).map(|_| self.range(fleet, last_tick)));
            out.extend((0..2).map(|_| self.panel(fleet, last_tick)));
            out.push(self.fleet(fleet, last_tick));
            out.push(self.history(fleet, last_tick));
        }
        out
    }
}

pub struct WriteRound {
    pub traced: bool,
    /// Time inside the round's apply groups.
    pub group_ns: u64,
    /// Wall time of the round less generator and checker work.
    pub wall_ns: u64,
}

pub struct ReadRound {
    pub traced: bool,
    pub busy_ns: u64,
    pub wall_ns: u64,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    pub store_fs: String,
    pub setup_s: Vec<f64>,
    pub write_rounds: Vec<WriteRound>,
    pub ack_ms: Rounds,
    /// Longest flush, compaction or retention pass of each round.
    pub stall_ms: Vec<f64>,
    pub compact_ms: Vec<f64>,
    pub compact_every_rounds: u64,
    /// Samples one write round appends.
    pub round_samples: u64,
    pub reopen_ms: Vec<f64>,
    pub disk_bytes: u64,
    pub samples_stored: u64,
    /// Latency in ms, indexed by class.
    pub class_ms: [Rounds; 5],
    pub read_rounds: Vec<ReadRound>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    // Exact counts of the write phase; under `fresh_each_round`, of its
    // last round.
    pub wal_bytes: u64,
    pub rollup_bytes: u64,
    pub rollup_bins: Vec<u64>,
    pub counted_samples: u64,
    pub before_write: Option<Snapshot>,
    seen_rollups: BTreeSet<PathBuf>,
    /// Samples the traced rounds appended (and flushed), and samples
    /// their compactions read.
    pub samples_traced: u64,
    pub samples_compacted_traced: u64,
    pub after_write: Option<Snapshot>,
    /// Tier hits of the write phase and one read round.
    pub tier_hits: [u64; 3],
    pub tracer: Tracer,
    pub excluded_ns: u64,
}

impl Measured {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Note a flush, compaction or retention pass of the current round.
    fn stalled(&mut self, ns: u64) {
        if let Some(longest) = self.stall_ms.last_mut() {
            *longest = longest.max(ms(ns));
        }
    }

    /// Run harness work that is neither the engine's nor the client's.
    fn untimed<T>(&mut self, f: impl FnOnce(&mut Measured) -> T) -> T {
        let t = Instant::now();
        let out = f(self);
        self.excluded_ns += t.elapsed().as_nanos() as u64;
        out
    }
}

/// The state a run carries from phase to phase.
pub struct Run {
    pub spec: &'static Spec,
    pub fleet: Fleet,
    pub dir: PathBuf,
    pub scratch: PathBuf,
    pub obs: ObsHandle,
    pub db: Option<Tsdb>,
    /// Host-day batches of `round_days`, series-major (`HostDay` only).
    batches: Vec<Vec<(u64, f64)>>,
    pub queries: Vec<Query>,
    qgen: QueryGen,
    /// Last tick appended and synced.
    pub last_tick: u64,
    pub tiers: Tiers,
    requests: u64,
    pub m: Measured,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn io_err(e: io::Error) -> TsdbError {
    TsdbError::Io(e)
}

/// One one-sample batch per series: what a tick hands to the store.
type TickBatches = Vec<[(u64, f64); 1]>;

fn fill_tick(fleet: &Fleet, tick: u64, out: &mut TickBatches) {
    out.clear();
    out.extend((0..SERIES).map(|s| [(tick_ts(tick), fleet.value(s / METRICS, s % METRICS, tick))]));
}

/// `append_batch` once per series of `hosts`, with the batch `batch_of`
/// gives for the series' index.
fn append_hosts<'a>(
    db: &mut Tsdb,
    fleet: &Fleet,
    hosts: std::ops::Range<usize>,
    batch_of: impl Fn(usize) -> &'a [(u64, f64)],
) -> io::Result<()> {
    for h in hosts {
        for k in 0..METRICS {
            db.append_batch(
                &fleet.hosts[h],
                &fleet.metrics[k],
                batch_of(h * METRICS + k),
            )?;
        }
    }
    Ok(())
}

/// One data day as host-day batches plus its flush and, under a policy,
/// retention pass: how set-up preloads history.
fn preload_day(db: &mut Tsdb, fleet: &Fleet, day: u64, tiered: bool) -> Result<(), TsdbError> {
    let ticks = day * TICKS_PER_DAY..(day + 1) * TICKS_PER_DAY;
    for h in 0..HOSTS {
        for m in 0..METRICS {
            let batch = fleet.series(h, m, ticks.clone());
            db.append_batch(&fleet.hosts[h], &fleet.metrics[m], &batch)
                .map_err(io_err)?;
        }
    }
    db.flush()?;
    if tiered {
        db.enforce_retention(db.max_timestamp().unwrap_or(0))?;
    }
    Ok(())
}

/// The `<prefix>*.tsdb` files of a store directory, in name order:
/// `seg-` for raw segments, `roll-` for rollup segments.
pub fn segment_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with(prefix) && name.ends_with(".tsdb")
        })
        .collect();
    files.sort();
    files
}

/// Bytes of the rollup segments in a store directory that `seen` does
/// not hold yet; adds them to it.
fn new_rollup_bytes(dir: &Path, seen: &mut BTreeSet<PathBuf>) -> u64 {
    segment_files(dir, "roll-")
        .into_iter()
        .filter(|p| seen.insert(p.clone()))
        .filter_map(|p| fs::metadata(p).ok())
        .map(|md| md.len())
        .sum()
}

/// Samples held by the raw segments of a store directory, from their
/// per-series indexes.
fn raw_segment_samples(dir: &Path) -> u64 {
    let mut total = 0;
    for path in segment_files(dir, "seg-") {
        if let Ok(reader) = api::SegmentReader::open(&path) {
            let index = reader.series_index().unwrap_or(&[]);
            total += index
                .iter()
                .flat_map(|entry| &entry.chunks)
                .map(|c| c.stats.count)
                .sum::<u64>();
        }
    }
    total
}

impl Run {
    /// Generate the inputs and build the store the timed phases start
    /// from. What it costs is `setup_s`.
    fn set_up(spec: &'static Spec, seed: u64, seconds: u64, out: &Path) -> Result<Run, TsdbError> {
        let fleet = Fleet::new(seed);
        let dir = out.join(format!("store-{}", spec.name));
        let scratch = out.join(format!("scratch-{}", spec.name));
        for d in [&dir, &scratch] {
            let _ = fs::remove_dir_all(d);
            fs::create_dir_all(d)?;
        }
        let obs = api::new_registry();
        let mut db = api::open_store(&dir, spec.policy, &obs)?;
        let tiered = spec.tiered();
        // A store that every round rebuilds is built once here too: the
        // first timed round should not be the first to touch the
        // allocator and the file system.
        let preload = if spec.fresh_each_round {
            spec.round_days
        } else {
            spec.preload_days
        };
        for day in 0..preload {
            preload_day(&mut db, &fleet, day, tiered)?;
        }
        let batches = match spec.shape {
            Shape::Tick => Vec::new(),
            Shape::HostDay => (0..SERIES * spec.round_days as usize)
                .map(|i| {
                    let (day, s) = ((i / SERIES) as u64, i % SERIES);
                    let ticks = day * TICKS_PER_DAY..(day + 1) * TICKS_PER_DAY;
                    fleet.series(s / METRICS, s % METRICS, ticks)
                })
                .collect(),
        };
        let rounds = spec.write_rounds(seconds);
        let days = if spec.fresh_each_round {
            spec.round_days
        } else {
            spec.preload_days + rounds * spec.round_days
        };
        // + the synced tail and the one tick that is never synced
        let final_tick = days * TICKS_PER_DAY + spec.tail_ticks;
        let mut qgen = QueryGen::new(spec, seed);
        let queries = qgen.cycles(&fleet, final_tick, spec.cycles);
        let tiers = Tiers::of_store(tiered, days);
        Ok(Run {
            spec,
            fleet,
            dir,
            scratch,
            obs,
            db: Some(db),
            batches,
            queries,
            qgen,
            last_tick: (spec.preload_days * TICKS_PER_DAY).saturating_sub(1),
            tiers,
            requests: 0,
            m: Measured::default(),
        })
    }

    /// Append one apply group — 64 hosts of a tick or one host-day — and
    /// make it durable the way the workload's shape does; `maintain`
    /// adds the day boundary's flush (and retention pass). One request.
    fn apply_group(
        &mut self,
        group: usize,
        day: u64,
        tick: &TickBatches,
        maintain: bool,
    ) -> Result<u64, TsdbError> {
        let db = self.db.as_mut().expect("store is open");
        let (fleet, batches, spec) = (&self.fleet, &self.batches, self.spec);
        let tiered = spec.tiered();
        let m = &mut self.m;
        let mut stall = 0u64;
        let hosts = group * group_hosts(spec.shape)..(group + 1) * group_hosts(spec.shape);
        let (res, ns) = m.tracer.time("apply_group", |tr| -> Result<(), TsdbError> {
            tr.time("db.append_batch", |_| {
                append_hosts(db, fleet, hosts, |s| match spec.shape {
                    Shape::Tick => &tick[s],
                    Shape::HostDay => &batches[(day % spec.round_days) as usize * SERIES + s],
                })
            })
            .0
            .map_err(io_err)?;
            if spec.shape == Shape::Tick {
                tr.time("db.sync", |_| db.sync()).0.map_err(io_err)?;
            }
            if maintain {
                // Not an engine call the client makes: what the WAL held
                // is only visible now, before the flush resets it.
                m.wal_bytes += db.stats().wal_bytes;
                let (r, ns) = tr.time("db.flush", |_| db.flush());
                r?;
                stall = stall.max(ns);
                if tiered {
                    let now = db.max_timestamp().unwrap_or(0);
                    let (r, ns) = tr.time("db.enforce_retention", |_| db.enforce_retention(now));
                    m.rollup_bins.push(r?.rollup_bins_written);
                    stall = stall.max(ns);
                }
            }
            Ok(())
        });
        res?;
        m.attempted += 1;
        m.ack_ms.push(ms(ns));
        m.stalled(stall);
        Ok(ns)
    }

    /// The write phase: `rounds` rounds of `round_days` data days in the
    /// workload's shape, every other one traced when tracing.
    fn write_phase(&mut self, rounds: u64, trace: bool) -> Result<(), TsdbError> {
        let spec = self.spec;
        let mut batches = TickBatches::new();
        let groups = HOSTS / group_hosts(spec.shape);
        self.m.round_samples = spec.round_days * SAMPLES_PER_DAY;
        self.m.compact_every_rounds = spec.compact_every_rounds;
        self.m.before_write = Some(self.obs.snapshot());
        new_rollup_bytes(&self.dir, &mut self.m.seen_rollups);
        for round in 0..rounds {
            // In pairs, so that tracing does not fall in step with the
            // every-other-round compaction.
            let traced = trace && (round / 2) % 2 == 0;
            self.m.tracer.on = traced;
            if spec.fresh_each_round {
                self.db = None;
                fs::remove_dir_all(&self.dir)?;
                self.obs = api::new_registry();
                self.db = Some(api::open_store(&self.dir, spec.policy, &self.obs)?);
                self.m.before_write = None;
                self.m.wal_bytes = 0;
                self.m.counted_samples = 0;
            }
            self.m.ack_ms.begin();
            self.m.stall_ms.push(0.0);
            let excluded_before = self.m.excluded_ns;
            let started = Instant::now();
            let mut group_ns = 0u64;
            let first_day = if spec.fresh_each_round {
                0
            } else {
                spec.preload_days + round * spec.round_days
            };
            for day in first_day..first_day + spec.round_days {
                match spec.shape {
                    Shape::HostDay => {
                        for g in 0..groups {
                            group_ns += self.apply_group(g, day, &batches, g == groups - 1)?;
                        }
                    }
                    Shape::Tick => {
                        for t in 0..TICKS_PER_DAY {
                            let tick = day * TICKS_PER_DAY + t;
                            self.m
                                .untimed(|_| fill_tick(&self.fleet, tick, &mut batches));
                            for g in 0..groups {
                                let day_end = t == TICKS_PER_DAY - 1 && g == groups - 1;
                                group_ns += self.apply_group(g, day, &batches, day_end)?;
                            }
                            self.last_tick = tick;
                            if spec.read_every_ticks > 0 && (t + 1) % spec.read_every_ticks == 0 {
                                self.interleaved_reads(day)?;
                            }
                        }
                    }
                }
                self.last_tick = (day + 1) * TICKS_PER_DAY - 1;
                self.m.untimed(|m| {
                    m.rollup_bytes += new_rollup_bytes(&self.dir, &mut m.seen_rollups)
                });
            }
            if spec.compact_every_rounds > 0 && (round + 1) % spec.compact_every_rounds == 0 {
                let resident = self.m.untimed(|_| raw_segment_samples(&self.dir));
                let db = self.db.as_mut().expect("store is open");
                let (r, ns) = self.m.tracer.time("db.compact", |_| db.compact());
                r?;
                self.m.attempted += 1;
                self.m.compact_ms.push(ms(ns));
                self.m.stalled(ns);
                if traced {
                    self.m.samples_compacted_traced += resident;
                }
            }
            let wall_ns =
                started.elapsed().as_nanos() as u64 - (self.m.excluded_ns - excluded_before);
            self.m.counted_samples += self.m.round_samples;
            if traced {
                self.m.samples_traced += self.m.round_samples;
            }
            self.m.write_rounds.push(WriteRound {
                traced,
                group_ns,
                wall_ns,
            });
        }
        self.m.tracer.on = trace;
        let db = self.db.as_ref().expect("store is open");
        self.m.disk_bytes = db.disk_bytes();
        self.m.samples_stored = (self.last_tick + 1) * SERIES as u64;
        Ok(())
    }

    /// Reads beside the writes: 1 `history` + 2 `range` against the store
    /// as it stands, memtable included.
    fn interleaved_reads(&mut self, day: u64) -> Result<(), TsdbError> {
        let tiers = Tiers::of_store(self.spec.tiered(), day);
        let last_tick = self.last_tick;
        let qs = self.m.untimed(|_| {
            [
                self.qgen.history(&self.fleet, last_tick),
                self.qgen.range(&self.fleet, last_tick),
                self.qgen.range(&self.fleet, last_tick),
            ]
        });
        for q in &qs {
            self.query(q, tiers, last_tick)?;
        }
        Ok(())
    }

    /// Run one query as one request, record its latency, and — every
    /// `CHECK_EVERY`-th request, after the clock has stopped — compare
    /// the answer with the generator's.
    fn query(&mut self, q: &Query, tiers: Tiers, last_tick: u64) -> Result<u64, TsdbError> {
        let db = self.db.as_ref().expect("store is open");
        let (res, ns) = execute(db, q, &mut self.m.tracer);
        let answer = black_box(res?);
        self.m.attempted += 1;
        self.m.class_ms[q.class].push(ms(ns));
        self.requests += 1;
        if self.requests.is_multiple_of(CHECK_EVERY) {
            let fleet = &self.fleet;
            let tiered = self.spec.tiered();
            self.m.untimed(|m| {
                if let Err(why) = verify(fleet, q, &answer, tiers, last_tick, tiered) {
                    m.fail(format!(
                        "{} query {}: {why}",
                        CLASSES[q.class], self.requests
                    ));
                }
            });
        }
        self.m.untimed(|_| drop(answer));
        Ok(ns)
    }

    /// Append the tail the later phases read through the memtable: the
    /// workload's synced ticks, then one tick that is never synced. The
    /// tail is state, not a measurement. Returns the WAL length a power
    /// cut right after the last `sync` would have left.
    fn append_tail(&mut self) -> Result<u64, TsdbError> {
        self.m.tracer.on = false;
        let first = self.last_tick.wrapping_add(1);
        let mut batches = TickBatches::new();
        let db = self.db.as_mut().expect("store is open");
        let mut synced_len = db.stats().wal_bytes;
        for tick in first..=first + self.spec.tail_ticks {
            fill_tick(&self.fleet, tick, &mut batches);
            append_hosts(db, &self.fleet, 0..HOSTS, |s| &batches[s]).map_err(io_err)?;
            if tick < first + self.spec.tail_ticks {
                db.sync().map_err(io_err)?;
                synced_len = db.stats().wal_bytes;
                self.last_tick = tick;
            }
        }
        Ok(synced_len)
    }

    /// Copy the store, cut the copy's WAL back to `synced_len` — what a
    /// power cut would leave of it — reopen the copy and require every
    /// acked sample to be there, equal.
    fn durability_check(&mut self, synced_len: u64) -> Result<(), TsdbError> {
        let copy = self.scratch.join("crashed");
        let _ = fs::remove_dir_all(&copy);
        fs::create_dir_all(&copy)?;
        for e in fs::read_dir(&self.dir)? {
            let e = e?;
            fs::copy(e.path(), copy.join(e.file_name()))?;
        }
        let wal = fs::OpenOptions::new()
            .write(true)
            .open(copy.join("wal.log"))?;
        wal.set_len(synced_len)?;
        drop(wal);
        let crashed = api::open_store(&copy, self.spec.policy, &api::new_registry())?;
        let (tiers, last_tick) = (self.tiers, self.last_tick);
        for h in 0..HOSTS {
            self.m.attempted += 1;
            let q = Query::new(RANGE, Some(h), None, &self.fleet).window(0, u64::MAX);
            let got = (crashed.query(&q.sel, q.t0, q.t1)?, Vec::new());
            if let Err(why) = verify(&self.fleet, &q, &got, tiers, last_tick, false) {
                self.m.fail(format!("durability, host {h}: {why}"));
            }
        }
        if tiers.raw_from > T0 {
            // Below the raw watermark a sample lives on in the rollups:
            // every one must still be counted.
            self.m.attempted += 1;
            let q = Query::new(HISTORY, None, None, &self.fleet)
                .window(T0, tiers.raw_from - 1)
                .binned(DAY, Agg::Count);
            let got = crashed.downsample_tiered(&q.sel, q.t0, q.t1, q.bin_secs, q.agg)?;
            if let Err(why) = verify(&self.fleet, &q, &got, tiers, last_tick, true) {
                self.m.fail(format!("durability, rolled history: {why}"));
            }
        }
        Ok(())
    }

    /// Close the store and time one open of it as it stands: its segments
    /// plus the WAL tail to replay.
    fn reopen(&mut self) -> Result<u64, TsdbError> {
        self.db = None;
        let (dir, policy, obs) = (&self.dir, self.spec.policy, &self.obs);
        let (r, ns) = self.m.tracer.time("reopen", |tr| {
            tr.time("db.open", |_| api::open_store(dir, policy, obs)).0
        });
        self.db = Some(r?);
        self.m.attempted += 1;
        self.m.reopen_ms.push(ms(ns));
        Ok(ns)
    }

    /// The reopen phase. The read phase reopens once more after every
    /// replay, so that the repeats span as much of the run as they can.
    fn reopen_phase(&mut self, trace: bool) -> Result<u64, TsdbError> {
        self.m.tracer.on = trace;
        let mut total = 0;
        let began = Instant::now();
        while self.m.reopen_ms.len() < MIN_REOPENS || began.elapsed() < REOPEN_TIME {
            total += self.reopen()?;
        }
        // The tick that was never synced is back too: no crash happened.
        self.last_tick += 1;
        Ok(total)
    }

    /// Replay the workload's cycle list in rounds for `budget`, at least
    /// `MIN_READ_ROUNDS` times; every other round is traced when tracing.
    fn read_phase(&mut self, budget: Duration, trace: bool) -> Result<(), TsdbError> {
        let queries = std::mem::take(&mut self.queries);
        let (tiers, last_tick) = (self.tiers, self.last_tick);
        let before_warmup = self.obs.snapshot();
        self.m.tracer.on = false;
        let warm = queries.len().min(WARMUP_CYCLES * 16);
        let checked = self.m.attempted;
        for q in &queries[..warm] {
            self.query(q, tiers, last_tick)?;
        }
        // Warm-up is neither measured nor counted.
        self.m.attempted = checked;
        self.m.class_ms = Default::default();
        let after_warmup = self.obs.snapshot();
        let started = Instant::now();
        let mut round = 0;
        while round < MIN_READ_ROUNDS || started.elapsed() < budget {
            let traced = trace && round % 2 == 0;
            self.m.tracer.on = traced;
            self.m.class_ms.iter_mut().for_each(Rounds::begin);
            let excluded_before = self.m.excluded_ns;
            let t = Instant::now();
            let mut busy_ns = 0;
            for q in &queries {
                busy_ns += self.query(q, tiers, last_tick)?;
            }
            let wall_ns = t.elapsed().as_nanos() as u64 - (self.m.excluded_ns - excluded_before);
            self.m.read_rounds.push(ReadRound {
                traced,
                busy_ns,
                wall_ns,
            });
            self.m.tracer.on = trace;
            self.reopen()?;
            if round == 0 {
                let after_round = self.obs.snapshot();
                for (i, tier) in ["raw", "rollup_3600", "rollup_86400"].iter().enumerate() {
                    let name = api::obs_tier_hits(tier);
                    let at = |s: &Snapshot| s.counter(&name).unwrap_or(0);
                    self.m.tier_hits[i] = at(&before_warmup) + at(&after_round) - at(&after_warmup);
                }
            }
            round += 1;
        }
        self.m.tracer.on = trace;
        self.queries = queries;
        Ok(())
    }
}

type Answer = (Series, Vec<String>);

/// One query as one request: the request's span, and inside it the span
/// of the engine call that serves it.
fn execute(db: &Tsdb, q: &Query, tracer: &mut Tracer) -> (Result<Answer, TsdbError>, u64) {
    tracer.time(CLASSES[q.class], |tr| {
        if q.bin_secs == 0 {
            tr.time("db.query", |_| db.query(&q.sel, q.t0, q.t1))
                .0
                .map(|s| (s, Vec::new()))
        } else {
            tr.time("db.downsample_tiered", |_| {
                db.downsample_tiered(&q.sel, q.t0, q.t1, q.bin_secs, q.agg)
            })
            .0
        }
    })
}

/// Compare one answer with the generator's.
fn verify(
    fleet: &Fleet,
    q: &Query,
    got: &Answer,
    tiers: Tiers,
    last_tick: u64,
    check_tiers: bool,
) -> Result<(), String> {
    let (series, got_tiers) = got;
    let want: Vec<check::Expected>;
    let mut rolled = false;
    if q.bin_secs == 0 {
        want = q
            .hosts()
            .flat_map(|h| q.metrics().map(move |k| (h, k)))
            .map(|(h, k)| {
                (
                    (h, k),
                    check::query(fleet, tiers, last_tick, h, k, q.t0, q.t1),
                )
            })
            .filter(|(_, s)| !s.is_empty())
            .collect();
    } else {
        let d = check::downsample(
            fleet,
            tiers,
            last_tick,
            q.hosts(),
            q.metrics(),
            q.t0,
            q.t1,
            q.bin_secs,
            q.agg,
        );
        rolled = d.tiers.iter().any(|t| t != "raw");
        if check_tiers && *got_tiers != d.tiers {
            return Err(format!("served by {got_tiers:?}, expected {:?}", d.tiers));
        }
        want = d.series;
    }
    if series.len() != want.len() {
        return Err(format!("{} series, expected {}", series.len(), want.len()));
    }
    for ((key, got), ((h, k), want)) in series.iter().zip(&want) {
        if key.host != fleet.hosts[*h] || key.metric != fleet.metrics[*k] {
            return Err(format!("series {}/{} out of place", key.host, key.metric));
        }
        if got.len() != want.len() {
            return Err(format!(
                "{}/{}: {} values, expected {}",
                key.host,
                key.metric,
                got.len(),
                want.len()
            ));
        }
        for (g, w) in got.iter().zip(want) {
            if g.0 != w.0 || !check::same_value(g.1, w.1, q.agg, rolled) {
                return Err(format!(
                    "{}/{}: got {g:?}, expected {w:?}",
                    key.host, key.metric
                ));
            }
        }
    }
    Ok(())
}

/// Which filesystem holds `path`, from `/proc/mounts`; `unknown` where
/// that cannot be read.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split(' ');
            let (_, mount, fstype) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fstype)| fstype)
}

/// Run `spec` once. The store lives under `out`, inside the checkout,
/// and is removed again before returning.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Path,
) -> Result<Run, TsdbError> {
    fs::create_dir_all(out)?;
    let mut setup_s = Vec::new();
    let mut run = None;
    let began = Instant::now();
    while setup_s.len() < MIN_SETUP_REPS || began.elapsed() < SETUP_TIME {
        drop(run.take());
        let t = Instant::now();
        run = Some(Run::set_up(spec, seed, seconds, out)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut run = run.expect("set-up ran");
    run.m.setup_s = setup_s;
    run.m.store_fs = filesystem_of(&run.dir);

    let budget = Duration::from_secs(seconds);
    run.write_phase(spec.write_rounds(seconds), trace)?;
    run.m.after_write = Some(run.obs.snapshot());
    let synced_len = run.append_tail()?;
    run.durability_check(synced_len)?;
    let reopen_ns = run.reopen_phase(trace)?;
    let spent: u64 = run.m.write_rounds.iter().map(|r| r.wall_ns).sum::<u64>() + reopen_ns;
    run.read_phase(budget.saturating_sub(Duration::from_nanos(spent)), trace)?;
    Ok(run)
}

impl Run {
    /// Remove what the run left on disk, the trace aside.
    pub fn clean_up(&mut self) {
        self.db = None;
        let _ = fs::remove_dir_all(&self.dir);
        let _ = fs::remove_dir_all(&self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checker accepts what the engine answers on a small raw store —
    /// one sealed day and a few ticks still in the memtable — for every
    /// query class, and rejects an answer with one value changed.
    #[test]
    fn checker_accepts_the_engines_answers_and_rejects_a_changed_one() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/test-checker");
        let _ = fs::remove_dir_all(&dir);
        let fleet = Fleet::new(5);
        let mut db = api::open_store(&dir, "", &api::new_registry()).unwrap();
        preload_day(&mut db, &fleet, 0, false).unwrap();
        let last_tick = TICKS_PER_DAY + 5;
        let mut batches = TickBatches::new();
        for tick in TICKS_PER_DAY..=last_tick {
            fill_tick(&fleet, tick, &mut batches);
            append_hosts(&mut db, &fleet, 0..HOSTS, |s| &batches[s]).unwrap();
        }
        let spec = Spec::by_name("dash-read").unwrap();
        let queries = QueryGen::new(spec, 5).cycles(&fleet, last_tick, 2);
        assert_eq!(queries.len(), 32);
        let mut tracer = Tracer::default();
        let mut seen = [0; 5];
        for q in &queries {
            let mut got = execute(&db, q, &mut tracer).0.unwrap();
            verify(&fleet, q, &got, Tiers::untiered(), last_tick, true).unwrap();
            seen[q.class] += 1;
            if let Some(value) = got.0.last_mut().and_then(|(_, s)| s.last_mut()) {
                value.1 += 1.0;
                assert!(verify(&fleet, q, &got, Tiers::untiered(), last_tick, true).is_err());
            }
        }
        assert_eq!(seen, [16, 8, 4, 2, 2]);
        drop(db);
        fs::remove_dir_all(&dir).unwrap();
    }
}
