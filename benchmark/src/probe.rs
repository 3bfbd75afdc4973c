//! Per-layer probes: each times one module's public functions, alone, on
//! bytes taken from the store the workload just built, and counts what a
//! query touches from the segments' own indexes. They stand in for
//! spans inside the engine until those exist.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::hint::black_box;
use std::time::Instant;

use crate::api::{self, BinAcc, ChunkStats, SegmentReader, SegmentWriter, TsdbError, Wal};
use crate::check::Tiers;
use crate::gen::{tick_ts, Fleet, CADENCE, METRICS, SERIES, TICKS_PER_DAY};
use crate::run::{segment_files, Query, Run, GROUP_HOSTS};
use crate::spec::CLASSES;
use crate::stat::median;

pub type Values = BTreeMap<String, f64>;

/// Median over `reps` of the time `f` takes, in ns.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// One chunk lifted out of the store: where it came from and what it holds.
struct Chunk {
    host: String,
    metric: String,
    counter: bool,
    encoded: Vec<u8>,
    samples: Vec<(u64, u64)>,
}

/// `codec`, `crc`, `stats` and `segment` on the store's newest raw segment.
fn segment_layers(run: &Run, out: &mut Values) -> Result<(), TsdbError> {
    let Some(path) = segment_files(&run.dir, "seg-").pop() else {
        return Ok(());
    };
    let reader = SegmentReader::open(&path)?;

    // Blocks: read + CRC.
    let mut payloads = Vec::new();
    let mut read_us = Vec::new();
    for entry in &reader.entries {
        let t = Instant::now();
        let payload = reader.read_block(entry)?;
        read_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        payloads.push(payload);
    }
    let block_bytes: usize = payloads.iter().map(Vec::len).sum();
    let kib: Vec<f64> = payloads.iter().map(|p| p.len() as f64 / 1024.0).collect();
    out.insert("segment.read_block_us_p50".into(), median(&read_us));
    out.insert("segment.block_kib_p50".into(), median(&kib));
    let crc_ns = time_ns(5, || {
        payloads.iter().for_each(|p| {
            black_box(api::crc32(p));
        })
    });
    out.insert(
        "crc.ns_per_kib".into(),
        crc_ns / (block_bytes as f64 / 1024.0),
    );
    let framed: u64 = reader.entries.iter().map(|e| 8 + u64::from(e.len)).sum();
    let index_bytes = reader.file_len() - 12 - framed;
    out.insert(
        "segment.index_bytes_share".into(),
        index_bytes as f64 / reader.file_len() as f64,
    );

    // Chunks: decode in place, then codec round trip and pre-aggregates.
    let index = reader.series_index().unwrap_or(&[]);
    let mut chunks = Vec::new();
    let t = Instant::now();
    for entry in index {
        for r in &entry.chunks {
            let samples = reader.decode_chunk_in_block(&payloads[r.block_ix as usize], r)?;
            chunks.push((entry, r, samples));
        }
    }
    let in_block_ns = t.elapsed().as_nanos() as f64;
    let chunks: Vec<Chunk> = chunks
        .into_iter()
        .map(|(entry, r, samples)| {
            let (from, to) = (r.offset as usize, (r.offset + r.len) as usize);
            Chunk {
                host: entry.host.clone(),
                metric: entry.metric.clone(),
                counter: entry.metric.ends_with("ctr"),
                encoded: payloads[r.block_ix as usize][from..to].to_vec(),
                samples,
            }
        })
        .collect();
    let n: usize = chunks.iter().map(|c| c.samples.len()).sum();
    let per_sample = |ns: f64| ns / n.max(1) as f64;
    out.insert(
        "segment.chunk_decode_ns_per_sample".into(),
        per_sample(in_block_ns),
    );
    let ns = time_ns(3, || {
        chunks
            .iter()
            .for_each(|c| drop(black_box(api::encode_chunk(&c.samples))))
    });
    out.insert("codec.encode_ns_per_sample".into(), per_sample(ns));
    let ns = time_ns(3, || {
        chunks
            .iter()
            .for_each(|c| drop(black_box(api::decode_chunk(&c.encoded))))
    });
    out.insert("codec.decode_ns_per_sample".into(), per_sample(ns));
    for (name, counter) in [("counter", true), ("gauge", false)] {
        let of_kind = || chunks.iter().filter(move |c| c.counter == counter);
        let bytes: usize = of_kind().map(|c| c.encoded.len()).sum();
        let samples: usize = of_kind().map(|c| c.samples.len()).sum();
        out.insert(
            format!("codec.bytes_per_sample.{name}"),
            bytes as f64 / samples.max(1) as f64,
        );
    }
    let mut stats: Vec<ChunkStats> = Vec::new();
    let ns = time_ns(3, || {
        stats = chunks
            .iter()
            .map(|c| ChunkStats::from_samples(&c.samples))
            .collect();
    });
    out.insert("stats.from_samples_ns_per_sample".into(), per_sample(ns));
    let ns = time_ns(3, || {
        for c in &chunks {
            let mut acc = BinAcc::new();
            c.samples
                .iter()
                .for_each(|&(_, bits)| acc.add(f64::from_bits(bits)));
            black_box(acc);
        }
    });
    out.insert("stats.bin_add_ns_per_sample".into(), per_sample(ns));
    let ns = time_ns(5, || {
        let mut acc = BinAcc::new();
        stats.iter().for_each(|s| acc.fold_chunk(black_box(s)));
        black_box(acc);
    });
    out.insert(
        "stats.fold_ns_per_chunk".into(),
        ns / stats.len().max(1) as f64,
    );

    // Seal the same chunks again, 64 to a block as the engine does.
    let sealed = run.scratch.join("probe-seal.tsdb");
    let mut seal_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let mut writer = SegmentWriter::new(api::KIND_SERIES);
        for block in chunks.chunks(64) {
            let parts: Vec<_> = block
                .iter()
                .map(|c| (c.host.as_str(), c.metric.as_str(), c.samples.as_slice()))
                .collect();
            writer.push_series_block(&parts);
        }
        writer.seal(&sealed)?;
        seal_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
    }
    out.insert("segment.seal_ms_p50".into(), median(&seal_ms));
    out.insert(
        "segment.seal_ns_per_sample".into(),
        per_sample(median(&seal_ms) * 1e6),
    );
    let mut open_us = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        black_box(SegmentReader::open(&sealed)?);
        open_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out.insert("segment.open_us_p50".into(), median(&open_us));
    Ok(())
}

/// `wal`: append, sync and replay of logs shaped like the two ingest paths.
fn wal_layer(run: &Run, out: &mut Values) -> Result<(), TsdbError> {
    let fleet = &run.fleet;
    for (label, batch, records) in [("b1", 1u64, 16 * SERIES), ("b144", TICKS_PER_DAY, SERIES)] {
        let path = run.scratch.join(format!("probe-{label}.wal"));
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open(&path)?.wal;
        let header = wal.len();
        let samples: Vec<(u64, u64)> = (0..batch)
            .map(|t| (tick_ts(t), fleet.value(0, 0, t).to_bits()))
            .collect();
        let t = Instant::now();
        for r in 0..records {
            let s = r % SERIES;
            wal.append_parts(
                &fleet.hosts[s / METRICS],
                &fleet.metrics[s % METRICS],
                &samples,
            )?;
        }
        let append_ns = t.elapsed().as_nanos() as f64;
        wal.sync()?;
        let n = (records as u64 * batch) as f64;
        out.insert(format!("wal.append_ns_per_sample.{label}"), append_ns / n);
        out.insert(
            format!("wal.bytes_per_sample.{label}"),
            (wal.len() - header) as f64 / n,
        );
        if batch == 1 {
            // One apply group's worth of records, then the sync it waits on.
            let mut sync_us = Vec::new();
            for _ in 0..31 {
                for s in 0..GROUP_HOSTS * METRICS {
                    wal.append_parts(
                        &fleet.hosts[s / METRICS],
                        &fleet.metrics[s % METRICS],
                        &samples,
                    )?;
                }
                let t = Instant::now();
                wal.sync()?;
                sync_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            out.insert("wal.sync_us_p50".into(), median(&sync_us));
            drop(wal);
            let t = Instant::now();
            let replayed = Wal::open(&path)?;
            let ns = t.elapsed().as_nanos() as f64;
            let n: usize = replayed.records.iter().map(|r| r.samples.len()).sum();
            out.insert("wal.replay_ns_per_sample".into(), ns / n.max(1) as f64);
        }
    }
    Ok(())
}

/// `retention` on the crash copy of the store, so the store itself stays
/// as the workload left it.
fn retention_layer(run: &Run, out: &mut Values) -> Result<(), TsdbError> {
    let copy = run.scratch.join("crashed");
    let mut db = api::open_store(&copy, run.spec.policy, &api::new_registry())?;
    let now = db.max_timestamp().unwrap_or(0);
    db.enforce_retention(now)?; // flushes the tail; nothing is due after it
    let mut noop_us = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        black_box(db.enforce_retention(now)?);
        noop_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out.insert("retention.noop_pass_us_p50".into(), median(&noop_us));
    let manifest = api::RetentionManifest::load(&copy)?.unwrap_or_default();
    let mut store_us = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        manifest.store(&run.scratch)?;
        store_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out.insert("retention.manifest_store_us_p50".into(), median(&store_us));
    let mut kib = Vec::new();
    for path in segment_files(&run.dir, "roll-") {
        let reader = SegmentReader::open(&path)?;
        kib.extend(reader.entries.iter().map(|e| f64::from(e.len) / 1024.0));
    }
    out.insert("retention.rollup_block_kib_p50".into(), median(&kib));
    Ok(())
}

/// `obs`: the cost of one observation, and of reading the registry the
/// workload reported into.
fn obs_layer(run: &Run, out: &mut Values) {
    const N: u64 = 1_000_000;
    let registry = api::new_registry();
    let hist = registry.histogram("probe_micros");
    let ns = time_ns(3, || {
        (0..N).for_each(|v| hist.observe(black_box(v & 0xFFF)))
    });
    out.insert("obs.observe_ns".into(), ns / N as f64);
    let counter = registry.counter("probe_total");
    let ns = time_ns(3, || (0..N).for_each(|_| black_box(&counter).inc()));
    out.insert("obs.counter_inc_ns".into(), ns / N as f64);
    let ns = time_ns(31, || drop(black_box(run.obs.snapshot())));
    out.insert("obs.snapshot_us".into(), ns / 1e3);
}

/// What one query touches, from the segment indexes alone.
#[derive(Default, Clone, Copy)]
struct Touched {
    raw_blocks: f64,
    rollup_blocks: f64,
    /// Samples in chunks the engine has to decode.
    decoded: f64,
    folded_chunks: f64,
    /// Samples folded one by one: decoded ones inside the window plus
    /// the memtable's.
    binned: f64,
    returned: f64,
}

struct Plan<'a> {
    raw: Vec<SegmentReader>,
    /// `(bin_secs, reader)` of every rollup segment.
    rollups: Vec<(u64, SegmentReader)>,
    tiers: Tiers,
    /// First tick still in the memtable.
    mem_from: u64,
    last_tick: u64,
    fleet: &'a Fleet,
}

impl Plan<'_> {
    /// Model of the engine's read planner. `query` reads a block once per
    /// segment and decodes every overlapping chunk of a matching series;
    /// `downsample_tiered` goes series by series, folds a chunk from its
    /// pre-aggregates when one query bin covers it whole, and else reads
    /// the chunk's block — once per series and segment — and decodes it.
    fn touched(&self, q: &Query) -> Touched {
        let mut t = Touched::default();
        let raw_t0 = q.t0.max(self.tiers.raw_from);
        for reader in self.raw.iter().filter(|_| raw_t0 <= q.t1) {
            let mut blocks = BTreeSet::new();
            for entry in reader.series_index().unwrap_or(&[]) {
                let host_ok = q.sel.host.as_deref().is_none_or(|h| h == entry.host);
                let metric_ok = q.sel.metric.as_deref().is_none_or(|m| m == entry.metric);
                if !host_ok || !metric_ok {
                    continue;
                }
                if q.bin_secs > 0 {
                    t.raw_blocks += blocks.len() as f64;
                    blocks.clear();
                }
                for r in entry
                    .chunks
                    .iter()
                    .filter(|r| r.max_ts >= raw_t0 && r.min_ts <= q.t1)
                {
                    let inside = r.min_ts >= raw_t0 && r.max_ts <= q.t1;
                    if q.bin_secs > 0 && inside && r.min_ts / q.bin_secs == r.max_ts / q.bin_secs {
                        t.folded_chunks += 1.0;
                        continue;
                    }
                    blocks.insert(r.block_ix);
                    t.decoded += r.stats.count as f64;
                    if q.bin_secs > 0 {
                        let lo = r.min_ts.max(raw_t0);
                        let hi = r.max_ts.min(q.t1);
                        t.binned += ((hi - lo) / CADENCE + 1) as f64;
                    }
                }
            }
            t.raw_blocks += blocks.len() as f64;
        }
        if raw_t0 > q.t0 {
            for (bin, reader) in &self.rollups {
                let (lo, hi) = match *bin {
                    3600 => (self.tiers.hourly_from, self.tiers.raw_from),
                    _ => (0, self.tiers.hourly_from),
                };
                if lo >= hi || hi <= q.t0 || lo > q.t1 {
                    continue;
                }
                let overlapping = reader
                    .entries
                    .iter()
                    .filter(|e| e.max_ts >= q.t0.max(lo) && e.min_ts <= q.t1);
                t.rollup_blocks += overlapping.count() as f64;
            }
        }
        let series = (q.hosts().len() * q.metrics().len()) as f64;
        let first = tick_ts(self.mem_from).max(raw_t0);
        let last = tick_ts(self.last_tick).min(q.t1);
        if q.bin_secs > 0 && first <= last {
            t.binned += series * ((last - first) / CADENCE + 1) as f64;
        }
        if q.bin_secs == 0 {
            let h = q.host.unwrap_or(0);
            let k = q.metric.unwrap_or(0);
            let want =
                crate::check::query(self.fleet, self.tiers, self.last_tick, h, k, q.t0, q.t1);
            t.returned = want.len() as f64;
        }
        t
    }
}

/// Block reads, scan ratios and, per class, the share of the measured
/// latency the probed layers do not explain.
fn query_layers(run: &Run, out: &mut Values) -> Result<(), TsdbError> {
    let open_all = |prefix: &str| -> Result<Vec<SegmentReader>, TsdbError> {
        segment_files(&run.dir, prefix)
            .iter()
            .map(|p| SegmentReader::open(p))
            .collect()
    };
    let rollups: Vec<(u64, SegmentReader)> = open_all("roll-")?
        .into_iter()
        .map(|r| {
            let name = r
                .path()
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let bin = name
                .split('-')
                .nth(1)
                .and_then(|b| b.parse().ok())
                .unwrap_or(0);
            (bin, r)
        })
        .collect();
    let mut rollup_read_ns = Vec::new();
    for (_, reader) in &rollups {
        for entry in &reader.entries {
            let t = Instant::now();
            black_box(reader.read_block(entry)?);
            rollup_read_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    let flushed_days = (run.last_tick - run.spec.tail_ticks) / TICKS_PER_DAY;
    let plan = Plan {
        raw: open_all("seg-")?,
        rollups,
        tiers: run.tiers,
        mem_from: flushed_days * TICKS_PER_DAY,
        last_tick: run.last_tick,
        fleet: &run.fleet,
    };
    let cost = |name: &str| out.get(name).copied().unwrap_or(0.0);
    let read_block_ns = cost("segment.read_block_us_p50") * 1e3;
    let decode_ns = cost("segment.chunk_decode_ns_per_sample");
    let add_ns = cost("stats.bin_add_ns_per_sample");
    let fold_ns = cost("stats.fold_ns_per_chunk");
    let rollup_ns = median(&rollup_read_ns);
    for (class, name) in CLASSES.iter().enumerate() {
        let touched: Vec<Touched> = run
            .queries
            .iter()
            .filter(|q| q.class == class)
            .map(|q| plan.touched(q))
            .collect();
        let n = touched.len().max(1) as f64;
        let mean = |f: fn(&Touched) -> f64| touched.iter().map(f).sum::<f64>() / n;
        let blocks = mean(|t| t.raw_blocks + t.rollup_blocks);
        out.insert(format!("segment.blocks_read_per_query.{name}"), blocks);
        if class <= crate::run::RANGE {
            let returned = mean(|t| t.returned);
            let ratio = if returned > 0.0 {
                mean(|t| t.decoded) / returned
            } else {
                0.0
            };
            out.insert(format!("db.scanned_per_returned.{name}"), ratio);
        }
        let explained_ns = mean(|t| t.raw_blocks) * read_block_ns
            + mean(|t| t.rollup_blocks) * rollup_ns
            + mean(|t| t.decoded) * decode_ns
            + mean(|t| t.binned) * add_ns
            + mean(|t| t.folded_chunks) * fold_ns;
        let best = run.m.class_ms[class].best();
        let measured_ns = best.iter().sum::<f64>() / best.len().max(1) as f64 * 1e6;
        let residual = if measured_ns > 0.0 {
            1.0 - explained_ns / measured_ns
        } else {
            0.0
        };
        out.insert(format!("db.residual_share.{name}"), residual);
    }
    Ok(())
}

/// Run every probe on the store `run` built. Call after the timed phases.
pub fn all(run: &Run) -> Result<Values, TsdbError> {
    let mut out = Values::new();
    segment_layers(run, &mut out)?;
    wal_layer(run, &mut out)?;
    retention_layer(run, &mut out)?;
    obs_layer(run, &mut out);
    query_layers(run, &mut out)?;
    Ok(out)
}
