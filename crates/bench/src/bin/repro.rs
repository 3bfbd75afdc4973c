//! `repro` — regenerate every table and figure of the paper.
//!
//! Runs the full tool chain (simulate → collect → rationalize → ingest →
//! analyze → report) for both machines and prints, per paper artifact,
//! the regenerated dataset plus the shape checks. Usage:
//!
//! ```text
//! repro [--nodes N] [--days D] [--only <substring>] [--seed S] [--bench-json]
//!       [--store-dir DIR] [--fault-rate R] [--fault-seed S]
//! ```
//!
//! `--bench-json` additionally writes `BENCH_pipeline.json` with the
//! end-to-end pipeline timings (wall seconds, raw MB, MB/s, peak-RSS
//! proxy), `BENCH_query.json` with `/v1/series` served over a live
//! socket cold vs. from the response cache, `BENCH_ingest.json` with the
//! live remote-write numbers (relay batches/s, wire MB/s, and the
//! `/v1/write` apply-latency mean and p99 taken from the
//! `relay_server_write_micros` histogram), and `BENCH_metrics.json` with
//! the run's live `/v1/metrics` telemetry snapshot (the
//! self-observability counters and latency histograms the pipeline,
//! storage engine and query path recorded while producing the numbers
//! above). The storage engine itself — ingest, bytes on disk, reads,
//! retention — is measured by `benchmark/` (see its README), which
//! checks every answer and bounds every end-to-end metric.
//!
//! `--store-dir DIR` flushes each machine's products through the `tsdb`
//! storage engine rooted at `DIR/<machine>` (series store + segment job
//! table) and reads them back, so every downstream figure is produced
//! from the on-disk store.
//!
//! `--fault-rate R` (0.0–1.0) injects seeded collector faults — lost and
//! truncated files, torn lines, duplicated ticks, clock skew — into the
//! raw archives before ingest, then prints the per-resource coverage
//! report showing how the lenient scanner quarantined the damage.
//!
//! Defaults: 48 nodes × 30 days Ranger, 36 nodes × 30 days Lonestar4 —
//! enough for every shape while staying laptop-sized. The paper's full
//! scale (3936 nodes × 20 months) changes volumes, not shapes; see
//! DESIGN.md.

use supremm_clustersim::{ClusterConfig, FaultPlan};
use supremm_core::experiments::{self, ExperimentResult};
use supremm_core::pipeline::{run_pipeline, MachineDataset, PipelineOptions};

struct Args {
    nodes: u32,
    days: u64,
    only: Option<String>,
    seed: Option<u64>,
    bench_json: bool,
    store_dir: Option<std::path::PathBuf>,
    fault_rate: f64,
    fault_seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 48,
        days: 30,
        only: None,
        seed: None,
        bench_json: false,
        store_dir: None,
        fault_rate: 0.0,
        fault_seed: 0x5eed,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => {
                args.nodes = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--nodes needs an integer");
                    std::process::exit(2);
                })
            }
            "--days" => {
                args.days = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--days needs an integer");
                    std::process::exit(2);
                })
            }
            "--only" => args.only = it.next(),
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()),
            "--bench-json" => args.bench_json = true,
            "--store-dir" => {
                args.store_dir = it.next().map(std::path::PathBuf::from);
                if args.store_dir.is_none() {
                    eprintln!("--store-dir needs a directory");
                    std::process::exit(2);
                }
            }
            "--fault-rate" => {
                args.fault_rate = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--fault-rate needs a number in 0.0..=1.0");
                    std::process::exit(2);
                })
            }
            "--fault-seed" => {
                args.fault_seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--fault-seed needs an integer");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--nodes N] [--days D] [--only <substring>] [--seed S] \
                     [--bench-json] [--store-dir DIR] [--fault-rate R] [--fault-seed S]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One pipeline run's timing, for `--bench-json`.
struct BenchTiming {
    label: String,
    nodes: u32,
    days: u64,
    jobs: usize,
    wall_secs: f64,
    raw_mb: f64,
}

fn build(
    cfg: ClusterConfig,
    label: &str,
    fault_plan: Option<FaultPlan>,
    store_dir: Option<std::path::PathBuf>,
) -> (MachineDataset, BenchTiming) {
    eprintln!("[repro] simulating {label}: {} nodes x {} days ...", cfg.node_count, cfg.sim_days);
    let (nodes, days) = (cfg.node_count, cfg.sim_days);
    let t0 = std::time::Instant::now();
    let ds = run_pipeline(
        cfg,
        &PipelineOptions { keep_archive: true, fault_plan, store_dir, ..Default::default() },
    );
    let wall_secs = t0.elapsed().as_secs_f64();
    let raw_mb = ds.raw_total_bytes as f64 / (1024.0 * 1024.0);
    eprintln!(
        "[repro] {label}: {} jobs ingested, {:.1} MB raw, {:.1}s",
        ds.table.len(),
        raw_mb,
        wall_secs
    );
    let timing = BenchTiming {
        label: label.to_string(),
        nodes,
        days,
        jobs: ds.table.len(),
        wall_secs,
        raw_mb,
    };
    (ds, timing)
}

/// Peak resident set (VmHWM) in MB — a Linux-only RSS proxy; `None`
/// where /proc is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn write_bench_json(timings: &[BenchTiming]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut s = String::from("{\n  \"pipelines\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let mb_per_s = if t.wall_secs > 0.0 { t.raw_mb / t.wall_secs } else { 0.0 };
        let _ = write!(
            s,
            "    {{\"label\": \"{}\", \"nodes\": {}, \"days\": {}, \"jobs\": {}, \
             \"wall_secs\": {:.3}, \"raw_mb\": {:.3}, \"raw_mb_per_s\": {:.3}}}",
            t.label, t.nodes, t.days, t.jobs, t.wall_secs, t.raw_mb, mb_per_s
        );
        s.push_str(if i + 1 < timings.len() { ",\n" } else { "\n" });
    }
    let _ = match peak_rss_mb() {
        Some(rss) => writeln!(s, "  ],\n  \"peak_rss_mb\": {rss:.1}\n}}"),
        None => writeln!(s, "  ],\n  \"peak_rss_mb\": null\n}}"),
    };
    std::fs::write("BENCH_pipeline.json", s)
}

/// One keep-alive HTTP request; returns the body length.
fn http_fetch(stream: &mut std::net::TcpStream, target: &str) -> std::io::Result<usize> {
    use std::io::Write;
    // One write_all per request: interleaved small writes with Nagle on
    // stall each exchange on the peer's delayed ACK.
    let req = format!("GET {target} HTTP/1.1\r\nHost: repro\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    stream.flush()?;
    let (_status, _head, body) = supremm_relay::agent::read_http_response(stream)?;
    Ok(body.len())
}

/// Serve-path benchmark: a synthetic 64-host x 8-metric fortnight store
/// (segment-resident) behind `/v1/series` over a live socket, cold vs.
/// answered from the response cache.
fn write_query_bench(root: &std::path::Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    use supremm_warehouse::tsdb::{DbOptions, Tsdb};

    const HOSTS: usize = 64;
    const METRICS: [&str; 8] =
        ["cpu_user", "cpu_system", "cpu_idle", "mem_used", "net_rx", "net_tx", "ib_rx", "flops"];
    const SAMPLES_PER_SERIES: u64 = 2016; // 14 days at 600 s cadence
    const STEP_SECS: u64 = 600;
    const SPAN_SECS: u64 = SAMPLES_PER_SERIES * STEP_SECS;

    let io_err = |e: supremm_warehouse::tsdb::TsdbError| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    };
    let dir = root.join("querybench");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let mut db = Tsdb::open_with(
        &dir,
        DbOptions { chunk_samples: 128, block_chunks: 64, ..Default::default() },
    )
    .map_err(io_err)?;
    for h in 0..HOSTS {
        let host = format!("c{h:03}");
        for (m, metric) in METRICS.iter().enumerate() {
            let base = (h * 31 + m * 7) as f64;
            let samples: Vec<(u64, f64)> = (0..SAMPLES_PER_SERIES)
                .map(|i| (i * STEP_SECS, base + (i as f64 * 0.01).sin()))
                .collect();
            db.append_batch(&host, metric, &samples)?;
        }
    }
    db.flush().map_err(io_err)?;
    let total_samples = HOSTS as u64 * METRICS.len() as u64 * SAMPLES_PER_SERIES;
    eprintln!(
        "[repro] query bench store: {total_samples} samples across {} series",
        HOSTS * METRICS.len()
    );

    // Serve layer: real sockets against the pooled keep-alive server.
    // Distinct `t1` values force response-cache misses; the repeated
    // request is answered from the cache. Request counts stay below the
    // per-connection rotation cap so one connection serves them all.
    let table = supremm_warehouse::JobTable::new(Vec::new());
    let lock = std::sync::RwLock::new(db);
    let shutdown = std::sync::atomic::AtomicBool::new(false);
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let opts = supremm_xdmod::serve::ServeOptions::default();
    let served: std::io::Result<(f64, f64)> = std::thread::scope(|s| {
        s.spawn(|| {
            let _ = supremm_xdmod::serve::serve(&table, Some(&lock), listener, &shutdown, &opts);
        });
        let run = || -> std::io::Result<(f64, f64)> {
            let mut stream = std::net::TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let cold_target = |n: u64| {
                format!(
                    "/v1/series?host=c042&metric=cpu_user&t1={}&bin=86400&agg=max",
                    SPAN_SECS + n
                )
            };
            http_fetch(&mut stream, &cold_target(0))?; // warm the connection
            let t0 = std::time::Instant::now();
            for n in 1..=32u64 {
                http_fetch(&mut stream, &cold_target(n))?;
            }
            let cold = t0.elapsed().as_secs_f64() / 32.0;
            let warm_target = "/v1/series?host=c042&metric=cpu_user&bin=86400&agg=max";
            http_fetch(&mut stream, warm_target)?; // populate the cache
            let t1 = std::time::Instant::now();
            for _ in 0..128 {
                http_fetch(&mut stream, warm_target)?;
            }
            Ok((cold, t1.elapsed().as_secs_f64() / 128.0))
        };
        let r = run();
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        r
    });
    let (serve_cold, serve_cached) = served?;

    eprintln!("[repro] query bench: serve cached {:.1}x", serve_cold / serve_cached.max(1e-12),);

    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"store\": {{\"hosts\": {HOSTS}, \"metrics\": {}, \
         \"samples_per_series\": {SAMPLES_PER_SERIES}, \"total_samples\": {total_samples}}},",
        METRICS.len()
    );
    let _ = writeln!(
        s,
        "  \"serve\": {{\"cold_secs_per_request\": {serve_cold:.9}, \
         \"cached_secs_per_request\": {serve_cached:.9}, \"speedup\": {:.2}}}",
        serve_cold / serve_cached.max(1e-12)
    );
    s.push_str("}\n");
    std::fs::write("BENCH_query.json", s)
}

/// Dump the process-global obs registry — populated by every pipeline,
/// tsdb and query-path stage this run executed — through the same code
/// path `/v1/metrics?format=json` uses, so CI archives a live telemetry
/// snapshot next to the bench numbers.
fn write_metrics_snapshot() -> std::io::Result<()> {
    let table = supremm_warehouse::JobTable::default();
    let resp = supremm_xdmod::serve::handle(
        &table,
        None,
        &supremm_obs::global(),
        "GET /v1/metrics?format=json HTTP/1.1",
    );
    if resp.status != 200 {
        return Err(std::io::Error::other(format!("metrics endpoint: {}", resp.body)));
    }
    std::fs::write("BENCH_metrics.json", resp.body)
}

/// Live-ingest throughput: pre-encoded relay wire frames submitted by
/// four concurrent "agents" straight into an `IngestCore` over a fresh
/// store, timed end to end including the final drain (so every acked
/// batch is durable when the clock stops). Latency percentiles come
/// from the same `relay_server_write_micros` histogram `/v1/metrics`
/// exports, read from a registry private to this bench.
fn write_ingest_bench(root: &std::path::Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    use supremm_relay::wire::{encode_batch, Batch, BatchRecord};
    use supremm_relay::{IngestCore, IngestOptions};

    const AGENTS: usize = 4;
    const BATCHES_PER_AGENT: u64 = 192;
    const RECORDS_PER_BATCH: usize = 8;
    const SAMPLES_PER_RECORD: usize = 128;

    let io_err = |e: supremm_warehouse::tsdb::TsdbError| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    };
    let dir = root.join("ingest-bench");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // Pre-encode every frame so the timed section measures the server
    // path (decode, dedup, apply, group fsync), not the encoder.
    let mut wire_bytes = 0u64;
    let frames: Vec<Vec<Vec<u8>>> = (0..AGENTS)
        .map(|a| {
            (0..BATCHES_PER_AGENT)
                .map(|seq| {
                    let records = (0..RECORDS_PER_BATCH)
                        .map(|r| BatchRecord {
                            host: format!("bench-node{:03}", a * RECORDS_PER_BATCH + r),
                            metric: format!("cpu_user_{r}"),
                            samples: (0..SAMPLES_PER_RECORD as u64)
                                .map(|i| {
                                    let ts = seq * SAMPLES_PER_RECORD as u64 + i;
                                    (ts * 10, (ts as f64).sin().to_bits())
                                })
                                .collect(),
                        })
                        .collect();
                    encode_batch(&Batch {
                        agent_id: format!("bench-agent-{a}"),
                        batch_seq: seq,
                        records,
                    })
                    .expect("bench batch encodes")
                })
                .inspect(|f| wire_bytes += f.len() as u64)
                .collect()
        })
        .collect();

    let obs: supremm_obs::ObsHandle = std::sync::Arc::new(supremm_obs::ObsRegistry::new());
    let store = std::sync::Arc::new(std::sync::RwLock::new(
        supremm_tsdb::Tsdb::open(&dir).map_err(io_err)?,
    ));
    let core =
        IngestCore::start(store, IngestOptions { obs: obs.clone(), ..IngestOptions::default() });

    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for agent_frames in &frames {
            let core = core.clone();
            s.spawn(move || {
                for frame in agent_frames {
                    // Submit blocks until the batch is applied and
                    // synced; Busy comes only from a draining or failed
                    // store, so every outcome must be an ack.
                    match core.submit(frame) {
                        supremm_relay::WriteOutcome::Acked { .. } => {}
                        other => panic!("bench submit rejected: {other:?}"),
                    }
                }
            });
        }
    });
    core.begin_drain();
    core.drain();
    let elapsed = t0.elapsed().as_secs_f64();

    let batches = (AGENTS as u64 * BATCHES_PER_AGENT) as f64;
    let samples = batches as u64 * (RECORDS_PER_BATCH * SAMPLES_PER_RECORD) as u64;
    let mb = wire_bytes as f64 / (1024.0 * 1024.0);
    let snap = obs.snapshot();
    let hist = snap
        .histograms
        .iter()
        .find(|(name, _)| name == "relay_server_write_micros")
        .map(|(_, h)| h.clone())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "relay_server_write_micros missing")
        })?;
    let percentile = |q: f64| -> u64 {
        let target = ((hist.count as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, n) in hist.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return supremm_obs::BUCKET_BOUNDS[i];
            }
        }
        supremm_obs::BUCKET_BOUNDS[supremm_obs::BUCKET_BOUNDS.len() - 1]
    };
    let (p50, p99) = (percentile(0.50), percentile(0.99));
    let mean = hist.sum as f64 / (hist.count.max(1)) as f64;

    eprintln!(
        "[repro] ingest bench: {:.0} batches/s, {:.1} MB/s wire, write latency \
         mean {mean:.0}us p50<={p50}us p99<={p99}us",
        batches / elapsed.max(1e-12),
        mb / elapsed.max(1e-12),
    );

    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"workload\": {{\"agents\": {AGENTS}, \"batches\": {batches}, \
         \"records_per_batch\": {RECORDS_PER_BATCH}, \
         \"samples_per_record\": {SAMPLES_PER_RECORD}, \"samples\": {samples}, \
         \"wire_bytes\": {wire_bytes}}},"
    );
    let _ = writeln!(
        s,
        "  \"throughput\": {{\"elapsed_secs\": {elapsed:.6}, \
         \"batches_per_sec\": {:.2}, \"mb_per_sec\": {:.3}, \
         \"samples_per_sec\": {:.0}}},",
        batches / elapsed.max(1e-12),
        mb / elapsed.max(1e-12),
        samples as f64 / elapsed.max(1e-12),
    );
    let _ = writeln!(
        s,
        "  \"write_latency_micros\": {{\"count\": {}, \"mean\": {mean:.2}, \
         \"p50_le\": {p50}, \"p99_le\": {p99}}}",
        hist.count
    );
    s.push_str("}\n");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write("BENCH_ingest.json", s)
}

fn main() {
    let args = parse_args();
    let mut ranger_cfg = ClusterConfig::ranger().scaled(args.nodes, args.days);
    let mut ls4_cfg = ClusterConfig::lonestar4().scaled((args.nodes * 3 / 4).max(8), args.days);
    if let Some(seed) = args.seed {
        ranger_cfg = ranger_cfg.with_seed(seed);
        ls4_cfg = ls4_cfg.with_seed(seed.wrapping_add(0x4c6f_6e65));
    }
    let fault_plan =
        (args.fault_rate > 0.0).then(|| FaultPlan::with_rate(args.fault_seed, args.fault_rate));
    let store_of = |label: &str| args.store_dir.as_ref().map(|d| d.join(label));
    let (ranger, ranger_timing) = build(ranger_cfg, "ranger", fault_plan, store_of("ranger"));
    let (ls4, ls4_timing) = build(ls4_cfg, "lonestar4", fault_plan, store_of("lonestar4"));
    if fault_plan.is_some() {
        for ds in [&ranger, &ls4] {
            let label = &ds.cfg.name;
            let log = &ds.faults_injected;
            eprintln!(
                "[repro] {label}: injected {} fault events ({} files lost, {} truncated, \
                 {} lines torn, {} ticks duplicated, {} records skewed, {} dropped)",
                log.total_events(),
                log.files_lost,
                log.files_truncated,
                log.lines_torn,
                log.ticks_duplicated,
                log.records_skewed,
                log.records_dropped,
            );
            let report = supremm_xdmod::reports::coverage_report(
                label,
                &ds.table,
                &ds.series,
                &ds.ingest_stats,
                ds.cfg.node_count,
            );
            print!("{}", report.to_table());
            println!();
        }
    }
    if args.bench_json {
        match write_bench_json(&[ranger_timing, ls4_timing]) {
            Ok(()) => eprintln!("[repro] wrote BENCH_pipeline.json"),
            Err(e) => eprintln!("[repro] could not write BENCH_pipeline.json: {e}"),
        }
        let bench_root =
            args.store_dir.clone().unwrap_or_else(|| std::env::temp_dir().join("repro-tsdb-bench"));
        match write_query_bench(&bench_root) {
            Ok(()) => eprintln!("[repro] wrote BENCH_query.json"),
            Err(e) => eprintln!("[repro] could not write BENCH_query.json: {e}"),
        }
        match write_ingest_bench(&bench_root) {
            Ok(()) => eprintln!("[repro] wrote BENCH_ingest.json"),
            Err(e) => eprintln!("[repro] could not write BENCH_ingest.json: {e}"),
        }
        match write_metrics_snapshot() {
            Ok(()) => eprintln!("[repro] wrote BENCH_metrics.json"),
            Err(e) => eprintln!("[repro] could not write BENCH_metrics.json: {e}"),
        }
    }

    let results: Vec<ExperimentResult> = vec![
        experiments::corr_metric_selection(&ranger),
        experiments::fig2_user_profiles(&ranger),
        experiments::fig3_md_apps(&ranger, &ls4),
        experiments::fig4_wasted_hours(&ranger, 0.90),
        experiments::fig4_wasted_hours(&ls4, 0.85),
        experiments::fig5_anomalous_profile(&ranger),
        experiments::fig5_anomalous_profile(&ls4),
        experiments::table1_persistence(&ranger),
        experiments::table1_persistence(&ls4),
        experiments::fig6_persistence_fit(&ranger, &ls4),
        experiments::fig7_system_reports(&ranger),
        experiments::fig8_active_nodes(&ranger),
        experiments::fig8_active_nodes(&ls4),
        experiments::fig9_10_flops(&ranger),
        experiments::fig11_12_memory(&ranger),
        experiments::fig11_12_memory(&ls4),
        experiments::volume_and_workload(&ranger, 549.0),
        experiments::volume_and_workload(&ls4, 446.0),
        experiments::ablation_attribution(&ranger),
        experiments::bouquet(&ranger, &ls4),
        experiments::failure_diagnosis(&ranger),
        experiments::trend_forecast(&ranger),
        experiments::ablation_scheduler(args.nodes.min(32), args.days.min(10)),
        experiments::failure_precursors(&ls4),
    ];

    let mut pass = 0usize;
    let mut fail = 0usize;
    for r in &results {
        if let Some(filter) = &args.only {
            if !r.id.to_lowercase().contains(&filter.to_lowercase()) {
                continue;
            }
        }
        print!("{}", r.render());
        println!();
        for c in &r.checks {
            if c.pass {
                pass += 1;
            } else {
                fail += 1;
            }
        }
    }
    println!("==== summary ====");
    println!("shape checks: {pass} passed, {fail} failed");
    if fail > 0 {
        std::process::exit(1);
    }
}
