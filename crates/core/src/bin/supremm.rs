//! `supremm` — the tool chain as a command-line product.
//!
//! ```text
//! supremm simulate --machine ranger --nodes 24 --days 3 --out data/
//!     run the simulated machine and dump every artifact: raw TACC_Stats
//!     files (raw/<day>/<host>), accounting.log, lariat.jsonl,
//!     syslog.jsonl, the ingested warehouse (jobs.tsdb, segment format)
//!     and the compressed time-series store (store/series/)
//!
//! supremm ingest --data data/
//!     re-ingest raw/ + accounting.log + lariat.jsonl from a dump and
//!     rewrite jobs.tsdb (what a site cron job would do nightly)
//!
//! supremm report --data data/ --kind top-apps|top-users|efficiency|science
//!     run a canned XDMoD-style report over the job table
//!
//! supremm diagnose --data data/
//!     the ANCOR-style failure diagnosis over the job table + syslog.jsonl
//!
//! supremm serve --data data/ --addr 127.0.0.1:8080 [--slow-query-ms N]
//!               [--retention SPEC]
//!     serve the JSON query API (GET /healthz, /v1/summary, /v1/query,
//!     /v1/series from the time-series store when present, and
//!     /v1/metrics with the process's own telemetry); requests slower
//!     than the threshold land in the slow-query log. With --retention
//!     (e.g. `raw=7d,3600=90d,86400=forever`) the store opens under
//!     that policy and one rollup+expiry pass runs before serving.
//!
//! supremm ingestd --data data/ --addr 127.0.0.1:8080
//!                 [--max-batch-bytes N] [--retention SPEC]
//!     the query API plus the live remote-write path: POST /v1/write
//!     accepts relay wire frames from collector agents, acks each batch
//!     once it is applied and WAL-synced (413 over the body cap, 429 +
//!     Retry-After while draining) and is exactly-once via the
//!     per-agent dedup window. Send "drain\n" on stdin (or close it) for
//!     a graceful drain: stop accepting, seal the store, exit.
//!
//! supremm agent --data data/ --server 127.0.0.1:8080 [--id NAME]
//!               [--spool path]
//!     the per-host collector: reduce raw/ TACC_Stats files to interval
//!     series, batch, spool crash-safely, and push to an ingestd until
//!     everything is acked (exponential backoff + full jitter between
//!     failures)
//! ```

use std::path::{Path, PathBuf};

use supremm_clustersim::ClusterConfig;
use supremm_core::pipeline::{run_pipeline, PipelineOptions};
use supremm_ratlog::accounting::parse_file as parse_accounting;
use supremm_ratlog::lariat::parse_log as parse_lariat;
use supremm_ratlog::RatRecord;
use supremm_taccstats::RawArchive;
use supremm_warehouse::{ingest, JobTable, SystemSeries};
use supremm_xdmod::framework::{run as run_query, Dimension, Query, Statistic};
use supremm_xdmod::render::to_ascii_table;
use supremm_xdmod::report_builder::{build_report, ReportInputs, ReportSpec};
use supremm_xdmod::{diagnose, reports};

fn die(msg: &str) -> ! {
    eprintln!("supremm: {msg}");
    std::process::exit(2);
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn data_dir(args: &[String]) -> PathBuf {
    PathBuf::from(arg_value(args, "--data").unwrap_or_else(|| "data".to_string()))
}

/// Parse `--retention raw=7d,3600=90d,86400=forever` when present.
fn retention_from_args(args: &[String]) -> Option<supremm_tsdb::RetentionPolicy> {
    arg_value(args, "--retention").map(|spec| {
        supremm_tsdb::RetentionPolicy::parse(&spec)
            .unwrap_or_else(|e| die(&format!("--retention: {e}")))
    })
}

/// Open a series store under the given policy and, when one was asked
/// for, run a rollup+expiry pass immediately so a long-lived daemon
/// starts from an already-enforced store.
fn open_store_with_retention(
    store_dir: &Path,
    retention: Option<&supremm_tsdb::RetentionPolicy>,
) -> supremm_tsdb::Tsdb {
    let opts = supremm_tsdb::DbOptions {
        retention: retention.cloned().unwrap_or_default(),
        ..Default::default()
    };
    let mut db = supremm_tsdb::Tsdb::open_with(store_dir, opts)
        .unwrap_or_else(|e| die(&format!("{store_dir:?}: {e}")));
    if retention.is_some() {
        let report = supremm_warehouse::tsdbio::enforce_store_retention(&mut db)
            .unwrap_or_else(|e| die(&format!("retention pass: {e}")));
        eprintln!(
            "retention: wrote {} rollup segments ({} bins), dropped {} raw / {} rollup segments, raw watermark {}",
            report.rollup_segments_written,
            report.rollup_bins_written,
            report.raw_segments_dropped,
            report.rollup_segments_dropped,
            report.raw_watermark
        );
    }
    db
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("simulate") => simulate(&args[1..]),
        Some("ingest") => reingest(&args[1..]),
        Some("report") => report(&args[1..]),
        Some("diagnose") => diagnose_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("ingestd") => ingestd_cmd(&args[1..]),
        Some("agent") => agent_cmd(&args[1..]),
        Some("--help") | Some("-h") | None => {
            println!(
                "usage: supremm <simulate|ingest|report|diagnose|serve|ingestd|agent> [options]\n\
                 see `cargo doc` or the module docs of this binary for details"
            );
        }
        Some(other) => die(&format!("unknown subcommand {other:?}")),
    }
}

fn simulate(args: &[String]) {
    let machine = arg_value(args, "--machine").unwrap_or_else(|| "ranger".into());
    let nodes: u32 = arg_value(args, "--nodes")
        .map(|v| v.parse().unwrap_or_else(|_| die("--nodes needs an integer")))
        .unwrap_or(24);
    let days: u64 = arg_value(args, "--days")
        .map(|v| v.parse().unwrap_or_else(|_| die("--days needs an integer")))
        .unwrap_or(3);
    let out = PathBuf::from(arg_value(args, "--out").unwrap_or_else(|| "data".into()));

    let cfg = match machine.as_str() {
        "ranger" => ClusterConfig::ranger(),
        "lonestar4" => ClusterConfig::lonestar4(),
        "stampede" => ClusterConfig::stampede(),
        other => die(&format!("unknown machine {other:?} (ranger|lonestar4|stampede)")),
    }
    .scaled(nodes, days);

    eprintln!("simulating {machine}: {nodes} nodes x {days} days ...");
    std::fs::create_dir_all(&out).unwrap_or_else(|e| die(&format!("mkdir {out:?}: {e}")));
    let opts = PipelineOptions {
        store_dir: Some(out.join("store")),
        retention: retention_from_args(args),
        ..Default::default()
    };
    let ds = run_pipeline(cfg, &opts);

    ds.archive
        .write_to_dir(&out.join("raw"))
        .unwrap_or_else(|e| die(&format!("writing raw archive: {e}")));
    let accounting: String = ds.accounting.iter().map(|a| a.to_line() + "\n").collect();
    std::fs::write(out.join("accounting.log"), accounting).unwrap();
    let lariat: String = ds.lariat.iter().map(|l| l.to_json() + "\n").collect();
    std::fs::write(out.join("lariat.jsonl"), lariat).unwrap();
    let syslog: String = ds.syslog.iter().map(|r| r.to_json() + "\n").collect();
    std::fs::write(out.join("syslog.jsonl"), syslog).unwrap();
    ds.table.save(&out.join("jobs.tsdb")).unwrap();

    println!(
        "wrote {:?}: {} raw files ({:.1} MB), {} accounting records, {} jobs ingested",
        out,
        ds.archive.len(),
        ds.raw_total_bytes as f64 / (1024.0 * 1024.0),
        ds.accounting.len(),
        ds.table.len(),
    );
}

fn reingest(args: &[String]) {
    let dir = data_dir(args);
    let archive = RawArchive::read_from_dir(&dir.join("raw"))
        .unwrap_or_else(|e| die(&format!("reading raw archive: {e}")));
    let accounting = parse_accounting(
        &std::fs::read_to_string(dir.join("accounting.log"))
            .unwrap_or_else(|e| die(&format!("accounting.log: {e}"))),
    );
    let lariat = parse_lariat(
        &std::fs::read_to_string(dir.join("lariat.jsonl"))
            .unwrap_or_else(|e| die(&format!("lariat.jsonl: {e}"))),
    );
    let (records, stats) = ingest(&archive, &accounting, &lariat);
    let table = JobTable::new(records);
    table.save(&dir.join("jobs.tsdb")).unwrap();
    println!(
        "ingested {} jobs from {} files ({} intervals, {} parse errors)",
        table.len(),
        stats.files,
        stats.intervals,
        stats.parse_errors
    );
}

fn load_jobs(dir: &Path) -> JobTable {
    let path = dir.join("jobs.tsdb");
    JobTable::load(&path).unwrap_or_else(|e| {
        die(&format!("{path:?}: {e} (run `supremm simulate` or `ingest` first)"))
    })
}

fn report(args: &[String]) {
    let dir = data_dir(args);
    let kind = arg_value(args, "--kind").unwrap_or_else(|| "top-apps".into());
    let table = load_jobs(&dir);
    match kind.as_str() {
        "top-apps" => {
            let ds = run_query(
                &table,
                &Query {
                    dimension: Dimension::Application,
                    statistic: Statistic::NodeHours,
                    filters: vec![],
                },
            );
            print!("{}", to_ascii_table("node-hours by application", &ds, "node_hours"));
        }
        "top-users" => {
            let ds = run_query(
                &table,
                &Query {
                    dimension: Dimension::User,
                    statistic: Statistic::NodeHours,
                    filters: vec![],
                },
            );
            let mut top = ds;
            top.rows.truncate(10);
            print!("{}", to_ascii_table("top users by node-hours", &top, "node_hours"));
        }
        "efficiency" => {
            let w = reports::wasted_hours(&table);
            println!(
                "machine average efficiency: {:.1}% over {} users",
                w.average_efficiency * 100.0,
                w.points.len()
            );
            if let Some(worst) = w.worst_heavy_offender(0.5) {
                println!(
                    "worst heavy offender: {} ({:.0} node-hrs at {:.0}% idle)",
                    worst.key,
                    worst.usage.node_hours,
                    worst.usage.idle_frac() * 100.0
                );
            }
        }
        "science" => {
            let ds = run_query(
                &table,
                &Query {
                    dimension: Dimension::ScienceField,
                    statistic: Statistic::NodeHours,
                    filters: vec![],
                },
            );
            print!("{}", to_ascii_table("node-hours by parent science", &ds, "node_hours"));
        }
        "user" => {
            let user = arg_value(args, "--user")
                .and_then(|v| v.parse().ok())
                .map(supremm_metrics::UserId)
                .unwrap_or_else(|| die("--user <id> required for the user report"));
            match reports::user_report(&table, user) {
                Some(r) => print!("{}", r.render()),
                None => die(&format!("user {user} has no jobs in the warehouse")),
            }
        }
        "monthly" => {
            // The full center report needs the system series too.
            let archive = RawArchive::read_from_dir(&dir.join("raw"))
                .unwrap_or_else(|e| die(&format!("reading raw archive: {e}")));
            let series = SystemSeries::from_archive(&archive, 600);
            let nodes = archive.host_count() as u32;
            let md = build_report(
                &ReportSpec::center_monthly(),
                &ReportInputs {
                    table: &table,
                    series: &series,
                    node_count: nodes,
                    cores_per_node: 16,
                    window: format!("{} raw files", archive.len()),
                    machine: "simulated".into(),
                },
            );
            let out = dir.join("REPORT.md");
            std::fs::write(&out, &md).unwrap_or_else(|e| die(&format!("writing report: {e}")));
            println!("wrote {out:?} ({} bytes)", md.len());
        }
        other => die(&format!(
            "unknown report kind {other:?} (top-apps|top-users|efficiency|science|user|monthly)"
        )),
    }
}

fn serve_cmd(args: &[String]) {
    let dir = data_dir(args);
    let addr = arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".into());
    let table = load_jobs(&dir);
    // Attach the time-series store when the dump has one.
    let store_dir = dir.join("store").join("series");
    let retention = retention_from_args(args);
    let store = if store_dir.is_dir() {
        Some(std::sync::RwLock::new(open_store_with_retention(&store_dir, retention.as_ref())))
    } else {
        None
    };
    let listener =
        std::net::TcpListener::bind(&addr).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
    println!(
        "serving {} jobs{} on http://{addr} (ctrl-c to stop)",
        table.len(),
        if store.is_some() { " + time-series store" } else { "" }
    );
    let shutdown = std::sync::atomic::AtomicBool::new(false);
    let slow_query_micros = arg_value(args, "--slow-query-ms")
        .map(|v| {
            v.parse::<u64>()
                .unwrap_or_else(|_| die("--slow-query-ms needs an integer"))
                .saturating_mul(1000)
        })
        .unwrap_or(supremm_xdmod::serve::ServeOptions::default().slow_query_micros);
    let opts = supremm_xdmod::serve::ServeOptions {
        slow_query_micros,
        ..supremm_xdmod::serve::ServeOptions::default()
    };
    supremm_xdmod::serve::serve(&table, store.as_ref(), listener, &shutdown, &opts)
        .unwrap_or_else(|e| die(&format!("serve: {e}")));
}

/// The ingest daemon: the query API plus `POST /v1/write` into the
/// time-series store. Drains gracefully on stdin EOF or a "drain" line
/// — no acked batch is ever lost.
fn ingestd_cmd(args: &[String]) {
    let dir = data_dir(args);
    let addr = arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".into());
    let store_dir = dir.join("store").join("series");
    std::fs::create_dir_all(&store_dir)
        .unwrap_or_else(|e| die(&format!("mkdir {store_dir:?}: {e}")));
    let db = open_store_with_retention(&store_dir, retention_from_args(args).as_ref());
    let store = std::sync::Arc::new(std::sync::RwLock::new(db));
    // The job table is optional for a pure ingest node.
    let table =
        if dir.join("jobs.tsdb").exists() { load_jobs(&dir) } else { JobTable::new(Vec::new()) };
    let mut ingest_opts = supremm_relay::IngestOptions::default();
    if let Some(v) = arg_value(args, "--max-batch-bytes") {
        ingest_opts.max_batch_bytes =
            v.parse().unwrap_or_else(|_| die("--max-batch-bytes needs an integer"));
    }
    let core = supremm_relay::IngestCore::start(store.clone(), ingest_opts);
    let listener =
        std::net::TcpListener::bind(&addr).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
    println!("ingestd on http://{addr} (send \"drain\" on stdin or close it to stop)");
    let shutdown = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flag = shutdown.clone();
    std::thread::spawn(move || {
        // Stop on "drain"/"quit" or stdin EOF (e.g. the supervisor
        // closing the pipe).
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let cmd = line.trim();
                    if cmd == "drain" || cmd == "quit" {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let opts = supremm_xdmod::serve::ServeOptions {
        ingest: Some(core.clone()),
        ..supremm_xdmod::serve::ServeOptions::default()
    };
    // serve drains the core after the workers stop accepting: every
    // acked batch is applied + synced before this returns.
    supremm_xdmod::serve::serve(&table, Some(&*store), listener, &shutdown, &opts)
        .unwrap_or_else(|e| die(&format!("ingestd: {e}")));
    println!("ingestd drained: {} batches applied", core.applied());
}

/// The per-host collector: reduce raw files, batch, spool, push until
/// the server has acked everything.
fn agent_cmd(args: &[String]) {
    let dir = data_dir(args);
    let server = arg_value(args, "--server").unwrap_or_else(|| "127.0.0.1:8080".into());
    let id = arg_value(args, "--id").unwrap_or_else(|| format!("agent-{}", std::process::id()));
    let spool = arg_value(args, "--spool")
        .map(PathBuf::from)
        .unwrap_or_else(|| dir.join(format!("spool-{id}.q")));
    let archive = RawArchive::read_from_dir(&dir.join("raw"))
        .unwrap_or_else(|e| die(&format!("reading raw archive: {e}")));
    let mut agent =
        supremm_relay::Agent::open(&id, &server, &spool, supremm_relay::AgentOptions::default())
            .unwrap_or_else(|e| die(&format!("opening agent spool {spool:?}: {e}")));
    if !agent.recovered_seqs().is_empty() {
        eprintln!(
            "{id}: resending {} spooled batches from a previous run",
            agent.recovered_seqs().len()
        );
    }
    let mut files = 0usize;
    for (key, text) in archive.iter() {
        agent
            .offer_file(&key.host.hostname(), text)
            .unwrap_or_else(|e| die(&format!("offering raw file: {e}")));
        files += 1;
    }
    agent.drain().unwrap_or_else(|e| die(&format!("drain: {e}")));
    println!("{id}: {files} files pushed to {server}, max acked seq {:?}", agent.max_acked());
}

fn diagnose_cmd(args: &[String]) {
    let dir = data_dir(args);
    let table = load_jobs(&dir);
    let syslog: Vec<RatRecord> = std::fs::read_to_string(dir.join("syslog.jsonl"))
        .unwrap_or_else(|e| die(&format!("syslog.jsonl: {e}")))
        .lines()
        .filter_map(RatRecord::from_json)
        .collect();
    // Capacity inferred from the larger preset if unknown; good enough
    // for the corroboration heuristic.
    let capacity = 32.0 * 1.073_741_824e9;
    let diagnoses = diagnose::diagnose_failures(&table, &syslog, capacity);
    println!("{} abnormal terminations", diagnoses.len());
    for (cause, n) in diagnose::failure_profile(&diagnoses) {
        println!("  {:<20} {n}", cause.name());
    }
    for d in diagnoses.iter().take(10) {
        println!("  job {} ({}): {} — {}", d.job, d.exit.name(), d.cause.name(), d.note);
    }
    // Self-observability: surface slow queries recorded while this
    // process loaded the data.
    let report = diagnose::obs_report(&supremm_obs::global().snapshot());
    if !report.is_empty() {
        print!("{report}");
    }
}
