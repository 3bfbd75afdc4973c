//! Live-ingest differential tests: a time-series store fed by relay
//! agents over real sockets must be **bit-identical** to one fed from
//! disk by the batch pipeline — fault-free, under a seeded chaos plan
//! that severs connections mid-flight, and across agent crashes that
//! tear the spool.
//!
//! Both paths reduce raw files through the same
//! `taccstats::derive::file_extended_series`, so equality here proves
//! the transport (framing, batching, spooling, retries, dedup,
//! admission control) adds and loses nothing.
//!
//! Sizing and fault rates scale by environment for the nightly soak:
//! `LIVE_INGEST_NODES`, `LIVE_INGEST_DAYS`, `LIVE_INGEST_SEED`,
//! `LIVE_INGEST_FAULT_BEFORE`, `LIVE_INGEST_FAULT_AFTER`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

use supremm_obs::{ObsHandle, ObsRegistry};
use supremm_relay::{Agent, AgentOptions, ChaosPlan, IngestCore, IngestOptions};
use supremm_suite::prelude::*;
use supremm_suite::taccstats::RawArchive;
use supremm_suite::warehouse::tsdb::{Selector, Tsdb};
use supremm_suite::warehouse::tsdbio::store_archive_series;
use supremm_suite::xdmod::serve::{serve, ServeOptions};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One simulated machine's raw archive, shared across tests.
fn archive() -> &'static RawArchive {
    static ARCHIVE: OnceLock<RawArchive> = OnceLock::new();
    ARCHIVE.get_or_init(|| {
        let nodes = env_u64("LIVE_INGEST_NODES", 4) as u32;
        let days = env_u64("LIVE_INGEST_DAYS", 1);
        run_pipeline(ClusterConfig::ranger().scaled(nodes, days), &PipelineOptions::default())
            .archive
    })
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("live-ingest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Full store contents as `(host, metric, [(ts, f64 bits)])`, sorted.
/// Comparing bits (not floats) makes the differential exact under NaN
/// payloads and signed zeros.
type Dump = Vec<(String, String, Vec<(u64, u64)>)>;

fn dump(db: &Tsdb) -> Dump {
    let mut out: Dump = db
        .query(&Selector::all(), 0, u64::MAX)
        .unwrap()
        .into_iter()
        .map(|(k, samples)| {
            let bits = samples.into_iter().map(|(ts, v)| (ts, v.to_bits())).collect();
            (k.host, k.metric, bits)
        })
        .collect();
    out.sort();
    out
}

/// The reference: the batch `core::pipeline` ingest path.
fn batch_dump(dir: &Path) -> Dump {
    let mut db = Tsdb::open(dir).unwrap();
    store_archive_series(&mut db, archive()).unwrap();
    dump(&db)
}

fn files_by_host() -> BTreeMap<String, Vec<String>> {
    let mut m: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (key, text) in archive().iter() {
        m.entry(key.host.hostname()).or_default().push(text.to_string());
    }
    m
}

struct LiveServer {
    addr: String,
    store: Arc<RwLock<Tsdb>>,
    obs: ObsHandle,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

/// Start a real `/v1/write` server on an ephemeral port.
fn start_server(dir: &Path, tune: impl FnOnce(&mut IngestOptions)) -> LiveServer {
    let obs: ObsHandle = Arc::new(ObsRegistry::new());
    let store = Arc::new(RwLock::new(Tsdb::open(dir).unwrap()));
    let mut iopts = IngestOptions { obs: obs.clone(), ..IngestOptions::default() };
    tune(&mut iopts);
    let core = IngestCore::start(store.clone(), iopts);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let opts = ServeOptions { obs: obs.clone(), ingest: Some(core), ..ServeOptions::default() };
    let server_store = store.clone();
    let thread = std::thread::spawn(move || {
        let table = JobTable::new(Vec::new());
        let _ = serve(&table, Some(&*server_store), listener, &flag, &opts);
    });
    LiveServer { addr, store, obs, shutdown, thread }
}

impl LiveServer {
    /// Graceful shutdown: the serve loop drains the ingest core (every
    /// acked batch applied + synced) before the thread exits.
    fn stop(self) -> (Arc<RwLock<Tsdb>>, ObsHandle) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.thread.join().unwrap();
        (self.store, self.obs)
    }
}

/// Agent knobs for tests: small batches (more seqs → more transport
/// traffic), tight backoff, generous retry budget for chaos runs.
fn agent_opts(obs: &ObsHandle) -> AgentOptions {
    AgentOptions {
        batch_max_samples: 512,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(50),
        max_attempts: 200,
        obs: obs.clone(),
        ..AgentOptions::default()
    }
}

/// One agent per host, streaming concurrently until everything is acked.
fn run_agents(addr: &str, spool_dir: &Path, obs: &ObsHandle) {
    std::fs::create_dir_all(spool_dir).unwrap();
    let by_host = files_by_host();
    std::thread::scope(|s| {
        for (host, files) in &by_host {
            s.spawn(move || {
                let mut agent = Agent::open(
                    &format!("agent-{host}"),
                    addr,
                    &spool_dir.join(format!("{host}.q")),
                    agent_opts(obs),
                )
                .unwrap();
                for f in files {
                    agent.offer_file(host, f).unwrap();
                }
                agent.drain().unwrap();
            });
        }
    });
}

/// Fetch `/v1/metrics` over the live socket.
fn fetch_metrics(addr: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /v1/metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    body
}

#[test]
fn live_streamed_store_is_bit_identical_to_batch_ingest() {
    let dir = tmp("clean");
    let expected = batch_dump(&dir.join("batch"));
    assert!(!expected.is_empty(), "reference ingest produced no series");

    let server = start_server(&dir.join("live"), |_| {});
    run_agents(&server.addr, &dir.join("spools"), &server.obs);

    // The live /v1/metrics endpoint exposes both sides of the relay.
    let metrics = fetch_metrics(&server.addr);
    assert!(metrics.contains("relay_server_batches_applied_total"), "{metrics}");
    assert!(metrics.contains("relay_agent_batches_acked_total"), "{metrics}");
    assert!(metrics.contains("relay_admission_queue_depth"), "{metrics}");
    assert!(metrics.contains("relay_server_write_micros_count"), "{metrics}");

    let (store, obs) = server.stop();
    let live = dump(&store.read().unwrap());
    assert_eq!(live, expected, "live-streamed store differs from batch ingest");

    let snap = obs.snapshot();
    let applied = snap.counter("relay_server_batches_applied_total").unwrap_or(0);
    let acked = snap.counter("relay_agent_batches_acked_total").unwrap_or(0);
    assert!(applied > 0 && acked >= applied, "applied={applied} acked={acked}");
    assert_eq!(snap.counter("serve_http_5xx_total").unwrap_or(0), 0);
}

#[test]
fn chaos_severed_connections_and_torn_spools_still_converge() {
    let dir = tmp("chaos");
    let expected = batch_dump(&dir.join("batch"));

    let plan = ChaosPlan {
        seed: env_u64("LIVE_INGEST_SEED", 0xfa),
        drop_before_apply: env_f64("LIVE_INGEST_FAULT_BEFORE", 0.2),
        drop_after_apply: env_f64("LIVE_INGEST_FAULT_AFTER", 0.2),
    };
    let server = start_server(&dir.join("live"), |o| {
        o.chaos = Some(plan);
        o.retry_after_ms = 1;
    });

    let by_host = files_by_host();
    let spools = dir.join("spools");
    std::fs::create_dir_all(&spools).unwrap();
    std::thread::scope(|s| {
        for (host, files) in &by_host {
            let addr = server.addr.clone();
            let obs = server.obs.clone();
            let spool = spools.join(format!("{host}.q"));
            s.spawn(move || {
                let id = format!("agent-{host}");
                // Incarnation 1: offer half the files, spool them
                // durably, pump a few sends (some batches get acked,
                // some don't), then "crash" without draining.
                let mut agent = Agent::open(&id, &addr, &spool, agent_opts(&obs)).unwrap();
                let half = files.len().div_ceil(2);
                for f in &files[..half] {
                    agent.offer_file(host, f).unwrap();
                }
                agent.flush().unwrap();
                for _ in 0..3 {
                    let _ = agent.tick();
                }
                drop(agent);
                // The crash happened mid-append: a partial frame sits at
                // the spool tail. (Frames are always fsynced before their
                // first send, so a torn frame is by construction one the
                // server never saw — its seq was never consumed.)
                {
                    let mut f = std::fs::OpenOptions::new().append(true).open(&spool).unwrap();
                    f.write_all(&supremm_relay::wire::MAGIC).unwrap();
                    f.write_all(&1000u32.to_le_bytes()).unwrap();
                    f.write_all(&[0xab; 10]).unwrap();
                }
                // Incarnation 2: recover the surviving prefix, then
                // re-offer *every* file — duplicates are bit-identical
                // samples, so re-application cannot change the store.
                let mut agent = Agent::open(&id, &addr, &spool, agent_opts(&obs)).unwrap();
                for f in files {
                    agent.offer_file(host, f).unwrap();
                }
                agent.drain().unwrap();
            });
        }
    });

    let (store, obs) = server.stop();
    let live = dump(&store.read().unwrap());
    assert_eq!(live, expected, "chaos run diverged from batch ingest");

    let snap = obs.snapshot();
    assert!(
        snap.counter("relay_server_chaos_conn_drops_total").unwrap_or(0) > 0,
        "chaos plan never fired — the run proved nothing"
    );
    assert!(
        snap.counter("relay_server_batches_deduped_total").unwrap_or(0) > 0,
        "no retry was deduped — the exactly-once path went unexercised"
    );
    assert_eq!(snap.counter("serve_http_5xx_total").unwrap_or(0), 0);
}

#[test]
fn backpressure_throttles_agents_without_losing_data() {
    let dir = tmp("pressure");
    let expected = batch_dump(&dir.join("batch"));

    // An admission queue of one: concurrent agents must collide with
    // 429s and back off, yet every sample still lands.
    let server = start_server(&dir.join("live"), |o| {
        o.queue_cap = 1;
        o.retry_after_ms = 1;
    });
    // Force the collision rather than hope the scheduler produces one:
    // with the store's write lock held the single writer stalls on its
    // first batch, the queue of one fills, and the next submit must be
    // refused. The gate opens on the first Busy.
    std::thread::scope(|s| {
        let gate = server.store.write().unwrap();
        s.spawn(|| run_agents(&server.addr, &dir.join("spools"), &server.obs));
        let busy = "relay_server_rejected_total{reason=\"busy\"}";
        while server.obs.snapshot().counter(busy).unwrap_or(0) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(gate);
    });

    let (store, obs) = server.stop();
    let live = dump(&store.read().unwrap());
    assert_eq!(live, expected, "backpressure dropped or duplicated data");

    let snap = obs.snapshot();
    assert!(
        snap.counter("relay_server_rejected_total{reason=\"busy\"}").unwrap_or(0) > 0,
        "queue_cap=1 with concurrent agents never answered Busy"
    );
    assert!(
        snap.counter("relay_agent_batches_retried_total").unwrap_or(0) > 0,
        "agents never backed off"
    );
    // The write path refuses with 429, never 5xx, and never drops an
    // acked batch (the differential above proves the latter).
    assert_eq!(snap.counter("serve_http_5xx_total").unwrap_or(0), 0);
}

#[test]
fn server_drain_preserves_every_acked_batch() {
    let dir = tmp("drain");
    let server = start_server(&dir.join("live"), |_| {});
    let obs = server.obs.clone();

    // Stream one host's files and remember what was acked; the shutdown
    // below must carry every one of those samples into the store.
    let by_host = files_by_host();
    let (host, files) = by_host.iter().next().unwrap();
    let spool = dir.join("spool.q");
    let mut agent = Agent::open("agent-drain", &server.addr, &spool, agent_opts(&obs)).unwrap();
    for f in files {
        agent.offer_file(host, f).unwrap();
    }
    agent.drain().unwrap();
    let acked_samples = obs.snapshot().counter("relay_agent_samples_acked_total").unwrap_or(0);
    assert!(acked_samples > 0);

    let (store, _) = server.stop();
    // Every acked sample survived the drain into the store.
    let total: u64 = dump(&store.read().unwrap()).iter().map(|(_, _, s)| s.len() as u64).sum();
    assert_eq!(total, acked_samples, "drain lost acked samples");
}
