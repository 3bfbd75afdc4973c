//! Live-ingest differential tests: a time-series store fed by relay
//! agents over real sockets must be **bit-identical** to one fed from
//! disk by the batch pipeline — fault-free, through a seeded chaos proxy
//! that severs connections mid-flight, across agent crashes that tear
//! the spool, and across a rolling server restart.
//!
//! Both paths reduce raw files through the same
//! `taccstats::derive::file_extended_series`, so equality here proves
//! the transport (framing, batching, spooling, retries, dedup, drain)
//! adds and loses nothing.
//!
//! Sizing and fault rates scale by environment for the nightly soak:
//! `LIVE_INGEST_NODES`, `LIVE_INGEST_DAYS`, `LIVE_INGEST_SEED`,
//! `LIVE_INGEST_FAULT_BEFORE`, `LIVE_INGEST_FAULT_AFTER`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock, RwLock};
use std::time::Duration;

use supremm_metrics::rng::SplitMix64;
use supremm_obs::{ObsHandle, ObsRegistry};
use supremm_relay::agent::read_http_response;
use supremm_relay::{decode_batch, Agent, AgentOptions, IngestCore, IngestOptions, Spool};
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
    core: Arc<IngestCore>,
    obs: ObsHandle,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

/// Start a real `/v1/write` server on an ephemeral port.
fn start_server(dir: &Path, tune: impl FnOnce(&mut IngestOptions)) -> LiveServer {
    start_server_at("127.0.0.1:0", dir, Arc::new(ObsRegistry::new()), tune)
}

/// Start a real `/v1/write` server on `addr` over the store in `dir`,
/// reporting into `obs`.
fn start_server_at(
    addr: &str,
    dir: &Path,
    obs: ObsHandle,
    tune: impl FnOnce(&mut IngestOptions),
) -> LiveServer {
    let store = Arc::new(RwLock::new(Tsdb::open(dir).unwrap()));
    let mut iopts = IngestOptions { obs: obs.clone(), ..IngestOptions::default() };
    tune(&mut iopts);
    let core = IngestCore::start(store.clone(), iopts);
    let listener = TcpListener::bind(addr).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let opts =
        ServeOptions { obs: obs.clone(), ingest: Some(core.clone()), ..ServeOptions::default() };
    let server_store = store.clone();
    let thread = std::thread::spawn(move || {
        let table = JobTable::new(Vec::new());
        let _ = serve(&table, Some(&*server_store), listener, &flag, &opts);
    });
    LiveServer { addr, store, core, obs, shutdown, thread }
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
    assert!(metrics.contains("relay_server_samples_applied_total"), "{metrics}");
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

/// Read one HTTP request off `stream`: its bytes and where the body
/// starts. `None` once the client closes or idles out.
fn read_request(stream: &mut TcpStream) -> Option<(Vec<u8>, usize)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let body_at = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..body_at]).to_ascii_lowercase();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    while buf.len() < body_at + len {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    Some((buf, body_at))
}

/// Seeded transport faults for `(agent, seq, attempt)` triples:
/// `before` closes the agent's socket before the batch is forwarded (a
/// plain retry); `after` closes it once the server has answered, without
/// relaying the answer (the batch is applied and synced, so the retry
/// must be deduped, not re-applied). Keying on the attempt means a
/// doomed batch is not doomed forever: each retry draws fresh.
#[derive(Clone, Copy)]
struct FaultPlan {
    seed: u64,
    before: f64,
    after: f64,
}

impl FaultPlan {
    fn draw(&self, agent: &str, seq: u64, attempt: u64) -> (bool, bool) {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in agent.bytes() {
            h = h.rotate_left(9) ^ (b as u64);
        }
        h ^= seq.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= attempt.rotate_left(32);
        let mut rng = SplitMix64::new(h);
        let before = rng.uniform() < self.before;
        let after = rng.uniform() < self.after;
        (before, after)
    }
}

/// A TCP proxy between agents and a server that applies a [`FaultPlan`]
/// to every `/v1/write` it carries.
struct ChaosProxy {
    addr: String,
    /// Connections closed before forwarding, and after the answer.
    drops: Arc<[AtomicU64; 2]>,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

fn start_proxy(upstream: &str, plan: FaultPlan) -> ChaosProxy {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let drops = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let (flag, counts, upstream) = (shutdown.clone(), drops.clone(), upstream.to_string());
    let thread = std::thread::spawn(move || {
        let attempts = Mutex::new(BTreeMap::new());
        std::thread::scope(|s| {
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let (upstream, attempts, counts) = (&upstream, &attempts, &counts);
                        s.spawn(move || proxy_connection(client, upstream, plan, attempts, counts));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        });
    });
    ChaosProxy { addr, drops, shutdown, thread }
}

/// Carry one agent connection's requests to the server, one at a time,
/// dropping the ones the plan dooms.
fn proxy_connection(
    mut client: TcpStream,
    upstream: &str,
    plan: FaultPlan,
    attempts: &Mutex<BTreeMap<(String, u64), u64>>,
    drops: &[AtomicU64; 2],
) {
    client.set_nonblocking(false).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut server: Option<TcpStream> = None;
    while let Some((request, body_at)) = read_request(&mut client) {
        let (before, after) = match decode_batch(&request[body_at..]) {
            Ok(b) => {
                let mut attempts = attempts.lock().unwrap();
                let n = attempts.entry((b.agent_id.clone(), b.batch_seq)).or_insert(0);
                *n += 1;
                plan.draw(&b.agent_id, b.batch_seq, *n - 1)
            }
            Err(_) => (false, false),
        };
        if before {
            drops[0].fetch_add(1, Ordering::Relaxed);
            return;
        }
        let up = match &mut server {
            Some(up) => up,
            None => server.insert(TcpStream::connect(upstream).unwrap()),
        };
        if up.write_all(&request).is_err() {
            return;
        }
        let Ok((_, head, body)) = read_http_response(up) else { return };
        if after {
            drops[1].fetch_add(1, Ordering::Relaxed);
            return;
        }
        if client.write_all(format!("{head}\r\n\r\n{body}").as_bytes()).is_err() {
            return;
        }
        // The server closed its end after this answer: pass the close on.
        if head.to_ascii_lowercase().contains("connection: close") {
            return;
        }
    }
}

impl ChaosProxy {
    /// Stop accepting, wait for every carried connection to end, and
    /// return the drop counts (before forwarding, after the answer).
    fn stop(self) -> (u64, u64) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.thread.join().unwrap();
        (self.drops[0].load(Ordering::Relaxed), self.drops[1].load(Ordering::Relaxed))
    }
}

#[test]
fn chaos_severed_connections_and_torn_spools_still_converge() {
    let dir = tmp("chaos");
    let expected = batch_dump(&dir.join("batch"));

    let plan = FaultPlan {
        seed: env_u64("LIVE_INGEST_SEED", 0xfa),
        before: env_f64("LIVE_INGEST_FAULT_BEFORE", 0.2),
        after: env_f64("LIVE_INGEST_FAULT_AFTER", 0.2),
    };
    let server = start_server(&dir.join("live"), |o| o.retry_after_ms = 1);
    let proxy = start_proxy(&server.addr, plan);

    let by_host = files_by_host();
    let spools = dir.join("spools");
    std::fs::create_dir_all(&spools).unwrap();
    std::thread::scope(|s| {
        for (host, files) in &by_host {
            let addr = proxy.addr.clone();
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

    let (dropped_before, dropped_after) = proxy.stop();
    eprintln!("chaos proxy: {dropped_before} connections dropped before forwarding, {dropped_after} after the answer");
    let (store, obs) = server.stop();
    let live = dump(&store.read().unwrap());
    assert_eq!(live, expected, "chaos run diverged from batch ingest");

    assert!(dropped_before > 0, "the proxy never dropped a batch before forwarding it");
    assert!(dropped_after > 0, "the proxy never dropped an answer after the apply");
    let snap = obs.snapshot();
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
    let store_dir = dir.join("live");
    let spools = dir.join("spools");
    std::fs::create_dir_all(&spools).unwrap();

    // A rolling restart: every agent gets one batch acked by the first
    // server, is refused with 429s while it drains, and finishes against
    // a second server on the same address and store directory.
    let first = start_server(&store_dir, |o| o.retry_after_ms = 1);
    let (addr, obs) = (first.addr.clone(), first.obs.clone());
    let by_host = files_by_host();
    let step = Barrier::new(by_host.len() + 1);
    let second = std::thread::scope(|s| {
        for (host, files) in &by_host {
            let (addr, obs, step) = (&addr, &obs, &step);
            let spool = spools.join(format!("{host}.q"));
            s.spawn(move || {
                let mut agent =
                    Agent::open(&format!("agent-{host}"), addr, &spool, agent_opts(obs)).unwrap();
                for f in files {
                    agent.offer_file(host, f).unwrap();
                }
                agent.flush().unwrap();
                agent.tick().unwrap(); // one batch, acked
                step.wait(); // the first server drains
                             // The next one, refused. Twice: had the server's read
                             // timeout closed the idle connection, the first attempt
                             // is a transport error and only the second reaches it.
                agent.tick().unwrap();
                agent.tick().unwrap();
                step.wait(); // the first server stops, the second starts
                step.wait();
                agent.drain().unwrap();
            });
        }
        step.wait();
        assert!(first.core.applied() > 0, "the first server applied nothing");
        first.core.begin_drain();
        step.wait();
        drop(first.stop());
        let second = start_server_at(&addr, &store_dir, obs.clone(), |o| o.retry_after_ms = 1);
        step.wait();
        second
    });
    let core = second.core.clone();
    let (store, obs) = second.stop();
    assert!(core.applied() > 0, "the second server applied nothing");
    let live = dump(&store.read().unwrap());
    assert_eq!(live, expected, "the restart dropped or duplicated data");

    let snap = obs.snapshot();
    assert!(
        snap.counter("relay_server_rejected_total{reason=\"busy\"}").unwrap_or(0) > 0,
        "the draining server never answered Busy"
    );
    assert!(
        snap.counter("relay_agent_batches_retried_total").unwrap_or(0) > 0,
        "agents never backed off"
    );
    // Both servers share `obs`: neither answered 5xx, and neither
    // dropped an acked batch (the differential above proves the latter).
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

#[test]
fn the_spool_resets_when_a_poisoned_batch_empties_the_backlog() {
    let dir = tmp("poison");
    let by_host = files_by_host();
    let (host, files) = by_host.iter().next().unwrap();
    let file = &files[0];
    // Only `flush` seals here, so one offered file is one batch.
    let opts = |obs: &ObsHandle| AgentOptions { batch_max_samples: usize::MAX, ..agent_opts(obs) };
    let id = "agent-poison";

    // The server's limit is the spool of one file's batch: a 16-byte
    // header and the frame. A batch of the file twice is over it.
    let probe = dir.join("probe.q");
    let mut agent =
        Agent::open(id, "127.0.0.1:1", &probe, opts(&Arc::new(ObsRegistry::new()))).unwrap();
    agent.offer_file(host, file).unwrap();
    agent.flush().unwrap();
    drop(agent);
    let limit = std::fs::metadata(&probe).unwrap().len() as usize;
    let server = start_server(&dir.join("live"), |o| o.max_batch_bytes = limit);

    let spool = dir.join("spool.q");
    let mut agent = Agent::open(id, &server.addr, &spool, opts(&server.obs)).unwrap();
    agent.offer_file(host, file).unwrap();
    agent.drain().unwrap();
    agent.offer_file(host, file).unwrap();
    agent.offer_file(host, file).unwrap();
    agent.drain().unwrap();
    // Nothing is owed, so a restart must resend nothing. The agent still
    // holds its spool, so read the file through a copy.
    let copy = dir.join("spool-copy.q");
    std::fs::copy(&spool, &copy).unwrap();
    let recovered = Spool::open(&copy).unwrap().batches;
    assert!(recovered.is_empty(), "the spool kept {} resolved batches", recovered.len());
    // The 413 closed the connection: the next batch goes out on a new
    // one, with no failed send first.
    agent.offer_file(host, file).unwrap();
    agent.drain().unwrap();
    drop(agent);
    let (_, obs) = server.stop();

    let snap = obs.snapshot();
    assert_eq!(snap.counter("relay_agent_batches_acked_total"), Some(2));
    assert_eq!(snap.counter("relay_agent_batches_poisoned_total"), Some(1));
    assert_eq!(snap.counter("relay_agent_send_errors_total").unwrap_or(0), 0);
    let recovered = Spool::open(&spool).unwrap().batches;
    assert!(recovered.is_empty(), "the spool kept {} resolved batches", recovered.len());
}

#[test]
fn an_agent_past_the_per_connection_request_budget_reconnects_cleanly() {
    let dir = tmp("budget");
    let server = start_server(&dir.join("live"), |_| {});
    // A batch a record, every host's files four times over: one agent
    // sends more batches than the server's per-connection request budget
    // (256). The resent samples are identical, so they change nothing.
    let opts = AgentOptions { batch_max_samples: 1, ..agent_opts(&server.obs) };
    let mut agent = Agent::open("agent-budget", &server.addr, &dir.join("spool.q"), opts).unwrap();
    for _ in 0..4 {
        for (host, files) in &files_by_host() {
            for f in files {
                agent.offer_file(host, f).unwrap();
            }
        }
    }
    agent.drain().unwrap();
    drop(agent);
    let (_, obs) = server.stop();

    let snap = obs.snapshot();
    let acked = snap.counter("relay_agent_batches_acked_total").unwrap_or(0);
    assert!(acked > 256, "{acked} batches never reached the connection budget");
    assert_eq!(snap.counter("relay_agent_send_errors_total").unwrap_or(0), 0);
}
