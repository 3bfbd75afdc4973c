//! Concurrency soak test for the serve layer and its self-observability.
//!
//! N keep-alive clients hammer `/v1/series` and `/v1/metrics` while a
//! writer thread appends, flushes and compacts the shared store
//! underneath them. The invariants under fire:
//!
//! - no request ever yields a 5xx;
//! - no stale reads: the writer appends a known monotone sequence, so
//!   every `/v1/series` body must be a prefix of it, and within one
//!   client the observed length never shrinks (the generation-keyed
//!   cache may serve an older body only for an older store state);
//! - `/v1/metrics` snapshots are monotonically consistent: counters
//!   never regress between successive observations from one client;
//! - after the dust settles, the served body equals a naive oracle
//!   query run directly against the store.
//!
//! Thread counts and iteration budgets scale up via
//! `SUPREMM_SOAK_CLIENTS` / `SUPREMM_SOAK_WRITES` / `SUPREMM_SOAK_REQS`
//! (the nightly CI job runs with elevated values).

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use supremm_metrics::json::Value;
use supremm_obs::ObsRegistry;
use supremm_relay::agent::read_http_response;
use supremm_warehouse::tsdb::Tsdb;
use supremm_warehouse::JobTable;
use supremm_xdmod::serve::{serve, ServeOptions};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// A keep-alive client that transparently reconnects when the server
/// rotates the connection (per-connection request budget).
struct Client {
    addr: std::net::SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: std::net::SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    fn get(&mut self, target: &str) -> (u16, String) {
        for _ in 0..3 {
            if self.stream.is_none() {
                self.stream = Some(TcpStream::connect(self.addr).expect("connect"));
            }
            let stream = self.stream.as_mut().expect("stream present");
            let req = format!("GET {target} HTTP/1.1\r\n\r\n");
            if stream.write_all(req.as_bytes()).is_err() {
                self.stream = None;
                continue;
            }
            // A fresh request racing the server's budget-close can die
            // mid-read; retry it on a new connection.
            match read_http_response(stream) {
                Ok((status, _head, body)) => return (status, body),
                Err(_) => self.stream = None,
            }
        }
        panic!("request {target} failed after 3 reconnects");
    }
}

/// Extract the points of the ("h", "m") series from a `/v1/series` body.
fn series_points(body: &str) -> Vec<(u64, f64)> {
    let v = Value::parse(body).expect("series body parses as JSON");
    let series = v.get("series").and_then(Value::as_array).expect("series array");
    let mut out = Vec::new();
    for entry in series {
        if entry.get("host").and_then(Value::as_str) != Some("h") {
            continue;
        }
        let points = entry.get("points").and_then(Value::as_array).expect("points array");
        for p in points {
            let p = p.as_array().expect("point pair");
            out.push((p[0].as_f64().expect("ts") as u64, p[1].as_f64().expect("value")));
        }
    }
    out
}

#[test]
fn soak_serve_layer_under_concurrent_writes() {
    let clients = env_or("SUPREMM_SOAK_CLIENTS", 4);
    let writes = env_or("SUPREMM_SOAK_WRITES", 160);
    let reqs = env_or("SUPREMM_SOAK_REQS", 60);

    let dir = std::env::temp_dir().join(format!("supremm-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let obs = Arc::new(ObsRegistry::new());
    let mut db = Tsdb::open_with_obs(&dir, Default::default(), obs.clone()).expect("open tsdb");
    // Seed so the very first read sees data.
    db.append_batch("h", "m", &[(0, 0.0)]).expect("seed");
    let store = Arc::new(RwLock::new(db));
    let table = JobTable::default();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));

    let server = {
        let store = store.clone();
        let flag = shutdown.clone();
        let obs = obs.clone();
        std::thread::spawn(move || {
            let opts = ServeOptions { slow_query_micros: 250_000, obs, ..ServeOptions::default() };
            serve(&table, Some(&store), listener, &flag, &opts).expect("serve");
        })
    };

    // Writer: append a monotone sequence (ts = i*10, v = i), flushing
    // every 16 samples and compacting twice along the way, so readers
    // race memtable, flush and compaction all at once.
    let writer = {
        let store = store.clone();
        std::thread::spawn(move || {
            for i in 1..=writes {
                let mut db = store.write().unwrap_or_else(|e| e.into_inner());
                db.append_batch("h", "m", &[(i as u64 * 10, i as f64)]).expect("append");
                if i % 16 == 0 {
                    db.flush().expect("flush");
                }
                if i == writes / 2 || i == writes {
                    db.compact().expect("compact");
                }
                drop(db);
                std::thread::yield_now();
            }
        })
    };

    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr2 = addr;
            std::thread::spawn(move || {
                let mut client = Client::new(addr2);
                let mut last_len = 0usize;
                let mut last_series_requests = 0.0f64;
                for i in 0..reqs {
                    if i % 3 == 2 {
                        let (status, body) = client.get("/v1/metrics?format=json");
                        assert!(status < 500, "client {c}: metrics 5xx: {body}");
                        let v = Value::parse(&body).expect("metrics JSON parses");
                        let served = v
                            .get("counters")
                            .and_then(|cs| cs.get("serve_requests_total{endpoint=\"v1_series\"}"))
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0);
                        assert!(
                            served >= last_series_requests,
                            "client {c}: request counter regressed {last_series_requests} -> {served}"
                        );
                        last_series_requests = served;
                    } else {
                        let (status, body) = client.get("/v1/series?host=h&metric=m");
                        assert!(status < 500, "client {c}: series 5xx: {body}");
                        assert_eq!(status, 200, "client {c}: {body}");
                        let points = series_points(&body);
                        // Prefix of the writer's monotone sequence …
                        for (k, (ts, v)) in points.iter().enumerate() {
                            assert_eq!(*ts, k as u64 * 10, "client {c}: torn read: {body}");
                            assert_eq!(*v, k as f64, "client {c}: torn read: {body}");
                        }
                        // … and never shorter than an earlier read.
                        assert!(
                            points.len() >= last_len,
                            "client {c}: stale read: {} < {last_len}",
                            points.len()
                        );
                        last_len = points.len();
                    }
                }
                last_len
            })
        })
        .collect();

    writer.join().expect("writer thread");
    for w in workers {
        w.join().expect("client thread");
    }

    // Naive oracle: a direct query against the quiesced store must
    // match both the expected sequence and what one last HTTP read says.
    let mut client = Client::new(addr);
    let (status, body) = client.get("/v1/series?host=h&metric=m");
    assert_eq!(status, 200);
    let served = series_points(&body);
    let want: Vec<(u64, f64)> = (0..=writes).map(|i| (i as u64 * 10, i as f64)).collect();
    assert_eq!(served, want, "final read disagrees with the writer's sequence");
    {
        let db = store.read().unwrap_or_else(|e| e.into_inner());
        let direct = db
            .query(&supremm_warehouse::tsdb::Selector::default(), 0, u64::MAX)
            .expect("oracle query");
        let oracle: Vec<(u64, f64)> = direct.into_iter().flat_map(|(_, points)| points).collect();
        assert_eq!(served, oracle, "served body disagrees with a direct store query");
    }

    // The registry agrees the run was clean, and the final snapshot is
    // consistent with itself (every histogram count ≤ its request count).
    let snap = obs.snapshot();
    assert_eq!(snap.counter("serve_http_5xx_total"), Some(0), "5xx recorded during soak");
    assert!(
        snap.counter("serve_requests_total{endpoint=\"v1_series\"}").unwrap_or(0) > 0,
        "series requests were counted"
    );
    let h = snap
        .histogram("serve_request_micros{endpoint=\"v1_series\"}")
        .expect("series latency histogram exists");
    assert_eq!(
        Some(h.count),
        snap.counter("serve_requests_total{endpoint=\"v1_series\"}"),
        "latency histogram and request counter disagree"
    );

    shutdown.store(true, Ordering::Relaxed);
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention satellite: rollup+expiry passes racing keep-alive readers
/// and a live writer. Every reader interleaves three probes — the
/// watermark gauge, the raw series, and a tier-served binned series —
/// and checks zero 5xx, no read ever showing raw data older than a
/// watermark it already observed (no stale reads past a drop), and
/// monotone retention counters.
#[test]
fn retention_pass_races_keep_alive_readers_and_live_writer() {
    use supremm_warehouse::tsdb::{DbOptions, RetentionPolicy, RollupLevel};

    let clients = env_or("SUPREMM_SOAK_CLIENTS", 4);
    let writes = env_or("SUPREMM_SOAK_WRITES", 400);
    let reqs = env_or("SUPREMM_SOAK_REQS", 60);

    let dir = std::env::temp_dir().join(format!("supremm-ret-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let obs = Arc::new(ObsRegistry::new());
    // 100 s rollup bins kept forever, raw kept 1000 s behind the data's
    // leading edge; tiny segments so drops actually happen mid-run.
    let opts = DbOptions {
        chunk_samples: 16,
        block_chunks: 4,
        retention: RetentionPolicy {
            raw_ttl: Some(1000),
            levels: vec![RollupLevel { bin_secs: 100, ttl: None }],
        },
    };
    let mut db = Tsdb::open_with_obs(&dir, opts, obs.clone()).expect("open tsdb");
    db.append_batch("h", "m", &[(0, 0.0)]).expect("seed");
    let store = Arc::new(RwLock::new(db));
    let table = JobTable::default();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));

    let server = {
        let store = store.clone();
        let flag = shutdown.clone();
        let obs = obs.clone();
        std::thread::spawn(move || {
            let opts = ServeOptions { slow_query_micros: 250_000, obs, ..ServeOptions::default() };
            serve(&table, Some(&store), listener, &flag, &opts).expect("serve");
        })
    };

    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = store.clone();
        let done = writer_done.clone();
        std::thread::spawn(move || {
            for i in 1..=writes {
                let mut db = store.write().unwrap_or_else(|e| e.into_inner());
                db.append_batch("h", "m", &[(i as u64 * 10, i as f64)]).expect("append");
                if i % 16 == 0 {
                    db.flush().expect("flush");
                }
                drop(db);
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        })
    };

    // Retention thread: keep enforcing (data-time now) until the writer
    // finishes, then one final pass over the complete data.
    let retention = {
        let store = store.clone();
        let done = writer_done.clone();
        std::thread::spawn(move || {
            let mut passes = 0u32;
            loop {
                let finished = done.load(Ordering::Acquire);
                {
                    let mut db = store.write().unwrap_or_else(|e| e.into_inner());
                    let now = db.max_timestamp().unwrap_or(0);
                    db.enforce_retention(now).expect("retention pass");
                }
                passes += 1;
                if finished {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            passes
        })
    };

    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr2 = addr;
            std::thread::spawn(move || {
                let mut client = Client::new(addr2);
                let mut seen_watermark = 0u64;
                let mut seen_rollups = 0.0f64;
                let mut seen_drops = 0.0f64;
                for _ in 0..reqs {
                    // 1. Telemetry probe: watermark and the retention
                    //    counters only ever move forward.
                    let (status, body) = client.get("/v1/metrics?format=json");
                    assert!(status < 500, "client {c}: metrics 5xx: {body}");
                    let v = Value::parse(&body).expect("metrics JSON parses");
                    let gauge = v
                        .get("gauges")
                        .and_then(|g| g.get("tsdb_retention_raw_watermark"))
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0) as u64;
                    assert!(
                        gauge >= seen_watermark,
                        "client {c}: watermark regressed {seen_watermark} -> {gauge}"
                    );
                    seen_watermark = gauge;
                    for (name, seen) in [
                        ("tsdb_retention_rollup_segments_total", &mut seen_rollups),
                        ("tsdb_retention_dropped_raw_segments_total", &mut seen_drops),
                    ] {
                        let n = v
                            .get("counters")
                            .and_then(|cs| cs.get(name))
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0);
                        assert!(n >= *seen, "client {c}: {name} regressed {seen} -> {n}");
                        *seen = n;
                    }

                    // 2. Raw read: a dense, coherent suffix of the
                    //    writer's sequence, nothing older than a
                    //    watermark this client already observed.
                    let (status, body) = client.get("/v1/series?host=h&metric=m");
                    assert!(status < 500, "client {c}: series 5xx: {body}");
                    assert_eq!(status, 200, "client {c}: {body}");
                    let points = series_points(&body);
                    for (ts, v) in &points {
                        assert_eq!(*v, (*ts / 10) as f64, "client {c}: torn read: {body}");
                        assert!(
                            *ts >= seen_watermark,
                            "client {c}: stale read past drop: ts {ts} < watermark \
                             {seen_watermark}"
                        );
                    }
                    for w in points.windows(2) {
                        assert_eq!(w[1].0 - w[0].0, 10, "client {c}: hole in raw read");
                    }

                    // 3. Tier-served read: every Last bin's value names
                    //    a sample inside that bin, and the envelope
                    //    says which tiers answered.
                    let (status, body) = client.get("/v1/series?host=h&metric=m&bin=100&agg=last");
                    assert!(status < 500, "client {c}: binned 5xx: {body}");
                    assert_eq!(status, 200, "client {c}: {body}");
                    let v = Value::parse(&body).expect("binned body parses");
                    let tiers = v.get("tiers").and_then(Value::as_array).expect("tiers array");
                    for t in tiers {
                        let t = t.as_str().expect("tier label");
                        assert!(
                            t == "raw" || t == "rollup:100",
                            "client {c}: unexpected tier {t:?}"
                        );
                    }
                    for (bs, val) in series_points(&body) {
                        let sample_ts = (val as u64) * 10;
                        assert!(
                            sample_ts >= bs && sample_ts < bs + 100,
                            "client {c}: bin {bs} served value {val} from outside the bin"
                        );
                    }
                }
            })
        })
        .collect();

    writer.join().expect("writer thread");
    let passes = retention.join().expect("retention thread");
    assert!(passes > 0);
    for w in workers {
        w.join().expect("client thread");
    }

    // Quiesced end state: the raw suffix starts exactly at the final
    // watermark and matches a direct store query bit-for-bit.
    let final_w = {
        let db = store.read().unwrap_or_else(|e| e.into_inner());
        db.stats().raw_watermark
    };
    let max_ts = writes as u64 * 10;
    assert_eq!(final_w, (max_ts - 1000) / 100 * 100, "final pass covered all data");
    let mut client = Client::new(addr);
    let (status, body) = client.get("/v1/series?host=h&metric=m");
    assert_eq!(status, 200);
    let served = series_points(&body);
    let want: Vec<(u64, f64)> =
        (final_w / 10..=writes as u64).map(|i| (i * 10, i as f64)).collect();
    assert_eq!(served, want, "final raw read disagrees with the surviving sequence");

    // And the rolled history still answers in full: one Last bin per
    // 100 s from the origin, regardless of how much raw expired.
    let (status, body) = client.get("/v1/series?host=h&metric=m&bin=100&agg=last");
    assert_eq!(status, 200, "{body}");
    let bins = series_points(&body);
    assert_eq!(bins.first().map(|&(bs, _)| bs), Some(0), "rolled history lost its origin");
    assert_eq!(bins.len() as u64, max_ts / 100 + 1, "missing bins across the tiers");

    let snap = obs.snapshot();
    assert_eq!(snap.counter("serve_http_5xx_total"), Some(0), "5xx during retention soak");
    assert!(
        snap.counter("tsdb_retention_rollup_segments_total").unwrap_or(0) > 0,
        "no rollups were written during the soak"
    );
    assert!(
        snap.counter("tsdb_retention_dropped_raw_segments_total").unwrap_or(0) > 0,
        "no raw segments were dropped during the soak"
    );
    assert!(
        snap.counter("tsdb_query_tier_hits_total{tier=\"rollup_100\"}").unwrap_or(0) > 0,
        "rollup tier never served a query"
    );

    shutdown.store(true, Ordering::Relaxed);
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
