//! Query-path benchmarks: the series-indexed read path against the
//! naive decode-everything oracle, pre-aggregated downsampling at three
//! bin widths, and the keep-alive serve layer cold vs cached.
//!
//! Store shape mirrors a modest cluster fortnight: 64 hosts x 8 metrics
//! at 600 s cadence for 14 days (~1M samples), flushed into sealed
//! segments so every read goes through the segment footer index.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use std::hint::black_box;

use supremm_bench::bench;
use supremm_warehouse::tsdb::{Agg, DbOptions, Selector, Tsdb};
use supremm_warehouse::JobTable;
use supremm_xdmod::serve::{serve_shared, ServeOptions};

const HOSTS: usize = 64;
const METRICS: [&str; 8] = [
    "cpu_user", "cpu_system", "cpu_idle", "mem_used", "net_rx", "net_tx", "ib_rx", "flops",
];
/// 14 days at 600 s cadence.
const SAMPLES_PER_SERIES: u64 = 2016;
const STEP_SECS: u64 = 600;
const SPAN_SECS: u64 = SAMPLES_PER_SERIES * STEP_SECS;

fn build_store(dir: &Path) -> Tsdb {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let mut db =
        Tsdb::open_with(dir, DbOptions { chunk_samples: 128, block_chunks: 64, ..Default::default() })
            .unwrap();
    for h in 0..HOSTS {
        let host = format!("c{h:03}");
        for (m, metric) in METRICS.iter().enumerate() {
            let base = (h * 31 + m * 7) as f64;
            let samples: Vec<(u64, f64)> = (0..SAMPLES_PER_SERIES)
                .map(|i| (i * STEP_SECS, base + (i as f64 * 0.01).sin()))
                .collect();
            db.append_batch(&host, metric, &samples).unwrap();
        }
    }
    db.flush().unwrap();
    db
}

fn one_series() -> Selector {
    Selector { host: Some("c042".into()), metric: Some("cpu_user".into()) }
}

fn bench_query() {
    let dir = std::env::temp_dir().join(format!("supremm-query-bench-{}", std::process::id()));
    let db = build_store(&dir);
    let sel = one_series();
    let all = Selector::all();

    // One series, one timestamp: the index decodes a single chunk.
    bench("query/point_lookup/indexed", None, || {
        black_box(db.query(&sel, 600_000, 600_000).unwrap())
    });
    bench("query/point_lookup/naive", None, || {
        black_box(db.query_naive(&sel, 600_000, 600_000).unwrap())
    });
    // One series, whole retention: decodes 1/512th of the store.
    bench("query/selective_series/indexed", None, || {
        black_box(db.query(&sel, 0, u64::MAX).unwrap())
    });
    bench("query/selective_series/naive", None, || {
        black_box(db.query_naive(&sel, 0, u64::MAX).unwrap())
    });
    // Every series: both paths decode everything; the index must not lose.
    bench("query/wide_scan/indexed", None, || black_box(db.query(&all, 0, u64::MAX).unwrap()));
    bench("query/wide_scan/naive", None, || black_box(db.query_naive(&all, 0, u64::MAX).unwrap()));

    // Hour bins decode every chunk; day and week bins fold most chunk
    // stats straight from the footer index.
    for bin in [3_600u64, 86_400, 604_800] {
        bench(&format!("downsample/max_bin{bin}/preagg"), None, || {
            black_box(db.downsample(&all, 0, u64::MAX, bin, Agg::Max).unwrap())
        });
        bench(&format!("downsample/max_bin{bin}/naive"), None, || {
            black_box(db.downsample_naive(&all, 0, u64::MAX, bin, Agg::Max).unwrap())
        });
    }

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keep-alive HTTP client that transparently reconnects when the server
/// rotates the connection (requests-per-connection cap).
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    fn fetch(&mut self, target: &str) -> usize {
        for _ in 0..3 {
            if self.stream.is_none() {
                let s = TcpStream::connect(self.addr).unwrap();
                s.set_nodelay(true).unwrap();
                self.stream = Some(s);
            }
            let stream = self.stream.as_mut().unwrap();
            match try_fetch(stream, target) {
                Ok((len, keep_alive)) => {
                    if !keep_alive {
                        self.stream = None;
                    }
                    return len;
                }
                Err(_) => self.stream = None,
            }
        }
        panic!("server stopped answering {target}");
    }
}

fn try_fetch(stream: &mut TcpStream, target: &str) -> std::io::Result<(usize, bool)> {
    // One write_all per request: interleaving small writes with Nagle on
    // stalls each exchange on the peer's delayed ACK.
    let req = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    stream.flush()?;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let header_end = loop {
        if let Some(ix) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break ix;
        }
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
        }
        buf.extend_from_slice(&tmp[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_ascii_lowercase();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let keep_alive = !head.contains("connection: close");
    let body_start = header_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
        }
        buf.extend_from_slice(&tmp[..n]);
    }
    Ok((content_length, keep_alive))
}

fn bench_serve() {
    let dir = std::env::temp_dir().join(format!("supremm-serve-bench-{}", std::process::id()));
    // The serve loop wants shared references that outlive the worker
    // threads; leaking them is fine for a bench process.
    let db: &'static std::sync::RwLock<Tsdb> =
        Box::leak(Box::new(std::sync::RwLock::new(build_store(&dir))));
    let table: &'static JobTable = Box::leak(Box::new(JobTable::new(Vec::new())));
    let shutdown: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = serve_shared(table, Some(db), listener, shutdown, &ServeOptions::default());
    });

    let mut client = Client::new(addr);
    let warm = "/v1/series?host=c042&metric=cpu_user&bin=86400&agg=max";
    assert!(client.fetch(warm) > 0, "serve layer returned an empty response");

    // Distinct t1 per request: every lookup misses the response cache
    // and runs the indexed query under the store lock.
    let tick = AtomicU64::new(0);
    bench("serve/series_cold", None, || {
        let n = tick.fetch_add(1, Ordering::Relaxed);
        let t1 = SPAN_SECS + n; // distinct per request, full range
        black_box(
            client.fetch(&format!("/v1/series?host=c042&metric=cpu_user&t1={t1}&bin=86400&agg=max")),
        )
    });
    // Identical request every time: served from the response cache.
    bench("serve/series_cached", None, || black_box(client.fetch(warm)));

    shutdown.store(true, Ordering::SeqCst);
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    bench_query();
    bench_serve();
}
