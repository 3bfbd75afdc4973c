//! A minimal HTTP query API over the warehouse.
//!
//! XDMoD is a web application; its front end fetches report datasets from
//! a JSON endpoint. This module is that surface, dependency-free on
//! `std::net`: a small HTTP/1.1 responder exposing
//!
//! ```text
//! GET  /healthz
//! GET  /v1/summary
//! GET  /v1/query?dimension=<d>&statistic=<s>[&metric=<m>][&top=<n>]
//! GET  /v1/series?[host=<h>][&metric=<m>][&t0=<s>][&t1=<s>][&bin=<s>][&agg=<a>]
//! GET  /v1/metrics[?format=prometheus|json]
//! POST /v1/write                (relay wire frame in the body)
//! ```
//!
//! `POST /v1/write` is the live remote-write path: the body is one relay
//! wire frame ([`supremm_relay::wire`]) and the request is handed to the
//! attached [`IngestCore`] ([`ServeOptions::ingest`]). The response
//! ladder is 413 (body over the core's [`IngestCore::max_batch_bytes`],
//! refused before the body is read) → 400 (undecodable frame) → 429 +
//! `Retry-After` (draining, or the store failed) → 200 (the batch is
//! durable — applied and WAL-synced — or a dedup-confirmed duplicate).
//! The request's worker thread applies the batch itself; concurrent
//! writes share one WAL sync.
//! The write path never answers 5xx. Request bodies are read for every
//! method (a body left on the stream would desync keep-alive parsing);
//! over-limit bodies force a connection close because the stream cannot
//! be resynced past bytes the server refuses to read.
//!
//! `/v1/series` answers straight from the `tsdb` storage engine when one
//! is attached (time-range + host/metric predicates, optional
//! downsampling with `agg` ∈ mean|sum|min|max|last|count).
//!
//! The serve layer is a small thread pool: each worker owns a clone of
//! the listener and accepts connections independently, so one slow
//! client never blocks the rest. Connections are HTTP/1.1 persistent
//! (`Connection: keep-alive` semantics, bounded requests per connection,
//! short read timeout); HTTP/1.0 clients get the close-per-request
//! behaviour they expect. Successful `/v1/*` responses are cached in a
//! bounded LRU ([`ResponseCache`]) keyed by the canonical query string
//! and the store's mutation generation — any write to the store
//! invalidates every cached entry at the next lookup.
//!
//! The request handling is a pure function ([`handle`]) so the protocol
//! logic is unit-testable without sockets; [`serve`] is the accept loop.
//! Each request line is tokenised once into a [`Request`] that the
//! router, cache key, metrics recorder and POST dispatcher all read.
//!
//! The serve loop reports into the `obs` self-observability registry
//! (`GET /v1/metrics` in Prometheus text or the in-house JSON):
//! per-endpoint request counters and latency histograms, an open
//! keep-alive connection gauge, cache hit/miss/eviction tallies,
//! response bytes and 4xx/5xx counts. Requests slower than
//! [`ServeOptions::slow_query_micros`] land in the registry's
//! ring-buffer event log (`kind == "slow_query"`), surfaced by
//! `supremm diagnose`. `/v1/metrics` itself is never cached — a stale
//! metrics snapshot would defeat the point.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use supremm_metrics::json::{obj, Value};
use supremm_metrics::KeyMetric;
use supremm_obs::{Counter, Gauge, Histogram, ObsHandle, ObsRegistry, Timer};
use supremm_relay::{IngestCore, WriteOutcome};
use supremm_warehouse::tsdb::{Agg, Selector, Tsdb};
use supremm_warehouse::JobTable;

use crate::framework::{run, Dimension, Query, Statistic};

/// An HTTP response, pre-serialisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    /// Backpressure hint for 429/503 answers: emitted as `Retry-After`
    /// (whole seconds, rounded up) and `X-Retry-After-Ms` headers so
    /// clients that understand milliseconds don't over-wait.
    pub retry_after_ms: Option<u64>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response { status, content_type: "application/json", body, retry_after_ms: None }
    }

    fn error(status: u16, msg: &str) -> Response {
        Response::json(status, format!("{{\"error\":{:?}}}", msg))
    }

    fn with_retry_after(mut self, ms: u64) -> Response {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Serialise as HTTP/1.1, advertising whether the connection stays
    /// open afterwards.
    pub fn to_http_with(&self, keep_alive: bool) -> String {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Error",
        };
        let retry = match self.retry_after_ms {
            Some(ms) => {
                format!("Retry-After: {}\r\nX-Retry-After-Ms: {ms}\r\n", ms.div_ceil(1000).max(1))
            }
            None => String::new(),
        };
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n{}",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            retry,
            if keep_alive { "keep-alive" } else { "close" },
            self.body
        )
    }
}

fn parse_dimension(s: &str) -> Option<Dimension> {
    Some(match s {
        "none" => Dimension::None,
        "user" => Dimension::User,
        "application" => Dimension::Application,
        "science" => Dimension::ScienceField,
        "queue" => Dimension::Queue,
        "exit" => Dimension::ExitStatus,
        "job_size" => Dimension::JobSize,
        _ => return None,
    })
}

fn parse_statistic(s: &str, metric: Option<&str>) -> Option<Statistic> {
    Some(match s {
        "job_count" => Statistic::JobCount,
        "node_hours" => Statistic::NodeHours,
        "avg_wait_hours" => Statistic::AvgWaitHours,
        "weighted_job_length_min" => Statistic::WeightedJobLengthMin,
        "failure_rate" => Statistic::FailureRate,
        "weighted_mean" => Statistic::WeightedMean(KeyMetric::from_name(metric?)?),
        _ => return None,
    })
}

type Params<'a> = Vec<(&'a str, &'a str)>;

/// Split a target like `/v1/query?a=b&c=d` into path and query pairs.
/// A non-empty query segment without `=` is malformed, and so is a
/// repeated key (`?host=a&host=b` — which one did the client mean?):
/// the client gets a 400, not a silently dropped parameter.
fn split_target(target: &str) -> (&str, Result<Params<'_>, String>) {
    let Some((path, qs)) = target.split_once('?') else {
        return (target, Ok(Vec::new()));
    };
    let mut params: Vec<(&str, &str)> = Vec::new();
    for kv in qs.split('&') {
        if kv.is_empty() {
            continue;
        }
        match kv.split_once('=') {
            Some((k, v)) => {
                if params.iter().any(|&(seen, _)| seen == k) {
                    return (path, Err(format!("duplicate query parameter {k:?}")));
                }
                params.push((k, v));
            }
            None => return (path, Err(format!("malformed query parameter {kv:?}"))),
        }
    }
    (path, Ok(params))
}

/// One request line (`GET <target> HTTP/1.x`), tokenised once per
/// request and borrowed from the connection buffer.
struct Request<'a> {
    /// Empty when the line has no method + target (answered 400).
    method: &'a str,
    /// As sent, query string included (the slow-query log quotes it).
    target: &'a str,
    path: &'a str,
    /// `Err` carries the 400 message for a malformed query string.
    params: Result<Params<'a>, String>,
    /// Slot in [`ENDPOINTS`].
    endpoint: usize,
}

impl<'a> Request<'a> {
    fn parse(request_line: &'a str) -> Request<'a> {
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
            return Request {
                method: "",
                target: request_line,
                path: "",
                params: Ok(Vec::new()),
                endpoint: endpoint_index(""),
            };
        };
        let (path, params) = split_target(target);
        Request { method, target, path, params, endpoint: endpoint_index(path) }
    }
}

/// First query key not in the endpoint's allowlist, as a 400 message.
/// A typo'd parameter silently ignored would return a confidently wrong
/// answer (e.g. `metrc=` falling back to the full result set).
fn unknown_param(params: &[(&str, &str)], allowed: &[&str]) -> Option<String> {
    params
        .iter()
        .find(|(k, _)| !allowed.contains(k))
        .map(|(k, _)| format!("unknown query parameter {k:?}"))
}

fn parse_agg(s: &str) -> Option<Agg> {
    Some(match s {
        "mean" => Agg::Mean,
        "sum" => Agg::Sum,
        "min" => Agg::Min,
        "max" => Agg::Max,
        "last" => Agg::Last,
        "count" => Agg::Count,
        _ => return None,
    })
}

/// Render the registry snapshot as the in-house JSON value type.
fn metrics_json(snap: &supremm_obs::Snapshot) -> Value {
    let counters: Vec<(String, Value)> =
        snap.counters.iter().map(|(k, v)| (k.clone(), (*v as f64).into())).collect();
    let gauges: Vec<(String, Value)> =
        snap.gauges.iter().map(|(k, v)| (k.clone(), (*v as f64).into())).collect();
    let histograms: Vec<(String, Value)> = snap
        .histograms
        .iter()
        .map(|(k, h)| {
            let buckets: Vec<Value> = supremm_obs::BUCKET_BOUNDS
                .iter()
                .zip(h.buckets.iter())
                .filter(|&(_, n)| *n > 0)
                .map(|(le, n)| Value::Array(vec![(*le as f64).into(), (*n as f64).into()]))
                .collect();
            let fields = obj([
                ("count", (h.count as f64).into()),
                ("sum", (h.sum as f64).into()),
                ("overflow", (h.overflow as f64).into()),
                ("buckets", Value::Array(buckets)),
            ]);
            (k.clone(), fields)
        })
        .collect();
    let events: Vec<Value> = snap
        .events
        .iter()
        .map(|e| {
            obj([
                ("seq", (e.seq as f64).into()),
                ("kind", e.kind.as_str().into()),
                ("detail", e.detail.as_str().into()),
            ])
        })
        .collect();
    obj([
        ("counters", Value::Object(counters)),
        ("gauges", Value::Object(gauges)),
        ("histograms", Value::Object(histograms)),
        ("events", Value::Array(events)),
        ("events_dropped", (snap.events_dropped as f64).into()),
    ])
}

/// Handle one request line (`GET <target> HTTP/1.x`) against the table,
/// with an optional `tsdb` store behind `/v1/series` and the registry
/// `/v1/metrics` answers from.
pub fn handle(
    table: &JobTable,
    store: Option<&Tsdb>,
    obs: &ObsRegistry,
    request_line: &str,
) -> Response {
    route(table, store, obs, &Request::parse(request_line))
}

fn route(table: &JobTable, store: Option<&Tsdb>, obs: &ObsRegistry, req: &Request<'_>) -> Response {
    if req.method.is_empty() {
        return Response::error(400, "malformed request line");
    }
    if req.method != "GET" {
        return Response::error(400, "only GET is supported");
    }
    let params = match &req.params {
        Ok(params) => params,
        Err(msg) => return Response::error(400, msg),
    };
    let get = |key: &str| params.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
    match req.path {
        "/healthz" => Response::json(200, "{\"status\":\"ok\"}".into()),
        "/v1/summary" => {
            let users = table.group_by(|j| j.user).len();
            Response::json(
                200,
                format!(
                    "{{\"jobs\":{},\"node_hours\":{:.1},\"users\":{},\"weighted_job_length_min\":{:.1}}}",
                    table.len(),
                    table.total_node_hours(),
                    users,
                    table.weighted_mean_job_len_min()
                ),
            )
        }
        "/v1/query" => {
            if let Some(msg) = unknown_param(params, &["dimension", "statistic", "metric", "top"]) {
                return Response::error(400, &msg);
            }
            let Some(dimension) = get("dimension").and_then(parse_dimension) else {
                return Response::error(400, "missing/unknown dimension");
            };
            let Some(statistic) = get("statistic").and_then(|s| parse_statistic(s, get("metric")))
            else {
                return Response::error(400, "missing/unknown statistic (or metric)");
            };
            let top = match get("top") {
                None => None,
                Some(v) => match v.parse::<usize>() {
                    Ok(n) => Some(n),
                    Err(_) => return Response::error(400, "top must be an unsigned integer"),
                },
            };
            let mut ds = run(table, &Query { dimension, statistic, filters: vec![] });
            if let Some(n) = top {
                ds.rows.truncate(n);
            }
            Response::json(200, ds.to_json())
        }
        "/v1/series" => {
            if let Some(msg) = unknown_param(params, &["host", "metric", "t0", "t1", "bin", "agg"])
            {
                return Response::error(400, &msg);
            }
            let Some(db) = store else {
                return Response::error(404, "no time-series store attached");
            };
            let sel = Selector {
                host: get("host").map(str::to_string),
                metric: get("metric").map(str::to_string),
            };
            let parse_ts = |key: &str, default: u64| match get(key) {
                None => Some(default),
                Some(v) => v.parse::<u64>().ok(),
            };
            let (Some(t0), Some(t1)) = (parse_ts("t0", 0), parse_ts("t1", u64::MAX)) else {
                return Response::error(400, "t0/t1 must be unsigned seconds");
            };
            let result = match get("bin") {
                // Raw reads never consult rollups: whatever the query
                // returns came from the raw tier (the store clamps the
                // range at its raw watermark).
                None => db.query(&sel, t0, t1).map(|s| (s, vec!["raw".to_string()])),
                Some(bin) => {
                    let Ok(bin) = bin.parse::<u64>() else {
                        return Response::error(400, "bin must be unsigned seconds");
                    };
                    if bin == 0 {
                        return Response::error(400, "bin must be positive");
                    }
                    let Some(agg) = parse_agg(get("agg").unwrap_or("mean")) else {
                        return Response::error(400, "unknown agg");
                    };
                    db.downsample_tiered(&sel, t0, t1, bin, agg)
                }
            };
            let (series, tiers) = match result {
                Ok(answer) => answer,
                Err(e) => return Response::error(500, &format!("store: {e}")),
            };
            let body: Vec<Value> = series
                .into_iter()
                .map(|(key, points)| {
                    let pts: Vec<Value> = points
                        .into_iter()
                        .map(|(ts, v)| Value::Array(vec![(ts as f64).into(), v.into()]))
                        .collect();
                    obj([
                        ("host", key.host.as_str().into()),
                        ("metric", key.metric.as_str().into()),
                        ("points", Value::Array(pts)),
                    ])
                })
                .collect();
            let tiers: Vec<Value> = tiers.iter().map(|t| t.as_str().into()).collect();
            Response::json(
                200,
                obj([("series", Value::Array(body)), ("tiers", Value::Array(tiers))]).to_string(),
            )
        }
        "/v1/metrics" => {
            if let Some(msg) = unknown_param(params, &["format"]) {
                return Response::error(400, &msg);
            }
            let snap = obs.snapshot();
            match get("format").unwrap_or("prometheus") {
                "prometheus" => Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4",
                    body: supremm_obs::render_prometheus(&snap),
                    retry_after_ms: None,
                },
                "json" => Response::json(200, metrics_json(&snap).to_string()),
                other => {
                    Response::error(400, &format!("unknown format {other:?} (prometheus|json)"))
                }
            }
        }
        _ => Response::error(404, "unknown path"),
    }
}

// --- response cache -------------------------------------------------------

/// Tuning for the pooled serve loop.
#[derive(Clone)]
pub struct ServeOptions {
    /// Requests slower than this land in the obs event log as
    /// `slow_query` entries (`supremm serve --slow-query-ms`).
    pub slow_query_micros: u64,
    /// Registry the serve loop reports into.
    pub obs: ObsHandle,
    /// Ingest core behind `POST /v1/write`; without one the endpoint
    /// answers 503. The serve loop drains it on shutdown. Its
    /// [`IngestCore::max_batch_bytes`] is also the largest request body
    /// the server reads.
    pub ingest: Option<Arc<IngestCore>>,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("slow_query_micros", &self.slow_query_micros)
            .field("ingest", &self.ingest.is_some())
            .finish()
    }
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { slow_query_micros: 100_000, obs: supremm_obs::global(), ingest: None }
    }
}

/// The serve layer's canonical endpoint labels (everything else is
/// `other`). Fixed set, so per-endpoint handles are pre-registered and
/// the per-request path is lock-free.
const ENDPOINTS: [&str; 7] =
    ["healthz", "v1_summary", "v1_query", "v1_series", "v1_metrics", "v1_write", "other"];

fn endpoint_index(path: &str) -> usize {
    match path {
        "/healthz" => 0,
        "/v1/summary" => 1,
        "/v1/query" => 2,
        "/v1/series" => 3,
        "/v1/metrics" => 4,
        "/v1/write" => 5,
        _ => 6,
    }
}

struct EndpointMetrics {
    requests: Counter,
    latency: Histogram,
}

/// Obs handles cached once per serve loop; every per-request update is
/// a relaxed atomic op.
struct ServeMetrics {
    obs: ObsHandle,
    slow_query_micros: u64,
    endpoints: Vec<EndpointMetrics>,
    active_connections: Gauge,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    response_bytes: Counter,
    http_4xx: Counter,
    http_5xx: Counter,
    slow_queries: Counter,
}

impl ServeMetrics {
    fn new(opts: &ServeOptions) -> ServeMetrics {
        let obs = opts.obs.clone();
        // One entry per ENDPOINTS slot, in `endpoint_index` order. Names
        // are spelled out as literals so the lint can hold them to the
        // metric grammar and `grep` finds every registration.
        let endpoints = vec![
            EndpointMetrics {
                requests: obs.counter("serve_requests_total{endpoint=\"healthz\"}"),
                latency: obs.histogram("serve_request_micros{endpoint=\"healthz\"}"),
            },
            EndpointMetrics {
                requests: obs.counter("serve_requests_total{endpoint=\"v1_summary\"}"),
                latency: obs.histogram("serve_request_micros{endpoint=\"v1_summary\"}"),
            },
            EndpointMetrics {
                requests: obs.counter("serve_requests_total{endpoint=\"v1_query\"}"),
                latency: obs.histogram("serve_request_micros{endpoint=\"v1_query\"}"),
            },
            EndpointMetrics {
                requests: obs.counter("serve_requests_total{endpoint=\"v1_series\"}"),
                latency: obs.histogram("serve_request_micros{endpoint=\"v1_series\"}"),
            },
            EndpointMetrics {
                requests: obs.counter("serve_requests_total{endpoint=\"v1_metrics\"}"),
                latency: obs.histogram("serve_request_micros{endpoint=\"v1_metrics\"}"),
            },
            EndpointMetrics {
                requests: obs.counter("serve_requests_total{endpoint=\"v1_write\"}"),
                latency: obs.histogram("serve_request_micros{endpoint=\"v1_write\"}"),
            },
            EndpointMetrics {
                requests: obs.counter("serve_requests_total{endpoint=\"other\"}"),
                latency: obs.histogram("serve_request_micros{endpoint=\"other\"}"),
            },
        ];
        debug_assert_eq!(endpoints.len(), ENDPOINTS.len());
        ServeMetrics {
            slow_query_micros: opts.slow_query_micros,
            endpoints,
            active_connections: obs.gauge("serve_active_connections"),
            cache_hits: obs.counter("serve_cache_hits_total"),
            cache_misses: obs.counter("serve_cache_misses_total"),
            cache_evictions: obs.counter("serve_cache_evictions_total"),
            response_bytes: obs.counter("serve_response_bytes_total"),
            http_4xx: obs.counter("serve_http_4xx_total"),
            http_5xx: obs.counter("serve_http_5xx_total"),
            slow_queries: obs.counter("serve_slow_queries_total"),
            obs,
        }
    }

    /// Record one finished request (cached or computed).
    fn record(&self, req: &Request<'_>, micros: u64, resp: &Response) {
        if let Some(ep) = self.endpoints.get(req.endpoint) {
            ep.requests.inc();
            ep.latency.observe(micros);
        }
        self.response_bytes.add(resp.body.len() as u64);
        if resp.status >= 500 {
            self.http_5xx.inc();
        } else if resp.status >= 400 {
            self.http_4xx.inc();
        }
        if micros >= self.slow_query_micros {
            self.slow_queries.inc();
            self.obs.event(
                "slow_query",
                format!("{} took {micros}us (status {})", req.target, resp.status),
            );
        }
    }
}

/// RAII decrement for the open-connection gauge (connections exit
/// through several early returns).
struct ConnGuard<'a>(&'a Gauge);

impl<'a> ConnGuard<'a> {
    fn enter(gauge: &'a Gauge) -> ConnGuard<'a> {
        gauge.add(1);
        ConnGuard(gauge)
    }
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

struct CacheEntry {
    generation: u64,
    last_used: u64,
    response: Response,
}

struct CacheInner {
    map: BTreeMap<String, CacheEntry>,
    tick: u64,
}

/// Bounded LRU cache of successful `/v1/*` responses, keyed by the
/// canonical query string (path + sorted parameters). Every entry
/// remembers the store generation it was computed at; a lookup with a
/// newer generation is a miss and drops the stale entry, so writers
/// invalidate the cache simply by mutating the store.
pub struct ResponseCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl ResponseCache {
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache { capacity, inner: Mutex::new(CacheInner { map: BTreeMap::new(), tick: 0 }) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A panic mid-insert can't corrupt a BTreeMap logically; recover.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get(&self, key: &str, generation: u64) -> Option<Response> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let stale = match inner.map.get_mut(key) {
            Some(entry) if entry.generation == generation => {
                entry.last_used = tick;
                return Some(entry.response.clone());
            }
            Some(_) => true,
            None => false,
        };
        if stale {
            inner.map.remove(key);
        }
        None
    }

    /// Insert, evicting least-recently-used entries over capacity.
    /// Returns how many entries were evicted.
    pub fn put(&self, key: String, generation: u64, response: Response) -> usize {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, CacheEntry { generation, last_used: tick, response });
        let mut evicted = 0;
        while inner.map.len() > self.capacity {
            let victim = inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    inner.map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Canonical cache key for a request, or `None` if the request is
/// not cacheable (non-GET, non-`/v1/` path, or malformed — those must
/// re-run so errors stay fresh). `/v1/metrics` is deliberately
/// uncacheable: its body is a live registry snapshot and the store
/// generation the cache keys on does not advance when metrics do.
fn cache_key(req: &Request<'_>) -> Option<String> {
    if req.method != "GET" {
        return None;
    }
    if !req.path.starts_with("/v1/") || req.path == "/v1/metrics" {
        return None;
    }
    let mut params = req.params.as_ref().ok()?.clone();
    params.sort_unstable();
    let mut key = String::with_capacity(req.target.len());
    key.push_str(req.path);
    for (i, (k, v)) in params.iter().enumerate() {
        key.push(if i == 0 { '?' } else { '&' });
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    Some(key)
}

/// Answer one request, consulting the cache first. The store (when
/// there is one) is shared with writers: the read lock covers the
/// generation probe *and* the compute, so a cached entry can never be
/// tagged with a generation it didn't see.
fn respond(
    table: &JobTable,
    store: Option<&RwLock<Tsdb>>,
    cache: &ResponseCache,
    met: &ServeMetrics,
    req: &Request<'_>,
) -> Response {
    let guard = store.map(|lock| lock.read().unwrap_or_else(|e| e.into_inner()));
    let db = guard.as_deref();
    let t = Timer::start();
    let resp = match cache_key(req) {
        None => route(table, db, &met.obs, req),
        Some(key) => {
            let generation = db.map_or(0, Tsdb::generation);
            match cache.get(&key, generation) {
                Some(hit) => {
                    met.cache_hits.inc();
                    hit
                }
                None => {
                    met.cache_misses.inc();
                    let resp = route(table, db, &met.obs, req);
                    if resp.status == 200 {
                        met.cache_evictions.add(cache.put(key, generation, resp.clone()) as u64);
                    }
                    resp
                }
            }
        }
    };
    met.record(req, t.elapsed_micros(), &resp);
    resp
}

/// Answer one POST request.
fn respond_post(
    ingest: Option<&IngestCore>,
    met: &ServeMetrics,
    req: &Request<'_>,
    body: &[u8],
) -> Response {
    let t = Timer::start();
    let resp = match (req.path, ingest) {
        ("/v1/write", Some(core)) => match core.submit(body) {
            WriteOutcome::Acked { seq, deduped } => {
                Response::json(200, format!("{{\"acked\":{seq},\"deduped\":{deduped}}}"))
            }
            WriteOutcome::Busy { retry_after_ms } => {
                Response::error(429, "draining or store unavailable")
                    .with_retry_after(retry_after_ms)
            }
            WriteOutcome::Malformed(why) => Response::error(400, &why),
            WriteOutcome::TooLarge { limit } => {
                Response::error(413, &format!("body exceeds {limit} bytes"))
            }
        },
        ("/v1/write", None) => Response::error(503, "ingest not enabled"),
        _ => Response::error(404, "unknown path"),
    };
    met.record(req, t.elapsed_micros(), &resp);
    resp
}

// --- connection + accept loops --------------------------------------------

/// Accept-loop worker threads.
const WORKER_THREADS: usize = 4;
/// Max cached responses.
const CACHE_ENTRIES: usize = 256;
/// Largest request body read when no ingest core (the only consumer of
/// bodies) is attached.
const MAX_BODY_BYTES_WITHOUT_INGEST: usize = 4 * 1024 * 1024;
/// Hard ceiling on requests served per connection before forcing a
/// close (bounds how long one client can pin a worker).
const MAX_REQUESTS_PER_CONN: usize = 256;
/// Per-read timeout; an idle keep-alive connection is dropped after
/// this long with no bytes.
const READ_TIMEOUT: Duration = Duration::from_millis(500);
/// Oversized request headers are rejected outright.
const MAX_HEADER_BYTES: usize = 64 * 1024;

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Serve one connection until the client closes, asks to close, idles
/// past the read timeout, or exhausts the per-connection budget.
fn serve_connection(
    mut stream: TcpStream,
    table: &JobTable,
    store: Option<&RwLock<Tsdb>>,
    cache: &ResponseCache,
    met: &ServeMetrics,
    ingest: Option<&IngestCore>,
    max_body_bytes: usize,
) {
    let _conn = ConnGuard::enter(&met.active_connections);
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
    {
        return;
    }
    // Responses are latency-bound request/reply exchanges; leaving Nagle
    // on costs a delayed-ACK round (~40 ms) per keep-alive request.
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 4096];
    let mut served = 0usize;
    loop {
        let header_end = loop {
            if let Some(ix) = find_header_end(&buf) {
                break Some(ix);
            }
            if buf.len() > MAX_HEADER_BYTES {
                let resp = Response::error(400, "request header too large");
                let _ = stream.write_all(resp.to_http_with(false).as_bytes());
                return;
            }
            match stream.read(&mut scratch) {
                Ok(0) => break None,
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
                Err(_) => break None, // timeout or reset
            }
        };
        let Some(end) = header_end else {
            // EOF/timeout before a blank line. Old-style clients send a
            // bare request line and wait; answer it once and close.
            if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&buf[..nl]);
                let resp = respond(table, store, cache, met, &Request::parse(line.trim_end()));
                let _ = stream.write_all(resp.to_http_with(false).as_bytes());
            }
            return;
        };
        let head = String::from_utf8_lossy(&buf[..end]).into_owned();
        buf.drain(..end + 4);
        let mut lines = head.lines();
        let request_line = lines.next().unwrap_or("").trim_end();
        let req = Request::parse(request_line);
        // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an
        // explicit Connection header overrides either way.
        let mut keep = request_line.ends_with("HTTP/1.1");
        let mut content_length = 0usize;
        let mut bad_length = false;
        for header in lines {
            let Some((name, value)) = header.split_once(':') else { continue };
            let name = name.trim();
            if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep = true;
                }
            } else if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<usize>() {
                    Ok(n) => content_length = n,
                    Err(_) => bad_length = true,
                }
            }
        }
        if bad_length {
            let resp = Response::error(400, "unparseable content-length");
            let _ = stream.write_all(resp.to_http_with(false).as_bytes());
            return;
        }
        if content_length > max_body_bytes {
            let resp = Response::error(413, &format!("body exceeds {max_body_bytes} bytes"));
            met.record(&req, 0, &resp);
            let _ = stream.write_all(resp.to_http_with(false).as_bytes());
            return;
        }
        // Read the declared body for every method — bytes left on the
        // stream would desync the next keep-alive request.
        let mut body: Vec<u8> = Vec::new();
        if content_length > 0 {
            while buf.len() < content_length {
                match stream.read(&mut scratch) {
                    Ok(0) => return,
                    Ok(n) => buf.extend_from_slice(&scratch[..n]),
                    Err(_) => return, // timeout mid-body
                }
            }
            body = buf.drain(..content_length).collect();
        }
        let resp = if req.method == "POST" {
            respond_post(ingest, met, &req, &body)
        } else {
            respond(table, store, cache, met, &req)
        };
        served += 1;
        let keep = keep && served < MAX_REQUESTS_PER_CONN;
        if stream.write_all(resp.to_http_with(keep).as_bytes()).is_err() || !keep {
            return;
        }
    }
}

/// The pooled accept loop: each worker owns a listener clone and
/// accepts independently until `shutdown` flips. Binds are the caller's
/// job so tests can use an ephemeral port. The store is one concurrent
/// writers may mutate: each request takes the read lock, and the
/// response cache keys on the store's mutation generation so writes
/// invalidate it.
pub fn serve(
    table: &JobTable,
    store: Option<&RwLock<Tsdb>>,
    listener: TcpListener,
    shutdown: &AtomicBool,
    opts: &ServeOptions,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut listeners = Vec::with_capacity(WORKER_THREADS);
    for _ in 1..WORKER_THREADS {
        listeners.push(listener.try_clone()?);
    }
    listeners.push(listener);
    let cache = ResponseCache::new(CACHE_ENTRIES);
    let met = ServeMetrics::new(opts);
    let ingest = opts.ingest.as_deref();
    // Beyond this the server answers 413 *without reading the body* and
    // closes the connection.
    let max_body_bytes = ingest.map_or(MAX_BODY_BYTES_WITHOUT_INGEST, IngestCore::max_batch_bytes);
    std::thread::scope(|scope| {
        for l in listeners {
            let cache = &cache;
            let met = &met;
            scope.spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    match l.accept() {
                        Ok((stream, _)) => {
                            serve_connection(
                                stream,
                                table,
                                store,
                                cache,
                                met,
                                ingest,
                                max_body_bytes,
                            );
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => {
                            // Transient accept errors (e.g. aborted
                            // handshake) should not kill the worker.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
            });
        }
    });
    // Workers have stopped accepting; flush every admitted batch into
    // the store before returning. A 200 already promised durability —
    // the drain keeps that promise across shutdown.
    if let Some(ingest) = &opts.ingest {
        ingest.drain();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::metric::KeyMetricVec;
    use supremm_metrics::{ExtendedMetric, JobId, ScienceField, Timestamp, UserId};
    use supremm_warehouse::record::{ExitKind, JobRecord};

    fn table() -> JobTable {
        let job = |id: u64, app: &str, idle: f64| {
            let mut metrics = KeyMetricVec::default();
            metrics.set(KeyMetric::CpuIdle, idle);
            JobRecord {
                job: JobId(id),
                user: UserId(id as u32 % 3),
                app: Some(app.to_string()),
                science: ScienceField::Physics,
                queue: "normal".into(),
                submit: Timestamp(0),
                start: Timestamp(0),
                end: Timestamp(3600),
                nodes: 2,
                exit: ExitKind::Completed,
                metrics,
                extended: [0.0; ExtendedMetric::ALL.len()],
                flops_valid: true,
                samples: 5,
                coverage_gaps: 0,
            }
        };
        JobTable::new(vec![job(1, "NAMD", 0.1), job(2, "AMBER", 0.4), job(3, "NAMD", 0.2)])
    }

    /// [`handle`] with no store and a throwaway registry.
    fn handle_line(table: &JobTable, request_line: &str) -> Response {
        handle(table, None, &ObsRegistry::new(), request_line)
    }

    #[test]
    fn healthz_and_summary() {
        let t = table();
        let r = handle_line(&t, "GET /healthz HTTP/1.0");
        assert_eq!(r.status, 200);
        let r = handle_line(&t, "GET /v1/summary HTTP/1.0");
        assert_eq!(r.status, 200);
        let v = supremm_metrics::json::Value::parse(&r.body).unwrap();
        assert_eq!(v["jobs"], 3u64);
        assert_eq!(v["users"], 3u64);
    }

    #[test]
    fn query_endpoint_runs_framework_queries() {
        let t = table();
        let r =
            handle_line(&t, "GET /v1/query?dimension=application&statistic=node_hours HTTP/1.0");
        assert_eq!(r.status, 200, "{}", r.body);
        let v = supremm_metrics::json::Value::parse(&r.body).unwrap();
        assert_eq!(v["rows"][0][0], "NAMD");
        assert_eq!(v["rows"][0][1], 4.0);
    }

    #[test]
    fn weighted_mean_needs_metric_param() {
        let t = table();
        let bad = handle_line(&t, "GET /v1/query?dimension=none&statistic=weighted_mean HTTP/1.0");
        assert_eq!(bad.status, 400);
        let good = handle_line(
            &t,
            "GET /v1/query?dimension=none&statistic=weighted_mean&metric=cpu_idle HTTP/1.0",
        );
        assert_eq!(good.status, 200);
        let v = supremm_metrics::json::Value::parse(&good.body).unwrap();
        let idle = v["rows"][0][1].as_f64().unwrap();
        assert!((idle - (0.1 + 0.4 + 0.2) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn top_truncates_and_errors_are_clean() {
        let t = table();
        let r = handle_line(&t, "GET /v1/query?dimension=user&statistic=job_count&top=1 HTTP/1.0");
        let v = supremm_metrics::json::Value::parse(&r.body).unwrap();
        assert_eq!(v["rows"].as_array().unwrap().len(), 1);
        assert_eq!(handle_line(&t, "GET /nope HTTP/1.0").status, 404);
        assert_eq!(handle_line(&t, "POST /healthz HTTP/1.0").status, 400);
        assert_eq!(handle_line(&t, "garbage").status, 400);
        assert_eq!(
            handle_line(&t, "GET /v1/query?dimension=bogus&statistic=job_count HTTP/1.0").status,
            400
        );
    }

    #[test]
    fn garbage_query_strings_get_a_4xx() {
        let t = table();
        for bad in [
            // Query segment with no `=` at all.
            "GET /v1/series?garbage HTTP/1.0",
            "GET /v1/query?dimension HTTP/1.0",
            // Keys no endpoint knows — a typo must not silently widen
            // the result set.
            "GET /v1/series?nosuchparam=1 HTTP/1.0",
            "GET /v1/query?dimension=user&statistic=job_count&metrc=cpu_idle HTTP/1.0",
            // Well-known key, junk value.
            "GET /v1/query?dimension=user&statistic=job_count&top=abc HTTP/1.0",
            "GET /v1/query?dimension=user&statistic=job_count&top=-1 HTTP/1.0",
        ] {
            let r = handle_line(&t, bad);
            assert_eq!(r.status, 400, "{bad} -> {}", r.body);
        }
        // Empty segments (trailing `&`) are tolerated, not errors.
        let ok = handle_line(&t, "GET /v1/query?dimension=user&statistic=job_count& HTTP/1.0");
        assert_eq!(ok.status, 200, "{}", ok.body);
    }

    #[test]
    fn duplicate_query_parameters_get_a_400() {
        let t = table();
        for bad in [
            "GET /v1/series?host=a&host=b HTTP/1.0",
            "GET /v1/series?host=a&metric=m&host=a HTTP/1.0",
            "GET /v1/query?dimension=user&statistic=job_count&dimension=queue HTTP/1.0",
            "GET /v1/query?top=1&top=2&dimension=user&statistic=job_count HTTP/1.0",
        ] {
            let r = handle_line(&t, bad);
            assert_eq!(r.status, 400, "{bad} -> {}", r.body);
            assert!(r.body.contains("duplicate"), "{bad} -> {}", r.body);
        }
    }

    #[test]
    fn series_endpoint_answers_from_the_store() {
        let dir = std::env::temp_dir().join(format!("serve-series-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = Tsdb::open(&dir).unwrap();
        db.append_batch("c0000", "cpu_user", &[(0, 0.25), (600, 0.75), (1200, 0.5)]).unwrap();
        db.flush().unwrap();
        let t = table();
        // Without a store attached the endpoint is a clean 404.
        assert_eq!(handle_line(&t, "GET /v1/series HTTP/1.0").status, 404);
        let r = handle(
            &t,
            Some(&db),
            &ObsRegistry::new(),
            "GET /v1/series?host=c0000&metric=cpu_user&t0=0&t1=600 HTTP/1.0",
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["series"][0]["host"], "c0000");
        assert_eq!(v["series"][0]["metric"], "cpu_user");
        assert_eq!(v["series"][0]["points"].as_array().unwrap().len(), 2);
        assert_eq!(v["series"][0]["points"][1][1], 0.75);
        // Downsampling folds all three samples into one mean bin.
        let r = handle(&t, Some(&db), &ObsRegistry::new(), "GET /v1/series?bin=1800 HTTP/1.0");
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["series"][0]["points"][0][1], 0.5);
        // Bad parameters are clean 400s.
        for bad in [
            "GET /v1/series?t0=x HTTP/1.0",
            "GET /v1/series?bin=0 HTTP/1.0",
            "GET /v1/series?bin=600&agg=median HTTP/1.0",
        ] {
            assert_eq!(handle(&t, Some(&db), &ObsRegistry::new(), bad).status, 400, "{bad}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn response_cache_is_lru_and_generation_keyed() {
        let cache = ResponseCache::new(2);
        let resp = |s: &str| Response::json(200, s.to_string());
        cache.put("a".into(), 1, resp("A"));
        cache.put("b".into(), 1, resp("B"));
        assert_eq!(cache.get("a", 1).unwrap().body, "A");
        // Inserting a third entry evicts the least recently used: "b".
        cache.put("c".into(), 1, resp("C"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b", 1).is_none());
        assert!(cache.get("a", 1).is_some());
        // A newer generation misses and drops the stale entry.
        assert!(cache.get("a", 2).is_none());
        assert!(cache.get("a", 1).is_none(), "stale entry evicted on mismatch");
        // Capacity 0 holds nothing.
        let off = ResponseCache::new(0);
        off.put("x".into(), 1, resp("X"));
        assert!(off.get("x", 1).is_none());
        assert!(off.is_empty());
    }

    /// Fresh isolated metrics (and options) for pure-function tests.
    fn test_metrics() -> (ServeOptions, ServeMetrics) {
        let opts = ServeOptions {
            obs: std::sync::Arc::new(ObsRegistry::new()),
            ..ServeOptions::default()
        };
        let met = ServeMetrics::new(&opts);
        (opts, met)
    }

    #[test]
    fn cached_series_responses_invalidate_on_store_writes() {
        let dir = std::env::temp_dir().join(format!("serve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = Tsdb::open(&dir).unwrap();
        db.append_batch("h", "m", &[(0, 1.0)]).unwrap();
        let db = RwLock::new(db);
        let t = table();
        let cache = ResponseCache::new(16);
        let (_opts, met) = test_metrics();
        let line = Request::parse("GET /v1/series?host=h&metric=m HTTP/1.1");
        let first = respond(&t, Some(&db), &cache, &met, &line);
        assert_eq!(first.status, 200);
        // Same generation: served from cache, bit-identical.
        let again = respond(&t, Some(&db), &cache, &met, &line);
        assert_eq!(first, again);
        assert_eq!(met.obs.snapshot().counter("serve_cache_hits_total"), Some(1));
        // Equivalent query, different parameter order: same cache slot.
        let reordered = respond(
            &t,
            Some(&db),
            &cache,
            &met,
            &Request::parse("GET /v1/series?metric=m&host=h HTTP/1.1"),
        );
        assert_eq!(reordered, first);
        assert_eq!(met.obs.snapshot().counter("serve_cache_hits_total"), Some(2));
        // A write bumps the generation; the next read recomputes.
        db.write().unwrap().append_batch("h", "m", &[(600, 2.0)]).unwrap();
        let after = respond(&t, Some(&db), &cache, &met, &line);
        assert_ne!(after, first, "stale response must not be served");
        assert!(after.body.contains("600"));
        // Misses: the first read and the one after the write.
        let snap = met.obs.snapshot();
        assert_eq!(snap.counter("serve_cache_hits_total"), Some(2));
        assert_eq!(snap.counter("serve_cache_misses_total"), Some(2));
        assert_eq!(snap.counter("serve_requests_total{endpoint=\"v1_series\"}"), Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_endpoint_renders_prometheus_and_json() {
        let t = table();
        let obs = ObsRegistry::new();
        obs.counter("pipeline_files_consumed_total").add(5);
        obs.histogram("tsdb_wal_append_micros").observe(7);
        obs.event("slow_query", "/v1/series?name=cpu_user took 250000us (status 200)");
        let r = handle(&t, None, &obs, "GET /v1/metrics HTTP/1.1");
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.content_type, "text/plain; version=0.0.4");
        assert!(r.body.contains("pipeline_files_consumed_total 5\n"), "{}", r.body);
        assert!(r.body.contains("tsdb_wal_append_micros_count 1\n"), "{}", r.body);

        let r = handle(&t, None, &obs, "GET /v1/metrics?format=json HTTP/1.1");
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["counters"]["pipeline_files_consumed_total"], 5.0);
        assert_eq!(v["histograms"]["tsdb_wal_append_micros"]["count"], 1.0);
        assert_eq!(v["events"][0]["kind"], "slow_query");

        // Unknown formats and parameters are clean 400s.
        let bad = handle(&t, None, &obs, "GET /v1/metrics?format=xml HTTP/1.1");
        assert_eq!(bad.status, 400);
        let bad = handle(&t, None, &obs, "GET /v1/metrics?fmt=json HTTP/1.1");
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn metrics_endpoint_is_never_cached() {
        let key = |line| cache_key(&Request::parse(line));
        assert_eq!(key("GET /v1/metrics HTTP/1.1"), None);
        assert_eq!(key("GET /v1/metrics?format=json HTTP/1.1"), None);
        assert!(key("GET /v1/series?host=h HTTP/1.1").is_some());
    }

    #[test]
    fn slow_requests_land_in_the_event_log() {
        let t = table();
        let (opts, _) = test_metrics();
        // Threshold 0: every request is "slow".
        let opts = ServeOptions { slow_query_micros: 0, ..opts };
        let met = ServeMetrics::new(&opts);
        let cache = ResponseCache::new(CACHE_ENTRIES);
        let r = respond(&t, None, &cache, &met, &Request::parse("GET /v1/summary HTTP/1.1"));
        assert_eq!(r.status, 200);
        let snap = met.obs.snapshot();
        assert_eq!(snap.counter("serve_slow_queries_total"), Some(1));
        let ev = snap.events.iter().find(|e| e.kind == "slow_query").expect("slow_query event");
        assert!(ev.detail.contains("/v1/summary"), "{}", ev.detail);
        assert!(ev.detail.contains("status 200"), "{}", ev.detail);
    }

    #[test]
    fn request_metrics_tally_status_classes_and_bytes() {
        let t = table();
        let (_opts, met) = test_metrics();
        let cache = ResponseCache::new(CACHE_ENTRIES);
        let get = |line| respond(&t, None, &cache, &met, &Request::parse(line));
        let ok = get("GET /healthz HTTP/1.1");
        let notfound = get("GET /nope HTTP/1.1");
        let bad = get("POST /healthz HTTP/1.1");
        let snap = met.obs.snapshot();
        // Endpoint labels follow the path (the rejected POST still
        // counts against /healthz — it consumed that handler's time).
        assert_eq!(snap.counter("serve_requests_total{endpoint=\"healthz\"}"), Some(2));
        assert_eq!(snap.counter("serve_requests_total{endpoint=\"other\"}"), Some(1));
        assert_eq!(snap.counter("serve_http_4xx_total"), Some(2));
        assert_eq!(snap.counter("serve_http_5xx_total"), Some(0));
        assert_eq!(
            snap.counter("serve_response_bytes_total"),
            Some((ok.body.len() + notfound.body.len() + bad.body.len()) as u64)
        );
        assert!(snap
            .histogram("serve_request_micros{endpoint=\"healthz\"}")
            .is_some_and(|h| h.count == 2));
    }

    /// Read exactly one HTTP response, reassembled as head + body.
    fn read_response(stream: &mut std::net::TcpStream) -> String {
        let (_, head, body) = supremm_relay::agent::read_http_response(stream).unwrap();
        format!("{head}\r\n\r\n{body}")
    }

    #[test]
    fn live_socket_round_trip() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let t = table();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle_thread = std::thread::spawn(move || {
            let _ = serve(&t, None, listener, &flag, &ServeOptions::default());
        });

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /v1/summary HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        assert!(response.contains("\"jobs\":3"), "{response}");

        shutdown.store(true, Ordering::Relaxed);
        handle_thread.join().unwrap();
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let t = table();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle_thread = std::thread::spawn(move || {
            let _ = serve(&t, None, listener, &flag, &ServeOptions::default());
        });

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        // HTTP/1.1 defaults to keep-alive: three requests, one socket.
        for _ in 0..3 {
            stream.write_all(b"GET /v1/summary HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
            let response = read_response(&mut stream);
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.contains("Connection: keep-alive"), "{response}");
            assert!(response.contains("\"jobs\":3"), "{response}");
        }
        // An explicit Connection: close is honoured and the socket ends.
        stream.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let response = read_response(&mut stream);
        assert!(response.contains("Connection: close"), "{response}");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "server should close after Connection: close");

        shutdown.store(true, Ordering::Relaxed);
        handle_thread.join().unwrap();
    }

    #[test]
    fn parallel_connections_are_served_concurrently() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let t = table();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let server = std::thread::spawn(move || {
            let _ = serve(&t, None, listener, &flag, &ServeOptions::default());
        });

        let clients: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = std::net::TcpStream::connect(addr).unwrap();
                    stream.write_all(b"GET /v1/summary HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
                    let response = read_response(&mut stream);
                    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap();
    }

    #[test]
    fn shared_store_serves_and_sees_writes() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("serve-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = Tsdb::open(&dir).unwrap();
        db.append_batch("h", "m", &[(0, 1.0)]).unwrap();
        let store = Arc::new(RwLock::new(db));
        let t = table();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));

        let flag = shutdown.clone();
        let server_store = store.clone();
        let server = std::thread::spawn(move || {
            let _ = serve(&t, Some(&server_store), listener, &flag, &ServeOptions::default());
        });

        let fetch = || {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"GET /v1/series?host=h&metric=m HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            read_response(&mut stream)
        };
        let before = fetch();
        assert!(before.contains("HTTP/1.1 200 OK"), "{before}");
        // Cached: an identical fetch is consistent.
        assert_eq!(fetch(), before);
        // A concurrent write invalidates the cache via the generation.
        store
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .append_batch("h", "m", &[(600, 2.0)])
            .unwrap();
        let after = fetch();
        assert_ne!(after, before);
        assert!(after.contains("600"), "{after}");

        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_after_headers_are_emitted() {
        let r = Response::error(429, "busy").with_retry_after(1500);
        let http = r.to_http_with(true);
        assert!(http.starts_with("HTTP/1.1 429 Too Many Requests"), "{http}");
        assert!(http.contains("Retry-After: 2\r\n"), "{http}");
        assert!(http.contains("X-Retry-After-Ms: 1500\r\n"), "{http}");
        let plain = Response::error(400, "x").to_http_with(false);
        assert!(!plain.contains("Retry-After"), "{plain}");
    }

    #[test]
    fn write_outcomes_map_to_http_statuses() {
        let dir = std::env::temp_dir().join(format!("serve-post-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let obs: ObsHandle = Arc::new(ObsRegistry::new());
        let store = Arc::new(RwLock::new(Tsdb::open(&dir).unwrap()));
        let core = IngestCore::start(
            store,
            supremm_relay::IngestOptions { obs: obs.clone(), ..Default::default() },
        );
        let opts = ServeOptions { obs, ..ServeOptions::default() };
        let met = ServeMetrics::new(&opts);

        let post = |core: Option<&IngestCore>, line, body: &[u8]| {
            respond_post(core, &met, &Request::parse(line), body)
        };
        // No ingest core attached: 503.
        let r = post(None, "POST /v1/write HTTP/1.1", b"");
        assert_eq!(r.status, 503);
        // POSTs to other paths are clean 404s.
        let r = post(Some(&core), "POST /healthz HTTP/1.1", b"");
        assert_eq!(r.status, 404);
        // Garbage frame: 400.
        let r = post(Some(&core), "POST /v1/write HTTP/1.1", b"junk");
        assert_eq!(r.status, 400);
        // A valid frame acks with its seq.
        let frame = supremm_relay::encode_batch(&supremm_relay::Batch {
            agent_id: "a1".into(),
            batch_seq: 7,
            records: vec![supremm_relay::BatchRecord {
                host: "h".into(),
                metric: "m".into(),
                samples: vec![(600, 1.5f64.to_bits())],
            }],
        })
        .unwrap();
        let r = post(Some(&core), "POST /v1/write HTTP/1.1", &frame);
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"acked\":7"), "{}", r.body);
        assert!(r.body.contains("\"deduped\":false"), "{}", r.body);
        // Draining: 429 with a retry hint.
        core.begin_drain();
        let r = post(Some(&core), "POST /v1/write HTTP/1.1", &frame);
        assert_eq!(r.status, 429);
        assert!(r.retry_after_ms.is_some());
        core.drain();
        let snap = met.obs.snapshot();
        // Four of the five POSTs hit /v1/write (one went to /healthz).
        assert_eq!(snap.counter("serve_requests_total{endpoint=\"v1_write\"}"), Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn post_write_ingests_and_oversized_bodies_get_413() {
        use std::sync::atomic::AtomicBool;

        let dir = std::env::temp_dir().join(format!("serve-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(RwLock::new(Tsdb::open(&dir).unwrap()));
        let obs: ObsHandle = Arc::new(ObsRegistry::new());
        let core = IngestCore::start(
            store.clone(),
            supremm_relay::IngestOptions {
                obs: obs.clone(),
                max_batch_bytes: 4096,
                ..Default::default()
            },
        );
        let t = table();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let opts = ServeOptions { obs, ingest: Some(core), ..ServeOptions::default() };
        let server_store = store.clone();
        let server = std::thread::spawn(move || {
            let _ = serve(&t, Some(&server_store), listener, &flag, &opts);
        });

        let frame = supremm_relay::encode_batch(&supremm_relay::Batch {
            agent_id: "a1".into(),
            batch_seq: 0,
            records: vec![supremm_relay::BatchRecord {
                host: "h".into(),
                metric: "m".into(),
                samples: vec![(600, 1.25f64.to_bits())],
            }],
        })
        .unwrap();
        let head = format!(
            "POST /v1/write HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            frame.len()
        );
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&frame).unwrap();
        let resp = read_response(&mut stream);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"acked\":0"), "{resp}");
        // Retry of the same frame over the same keep-alive socket: the
        // ack repeats but the store is not double-written.
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&frame).unwrap();
        let resp = read_response(&mut stream);
        assert!(resp.contains("\"deduped\":true"), "{resp}");
        // GETs interleave on the same connection after a POST body.
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let resp = read_response(&mut stream);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        // Over-limit body: refused before it is read, connection closes.
        stream
            .write_all(b"POST /v1/write HTTP/1.1\r\nHost: t\r\nContent-Length: 5000\r\n\r\n")
            .unwrap();
        let resp = read_response(&mut stream);
        assert!(resp.starts_with("HTTP/1.1 413 Payload Too Large"), "{resp}");
        assert!(resp.contains("Connection: close"), "{resp}");

        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap();
        // The serve loop drained the core on exit: the acked batch is in
        // the store, exactly once.
        let db = store.read().unwrap_or_else(|e| e.into_inner());
        let series = db.query(&Selector::default(), 0, u64::MAX).unwrap();
        let total: usize = series.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 1, "acked batch must land exactly once");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
