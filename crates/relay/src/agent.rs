//! The per-host collector agent: raw archive text in, acked remote-write
//! batches out.
//!
//! The agent reduces each raw file to its per-interval metric series via
//! [`supremm_taccstats::derive::file_extended_series`] — the *same*
//! function the batch store path calls — so a store fed by agents is
//! bit-identical to one fed from disk by construction. Records
//! accumulate until a size threshold ([`AgentOptions::batch_max_samples`]
//! / `BATCH_MAX_BYTES`) or an age threshold (`BATCH_MAX_AGE`, checked by
//! [`Agent::tick`]) seals them into a numbered batch.
//!
//! Sealed batches are appended to the crash-safe [`Spool`] *before* the
//! first send attempt; [`Agent::flush`] syncs the spool, which is the
//! point at which offered data is safe across an agent crash. Sends go
//! over plain HTTP/1.1 (`POST /v1/write`) with exponential backoff and
//! full jitter; `429 Retry-After` is honored. On restart the spool's
//! surviving batches are resent with their original `(agent_id, seq)`
//! keys — the server's dedup window makes that exactly-once in the
//! store.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use supremm_metrics::rng::SplitMix64;
use supremm_obs::{Gauge, ObsHandle};
use supremm_taccstats::derive::file_extended_series;

use crate::spool::Spool;
use crate::wire::{encode_batch, Batch, BatchRecord};

/// Seal the pending batch at roughly this many encoded payload bytes.
const BATCH_MAX_BYTES: usize = 256 * 1024;
/// Seal the pending batch once its oldest record is this old (see
/// [`Agent::tick`]).
const BATCH_MAX_AGE: Duration = Duration::from_millis(500);
/// Socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Seed of the jitter RNG, mixed with the agent id so agents draw apart.
const JITTER_SEED: u64 = 0x5eed;

/// Knobs for one collector agent.
#[derive(Clone)]
pub struct AgentOptions {
    /// Seal the pending batch at this many samples (or at
    /// `BATCH_MAX_BYTES`, or `BATCH_MAX_AGE`).
    pub batch_max_samples: usize,
    /// First backoff ceiling; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling cap.
    pub backoff_max: Duration,
    /// Consecutive failures before [`Agent::drain`] gives up.
    pub max_attempts: u32,
    /// Telemetry registry for agent-side counters and gauges.
    pub obs: ObsHandle,
}

impl Default for AgentOptions {
    fn default() -> AgentOptions {
        AgentOptions {
            batch_max_samples: 4096,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(2),
            max_attempts: 64,
            obs: supremm_obs::global(),
        }
    }
}

struct AgentMetrics {
    sent: supremm_obs::Counter,
    acked: supremm_obs::Counter,
    retried: supremm_obs::Counter,
    deduped: supremm_obs::Counter,
    send_errors: supremm_obs::Counter,
    poisoned: supremm_obs::Counter,
    samples_acked: supremm_obs::Counter,
    spool_depth: Gauge,
    spool_bytes: Gauge,
    obs: ObsHandle,
}

impl AgentMetrics {
    fn new(obs: ObsHandle) -> AgentMetrics {
        AgentMetrics {
            sent: obs.counter("relay_agent_batches_sent_total"),
            acked: obs.counter("relay_agent_batches_acked_total"),
            retried: obs.counter("relay_agent_batches_retried_total"),
            deduped: obs.counter("relay_agent_batches_deduped_total"),
            send_errors: obs.counter("relay_agent_send_errors_total"),
            poisoned: obs.counter("relay_agent_batches_poisoned_total"),
            samples_acked: obs.counter("relay_agent_samples_acked_total"),
            spool_depth: obs.gauge("relay_agent_spool_depth"),
            spool_bytes: obs.gauge("relay_agent_spool_bytes"),
            obs,
        }
    }
}

/// Outcome of one send attempt, as told by the server.
enum SendResult {
    Acked {
        deduped: bool,
    },
    Busy {
        retry_after_ms: u64,
    },
    /// Server says the batch itself is bad — retrying cannot help.
    Poisoned {
        status: u16,
    },
}

/// One collector agent bound to a server address and a spool file.
pub struct Agent {
    id: String,
    server: String,
    opts: AgentOptions,
    spool: Spool,
    /// Spooled, not-yet-acked batches in seq order:
    /// `(seq, frame, sample_count)`.
    outstanding: VecDeque<(u64, Vec<u8>, u64)>,
    /// Seqs recovered from the spool at open (resent, then deduped
    /// server-side if they had been acked before the crash).
    recovered_seqs: Vec<u64>,
    pending: Vec<BatchRecord>,
    pending_samples: usize,
    pending_bytes: usize,
    pending_since: Option<Instant>,
    spool_unsynced: bool,
    next_seq: u64,
    max_acked: Option<u64>,
    conn: Option<TcpStream>,
    rng: SplitMix64,
    /// Consecutive failed attempts (drives the backoff exponent).
    attempt: u32,
    met: AgentMetrics,
}

impl Agent {
    /// Open an agent, recovering any batches a previous incarnation left
    /// in the spool. Those are queued for (re)send ahead of new data.
    pub fn open(
        id: &str,
        server: &str,
        spool_path: &Path,
        opts: AgentOptions,
    ) -> io::Result<Agent> {
        let recovery = Spool::open(spool_path)?;
        let mut outstanding = VecDeque::new();
        let mut recovered_seqs = Vec::new();
        let mut next_seq = recovery.spool.base_seq();
        for (seq, frame) in recovery.batches {
            let samples =
                crate::wire::decode_batch(&frame).map(|b| b.sample_count() as u64).unwrap_or(0);
            recovered_seqs.push(seq);
            next_seq = next_seq.max(seq + 1);
            outstanding.push_back((seq, frame, samples));
        }
        let met = AgentMetrics::new(opts.obs.clone());
        let rng = JITTER_SEED ^ id.bytes().fold(0u64, |h, b| h.rotate_left(7) ^ b as u64);
        let agent = Agent {
            id: id.to_string(),
            server: server.to_string(),
            opts,
            spool: recovery.spool,
            outstanding,
            recovered_seqs,
            pending: Vec::new(),
            pending_samples: 0,
            pending_bytes: 0,
            pending_since: None,
            spool_unsynced: false,
            next_seq,
            max_acked: None,
            conn: None,
            rng: SplitMix64::new(rng),
            attempt: 0,
            met,
        };
        agent.update_gauges();
        Ok(agent)
    }

    /// Highest batch seq acked by the server this incarnation.
    pub fn max_acked(&self) -> Option<u64> {
        self.max_acked
    }

    /// Seqs the spool carried over from a previous incarnation.
    pub fn recovered_seqs(&self) -> &[u64] {
        &self.recovered_seqs
    }

    fn update_gauges(&self) {
        self.met.spool_depth.set(self.outstanding.len() as i64);
        self.met.spool_bytes.set(self.spool.bytes().min(i64::MAX as u64) as i64);
    }

    /// Offer one raw archive file. Its interval series are reduced and
    /// appended to the pending batch; full batches seal to the spool
    /// immediately. Durable only after [`Agent::flush`] (or a
    /// size-triggered seal followed by flush).
    pub fn offer_file(&mut self, host: &str, text: &str) -> io::Result<()> {
        for (metric, samples) in file_extended_series(text) {
            let bits: Vec<(u64, u64)> = samples.iter().map(|&(ts, v)| (ts, v.to_bits())).collect();
            self.pending_samples += bits.len();
            // Rough encoded size: names + ~10 bytes/sample worst case.
            self.pending_bytes += host.len() + metric.name().len() + 10 * bits.len() + 8;
            self.pending.push(BatchRecord {
                host: host.to_string(),
                metric: metric.name().to_string(),
                samples: bits,
            });
            if self.pending_since.is_none() {
                self.pending_since = Some(Instant::now());
            }
            if self.pending_samples >= self.opts.batch_max_samples
                || self.pending_bytes >= BATCH_MAX_BYTES
            {
                self.seal()?;
            }
        }
        Ok(())
    }

    /// Seal the pending records into a numbered, spooled batch.
    fn seal(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = Batch {
            agent_id: self.id.clone(),
            batch_seq: self.next_seq,
            records: std::mem::take(&mut self.pending),
        };
        let samples = batch.sample_count() as u64;
        let frame = encode_batch(&batch)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.spool.append_frame(&frame)?;
        self.spool_unsynced = true;
        self.outstanding.push_back((self.next_seq, frame, samples));
        self.next_seq += 1;
        self.pending_samples = 0;
        self.pending_bytes = 0;
        self.pending_since = None;
        self.update_gauges();
        Ok(())
    }

    /// Age-based sealing: call periodically while streaming. Seals the
    /// pending batch once it is older than `BATCH_MAX_AGE` and makes one
    /// non-blocking send attempt at the backlog.
    pub fn tick(&mut self) -> io::Result<()> {
        if let Some(since) = self.pending_since {
            if since.elapsed() >= BATCH_MAX_AGE {
                self.seal()?;
            }
        }
        if !self.outstanding.is_empty() {
            self.sync_spool()?;
            let _ = self.pump_once();
        }
        Ok(())
    }

    /// Seal pending records and fsync the spool. When this returns, all
    /// offered data survives an agent crash.
    pub fn flush(&mut self) -> io::Result<()> {
        self.seal()?;
        self.sync_spool()
    }

    fn sync_spool(&mut self) -> io::Result<()> {
        if self.spool_unsynced {
            self.spool.sync()?;
            self.spool_unsynced = false;
        }
        Ok(())
    }

    /// Full-jitter exponential backoff: uniform in `[0, cap]` where
    /// `cap = min(backoff_max, backoff_base · 2^attempt)`.
    fn backoff_delay(&mut self) -> Duration {
        let base = self.opts.backoff_base.as_micros() as u64;
        let max = self.opts.backoff_max.as_micros() as u64;
        let cap = base.saturating_mul(1u64 << self.attempt.min(20)).min(max).max(1);
        Duration::from_micros(self.rng.below(cap))
    }

    /// Flush everything offered so far and push until the server has
    /// acked it all, backing off between failures. Errors out after
    /// `max_attempts` consecutive failures.
    pub fn drain(&mut self) -> io::Result<()> {
        self.flush()?;
        let mut failures = 0u32;
        while !self.outstanding.is_empty() {
            match self.pump_once() {
                Ok(true) => failures = 0,
                Ok(false) | Err(_) => {
                    failures += 1;
                    if failures > self.opts.max_attempts {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "agent {}: server unreachable after {} attempts",
                                self.id, failures
                            ),
                        ));
                    }
                    let delay = self.backoff_delay();
                    std::thread::sleep(delay);
                }
            }
        }
        Ok(())
    }

    /// One send attempt at the head of the backlog. `Ok(true)` means the
    /// head was resolved (acked or poisoned); `Ok(false)` means the
    /// server asked us to back off; `Err` is a transport failure.
    fn pump_once(&mut self) -> io::Result<bool> {
        let Some((seq, frame, samples)) = self.outstanding.front().cloned() else {
            return Ok(true);
        };
        self.met.sent.inc();
        match self.send_frame(&frame) {
            Ok(SendResult::Acked { deduped }) => {
                self.max_acked = Some(self.max_acked.map_or(seq, |m| m.max(seq)));
                self.attempt = 0;
                self.met.acked.inc();
                self.met.samples_acked.add(samples);
                if deduped {
                    self.met.deduped.inc();
                }
                self.pop_resolved()?;
                Ok(true)
            }
            Ok(SendResult::Busy { retry_after_ms }) => {
                self.met.retried.inc();
                self.attempt = self.attempt.saturating_add(1);
                if retry_after_ms > 0 {
                    std::thread::sleep(Duration::from_millis(retry_after_ms));
                }
                Ok(false)
            }
            Ok(SendResult::Poisoned { status }) => {
                // Unacceptable batch (corrupt frame / oversized): no
                // retry can fix it. Drop it and keep the line moving.
                self.met.poisoned.inc();
                self.met.obs.event(
                    "relay_poisoned_batch",
                    format!("agent {}: batch seq {} rejected with {}", self.id, seq, status),
                );
                self.pop_resolved()?;
                Ok(true)
            }
            Err(e) => {
                self.conn = None;
                self.met.send_errors.inc();
                self.met.retried.inc();
                self.attempt = self.attempt.saturating_add(1);
                Err(e)
            }
        }
    }

    /// Drop the resolved head of the backlog. Once nothing is owed, the
    /// spool resets, so a restart resends nothing.
    fn pop_resolved(&mut self) -> io::Result<()> {
        self.outstanding.pop_front();
        if self.outstanding.is_empty() && self.spool.entries() > 0 {
            self.spool.reset(self.next_seq)?;
        }
        self.update_gauges();
        Ok(())
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.server)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.conn = Some(stream);
        }
        match self.conn.as_mut() {
            Some(s) => Ok(s),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        }
    }

    /// POST one frame, parse the HTTP response.
    fn send_frame(&mut self, frame: &[u8]) -> io::Result<SendResult> {
        let request = format!(
            "POST /v1/write HTTP/1.1\r\nHost: relay\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            frame.len()
        );
        let stream = self.connect()?;
        stream.write_all(request.as_bytes())?;
        stream.write_all(frame)?;
        let (status, headers, body) = read_http_response(stream)?;
        match status {
            200 => Ok(SendResult::Acked { deduped: body.contains("\"deduped\":true") }),
            429 | 503 => {
                // Prefer the millisecond hint; fall back to the standard
                // whole-second Retry-After.
                let ms = header_value(&headers, "x-retry-after-ms")
                    .and_then(|v| v.parse::<u64>().ok())
                    .or_else(|| {
                        header_value(&headers, "retry-after")
                            .and_then(|v| v.parse::<u64>().ok())
                            .map(|secs| secs.saturating_mul(1000))
                    })
                    .unwrap_or(0);
                Ok(SendResult::Busy { retry_after_ms: ms })
            }
            400 | 413 => Ok(SendResult::Poisoned { status }),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected status {other} from write path"),
            )),
        }
    }
}

fn header_value<'a>(headers: &'a str, name: &str) -> Option<&'a str> {
    for line in headers.lines() {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case(name) {
                return Some(v.trim());
            }
        }
    }
    None
}

/// Read one HTTP/1.1 response: status code, raw header block, body (by
/// Content-Length; responses without one are treated as empty-bodied).
pub fn read_http_response(stream: &mut TcpStream) -> io::Result<(u16, String, String)> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "response headers too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let content_len =
        header_value(&head, "content-length").and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
    if content_len > 16 * 1024 * 1024 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "response body too large"));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_len);
    Ok((status, head, String::from_utf8_lossy(&body).to_string()))
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_bounded_and_grows_with_attempts() {
        let opts = AgentOptions {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            ..AgentOptions::default()
        };
        let dir = std::env::temp_dir().join(format!("relay-agent-jit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut agent = Agent::open("a1", "127.0.0.1:1", &dir.join("spool.q"), opts).unwrap();
        agent.attempt = 0;
        for _ in 0..64 {
            assert!(agent.backoff_delay() <= Duration::from_millis(10));
        }
        agent.attempt = 30;
        let mut saw_large = false;
        for _ in 0..256 {
            let d = agent.backoff_delay();
            assert!(d <= Duration::from_millis(500));
            saw_large |= d > Duration::from_millis(10);
        }
        assert!(saw_large, "full jitter at high attempt never exceeded the base ceiling");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_parsing_is_case_insensitive() {
        let head = "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nX-Retry-After-Ms: 250";
        assert_eq!(header_value(head, "retry-after"), Some("1"));
        assert_eq!(header_value(head, "x-retry-after-ms"), Some("250"));
        assert_eq!(header_value(head, "content-length"), None);
    }
}
