//! The admission-controlled ingest core behind `POST /v1/write`.
//!
//! Request handlers call [`IngestCore::submit`] with the raw POST body.
//! The core decodes the frame, consults the per-agent sliding dedup
//! window, and either (a) answers `deduped` for a batch it has already
//! applied, (b) refuses with `Busy` (HTTP 429 + `Retry-After`) when the
//! bounded admission queue is full or the core is draining, or (c)
//! enqueues the batch and blocks until the writer thread has applied it
//! to the store *and* WAL-synced it — only then is the ack returned, so
//! a `200` always means "durable". The backpressure ladder a client can
//! observe is therefore: 413 (body over limit) → 400 (bad frame) → 429
//! (queue full / draining) → 200; the write path never answers 5xx.
//!
//! **Exactly-once.** Agents send batches in seq order and retry until
//! acked, so the wire carries at-least-once. The dedup window keeps, per
//! agent, the highest seq seen and the set of recently admitted seqs
//! (with their queue tickets): a retry of an in-flight batch waits on
//! the original's ticket instead of re-applying, and a retry of an
//! already-applied batch acks immediately. Seqs older than the window
//! are acked as duplicates on the monotone-seq contract.
//!
//! **Drain.** [`IngestCore::drain`] stops admissions (Busy), lets the
//! writer flush the remaining queue into the store, seals the memtable,
//! and joins the writer — no acked batch can be lost because acks only
//! ever happen after apply+sync.
//!
//! [`ChaosPlan`] is the transport half of the `faultsim` story: a seeded,
//! deterministic plan that severs connections before or after the apply,
//! forcing agent retries through both dedup paths.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use supremm_metrics::rng::SplitMix64;
use supremm_obs::{Gauge, ObsHandle, Timer};
use supremm_tsdb::Tsdb;

use crate::wire::{decode_batch, Batch};

/// Sliding dedup window per agent, in seqs: a seq at least this far
/// below the agent's highest acks as a duplicate without a lookup.
const DEDUP_WINDOW: u64 = 1024;

/// Knobs for the ingest core.
#[derive(Clone)]
pub struct IngestOptions {
    /// Bounded admission queue: batches admitted but not yet applied.
    pub queue_cap: usize,
    /// Largest acceptable request body (bytes) — the 413 threshold.
    pub max_batch_bytes: usize,
    /// `Retry-After` hint handed out with Busy answers, milliseconds.
    pub retry_after_ms: u64,
    /// Telemetry registry for server-side counters/gauges/histograms.
    pub obs: ObsHandle,
    /// Optional deterministic connection-killing fault plan.
    pub chaos: Option<ChaosPlan>,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            queue_cap: 64,
            max_batch_bytes: 4 * 1024 * 1024,
            retry_after_ms: 50,
            obs: supremm_obs::global(),
            chaos: None,
        }
    }
}

/// Seeded transport-fault plan: sever the connection for a deterministic
/// subset of `(agent, seq, attempt)` triples. `drop_before_apply` kills
/// the request before the batch is admitted (a plain retry);
/// `drop_after_apply` kills it after apply+sync but before the ack (the
/// interesting case — the retry must be deduped, not re-applied).
/// Keying on the attempt number means a doomed batch is not doomed
/// forever: each retry draws fresh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    pub seed: u64,
    pub drop_before_apply: f64,
    pub drop_after_apply: f64,
}

impl ChaosPlan {
    fn draw(&self, agent: &str, seq: u64, attempt: u64) -> (bool, bool) {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in agent.bytes() {
            h = h.rotate_left(9) ^ (b as u64);
        }
        h ^= seq.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= attempt.rotate_left(32);
        let mut rng = SplitMix64::new(h);
        let before = rng.uniform() < self.drop_before_apply;
        let after = rng.uniform() < self.drop_after_apply;
        (before, after)
    }
}

/// What [`IngestCore::submit`] tells the HTTP layer to answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Batch is durable in the store (or provably already was).
    Acked { seq: u64, deduped: bool },
    /// Admission queue full or draining: 429 + `Retry-After`.
    Busy { retry_after_ms: u64 },
    /// Undecodable frame: 400.
    Malformed(String),
    /// Body over `max_batch_bytes`: 413.
    TooLarge { limit: usize },
    /// Chaos plan says: close the socket without answering.
    SeverConnection,
}

/// Per-agent sliding dedup window.
struct AgentWindow {
    max_seq: u64,
    any: bool,
    /// Recently admitted seqs → queue ticket (apply watermark target).
    recent: BTreeMap<u64, u64>,
    /// Chaos attempt counters, pruned with `recent`.
    attempts: BTreeMap<u64, u64>,
}

struct Inner {
    queue: VecDeque<Batch>,
    /// 1-based enqueue counter; `applied` is the watermark of tickets
    /// fully applied + synced (FIFO, so watermark order == queue order).
    next_ticket: u64,
    applied: u64,
    windows: BTreeMap<String, AgentWindow>,
    draining: bool,
    /// Set when the writer hit a store I/O error and exited: all
    /// subsequent and waiting submits answer Busy, never a false ack.
    writer_dead: bool,
}

impl Inner {
    fn window(&mut self, agent: &str) -> &mut AgentWindow {
        self.windows.entry(agent.to_string()).or_insert_with(|| AgentWindow {
            max_seq: 0,
            any: false,
            recent: BTreeMap::new(),
            attempts: BTreeMap::new(),
        })
    }
}

struct ServerMetrics {
    received: supremm_obs::Counter,
    applied: supremm_obs::Counter,
    deduped: supremm_obs::Counter,
    samples: supremm_obs::Counter,
    rej_malformed: supremm_obs::Counter,
    rej_oversized: supremm_obs::Counter,
    rej_busy: supremm_obs::Counter,
    conn_drops: supremm_obs::Counter,
    queue_depth: Gauge,
    write_micros: supremm_obs::Histogram,
    apply_micros: supremm_obs::Histogram,
}

impl ServerMetrics {
    fn new(obs: &ObsHandle) -> ServerMetrics {
        ServerMetrics {
            received: obs.counter("relay_server_batches_received_total"),
            applied: obs.counter("relay_server_batches_applied_total"),
            deduped: obs.counter("relay_server_batches_deduped_total"),
            samples: obs.counter("relay_server_samples_applied_total"),
            rej_malformed: obs.counter("relay_server_rejected_total{reason=\"malformed\"}"),
            rej_oversized: obs.counter("relay_server_rejected_total{reason=\"oversized\"}"),
            rej_busy: obs.counter("relay_server_rejected_total{reason=\"busy\"}"),
            conn_drops: obs.counter("relay_server_chaos_conn_drops_total"),
            queue_depth: obs.gauge("relay_admission_queue_depth"),
            write_micros: obs.histogram("relay_server_write_micros"),
            apply_micros: obs.histogram("relay_server_apply_micros"),
        }
    }
}

/// The shared ingest core: admission queue + dedup window + writer
/// thread applying into an `Arc<RwLock<Tsdb>>`.
pub struct IngestCore {
    state: Mutex<Inner>,
    not_empty: Condvar,
    applied_cv: Condvar,
    store: Arc<RwLock<Tsdb>>,
    opts: IngestOptions,
    met: ServerMetrics,
    writer: Mutex<Option<JoinHandle<()>>>,
}

fn lock_inner(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

enum Admission {
    /// Older than the window — applied long ago.
    Old,
    /// Duplicate of an admitted batch: wait on its ticket.
    Dup(u64),
    /// New: admit under a fresh ticket.
    Fresh,
}

impl IngestCore {
    /// Spawn the writer thread and return the shared core handle.
    pub fn start(store: Arc<RwLock<Tsdb>>, opts: IngestOptions) -> Arc<IngestCore> {
        let met = ServerMetrics::new(&opts.obs);
        let core = Arc::new(IngestCore {
            state: Mutex::new(Inner {
                queue: VecDeque::new(),
                next_ticket: 0,
                applied: 0,
                windows: BTreeMap::new(),
                draining: false,
                writer_dead: false,
            }),
            not_empty: Condvar::new(),
            applied_cv: Condvar::new(),
            store,
            opts,
            met,
            writer: Mutex::new(None),
        });
        let worker = Arc::clone(&core);
        match std::thread::Builder::new()
            .name("relay-ingest-writer".to_string())
            .spawn(move || worker.writer_loop())
        {
            Ok(h) => {
                *core.writer.lock().unwrap_or_else(|e| e.into_inner()) = Some(h);
            }
            Err(_) => lock_inner(&core.state).writer_dead = true,
        }
        core
    }

    /// Max request body this core accepts (the serve layer's 413 bound
    /// for `/v1/write`).
    pub fn max_batch_bytes(&self) -> usize {
        self.opts.max_batch_bytes
    }

    /// Batches fully applied + synced.
    pub fn applied(&self) -> u64 {
        lock_inner(&self.state).applied
    }

    /// Handle one `POST /v1/write` body end to end. Blocks until the
    /// batch is durable (or refused).
    pub fn submit(&self, body: &[u8]) -> WriteOutcome {
        if body.len() > self.opts.max_batch_bytes {
            self.met.rej_oversized.inc();
            return WriteOutcome::TooLarge { limit: self.opts.max_batch_bytes };
        }
        let batch = match decode_batch(body) {
            Ok(b) => b,
            Err(e) => {
                self.met.rej_malformed.inc();
                return WriteOutcome::Malformed(e.to_string());
            }
        };
        self.met.received.inc();
        let timer = Timer::start();
        let agent_id = batch.agent_id.clone();
        let seq = batch.batch_seq;
        let busy = WriteOutcome::Busy { retry_after_ms: self.opts.retry_after_ms };

        let mut inner = lock_inner(&self.state);
        let (sever_before, sever_after) = match &self.opts.chaos {
            Some(plan) => {
                let win = inner.window(&agent_id);
                let attempt = win.attempts.entry(seq).or_insert(0);
                let n = *attempt;
                *attempt += 1;
                plan.draw(&agent_id, seq, n)
            }
            None => (false, false),
        };
        if sever_before {
            self.met.conn_drops.inc();
            return WriteOutcome::SeverConnection;
        }
        if inner.draining || inner.writer_dead {
            self.met.rej_busy.inc();
            return busy;
        }

        let admission = {
            let win = inner.window(&agent_id);
            if win.any && seq.saturating_add(DEDUP_WINDOW) <= win.max_seq {
                Admission::Old
            } else if let Some(&t) = win.recent.get(&seq) {
                Admission::Dup(t)
            } else {
                Admission::Fresh
            }
        };
        let (ticket, deduped) = match admission {
            Admission::Old => {
                self.met.deduped.inc();
                return WriteOutcome::Acked { seq, deduped: true };
            }
            Admission::Dup(t) => {
                self.met.deduped.inc();
                (t, true)
            }
            Admission::Fresh => {
                if inner.queue.len() >= self.opts.queue_cap {
                    self.met.rej_busy.inc();
                    return busy;
                }
                inner.next_ticket += 1;
                let t = inner.next_ticket;
                inner.queue.push_back(batch);
                self.met.queue_depth.set(inner.queue.len() as i64);
                let win = inner.window(&agent_id);
                win.recent.insert(seq, t);
                if !win.any || seq > win.max_seq {
                    win.max_seq = seq;
                    win.any = true;
                }
                // Prune everything at or below the window floor (seqs
                // the Old check already answers for).
                if let Some(floor) = win.max_seq.checked_sub(DEDUP_WINDOW) {
                    win.recent = win.recent.split_off(&floor.saturating_add(1));
                    win.attempts = win.attempts.split_off(&floor.saturating_add(1));
                }
                self.not_empty.notify_one();
                (t, false)
            }
        };

        // Wait until the writer's applied watermark covers our ticket.
        loop {
            if inner.applied >= ticket {
                break;
            }
            if inner.writer_dead {
                self.met.rej_busy.inc();
                return busy;
            }
            let (guard, _) = self
                .applied_cv
                .wait_timeout(inner, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
        drop(inner);
        self.met.write_micros.observe_timer(timer);
        if sever_after {
            self.met.conn_drops.inc();
            return WriteOutcome::SeverConnection;
        }
        WriteOutcome::Acked { seq, deduped }
    }

    fn writer_loop(&self) {
        loop {
            let batches: Vec<Batch> = {
                let mut inner = lock_inner(&self.state);
                loop {
                    if !inner.queue.is_empty() {
                        break;
                    }
                    if inner.draining {
                        drop(inner);
                        // Queue fully applied: seal the memtable so the
                        // drained store is segment-durable on exit.
                        let mut db = self.store.write().unwrap_or_else(|e| e.into_inner());
                        if let Err(e) = db.flush() {
                            self.opts.obs.event("relay_ingest_error", format!("drain flush: {e}"));
                        }
                        return;
                    }
                    let (guard, _) = self
                        .not_empty
                        .wait_timeout(inner, Duration::from_millis(100))
                        .unwrap_or_else(|e| e.into_inner());
                    inner = guard;
                }
                let take = inner.queue.len().min(64);
                let taken: Vec<Batch> = inner.queue.drain(..take).collect();
                self.met.queue_depth.set(inner.queue.len() as i64);
                taken
            };
            let n = batches.len() as u64;
            let timer = Timer::start();
            let result = {
                let mut db = self.store.write().unwrap_or_else(|e| e.into_inner());
                let mut samples = 0u64;
                // One scratch for the whole apply group, not one per record.
                let mut vals: Vec<(u64, f64)> = Vec::new();
                let mut apply = || -> std::io::Result<()> {
                    for b in &batches {
                        for rec in &b.records {
                            vals.clear();
                            vals.extend(
                                rec.samples.iter().map(|&(ts, bits)| (ts, f64::from_bits(bits))),
                            );
                            db.append_batch(&rec.host, &rec.metric, &vals)?;
                            samples += vals.len() as u64;
                        }
                    }
                    db.sync()
                };
                apply().map(|()| samples)
            };
            match result {
                Ok(samples) => {
                    self.met.apply_micros.observe_timer(timer);
                    self.met.applied.add(n);
                    self.met.samples.add(samples);
                    let mut inner = lock_inner(&self.state);
                    inner.applied += n;
                    self.applied_cv.notify_all();
                }
                Err(e) => {
                    self.opts.obs.event("relay_ingest_error", format!("writer died: {e}"));
                    let mut inner = lock_inner(&self.state);
                    inner.writer_dead = true;
                    self.applied_cv.notify_all();
                    return;
                }
            }
        }
    }

    /// Stop admitting new batches; in-flight admitted batches still get
    /// applied and acked.
    pub fn begin_drain(&self) {
        lock_inner(&self.state).draining = true;
        self.not_empty.notify_all();
        self.applied_cv.notify_all();
    }

    /// Graceful drain: stop admissions, flush the admission queue into
    /// the store, seal the memtable, and join the writer.
    pub fn drain(&self) {
        self.begin_drain();
        let handle = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_batch, BatchRecord};
    use supremm_obs::ObsRegistry;
    use supremm_tsdb::Selector;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("relay-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn frame(agent: &str, seq: u64, ts: u64, v: f64) -> Vec<u8> {
        encode_batch(&Batch {
            agent_id: agent.into(),
            batch_seq: seq,
            records: vec![BatchRecord {
                host: "c0001".into(),
                metric: "cpu_user".into(),
                samples: vec![(ts, v.to_bits())],
            }],
        })
        .unwrap()
    }

    fn core_with(dir: &std::path::Path, opts: IngestOptions) -> Arc<IngestCore> {
        let db = Tsdb::open(dir).unwrap();
        IngestCore::start(Arc::new(RwLock::new(db)), opts)
    }

    #[test]
    fn ack_means_durable_and_retries_dedupe() {
        let dir = tmp("dedup");
        let obs = Arc::new(ObsRegistry::new());
        let core = core_with(
            &dir.join("store"),
            IngestOptions { obs: obs.clone(), ..IngestOptions::default() },
        );
        let f = frame("a1", 0, 600, 1.5);
        assert_eq!(core.submit(&f), WriteOutcome::Acked { seq: 0, deduped: false });
        // Retry of the same batch: deduped, still acked.
        assert_eq!(core.submit(&f), WriteOutcome::Acked { seq: 0, deduped: true });
        assert_eq!(
            core.submit(&frame("a1", 1, 1200, 2.5)),
            WriteOutcome::Acked { seq: 1, deduped: false }
        );
        core.drain();
        let db = Tsdb::open(&dir.join("store")).unwrap();
        let series = db.query(&Selector::default(), 0, u64::MAX).unwrap();
        let total: usize = series.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 2, "dedup must not double-apply");
        assert_eq!(obs.snapshot().counter("relay_server_batches_deduped_total"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_and_malformed_refused() {
        let dir = tmp("refuse");
        let core = core_with(
            &dir.join("store"),
            IngestOptions {
                max_batch_bytes: 64,
                obs: Arc::new(ObsRegistry::new()),
                ..IngestOptions::default()
            },
        );
        let big = vec![0u8; 65];
        assert_eq!(core.submit(&big), WriteOutcome::TooLarge { limit: 64 });
        assert!(matches!(core.submit(b"garbage"), WriteOutcome::Malformed(_)));
        core.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_refuses_new_but_finishes_queued() {
        let dir = tmp("drain");
        let core = core_with(
            &dir.join("store"),
            IngestOptions { obs: Arc::new(ObsRegistry::new()), ..IngestOptions::default() },
        );
        assert!(matches!(core.submit(&frame("a1", 0, 600, 1.0)), WriteOutcome::Acked { .. }));
        core.begin_drain();
        assert!(matches!(core.submit(&frame("a1", 1, 1200, 2.0)), WriteOutcome::Busy { .. }));
        core.drain();
        let db = Tsdb::open(&dir.join("store")).unwrap();
        let series = db.query(&Selector::default(), 0, u64::MAX).unwrap();
        let total: usize = series.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_seq_acks_as_duplicate() {
        let dir = tmp("oldseq");
        let obs = Arc::new(ObsRegistry::new());
        let core = core_with(
            &dir.join("store"),
            IngestOptions { obs: obs.clone(), ..IngestOptions::default() },
        );
        let batches = DEDUP_WINDOW + 2;
        for seq in 0..batches {
            assert!(matches!(
                core.submit(&frame("a1", seq, 600 * (seq + 1), seq as f64)),
                WriteOutcome::Acked { deduped: false, .. }
            ));
        }
        // seq 0 is below the window now; a changed value shows whether
        // the resend was applied.
        assert_eq!(
            core.submit(&frame("a1", 0, 600, -1.0)),
            WriteOutcome::Acked { seq: 0, deduped: true }
        );
        core.drain();
        assert_eq!(obs.snapshot().counter("relay_server_batches_applied_total"), Some(batches));
        let db = Tsdb::open(&dir.join("store")).unwrap();
        let series = db.query(&Selector::default(), 0, u64::MAX).unwrap();
        let expected: Vec<(u64, f64)> = (0..batches).map(|s| (600 * (s + 1), s as f64)).collect();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].1, expected, "each sample once, none re-applied");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_draw_is_deterministic() {
        let plan = ChaosPlan { seed: 7, drop_before_apply: 0.5, drop_after_apply: 0.5 };
        for seq in 0..32u64 {
            for attempt in 0..4u64 {
                assert_eq!(plan.draw("agent-x", seq, attempt), plan.draw("agent-x", seq, attempt));
            }
        }
        let zero = ChaosPlan { seed: 7, drop_before_apply: 0.0, drop_after_apply: 0.0 };
        for seq in 0..32u64 {
            assert_eq!(zero.draw("agent-x", seq, 0), (false, false));
        }
    }
}
