//! The ingest core behind `POST /v1/write`.
//!
//! Request handlers call [`IngestCore::submit`] with the raw POST body,
//! and each request thread applies its own batch. The core checks the
//! body's size, decodes the frame, consults the per-agent sliding dedup
//! window, and either (a) answers `deduped` for a batch it has already
//! applied, (b) refuses with `Busy` (HTTP 429 + `Retry-After`) while
//! draining or once the store has failed, or (c) appends the batch
//! under the store's write guard and returns once a WAL sync covers the
//! append — so a `200` always means "durable". The backpressure ladder
//! a client can observe is therefore: 413 (body over limit) → 400 (bad
//! frame) → 429 (draining / store failed) → 200; the write path never
//! answers 5xx.
//!
//! **Group commit.** Concurrent submitters share an fsync. Once no
//! append is in flight, the first submitter that finds appends not yet
//! synced leads: it takes the write guard, reads the append count and
//! syncs; the others wait on one condvar until the `synced` count
//! covers their own append. Waiting out the appends in flight lets the
//! batches that queued on the guard during a sync share the next one.
//! A `/v1/series` read may see a batch that is appended but not yet
//! acked; the ack itself still waits for the sync.
//!
//! **Exactly-once.** Agents send batches in seq order and retry until
//! acked, so the wire carries at-least-once. The dedup window keeps, per
//! agent, the highest seq seen and the recently admitted seqs with the
//! append count that covers each: a retry of a batch not yet synced
//! waits for that sync instead of re-applying, and a retry of a synced
//! batch acks at once. A seq is marked pending before its append, so a
//! copy that arrives mid-append answers Busy rather than appending
//! twice. Seqs older than the window are acked as duplicates on the
//! monotone-seq contract. The state mutex and the store guard are never
//! held together.
//!
//! **Drain.** [`IngestCore::drain`] stops admissions (Busy) and seals
//! the memtable under the write guard — no acked batch can be lost
//! because acks only ever happen after append + sync.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

use supremm_obs::{ObsHandle, Timer};
use supremm_tsdb::Tsdb;

use crate::wire::{decode_batch, Batch};

/// Sliding dedup window per agent, in seqs: a seq at least this far
/// below the agent's highest acks as a duplicate without a lookup.
const DEDUP_WINDOW: u64 = 1024;

/// Ticket of an admitted seq whose append has not finished (real
/// tickets count appends from 1).
const PENDING: u64 = 0;

/// Knobs for the ingest core.
#[derive(Clone)]
pub struct IngestOptions {
    /// Largest acceptable request body (bytes) — the 413 threshold.
    pub max_batch_bytes: usize,
    /// `Retry-After` hint handed out with Busy answers, milliseconds.
    pub retry_after_ms: u64,
    /// Telemetry registry for server-side counters/gauges/histograms.
    pub obs: ObsHandle,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            max_batch_bytes: 4 * 1024 * 1024,
            retry_after_ms: 50,
            obs: supremm_obs::global(),
        }
    }
}

/// What [`IngestCore::submit`] tells the HTTP layer to answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Batch is durable in the store (or provably already was).
    Acked { seq: u64, deduped: bool },
    /// Draining, or the store failed: 429 + `Retry-After`.
    Busy { retry_after_ms: u64 },
    /// Undecodable frame: 400.
    Malformed(String),
    /// Body over `max_batch_bytes`: 413.
    TooLarge { limit: usize },
}

/// Per-agent sliding dedup window.
struct AgentWindow {
    max_seq: u64,
    any: bool,
    /// Recently admitted seqs → the append count that covers each (the
    /// `synced` value a retry waits for), or [`PENDING`].
    recent: BTreeMap<u64, u64>,
}

struct Inner {
    windows: BTreeMap<String, AgentWindow>,
    /// Submits admitted but not done appending; no sync starts until
    /// they are.
    appending: usize,
    /// Appends covered by the last finished sync.
    synced: u64,
    /// A leader is syncing; the others wait for it on `synced_cv`.
    syncing: bool,
    draining: bool,
    /// Set when an append or sync hit a store I/O error: all subsequent
    /// and waiting submits answer Busy, never a false ack.
    store_dead: bool,
}

struct ServerMetrics {
    received: supremm_obs::Counter,
    applied: supremm_obs::Counter,
    deduped: supremm_obs::Counter,
    samples: supremm_obs::Counter,
    rej_malformed: supremm_obs::Counter,
    rej_oversized: supremm_obs::Counter,
    rej_busy: supremm_obs::Counter,
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
            write_micros: obs.histogram("relay_server_write_micros"),
            apply_micros: obs.histogram("relay_server_apply_micros"),
        }
    }
}

/// The shared ingest core: dedup window + group commit over an
/// `Arc<RwLock<Tsdb>>`.
pub struct IngestCore {
    state: Mutex<Inner>,
    synced_cv: Condvar,
    /// Batches appended to the store; changes only under its write guard.
    appended: AtomicU64,
    store: Arc<RwLock<Tsdb>>,
    opts: IngestOptions,
    met: ServerMetrics,
}

fn lock_inner(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl IngestCore {
    /// Wrap the store in a shared core handle.
    pub fn start(store: Arc<RwLock<Tsdb>>, opts: IngestOptions) -> Arc<IngestCore> {
        Arc::new(IngestCore {
            state: Mutex::new(Inner {
                windows: BTreeMap::new(),
                appending: 0,
                synced: 0,
                syncing: false,
                draining: false,
                store_dead: false,
            }),
            synced_cv: Condvar::new(),
            appended: AtomicU64::new(0),
            met: ServerMetrics::new(&opts.obs),
            store,
            opts,
        })
    }

    /// Max request body this core accepts (the serve layer's 413 bound
    /// for `/v1/write`).
    pub fn max_batch_bytes(&self) -> usize {
        self.opts.max_batch_bytes
    }

    /// Batches appended to the store (all of them sealed once
    /// [`IngestCore::drain`] returns).
    pub fn applied(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
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
        let seq = batch.batch_seq;
        let busy = WriteOutcome::Busy { retry_after_ms: self.opts.retry_after_ms };

        let mut inner = lock_inner(&self.state);
        if inner.draining || inner.store_dead {
            self.met.rej_busy.inc();
            return busy;
        }
        let win = inner.windows.entry(batch.agent_id.clone()).or_insert(AgentWindow {
            max_seq: 0,
            any: false,
            recent: BTreeMap::new(),
        });
        if win.any && seq.saturating_add(DEDUP_WINDOW) <= win.max_seq {
            self.met.deduped.inc();
            return WriteOutcome::Acked { seq, deduped: true };
        }
        // `fresh` carries the sample count of a batch this call applied.
        let (ticket, fresh) = match win.recent.get(&seq).copied() {
            Some(PENDING) => {
                self.met.rej_busy.inc();
                return busy;
            }
            Some(t) => {
                self.met.deduped.inc();
                (t, None)
            }
            None => {
                win.recent.insert(seq, PENDING);
                if !win.any || seq > win.max_seq {
                    win.max_seq = seq;
                    win.any = true;
                }
                // Prune everything at or below the window floor (seqs
                // the check above already acks as duplicates).
                if let Some(floor) = win.max_seq.checked_sub(DEDUP_WINDOW) {
                    win.recent = win.recent.split_off(&floor.saturating_add(1));
                }
                inner.appending += 1;
                drop(inner);
                let appended = self.append(&batch);
                inner = lock_inner(&self.state);
                inner.appending -= 1;
                if inner.appending == 0 {
                    self.synced_cv.notify_all();
                }
                match appended {
                    Ok((t, samples)) => {
                        if let Some(win) = inner.windows.get_mut(&batch.agent_id) {
                            win.recent.insert(seq, t);
                        }
                        (t, Some(samples))
                    }
                    Err(e) => {
                        self.opts.obs.event("relay_ingest_error", format!("append: {e}"));
                        inner.store_dead = true;
                        self.met.rej_busy.inc();
                        return busy;
                    }
                }
            }
        };

        // Group commit: wait until a sync covers our append, leading one
        // when no other submitter is syncing or appending.
        while inner.synced < ticket {
            if inner.store_dead {
                self.met.rej_busy.inc();
                return busy;
            }
            if inner.syncing || inner.appending > 0 {
                inner = self.synced_cv.wait(inner).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            inner.syncing = true;
            drop(inner);
            let synced = self.sync();
            inner = lock_inner(&self.state);
            inner.syncing = false;
            match synced {
                Ok(n) => inner.synced = n,
                Err(e) => {
                    self.opts.obs.event("relay_ingest_error", format!("sync: {e}"));
                    inner.store_dead = true;
                }
            }
            self.synced_cv.notify_all();
        }
        drop(inner);
        if let Some(samples) = fresh {
            self.met.applied.inc();
            self.met.samples.add(samples);
        }
        self.met.write_micros.observe_timer(timer);
        WriteOutcome::Acked { seq, deduped: fresh.is_none() }
    }

    /// Append one batch under the store's write guard. Returns the append
    /// count that covers it and its sample count.
    fn append(&self, batch: &Batch) -> std::io::Result<(u64, u64)> {
        let mut db = self.store.write().unwrap_or_else(|e| e.into_inner());
        let timer = Timer::start();
        let mut samples = 0u64;
        // One scratch for the whole batch, not one per record.
        let mut vals: Vec<(u64, f64)> = Vec::new();
        for rec in &batch.records {
            vals.clear();
            vals.extend(rec.samples.iter().map(|&(ts, bits)| (ts, f64::from_bits(bits))));
            db.append_batch(&rec.host, &rec.metric, &vals)?;
            samples += vals.len() as u64;
        }
        let ticket = self.appended.fetch_add(1, Ordering::Relaxed) + 1;
        drop(db);
        self.met.apply_micros.observe_timer(timer);
        Ok((ticket, samples))
    }

    /// Sync the store's WAL. Returns the append count the sync covers.
    fn sync(&self) -> std::io::Result<u64> {
        let mut db = self.store.write().unwrap_or_else(|e| e.into_inner());
        let covered = self.appended.load(Ordering::Relaxed);
        db.sync()?;
        Ok(covered)
    }

    /// Stop admitting new batches; submits already past admission still
    /// get synced and acked (one that appends after [`IngestCore::drain`]
    /// seals the memtable is durable in the WAL).
    pub fn begin_drain(&self) {
        lock_inner(&self.state).draining = true;
    }

    /// Graceful drain: stop admissions and seal the memtable, so the
    /// drained store is segment-durable.
    pub fn drain(&self) {
        self.begin_drain();
        let mut db = self.store.write().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = db.flush() {
            self.opts.obs.event("relay_ingest_error", format!("drain flush: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_batch, BatchRecord};
    use supremm_obs::ObsRegistry;
    use supremm_tsdb::durable::{CrashSeam, Op};
    use supremm_tsdb::{DbOptions, Selector};

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
    fn concurrent_submits_share_fsyncs_and_every_batch_lands() {
        const THREADS: u64 = 4;
        const BATCHES: u64 = 64;
        let dir = tmp("group");
        let obs = Arc::new(ObsRegistry::new());
        let db =
            Tsdb::open_with_obs(&dir.join("store"), DbOptions::default(), obs.clone()).unwrap();
        let core = IngestCore::start(
            Arc::new(RwLock::new(db)),
            IngestOptions { obs: obs.clone(), ..IngestOptions::default() },
        );
        std::thread::scope(|s| {
            for a in 0..THREADS {
                let core = &core;
                s.spawn(move || {
                    for seq in 0..BATCHES {
                        let n = a * BATCHES + seq;
                        let f = frame(&format!("a{a}"), seq, 600 * (n + 1), n as f64);
                        assert_eq!(core.submit(&f), WriteOutcome::Acked { seq, deduped: false });
                    }
                });
            }
        });
        let fsyncs = obs.snapshot().histogram("tsdb_wal_fsync_micros").map_or(0, |h| h.count);
        assert!(
            fsyncs < THREADS * BATCHES,
            "{fsyncs} fsyncs for {} batches: concurrent submits never shared one",
            THREADS * BATCHES
        );
        core.drain();
        drop(core);
        let db = Tsdb::open(&dir.join("store")).unwrap();
        let series = db.query(&Selector::default(), 0, u64::MAX).unwrap();
        let mut values: Vec<f64> =
            series.iter().flat_map(|(_, s)| s.iter().map(|&(_, v)| v)).collect();
        values.sort_by(f64::total_cmp);
        let expected: Vec<f64> = (0..THREADS * BATCHES).map(|v| v as f64).collect();
        assert_eq!(values, expected, "every acked batch, once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_copy_arriving_mid_append_is_refused_not_applied_twice() {
        let dir = tmp("pending");
        let obs = Arc::new(ObsRegistry::new());
        let core = core_with(
            &dir.join("store"),
            IngestOptions { obs: obs.clone(), ..IngestOptions::default() },
        );
        let f = frame("a1", 0, 600, 1.0);
        std::thread::scope(|s| {
            // Hold the store so the first copy stalls in its append.
            let gate = core.store.write().unwrap();
            let first = s.spawn(|| core.submit(&f));
            while lock_inner(&core.state).appending == 0 {
                std::thread::yield_now();
            }
            assert!(matches!(core.submit(&f), WriteOutcome::Busy { .. }));
            drop(gate);
            assert_eq!(first.join().unwrap(), WriteOutcome::Acked { seq: 0, deduped: false });
        });
        assert_eq!(core.submit(&f), WriteOutcome::Acked { seq: 0, deduped: true });
        assert_eq!(obs.snapshot().counter("relay_server_batches_applied_total"), Some(1));
        core.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_sync_refuses_that_batch_and_every_later_one() {
        let dir = tmp("deadstore");
        let core = core_with(
            &dir.join("store"),
            IngestOptions { obs: Arc::new(ObsRegistry::new()), ..IngestOptions::default() },
        );
        {
            // The submitting thread leads its own sync, so its seam fails it.
            let seam = CrashSeam::arm(Some(0));
            assert!(matches!(core.submit(&frame("a1", 0, 600, 1.0)), WriteOutcome::Busy { .. }));
            assert_eq!(seam.trace().first().map(|(op, _)| *op), Some(Op::Sync));
        }
        // Disarmed, the store is still refused: what its WAL holds is unknown.
        for (seq, ts) in [(0, 600), (1, 1200)] {
            assert!(matches!(core.submit(&frame("a1", seq, ts, 2.0)), WriteOutcome::Busy { .. }));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
