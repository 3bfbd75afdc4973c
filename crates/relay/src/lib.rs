//! Live remote-write ingest: the transport between per-host collector
//! agents and the central warehouse.
//!
//! The paper's tool chain is a continuously running facility — TACC_Stats
//! collectors on every node push samples to a central store. This crate
//! is that front door for the reproduction:
//!
//! * [`wire`] — a CRC-framed, length-prefixed batch format reusing the
//!   tsdb chunk codec, with a per-batch monotone `(agent_id, batch_seq)`
//!   idempotency key.
//! * [`spool`] — a crash-safe on-disk outbound queue with WAL-style
//!   torn-tail recovery, so an agent loses nothing across restarts or
//!   server outages.
//! * [`agent`] — the collector: reduces raw archive files to interval
//!   metric series (the exact reduction the batch path uses), batches by
//!   size + age, ships with exponential backoff + full jitter, and
//!   resends spooled batches after a crash.
//! * [`server`] — the ingest core behind `POST /v1/write`: each request
//!   thread applies its own batch, concurrent requests share a WAL sync
//!   (group commit), a sliding per-agent dedup window makes retries
//!   exactly-once as observed in the store, acks come only after the
//!   batch is applied and WAL-synced, and a drain answers 429 +
//!   `Retry-After`.
//!
//! Delivery contract: the agent retries until acked (at-least-once on
//! the wire), the server dedups on `(agent_id, batch_seq)` (exactly-once
//! in the store), and a `200` ack means the data survives any crash of
//! either side. Everything is dependency-free (std only) and lives in
//! the suplint R1 panic-freedom / R2 determinism zones.

pub mod agent;
pub mod server;
pub mod spool;
pub mod wire;

pub use agent::{Agent, AgentOptions};
pub use server::{IngestCore, IngestOptions, WriteOutcome};
pub use spool::{Spool, SpoolRecovery};
pub use wire::{decode_batch, encode_batch, Batch, BatchRecord, WireError};
