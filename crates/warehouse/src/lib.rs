//! `supremm-warehouse`: ingestion and storage (the Netezza/MySQL role).
//!
//! §4.1: "We ingested both the raw TACC_Stats output files and job
//! accounting information into an IBM Netezza data warehouse appliance
//! and a MySQL database." This crate is that layer for the Rust tool
//! chain:
//!
//! - [`ingest`] parses raw per-host files (in parallel), pairs adjacent
//!   samples into per-interval metrics, groups them by the job-id tags,
//!   and joins against the accounting log (authoritative user/times/exit)
//!   and Lariat records (job → application) to assemble [`JobRecord`]s;
//! - [`record`] defines the assembled per-job record with its
//!   node·hour-weighted metric means and observed maxima;
//! - [`store`] is the queryable job table (filter / group-by /
//!   weighted-aggregate) the report layer runs on;
//! - [`timeseries`] assembles the system-level series (active nodes,
//!   total FLOPS, memory per node, per-mount Lustre throughput, CPU-state
//!   node-hours) behind Figures 7–11;
//! - [`streaming`] is the single-pass layer under both [`ingest`] and
//!   [`timeseries`]: one zero-copy scan per raw file produces a
//!   mergeable [`streaming::FilePartial`] feeding job fragments *and*
//!   system bins, so archives are parsed exactly once per run;
//! - [`jobcodec`] is the per-job binary codec behind the segment-backed
//!   job table (bit-exact floats);
//! - [`tsdbio`] bridges warehouse products into the `supremm-tsdb`
//!   storage engine (system series, per-host metric series).

pub mod ingest;
pub mod jobcodec;
pub mod record;
pub mod store;
pub mod streaming;
pub mod timeseries;
pub mod tsdbio;

pub use supremm_tsdb as tsdb;

pub use ingest::{ingest, IngestStats};
pub use record::{ExitKind, JobRecord};
pub use store::JobTable;
pub use streaming::{
    consume_archive, ConsumeOptions, FilePartial, StreamAccumulator, StreamOutput,
};
pub use timeseries::{SystemBin, SystemSeries};
