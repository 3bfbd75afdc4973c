//! `supremm-metrics`: the shared vocabulary of the SUPReMM tool chain.
//!
//! Every other crate in the workspace speaks in terms of the types defined
//! here: timestamps and sampling intervals, job/user/host identifiers, the
//! *eight key metrics* the paper's analyses are built on (§4.2), the wider
//! set of measured metrics used for the correlation analysis, and the
//! self-describing device schemas of the TACC_Stats on-disk format (§3).
//!
//! This crate is dependency-light on purpose: it is the bottom of the
//! workspace dependency graph.

pub mod ids;
pub mod json;
pub mod metric;
pub mod par;
pub mod rng;
pub mod schema;
pub mod time;
pub mod units;

pub use ids::{AppId, HostId, JobId, ScienceField, UserId};
pub use metric::{ExtendedMetric, KeyMetric};
pub use schema::{CounterKind, DeviceClass, Schema, SchemaEntry};
pub use time::{Duration, SampleInterval, Timestamp};
pub use units::Unit;
