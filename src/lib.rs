//! `supremm-suite`: workspace umbrella crate.
//!
//! Hosts the workspace-level runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). All functionality lives in the
//! member crates; this crate simply re-exports them under one roof so the
//! examples can `use supremm_suite::prelude::*`.

pub use supremm_analytics as analytics;
pub use supremm_appkernels as appkernels;
pub use supremm_clustersim as clustersim;
pub use supremm_core as core;
pub use supremm_metrics as metrics;
pub use supremm_procsim as procsim;
pub use supremm_ratlog as ratlog;
pub use supremm_relay as relay;
pub use supremm_taccstats as taccstats;
pub use supremm_warehouse as warehouse;
pub use supremm_xdmod as xdmod;

/// Convenience re-exports for the examples.
pub mod prelude {
    pub use supremm_core::prelude::*;
}
