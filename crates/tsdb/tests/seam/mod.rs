//! Driving the `durable` crash seam from the crash matrices.

use supremm_tsdb::durable::{CrashSeam, Op};
use supremm_tsdb::Tsdb;

/// The durable ops `run` makes, as `(op, file name)`.
pub fn trace_of(run: impl FnOnce()) -> Vec<(Op, String)> {
    let seam = CrashSeam::arm(None);
    run();
    let trace = seam.trace().into_iter();
    trace.map(|(op, path)| (op, path.file_name().unwrap().to_string_lossy().into_owned())).collect()
}

/// Run `call` on `db` crashed at durable op `k`: it fails there, no op
/// runs after it, and the store is dropped as a kill would leave it.
pub fn crash_at<T: std::fmt::Debug>(k: usize, mut db: Tsdb, call: impl FnOnce(&mut Tsdb) -> T) {
    let seam = CrashSeam::arm(Some(k));
    let out = call(&mut db);
    assert_eq!(seam.trace().len(), k + 1, "op {k}: {out:?}");
    drop(db);
}
