//! Timing shared by the `repro` binary and the `harness = false` benches.

use std::time::Instant;

/// Seconds per iteration, with the repetition count sized from a single
/// timed warm-up run so fast paths get enough reps to measure.
fn secs_per_iter(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64();
    let reps = ((0.3 / once.max(1e-9)) as u64).clamp(3, 2000) as u32;
    let t1 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t1.elapsed().as_secs_f64() / f64::from(reps)
}

/// Time `f` and print `name: µs/iter`, plus MB/s when one iteration
/// processes `bytes` bytes.
pub fn bench<R>(name: &str, bytes: Option<u64>, mut f: impl FnMut() -> R) {
    let secs = secs_per_iter(|| {
        std::hint::black_box(f());
    });
    let rate = bytes.map(|b| format!(", {:.1} MB/s", b as f64 / secs / 1e6)).unwrap_or_default();
    println!("{name}: {:.3} µs/iter{rate}", secs * 1e6);
}
