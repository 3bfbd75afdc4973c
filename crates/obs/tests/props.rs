//! Property tests for the telemetry core. The nightly CI job reruns
//! these with `SUPREMM_CASES=1024`.

use supremm_metrics::rng::cases;
use supremm_obs::{render_prometheus, EventLog, HistSnapshot, Histogram, ObsRegistry};

/// Build a histogram snapshot from raw observations.
fn hist_of(values: &[u64]) -> HistSnapshot {
    let h = Histogram::default();
    for &v in values {
        h.observe(v);
    }
    h.snapshot()
}

fn assert_hist_eq(a: &HistSnapshot, b: &HistSnapshot) {
    assert_eq!(a.buckets, b.buckets);
    assert_eq!(a.overflow, b.overflow);
    assert_eq!(a.count, b.count);
    assert_eq!(a.sum, b.sum);
}

/// merge is commutative and associative, and the merge of the parts
/// equals one histogram fed the concatenation.
#[test]
fn histogram_merge_is_commutative_associative() {
    cases("histogram_merge_is_commutative_associative", 256, |rng| {
        let xs = rng.vec(0..64, |r| r.next_u64());
        let ys = rng.vec(0..64, |r| r.next_u64());
        let zs = rng.vec(0..64, |r| r.next_u64());
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        assert_hist_eq(&a.merge(&b), &b.merge(&a));
        assert_hist_eq(&a.merge(&b).merge(&c), &a.merge(&b.merge(&c)));
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        assert_hist_eq(&a.merge(&b).merge(&c), &hist_of(&all));
        // Identity: merging the empty histogram changes nothing.
        assert_hist_eq(&a.merge(&HistSnapshot::default()), &a);
    });
}

/// Concurrent increments never make a counter regress, and the final
/// value is exactly the sum of what every thread contributed.
#[test]
fn counters_never_regress_under_concurrency() {
    cases("counters_never_regress_under_concurrency", 256, |rng| {
        let per_thread = rng.vec(1..6, |r| r.range(1..200));
        let reg = ObsRegistry::new();
        let c = reg.counter("race_total");
        std::thread::scope(|scope| {
            for &n in &per_thread {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..n {
                        c.inc();
                    }
                });
            }
            // Reader: the visible value only ever grows.
            let c = c.clone();
            scope.spawn(move || {
                let mut last = 0;
                for _ in 0..500 {
                    let now = c.get();
                    assert!(now >= last, "counter regressed {last} -> {now}");
                    last = now;
                }
            });
        });
        assert_eq!(c.get(), per_thread.iter().sum::<u64>());
    });
}

/// Snapshot rendering is byte-deterministic: the same metric state
/// renders identically no matter the registration order.
#[test]
fn render_is_byte_deterministic() {
    cases("render_is_byte_deterministic", 256, |rng| {
        // Names match `[a-z_]{1,12}`.
        let metrics =
            rng.vec(1..16, |r| (r.string(b"abcdefghijklmnopqrstuvwxyz_", 1..13), r.range(0..1000)));
        let seed = rng.next_u64();
        let forward = ObsRegistry::new();
        for (name, v) in &metrics {
            forward.counter(name).add(*v);
            forward.histogram(&format!("{name}_micros")).observe(*v);
        }
        // Same state, different insertion order (a seeded rotation).
        let rotated = ObsRegistry::new();
        let pivot = (seed as usize) % metrics.len();
        for (name, v) in metrics[pivot..].iter().chain(&metrics[..pivot]) {
            rotated.histogram(&format!("{name}_micros")).observe(*v);
            rotated.counter(name).add(*v);
        }
        let a = render_prometheus(&forward.snapshot());
        let b = render_prometheus(&rotated.snapshot());
        assert_eq!(a.into_bytes(), b.into_bytes());
        // And re-rendering the same registry is stable.
        assert_eq!(render_prometheus(&forward.snapshot()), render_prometheus(&forward.snapshot()));
    });
}

/// The ring buffer never panics for any capacity and overflow
/// pattern, keeps at most `capacity` events, and accounts for every
/// push as either retained or dropped.
#[test]
fn ring_buffer_never_panics() {
    cases("ring_buffer_never_panics", 256, |rng| {
        let capacity = rng.range(0..40) as usize;
        let pushes = rng.range(0..200) as usize;
        let drain_at = rng.vec(0..4, |r| r.range(0..200) as usize);
        let log = EventLog::new(capacity);
        for i in 0..pushes {
            log.push("k", format!("event {i}"));
            if drain_at.contains(&i) {
                // Reading mid-stream must not disturb accounting.
                let _ = log.recent(capacity / 2);
                let _ = log.entries();
            }
        }
        let kept = log.entries();
        assert!(kept.len() <= capacity);
        assert_eq!(kept.len() as u64 + log.dropped(), pushes as u64);
        // Survivors are the newest pushes, oldest-first, seq contiguous.
        for pair in kept.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1);
        }
        if let Some(last) = kept.last() {
            assert_eq!(last.seq as usize, pushes - 1);
        }
    });
}
