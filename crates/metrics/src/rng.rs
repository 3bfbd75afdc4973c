//! The workspace's one seeded generator and the property-test runner
//! built on it.
//!
//! [`SplitMix64`] drives the simulator, fault plans, agent backoff jitter
//! and the live-ingest tests' fault proxy; its stream is pinned by known-answer tests so
//! none of those schedules can move by accident. [`cases`] runs a test
//! body over many seeded inputs and, on failure, names the seed that
//! reproduces it.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// splitmix64: tiny, seedable, deterministic on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`. Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform integer in `[r.start, r.end)`.
    pub fn range(&mut self, r: Range<u64>) -> u64 {
        r.start + self.below(r.end - r.start)
    }

    /// Uniform float in `[r.start, r.end)`.
    pub fn uniform_in(&mut self, r: Range<f64>) -> f64 {
        r.start + (r.end - r.start) * self.uniform()
    }

    /// One element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A vector of `gen` draws whose length is uniform in `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut gen: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.range(len.start as u64..len.end as u64);
        (0..n).map(|_| gen(self)).collect()
    }

    /// A string over an ASCII `alphabet` whose length is uniform in `len`.
    pub fn string(&mut self, alphabet: &[u8], len: Range<usize>) -> String {
        self.vec(len, |r| r.pick(alphabet) as char).into_iter().collect()
    }
}

/// Run `body` on `default_cases` independently seeded generators (case
/// seeds derive from `name`, so every run draws the same inputs).
///
/// `SUPREMM_CASES` overrides the count; `SUPREMM_CASE_SEED` runs that one
/// case only. A failing case prints its seed and the command replaying it.
pub fn cases(name: &str, default_cases: u64, body: impl FnMut(&mut SplitMix64)) {
    let env = |key: &str| {
        let v = std::env::var(key).ok()?;
        Some(v.parse::<u64>().unwrap_or_else(|_| panic!("{key}={v} is not an integer")))
    };
    let n = env("SUPREMM_CASES").unwrap_or(default_cases);
    if let Some((seed, panic)) = first_failure(name, n, env("SUPREMM_CASE_SEED"), body) {
        eprintln!("{name}: case failed; replay with SUPREMM_CASE_SEED={seed} cargo test {name}");
        resume_unwind(panic);
    }
}

type Panic = Box<dyn std::any::Any + Send>;

/// The seed and panic payload of the first failing case, if any.
fn first_failure(
    name: &str,
    n: u64,
    replay: Option<u64>,
    mut body: impl FnMut(&mut SplitMix64),
) -> Option<(u64, Panic)> {
    // FNV-1a of the name keeps different properties on different inputs.
    let fnv1a = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325, fnv1a);
    let mut derive = SplitMix64::new(base);
    let seeds = match replay {
        Some(seed) => vec![seed],
        None => (0..n).map(|_| derive.next_u64()).collect(),
    };
    seeds.into_iter().find_map(|seed| {
        let mut rng = SplitMix64::new(seed);
        let run = catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        run.err().map(|panic| (seed, panic))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        let draws = |seed| {
            let mut r = SplitMix64::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draws(0), [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]);
        assert_eq!(draws(1234567), [6457827717110365317, 3203168211198807973, 9817491932198370423]);
        let mut r = SplitMix64::new(0);
        assert_eq!(r.uniform(), (0xe220a8397b1dcdafu64 >> 11) as f64 / (1u64 << 53) as f64);
        assert_eq!(r.below(1000), 0x6e789e6aa1b965f4 % 1000);
    }

    #[test]
    fn helpers_stay_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!((10..13).contains(&r.range(10..13)));
            assert!((-2.0..3.0).contains(&r.uniform_in(-2.0..3.0)));
            assert!([2, 3, 5].contains(&r.pick(&[2, 3, 5])));
            let v = r.vec(1..4, |r| r.below(2));
            assert!((1..4).contains(&v.len()) && v.iter().all(|&x| x < 2));
            let s = r.string(b"xy", 0..3);
            assert!(s.len() < 3 && s.bytes().all(|b| b == b'x' || b == b'y'));
        }
    }

    #[test]
    fn cases_runs_exactly_the_default_count_deterministically() {
        let run = || {
            let mut firsts = Vec::new();
            cases("count_probe", 37, |rng| firsts.push(rng.next_u64()));
            firsts
        };
        let (a, b) = (run(), run());
        // The nightly job raises the count for the whole workspace.
        let want = std::env::var("SUPREMM_CASES").map_or(37, |v| v.parse().unwrap());
        assert_eq!(a.len(), want);
        assert_eq!(a, b);
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), want, "every case draws from its own seed");
    }

    #[test]
    fn a_failing_case_reports_a_seed_whose_replay_fails_the_same_way() {
        let body = |rng: &mut SplitMix64| {
            let x = rng.below(8);
            assert!(x != 3, "drew {x}");
        };
        let message = |p: &Panic| p.downcast_ref::<String>().cloned();
        let (seed, panic) = first_failure("fail_probe", 256, None, body).expect("1 in 8 fails");
        assert_eq!(message(&panic).as_deref(), Some("drew 3"));
        let (again, replayed) = first_failure("fail_probe", 256, Some(seed), body).unwrap();
        assert_eq!(again, seed);
        assert_eq!(message(&replayed), message(&panic));
        // A passing body reports nothing, replayed or not.
        assert!(first_failure("fail_probe", 256, Some(seed), |_| {}).is_none());
    }
}
