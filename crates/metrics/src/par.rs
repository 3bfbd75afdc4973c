//! Data parallelism over slices on `std::thread::scope`.
//!
//! Work is split into one contiguous chunk per worker. The worker count
//! comes from the machine and the input alone: short inputs run inline
//! on the caller's thread, so results never depend on it.

use std::panic::resume_unwind;
use std::thread;

/// Fewest items worth a thread of their own: a spawn costs tens of
/// microseconds, the cheapest body run through here (one collector
/// sample) about sixteen.
const MIN_CHUNK: usize = 32;

/// Length of each worker's chunk for `len` items (at least `len` when
/// the work should stay on the caller's thread).
fn chunk_len(len: usize) -> usize {
    let workers = thread::available_parallelism().map_or(1, |n| n.get()).min(len / MIN_CHUNK);
    len.div_ceil(workers.max(1)).max(1)
}

/// Call `f(index, &mut item)` on every item, chunks in parallel.
pub fn for_each_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    let chunk = chunk_len(items.len());
    let run = |c: usize, part: &mut [T]| {
        part.iter_mut().enumerate().for_each(|(i, item)| f(c * chunk + i, item));
    };
    if chunk >= items.len() {
        return run(0, items);
    }
    let run = &run;
    // A panicking worker re-panics here once every worker has finished.
    thread::scope(|scope| {
        for (c, part) in items.chunks_mut(chunk).enumerate() {
            scope.spawn(move || run(c, part));
        }
    });
}

/// Map every item and combine the results left to right with `reduce`
/// (which must be associative), chunks in parallel. `None` when empty.
pub fn map_reduce<T: Sync, A: Send>(
    items: &[T],
    map: impl Fn(&T) -> A + Sync,
    reduce: impl Fn(A, A) -> A + Sync,
) -> Option<A> {
    let chunk = chunk_len(items.len());
    let run = |part: &[T]| part.iter().map(&map).reduce(&reduce);
    if chunk >= items.len() {
        return run(items);
    }
    let run = &run;
    thread::scope(|scope| {
        let workers: Vec<_> =
            items.chunks(chunk).map(|part| scope.spawn(move || run(part))).collect();
        let joined = workers.into_iter().map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)));
        joined.flatten().reduce(&reduce)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0, 1, fewer than any machine's worth of chunks, and many.
    const LENGTHS: [usize; 5] = [0, 1, MIN_CHUNK - 1, 3 * MIN_CHUNK + 1, 10_000];

    #[test]
    fn for_each_mut_equals_the_serial_loop() {
        for len in LENGTHS {
            let mut got = vec![1u64; len];
            for_each_mut(&mut got, |i, x| *x += 3 * i as u64);
            let want: Vec<u64> = (0..len as u64).map(|i| 1 + 3 * i).collect();
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn map_reduce_equals_the_serial_fold_in_order() {
        for len in LENGTHS {
            let items: Vec<usize> = (0..len).collect();
            // String concatenation is associative but not commutative,
            // so any reordering of chunks or items shows.
            let got = map_reduce(&items, |i| i.to_string(), |a, b| a + "," + &b);
            let want = items.iter().map(|i| i.to_string()).reduce(|a, b| a + "," + &b);
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn a_panicking_worker_propagates() {
        let boom = |i: usize| assert!(i != 9_999, "worker failed on {i}");
        let r = std::panic::catch_unwind(|| for_each_mut(&mut vec![0u8; 10_000], |i, _| boom(i)));
        assert!(r.is_err());
        let items: Vec<usize> = (0..10_000).collect();
        let r = std::panic::catch_unwind(|| map_reduce(&items, |&i| boom(i), |(), ()| ()));
        assert!(r.is_err());
    }
}
