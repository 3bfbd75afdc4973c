//! Cumulative-counter post-processing: deltas, wrap correction, reset
//! detection.
//!
//! Event counters in the raw files are cumulative reads of hardware/kernel
//! registers. Analysis wants per-interval increments, which requires
//! handling two ugly realities the paper's deployment hit: narrow
//! registers (32-bit IB port counters, 48-bit perf MSRs) that wrap between
//! ten-minute samples, and counters that restart from zero when a node
//! reboots or a module reloads.

use supremm_metrics::schema::CounterKind;

/// The increment of a single counter between two reads.
///
/// - Non-decreasing: plain difference.
/// - Decreased on a narrow register: assume exactly one wrap (at a
///   ten-minute cadence more than one wrap of a 32-bit byte counter means
///   >2.3 GB/s sustained per counter, beyond these fabrics).
/// - Decreased on a full-width register: a counter reset (reboot); the
///   best estimate of the increment is the current value itself.
pub fn counter_delta(prev: u64, cur: u64, kind: CounterKind) -> u64 {
    if cur >= prev {
        return cur - prev;
    }
    match kind.wrap_modulus() {
        Some(m) => cur + (m - prev),
        None => cur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_delta() {
        let k = CounterKind::Event { width: 64 };
        assert_eq!(counter_delta(100, 350, k), 250);
        assert_eq!(counter_delta(0, 0, k), 0);
    }

    #[test]
    fn wrap_correction_32_bit() {
        let k = CounterKind::Event { width: 32 };
        let m = 1u64 << 32;
        // prev near top, cur wrapped past zero.
        assert_eq!(counter_delta(m - 10, 20, k), 30);
        // Exactly at wrap.
        assert_eq!(counter_delta(m - 1, 0, k), 1);
    }

    #[test]
    fn full_width_decrease_is_reset() {
        let k = CounterKind::Event { width: 64 };
        assert_eq!(counter_delta(1_000_000, 250, k), 250);
    }
}
