//! Sample streams for the chunk codec's property and differential
//! tests. `tests/proptests.rs` declares this module; `src/codec.rs`'s
//! unit tests include the same file by path, so the differential tests
//! against the reference bit stream draw from the strategy the
//! properties use.

use std::ops::Range;

use supremm_metrics::rng::SplitMix64;

/// How a case spaces its timestamps.
#[derive(Clone, Copy, Debug)]
pub enum Spacing {
    /// A constant step: every delta-of-delta is the one byte `0`.
    Regular,
    /// The step a second early or late: one-byte non-zero delta-of-deltas.
    Jittered,
    /// Any `u64` after any other: wrap-around deltas, ten-byte varints.
    Arbitrary,
}

/// How each value of a case follows from the one before it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Values {
    /// Integers a small step apart: int-delta mode.
    Integral,
    /// The same bits again: control code `0`.
    Held,
    /// A few bits changed inside one per-case mantissa field: a narrow
    /// window, then control code `10`.
    FewBits,
    /// Any bit pattern, NaN payloads, infinities and signed zeros among
    /// them: control code `11` with windows past 56 bits.
    Arbitrary,
    /// One of the four above, drawn afresh for every sample.
    Mixed,
}

impl Spacing {
    pub const ALL: [Spacing; 3] = [Spacing::Regular, Spacing::Jittered, Spacing::Arbitrary];
}

impl Values {
    /// `Mixed` last: it draws from the four before it.
    pub const ALL: [Values; 5] =
        [Values::Integral, Values::Held, Values::FewBits, Values::Arbitrary, Values::Mixed];
}

/// A chunk's worth of `(timestamp, f64 bits)` with the spacing and the
/// value shape drawn per case.
pub fn samples_strategy(rng: &mut SplitMix64, len: Range<usize>) -> Vec<(u64, u64)> {
    let (spacing, values) = (rng.pick(&Spacing::ALL), rng.pick(&Values::ALL));
    samples_of(rng, spacing, values, len)
}

pub fn samples_of(
    rng: &mut SplitMix64,
    spacing: Spacing,
    values: Values,
    len: Range<usize>,
) -> Vec<(u64, u64)> {
    let step = rng.pick(&[1u64, 60, 600]);
    let mut ts = rng.below(1 << 40);
    let mut bits = rng.next_u64();
    // The field `FewBits` changes: `width` bits, `shift` up from bit 0.
    let (shift, width) = (rng.below(52), rng.range(1..13));
    rng.vec(len, |r| {
        ts = match spacing {
            Spacing::Regular => ts.wrapping_add(step),
            Spacing::Jittered => ts.wrapping_add(step + r.below(3)).wrapping_sub(1),
            Spacing::Arbitrary => r.next_u64(),
        };
        let follow = if values == Values::Mixed { r.pick(&Values::ALL[..4]) } else { values };
        bits = match follow {
            Values::Integral => {
                let near = f64::from_bits(bits) as i64 % (1 << 40);
                ((near + r.below(1 << 20) as i64 - (1 << 18)) as f64).to_bits()
            }
            Values::Held => bits,
            Values::FewBits => bits ^ (r.below(1 << width) << shift),
            Values::Arbitrary | Values::Mixed => match r.below(8) {
                0 => 0x7FF8_0000_0000_0000 | r.next_u64() >> 13, // NaN, any payload
                1 => r.pick(&[0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY]).to_bits(),
                _ => r.next_u64(),
            },
        };
        (ts, bits)
    })
}
