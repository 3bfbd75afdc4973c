//! Per-series chunk compression — the Gorilla paper's tricks adapted to
//! facility counters.
//!
//! A chunk holds one series' samples `(ts, value)` for one time window:
//!
//! - **timestamps** are near-regular (the collector ticks every ten
//!   minutes), so delta-of-delta + zigzag varints make most of them one
//!   byte (`0`);
//! - **values** take one of two encodings, chosen per chunk:
//!   - *int-delta* (tag 1) when every value is an exact integer (node
//!     counts, interval counts, byte totals): zigzag varints of
//!     consecutive differences;
//!   - *XOR* (tag 0) otherwise: each f64's bits are XORed with the
//!     previous value's; identical values cost one bit, and values with
//!     a shared exponent/mantissa-window cost only their changed bits.
//!
//! Both encodings are bit-lossless: `decode(encode(s)) == s` including
//! NaN payloads, signed zeros and infinities, because values travel as
//! raw `u64` bit patterns end to end.

use std::collections::BTreeMap;

use crate::stats::ChunkStats;

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, advancing `pos`.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift; // suplint: allow(R3) -- shift < 64 enforced by the bound check below
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Zigzag-map a signed delta into an unsigned varint-friendly value.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

// --- length-prefixed fields -------------------------------------------------
//
// The one reader and writer for variable-length fields in every
// container here and in the relay wire format. Readers never read past
// `buf`, never allocate from an unchecked length, `None` on any damage.

/// Append `varint len · bytes`.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Read `varint len · bytes`, advancing `pos` past it.
pub fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = usize::try_from(get_varint(buf, pos)?).ok()?;
    let end = pos.checked_add(len)?;
    let bytes = buf.get(*pos..end)?;
    *pos = end;
    Some(bytes)
}

/// Append `varint len · utf-8 bytes`.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Read `varint len · utf-8 bytes`; validated in place, no copy made.
pub fn get_str<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    std::str::from_utf8(get_bytes(buf, pos)?).ok()
}

/// Write side of a string table: names interned to dense ids in
/// first-seen order, serialized as `varint n · (varint len · bytes)*`.
#[derive(Default)]
pub struct StrTable<'a> {
    names: Vec<&'a str>,
    /// Every name's id.
    ids: BTreeMap<&'a str, u64>,
    /// The name interned last and its id: input in key order repeats it.
    last: Option<(&'a str, u64)>,
}

impl<'a> StrTable<'a> {
    /// The id of `s`, assigning the next one on first sight: O(1) when
    /// `s` is the name interned last, O(log n) otherwise.
    pub fn intern(&mut self, s: &'a str) -> u64 {
        if let Some((_, id)) = self.last.filter(|&(name, _)| name == s) {
            return id;
        }
        let next = self.names.len() as u64;
        let id = *self.ids.entry(s).or_insert(next);
        if id == next {
            self.names.push(s);
        }
        self.last = Some((s, id));
        id
    }

    pub fn write(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.names.len() as u64);
        for name in &self.names {
            put_str(buf, name);
        }
    }
}

/// Read a string table written by [`StrTable::write`]: every name
/// borrowed from `buf`, validated in place.
pub fn get_str_table<'a>(buf: &'a [u8], pos: &mut usize) -> Option<Vec<&'a str>> {
    let n = usize::try_from(get_varint(buf, pos)?).ok()?;
    // Each name costs at least its length byte: bound before allocating.
    if n > buf.len() {
        return None;
    }
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        table.push(get_str(buf, pos)?);
    }
    Some(table)
}

/// Append one [`ChunkStats`]: `varint count`, then the sum / min / max /
/// last bit patterns as fixed little-endian u64s.
pub fn put_stats(buf: &mut Vec<u8>, stats: &ChunkStats) {
    put_varint(buf, stats.count);
    for v in [stats.sum, stats.min, stats.max, stats.last] {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Read one [`ChunkStats`] written by [`put_stats`].
pub fn get_stats(buf: &[u8], pos: &mut usize) -> Option<ChunkStats> {
    let count = get_varint(buf, pos)?;
    let mut bits = || {
        let end = pos.checked_add(8)?;
        let raw = <[u8; 8]>::try_from(buf.get(*pos..end)?).ok()?;
        *pos = end;
        Some(f64::from_bits(u64::from_le_bytes(raw)))
    };
    Some(ChunkStats { count, sum: bits()?, min: bits()?, max: bits()?, last: bits()? })
}

// --- bit stream -----------------------------------------------------------
//
// Bits travel most significant first. The writer keeps its pending bits
// left-aligned in a 64-bit word and the reader loads a word at its bit
// position, so a field is a few shifts and an OR, never a loop over its
// bits.

struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits in the top `fill` positions; zero below them.
    acc: u64,
    /// 0..=63: a full accumulator spills at once.
    fill: u32,
}

impl BitWriter {
    /// A stream that starts after `buf`'s bytes.
    fn after(buf: Vec<u8>) -> BitWriter {
        BitWriter { buf, acc: 0, fill: 0 }
    }

    fn push_bit(&mut self, bit: bool) {
        self.push_bits(bit as u64, 1);
    }

    /// Push the low `n` bits of `v` (`n` ≤ 64), most significant first.
    fn push_bits(&mut self, v: u64, n: u32) {
        if n == 0 {
            return; // `v << 64` below would overflow
        }
        let top = v << (64 - n);
        self.acc |= top >> self.fill;
        let fill = self.fill.wrapping_add(n);
        if fill < 64 {
            self.fill = fill;
            return;
        }
        self.buf.extend_from_slice(&self.acc.to_be_bytes());
        // What did not fit is `top` past its first `64 - self.fill` bits.
        // From an empty accumulator that is a shift by 64 (nothing is
        // left), which one `<<` cannot express: hence two.
        self.acc = (top << 1) << (63 - self.fill);
        self.fill = fill.wrapping_sub(64);
    }

    /// The buffer it was made `after`, then the stream, its last byte
    /// zero-padded.
    fn into_bytes(mut self) -> Vec<u8> {
        let pending = self.fill.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_be_bytes()[..pending]);
        self.buf
    }
}

/// Reads a bit stream one 8-byte big-endian load per field. Past the
/// stream's end a load reads zeros, so a field never reads outside the
/// slice; a decoder takes its fields unchecked and asks once, at its
/// end, whether it stayed [`BitReader::within`] the stream.
struct BitReader<'a> {
    buf: &'a [u8],
    /// Bits consumed, which may run past the stream's end.
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> BitReader<'a> {
        BitReader { buf, pos: 0 }
    }

    /// The 64 bits from `pos` on, left-aligned, zeros past the stream's
    /// end: at least the top 57 are the stream's next bits.
    fn peek(&self) -> u64 {
        let at = self.pos / 8;
        let rest = self.buf.get(at..).unwrap_or_default();
        let word = match rest.first_chunk::<8>() {
            Some(word) => *word,
            None => {
                let mut word = [0u8; 8];
                word.iter_mut().zip(rest).for_each(|(to, &from)| *to = from);
                word
            }
        };
        u64::from_be_bytes(word).wrapping_shl((self.pos % 8) as u32)
    }

    fn skip(&mut self, n: u32) {
        self.pos = self.pos.wrapping_add(n as usize);
    }

    /// The next `n` bits, `1 ≤ n ≤ 64`, unchecked: one load when they
    /// fit the 57 a load guarantees, two otherwise.
    fn take(&mut self, n: u32) -> u64 {
        if n <= 57 {
            let v = self.peek() >> (64 - n);
            self.skip(n);
            return v;
        }
        let high = self.peek() >> 32;
        self.skip(32);
        let low = self.peek() >> (96 - n);
        self.skip(n - 32);
        high.wrapping_shl(n - 32) | low
    }

    /// Whether every bit taken so far was the stream's.
    fn within(&self) -> Option<()> {
        (self.pos <= self.buf.len().saturating_mul(8)).then_some(())
    }

    #[cfg(test)]
    fn read_bit(&mut self) -> Option<bool> {
        Some(self.read_bits(1)? == 1)
    }

    /// The next `n` bits (`n` ≤ 64), checked one field at a time, as
    /// the tests read a stream; `None` when fewer remain.
    #[cfg(test)]
    fn read_bits(&mut self, n: u32) -> Option<u64> {
        if n == 0 {
            return Some(0); // `take` would shift by 64
        }
        let v = self.take(n);
        self.within().map(|()| v)
    }
}

// --- value encodings ------------------------------------------------------

const MODE_XOR: u8 = 0;
const MODE_INT: u8 = 1;

/// True when the f64 behind `bits` is an exact integer that survives a
/// round trip through i64 (so int-delta encoding is lossless for it).
fn integral(bits: u64) -> Option<i64> {
    let v = f64::from_bits(bits);
    if !v.is_finite() || v.fract() != 0.0 || v.abs() >= 9.0e15 {
        return None;
    }
    let i = v as i64;
    // Reject -0.0 and anything whose bits don't round-trip exactly.
    if (i as f64).to_bits() == bits {
        Some(i)
    } else {
        None
    }
}

/// Int-delta stream. Gives up at the first value that is not an exact
/// integer, leaving a partial stream for the caller to discard.
fn encode_values_int(out: &mut Vec<u8>, samples: &[(u64, u64)]) -> bool {
    let mut prev = 0i64;
    for &(_, bits) in samples {
        let Some(v) = integral(bits) else { return false };
        put_varint(out, zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
    true
}

fn decode_values_int(buf: &[u8], pos: &mut usize, out: &mut [(u64, u64)]) -> Option<()> {
    let mut prev = 0i64;
    for slot in out {
        prev = prev.wrapping_add(unzigzag(get_varint(buf, pos)?));
        slot.1 = (prev as f64).to_bits();
    }
    Some(())
}

/// Gorilla XOR stream. Control codes per value (after the first, which
/// is 64 raw bits): `0` = identical to previous; `10` = changed bits fit
/// the previous leading/length window; `11` = new window (6 bits leading
/// zeros, 6 bits length-1, then the meaningful bits).
///
/// Appended as `varint len · stream`: the stream is written straight
/// after `out`'s bytes and its length prefix rotated in ahead of it, so
/// it has no buffer of its own.
fn encode_values_xor(out: &mut Vec<u8>, samples: &[(u64, u64)]) {
    let at = out.len();
    let mut w = BitWriter::after(std::mem::take(out));
    let mut prev = 0u64;
    let mut prev_lead = u32::MAX; // "no window yet"
    let mut prev_len = 0u32;
    for (i, &(_, bits)) in samples.iter().enumerate() {
        if i == 0 {
            w.push_bits(bits, 64);
        } else {
            let xor = prev ^ bits;
            if xor == 0 {
                w.push_bit(false);
            } else {
                let lead = xor.leading_zeros().min(63);
                let trail = xor.trailing_zeros();
                // xor != 0 guarantees lead + trail <= 63, so these cannot wrap.
                let len = 64u32.wrapping_sub(lead).wrapping_sub(trail);
                let prev_end = prev_lead.wrapping_add(prev_len);
                if prev_lead != u32::MAX && lead >= prev_lead && lead.wrapping_add(len) <= prev_end
                {
                    w.push_bits(0b10, 2);
                    w.push_bits(xor >> (64 - prev_end), prev_len);
                } else {
                    w.push_bits(0b11 << 12 | u64::from(lead) << 6 | u64::from(len - 1), 14);
                    w.push_bits(xor >> trail, len);
                    prev_lead = lead;
                    prev_len = len;
                }
            }
        }
        prev = bits;
    }
    *out = w.into_bytes();
    let stream_end = out.len();
    put_varint(out, stream_end.wrapping_sub(at) as u64);
    let prefix = out.len().wrapping_sub(stream_end);
    out[at..].rotate_right(prefix);
}

fn decode_values_xor(buf: &[u8], pos: &mut usize, out: &mut [(u64, u64)]) -> Option<()> {
    let mut r = BitReader::new(get_bytes(buf, pos)?);
    let Some(((_, first), rest)) = out.split_first_mut() else { return Some(()) };
    let mut prev = r.take(64);
    *first = prev;
    let mut prev_lead = 0u32;
    let mut prev_len = 0u32;
    for (_, slot) in rest {
        // The control code and a new window's 12 bits, in one load.
        let head = r.peek();
        if head >> 63 == 0 {
            r.skip(1);
        } else {
            if head >> 62 == 0b11 {
                let window = (head >> 50) as u32 & 0xFFF;
                prev_lead = window >> 6;
                prev_len = (window & 63) + 1;
                r.skip(14);
            } else {
                r.skip(2);
            }
            let window_end = prev_lead.wrapping_add(prev_len);
            if prev_len == 0 || window_end > 64 {
                return None;
            }
            prev ^= r.take(prev_len).wrapping_shl(64 - window_end);
        }
        *slot = prev;
    }
    r.within()
}

// --- chunk ----------------------------------------------------------------

/// Encode one series chunk: samples as `(timestamp, f64 bits)`.
///
/// Layout: `varint n · u8 mode · ts stream · value stream`. The
/// timestamp stream is `varint t0 · zigzag varint d0 · zigzag varints of
/// delta-of-deltas`. Empty input encodes as a single `0`.
pub fn encode_chunk(samples: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_chunk_into(&mut out, samples);
    out
}

/// [`encode_chunk`], appended to `out`: the bytes after `out`'s old
/// length are the chunk, and nothing else is allocated.
pub fn encode_chunk_into(out: &mut Vec<u8>, samples: &[(u64, u64)]) {
    // A ten-minute gauge costs ≈ 1 B of timestamp and ≈ 3.4 B of value a
    // sample, a counter less; anything noisier grows the buffer.
    out.reserve(samples.len() * 5 + 16);
    put_varint(out, samples.len() as u64);
    if samples.is_empty() {
        return;
    }
    let mode_at = out.len();
    out.push(MODE_INT);
    put_timestamps(out, samples);
    out[mode_at] = put_values(out, samples);
}

/// The timestamp stream of `samples` (at least one): delta-of-delta.
fn put_timestamps(out: &mut Vec<u8>, samples: &[(u64, u64)]) {
    put_varint(out, samples[0].0);
    if samples.len() >= 2 {
        let d0 = samples[1].0.wrapping_sub(samples[0].0) as i64;
        put_varint(out, zigzag(d0));
        let mut prev_delta = d0;
        for w in samples.windows(2).skip(1) {
            let d = w[1].0.wrapping_sub(w[0].0) as i64;
            put_varint(out, zigzag(d.wrapping_sub(prev_delta)));
            prev_delta = d;
        }
    }
}

/// Read `n` (at least one) timestamps into `out`, replacing what it
/// held, each with a zero value for the value stream to fill in.
fn get_timestamps(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<(u64, u64)>) -> Option<()> {
    out.clear();
    out.resize(n, (0, 0));
    let Some(((first, _), rest)) = out.split_first_mut() else { return Some(()) };
    let mut ts = get_varint(buf, pos)?;
    *first = ts;
    // The first delta is a delta-of-delta from zero.
    let mut delta = 0i64;
    for (slot, _) in rest {
        // A regular tick's delta-of-delta is one byte: read it here.
        let dod = match buf.get(*pos) {
            Some(&byte) if byte < 0x80 => {
                *pos += 1;
                u64::from(byte)
            }
            _ => get_varint(buf, pos)?,
        };
        delta = delta.wrapping_add(unzigzag(dod));
        ts = ts.wrapping_add(delta as u64);
        *slot = ts;
    }
    Some(())
}

/// The value stream of `samples`, returning its mode: int-delta is tried
/// in place and, when a value is not an integer (a gauge's first), cut
/// off again for XOR.
fn put_values(out: &mut Vec<u8>, samples: &[(u64, u64)]) -> u8 {
    let values_at = out.len();
    if encode_values_int(out, samples) {
        return MODE_INT;
    }
    out.truncate(values_at);
    encode_values_xor(out, samples);
    MODE_XOR
}

/// Fill the values of `out` from a value stream of `mode`.
fn get_values(buf: &[u8], pos: &mut usize, mode: u8, out: &mut [(u64, u64)]) -> Option<()> {
    match mode {
        MODE_INT => decode_values_int(buf, pos, out),
        MODE_XOR => decode_values_xor(buf, pos, out),
        _ => None,
    }
}

/// Decode a chunk produced by [`encode_chunk`]; `None` on any corruption.
pub fn decode_chunk(buf: &[u8]) -> Option<Vec<(u64, u64)>> {
    let mut pos = 0usize;
    let samples = decode_chunk_at(buf, &mut pos)?;
    if pos == buf.len() {
        Some(samples)
    } else {
        None
    }
}

/// Decode a chunk starting at `pos` (for streams of concatenated
/// chunks); advances `pos` past it.
pub fn decode_chunk_at(buf: &[u8], pos: &mut usize) -> Option<Vec<(u64, u64)>> {
    let mut out = Vec::new();
    decode_chunk_into(buf, pos, &mut out)?;
    Some(out)
}

/// [`decode_chunk_at`] into `out`, replacing what it held: a reader that
/// decodes chunk after chunk into one buffer allocates only when a chunk
/// outgrows it. On `None`, `out` holds no meaningful samples.
pub fn decode_chunk_into(buf: &[u8], pos: &mut usize, out: &mut Vec<(u64, u64)>) -> Option<()> {
    out.clear();
    let n = get_varint(buf, pos)? as usize;
    if n == 0 {
        return Some(());
    }
    // Each sample costs ≥ 1 byte of timestamp stream; refuse a claimed
    // count the bytes cannot hold before allocating for it.
    if n > buf.len().saturating_sub(*pos) {
        return None;
    }
    let &mode = buf.get(*pos)?;
    *pos += 1;
    // Timestamps first, then the value stream fills in beside them.
    get_timestamps(buf, pos, n, out)?;
    get_values(buf, pos, mode, out)
}

// --- stats chunk ------------------------------------------------------------

/// The five streams of a stats chunk, in order: each field of a bin's
/// [`ChunkStats`] as the bits its value stream carries. The count
/// travels as an `f64`, exact below 2⁵³ — no bin gets near that, as
/// each sample it counts cost a byte somewhere.
const STATS_FIELDS: [fn(&ChunkStats) -> u64; 5] = [
    |s| (s.count as f64).to_bits(),
    |s| s.sum.to_bits(),
    |s| s.min.to_bits(),
    |s| s.max.to_bits(),
    |s| s.last.to_bits(),
];

/// Encode one stats chunk: `(bin start, stats)` per bin, bin starts
/// strictly ascending, every count at least one.
///
/// Layout: `varint n · ts stream · 5 × (u8 mode · value stream)` — the
/// bin starts in the timestamp stream, then count, sum, min, max and
/// last, each in its own int-delta or XOR stream. Empty input encodes
/// as a single `0`.
pub fn encode_stats_chunk_into(out: &mut Vec<u8>, bins: &[(u64, ChunkStats)]) {
    put_varint(out, bins.len() as u64);
    if bins.is_empty() {
        return;
    }
    let mut column: Vec<(u64, u64)> = bins.iter().map(|&(start, _)| (start, 0)).collect();
    put_timestamps(out, &column);
    for field in STATS_FIELDS {
        for (slot, (_, stats)) in column.iter_mut().zip(bins) {
            slot.1 = field(stats);
        }
        let mode_at = out.len();
        out.push(MODE_INT);
        out[mode_at] = put_values(out, &column);
    }
}

/// Decode a stats chunk made by [`encode_stats_chunk_into`] at `pos`
/// into `out` (replacing what it held), through the scratch `column`;
/// advances `pos` past it. `None` on any damage: bin starts that do not
/// strictly ascend or a count that is not a whole number ≥ 1 are
/// refused, so at most one bin per byte ever comes out.
pub fn decode_stats_chunk_into(
    buf: &[u8],
    pos: &mut usize,
    column: &mut Vec<(u64, u64)>,
    out: &mut Vec<(u64, ChunkStats)>,
) -> Option<()> {
    out.clear();
    let n = get_varint(buf, pos)? as usize;
    if n == 0 {
        return Some(());
    }
    // Each bin costs ≥ 1 byte of timestamp stream.
    if n > buf.len().saturating_sub(*pos) {
        return None;
    }
    get_timestamps(buf, pos, n, column)?;
    if !column.windows(2).all(|w| w[0].0 < w[1].0) {
        return None;
    }
    out.extend(column.iter().map(|&(start, _)| (start, ChunkStats::invalid())));
    for field in 0..STATS_FIELDS.len() {
        let &mode = buf.get(*pos)?;
        *pos += 1;
        get_values(buf, pos, mode, column)?;
        for ((_, stats), &(_, bits)) in out.iter_mut().zip(column.iter()) {
            let v = f64::from_bits(bits);
            match field {
                0 if v >= 1.0 && v.fract() == 0.0 => stats.count = v as u64,
                0 => return None,
                1 => stats.sum = v,
                2 => stats.min = v,
                3 => stats.max = v,
                _ => stats.last = v,
            }
        }
    }
    Some(())
}

/// The sample streams `tests/proptests.rs` draws, so the differential
/// tests below run on the shapes the properties run on.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/common/mod.rs"]
mod strategy;

/// The bit-at-a-time stream the word kernel replaced, and the chunk
/// decoder as it stood on top of it: what the differential tests hold
/// the kernel to, bit for bit and `None` for `None`.
#[cfg(test)]
mod reference {
    use super::{get_bytes, get_varint, unzigzag, MODE_INT, MODE_XOR};

    pub struct BitWriter {
        buf: Vec<u8>,
        /// Bits already used in the last byte (0..8; 8 means full).
        used: u32,
    }

    impl BitWriter {
        pub fn new() -> BitWriter {
            BitWriter { buf: Vec::new(), used: 8 }
        }

        fn push_bit(&mut self, bit: bool) {
            if self.used == 8 {
                self.buf.push(0);
                self.used = 0;
            }
            if bit {
                let last = self.buf.len() - 1;
                self.buf[last] |= 1 << (7 - self.used);
            }
            self.used += 1;
        }

        pub fn push_bits(&mut self, v: u64, n: u32) {
            for i in (0..n).rev() {
                self.push_bit((v >> i) & 1 == 1);
            }
        }

        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    pub struct BitReader<'a> {
        buf: &'a [u8],
        pos: usize,
        used: u32,
    }

    impl<'a> BitReader<'a> {
        pub fn new(buf: &'a [u8]) -> BitReader<'a> {
            BitReader { buf, pos: 0, used: 0 }
        }

        fn read_bit(&mut self) -> Option<bool> {
            let byte = *self.buf.get(self.pos)?;
            let bit = (byte >> (7 - self.used)) & 1 == 1;
            self.used += 1;
            if self.used == 8 {
                self.used = 0;
                self.pos += 1;
            }
            Some(bit)
        }

        pub fn read_bits(&mut self, n: u32) -> Option<u64> {
            let mut v = 0u64;
            for _ in 0..n {
                v = (v << 1) | self.read_bit()? as u64;
            }
            Some(v)
        }
    }

    fn decode_values_int(buf: &[u8], pos: &mut usize, n: usize) -> Option<Vec<u64>> {
        let mut out = Vec::with_capacity(n);
        let mut prev = 0i64;
        for _ in 0..n {
            let v = prev.wrapping_add(unzigzag(get_varint(buf, pos)?));
            prev = v;
            out.push((v as f64).to_bits());
        }
        Some(out)
    }

    fn decode_values_xor(buf: &[u8], pos: &mut usize, n: usize) -> Option<Vec<u64>> {
        let mut r = BitReader::new(get_bytes(buf, pos)?);
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u64;
        let mut prev_lead = 0u32;
        let mut prev_len = 0u32;
        for i in 0..n {
            let bits = if i == 0 {
                r.read_bits(64)?
            } else if !r.read_bit()? {
                prev
            } else {
                if r.read_bit()? {
                    prev_lead = r.read_bits(6)? as u32;
                    prev_len = r.read_bits(6)? as u32 + 1;
                }
                let window_end = prev_lead.checked_add(prev_len)?;
                if prev_len == 0 || window_end > 64 {
                    return None;
                }
                let meaningful = r.read_bits(prev_len)?;
                prev ^ (meaningful << (64 - window_end))
            };
            out.push(bits);
            prev = bits;
        }
        Some(out)
    }

    pub fn decode_chunk(buf: &[u8]) -> Option<Vec<(u64, u64)>> {
        let pos = &mut 0usize;
        let n = get_varint(buf, pos)? as usize;
        if n == 0 {
            return (*pos == buf.len()).then(Vec::new);
        }
        if n > buf.len().saturating_sub(*pos) {
            return None;
        }
        let &mode = buf.get(*pos)?;
        *pos += 1;

        let mut ts = Vec::with_capacity(n);
        ts.push(get_varint(buf, pos)?);
        if n >= 2 {
            let mut delta = unzigzag(get_varint(buf, pos)?);
            ts.push(ts[0].wrapping_add(delta as u64));
            for i in 2..n {
                delta = delta.wrapping_add(unzigzag(get_varint(buf, pos)?));
                ts.push(ts[i - 1].wrapping_add(delta as u64));
            }
        }

        let values = match mode {
            MODE_INT => decode_values_int(buf, pos, n)?,
            MODE_XOR => decode_values_xor(buf, pos, n)?,
            _ => return None,
        };
        (*pos == buf.len()).then(|| ts.into_iter().zip(values).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::strategy::{samples_of, Spacing, Values};
    use super::*;
    use supremm_metrics::rng::{cases, SplitMix64};

    fn round_trip(samples: &[(u64, u64)]) {
        let enc = encode_chunk(samples);
        let dec = decode_chunk(&enc).expect("decodes");
        assert_eq!(dec, samples, "chunk round trip");
    }

    #[test]
    fn empty_and_single() {
        round_trip(&[]);
        round_trip(&[(0, 0)]);
        round_trip(&[(600, 3.25f64.to_bits())]);
    }

    /// `StrTable` assigns the ids, and writes the bytes, a linear
    /// search in first-seen order would: for input in key order (runs
    /// of one name) and for any other.
    #[test]
    fn str_table_ids_are_first_seen_order() {
        cases("str_table_ids_are_first_seen_order", 256, |rng| {
            let mut names: Vec<String> = rng.vec(0..200, |r| format!("h{:02}", r.range(0..40)));
            if rng.range(0..2) == 0 {
                names.sort(); // runs of one name, as key-ordered input has
            }
            let mut table = StrTable::default();
            let mut seen: Vec<&str> = Vec::new();
            for name in &names {
                let want = seen.iter().position(|s| s == name).unwrap_or_else(|| {
                    seen.push(name);
                    seen.len() - 1
                });
                assert_eq!(table.intern(name), want as u64, "{name} in {names:?}");
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            table.write(&mut got);
            put_varint(&mut want, seen.len() as u64);
            seen.iter().for_each(|s| put_str(&mut want, s));
            assert_eq!(got, want);
            let mut pos = 0;
            assert_eq!(get_str_table(&got, &mut pos), Some(seen));
            assert_eq!(pos, got.len());
        });
    }

    fn stats(count: u64, [sum, min, max, last]: [f64; 4]) -> ChunkStats {
        ChunkStats { count, sum, min, max, last }
    }

    /// A stats chunk's bins with their floats as bits, so NaNs compare.
    fn stats_bits(bins: &[(u64, ChunkStats)]) -> Vec<(u64, [u64; 5])> {
        let bits = |s: &ChunkStats| {
            let [sum, min, max, last] = [s.sum, s.min, s.max, s.last].map(f64::to_bits);
            [s.count, sum, min, max, last]
        };
        bins.iter().map(|(start, s)| (*start, bits(s))).collect()
    }

    fn decode_stats(buf: &[u8]) -> Option<Vec<(u64, ChunkStats)>> {
        let (mut pos, mut column, mut out) = (0, Vec::new(), Vec::new());
        decode_stats_chunk_into(buf, &mut pos, &mut column, &mut out)?;
        (pos == buf.len()).then_some(out)
    }

    /// Bins with special floats — NaN payloads, ±∞, ±0 — come back bit
    /// for bit; the bytes are pinned.
    #[test]
    fn stats_chunk_round_trips_bitwise() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0001);
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        let bins = [
            (0, stats(3, [6.5, 1.0, 4.0, 1.5])),
            (600, stats(1, [nan, inf, ninf, nan])),
            (1200, stats(2, [-0.0, -0.0, 0.0, 0.0])),
        ];
        let mut enc = Vec::new();
        encode_stats_chunk_into(&mut enc, &bins);
        assert_eq!((enc.len(), crate::crc::crc32(&enc)), (100, 0x7116_68DB));
        assert_eq!(stats_bits(&decode_stats(&enc).unwrap()), stats_bits(&bins));
        let mut empty = Vec::new();
        encode_stats_chunk_into(&mut empty, &[]);
        assert_eq!((empty.clone(), decode_stats(&empty).unwrap().len()), (vec![0], 0));
    }

    /// Cut anywhere, a stats chunk is refused; a flipped byte never
    /// panics, and one the decoder accepts yields at most a bin per byte.
    /// Starts that do not ascend, and counts that are not whole numbers
    /// of at least one, are refused.
    #[test]
    fn stats_chunk_decode_refuses_cuts_and_bounds_flips() {
        let one = stats(1, [1.0; 4]);
        let bins: Vec<(u64, ChunkStats)> =
            (0..6).map(|i| (i * 60, stats(i + 1, [i as f64 * 0.5, -1.0, 2.0, 0.25]))).collect();
        let mut enc = Vec::new();
        encode_stats_chunk_into(&mut enc, &bins);
        for cut in 0..enc.len() {
            assert!(decode_stats(&enc[..cut]).is_none(), "cut {cut}");
        }
        for i in 0..enc.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = enc.clone();
                bad[i] ^= mask;
                if let Some(out) = decode_stats(&bad) {
                    assert!(out.len() <= bad.len(), "flip {i}");
                    assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "flip {i}");
                    assert!(out.iter().all(|(_, s)| s.count >= 1), "flip {i}");
                }
            }
        }
        for refused in
            [vec![(60, one), (60, one)], vec![(60, one), (0, one)], vec![(0, stats(0, [1.0; 4]))]]
        {
            let mut enc = Vec::new();
            encode_stats_chunk_into(&mut enc, &refused);
            assert!(decode_stats(&enc).is_none(), "{refused:?}");
        }
    }

    #[test]
    fn regular_timestamps_compress_to_about_a_byte_each() {
        let samples: Vec<(u64, u64)> =
            (0..1000).map(|i| (600 + i * 600, 42.5f64.to_bits())).collect();
        let enc = encode_chunk(&samples);
        // 1000 samples: ~2 bytes of DoD stream + ~1 bit of XOR each.
        assert!(enc.len() < 1300, "{} bytes for 1000 samples", enc.len());
        round_trip(&samples);
    }

    #[test]
    fn integer_series_use_delta_mode() {
        let counts: Vec<(u64, u64)> =
            (0..500).map(|i| (i * 600, ((i % 48) as f64).to_bits())).collect();
        let enc = encode_chunk(&counts);
        assert_eq!(enc[1 + varint_len(500)], super::MODE_INT);
        assert!(enc.len() < 1600, "{} bytes", enc.len());
        round_trip(&counts);
    }

    fn varint_len(v: u64) -> usize {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        buf.len() - 1
    }

    fn special_floats() -> Vec<(u64, u64)> {
        let specials = [
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::NAN.to_bits(),
            0x7FF8_0000_DEAD_BEEF, // NaN with payload
            f64::MIN_POSITIVE.to_bits(),
            f64::MAX.to_bits(),
        ];
        specials.iter().enumerate().map(|(i, &b)| (i as u64 * 7, b)).collect()
    }

    #[test]
    fn special_float_values_survive() {
        round_trip(&special_floats());
    }

    /// A day of a ten-minute gauge: a quantised load that holds still,
    /// moves inside its window, and now and then jumps out of it.
    fn gauge_day() -> Vec<(u64, u64)> {
        let mut rng = SplitMix64::new(0x5EED_6A06);
        let mut v = 40.0f64;
        (1..=144)
            .map(|i| {
                match rng.below(4) {
                    0 => {}
                    1 | 2 => v = 40.0 + rng.below(64) as f64 / 8.0,
                    _ => v = rng.uniform_in(0.0..100.0),
                }
                (i * 600, v.to_bits())
            })
            .collect()
    }

    /// A day of a monotone counter, one tick in sixteen a second late.
    fn counter_day() -> Vec<(u64, u64)> {
        let mut rng = SplitMix64::new(0x5EED_C7A0);
        let mut total = 0u64;
        (1..=144)
            .map(|i| {
                total += rng.below(1 << 20);
                (i * 600 + u64::from(rng.below(16) == 0), (total as f64).to_bits())
            })
            .collect()
    }

    /// How many values of an XOR chunk took each control code:
    /// `[0, 10, 11]`.
    fn xor_codes(enc: &[u8]) -> [usize; 3] {
        let mut pos = 0;
        let n = get_varint(enc, &mut pos).unwrap();
        assert_eq!(enc[pos], MODE_XOR);
        pos += 1;
        (0..n).for_each(|_| {
            get_varint(enc, &mut pos).unwrap();
        });
        let mut r = BitReader::new(get_bytes(enc, &mut pos).unwrap());
        r.read_bits(64).unwrap();
        let (mut codes, mut len) = ([0; 3], 0);
        for _ in 1..n {
            if !r.read_bit().unwrap() {
                codes[0] += 1;
                continue;
            }
            if r.read_bit().unwrap() {
                len = r.read_bits(12).unwrap() as u32 % 64 + 1;
                codes[2] += 1;
            } else {
                codes[1] += 1;
            }
            r.read_bits(len).unwrap();
        }
        codes
    }

    /// The bytes `encode_chunk` produced before the bit stream went from
    /// a bit to a word at a time (length + CRC32), pinned where they are
    /// made: segments, relay frames and spools all carry them.
    #[test]
    fn encoded_bytes_are_pinned() {
        let pin = |samples: &[(u64, u64)]| {
            let enc = encode_chunk(samples);
            (enc.len(), crate::crc::crc32(&enc))
        };
        assert_eq!(xor_codes(&encode_chunk(&gauge_day())), [35, 106, 2]);
        assert_eq!(pin(&gauge_day()), (936, 0x28C5_7391));
        assert_eq!(pin(&counter_day()), (580, 0x12D1_785C));
        assert_eq!(pin(&special_floats()), (53, 0xAC77_4067));
    }

    #[test]
    fn out_of_order_and_duplicate_timestamps_still_round_trip() {
        round_trip(&[(100, 1u64), (50, 2), (50, 3), (u64::MAX, 4), (0, 5)]);
    }

    #[test]
    fn truncated_chunks_decode_to_none_never_panic() {
        let samples: Vec<(u64, u64)> =
            (0..64).map(|i| (i * 600, (i as f64 * 0.37).to_bits())).collect();
        let enc = encode_chunk(&samples);
        for cut in 0..enc.len() {
            assert!(decode_chunk(&enc[..cut]).is_none(), "cut at {cut} must not decode");
        }
        // Flipping any byte must never panic (may or may not decode).
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x55;
            let _ = decode_chunk(&bad);
        }
    }

    /// A chunk may claim at most one sample per remaining byte (each
    /// costs ≥ 1 byte of timestamp stream); a larger count is refused
    /// before anything is reserved for it. A cap of 64 samples per byte
    /// would let a well-formed header reserve 512 B per input byte.
    #[test]
    fn hostile_sample_count_is_refused() {
        let claiming = |n: u64, rest: &[u8]| {
            let mut buf = Vec::new();
            put_varint(&mut buf, n);
            buf.extend_from_slice(rest);
            buf
        };
        // Mode byte, then 64 KiB of one-byte varints.
        let mut rest = vec![super::MODE_INT];
        rest.resize(1 + (64 << 10), 0x00);
        for n in [rest.len() as u64 * 64, rest.len() as u64 + 1] {
            assert!(decode_chunk_at(&claiming(n, &rest), &mut 0).is_none(), "claimed {n}");
        }
        // The densest legal chunk sits well inside the bound: constant
        // integers at a constant step are two bytes a sample.
        let dense: Vec<(u64, u64)> = (0..4096).map(|i| (i * 600, 7.0f64.to_bits())).collect();
        assert!(encode_chunk(&dense).len() < 2 * dense.len() + 16);
        round_trip(&dense);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut enc = encode_chunk(&[(600, 1.0f64.to_bits())]);
        enc.push(0x00);
        assert!(decode_chunk(&enc).is_none());
    }

    #[test]
    fn xor_identical_values_cost_one_bit() {
        let samples: Vec<(u64, u64)> =
            (0..800).map(|i| (i * 600, 0.123456789f64.to_bits())).collect();
        let enc = encode_chunk(&samples);
        // ~800 DoD bytes? No: regular spacing → 1 byte each after the
        // first two; values → 8 bytes + ~100 bytes of zero bits.
        assert!(enc.len() < 1100, "{} bytes", enc.len());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    // --- the word kernel against the bit-at-a-time reference ---------------

    /// Both writers fed `fields` produce the same bytes, and the reader
    /// gets every field back out of them.
    fn assert_same_stream(fields: &[(u64, u32)]) {
        let (mut new, mut old) = (BitWriter::after(Vec::new()), reference::BitWriter::new());
        for &(v, n) in fields {
            new.push_bits(v, n);
            old.push_bits(v, n);
        }
        let bytes = new.into_bytes();
        assert_eq!(bytes, old.into_bytes());
        let mut r = BitReader::new(&bytes);
        for (i, &(v, n)) in fields.iter().enumerate() {
            let low = if n == 64 { v } else { v & ((1 << n) - 1) };
            assert_eq!(r.read_bits(n), Some(low), "field {i}, {n} bits");
        }
        // Less than a byte of padding is all that is left.
        assert_eq!(r.read_bits(8), None);
    }

    #[test]
    fn writer_matches_bit_at_a_time_at_every_fill_and_width() {
        let mut rng = SplitMix64::new(0x5EED_B175);
        for fill in 0..=63 {
            for width in 0..=64 {
                let after = rng.below(65) as u32;
                let fields = [fill, width, after].map(|n| (rng.next_u64(), n));
                assert_same_stream(&fields);
            }
        }
    }

    #[test]
    fn bit_streams_match_bit_at_a_time_on_seeded_fields() {
        cases("bit_streams_match_bit_at_a_time_on_seeded_fields", 256, |rng| {
            assert_same_stream(&rng.vec(0..200, |r| (r.next_u64(), r.below(65) as u32)));
            // Any bytes read at any widths: the same fields, and `None`
            // at the same read, which is the first to ask for more bits
            // than remain.
            let bytes = rng.vec(0..64, |r| r.next_u64() as u8);
            let (mut new, mut old) = (BitReader::new(&bytes), reference::BitReader::new(&bytes));
            loop {
                let n = rng.below(65) as u32;
                let got = new.read_bits(n);
                assert_eq!(got, old.read_bits(n), "{n} bits of {bytes:x?}");
                if got.is_none() {
                    break;
                }
            }
        });
    }

    /// `v << 64` overflows and `wrapping_shl(64)` does nothing, so the
    /// widths 0 and 64, an empty accumulator and an empty window each
    /// take a branch of their own.
    #[test]
    fn widths_0_and_64_on_empty_and_part_filled_state() {
        const WORD: u64 = 0x0123_4567_89AB_CDEF;
        let written = |fields: &[(u64, u32)]| {
            let mut w = BitWriter::after(Vec::new());
            fields.iter().for_each(|&(v, n)| w.push_bits(v, n));
            w.into_bytes()
        };
        assert_eq!(written(&[]), [0u8; 0]);
        assert_eq!(written(&[(u64::MAX, 0)]), [0u8; 0]);
        assert_eq!(written(&[(WORD, 64), (u64::MAX, 0)]), WORD.to_be_bytes());
        let spilled = written(&[(0b101, 3), (u64::MAX, 0), (u64::MAX, 64)]);
        assert_eq!(spilled, [0xBF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xE0]);

        let mut r = BitReader::new(&[]);
        assert_eq!((r.read_bits(0), r.read_bits(1), r.read_bits(64)), (Some(0), None, None));
        let word = WORD.to_be_bytes();
        let mut r = BitReader::new(&word);
        assert_eq!((r.read_bits(0), r.read_bits(64)), (Some(0), Some(WORD)));
        assert_eq!((r.read_bits(0), r.read_bits(1)), (Some(0), None));
        let mut r = BitReader::new(&spilled);
        assert_eq!((r.read_bits(3), r.read_bits(64)), (Some(0b101), Some(u64::MAX)));
        assert_eq!((r.read_bits(5), r.read_bits(1)), (Some(0), None));
        // One bit short of a 64-bit field, with the window part-filled.
        let mut r = BitReader::new(&spilled[1..]);
        assert_eq!((r.read_bits(1), r.read_bits(64)), (Some(1), None));
    }

    #[test]
    fn decoder_matches_reference_on_every_truncation_and_bit_flip() {
        cases("decoder_matches_reference_on_every_truncation_and_bit_flip", 16, |rng| {
            for values in Values::ALL {
                let spacing = rng.pick(&Spacing::ALL);
                let samples = samples_of(rng, spacing, values, 1..16);
                let enc = encode_chunk(&samples);
                assert_eq!(reference::decode_chunk(&enc).as_ref(), Some(&samples), "{values:?}");
                for cut in 0..enc.len() {
                    let cut = &enc[..cut];
                    assert_eq!(decode_chunk(cut), reference::decode_chunk(cut), "{cut:x?}");
                }
                for bit in 0..enc.len() * 8 {
                    let mut bad = enc.clone();
                    bad[bit / 8] ^= 0x80 >> (bit % 8);
                    assert_eq!(decode_chunk(&bad), reference::decode_chunk(&bad), "{bad:x?}");
                }
            }
        });
    }
}
