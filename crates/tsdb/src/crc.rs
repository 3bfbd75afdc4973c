//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-16.
//!
//! Every block and WAL frame carries one of these; a mismatch is how
//! torn writes and bit rot announce themselves. Every block read, every
//! index frame at open and every WAL frame at replay is verified, so
//! the checksum sits on every cold path. The kernel takes sixteen input
//! bytes per step through sixteen tables (table `k` is the CRC of a byte
//! followed by `k` zero bytes), which makes the sixteen lookups of a step
//! independent of each other where a bytewise loop chains one lookup per
//! byte — about nine times that loop's throughput for 16 KiB of tables
//! (DESIGN.md, "Integrity cost", has the measurements).
//!
//! There is deliberately no hardware path: PCLMULQDQ / ARMv8 CRC need
//! `unsafe`, `std::arch` and a platform fork, and the benchmark cannot
//! put a workload on each side of such a fork. This is the one
//! implementation, in safe Rust, on every platform.

/// Input bytes per step of the main loop, and the number of tables.
const SLICE: usize = 16;

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // Table k is table k-1 advanced over one more zero byte.
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// Advance the running (pre-inverted) CRC `c` over `data` one byte at a
/// time: the kernel's tail, and the reference the tests compare it with.
fn bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut steps = data.chunks_exact(SLICE);
    for step in &mut steps {
        // Four little-endian words, the running CRC folded into the
        // first; the byte `d` places from the step's end goes through
        // table `d`.
        let mut next = 0u32;
        for (j, word) in step.chunks_exact(4).enumerate() {
            let word = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let word = if j == 0 { word ^ c } else { word };
            for (i, b) in word.to_le_bytes().into_iter().enumerate() {
                next ^= TABLES[SLICE - 1 - 4 * j - i][b as usize];
            }
        }
        c = next;
    }
    bytewise(c, steps.remainder()) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::rng::{cases, SplitMix64};

    /// Byte-at-a-time CRC-32: the reference implementation.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Two full steps of the main loop and no tail.
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"supremm-tsdb block payload");
        let mut flipped = b"supremm-tsdb block payload".to_vec();
        flipped[7] ^= 0x01;
        assert_ne!(crc32(&flipped), base);
    }

    /// Every split into main-loop steps and tail, at every alignment
    /// of the first byte.
    #[test]
    fn kernel_matches_bytewise_at_every_length_and_offset() {
        let mut rng = SplitMix64::new(0x5EED_C2C3);
        let buf: Vec<u8> = (0..SLICE + 100).map(|_| rng.next_u64() as u8).collect();
        for offset in 0..SLICE {
            for len in 0..=100 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn kernel_matches_bytewise_on_seeded_buffers() {
        cases("kernel_matches_bytewise_on_seeded_buffers", 32, |rng| {
            let data = rng.vec(0..200 * 1024 + 1, |r| r.next_u64() as u8);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "len {}", data.len());
        });
    }
}
