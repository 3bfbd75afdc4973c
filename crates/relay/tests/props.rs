//! Property-based tests over the relay wire format and spool recovery.
//!
//! The nightly soak runs these at `SUPREMM_CASES=1024`; the default
//! profile keeps the suite fast.

use supremm_metrics::rng::{cases, SplitMix64};
use supremm_relay::spool::Spool;
use supremm_relay::wire::{decode_batch, decode_batch_at, encode_batch, Batch, BatchRecord};

/// A name matching `[a-z][a-z0-9<extra>]{0,max_tail}`.
fn arb_name(rng: &mut SplitMix64, extra: u8, max_tail: usize) -> String {
    let mut alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789".to_vec();
    alphabet.push(extra);
    rng.string(&alphabet[..26], 1..2) + &rng.string(&alphabet, 0..max_tail + 1)
}

fn arb_record(rng: &mut SplitMix64) -> BatchRecord {
    let host = arb_name(rng, b'-', 12);
    let metric = arb_name(rng, b'_', 16);
    // The chunk codec stores timestamps delta-encoded in append
    // order; sort and dedup so the series is well-formed.
    let mut samples = rng.vec(0..48, |r| (r.next_u64() >> 32, r.next_u64()));
    samples.sort_by_key(|&(ts, _)| ts);
    samples.dedup_by_key(|&mut (ts, _)| ts);
    BatchRecord { host, metric, samples }
}

fn arb_batch(rng: &mut SplitMix64) -> Batch {
    let agent_id = arb_name(rng, b'-', 20);
    Batch { agent_id, batch_seq: rng.next_u64(), records: rng.vec(0..8, arb_record) }
}

/// Any well-formed batch survives encode → decode bit-exactly —
/// including NaN payloads and signed zeros, since values travel as
/// raw bits.
#[test]
fn batches_round_trip_bit_exactly() {
    cases("batches_round_trip_bit_exactly", 256, |rng| {
        let batch = arb_batch(rng);
        let frame = encode_batch(&batch).unwrap();
        assert_eq!(decode_batch(&frame).unwrap(), batch);
    });
}

/// The decoder never panics and never invents a different batch, no
/// matter where a valid frame is truncated.
#[test]
fn truncated_frames_error_cleanly() {
    cases("truncated_frames_error_cleanly", 256, |rng| {
        let batch = arb_batch(rng);
        let frame = encode_batch(&batch).unwrap();
        let cut = rng.below(frame.len() as u64) as usize;
        assert!(decode_batch(&frame[..cut]).is_err());
    });
}

/// Arbitrary garbage never panics the decoder, and `decode_batch_at`
/// leaves the cursor untouched on error (the torn-tail contract).
#[test]
fn garbage_never_panics() {
    cases("garbage_never_panics", 256, |rng| {
        let bytes = rng.vec(0..512, |r| r.next_u64() as u8);
        let mut pos = 0usize;
        match decode_batch_at(&bytes, &mut pos) {
            Ok(_) => assert!(pos <= bytes.len()),
            Err(_) => assert_eq!(pos, 0),
        }
    });
}

/// A single flipped byte anywhere in the frame is either detected or
/// decodes to the identical batch — it can never silently corrupt.
#[test]
fn corruption_is_detected() {
    cases("corruption_is_detected", 256, |rng| {
        let batch = arb_batch(rng);
        let mask = rng.next_u64() as u8;
        let frame = encode_batch(&batch).unwrap();
        let ix = rng.below(frame.len() as u64) as usize;
        let mut bad = frame.clone();
        bad[ix] ^= mask.max(1); // guarantee at least one flipped bit
        if let Ok(got) = decode_batch(&bad) {
            assert_eq!(got, batch);
        }
    });
}

/// Spool recovery after truncation at any offset yields a prefix of
/// the appended batches, in order, and never panics.
#[test]
fn spool_truncation_recovers_a_prefix() {
    cases("spool_truncation_recovers_a_prefix", 256, |rng| {
        let batches = rng.vec(1..6, arb_batch);
        let cut = rng.next_u64();
        let dir =
            std::env::temp_dir().join(format!("relay-props-{}-{:x}", std::process::id(), cut));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spool.q");

        let mut frames = Vec::new();
        {
            let recovery = Spool::open(&path).unwrap();
            let mut spool = recovery.spool;
            for (i, b) in batches.iter().enumerate() {
                // Seqs must be unique within a spool; reuse the index.
                let b = Batch { batch_seq: i as u64, ..b.clone() };
                let frame = encode_batch(&b).unwrap();
                spool.append_frame(&frame).unwrap();
                frames.push((i as u64, frame));
            }
            spool.sync().unwrap();
        }

        let full = std::fs::read(&path).unwrap();
        let cut = (cut % (full.len() as u64 + 1)) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();

        let recovered = Spool::open(&path).unwrap();
        assert!(recovered.batches.len() <= frames.len());
        for (got, want) in recovered.batches.iter().zip(frames.iter()) {
            assert_eq!(got.0, want.0);
            assert_eq!(&got.1, &want.1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}
