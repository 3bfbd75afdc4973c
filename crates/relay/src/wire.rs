//! The relay wire format: one CRC-framed, length-prefixed sample batch.
//!
//! ```text
//! frame := magic    8B  b"SUPRELY1"          (format version baked in)
//!          len      4B  u32 LE, payload bytes
//!          crc      4B  u32 LE, crc32(payload)   (tsdb::crc, IEEE)
//!          payload
//!
//! payload := agent_id   varint len · utf-8 bytes
//!            batch_seq  varint                 (monotone per agent)
//!            n_records  varint
//!            record*    host    varint len · utf-8 bytes
//!                       metric  varint len · utf-8 bytes
//!                       chunk   tsdb::codec::encode_chunk(samples)
//! ```
//!
//! `(agent_id, batch_seq)` is the batch's idempotency key: agents assign
//! seqs monotonically and never reuse one for different data, so the
//! server can deduplicate retries. Samples are `(timestamp, f64 bits)`
//! pairs in the tsdb chunk codec — the frame carries value *bits*, so a
//! batch round-trips bit-exactly regardless of NaN payloads or
//! signed zeros.
//!
//! Decoding is strict (trailing garbage is an error, CRC must match,
//! all lengths bounded) and never panics on arbitrary input.

use supremm_tsdb::codec::{
    decode_chunk_at, encode_chunk, get_str, get_varint, put_str, put_varint,
};
use supremm_tsdb::crc::crc32;

/// Frame magic; bump the trailing digit for incompatible revisions.
pub const MAGIC: [u8; 8] = *b"SUPRELY1";
/// Fixed frame header size: magic + len + crc.
pub const HEADER_BYTES: usize = 16;
/// Hard cap on one frame's payload — a decoder bound, well above any
/// batch an agent seals (agents default to 256 KiB).
pub const MAX_PAYLOAD_BYTES: usize = 16 * 1024 * 1024;
/// Bound on agent / host / metric name lengths.
const MAX_NAME_BYTES: usize = 512;
/// Bound on records per batch.
const MAX_RECORDS: u64 = 1 << 20;

/// One series' worth of samples inside a batch. Values are f64 bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    pub host: String,
    pub metric: String,
    /// `(timestamp, f64 bits)` pairs.
    pub samples: Vec<(u64, u64)>,
}

/// One remote-write batch: the unit of transfer, spooling and acking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    pub agent_id: String,
    pub batch_seq: u64,
    pub records: Vec<BatchRecord>,
}

impl Batch {
    /// Total samples across all records.
    pub fn sample_count(&self) -> usize {
        self.records.iter().map(|r| r.samples.len()).sum()
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the header (or the declared payload) needs.
    Truncated,
    /// First 8 bytes are not the relay magic.
    BadMagic,
    /// Payload checksum mismatch.
    BadCrc,
    /// Structurally invalid payload (bad varint, over-limit length,
    /// non-UTF-8 name, undecodable chunk, trailing bytes...).
    Malformed(&'static str),
    /// Batch larger than [`MAX_PAYLOAD_BYTES`] — refused at encode time.
    TooLarge,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadCrc => write!(f, "payload crc mismatch"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
            WireError::TooLarge => write!(f, "batch exceeds max frame size"),
        }
    }
}

impl std::error::Error for WireError {}

fn get_name(buf: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let name = get_str(buf, pos).ok_or(WireError::Malformed("name"))?;
    if name.len() > MAX_NAME_BYTES {
        return Err(WireError::Malformed("name too long"));
    }
    Ok(name.to_string())
}

/// Encode one batch as a self-contained frame.
pub fn encode_batch(batch: &Batch) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::with_capacity(64 + 32 * batch.records.len());
    put_str(&mut payload, &batch.agent_id);
    put_varint(&mut payload, batch.batch_seq);
    put_varint(&mut payload, batch.records.len() as u64);
    for rec in &batch.records {
        put_str(&mut payload, &rec.host);
        put_str(&mut payload, &rec.metric);
        payload.extend_from_slice(&encode_chunk(&rec.samples));
    }
    if payload.len() > MAX_PAYLOAD_BYTES {
        return Err(WireError::TooLarge);
    }
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Decode the frame starting at `*pos`, advancing `*pos` past it on
/// success. Validates magic, length bound, CRC and payload structure;
/// never reads past `buf` and never panics. On error `*pos` is left
/// unchanged, so a scanner can treat the remainder as a torn tail.
pub fn decode_batch_at(buf: &[u8], pos: &mut usize) -> Result<Batch, WireError> {
    let start = *pos;
    let header = buf.get(start..start.checked_add(HEADER_BYTES).ok_or(WireError::Truncated)?);
    let header = header.ok_or(WireError::Truncated)?;
    let (magic, rest) = header.split_at(8);
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let (len_b, crc_b) = rest.split_at(4);
    let (len, crc) = match (<[u8; 4]>::try_from(len_b), <[u8; 4]>::try_from(crc_b)) {
        (Ok(l), Ok(c)) => (u32::from_le_bytes(l) as usize, u32::from_le_bytes(c)),
        _ => return Err(WireError::Truncated),
    };
    if len > MAX_PAYLOAD_BYTES {
        return Err(WireError::Malformed("payload length over limit"));
    }
    let body_start = start + HEADER_BYTES;
    let body_end = body_start.checked_add(len).ok_or(WireError::Truncated)?;
    let payload = buf.get(body_start..body_end).ok_or(WireError::Truncated)?;
    if crc32(payload) != crc {
        return Err(WireError::BadCrc);
    }
    let batch = decode_payload(payload)?;
    *pos = body_end;
    Ok(batch)
}

/// Decode a buffer holding exactly one frame (trailing bytes rejected).
pub fn decode_batch(buf: &[u8]) -> Result<Batch, WireError> {
    let mut pos = 0usize;
    let batch = decode_batch_at(buf, &mut pos)?;
    if pos != buf.len() {
        return Err(WireError::Malformed("trailing bytes after frame"));
    }
    Ok(batch)
}

fn decode_payload(payload: &[u8]) -> Result<Batch, WireError> {
    let mut pos = 0usize;
    let agent_id = get_name(payload, &mut pos)?;
    if agent_id.is_empty() {
        return Err(WireError::Malformed("empty agent id"));
    }
    let batch_seq =
        get_varint(payload, &mut pos).ok_or(WireError::Malformed("batch_seq varint"))?;
    let n = get_varint(payload, &mut pos).ok_or(WireError::Malformed("record count varint"))?;
    if n > MAX_RECORDS {
        return Err(WireError::Malformed("record count over limit"));
    }
    let mut records = Vec::with_capacity((n as usize).min(1024));
    for _ in 0..n {
        let host = get_name(payload, &mut pos)?;
        let metric = get_name(payload, &mut pos)?;
        let samples =
            decode_chunk_at(payload, &mut pos).ok_or(WireError::Malformed("sample chunk"))?;
        records.push(BatchRecord { host, metric, samples });
    }
    if pos != payload.len() {
        return Err(WireError::Malformed("trailing bytes in payload"));
    }
    Ok(Batch { agent_id, batch_seq, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> Batch {
        Batch {
            agent_id: "agent-c0001".to_string(),
            batch_seq: 42,
            records: vec![
                BatchRecord {
                    host: "c0001".to_string(),
                    metric: "cpu_user".to_string(),
                    samples: vec![(600, 0.7f64.to_bits()), (1200, 0.9f64.to_bits())],
                },
                BatchRecord {
                    host: "c0001".to_string(),
                    metric: "flops".to_string(),
                    samples: vec![(600, f64::NAN.to_bits()), (1200, (-0.0f64).to_bits())],
                },
                BatchRecord {
                    host: "c0001".to_string(),
                    metric: "empty".to_string(),
                    samples: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let b = sample_batch();
        let frame = encode_batch(&b).unwrap();
        assert_eq!(decode_batch(&frame).unwrap(), b);
    }

    #[test]
    fn truncation_at_every_offset_is_an_error_never_a_panic() {
        let frame = encode_batch(&sample_batch()).unwrap();
        for cut in 0..frame.len() {
            assert!(decode_batch(&frame[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let b = sample_batch();
        let frame = encode_batch(&b).unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xff;
            // A flipped byte must never silently yield a different batch.
            if let Ok(got) = decode_batch(&bad) {
                assert_eq!(got, b, "byte {i} silently altered the batch");
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut frame = encode_batch(&sample_batch()).unwrap();
        frame.push(0);
        assert_eq!(decode_batch(&frame), Err(WireError::Malformed("trailing bytes after frame")));
    }

    #[test]
    fn decode_at_leaves_pos_on_error() {
        let frame = encode_batch(&sample_batch()).unwrap();
        let mut buf = frame.clone();
        buf.extend_from_slice(&frame[..frame.len() / 2]);
        let mut pos = 0;
        assert!(decode_batch_at(&buf, &mut pos).is_ok());
        assert_eq!(pos, frame.len());
        let torn = pos;
        assert!(decode_batch_at(&buf, &mut pos).is_err());
        assert_eq!(pos, torn);
    }

    #[test]
    fn oversized_batch_refused_at_encode() {
        let b = Batch {
            agent_id: "a".into(),
            batch_seq: 0,
            records: vec![BatchRecord {
                host: "h".into(),
                metric: "m".into(),
                // Random bits compress poorly enough to blow the cap.
                samples: (0..4_000_000u64)
                    .map(|i| (i * 7919, i.wrapping_mul(0x9e3779b97f4a7c15)))
                    .collect(),
            }],
        };
        assert_eq!(encode_batch(&b), Err(WireError::TooLarge));
    }

    #[test]
    fn empty_agent_id_rejected() {
        let b = Batch { agent_id: String::new(), batch_seq: 1, records: vec![] };
        let frame = encode_batch(&b).unwrap();
        assert_eq!(decode_batch(&frame), Err(WireError::Malformed("empty agent id")));
    }
}
