//! Write-ahead log with torn-write detection.
//!
//! Every append lands here first; the memtable is rebuilt from this file
//! after a crash. Format:
//!
//! ```text
//! header  "SUPWAL01"                               8 bytes
//! record  u32 len · u32 crc32(payload) · payload   repeated
//! ```
//!
//! Record payload:
//!
//! ```text
//! varint host_len  · host bytes
//! varint metric_len· metric bytes
//! varint n · (varint ts · varint value_bits)*
//! ```
//!
//! **Torn-write handling.** A crash can leave a partial record at the
//! tail (short frame, short payload, or payload that fails its CRC).
//! The file is a [`crate::durable::AppendLog`]: [`Wal::open`] replays
//! the records before the first bad frame and truncates the rest. What
//! is dropped was never acked (`sync` hadn't returned), so the
//! durability contract holds.

use std::io;
use std::path::Path;

use crate::codec::{get_str, get_varint, put_str, put_varint};
use crate::crc::crc32;
use crate::durable::AppendLog;

pub const WAL_MAGIC: &[u8; 8] = b"SUPWAL01";
/// Record frame header: u32 len + u32 crc.
const FRAME_HEADER: usize = 8;
/// Longest LEB128 encoding of a u64.
const MAX_VARINT: usize = 10;

/// One replayed / to-be-appended WAL record: a batch of samples for a
/// single series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub host: String,
    pub metric: String,
    /// `(timestamp, f64 bit pattern)` pairs.
    pub samples: Vec<(u64, u64)>,
}

/// Encode one framed record from borrowed parts — the append path never
/// has to assemble an owned [`WalRecord`] just to serialize it.
fn encode_frame(host: &str, metric: &str, samples: &[(u64, u64)]) -> Vec<u8> {
    // An upper bound, so the buffer never regrows mid-record.
    let varints = 3 + 2 * samples.len();
    let mut f =
        Vec::with_capacity(FRAME_HEADER + host.len() + metric.len() + varints * MAX_VARINT);
    f.extend_from_slice(&[0u8; FRAME_HEADER]);
    put_str(&mut f, host);
    put_str(&mut f, metric);
    put_varint(&mut f, samples.len() as u64);
    for &(ts, bits) in samples {
        put_varint(&mut f, ts);
        put_varint(&mut f, bits);
    }
    let (head, payload) = f.split_at_mut(FRAME_HEADER);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    f
}

impl WalRecord {
    fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut pos = 0usize;
        let host = get_str(payload, &mut pos)?.to_owned();
        let metric = get_str(payload, &mut pos)?.to_owned();
        let n = get_varint(payload, &mut pos)? as usize;
        // Each sample is two varints, ≥ 2 bytes: refuse a claimed count
        // the payload cannot hold before allocating for it.
        if n > payload.len().saturating_sub(pos) / 2 {
            return None;
        }
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let ts = get_varint(payload, &mut pos)?;
            let bits = get_varint(payload, &mut pos)?;
            samples.push((ts, bits));
        }
        if pos != payload.len() {
            return None;
        }
        Some(WalRecord { host, metric, samples })
    }
}

/// The CRC-checked payload of the frame at the start of `rest` and the
/// frame's length; `None` if the frame is short or fails its CRC.
fn frame_payload(rest: &[u8]) -> Option<(&[u8], usize)> {
    let &[l0, l1, l2, l3, c0, c1, c2, c3] = rest.get(..FRAME_HEADER)? else { return None };
    let end = FRAME_HEADER.checked_add(u32::from_le_bytes([l0, l1, l2, l3]) as usize)?;
    let payload = rest.get(FRAME_HEADER..end)?;
    (crc32(payload) == u32::from_le_bytes([c0, c1, c2, c3])).then_some((payload, end))
}

/// What [`Wal::open`] found on disk.
pub struct WalRecovery {
    pub wal: Wal,
    /// Records that survived (in append order).
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail discarded (0 on a clean log).
    pub truncated_bytes: u64,
}

/// Append-side handle. Writes are buffered; [`Wal::sync`] flushes and
/// fsyncs — the durability ack point.
pub struct Wal {
    log: AppendLog,
}

impl Wal {
    /// Open (creating if absent), replay valid records, truncate any
    /// torn tail, and position for appending.
    pub fn open(path: &Path) -> io::Result<WalRecovery> {
        let mut records = Vec::new();
        let rec = AppendLog::open(path, WAL_MAGIC, WAL_MAGIC.len(), |rest| {
            let (payload, len) = frame_payload(rest)?;
            records.push(WalRecord::decode(payload)?);
            Some(len)
        })?;
        Ok(WalRecovery { wal: Wal { log: rec.log }, records, truncated_bytes: rec.truncated_bytes })
    }

    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Valid log length in bytes (header + acked records + buffered).
    pub fn len(&self) -> u64 {
        self.log.len()
    }

    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Buffer one record. NOT durable until [`Wal::sync`] returns.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        self.append_parts(&rec.host, &rec.metric, &rec.samples)
    }

    /// Buffer one record from borrowed parts — the hot append path,
    /// copy-free until serialization.
    pub fn append_parts(
        &mut self,
        host: &str,
        metric: &str,
        samples: &[(u64, u64)],
    ) -> io::Result<()> {
        self.log.append(&encode_frame(host, metric, samples))
    }

    /// Flush buffers and fsync. When this returns, every record appended
    /// so far is durable — the ack point of the store.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    /// Discard all records (after their data has been sealed into a
    /// segment): truncate back to the header and fsync.
    pub fn reset(&mut self) -> io::Result<()> {
        self.log.truncate_to_header()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdb-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn recs() -> Vec<WalRecord> {
        vec![
            WalRecord {
                host: "c301-101".into(),
                metric: "cpu_user".into(),
                samples: vec![(600, 1.5f64.to_bits()), (1200, 2.5f64.to_bits())],
            },
            WalRecord {
                host: "c301-102".into(),
                metric: "mem_used".into(),
                samples: vec![(600, 4096u64)],
            },
            WalRecord { host: "h".into(), metric: "m".into(), samples: vec![] },
        ]
    }

    #[test]
    fn append_sync_reopen_replays_everything() {
        let path = tmp("replay");
        {
            let mut rec = Wal::open(&path).unwrap();
            assert!(rec.records.is_empty());
            for r in recs() {
                rec.wal.append(&r).unwrap();
            }
            rec.wal.sync().unwrap();
        }
        let rec = Wal::open(&path).unwrap();
        assert_eq!(rec.records, recs());
        assert_eq!(rec.truncated_bytes, 0);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// Format pin: the synced log of a fixed input equals, byte for
    /// byte, what the writer produced before the durable-file layer
    /// existed (length + CRC32 of the file), so an older `wal.log`
    /// replays unchanged.
    #[test]
    fn synced_bytes_are_pinned() {
        let path = tmp("golden");
        let mut rec = Wal::open(&path).unwrap();
        for r in recs() {
            rec.wal.append(&r).unwrap();
        }
        rec.wal.sync().unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (101, 0xCA86_E6CB));
        assert_eq!(rec.wal.len(), 101);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_at_every_offset_recovers_prefix() {
        let path = tmp("torn");
        {
            let mut rec = Wal::open(&path).unwrap();
            for r in recs() {
                rec.wal.append(&r).unwrap();
            }
            rec.wal.sync().unwrap();
        }
        let good = fs::read(&path).unwrap();
        // Record boundaries: header, then each framed record.
        let mut boundaries = vec![WAL_MAGIC.len()];
        let mut pos = WAL_MAGIC.len();
        while pos + 8 <= good.len() {
            let len = u32::from_le_bytes(good[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
            boundaries.push(pos);
        }

        for cut in 0..=good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            let rec = Wal::open(&path).unwrap();
            // Expected record count = boundaries fully before the cut
            // (a cut inside the header recovers as an empty log).
            let expect = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(rec.records.len(), expect, "cut at {cut}");
            assert_eq!(rec.records, recs()[..expect].to_vec(), "cut at {cut}");
            // Post-recovery file ends exactly at a record boundary.
            drop(rec);
            let after = fs::metadata(&path).unwrap().len() as usize;
            assert!(boundaries.contains(&after) || after == WAL_MAGIC.len(), "cut at {cut}");
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corrupt_middle_record_stops_replay_before_it() {
        let path = tmp("midcorrupt");
        {
            let mut rec = Wal::open(&path).unwrap();
            for r in recs() {
                rec.wal.append(&r).unwrap();
            }
            rec.wal.sync().unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of record 1 (skip header + record 0 frame).
        let r0_len =
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let r1_payload = 8 + 8 + r0_len + 8;
        bytes[r1_payload] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let rec = Wal::open(&path).unwrap();
        assert_eq!(rec.records, recs()[..1].to_vec());
        assert!(rec.truncated_bytes > 0);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// A record may claim at most one sample per two payload bytes (a
    /// sample is two varints). A CRC-correct record claiming more is
    /// refused before anything is reserved for it — at 32 samples per
    /// byte that would be 512 B reserved per input byte — and replay
    /// treats it as the torn tail; the densest legal record decodes.
    #[test]
    fn hostile_sample_count_is_refused_as_a_torn_tail() {
        let path = tmp("hostile-count");
        let framed = |n: u64, body: &[u8]| {
            let mut payload = Vec::new();
            put_str(&mut payload, "h");
            put_str(&mut payload, "m");
            put_varint(&mut payload, n);
            payload.extend_from_slice(body);
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame
        };
        // 64 KiB of one-byte varints: exactly 32 Ki two-byte samples.
        let body = vec![0x01u8; 64 << 10];
        let fits = body.len() as u64 / 2;
        for n in [body.len() as u64 * 32 + 1, fits + 1] {
            assert_eq!(WalRecord::decode(&framed(n, &body)[FRAME_HEADER..]), None, "claimed {n}");
        }

        let hostile = framed(body.len() as u64 * 32 + 1, &body);
        fs::write(&path, [&WAL_MAGIC[..], &framed(fits, &body), &hostile].concat()).unwrap();
        let rec = Wal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].samples, vec![(1, 1); fits as usize]);
        assert_eq!(rec.truncated_bytes, hostile.len() as u64);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn append_after_recovery_continues_cleanly() {
        let path = tmp("continue");
        {
            let mut rec = Wal::open(&path).unwrap();
            rec.wal.append(&recs()[0]).unwrap();
            rec.wal.sync().unwrap();
            // Simulate a torn append: write half a frame directly.
            rec.wal.log.append(&[0x55, 0x00, 0x00]).unwrap();
            rec.wal.sync().unwrap();
        }
        {
            let mut rec = Wal::open(&path).unwrap();
            assert_eq!(rec.records.len(), 1);
            assert!(rec.truncated_bytes > 0);
            rec.wal.append(&recs()[1]).unwrap();
            rec.wal.sync().unwrap();
        }
        let rec = Wal::open(&path).unwrap();
        assert_eq!(rec.records, recs()[..2].to_vec());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset");
        let mut rec = Wal::open(&path).unwrap();
        for r in recs() {
            rec.wal.append(&r).unwrap();
        }
        rec.wal.sync().unwrap();
        rec.wal.reset().unwrap();
        assert!(rec.wal.is_empty());
        drop(rec);
        let rec = Wal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn foreign_file_is_refused() {
        let path = tmp("foreign");
        fs::write(&path, b"definitely not a wal but long enough").unwrap();
        assert!(Wal::open(&path).is_err());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
