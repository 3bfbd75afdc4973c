//! Crash-safe on-disk outbound queue for a collector agent.
//!
//! Sealed batches land here *before* the first send attempt; the file is
//! the agent's source of truth for what is still owed to the server.
//! Format:
//!
//! ```text
//! header  "SUPSPOL1"            8 bytes
//!         u64 LE base_seq       8 bytes   (next seq if no entries)
//! entry   one wire frame        repeated  (see relay::wire)
//! ```
//!
//! Entries are plain wire frames — the spool reuses the frame's own
//! magic + length + CRC for torn-tail detection, so recovery is the same
//! scan the server runs on the network payload. The file is a
//! [`supremm_tsdb::durable::AppendLog`], like the tsdb WAL: what
//! [`Spool::open`] truncates was never synced, so anything the agent
//! counted as accepted (after [`Spool::sync`]) survives. Unlike the
//! WAL, a sync keeps no zero-filled capacity ahead of the spool: the
//! reset after each ack would throw it away, and refilling it on the
//! next sync made an append-sync-reset cycle 1.4–1.8× slower (DESIGN.md
//! § "Durable files"). Open still reads trailing zeros — a
//! power cut's unwritten sectors — as capacity, which the next sync
//! writes over; every entry starts with the wire magic, so none is all
//! zeros.
//!
//! `base_seq` keeps the `(agent_id, batch_seq)` idempotency key monotone
//! across restarts: [`Spool::reset`] — called once every spooled batch
//! has been acked — replaces the file atomically, so the recorded
//! next-seq can never be torn.

use std::io;
use std::path::Path;

use supremm_tsdb::durable::{self, AppendLog};

use crate::wire::{decode_batch_at, MAGIC};

#[cfg(test)]
use supremm_tsdb::durable::CrashSeam;
#[cfg(test)]
#[path = "../../tsdb/src/durable/power_cuts.rs"]
mod power_cuts;

pub const SPOOL_MAGIC: &[u8; 8] = b"SUPSPOL1";
const HEADER_LEN: u64 = 16;

/// What [`Spool::open`] found on disk.
pub struct SpoolRecovery {
    pub spool: Spool,
    /// Surviving batches in append order: `(batch_seq, wire frame)`.
    pub batches: Vec<(u64, Vec<u8>)>,
    /// Bytes of torn tail discarded (0 on a clean spool).
    pub truncated_bytes: u64,
}

/// Append-side handle. Writes are buffered; [`Spool::sync`] flushes and
/// syncs — only then may the agent count the batch as accepted.
pub struct Spool {
    log: AppendLog,
    entries: u64,
    base_seq: u64,
}

fn header(base_seq: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(SPOOL_MAGIC);
    h[8..].copy_from_slice(&base_seq.to_le_bytes());
    h
}

impl Spool {
    /// Open (creating if absent), replay valid frames, truncate any torn
    /// tail, and position for appending. A header torn on first
    /// creation means seq 0: nothing was ever accepted through this
    /// spool, and reset goes through a rename.
    pub fn open(path: &Path) -> io::Result<SpoolRecovery> {
        let mut batches: Vec<(u64, Vec<u8>)> = Vec::new();
        let rec = AppendLog::open(path, &header(0), SPOOL_MAGIC.len(), |rest| {
            let mut len = 0usize;
            let batch = decode_batch_at(rest, &mut len).ok()?;
            batches.push((batch.batch_seq, rest.get(..len)?.to_vec()));
            Some(len)
        })?;
        let base_seq =
            rec.header.get(8..).and_then(|b| b.try_into().ok()).map_or(0, u64::from_le_bytes);
        let spool = Spool { log: rec.log, entries: batches.len() as u64, base_seq };
        Ok(SpoolRecovery { spool, batches, truncated_bytes: rec.truncated_bytes })
    }

    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Spool length in bytes (header + entries + buffered); the file's,
    /// unless a power cut left zeros past it.
    pub fn bytes(&self) -> u64 {
        self.log.len()
    }

    /// Entries appended or recovered and not yet cleared by a reset.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Seq floor recorded in the header: the next batch seq to assign
    /// when the spool holds no entries.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Buffer one sealed batch frame (as produced by
    /// [`crate::wire::encode_batch`]). NOT durable until [`Spool::sync`]
    /// returns. The frame is written verbatim — resending after a crash
    /// is a straight copy off disk.
    pub fn append_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        if frame.len() < MAGIC.len() || frame[..MAGIC.len()] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "spool entries must be relay wire frames",
            ));
        }
        self.log.append(frame)?;
        self.entries += 1;
        Ok(())
    }

    /// Flush buffers and sync. When this returns, every appended batch
    /// survives a crash — the agent's acceptance point for source data.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync_without_zero_fill()
    }

    /// Drop all entries (every spooled batch has been acked) and record
    /// `next_seq` as the new seq floor. Atomic: a crash mid-reset leaves
    /// either the old full spool (resent, deduped server-side) or the
    /// new empty one — never a torn file.
    pub fn reset(&mut self, next_seq: u64) -> io::Result<()> {
        let fresh = header(next_seq);
        durable::replace_file(self.log.path(), &fresh)?;
        // The rename swapped the inode under the old handle: reopen.
        self.log = AppendLog::open(self.log.path(), &fresh, SPOOL_MAGIC.len(), |_| None)?.log;
        self.entries = 0;
        self.base_seq = next_seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_batch, Batch, BatchRecord};
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("relay-spool-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("spool.q")
    }

    fn frames() -> Vec<(u64, Vec<u8>)> {
        (1..=3u64)
            .map(|seq| {
                let b = Batch {
                    agent_id: "agent-1".into(),
                    batch_seq: seq,
                    records: vec![BatchRecord {
                        host: "c0001".into(),
                        metric: "cpu_user".into(),
                        samples: vec![(600 * seq, (seq as f64).to_bits())],
                    }],
                };
                (seq, encode_batch(&b).unwrap())
            })
            .collect()
    }

    /// Spool `frames()` into a fresh spool at `path` and sync: returns
    /// the spool and the file, which is exactly the spool's bytes.
    fn synced(path: &Path) -> (Spool, Vec<u8>) {
        let mut rec = Spool::open(path).unwrap();
        for (_, f) in frames() {
            rec.spool.append_frame(&f).unwrap();
        }
        rec.spool.sync().unwrap();
        let file = fs::read(path).unwrap();
        assert_eq!(file.len() as u64, rec.spool.bytes(), "no zero-filled capacity");
        (rec.spool, file)
    }

    /// End offsets of the header and of each of `frames()`.
    fn boundaries() -> Vec<usize> {
        let ends = frames().into_iter().scan(HEADER_LEN as usize, |end, (_, f)| {
            *end += f.len();
            Some(*end)
        });
        std::iter::once(HEADER_LEN as usize).chain(ends).collect()
    }

    #[test]
    fn append_sync_reopen_replays_everything() {
        let path = tmp("replay");
        {
            let mut rec = Spool::open(&path).unwrap();
            assert!(rec.batches.is_empty());
            for (_, f) in frames() {
                rec.spool.append_frame(&f).unwrap();
            }
            rec.spool.sync().unwrap();
        }
        let rec = Spool::open(&path).unwrap();
        assert_eq!(rec.batches, frames());
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.spool.entries(), 3);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// The satellite requirement: cut the spool at EVERY byte offset —
    /// recovery must yield exactly the batches whose frames lie fully
    /// before the cut, truncate back to a frame boundary, and never
    /// panic.
    #[test]
    fn truncation_at_every_offset_recovers_prefix() {
        let path = tmp("torn");
        let (_, good) = synced(&path);
        let boundaries = boundaries();
        assert_eq!(boundaries.last(), Some(&good.len()));

        for cut in 0..=good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            let rec = Spool::open(&path).unwrap();
            let expect = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(rec.batches, frames()[..expect].to_vec(), "cut at {cut}");
            drop(rec);
            let after = fs::metadata(&path).unwrap().len() as usize;
            assert!(
                boundaries.contains(&after) || after == HEADER_LEN as usize,
                "cut at {cut} left len {after}"
            );
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// Power cuts (see `power_cuts::check`): the whole frames before
    /// unwritten sectors replay, and the zeros they leave stay, as
    /// capacity the next sync writes over.
    #[test]
    fn power_cuts_keep_whole_frames() {
        let path = tmp("zeroed");
        let (spool, good) = synced(&path);
        drop(spool);
        power_cuts::check(&path, &boundaries(), |p| {
            let rec = Spool::open(p).unwrap();
            assert_eq!(rec.batches, frames()[..rec.batches.len()]);
            (rec.batches.len(), rec.truncated_bytes)
        });
        // Zeroed from the last frame's start: two frames, then zeros.
        let mut zeroed = good.clone();
        zeroed[boundaries()[2]..].fill(0);
        fs::write(&path, &zeroed).unwrap();
        let mut rec = Spool::open(&path).unwrap();
        assert_eq!((rec.batches.len(), rec.truncated_bytes), (2, 0));
        rec.spool.append_frame(&frames()[2].1).unwrap();
        rec.spool.sync().unwrap();
        drop(rec);
        assert!(fs::read(&path).unwrap() == good, "the sync wrote the frame over the zeros");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// Corrupt any single byte: recovery keeps at least the batches
    /// before the damaged frame and never panics. (Damage in the header
    /// magic is refused as a foreign file; damage in base_seq only moves
    /// the seq floor, which dedup absorbs.)
    #[test]
    fn single_byte_corruption_never_panics_and_keeps_prefix() {
        let path = tmp("corrupt");
        let (_, good) = synced(&path);
        let boundaries = boundaries();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            fs::write(&path, &bad).unwrap();
            match Spool::open(&path) {
                Err(_) => assert!(i < SPOOL_MAGIC.len(), "byte {i} refused outside magic"),
                Ok(rec) => {
                    // Every recovered batch must be one we wrote, and the
                    // prefix before the damaged frame must survive.
                    let intact = boundaries.iter().filter(|&&b| b <= i).count().saturating_sub(1);
                    assert!(rec.batches.len() >= intact, "byte {i}");
                    assert_eq!(rec.batches[..intact], frames()[..intact], "byte {i}");
                    for got in &rec.batches {
                        assert!(frames().contains(got), "byte {i} invented a batch");
                    }
                }
            }
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn reset_records_seq_floor_atomically() {
        let path = tmp("reset");
        {
            let mut rec = Spool::open(&path).unwrap();
            for (_, f) in frames() {
                rec.spool.append_frame(&f).unwrap();
            }
            rec.spool.sync().unwrap();
            rec.spool.reset(4).unwrap();
            assert_eq!(rec.spool.entries(), 0);
            assert_eq!(rec.spool.base_seq(), 4);
        }
        let rec = Spool::open(&path).unwrap();
        assert!(rec.batches.is_empty());
        assert_eq!(rec.spool.base_seq(), 4);
        // Appending after a reset still round-trips.
        let mut rec = rec;
        let (_, f) = frames().pop().unwrap();
        rec.spool.append_frame(&f).unwrap();
        rec.spool.sync().unwrap();
        drop(rec);
        let rec = Spool::open(&path).unwrap();
        assert_eq!(rec.batches.len(), 1);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// Format pin: the synced spool and the reset spool equal, byte for
    /// byte, what the writer produced before the durable-file layer
    /// existed (length + CRC32 of the file), so a spool left by an older
    /// agent reopens unchanged.
    #[test]
    fn spool_bytes_are_pinned() {
        let path = tmp("golden");
        let (mut spool, bytes) = synced(&path);
        assert_eq!((bytes.len(), supremm_tsdb::crc::crc32(&bytes)), (154, 0x4879_8FA1));
        spool.reset(4).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"SUPSPOL1\x04\0\0\0\0\0\0\0");
        let dir = path.parent().unwrap();
        assert_eq!(fs::read_dir(dir).unwrap().count(), 1, "no tmp left beside the spool");
        let _ = fs::remove_dir_all(dir);
    }

    /// Crash `sync` and `reset` at each durable op they make. The
    /// reopened spool is the old full one — every synced batch, base seq
    /// 0 — or the new empty one with `base_seq = next_seq`, never a mix;
    /// and the reset the agent retries leaves no tmp beside it.
    #[test]
    fn a_crash_in_sync_or_reset_leaves_the_old_spool_or_the_new() {
        use supremm_tsdb::durable::Op;
        // Two batches synced by an earlier run; this one spools the third,
        // syncs it, and — every batch acked — resets to next seq 4.
        let spooled = |name: &str| {
            let path = tmp(name);
            let mut rec = Spool::open(&path).unwrap();
            for (_, f) in &frames()[..2] {
                rec.spool.append_frame(f).unwrap();
            }
            rec.spool.sync().unwrap();
            path
        };
        let run = |path: &Path| -> io::Result<()> {
            let mut spool = Spool::open(path)?.spool;
            spool.append_frame(&frames()[2].1)?;
            spool.sync()?;
            spool.reset(4)
        };
        let path = spooled("crash-trace");
        let seam = CrashSeam::arm(None);
        run(&path).unwrap();
        let trace = seam.trace();
        drop(seam);
        let ops: Vec<Op> = trace.iter().map(|(op, _)| *op).collect();
        assert_eq!(ops, [Op::Sync, Op::WriteTmp, Op::Rename]);
        assert!(trace.iter().all(|(_, p)| *p == path), "{trace:?}");
        let _ = fs::remove_dir_all(path.parent().unwrap());

        for (k, op) in ops.into_iter().enumerate() {
            let path = spooled("crash-k");
            let seam = CrashSeam::arm(Some(k));
            assert!(run(&path).is_err(), "op {k}");
            assert_eq!(seam.trace().len(), k + 1, "op {k}");
            drop(seam);
            let mut rec = Spool::open(&path).unwrap();
            // A crashed sync may or may not have written the third batch.
            let synced = if op == Op::Sync { 2 } else { 3 };
            let n = rec.batches.len();
            let old = rec.spool.base_seq() == 0 && n >= synced && rec.batches == frames()[..n];
            let new = rec.spool.base_seq() == 4 && n == 0;
            assert!(old || new, "op {k}: {n} batches, base seq {}", rec.spool.base_seq());
            rec.spool.reset(4).unwrap();
            drop(rec);
            let dir = path.parent().unwrap();
            assert_eq!(fs::read_dir(dir).unwrap().count(), 1, "op {k}: no tmp left");
            let rec = Spool::open(&path).unwrap();
            assert!(rec.batches.is_empty() && rec.spool.base_seq() == 4, "op {k}");
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn foreign_file_is_refused() {
        let path = tmp("foreign");
        fs::write(&path, b"definitely not a spool but long enough").unwrap();
        assert!(Spool::open(&path).is_err());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn non_frame_append_refused() {
        let path = tmp("nonframe");
        let mut rec = Spool::open(&path).unwrap();
        assert!(rec.spool.append_frame(b"junk").is_err());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
