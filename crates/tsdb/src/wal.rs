//! Write-ahead log with torn-write detection.
//!
//! Every append lands here first; the memtable is rebuilt from this file
//! after a crash. Format:
//!
//! ```text
//! header  "SUPWAL02"                               8 bytes
//! frame   u32 len · u32 crc32(payload) · payload   repeated
//! ```
//!
//! A frame is an *apply group* — every record appended between two
//! seal points — not a record. Frame payload:
//!
//! ```text
//! varint n_names · (varint len · bytes)*           string table
//! varint n_records · record*
//! record  varint host_ix · varint metric_ix · varint n ·
//!         (zigzag-varint Δts · u64 LE value bits)*
//! ```
//!
//! Host and metric names are interned into the frame's own string table
//! in first-seen order (frames are self-contained: no dictionary spans
//! two of them). Δts is against the previous sample *in the frame*
//! (against 0 for the first), so a tick's worth of one-sample records
//! costs one byte of time each. Values are the raw 8 bytes: as a varint
//! an f64's bits cost 10 bytes whenever |v| ≥ 2 (the top exponent bit is
//! set), and XOR against a previous value would need per-series state
//! that outlives the frame.
//!
//! **Keys come from the caller.** The log interns by an integer key per
//! name, not by the string. The engine's append
//! ([`Wal::append_samples`]) passes the memtable's host slot and metric
//! id, which it has resolved anyway, so interning is an array load per
//! name and no hashing. Slots and ids are two key spaces: the engine
//! lists a name that is both a host and a metric twice in one frame's
//! table, and a reader takes each index as it finds it. The standalone
//! [`Wal::append_parts`] keys names through one map that hosts and
//! metrics share, and lists each name once.
//!
//! **Seal points.** [`Wal::append_parts`] only encodes into the pending
//! frame. The frame is sealed — length and one CRC-32 written, bytes
//! handed to the [`crate::durable::AppendLog`] — by [`Wal::sync`] (seal →
//! flush → `fdatasync`, so nothing acked sits in an unsealed frame), when its
//! body reaches `SEAL_BYTES` (a load that never syncs stays bounded in
//! memory), and on drop.
//!
//! **What survives.** A *clean close* (drop) keeps everything appended:
//! the pending frame is sealed and the log's buffer flushed, best
//! effort, without an fsync. A *power cut* keeps every frame sealed
//! before the last `sync` returned; a crash can leave a partial frame at
//! the tail (short header, short payload, or a payload that fails its
//! CRC or does not decode), and [`Wal::replay`] delivers the frames
//! before the first bad one and truncates the rest. The frame is the
//! unit of loss: a damaged frame delivers none of its records. What is
//! dropped was never acked (`sync` hadn't returned), so the durability
//! contract holds.
//!
//! **Zero-filled capacity.** The file is the log, then zeros: a sync
//! overwrites space the log zero-filled and made durable ahead of it
//! (see [`crate::durable`]), and open reads the trailing zeros as that
//! space, not as a torn tail. [`Wal::len`] is the log's length, not
//! the file's. No frame is all zeros — an empty pending frame is never
//! sealed — so none can pass for capacity.
//!
//! **Replay.** [`Wal::replay`] is the one reader. It decodes each frame
//! whole, then hands it to its visitor as a [`WalFrame`]: the frame's
//! name table, and its records as `(host_ix, metric_ix, samples)`
//! indexing that table — the layout on disk, so a reader that keeps
//! per-name state (the engine's memtable) resolves each name once per
//! frame, not once per record. [`Wal::open`] is `replay` collecting
//! owned [`WalRecord`]s.
//!
//! One format is written and read. A log of another version (`SUPWAL01`)
//! is refused with an error that says so and is left untouched.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

use supremm_obs::{Counter, Histogram, Timer};

use crate::codec::{get_str, get_str_table, get_varint, put_str, put_varint, unzigzag, zigzag};
use crate::crc::crc32;
use crate::durable::AppendLog;

pub const WAL_MAGIC: &[u8; 8] = b"SUPWAL02";
/// Frame header: u32 len + u32 crc.
const FRAME_HEADER: usize = 8;
/// A pending frame is sealed once its body holds this much, so appends
/// that never `sync` buffer a bounded amount.
const SEAL_BYTES: usize = 64 << 10;
/// Smallest encodings: a record is three varints, a sample a one-byte
/// Δts and eight value bytes. Claimed counts are checked against these.
const MIN_RECORD: usize = 3;
const MIN_SAMPLE: usize = 9;

/// One replayed / to-be-appended WAL record: a batch of samples for a
/// single series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub host: String,
    pub metric: String,
    /// `(timestamp, f64 bit pattern)` pairs.
    pub samples: Vec<(u64, u64)>,
}

/// Bytes `put_varint` writes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Where a name was last written to a frame's table: `(frame number,
/// index in its table)`.
type Stamp = (u64, u64);

/// The stamp of a name not written to any frame yet.
const NEVER: Stamp = (u64::MAX, 0);

/// The pending frame's string table.
#[derive(Default)]
struct NameTable {
    /// Which frame this is; bumping it voids every stamp.
    frame_no: u64,
    /// The table so far, encoded `(varint len · bytes)*`.
    names: Vec<u8>,
    n_names: u64,
}

impl NameTable {
    /// Index of `name`, whose stamp is `stamp`, in this frame's table:
    /// written to the table on its first use in the frame.
    #[inline]
    fn intern(&mut self, stamp: &mut Stamp, name: &str) -> u64 {
        if stamp.0 != self.frame_no {
            *stamp = (self.frame_no, self.n_names);
            put_str(&mut self.names, name);
            self.n_names += 1;
        } else {
            debug_assert_eq!(
                self.name_at(stamp.1),
                Some(name),
                "a key names one string until the log is reset"
            );
        }
        stamp.1
    }

    /// The name at `ix` in the table, found by walking it: for checks.
    fn name_at(&self, ix: u64) -> Option<&str> {
        let mut pos = 0;
        let mut name = None;
        for _ in 0..=ix {
            name = get_str(&self.names, &mut pos);
        }
        name
    }
}

/// The stamp of the name `key` stands for in `stamps`, grown on first
/// sight of a key.
#[inline]
fn stamp_of(stamps: &mut Vec<Stamp>, key: usize) -> &mut Stamp {
    if key >= stamps.len() {
        stamps.resize(key + 1, NEVER);
    }
    &mut stamps[key]
}

/// The frame being built: records appended since the last seal.
#[derive(Default)]
struct Pending {
    /// Stamps by the caller's host key and by its metric key. Entries
    /// outlive their frame, so a known key costs no allocation; they go
    /// when the log is reset.
    hosts: Vec<Stamp>,
    metrics: Vec<Stamp>,
    /// Stamps by name, for callers that name a record by its strings
    /// alone ([`Wal::append_parts`]). Hosts and metrics share the one
    /// map, so a name is written to a frame once.
    named: HashMap<Box<str>, Stamp>,
    table: NameTable,
    /// The records so far, encoded.
    body: Vec<u8>,
    n_records: u64,
    /// Timestamp of the last sample encoded into `body`.
    prev_ts: u64,
}

impl Pending {
    /// Index of `name` in this frame's table, keyed by the name itself.
    fn intern_named(&mut self, name: &str) -> u64 {
        if let Some(stamp) = self.named.get_mut(name) {
            return self.table.intern(stamp, name);
        }
        let mut stamp = NEVER;
        let ix = self.table.intern(&mut stamp, name);
        self.named.insert(name.into(), stamp);
        ix
    }

    /// Bytes the frame will occupy once sealed; 0 when nothing is pending.
    fn sealed_len(&self) -> usize {
        if self.n_records == 0 {
            return 0;
        }
        FRAME_HEADER
            + varint_len(self.table.n_names)
            + self.table.names.len()
            + varint_len(self.n_records)
            + self.body.len()
    }

    /// Start the next frame, keeping every buffer's capacity.
    fn start_frame(&mut self) {
        self.table.frame_no += 1;
        self.table.names.clear();
        self.table.n_names = 0;
        self.body.clear();
        self.n_records = 0;
        self.prev_ts = 0;
    }

    /// Forget every key: the next frame writes each name anew.
    fn forget_keys(&mut self) {
        self.hosts.clear();
        self.metrics.clear();
        self.named.clear();
    }
}

/// One decoded frame, in buffers reused from frame to frame: a frame is
/// decoded whole before any record of it is delivered.
#[derive(Default)]
struct FrameScratch {
    /// Per record: host index, metric index, end of its samples in
    /// `samples` (they start where the previous record's end).
    records: Vec<(usize, usize, usize)>,
    samples: Vec<(u64, u64)>,
}

/// One decoded frame, as [`Wal::replay`] hands it over: the frame's name
/// table, and its records in append order, each naming its host and
/// metric by index into that table.
pub struct WalFrame<'a> {
    pub names: &'a [&'a str],
    scratch: &'a FrameScratch,
}

impl WalFrame<'_> {
    /// The records, as `(host_ix, metric_ix, samples)`; every index is
    /// inside [`WalFrame::names`].
    pub fn records(&self) -> impl Iterator<Item = (usize, usize, &[(u64, u64)])> {
        let FrameScratch { records, samples } = self.scratch;
        let starts = std::iter::once(0).chain(records.iter().map(|&(_, _, end)| end));
        records.iter().zip(starts).map(|(&(host, metric, end), start)| {
            (host, metric, samples.get(start..end).unwrap_or_default())
        })
    }

    /// Samples in the frame, over all its records.
    pub fn n_samples(&self) -> usize {
        self.scratch.samples.len()
    }
}

impl FrameScratch {
    /// Decode `payload` and hand it to `visit` as one [`WalFrame`];
    /// `None`, with nothing delivered, unless every byte of it decodes.
    /// Every claimed count is checked against the bytes there are to
    /// hold it before anything is stored for it.
    fn replay(&mut self, payload: &[u8], visit: &mut impl FnMut(&WalFrame<'_>)) -> Option<()> {
        self.records.clear();
        self.samples.clear();
        let mut pos = 0usize;
        let left = |pos: usize| payload.len().saturating_sub(pos);
        let count = |pos: &mut usize| usize::try_from(get_varint(payload, pos)?).ok();

        let names = get_str_table(payload, &mut pos)?;
        let n_records = count(&mut pos)?;
        if n_records > left(pos) / MIN_RECORD {
            return None;
        }
        let mut ts = 0u64;
        for _ in 0..n_records {
            let (host, metric, n) = (count(&mut pos)?, count(&mut pos)?, count(&mut pos)?);
            if host >= names.len() || metric >= names.len() || n > left(pos) / MIN_SAMPLE {
                return None;
            }
            for _ in 0..n {
                ts = ts.wrapping_add(unzigzag(get_varint(payload, &mut pos)?) as u64);
                let end = pos.checked_add(8)?;
                let bits = u64::from_le_bytes(payload.get(pos..end)?.try_into().ok()?);
                pos = end;
                self.samples.push((ts, bits));
            }
            self.records.push((host, metric, self.samples.len()));
        }
        if pos != payload.len() {
            return None;
        }
        visit(&WalFrame { names: &names, scratch: self });
        Some(())
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

/// `AppendLog::open` refused `path` for its header, leaving it as it
/// was: say which WAL version it holds and what to do about it.
fn foreign_version(path: &Path, e: io::Error) -> io::Error {
    if e.kind() != io::ErrorKind::InvalidData {
        return e;
    }
    let mut head = Vec::new();
    let _ = File::open(path).and_then(|f| f.take(WAL_MAGIC.len() as u64).read_to_end(&mut head));
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{e} (it starts {:?}): this build reads and writes WAL format {} only. Open the \
             store with the release that wrote it and `flush` there, then remove the emptied \
             log; the file has been left untouched",
            String::from_utf8_lossy(&head),
            String::from_utf8_lossy(WAL_MAGIC),
        ),
    )
}

/// What [`Wal::open`] found on disk.
pub struct WalRecovery {
    pub wal: Wal,
    /// Records that survived (in append order).
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail discarded (0 on a clean log).
    pub truncated_bytes: u64,
}

/// Append-side handle. Appends are encoded into a pending frame;
/// [`Wal::sync`] seals it, flushes and syncs — the durability ack point.
pub struct Wal {
    log: AppendLog,
    pending: Pending,
    /// The frame as sealed, assembled here before it goes to the log.
    frame: Vec<u8>,
    /// One observation per sealed frame; detached until [`Wal::observe`].
    seal_micros: Histogram,
    /// Bytes of capacity the log's syncs zero-filled; detached until
    /// [`Wal::observe`].
    zero_fill_bytes: Counter,
}

impl Wal {
    /// Open (creating if absent), hand every valid frame to `visit` in
    /// append order, truncate any torn tail, and position for appending.
    /// Returns the log and the bytes of torn tail discarded (0 on a
    /// clean log).
    pub fn replay(path: &Path, mut visit: impl FnMut(&WalFrame<'_>)) -> io::Result<(Wal, u64)> {
        let mut scratch = FrameScratch::default();
        let rec = AppendLog::open(path, WAL_MAGIC, WAL_MAGIC.len(), |rest| {
            let (payload, len) = frame_payload(rest)?;
            scratch.replay(payload, &mut visit)?;
            Some(len)
        })
        .map_err(|e| foreign_version(path, e))?;
        let wal = Wal {
            log: rec.log,
            pending: Pending::default(),
            frame: Vec::new(),
            seal_micros: Histogram::default(),
            zero_fill_bytes: Counter::default(),
        };
        Ok((wal, rec.truncated_bytes))
    }

    /// [`Wal::replay`] collecting the records.
    pub fn open(path: &Path) -> io::Result<WalRecovery> {
        let mut records = Vec::new();
        let (wal, truncated_bytes) = Wal::replay(path, |frame| {
            records.extend(frame.records().map(|(host, metric, samples)| WalRecord {
                host: frame.names[host].to_owned(),
                metric: frame.names[metric].to_owned(),
                samples: samples.to_vec(),
            }));
        })?;
        Ok(WalRecovery { wal, records, truncated_bytes })
    }

    /// Time every frame seal (encode tail + CRC + hand-off to the log)
    /// into `seal_micros`, in microseconds, and count the bytes each
    /// sync zero-fills into `zero_fill_bytes`.
    pub(crate) fn observe(&mut self, seal_micros: Histogram, zero_fill_bytes: Counter) {
        self.seal_micros = seal_micros;
        self.zero_fill_bytes = zero_fill_bytes;
    }

    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Log length in bytes once everything appended is sealed: header +
    /// sealed frames + what the pending frame will encode to. Right
    /// after [`Wal::sync`] the file is these bytes, then zeros.
    pub fn len(&self) -> u64 {
        self.log.len() + self.pending.sealed_len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.log.is_empty() && self.pending.n_records == 0
    }

    /// Buffer one record. NOT durable until [`Wal::sync`] returns.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        self.append_parts(&rec.host, &rec.metric, &rec.samples)
    }

    /// Buffer one record from borrowed parts. Each name is looked up in
    /// a map; the engine's path, [`Wal::append_samples`], takes keys the
    /// memtable already resolved instead.
    pub fn append_parts(
        &mut self,
        host: &str,
        metric: &str,
        samples: &[(u64, u64)],
    ) -> io::Result<()> {
        let host = self.pending.intern_named(host);
        let metric = self.pending.intern_named(metric);
        self.encode(host, metric, samples.iter().copied())
    }

    /// Encode one record into the pending frame — the hot append path.
    /// Each name comes with the caller's key for it: a host slot and a
    /// metric id, each standing for one name until [`Wal::reset`]. A name
    /// is written to the frame's table on its first use in the frame, so
    /// one that is both a host and a metric is written twice. Nothing is
    /// allocated for a key the log has seen, nor per record.
    #[inline]
    pub(crate) fn append_samples(
        &mut self,
        (slot, host): (usize, &str),
        (id, metric): (usize, &str),
        samples: impl ExactSizeIterator<Item = (u64, u64)>,
    ) -> io::Result<()> {
        let p = &mut self.pending;
        let host = p.table.intern(stamp_of(&mut p.hosts, slot), host);
        let metric = p.table.intern(stamp_of(&mut p.metrics, id), metric);
        self.encode(host, metric, samples)
    }

    /// Encode a record whose names are at `host` and `metric` in the
    /// pending frame's table.
    #[inline]
    fn encode(
        &mut self,
        host: u64,
        metric: u64,
        samples: impl ExactSizeIterator<Item = (u64, u64)>,
    ) -> io::Result<()> {
        let p = &mut self.pending;
        put_varint(&mut p.body, host);
        put_varint(&mut p.body, metric);
        put_varint(&mut p.body, samples.len() as u64);
        for (ts, bits) in samples {
            put_varint(&mut p.body, zigzag(ts.wrapping_sub(p.prev_ts) as i64));
            p.body.extend_from_slice(&bits.to_le_bytes());
            p.prev_ts = ts;
        }
        p.n_records += 1;
        if p.body.len() >= SEAL_BYTES {
            self.seal()?;
        }
        Ok(())
    }

    /// Close the pending frame and hand it to the log; no-op when
    /// nothing is pending.
    fn seal(&mut self) -> io::Result<()> {
        let p = &mut self.pending;
        if p.n_records == 0 {
            return Ok(());
        }
        let t = Timer::start();
        let f = &mut self.frame;
        f.clear();
        f.extend_from_slice(&[0u8; FRAME_HEADER]);
        put_varint(f, p.table.n_names);
        f.extend_from_slice(&p.table.names);
        put_varint(f, p.n_records);
        f.extend_from_slice(&p.body);
        let (head, payload) = f.split_at_mut(FRAME_HEADER);
        let len = u32::try_from(payload.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "WAL frame over 4 GiB: append smaller batches",
            )
        })?;
        head[..4].copy_from_slice(&len.to_le_bytes());
        head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        self.log.append(f)?;
        p.start_frame();
        self.seal_micros.observe_timer(t);
        Ok(())
    }

    /// Seal the pending frame, flush buffers and `fdatasync`. When this
    /// returns, every record appended so far is durable — the ack point
    /// of the store.
    pub fn sync(&mut self) -> io::Result<()> {
        self.seal()?;
        self.zero_fill_bytes.add(self.log.sync()?);
        Ok(())
    }

    /// Discard all records, pending ones included (their data has been
    /// sealed into a segment): truncate back to the header and fsync.
    pub fn reset(&mut self) -> io::Result<()> {
        self.pending.start_frame();
        self.pending.forget_keys();
        self.log.truncate_to_header()
    }
}

impl Drop for Wal {
    /// Clean close keeps what was appended: seal the pending frame so
    /// the log's buffer, flushed as it drops, carries it. Best effort,
    /// no fsync — only [`Wal::sync`] acks.
    fn drop(&mut self) {
        let _ = self.seal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{power_cuts, ZERO_FILL_STEP};
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdb-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn rec(host: &str, metric: &str, samples: &[(u64, u64)]) -> WalRecord {
        WalRecord { host: host.into(), metric: metric.into(), samples: samples.to_vec() }
    }

    /// Three apply groups: names shared inside a frame and across
    /// frames, an empty record, time running backwards and to the ends
    /// of `u64`, a NaN payload.
    fn groups() -> Vec<Vec<WalRecord>> {
        vec![
            vec![
                rec("c301-101", "cpu_user", &[(600, 1.5f64.to_bits()), (1200, 2.5f64.to_bits())]),
                rec("c301-102", "mem_used", &[(600, 4096)]),
                rec("h", "m", &[]),
            ],
            vec![
                rec("c301-101", "mem_used", &[(1800, (-0.0f64).to_bits())]),
                rec(
                    "c301-101",
                    "cpu_user",
                    &[(1800, 0x7FF8_0000_0000_0001), (u64::MAX, 7), (0, 9)],
                ),
            ],
            vec![rec("c301-102", "mem_used", &[(1200, 4097)]), rec("h", "h", &[(1, 1), (1, 2)])],
        ]
    }

    fn recs() -> Vec<WalRecord> {
        groups().concat()
    }

    /// `bytes` up to its trailing run of zeros, which open reads as
    /// capacity: the length a torn tail ending there counts as cut.
    fn unpadded(bytes: &[u8]) -> usize {
        bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)
    }

    /// Write `groups()` with a `sync` after each; returns the log's
    /// bytes — the file is they, then zeros — and the frame boundaries
    /// (header end first).
    fn write_groups(path: &Path) -> (Vec<u8>, Vec<usize>) {
        let mut wal = Wal::open(path).unwrap().wal;
        let mut boundaries = vec![wal.len() as usize];
        for group in groups() {
            for r in &group {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
            boundaries.push(wal.len() as usize);
        }
        let mut bytes = fs::read(path).unwrap();
        let zeros = bytes.split_off(wal.len() as usize);
        assert_eq!(bytes.len() + zeros.len(), ZERO_FILL_STEP as usize);
        assert!(zeros.iter().all(|&b| b == 0), "the file past the log is zeros");
        (bytes, boundaries)
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

    /// Format pin: the synced three-frame log of a fixed input, as
    /// length + CRC32 of the log (the file is it, then zeros). A change
    /// here is a format change: bump `WAL_MAGIC`.
    #[test]
    fn synced_bytes_are_pinned() {
        let path = tmp("golden");
        let (bytes, boundaries) = write_groups(&path);
        assert_eq!(boundaries, [8, 97, 178, 243]);
        assert_eq!((bytes.len(), crc32(&bytes)), (243, 0xDDBE_9B27));
        // The last frame, spelled out from the module doc.
        #[rustfmt::skip]
        let payload = [
            &[3, 8][..], b"c301-102", &[8], b"mem_used", &[1], b"h", // string table
            &[2],                                                    // two records
            &[0, 1, 1, 0xE0, 0x12], &4097u64.to_le_bytes(),          // Δts +1200
            &[2, 2, 2, 0xDD, 0x12], &1u64.to_le_bytes(),             // Δts −1199
            &[0], &2u64.to_le_bytes(),                               // Δts 0
        ]
        .concat();
        let frame = [&57u32.to_le_bytes()[..], &crc32(&payload).to_le_bytes(), &payload].concat();
        assert_eq!(&bytes[178..], frame);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_at_every_offset_recovers_whole_frames() {
        let path = tmp("torn");
        let (good, boundaries) = write_groups(&path);
        assert_eq!(boundaries.last(), Some(&good.len()));
        for cut in 0..=good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            let rec = Wal::open(&path).unwrap();
            // The frame is the unit of loss: exactly the records of the
            // frames wholly before the cut (a cut inside the header
            // recovers as an empty log).
            let frames = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(rec.records, groups()[..frames].concat(), "cut at {cut}");
            // Trailing zeros are capacity, not a torn tail.
            let end = boundaries[frames];
            let torn = unpadded(&good[..cut]).saturating_sub(end);
            assert_eq!(rec.truncated_bytes as usize, torn, "cut at {cut}");
            // Post-recovery file ends exactly at that frame boundary.
            drop(rec);
            assert_eq!(fs::read(&path).unwrap(), &good[..end], "cut at {cut}");
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn power_cuts_keep_whole_frames_and_the_capacity() {
        let path = tmp("power");
        let (_, boundaries) = write_groups(&path);
        power_cuts::check(&path, &boundaries, |p| {
            let rec = Wal::open(p).unwrap();
            let frames = (0..=3).find(|&k| rec.records == groups()[..k].concat());
            (frames.expect("whole frames replay"), rec.truncated_bytes)
        });
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corrupting_any_byte_of_a_middle_frame_stops_replay_before_it() {
        let path = tmp("midcorrupt");
        let (good, boundaries) = write_groups(&path);
        for at in boundaries[1]..boundaries[2] {
            let mut bytes = good.clone();
            bytes[at] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            let rec = Wal::open(&path).unwrap();
            assert_eq!(rec.records, groups()[0], "byte {at}");
            let torn = unpadded(&bytes) - boundaries[1];
            assert_eq!(rec.truncated_bytes as usize, torn, "byte {at}");
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// CRC-correct frames whose contents lie. Each is refused whole, as
    /// the torn tail, and a claimed count is refused by arithmetic on
    /// the bytes left — before a name, a record or a sample is stored
    /// for it. The densest legal frame decodes. An empty payload frames
    /// to eight zero bytes, which open reads as capacity: it delivers
    /// nothing, and stays.
    #[test]
    fn hostile_frames_are_refused_as_a_torn_tail() {
        let path = tmp("hostile");
        let framed = |payload: &[u8]| {
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(payload).to_le_bytes());
            frame.extend_from_slice(payload);
            frame
        };
        // names · n_records · (host_ix · metric_ix · n · samples)
        let payload = |names: &[&[u8]], n_records: u64, h: u64, m: u64, n: u64, tail: &[u8]| {
            let mut p = Vec::new();
            put_varint(&mut p, names.len() as u64);
            for name in names {
                crate::codec::put_bytes(&mut p, name);
            }
            put_varint(&mut p, n_records);
            for v in [h, m, n] {
                put_varint(&mut p, v);
            }
            p.extend_from_slice(tail);
            p
        };
        // 4,096 nine-byte samples: Δts 1, value bits 1.
        let sample = [2u8, 1, 0, 0, 0, 0, 0, 0, 0];
        let body = sample.repeat(4096);
        let fits = 4096u64;
        let names: &[&[u8]] = &[b"h", b"m"];
        let good = payload(names, 1, 0, 1, fits, &body);

        let mut many_names = Vec::new();
        put_varint(&mut many_names, u64::MAX);
        many_names.extend_from_slice(&good);
        let hostile: Vec<(&str, Vec<u8>)> = vec![
            ("n_names beyond the payload", many_names),
            ("n_records beyond the payload", payload(names, u64::MAX / 2, 0, 1, fits, &body)),
            ("one record too many", payload(names, 2, 0, 1, fits, &body)),
            ("sample count beyond the payload", payload(names, 1, 0, 1, u64::MAX, &body)),
            ("one sample too many", payload(names, 1, 0, 1, fits + 1, &body)),
            ("host index past the table", payload(names, 1, 2, 1, fits, &body)),
            ("metric index past the table", payload(names, 1, 0, 2, fits, &body)),
            ("trailing bytes", [&good[..], &[0]].concat()),
            ("a name that is not UTF-8", payload(&[b"h", b"\xFF\xFE"], 1, 0, 1, fits, &body)),
            ("a truncated value", payload(names, 1, 0, 1, 1, &sample[..8])),
            ("empty payload", Vec::new()),
        ];
        for (what, bad) in &hostile {
            let mut delivered = 0usize;
            let refused = FrameScratch::default().replay(bad, &mut |_| delivered += 1);
            assert_eq!((refused, delivered), (None, 0), "{what}");

            let file = [&WAL_MAGIC[..], &framed(&good), &framed(bad)].concat();
            fs::write(&path, &file).unwrap();
            let rec = Wal::open(&path).unwrap();
            assert_eq!(rec.records.len(), 1, "{what}");
            assert_eq!(rec.records[0].samples.len(), fits as usize, "{what}");
            assert_eq!(rec.records[0].samples[4095], (4096, 1), "{what}");
            if bad.is_empty() {
                assert_eq!(rec.truncated_bytes, 0, "{what}");
                assert!(fs::read(&path).unwrap() == file, "{what}: kept as capacity");
            } else {
                assert_eq!(rec.truncated_bytes as usize, unpadded(&framed(bad)), "{what}");
            }
        }
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
        // Pending records go too: a reset follows a segment seal that
        // holds them.
        rec.wal.append(&recs()[0]).unwrap();
        assert!(!rec.wal.is_empty());
        rec.wal.reset().unwrap();
        assert!(rec.wal.is_empty());
        assert_eq!(rec.wal.len(), WAL_MAGIC.len() as u64);
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

    /// The previous format is refused, not read: the error names both
    /// versions and the way out, and the file is byte-identical after.
    #[test]
    fn a_v1_log_is_refused_and_left_untouched() {
        let path = tmp("v1");
        // A v1 header and one v1 record frame (host, metric, one sample).
        let mut v1 = b"SUPWAL01".to_vec();
        let payload = [&[1u8, b'h', 1, b'm', 1][..], &[0xD8, 0x04, 0x2A]].concat();
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&crc32(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        for len in [v1.len(), WAL_MAGIC.len()] {
            fs::write(&path, &v1[..len]).unwrap();
            let Err(err) = Wal::open(&path) else { panic!("a v1 log must not open") };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("SUPWAL01") && msg.contains("SUPWAL02") && msg.contains("flush"),
                "{msg}"
            );
            assert_eq!(fs::read(&path).unwrap(), &v1[..len], "refused log left in place");
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// `len()` is what the log will hold once the pending frame is
    /// sealed: exact before a `sync`; right after it, the file is
    /// `len()` bytes, then zeros.
    #[test]
    fn len_counts_pending_bytes_and_is_the_file_length_after_every_sync() {
        let path = tmp("len");
        let mut wal = Wal::open(&path).unwrap().wal;
        let on_disk = || fs::read(&path).unwrap();
        assert_eq!((wal.len(), on_disk().len()), (8, 8));
        // 200 hosts: name indexes and counts cross the one-byte varint.
        for tick in 0..3u64 {
            let synced = on_disk();
            for h in 0..200 {
                let before = wal.len();
                wal.append_parts(&format!("host-{h:03}"), "cpu_user", &[(tick * 600, h)]).unwrap();
                assert!(wal.len() > before);
            }
            assert!(on_disk() == synced, "nothing reaches the file before the seal");
            let promised = wal.len();
            wal.sync().unwrap();
            assert_eq!(wal.len(), promised, "tick {tick}");
            let file = on_disk();
            assert_eq!(file.len() as u64, ZERO_FILL_STEP, "tick {tick}");
            assert!(file[promised as usize..].iter().all(|&b| b == 0), "tick {tick}");
            // The log ends at `len()`, not at the last non-zero byte.
            let copy = path.with_file_name("copy.log");
            fs::copy(&path, &copy).unwrap();
            let reopened = Wal::open(&copy).unwrap();
            assert_eq!((reopened.wal.len(), reopened.truncated_bytes), (promised, 0));
        }
        let synced = on_disk();
        wal.sync().unwrap();
        assert!(on_disk() == synced, "a sync with nothing pending writes nothing");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// A load that never syncs still reaches the file a frame at a
    /// time, and never buffers much more than `SEAL_BYTES`.
    #[test]
    fn appends_without_sync_seal_at_the_size_threshold() {
        let path = tmp("threshold");
        let mut wal = Wal::open(&path).unwrap().wal;
        let samples: Vec<(u64, u64)> = (0..144).map(|t| (t * 600, t)).collect();
        let record = 3 + samples.len() * 9 + 1; // the first Δts may take two bytes
        let mut written: Vec<WalRecord> = Vec::new();
        let mut grew = 0;
        for i in 0..400 {
            let before = fs::metadata(&path).unwrap().len();
            let host = format!("h{}", i % 7);
            wal.append_parts(&host, "m", &samples).unwrap();
            written.push(rec(&host, "m", &samples));
            assert!(wal.pending.body.len() < SEAL_BYTES, "record {i}");
            assert!(wal.len() - wal.log.len() < (SEAL_BYTES + record) as u64, "record {i}");
            grew += usize::from(fs::metadata(&path).unwrap().len() > before);
        }
        assert!(grew >= 400 * 144 * 9 / (SEAL_BYTES + record), "{grew} frames reached the file");
        drop(wal);
        let replayed = Wal::open(&path).unwrap();
        assert_eq!(replayed.truncated_bytes, 0);
        assert!(replayed.records == written);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// A clean close keeps what was appended, synced or not: drop seals
    /// the pending frame into the log's buffer, which flushes.
    #[test]
    fn drop_seals_the_pending_frame() {
        let path = tmp("drop");
        {
            let mut wal = Wal::open(&path).unwrap().wal;
            wal.append(&recs()[0]).unwrap();
            wal.sync().unwrap();
            wal.append(&recs()[1]).unwrap();
        }
        let rec = Wal::open(&path).unwrap();
        assert_eq!(rec.records, recs()[..2].to_vec());
        assert_eq!(rec.truncated_bytes, 0);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// The live shape — a tick of one-sample records, a host's metrics
    /// together, one `sync` — costs at most 16 B a record (v1: 41).
    #[test]
    fn one_sample_records_of_a_tick_cost_at_most_16_bytes() {
        let path = tmp("tick");
        let mut wal = Wal::open(&path).unwrap().wal;
        let (hosts, metrics) = (64u64, 16u64);
        for tick in 0..2u64 {
            let before = wal.len();
            for h in 0..hosts {
                for m in 0..metrics {
                    let v = (1.0e9 + (h * metrics + m) as f64).to_bits();
                    let (host, metric) = (format!("c301-{h:03}"), format!("metric_{m:02}"));
                    wal.append_parts(&host, &metric, &[(tick * 600, v)]).unwrap();
                }
            }
            wal.sync().unwrap();
            let per_record = (wal.len() - before) as f64 / (hosts * metrics) as f64;
            assert!(per_record <= 16.0, "tick {tick}: {per_record} B per record");
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
