//! The durable-file layer: every file this workspace must not lose or
//! tear goes to disk, and leaves it, through these primitives.
//!
//! - [`replace_file`] — atomic whole-file replace (tmp, fsync, rename):
//!   a crash leaves the old file or the new one, never a mix. Sealed
//!   segments, the retention manifest and the relay spool's reset.
//! - [`AppendLog`] — a fixed header, then self-delimiting frames.
//!   Appends are buffered, [`AppendLog::sync`] is the durability point,
//!   [`AppendLog::open`] replays the valid prefix and cuts off whatever
//!   a crash left after it. Frame contents are the caller's business:
//!   the tsdb WAL and the relay spool are the two formats on top.
//!
//!   Every byte of the file past [`AppendLog::len`] is zero: the log
//!   may keep zero-filled, already durable capacity there. A sync
//!   overwrites that space in place and makes it durable with one
//!   `fdatasync`, which commits no size or block metadata; only a
//!   [`AppendLog::sync`] that reaches past the capacity first zero-fills
//!   the next [`ZERO_FILL_STEP`]. A log whose file is replaced soon
//!   after each sync (the spool, reset once its batches are acked) would
//!   throw that space away, so it appends with
//!   [`AppendLog::sync_without_zero_fill`] instead. Open treats the
//!   file's trailing run of zeros as capacity, not as a torn tail, so a
//!   format on top must never write an all-zero frame.
//! - [`remove_file`] — a crash leaves the file or none; no fsync.
//!
//! Directory fsync is best-effort (not every platform allows it; the
//! rename is atomic without it) and happens only where a directory
//! entry changes — creation and replace — never on append or sync.
//! Each step a crash can land before is an [`Op`] that first passes this
//! thread's [`CrashSeam`]: one thread-local read while it is unarmed.

use std::cell::RefCell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// A durable step: [`replace_file`]'s tmp write + fsync and its rename,
/// [`AppendLog::open`]'s header creation and torn-tail cut,
/// [`AppendLog::sync`], [`AppendLog::truncate_to_header`], [`remove_file`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    WriteTmp,
    Rename,
    CreateHeader,
    TruncateTail,
    Sync,
    TruncateToHeader,
    Remove,
}

/// An armed seam: the op to crash at (`None`, none) and the trace.
type Armed = (Option<usize>, Vec<(Op, PathBuf)>);

thread_local! {
    static SEAM: RefCell<Option<Armed>> = const { RefCell::new(None) };
}

/// Trace `op` on `path` and, from the armed crash index on, fail it.
fn seam(op: Op, path: &Path) -> io::Result<()> {
    let crashed = SEAM.with_borrow_mut(|seam| {
        let (crash_at, trace) = seam.as_mut()?;
        trace.push((op, path.to_path_buf()));
        crash_at.filter(|&k| trace.len() > k)
    });
    crashed.map_or(Ok(()), |_| Err(io::Error::other("crashed by the durable seam")))
}

/// Arms this thread's crash seam until dropped: every [`Op`] is traced
/// with its path (a replace's, its target), and from op `crash_at` on
/// (0-based; `None`, never) each fails without acting — the directory is
/// what a kill there leaves: before a rename, a complete `.tmp` that no
/// reader opens and the next replace of that name overwrites.
#[must_use = "the seam disarms when the guard drops"]
pub struct CrashSeam(PhantomData<*const ()>);

impl CrashSeam {
    pub fn arm(crash_at: Option<usize>) -> CrashSeam {
        SEAM.set(Some((crash_at, Vec::new())));
        CrashSeam(PhantomData)
    }

    /// The ops since arming, in order, the failed ones included.
    pub fn trace(&self) -> Vec<(Op, PathBuf)> {
        SEAM.with_borrow(|seam| seam.iter().flat_map(|(_, trace)| trace.clone()).collect())
    }
}

impl Drop for CrashSeam {
    fn drop(&mut self) {
        SEAM.set(None);
    }
}

/// Best-effort fsync of the directory holding `path`.
fn sync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Atomically replace (or create) `path` with `bytes`. On error the old
/// file, if any, is untouched and no `.tmp` is left behind.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    seam(Op::WriteTmp, path)?;
    let written = File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_all()
    });
    if written.is_ok() {
        seam(Op::Rename, path)?;
    }
    let renamed = written.and_then(|()| fs::rename(&tmp, path));
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
        return renamed;
    }
    sync_parent_dir(path);
    Ok(())
}

/// Delete `path`; see the module docs.
pub fn remove_file(path: &Path) -> io::Result<()> {
    seam(Op::Remove, path)?;
    fs::remove_file(path)
}

/// A sync that reaches past the log's zero-filled capacity zero-fills up
/// to the next multiple of this many bytes past its end. Chosen at about
/// 19 `live-ticks` WAL frames (13.2 KB each) and measured at that size
/// only (DESIGN.md § "Durable files"); no other step was compared.
pub const ZERO_FILL_STEP: u64 = 256 << 10;

/// Append side of a framed log file; see the module docs.
pub struct AppendLog {
    path: PathBuf,
    writer: BufWriter<File>,
    header_len: u64,
    /// Header + valid frames + buffered appends.
    len: u64,
    /// End of the zero-filled space: the file's bytes past the log's
    /// flushed end and up to here are zeros a sync made durable.
    capacity: u64,
}

/// What [`AppendLog::open`] found on disk.
pub struct Recovered {
    pub log: AppendLog,
    /// The file's header as it now stands on disk.
    pub header: Vec<u8>,
    /// Bytes of torn tail cut off (0 on a clean log), up to where the
    /// file's trailing zeros start: those read as capacity, not as tail.
    pub truncated_bytes: u64,
}

impl AppendLog {
    /// Open `path`, creating it with `fresh_header` if absent.
    ///
    /// The first `magic_len` bytes of the header identify the format: a
    /// file that starts differently is refused, never clobbered. A file
    /// shorter than the header whose bytes agree with the magic is a
    /// creation the crash tore — nothing was ever synced through it, so
    /// it is rewritten fresh.
    ///
    /// `next_frame` sees the bytes after the last valid frame and
    /// returns the length of the next one, or `None` at the first frame
    /// that is short or damaged. It is not called once the frames reach
    /// the file's trailing run of zeros: if everything after the last
    /// valid frame is zero, that is capacity, kept as it is; otherwise
    /// the file is cut back to the valid prefix, and `truncated_bytes`
    /// counts the cut bytes before the trailing zeros.
    pub fn open(
        path: &Path,
        fresh_header: &[u8],
        magic_len: usize,
        mut next_frame: impl FnMut(&[u8]) -> Option<usize>,
    ) -> io::Result<Recovered> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let file_len = file.metadata()?.len();
        let mut buf = Vec::with_capacity(file_len as usize);
        file.read_to_end(&mut buf)?;

        let magic = fresh_header.get(..magic_len).unwrap_or(fresh_header);
        let seen = buf.len().min(magic.len());
        if buf[..seen] != magic[..seen] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a {} file", path.display(), String::from_utf8_lossy(magic)),
            ));
        }
        if buf.len() < fresh_header.len() {
            seam(Op::CreateHeader, path)?;
            if !buf.is_empty() {
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
            }
            file.write_all(fresh_header)?;
            file.sync_all()?;
            sync_parent_dir(path);
            buf = fresh_header.to_vec();
        }

        let from = fresh_header.len();
        let zeros_from = buf[from..].iter().rposition(|&b| b != 0).map_or(from, |i| from + i + 1);
        let mut good_end = fresh_header.len();
        while good_end < zeros_from {
            let Some(n) = next_frame(&buf[good_end..]) else { break };
            match good_end.checked_add(n) {
                Some(end) if n > 0 && end <= buf.len() => good_end = end,
                _ => break,
            }
        }
        let truncated_bytes = zeros_from.saturating_sub(good_end) as u64;
        let good_end = good_end as u64;
        let mut capacity = buf.len() as u64;
        if truncated_bytes > 0 {
            seam(Op::TruncateTail, path)?;
            file.set_len(good_end)?;
            file.sync_all()?;
            capacity = good_end;
        }
        file.seek(SeekFrom::Start(good_end))?;
        let header = buf[..fresh_header.len()].to_vec();
        let log = AppendLog {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
            header_len: fresh_header.len() as u64,
            len: good_end,
            capacity,
        };
        Ok(Recovered { log, header, truncated_bytes })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Log length in bytes: header + valid frames + buffered appends.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds nothing but its header.
    pub fn is_empty(&self) -> bool {
        self.len <= self.header_len
    }

    /// Buffer one frame. NOT durable until [`AppendLog::sync`] returns.
    pub fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Flush buffers and `fdatasync`: every frame appended so far
    /// survives a crash once this returns. When the frames reach past
    /// the zero-filled capacity, zeros up to the next multiple of
    /// [`ZERO_FILL_STEP`] past them go to the file first, in the same
    /// durability call. Returns the bytes zero-filled (usually 0).
    pub fn sync(&mut self) -> io::Result<u64> {
        self.flush_and_sync(true)
    }

    /// [`AppendLog::sync`] without the zero-fill: frames past the
    /// capacity extend the file, and the `fdatasync` commits its new
    /// size. For a log whose file is replaced soon after each sync.
    pub fn sync_without_zero_fill(&mut self) -> io::Result<()> {
        self.flush_and_sync(false).map(drop)
    }

    fn flush_and_sync(&mut self, zero_fill: bool) -> io::Result<u64> {
        seam(Op::Sync, &self.path)?;
        self.writer.flush()?;
        let file = self.writer.get_ref();
        let mut zero_filled = 0;
        if zero_fill && self.len > self.capacity {
            zero_filled = ZERO_FILL_STEP - self.len % ZERO_FILL_STEP;
            file.write_all_at(&vec![0; zero_filled as usize], self.len)?;
        }
        // `fdatasync` also commits the size and block metadata a read of
        // the data needs, so this is a full durability point either way.
        file.sync_data()?;
        self.capacity = self.capacity.max(self.len + zero_filled);
        Ok(zero_filled)
    }

    /// Drop every frame in place: truncate back to the header, capacity
    /// included, and fsync.
    pub fn truncate_to_header(&mut self) -> io::Result<()> {
        seam(Op::TruncateToHeader, &self.path)?;
        self.writer.flush()?;
        let f = self.writer.get_mut();
        f.set_len(self.header_len)?;
        f.seek(SeekFrom::Start(self.header_len))?;
        f.sync_all()?;
        self.len = self.header_len;
        self.capacity = self.header_len;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod power_cuts;

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdb-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut v: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn replace_file_is_all_or_nothing() {
        let dir = tmpdir("replace");
        let path = dir.join("state.bin");
        replace_file(&path, b"old").unwrap();
        replace_file(&path, b"new contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new contents");
        assert_eq!(names(&dir), ["state.bin"], "no tmp left after success");

        // The write step fails (the tmp name is taken by a directory):
        // the old file stays, byte for byte.
        fs::create_dir(dir.join("state.bin.tmp")).unwrap();
        assert!(replace_file(&path, b"never lands").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"new contents");
        fs::remove_dir(dir.join("state.bin.tmp")).unwrap();

        // Missing directory: an error, and nothing is created.
        assert!(replace_file(&dir.join("missing").join("state.bin"), b"x").is_err());
        assert_eq!(names(&dir), ["state.bin"]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Toy format: 4-byte magic + 2 spare header bytes, frames are one
    /// byte holding the payload length plus one, then the payload, all
    /// 0xAB. An empty frame is `[1]`: no frame is all zeros.
    const HEADER: &[u8] = b"TOY1\x07\x09";

    fn toy_frame(body: &[u8]) -> Vec<u8> {
        [&[body.len() as u8 + 1], body].concat()
    }

    fn toy_open(path: &Path) -> io::Result<(Recovered, Vec<Vec<u8>>)> {
        let mut frames = Vec::new();
        let rec = AppendLog::open(path, HEADER, 4, |rest| {
            let (&tag, body) = rest.split_first()?;
            let body = body.get(..usize::from(tag.checked_sub(1)?))?;
            if body.iter().any(|&b| b != 0xAB) {
                return None;
            }
            frames.push(body.to_vec());
            Some(1 + body.len())
        })?;
        Ok((rec, frames))
    }

    #[test]
    fn append_log_recovers_the_valid_prefix_at_every_cut() {
        let dir = tmpdir("log");
        let path = dir.join("toy.log");
        let written: Vec<Vec<u8>> = vec![vec![0xAB; 3], vec![], vec![0xAB; 5]];
        {
            let (mut rec, frames) = toy_open(&path).unwrap();
            assert!(frames.is_empty() && rec.log.is_empty());
            assert_eq!(rec.header, HEADER);
            for f in &written {
                rec.log.append(&toy_frame(f)).unwrap();
            }
            assert_eq!(rec.log.sync().unwrap(), ZERO_FILL_STEP - 17);
        }
        // The file is the log, then zeros.
        let mut good = fs::read(&path).unwrap();
        let zeros = good.split_off(17);
        assert_eq!(good.len() + zeros.len(), ZERO_FILL_STEP as usize);
        assert!(zeros.iter().all(|&b| b == 0));
        let boundaries = [6usize, 10, 11, 17];

        for cut in 0..=good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            let (rec, frames) = toy_open(&path).unwrap();
            let expect = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(frames, written[..expect], "cut at {cut}");
            assert_eq!(rec.header, HEADER, "cut at {cut}");
            // A torn header is rewritten, not counted as a torn tail.
            let end = boundaries[expect];
            assert_eq!(rec.truncated_bytes as usize, cut.saturating_sub(end), "cut at {cut}");
            assert_eq!(rec.log.len() as usize, end, "cut at {cut}");
            drop(rec);
            assert_eq!(fs::read(&path).unwrap(), &good[..end], "cut at {cut}");
        }

        // A damaged frame ends the prefix; appends continue after it.
        let mut bad = good.clone();
        bad[12] = 0x00;
        fs::write(&path, &bad).unwrap();
        let (mut rec, frames) = toy_open(&path).unwrap();
        assert_eq!(frames, written[..2]);
        assert_eq!(rec.truncated_bytes, 6);
        rec.log.append(&toy_frame(&[0xAB])).unwrap();
        rec.log.sync().unwrap();
        rec.log.truncate_to_header().unwrap();
        assert!(rec.log.is_empty());
        drop(rec);
        assert_eq!(fs::read(&path).unwrap(), HEADER);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_log_power_cuts_keep_whole_frames_and_the_capacity() {
        let dir = tmpdir("power");
        let path = dir.join("toy.log");
        let written: Vec<Vec<u8>> = vec![vec![0xAB; 3], vec![], vec![0xAB; 5]];
        {
            let mut log = toy_open(&path).unwrap().0.log;
            for f in &written {
                log.append(&toy_frame(f)).unwrap();
            }
            log.sync().unwrap();
        }
        power_cuts::check(&path, &[6, 10, 11, 17], |p| {
            let (rec, frames) = toy_open(p).unwrap();
            assert_eq!(frames, written[..frames.len()]);
            (frames.len(), rec.truncated_bytes)
        });
        // Appends continue after the capacity's start, and only a sync
        // that reaches past it zero-fills again.
        let mut log = toy_open(&path).unwrap().0.log;
        log.append(&toy_frame(&[0xAB; 2])).unwrap();
        assert_eq!(log.sync().unwrap(), 0);
        let (mut appended, mut filled) = (4, 0);
        while log.len() <= ZERO_FILL_STEP {
            log.append(&toy_frame(&[0xAB; 200])).unwrap();
            filled += log.sync().unwrap();
            appended += 1;
        }
        assert_eq!(filled, 2 * ZERO_FILL_STEP - log.len());
        assert_eq!(fs::metadata(&path).unwrap().len(), 2 * ZERO_FILL_STEP);
        drop(log);
        let (rec, frames) = toy_open(&path).unwrap();
        assert_eq!((frames.len(), rec.truncated_bytes), (appended, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Each op fails from the armed index on and does nothing: a replace
    /// crashed at its write leaves no tmp, one crashed at its rename the
    /// whole tmp, and the log and the delete leave the file as it was.
    #[test]
    fn the_seam_crashes_each_op_without_acting() {
        let dir = tmpdir("seam");
        let (state, log) = (dir.join("state.bin"), dir.join("toy.log"));
        let run = || -> io::Result<()> {
            replace_file(&state, b"new")?;
            let (mut rec, _) = toy_open(&log)?;
            rec.log.append(&toy_frame(&[0xAB]))?;
            rec.log.sync()?;
            rec.log.truncate_to_header()?;
            remove_file(&state)
        };
        let trace = {
            let seam = CrashSeam::arm(None);
            run().unwrap();
            seam.trace()
        };
        let ops: Vec<Op> = trace.iter().map(|(op, _)| *op).collect();
        use Op::*;
        assert_eq!(ops, [WriteTmp, Rename, CreateHeader, Sync, TruncateToHeader, Remove]);
        assert!(trace[..2].iter().all(|(_, p)| *p == state), "{trace:?}");
        assert!(trace[2..5].iter().all(|(_, p)| *p == log), "{trace:?}");

        for (k, &op) in ops.iter().enumerate() {
            let _ = fs::remove_file(&log);
            replace_file(&state, b"old").unwrap();
            let seam = CrashSeam::arm(Some(k));
            assert!(run().is_err(), "op {k}");
            assert_eq!(seam.trace().len(), k + 1, "nothing runs past the crash");
            drop(seam);
            let replaced: &[u8] = if k < 2 { b"old" } else { b"new" };
            assert_eq!(fs::read(&state).unwrap(), replaced, "op {k}");
            let tmp = dir.join("state.bin.tmp");
            match op {
                WriteTmp => assert_eq!(names(&dir), ["state.bin"]),
                Rename => assert_eq!(fs::read(&tmp).unwrap(), b"new"),
                CreateHeader => assert_eq!(fs::read(&log).unwrap(), b"", "created, never written"),
                // The unsynced frame reaches the file as the log drops.
                Sync | TruncateToHeader => assert_eq!(toy_open(&log).unwrap().1, [vec![0xAB]]),
                Remove => assert!(toy_open(&log).unwrap().1.is_empty()),
                TruncateTail => unreachable!("the run leaves no torn tail"),
            }
            let _ = fs::remove_file(&tmp);
        }
        // Disarmed, nothing is traced or failed.
        assert!(run().is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_log_refuses_a_foreign_magic() {
        let dir = tmpdir("foreign");
        let path = dir.join("toy.log");
        for foreign in [&b"TOX1\x07\x09\x02\xAB"[..], b"NOPE", b"TO?"] {
            fs::write(&path, foreign).unwrap();
            assert!(toy_open(&path).is_err());
            assert_eq!(fs::read(&path).unwrap(), foreign, "refused, not clobbered");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
