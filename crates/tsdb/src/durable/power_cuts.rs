//! Power-cut checks for a format on [`super::AppendLog`], shared by the
//! toy format's and the WAL's tests and, through `#[path]`, the relay
//! spool's. The including module brings `CrashSeam` into scope.
#![cfg(test)]

use std::fs;
use std::path::Path;

use super::CrashSeam;

/// Power cuts on the log at `path`, just synced and closed: its frames
/// end at `boundaries` (the header's end first), then the file is zeros
/// (capacity) or ends. `open` reopens it and returns the frames
/// delivered and the bytes cut. Each case leaves the file as it found
/// it:
///
/// - a clean close reopens byte-identical, with nothing cut and no
///   durable op made;
/// - sectors that never landed: `[c, len)` zeroed, for every `c` in the
///   last two frames — the frames before the first damaged one are
///   delivered, the damaged one is cut, and only the bytes before the
///   trailing zeros count as cut (none: the zeros stay, as capacity);
/// - non-zero bytes after a zero run are a torn tail.
pub fn check(path: &Path, boundaries: &[usize], mut open: impl FnMut(&Path) -> (usize, u64)) {
    let file = fs::read(path).unwrap();
    let (frames, end) = (boundaries.len() - 1, boundaries[boundaries.len() - 1]);
    assert!(file.len() >= end && file[end..].iter().all(|&b| b == 0), "the log, then zeros");

    let seam = CrashSeam::arm(None);
    assert_eq!(open(path), (frames, 0), "clean close");
    assert_eq!(seam.trace(), [], "a clean reopen makes no durable op");
    drop(seam);
    assert!(fs::read(path).unwrap() == file, "a clean reopen leaves the file byte-identical");

    for c in boundaries[frames.saturating_sub(2)]..end {
        let mut zeroed = file.clone();
        zeroed[c..].fill(0);
        fs::write(path, &zeroed).unwrap();
        // A frame whose bytes from `c` on were zeros anyway is whole.
        let whole = boundaries[1..].iter().take_while(|&&b| zeroed[..b] == file[..b]).count();
        let zeros_from = zeroed.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let cut = zeros_from.saturating_sub(boundaries[whole]);
        assert_eq!(open(path), (whole, cut as u64), "zeroed from {c}");
        let after = fs::read(path).unwrap();
        let kept = if cut > 0 { &file[..boundaries[whole]] } else { &zeroed[..] };
        assert!(after == kept, "zeroed from {c}: the file after recovery");
    }

    let mut torn = file.clone();
    torn.resize(file.len().max(end + 101), 0);
    torn[end + 100] = 0x5A;
    fs::write(path, &torn).unwrap();
    assert_eq!(open(path), (frames, 101), "a byte after a zero run");
    assert!(fs::read(path).unwrap() == file[..end], "the torn tail is cut");
    fs::write(path, &file).unwrap();
}
