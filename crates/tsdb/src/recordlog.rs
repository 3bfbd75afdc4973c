//! Opaque-record segments: the same CRC'd, indexed container as series
//! segments (kind 1), holding length-framed byte records instead of
//! compressed chunks.
//!
//! The warehouse's `JobTable::save/load` rides on this: each job record
//! is one opaque entry, the block index carries the jobs' `[min end_ts,
//! max end_ts]` so time-sliced loads can skip blocks, and the whole file
//! inherits the segment format's atomic-rename durability and per-block
//! corruption detection.
//!
//! Block payload: `varint n · (varint len · bytes)*`.

use std::path::Path;

use crate::codec::{get_bytes, get_varint, put_bytes, put_varint};
use crate::segment::{SegmentReader, SegmentWriter, TsdbError, KIND_RECORDS};

/// Records per block: small enough that one corrupt block loses little,
/// large enough to amortize framing.
const RECORDS_PER_BLOCK: usize = 1024;

/// Write `records` (with per-record `ts` used for the sparse index) to a
/// kind-1 segment at `path`, atomically. Returns bytes written.
pub fn write_records(path: &Path, records: &[(u64, Vec<u8>)]) -> Result<u64, TsdbError> {
    let mut writer = SegmentWriter::new(KIND_RECORDS);
    for block in records.chunks(RECORDS_PER_BLOCK) {
        let mut payload = Vec::new();
        put_varint(&mut payload, block.len() as u64);
        let mut min_ts = u64::MAX;
        let mut max_ts = 0u64;
        for (ts, bytes) in block {
            min_ts = min_ts.min(*ts);
            max_ts = max_ts.max(*ts);
            put_bytes(&mut payload, bytes);
        }
        if min_ts == u64::MAX {
            min_ts = 0;
        }
        writer.push_raw_block(&payload, min_ts, max_ts, block.len() as u32);
    }
    if writer.is_empty() {
        // An empty table still needs a valid file to load back.
        writer.push_raw_block(&[0], 0, 0, 0);
    }
    writer.seal(path)
}

/// Read every record back, in write order.
pub fn read_records(path: &Path) -> Result<Vec<Vec<u8>>, TsdbError> {
    let reader = SegmentReader::open(path)?;
    if reader.kind != KIND_RECORDS {
        return Err(TsdbError::Corrupt(format!(
            "{}: expected a record segment (kind {KIND_RECORDS}), got kind {}",
            path.display(),
            reader.kind
        )));
    }
    let bad = |what: &str| TsdbError::Corrupt(format!("{}: record block: {what}", path.display()));
    let mut out = Vec::new();
    for entry in &reader.entries {
        let payload = reader.read_block(entry)?;
        let mut pos = 0usize;
        let n = get_varint(&payload, &mut pos).ok_or_else(|| bad("count"))? as usize;
        if n > payload.len() {
            return Err(bad("count out of range"));
        }
        for _ in 0..n {
            out.push(get_bytes(&payload, &mut pos).ok_or_else(|| bad("record"))?.to_vec());
        }
        if pos != payload.len() {
            return Err(bad("trailing bytes"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsdb-rec-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("records.tsdb")
    }

    #[test]
    fn round_trips_records_in_order() {
        let path = tmp("roundtrip");
        let records: Vec<(u64, Vec<u8>)> =
            (0..3000u64).map(|i| (i * 60, format!("job-{i}").into_bytes())).collect();
        write_records(&path, &records).unwrap();
        let back = read_records(&path).unwrap();
        assert_eq!(back.len(), 3000);
        assert_eq!(back[0], b"job-0");
        assert_eq!(back[2999], b"job-2999");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn empty_table_round_trips() {
        let path = tmp("empty");
        write_records(&path, &[]).unwrap();
        assert_eq!(read_records(&path).unwrap(), Vec::<Vec<u8>>::new());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn zero_length_and_binary_records_survive() {
        let path = tmp("binary");
        let records = vec![(0u64, vec![]), (1, vec![0u8, 255, 128, 7]), (2, vec![0xDE, 0xAD])];
        write_records(&path, &records).unwrap();
        // Format pin. A records file has no chunk index, so it is the
        // version-2 file but for the header's version field.
        let mut file = fs::read(&path).unwrap();
        assert_eq!((file.len(), crate::crc::crc32(&file)), (59, 0x4199_08F6));
        file[8..10].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!((file.len(), crate::crc::crc32(&file)), (59, 0x8BA7_FB65));
        let back = read_records(&path).unwrap();
        assert_eq!(back, vec![vec![], vec![0u8, 255, 128, 7], vec![0xDE, 0xAD]]);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn non_segment_files_are_not_mistaken() {
        let path = tmp("legacy");
        fs::write(&path, b"{\"job\":1}\n{\"job\":2}\n").unwrap();
        assert!(read_records(&path).is_err());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn series_segment_is_rejected_by_record_reader() {
        let path = tmp("kindmix");
        let mut w = SegmentWriter::new(crate::segment::KIND_SERIES);
        w.push_series_block(&[("h", "m", &[(0, 1u64)][..])]);
        w.seal(&path).unwrap();
        assert!(matches!(read_records(&path), Err(TsdbError::Corrupt(_))));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
