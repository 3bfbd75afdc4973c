//! Compact binary encoding of raw TACC_Stats files — the §5 future-work
//! item ("we are assessing various technologies ... to quickly process,
//! store, and query massive TACC_Stats data ... a key step to developing
//! a capability to rapidly import TACC_Stats data into XDMoD").
//!
//! The text format is self-describing and greppable; this sibling format
//! is for bulk storage and re-import. It exploits the data's structure:
//!
//! - cumulative counters move by *small deltas* between ten-minute
//!   samples → zigzag + LEB128 varints shrink them dramatically;
//! - device instance sets are nearly constant within a file → devices are
//!   interned once and deltas chain against the previous record's value
//!   for the same device (absolute when the device is new);
//! - the record/mark stream is preserved exactly, so
//!   `decode(encode(f)) == f` and every downstream consumer (ingest,
//!   time-series assembly) works unchanged.
//!
//! `cargo bench -p supremm-bench --bench ingest` compares text parse vs
//! binary decode; typical results: ~3.4× smaller, ~2× faster to decode.

use std::collections::BTreeMap;

use supremm_metrics::schema::DeviceClass;
use supremm_metrics::{JobId, Timestamp};
use supremm_procsim::DeviceReading;
use supremm_taccstats::format::{JobMark, ParsedFile, Record, Sample};
use supremm_tsdb::codec::{self, put_str, put_varint};

const MAGIC: &[u8; 4] = b"SUPB";
const VERSION: u16 = 1;

/// Encoding/decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    BadMagic,
    BadVersion(u16),
    Truncated,
    BadClassId(u8),
    BadTag(u8),
    BadString,
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::BadMagic => write!(f, "not a SUPB file"),
            BinError::BadVersion(v) => write!(f, "unsupported version {v}"),
            BinError::Truncated => write!(f, "truncated input"),
            BinError::BadClassId(c) => write!(f, "unknown class id {c}"),
            BinError::BadTag(t) => write!(f, "unknown sample tag {t}"),
            BinError::BadString => write!(f, "invalid utf-8 string"),
        }
    }
}

impl std::error::Error for BinError {}

// --- primitives: `tsdb::codec`'s, with this format's error type -----------

pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, BinError> {
    codec::get_varint(buf, pos).ok_or(BinError::Truncated)
}

pub(crate) fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, BinError> {
    let bytes = codec::get_bytes(buf, pos).ok_or(BinError::Truncated)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| BinError::BadString)
}

/// Zigzag over a *wrapped* (mod 2^64) difference: small forward or
/// backward steps encode as small varints regardless of the absolute
/// magnitudes. `delta_encode(p, v)` round-trips through
/// `delta_decode(p, ·)` for every `(p, v)` pair.
fn delta_encode(prev: u64, cur: u64) -> u64 {
    codec::zigzag(cur.wrapping_sub(prev) as i64)
}

fn delta_decode(prev: u64, z: u64) -> u64 {
    prev.wrapping_add(codec::unzigzag(z) as u64)
}

fn class_id(c: DeviceClass) -> u8 {
    // suplint: allow(R1) -- DeviceClass::ALL lists every variant; position cannot miss
    DeviceClass::ALL.iter().position(|&x| x == c).expect("member") as u8
}

fn class_from_id(id: u8) -> Result<DeviceClass, BinError> {
    DeviceClass::ALL.get(id as usize).copied().ok_or(BinError::BadClassId(id))
}

// --- encode ----------------------------------------------------------------

/// Encode a parsed file. Lossless: `decode(encode(f)) == f`.
pub fn encode(file: &ParsedFile) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_str(&mut buf, &file.hostname);
    put_str(&mut buf, &file.arch);
    put_varint(&mut buf, file.cores as u64);
    put_varint(&mut buf, file.start.0);
    put_varint(&mut buf, file.classes.len() as u64);
    for &c in &file.classes {
        buf.push(class_id(c));
    }
    put_varint(&mut buf, file.samples.len() as u64);

    // Per (class, device) previous values for delta chains; device names
    // interned per class in first-seen order.
    let mut interned: BTreeMap<DeviceClass, Vec<String>> = BTreeMap::new();
    let mut prev_vals: BTreeMap<(DeviceClass, usize), Vec<u64>> = BTreeMap::new();
    let mut prev_ts = 0u64;

    for sample in &file.samples {
        match sample {
            Sample::Mark(JobMark::Begin { job, at }) => {
                buf.push(1);
                put_varint(&mut buf, job.0);
                put_varint(&mut buf, at.0);
            }
            Sample::Mark(JobMark::End { job, at }) => {
                buf.push(2);
                put_varint(&mut buf, job.0);
                put_varint(&mut buf, at.0);
            }
            Sample::Record(rec) => {
                buf.push(0);
                put_varint(&mut buf, delta_encode(prev_ts, rec.ts.0));
                prev_ts = rec.ts.0;
                match rec.job {
                    Some(j) => put_varint(&mut buf, j.0 + 1),
                    None => put_varint(&mut buf, 0),
                }
                put_varint(&mut buf, rec.readings.len() as u64);
                for (&class, readings) in &rec.readings {
                    buf.push(class_id(class));
                    put_varint(&mut buf, readings.len() as u64);
                    for r in readings {
                        let names = interned.entry(class).or_default();
                        let idx = match names.iter().position(|n| n == &r.device) {
                            Some(i) => {
                                put_varint(&mut buf, i as u64 + 1);
                                i
                            }
                            None => {
                                // New device: 0 tag + inline name.
                                put_varint(&mut buf, 0);
                                put_str(&mut buf, &r.device);
                                names.push(r.device.clone());
                                names.len() - 1
                            }
                        };
                        let key = (class, idx);
                        match prev_vals.get(&key) {
                            Some(prev) if prev.len() == r.values.len() => {
                                for (&v, &p) in r.values.iter().zip(prev) {
                                    put_varint(&mut buf, delta_encode(p, v));
                                }
                            }
                            _ => {
                                for &v in &r.values {
                                    put_varint(&mut buf, delta_encode(0, v));
                                }
                            }
                        }
                        prev_vals.insert(key, r.values.clone());
                    }
                }
            }
        }
    }
    buf
}

// --- decode ----------------------------------------------------------------

/// Decode a buffer produced by [`encode`].
pub fn decode(buf: &[u8]) -> Result<ParsedFile, BinError> {
    let mut pos = 0usize;
    if buf.get(..4) != Some(MAGIC.as_slice()) {
        return Err(BinError::BadMagic);
    }
    pos += 4;
    let version = match buf.get(4..6) {
        Some(&[a, b]) => u16::from_le_bytes([a, b]),
        _ => return Err(BinError::Truncated),
    };
    if version != VERSION {
        return Err(BinError::BadVersion(version));
    }
    pos += 2;
    let hostname = get_str(buf, &mut pos)?;
    let arch = get_str(buf, &mut pos)?;
    let cores = get_varint(buf, &mut pos)? as u32;
    let start = Timestamp(get_varint(buf, &mut pos)?);
    let n_classes = get_varint(buf, &mut pos)? as usize;
    let mut classes = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        let &id = buf.get(pos).ok_or(BinError::Truncated)?;
        pos += 1;
        classes.push(class_from_id(id)?);
    }
    let n_samples = get_varint(buf, &mut pos)? as usize;

    let mut interned: BTreeMap<DeviceClass, Vec<String>> = BTreeMap::new();
    let mut prev_vals: BTreeMap<(DeviceClass, usize), Vec<u64>> = BTreeMap::new();
    let mut prev_ts = 0u64;
    let mut samples = Vec::with_capacity(n_samples);

    for _ in 0..n_samples {
        let &tag = buf.get(pos).ok_or(BinError::Truncated)?;
        pos += 1;
        match tag {
            1 | 2 => {
                let job = JobId(get_varint(buf, &mut pos)?);
                let at = Timestamp(get_varint(buf, &mut pos)?);
                samples.push(Sample::Mark(if tag == 1 {
                    JobMark::Begin { job, at }
                } else {
                    JobMark::End { job, at }
                }));
            }
            0 => {
                let ts = delta_decode(prev_ts, get_varint(buf, &mut pos)?);
                prev_ts = ts;
                let job_raw = get_varint(buf, &mut pos)?;
                let job = if job_raw == 0 { None } else { Some(JobId(job_raw - 1)) };
                let n_class = get_varint(buf, &mut pos)? as usize;
                let mut readings: BTreeMap<DeviceClass, Vec<DeviceReading>> = BTreeMap::new();
                for _ in 0..n_class {
                    let &cid = buf.get(pos).ok_or(BinError::Truncated)?;
                    pos += 1;
                    let class = class_from_id(cid)?;
                    let n_inst = get_varint(buf, &mut pos)? as usize;
                    let n_vals = class.schema().len();
                    let mut insts = Vec::with_capacity(n_inst);
                    for _ in 0..n_inst {
                        let name_tag = get_varint(buf, &mut pos)?;
                        let idx = if name_tag == 0 {
                            let name = get_str(buf, &mut pos)?;
                            let names = interned.entry(class).or_default();
                            names.push(name);
                            names.len() - 1
                        } else {
                            (name_tag - 1) as usize
                        };
                        let device = interned
                            .get(&class)
                            .and_then(|v| v.get(idx))
                            .ok_or(BinError::Truncated)?
                            .clone();
                        let key = (class, idx);
                        let prev = prev_vals.get(&key).filter(|p| p.len() == n_vals);
                        let mut values = Vec::with_capacity(n_vals);
                        for i in 0..n_vals {
                            let z = get_varint(buf, &mut pos)?;
                            let base = prev.map_or(0, |p| p[i]);
                            values.push(delta_decode(base, z));
                        }
                        prev_vals.insert(key, values.clone());
                        insts.push(DeviceReading { device, values });
                    }
                    readings.insert(class, insts);
                }
                samples.push(Sample::Record(Record { ts: Timestamp(ts), job, readings }));
            }
            t => return Err(BinError::BadTag(t)),
        }
    }
    Ok(ParsedFile { hostname, arch, cores, start, classes, samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::{Duration, HostId};
    use supremm_procsim::{KernelState, NodeActivity, NodeSpec};
    use supremm_taccstats::format::parse;
    use supremm_taccstats::Collector;

    fn realistic_file() -> (String, ParsedFile) {
        let mut kernel = KernelState::new(NodeSpec::ranger());
        let mut c = Collector::new(HostId(7));
        let mut ts = Timestamp(600);
        c.begin_job(&mut kernel, JobId(42), ts);
        for i in 0..24 {
            let act = NodeActivity {
                user_frac: 0.8,
                flops: 3e12,
                mem_used_bytes: (6 + i % 3) << 30,
                scratch_write_bytes: 100 << 20,
                ib_tx_bytes: 4 << 30,
                ..NodeActivity::idle()
            };
            kernel.advance(&act, 600.0);
            ts = ts + Duration(600);
            c.sample(&kernel, ts);
        }
        c.end_job(&mut kernel, JobId(42), ts);
        let text = c.into_files().remove(0).1;
        let parsed = parse(&text).unwrap();
        (text, parsed)
    }

    #[test]
    fn round_trip_is_lossless() {
        let (_, parsed) = realistic_file();
        let bin = encode(&parsed);
        let back = decode(&bin).unwrap();
        assert_eq!(back, parsed);
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let (text, parsed) = realistic_file();
        let bin = encode(&parsed);
        let ratio = text.len() as f64 / bin.len() as f64;
        assert!(ratio > 3.0, "only {ratio:.1}x smaller ({} vs {})", text.len(), bin.len());
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn delta_round_trips_extreme_pairs() {
        for &(p, v) in &[
            (0u64, 0u64),
            (0, u64::MAX),
            (u64::MAX, 0),
            (1, u64::MAX - 1),
            (u64::MAX / 2, u64::MAX / 2 + 1),
            (42, 41),
        ] {
            assert_eq!(delta_decode(p, delta_encode(p, v)), v, "({p}, {v})");
        }
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        let (_, parsed) = realistic_file();
        let bin = encode(&parsed);
        assert_eq!(decode(b"nope"), Err(BinError::BadMagic));
        assert_eq!(decode(&bin[..10]), Err(BinError::Truncated));
        let mut wrong_ver = bin.clone();
        wrong_ver[4] = 99;
        assert_eq!(decode(&wrong_ver), Err(BinError::BadVersion(99)));
        // Truncations anywhere must error, never panic.
        for cut in (8..bin.len()).step_by(97) {
            let _ = decode(&bin[..cut]);
        }
        // A string length past 2^32 is refused outright, never wrapped
        // to a short read on a 32-bit target.
        let mut huge = bin[..6].to_vec();
        put_varint(&mut huge, (1 << 32) | 1);
        huge.extend_from_slice(b"c0007");
        assert_eq!(decode(&huge), Err(BinError::Truncated));
    }

    #[test]
    fn marks_and_idle_records_survive() {
        let (_, parsed) = realistic_file();
        let bin = encode(&parsed);
        let back = decode(&bin).unwrap();
        assert_eq!(back.marks().count(), parsed.marks().count());
        assert_eq!(
            back.records().filter(|r| r.job.is_none()).count(),
            parsed.records().filter(|r| r.job.is_none()).count()
        );
    }
}
