//! Per-job binary codec for the segment-backed job table.
//!
//! Binary layout (version byte first, then fields in struct order):
//!
//! ```text
//! u8 version=1 · varint job · varint user · u8 has_app (+ str) ·
//! u8 science · str queue · varint submit · varint start · varint end ·
//! varint nodes · u8 exit_code · 8×f64le metrics · 20×f64le extended ·
//! u8 flops_valid · varint samples · varint coverage_gaps
//! ```
//!
//! Floats travel as raw little-endian bit patterns, so `decode(encode(r))
//! == r` bit-for-bit — the property the pipeline-through-store
//! differential tests rely on.

use supremm_metrics::metric::KeyMetricVec;
use supremm_metrics::{ExtendedMetric, JobId, ScienceField, Timestamp, UserId};
use supremm_tsdb::codec::{self, put_str, put_varint};

use crate::record::{ExitKind, JobRecord};

const VERSION: u8 = 1;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    BadString,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::BadString => write!(f, "invalid utf-8 string"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    codec::get_varint(buf, pos).ok_or(DecodeError::Truncated)
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, DecodeError> {
    let bytes = codec::get_bytes(buf, pos).ok_or(DecodeError::Truncated)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadString)
}

fn science_id(s: ScienceField) -> u8 {
    // suplint: allow(R1) -- ScienceField::ALL lists every variant; position cannot miss
    ScienceField::ALL.iter().position(|&x| x == s).expect("member") as u8
}

fn science_from_id(id: u8) -> Result<ScienceField, DecodeError> {
    ScienceField::ALL.get(id as usize).copied().ok_or(DecodeError::Truncated)
}

/// Encode one job record.
pub fn encode(r: &JobRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + 28 * 8);
    buf.push(VERSION);
    put_varint(&mut buf, r.job.0);
    put_varint(&mut buf, r.user.0 as u64);
    match &r.app {
        Some(app) => {
            buf.push(1);
            put_str(&mut buf, app);
        }
        None => buf.push(0),
    }
    buf.push(science_id(r.science));
    put_str(&mut buf, &r.queue);
    put_varint(&mut buf, r.submit.0);
    put_varint(&mut buf, r.start.0);
    put_varint(&mut buf, r.end.0);
    put_varint(&mut buf, r.nodes as u64);
    buf.push(r.exit.to_failed_code() as u8);
    for v in r.metrics.0 {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for v in r.extended {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    buf.push(r.flops_valid as u8);
    put_varint(&mut buf, r.samples as u64);
    put_varint(&mut buf, r.coverage_gaps as u64);
    buf
}

fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64, DecodeError> {
    let end = pos.checked_add(8).ok_or(DecodeError::Truncated)?;
    let &[a, b, c, d, e, f, g, h] = buf.get(*pos..end).ok_or(DecodeError::Truncated)? else {
        return Err(DecodeError::Truncated);
    };
    *pos = end;
    Ok(f64::from_bits(u64::from_le_bytes([a, b, c, d, e, f, g, h])))
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, DecodeError> {
    let &b = buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    Ok(b)
}

/// Decode one record; rejects trailing bytes and unknown versions.
pub fn decode(buf: &[u8]) -> Result<JobRecord, DecodeError> {
    let mut pos = 0usize;
    let version = get_u8(buf, &mut pos)?;
    if version != VERSION {
        return Err(DecodeError::Truncated);
    }
    let job = JobId(get_varint(buf, &mut pos)?);
    let user = UserId(get_varint(buf, &mut pos)? as u32);
    let app = match get_u8(buf, &mut pos)? {
        0 => None,
        _ => Some(get_str(buf, &mut pos)?),
    };
    let science = science_from_id(get_u8(buf, &mut pos)?)?;
    let queue = get_str(buf, &mut pos)?;
    let submit = Timestamp(get_varint(buf, &mut pos)?);
    let start = Timestamp(get_varint(buf, &mut pos)?);
    let end = Timestamp(get_varint(buf, &mut pos)?);
    let nodes = get_varint(buf, &mut pos)? as u32;
    let exit = ExitKind::from_failed_code(get_u8(buf, &mut pos)? as u32);
    let mut metrics = KeyMetricVec::default();
    for slot in metrics.0.iter_mut() {
        *slot = get_f64(buf, &mut pos)?;
    }
    let mut extended = [0.0f64; ExtendedMetric::ALL.len()];
    for slot in extended.iter_mut() {
        *slot = get_f64(buf, &mut pos)?;
    }
    let flops_valid = get_u8(buf, &mut pos)? != 0;
    let samples = get_varint(buf, &mut pos)? as u32;
    let coverage_gaps = get_varint(buf, &mut pos)? as u32;
    if pos != buf.len() {
        return Err(DecodeError::Truncated);
    }
    Ok(JobRecord {
        job,
        user,
        app,
        science,
        queue,
        submit,
        start,
        end,
        nodes,
        exit,
        metrics,
        extended,
        flops_valid,
        samples,
        coverage_gaps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::KeyMetric;

    fn record() -> JobRecord {
        let mut metrics = KeyMetricVec::default();
        metrics.set(KeyMetric::CpuFlops, 3.25e9);
        metrics.set(KeyMetric::CpuIdle, 0.125);
        JobRecord {
            job: JobId(u64::MAX / 3),
            user: UserId(40_000),
            app: Some("WRF".into()),
            science: ScienceField::AtmosphericSciences,
            queue: "large".into(),
            submit: Timestamp(10),
            start: Timestamp(600),
            end: Timestamp(7200),
            nodes: 32,
            exit: ExitKind::NodeFailure,
            metrics,
            extended: [0.1234567890123; ExtendedMetric::ALL.len()],
            flops_valid: false,
            samples: 11,
            coverage_gaps: 3,
        }
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let r = record();
        assert_eq!(decode(&encode(&r)).unwrap(), r);
        let mut none_app = record();
        none_app.app = None;
        assert_eq!(decode(&encode(&none_app)).unwrap(), none_app);
    }

    #[test]
    fn nan_metrics_survive_binary_round_trip() {
        let mut r = record();
        r.metrics.0[3] = f64::NAN;
        r.extended[7] = f64::INFINITY;
        let back = decode(&encode(&r)).unwrap();
        assert!(back.metrics.0[3].is_nan());
        assert_eq!(back.extended[7], f64::INFINITY);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let enc = encode(&record());
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        let mut extra = enc.clone();
        extra.push(0);
        assert!(decode(&extra).is_err());
    }
}
