//! Property tests for the storage engine: arbitrary data through the
//! chunk codec, the WAL (including truncation at arbitrary offsets), and
//! the full engine with interleaved flushes and compaction.
//!
//! CI's nightly job reruns this suite with `SUPREMM_CASES=1024`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use supremm_metrics::rng::{cases, SplitMix64};
use supremm_tsdb::codec::{
    decode_chunk, decode_stats_chunk_into, encode_chunk, encode_stats_chunk_into, get_bytes,
    get_varint, put_bytes,
};
use supremm_tsdb::segment::{SegmentWriter, KIND_SERIES};
use supremm_tsdb::wal::{Wal, WalRecord};
use supremm_tsdb::{Agg, ChunkStats, DbOptions, RetentionPolicy, RollupLevel, Selector, Tsdb};

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tsdb-prop-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

mod common;
use common::{samples_of, samples_strategy, Spacing, Values};

/// An encoded chunk taken apart along the layout in `encode_chunk`'s
/// doc: where the mode byte sits, how many bytes each timestamp varint
/// took, and where the value stream starts. Empty chunks have no mode.
fn take_apart(enc: &[u8]) -> (usize, Vec<usize>, usize) {
    let mut pos = 0;
    let n = get_varint(enc, &mut pos).unwrap();
    let mode_at = pos;
    pos += usize::from(n > 0);
    let ts_lens = (0..n)
        .map(|_| {
            let from = pos;
            get_varint(enc, &mut pos).unwrap();
            pos - from
        })
        .collect();
    (mode_at, ts_lens, pos)
}

/// Which of the codec's paths the encoded cases took, read back from
/// the bytes: a property that round-trips 256 chunks of one shape has
/// tested one shape.
#[derive(Debug, Default)]
struct Coverage {
    int_mode: u32,
    xor_mode: u32,
    /// Delta-of-delta timestamps of one byte, and of more.
    short_dod: u32,
    long_dod: u32,
    /// XOR control codes `0`, `10` and `11`.
    same: u32,
    reuse: u32,
    fresh: u32,
    /// Meaningful-bit fields of at most 56 bits, and of more (which the
    /// reader takes in two).
    narrow: u32,
    wide: u32,
}

impl Coverage {
    fn observe(&mut self, enc: &[u8]) {
        let (mode_at, ts_lens, mut pos) = take_apart(enc);
        if ts_lens.is_empty() {
            return;
        }
        for &len in ts_lens.iter().skip(2) {
            *(if len == 1 { &mut self.short_dod } else { &mut self.long_dod }) += 1;
        }
        if enc[mode_at] == 1 {
            self.int_mode += 1;
            return;
        }
        self.xor_mode += 1;
        let stream = get_bytes(enc, &mut pos).unwrap();
        let mut at = 0;
        let mut take = |n: u32| {
            (0..n).fold(0u64, |v, _| {
                let bit = stream[at / 8] >> (7 - at % 8) & 1;
                at += 1;
                v << 1 | u64::from(bit)
            })
        };
        take(64);
        let mut len = 0;
        for _ in 1..ts_lens.len() {
            if take(1) == 0 {
                self.same += 1;
                continue;
            }
            if take(1) == 1 {
                self.fresh += 1;
                len = (take(12) % 64) as u32 + 1;
            } else {
                self.reuse += 1;
            }
            *(if len > 56 { &mut self.wide } else { &mut self.narrow }) += 1;
            take(len);
        }
    }

    fn paths(&self) -> [u32; 9] {
        let Coverage { int_mode, xor_mode, short_dod, long_dod, same, reuse, fresh, narrow, wide } =
            *self;
        [int_mode, xor_mode, short_dod, long_dod, same, reuse, fresh, narrow, wide]
    }
}

/// Tiny chunks/blocks so even small random stores span many chunks,
/// blocks, and segments — the shapes the series index has to get right.
fn small_opts() -> DbOptions {
    DbOptions { chunk_samples: 8, block_chunks: 2, ..Default::default() }
}

/// Store-building ops: (host, metric, ts, value bits, action) where
/// action 2 flushes and action 3 flushes+compacts after the append.
fn store_ops(rng: &mut SplitMix64) -> Vec<(u8, u8, u64, u64, u8)> {
    rng.vec(1..120, |r| {
        let (host, metric) = (r.range(0..3) as u8, r.range(0..2) as u8);
        (host, metric, r.range(0..500), r.next_u64(), r.range(0..4) as u8)
    })
}

/// `(host, metric, t0, len)` read windows reaching past the written range.
fn arb_windows(rng: &mut SplitMix64, n: std::ops::Range<usize>) -> Vec<(u8, u8, u64, u64)> {
    rng.vec(n, |r| (r.range(0..5) as u8, r.range(0..4) as u8, r.range(0..600), r.range(0..600)))
}

fn build_store(dir: &std::path::Path, ops: &[(u8, u8, u64, u64, u8)]) -> Tsdb {
    build_store_with(dir, small_opts(), ops)
}

fn build_store_with(
    dir: &std::path::Path,
    opts: DbOptions,
    ops: &[(u8, u8, u64, u64, u8)],
) -> Tsdb {
    let mut db = Tsdb::open_with(dir, opts).unwrap();
    for (host, metric, ts, bits, action) in ops {
        db.append(&format!("h{host}"), &format!("m{metric}"), *ts, f64::from_bits(*bits)).unwrap();
        match action {
            2 => db.flush().unwrap(),
            3 => {
                db.flush().unwrap();
                db.compact().unwrap();
            }
            _ => {}
        }
    }
    db.sync().unwrap();
    db
}

/// Query output with values as raw bit patterns, so NaN payloads and
/// signed zeros must match exactly — "close enough" is a bug here.
type BitsView = Vec<(String, String, Vec<(u64, u64)>)>;

fn bits_view(result: Vec<(supremm_tsdb::SeriesKey, Vec<(u64, f64)>)>) -> BitsView {
    result
        .into_iter()
        .map(|(k, pts)| {
            (
                k.host.to_string(),
                k.metric.to_string(),
                pts.into_iter().map(|(ts, v)| (ts, v.to_bits())).collect(),
            )
        })
        .collect()
}

fn agg_from(ix: u8) -> Agg {
    match ix % 6 {
        0 => Agg::Mean,
        1 => Agg::Sum,
        2 => Agg::Min,
        3 => Agg::Max,
        4 => Agg::Last,
        _ => Agg::Count,
    }
}

fn selector_from(host: u8, metric: u8) -> Selector {
    // 3 / 2 name the hosts/metrics `store_ops` never writes, so the
    // no-match path is exercised too; 4 / 3 mean "any".
    Selector {
        host: (host < 4).then(|| format!("h{host}")),
        metric: (metric < 3).then(|| format!("m{metric}")),
    }
}

#[test]
fn indexed_query_is_bit_identical_to_naive() {
    cases("indexed_query_is_bit_identical_to_naive", 256, |rng| {
        let ops = store_ops(rng);
        let queries = arb_windows(rng, 1..8);
        let dir = tmpdir("diff-query");
        let db = build_store(&dir, &ops);
        // Reopen so every flushed segment is read back through its
        // footer index, not remembered from the write path.
        drop(db);
        let db = Tsdb::open_with(&dir, small_opts()).unwrap();
        for (host, metric, t0, len) in &queries {
            let sel = selector_from(*host, *metric);
            let (t0, t1) = (*t0, t0.saturating_add(*len));
            let fast = bits_view(db.query(&sel, t0, t1).unwrap());
            let naive = bits_view(db.query_naive(&sel, t0, t1).unwrap());
            assert_eq!(fast, naive, "selector {:?} range [{}, {}]", sel, t0, t1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn preagg_downsample_is_bit_identical_to_naive() {
    cases("preagg_downsample_is_bit_identical_to_naive", 256, |rng| {
        let ops = store_ops(rng);
        let queries = rng.vec(1..8, |r| {
            let (host, metric) = (r.range(0..5) as u8, r.range(0..4) as u8);
            (host, metric, r.range(0..600), r.range(0..600), r.range(1..80), r.range(0..6) as u8)
        });
        let dir = tmpdir("diff-downsample");
        let db = build_store(&dir, &ops);
        drop(db);
        let db = Tsdb::open_with(&dir, small_opts()).unwrap();
        for (host, metric, t0, len, bin, agg_ix) in &queries {
            let sel = selector_from(*host, *metric);
            let (t0, t1) = (*t0, t0.saturating_add(*len));
            let agg = agg_from(*agg_ix);
            let fast = bits_view(db.downsample(&sel, t0, t1, *bin, agg).unwrap());
            let naive = bits_view(db.downsample_naive(&sel, t0, t1, *bin, agg).unwrap());
            assert_eq!(
                fast, naive,
                "selector {:?} range [{}, {}] bin {} agg {:?}",
                sel, t0, t1, bin, agg
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A `store_ops` store beside one hand-built segment, sealed at a seq
/// the store left free (so it is older than some engine segments and
/// newer than others): its chunks hold shuffled and repeated
/// timestamps, one is empty, and some of its series are its alone.
/// Every query and downsample answers bit for bit as the oracles do,
/// and again, unchanged, once `compact` has rewritten the store.
#[test]
fn foreign_chunks_downsample_as_the_oracle_does() {
    cases("foreign_chunks_downsample_as_the_oracle_does", 128, |rng| {
        let ops = store_ops(rng);
        let dir = tmpdir("foreign");
        drop(build_store(&dir, &ops));
        let taken: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.strip_prefix("seg-")?.strip_suffix(".tsdb")?.parse().ok()
            })
            .collect();
        let free: Vec<u64> =
            (1..taken.iter().max().unwrap_or(&0) + 3).filter(|seq| !taken.contains(seq)).collect();
        let seq = rng.pick(&free);

        let names: Vec<(String, String)> =
            (0..4).flat_map(|h| (0..3).map(move |m| (format!("h{h}"), format!("m{m}")))).collect();
        let mut chunks: Vec<(usize, Vec<(u64, u64)>)> = rng.vec(1..12, |r| {
            let n = r.range(1..10) as usize;
            let mut samples: Vec<(u64, u64)> = Vec::with_capacity(n);
            for _ in 0..n {
                // One in three repeats an earlier timestamp.
                let ts = match samples.len() {
                    len if len > 0 && r.range(0..3) == 0 => {
                        samples[r.range(0..len as u64) as usize].0
                    }
                    _ => r.range(0..1000),
                };
                samples.push((ts, r.next_u64()));
            }
            (r.range(0..names.len() as u64) as usize, samples)
        });
        let at = rng.range(0..chunks.len() as u64 + 1) as usize;
        chunks.insert(at, (rng.range(0..names.len() as u64) as usize, Vec::new()));
        let mut w = SegmentWriter::new(KIND_SERIES);
        let mut rest = chunks.as_slice();
        while !rest.is_empty() {
            let (block, tail) = rest.split_at((rng.range(1..4) as usize).min(rest.len()));
            let block: Vec<_> = block
                .iter()
                .map(|(s, samples)| {
                    (names[*s].0.as_str(), names[*s].1.as_str(), samples.as_slice())
                })
                .collect();
            w.push_series_block(&block);
            rest = tail;
        }
        w.seal(&dir.join(format!("seg-{seq:06}.tsdb"))).unwrap();

        let mut db = Tsdb::open_with(&dir, small_opts()).unwrap();
        let reads: Vec<_> = (0..8)
            .map(|_| {
                let sel = selector_from(rng.range(0..5) as u8, rng.range(0..4) as u8);
                let (t0, len) = (rng.range(0..1100), rng.range(0..1100));
                (sel, t0, t0 + len, rng.range(1..80), agg_from(rng.range(0..6) as u8))
            })
            .collect();
        let mut answers = Vec::new();
        for compacted in [false, true] {
            for (i, (sel, t0, t1, bin, agg)) in reads.iter().enumerate() {
                let (t0, t1, bin, agg) = (*t0, *t1, *bin, *agg);
                let what =
                    format!("foreign seq {seq}, compacted {compacted}, {sel:?} [{t0}, {t1}]");
                let points = bits_view(db.query(sel, t0, t1).unwrap());
                assert_eq!(points, bits_view(db.query_naive(sel, t0, t1).unwrap()), "{what}");
                let naive = bits_view(db.downsample_naive(sel, t0, t1, bin, agg).unwrap());
                let what = format!("{what} bin {bin} {agg:?}");
                assert_eq!(
                    bits_view(db.downsample(sel, t0, t1, bin, agg).unwrap()),
                    naive,
                    "{what}"
                );
                let tiered = db.downsample_tiered(sel, t0, t1, bin, agg).unwrap().0;
                assert_eq!(bits_view(tiered), naive, "tiered, {what}");
                match compacted {
                    false => answers.push((points, naive)),
                    true => assert_eq!(answers[i], (points, naive), "compaction moved, {what}"),
                }
            }
            db.compact().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A backfill sealed after the data it reaches back into: one segment
/// of 8,192 chunks, each overwriting a sample of an older segment of
/// 2²⁰ and adding one beside it. The walk appends the backfill as one
/// source — one sort and one merge with the older run — and answers as
/// `query_naive` does, and promptly: merging it chunk by chunk would
/// move ~4 × 10⁹ samples here.
#[test]
fn a_segment_of_overlapping_chunks_merges_once_and_answers_as_the_oracle() {
    const OLD: u64 = 1 << 20;
    const CHUNKS: u64 = 8192;
    let dir = tmpdir("backfill");
    let mut w = SegmentWriter::new(KIND_SERIES);
    let old: Vec<(u64, u64)> = (0..OLD).map(|i| (i * 2, (i as f64).to_bits())).collect();
    for chunk in old.chunks(2048) {
        w.push_series_block(&[("h", "m", chunk)]);
    }
    w.seal(&dir.join("seg-000001.tsdb")).unwrap();
    let mut w = SegmentWriter::new(KIND_SERIES);
    let step = OLD * 2 / CHUNKS;
    let backfill: Vec<[(u64, u64); 2]> = (0..CHUNKS)
        .map(|k| [(k * step + 2, (-1.0f64).to_bits()), (k * step + 3, (k as f64).to_bits())])
        .collect();
    for block in backfill.chunks(64) {
        let block: Vec<_> = block.iter().map(|chunk| ("h", "m", &chunk[..])).collect();
        w.push_series_block(&block);
    }
    w.seal(&dir.join("seg-000002.tsdb")).unwrap();

    let db = Tsdb::open_with(&dir, DbOptions::default()).unwrap();
    let started = std::time::Instant::now();
    let fast = db.query(&Selector::all(), 0, u64::MAX).unwrap();
    let took = started.elapsed();
    assert_eq!(fast[0].1.len() as u64, OLD + CHUNKS);
    assert_eq!(bits_view(fast), bits_view(db.query_naive(&Selector::all(), 0, u64::MAX).unwrap()));
    assert!(took.as_secs() < 3, "took {took:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hosts that carry different metric sets — the first never has `m0`,
/// the second always does, so a segment's metric table is out of name
/// order and lookups go by rank — answer every selector shape, names no
/// series has included, bit for bit as the oracles do.
#[test]
fn differing_metric_sets_answer_every_selector_as_the_oracles_do() {
    const HOSTS: [&str; 4] = ["a0", "c1", "c10", "c2"];
    const METRICS: [&str; 5] = ["m0", "m1", "m10", "m2", "n"];
    cases("differing_metric_sets_answer_every_selector_as_the_oracles_do", 64, |rng| {
        let n_hosts = rng.range(2..5) as usize;
        let sets: Vec<u64> = (0..n_hosts)
            .map(|h| match (h, rng.range(0..32)) {
                (0, mask) => mask & !1,
                (1, mask) => mask | 1,
                (_, mask) => mask,
            })
            .collect();
        let series: Vec<(&str, &str)> = (0..n_hosts)
            .flat_map(|h| (0..5).map(move |m| (h, m)))
            .filter(|&(h, m)| sets[h] >> m & 1 == 1)
            .map(|(h, m)| (HOSTS[h], METRICS[m]))
            .collect();
        let dir = tmpdir("metric-sets");
        let mut db = Tsdb::open_with(&dir, small_opts()).unwrap();
        for _ in 0..rng.range(1..80) {
            let (host, metric) = rng.pick(&series);
            db.append(host, metric, rng.range(0..500), f64::from_bits(rng.next_u64())).unwrap();
            match rng.range(0..8) {
                0 => db.flush().unwrap(),
                1 => {
                    db.flush().unwrap();
                    db.compact().unwrap();
                }
                _ => {}
            }
        }
        db.sync().unwrap();
        drop(db);
        let db = Tsdb::open_with(&dir, small_opts()).unwrap();
        let hosts = HOSTS.iter().chain(&["", "c", "c100", "zz"]);
        let metrics = METRICS.iter().chain(&["", "m", "m3"]);
        let windows = [(0, u64::MAX), (rng.range(0..500), rng.range(0..500))];
        for host in std::iter::once(None).chain(hosts.map(Some)) {
            for metric in std::iter::once(None).chain(metrics.clone().map(Some)) {
                let sel = Selector {
                    host: host.map(|h| h.to_string()),
                    metric: metric.map(|m| m.to_string()),
                };
                for (t0, len) in windows {
                    let t1 = t0.saturating_add(len);
                    let fast = bits_view(db.query(&sel, t0, t1).unwrap());
                    let naive = bits_view(db.query_naive(&sel, t0, t1).unwrap());
                    assert_eq!(fast, naive, "{sel:?} [{t0}, {t1}]");
                    let (bin, agg) = (rng.range(1..80), agg_from(rng.range(0..6) as u8));
                    let fast = bits_view(db.downsample(&sel, t0, t1, bin, agg).unwrap());
                    let naive = bits_view(db.downsample_naive(&sel, t0, t1, bin, agg).unwrap());
                    assert_eq!(fast, naive, "{sel:?} [{t0}, {t1}] bin {bin} {agg:?}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn chunk_codec_round_trips_arbitrary_samples() {
    let (mut seen, mut ran) = (Coverage::default(), 0);
    cases("chunk_codec_round_trips_arbitrary_samples", 256, |rng| {
        let samples = samples_strategy(rng, 0..200);
        let enc = encode_chunk(&samples);
        seen.observe(&enc);
        ran += 1;
        assert_eq!(decode_chunk(&enc), Some(samples));
    });
    // A replay of one case (`SUPREMM_CASE_SEED`) covers what it covers.
    if ran >= 256 {
        assert!(seen.paths().iter().all(|&hits| hits > 0), "a codec path went untested: {seen:?}");
    }
}

/// A stats chunk of arbitrary bins round-trips bit for bit: starts
/// spaced regularly, jittered or anywhere, and each field's values in
/// one of the value shapes — NaN payloads, ±0 and ±∞ among them — so
/// each of the five streams takes the int-delta tag in some cases and
/// XOR in others. Counts run up to 2⁵³, past which no bin gets.
#[test]
fn stats_chunk_round_trips_arbitrary_bins() {
    // Per stream: cases whose stream took the int-delta tag, and XOR.
    let (mut tags, mut ran) = ([[0u32; 2]; 5], 0);
    cases("stats_chunk_round_trips_arbitrary_bins", 128, |rng| {
        let spacing = rng.pick(&Spacing::ALL);
        let mut starts: Vec<u64> =
            samples_of(rng, spacing, Values::Held, 0..100).into_iter().map(|(ts, _)| ts).collect();
        starts.sort_unstable();
        starts.dedup();
        let n = starts.len();
        let mut column = || {
            let values = rng.pick(&Values::ALL);
            samples_of(rng, spacing, values, n..n + 1)
        };
        let [sum, min, max, last] = [column(), column(), column(), column()];
        let counts: Vec<u64> = match rng.below(3) {
            0 => rng.vec(n..n + 1, |r| r.range(1..200)),
            1 => rng.vec(n..n + 1, |r| r.range(9_000_000_000_000_000..1 << 53)),
            _ => rng.vec(n..n + 1, |r| r.range(1..1 << 53)),
        };
        let bins: Vec<(u64, ChunkStats)> = (0..n)
            .map(|i| {
                let [sum, min, max, last] =
                    [&sum, &min, &max, &last].map(|c| f64::from_bits(c[i].1));
                (starts[i], ChunkStats { count: counts[i], sum, min, max, last })
            })
            .collect();
        let mut enc = vec![0xAB]; // encoding appends
        encode_stats_chunk_into(&mut enc, &bins);
        let (mut pos, mut scratch, mut out) = (1, Vec::new(), Vec::new());
        decode_stats_chunk_into(&enc, &mut pos, &mut scratch, &mut out).unwrap();
        assert_eq!(pos, enc.len());
        let bits = |bins: &[(u64, ChunkStats)]| -> Vec<(u64, [u64; 5])> {
            let row = |s: &ChunkStats| {
                [s.count, s.sum.to_bits(), s.min.to_bits(), s.max.to_bits(), s.last.to_bits()]
            };
            bins.iter().map(|(start, s)| (*start, row(s))).collect()
        };
        assert_eq!(bits(&out), bits(&bins));
        // Hostile bytes: every cut is refused, and a flipped byte is
        // refused or yields at most a bin per byte, ascending.
        let cut = rng.range(1..enc.len() as u64) as usize;
        let refused = decode_stats_chunk_into(&enc[1..cut], &mut 0, &mut scratch, &mut out);
        assert!(refused.is_none(), "a cut at {cut} decoded");
        let mut flipped = enc[1..].to_vec();
        let at = rng.range(0..flipped.len() as u64) as usize;
        flipped[at] ^= rng.range(1..256) as u8;
        if decode_stats_chunk_into(&flipped, &mut 0, &mut scratch, &mut out).is_some() {
            assert!(out.len() <= flipped.len() && out.windows(2).all(|w| w[0].0 < w[1].0));
        }

        // The tags, read back along the layout: count, starts, then five
        // `mode · stream`s.
        let mut pos = 1;
        let n = get_varint(&enc, &mut pos).unwrap();
        if n == 0 {
            return;
        }
        let skip_varints = |pos: &mut usize| (0..n).all(|_| get_varint(&enc, pos).is_some());
        assert!(skip_varints(&mut pos));
        for tag in &mut tags {
            let mode = enc[pos];
            pos += 1;
            tag[usize::from(mode == 0)] += 1;
            match mode {
                1 => assert!(skip_varints(&mut pos)),
                _ => assert!(get_bytes(&enc, &mut pos).is_some()),
            }
        }
        assert_eq!(pos, enc.len());
        ran += 1;
    });
    if ran >= 100 {
        assert!(tags.iter().flatten().all(|&hits| hits > 0), "a stream missed a tag: {tags:?}");
    }
}

#[test]
fn chunk_decoder_never_panics_on_arbitrary_bytes() {
    cases("chunk_decoder_never_panics_on_arbitrary_bytes", 256, |rng| {
        let bytes = rng.vec(0..300, |r| r.next_u64() as u8);
        // Any outcome is fine; crashing is not.
        let _ = decode_chunk(&bytes);

        // Raw bytes die on the count or the mode byte (2 of 256 are
        // valid). To reach the bit reader, keep a real chunk's count and
        // timestamp stream, say XOR, and damage only the value stream.
        let spacing = rng.pick(&Spacing::ALL);
        let samples = samples_of(rng, spacing, Values::Mixed, 1..40);
        let enc = encode_chunk(&samples);
        let (mode_at, _, mut pos) = take_apart(&enc);
        let mut head = enc[..pos].to_vec();
        // A short mix can come out all integers: no bit stream to cut.
        let stream = if enc[mode_at] == 0 { get_bytes(&enc, &mut pos).unwrap() } else { &[] };
        head[mode_at] = 0;
        let first = &stream[..stream.len().min(8)];
        let mut hostile: Vec<Vec<u8>> =
            (0..stream.len()).map(|cut| stream[..cut].to_vec()).collect();
        // Whole bytes after the last field; noise, whose fields end at
        // every bit and sooner or later claim `lead + len > 64`; all
        // ones, which claim it at once; `10` before any window is set.
        hostile.push([stream, &rng.vec(1..9, |r| r.next_u64() as u8)].concat());
        hostile.push(rng.vec(0..400, |r| r.next_u64() as u8));
        hostile.push(vec![0xFF; rng.range(0..400) as usize]);
        hostile.push([first, &[0b1000_0000 | rng.next_u64() as u8 >> 2], &[0xA5; 16]].concat());
        for stream in hostile {
            let mut buf = head.clone();
            put_bytes(&mut buf, &stream);
            // The outcome is free; what is returned is not: as many
            // samples as claimed, in no more room than the input's bytes.
            if let Some(decoded) = decode_chunk(&buf) {
                assert_eq!(decoded.len(), samples.len());
                assert!(decoded.capacity() <= buf.len(), "{} > {}", decoded.capacity(), buf.len());
            }
        }
    });
}

#[test]
fn wal_replays_exactly_what_was_synced() {
    cases("wal_replays_exactly_what_was_synced", 256, |rng| {
        let records = rng.vec(0..20, |r| (samples_strategy(r, 0..20), r.range(0..3) as u8));
        let dir = tmpdir("replay");
        let path = dir.join("wal");
        let written: Vec<WalRecord> = records
            .iter()
            .map(|(samples, host)| WalRecord {
                host: format!("h{host}"),
                metric: "m".into(),
                samples: samples.clone(),
            })
            .collect();
        {
            let mut wal = Wal::open(&path).unwrap().wal;
            for r in &written {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let rec = Wal::open(&path).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.records, written);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn wal_truncation_recovers_a_prefix() {
    cases("wal_truncation_recovers_a_prefix", 256, |rng| {
        let samples = samples_strategy(rng, 1..10);
        let n_records = rng.range(1..8) as usize;
        let cut_frac = rng.uniform_in(0.0..1.0);
        let dir = tmpdir("torn");
        let path = dir.join("wal");
        let record = WalRecord { host: "h".into(), metric: "m".into(), samples };
        let len = {
            let mut wal = Wal::open(&path).unwrap().wal;
            for _ in 0..n_records {
                wal.append(&record).unwrap();
            }
            wal.sync().unwrap();
            wal.len() as usize
        };
        // Tear the log at an arbitrary byte offset (the file is the log,
        // then zero-filled capacity).
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes[len..].iter().all(|&b| b == 0));
        let cut = (len as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let rec = Wal::open(&path).unwrap();
        assert!(rec.records.len() <= n_records);
        for r in &rec.records {
            assert_eq!(r, &record);
        }
        // Recovery leaves an appendable log.
        let mut wal = rec.wal;
        wal.append(&record).unwrap();
        wal.sync().unwrap();
        let rec2 = Wal::open(&path).unwrap();
        assert_eq!(rec2.records.len(), rec.records.len() + 1);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A power cut on a store whose WAL syncs into zero-filled capacity.
/// Random appends — timestamps collide, so later values overwrite
/// earlier ones, in the memtable and across flushed segments — with
/// syncs and flushes between them; then the store closes and every WAL
/// byte past the last durability point's logical end is zeroed in
/// place, as sectors that never landed. On reopen every acked sample
/// reads back bit-identical, the indexed query agrees with
/// `query_naive`, nothing unacked survives, and the memtable holds what
/// it held at that point: no frame from before a flush's reset replays.
#[test]
fn a_power_cut_past_the_last_sync_keeps_exactly_the_acked_samples() {
    type Model = std::collections::BTreeMap<(String, String, u64), u64>;
    cases("a_power_cut_past_the_last_sync_keeps_exactly_the_acked_samples", 128, |rng| {
        let dir = tmpdir("power-cut");
        let mut db = Tsdb::open_with(&dir, small_opts()).unwrap();
        let (mut model, mut acked) = (Model::new(), Model::new());
        let (mut synced_len, mut synced_mem) = (db.stats().wal_bytes, 0);
        for _ in 0..rng.range(1..200) {
            let (host, metric) = (format!("h{}", rng.range(0..3)), format!("m{}", rng.range(0..2)));
            let (ts, bits) = (rng.range(0..64), rng.next_u64());
            db.append(&host, &metric, ts, f64::from_bits(bits)).unwrap();
            model.insert((host, metric, ts), bits);
            match rng.below(8) {
                0 => db.flush().unwrap(),
                1 | 2 => db.sync().unwrap(),
                _ => continue,
            }
            acked.clone_from(&model);
            (synced_len, synced_mem) = (db.stats().wal_bytes, db.stats().mem_samples);
        }
        drop(db);
        let wal = dir.join("wal.log");
        let mut file = std::fs::read(&wal).unwrap();
        file[synced_len as usize..].fill(0);
        std::fs::write(&wal, &file).unwrap();

        let db = Tsdb::open_with(&dir, small_opts()).unwrap();
        assert_eq!(db.stats().recovered_truncated_bytes, 0, "a zeroed tail is capacity");
        assert_eq!(db.stats().mem_samples, synced_mem, "the memtable of the last sync");
        let all = Selector::all();
        let got = bits_view(db.query(&all, 0, u64::MAX).unwrap());
        assert_eq!(got, bits_view(db.query_naive(&all, 0, u64::MAX).unwrap()));
        let got: Model = got
            .into_iter()
            .flat_map(|(h, m, pts)| {
                pts.into_iter().map(move |(ts, b)| ((h.clone(), m.clone(), ts), b))
            })
            .collect();
        assert_eq!(got, acked);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn engine_with_flushes_and_compaction_equals_last_wins_map() {
    cases("engine_with_flushes_and_compaction_equals_last_wins_map", 256, |rng| {
        let ops = rng.vec(1..120, |r| {
            let (host, metric) = (r.range(0..3) as u8, r.range(0..2) as u8);
            (host, metric, r.range(0..500), r.next_u64(), r.below(2) == 1)
        });
        let dir = tmpdir("engine");
        let mut db = Tsdb::open(&dir).unwrap();
        let mut model: std::collections::BTreeMap<(String, String, u64), u64> =
            std::collections::BTreeMap::new();
        for (host, metric, ts, bits, flush) in &ops {
            let (host, metric) = (format!("h{host}"), format!("m{metric}"));
            db.append(&host, &metric, *ts, f64::from_bits(*bits)).unwrap();
            model.insert((host, metric, *ts), *bits);
            if *flush {
                db.flush().unwrap();
            }
        }
        db.flush().unwrap();
        db.compact().unwrap();
        // Reopen from disk: everything must still be there, last-wins.
        let db = Tsdb::open(&dir).unwrap();
        let mut got: std::collections::BTreeMap<(String, String, u64), u64> =
            std::collections::BTreeMap::new();
        for (key, pts) in db.query(&Selector::all(), 0, u64::MAX).unwrap() {
            for (ts, v) in pts {
                let old = got.insert((key.host.clone(), key.metric.clone(), ts), v.to_bits());
                assert!(old.is_none(), "duplicate sample in query output");
            }
        }
        assert_eq!(got, model);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A WAL tail replays into the memtable the store had before it closed.
/// Apply groups of random batches — hosts with disjoint and overlapping
/// metric sets, metric ids first seen out of name order, one pool of
/// names serving as hosts and as metrics, out-of-order and duplicate
/// timestamps, syncs at random points, a flush partway — and after a
/// reopen every query and tiered downsample answer, and the memtable's
/// series and sample counts, are bit-identical to the closed store's.
#[test]
fn a_replayed_wal_tail_answers_as_the_closed_store_did() {
    const NAMES: [&str; 5] = ["c10", "c2", "m0", "m1", "z"];
    cases("a_replayed_wal_tail_answers_as_the_closed_store_did", 128, |rng| {
        // Per host name, a metric set over the same pool: random masks
        // give disjoint, overlapping and shared sets.
        let sets: Vec<u64> = NAMES.iter().map(|_| rng.range(1..32)).collect();
        let series: Vec<(&str, &str)> = (0..NAMES.len())
            .flat_map(|h| (0..NAMES.len()).map(move |m| (h, m)))
            .filter(|&(h, m)| sets[h] >> m & 1 == 1)
            .map(|(h, m)| (NAMES[h], NAMES[m]))
            .collect();
        let dir = tmpdir("replay-diff");
        let mut db = Tsdb::open_with(&dir, small_opts()).unwrap();
        let groups = rng.range(1..10);
        let flush_after = rng.range(0..groups + 1);
        for group in 0..groups {
            for _ in 0..rng.range(1..16) {
                let (host, metric) = rng.pick(&series);
                let batch = rng.vec(1..5, |r| (r.range(0..200), f64::from_bits(r.next_u64())));
                db.append_batch(host, metric, &batch).unwrap();
                if rng.below(4) == 0 {
                    db.sync().unwrap();
                }
            }
            db.sync().unwrap();
            if group == flush_after {
                db.flush().unwrap();
            }
        }
        let queries = rng.vec(4..12, |r| {
            let name = |r: &mut SplitMix64| match r.range(0..NAMES.len() as u64 + 2) {
                n if (n as usize) < NAMES.len() => Some(NAMES[n as usize].to_string()),
                n if n as usize == NAMES.len() => Some("c1".to_string()),
                _ => None,
            };
            let sel = Selector { host: name(r), metric: name(r) };
            let (t0, len) = (r.range(0..200), r.range(0..250));
            (sel, t0, t0 + len, r.range(1..60), agg_from(r.range(0..6) as u8))
        });
        let answers = |db: &Tsdb| {
            let stats = db.stats();
            let mut out = vec![(format!("{} {}", stats.mem_series, stats.mem_samples), vec![])];
            for (sel, t0, t1, bin, agg) in &queries {
                let points = bits_view(db.query(sel, *t0, *t1).unwrap());
                out.push((format!("query {sel:?} [{t0}, {t1}]"), points));
                let (points, tiers) = db.downsample_tiered(sel, *t0, *t1, *bin, *agg).unwrap();
                out.push((format!("tiered {sel:?} {bin} {agg:?} {tiers:?}"), bits_view(points)));
            }
            out
        };
        let before = answers(&db);
        drop(db);
        let db = Tsdb::open_with(&dir, small_opts()).unwrap();
        assert_eq!(answers(&db), before);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A store for the compaction walk: appends with colliding timestamps
/// spread over at least three flushed segments, a raw watermark those
/// segments straddle (they are sealed after the pass that set it, so
/// hold samples on both sides), and a synced memtable tail that no
/// segment holds, overlapping all of them in time.
fn straddled_store(rng: &mut SplitMix64, dir: &std::path::Path) -> (Tsdb, DbOptions) {
    let (raw_ttl, b1, m2) = (rng.range(1..300), rng.range(1..6), rng.range(2..5));
    let retention = RetentionPolicy {
        raw_ttl: Some(raw_ttl),
        levels: vec![
            RollupLevel { bin_secs: b1, ttl: Some(1_000_000) },
            RollupLevel { bin_secs: b1 * m2, ttl: None },
        ],
    };
    let opts = DbOptions { retention, ..small_opts() };
    let mut db = Tsdb::open_with(dir, opts.clone()).unwrap();
    let mut write = |db: &mut Tsdb, n: std::ops::Range<usize>| {
        for (host, metric, ts, bits) in
            rng.vec(n, |r| (r.range(0..3), r.range(0..2), r.range(0..500), r.next_u64()))
        {
            db.append(&format!("h{host}"), &format!("m{metric}"), ts, f64::from_bits(bits))
                .unwrap();
        }
    };
    write(&mut db, 20..60);
    db.enforce_retention(db.max_timestamp().unwrap_or(0)).unwrap();
    for _ in 0..3 {
        write(&mut db, 20..60);
        db.flush().unwrap();
    }
    write(&mut db, 5..40);
    db.sync().unwrap();
    (db, opts)
}

/// Every answer the walk's three consumers must agree on, as bits.
fn walk_answers(db: &Tsdb) -> Vec<BitsView> {
    let mut out = Vec::new();
    for (host, metric) in [(4, 3), (1, 3), (4, 0), (2, 1), (3, 2)] {
        let sel = selector_from(host, metric);
        for (t0, t1) in [(0, u64::MAX), (100, 350), (250, 250)] {
            let fast = bits_view(db.query(&sel, t0, t1).unwrap());
            assert_eq!(
                fast,
                bits_view(db.query_naive(&sel, t0, t1).unwrap()),
                "{sel:?} [{t0}, {t1}]"
            );
            out.push(fast);
            for (bin, agg) in [(7, Agg::Sum), (60, Agg::Last)] {
                let fast = bits_view(db.downsample(&sel, t0, t1, bin, agg).unwrap());
                let naive = bits_view(db.downsample_naive(&sel, t0, t1, bin, agg).unwrap());
                // Below the watermark `downsample` also serves rollups,
                // which the raw oracle does not see.
                if t0 >= db.stats().raw_watermark {
                    assert_eq!(fast, naive, "{sel:?} [{t0}, {t1}] bin {bin} {agg:?}");
                }
                out.push(fast);
            }
        }
    }
    out
}

/// The compaction walk against the oracles: answers are the oracles'
/// before and after and do not move, the memtable tail stays where it
/// was (memtable + WAL, in no segment), and a reopen without a flush
/// recovers it over the compacted segment.
#[test]
fn compaction_walks_the_segments_and_leaves_the_memtable_tail_alone() {
    cases("compaction_walks_the_segments_and_leaves_the_memtable_tail_alone", 128, |rng| {
        let dir = tmpdir("walk");
        let (mut db, opts) = straddled_store(rng, &dir);
        let (before, stats) = (walk_answers(&db), db.stats());
        assert!(stats.segments >= 3 && stats.mem_samples > 0, "{stats:?}");

        db.compact().unwrap();
        let after = db.stats();
        assert!(after.segments <= 1, "{after:?}");
        assert_eq!(
            (after.mem_samples, after.mem_series, after.wal_bytes),
            (stats.mem_samples, stats.mem_series, stats.wal_bytes)
        );
        assert_eq!(walk_answers(&db), before, "across compact");

        drop(db); // no flush: the tail is the WAL's alone
        let db = Tsdb::open_with(&dir, opts).unwrap();
        assert_eq!(db.stats().mem_samples, stats.mem_samples);
        assert_eq!(walk_answers(&db), before, "across reopen");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Format pin: the compacted segment of one fixed store (length + CRC32
/// of the file). Version 3; the version-2 file of this store — which
/// `compact` wrote alike whether it streamed the walk or gathered the
/// store into a memtable first — was `(741, 0x5FF9_90E3)`, and the
/// version-3 one with string tables and chunk prefixes in its series
/// blocks `(753, 0xD261_FCD0)`.
#[test]
fn compacted_bytes_are_pinned() {
    let dir = tmpdir("walk-pin");
    let (mut db, _) = straddled_store(&mut SplitMix64::new(0x5EED_0021), &dir);
    let (watermark, tail) = (db.stats().raw_watermark, db.stats().mem_samples);
    assert_eq!((watermark, tail), (388, 29), "the pin covers a clamped walk beside a live tail");
    db.compact().unwrap();
    let bytes = std::fs::read(dir.join("seg-000005.tsdb")).unwrap();
    assert_eq!((bytes.len(), supremm_tsdb::crc::crc32(&bytes)), (699, 0xA95C_6817));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Readers share one `Tsdb` behind an `RwLock`, as `xdmod::serve` has
/// them, and every segment's one open file with it: eight threads,
/// released together, make 10⁴ point / range / panel reads between them
/// and each answer is the oracle's, bit for bit — a read that raced
/// another for a file position would fail its chunk's CRC or return a
/// neighbour's samples.
#[test]
fn concurrent_readers_get_the_oracles_answers() {
    use std::sync::{Barrier, RwLock};
    const THREADS: usize = 8;
    const READS: usize = 10_000;
    let dir = tmpdir("readers");
    // Three day segments of four 16-chunk blocks each, and a tail in
    // the memtable.
    let opts = DbOptions { block_chunks: 16, ..Default::default() };
    let mut db = Tsdb::open_with(&dir, opts).unwrap();
    for day in 0..4u64 {
        for host in 0..4u64 {
            for metric in 0..16u64 {
                let samples: Vec<(u64, f64)> = (0..if day < 3 { 144 } else { 20 })
                    .map(|i| (day * 86_400 + i * 600, (host * 16 + metric + day * i) as f64))
                    .collect();
                db.append_batch(&format!("h{host}"), &format!("m{metric:02}"), &samples).unwrap();
            }
        }
        if day < 3 {
            db.flush().unwrap();
        }
    }
    assert_eq!((db.stats().segments, db.stats().mem_series), (3, 64));
    let db = RwLock::new(db);

    cases("concurrent_readers_get_the_oracles_answers", 2, |rng| {
        let queries: Vec<(Selector, u64, u64)> = rng.vec(250..251, |r| {
            let host = format!("h{}", r.range(0..4));
            let metric = format!("m{:02}", r.range(0..16));
            let t0 = r.range(0..3 * 86_400 + 12_000);
            let one = Selector { host: Some(host.clone()), metric: Some(metric) };
            match r.range(0..3) {
                0 => (one, t0, t0 + 600),
                1 => (one, t0, t0 + r.range(0..259_200)),
                _ => (Selector::host(host), t0, t0 + r.range(0..86_400)),
            }
        });
        let want: Vec<BitsView> = {
            let db = db.read().unwrap();
            let naive = |(sel, t0, t1): &(Selector, u64, u64)| db.query_naive(sel, *t0, *t1);
            queries.iter().map(|q| bits_view(naive(q).unwrap())).collect()
        };
        assert!(want.iter().filter(|w| !w.is_empty()).count() > 200, "most reads find samples");
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (db, queries, want, start) = (&db, &queries, &want, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..READS / THREADS {
                        // Coprime strides: the threads meet on the same
                        // files in ever-changing company.
                        let q = (t * 31 + i * (2 * t + 1)) % queries.len();
                        let (sel, t0, t1) = &queries[q];
                        let got = db.read().unwrap().query(sel, *t0, *t1);
                        let got = got.unwrap_or_else(|e| panic!("thread {t} read {i}: {e}"));
                        assert_eq!(bits_view(got), want[q], "thread {t} read {i}: {sel:?} {t0}");
                    }
                });
            }
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention differential #1: whatever raw survives the pass must
/// answer queries bit-identically to the pre-retention store on the
/// surviving window — through the fast path, the naive path, and a
/// reopen from disk.
#[test]
fn retention_never_loses_raw_newer_than_the_ttl() {
    cases("retention_never_loses_raw_newer_than_the_ttl", 256, |rng| {
        let ops = store_ops(rng);
        let (raw_ttl, b1, m2) = (rng.range(1..300), rng.range(1..6), rng.range(2..5));
        let queries = arb_windows(rng, 1..6);
        let dir = tmpdir("retention-raw");
        // Non-last levels get a TTL far beyond the data range so only
        // the raw cut moves; tier expiry has its own integration tests.
        let retention = RetentionPolicy {
            raw_ttl: Some(raw_ttl),
            levels: vec![
                RollupLevel { bin_secs: b1, ttl: Some(1_000_000) },
                RollupLevel { bin_secs: b1 * m2, ttl: None },
            ],
        };
        let small = small_opts();
        let opts = DbOptions { retention, ..small };
        let mut db = build_store_with(&dir, opts.clone(), &ops);
        let now = db.max_timestamp().unwrap_or(0);
        let coarse = b1 * m2;
        let target = now.saturating_sub(raw_ttl) / coarse * coarse;
        // Pre-retention oracle on each query's surviving window.
        let pre: Vec<_> = queries
            .iter()
            .map(|(host, metric, t0, len)| {
                let sel = selector_from(*host, *metric);
                let (t0, t1) = (*t0.max(&target), t0.saturating_add(*len));
                bits_view(db.query_naive(&sel, t0, t1).unwrap())
            })
            .collect();

        let report = db.enforce_retention(now).unwrap();
        assert_eq!(report.raw_watermark, target);
        drop(db);
        let db = Tsdb::open_with(&dir, opts).unwrap();
        assert_eq!(db.stats().raw_watermark, target);
        for ((host, metric, t0, len), want) in queries.iter().zip(&pre) {
            let sel = selector_from(*host, *metric);
            let (t0, t1) = (*t0.max(&target), t0.saturating_add(*len));
            let fast = bits_view(db.query(&sel, t0, t1).unwrap());
            let naive = bits_view(db.query_naive(&sel, t0, t1).unwrap());
            assert_eq!(&fast, want, "fast, selector {:?} [{}, {}]", sel, t0, t1);
            assert_eq!(&naive, want, "naive, selector {:?} [{}, {}]", sel, t0, t1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Retention differential #2: after the pass, tier-fold downsample
/// over the *whole* range — rolled history plus surviving raw — is
/// bit-identical to the pre-retention naive oracle. At the finest
/// tier's own bin width that holds for every aggregate (rollup sums
/// are the exact per-bin sequential sums); at coarser multiples it
/// holds for the order-insensitive aggregates.
#[test]
fn tier_fold_downsample_matches_the_pre_retention_oracle() {
    cases("tier_fold_downsample_matches_the_pre_retention_oracle", 256, |rng| {
        let ops = store_ops(rng);
        let (raw_ttl, b1, m2) = (rng.range(1..300), rng.range(1..6), rng.range(2..5));
        let k = rng.range(1..4);
        let dir = tmpdir("retention-fold");
        let retention = RetentionPolicy {
            raw_ttl: Some(raw_ttl),
            levels: vec![
                RollupLevel { bin_secs: b1, ttl: Some(1_000_000) },
                RollupLevel { bin_secs: b1 * m2, ttl: None },
            ],
        };
        let small = small_opts();
        let mut db = build_store_with(&dir, DbOptions { retention, ..small }, &ops);
        let all = Selector::all();
        const ALL_AGGS: [Agg; 6] = [Agg::Mean, Agg::Sum, Agg::Min, Agg::Max, Agg::Last, Agg::Count];
        const FOLD_SAFE: [Agg; 4] = [Agg::Min, Agg::Max, Agg::Last, Agg::Count];
        let pre_fine: Vec<_> = ALL_AGGS
            .iter()
            .map(|&agg| bits_view(db.downsample_naive(&all, 0, u64::MAX, b1, agg).unwrap()))
            .collect();
        let coarse_bin = b1 * k;
        let pre_coarse: Vec<_> = FOLD_SAFE
            .iter()
            .map(|&agg| bits_view(db.downsample_naive(&all, 0, u64::MAX, coarse_bin, agg).unwrap()))
            .collect();

        db.enforce_retention(db.max_timestamp().unwrap_or(0)).unwrap();
        for (&agg, want) in ALL_AGGS.iter().zip(&pre_fine) {
            let got = bits_view(db.downsample(&all, 0, u64::MAX, b1, agg).unwrap());
            assert_eq!(&got, want, "fine bin {} agg {:?}", b1, agg);
        }
        for (&agg, want) in FOLD_SAFE.iter().zip(&pre_coarse) {
            let got = bits_view(db.downsample(&all, 0, u64::MAX, coarse_bin, agg).unwrap());
            assert_eq!(&got, want, "coarse bin {} agg {:?}", coarse_bin, agg);
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}
