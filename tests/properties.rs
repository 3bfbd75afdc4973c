//! Property-based tests over the tool chain's core invariants.

use supremm_suite::analytics::stats::{Moments, WeightedMoments};
use supremm_suite::analytics::{linear_fit, pearson, Kde};
use supremm_suite::metrics::rng::{cases, SplitMix64};
use supremm_suite::metrics::schema::{CounterKind, DeviceClass};
use supremm_suite::metrics::{JobId, ScienceField, Timestamp, UserId};
use supremm_suite::procsim::DeviceReading;
use supremm_suite::ratlog::accounting::AccountingRecord;
use supremm_suite::taccstats::delta::counter_delta;
use supremm_suite::taccstats::format::{
    parse, stream, FileWriter, JobMark, Record, Sample, SampleRef,
};

// ---------------------------------------------------------------------
// Raw-format round trip with arbitrary (schema-consistent) content.
// ---------------------------------------------------------------------

/// A device name matching `[a-z][a-z0-9_/]{0,10}`.
fn arb_device(rng: &mut SplitMix64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_/";
    rng.string(&ALPHABET[..26], 1..2) + &rng.string(ALPHABET, 0..11)
}

fn arb_reading(rng: &mut SplitMix64, class: DeviceClass) -> DeviceReading {
    let device = arb_device(rng);
    let values = (0..class.schema().len()).map(|_| rng.next_u64()).collect();
    DeviceReading { device, values }
}

/// One to five device classes, in schema order, each with one to three
/// readings; `u32` timestamps and job ids, full-range `u64` values.
fn arb_record(rng: &mut SplitMix64) -> Record {
    let mut wanted = rng.range(1..6);
    let mut readings = Vec::new();
    for (i, &class) in DeviceClass::ALL.iter().enumerate() {
        if rng.below((DeviceClass::ALL.len() - i) as u64) < wanted {
            wanted -= 1;
            readings.push((class, rng.vec(1..4, |r| arb_reading(r, class))));
        }
    }
    Record {
        ts: Timestamp(rng.next_u64() >> 32),
        job: (rng.below(2) == 1).then(|| JobId(rng.next_u64() >> 32)),
        readings: readings.into_iter().collect(),
    }
}

fn arb_mark(rng: &mut SplitMix64) -> JobMark {
    let begin = rng.below(2) == 1;
    let job = JobId(rng.next_u64() >> 32);
    let at = Timestamp(rng.next_u64() >> 32);
    if begin {
        JobMark::Begin { job, at }
    } else {
        JobMark::End { job, at }
    }
}

/// Marks interleaved with records (1 : 3); record timestamps drawn from
/// a tiny set so multi-record ticks (several records sharing one `T`
/// stamp) show up constantly.
fn arb_sample(rng: &mut SplitMix64) -> Sample {
    if rng.below(4) == 0 {
        return Sample::Mark(arb_mark(rng));
    }
    let mut r = arb_record(rng);
    r.ts = Timestamp(rng.range(0..4) * 600);
    Sample::Record(r)
}

// -------------------------------------------------------------------
// Zero-copy streaming scanner vs the format writer: every sample the
// writer emits — records, `%` marks, multi-record ticks — comes back
// in order and value-identical.
// -------------------------------------------------------------------

#[test]
fn zero_copy_stream_agrees_with_the_writer() {
    cases("zero_copy_stream_agrees_with_the_writer", 64, |rng| {
        let samples = rng.vec(1..12, arb_sample);
        let classes = DeviceClass::ALL;
        let mut w = FileWriter::new("c0042", "amd64_core", 16, Timestamp(0), &classes);
        for s in &samples {
            match s {
                Sample::Record(r) => w.write_record(r),
                Sample::Mark(m) => w.write_mark(*m),
            }
        }
        let text = w.finish();
        let mut got = Vec::new();
        for item in stream(&text).expect("writer output has a full header") {
            match item.unwrap() {
                SampleRef::Record(rec) => got.push(Sample::Record(rec.to_record())),
                SampleRef::Mark(m) => got.push(Sample::Mark(m)),
            }
        }
        assert_eq!(got, samples);
    });
}

#[test]
fn one_malformed_line_rejects_the_whole_file() {
    cases("one_malformed_line_rejects_the_whole_file", 64, |rng| {
        let records = rng.vec(1..6, arb_record);
        let garbage = rng.pick(&[
            "???",                 // unknown device class
            "T",                   // record start missing fields
            "T zebra 7",           // non-numeric timestamp
            "T 100 7 extra",       // record start with trailing junk
            "% begin 1",           // mark missing its timestamp
            "% jump 1 2",          // unknown mark kind
            "cpu",                 // device row missing instance name
            "mem c0 not_a_number", // non-numeric value
        ]);
        let frac = rng.uniform_in(0.0..1.0);
        let classes = DeviceClass::ALL;
        let mut w = FileWriter::new("c0042", "amd64_core", 16, Timestamp(0), &classes);
        for r in &records {
            w.write_record(r);
        }
        let text = w.finish();
        // Splice the garbage at an arbitrary line boundary in the body
        // (the header stays intact so `stream` construction succeeds).
        let lines: Vec<&str> = text.lines().collect();
        let header_end = lines
            .iter()
            .position(|l| !l.starts_with('$') && !l.starts_with('!'))
            .unwrap_or(lines.len());
        let pos = header_end + ((lines.len() - header_end) as f64 * frac) as usize;
        let mut corrupted = String::new();
        for (i, l) in lines.iter().enumerate() {
            if i == pos {
                corrupted.push_str(garbage);
                corrupted.push('\n');
            }
            corrupted.push_str(l);
            corrupted.push('\n');
        }
        if pos >= lines.len() {
            corrupted.push_str(garbage);
            corrupted.push('\n');
        }
        assert!(parse(&corrupted).is_err());
        let mut s = stream(&corrupted).expect("header untouched");
        assert!(s.any(|item| item.is_err()));
    });
}

#[test]
fn format_round_trips_arbitrary_records() {
    cases("format_round_trips_arbitrary_records", 64, |rng| {
        let records = rng.vec(1..8, arb_record);
        let classes = DeviceClass::ALL;
        let mut w = FileWriter::new("c0042", "amd64_core", 16, Timestamp(0), &classes);
        w.write_mark(JobMark::Begin { job: JobId(1), at: Timestamp(0) });
        for r in &records {
            w.write_record(r);
        }
        w.write_mark(JobMark::End { job: JobId(1), at: Timestamp(999_999) });
        let text = w.finish();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.records().count(), records.len());
        for (got, want) in parsed.records().zip(&records) {
            assert_eq!(got, want);
        }
        assert_eq!(parsed.marks().count(), 2);
    });
}

// -------------------------------------------------------------------
// Counter delta correction.
// -------------------------------------------------------------------

#[test]
fn delta_of_increasing_counter_is_exact() {
    cases("delta_of_increasing_counter_is_exact", 64, |rng| {
        let prev = rng.next_u64();
        let inc = rng.range(0..u64::MAX / 2);
        if prev.checked_add(inc).is_none() {
            return;
        }
        let kind = CounterKind::Event { width: 64 };
        assert_eq!(counter_delta(prev, prev + inc, kind), inc);
    });
}

#[test]
fn delta_survives_single_wrap_on_narrow_registers() {
    cases("delta_survives_single_wrap_on_narrow_registers", 64, |rng| {
        let width = rng.range(8..48) as u32;
        let prev_off = rng.range(1..1000);
        let inc = rng.range(1..1_000_000);
        let modulus = 1u64 << width;
        if inc >= modulus {
            return;
        }
        let prev = modulus - (prev_off % modulus).max(1);
        let cur = (prev + inc) % modulus;
        if cur >= prev {
            return; // no visible wrap
        }
        let kind = CounterKind::Event { width };
        assert_eq!(counter_delta(prev, cur, kind), inc);
    });
}

#[test]
fn delta_never_exceeds_modulus() {
    cases("delta_never_exceeds_modulus", 64, |rng| {
        let prev = rng.next_u64();
        let cur = rng.next_u64();
        let width = rng.range(8..48) as u32;
        let modulus = 1u64 << width;
        let kind = CounterKind::Event { width };
        let d = counter_delta(prev % modulus, cur % modulus, kind);
        assert!(d < modulus);
    });
}

// -------------------------------------------------------------------
// Accounting record round trip.
// -------------------------------------------------------------------

#[test]
fn accounting_round_trips() {
    cases("accounting_round_trips", 64, |rng| {
        let owner = (rng.next_u64() >> 32) as u32;
        let job = rng.next_u64();
        let sci = rng.range(0..ScienceField::ALL.len() as u64) as usize;
        let submit = (rng.next_u64() >> 32) as u32;
        let wall = (rng.next_u64() >> 32) as u32;
        let failed = rng.pick(&[0u32, 1, 19, 100]);
        let nodes = rng.range(1..4096) as u32;
        let rec = AccountingRecord {
            queue: "normal".into(),
            owner: UserId(owner),
            job: JobId(job),
            account: ScienceField::ALL[sci],
            submit: Timestamp(submit as u64),
            start: Timestamp(submit as u64 + 60),
            end: Timestamp(submit as u64 + 60 + wall as u64),
            failed,
            exit_status: 0,
            nodes,
            slots: nodes * 16,
            hosts: (0..nodes.min(64)).map(supremm_suite::metrics::HostId).collect(),
        };
        let parsed = AccountingRecord::parse_line(&rec.to_line()).unwrap();
        assert_eq!(parsed, rec);
    });
}

// -------------------------------------------------------------------
// Statistics invariants.
// -------------------------------------------------------------------

#[test]
fn moments_merge_is_associative_enough() {
    cases("moments_merge_is_associative_enough", 64, |rng| {
        let xs = rng.vec(3..60, |r| r.uniform_in(-1e6..1e6));
        let split = rng.range(1..58) as usize;
        let split = split.min(xs.len() - 1);
        let whole = Moments::from_slice(&xs);
        let merged = Moments::from_slice(&xs[..split]).merge(Moments::from_slice(&xs[split..]));
        assert!((whole.mean() - merged.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        assert!((whole.variance() - merged.variance()).abs() < 1e-5 * (1.0 + whole.variance()));
    });
}

#[test]
fn weighted_moments_scale_invariance() {
    cases("weighted_moments_scale_invariance", 64, |rng| {
        let xs = rng.vec(2..40, |r| r.uniform_in(0.0..1e4));
        let k = rng.uniform_in(1.0..100.0);
        // Multiplying all weights by a constant changes nothing.
        let mut a = WeightedMoments::new();
        let mut b = WeightedMoments::new();
        for (i, &x) in xs.iter().enumerate() {
            let w = 1.0 + (i % 5) as f64;
            a.push(x, w);
            b.push(x, w * k);
        }
        assert!((a.mean() - b.mean()).abs() < 1e-9 * (1.0 + a.mean().abs()));
        assert!((a.variance() - b.variance()).abs() < 1e-7 * (1.0 + a.variance()));
    });
}

#[test]
fn pearson_is_bounded_and_symmetric() {
    cases("pearson_is_bounded_and_symmetric", 64, |rng| {
        let pairs = rng.vec(4..50, |r| (r.uniform_in(-1e3..1e3), r.uniform_in(-1e3..1e3)));
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = pearson(&x, &y);
        if r.is_nan() {
            return; // constant side
        }
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        assert!((pearson(&y, &x) - r).abs() < 1e-12);
    });
}

#[test]
fn linear_fit_is_exact_on_lines() {
    cases("linear_fit_is_exact_on_lines", 64, |rng| {
        let a = rng.uniform_in(-100.0..100.0);
        let b = rng.uniform_in(-100.0..100.0);
        let n = rng.range(3..40) as usize;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| a + b * v).collect();
        let fit = linear_fit(&x, &y).unwrap();
        assert!((fit.intercept - a).abs() < 1e-6 * (1.0 + a.abs()));
        assert!((fit.slope - b).abs() < 1e-6 * (1.0 + b.abs()));
    });
}

#[test]
fn kde_density_is_nonnegative_and_normalised() {
    cases("kde_density_is_nonnegative_and_normalised", 64, |rng| {
        let data = rng.vec(5..80, |r| r.uniform_in(-50.0..50.0));
        let kde = Kde::fit(&data);
        let grid = kde.grid(256);
        let dx = grid[1].0 - grid[0].0;
        let mut integral = 0.0;
        for &(_, d) in &grid {
            assert!(d >= 0.0);
            integral += d * dx;
        }
        assert!((integral - 1.0).abs() < 0.05, "integral {}", integral);
    });
}

// ---------------------------------------------------------------------
// Scheduler invariants under random job streams.
// ---------------------------------------------------------------------

mod scheduler_props {
    use super::*;
    use supremm_suite::clustersim::scheduler::{Reservation, Scheduler};
    use supremm_suite::clustersim::JobSpec;
    use supremm_suite::metrics::{AppId, Duration, HostId};

    fn spec(id: u64, nodes: u32, minutes: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: UserId(0),
            app: AppId(0),
            science: ScienceField::Physics,
            nodes,
            submit: Timestamp(0),
            duration: Duration::from_minutes(minutes),
            requested: Duration::from_minutes(minutes),
            papi: false,
        }
    }

    /// Whatever the submission stream, the scheduler never
    /// double-books a node and never conjures nodes from thin air.
    #[test]
    fn scheduler_never_double_books() {
        cases("scheduler_never_double_books", 48, |rng| {
            let jobs = rng.vec(1..40, |r| (r.range(1..12) as u32, r.range(1..120)));
            let machine = rng.range(8..32) as u32;
            let mut s = Scheduler::new(machine);
            let mut busy: std::collections::HashMap<HostId, (JobId, Timestamp)> =
                Default::default();
            let mut running: Vec<(JobId, Vec<HostId>, Timestamp)> = Vec::new();
            let mut now = Timestamp(0);
            let mut next_id = 1u64;
            let mut queue_feed = jobs.into_iter();

            for _ in 0..200 {
                // Feed one job per tick while the stream lasts.
                if let Some((nodes, minutes)) = queue_feed.next() {
                    let nodes = nodes.min(machine);
                    s.submit(spec(next_id, nodes, minutes));
                    next_id += 1;
                }
                // Retire finished jobs.
                let mut keep = Vec::new();
                for (id, hosts, end) in running.drain(..) {
                    if end <= now {
                        for h in &hosts {
                            busy.remove(h);
                        }
                        s.release(&hosts);
                    } else {
                        keep.push((id, hosts, end));
                    }
                }
                running = keep;
                // Schedule.
                let reservations: Vec<Reservation> = running
                    .iter()
                    .map(|(_, hosts, end)| Reservation { end: *end, nodes: hosts.len() as u32 })
                    .collect();
                for (job, hosts) in s.schedule(now, &reservations) {
                    assert_eq!(hosts.len(), job.nodes as usize);
                    let end = now + job.duration;
                    for h in &hosts {
                        assert!(!busy.contains_key(h), "node {} double-booked at t={}", h, now.0);
                        busy.insert(*h, (job.id, end));
                    }
                    running.push((job.id, hosts, end));
                }
                // Conservation: busy + free == machine.
                assert_eq!(busy.len() + s.free_count(), machine as usize);
                now = now + Duration(600);
            }
        });
    }
}

#[test]
fn p2_quantile_tracks_exact_within_tolerance() {
    cases("p2_quantile_tracks_exact_within_tolerance", 32, |rng| {
        let xs = rng.vec(200..800, |r| r.uniform_in(0.0..1e4));
        let p = rng.uniform_in(0.1..0.9);
        use supremm_suite::analytics::quantile::P2Quantile;
        let mut est = P2Quantile::new(p);
        for &x in &xs {
            est.push(x);
        }
        let got = est.estimate().unwrap();
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        // Compare ranks rather than values: the estimate's rank must be
        // within ±10 percentage points of the target.
        let rank = sorted.iter().filter(|&&v| v <= got).count() as f64 / sorted.len() as f64;
        assert!((rank - p).abs() < 0.12, "rank {} for p {}", rank, p);
    });
}

#[test]
fn trend_decomposition_reconstructs_the_series() {
    cases("trend_decomposition_reconstructs_the_series", 32, |rng| {
        let base = rng.uniform_in(10.0..100.0);
        let slope = rng.uniform_in(-0.01..0.01);
        let amp = rng.uniform_in(0.0..5.0);
        use supremm_suite::analytics::trend::decompose;
        let period = 48usize;
        let n = period * 6;
        let series: Vec<f64> = (0..n)
            .map(|i| {
                let phase = (i % period) as f64 / period as f64 * std::f64::consts::TAU;
                base + slope * i as f64 + amp * phase.sin()
            })
            .collect();
        let d = decompose(&series, period).unwrap();
        // trend + seasonal must reconstruct the noiseless series closely.
        for (i, &v) in series.iter().enumerate() {
            let fitted = d.trend.predict(i as f64) + d.seasonal[i % period];
            assert!((fitted - v).abs() < 0.35 + 0.05 * amp, "i={} {} vs {}", i, fitted, v);
        }
        assert!(d.resid_sd < 0.3 + 0.05 * amp);
    });
}

/// Retention across the suite facade: random writes under a random
/// two-tier policy, one data-time pass, then a reopen. Surviving
/// raw answers bit-identically to the pre-retention oracle, and the
/// finest tier reconstructs the full downsampled history.
#[test]
fn retention_pass_preserves_surviving_raw_and_rolled_history() {
    cases("retention_pass_preserves_surviving_raw_and_rolled_history", 32, |rng| {
        let samples = rng.vec(1..200, |r| (r.range(0..2000), (r.next_u64() >> 32) as u32));
        let raw_ttl = rng.range(1..1500);
        let bin = rng.range(1..20);
        let mult = rng.range(2..5);
        use supremm_suite::warehouse::tsdb::{
            Agg, DbOptions, RetentionPolicy, RollupLevel, Selector, Tsdb,
        };
        let dir = std::env::temp_dir().join(format!(
            "suite-retention-{}-{}",
            std::process::id(),
            samples.len() as u64 * 31 + raw_ttl
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = DbOptions {
            chunk_samples: 8,
            block_chunks: 2,
            retention: RetentionPolicy {
                raw_ttl: Some(raw_ttl),
                levels: vec![RollupLevel { bin_secs: bin * mult, ttl: None }],
            },
        };
        let mut db = Tsdb::open_with(&dir, opts.clone()).unwrap();
        for (i, &(ts, v)) in samples.iter().enumerate() {
            db.append("h", "m", ts, f64::from(v)).unwrap();
            if i % 37 == 36 {
                db.flush().unwrap();
            }
        }
        db.flush().unwrap();
        let all = Selector::all();
        let now = db.max_timestamp().unwrap_or(0);
        let coarse = bin * mult;
        let target = now.saturating_sub(raw_ttl) / coarse * coarse;
        let pre_raw = db.query_naive(&all, target, u64::MAX).unwrap();
        let pre_down = db.downsample_naive(&all, 0, u64::MAX, coarse, Agg::Count).unwrap();

        let report = db.enforce_retention(now).unwrap();
        assert_eq!(report.raw_watermark, target);
        drop(db);
        let db = Tsdb::open_with(&dir, opts).unwrap();
        assert_eq!(db.query(&all, target, u64::MAX).unwrap(), pre_raw);
        assert_eq!(db.downsample(&all, 0, u64::MAX, coarse, Agg::Count).unwrap(), pre_down);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
