//! Ablations of DESIGN.md's called-out design decisions.
//!
//! 1. *Unified self-describing format vs a per-tool format zoo* (§2/§3):
//!    parse cost of one TACC_Stats file vs the same data as N separate
//!    per-device CSV streams (the sysstat/SAR world the paper replaces).
//! 2. *Job tagging at the source vs joining after the fact*: matching
//!    samples to jobs via the in-band job-id tags vs a time-window join
//!    against the accounting log.
//! 3. *Wrap-corrected deltas vs naive subtraction*: the per-counter price
//!    of correctness on narrow registers.

use std::hint::black_box;

use supremm_bench::bench;
use supremm_metrics::schema::{CounterKind, DeviceClass};
use supremm_metrics::{Duration, HostId, JobId, Timestamp};
use supremm_procsim::{KernelSource, KernelState, NodeActivity, NodeSpec};
use supremm_taccstats::delta::counter_delta;
use supremm_taccstats::format::parse;
use supremm_taccstats::Collector;

/// One day of one node, unified format.
fn unified_day() -> String {
    let mut kernel = KernelState::new(NodeSpec::ranger());
    let mut c = Collector::new(HostId(1));
    let mut ts = Timestamp(600);
    c.begin_job(&mut kernel, JobId(7), ts);
    for _ in 0..144 {
        kernel
            .advance(&NodeActivity { user_frac: 0.8, flops: 3e12, ..NodeActivity::idle() }, 600.0);
        ts = ts + Duration(600);
        c.sample(&kernel, ts);
    }
    c.into_files().remove(0).1
}

/// The same data as a per-device CSV zoo: one headerless CSV stream per
/// device class (what gluing sysstat+iostat+perfquery+llstat would give),
/// with the schema known only out-of-band.
fn csv_zoo_day() -> Vec<(DeviceClass, String)> {
    let mut kernel = KernelState::new(NodeSpec::ranger());
    let mut streams: Vec<(DeviceClass, String)> =
        DeviceClass::ALL.iter().map(|&c| (c, String::new())).collect();
    for step in 0..144 {
        kernel
            .advance(&NodeActivity { user_frac: 0.8, flops: 3e12, ..NodeActivity::idle() }, 600.0);
        let ts = 600 * (step + 1);
        for (class, out) in &mut streams {
            for r in kernel.read_class(*class) {
                out.push_str(&ts.to_string());
                out.push(',');
                out.push_str(&r.device);
                for v in r.values {
                    out.push(',');
                    out.push_str(&v.to_string());
                }
                out.push('\n');
            }
        }
    }
    streams
}

fn parse_csv_zoo(streams: &[(DeviceClass, String)]) -> usize {
    let mut rows = 0;
    for (_, text) in streams {
        for line in text.lines() {
            let mut fields = line.split(',');
            let _ts: u64 = fields.next().unwrap().parse().unwrap();
            let _device = fields.next().unwrap();
            for f in fields {
                let _v: u64 = f.parse().unwrap();
            }
            rows += 1;
        }
    }
    rows
}

fn bench_format_ablation() {
    let unified = unified_day();
    let zoo = csv_zoo_day();
    bench("ablation_format/unified_self_describing_parse", None, || {
        black_box(parse(black_box(&unified)).unwrap())
    });
    bench("ablation_format/per_device_csv_zoo_parse", None, || {
        black_box(parse_csv_zoo(black_box(&zoo)))
    });
}

fn bench_join_ablation() {
    // Synthetic sample stream and job windows for the tagging-vs-join
    // comparison.
    let jobs: Vec<(JobId, u64, u64)> =
        (0..200).map(|i| (JobId(i), i * 3_000, i * 3_000 + 36_000)).collect();
    let samples: Vec<(u64, Option<JobId>)> = (0..100_000u64)
        .map(|i| {
            let ts = i * 600 % 640_000;
            let tag = jobs.iter().find(|(_, s, e)| ts >= *s && ts < *e).map(|&(id, _, _)| id);
            (ts, tag)
        })
        .collect();

    {
        // Tagged at the source: attribution is a field read.
        bench("ablation_job_matching/in_band_job_tags", None, || {
            let mut hits = 0usize;
            for &(_, tag) in &samples {
                if tag.is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    }
    {
        // Join after the fact: every sample searches the accounting
        // windows (sorted; binary search on start, then scan).
        let mut windows = jobs.clone();
        windows.sort_by_key(|&(_, s, _)| s);
        bench("ablation_job_matching/time_window_join", None, || {
            let mut hits = 0usize;
            for &(ts, _) in &samples {
                let idx = windows.partition_point(|&(_, s, _)| s <= ts);
                for &(_, s, e) in windows[..idx].iter().rev().take(16) {
                    if ts >= s && ts < e {
                        hits += 1;
                        break;
                    }
                }
            }
            black_box(hits)
        });
    }
}

fn bench_delta_ablation() {
    let prev: Vec<u64> = (0..10_000u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
    let cur: Vec<u64> = prev.iter().map(|&v| v.wrapping_add(12_345)).collect();
    let kind = CounterKind::Event { width: 32 };
    bench("ablation_delta/wrap_corrected", None, || {
        let mut acc = 0u64;
        for (&p, &u) in prev.iter().zip(&cur) {
            acc = acc.wrapping_add(counter_delta(p & 0xffff_ffff, u & 0xffff_ffff, kind));
        }
        black_box(acc)
    });
    bench("ablation_delta/naive_subtraction", None, || {
        let mut acc = 0u64;
        for (&p, &u) in prev.iter().zip(&cur) {
            acc = acc.wrapping_add((u & 0xffff_ffff).wrapping_sub(p & 0xffff_ffff));
        }
        black_box(acc)
    });
}

fn main() {
    bench_format_ablation();
    bench_join_ablation();
    bench_delta_ablation();
}
