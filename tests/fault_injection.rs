//! The fault-injection differential suite: seeded collector faults go
//! in at the collect→archive boundary, and every layer downstream must
//! degrade gracefully — quarantine, never panic; account for every
//! byte; and stay bit-identical when the fault plan is a no-op.

use std::sync::OnceLock;

use supremm_suite::clustersim::{FaultPlan, FaultRates, InjectionLog};
use supremm_suite::metrics::rng::cases;
use supremm_suite::metrics::schema::DeviceClass;
use supremm_suite::metrics::{Duration, HostId, JobId, ScienceField, Timestamp, UserId};
use supremm_suite::prelude::*;
use supremm_suite::procsim::{KernelState, NodeActivity, NodeSpec};
use supremm_suite::ratlog::accounting::AccountingRecord;
use supremm_suite::taccstats::format::{parse, stream, stream_lenient, FileWriter, ParseError};
use supremm_suite::taccstats::{Collector, RawArchive};
use supremm_suite::warehouse::streaming::{consume_archive, ConsumeOptions};

fn cfg() -> ClusterConfig {
    ClusterConfig::ranger().scaled(8, 2)
}

/// Clean-run baseline, built once (pipeline runs are the expensive part
/// of this suite).
fn baseline() -> &'static MachineDataset {
    static DS: OnceLock<MachineDataset> = OnceLock::new();
    DS.get_or_init(|| {
        run_pipeline(cfg(), &PipelineOptions { keep_archive: true, ..Default::default() })
    })
}

// ---------------------------------------------------------------------
// Differential: a zero-rate plan must be a perfect no-op.
// ---------------------------------------------------------------------

#[test]
fn zero_rate_plan_is_bit_identical_to_disabled() {
    let clean = baseline();
    let zeroed = run_pipeline(
        cfg(),
        &PipelineOptions {
            keep_archive: true,
            fault_plan: Some(FaultPlan::with_rate(0xD1FF, 0.0)),
            ..Default::default()
        },
    );
    assert_eq!(zeroed.faults_injected, InjectionLog::default());
    assert_eq!(zeroed.table.jobs(), clean.table.jobs());
    assert_eq!(zeroed.series.bin_secs, clean.series.bin_secs);
    assert_eq!(zeroed.series.bins, clean.series.bins);
    assert_eq!(zeroed.ingest_stats, clean.ingest_stats);
    assert_eq!(zeroed.archive.len(), clean.archive.len());
    for (key, text) in clean.archive.iter() {
        assert_eq!(zeroed.archive.get(key), Some(text), "{}", key.file_name());
    }
}

/// The consume options `run_pipeline` uses for [`cfg`].
fn pipeline_consume_opts(strict: bool) -> ConsumeOptions {
    ConsumeOptions { bin_secs: Some(cfg().interval.seconds()), job_fragments: true, strict }
}

#[test]
fn faulted_pipeline_matches_consume_of_its_post_fault_archive() {
    // Faults go in on the producer thread before a file reaches the
    // pool, so the kept archive holds the post-fault text: one
    // `consume_archive` pass over it is the reference the streamed,
    // pooled ingest (and its quarantine merge) must match bit for bit.
    let ds = run_pipeline(
        cfg(),
        &PipelineOptions {
            keep_archive: true,
            fault_plan: Some(FaultPlan::with_rate(0xFEED, 0.2)),
            ..Default::default()
        },
    );
    assert!(ds.faults_injected.total_events() > 0, "{:?}", ds.faults_injected);
    assert!(ds.ingest_stats.samples_quarantined > 0, "{:?}", ds.ingest_stats);
    let acc = consume_archive(&ds.archive, pipeline_consume_opts(false));
    assert_eq!(ds.raw_total_bytes, acc.total_bytes());
    let want = acc.finish(&ds.accounting, &ds.lariat);
    assert_eq!(ds.ingest_stats, want.stats);
    assert_eq!(ds.table.jobs(), JobTable::new(want.records).jobs());
    assert_eq!(ds.series.bins, want.series.expect("binning requested").bins);
}

#[test]
fn lenient_scan_of_a_clean_archive_matches_strict_exactly() {
    let lenient = baseline();
    let strict = consume_archive(&lenient.archive, pipeline_consume_opts(true))
        .finish(&lenient.accounting, &lenient.lariat);
    assert_eq!(JobTable::new(strict.records).jobs(), lenient.table.jobs());
    assert_eq!(strict.series.expect("binning requested").bins, lenient.series.bins);
    assert_eq!(strict.stats, lenient.ingest_stats);
}

// ---------------------------------------------------------------------
// Golden faulted fixture: one fixed seed, pinned outcomes. The raw
// files come straight from the procsim kernel + collector (no simulator
// RNG anywhere), so the bytes — and therefore the fault schedule and
// every downstream number — are identical in every environment. A
// change in fault scheduling, scanner resync, or gap attribution shows
// up as a diff, not drift.
// ---------------------------------------------------------------------

const GOLDEN_HOSTS: u32 = 4;

/// Four hosts, two days of 600 s samples: job 101 on hosts 0–1 during
/// day 1's working hours, job 202 on host 2 across the day boundary,
/// host 3 idle throughout.
fn golden_archive() -> (RawArchive, Vec<AccountingRecord>) {
    let end = Timestamp(2 * 86_400);
    let step = Duration(600);
    let busy = NodeActivity { user_frac: 0.7, flops: 1e12, ..NodeActivity::idle() };
    let idle = NodeActivity::idle();
    // (job, hosts, start, end)
    const A_HOSTS: [HostId; 2] = [HostId(0), HostId(1)];
    const B_HOSTS: [HostId; 1] = [HostId(2)];
    let jobs: [(JobId, &[HostId], Timestamp, Timestamp); 2] = [
        (JobId(101), &A_HOSTS, Timestamp(600), Timestamp(30_000)),
        (JobId(202), &B_HOSTS, Timestamp(60_000), Timestamp(120_000)),
    ];

    let mut archive = RawArchive::new();
    for h in 0..GOLDEN_HOSTS {
        let host = HostId(h);
        let mut kernel = KernelState::new(NodeSpec::ranger());
        let mut c = Collector::new(host);
        let mut ts = Timestamp(600);
        while ts < end {
            let running = jobs.iter().find(|(_, hosts, start, stop)| {
                hosts.contains(&host) && *start <= ts && ts < *stop
            });
            kernel.advance(if running.is_some() { &busy } else { &idle }, 600.0);
            match jobs.iter().find(|(_, hosts, start, _)| hosts.contains(&host) && *start == ts) {
                Some((job, ..)) => c.begin_job(&mut kernel, *job, ts),
                None => match jobs
                    .iter()
                    .find(|(_, hosts, _, stop)| hosts.contains(&host) && *stop == ts)
                {
                    Some((job, ..)) => c.end_job(&mut kernel, *job, ts),
                    None => c.sample(&kernel, ts),
                },
            }
            ts = ts + step;
        }
        for (key, text) in c.into_files() {
            archive.insert(key, text);
        }
    }

    let accounting = jobs
        .iter()
        .map(|(job, hosts, start, stop)| AccountingRecord {
            queue: "normal".to_string(),
            owner: UserId(7 + job.0 as u32),
            job: *job,
            account: ScienceField::Physics,
            submit: Timestamp(0),
            start: *start,
            end: *stop,
            failed: 0,
            exit_status: 0,
            nodes: hosts.len() as u32,
            slots: hosts.len() as u32 * 16,
            hosts: hosts.to_vec(),
        })
        .collect();
    (archive, accounting)
}

#[test]
fn golden_faulted_fixture() {
    let (clean_archive, accounting) = golden_archive();
    // Explicit rates: `uniform()` keeps whole-file faults 10× rarer, and
    // over just eight files they would usually not fire at all — the
    // golden fixture wants every fault class represented.
    let plan = FaultPlan::new(
        0xFEED,
        FaultRates {
            file_loss: 0.10,
            truncation: 0.15,
            torn_line: 0.20,
            duplicate_tick: 0.20,
            clock_skew: 0.20,
            drop_record: 0.20,
        },
    );
    let mut log = InjectionLog::default();
    let mut archive = RawArchive::new();
    for (key, text) in clean_archive.iter() {
        let (out, l) = plan.apply_logged(key.host, key.day, text.to_string());
        log.merge(&l);
        if let Some(t) = out {
            archive.insert(*key, t);
        }
    }
    let opts = ConsumeOptions { bin_secs: Some(600), job_fragments: true, strict: false };
    let out = consume_archive(&archive, opts).finish(&accounting, &[]);
    let clean = consume_archive(&clean_archive, opts).finish(&accounting, &[]);
    let stats = &out.stats;
    let table = JobTable::new(out.records);
    let series = out.series.expect("binning requested");
    let clean_series = clean.series.expect("binning requested");
    let jobs_with_gaps = table.jobs().iter().filter(|j| j.coverage_gaps > 0).count();
    // Regeneration aid: `cargo test --test fault_injection golden -- --nocapture`.
    println!(
        "GOLDEN actuals: files_lost: {}, files_truncated: {}, lines_torn: {}, \
         ticks_duplicated: {}, records_skewed: {}, records_dropped: {}, files: {}, \
         parse_errors: {}, samples_quarantined: {}, gaps: {}, jobs: {}, jobs_with_gaps: {}",
        log.files_lost,
        log.files_truncated,
        log.lines_torn,
        log.ticks_duplicated,
        log.records_skewed,
        log.records_dropped,
        stats.files,
        stats.parse_errors,
        stats.samples_quarantined,
        stats.gaps,
        table.len(),
        jobs_with_gaps,
    );

    // The undamaged fixture is wholly clean — the reference point.
    assert!(clean.stats.conservation_holds(), "{:?}", clean.stats);
    assert_eq!(clean.stats.samples_quarantined, 0);
    assert_eq!(clean.stats.gaps, 0);
    assert_eq!(clean.stats.files, 2 * GOLDEN_HOSTS as usize);
    assert_eq!(clean.records.len(), 2, "both jobs ingest cleanly");

    // The plan fired, and ground truth matches the pinned schedule.
    assert_eq!(
        (log.files_lost, log.files_truncated, log.lines_torn),
        (GOLDEN.files_lost, GOLDEN.files_truncated, GOLDEN.lines_torn)
    );
    assert_eq!(
        (log.ticks_duplicated, log.records_skewed, log.records_dropped),
        (GOLDEN.ticks_duplicated, GOLDEN.records_skewed, GOLDEN.records_dropped)
    );

    // Quarantine accounting is exact and conserved.
    assert!(stats.conservation_holds(), "{stats:?}");
    assert_eq!(stats.files, GOLDEN.files);
    assert_eq!(stats.parse_errors, GOLDEN.parse_errors);
    assert_eq!(stats.samples_quarantined, GOLDEN.samples_quarantined);
    assert_eq!(stats.gaps, GOLDEN.gaps);
    assert_eq!(table.len(), GOLDEN.jobs);

    // Coverage reflects the damage: strictly below the clean fixture's.
    let faulted_cov = series.coverage(GOLDEN_HOSTS);
    let clean_cov = clean_series.coverage(GOLDEN_HOSTS);
    assert!(
        faulted_cov < clean_cov,
        "faulted coverage {faulted_cov} should be below clean {clean_cov}"
    );
    let report = reports::coverage_report("golden", &table, &series, stats, GOLDEN_HOSTS);
    assert!(!report.is_complete());
    assert_eq!(report.jobs_with_gaps, GOLDEN.jobs_with_gaps);
    assert_eq!(jobs_with_gaps, GOLDEN.jobs_with_gaps);
}

/// Expected outcomes for the seed-0xFEED plan over the
/// [`golden_archive`] fixture. Regenerate by running this test and
/// copying the printed actuals if the *fixture* changes; any other
/// drift is a bug.
struct GoldenNumbers {
    files_lost: u32,
    files_truncated: u32,
    lines_torn: u32,
    ticks_duplicated: u32,
    records_skewed: u32,
    records_dropped: u32,
    files: usize,
    parse_errors: usize,
    samples_quarantined: usize,
    gaps: usize,
    jobs: usize,
    jobs_with_gaps: usize,
}

const GOLDEN: GoldenNumbers = GoldenNumbers {
    files_lost: 1,
    files_truncated: 2,
    lines_torn: 198,
    ticks_duplicated: 178,
    records_skewed: 180,
    records_dropped: 207,
    files: 7,
    parse_errors: 0,
    samples_quarantined: 169,
    gaps: 172,
    jobs: 2,
    jobs_with_gaps: 2,
};

// ---------------------------------------------------------------------
// Strict mode: `ConsumeOptions { strict: true }` restores whole-file
// rejection, with the seed scanner's error precedence unchanged.
// ---------------------------------------------------------------------

fn corrupted_pair() -> RawArchive {
    let clean = baseline();
    let mut it = clean.archive.iter();
    let (k1, t1) = it.next().expect("baseline has files");
    let (k2, t2) = it.next().expect("baseline has 2+ files");
    // Tear a row somewhere past the header in the second file.
    let pos = t2.len() / 2;
    let cut = (pos..t2.len()).find(|&i| t2.is_char_boundary(i)).unwrap();
    let mut bad = t2[..cut].to_string();
    bad.push_str("\u{0}garbage tail, no newline structure");
    bad.push('\n');
    bad.push_str(&t2[cut..]);
    let mut archive = RawArchive::new();
    archive.insert(*k1, t1.to_string());
    archive.insert(*k2, bad);
    archive
}

#[test]
fn strict_mode_rejects_damaged_files_whole() {
    let archive = corrupted_pair();
    let strict =
        consume_archive(&archive, ConsumeOptions { strict: true, ..ConsumeOptions::default() })
            .finish(&[], &[]);
    assert_eq!(strict.stats.files, 2);
    assert_eq!(strict.stats.parse_errors, 1, "exactly the damaged file");

    let lenient = consume_archive(&archive, ConsumeOptions::default()).finish(&[], &[]);
    assert_eq!(lenient.stats.parse_errors, 0, "lenient keeps the file");
    assert!(lenient.stats.samples_quarantined >= 1);
    assert!(lenient.stats.conservation_holds());
    assert!(
        lenient.stats.records > strict.stats.records,
        "lenient recovers records from the damaged file"
    );
}

#[test]
fn strict_error_precedence_is_unchanged() {
    // A row with a malformed value *before* any timestamp: the seed
    // parser reported the value error, not RecordBeforeTimestamp. Both
    // the batch shim and the strict scanner must keep doing so.
    let mut text =
        FileWriter::new("h0", "amd64_core", 16, Timestamp(100), &[DeviceClass::Cpu]).finish();
    text.push_str("cpu 0 1 2 x 4 5 6 7\n");
    let from_parse = parse(&text).unwrap_err();
    let from_stream = stream(&text)
        .expect("header is fine")
        .find_map(Result::err)
        .expect("strict stream reports the row error");
    assert_eq!(from_parse, from_stream);
    assert!(
        matches!(from_parse, ParseError::BadLine { .. }),
        "value errors outrank RecordBeforeTimestamp, got {from_parse:?}"
    );

    // With a well-formed row it *is* the structural error.
    let text2 = text.replace(" x ", " 3 ");
    assert!(matches!(parse(&text2).unwrap_err(), ParseError::RecordBeforeTimestamp { .. }));
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

/// One representative raw file from the clean baseline.
fn sample_file() -> &'static str {
    let (_, text) = baseline().archive.iter().next().expect("baseline has files");
    text
}

// Arbitrary byte corruption never panics the lenient scanner, and
// its byte/record books always balance.
#[test]
fn lenient_scanner_survives_arbitrary_corruption() {
    cases("lenient_scanner_survives_arbitrary_corruption", 24, |rng| {
        let edits = rng.vec(1..24, |r| (r.next_u64(), r.next_u64() as u8));
        let mut bytes = sample_file().as_bytes().to_vec();
        for (idx, byte) in &edits {
            let i = (idx % bytes.len() as u64) as usize;
            bytes[i] = *byte;
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(mut s) = stream_lenient(&text) {
            let mut emitted = 0u64;
            for item in s.by_ref() {
                assert!(item.is_ok(), "lenient streams never yield Err");
                if matches!(item, Ok(supremm_suite::taccstats::SampleRef::Record(_))) {
                    emitted += 1;
                }
            }
            let q = s.quarantine();
            assert_eq!(s.clean_bytes() + q.bytes, s.total_bytes());
            assert_eq!(s.total_bytes(), text.len() as u64);
            assert_eq!(s.records_started(), s.records_emitted() + q.records);
            assert_eq!(s.records_emitted(), emitted);
        }
        // Err(..) here means header damage — whole-file rejection is the
        // correct lenient behavior for an unknowable schema.
    });
}

// The full consumer conserves records under any seeded fault plan.
#[test]
fn ingest_stats_conservation_under_random_fault_plans() {
    cases("ingest_stats_conservation_under_random_fault_plans", 24, |rng| {
        let seed = rng.next_u64();
        let rate = rng.uniform_in(0.0..0.6);
        let plan = FaultPlan::new(seed, FaultRates::uniform(rate));
        let mut archive = RawArchive::new();
        for (key, text) in baseline().archive.iter() {
            if let Some(t) = plan.apply(key.host, key.day, text.to_string()) {
                archive.insert(*key, t);
            }
        }
        let out = consume_archive(&archive, ConsumeOptions::default()).finish(&[], &[]);
        assert!(out.stats.conservation_holds(), "{:?}", out.stats);
        assert_eq!(out.stats.files, archive.len());
        // Bytes are conserved too: quarantined never exceeds the input.
        assert!(out.stats.bytes_quarantined <= archive.total_bytes());
    });
}

// End-to-end: the pipeline with any modest fault plan still
// produces a coherent dataset (no panics anywhere downstream).
#[test]
fn pipeline_never_panics_under_fault_plans() {
    cases("pipeline_never_panics_under_fault_plans", 24, |rng| {
        let seed = rng.next_u64();
        let ds = run_pipeline(
            ClusterConfig::ranger().scaled(4, 1),
            &PipelineOptions {
                fault_plan: Some(FaultPlan::with_rate(seed, 0.25)),
                ..Default::default()
            },
        );
        assert!(ds.ingest_stats.conservation_holds(), "{:?}", ds.ingest_stats);
        let cov = ds.series.coverage(4);
        assert!((0.0..=1.0).contains(&cov));
        // With a 25% fault plan a job can legitimately end up with zero
        // samples: every archive file covering its nodes may have been
        // dropped or truncated away. Only insist on samples when the
        // plan left the data intact.
        let data_lost = ds.faults_injected.total_events() > 0;
        for job in ds.table.jobs() {
            assert!(
                job.samples > 0 || data_lost,
                "job {:?} has no samples yet no faults were injected",
                job.job
            );
        }
    });
}
