//! Single-pass streaming consumption of raw files.
//!
//! One scan of each raw file (via the zero-copy [`stream`] parser)
//! feeds *both* warehouse products at once: the per-job fragment map
//! behind [`crate::ingest::ingest`] and the system-series bins behind
//! [`crate::timeseries::SystemSeries`]. Per-file results are
//! [`FilePartial`]s keyed by [`RawFileKey`]; partials merge
//! associatively (each file key appears exactly once), so accumulation
//! can run under a parallel reduce or across ingest worker threads, and
//! the final cross-file merge happens sequentially in key order —
//! byte-identical output regardless of arrival order or thread count.

use std::collections::BTreeMap;

use supremm_metrics::{par, JobId};
use supremm_ratlog::accounting::AccountingRecord;
use supremm_ratlog::lariat::LariatRecord;
use supremm_taccstats::derive::interval_metrics_ref;
use supremm_taccstats::format::{stream, stream_lenient, RecordRef, SampleRef};
use supremm_taccstats::{RawArchive, RawFileKey};

use crate::ingest::{assemble_jobs, IngestStats, JobFragment};
use crate::record::JobRecord;
use crate::timeseries::{SystemBin, SystemSeries};

/// What one pass over the raw data should produce.
#[derive(Debug, Clone, Copy)]
pub struct ConsumeOptions {
    /// Bin width for system-series accumulation; `None` skips binning.
    pub bin_secs: Option<u64>,
    /// Accumulate per-job fragments (the job-ingest side).
    pub job_fragments: bool,
    /// Whole-file rejection on the first malformed line (the PR 1
    /// behaviour). The default is lenient: corrupt regions are
    /// quarantined record-by-record and the rest of the file survives,
    /// which is what a production facility needs when collectors crash
    /// mid-write.
    pub strict: bool,
}

impl Default for ConsumeOptions {
    fn default() -> ConsumeOptions {
        ConsumeOptions { bin_secs: None, job_fragments: true, strict: false }
    }
}

/// Everything one raw file contributes, before cross-file merging.
#[derive(Debug, Clone, Default)]
pub struct FilePartial {
    pub bytes: u64,
    /// False when the file was rejected outright: a missing/corrupt
    /// header (no schema → nothing trustable), or any malformed line
    /// under `strict`. A rejected file contributes nothing but its byte
    /// count, all of it quarantined.
    pub parsed: bool,
    pub records: usize,
    pub intervals: usize,
    /// Records whose `T` line parsed, whether or not they survived.
    /// Conservation: `records_seen == records + records_quarantined`.
    pub records_seen: usize,
    /// Records torn by corruption and discarded.
    pub records_quarantined: usize,
    /// Bytes attributed to corrupt lines/regions. Conservation:
    /// `bytes == bytes_clean + bytes_quarantined`.
    pub bytes_quarantined: u64,
    pub bytes_clean: u64,
    /// Contiguous corrupt regions — the per-file coverage-gap count.
    pub gaps: usize,
    pub(crate) frags: BTreeMap<JobId, JobFragment>,
    pub(crate) bins: BTreeMap<u64, SystemBin>,
}

impl FilePartial {
    /// One fully rejected file: every byte quarantined, one gap.
    fn rejected(bytes: u64) -> FilePartial {
        FilePartial {
            bytes,
            bytes_quarantined: bytes,
            gaps: if bytes > 0 { 1 } else { 0 },
            ..FilePartial::default()
        }
    }
}

/// Consume one raw file in a single streaming pass.
///
/// Matches the batch semantics exactly: job intervals require the same
/// job tag on both endpoints; series intervals pair any equal tags
/// (including idle); a host is counted active/busy once per bin even
/// when two records share a tick (job end + next begin).
///
/// Under `strict`, a parse error anywhere voids the whole file (PR 1
/// semantics). Otherwise corrupt regions are quarantined by the lenient
/// scanner and accounted here; records on either side of a gap still
/// pair into an interval — the counters are cumulative, so the delta
/// across the gap is sound, just averaged over a longer `dt`. Each gap
/// is charged to the job running around it (the surrounding records'
/// tag) so job summaries can report degraded coverage.
pub fn consume_file(text: &str, opts: ConsumeOptions) -> FilePartial {
    let bytes = text.len() as u64;
    let scan = if opts.strict { stream(text) } else { stream_lenient(text) };
    let Ok(mut samples) = scan else { return FilePartial::rejected(bytes) };

    let mut out = FilePartial { bytes, parsed: true, ..FilePartial::default() };
    let mut prev: Option<RecordRef<'_>> = None;
    let mut last_counted_bin = None;
    let mut seen_regions = 0u64;
    while let Some(item) = samples.next() {
        let Ok(sample) = item else { return FilePartial::rejected(bytes) };
        let SampleRef::Record(rec) = sample else { continue };
        out.records += 1;
        // Corrupt regions since the previous record are gaps around
        // here; charge them to the job on either side of the gap.
        let regions = samples.quarantine().regions;
        if regions > seen_regions {
            let delta = (regions - seen_regions) as u32;
            seen_regions = regions;
            let job = rec.job.or_else(|| prev.as_ref().and_then(|p| p.job));
            if opts.job_fragments {
                if let Some(job) = job {
                    out.frags.entry(job).or_default().add_gaps(delta);
                }
            }
        }
        if let Some(bin_secs) = opts.bin_secs {
            let idx = rec.ts.0 / bin_secs;
            let bin = out.bins.entry(idx).or_default();
            if last_counted_bin != Some(idx) {
                bin.active_nodes += 1;
                if rec.job.is_some() {
                    bin.busy_nodes += 1;
                }
                last_counted_bin = Some(idx);
            }
        }
        if let Some(p) = &prev {
            // Pair only within one job (or within an idle stretch):
            // across a job boundary the performance counters were
            // reprogrammed, and a cleared counter is indistinguishable
            // from a wrapped one.
            if p.job == rec.job {
                if let Some(m) = interval_metrics_ref(p, &rec) {
                    if let Some(bin_secs) = opts.bin_secs {
                        out.bins.entry(rec.ts.0 / bin_secs).or_default().absorb(&m);
                    }
                    if opts.job_fragments {
                        if let Some(job) = rec.job {
                            out.intervals += 1;
                            out.frags.entry(job).or_default().absorb(&m);
                        }
                    }
                }
            }
        }
        prev = Some(rec);
    }
    // Trailing corruption (e.g. a crash-truncated tail) is a gap too,
    // charged to whatever job the file was last sampling.
    let quar = samples.quarantine();
    if quar.regions > seen_regions {
        let delta = (quar.regions - seen_regions) as u32;
        if opts.job_fragments {
            if let Some(job) = prev.as_ref().and_then(|p| p.job) {
                out.frags.entry(job).or_default().add_gaps(delta);
            }
        }
    }
    out.records_seen = samples.records_started() as usize;
    out.records_quarantined = quar.records as usize;
    out.bytes_quarantined = quar.bytes;
    out.bytes_clean = samples.clean_bytes();
    out.gaps = quar.regions as usize;
    out
}

/// Order-insensitive accumulator of [`FilePartial`]s.
///
/// Accumulation is a map union (disjoint keys), so it commutes; the
/// order-sensitive floating-point merging is deferred to [`finish`],
/// which walks partials in key order — the same order the batch code
/// iterated the archive.
///
/// [`finish`]: StreamAccumulator::finish
#[derive(Debug)]
pub struct StreamAccumulator {
    opts: ConsumeOptions,
    partials: BTreeMap<RawFileKey, FilePartial>,
}

/// The merged products of one pass: job records + ingest accounting,
/// and the system series when binning was requested.
#[derive(Debug)]
pub struct StreamOutput {
    pub records: Vec<JobRecord>,
    pub stats: IngestStats,
    pub series: Option<SystemSeries>,
}

impl StreamAccumulator {
    pub fn new(opts: ConsumeOptions) -> StreamAccumulator {
        StreamAccumulator { opts, partials: BTreeMap::new() }
    }

    /// Parse and fold in one file. Replaces any previous partial for
    /// the key (collector-restart semantics, as `RawArchive::insert`).
    pub fn consume(&mut self, key: RawFileKey, text: &str) {
        self.partials.insert(key, consume_file(text, self.opts));
    }

    /// Record a file that never got a clean parse — e.g. its ingest
    /// worker panicked mid-file — as rejected outright: every byte
    /// quarantined, nothing else trusted.
    pub fn quarantine(&mut self, key: RawFileKey, bytes: u64) {
        self.partials.insert(key, FilePartial::rejected(bytes));
    }

    /// Union two accumulators (disjoint file keys). Associative and
    /// commutative, so it serves as the parallel reduce operator.
    pub fn absorb(self, other: StreamAccumulator) -> StreamAccumulator {
        let (mut into, from) =
            if self.partials.len() >= other.partials.len() { (self, other) } else { (other, self) };
        into.partials.extend(from.partials);
        into
    }

    pub fn files(&self) -> usize {
        self.partials.len()
    }

    pub fn total_bytes(&self) -> u64 {
        self.partials.values().map(|p| p.bytes).sum()
    }

    /// Mean bytes per (node, day) file — the paper's ~0.5 MB figure.
    pub fn mean_bytes_per_file(&self) -> f64 {
        if self.partials.is_empty() {
            return 0.0;
        }
        self.total_bytes() as f64 / self.partials.len() as f64
    }

    /// Merge all partials (in file-key order) and join against the
    /// accounting and Lariat logs.
    pub fn finish(self, accounting: &[AccountingRecord], lariat: &[LariatRecord]) -> StreamOutput {
        let mut stats = IngestStats::default();
        let mut jobs: BTreeMap<JobId, JobFragment> = BTreeMap::new();
        let mut merged: BTreeMap<u64, SystemBin> = BTreeMap::new();
        for partial in self.partials.into_values() {
            stats.files += 1;
            stats.records_seen += partial.records_seen;
            stats.samples_quarantined += partial.records_quarantined;
            stats.bytes_quarantined += partial.bytes_quarantined;
            stats.gaps += partial.gaps;
            if !partial.parsed {
                stats.parse_errors += 1;
                continue;
            }
            stats.records += partial.records;
            stats.intervals += partial.intervals;
            for (id, frag) in partial.frags {
                jobs.entry(id).or_default().merge(&frag);
            }
            for (idx, bin) in partial.bins {
                merged.entry(idx).or_default().merge(&bin);
            }
        }
        let records = assemble_jobs(jobs, accounting, lariat, &mut stats);
        let series = self.opts.bin_secs.map(|bin_secs| SystemSeries::from_bins(merged, bin_secs));
        StreamOutput { records, stats, series }
    }
}

/// One parallel pass over a whole archive: map each file to an
/// accumulator, reduce by [`StreamAccumulator::absorb`].
pub fn consume_archive(archive: &RawArchive, opts: ConsumeOptions) -> StreamAccumulator {
    let files: Vec<(RawFileKey, &str)> = archive.iter().map(|(k, text)| (*k, text)).collect();
    let one = |&(key, text): &(RawFileKey, &str)| {
        let mut acc = StreamAccumulator::new(opts);
        acc.consume(key, text);
        acc
    };
    par::map_reduce(&files, one, StreamAccumulator::absorb)
        .unwrap_or_else(|| StreamAccumulator::new(opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::{HostId, Timestamp};
    use supremm_procsim::{KernelState, NodeActivity, NodeSpec};
    use supremm_taccstats::Collector;

    fn archive_of(hosts: u32) -> RawArchive {
        let mut archive = RawArchive::new();
        for host in 0..hosts {
            let mut kernel = KernelState::new(NodeSpec::ranger());
            let mut c = Collector::new(HostId(host));
            let mut ts = Timestamp(600);
            c.begin_job(&mut kernel, JobId(5), ts);
            let act = NodeActivity { user_frac: 0.7, flops: 1e12, ..NodeActivity::idle() };
            for _ in 0..4 {
                kernel.advance(&act, 600.0);
                ts = ts + supremm_metrics::Duration(600);
                c.sample(&kernel, ts);
            }
            c.end_job(&mut kernel, JobId(5), ts);
            for (k, text) in c.into_files() {
                archive.insert(k, text);
            }
        }
        archive
    }

    #[test]
    fn accumulator_is_order_insensitive() {
        let archive = archive_of(2);
        let opts = ConsumeOptions { bin_secs: Some(600), job_fragments: true, strict: false };
        let forward = {
            let mut acc = StreamAccumulator::new(opts);
            for (k, text) in archive.iter() {
                acc.consume(*k, text);
            }
            acc.finish(&[], &[])
        };
        let backward = {
            let mut acc = StreamAccumulator::new(opts);
            for (k, text) in archive.iter().collect::<Vec<_>>().into_iter().rev() {
                acc.consume(*k, text);
            }
            acc.finish(&[], &[])
        };
        assert_eq!(forward.stats, backward.stats);
        let (f, b) = (forward.series.unwrap(), backward.series.unwrap());
        assert_eq!(f.bins, b.bins);
    }

    #[test]
    fn split_accumulators_absorb_to_the_same_result() {
        // Enough files that `consume_archive` really fans out.
        let archive = archive_of(80);
        let opts = ConsumeOptions { bin_secs: Some(600), job_fragments: true, strict: false };
        let whole = {
            let mut acc = StreamAccumulator::new(opts);
            for (k, text) in archive.iter() {
                acc.consume(*k, text);
            }
            acc.finish(&[], &[])
        };
        let halves = {
            let mut left = StreamAccumulator::new(opts);
            let mut right = StreamAccumulator::new(opts);
            for (i, (k, text)) in archive.iter().enumerate() {
                if i % 2 == 0 {
                    left.consume(*k, text);
                } else {
                    right.consume(*k, text);
                }
            }
            right.absorb(left).finish(&[], &[])
        };
        assert_eq!(whole.stats, halves.stats);
        let parallel = consume_archive(&archive, opts).finish(&[], &[]);
        assert_eq!(whole.stats, parallel.stats);
        assert_eq!(whole.records, parallel.records);
        let bins = whole.series.unwrap().bins;
        assert_eq!(bins, halves.series.unwrap().bins);
        assert_eq!(bins, parallel.series.unwrap().bins);
    }

    #[test]
    fn strict_mode_rejects_the_whole_file() {
        let text = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\nT 0 -\njunk line\n";
        let partial = consume_file(
            text,
            ConsumeOptions { bin_secs: Some(600), job_fragments: true, strict: true },
        );
        assert!(!partial.parsed);
        assert_eq!(partial.records, 0);
        assert!(partial.bins.is_empty());
        assert!(partial.frags.is_empty());
        assert_eq!(partial.bytes, text.len() as u64);
        assert_eq!(partial.bytes_quarantined, partial.bytes);
        assert_eq!(partial.gaps, 1);
    }

    #[test]
    fn lenient_mode_quarantines_the_corrupt_region_only() {
        let text = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\n!lnet x\n\
            T 0 7\nlnet lnet 1 2 3 4 5\n\
            T 600 7\nlnet lnet 2 3 zz 5 6\n\
            T 1200 7\nlnet lnet 3 4 5 6 7\n";
        let partial = consume_file(
            text,
            ConsumeOptions { bin_secs: Some(600), job_fragments: true, strict: false },
        );
        assert!(partial.parsed);
        assert_eq!(partial.records, 2, "records before and after the tear survive");
        assert_eq!(partial.records_quarantined, 1);
        assert_eq!(partial.records_seen, partial.records + partial.records_quarantined);
        assert_eq!(partial.bytes_clean + partial.bytes_quarantined, partial.bytes);
        assert_eq!(partial.gaps, 1);
        // The gap is charged to job 7, which also still gets the
        // interval spanning it (cumulative counters stay sound).
        let frag = &partial.frags[&JobId(7)];
        assert_eq!(frag.gaps, 1);
    }

    #[test]
    fn headerless_files_are_rejected_even_lenient() {
        let partial = consume_file(
            "total garbage\nnot a raw file\n",
            ConsumeOptions { bin_secs: None, job_fragments: true, strict: false },
        );
        assert!(!partial.parsed);
        assert_eq!(partial.bytes_quarantined, partial.bytes);
    }

    #[test]
    fn finish_surfaces_quarantine_accounting() {
        let clean = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\n!lnet x\n\
            T 0 -\nlnet lnet 1 2 3 4 5\nT 600 -\nlnet lnet 2 3 4 5 6\n";
        let torn = "$hostname h\n$arch a\n$cores 1\n$timestamp 0\n!lnet x\n\
            T 0 -\nlnet lnet 1 2 3 4 5\nT 600 -\nlnet lnet broken\n";
        let mut acc = StreamAccumulator::new(ConsumeOptions::default());
        acc.consume(RawFileKey { host: HostId(0), day: 0 }, clean);
        acc.consume(RawFileKey { host: HostId(1), day: 0 }, torn);
        let out = acc.finish(&[], &[]);
        assert_eq!(out.stats.parse_errors, 0);
        assert_eq!(out.stats.records_seen, 4);
        assert_eq!(out.stats.records, 3);
        assert_eq!(out.stats.samples_quarantined, 1);
        assert_eq!(out.stats.records_seen, out.stats.records + out.stats.samples_quarantined);
        assert_eq!(out.stats.gaps, 1);
        assert!(out.stats.bytes_quarantined > 0);
    }

    #[test]
    fn binning_can_be_disabled() {
        let archive = archive_of(2);
        let acc = consume_archive(
            &archive,
            ConsumeOptions { bin_secs: None, job_fragments: true, strict: false },
        );
        assert_eq!(acc.files(), archive.len());
        assert_eq!(acc.total_bytes(), archive.total_bytes());
        let out = acc.finish(&[], &[]);
        assert!(out.series.is_none());
        assert_eq!(out.stats.jobs_missing_accounting, 1);
    }
}
