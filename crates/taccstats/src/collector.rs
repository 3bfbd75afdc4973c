//! The per-node collection loop (§3).
//!
//! TACC_Stats executes at the *beginning* of a job (programs the
//! performance counters, writes a `%begin` mark and a sample), then
//! *periodically* during the job (reads values without reprogramming, so
//! user-initiated counter use is neither clobbered nor misread), and at the
//! *end* of the job. Raw output rotates into one file per host per day.

use supremm_metrics::schema::DeviceClass;
use supremm_metrics::{HostId, JobId, Timestamp};
use supremm_procsim::KernelSource;

use crate::archive::RawFileKey;
use crate::format::{FileWriter, JobMark, Record};

/// Per-node collector state.
#[derive(Debug)]
pub struct Collector {
    host: HostId,
    classes: Vec<DeviceClass>,
    current_job: Option<JobId>,
    writer: Option<(u64, FileWriter)>,
    finished: Vec<(RawFileKey, String)>,
    samples_taken: u64,
}

impl Collector {
    /// A collector gathering every device class.
    pub fn new(host: HostId) -> Collector {
        Collector::with_classes(host, DeviceClass::ALL.to_vec())
    }

    /// A collector gathering only the given classes (the real tool's
    /// modules are individually selectable).
    pub fn with_classes(host: HostId, classes: Vec<DeviceClass>) -> Collector {
        Collector {
            host,
            classes,
            current_job: None,
            writer: None,
            finished: Vec::new(),
            samples_taken: 0,
        }
    }

    pub fn host(&self) -> HostId {
        self.host
    }

    pub fn current_job(&self) -> Option<JobId> {
        self.current_job
    }

    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    fn writer_for(&mut self, ts: Timestamp, src: &dyn KernelSource) -> &mut FileWriter {
        let day = ts.day();
        let needs_new = match &self.writer {
            Some((d, _)) => *d != day,
            None => true,
        };
        if needs_new {
            if let Some((old_day, w)) = self.writer.take() {
                self.finished.push((RawFileKey { host: self.host, day: old_day }, w.finish()));
            }
            let spec = src.spec();
            let w = FileWriter::new(
                &self.host.hostname(),
                spec.arch.name(),
                spec.cores,
                Timestamp(day * 86_400),
                &self.classes,
            );
            self.writer = Some((day, w));
        }
        &mut self.writer.as_mut().expect("writer just ensured").1
    }

    fn read_record(&self, src: &dyn KernelSource, ts: Timestamp) -> Record {
        let mut readings = std::collections::BTreeMap::new();
        for &class in &self.classes {
            readings.insert(class, src.read_class(class));
        }
        Record { ts, job: self.current_job, readings }
    }

    /// Job start: program the performance counters for this architecture,
    /// write the `%begin` mark and an initial sample.
    pub fn begin_job(&mut self, src: &mut dyn KernelSource, job: JobId, ts: Timestamp) {
        src.program_perfctrs(src.spec().arch.tacc_stats_events());
        self.current_job = Some(job);
        self.writer_for(ts, src).write_mark(JobMark::Begin { job, at: ts });
        self.sample(src, ts);
    }

    /// Periodic sample. Reads only — never reprograms counters.
    pub fn sample(&mut self, src: &dyn KernelSource, ts: Timestamp) {
        let rec = self.read_record(src, ts);
        self.writer_for(ts, src).write_record(&rec);
        self.samples_taken += 1;
    }

    /// Job end: final sample plus the `%end` mark.
    pub fn end_job(&mut self, src: &mut dyn KernelSource, job: JobId, ts: Timestamp) {
        self.sample(src, ts);
        self.writer_for(ts, src).write_mark(JobMark::End { job, at: ts });
        self.current_job = None;
    }

    /// Take the files already rotated out (day boundaries crossed so
    /// far). The in-flight day's writer is untouched, so this can be
    /// called after every step to hand finished files to a streaming
    /// consumer while collection continues.
    pub fn take_finished(&mut self) -> Vec<(RawFileKey, String)> {
        std::mem::take(&mut self.finished)
    }

    /// Flush and return every raw file produced so far.
    pub fn into_files(mut self) -> Vec<(RawFileKey, String)> {
        if let Some((day, w)) = self.writer.take() {
            self.finished.push((RawFileKey { host: self.host, day }, w.finish()));
        }
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{parse, Sample};
    use supremm_procsim::{KernelState, NodeActivity, NodeSpec};

    fn run_one_job(secs_per_slice: u64, slices: u64) -> Vec<(RawFileKey, String)> {
        let mut kernel = KernelState::new(NodeSpec::ranger());
        let mut c = Collector::new(HostId(12));
        let mut ts = Timestamp(600);
        c.begin_job(&mut kernel, JobId(99), ts);
        let act = NodeActivity { user_frac: 0.8, flops: 1e12, ..NodeActivity::idle() };
        for _ in 0..slices {
            kernel.advance(&act, secs_per_slice as f64);
            ts = ts + supremm_metrics::Duration(secs_per_slice);
            c.sample(&kernel, ts);
        }
        c.end_job(&mut kernel, JobId(99), ts);
        c.into_files()
    }

    #[test]
    fn records_are_job_tagged_between_marks() {
        let files = run_one_job(600, 3);
        assert_eq!(files.len(), 1);
        let parsed = parse(&files[0].1).unwrap();
        for rec in parsed.records() {
            assert_eq!(rec.job, Some(JobId(99)));
        }
        let marks: Vec<_> = parsed.marks().collect();
        assert_eq!(marks.len(), 2);
    }

    #[test]
    fn begin_and_end_take_samples() {
        // begin + 3 periodic + end = 5 records.
        let files = run_one_job(600, 3);
        let parsed = parse(&files[0].1).unwrap();
        assert_eq!(parsed.records().count(), 5);
    }

    #[test]
    fn rotation_splits_files_at_midnight() {
        // 2 slices of half a day each crosses one midnight.
        let files = run_one_job(43_200, 3);
        let days: Vec<u64> = files.iter().map(|(k, _)| k.day).collect();
        assert!(days.len() >= 2, "expected rotation, got {days:?}");
        assert!(days.windows(2).all(|w| w[0] < w[1]));
        // Every file parses on its own: rotation must repeat the headers.
        for (_, content) in &files {
            let p = parse(content).unwrap();
            assert_eq!(p.hostname, "c0012");
            assert!(!p.classes.is_empty());
        }
    }

    #[test]
    fn idle_samples_have_no_job() {
        let mut kernel = KernelState::new(NodeSpec::ranger());
        let mut c = Collector::new(HostId(1));
        c.sample(&kernel, Timestamp(600));
        kernel.advance(&NodeActivity::idle(), 600.0);
        c.sample(&kernel, Timestamp(1200));
        let files = c.into_files();
        let parsed = parse(&files[0].1).unwrap();
        assert!(parsed.records().all(|r| r.job.is_none()));
    }

    #[test]
    fn job_begin_programs_flops_counter() {
        let mut kernel = KernelState::new(NodeSpec::ranger());
        let mut c = Collector::new(HostId(1));
        c.begin_job(&mut kernel, JobId(7), Timestamp(600));
        let act = NodeActivity { flops: 1e12, user_frac: 0.9, ..NodeActivity::idle() };
        kernel.advance(&act, 600.0);
        c.sample(&kernel, Timestamp(1200));
        c.end_job(&mut kernel, JobId(7), Timestamp(1800));
        let files = c.into_files();
        let parsed = parse(&files[0].1).unwrap();
        let recs: Vec<_> = parsed.records().collect();
        // The perfctr instance names carry the FLOPS select code (0x003).
        let perf = &recs[1].readings[&DeviceClass::PerfCtr];
        assert!(perf[0].device.contains(":003,"), "{}", perf[0].device);
        // And the counter actually advanced.
        assert!(perf[0].values[0] > 0);
    }

    #[test]
    fn subset_collector_only_writes_selected_classes() {
        let kernel = KernelState::new(NodeSpec::ranger());
        let mut c = Collector::with_classes(HostId(1), vec![DeviceClass::Cpu]);
        c.sample(&kernel, Timestamp(600));
        let files = c.into_files();
        let parsed = parse(&files[0].1).unwrap();
        assert_eq!(parsed.classes, vec![DeviceClass::Cpu]);
        let rec = parsed.records().next().unwrap();
        assert_eq!(rec.readings.len(), 1);
    }

    #[test]
    fn marks_carry_correct_timestamps() {
        let files = run_one_job(600, 1);
        let parsed = parse(&files[0].1).unwrap();
        let mut marks = parsed.marks();
        match marks.next().unwrap() {
            JobMark::Begin { job, at } => {
                assert_eq!((*job, *at), (JobId(99), Timestamp(600)));
            }
            m => panic!("{m:?}"),
        }
        match marks.next().unwrap() {
            JobMark::End { job, at } => {
                assert_eq!((*job, *at), (JobId(99), Timestamp(1200)));
            }
            m => panic!("{m:?}"),
        }
    }

    #[test]
    fn sample_order_is_chronological_within_file() {
        let files = run_one_job(600, 5);
        let parsed = parse(&files[0].1).unwrap();
        let times: Vec<u64> = parsed
            .samples
            .iter()
            .filter_map(|s| match s {
                Sample::Record(r) => Some(r.ts.0),
                _ => None,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }
}
