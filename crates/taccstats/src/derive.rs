//! Deriving the paper's measured metrics from adjacent raw records.
//!
//! This is the first analysis step of the tool chain: turn a pair of
//! consecutive samples of one node into the per-interval values of the
//! [`ExtendedMetric`] set — CPU state fractions from jiffy deltas, byte
//! rates from I/O and fabric counters, memory gauges, and FLOP/s from the
//! programmed performance counters (validated against user reprogramming:
//! if the select code read back is not the one TACC_Stats programmed, the
//! FLOPS value for the interval is marked invalid rather than misread).

use supremm_metrics::schema::{CounterKind, DeviceClass};
use supremm_metrics::ExtendedMetric;
use supremm_procsim::PerfEvent;

use crate::delta::counter_delta;
use crate::format::{stream_lenient, Record, RecordRef, SampleRef};

/// Per-interval derived metrics for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalMetrics {
    /// Interval length, seconds.
    pub dt_secs: f64,
    /// Values indexed by [`ExtendedMetric::index`]. Fractions for CPU
    /// states, bytes/s for rates, bytes for memory gauges, FLOP/s for
    /// `CpuFlops`.
    values: [f64; ExtendedMetric::ALL.len()],
    /// False when the FLOPS counter was clobbered by a user reprogram
    /// during the interval.
    pub flops_valid: bool,
}

impl IntervalMetrics {
    pub fn get(&self, m: ExtendedMetric) -> f64 {
        self.values[m.index()]
    }

    fn set(&mut self, m: ExtendedMetric, v: f64) {
        self.values[m.index()] = v;
    }
}

/// Sum one event-counter column's delta over all matching device instances.
fn sum_delta(prev: &RecordRef<'_>, cur: &RecordRef<'_>, class: DeviceClass, col: usize) -> f64 {
    let kind = class.schema().entries[col].kind;
    debug_assert!(kind.is_event());
    let mut total = 0u64;
    for (device, values) in cur.class_rows(class) {
        if let Some(pvals) = prev.row(class, device) {
            total += counter_delta(pvals[col], values[col], kind);
        }
    }
    total as f64
}

/// Same, but restricted to one device instance by name.
fn instance_delta(
    prev: &RecordRef<'_>,
    cur: &RecordRef<'_>,
    class: DeviceClass,
    device: &str,
    col: usize,
) -> f64 {
    let kind = class.schema().entries[col].kind;
    let (Some(pvals), Some(cvals)) = (prev.row(class, device), cur.row(class, device)) else {
        return 0.0;
    };
    counter_delta(pvals[col], cvals[col], kind) as f64
}

/// Sum a gauge column over instances of the current record.
fn sum_gauge(cur: &RecordRef<'_>, class: DeviceClass, col: usize) -> f64 {
    debug_assert!(matches!(class.schema().entries[col].kind, CounterKind::Gauge));
    cur.class_rows(class).map(|(_, values)| values[col] as f64).sum()
}

/// Parse a perfctr instance name `"<core>:<c0>,<c1>,<c2>,<c3>"` into the
/// core index and the four select codes.
fn parse_perfctr_device(device: &str) -> Option<(u32, [u16; 4])> {
    let (core, codes) = device.split_once(':')?;
    let core = core.parse().ok()?;
    let mut out = [0u16; 4];
    let mut it = codes.split(',');
    for slot in &mut out {
        *slot = u16::from_str_radix(it.next()?, 16).ok()?;
    }
    if it.next().is_some() {
        return None;
    }
    Some((core, out))
}

/// FLOPS over the interval, `None` if any core's FLOPS slot was
/// reprogrammed (select code mismatch) between the two reads.
fn flops_delta(prev: &RecordRef<'_>, cur: &RecordRef<'_>) -> Option<f64> {
    let flops_code = PerfEvent::Flops.select_code();
    let kind = DeviceClass::PerfCtr.schema().entries[0].kind;
    let mut total = 0u64;
    let mut counted = false;
    for (device, values) in cur.class_rows(DeviceClass::PerfCtr) {
        let (core, cur_codes) = parse_perfctr_device(device)?;
        // Pair by core index: the instance *name* changes when codes do.
        let (pdev, pvals) = prev
            .class_rows(DeviceClass::PerfCtr)
            .find(|(d, _)| parse_perfctr_device(d).is_some_and(|(pc, _)| pc == core))?;
        let (_, prev_codes) = parse_perfctr_device(pdev)?;
        for slot in 0..4 {
            if cur_codes[slot] == flops_code {
                if prev_codes[slot] != flops_code {
                    // Clobbered mid-interval: invalid.
                    return None;
                }
                total += counter_delta(pvals[slot], values[slot], kind);
                counted = true;
            }
        }
        if cur_codes.iter().all(|&code| code != flops_code) {
            // FLOPS slot gone entirely on this core.
            return None;
        }
    }
    counted.then_some(total as f64)
}

/// Derive interval metrics from two consecutive owned records. Thin
/// wrapper over [`interval_metrics_ref`] for callers holding batch
/// [`Record`]s; the streaming path skips the view-building step.
pub fn interval_metrics(prev: &Record, cur: &Record) -> Option<IntervalMetrics> {
    interval_metrics_ref(&RecordRef::from_record(prev), &RecordRef::from_record(cur))
}

/// Derive interval metrics from two consecutive records of one node.
///
/// Returns `None` when the pair is unusable (non-positive interval).
pub fn interval_metrics_ref(prev: &RecordRef<'_>, cur: &RecordRef<'_>) -> Option<IntervalMetrics> {
    let dt = cur.ts.since(prev.ts).seconds() as f64;
    if dt <= 0.0 {
        return None;
    }
    let mut m = IntervalMetrics {
        dt_secs: dt,
        values: [0.0; ExtendedMetric::ALL.len()],
        flops_valid: false,
    };

    // CPU fractions from jiffy deltas summed over cores.
    let user = sum_delta(prev, cur, DeviceClass::Cpu, 0);
    let nice = sum_delta(prev, cur, DeviceClass::Cpu, 1);
    let system = sum_delta(prev, cur, DeviceClass::Cpu, 2);
    let idle = sum_delta(prev, cur, DeviceClass::Cpu, 3);
    let iowait = sum_delta(prev, cur, DeviceClass::Cpu, 4);
    let total_j = user + nice + system + idle + iowait;
    if total_j > 0.0 {
        m.set(ExtendedMetric::CpuUser, (user + nice) / total_j);
        m.set(ExtendedMetric::CpuSystem, system / total_j);
        m.set(ExtendedMetric::CpuIdle, idle / total_j);
        m.set(ExtendedMetric::CpuIowait, iowait / total_j);
    }

    // Memory gauges (schema stores KiB).
    let used = sum_gauge(cur, DeviceClass::Mem, 4) * 1024.0;
    m.set(ExtendedMetric::MemUsed, used);
    m.set(ExtendedMetric::MemUsedMax, used); // max is taken at aggregation
    m.set(ExtendedMetric::MemCached, sum_gauge(cur, DeviceClass::Mem, 3) * 1024.0);

    // FLOPS from the programmed counters.
    if let Some(flops) = flops_delta(prev, cur) {
        m.set(ExtendedMetric::CpuFlops, flops / dt);
        m.flops_valid = true;
    }

    // Lustre filesystem rates by mount.
    m.set(
        ExtendedMetric::IoScratchRead,
        instance_delta(prev, cur, DeviceClass::Llite, "scratch", 0) / dt,
    );
    m.set(
        ExtendedMetric::IoScratchWrite,
        instance_delta(prev, cur, DeviceClass::Llite, "scratch", 1) / dt,
    );
    m.set(
        ExtendedMetric::IoWorkRead,
        instance_delta(prev, cur, DeviceClass::Llite, "work", 0) / dt,
    );
    m.set(
        ExtendedMetric::IoWorkWrite,
        instance_delta(prev, cur, DeviceClass::Llite, "work", 1) / dt,
    );
    m.set(
        ExtendedMetric::IoShareRead,
        instance_delta(prev, cur, DeviceClass::Llite, "share", 0) / dt,
    );
    m.set(
        ExtendedMetric::IoShareWrite,
        instance_delta(prev, cur, DeviceClass::Llite, "share", 1) / dt,
    );

    // Fabric rates.
    m.set(ExtendedMetric::NetIbTx, sum_delta(prev, cur, DeviceClass::Ib, 0) / dt);
    m.set(ExtendedMetric::NetIbRx, sum_delta(prev, cur, DeviceClass::Ib, 1) / dt);
    m.set(ExtendedMetric::NetLnetTx, sum_delta(prev, cur, DeviceClass::Lnet, 0) / dt);
    m.set(ExtendedMetric::NetLnetRx, sum_delta(prev, cur, DeviceClass::Lnet, 1) / dt);
    m.set(ExtendedMetric::NetEthTx, sum_delta(prev, cur, DeviceClass::Net, 2) / dt);

    // Load average gauge is stored ×100.
    m.set(ExtendedMetric::LoadAvg, sum_gauge(cur, DeviceClass::Ps, 2) / 100.0);

    Some(m)
}

/// Reduce one raw archive file to its per-interval [`ExtendedMetric`]
/// series: for every consecutive same-job record pair, one sample per
/// metric at the timestamp of the later record.
///
/// This is the single reduction shared by the batch store path
/// (`warehouse::tsdbio::store_archive_series`) and the live collector
/// agent (`relay::agent`) — both call it, so a store fed over the wire
/// is bit-identical to one fed from disk by construction. Metrics with
/// no usable interval are omitted; a file that fails to parse reduces
/// to an empty series set (the lenient scanner quarantines torn tails).
pub fn file_extended_series(text: &str) -> Vec<(ExtendedMetric, Vec<(u64, f64)>)> {
    let Ok(samples) = stream_lenient(text) else { return Vec::new() };
    let mut batches: Vec<Vec<(u64, f64)>> = vec![Vec::new(); ExtendedMetric::ALL.len()];
    let mut prev: Option<RecordRef<'_>> = None;
    for item in samples {
        let Ok(sample) = item else { break };
        let SampleRef::Record(rec) = sample else { continue };
        if let Some(p) = &prev {
            if p.job == rec.job {
                if let Some(m) = interval_metrics_ref(p, &rec) {
                    for (i, metric) in ExtendedMetric::ALL.iter().enumerate() {
                        batches[i].push((rec.ts.0, m.get(*metric)));
                    }
                }
            }
        }
        prev = Some(rec);
    }
    let mut out = Vec::new();
    for (i, metric) in ExtendedMetric::ALL.iter().enumerate() {
        if !batches[i].is_empty() {
            out.push((*metric, std::mem::take(&mut batches[i])));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use supremm_metrics::{JobId, Timestamp};
    use supremm_procsim::{CpuArch, KernelSource, KernelState, NodeActivity, NodeSpec};

    fn snap(kernel: &KernelState, ts: u64, job: Option<u64>) -> Record {
        let mut readings = std::collections::BTreeMap::new();
        for class in DeviceClass::ALL {
            readings.insert(class, kernel.read_class(class));
        }
        Record { ts: Timestamp(ts), job: job.map(JobId), readings }
    }

    fn driven_pair(act: NodeActivity, dt: f64) -> (Record, Record) {
        let mut kernel = KernelState::new(NodeSpec::ranger());
        kernel.program_perfctrs(CpuArch::AmdOpteron.tacc_stats_events());
        let prev = snap(&kernel, 600, Some(1));
        kernel.advance(&act, dt);
        let cur = snap(&kernel, 600 + dt as u64, Some(1));
        (prev, cur)
    }

    #[test]
    fn cpu_fractions_recovered() {
        let act = NodeActivity { user_frac: 0.7, system_frac: 0.1, ..NodeActivity::idle() };
        let (p, c) = driven_pair(act, 600.0);
        let m = interval_metrics(&p, &c).unwrap();
        assert!((m.get(ExtendedMetric::CpuUser) - 0.7).abs() < 0.01);
        assert!((m.get(ExtendedMetric::CpuIdle) - 0.2).abs() < 0.02);
    }

    #[test]
    fn flops_rate_recovered() {
        let act = NodeActivity { flops: 5.0e9 * 600.0, user_frac: 0.9, ..NodeActivity::idle() };
        let (p, c) = driven_pair(act, 600.0);
        let m = interval_metrics(&p, &c).unwrap();
        assert!(m.flops_valid);
        let rate = m.get(ExtendedMetric::CpuFlops);
        assert!((rate - 5.0e9).abs() / 5.0e9 < 0.02, "{rate}");
    }

    #[test]
    fn io_rates_split_by_mount() {
        let act = NodeActivity {
            scratch_write_bytes: 600 << 20,
            work_write_bytes: 60 << 20,
            ..NodeActivity::idle()
        };
        let (p, c) = driven_pair(act, 600.0);
        let m = interval_metrics(&p, &c).unwrap();
        let sw = m.get(ExtendedMetric::IoScratchWrite);
        let ww = m.get(ExtendedMetric::IoWorkWrite);
        assert!((sw - (600 << 20) as f64 / 600.0).abs() < 1.0, "{sw}");
        assert!((ww - (60 << 20) as f64 / 600.0).abs() < 1.0, "{ww}");
    }

    #[test]
    fn ib_rate_exact_for_multi_gib_transfers() {
        // 64-bit extended counters: multi-GiB intervals derive exactly.
        let act = NodeActivity { ib_tx_bytes: 5 << 30, ..NodeActivity::idle() };
        let (p, c) = driven_pair(act, 600.0);
        let m = interval_metrics(&p, &c).unwrap();
        let expect = (5u64 << 30) as f64 / 600.0;
        let got = m.get(ExtendedMetric::NetIbTx);
        assert!((got - expect).abs() < 1.0, "got {got}, want {expect}");
    }

    #[test]
    fn flops_rate_survives_48_bit_wrap() {
        // Run the per-core counter close to 2^48, then add more so the
        // second read is below the first — the wrap case the delta logic
        // corrects for mid-job.
        let mut kernel = KernelState::new(NodeSpec::ranger());
        kernel.program_perfctrs(CpuArch::AmdOpteron.tacc_stats_events());
        let near_wrap = ((1u64 << 48) - (1 << 40)) as f64 * 16.0;
        kernel.advance(
            &NodeActivity { flops: near_wrap, user_frac: 0.9, ..NodeActivity::idle() },
            600.0,
        );
        let prev = snap(&kernel, 600, Some(1));
        // Per-node flops this interval; per-core (÷16) it must exceed the
        // 2^40 gap left below the wrap point.
        let extra = 3.2e13;
        kernel
            .advance(&NodeActivity { flops: extra, user_frac: 0.9, ..NodeActivity::idle() }, 600.0);
        let cur = snap(&kernel, 1200, Some(1));
        let prev_v = prev.readings[&DeviceClass::PerfCtr][0].values[0];
        let cur_v = cur.readings[&DeviceClass::PerfCtr][0].values[0];
        assert!(cur_v < prev_v, "test setup must produce a visible wrap");
        let m = interval_metrics(&prev, &cur).unwrap();
        assert!(m.flops_valid);
        let got = m.get(ExtendedMetric::CpuFlops);
        let expect = extra / 600.0;
        assert!((got - expect).abs() / expect < 0.05, "got {got}, want {expect}");
    }

    #[test]
    fn user_reprogram_invalidates_flops_only() {
        let mut kernel = KernelState::new(NodeSpec::ranger());
        kernel.program_perfctrs(CpuArch::AmdOpteron.tacc_stats_events());
        let prev = snap(&kernel, 600, Some(1));
        let act = NodeActivity { flops: 1e12, user_frac: 0.9, ..NodeActivity::idle() };
        kernel.advance(&act, 300.0);
        kernel.perfctrs_mut().user_reprogram(0, PerfEvent::UserDefined(0x123));
        kernel.advance(&act, 300.0);
        let cur = snap(&kernel, 1200, Some(1));
        let m = interval_metrics(&prev, &cur).unwrap();
        assert!(!m.flops_valid);
        assert_eq!(m.get(ExtendedMetric::CpuFlops), 0.0);
        // Everything else still derives.
        assert!(m.get(ExtendedMetric::CpuUser) > 0.8);
    }

    #[test]
    fn mem_used_is_node_level_bytes() {
        let act = NodeActivity { mem_used_bytes: 12 << 30, ..NodeActivity::idle() };
        let (p, c) = driven_pair(act, 600.0);
        let m = interval_metrics(&p, &c).unwrap();
        let used = m.get(ExtendedMetric::MemUsed);
        assert!((used - (12u64 << 30) as f64).abs() < (64 << 20) as f64, "{used}");
    }

    #[test]
    fn zero_dt_is_rejected() {
        let (p, _) = driven_pair(NodeActivity::idle(), 600.0);
        assert!(interval_metrics(&p, &p.clone()).is_none());
    }

    #[test]
    fn perfctr_device_parse() {
        assert_eq!(
            parse_perfctr_device("3:003,029,042,1e0"),
            Some((3, [0x003, 0x029, 0x042, 0x1e0]))
        );
        assert_eq!(parse_perfctr_device("nope"), None);
        assert_eq!(parse_perfctr_device("1:003"), None);
    }
}
