//! The programmable hardware performance-counter model.
//!
//! §3 of the paper: *"Before beginning each job, TACC_Stats reprograms the
//! performance counters it uses. ... At the periodic invocations,
//! TACC_Stats only reads values from performance registers without
//! reprogramming them to avoid overriding measurements initiated by users
//! while ignoring user set counters."*
//!
//! This module models exactly that surface: four counter slots per core,
//! each programmable with an event; programming a slot clears it; counters
//! are 48-bit (as on real MSRs) and advance as a function of node activity.
//! A *user* (e.g. a PAPI-instrumented application) can also reprogram
//! slots mid-job — the collector must detect the event mismatch on read and
//! discard rather than misattribute those values.

use crate::activity::NodeActivity;

/// Counter slots per core.
pub const COUNTERS_PER_CORE: usize = 4;

/// Width of a counter register in bits (real perf MSRs are 48-bit).
pub const CTR_WIDTH_BITS: u32 = 48;
const CTR_MASK: u64 = (1u64 << CTR_WIDTH_BITS) - 1;

/// A hardware event a counter slot can be programmed to count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfEvent {
    /// Retired floating-point operations (SSE, on these machines).
    Flops,
    /// Memory accesses (AMD event set).
    MemAccesses,
    /// Data-cache fills (AMD event set).
    DCacheFills,
    /// SMP/NUMA traffic (both event sets).
    NumaTraffic,
    /// L1 data-cache hits (Intel event set).
    L1DHits,
    /// An event selected by the user's own tooling (PAPI etc.); the raw
    /// select code is kept so a mismatch is observable.
    UserDefined(u16),
}

impl PerfEvent {
    /// Event-select code, as it would appear in the control MSR.
    pub fn select_code(self) -> u16 {
        match self {
            PerfEvent::Flops => 0x003,
            PerfEvent::MemAccesses => 0x029,
            PerfEvent::DCacheFills => 0x042,
            PerfEvent::NumaTraffic => 0x1e0,
            PerfEvent::L1DHits => 0x0cb,
            PerfEvent::UserDefined(code) => code,
        }
    }

    /// Events per second per core implied by a slice of node activity.
    ///
    /// The exact magnitudes are synthetic but dimensionally sensible; what
    /// matters downstream is that `Flops` is exact (it feeds `cpu_flops`)
    /// and the others co-vary with the right activity components.
    fn rate(self, act: &NodeActivity, cores: u32, slice_secs: f64) -> f64 {
        let per_core = |total: f64| total / cores as f64 / slice_secs;
        match self {
            PerfEvent::Flops => per_core(act.flops),
            // Explicit memory traffic when given, else ~1.5 accesses per
            // flop, plus page-cache churn.
            PerfEvent::MemAccesses => {
                per_core(act.effective_mem_accesses())
                    + per_core(act.mem_used_bytes as f64 / 64.0 * 0.01)
            }
            // A fill per 64-byte line of "new" traffic.
            PerfEvent::DCacheFills => per_core(act.flops * 0.05),
            PerfEvent::NumaTraffic => {
                per_core(act.flops * 0.02 * (1.0 - act.numa_local_frac).max(0.001))
            }
            PerfEvent::L1DHits => per_core(act.flops * 2.0),
            PerfEvent::UserDefined(_) => per_core(act.flops * 0.1),
        }
    }
}

/// One programmable counter slot.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    event: Option<PerfEvent>,
    value: u64,
}

/// The performance counters of one node (all cores).
#[derive(Debug, Clone)]
pub struct PerfCounterSet {
    cores: u32,
    slots: Vec<[Slot; COUNTERS_PER_CORE]>,
}

impl PerfCounterSet {
    pub fn new(cores: u32) -> PerfCounterSet {
        PerfCounterSet {
            cores,
            slots: vec![[Slot { event: None, value: 0 }; COUNTERS_PER_CORE]; cores as usize],
        }
    }

    /// Program every core's slots to the given events, clearing the
    /// registers — what TACC_Stats does at job begin.
    pub fn program_all(&mut self, events: [Option<PerfEvent>; COUNTERS_PER_CORE]) {
        for core in &mut self.slots {
            for (slot, ev) in core.iter_mut().zip(events) {
                *slot = Slot { event: ev, value: 0 };
            }
        }
    }

    /// Reprogram one slot on every core — what a user's PAPI session does
    /// mid-job, clobbering the collector's programming.
    pub fn user_reprogram(&mut self, slot_idx: usize, event: PerfEvent) {
        assert!(slot_idx < COUNTERS_PER_CORE);
        for core in &mut self.slots {
            core[slot_idx] = Slot { event: Some(event), value: 0 };
        }
    }

    /// Advance all programmed counters by a slice of activity.
    pub fn advance(&mut self, act: &NodeActivity, slice_secs: f64) {
        // Rates are identical across cores in this model, so compute once.
        let mut rates = [0.0f64; COUNTERS_PER_CORE];
        let sample = &self.slots[0];
        for (i, slot) in sample.iter().enumerate() {
            if let Some(ev) = slot.event {
                rates[i] = ev.rate(act, self.cores, slice_secs);
            }
        }
        for core in &mut self.slots {
            for (i, slot) in core.iter_mut().enumerate() {
                if slot.event.is_some() {
                    let inc = (rates[i] * slice_secs) as u64;
                    slot.value = (slot.value + inc) & CTR_MASK;
                }
            }
        }
    }

    /// Read one core's slots: `(event select code or 0, value)` per slot.
    /// Reading never reprograms (the §3 guarantee).
    pub fn read_core(&self, core: u32) -> [(u16, u64); COUNTERS_PER_CORE] {
        let mut out = [(0u16, 0u64); COUNTERS_PER_CORE];
        for (o, slot) in out.iter_mut().zip(self.slots[core as usize]) {
            *o = (slot.event.map_or(0, |e| e.select_code()), slot.value);
        }
        out
    }

    /// Sum of a given event over all cores, `None` if no slot currently
    /// counts that event (e.g. it was clobbered by a user reprogram).
    pub fn total(&self, event: PerfEvent) -> Option<u64> {
        let code = event.select_code();
        let mut found = false;
        let mut sum = 0u64;
        for core in &self.slots {
            for slot in core {
                if slot.event.map(|e| e.select_code()) == Some(code) {
                    found = true;
                    sum += slot.value;
                }
            }
        }
        found.then_some(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_activity(flops: f64) -> NodeActivity {
        NodeActivity { flops, user_frac: 0.9, ..NodeActivity::idle() }
    }

    #[test]
    fn programming_clears_and_counts() {
        let mut pcs = PerfCounterSet::new(4);
        pcs.program_all([Some(PerfEvent::Flops), None, None, None]);
        pcs.advance(&busy_activity(4.0e9), 1.0);
        let total = pcs.total(PerfEvent::Flops).unwrap();
        // 4e9 flops over 4 cores -> 1e9 per core, 4e9 total.
        assert!((total as f64 - 4.0e9).abs() / 4.0e9 < 0.01, "{total}");
        // Reprogramming clears.
        pcs.program_all([Some(PerfEvent::Flops), None, None, None]);
        assert_eq!(pcs.total(PerfEvent::Flops), Some(0));
    }

    #[test]
    fn unprogrammed_slots_stay_zero() {
        let mut pcs = PerfCounterSet::new(2);
        pcs.program_all([Some(PerfEvent::Flops), None, None, None]);
        pcs.advance(&busy_activity(1.0e9), 10.0);
        for core in 0..2 {
            let slots = pcs.read_core(core);
            assert_eq!(slots[1], (0, 0));
            assert_eq!(slots[3], (0, 0));
        }
    }

    #[test]
    fn user_reprogram_is_detectable_on_read() {
        let mut pcs = PerfCounterSet::new(2);
        pcs.program_all(crate::node::CpuArch::AmdOpteron.tacc_stats_events());
        pcs.advance(&busy_activity(1.0e9), 1.0);
        pcs.user_reprogram(0, PerfEvent::UserDefined(0x777));
        pcs.advance(&busy_activity(1.0e9), 1.0);
        // Slot 0 no longer reports the FLOPS select code.
        let (code, _) = pcs.read_core(0)[0];
        assert_eq!(code, 0x777);
        assert_ne!(code, PerfEvent::Flops.select_code());
        // And the aggregate FLOPS view is gone.
        assert_eq!(pcs.total(PerfEvent::Flops), None);
    }

    #[test]
    fn counters_wrap_at_48_bits() {
        let mut pcs = PerfCounterSet::new(1);
        pcs.program_all([Some(PerfEvent::Flops), None, None, None]);
        // Drive close to the mask by many large advances.
        let huge = busy_activity(2.0e14);
        for _ in 0..2 {
            pcs.advance(&huge, 1.0);
        }
        let v = pcs.read_core(0)[0].1;
        assert!(v <= CTR_MASK);
        assert_eq!(v, (4.0e14 as u64) & CTR_MASK);
    }

    #[test]
    fn reads_do_not_reprogram() {
        let mut pcs = PerfCounterSet::new(1);
        pcs.program_all([Some(PerfEvent::Flops), None, None, None]);
        pcs.advance(&busy_activity(1.0e9), 1.0);
        let before = pcs.read_core(0);
        let again = pcs.read_core(0);
        assert_eq!(before, again);
        pcs.advance(&busy_activity(1.0e9), 1.0);
        assert!(pcs.read_core(0)[0].1 > before[0].1, "still counting after reads");
    }
}
