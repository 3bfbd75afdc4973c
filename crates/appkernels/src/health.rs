//! Node-health degradation model.
//!
//! Real machines degrade in characteristic, subsystem-specific ways:
//! a failed fan thermally throttles the CPU, a flaky DIMM halves memory
//! bandwidth after ECC remapping, an OST on a failing RAID drags write
//! bandwidth, a reseated cable retrains the IB link at a lower rate.
//! Each multiplies *delivered* performance in one subsystem while leaving
//! the others intact — which is exactly what lets the kernel suite
//! implicate the faulty subsystem.

use supremm_metrics::Timestamp;

/// The subsystems a fault can degrade (and a kernel can implicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    Cpu,
    MemoryBandwidth,
    FilesystemWrite,
    Interconnect,
}

impl Subsystem {
    pub const ALL: [Subsystem; 4] = [
        Subsystem::Cpu,
        Subsystem::MemoryBandwidth,
        Subsystem::FilesystemWrite,
        Subsystem::Interconnect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Cpu => "cpu",
            Subsystem::MemoryBandwidth => "memory_bandwidth",
            Subsystem::FilesystemWrite => "filesystem_write",
            Subsystem::Interconnect => "interconnect",
        }
    }
}

/// Delivered-performance multipliers, one per subsystem (1.0 = healthy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeHealth {
    pub cpu: f64,
    pub mem_bw: f64,
    pub fs_write: f64,
    pub net: f64,
}

impl NodeHealth {
    pub const HEALTHY: NodeHealth = NodeHealth { cpu: 1.0, mem_bw: 1.0, fs_write: 1.0, net: 1.0 };

    pub fn factor(&self, s: Subsystem) -> f64 {
        match s {
            Subsystem::Cpu => self.cpu,
            Subsystem::MemoryBandwidth => self.mem_bw,
            Subsystem::FilesystemWrite => self.fs_write,
            Subsystem::Interconnect => self.net,
        }
    }

    fn set(&mut self, s: Subsystem, v: f64) {
        match s {
            Subsystem::Cpu => self.cpu = v,
            Subsystem::MemoryBandwidth => self.mem_bw = v,
            Subsystem::FilesystemWrite => self.fs_write = v,
            Subsystem::Interconnect => self.net = v,
        }
    }

    pub fn is_healthy(&self) -> bool {
        *self == NodeHealth::HEALTHY
    }
}

/// A degradation that takes effect at `at` and persists until repaired
/// (a later event can restore the factor to 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationEvent {
    pub at: Timestamp,
    pub subsystem: Subsystem,
    /// New delivered-performance multiplier from `at` on.
    pub factor: f64,
}

/// An ordered timeline of degradation events.
#[derive(Debug, Clone, Default)]
pub struct HealthTimeline {
    events: Vec<DegradationEvent>,
}

impl HealthTimeline {
    pub fn new(mut events: Vec<DegradationEvent>) -> HealthTimeline {
        events.sort_by_key(|e| e.at);
        HealthTimeline { events }
    }

    pub fn healthy() -> HealthTimeline {
        HealthTimeline::default()
    }

    pub fn events(&self) -> &[DegradationEvent] {
        &self.events
    }

    /// Health in effect at `ts` (latest event per subsystem wins).
    pub fn health_at(&self, ts: Timestamp) -> NodeHealth {
        let mut h = NodeHealth::HEALTHY;
        for e in &self.events {
            if e.at <= ts {
                h.set(e.subsystem, e.factor);
            }
        }
        h
    }

    /// Ground truth: the first degradation (<1.0) of each subsystem.
    pub fn first_degradation(&self, s: Subsystem) -> Option<&DegradationEvent> {
        self.events.iter().find(|e| e.subsystem == s && e.factor < 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_timeline_is_identity() {
        let t = HealthTimeline::healthy();
        assert!(t.health_at(Timestamp(1_000_000)).is_healthy());
    }

    #[test]
    fn events_take_effect_at_their_time() {
        let t = HealthTimeline::new(vec![DegradationEvent {
            at: Timestamp(1000),
            subsystem: Subsystem::Cpu,
            factor: 0.85,
        }]);
        assert!(t.health_at(Timestamp(999)).is_healthy());
        assert_eq!(t.health_at(Timestamp(1000)).cpu, 0.85);
        assert_eq!(t.health_at(Timestamp(1000)).mem_bw, 1.0);
    }

    #[test]
    fn repair_restores_the_factor() {
        let t = HealthTimeline::new(vec![
            DegradationEvent {
                at: Timestamp(1000),
                subsystem: Subsystem::Interconnect,
                factor: 0.5,
            },
            DegradationEvent {
                at: Timestamp(5000),
                subsystem: Subsystem::Interconnect,
                factor: 1.0,
            },
        ]);
        assert_eq!(t.health_at(Timestamp(2000)).net, 0.5);
        assert!(t.health_at(Timestamp(5000)).is_healthy());
    }

    #[test]
    fn unordered_event_lists_are_sorted() {
        let t = HealthTimeline::new(vec![
            DegradationEvent { at: Timestamp(5000), subsystem: Subsystem::Cpu, factor: 0.7 },
            DegradationEvent { at: Timestamp(1000), subsystem: Subsystem::Cpu, factor: 0.9 },
        ]);
        assert_eq!(t.health_at(Timestamp(2000)).cpu, 0.9);
        assert_eq!(t.health_at(Timestamp(6000)).cpu, 0.7);
        assert_eq!(t.first_degradation(Subsystem::Cpu).unwrap().factor, 0.9);
    }
}
