//! Self-describing device schemas of the TACC_Stats format (§3).
//!
//! Real TACC_Stats is organised as one module per device class (cpu, mem,
//! net, ib, lustre, ...). Each module declares a *schema*: the ordered list
//! of keys it reports per device instance, each tagged as an event counter
//! (`E`, optionally with a register width `W=32/64` so readers can correct
//! wraparound) or a gauge, plus a unit. The raw files repeat the schema in
//! their header, making every file parseable without out-of-band knowledge.

use crate::units::Unit;

/// How a schema key behaves over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterKind {
    /// Monotonically increasing cumulative counter with the given register
    /// width in bits; readers take deltas and must handle wraparound.
    Event { width: u32 },
    /// Instantaneous value; readers use it directly.
    Gauge,
}

impl CounterKind {
    pub fn is_event(self) -> bool {
        matches!(self, CounterKind::Event { .. })
    }

    /// Modulus of the underlying register (`2^width`), `None` for gauges or
    /// full-width 64-bit counters.
    pub fn wrap_modulus(self) -> Option<u64> {
        match self {
            CounterKind::Event { width } if width < 64 => Some(1u64 << width),
            _ => None,
        }
    }
}

/// One key of a device schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaEntry {
    pub key: &'static str,
    pub kind: CounterKind,
    pub unit: Unit,
}

impl SchemaEntry {
    pub const fn event(key: &'static str, width: u32, unit: Unit) -> SchemaEntry {
        SchemaEntry { key, kind: CounterKind::Event { width }, unit }
    }

    pub const fn gauge(key: &'static str, unit: Unit) -> SchemaEntry {
        SchemaEntry { key, kind: CounterKind::Gauge, unit }
    }
}

/// An ordered device schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub entries: &'static [SchemaEntry],
}

impl Schema {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn position(&self, key: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    /// Header text for this schema, e.g. `user,E,U=J sys,E,U=J idle,E,U=J`.
    pub fn header(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 12);
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(e.key);
            match e.kind {
                CounterKind::Event { width } => {
                    out.push_str(",E");
                    if width != 64 {
                        out.push_str(&format!(",W={width}"));
                    }
                }
                CounterKind::Gauge => {}
            }
            out.push_str(",U=");
            out.push_str(e.unit.tag());
        }
        out
    }
}

/// The device classes TACC_Stats collects (§2 lists them: performance
/// counters per core/socket, block devices, scheduler accounting, IB,
/// Lustre filesystem + network, memory per socket, net devices, NUMA,
/// process stats, SysV shm, ram-backed fs, vm stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceClass {
    /// Per-core scheduler accounting (user/sys/idle/iowait jiffies).
    Cpu,
    /// Per-socket memory usage.
    Mem,
    /// Per-interface Ethernet device counters.
    Net,
    /// Per-HCA InfiniBand traffic counters.
    Ib,
    /// Per-mount Lustre filesystem client stats.
    Llite,
    /// Lustre networking (LNET) counters.
    Lnet,
    /// Per-device block I/O counters.
    Block,
    /// Virtual memory statistics (paging/swapping).
    Vm,
    /// Per-socket NUMA locality counters.
    Numa,
    /// Process statistics.
    Ps,
    /// SysV shared-memory segment usage.
    SysvShm,
    /// RAM-backed filesystem usage.
    Tmpfs,
    /// Interrupt request counts.
    Irq,
    /// Programmable hardware performance counters (per core).
    PerfCtr,
}

impl DeviceClass {
    pub const ALL: [DeviceClass; 14] = [
        DeviceClass::Cpu,
        DeviceClass::Mem,
        DeviceClass::Net,
        DeviceClass::Ib,
        DeviceClass::Llite,
        DeviceClass::Lnet,
        DeviceClass::Block,
        DeviceClass::Vm,
        DeviceClass::Numa,
        DeviceClass::Ps,
        DeviceClass::SysvShm,
        DeviceClass::Tmpfs,
        DeviceClass::Irq,
        DeviceClass::PerfCtr,
    ];

    /// Type name written into raw-file schema headers.
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Cpu => "cpu",
            DeviceClass::Mem => "mem",
            DeviceClass::Net => "net",
            DeviceClass::Ib => "ib",
            DeviceClass::Llite => "llite",
            DeviceClass::Lnet => "lnet",
            DeviceClass::Block => "block",
            DeviceClass::Vm => "vm",
            DeviceClass::Numa => "numa",
            DeviceClass::Ps => "ps",
            DeviceClass::SysvShm => "sysv_shm",
            DeviceClass::Tmpfs => "tmpfs",
            DeviceClass::Irq => "irq",
            DeviceClass::PerfCtr => "perfctr",
        }
    }

    pub fn from_name(s: &str) -> Option<DeviceClass> {
        Self::ALL.into_iter().find(|d| d.name() == s)
    }

    /// Canonical schema for this device class.
    pub fn schema(self) -> Schema {
        use SchemaEntry as E;
        use Unit::*;
        macro_rules! schema {
            ($($e:expr),* $(,)?) => {{
                const ENTRIES: &[SchemaEntry] = &[$($e),*];
                Schema { entries: ENTRIES }
            }};
        }
        match self {
            DeviceClass::Cpu => schema![
                E::event("user", 64, Jiffies),
                E::event("nice", 64, Jiffies),
                E::event("system", 64, Jiffies),
                E::event("idle", 64, Jiffies),
                E::event("iowait", 64, Jiffies),
                E::event("irq", 64, Jiffies),
                E::event("softirq", 64, Jiffies),
            ],
            DeviceClass::Mem => schema![
                E::gauge("MemTotal", Kibibytes),
                E::gauge("MemFree", Kibibytes),
                E::gauge("Buffers", Kibibytes),
                E::gauge("Cached", Kibibytes),
                E::gauge("MemUsed", Kibibytes),
                E::gauge("Dirty", Kibibytes),
                E::gauge("AnonPages", Kibibytes),
                E::gauge("Slab", Kibibytes),
            ],
            DeviceClass::Net => schema![
                E::event("rx_bytes", 64, Bytes),
                E::event("rx_packets", 64, Count),
                E::event("tx_bytes", 64, Bytes),
                E::event("tx_packets", 64, Count),
                E::event("rx_errors", 64, Count),
                E::event("tx_errors", 64, Count),
            ],
            DeviceClass::Ib => schema![
                // The legacy 32-bit IB port counters alias hopelessly at a
                // ten-minute cadence (QDR wraps 2^32 bytes in ~1 s), so —
                // like the real deployment — we read the 64-bit *extended*
                // port counters. Narrow-register wrap handling is still
                // exercised by the 48-bit performance-counter MSRs.
                E::event("port_xmit_data_64", 64, Bytes),
                E::event("port_rcv_data_64", 64, Bytes),
                E::event("port_xmit_pkts_64", 64, Count),
                E::event("port_rcv_pkts_64", 64, Count),
            ],
            DeviceClass::Llite => schema![
                E::event("read_bytes", 64, Bytes),
                E::event("write_bytes", 64, Bytes),
                E::event("open", 64, Count),
                E::event("close", 64, Count),
                E::event("fsync", 64, Count),
                E::event("getattr", 64, Count),
            ],
            DeviceClass::Lnet => schema![
                E::event("tx_bytes", 64, Bytes),
                E::event("rx_bytes", 64, Bytes),
                E::event("tx_msgs", 64, Count),
                E::event("rx_msgs", 64, Count),
                E::event("drop_count", 64, Count),
            ],
            DeviceClass::Block => schema![
                E::event("rd_sectors", 64, Count),
                E::event("wr_sectors", 64, Count),
                E::event("rd_ios", 64, Count),
                E::event("wr_ios", 64, Count),
                E::event("io_ticks", 64, Jiffies),
            ],
            DeviceClass::Vm => schema![
                E::event("pgpgin", 64, Count),
                E::event("pgpgout", 64, Count),
                E::event("pswpin", 64, Count),
                E::event("pswpout", 64, Count),
                E::event("pgfault", 64, Count),
                E::event("pgmajfault", 64, Count),
            ],
            DeviceClass::Numa => schema![
                E::event("numa_hit", 64, Count),
                E::event("numa_miss", 64, Count),
                E::event("numa_foreign", 64, Count),
                E::event("local_node", 64, Count),
                E::event("other_node", 64, Count),
            ],
            DeviceClass::Ps => schema![
                E::gauge("nr_running", Count),
                E::gauge("nr_threads", Count),
                E::gauge("load_1", Fraction),
                E::gauge("load_5", Fraction),
                E::gauge("load_15", Fraction),
                E::event("ctxt", 64, Count),
                E::event("processes", 64, Count),
            ],
            DeviceClass::SysvShm => {
                schema![E::gauge("used_bytes", Bytes), E::gauge("segments", Count),]
            }
            DeviceClass::Tmpfs => schema![E::gauge("used_bytes", Bytes), E::gauge("files", Count),],
            DeviceClass::Irq => schema![E::event("count", 64, Count)],
            DeviceClass::PerfCtr => schema![
                E::event("ctr0", 48, Count),
                E::event("ctr1", 48, Count),
                E::event("ctr2", 48, Count),
                E::event("ctr3", 48, Count),
            ],
        }
    }
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_names_round_trip() {
        for d in DeviceClass::ALL {
            assert_eq!(DeviceClass::from_name(d.name()), Some(d));
        }
        assert_eq!(DeviceClass::from_name("gpu"), None);
    }

    #[test]
    fn schemas_are_nonempty_with_unique_keys() {
        for d in DeviceClass::ALL {
            let s = d.schema();
            assert!(!s.is_empty(), "{d}");
            let mut keys: Vec<_> = s.entries.iter().map(|e| e.key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), s.len(), "{d} has duplicate keys");
        }
    }

    #[test]
    fn position_finds_keys() {
        let s = DeviceClass::Cpu.schema();
        assert_eq!(s.position("user"), Some(0));
        assert_eq!(s.position("idle"), Some(3));
        assert_eq!(s.position("bogus"), None);
    }

    #[test]
    fn wrap_modulus_only_for_narrow_events() {
        assert_eq!(CounterKind::Event { width: 32 }.wrap_modulus(), Some(1 << 32));
        assert_eq!(CounterKind::Event { width: 64 }.wrap_modulus(), None);
        assert_eq!(CounterKind::Gauge.wrap_modulus(), None);
    }

    #[test]
    fn header_mentions_every_key_and_widths() {
        let h = DeviceClass::PerfCtr.schema().header();
        assert!(h.contains("ctr0,E,W=48,U=C"), "{h}");
        let h = DeviceClass::Cpu.schema().header();
        // 64-bit events omit the width tag.
        assert!(h.contains("user,E,U=J"), "{h}");
        let h = DeviceClass::Mem.schema().header();
        // Gauges carry no E flag.
        assert!(h.contains("MemTotal,U=KB"), "{h}");
    }

    #[test]
    fn perfctr_registers_are_narrow() {
        // Guards the wrap-correction code path in the collector: the 48-bit
        // perf MSRs are the narrow registers that legitimately wrap
        // mid-job; if someone "widens" them the wrap tests stop testing
        // anything real.
        for e in DeviceClass::PerfCtr.schema().entries {
            assert_eq!(e.kind, CounterKind::Event { width: 48 });
        }
    }

    #[test]
    fn ib_uses_extended_64_bit_counters() {
        for e in DeviceClass::Ib.schema().entries {
            assert_eq!(e.kind, CounterKind::Event { width: 64 }, "{}", e.key);
        }
    }
}
