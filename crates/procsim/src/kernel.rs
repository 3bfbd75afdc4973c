//! The per-node kernel counter state and the read interface the collector
//! uses.

use crate::activity::NodeActivity;
use crate::node::NodeSpec;
use crate::perfctr::{PerfCounterSet, PerfEvent, COUNTERS_PER_CORE};
use crate::JIFFIES_PER_SEC;
use supremm_metrics::schema::{CounterKind, DeviceClass};

/// One device instance as read by the collector: the instance name (core
/// index, interface name, mount name, ...) and the values in the device
/// class's schema order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceReading {
    pub device: String,
    pub values: Vec<u64>,
}

/// What the collector reads. This trait sits exactly where the real
/// TACC_Stats reads `/proc` and `/sys`; `KernelState` is the simulated
/// implementation, and tests can substitute hand-built sources.
pub trait KernelSource {
    /// Node hardware description.
    fn spec(&self) -> &NodeSpec;

    /// Read all instances of a device class. Values are reported with the
    /// register width of the schema applied (narrow counters wrap).
    fn read_class(&self, class: DeviceClass) -> Vec<DeviceReading>;

    /// Program the performance counters (job begin). Reads never do this.
    fn program_perfctrs(&mut self, events: [Option<PerfEvent>; COUNTERS_PER_CORE]);
}

/// Internal cumulative counters, stored at full 64-bit width; register
/// narrowing happens on the read path so the *collector* sees wraps.
#[derive(Debug, Clone, Default)]
struct CpuCounters {
    user: u64,
    nice: u64,
    system: u64,
    idle: u64,
    iowait: u64,
    irq: u64,
    softirq: u64,
}

#[derive(Debug, Clone, Default)]
struct IoCounters {
    read_bytes: u64,
    write_bytes: u64,
    open: u64,
    close: u64,
    fsync: u64,
    getattr: u64,
}

#[derive(Debug, Clone, Default)]
struct NetCounters {
    rx_bytes: u64,
    rx_packets: u64,
    tx_bytes: u64,
    tx_packets: u64,
}

#[derive(Debug, Clone, Default)]
struct IbCounters {
    xmit_data: u64,
    rcv_data: u64,
    xmit_pkts: u64,
    rcv_pkts: u64,
}

#[derive(Debug, Clone, Default)]
struct LnetCounters {
    tx_bytes: u64,
    rx_bytes: u64,
    tx_msgs: u64,
    rx_msgs: u64,
    drop_count: u64,
}

#[derive(Debug, Clone, Default)]
struct BlockCounters {
    rd_sectors: u64,
    wr_sectors: u64,
    rd_ios: u64,
    wr_ios: u64,
    io_ticks: u64,
}

#[derive(Debug, Clone, Default)]
struct VmCounters {
    pgpgin: u64,
    pgpgout: u64,
    pswpin: u64,
    pswpout: u64,
    pgfault: u64,
    pgmajfault: u64,
}

#[derive(Debug, Clone, Default)]
struct NumaCounters {
    hit: u64,
    miss: u64,
    foreign: u64,
    local: u64,
    other: u64,
}

#[derive(Debug, Clone, Default)]
struct PsCounters {
    ctxt: u64,
    processes: u64,
}

/// The full simulated kernel of one node.
#[derive(Debug, Clone)]
pub struct KernelState {
    spec: NodeSpec,
    cpus: Vec<CpuCounters>,
    /// Gauges at the last `advance`.
    mem_used: u64,
    mem_cached: u64,
    lustre: Vec<IoCounters>,
    lnet: LnetCounters,
    net: Vec<NetCounters>,
    ib: Vec<IbCounters>,
    block: Vec<BlockCounters>,
    vm: VmCounters,
    numa: Vec<NumaCounters>,
    ps: PsCounters,
    nr_running: u32,
    load_1: f64,
    sysv_shm_bytes: u64,
    tmpfs_bytes: u64,
    irq_counts: Vec<u64>,
    perf: PerfCounterSet,
    /// Average mean size of a network packet / IB message, used to derive
    /// packet counts from byte counts.
    avg_pkt_bytes: u64,
}

/// Number of IRQ vectors we model (timer, net, ib, block, ipi...).
const IRQ_VECTORS: usize = 6;

impl KernelState {
    pub fn new(spec: NodeSpec) -> KernelState {
        let cores = spec.cores as usize;
        KernelState {
            cpus: vec![CpuCounters::default(); cores],
            mem_used: 600 << 20,
            mem_cached: 200 << 20,
            lustre: vec![IoCounters::default(); spec.lustre_mounts.len()],
            lnet: LnetCounters::default(),
            net: vec![NetCounters::default(); spec.eth_devices.len()],
            ib: vec![IbCounters::default(); spec.ib_ports as usize],
            block: vec![BlockCounters::default(); spec.block_devices.len()],
            vm: VmCounters::default(),
            numa: vec![NumaCounters::default(); spec.sockets as usize],
            ps: PsCounters::default(),
            nr_running: 0,
            load_1: 0.0,
            sysv_shm_bytes: 0,
            tmpfs_bytes: 0,
            irq_counts: vec![0; IRQ_VECTORS],
            perf: PerfCounterSet::new(spec.cores),
            avg_pkt_bytes: 4096,
            spec,
        }
    }

    pub fn perfctrs_mut(&mut self) -> &mut PerfCounterSet {
        &mut self.perf
    }

    /// Advance all counters by one slice of activity.
    pub fn advance(&mut self, act: &NodeActivity, slice_secs: f64) {
        let act = act.normalized();
        let jiffies = (slice_secs * JIFFIES_PER_SEC as f64) as u64;

        // CPU time is spread uniformly across cores; per-core skew does not
        // affect any analysis in the paper (which works at node level).
        let user_j = (jiffies as f64 * act.user_frac) as u64;
        let sys_j = (jiffies as f64 * act.system_frac) as u64;
        let iow_j = (jiffies as f64 * act.iowait_frac) as u64;
        let idle_j = jiffies.saturating_sub(user_j + sys_j + iow_j);
        for cpu in &mut self.cpus {
            cpu.user += user_j;
            cpu.system += sys_j;
            cpu.iowait += iow_j;
            cpu.idle += idle_j;
            cpu.irq += (sys_j as f64 * 0.02) as u64;
            cpu.softirq += (sys_j as f64 * 0.05) as u64;
        }

        self.mem_used = act.mem_used_bytes.min(self.spec.mem_bytes);
        self.mem_cached = act.mem_cached_bytes.min(self.mem_used);

        let mount_io: Vec<(u64, u64)> = self
            .spec
            .lustre_mounts
            .iter()
            .map(|&m| match m {
                "scratch" => (act.scratch_read_bytes, act.scratch_write_bytes),
                "work" => (act.work_read_bytes, act.work_write_bytes),
                "share" => (act.share_read_bytes, act.share_write_bytes),
                _ => (0, 0),
            })
            .collect();
        for (c, (rd, wr)) in self.lustre.iter_mut().zip(mount_io) {
            c.read_bytes += rd;
            c.write_bytes += wr;
            // Metadata operations scale weakly with data volume.
            let ops = ((rd + wr) / (16 << 20)) + u64::from(rd + wr > 0);
            c.open += ops;
            c.close += ops;
            c.fsync += ops / 4;
            c.getattr += ops * 3;
        }

        self.lnet.tx_bytes += act.lnet_tx_bytes;
        self.lnet.rx_bytes += act.lnet_rx_bytes;
        self.lnet.tx_msgs += act.lnet_tx_bytes / self.avg_pkt_bytes;
        self.lnet.rx_msgs += act.lnet_rx_bytes / self.avg_pkt_bytes;

        if let Some(ib) = self.ib.first_mut() {
            ib.xmit_data += act.ib_tx_bytes;
            ib.rcv_data += act.ib_rx_bytes;
            ib.xmit_pkts += act.ib_tx_bytes / self.avg_pkt_bytes;
            ib.rcv_pkts += act.ib_rx_bytes / self.avg_pkt_bytes;
        }

        if let Some(eth) = self.net.first_mut() {
            eth.tx_bytes += act.eth_tx_bytes;
            eth.rx_bytes += act.eth_rx_bytes;
            eth.tx_packets += act.eth_tx_bytes / 1500;
            eth.rx_packets += act.eth_rx_bytes / 1500;
        }

        if let Some(blk) = self.block.first_mut() {
            // Local disk sees swap and a trickle of log writes.
            let wr = act.pswpout * 8 + 64;
            let rd = act.pswpin * 8;
            blk.wr_sectors += wr;
            blk.rd_sectors += rd;
            blk.wr_ios += wr / 8 + 1;
            blk.rd_ios += rd / 8;
            blk.io_ticks += iow_j;
        }

        self.vm.pgfault += act.pgfault;
        self.vm.pgmajfault += act.pgmajfault;
        self.vm.pswpin += act.pswpin;
        self.vm.pswpout += act.pswpout;
        self.vm.pgpgin += act.pswpin * 4 + act.pgmajfault * 4;
        self.vm.pgpgout += act.pswpout * 4;

        let mem_accesses = act.effective_mem_accesses();
        for n in &mut self.numa {
            let per_socket = mem_accesses / self.spec.sockets as f64;
            let local = per_socket * act.numa_local_frac;
            let remote = per_socket - local;
            n.hit += local as u64;
            n.local += local as u64;
            n.miss += remote as u64;
            n.other += remote as u64;
            n.foreign += (remote * 0.5) as u64;
        }

        self.ps.ctxt += (slice_secs * 1000.0 * (1.0 + act.load_1)) as u64;
        self.ps.processes += (slice_secs * 0.5) as u64;
        self.nr_running = act.nr_running;
        self.load_1 = act.load_1;
        self.sysv_shm_bytes = act.sysv_shm_bytes;
        self.tmpfs_bytes = act.tmpfs_bytes;

        let total_j = jiffies;
        self.irq_counts[0] += total_j; // timer
        self.irq_counts[1] += (act.eth_tx_bytes + act.eth_rx_bytes) / 1500;
        self.irq_counts[2] += (act.ib_tx_bytes + act.ib_rx_bytes) / self.avg_pkt_bytes;
        self.irq_counts[3] += (act.pswpin + act.pswpout) / 8;
        self.irq_counts[4] += (sys_j as f64 * 0.3) as u64;
        self.irq_counts[5] += user_j / 10;

        self.perf.advance(&act, slice_secs);
    }

    /// Apply schema register widths so the collector sees hardware-like
    /// (possibly wrapped) values.
    fn narrow(class: DeviceClass, values: &mut [u64]) {
        for (v, entry) in values.iter_mut().zip(class.schema().entries) {
            if let CounterKind::Event { width } = entry.kind {
                if width < 64 {
                    *v &= (1u64 << width) - 1;
                }
            }
        }
    }
}

impl KernelSource for KernelState {
    fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    fn read_class(&self, class: DeviceClass) -> Vec<DeviceReading> {
        let mut out: Vec<DeviceReading> = match class {
            DeviceClass::Cpu => self
                .cpus
                .iter()
                .enumerate()
                .map(|(i, c)| DeviceReading {
                    device: i.to_string(),
                    values: vec![c.user, c.nice, c.system, c.idle, c.iowait, c.irq, c.softirq],
                })
                .collect(),
            DeviceClass::Mem => {
                // Per-socket split of the node-level gauges.
                let sockets = self.spec.sockets as u64;
                let used = self.mem_used / sockets;
                let cached = self.mem_cached / sockets;
                let total = self.spec.mem_bytes / sockets;
                (0..sockets)
                    .map(|i| DeviceReading {
                        device: i.to_string(),
                        values: vec![
                            total >> 10,
                            (total - used) >> 10,
                            (cached / 4) >> 10,
                            cached >> 10,
                            used >> 10,
                            (used / 100) >> 10,
                            (used.saturating_sub(cached)) >> 10,
                            (used / 50) >> 10,
                        ],
                    })
                    .collect()
            }
            DeviceClass::Net => self
                .spec
                .eth_devices
                .iter()
                .zip(&self.net)
                .map(|(name, c)| DeviceReading {
                    device: (*name).to_string(),
                    values: vec![c.rx_bytes, c.rx_packets, c.tx_bytes, c.tx_packets, 0, 0],
                })
                .collect(),
            DeviceClass::Ib => self
                .ib
                .iter()
                .enumerate()
                .map(|(i, c)| DeviceReading {
                    device: format!("mlx4_0/{}", i + 1),
                    values: vec![c.xmit_data, c.rcv_data, c.xmit_pkts, c.rcv_pkts],
                })
                .collect(),
            DeviceClass::Llite => self
                .spec
                .lustre_mounts
                .iter()
                .zip(&self.lustre)
                .map(|(name, c)| DeviceReading {
                    device: (*name).to_string(),
                    values: vec![c.read_bytes, c.write_bytes, c.open, c.close, c.fsync, c.getattr],
                })
                .collect(),
            DeviceClass::Lnet => vec![DeviceReading {
                device: "lnet".to_string(),
                values: vec![
                    self.lnet.tx_bytes,
                    self.lnet.rx_bytes,
                    self.lnet.tx_msgs,
                    self.lnet.rx_msgs,
                    self.lnet.drop_count,
                ],
            }],
            DeviceClass::Block => self
                .spec
                .block_devices
                .iter()
                .zip(&self.block)
                .map(|(name, c)| DeviceReading {
                    device: (*name).to_string(),
                    values: vec![c.rd_sectors, c.wr_sectors, c.rd_ios, c.wr_ios, c.io_ticks],
                })
                .collect(),
            DeviceClass::Vm => vec![DeviceReading {
                device: "vm".to_string(),
                values: vec![
                    self.vm.pgpgin,
                    self.vm.pgpgout,
                    self.vm.pswpin,
                    self.vm.pswpout,
                    self.vm.pgfault,
                    self.vm.pgmajfault,
                ],
            }],
            DeviceClass::Numa => self
                .numa
                .iter()
                .enumerate()
                .map(|(i, n)| DeviceReading {
                    device: i.to_string(),
                    values: vec![n.hit, n.miss, n.foreign, n.local, n.other],
                })
                .collect(),
            DeviceClass::Ps => vec![DeviceReading {
                device: "ps".to_string(),
                values: vec![
                    self.nr_running as u64,
                    self.nr_running as u64 * 2,
                    (self.load_1 * 100.0) as u64,
                    (self.load_1 * 90.0) as u64,
                    (self.load_1 * 80.0) as u64,
                    self.ps.ctxt,
                    self.ps.processes,
                ],
            }],
            DeviceClass::SysvShm => vec![DeviceReading {
                device: "shm".to_string(),
                values: vec![self.sysv_shm_bytes, u64::from(self.sysv_shm_bytes > 0)],
            }],
            DeviceClass::Tmpfs => vec![DeviceReading {
                device: "/dev/shm".to_string(),
                values: vec![self.tmpfs_bytes, self.tmpfs_bytes / 4096],
            }],
            DeviceClass::Irq => self
                .irq_counts
                .iter()
                .enumerate()
                .map(|(i, &c)| DeviceReading { device: i.to_string(), values: vec![c] })
                .collect(),
            DeviceClass::PerfCtr => (0..self.spec.cores)
                .map(|core| {
                    let slots = self.perf.read_core(core);
                    DeviceReading {
                        // Encode the select codes into the instance name so
                        // the collector can detect user reprogramming.
                        device: format!(
                            "{}:{:03x},{:03x},{:03x},{:03x}",
                            core, slots[0].0, slots[1].0, slots[2].0, slots[3].0
                        ),
                        values: slots.iter().map(|&(_, v)| v).collect(),
                    }
                })
                .collect(),
        };
        for r in &mut out {
            Self::narrow(class, &mut r.values);
        }
        out
    }

    fn program_perfctrs(&mut self, events: [Option<PerfEvent>; COUNTERS_PER_CORE]) {
        self.perf.program_all(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::CpuArch;

    fn busy() -> NodeActivity {
        NodeActivity {
            user_frac: 0.85,
            system_frac: 0.05,
            flops: 5.0e9 * 600.0,
            mem_used_bytes: 8 << 30,
            mem_cached_bytes: 2 << 30,
            scratch_write_bytes: 600 << 20,
            ib_tx_bytes: 3 << 30,
            ib_rx_bytes: 3 << 30,
            lnet_tx_bytes: 700 << 20,
            lnet_rx_bytes: 100 << 20,
            ..NodeActivity::idle()
        }
    }

    #[test]
    fn cpu_jiffies_partition_the_slice() {
        let mut k = KernelState::new(NodeSpec::ranger());
        k.advance(&busy(), 600.0);
        let cpu0 = &k.read_class(DeviceClass::Cpu)[0];
        let total: u64 = [0usize, 2, 3, 4].iter().map(|&i| cpu0.values[i]).sum();
        let expected = 600 * JIFFIES_PER_SEC;
        assert!(
            (total as i64 - expected as i64).unsigned_abs() <= 2,
            "user+system+idle+iowait = {total}, expected ~{expected}"
        );
    }

    #[test]
    fn counters_are_monotonic_across_slices() {
        let mut k = KernelState::new(NodeSpec::ranger());
        k.program_perfctrs(CpuArch::AmdOpteron.tacc_stats_events());
        let mut prev: Option<Vec<Vec<u64>>> = None;
        for _ in 0..5 {
            k.advance(&busy(), 600.0);
            let snap: Vec<Vec<u64>> = [DeviceClass::Cpu, DeviceClass::Llite, DeviceClass::Vm]
                .iter()
                .flat_map(|&c| k.read_class(c))
                .map(|r| r.values)
                .collect();
            if let Some(p) = prev {
                for (a, b) in p.iter().flatten().zip(snap.iter().flatten()) {
                    assert!(b >= a, "counter went backwards: {a} -> {b}");
                }
            }
            prev = Some(snap);
        }
    }

    #[test]
    fn ib_extended_counters_do_not_wrap_at_32_bits() {
        let mut k = KernelState::new(NodeSpec::ranger());
        // Push ~5 GiB through IB; the 64-bit extended register holds it.
        let act = NodeActivity { ib_tx_bytes: 5 << 30, ..NodeActivity::idle() };
        k.advance(&act, 600.0);
        let ib = &k.read_class(DeviceClass::Ib)[0];
        assert_eq!(ib.values[0], 5 << 30);
    }

    #[test]
    fn perfctr_reads_wrap_at_48_bits() {
        let mut k = KernelState::new(NodeSpec::ranger());
        k.program_perfctrs(CpuArch::AmdOpteron.tacc_stats_events());
        // Drive the per-core FLOPS counter past 2^48.
        let act =
            NodeActivity { user_frac: 0.9, flops: 2.0f64.powi(49) * 16.0, ..NodeActivity::idle() };
        k.advance(&act, 600.0);
        let perf = &k.read_class(DeviceClass::PerfCtr)[0];
        assert!(perf.values[0] < (1u64 << 48));
    }

    #[test]
    fn mem_gauges_track_activity_not_accumulate() {
        let mut k = KernelState::new(NodeSpec::ranger());
        k.advance(&busy(), 600.0);
        let used_kb_1: u64 = k.read_class(DeviceClass::Mem).iter().map(|r| r.values[4]).sum();
        k.advance(&busy(), 600.0);
        let used_kb_2: u64 = k.read_class(DeviceClass::Mem).iter().map(|r| r.values[4]).sum();
        assert_eq!(used_kb_1, used_kb_2, "gauges must not accumulate");
        let node_used = used_kb_2 << 10;
        assert!((node_used as i64 - (8i64 << 30)).abs() < (1 << 20), "{node_used}");
    }

    #[test]
    fn mem_used_cannot_exceed_physical() {
        let mut k = KernelState::new(NodeSpec::lonestar4());
        let act = NodeActivity { mem_used_bytes: 100 << 30, ..NodeActivity::idle() };
        k.advance(&act, 600.0);
        let used: u64 = k.read_class(DeviceClass::Mem).iter().map(|r| r.values[4] << 10).sum();
        assert!(used <= NodeSpec::lonestar4().mem_bytes);
    }

    #[test]
    fn device_instances_match_spec() {
        let k = KernelState::new(NodeSpec::ranger());
        assert_eq!(k.read_class(DeviceClass::Cpu).len(), 16);
        assert_eq!(k.read_class(DeviceClass::Mem).len(), 4);
        assert_eq!(k.read_class(DeviceClass::Llite).len(), 3);
        assert_eq!(k.read_class(DeviceClass::Numa).len(), 4);
        assert_eq!(k.read_class(DeviceClass::PerfCtr).len(), 16);
        let ls4 = KernelState::new(NodeSpec::lonestar4());
        assert_eq!(ls4.read_class(DeviceClass::Cpu).len(), 12);
        assert_eq!(ls4.read_class(DeviceClass::Llite).len(), 2);
    }

    #[test]
    fn every_class_reading_matches_schema_arity() {
        let mut k = KernelState::new(NodeSpec::ranger());
        k.advance(&busy(), 600.0);
        for class in DeviceClass::ALL {
            let schema_len = class.schema().len();
            for r in k.read_class(class) {
                assert_eq!(r.values.len(), schema_len, "{class}/{}", r.device);
            }
        }
    }

    #[test]
    fn lustre_mount_traffic_goes_to_right_mount() {
        let mut k = KernelState::new(NodeSpec::ranger());
        let act = NodeActivity {
            scratch_write_bytes: 100 << 20,
            work_write_bytes: 7 << 20,
            ..NodeActivity::idle()
        };
        k.advance(&act, 600.0);
        let llite = k.read_class(DeviceClass::Llite);
        let by_mount: std::collections::HashMap<_, _> =
            llite.iter().map(|r| (r.device.as_str(), r.values[1])).collect();
        assert_eq!(by_mount["scratch"], 100 << 20);
        assert_eq!(by_mount["work"], 7 << 20);
        assert_eq!(by_mount["share"], 0);
    }
}
