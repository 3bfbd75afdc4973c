//! The derived metrics the paper's analyses are built on.
//!
//! §4.2: a correlation analysis over all measured metrics showed many are
//! highly (anti-)correlated, and the paper selects a smallest independent
//! set of **eight key metrics** that describe job execution behaviour.
//! [`KeyMetric`] is that set; [`ExtendedMetric`] is the wider measured set
//! the correlation analysis runs over.

/// The eight key metrics of §4.2.
///
/// Units, per the paper's definitions:
/// - `CpuIdle`: fraction of CPU time not used by the job or the system.
/// - `MemUsed`: per-node memory used (bytes), *including* the kernel disk
///   buffer/page cache.
/// - `MemUsedMax`: peak `MemUsed` over all nodes and samples of a job.
/// - `CpuFlops`: floating-point operations per second.
/// - `IoScratchWrite` / `IoWorkWrite`: write rates (bytes/s) to the purged
///   `$SCRATCH` and the quota-limited `$WORK` Lustre filesystems.
/// - `NetIbTx` / `NetLnetTx`: InfiniBand and Lustre-networking transmit
///   rates (bytes/s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeyMetric {
    CpuIdle,
    MemUsed,
    MemUsedMax,
    CpuFlops,
    IoScratchWrite,
    IoWorkWrite,
    NetIbTx,
    NetLnetTx,
}

impl KeyMetric {
    /// All eight, in the order the paper's radar charts list them.
    pub const ALL: [KeyMetric; 8] = [
        KeyMetric::CpuIdle,
        KeyMetric::MemUsed,
        KeyMetric::MemUsedMax,
        KeyMetric::CpuFlops,
        KeyMetric::IoScratchWrite,
        KeyMetric::IoWorkWrite,
        KeyMetric::NetIbTx,
        KeyMetric::NetLnetTx,
    ];

    /// The five metrics used for the persistence analysis (Table 1).
    pub const PERSISTENCE_FIVE: [KeyMetric; 5] = [
        KeyMetric::CpuFlops,
        KeyMetric::MemUsed,
        KeyMetric::IoScratchWrite,
        KeyMetric::NetIbTx,
        KeyMetric::CpuIdle,
    ];

    /// Snake-case name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            KeyMetric::CpuIdle => "cpu_idle",
            KeyMetric::MemUsed => "mem_used",
            KeyMetric::MemUsedMax => "mem_used_max",
            KeyMetric::CpuFlops => "cpu_flops",
            KeyMetric::IoScratchWrite => "io_scratch_write",
            KeyMetric::IoWorkWrite => "io_work_write",
            KeyMetric::NetIbTx => "net_ib_tx",
            KeyMetric::NetLnetTx => "net_lnet_tx",
        }
    }

    pub fn from_name(s: &str) -> Option<KeyMetric> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Index into dense per-metric arrays.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&m| m == self).expect("member of ALL")
    }
}

impl std::fmt::Display for KeyMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A dense `f64` vector indexed by [`KeyMetric`]; the shape of a usage
/// profile (one radar chart octagon).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KeyMetricVec(pub [f64; 8]);

impl KeyMetricVec {
    pub fn get(&self, m: KeyMetric) -> f64 {
        self.0[m.index()]
    }

    pub fn set(&mut self, m: KeyMetric, v: f64) {
        self.0[m.index()] = v;
    }

    pub fn map(&self, f: impl Fn(KeyMetric, f64) -> f64) -> KeyMetricVec {
        let mut out = *self;
        for m in KeyMetric::ALL {
            out.set(m, f(m, self.get(m)));
        }
        out
    }

    pub fn iter(&self) -> impl Iterator<Item = (KeyMetric, f64)> + '_ {
        KeyMetric::ALL.into_iter().map(move |m| (m, self.get(m)))
    }
}

/// The wider set of measured metrics the §4.2 correlation analysis runs
/// over. The paper notes e.g. `cpu_user` is strongly anti-correlated with
/// `cpu_idle` and `net_ib_rx` strongly correlated with `net_ib_tx`; those
/// redundant partners live here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExtendedMetric {
    CpuUser,
    CpuSystem,
    CpuIdle,
    CpuIowait,
    MemUsed,
    MemUsedMax,
    MemCached,
    CpuFlops,
    IoScratchWrite,
    IoScratchRead,
    IoWorkWrite,
    IoWorkRead,
    IoShareWrite,
    IoShareRead,
    NetIbTx,
    NetIbRx,
    NetLnetTx,
    NetLnetRx,
    NetEthTx,
    LoadAvg,
}

impl ExtendedMetric {
    pub const ALL: [ExtendedMetric; 20] = [
        ExtendedMetric::CpuUser,
        ExtendedMetric::CpuSystem,
        ExtendedMetric::CpuIdle,
        ExtendedMetric::CpuIowait,
        ExtendedMetric::MemUsed,
        ExtendedMetric::MemUsedMax,
        ExtendedMetric::MemCached,
        ExtendedMetric::CpuFlops,
        ExtendedMetric::IoScratchWrite,
        ExtendedMetric::IoScratchRead,
        ExtendedMetric::IoWorkWrite,
        ExtendedMetric::IoWorkRead,
        ExtendedMetric::IoShareWrite,
        ExtendedMetric::IoShareRead,
        ExtendedMetric::NetIbTx,
        ExtendedMetric::NetIbRx,
        ExtendedMetric::NetLnetTx,
        ExtendedMetric::NetLnetRx,
        ExtendedMetric::NetEthTx,
        ExtendedMetric::LoadAvg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ExtendedMetric::CpuUser => "cpu_user",
            ExtendedMetric::CpuSystem => "cpu_system",
            ExtendedMetric::CpuIdle => "cpu_idle",
            ExtendedMetric::CpuIowait => "cpu_iowait",
            ExtendedMetric::MemUsed => "mem_used",
            ExtendedMetric::MemUsedMax => "mem_used_max",
            ExtendedMetric::MemCached => "mem_cached",
            ExtendedMetric::CpuFlops => "cpu_flops",
            ExtendedMetric::IoScratchWrite => "io_scratch_write",
            ExtendedMetric::IoScratchRead => "io_scratch_read",
            ExtendedMetric::IoWorkWrite => "io_work_write",
            ExtendedMetric::IoWorkRead => "io_work_read",
            ExtendedMetric::IoShareWrite => "io_share_write",
            ExtendedMetric::IoShareRead => "io_share_read",
            ExtendedMetric::NetIbTx => "net_ib_tx",
            ExtendedMetric::NetIbRx => "net_ib_rx",
            ExtendedMetric::NetLnetTx => "net_lnet_tx",
            ExtendedMetric::NetLnetRx => "net_lnet_rx",
            ExtendedMetric::NetEthTx => "net_eth_tx",
            ExtendedMetric::LoadAvg => "load_avg",
        }
    }

    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&m| m == self).expect("member of ALL")
    }

    /// The key metric this extended metric reduces to, if it is one of the
    /// independent eight.
    pub fn as_key(self) -> Option<KeyMetric> {
        Some(match self {
            ExtendedMetric::CpuIdle => KeyMetric::CpuIdle,
            ExtendedMetric::MemUsed => KeyMetric::MemUsed,
            ExtendedMetric::MemUsedMax => KeyMetric::MemUsedMax,
            ExtendedMetric::CpuFlops => KeyMetric::CpuFlops,
            ExtendedMetric::IoScratchWrite => KeyMetric::IoScratchWrite,
            ExtendedMetric::IoWorkWrite => KeyMetric::IoWorkWrite,
            ExtendedMetric::NetIbTx => KeyMetric::NetIbTx,
            ExtendedMetric::NetLnetTx => KeyMetric::NetLnetTx,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ExtendedMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_metric_names_round_trip() {
        for m in KeyMetric::ALL {
            assert_eq!(KeyMetric::from_name(m.name()), Some(m));
        }
        assert_eq!(KeyMetric::from_name("bogus"), None);
    }

    #[test]
    fn key_metric_indices_are_dense_and_unique() {
        let mut seen = [false; 8];
        for m in KeyMetric::ALL {
            assert!(!seen[m.index()]);
            seen[m.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn every_key_metric_has_an_extended_twin() {
        for k in KeyMetric::ALL {
            assert!(
                ExtendedMetric::ALL.iter().any(|e| e.as_key() == Some(k)),
                "{k} missing from ExtendedMetric"
            );
        }
    }

    #[test]
    fn key_metric_vec_get_set() {
        let mut v = KeyMetricVec::default();
        v.set(KeyMetric::CpuFlops, 3.5);
        assert_eq!(v.get(KeyMetric::CpuFlops), 3.5);
        assert_eq!(v.get(KeyMetric::CpuIdle), 0.0);
        let doubled = v.map(|_, x| x * 2.0);
        assert_eq!(doubled.get(KeyMetric::CpuFlops), 7.0);
    }

    #[test]
    fn persistence_five_are_key_metrics() {
        for m in KeyMetric::PERSISTENCE_FIVE {
            assert!(KeyMetric::ALL.contains(&m));
        }
    }
}
