//! What the benchmark runs and what it reports: the four workloads and
//! the two metric tables. `BENCHMARK.json` repeats these names; a
//! self-test keeps the two in step.

/// How a workload's write phase hands samples to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One `append_batch` of a whole data day (144 samples) per series,
    /// `flush` at each day boundary, no `sync` — the batch-ingest path.
    HostDay,
    /// One one-sample `append_batch` per series per tick and a `sync`
    /// per apply group — what the `relay` writer loop does.
    Tick,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Retention spec of the store; `""` keeps raw samples forever.
    pub policy: &'static str,
    /// Data days loaded during set-up (host-day batches, a flush and,
    /// under a policy, a retention pass per day). Not timed as ingest.
    /// Under `fresh_each_round` set-up loads one round's days instead.
    pub preload_days: u64,
    pub shape: Shape,
    /// Every write round starts from an empty store (and the rounds all
    /// load the same days), instead of continuing one store.
    pub fresh_each_round: bool,
    pub round_days: u64,
    /// Write rounds per 10 s of `--seconds`; at least 3 always run. The
    /// count depends on `--seconds` alone, so the store a run builds —
    /// and every exact count taken from it — repeats for one seed.
    pub rounds_per_10s: u64,
    /// Synced ticks left in the memtable and WAL after the last round.
    pub tail_ticks: u64,
    /// During the write phase, run 1 `history` + 2 `range` after every
    /// this many ticks (0 = never).
    pub read_every_ticks: u64,
    /// `compact` at the end of every this many rounds (0 = never).
    pub compact_every_rounds: u64,
    /// Read cycles per read round; a cycle is 8 `point`, 4 `range`,
    /// 2 `panel`, 1 `fleet`, 1 `history`.
    pub cycles: usize,
    /// Draw 80 % of the hosts queried from 20 % of the fleet.
    pub skewed: bool,
    /// `point` and `range` look only at the last this many days and the
    /// tail (0 = all history). Under a policy older raw samples are gone.
    pub recent_days: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "bulk-load",
        why: "Batch ingest into fresh stores: memtable, WAL encode, codec encode and segment seal do the work; sync does none. Fixes bytes on disk per sample.",
        policy: "",
        preload_days: 0,
        shape: Shape::HostDay,
        fresh_each_round: true,
        round_days: 6,
        rounds_per_10s: 5,
        tail_ticks: 0,
        read_every_ticks: 0,
        compact_every_rounds: 0,
        cycles: 40,
        skewed: false,
        recent_days: 0,
    },
    Spec {
        name: "live-ticks",
        why: "Live ingest, one sample per record and a sync per apply group: per-record overhead and sync dominate, codec and seal amortise to little. Ends on a WAL tail.",
        policy: "",
        preload_days: 2,
        shape: Shape::Tick,
        fresh_each_round: false,
        round_days: 1,
        rounds_per_10s: 5,
        tail_ticks: 35,
        read_every_ticks: 0,
        compact_every_rounds: 0,
        cycles: 40,
        skewed: false,
        recent_days: 0,
    },
    Spec {
        name: "dash-read",
        why: "Dashboard queries, hosts 80/20 skewed, on a raw store of day segments plus a memtable tail: index lookup, block read and CRC, chunk decode, merge and folds each dominate one class.",
        policy: "",
        preload_days: 6,
        shape: Shape::Tick,
        fresh_each_round: false,
        round_days: 1,
        rounds_per_10s: 4,
        tail_ticks: 35,
        read_every_ticks: 0,
        compact_every_rounds: 0,
        cycles: 70,
        skewed: true,
        recent_days: 0,
    },
    Spec {
        name: "tiered-mixed",
        why: "Live appends under raw=2d,1h=7d,1d=inf beside tier-served reads: rollup, whole-segment drops and compaction share the store with queries answered from rollups.",
        policy: "raw=2d,1h=7d,1d=inf",
        preload_days: 6,
        shape: Shape::Tick,
        fresh_each_round: false,
        round_days: 1,
        rounds_per_10s: 4,
        tail_ticks: 35,
        read_every_ticks: 48,
        compact_every_rounds: 2,
        cycles: 4,
        skewed: false,
        recent_days: 1,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn tiered(&self) -> bool {
        !self.policy.is_empty()
    }

    pub fn write_rounds(&self, seconds: u64) -> u64 {
        (seconds * self.rounds_per_10s / 10).max(3)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the store sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_samples_per_s", "samples/s", Higher, 0.25),
    e2e("ack_ms_p50", "ms", Lower, 0.25),
    e2e("reopen_ms", "ms", Lower, 0.25),
    e2e("disk_bytes_per_sample", "B", Lower, 0.01),
    e2e("point_us_p50", "us", Lower, 0.25),
    e2e("range_ms_p50", "ms", Lower, 0.25),
    e2e("panel_ms_p50", "ms", Lower, 0.25),
];

pub const CLASSES: [&str; 5] = ["point", "range", "panel", "fleet", "history"];

/// Single layers, measured from outside: S = spans around public calls,
/// P = probes of a module's public functions on the workload's own
/// bytes, C = exact counts. 0 means the workload never uses the layer.
pub const PER_LAYER: &[MetricDef] = &[
    // demoted from the end-to-end table, see README: the two classes
    // whose time this machine moves by more than any bound allows …
    layer("fleet_ms_p50", "ms", Lower),
    layer("history_ms_p50", "ms", Lower),
    // … and the tails
    layer("ack_ms_p99", "ms", Lower),
    layer("range_ms_p99", "ms", Lower),
    layer("panel_ms_p99", "ms", Lower),
    // tsdb::db, S
    layer("db.append_ns_per_sample", "ns", Lower),
    layer("db.sync_us_p50", "us", Lower),
    layer("db.flush_ms_p50", "ms", Lower),
    layer("db.flush_ns_per_sample", "ns", Lower),
    layer("db.compact_ms_p50", "ms", Lower),
    layer("db.compact_ns_per_sample", "ns", Lower),
    layer("db.open_ms_p50", "ms", Lower),
    layer("db.stall_ms_max", "ms", Lower),
    // tsdb::db, S+P: engine self time once the probed layers are taken out
    layer("db.residual_share.point", "share", Lower),
    layer("db.residual_share.range", "share", Lower),
    layer("db.residual_share.panel", "share", Lower),
    layer("db.residual_share.fleet", "share", Lower),
    layer("db.residual_share.history", "share", Lower),
    // tsdb::db, C
    layer("db.write_amp", "ratio", Lower),
    layer("db.scanned_per_returned.point", "ratio", Lower),
    layer("db.scanned_per_returned.range", "ratio", Lower),
    // tsdb::wal, P and C
    layer("wal.append_ns_per_sample.b1", "ns", Lower),
    layer("wal.append_ns_per_sample.b144", "ns", Lower),
    layer("wal.bytes_per_sample.b1", "B", Lower),
    layer("wal.bytes_per_sample.b144", "B", Lower),
    layer("wal.sync_us_p50", "us", Lower),
    layer("wal.replay_ns_per_sample", "ns", Lower),
    layer("wal.fsyncs", "count", Lower),
    // tsdb::codec, P and C
    layer("codec.encode_ns_per_sample", "ns", Lower),
    layer("codec.decode_ns_per_sample", "ns", Lower),
    layer("codec.bytes_per_sample.counter", "B", Lower),
    layer("codec.bytes_per_sample.gauge", "B", Lower),
    // tsdb::crc, P
    layer("crc.ns_per_kib", "ns", Lower),
    // tsdb::stats, P
    layer("stats.from_samples_ns_per_sample", "ns", Lower),
    layer("stats.bin_add_ns_per_sample", "ns", Lower),
    layer("stats.fold_ns_per_chunk", "ns", Lower),
    // tsdb::segment, P and C
    layer("segment.seal_ns_per_sample", "ns", Lower),
    layer("segment.seal_ms_p50", "ms", Lower),
    layer("segment.open_us_p50", "us", Lower),
    layer("segment.read_block_us_p50", "us", Lower),
    layer("segment.block_kib_p50", "KiB", Lower),
    layer("segment.chunk_decode_ns_per_sample", "ns", Lower),
    layer("segment.blocks_read_per_query.point", "count", Lower),
    layer("segment.blocks_read_per_query.range", "count", Lower),
    layer("segment.blocks_read_per_query.panel", "count", Lower),
    layer("segment.blocks_read_per_query.fleet", "count", Lower),
    layer("segment.blocks_read_per_query.history", "count", Lower),
    layer("segment.index_bytes_share", "share", Lower),
    // tsdb::retention, S, P and C
    layer("retention.pass_ms_p50", "ms", Lower),
    layer("retention.noop_pass_us_p50", "us", Lower),
    layer("retention.manifest_store_us_p50", "us", Lower),
    layer("retention.rollup_bins_per_pass", "count", Lower),
    layer("retention.rollup_block_kib_p50", "KiB", Lower),
    layer("retention.kept_bytes_share", "share", Lower),
    layer("retention.tier_hits.raw", "count", Higher),
    layer("retention.tier_hits.rollup_3600", "count", Higher),
    layer("retention.tier_hits.rollup_86400", "count", Higher),
    // obs, P
    layer("obs.observe_ns", "ns", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("obs.snapshot_us", "us", Lower),
    layer("obs.share_of_append.b1", "share", Lower),
    // the harness itself
    layer("trace.overhead_share", "share", Lower),
    layer("trace.span_coverage", "share", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && !name.starts_with(['_', '.', '-'])
    }

    /// `BENCHMARK.json` at the root of the repo says what this file says.
    #[test]
    fn contract_file_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().as_arr();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (item, def) in listed.iter().zip(defs) {
                assert_eq!(field(item, "name"), def.name);
                assert_eq!(field(item, "unit"), def.unit);
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(field(item, "better"), better, "{}", def.name);
                let bound = item.get("bound").and_then(Json::as_f64);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(def.bound),
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
