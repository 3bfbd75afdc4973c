//! Collector-side benchmarks: the §3 overhead claim.
//!
//! The paper: at ten-minute sampling "TACC_Stats generates an overhead of
//! approximately 0.1%". `collector/sample_one_node` measures the cost of
//! one full-device sample; overhead = sample_time / 600 s. On any modern
//! machine one sample is tens of microseconds — orders of magnitude under
//! the paper's 0.1 % budget (which also covered fork/exec of the real
//! binary). The format write/parse benches size the data-handling half.

use std::hint::black_box;

use supremm_bench::bench;
use supremm_metrics::{Duration, HostId, JobId, Timestamp};
use supremm_procsim::{KernelState, NodeActivity, NodeSpec};
use supremm_taccstats::format::parse;
use supremm_taccstats::Collector;

fn busy_kernel() -> KernelState {
    let mut k = KernelState::new(NodeSpec::ranger());
    let act = NodeActivity {
        user_frac: 0.85,
        flops: 5e9 * 16.0 * 600.0,
        mem_used_bytes: 9 << 30,
        scratch_write_bytes: 400 << 20,
        ib_tx_bytes: 10 << 30,
        lnet_tx_bytes: 500 << 20,
        ..NodeActivity::idle()
    };
    k.advance(&act, 600.0);
    k
}

/// One day of one node's raw output.
fn one_node_day() -> String {
    let mut kernel = busy_kernel();
    let mut c = Collector::new(HostId(1));
    let mut ts = Timestamp(600);
    c.begin_job(&mut kernel, JobId(7), ts);
    for _ in 0..144 {
        kernel
            .advance(&NodeActivity { user_frac: 0.8, flops: 3e12, ..NodeActivity::idle() }, 600.0);
        ts = ts + Duration(600);
        c.sample(&kernel, ts);
    }
    c.end_job(&mut kernel, JobId(7), ts);
    c.into_files().remove(0).1
}

fn main() {
    // §3 overhead claim: one sample's cost vs the 600 s interval.
    {
        let kernel = busy_kernel();
        let mut collector = Collector::new(HostId(0));
        let mut ts = 600u64;
        bench("collector/sample_one_node", None, || {
            ts += 600;
            collector.sample(black_box(&kernel), Timestamp(ts));
        });
    }

    // Kernel-side cost of advancing all counters one interval.
    {
        let mut kernel = busy_kernel();
        let act = NodeActivity { user_frac: 0.8, flops: 3e12, ..NodeActivity::idle() };
        bench("collector/kernel_advance_interval", None, || kernel.advance(black_box(&act), 600.0));
    }

    let day = one_node_day();
    bench("collector/parse_node_day", Some(day.len() as u64), || parse(black_box(&day)).unwrap());

    bench("collector/write_node_day", Some(day.len() as u64), || black_box(one_node_day()).len());
}
