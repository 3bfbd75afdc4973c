//! Deterministic fault injection at the collector → archive boundary.
//!
//! The paper's pipeline ran for 20 months on production machines where
//! node crashes, reboots and collector restarts routinely produced
//! truncated or missing raw files — and the tool chain had to keep
//! producing job-resolved reports anyway. This module reproduces those
//! failure modes on the simulated fleet's output so the degradation
//! behaviour of every downstream layer can be tested deterministically.
//!
//! A [`FaultPlan`] is seeded; the faults applied to one host-day file
//! depend only on `(seed, host, day, rates)`, never on iteration order
//! or thread count, so faulted runs are exactly reproducible. A plan
//! whose rates are all zero returns every file untouched (the same
//! `String`, no reallocation), which is what the differential test
//! suite leans on: fault rate 0 must be bit-identical to fault
//! injection disabled.
//!
//! Fault taxonomy (each independently rated):
//!
//! | fault            | real-world cause                         | file effect |
//! |------------------|------------------------------------------|-------------|
//! | `file_loss`      | node crash before rotation / disk death  | whole host-day file missing |
//! | `truncation`     | collector killed mid-write               | file cut at an arbitrary byte |
//! | `torn_line`      | interrupted write, corrupted block       | a line's tail garbled |
//! | `duplicate_tick` | collector restart replaying its buffer   | one record block duplicated |
//! | `clock_skew`     | ntpd step on reboot                      | a run of `T` stamps shifted |
//! | `drop_record`    | dropped heartbeat / scheduler stall      | record blocks silently missing |

use supremm_metrics::rng::SplitMix64;
use supremm_metrics::HostId;

/// Per-fault-kind probabilities, each in `[0, 1]`.
///
/// `file_loss` and `truncation` are drawn once per file; the line-level
/// kinds are drawn per record block, so a rate of 0.05 garbles roughly
/// one block in twenty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Whole host-day file lost (collector crash before rotation).
    pub file_loss: f64,
    /// File cut at an arbitrary byte (collector killed mid-write).
    pub truncation: f64,
    /// A record line's tail overwritten with garbage.
    pub torn_line: f64,
    /// A record block duplicated in place (restart replay).
    pub duplicate_tick: f64,
    /// A record's `T` stamp shifted by up to ±15 minutes.
    pub clock_skew: f64,
    /// A record block removed (dropped heartbeat).
    pub drop_record: f64,
}

impl FaultRates {
    /// No faults of any kind.
    pub const ZERO: FaultRates = FaultRates {
        file_loss: 0.0,
        truncation: 0.0,
        torn_line: 0.0,
        duplicate_tick: 0.0,
        clock_skew: 0.0,
        drop_record: 0.0,
    };

    /// Every fault kind at the same rate, except the two whole-file
    /// kinds which get `rate / 10` (losing a file destroys ~100 records;
    /// at equal rates the whole-file faults would dominate everything).
    pub fn uniform(rate: f64) -> FaultRates {
        let rate = rate.clamp(0.0, 1.0);
        FaultRates {
            file_loss: rate / 10.0,
            truncation: rate / 10.0,
            torn_line: rate,
            duplicate_tick: rate,
            clock_skew: rate,
            drop_record: rate,
        }
    }

    pub fn is_zero(&self) -> bool {
        *self == FaultRates::ZERO
    }
}

/// A seeded, deterministic fault schedule over raw collector files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub rates: FaultRates,
}

/// What [`FaultPlan::apply`] decided for one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionLog {
    pub files_lost: u32,
    pub files_truncated: u32,
    pub lines_torn: u32,
    pub ticks_duplicated: u32,
    pub records_skewed: u32,
    pub records_dropped: u32,
}

impl InjectionLog {
    pub fn merge(&mut self, other: &InjectionLog) {
        self.files_lost += other.files_lost;
        self.files_truncated += other.files_truncated;
        self.lines_torn += other.lines_torn;
        self.ticks_duplicated += other.ticks_duplicated;
        self.records_skewed += other.records_skewed;
        self.records_dropped += other.records_dropped;
    }

    pub fn total_events(&self) -> u32 {
        self.files_lost
            + self.files_truncated
            + self.lines_torn
            + self.ticks_duplicated
            + self.records_skewed
            + self.records_dropped
    }
}

/// Bernoulli draw that consumes no randomness for an impossible event,
/// so zeroing one rate leaves the schedule of the others untouched.
fn chance(rng: &mut SplitMix64, p: f64) -> bool {
    p > 0.0 && rng.uniform() < p
}

impl FaultPlan {
    pub fn new(seed: u64, rates: FaultRates) -> FaultPlan {
        FaultPlan { seed, rates }
    }

    /// The identity plan: applies nothing, to anything, ever.
    pub fn disabled() -> FaultPlan {
        FaultPlan { seed: 0, rates: FaultRates::ZERO }
    }

    /// A plan with [`FaultRates::uniform`] rates.
    pub fn with_rate(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan { seed, rates: FaultRates::uniform(rate) }
    }

    pub fn is_disabled(&self) -> bool {
        self.rates.is_zero()
    }

    /// Per-file RNG: depends only on the plan seed and the file identity,
    /// so the schedule is independent of processing order.
    fn rng_for(&self, host: HostId, day: u64) -> SplitMix64 {
        let mut h = self.seed ^ 0x5f61_756c_7473_696d; // "_faultsim"
        for k in [u64::from(host.0), day] {
            h ^= k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h = h.rotate_left(29).wrapping_mul(0x85eb_ca6b_c2b2_ae35);
        }
        SplitMix64::new(h)
    }

    /// Apply the plan to one host-day file. Returns `None` when the file
    /// is lost entirely; otherwise the (possibly mutated) text. With
    /// all-zero rates the input `String` is returned untouched.
    pub fn apply(&self, host: HostId, day: u64, text: String) -> Option<String> {
        let (out, _) = self.apply_logged(host, day, text);
        out
    }

    /// [`FaultPlan::apply`], also reporting which faults fired.
    pub fn apply_logged(
        &self,
        host: HostId,
        day: u64,
        text: String,
    ) -> (Option<String>, InjectionLog) {
        let mut log = InjectionLog::default();
        if self.is_disabled() {
            return (Some(text), log);
        }
        let mut rng = self.rng_for(host, day);
        if chance(&mut rng, self.rates.file_loss) {
            log.files_lost = 1;
            return (None, log);
        }

        let mut out = self.mutate_blocks(&text, &mut rng, &mut log);

        if chance(&mut rng, self.rates.truncation) && out.len() > 64 {
            // Cut somewhere in the back three quarters so the header
            // usually survives — a truncated file should mostly degrade,
            // not vanish.
            let cut = out.len() / 4 + rng.below((out.len() - out.len() / 4) as u64) as usize;
            out.truncate(cut);
            log.files_truncated = 1;
        }
        (Some(out), log)
    }

    /// Line-level faults. The file is walked block-wise: a *block* is a
    /// `T` line plus its device rows (one record). Header (`$`/`!`) and
    /// mark (`%`) lines pass through untouched — marks carry job
    /// attribution and losing them is modelled by `file_loss` instead.
    fn mutate_blocks(&self, text: &str, rng: &mut SplitMix64, log: &mut InjectionLog) -> String {
        let mut out = String::with_capacity(text.len());
        // Collect record blocks as line-index ranges.
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let mut i = 0usize;
        while i < lines.len() {
            let line = lines[i];
            if !line.starts_with('T') {
                out.push_str(line);
                i += 1;
                continue;
            }
            // Block: this T line and every following row line.
            let mut end = i + 1;
            while end < lines.len() {
                let b = lines[end].as_bytes()[0];
                if matches!(b, b'T' | b'%' | b'$' | b'!') {
                    break;
                }
                end += 1;
            }
            let block = &lines[i..end];
            if chance(rng, self.rates.drop_record) {
                log.records_dropped += 1;
            } else {
                let copies = if chance(rng, self.rates.duplicate_tick) {
                    log.ticks_duplicated += 1;
                    2
                } else {
                    1
                };
                for _ in 0..copies {
                    self.emit_block(block, &mut out, rng, log);
                }
            }
            i = end;
        }
        out
    }

    /// Write one record block, possibly skewing its stamp or tearing one
    /// of its lines.
    fn emit_block(
        &self,
        block: &[&str],
        out: &mut String,
        rng: &mut SplitMix64,
        log: &mut InjectionLog,
    ) {
        let skew = if chance(rng, self.rates.clock_skew) {
            log.records_skewed += 1;
            // ±1..900 s, never exactly zero.
            let mag = 1 + rng.below(900) as i64;
            if chance(rng, 0.5) {
                -mag
            } else {
                mag
            }
        } else {
            0
        };
        let tear = if chance(rng, self.rates.torn_line) {
            log.lines_torn += 1;
            Some(rng.below(block.len() as u64) as usize)
        } else {
            None
        };
        for (j, line) in block.iter().enumerate() {
            let skewed;
            let s: &str = if j == 0 && skew != 0 {
                skewed = skew_t_line(line, skew);
                &skewed
            } else {
                line
            };
            if tear == Some(j) {
                // Keep a prefix and overwrite the tail with filler — the
                // classic shape of an interrupted block write. NUL cannot
                // re-form a valid row, and everything stays ASCII so the
                // file remains valid UTF-8.
                let keep = rng.below(s.trim_end().len().max(1) as u64) as usize;
                out.push_str(&s[..keep]);
                out.push_str("\u{0}###torn###\n");
            } else {
                out.push_str(s);
            }
        }
    }
}

/// Shift the timestamp field of a `T <ts> <job|->` line by `skew`
/// seconds, clamping at zero. Lines that do not parse (already torn)
/// pass through unchanged.
fn skew_t_line(line: &str, skew: i64) -> String {
    let mut parts = line.split_ascii_whitespace();
    let (Some("T"), Some(ts), Some(job)) = (parts.next(), parts.next(), parts.next()) else {
        return line.to_string();
    };
    let Ok(ts) = ts.parse::<i64>() else {
        return line.to_string();
    };
    format!("T {} {}\n", (ts + skew).max(0), job)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "$tacc_stats 2.0\n$hostname c0001\n$arch amd64_core\n$cores 2\n\
        $timestamp 0\n!lnet x\n% begin 7 0\nT 0 7\nlnet lnet 1 2 3 4 5\n\
        T 600 7\nlnet lnet 2 3 4 5 6\nT 1200 7\nlnet lnet 3 4 5 6 7\n% end 7 1200\n";

    #[test]
    fn disabled_plan_is_the_identity() {
        let plan = FaultPlan::disabled();
        let text = FILE.to_string();
        let ptr = text.as_ptr();
        let out = plan.apply(HostId(3), 11, text).unwrap();
        assert_eq!(out, FILE);
        // Not just equal: the very same allocation (no copy at rate 0).
        assert_eq!(out.as_ptr(), ptr);
    }

    #[test]
    fn zero_rate_uniform_is_disabled() {
        assert!(FaultPlan::with_rate(99, 0.0).is_disabled());
        assert!(!FaultPlan::with_rate(99, 0.1).is_disabled());
    }

    #[test]
    fn plan_is_deterministic_and_order_independent() {
        let plan = FaultPlan::with_rate(42, 0.5);
        let a1 = plan.apply(HostId(0), 0, FILE.to_string());
        let b1 = plan.apply(HostId(1), 0, FILE.to_string());
        // Same calls in the opposite order give the same results.
        let b2 = plan.apply(HostId(1), 0, FILE.to_string());
        let a2 = plan.apply(HostId(0), 0, FILE.to_string());
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn different_seeds_fault_differently() {
        // With everything-at-1 rates the first draw decides file loss;
        // across seeds both outcomes must occur somewhere.
        let mut lost = 0;
        for seed in 0..64u64 {
            let plan = FaultPlan::with_rate(seed, 1.0);
            if plan.apply(HostId(0), 0, FILE.to_string()).is_none() {
                lost += 1;
            }
        }
        assert!(lost > 0 && lost < 64, "{lost}/64 lost");
    }

    #[test]
    fn drop_record_removes_whole_blocks() {
        let rates = FaultRates { drop_record: 1.0, ..FaultRates::ZERO };
        let plan = FaultPlan::new(7, rates);
        let (out, log) = plan.apply_logged(HostId(0), 0, FILE.to_string());
        let out = out.unwrap();
        assert_eq!(log.records_dropped, 3);
        assert!(!out.contains("T 600"));
        // Marks and header survive.
        assert!(out.contains("% begin 7 0"));
        assert!(out.contains("$hostname c0001"));
        assert!(!out.contains("lnet lnet"));
    }

    #[test]
    fn duplicate_tick_repeats_blocks_verbatim() {
        let rates = FaultRates { duplicate_tick: 1.0, ..FaultRates::ZERO };
        let plan = FaultPlan::new(7, rates);
        let (out, log) = plan.apply_logged(HostId(0), 0, FILE.to_string());
        let out = out.unwrap();
        assert_eq!(log.ticks_duplicated, 3);
        assert_eq!(out.matches("T 600 7").count(), 2);
        assert_eq!(out.matches("lnet lnet 2 3 4 5 6").count(), 2);
    }

    #[test]
    fn clock_skew_rewrites_only_the_stamp() {
        let rates = FaultRates { clock_skew: 1.0, ..FaultRates::ZERO };
        let plan = FaultPlan::new(11, rates);
        let (out, log) = plan.apply_logged(HostId(0), 0, FILE.to_string());
        let out = out.unwrap();
        assert_eq!(log.records_skewed, 3);
        // Every record line still parses as `T <n> 7`, values intact.
        for line in out.lines().filter(|l| l.starts_with('T')) {
            let f: Vec<&str> = line.split_ascii_whitespace().collect();
            assert_eq!(f.len(), 3);
            f[1].parse::<u64>().unwrap();
            assert_eq!(f[2], "7");
        }
        assert_eq!(out.matches("lnet lnet").count(), 3, "rows untouched");
    }

    #[test]
    fn torn_lines_keep_the_file_utf8_and_line_structured() {
        let rates = FaultRates { torn_line: 1.0, ..FaultRates::ZERO };
        let plan = FaultPlan::new(13, rates);
        let (out, log) = plan.apply_logged(HostId(0), 0, FILE.to_string());
        let out = out.unwrap();
        assert_eq!(log.lines_torn, 3);
        assert!(out.contains("###torn###"));
        // The torn marker ends its line, so the line count is unchanged.
        assert_eq!(out.lines().count(), FILE.lines().count());
    }

    #[test]
    fn truncation_cuts_but_keeps_a_prefix() {
        let rates = FaultRates { truncation: 1.0, ..FaultRates::ZERO };
        let plan = FaultPlan::new(3, rates);
        let (out, log) = plan.apply_logged(HostId(0), 0, FILE.to_string());
        let out = out.unwrap();
        assert_eq!(log.files_truncated, 1);
        assert!(out.len() < FILE.len());
        assert!(out.len() >= FILE.len() / 4);
        assert!(FILE.starts_with(&out));
    }

    #[test]
    fn injection_log_merges() {
        let mut a = InjectionLog { files_lost: 1, lines_torn: 2, ..Default::default() };
        let b = InjectionLog { lines_torn: 3, records_dropped: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.files_lost, 1);
        assert_eq!(a.lines_torn, 5);
        assert_eq!(a.records_dropped, 4);
        assert_eq!(a.total_events(), 10);
    }
}
