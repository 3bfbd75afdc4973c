//! Scheduler accounting log (SGE dialect).
//!
//! One colon-separated record per finished job, in the style of Grid
//! Engine's `accounting(5)` file that Ranger and Lonestar4 actually ran.
//! The warehouse joins these against the TACC_Stats raw data by job id.

use supremm_metrics::{HostId, JobId, ScienceField, Timestamp, UserId};

/// One accounting record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountingRecord {
    pub queue: String,
    pub owner: UserId,
    pub job: JobId,
    /// Allocation / project identifier; carries the science field the
    /// Figure 7a report groups by.
    pub account: ScienceField,
    pub submit: Timestamp,
    pub start: Timestamp,
    pub end: Timestamp,
    /// SGE `failed` field: 0 ok, 1 generic failure, 19 node failure,
    /// 100 cancelled.
    pub failed: u32,
    /// Process exit status.
    pub exit_status: u32,
    /// Nodes allocated.
    pub nodes: u32,
    /// Slots (cores) allocated.
    pub slots: u32,
    /// Exec host list (real SGE/PBS accounting records carry it; the
    /// time-window-join ablation depends on it).
    pub hosts: Vec<HostId>,
}

impl AccountingRecord {
    pub fn wall_secs(&self) -> u64 {
        self.end.since(self.start).seconds()
    }

    pub fn node_hours(&self) -> f64 {
        self.wall_secs() as f64 / 3600.0 * self.nodes as f64
    }

    fn science_tag(sci: ScienceField) -> usize {
        ScienceField::ALL.iter().position(|&s| s == sci).expect("member of ALL")
    }

    /// Serialise in the colon-separated accounting dialect (hosts joined
    /// with `+`, as PBS exec-host lists are).
    pub fn to_line(&self) -> String {
        let hosts = self.hosts.iter().map(|h| h.hostname()).collect::<Vec<_>>().join("+");
        format!(
            "{}:u{:05}:{}:sci{}:{}:{}:{}:{}:{}:{}:{}:{}",
            self.queue,
            self.owner.0,
            self.job.0,
            Self::science_tag(self.account),
            self.submit.0,
            self.start.0,
            self.end.0,
            self.failed,
            self.exit_status,
            self.nodes,
            self.slots,
            hosts,
        )
    }

    /// Parse a line produced by [`AccountingRecord::to_line`].
    pub fn parse_line(line: &str) -> Option<AccountingRecord> {
        let f: Vec<&str> = line.trim_end().split(':').collect();
        if f.len() != 12 {
            return None;
        }
        let owner = UserId(f[1].strip_prefix('u')?.parse().ok()?);
        let sci_idx: usize = f[3].strip_prefix("sci")?.parse().ok()?;
        let hosts = if f[11].is_empty() {
            Vec::new()
        } else {
            f[11].split('+').map(HostId::parse_hostname).collect::<Option<Vec<_>>>()?
        };
        Some(AccountingRecord {
            queue: f[0].to_string(),
            owner,
            job: JobId(f[2].parse().ok()?),
            account: *ScienceField::ALL.get(sci_idx)?,
            submit: Timestamp(f[4].parse().ok()?),
            start: Timestamp(f[5].parse().ok()?),
            end: Timestamp(f[6].parse().ok()?),
            failed: f[7].parse().ok()?,
            exit_status: f[8].parse().ok()?,
            nodes: f[9].parse().ok()?,
            slots: f[10].parse().ok()?,
            hosts,
        })
    }
}

/// Parse a whole accounting file, skipping comments and malformed lines
/// (real accounting files accumulate both).
pub fn parse_file(text: &str) -> Vec<AccountingRecord> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(AccountingRecord::parse_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> AccountingRecord {
        AccountingRecord {
            queue: "normal".into(),
            owner: UserId(42),
            job: JobId(123_456),
            account: ScienceField::AtmosphericSciences,
            submit: Timestamp(1000),
            start: Timestamp(4000),
            end: Timestamp(40_000),
            failed: 0,
            exit_status: 0,
            nodes: 16,
            slots: 256,
            hosts: (0..16).map(HostId).collect(),
        }
    }

    #[test]
    fn line_round_trip() {
        let r = record();
        let parsed = AccountingRecord::parse_line(&r.to_line()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn derived_quantities() {
        let r = record();
        assert_eq!(r.wall_secs(), 36_000);
        assert_eq!(r.node_hours(), 160.0);
    }

    #[test]
    fn parse_file_skips_comments_and_garbage() {
        let text = format!(
            "# accounting dump\n{}\nnot:a:record\n\n{}\n",
            record().to_line(),
            record().to_line()
        );
        assert_eq!(parse_file(&text).len(), 2);
    }

    #[test]
    fn parse_rejects_wrong_arity() {
        assert!(AccountingRecord::parse_line("a:b:c").is_none());
    }

    #[test]
    fn every_science_field_round_trips() {
        for sci in ScienceField::ALL {
            let mut r = record();
            r.account = sci;
            assert_eq!(AccountingRecord::parse_line(&r.to_line()).unwrap().account, sci);
        }
    }
}
