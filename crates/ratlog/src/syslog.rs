//! Rationalized syslog.
//!
//! Stock cluster logs arrive in "many different formats" (§1.2); the
//! paper's rationalized syslog maps them into one uniform format and tags
//! each message with the job running on the host at the time. This module
//! has three parts:
//!
//! 1. raw-line *emitters* for several realistic subsystem formats (used
//!    by the simulation to generate a log stream),
//! 2. per-subsystem *parsers* that recognise those formats,
//! 3. the [`RatRecord`] uniform record and the [`rationalize`] pipeline
//!    that applies the parsers plus a host→job mapping.

use supremm_metrics::json::{self, Value};
use supremm_metrics::{HostId, JobId, Timestamp};

/// Syslog-style severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warning,
    Error,
    Critical,
}

/// Normalised event classification — the "single uniform format" target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventCode {
    OomKill,
    SoftLockup,
    LustreError,
    /// Client evicted by a Lustre server (a §4.3.1 job-failure precursor).
    LustreEviction,
    MceError,
    /// Corrected ECC memory error (a DIMM starting to die).
    EccCorrected,
    FsError,
    /// NFS server not responding (the Ethernet-attached filesystem).
    NfsTimeout,
    /// InfiniBand link state change from the subnet manager.
    IbLinkFlap,
    WallclockExceeded,
    /// Failed ssh authentication attempts (security reporting).
    AuthFailure,
    NodeDown,
    NodeUp,
    JobStart,
    JobEnd,
    Generic,
}

impl EventCode {
    pub fn name(self) -> &'static str {
        match self {
            EventCode::OomKill => "oom_kill",
            EventCode::SoftLockup => "soft_lockup",
            EventCode::LustreError => "lustre_error",
            EventCode::LustreEviction => "lustre_eviction",
            EventCode::MceError => "mce_error",
            EventCode::EccCorrected => "ecc_corrected",
            EventCode::FsError => "fs_error",
            EventCode::NfsTimeout => "nfs_timeout",
            EventCode::IbLinkFlap => "ib_link_flap",
            EventCode::WallclockExceeded => "wallclock_exceeded",
            EventCode::AuthFailure => "auth_failure",
            EventCode::NodeDown => "node_down",
            EventCode::NodeUp => "node_up",
            EventCode::JobStart => "job_start",
            EventCode::JobEnd => "job_end",
            EventCode::Generic => "generic",
        }
    }

    /// Inverse of [`EventCode::name`].
    pub fn from_name(s: &str) -> Option<EventCode> {
        use EventCode::*;
        let all = [
            OomKill,
            SoftLockup,
            LustreError,
            LustreEviction,
            MceError,
            EccCorrected,
            FsError,
            NfsTimeout,
            IbLinkFlap,
            WallclockExceeded,
            AuthFailure,
            NodeDown,
            NodeUp,
            JobStart,
            JobEnd,
            Generic,
        ];
        all.into_iter().find(|e| e.name() == s)
    }
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
            Severity::Critical => "critical",
        }
    }

    pub fn from_name(s: &str) -> Option<Severity> {
        Some(match s {
            "info" => Severity::Info,
            "warning" => Severity::Warning,
            "error" => Severity::Error,
            "critical" => Severity::Critical,
            _ => return None,
        })
    }
}

/// One rationalized record: uniform format, job-tagged.
#[derive(Debug, Clone, PartialEq)]
pub struct RatRecord {
    pub ts: Timestamp,
    pub host: HostId,
    /// The job running on `host` at `ts`, when known.
    pub job: Option<JobId>,
    pub severity: Severity,
    pub event: EventCode,
    pub component: String,
    pub message: String,
}

impl RatRecord {
    /// Serialise in the uniform line format:
    /// `ts host job severity event component | message`.
    pub fn to_line(&self) -> String {
        format!(
            "{} {} {} {:?} {} {} | {}",
            self.ts.0,
            self.host.hostname(),
            self.job.map_or_else(|| "-".to_string(), |j| j.0.to_string()),
            self.severity,
            self.event.name(),
            self.component,
            self.message
        )
    }

    /// Serialise as one JSON object (the `syslog.jsonl` export format).
    pub fn to_json(&self) -> String {
        json::obj([
            ("ts", self.ts.0.into()),
            ("host", self.host.0.into()),
            ("job", self.job.map(|j| j.0).into()),
            ("severity", self.severity.name().into()),
            ("event", self.event.name().into()),
            ("component", self.component.as_str().into()),
            ("message", self.message.as_str().into()),
        ])
        .to_string()
    }

    pub fn from_json(s: &str) -> Option<RatRecord> {
        let v = Value::parse(s)?;
        Some(RatRecord {
            ts: Timestamp(v["ts"].as_u64()?),
            host: HostId(v["host"].as_u64()? as u32),
            job: match &v["job"] {
                Value::Null => None,
                j => Some(JobId(j.as_u64()?)),
            },
            severity: Severity::from_name(v["severity"].as_str()?)?,
            event: EventCode::from_name(v["event"].as_str()?)?,
            component: v["component"].as_str()?.to_string(),
            message: v["message"].as_str()?.to_string(),
        })
    }
}

// ---------------------------------------------------------------------------
// Raw-format emitters: each subsystem writes its own dialect, as on a real
// cluster. The simulation produces these; the rationalizer must cope.
// ---------------------------------------------------------------------------

/// `kernel:` OOM-killer message.
pub fn raw_oom(ts: Timestamp, host: HostId, process: &str, pid: u32) -> String {
    format!(
        "{} {} kernel: Out of memory: Kill process {pid} ({process}) score 917 or sacrifice child",
        ts.0,
        host.hostname()
    )
}

/// `kernel:` soft-lockup BUG line (the paper calls these out as precursors
/// of job-wide hangups).
pub fn raw_soft_lockup(ts: Timestamp, host: HostId, cpu: u32, secs: u32) -> String {
    format!(
        "{} {} kernel: BUG: soft lockup - CPU#{cpu} stuck for {secs}s! [namd2:12345]",
        ts.0,
        host.hostname()
    )
}

/// LustreError line.
pub fn raw_lustre_error(ts: Timestamp, host: HostId, target: &str, code: i32) -> String {
    format!(
        "{} {} kernel: LustreError: 11-0: {target}: operation ost_write failed with {code}",
        ts.0,
        host.hostname()
    )
}

/// mcelog hardware-event line.
pub fn raw_mce(ts: Timestamp, host: HostId, cpu: u32, bank: u32) -> String {
    format!(
        "{} {} mcelog: Hardware event. This is not a software error. CPU {cpu} BANK {bank} MISC 0",
        ts.0,
        host.hostname()
    )
}

/// Scheduler daemon wallclock-kill line (references its own job id —
/// the one subsystem that is already job-aware).
pub fn raw_wallclock(ts: Timestamp, host: HostId, job: JobId) -> String {
    format!(
        "{} {} sge_execd[4242]: job {} exceeded hard wallclock limit, killing",
        ts.0,
        host.hostname(),
        job.0
    )
}

/// Filesystem error.
pub fn raw_fs_error(ts: Timestamp, host: HostId, dev: &str) -> String {
    format!(
        "{} {} kernel: EXT4-fs error (device {dev}): ext4_find_entry: reading directory lblock 0",
        ts.0,
        host.hostname()
    )
}

/// Node state transitions from the management stack.
pub fn raw_node_state(ts: Timestamp, host: HostId, up: bool) -> String {
    let state = if up { "responding" } else { "not responding" };
    format!("{} {} ganglia-gmond: host {} is {state}", ts.0, host.hostname(), host.hostname())
}

/// Lustre client eviction (server-side kick; jobs usually die shortly
/// after).
pub fn raw_lustre_eviction(ts: Timestamp, host: HostId, target: &str) -> String {
    format!(
        "{} {} kernel: LustreError: 167-0: {target}: This client was evicted by the server",
        ts.0,
        host.hostname()
    )
}

/// EDAC corrected-ECC report.
pub fn raw_ecc(ts: Timestamp, host: HostId, dimm: u32, count: u32) -> String {
    format!(
        "{} {} kernel: EDAC MC0: {count} CE memory read error on CPU_SrcID#0_Channel#{dimm}_DIMM#0",
        ts.0,
        host.hostname()
    )
}

/// NFS server timeout (Lonestar4's NFS rides Ethernet).
pub fn raw_nfs_timeout(ts: Timestamp, host: HostId, server: &str) -> String {
    format!(
        "{} {} kernel: nfs: server {server} not responding, still trying",
        ts.0,
        host.hostname()
    )
}

/// Subnet-manager port state change.
pub fn raw_ib_flap(ts: Timestamp, host: HostId, up: bool) -> String {
    let state = if up { "ACTIVE" } else { "DOWN" };
    format!(
        "{} {} opensm: Port state change: node 0x0002c903000a {} lid 42 changed to {state}",
        ts.0,
        host.hostname(),
        host.hostname()
    )
}

/// sshd authentication failure.
pub fn raw_auth_failure(ts: Timestamp, host: HostId, user: &str, from: &str) -> String {
    format!(
        "{} {} sshd[2201]: Failed password for invalid user {user} from {from} port 48231 ssh2",
        ts.0,
        host.hostname()
    )
}

/// A benign periodic message (cron, ntp...).
pub fn raw_noise(ts: Timestamp, host: HostId) -> String {
    format!("{} {} ntpd[988]: synchronized to 10.0.0.1, stratum 2", ts.0, host.hostname())
}

// ---------------------------------------------------------------------------
// Rationalizer
// ---------------------------------------------------------------------------

/// Classify a raw line's tail (after `ts host `) into component/event/
/// severity and extract an embedded job id when the subsystem provides
/// one.
fn classify(rest: &str) -> (String, EventCode, Severity, Option<JobId>) {
    let component = rest.split(':').next().unwrap_or("unknown").trim();
    let component = component.split('[').next().unwrap_or(component).to_string();
    if rest.contains("Out of memory") {
        (component, EventCode::OomKill, Severity::Critical, None)
    } else if rest.contains("soft lockup") {
        (component, EventCode::SoftLockup, Severity::Critical, None)
    } else if rest.contains("was evicted by the server") {
        (component, EventCode::LustreEviction, Severity::Error, None)
    } else if rest.contains("LustreError") {
        (component, EventCode::LustreError, Severity::Error, None)
    } else if rest.contains("CE memory read error") {
        (component, EventCode::EccCorrected, Severity::Warning, None)
    } else if rest.contains("not responding, still trying") {
        (component, EventCode::NfsTimeout, Severity::Error, None)
    } else if rest.contains("Port state change") {
        ("opensm".to_string(), EventCode::IbLinkFlap, Severity::Warning, None)
    } else if rest.contains("Failed password") {
        (component, EventCode::AuthFailure, Severity::Warning, None)
    } else if rest.contains("Hardware event") {
        ("mcelog".to_string(), EventCode::MceError, Severity::Error, None)
    } else if rest.contains("exceeded hard wallclock") {
        let job = rest
            .split_whitespace()
            .skip_while(|w| *w != "job")
            .nth(1)
            .and_then(|w| w.parse().ok())
            .map(JobId);
        (component, EventCode::WallclockExceeded, Severity::Warning, job)
    } else if rest.contains("-fs error") {
        (component, EventCode::FsError, Severity::Error, None)
    } else if rest.contains("is not responding") {
        (component, EventCode::NodeDown, Severity::Warning, None)
    } else if rest.contains("is responding") {
        (component, EventCode::NodeUp, Severity::Info, None)
    } else {
        (component, EventCode::Generic, Severity::Info, None)
    }
}

/// Parse one raw line into `(ts, host, rest)`. Returns `None` for lines
/// that do not even carry the `ts hostname` prefix.
fn split_raw(line: &str) -> Option<(Timestamp, HostId, &str)> {
    let mut parts = line.splitn(3, ' ');
    let ts = Timestamp(parts.next()?.parse().ok()?);
    let host = HostId::parse_hostname(parts.next()?)?;
    Some((ts, host, parts.next().unwrap_or("")))
}

/// Rationalize a stream of raw lines into uniform records.
///
/// `job_on_host` supplies the host→job mapping at a given time (from the
/// scheduler state); subsystems that embed their own job id (sge) win
/// over the mapping.
pub fn rationalize(
    lines: impl IntoIterator<Item = String>,
    mut job_on_host: impl FnMut(HostId, Timestamp) -> Option<JobId>,
) -> Vec<RatRecord> {
    let mut out = Vec::new();
    for line in lines {
        let Some((ts, host, rest)) = split_raw(&line) else { continue };
        let (component, event, severity, embedded_job) = classify(rest);
        out.push(RatRecord {
            ts,
            host,
            job: embedded_job.or_else(|| job_on_host(host, ts)),
            severity,
            event,
            component,
            message: rest.to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TS: Timestamp = Timestamp(7200);
    const HOST: HostId = HostId(17);

    #[test]
    fn every_raw_format_classifies_to_its_event() {
        let cases = vec![
            (raw_oom(TS, HOST, "namd2", 777), EventCode::OomKill, Severity::Critical),
            (raw_soft_lockup(TS, HOST, 5, 67), EventCode::SoftLockup, Severity::Critical),
            (
                raw_lustre_error(TS, HOST, "scratch-OST0001", -5),
                EventCode::LustreError,
                Severity::Error,
            ),
            (raw_mce(TS, HOST, 3, 2), EventCode::MceError, Severity::Error),
            (raw_wallclock(TS, HOST, JobId(4321)), EventCode::WallclockExceeded, Severity::Warning),
            (raw_fs_error(TS, HOST, "sda1"), EventCode::FsError, Severity::Error),
            (
                raw_lustre_eviction(TS, HOST, "scratch-OST0001"),
                EventCode::LustreEviction,
                Severity::Error,
            ),
            (raw_ecc(TS, HOST, 2, 14), EventCode::EccCorrected, Severity::Warning),
            (raw_nfs_timeout(TS, HOST, "nfs01"), EventCode::NfsTimeout, Severity::Error),
            (raw_ib_flap(TS, HOST, false), EventCode::IbLinkFlap, Severity::Warning),
            (
                raw_auth_failure(TS, HOST, "admin", "198.51.100.7"),
                EventCode::AuthFailure,
                Severity::Warning,
            ),
            (raw_node_state(TS, HOST, false), EventCode::NodeDown, Severity::Warning),
            (raw_node_state(TS, HOST, true), EventCode::NodeUp, Severity::Info),
            (raw_noise(TS, HOST), EventCode::Generic, Severity::Info),
        ];
        for (line, event, severity) in cases {
            let recs = rationalize([line.clone()], |_, _| None);
            assert_eq!(recs.len(), 1, "{line}");
            assert_eq!(recs[0].event, event, "{line}");
            assert_eq!(recs[0].severity, severity, "{line}");
            assert_eq!(recs[0].ts, TS);
            assert_eq!(recs[0].host, HOST);
        }
    }

    #[test]
    fn job_tagging_uses_host_mapping() {
        let recs = rationalize([raw_oom(TS, HOST, "wrf.exe", 1)], |h, t| {
            assert_eq!((h, t), (HOST, TS));
            Some(JobId(555))
        });
        assert_eq!(recs[0].job, Some(JobId(555)));
    }

    #[test]
    fn embedded_job_id_beats_mapping() {
        let recs = rationalize([raw_wallclock(TS, HOST, JobId(4321))], |_, _| Some(JobId(1)));
        assert_eq!(recs[0].job, Some(JobId(4321)));
    }

    #[test]
    fn idle_host_messages_stay_untagged() {
        let recs = rationalize([raw_noise(TS, HOST)], |_, _| None);
        assert_eq!(recs[0].job, None);
    }

    #[test]
    fn garbage_lines_are_skipped_not_fatal() {
        let lines = vec![
            "".to_string(),
            "not a log line".to_string(),
            "12 badhost kernel: hi".to_string(),
            raw_noise(TS, HOST),
        ];
        let recs = rationalize(lines, |_, _| None);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn uniform_line_format_is_stable() {
        let rec = RatRecord {
            ts: TS,
            host: HOST,
            job: Some(JobId(9)),
            severity: Severity::Error,
            event: EventCode::LustreError,
            component: "kernel".into(),
            message: "LustreError: ...".into(),
        };
        assert_eq!(rec.to_line(), "7200 c0017 9 Error lustre_error kernel | LustreError: ...");
    }

    #[test]
    fn component_extraction_strips_pid() {
        let recs = rationalize([raw_noise(TS, HOST)], |_, _| None);
        assert_eq!(recs[0].component, "ntpd");
    }
}
