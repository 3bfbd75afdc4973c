//! Time-partitioned retention and multi-resolution rollup tiers.
//!
//! The paper's warehouse has to hold years of facility telemetry while
//! answering both "last hour, raw" and "last year, weekly" queries.
//! Keeping every raw sample forever makes the second query pay for the
//! first; this module adds the Prometheus-style answer: a
//! [`RetentionPolicy`] names how long raw samples live and which
//! coarser *rollup levels* outlive them, and
//! [`Tsdb::enforce_retention`] compacts raw history into those levels
//! before dropping it.
//!
//! Three durable artifacts cooperate:
//!
//! - **level files** (`roll-<bin>-<seq>.tsdb`, segment kind
//!   [`crate::segment::KIND_STATS`]): one per rollup level, an ordinary
//!   series-indexed segment whose chunks are *stats chunks* — per
//!   `(host, metric)` series, one [`crate::stats::ChunkStats`] per time
//!   bin: the exact count / sequential sum / min / max / last a
//!   downsampling bin would have computed from the raw samples
//!   ([`crate::stats`] owns that arithmetic). A level is read through
//!   the raw tier's read plan and fold.
//! - **the manifest** (`retention.manifest`): per-tier watermarks. The
//!   watermark *is* the deletion record: any raw segment wholly below
//!   `raw_dropped_before` is a crashed drop that open completes, and
//!   bins below a level's `dropped_before` are clipped at read time and
//!   left out of the level's next file. Drops are whole-file only —
//!   never partial file edits.
//! - **`rolled_through` marks**: raw data below a level's mark has been
//!   rolled into that level. The raw watermark only advances to the
//!   minimum of all marks, so raw data a level still needs is always
//!   present.
//!
//! Each pass rewrites a level that is behind: it merge-joins, in series
//! order, the level's file (its bins in `[dropped_before,
//! rolled_through)`) with the bins newly rolled from the raw tier, seals
//! the result as the next seq, commits the new mark, and deletes the
//! older file. A series' bins are cut into chunks on *cells* — whole
//! multiples of the coarsest bin, [`RetentionPolicy::chunk_cell`] — and
//! every `chunk_samples` bins, so a chunk's bytes depend on its cell's
//! bins alone; marks move by whole coarsest bins, so the pass copies
//! the chunks of every cell it keeps whole without decoding them. **A level is its highest-seq file**: open deletes any
//! lower seq as superseded, and bins at or past a level's mark belong
//! to a pass that never committed — no tier window reaches them, and
//! the next merge leaves them out. So a crash at any point leaves every
//! tier answering from committed bins only, and re-running the pass
//! writes the bytes an uninterrupted one would have.
//!
//! Alignment rule: level bins must form a divisibility chain (each
//! coarser bin a multiple of the finer) and every watermark is aligned
//! to the *coarsest* bin, so no rollup bin ever straddles a watermark
//! and tiers nest without overlap.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::crc::crc32;
use crate::durable;
use crate::segment::TsdbError;

/// On-disk name of the retention manifest inside a store directory.
pub const MANIFEST_FILE: &str = "retention.manifest";

/// First line of the manifest file (format magic).
pub const MANIFEST_MAGIC: &str = "SUPRET01";

/// One rollup resolution: samples are folded into `bin_secs`-wide bins
/// and those bins live for `ttl` seconds of data time (`None` = kept
/// forever).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupLevel {
    pub bin_secs: u64,
    pub ttl: Option<u64>,
}

/// How long each tier of a store lives.
///
/// `raw_ttl: None` (the default) disables retention entirely — the
/// store behaves exactly as before this module existed. With a raw TTL
/// set, raw samples older than `raw_ttl` (relative to the data-time
/// `now` handed to [`Tsdb::enforce_retention`]) are first rolled into
/// every level, then dropped whole-segment-at-a-time; each level's bins
/// are in turn dropped once older than that level's TTL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Seconds of raw history to keep; `None` keeps raw forever.
    pub raw_ttl: Option<u64>,
    /// Rollup resolutions, finest first (ascending `bin_secs`).
    pub levels: Vec<RollupLevel>,
}

impl RetentionPolicy {
    /// Structural validation; called at [`Tsdb::open`] time so a bad
    /// policy fails loudly instead of corrupting tier selection.
    ///
    /// - rollup levels require a raw TTL (they roll what raw expires);
    /// - `bin_secs` strictly ascending, each a multiple of the previous
    ///   (the divisibility chain the alignment rule needs);
    /// - level TTLs must be `>= raw_ttl` and non-decreasing with
    ///   coarseness (a coarser tier never expires before a finer one),
    ///   and nothing may follow a keep-forever level.
    pub fn validate(&self) -> Result<(), String> {
        if self.raw_ttl.is_none() && !self.levels.is_empty() {
            return Err("rollup levels require raw_ttl (nothing expires to roll)".into());
        }
        let raw_ttl = self.raw_ttl.unwrap_or(0);
        let mut prev_bin = 0u64;
        let mut prev_ttl: Option<u64> = Some(0);
        for (i, level) in self.levels.iter().enumerate() {
            if level.bin_secs == 0 {
                return Err(format!("level {i}: bin_secs must be positive"));
            }
            if level.bin_secs <= prev_bin {
                return Err(format!("level {i}: bin_secs must be strictly ascending"));
            }
            if prev_bin > 0 && level.bin_secs % prev_bin != 0 {
                return Err(format!(
                    "level {i}: bin_secs {} must be a multiple of the previous level's {}",
                    level.bin_secs, prev_bin
                ));
            }
            match (prev_ttl, level.ttl) {
                (None, _) => {
                    return Err(format!("level {i}: follows a keep-forever level"));
                }
                (Some(_), Some(t)) if t < raw_ttl => {
                    return Err(format!("level {i}: ttl {t} is shorter than raw_ttl {raw_ttl}"));
                }
                (Some(p), Some(t)) if t < p => {
                    return Err(format!(
                        "level {i}: ttl {t} is shorter than the finer level's {p}"
                    ));
                }
                _ => {}
            }
            prev_bin = level.bin_secs;
            prev_ttl = level.ttl;
        }
        Ok(())
    }

    /// Parse the CLI / config syntax: comma-separated terms,
    /// `raw=<dur>` for the raw TTL and `<bin>=<dur|forever>` per level,
    /// where durations take an optional `s`/`m`/`h`/`d`/`w` suffix.
    ///
    /// ```text
    /// raw=7d,3600=90d,86400=forever
    /// ```
    pub fn parse(spec: &str) -> Result<RetentionPolicy, String> {
        let mut policy = RetentionPolicy::default();
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) =
                term.split_once('=').ok_or_else(|| format!("{term:?}: expected <key>=<value>"))?;
            if key.trim() == "raw" {
                policy.raw_ttl = Some(parse_duration_secs(value.trim())?);
            } else {
                let bin_secs = parse_duration_secs(key.trim())?;
                let v = value.trim();
                let ttl =
                    if v == "forever" || v == "inf" { None } else { Some(parse_duration_secs(v)?) };
                policy.levels.push(RollupLevel { bin_secs, ttl });
            }
        }
        policy.levels.sort_by_key(|l| l.bin_secs);
        policy.validate()?;
        Ok(policy)
    }

    /// The coarsest configured bin (1 when no levels exist) — the
    /// quantum every watermark aligns to.
    pub fn coarsest_bin(&self) -> u64 {
        self.levels.last().map(|l| l.bin_secs).unwrap_or(1).max(1)
    }

    /// The cells a `bin_secs` level's stats chunks are cut on: the
    /// fewest whole quanta of [`RetentionPolicy::coarsest_bin`] that
    /// hold [`CELL_BINS`] of its bins. Every mark moves by whole quanta,
    /// so a pass finds most of a level's cells either wholly kept or
    /// wholly gone, and copies a kept one's chunks without decoding them.
    pub fn chunk_cell(&self, bin_secs: u64) -> u64 {
        let quantum = self.coarsest_bin();
        let per_quantum = (quantum / bin_secs.max(1)).max(1);
        quantum.saturating_mul(CELL_BINS.div_ceil(per_quantum))
    }
}

/// The fewest bins a level's cell holds (see
/// [`RetentionPolicy::chunk_cell`]). It trades a store's open against
/// its pass: every chunk's ≈ 50-byte index ref is read and checked at
/// each open, and a pass decodes and re-encodes the newest, partly
/// filled cell. At 48 an hourly level under a daily quantum is cut into
/// two-day cells.
const CELL_BINS: u64 = 48;

/// Parse `"90"`, `"90s"`, `"15m"`, `"12h"`, `"7d"`, `"2w"` to seconds.
fn parse_duration_secs(s: &str) -> Result<u64, String> {
    if s.is_empty() {
        return Err("empty duration".into());
    }
    let (digits, mult) = match s.as_bytes().last() {
        Some(b's') => (&s[..s.len() - 1], 1u64),
        Some(b'm') => (&s[..s.len() - 1], 60),
        Some(b'h') => (&s[..s.len() - 1], 3600),
        Some(b'd') => (&s[..s.len() - 1], 86_400),
        Some(b'w') => (&s[..s.len() - 1], 604_800),
        _ => (s, 1),
    };
    let n: u64 = digits.parse().map_err(|_| format!("{s:?}: expected <integer>[s|m|h|d|w]"))?;
    n.checked_mul(mult).ok_or_else(|| format!("{s:?}: duration overflows"))
}

/// Durable per-level watermarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelMark {
    /// Raw data with `ts < rolled_through` has been rolled into this
    /// level (always a multiple of the coarsest bin).
    pub rolled_through: u64,
    /// Bins with `bin_start < dropped_before` are logically gone from
    /// this level (also coarsest-aligned): clipped at read time, and left
    /// out when the level's file is next rewritten.
    pub dropped_before: u64,
}

/// The durable retention state of one store: the raw watermark plus one
/// [`LevelMark`] per rollup level. Replaced atomically on every
/// transition, *before* the file deletions it authorizes — so a reopen
/// can always finish what a crash interrupted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetentionManifest {
    /// Raw samples with `ts < raw_dropped_before` are logically gone;
    /// segments wholly below it are deleted, spanning segments are
    /// clipped at read time.
    pub raw_dropped_before: u64,
    /// Watermarks keyed by level `bin_secs`.
    pub levels: BTreeMap<u64, LevelMark>,
}

impl RetentionManifest {
    /// The mark for one level (zeros when the level is new).
    pub fn level(&self, bin_secs: u64) -> LevelMark {
        self.levels.get(&bin_secs).copied().unwrap_or_default()
    }

    /// Serialize to the line-oriented on-disk form (CRC-trailed).
    fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str(MANIFEST_MAGIC);
        body.push('\n');
        // suplint: allow(R7) -- manifest is a few lines, written once per transition
        body.push_str(&format!("raw {}\n", self.raw_dropped_before));
        for (bin, mark) in &self.levels {
            // suplint: allow(R7) -- as above: cold path, one line per level
            body.push_str(&format!(
                "level {bin} {} {}\n",
                mark.rolled_through, mark.dropped_before
            ));
        }
        let crc = crc32(body.as_bytes());
        let mut out = body.into_bytes();
        // suplint: allow(R7) -- trailing CRC line, once per write
        out.extend_from_slice(format!("crc {crc:08x}\n").as_bytes());
        out
    }

    /// Parse the on-disk form. Errors name what broke — the manifest is
    /// rename-atomic, so damage means external interference, not a torn
    /// write.
    pub fn from_bytes(bytes: &[u8], path: &Path) -> Result<RetentionManifest, TsdbError> {
        let bad = |what: &str| {
            TsdbError::Corrupt(format!("{}: retention manifest: {what}", path.display()))
        };
        let text = std::str::from_utf8(bytes).map_err(|_| bad("not utf-8"))?;
        let Some((body, crc_line)) = text.trim_end_matches('\n').rsplit_once('\n') else {
            return Err(bad("missing crc line"));
        };
        let body_with_nl_len = body.len() + 1;
        let claimed = crc_line
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| bad("malformed crc line"))?;
        let covered = bytes.get(..body_with_nl_len).ok_or_else(|| bad("truncated body"))?;
        if crc32(covered) != claimed {
            return Err(bad("crc mismatch"));
        }
        let mut lines = body.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(bad("bad magic"));
        }
        let mut manifest = RetentionManifest::default();
        let mut saw_raw = false;
        for line in lines {
            let mut parts = line.split_ascii_whitespace();
            match parts.next() {
                Some("raw") => {
                    manifest.raw_dropped_before = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("malformed raw line"))?;
                    saw_raw = true;
                }
                Some("level") => {
                    let mut field = || parts.next().and_then(|v| v.parse::<u64>().ok());
                    let (Some(bin), Some(rolled), Some(dropped)) = (field(), field(), field())
                    else {
                        return Err(bad("malformed level line"));
                    };
                    manifest
                        .levels
                        .insert(bin, LevelMark { rolled_through: rolled, dropped_before: dropped });
                }
                _ => return Err(bad("unknown line")),
            }
        }
        if !saw_raw {
            return Err(bad("missing raw line"));
        }
        Ok(manifest)
    }

    /// Load the manifest from a store directory; `Ok(None)` when the
    /// store has never run retention.
    pub fn load(dir: &Path) -> Result<Option<RetentionManifest>, TsdbError> {
        let path = dir.join(MANIFEST_FILE);
        match fs::read(&path) {
            Ok(bytes) => Ok(Some(RetentionManifest::from_bytes(&bytes, &path)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(TsdbError::Io(e)),
        }
    }

    /// Durably replace the store's manifest (see
    /// [`durable::replace_file`]).
    pub fn store(&self, dir: &Path) -> Result<(), TsdbError> {
        Ok(durable::replace_file(&dir.join(MANIFEST_FILE), &self.to_bytes())?)
    }
}

/// What one [`Tsdb::enforce_retention`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// Level files sealed this pass.
    pub rollup_segments_written: usize,
    /// Bins newly rolled into those files (bins a file carried over
    /// from the one it superseded do not count).
    pub rollup_bins_written: u64,
    /// Raw segments deleted (whole files only).
    pub raw_segments_dropped: usize,
    /// Level files deleted: each one a newer file superseded.
    pub rollup_segments_dropped: usize,
    /// The raw watermark after the pass.
    pub raw_watermark: u64,
}

/// Level file name for one level + sequence number.
pub(crate) fn roll_file_name(bin_secs: u64, seq: u64) -> String {
    // suplint: allow(R7) -- filename built once per rollup segment seal
    format!("roll-{bin_secs}-{seq:06}.tsdb")
}

/// Parse `roll-<bin>-<seq>.tsdb` back to `(bin_secs, seq)`.
pub(crate) fn roll_id(path: &Path) -> Option<(u64, u64)> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("roll-")?.strip_suffix(".tsdb")?;
    let (bin, seq) = rest.split_once('-')?;
    Some((bin.parse().ok()?, seq.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_round_trips_the_readme_example() {
        let p = RetentionPolicy::parse("raw=7d,3600=90d,86400=forever").unwrap();
        assert_eq!(p.raw_ttl, Some(7 * 86_400));
        assert_eq!(
            p.levels,
            vec![
                RollupLevel { bin_secs: 3600, ttl: Some(90 * 86_400) },
                RollupLevel { bin_secs: 86_400, ttl: None },
            ]
        );
        assert_eq!(p.coarsest_bin(), 86_400);
    }

    #[test]
    fn policy_validation_rejects_bad_shapes() {
        // Levels without a raw TTL.
        assert!(RetentionPolicy {
            raw_ttl: None,
            levels: vec![RollupLevel { bin_secs: 600, ttl: None }],
        }
        .validate()
        .is_err());
        // Non-divisible chain.
        assert!(RetentionPolicy::parse("raw=1d,600=30d,1000=60d").is_err());
        // Level TTL shorter than raw.
        assert!(RetentionPolicy::parse("raw=7d,3600=1d").is_err());
        // Coarser tier expiring before a finer one.
        assert!(RetentionPolicy::parse("raw=1d,600=30d,3600=10d").is_err());
        // Level after a keep-forever level.
        assert!(RetentionPolicy::parse("raw=1d,600=forever,3600=30d").is_err());
        // Zero bin.
        assert!(RetentionPolicy::parse("raw=1d,0=30d").is_err());
        // Garbage durations.
        assert!(RetentionPolicy::parse("raw=soon").is_err());
        assert!(RetentionPolicy::parse("raw").is_err());
        // The default is valid and keeps raw forever.
        assert!(RetentionPolicy::default().validate().is_ok());
        assert_eq!(RetentionPolicy::default().raw_ttl, None);
    }

    #[test]
    fn duration_suffixes() {
        assert_eq!(parse_duration_secs("90").unwrap(), 90);
        assert_eq!(parse_duration_secs("90s").unwrap(), 90);
        assert_eq!(parse_duration_secs("15m").unwrap(), 900);
        assert_eq!(parse_duration_secs("12h").unwrap(), 43_200);
        assert_eq!(parse_duration_secs("7d").unwrap(), 604_800);
        assert_eq!(parse_duration_secs("2w").unwrap(), 1_209_600);
        assert!(parse_duration_secs("").is_err());
        assert!(parse_duration_secs("d").is_err());
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        let dir = std::env::temp_dir().join(format!("tsdb-ret-manifest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        assert_eq!(RetentionManifest::load(&dir).unwrap(), None);
        let mut m = RetentionManifest { raw_dropped_before: 86_400, ..Default::default() };
        m.levels.insert(600, LevelMark { rolled_through: 86_400, dropped_before: 1200 });
        m.levels.insert(3600, LevelMark { rolled_through: 86_400, dropped_before: 0 });
        m.store(&dir).unwrap();
        assert!(!dir.join("retention.manifest.tmp").exists());
        assert_eq!(RetentionManifest::load(&dir).unwrap(), Some(m.clone()));
        // Format pin: the file equals, byte for byte, what the writer
        // produced before the durable-file layer existed.
        let bytes = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (72, 0x6662_0267));

        // Overwrite is atomic-replace, not append.
        m.raw_dropped_before = 172_800;
        m.store(&dir).unwrap();
        assert_eq!(RetentionManifest::load(&dir).unwrap(), Some(m.clone()));

        // Any single-byte corruption is detected.
        let good = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            fs::write(dir.join(MANIFEST_FILE), &bad).unwrap();
            assert!(
                RetentionManifest::load(&dir).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn roll_file_names_round_trip() {
        let name = roll_file_name(3600, 7);
        assert_eq!(name, "roll-3600-000007.tsdb");
        assert_eq!(roll_id(Path::new(&name)), Some((3600, 7)));
        assert_eq!(roll_id(Path::new("roll-3600-000007.tsdb.tmp")), None);
        assert_eq!(roll_id(Path::new("seg-000001.tsdb")), None);
        assert_eq!(roll_id(Path::new("roll-x-1.tsdb")), None);
    }
}
