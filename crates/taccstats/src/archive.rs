//! Raw-file archive: where the per-host per-day files end up.
//!
//! The paper (§4.1): on Ranger TACC_Stats generates a raw file of ~0.5 MB
//! per node per day, ~60 GB/month uncompressed for the whole cluster. The
//! archive tracks exactly those volume numbers for the data-volume
//! experiment, and can also dump the files to a real directory.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use supremm_metrics::HostId;

/// Identifies one raw file: host + day index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RawFileKey {
    pub host: HostId,
    pub day: u64,
}

impl RawFileKey {
    /// Conventional on-disk name: `<day>/<hostname>`.
    pub fn file_name(&self) -> String {
        format!("{}/{}", self.day, self.host.hostname())
    }
}

/// In-memory store of raw collector output.
///
/// Keeps a running byte total so the volume accounting queries are O(1)
/// instead of re-walking every file.
#[derive(Debug, Default, Clone)]
pub struct RawArchive {
    files: BTreeMap<RawFileKey, String>,
    total_bytes: u64,
}

impl RawArchive {
    pub fn new() -> RawArchive {
        RawArchive::default()
    }

    /// Insert a finished file. Replaces any previous content for the key
    /// (a collector restart rewrites the day's file).
    pub fn insert(&mut self, key: RawFileKey, content: String) {
        self.total_bytes += content.len() as u64;
        if let Some(old) = self.files.insert(key, content) {
            self.total_bytes -= old.len() as u64;
        }
    }

    pub fn get(&self, key: &RawFileKey) -> Option<&str> {
        self.files.get(key).map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&RawFileKey, &str)> {
        self.files.iter().map(|(k, v)| (k, v.as_str()))
    }

    /// Total stored bytes (the "uncompressed" volume figure). O(1): the
    /// total is maintained on insert.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Mean bytes per (node, day) file — the paper's ~0.5 MB figure.
    pub fn mean_bytes_per_node_day(&self) -> f64 {
        if self.files.is_empty() {
            return 0.0;
        }
        self.total_bytes() as f64 / self.files.len() as f64
    }

    /// Distinct hosts present. Keys are ordered host-major, so one
    /// adjacent-dedup scan suffices — no clone, no sort.
    pub fn host_count(&self) -> usize {
        let mut count = 0;
        let mut last: Option<HostId> = None;
        for key in self.files.keys() {
            if last != Some(key.host) {
                count += 1;
                last = Some(key.host);
            }
        }
        count
    }

    /// Dump all files under `dir` using the conventional layout.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<()> {
        for (key, content) in &self.files {
            let path = dir.join(key.file_name());
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            let mut f = std::fs::File::create(path)?;
            f.write_all(content.as_bytes())?;
        }
        Ok(())
    }

    /// Load an archive previously dumped with [`RawArchive::write_to_dir`].
    pub fn read_from_dir(dir: &Path) -> std::io::Result<RawArchive> {
        let mut archive = RawArchive::new();
        for day_entry in std::fs::read_dir(dir)? {
            let day_entry = day_entry?;
            let Ok(day) = day_entry.file_name().to_string_lossy().parse::<u64>() else {
                continue;
            };
            for host_entry in std::fs::read_dir(day_entry.path())? {
                let host_entry = host_entry?;
                let name = host_entry.file_name().to_string_lossy().into_owned();
                let Some(host) = HostId::parse_hostname(&name) else { continue };
                let content = std::fs::read_to_string(host_entry.path())?;
                archive.insert(RawFileKey { host, day }, content);
            }
        }
        Ok(archive)
    }
}

impl FromIterator<(RawFileKey, String)> for RawArchive {
    fn from_iter<T: IntoIterator<Item = (RawFileKey, String)>>(iter: T) -> RawArchive {
        let mut archive = RawArchive::new();
        for (key, content) in iter {
            archive.insert(key, content);
        }
        archive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(host: u32, day: u64) -> RawFileKey {
        RawFileKey { host: HostId(host), day }
    }

    #[test]
    fn volume_accounting() {
        let mut a = RawArchive::new();
        a.insert(key(0, 0), "x".repeat(100));
        a.insert(key(1, 0), "y".repeat(300));
        assert_eq!(a.total_bytes(), 400);
        assert_eq!(a.mean_bytes_per_node_day(), 200.0);
        assert_eq!(a.host_count(), 2);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn insert_replaces_same_key() {
        let mut a = RawArchive::new();
        a.insert(key(0, 0), "old".into());
        a.insert(key(0, 0), "newer".into());
        assert_eq!(a.get(&key(0, 0)), Some("newer"));
        assert_eq!(a.len(), 1);
        // The cached byte total must reflect the replacement, not the sum.
        assert_eq!(a.total_bytes(), 5);
    }

    #[test]
    fn cached_total_matches_recount_through_from_iter() {
        let a: RawArchive =
            (0..10u32).map(|i| (key(i % 3, u64::from(i)), "z".repeat(i as usize))).collect();
        let recount: u64 = a.iter().map(|(_, c)| c.len() as u64).sum();
        assert_eq!(a.total_bytes(), recount);
        assert_eq!(a.host_count(), 3);
    }

    #[test]
    fn empty_archive_mean_is_zero() {
        assert_eq!(RawArchive::new().mean_bytes_per_node_day(), 0.0);
    }

    #[test]
    fn dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("supremm-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = RawArchive::new();
        a.insert(key(3, 1), "contents-a".into());
        a.insert(key(4, 2), "contents-b".into());
        a.write_to_dir(&dir).unwrap();
        let b = RawArchive::read_from_dir(&dir).unwrap();
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
