//! Lariat job summaries.
//!
//! §1.3: "Another tool called Lariat generates unified summary data on the
//! execution of a job such as which libraries are called." The real Lariat
//! wraps `ibrun`/`mpirun` and dumps one JSON object per job; the warehouse
//! uses it to map job → application (accounting logs know only the
//! executable-less job script name).

use supremm_metrics::json::{self, Value};
use supremm_metrics::{JobId, UserId};

/// One Lariat summary record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LariatRecord {
    pub job: JobId,
    pub user: UserId,
    /// Executable basename (e.g. `namd2`).
    pub exe: String,
    /// Canonical application name resolved from the executable
    /// (e.g. `NAMD`).
    pub app_name: String,
    pub nodes: u32,
    pub threads_per_rank: u32,
    /// Shared libraries the executable linked.
    pub libraries: Vec<String>,
}

/// Executable names for the catalog applications — what Lariat would see
/// on the compute nodes.
pub fn exe_for_app(app_name: &str) -> &'static str {
    match app_name {
        "NAMD" => "namd2",
        "AMBER" => "pmemd.MPI",
        "GROMACS" => "mdrun_mpi",
        "WRF" => "wrf.exe",
        "LAMMPS" => "lmp_stampede",
        "QuantumESPRESSO" => "pw.x",
        "OpenFOAM" => "simpleFoam",
        "ENZO" => "enzo.exe",
        "SerialFarm" => "launcher",
        _ => "a.out",
    }
}

/// Invert [`exe_for_app`] — how the ingest pipeline resolves app names.
pub fn app_for_exe(exe: &str) -> Option<&'static str> {
    Some(match exe {
        "namd2" => "NAMD",
        "pmemd.MPI" => "AMBER",
        "mdrun_mpi" => "GROMACS",
        "wrf.exe" => "WRF",
        "lmp_stampede" => "LAMMPS",
        "pw.x" => "QuantumESPRESSO",
        "simpleFoam" => "OpenFOAM",
        "enzo.exe" => "ENZO",
        "launcher" => "SerialFarm",
        _ => return None,
    })
}

/// Typical library list per application family.
pub fn libraries_for(app_name: &str) -> Vec<String> {
    let mut libs = vec!["libmpi.so.1".to_string(), "libc.so.6".to_string()];
    match app_name {
        "NAMD" | "GROMACS" | "LAMMPS" => libs.push("libfftw3.so.3".to_string()),
        "AMBER" | "QuantumESPRESSO" => {
            libs.push("libmkl_core.so".to_string());
            libs.push("libfftw3.so.3".to_string());
        }
        "WRF" | "ENZO" => libs.push("libhdf5.so.6".to_string()),
        "OpenFOAM" => libs.push("libscotch.so.5".to_string()),
        _ => {}
    }
    libs
}

impl LariatRecord {
    /// Serialise as one JSON line (the real Lariat appends JSON objects
    /// to a shared log).
    pub fn to_json(&self) -> String {
        json::obj([
            ("job", self.job.0.into()),
            ("user", self.user.0.into()),
            ("exe", self.exe.as_str().into()),
            ("app_name", self.app_name.as_str().into()),
            ("nodes", self.nodes.into()),
            ("threads_per_rank", self.threads_per_rank.into()),
            ("libraries", Value::Array(self.libraries.iter().map(|l| l.as_str().into()).collect())),
        ])
        .to_string()
    }

    pub fn from_json(s: &str) -> Option<LariatRecord> {
        let v = Value::parse(s)?;
        Some(LariatRecord {
            job: JobId(v["job"].as_u64()?),
            user: UserId(v["user"].as_u64()? as u32),
            exe: v["exe"].as_str()?.to_string(),
            app_name: v["app_name"].as_str()?.to_string(),
            nodes: v["nodes"].as_u64()? as u32,
            threads_per_rank: v["threads_per_rank"].as_u64()? as u32,
            libraries: v["libraries"]
                .as_array()?
                .iter()
                .map(|l| l.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Parse a Lariat log: one JSON object per line, tolerating corruption.
pub fn parse_log(text: &str) -> Vec<LariatRecord> {
    text.lines().filter_map(LariatRecord::from_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> LariatRecord {
        LariatRecord {
            job: JobId(77),
            user: UserId(3),
            exe: "namd2".into(),
            app_name: "NAMD".into(),
            nodes: 8,
            threads_per_rank: 1,
            libraries: libraries_for("NAMD"),
        }
    }

    #[test]
    fn json_round_trip() {
        let r = record();
        assert_eq!(LariatRecord::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn exe_mapping_round_trips_for_known_apps() {
        for app in [
            "NAMD",
            "AMBER",
            "GROMACS",
            "WRF",
            "LAMMPS",
            "QuantumESPRESSO",
            "OpenFOAM",
            "ENZO",
            "SerialFarm",
        ] {
            assert_eq!(app_for_exe(exe_for_app(app)), Some(app));
        }
        assert_eq!(exe_for_app("CustomMPI"), "a.out");
        assert_eq!(app_for_exe("a.out"), None);
    }

    #[test]
    fn parse_log_tolerates_corruption() {
        let text = format!("{}\ngarbage\n{}\n", record().to_json(), record().to_json());
        assert_eq!(parse_log(&text).len(), 2);
    }

    #[test]
    fn md_codes_link_fftw() {
        assert!(libraries_for("NAMD").iter().any(|l| l.contains("fftw")));
        assert!(libraries_for("WRF").iter().any(|l| l.contains("hdf5")));
    }
}
