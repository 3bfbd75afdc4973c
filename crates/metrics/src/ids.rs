//! Identifiers for the entities the tool chain resolves data by.
//!
//! The whole point of TACC_Stats over sysstat/SAR (§1.3) is that measurements
//! are resolved *by job and by user*, so these identifiers thread through
//! every layer from the collector's job-boundary marks to XDMoD dimensions.

/// Batch job identifier, as assigned by the scheduler and stamped into every
/// TACC_Stats record between the job's `%begin`/`%end` marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(pub u64);

/// A user account on the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(pub u32);

/// A compute node. Hostnames render as `c<id>` (e.g. `c0412`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HostId(pub u32);

/// An application code (NAMD, AMBER, GROMACS, ...), as identified by Lariat
/// from the job's executable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{:05}", self.0)
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app{:03}", self.0)
    }
}

impl HostId {
    /// Canonical hostname used in raw-file names and log lines.
    pub fn hostname(self) -> String {
        format!("c{:04}", self.0)
    }

    /// Inverse of [`HostId::hostname`]; `None` if the string is not one.
    pub fn parse_hostname(s: &str) -> Option<HostId> {
        let digits = s.strip_prefix('c')?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok().map(HostId)
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.hostname())
    }
}

/// Parent science of an allocation, used by the Figure 7a style reports
/// ("average memory usage per core broken up by parent science").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScienceField {
    MolecularBiosciences,
    Physics,
    MaterialsResearch,
    ChemicalThermalSystems,
    AtmosphericSciences,
    Astronomy,
    EarthSciences,
    ComputerScience,
    Engineering,
    SocialSciences,
}

impl ScienceField {
    pub const ALL: [ScienceField; 10] = [
        ScienceField::MolecularBiosciences,
        ScienceField::Physics,
        ScienceField::MaterialsResearch,
        ScienceField::ChemicalThermalSystems,
        ScienceField::AtmosphericSciences,
        ScienceField::Astronomy,
        ScienceField::EarthSciences,
        ScienceField::ComputerScience,
        ScienceField::Engineering,
        ScienceField::SocialSciences,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ScienceField::MolecularBiosciences => "Molecular Biosciences",
            ScienceField::Physics => "Physics",
            ScienceField::MaterialsResearch => "Materials Research",
            ScienceField::ChemicalThermalSystems => "Chemical, Thermal Systems",
            ScienceField::AtmosphericSciences => "Atmospheric Sciences",
            ScienceField::Astronomy => "Astronomical Sciences",
            ScienceField::EarthSciences => "Earth Sciences",
            ScienceField::ComputerScience => "Computer and Computation Research",
            ScienceField::Engineering => "Engineering",
            ScienceField::SocialSciences => "Social and Economic Science",
        }
    }
}

impl std::fmt::Display for ScienceField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostname_round_trips() {
        for id in [0u32, 7, 412, 3935, 10_000] {
            let h = HostId(id);
            assert_eq!(HostId::parse_hostname(&h.hostname()), Some(h));
        }
    }

    #[test]
    fn parse_hostname_rejects_garbage() {
        for s in ["", "c", "x0412", "c04a2", "0412", "c-1"] {
            assert_eq!(HostId::parse_hostname(s), None, "{s:?}");
        }
    }

    #[test]
    fn science_fields_have_unique_names() {
        let mut names: Vec<_> = ScienceField::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ScienceField::ALL.len());
    }
}
