//! The application catalog and per-application resource signatures.
//!
//! Figure 3 of the paper contrasts the three most-used molecular dynamics
//! codes: NAMD and GROMACS run CPU-efficiently on both machines, AMBER has
//! a much higher cpu_idle fraction and different floating-point behaviour;
//! NAMD's usage pattern is nearly identical across Ranger and Lonestar4
//! while GROMACS and AMBER differ per machine. The signatures below are
//! calibrated to those contrasts (plus the §4.3 system-level aggregates);
//! all magnitudes are medians of log-normal draws made per job.

use supremm_metrics::{AppId, ScienceField};

/// Median/σ pair of a log-normal draw.
pub type LogDist = (f64, f64);

/// Per-node, time-averaged resource signature of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSignature {
    /// Fraction of the node's peak FLOP rate actually retired.
    pub flops_frac_peak: LogDist,
    /// Memory used per node, GB (including page cache).
    pub mem_gb: LogDist,
    /// CPU idle fraction while the job runs.
    pub idle_frac: LogDist,
    /// CPU time in the kernel (communication stacks mostly).
    pub system_frac: f64,
    /// Lustre `$SCRATCH` write rate, MB/s per node (time average).
    pub scratch_write_mbs: LogDist,
    /// Lustre `$SCRATCH` read rate, MB/s per node.
    pub scratch_read_mbs: LogDist,
    /// Lustre `$WORK` write rate, MB/s per node.
    pub work_write_mbs: LogDist,
    /// MPI fabric transmit rate, MB/s per node.
    pub ib_tx_mbs: LogDist,
    /// Checkpoint cadence, in sample slices; scratch writes concentrate
    /// into every N-th slice (this burstiness is what makes
    /// `io_scratch_write` the *least* persistent metric in Table 1).
    pub checkpoint_period: u32,
    /// Write-rate multiplier during a checkpoint slice.
    pub checkpoint_burst: f64,
    /// AR(1) coefficient of the within-job intensity process, per slice.
    pub ar1_rho: f64,
    /// Innovation scale of the intensity process.
    pub ar1_sigma: f64,
    /// Probability a job of this app runs its own PAPI session and
    /// clobbers the collector's counter programming mid-job.
    pub papi_prob: f64,
    /// How much the submitting user's tuning skill moves this code's
    /// idle fraction (exponent on the efficiency trait). Community codes
    /// ship pre-tuned (low sensitivity); home-grown codes live and die by
    /// their author.
    pub trait_sensitivity: f64,
}

impl ResourceSignature {
    /// A conservative baseline signature; catalog entries override fields.
    fn base() -> ResourceSignature {
        ResourceSignature {
            flops_frac_peak: (0.03, 0.5),
            mem_gb: (7.0, 0.45),
            idle_frac: (0.12, 0.4),
            system_frac: 0.04,
            scratch_write_mbs: (2.0, 1.3),
            scratch_read_mbs: (1.0, 0.8),
            work_write_mbs: (0.15, 0.9),
            ib_tx_mbs: (25.0, 0.6),
            checkpoint_period: 8,
            checkpoint_burst: 1.8,
            ar1_rho: 0.97,
            ar1_sigma: 0.10,
            papi_prob: 0.01,
            trait_sensitivity: 1.0,
        }
    }
}

/// One catalog application.
#[derive(Debug, Clone)]
pub struct AppProfile {
    pub id: AppId,
    pub name: &'static str,
    /// Relative share of submitted jobs.
    pub popularity: f64,
    /// Science fields this code serves, with weights.
    pub science: &'static [(ScienceField, f64)],
    signature: ResourceSignature,
    /// Multipliers applied on Lonestar4 (machine-dependent behaviour;
    /// NAMD's are 1.0 — the paper observes its profile is the same on
    /// both machines).
    ls4_mods: MachineMods,
}

/// Per-machine multipliers on selected signature fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineMods {
    pub flops: f64,
    pub idle: f64,
    pub mem: f64,
    pub ib: f64,
}

impl MachineMods {
    pub const NONE: MachineMods = MachineMods { flops: 1.0, idle: 1.0, mem: 1.0, ib: 1.0 };
}

impl AppProfile {
    /// The signature this app exhibits on the given machine.
    ///
    /// `mem_scale` and `idle_scale` are cluster-wide calibration knobs
    /// (Lonestar4 runs memory-hungrier configurations and averages 85 %
    /// efficiency vs Ranger's 90 %).
    pub fn signature_for(
        &self,
        on_lonestar4: bool,
        mem_scale: f64,
        idle_scale: f64,
    ) -> ResourceSignature {
        let mut s = self.signature.clone();
        let mods = if on_lonestar4 { self.ls4_mods } else { MachineMods::NONE };
        s.flops_frac_peak.0 *= mods.flops;
        s.idle_frac.0 = (s.idle_frac.0 * mods.idle * idle_scale).min(0.95);
        s.mem_gb.0 *= mods.mem * mem_scale;
        s.ib_tx_mbs.0 *= mods.ib;
        s
    }
}

/// The fixed application catalog.
#[derive(Debug, Clone)]
pub struct AppCatalog {
    apps: Vec<AppProfile>,
}

use ScienceField as SF;

impl AppCatalog {
    /// The standard catalog used by every simulation.
    pub fn standard() -> AppCatalog {
        let b = ResourceSignature::base;
        let mut apps = Vec::new();
        let mut push = |name: &'static str,
                        popularity: f64,
                        science: &'static [(SF, f64)],
                        signature: ResourceSignature,
                        ls4_mods: MachineMods| {
            apps.push(AppProfile {
                id: AppId(apps.len() as u32),
                name,
                popularity,
                science,
                signature,
                ls4_mods,
            });
        };

        // The three MD codes of Figure 3. NAMD: efficient, FLOP- and
        // network-heavy, identical across machines.
        push(
            "NAMD",
            0.16,
            &[(SF::MolecularBiosciences, 0.8), (SF::ChemicalThermalSystems, 0.2)],
            ResourceSignature {
                flops_frac_peak: (0.055, 0.35),
                trait_sensitivity: 0.35,
                mem_gb: (6.0, 0.35),
                idle_frac: (0.055, 0.30),
                ib_tx_mbs: (60.0, 0.4),
                scratch_write_mbs: (1.2, 1.3),
                checkpoint_period: 10,
                checkpoint_burst: 1.8,
                ar1_rho: 0.985,
                ar1_sigma: 0.05,
                ..b()
            },
            // Tracks the workload-average machine shift, so NAMD's
            // *normalized* profile is the machine-invariant one (the
            // paper's Figure 3 observation).
            MachineMods { flops: 1.25, idle: 0.95, mem: 1.2, ib: 1.0 },
        );
        // AMBER: the inefficient MD code — high idle, low flops; behaves
        // differently on Lonestar4 (Figure 3's right-hand contrast).
        push(
            "AMBER",
            0.09,
            &[(SF::MolecularBiosciences, 0.9), (SF::ChemicalThermalSystems, 0.1)],
            ResourceSignature {
                flops_frac_peak: (0.018, 0.45),
                trait_sensitivity: 0.35,
                mem_gb: (4.5, 0.4),
                idle_frac: (0.30, 0.35),
                ib_tx_mbs: (18.0, 0.5),
                scratch_write_mbs: (1.5, 1.3),
                checkpoint_period: 8,
                checkpoint_burst: 1.8,
                ar1_rho: 0.96,
                ..b()
            },
            MachineMods { flops: 3.0, idle: 0.55, mem: 1.15, ib: 1.3 },
        );
        // GROMACS: efficient but machine-sensitive.
        push(
            "GROMACS",
            0.10,
            &[(SF::MolecularBiosciences, 0.7), (SF::MaterialsResearch, 0.3)],
            ResourceSignature {
                flops_frac_peak: (0.06, 0.4),
                trait_sensitivity: 0.35,
                mem_gb: (5.0, 0.35),
                idle_frac: (0.07, 0.3),
                ib_tx_mbs: (40.0, 0.5),
                scratch_write_mbs: (0.9, 1.3),
                checkpoint_period: 10,
                checkpoint_burst: 1.8,
                ar1_rho: 0.98,
                ..b()
            },
            MachineMods { flops: 1.4, idle: 0.85, mem: 1.35, ib: 0.6 },
        );
        // WRF: atmospheric model, heavy periodic history writes.
        push(
            "WRF",
            0.08,
            &[(SF::AtmosphericSciences, 0.9), (SF::EarthSciences, 0.1)],
            ResourceSignature {
                flops_frac_peak: (0.035, 0.4),
                mem_gb: (11.0, 0.35),
                idle_frac: (0.13, 0.35),
                scratch_write_mbs: (9.0, 1.1),
                scratch_read_mbs: (2.5, 0.7),
                checkpoint_period: 4,
                checkpoint_burst: 1.8,
                ib_tx_mbs: (30.0, 0.5),
                ar1_rho: 0.95,
                ..b()
            },
            MachineMods { flops: 1.2, idle: 1.0, mem: 1.2, ib: 1.0 },
        );
        // LAMMPS: materials MD, balanced.
        push(
            "LAMMPS",
            0.08,
            &[(SF::MaterialsResearch, 0.8), (SF::Physics, 0.2)],
            ResourceSignature {
                flops_frac_peak: (0.04, 0.4),
                trait_sensitivity: 0.35,
                mem_gb: (5.5, 0.4),
                idle_frac: (0.10, 0.35),
                ib_tx_mbs: (35.0, 0.5),
                ..b()
            },
            MachineMods { flops: 1.3, idle: 0.9, mem: 1.2, ib: 1.0 },
        );
        // Quantum ESPRESSO: DFT, memory-hungry, moderate idle.
        push(
            "QuantumESPRESSO",
            0.08,
            &[(SF::MaterialsResearch, 0.5), (SF::ChemicalThermalSystems, 0.5)],
            ResourceSignature {
                flops_frac_peak: (0.045, 0.45),
                mem_gb: (14.0, 0.4),
                idle_frac: (0.16, 0.35),
                ib_tx_mbs: (45.0, 0.5),
                scratch_write_mbs: (3.0, 0.7),
                ..b()
            },
            MachineMods { flops: 1.2, idle: 1.0, mem: 1.25, ib: 1.1 },
        );
        // OpenFOAM: CFD, I/O-heavy with frequent field dumps.
        push(
            "OpenFOAM",
            0.06,
            &[(SF::Engineering, 0.9), (SF::ChemicalThermalSystems, 0.1)],
            ResourceSignature {
                flops_frac_peak: (0.022, 0.45),
                mem_gb: (8.0, 0.4),
                idle_frac: (0.20, 0.35),
                scratch_write_mbs: (6.0, 1.1),
                work_write_mbs: (0.6, 0.8),
                checkpoint_period: 5,
                ib_tx_mbs: (22.0, 0.5),
                ar1_rho: 0.94,
                ..b()
            },
            MachineMods { flops: 1.1, idle: 1.05, mem: 1.15, ib: 0.9 },
        );
        // ENZO: astrophysics AMR, bursty memory and deep checkpoints.
        push(
            "ENZO",
            0.05,
            &[(SF::Astronomy, 0.9), (SF::Physics, 0.1)],
            ResourceSignature {
                flops_frac_peak: (0.03, 0.5),
                mem_gb: (13.0, 0.5),
                idle_frac: (0.12, 0.4),
                scratch_write_mbs: (5.0, 1.2),
                checkpoint_period: 12,
                checkpoint_burst: 5.0,
                ib_tx_mbs: (28.0, 0.6),
                ar1_rho: 0.96,
                ..b()
            },
            MachineMods { flops: 1.2, idle: 1.0, mem: 1.1, ib: 1.0 },
        );
        // High-throughput serial farming: very idle in CPU terms (one
        // active core per node), negligible flops and fabric use.
        push(
            "SerialFarm",
            0.05,
            &[
                (SF::MolecularBiosciences, 0.4),
                (SF::SocialSciences, 0.3),
                (SF::ComputerScience, 0.3),
            ],
            ResourceSignature {
                flops_frac_peak: (0.004, 0.6),
                mem_gb: (3.0, 0.5),
                idle_frac: (0.55, 0.25),
                ib_tx_mbs: (0.5, 0.8),
                scratch_write_mbs: (0.8, 0.9),
                work_write_mbs: (0.4, 0.9),
                ar1_rho: 0.90,
                ar1_sigma: 0.2,
                ..b()
            },
            MachineMods { flops: 1.0, idle: 1.0, mem: 1.4, ib: 1.0 },
        );
        // The long tail of home-grown MPI codes.
        push(
            "CustomMPI",
            0.25,
            &[
                (SF::Physics, 0.25),
                (SF::Engineering, 0.2),
                (SF::ComputerScience, 0.15),
                (SF::EarthSciences, 0.15),
                (SF::Astronomy, 0.1),
                (SF::MaterialsResearch, 0.15),
            ],
            ResourceSignature {
                flops_frac_peak: (0.025, 0.7),
                mem_gb: (7.5, 0.55),
                idle_frac: (0.17, 0.5),
                ib_tx_mbs: (20.0, 0.8),
                scratch_write_mbs: (2.5, 1.3),
                ar1_rho: 0.95,
                ar1_sigma: 0.15,
                papi_prob: 0.04,
                ..b()
            },
            MachineMods { flops: 1.15, idle: 1.0, mem: 1.25, ib: 1.0 },
        );

        AppCatalog { apps }
    }

    pub fn apps(&self) -> &[AppProfile] {
        &self.apps
    }

    pub fn len(&self) -> usize {
        self.apps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    pub fn get(&self, id: AppId) -> &AppProfile {
        &self.apps[id.0 as usize]
    }

    pub fn by_name(&self, name: &str) -> Option<&AppProfile> {
        self.apps.iter().find(|a| a.name == name)
    }

    pub fn popularity_weights(&self) -> Vec<f64> {
        self.apps.iter().map(|a| a.popularity).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_the_figure3_md_codes() {
        let c = AppCatalog::standard();
        for name in ["NAMD", "AMBER", "GROMACS"] {
            assert!(c.by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn ids_are_dense_and_match_positions() {
        let c = AppCatalog::standard();
        for (i, a) in c.apps().iter().enumerate() {
            assert_eq!(a.id, AppId(i as u32));
            assert_eq!(c.get(a.id).name, a.name);
        }
    }

    #[test]
    fn namd_shifts_with_the_machine_average_amber_swings_wide() {
        // NAMD's Lonestar4 modifiers sit at the workload average, so after
        // the per-machine normalization its profile is the invariant one;
        // AMBER's are far off-average in both directions.
        let c = AppCatalog::standard();
        let namd = c.by_name("NAMD").unwrap();
        let amber = c.by_name("AMBER").unwrap();
        let (n_r, n_l) = (namd.signature_for(false, 1.0, 1.0), namd.signature_for(true, 1.0, 1.0));
        let namd_flops_shift = n_l.flops_frac_peak.0 / n_r.flops_frac_peak.0;
        assert!((1.0..1.4).contains(&namd_flops_shift), "{namd_flops_shift}");
        let (a_r, a_l) =
            (amber.signature_for(false, 1.0, 1.0), amber.signature_for(true, 1.0, 1.0));
        let amber_flops_shift = a_l.flops_frac_peak.0 / a_r.flops_frac_peak.0;
        assert!(amber_flops_shift > namd_flops_shift * 1.2, "{amber_flops_shift}");
        assert!(a_l.idle_frac.0 < a_r.idle_frac.0 * 0.8);
    }

    #[test]
    fn amber_idles_more_than_namd_and_gromacs_everywhere() {
        let c = AppCatalog::standard();
        for ls4 in [false, true] {
            let idle =
                |name: &str| c.by_name(name).unwrap().signature_for(ls4, 1.0, 1.0).idle_frac.0;
            assert!(idle("AMBER") > 2.0 * idle("NAMD"), "ls4={ls4}");
            assert!(idle("AMBER") > 2.0 * idle("GROMACS"), "ls4={ls4}");
        }
    }

    #[test]
    fn popularity_sums_to_one() {
        let c = AppCatalog::standard();
        let total: f64 = c.popularity_weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn science_weights_are_positive() {
        for a in AppCatalog::standard().apps() {
            assert!(!a.science.is_empty());
            assert!(a.science.iter().all(|&(_, w)| w > 0.0), "{}", a.name);
        }
    }

    #[test]
    fn calibration_scales_apply() {
        let c = AppCatalog::standard();
        let namd = c.by_name("NAMD").unwrap();
        let s = namd.signature_for(false, 1.6, 0.5);
        let base = namd.signature_for(false, 1.0, 1.0);
        assert!((s.mem_gb.0 / base.mem_gb.0 - 1.6).abs() < 1e-9);
        assert!((s.idle_frac.0 / base.idle_frac.0 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn idle_never_exceeds_95_percent() {
        let c = AppCatalog::standard();
        for a in c.apps() {
            let s = a.signature_for(true, 1.0, 10.0);
            assert!(s.idle_frac.0 <= 0.95, "{}", a.name);
        }
    }
}
