//! The simulated user population.
//!
//! §4.3.1: ~2000 users submitted jobs to Ranger over the study period,
//! with usage profiles that vary wildly even among the heaviest users
//! (Figure 2). The population model gives each user a heavy-tailed
//! activity weight (a few users dominate node-hours), one or two
//! preferred applications, a science field, personal job size/length
//! scales and an efficiency trait. A small injected fraction carries the
//! pathological-idle trait that produces the circled outliers of
//! Figures 4/5 (87–89 % of consumed node-hours spent idle, all other
//! metrics normal).

use supremm_metrics::{AppId, ScienceField, UserId};

use crate::apps::AppCatalog;
use crate::config::ClusterConfig;
use crate::rng::Sampler;

/// One user account.
#[derive(Debug, Clone)]
pub struct UserProfile {
    pub id: UserId,
    /// Relative submission intensity (Pareto-tailed).
    pub activity_weight: f64,
    /// Preferred applications with choice weights.
    pub apps: Vec<(AppId, f64)>,
    pub science: ScienceField,
    /// Median job length for this user, minutes.
    pub job_len_median_min: f64,
    /// Median nodes per job for this user.
    pub job_nodes_median: f64,
    /// Multiplier on the application idle fraction: <1 = tuned code,
    /// >1 = sloppier than average.
    pub efficiency_trait: f64,
    /// When set, the user's jobs idle at this fraction regardless of the
    /// application — the Figure 4/5 pathology (e.g. requesting whole
    /// nodes and using one core, or spin-waiting on a dead rank).
    pub idle_anomaly: Option<f64>,
}

/// The whole population.
#[derive(Debug, Clone)]
pub struct UserPopulation {
    users: Vec<UserProfile>,
}

impl UserPopulation {
    /// Generate a population for a cluster config.
    pub fn generate(
        cfg: &ClusterConfig,
        catalog: &AppCatalog,
        sampler: &mut Sampler,
    ) -> UserPopulation {
        let n = cfg.users as usize;
        let anomaly_count = ((n as f64 * cfg.anomaly_user_frac).round() as usize).max(1);
        let app_weights = catalog.popularity_weights();
        let mut users = Vec::with_capacity(n);
        for i in 0..n {
            let mut s = sampler.fork(i as u64);
            // The *last* `anomaly_count` users get the idle pathology;
            // picking by index keeps them deterministic across runs.
            let is_anomalous = i >= n - anomaly_count;
            // Anomalous users run a home-grown code (the Figure 5
            // pathology is a broken custom MPI job, not a community
            // application — keeping Figure 3's app profiles clean).
            let primary = if is_anomalous {
                catalog.by_name("CustomMPI").expect("catalog app").id
            } else {
                AppId(s.weighted_index(&app_weights) as u32)
            };
            let mut apps = vec![(primary, 0.8)];
            if !is_anomalous && s.chance(0.5) {
                let secondary = AppId(s.weighted_index(&app_weights) as u32);
                if secondary != primary {
                    apps.push((secondary, 0.2));
                }
            }
            // Science follows the primary application's field mix.
            let sci_weights: Vec<f64> =
                catalog.get(primary).science.iter().map(|&(_, w)| w).collect();
            let science = catalog.get(primary).science[s.weighted_index(&sci_weights)].0;

            let idle_anomaly = is_anomalous.then(|| s.uniform_range(0.82, 0.92));

            // The paper's circled anomalies are heavy consumers; give
            // anomalous users enough activity to register on Figure 4.
            let mut activity_weight = s.pareto(1.0, 1.15);
            if idle_anomaly.is_some() {
                activity_weight = activity_weight.max(4.0);
            }
            users.push(UserProfile {
                id: UserId(i as u32),
                activity_weight,
                apps,
                science,
                job_len_median_min: s
                    .lognormal(cfg.job_len_median_min, cfg.job_len_sigma_user)
                    .clamp(12.0, 2880.0),
                job_nodes_median: s
                    .lognormal(cfg.job_nodes_median, 0.7)
                    .clamp(1.0, cfg.node_count as f64 / 4.0),
                efficiency_trait: s.lognormal(1.0, 0.35).clamp(0.3, 3.0),
                idle_anomaly,
            });
        }
        UserPopulation { users }
    }

    pub fn users(&self) -> &[UserProfile] {
        &self.users
    }

    pub fn len(&self) -> usize {
        self.users.len()
    }

    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    pub fn get(&self, id: UserId) -> &UserProfile {
        &self.users[id.0 as usize]
    }

    /// Submission weights for arrival sampling.
    pub fn activity_weights(&self) -> Vec<f64> {
        self.users.iter().map(|u| u.activity_weight).collect()
    }

    /// The anomalous users (for test assertions and report cross-checks).
    pub fn anomalous(&self) -> impl Iterator<Item = &UserProfile> {
        self.users.iter().filter(|u| u.idle_anomaly.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> UserPopulation {
        let cfg = ClusterConfig::ranger();
        let catalog = AppCatalog::standard();
        let mut s = Sampler::new(cfg.seed);
        UserPopulation::generate(&cfg, &catalog, &mut s)
    }

    #[test]
    fn population_size_matches_config() {
        let p = population();
        assert_eq!(p.len(), ClusterConfig::ranger().users as usize);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = population();
        let b = population();
        for (ua, ub) in a.users().iter().zip(b.users()) {
            assert_eq!(ua.activity_weight, ub.activity_weight);
            assert_eq!(ua.job_len_median_min, ub.job_len_median_min);
            assert_eq!(ua.idle_anomaly, ub.idle_anomaly);
        }
    }

    #[test]
    fn activity_is_heavy_tailed() {
        let p = population();
        let mut w = p.activity_weights();
        w.sort_by(f64::total_cmp);
        w.reverse();
        let total: f64 = w.iter().sum();
        let top10: f64 = w.iter().take(p.len() / 10).sum();
        assert!(top10 / total > 0.35, "top 10% of users should dominate, got {}", top10 / total);
    }

    #[test]
    fn anomalous_users_exist_and_idle_hard() {
        let p = population();
        let anomalous: Vec<_> = p.anomalous().collect();
        assert!(!anomalous.is_empty());
        for u in &anomalous {
            let idle = u.idle_anomaly.unwrap();
            assert!((0.82..0.92).contains(&idle), "{idle}");
        }
        // Rough count matches the config fraction.
        let expect = (ClusterConfig::ranger().users as f64 * 0.02).round() as usize;
        assert_eq!(anomalous.len(), expect.max(1));
    }

    #[test]
    fn app_preferences_are_valid_catalog_ids() {
        let p = population();
        let catalog = AppCatalog::standard();
        for u in p.users() {
            assert!(!u.apps.is_empty());
            for &(app, w) in &u.apps {
                assert!((app.0 as usize) < catalog.len());
                assert!(w > 0.0);
            }
        }
    }

    #[test]
    fn job_sizes_are_schedulable() {
        let p = population();
        let cfg = ClusterConfig::ranger();
        for u in p.users() {
            assert!(u.job_nodes_median >= 1.0);
            assert!(u.job_nodes_median <= cfg.node_count as f64 / 4.0);
        }
    }
}
