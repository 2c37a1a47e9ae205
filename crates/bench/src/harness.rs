//! Shared experiment setup: build the campus/mall environments, pick
//! queriers, and time enforcement strategies the way Section 7 does.

use minidb::{Database, DbProfile};
use sieve_core::filter::relevant_policies;
use sieve_core::policy::{Policy, QueryMetadata, UserId};
use sieve_core::{SieveOptions, SieveService};
use sieve_workload::profiles::UserProfile;
use sieve_workload::tippers::{generate as generate_tippers, TippersConfig, TippersDataset};
use sieve_workload::policy_gen::{generate_policies, PolicyGenConfig};
use std::time::{Duration, Instant};

/// Environment knobs read from the process environment so the same
/// binaries drive quick runs and near-paper-scale runs:
/// `SIEVE_SCALE` (default 0.05), `SIEVE_DAYS` (default 90),
/// `SIEVE_TIMEOUT_MS` (default 30000, the paper's 30 s).
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Dataset scale factor.
    pub scale: f64,
    /// Observation days.
    pub days: u32,
    /// Query timeout.
    pub timeout: Duration,
}

impl EnvConfig {
    /// Read from the environment.
    pub fn from_env() -> Self {
        let scale = std::env::var("SIEVE_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.05);
        let days = std::env::var("SIEVE_DAYS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(90);
        let timeout_ms = std::env::var("SIEVE_TIMEOUT_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(30_000u64);
        EnvConfig {
            scale,
            days,
            timeout: Duration::from_millis(timeout_ms),
        }
    }
}

/// A fully-loaded campus: SIEVE wrapping the TIPPERS database, with the
/// Section 7.1 policy corpus registered and groups wired up.
pub struct Campus {
    /// The middleware (owns the database).
    pub sieve: SieveService,
    /// Device directory and dataset metadata.
    pub dataset: TippersDataset,
    /// The full policy corpus (also registered in `sieve`).
    pub policies: Vec<Policy>,
}

/// Build the campus environment.
pub fn build_campus(profile: DbProfile, env: &EnvConfig) -> Campus {
    let mut db = Database::new(profile);
    let dataset = generate_tippers(
        &mut db,
        &TippersConfig {
            seed: 7,
            scale: env.scale,
            days: env.days,
        },
    )
    .expect("tippers generation");
    let policies = generate_policies(&dataset, &PolicyGenConfig::default());
    let sieve = SieveService::new(
        db,
        SieveOptions {
            timeout: Some(env.timeout),
            ..Default::default()
        },
    )
    .expect("sieve init");
    sieve.with_groups_mut(|g| *g = dataset.groups.clone());
    sieve
        .add_policies(policies.iter().cloned())
        .expect("register policies");
    // Re-collect with the store-assigned ids so direct guard generation
    // (Experiment 1) sees distinct policy identities.
    let policies = sieve.policies();
    Campus {
        sieve,
        dataset,
        policies,
    }
}

/// Number of policies relevant to a querier for the wifi relation.
pub fn querier_policy_count(campus: &Campus, querier: UserId, purpose: &str) -> usize {
    let qm = QueryMetadata::new(querier, purpose);
    relevant_policies(
        campus.policies.iter(),
        sieve_workload::WIFI_TABLE,
        &qm,
        &campus.sieve.groups(),
    )
    .len()
}

/// Pick `n` queriers of a profile, preferring those with the most
/// relevant policies (the paper selects queriers with ≥ a policy floor).
pub fn pick_queriers(
    campus: &Campus,
    profile: UserProfile,
    purpose: &str,
    n: usize,
) -> Vec<UserId> {
    let mut candidates: Vec<(usize, UserId)> = campus
        .dataset
        .devices_of(profile)
        .map(|d| (querier_policy_count(campus, d.id, purpose), d.id))
        .collect();
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    candidates.into_iter().take(n).map(|(_, id)| id).collect()
}

/// All non-visitor queriers with at least `min_policies` relevant
/// policies, most-covered first.
pub fn queriers_with_policies(
    campus: &Campus,
    purpose: &str,
    min_policies: usize,
) -> Vec<(UserId, usize)> {
    let mut out: Vec<(UserId, usize)> = campus
        .dataset
        .devices
        .iter()
        .filter(|d| d.profile != UserProfile::Visitor)
        .map(|d| (d.id, querier_policy_count(campus, d.id, purpose)))
        .filter(|(_, c)| *c >= min_policies)
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Result of timing one (strategy, query) pair.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall milliseconds (None on timeout).
    pub wall_ms: Option<f64>,
    /// Simulated cost in kilounits (None on timeout).
    pub sim_kcost: Option<f64>,
    /// Result row count (0 on timeout).
    pub rows: usize,
}

/// Run a query under an enforcement mechanism `reps` times (after one
/// warm-up run, as the paper reports warm times) and average. Generic
/// over the execution backend so the same timing loop measures the
/// in-process and wire-SQL paths (Experiment 4's backend comparison).
pub fn time_enforcement<B: sieve_core::SqlBackend>(
    sieve: &SieveService<B>,
    enforcement: sieve_core::middleware::Enforcement,
    query: &minidb::SelectQuery,
    qm: &QueryMetadata,
    reps: usize,
) -> Timing {
    // Warm-up (also populates the guard cache / registers ∆ partitions).
    let (first, _) = sieve.run_timed(enforcement, query, qm);
    if first.is_err() {
        return Timing {
            wall_ms: None,
            sim_kcost: None,
            rows: 0,
        };
    }
    let mut walls = Vec::with_capacity(reps);
    let mut sims = Vec::with_capacity(reps);
    let mut rows = 0usize;
    for _ in 0..reps.max(1) {
        let (res, stats) = sieve.run_timed(enforcement, query, qm);
        match res {
            Ok(r) => {
                rows = r.len();
                walls.push(stats.wall_ms());
                sims.push(stats.simulated_cost / 1e3);
            }
            Err(_) => {
                return Timing {
                    wall_ms: None,
                    sim_kcost: None,
                    rows: 0,
                }
            }
        }
    }
    Timing {
        wall_ms: crate::table::mean(&walls),
        sim_kcost: crate::table::mean(&sims),
        rows,
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best block-mean over `blocks` blocks of `reps` calls, in ms/call.
/// The gated overheads compare figures of tens of µs on a shared host; a
/// single mean drifts with scheduler noise, while the best block is
/// stable run to run (transient stalls only ever slow a block down, so
/// the minimum converges on the true cost).
pub fn best_block_ms(reps: usize, blocks: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..blocks {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(ms(t.elapsed()) / reps as f64);
    }
    best
}

/// Write `content` to `results/<file>`, reporting the outcome on stderr.
fn save(file: &str, content: &str) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(file);
    match std::fs::write(&path, content) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Write experiment output both to stdout and `results/<name>.txt`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    save(&format!("{name}.txt"), content);
}

/// Write a machine-readable bench record to `results/<name>.json`.
pub fn write_json(name: &str, json: &str) {
    save(&format!("{name}.json"), json);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> EnvConfig {
        EnvConfig {
            scale: 0.005,
            days: 30,
            timeout: Duration::from_secs(10),
        }
    }

    #[test]
    fn campus_builds_and_queriers_have_policies() {
        let campus = build_campus(DbProfile::MySqlLike, &tiny_env());
        assert!(campus.policies.len() > 100);
        let faculty = pick_queriers(&campus, UserProfile::Faculty, "Analytics", 2);
        assert!(!faculty.is_empty());
        assert!(querier_policy_count(&campus, faculty[0], "Analytics") > 0);
    }

    #[test]
    fn timing_produces_numbers() {
        let campus = build_campus(DbProfile::MySqlLike, &tiny_env());
        let querier = pick_queriers(&campus, UserProfile::Grad, "Analytics", 1)[0];
        let qm = QueryMetadata::new(querier, "Analytics");
        let q = minidb::SelectQuery::star_from(sieve_workload::WIFI_TABLE);
        let t = time_enforcement(
            &campus.sieve,
            sieve_core::middleware::Enforcement::Sieve,
            &q,
            &qm,
            2,
        );
        assert!(t.wall_ms.is_some());
        assert!(t.sim_kcost.unwrap() > 0.0);
    }
}
