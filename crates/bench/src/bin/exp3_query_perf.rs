//! Experiment 3 (paper Section 7.2): query evaluation performance —
//! regenerates **Table 8** (overall) and **Tables 9/10/11** (per-profile
//! breakdowns for Q1/Q2/Q3).
//!
//! For each query template (Q1, Q2, Q3) × selectivity class (low, mid,
//! high), queriers from four profiles (Faculty, Grad, Undergrad, Staff)
//! run the query under BaselineP, BaselineI, BaselineU and SIEVE, with the
//! paper's 30 s timeout. Cells report the average warm execution; `TO`
//! marks strategies that timed out on every query of the group.

use minidb::DbProfile;
use sieve_bench::harness::{build_campus, emit, pick_queriers, time_enforcement, EnvConfig};
use sieve_bench::table::{mean, ms, render};
use sieve_core::baselines::Baseline;
use sieve_core::middleware::Enforcement;
use sieve_core::policy::QueryMetadata;
use sieve_workload::query_gen::generate_query;
use sieve_workload::{QueryClass, Selectivity, UserProfile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const MECHS: [(&str, Enforcement); 4] = [
    ("BaselineP", Enforcement::Baseline(Baseline::P)),
    ("BaselineI", Enforcement::Baseline(Baseline::I)),
    ("BaselineU", Enforcement::Baseline(Baseline::U)),
    ("SIEVE", Enforcement::Sieve),
];

const PROFILES: [UserProfile; 4] = [
    UserProfile::Faculty,
    UserProfile::Grad,
    UserProfile::Undergrad,
    UserProfile::Staff,
];

fn main() {
    let env = EnvConfig::from_env();
    let queriers_per_profile: usize = std::env::var("SIEVE_QUERIERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Experiment 3: SIEVE vs baselines (Tables 8-11; scale={}, timeout={:?}) ===\n",
        env.scale, env.timeout
    );

    let campus = build_campus(DbProfile::MySqlLike, &env);
    let purpose = "Analytics";

    // (mech, class, sel, profile) → per-run simulated kilocosts.
    let mut sims: BTreeMap<(String, QueryClass, usize, UserProfile), Vec<f64>> = BTreeMap::new();
    let mut walls: BTreeMap<(String, QueryClass, usize, UserProfile), Vec<f64>> = BTreeMap::new();
    let mut timeouts: BTreeMap<(String, QueryClass, usize, UserProfile), usize> = BTreeMap::new();
    let mut attempts: BTreeMap<(String, QueryClass, usize, UserProfile), usize> = BTreeMap::new();

    for profile in PROFILES {
        let queriers = pick_queriers(&campus, profile, purpose, queriers_per_profile);
        for &querier in &queriers {
            let qm = QueryMetadata::new(querier, purpose);
            for class in QueryClass::ALL {
                for (si, sel) in Selectivity::ALL.iter().enumerate() {
                    let query =
                        generate_query(&campus.dataset, class, *sel, 31 * querier as u64 + si as u64);
                    for (name, mech) in MECHS {
                        let key = (name.to_string(), class, si, profile);
                        *attempts.entry(key.clone()).or_insert(0) += 1;
                        let t = time_enforcement(&campus.sieve, mech, &query, &qm, 2);
                        match (t.sim_kcost, t.wall_ms) {
                            (Some(s), Some(w)) => {
                                sims.entry(key.clone()).or_default().push(s);
                                walls.entry(key).or_default().push(w);
                            }
                            _ => {
                                *timeouts.entry(key).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    let cell = |name: &str, class: QueryClass, si: usize, profiles: &[UserProfile]| -> String {
        let mut vals = Vec::new();
        let mut to = 0usize;
        let mut att = 0usize;
        for p in profiles {
            let key = (name.to_string(), class, si, *p);
            if let Some(v) = sims.get(&key) {
                vals.extend_from_slice(v);
            }
            to += timeouts.get(&key).copied().unwrap_or(0);
            att += attempts.get(&key).copied().unwrap_or(0);
        }
        match mean(&vals) {
            None if att > 0 => "TO".to_string(),
            None => "-".to_string(),
            Some(m) if to > 0 => format!("{}+", ms(Some(m))),
            Some(m) => ms(Some(m)),
        }
    };

    // ---- Table 8: overall.
    let _ = writeln!(
        out,
        "--- Table 8: overall comparison (simulated kilocost; '+' = some runs timed out) ---"
    );
    let mut rows = Vec::new();
    for class in QueryClass::ALL {
        for (si, sel) in Selectivity::ALL.iter().enumerate() {
            let mut row = vec![format!("{} {}", class.name(), sel.name())];
            for (name, _) in MECHS {
                row.push(cell(name, class, si, &PROFILES));
            }
            rows.push(row);
        }
    }
    let _ = writeln!(
        out,
        "{}",
        render(
            &["query", "BaselineP", "BaselineI", "BaselineU", "SIEVE"],
            &rows
        )
    );

    // Wall-clock variant of Table 8 for reference.
    let wall_cell = |name: &str, class: QueryClass, si: usize| -> String {
        let mut vals = Vec::new();
        for p in PROFILES {
            if let Some(v) = walls.get(&(name.to_string(), class, si, p)) {
                vals.extend_from_slice(v);
            }
        }
        ms(mean(&vals))
    };
    let _ = writeln!(out, "--- Table 8 (wall-clock ms, this machine) ---");
    let mut rows = Vec::new();
    for class in QueryClass::ALL {
        for (si, sel) in Selectivity::ALL.iter().enumerate() {
            let mut row = vec![format!("{} {}", class.name(), sel.name())];
            for (name, _) in MECHS {
                row.push(wall_cell(name, class, si));
            }
            rows.push(row);
        }
    }
    let _ = writeln!(
        out,
        "{}",
        render(
            &["query", "BaselineP", "BaselineI", "BaselineU", "SIEVE"],
            &rows
        )
    );

    // ---- Tables 9/10/11: per-profile breakdown per query class.
    for (class, tbl) in [
        (QueryClass::Q1, "Table 9"),
        (QueryClass::Q2, "Table 10"),
        (QueryClass::Q3, "Table 11"),
    ] {
        let _ = writeln!(
            out,
            "--- {tbl}: {} by querier profile (simulated kilocost) ---",
            class.name()
        );
        let mut rows = Vec::new();
        for p in PROFILES {
            for (si, sel) in Selectivity::ALL.iter().enumerate() {
                let mut row = vec![format!("{} {}", p.label(), sel.name())];
                for (name, _) in MECHS {
                    row.push(cell(name, class, si, &[p]));
                }
                rows.push(row);
            }
        }
        let _ = writeln!(
            out,
            "{}",
            render(
                &["profile", "BaselineP", "BaselineI", "BaselineU", "SIEVE"],
                &rows
            )
        );
    }

    emit("exp3_query_perf", &out);
}
