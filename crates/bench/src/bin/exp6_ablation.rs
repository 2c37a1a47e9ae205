//! Ablation study (DESIGN.md §5, not in the paper): how much each of
//! SIEVE's design choices contributes.
//!
//! * **Guard selection**: Algorithm 1 (`CostOptimal`) vs the trivially
//!   correct `OwnerOnly` baseline (one guard per owner, the strawman
//!   Section 4.1 argues against).
//! * **Candidate merging** (Theorem 1): on vs off.
//! * **Query-predicate pushdown** (Section 5.5): on vs off.
//! * **Inline/∆ choice**: cost-model `Auto` vs `Never` vs `Always`.

use minidb::DbProfile;
use sieve_bench::harness::{build_campus, emit, pick_queriers, time_enforcement, EnvConfig};
use sieve_bench::table::{mean, ms, render};
use sieve_core::guard::GuardSelectionStrategy;
use sieve_core::middleware::Enforcement;
use sieve_core::policy::QueryMetadata;
use sieve_core::rewrite::DeltaMode;
use sieve_workload::query_gen::generate_query;
use sieve_workload::{QueryClass, Selectivity, UserProfile};
use std::fmt::Write as _;

fn main() {
    let env = EnvConfig::from_env();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Ablation: contribution of SIEVE's design choices (scale={}) ===\n",
        env.scale
    );

    struct Variant {
        name: &'static str,
        selection: GuardSelectionStrategy,
        delta: DeltaMode,
        no_push: bool,
    }
    let variants = [
        Variant {
            name: "full SIEVE (Algorithm 1, auto-delta, pushdown)",
            selection: GuardSelectionStrategy::CostOptimal,
            delta: DeltaMode::Auto,
            no_push: false,
        },
        Variant {
            name: "owner-only guards",
            selection: GuardSelectionStrategy::OwnerOnly,
            delta: DeltaMode::Auto,
            no_push: false,
        },
        Variant {
            name: "no predicate pushdown",
            selection: GuardSelectionStrategy::CostOptimal,
            delta: DeltaMode::Auto,
            no_push: true,
        },
        Variant {
            name: "always inline (no delta)",
            selection: GuardSelectionStrategy::CostOptimal,
            delta: DeltaMode::Never,
            no_push: false,
        },
        Variant {
            name: "always delta",
            selection: GuardSelectionStrategy::CostOptimal,
            delta: DeltaMode::Always,
            no_push: false,
        },
    ];

    let cells: Vec<(QueryClass, Selectivity)> = vec![
        (QueryClass::Q1, Selectivity::Low),
        (QueryClass::Q1, Selectivity::High),
        (QueryClass::Q2, Selectivity::Mid),
    ];

    let mut rows_out = Vec::new();
    for v in &variants {
        let campus = build_campus(DbProfile::MySqlLike, &env);
        campus.sieve.with_options_mut(|o| {
            o.selection = v.selection;
            o.rewrite.delta_mode = v.delta;
            o.rewrite.no_predicate_pushdown = v.no_push;
        });
        let queriers = pick_queriers(&campus, UserProfile::Faculty, "Analytics", 2);
        let mut row = vec![v.name.to_string()];
        for (class, sel) in &cells {
            let mut vals = Vec::new();
            for &querier in &queriers {
                let qm = QueryMetadata::new(querier, "Analytics");
                let q = generate_query(&campus.dataset, *class, *sel, 5 + querier as u64);
                let t = time_enforcement(&campus.sieve, Enforcement::Sieve, &q, &qm, 2);
                if let Some(s) = t.sim_kcost {
                    vals.push(s);
                }
            }
            row.push(ms(mean(&vals)));
        }
        rows_out.push(row);
    }

    let headers: Vec<String> = std::iter::once("variant".to_string())
        .chain(
            cells
                .iter()
                .map(|(c, s)| format!("{} {} (kcost)", c.name(), s.name())),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let _ = writeln!(out, "{}", render(&header_refs, &rows_out));

    // Merging ablation is structural (affects candidate generation), so
    // report guard counts instead of times.
    let campus = build_campus(DbProfile::MySqlLike, &env);
    let querier = pick_queriers(&campus, UserProfile::Faculty, "Analytics", 1)[0];
    let qm = QueryMetadata::new(querier, "Analytics");
    let relevant = sieve_core::filter::relevant_policies(
        campus.policies.iter(),
        sieve_workload::WIFI_TABLE,
        &qm,
        &campus.sieve.groups(),
    );
    let db = campus.sieve.db();
    let entry = db.table(sieve_workload::WIFI_TABLE).unwrap();
    let with_merge = sieve_core::guard::generate_guarded_expression(
        &relevant,
        entry,
        &sieve_core::CostModel::default(),
        GuardSelectionStrategy::CostOptimal,
        querier,
        "Analytics",
        sieve_workload::WIFI_TABLE,
    );
    let no_merge_cost = sieve_core::CostModel {
        cr: 0.0, // Theorem 1 threshold becomes 1.0: merging never fires
        ..Default::default()
    };
    let without_merge = sieve_core::guard::generate_guarded_expression(
        &relevant,
        entry,
        &no_merge_cost,
        GuardSelectionStrategy::CostOptimal,
        querier,
        "Analytics",
        sieve_workload::WIFI_TABLE,
    );
    let _ = writeln!(
        out,
        "Theorem-1 merging: {} policies → {} guards (Σρ={:.0} rows) with merging, \
         {} guards (Σρ={:.0} rows) without",
        relevant.len(),
        with_merge.guards.len(),
        with_merge.total_guard_rows(),
        without_merge.guards.len(),
        without_merge.total_guard_rows(),
    );

    emit("exp6_ablation", &out);
}
