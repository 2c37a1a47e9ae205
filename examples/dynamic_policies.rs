//! Dynamic policy management (paper Section 6): policies arrive while
//! queries run. Shows (a) immediate regeneration, (b) the optimal-rate
//! policy deferring regeneration while still enforcing pending policies,
//! and (c) the closed-form regeneration interval k̃ vs an empirical scan.
//!
//! Run with: `cargo run --release --example dynamic_policies`

use sieve::core::dynamic::{
    empirical_best_interval, optimal_regeneration_interval, RegenerationPolicy,
};
use sieve::core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve::core::{CostModel, SieveOptions, SieveService};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, SelectQuery, TableSchema};

fn policy(owner: i64) -> Policy {
    Policy::new(
        owner,
        "wifi_dataset",
        QuerierSpec::User(500),
        "Analytics",
        vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Eq(Value::Int(1005)),
        )],
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        "wifi_dataset",
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
        ],
    ))?;
    for i in 0..30_000i64 {
        db.insert(
            "wifi_dataset",
            vec![
                Value::Int(i),
                Value::Int(i % 300),
                Value::Int(1000 + i % 16),
            ],
        )?;
    }
    db.create_index("wifi_dataset", "owner")?;
    db.create_index("wifi_dataset", "wifi_ap")?;
    db.analyze("wifi_dataset")?;

    // Defer regeneration per the Section 6 optimal rate: one query per
    // policy insertion.
    let sieve = SieveService::new(db, SieveOptions::default())?;
    sieve.with_options_mut(|o| {
        o.regeneration = RegenerationPolicy::OptimalRate {
            queries_per_insertion: 1.0,
        }
    });
    for owner in 0..50 {
        sieve.add_policy(policy(owner))?;
    }

    let qm = QueryMetadata::new(500, "Analytics");
    let query = SelectQuery::star_from("wifi_dataset");
    let n0 = sieve.execute(&query, &qm)?.len();
    println!("initial visible rows: {n0} (generations: {})", sieve.generations());

    // Interleave policy insertions with queries; enforcement is always
    // exact (pending policies ride along as extra guard branches), while
    // regeneration fires only at the k̃ threshold.
    for owner in 50..80 {
        sieve.add_policy(policy(owner))?;
        let n = sieve.execute(&query, &qm)?.len();
        println!(
            "after policy for owner {owner}: visible={n}, regenerations so far={}",
            sieve.generations()
        );
    }

    // The closed form vs the empirical optimum (Equation 19).
    let cost = CostModel::default();
    let k_formula = optimal_regeneration_interval(&cost, 400.0, 1.0);
    let k_emp = empirical_best_interval(&cost, 400.0, 1.0, 200, 100, 3);
    println!("\nEquation 19 k̃ = {k_formula:.1}; empirical scan minimum = {k_emp}");
    Ok(())
}
