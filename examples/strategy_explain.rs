//! Strategy selection under the hood (paper Section 5.5): shows, for
//! queries of increasing selectivity, which access strategy SIEVE's cost
//! model picks (LinearScan / IndexQuery / IndexGuards), the EXPLAIN the
//! engine reports, and the rewritten SQL.
//!
//! Run with: `cargo run --release --example strategy_explain`

use sieve::core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, TableSchema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        "wifi_dataset",
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
        ],
    ))?;
    for i in 0..80_000i64 {
        db.insert(
            "wifi_dataset",
            vec![
                Value::Int(i),
                Value::Int(i % 800),
                Value::Int(1000 + i % 64),
                Value::Time(((i * 173) % 86_400) as u32),
            ],
        )?;
    }
    for col in ["owner", "wifi_ap", "ts_time"] {
        db.create_index("wifi_dataset", col)?;
    }
    db.analyze("wifi_dataset")?;

    let sieve = SieveService::new(db, SieveOptions::default())?;
    // 30 owners allow querier 1 at a couple of APs.
    for o in 0..30 {
        sieve.add_policy(Policy::new(
            o,
            "wifi_dataset",
            QuerierSpec::User(1),
            "Any",
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Eq(Value::Int(1000 + o % 2)),
            )],
        ))?;
    }
    let qm = QueryMetadata::new(1, "Analytics");

    for (label, sql) in [
        (
            "very selective query (one AP, one hour)",
            "SELECT * FROM wifi_dataset WHERE wifi_ap = 1003 AND ts_time BETWEEN '09:00' AND '10:00'",
        ),
        (
            "medium query (three hours)",
            "SELECT * FROM wifi_dataset WHERE ts_time BETWEEN '09:00' AND '12:00'",
        ),
        ("unselective query (whole table)", "SELECT * FROM wifi_dataset"),
    ] {
        let query = sieve::minidb::sql::parse(sql)?;
        let rewritten = sieve.rewrite(&query, &qm)?;
        let info = &rewritten.relations[0];
        println!("== {label}");
        println!("   chosen strategy : {:?}", info.strategy);
        println!(
            "   estimates       : guards≈{:.0} rows, query≈{} rows",
            info.est_guard_rows,
            info.est_query_rows
                .map(|r| format!("{r:.0}"))
                .unwrap_or_else(|| "not sargable".into())
        );
        let explain = sieve.db().explain(&rewritten.query)?;
        print!("   engine EXPLAIN  :\n{}", indent(&explain.to_string()));
        println!(
            "   rewritten SQL   : {}\n",
            truncate(&sieve::minidb::sql::render_query(&rewritten.query), 160)
        );
    }
    Ok(())
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("     {l}\n")).collect()
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
