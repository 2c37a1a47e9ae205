//! Cross-crate correctness: every enforcement mechanism (SIEVE with every
//! strategy/∆ combination, and the three baselines) must produce exactly
//! the reference-oracle answer, on both optimizer profiles — the paper's
//! "sound and secure" criterion (Section 3.1).

use sieve::core::baselines::Baseline;
use sieve::core::cost::AccessStrategy;
use sieve::core::middleware::Enforcement;
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve::core::rewrite::DeltaMode;
use sieve::core::semantics::visible_rows;
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, Row, SelectQuery, TableSchema};

fn build_sieve(profile: DbProfile) -> SieveService {
    let mut db = Database::new(profile);
    db.create_table(TableSchema::of(
        "wifi_dataset",
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
            ("ts_date", DataType::Date),
        ],
    ))
    .unwrap();
    for i in 0..6000i64 {
        db.insert(
            "wifi_dataset",
            vec![
                Value::Int(i),
                Value::Int(i % 97),
                Value::Int(1000 + i % 13),
                Value::Time(((i * 197) % 86_400) as u32),
                Value::Date(18_000 + (i % 90) as i32),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time", "ts_date"] {
        db.create_index("wifi_dataset", col).unwrap();
    }
    db.analyze("wifi_dataset").unwrap();

    let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
    sieve.with_groups_mut(|g| g.add_member(5, 500)); // querier 500 in group 5
    // A mixed policy corpus: user- and group-targeted, equality, range,
    // IN-list, and varied purposes.
    for i in 0..40i64 {
        let owner = i % 20;
        let querier = if i % 3 == 0 {
            QuerierSpec::Group(5)
        } else {
            QuerierSpec::User(500)
        };
        let purpose = if i % 4 == 0 { "Any" } else { "Analytics" };
        let cond = match i % 4 {
            0 => ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1000 + i % 13))),
            1 => ObjectCondition::new(
                "ts_time",
                CondPredicate::between(
                    Value::Time(((i % 12) * 7200) as u32),
                    Value::Time((((i % 12) * 7200) + 10_000).min(86_399) as u32),
                ),
            ),
            2 => ObjectCondition::new(
                "wifi_ap",
                CondPredicate::In(vec![Value::Int(1001), Value::Int(1002), Value::Int(1003)]),
            ),
            _ => ObjectCondition::new(
                "ts_date",
                CondPredicate::between(Value::Date(18_010), Value::Date(18_060)),
            ),
        };
        sieve
            .add_policy(Policy::new(
                owner,
                "wifi_dataset",
                querier,
                purpose,
                vec![cond],
            ))
            .unwrap();
    }
    sieve
}

fn oracle(sieve: &SieveService, qm: &QueryMetadata) -> Vec<Row> {
    let policies = sieve.policies();
    let relevant: Vec<&Policy> = sieve::core::filter::relevant_policies(
        policies.iter(),
        "wifi_dataset",
        qm,
        &sieve.groups(),
    );
    let mut rows = visible_rows(&*sieve.db(), "wifi_dataset", &relevant).unwrap();
    rows.sort();
    rows
}

fn run_sorted(
    sieve: &SieveService,
    e: Enforcement,
    q: &SelectQuery,
    qm: &QueryMetadata,
) -> Vec<Row> {
    let (res, _) = sieve.run_timed(e, q, qm);
    let mut rows = res.expect("query must succeed").rows;
    rows.sort();
    rows
}

#[test]
fn all_mechanisms_equal_oracle_on_both_profiles() {
    for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
        let sieve = build_sieve(profile);
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let expect = oracle(&sieve, &qm);
        assert!(!expect.is_empty(), "oracle must be non-trivial");
        for e in [
            Enforcement::Sieve,
            Enforcement::Baseline(Baseline::P),
            Enforcement::Baseline(Baseline::I),
            Enforcement::Baseline(Baseline::U),
        ] {
            let got = run_sorted(&sieve, e, &q, &qm);
            assert_eq!(got, expect, "{e:?} on {profile:?} diverged from oracle");
        }
    }
}

#[test]
fn every_strategy_and_delta_mode_is_equivalent() {
    let qm = QueryMetadata::new(500, "Analytics");
    let q = SelectQuery::star_from("wifi_dataset");
    let mut reference: Option<Vec<Row>> = None;
    for strategy in [
        None,
        Some(AccessStrategy::LinearScan),
        Some(AccessStrategy::IndexQuery),
        Some(AccessStrategy::IndexGuards),
    ] {
        for delta in [DeltaMode::Auto, DeltaMode::Never, DeltaMode::Always] {
            let sieve = build_sieve(DbProfile::MySqlLike);
            sieve.with_options_mut(|o| {
                o.rewrite.forced_strategy = strategy;
                o.rewrite.delta_mode = delta;
            });
            let got = run_sorted(&sieve, Enforcement::Sieve, &q, &qm);
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(
                    &got, r,
                    "strategy {strategy:?} with delta {delta:?} diverged"
                ),
            }
        }
    }
    assert!(!reference.unwrap().is_empty());
}

#[test]
fn query_predicates_compose_with_policies() {
    let sieve = build_sieve(DbProfile::PostgresLike);
    let qm = QueryMetadata::new(500, "Analytics");
    let q = sieve::minidb::sql::parse(
        "SELECT * FROM wifi_dataset WHERE wifi_ap IN (1001, 1002) \
         AND ts_time BETWEEN '06:00' AND '18:00'",
    )
    .unwrap();
    let oracle_rows: Vec<Row> = oracle(&sieve, &qm)
        .into_iter()
        .filter(|r| {
            let ap = r[2].as_int().unwrap();
            let t = r[3].as_time().unwrap();
            (ap == 1001 || ap == 1002) && (6 * 3600..=18 * 3600).contains(&t)
        })
        .collect();
    for e in [
        Enforcement::Sieve,
        Enforcement::Baseline(Baseline::P),
        Enforcement::Baseline(Baseline::I),
        Enforcement::Baseline(Baseline::U),
    ] {
        let got = run_sorted(&sieve, e, &q, &qm);
        assert_eq!(got, oracle_rows, "{e:?} with query predicate diverged");
    }
}

#[test]
fn aggregation_happens_after_enforcement() {
    // Policies must be enforced before non-monotonic operations
    // (Section 3.1): a COUNT under enforcement must count only visible
    // rows, never leak the raw count.
    let sieve = build_sieve(DbProfile::MySqlLike);
    let qm = QueryMetadata::new(500, "Analytics");
    let visible = oracle(&sieve, &qm).len() as i64;
    let res = sieve
        .execute_sql("SELECT COUNT(*) AS n FROM wifi_dataset", &qm)
        .unwrap();
    assert_eq!(res.rows[0][0], Value::Int(visible));
    let raw = sieve.db().table("wifi_dataset").unwrap().table.len() as i64;
    assert!(visible < raw, "test needs a non-trivial policy filter");
}

#[test]
fn group_by_respects_enforcement() {
    let sieve = build_sieve(DbProfile::MySqlLike);
    let qm = QueryMetadata::new(500, "Analytics");
    let res = sieve
        .execute_sql(
            "SELECT wifi_ap, COUNT(*) AS n FROM wifi_dataset GROUP BY wifi_ap",
            &qm,
        )
        .unwrap();
    let oracle_rows = oracle(&sieve, &qm);
    // Sum of group counts equals total visible rows.
    let total: i64 = res.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(total as usize, oracle_rows.len());
}

#[test]
fn derived_value_policies_enforced() {
    // A policy whose AP is derived from another user's location
    // (Section 3.1's nested policy): owner 1 is visible only where
    // owner 2 also is (same AP, scalar subquery).
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        "wifi_dataset",
        &[("id", DataType::Int), ("owner", DataType::Int), ("wifi_ap", DataType::Int)],
    ))
    .unwrap();
    // Owner 2 is at AP 7; owner 1 has rows at APs 7 and 8.
    db.insert("wifi_dataset", vec![Value::Int(0), Value::Int(2), Value::Int(7)])
        .unwrap();
    db.insert("wifi_dataset", vec![Value::Int(1), Value::Int(1), Value::Int(7)])
        .unwrap();
    db.insert("wifi_dataset", vec![Value::Int(2), Value::Int(1), Value::Int(8)])
        .unwrap();
    db.create_index("wifi_dataset", "owner").unwrap();
    db.analyze("wifi_dataset").unwrap();
    let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
    let sub = sieve::minidb::sql::parse(
        "SELECT w2.wifi_ap FROM wifi_dataset AS w2 WHERE w2.owner = 2 LIMIT 1",
    )
    .unwrap();
    sieve
        .add_policy(Policy::new(
            1,
            "wifi_dataset",
            QuerierSpec::User(99),
            "Any",
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Derived(Box::new(sub)),
            )],
        ))
        .unwrap();
    let qm = QueryMetadata::new(99, "Anything");
    let rows = sieve
        .execute(&SelectQuery::star_from("wifi_dataset"), &qm)
        .unwrap();
    // Only owner 1's row at AP 7 (where owner 2 is) is visible.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.rows[0][1], Value::Int(1));
    assert_eq!(rows.rows[0][2], Value::Int(7));
}
