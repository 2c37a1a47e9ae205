//! Property tests over the static soundness verifier
//! (`sieve::core::analyze`), tying its symbolic verdicts back to the
//! engine's concrete semantics:
//!
//! 1. **Proven means sound**: for random policy sets, the generated
//!    guarded expression must never be `Refuted`, and whenever the
//!    verifier says `Proven`, executing the rewritten predicate through
//!    the engine returns only rows the reference oracle
//!    (`semantics::visible_rows`) allows.
//! 2. **Dead policies are dead**: removing every policy the
//!    `dead_policy` lint flags changes nothing about the visible row
//!    set.
//! 3. **Refuted means leak**: a seeded widening bug (a foreign policy
//!    id smuggled into a guard partition) is refuted with a witness
//!    that *replays* — inserted into the table, the witness row comes
//!    back from the widened predicate while the querier's real policies
//!    reject it.
//! 4. **The service enforces its own proofs**: with
//!    `SieveOptions::verify_rewrites` on, end-to-end enforcement still
//!    works and matches the oracle (generation is checked, not broken).
//! 5. **Audit determinism**: the same store audited twice renders
//!    byte-identical JSON.

use proptest::prelude::*;
use sieve::core::analyze::{self, AnalysisReport, CheckRecord, FindingKind, Verdict};
use sieve::core::cost::CostModel;
use sieve::core::guard::{generate_guarded_expression, GuardSelectionStrategy};
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, PolicyId, QuerierSpec, QueryMetadata,
};
use sieve::core::semantics::{eval_policies, visible_rows};
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, SelectQuery, TableSchema};
use std::collections::{BTreeSet, HashMap};

const REL: &str = "wifi_dataset";

fn test_db(rows: i64, owners: i64) -> Database {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        REL,
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
        ],
    ))
    .unwrap();
    for i in 0..rows {
        db.insert(
            REL,
            vec![
                Value::Int(i),
                Value::Int(i % owners),
                Value::Int(1000 + i % 8),
                Value::Time(((i * 379) % 86_400) as u32),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time"] {
        db.create_index(REL, col).unwrap();
    }
    db.analyze(REL).unwrap();
    db
}

fn arb_condition() -> impl Strategy<Value = ObjectCondition> {
    prop_oneof![
        (1000i64..1008).prop_map(|ap| ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Eq(Value::Int(ap))
        )),
        (0u32..20, 1u32..6).prop_map(|(start_h, len_h)| {
            let lo = start_h * 3600;
            let hi = ((start_h + len_h) * 3600).min(86_399);
            ObjectCondition::new(
                "ts_time",
                CondPredicate::between(Value::Time(lo), Value::Time(hi)),
            )
        }),
        proptest::collection::vec(1000i64..1008, 1..4).prop_map(|aps| ObjectCondition::new(
            "wifi_ap",
            CondPredicate::In(aps.into_iter().map(Value::Int).collect())
        )),
    ]
}

fn arb_policy(owners: i64) -> impl Strategy<Value = Policy> {
    (0..owners, proptest::collection::vec(arb_condition(), 0..3))
        .prop_map(|(owner, conds)| Policy::new(owner, REL, QuerierSpec::User(1), "Any", conds))
}

fn with_ids(mut policies: Vec<Policy>) -> Vec<Policy> {
    for (i, p) in policies.iter_mut().enumerate() {
        p.id = i as PolicyId + 1;
    }
    policies
}

fn generate(refs: &[&Policy], db: &Database) -> sieve::core::guard::GuardedExpression {
    let entry = db.table(REL).unwrap();
    generate_guarded_expression(
        refs,
        entry,
        &CostModel::default(),
        GuardSelectionStrategy::CostOptimal,
        1,
        "Any",
        REL,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // 1. Generation is never refuted, and a `Proven` verdict is backed by
    //    the engine: the rewritten predicate admits only oracle-visible
    //    rows.
    #[test]
    fn proven_guard_admits_only_visible_rows(
        policies in proptest::collection::vec(arb_policy(12), 1..30)
    ) {
        let db = test_db(1200, 12);
        let policies = with_ids(policies);
        let refs: Vec<&Policy> = policies.iter().collect();
        let ge = generate(&refs, &db);
        let by_id: HashMap<PolicyId, &Policy> = policies.iter().map(|p| (p.id, p)).collect();

        let verdict = analyze::verify_guarded_expression(&ge, &by_id, &refs);
        prop_assert!(
            !verdict.is_refuted(),
            "correct generation refuted: {verdict}"
        );
        if verdict.is_proven() {
            let got = db
                .run_query(&SelectQuery::star_from(REL).filter(ge.to_expr(&by_id)))
                .unwrap()
                .rows;
            let visible: BTreeSet<Vec<Value>> =
                visible_rows(&db, REL, &refs).unwrap().into_iter().collect();
            for row in &got {
                prop_assert!(
                    visible.contains(row),
                    "proven guard leaked row {row:?}"
                );
            }
        }
    }

    // 2. Policies the dead-policy lint flags contribute nothing: removing
    //    them leaves the oracle-visible row set unchanged.
    #[test]
    fn dead_policy_removal_is_a_noop(
        policies in proptest::collection::vec(arb_policy(8), 1..25)
    ) {
        let db = test_db(800, 8);
        let policies = with_ids(policies);
        let refs: Vec<&Policy> = policies.iter().collect();
        let dead: BTreeSet<PolicyId> = analyze::lint_policies(&refs, REL, 64)
            .into_iter()
            .filter(|f| f.kind == FindingKind::DeadPolicy)
            .flat_map(|f| f.policies)
            .collect();
        let kept: Vec<&Policy> = refs.iter().copied().filter(|p| !dead.contains(&p.id)).collect();

        let full = visible_rows(&db, REL, &refs).unwrap();
        let pruned = visible_rows(&db, REL, &kept).unwrap();
        prop_assert_eq!(full, pruned, "removing dead policies changed visibility");
    }
}

// 3. A seeded widening bug — a foreign owner's policy id pushed into a
//    guard partition — is refuted, and its witness is a *real* leak:
//    inserted into the table it satisfies the widened predicate through
//    the engine while the querier's actual policies reject it.
#[test]
fn refuted_witness_replays_as_concrete_leak() {
    let mut db = test_db(800, 8);
    let mine = with_ids(vec![
        Policy::new(
            0,
            REL,
            QuerierSpec::User(1),
            "Any",
            vec![ObjectCondition::new(
                "ts_time",
                CondPredicate::between(Value::Time(9 * 3600), Value::Time(17 * 3600)),
            )],
        ),
        Policy::new(
            0,
            REL,
            QuerierSpec::User(1),
            "Any",
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Eq(Value::Int(1003)),
            )],
        ),
    ]);
    let refs: Vec<&Policy> = mine.iter().collect();
    let mut ge = generate(&refs, &db);

    // The widening bug: another querier's unconditional grant on the
    // same owner lands in the first guard's partition (same owner, so
    // the guard's owner condition cannot mask the widening).
    let mut foreign = Policy::new(0, REL, QuerierSpec::User(2), "Any", vec![]);
    foreign.id = 999;
    let mut by_id: HashMap<PolicyId, &Policy> = mine.iter().map(|p| (p.id, p)).collect();
    by_id.insert(foreign.id, &foreign);
    ge.guards[0].policies.push(foreign.id);

    let verdict = analyze::verify_guarded_expression(&ge, &by_id, &refs);
    let Verdict::Refuted { witness } = verdict else {
        panic!("seeded widening not refuted: {verdict}");
    };

    // Replay: materialise the witness as a stored row (absent columns are
    // NULL, exactly the verifier's model) and run the widened predicate
    // through the engine.
    let schema_cols = ["id", "owner", "wifi_ap", "ts_time"];
    let row: Vec<Value> = schema_cols
        .iter()
        .map(|c| witness.get(*c).cloned().unwrap_or(Value::Null))
        .collect();
    {
        let entry = db.table(REL).unwrap();
        assert!(
            !eval_policies(&refs, entry.schema(), &row, None).allowed,
            "witness row is allowed by the querier's policies — not a leak"
        );
    }
    db.insert(REL, row.clone()).unwrap();
    let leaked = db
        .run_query(&SelectQuery::star_from(REL).filter(ge.to_expr(&by_id)))
        .unwrap()
        .rows;
    assert!(
        leaked.contains(&row),
        "witness row did not replay through the widened predicate"
    );
}

// 4. `verify_rewrites` on the live service: enforcement still works end
//    to end (every generation is proven, none refused) and matches the
//    oracle.
#[test]
fn service_with_verification_matches_oracle() {
    let db = test_db(800, 8);
    let policies = vec![
        Policy::new(
            0,
            REL,
            QuerierSpec::User(1),
            "Any",
            vec![ObjectCondition::new(
                "ts_time",
                CondPredicate::between(Value::Time(8 * 3600), Value::Time(18 * 3600)),
            )],
        ),
        Policy::new(1, REL, QuerierSpec::User(1), "Any", vec![]),
        Policy::new(
            2,
            REL,
            QuerierSpec::User(1),
            "Any",
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::In(vec![Value::Int(1001), Value::Int(1005)]),
            )],
        ),
    ];
    let sieve = SieveService::new(
        db,
        SieveOptions {
            verify_rewrites: true,
            ..Default::default()
        },
    )
    .unwrap();
    sieve.add_policies(policies).unwrap();

    let qm = QueryMetadata::new(1, "Any");
    let got = sieve.execute(&SelectQuery::star_from(REL), &qm).unwrap();

    let stored = sieve.policies();
    let refs: Vec<&Policy> = stored.iter().collect();
    let expect: BTreeSet<Vec<Value>> = visible_rows(&*sieve.db(), REL, &refs)
        .unwrap()
        .into_iter()
        .collect();
    let got: BTreeSet<Vec<Value>> = got.rows.into_iter().collect();
    assert_eq!(got, expect, "verified enforcement diverged from the oracle");
    assert!(!expect.is_empty(), "scenario must be non-trivial");
}

// 5. Auditing the same store twice renders byte-identical JSON.
#[test]
fn audit_report_is_deterministic() {
    fn run_audit() -> String {
        let db = test_db(600, 6);
        let mut policies = Vec::new();
        for owner in 0..6i64 {
            policies.push(Policy::new(
                owner,
                REL,
                QuerierSpec::User(1),
                "Any",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::Eq(Value::Int(1000 + owner)),
                )],
            ));
        }
        // One dead policy and one subsumed grant, so the findings arrays
        // are non-empty.
        policies.push(Policy::new(
            0,
            REL,
            QuerierSpec::User(1),
            "Any",
            vec![
                ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1000))),
                ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(1001))),
            ],
        ));
        policies.push(Policy::new(
            1,
            REL,
            QuerierSpec::User(1),
            "Any",
            vec![ObjectCondition::new(
                "ts_time",
                CondPredicate::between(Value::Time(10 * 3600), Value::Time(11 * 3600)),
            )],
        ));
        let policies = with_ids(policies);
        let refs: Vec<&Policy> = policies.iter().collect();
        let by_id: HashMap<PolicyId, &Policy> = policies.iter().map(|p| (p.id, p)).collect();
        let ge = generate(&refs, &db);

        let mut report = AnalysisReport::new("proptest");
        report.findings.extend(analyze::lint_policies(&refs, REL, 32));
        report
            .findings
            .extend(analyze::lint_guarded_expression(&ge, &by_id));
        report.checks.push(CheckRecord {
            relation: REL.to_string(),
            querier: 1,
            purpose: "Any".to_string(),
            guards: ge.guards.len(),
            policies: refs.len(),
            verdict: analyze::verify_guarded_expression(&ge, &by_id, &refs),
        });
        report.sort();
        report.to_json()
    }

    let a = run_audit();
    let b = run_audit();
    assert_eq!(a, b, "audit is not deterministic");
    assert!(a.contains("\"dead_policy\""), "expected a dead-policy finding:\n{a}");
    assert!(a.contains("\"proven\": 1"), "expected the check to prove:\n{a}");
}
