//! Adversarial enforcement-bypass suite: protected relations reached
//! through **nesting** — derived tables, WITH bodies, scalar subqueries,
//! CTE shadowing, and combinations — must be mediated exactly like
//! top-level reads (the incomplete-mediation failure Guarnieri et al.
//! formalize; before the recursive rewriter, every one of these shapes
//! escaped enforcement entirely).
//!
//! The oracle is query-shape-independent: run the *original* query
//! against a database whose protected table holds exactly the
//! `visible_rows` of the querier. Whatever rows that returns is what the
//! rewritten query on the full database must return.
//!
//! Every shape runs against **every execution backend** (`minidb`
//! in-process and `wire-sql`, whose rewritten queries must survive a
//! render → parse round trip), so the suite pins the `SqlBackend` trait
//! seam, not just the embedded engine.

use proptest::prelude::*;
use sieve::core::backend::{for_each_backend, DynBackend};
use sieve::core::baselines::Baseline;
use sieve::core::middleware::Enforcement;
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve::core::semantics::visible_rows;
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::expr::{CmpOp, ColumnRef, Expr};
use sieve::minidb::plan::{AggFunc, IndexHint, SelectItem, TableRef, TableSource};
use sieve::minidb::value::DataType;
use sieve::minidb::{Database, DbProfile, Row, SelectQuery, TableSchema, Value};

const REL: &str = "wifi_dataset";

fn wifi_schema() -> TableSchema {
    TableSchema::of(
        REL,
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
        ],
    )
}

fn boards_schema() -> TableSchema {
    TableSchema::of("boards", &[("k", DataType::Int), ("label", DataType::Int)])
}

fn load_boards(db: &mut Database) {
    db.create_table(boards_schema()).unwrap();
    for k in 0..64i64 {
        db.insert("boards", vec![Value::Int(k), Value::Int(k % 7)]).unwrap();
    }
}

/// The loaded database under test: protected wifi table + an unprotected
/// helper. Backend-agnostic — each backend run clones it.
fn loaded_db() -> Database {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(wifi_schema()).unwrap();
    for i in 0..3000i64 {
        db.insert(
            REL,
            vec![
                Value::Int(i),
                Value::Int(i % 60),
                Value::Int(1000 + i % 10),
                Value::Time(((i * 53) % 86400) as u32),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time"] {
        db.create_index(REL, col).unwrap();
    }
    load_boards(&mut db);
    db.analyze(REL).unwrap();
    db
}

fn corpus() -> Vec<Policy> {
    // Owners 0..15 allow querier 500 to see their rows at AP 1001, plus
    // one unconditional grant so simple shapes return rows.
    let mut policies: Vec<Policy> = (0..15i64)
        .map(|owner| {
            Policy::new(
                owner,
                REL,
                QuerierSpec::User(500),
                "Analytics",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::Eq(Value::Int(1001)),
                )],
            )
        })
        .collect();
    policies.push(Policy::new(17, REL, QuerierSpec::User(500), "Analytics", vec![]));
    policies
}

/// Run `f` once per backend against a fully loaded sieve, handing along
/// the oracle database (same content as the sieve's backend).
fn for_sieves(mut f: impl FnMut(&'static str, &SieveService<DynBackend>, &Database)) {
    let db = loaded_db();
    for_each_backend(&db, &SieveOptions::default(), |name, sieve| {
        for p in corpus() {
            sieve.add_policy(p).unwrap();
        }
        f(name, sieve, &db);
    });
}

/// A database identical to the sieve's, except the protected table holds
/// exactly the querier's visible rows. Running the *original* query here
/// yields the expected output for any query shape.
fn visible_database(
    sieve: &SieveService<DynBackend>,
    db: &Database,
    qm: &QueryMetadata,
) -> Database {
    let policies = sieve.policies();
    let relevant: Vec<&Policy> = sieve::core::filter::relevant_policies(
        policies.iter(),
        REL,
        qm,
        &sieve.groups(),
    );
    let visible = visible_rows(db, REL, &relevant).unwrap();
    let mut vdb = Database::new(DbProfile::MySqlLike);
    vdb.create_table(wifi_schema()).unwrap();
    for row in visible {
        vdb.insert(REL, row).unwrap();
    }
    load_boards(&mut vdb);
    vdb
}

/// Assert the sieve's output equals the visible-database oracle for the
/// same (unrewritten) query. Returns the row count for non-vacuousness
/// checks at the call site.
fn assert_enforced(
    backend: &str,
    sieve: &SieveService<DynBackend>,
    db: &Database,
    qm: &QueryMetadata,
    q: &SelectQuery,
) -> usize {
    let mut got = sieve.execute(q, qm).expect("sieve execute").rows;
    got.sort();
    let vdb = visible_database(sieve, db, qm);
    let mut expect = vdb.run_query(q).expect("oracle execute").rows;
    expect.sort();
    assert_eq!(got, expect, "enforcement bypass via {backend} for query {q:?}");
    got.len()
}

fn derived(q: SelectQuery, alias: &str) -> SelectQuery {
    SelectQuery {
        with: vec![],
        select: vec![SelectItem::Star],
        from: vec![TableRef {
            source: TableSource::Derived(Box::new(q)),
            alias: alias.into(),
            hint: IndexHint::None,
        }],
        predicate: None,
        group_by: vec![],
        limit: None,
    }
}

fn count_star(rel: &str) -> SelectQuery {
    SelectQuery {
        with: vec![],
        select: vec![SelectItem::Aggregate {
            func: AggFunc::Count,
            column: None,
            alias: Some("n".into()),
        }],
        from: vec![TableRef::named(rel)],
        predicate: None,
        group_by: vec![],
        limit: None,
    }
}

#[test]
fn derived_table_is_guarded() {
    for_sieves(|backend, sieve, db| {
        let qm = QueryMetadata::new(500, "Analytics");
        let q = derived(SelectQuery::star_from(REL), "d");
        let n = assert_enforced(backend, sieve, db, &qm, &q);
        assert!(n > 0, "authorized querier must see rows");
        // And strictly fewer than the raw table (enforcement actually bit).
        assert!(n < db.table(REL).unwrap().table.len());
    });
}

#[test]
fn doubly_nested_derived_table_is_guarded() {
    for_sieves(|backend, sieve, db| {
        let qm = QueryMetadata::new(500, "Analytics");
        let q = derived(derived(SelectQuery::star_from(REL), "inner1"), "outer1");
        assert!(assert_enforced(backend, sieve, db, &qm, &q) > 0);
    });
}

#[test]
fn with_body_is_guarded() {
    for_sieves(|backend, sieve, db| {
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("v").with_clause("v", SelectQuery::star_from(REL));
        assert!(assert_enforced(backend, sieve, db, &qm, &q) > 0);
    });
}

#[test]
fn scalar_subquery_is_guarded() {
    for_sieves(|backend, sieve, db| {
        let qm = QueryMetadata::new(500, "Analytics");
        // boards rows whose k is below the number of *visible* wifi rows:
        // the unguarded COUNT would see all 3000 rows and return every
        // board.
        let q = SelectQuery::star_from("boards").filter(Expr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(Expr::Column(ColumnRef::bare("k"))),
            rhs: Box::new(Expr::ScalarSubquery(Box::new(count_star(REL)))),
        });
        assert!(assert_enforced(backend, sieve, db, &qm, &q) > 0);
    });
}

#[test]
fn scalar_subquery_in_protected_query_is_guarded() {
    for_sieves(|backend, sieve, db| {
        let qm = QueryMetadata::new(500, "Analytics");
        // Both the outer read and the aggregate feeding its predicate are
        // protected reads.
        let max_owner = SelectQuery {
            select: vec![SelectItem::Aggregate {
                func: AggFunc::Max,
                column: Some(ColumnRef::bare("owner")),
                alias: Some("m".into()),
            }],
            ..SelectQuery::star_from(REL)
        };
        let q = SelectQuery::star_from(REL).filter(Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(Expr::Column(ColumnRef::bare("owner"))),
            rhs: Box::new(Expr::ScalarSubquery(Box::new(max_owner))),
        });
        assert!(assert_enforced(backend, sieve, db, &qm, &q) > 0);
    });
}

#[test]
fn cte_shadowing_protected_name_resolves_to_cte() {
    for_sieves(|backend, sieve, db| {
        let qm = QueryMetadata::new(500, "Analytics");
        // The WITH body reads the protected base table (must be guarded);
        // the main body's `wifi_dataset` is the CTE, not a second base
        // read.
        let body = SelectQuery::star_from(REL).filter(Expr::col_eq(
            ColumnRef::bare("wifi_ap"),
            Value::Int(1001),
        ));
        let q = SelectQuery::star_from(REL).with_clause(REL, body);
        assert!(assert_enforced(backend, sieve, db, &qm, &q) > 0);
    });
}

#[test]
fn cte_shadowing_without_protected_read_stays_untouched() {
    for_sieves(|backend, sieve, _db| {
        let qm = QueryMetadata::new(500, "Analytics");
        // A CTE named like the protected relation but reading only the
        // unprotected helper: nothing here is access-controlled, and
        // treating the CTE reference as the base table would be wrong in
        // both directions.
        let q =
            SelectQuery::star_from(REL).with_clause(REL, SelectQuery::star_from("boards"));
        let rows = sieve.execute(&q, &qm).unwrap().rows;
        assert_eq!(
            rows.len(),
            64,
            "CTE result replaced the protected name via {backend}"
        );
        assert_eq!(sieve.generations(), 0, "no guard generation for a CTE read");
    });
}

#[test]
fn with_clause_referencing_guarded_base_and_join() {
    for_sieves(|backend, sieve, db| {
        let qm = QueryMetadata::new(500, "Analytics");
        // The relation is read twice — once in a CTE body, once in the
        // main body — so the guard CTE is shared and no pushdown applies.
        let body = SelectQuery::star_from(REL).filter(Expr::col_eq(
            ColumnRef::bare("wifi_ap"),
            Value::Int(1001),
        ));
        let q = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Star],
            from: vec![
                TableRef::aliased(REL, "w"),
                TableRef::aliased("v", "v"),
            ],
            predicate: Some(Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("w", "id"))),
                rhs: Box::new(Expr::Column(ColumnRef::qualified("v", "id"))),
            }),
            group_by: vec![],
            limit: None,
        }
        .with_clause("v", body);
        assert!(assert_enforced(backend, sieve, db, &qm, &q) > 0);
    });
}

#[test]
fn nested_combination_with_derived_and_scalar_subquery() {
    for_sieves(|backend, sieve, db| {
        let qm = QueryMetadata::new(500, "Analytics");
        // WITH a AS (SELECT * FROM (SELECT * FROM wifi)) SELECT * FROM a
        // WHERE owner <= (SELECT MAX(owner) FROM wifi)
        let max_owner = SelectQuery {
            select: vec![SelectItem::Aggregate {
                func: AggFunc::Max,
                column: Some(ColumnRef::bare("owner")),
                alias: Some("m".into()),
            }],
            ..SelectQuery::star_from(REL)
        };
        let q = SelectQuery::star_from("a")
            .with_clause("a", derived(SelectQuery::star_from(REL), "z"))
            .filter(Expr::Cmp {
                op: CmpOp::Le,
                lhs: Box::new(Expr::Column(ColumnRef::bare("owner"))),
                rhs: Box::new(Expr::ScalarSubquery(Box::new(max_owner))),
            });
        assert!(assert_enforced(backend, sieve, db, &qm, &q) > 0);
    });
}

#[test]
fn unauthorized_querier_sees_nothing_through_nesting() {
    for_sieves(|backend, sieve, _db| {
        let qm = QueryMetadata::new(999, "Analytics");
        for q in [
            derived(SelectQuery::star_from(REL), "d"),
            SelectQuery::star_from("v").with_clause("v", SelectQuery::star_from(REL)),
            SelectQuery::star_from(REL).with_clause(REL, SelectQuery::star_from(REL)),
        ] {
            assert!(
                sieve.execute(&q, &qm).unwrap().is_empty(),
                "unauthorized rows leaked through {q:?} via {backend}"
            );
        }
        // The scalar-subquery COUNT must observe zero visible rows.
        let q = SelectQuery::star_from("boards").filter(Expr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(Expr::Column(ColumnRef::bare("k"))),
            rhs: Box::new(Expr::ScalarSubquery(Box::new(count_star(REL)))),
        });
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    });
}

#[test]
fn sql_text_round_trip_is_guarded() {
    for_sieves(|_backend, sieve, db| {
        let qm = QueryMetadata::new(500, "Analytics");
        let res = sieve
            .execute_sql(
                "SELECT COUNT(*) AS n FROM (SELECT * FROM wifi_dataset) d",
                &qm,
            )
            .unwrap();
        let n = res.rows[0][0].as_int().unwrap();
        let policies = sieve.policies();
        let relevant: Vec<&Policy> = sieve::core::filter::relevant_policies(
            policies.iter(),
            REL,
            &qm,
            &sieve.groups(),
        );
        let expect = visible_rows(db, REL, &relevant).unwrap().len() as i64;
        assert_eq!(n, expect);
        assert!(n > 0);
    });
}

/// Deny semantics on every backend: deny policies factored into the allow
/// set (paper Section 3.1) must enforce `allow ∧ ¬deny` — checked against
/// a manual oracle computed straight from the raw rows, so `factor_deny`,
/// the rewriter, and (on `wire-sql`) render/parse fidelity are all on the
/// hook. One deny carries Time literals; the other's literals are
/// `Double`s over a Double column, whose fractional and integral-valued
/// bounds must both survive the wire typed.
#[test]
fn deny_policies_are_enforced_on_every_backend() {
    use sieve::core::deny::factor_deny;
    const OFFICE_LO: u32 = 32_400; // 09:00
    const OFFICE_HI: u32 = 57_600; // 16:00
    const SIG_LO: f64 = -10.0; // integral-valued Double: the old render
    const SIG_HI: f64 = 5.5; //   emitted "-10", silently retyping it
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        REL,
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
            ("signal", DataType::Double),
        ],
    ))
    .unwrap();
    for i in 0..2000i64 {
        db.insert(
            REL,
            vec![
                Value::Int(i),
                Value::Int(i % 40),
                Value::Int(1000 + i % 10),
                Value::Time(((i * 53) % 86400) as u32),
                Value::Double((i % 89) as f64 * 0.5 - 20.0),
            ],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap", "ts_time", "signal"] {
        db.create_index(REL, col).unwrap();
    }
    db.analyze(REL).unwrap();

    // Owners 0..20 allow querier 500 at AP 1001; owner 1 additionally
    // denies office hours, owner 11 denies a signal band. (With ap =
    // 1000 + i%10 and owner = i%40, the owners holding AP-1001 rows are
    // exactly {1, 11, 21, 31} — the denies must target owners that have
    // rows to deny.)
    let allow_for = |owner: i64| {
        Policy::new(
            owner,
            REL,
            QuerierSpec::User(500),
            "Analytics",
            vec![ObjectCondition::new(
                "wifi_ap",
                CondPredicate::Eq(Value::Int(1001)),
            )],
        )
    };
    let mut policies: Vec<Policy> = Vec::new();
    for owner in 0..20i64 {
        match owner {
            1 => policies.extend(
                factor_deny(
                    &allow_for(1),
                    &[ObjectCondition::new(
                        "ts_time",
                        CondPredicate::between(Value::Time(OFFICE_LO), Value::Time(OFFICE_HI)),
                    )],
                )
                .unwrap(),
            ),
            11 => policies.extend(
                factor_deny(
                    &allow_for(11),
                    &[ObjectCondition::new(
                        "signal",
                        CondPredicate::between(Value::Double(SIG_LO), Value::Double(SIG_HI)),
                    )],
                )
                .unwrap(),
            ),
            _ => policies.push(allow_for(owner)),
        }
    }

    // Manual oracle straight from the raw rows: allow ∧ ¬deny.
    let mut expect: Vec<Row> = db
        .table(REL)
        .unwrap()
        .table
        .rows()
        .iter()
        .filter(|r| {
            let owner = r[1].as_int().unwrap();
            let ap = r[2].as_int().unwrap();
            let ts = match r[3] {
                Value::Time(t) => t,
                _ => unreachable!(),
            };
            let sig = match r[4] {
                Value::Double(s) => s,
                _ => unreachable!(),
            };
            (0..20).contains(&owner)
                && ap == 1001
                && !(owner == 1 && (OFFICE_LO..=OFFICE_HI).contains(&ts))
                && !(owner == 11 && (SIG_LO..=SIG_HI).contains(&sig))
        })
        .cloned()
        .collect();
    expect.sort();
    let allow_only = db
        .table(REL)
        .unwrap()
        .table
        .rows()
        .iter()
        .filter(|r| (0..20).contains(&r[1].as_int().unwrap()) && r[2] == Value::Int(1001))
        .count();
    assert!(!expect.is_empty(), "some rows must survive the denies");
    assert!(expect.len() < allow_only, "the denies must remove rows");
    for owner in [1i64, 11] {
        let kept = expect.iter().filter(|r| r[1] == Value::Int(owner)).count();
        let had = db
            .table(REL)
            .unwrap()
            .table
            .rows()
            .iter()
            .filter(|r| r[1] == Value::Int(owner) && r[2] == Value::Int(1001))
            .count();
        assert!(kept > 0, "owner {owner}'s deny must not swallow the allow");
        assert!(kept < had, "owner {owner}'s deny must remove rows");
    }

    let qm = QueryMetadata::new(500, "Analytics");
    let mut backends = 0;
    for_each_backend(&db, &SieveOptions::default(), |name, sieve| {
        backends += 1;
        for p in &policies {
            sieve.add_policy(p.clone()).unwrap();
        }
        // Top-level read and a nested read must both enforce the denies.
        for q in [
            SelectQuery::star_from(REL),
            derived(SelectQuery::star_from(REL), "d"),
        ] {
            let mut got = sieve.execute(&q, &qm).expect("sieve execute").rows;
            got.sort();
            assert_eq!(got, expect, "deny bypass via {name} for query {q:?}");
        }
    });
    assert_eq!(backends, 2);
}

#[test]
fn baselines_fail_closed_on_nested_reads() {
    for_sieves(|backend, sieve, _db| {
        let qm = QueryMetadata::new(500, "Analytics");
        let nested = derived(SelectQuery::star_from(REL), "d");
        // A relation read BOTH top-level and nested: the top-level filter
        // would attach, but the scalar-subquery COUNT would still read
        // every base row — the overlap must refuse too, not slip past the
        // gate.
        let overlap = SelectQuery::star_from(REL).filter(Expr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(Expr::Column(ColumnRef::bare("id"))),
            rhs: Box::new(Expr::ScalarSubquery(Box::new(count_star(REL)))),
        });
        // Every run leaves the ∆ registry as it found it: Baseline U's
        // partitions live exactly as long as the run that registered them.
        for q in [&nested, &overlap] {
            for b in [Baseline::P, Baseline::I, Baseline::U] {
                let partitions = sieve.delta_len();
                let (res, _) = sieve.run_timed(Enforcement::Baseline(b), q, &qm);
                assert!(
                    res.is_err(),
                    "baseline {b:?} via {backend} must refuse nested protected \
                     reads, not bypass them"
                );
                assert_eq!(sieve.delta_len(), partitions, "{b:?} via {backend}");
            }
        }
        // Top-level reads still work (including under a CTE that shadows
        // the protected name with an unprotected body... which is a
        // nested-scope question the baselines never see).
        let top = SelectQuery::star_from(REL);
        for b in [Baseline::P, Baseline::I, Baseline::U] {
            let partitions = sieve.delta_len();
            let (res, _) = sieve.run_timed(Enforcement::Baseline(b), &top, &qm);
            assert!(res.is_ok(), "baseline {b:?} via {backend}: {res:?}");
            assert_eq!(sieve.delta_len(), partitions, "{b:?} via {backend}");
        }
    });
}

/// Random nesting: wrap the protected scan in 0..4 layers of derived
/// tables / fresh CTEs / shadowing CTEs, optionally adding a correlated-
/// free scalar-subquery predicate, and check the visible-database oracle
/// on every backend.
#[derive(Debug, Clone)]
struct Nesting {
    wraps: Vec<u8>,
    scalar_pred: bool,
    ap_filter: bool,
}

fn arb_nesting() -> impl Strategy<Value = Nesting> {
    (
        proptest::collection::vec(0u8..3, 0..4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(wraps, scalar_pred, ap_filter)| Nesting {
            wraps,
            scalar_pred,
            ap_filter,
        })
}

fn build_nested(n: &Nesting) -> SelectQuery {
    let mut q = SelectQuery::star_from(REL);
    if n.ap_filter {
        q = q.filter(Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(1001)));
    }
    for (i, w) in n.wraps.iter().enumerate() {
        q = match w {
            0 => derived(q, &format!("d{i}")),
            1 => SelectQuery::star_from(format!("v{i}"))
                .with_clause(format!("v{i}"), q),
            _ => SelectQuery::star_from(REL).with_clause(REL, q),
        };
    }
    if n.scalar_pred {
        let max_owner = SelectQuery {
            select: vec![SelectItem::Aggregate {
                func: AggFunc::Max,
                column: Some(ColumnRef::bare("owner")),
                alias: Some("m".into()),
            }],
            ..SelectQuery::star_from(REL)
        };
        q = q.and_filter(Expr::Cmp {
            op: CmpOp::Le,
            lhs: Box::new(Expr::Column(ColumnRef::bare("owner"))),
            rhs: Box::new(Expr::ScalarSubquery(Box::new(max_owner))),
        });
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_nesting_matches_visible_oracle(
        nesting in arb_nesting(),
        authorized in any::<bool>(),
    ) {
        let qm = QueryMetadata::new(if authorized { 500 } else { 901 }, "Analytics");
        let q = build_nested(&nesting);
        let mut per_backend: Vec<Vec<Row>> = Vec::new();
        for_sieves(|name, sieve, db| {
            let mut got = sieve.execute(&q, &qm).expect("sieve execute").rows;
            got.sort();
            let vdb = visible_database(sieve, db, &qm);
            let mut expect = vdb.run_query(&q).expect("oracle execute").rows;
            expect.sort();
            assert_eq!(&got, &expect, "nesting {nesting:?} via backend {name}");
            if !authorized {
                let leaked: Vec<&Row> = got
                    .iter()
                    .filter(|r| r.len() == 4) // wifi-shaped rows
                    .collect();
                assert!(leaked.is_empty(), "unauthorized querier saw rows via {name}");
            }
            per_backend.push(got);
        });
        for pair in per_backend.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1], "backends disagree on {:?}", nesting);
        }
    }
}
