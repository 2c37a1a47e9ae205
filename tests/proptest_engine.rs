//! Property tests over the engine substrate: whatever access path the
//! planner picks (forced unions, bitmap ORs, sequential scans), the rows
//! that come back are identical — and histogram estimates stay sane.

use proptest::prelude::*;
use sieve::minidb::expr::{CmpOp, ColumnRef, Expr};
use sieve::minidb::plan::{IndexHint, SelectItem, TableRef};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, RangeBound, Row, SelectQuery, TableSchema};

fn build(rows: i64, profile: DbProfile) -> Database {
    let mut db = Database::new(profile);
    db.create_table(TableSchema::of(
        "t",
        &[
            ("id", DataType::Int),
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Time),
        ],
    ))
    .unwrap();
    for i in 0..rows {
        db.insert(
            "t",
            vec![
                Value::Int(i),
                Value::Int(i % 23),
                Value::Int(i % 7),
                Value::Time(((i * 557) % 86_400) as u32),
            ],
        )
        .unwrap();
    }
    db.create_index("t", "a").unwrap();
    db.create_index("t", "b").unwrap();
    db.create_index("t", "c").unwrap();
    db.analyze("t").unwrap();
    // A small outer side for joins on t.a; its columns share no name
    // with t's, so bare a, b, c stay unambiguous in a join.
    db.create_table(TableSchema::of("s", &[("k", DataType::Int), ("tag", DataType::Int)]))
        .unwrap();
    for i in 0..30i64 {
        db.insert("s", vec![Value::Int(i % 23), Value::Int(i)]).unwrap();
    }
    db
}

/// `WITH v AS (SELECT * FROM t <hint> WHERE p) <reader>`.
fn over_cte(p: &Expr, hint: &IndexHint, reader: SelectQuery) -> SelectQuery {
    let body = SelectQuery {
        from: vec![TableRef::named("t").with_hint(hint.clone())],
        ..SelectQuery::star_from("t")
    }
    .filter(p.clone());
    reader.with_clause("v", body)
}

/// `alias.a = s.k`.
fn joins_s(alias: &str) -> Expr {
    Expr::Cmp {
        op: CmpOp::Eq,
        lhs: Box::new(Expr::Column(ColumnRef::qualified("s", "k"))),
        rhs: Box::new(Expr::Column(ColumnRef::qualified(alias, "a"))),
    }
}

fn sorted_rows(db: &Database, q: &SelectQuery) -> Vec<Row> {
    let mut rows = db.run_query(q).unwrap().rows;
    rows.sort();
    rows
}

fn arb_hint() -> impl Strategy<Value = IndexHint> {
    prop_oneof![
        Just(IndexHint::None),
        Just(IndexHint::Force(vec!["a".into(), "b".into(), "c".into()])),
        Just(IndexHint::IgnoreAll),
    ]
}

/// A random predicate whose leaves are all sargable (so forced index
/// plans are possible) over columns a, b, c.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..23).prop_map(|v| Expr::col_eq(ColumnRef::bare("a"), Value::Int(v))),
        (0i64..7).prop_map(|v| Expr::col_eq(ColumnRef::bare("b"), Value::Int(v))),
        (0u32..20, 1u32..8).prop_map(|(s, l)| Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("c"))),
            low: Box::new(Expr::Literal(Value::Time(s * 3600))),
            high: Box::new(Expr::Literal(Value::Time(((s + l) * 3600).min(86_399)))),
            negated: false,
        }),
        (0i64..23, 0i64..23).prop_map(|(x, y)| Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("a"))),
            list: vec![Expr::Literal(Value::Int(x)), Expr::Literal(Value::Int(y))],
            negated: false,
        }),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::Or),
            proptest::collection::vec(inner, 2..3).prop_map(Expr::And),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_access_paths_agree(pred in arb_pred(), rows in 500i64..2500) {
        // Reference: IgnoreAll hint forces a sequential scan on MySqlLike.
        let db_m = build(rows, DbProfile::MySqlLike);
        let db_p = build(rows, DbProfile::PostgresLike);
        let scan = SelectQuery {
            from: vec![TableRef::named("t").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("t")
        }
        .filter(pred.clone());
        let forced = SelectQuery {
            from: vec![TableRef::named("t").with_hint(IndexHint::Force(vec![
                "a".into(),
                "b".into(),
                "c".into(),
            ]))],
            ..SelectQuery::star_from("t")
        }
        .filter(pred.clone());
        let free = SelectQuery::star_from("t").filter(pred);

        let mut reference = db_m.run_query(&scan).unwrap().rows;
        reference.sort();
        for (db, q, label) in [
            (&db_m, &forced, "forced union (M)"),
            (&db_m, &free, "planner choice (M)"),
            (&db_p, &free, "planner choice (P)"),
            (&db_p, &scan, "hints ignored (P)"),
        ] {
            let mut got = db.run_query(q).unwrap().rows;
            got.sort();
            prop_assert_eq!(&got, &reference, "{} diverged", label);
        }
    }

    #[test]
    fn merged_cte_agrees_with_materialized_and_scan(
        p in arb_pred(),
        q in arb_pred(),
        hint in arb_hint(),
        rows in 500i64..2500,
    ) {
        let x_cols: Vec<SelectItem> = ["id", "a", "b", "c"]
            .iter()
            .map(|c| SelectItem::Column { column: ColumnRef::qualified("x", *c), alias: None })
            .collect();
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let db = build(rows, profile);
            // (c) the no-CTE oracle: one sequential scan under p AND q.
            let oracle = SelectQuery {
                from: vec![TableRef::named("t").with_hint(IndexHint::IgnoreAll)],
                ..SelectQuery::star_from("t")
            }
            .filter(Expr::and(p.clone(), q.clone()));
            let want = sorted_rows(&db, &oracle);

            // (a) read once: merged into the reader.
            let merged = over_cte(
                &p,
                &hint,
                SelectQuery::star_from("v")
                    .from_tables(vec![TableRef::aliased("v", "x")])
                    .filter(q.clone()),
            );
            let plan = db.explain(&merged).unwrap();
            prop_assert_eq!(&plan.relations[0].access_desc, "Merged(t)");
            prop_assert_eq!(&sorted_rows(&db, &merged), &want, "merged {:?}", profile);

            // (b) read twice: materialized once, self-joined on the key.
            let twice = over_cte(&p, &hint, SelectQuery {
                select: x_cols.clone(),
                from: vec![TableRef::aliased("v", "x"), TableRef::aliased("v", "y")],
                ..SelectQuery::star_from("v")
            })
            .filter(Expr::all(vec![
                Expr::Cmp {
                    op: CmpOp::Eq,
                    lhs: Box::new(Expr::Column(ColumnRef::qualified("x", "id"))),
                    rhs: Box::new(Expr::Column(ColumnRef::qualified("y", "id"))),
                },
                q.map(&mut |e| match e {
                    Expr::Column(c) => Some(Expr::Column(ColumnRef::qualified("x", &c.column))),
                    _ => None,
                }),
            ]));
            let plan = db.explain(&twice).unwrap();
            prop_assert_eq!(&plan.relations[0].access_desc, "SeqScan(temp)");
            prop_assert_eq!(&sorted_rows(&db, &twice), &want, "materialized {:?}", profile);

            // (d) the merged CTE as a join's inner side, probed per outer
            // row through t.a, against the same join over the base table.
            let join = over_cte(
                &p,
                &hint,
                SelectQuery::star_from("s")
                    .from_tables(vec![TableRef::named("s"), TableRef::aliased("v", "x")])
                    .filter(Expr::and(joins_s("x"), q.clone())),
            );
            let plan = db.explain(&join).unwrap();
            prop_assert_eq!(&plan.relations[1].access_desc, "IndexNestedLoop(a)");
            let base_join = SelectQuery::star_from("s")
                .from_tables(vec![TableRef::named("s"), TableRef::aliased("t", "x")])
                .filter(Expr::all(vec![joins_s("x"), p.clone(), q.clone()]));
            prop_assert_eq!(
                &sorted_rows(&db, &join),
                &sorted_rows(&db, &base_join),
                "join {:?}",
                profile
            );
        }
    }

    #[test]
    fn histogram_estimates_bounded_and_monotone(
        rows in 200i64..3000,
        point in 0i64..23,
        lo in 0u32..12,
        width in 1u32..12,
    ) {
        let db = build(rows, DbProfile::MySqlLike);
        let entry = db.table("t").unwrap();
        let h = entry.histogram("a").unwrap();
        // Equality estimates are bounded by the total.
        let est = h.estimate_eq(&Value::Int(point));
        prop_assert!(est >= 0.0 && est <= rows as f64);
        // Range estimates grow with the range.
        let hc = entry.histogram("c").unwrap();
        let narrow = hc.estimate_range(
            &RangeBound::Inclusive(Value::Time(lo * 3600)),
            &RangeBound::Inclusive(Value::Time((lo + width) * 3600)),
        );
        let wide = hc.estimate_range(
            &RangeBound::Inclusive(Value::Time(lo * 3600)),
            &RangeBound::Inclusive(Value::Time(((lo + width) * 3600 + 7200).min(86_399))),
        );
        prop_assert!(wide + 1e-9 >= narrow, "wide {wide} < narrow {narrow}");
        prop_assert!(wide <= rows as f64 + 1e-9);
    }

    #[test]
    fn explain_estimates_track_actual_cardinality(v in 0i64..23) {
        // For an equality on a uniformly distributed column the planner's
        // estimate must be within a small factor of the true count.
        let db = build(2300, DbProfile::MySqlLike);
        let pred = Expr::col_cmp(ColumnRef::bare("a"), CmpOp::Eq, Value::Int(v));
        let q = SelectQuery::star_from("t").filter(pred);
        let explain = db.explain(&q).unwrap();
        let est = explain.relations[0].est_rows;
        let actual = db.run_query(&q).unwrap().len() as f64;
        prop_assert!(actual > 0.0);
        let ratio = (est / actual).max(actual / est);
        prop_assert!(ratio < 4.0, "estimate {est} vs actual {actual}");
    }
}
