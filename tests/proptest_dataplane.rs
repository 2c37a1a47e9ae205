//! Property tests for the parallel, index-aware data plane: whatever the
//! planner picks for a guard-shaped predicate — exact index unions, bitmap
//! ORs with residual filters, morsel-parallel scans, plain sequential
//! scans — the rows that come back are identical to the sequential
//! full-scan oracle. Coverage spans thread counts, index availability
//! (none / partial / full), stale histograms, NULL index keys, and both
//! execution backends (in-process and wire-SQL).

use proptest::prelude::*;
use sieve::core::backend::{SqlBackend, WireSqlBackend};
use sieve::minidb::exec::ExecOptions;
use sieve::minidb::expr::{CmpOp, ColumnRef, Expr};
use sieve::minidb::plan::{IndexHint, TableRef};
use sieve::minidb::value::{DataType, Value};
use sieve::minidb::{Database, DbProfile, SelectQuery, TableSchema, PARALLEL_MIN_ROWS};

/// Which secondary indexes exist on the test table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Indexing {
    /// No indexes at all: every plan degrades to a scan.
    None,
    /// Only `a` is indexed: predicates on b/c force residual scans.
    Partial,
    /// a, b, and c all indexed (the guard-friendly layout).
    Full,
}

/// Build the table. Column `c` carries NULLs (every 13th row), so index
/// ranges with an unbounded low end include NULL keys — the case where
/// eliding the residual filter would be unsound.
fn build(rows: i64, profile: DbProfile, indexing: Indexing, stale_hist: bool) -> Database {
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
    let insert = |db: &mut Database, i: i64| {
        let c = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Time(((i * 557) % 86_400) as u32)
        };
        db.insert("t", vec![Value::Int(i), Value::Int(i % 23), Value::Int(i % 7), c])
            .unwrap();
    };
    // Stale-histogram case: index + analyze at 60% of the data, then keep
    // inserting without re-analyzing. Estimates go stale; results must not.
    let analyze_at = if stale_hist { rows * 6 / 10 } else { rows };
    for i in 0..analyze_at {
        insert(&mut db, i);
    }
    let cols: &[&str] = match indexing {
        Indexing::None => &[],
        Indexing::Partial => &["a"],
        Indexing::Full => &["a", "b", "c"],
    };
    for col in cols {
        db.create_index("t", col).unwrap();
    }
    db.analyze("t").unwrap();
    for i in analyze_at..rows {
        insert(&mut db, i);
    }
    db
}

/// A guard-shaped predicate: a top-level OR whose disjuncts are small
/// conjunctions — exactly what `compile_guard_fragment` emits. Leaves
/// include NULL-sensitive shapes (`c <= lit` probes from the unbounded
/// low end; `a = NULL` probes a NULL key) to stress residual elision.
fn arb_guard_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..23).prop_map(|v| Expr::col_eq(ColumnRef::bare("a"), Value::Int(v))),
        (0i64..7).prop_map(|v| Expr::col_eq(ColumnRef::bare("b"), Value::Int(v))),
        (0i64..23, 0i64..23).prop_map(|(x, y)| Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("a"))),
            list: vec![Expr::Literal(Value::Int(x)), Expr::Literal(Value::Int(y))],
            negated: false,
        }),
        (0u32..20, 1u32..8).prop_map(|(s, l)| Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("c"))),
            low: Box::new(Expr::Literal(Value::Time(s * 3600))),
            high: Box::new(Expr::Literal(Value::Time(((s + l) * 3600).min(86_399)))),
            negated: false,
        }),
        (1u32..24).prop_map(|h| Expr::col_cmp(
            ColumnRef::bare("c"),
            CmpOp::Le,
            Value::Time(h * 3600 - 1)
        )),
        Just(Expr::col_eq(ColumnRef::bare("a"), Value::Null)),
    ];
    proptest::collection::vec(
        proptest::collection::vec(leaf, 1..3).prop_map(Expr::all),
        1..5,
    )
    .prop_map(Expr::any)
}

fn scan_query(pred: &Expr) -> SelectQuery {
    SelectQuery {
        from: vec![TableRef::named("t").with_hint(IndexHint::IgnoreAll)],
        ..SelectQuery::star_from("t")
    }
    .filter(pred.clone())
}

fn forced_query(pred: &Expr) -> SelectQuery {
    SelectQuery {
        from: vec![TableRef::named("t").with_hint(IndexHint::Force(vec![
            "a".into(),
            "b".into(),
            "c".into(),
        ]))],
        ..SelectQuery::star_from("t")
    }
    .filter(pred.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Index unions and parallel scans are row-identical to the
    /// sequential full-scan oracle across plans × thread counts × index
    /// availability × histogram staleness, on both optimizer profiles.
    #[test]
    fn plans_and_threads_agree_with_scan_oracle(
        pred in arb_guard_pred(),
        rows in 1_000i64..2 * PARALLEL_MIN_ROWS as i64,
        idx in prop_oneof![Just(Indexing::None), Just(Indexing::Partial), Just(Indexing::Full)],
        stale in any::<bool>(),
        threads in prop_oneof![Just(0usize), Just(2), Just(5)],
    ) {
        let db_m = build(rows, DbProfile::MySqlLike, idx, stale);
        let db_p = build(rows, DbProfile::PostgresLike, idx, stale);
        let scan = scan_query(&pred);
        let forced = forced_query(&pred);
        let free = SelectQuery::star_from("t").filter(pred);

        // Oracle: single-threaded sequential scan (hints honoured on M).
        let mut reference = db_m.run_query(&scan).unwrap().rows;
        reference.sort();

        let opts = ExecOptions::with_threads(threads);
        for (db, q, label) in [
            (&db_m, &scan, "parallel scan (M)"),
            (&db_m, &forced, "forced union (M)"),
            (&db_m, &free, "planner choice (M)"),
            (&db_p, &free, "planner choice (P)"),
            (&db_p, &scan, "hints ignored (P)"),
        ] {
            let mut got = db.run_query_opts(q, &opts).unwrap().rows;
            got.sort();
            prop_assert_eq!(&got, &reference, "{} diverged (threads={})", label, threads);
        }
    }

    /// The same equivalence holds through the `SqlBackend` seam: the
    /// in-process backend and the wire backend (render → wire → re-parse)
    /// both honour the thread knob and return oracle-identical rows.
    #[test]
    fn backends_agree_under_thread_knob(
        pred in arb_guard_pred(),
        rows in 1_000i64..2 * PARALLEL_MIN_ROWS as i64,
        threads in prop_oneof![Just(0usize), Just(4)],
    ) {
        let db = build(rows, DbProfile::MySqlLike, Indexing::Full, false);
        let scan = scan_query(&pred);
        let forced = forced_query(&pred);
        let mut reference = db.run_query(&scan).unwrap().rows;
        reference.sort();

        let opts = ExecOptions::with_threads(threads);
        let backends: [(&'static str, Box<dyn SqlBackend>); 2] = [
            ("minidb", Box::new(db.clone())),
            ("wire-sql", Box::new(WireSqlBackend::new(db.clone()))),
        ];
        for q in [&scan, &forced] {
            for (name, backend) in &backends {
                let mut got = backend.exec(q, &opts).unwrap().rows;
                got.sort();
                prop_assert_eq!(&got, &reference, "backend {} diverged", name);
            }
        }
    }
}
