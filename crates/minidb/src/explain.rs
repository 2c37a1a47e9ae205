//! EXPLAIN: expose the planner's decisions without executing.
//!
//! The paper's SIEVE "first runs the EXPLAIN of query Qi which returns a
//! high-level view of the query plan including, for each relation, the
//! particular access strategy (table scan or a specific index) the
//! optimizer plans to use and the estimated selectivity of the predicate"
//! (Section 5.5). That is exactly the contract of [`ExplainOutput`].

use crate::catalog::Database;
use crate::error::DbResult;
use crate::exec::ExecOptions;
use crate::plan::{SelectQuery, TableSource};
use crate::planner::{classify_predicate, mergeable_cte, plan_access_opts, AccessPlan, ScanOptions};
use std::fmt;
use std::sync::Arc;

/// Planner decision for one relation in the FROM clause.
#[derive(Debug, Clone)]
pub struct RelationPlan {
    /// FROM alias.
    pub alias: String,
    /// Base table name (or the WITH/derived name).
    pub table: String,
    /// Chosen access plan.
    pub access: AccessPlan,
    /// Human-readable access description.
    pub access_desc: String,
    /// Estimated rows fetched from the heap.
    pub est_rows: f64,
    /// Estimated fraction of the table fetched (the paper's ρ/|r|).
    pub est_fraction: f64,
    /// Total rows in the relation.
    pub table_rows: u64,
}

/// EXPLAIN output: one entry per FROM relation of the outermost body.
/// WITH-clause bodies are explained recursively in `ctes`.
#[derive(Debug, Clone, Default)]
pub struct ExplainOutput {
    /// Plans for the body's FROM relations. A materialized CTE or derived
    /// table is always scanned and reported as `SeqScan(temp)` /
    /// `SeqScan(derived)`. A CTE merged into its reader (see
    /// [`crate::planner::mergeable_cte`]) carries its body's plan and is
    /// reported as `Merged(<table>)`, or `IndexNestedLoop(<column>)` when
    /// it is a join's inner side probed per outer row.
    pub relations: Vec<RelationPlan>,
    /// EXPLAIN of each WITH clause, in definition order — merged ones
    /// included, since their body plan is what reads the table.
    pub ctes: Vec<(String, ExplainOutput)>,
}

impl fmt::Display for ExplainOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, e) in &self.ctes {
            writeln!(f, "CTE {name}:")?;
            for line in e.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        for r in &self.relations {
            writeln!(
                f,
                "{} ({}): {} est_rows={:.1} ({:.2}% of {})",
                r.alias,
                r.table,
                r.access_desc,
                r.est_rows,
                r.est_fraction * 100.0,
                r.table_rows
            )?;
        }
        Ok(())
    }
}

/// Produce the EXPLAIN of a query with default execution options
/// (sequential scans).
pub fn explain_query(db: &Database, query: &SelectQuery) -> DbResult<ExplainOutput> {
    explain_query_opts(db, query, &ExecOptions::default())
}

/// Produce the EXPLAIN of a query as it would be planned under `opts`:
/// the thread knob surfaces morsel-parallel scans
/// (`ParallelScan(morsels=…)`) and tightens the PostgreSQL-like bitmap
/// gate exactly as execution would.
pub fn explain_query_opts(
    db: &Database,
    query: &SelectQuery,
    opts: &ExecOptions,
) -> DbResult<ExplainOutput> {
    explain_scoped(db, query, opts, &[])
}

/// EXPLAIN of `query` with the CTE names of enclosing scopes in `outer`.
fn explain_scoped(
    db: &Database,
    query: &SelectQuery,
    opts: &ExecOptions,
    outer: &[String],
) -> DbResult<ExplainOutput> {
    let scan = ScanOptions {
        threads: opts.threads,
    };
    let mut out = ExplainOutput::default();
    let mut cte_names: Vec<String> = outer.to_vec();
    let mut merged = Vec::new();
    for (i, wc) in query.with.iter().enumerate() {
        let body = explain_scoped(db, &wc.query, opts, &cte_names)?;
        let cte = mergeable_cte(query, i, |n| outer.iter().any(|o| o == n));
        if let Some(entry) = cte.and_then(|c| db.table(c.table).ok()) {
            merged.push((wc.name.as_str(), entry, body.relations[0].clone()));
        }
        out.ctes.push((wc.name.clone(), body));
        cte_names.push(wc.name.clone());
    }

    // Build the schema list for predicate classification.
    let mut table_schemas = Vec::new();
    for tref in &query.from {
        let schema = match &tref.source {
            TableSource::Named(name) if !cte_names.contains(name) && db.has_table(name) => {
                db.table(name)?.schema().clone()
            }
            TableSource::Named(name) => match merged.iter().find(|m| m.0 == name.as_str()) {
                Some(m) => m.1.schema().clone(),
                None => Arc::new(crate::schema::TableSchema::new(tref.alias.clone(), vec![])),
            },
            // Materialized CTE and derived relations: schema unknown here;
            // use an empty placeholder (their predicates cannot be
            // classified as local, which is conservative — they are scans
            // anyway).
            TableSource::Derived(_) => {
                Arc::new(crate::schema::TableSchema::new(tref.alias.clone(), vec![]))
            }
        };
        table_schemas.push((tref.alias.clone(), schema));
    }
    let classified = match &query.predicate {
        Some(p) => classify_predicate(p, &table_schemas),
        None => Default::default(),
    };

    for (k, tref) in query.from.iter().enumerate() {
        let (table_name, entry) = match &tref.source {
            TableSource::Named(name) => {
                if let Some((_, entry, body)) = merged.iter().find(|m| m.0 == name.as_str()) {
                    // Probed per outer row exactly when the executor's
                    // index nested-loop applies: an inner side keyed on an
                    // indexed column.
                    let joined: Vec<String> =
                        query.from[..k].iter().map(|t| t.alias.clone()).collect();
                    let probe = classified
                        .joins_to(&tref.alias, &joined)
                        .first()
                        .map(|c| c.column_of(&tref.alias))
                        .filter(|c| entry.index_on(c).is_some());
                    out.relations.push(RelationPlan {
                        alias: tref.alias.clone(),
                        table: name.clone(),
                        access_desc: match probe {
                            Some(col) => format!("IndexNestedLoop({col})"),
                            None => format!("Merged({})", entry.schema().name),
                        },
                        ..body.clone()
                    });
                    continue;
                }
                if cte_names.contains(name) || !db.has_table(name) {
                    out.relations.push(RelationPlan {
                        alias: tref.alias.clone(),
                        table: name.clone(),
                        access: AccessPlan::SeqScan,
                        access_desc: "SeqScan(temp)".into(),
                        est_rows: f64::NAN,
                        est_fraction: f64::NAN,
                        table_rows: 0,
                    });
                    continue;
                }
                (name.clone(), db.table(name)?)
            }
            TableSource::Derived(_) => {
                out.relations.push(RelationPlan {
                    alias: tref.alias.clone(),
                    table: "<derived>".into(),
                    access: AccessPlan::SeqScan,
                    access_desc: "SeqScan(derived)".into(),
                    est_rows: f64::NAN,
                    est_fraction: f64::NAN,
                    table_rows: 0,
                });
                continue;
            }
        };
        let local = classified.local_predicate(&tref.alias);
        let plan = plan_access_opts(
            entry,
            &tref.alias,
            local.as_ref(),
            &tref.hint,
            db.profile(),
            scan,
        );
        let est_rows = plan.estimate_rows(entry);
        let rows = entry.table.len().max(1) as f64;
        out.relations.push(RelationPlan {
            alias: tref.alias.clone(),
            table: table_name,
            access_desc: plan.describe(),
            access: plan,
            est_rows,
            est_fraction: est_rows / rows,
            table_rows: entry.table.len() as u64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ColumnRef, Expr};
    use crate::plan::{IndexHint, TableRef};
    use crate::planner::DbProfile;
    use crate::schema::TableSchema;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "w",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..500i64 {
            db.insert("w", vec![Value::Int(i), Value::Int(i % 25)]).unwrap();
        }
        db.create_index("w", "owner").unwrap();
        db.analyze("w").unwrap();
        db
    }

    #[test]
    fn explain_reports_index_choice() {
        let db = db();
        let q = SelectQuery::star_from("w")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        let e = db.explain(&q).unwrap();
        assert_eq!(e.relations.len(), 1);
        assert!(e.relations[0].access_desc.starts_with("IndexScan"));
        assert!(e.relations[0].est_fraction < 0.1);
    }

    #[test]
    fn explain_reports_scan_when_hinted_off() {
        let db = db();
        let q = SelectQuery {
            from: vec![TableRef::named("w").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("w")
        }
        .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        let e = db.explain(&q).unwrap();
        assert_eq!(e.relations[0].access_desc, "SeqScan");
        assert_eq!(e.relations[0].est_rows, 500.0);
    }

    #[test]
    fn explain_renders_parallel_scan_and_index_union() {
        use crate::planner::PARALLEL_MIN_ROWS;
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "big",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..(PARALLEL_MIN_ROWS as i64 + 500) {
            db.insert("big", vec![Value::Int(i), Value::Int(i % 40)]).unwrap();
        }
        db.create_index("big", "owner").unwrap();

        // Thread knob on → the unhinted scan reports its morsel split.
        let scan_q = SelectQuery {
            from: vec![TableRef::named("big").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("big")
        };
        let opts = crate::exec::ExecOptions::with_threads(4);
        let e = db.explain_opts(&scan_q, &opts).unwrap();
        assert!(
            e.relations[0].access_desc.starts_with("ParallelScan(morsels="),
            "got {}",
            e.relations[0].access_desc
        );
        // Default options: same query is a plain SeqScan.
        let e = db.explain(&scan_q).unwrap();
        assert_eq!(e.relations[0].access_desc, "SeqScan");

        // Guard-shaped OR with a FORCE hint → exact index union.
        let pred = Expr::or(
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)),
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(2)),
        );
        let union_q = SelectQuery {
            from: vec![TableRef::named("big").with_hint(IndexHint::Force(vec!["owner".into()]))],
            ..SelectQuery::star_from("big")
        }
        .filter(pred);
        let e = db.explain(&union_q).unwrap();
        assert_eq!(
            e.relations[0].access_desc,
            "IndexUnion(col=owner, 2 probes, exact)"
        );
    }

    #[test]
    fn explain_includes_ctes() {
        let db = db();
        let inner = SelectQuery::star_from("w")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        // Read twice, the CTE is materialized once and scanned per read.
        let q = SelectQuery::star_from("pol")
            .with_clause("pol", inner)
            .from_tables(vec![
                TableRef::aliased("pol", "a"),
                TableRef::aliased("pol", "b"),
            ]);
        let e = db.explain(&q).unwrap();
        assert_eq!(e.ctes.len(), 1);
        assert_eq!(e.ctes[0].0, "pol");
        assert!(e.relations.iter().all(|r| r.access_desc.contains("temp")));
        let rendered = e.to_string();
        assert!(rendered.contains("CTE pol:"));
    }

    #[test]
    fn explain_reports_merged_cte() {
        let db = db();
        let inner = SelectQuery {
            from: vec![TableRef::named("w").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("w")
        }
        .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        // Read once: the body's plan is what runs, under the CTE's entry.
        let q = SelectQuery::star_from("pol").with_clause("pol", inner.clone());
        let e = db.explain(&q).unwrap();
        assert_eq!(e.ctes[0].1.relations[0].access_desc, "SeqScan");
        assert_eq!(e.relations[0].access_desc, "Merged(w)");
        assert_eq!(e.relations[0].access, AccessPlan::SeqScan);
        assert_eq!(e.relations[0].est_rows, 500.0);

        // As a join's inner side keyed on an indexed column, the merged
        // CTE is probed per outer row, whatever its hint.
        let join = SelectQuery::star_from("pol")
            .with_clause("pol", inner)
            .from_tables(vec![TableRef::aliased("w", "o"), TableRef::aliased("pol", "p")])
            .filter(Expr::Cmp {
                op: crate::expr::CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("o", "id"))),
                rhs: Box::new(Expr::Column(ColumnRef::qualified("p", "owner"))),
            });
        let e = db.explain(&join).unwrap();
        assert_eq!(e.relations[1].access_desc, "IndexNestedLoop(owner)");

        // A GROUP BY body is not a plain filter: it materializes.
        let mut grouped = SelectQuery::star_from("w");
        grouped.select = vec![crate::plan::SelectItem::Column {
            column: ColumnRef::bare("owner"),
            alias: None,
        }];
        grouped.group_by = vec![ColumnRef::bare("owner")];
        let q = SelectQuery::star_from("g").with_clause("g", grouped);
        let e = db.explain(&q).unwrap();
        assert_eq!(e.relations[0].access_desc, "SeqScan(temp)");
    }
}
