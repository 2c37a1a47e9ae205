//! The database catalog and top-level façade.
//!
//! A [`Database`] owns tables, their secondary indexes and histograms, the
//! UDF registry, the optimizer profile (MySQL-like vs PostgreSQL-like), and
//! the cost weights of the simulated clock. It holds no execution counters:
//! each query counts into its own block, which [`Database::run_timed`]
//! returns. SIEVE is layered strictly on top of this façade —
//! it only uses the public surface a middleware would have against a real
//! DBMS: run a query, run EXPLAIN, register a UDF, read table statistics.

use crate::error::{DbError, DbResult};
use crate::exec::{execute, execute_counted, ExecOptions, QueryResult};
use crate::explain::{explain_query, ExplainOutput};
use crate::histogram::{Histogram, DEFAULT_BUCKETS};
use crate::index::Index;
use crate::plan::SelectQuery;
use crate::planner::DbProfile;
use crate::schema::TableSchema;
use crate::stats::{CostWeights, CounterBlock, ExecStats};
use crate::table::{Row, RowId, Table};
use crate::udf::{Udf, UdfRegistry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A table plus its access structures.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Heap storage.
    pub table: Table,
    /// Secondary indexes (one per indexed column).
    pub indexes: Vec<Index>,
    /// Histograms by column name (built by [`Database::analyze`]).
    pub histograms: HashMap<String, Histogram>,
    schema: Arc<TableSchema>,
}

impl TableEntry {
    /// Shared schema handle.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// Index over `column`, if one exists.
    pub fn index_on(&self, column: &str) -> Option<&Index> {
        self.indexes.iter().find(|i| i.column_name == column)
    }

    /// Histogram for `column`, if analyzed.
    pub fn histogram(&self, column: &str) -> Option<&Histogram> {
        self.histograms.get(column)
    }

    /// True iff `column` has an index — the guard property the paper
    /// requires (`oc.attr ∈ I`, Section 3.2).
    pub fn has_index(&self, column: &str) -> bool {
        self.index_on(column).is_some()
    }
}

/// An embedded database instance.
///
/// Cloning deep-copies tables, indexes and histograms; registered UDFs are
/// shared (`Arc`). The experiment harness uses this to run one loaded
/// dataset under several configurations.
#[derive(Clone)]
pub struct Database {
    tables: HashMap<String, TableEntry>,
    udfs: UdfRegistry,
    weights: CostWeights,
    profile: DbProfile,
}

impl Database {
    /// Create an empty database with the given optimizer profile.
    pub fn new(profile: DbProfile) -> Self {
        Database {
            tables: HashMap::new(),
            udfs: UdfRegistry::new(),
            weights: CostWeights::default(),
            profile,
        }
    }

    /// Optimizer profile in effect.
    pub fn profile(&self) -> DbProfile {
        self.profile
    }

    /// Switch optimizer profile (used by the Experiment 4 harness to run
    /// the same loaded data under both profiles).
    pub fn set_profile(&mut self, profile: DbProfile) {
        self.profile = profile;
    }

    /// Cost weights of the simulated clock.
    pub fn weights(&self) -> &CostWeights {
        &self.weights
    }

    /// Override cost weights.
    pub fn set_weights(&mut self, weights: CostWeights) {
        self.weights = weights;
    }

    /// Create an empty table. Errors if the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> DbResult<()> {
        let name = schema.name.clone();
        if self.tables.contains_key(&name) {
            return Err(DbError::Unsupported(format!("table {name} already exists")));
        }
        let schema = Arc::new(schema);
        self.tables.insert(
            name,
            TableEntry {
                table: Table::new((*schema).clone()),
                indexes: Vec::new(),
                histograms: HashMap::new(),
                schema,
            },
        );
        Ok(())
    }

    /// Insert one row, maintaining indexes.
    pub fn insert(&mut self, table: &str, row: Row) -> DbResult<RowId> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let id = entry.table.insert(row);
        let row_ref = entry.table.row(id).clone();
        for idx in &mut entry.indexes {
            idx.insert(id, &row_ref);
        }
        Ok(id)
    }

    /// Bulk insert rows, maintaining indexes.
    pub fn insert_all(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> DbResult<()> {
        for row in rows {
            self.insert(table, row)?;
        }
        Ok(())
    }

    /// Create a secondary index over `column`. No-op if one already exists.
    pub fn create_index(&mut self, table: &str, column: &str) -> DbResult<()> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        if entry.index_on(column).is_some() {
            return Ok(());
        }
        let col = entry
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::UnknownColumn(format!("{table}.{column}")))?;
        let rows = entry
            .table
            .rows()
            .iter()
            .enumerate()
            .map(|(i, r)| (i as RowId, r));
        let idx = Index::build(format!("idx_{table}_{column}"), col, column, rows);
        entry.indexes.push(idx);
        // Indexing a populated table refreshes the column's histogram in
        // the same step, so the planner's cost gate sees fresh statistics
        // immediately (CREATE INDEX on real engines analyzes as it builds).
        // An empty table keeps no histogram: a zero-row histogram would
        // pin estimates at 0 after later inserts, whereas the no-histogram
        // fallback reads exact index counts.
        if !entry.table.is_empty() {
            let h = Histogram::build(
                entry.table.rows().iter().map(|r| r[col].clone()),
                DEFAULT_BUCKETS,
            );
            entry.histograms.insert(column.to_string(), h);
        }
        Ok(())
    }

    /// Build histograms for every indexed column of `table` (ANALYZE).
    pub fn analyze(&mut self, table: &str) -> DbResult<()> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let cols: Vec<(String, usize)> = entry
            .indexes
            .iter()
            .map(|i| (i.column_name.clone(), i.column))
            .collect();
        for (name, col) in cols {
            let h = Histogram::build(
                entry.table.rows().iter().map(|r| r[col].clone()),
                DEFAULT_BUCKETS,
            );
            entry.histograms.insert(name, h);
        }
        Ok(())
    }

    /// Table entry by name.
    pub fn table(&self, name: &str) -> DbResult<&TableEntry> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// True iff a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables (sorted; for diagnostics).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Register a UDF.
    pub fn register_udf(&mut self, name: impl Into<String>, f: Arc<dyn Udf>) {
        self.udfs.register(name, f);
    }

    /// The UDF registry.
    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Execute a query with default options.
    pub fn run_query(&self, query: &SelectQuery) -> DbResult<QueryResult> {
        execute(self, query, &ExecOptions::default())
    }

    /// Execute a query with options (e.g. a timeout).
    pub fn run_query_opts(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> DbResult<QueryResult> {
        execute(self, query, opts)
    }

    /// Execute and return `(result, stats)` using the simulated+wall
    /// clocks. The counters are this query's own, exact even while other
    /// queries run concurrently on the same database.
    pub fn run_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (DbResult<QueryResult>, ExecStats) {
        let block = CounterBlock::new();
        let start = Instant::now();
        let res = execute_counted(self, query, opts, &block);
        let wall = start.elapsed();
        let counters = block.snapshot();
        let stats = ExecStats {
            counters,
            wall,
            simulated_cost: counters.simulated_cost(&self.weights),
        };
        (res, stats)
    }

    /// EXPLAIN: the access-path decisions the planner would make, with
    /// estimated cardinalities (paper Section 5.5 uses this to cost
    /// strategies).
    pub fn explain(&self, query: &SelectQuery) -> DbResult<ExplainOutput> {
        explain_query(self, query)
    }

    /// EXPLAIN under specific execution options: with a thread knob set,
    /// large scans report as `ParallelScan(morsels=…)` and the
    /// PostgreSQL-like bitmap gate tightens accordingly.
    pub fn explain_opts(&self, query: &SelectQuery, opts: &ExecOptions) -> DbResult<ExplainOutput> {
        crate::explain::explain_query_opts(self, query, opts)
    }

    /// Parse and run a SQL string.
    pub fn run_sql(&self, sql: &str) -> DbResult<QueryResult> {
        let query = crate::sql::parse(sql)?;
        self.run_query(&query)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.table_names())
            .field("profile", &self.profile)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn db_with_table() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..50i64 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
        }
        db
    }

    #[test]
    fn create_insert_index_analyze() {
        let mut db = db_with_table();
        db.create_index("t", "owner").unwrap();
        db.analyze("t").unwrap();
        let entry = db.table("t").unwrap();
        assert!(entry.has_index("owner"));
        assert!(!entry.has_index("id"));
        let h = entry.histogram("owner").unwrap();
        assert_eq!(h.total(), 50);
        assert_eq!(h.distinct(), 5);
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut db = db_with_table();
        db.create_index("t", "owner").unwrap();
        db.insert("t", vec![Value::Int(100), Value::Int(99)]).unwrap();
        let entry = db.table("t").unwrap();
        let hits = entry
            .index_on("owner")
            .unwrap()
            .lookup(&Value::Int(99), &CounterBlock::new());
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn run_timed_counts_only_its_own_query() {
        let db = db_with_table();
        let scan = SelectQuery::star_from("t");
        let (_, first) = db.run_timed(&scan, &ExecOptions::default());
        assert_eq!(first.counters.tuples_read, 50);
        assert_eq!(first.counters.tuples_output, 50);
        // Earlier executions never leak into a later one's counts.
        let (_, again) = db.run_timed(&scan, &ExecOptions::default());
        assert_eq!(again.counters, first.counters);
        assert!(again.simulated_cost > 0.0);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_table();
        let err = db.create_table(TableSchema::of("t", &[("x", DataType::Int)]));
        assert!(err.is_err());
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::new(DbProfile::PostgresLike);
        assert!(matches!(db.table("nope"), Err(DbError::UnknownTable(_))));
    }

    #[test]
    fn create_index_idempotent() {
        let mut db = db_with_table();
        db.create_index("t", "owner").unwrap();
        db.create_index("t", "owner").unwrap();
        assert_eq!(db.table("t").unwrap().indexes.len(), 1);
    }

    #[test]
    fn create_index_on_populated_table_refreshes_histogram() {
        use crate::expr::{ColumnRef, Expr};
        let mut db = db_with_table();
        // Index built after the inserts, with NO explicit ANALYZE: the
        // planner's cost gate must still see fresh statistics.
        db.create_index("t", "owner").unwrap();
        let entry = db.table("t").unwrap();
        let h = entry.histogram("owner").expect("histogram built with index");
        assert_eq!(h.total(), 50);
        assert_eq!(h.distinct(), 5);
        // And the gate acts on them: owner = 3 is 10/50 = 20% ≤ 25%, so
        // the unhinted MySQL-like planner picks the index immediately.
        let q = SelectQuery::star_from("t")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)));
        let e = db.explain(&q).unwrap();
        assert!(
            e.relations[0].access_desc.starts_with("IndexScan"),
            "got {}",
            e.relations[0].access_desc
        );
        assert!((e.relations[0].est_rows - 10.0).abs() < 1.0);
    }

    #[test]
    fn create_index_on_empty_table_defers_statistics() {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "e",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        db.create_index("e", "owner").unwrap();
        // No zero-row histogram pinned: estimates fall back to exact
        // index counts, which track subsequent inserts.
        assert!(db.table("e").unwrap().histogram("owner").is_none());
        for i in 0..50i64 {
            db.insert("e", vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
        }
        use crate::expr::{ColumnRef, Expr};
        let q = SelectQuery::star_from("e")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)));
        let e = db.explain(&q).unwrap();
        assert!((e.relations[0].est_rows - 10.0).abs() < f64::EPSILON);
    }
}
