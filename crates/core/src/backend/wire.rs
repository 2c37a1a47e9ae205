//! The wire-SQL backend: queries cross the seam as **text only**.
//!
//! The paper's SIEVE hands the rewritten query to MySQL/PostgreSQL as a
//! SQL string. [`WireSqlBackend`] reproduces that contract against the
//! embedded engine: every query is rendered
//! ([`minidb::sql::render_query`]), crosses a simulated wire, and is
//! re-parsed ([`minidb::sql::parse`]) before execution — the AST the
//! middleware built never reaches the executor directly. A future
//! `tokio-postgres` backend replaces only the middle of this pipeline
//! (ship the text, receive rows) — everything the middleware relies on,
//! above all render fidelity of guard-CTE-bearing rewrites, is already
//! exercised here and property-tested in `tests/proptest_wire.rs`.
//!
//! The administrative surface (catalog reads, DDL for the policy tables,
//! UDF installation) stays native, as a server deployment would use its
//! own client-library calls for setup rather than the measured query
//! path.

use super::{BackendError, BackendResult, PreparedStatement, SqlBackend, StatementId};
use crate::lru::LruMap;
use minidb::error::DbResult;
use minidb::exec::{ExecOptions, QueryResult};
use minidb::plan::SelectQuery;
use minidb::schema::TableSchema;
use minidb::stats::ExecStats;
use minidb::table::{Row, RowId};
use minidb::udf::Udf;
use minidb::value::Value;
use minidb::{Database, DbProfile, TableEntry};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Capacity of the parsed-template intern cache. Templates are shared
/// across queriers whose rewrites differ only in policy literals, so the
/// working set is the number of distinct *query shapes*, not queriers.
pub const TEMPLATE_CACHE_CAP: usize = 256;

/// A registered server-side statement: the parsed template plus the
/// plan pre-bound with its prepare-time parameters.
#[derive(Debug)]
struct StatementEntry {
    /// Parsed literal-free template (shared with the intern cache).
    template: Arc<SelectQuery>,
    /// Parameter values given at prepare time.
    params: Vec<Value>,
    /// Template with `params` already bound — executing with the same
    /// values costs no render, no parse, and no rebind.
    bound: Arc<SelectQuery>,
}

/// An engine reached exclusively through SQL text.
#[derive(Debug)]
pub struct WireSqlBackend {
    db: Database,
    /// Queries that crossed the wire as full SQL text
    /// (render → parse → execute, or a prepare).
    round_trips: AtomicU64,
    /// Open server-side statements by id.
    statements: RwLock<HashMap<StatementId, StatementEntry>>,
    /// Parsed templates interned by rendered text: a template shared by N
    /// queriers is parsed once, not N times.
    templates: RwLock<LruMap<Arc<SelectQuery>>>,
    next_stmt: AtomicU64,
    /// Total `prepare` calls.
    prepares: AtomicU64,
    /// Prepares that found their template already parsed.
    template_hits: AtomicU64,
    /// Executions by statement id (no SQL text on the wire).
    prepared_execs: AtomicU64,
}

impl WireSqlBackend {
    /// Wrap an engine instance behind the textual seam.
    pub fn new(db: Database) -> Self {
        WireSqlBackend {
            db,
            round_trips: AtomicU64::new(0),
            statements: RwLock::new(HashMap::new()),
            templates: RwLock::new(LruMap::new(TEMPLATE_CACHE_CAP)),
            next_stmt: AtomicU64::new(0),
            prepares: AtomicU64::new(0),
            template_hits: AtomicU64::new(0),
            prepared_execs: AtomicU64::new(0),
        }
    }

    /// The engine on the far side of the wire (read access — oracle and
    /// test use).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable engine access (data loading). Under a middleware, reach it
    /// via [`crate::SieveService::with_backend_mut`] so the write bumps
    /// the epoch.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// How many queries crossed the wire as full SQL text so far. Lets
    /// tests assert the textual path was actually taken rather than
    /// silently bypassed.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Total `prepare` calls served.
    pub fn prepares(&self) -> u64 {
        self.prepares.load(Ordering::Relaxed)
    }

    /// Prepares whose rendered template was already parsed (interned) —
    /// the statement-cache hit count.
    pub fn template_hits(&self) -> u64 {
        self.template_hits.load(Ordering::Relaxed)
    }

    /// Executions dispatched by statement id (no SQL text shipped).
    pub fn prepared_execs(&self) -> u64 {
        self.prepared_execs.load(Ordering::Relaxed)
    }

    /// Currently open server-side statements.
    pub fn open_statements(&self) -> usize {
        self.statements.read().len()
    }

    /// The wire itself: serialize, "transmit", deserialize. Every byte of
    /// middleware output must survive this or the backend mis-executes —
    /// which is exactly the property the dual-backend oracle suites pin.
    fn ship(&self, query: &SelectQuery) -> DbResult<SelectQuery> {
        let sql = minidb::sql::render_query(query);
        let parsed = minidb::sql::parse(&sql)?;
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        Ok(parsed)
    }
}

impl SqlBackend for WireSqlBackend {
    fn name(&self) -> &'static str {
        "wire-sql"
    }
    fn exec(&self, query: &SelectQuery, opts: &ExecOptions) -> BackendResult<QueryResult> {
        let parsed = self.ship(query)?;
        self.db.run_query_opts(&parsed, opts).map_err(BackendError::from)
    }
    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats) {
        // The render+parse round trip is genuine dispatch cost; charge it
        // to the measured wall time so timed experiments see the wire.
        let t0 = std::time::Instant::now();
        let parsed = match self.ship(query) {
            Ok(p) => p,
            Err(e) => {
                let stats = ExecStats {
                    wall: t0.elapsed(),
                    ..ExecStats::default()
                };
                return (Err(BackendError::from(e)), stats);
            }
        };
        let dispatch: Duration = t0.elapsed();
        let (res, mut stats) = self.db.run_timed(&parsed, opts);
        stats.wall += dispatch;
        (res.map_err(BackendError::from), stats)
    }
    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry> {
        self.db.table(name).map_err(BackendError::from)
    }
    fn has_relation(&self, name: &str) -> bool {
        self.db.has_table(name)
    }
    fn engine_profile(&self) -> DbProfile {
        self.db.profile()
    }
    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>) {
        self.db.register_udf(name, udf)
    }
    fn create_relation(&mut self, schema: TableSchema) -> BackendResult<()> {
        self.db.create_table(schema).map_err(BackendError::from)
    }
    fn create_relation_index(&mut self, table: &str, column: &str) -> BackendResult<()> {
        self.db.create_index(table, column).map_err(BackendError::from)
    }
    fn insert_row(&mut self, table: &str, row: Row) -> BackendResult<RowId> {
        self.db.insert(table, row).map_err(BackendError::from)
    }
    /// The server-side prepare: lift literals into `?` placeholders,
    /// render the literal-free template, and parse it **once per template
    /// text** — queriers whose rewrites differ only in policy literals
    /// share one parsed template. The returned statement executes by id
    /// with bound parameters; no SQL text crosses the wire again.
    fn prepare(&self, query: &SelectQuery) -> BackendResult<Option<PreparedStatement>> {
        self.prepares.fetch_add(1, Ordering::Relaxed);
        let (template_ast, params) = minidb::sql::parameterize(query);
        let sql = minidb::sql::render_query(&template_ast);
        // One wire round trip ships the template text (even on an intern
        // hit — the server still receives the PREPARE message).
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        // Taken as a standalone statement so the read guard drops before
        // the miss path takes the write lock (the `if let` scrutinee would
        // otherwise keep it alive through the `else` — self-deadlock).
        let interned = self.templates.read().get(&sql);
        let template = if let Some(t) = interned {
            self.template_hits.fetch_add(1, Ordering::Relaxed);
            t
        } else {
            // The parse is of the *template* text, exactly what a server
            // would see; placeholder ordinals are assigned left to right,
            // matching render order, so binding is order-faithful.
            let parsed = Arc::new(minidb::sql::parse(&sql)?);
            let mut cache = self.templates.write();
            match cache.get(&sql) {
                Some(t) => {
                    self.template_hits.fetch_add(1, Ordering::Relaxed);
                    t
                }
                None => {
                    cache.insert(sql, parsed.clone());
                    parsed
                }
            }
        };
        let bound = Arc::new(minidb::sql::bind_params(&template, &params)?);
        let id = self.next_stmt.fetch_add(1, Ordering::Relaxed) + 1;
        self.statements.write().insert(
            id,
            StatementEntry {
                template,
                params: params.clone(),
                bound,
            },
        );
        Ok(Some(PreparedStatement { id, params }))
    }
    fn execute_prepared(
        &self,
        id: StatementId,
        params: &[Value],
        opts: &ExecOptions,
    ) -> BackendResult<QueryResult> {
        // Clone the Arcs out so the registry lock is not held across
        // execution (a concurrent close must not block the data plane).
        let (plan, rebind) = {
            let statements = self.statements.read();
            // An id missing from the registry — closed, evicted, or wiped
            // by a connection loss — is the typed signal the session layer
            // recovers from by re-preparing exactly once.
            let entry = statements
                .get(&id)
                .ok_or(BackendError::UnknownStatement(id))?;
            if entry.params == params {
                (entry.bound.clone(), None)
            } else {
                (entry.template.clone(), Some(()))
            }
        };
        self.prepared_execs.fetch_add(1, Ordering::Relaxed);
        match rebind {
            // Warm fast path: parameters unchanged since prepare — run
            // the pre-bound plan with no render, parse, or rebind.
            None => self.db.run_query_opts(&plan, opts).map_err(BackendError::from),
            Some(()) => {
                let bound = minidb::sql::bind_params(&plan, params)?;
                self.db.run_query_opts(&bound, opts).map_err(BackendError::from)
            }
        }
    }
    fn close_prepared(&self, id: StatementId) {
        self.statements.write().remove(&id);
    }
    fn minidb(&self) -> Option<&Database> {
        // The engine exists in-process here (only the query path takes
        // the wire), so the oracle may reach it.
        Some(&self.db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::value::{DataType, Value};
    use minidb::TableSchema;

    fn db() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..20i64 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 4)]).unwrap();
        }
        db
    }

    #[test]
    fn queries_cross_the_wire() {
        let backend = WireSqlBackend::new(db());
        assert_eq!(backend.round_trips(), 0);
        let q = SelectQuery::star_from("t");
        let res = backend.exec(&q, &ExecOptions::default()).unwrap();
        assert_eq!(res.len(), 20);
        assert_eq!(backend.round_trips(), 1);
        let (res, stats) = backend.exec_timed(&q, &ExecOptions::default());
        assert_eq!(res.unwrap().len(), 20);
        assert!(stats.wall > Duration::ZERO);
        assert_eq!(backend.round_trips(), 2);
    }

    #[test]
    fn prepared_statements_skip_the_text_path() {
        let backend = WireSqlBackend::new(db());
        let q = SelectQuery::star_from("t").filter(minidb::Expr::col_eq(
            minidb::ColumnRef::bare("owner"),
            Value::Int(2),
        ));
        let direct = backend.exec(&q, &ExecOptions::default()).unwrap().rows;
        let trips_after_exec = backend.round_trips();

        let stmt = backend.prepare(&q).unwrap().expect("wire backend prepares");
        assert_eq!(stmt.params, vec![Value::Int(2)]);
        assert_eq!(backend.round_trips(), trips_after_exec + 1);
        assert_eq!(backend.open_statements(), 1);

        for _ in 0..5 {
            let rows = backend
                .execute_prepared(stmt.id, &stmt.params, &ExecOptions::default())
                .unwrap()
                .rows;
            assert_eq!(rows, direct);
        }
        // Executions by id ship no SQL text.
        assert_eq!(backend.round_trips(), trips_after_exec + 1);
        assert_eq!(backend.prepared_execs(), 5);

        // Rebinding with different values reuses the template.
        let other = backend
            .execute_prepared(stmt.id, &[Value::Int(3)], &ExecOptions::default())
            .unwrap()
            .rows;
        assert_eq!(other.len(), 5);
        assert_ne!(other, direct);

        backend.close_prepared(stmt.id);
        assert_eq!(backend.open_statements(), 0);
        assert!(backend
            .execute_prepared(stmt.id, &stmt.params, &ExecOptions::default())
            .is_err());
        // Closing twice is a no-op.
        backend.close_prepared(stmt.id);
    }

    #[test]
    fn templates_interned_across_literal_variants() {
        let backend = WireSqlBackend::new(db());
        for owner in 0..4i64 {
            let q = SelectQuery::star_from("t").filter(minidb::Expr::col_eq(
                minidb::ColumnRef::bare("owner"),
                Value::Int(owner),
            ));
            backend.prepare(&q).unwrap().unwrap();
        }
        assert_eq!(backend.prepares(), 4);
        // Same shape, different literals: parsed once, interned 3 times.
        assert_eq!(backend.template_hits(), 3);
    }

    #[test]
    fn minidb_backend_has_no_server_side_statements() {
        let backend = db();
        let q = SelectQuery::star_from("t");
        assert!(backend.prepare(&q).unwrap().is_none());
        assert!(backend
            .execute_prepared(1, &[], &ExecOptions::default())
            .is_err());
        backend.close_prepared(1); // no-op
    }

    #[test]
    fn wire_results_match_in_process_results() {
        let db = db();
        let q = SelectQuery::star_from("t").filter(minidb::Expr::col_eq(
            minidb::ColumnRef::bare("owner"),
            Value::Int(2),
        ));
        let direct = db.run_query(&q).unwrap().rows;
        let backend = WireSqlBackend::new(db);
        let wired = backend.exec(&q, &ExecOptions::default()).unwrap().rows;
        assert_eq!(direct, wired);
        assert_eq!(wired.len(), 5);
    }
}
