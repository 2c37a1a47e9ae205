//! The execution-backend layer.
//!
//! The paper deploys SIEVE as *middleware*: the DBMS behind it is a
//! replaceable component reached through SQL text (stock MySQL or
//! PostgreSQL, Section 7). [`SqlBackend`] is that seam in code — the
//! exact surface the middleware needs from an engine, and nothing more:
//!
//! * **query execution** ([`SqlBackend::exec`] / [`SqlBackend::exec_timed`])
//!   with [`ExecOptions`] (timeouts, and the `threads` knob that turns
//!   large scans morsel-parallel inside the engine);
//! * **catalog introspection** ([`SqlBackend::table_entry`],
//!   [`SqlBackend::has_relation`]) — schemas, indexes, and histograms,
//!   which guard candidate generation and [`crate::cost::calibrate`]
//!   consume (a server backend would materialize these from
//!   `information_schema` + `pg_stats`/`mysql.innodb_index_stats`);
//! * **UDF installation** ([`SqlBackend::install_udf`]) for the ∆
//!   operator and Baseline U (the paper's `CREATE FUNCTION` step);
//! * **administrative DDL/DML** ([`SqlBackend::create_relation`],
//!   [`SqlBackend::create_relation_index`], [`SqlBackend::insert_row`])
//!   for the `rP`/`rOC`/`rGE`/`rGG`/`rGP` policy relations of
//!   Section 5.1.
//!
//! Two backends ship:
//!
//! * [`Database`] itself — the in-process engine, executing query ASTs
//!   directly; the hermetic default ([`crate::SieveService`]'s default
//!   type parameter).
//! * [`WireSqlBackend`] — accepts only SQL **text**: every query is
//!   rendered with [`minidb::sql::render_query`], crosses a simulated
//!   wire, and is re-parsed before execution. This exercises exactly the
//!   path a network backend uses, making render fidelity load-bearing.
//!
//! What a real PostgreSQL backend would need on top of the wire path is
//! recorded in the README's backend section.
//!
//! Queries travel as SQL text; the administrative surface (catalog reads,
//! DDL, UDF installation) uses the backend's native channel, as the
//! paper's middleware does during setup.

use minidb::error::{DbError, DbResult};
use minidb::exec::{ExecOptions, QueryResult};
use minidb::plan::SelectQuery;
use minidb::schema::TableSchema;
use minidb::stats::ExecStats;
use minidb::table::{Row, RowId};
use minidb::udf::Udf;
use minidb::value::Value;
use minidb::{Database, DbProfile, TableEntry};
use std::fmt;
use std::sync::Arc;

pub mod faulty;
mod wire;

pub use faulty::{Fault, FaultConfig, FaultCounts, FaultInjectingBackend};
pub use wire::WireSqlBackend;

/// A typed backend failure, classified by what recovery it admits.
///
/// The classification is the contract the service's retry layer and the
/// session's re-prepare logic are written against:
///
/// * [`BackendError::is_retryable`] — the same call may succeed if simply
///   re-issued (possibly on a fresh connection). The service retries these
///   under its [`crate::middleware::RetryPolicy`].
/// * [`BackendError::needs_reprepare`] — server-side statement state was
///   lost; a [`crate::session::Prepared`] must rebuild its plan (prepare a
///   fresh statement id) before the query can run again.
///
/// Everything else fails closed immediately: the error propagates as a
/// [`crate::SieveError`] and no rows are returned.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The connection to the engine dropped. All server-side session
    /// state — prepared statements above all — is gone; the service bumps
    /// its backend epoch on observing this so prepared plans re-prepare.
    /// Retryable: the next call reconnects.
    ConnectionLost(String),
    /// The call exceeded its deadline (the engine's statement timeout or
    /// the service's per-query budget). Not retryable: the budget is
    /// spent, and retrying a deterministic over-budget query would spin.
    Timeout,
    /// The statement id is not known server-side (evicted, closed, or lost
    /// with a connection). Not retryable as-is — the caller must
    /// re-prepare and execute the fresh id.
    UnknownStatement(StatementId),
    /// A transient fault (network hiccup, server momentarily overloaded).
    /// Retryable as-is.
    Transient(String),
    /// The engine rejected the query on semantic grounds — unknown table,
    /// type error, unsupported shape. Deterministic; never retried.
    Rejected(DbError),
    /// A permanent failure (unsupported operation, misconfigured backend).
    /// Never retried.
    Fatal(String),
}

/// Result alias for [`SqlBackend`] operations.
pub type BackendResult<T> = Result<T, BackendError>;

impl BackendError {
    /// True iff re-issuing the same call may succeed. The service's retry
    /// loop only ever retries errors for which this holds.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            BackendError::ConnectionLost(_) | BackendError::Transient(_)
        )
    }

    /// True iff server-side prepared-statement state was lost and plans
    /// executing by statement id must re-prepare before retrying.
    pub fn needs_reprepare(&self) -> bool {
        matches!(
            self,
            BackendError::ConnectionLost(_) | BackendError::UnknownStatement(_)
        )
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::ConnectionLost(m) => write!(f, "connection lost: {m}"),
            BackendError::Timeout => write!(f, "timed out"),
            BackendError::UnknownStatement(id) => {
                write!(f, "unknown prepared statement {id} (closed, evicted, or lost)")
            }
            BackendError::Transient(m) => write!(f, "transient failure: {m}"),
            BackendError::Rejected(e) => write!(f, "rejected by engine: {e}"),
            BackendError::Fatal(m) => write!(f, "fatal: {m}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<DbError> for BackendError {
    fn from(e: DbError) -> Self {
        match e {
            // The engine's own deadline is the same budget-spent signal as
            // a wire-level timeout; keep the classification.
            DbError::Timeout => BackendError::Timeout,
            other => BackendError::Rejected(other),
        }
    }
}

/// Lift an engine `(result, stats)` pair into the backend error type.
fn timed_from_db(
    (res, stats): (DbResult<QueryResult>, ExecStats),
) -> (BackendResult<QueryResult>, ExecStats) {
    (res.map_err(BackendError::from), stats)
}

/// Identifier of a server-side prepared statement, scoped to one backend
/// instance. Ids are never reused within an instance.
pub type StatementId = u64;

/// A server-side prepared statement: the statement id plus the literal
/// values lifted out of the plan at prepare time (index = placeholder
/// ordinal). Executing with exactly these values is the warm fast path;
/// executing with different values rebinds against the server's parsed
/// template.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedStatement {
    /// Server-side statement handle.
    pub id: StatementId,
    /// Parameter values the plan was prepared with.
    pub params: Vec<Value>,
}

/// The execution engine behind the middleware, as seen by
/// [`crate::service::SieveService`].
///
/// Object-safe: the middleware holds a concrete `B: SqlBackend`, but the
/// rewriting/costing free functions take `&dyn SqlBackend` so they need
/// no generic plumbing (and `&Database` coerces to it directly).
///
/// `Send + Sync` is a supertrait: the service shares one backend across
/// every connection thread behind a read-write lock, with concurrent
/// queries executing through `&self` — an engine that cannot cross or be
/// shared between threads cannot back a concurrent middleware.
pub trait SqlBackend: Send + Sync {
    /// Short identifier for diagnostics and bench labels.
    fn name(&self) -> &'static str;

    /// Execute a prepared query.
    fn exec(&self, query: &SelectQuery, opts: &ExecOptions) -> BackendResult<QueryResult>;

    /// Execute a query and report `(result, stats)` — wall time plus the
    /// engine's simulated cost clock.
    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats);

    /// Catalog entry for a relation: schema, indexes, histograms. Guard
    /// candidate generation and cost calibration read these; a server
    /// backend mirrors them locally from the server's catalog views.
    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry>;

    /// True iff a relation with this name exists.
    fn has_relation(&self, name: &str) -> bool;

    /// Optimizer profile of the engine (drives hint/bitmap behaviour as
    /// in the paper's Experiment 4).
    fn engine_profile(&self) -> DbProfile;

    /// Install a UDF (the ∆ operator; Baseline U's policy UDF). The
    /// paper's equivalent is `CREATE FUNCTION` issued at deploy time.
    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>);

    /// Create a relation (idempotence is the caller's concern). Used for
    /// the policy persistence tables of Section 5.1.
    fn create_relation(&mut self, schema: TableSchema) -> BackendResult<()>;

    /// Create a secondary index over `column` of `table`.
    fn create_relation_index(&mut self, table: &str, column: &str) -> BackendResult<()>;

    /// Insert one row through the administrative channel (policy/guard
    /// mirroring — not the measured query path).
    fn insert_row(&mut self, table: &str, row: Row) -> BackendResult<RowId>;

    /// Prepare `query` server-side: render + parse once, returning a
    /// statement id to execute by thereafter. `Ok(None)` means this
    /// backend has no server-side statements (the default — in-process
    /// engines execute the AST directly, so there is nothing to save);
    /// callers then fall back to [`SqlBackend::exec`] per call, which
    /// preserves the pre-prepared-statement behavior exactly.
    fn prepare(&self, query: &SelectQuery) -> BackendResult<Option<PreparedStatement>> {
        let _ = query;
        Ok(None)
    }

    /// Execute a statement previously returned by [`SqlBackend::prepare`]
    /// with the given parameter values. Only meaningful on backends that
    /// returned `Some` from `prepare`.
    fn execute_prepared(
        &self,
        id: StatementId,
        params: &[Value],
        opts: &ExecOptions,
    ) -> BackendResult<QueryResult> {
        let _ = (params, opts);
        // Fatal, not UnknownStatement: there is no statement state to
        // recover, so a re-prepare/retry loop must not engage.
        Err(BackendError::Fatal(format!(
            "backend {} has no server-side prepared statements (statement {id})",
            self.name()
        )))
    }

    /// Release a server-side statement. A no-op on backends without
    /// server-side statements, and for ids already closed.
    fn close_prepared(&self, id: StatementId) {
        let _ = id;
    }

    /// The in-process engine behind this backend, if any — the escape
    /// hatch the reference oracle ([`crate::semantics`]) uses to evaluate
    /// derived (subquery) policy conditions directly. A true network
    /// backend returns `None`; oracle checks then treat derived
    /// conditions as unsatisfied (fail closed) or run against a local
    /// mirror. Enforcement never calls this.
    fn minidb(&self) -> Option<&Database> {
        None
    }
}

impl<T: SqlBackend + ?Sized> SqlBackend for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn exec(&self, query: &SelectQuery, opts: &ExecOptions) -> BackendResult<QueryResult> {
        (**self).exec(query, opts)
    }
    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats) {
        (**self).exec_timed(query, opts)
    }
    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry> {
        (**self).table_entry(name)
    }
    fn has_relation(&self, name: &str) -> bool {
        (**self).has_relation(name)
    }
    fn engine_profile(&self) -> DbProfile {
        (**self).engine_profile()
    }
    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>) {
        (**self).install_udf(name, udf)
    }
    fn create_relation(&mut self, schema: TableSchema) -> BackendResult<()> {
        (**self).create_relation(schema)
    }
    fn create_relation_index(&mut self, table: &str, column: &str) -> BackendResult<()> {
        (**self).create_relation_index(table, column)
    }
    fn insert_row(&mut self, table: &str, row: Row) -> BackendResult<RowId> {
        (**self).insert_row(table, row)
    }
    fn prepare(&self, query: &SelectQuery) -> BackendResult<Option<PreparedStatement>> {
        (**self).prepare(query)
    }
    fn execute_prepared(
        &self,
        id: StatementId,
        params: &[Value],
        opts: &ExecOptions,
    ) -> BackendResult<QueryResult> {
        (**self).execute_prepared(id, params, opts)
    }
    fn close_prepared(&self, id: StatementId) {
        (**self).close_prepared(id)
    }
    fn minidb(&self) -> Option<&Database> {
        (**self).minidb()
    }
}

/// The in-process backend: SIEVE calling straight into the embedded
/// engine. Query ASTs reach the executor without a serialization round —
/// the zero-overhead baseline the wire backend is measured against
/// (`bench_backend`). Every `&Database` call site (oracles, tests,
/// experiment binaries) coerces straight into the trait surface.
impl SqlBackend for Database {
    fn name(&self) -> &'static str {
        "minidb"
    }
    fn exec(&self, query: &SelectQuery, opts: &ExecOptions) -> BackendResult<QueryResult> {
        self.run_query_opts(query, opts).map_err(BackendError::from)
    }
    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats) {
        timed_from_db(self.run_timed(query, opts))
    }
    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry> {
        self.table(name).map_err(BackendError::from)
    }
    fn has_relation(&self, name: &str) -> bool {
        self.has_table(name)
    }
    fn engine_profile(&self) -> DbProfile {
        self.profile()
    }
    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>) {
        self.register_udf(name, udf)
    }
    fn create_relation(&mut self, schema: TableSchema) -> BackendResult<()> {
        self.create_table(schema).map_err(BackendError::from)
    }
    fn create_relation_index(&mut self, table: &str, column: &str) -> BackendResult<()> {
        self.create_index(table, column).map_err(BackendError::from)
    }
    fn insert_row(&mut self, table: &str, row: Row) -> BackendResult<RowId> {
        self.insert(table, row).map_err(BackendError::from)
    }
    fn minidb(&self) -> Option<&Database> {
        Some(self)
    }
}

/// A boxed backend — the type the backend-matrix test helper hands out so
/// one closure body serves every backend.
pub type DynBackend = Box<dyn SqlBackend>;

/// Run `f` once per backend (`"minidb"`, then `"wire-sql"`) over a copy
/// of `db` (deep clone per backend, so mutations never leak across runs). The equivalence and
/// bypass oracle suites use this to pin the trait seam itself: whatever
/// they assert must hold for the in-process backend **and** the wire-SQL
/// backend, with identical results.
// Test-harness helper: init failure here is a broken test fixture, not a
// query-path fault, so the panic is intentional (and exempt from the
// fail-closed no-panic gate on the query path).
#[allow(clippy::disallowed_macros)]
pub fn for_each_backend<F>(db: &Database, options: &crate::SieveOptions, mut f: F)
where
    F: FnMut(&'static str, &crate::SieveService<DynBackend>),
{
    let backends: [(&'static str, DynBackend); 2] = [
        ("minidb", Box::new(db.clone())),
        ("wire-sql", Box::new(WireSqlBackend::new(db.clone()))),
    ];
    for (name, backend) in backends {
        let sieve = crate::SieveService::with_backend(backend, options.clone())
            .unwrap_or_else(|e| panic!("backend {name} failed to initialize: {e}"));
        f(name, &sieve);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::value::{DataType, Value};

    fn tiny_db() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..10i64 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        }
        db
    }

    #[test]
    fn database_is_a_backend() {
        let db = tiny_db();
        let backend: &dyn SqlBackend = &db;
        assert_eq!(backend.name(), "minidb");
        assert!(backend.has_relation("t"));
        assert!(!backend.has_relation("nope"));
        let res = backend
            .exec(&SelectQuery::star_from("t"), &ExecOptions::default())
            .unwrap();
        assert_eq!(res.len(), 10);
        assert_eq!(backend.table_entry("t").unwrap().schema().arity(), 2);
    }

    #[test]
    fn boxed_backend_delegates() {
        let boxed: DynBackend = Box::new(tiny_db());
        assert_eq!(boxed.name(), "minidb");
        let (res, stats) =
            boxed.exec_timed(&SelectQuery::star_from("t"), &ExecOptions::default());
        assert_eq!(res.unwrap().len(), 10);
        assert!(stats.simulated_cost > 0.0);
    }

    #[test]
    fn for_each_backend_visits_every_backend() {
        let db = tiny_db();
        let mut seen = Vec::new();
        for_each_backend(&db, &crate::SieveOptions::default(), |name, sieve| {
            assert!(sieve.backend().has_relation("t"));
            seen.push(name);
        });
        assert_eq!(seen, ["minidb", "wire-sql"]);
    }
}
