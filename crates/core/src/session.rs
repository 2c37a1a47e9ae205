//! Per-querier session and prepared-statement handles.
//!
//! A wire server fronting [`crate::service::SieveService`] hands each
//! connection a [`Session`]: the querier's [`QueryMetadata`] (identity,
//! purpose, context) is captured **once** at session creation — the
//! principal carries its authority in the handle instead of re-passing it
//! per call (cf. Zigmond et al., "Fine-Grained, Language-Based Access
//! Control for Database-Backed Applications"). Sessions are cheap clones
//! of the service handle plus the metadata; any number may live and query
//! concurrently.
//!
//! [`Prepared`] is the repeat-query hot path: it pins a fully rewritten
//! query (guards compiled, ∆ partitions registered and reference-held) so
//! repeated [`Prepared::execute`] calls skip *all* middleware work — no
//! cache lookup, no rewrite, just backend execution under the shared read
//! lock. Staleness is detected by two service-level counters captured at
//! prepare time: the **backend epoch** (out-of-band data/schema mutation)
//! and the **revision** (policy/option/cost/group changes). When either
//! moves, the next `execute` transparently re-prepares — through the
//! guard cache, so a re-prepare after an unrelated change is two warm
//! lookups, not a regeneration.

use crate::backend::{SqlBackend, StatementId};
use crate::guard::GuardedExpression;
use crate::policy::QueryMetadata;
use crate::rewrite::{GuardFragment, RewriteOutput};
use crate::service::SieveService;
use crate::error::SieveResult;
use minidb::plan::SelectQuery;
use minidb::{Database, QueryResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A per-querier handle onto a [`SieveService`]: query metadata captured
/// once, every read path at `&self`. Clone freely; clones share the
/// service and copy the metadata.
pub struct Session<B: SqlBackend = Database> {
    service: SieveService<B>,
    qm: QueryMetadata,
}

impl<B: SqlBackend> Clone for Session<B> {
    fn clone(&self) -> Self {
        Session {
            service: self.service.clone(),
            qm: self.qm.clone(),
        }
    }
}

impl<B: SqlBackend> Session<B> {
    pub(crate) fn new(service: SieveService<B>, qm: QueryMetadata) -> Self {
        Session { service, qm }
    }

    /// The metadata this session queries under.
    pub fn metadata(&self) -> &QueryMetadata {
        &self.qm
    }

    /// The shared service behind this session.
    pub fn service(&self) -> &SieveService<B> {
        &self.service
    }

    /// Execute a query under SIEVE enforcement as this session's querier.
    pub fn execute(&self, query: &SelectQuery) -> SieveResult<QueryResult> {
        self.service.execute(query, &self.qm)
    }

    /// Parse SQL, then [`Session::execute`] (shares the service-wide
    /// parsed-AST cache).
    pub fn execute_sql(&self, sql: &str) -> SieveResult<QueryResult> {
        self.service.execute_sql(sql, &self.qm)
    }

    /// Rewrite a query without executing it.
    pub fn rewrite(&self, query: &SelectQuery) -> SieveResult<RewriteOutput> {
        self.service.rewrite(query, &self.qm)
    }

    /// The session's guarded expression for a protected relation.
    pub fn guarded_expression(&self, relation: &str) -> SieveResult<GuardedExpression> {
        self.service.guarded_expression(&self.qm, relation)
    }

    /// Prepare a query for repeated execution: rewrite it now, pin the
    /// compiled fragments, and hand back a [`Prepared`] whose `execute`
    /// skips the middleware entirely while the plan stays fresh.
    pub fn prepare(&self, query: SelectQuery) -> SieveResult<Prepared<B>> {
        let prepared = Prepared {
            service: self.service.clone(),
            qm: self.qm.clone(),
            source: query,
            plan: Mutex::new(None),
            reprepares: AtomicU64::new(0),
        };
        prepared.refresh_plan(None)?;
        Ok(prepared)
    }

    /// Parse SQL and [`Session::prepare`] it.
    pub fn prepare_sql(&self, sql: &str) -> SieveResult<Prepared<B>> {
        self.prepare(minidb::sql::parse(sql)?)
    }
}

/// A server-side statement held open for a plan's lifetime. Closing on
/// `Drop` (of the last `Arc<Plan>` clone) rather than at re-prepare time
/// means an in-flight `execute` on another thread can never race a close
/// of the statement it is running.
struct StatementPin<B: SqlBackend> {
    service: SieveService<B>,
    id: StatementId,
    /// The literal values lifted out of the rewritten query, in placeholder
    /// order — re-sent on every execute, as a wire client would.
    params: Vec<minidb::value::Value>,
}

impl<B: SqlBackend> Drop for StatementPin<B> {
    fn drop(&mut self) {
        self.service.close_statement(self.id);
    }
}

/// A rewritten plan plus the validity stamps it was built under. Shared
/// as one `Arc`, so a warm execute pins query + fragments (and through
/// them the ∆ partitions) with a single refcount bump.
struct Plan<B: SqlBackend> {
    query: SelectQuery,
    /// Pins the plan's ∆ partitions for as long as the plan is held.
    _fragments: Vec<Arc<GuardFragment>>,
    /// Server-side statement over `query`, when the backend supports
    /// prepared execution (`None` keeps the in-process AST path). A stale
    /// plan's statement closes when its last holder drops.
    statement: Option<StatementPin<B>>,
    backend_epoch: u64,
    revision: u64,
}

/// A statement prepared for one querier: the compiled rewrite is pinned
/// and re-executed without touching the guard cache. Stale plans (backend
/// epoch or service revision moved) transparently re-prepare on the next
/// [`Prepared::execute`]. Shareable across threads (`&self` API).
pub struct Prepared<B: SqlBackend = Database> {
    service: SieveService<B>,
    qm: QueryMetadata,
    source: SelectQuery,
    plan: Mutex<Option<Arc<Plan<B>>>>,
    reprepares: AtomicU64,
}

impl<B: SqlBackend> Prepared<B> {
    /// The metadata this statement executes under.
    pub fn metadata(&self) -> &QueryMetadata {
        &self.qm
    }

    /// The original (pre-rewrite) query.
    pub fn source(&self) -> &SelectQuery {
        &self.source
    }

    /// How many times the plan was rebuilt after the initial prepare
    /// (observability: an epoch/revision bump shows up here).
    pub fn reprepares(&self) -> u64 {
        self.reprepares.load(Ordering::Relaxed)
    }

    /// The server-side statement id behind the current plan, if the
    /// backend prepared one (observability: a re-prepare shows up as a
    /// fresh id, an AST-path backend as `None`).
    pub fn statement_id(&self) -> Option<StatementId> {
        let slot = self.plan.lock();
        slot.as_ref().and_then(|p| p.statement.as_ref().map(|s| s.id))
    }

    /// True iff the plan's validity stamps still match the service.
    fn plan_fresh(&self, p: &Plan<B>) -> bool {
        p.backend_epoch == self.service.backend_epoch()
            && p.revision == self.service.revision()
    }

    /// Rebuild the plan from the current service state.
    ///
    /// `observed` is the plan the caller found stale or failing (`None`
    /// at initial prepare). The plan mutex is held across the whole
    /// rebuild, making recovery **single-flight**: a storm of threads
    /// that all observed the same dead plan queue here, the first
    /// rebuilds, and every later one finds the slot holds a *different*,
    /// fresh plan and reuses it — one re-prepare total, not one per
    /// thread.
    fn refresh_plan(&self, observed: Option<&Arc<Plan<B>>>) -> SieveResult<Arc<Plan<B>>> {
        let mut slot = self.plan.lock();
        if let Some(cur) = slot.as_ref() {
            let replaced = observed.map(|o| !Arc::ptr_eq(o, cur)).unwrap_or(false);
            if replaced && self.plan_fresh(cur) {
                return Ok(Arc::clone(cur));
            }
        }
        // Stamps are captured *before* the rewrite: if a writer bumps
        // either counter mid-rewrite, the stored plan is already marked
        // stale and the next execute re-prepares — conservative, never
        // wrong.
        let backend_epoch = self.service.backend_epoch();
        let revision = self.service.revision();
        let out = self.service.rewrite(&self.source, &self.qm)?;
        // Pin a server-side statement when the backend offers one: the
        // rewritten text is rendered, shipped and parsed once here, and
        // every subsequent warm execute goes by statement id + bound
        // parameters instead of re-crossing the wire as text.
        let statement = self.service.prepare_statement(&out.query)?.map(|ps| StatementPin {
            service: self.service.clone(),
            id: ps.id,
            params: ps.params,
        });
        let plan = Arc::new(Plan {
            query: out.query,
            _fragments: out.fragments,
            statement,
            backend_epoch,
            revision,
        });
        if slot.is_some() {
            self.reprepares.fetch_add(1, Ordering::Relaxed);
            self.service.note_reprepare();
        }
        *slot = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// Dispatch an already-built plan to the backend.
    fn run_plan(&self, plan: &Plan<B>) -> SieveResult<QueryResult> {
        match &plan.statement {
            Some(pin) => self.service.execute_statement(pin.id, &pin.params),
            None => self.service.exec_prepared(&plan.query),
        }
    }

    /// Execute the statement. While the plan is fresh this is the
    /// middleware's fastest path: one `Arc` clone under a short mutex
    /// (which pins query and ∆ partitions together), then run on the
    /// backend under its shared read lock.
    ///
    /// Recovery: if the backend reports that server-side statement state
    /// was lost ([`crate::SieveError::needs_reprepare`] — a connection
    /// drop or statement eviction), the plan is rebuilt **once** and the
    /// query re-run; a second failure surfaces to the caller. Everything
    /// else fails closed immediately with the typed error.
    pub fn execute(&self) -> SieveResult<QueryResult> {
        let (observed, fresh) = {
            let slot = self.plan.lock();
            match slot.as_ref() {
                Some(p) => (Some(Arc::clone(p)), self.plan_fresh(p)),
                None => (None, false),
            }
        };
        let plan = match (observed, fresh) {
            (Some(p), true) => p,
            (observed, _) => self.refresh_plan(observed.as_ref())?,
        };
        match self.run_plan(&plan) {
            Err(e) if e.needs_reprepare() => {
                let plan = self.refresh_plan(Some(&plan))?;
                self.run_plan(&plan)
            }
            done => done,
        }
    }
}
