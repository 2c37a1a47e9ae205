//! The concurrent middleware service — SIEVE as a shared `&self` object.
//!
//! The paper positions SIEVE as middleware that many queriers hit
//! *simultaneously*; [`SieveService`] is that deployment shape in code.
//! It is `Send + Sync` and cheaply clonable (all state behind one `Arc`),
//! and the **entire read/query path** — [`SieveService::rewrite`],
//! [`SieveService::execute`], [`SieveService::execute_sql`],
//! [`SieveService::prepare_batch`] — takes `&self`, so any number of
//! connection threads drive one service concurrently. Mutation
//! ([`SieveService::add_policy`], [`SieveService::with_backend_mut`], …)
//! also goes through `&self`, serialized by the write sides of the
//! internal locks.
//!
//! # Internal locking
//!
//! State is split so the warm path shares everything:
//!
//! * policy store, group directory, cost model, options, protected set —
//!   each behind its own `RwLock` (read-mostly; `add_policy` takes the
//!   store's write lock only to append);
//! * the [`GuardCache`] is sharded — a warm hit takes one shard's *read*
//!   lock (see [`crate::cache`]);
//! * the backend sits behind a `RwLock<B>`: queries execute under the
//!   read lock (engines execute through `&self`), out-of-band mutation
//!   takes the write lock and bumps the **backend epoch**, so every
//!   guard generated before the write regenerates on its next use;
//! * ∆ partitions are reference-counted
//!   ([`crate::delta::PartitionHandle`]) so invalidation can never free a
//!   partition a concurrent query still references.
//!
//! Lock order (outer → inner): `single-flight generation claim → store →
//! groups → cost/options → protected → backend → cache shard → sql
//! cache`, with the persist state, baseline pins and the ∆ registry as
//! leaves. Cache closures never take other locks.
//!
//! # Single-flight generation
//!
//! A cold `(querier, purpose, relation)` key hit by N sessions at once
//! used to trigger N identical generations (each held the store *read*
//! lock, so nothing serialized them). Generation is now **single-flight**:
//! the first thread claims the key via
//! [`GuardCache::begin_generation`], the rest park until the claim drops,
//! re-check the cache, and reuse the published entry — exactly one
//! generation per cold key, with the avoided duplicates counted in
//! [`GuardCacheStats::coalesced`].
//!
//! # Consistency under concurrent `add_policy`
//!
//! Guard generation runs **while holding the store's read lock** and
//! publishes into the cache before releasing it. `add_policy` appends
//! under the store's *write* lock, then sweeps the cache marking affected
//! keys outdated. The lock forces one of two orders: either the generator
//! read the store after the append (its expression already covers the new
//! policy), or the generator published before the append completed — in
//! which case the sweep, which runs strictly after the append, finds the
//! entry and marks it. A query that *starts* after `add_policy` returns
//! can therefore never run under a guard that silently misses the policy;
//! queries already in flight linearize before it, exactly like a query
//! racing a policy insert on a single thread.
//!
//! Group-membership changes ([`SieveService::with_groups_mut`]) follow
//! the same argument with the groups lock: generation holds its read side
//! across the publish, and the membership change clears the cache before
//! releasing the write side.
//!
//! Per-querier state lives in [`crate::session::Session`] handles (the
//! object a wire server would hand each connection), and
//! [`crate::session::Prepared`] pins a compiled rewrite for repeated
//! execution with zero cache traffic while fresh.

use crate::analyze;
use crate::backend::{BackendError, SqlBackend};
use crate::baselines::{
    rewrite_baseline_i, rewrite_baseline_p, rewrite_baseline_u, Baseline,
};
use crate::batch::{BatchGroupReport, BatchPrepareReport};
use crate::cache::{CachedFragment, CachedGuard, GuardCache, GuardCacheKey, GuardCacheStats};
use crate::cost::CostModel;
use crate::delta::{DeltaRegistry, PartitionHandle};
use crate::dynamic::{optimal_regeneration_interval, RegenerationPolicy};
use crate::filter::{policy_applies, relevant_policies, GroupDirectory};
use crate::guard::{
    generate_guarded_expression, owner_fallback_guards, GuardedExpression,
};
use crate::middleware::{Enforcement, SieveOptions};
use crate::policy::{Policy, PolicyId, QueryMetadata};
use crate::rewrite::{
    classify_protected_refs, collect_protected, compile_guard_fragment,
    compile_guard_fragment_memo, rewrite_query, CompiledRelation, FragmentCompileCache,
    RewriteOutput,
};
use crate::error::{SieveError, SieveResult};
use crate::store::{
    create_policy_tables, persist_guarded_expression, persist_policy, GuardTableIds,
    PolicyStore,
};
use minidb::error::DbError;
use minidb::exec::ExecOptions;
use minidb::plan::SelectQuery;
use minidb::stats::ExecStats;
use minidb::{Database, QueryResult};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bound on the parsed-SQL cache (entries); repeat textual queries skip
/// the parser. Eviction is LRU-on-access, one entry at a time — the same
/// retention policy as the sharded [`GuardCache`], so a hot query text
/// survives unbounded churn of one-shot texts (FIFO would evict it after
/// `SQL_CACHE_CAP` distinct insertions regardless of use).
pub const SQL_CACHE_CAP: usize = 256;

/// Below this many per-querier generations a batch group stays on the
/// calling thread — spawning costs more than the set covers save.
const PARALLEL_BATCH_MIN: usize = 8;

/// Everything that keeps one prepared query executable: the compiled
/// fragments it references (Sieve path) and directly registered ∆
/// handles (Baseline U path). Held only for its drop.
#[derive(Default)]
struct PreparePins {
    _fragments: Vec<Arc<crate::rewrite::GuardFragment>>,
    _handles: Vec<PartitionHandle>,
}

pub(crate) struct PersistState {
    pub(crate) guard_ids: GuardTableIds,
    pub(crate) oc_id: i64,
}

/// Internal atomics behind [`RecoveryStats`].
#[derive(Default)]
pub(crate) struct RecoveryCounters {
    retries: AtomicU64,
    reconnects: AtomicU64,
    reprepares: AtomicU64,
    exhausted: AtomicU64,
}

/// Counters for the fault-recovery machinery, the recovery-side
/// complement of [`GuardCacheStats`]. Snapshot via
/// [`SieveService::recovery_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Retry attempts issued after a retryable backend error (each sleep
    /// of the backoff schedule counts once).
    pub retries: u64,
    /// Connection-loss events observed; each one bumps the backend epoch
    /// so every prepared plan re-prepares against the fresh connection.
    pub reconnects: u64,
    /// Prepared-plan rebuilds (staleness- or error-triggered) across all
    /// sessions of this service.
    pub reprepares: u64,
    /// Operations that still failed after exhausting the retry budget.
    pub exhausted: u64,
}

/// Everything one service instance shares across its clones, sessions and
/// prepared statements.
pub(crate) struct ServiceShared<B: SqlBackend> {
    pub(crate) backend: RwLock<B>,
    /// Backend write-epoch: bumped on every mutable backend access, so
    /// guards generated before an out-of-band write are detectably stale.
    pub(crate) backend_epoch: AtomicU64,
    /// Policy/configuration revision: bumped by `add_policy`, `protect`,
    /// option/cost/group mutation and `invalidate_all`. A
    /// [`crate::session::Prepared`] plan records the revision it was
    /// built under and transparently re-prepares when it trails.
    pub(crate) revision: AtomicU64,
    pub(crate) store: RwLock<PolicyStore>,
    pub(crate) groups: RwLock<GroupDirectory>,
    pub(crate) cost: RwLock<CostModel>,
    pub(crate) options: RwLock<SieveOptions>,
    pub(crate) delta: Arc<DeltaRegistry>,
    pub(crate) cache: GuardCache,
    pub(crate) protected: RwLock<HashSet<String>>,
    pub(crate) persist: Mutex<PersistState>,
    sql_cache: RwLock<crate::lru::LruMap<Arc<SelectQuery>>>,
    pub(crate) generations: AtomicU64,
    pub(crate) recovery: RecoveryCounters,
}

/// The concurrent SIEVE middleware handle. Clones share all state; see
/// the [module docs](self) for the locking design.
pub struct SieveService<B: SqlBackend = Database> {
    pub(crate) inner: Arc<ServiceShared<B>>,
}

impl<B: SqlBackend> Clone for SieveService<B> {
    fn clone(&self) -> Self {
        SieveService {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl SieveService<Database> {
    /// Serve an in-process database. Installs the ∆ UDF; creates the
    /// policy relations when persistence is on.
    pub fn new(db: Database, options: SieveOptions) -> SieveResult<Self> {
        Self::with_backend(db, options)
    }

    /// Read access to the database (holds the backend read lock).
    ///
    /// Do not call back into the service while holding this guard: a
    /// writer queued behind it would deadlock the re-entrant read.
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.inner.backend.read()
    }
}

impl<B: SqlBackend> SieveService<B> {
    /// Wrap an arbitrary execution backend. Installs the ∆ UDF; creates
    /// the policy relations when persistence is on.
    pub fn with_backend(mut backend: B, options: SieveOptions) -> SieveResult<Self> {
        let delta = DeltaRegistry::new();
        delta.install(&mut backend);
        if options.persist {
            create_policy_tables(&mut backend)?;
        }
        Ok(SieveService {
            inner: Arc::new(ServiceShared {
                backend: RwLock::new(backend),
                backend_epoch: AtomicU64::new(0),
                revision: AtomicU64::new(0),
                store: RwLock::new(PolicyStore::new()),
                groups: RwLock::new(GroupDirectory::new()),
                cost: RwLock::new(CostModel::default()),
                options: RwLock::new(options),
                delta,
                cache: GuardCache::new(),
                protected: RwLock::new(HashSet::new()),
                persist: Mutex::new(PersistState {
                    guard_ids: GuardTableIds::default(),
                    oc_id: 0,
                }),
                sql_cache: RwLock::new(crate::lru::LruMap::new(SQL_CACHE_CAP)),
                generations: AtomicU64::new(0),
                recovery: RecoveryCounters::default(),
            }),
        })
    }

    /// Identity. Kept only for `perfbench/src/env.rs`, which still calls
    /// `campus.sieve.into_service()`; the next benchmark PR switches that
    /// call to `campus.sieve` and deletes this method.
    #[doc(hidden)]
    pub fn into_service(self) -> Self {
        self
    }

    /// A per-querier session handle carrying `qm` for every call.
    pub fn session(&self, qm: QueryMetadata) -> crate::session::Session<B> {
        crate::session::Session::new(self.clone(), qm)
    }

    /// Read access to the execution backend (holds the backend read
    /// lock). Do not call back into the service while holding the guard.
    pub fn backend(&self) -> RwLockReadGuard<'_, B> {
        self.inner.backend.read()
    }

    /// Run `f` with mutable backend access (e.g. for loading data). Takes
    /// the backend write lock and bumps the backend epoch: any cached
    /// guard generated before this access is treated as stale and
    /// regenerated on its next use.
    pub fn with_backend_mut<R>(&self, f: impl FnOnce(&mut B) -> R) -> R {
        let mut backend = self.inner.backend.write();
        self.inner.backend_epoch.fetch_add(1, Ordering::SeqCst);
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
        f(&mut backend)
    }

    /// The current backend write-epoch (observability/tests).
    pub fn backend_epoch(&self) -> u64 {
        self.inner.backend_epoch.load(Ordering::SeqCst)
    }

    /// The current policy/configuration revision (observability; prepared
    /// statements re-prepare when it moves).
    pub fn revision(&self) -> u64 {
        self.inner.revision.load(Ordering::SeqCst)
    }

    /// Current cost model (copy).
    pub fn cost_model(&self) -> CostModel {
        *self.inner.cost.read()
    }

    /// Replace the cost model (e.g. after [`crate::cost::calibrate`]).
    pub fn set_cost_model(&self, cost: CostModel) {
        *self.inner.cost.write() = cost;
        self.invalidate_all();
    }

    /// Calibrate the cost model against a loaded table (Section 5.4).
    pub fn calibrate(&self, table: &str, sample_rows: usize) -> SieveResult<()> {
        let policies: Vec<Policy> =
            self.inner.store.read().iter().take(64).cloned().collect();
        let refs: Vec<&Policy> = policies.iter().collect();
        let model = {
            let backend = self.inner.backend.read();
            crate::cost::calibrate(&*backend, table, &refs, sample_rows)?
        };
        *self.inner.cost.write() = model;
        self.invalidate_all();
        Ok(())
    }

    /// Read access to the group directory (holds its read lock).
    pub fn groups(&self) -> RwLockReadGuard<'_, GroupDirectory> {
        self.inner.groups.read()
    }

    /// Run `f` with mutable access to the group directory. Membership
    /// decides which group policies reach a querier, so every cached
    /// guard is dropped — and the revision bumped, so prepared statements
    /// re-prepare — before the write lock is released. Generation holds
    /// the groups read lock across its cache publish, so an expression
    /// built from the old directory cannot land after the sweep.
    pub fn with_groups_mut<R>(&self, f: impl FnOnce(&mut GroupDirectory) -> R) -> R {
        let mut groups = self.inner.groups.write();
        let out = f(&mut groups);
        self.invalidate_all();
        out
    }

    /// Options in effect (clone).
    pub fn options(&self) -> SieveOptions {
        self.inner.options.read().clone()
    }

    /// Run `f` with mutable access to the options (e.g. to force a
    /// strategy between runs). Bumps the revision so prepared statements
    /// re-prepare under the new options.
    pub fn with_options_mut<R>(&self, f: impl FnOnce(&mut SieveOptions) -> R) -> R {
        let mut options = self.inner.options.write();
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
        f(&mut options)
    }

    /// Number of registered policies.
    pub fn policy_count(&self) -> usize {
        self.inner.store.read().len()
    }

    /// Snapshot of the registered policies (clones; oracle/test use).
    pub fn policies(&self) -> Vec<Policy> {
        self.inner.store.read().iter().cloned().collect()
    }

    /// Register a policy. Marks affected guarded expressions outdated and
    /// (optionally) persists to the policy relations. See the module docs
    /// for why a query starting after this returns can never miss the
    /// policy.
    pub fn add_policy(&self, policy: Policy) -> SieveResult<PolicyId> {
        let (id, stored) = {
            let mut store = self.inner.store.write();
            let id = store.add(policy);
            let stored = store
                .get(id)
                .ok_or(SieveError::Internal("policy vanished under write lock"))?
                .clone();
            (id, stored)
        };
        self.inner.protected.write().insert(stored.relation.clone());
        // Persist failure must not short-circuit: the policy is already
        // committed to the store, so the invalidation sweep and revision
        // bump below have to run regardless or cached guards would keep
        // serving a view the store contradicts. The error is surfaced
        // after enforcement state is consistent.
        let persisted = if self.inner.options.read().persist {
            let mut backend = self.inner.backend.write();
            let mut persist = self.inner.persist.lock();
            persist_policy(&mut *backend, &stored, &mut persist.oc_id)
        } else {
            Ok(())
        };
        // Outdate exactly the cached expressions the policy affects (the
        // precise invalidation path of Section 6's delta machinery).
        {
            let groups = self.inner.groups.read();
            self.inner
                .cache
                .invalidate_where(id, |(querier, purpose, relation)| {
                    *relation == stored.relation && {
                        let qm = QueryMetadata::new(*querier, purpose.clone());
                        policy_applies(&stored, &qm, &groups)
                    }
                });
        }
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
        persisted.map(|()| id)
    }

    /// Bulk registration.
    pub fn add_policies(&self, policies: impl IntoIterator<Item = Policy>) -> SieveResult<()> {
        for p in policies {
            self.add_policy(p)?;
        }
        Ok(())
    }

    /// Drop all cached guarded expressions; their ∆ partitions are freed
    /// as the last in-flight pins drop.
    pub fn invalidate_all(&self) {
        self.inner.cache.clear();
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
    }

    /// Guard-cache counters (hits, misses, invalidations, fragment work).
    pub fn cache_stats(&self) -> GuardCacheStats {
        self.inner.cache.stats()
    }

    /// Guarded-expression generations performed (observability).
    pub fn generations(&self) -> u64 {
        self.inner.generations.load(Ordering::Relaxed)
    }

    /// Live ∆ partitions (observability: cached fragments keep theirs
    /// registered; precise invalidation must keep this bounded).
    pub fn delta_len(&self) -> usize {
        self.inner.delta.len()
    }

    /// Declare a relation access-controlled even before any policy exists
    /// for it. Under the opt-out default (Section 3.1) a protected
    /// relation with no applicable policies yields **no rows**.
    /// [`SieveService::add_policy`] protects the policy's relation
    /// implicitly.
    pub fn protect(&self, relation: impl Into<String>) {
        self.inner.protected.write().insert(relation.into());
        self.inner.revision.fetch_add(1, Ordering::SeqCst);
    }

    /// Read access to the protected-relation set (holds its read lock).
    pub fn protected_relations(&self) -> RwLockReadGuard<'_, HashSet<String>> {
        self.inner.protected.read()
    }

    fn snapshot_config(&self) -> (SieveOptions, CostModel) {
        (self.inner.options.read().clone(), *self.inner.cost.read())
    }

    /// True iff the entry must be regenerated before use: its backend
    /// epoch trails (out-of-band data/schema mutation — a correctness
    /// hazard that overrides the regeneration policy), or it is outdated
    /// and due under the configured policy (Section 6's threshold for
    /// `OptimalRate`).
    fn regeneration_due(&self, c: &CachedGuard, opts: &SieveOptions, cost: &CostModel) -> bool {
        if c.epoch != self.inner.backend_epoch.load(Ordering::SeqCst) {
            return true;
        }
        c.outdated
            && match opts.regeneration {
                RegenerationPolicy::Immediate => true,
                RegenerationPolicy::Manual => false,
                RegenerationPolicy::OptimalRate {
                    queries_per_insertion,
                } => {
                    let guards = c.base.guards.len().max(1) as f64;
                    let rho_avg = c.base.total_guard_rows() / guards;
                    let k = optimal_regeneration_interval(
                        cost,
                        rho_avg,
                        queries_per_insertion,
                    );
                    c.pending.len() as f64 >= k
                }
            }
    }

    /// True iff the key requires a fresh generation: no cache entry, or an
    /// outdated one past its regeneration threshold.
    fn needs_generation(&self, key: &GuardCacheKey, opts: &SieveOptions, cost: &CostModel) -> bool {
        self.inner
            .cache
            .read(key, |c| self.regeneration_due(c, opts, cost))
            .unwrap_or(true)
    }

    /// Ensure the cache entry exists and is fresh per the regeneration
    /// policy, with its effective expression (base + pending branches)
    /// up to date. Returns the cache key. The warm path is a single shard
    /// read lock. Retries on validation failure against concurrent
    /// invalidation — each retry re-reads the world, so the loop
    /// terminates once no writer interleaves.
    fn refresh_entry(
        &self,
        qm: &QueryMetadata,
        relation: &str,
        opts: &SieveOptions,
        cost: &CostModel,
    ) -> SieveResult<GuardCacheKey> {
        let key: GuardCacheKey = (qm.querier, qm.purpose.clone(), relation.to_string());
        enum Need {
            Fresh,
            Generate,
            Fold(Vec<PolicyId>),
        }
        loop {
            let need = self
                .inner
                .cache
                .read(&key, |c| {
                    if self.regeneration_due(c, opts, cost) {
                        Need::Generate
                    } else if c.effective_pending_len != c.pending.len() {
                        Need::Fold(c.pending.clone())
                    } else {
                        Need::Fresh
                    }
                })
                .unwrap_or(Need::Generate);
            match need {
                Need::Fresh => {
                    self.inner.cache.record_hit();
                    return Ok(key);
                }
                Need::Generate => {
                    // Single-flight (the cold-key stampede fix): claim the
                    // key before doing any generation work. Losers of the
                    // race park inside `begin_generation` until the
                    // winner's ticket drops — one generation per cold key,
                    // not one per session.
                    let _ticket = self.inner.cache.begin_generation(&key);
                    if !self.needs_generation(&key, opts, cost) {
                        // Another thread generated while we waited for the
                        // claim; loop back to take the warm path.
                        self.inner.cache.record_coalesced();
                        continue;
                    }
                    // Hold the store read lock across generation AND the
                    // cache publish — the consistency argument with
                    // `add_policy` (module docs) depends on it.
                    let store = self.inner.store.read();
                    let groups = self.inner.groups.read();
                    let epoch = self.inner.backend_epoch.load(Ordering::SeqCst);
                    let expr = {
                        let backend = self.inner.backend.read();
                        let relevant =
                            relevant_policies(store.iter(), relation, qm, &groups);
                        let entry = backend.table_entry(relation)?;
                        let expr = generate_guarded_expression(
                            &relevant,
                            entry,
                            cost,
                            opts.selection,
                            qm.querier,
                            &qm.purpose,
                            relation,
                        );
                        // Cold generations only — the warm path above never
                        // re-verifies, so steady-state overhead is zero.
                        // Refuted hard-fails (the guard would widen);
                        // Unknown is audit-tooling territory, not a query
                        // failure.
                        if opts.verify_rewrites {
                            let by_id = store.by_id();
                            if let analyze::Verdict::Refuted { witness } =
                                analyze::verify_guarded_expression(&expr, &by_id, &relevant)
                            {
                                return Err(SieveError::SoundnessRefuted {
                                    relation: relation.to_string(),
                                    querier: qm.querier,
                                    witness: analyze::render_witness(&witness),
                                });
                            }
                        }
                        expr
                    };
                    self.inner.generations.fetch_add(1, Ordering::Relaxed);
                    if opts.persist {
                        let mut backend = self.inner.backend.write();
                        let mut persist = self.inner.persist.lock();
                        persist_guarded_expression(
                            &mut *backend,
                            &expr,
                            false,
                            &mut persist.guard_ids,
                        )?;
                    }
                    self.inner
                        .cache
                        .insert_generated(key.clone(), Arc::new(expr), epoch);
                    return Ok(key);
                }
                Need::Fold(pending) => {
                    // Fold pending policies into the effective expression
                    // as per-owner fallback branches (Section 6: queries
                    // between regenerations use G plus the k new
                    // policies). Rebuilt only when the pending set changed
                    // since the last query.
                    let store = self.inner.store.read();
                    let base = match self.inner.cache.read(&key, |c| Arc::clone(&c.base)) {
                        Some(b) => b,
                        None => continue, // evicted meanwhile — regenerate
                    };
                    let mut expr = (*base).clone();
                    {
                        let backend = self.inner.backend.read();
                        let entry = backend.table_entry(relation)?;
                        expr.guards.extend(owner_fallback_guards(
                            pending
                                .iter()
                                .filter_map(|pid| store.get(*pid).map(|p| (*pid, p.owner))),
                            entry,
                        ));
                    }
                    let effective = Arc::new(expr);
                    let installed = self
                        .inner
                        .cache
                        .write(&key, |c| {
                            if c.pending == pending {
                                c.effective = Arc::clone(&effective);
                                c.effective_pending_len = pending.len();
                                true
                            } else {
                                false
                            }
                        })
                        .unwrap_or(false);
                    if installed {
                        self.inner.cache.record_hit();
                        return Ok(key);
                    }
                    // Pending set moved under us — retry from the top.
                }
            }
        }
    }

    /// The compiled relation (effective expression + rewrite fragment) for
    /// a protected relation, reusing the cached fragment when fresh and
    /// recompiling it when not. Superseded fragments free their ∆
    /// partitions once the last in-flight query drops its pin.
    fn compiled_relation(
        &self,
        qm: &QueryMetadata,
        relation: &str,
        opts: &SieveOptions,
        cost: &CostModel,
    ) -> SieveResult<CompiledRelation> {
        let mode = opts.rewrite.delta_mode;
        let key = self.refresh_entry(qm, relation, opts, cost)?;
        loop {
            // Warm path: one shard read checks freshness and clones the
            // Arcs out.
            let fresh = self.inner.cache.read(&key, |c| {
                if !c.fragment_fresh(mode) {
                    return None;
                }
                // A fresh stamp with a missing fragment would break an
                // invariant; treat it as stale and recompile rather than
                // panic on the query path.
                c.fragment.as_ref().map(|f| CompiledRelation {
                    expr: Arc::clone(&c.effective),
                    fragment: Arc::clone(&f.fragment),
                })
            });
            match fresh {
                Some(Some(out)) => {
                    self.inner.cache.record_fragment_hit();
                    return Ok(out);
                }
                Some(None) => {}
                None => {
                    // Entry evicted — refresh and retry.
                    self.refresh_entry(qm, relation, opts, cost)?;
                    continue;
                }
            }
            // Compile outside the shard lock; the store lock keeps the
            // policy view consistent with what we install.
            let store = self.inner.store.read();
            let (effective, pending_len) = match self
                .inner
                .cache
                .read(&key, |c| (Arc::clone(&c.effective), c.pending.len()))
            {
                Some(t) => t,
                None => {
                    drop(store);
                    self.refresh_entry(qm, relation, opts, cost)?;
                    continue;
                }
            };
            let fragment = {
                let backend = self.inner.backend.read();
                let by_id = store.by_id();
                let fragment = compile_guard_fragment(
                    &*backend,
                    &self.inner.delta,
                    &effective,
                    &by_id,
                    cost,
                    mode,
                )?;
                // Cold compiles only (the fragment cache above skips this
                // entirely): check the compiled branches — inline DNF and
                // resolved ∆ partitions alike — against the querier's
                // allowed policies.
                if opts.verify_rewrites {
                    let groups = self.inner.groups.read();
                    let relevant = relevant_policies(store.iter(), relation, qm, &groups);
                    if let analyze::Verdict::Refuted { witness } =
                        analyze::verify_fragment(&fragment, &effective, &by_id, &relevant)
                    {
                        return Err(SieveError::SoundnessRefuted {
                            relation: relation.to_string(),
                            querier: qm.querier,
                            witness: analyze::render_witness(&witness),
                        });
                    }
                }
                Arc::new(fragment)
            };
            let installed = self
                .inner
                .cache
                .write(&key, |c| {
                    if c.fragment_fresh(mode) {
                        // Another thread won the compile race; use theirs
                        // (falling through to install ours if its fragment
                        // is unexpectedly missing).
                        if let Some(f) = c.fragment.as_ref() {
                            return Some(CompiledRelation {
                                expr: Arc::clone(&c.effective),
                                fragment: Arc::clone(&f.fragment),
                            });
                        }
                    }
                    if Arc::ptr_eq(&c.effective, &effective) {
                        c.fragment = Some(CachedFragment {
                            fragment: Arc::clone(&fragment),
                            pending_len,
                            delta_mode: mode,
                        });
                        return Some(CompiledRelation {
                            expr: Arc::clone(&effective),
                            fragment: Arc::clone(&fragment),
                        });
                    }
                    None // effective moved under us — ours is stale
                })
                .flatten();
            match installed {
                Some(out) => {
                    self.inner.cache.record_fragment_build();
                    return Ok(out);
                }
                None => {
                    // Entry evicted or regenerated mid-compile; our
                    // fragment drops here, freeing its partitions.
                    drop(store);
                    self.refresh_entry(qm, relation, opts, cost)?;
                }
            }
        }
    }

    /// Rewrite a query for a querier without executing it (Section 5.6's
    /// output). Satisfied by the guard cache on repeat queries: both the
    /// guarded expression and its compiled rewrite fragment (including ∆
    /// registrations) are reused. The returned output pins the fragments
    /// it references, so the query stays executable even if a concurrent
    /// `add_policy` invalidates the cache entries meanwhile.
    ///
    /// Protected relations are collected over the **whole query tree** —
    /// derived tables, WITH bodies, and scalar subqueries included — with
    /// names resolved against the query's WITH scope first (a CTE that
    /// shadows a protected name is not a base-table read). There is no
    /// nesting depth at which enforcement is skipped.
    pub fn rewrite(&self, query: &SelectQuery, qm: &QueryMetadata) -> SieveResult<RewriteOutput> {
        let (opts, cost) = self.snapshot_config();
        let rels = {
            let protected = self.inner.protected.read();
            collect_protected(query, &protected)
        };
        let mut compiled: HashMap<String, CompiledRelation> = HashMap::new();
        for rel in rels {
            let cr = self.compiled_relation(qm, &rel, &opts, &cost)?;
            compiled.insert(rel, cr);
        }
        let backend = self.inner.backend.read();
        rewrite_query(&*backend, query, &compiled, &cost, &opts.rewrite)
    }

    fn exec_options(&self) -> ExecOptions {
        let opts = self.inner.options.read();
        ExecOptions {
            timeout: opts.timeout,
            threads: opts.exec_threads,
        }
    }

    /// Snapshot of the recovery counters (retries, reconnects,
    /// re-prepares, exhausted budgets).
    pub fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            retries: self.inner.recovery.retries.load(Ordering::Relaxed),
            reconnects: self.inner.recovery.reconnects.load(Ordering::Relaxed),
            reprepares: self.inner.recovery.reprepares.load(Ordering::Relaxed),
            exhausted: self.inner.recovery.exhausted.load(Ordering::Relaxed),
        }
    }

    /// Record a prepared-plan rebuild (called by the session layer).
    pub(crate) fn note_reprepare(&self) {
        self.inner.recovery.reprepares.fetch_add(1, Ordering::Relaxed);
    }

    /// Run a backend operation under the configured [`crate::middleware::RetryPolicy`]:
    /// retryable errors ([`BackendError::is_retryable`]) are re-issued with
    /// deterministic exponential backoff until the attempt or time budget
    /// runs out; everything else fails closed on the first attempt.
    ///
    /// A [`BackendError::ConnectionLost`] additionally bumps the backend
    /// epoch — server-side statement state is gone, so every
    /// [`crate::session::Prepared`] plan must detectably re-prepare — and
    /// counts as a reconnect. Each attempt takes the backend read lock
    /// individually and drops it before sleeping, so the retry loop never
    /// starves writers (or other queries) during its backoff.
    fn with_backend_retry<T>(
        &self,
        mut op: impl FnMut(&B) -> Result<T, BackendError>,
    ) -> SieveResult<T> {
        let retry = self.inner.options.read().retry;
        let start = std::time::Instant::now();
        let mut attempts: u32 = 0;
        loop {
            let err = {
                let backend = self.inner.backend.read();
                match op(&backend) {
                    Ok(v) => return Ok(v),
                    Err(e) => e,
                }
            };
            attempts += 1;
            if matches!(err, BackendError::ConnectionLost(_)) {
                self.inner.recovery.reconnects.fetch_add(1, Ordering::Relaxed);
                self.inner.backend_epoch.fetch_add(1, Ordering::SeqCst);
            }
            let budget_ok = retry.budget.map(|b| start.elapsed() < b).unwrap_or(true);
            if !err.is_retryable() || attempts > retry.max_retries || !budget_ok {
                if err.is_retryable() {
                    self.inner.recovery.exhausted.fetch_add(1, Ordering::Relaxed);
                }
                return Err(if attempts == 1 {
                    SieveError::Backend(err)
                } else {
                    SieveError::RetriesExhausted {
                        attempts,
                        last: err,
                    }
                });
            }
            self.inner.recovery.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(retry.backoff_for(attempts));
        }
    }

    /// Execute a query under SIEVE enforcement.
    pub fn execute(&self, query: &SelectQuery, qm: &QueryMetadata) -> SieveResult<QueryResult> {
        let rewritten = self.rewrite(query, qm)?;
        let opts = self.exec_options();
        self.with_backend_retry(|b| b.exec(&rewritten.query, &opts))
    }

    /// Execute an already-rewritten query (the [`crate::session::Prepared`]
    /// hot path: no cache traffic at all — the caller pins the fragments).
    pub(crate) fn exec_prepared(&self, query: &SelectQuery) -> SieveResult<QueryResult> {
        let opts = self.exec_options();
        self.with_backend_retry(|b| b.exec(query, &opts))
    }

    /// Ask the backend for a server-side statement handle over an
    /// already-rewritten query. `Ok(None)` means the backend has no
    /// prepared-statement support and callers must stay on the text path.
    pub(crate) fn prepare_statement(
        &self,
        query: &SelectQuery,
    ) -> SieveResult<Option<crate::backend::PreparedStatement>> {
        self.with_backend_retry(|b| b.prepare(query))
    }

    /// Execute a server-side prepared statement with bound parameters
    /// (the [`crate::session::Prepared`] hot path on wire backends). A
    /// connection drop mid-retry typically resurfaces as
    /// [`BackendError::UnknownStatement`] on the fresh connection — the
    /// typed signal the session layer re-prepares on.
    pub(crate) fn execute_statement(
        &self,
        id: crate::backend::StatementId,
        params: &[minidb::value::Value],
    ) -> SieveResult<QueryResult> {
        let opts = self.exec_options();
        self.with_backend_retry(|b| b.execute_prepared(id, params, &opts))
    }

    /// Close a server-side prepared statement; unknown ids are a no-op.
    pub(crate) fn close_statement(&self, id: crate::backend::StatementId) {
        let backend = self.inner.backend.read();
        backend.close_prepared(id);
    }

    /// Execute and time a query under any enforcement mechanism; the
    /// experiment harness's single entry point. The returned counters are
    /// this execution's own, exact under any number of concurrent callers.
    /// The ∆ partitions of the prepared query are pinned locally across
    /// the execution, so a concurrent invalidation cannot fail the run.
    pub fn run_timed(
        &self,
        enforcement: Enforcement,
        query: &SelectQuery,
        qm: &QueryMetadata,
    ) -> (SieveResult<QueryResult>, ExecStats) {
        let (prepared, _pins) = match self.prepare_pinned(enforcement, query, qm) {
            Ok(t) => t,
            Err(e) => return (Err(e), ExecStats::default()),
        };
        let opts = self.exec_options();
        // Retry with the stats of the *last* attempt: recovery time is the
        // caller's to observe via wall-clock, not folded into engine
        // counters from failed attempts.
        let mut last_stats = ExecStats::default();
        let res = self.with_backend_retry(|b| {
            let (r, stats) = b.exec_timed(&prepared, &opts);
            last_stats = stats;
            r
        });
        (res, last_stats)
    }

    /// Produce the executable query for an enforcement mechanism without
    /// running it (rewriting cost is *not* part of the measured times, as
    /// in the paper, which reports warm per-query execution). The query
    /// stays executable exactly as long as the caller holds the pins.
    fn prepare_pinned(
        &self,
        enforcement: Enforcement,
        query: &SelectQuery,
        qm: &QueryMetadata,
    ) -> SieveResult<(SelectQuery, PreparePins)> {
        match enforcement {
            Enforcement::Sieve => {
                let out = self.rewrite(query, qm)?;
                Ok((
                    out.query,
                    PreparePins {
                        _fragments: out.fragments,
                        _handles: Vec::new(),
                    },
                ))
            }
            Enforcement::NoPolicies => Ok((query.clone(), PreparePins::default())),
            Enforcement::Baseline(which) => {
                // The baseline rewrites (policy DNF in WHERE, per-policy
                // UNION, per-tuple UDF) attach to top-level FROM entries
                // only; a protected relation read through nesting would
                // escape them, so they fail closed instead of silently
                // under-enforcing. Sieve enforcement mediates all depths.
                let (top, nested) = {
                    let protected = self.inner.protected.read();
                    classify_protected_refs(query, &protected)
                };
                if !nested.is_empty() {
                    return Err(SieveError::Rewrite(DbError::Unsupported(format!(
                        "baseline {which:?} mediates only top-level FROM references; \
                         protected relation(s) {nested:?} are read through a subquery, \
                         WITH body, or derived table — use Sieve enforcement"
                    ))));
                }
                let mut handles: Vec<PartitionHandle> = Vec::new();
                let store = self.inner.store.read();
                let groups = self.inner.groups.read();
                let backend = self.inner.backend.read();
                let mut rewritten = query.clone();
                for rel in top {
                    let relevant = relevant_policies(store.iter(), &rel, qm, &groups);
                    rewritten = match which {
                        Baseline::P => rewrite_baseline_p(&rewritten, &rel, &relevant),
                        Baseline::I => rewrite_baseline_i(&rewritten, &rel, &relevant),
                        Baseline::U => {
                            // On error the handles collected so far drop
                            // right here — no leak to reclaim later.
                            let (q, h) = rewrite_baseline_u(
                                &*backend,
                                &self.inner.delta,
                                &rewritten,
                                &rel,
                                &relevant,
                            )?;
                            handles.extend(h);
                            q
                        }
                    };
                }
                Ok((
                    rewritten,
                    PreparePins {
                        _fragments: Vec::new(),
                        _handles: handles,
                    },
                ))
            }
        }
    }

    /// The guarded expression for (querier, purpose, relation), generating
    /// or refreshing it per the regeneration policy. Returns the
    /// expression actually used for enforcement (stale + pending branches
    /// under `OptimalRate`/`Manual` when below the regeneration threshold).
    pub fn guarded_expression(
        &self,
        qm: &QueryMetadata,
        relation: &str,
    ) -> SieveResult<GuardedExpression> {
        let (opts, cost) = self.snapshot_config();
        loop {
            let key = self.refresh_entry(qm, relation, &opts, &cost)?;
            // A concurrent bulk insert can LRU-evict the entry between the
            // refresh and this read; that's churn, not an error — refresh
            // again (same recovery as compiled_relation).
            if let Some(expr) = self.inner.cache.read(&key, |c| (*c.effective).clone()) {
                return Ok(expr);
            }
        }
    }

    /// Parse SQL, then [`SieveService::execute`]. Repeat textual queries
    /// reuse the cached AST instead of re-parsing; warm lookups take only
    /// the cache's read lock.
    pub fn execute_sql(&self, sql: &str, qm: &QueryMetadata) -> SieveResult<QueryResult> {
        // The read-side `get` marks the entry most-recently-used, so a hot
        // query text survives churn of one-shot texts (LRU-on-access, same
        // policy as the guard cache).
        if let Some(q) = self.inner.sql_cache.read().get(sql) {
            return self.execute(&q, qm);
        }
        let q = Arc::new(minidb::sql::parse(sql)?);
        {
            let mut cache = self.inner.sql_cache.write();
            // Re-check: another thread may have inserted while we parsed.
            // (Re-inserting would be harmless — same parse result — but
            // would reset the entry's recency from this thread's stale
            // view.)
            if !cache.contains_key(sql) {
                cache.insert(sql.to_string(), Arc::clone(&q));
            }
        }
        self.execute(&q, qm)
    }

    /// Number of parsed-SQL cache entries (observability/tests).
    pub fn sql_cache_len(&self) -> usize {
        self.inner.sql_cache.read().len()
    }

    /// True iff this exact SQL text is cached (observability/tests).
    pub fn sql_cache_contains(&self, sql: &str) -> bool {
        self.inner.sql_cache.read().contains_key(sql)
    }

    /// Warm-populate the guard cache for a batch of concurrent queriers
    /// (the ROADMAP's batched multi-querier evaluation). Requests are
    /// grouped by `(purpose, relation)` over the whole query tree; each
    /// group's policy-store scan and candidate generation (policy
    /// filtering, histogram estimates, Theorem 1 merges) run **once**,
    /// and only the per-querier restriction + set cover run individually —
    /// spread across `available_parallelism` threads now that the shared
    /// half is immutable borrowed state.
    ///
    /// Batching changes the work schedule, not the semantics: each
    /// querier's expression covers exactly its relevant policies, so
    /// rewriting or executing afterwards returns exactly what sequential
    /// [`SieveService::execute`] calls would.
    pub fn prepare_batch(
        &self,
        requests: &[(QueryMetadata, SelectQuery)],
    ) -> SieveResult<BatchPrepareReport> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.prepare_batch_with_threads(requests, threads)
    }

    /// [`SieveService::prepare_batch`] with an explicit thread count for
    /// the per-querier phase (`1` forces the sequential schedule; tests
    /// pin parallel-vs-sequential equivalence through this).
    pub fn prepare_batch_with_threads(
        &self,
        requests: &[(QueryMetadata, SelectQuery)],
        threads: usize,
    ) -> SieveResult<BatchPrepareReport> {
        let (opts, cost) = self.snapshot_config();
        let groups_map = {
            let protected = self.inner.protected.read();
            crate::batch::group_requests(requests, &protected)
        };
        let mut report = BatchPrepareReport::default();
        let mut to_insert: Vec<(GuardCacheKey, Arc<GuardedExpression>, Option<CachedFragment>)> =
            Vec::new();
        // Hold the store lock across generation and publish, as the
        // single-key path does (see module docs).
        let store = self.inner.store.read();
        let groups = self.inner.groups.read();
        let epoch = self.inner.backend_epoch.load(Ordering::SeqCst);
        let mode = opts.rewrite.delta_mode;
        {
            let backend = self.inner.backend.read();
            let by_id = store.by_id();
            for ((purpose, relation), qms) in groups_map {
                let pending: Vec<&QueryMetadata> = qms
                    .iter()
                    .copied()
                    .filter(|qm| {
                        self.needs_generation(
                            &(qm.querier, purpose.clone(), relation.clone()),
                            &opts,
                            &cost,
                        )
                    })
                    .collect();
                report.reused += qms.len() - pending.len();
                if pending.is_empty() {
                    continue;
                }
                let entry = backend.table_entry(&relation)?;
                let group = crate::batch::build_shared_group(
                    store.iter(),
                    &relation,
                    &purpose,
                    entry,
                    &cost,
                );
                let exprs: Vec<GuardedExpression> =
                    if threads <= 1 || pending.len() < PARALLEL_BATCH_MIN {
                        pending
                            .iter()
                            .map(|qm| {
                                group.generate_for(qm, &groups, entry, &cost, opts.selection)
                            })
                            .collect()
                    } else {
                        // The per-querier phase: restriction + set cover
                        // over shared immutable state, chunked across
                        // scoped threads. Chunks preserve request order.
                        let n = threads.min(pending.len());
                        let chunk = pending.len().div_ceil(n);
                        let groups_ref = &*groups;
                        let group_ref = &group;
                        let cost_ref = &cost;
                        std::thread::scope(|s| {
                            let handles: Vec<_> = pending
                                .chunks(chunk)
                                .map(|part| {
                                    s.spawn(move || {
                                        part.iter()
                                            .map(|qm| {
                                                group_ref.generate_for(
                                                    qm,
                                                    groups_ref,
                                                    entry,
                                                    cost_ref,
                                                    opts.selection,
                                                )
                                            })
                                            .collect::<Vec<_>>()
                                    })
                                })
                                .collect();
                            // Join every handle before surfacing a panic:
                            // an unjoined panicked thread would re-raise
                            // when the scope closes, escaping the typed
                            // error path.
                            let mut parts = Vec::with_capacity(handles.len());
                            let mut panicked = false;
                            for h in handles {
                                match h.join() {
                                    Ok(v) => parts.push(v),
                                    Err(_) => panicked = true,
                                }
                            }
                            if panicked {
                                Err(SieveError::Poisoned("prepare_batch worker panicked"))
                            } else {
                                Ok(parts.into_iter().flatten().collect())
                            }
                        })?
                    };
                self.inner
                    .generations
                    .fetch_add(exprs.len() as u64, Ordering::Relaxed);
                // Compile each generated expression's rewrite fragment
                // here too, sharing partition compilations (inline DNFs
                // and ∆ registrations) across the group's queriers via the
                // memo — fragment compilation is batched per group, not
                // redone per querier on the first post-batch rewrite.
                let mut memo = FragmentCompileCache::default();
                for (qm, expr) in pending.iter().zip(exprs) {
                    // Batch generations are cold by definition — same
                    // verification contract as `refresh_entry`.
                    if opts.verify_rewrites {
                        let relevant = relevant_policies(store.iter(), &relation, qm, &groups);
                        if let analyze::Verdict::Refuted { witness } =
                            analyze::verify_guarded_expression(&expr, &by_id, &relevant)
                        {
                            return Err(SieveError::SoundnessRefuted {
                                relation: relation.clone(),
                                querier: qm.querier,
                                witness: analyze::render_witness(&witness),
                            });
                        }
                    }
                    let expr = Arc::new(expr);
                    let fragment = compile_guard_fragment_memo(
                        &*backend,
                        &self.inner.delta,
                        &expr,
                        &by_id,
                        &cost,
                        mode,
                        &mut memo,
                    )?;
                    to_insert.push((
                        (qm.querier, purpose.clone(), relation.clone()),
                        expr,
                        Some(CachedFragment {
                            fragment: Arc::new(fragment),
                            pending_len: 0,
                            delta_mode: mode,
                        }),
                    ));
                }
                report.generated += pending.len();
                report.fragments_compiled += pending.len();
                report.partition_reuses += memo.reuses;
                report.groups.push(BatchGroupReport {
                    purpose: purpose.clone(),
                    relation: relation.clone(),
                    queriers: qms.len(),
                    generated: pending.len(),
                    slice_policies: group.slice_len,
                    shared_candidates: group.shared_candidates(),
                    partition_reuses: memo.reuses,
                });
            }
        }
        if opts.persist {
            let mut backend = self.inner.backend.write();
            let mut persist = self.inner.persist.lock();
            for (_, expr, _) in &to_insert {
                persist_guarded_expression(&mut *backend, expr, false, &mut persist.guard_ids)?;
            }
        }
        self.inner
            .cache
            .insert_generated_bulk_compiled(to_insert, epoch);
        Ok(report)
    }

    /// Execute a batch of queries under SIEVE enforcement, amortizing
    /// guard generation across queriers via
    /// [`SieveService::prepare_batch`]. Results are in request order and
    /// identical to calling [`SieveService::execute`] per request.
    pub fn execute_batch(
        &self,
        requests: &[(QueryMetadata, SelectQuery)],
    ) -> SieveResult<Vec<QueryResult>> {
        self.prepare_batch(requests)?;
        requests.iter().map(|(qm, q)| self.execute(q, qm)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The service must be shareable across threads by construction.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_and_handles_are_send_sync() {
        assert_send_sync::<SieveService<Database>>();
        assert_send_sync::<crate::session::Session<Database>>();
        assert_send_sync::<crate::session::Prepared<Database>>();
        assert_send_sync::<SieveService<crate::backend::WireSqlBackend>>();
        assert_send_sync::<SieveService<crate::backend::DynBackend>>();
    }
}
