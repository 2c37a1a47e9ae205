//! The single-owner SIEVE middleware façade (paper Section 5).
//!
//! [`Sieve`] is a thin wrapper over the concurrent
//! [`SieveService`](crate::service::SieveService): same enforcement, same
//! caches, same backends — but owned by one caller, with the classic
//! `&mut self` API and direct `&mut` escape hatches
//! ([`Sieve::db_mut`], [`Sieve::backend_mut`], [`Sieve::options_mut`])
//! that a shared service cannot hand out. Experiments, tests and
//! single-threaded embedding use this type; a server that multiplexes
//! connections uses [`SieveService`](crate::service::SieveService) plus
//! per-connection [`Session`](crate::session::Session) handles instead.
//!
//! Queries come in with their metadata, get rewritten against the
//! querier's guarded expressions, and the rewritten query is executed by
//! whatever engine the backend reaches — the in-process [`Database`] by
//! default, or the textual [`crate::WireSqlBackend`] that ships rendered
//! SQL across a simulated wire. Policies enter through
//! [`Sieve::add_policy`], which marks affected guarded expressions
//! outdated; regeneration happens lazily at query time per the
//! configured [`RegenerationPolicy`] (Sections 5.1 and 6).
//!
//! Out-of-band engine mutation ([`Sieve::db_mut`] /
//! [`Sieve::backend_mut`]) bumps a **backend epoch**; cached guards
//! carry the epoch they were generated under and lazily regenerate once
//! it trails, so row estimates, owner-fallback guards and compiled ∆
//! partitions can never act on data mutated underneath them.

use crate::backend::SqlBackend;
use crate::baselines::Baseline;
use crate::batch::BatchPrepareReport;
use crate::cache::GuardCacheStats;
use crate::cost::CostModel;
use crate::dynamic::RegenerationPolicy;
use crate::filter::GroupDirectory;
use crate::guard::{GuardSelectionStrategy, GuardedExpression};
use crate::policy::{Policy, PolicyId, QueryMetadata};
use crate::error::SieveResult;
use crate::rewrite::{RewriteOptions, RewriteOutput};
use crate::service::{RecoveryStats, ServiceShared, SieveService};
use minidb::plan::SelectQuery;
use minidb::stats::ExecStats;
use minidb::{Database, QueryResult};
use parking_lot::RwLockReadGuard;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How the service retries retryable backend failures
/// ([`crate::backend::BackendError::is_retryable`]): bounded attempts,
/// deterministic exponential backoff, and an optional wall-clock budget.
/// Non-retryable errors ignore this policy entirely and fail closed on
/// the first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`3` ⇒ up to 4 attempts total).
    /// `0` disables retrying.
    pub max_retries: u32,
    /// Backoff before retry *n* is `base_backoff × 2^(n−1)`, capped at
    /// [`RetryPolicy::max_backoff`]. Deterministic — no jitter — so fault
    /// schedules replay identically under a fixed seed.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Total wall-clock budget across all attempts of one operation;
    /// `None` bounds recovery by attempt count alone.
    pub budget: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
            budget: Some(Duration::from_secs(1)),
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before retry `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        self.base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }
}

/// Configuration of the middleware.
#[derive(Debug, Clone, Default)]
pub struct SieveOptions {
    /// Guard selection strategy (Algorithm 1 vs the owner-only ablation).
    pub selection: GuardSelectionStrategy,
    /// Rewrite knobs (inline-vs-∆, pushdown, forced strategy).
    pub rewrite: RewriteOptions,
    /// When stale guarded expressions are regenerated.
    pub regeneration: RegenerationPolicy,
    /// Query timeout (the paper's Experiment 3 uses 30 s).
    pub timeout: Option<Duration>,
    /// Worker threads for the engine's morsel-parallel scans (0 or 1 =
    /// sequential). Plumbed into every query's [`minidb::ExecOptions`].
    pub exec_threads: usize,
    /// Mirror policies and guards into the `rP`/`rOC`/`rGE`/`rGG`/`rGP`
    /// relations (Section 5.1).
    pub persist: bool,
    /// Retry/backoff policy for retryable backend failures.
    pub retry: RetryPolicy,
    /// Run the static soundness verifier ([`crate::analyze`]) on every
    /// *cold* guard generation and fragment compilation, hard-failing
    /// the query path with [`crate::SieveError::SoundnessRefuted`] when
    /// a rewritten predicate provably admits a row outside the allowed
    /// policies. `Unknown` verdicts are findings for the audit tooling,
    /// not query failures. Warm (cached) paths never re-verify, so the
    /// steady-state overhead is zero.
    pub verify_rewrites: bool,
}

/// Which enforcement mechanism to run a query under (for experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforcement {
    /// Full SIEVE (guards + strategy selection + inline/∆).
    Sieve,
    /// One of the paper's baselines.
    Baseline(Baseline),
    /// No access control at all (measures raw query cost).
    NoPolicies,
}

/// The single-owner middleware, generic over its execution backend. The
/// default parameter keeps every pre-existing `Sieve` call site compiling
/// against the in-process engine.
pub struct Sieve<B: SqlBackend = Database> {
    service: SieveService<B>,
}

impl Sieve<Database> {
    /// Serve an in-process database. Installs the ∆ UDF; creates the
    /// policy relations when persistence is on.
    pub fn new(db: Database, options: SieveOptions) -> SieveResult<Self> {
        Self::with_backend(db, options)
    }

    /// The database (read access; holds the backend read lock for the
    /// guard's lifetime).
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.service.db()
    }

    /// The wrapped database (mutable, e.g. for loading data). Bumps the
    /// backend epoch: guards generated before this access regenerate
    /// lazily on their next use, since the caller may mutate rows or
    /// schema underneath them.
    ///
    /// Requires exclusive ownership of the underlying service — panics if
    /// a [`Sieve::service`] clone or session handle is still alive (use
    /// [`SieveService::with_backend_mut`] in that case).
    pub fn db_mut(&mut self) -> &mut Database {
        self.backend_mut()
    }
}

impl<B: SqlBackend> Sieve<B> {
    /// Wrap an arbitrary execution backend. Installs the ∆ UDF; creates
    /// the policy relations when persistence is on.
    pub fn with_backend(backend: B, options: SieveOptions) -> SieveResult<Self> {
        Ok(Sieve {
            service: SieveService::with_backend(backend, options)?,
        })
    }

    /// The shared service this façade wraps. Cloning it (or creating
    /// sessions from it) is how a single-owner setup graduates to
    /// concurrent use — but note that while any clone lives, the `&mut`
    /// escape hatches ([`Sieve::db_mut`] and friends) panic; use the
    /// service's `with_*_mut` closures instead.
    pub fn service(&self) -> &SieveService<B> {
        &self.service
    }

    /// Consume the façade, yielding the service handle.
    pub fn into_service(self) -> SieveService<B> {
        self.service
    }

    // A still-alive clone here is a caller contract violation, not a
    // query-path fault — the documented panic stays (allowed past the
    // fail-closed lint gate deliberately).
    #[allow(clippy::disallowed_methods)]
    fn shared_mut(&mut self) -> &mut ServiceShared<B> {
        Arc::get_mut(&mut self.service.inner).expect(
            "Sieve's &mut accessors need exclusive ownership of the underlying \
             SieveService, but a clone/session is still alive; use the \
             SieveService with_*_mut methods instead",
        )
    }

    fn bump_backend_epoch(&self) {
        self.service.inner.backend_epoch.fetch_add(1, Ordering::SeqCst);
        self.service.inner.revision.fetch_add(1, Ordering::SeqCst);
    }

    fn bump_revision(&self) {
        self.service.inner.revision.fetch_add(1, Ordering::SeqCst);
    }

    /// The execution backend (read access; holds the backend read lock).
    pub fn backend(&self) -> RwLockReadGuard<'_, B> {
        self.service.backend()
    }

    /// The execution backend (mutable). Bumps the backend epoch, exactly
    /// like [`Sieve::db_mut`]: any cached guard generated before this
    /// access is treated as stale and regenerated on its next use. Panics
    /// if a service clone or session is still alive.
    pub fn backend_mut(&mut self) -> &mut B {
        self.bump_backend_epoch();
        self.shared_mut().backend.get_mut()
    }

    /// The current backend write-epoch (observability/tests).
    pub fn backend_epoch(&self) -> u64 {
        self.service.backend_epoch()
    }

    /// Current cost model (copy).
    pub fn cost_model(&self) -> CostModel {
        self.service.cost_model()
    }

    /// Replace the cost model (e.g. after [`crate::cost::calibrate`]).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.service.set_cost_model(cost);
    }

    /// Calibrate the cost model against a loaded table (Section 5.4).
    pub fn calibrate(&mut self, table: &str, sample_rows: usize) -> SieveResult<()> {
        self.service.calibrate(table, sample_rows)
    }

    /// Group directory (mutable, for registering memberships). Panics if
    /// a service clone or session is still alive.
    pub fn groups_mut(&mut self) -> &mut GroupDirectory {
        self.bump_revision();
        self.shared_mut().groups.get_mut()
    }

    /// Group directory (read access; holds its read lock).
    pub fn groups(&self) -> RwLockReadGuard<'_, GroupDirectory> {
        self.service.groups()
    }

    /// Options in effect (read access; holds their read lock).
    pub fn options(&self) -> RwLockReadGuard<'_, SieveOptions> {
        self.service.options_ref()
    }

    /// Mutable options (e.g. to force a strategy between runs). Panics if
    /// a service clone or session is still alive.
    pub fn options_mut(&mut self) -> &mut SieveOptions {
        self.bump_revision();
        self.shared_mut().options.get_mut()
    }

    /// Number of registered policies.
    pub fn policy_count(&self) -> usize {
        self.service.policy_count()
    }

    /// Snapshot of the registered policies (clones).
    pub fn policies(&self) -> Vec<Policy> {
        self.service.policies()
    }

    /// Register a policy. Marks affected guarded expressions outdated and
    /// (optionally) persists to the policy relations.
    pub fn add_policy(&mut self, policy: Policy) -> SieveResult<PolicyId> {
        self.service.add_policy(policy)
    }

    /// Bulk registration.
    pub fn add_policies(&mut self, policies: impl IntoIterator<Item = Policy>) -> SieveResult<()> {
        self.service.add_policies(policies)
    }

    /// Drop all cached guarded expressions and free their ∆ partitions.
    pub fn invalidate_all(&mut self) {
        self.service.invalidate_all()
    }

    /// Guard-cache counters (hits, misses, invalidations, fragment work).
    pub fn cache_stats(&self) -> GuardCacheStats {
        self.service.cache_stats()
    }

    /// Recovery counters (retries, reconnects, re-prepares, exhausted
    /// budgets).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.service.recovery_stats()
    }

    /// Guarded-expression generations performed (observability).
    pub fn generations(&self) -> u64 {
        self.service.generations()
    }

    /// Live ∆ partitions (observability: cached fragments keep theirs
    /// registered; precise invalidation must keep this bounded).
    pub fn delta_len(&self) -> usize {
        self.service.delta_len()
    }

    /// Declare a relation access-controlled even before any policy exists
    /// for it. Under the opt-out default (Section 3.1) a protected
    /// relation with no applicable policies yields **no rows** — without
    /// this declaration a brand-new table would be world-readable until
    /// its first policy arrived. [`Sieve::add_policy`] protects the
    /// policy's relation implicitly.
    pub fn protect(&mut self, relation: impl Into<String>) {
        self.service.protect(relation)
    }

    /// Relations currently under access control (read access).
    pub fn protected_relations(&self) -> RwLockReadGuard<'_, HashSet<String>> {
        self.service.protected_relations()
    }

    /// The guarded expression for (querier, purpose, relation), generating
    /// or refreshing it per the regeneration policy.
    pub fn guarded_expression(
        &mut self,
        qm: &QueryMetadata,
        relation: &str,
    ) -> SieveResult<GuardedExpression> {
        self.service.guarded_expression(qm, relation)
    }

    /// Rewrite a query for a querier without executing it (Section 5.6's
    /// output; useful for inspection and tests). Satisfied by the guard
    /// cache on repeat queries.
    pub fn rewrite(&mut self, query: &SelectQuery, qm: &QueryMetadata) -> SieveResult<RewriteOutput> {
        self.service.rewrite(query, qm)
    }

    /// Execute a query under SIEVE enforcement.
    pub fn execute(&mut self, query: &SelectQuery, qm: &QueryMetadata) -> SieveResult<QueryResult> {
        self.service.execute(query, qm)
    }

    /// Execute and time a query under any enforcement mechanism; the
    /// experiment harness's single entry point.
    pub fn run_timed(
        &mut self,
        enforcement: Enforcement,
        query: &SelectQuery,
        qm: &QueryMetadata,
    ) -> (SieveResult<QueryResult>, ExecStats) {
        self.service.run_timed(enforcement, query, qm)
    }

    /// Parse SQL, then [`Sieve::execute`]. Repeat textual queries reuse
    /// the cached AST instead of re-parsing.
    pub fn execute_sql(&mut self, sql: &str, qm: &QueryMetadata) -> SieveResult<QueryResult> {
        self.service.execute_sql(sql, qm)
    }

    /// Number of parsed-SQL cache entries (observability/tests).
    pub fn sql_cache_len(&self) -> usize {
        self.service.sql_cache_len()
    }

    /// True iff this exact SQL text is cached (observability/tests).
    pub fn sql_cache_contains(&self, sql: &str) -> bool {
        self.service.sql_cache_contains(sql)
    }

    /// Warm-populate the guard cache for a batch of concurrent queriers;
    /// see [`SieveService::prepare_batch`].
    pub fn prepare_batch(
        &mut self,
        requests: &[(QueryMetadata, SelectQuery)],
    ) -> SieveResult<BatchPrepareReport> {
        self.service.prepare_batch(requests)
    }

    /// Execute a batch of queries under SIEVE enforcement, amortizing
    /// guard generation across queriers via [`Sieve::prepare_batch`].
    /// Results are in request order and identical to calling
    /// [`Sieve::execute`] per request.
    pub fn execute_batch(
        &mut self,
        requests: &[(QueryMetadata, SelectQuery)],
    ) -> SieveResult<Vec<QueryResult>> {
        self.service.execute_batch(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::relevant_policies;
    use crate::policy::{CondPredicate, ObjectCondition, QuerierSpec};
    use crate::service::SQL_CACHE_CAP;
    use minidb::value::DataType;
    use minidb::{DbProfile, TableSchema, Value};

    fn loaded_sieve(profile: DbProfile) -> Sieve {
        let mut db = Database::new(profile);
        db.create_table(TableSchema::of(
            "wifi_dataset",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
                ("ts_time", DataType::Time),
            ],
        ))
        .unwrap();
        for i in 0..4000i64 {
            db.insert(
                "wifi_dataset",
                vec![
                    Value::Int(i),
                    Value::Int(i % 80),
                    Value::Int(1000 + i % 10),
                    Value::Time(((i * 53) % 86400) as u32),
                ],
            )
            .unwrap();
        }
        for col in ["owner", "wifi_ap", "ts_time"] {
            db.create_index("wifi_dataset", col).unwrap();
        }
        db.analyze("wifi_dataset").unwrap();
        let mut sieve = Sieve::new(db, SieveOptions::default()).unwrap();
        // Owners 0..20 allow querier 500 to see their data at AP 1001.
        for owner in 0..20i64 {
            sieve
                .add_policy(Policy::new(
                    owner,
                    "wifi_dataset",
                    QuerierSpec::User(500),
                    "Analytics",
                    vec![ObjectCondition::new(
                        "wifi_ap",
                        CondPredicate::Eq(Value::Int(1001)),
                    )],
                ))
                .unwrap();
        }
        sieve
    }

    fn oracle_rows(sieve: &Sieve, qm: &QueryMetadata) -> Vec<minidb::Row> {
        let policies = sieve.policies();
        let relevant: Vec<&Policy> =
            relevant_policies(policies.iter(), "wifi_dataset", qm, &sieve.groups());
        let mut rows =
            crate::semantics::visible_rows(&*sieve.db(), "wifi_dataset", &relevant).unwrap();
        rows.sort();
        rows
    }

    #[test]
    fn sieve_matches_oracle_end_to_end() {
        for profile in [DbProfile::MySqlLike, DbProfile::PostgresLike] {
            let mut sieve = loaded_sieve(profile);
            let qm = QueryMetadata::new(500, "Analytics");
            let q = SelectQuery::star_from("wifi_dataset");
            let mut got = sieve.execute(&q, &qm).unwrap().rows;
            got.sort();
            let expect = oracle_rows(&sieve, &qm);
            assert_eq!(got, expect, "profile {profile:?}");
            assert!(!got.is_empty());
        }
    }

    #[test]
    fn unauthorized_querier_sees_nothing() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(501, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn wrong_purpose_sees_nothing() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Marketing");
        let q = SelectQuery::star_from("wifi_dataset");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn all_enforcement_mechanisms_agree() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let expect = oracle_rows(&sieve, &qm);
        for e in [
            Enforcement::Sieve,
            Enforcement::Baseline(Baseline::P),
            Enforcement::Baseline(Baseline::I),
            Enforcement::Baseline(Baseline::U),
        ] {
            let (res, _) = sieve.run_timed(e, &q, &qm);
            let mut rows = res.unwrap().rows;
            rows.sort();
            assert_eq!(rows, expect, "mechanism {e:?} diverged");
        }
    }

    #[test]
    fn cache_regenerates_on_policy_insert() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let n0 = sieve.execute(&q, &qm).unwrap().len();
        let gens_before = sieve.generations();
        // Re-running does not regenerate.
        sieve.execute(&q, &qm).unwrap();
        assert_eq!(sieve.generations(), gens_before);
        // New policy for owner 71 at AP 1001 (owner 71 ⇒ i%10 == 1 ⇒
        // wifi_ap 1001) → more rows visible.
        sieve
            .add_policy(Policy::new(
                71,
                "wifi_dataset",
                QuerierSpec::User(500),
                "Analytics",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::Eq(Value::Int(1001)),
                )],
            ))
            .unwrap();
        let n1 = sieve.execute(&q, &qm).unwrap().len();
        assert!(n1 > n0);
        assert_eq!(sieve.generations(), gens_before + 1);
    }

    #[test]
    fn manual_regeneration_still_enforces_pending() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        sieve.options_mut().regeneration = RegenerationPolicy::Manual;
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let n0 = sieve.execute(&q, &qm).unwrap().len();
        sieve
            .add_policy(Policy::new(
                71,
                "wifi_dataset",
                QuerierSpec::User(500),
                "Analytics",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::Eq(Value::Int(1001)),
                )],
            ))
            .unwrap();
        let gens = sieve.generations();
        // No regeneration, but the pending policy must still be enforced
        // (appended as an extra guard branch).
        let n1 = sieve.execute(&q, &qm).unwrap().len();
        assert_eq!(sieve.generations(), gens);
        assert!(n1 > n0);
    }

    #[test]
    fn group_policies_via_directory() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        sieve.groups_mut().add_member(9, 777);
        sieve
            .add_policy(Policy::new(
                42,
                "wifi_dataset",
                QuerierSpec::Group(9),
                "Any",
                vec![],
            ))
            .unwrap();
        let qm = QueryMetadata::new(777, "Whatever");
        let q = SelectQuery::star_from("wifi_dataset");
        let rows = sieve.execute(&q, &qm).unwrap().rows;
        assert_eq!(rows.len(), 50); // owner 42 of 80 owners over 4000 rows
        assert!(rows.iter().all(|r| r[1] == Value::Int(42)));
    }

    #[test]
    fn protected_relation_with_no_policies_denies_all() {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(minidb::TableSchema::of(
            "t",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        db.insert("t", vec![Value::Int(0), Value::Int(1)]).unwrap();
        let mut sieve = Sieve::new(db, SieveOptions::default()).unwrap();
        let qm = QueryMetadata::new(1, "Any");
        let q = SelectQuery::star_from("t");
        // Without protection the table is outside access control.
        assert_eq!(sieve.execute(&q, &qm).unwrap().len(), 1);
        // Once protected, the empty policy set denies everything.
        sieve.protect("t");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn out_of_band_insert_regenerates_stale_guards() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let n0 = sieve.execute(&q, &qm).unwrap().len();
        let gens = sieve.generations();
        // Re-running is a cache hit.
        sieve.execute(&q, &qm).unwrap();
        assert_eq!(sieve.generations(), gens);
        // Out-of-band mutation through db_mut: new rows for owner 0 at the
        // allowed AP. The cached guard (and its ∆/fragment state) was
        // generated against the old data; the epoch bump must force lazy
        // regeneration, and the new rows must be visible.
        let epoch_before = sieve.backend_epoch();
        for i in 0..5i64 {
            sieve
                .db_mut()
                .insert(
                    "wifi_dataset",
                    vec![
                        Value::Int(100_000 + i),
                        Value::Int(0),
                        Value::Int(1001),
                        Value::Time(0),
                    ],
                )
                .unwrap();
        }
        assert!(sieve.backend_epoch() > epoch_before);
        let n1 = sieve.execute(&q, &qm).unwrap().len();
        assert_eq!(n1, n0 + 5, "out-of-band rows must be enforced & visible");
        assert_eq!(
            sieve.generations(),
            gens + 1,
            "stale-epoch entry must regenerate exactly once"
        );
        // And only once: the regenerated entry is fresh again.
        sieve.execute(&q, &qm).unwrap();
        assert_eq!(sieve.generations(), gens + 1);
    }

    #[test]
    fn backend_mut_bumps_epoch_like_db_mut() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        let e0 = sieve.backend_epoch();
        let _ = sieve.backend_mut();
        let _ = sieve.db_mut();
        assert_eq!(sieve.backend_epoch(), e0 + 2);
    }

    #[test]
    fn sql_cache_evicts_one_entry_not_all() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        // Churn through more distinct texts than the cache holds: the
        // cache must stay pinned at the cap (single-entry LRU eviction),
        // never empty out the way a full clear() would.
        let sql_for = |i: usize| {
            format!("SELECT * FROM wifi_dataset WHERE wifi_ap = {}", 1000 + i as i64)
        };
        for i in 0..(SQL_CACHE_CAP + 50) {
            sieve.execute_sql(&sql_for(i), &qm).unwrap();
            let len = sieve.sql_cache_len();
            assert!(len >= 1, "cache fully emptied at insertion {i}");
            assert!(len <= SQL_CACHE_CAP, "cache exceeded cap at insertion {i}");
            if i >= SQL_CACHE_CAP {
                assert_eq!(
                    len, SQL_CACHE_CAP,
                    "churn past the cap must keep the cache full, not wipe it"
                );
            }
        }
        // No text was re-read after insertion, so recency order equals
        // insertion order and LRU degenerates to FIFO: the survivors are
        // exactly the most recent SQL_CACHE_CAP texts — a freshly cached
        // query is never the next victim.
        assert!(!sieve.sql_cache_contains(&sql_for(49)), "oldest must be evicted");
        assert!(sieve.sql_cache_contains(&sql_for(50)), "cap-th newest must survive");
        assert!(sieve.sql_cache_contains(&sql_for(SQL_CACHE_CAP + 49)));
    }

    #[test]
    fn sql_cache_lru_keeps_reused_text_under_churn() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let hot = "SELECT * FROM wifi_dataset WHERE wifi_ap = 1001";
        let cold_for =
            |i: usize| format!("SELECT * FROM wifi_dataset WHERE id < {}", i as i64 + 1);
        sieve.execute_sql(hot, &qm).unwrap();
        // Interleave the hot text with SQL_CACHE_CAP + 50 one-shot texts.
        // Under the old FIFO policy the hot entry would be evicted once
        // SQL_CACHE_CAP distinct texts followed it, no matter how often it
        // was re-executed; LRU-on-access must keep it and evict only the
        // stalest one-shot instead.
        for i in 0..(SQL_CACHE_CAP + 50) {
            sieve.execute_sql(&cold_for(i), &qm).unwrap();
            sieve.execute_sql(hot, &qm).unwrap();
            assert!(
                sieve.sql_cache_contains(hot),
                "hot text evicted after {} one-shot texts",
                i + 1
            );
        }
        // The key that survives the churn is the re-accessed one; the
        // oldest untouched one-shot is the victim.
        assert!(sieve.sql_cache_contains(hot));
        assert!(!sieve.sql_cache_contains(&cold_for(0)));
        assert!(sieve.sql_cache_contains(&cold_for(SQL_CACHE_CAP + 49)));
    }

    #[test]
    fn sql_entry_point() {
        let mut sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let res = sieve
            .execute_sql(
                "SELECT COUNT(*) AS n FROM wifi_dataset WHERE wifi_ap = 1001",
                &qm,
            )
            .unwrap();
        let n = res.rows[0][0].as_int().unwrap();
        assert!(n > 0);
        // 20 owners × 50 rows at AP 1001 each... exactly the oracle count.
        let expect = oracle_rows(&sieve, &qm).len() as i64;
        assert_eq!(n, expect);
    }

    #[test]
    fn wrapper_graduates_to_service_and_sessions() {
        let sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let expect = oracle_rows(&sieve, &qm);
        let service = sieve.into_service();
        let session = service.session(qm);
        let mut rows = session.execute(&q).unwrap().rows;
        rows.sort();
        assert_eq!(rows, expect, "session path must match the façade path");
    }
}
