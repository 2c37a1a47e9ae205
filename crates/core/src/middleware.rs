//! Configuration of the SIEVE middleware (paper Section 5).
//!
//! The middleware itself is [`crate::service::SieveService`]: queries come
//! in with their metadata, get rewritten against the querier's guarded
//! expressions, and the rewritten query is executed by whatever engine
//! the backend reaches. This module holds what configures it —
//! [`SieveOptions`] (guard selection, rewrite knobs, the
//! [`RegenerationPolicy`] of Sections 5.1 and 6, persistence,
//! verification), the [`RetryPolicy`] for retryable backend failures —
//! and the [`Enforcement`] selector the experiments run queries under.

use crate::baselines::Baseline;
use crate::dynamic::RegenerationPolicy;
use crate::guard::GuardSelectionStrategy;
use crate::rewrite::RewriteOptions;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::relevant_policies;
    use crate::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
    use crate::service::{SieveService, SQL_CACHE_CAP};
    use minidb::plan::SelectQuery;
    use minidb::value::DataType;
    use minidb::{Database, DbProfile, TableSchema, Value};

    fn loaded_sieve(profile: DbProfile) -> SieveService {
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
        let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
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

    fn oracle_rows(sieve: &SieveService, qm: &QueryMetadata) -> Vec<minidb::Row> {
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
            let sieve = loaded_sieve(profile);
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
        let sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(501, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn wrong_purpose_sees_nothing() {
        let sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Marketing");
        let q = SelectQuery::star_from("wifi_dataset");
        assert!(sieve.execute(&q, &qm).unwrap().is_empty());
    }

    #[test]
    fn all_enforcement_mechanisms_agree() {
        let sieve = loaded_sieve(DbProfile::MySqlLike);
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
        let sieve = loaded_sieve(DbProfile::MySqlLike);
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
        let sieve = loaded_sieve(DbProfile::MySqlLike);
        sieve.with_options_mut(|o| o.regeneration = RegenerationPolicy::Manual);
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
        let sieve = loaded_sieve(DbProfile::MySqlLike);
        sieve.with_groups_mut(|g| g.add_member(9, 777));
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
        let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
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
        let sieve = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let n0 = sieve.execute(&q, &qm).unwrap().len();
        let gens = sieve.generations();
        // Re-running is a cache hit.
        sieve.execute(&q, &qm).unwrap();
        assert_eq!(sieve.generations(), gens);
        // Out-of-band mutation through with_backend_mut: new rows for
        // owner 0 at the allowed AP. The cached guard (and its ∆/fragment
        // state) was generated against the old data; the epoch bump must
        // force lazy regeneration, and the new rows must be visible.
        let epoch_before = sieve.backend_epoch();
        for i in 0..5i64 {
            sieve
                .with_backend_mut(|db| {
                    db.insert(
                        "wifi_dataset",
                        vec![
                            Value::Int(100_000 + i),
                            Value::Int(0),
                            Value::Int(1001),
                            Value::Time(0),
                        ],
                    )
                })
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
    fn with_backend_mut_bumps_epoch() {
        let sieve = loaded_sieve(DbProfile::MySqlLike);
        let e0 = sieve.backend_epoch();
        sieve.with_backend_mut(|_| ());
        sieve.with_backend_mut(|_| ());
        assert_eq!(sieve.backend_epoch(), e0 + 2);
    }

    #[test]
    fn sql_cache_evicts_one_entry_not_all() {
        let sieve = loaded_sieve(DbProfile::MySqlLike);
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
        let sieve = loaded_sieve(DbProfile::MySqlLike);
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
        let sieve = loaded_sieve(DbProfile::MySqlLike);
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
    fn session_path_matches_service_path() {
        let service = loaded_sieve(DbProfile::MySqlLike);
        let qm = QueryMetadata::new(500, "Analytics");
        let q = SelectQuery::star_from("wifi_dataset");
        let expect = oracle_rows(&service, &qm);
        let mut direct = service.execute(&q, &qm).unwrap().rows;
        direct.sort();
        assert_eq!(direct, expect, "service path must match the oracle");
        let session = service.session(qm);
        let mut rows = session.execute(&q).unwrap().rows;
        rows.sort();
        assert_eq!(rows, direct, "session path must match the service path");
    }
}
