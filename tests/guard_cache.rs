//! Guard-cache correctness: warm queries must be *exactly* as correct as
//! cold ones, across invalidation, regeneration policies, ∆ partition
//! reclamation, and option flips.
//!
//! The cache under test (sieve_core::cache::GuardCache) stores both the
//! generated guarded expression and its compiled rewrite fragment per
//! (querier, purpose, relation); `add_policy` invalidates precisely the
//! affected keys, and stale entries regenerate lazily per the configured
//! RegenerationPolicy.

use sieve::core::dynamic::RegenerationPolicy;
use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve::core::rewrite::DeltaMode;
use sieve::core::semantics::visible_rows;
use sieve::core::{GroupDirectory, SieveOptions, SieveService};
use sieve::minidb::value::DataType;
use sieve::minidb::{Database, DbProfile, Row, SelectQuery, TableSchema, Value};

const REL: &str = "wifi_dataset";

fn policy(owner: i64, querier: i64, purpose: &str, ap: i64) -> Policy {
    Policy::new(
        owner,
        REL,
        QuerierSpec::User(querier),
        purpose,
        vec![ObjectCondition::new(
            "wifi_ap",
            CondPredicate::Eq(Value::Int(ap)),
        )],
    )
}

fn empty_db() -> Database {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        REL,
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
            ("ts_time", DataType::Time),
        ],
    ))
    .unwrap();
    db
}

fn loaded_sieve() -> SieveService {
    let mut db = empty_db();
    for i in 0..4000i64 {
        db.insert(
            REL,
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
        db.create_index(REL, col).unwrap();
    }
    db.analyze(REL).unwrap();
    let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
    for owner in 0..20i64 {
        sieve.add_policy(policy(owner, 500, "Analytics", 1001)).unwrap();
    }
    // A second querier and a second purpose, to check invalidation scope.
    for owner in 0..10i64 {
        sieve.add_policy(policy(owner, 501, "Analytics", 1002)).unwrap();
        sieve.add_policy(policy(owner, 500, "Safety", 1003)).unwrap();
    }
    sieve
}

fn oracle(sieve: &SieveService, qm: &QueryMetadata) -> Vec<Row> {
    let policies = sieve.policies();
    let relevant: Vec<&Policy> = sieve::core::filter::relevant_policies(
        policies.iter(),
        REL,
        qm,
        &sieve.groups(),
    );
    let mut rows = visible_rows(&*sieve.db(), REL, &relevant).unwrap();
    rows.sort();
    rows
}

fn run_sorted(sieve: &SieveService, qm: &QueryMetadata) -> Vec<Row> {
    let q = SelectQuery::star_from(REL);
    let mut rows = sieve.execute(&q, qm).unwrap().rows;
    rows.sort();
    rows
}

#[test]
fn warm_queries_hit_both_cache_levels() {
    let sieve = loaded_sieve();
    let qm = QueryMetadata::new(500, "Analytics");
    run_sorted(&sieve, &qm);
    let s0 = sieve.cache_stats();
    assert_eq!(s0.misses, 1);
    assert_eq!(s0.fragment_builds, 1);
    for _ in 0..5 {
        run_sorted(&sieve, &qm);
    }
    let s1 = sieve.cache_stats();
    assert_eq!(s1.misses, 1, "warm queries must not regenerate");
    assert_eq!(s1.fragment_builds, 1, "warm queries must not recompile");
    assert_eq!(s1.hits, s0.hits + 5);
    assert_eq!(s1.fragment_hits, s0.fragment_hits + 5);
    assert_eq!(sieve.generations(), 1);
}

#[test]
fn add_policy_invalidates_only_affected_key_and_matches_cold_and_oracle() {
    let sieve = loaded_sieve();
    let qm_a = QueryMetadata::new(500, "Analytics");
    let qm_b = QueryMetadata::new(501, "Analytics");
    let qm_c = QueryMetadata::new(500, "Safety");
    run_sorted(&sieve, &qm_a);
    run_sorted(&sieve, &qm_b);
    run_sorted(&sieve, &qm_c);
    assert_eq!(sieve.cache_stats().misses, 3);

    // New policy for querier 500 / Analytics only (owner 71 ⇒ i%10 == 1 ⇒
    // rows at AP 1001 exist).
    sieve.add_policy(policy(71, 500, "Analytics", 1001)).unwrap();

    // Unaffected keys stay cached.
    let misses_before = sieve.cache_stats().misses;
    run_sorted(&sieve, &qm_b);
    run_sorted(&sieve, &qm_c);
    assert_eq!(
        sieve.cache_stats().misses,
        misses_before,
        "other queriers/purposes must keep their cache entries"
    );

    // The affected key regenerates and matches both a cold-cache run and
    // the visible_rows oracle. Replacing an outdated entry is counted as a
    // regeneration, not a miss (the entry existed).
    let regens_before = sieve.cache_stats().regenerations;
    let warm_after_invalidation = run_sorted(&sieve, &qm_a);
    assert_eq!(sieve.cache_stats().misses, misses_before);
    assert_eq!(sieve.cache_stats().regenerations, regens_before + 1);
    let expect = oracle(&sieve, &qm_a);
    assert_eq!(warm_after_invalidation, expect);
    assert!(warm_after_invalidation
        .iter()
        .any(|r| r[1] == Value::Int(71)));

    sieve.invalidate_all();
    let cold = run_sorted(&sieve, &qm_a);
    assert_eq!(cold, warm_after_invalidation, "cold == warm after regen");
}

#[test]
fn manual_regeneration_serves_pending_from_cache_and_matches_oracle() {
    let sieve = loaded_sieve();
    sieve.with_options_mut(|o| o.regeneration = RegenerationPolicy::Manual);
    let qm = QueryMetadata::new(500, "Analytics");
    let n0 = run_sorted(&sieve, &qm).len();
    let gens = sieve.generations();

    sieve.add_policy(policy(61, 500, "Analytics", 1001)).unwrap();
    // No regeneration under Manual, but the pending policy is enforced via
    // a rebuilt effective expression + fragment.
    let rows = run_sorted(&sieve, &qm);
    assert_eq!(sieve.generations(), gens);
    assert!(rows.len() > n0);
    assert_eq!(rows, oracle(&sieve, &qm));

    // The pending-augmented fragment is itself cached across repeats.
    let builds = sieve.cache_stats().fragment_builds;
    run_sorted(&sieve, &qm);
    run_sorted(&sieve, &qm);
    assert_eq!(sieve.cache_stats().fragment_builds, builds);
}

#[test]
fn delta_partitions_do_not_leak_across_repeat_queries() {
    let sieve = loaded_sieve();
    // Force every partition through ∆ so fragments register partitions.
    sieve.with_options_mut(|o| o.rewrite.delta_mode = DeltaMode::Always);
    let qm = QueryMetadata::new(500, "Analytics");
    let baseline_rows = run_sorted(&sieve, &qm);
    assert_eq!(baseline_rows, oracle(&sieve, &qm));
    let after_first = sieve.delta_len();
    for _ in 0..10 {
        run_sorted(&sieve, &qm);
    }
    assert_eq!(
        sieve.delta_len(),
        after_first,
        "repeat queries must reuse ∆ registrations, not accumulate them"
    );
    // Invalidation regenerates the fragment but frees the old partitions.
    sieve.add_policy(policy(62, 500, "Analytics", 1001)).unwrap();
    run_sorted(&sieve, &qm);
    assert_eq!(
        sieve.delta_len(),
        after_first,
        "regeneration must free superseded ∆ partitions"
    );
    // Full invalidation drops everything.
    sieve.invalidate_all();
    assert_eq!(sieve.delta_len(), 0);
}

#[test]
fn delta_mode_flip_recompiles_fragment_and_stays_correct() {
    let sieve = loaded_sieve();
    let qm = QueryMetadata::new(500, "Analytics");
    let inline_rows = run_sorted(&sieve, &qm);
    let builds = sieve.cache_stats().fragment_builds;
    sieve.with_options_mut(|o| o.rewrite.delta_mode = DeltaMode::Always);
    let delta_rows = run_sorted(&sieve, &qm);
    assert_eq!(
        sieve.cache_stats().fragment_builds,
        builds + 1,
        "mode change must recompile the fragment"
    );
    assert_eq!(inline_rows, delta_rows);
    assert_eq!(delta_rows, oracle(&sieve, &qm));
    assert_eq!(sieve.generations(), 1, "mode change must not regenerate");
}

/// Ground-truth counter audit: drive a known sequence of queries and
/// policy insertions and check every counter against a hand-maintained
/// trace. Catches double-counted misses, regenerations booked as misses,
/// and generated-but-uncached skew: the invariants are
/// `lookups = hits + misses + regenerations` and
/// `SieveService::generations = misses + regenerations` — always.
#[test]
fn counters_match_ground_truth_trace() {
    let sieve = loaded_sieve();
    let qm_a = QueryMetadata::new(500, "Analytics");
    let qm_b = QueryMetadata::new(501, "Analytics");

    // Trace model (expression-level): expected (hits, misses, regens).
    let mut expect = (0u64, 0u64, 0u64);
    let check = |sieve: &SieveService, expect: &(u64, u64, u64), step: &str| {
        let s = sieve.cache_stats();
        assert_eq!((s.hits, s.misses, s.regenerations), *expect, "at {step}");
        assert_eq!(s.generations(), sieve.generations(), "generations at {step}");
        assert_eq!(s.lookups(), s.hits + s.misses + s.regenerations, "lookups at {step}");
    };

    run_sorted(&sieve, &qm_a); // cold → miss
    expect.1 += 1;
    check(&sieve, &expect, "cold A");

    run_sorted(&sieve, &qm_a); // warm → hit
    run_sorted(&sieve, &qm_a);
    expect.0 += 2;
    check(&sieve, &expect, "warm A x2");

    run_sorted(&sieve, &qm_b); // cold for B → miss
    expect.1 += 1;
    check(&sieve, &expect, "cold B");

    // Policy touching only A's key: A regenerates (entry existed), B stays
    // warm.
    sieve.add_policy(policy(72, 500, "Analytics", 1001)).unwrap();
    run_sorted(&sieve, &qm_a);
    expect.2 += 1;
    run_sorted(&sieve, &qm_b);
    expect.0 += 1;
    check(&sieve, &expect, "regen A, warm B");

    // invalidate_all drops entries: the next queries are misses again
    // (fresh generations, not regenerations).
    sieve.invalidate_all();
    run_sorted(&sieve, &qm_a);
    run_sorted(&sieve, &qm_b);
    expect.1 += 2;
    check(&sieve, &expect, "cold after clear");

    assert_eq!(sieve.cache_stats().invalidations, 1, "one key invalidated");
    assert_eq!(sieve.cache_stats().evictions, 0, "cap never tripped");
}

/// Batched preparation must book exactly one generation per key — no
/// double counting through the bulk-insert path — and the follow-up
/// per-query lookups are hits.
#[test]
fn batch_prepare_counters_match_trace() {
    let sieve = loaded_sieve();
    let q = SelectQuery::star_from(REL);
    let requests: Vec<(QueryMetadata, SelectQuery)> = [500i64, 501]
        .iter()
        .map(|&u| (QueryMetadata::new(u, "Analytics"), q.clone()))
        .collect();
    let report = sieve.prepare_batch(&requests).unwrap();
    assert_eq!(report.generated, 2);
    assert_eq!(report.reused, 0);
    let s = sieve.cache_stats();
    assert_eq!((s.hits, s.misses, s.regenerations), (0, 2, 0));
    assert_eq!(sieve.generations(), 2);

    // Re-preparing the same batch generates nothing.
    let report = sieve.prepare_batch(&requests).unwrap();
    assert_eq!(report.generated, 0);
    assert_eq!(report.reused, 2);
    assert_eq!(sieve.generations(), 2);

    // Executing the batch hits the warm cache.
    let results = sieve.execute_batch(&requests).unwrap();
    assert_eq!(results.len(), 2);
    let s = sieve.cache_stats();
    assert_eq!(s.misses, 2, "no extra generations at execute time");
    assert_eq!(s.hits, 2);
}

/// Eviction under the cap is LRU-on-*access*: a key that keeps getting
/// read survives churn of arbitrarily many one-shot keys (FIFO or
/// LRU-on-insert would rotate it out), while total occupancy stays
/// bounded and the shed work is visible in the eviction counter.
#[test]
fn guard_cache_churn_keeps_hot_keys_via_lru_on_access() {
    use sieve::core::cache::{GuardCache, GUARD_CACHE_CAP};
    use sieve::core::GuardedExpression;
    use std::sync::Arc;

    let cache = GuardCache::new();
    let entry = |q: i64| {
        (
            (q, "Any".to_string(), REL.to_string()),
            Arc::new(GuardedExpression {
                relation: REL.to_string(),
                querier: q,
                purpose: "Any".into(),
                guards: vec![],
            }),
        )
    };
    let (hot_key, hot_expr) = entry(-1);
    cache.insert_generated(hot_key.clone(), hot_expr, 0);
    for i in 0..(GUARD_CACHE_CAP as i64 * 4) {
        let (k, e) = entry(i);
        cache.insert_generated(k, e, 0);
        // The read IS the touch: this is what keeps the key alive.
        assert!(
            cache.read(&hot_key, |_| ()).is_some(),
            "hot key evicted by churn at insertion {i}"
        );
        assert!(cache.len() <= GUARD_CACHE_CAP, "cap breached at insertion {i}");
    }
    let s = cache.stats();
    assert_eq!(
        s.evictions as usize,
        (GUARD_CACHE_CAP * 4 + 1) - cache.len(),
        "every shed entry must be booked as an eviction"
    );
}

/// Evicting an entry whose fragment registered ∆ partitions must free
/// those partitions (via the RAII handles) — the registry cannot grow
/// with evicted keys.
#[test]
fn eviction_frees_delta_partitions_of_dropped_fragments() {
    let sieve = loaded_sieve();
    sieve.with_options_mut(|o| o.rewrite.delta_mode = DeltaMode::Always);
    let qm = QueryMetadata::new(500, "Analytics");
    run_sorted(&sieve, &qm);
    assert!(sieve.delta_len() > 0, "∆ partitions registered");
    let live = sieve.delta_len();
    // Invalidation + regeneration replaces the fragment; the superseded
    // partitions must be gone once no query pins them.
    sieve.add_policy(policy(63, 500, "Analytics", 1001)).unwrap();
    run_sorted(&sieve, &qm);
    assert!(
        sieve.delta_len() <= live + 1,
        "superseded ∆ partitions leaked: {} -> {}",
        live,
        sieve.delta_len()
    );
    // Dropping every entry drops every partition.
    sieve.invalidate_all();
    assert_eq!(sieve.delta_len(), 0);
}

#[test]
fn repeated_sql_text_reuses_parsed_ast() {
    let sieve = loaded_sieve();
    let qm = QueryMetadata::new(500, "Analytics");
    let sql = "SELECT COUNT(*) AS n FROM wifi_dataset WHERE wifi_ap = 1001";
    let a = sieve.execute_sql(sql, &qm).unwrap();
    let b = sieve.execute_sql(sql, &qm).unwrap();
    assert_eq!(a, b);
    let n = a.rows[0][0].as_int().unwrap();
    assert_eq!(n, oracle(&sieve, &qm).len() as i64);
}

/// 200 rows of owner 0 spread over APs 1..=4 (50 each). Querier 500 holds
/// a user policy on AP 1 and group 7 one on AP 2, so membership in group
/// 7 doubles what 500 may see.
fn group_sieve(member: bool) -> SieveService {
    let mut db = empty_db();
    for i in 0..200i64 {
        db.insert(
            REL,
            vec![Value::Int(i), Value::Int(0), Value::Int(1 + i % 4), Value::Time(0)],
        )
        .unwrap();
    }
    db.create_index(REL, "wifi_ap").unwrap();
    db.analyze(REL).unwrap();
    let sieve = SieveService::new(db, SieveOptions::default()).unwrap();
    if member {
        sieve.with_groups_mut(|g| g.add_member(7, 500));
    }
    sieve.add_policy(policy(0, 500, "Analytics", 1)).unwrap();
    sieve
        .add_policy(Policy::new(
            0,
            REL,
            QuerierSpec::Group(7),
            "Analytics",
            vec![ObjectCondition::new("wifi_ap", CondPredicate::Eq(Value::Int(2)))],
        ))
        .unwrap();
    sieve
}

/// Joining a group reaches the querier's already-cached guard: the next
/// query sees the group's rows too.
#[test]
fn group_join_invalidates_cached_guards() {
    let sieve = group_sieve(false);
    let qm = QueryMetadata::new(500, "Analytics");
    assert_eq!(run_sorted(&sieve, &qm).len(), 50);
    sieve.with_groups_mut(|g| g.add_member(7, 500));
    let expect = oracle(&sieve, &qm);
    assert_eq!(expect.len(), 100);
    assert_eq!(run_sorted(&sieve, &qm), expect);
}

/// Leaving a group drops the group's rows at once, on the cached path
/// and through a live prepared statement alike — serving them would widen
/// the querier's view past its policies.
#[test]
fn group_leave_never_serves_stale_group_rows() {
    let sieve = group_sieve(true);
    let qm = QueryMetadata::new(500, "Analytics");
    let prepared = sieve
        .session(qm.clone())
        .prepare(SelectQuery::star_from(REL))
        .unwrap();
    assert_eq!(run_sorted(&sieve, &qm).len(), 100);
    assert_eq!(prepared.execute().unwrap().len(), 100);
    sieve.with_groups_mut(|g| *g = GroupDirectory::new());
    let expect = oracle(&sieve, &qm);
    assert_eq!(expect.len(), 50);
    assert_eq!(run_sorted(&sieve, &qm), expect);
    let mut rows = prepared.execute().unwrap().rows;
    rows.sort();
    assert_eq!(rows, expect);
}
