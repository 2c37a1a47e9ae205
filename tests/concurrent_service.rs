//! Concurrency correctness for the shared-`&self` middleware.
//!
//! The contract under test: N threads driving M sessions against ONE
//! `SieveService` — with policy insertions, out-of-band data loads and
//! prepared-statement reuse interleaved — must return **exactly** the
//! rows the single-threaded oracle returns. Enforcement under contention
//! is not allowed to leak a row, drop a row, or serve a guard that
//! predates a returned `add_policy`.

use sieve::core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve::core::semantics::visible_rows;
use sieve::core::{backend::for_each_backend, Session, SieveOptions, SieveService, WireSqlBackend};
use sieve::minidb::value::DataType;
use sieve::minidb::{Database, DbProfile, Row, SelectQuery, TableSchema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const REL: &str = "wifi_dataset";
/// Queriers covered by the policy corpus; each sees a distinct AP slice.
const QUERIERS: [i64; 4] = [500, 501, 502, 503];

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

fn loaded_db() -> Database {
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
    db
}

/// Register the corpus: querier 500+k reads owners 0..20 at AP 1001+k.
fn register_corpus(add: &mut dyn FnMut(Policy)) {
    for (k, &querier) in QUERIERS.iter().enumerate() {
        for owner in 0..20i64 {
            add(policy(owner, querier, "Analytics", 1001 + k as i64));
        }
    }
}

fn loaded_service() -> SieveService {
    let service = SieveService::new(loaded_db(), SieveOptions::default()).unwrap();
    register_corpus(&mut |p| {
        service.add_policy(p).unwrap();
    });
    service
}

/// Single-threaded expected rows for a querier, straight from the policy
/// algebra oracle (no middleware involved).
fn oracle_for(service: &SieveService, qm: &QueryMetadata) -> Vec<Row> {
    let policies = service.policies();
    let relevant: Vec<&Policy> = sieve::core::filter::relevant_policies(
        policies.iter(),
        REL,
        qm,
        &service.groups(),
    );
    let mut rows = visible_rows(&*service.db(), REL, &relevant).unwrap();
    rows.sort();
    rows
}

fn sorted_rows(res: sieve::minidb::QueryResult) -> Vec<Row> {
    let mut rows = res.rows;
    rows.sort();
    rows
}

/// N threads × M sessions hammering one service: every single result must
/// be row-identical to the single-threaded oracle, on both backends.
#[test]
fn hammer_threads_and_sessions_match_single_threaded_oracle() {
    let options = SieveOptions::default();
    for_each_backend(&loaded_db(), &options, |backend_name, service| {
        register_corpus(&mut |p| {
            service.add_policy(p).unwrap();
        });
        // Oracles computed up front, single-threaded.
        let oracles: Vec<(QueryMetadata, Vec<Row>)> = QUERIERS
            .iter()
            .map(|&u| {
                let qm = QueryMetadata::new(u, "Analytics");
                let policies = service.policies();
                let relevant: Vec<&Policy> = sieve::core::filter::relevant_policies(
                    policies.iter(),
                    REL,
                    &qm,
                    &service.groups(),
                );
                let backend = service.backend();
                let mut rows = visible_rows(&*backend, REL, &relevant).unwrap();
                rows.sort();
                assert!(!rows.is_empty(), "oracle empty for querier {u}");
                (qm, rows)
            })
            .collect();
        let q = SelectQuery::star_from(REL);
        // Warm the cache single-threaded so the storm below exercises the
        // concurrent *hit* path with a deterministic generation count.
        for (qm, _) in &oracles {
            service.execute(&q, qm).unwrap();
        }
        assert_eq!(service.generations(), QUERIERS.len() as u64);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let service = service.clone();
                let oracles = &oracles;
                let q = &q;
                s.spawn(move || {
                    // Each thread drives every querier's session — maximal
                    // cross-thread sharing of the same cache keys.
                    let sessions: Vec<(Session<_>, &Vec<Row>)> = oracles
                        .iter()
                        .map(|(qm, expect)| (service.session(qm.clone()), expect))
                        .collect();
                    for i in 0..12 {
                        for (session, expect) in &sessions {
                            let rows = sorted_rows(session.execute(q).unwrap());
                            assert_eq!(
                                &rows, *expect,
                                "thread {t} iter {i} diverged on {backend_name} for \
                                 querier {}",
                                session.metadata().querier
                            );
                        }
                    }
                });
            }
        });
        // The shared cache served all threads: one generation per
        // querier, zero spurious regenerations under contention.
        assert_eq!(service.generations(), QUERIERS.len() as u64);
    });
}

/// A policy inserted concurrently with a query storm: every observed
/// result is either the pre-insert or the post-insert row set (a query is
/// atomic w.r.t. the insert), and any query that *starts after
/// `add_policy` returned* must see the post set — no stale guards.
#[test]
fn interleaved_add_policy_is_never_served_stale() {
    let service = loaded_service();
    let qm = QueryMetadata::new(500, "Analytics");
    let pre = oracle_for(&service, &qm);
    // Owner 71 at AP 1001 (owner 71 ⇒ id%10 == 1 ⇒ rows at AP 1001 exist).
    let extra = policy(71, 500, "Analytics", 1001);
    let post = {
        // Compute the post-insert oracle on a scratch clone of the state.
        let scratch = loaded_service();
        scratch.add_policy(extra.clone()).unwrap();
        oracle_for(&scratch, &qm)
    };
    assert!(post.len() > pre.len());

    let inserted = AtomicBool::new(false);
    let q = SelectQuery::star_from(REL);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let service = service.clone();
            let (inserted, q, qm, pre, post) = (&inserted, &q, &qm, &pre, &post);
            s.spawn(move || {
                let session = service.session(qm.clone());
                loop {
                    let started_after_insert = inserted.load(Ordering::SeqCst);
                    let rows = sorted_rows(session.execute(q).unwrap());
                    if started_after_insert {
                        assert_eq!(&rows, post, "stale guard served after add_policy returned");
                        return; // saw the final state — done
                    }
                    assert!(
                        &rows == pre || &rows == post,
                        "result is neither pre- nor post-insert set (len {})",
                        rows.len()
                    );
                }
            });
        }
        // Let the readers warm the cache, then insert mid-storm.
        let warmup = sorted_rows(service.execute(&q, &qm).unwrap());
        assert_eq!(warmup, pre);
        service.add_policy(extra.clone()).unwrap();
        inserted.store(true, Ordering::SeqCst);
    });
    // Quiesced: the final state is exactly the post oracle.
    assert_eq!(sorted_rows(service.execute(&q, &qm).unwrap()), post);
    assert_eq!(oracle_for(&service, &qm), post);
}

/// `Prepared` lifecycle: while nothing changes, execute skips re-rewrites
/// entirely; a backend-epoch bump (out-of-band insert) or a revision bump
/// (add_policy) transparently re-prepares, and the replayed results are
/// correct each time.
#[test]
fn prepared_statement_reprepares_on_epoch_and_revision_bumps() {
    let service = loaded_service();
    let session = service.session(QueryMetadata::new(500, "Analytics"));
    let q = SelectQuery::star_from(REL);
    let prepared = session.prepare(q.clone()).unwrap();
    let n0 = prepared.execute().unwrap().len();
    assert_eq!(n0, oracle_for(&service, session.metadata()).len());
    prepared.execute().unwrap();
    prepared.execute().unwrap();
    assert_eq!(prepared.reprepares(), 0, "fresh plan must be replayed as-is");

    // Out-of-band data load → backend epoch bump → transparent re-prepare
    // AND the new rows enforced + visible.
    service.with_backend_mut(|db| {
        for i in 0..5i64 {
            db.insert(
                REL,
                vec![
                    Value::Int(100_000 + i),
                    Value::Int(0),
                    Value::Int(1001),
                    Value::Time(0),
                ],
            )
            .unwrap();
        }
    });
    let n1 = prepared.execute().unwrap().len();
    assert_eq!(n1, n0 + 5, "re-prepared plan must see the out-of-band rows");
    assert_eq!(prepared.reprepares(), 1);
    prepared.execute().unwrap();
    assert_eq!(prepared.reprepares(), 1, "one bump, one re-prepare");

    // Policy insert → revision bump → re-prepare with the wider guard.
    service.add_policy(policy(71, 500, "Analytics", 1001)).unwrap();
    let n2 = prepared.execute().unwrap().len();
    assert!(n2 > n1, "new policy must widen the prepared statement's view");
    assert_eq!(n2, oracle_for(&service, session.metadata()).len());
    assert_eq!(prepared.reprepares(), 2);
}

/// One `Prepared` handle shared (via `Arc`) by several threads: all
/// replays agree with the oracle and no re-prepare happens while the
/// world is unchanged.
#[test]
fn prepared_statement_is_shareable_across_threads() {
    let service = loaded_service();
    let session = service.session(QueryMetadata::new(501, "Analytics"));
    let expect = oracle_for(&service, session.metadata());
    let prepared = Arc::new(session.prepare(SelectQuery::star_from(REL)).unwrap());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let prepared = Arc::clone(&prepared);
            let expect = &expect;
            s.spawn(move || {
                for _ in 0..10 {
                    assert_eq!(&sorted_rows(prepared.execute().unwrap()), expect);
                }
            });
        }
    });
    assert_eq!(prepared.reprepares(), 0);
}

/// On a wire backend, a `Prepared` handle pins a server-side statement:
/// warm executes ship no SQL text, a revision bump swaps in a fresh
/// statement (closing the stale one once its plan drops), and dropping
/// the handle closes its statement.
#[test]
fn prepared_pins_and_recycles_wire_statements() {
    let service =
        SieveService::with_backend(WireSqlBackend::new(loaded_db()), SieveOptions::default())
            .unwrap();
    register_corpus(&mut |p| {
        service.add_policy(p).unwrap();
    });
    let session = service.session(QueryMetadata::new(500, "Analytics"));
    let prepared = session.prepare(SelectQuery::star_from(REL)).unwrap();
    let id0 = prepared
        .statement_id()
        .expect("wire backend must prepare a server-side statement");
    assert_eq!(service.backend().open_statements(), 1);
    let n0 = prepared.execute().unwrap().len();
    assert!(n0 > 0);
    let trips = service.backend().round_trips();
    for _ in 0..10 {
        assert_eq!(prepared.execute().unwrap().len(), n0);
    }
    assert_eq!(
        service.backend().round_trips(),
        trips,
        "warm prepared executes must not ship SQL text across the wire"
    );
    // Revision bump → transparent re-prepare under a fresh statement id;
    // the stale statement closes when the old plan's last holder drops.
    service.add_policy(policy(71, 500, "Analytics", 1001)).unwrap();
    let n1 = prepared.execute().unwrap().len();
    assert!(n1 > n0, "new policy must widen the prepared statement's view");
    let id1 = prepared.statement_id().unwrap();
    assert_ne!(id0, id1, "re-prepare must produce a fresh statement");
    assert_eq!(
        service.backend().open_statements(),
        1,
        "the stale statement must have been closed server-side"
    );
    drop(prepared);
    assert_eq!(
        service.backend().open_statements(),
        0,
        "dropping the handle must close its statement"
    );
}

/// The parallel per-querier batch phase must produce byte-identical
/// results to the sequential schedule — same generations, same rows.
#[test]
fn parallel_prepare_batch_matches_sequential() {
    let q = SelectQuery::star_from(REL);
    // 16 queriers — comfortably past the parallel-engagement floor, and
    // including queriers with empty policy slices (deny-all guards).
    let requests: Vec<(QueryMetadata, SelectQuery)> = (500i64..516)
        .map(|u| (QueryMetadata::new(u, "Analytics"), q.clone()))
        .collect();

    let sequential = loaded_service();
    let report_seq = sequential.prepare_batch_with_threads(&requests, 1).unwrap();
    let parallel = loaded_service();
    let report_par = parallel.prepare_batch_with_threads(&requests, 4).unwrap();
    assert_eq!(report_seq.generated, report_par.generated);
    assert_eq!(report_seq.reused, report_par.reused);
    assert_eq!(sequential.generations(), parallel.generations());

    for (qm, query) in &requests {
        let a = sorted_rows(sequential.execute(query, qm).unwrap());
        let b = sorted_rows(parallel.execute(query, qm).unwrap());
        assert_eq!(a, b, "parallel batch diverged for querier {}", qm.querier);
        assert_eq!(a, oracle_for(&sequential, qm), "batch diverged from oracle");
    }
    // Both schedules warm the cache equally: executing is all hits.
    assert_eq!(
        sequential.cache_stats().generations(),
        parallel.cache_stats().generations()
    );
}

/// Concurrent `execute_sql` of the same text shares one parsed AST.
#[test]
fn concurrent_execute_sql_shares_the_parsed_ast() {
    let service = loaded_service();
    let sql = "SELECT COUNT(*) AS n FROM wifi_dataset WHERE wifi_ap = 1001";
    let expect = {
        let qm = QueryMetadata::new(500, "Analytics");
        oracle_for(&service, &qm).len() as i64
    };
    std::thread::scope(|s| {
        for _ in 0..4 {
            let service = service.clone();
            s.spawn(move || {
                let qm = QueryMetadata::new(500, "Analytics");
                for _ in 0..8 {
                    let res = service.execute_sql(sql, &qm).unwrap();
                    assert_eq!(res.rows[0][0].as_int().unwrap(), expect);
                }
            });
        }
    });
    assert_eq!(service.sql_cache_len(), 1, "one text, one cached AST");
    assert!(service.sql_cache_contains(sql));
}
