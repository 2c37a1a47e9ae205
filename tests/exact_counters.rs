//! Per-query execution counters are exact under concurrency.
//!
//! Every execution counts tuples, predicate evaluations, probes and ∆ UDF
//! work into a counter block of its own, so what `run_timed` reports for a
//! query must not depend on what else runs at the same time, nor on how
//! many morsel workers its scans were split across. Both properties are
//! checked on the campus workload: concurrent callers against their own
//! sequential runs, and a parallel scan against the sequential one.

use sieve::core::baselines::Baseline;
use sieve::core::cost::AccessStrategy;
use sieve::core::middleware::Enforcement;
use sieve::core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata};
use sieve::core::{SieveOptions, SieveService};
use sieve::minidb::{Counters, Database, DbProfile, ExecOptions, Row, SelectQuery, Value};
use sieve::workload::policy_gen::{generate_policies, PolicyGenConfig};
use sieve::workload::query_gen::generate_query;
use sieve::workload::tippers::{generate as generate_tippers, TippersConfig, AP_BASE};
use sieve::workload::{QueryClass, Selectivity, WIFI_TABLE};
use std::sync::Barrier;

/// A querier with three owner-scoped grants: small, selective guards that
/// the planner answers with a guard-driven index union.
const INDEX_QUERIER: i64 = 9_000_001;
/// A querier granted one AP by every device owner: one guard whose large
/// partition the cost model routes through the ∆ UDF.
const DELTA_QUERIER: i64 = 9_000_002;
const PURPOSE: &str = "Analytics";

/// The small campus of the end-to-end tests plus the two extra queriers.
fn campus() -> (SieveService, sieve::workload::TippersDataset) {
    let mut db = Database::new(DbProfile::MySqlLike);
    let ds = generate_tippers(
        &mut db,
        &TippersConfig {
            seed: 99,
            scale: 0.004,
            days: 30,
        },
    )
    .unwrap();
    let service = SieveService::new(db, SieveOptions::default()).unwrap();
    service.with_groups_mut(|g| *g = ds.groups.clone());
    service
        .add_policies(generate_policies(&ds, &PolicyGenConfig::default()))
        .unwrap();
    let grant = |owner: i64, querier: i64, cond: CondPredicate| {
        Policy::new(
            owner,
            WIFI_TABLE,
            QuerierSpec::User(querier),
            PURPOSE,
            vec![ObjectCondition::new("wifi_ap", cond)],
        )
    };
    for d in &ds.devices[..3] {
        service
            .add_policy(grant(
                d.id,
                INDEX_QUERIER,
                CondPredicate::Ne(Value::Int(-1)),
            ))
            .unwrap();
    }
    for d in &ds.devices {
        service
            .add_policy(grant(
                d.id,
                DELTA_QUERIER,
                CondPredicate::Eq(Value::Int(AP_BASE + 5)),
            ))
            .unwrap();
    }
    (service, ds)
}

/// One `run_timed` call, rows sorted for comparison.
fn run(
    service: &SieveService,
    e: Enforcement,
    q: &SelectQuery,
    qm: &QueryMetadata,
) -> (Vec<Row>, Counters) {
    let (res, stats) = service.run_timed(e, q, qm);
    let mut rows = res.expect("query runs").rows;
    rows.sort();
    (rows, stats.counters)
}

#[test]
fn concurrent_run_timed_counters_equal_sequential() {
    let (service, ds) = campus();
    let heavy = ds.devices[0].id;
    let q1 = generate_query(&ds, QueryClass::Q1, Selectivity::Mid, 7);
    let q2 = generate_query(&ds, QueryClass::Q2, Selectivity::Mid, 7);
    let cases: Vec<(Enforcement, SelectQuery, QueryMetadata)> = vec![
        // Q1 whose guards cost more than a scan: a sequential scan.
        (
            Enforcement::Sieve,
            q1,
            QueryMetadata::new(heavy, PURPOSE),
        ),
        // Inline guards driving an index union.
        (
            Enforcement::Sieve,
            q2.clone(),
            QueryMetadata::new(INDEX_QUERIER, PURPOSE),
        ),
        // A guard whose partition is checked by the ∆ UDF.
        (
            Enforcement::Sieve,
            SelectQuery::star_from(WIFI_TABLE),
            QueryMetadata::new(DELTA_QUERIER, PURPOSE),
        ),
        // The policy DNF in WHERE over a full scan.
        (
            Enforcement::Baseline(Baseline::P),
            q2,
            QueryMetadata::new(heavy, PURPOSE),
        ),
    ];

    // The cases cover the shapes they claim to.
    let shape = |i: usize| {
        let (_, q, qm) = &cases[i];
        let out = service.rewrite(q, qm).unwrap();
        (out.relations[0].strategy, out.relations[0].delta_guards)
    };
    assert_eq!(shape(0).0, AccessStrategy::LinearScan);
    assert_eq!(shape(1), (AccessStrategy::IndexGuards, 0));
    assert!(shape(2).1 > 0, "the ∆ querier's guard must call the UDF");

    let expected: Vec<(Vec<Row>, Counters)> = cases
        .iter()
        .map(|(e, q, qm)| run(&service, *e, q, qm))
        .collect();
    assert!(expected[0].1.seq_pages_read > 0);
    assert!(expected[1].1.index_probes > 0 && expected[1].1.udf_invocations == 0);
    assert!(expected[2].1.udf_invocations > 0 && expected[2].1.policy_evals > 0);

    const REPS: usize = 8;
    let start = Barrier::new(cases.len());
    std::thread::scope(|s| {
        for ((e, q, qm), want) in cases.iter().zip(&expected) {
            let (service, start) = (&service, &start);
            s.spawn(move || {
                start.wait();
                for rep in 0..REPS {
                    let got = run(service, *e, q, qm);
                    assert_eq!(got.1, want.1, "{e:?} querier {} rep {rep}", qm.querier);
                    assert_eq!(got.0, want.0, "{e:?} querier {} rep {rep}", qm.querier);
                }
            });
        }
    });
}

#[test]
fn parallel_scan_counters_equal_sequential() {
    let (service, ds) = campus();
    let q = generate_query(&ds, QueryClass::Q2, Selectivity::Mid, 7);
    let qm = QueryMetadata::new(ds.devices[0].id, PURPOSE);
    let plan = service
        .db()
        .explain_opts(&q, &ExecOptions::with_threads(2))
        .unwrap()
        .to_string();
    assert!(plan.contains("ParallelScan"), "{plan}");

    // Baseline U calls the ∆ UDF on every scanned row, so under two
    // threads the UDF charges its work from inside the morsel workers.
    for e in [Enforcement::Sieve, Enforcement::Baseline(Baseline::U)] {
        service.with_options_mut(|o| o.exec_threads = 0);
        let seq = run(&service, e, &q, &qm);
        service.with_options_mut(|o| o.exec_threads = 2);
        let par = run(&service, e, &q, &qm);
        assert_eq!(par.1, seq.1, "{e:?}");
        assert_eq!(par.0, seq.0, "{e:?}");
        assert!(seq.1.seq_pages_read > 0, "{e:?} must scan");
    }
    assert!(
        run(&service, Enforcement::Baseline(Baseline::U), &q, &qm)
            .1
            .udf_invocations
            > 0
    );
}
