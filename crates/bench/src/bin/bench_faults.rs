//! `bench_faults` — prices the fault-tolerance machinery.
//!
//! Three questions, answered against the campus workload:
//!
//! 1. **What does the retry plumbing cost when nothing fails?** A warm
//!    `Prepared` replay over a raw `Database` backend vs the same backend
//!    wrapped in `FaultInjectingBackend` at fault rate 0 — a transparent
//!    pass-through, so the delta is exactly the injection bookkeeping
//!    plus the service retry loop. Gated in `--quick` CI runs: the warm
//!    no-fault overhead must stay under `WARM_FAULT_OVERHEAD_GATE_PCT`
//!    (or inside the absolute timer-noise floor).
//! 2. **How long does one connection drop take to heal?** A scripted
//!    `Fault::ConnectionDrop` immediately before a warm prepared
//!    execute: the service retries through `ConnectionLost`, and on the
//!    wire backend the wiped statement registry then surfaces
//!    `UnknownStatement`, which the session re-prepares transparently.
//!    Reported as mean/max time-to-recover next to the warm execute.
//! 3. **Re-prepare latency under a 4-session storm** (wire-sql):
//!    four warm `Prepared` handles, one drop wipes every server-side
//!    statement, four threads execute concurrently. Wall time until all
//!    four recover; asserts exactly 4 re-prepares per round (one per
//!    handle — the single-flight plan rebuild admits no re-prepare
//!    storm).
//!
//! Results go to stdout, `results/bench_faults.txt`, and
//! `results/BENCH_faults.json` (the CI artifact).

use sieve_bench::harness::{
    best_block_ms, build_campus, emit, ms, queriers_with_policies, write_json, Campus, EnvConfig,
};
use sieve_bench::table::{mean, render};
use sieve_core::policy::QueryMetadata;
use sieve_core::{
    Fault, FaultConfig, FaultInjectingBackend, SieveOptions, SieveService, SqlBackend,
    WireSqlBackend,
};
use std::fmt::Write as _;
use std::time::Instant;

struct Config {
    quick: bool,
    env: EnvConfig,
    warm_reps: usize,
    drop_rounds: usize,
    storm_rounds: usize,
}

impl Config {
    fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        let mut env = EnvConfig::from_env();
        if quick {
            env.scale = 0.004;
            env.days = 20;
        }
        Config {
            quick,
            env,
            warm_reps: if quick { 30 } else { 100 },
            drop_rounds: if quick { 10 } else { 30 },
            storm_rounds: if quick { 5 } else { 15 },
        }
    }
}

/// `--quick` CI gate: the warm no-fault prepared path through the
/// fault-injection wrapper + retry loop must cost less than this much
/// over the raw backend, or the build fails.
const WARM_FAULT_OVERHEAD_GATE_PCT: f64 = 5.0;

/// Absolute escape hatch for the gate: overhead below this many ms is
/// inside the timer's resolution on a noisy shared container and passes
/// regardless of percentage (the quick-scale baseline is tens of µs, so
/// a few µs of scheduler jitter can read as >5%). Any real regression —
/// an extra lock, an allocation per attempt — costs more than this and
/// still trips the gate.
const WARM_FAULT_OVERHEAD_GATE_FLOOR_MS: f64 = 0.01;

/// Stand up a service over `backend` with the campus policy corpus.
fn service_over<B: SqlBackend>(backend: B, campus: &Campus) -> SieveService<B> {
    let service =
        SieveService::with_backend(backend, SieveOptions::default()).expect("backend init");
    service.with_groups_mut(|g| *g = campus.dataset.groups.clone());
    service
        .add_policies(campus.policies.iter().cloned())
        .expect("policies");
    service
}

struct DropNumbers {
    warm_ms: f64,
    recover_mean_ms: f64,
    recover_max_ms: f64,
    rounds: usize,
    reconnects: u64,
    reprepares: u64,
}

/// Time-to-recover after a scripted connection drop on the wire-SQL
/// backend.
fn drop_recovery(
    inner: WireSqlBackend,
    campus: &Campus,
    qm: &QueryMetadata,
    q: &minidb::SelectQuery,
    warm_reps: usize,
    rounds: usize,
) -> DropNumbers {
    let service = service_over(FaultInjectingBackend::new(inner, FaultConfig::default()), campus);
    let prepared = service
        .session(qm.clone())
        .prepare(q.clone())
        .expect("prepare");
    prepared.execute().expect("warm-up");
    let warm_ms = best_block_ms(warm_reps, 3, || {
        prepared.execute().expect("warm exec");
    });
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        service.backend().script([Fault::ConnectionDrop]);
        let t = Instant::now();
        prepared.execute().expect("recovery exec");
        samples.push(ms(t.elapsed()));
    }
    let stats = service.recovery_stats();
    DropNumbers {
        warm_ms,
        recover_mean_ms: mean(&samples).unwrap_or(0.0),
        recover_max_ms: samples.iter().copied().fold(0.0, f64::max),
        rounds,
        reconnects: stats.reconnects,
        reprepares: stats.reprepares,
    }
}

struct StormNumbers {
    recover_mean_ms: f64,
    recover_max_ms: f64,
    rounds: usize,
    reprepares_per_round: u64,
}

fn main() {
    let cfg = Config::from_args();
    let purpose = "Analytics";
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== bench_faults (scale={}, days={}, quick={}) ===\n",
        cfg.env.scale, cfg.env.days, cfg.quick
    );

    let campus = build_campus(minidb::DbProfile::MySqlLike, &cfg.env);
    let (querier, policy_count) = {
        let mut floor = 100usize;
        loop {
            let qs = queriers_with_policies(&campus, purpose, floor);
            if let Some(&(q, c)) = qs.first() {
                break (q, c);
            }
            assert!(floor > 10, "campus has no queriers with policies");
            floor -= 10;
        }
    };
    let qm = QueryMetadata::new(querier, purpose);
    let q = sieve_workload::query_gen::generate_query(
        &campus.dataset,
        sieve_workload::QueryClass::Q1,
        sieve_workload::Selectivity::Low,
        7,
    );
    let base_db: minidb::Database = campus.sieve.db().clone();

    // ---- 1. Warm no-fault overhead: raw backend vs rate-0 wrapper.
    let raw_service = service_over(base_db.clone(), &campus);
    let faulty_service = service_over(
        FaultInjectingBackend::new(base_db.clone(), FaultConfig::default()),
        &campus,
    );
    let raw_prepared = raw_service
        .session(qm.clone())
        .prepare(q.clone())
        .expect("raw prepare");
    let faulty_prepared = faulty_service
        .session(qm.clone())
        .prepare(q.clone())
        .expect("faulty prepare");
    let raw_rows = raw_prepared.execute().expect("raw warm-up").len();
    let faulty_rows = faulty_prepared.execute().expect("faulty warm-up").len();
    assert_eq!(
        raw_rows, faulty_rows,
        "rate-0 fault wrapper must not change results"
    );
    // Interleaved blocks so both sides of the gate comparison see the
    // same noise environment.
    let (mut raw_ms, mut faulty_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..6 {
        raw_ms = raw_ms.min(best_block_ms(cfg.warm_reps, 1, || {
            raw_prepared.execute().expect("raw exec");
        }));
        faulty_ms = faulty_ms.min(best_block_ms(cfg.warm_reps, 1, || {
            faulty_prepared.execute().expect("faulty exec");
        }));
    }
    let overhead_ms = faulty_ms - raw_ms;
    let overhead_pct = overhead_ms / raw_ms.max(f64::EPSILON) * 100.0;
    // Rate-0 sanity: nothing injected, nothing retried on the warm path.
    assert_eq!(faulty_service.backend().fault_counts().total(), 0);
    let warm_stats = faulty_service.recovery_stats();
    assert_eq!((warm_stats.retries, warm_stats.exhausted), (0, 0));

    // ---- 2. Time-to-recover after a connection drop.
    let drop = drop_recovery(
        WireSqlBackend::new(base_db.clone()),
        &campus,
        &qm,
        &q,
        cfg.warm_reps,
        cfg.drop_rounds,
    );

    // ---- 3. Re-prepare under a 4-session storm.
    let storm = {
        let service = service_over(
            FaultInjectingBackend::new(
                WireSqlBackend::new(base_db.clone()),
                FaultConfig::default(),
            ),
            &campus,
        );
        let handles: Vec<_> = (0..4)
            .map(|_| {
                service
                    .session(qm.clone())
                    .prepare(q.clone())
                    .expect("storm prepare")
            })
            .collect();
        for p in &handles {
            p.execute().expect("storm warm-up");
        }
        let mut walls = Vec::with_capacity(cfg.storm_rounds);
        let mut before = service.recovery_stats().reprepares;
        let mut per_round = 0u64;
        for _ in 0..cfg.storm_rounds {
            service.backend().script([Fault::ConnectionDrop]);
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for p in &handles {
                    s.spawn(move || {
                        p.execute().expect("storm recover");
                    });
                }
            });
            walls.push(ms(t0.elapsed()));
            let after = service.recovery_stats().reprepares;
            per_round = after - before;
            assert_eq!(
                per_round,
                handles.len() as u64,
                "expected exactly one re-prepare per handle per round"
            );
            before = after;
        }
        StormNumbers {
            recover_mean_ms: mean(&walls).unwrap_or(0.0),
            recover_max_ms: walls.iter().copied().fold(0.0, f64::max),
            rounds: cfg.storm_rounds,
            reprepares_per_round: per_round,
        }
    };

    // ---- Report.
    let rows_out: Vec<Vec<String>> = vec![
        vec!["querier policies".into(), policy_count.to_string()],
        vec!["result rows".into(), raw_rows.to_string()],
        vec!["warm exec, raw backend".into(), format!("{raw_ms:.4} ms")],
        vec![
            "warm exec, rate-0 fault wrapper".into(),
            format!("{faulty_ms:.4} ms"),
        ],
        vec![
            "warm no-fault overhead".into(),
            format!("{overhead_ms:.4} ms ({overhead_pct:.1}%)"),
        ],
        vec![
            "[wire-sql] warm prepared exec".into(),
            format!("{:.4} ms", drop.warm_ms),
        ],
        vec![
            "[wire-sql] recover after drop, mean/max".into(),
            format!("{:.3} / {:.3} ms", drop.recover_mean_ms, drop.recover_max_ms),
        ],
        vec![
            "[wire-sql] drops healed (reconnects)".into(),
            format!("{} over {} rounds", drop.reconnects, drop.rounds),
        ],
        vec!["[wire-sql] re-prepares".into(), drop.reprepares.to_string()],
        vec![
            "[wire-sql] 4-session storm recover, mean/max".into(),
            format!(
                "{:.3} / {:.3} ms",
                storm.recover_mean_ms, storm.recover_max_ms
            ),
        ],
        vec![
            "[wire-sql] storm re-prepares per round".into(),
            storm.reprepares_per_round.to_string(),
        ],
    ];
    let _ = writeln!(out, "{}", render(&["metric", "value"], &rows_out));

    let gate_pass =
        overhead_pct < WARM_FAULT_OVERHEAD_GATE_PCT || overhead_ms < WARM_FAULT_OVERHEAD_GATE_FLOOR_MS;
    if cfg.quick {
        assert!(
            gate_pass,
            "FAULT-TOLERANCE GATE: warm no-fault overhead {overhead_ms:.4} ms \
             ({overhead_pct:.1}%) breaches the {WARM_FAULT_OVERHEAD_GATE_PCT}% / \
             {WARM_FAULT_OVERHEAD_GATE_FLOOR_MS} ms gate"
        );
        let _ = writeln!(
            out,
            "[gate PASS: warm no-fault overhead {overhead_ms:.4} ms \
             ({overhead_pct:.1}%) within the {WARM_FAULT_OVERHEAD_GATE_PCT}% / \
             {WARM_FAULT_OVERHEAD_GATE_FLOOR_MS} ms gate]"
        );
    }
    emit("bench_faults", &out);

    let storm_json = format!(
        "{{\"recover_mean_ms\": {:.4}, \"recover_max_ms\": {:.4}, \
         \"rounds\": {}, \"reprepares_per_round\": {}}}",
        storm.recover_mean_ms, storm.recover_max_ms, storm.rounds, storm.reprepares_per_round
    );
    let json = format!(
        "{{\n  \
           \"bench\": \"faults\",\n  \
           \"quick\": {quick},\n  \
           \"scale\": {scale},\n  \
           \"days\": {days},\n  \
           \"warm_raw_ms\": {raw_ms:.5},\n  \
           \"warm_faulty_ms\": {faulty_ms:.5},\n  \
           \"warm_overhead_ms\": {overhead_ms:.5},\n  \
           \"warm_overhead_pct\": {overhead_pct:.2},\n  \
           \"warm_gate_pct\": {WARM_FAULT_OVERHEAD_GATE_PCT},\n  \
           \"warm_gate_floor_ms\": {WARM_FAULT_OVERHEAD_GATE_FLOOR_MS},\n  \
           \"warm_gate_pass\": {gate_pass},\n  \
           \"drop\": {{\"backend\": \"wire-sql\", \"warm_ms\": {dwarm:.5}, \
             \"recover_mean_ms\": {dmean:.4}, \"recover_max_ms\": {dmax:.4}, \
             \"rounds\": {drounds}, \"reconnects\": {dreconn}, \"reprepares\": {dreprep}}},\n  \
           \"storm\": {storm_json}\n\
         }}\n",
        quick = cfg.quick,
        scale = cfg.env.scale,
        days = cfg.env.days,
        dwarm = drop.warm_ms,
        dmean = drop.recover_mean_ms,
        dmax = drop.recover_max_ms,
        drounds = drop.rounds,
        dreconn = drop.reconnects,
        dreprep = drop.reprepares,
    );
    write_json("BENCH_faults", &json);
}
