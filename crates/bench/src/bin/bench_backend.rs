//! `bench_backend` — in-process vs wire-SQL per-query dispatch overhead.
//!
//! The execution-backend abstraction puts a seam between the middleware
//! and the engine; this bench prices that seam. Same campus, same
//! querier, same warm guard cache, two backends:
//!
//! * `Database` — rewritten query AST handed straight to the
//!   executor (the pre-refactor behaviour; the zero-overhead baseline);
//! * `WireSqlBackend` — the rewritten query rendered to SQL text,
//!   shipped across a simulated wire, re-parsed, then executed (the path
//!   a network backend takes, minus the network).
//!
//! Emits a text table and `results/BENCH_backend.json`. The warm-prepare
//! number is backend-independent (the guard cache sits above the seam)
//! and must stay within noise of `BENCH_hotpath.json`'s — the refactor
//! may not tax the hot path. `--quick` shrinks the dataset for CI.

use minidb::{Database, SelectQuery};
use sieve_bench::harness::{
    best_block_ms, build_campus, emit, ms, queriers_with_policies, write_json, EnvConfig,
};
use sieve_bench::table::{mean, render};
use sieve_core::policy::QueryMetadata;
use sieve_core::{SieveOptions, SieveService, SqlBackend, WireSqlBackend};
use std::fmt::Write as _;
use std::time::Instant;

struct Config {
    quick: bool,
    env: EnvConfig,
    warm_reps: usize,
    /// Render+parse reps for the dispatch microbench (wire path only).
    dispatch_reps: usize,
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
            dispatch_reps: if quick { 200 } else { 1000 },
        }
    }
}

/// `--quick` CI gate: warm prepared-wire dispatch overhead (vs the
/// in-process baseline) must stay under this percentage, or the build
/// fails. The text path sat at ~62% before server-side statements.
const PREPARED_OVERHEAD_GATE_PCT: f64 = 10.0;

/// Absolute escape hatch for the gate: overhead below this many ms is
/// inside the timer's resolution on a noisy shared container and passes
/// regardless of percentage (the quick-scale baseline is ~40 µs, so a
/// few µs of scheduler jitter can read as >10%). Any real return of the
/// tax costs at least one render+parse — ~40 µs at quick scale — and
/// still trips the gate.
const PREPARED_OVERHEAD_GATE_FLOOR_MS: f64 = 0.01;

/// Warm measurements for one backend: (warm prepare ms, warm exec ms,
/// result rows).
fn measure<B: SqlBackend>(
    sieve: &SieveService<B>,
    q: &SelectQuery,
    qm: &QueryMetadata,
    reps: usize,
) -> (f64, f64, usize) {
    // Warm-up: populate the guard cache and the engine's own state.
    let rows = sieve.execute(q, qm).expect("warm-up query").len();
    let mut prep = Vec::with_capacity(reps);
    let mut exec = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        sieve.rewrite(q, qm).expect("warm rewrite");
        prep.push(ms(t.elapsed()));
        let t = Instant::now();
        sieve.execute(q, qm).expect("warm execute");
        exec.push(ms(t.elapsed()));
    }
    (
        mean(&prep).unwrap_or(f64::NAN),
        mean(&exec).unwrap_or(f64::NAN),
        rows,
    )
}

fn main() {
    let cfg = Config::from_args();
    let purpose = "Analytics";
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== bench_backend (scale={}, days={}, quick={}) ===\n",
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
            if floor <= 10 {
                panic!("campus has no queriers with policies");
            }
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
    let base_db: Database = campus.sieve.db().clone();
    let base_db = &base_db;
    let options = SieveOptions::default();

    // ---- In-process baseline.
    let minidb_sieve =
        SieveService::with_backend(base_db.clone(), options.clone()).expect("minidb backend init");
    minidb_sieve.with_groups_mut(|g| *g = campus.dataset.groups.clone());
    minidb_sieve
        .add_policies(campus.policies.iter().cloned())
        .expect("policies");
    let (mini_prep, mini_exec, mini_rows) = measure(&minidb_sieve, &q, &qm, cfg.warm_reps);
    // In-process `Prepared` handle: the pinned-plan execute both backends'
    // prepared paths are compared against (no rewrite in the loop on
    // either side). Timed interleaved with the wire prepared loop.
    let mini_prepared = minidb_sieve
        .session(qm.clone())
        .prepare(q.clone())
        .expect("minidb prepare");
    mini_prepared.execute().expect("prepared warm-up");

    // ---- Wire-SQL backend over the same data.
    let wire_sieve = SieveService::with_backend(
        WireSqlBackend::new(base_db.clone()),
        options.clone(),
    )
    .expect("wire backend init");
    wire_sieve.with_groups_mut(|g| *g = campus.dataset.groups.clone());
    wire_sieve
        .add_policies(campus.policies.iter().cloned())
        .expect("policies");
    let (wire_prep, wire_exec, wire_rows) = measure(&wire_sieve, &q, &qm, cfg.warm_reps);
    assert_eq!(
        mini_rows, wire_rows,
        "backends must return identical result sets"
    );
    let trips = wire_sieve.backend().round_trips();
    assert!(
        trips as usize >= cfg.warm_reps,
        "wire path must be exercised"
    );

    // Isolate the dispatch itself: render + parse of the *rewritten*
    // query, which is all the wire adds over the in-process call.
    let rewritten = wire_sieve.rewrite(&q, &qm).expect("rewrite").query;
    let sql = minidb::sql::render_query(&rewritten);
    let t = Instant::now();
    for _ in 0..cfg.dispatch_reps {
        let parsed = minidb::sql::parse(&sql).expect("reparse");
        std::hint::black_box(&parsed);
    }
    let parse_ms = ms(t.elapsed()) / cfg.dispatch_reps as f64;
    let t = Instant::now();
    for _ in 0..cfg.dispatch_reps {
        std::hint::black_box(minidb::sql::render_query(&rewritten));
    }
    let render_ms = ms(t.elapsed()) / cfg.dispatch_reps as f64;

    // ---- Server-side prepared path: render + parse once at prepare
    // time, every warm execute goes by statement id with bound
    // parameters. Four session handles model a small connection pool
    // preparing the same statement — the template intern cache parses
    // the shared text once.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            wire_sieve
                .session(qm.clone())
                .prepare(q.clone())
                .expect("wire prepare")
        })
        .collect();
    let prepared = &handles[0];
    let prepared_rows = prepared.execute().expect("prepared warm-up").len();
    assert_eq!(
        prepared_rows, mini_rows,
        "prepared path must return identical rows"
    );
    // Interleave the two pinned-plan loops block by block: the gate
    // compares figures in the tens of µs, and measuring them in
    // separate time windows lets scheduler/frequency drift between
    // the windows masquerade as dispatch overhead. Paired blocks see
    // the same environment; the best block on each side is the cost.
    let mut mini_prepared_ms = f64::INFINITY;
    let mut prepared_exec_ms = f64::INFINITY;
    for _ in 0..6 {
        mini_prepared_ms = mini_prepared_ms.min(best_block_ms(cfg.warm_reps, 1, || {
            mini_prepared.execute().expect("prepared execute");
        }));
        prepared_exec_ms = prepared_exec_ms.min(best_block_ms(cfg.warm_reps, 1, || {
            prepared.execute().expect("prepared execute");
        }));
    }
    let (stmt_prepares, stmt_hits, stmt_execs) = {
        let backend = wire_sieve.backend();
        (
            backend.prepares(),
            backend.template_hits(),
            backend.prepared_execs(),
        )
    };
    drop(handles);

    let overhead_ms = wire_exec - mini_exec;
    let overhead_pct = 100.0 * overhead_ms / mini_exec.max(f64::EPSILON);
    // Prepared-vs-prepared: both sides execute a pinned plan, so the
    // difference is pure statement dispatch. Clamped at zero — with
    // text off the wire it can land inside measurement noise.
    let prep_overhead_ms = (prepared_exec_ms - mini_prepared_ms).max(0.0);
    let prep_overhead_pct = 100.0 * prep_overhead_ms / mini_prepared_ms.max(f64::EPSILON);
    let hit_rate = stmt_hits as f64 / (stmt_prepares as f64).max(1.0);
    let rows_out = vec![
        vec!["querier".into(), format!("{querier} ({policy_count} policies)")],
        vec!["result rows".into(), mini_rows.to_string()],
        vec!["minidb warm prepare ms".into(), format!("{mini_prep:.4}")],
        vec!["minidb warm exec ms".into(), format!("{mini_exec:.4}")],
        vec![
            "minidb warm exec ms (prepared)".into(),
            format!("{mini_prepared_ms:.4}"),
        ],
        vec!["wire warm prepare ms".into(), format!("{wire_prep:.4}")],
        vec!["wire warm exec ms (text)".into(), format!("{wire_exec:.4}")],
        vec![
            "dispatch overhead ms/query (text)".into(),
            format!("{overhead_ms:.4}"),
        ],
        vec![
            "dispatch overhead % (text)".into(),
            format!("{overhead_pct:.1}%"),
        ],
        vec![
            "wire warm exec ms (prepared)".into(),
            format!("{prepared_exec_ms:.4}"),
        ],
        vec![
            "dispatch overhead ms/query (prepared)".into(),
            format!("{prep_overhead_ms:.4}"),
        ],
        vec![
            "dispatch overhead % (prepared)".into(),
            format!("{prep_overhead_pct:.1}%"),
        ],
        vec![
            "statement cache hit rate".into(),
            format!("{hit_rate:.2} ({stmt_hits}/{stmt_prepares} prepares)"),
        ],
        vec!["prepared executions".into(), stmt_execs.to_string()],
        vec!["render ms/query".into(), format!("{render_ms:.4}")],
        vec!["parse ms/query".into(), format!("{parse_ms:.4}")],
        vec!["rewritten SQL bytes".into(), sql.len().to_string()],
        vec!["wire round trips".into(), trips.to_string()],
    ];
    let _ = writeln!(out, "{}", render(&["metric", "value"], &rows_out));
    let _ = writeln!(
        out,
        "(dispatch overhead = warm wire exec − warm in-process exec; the guard\n\
         cache sits above the backend seam, so warm prepare must match\n\
         BENCH_hotpath.json's warm number on both backends. The prepared rows\n\
         execute by statement id — render+parse paid once at prepare time —\n\
         and are timed as the best block-mean of 6 blocks on both sides, so\n\
         the overhead gate compares true costs, not scheduler noise.)"
    );
    emit("bench_backend", &out);
    let json = format!(
        "{{\n  \
           \"bench\": \"backend\",\n  \
           \"quick\": {quick},\n  \
           \"scale\": {scale},\n  \
           \"days\": {days},\n  \
           \"querier_policies\": {policy_count},\n  \
           \"result_rows\": {mini_rows},\n  \
           \"warm_reps\": {reps},\n  \
           \"minidb\": {{\n    \
             \"warm_prepare_ms\": {mini_prep:.4},\n    \
             \"warm_exec_ms\": {mini_exec:.4},\n    \
             \"prepared_exec_ms\": {mini_prepared_ms:.4}\n  \
           }},\n  \
           \"wire_sql\": {{\n    \
             \"warm_prepare_ms\": {wire_prep:.4},\n    \
             \"warm_exec_ms\": {wire_exec:.4},\n    \
             \"rewritten_sql_bytes\": {sql_bytes},\n    \
             \"render_ms_per_query\": {render_ms:.4},\n    \
             \"parse_ms_per_query\": {parse_ms:.4}\n  \
           }},\n  \
           \"wire_prepared\": {{\n    \
             \"warm_exec_ms\": {prep_exec:.4},\n    \
             \"dispatch_overhead_ms\": {prep_overhead_ms:.4},\n    \
             \"dispatch_overhead_pct\": {prep_overhead_pct:.2},\n    \
             \"statement_prepares\": {stmt_prepares},\n    \
             \"template_cache_hits\": {stmt_hits},\n    \
             \"template_cache_hit_rate\": {hit_rate:.2},\n    \
             \"prepared_executions\": {stmt_execs}\n  \
           }},\n  \
           \"dispatch_overhead_ms\": {overhead_ms:.4},\n  \
           \"dispatch_overhead_pct\": {overhead_pct:.2}\n\
         }}\n",
        quick = cfg.quick,
        scale = cfg.env.scale,
        days = cfg.env.days,
        reps = cfg.warm_reps,
        sql_bytes = sql.len(),
        prep_exec = prepared_exec_ms,
    );
    write_json("BENCH_backend", &json);
    // CI gate: the prepared path is the product of this seam — if its
    // warm dispatch overhead regresses past the threshold, fail loudly
    // rather than letting the tax creep back in.
    if cfg.quick {
        assert!(
            prep_overhead_pct < PREPARED_OVERHEAD_GATE_PCT
                || prep_overhead_ms < PREPARED_OVERHEAD_GATE_FLOOR_MS,
            "prepared-wire dispatch overhead {prep_overhead_ms:.4} ms \
             ({prep_overhead_pct:.1}%) breaches the {PREPARED_OVERHEAD_GATE_PCT}% / \
             {PREPARED_OVERHEAD_GATE_FLOOR_MS} ms gate (text path: {overhead_pct:.1}%)"
        );
        eprintln!(
            "[gate ok: prepared dispatch overhead {prep_overhead_ms:.4} ms \
             ({prep_overhead_pct:.1}%) within the {PREPARED_OVERHEAD_GATE_PCT}% / \
             {PREPARED_OVERHEAD_GATE_FLOOR_MS} ms gate]"
        );
    }
}
