//! `bench_server` — the wire front under session-scale load.
//!
//! One `SieveServer` over the in-process loopback transport, driven by
//! MANY concurrent remote sessions (default 1200, `--quick` 1000 — the
//! acceptance floor), each on its own connection with its own client
//! thread, while a writer storms `add_policy` in the background (every
//! insert bumps the service revision, forcing prepared plans through a
//! transparent re-prepare). Every response is checked row-identical to
//! the in-process oracle — the bench doubles as an enforcement test at
//! scale.
//!
//! Reported:
//!
//! * **connection setup** — avg/p50/p99 of connect + handshake + auth
//!   per connection;
//! * **per-session memory** — VmRSS delta across session establishment,
//!   divided by session count (Linux `/proc/self/status`);
//! * **query latency** — p50/p99 over every remote execute (one-shot
//!   and prepared), measured client-side across the full round trip;
//! * **single-flight** — sessions share queriers, so the cold storm
//!   exercises the guard cache's in-flight claim: generations must equal
//!   distinct keys, never sessions.
//!
//! Results go to stdout, `results/bench_server.txt`, and
//! `results/BENCH_server.json` (the CI artifact).

use sieve_bench::harness::{emit, ms, write_json};
use sieve_bench::table::render;
use sieve_client::RemoteConnection;
use sieve_core::policy::{
    CondPredicate, ObjectCondition, Policy, QuerierSpec, QueryMetadata,
};
use sieve_core::{SieveOptions, SieveService};
use sieve_server::{loopback, SieveServer, TokenAuthenticator};
use minidb::value::DataType;
use minidb::{Database, DbProfile, Row, TableSchema, Value};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const REL: &str = "wifi_dataset";
const QUERY: &str = "SELECT * FROM wifi_dataset";

struct Config {
    quick: bool,
    sessions: usize,
    queriers: usize,
    rows: i64,
    ops_per_session: usize,
    writer_policies: usize,
}

impl Config {
    fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        Config {
            quick,
            // 1000 concurrent sessions is the floor the server must
            // sustain; the full run pushes past it.
            sessions: if quick { 1000 } else { 2000 },
            queriers: 50,
            rows: if quick { 2000 } else { 6000 },
            ops_per_session: if quick { 4 } else { 8 },
            writer_policies: if quick { 10 } else { 30 },
        }
    }
}

fn loaded_db(rows: i64) -> Database {
    let mut db = Database::new(DbProfile::MySqlLike);
    db.create_table(TableSchema::of(
        REL,
        &[
            ("id", DataType::Int),
            ("owner", DataType::Int),
            ("wifi_ap", DataType::Int),
        ],
    ))
    .unwrap();
    for i in 0..rows {
        db.insert(
            REL,
            vec![Value::Int(i), Value::Int(i % 80), Value::Int(1000 + i % 64)],
        )
        .unwrap();
    }
    for col in ["owner", "wifi_ap"] {
        db.create_index(REL, col).unwrap();
    }
    db.analyze(REL).unwrap();
    db
}

/// Querier `500 + k` reads owners 0..12 at AP `1000 + k % 64`.
fn corpus(queriers: usize) -> Vec<Policy> {
    let mut out = Vec::new();
    for k in 0..queriers {
        for owner in 0..12i64 {
            out.push(Policy::new(
                owner,
                REL,
                QuerierSpec::User(500 + k as i64),
                "Analytics",
                vec![ObjectCondition::new(
                    "wifi_ap",
                    CondPredicate::Eq(Value::Int(1000 + (k % 64) as i64)),
                )],
            ));
        }
    }
    out
}

fn qm(querier: i64) -> QueryMetadata {
    QueryMetadata::new(querier, "Analytics")
}

fn sorted_rows(res: minidb::QueryResult) -> Vec<Row> {
    let mut rows = res.rows;
    rows.sort();
    rows
}

/// Resident set size in KiB from `/proc/self/status` (0 where absent).
fn vm_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmRSS:")).and_then(|l| {
                l.split_whitespace().nth(1).and_then(|v| v.parse().ok())
            })
        })
        .unwrap_or(0)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let cfg = Config::from_args();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== bench_server (sessions={}, queriers={}, rows={}, quick={}, cores={}) ===\n",
        cfg.sessions, cfg.queriers, cfg.rows, cfg.quick, cores
    );

    // ---- Service, policies, oracle, server.
    let service = SieveService::new(loaded_db(cfg.rows), SieveOptions::default()).unwrap();
    let policies = corpus(cfg.queriers);
    let n_policies = policies.len();
    for p in policies {
        service.add_policy(p).unwrap();
    }
    let oracles: Arc<Vec<Vec<Row>>> = Arc::new(
        (0..cfg.queriers)
            .map(|k| {
                sorted_rows(
                    service
                        .session(qm(500 + k as i64))
                        .execute_sql(QUERY)
                        .expect("oracle"),
                )
            })
            .collect(),
    );
    assert!(oracles.iter().any(|r| !r.is_empty()), "oracle all-empty");
    // The execute storm below must start cold so the session stampede
    // exercises single-flight generation, not a warm cache. The
    // generation counter is monotonic (the oracle pass above already
    // spent one generation per querier), so single-flight accounting is
    // done on deltas from this baseline.
    service.invalidate_all();
    let gen_baseline = service.generations();

    let mut auth = TokenAuthenticator::new();
    for k in 0..cfg.queriers {
        auth.insert(format!("token-{k}"), 500 + k as i64);
    }
    let server = SieveServer::new(service.clone(), auth);
    let (listener, connector) = loopback();
    let handle = server.serve(listener);

    // ---- Connection setup cost + per-session memory.
    let rss_before = vm_rss_kib();
    let t0 = Instant::now();
    let mut setup_ms: Vec<f64> = Vec::with_capacity(cfg.sessions);
    let conns: Vec<RemoteConnection> = (0..cfg.sessions)
        .map(|s| {
            let k = s % cfg.queriers;
            let c0 = Instant::now();
            let conn = RemoteConnection::establish(
                connector.connect().expect("connect"),
                &format!("token-{k}"),
            )
            .expect("establish");
            setup_ms.push(ms(c0.elapsed()));
            conn
        })
        .collect();
    let setup_wall = t0.elapsed();
    let rss_after = vm_rss_kib();
    let per_session_kib =
        (rss_after.saturating_sub(rss_before)) as f64 / cfg.sessions as f64;
    setup_ms.sort_by(|a, b| a.total_cmp(b));
    let setup_avg = setup_ms.iter().sum::<f64>() / setup_ms.len().max(1) as f64;

    // ---- Execute storm: every session concurrently, one-shot + prepared,
    // with an add_policy writer running through the middle of it.
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let mismatches = AtomicU64::new(0);
    let total_ops = AtomicU64::new(0);
    // Two sync points: `start` releases the cold stampede (every session
    // cold-misses its querier's key at once — the single-flight case),
    // `mid` lets the main thread read the generation counter before any
    // writer-driven regeneration muddies it.
    let start = Barrier::new(cfg.sessions + 1);
    let mid = Barrier::new(cfg.sessions + 1);
    let cold_generations = AtomicU64::new(0);
    let storm_done = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (sid, conn) in conns.iter().enumerate() {
            let k = sid % cfg.queriers;
            let oracles = Arc::clone(&oracles);
            let (latencies, mismatches, total_ops) = (&latencies, &mismatches, &total_ops);
            let (start, mid) = (&start, &mid);
            s.spawn(move || {
                let session = conn.session(qm(500 + k as i64));
                let mut local: Vec<f64> = Vec::with_capacity(cfg.ops_per_session + 1);
                start.wait();
                // Cold stampede: sessions_per_querier threads miss the
                // same key together; single-flight must make this one
                // generation per key.
                let q0 = Instant::now();
                let res = session.execute_sql(QUERY).expect("remote execute");
                local.push(ms(q0.elapsed()));
                if sorted_rows(res) != oracles[k] {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
                mid.wait();
                // Warm one-shot executes under the writer storm.
                for _ in 1..cfg.ops_per_session {
                    let q0 = Instant::now();
                    let res = session.execute_sql(QUERY).expect("remote execute");
                    local.push(ms(q0.elapsed()));
                    if sorted_rows(res) != oracles[k] {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Prepared path: pin once, execute once more.
                let prepared = session.prepare_sql(QUERY).expect("remote prepare");
                let q0 = Instant::now();
                let res = prepared.execute().expect("prepared execute");
                local.push(ms(q0.elapsed()));
                if sorted_rows(res) != oracles[k] {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
                prepared.close().expect("close prepared");
                total_ops.fetch_add(local.len() as u64, Ordering::Relaxed);
                latencies
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend_from_slice(&local);
            });
        }
        start.wait();
        mid.wait();
        // Every session has completed its cold execute; the counter now
        // reflects the stampede alone.
        cold_generations.store(service.generations() - gen_baseline, Ordering::SeqCst);
        // Writer storm on the main thread: policies for out-of-corpus
        // queriers — every insert bumps the revision (forcing prepared
        // plans and cache entries through refresh) without changing what
        // the bench queriers may see.
        for w in 0..cfg.writer_policies {
            std::thread::sleep(Duration::from_millis(2));
            service
                .add_policy(Policy::new(
                    (w % 80) as i64,
                    REL,
                    QuerierSpec::User(9_000_000 + w as i64),
                    "Analytics",
                    vec![ObjectCondition::new(
                        "wifi_ap",
                        CondPredicate::Ne(Value::Int(-1)),
                    )],
                ))
                .expect("writer add_policy");
        }
        storm_done.store(true, Ordering::SeqCst);
    });
    let storm_wall = t0.elapsed();
    assert!(storm_done.load(Ordering::SeqCst));
    let ops = total_ops.load(Ordering::Relaxed);
    let bad = mismatches.load(Ordering::Relaxed);
    assert_eq!(bad, 0, "{bad} remote responses diverged from the oracle");
    let cold_generations = cold_generations.load(Ordering::SeqCst);

    let mut lat = latencies.into_inner().unwrap_or_else(|e| e.into_inner());
    lat.sort_by(|a, b| a.total_cmp(b));
    let (lat_p50, lat_p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    let qps = ops as f64 / storm_wall.as_secs_f64();

    // ---- Single-flight accounting across the cold session storm.
    let generations = service.generations() - gen_baseline;
    let cache = service.cache_stats();

    // ---- Teardown.
    for conn in conns {
        conn.close().expect("close");
    }
    drop(connector);
    handle.join();
    let stats = server.stats();
    let served = stats.requests.load(Ordering::Relaxed);
    assert_eq!(
        stats.identity_rejections.load(Ordering::Relaxed),
        0,
        "bench sent no mismatched identities"
    );

    // ---- Report.
    let rows_out: Vec<Vec<String>> = vec![
        vec!["sessions (concurrent)".into(), cfg.sessions.to_string()],
        vec!["queriers".into(), cfg.queriers.to_string()],
        vec!["policies".into(), n_policies.to_string()],
        vec!["requests served".into(), served.to_string()],
        vec![
            "conn setup avg/p50/p99 ms".into(),
            format!(
                "{setup_avg:.3} / {:.3} / {:.3}",
                percentile(&setup_ms, 0.50),
                percentile(&setup_ms, 0.99)
            ),
        ],
        vec![
            "all-session setup wall ms".into(),
            format!("{:.1}", ms(setup_wall)),
        ],
        vec![
            "per-session memory KiB".into(),
            format!("{per_session_kib:.1}"),
        ],
        vec![
            "query latency p50/p99 ms".into(),
            format!("{lat_p50:.3} / {lat_p99:.3}"),
        ],
        vec!["remote ops".into(), ops.to_string()],
        vec!["throughput q/s".into(), format!("{qps:.0}")],
        vec![
            "cold-storm generations / keys".into(),
            format!("{cold_generations} / {}", cfg.queriers),
        ],
        vec![
            "total generations (incl. writer-forced)".into(),
            generations.to_string(),
        ],
        vec!["stampedes coalesced".into(), cache.coalesced.to_string()],
        vec!["row mismatches".into(), bad.to_string()],
    ];
    let _ = writeln!(out, "{}", render(&["metric", "value"], &rows_out));
    assert!(
        cold_generations <= cfg.queriers as u64,
        "single-flight broke: {cold_generations} cold generations for {} keys",
        cfg.queriers
    );
    emit("bench_server", &out);

    let json = format!(
        "{{\n  \
           \"bench\": \"server\",\n  \
           \"quick\": {quick},\n  \
           \"cores\": {cores},\n  \
           \"sessions\": {sessions},\n  \
           \"queriers\": {queriers},\n  \
           \"policies\": {n_policies},\n  \
           \"requests_served\": {served},\n  \
           \"conn_setup_avg_ms\": {setup_avg:.4},\n  \
           \"conn_setup_p50_ms\": {sp50:.4},\n  \
           \"conn_setup_p99_ms\": {sp99:.4},\n  \
           \"setup_wall_ms\": {sw:.2},\n  \
           \"per_session_rss_kib\": {per_session_kib:.2},\n  \
           \"latency_p50_ms\": {lat_p50:.4},\n  \
           \"latency_p99_ms\": {lat_p99:.4},\n  \
           \"remote_ops\": {ops},\n  \
           \"throughput_qps\": {qps:.1},\n  \
           \"writer_policies\": {wp},\n  \
           \"cold_generations\": {cold_generations},\n  \
           \"total_generations\": {generations},\n  \
           \"coalesced\": {coalesced},\n  \
           \"row_mismatches\": {bad}\n\
         }}\n",
        quick = cfg.quick,
        sessions = cfg.sessions,
        queriers = cfg.queriers,
        sp50 = percentile(&setup_ms, 0.50),
        sp99 = percentile(&setup_ms, 0.99),
        sw = ms(setup_wall),
        wp = cfg.writer_policies,
        coalesced = cache.coalesced,
    );
    write_json("BENCH_server", &json);
}
