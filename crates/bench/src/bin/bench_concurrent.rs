//! `bench_concurrent` — the first concurrency numbers for the middleware.
//!
//! Three scenarios against ONE shared `SieveService` over the campus
//! workload:
//!
//! 1. **Warm-path throughput scaling** — every querier's query is wrapped
//!    in a `Prepared` handle (guard cache warm, fragments pinned), then
//!    1/2/4/8 threads replay the handles for a fixed wall-clock window.
//!    Reported as queries/second per thread count; on a multi-core host
//!    the `&self` hot path should scale near-linearly because warm
//!    replays share only read locks and atomics. The 1- and 2-thread
//!    windows are timed as interleaved best-of-blocks and gated: with at
//!    least 2 cores, 2 threads must reach [`SCALING_2V1_GATE`]× the
//!    1-thread throughput or the run fails.
//! 2. **Mixed read/write contention** — 4 reader threads replay prepared
//!    statements while a writer inserts policies (each insert bumps the
//!    revision, forcing every prepared statement through one transparent
//!    re-prepare). Reports reader throughput under churn and the
//!    writer's per-`add_policy` latency.
//! 3. **Batched prepare, sequential vs parallel per-querier phase** —
//!    the PR 3 scenario (cold multi-querier batch) with the set-cover
//!    phase on 1 thread vs `available_parallelism`; results are asserted
//!    row-identical to the sequential schedule.
//!
//! Results go to stdout, `results/bench_concurrent.txt`, and
//! `results/BENCH_concurrent.json` (the CI artifact). `--quick` shrinks
//! the dataset and measurement windows for CI smoke runs. The JSON
//! records `cores`: scaling claims are only meaningful when the host
//! actually has the cores (a 1-core container caps every thread count at
//! 1x by construction).

use sieve_bench::harness::{build_campus, emit, ms, write_json, EnvConfig};
use sieve_bench::table::render;
use sieve_core::policy::{ObjectCondition, Policy, QuerierSpec};
use sieve_core::{CondPredicate, Prepared, SieveService};
use sieve_workload::traffic::{multi_querier_traffic, TrafficConfig};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm `Prepared` throughput at 2 threads must reach this multiple of
/// the 1-thread throughput on a host with at least 2 cores. Replays that
/// write one shared cache line per predicate (a process-wide atomic
/// counter block) measured 0.6-0.9x here; per-query counters measure
/// about 2x.
const SCALING_2V1_GATE: f64 = 1.5;

/// Interleaved 1-thread/2-thread window pairs behind the gate. Each side
/// keeps its best window: a steal or scheduler episode only ever slows a
/// window down, so one bad window cannot fail the gate.
const SCALING_BLOCKS: usize = 5;

struct Config {
    quick: bool,
    env: EnvConfig,
    queriers: usize,
    window: Duration,
    writer_policies: usize,
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
            queriers: if quick { 100 } else { 150 },
            window: Duration::from_millis(if quick { 250 } else { 1000 }),
            writer_policies: if quick { 8 } else { 24 },
        }
    }
}

/// Replay the shared prepared handles from `threads` threads for a fixed
/// window; returns (total executions, wall). Thread `t` starts at a
/// different offset so the threads don't march in lockstep over the same
/// cache shards.
fn replay_window(
    prepared: &Arc<Vec<Prepared>>,
    threads: usize,
    window: Duration,
) -> (u64, Duration) {
    let total = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let prepared = Arc::clone(prepared);
            let total = &total;
            s.spawn(move || {
                let n = prepared.len();
                let mut i = (t * 17) % n;
                let mut local = 0u64;
                while t0.elapsed() < window {
                    let rows = prepared[i].execute().expect("replay").len();
                    assert!(rows < usize::MAX); // keep the result observable
                    local += 1;
                    i = (i + 1) % n;
                }
                total.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    (total.load(Ordering::Relaxed), t0.elapsed())
}

fn main() {
    let cfg = Config::from_args();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== bench_concurrent (scale={}, days={}, quick={}, cores={}) ===\n",
        cfg.env.scale, cfg.env.days, cfg.quick, cores
    );

    let campus = build_campus(minidb::DbProfile::MySqlLike, &cfg.env);
    let requests = multi_querier_traffic(
        &campus.dataset,
        &TrafficConfig {
            queriers: cfg.queriers,
            purpose: "Analytics".into(),
            seed: 11,
        },
    );
    let policies = campus.policies.len();
    let service: SieveService = campus.sieve;

    // ---- 3 (measured first: it wants a cold cache). Batched prepare:
    // sequential per-querier phase vs parallel.
    service.invalidate_all();
    let t0 = Instant::now();
    for (qm, q) in &requests {
        service.rewrite(q, qm).expect("sequential rewrite");
    }
    let seq_prepare_ms = ms(t0.elapsed());
    let mut seq_rows: Vec<Vec<minidb::Row>> = Vec::with_capacity(requests.len());
    for (qm, q) in &requests {
        let mut rows = service.execute(q, qm).expect("sequential execute").rows;
        rows.sort();
        seq_rows.push(rows);
    }

    service.invalidate_all();
    let t0 = Instant::now();
    service
        .prepare_batch_with_threads(&requests, 1)
        .expect("batch threads=1");
    for (qm, q) in &requests {
        service.rewrite(q, qm).expect("batched rewrite");
    }
    let batch1_prepare_ms = ms(t0.elapsed());

    service.invalidate_all();
    let batch_threads = cores.clamp(2, 8);
    let t0 = Instant::now();
    service
        .prepare_batch_with_threads(&requests, batch_threads)
        .expect("batch threads=N");
    for (qm, q) in &requests {
        service.rewrite(q, qm).expect("parallel-batched rewrite");
    }
    let batchn_prepare_ms = ms(t0.elapsed());
    // The parallel schedule must not change a single row.
    for ((qm, q), expect) in requests.iter().zip(&seq_rows) {
        let mut rows = service.execute(q, qm).expect("parallel execute").rows;
        rows.sort();
        assert_eq!(&rows, expect, "parallel batch diverged for {}", qm.querier);
    }

    // ---- 1. Warm-path throughput scaling over prepared statements.
    let prepared: Arc<Vec<Prepared>> = Arc::new(
        requests
            .iter()
            .map(|(qm, q)| {
                service
                    .session(qm.clone())
                    .prepare(q.clone())
                    .expect("prepare")
            })
            .collect(),
    );
    // Warm everything once.
    for p in prepared.iter() {
        p.execute().expect("warm");
    }
    let qps = |threads: usize| {
        let (execs, wall) = replay_window(&prepared, threads, cfg.window);
        execs as f64 / wall.as_secs_f64()
    };
    let (mut qps_1, mut qps_2) = (0.0f64, 0.0f64);
    for _ in 0..SCALING_BLOCKS {
        qps_1 = qps_1.max(qps(1));
        qps_2 = qps_2.max(qps(2));
    }
    let throughputs: Vec<(usize, f64)> = vec![(1, qps_1), (2, qps_2), (4, qps(4)), (8, qps(8))];
    let qps_8 = throughputs[3].1;
    let scaling = qps_8 / qps_1.max(f64::EPSILON);
    let scaling_2 = qps_2 / qps_1.max(f64::EPSILON);

    // ---- 2. Mixed read/write contention: 4 readers + a policy writer.
    let stop = AtomicBool::new(false);
    let writer_latencies: std::sync::Mutex<Vec<f64>> = std::sync::Mutex::new(Vec::new());
    let reader_total = AtomicU64::new(0);
    let t0 = Instant::now();
    let mixed_window = cfg.window.max(Duration::from_millis(200));
    std::thread::scope(|s| {
        for t in 0..4usize {
            let prepared = Arc::clone(&prepared);
            let (stop, reader_total) = (&stop, &reader_total);
            s.spawn(move || {
                let n = prepared.len();
                let mut i = (t * 31) % n;
                let mut local = 0u64;
                while !stop.load(Ordering::SeqCst) && t0.elapsed() < mixed_window * 4 {
                    prepared[i].execute().expect("mixed replay");
                    local += 1;
                    i = (i + 1) % n;
                }
                reader_total.fetch_add(local, Ordering::Relaxed);
            });
        }
        // Writer on the main thread: spread the inserts over the window.
        let gap = mixed_window / (cfg.writer_policies as u32 + 1);
        for k in 0..cfg.writer_policies {
            std::thread::sleep(gap);
            let w0 = Instant::now();
            service
                .add_policy(Policy::new(
                    (k % 80) as i64,
                    sieve_workload::WIFI_TABLE,
                    QuerierSpec::User(9_000_000 + k as i64),
                    "Analytics",
                    vec![ObjectCondition::new(
                        "wifi_ap",
                        CondPredicate::Ne(minidb::Value::Int(-1)),
                    )],
                ))
                .expect("writer add_policy");
            writer_latencies.lock().unwrap().push(ms(w0.elapsed()));
        }
        stop.store(true, Ordering::SeqCst);
    });
    let mixed_wall = t0.elapsed();
    let mixed_qps = reader_total.load(Ordering::Relaxed) as f64 / mixed_wall.as_secs_f64();
    let lat = writer_latencies.into_inner().unwrap();
    let writer_avg_ms = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    let writer_max_ms = lat.iter().cloned().fold(0.0f64, f64::max);

    // ---- Report.
    let mut rows_out: Vec<Vec<String>> = vec![
        vec!["cores".into(), cores.to_string()],
        vec!["queriers".into(), requests.len().to_string()],
        vec!["policies".into(), policies.to_string()],
        vec!["seq prepare ms".into(), format!("{seq_prepare_ms:.2}")],
        vec![
            "batch prepare ms (1 thread)".into(),
            format!("{batch1_prepare_ms:.2}"),
        ],
        vec![
            format!("batch prepare ms ({batch_threads} threads)"),
            format!("{batchn_prepare_ms:.2}"),
        ],
    ];
    for (threads, qps) in &throughputs {
        rows_out.push(vec![
            format!("warm throughput, {threads} thread(s)"),
            format!("{qps:.0} q/s"),
        ]);
    }
    rows_out.push(vec![
        format!("scaling 1 -> 2 threads (best of {SCALING_BLOCKS} interleaved)"),
        format!("{scaling_2:.2}x"),
    ]);
    rows_out.push(vec![
        "scaling 1 -> 8 threads".into(),
        format!("{scaling:.2}x"),
    ]);
    rows_out.push(vec![
        "mixed readers q/s (4 readers + writer)".into(),
        format!("{mixed_qps:.0}"),
    ]);
    rows_out.push(vec![
        "writer add_policy avg/max ms".into(),
        format!("{writer_avg_ms:.2} / {writer_max_ms:.2}"),
    ]);
    let _ = writeln!(out, "{}", render(&["metric", "value"], &rows_out));
    if cores == 1 {
        let _ = writeln!(
            out,
            "\nNOTE: single-core host — thread scaling is capped at ~1x by the\n\
             hardware; the numbers above measure contention overhead, not\n\
             parallel speedup. Re-run on a multi-core host for scaling."
        );
    }
    emit("bench_concurrent", &out);

    let thr_json: Vec<String> = throughputs
        .iter()
        .map(|(t, q)| format!("{{\"threads\": {t}, \"qps\": {q:.1}}}"))
        .collect();
    let json = format!(
        "{{\n  \
           \"bench\": \"concurrent\",\n  \
           \"quick\": {quick},\n  \
           \"scale\": {scale},\n  \
           \"days\": {days},\n  \
           \"cores\": {cores},\n  \
           \"queriers\": {queriers},\n  \
           \"policies\": {policies},\n  \
           \"seq_prepare_ms\": {seq_prepare_ms:.3},\n  \
           \"batch1_prepare_ms\": {batch1_prepare_ms:.3},\n  \
           \"batchn_prepare_ms\": {batchn_prepare_ms:.3},\n  \
           \"batch_threads\": {batch_threads},\n  \
           \"warm_throughput\": [{thr}],\n  \
           \"scaling_1_to_2\": {scaling_2:.3},\n  \
           \"scaling_1_to_8\": {scaling:.3},\n  \
           \"mixed_reader_qps\": {mixed_qps:.1},\n  \
           \"writer_policies\": {wp},\n  \
           \"writer_add_policy_avg_ms\": {writer_avg_ms:.3},\n  \
           \"writer_add_policy_max_ms\": {writer_max_ms:.3}\n\
         }}\n",
        quick = cfg.quick,
        scale = cfg.env.scale,
        days = cfg.env.days,
        queriers = requests.len(),
        thr = thr_json.join(", "),
        wp = cfg.writer_policies,
    );
    write_json("BENCH_concurrent", &json);
    // Gate: with the cores to scale on, warm replays must scale. A
    // 1-core host cannot, so there the figure is only recorded.
    if cores >= 2 {
        assert!(
            scaling_2 >= SCALING_2V1_GATE,
            "warm Prepared throughput scales {scaling_2:.2}x from 1 to 2 threads \
             ({qps_1:.1} -> {qps_2:.1} q/s), below the {SCALING_2V1_GATE}x gate"
        );
        eprintln!(
            "[gate ok: warm Prepared throughput scales {scaling_2:.2}x from 1 to 2 \
             threads, at least {SCALING_2V1_GATE}x]"
        );
    }
}
