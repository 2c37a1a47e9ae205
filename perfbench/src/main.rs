//! `sieve-perfbench` — the repository benchmark.
//!
//! Runs one named workload through the real request path
//! (`sieve-client` → `sieve-protocol` → `sieve-server` over the loopback
//! transport → `SieveService`/`Session`/`Prepared` → guard cache →
//! rewrite → `minidb`) on the full-scale TIPPERS campus, checks every
//! answer against Baseline P, and ends its output with one JSON line:
//!
//! ```text
//! sieve-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of the workload's own load
//! shape; `--trace 1` reports per-layer metrics from a single-threaded
//! replay of the same requests (see `trace.rs`). Exit code 0 means every
//! answer matched; 1 means a mismatch; 2 means the run could not measure.

mod env;
mod gen;
mod load;
mod oracle;
mod report;
mod stats;
mod trace;

use env::{Env, Scale};
use gen::Workload;
use load::{Ctx, Tally};
use oracle::Oracle;
use report::{quote, result_line, Metric};
use stats::{median, percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// What a run found.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the final line, or why they could not be measured.
    metrics: Result<Vec<Metric>, String>,
    /// Further measurements printed before it (workload-specific or
    /// possibly zero, so not part of the result contract).
    extras: Vec<Metric>,
    /// Run metadata: host, commit, inputs, sample counts.
    meta: Vec<(&'static str, String)>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: sieve-perfbench --workload <selective-warm|consent-churn|analytics-scan> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args, Scale::FULL)
    } else {
        end_to_end(&args, Scale::FULL, |_, _| {})
    };
    let kind = if args.trace { "layer" } else { "e2e" };
    for m in outcome.metrics.iter().flatten().chain(&outcome.extras) {
        println!(
            "{} {kind} {} = {} {}",
            args.workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    let meta: Vec<String> = outcome
        .meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    if !outcome.correct {
        eprintln!("perfbench: answers differ from the Baseline P oracle");
    }
    match &outcome.metrics {
        Ok(metrics) => println!(
            "{}",
            result_line(outcome.correct, outcome.attempted, outcome.failed, metrics)
        ),
        Err(e) => eprintln!("perfbench: {e}"),
    }
    match (outcome.correct, outcome.metrics.is_ok()) {
        (true, true) => ExitCode::SUCCESS,
        (false, _) => ExitCode::from(1),
        (true, false) => ExitCode::from(2),
    }
}

/// Build the environment `repeats` times (keeping the last) and return
/// it with the median set-up time.
fn setup(args: &Args, scale: Scale, repeats: usize) -> (Env, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut env: Option<Env> = None;
    for _ in 0..repeats {
        if let Some(old) = env.take() {
            old.shutdown();
        }
        let t = Instant::now();
        env = Some(Env::build(args.workload, args.seed, args.seconds, scale));
        times.push(t.elapsed().as_secs_f64());
    }
    (env.expect("at least one set-up"), median(&times))
}

fn pct(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(samples, p).ok_or_else(|| {
        format!(
            "{} samples of {what} are too few for p{}; lengthen --seconds",
            samples.len(),
            p * 100.0
        )
    })
}

/// The end-to-end run: the workload's own load shape, tracing off.
/// `tamper` sees the oracle before the window (tests corrupt it).
fn end_to_end(args: &Args, scale: Scale, tamper: impl FnOnce(&Env, &mut Oracle)) -> Outcome {
    let (env, setup_s) = setup(args, scale, args.workload.setup_repeats());
    let mut meta = base_meta(args, &env);
    let t = Instant::now();
    let mut oracle = Oracle::compute(&env);
    let oracle_s = t.elapsed().as_secs_f64();
    tamper(&env, &mut oracle);
    let ctx = Ctx::new(&env, &oracle);
    let cpu_before = host_cpu_ticks();
    let (tally, elapsed) = ctx.closed_loop(Duration::from_secs(args.seconds));
    let steal_pct = steal_share(cpu_before, host_cpu_ticks()) * 100.0;
    let t = Instant::now();
    let (rechecked, stale) = ctx.recheck_granted();
    eprintln!(
        "perfbench: setup {setup_s:.2} s (median of {}), oracle {oracle_s:.2} s, window {:.2} s, re-check {:.2} s",
        args.workload.setup_repeats(),
        elapsed.as_secs_f64(),
        t.elapsed().as_secs_f64()
    );
    let peak_rss_mib = vm_hwm_mib();
    drop(ctx);
    env.shutdown();

    let metrics = (|| {
        Ok(vec![
            Metric::new(
                "query_p50_ms",
                pct(&tally.query_ms, 0.5, "query latency")?,
                "ms",
            ),
            Metric::new(
                "query_p90_ms",
                pct(&tally.query_ms, 0.9, "query latency")?,
                "ms",
            ),
            Metric::new(
                "first_query_p50_ms",
                pct(&tally.first_ms, 0.5, "first-query latency")?,
                "ms",
            ),
            Metric::new(
                "throughput_qps",
                tally.executes as f64 / elapsed.as_secs_f64(),
                "1/s",
            ),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
        ])
    })();
    let mut extras = Vec::new();
    for (name, samples, p) in [
        ("query_p99_ms", &tally.query_ms, 0.99),
        ("first_query_p99_ms", &tally.first_ms, 0.99),
        ("policy_write_p50_ms", &tally.write_ms, 0.5),
        ("policy_write_p99_ms", &tally.write_ms, 0.99),
        ("writer_lag_p99_ms", &tally.lag_ms, 0.99),
    ] {
        if let Some(v) = percentile(samples, p) {
            extras.push(Metric::new(name, v, "ms"));
        }
    }
    extras.push(Metric::new(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    ));
    meta.extend(sample_meta(&tally));
    meta.push(("rechecked_keys", rechecked.to_string()));
    meta.push(("stale_after_grant", stale.to_string()));
    meta.push(("host_steal_pct", format!("{steal_pct:.2}")));
    Outcome {
        correct: tally.mismatches == 0 && stale == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        extras,
        meta,
    }
}

/// The traced run: half the window for a traced single-thread replay of
/// the request sequence (first, so it meets the cache state the set-up
/// left, as the end-to-end window does), then a quarter for the
/// workload's own load shape and a quarter for an untraced single-thread
/// replay of the same sequence. On `consent-churn` the two untraced
/// phases therefore meet keys the traced phase already generated.
fn traced(args: &Args, scale: Scale) -> Outcome {
    let (env, _) = setup(args, scale, 1);
    let mut meta = base_meta(args, &env);
    let oracle = Oracle::compute(&env);
    let ctx = Ctx::new(&env, &oracle);
    let quarter = Duration::from_secs(args.seconds).div_f64(4.0);
    let mut tracer = Tracer::new(&env, &oracle);
    let (traced, _) = ctx.single_thread(2 * quarter, Some(&mut tracer));
    let (two, two_elapsed) = ctx.closed_loop(quarter);
    let (one, one_elapsed) = ctx.single_thread(quarter, None);
    let (rechecked, stale) = ctx.recheck_granted();

    let metrics = (|| {
        let lag = two.lag_ms.iter().sum::<f64>() / two.lag_ms.len().max(1) as f64;
        let mut metrics = tracer.metrics(lag);
        let qps_one = one.executes as f64 / one_elapsed.as_secs_f64();
        let qps_two = two.executes as f64 / two_elapsed.as_secs_f64();
        // Both replays start at the head of the same sequence, so their
        // common prefix of samples is the same requests, traced or not.
        let common = one.query_ms.len().min(traced.query_ms.len());
        let untraced_p50 = pct(
            &one.query_ms[..common],
            0.5,
            "untraced single-thread query latency",
        )?;
        let traced_p50 = pct(&traced.query_ms[..common], 0.5, "traced query latency")?;
        metrics.push(Metric::new("load.qps_1thread", qps_one, "1/s"));
        metrics.push(Metric::new("load.qps_2threads", qps_two, "1/s"));
        metrics.push(Metric::new("load.scaling_2v1", qps_two / qps_one, "ratio"));
        metrics.push(Metric::new(
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
        ));
        if let Some(path) = &args.spans {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
            std::fs::write(path, tracer.spans_jsonl(args.workload))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        Ok(metrics)
    })();
    drop(tracer);
    drop(ctx);
    env.shutdown();

    let mut all = Tally::default();
    for (phase, t) in [
        ("traced", traced),
        ("untraced_own_shape", two),
        ("untraced_1thread", one),
    ] {
        meta.push((
            phase,
            format!(
                "{{\"sessions\": {}, \"executes\": {}}}",
                t.sessions, t.executes
            ),
        ));
        all.attempted += t.attempted;
        all.failed += t.failed;
        all.mismatches += t.mismatches;
    }
    meta.push(("rechecked_keys", rechecked.to_string()));
    meta.push(("stale_after_grant", stale.to_string()));
    Outcome {
        correct: all.mismatches == 0 && stale == 0,
        attempted: all.attempted,
        failed: all.failed,
        metrics,
        extras: vec![Metric::new(
            "error_rate",
            all.failed as f64 / all.attempted.max(1) as f64,
            "ratio",
        )],
        meta,
    }
}

fn base_meta(args: &Args, env: &Env) -> Vec<(&'static str, String)> {
    let rows = env
        .service
        .db()
        .table(sieve_workload::WIFI_TABLE)
        .map(|t| t.table.len())
        .unwrap_or(0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", quote(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("available_parallelism", cores.to_string()),
        ("git_commit", quote(&git_commit())),
        ("rows", rows.to_string()),
        ("policies", env.service.policy_count().to_string()),
        ("devices", env.dataset.devices.len().to_string()),
        ("keys", env.plan.keys.len().to_string()),
        (
            "distinct_requests",
            env.plan.used_requests().len().to_string(),
        ),
        (
            "load_threads",
            (env.plan.clients.len() + usize::from(!env.plan.writes.is_empty())).to_string(),
        ),
    ]
}

fn sample_meta(t: &Tally) -> Vec<(&'static str, String)> {
    vec![
        ("sessions", t.sessions.to_string()),
        ("executes", t.executes.to_string()),
        ("query_samples", t.query_ms.len().to_string()),
        ("first_query_samples", t.first_ms.len().to_string()),
        ("write_samples", t.write_ms.len().to_string()),
        ("skipped_written", t.skipped.to_string()),
        ("mismatches", t.mismatches.to_string()),
    ]
}

/// The commit of the checkout, read from `.git` in the working directory
/// (a source tree without one reports `unknown`).
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host's `cpu` line of `/proc/stat`: ticks spent in each state,
/// all CPUs together (`None` where unreadable).
fn host_cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect()
}

/// Share of CPU time the hypervisor gave to other guests between two
/// readings (the eighth `/proc/stat` state, `steal`): interference the
/// run's wall-clock numbers include.
fn steal_share(before: Option<Vec<u64>>, after: Option<Vec<u64>>) -> f64 {
    let (Some(b), Some(a)) = (before, after) else {
        return 0.0;
    };
    let delta: Vec<u64> = a
        .iter()
        .zip(&b)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    match delta.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        scale: 0.005,
        days: 30,
    };

    fn args(workload: Workload) -> Args {
        Args {
            workload,
            seed: 11,
            seconds: 1,
            trace: false,
            spans: None,
        }
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let argv = [
            "--workload",
            "consent-churn",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let a = parse_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.workload, Workload::ConsentChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10, true));
        assert!(parse_args(["--workload", "nope"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--seed", "1"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn clean_run_is_correct() {
        let o = end_to_end(&args(Workload::SelectiveWarm), TINY, |_, _| {});
        assert!(o.correct);
        assert_eq!(o.failed, 0);
    }

    /// Metric names a section of `BENCHMARK.json` declares, in order.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let body = &text[text
            .find(&format!("\"{section}\""))
            .expect("section present")..];
        body[..body.find(']').expect("section closes")]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn names(metrics: Result<Vec<Metric>, String>) -> Vec<String> {
        metrics
            .expect("run measures")
            .into_iter()
            .map(|m| m.name)
            .collect()
    }

    #[test]
    fn runs_report_exactly_the_declared_metrics() {
        let churn = end_to_end(&args(Workload::ConsentChurn), TINY, |_, _| {});
        assert!(churn.correct);
        let rechecked = churn
            .meta
            .iter()
            .find(|(k, _)| *k == "rechecked_keys")
            .expect("re-check count");
        assert_ne!(
            rechecked.1, "0",
            "the writer granted and the grants were re-checked"
        );
        assert_eq!(names(churn.metrics), declared("end_to_end"));
        let mut a = args(Workload::AnalyticsScan);
        a.trace = true;
        a.seconds = 2;
        let traced = traced(&a, TINY);
        assert!(traced.correct);
        assert_eq!(names(traced.metrics), declared("per_layer"));
    }

    #[test]
    fn corrupted_oracle_row_fails_the_run() {
        let o = end_to_end(&args(Workload::SelectiveWarm), TINY, |env, oracle| {
            // The first session of the first reader always runs.
            let rows = &mut oracle.answer_mut(env.plan.clients[0][0]).rows;
            match rows.first_mut() {
                Some(row) => row[0] = minidb::Value::Int(-1),
                None => rows.push(vec![minidb::Value::Int(-1)]),
            }
        });
        assert!(!o.correct);
    }
}
