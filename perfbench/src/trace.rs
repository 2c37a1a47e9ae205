//! Per-layer attribution for the traced run.
//!
//! The program carries no spans of its own yet, so every span is taken
//! here, around calls into each module's public functions. A remote call
//! is the root span of its request; after it returns, the same work is
//! decomposed by calling each lower layer directly:
//!
//! * `protocol.encode` / `protocol.decode` — the `codec`/`frame`
//!   functions on the actual request and reply of the call;
//! * `session.prepare` (with child `rewrite`) and `session.execute` (with
//!   child `backend.exec`, `SqlBackend::exec_timed` of the rewritten
//!   query) — the in-process `Session`/`Prepared` of the same querier and
//!   SQL;
//! * `filter` and `guard.generate` — the stateless
//!   `filter::relevant_policies` and `guard::generate_guarded_expression`,
//!   only for calls that generated a guard.
//!
//! A span's self time is its duration minus its children's; what is left
//! of a remote call is the server's own overhead (dispatch, session
//! registry, freshness check, framing I/O). Calls that change cache state
//! run after the remote call they decompose, and guard-cache and recovery
//! counters are read only around remote calls and writes, so the
//! decomposition does not count itself. Minidb's statistics sink is
//! shared by every execution, which is why tracing replays from one
//! thread.

use crate::env::Env;
use crate::gen::Workload;
use crate::load::ms;
use crate::oracle::Oracle;
use crate::report::Metric;
use minidb::{AccessPlan, Database, ExecOptions, ExplainOutput, QueryResult};
use sieve_core::cache::GuardCacheStats;
use sieve_core::filter::relevant_policies;
use sieve_core::guard::generate_guarded_expression;
use sieve_core::policy::Policy;
use sieve_core::rewrite::RewriteOutput;
use sieve_core::service::RecoveryStats;
use sieve_core::{Prepared, SqlBackend};
use sieve_protocol::frame::{read_frame, write_frame};
use sieve_protocol::message::{ClientMessage, ServerMessage, WireStatementId};
use sieve_workload::query_gen::QueryClass;
use sieve_workload::WIFI_TABLE;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    /// Layer boundary the call crossed.
    name: &'static str,
    /// The session (request) it belongs to.
    request: u64,
    /// Index of the span it decomposes.
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Engine work per query class, summed over traced executes.
#[derive(Debug, Default, Clone, Copy)]
struct ClassTotals {
    executes: u64,
    tuples_read: u64,
    exec_ms: f64,
    baseline_tuples_read: u64,
}

/// Records spans and counters of a single-threaded replay.
pub struct Tracer<'a> {
    env: &'a Env,
    oracle: &'a Oracle,
    exec_opts: ExecOptions,
    origin: Instant,
    spans: Vec<Span>,
    request: u64,
    pool_entry: usize,
    session_start: Instant,
    bench: Duration,
    local: Option<(Prepared, RewriteOutput)>,
    cache_before: GuardCacheStats,
    recovery_before: RecoveryStats,
    server_requests_start: u64,
    server_requests: u64,
    cache: GuardCacheStats,
    recovery: RecoveryStats,
    counts: BTreeMap<&'static str, f64>,
    classes: [ClassTotals; 3],
    access: [u64; 3],
    sessions: u64,
    e2e: Duration,
    writes: u64,
    write_ms: f64,
    write_invalidations: u64,
    mirror: Option<(u64, Vec<Policy>)>,
}

impl<'a> Tracer<'a> {
    /// A tracer over `env`'s service; counters start from now.
    pub fn new(env: &'a Env, oracle: &'a Oracle) -> Self {
        let opts = env.service.options();
        let now = Instant::now();
        Tracer {
            env,
            oracle,
            exec_opts: ExecOptions {
                timeout: opts.timeout,
                threads: opts.exec_threads,
            },
            origin: now,
            spans: Vec::new(),
            request: 0,
            pool_entry: 0,
            session_start: now,
            bench: Duration::ZERO,
            local: None,
            cache_before: GuardCacheStats::default(),
            recovery_before: RecoveryStats::default(),
            server_requests_start: 0,
            server_requests: 0,
            cache: GuardCacheStats::default(),
            recovery: RecoveryStats::default(),
            counts: BTreeMap::new(),
            classes: [ClassTotals::default(); 3],
            access: [0; 3],
            sessions: 0,
            e2e: Duration::ZERO,
            writes: 0,
            write_ms: 0.0,
            write_invalidations: 0,
            mirror: None,
        }
    }

    fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Time spent on benchmark work (checking answers) inside a session.
    pub fn bench_work(&mut self, d: Duration) {
        self.bench += d;
    }

    /// A session for pool entry `r` starts.
    pub fn begin_session(&mut self, r: usize) {
        self.request += 1;
        self.pool_entry = r;
        self.bench = Duration::ZERO;
        self.server_requests_start = self.env.server_stats.requests.load(Ordering::SeqCst);
        self.session_start = Instant::now();
    }

    /// Connect plus handshake and auth.
    pub fn connect(&mut self, start: Instant, end: Instant) {
        self.span("client.connect", None, start, end);
    }

    /// Snapshot the counters a remote call may move.
    pub fn before_remote(&mut self) {
        let h = Instant::now();
        self.cache_before = self.env.service.cache_stats();
        self.recovery_before = self.env.service.recovery_stats();
        self.bench += h.elapsed();
    }

    /// Fold the counter movement of the remote call just made; returns the
    /// guard generations it caused.
    fn after_remote(&mut self) -> u64 {
        let cache = self.env.service.cache_stats();
        let recovery = self.env.service.recovery_stats();
        let generated = cache.generations() - self.cache_before.generations();
        add_cache_delta(&mut self.cache, &cache, &self.cache_before);
        self.recovery.retries += recovery.retries - self.recovery_before.retries;
        self.recovery.reprepares += recovery.reprepares - self.recovery_before.reprepares;
        self.recovery.exhausted += recovery.exhausted - self.recovery_before.exhausted;
        generated
    }

    /// Encode and decode the call's request and reply the way client and
    /// server do; returns the reply's frame length.
    fn codec(&mut self, parent: usize, request: &ClientMessage, reply: &ServerMessage) -> usize {
        let s = Instant::now();
        let mut request_frame = Vec::new();
        let mut reply_frame = Vec::new();
        write_frame(&mut request_frame, &request.encode()).expect("request frame encodes");
        write_frame(&mut reply_frame, &reply.encode()).expect("reply frame encodes");
        let e = Instant::now();
        black_box(ClientMessage::decode(
            &read_frame(&mut &request_frame[..]).expect("request frame"),
        ))
        .expect("request decodes");
        black_box(ServerMessage::decode(
            &read_frame(&mut &reply_frame[..]).expect("reply frame"),
        ))
        .expect("reply decodes");
        let d = Instant::now();
        self.span("protocol.encode", Some(parent), s, e);
        self.span("protocol.decode", Some(parent), e, d);
        reply_frame.len()
    }

    /// The remote `prepare_sql` returned `statement`.
    pub fn prepare(&mut self, start: Instant, end: Instant, statement: WireStatementId) {
        let h = Instant::now();
        let generated = self.after_remote();
        let env = self.env;
        let req = &env.plan.pool[self.pool_entry];
        let qm = env.qm(req.key);
        let sql = env.sql(self.pool_entry);
        let root = self.span("client.prepare", None, start, end);
        self.codec(
            root,
            &ClientMessage::Prepare {
                metadata: qm.clone(),
                sql: sql.to_string(),
            },
            &ServerMessage::Prepared { statement },
        );
        let s = Instant::now();
        let local = env
            .service
            .session(qm.clone())
            .prepare_sql(sql)
            .expect("in-process prepare");
        let e = Instant::now();
        let prep = self.span("session.prepare", Some(root), s, e);
        let query = minidb::sql::parse(sql).expect("generated SQL parses");
        let s = Instant::now();
        let rewritten = env
            .service
            .rewrite(&query, &qm)
            .expect("in-process rewrite");
        let e = Instant::now();
        self.span("rewrite", Some(prep), s, e);
        if generated > 0 {
            let revision = env.service.revision();
            if self.mirror.as_ref().map(|(r, _)| *r) != Some(revision) {
                self.mirror = Some((revision, env.service.policies()));
            }
            let policies = &self.mirror.as_ref().expect("mirror just refreshed").1;
            let groups = env.service.groups();
            let s = Instant::now();
            let relevant = relevant_policies(policies.iter(), WIFI_TABLE, &qm, &groups);
            let f = Instant::now();
            let db = env.service.db();
            let entry = db.table(WIFI_TABLE).expect("wifi relation exists");
            let cost = env.service.cost_model();
            let strategy = env.service.options().selection;
            let g0 = Instant::now();
            let ge = generate_guarded_expression(
                &relevant,
                entry,
                &cost,
                strategy,
                qm.querier,
                &qm.purpose,
                WIFI_TABLE,
            );
            let g = Instant::now();
            let (n_relevant, n_guards) = (relevant.len(), ge.guards.len());
            drop((db, groups));
            self.span("filter", Some(root), s, f);
            self.span("guard.generate", Some(root), g0, g);
            self.count("filter.relevant_policies", n_relevant as f64);
            self.count("guard.guards", n_guards as f64);
        }
        let db = env.service.db();
        let explain = db
            .explain_opts(&rewritten.query, &self.exec_opts)
            .expect("rewritten query explains");
        tally_access(&db, &explain, &mut self.access);
        drop(db);
        self.local = Some((local, rewritten));
        self.bench += h.elapsed();
    }

    /// A remote `execute` of `statement` returned `result`.
    pub fn execute(
        &mut self,
        start: Instant,
        end: Instant,
        statement: WireStatementId,
        result: &QueryResult,
    ) {
        let h = Instant::now();
        self.after_remote();
        let root = self.span("client.execute", None, start, end);
        let bytes = self.codec(
            root,
            &ClientMessage::ExecutePrepared { statement },
            &ServerMessage::Rows(result.clone()),
        );
        self.count("protocol.result_bytes", bytes as f64);
        let (local, rewritten) = self.local.take().expect("execute follows prepare");
        let s = Instant::now();
        black_box(local.execute().expect("in-process execute"));
        let e = Instant::now();
        let sess = self.span("session.execute", Some(root), s, e);
        let s = Instant::now();
        let (res, stats) = self
            .env
            .service
            .backend()
            .exec_timed(&rewritten.query, &self.exec_opts);
        let e = Instant::now();
        black_box(res.expect("backend executes the rewritten query"));
        self.span("backend.exec", Some(sess), s, e);
        self.local = Some((local, rewritten));
        let c = stats.counters;
        for (name, n) in [
            ("exec.tuples_read", c.tuples_read),
            ("exec.predicate_evals", c.predicate_evals),
            ("exec.policy_evals", c.policy_evals),
            ("exec.index_probes", c.index_probes),
            ("exec.udf_invocations", c.udf_invocations),
            ("exec.tuples_output", c.tuples_output),
        ] {
            self.count(name, n as f64);
        }
        let class = self.env.plan.pool[self.pool_entry].class;
        let totals = &mut self.classes[class_index(class)];
        totals.executes += 1;
        totals.tuples_read += c.tuples_read;
        totals.exec_ms += ms(e - s);
        totals.baseline_tuples_read += self.oracle.answer(self.pool_entry).tuples_read;
        self.bench += h.elapsed();
    }

    /// Closing the statement and the connection.
    pub fn close(&mut self, start: Instant, end: Instant) {
        self.span("client.close", None, start, end);
        self.local = None;
    }

    /// The session ended.
    pub fn end_session(&mut self) {
        self.e2e += self.session_start.elapsed().saturating_sub(self.bench);
        self.server_requests +=
            self.env.server_stats.requests.load(Ordering::SeqCst) - self.server_requests_start;
        self.sessions += 1;
        let live = self.env.service.delta_len() as f64;
        self.count("delta.partitions", live);
    }

    /// A policy write ran from `start` to `end`; `before` is the
    /// guard-cache snapshot taken just before it.
    pub fn write(&mut self, start: Instant, end: Instant, before: GuardCacheStats) {
        let after = self.env.service.cache_stats();
        self.write_invalidations += after.invalidations - before.invalidations;
        add_cache_delta(&mut self.cache, &after, &before);
        self.writes += 1;
        self.write_ms += ms(end - start);
    }

    /// Self time per span name, summed over all spans.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            *out.entry(s.name).or_default() += ms(s.duration().saturating_sub(kids));
        }
        out
    }

    /// The per-layer metrics of the traced replay, each a mean per
    /// session unless it is a ratio or named per execute / per write.
    /// `writer_lag_ms` is the mean lateness of the workload's own writer
    /// thread, measured untraced: a single-thread replay can only issue
    /// writes between sessions, so its own lateness says nothing about
    /// the writer.
    pub fn metrics(&self, writer_lag_ms: f64) -> Vec<Metric> {
        let n = self.sessions.max(1) as f64;
        let per = |v: f64| v / n;
        let self_ms = self.self_times();
        let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0.0);
        let mut m = vec![
            Metric::new("client.connect_ms", per(layer("client.connect")), "ms"),
            Metric::new("client.close_ms", per(layer("client.close")), "ms"),
            Metric::new(
                "server.overhead_ms",
                per(layer("client.prepare") + layer("client.execute")),
                "ms",
            ),
            Metric::new("server.requests", per(self.server_requests as f64), "count"),
            Metric::new("protocol.encode_ms", per(layer("protocol.encode")), "ms"),
            Metric::new("protocol.decode_ms", per(layer("protocol.decode")), "ms"),
            Metric::new(
                "protocol.result_bytes",
                per(count("protocol.result_bytes")),
                "bytes",
            ),
            Metric::new("session.prepare_ms", per(layer("session.prepare")), "ms"),
            Metric::new("session.execute_ms", per(layer("session.execute")), "ms"),
            Metric::new(
                "session.reprepares",
                per(self.recovery.reprepares as f64),
                "count",
            ),
            Metric::new("rewrite.ms", per(layer("rewrite")), "ms"),
            Metric::new("filter.ms", per(layer("filter")), "ms"),
            Metric::new(
                "filter.relevant_policies",
                per(count("filter.relevant_policies")),
                "count",
            ),
            Metric::new("guard.generate_ms", per(layer("guard.generate")), "ms"),
            Metric::new("guard.guards", per(count("guard.guards")), "count"),
            Metric::new("backend.exec_ms", per(layer("backend.exec")), "ms"),
        ];
        let c = &self.cache;
        let lookups = c.lookups();
        m.push(Metric::new(
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                c.hits as f64 / lookups as f64
            },
            "ratio",
        ));
        for (name, v) in [
            ("cache.misses", c.misses),
            ("cache.evictions", c.evictions),
            ("cache.invalidations", c.invalidations),
            ("cache.regenerations", c.regenerations),
            ("cache.coalesced", c.coalesced),
            ("cache.fragment_builds", c.fragment_builds),
        ] {
            m.push(Metric::new(name, per(v as f64), "count"));
        }
        let w = self.writes.max(1) as f64;
        m.push(Metric::new("writer.add_policy_ms", self.write_ms / w, "ms"));
        m.push(Metric::new("writer.lag_ms", writer_lag_ms, "ms"));
        m.push(Metric::new(
            "writer.invalidations_per_write",
            self.write_invalidations as f64 / w,
            "count",
        ));
        for name in [
            "exec.tuples_read",
            "exec.predicate_evals",
            "exec.policy_evals",
            "exec.index_probes",
            "exec.udf_invocations",
            "exec.tuples_output",
        ] {
            m.push(Metric::new(name, per(count(name)), "count"));
        }
        for class in QueryClass::ALL {
            let t = self.classes[class_index(class)];
            let e = t.executes.max(1) as f64;
            let q = class.name().to_lowercase();
            m.push(Metric::new(
                format!("exec.tuples_read.{q}"),
                t.tuples_read as f64 / e,
                "count",
            ));
            m.push(Metric::new(
                format!("backend.exec_ms.{q}"),
                t.exec_ms / e,
                "ms",
            ));
            m.push(Metric::new(
                format!("baseline_p.tuples_read.{q}"),
                t.baseline_tuples_read as f64 / e,
                "count",
            ));
        }
        let plans = self.access.iter().sum::<u64>().max(1) as f64;
        m.push(Metric::new(
            "planner.seq_scan_share",
            self.access[0] as f64 / plans,
            "ratio",
        ));
        m.push(Metric::new(
            "planner.index_share",
            self.access[1] as f64 / plans,
            "ratio",
        ));
        m.push(Metric::new(
            "planner.parallel_share",
            self.access[2] as f64 / plans,
            "ratio",
        ));
        m.push(Metric::new(
            "delta.partitions",
            per(count("delta.partitions")),
            "count",
        ));
        m.push(Metric::new(
            "recovery.retries",
            per(self.recovery.retries as f64),
            "count",
        ));
        m.push(Metric::new(
            "recovery.exhausted",
            per(self.recovery.exhausted as f64),
            "count",
        ));
        let e2e = per(ms(self.e2e));
        m.push(Metric::new("trace.e2e_ms", e2e, "ms"));
        m.push(Metric::new(
            "trace.unattributed_ms",
            e2e - per(self_ms.values().sum()),
            "ms",
        ));
        m.push(Metric::new("trace.sessions", self.sessions as f64, "count"));
        m
    }

    /// The spans as JSON lines (times in µs from the tracer's creation).
    pub fn spans_jsonl(&self, workload: Workload) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{}\",\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                workload.name(),
                s.name,
                s.request,
                us(s.start),
                us(s.end)
            );
        }
        out
    }
}

fn class_index(class: QueryClass) -> usize {
    match class {
        QueryClass::Q1 => 0,
        QueryClass::Q2 => 1,
        QueryClass::Q3 => 2,
    }
}

fn add_cache_delta(acc: &mut GuardCacheStats, after: &GuardCacheStats, before: &GuardCacheStats) {
    acc.hits += after.hits - before.hits;
    acc.misses += after.misses - before.misses;
    acc.regenerations += after.regenerations - before.regenerations;
    acc.invalidations += after.invalidations - before.invalidations;
    acc.evictions += after.evictions - before.evictions;
    acc.fragment_builds += after.fragment_builds - before.fragment_builds;
    acc.fragment_hits += after.fragment_hits - before.fragment_hits;
    acc.coalesced += after.coalesced - before.coalesced;
}

/// Count the access paths of every base-table read in an EXPLAIN, CTEs
/// included, as `[sequential, index, parallel]`. Reads of CTE and derived
/// relations are always sequential and say nothing about the planner.
fn tally_access(db: &Database, explain: &ExplainOutput, access: &mut [u64; 3]) {
    for r in explain
        .relations
        .iter()
        .filter(|r| db.table(&r.table).is_ok())
    {
        match r.access {
            AccessPlan::SeqScan => access[0] += 1,
            AccessPlan::IndexOr { .. } => access[1] += 1,
            AccessPlan::ParallelScan { .. } => access[2] += 1,
        }
    }
    for (_, cte) in &explain.ctes {
        tally_access(db, cte, access);
    }
}
