//! Load generation through the real request path: every read is a remote
//! session (`connect` → handshake and auth → `prepare_sql` → `execute` ×
//! k → close) over the loopback transport; the `consent-churn` writer
//! calls `SieveService::add_policy` in-process because the wire protocol
//! has no write verb. Every answer is checked against the oracle.

use crate::env::Env;
use crate::gen::{EXECUTES_PER_SESSION, GRANT_DAYS};
use crate::oracle::{baseline_p, sorted, Oracle};
use crate::trace::Tracer;
use minidb::sql::render_query;
use minidb::{ColumnRef, Expr, SelectQuery, TableRef, Value};
use sieve_client::ClientError;
use sieve_core::policy::{CondPredicate, ObjectCondition, Policy, QuerierSpec};
use sieve_workload::WIFI_TABLE;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one load thread (or a whole phase, once merged) observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// `prepare_sql` plus the first `execute` of each session, ms.
    pub first_ms: Vec<f64>,
    /// Every later `execute` of a session, ms.
    pub query_ms: Vec<f64>,
    /// Completed `execute` calls.
    pub executes: u64,
    /// Sessions started.
    pub sessions: u64,
    /// Operations attempted: connects, prepares, executes, closes, writes.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Answers that differ from the oracle.
    pub mismatches: u64,
    /// Answers not checked in-window because their key was written.
    pub skipped: u64,
    /// Policy writes, from scheduled send time to return, ms.
    pub write_ms: Vec<f64>,
    /// How late each write started against its schedule, ms.
    pub lag_ms: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.first_ms.extend(other.first_ms);
        self.query_ms.extend(other.query_ms);
        self.executes += other.executes;
        self.sessions += other.sessions;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.skipped += other.skipped;
        self.write_ms.extend(other.write_ms);
        self.lag_ms.extend(other.lag_ms);
    }

    fn fail(&mut self, what: &str, e: &ClientError) {
        if self.failed == 0 {
            eprintln!("perfbench: {what} failed: {e}");
        }
        self.failed += 1;
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A run's shared state: the system, its answer key, and which keys the
/// writer has granted to (their answers changed, so they are re-checked
/// after the window instead).
pub struct Ctx<'a> {
    env: &'a Env,
    oracle: &'a Oracle,
    written: Vec<AtomicBool>,
    granted: Mutex<Vec<usize>>,
}

impl<'a> Ctx<'a> {
    /// Fresh context: nothing written yet.
    pub fn new(env: &'a Env, oracle: &'a Oracle) -> Self {
        Ctx {
            env,
            oracle,
            written: env
                .plan
                .keys
                .iter()
                .map(|_| AtomicBool::new(false))
                .collect(),
            granted: Mutex::new(Vec::new()),
        }
    }

    /// One remote session for pool entry `r`. Stops issuing executes at
    /// `deadline` (the session still closes).
    pub fn session(
        &self,
        r: usize,
        deadline: Instant,
        tally: &mut Tally,
        mut tracer: Option<&mut Tracer>,
    ) {
        let env = self.env;
        let req = &env.plan.pool[r];
        let qm = env.qm(req.key);
        let sql = env.sql(r);
        if let Some(t) = tracer.as_deref_mut() {
            t.begin_session(r);
        }
        tally.sessions += 1;
        tally.attempted += 1;
        let t0 = Instant::now();
        let conn = match env.connect(qm.querier) {
            Ok(c) => c,
            Err(e) => return tally.fail("connect", &e),
        };
        if let Some(t) = tracer.as_deref_mut() {
            t.connect(t0, Instant::now());
            t.before_remote();
        }
        let session = conn.session(qm);
        tally.attempted += 1;
        let p0 = Instant::now();
        let prepared = match session.prepare_sql(sql) {
            Ok(p) => p,
            Err(e) => {
                tally.fail("prepare", &e);
                let _ = conn.close();
                return;
            }
        };
        if let Some(t) = tracer.as_deref_mut() {
            t.prepare(p0, Instant::now(), prepared.statement());
        }
        for j in 0..EXECUTES_PER_SESSION {
            if j > 0 && Instant::now() >= deadline {
                break;
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.before_remote();
            }
            tally.attempted += 1;
            let s = Instant::now();
            let res = match prepared.execute() {
                Ok(res) => res,
                Err(e) => {
                    tally.fail("execute", &e);
                    break;
                }
            };
            let e = Instant::now();
            if j == 0 {
                tally.first_ms.push(ms(e - p0));
            } else {
                tally.query_ms.push(ms(e - s));
            }
            tally.executes += 1;
            if let Some(t) = tracer.as_deref_mut() {
                t.execute(s, e, prepared.statement(), &res);
            }
            let v0 = Instant::now();
            if self.written[req.key].load(Ordering::SeqCst) {
                tally.skipped += 1;
            } else if !self.oracle.matches(r, res) {
                if tally.mismatches == 0 {
                    eprintln!(
                        "perfbench: answer to `{sql}` for {:?} differs from Baseline P",
                        env.qm(req.key)
                    );
                }
                tally.mismatches += 1;
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.bench_work(v0.elapsed());
            }
        }
        tally.attempted += 1;
        let c0 = Instant::now();
        let closed = prepared.close().and_then(|()| conn.close());
        if let Some(t) = tracer.as_deref_mut() {
            t.close(c0, Instant::now());
        }
        if let Err(e) = closed {
            tally.fail("close", &e);
        }
        if let Some(t) = tracer {
            t.end_session();
        }
    }

    /// Issue write `w` of the plan: a grant to its key, timed from its
    /// scheduled send time `start + due`. Sleeps until then if early.
    pub fn write(&self, w: usize, start: Instant, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        let env = self.env;
        let write = &env.plan.writes[w];
        let due = start + write.due;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        // Marked before the write begins: an answer read after this point
        // may already reflect the grant, one read before it cannot.
        self.written[write.key].store(true, Ordering::SeqCst);
        let key = &env.plan.keys[write.key];
        let shared_days = ObjectCondition::new(
            "ts_date",
            CondPredicate::between(
                Value::Date(write.first_day),
                Value::Date(write.first_day + GRANT_DAYS - 1),
            ),
        );
        let grant = Policy::new(
            write.owner,
            WIFI_TABLE,
            QuerierSpec::User(key.querier),
            key.purpose,
            vec![shared_days],
        );
        let before = tracer.as_ref().map(|_| env.service.cache_stats());
        tally.attempted += 1;
        let s = Instant::now();
        let res = env.service.add_policy(grant);
        let e = Instant::now();
        tally.write_ms.push(ms(e - due));
        tally.lag_ms.push(ms(s.saturating_duration_since(due)));
        if let (Some(t), Some(before)) = (tracer, before) {
            t.write(s, e, before);
        }
        match res {
            Ok(_) => self
                .granted
                .lock()
                .expect("grant log lock poisoned")
                .push(w),
            Err(e) => {
                if tally.failed == 0 {
                    eprintln!("perfbench: add_policy failed: {e}");
                }
                tally.failed += 1;
            }
        }
    }

    /// The workload's own load shape for `window`: one closed-loop thread
    /// per reader plus, when the plan writes, one open-loop writer thread.
    /// Returns the merged tally and the window's measured length.
    pub fn closed_loop(&self, window: Duration) -> (Tally, Duration) {
        let plan = &self.env.plan;
        let start = Instant::now();
        let deadline = start + window;
        let mut total = Tally::default();
        std::thread::scope(|s| {
            let readers: Vec<_> = plan
                .clients
                .iter()
                .map(|seq| {
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        for &r in seq.iter().cycle() {
                            if Instant::now() >= deadline {
                                break;
                            }
                            self.session(r, deadline, &mut tally, None);
                        }
                        tally
                    })
                })
                .collect();
            let writer = (!plan.writes.is_empty()).then(|| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    for (w, write) in plan.writes.iter().enumerate() {
                        if start + write.due >= deadline {
                            break;
                        }
                        self.write(w, start, &mut tally, None);
                    }
                    tally
                })
            });
            for h in readers.into_iter().chain(writer) {
                total.merge(h.join().expect("load thread panicked"));
            }
        });
        (total, start.elapsed())
    }

    /// The readers' sessions replayed from this one thread for `window`,
    /// with due writes issued between sessions. With a tracer, every call
    /// is decomposed into layers.
    pub fn single_thread(
        &self,
        window: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> (Tally, Duration) {
        let plan = &self.env.plan;
        let seq = plan.interleaved();
        let start = Instant::now();
        let deadline = start + window;
        let mut tally = Tally::default();
        let mut next_write = 0;
        for &r in seq.iter().cycle() {
            if Instant::now() >= deadline {
                break;
            }
            while let Some(write) = plan.writes.get(next_write) {
                if start + write.due > Instant::now().min(deadline) {
                    break;
                }
                self.write(next_write, start, &mut tally, tracer.as_deref_mut());
                next_write += 1;
            }
            self.session(r, deadline, &mut tally, tracer.as_deref_mut());
        }
        (tally, start.elapsed())
    }

    /// After the window: ask every key the writer granted to for the rows
    /// each grant shares, remotely through SIEVE and under Baseline P at
    /// the final policy state. A guard that went stale after `add_policy`
    /// returns fewer rows. Returns (keys checked, mismatches); a key that
    /// cannot be asked counts as a mismatch.
    pub fn recheck_granted(&self) -> (usize, u64) {
        let env = self.env;
        let mut grants: BTreeMap<usize, BTreeSet<(i64, i32)>> = BTreeMap::new();
        for &w in self.granted.lock().expect("grant log lock poisoned").iter() {
            let write = &env.plan.writes[w];
            grants
                .entry(write.key)
                .or_default()
                .insert((write.owner, write.first_day));
        }
        let mismatches = grants
            .iter()
            .filter(|(&key, shared)| !self.granted_rows_match(key, shared))
            .count();
        (grants.len(), mismatches as u64)
    }

    fn granted_rows_match(&self, key: usize, shared: &BTreeSet<(i64, i32)>) -> bool {
        let env = self.env;
        let column = |name: &str| Expr::Column(ColumnRef::qualified("w", name));
        let predicate = Expr::any(
            shared
                .iter()
                .map(|&(owner, first_day)| {
                    Expr::all(vec![
                        Expr::col_eq(ColumnRef::qualified("w", "owner"), Value::Int(owner)),
                        Expr::Between {
                            expr: Box::new(column("ts_date")),
                            low: Box::new(Expr::Literal(Value::Date(first_day))),
                            high: Box::new(Expr::Literal(Value::Date(first_day + GRANT_DAYS - 1))),
                            negated: false,
                        },
                    ])
                })
                .collect(),
        );
        let mut query = SelectQuery::star_from(WIFI_TABLE);
        query.from = vec![TableRef::aliased(WIFI_TABLE, "w")];
        query.predicate = Some(predicate);
        let sql = render_query(&query);
        let qm = env.qm(key);
        let remote = env.connect(qm.querier).and_then(|conn| {
            let rows = conn.session(qm.clone()).execute_sql(&sql);
            conn.close().and(rows)
        });
        let expected = baseline_p(&env.service, &query, &qm).rows;
        match remote.map(sorted) {
            Ok(rows) if rows == expected => true,
            Ok(_) => {
                eprintln!("perfbench: stale answer to `{sql}` after grants for {qm:?}");
                false
            }
            Err(e) => {
                eprintln!("perfbench: re-check for {qm:?} failed: {e}");
                false
            }
        }
    }
}
