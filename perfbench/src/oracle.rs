//! The independent answer key: every request's rows under Baseline P
//! (the policy DNF appended to the query's WHERE clause), which
//! `tests/baseline_equivalence.rs` pins as result-equivalent to SIEVE's
//! guarded rewrite. Guard generation, the guard cache and the rewrite are
//! not on this path, so a wrong guard shows up as a mismatch.

use crate::env::Env;
use minidb::{QueryResult, Row, SelectQuery};
use sieve_core::baselines::Baseline;
use sieve_core::middleware::Enforcement;
use sieve_core::policy::QueryMetadata;
use sieve_core::SieveService;

/// One request's expected answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Sorted row multiset.
    pub rows: Vec<Row>,
    /// Tuples Baseline P read to produce it.
    pub tuples_read: u64,
}

/// Expected answers per plan pool entry (`None` where no session asks).
#[derive(Debug, Clone)]
pub struct Oracle {
    answers: Vec<Option<Answer>>,
}

impl Oracle {
    /// Compute the answer of every request some session uses, against the
    /// policy state before the window.
    pub fn compute(env: &Env) -> Oracle {
        let mut answers = vec![None; env.plan.pool.len()];
        for r in env.plan.used_requests() {
            let query = minidb::sql::parse(env.sql(r)).expect("generated SQL parses");
            let qm = env.qm(env.plan.pool[r].key);
            answers[r] = Some(baseline_p(&env.service, &query, &qm));
        }
        Oracle { answers }
    }

    /// The expected answer of pool entry `r`.
    pub fn answer(&self, r: usize) -> &Answer {
        self.answers[r]
            .as_ref()
            .expect("an answer exists for every used request")
    }

    /// Mutable access for tests that corrupt the answer key.
    #[cfg(test)]
    pub fn answer_mut(&mut self, r: usize) -> &mut Answer {
        self.answers[r]
            .as_mut()
            .expect("an answer exists for every used request")
    }

    /// True iff `result` holds exactly the expected rows of entry `r`.
    pub fn matches(&self, r: usize, result: QueryResult) -> bool {
        sorted(result) == self.answer(r).rows
    }
}

/// Run `query` for `qm` under Baseline P. Runs single-threaded: timed
/// execution shares the engine's statistics sink.
pub fn baseline_p(service: &SieveService, query: &SelectQuery, qm: &QueryMetadata) -> Answer {
    let (res, stats) = service.run_timed(Enforcement::Baseline(Baseline::P), query, qm);
    Answer {
        rows: sorted(res.expect("Baseline P executes every generated query")),
        tuples_read: stats.counters.tuples_read,
    }
}

/// A result's rows as a sorted multiset.
pub fn sorted(result: QueryResult) -> Vec<Row> {
    let mut rows = result.rows;
    rows.sort();
    rows
}
