//! Execution statistics and the simulated cost clock.
//!
//! The paper's cost model (Section 4, Equation 3) is expressed in terms of
//! `c_r` (cost of reading a tuple from disk), `c_e` (cost of evaluating a
//! tuple against one policy's object conditions) and UDF invocation/execution
//! costs. Wall-clock time on a laptop is noisy and hardware-specific, so in
//! addition to real timing the engine maintains a *deterministic simulated
//! cost counter*: every page read, tuple scan, predicate evaluation and UDF
//! invocation bumps the counters below. Benchmarks report both clocks; the
//! shape comparisons in EXPERIMENTS.md use the simulated clock where
//! determinism matters and wall time elsewhere.
//!
//! Counters are per query: every execution records into a
//! [`CounterBlock`] of its own and [`crate::Database::run_timed`] returns
//! exactly that query's counts, however many queries run concurrently.
//! Nothing is aggregated across queries.

use std::cell::Cell;

/// Cost-unit weights for the simulated clock. One unit ~ one in-memory
/// predicate evaluation. Defaults follow the calibration in
/// `sieve_core::cost` (a random page read is far more expensive than an
/// evaluation; a UDF invocation costs a fixed overhead plus per-policy work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Cost of reading one page sequentially.
    pub seq_page: f64,
    /// Cost of reading one page at random (index traversal).
    pub rand_page: f64,
    /// Cost of materializing one tuple out of a page.
    pub tuple_read: f64,
    /// Cost of one simple predicate evaluation against a tuple.
    pub predicate_eval: f64,
    /// Fixed cost of invoking a UDF once (the paper's `UDF_inv`).
    pub udf_invoke: f64,
    /// Cost of one index probe (B-tree descent).
    pub index_probe: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Ratios chosen to mirror a buffer-pooled RDBMS: random I/O is ~4x
        // sequential, a page holds many tuples, and a UDF invocation costs
        // a few hundred predicate evaluations (interpreter entry, argument
        // marshalling and cursor setup — the overhead the paper's
        // Experiment 2.1 found amortized only beyond ~120 policies per
        // partition).
        CostWeights {
            seq_page: 50.0,
            rand_page: 200.0,
            tuple_read: 1.0,
            predicate_eval: 1.0,
            udf_invoke: 250.0,
            index_probe: 20.0,
        }
    }
}

/// Raw event counters accumulated during one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Pages read sequentially (table scans).
    pub seq_pages_read: u64,
    /// Pages read via index lookups (random access).
    pub rand_pages_read: u64,
    /// Tuples materialized out of storage.
    pub tuples_read: u64,
    /// Simple predicate evaluations (each comparison counts once).
    pub predicate_evals: u64,
    /// Policy object-condition-set evaluations (one per policy per tuple).
    pub policy_evals: u64,
    /// UDF invocations.
    pub udf_invocations: u64,
    /// Index probes (point or range descents).
    pub index_probes: u64,
    /// Tuples emitted by the root operator.
    pub tuples_output: u64,
}

impl Counters {
    /// Simulated cost of these events under `w`.
    pub fn simulated_cost(&self, w: &CostWeights) -> f64 {
        self.seq_pages_read as f64 * w.seq_page
            + self.rand_pages_read as f64 * w.rand_page
            + self.tuples_read as f64 * w.tuple_read
            + self.predicate_evals as f64 * w.predicate_eval
            + self.udf_invocations as f64 * w.udf_invoke
            + self.index_probes as f64 * w.index_probe
    }

    /// Element-wise sum of two counter sets.
    pub fn merge(&mut self, other: &Counters) {
        self.seq_pages_read += other.seq_pages_read;
        self.rand_pages_read += other.rand_pages_read;
        self.tuples_read += other.tuples_read;
        self.predicate_evals += other.predicate_evals;
        self.policy_evals += other.policy_evals;
        self.udf_invocations += other.udf_invocations;
        self.index_probes += other.index_probes;
        self.tuples_output += other.tuples_output;
    }
}

/// One query's event counters, owned by the executor that runs it.
///
/// Plain [`Cell`]s: a block is `!Sync`, so it is never shared between
/// threads and recording an event is an ordinary add on a cache line only
/// this query touches — no atomic read-modify-write on the per-row path.
/// Nested subqueries and UDF calls borrow their query's block; each
/// morsel-parallel scan worker records into a block of its own, which the
/// executor [`CounterBlock::add`]s back once after the join.
#[derive(Debug, Default)]
pub struct CounterBlock {
    seq_pages_read: Cell<u64>,
    rand_pages_read: Cell<u64>,
    tuples_read: Cell<u64>,
    predicate_evals: Cell<u64>,
    policy_evals: Cell<u64>,
    udf_invocations: Cell<u64>,
    index_probes: Cell<u64>,
    tuples_output: Cell<u64>,
}

#[inline]
fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get() + n);
}

impl CounterBlock {
    /// Fresh block with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` sequentially-read pages.
    #[inline]
    pub fn seq_pages(&self, n: u64) {
        bump(&self.seq_pages_read, n);
    }

    /// Record `n` randomly-read pages.
    #[inline]
    pub fn rand_pages(&self, n: u64) {
        bump(&self.rand_pages_read, n);
    }

    /// Record `n` tuples materialized.
    #[inline]
    pub fn tuples(&self, n: u64) {
        bump(&self.tuples_read, n);
    }

    /// Record `n` predicate evaluations.
    #[inline]
    pub fn predicates(&self, n: u64) {
        bump(&self.predicate_evals, n);
    }

    /// Record `n` policy evaluations.
    #[inline]
    pub fn policies(&self, n: u64) {
        bump(&self.policy_evals, n);
    }

    /// Record one UDF invocation.
    #[inline]
    pub fn udf_invocation(&self) {
        bump(&self.udf_invocations, 1);
    }

    /// Record `n` index probes.
    #[inline]
    pub fn index_probes(&self, n: u64) {
        bump(&self.index_probes, n);
    }

    /// Record `n` output tuples.
    #[inline]
    pub fn outputs(&self, n: u64) {
        bump(&self.tuples_output, n);
    }

    /// Add another block's counts (a parallel worker's, after its join).
    pub fn add(&self, other: &Counters) {
        let mut c = self.snapshot();
        c.merge(other);
        self.seq_pages_read.set(c.seq_pages_read);
        self.rand_pages_read.set(c.rand_pages_read);
        self.tuples_read.set(c.tuples_read);
        self.predicate_evals.set(c.predicate_evals);
        self.policy_evals.set(c.policy_evals);
        self.udf_invocations.set(c.udf_invocations);
        self.index_probes.set(c.index_probes);
        self.tuples_output.set(c.tuples_output);
    }

    /// The counts recorded so far.
    pub fn snapshot(&self) -> Counters {
        Counters {
            seq_pages_read: self.seq_pages_read.get(),
            rand_pages_read: self.rand_pages_read.get(),
            tuples_read: self.tuples_read.get(),
            predicate_evals: self.predicate_evals.get(),
            policy_evals: self.policy_evals.get(),
            udf_invocations: self.udf_invocations.get(),
            index_probes: self.index_probes.get(),
            tuples_output: self.tuples_output.get(),
        }
    }
}

/// The result of timing one query execution: wall time plus the simulated
/// clock derived from that query's own counters. The default is the
/// zero-cost record of an execution that never reached the engine.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Event counters for the execution.
    pub counters: Counters,
    /// Wall-clock duration.
    pub wall: std::time::Duration,
    /// Simulated cost under the weights in effect.
    pub simulated_cost: f64,
}

impl ExecStats {
    /// Wall time in milliseconds as a float.
    pub fn wall_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let block = CounterBlock::new();
        block.seq_pages(3);
        block.tuples(10);
        block.predicates(20);
        block.udf_invocation();
        let snap = block.snapshot();
        assert_eq!(snap.seq_pages_read, 3);
        assert_eq!(snap.tuples_read, 10);
        assert_eq!(snap.predicate_evals, 20);
        assert_eq!(snap.udf_invocations, 1);

        let mut other = Counters {
            rand_pages_read: 5,
            ..Default::default()
        };
        other.merge(&snap);
        assert_eq!(other.rand_pages_read, 5);
        assert_eq!(other.tuples_read, 10);
    }

    #[test]
    fn simulated_cost_weighted() {
        let w = CostWeights::default();
        let c = Counters {
            seq_pages_read: 2,
            predicate_evals: 10,
            ..Default::default()
        };
        assert_eq!(c.simulated_cost(&w), 2.0 * w.seq_page + 10.0 * w.predicate_eval);
    }

    #[test]
    fn add_folds_a_worker_block_in() {
        let query = CounterBlock::new();
        query.index_probes(4);
        query.tuples(2);
        let worker = CounterBlock::new();
        worker.index_probes(1);
        worker.predicates(9);
        query.add(&worker.snapshot());
        let c = query.snapshot();
        assert_eq!(c.index_probes, 5);
        assert_eq!(c.tuples_read, 2);
        assert_eq!(c.predicate_evals, 9);
    }
}
