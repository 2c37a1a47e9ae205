//! Query execution.
//!
//! Materializing executor over the access plans chosen by
//! [`crate::planner`]. Executes `WITH` clauses first (into temp tables, as
//! PostgreSQL materializes CTEs), then the body: per-table access, left-deep
//! joins (index nested-loop when the inner side has a usable index, hash
//! join otherwise), residual filters, GROUP BY/aggregates, projection, and
//! LIMIT. All data movement is charged to the query's own
//! [`CounterBlock`]: one block per execution, borrowed by nested subqueries
//! and UDF calls, so a query's counts are exact however many other queries
//! run at the same time.

use crate::catalog::{Database, TableEntry};
use crate::error::{DbError, DbResult};
use crate::expr::{bind, ColumnRef, EvalContext, Expr, FilterProgram, Layout, QueryRunner};
use crate::plan::{AggFunc, IndexHint, SelectItem, SelectQuery, TableRef, TableSource};
use crate::planner::{
    classify_predicate, plan_access_opts, AccessPlan, JoinCond, ScanOptions, MORSEL_ROWS,
    PARALLEL_MIN_ROWS,
};
use crate::schema::{Column, TableSchema};
use crate::stats::{CounterBlock, Counters};
use crate::table::{Row, RowId, ROWS_PER_PAGE};
use crate::value::{DataType, Value};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Abort with [`DbError::Timeout`] when execution exceeds this. The
    /// paper's Experiment 3 uses a 30 s timeout.
    pub timeout: Option<Duration>,
    /// Worker threads for morsel-parallel scans; `0` or `1` (the default)
    /// keeps every scan sequential. Inputs below
    /// [`crate::planner::PARALLEL_MIN_ROWS`] stay sequential regardless.
    pub threads: usize,
}

impl ExecOptions {
    /// Options with a timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        ExecOptions {
            timeout: Some(timeout),
            ..ExecOptions::default()
        }
    }

    /// Options with a scan-parallelism level.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads,
            ..ExecOptions::default()
        }
    }
}

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of an output column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// A materialized temporary relation (WITH result or derived table).
#[derive(Debug)]
struct TempTable {
    schema: Arc<TableSchema>,
    rows: Vec<Row>,
}

impl TempTable {
    fn from_result(name: &str, result: QueryResult) -> Self {
        let columns = result
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let dtype = result
                    .rows
                    .iter()
                    .find_map(|r| r[i].data_type())
                    .unwrap_or(DataType::Str);
                Column::new(c.clone(), dtype)
            })
            .collect();
        TempTable {
            schema: Arc::new(TableSchema::new(name, columns)),
            rows: result.rows,
        }
    }
}

/// One parallel-filter worker's output: `(morsel index, surviving rows)`
/// pairs in claim order, merged back by index for a deterministic result.
type MorselOut = Vec<(usize, Vec<Row>)>;

/// What a FROM entry resolved to.
enum Rel<'a> {
    Base(&'a TableEntry),
    Temp(Arc<TempTable>),
}

impl Rel<'_> {
    fn schema(&self) -> Arc<TableSchema> {
        match self {
            Rel::Base(e) => e.schema().clone(),
            Rel::Temp(t) => t.schema.clone(),
        }
    }

}

/// Rows evaluated per filter batch: big enough to amortize the deadline
/// check and selection-vector bookkeeping, small enough to stay cache-hot.
const FILTER_BATCH: usize = 1024;

/// Concatenate an outer and inner row into one joined output row with a
/// single exact-size allocation.
fn concat_rows(orow: &[Value], irow: &[Value]) -> Row {
    let mut combined = Vec::with_capacity(orow.len() + irow.len());
    combined.extend_from_slice(orow);
    combined.extend_from_slice(irow);
    combined
}

/// Execute a query against a database.
pub fn execute(db: &Database, query: &SelectQuery, opts: &ExecOptions) -> DbResult<QueryResult> {
    execute_counted(db, query, opts, &CounterBlock::new())
}

/// Execute a query, recording its events into `stats`.
pub fn execute_counted(
    db: &Database,
    query: &SelectQuery,
    opts: &ExecOptions,
    stats: &CounterBlock,
) -> DbResult<QueryResult> {
    let exec = Exec {
        db,
        stats,
        temps: &HashMap::new(),
        deadline: opts.timeout.map(|t| Instant::now() + t),
        params: &HashMap::new(),
        threads: opts.threads,
    };
    exec.run(query)
}

/// Materialized WITH results by name.
type Temps = HashMap<String, Arc<TempTable>>;

/// Correlation parameters by `alias.column` name.
type Params = HashMap<String, Value>;

struct Exec<'a> {
    db: &'a Database,
    /// The query's counters, shared with every sub-executor on this
    /// thread. Parallel scan workers count into blocks of their own.
    stats: &'a CounterBlock,
    /// Materialized WITH results in scope, borrowed by every
    /// sub-executor (correlated subqueries spawn one per outer row).
    temps: &'a Temps,
    deadline: Option<Instant>,
    /// Correlation parameters in scope.
    params: &'a Params,
    /// Scan-parallelism knob from [`ExecOptions::threads`].
    threads: usize,
}

impl QueryRunner for Exec<'_> {
    fn run_subquery(
        &self,
        query: &SelectQuery,
        params: HashMap<String, Value>,
    ) -> DbResult<Vec<Row>> {
        // Correlated subqueries run once per outer row; nesting scan
        // workers inside them would oversubscribe the pool.
        Ok(self.scoped(self.temps, &params, 0).run(query)?.rows)
    }
}

impl<'a> Exec<'a> {
    /// A sub-executor of the same query, with its own scope.
    fn scoped<'b>(&'b self, temps: &'b Temps, params: &'b Params, threads: usize) -> Exec<'b> {
        Exec {
            db: self.db,
            stats: self.stats,
            temps,
            deadline: self.deadline,
            params,
            threads,
        }
    }

    fn check_deadline(&self) -> DbResult<()> {
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(DbError::Timeout);
            }
        }
        Ok(())
    }

    fn param_names(&self) -> HashSet<String> {
        self.params.keys().cloned().collect()
    }

    /// Bind `predicate` over `layout` into a filter program whose UDF call
    /// sites are resolved once for this execution.
    fn filter_program(&self, predicate: Option<&Expr>, layout: &Layout) -> DbResult<FilterProgram> {
        let bound = match predicate {
            Some(p) => {
                let mut b = bind(p, layout, None, &self.param_names())?;
                b.resolve_udfs(self.db.udfs());
                Some(b)
            }
            None => None,
        };
        Ok(FilterProgram::new(bound))
    }

    fn eval_ctx(&'a self) -> EvalContext<'a> {
        EvalContext {
            stats: self.stats,
            udfs: self.db.udfs(),
            runner: Some(self),
            params: self.params,
        }
    }

    fn run(&self, query: &SelectQuery) -> DbResult<QueryResult> {
        if query.with.is_empty() {
            return self.run_body(query);
        }
        // Each WITH clause sees the ones before it; only the map itself is
        // rebuilt, the materialized tables are shared by Arc.
        let mut temps = self.temps.clone();
        for wc in &query.with {
            let result = self
                .scoped(&temps, self.params, self.threads)
                .run(&wc.query)?;
            temps.insert(
                wc.name.clone(),
                Arc::new(TempTable::from_result(&wc.name, result)),
            );
        }
        self.scoped(&temps, self.params, self.threads)
            .run_body(query)
    }

    fn resolve(&self, tref: &TableRef) -> DbResult<Rel<'a>> {
        match &tref.source {
            TableSource::Named(name) => {
                if let Some(t) = self.temps.get(name) {
                    Ok(Rel::Temp(t.clone()))
                } else {
                    Ok(Rel::Base(self.db.table(name)?))
                }
            }
            TableSource::Derived(q) => {
                let result = self.run(q)?;
                Ok(Rel::Temp(Arc::new(TempTable::from_result(
                    &tref.alias,
                    result,
                ))))
            }
        }
    }

    fn run_body(&self, query: &SelectQuery) -> DbResult<QueryResult> {
        if query.from.is_empty() {
            return Err(DbError::Unsupported("query without FROM".into()));
        }
        // Resolve FROM entries and build the combined layout.
        let mut rels: Vec<(String, Rel<'a>, IndexHint)> = Vec::with_capacity(query.from.len());
        let mut layout = Layout::new();
        for tref in &query.from {
            let rel = self.resolve(tref)?;
            layout.push(tref.alias.clone(), rel.schema());
            rels.push((tref.alias.clone(), rel, tref.hint.clone()));
        }
        let table_schemas: Vec<(String, Arc<TableSchema>)> = layout.entries().to_vec();

        // Classify the predicate into local / join / residual parts.
        let classified = match &query.predicate {
            Some(p) => classify_predicate(p, &table_schemas),
            None => Default::default(),
        };

        // Access the first table.
        let (first_alias, first_rel, first_hint) = &rels[0];
        let first_local = classified.local_predicate(first_alias);
        let mut rows = self.access(first_alias, first_rel, first_hint, first_local.as_ref())?;

        // Left-deep joins over the remaining tables.
        let mut joined_aliases = vec![first_alias.clone()];
        for (alias, rel, hint) in rels.iter().skip(1) {
            let local = classified.local_predicate(alias);
            let conds: Vec<&JoinCond> = classified
                .joins
                .iter()
                .filter(|j| {
                    (j.left_alias == *alias && joined_aliases.contains(&j.right_alias))
                        || (j.right_alias == *alias && joined_aliases.contains(&j.left_alias))
                })
                .collect();
            rows = self.join(
                rows,
                &joined_aliases,
                &table_schemas,
                alias,
                rel,
                hint,
                local.as_ref(),
                &conds,
            )?;
            joined_aliases.push(alias.clone());
        }

        // Residual predicate (multi-table non-equi-join conjuncts).
        if !classified.residual.is_empty() {
            let residual = Expr::all(classified.residual.clone());
            let program = self.filter_program(Some(&residual), &layout)?;
            let ctx = self.eval_ctx();
            // Batch into a keep-mask, then compact in place: survivors are
            // moved, never cloned.
            let mut keep = vec![false; rows.len()];
            let mut sel: Vec<u32> = Vec::with_capacity(FILTER_BATCH);
            let mut base = 0usize;
            for chunk in rows.chunks(FILTER_BATCH) {
                self.check_deadline()?;
                sel.clear();
                program.select_into(chunk, |r| r.as_slice(), &ctx, &mut sel)?;
                for &i in &sel {
                    keep[base + i as usize] = true;
                }
                base += chunk.len();
            }
            let mut it = keep.into_iter();
            rows.retain(|_| it.next().unwrap_or(false));
        }

        // Aggregation or plain projection.
        let mut result = if query.has_aggregates() || !query.group_by.is_empty() {
            self.aggregate(query, &layout, rows)?
        } else {
            self.project(query, &layout, rows)?
        };

        if let Some(limit) = query.limit {
            result.rows.truncate(limit);
        }
        self.stats.outputs(result.rows.len() as u64);
        Ok(result)
    }

    /// Access one relation, applying `predicate` (its local conjuncts).
    fn access(
        &self,
        alias: &str,
        rel: &Rel<'a>,
        hint: &IndexHint,
        predicate: Option<&Expr>,
    ) -> DbResult<Vec<Row>> {
        let program = self.filter_program(predicate, &Layout::single(alias, rel.schema()))?;
        // Constant-false predicates (e.g. a guarded expression with no
        // guards — default deny) read nothing.
        if program.drops_all() {
            return Ok(Vec::new());
        }
        let ctx = self.eval_ctx();
        match rel {
            Rel::Temp(t) => {
                // Temp tables have no indexes: sequential scan.
                self.stats
                    .seq_pages((t.rows.len().div_ceil(ROWS_PER_PAGE)) as u64);
                self.stats.tuples(t.rows.len() as u64);
                let mut out = Vec::new();
                self.filter_batched(&t.rows, &program, &ctx, &mut out)?;
                Ok(out)
            }
            Rel::Base(entry) => {
                let plan = plan_access_opts(
                    entry,
                    alias,
                    predicate,
                    hint,
                    self.db.profile(),
                    ScanOptions {
                        threads: self.threads,
                    },
                );
                self.scan_base(entry, &plan, &program, &ctx)
            }
        }
    }

    /// Drive owned rows through a filter program in batches, cloning only
    /// survivors into `out`. Large inputs go morsel-parallel when the
    /// thread knob allows (temp tables have no access plan, so the
    /// decision is made here with the same thresholds the planner uses).
    fn filter_batched(
        &self,
        rows: &[Row],
        program: &FilterProgram,
        ctx: &EvalContext<'_>,
        out: &mut Vec<Row>,
    ) -> DbResult<()> {
        if self.threads >= 2 && rows.len() >= PARALLEL_MIN_ROWS {
            return self.filter_parallel(rows, program, out);
        }
        let mut sel: Vec<u32> = Vec::with_capacity(FILTER_BATCH);
        for chunk in rows.chunks(FILTER_BATCH) {
            self.check_deadline()?;
            sel.clear();
            program.select_into(chunk, |r| r.as_slice(), ctx, &mut sel)?;
            out.extend(sel.iter().map(|&i| chunk[i as usize].clone()));
        }
        Ok(())
    }

    /// Morsel-parallel filter: workers claim [`MORSEL_ROWS`]-sized chunks
    /// off a shared counter, filter them locally, and the survivors are
    /// concatenated in morsel order — row-identical to the sequential
    /// path. Each worker counts into a [`CounterBlock`] of its own; the
    /// blocks are added to the query's once after the join, so the counts
    /// equal the sequential path's exactly.
    fn filter_parallel(
        &self,
        rows: &[Row],
        program: &FilterProgram,
        out: &mut Vec<Row>,
    ) -> DbResult<()> {
        let morsels: Vec<&[Row]> = rows.chunks(MORSEL_ROWS).collect();
        let workers = self.threads.min(morsels.len());
        let next = AtomicUsize::new(0);
        let (db, temps, deadline, params) = (self.db, self.temps, self.deadline, self.params);
        let mut results: Vec<(DbResult<MorselOut>, Counters)> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        // A worker-local executor: nested subqueries run
                        // sequentially inside the owning worker.
                        let stats = CounterBlock::new();
                        let worker = Exec {
                            db,
                            stats: &stats,
                            temps,
                            deadline,
                            params,
                            threads: 0,
                        };
                        let kept = worker.filter_morsels(&morsels, &next, program);
                        (kept, stats.snapshot())
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
        });
        for (_, counters) in &results {
            self.stats.add(counters);
        }
        let mut per_morsel: Vec<Vec<Row>> = (0..morsels.len()).map(|_| Vec::new()).collect();
        for (r, _) in results {
            for (m, kept) in r? {
                per_morsel[m] = kept;
            }
        }
        for kept in &mut per_morsel {
            out.append(kept);
        }
        Ok(())
    }

    /// One parallel worker's loop: claim morsels off `next` until none are
    /// left, keeping each morsel's survivors under its index.
    fn filter_morsels(
        &self,
        morsels: &[&[Row]],
        next: &AtomicUsize,
        program: &FilterProgram,
    ) -> DbResult<MorselOut> {
        let ctx = self.eval_ctx();
        let mut sel: Vec<u32> = Vec::with_capacity(FILTER_BATCH);
        let mut local: MorselOut = Vec::new();
        loop {
            let m = next.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = morsels.get(m) else {
                break;
            };
            self.check_deadline()?;
            let mut kept: Vec<Row> = Vec::new();
            for sub in chunk.chunks(FILTER_BATCH) {
                sel.clear();
                program.select_into(sub, |r| r.as_slice(), &ctx, &mut sel)?;
                kept.extend(sel.iter().map(|&i| sub[i as usize].clone()));
            }
            local.push((m, kept));
        }
        Ok(local)
    }

    fn scan_base(
        &self,
        entry: &TableEntry,
        plan: &AccessPlan,
        program: &FilterProgram,
        ctx: &EvalContext<'_>,
    ) -> DbResult<Vec<Row>> {
        // Filter a batch of fetched `(RowId, &Row)` pairs, cloning only
        // selected rows.
        let mut sel: Vec<u32> = Vec::with_capacity(FILTER_BATCH);
        match plan {
            AccessPlan::SeqScan | AccessPlan::ParallelScan { .. } => {
                // Same accounting as `Table::scan` (every page once,
                // sequentially, one tuple read per row), but filtering
                // directly over the contiguous row slice in batches.
                // `filter_batched` splits into parallel morsels exactly
                // when the plan says ParallelScan (same thresholds).
                let stats = self.stats;
                stats.seq_pages(entry.table.page_count());
                stats.tuples(entry.table.len() as u64);
                let mut out = Vec::new();
                self.filter_batched(entry.table.rows(), program, ctx, &mut out)?;
                Ok(out)
            }
            AccessPlan::IndexOr {
                probes,
                bitmap,
                residual,
            } => {
                let stats = self.stats;
                if *bitmap {
                    // PostgreSQL-style: OR the row-id bitmaps, fetch once.
                    let mut ids: Vec<RowId> = Vec::new();
                    for p in probes {
                        ids.extend(p.run(entry, stats));
                    }
                    ids.sort_unstable();
                    ids.dedup();
                    self.check_deadline()?;
                    let fetched = entry.table.fetch(&ids, stats);
                    if !residual {
                        // Exact probe union: every fetched row satisfies
                        // the predicate; skip re-evaluating it.
                        return Ok(fetched.into_iter().map(|(_, r)| r.clone()).collect());
                    }
                    let mut out = Vec::new();
                    for batch in fetched.chunks(FILTER_BATCH) {
                        self.check_deadline()?;
                        sel.clear();
                        program.select_into(batch, |(_, r)| r.as_slice(), ctx, &mut sel)?;
                        out.extend(sel.iter().map(|&i| batch[i as usize].1.clone()));
                    }
                    Ok(out)
                } else {
                    // MySQL-style UNION: each branch fetches independently
                    // (duplicated pages are re-read), dedup afterwards.
                    let mut seen: HashSet<RowId> = HashSet::new();
                    let mut out = Vec::new();
                    let mut batch: Vec<(RowId, &Row)> = Vec::with_capacity(FILTER_BATCH);
                    for p in probes {
                        self.check_deadline()?;
                        let ids = p.run(entry, stats);
                        let fetched = entry.table.fetch(&ids, stats);
                        if !residual {
                            // Exact union: keep every not-yet-seen row.
                            for (id, row) in fetched {
                                if seen.insert(id) {
                                    out.push(row.clone());
                                }
                            }
                            continue;
                        }
                        let mut fetched = fetched.into_iter();
                        loop {
                            batch.clear();
                            batch.extend(
                                fetched
                                    .by_ref()
                                    .filter(|(id, _)| !seen.contains(id))
                                    .take(FILTER_BATCH),
                            );
                            if batch.is_empty() {
                                break;
                            }
                            sel.clear();
                            program.select_into(&batch, |(_, r)| r.as_slice(), ctx, &mut sel)?;
                            for &i in &sel {
                                let (id, row) = batch[i as usize];
                                seen.insert(id);
                                out.push(row.clone());
                            }
                        }
                    }
                    Ok(out)
                }
            }
        }
    }

    /// Join accumulated rows with one more relation.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        outer_rows: Vec<Row>,
        joined_aliases: &[String],
        table_schemas: &[(String, Arc<TableSchema>)],
        alias: &str,
        rel: &Rel<'a>,
        hint: &IndexHint,
        local: Option<&Expr>,
        conds: &[&JoinCond],
    ) -> DbResult<Vec<Row>> {
        // Layout of the accumulated (outer) side.
        let mut outer_layout = Layout::new();
        for a in joined_aliases {
            let schema = table_schemas
                .iter()
                .find(|(n, _)| n == a)
                .map(|(_, s)| s.clone())
                .expect("joined alias must be in layout");
            outer_layout.push(a.clone(), schema);
        }

        // Normalize conditions to (outer column slot, inner column name).
        let mut keys: Vec<(usize, String)> = Vec::new();
        for c in conds {
            let (outer_col, inner_col) = if c.left_alias == alias {
                (
                    ColumnRef::qualified(c.right_alias.clone(), c.right_column.clone()),
                    c.left_column.clone(),
                )
            } else {
                (
                    ColumnRef::qualified(c.left_alias.clone(), c.left_column.clone()),
                    c.right_column.clone(),
                )
            };
            keys.push((outer_layout.resolve(&outer_col)?, inner_col));
        }

        let inner_schema = rel.schema();
        let inner_layout = Layout::single(alias, inner_schema.clone());
        let local_program = self.filter_program(local, &inner_layout)?;
        let ctx = self.eval_ctx();

        // Index nested-loop when the inner side is a base table with an
        // index on the first join column and the outer side is small-ish.
        if let (Rel::Base(entry), Some((outer_slot, inner_col))) = (rel, keys.first()) {
            if let Some(idx) = entry.index_on(inner_col) {
                let extra_keys = &keys[1..];
                let stats = self.stats;
                let mut out = Vec::new();
                for (i, orow) in outer_rows.iter().enumerate() {
                    if i % 512 == 0 {
                        self.check_deadline()?;
                    }
                    let key = &orow[*outer_slot];
                    let ids = idx.lookup(key, stats);
                    if ids.is_empty() {
                        continue;
                    }
                    for (_, irow) in entry.table.fetch(&ids, stats) {
                        if !local_program.matches(irow, &ctx)? {
                            continue;
                        }
                        let mut ok = true;
                        for (oslot, icol) in extra_keys {
                            let icol_idx = inner_schema
                                .column_index(icol)
                                .ok_or_else(|| DbError::UnknownColumn(icol.clone()))?;
                            self.stats.predicates(1);
                            if orow[*oslot] != irow[icol_idx] {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            out.push(concat_rows(orow, irow));
                        }
                    }
                }
                return Ok(out);
            }
        }

        // Otherwise materialize the inner side through its access plan.
        let inner_rows = self.access(alias, rel, hint, local)?;

        if let Some((outer_slot, inner_col)) = keys.first() {
            // Hash join on the first condition; extra conditions re-checked.
            // Build and probe borrow the materialized rows — no key clones,
            // no intermediate row copies; only joined output rows allocate.
            let inner_col_idx = inner_schema
                .column_index(inner_col)
                .ok_or_else(|| DbError::UnknownColumn(inner_col.clone()))?;
            let mut ht: HashMap<&Value, Vec<&Row>> = HashMap::new();
            for r in &inner_rows {
                ht.entry(&r[inner_col_idx]).or_default().push(r);
            }
            let extra_keys = &keys[1..];
            let mut out = Vec::new();
            for (i, orow) in outer_rows.iter().enumerate() {
                if i % 1024 == 0 {
                    self.check_deadline()?;
                }
                if let Some(matches) = ht.get(&orow[*outer_slot]) {
                    for irow in matches {
                        let mut ok = true;
                        for (oslot, icol) in extra_keys {
                            let icol_idx = inner_schema
                                .column_index(icol)
                                .ok_or_else(|| DbError::UnknownColumn(icol.clone()))?;
                            self.stats.predicates(1);
                            if orow[*oslot] != irow[icol_idx] {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            out.push(concat_rows(orow, irow));
                        }
                    }
                }
            }
            Ok(out)
        } else {
            // Cartesian product (only sensible for tiny inputs).
            let mut out = Vec::with_capacity(outer_rows.len() * inner_rows.len());
            for orow in &outer_rows {
                self.check_deadline()?;
                for irow in &inner_rows {
                    out.push(concat_rows(orow, irow));
                }
            }
            Ok(out)
        }
    }

    fn project(
        &self,
        query: &SelectQuery,
        layout: &Layout,
        rows: Vec<Row>,
    ) -> DbResult<QueryResult> {
        // SELECT * keeps the full layout.
        if query.select.len() == 1 && matches!(query.select[0], SelectItem::Star) {
            let columns = if layout.entries().len() == 1 {
                layout.entries()[0]
                    .1
                    .columns
                    .iter()
                    .map(|c| c.name.clone())
                    .collect()
            } else {
                layout.qualified_names()
            };
            return Ok(QueryResult { columns, rows });
        }

        let mut slots: Vec<usize> = Vec::new();
        let mut columns: Vec<String> = Vec::new();
        for item in &query.select {
            match item {
                SelectItem::Star => {
                    for (i, name) in layout.qualified_names().into_iter().enumerate() {
                        slots.push(i);
                        columns.push(name);
                    }
                }
                SelectItem::Column { column, alias } => {
                    slots.push(layout.resolve(column)?);
                    columns.push(alias.clone().unwrap_or_else(|| column.column.clone()));
                }
                SelectItem::Aggregate { .. } => {
                    return Err(DbError::Unsupported(
                        "aggregate outside GROUP BY query".into(),
                    ))
                }
            }
        }
        let rows = rows
            .into_iter()
            .map(|r| slots.iter().map(|&s| r[s].clone()).collect())
            .collect();
        Ok(QueryResult { columns, rows })
    }

    fn aggregate(
        &self,
        query: &SelectQuery,
        layout: &Layout,
        rows: Vec<Row>,
    ) -> DbResult<QueryResult> {
        let group_slots: Vec<usize> = query
            .group_by
            .iter()
            .map(|c| layout.resolve(c))
            .collect::<DbResult<_>>()?;

        // Pre-resolve select items.
        enum Out {
            Group(usize),      // index into group_slots
            Agg(usize),        // index into agg specs
        }
        struct AggSpec {
            func: AggFunc,
            slot: Option<usize>,
        }
        let mut outs: Vec<Out> = Vec::new();
        let mut columns: Vec<String> = Vec::new();
        let mut aggs: Vec<AggSpec> = Vec::new();
        for item in &query.select {
            match item {
                SelectItem::Star => {
                    return Err(DbError::Unsupported("SELECT * with GROUP BY".into()))
                }
                SelectItem::Column { column, alias } => {
                    let slot = layout.resolve(column)?;
                    let gidx = group_slots.iter().position(|&s| s == slot).ok_or_else(|| {
                        DbError::Unsupported(format!(
                            "column {column} not in GROUP BY"
                        ))
                    })?;
                    outs.push(Out::Group(gidx));
                    columns.push(alias.clone().unwrap_or_else(|| column.column.clone()));
                }
                SelectItem::Aggregate {
                    func,
                    column,
                    alias,
                } => {
                    let slot = match column {
                        Some(c) => Some(layout.resolve(c)?),
                        None => None,
                    };
                    if slot.is_none() && !matches!(func, AggFunc::Count) {
                        // Both backends reject this identically: the
                        // renderer keeps the DISTINCT spelling, so the
                        // wire path can no longer degrade it to COUNT(*).
                        let spelled = if matches!(func, AggFunc::CountDistinct) {
                            "COUNT(DISTINCT *)".to_string()
                        } else {
                            format!("{}(*)", func.sql())
                        };
                        return Err(DbError::Unsupported(format!(
                            "{spelled} is not supported: * only valid in COUNT(*)"
                        )));
                    }
                    outs.push(Out::Agg(aggs.len()));
                    columns.push(alias.clone().unwrap_or_else(|| func.sql().to_lowercase()));
                    aggs.push(AggSpec { func: *func, slot });
                }
            }
        }

        #[derive(Clone)]
        enum Acc {
            Count(u64),
            Distinct(HashSet<Value>),
            SumInt(i64), // promoted to SumDouble on the first non-integer input
            SumDouble(f64),
            Min(Option<Value>),
            Max(Option<Value>),
            Avg(f64, u64),
        }

        let new_acc = |spec: &AggSpec| match spec.func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::CountDistinct => Acc::Distinct(HashSet::new()),
            AggFunc::Sum => Acc::SumInt(0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(0.0, 0),
        };

        let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            if i % 4096 == 0 {
                self.check_deadline()?;
            }
            let key: Vec<Value> = group_slots.iter().map(|&s| row[s].clone()).collect();
            let accs = groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(new_acc).collect());
            for (spec, acc) in aggs.iter().zip(accs.iter_mut()) {
                let v = spec.slot.map(|s| &row[s]);
                match acc {
                    Acc::Count(n) => {
                        if spec.slot.is_none() || v.is_some_and(|v| !v.is_null()) {
                            *n += 1;
                        }
                    }
                    Acc::Distinct(set) => {
                        if let Some(v) = v {
                            if !v.is_null() {
                                set.insert(v.clone());
                            }
                        }
                    }
                    Acc::SumInt(sum) => match v {
                        Some(Value::Int(x)) => *sum += x,
                        Some(Value::Double(x)) => {
                            let d = *sum as f64 + x;
                            *acc = Acc::SumDouble(d);
                        }
                        _ => {}
                    },
                    Acc::SumDouble(sum) => {
                        if let Some(x) = v.and_then(|v| v.as_double()) {
                            *sum += x;
                        }
                    }
                    Acc::Min(m) => {
                        if let Some(v) = v {
                            if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                                *m = Some(v.clone());
                            }
                        }
                    }
                    Acc::Max(m) => {
                        if let Some(v) = v {
                            if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                                *m = Some(v.clone());
                            }
                        }
                    }
                    Acc::Avg(sum, n) => {
                        if let Some(x) = v.and_then(|v| v.as_double()) {
                            *sum += x;
                            *n += 1;
                        }
                    }
                }
            }
        }

        // A global aggregate (no GROUP BY) over empty input still yields
        // one row (COUNT(*) = 0, SUM = NULL, …), per SQL semantics.
        if group_slots.is_empty() && groups.is_empty() {
            groups.insert(Vec::new(), aggs.iter().map(new_acc).collect());
        }

        // Deterministic output order: sort by group key.
        let mut entries: Vec<(Vec<Value>, Vec<Acc>)> = groups.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));

        let mut out_rows = Vec::with_capacity(entries.len());
        for (key, accs) in entries {
            let mut row = Vec::with_capacity(outs.len());
            for o in &outs {
                match o {
                    Out::Group(gidx) => row.push(key[*gidx].clone()),
                    Out::Agg(aidx) => row.push(match &accs[*aidx] {
                        Acc::Count(n) => Value::Int(*n as i64),
                        Acc::Distinct(s) => Value::Int(s.len() as i64),
                        Acc::SumInt(s) => Value::Int(*s),
                        Acc::SumDouble(s) => Value::Double(*s),
                        Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
                        Acc::Avg(s, n) => {
                            if *n == 0 {
                                Value::Null
                            } else {
                                Value::Double(s / *n as f64)
                            }
                        }
                    }),
                }
            }
            out_rows.push(row);
        }

        Ok(QueryResult {
            columns,
            rows: out_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::DbProfile;

    fn sample_db(profile: DbProfile) -> Database {
        let mut db = Database::new(profile);
        db.create_table(TableSchema::of(
            "wifi",
            &[
                ("id", DataType::Int),
                ("owner", DataType::Int),
                ("wifi_ap", DataType::Int),
                ("ts_time", DataType::Time),
            ],
        ))
        .unwrap();
        for i in 0..1000i64 {
            db.insert(
                "wifi",
                vec![
                    Value::Int(i),
                    Value::Int(i % 50),
                    Value::Int(1000 + i % 10),
                    Value::Time(((i * 61) % 86400) as u32),
                ],
            )
            .unwrap();
        }
        db.create_index("wifi", "owner").unwrap();
        db.create_index("wifi", "wifi_ap").unwrap();
        db.analyze("wifi").unwrap();

        db.create_table(TableSchema::of(
            "membership",
            &[("user_id", DataType::Int), ("group_id", DataType::Int)],
        ))
        .unwrap();
        for u in 0..50i64 {
            db.insert("membership", vec![Value::Int(u), Value::Int(u % 5)])
                .unwrap();
        }
        db.create_index("membership", "user_id").unwrap();
        db.analyze("membership").unwrap();
        db
    }

    #[test]
    fn select_star_filter() {
        let db = sample_db(DbProfile::MySqlLike);
        let q = SelectQuery::star_from("wifi")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(7)));
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 20);
        assert_eq!(res.columns, vec!["id", "owner", "wifi_ap", "ts_time"]);
    }

    #[test]
    fn seq_and_index_agree() {
        let db_m = sample_db(DbProfile::MySqlLike);
        let db_p = sample_db(DbProfile::PostgresLike);
        let pred = Expr::or(
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)),
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(4)),
        );
        let q = SelectQuery::star_from("wifi").filter(pred);
        let mut a = db_m.run_query(&q).unwrap().rows;
        let mut b = db_p.run_query(&q).unwrap().rows;
        a.sort();
        b.sort();
        assert_eq!(a.len(), 40);
        assert_eq!(a, b);
    }

    #[test]
    fn forced_union_matches_scan_results() {
        let db = sample_db(DbProfile::MySqlLike);
        let pred = Expr::or(
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)),
            Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(1001)),
        );
        let forced = SelectQuery {
            from: vec![TableRef::named("wifi")
                .with_hint(IndexHint::Force(vec!["owner".into(), "wifi_ap".into()]))],
            ..SelectQuery::star_from("wifi")
        }
        .filter(pred.clone());
        let scanned = SelectQuery {
            from: vec![TableRef::named("wifi").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("wifi")
        }
        .filter(pred);
        let mut a = db.run_query(&forced).unwrap().rows;
        let mut b = db.run_query(&scanned).unwrap().rows;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // owner=3 (i%50==3) gives 20 rows, ap=1001 (i%10==1) gives 100;
        // i≡3 (mod 50) implies i%10==3, so the sets are disjoint → 120.
        assert_eq!(a.len(), 120);
    }

    #[test]
    fn with_clause_creates_temp() {
        let db = sample_db(DbProfile::MySqlLike);
        let inner = SelectQuery::star_from("wifi")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)));
        let outer = SelectQuery::star_from("wifi_pol")
            .with_clause("wifi_pol", inner)
            .filter(Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(1001)));
        let res = db.run_query(&outer).unwrap();
        // owner=1: ids 1, 51, 101, ... (20 rows); of those ap=1001 means id%10==1.
        assert!(res.rows.iter().all(|r| r[1] == Value::Int(1)));
        assert!(res.rows.iter().all(|r| r[2] == Value::Int(1001)));
        assert!(!res.is_empty());
    }

    #[test]
    fn join_via_index_nested_loop() {
        let db = sample_db(DbProfile::MySqlLike);
        // Devices of group 2 = owners {2, 7, 12, ...}: 10 owners × 20 rows.
        let q = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Star],
            from: vec![
                TableRef::aliased("membership", "m"),
                TableRef::aliased("wifi", "w"),
            ],
            predicate: Some(Expr::all(vec![
                Expr::col_eq(ColumnRef::qualified("m", "group_id"), Value::Int(2)),
                Expr::Cmp {
                    op: CmpOp::Eq,
                    lhs: Box::new(Expr::Column(ColumnRef::qualified("m", "user_id"))),
                    rhs: Box::new(Expr::Column(ColumnRef::qualified("w", "owner"))),
                },
            ])),
            group_by: vec![],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 200);
        assert_eq!(res.columns.len(), 6);
    }

    use crate::expr::CmpOp;

    #[test]
    fn group_by_count_and_sum() {
        let db = sample_db(DbProfile::MySqlLike);
        let q = SelectQuery {
            with: vec![],
            select: vec![
                SelectItem::Column {
                    column: ColumnRef::bare("wifi_ap"),
                    alias: None,
                },
                SelectItem::Aggregate {
                    func: AggFunc::Count,
                    column: None,
                    alias: Some("n".into()),
                },
                SelectItem::Aggregate {
                    func: AggFunc::CountDistinct,
                    column: Some(ColumnRef::bare("owner")),
                    alias: Some("owners".into()),
                },
            ],
            from: vec![TableRef::named("wifi")],
            predicate: None,
            group_by: vec![ColumnRef::bare("wifi_ap")],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 10);
        for row in &res.rows {
            assert_eq!(row[1], Value::Int(100));
            // owners per AP: ids with same i%10 → owners i%50 cycle of 5.
            assert_eq!(row[2], Value::Int(5));
        }
    }

    #[test]
    fn scalar_subquery_correlated() {
        let db = sample_db(DbProfile::MySqlLike);
        // For each membership row of group 0, check owner has wifi rows:
        // WHERE m.user_id = (SELECT w.owner FROM wifi w WHERE w.owner = m.user_id LIMIT 1)
        let sub = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Column {
                column: ColumnRef::qualified("w", "owner"),
                alias: None,
            }],
            from: vec![TableRef::aliased("wifi", "w")],
            predicate: Some(Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("w", "owner"))),
                rhs: Box::new(Expr::Column(ColumnRef::qualified("m", "user_id"))),
            }),
            group_by: vec![],
            limit: Some(1),
        };
        let q = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Star],
            from: vec![TableRef::aliased("membership", "m")],
            predicate: Some(Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column(ColumnRef::qualified("m", "user_id"))),
                rhs: Box::new(Expr::ScalarSubquery(Box::new(sub))),
            }),
            group_by: vec![],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.len(), 50); // every member has wifi rows
    }

    #[test]
    fn timeout_fires() {
        let db = sample_db(DbProfile::MySqlLike);
        let q = SelectQuery::star_from("wifi");
        let res = db.run_query_opts(&q, &ExecOptions::with_timeout(Duration::ZERO));
        assert_eq!(res.unwrap_err(), DbError::Timeout);
    }

    #[test]
    fn derived_table_in_from() {
        let db = sample_db(DbProfile::MySqlLike);
        let inner = SelectQuery::star_from("wifi")
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)));
        let q = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                column: None,
                alias: Some("n".into()),
            }],
            from: vec![TableRef {
                source: TableSource::Derived(Box::new(inner)),
                alias: "t".into(),
                hint: IndexHint::None,
            }],
            predicate: None,
            group_by: vec![],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.rows[0][0], Value::Int(20));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let db = sample_db(DbProfile::MySqlLike);
        let q = SelectQuery {
            with: vec![],
            select: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                column: None,
                alias: Some("n".into()),
            }],
            from: vec![TableRef::named("wifi")],
            predicate: Some(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(-1))),
            group_by: vec![],
            limit: None,
        };
        let res = db.run_query(&q).unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(0)]]);
        // With GROUP BY, empty input produces no groups.
        let mut q2 = q.clone();
        q2.group_by = vec![ColumnRef::bare("wifi_ap")];
        q2.select.insert(
            0,
            SelectItem::Column {
                column: ColumnRef::bare("wifi_ap"),
                alias: None,
            },
        );
        assert!(db.run_query(&q2).unwrap().is_empty());
    }

    #[test]
    fn limit_truncates() {
        let db = sample_db(DbProfile::MySqlLike);
        let mut q = SelectQuery::star_from("wifi");
        q.limit = Some(5);
        assert_eq!(db.run_query(&q).unwrap().len(), 5);
    }

    fn big_db(profile: DbProfile) -> Database {
        let mut db = Database::new(profile);
        db.create_table(TableSchema::of(
            "big",
            &[("id", DataType::Int), ("owner", DataType::Int)],
        ))
        .unwrap();
        for i in 0..(2 * crate::planner::PARALLEL_MIN_ROWS as i64 + 123) {
            db.insert("big", vec![Value::Int(i), Value::Int(i % 97)])
                .unwrap();
        }
        db
    }

    #[test]
    fn parallel_scan_matches_sequential_in_order() {
        let db = big_db(DbProfile::MySqlLike);
        let q = SelectQuery {
            from: vec![TableRef::named("big").with_hint(IndexHint::IgnoreAll)],
            ..SelectQuery::star_from("big")
        }
        .filter(Expr::col_cmp(
            ColumnRef::bare("owner"),
            CmpOp::Lt,
            Value::Int(40),
        ));
        let (seq, seq_stats) = db.run_timed(&q, &ExecOptions::default());
        let seq = seq.unwrap();
        for threads in [2usize, 3, 8] {
            let (par, par_stats) = db.run_timed(&q, &ExecOptions::with_threads(threads));
            // Identical rows in identical order: morsel results are
            // concatenated in morsel order. Worker blocks merge to the
            // sequential counts exactly.
            assert_eq!(par.unwrap().rows, seq.rows, "threads={threads}");
            assert_eq!(par_stats.counters, seq_stats.counters, "threads={threads}");
        }
    }

    #[test]
    fn parallel_filter_applies_to_temp_tables() {
        let db = big_db(DbProfile::MySqlLike);
        let inner = SelectQuery::star_from("big");
        let outer = SelectQuery::star_from("big_cte")
            .with_clause("big_cte", inner)
            .filter(Expr::col_eq(ColumnRef::bare("owner"), Value::Int(13)));
        let seq = db.run_query(&outer).unwrap();
        let par = db
            .run_query_opts(&outer, &ExecOptions::with_threads(4))
            .unwrap();
        assert_eq!(par.rows, seq.rows);
        assert!(!par.is_empty());
    }

    #[test]
    fn parallel_scan_honors_timeout() {
        let db = big_db(DbProfile::MySqlLike);
        let q = SelectQuery::star_from("big");
        let opts = ExecOptions {
            timeout: Some(Duration::ZERO),
            threads: 4,
        };
        assert_eq!(db.run_query_opts(&q, &opts).unwrap_err(), DbError::Timeout);
    }

    #[test]
    fn exact_index_union_skips_residual_evaluation() {
        let db = sample_db(DbProfile::MySqlLike);
        let pred = Expr::or(
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3)),
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(4)),
        );
        let q = SelectQuery {
            from: vec![TableRef::named("wifi").with_hint(IndexHint::Force(vec!["owner".into()]))],
            ..SelectQuery::star_from("wifi")
        }
        .filter(pred);
        let (res, stats) = db.run_timed(&q, &ExecOptions::default());
        assert_eq!(res.unwrap().len(), 40);
        // The probe union is exact: no per-row predicate re-evaluation.
        assert_eq!(stats.counters.predicate_evals, 0);
    }
}
