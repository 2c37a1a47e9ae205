//! Predicate expressions: AST, name resolution (binding), and evaluation.
//!
//! Evaluation is the hot path of everything SIEVE measures — each policy
//! object-condition set is a conjunct tree evaluated per tuple — so
//! expressions are *bound* once against the query's FROM layout (resolving
//! column names to positions) and evaluated many times. `And`/`Or` short-
//! circuit, which is what makes the paper's α ("average number of policies a
//! tuple is checked against before it satisfies one", Section 4) a
//! measurable quantity here.

use crate::error::{DbError, DbResult};
use crate::plan::SelectQuery;
use crate::schema::TableSchema;
use crate::stats::CounterBlock;
use crate::table::Row;
use crate::udf::{Udf, UdfContext, UdfRegistry};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Comparison operators of the policy model (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to two values. Comparisons against NULL are false.
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The SQL token for this operator.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Mirror image (for normalizing `literal op column`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table alias qualifier, if written.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// An unbound predicate/scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Constant.
    Literal(Value),
    /// Positional wire-protocol placeholder (`?`), numbered left to right
    /// in render order. Produced by [`crate::sql::parameterize`] and by
    /// the parser for `?` tokens; a query still holding placeholders must
    /// be rebound via [`crate::sql::bind_params`] before execution.
    Param(usize),
    /// Column reference.
    Column(ColumnRef),
    /// Binary comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr [NOT] BETWEEN low AND high` (inclusive both sides, as in SQL).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// NOT BETWEEN if true.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// List elements.
        list: Vec<Expr>,
        /// NOT IN if true.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// IS NOT NULL if true.
        negated: bool,
    },
    /// N-ary conjunction (short-circuits on first false).
    And(Vec<Expr>),
    /// N-ary disjunction (short-circuits on first true).
    Or(Vec<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// UDF call, e.g. the ∆ operator `delta(guard_id, querier, purpose, owner, …)`.
    Udf {
        /// Function name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Correlated scalar subquery (the policy model's "derived value",
    /// Section 3.1). Yields the first column of the first result row, or
    /// NULL when the result is empty.
    ScalarSubquery(Box<SelectQuery>),
}

impl Expr {
    /// `a AND b`, flattening nested conjunctions.
    pub fn and(a: Expr, b: Expr) -> Expr {
        let mut parts = Vec::new();
        for e in [a, b] {
            match e {
                Expr::And(mut v) => parts.append(&mut v),
                other => parts.push(other),
            }
        }
        Expr::And(parts)
    }

    /// `a OR b`, flattening nested disjunctions.
    pub fn or(a: Expr, b: Expr) -> Expr {
        let mut parts = Vec::new();
        for e in [a, b] {
            match e {
                Expr::Or(mut v) => parts.append(&mut v),
                other => parts.push(other),
            }
        }
        Expr::Or(parts)
    }

    /// Conjunction of many expressions; `TRUE` for an empty list.
    /// Flattens nested conjunctions like [`Expr::and`], so every
    /// constructor-built expression is in the same n-ary normal form the
    /// SQL parser produces — `parse(render(e)) == e` depends on it.
    pub fn all(exprs: Vec<Expr>) -> Expr {
        let mut parts = Vec::new();
        for e in exprs {
            match e {
                Expr::And(mut v) => parts.append(&mut v),
                other => parts.push(other),
            }
        }
        match parts.len() {
            0 => Expr::Literal(Value::Bool(true)),
            1 => parts.into_iter().next().unwrap(),
            _ => Expr::And(parts),
        }
    }

    /// Disjunction of many expressions; `FALSE` for an empty list.
    /// Flattens nested disjunctions like [`Expr::or`] (see [`Expr::all`]).
    pub fn any(exprs: Vec<Expr>) -> Expr {
        let mut parts = Vec::new();
        for e in exprs {
            match e {
                Expr::Or(mut v) => parts.append(&mut v),
                other => parts.push(other),
            }
        }
        match parts.len() {
            0 => Expr::Literal(Value::Bool(false)),
            1 => parts.into_iter().next().unwrap(),
            _ => Expr::Or(parts),
        }
    }

    /// Shorthand: `col = value`.
    pub fn col_eq(col: ColumnRef, v: Value) -> Expr {
        Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(Expr::Column(col)),
            rhs: Box::new(Expr::Literal(v)),
        }
    }

    /// Shorthand: comparison of a column to a literal.
    pub fn col_cmp(col: ColumnRef, op: CmpOp, v: Value) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(Expr::Column(col)),
            rhs: Box::new(Expr::Literal(v)),
        }
    }

    /// Top-level conjuncts of this expression (`self` if not an AND).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(v) => v.iter().collect(),
            other => vec![other],
        }
    }

    /// Top-level disjuncts of this expression (`self` if not an OR).
    pub fn disjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Or(v) => v.iter().collect(),
            other => vec![other],
        }
    }

    /// Visit all column references in this expression (not descending into
    /// scalar subqueries, whose references resolve in their own scope).
    pub fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Column(c) => f(c),
            Expr::Cmp { lhs, rhs, .. } => {
                lhs.visit_columns(f);
                rhs.visit_columns(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit_columns(f);
                low.visit_columns(f);
                high.visit_columns(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_columns(f);
                for e in list {
                    e.visit_columns(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit_columns(f),
            Expr::And(v) | Expr::Or(v) => {
                for e in v {
                    e.visit_columns(f);
                }
            }
            Expr::Not(e) => e.visit_columns(f),
            Expr::Udf { args, .. } => {
                for e in args {
                    e.visit_columns(f);
                }
            }
            Expr::ScalarSubquery(_) => {}
        }
    }

    /// Visit this expression and every sub-expression, pre-order. A
    /// [`Expr::ScalarSubquery`] is visited as a single node; its inner
    /// predicate resolves in its own scope and is not descended into.
    /// This is the one traversal every walker builds on (rewrite-time
    /// reference collection, the static analyzer's atom lowering), so
    /// structural recursion over `Expr` lives in exactly one place.
    pub fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) | Expr::ScalarSubquery(_) => {}
            Expr::Cmp { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::And(v) | Expr::Or(v) => {
                for e in v {
                    e.visit(f);
                }
            }
            Expr::Not(e) => e.visit(f),
            Expr::Udf { args, .. } => {
                for e in args {
                    e.visit(f);
                }
            }
        }
    }

    /// Rebuild the expression, offering `f` each node top-down: returning
    /// `Some` replaces that node wholesale (children unvisited), `None`
    /// recurses structurally and reassembles. [`Expr::ScalarSubquery`] is
    /// offered but never descended into.
    pub fn map(&self, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
        if let Some(replaced) = f(self) {
            return replaced;
        }
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) | Expr::ScalarSubquery(_) => {
                self.clone()
            }
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(lhs.map(f)),
                rhs: Box::new(rhs.map(f)),
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.map(f)),
                low: Box::new(low.map(f)),
                high: Box::new(high.map(f)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.map(f)),
                list: list.iter().map(|e| e.map(f)).collect(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.map(f)),
                negated: *negated,
            },
            Expr::And(v) => Expr::And(v.iter().map(|e| e.map(f)).collect()),
            Expr::Or(v) => Expr::Or(v.iter().map(|e| e.map(f)).collect()),
            Expr::Not(e) => Expr::Not(Box::new(e.map(f))),
            Expr::Udf { name, args } => Expr::Udf {
                name: name.clone(),
                args: args.iter().map(|e| e.map(f)).collect(),
            },
        }
    }
}

/// The flattened FROM layout a row is evaluated against: an ordered list of
/// `(alias, schema)` whose columns are concatenated.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    entries: Vec<(String, Arc<TableSchema>)>,
    offsets: Vec<usize>,
    width: usize,
}

impl Layout {
    /// Empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Layout over a single table.
    pub fn single(alias: impl Into<String>, schema: Arc<TableSchema>) -> Self {
        let mut l = Layout::new();
        l.push(alias, schema);
        l
    }

    /// Append a FROM entry.
    pub fn push(&mut self, alias: impl Into<String>, schema: Arc<TableSchema>) {
        self.offsets.push(self.width);
        self.width += schema.arity();
        self.entries.push((alias.into(), schema));
    }

    /// Total number of columns across all entries.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The `(alias, schema)` entries.
    pub fn entries(&self) -> &[(String, Arc<TableSchema>)] {
        &self.entries
    }

    /// Resolve a column reference to its global position.
    pub fn resolve(&self, c: &ColumnRef) -> DbResult<usize> {
        match &c.table {
            Some(alias) => {
                for (i, (a, schema)) in self.entries.iter().enumerate() {
                    if a == alias {
                        return schema
                            .column_index(&c.column)
                            .map(|j| self.offsets[i] + j)
                            .ok_or_else(|| DbError::UnknownColumn(c.to_string()));
                    }
                }
                Err(DbError::UnknownColumn(c.to_string()))
            }
            None => {
                let mut found = None;
                for (i, (_, schema)) in self.entries.iter().enumerate() {
                    if let Some(j) = schema.column_index(&c.column) {
                        if found.is_some() {
                            return Err(DbError::AmbiguousColumn(c.column.clone()));
                        }
                        found = Some(self.offsets[i] + j);
                    }
                }
                found.ok_or_else(|| DbError::UnknownColumn(c.to_string()))
            }
        }
    }

    /// Positions (global range) of an entry by alias.
    pub fn entry_range(&self, alias: &str) -> Option<std::ops::Range<usize>> {
        self.entries.iter().enumerate().find_map(|(i, (a, s))| {
            (a == alias).then(|| self.offsets[i]..self.offsets[i] + s.arity())
        })
    }

    /// Fully-qualified output column names, in layout order.
    pub fn qualified_names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.width);
        for (alias, schema) in &self.entries {
            for c in &schema.columns {
                out.push(format!("{alias}.{}", c.name));
            }
        }
        out
    }
}

/// Runner for correlated scalar subqueries: implemented by the executor and
/// injected into evaluation so `expr` does not depend on `exec`.
pub trait QueryRunner {
    /// Execute `query` with the given correlation parameters (keys are
    /// `alias.column` strings) and return the result rows. Parameters are
    /// taken by value: callers build the map fresh per invocation, so the
    /// runner can keep it without another deep copy.
    fn run_subquery(
        &self,
        query: &SelectQuery,
        params: HashMap<String, Value>,
    ) -> DbResult<Vec<Row>>;
}

/// Evaluation context: statistics, UDFs, subquery runner, and any outer
/// correlation parameters already in scope.
pub struct EvalContext<'a> {
    /// The executing query's counters, charged by predicate evaluations
    /// and UDF work.
    pub stats: &'a CounterBlock,
    /// Registered UDFs.
    pub udfs: &'a UdfRegistry,
    /// Subquery runner (None disables scalar subqueries).
    pub runner: Option<&'a dyn QueryRunner>,
    /// Correlation parameters visible to nested subqueries.
    pub params: &'a HashMap<String, Value>,
}

/// A bound expression: column references resolved to row positions, or to
/// named correlation parameters when they refer to an enclosing query.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Column at a global row position.
    Slot(usize),
    /// Correlation parameter from an enclosing scope.
    Param(String),
    /// Binary comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// Inclusive range test.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Inclusive lower bound.
        low: Box<BoundExpr>,
        /// Inclusive upper bound.
        high: Box<BoundExpr>,
        /// NOT BETWEEN if true.
        negated: bool,
    },
    /// IN-list test.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// List elements.
        list: Vec<BoundExpr>,
        /// NOT IN if true.
        negated: bool,
    },
    /// NULL test.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// IS NOT NULL if true.
        negated: bool,
    },
    /// Short-circuit conjunction.
    And(Vec<BoundExpr>),
    /// Short-circuit disjunction.
    Or(Vec<BoundExpr>),
    /// Negation.
    Not(Box<BoundExpr>),
    /// UDF call.
    Udf {
        /// Function name.
        name: String,
        /// Bound arguments.
        args: Vec<BoundExpr>,
        /// The function, once [`BoundExpr::resolve_udfs`] has looked it
        /// up; unresolved calls look it up by name on every row.
        resolved: Option<ResolvedUdf>,
    },
    /// Correlated scalar subquery with its captured outer references:
    /// `(param name, outer slot)` pairs collected at bind time.
    ScalarSubquery {
        /// The unbound subquery (bound inside the runner per invocation
        /// scope).
        query: Box<SelectQuery>,
        /// Outer columns the subquery needs, as `(param name, outer slot)`.
        outer_refs: Vec<(String, usize)>,
    },
}

/// A UDF call site resolved by [`BoundExpr::resolve_udfs`].
#[derive(Clone)]
pub struct ResolvedUdf(Arc<dyn Udf>);

impl fmt::Debug for ResolvedUdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ResolvedUdf")
    }
}

/// Bind an expression against a layout.
///
/// Column references that do not resolve in `layout` bind as named
/// parameters when either (a) their printed name appears in `params`
/// (we are executing inside a correlated subquery whose outer row values
/// were captured), or (b) they resolve in `outer` (we are binding the outer
/// query and recording the correlation). Anything else is an error.
pub fn bind(
    expr: &Expr,
    layout: &Layout,
    outer: Option<&Layout>,
    params: &std::collections::HashSet<String>,
) -> DbResult<BoundExpr> {
    Ok(match expr {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Param(i) => {
            return Err(DbError::Unsupported(format!(
                "unbound placeholder ?{i}: bind parameters before execution"
            )))
        }
        Expr::Column(c) => match layout.resolve(c) {
            Ok(slot) => BoundExpr::Slot(slot),
            Err(e) => {
                let name = c.to_string();
                if params.contains(&name) {
                    BoundExpr::Param(name)
                } else if let Some(out) = outer {
                    if out.resolve(c).is_ok() {
                        BoundExpr::Param(name)
                    } else {
                        return Err(e);
                    }
                } else {
                    return Err(e);
                }
            }
        },
        Expr::Cmp { op, lhs, rhs } => BoundExpr::Cmp {
            op: *op,
            lhs: Box::new(bind(lhs, layout, outer, params)?),
            rhs: Box::new(bind(rhs, layout, outer, params)?),
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            expr: Box::new(bind(expr, layout, outer, params)?),
            low: Box::new(bind(low, layout, outer, params)?),
            high: Box::new(bind(high, layout, outer, params)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(bind(expr, layout, outer, params)?),
            list: list
                .iter()
                .map(|e| bind(e, layout, outer, params))
                .collect::<DbResult<_>>()?,
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(bind(expr, layout, outer, params)?),
            negated: *negated,
        },
        Expr::And(v) => BoundExpr::And(
            v.iter()
                .map(|e| bind(e, layout, outer, params))
                .collect::<DbResult<_>>()?,
        ),
        Expr::Or(v) => BoundExpr::Or(
            v.iter()
                .map(|e| bind(e, layout, outer, params))
                .collect::<DbResult<_>>()?,
        ),
        Expr::Not(e) => BoundExpr::Not(Box::new(bind(e, layout, outer, params)?)),
        Expr::Udf { name, args } => BoundExpr::Udf {
            name: name.clone(),
            args: args
                .iter()
                .map(|e| bind(e, layout, outer, params))
                .collect::<DbResult<_>>()?,
            resolved: None,
        },
        Expr::ScalarSubquery(q) => {
            // Collect the subquery's correlation needs: columns that do not
            // resolve against the subquery's own FROM entries but do resolve
            // in the current layout.
            let inner_layout_names: Vec<String> =
                q.from.iter().map(|t| t.alias.clone()).collect();
            let mut outer_refs: Vec<(String, usize)> = Vec::new();
            if let Some(pred) = &q.predicate {
                let mut err = None;
                pred.visit_columns(&mut |c| {
                    let is_inner = match &c.table {
                        Some(t) => inner_layout_names.iter().any(|a| a == t),
                        None => false, // unqualified: assume inner, resolved later
                    };
                    if !is_inner {
                        if let Ok(slot) = layout.resolve(c) {
                            let name = c.to_string();
                            if !outer_refs.iter().any(|(n, _)| *n == name) {
                                outer_refs.push((name, slot));
                            }
                        } else if c.table.is_some() && err.is_none() {
                            err = Some(DbError::UnknownColumn(c.to_string()));
                        }
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
            BoundExpr::ScalarSubquery {
                query: q.clone(),
                outer_refs,
            }
        }
    })
}

impl BoundExpr {
    /// Evaluate to a value.
    pub fn eval(&self, row: &[Value], ctx: &EvalContext<'_>) -> DbResult<Value> {
        Ok(self.eval_cow(row, ctx)?.into_owned())
    }

    /// Evaluate without materializing: slots and literals borrow instead of
    /// cloning, so the per-tuple filter loop allocates only for computed
    /// results (booleans, UDF outputs, subquery values). This is the hot
    /// path of every guarded-expression evaluation.
    pub fn eval_cow<'v>(
        &'v self,
        row: &'v [Value],
        ctx: &EvalContext<'_>,
    ) -> DbResult<Cow<'v, Value>> {
        Ok(match self {
            BoundExpr::Literal(v) => Cow::Borrowed(v),
            BoundExpr::Slot(i) => Cow::Borrowed(&row[*i]),
            BoundExpr::Param(name) => Cow::Owned(
                ctx.params
                    .get(name)
                    .cloned()
                    .ok_or_else(|| DbError::UnknownColumn(format!("parameter {name}")))?,
            ),
            BoundExpr::Cmp { op, lhs, rhs } => {
                let a = lhs.eval_cow(row, ctx)?;
                let b = rhs.eval_cow(row, ctx)?;
                ctx.stats.predicates(1);
                Cow::Owned(Value::Bool(op.apply(&a, &b)))
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_cow(row, ctx)?;
                let lo = low.eval_cow(row, ctx)?;
                let hi = high.eval_cow(row, ctx)?;
                ctx.stats.predicates(1);
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Cow::Owned(Value::Bool(false)));
                }
                let inside = *v >= *lo && *v <= *hi;
                Cow::Owned(Value::Bool(inside != *negated))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_cow(row, ctx)?;
                ctx.stats.predicates(1);
                if v.is_null() {
                    return Ok(Cow::Owned(Value::Bool(false)));
                }
                let mut found = false;
                for e in list {
                    if *e.eval_cow(row, ctx)? == *v {
                        found = true;
                        break;
                    }
                }
                Cow::Owned(Value::Bool(found != *negated))
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval_cow(row, ctx)?;
                ctx.stats.predicates(1);
                Cow::Owned(Value::Bool(v.is_null() != *negated))
            }
            BoundExpr::And(parts) => {
                for p in parts {
                    if !p.eval_bool(row, ctx)? {
                        return Ok(Cow::Owned(Value::Bool(false)));
                    }
                }
                Cow::Owned(Value::Bool(true))
            }
            BoundExpr::Or(parts) => {
                for p in parts {
                    if p.eval_bool(row, ctx)? {
                        return Ok(Cow::Owned(Value::Bool(true)));
                    }
                }
                Cow::Owned(Value::Bool(false))
            }
            BoundExpr::Not(e) => Cow::Owned(Value::Bool(!e.eval_bool(row, ctx)?)),
            BoundExpr::Udf {
                name,
                args,
                resolved,
            } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(row, ctx)?);
                }
                let udf_ctx = UdfContext { stats: ctx.stats };
                Cow::Owned(match resolved {
                    Some(f) => crate::udf::call(f.0.as_ref(), &vals, &udf_ctx)?,
                    None => ctx.udfs.invoke(name, &vals, &udf_ctx)?,
                })
            }
            BoundExpr::ScalarSubquery { query, outer_refs } => {
                let runner = ctx.runner.ok_or_else(|| {
                    DbError::Unsupported("scalar subquery outside executor".into())
                })?;
                let mut params = ctx.params.clone();
                for (name, slot) in outer_refs {
                    params.insert(name.clone(), row[*slot].clone());
                }
                let rows = runner.run_subquery(query, params)?;
                Cow::Owned(match rows.into_iter().next() {
                    Some(r) => r.into_iter().next().unwrap_or(Value::Null),
                    None => Value::Null,
                })
            }
        })
    }

    /// Resolve every UDF call site against `udfs` once, so evaluation
    /// skips the per-row registry lookup, and a UDF may specialize to its
    /// literal arguments (∆ resolves its partition here). Scalar subqueries
    /// are left alone: they bind their own plans when they run.
    pub fn resolve_udfs(&mut self, udfs: &UdfRegistry) {
        match self {
            BoundExpr::Literal(_)
            | BoundExpr::Slot(_)
            | BoundExpr::Param(_)
            | BoundExpr::ScalarSubquery { .. } => {}
            BoundExpr::Cmp { lhs, rhs, .. } => {
                lhs.resolve_udfs(udfs);
                rhs.resolve_udfs(udfs);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.resolve_udfs(udfs);
                low.resolve_udfs(udfs);
                high.resolve_udfs(udfs);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.resolve_udfs(udfs);
                list.iter_mut().for_each(|e| e.resolve_udfs(udfs));
            }
            BoundExpr::IsNull { expr, .. } | BoundExpr::Not(expr) => expr.resolve_udfs(udfs),
            BoundExpr::And(parts) | BoundExpr::Or(parts) => {
                parts.iter_mut().for_each(|e| e.resolve_udfs(udfs));
            }
            BoundExpr::Udf {
                name,
                args,
                resolved,
            } => {
                args.iter_mut().for_each(|e| e.resolve_udfs(udfs));
                let literals: Vec<Option<&Value>> = args
                    .iter()
                    .map(|a| match a {
                        BoundExpr::Literal(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                *resolved = udfs.resolve(name, &literals).map(ResolvedUdf);
            }
        }
    }

    /// Operand as a direct reference when it is a slot or literal — the
    /// shape of every policy object-condition operand.
    #[inline]
    fn fast_ref<'r>(&'r self, row: &'r [Value]) -> Option<&'r Value> {
        match self {
            BoundExpr::Literal(v) => Some(v),
            BoundExpr::Slot(i) => Some(&row[*i]),
            _ => None,
        }
    }

    /// Evaluate as a boolean; non-boolean, non-null results are a type
    /// error, NULL is false.
    ///
    /// The boolean combinators and slot/literal comparison shapes — the
    /// entirety of a compiled guard expression — are evaluated directly,
    /// without constructing intermediate values at all.
    pub fn eval_bool(&self, row: &[Value], ctx: &EvalContext<'_>) -> DbResult<bool> {
        match self {
            BoundExpr::And(parts) => {
                for p in parts {
                    if !p.eval_bool(row, ctx)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            BoundExpr::Or(parts) => {
                for p in parts {
                    if p.eval_bool(row, ctx)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            BoundExpr::Not(e) => Ok(!e.eval_bool(row, ctx)?),
            BoundExpr::Cmp { op, lhs, rhs } => {
                if let (Some(a), Some(b)) = (lhs.fast_ref(row), rhs.fast_ref(row)) {
                    ctx.stats.predicates(1);
                    return Ok(op.apply(a, b));
                }
                self.eval_bool_generic(row, ctx)
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                if let (Some(v), Some(lo), Some(hi)) = (
                    expr.fast_ref(row),
                    low.fast_ref(row),
                    high.fast_ref(row),
                ) {
                    ctx.stats.predicates(1);
                    if v.is_null() || lo.is_null() || hi.is_null() {
                        return Ok(false);
                    }
                    let inside = v >= lo && v <= hi;
                    return Ok(inside != *negated);
                }
                self.eval_bool_generic(row, ctx)
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                if let Some(v) = expr.fast_ref(row) {
                    if list.iter().all(|e| matches!(e, BoundExpr::Literal(_))) {
                        ctx.stats.predicates(1);
                        if v.is_null() {
                            return Ok(false);
                        }
                        let found = list
                            .iter()
                            .any(|e| matches!(e, BoundExpr::Literal(x) if x == v));
                        return Ok(found != *negated);
                    }
                }
                self.eval_bool_generic(row, ctx)
            }
            BoundExpr::IsNull { expr, negated } => {
                if let Some(v) = expr.fast_ref(row) {
                    ctx.stats.predicates(1);
                    return Ok(v.is_null() != *negated);
                }
                self.eval_bool_generic(row, ctx)
            }
            _ => self.eval_bool_generic(row, ctx),
        }
    }

    fn eval_bool_generic(&self, row: &[Value], ctx: &EvalContext<'_>) -> DbResult<bool> {
        match &*self.eval_cow(row, ctx)? {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(DbError::TypeError(format!(
                "expected boolean predicate, got {other}"
            ))),
        }
    }
}

/// A pre-bound predicate program for batched filtering: the executor binds
/// a predicate once, then drives whole batches of rows through it, keeping
/// a selection vector of survivors so only output rows are ever cloned.
/// Constant predicates (the guarded rewrite's default-deny `FALSE`, or an
/// absent WHERE clause) are recognized up front and never touch a row.
#[derive(Debug)]
pub enum FilterProgram {
    /// No predicate, or a constant-true one: every row survives.
    KeepAll,
    /// Constant-false predicate: no row survives (and no input need be
    /// read at all — callers should check [`FilterProgram::drops_all`]).
    DropAll,
    /// Evaluate the bound expression per row.
    Eval(BoundExpr),
}

impl FilterProgram {
    /// Compile from an optional bound predicate.
    pub fn new(bound: Option<BoundExpr>) -> Self {
        match bound {
            None => FilterProgram::KeepAll,
            Some(BoundExpr::Literal(Value::Bool(false))) => FilterProgram::DropAll,
            Some(BoundExpr::Literal(Value::Bool(true))) => FilterProgram::KeepAll,
            Some(b) => FilterProgram::Eval(b),
        }
    }

    /// True iff the program is constant-false.
    pub fn drops_all(&self) -> bool {
        matches!(self, FilterProgram::DropAll)
    }

    /// Evaluate one row.
    pub fn matches(&self, row: &[Value], ctx: &EvalContext<'_>) -> DbResult<bool> {
        match self {
            FilterProgram::KeepAll => Ok(true),
            FilterProgram::DropAll => Ok(false),
            FilterProgram::Eval(b) => b.eval_bool(row, ctx),
        }
    }

    /// Evaluate a batch, appending the indices of surviving items to the
    /// selection vector `sel`. `row_of` projects each batch item to its
    /// row (batches carry `&Row` or `(RowId, &Row)` depending on the
    /// access path).
    pub fn select_into<T>(
        &self,
        batch: &[T],
        row_of: impl Fn(&T) -> &[Value],
        ctx: &EvalContext<'_>,
        sel: &mut Vec<u32>,
    ) -> DbResult<()> {
        match self {
            FilterProgram::KeepAll => sel.extend(0..batch.len() as u32),
            FilterProgram::DropAll => {}
            FilterProgram::Eval(b) => {
                for (i, item) in batch.iter().enumerate() {
                    if b.eval_bool(row_of(item), ctx)? {
                        sel.push(i as u32);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn layout() -> Layout {
        Layout::single(
            "w",
            Arc::new(TableSchema::of(
                "wifi",
                &[
                    ("owner", DataType::Int),
                    ("wifi_ap", DataType::Int),
                    ("ts_time", DataType::Time),
                ],
            )),
        )
    }

    fn ctx<'a>(
        stats: &'a CounterBlock,
        udfs: &'a UdfRegistry,
        params: &'a HashMap<String, Value>,
    ) -> EvalContext<'a> {
        EvalContext {
            stats,
            udfs,
            runner: None,
            params,
        }
    }

    #[test]
    fn bind_and_eval_comparison() {
        let l = layout();
        let e = Expr::col_eq(ColumnRef::qualified("w", "owner"), Value::Int(7));
        let b = bind(&e, &l, None, &Default::default()).unwrap();
        let stats = CounterBlock::new();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&stats, &udfs, &params);
        let row = vec![Value::Int(7), Value::Int(1200), Value::Time(3600)];
        assert!(b.eval_bool(&row, &c).unwrap());
        let row2 = vec![Value::Int(8), Value::Int(1200), Value::Time(3600)];
        assert!(!b.eval_bool(&row2, &c).unwrap());
        assert_eq!(stats.snapshot().predicate_evals, 2);
    }

    #[test]
    fn unqualified_resolution_and_ambiguity() {
        let mut l = layout();
        assert!(l.resolve(&ColumnRef::bare("wifi_ap")).is_ok());
        // Add a second table that also has `owner`: bare `owner` becomes
        // ambiguous but qualified refs still resolve.
        l.push(
            "g",
            Arc::new(TableSchema::of("grades", &[("owner", DataType::Int)])),
        );
        assert_eq!(
            l.resolve(&ColumnRef::bare("owner")),
            Err(DbError::AmbiguousColumn("owner".into()))
        );
        assert_eq!(l.resolve(&ColumnRef::qualified("g", "owner")), Ok(3));
    }

    #[test]
    fn and_short_circuits() {
        let l = layout();
        let e = Expr::And(vec![
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)),
            Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(9)),
        ]);
        let b = bind(&e, &l, None, &Default::default()).unwrap();
        let stats = CounterBlock::new();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&stats, &udfs, &params);
        // First conjunct false: second must not be evaluated.
        let row = vec![Value::Int(0), Value::Int(9), Value::Time(0)];
        assert!(!b.eval_bool(&row, &c).unwrap());
        assert_eq!(stats.snapshot().predicate_evals, 1);
    }

    #[test]
    fn or_short_circuits() {
        let l = layout();
        let e = Expr::Or(vec![
            Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1)),
            Expr::col_eq(ColumnRef::bare("wifi_ap"), Value::Int(9)),
        ]);
        let b = bind(&e, &l, None, &Default::default()).unwrap();
        let stats = CounterBlock::new();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&stats, &udfs, &params);
        let row = vec![Value::Int(1), Value::Int(0), Value::Time(0)];
        assert!(b.eval_bool(&row, &c).unwrap());
        assert_eq!(stats.snapshot().predicate_evals, 1);
    }

    #[test]
    fn between_and_in_semantics() {
        let l = layout();
        let between = Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("ts_time"))),
            low: Box::new(Expr::Literal(Value::Time(9 * 3600))),
            high: Box::new(Expr::Literal(Value::Time(10 * 3600))),
            negated: false,
        };
        let b = bind(&between, &l, None, &Default::default()).unwrap();
        let stats = CounterBlock::new();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&stats, &udfs, &params);
        let at_nine = vec![Value::Int(0), Value::Int(0), Value::Time(9 * 3600)];
        let at_noon = vec![Value::Int(0), Value::Int(0), Value::Time(12 * 3600)];
        assert!(b.eval_bool(&at_nine, &c).unwrap());
        assert!(!b.eval_bool(&at_noon, &c).unwrap());

        let inlist = Expr::InList {
            expr: Box::new(Expr::Column(ColumnRef::bare("wifi_ap"))),
            list: vec![Expr::Literal(Value::Int(1200)), Expr::Literal(Value::Int(1201))],
            negated: true,
        };
        let b2 = bind(&inlist, &l, None, &Default::default()).unwrap();
        let row = vec![Value::Int(0), Value::Int(1300), Value::Time(0)];
        assert!(b2.eval_bool(&row, &c).unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        let l = layout();
        let e = Expr::col_cmp(ColumnRef::bare("owner"), CmpOp::Ne, Value::Int(5));
        let b = bind(&e, &l, None, &Default::default()).unwrap();
        let stats = CounterBlock::new();
        let udfs = UdfRegistry::new();
        let params = HashMap::new();
        let c = ctx(&stats, &udfs, &params);
        let row = vec![Value::Null, Value::Int(0), Value::Time(0)];
        assert!(!b.eval_bool(&row, &c).unwrap());
    }

    #[test]
    fn udf_called_through_expr() {
        let l = layout();
        let mut udfs = UdfRegistry::new();
        udfs.register(
            "is_even",
            Arc::new(|args: &[Value], _: &UdfContext<'_>| {
                Ok(Value::Bool(args[0].as_int().unwrap_or(1) % 2 == 0))
            }),
        );
        let e = Expr::Udf {
            name: "is_even".into(),
            args: vec![Expr::Column(ColumnRef::bare("owner"))],
        };
        let b = bind(&e, &l, None, &Default::default()).unwrap();
        let stats = CounterBlock::new();
        let params = HashMap::new();
        let c = ctx(&stats, &udfs, &params);
        let row = vec![Value::Int(4), Value::Int(0), Value::Time(0)];
        assert!(b.eval_bool(&row, &c).unwrap());
        assert_eq!(stats.snapshot().udf_invocations, 1);
    }

    #[test]
    fn unknown_column_fails_at_bind() {
        let l = layout();
        let e = Expr::col_eq(ColumnRef::bare("missing"), Value::Int(1));
        assert!(matches!(
            bind(&e, &l, None, &Default::default()),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn flip_operator() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Ge.flip(), CmpOp::Le);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn builders_flatten() {
        let a = Expr::col_eq(ColumnRef::bare("owner"), Value::Int(1));
        let b = Expr::col_eq(ColumnRef::bare("owner"), Value::Int(2));
        let c2 = Expr::col_eq(ColumnRef::bare("owner"), Value::Int(3));
        let combined = Expr::and(Expr::and(a, b), c2);
        match combined {
            Expr::And(v) => assert_eq!(v.len(), 3),
            other => panic!("expected flat AND, got {other:?}"),
        }
    }
}
