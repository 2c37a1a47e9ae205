//! User-defined functions.
//!
//! SIEVE's ∆ operator (paper Section 5.2) is implemented as a UDF layered on
//! the engine, exactly as the paper layers it on MySQL/PostgreSQL. The
//! registry charges the fixed invocation overhead (`UDF_inv`) on every call;
//! whatever work the UDF body does (policy fetches, per-policy evaluation —
//! the paper's `UDF_exec`) is charged by the body itself to the calling
//! query's counter block.

use crate::error::{DbError, DbResult};
use crate::stats::CounterBlock;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Context handed to a UDF invocation.
pub struct UdfContext<'a> {
    /// The executing query's counters; UDF bodies charge their work here.
    pub stats: &'a CounterBlock,
}

/// A user-defined scalar function.
pub trait Udf: Send + Sync {
    /// Invoke the function on already-evaluated arguments.
    fn invoke(&self, args: &[Value], ctx: &UdfContext<'_>) -> DbResult<Value>;

    /// This function specialized to one call site, given the arguments
    /// that are literals there (`None` for the others). The executor asks
    /// once per execution and calls the result for every row, so a UDF
    /// can do its per-call-site lookups once instead of per row. `None`,
    /// the default, keeps the function as registered.
    fn specialize(&self, _literals: &[Option<&Value>]) -> Option<Arc<dyn Udf>> {
        None
    }
}

/// Call `f`, charging the invocation overhead to the calling query.
pub fn call(f: &dyn Udf, args: &[Value], ctx: &UdfContext<'_>) -> DbResult<Value> {
    ctx.stats.udf_invocation();
    f.invoke(args, ctx)
}

/// Blanket impl so closures register directly.
impl<F> Udf for F
where
    F: Fn(&[Value], &UdfContext<'_>) -> DbResult<Value> + Send + Sync,
{
    fn invoke(&self, args: &[Value], ctx: &UdfContext<'_>) -> DbResult<Value> {
        self(args, ctx)
    }
}

/// Registry of UDFs by (case-insensitive) name.
#[derive(Default, Clone)]
pub struct UdfRegistry {
    funcs: HashMap<String, Arc<dyn Udf>>,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function, replacing any existing one with the same name.
    pub fn register(&mut self, name: impl Into<String>, f: Arc<dyn Udf>) {
        self.funcs.insert(name.into().to_ascii_lowercase(), f);
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> DbResult<Arc<dyn Udf>> {
        self.funcs
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DbError::UnknownUdf(name.to_string()))
    }

    /// True iff a function with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.funcs.contains_key(&name.to_ascii_lowercase())
    }

    /// Resolve one call site: the registered function, specialized to the
    /// site's literal arguments where it supports that
    /// ([`Udf::specialize`]). `None` for an unknown name, whose calls then
    /// fail when evaluated.
    pub fn resolve(&self, name: &str, literals: &[Option<&Value>]) -> Option<Arc<dyn Udf>> {
        let f = self.get(name).ok()?;
        Some(f.specialize(literals).unwrap_or(f))
    }

    /// Invoke by name, charging the invocation overhead.
    pub fn invoke(&self, name: &str, args: &[Value], ctx: &UdfContext<'_>) -> DbResult<Value> {
        let f = self
            .funcs
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownUdf(name.to_string()))?;
        call(f.as_ref(), args, ctx)
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&String> = self.funcs.keys().collect();
        names.sort();
        f.debug_struct("UdfRegistry").field("funcs", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_udf_roundtrip() {
        let mut reg = UdfRegistry::new();
        reg.register(
            "double_it",
            Arc::new(|args: &[Value], _ctx: &UdfContext<'_>| {
                let n = args[0]
                    .as_int()
                    .ok_or_else(|| DbError::TypeError("int expected".into()))?;
                Ok(Value::Int(n * 2))
            }),
        );
        let stats = CounterBlock::new();
        let ctx = UdfContext { stats: &stats };
        let out = reg.invoke("DOUBLE_IT", &[Value::Int(21)], &ctx).unwrap();
        assert_eq!(out, Value::Int(42));
        assert_eq!(stats.snapshot().udf_invocations, 1);
    }

    #[test]
    fn unknown_udf_errors() {
        let reg = UdfRegistry::new();
        let stats = CounterBlock::new();
        let ctx = UdfContext { stats: &stats };
        assert_eq!(
            reg.invoke("nope", &[], &ctx),
            Err(DbError::UnknownUdf("nope".into()))
        );
        // A failed lookup must not charge an invocation.
        assert_eq!(stats.snapshot().udf_invocations, 0);
    }

    #[test]
    fn registration_is_case_insensitive() {
        let mut reg = UdfRegistry::new();
        reg.register(
            "Delta",
            Arc::new(|_: &[Value], _: &UdfContext<'_>| Ok(Value::Bool(true))),
        );
        assert!(reg.contains("delta"));
        assert!(reg.contains("DELTA"));
    }
}
