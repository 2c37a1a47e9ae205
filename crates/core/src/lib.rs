//! `sieve-core` — the SIEVE middleware (Pappachan et al., VLDB 2020).
//!
//! SIEVE makes fine-grained access control scale to thousands of per-user
//! policies by combining two reductions (paper Section 3.2):
//!
//! 1. **Fewer policies per tuple** — filter policies by query metadata
//!    ([`filter`]), then use tuple context inside the ∆ operator
//!    ([`delta`]) so each tuple is only checked against its owner's
//!    policies.
//! 2. **Fewer tuples per policy** — factor the policy set into *guarded
//!    expressions* ([`guard`]): cheap index-supported predicates, each
//!    guarding a partition of the policies, selected by the cost model
//!    ([`cost`]) via candidate merging (Theorem 1) and utility-greedy set
//!    cover (Algorithm 1).
//!
//! The middleware is [`service::SieveService`] — one concurrent object
//! (`Send + Sync`, cheap clones, the whole query path at `&self`) that
//! a single caller owns or a server shares across connection threads,
//! configured by [`SieveOptions`]. Per-querier [`session::Session`]
//! handles capture the metadata once, and [`session::Prepared`]
//! statements pin a compiled rewrite for repeated zero-middleware
//! execution.
//!
//! A query plus its metadata is rewritten ([`rewrite`]) with
//! `WITH` clauses, index hints and inline-vs-∆ choices, and executed on a
//! pluggable execution backend ([`backend::SqlBackend`] — the in-process
//! [`minidb::Database`] by default, or the textual
//! [`backend::WireSqlBackend`] which ships rendered SQL across a simulated
//! wire as the paper's middleware does against a real server).
//! [`baselines`] implements the paper's comparison
//! strategies and [`semantics`] the reference oracle both are tested
//! against. [`dynamic`] adds the Section 6 machinery for evolving policy
//! sets, and [`store`] persists policies and guards as regular relations
//! (`rP`, `rOC`, `rGE`, `rGG`, `rGP`). [`deny`] folds deny policies into
//! the allow-only model the enforcement path assumes. [`batch`] amortizes
//! guard generation across batches of concurrent queriers — shared
//! candidate generation per `(purpose, relation)` group, per-querier set
//! cover (parallelized across threads under the service).

#![warn(missing_docs)]
// The query path must fail closed with typed errors, never panic: gate
// `unwrap`/`expect`/`panic!` behind clippy's disallowed lists (see the
// root `clippy.toml`). Tests opt back in — a failed assertion *should*
// panic there.
#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]

pub mod analyze;
pub mod backend;
pub mod baselines;
pub mod batch;
pub mod cache;
pub mod cost;
pub mod delta;
pub mod deny;
pub mod dynamic;
pub mod error;
pub mod filter;
pub mod guard;
pub mod lru;
pub mod middleware;
pub mod policy;
pub mod rewrite;
pub mod semantics;
pub mod service;
pub mod session;
pub mod store;
pub mod visitor;

pub use analyze::{AnalysisReport, Finding, FindingKind, Verdict};
pub use backend::{
    BackendError, BackendResult, Fault, FaultConfig, FaultCounts, FaultInjectingBackend,
    SqlBackend, WireSqlBackend,
};
pub use batch::{BatchGroupReport, BatchPrepareReport};
pub use error::{SieveError, SieveResult};
pub use cache::{GuardCache, GuardCacheStats};
pub use cost::{AccessStrategy, CostModel, StrategyCosts};
pub use filter::{policy_applies, relevant_policies, GroupDirectory};
pub use guard::{Guard, GuardSelectionStrategy, GuardedExpression};
pub use middleware::{RetryPolicy, SieveOptions};
pub use policy::{
    Action, CondPredicate, ObjectCondition, Policy, PolicyId, QuerierSpec, QueryMetadata,
    UserId, OWNER_ATTR, PURPOSE_ANY,
};
pub use service::{RecoveryStats, SieveService};
pub use session::{Prepared, Session};
