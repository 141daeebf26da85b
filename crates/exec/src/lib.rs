//! # xqp-exec — physical operators and the query executor
//!
//! The physical layer beneath the logical algebra (§4 of the paper). One
//! logical operator maps to several physical access methods with different
//! costs; this crate implements them all so the planner — and the
//! experiments — can compare them:
//!
//! * [`nok`] — the **NoK navigational pattern matcher**: pure next-of-kin
//!   patterns are evaluated in a *single pre-order scan* of the succinct
//!   structure, with no structural joins (§4.2); general patterns are
//!   partitioned into NoK subpatterns reconnected by structural joins (the
//!   hybrid approach, rewrite R3).
//! * [`structural`] — binary **stack-tree structural joins** over interval
//!   (region-encoded) tag streams (Al-Khalifa et al.), the join-based
//!   baseline, with join-order selection by the cost model (R4).
//! * [`twig`] — **PathStack / TwigStack** holistic twig joins (Bruno et
//!   al.), the strongest join-based baseline.
//! * [`naive`] — classic node-at-a-time navigation over all XPath axes: the
//!   "mature navigational engine" comparator and the semantic reference the
//!   property tests check every other method against. Its worst case is the
//!   exponential blow-up of experiment E4 ([4] in the paper).
//! * [`streaming`] — the NoK matcher running over a live SAX event stream,
//!   exploiting that pre-order storage coincides with arrival order.
//! * [`construct`] — the γ operator: SchemaTree + bindings → output tree.
//! * [`eval`] — the scalar expression evaluator (paths, arithmetic,
//!   functions, constructors), invoked per binding by either FLWOR backend.
//! * [`functions`] — the extensible built-in registry: name + arity +
//!   streaming-capable flag per entry, with fold operators giving the
//!   aggregates a streaming physical form (§14).
//! * [`physical`] — the **streaming physical pipeline** for FLWOR plans:
//!   `LogicalPlan` clauses lower to pull-based operators that stream total
//!   bindings batch-at-a-time, annotated by the whole-plan cost model.
//! * [`materialize`] — the materializing `Env` interpreter: the reference
//!   semantics the pipeline is checked against, and the E16 baseline.
//!
//! [`engine::Executor`] is the crate's front door.

pub mod cache;
pub mod construct;
pub mod context;
pub mod differential;
pub mod engine;
pub mod eval;
pub mod functions;
pub mod governor;
pub mod materialize;
pub mod mvcc;
pub mod naive;
pub mod nok;
pub mod parallel;
pub mod physical;
pub mod planner;
pub mod streaming;
pub mod structural;
pub mod twig;

pub use cache::{CompiledPlan, PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
pub use context::{ExecContext, ExecCounters, NodeRef, StructuralIndex, Val, XqError};
pub use engine::Executor;
pub use functions::{FnEntry, Fold};
pub use governor::{CancelToken, GovernorStats, QueryLimits, ResourceGovernor};
pub use mvcc::{DocVersion, VersionedDoc};
pub use physical::{EvalError, EvalMode, PhysicalPlan, BATCH_SIZE};
pub use planner::Strategy;
