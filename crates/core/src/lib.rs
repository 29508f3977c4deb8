#![warn(missing_docs)]
//! # shapex
//!
//! RDF validation with regular-expression derivatives — a Rust
//! implementation of *"Towards an RDF Validation Language Based on Regular
//! Expression Derivatives"* (EDBT/ICDT 2015 workshops).
//!
//! The validator checks RDF nodes against *Regular Shape Expressions* by
//! consuming the node's neighbourhood one triple at a time and taking the
//! Brzozowski-style derivative of the expression at each step — no graph
//! decomposition, no backtracking (contrast with the
//! [`shapex-backtrack`](https://example.org) baseline crate).
//!
//! ```
//! use shapex::{Engine, validate};
//!
//! let report = validate(
//!     r#"
//!     PREFIX foaf: <http://xmlns.com/foaf/0.1/>
//!     PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
//!     <Person> {
//!       foaf:age xsd:integer
//!       , foaf:name xsd:string+
//!       , foaf:knows @<Person>*
//!     }
//!     "#,
//!     r#"
//!     @prefix : <http://example.org/> .
//!     @prefix foaf: <http://xmlns.com/foaf/0.1/> .
//!     :john foaf:age 23; foaf:name "John"; foaf:knows :bob .
//!     :bob foaf:age 34; foaf:name "Bob", "Robert" .
//!     :mary foaf:age 50, 65 .
//!     "#,
//! ).unwrap();
//!
//! assert!(report.conforms("http://example.org/john", "Person"));
//! assert!(report.conforms("http://example.org/bob", "Person"));
//! assert!(!report.conforms("http://example.org/mary", "Person"));
//! ```

// Compile the README's Rust code blocks as doctests so the quick-start
// examples cannot rot out of sync with the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

pub mod arena;
pub mod budget;
pub mod calculus;
pub mod compile;
pub mod dfa;
pub mod engine;
pub mod metrics;
pub mod report;
pub mod result;
pub mod sched;
pub mod sorbe;
pub mod validate;

pub use arena::{ArcId, ExprId, ExprPool, Node, Simplify, EMPTY, EPSILON, UNBOUNDED};
pub use budget::{Budget, BudgetMeter, Exhaustion, Resource};
pub use calculus::{containment, emptiness, schema_diff, SchemaDiff, Verdict};
pub use compile::{CompiledSchema, ShapeId, SorbeSpec};
pub use dfa::{ShapeDfa, Transition};
pub use engine::{
    Closure, Engine, EngineConfig, EngineError, InvalidationPlan, MapOutcome, SchemaSwap, Trace,
    TraceStep,
};
pub use metrics::{
    CacheMetrics, DfaShapeMetrics, Metrics, ShapeMetrics, ShardMetrics, WaveMetrics,
};
pub use result::{Failure, FailureKind, MatchResult, Outcome, Stats, Typing};
pub use sched::{Executor, ExecutorCounters};
pub use validate::{default_jobs, validate, validate_par, validate_with_budget, Report};

// Re-export the substrate crates so downstream users need a single
// dependency.
pub use shapex_rdf as rdf;
pub use shapex_rdf::failpoint;
pub use shapex_shex as shex;
