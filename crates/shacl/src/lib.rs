//! SHACL Core front-end for the shapex derivative engine.
//!
//! This crate parses a [SHACL](https://www.w3.org/TR/shacl/) Core shapes
//! graph (Turtle or N-Triples, via `shapex-rdf`) and compiles it onto the
//! engine's regular shape expressions, so SHACL validation runs on the
//! same derivative machinery — DFA caching, budgets, parallel typing,
//! incremental revalidation — as ShEx. The translation is documented
//! term by term in DESIGN.md §5h; its two pillars:
//!
//! * **Per-path counting.** A property shape on path `p` with value
//!   constraint `C` and cardinality `min`/`max` becomes the counted arc
//!   `(p → C){min,max}`. Paths are conjoined with the partition operator
//!   `‖` and the engine runs with the *open* closure, so each path's
//!   triples are counted independently — exactly SHACL's semantics.
//! * **Fail, don't skip.** Every SHACL Core term is either translated or
//!   rejected at compile time with a term-identified error (`E001`…).
//!   A shapes graph never validates vacuously because a constraint was
//!   silently dropped.
//!
//! Constraints the shape-expression algebra cannot express — tests on
//! the focus node itself, verdict-level `sh:and`/`sh:or`/`sh:not`/
//! `sh:xone`, report attribution — live in a thin front end
//! ([`ShaclValidator`]) layered over the engine.
//!
//! # Example
//!
//! ```
//! use shapex::EngineConfig;
//! use shapex_rdf::{turtle, DataFormat};
//!
//! let shapes = r#"
//!     @prefix sh: <http://www.w3.org/ns/shacl#> .
//!     @prefix ex: <http://example.org/> .
//!     @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
//!     ex:PersonShape a sh:NodeShape ;
//!       sh:targetClass ex:Person ;
//!       sh:property [ sh:path ex:name ; sh:minCount 1 ; sh:datatype xsd:string ] .
//! "#;
//! let schema = shapex_shacl::compile(&turtle::parse(shapes).unwrap()).unwrap();
//! assert_eq!(schema.shape_count(), 2); // node shape + property shape
//!
//! let mut data = turtle::parse(r#"
//!     @prefix ex: <http://example.org/> .
//!     ex:alice a ex:Person ; ex:name "Alice" .
//!     ex:bob a ex:Person .
//! "#).unwrap();
//! let config = EngineConfig::default();
//! let mut validator =
//!     shapex_shacl::load_validator("shapes", shapes, DataFormat::Turtle, &mut data.pool, config)
//!         .unwrap();
//! let outcome = validator.validate_par(&mut data, 1);
//! assert_eq!(outcome.conforms(), Some(false)); // bob has no name
//!
//! let report = shapex_shacl::shacl_report(&outcome, validator.engine());
//! assert!(report.contains("sh:MinCountConstraintComponent"));
//! ```
//!
//! Unsupported terms fail compilation with their error code, never
//! validate vacuously:
//!
//! ```
//! use shapex_rdf::turtle;
//!
//! let shapes = turtle::parse(r#"
//!     @prefix sh: <http://www.w3.org/ns/shacl#> .
//!     @prefix ex: <http://example.org/> .
//!     ex:S a sh:NodeShape ; sh:targetNode ex:n ; sh:sparql [ ] .
//! "#).unwrap();
//! let e = shapex_shacl::compile(&shapes).unwrap_err();
//! assert_eq!(e.code, "E001");
//! assert!(e.to_string().contains("sh:sparql"));
//! ```

#![warn(missing_docs)]

mod compile;
mod model;
mod report;
mod target;
mod validate;

pub use compile::{compile, ShaclSchema};
pub use report::{render_text, shacl_report, shacl_run_report};
pub use validate::{
    load_validator, ExhaustedTarget, ShaclOutcome, ShaclValidator, ValidationResult,
};

/// A compile-time SHACL front-end error. Every error carries a stable
/// code (documented in DESIGN.md §5h) so tests and tooling can assert on
/// the failure class rather than on message text:
///
/// | code | meaning |
/// |------|---------|
/// | `E001` | unsupported or unrecognised SHACL term |
/// | `E002` | unsupported `sh:path` form (sequence, alternative, …) |
/// | `E003` | malformed RDF list |
/// | `E004` | malformed constraint parameter value |
/// | `E005` | `sh:property` target without `sh:path` |
/// | `E006` | untranslatable constraint combination on one path |
/// | `E007` | recursion through verdict-level logical operators |
/// | `E008` | compiled schema rejected by the engine |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShaclError {
    /// Stable error class, `"E001"`…`"E008"`.
    pub code: &'static str,
    /// Human-readable description naming the offending term and shape.
    pub detail: String,
}

impl std::fmt::Display for ShaclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ShaclError {}

pub(crate) fn err(code: &'static str, detail: impl Into<String>) -> ShaclError {
    ShaclError {
        code,
        detail: detail.into(),
    }
}

// The worked example under fixtures/shacl/ compiles and runs as a
// doctest, so the documented walkthrough can never drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../../../fixtures/shacl/README.md")]
pub struct FixturesWorkedExample;
