#![warn(missing_docs)]
//! # shapex-shex
//!
//! Regular Shape Expressions (the paper's §4 algebra and §8 schemas), node
//! constraints, the ShExC compact-syntax parser, a pretty-printer, and the
//! Brzozowski string-regex engine backing the `PATTERN` facet.
//!
//! ```
//! use shapex_shex::shexc;
//!
//! let schema = shexc::parse(r#"
//!     PREFIX foaf: <http://xmlns.com/foaf/0.1/>
//!     PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
//!     <Person> {
//!       foaf:age xsd:integer
//!       , foaf:name xsd:string+
//!       , foaf:knows @<Person>*
//!     }
//! "#).unwrap();
//! assert!(schema.is_recursive(&"Person".into()));
//! ```

pub mod ast;
pub mod constraint;
pub mod display;
pub mod lints;
pub mod sat;
pub mod schema;
pub mod shapemap;
pub mod shexc;
pub mod shexj;
pub mod strre;

pub use ast::{ArcConstraint, ObjectConstraint, PredicateSet, ShapeExpr, ShapeLabel};
pub use constraint::{Facet, NodeConstraint, NodeKind, Pattern, ValueSetValue};
pub use sat::{conj_sat, constraint_sat, Sat3};
pub use schema::{Schema, SchemaError};
pub use shapemap::{Association, ShapeMap};
