#![warn(missing_docs)]
//! # shapex-rdf
//!
//! The RDF substrate for the `shapex` validator: an in-memory, interned
//! triple store with the graph operations the paper's validation algorithms
//! need (most importantly node neighbourhoods `Σg_n`), plus Turtle and
//! N-Triples parsers, serializers, and XSD datatype support.
//!
//! ## Quick tour
//!
//! ```
//! use shapex_rdf::turtle;
//!
//! let ds = turtle::parse(r#"
//!     @prefix : <http://example.org/> .
//!     @prefix foaf: <http://xmlns.com/foaf/0.1/> .
//!     :john foaf:age 23; foaf:name "John" .
//! "#).unwrap();
//!
//! let john = ds.iri("http://example.org/john").unwrap();
//! assert_eq!(ds.graph.neighbourhood(john).len(), 2);
//! ```

pub mod delta;
pub mod failpoint;
pub mod format;
pub mod graph;
pub mod ntriples;
pub mod parser;
pub mod pool;
pub mod term;
pub mod turtle;
pub mod vocab;
pub mod writer;
pub mod xsd;

pub use delta::{AppliedDelta, DeltaApplyError, DeltaError, GraphDelta};
pub use format::DataFormat;
pub use graph::{Arc, Dataset, Graph, Triple};
pub use parser::{ParseError, ReadError};
pub use pool::{TermId, TermPool};
pub use term::{BlankNode, Iri, Literal, LiteralRef, Term, TermRef};
