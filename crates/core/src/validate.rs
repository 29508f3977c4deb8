//! One-call convenience API: parse a ShExC schema and a Turtle document,
//! compute the full shape typing, and answer conformance queries by name.

use shapex_rdf::graph::Dataset;
use shapex_rdf::term::Term;
use shapex_rdf::turtle;
use shapex_shex::ast::ShapeLabel;
use shapex_shex::shexc;

use crate::budget::{Budget, Exhaustion};
use crate::engine::{Engine, EngineConfig, EngineError};
use crate::result::Typing;

/// Everything [`validate`] produces: the parsed dataset, the engine (with
/// its memoised state), and the full typing.
pub struct Report {
    /// The parsed data graph and its term pool.
    pub dataset: Dataset,
    /// The engine, with all memoised state from the typing run.
    pub engine: Engine,
    /// The full node-to-shape typing — possibly partial under a budget
    /// (see [`Report::is_partial`]).
    pub typing: Typing,
}

impl Report {
    /// True when at least one `(node, shape)` query exhausted its budget:
    /// the typing under-approximates the total one.
    pub fn is_partial(&self) -> bool {
        self.typing.is_partial()
    }

    /// The `(node IRI, shape label, exhaustion)` triples for every query
    /// that tripped its budget.
    pub fn exhausted(&self) -> Vec<(String, String, Exhaustion)> {
        self.typing
            .exhausted
            .iter()
            .map(|&(node, shape, e)| {
                (
                    self.dataset.pool.term(node).to_string(),
                    self.engine.label_of(shape).as_str().to_string(),
                    e,
                )
            })
            .collect()
    }
    /// Does the node (given as an IRI string) conform to the named shape?
    pub fn conforms(&self, node_iri: &str, shape: &str) -> bool {
        let Some(node) = self.dataset.iri(node_iri) else {
            return false;
        };
        let Some(shape) = self.engine.shape_id(&ShapeLabel::new(shape)) else {
            return false;
        };
        self.typing.has(node, shape)
    }

    /// The shapes a node conforms to, as label strings.
    pub fn shapes_of(&self, node_iri: &str) -> Vec<String> {
        let Some(node) = self.dataset.iri(node_iri) else {
            return Vec::new();
        };
        self.typing
            .shapes_of(node)
            .map(|s| self.engine.label_of(s).as_str().to_string())
            .collect()
    }

    /// Renders the full typing, one `node → <Shape>` line per entry.
    pub fn render_typing(&self) -> String {
        self.typing
            .render(&self.dataset.pool, &|s| self.engine.label_of(s).clone())
    }

    /// Why did this node fail this shape? The explanation comes from the
    /// final typing (see [`Engine::explain`]); `None` if the node conforms,
    /// either name is unknown, or the check exhausted its budget.
    pub fn explain(&mut self, node_iri: &str, shape: &str) -> Option<String> {
        let node = self.dataset.iri(node_iri)?;
        let result = self
            .engine
            .check(
                &self.dataset.graph,
                &self.dataset.pool,
                node,
                &ShapeLabel::new(shape),
            )
            .ok()?;
        result.failure.map(|f| f.render(&self.dataset.pool))
    }
}

/// Errors from the convenience API: parsing either input, or validation
/// setup.
#[derive(Debug)]
pub enum ValidateError {
    /// The ShExC schema failed to parse.
    SchemaSyntax(shapex_rdf::parser::ParseError),
    /// The Turtle data failed to parse.
    DataSyntax(shapex_rdf::parser::ParseError),
    /// Schema compilation or validation failed.
    Engine(EngineError),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::SchemaSyntax(e) => write!(f, "schema: {e}"),
            ValidateError::DataSyntax(e) => write!(f, "data: {e}"),
            ValidateError::Engine(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Parses `schema_shexc` and `data_turtle`, validates every subject node
/// against every shape, and returns the [`Report`].
///
/// Runs on all available cores via [`Engine::type_all_par`]; the typing is
/// identical to the sequential engine's (the parallel run is
/// deterministic). Use [`validate_par`] to pin the worker count.
///
/// ```
/// let report = shapex::validate(
///     r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
///        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
///        <Person> { foaf:age xsd:integer, foaf:name xsd:string+ }"#,
///     r#"@prefix : <http://example.org/> .
///        @prefix foaf: <http://xmlns.com/foaf/0.1/> .
///        :john foaf:age 23; foaf:name "John" .
///        :mary foaf:age 50, 65 ."#,
/// ).unwrap();
/// assert!(report.conforms("http://example.org/john", "Person"));
/// assert!(!report.conforms("http://example.org/mary", "Person"));
/// ```
pub fn validate(schema_shexc: &str, data_turtle: &str) -> Result<Report, ValidateError> {
    validate_par(schema_shexc, data_turtle, Budget::UNLIMITED, default_jobs())
}

/// The default worker count for parallel validation: available hardware
/// parallelism, 1 when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// [`validate`] under per-query resource limits. Queries that trip the
/// budget are listed in the report (see [`Report::exhausted`]) instead of
/// failing the run — every other pair still gets its definitive answer.
/// Runs sequentially so budget semantics (including any per-query
/// deadline) match the single-threaded engine exactly.
pub fn validate_with_budget(
    schema_shexc: &str,
    data_turtle: &str,
    budget: Budget,
) -> Result<Report, ValidateError> {
    validate_par(schema_shexc, data_turtle, budget, 1)
}

/// [`validate`] with an explicit budget *and* worker count. `jobs = 1` is
/// the exact sequential path; with more workers the budget's deadline
/// additionally bounds wall-clock for the whole run (see
/// [`Engine::type_all_par`]).
///
/// ```
/// use shapex::Budget;
///
/// let schema = "PREFIX e: <http://e/>\n<S> { e:p [1 2]+ }";
/// let data = "@prefix e: <http://e/> . e:a e:p 1 . e:b e:p 3 .";
/// // Two workers, 10k derivative steps per (node, shape) query: the
/// // typing is byte-identical to the sequential, unbudgeted one here.
/// let report = shapex::validate_par(
///     schema, data, Budget::UNLIMITED.with_max_steps(10_000), 2).unwrap();
/// assert!(!report.is_partial());
/// assert!(report.conforms("http://e/a", "S"));
/// assert!(!report.conforms("http://e/b", "S"));
/// ```
pub fn validate_par(
    schema_shexc: &str,
    data_turtle: &str,
    budget: Budget,
    jobs: usize,
) -> Result<Report, ValidateError> {
    let schema = shexc::parse(schema_shexc).map_err(ValidateError::SchemaSyntax)?;
    let mut dataset = turtle::parse(data_turtle).map_err(ValidateError::DataSyntax)?;
    let config = EngineConfig {
        budget,
        ..EngineConfig::default()
    };
    let mut engine =
        Engine::compile(&schema, &mut dataset.pool, config).map_err(ValidateError::Engine)?;
    let typing = engine.type_all_par(&dataset.graph, &dataset.pool, jobs);
    Ok(Report {
        dataset,
        engine,
        typing,
    })
}

/// Checks a single `(node, shape)` pair without computing the full typing.
pub fn check_node(
    schema_shexc: &str,
    data_turtle: &str,
    node_iri: &str,
    shape: &str,
) -> Result<bool, ValidateError> {
    let schema = shexc::parse(schema_shexc).map_err(ValidateError::SchemaSyntax)?;
    let mut dataset = turtle::parse(data_turtle).map_err(ValidateError::DataSyntax)?;
    let mut engine = Engine::new(&schema, &mut dataset.pool).map_err(ValidateError::Engine)?;
    let node = dataset.pool.intern(Term::iri(node_iri));
    Ok(engine
        .check(&dataset.graph, &dataset.pool, node, &ShapeLabel::new(shape))
        .map_err(ValidateError::Engine)?
        .matched)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = r#"
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        <Person> { foaf:age xsd:integer, foaf:name xsd:string+ }
    "#;
    const DATA: &str = r#"
        @prefix : <http://example.org/> .
        @prefix foaf: <http://xmlns.com/foaf/0.1/> .
        :john foaf:age 23; foaf:name "John" .
        :mary foaf:age 50, 65 .
    "#;

    #[test]
    fn report_conformance() {
        let report = validate(SCHEMA, DATA).unwrap();
        assert!(report.conforms("http://example.org/john", "Person"));
        assert!(!report.conforms("http://example.org/mary", "Person"));
        assert!(!report.conforms("http://example.org/nobody", "Person"));
        assert!(!report.conforms("http://example.org/john", "NoShape"));
    }

    #[test]
    fn shapes_of_lists_labels() {
        let report = validate(SCHEMA, DATA).unwrap();
        assert_eq!(
            report.shapes_of("http://example.org/john"),
            vec!["Person".to_string()]
        );
        assert!(report.shapes_of("http://example.org/mary").is_empty());
    }

    #[test]
    fn render_typing_lines() {
        let report = validate(SCHEMA, DATA).unwrap();
        let rendered = report.render_typing();
        assert!(rendered.contains("john"));
        assert!(!rendered.contains("mary"));
    }

    #[test]
    fn explain_failure() {
        let mut report = validate(SCHEMA, DATA).unwrap();
        let why = report
            .explain("http://example.org/mary", "Person")
            .expect("mary fails");
        assert!(
            why.contains("does not match") || why.contains("missing") || why.contains("must occur"),
            "{why}"
        );
        assert!(report
            .explain("http://example.org/john", "Person")
            .is_none());
    }

    #[test]
    fn check_node_single() {
        assert!(check_node(SCHEMA, DATA, "http://example.org/john", "Person").unwrap());
        assert!(!check_node(SCHEMA, DATA, "http://example.org/mary", "Person").unwrap());
    }

    #[test]
    fn syntax_errors_surface() {
        assert!(matches!(
            validate("<S> { junk", DATA),
            Err(ValidateError::SchemaSyntax(_))
        ));
        assert!(matches!(
            validate(SCHEMA, "not turtle at all ::"),
            Err(ValidateError::DataSyntax(_))
        ));
    }
}
