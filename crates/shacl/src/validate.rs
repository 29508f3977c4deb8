//! The SHACL validation driver: engine checks plus front-end verdicts
//! and report attribution.
//!
//! Life of a validation: select targets, type exactly the target pairs
//! in one engine batch ([`shapex::Engine::check_many`], `jobs` workers),
//! then evaluate each `(focus, shape)` pair — focus-node tests and
//! verdict-level logic in the front end, neighbourhood structure via the
//! memoised engine, which types any further pair it is asked for. Failing
//! pairs get an attribution pass that walks the shape's components and
//! emits `sh:ValidationResult` rows.

use std::collections::HashMap;

use shapex::report::RunStatus;
use shapex::{Closure, Engine, EngineConfig, Exhaustion, Outcome, ShapeId};
use shapex_rdf::graph::{Dataset, Graph};
use shapex_rdf::pool::{TermId, TermPool};
use shapex_rdf::term::TermRef;
use shapex_rdf::DataFormat;
use shapex_shex::constraint::NodeConstraint;

use crate::compile::{LogicOp, ShaclSchema};
use crate::model::{Component, Path};
use crate::target::select_targets;
use crate::{err, ShaclError};

/// One row of the validation report (a `sh:ValidationResult`). All terms
/// are pre-rendered in N-Triples form so the report layer is a plain
/// serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationResult {
    /// The focus node that failed.
    pub focus: String,
    /// The shape (node or property shape) the check came from.
    pub source_shape: String,
    /// The `sh:`-CURIE of the violated constraint component.
    pub component: &'static str,
    /// `sh:Violation` unless the shape declares another severity.
    pub severity: String,
    /// The property path, for property-shape results.
    pub path: Option<String>,
    /// The offending value node, when the check is value-scoped.
    pub value: Option<String>,
    /// The shape's `sh:message`, if any.
    pub message: Option<String>,
}

/// A `(focus, shape)` pair whose check tripped a resource budget before
/// completing; the report's third verdict (exit code 3).
#[derive(Debug, Clone)]
pub struct ExhaustedTarget {
    /// The focus node whose check was cut short.
    pub focus: String,
    /// The shape being checked.
    pub shape: String,
    /// What ran out, how far it got.
    pub exhaustion: Exhaustion,
}

/// The outcome of validating a data graph against a compiled SHACL
/// schema.
#[derive(Debug)]
pub struct ShaclOutcome {
    /// Number of `(focus, shape)` target pairs checked.
    pub targets: usize,
    /// Violation rows, in deterministic (shape, focus) order.
    pub results: Vec<ValidationResult>,
    /// Target pairs whose verdict is unknown due to budget exhaustion.
    pub exhausted: Vec<ExhaustedTarget>,
}

impl ShaclOutcome {
    /// `Some(true)` when every target conforms, `Some(false)` when at
    /// least one violation was found, `None` when exhaustion left the
    /// question open (mirrors the engine's three-valued reporting).
    pub fn conforms(&self) -> Option<bool> {
        self.status().conforms()
    }

    /// The run's status. A found violation is final, so here — unlike a
    /// ShEx typing — non-conformance outranks exhaustion.
    pub fn status(&self) -> RunStatus {
        if !self.results.is_empty() {
            RunStatus::NonConforming
        } else if let Some(e) = self.exhausted.first() {
            RunStatus::Exhausted(e.exhaustion)
        } else {
            RunStatus::Conforms
        }
    }
}

/// A compiled SHACL schema bound to an engine instance, ready to
/// validate datasets.
pub struct ShaclValidator {
    schema: ShaclSchema,
    engine: Engine,
    shape_ids: Vec<Option<ShapeId>>,
}

impl ShaclValidator {
    /// Compiles the engine for `schema` over the *data* term pool. The
    /// closure mode is forced to [`Closure::Open`]: the per-path
    /// translation (DESIGN.md §5h) is only correct when gathering is
    /// limited to mentioned predicates.
    pub fn new(
        schema: ShaclSchema,
        pool: &mut TermPool,
        mut config: EngineConfig,
    ) -> Result<Self, ShaclError> {
        config.closure = Closure::Open;
        let engine = Engine::compile(&schema.engine, pool, config)
            .map_err(|e| err("E008", format!("engine rejected compiled schema: {e:?}")))?;
        let shape_ids = schema
            .shapes
            .iter()
            .map(|s| s.engine_label.as_ref().and_then(|l| engine.shape_id(l)))
            .collect();
        Ok(ShaclValidator {
            schema,
            engine,
            shape_ids,
        })
    }

    /// The compiled schema this validator runs.
    pub fn schema(&self) -> &ShaclSchema {
        &self.schema
    }

    /// The underlying derivative engine (stats, metrics, calculus).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the engine, for host-level configuration such as
    /// installing a shared typing executor. The compiled schema itself is
    /// not reachable through this.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Validates `ds`, typing the target pairs with `jobs` worker threads.
    /// Needs `&mut Dataset` because `sh:targetNode` terms are interned
    /// into the data pool.
    pub fn validate_par(&mut self, ds: &mut Dataset, jobs: usize) -> ShaclOutcome {
        let targets = select_targets(&self.schema, ds);
        // Type exactly the target pairs; the walk below reads the memo.
        let queries: Vec<(TermId, ShapeId)> = targets
            .iter()
            .filter_map(|&(idx, focus)| Some((focus, self.shape_ids[idx]?)))
            .collect();
        self.engine.check_many(&ds.graph, &ds.pool, &queries, jobs);

        let mut memo: HashMap<(TermId, usize), Outcome> = HashMap::new();
        let mut results = Vec::new();
        let mut exhausted = Vec::new();
        for &(idx, focus) in &targets {
            let verdict = self.eval(&ds.graph, &ds.pool, focus, idx, &mut memo);
            match verdict {
                Outcome::Conforms => {}
                Outcome::Fails => {
                    let before = results.len();
                    self.explain(&ds.graph, &ds.pool, focus, idx, &mut memo, &mut results);
                    if results.len() == before {
                        // The derivative said ∅ but no single component
                        // re-check could be blamed; never report nothing.
                        let shape = &self.schema.shapes[idx];
                        results.push(ValidationResult {
                            focus: ds.pool.term(focus).to_string(),
                            source_shape: shape.label.clone(),
                            component: Component::Derivative.iri(),
                            severity: shape.severity.clone(),
                            path: None,
                            value: None,
                            message: shape.message.clone(),
                        });
                    }
                }
                Outcome::Exhausted(e) => exhausted.push(ExhaustedTarget {
                    focus: ds.pool.term(focus).to_string(),
                    shape: self.schema.shapes[idx].label.clone(),
                    exhaustion: e,
                }),
            }
        }
        ShaclOutcome {
            targets: targets.len(),
            results,
            exhausted,
        }
    }

    /// Three-valued conformance of `focus` against shape `idx`:
    /// focus tests ∧ engine check ∧ logic operators. Any `Fails` wins,
    /// otherwise any `Exhausted` wins, otherwise `Conforms`. Memoised;
    /// terminates because verdict-level logic is acyclic by construction.
    fn eval(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        idx: usize,
        memo: &mut HashMap<(TermId, usize), Outcome>,
    ) -> Outcome {
        if let Some(v) = memo.get(&(focus, idx)) {
            return *v;
        }
        let verdict = self.eval_uncached(graph, pool, focus, idx, memo);
        memo.insert((focus, idx), verdict);
        verdict
    }

    fn eval_uncached(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        idx: usize,
        memo: &mut HashMap<(TermId, usize), Outcome>,
    ) -> Outcome {
        {
            let shape = &self.schema.shapes[idx];
            if shape.deactivated {
                return Outcome::Conforms;
            }
            let term = pool.term(focus);
            if shape.focus.iter().any(|(_, c)| !c.matches(term)) {
                return Outcome::Fails;
            }
        }
        let mut pending: Option<Exhaustion> = None;
        if let Some(sid) = self.shape_ids[idx] {
            match self.engine.check_id(graph, pool, focus, sid) {
                Outcome::Conforms => {}
                Outcome::Fails => return Outcome::Fails,
                Outcome::Exhausted(e) => pending = Some(e),
            }
        }
        // Per-value residue: paths that mix class/shape membership with
        // arc constraints keep counting and tests in the engine and check
        // each value's membership here.
        for check in self.schema.shapes[idx].value_checks.clone() {
            for v in values_of(graph, pool, focus, &check.path) {
                if check.classes.iter().any(|c| !has_type(graph, pool, v, c)) {
                    return Outcome::Fails;
                }
                for &r in &check.refs {
                    if let Some(sid) = self.shape_ids[r] {
                        match self.engine.check_id(graph, pool, v, sid) {
                            Outcome::Conforms => {}
                            Outcome::Fails => return Outcome::Fails,
                            Outcome::Exhausted(e) => pending = pending.or(Some(e)),
                        }
                    }
                }
            }
        }
        // Verdict-level logic. Operand lists are cloned up front so the
        // recursive calls can borrow `self` mutably.
        for op in self.schema.shapes[idx].logic.clone() {
            let v = self.eval_logic(graph, pool, focus, &op, memo);
            match v {
                Outcome::Fails => return Outcome::Fails,
                Outcome::Exhausted(e) => pending = pending.or(Some(e)),
                Outcome::Conforms => {}
            }
        }
        match pending {
            Some(e) => Outcome::Exhausted(e),
            None => Outcome::Conforms,
        }
    }

    fn eval_logic(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        op: &LogicOp,
        memo: &mut HashMap<(TermId, usize), Outcome>,
    ) -> Outcome {
        match op {
            LogicOp::And(ops) => {
                let mut pending = None;
                for &i in ops {
                    match self.eval(graph, pool, focus, i, memo) {
                        Outcome::Fails => return Outcome::Fails,
                        Outcome::Exhausted(e) => pending = pending.or(Some(e)),
                        Outcome::Conforms => {}
                    }
                }
                pending.map_or(Outcome::Conforms, Outcome::Exhausted)
            }
            LogicOp::Node(i) => self.eval(graph, pool, focus, *i, memo),
            LogicOp::Or(ops) => {
                let mut pending = None;
                for &i in ops {
                    match self.eval(graph, pool, focus, i, memo) {
                        Outcome::Conforms => return Outcome::Conforms,
                        Outcome::Exhausted(e) => pending = pending.or(Some(e)),
                        Outcome::Fails => {}
                    }
                }
                pending.map_or(Outcome::Fails, Outcome::Exhausted)
            }
            LogicOp::Not(i) => match self.eval(graph, pool, focus, *i, memo) {
                Outcome::Conforms => Outcome::Fails,
                Outcome::Fails => Outcome::Conforms,
                exhausted => exhausted,
            },
            LogicOp::Xone(ops) => {
                let mut conforming = 0usize;
                let mut pending = None;
                for &i in ops {
                    match self.eval(graph, pool, focus, i, memo) {
                        Outcome::Conforms => conforming += 1,
                        Outcome::Exhausted(e) => pending = pending.or(Some(e)),
                        Outcome::Fails => {}
                    }
                }
                match (conforming, pending) {
                    // An unknown operand can still change "exactly one"
                    // unless two already conform.
                    (n, Some(e)) if n <= 1 => Outcome::Exhausted(e),
                    (1, _) => Outcome::Conforms,
                    _ => Outcome::Fails,
                }
            }
        }
    }

    /// Attribution: re-walks a failing `(focus, shape)` pair component by
    /// component and emits one report row per violated check.
    fn explain(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        idx: usize,
        memo: &mut HashMap<(TermId, usize), Outcome>,
        out: &mut Vec<ValidationResult>,
    ) {
        let focus_str = pool.term(focus).to_string();
        let shape = &self.schema.shapes[idx];
        let shape_label = shape.label.clone();
        let severity = shape.severity.clone();
        let message = shape.message.clone();
        let row =
            |component: Component, path: Option<String>, value: Option<String>| ValidationResult {
                focus: focus_str.clone(),
                source_shape: shape_label.clone(),
                component: component.iri(),
                severity: severity.clone(),
                path,
                value,
                message: message.clone(),
            };

        let term = pool.term(focus);
        for (component, c) in &shape.focus {
            if !c.matches(term) {
                out.push(row(*component, None, Some(focus_str.clone())));
            }
        }
        for class in &shape.focus_classes {
            if !has_type(graph, pool, focus, class) {
                out.push(row(Component::Class, None, Some(focus_str.clone())));
            }
        }

        // Property groups: collect per-group rows first (needs engine
        // access for sh:node re-checks, so the shape borrow is re-taken).
        let group_count = self.schema.shapes[idx].groups.len();
        for g_idx in 0..group_count {
            self.explain_group(graph, pool, focus, idx, g_idx, out);
        }

        let shape = &self.schema.shapes[idx];
        if let Some(spec) = &shape.closed {
            for &(p, o) in graph.neighbourhood(focus) {
                let Some(pred) = pool.term(p).as_iri() else {
                    continue;
                };
                let allowed = spec.mentioned.iter().any(|m| &**m == pred)
                    || spec.ignored.iter().any(|i| &**i == pred);
                if !allowed {
                    out.push(ValidationResult {
                        focus: focus_str.clone(),
                        source_shape: shape.label.clone(),
                        component: Component::Closed.iri(),
                        severity: shape.severity.clone(),
                        path: Some(format!("<{pred}>")),
                        value: Some(pool.term(o).to_string()),
                        message: shape.message.clone(),
                    });
                }
            }
        }

        for op in &self.schema.shapes[idx].logic.clone() {
            if matches!(
                self.eval_logic(graph, pool, focus, op, memo),
                Outcome::Fails
            ) {
                let component = match op {
                    LogicOp::And(_) => Component::And,
                    LogicOp::Or(_) => Component::Or,
                    LogicOp::Not(_) => Component::Not,
                    LogicOp::Xone(_) => Component::Xone,
                    LogicOp::Node(_) => Component::Node,
                };
                out.push(row(component, None, Some(focus_str.clone())));
            }
        }
    }

    fn explain_group(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        shape_idx: usize,
        g_idx: usize,
        out: &mut Vec<ValidationResult>,
    ) {
        let g = &self.schema.shapes[shape_idx].groups[g_idx];
        let focus_str = pool.term(focus).to_string();
        let path_str = g.path.render();
        let label = g.label.clone();
        let severity = g.severity.clone();
        let message = g.message.clone();
        let row = |component: Component, value: Option<String>| ValidationResult {
            focus: focus_str.clone(),
            source_shape: label.clone(),
            component: component.iri(),
            severity: severity.clone(),
            path: Some(path_str.clone()),
            value,
            message: message.clone(),
        };

        let values = values_of(graph, pool, focus, &g.path);
        if let Some(min) = g.min {
            if (values.len() as u32) < min {
                out.push(row(Component::MinCount, None));
            }
        }
        if let Some(max) = g.max {
            if values.len() as u32 > max {
                out.push(row(Component::MaxCount, None));
            }
        }
        let tests: Vec<(Component, NodeConstraint)> = g.tests.clone();
        let classes = g.classes.clone();
        let has_values = g.has_values.clone();
        let refs = g.refs.clone();
        for &v in &values {
            let vt = pool.term(v);
            for (component, c) in &tests {
                if !c.matches(vt) {
                    out.push(row(*component, Some(vt.to_string())));
                }
            }
            for class in &classes {
                if !has_type(graph, pool, v, class) {
                    out.push(row(Component::Class, Some(vt.to_string())));
                }
            }
            for &r in &refs {
                if let Some(sid) = self.shape_ids[r] {
                    if matches!(self.engine.check_id(graph, pool, v, sid), Outcome::Fails) {
                        out.push(row(Component::Node, Some(vt.to_string())));
                    }
                }
            }
        }
        for t in &has_values {
            let present = pool.get(t).is_some_and(|tid| values.contains(&tid));
            if !present {
                out.push(row(Component::HasValue, None));
            }
        }
    }
}

/// The value nodes of `focus` under a (forward or inverse) path.
fn values_of(graph: &Graph, pool: &TermPool, focus: TermId, path: &Path) -> Vec<TermId> {
    let Some(pid) = pool.get(TermRef::Iri(path.iri())) else {
        return Vec::new();
    };
    match path {
        Path::Forward(_) => graph.objects(focus, pid).collect(),
        Path::Inverse(_) => graph
            .incoming(focus)
            .iter()
            .filter(|&&(_, p)| p == pid)
            .map(|&(s, _)| s)
            .collect(),
    }
}

/// Direct `rdf:type` membership (see §5h: `sh:class` on value nodes uses
/// direct types; the subclass closure applies to target selection only).
fn has_type(graph: &Graph, pool: &TermPool, node: TermId, class: &str) -> bool {
    let (Some(type_id), Some(class_id)) = (
        pool.get(TermRef::Iri(shapex_rdf::vocab::rdf::TYPE)),
        pool.get(TermRef::Iri(class)),
    ) else {
        return false;
    };
    graph.objects(node, type_id).any(|o| o == class_id)
}

/// Loads a shapes graph for validation: parses `src` as RDF in `format`,
/// compiles it, and binds a validator over the data graph's term `pool`.
/// This is how every front end turns a shapes source into a validator;
/// unsupported SHACL terms fail here, at load, never at validation time.
/// Errors are prefixed with `name` (the source's path or role).
pub fn load_validator(
    name: &str,
    src: &str,
    format: DataFormat,
    pool: &mut TermPool,
    config: EngineConfig,
) -> Result<ShaclValidator, String> {
    let shapes = format.parse(src, 1).map_err(|e| format!("{name}: {e}"))?;
    crate::compile::compile(&shapes)
        .and_then(|schema| ShaclValidator::new(schema, pool, config))
        .map_err(|e| format!("{name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex::{Budget, Resource};
    use shapex_rdf::turtle;

    const SHAPES: &str = "@prefix sh: <http://www.w3.org/ns/shacl#> .\n\
                          @prefix ex: <http://example.org/> .\n";
    const PEOPLE: &str = "@prefix ex: <http://example.org/> .\n\
                          ex:good a ex:Person ; ex:name \"A\" , \"B\" .\n\
                          ex:bad a ex:Person ; ex:name \"only\" .\n";

    fn validator(shapes: &str, data: &mut Dataset) -> ShaclValidator {
        let shapes = turtle::parse(&format!("{SHAPES}{shapes}")).unwrap();
        let schema = crate::compile::compile(&shapes).unwrap();
        ShaclValidator::new(schema, &mut data.pool, EngineConfig::default()).unwrap()
    }

    fn failing_foci(outcome: &ShaclOutcome) -> Vec<&str> {
        outcome.results.iter().map(|r| r.focus.as_str()).collect()
    }

    #[test]
    fn engine_failure_is_a_violation_of_its_component() {
        let mut data = turtle::parse(PEOPLE).unwrap();
        let mut v = validator(
            "ex:S a sh:NodeShape ; sh:targetClass ex:Person ;\n\
               sh:property [ sh:path ex:name ; sh:minCount 2 ] .",
            &mut data,
        );
        let outcome = v.validate_par(&mut data, 1);
        assert_eq!(outcome.targets, 2);
        assert_eq!(failing_foci(&outcome), ["<http://example.org/bad>"]);
        assert_eq!(
            outcome.results[0].component,
            "sh:MinCountConstraintComponent"
        );
        assert!(outcome.exhausted.is_empty());
        assert_eq!(outcome.conforms(), Some(false));
    }

    #[test]
    fn sh_not_inverts_the_operand_verdict() {
        let mut data = turtle::parse(PEOPLE).unwrap();
        let mut v = validator(
            "ex:S a sh:NodeShape ; sh:targetClass ex:Person ;\n\
               sh:not [ sh:property [ sh:path ex:name ; sh:minCount 2 ] ] .",
            &mut data,
        );
        let outcome = v.validate_par(&mut data, 1);
        assert_eq!(failing_foci(&outcome), ["<http://example.org/good>"]);
        assert_eq!(outcome.results[0].component, "sh:NotConstraintComponent");
    }

    #[test]
    fn deactivated_operand_conforms() {
        // ex:Off would reject both people, but a deactivated shape
        // conforms by definition, so the sh:node through it passes.
        let mut data = turtle::parse(PEOPLE).unwrap();
        let mut v = validator(
            "ex:S a sh:NodeShape ; sh:targetClass ex:Person ; sh:node ex:Off .\n\
             ex:Off a sh:NodeShape ; sh:deactivated true ;\n\
               sh:property [ sh:path ex:name ; sh:minCount 5 ] .",
            &mut data,
        );
        let outcome = v.validate_par(&mut data, 1);
        assert_eq!(outcome.targets, 2);
        assert_eq!(outcome.conforms(), Some(true));
    }

    #[test]
    fn exhausted_engine_check_is_the_third_verdict() {
        // Every engine check trips a one-step budget: no target is decided,
        // so the run reports exhaustion, not conformance or a violation.
        let mut data = turtle::parse(PEOPLE).unwrap();
        let mut v = validator(
            "ex:S a sh:NodeShape ; sh:targetClass ex:Person ;\n\
               sh:property [ sh:path ex:name ; sh:minCount 2 ] .",
            &mut data,
        );
        v.engine_mut().set_budget(Budget::steps(1));
        let outcome = v.validate_par(&mut data, 1);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.exhausted.len(), 2);
        assert!(outcome
            .exhausted
            .iter()
            .all(|t| t.exhaustion.resource == Resource::Steps));
        assert_eq!(outcome.conforms(), None);
    }
}
