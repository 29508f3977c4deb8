//! The decomposition-based matcher and its greatest-fixpoint typing driver.

use std::collections::HashMap;

use shapex::budget::{Budget, BudgetMeter, Exhaustion};
use shapex_rdf::graph::Graph;
use shapex_rdf::pool::{TermId, TermPool};
use shapex_shex::ast::{ObjectConstraint, PredicateSet, ShapeExpr, ShapeLabel};
use shapex_shex::schema::{Schema, SchemaError};

/// Baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct BtConfig {
    /// Per-node resource limits (shared [`shapex::budget::Budget`] type).
    /// The matcher is exponential, so the default caps rule applications
    /// at 50M rather than hang; arena limits are meaningless here (no
    /// expression arena) and are ignored.
    pub budget: Budget,
}

impl Default for BtConfig {
    fn default() -> Self {
        BtConfig {
            budget: Budget::steps(50_000_000),
        }
    }
}

/// Baseline errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BtError {
    /// A resource budget was exhausted — the exponential blow-up the paper
    /// warns about, reported instead of hanging.
    ResourceExhausted(Exhaustion),
    /// Neighbourhoods beyond 64 triples exceed the decomposition bitmask.
    /// (By then the 2⁶⁴ decompositions are unreachable anyway.)
    NeighbourhoodTooLarge(usize),
    /// The schema failed well-formedness checks.
    Schema(SchemaError),
    /// The queried label has no definition.
    UnknownShape(String),
}

impl std::fmt::Display for BtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BtError::ResourceExhausted(e) => write!(f, "backtracking {e}"),
            BtError::NeighbourhoodTooLarge(n) => {
                write!(f, "neighbourhood of {n} triples exceeds 64-triple limit")
            }
            BtError::Schema(e) => e.fmt(f),
            BtError::UnknownShape(l) => write!(f, "unknown shape <{l}>"),
        }
    }
}

impl std::error::Error for BtError {}

impl From<SchemaError> for BtError {
    fn from(e: SchemaError) -> Self {
        BtError::Schema(e)
    }
}

impl From<Exhaustion> for BtError {
    fn from(e: Exhaustion) -> Self {
        BtError::ResourceExhausted(e)
    }
}

/// Counters for the E1/E2 comparisons. Mirrors the derivative engine's
/// [`shapex::Stats`]/[`shapex::Metrics`] counters where the two engines
/// share a concept, so engine-agreement harnesses can compare like with
/// like.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtStats {
    /// Inference-rule applications (one per `matches` invocation).
    pub rule_applications: u64,
    /// Decomposition pairs `(g1, g2)` tried by the And/Star rules.
    pub decompositions: u64,
    /// Greatest-fixpoint iterations performed.
    pub gfp_iterations: u64,
    /// `(node, shape)` evaluations performed (mirrors the derivative
    /// engine's `node_checks`).
    pub node_checks: u64,
    /// Budget steps charged across all per-node meters (mirrors
    /// `budget_steps`; equals `rule_applications` unless a meter trips
    /// mid-check).
    pub budget_steps: u64,
    /// Evaluations abandoned because a per-node budget tripped (mirrors
    /// `exhausted_checks`).
    pub exhausted_checks: u64,
}

/// An expression with arcs replaced by indexes into a satisfaction matrix,
/// desugared to the paper's §4 core operators.
#[derive(Debug, Clone)]
enum BtExpr {
    Empty,
    Epsilon,
    Arc(usize),
    Star(Box<BtExpr>),
    And(Box<BtExpr>, Box<BtExpr>),
    Or(Box<BtExpr>, Box<BtExpr>),
}

/// One compiled arc: predicate test + object test.
struct BtArc {
    predicates: PredicateSet,
    object: ObjectConstraint,
    inverse: bool,
}

struct BtShape {
    expr: BtExpr,
    arcs: Vec<BtArc>,
    has_inverse: bool,
    inverse_predicates: Vec<Box<str>>,
}

/// The greatest-fixpoint typing table: `(shape index, node) → conforms`.
pub type TypingTable = HashMap<(usize, TermId), bool>;

/// Pairs whose budget tripped while the table was computed.
pub type ExhaustedPairs = HashMap<(usize, TermId), Exhaustion>;

/// The backtracking validator (paper Fig. 1 / Fig. 4).
pub struct BacktrackValidator {
    shapes: Vec<BtShape>,
    index: HashMap<ShapeLabel, usize>,
    config: BtConfig,
    stats: std::cell::Cell<BtStats>,
}

impl BacktrackValidator {
    /// Builds a validator with the default budget.
    pub fn new(schema: &Schema) -> Result<Self, BtError> {
        BacktrackValidator::with_config(schema, BtConfig::default())
    }

    /// Builds a validator with an explicit configuration.
    pub fn with_config(schema: &Schema, config: BtConfig) -> Result<Self, BtError> {
        schema.check_references()?;
        let mut shapes = Vec::new();
        let mut index = HashMap::new();
        for (label, expr) in schema.iter() {
            let mut arcs = Vec::new();
            let compiled = compile(&expr.desugared(), &mut arcs);
            let has_inverse = arcs.iter().any(|a| a.inverse);
            let inverse_predicates = arcs
                .iter()
                .filter(|a| a.inverse)
                .flat_map(|a| match &a.predicates {
                    PredicateSet::Any => Vec::new(),
                    PredicateSet::Iris(iris) => iris.clone(),
                })
                .collect();
            index.insert(label.clone(), shapes.len());
            shapes.push(BtShape {
                expr: compiled,
                arcs,
                has_inverse,
                inverse_predicates,
            });
        }
        Ok(BacktrackValidator {
            shapes,
            index,
            config,
            stats: std::cell::Cell::new(BtStats::default()),
        })
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BtStats {
        self.stats.get()
    }

    /// Zeroes the counters.
    pub fn reset_stats(&self) {
        self.stats.set(BtStats::default());
    }

    /// Checks one node against one shape. Recursion is resolved through
    /// the full greatest-fixpoint typing (the reference semantics).
    pub fn check(
        &self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        label: &ShapeLabel,
    ) -> Result<bool, BtError> {
        let shape = *self
            .index
            .get(label)
            .ok_or_else(|| BtError::UnknownShape(label.as_str().to_string()))?;
        let (typing, exhausted) = self.typing_table(graph, terms)?;
        // Exhaustion surfaces only for the pair actually asked about —
        // other pairs keep their (under-approximated) answers.
        if let Some(&e) = exhausted.get(&(shape, node)) {
            return Err(BtError::ResourceExhausted(e));
        }
        match typing.get(&(shape, node)) {
            Some(&v) => Ok(v),
            // Node not in the graph at all: match against the empty
            // neighbourhood.
            None => self.match_node(graph, terms, node, shape, &typing),
        }
    }

    /// The greatest-fixpoint typing over every node occurring in the graph
    /// and every shape (paper §8 semantics, computed by iterated removal).
    ///
    /// Per-pair fault isolation: a pair whose [`crate::BtConfig`] budget
    /// trips is *removed* from the typing — sound, since dropping an
    /// assumption only under-approximates a greatest fixpoint — and
    /// reported in the second component instead of aborting the table.
    pub fn typing_table(
        &self,
        graph: &Graph,
        terms: &TermPool,
    ) -> Result<(TypingTable, ExhaustedPairs), BtError> {
        // Every term occurring in the graph can be asked for a shape.
        let mut nodes: Vec<TermId> = Vec::new();
        for t in graph.triples() {
            nodes.push(t.subject);
            nodes.push(t.object);
        }
        nodes.sort();
        nodes.dedup();

        let mut table: HashMap<(usize, TermId), bool> = HashMap::new();
        for s in 0..self.shapes.len() {
            for &n in &nodes {
                table.insert((s, n), true);
            }
        }
        let mut exhausted: HashMap<(usize, TermId), Exhaustion> = HashMap::new();
        loop {
            let mut st = self.stats.get();
            st.gfp_iterations += 1;
            self.stats.set(st);
            let mut changed = false;
            for s in 0..self.shapes.len() {
                for &n in &nodes {
                    if !table[&(s, n)] {
                        continue;
                    }
                    let keep = match self.match_node(graph, terms, n, s, &table) {
                        Ok(v) => v,
                        Err(BtError::ResourceExhausted(e)) => {
                            exhausted.insert((s, n), e);
                            false
                        }
                        Err(other) => return Err(other),
                    };
                    if !keep {
                        table.insert((s, n), false);
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok((table, exhausted));
            }
        }
    }

    /// `Σg_n ≃ δ(shape)` with references answered from `oracle`.
    fn match_node(
        &self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: usize,
        oracle: &HashMap<(usize, TermId), bool>,
    ) -> Result<bool, BtError> {
        let sh = &self.shapes[shape];
        // Closed forward semantics; inverse triples scoped to mentioned
        // predicates (matching the derivative engine).
        let mut triples: Vec<(TermId, TermId, bool)> = graph
            .neighbourhood(node)
            .iter()
            .map(|&(p, o)| (p, o, false))
            .collect();
        if sh.has_inverse {
            for &(s, p) in graph.incoming(node) {
                let pred_iri = terms.term(p).as_iri();
                if sh.inverse_predicates.iter().any(|i| Some(&**i) == pred_iri) {
                    triples.push((p, s, true));
                }
            }
        }
        if triples.len() > 64 {
            return Err(BtError::NeighbourhoodTooLarge(triples.len()));
        }
        // Satisfaction matrix: sat[triple][arc].
        let sat: Vec<Vec<bool>> = triples
            .iter()
            .map(|&(p, other, inv)| {
                sh.arcs
                    .iter()
                    .map(|arc| self.arc_satisfied(terms, arc, p, other, inv, oracle))
                    .collect()
            })
            .collect();
        let full: u64 = if triples.is_empty() {
            0
        } else {
            u64::MAX >> (64 - triples.len())
        };
        // Each node gets the full budget (per-node fault isolation,
        // matching the derivative engine's per-query meter).
        let mut meter = self.config.budget.meter();
        let mut ctx = MatchCtx {
            sat: &sat,
            steps: 0,
            decompositions: 0,
            meter: &mut meter,
        };
        let result = matches(&sh.expr, full, &mut ctx);
        let mut st = self.stats.get();
        st.rule_applications += ctx.steps;
        st.decompositions += ctx.decompositions;
        st.node_checks += 1;
        st.budget_steps += meter.steps_spent();
        if result.is_err() {
            st.exhausted_checks += 1;
        }
        self.stats.set(st);
        result.map_err(BtError::from)
    }

    fn arc_satisfied(
        &self,
        terms: &TermPool,
        arc: &BtArc,
        pred: TermId,
        other: TermId,
        inverse: bool,
        oracle: &HashMap<(usize, TermId), bool>,
    ) -> bool {
        if arc.inverse != inverse {
            return false;
        }
        let pred_ok = match &arc.predicates {
            PredicateSet::Any => true,
            PredicateSet::Iris(_) => match terms.term(pred).as_iri() {
                Some(iri) => arc.predicates.contains(iri),
                None => false,
            },
        };
        if !pred_ok {
            return false;
        }
        match &arc.object {
            ObjectConstraint::Value(c) => c.matches(terms.term(other)),
            ObjectConstraint::Ref(l) => {
                let target = self.index[l];
                // Nodes outside the oracle (not in the graph) have empty
                // neighbourhoods; match δ(l) against the empty bag.
                oracle.get(&(target, other)).copied().unwrap_or_else(|| {
                    let sh = &self.shapes[target];
                    let mut meter = self.config.budget.meter();
                    let mut ctx = MatchCtx {
                        sat: &[],
                        steps: 0,
                        decompositions: 0,
                        meter: &mut meter,
                    };
                    let out = matches(&sh.expr, 0, &mut ctx).unwrap_or(false);
                    let mut st = self.stats.get();
                    st.rule_applications += ctx.steps;
                    st.budget_steps += meter.steps_spent();
                    self.stats.set(st);
                    out
                })
            }
        }
    }
}

/// Compiles a desugared [`ShapeExpr`] (core operators only) to [`BtExpr`],
/// collecting arcs.
fn compile(expr: &ShapeExpr, arcs: &mut Vec<BtArc>) -> BtExpr {
    match expr {
        ShapeExpr::Empty => BtExpr::Empty,
        ShapeExpr::Epsilon => BtExpr::Epsilon,
        ShapeExpr::Arc(arc) => {
            let idx = arcs.len();
            arcs.push(BtArc {
                predicates: arc.predicates.clone(),
                object: arc.object.clone(),
                inverse: arc.inverse,
            });
            BtExpr::Arc(idx)
        }
        ShapeExpr::Star(e) => BtExpr::Star(Box::new(compile(e, arcs))),
        ShapeExpr::And(a, b) => BtExpr::And(Box::new(compile(a, arcs)), Box::new(compile(b, arcs))),
        ShapeExpr::Or(a, b) => BtExpr::Or(Box::new(compile(a, arcs)), Box::new(compile(b, arcs))),
        // `desugared()` removes these.
        ShapeExpr::Plus(_) | ShapeExpr::Opt(_) | ShapeExpr::Repeat(_, _, _) => {
            unreachable!("expression must be desugared before compilation")
        }
    }
}

struct MatchCtx<'a> {
    sat: &'a [Vec<bool>],
    steps: u64,
    decompositions: u64,
    meter: &'a mut BudgetMeter,
}

/// The Fig. 1 rules. `mask` selects the sub-bag of the neighbourhood being
/// matched; the And/Star rules enumerate its decompositions. Charges one
/// budget step and one recursion level per rule application.
fn matches(e: &BtExpr, mask: u64, ctx: &mut MatchCtx<'_>) -> Result<bool, Exhaustion> {
    ctx.steps += 1;
    ctx.meter.step()?;
    ctx.meter.enter_depth()?;
    let result = matches_inner(e, mask, ctx);
    ctx.meter.exit_depth();
    result
}

fn matches_inner(e: &BtExpr, mask: u64, ctx: &mut MatchCtx<'_>) -> Result<bool, Exhaustion> {
    match e {
        BtExpr::Empty => Ok(false),
        // Empty: ε ≃ {}
        BtExpr::Epsilon => Ok(mask == 0),
        // Arc: vp→vo ≃ {⟨s,p,o⟩}
        BtExpr::Arc(idx) => {
            Ok(mask.count_ones() == 1 && ctx.sat[mask.trailing_zeros() as usize][*idx])
        }
        // Or1/Or2
        BtExpr::Or(a, b) => Ok(matches(a, mask, ctx)? || matches(b, mask, ctx)?),
        // And: enumerate every decomposition g = g1 ⊕ g2 (Example 3)
        BtExpr::And(a, b) => {
            let mut g1 = mask;
            loop {
                ctx.decompositions += 1;
                if matches(a, g1, ctx)? && matches(b, mask & !g1, ctx)? {
                    return Ok(true);
                }
                if g1 == 0 {
                    return Ok(false);
                }
                g1 = (g1 - 1) & mask;
            }
        }
        // Star1/Star2; g1 must be non-empty for termination
        BtExpr::Star(r) => {
            if mask == 0 {
                return Ok(true);
            }
            let mut g1 = mask;
            loop {
                if g1 != 0 {
                    ctx.decompositions += 1;
                    if matches(r, g1, ctx)? && matches(e, mask & !g1, ctx)? {
                        return Ok(true);
                    }
                }
                if g1 == 0 {
                    return Ok(false);
                }
                g1 = (g1 - 1) & mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_rdf::graph::Dataset;
    use shapex_rdf::turtle;
    use shapex_shex::shexc;

    fn setup(schema_src: &str, data_src: &str) -> (BacktrackValidator, Dataset) {
        let schema = shexc::parse(schema_src).unwrap();
        let ds = turtle::parse(data_src).unwrap();
        (BacktrackValidator::new(&schema).unwrap(), ds)
    }

    fn check(v: &BacktrackValidator, ds: &Dataset, node: &str, shape: &str) -> bool {
        let node = ds.iri(node).expect("node exists");
        v.check(&ds.graph, &ds.pool, node, &shape.into()).unwrap()
    }

    const EX5_SCHEMA: &str = "PREFIX e: <http://e/>\n<S> { e:a [1], e:b [1 2]* }";

    #[test]
    fn paper_example_8_matches() {
        // Fig. 2: a→1 ‖ b→{1,2}* ≃ {⟨n,a,1⟩, ⟨n,b,1⟩, ⟨n,b,2⟩}
        let (v, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1; e:b 1, 2 .");
        assert!(check(&v, &ds, "http://e/n", "S"));
        // The decomposition counter reflects Fig. 2's exponential search.
        assert!(v.stats().decompositions > 0);
    }

    #[test]
    fn paper_example_12_rejects() {
        let (v, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1, 2; e:b 1 .");
        assert!(!check(&v, &ds, "http://e/n", "S"));
    }

    #[test]
    fn example_2_typing() {
        let (v, ds) = setup(
            r#"
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            <Person> { foaf:age xsd:integer, foaf:name xsd:string+, foaf:knows @<Person>* }
            "#,
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :john foaf:age 23; foaf:name "John"; foaf:knows :bob .
            :bob foaf:age 34; foaf:name "Bob", "Robert" .
            :mary foaf:age 50, 65 .
            "#,
        );
        assert!(check(&v, &ds, "http://example.org/john", "Person"));
        assert!(check(&v, &ds, "http://example.org/bob", "Person"));
        assert!(!check(&v, &ds, "http://example.org/mary", "Person"));
    }

    #[test]
    fn recursive_cycle_gfp() {
        let (v, ds) = setup(
            r#"
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            <Person> { foaf:age xsd:integer, foaf:name xsd:string+, foaf:knows @<Person>* }
            "#,
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :a foaf:age 1; foaf:name "A"; foaf:knows :b .
            :b foaf:age 2; foaf:name "B"; foaf:knows :a .
            :c foaf:age 3; foaf:knows :a .
            "#,
        );
        assert!(check(&v, &ds, "http://example.org/a", "Person"));
        assert!(check(&v, &ds, "http://example.org/b", "Person"));
        assert!(!check(&v, &ds, "http://example.org/c", "Person"));
        assert!(v.stats().gfp_iterations >= 1);
    }

    #[test]
    fn cardinality_via_expansion() {
        let (v, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p .{2,3} }",
            r#"
            @prefix e: <http://e/> .
            e:one e:p 1 .
            e:two e:p 1, 2 .
            e:four e:p 1, 2, 3, 4 .
            "#,
        );
        assert!(!check(&v, &ds, "http://e/one", "S"));
        assert!(check(&v, &ds, "http://e/two", "S"));
        assert!(!check(&v, &ds, "http://e/four", "S"));
    }

    #[test]
    fn budget_exceeded_on_adversarial_input() {
        // Wide And of stars over many triples blows the tiny budget.
        let schema =
            shexc::parse("PREFIX e: <http://e/>\n<S> { e:a .*, e:b .*, e:c .*, e:d .*, e:e .* }")
                .unwrap();
        let mut data = String::from("@prefix e: <http://e/> .\n");
        for p in ["a", "b", "c", "d", "e"] {
            for i in 0..4 {
                data.push_str(&format!("e:n e:{p} {i} .\n"));
            }
        }
        let ds = turtle::parse(&data).unwrap();
        let v = BacktrackValidator::with_config(
            &schema,
            BtConfig {
                budget: Budget::steps(10_000),
            },
        )
        .unwrap();
        let n = ds.iri("http://e/n").unwrap();
        let err = v.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap_err();
        let BtError::ResourceExhausted(e) = err else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(e.resource, shapex::budget::Resource::Steps);
        assert_eq!(e.limit, 10_000);
        assert!(e.spent <= e.limit);
        assert!(v.stats().exhausted_checks > 0);
    }

    #[test]
    fn stats_mirror_counters() {
        let (v, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1; e:b 1, 2 .");
        check(&v, &ds, "http://e/n", "S");
        let st = v.stats();
        assert!(st.node_checks > 0);
        // Every rule application charges exactly one budget step, so the
        // two mirror counters agree when no meter trips.
        assert_eq!(st.budget_steps, st.rule_applications);
        assert_eq!(st.exhausted_checks, 0);
    }

    #[test]
    fn deadline_budget_trips() {
        use std::time::Duration;
        // Same adversarial input, but governed by a zero deadline instead
        // of a step cap.
        let schema =
            shexc::parse("PREFIX e: <http://e/>\n<S> { e:a .*, e:b .*, e:c .*, e:d .*, e:e .* }")
                .unwrap();
        let mut data = String::from("@prefix e: <http://e/> .\n");
        for p in ["a", "b", "c", "d", "e"] {
            for i in 0..4 {
                data.push_str(&format!("e:n e:{p} {i} .\n"));
            }
        }
        let ds = turtle::parse(&data).unwrap();
        let v = BacktrackValidator::with_config(
            &schema,
            BtConfig {
                budget: Budget::UNLIMITED.with_deadline(Duration::ZERO),
            },
        )
        .unwrap();
        let n = ds.iri("http://e/n").unwrap();
        let err = v.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap_err();
        assert!(matches!(err, BtError::ResourceExhausted(_)), "{err:?}");
    }

    #[test]
    fn depth_budget_trips_on_nested_expression() {
        // Deeply nested optional groups recurse through `matches` far
        // deeper than a depth limit of 4.
        let mut expr = String::from("e:p [1]");
        for _ in 0..10 {
            expr = format!("( {expr} )?");
        }
        let schema = shexc::parse(&format!("PREFIX e: <http://e/>\n<S> {{ {expr} }}")).unwrap();
        let ds = turtle::parse("@prefix e: <http://e/> . e:n e:p 1 .").unwrap();
        let v = BacktrackValidator::with_config(
            &schema,
            BtConfig {
                budget: Budget::UNLIMITED.with_max_depth(4),
            },
        )
        .unwrap();
        let n = ds.iri("http://e/n").unwrap();
        let err = v.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap_err();
        let BtError::ResourceExhausted(e) = err else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(e.resource, shapex::budget::Resource::Depth);
    }

    #[test]
    fn unknown_shape_error() {
        let (v, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1 .");
        let n = ds.iri("http://e/n").unwrap();
        assert!(matches!(
            v.check(&ds.graph, &ds.pool, n, &"Nope".into()),
            Err(BtError::UnknownShape(_))
        ));
    }

    #[test]
    fn node_absent_from_graph_matches_nullable_shape() {
        let (v, mut ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p .* }",
            "@prefix e: <http://e/> . e:x e:p 1 .",
        );
        let lonely = ds.pool.intern_iri("http://e/lonely");
        assert!(v.check(&ds.graph, &ds.pool, lonely, &"S".into()).unwrap());
    }

    #[test]
    fn inverse_arcs_match() {
        let (v, ds) = setup(
            "PREFIX e: <http://e/>\n<Dept> { e:name LITERAL, ^e:worksIn IRI+ }",
            r#"
            @prefix e: <http://e/> .
            e:sales e:name "Sales" .
            e:ghost e:name "Ghost" .
            e:alice e:worksIn e:sales .
            "#,
        );
        assert!(check(&v, &ds, "http://e/sales", "Dept"));
        assert!(!check(&v, &ds, "http://e/ghost", "Dept"));
    }

    #[test]
    fn or_alternatives() {
        let (v, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:a [1] | e:b [2] }",
            "@prefix e: <http://e/> . e:x e:a 1 . e:z e:a 1; e:b 2 .",
        );
        assert!(check(&v, &ds, "http://e/x", "S"));
        assert!(!check(&v, &ds, "http://e/z", "S"));
    }

    #[test]
    fn stats_reset() {
        let (v, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1 .");
        check(&v, &ds, "http://e/n", "S");
        assert!(v.stats().rule_applications > 0);
        v.reset_stats();
        assert_eq!(v.stats(), BtStats::default());
    }

    /// Fig. 1, rule *Empty*: `ε ≃ {}` — and only the empty bag.
    #[test]
    fn rule_empty() {
        let (v, mut ds) = setup("<S> { }", "@prefix e: <http://e/> . e:n e:p 1 .");
        let lonely = ds.pool.intern_iri("http://e/lonely");
        assert!(v.check(&ds.graph, &ds.pool, lonely, &"S".into()).unwrap());
        let n = ds.iri("http://e/n").unwrap();
        assert!(!v.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap());
    }

    /// Fig. 1, rule *Arc*: `vp→vo ≃ {⟨s,p,o⟩}` — exactly one triple, with
    /// p ∈ vp and o ∈ vo.
    #[test]
    fn rule_arc() {
        let (v, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p [1] }",
            "@prefix e: <http://e/> . e:ok e:p 1 . e:badv e:p 2 . e:badp e:q 1 .\n\
             e:two e:p 1; e:q 1 .",
        );
        assert!(check(&v, &ds, "http://e/ok", "S"));
        assert!(!check(&v, &ds, "http://e/badv", "S")); // o ∉ vo
        assert!(!check(&v, &ds, "http://e/badp", "S")); // p ∉ vp
        assert!(!check(&v, &ds, "http://e/two", "S")); // two triples ≠ one
    }

    /// Fig. 1, rules *Or1*/*Or2*: either disjunct may match the whole bag.
    #[test]
    fn rules_or() {
        let (v, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:a [1] | e:b [1] }",
            "@prefix e: <http://e/> . e:l e:a 1 . e:r e:b 1 . e:no e:c 1 .",
        );
        assert!(check(&v, &ds, "http://e/l", "S")); // Or1
        assert!(check(&v, &ds, "http://e/r", "S")); // Or2
        assert!(!check(&v, &ds, "http://e/no", "S"));
    }

    /// Fig. 1, rule *And*: some decomposition g = g1 ⊕ g2 satisfies both.
    #[test]
    fn rule_and() {
        let (v, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:a ., e:b . }",
            "@prefix e: <http://e/> . e:ok e:a 1; e:b 2 . e:half e:a 1 .",
        );
        assert!(check(&v, &ds, "http://e/ok", "S"));
        assert!(!check(&v, &ds, "http://e/half", "S"));
    }

    /// Fig. 1, rules *Star1*/*Star2*: the empty bag, or a non-empty split
    /// whose parts match r and r*.
    #[test]
    fn rules_star() {
        let (v, mut ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p [1 2]* }",
            "@prefix e: <http://e/> . e:many e:p 1, 2 . e:bad e:p 3 .",
        );
        let lonely = ds.pool.intern_iri("http://e/lonely");
        assert!(v.check(&ds.graph, &ds.pool, lonely, &"S".into()).unwrap()); // Star1
        assert!(check(&v, &ds, "http://e/many", "S")); // Star2, twice
        assert!(!check(&v, &ds, "http://e/bad", "S"));
    }
}
