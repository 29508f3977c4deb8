//! Differential tests for the schema calculus (emptiness, containment,
//! schema-delta revalidation) against the validation engine as ground
//! truth.
//!
//! Emptiness and containment verdicts are *proofs* about bag languages;
//! the engine decides membership for concrete neighbourhoods. Every
//! neighbourhood expressible as a set of `(predicate, value)` triples
//! over a tiny alphabet is enumerated exhaustively, giving one-sided
//! oracles: an UNSAT shape must match no enumerated neighbourhood, and a
//! Contained pair must never show an enumerated counterexample. (The
//! converses are not checkable this way — a witness may need multiplicity
//! above one, which RDF's set semantics cannot express over a fixed
//! value alphabet.)

use proptest::prelude::*;

use shapex::report::{typing_report, ReportDoc, RunReport};
use shapex::{
    containment, emptiness, Budget, Closure, CompiledSchema, Engine, EngineConfig, ShapeId,
    Simplify, Verdict,
};
use shapex_rdf::graph::Dataset;
use shapex_rdf::pool::TermPool;
use shapex_rdf::term::{Literal, Term};
use shapex_shex::ast::{ArcConstraint, ShapeExpr, ShapeLabel};
use shapex_shex::constraint::{NodeConstraint, ValueSetValue};
use shapex_shex::sat::Sat3;
use shapex_shex::schema::Schema;

const PREDS: [&str; 2] = ["http://e/p0", "http://e/p1"];
const VALUES: [i64; 3] = [1, 2, 3];

/// A random value-set constraint over VALUES.
fn arb_constraint() -> impl Strategy<Value = NodeConstraint> {
    proptest::collection::btree_set(0usize..VALUES.len(), 1..=VALUES.len()).prop_map(|vals| {
        NodeConstraint::ValueSet(
            vals.into_iter()
                .map(|i| ValueSetValue::Term(Term::Literal(Literal::integer(VALUES[i]))))
                .collect(),
        )
    })
}

fn arb_arc() -> impl Strategy<Value = ShapeExpr> {
    (0usize..PREDS.len(), arb_constraint())
        .prop_map(|(p, c)| ShapeExpr::arc(ArcConstraint::value(PREDS[p], c)))
}

/// Random shape expressions of bounded depth over the tiny vocabulary.
fn arb_expr() -> impl Strategy<Value = ShapeExpr> {
    arb_arc().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(ShapeExpr::star),
            inner.clone().prop_map(ShapeExpr::plus),
            inner.clone().prop_map(ShapeExpr::opt),
            (inner.clone(), 0u32..=2, 0u32..=2).prop_map(|(e, m, extra)| ShapeExpr::repeat(
                e,
                m,
                Some(m + extra)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ShapeExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ShapeExpr::or(a, b)),
        ]
    })
}

/// Every neighbourhood expressible over PREDS × VALUES as an RDF set of
/// triples — all 2^6 subsets, indexed by bit mask.
fn all_bags() -> Vec<Vec<(usize, i64)>> {
    let pairs: Vec<(usize, i64)> = (0..PREDS.len())
        .flat_map(|p| VALUES.iter().map(move |&v| (p, v)))
        .collect();
    (0u32..1 << pairs.len())
        .map(|mask| {
            pairs
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &pv)| pv)
                .collect()
        })
        .collect()
}

fn single(expr: &ShapeExpr) -> Schema {
    Schema::from_rules([(ShapeLabel::new("S"), expr.clone())]).expect("one rule")
}

/// Either neighbourhood semantics: the paper's closed one, or open, where
/// a shape ignores triples whose predicate it does not mention.
fn arb_closure() -> impl Strategy<Value = Closure> {
    prop_oneof![Just(Closure::Closed), Just(Closure::Open)]
}

/// The engine's membership verdict for every enumerated neighbourhood:
/// one node per bag, checked under `closure`.
fn engine_matches(expr: &ShapeExpr, closure: Closure) -> Vec<bool> {
    let schema = single(expr);
    let mut ds = Dataset::new();
    let bags = all_bags();
    let nodes: Vec<String> = (0..bags.len()).map(|m| format!("http://e/n{m}")).collect();
    for (m, bag) in bags.iter().enumerate() {
        for &(p, v) in bag {
            ds.insert(
                Term::iri(nodes[m].as_str()),
                Term::iri(PREDS[p]),
                Term::Literal(Literal::integer(v)),
            );
        }
        ds.pool.intern_iri(nodes[m].as_str());
    }
    let mut engine = Engine::compile(
        &schema,
        &mut ds.pool,
        EngineConfig {
            closure,
            ..EngineConfig::default()
        },
    )
    .expect("compiles");
    nodes
        .iter()
        .map(|node| {
            let n = ds.iri(node).expect("node interned");
            engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .expect("shape exists")
                .matched
        })
        .collect()
}

/// Compiles `a` and `b` into one shared term pool (predicate TermIds must
/// line up for the containment product) and returns the compiled pair.
fn compile_pair(a: &ShapeExpr, b: &ShapeExpr) -> (CompiledSchema, CompiledSchema, ShapeId) {
    let mut terms = TermPool::new();
    let ca = CompiledSchema::compile(&single(a), &mut terms, Simplify::default()).expect("a");
    let cb = CompiledSchema::compile(&single(b), &mut terms, Simplify::default()).expect("b");
    let id = ca.shape_id(&"S".into()).expect("label S");
    (ca, cb, id)
}

/// Budget for one random containment query: enough that small products
/// decide exactly, with an arena cap so the occasional derivative-chain
/// explosion is cut off early instead of grinding. Cases that exhaust it
/// are simply skipped by the one-sided oracles below (exhaustion is
/// itself a legal outcome — see `containment_budget_exhausts_cleanly`).
fn prop_budget() -> Budget {
    Budget::steps(50_000).with_max_arena_nodes(10_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// UNSAT is an exact proof: a shape the calculus declares empty must
    /// match no enumerated neighbourhood under the engine, whichever
    /// semantics gathers the neighbourhood.
    #[test]
    fn emptiness_never_calls_a_matchable_shape_empty(expr in arb_expr(), closure in arb_closure()) {
        let schema = single(&expr);
        let mut terms = TermPool::new();
        let compiled =
            CompiledSchema::compile(&schema, &mut terms, Simplify::default()).expect("compiles");
        if emptiness(&compiled)[0] == Sat3::Unsat {
            let matched = engine_matches(&expr, closure);
            for (m, ok) in matched.iter().enumerate() {
                prop_assert!(
                    !ok,
                    "UNSAT shape matched neighbourhood {m:#08b} ({closure:?}): {expr:?}"
                );
            }
        }
    }

    /// Contained is an exact proof of language inclusion: no enumerated
    /// neighbourhood may match the sub-shape but not the super-shape when
    /// the engine gathers neighbourhoods under the same semantics. Half
    /// the super-shapes are `a | c`, which contains `a` under closed
    /// semantics but not under open semantics when `c` mentions a
    /// predicate `a` does not; those pairs check that the product's
    /// alphabet and the engine's neighbourhoods follow one relevance rule.
    #[test]
    fn containment_shows_no_enumerated_counterexample(
        a in arb_expr(),
        c in arb_expr(),
        widen in any::<bool>(),
        closure in arb_closure(),
    ) {
        let b = if widen { ShapeExpr::or(a.clone(), c) } else { c };
        let (ca, cb, id) = compile_pair(&a, &b);
        let verdict = containment(&ca, id, &cb, id, closure, &prop_budget());
        if let Verdict::Contained = verdict {
            let in_a = engine_matches(&a, closure);
            let in_b = engine_matches(&b, closure);
            for m in 0..in_a.len() {
                prop_assert!(
                    !in_a[m] || in_b[m],
                    "Contained ({closure:?}), but neighbourhood {m:#08b} matches {a:?} and not {b:?}"
                );
            }
        }
    }

    /// Containment of a shape in itself always holds: the product may
    /// exhaust its budget on a huge state space, but it must never
    /// *disprove* `L(e) ⊆ L(e)`.
    #[test]
    fn containment_is_reflexive(expr in arb_expr()) {
        let (ca, cb, id) = compile_pair(&expr, &expr);
        let verdict = containment(&ca, id, &cb, id, Closure::Closed, &prop_budget());
        prop_assert!(
            matches!(verdict, Verdict::Contained | Verdict::Exhausted(_)),
            "self-containment of {expr:?} gave {verdict}"
        );
    }
}

const OLD_SCHEMA: &str = "\
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<Person> { foaf:age xsd:integer , foaf:name xsd:string+ }
<Thing> { foaf:name . }
";

const NEW_SCHEMA: &str = "\
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<Person> { foaf:age xsd:integer , foaf:name xsd:string* }
<Thing> { foaf:name . }
";

const DELTA_DATA: &str = "\
@prefix : <http://example.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
:a foaf:age 23; foaf:name \"A\" .
:b foaf:age 34; foaf:name \"B\", \"Bee\" .
:c foaf:age 50 .
:d foaf:name \"D\" .
";

/// `fixtures/person/schema.shex` with `<Person>`'s three arcs reordered:
/// the same language, so a swap to it reuses every `<Person>` verdict.
const PERSON_REORDERED: &str = "\
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
<Person> { foaf:name xsd:string+ , foaf:knows @<Person>* , foaf:age xsd:integer }
";

/// The `results` rows of `engine`'s full-typing report, serialized.
fn typing_rows(engine: &mut Engine, ds: &Dataset, jobs: usize) -> String {
    let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    let report = RunReport::capture(|out| {
        let doc = ReportDoc::to_writer(out, "typing", "derivative");
        typing_report(doc, engine, &ds.graph, &ds.pool, &typing, 0)
    })
    .expect("writes to memory");
    let doc = serde_json::from_str(&report.body).expect("report parses");
    serde_json::to_string(doc.get("results").expect("results rows")).expect("serializes")
}

/// Schema-delta revalidation through [`Engine::swap_schema`] (classify
/// via `schema_diff`, transplant the reusable shapes' verdicts, re-type)
/// produces a typing, and report rows with their failure text, identical
/// to a from-scratch build of the new schema — at any worker count.
///
/// Inputs: a schema that loosens `<Person>` and keeps `<Thing>`, and one
/// that only reorders `<Person>`'s arcs. In the second every verdict
/// carries over, but the failure text must be the new schema's: the old
/// one checks `age` first, so a stale explanation of `:mary`, who has two
/// ages and no name, would cite `age` where a cold engine cites `name`.
#[test]
fn schema_delta_typing_matches_scratch_at_any_jobs() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/person");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("fixture");
    let person = (read("schema.shex"), read("data.ttl"));
    // (old schema, new schema, data, changed shapes, a reusable shape)
    let cases: [(&str, &str, &str, &[&str], &str); 2] = [
        (OLD_SCHEMA, NEW_SCHEMA, DELTA_DATA, &["Person"], "Thing"),
        (&person.0, PERSON_REORDERED, &person.1, &[], "Person"),
    ];
    for (old, new, data, changed, reused) in cases {
        let old = shapex_shex::shexc::parse(old).expect("old schema");
        let new = shapex_shex::shexc::parse(new).expect("new schema");
        for jobs in [1, 4] {
            let mut ds = shapex_rdf::turtle::parse(data).expect("data");
            let config = EngineConfig::default();
            let mut old_engine = Engine::compile(&old, &mut ds.pool, config).expect("old engine");
            typing_rows(&mut old_engine, &ds, jobs);

            let swap = old_engine.swap_schema(&new, &mut ds.pool).expect("swap");
            let labels: Vec<&str> = swap.diff.changed.iter().map(|l| l.as_str()).collect();
            assert_eq!(labels, changed);
            assert!(swap.diff.reusable.iter().any(|l| l.as_str() == reused));
            assert!(swap.transplanted > 0, "some <{reused}> verdicts carry over");
            let mut warm = swap.engine;
            let warm_typing = warm.type_all_par(&ds.graph, &ds.pool, jobs);

            let mut scratch = Engine::compile(&new, &mut ds.pool, config).expect("scratch engine");
            let scratch_typing = scratch.type_all_par(&ds.graph, &ds.pool, jobs);
            assert_eq!(warm_typing, scratch_typing, "jobs={jobs}");
            assert_eq!(
                typing_rows(&mut warm, &ds, jobs),
                typing_rows(&mut scratch, &ds, jobs),
                "jobs={jobs}"
            );
        }
    }
}

/// An arc whose predicate set is empty (ShExJ `"predicates": []`) can
/// never fire: emptiness proves the shape empty, and the engine matches
/// no enumerated neighbourhood against it under either semantics.
#[test]
fn empty_predicate_set_is_empty_for_calculus_and_engine() {
    let schema = shapex_shex::shexj::from_json(
        r#"{"type": "Schema", "shapes": [{"type": "Shape", "id": "S", "expression":
            {"type": "TripleConstraint", "predicates": []}}]}"#,
    )
    .expect("ShExJ schema");
    let mut terms = TermPool::new();
    let compiled =
        CompiledSchema::compile(&schema, &mut terms, Simplify::default()).expect("compiles");
    assert_eq!(emptiness(&compiled), [Sat3::Unsat]);
    let (_, expr) = schema.iter().next().expect("one shape");
    for closure in [Closure::Closed, Closure::Open] {
        let matched = engine_matches(expr, closure);
        assert!(matched.iter().all(|ok| !ok), "{closure:?}: {matched:?}");
    }
}

/// An oversized containment product exhausts its budget with a clean
/// `Exhausted` verdict — never a hang, never a wrong answer.
#[test]
fn containment_budget_exhausts_cleanly() {
    let any = || ShapeExpr::arc(ArcConstraint::value(PREDS[0], NodeConstraint::Any));
    let a = ShapeExpr::repeat(any(), 1, Some(400));
    let b = ShapeExpr::star(any());
    let (ca, cb, id) = compile_pair(&a, &b);
    let verdict = containment(&ca, id, &cb, id, Closure::Closed, &Budget::steps(50));
    assert!(
        matches!(verdict, Verdict::Exhausted(_)),
        "expected exhaustion, got {verdict}"
    );
}
