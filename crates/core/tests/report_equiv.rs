//! Report bytes are pinned two ways here.
//!
//! The resident server keeps warm engines compiled with `incremental:
//! true` (the `/delta` endpoint needs the dependency index) while the CLI
//! compiles `incremental: false` unless `--delta` is given. The CI serve
//! smoke diffs a server `/validate` response against CLI `--report json`
//! output byte-for-byte, so a cold full-typing report must not depend on
//! the incremental flag.
//!
//! The report writer streams each document in key order with no JSON
//! tree; [`tree`] keeps the tree builder it replaced as the oracle, and
//! generated documents must come out byte-identical from both.

use proptest::prelude::*;
use shapex::report::{
    delta_report, finish_engine_doc, map_report, push_typing_rows, typing_report, ReportDoc,
    RunReport,
};
use shapex::{Budget, Engine, EngineConfig};
use shapex_rdf::delta::GraphDelta;
use shapex_rdf::graph::{Dataset, Triple};
use shapex_rdf::term::{Literal, Term};
use shapex_shex::ast::{ArcConstraint, ShapeExpr, ShapeLabel};
use shapex_shex::constraint::NodeConstraint;
use shapex_shex::schema::Schema;
use shapex_shex::shapemap::{Association, ShapeMap};

fn report(incremental: bool, schema_src: &str, data_src: &str) -> String {
    let schema = shapex_shex::shexc::parse(schema_src).unwrap();
    let mut ds = shapex_rdf::turtle::parse(data_src).unwrap();
    let config = EngineConfig {
        metrics: true,
        incremental,
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
    let typing = engine.type_all_par(&ds.graph, &ds.pool, 1);
    let mut doc = ReportDoc::new("typing", "derivative");
    push_typing_rows(&mut doc, &mut engine, &ds.graph, &ds.pool, &typing);
    let conforms = (!typing.is_partial()).then_some(true);
    finish_engine_doc(doc, &engine, 0, conforms)
}

fn fixture(rel: &str) -> String {
    let path = format!("{}/../../fixtures/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn cold_full_typing_report_ignores_incremental_flag() {
    for (schema, data) in [
        ("person/schema.shex", "person/data.ttl"),
        ("clinical/schema.shex", "clinical/data.ttl"),
    ] {
        let schema = fixture(schema);
        let data = fixture(data);
        assert_eq!(
            report(false, &schema, &data),
            report(true, &schema, &data),
            "incremental flag leaked into the report bytes"
        );
    }
}

/// The tree builder the streaming writer replaced: each document built as
/// a `serde_json::Value` and rendered with `to_string_pretty`.
mod tree {
    use std::collections::HashMap;

    use serde_json::{json, Map, Value};
    use shapex::report::{engine_blocks, render, RunStatus};
    use shapex::{Engine, Exhaustion, MapOutcome, ShapeId, Typing};
    use shapex_rdf::delta::GraphDelta;
    use shapex_rdf::graph::{Dataset, Graph};
    use shapex_rdf::pool::TermPool;
    use shapex_shex::shapemap::ShapeMap;

    fn result_json(
        node: &str,
        shape: &str,
        verdict: &str,
        failure: Option<String>,
        exhaustion: Option<&Exhaustion>,
    ) -> Map<String, Value> {
        let mut m = Map::new();
        m.insert("node".to_string(), Value::from(node));
        m.insert("shape".to_string(), Value::from(shape));
        m.insert("verdict".to_string(), Value::from(verdict));
        if let Some(f) = failure {
            m.insert("failure".to_string(), Value::from(f));
        }
        if let Some(e) = exhaustion {
            m.insert("exhaustion".to_string(), e.to_json());
        }
        m
    }

    struct Doc {
        root: Map<String, Value>,
        results: Vec<Value>,
        exhausted: Vec<Value>,
    }

    impl Doc {
        fn new(mode: &str, engine: &str) -> Doc {
            let mut root = Map::new();
            root.insert("tool".to_string(), Value::from("shapex"));
            root.insert("mode".to_string(), Value::from(mode));
            root.insert("engine".to_string(), Value::from(engine));
            Doc {
                root,
                results: Vec::new(),
                exhausted: Vec::new(),
            }
        }

        fn push_exhausted(&mut self, node: &str, shape: &str, e: &Exhaustion) {
            let mut m = Map::new();
            m.insert("node".to_string(), Value::from(node));
            m.insert("shape".to_string(), Value::from(shape));
            m.insert("exhaustion".to_string(), e.to_json());
            self.exhausted.push(Value::Object(m));
        }

        fn finish(mut self, conforms: Option<bool>) -> Value {
            let conforms = conforms.map_or(Value::Null, Value::from);
            self.root.insert("conforms".to_string(), conforms);
            let results = Value::Array(self.results);
            self.root.insert("results".to_string(), results);
            let exhausted = Value::Array(self.exhausted);
            self.root.insert("exhausted".to_string(), exhausted);
            Value::Object(self.root)
        }
    }

    fn push_typing_rows(
        doc: &mut Doc,
        engine: &mut Engine,
        graph: &Graph,
        pool: &TermPool,
        typing: &Typing,
    ) {
        let exhausted: HashMap<_, _> = typing
            .exhausted
            .iter()
            .map(|&(n, s, e)| ((n, s), e))
            .collect();
        for node in graph.subjects().collect::<Vec<_>>() {
            for i in 0..engine.schema().shapes.len() {
                let shape = ShapeId(i as u32);
                let node_name = pool.term(node).to_string();
                let shape_name = engine.label_of(shape).as_str().to_string();
                let row = if typing.has(node, shape) {
                    result_json(&node_name, &shape_name, "conforms", None, None)
                } else if let Some(e) = exhausted.get(&(node, shape)) {
                    doc.push_exhausted(&node_name, &shape_name, e);
                    result_json(&node_name, &shape_name, "exhausted", None, Some(e))
                } else {
                    let failure = engine
                        .explain(graph, pool, node, shape)
                        .map(|f| f.render(pool));
                    result_json(&node_name, &shape_name, "fails", failure, None)
                };
                doc.results.push(Value::Object(row));
            }
        }
    }

    fn finish_engine_doc(
        mut doc: Doc,
        engine: &Engine,
        skipped: usize,
        conforms: Option<bool>,
    ) -> String {
        doc.root.extend(engine_blocks(engine, skipped));
        render(&doc.finish(conforms))
    }

    pub fn typing(
        engine: &mut Engine,
        graph: &Graph,
        pool: &TermPool,
        typing: &Typing,
        skipped: usize,
    ) -> String {
        let mut doc = Doc::new("typing", "derivative");
        push_typing_rows(&mut doc, engine, graph, pool, typing);
        let conforms = RunStatus::of_typing(typing).conforms();
        finish_engine_doc(doc, engine, skipped, conforms)
    }

    pub fn map(
        engine: &Engine,
        pool: &TermPool,
        map: &ShapeMap,
        outcomes: &[MapOutcome],
        skipped: usize,
    ) -> String {
        let mut doc = Doc::new("map", "derivative");
        for outcome in outcomes {
            let assoc = &map.associations[outcome.index];
            let node = assoc.node.to_string();
            let verdict = if outcome.exhaustion.is_some() {
                "exhausted"
            } else if outcome.conforms {
                "conforms"
            } else {
                "fails"
            };
            let mut row = result_json(
                &node,
                assoc.shape.as_str(),
                verdict,
                outcome.failure.as_ref().map(|f| f.render(pool)),
                outcome.exhaustion.as_ref(),
            );
            row.insert("expected".to_string(), Value::from(assoc.expected));
            row.insert("as_expected".to_string(), Value::from(outcome.as_expected));
            doc.results.push(Value::Object(row));
            if let Some(e) = &outcome.exhaustion {
                doc.push_exhausted(&node, assoc.shape.as_str(), e);
            }
        }
        let conforms = RunStatus::of_map(outcomes).conforms();
        finish_engine_doc(doc, engine, skipped, conforms)
    }

    fn section(engine: &mut Engine, graph: &Graph, pool: &TermPool, typing: &Typing) -> Value {
        let mut doc = Doc::new("typing", "derivative");
        push_typing_rows(&mut doc, engine, graph, pool, typing);
        doc.finish(RunStatus::of_typing(typing).conforms())
    }

    pub fn delta(
        engine: &mut Engine,
        ds: &mut Dataset,
        delta: &GraphDelta,
        file: Option<&str>,
        skipped: usize,
    ) -> String {
        let before_typing = engine.type_all_par(&ds.graph, &ds.pool, 1);
        let before = section(engine, &ds.graph, &ds.pool, &before_typing);
        ds.try_apply_delta(delta).expect("the delta applies");
        let after_typing = engine
            .revalidate_par(&ds.graph, &ds.pool, delta, 1)
            .expect("revalidation runs");
        let after = section(engine, &ds.graph, &ds.pool, &after_typing);
        let stats = engine.stats();
        let mut block = json!({
            "added": delta.added.len(),
            "removed": delta.removed.len(),
            "invalidated": stats.invalidated_pairs,
            "retyped": stats.retyped_pairs,
            "reused": stats.reused_pairs,
        });
        if let (Some(file), Value::Object(m)) = (file, &mut block) {
            m.insert("file".to_string(), Value::from(file));
        }
        let mut doc = Doc::new("delta", "derivative");
        doc.root.insert("delta".to_string(), block);
        doc.root.insert("before".to_string(), before);
        doc.root.insert("after".to_string(), after);
        let conforms = RunStatus::of_typing(&after_typing).conforms();
        finish_engine_doc(doc, engine, skipped, conforms)
    }
}

/// Names with every character class the JSON escaper treats apart: quotes,
/// backslashes, newlines, the lowest and highest control characters, and
/// multi-byte text.
const NAMES: [&str; 8] = [
    "plain",
    "q\"uote",
    "back\\slash",
    "new\nline",
    "ctl\u{1}",
    "ctl\u{1f}",
    "é日本𝄞",
    "mix \"\\\n\u{1}\u{1f}é",
];

const NAME: &str = "http://e/name";
const AGE: &str = "http://e/age";
const KNOWS: &str = "http://e/knows";

/// Two mutually recursive closed shapes whose labels are generated
/// names: `A { name xsd:string ; knows @B* }`, `B { age xsd:integer? ;
/// knows @A* }`. A node with both a name and an age fails both, each
/// failure citing a literal.
fn schema(labels: (usize, usize)) -> (Schema, [ShapeLabel; 2]) {
    let a = ShapeLabel::new(format!("A {}", NAMES[labels.0]));
    let b = ShapeLabel::new(format!("B {}", NAMES[labels.1]));
    let datatype = |iri: &str| NodeConstraint::Datatype(iri.into());
    let knows = |l: &ShapeLabel| {
        ShapeExpr::star(ShapeExpr::arc(ArcConstraint::reference(KNOWS, l.clone())))
    };
    let mut schema = Schema::new();
    let name = ArcConstraint::value(NAME, datatype("http://www.w3.org/2001/XMLSchema#string"));
    let age = ArcConstraint::value(AGE, datatype("http://www.w3.org/2001/XMLSchema#integer"));
    let a_expr = ShapeExpr::and(ShapeExpr::arc(name), knows(&b));
    let b_expr = ShapeExpr::and(ShapeExpr::opt(ShapeExpr::arc(age)), knows(&a));
    schema.add_shape(a.clone(), a_expr).unwrap();
    schema.add_shape(b.clone(), b_expr).unwrap();
    (schema, [a, b])
}

/// A subject: an IRI or a blank node, named from [`NAMES`].
fn subject((name, blank): (usize, bool), i: usize) -> Term {
    if blank {
        Term::blank(format!("{}{i}", NAMES[name]))
    } else {
        Term::iri(format!("http://e/{}{i}", NAMES[name]))
    }
}

/// One generated triple: subject index, predicate, and an object that is
/// a string, integer, invalid-integer or language-tagged literal, or
/// another subject.
type GenTriple = (usize, usize, usize, usize);

fn triple(subjects: &[Term], (s, p, kind, o): GenTriple) -> (Term, Term, Term) {
    let s = subjects[s % subjects.len()].clone();
    let p = Term::iri([NAME, AGE, KNOWS][p]);
    let text = NAMES[o % NAMES.len()];
    let o = match kind {
        0 => Term::Literal(Literal::string(text)),
        1 => Term::Literal(Literal::integer(o as i64)),
        2 => Term::Literal(Literal::typed(
            text,
            "http://www.w3.org/2001/XMLSchema#integer",
        )),
        3 => Term::Literal(Literal::lang_string(text, "EN")),
        _ => subjects[o % subjects.len()].clone(),
    };
    (s, p, o)
}

struct Input {
    ds: Dataset,
    schema: Schema,
    labels: [ShapeLabel; 2],
    subjects: Vec<Term>,
}

fn input(names: &[(usize, bool)], triples: &[GenTriple], labels: (usize, usize)) -> Input {
    let subjects: Vec<Term> = names
        .iter()
        .enumerate()
        .map(|(i, &n)| subject(n, i))
        .collect();
    let mut ds = Dataset::new();
    if !subjects.is_empty() {
        for &t in triples {
            let (s, p, o) = triple(&subjects, t);
            ds.insert(s, p, o);
        }
    }
    ds.compact();
    let (schema, labels) = schema(labels);
    Input {
        ds,
        schema,
        labels,
        subjects,
    }
}

fn config(max_steps: Option<u64>, incremental: bool) -> EngineConfig {
    EngineConfig {
        metrics: true,
        incremental,
        budget: Budget {
            max_steps,
            ..Budget::UNLIMITED
        },
        ..EngineConfig::default()
    }
}

fn gen_names() -> impl Strategy<Value = Vec<(usize, bool)>> {
    proptest::collection::vec((0..NAMES.len(), any::<bool>()), 0..6)
}

fn gen_triples() -> impl Strategy<Value = Vec<GenTriple>> {
    proptest::collection::vec((0usize..6, 0usize..3, 0usize..5, 0usize..8), 0..18)
}

fn gen_budget() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (1u64..16).prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full typings, streamed and held alike, equal the tree: awkward node
    /// and shape names, blank subjects, failures citing literals, budget
    /// exhaustion, a lenient skip count, and the empty graph.
    #[test]
    fn typing_report_bytes_equal_the_tree(
        names in gen_names(),
        triples in gen_triples(),
        labels in (0..NAMES.len(), 0..NAMES.len()),
        max_steps in gen_budget(),
        skipped in 0usize..3,
        no_sorbe in any::<bool>(),
    ) {
        let mut input = input(&names, &triples, labels);
        // All three renderings explain on one engine: an explanation
        // leaves the memo as it found it, so under any budget each
        // rendering of the typing reads the same memo.
        let config = EngineConfig { no_sorbe, ..config(max_steps, false) };
        let mut engine = Engine::compile(&input.schema, &mut input.ds.pool, config).unwrap();
        let (graph, pool) = (&input.ds.graph, &input.ds.pool);
        let typing = engine.type_all_par(graph, pool, 1);
        let streamed = RunReport::capture(|out| {
            let doc = ReportDoc::to_writer(out, "typing", "derivative");
            typing_report(doc, &mut engine, graph, pool, &typing, skipped)
        })
        .unwrap();
        let conforms = streamed.status.conforms();
        let mut doc = ReportDoc::new("typing", "derivative");
        push_typing_rows(&mut doc, &mut engine, graph, pool, &typing);
        let held = finish_engine_doc(doc, &engine, skipped, conforms);
        let oracle = tree::typing(&mut engine, graph, pool, &typing, skipped);
        prop_assert_eq!(&streamed.body, &oracle);
        prop_assert_eq!(&held, &oracle);
    }

    /// Shape-map reports equal the tree, with expectations either way, a
    /// node absent from the graph, and exhausted checks.
    #[test]
    fn map_report_bytes_equal_the_tree(
        names in gen_names(),
        triples in gen_triples(),
        labels in (0..NAMES.len(), 0..NAMES.len()),
        max_steps in gen_budget(),
        expected in proptest::collection::vec(any::<bool>(), 0..8),
        skipped in 0usize..3,
    ) {
        let mut input = input(&names, &triples, labels);
        let mut engine =
            Engine::compile(&input.schema, &mut input.ds.pool, config(max_steps, false)).unwrap();
        let mut nodes = input.subjects.clone();
        nodes.push(Term::iri("http://e/absent\"é"));
        let associations = expected
            .iter()
            .enumerate()
            .map(|(i, &expected)| Association {
                node: nodes[i % nodes.len()].clone(),
                shape: input.labels[i % 2].clone(),
                expected,
            })
            .collect();
        let map = ShapeMap { associations };
        let outcomes = engine.validate_map(&input.ds.graph, &mut input.ds.pool, &map).unwrap();
        let pool = &input.ds.pool;
        let streamed = RunReport::capture(|out| {
            map_report(out, &engine, pool, &map, &outcomes, skipped)
        })
        .unwrap();
        prop_assert_eq!(streamed.body, tree::map(&engine, pool, &map, &outcomes, skipped));
    }

    /// `--delta` documents equal the tree: the streamed `after` section,
    /// the held `before` section, and the blocks around them.
    #[test]
    fn delta_report_bytes_equal_the_tree(
        names in gen_names(),
        triples in gen_triples(),
        added in gen_triples(),
        removed in proptest::collection::vec(0usize..18, 0..5),
        labels in (0..NAMES.len(), 0..NAMES.len()),
        file in any::<bool>(),
        skipped in 0usize..3,
    ) {
        let file = file.then_some("edits \"é\".diff");
        let run = |streamed: bool| {
            let Input { mut ds, schema, subjects, .. } = input(&names, &triples, labels);
            let mut engine = Engine::compile(&schema, &mut ds.pool, config(None, true)).unwrap();
            let mut delta = GraphDelta::new();
            if !subjects.is_empty() {
                let mut intern = |t: GenTriple| {
                    let (s, p, o) = triple(&subjects, t);
                    Triple::new(ds.pool.intern(s), ds.pool.intern(p), ds.pool.intern(o))
                };
                delta.removed = removed.iter().filter_map(|&i| triples.get(i)).map(|&t| intern(t)).collect();
                delta.added = added.iter().map(|&t| intern(t)).collect();
            }
            if streamed {
                RunReport::capture(|out| {
                    delta_report(out, &mut engine, &mut ds, &delta, 1, file, skipped)
                })
                .unwrap()
                .body
            } else {
                tree::delta(&mut engine, &mut ds, &delta, file, skipped)
            }
        };
        prop_assert_eq!(run(true), run(false));
    }
}
