//! Differential testing: the derivative engine must agree with the
//! backtracking baseline (the paper's reference semantics, Fig. 1/Fig. 4)
//! on randomly generated schemas and graphs, and both must agree with the
//! workload generators' analytic ground truth.

use proptest::prelude::*;

use shapex::report::{typing_report, ReportDoc, RunReport};
use shapex::{Closure, Engine, EngineConfig, FailureKind};
use shapex_backtrack::{BacktrackValidator, BtConfig};
use shapex_rdf::graph::Dataset;
use shapex_rdf::term::{Literal, Term};
use shapex_rdf::vocab::xsd;
use shapex_rdf::xsd::Numeric;
use shapex_shex::ast::{ArcConstraint, ShapeExpr, ShapeLabel};
use shapex_shex::constraint::{Facet, NodeConstraint, ValueSetValue};
use shapex_shex::schema::Schema;
use shapex_workloads::{person_network, Topology};

const PREDS: [&str; 3] = ["http://e/p0", "http://e/p1", "http://e/p2"];
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

/// A random neighbourhood: up to 6 triples over PREDS × VALUES.
fn arb_graph() -> impl Strategy<Value = Vec<(usize, i64)>> {
    proptest::collection::btree_set((0usize..PREDS.len(), 0usize..VALUES.len()), 0..=6)
        .prop_map(|set| set.into_iter().map(|(p, v)| (p, VALUES[v])).collect())
}

fn build_dataset(triples: &[(usize, i64)]) -> (Dataset, &'static str) {
    let mut ds = Dataset::new();
    let node = "http://e/n";
    for &(p, v) in triples {
        ds.insert(
            Term::iri(node),
            Term::iri(PREDS[p]),
            Term::Literal(Literal::integer(v)),
        );
    }
    // Ensure the node exists even with zero triples.
    ds.pool.intern_iri(node);
    (ds, node)
}

fn run_derivative(expr: &ShapeExpr, ds: &mut Dataset, node: &str, closure: Closure) -> bool {
    let schema = Schema::from_rules([(ShapeLabel::new("S"), expr.clone())]).expect("one rule");
    let mut engine = Engine::compile(
        &schema,
        &mut ds.pool,
        EngineConfig {
            closure,
            ..EngineConfig::default()
        },
    )
    .expect("compiles");
    let n = ds.iri(node).expect("node interned");
    engine
        .check(&ds.graph, &ds.pool, n, &"S".into())
        .expect("shape exists")
        .matched
}

fn run_backtracking(expr: &ShapeExpr, ds: &Dataset, node: &str) -> Option<bool> {
    let schema = Schema::from_rules([(ShapeLabel::new("S"), expr.clone())]).expect("one rule");
    let v = BacktrackValidator::with_config(
        &schema,
        BtConfig {
            budget: shapex::Budget::steps(5_000_000),
        },
    )
    .expect("compiles");
    let n = ds.iri(node).expect("node interned");
    v.check(&ds.graph, &ds.pool, n, &"S".into()).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The derivative engine and the Fig. 1 backtracking rules decide the
    /// same language.
    #[test]
    fn derivative_agrees_with_backtracking(expr in arb_expr(), triples in arb_graph()) {
        let (mut ds, node) = build_dataset(&triples);
        let derivative = run_derivative(&expr, &mut ds, node, Closure::Closed);
        if let Some(backtracking) = run_backtracking(&expr, &ds, node) {
            prop_assert_eq!(
                derivative, backtracking,
                "disagree on {:?} over {:?}", expr, triples
            );
        }
    }

    /// `e{m,n}` (native counter derivative) is equivalent to its §4
    /// expansion into the core algebra.
    #[test]
    fn repeat_equals_expansion(
        inner in arb_arc(),
        m in 0u32..3,
        extra in 0u32..3,
        unbounded in proptest::bool::ANY,
        triples in arb_graph()
    ) {
        let max = if unbounded { None } else { Some(m + extra) };
        let repeat = ShapeExpr::repeat(inner, m, max);
        let expanded = repeat.desugared();
        let (mut ds, node) = build_dataset(&triples);
        let native = run_derivative(&repeat, &mut ds, node, Closure::Closed);
        let via_expansion = run_derivative(&expanded, &mut ds, node, Closure::Closed);
        prop_assert_eq!(native, via_expansion, "on {:?}", triples);
    }

    /// The SORBE counting fast path and the general derivative algorithm
    /// decide the same language on every expression that qualifies for
    /// the fast path (and on the rest, `no_sorbe` is a no-op) — in both
    /// closure modes.
    #[test]
    fn sorbe_agrees_with_general(expr in arb_expr(), triples in arb_graph()) {
        let (mut ds, node) = build_dataset(&triples);
        let schema =
            Schema::from_rules([(ShapeLabel::new("S"), expr.clone())]).expect("one rule");
        for closure in [Closure::Closed, Closure::Open] {
            let mut with_sorbe = Engine::compile(
                &schema,
                &mut ds.pool,
                EngineConfig { closure, ..EngineConfig::default() },
            )
            .expect("compiles");
            let mut general = Engine::compile(
                &schema,
                &mut ds.pool,
                EngineConfig { closure, no_sorbe: true, ..EngineConfig::default() },
            )
            .expect("compiles");
            let n = ds.iri(node).expect("node interned");
            let a = with_sorbe.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap().matched;
            let b = general.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap().matched;
            prop_assert_eq!(
                a, b,
                "sorbe path diverges ({:?}) on {:?} over {:?}", closure, expr, triples
            );
        }
    }

    /// Closed conformance implies open conformance (open only ignores
    /// extra triples).
    #[test]
    fn closed_implies_open(expr in arb_expr(), triples in arb_graph()) {
        let (mut ds, node) = build_dataset(&triples);
        let closed = run_derivative(&expr, &mut ds, node, Closure::Closed);
        let open = run_derivative(&expr, &mut ds, node, Closure::Open);
        prop_assert!(!closed || open, "closed ⊄ open on {:?} / {:?}", expr, triples);
    }

    /// Every non-conforming verdict carries a failure explanation that
    /// renders without panicking.
    #[test]
    fn failures_always_explained(expr in arb_expr(), triples in arb_graph()) {
        let (mut ds, node) = build_dataset(&triples);
        let schema =
            Schema::from_rules([(ShapeLabel::new("S"), expr.clone())]).expect("one rule");
        let mut engine = Engine::new(&schema, &mut ds.pool).expect("compiles");
        let n = ds.iri(node).expect("interned");
        let result = engine.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap();
        if !result.matched {
            let failure = result.failure.expect("failing checks are explained");
            let rendered = failure.render(&ds.pool);
            prop_assert!(!rendered.is_empty());
        }
    }

    /// The §7 trace reaches the same verdict as the checker (general
    /// path), on arbitrary expressions and graphs, and a failing trace
    /// stops where the failure explanation says: a trace ending in `∅`
    /// at the unexpected triple, any other at the missing residual.
    #[test]
    fn trace_verdict_matches_check(expr in arb_expr(), triples in arb_graph()) {
        let (mut ds, node) = build_dataset(&triples);
        let schema =
            Schema::from_rules([(ShapeLabel::new("S"), expr.clone())]).expect("one rule");
        let mut engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig { no_sorbe: true, ..EngineConfig::default() },
        )
        .expect("compiles");
        let n = ds.iri(node).expect("interned");
        let checked = engine.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap();
        let trace = engine.trace(&ds.graph, &ds.pool, n, &"S".into()).unwrap();
        prop_assert_eq!(checked.matched, trace.matched, "on {:?} over {:?}", expr, triples);
        if !trace.matched {
            let failure = checked.failure.expect("failing checks are explained");
            match (trace.steps.last().filter(|s| s.after == "∅"), &failure.kind) {
                (
                    Some(step),
                    FailureKind::UnexpectedTriple { subject, predicate, object },
                ) => prop_assert_eq!(
                    (step.subject, step.predicate, step.object),
                    (*subject, *predicate, *object)
                ),
                (None, FailureKind::MissingRequired) => {
                    prop_assert!(!trace.nullable);
                    prop_assert_eq!(&failure.expectation, &trace.residual);
                }
                (last, kind) => prop_assert!(
                    false,
                    "trace ends at {:?}, check failed with {:?}", last, kind
                ),
            }
        }
    }

    /// The trace's steps form one derivative chain: each step starts
    /// where the previous one ended, the residual is where the last one
    /// ended, and a trace that never reaches `∅` consumes the whole
    /// neighbourhood.
    #[test]
    fn trace_steps_chain_to_the_residual(expr in arb_expr(), triples in arb_graph()) {
        let (mut ds, node) = build_dataset(&triples);
        let schema =
            Schema::from_rules([(ShapeLabel::new("S"), expr.clone())]).expect("one rule");
        let mut engine =
            Engine::compile(&schema, &mut ds.pool, EngineConfig::default()).expect("compiles");
        let n = ds.iri(node).expect("interned");
        let trace = engine.trace(&ds.graph, &ds.pool, n, &"S".into()).unwrap();
        for pair in trace.steps.windows(2) {
            prop_assert_eq!(&pair[0].after, &pair[1].before, "on {:?}", expr);
        }
        if let Some(last) = trace.steps.last() {
            prop_assert_eq!(&last.after, &trace.residual);
        }
        let dead = trace.residual == "∅";
        if !dead {
            prop_assert_eq!(trace.steps.len(), triples.len(), "on {:?}", expr);
        }
        prop_assert_eq!(trace.matched, trace.nullable && !dead);
    }

    /// The trace reads derivatives through the shape DFA when they are
    /// memoised: a cold trace, a second trace over the filled table and
    /// one with the table bypassed (`no_deriv_memo`) are the same trace.
    #[test]
    fn trace_is_independent_of_the_transition_table(
        expr in arb_expr(),
        triples in arb_graph()
    ) {
        let (mut ds, node) = build_dataset(&triples);
        let schema =
            Schema::from_rules([(ShapeLabel::new("S"), expr.clone())]).expect("one rule");
        let n = ds.iri(node).expect("interned");
        let mut traces = Vec::new();
        for no_deriv_memo in [false, true] {
            let mut engine = Engine::compile(
                &schema,
                &mut ds.pool,
                EngineConfig { no_deriv_memo, ..EngineConfig::default() },
            )
            .expect("compiles");
            for _ in 0..2 {
                traces.push(engine.trace(&ds.graph, &ds.pool, n, &"S".into()).unwrap());
            }
        }
        for t in &traces[1..] {
            prop_assert_eq!(t, &traces[0], "on {:?} over {:?}", expr, triples);
        }
    }

    /// Matching is insensitive to triple consumption order: validating the
    /// same neighbourhood built in reversed insertion order agrees.
    #[test]
    fn order_insensitive(expr in arb_expr(), triples in arb_graph()) {
        let (mut ds, node) = build_dataset(&triples);
        let forward = run_derivative(&expr, &mut ds, node, Closure::Closed);
        let reversed: Vec<_> = triples.iter().rev().copied().collect();
        let (mut ds2, node2) = build_dataset(&reversed);
        let backward = run_derivative(&expr, &mut ds2, node2, Closure::Closed);
        prop_assert_eq!(forward, backward);
    }
}

// ---------------------------------------------------------------------------
// §10 extensions, differentially: inverse arcs × numeric facets.
// ---------------------------------------------------------------------------

/// Peers that point *into* the focus node (subjects of inverse triples).
const PEERS: [&str; 2] = ["http://e/m0", "http://e/m1"];

/// Facet bounds straddling 2^53, where `xsd:decimal` vs `xsd:double`
/// comparison must be exact (an f64 round-trip collapses the neighbours
/// of 9007199254740992 onto it).
const BOUNDS: [(&str, &str); 6] = [
    (xsd::INTEGER, "2"),
    (xsd::INTEGER, "9007199254740991"),
    (xsd::INTEGER, "9007199254740992"),
    (xsd::INTEGER, "9007199254740993"),
    (xsd::DECIMAL, "9007199254740992.5"),
    (xsd::DOUBLE, "9.007199254740992E15"),
];

/// Numeric literal objects for the outgoing triples — same critical region
/// as BOUNDS plus small values, across all three numeric datatypes.
const NUM_OBJECTS: [(&str, &str); 6] = [
    (xsd::INTEGER, "1"),
    (xsd::INTEGER, "3"),
    (xsd::INTEGER, "9007199254740991"),
    (xsd::INTEGER, "9007199254740993"),
    (xsd::DECIMAL, "9007199254740992.0000001"),
    (xsd::DOUBLE, "9.007199254740992E15"),
];

fn arb_numeric_facet() -> impl Strategy<Value = NodeConstraint> {
    (0usize..BOUNDS.len(), 0usize..4).prop_map(|(b, op)| {
        let (dt, lex) = BOUNDS[b];
        let bound = Numeric::parse(dt, lex).expect("BOUNDS entries are valid lexical forms");
        NodeConstraint::Facet(match op {
            0 => Facet::MinInclusive(bound),
            1 => Facet::MinExclusive(bound),
            2 => Facet::MaxInclusive(bound),
            _ => Facet::MaxExclusive(bound),
        })
    })
}

/// A value set over PEERS — the object constraint of an inverse arc
/// (incoming subjects are IRIs, so numeric facets cannot apply there).
fn arb_peer_constraint() -> impl Strategy<Value = NodeConstraint> {
    proptest::collection::btree_set(0usize..PEERS.len(), 1..=PEERS.len()).prop_map(|s| {
        NodeConstraint::ValueSet(
            s.into_iter()
                .map(|i| ValueSetValue::Term(Term::iri(PEERS[i])))
                .collect(),
        )
    })
}

/// Forward arcs carry numeric-facet constraints; inverse arcs (`^p`)
/// constrain the incoming subject.
fn arb_ext_arc() -> impl Strategy<Value = ShapeExpr> {
    prop_oneof![
        (0usize..PREDS.len(), arb_numeric_facet())
            .prop_map(|(p, c)| ShapeExpr::arc(ArcConstraint::value(PREDS[p], c))),
        (0usize..PREDS.len(), arb_peer_constraint())
            .prop_map(|(p, c)| ShapeExpr::arc(ArcConstraint::value(PREDS[p], c).inverted())),
    ]
}

fn arb_ext_expr() -> impl Strategy<Value = ShapeExpr> {
    arb_ext_arc().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(ShapeExpr::star),
            inner.clone().prop_map(ShapeExpr::plus),
            inner.clone().prop_map(ShapeExpr::opt),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ShapeExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ShapeExpr::or(a, b)),
        ]
    })
}

/// Outgoing numeric triples `(pred, object)` plus incoming peer triples
/// `(peer, pred)` around the focus node.
type ExtGraph = (Vec<(usize, usize)>, Vec<(usize, usize)>);

fn arb_ext_graph() -> impl Strategy<Value = ExtGraph> {
    (
        proptest::collection::btree_set((0usize..PREDS.len(), 0usize..NUM_OBJECTS.len()), 0..=4)
            .prop_map(|s| s.into_iter().collect()),
        proptest::collection::btree_set((0usize..PEERS.len(), 0usize..PREDS.len()), 0..=4)
            .prop_map(|s| s.into_iter().collect()),
    )
}

fn build_ext_dataset(
    outgoing: &[(usize, usize)],
    incoming: &[(usize, usize)],
) -> (Dataset, &'static str) {
    let mut ds = Dataset::new();
    let node = "http://e/n";
    for &(p, v) in outgoing {
        let (dt, lex) = NUM_OBJECTS[v];
        ds.insert(
            Term::iri(node),
            Term::iri(PREDS[p]),
            Term::Literal(Literal::typed(lex, dt)),
        );
    }
    for &(m, p) in incoming {
        ds.insert(Term::iri(PEERS[m]), Term::iri(PREDS[p]), Term::iri(node));
    }
    ds.pool.intern_iri(node);
    (ds, node)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The §10 extensions interact soundly: schemas mixing inverse arcs
    /// with numeric facets whose bounds straddle 2^53 decide the same
    /// language on both engines. Exercises the exact decimal/double
    /// comparison differentially — before that fix, bounds like
    /// `9007199254740992.5` collapsed onto their f64 neighbours.
    #[test]
    fn inverse_and_numeric_facets_agree(
        expr in arb_ext_expr(),
        (outgoing, incoming) in arb_ext_graph()
    ) {
        let (mut ds, node) = build_ext_dataset(&outgoing, &incoming);
        let derivative = run_derivative(&expr, &mut ds, node, Closure::Closed);
        if let Some(backtracking) = run_backtracking(&expr, &ds, node) {
            prop_assert_eq!(
                derivative, backtracking,
                "disagree on {:?} over out={:?} in={:?}", expr, outgoing, incoming
            );
        }
    }

    /// Metrics invariants on arbitrary runs: every cache satisfies
    /// `lookups == hits + misses`, the budget meter never spends past its
    /// limit, and the `Stats`/`Metrics` copies of the shared step counter
    /// agree.
    #[test]
    fn metric_invariants_hold(
        expr in arb_ext_expr(),
        (outgoing, incoming) in arb_ext_graph(),
        limit in 50u64..5_000
    ) {
        let (mut ds, node) = build_ext_dataset(&outgoing, &incoming);
        let schema =
            Schema::from_rules([(ShapeLabel::new("S"), expr)]).expect("one rule");
        let mut engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig {
                budget: shapex::Budget::steps(limit),
                metrics: true,
                ..EngineConfig::default()
            },
        )
        .expect("compiles");
        let n = ds.iri(node).expect("interned");
        // Exhaustion is a legal outcome here; the invariants must hold
        // either way.
        let _ = engine.check(&ds.graph, &ds.pool, n, &"S".into());
        let stats = engine.stats();
        prop_assert!(
            stats.budget_steps <= limit,
            "spent {} steps past the {} limit", stats.budget_steps, limit
        );
        let m = engine.metrics().expect("metrics enabled");
        for (name, c) in [
            ("profile_stable", &m.profile_stable),
            ("profile_assumption", &m.profile_assumption),
            ("dfa_table", &m.dfa_table),
        ] {
            prop_assert_eq!(
                c.lookups, c.hits + c.misses,
                "{} cache: lookups != hits + misses", name
            );
        }
        prop_assert_eq!(m.budget_steps, stats.budget_steps);
        // One class table: every triple class a `jobs = 1` typing interns
        // is a class of some shape DFA, with the transition table on and
        // off.
        for no_deriv_memo in [false, true] {
            let mut engine = Engine::compile(
                &schema,
                &mut ds.pool,
                EngineConfig {
                    budget: shapex::Budget::steps(limit),
                    no_deriv_memo,
                    no_sorbe: true,
                    ..EngineConfig::default()
                },
            )
            .expect("compiles");
            engine.type_all(&ds.graph, &ds.pool);
            let classes: usize = engine.dfa_summary().iter().map(|&(_, _, c, _)| c).sum();
            prop_assert_eq!(
                engine.stats().triple_classes, classes as u64,
                "no_deriv_memo = {}", no_deriv_memo
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Lazy shape DFA, differentially: memoising derivatives in the dense
// transition table must not change a verdict.
// ---------------------------------------------------------------------------

/// Runs one check with the derivative memo on (the lazy DFA) or off
/// (`no_deriv_memo`) under `budget`, and returns the outcome plus the
/// derivative steps, DFA table hits and budget steps it spent.
fn run_dfa_mode(
    expr: &ShapeExpr,
    outgoing: &[(usize, usize)],
    incoming: &[(usize, usize)],
    no_deriv_memo: bool,
    budget: shapex::Budget,
) -> (shapex::Outcome, u64, u64, u64) {
    let (mut ds, node) = build_ext_dataset(outgoing, incoming);
    let schema = Schema::from_rules([(ShapeLabel::new("S"), expr.clone())]).expect("one rule");
    let mut engine = Engine::compile(
        &schema,
        &mut ds.pool,
        EngineConfig {
            no_deriv_memo,
            no_sorbe: true, // force the derivative path so the memo matters
            budget,
            ..EngineConfig::default()
        },
    )
    .expect("compiles");
    let n = ds.iri(node).expect("interned");
    let shape = engine.shape_id(&"S".into()).expect("shape exists");
    let outcome = engine.check_id(&ds.graph, &ds.pool, n, shape);
    let stats = engine.stats();
    (
        outcome,
        stats.derivative_steps,
        stats.deriv_memo_hits,
        stats.budget_steps,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// DFA on, DFA off (`no_deriv_memo`), and the backtracking reference
    /// agree on the §10 extension vocabulary (inverse arcs × exact
    /// numeric facets) — the harshest schemas for alphabet-class
    /// compression, since arcs with the same predicate refine into
    /// distinct classes by object.
    #[test]
    fn dfa_agrees_with_uncached_and_backtracking(
        expr in arb_ext_expr(),
        (outgoing, incoming) in arb_ext_graph()
    ) {
        let unlimited = shapex::Budget::UNLIMITED;
        let (dfa, ..) = run_dfa_mode(&expr, &outgoing, &incoming, false, unlimited);
        let (uncached, ..) = run_dfa_mode(&expr, &outgoing, &incoming, true, unlimited);
        prop_assert_eq!(
            &dfa, &uncached,
            "dfa vs no_deriv_memo diverge on {:?} over out={:?} in={:?}",
            expr, outgoing, incoming
        );
        let matched = matches!(dfa, shapex::Outcome::Conforms);
        let (ds, node) = build_ext_dataset(&outgoing, &incoming);
        if let Some(backtracking) = run_backtracking(&expr, &ds, node) {
            prop_assert_eq!(
                matched, backtracking,
                "dfa vs backtracking diverge on {:?} over out={:?} in={:?}",
                expr, outgoing, incoming
            );
        }
    }

    /// Under tight step *and* arena budgets the DFA and the uncached path
    /// may exhaust on different checks (table fills are charged as arena
    /// units, and every derivative the table saves is a step the uncached
    /// path spends), but a check that both answer gets the same verdict.
    #[test]
    fn dfa_agrees_with_uncached_under_budget(
        expr in arb_ext_expr(),
        (outgoing, incoming) in arb_ext_graph(),
        steps in 8u64..400,
        arena in 8usize..400
    ) {
        let budget = shapex::Budget::steps(steps).with_max_arena_nodes(arena);
        let (dfa, ..) = run_dfa_mode(&expr, &outgoing, &incoming, false, budget);
        let (uncached, ..) = run_dfa_mode(&expr, &outgoing, &incoming, true, budget);
        let exhausted = |o: &shapex::Outcome| matches!(o, shapex::Outcome::Exhausted(_));
        if !exhausted(&dfa) && !exhausted(&uncached) {
            prop_assert_eq!(
                &dfa, &uncached,
                "verdicts diverge under budget on {:?} over out={:?} in={:?}",
                expr, outgoing, incoming
            );
        }
    }

    /// Budget charging depends only on the input: two fresh DFA engines
    /// under the same step and arena budgets exhaust identically — same
    /// outcome (including which resource tripped and how much was spent),
    /// same derivative steps, same table hits, same budget charge — so a
    /// budgeted run that exits 3 exits 3 again, at the same point.
    #[test]
    fn dfa_budgeted_runs_are_reproducible(
        expr in arb_ext_expr(),
        (outgoing, incoming) in arb_ext_graph(),
        steps in 8u64..400,
        arena in 8usize..400
    ) {
        let budget = shapex::Budget::steps(steps).with_max_arena_nodes(arena);
        let (o1, d1, h1, b1) = run_dfa_mode(&expr, &outgoing, &incoming, false, budget);
        let (o2, d2, h2, b2) = run_dfa_mode(&expr, &outgoing, &incoming, false, budget);
        prop_assert_eq!(
            &o1, &o2,
            "outcomes diverge under budget on {:?} over out={:?} in={:?}",
            expr, outgoing, incoming
        );
        prop_assert_eq!(d1, d2, "derivative steps diverge");
        prop_assert_eq!(h1, h2, "table hits diverge");
        prop_assert_eq!(b1, b2, "budget charging diverges");
    }
}

const NODES: [&str; 4] = ["http://e/n0", "http://e/n1", "http://e/n2", "http://e/n3"];

/// A two-shape schema where `S` requires `ref`-arcs into `T`, plus a small
/// multi-node graph with cross-links — exercises the Arcref rule (§8) on
/// both engines, including self/mutual references.
fn arb_ref_schema() -> impl Strategy<Value = Schema> {
    // T: a flat value-set shape; S: one value arc + a ref arc to T (or S,
    // making it recursive) under a random cardinality.
    (
        arb_constraint(),
        arb_constraint(),
        0usize..2, // 0 = @T, 1 = @S (recursive)
        prop_oneof![
            Just((0u32, None)),       // *
            Just((1u32, None)),       // +
            Just((0u32, Some(1u32))), // ?
            Just((1u32, Some(1u32))), // exactly one
        ],
    )
        .prop_map(|(c_t, c_s, target, (min, max))| {
            let target_label = if target == 0 { "T" } else { "S" };
            let ref_arc = ShapeExpr::repeat(
                ShapeExpr::arc(ArcConstraint::reference("http://e/link", target_label)),
                min,
                max,
            );
            let s_expr = ShapeExpr::and(
                ShapeExpr::opt(ShapeExpr::arc(ArcConstraint::value(PREDS[0], c_s))),
                ref_arc,
            );
            let t_expr = ShapeExpr::opt(ShapeExpr::arc(ArcConstraint::value(PREDS[1], c_t)));
            Schema::from_rules([
                (ShapeLabel::new("S"), s_expr),
                (ShapeLabel::new("T"), t_expr),
            ])
            .expect("two rules")
        })
}

/// A random 4-node graph: value triples over PREDS plus `link` edges.
fn arb_linked_graph() -> impl Strategy<Value = Vec<(usize, usize, Option<usize>)>> {
    // (node, pred index, Some(value)) or (node, target node, None) = link
    proptest::collection::btree_set(
        prop_oneof![
            (0usize..NODES.len(), 0usize..2, 0usize..VALUES.len()).prop_map(|(n, p, v)| (
                n,
                p,
                Some(v)
            )),
            (0usize..NODES.len(), 0usize..NODES.len()).prop_map(|(n, t)| (n, t, None)),
        ],
        0..8,
    )
    .prop_map(|set| set.into_iter().collect())
}

fn build_linked(triples: &[(usize, usize, Option<usize>)]) -> Dataset {
    let mut ds = Dataset::new();
    for &(n, x, v) in triples {
        match v {
            Some(vi) => ds.insert(
                Term::iri(NODES[n]),
                Term::iri(PREDS[x]),
                Term::Literal(Literal::integer(VALUES[vi])),
            ),
            None => ds.insert(
                Term::iri(NODES[n]),
                Term::iri("http://e/link"),
                Term::iri(NODES[x]),
            ),
        };
    }
    for n in NODES {
        ds.pool.intern_iri(n);
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Referencing (possibly recursive) schemas: derivative engine ≡
    /// backtracking gfp reference on every node × both shapes.
    #[test]
    fn referencing_schemas_agree(
        schema in arb_ref_schema(),
        triples in arb_linked_graph()
    ) {
        let mut ds = build_linked(&triples);
        let mut engine = Engine::new(&schema, &mut ds.pool).expect("compiles");
        let bt = BacktrackValidator::new(&schema).expect("compiles");
        for node_iri in NODES {
            let node = ds.iri(node_iri).expect("interned");
            for label in ["S", "T"] {
                let d = engine
                    .check(&ds.graph, &ds.pool, node, &label.into())
                    .unwrap()
                    .matched;
                let b = bt
                    .check(&ds.graph, &ds.pool, node, &label.into())
                    .unwrap();
                prop_assert_eq!(
                    d, b,
                    "disagree on {} @{} over {:?}", node_iri, label, triples
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sharded parallel typing is byte-identical to the sequential one
    /// on recursive referencing schemas, at every worker count.
    #[test]
    fn parallel_typing_matches_sequential(
        schema in arb_ref_schema(),
        triples in arb_linked_graph()
    ) {
        let mut ds = build_linked(&triples);
        let mut seq = Engine::new(&schema, &mut ds.pool).expect("compiles");
        let sequential = seq.type_all(&ds.graph, &ds.pool);
        for jobs in [2usize, 4, 8] {
            let mut par = Engine::new(&schema, &mut ds.pool).expect("compiles");
            let parallel = par.type_all_par(&ds.graph, &ds.pool, jobs);
            prop_assert_eq!(
                &sequential, &parallel,
                "jobs={} over {:?}", jobs, triples
            );
        }
    }

    /// Under a small per-query step budget, *which* pairs exhaust may
    /// differ between the sequential and parallel runs (memo seeding and
    /// steal interleaving change how much work each query needs), but
    /// every pair answered by both must get the same verdict.
    #[test]
    fn parallel_typing_agrees_under_budget(
        schema in arb_ref_schema(),
        triples in arb_linked_graph(),
        steps in 8u64..200
    ) {
        answered_pairs_agree(&schema, &triples, shapex::Budget::steps(steps))?;
    }

    /// The same under *joint* step + arena budgets: arena exhaustion
    /// depends on what the shared memo holds when each query runs, so it
    /// too may land on different pairs, but it never flips an answered one.
    #[test]
    fn schedulers_agree_under_joint_budgets(
        schema in arb_ref_schema(),
        triples in arb_linked_graph(),
        steps in 8u64..200,
        arena in 8usize..400
    ) {
        let budget = shapex::Budget::steps(steps).with_max_arena_nodes(arena);
        answered_pairs_agree(&schema, &triples, budget)?;
    }
}

/// Types `triples` under `budget` sequentially and at 2 and 4 workers,
/// and checks that every pair answered by both the sequential and a
/// parallel run gets the same verdict.
fn answered_pairs_agree(
    schema: &Schema,
    triples: &[(usize, usize, Option<usize>)],
    budget: shapex::Budget,
) -> Result<(), String> {
    let mut ds = build_linked(triples);
    let config = EngineConfig {
        budget,
        ..EngineConfig::default()
    };
    let mut seq = Engine::compile(schema, &mut ds.pool, config).expect("compiles");
    let sequential = seq.type_all(&ds.graph, &ds.pool);
    let ex_seq: std::collections::HashSet<_> = sequential
        .exhausted
        .iter()
        .map(|&(n, s, _)| (n, s))
        .collect();
    for jobs in [2usize, 4] {
        let mut par = Engine::compile(schema, &mut ds.pool, config).expect("compiles");
        let parallel = par.type_all_par(&ds.graph, &ds.pool, jobs);
        let ex_par: std::collections::HashSet<_> =
            parallel.exhausted.iter().map(|&(n, s, _)| (n, s)).collect();
        for node_iri in NODES {
            let node = ds.iri(node_iri).expect("interned");
            for label in ["S", "T"] {
                let shape = seq.shape_id(&label.into()).expect("shape exists");
                if ex_seq.contains(&(node, shape)) || ex_par.contains(&(node, shape)) {
                    continue;
                }
                prop_assert_eq!(
                    sequential.has(node, shape),
                    parallel.has(node, shape),
                    "jobs={}: verdicts diverge on {} @{} over {:?}",
                    jobs,
                    node_iri,
                    label,
                    triples
                );
            }
        }
    }
    Ok(())
}

/// The `results` rows, failure text included, of a fresh engine's
/// full-typing report at `jobs` workers, each serialized.
fn report_rows(schema: &Schema, ds: &mut Dataset, jobs: usize) -> Vec<String> {
    let mut engine = Engine::new(schema, &mut ds.pool).expect("compiles");
    let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    let report = RunReport::capture(|out| {
        let doc = ReportDoc::to_writer(out, "typing", "derivative");
        typing_report(doc, &mut engine, &ds.graph, &ds.pool, &typing, 0)
    })
    .expect("writes to memory");
    let doc = serde_json::from_str(&report.body).expect("report parses");
    let rows = doc
        .get("results")
        .and_then(|r| r.as_array())
        .expect("results rows");
    rows.iter()
        .map(|row| serde_json::to_string(row).expect("serializes"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Jobs-invariance of whole report rows, failure text included, on
    /// hub-skewed graphs — the workload where stealing actually fires
    /// (one mega-task, a Zipf tail) — and on random `knows` networks,
    /// where failures propagate between pairs that different workers
    /// decide. Every row must be byte-identical to the sequential run's,
    /// across random sizes and seeds.
    #[test]
    fn hub_skew_typing_jobs_invariant(
        members in 10usize..60,
        people in 400usize..800,
        invalid in 0usize..INVALID_FRACTIONS.len(),
        seed in 0u64..1_000
    ) {
        let hub = shapex_workloads::scale::hub(members, seed);
        let invalid = INVALID_FRACTIONS[invalid];
        let net = person_network(people, Topology::Random { degree: 2 }, invalid, seed);
        for (schema, mut ds) in [(hub.schema, hub.dataset), (net.schema, net.dataset)] {
            let schema = shapex_shex::shexc::parse(&schema).expect("schema parses");
            let sequential = report_rows(&schema, &mut ds, 1);
            for jobs in [2usize, 4] {
                let parallel = report_rows(&schema, &mut ds, jobs);
                let first = (0..sequential.len().max(parallel.len()))
                    .find(|&i| sequential.get(i) != parallel.get(i));
                prop_assert!(
                    first.is_none(),
                    "hub(members={}) / person_network({}, invalid {}), seed={}, jobs={}: \
                     row {:?} is {:?} at jobs 1",
                    members, people, invalid, seed, jobs,
                    first.map(|i| parallel.get(i)), first.map(|i| sequential.get(i))
                );
            }
        }
    }
}

/// Recursive schemas: the derivative engine's optimised coinduction must
/// match (a) the analytic ground truth of the generator and (b) the
/// backtracking greatest-fixpoint reference, across topologies, invalid
/// fractions and seeds.
#[test]
fn person_networks_agree_with_ground_truth_and_backtracking() {
    let topologies = [
        Topology::Chain,
        Topology::Cycle,
        Topology::Random { degree: 2 },
    ];
    for (topology, invalid) in topologies
        .into_iter()
        .flat_map(|t| INVALID_FRACTIONS.map(move |f| (t, f)))
    {
        for seed in 0..8u64 {
            let w = person_network(8, topology, invalid, seed);
            let schema = shapex_shex::shexc::parse(&w.schema).unwrap();
            let mut ds = w.dataset;
            let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
            let bt = BacktrackValidator::new(&schema).unwrap();
            for (iri, &expected) in w.focus.iter().zip(&w.expected) {
                let node = ds.iri(iri).unwrap();
                let got = engine
                    .check(
                        &ds.graph,
                        &ds.pool,
                        node,
                        &ShapeLabel::new(w.shape.as_str()),
                    )
                    .unwrap()
                    .matched;
                assert_eq!(
                    got, expected,
                    "derivative vs truth: {iri} ({topology:?}, invalid {invalid}, seed {seed})"
                );
                let bt_got = bt
                    .check(
                        &ds.graph,
                        &ds.pool,
                        node,
                        &ShapeLabel::new(w.shape.as_str()),
                    )
                    .unwrap();
                assert_eq!(
                    bt_got, expected,
                    "backtracking vs truth: {iri} ({topology:?}, invalid {invalid}, seed {seed})"
                );
            }
        }
    }
}

/// Fractions of locally invalid people in the generated person networks:
/// all valid (one big coinductive component), a few failures spreading
/// through it, and mostly failing.
const INVALID_FRACTIONS: [f64; 3] = [0.0, 0.02, 0.3];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full typing of random `knows` networks equals the generator's
    /// ground-truth fixpoint, sequentially and with four workers.
    #[test]
    fn generated_person_networks_type_to_the_ground_truth(
        n in 1usize..=300,
        degree in 1usize..=4,
        invalid in 0usize..INVALID_FRACTIONS.len(),
        seed in 0u64..1_000
    ) {
        let invalid = INVALID_FRACTIONS[invalid];
        let w = person_network(n, Topology::Random { degree }, invalid, seed);
        let schema = shapex_shex::shexc::parse(&w.schema).expect("person schema parses");
        let mut ds = w.dataset;
        let label = ShapeLabel::new(w.shape.as_str());
        for jobs in [1usize, 4] {
            let mut engine = Engine::new(&schema, &mut ds.pool).expect("compiles");
            let shape = engine.shape_id(&label).expect("Person is defined");
            let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
            for (iri, &expected) in w.focus.iter().zip(&w.expected) {
                let node = ds.iri(iri).expect("focus node in data");
                prop_assert_eq!(
                    typing.has(node, shape),
                    expected,
                    "{} (n={}, degree={}, invalid={}, seed={}, jobs={})",
                    iri, n, degree, invalid, seed, jobs
                );
            }
        }
    }
}

/// The two engines also agree on which *queries* fail when schemas use
/// node kinds and datatypes (not just value sets).
#[test]
fn datatype_schema_agreement() {
    let schema_src = r#"
        PREFIX e: <http://e/>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        <S> { e:i xsd:integer, e:s xsd:string?, e:any .* }
    "#;
    let data = r#"
        @prefix e: <http://e/> .
        e:good e:i 42; e:s "text"; e:any e:x, 1, "z" .
        e:bad1 e:i "not int"; e:s "text" .
        e:bad2 e:i 42; e:s "a", "b" .
        e:good2 e:i 7 .
    "#;
    let schema = shapex_shex::shexc::parse(schema_src).unwrap();
    let mut ds = shapex_rdf::turtle::parse(data).unwrap();
    let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
    let bt = BacktrackValidator::new(&schema).unwrap();
    for node in ["good", "bad1", "bad2", "good2"] {
        let n = ds.iri(&format!("http://e/{node}")).unwrap();
        let d = engine
            .check(&ds.graph, &ds.pool, n, &"S".into())
            .unwrap()
            .matched;
        let b = bt.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap();
        assert_eq!(d, b, "engines disagree on {node}");
    }
}

/// Flat schemas: the generated-SPARQL path agrees with the derivative
/// engine on seeded record workloads.
#[test]
fn sparql_mapping_agrees_on_flat_records() {
    for seed in 0..4u64 {
        let w = shapex_workloads::flat_person_records(40, seed);
        let schema = shapex_shex::shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        for (iri, &expected) in w.focus.iter().zip(&w.expected) {
            let node = ds.iri(iri).unwrap();
            let d = engine
                .check(
                    &ds.graph,
                    &ds.pool,
                    node,
                    &ShapeLabel::new(w.shape.as_str()),
                )
                .unwrap()
                .matched;
            assert_eq!(d, expected, "derivative vs truth on {iri} (seed {seed})");
            let q =
                shapex_sparql::generate_node_ask(&schema, &ShapeLabel::new(w.shape.as_str()), iri)
                    .unwrap();
            let parsed = shapex_sparql::parser::parse(&q).unwrap();
            let s = shapex_sparql::ask(&parsed, &ds.graph, &ds.pool).unwrap();
            assert_eq!(s, expected, "sparql vs truth on {iri} (seed {seed})");
        }
    }
}
