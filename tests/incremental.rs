//! Differential testing for incremental revalidation: after any
//! [`GraphDelta`], `Engine::revalidate` over the mutated graph must produce
//! the same typing as a from-scratch engine — including on recursive
//! referencing schemas, under resource budgets, and with parallel workers —
//! and applying a delta followed by its inverse must restore the original
//! typing byte-for-byte.

use proptest::prelude::*;

use shapex::{Engine, EngineConfig};
use shapex_rdf::delta::GraphDelta;
use shapex_rdf::graph::{Dataset, Triple};
use shapex_rdf::term::{Literal, Term};
use shapex_shex::ast::{ArcConstraint, ShapeExpr, ShapeLabel};
use shapex_shex::constraint::{NodeConstraint, ValueSetValue};
use shapex_shex::schema::Schema;

const PREDS: [&str; 3] = ["http://e/p0", "http://e/p1", "http://e/p2"];
const VALUES: [i64; 3] = [1, 2, 3];
const NODES: [&str; 4] = ["http://e/n0", "http://e/n1", "http://e/n2", "http://e/n3"];
const LINK: &str = "http://e/link";

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

/// A two-shape schema where `S` carries a ref arc to `T` — or to itself,
/// making it recursive — so invalidation must chase reference edges. The
/// selector's bits: 1 picks `@S` over `@T`, 2 makes the reference arc
/// inverse, and 4 adds `(^link [n0 n2])?` to `T`, an inverse value arc, so
/// a triple change at its object end decides `T` there.
fn arb_ref_schema() -> impl Strategy<Value = Schema> {
    (
        arb_constraint(),
        arb_constraint(),
        0usize..8,
        prop_oneof![
            Just((0u32, None)),
            Just((1u32, None)),
            Just((0u32, Some(1u32))),
            Just((1u32, Some(1u32))),
        ],
    )
        .prop_map(|(c_t, c_s, bits, (min, max))| {
            let target_label = if bits & 1 == 0 { "T" } else { "S" };
            let mut link = ArcConstraint::reference(LINK, target_label);
            if bits & 2 != 0 {
                link = link.inverted();
            }
            let ref_arc = ShapeExpr::repeat(ShapeExpr::arc(link), min, max);
            let s_expr = ShapeExpr::and(
                ShapeExpr::opt(ShapeExpr::arc(ArcConstraint::value(PREDS[0], c_s))),
                ref_arc,
            );
            let mut t_expr = ShapeExpr::opt(ShapeExpr::arc(ArcConstraint::value(PREDS[1], c_t)));
            if bits & 4 != 0 {
                let linkers = NodeConstraint::ValueSet(
                    [NODES[0], NODES[2]]
                        .into_iter()
                        .map(|n| ValueSetValue::Term(Term::iri(n)))
                        .collect(),
                );
                let incoming = ArcConstraint::value(LINK, linkers).inverted();
                t_expr = ShapeExpr::and(t_expr, ShapeExpr::opt(ShapeExpr::arc(incoming)));
            }
            Schema::from_rules([
                (ShapeLabel::new("S"), s_expr),
                (ShapeLabel::new("T"), t_expr),
            ])
            .expect("two rules")
        })
}

/// One abstract triple: a value arc `(node, pred, Some(value))` or a link
/// arc `(node, target, None)`.
type Spec = (usize, usize, Option<usize>);

fn arb_triples(max: usize) -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::btree_set(
        prop_oneof![
            (0usize..NODES.len(), 0usize..2, 0usize..VALUES.len()).prop_map(|(n, p, v)| (
                n,
                p,
                Some(v)
            )),
            (0usize..NODES.len(), 0usize..NODES.len()).prop_map(|(n, t)| (n, t, None)),
        ],
        0..max,
    )
    .prop_map(|set| set.into_iter().collect())
}

/// A random edit: a subset of the base triples to remove (by index mask)
/// plus freshly generated triples to add. Additions may duplicate base
/// triples and removals may miss — `apply_delta` tolerates both, and the
/// invalidation must too.
fn arb_delta() -> impl Strategy<Value = (u32, Vec<Spec>)> {
    (0u32..u32::MAX, arb_triples(5))
}

fn build_dataset(triples: &[Spec]) -> Dataset {
    let mut ds = Dataset::new();
    for &spec in triples {
        let t = intern_spec(&mut ds, spec);
        ds.graph.insert(t);
    }
    for n in NODES {
        ds.pool.intern_iri(n);
    }
    ds
}

fn intern_spec(ds: &mut Dataset, (n, x, v): Spec) -> Triple {
    let subject = ds.pool.intern_iri(NODES[n]);
    match v {
        Some(vi) => Triple {
            subject,
            predicate: ds.pool.intern_iri(PREDS[x]),
            object: ds.pool.intern(Term::Literal(Literal::integer(VALUES[vi]))),
        },
        None => Triple {
            subject,
            predicate: ds.pool.intern_iri(LINK),
            object: ds.pool.intern_iri(NODES[x]),
        },
    }
}

/// Materializes the abstract edit against a dataset's pool.
fn build_delta(
    ds: &mut Dataset,
    base: &[Spec],
    (remove_mask, additions): &(u32, Vec<Spec>),
) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for (i, &spec) in base.iter().enumerate() {
        if remove_mask & (1 << (i % 32)) != 0 {
            let t = intern_spec(ds, spec);
            delta.removed.push(t);
        }
    }
    for &spec in additions {
        let t = intern_spec(ds, spec);
        delta.added.push(t);
    }
    delta
}

fn incremental_engine(schema: &Schema, ds: &mut Dataset, config: EngineConfig) -> Engine {
    let config = EngineConfig {
        incremental: true,
        ..config
    };
    Engine::compile(schema, &mut ds.pool, config).expect("compiles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole guarantee: after an arbitrary delta, the incremental
    /// typing equals a from-scratch typing of the mutated graph — exactly,
    /// including on recursive schemas. The generated shapes all take the
    /// SORBE counting path, so each case also runs with `no_sorbe`, which
    /// types every triple through the derivative path's profiles.
    #[test]
    fn revalidate_matches_scratch(
        schema in arb_ref_schema(),
        base in arb_triples(8),
        edit in arb_delta()
    ) {
        for no_sorbe in [false, true] {
            let mut ds = build_dataset(&base);
            let config = EngineConfig { no_sorbe, ..EngineConfig::default() };
            let mut engine = incremental_engine(&schema, &mut ds, config);
            engine.type_all(&ds.graph, &ds.pool);
            let delta = build_delta(&mut ds, &base, &edit);
            ds.apply_delta(&delta);
            let incremental = engine.revalidate(&ds.graph, &ds.pool, &delta).expect("delta applied");
            prop_assert!(!no_sorbe || engine.stats().sorbe_checks == 0);
            let mut fresh = Engine::new(&schema, &mut ds.pool).expect("compiles");
            let scratch = fresh.type_all(&ds.graph, &ds.pool);
            prop_assert_eq!(
                &incremental, &scratch,
                "no_sorbe={} diverges from scratch on base={:?} edit={:?}", no_sorbe, base, edit
            );
        }
    }

    /// Same guarantee through the sharded parallel path: `revalidate_par`
    /// at several worker counts, with and without `no_sorbe`, equals the
    /// scratch typing.
    #[test]
    fn revalidate_par_matches_scratch(
        schema in arb_ref_schema(),
        base in arb_triples(8),
        edit in arb_delta()
    ) {
        for no_sorbe in [false, true] {
            for jobs in [2usize, 4] {
                let mut ds = build_dataset(&base);
                let config = EngineConfig { no_sorbe, ..EngineConfig::default() };
                let mut engine = incremental_engine(&schema, &mut ds, config);
                engine.type_all_par(&ds.graph, &ds.pool, jobs);
                let delta = build_delta(&mut ds, &base, &edit);
                ds.apply_delta(&delta);
                let incremental = engine
                    .revalidate_par(&ds.graph, &ds.pool, &delta, jobs)
                    .expect("delta applied");
                prop_assert!(!no_sorbe || engine.stats().sorbe_checks == 0);
                let mut fresh = Engine::new(&schema, &mut ds.pool).expect("compiles");
                let scratch = fresh.type_all(&ds.graph, &ds.pool);
                prop_assert_eq!(
                    &incremental, &scratch,
                    "no_sorbe={} jobs={} diverges on base={:?} edit={:?}",
                    no_sorbe, jobs, base, edit
                );
            }
        }
    }

    /// Under a per-query step budget, *which* pairs exhaust may differ
    /// (the warm memo changes how much work each query needs), but every
    /// pair answered by both runs must get the same verdict.
    #[test]
    fn revalidate_agrees_under_budget(
        schema in arb_ref_schema(),
        base in arb_triples(8),
        edit in arb_delta(),
        steps in 8u64..200
    ) {
        let budget = shapex::Budget::steps(steps);
        let config = EngineConfig { budget, ..EngineConfig::default() };
        let mut ds = build_dataset(&base);
        let mut engine = incremental_engine(&schema, &mut ds, config);
        engine.type_all(&ds.graph, &ds.pool);
        let delta = build_delta(&mut ds, &base, &edit);
        ds.apply_delta(&delta);
        let incremental = engine.revalidate(&ds.graph, &ds.pool, &delta).expect("delta applied");
        let mut fresh = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
        let scratch = fresh.type_all(&ds.graph, &ds.pool);
        let ex_inc: std::collections::HashSet<_> =
            incremental.exhausted.iter().map(|&(n, s, _)| (n, s)).collect();
        let ex_scr: std::collections::HashSet<_> =
            scratch.exhausted.iter().map(|&(n, s, _)| (n, s)).collect();
        for node_iri in NODES {
            let node = ds.iri(node_iri).expect("interned");
            for label in ["S", "T"] {
                let shape = fresh.shape_id(&label.into()).expect("shape exists");
                if ex_inc.contains(&(node, shape)) || ex_scr.contains(&(node, shape)) {
                    continue;
                }
                prop_assert_eq!(
                    incremental.has(node, shape),
                    scratch.has(node, shape),
                    "verdicts diverge on {} @{} (base={:?} edit={:?})",
                    node_iri, label, base, edit
                );
            }
        }
    }

    /// Round trip: applying a delta and then its inverse restores the
    /// original typing byte-for-byte (rendered output included), with
    /// metrics on and off.
    #[test]
    fn delta_roundtrip_restores_typing(
        schema in arb_ref_schema(),
        base in arb_triples(8),
        edit in arb_delta()
    ) {
        for metrics in [false, true] {
            let config = EngineConfig { metrics, ..EngineConfig::default() };
            let mut ds = build_dataset(&base);
            let mut engine = incremental_engine(&schema, &mut ds, config);
            let before = engine.type_all(&ds.graph, &ds.pool);
            let rendered_before =
                before.render(&ds.pool, &|s| engine.label_of(s).clone());
            let delta = build_delta(&mut ds, &base, &edit);
            let applied = ds.apply_delta(&delta);
            engine.revalidate(&ds.graph, &ds.pool, &delta).expect("delta applied");
            // Structural revert plus the *effective* inverse's revalidation.
            // (The logical `delta.inverse()` may claim to add triples a
            // missed removal never touched — the effective inverse from
            // the AppliedDelta is what actually describes the revert.)
            ds.revert_delta(&applied);
            let inverse = GraphDelta {
                removed: applied.added_triples().collect(),
                added: applied.removed_triples().collect(),
            };
            let after = engine.revalidate(&ds.graph, &ds.pool, &inverse).expect("reverted");
            let rendered_after =
                after.render(&ds.pool, &|s| engine.label_of(s).clone());
            prop_assert_eq!(
                &before, &after,
                "metrics={}: round trip changed the typing (base={:?} edit={:?})",
                metrics, base, edit
            );
            prop_assert_eq!(rendered_before, rendered_after);
        }
    }

    /// An empty delta invalidates nothing and retypes nothing: every pair
    /// is answered from the memo.
    #[test]
    fn empty_delta_retypes_nothing(
        schema in arb_ref_schema(),
        base in arb_triples(8)
    ) {
        let mut ds = build_dataset(&base);
        let mut engine = incremental_engine(&schema, &mut ds, EngineConfig::default());
        let before = engine.type_all(&ds.graph, &ds.pool);
        let after = engine
            .revalidate(&ds.graph, &ds.pool, &GraphDelta::new())
            .expect("empty delta");
        prop_assert_eq!(&before, &after);
        let stats = engine.stats();
        prop_assert_eq!(stats.invalidated_pairs, 0);
        prop_assert_eq!(stats.retyped_pairs, 0);
        let expected_pairs =
            ds.graph.subjects().count() as u64 * 2; // two shapes
        prop_assert_eq!(stats.reused_pairs, expected_pairs);
    }
}

/// A deterministic end-to-end check mirroring the CI smoke flow: a chain of
/// recursive references where an edit at the tail flips the whole chain.
#[test]
fn cascading_invalidation_through_reference_chain() {
    let schema =
        shapex_shex::shexc::parse("PREFIX e: <http://e/>\n<S> { e:p [1] | e:link @<S> }").unwrap();
    let mut ds = shapex_rdf::turtle::parse(
        "@prefix e: <http://e/> .\n\
         e:n0 e:link e:n1 .\n\
         e:n1 e:link e:n2 .\n\
         e:n2 e:p 2 .\n",
    )
    .unwrap();
    let mut engine = Engine::compile(
        &schema,
        &mut ds.pool,
        EngineConfig {
            incremental: true,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let typing = engine.type_all(&ds.graph, &ds.pool);
    for n in ["n0", "n1", "n2"] {
        let node = ds.iri(&format!("http://e/{n}")).unwrap();
        assert_eq!(typing.shapes_of(node).count(), 0, "{n} should fail");
    }
    // Repair the tail: the fix must cascade through both referrers.
    let delta = shapex_rdf::delta::parse(
        "@prefix e: <http://e/> .\n- e:n2 e:p 2 .\n+ e:n2 e:p 1 .\n",
        &mut ds.pool,
    )
    .unwrap();
    ds.apply_delta(&delta);
    let typing = engine.revalidate(&ds.graph, &ds.pool, &delta).unwrap();
    for n in ["n0", "n1", "n2"] {
        let node = ds.iri(&format!("http://e/{n}")).unwrap();
        assert_eq!(typing.shapes_of(node).count(), 1, "{n} should now conform");
    }
    let mut fresh = Engine::new(&schema, &mut ds.pool).unwrap();
    assert_eq!(typing, fresh.type_all(&ds.graph, &ds.pool));
}

/// Fail-pre-fix: revalidating with a delta that was never applied to the
/// graph silently produced a typing computed over a stale dependency
/// index — the engine assumed the graph matched the delta. It must now be
/// a typed error, and the engine must stay usable afterwards.
#[test]
fn revalidate_unapplied_delta_is_a_typed_error() {
    use shapex::EngineError;

    let schema = shapex_shex::shexc::parse("PREFIX e: <http://e/>\n<S> { e:p [1 2] }").unwrap();
    let mut ds =
        shapex_rdf::turtle::parse("@prefix e: <http://e/> .\ne:a e:p 1 .\ne:b e:p 3 .\n").unwrap();
    let mut engine = Engine::compile(
        &schema,
        &mut ds.pool,
        EngineConfig {
            incremental: true,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.type_all(&ds.graph, &ds.pool);

    let delta = shapex_rdf::delta::parse(
        "@prefix e: <http://e/> .\n- e:b e:p 3 .\n+ e:b e:p 2 .\n",
        &mut ds.pool,
    )
    .unwrap();

    // Never applied: the added triple is absent.
    let err = engine
        .revalidate(&ds.graph, &ds.pool, &delta)
        .expect_err("unapplied delta must be rejected");
    assert!(
        matches!(&err, EngineError::StaleDelta { detail } if detail.contains("added triple")),
        "{err}"
    );

    // A removal-only delta that was never applied is caught by the other
    // arm: the triple it claims to have removed is still present.
    let removal_only =
        shapex_rdf::delta::parse("@prefix e: <http://e/> .\n- e:b e:p 3 .\n", &mut ds.pool)
            .unwrap();
    let err = engine
        .revalidate(&ds.graph, &ds.pool, &removal_only)
        .expect_err("unapplied removal must be rejected");
    assert!(
        matches!(&err, EngineError::StaleDelta { detail } if detail.contains("removed triple")),
        "{err}"
    );

    // The failed calls must not have disturbed the engine: applying the
    // delta for real now revalidates cleanly and matches scratch.
    ds.apply_delta(&delta);
    let typing = engine.revalidate(&ds.graph, &ds.pool, &delta).unwrap();
    let mut fresh = Engine::new(&schema, &mut ds.pool).unwrap();
    assert_eq!(typing, fresh.type_all(&ds.graph, &ds.pool));

    // Applying the same delta twice is set-idempotent, so a double apply
    // is indistinguishable from a single one at the graph level: the
    // consistency check documents (rather than detects) that case.
    ds.apply_delta(&delta);
    assert!(engine.revalidate(&ds.graph, &ds.pool, &delta).is_ok());
}
