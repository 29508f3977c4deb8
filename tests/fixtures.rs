//! Data-driven fixture suite: every directory under `fixtures/` holds a
//! ShExC schema, a Turtle data graph, and a shape map whose `@` / `@!`
//! associations state the expected verdicts. Each fixture runs through
//! **both** engines (derivative and backtracking), and through the
//! derivative engine with the SORBE fast path disabled — all three must
//! meet every expectation.
//!
//! This mirrors how the W3C ShEx test suite drives conformance testing,
//! scaled to this implementation's dialect.

use std::fs;
use std::path::{Path, PathBuf};

use shapex::{Engine, EngineConfig};
use shapex_backtrack::BacktrackValidator;
use shapex_rdf::turtle;
use shapex_shex::shapemap::{self, ShapeMap};
use shapex_shex::shexc;

fn fixtures_root() -> PathBuf {
    // tests run from the integration-tests crate dir; fixtures live at the
    // workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

struct Fixture {
    name: String,
    schema: shapex_shex::Schema,
    map: ShapeMap,
    data: String,
}

fn load_fixtures() -> Vec<Fixture> {
    let root = fixtures_root();
    let mut out = Vec::new();
    let mut dirs: Vec<_> = fs::read_dir(&root)
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| {
            // Underscore-prefixed dirs opt out; dirs without a schema.shex
            // belong to other suites (fixtures/shacl is driven by
            // shacl_conformance.rs).
            p.is_dir()
                && !p
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with('_'))
                && p.join("schema.shex").is_file()
        })
        .collect();
    dirs.sort();
    assert!(!dirs.is_empty(), "no fixtures found in {root:?}");
    for dir in dirs {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let schema_src = fs::read_to_string(dir.join("schema.shex"))
            .unwrap_or_else(|e| panic!("{name}/schema.shex: {e}"));
        let schema =
            shexc::parse(&schema_src).unwrap_or_else(|e| panic!("{name}/schema.shex: {e}"));
        schema
            .check_references()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let data = fs::read_to_string(dir.join("data.ttl"))
            .unwrap_or_else(|e| panic!("{name}/data.ttl: {e}"));
        let map_src =
            fs::read_to_string(dir.join("map.sm")).unwrap_or_else(|e| panic!("{name}/map.sm: {e}"));
        let map = shapemap::parse(&map_src).unwrap_or_else(|e| panic!("{name}/map.sm: {e}"));
        assert!(!map.is_empty(), "{name}: empty shape map");
        out.push(Fixture {
            name,
            schema,
            map,
            data,
        });
    }
    out
}

#[test]
fn fixtures_pass_on_derivative_engine() {
    for f in load_fixtures() {
        for no_sorbe in [false, true] {
            let mut ds =
                turtle::parse(&f.data).unwrap_or_else(|e| panic!("{}/data.ttl: {e}", f.name));
            let mut engine = Engine::compile(
                &f.schema,
                &mut ds.pool,
                EngineConfig {
                    no_sorbe,
                    ..EngineConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", f.name));
            let outcomes = engine
                .validate_map(&ds.graph, &mut ds.pool, &f.map)
                .unwrap_or_else(|e| panic!("{}: {e}", f.name));
            for outcome in outcomes {
                let assoc = &f.map.associations[outcome.index];
                assert!(
                    outcome.as_expected,
                    "{} (no_sorbe={no_sorbe}): {} @{} expected conforms={} got {}{}",
                    f.name,
                    assoc.node,
                    assoc.shape,
                    assoc.expected,
                    outcome.conforms,
                    outcome
                        .failure
                        .map(|x| format!("; failure: {}", x.render(&ds.pool)))
                        .unwrap_or_default()
                );
            }
        }
    }
}

#[test]
fn fixtures_pass_on_backtracking_engine() {
    for f in load_fixtures() {
        let mut ds = turtle::parse(&f.data).unwrap_or_else(|e| panic!("{}/data.ttl: {e}", f.name));
        let validator =
            BacktrackValidator::new(&f.schema).unwrap_or_else(|e| panic!("{}: {e}", f.name));
        for assoc in f.map.iter() {
            let node = ds.pool.intern(assoc.node.clone());
            let got = validator
                .check(&ds.graph, &ds.pool, node, &assoc.shape)
                .unwrap_or_else(|e| panic!("{}: {e}", f.name));
            assert_eq!(
                got, assoc.expected,
                "{} (backtracking): {} @{}",
                f.name, assoc.node, assoc.shape
            );
        }
    }
}

/// Fixture schemas survive the print → parse round trip and still meet
/// every expectation afterwards.
#[test]
fn fixtures_pass_after_schema_roundtrip() {
    for f in load_fixtures() {
        let printed = shapex_shex::display::schema_to_shexc(&f.schema);
        let reparsed = shexc::parse(&printed)
            .unwrap_or_else(|e| panic!("{}: reprinted schema: {e}\n{printed}", f.name));
        let mut ds = turtle::parse(&f.data).unwrap();
        let mut engine = Engine::new(&reparsed, &mut ds.pool).unwrap();
        let outcomes = engine
            .validate_map(&ds.graph, &mut ds.pool, &f.map)
            .unwrap();
        for outcome in outcomes {
            let assoc = &f.map.associations[outcome.index];
            assert!(
                outcome.as_expected,
                "{} (roundtripped): {} @{}",
                f.name, assoc.node, assoc.shape
            );
        }
    }
}

/// Lenient Turtle recovery on the bracket-corruption fixture: the error
/// strikes inside a `[...]` property list, so exactly one statement is
/// skipped (not resynced mid-list into phantom statements) and the
/// statement after it still parses.
#[test]
fn lenient_recovery_is_bracket_aware() {
    let path = fixtures_root().join("_negative/bracket_recovery.ttl");
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let (ds, errors) = turtle::parse_lenient(&src);
    assert_eq!(errors.len(), 1, "one corrupt statement: {errors:?}");
    assert!(
        ds.iri("http://example.org/x").is_none(),
        "tail of the corrupt property list replayed as a phantom statement"
    );
    assert!(ds.iri("http://example.org/good").is_some());
    assert!(ds.iri("http://example.org/b").is_some());
    assert_eq!(
        ds.graph.len(),
        2,
        "statements around the corruption survive"
    );
}

/// Negative-syntax fixtures: every `.shex` under `fixtures/_negative/`
/// must fail to parse or fail reference checking — and never panic.
#[test]
fn negative_schemas_are_rejected() {
    let dir = fixtures_root().join("_negative");
    let mut any = false;
    for entry in fs::read_dir(&dir).expect("negative fixtures exist") {
        let path = entry.expect("readable").path();
        if path.extension().is_none_or(|e| e != "shex") {
            continue;
        }
        any = true;
        let src = fs::read_to_string(&path).unwrap();
        let rejected = match shexc::parse(&src) {
            Err(_) => true,
            Ok(schema) => schema.check_references().is_err(),
        };
        assert!(rejected, "{path:?} should have been rejected");
    }
    assert!(any, "no negative fixtures found");
}

/// `fixtures/ntriples/edge.nt` interns exactly these terms, in this order
/// (first occurrence, subject → predicate → object): `\u`/`\U` escapes
/// decoded in IRIs, datatypes and literals, language tags lowercased (so
/// `@FR-be` and `@fr-BE` are one term), non-ASCII blank labels kept, and
/// CRLF, comment and blank lines skipped. The chunked parser at four
/// workers builds the same pool and graph.
#[test]
fn ntriples_edge_fixture_terms_are_pinned() {
    use shapex_rdf::ntriples;
    use shapex_rdf::vocab::xsd;
    use shapex_rdf::{Literal, Term, TermRef};

    let src = fs::read_to_string(fixtures_root().join("ntriples/edge.nt"))
        .expect("fixtures/ntriples/edge.nt exists");
    let ex = |local: &str| Term::iri(format!("http://example.org/{local}"));
    let lit = Term::Literal;
    let expected = vec![
        ex("café"),
        ex("name"),
        lit(Literal::string("Café \"Zum\" \\ Ende\n")),
        ex("label"),
        lit(Literal::lang_string("Café", "fr-be")),
        lit(Literal::lang_string("Coffee", "en-gb-oxendict")),
        ex("😀"),
        lit(Literal::lang_string("😀 smile", "en")),
        ex("age"),
        lit(Literal::lang_string("old", "en")),
        Term::blank("ñandú"),
        lit(Literal::string("Ñandú\tbird")),
        ex("knows"),
        ex("a b"),
        lit(Literal::typed("42", xsd::INTEGER)),
        ex("日本"),
        lit(Literal::lang_string("日本語", "ja")),
        lit(Literal::typed("7", xsd::INTEGER)),
        lit(Literal::string("😀\r\u{8}\u{c}'")),
    ];
    let seq = ntriples::parse(&src).expect("edge fixture parses");
    let terms: Vec<Term> = seq.pool.iter().map(|(_, t)| t.to_term()).collect();
    assert_eq!(terms, expected);
    assert_eq!(
        seq.pool.term(seq.iri("http://example.org/café").unwrap()),
        TermRef::from(&ex("café"))
    );
    assert_eq!(
        seq.graph.len(),
        12,
        "13 triple lines, one a duplicate after lowercasing"
    );

    let par = ntriples::parse_par_min_chunk(&src, 4, 1).expect("edge fixture parses in chunks");
    let par_terms: Vec<Term> = par.pool.iter().map(|(_, t)| t.to_term()).collect();
    assert_eq!(par_terms, expected);
    assert_eq!(par.graph.triples_sorted(), seq.graph.triples_sorted());
}
