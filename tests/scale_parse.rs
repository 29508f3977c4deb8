//! Differential properties for the million-triple ingestion path.
//!
//! 1. Parallel chunked N-Triples parsing (`ntriples::parse_par`) must be
//!    *byte-identical* to sequential `ntriples::parse` on arbitrary
//!    documents — same `TermId` assignment, same adjacency order, same
//!    subject iteration order — and must report the *same first error* on
//!    malformed input, whatever chunk seam the error straddles.
//! 2. Batched delta apply/revert on the compact adjacency layout must
//!    agree with a naive per-triple reference implementation, and
//!    apply-then-revert must be a structural identity.
//! 3. The block reader (`ntriples::read`) must build the dataset `parse`
//!    builds, and report the error it reports, whatever block size splits
//!    lines, CRLF pairs and multibyte chars; a byte that is not UTF-8 is a
//!    located error.
//! 4. The bulk build (`Graph::from_triples`) must give the graph that
//!    inserting each triple and compacting gives, before and after a delta.

use proptest::prelude::*;

use shapex_rdf::graph::{Dataset, Graph, Triple};
use shapex_rdf::ntriples;
use shapex_rdf::pool::TermPool;
use shapex_rdf::{ParseError, ReadError};

// ---- random N-Triples documents ----

/// One syntactically valid triple line. Term universes are small so that
/// terms recur across chunk boundaries (exercising the merge's remapping)
/// while fresh literals keep some terms chunk-local.
fn arb_good_line() -> impl Strategy<Value = String> {
    (0u8..40, 0u8..6, 0u8..40, any::<u16>()).prop_map(|(s, p, o, fresh)| {
        let obj = match o % 4 {
            0 => format!("<http://e/n{o}>"),
            1 => format!("_:b{o}"),
            2 => format!("\"v{fresh}\""),
            _ => format!("\"v{o}\"@en-US"),
        };
        format!("<http://e/n{s}> <http://e/p{p}> {obj} .")
    })
}

fn arb_line() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_good_line(),
        arb_good_line(),
        arb_good_line(),
        arb_good_line(),
        Just(String::new()),
        Just("# a comment".to_string()),
        arb_good_line().prop_map(|l| format!("  {l} # trailing")),
    ]
}

/// A whole document: lines joined by LF or CRLF, with or without a final
/// newline.
fn arb_doc() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(arb_line(), 0..120),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(lines, crlf, trailing)| {
            let sep = if crlf { "\r\n" } else { "\n" };
            let mut doc = lines.join(sep);
            if trailing && !doc.is_empty() {
                doc.push_str(sep);
            }
            doc
        })
}

/// A malformed line of the kinds the satellites call out: a triple torn
/// across a line break (the old parser accepted these), a forbidden
/// character inside an IRI, trailing garbage, a bare fragment.
fn arb_bad_line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("<http://e/torn>".to_string()),
        Just("<http://e/a> <http://e/p>".to_string()),
        Just("<http://e/a b> <http://e/p> <http://e/o> .".to_string()),
        Just("<http://e/a> <http://e/p> <http://e/o> . garbage".to_string()),
        Just("\"lit\" <http://e/p> <http://e/o> .".to_string()),
        Just("random trailing garbage".to_string()),
    ]
}

fn assert_identical(seq: &Dataset, par: &Dataset) {
    assert_eq!(seq.pool.len(), par.pool.len(), "pool sizes differ");
    for ((ia, ta), (ib, tb)) in seq.pool.iter().zip(par.pool.iter()) {
        assert_eq!(ia, ib);
        assert_eq!(ta, tb, "term id {ia:?} bound to different terms");
    }
    assert_eq!(seq.graph.triples_sorted(), par.graph.triples_sorted());
    assert_eq!(
        seq.graph.subjects().collect::<Vec<_>>(),
        par.graph.subjects().collect::<Vec<_>>()
    );
    for (id, _) in seq.pool.iter() {
        assert_eq!(seq.graph.neighbourhood(id), par.graph.neighbourhood(id));
        assert_eq!(seq.graph.incoming(id), par.graph.incoming(id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Well-formed documents: parallel == sequential, bit for bit, at every
    /// worker count and with chunk seams forced through the document.
    #[test]
    fn parallel_parse_matches_sequential(doc in arb_doc(), jobs in 2usize..6) {
        let seq = ntriples::parse(&doc).expect("generated docs are valid");
        // min_chunk = 1 forces real chunking even on tiny documents.
        let par = ntriples::parse_par_min_chunk(&doc, jobs, 1)
            .expect("parallel parse of valid doc");
        assert_identical(&seq, &par);
    }

    /// Malformed documents: the parallel parser reports the same first
    /// error (line, column, message) as the sequential one, no matter
    /// which chunk the bad line lands in — including a triple torn across
    /// a chunk seam, CRLF endings, and trailing garbage.
    #[test]
    fn parallel_parse_matches_sequential_errors(
        prefix in arb_doc(),
        bad in arb_bad_line(),
        suffix in arb_doc(),
        jobs in 2usize..6,
        crlf in any::<bool>(),
    ) {
        let sep = if crlf { "\r\n" } else { "\n" };
        let doc = format!("{prefix}{sep}{bad}{sep}{suffix}");
        let seq_err = ntriples::parse(&doc).expect_err("doc contains a bad line");
        let par_err = ntriples::parse_par_min_chunk(&doc, jobs, 1)
            .expect_err("parallel parse must reject too");
        prop_assert_eq!(seq_err, par_err);
    }
}

// ---- the block reader ----

/// Reads `doc` through the block reader at `block` bytes per read; a
/// stream error would be a bug of the test.
fn read(doc: &[u8], block: usize) -> Result<Dataset, ParseError> {
    ntriples::read_block_size(doc, block).map_err(|e| match e {
        ReadError::Parse(e) => e,
        ReadError::Io(e) => panic!("reading from a slice failed: {e}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reader builds the dataset `parse` builds, or reports the error
    /// it reports, at any block size.
    #[test]
    fn reader_matches_parse(
        prefix in arb_doc(),
        bad in (any::<bool>(), arb_bad_line()),
        block in 1usize..96,
    ) {
        let doc = match bad {
            (true, bad) => format!("{prefix}\n{bad}"),
            (false, _) => prefix,
        };
        match (ntriples::parse(&doc), read(doc.as_bytes(), block)) {
            (Ok(a), Ok(b)) => assert_identical(&a, &b),
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }
    }
}

/// Documents whose lines, CRLF pairs and multibyte chars straddle the
/// block boundaries of 1-, 7- and 64-byte reads.
#[test]
fn reader_is_block_size_invariant() {
    let long = format!("\"{}\"", "x".repeat(150));
    let straddling = format!(
        "<http://e/a> <http://e/p> <http://e/b> .\n<http://e/a> <http://e/q> {long} .\n_:b0 <http://e/p> <http://e/a> .\n"
    );
    let cases: &[(&str, &str)] = &[
        ("lines straddling blocks", &straddling),
        (
            "multibyte chars split across blocks",
            "<http://e/日本> <http://e/p> \"😀é\"@en .\n_:ü <http://e/p> <http://e/日本> .\n",
        ),
        (
            "CRLF line endings",
            "<http://e/a> <http://e/p> <http://e/b> .\r\n# c\r\n\r\n<http://e/a> <http://e/p> \"é\" .\r\n",
        ),
        (
            "no final newline",
            "<http://e/a> <http://e/p> <http://e/b> .\n<http://e/b> <http://e/p> <http://e/a> .",
        ),
        ("empty file", ""),
        ("only comments", "# one\n# twö\n\n   # three"),
    ];
    for &(name, doc) in cases {
        let expected = ntriples::parse(doc).expect(name);
        for block in [1, 7, 64] {
            let got = read(doc.as_bytes(), block)
                .unwrap_or_else(|e| panic!("{name}, block {block}: {e}"));
            assert_identical(&expected, &got);
        }
    }
}

// ---- UniProt-shaped workload end-to-end ----

/// The scale workload's schema and generator agree: every generated
/// protein conforms, through the real parse → compile → validate path.
#[test]
fn uniprot_workload_validates_conformant() {
    use shapex::Engine;
    use shapex_shex::ast::ShapeLabel;
    use shapex_shex::shexc;

    let mut w = shapex_workloads::scale::uniprot(40, 11);
    let schema = shexc::parse(&w.schema).expect("uniprot schema parses");
    let mut engine = Engine::new(&schema, &mut w.dataset.pool).unwrap();
    let shape = ShapeLabel::new(w.shape.clone());
    for (focus, expected) in w.focus.iter().zip(&w.expected) {
        let node = w.dataset.iri(focus).expect("focus node in dump");
        let got = engine
            .check(&w.dataset.graph, &w.dataset.pool, node, &shape)
            .unwrap();
        assert_eq!(got.matched, *expected, "{focus}");
    }
}

// ---- batched delta apply/revert vs naive reference ----

fn arb_triple() -> impl Strategy<Value = (u8, u8, u8)> {
    (0u8..12, 0u8..4, 0u8..12)
}

fn build(pool: &mut TermPool, triples: &[(u8, u8, u8)]) -> Graph {
    let mut g = Graph::new();
    for &(s, p, o) in triples {
        let t = Triple::new(
            pool.intern_iri(&format!("http://e/n{s}")),
            pool.intern_iri(&format!("http://e/p{p}")),
            pool.intern_iri(&format!("http://e/n{o}")),
        );
        g.insert(t);
    }
    g
}

/// Per-node `(outgoing, incoming)` arc lists, a predicate/object id pair
/// each, in adjacency order — the full structural state of a graph.
type Arcs = Vec<(shapex_rdf::pool::TermId, shapex_rdf::pool::TermId)>;

fn snapshot(g: &Graph, pool: &TermPool) -> Vec<(Arcs, Arcs)> {
    pool.iter()
        .map(|(id, _)| (g.neighbourhood(id).to_vec(), g.incoming(id).to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The batched `try_apply_delta` produces the same triple set as a
    /// naive remove-then-insert loop, and `revert_delta` restores the
    /// original graph *structurally* (adjacency order and subject order,
    /// not just set equality) — on compacted and uncompacted layouts.
    #[test]
    fn batched_delta_agrees_with_naive_reference(
        base in proptest::collection::vec(arb_triple(), 0..60),
        removed in proptest::collection::vec(arb_triple(), 0..20),
        added in proptest::collection::vec(arb_triple(), 0..20),
        compact_first in any::<bool>(),
    ) {
        let mut pool = TermPool::new();
        let mut g = build(&mut pool, &base);
        if compact_first {
            g.compact();
        }

        let intern3 = |pool: &mut TermPool, (s, p, o): (u8, u8, u8)| {
            Triple::new(
                pool.intern_iri(&format!("http://e/n{s}")),
                pool.intern_iri(&format!("http://e/p{p}")),
                pool.intern_iri(&format!("http://e/n{o}")),
            )
        };
        let delta = shapex_rdf::delta::GraphDelta {
            removed: removed.iter().map(|&t| intern3(&mut pool, t)).collect(),
            added: added.iter().map(|&t| intern3(&mut pool, t)).collect(),
        };

        // Naive reference: rebuild and mutate one triple at a time.
        let mut reference = build(&mut pool, &base);
        for t in &delta.removed {
            reference.remove(t);
        }
        for t in &delta.added {
            reference.insert(*t);
        }

        let before = snapshot(&g, &pool);
        let before_subjects: Vec<_> = g.subjects().collect();

        let applied = g.apply_delta(&delta);
        prop_assert_eq!(g.triples_sorted(), reference.triples_sorted());
        // Post-apply adjacency order must match the reference's too: both
        // keep survivors in order and append additions at the tail.
        prop_assert_eq!(snapshot(&g, &pool), snapshot(&reference, &pool));

        g.revert_delta(&applied);
        prop_assert_eq!(snapshot(&g, &pool), before);
        prop_assert_eq!(g.subjects().collect::<Vec<_>>(), before_subjects);
    }
}

// ---- bulk build vs insert-each + compact ----

/// Triples over 16 nodes where only nodes 0..12 are subjects: small
/// enough for duplicates and self-loops, with some nodes objects only.
fn arb_build_triple() -> impl Strategy<Value = (u8, u8, u8)> {
    (0u8..12, 0u8..16, 0u8..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Graph::from_triples` gives the graph that one `insert` per triple
    /// and a `compact` give, and stays equal to it through a random delta
    /// and its revert.
    #[test]
    fn bulk_build_matches_insert_then_compact(
        triples in proptest::collection::vec(arb_build_triple(), 0..80),
        removed in proptest::collection::vec(arb_build_triple(), 0..20),
        added in proptest::collection::vec(arb_build_triple(), 0..20),
    ) {
        let mut pool = TermPool::new();
        let nodes: Vec<_> = (0..16)
            .map(|i| pool.intern_iri(&format!("http://e/n{i}")))
            .collect();
        let triple = |&(s, p, o): &(u8, u8, u8)| {
            Triple::new(nodes[s as usize], nodes[p as usize], nodes[o as usize])
        };
        let list: Vec<Triple> = triples.iter().map(triple).collect();
        let mut inserted = Graph::new();
        for &t in &list {
            inserted.insert(t);
        }
        inserted.compact();
        let mut built = Graph::from_triples(list, pool.len());

        let probes: Vec<Triple> = triples.iter().chain(&removed).chain(&added).map(triple).collect();
        let same = |a: &Graph, b: &Graph| -> Result<(), String> {
            prop_assert_eq!(snapshot(a, &pool), snapshot(b, &pool));
            prop_assert_eq!(a.subjects().collect::<Vec<_>>(), b.subjects().collect::<Vec<_>>());
            prop_assert_eq!(a.len(), b.len());
            prop_assert_eq!(a.triples_sorted(), b.triples_sorted());
            for t in &probes {
                prop_assert_eq!(a.contains(t), b.contains(t));
            }
            Ok(())
        };
        same(&inserted, &built)?;

        let delta = shapex_rdf::delta::GraphDelta {
            removed: removed.iter().map(triple).collect(),
            added: added.iter().map(triple).collect(),
        };
        let applied_inserted = inserted.apply_delta(&delta);
        let applied_built = built.apply_delta(&delta);
        same(&inserted, &built)?;
        inserted.revert_delta(&applied_inserted);
        built.revert_delta(&applied_built);
        same(&inserted, &built)?;
    }
}

// ---- pinned N-Triples errors ----

/// One malformed document per error message the N-Triples reader can
/// emit, with its exact `(line, column, message)`. Columns count chars,
/// not bytes, so the multibyte rows pin where a byte-level scanner must
/// convert. Line numbers count every `'\n'`, including comment, blank and
/// CRLF lines.
#[test]
#[rustfmt::skip]
fn ntriples_errors_are_pinned() {
    let cases: &[(&str, usize, usize, &str)] = &[
        // Subject position.
        ("\"s\" <p> <o> .", 1, 1, "subject must be an IRI or blank node"),
        ("x <p> <o> .", 1, 1, "expected subject, got 'x'"),
        ("  é <p> <o> .", 1, 3, "expected subject, got 'é'"),
        ("_x <p> <o> .", 1, 1, "expected '_:'"),
        ("_: <p> <o> .", 1, 3, "empty blank node label"),
        ("\t_:é <p> <o> .\n_:. <p> <o> .", 2, 3, "empty blank node label"),
        // Predicate position.
        ("<s> _:p <o> .", 1, 5, "predicate must be an IRI, got '_'"),
        ("<日本> \"p\" <o> .", 1, 6, "predicate must be an IRI, got '\"'"),
        ("<s>  ", 1, 6, "expected predicate before end of line"),
        ("_:ü", 1, 4, "expected predicate before end of line"),
        // Object position.
        ("<s> <p> 42 .", 1, 9, "expected object, got '4'"),
        ("<s> <é> 😀 .", 1, 9, "expected object, got '😀'"),
        ("<s> <p>", 1, 8, "expected object before end of line"),
        ("<ś> <p>\t", 1, 9, "expected object before end of line"),
        // Terminator and trailing text.
        ("<s> <p> <o> ,", 1, 13, "expected '.' terminating triple, got ','"),
        ("<s> <p> \"é\"@en ü", 1, 16, "expected '.' terminating triple, got 'ü'"),
        ("<s> <p> <o>", 1, 12, "expected '.' terminating triple before end of line"),
        ("<s> <p> \"x\"^<o> .", 1, 12, "expected '.' terminating triple, got '^'"),
        ("<s> <p> <o> . <x>", 1, 15, "unexpected '<' after triple (one triple per line)"),
        ("<s> <p> <o> .\r\r\n", 1, 14, "unexpected '\r' after triple (one triple per line)"),
        ("<é> <p> <o> .é", 1, 14, "unexpected 'é' after triple (one triple per line)"),
        // IRIs.
        ("<s> <p> <o", 1, 11, "unterminated IRI"),
        ("<s> <p> <ö\\u00e9", 1, 17, "unterminated IRI"),
        ("<s\\x> <p> <o> .", 1, 5, "invalid escape in IRI (only \\u/\\U allowed)"),
        ("<s\\", 1, 4, "invalid escape in IRI (only \\u/\\U allowed)"),
        ("<é\\é> <p> <o> .", 1, 5, "invalid escape in IRI (only \\u/\\U allowed)"),
        ("<a b> <p> <o> .", 1, 4, "character U+0020 not allowed in IRI (use \\u escape)"),
        ("<s> <p> <日本|> .", 1, 13, "character U+007C not allowed in IRI (use \\u escape)"),
        ("<s> <p\u{7}> <o> .", 1, 8, "character U+0007 not allowed in IRI (use \\u escape)"),
        ("<s> <p> <o{> .", 1, 12, "character U+007B not allowed in IRI (use \\u escape)"),
        // Unicode escapes, in IRIs and in literals.
        ("<s\\u00", 1, 7, "unterminated unicode escape"),
        ("<s> <p> \"\\u12", 1, 14, "unterminated unicode escape"),
        ("<s\\u00g0> <p> <o> .", 1, 8, "invalid hex digit 'g' in unicode escape"),
        ("<é\\u00é0> <p> <o> .", 1, 8, "invalid hex digit 'é' in unicode escape"),
        ("<s> <p> \"\\U0001F60x\" .", 1, 20, "invalid hex digit 'x' in unicode escape"),
        ("<s\\uD800> <p> <o> .", 1, 9, "invalid code point U+D800"),
        ("<s> <p> \"é\\U00110000\" .", 1, 21, "invalid code point U+110000"),
        // Literals.
        ("<s> <p> \"abc", 1, 13, "unterminated string literal"),
        ("<s> <p> \"日本\\\"", 1, 14, "unterminated string literal"),
        ("<s> <p> \"a\rb\" .", 1, 12, "carriage return in string literal (use \\r)"),
        ("<s> <p> \"é\r\r\n", 1, 12, "carriage return in string literal (use \\r)"),
        ("<s> <p> \"a\\", 1, 12, "unterminated escape sequence"),
        ("<s> <p> \"a\\q\" .", 1, 13, "invalid escape sequence '\\q'"),
        ("<s> <p> \"ä\\ß\" .", 1, 13, "invalid escape sequence '\\ß'"),
        // Language tags and datatypes.
        ("<s> <p> \"x\"@1 .", 1, 13, "language tag must start with a letter"),
        ("<日本> <p> \"é\"@ .", 1, 14, "language tag must start with a letter"),
        ("<s> <p> \"x\"@en- .", 1, 16, "empty language subtag"),
        ("<s> <p> \"x\"@EN-gb-é .", 1, 19, "empty language subtag"),
        ("<s> <p> \"x\"^^\"y\" .", 1, 14, "datatype must be an IRI"),
        ("<s> <p> \"ü\"^^", 1, 14, "datatype must be an IRI"),
        ("<s> <p> \"x\"^^<a b> .", 1, 17, "character U+0020 not allowed in IRI (use \\u escape)"),
        // Line numbers after comment, blank and CRLF lines.
        ("<s> <p> <o> .\r\n# comment\r\n\r\n  \t\r\n<s> <p> \"abc\r\n", 5, 13, "unterminated string literal"),
        ("# é\n\n<s> <p> <o> . # ok\n<s> <p> .", 4, 9, "expected object, got '.'"),
    ];
    for &(doc, line, column, message) in cases {
        let err = ntriples::parse(doc).expect_err(doc);
        assert_eq!(
            (err.line, err.column, err.message.as_str()),
            (line, column, message),
            "{doc:?}"
        );
        for block in [1, 7, 64] {
            let via_reader = read(doc.as_bytes(), block).expect_err(doc);
            assert_eq!(via_reader, err, "{doc:?}, block {block}");
        }
    }
}

/// A byte that is not UTF-8 is an error at its line and column (columns
/// count the chars before it). Lines before its line are parsed first, so
/// a syntax error there is the one reported; the bad byte's own line is
/// not parsed, so its error wins over a syntax error earlier on that line.
#[test]
#[rustfmt::skip]
fn ntriples_invalid_utf8_is_located() {
    let cases: &[(&[u8], usize, usize, &str)] = &[
        (b"\xFF<s> <p> <o> .\n", 1, 1, "invalid UTF-8 byte 0xFF"),
        (b"<s> <p> <o> .\n<s> <p> \"\xC3\xA9\xFF\" .\n", 2, 11, "invalid UTF-8 byte 0xFF"),
        (b"# \xE6\x97\xA5\r\n\r\n<s> <p> \"a\x80\" .", 3, 11, "invalid UTF-8 byte 0x80"),
        (b"<s> <p> \"\xC3", 1, 10, "invalid UTF-8 byte 0xC3"),
        (b"<s> <p> \"\xE6\x97\" .\n", 1, 10, "invalid UTF-8 byte 0xE6"),
        (b"<s> <p> .\n\xFF", 1, 9, "expected object, got '.'"),
        (b"<s> x <o> \xFF .\n", 1, 11, "invalid UTF-8 byte 0xFF"),
    ];
    for &(doc, line, column, message) in cases {
        for block in [1, 7, 64, ntriples::BLOCK_BYTES] {
            let err = read(doc, block).expect_err("document has a bad byte");
            assert_eq!(
                (err.line, err.column, err.message.as_str()),
                (line, column, message),
                "{doc:?}, block {block}"
            );
        }
    }
}
