//! Robustness: no parser in the workspace may panic on arbitrary input —
//! they must return structured errors — the string-regex matchers must
//! agree with each other on arbitrary ASTs, and validation under a
//! [`Budget`] always terminates with a structured outcome (pathological
//! fixtures trip budgets fast; healthy nodes are isolated from blown ones).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use shapex::{Budget, Engine, EngineConfig, Outcome, Resource};
use shapex_backtrack::{BacktrackValidator, BtConfig, BtError};
use shapex_shex::ast::ShapeLabel;
use shapex_shex::strre::{backtrack_match, CharClass, Re, Regex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The Turtle parser returns Ok or Err on any string — never panics.
    #[test]
    fn turtle_parser_never_panics(input in ".{0,200}") {
        let _ = shapex_rdf::turtle::parse(&input);
    }

    /// Likewise for near-miss Turtle: mutations of a valid document.
    #[test]
    fn turtle_parser_survives_mutations(cut in 0usize..120, insert in ".{0,4}") {
        let valid = "@prefix e: <http://e/> . e:a e:p \"x\"@en, 4.5, true; e:q [ e:r (1 2) ] .";
        let cut = cut.min(valid.len());
        let mut mutated = String::new();
        mutated.push_str(&valid[..cut]);
        mutated.push_str(&insert);
        // Cut on a char boundary (ASCII document, always true).
        mutated.push_str(&valid[cut..]);
        let _ = shapex_rdf::turtle::parse(&mutated);
    }

    /// The N-Triples parser never panics.
    #[test]
    fn ntriples_parser_never_panics(input in ".{0,200}") {
        let _ = shapex_rdf::ntriples::parse(&input);
    }

    /// The lenient Turtle parser never panics on arbitrary input, and
    /// every error it reports carries an in-bounds line number.
    #[test]
    fn lenient_parser_never_panics(input in ".{0,200}") {
        let (_, errors) = shapex_rdf::turtle::parse_lenient(&input);
        let lines = input.lines().count().max(1);
        for e in &errors {
            prop_assert!(e.line >= 1 && e.line <= lines + 1, "error line {} out of bounds", e.line);
        }
    }

    /// Truncation at any byte position — mid-IRI, mid-string-literal,
    /// mid-escape, mid-UTF-8-sequence — must not panic the lenient
    /// parser: EOF inside any token is an error to recover from, and
    /// statements before the cut survive.
    #[test]
    fn lenient_parser_survives_truncation(cut in 0usize..180) {
        let valid = "@prefix e: <http://e/\u{e9}#> .\n\
                     e:a e:p \"caf\u{e9} \\\"quoted\\\" text\"@en, 4.5e2, true .\n\
                     e:b e:q \"\"\"long\nliteral\"\"\"; e:r <http://e/x> .\n\
                     e:c e:s [ e:t (1 2 3) ] .";
        let mut cut = cut.min(valid.len());
        while !valid.is_char_boundary(cut) {
            cut -= 1;
        }
        let full = shapex_rdf::turtle::parse(valid).expect("fixture is valid").graph.len();
        let (ds, _) = shapex_rdf::turtle::parse_lenient(&valid[..cut]);
        // A truncated document can't yield more triples than the whole.
        prop_assert!(ds.graph.len() <= full);
        // Cutting after the first object-list statement keeps its three
        // triples: recovery never discards already-completed statements.
        let first_statement_end = valid.find("true .").unwrap() + "true .".len();
        if cut >= first_statement_end {
            prop_assert!(ds.graph.len() >= 3);
        }
    }

    /// Arbitrary byte mutations of a valid document (any byte overwritten
    /// with any byte, lossily re-decoded) never panic the lenient parser.
    #[test]
    fn lenient_parser_survives_byte_mutations(pos in 0usize..180, byte in 0u8..=255) {
        let valid = "@prefix e: <http://e/> .\n\
                     e:a e:p \"x\\u00e9y\"^^<http://t> .\n\
                     e:b e:q 1, 2.5, -3e1; e:r \"\"\"m\"\"\" .\n\
                     e:c e:s _:bn, [ e:t (e:u) ] .";
        let mut bytes = valid.as_bytes().to_vec();
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] = byte;
        let mutated = String::from_utf8_lossy(&bytes);
        let (_, _) = shapex_rdf::turtle::parse_lenient(&mutated);
    }

    /// The ShExC parser never panics.
    #[test]
    fn shexc_parser_never_panics(input in ".{0,200}") {
        let _ = shapex_shex::shexc::parse(&input);
    }

    /// ShExC near-misses.
    #[test]
    fn shexc_parser_survives_mutations(cut in 0usize..100, insert in ".{0,4}") {
        let valid = "PREFIX e: <http://e/>\n<S> { e:a [1 2]+, e:b IRI? | ^e:c NOT LITERAL{1,3} }";
        let cut = cut.min(valid.len());
        let mut mutated = String::new();
        mutated.push_str(&valid[..cut]);
        mutated.push_str(&insert);
        mutated.push_str(&valid[cut..]);
        let _ = shapex_shex::shexc::parse(&mutated);
    }

    /// The SPARQL parser never panics.
    #[test]
    fn sparql_parser_never_panics(input in ".{0,200}") {
        let _ = shapex_sparql::parser::parse(&input);
    }

    /// The string-regex pattern parser never panics.
    #[test]
    fn pattern_parser_never_panics(input in ".{0,60}") {
        let _ = Regex::new(&input);
    }
}

// ---- N-Triples: mutated valid lines, sequential vs chunked ----

/// Valid N-Triples lines covering every term form: escapes in IRIs,
/// datatypes and literals, subtagged and upper-case language tags,
/// non-ASCII IRIs, labels and literals, comments and blank lines.
const NT_LINES: &[&str] = &[
    "<http://e/s> <http://e/p> <http://e/o> .",
    "_:b1 <http://e/p> \"lit\" .",
    "<http://e/caf\\u00E9> <http://e/p> \"x\\u00e9\\n\\\"q\\\"\"@EN-gb .",
    "_:ñandú <http://e/p> \"3\"^^<http://www.w3.org/2001/XMLSchema#int\\u0065ger> .",
    "<http://e/\\U0001F600>\t<http://e/p>\t_:日本 . # trailing",
    "<http://e/日本> <http://e/p> \"日本語\"@ja-JP-x1 .",
    "  # a comment",
    "",
];

/// Fragments the byte-level scanner must handle at any char boundary:
/// escape starts, quote and angle delimiters, tag and datatype markers, a
/// stray carriage return, and chars of two, three and four UTF-8 bytes.
const NT_FRAGMENTS: &[&str] = &[
    "\\", "\\u00", "\"", "<", ">", "@", "^^", "\r", "é", "日", "😀", " ", "-",
];

/// Inserts each `(position, fragment)` at the char boundary the position
/// selects (modulo the line's char count plus one).
fn splice(line: &str, edits: &[(usize, usize)]) -> String {
    let mut out = line.to_string();
    for &(pos, frag) in edits {
        let boundaries: Vec<usize> = out
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(out.len()))
            .collect();
        let at = boundaries[pos % boundaries.len()];
        out.insert_str(at, NT_FRAGMENTS[frag % NT_FRAGMENTS.len()]);
    }
    out
}

fn arb_mutated_nt_doc() -> impl Strategy<Value = String> {
    let line = (
        0..NT_LINES.len(),
        proptest::collection::vec((any::<usize>(), any::<usize>()), 0..3),
    )
        .prop_map(|(i, edits)| splice(NT_LINES[i], &edits));
    (proptest::collection::vec(line, 1..8), any::<bool>())
        .prop_map(|(lines, crlf)| lines.join(if crlf { "\r\n" } else { "\n" }))
}

/// Every term in id order, every triple, and each node's adjacency: what
/// two parses must agree on to be the same `Dataset`.
type NtFingerprint = (
    Vec<shapex_rdf::Term>,
    Vec<shapex_rdf::Triple>,
    Vec<(Vec<shapex_rdf::Arc>, Vec<shapex_rdf::Arc>)>,
);

fn nt_fingerprint(ds: &shapex_rdf::Dataset) -> NtFingerprint {
    (
        ds.pool.iter().map(|(_, t)| t.to_term()).collect(),
        ds.graph.triples_sorted(),
        ds.pool
            .iter()
            .map(|(id, _)| {
                (
                    ds.graph.neighbourhood(id).to_vec(),
                    ds.graph.incoming(id).to_vec(),
                )
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Valid lines with escape starts, delimiters and multibyte chars
    /// spliced in at random char boundaries: the N-Triples parser returns
    /// a dataset or an error located inside the document, never a panic,
    /// and the chunked parser at four workers returns the same dataset or
    /// the same error.
    #[test]
    fn ntriples_mutations_are_located_and_chunk_invariant(doc in arb_mutated_nt_doc()) {
        let seq = shapex_rdf::ntriples::parse(&doc);
        let par = shapex_rdf::ntriples::parse_par_min_chunk(&doc, 4, 1);
        match (seq, par) {
            (Ok(a), Ok(b)) => prop_assert_eq!(nt_fingerprint(&a), nt_fingerprint(&b)),
            (Err(a), Err(b)) => {
                let line = doc.split('\n').nth(a.line - 1).expect("error line is in the document");
                prop_assert!(a.column >= 1 && a.column <= line.chars().count() + 1, "{:?}", a);
                prop_assert_eq!(a, b);
            }
            (a, b) => prop_assert!(false, "sequential {:?} vs chunked {:?}", a.err(), b.err()),
        }
    }
}

// ---- N-Triples: the block reader, with bytes that are not UTF-8 ----

/// Byte sequences that are not UTF-8: a lone continuation byte, bytes
/// that never occur, truncated two- and three-byte chars, a surrogate and
/// an overlong encoding.
const BAD_UTF8: &[&[u8]] = &[
    b"\x80",
    b"\xFF",
    b"\xC3",
    b"\xE6\x97",
    b"\xED\xA0\x80",
    b"\xC0\xAF",
];

/// A mutated document with bad byte sequences spliced in at any byte
/// offset, inside multibyte chars too.
fn arb_mutated_nt_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        arb_mutated_nt_doc(),
        proptest::collection::vec((any::<usize>(), any::<usize>()), 0..3),
    )
        .prop_map(|(doc, edits)| {
            let mut bytes = doc.into_bytes();
            for (pos, bad) in edits {
                let at = pos % (bytes.len() + 1);
                let bad = BAD_UTF8[bad % BAD_UTF8.len()];
                bytes.splice(at..at, bad.iter().copied());
            }
            bytes
        })
}

/// What the reader must give for `doc`, worked out from the whole text:
/// the parse of the text when it is UTF-8; otherwise the first syntax
/// error on a line before the first bad byte, or else that byte's position.
fn reader_oracle(doc: &[u8]) -> Result<NtFingerprint, shapex_rdf::ParseError> {
    let err = match std::str::from_utf8(doc) {
        Ok(text) => return shapex_rdf::ntriples::parse(text).map(|ds| nt_fingerprint(&ds)),
        Err(err) => err,
    };
    let valid = &doc[..err.valid_up_to()];
    let line_start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let before = std::str::from_utf8(&valid[..line_start]).expect("valid prefix");
    shapex_rdf::ntriples::parse(before)?;
    let line = std::str::from_utf8(&valid[line_start..]).expect("valid prefix");
    Err(shapex_rdf::ParseError::new(
        before.matches('\n').count() + 1,
        line.chars().count() + 1,
        format!("invalid UTF-8 byte 0x{:02X}", doc[valid.len()]),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The block reader, at block sizes that split lines and chars, gives
    /// the dataset or the located error the whole text gives: never a
    /// panic, never a result that depends on where a block ends.
    #[test]
    fn ntriples_reader_mutations_are_located_and_block_invariant(
        doc in arb_mutated_nt_bytes(),
        block in 1usize..40,
    ) {
        let expected = reader_oracle(&doc);
        for block in [block, shapex_rdf::ntriples::BLOCK_BYTES] {
            let got = match shapex_rdf::ntriples::read_block_size(doc.as_slice(), block) {
                Ok(ds) => Ok(nt_fingerprint(&ds)),
                Err(shapex_rdf::ReadError::Parse(e)) => Err(e),
                Err(shapex_rdf::ReadError::Io(e)) => panic!("reading a slice failed: {e}"),
            };
            prop_assert_eq!(&got, &expected, "block {}", block);
        }
        if let Err(e) = &expected {
            let line = doc.split(|&b| b == b'\n').nth(e.line - 1).expect("error line is in the document");
            let chars = String::from_utf8_lossy(line).chars().count();
            prop_assert!(e.column >= 1 && e.column <= chars + 1, "{:?}", e);
        }
    }
}

// ---- delta files and ShExJ: mutation fuzz with an allocation bound ----

/// Forwards to [`System`], adding the bytes each allocation asks for to
/// a per-thread total, so a test can bound what its own thread allocates
/// while other tests of this binary run beside it.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees carry over; the
// bookkeeping touches a const-initialised thread-local `Cell` only, which
// neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the bytes the calling thread allocated while it ran.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let r = f();
    (r, ALLOCATED.with(Cell::get) - before)
}

/// The most a parse may allocate for an input of `len` bytes: a fixed
/// allowance for its tables plus a constant per input byte.
fn allocation_bound(len: usize) -> usize {
    16 * 1024 + 64 * len
}

/// Fragments spliced into delta files and ShExJ documents: the two
/// formats' delimiters, escape starts, keywords, numbers at the edge of
/// their range, and multibyte chars.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    "\\",
    "\\u",
    "\\ud800",
    "\n",
    "+",
    "-",
    ".",
    ";",
    "<",
    ">",
    "^^",
    "@",
    "@prefix",
    "@base <http://b/> .",
    "e:",
    "_:",
    "(",
    ")",
    "#",
    "é",
    "日",
    "😀",
    "-1",
    "1e999",
    "18446744073709551616",
    "null",
    "true",
    "\"type\"",
    "\"min\"",
    "\"max\"",
];

/// One edit of a document.
#[derive(Debug, Clone)]
enum Edit {
    /// Insert a fragment at a char boundary.
    Splice(usize, usize),
    /// Delete the chars between two char boundaries.
    Delete(usize, usize),
    /// Insert copies of the text between two char boundaries right after
    /// it: repeated lines and repeated directives.
    Repeat(usize, usize, usize),
    /// Cut the document at a char boundary.
    Truncate(usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    let splice = || (any::<usize>(), any::<usize>()).prop_map(|(at, f)| Edit::Splice(at, f));
    prop_oneof![
        splice(),
        splice(),
        (any::<usize>(), 0usize..12).prop_map(|(at, n)| Edit::Delete(at, n)),
        (any::<usize>(), 1usize..200, 1usize..40).prop_map(|(at, n, k)| Edit::Repeat(at, n, k)),
        any::<usize>().prop_map(Edit::Truncate),
    ]
}

/// Applies `edits` in order, each at the char boundary its position
/// selects.
fn mutate(doc: &str, edits: &[Edit]) -> String {
    let mut out = doc.to_string();
    for edit in edits {
        let boundaries: Vec<usize> = out
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(out.len()))
            .collect();
        let at = |pos: usize| boundaries[pos % boundaries.len()];
        let span = |pos: usize, n: usize| {
            let i = pos % boundaries.len();
            (boundaries[i], boundaries[(i + n).min(boundaries.len() - 1)])
        };
        match *edit {
            Edit::Splice(pos, f) => out.insert_str(at(pos), FRAGMENTS[f % FRAGMENTS.len()]),
            Edit::Delete(pos, n) => {
                let (a, b) = span(pos, n);
                out.replace_range(a..b, "");
            }
            Edit::Repeat(pos, n, k) => {
                let (a, b) = span(pos, n);
                let copies = out[a..b].repeat(k);
                out.insert_str(b, &copies);
            }
            Edit::Truncate(pos) => out.truncate(at(pos)),
        }
    }
    out
}

const DELTA: &str = "# an edit\n\
    @prefix e: <http://e/> .\n\
    @prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
    - e:mary foaf:age 65 .\n\
    + e:mary foaf:name \"Mary\"@en, \"M\\u00E9ry\" ; foaf:knows e:bob .\n\
    + e:bob foaf:age \"34\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
    -  _:b0 e:p ( 1 2.5 true ) .\n";

const SHEXC: &str = "PREFIX e: <http://e/>\n\
    PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
    start = @<Person>\n\
    <Person> { e:name xsd:string+ , e:age xsd:integer MININCLUSIVE 0 ?, \
               (e:knows @<Person>* | ^e:member @<Group>) , e:tag [e:a e:b~ \"x\"@en] {2,5} , \
               e:code LITERAL PATTERN \"^[A-Z]+$\" MAXLENGTH 9 }\n\
    <Group> { e:label NOT IRI ; e:p . }";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A mutated delta file parses or names the line it fails on, never
    /// panics, and allocates no more than a constant per input byte.
    #[test]
    fn delta_mutations_are_located_and_bounded(
        edits in proptest::collection::vec(arb_edit(), 1..5),
    ) {
        let doc = mutate(DELTA, &edits);
        let mut pool = shapex_rdf::pool::TermPool::new();
        let (parsed, bytes) = allocated_by(|| shapex_rdf::delta::parse(&doc, &mut pool));
        if let Err(e) = parsed {
            prop_assert!(e.line >= 1 && e.line <= doc.lines().count(), "{:?} in {:?}", e, doc);
        }
        prop_assert!(bytes <= allocation_bound(doc.len()), "{} bytes for {:?}", bytes, doc);
    }

    /// A mutated ShExJ document decodes or gives an error: a JSON error
    /// at a line and column of the document, or a structure or schema
    /// error naming what is wrong. Never a panic, and allocation stays
    /// within a constant per input byte.
    #[test]
    fn shexj_mutations_are_located_and_bounded(
        edits in proptest::collection::vec(arb_edit(), 1..5),
    ) {
        let valid = shapex_shex::shexj::to_json(&shapex_shex::shexc::parse(SHEXC).unwrap());
        let doc = mutate(&valid, &edits);
        let (parsed, bytes) = allocated_by(|| shapex_shex::shexj::from_json(&doc));
        match parsed {
            Err(shapex_shex::shexj::ShexjError::Json(m)) => {
                let (line, column) = json_error_position(&m);
                let text = doc.split('\n').nth(line - 1);
                let chars = text.map(|t| t.chars().count());
                prop_assert!(chars.is_some_and(|c| column >= 1 && column <= c + 1), "{}", m);
            }
            Err(e) => prop_assert!(!e.to_string().ends_with(": "), "{}", e),
            Ok(_) => {}
        }
        prop_assert!(bytes <= allocation_bound(doc.len()), "{} bytes for {:?}", bytes, doc);
    }
}

/// Inputs the mutation fuzz found, as fixed cases. A delta file that
/// repeats its `@prefix` lines allocated quadratically in their number:
/// each line parsed again every declaration before it. JSON nested deeper
/// than the stack could recurse aborted the process with a stack overflow.
#[test]
fn delta_and_shexj_fixed_cases() {
    let mut doc = String::new();
    for i in 0..400 {
        doc += &format!("@prefix p{i}: <http://e/{i}/> .\n");
    }
    for i in 0..400 {
        doc += &format!("+ p{i}:a p{i}:b p{i}:c .\n");
    }
    let mut pool = shapex_rdf::pool::TermPool::new();
    let (parsed, bytes) = allocated_by(|| shapex_rdf::delta::parse(&doc, &mut pool));
    assert_eq!(parsed.unwrap().added.len(), 400);
    assert!(
        bytes <= allocation_bound(doc.len()),
        "{bytes} bytes for {}",
        doc.len()
    );
    let deep = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
    match shapex_shex::shexj::from_json(&deep) {
        Err(shapex_shex::shexj::ShexjError::Json(m)) => {
            assert!(m.starts_with("recursion limit exceeded"), "{m}");
            assert_eq!(json_error_position(&m), (1, 128 * 5 + 1));
        }
        other => panic!("{other:?}"),
    }
}

/// The `line N column M` a JSON error message ends with.
fn json_error_position(message: &str) -> (usize, usize) {
    let words: Vec<&str> = message.split_whitespace().collect();
    match words[..] {
        [.., "line", line, "column", column] => (line.parse().unwrap(), column.parse().unwrap()),
        _ => panic!("JSON error without a position: {message}"),
    }
}

// ---- string-regex matcher agreement on random ASTs ----

fn arb_re() -> impl Strategy<Value = Arc<Re>> {
    let leaf = prop_oneof![
        Just(Arc::new(Re::Epsilon)),
        prop_oneof![Just('a'), Just('b'), Just('c')].prop_map(Re::char),
        Just(Re::class(CharClass::ranges(vec![('a', 'b')], false))),
        Just(Re::class(CharClass::ranges(vec![('b', 'c')], true))),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Re::concat(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Re::alt(a, b)),
            inner.prop_map(Re::star),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Alternation is canonical: commutative and associative at the
    /// constructor level (required for derivative-state convergence).
    #[test]
    fn alt_is_canonical(a in arb_re(), b in arb_re(), c in arb_re()) {
        prop_assert_eq!(Re::alt(a.clone(), b.clone()), Re::alt(b.clone(), a.clone()));
        prop_assert_eq!(
            Re::alt(Re::alt(a.clone(), b.clone()), c.clone()),
            Re::alt(a.clone(), Re::alt(b.clone(), c.clone()))
        );
        prop_assert_eq!(Re::alt(a.clone(), a.clone()), a.clone());
    }

    /// Derivative matching ≡ memoised derivative matching ≡ naive
    /// backtracking, on arbitrary regex ASTs and short inputs.
    #[test]
    fn string_matchers_agree(re in arb_re(), input in "[abc]{0,7}") {
        let source = Regex::from_ast(re.clone());
        let derivative = source.is_match(&input);
        let memoised = source.is_match_memo(&input);
        let backtracking = backtrack_match(&re, &input);
        prop_assert_eq!(derivative, memoised, "memo diverges on {:?} / {:?}", re, input);
        prop_assert_eq!(derivative, backtracking, "backtracking diverges on {:?} / {:?}", re, input);
    }
}

// ---- resource governance: pathological fixtures trip budgets fast ----

fn pathological(name: &str) -> (shapex_shex::Schema, shapex_rdf::graph::Dataset) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/_pathological");
    let schema_src = std::fs::read_to_string(root.join(format!("{name}.shex")))
        .unwrap_or_else(|e| panic!("{name}.shex: {e}"));
    let data_src = std::fs::read_to_string(root.join(format!("{name}.ttl")))
        .unwrap_or_else(|e| panic!("{name}.ttl: {e}"));
    let schema = shapex_shex::shexc::parse(&schema_src).unwrap();
    let ds = shapex_rdf::turtle::parse(&data_src).unwrap();
    (schema, ds)
}

fn check_under(
    schema: &shapex_shex::Schema,
    ds: &mut shapex_rdf::graph::Dataset,
    node_iri: &str,
    shape: &str,
    budget: Budget,
) -> Outcome {
    let config = EngineConfig {
        budget,
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(schema, &mut ds.pool, config).unwrap();
    let node = ds.iri(node_iri).expect("focus node in data");
    let shape = engine.shape_id(&ShapeLabel::new(shape)).expect("shape");
    engine.check_id(&ds.graph, &ds.pool, node, shape)
}

/// The 2000-node cycle needs recursion ~= the cycle length: a small depth
/// budget must trip it quickly and report the depth axis.
#[test]
fn deep_recursion_trips_depth_budget_fast() {
    let (schema, mut ds) = pathological("deep_recursion");
    let start = Instant::now();
    let outcome = check_under(
        &schema,
        &mut ds,
        "http://e/n0",
        "Chain",
        Budget::UNLIMITED.with_max_depth(64),
    );
    let e = outcome.exhaustion().expect("depth budget should trip");
    assert_eq!(e.resource, Resource::Depth);
    assert!(e.spent <= e.limit);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "exhaustion took {:?}",
        start.elapsed()
    );
}

/// Without a budget the same cycle conforms (greatest fixpoint: the cyclic
/// assumption is coinductively sound) — exhaustion is a resource verdict,
/// not an answer.
#[test]
fn deep_recursion_conforms_unlimited() {
    // The 2000-deep coinductive proof nests on the engine's heap frame
    // stack, so an ungoverned run fits a 256 KiB thread stack.
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let (schema, mut ds) = pathological("deep_recursion");
            let outcome = check_under(&schema, &mut ds, "http://e/n0", "Chain", Budget::UNLIMITED);
            assert!(outcome.matched(), "cycle should conform coinductively");
        })
        .unwrap()
        .join()
        .unwrap();
}

/// 18 same-predicate conjuncts with pseudo-random value sets: every
/// triple has a distinct satisfaction profile, the And-rule derivative
/// branches exponentially, and step and arena budgets must both trip in
/// well under a second.
#[test]
fn interleave_trips_step_and_arena_budgets_fast() {
    let (schema, mut ds) = pathological("interleave");
    let start = Instant::now();
    let outcome = check_under(
        &schema,
        &mut ds,
        "http://e/big",
        "Blowup",
        Budget::steps(10_000),
    );
    let e = outcome.exhaustion().expect("step budget should trip");
    assert_eq!(e.resource, Resource::Steps);
    assert_eq!(e.spent, 10_000);

    let outcome = check_under(
        &schema,
        &mut ds,
        "http://e/big",
        "Blowup",
        Budget::UNLIMITED.with_max_arena_nodes(2_000),
    );
    let e = outcome.exhaustion().expect("arena budget should trip");
    assert_eq!(e.resource, Resource::ArenaNodes);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "exhaustion took {:?}",
        start.elapsed()
    );
}

/// The 5000-object fan-out crosses the deadline poll interval, so an
/// already-expired deadline trips on the wall-clock axis; a tiny step
/// budget trips on steps; and unlimited still answers (it is linear for
/// the derivative engine).
#[test]
fn fanout_budget_axes() {
    let (schema, mut ds) = pathological("fanout");
    let outcome = check_under(&schema, &mut ds, "http://e/hub", "Fan", Budget::steps(100));
    let e = outcome.exhaustion().expect("step budget should trip");
    assert_eq!(e.resource, Resource::Steps);
    assert_eq!(e.spent, e.limit);

    let outcome = check_under(
        &schema,
        &mut ds,
        "http://e/hub",
        "Fan",
        Budget::UNLIMITED.with_deadline(Duration::ZERO),
    );
    let e = outcome.exhaustion().expect("expired deadline should trip");
    assert_eq!(e.resource, Resource::WallClock);

    let outcome = check_under(&schema, &mut ds, "http://e/hub", "Fan", Budget::UNLIMITED);
    assert!(outcome.matched(), "all 5000 objects are literals");
}

/// Per-node fault isolation: in one `type_all` run over a graph holding
/// both a pathological node and a healthy one, the blown pair lands in
/// `typing.exhausted` while the healthy node still gets its definitive
/// (and correct) typing.
#[test]
fn type_all_isolates_pathological_node() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/_pathological");
    let schema_src =
        std::fs::read_to_string(root.join("interleave.shex")).unwrap() + "\n<Ok> { e:q [1] }\n";
    let data_src =
        std::fs::read_to_string(root.join("interleave.ttl")).unwrap() + "e:good e:q 1 .\n";
    let schema = shapex_shex::shexc::parse(&schema_src).unwrap();
    let mut ds = shapex_rdf::turtle::parse(&data_src).unwrap();
    let config = EngineConfig {
        budget: Budget::steps(10_000),
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
    let typing = engine.type_all(&ds.graph, &ds.pool);

    let good = ds.iri("http://e/good").unwrap();
    let big = ds.iri("http://e/big").unwrap();
    let ok_shape = engine.shape_id(&ShapeLabel::new("Ok")).unwrap();
    let blowup = engine.shape_id(&ShapeLabel::new("Blowup")).unwrap();

    assert!(typing.is_partial(), "the blowup pair should exhaust");
    assert!(
        typing.has(good, ok_shape),
        "healthy node must still be typed correctly"
    );
    assert!(
        !typing.has(big, blowup),
        "an exhausted pair must not be asserted in the typing"
    );
    assert!(
        typing
            .exhausted
            .iter()
            .any(|&(n, s, _)| n == big && s == blowup),
        "the blown pair must be reported in typing.exhausted"
    );
    // The exhausted pair is retryable: a bigger budget on the same engine
    // must not be poisoned by leftover state from the blown run.
    engine.set_budget(Budget::UNLIMITED.with_max_depth(1_000));
    let retry = engine.check_id(&ds.graph, &ds.pool, good, ok_shape);
    assert!(retry.matched());
    let stats = engine.stats();
    assert!(stats.exhausted_checks >= 1, "{stats}");
}

/// The backtracking baseline under a budget fails cleanly on the blow-up
/// and still answers healthy nodes afterwards (per-node meters).
#[test]
fn backtracker_exhausts_cleanly_and_isolates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/_pathological");
    let schema_src =
        std::fs::read_to_string(root.join("interleave.shex")).unwrap() + "\n<Ok> { e:q [1] }\n";
    let data_src =
        std::fs::read_to_string(root.join("interleave.ttl")).unwrap() + "e:good e:q 1 .\n";
    let schema = shapex_shex::shexc::parse(&schema_src).unwrap();
    let ds = shapex_rdf::turtle::parse(&data_src).unwrap();
    let validator = BacktrackValidator::with_config(
        &schema,
        BtConfig {
            budget: Budget::steps(10_000),
        },
    )
    .unwrap();
    let big = ds.iri("http://e/big").unwrap();
    let good = ds.iri("http://e/good").unwrap();
    let start = Instant::now();
    let err = validator
        .check(&ds.graph, &ds.pool, big, &ShapeLabel::new("Blowup"))
        .unwrap_err();
    match err {
        BtError::ResourceExhausted(e) => {
            assert_eq!(e.resource, Resource::Steps);
            assert!(e.spent <= e.limit);
        }
        other => panic!("expected exhaustion, got {other}"),
    }
    assert!(start.elapsed() < Duration::from_secs(1));
    // Fresh meter per node: the healthy node is unaffected.
    let ok = validator
        .check(&ds.graph, &ds.pool, good, &ShapeLabel::new("Ok"))
        .unwrap();
    assert!(ok);
}

/// 20 000 triples between one subject and one object, with distinct
/// predicates: every membership test on one arc list would make the load
/// quadratic. Turtle text (fresh and into a dataset that holds the pair
/// already) and a delta each load in well under a second.
#[test]
fn one_subject_one_object_loads_are_linear() {
    const N: usize = 20_000;
    let mut text = String::from("@prefix e: <http://e/> .\n");
    let mut delta_text = String::from("@prefix e: <http://e/> .\n");
    for i in 0..N {
        text.push_str(&format!("e:s e:p{i} e:o .\n"));
        delta_text.push_str(&format!("+ e:s e:q{i} e:o .\n"));
    }
    // Every triple twice: the repeats must collapse.
    let doubled = format!("{text}{text}");

    let start = Instant::now();
    let ds = shapex_rdf::turtle::parse(&doubled).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "Turtle load took {:?}",
        start.elapsed()
    );
    assert_eq!(ds.graph.len(), N);

    let mut ds = shapex_rdf::turtle::parse("<http://e/s> <http://e/p0> <http://e/o> .").unwrap();
    let start = Instant::now();
    shapex_rdf::turtle::parse_into(&doubled, &mut ds).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "Turtle load into a dataset took {:?}",
        start.elapsed()
    );
    assert_eq!(ds.graph.len(), N);

    let start = Instant::now();
    let delta = shapex_rdf::delta::parse(&delta_text, &mut ds.pool).unwrap();
    let applied = ds.apply_delta(&delta);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "delta load took {:?}",
        start.elapsed()
    );
    assert_eq!(applied.added_count(), N);
    assert_eq!(ds.graph.len(), 2 * N);
    ds.revert_delta(&applied);
    assert_eq!(ds.graph.len(), N);
}

// ---- budget safety under random workloads and random budgets ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any workload × any small budget: validation never panics, always
    /// terminates with a structured outcome, respects `spent <= limit`,
    /// and — crucially — a definitive answer under a budget equals the
    /// unlimited answer (budgets must not change verdicts).
    #[test]
    fn derivative_budget_safety(
        family in 0usize..5,
        size in 1usize..10,
        steps in 1u64..3_000,
        depth in 1u32..48,
        arena in 1usize..3_000,
    ) {
        let w = match family {
            0 => shapex_workloads::example8_neighbourhood(size),
            1 => shapex_workloads::and_width(size.min(6), 2),
            2 => shapex_workloads::balanced_ab(size),
            3 => shapex_workloads::alternation_fanout(3, size),
            _ => shapex_workloads::repeat_bounds(1, size as u32, size),
        };
        let mut w = w;
        let schema = shapex_shex::shexc::parse(&w.schema).unwrap();
        let budget = Budget::steps(steps)
            .with_max_depth(depth)
            .with_max_arena_nodes(arena);
        let config = EngineConfig { budget, ..EngineConfig::default() };
        let mut engine = Engine::compile(&schema, &mut w.dataset.pool, config).unwrap();
        let shape = engine.shape_id(&ShapeLabel::new(w.shape.as_str())).unwrap();
        for (i, iri) in w.focus.iter().enumerate() {
            let node = w.dataset.iri(iri).unwrap();
            match engine.check_id(&w.dataset.graph, &w.dataset.pool, node, shape) {
                Outcome::Exhausted(e) => {
                    prop_assert!(e.spent <= e.limit, "{e}");
                }
                definitive => {
                    // Budgets never flip answers.
                    prop_assert_eq!(
                        definitive.matched(),
                        w.expected[i],
                        "budget changed the verdict for {}", iri
                    );
                }
            }
        }
        // Stats render without panicking and record any exhaustion.
        let _ = engine.stats().to_string();
    }

    /// Same safety envelope for the backtracking baseline.
    #[test]
    fn backtracker_budget_safety(
        size in 1usize..8,
        steps in 1u64..2_000,
        depth in 1u32..48,
    ) {
        let w = shapex_workloads::and_width(size, 2);
        let schema = shapex_shex::shexc::parse(&w.schema).unwrap();
        let budget = Budget::steps(steps).with_max_depth(depth);
        let validator = BacktrackValidator::with_config(&schema, BtConfig { budget }).unwrap();
        let label = ShapeLabel::new(w.shape.as_str());
        for (i, iri) in w.focus.iter().enumerate() {
            let node = w.dataset.iri(iri).unwrap();
            match validator.check(&w.dataset.graph, &w.dataset.pool, node, &label) {
                Err(BtError::ResourceExhausted(e)) => {
                    prop_assert!(e.spent <= e.limit, "{e}");
                }
                Err(other) => prop_assert!(false, "unexpected error: {}", other),
                Ok(got) => prop_assert_eq!(got, w.expected[i]),
            }
        }
    }
}
