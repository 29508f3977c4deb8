//! JSON report documents for validation runs.
//!
//! The document schema is documented in `DESIGN.md` (§ Observability) and
//! held stable by the CLI tests and the CI smoke step. It lives in the
//! core crate — not the CLI — because byte-identical reports are the
//! contract between every front end. Each engine-backed mode is written
//! here once, document and exit code together: [`typing_report`],
//! [`map_report`] and [`delta_report`] write a document to any
//! [`io::Write`] and return the [`RunStatus`] that gives both the
//! document's `conforms` value and the 0/2/3 exit code. `shapex validate
//! --report json` streams them to stdout; the resident server renders them
//! into memory with [`RunReport::capture`], because a response needs its
//! length before its body.
//!
//! A document is written in one pass by [`ReportDoc`], with no JSON tree:
//! the bytes are exactly those `serde_json::to_string_pretty` gives for the
//! tree the document describes, keys in sorted (`BTreeMap`) order. That key
//! order is the contract. Everything that sorts before `results` —
//! `conforms`, `exhausted`, `lenient_skipped`, `metrics` and a mode's own
//! blocks — is known once typing ends, so the head is written first and
//! every row goes to the output as it is produced.
//!
//! Stats, metrics, and exhaustion blocks come from the engine types' own
//! `to_json` methods and are rendered as small [`Value`]s at their indent.
//! `stats` and `metrics` are per-run work counters: they count the typing
//! runs only, not the [`Engine::explain`] calls that fill failing rows,
//! and may differ with `--jobs`. The rows of an unbudgeted run do not.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::{self, Write};

use serde_json::{json, Map, Value};

use shapex_rdf::delta::{DeltaApplyError, GraphDelta};
use shapex_rdf::graph::{Dataset, Graph};
use shapex_rdf::pool::{TermId, TermPool};
use shapex_shex::shapemap::ShapeMap;

use crate::budget::Exhaustion;
use crate::compile::ShapeId;
use crate::engine::{Engine, EngineError, MapOutcome, Trace};
use crate::result::Typing;

/// How a run ended, in the exit-code sense every front end shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The run completed and the data conforms. A full typing has no
    /// verdict of its own: it "conforms" when it ran to completion.
    Conforms,
    /// The run completed and some verdict is non-conformance.
    NonConforming,
    /// A budget tripped before the run completed (the first exhaustion).
    /// This outranks non-conformance: a partial run's failing verdicts
    /// might flip with a larger budget.
    Exhausted(Exhaustion),
}

impl RunStatus {
    /// A full typing's status: exhausted if any pair went unanswered.
    pub fn of_typing(typing: &Typing) -> RunStatus {
        match typing.exhausted.first() {
            Some(&(_, _, e)) => RunStatus::Exhausted(e),
            None => RunStatus::Conforms,
        }
    }

    /// A completed check's status, from its verdict.
    pub fn of_verdict(conforms: bool) -> RunStatus {
        if conforms {
            RunStatus::Conforms
        } else {
            RunStatus::NonConforming
        }
    }

    /// A shape-map run's status: exhausted if any check was, else
    /// non-conforming if any association's verdict was unexpected.
    pub fn of_map(outcomes: &[MapOutcome]) -> RunStatus {
        match outcomes.iter().find_map(|o| o.exhaustion) {
            Some(e) => RunStatus::Exhausted(e),
            None => RunStatus::of_verdict(outcomes.iter().all(|o| o.as_expected)),
        }
    }

    /// The process exit code: 0 conforms, 2 does not conform, 3 exhausted.
    pub fn exit_code(self) -> u8 {
        match self {
            RunStatus::Conforms => 0,
            RunStatus::NonConforming => 2,
            RunStatus::Exhausted(_) => 3,
        }
    }

    /// The document's `conforms` value: `null` when exhausted.
    pub fn conforms(self) -> Option<bool> {
        match self {
            RunStatus::Conforms => Some(true),
            RunStatus::NonConforming => Some(false),
            RunStatus::Exhausted(_) => None,
        }
    }
}

/// A rendered report document and the status it reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The serialized document.
    pub body: String,
    /// The run's status; its exit code is what a front end returns.
    pub status: RunStatus,
}

impl RunReport {
    /// Renders a report into memory: `write` is one of this module's
    /// writers aimed at the buffer it is given.
    pub fn capture<E>(
        write: impl FnOnce(&mut Vec<u8>) -> Result<RunStatus, E>,
    ) -> Result<RunReport, E> {
        let mut body = Vec::new();
        let status = write(&mut body)?;
        Ok(RunReport {
            body: into_text(body),
            status,
        })
    }
}

fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the report writer emits UTF-8")
}

/// Serializes a report document: pretty-printed, trailing newline.
pub fn render(v: &Value) -> String {
    let mut s = serde_json::to_string_pretty(v).expect("report values contain no NaN");
    s.push('\n');
    s
}

/// The blocks every engine-backed document ends with: `lenient_skipped`
/// (when a lenient parse skipped statements), the engine's `stats`, and
/// its `metrics` (when collected).
pub fn engine_blocks(engine: &Engine, skipped: usize) -> Map<String, Value> {
    let mut m = Map::new();
    if skipped > 0 {
        m.insert("lenient_skipped".to_string(), Value::from(skipped));
    }
    m.insert("stats".to_string(), engine.stats().to_json());
    if let Some(metrics) = engine.metrics() {
        let labels = |i: usize| engine.label_of(ShapeId(i as u32)).as_str().to_string();
        m.insert("metrics".to_string(), metrics.to_json(&labels));
    }
    m
}

/// A §7 derivative trace as structured steps.
pub fn trace_json(t: &Trace, pool: &TermPool) -> Value {
    let steps: Vec<Value> = t
        .steps
        .iter()
        .map(|s| {
            json!({
                "subject": pool.term(s.subject).to_string(),
                "predicate": pool.term(s.predicate).to_string(),
                "object": pool.term(s.object).to_string(),
                "inverse": s.inverse,
                "before": s.before.as_str(),
                "after": s.after.as_str(),
            })
        })
        .collect();
    json!({
        "steps": Value::Array(steps),
        "residual": t.residual.as_str(),
        "nullable": t.nullable,
        "matched": t.matched,
    })
}

/// Spaces per nesting level, as `to_string_pretty` indents.
const STEP: usize = 2;

fn pad(out: &mut Vec<u8>, n: usize) {
    out.resize(out.len() + n, b' ');
}

/// Appends `s` JSON-escaped, without quotes, exactly as `serde_json`
/// escapes strings. Every escaped character is ASCII, so the runs between
/// them are copied whole.
fn escape_into(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0C => b"\\f",
            0x00..=0x1F => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        if short.is_empty() {
            out.extend_from_slice(b"\\u00");
            out.push(HEX[usize::from(b >> 4)]);
            out.push(HEX[usize::from(b & 0xF)]);
        } else {
            out.extend_from_slice(short);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
}

/// A [`fmt::Write`] that JSON-escapes everything written through it, so a
/// [`fmt::Display`] value lands in a JSON string without a `String` of its
/// own.
struct Escaper<'a>(&'a mut Vec<u8>);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Appends `s` as a quoted JSON string.
fn push_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    escape_into(out, s);
    out.push(b'"');
}

fn push_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Appends `text`'s `Display` output as a quoted JSON string.
fn push_quoted(out: &mut Vec<u8>, text: impl fmt::Display) {
    out.push(b'"');
    write!(Escaper(out), "{text}").expect("the escaper never fails");
    out.push(b'"');
}

/// Appends `v` as `to_string_pretty` writes it nested `indent` spaces
/// deep: the same text with every line after the first indented. Pretty
/// JSON has a raw newline only between lines, never inside a string.
fn push_value(out: &mut Vec<u8>, v: &Value, indent: usize) {
    let text = serde_json::to_string_pretty(v).expect("report values contain no NaN");
    for (i, line) in text.split('\n').enumerate() {
        if i > 0 {
            out.push(b'\n');
            pad(out, indent);
        }
        out.extend_from_slice(line.as_bytes());
    }
}

/// A name rendered once as a quoted JSON string, for text that many rows
/// repeat: a subject's name, a shape label.
#[derive(Debug, Clone, Default)]
pub struct Quoted(Vec<u8>);

impl Quoted {
    /// `text`'s `Display` output, quoted and escaped.
    pub fn new(text: impl fmt::Display) -> Quoted {
        let mut q = Quoted::default();
        q.replace(text);
        q
    }

    /// Renders `text` in place, keeping the allocation.
    fn replace(&mut self, text: impl fmt::Display) {
        self.0.clear();
        push_quoted(&mut self.0, text);
    }
}

/// One row of a document's `results` array. Its fields are written in key
/// order; `None` fields are left out.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    /// `--map` rows: whether the verdict met the expectation.
    pub as_expected: Option<bool>,
    /// Why the check gave no verdict.
    pub exhaustion: Option<&'a Exhaustion>,
    /// `--map` rows: whether the association expected conformance.
    pub expected: Option<bool>,
    /// Why the node fails the shape.
    pub failure: Option<&'a dyn fmt::Display>,
    /// The focus node; `None` in rows about a shape alone.
    pub node: Option<&'a Quoted>,
    /// The shape label.
    pub shape: &'a Quoted,
    /// The verdict word (`conforms`, `fails`, `exhausted`, …).
    pub verdict: &'a str,
}

impl<'a> Row<'a> {
    /// A row with only a shape and a verdict.
    pub fn new(shape: &'a Quoted, verdict: &'a str) -> Row<'a> {
        Row {
            as_expected: None,
            exhaustion: None,
            expected: None,
            failure: None,
            node: None,
            shape,
            verdict,
        }
    }
}

/// Writes one object's fields: `{`, then `,`-separated `"key": ` prefixes
/// at one indent.
struct Fields {
    indent: usize,
    any: bool,
}

impl Fields {
    fn key(&mut self, out: &mut Vec<u8>, key: &str) {
        out.push(if self.any { b',' } else { b'{' });
        out.push(b'\n');
        pad(out, self.indent);
        push_str(out, key);
        out.extend_from_slice(b": ");
        self.any = true;
    }

    /// Closes the object, `outer` spaces deep. Every object a report
    /// writes this way has fields, so it is never `{}`.
    fn close(&self, out: &mut Vec<u8>, outer: usize) {
        debug_assert!(self.any, "an object with no fields");
        out.push(b'\n');
        pad(out, outer);
        out.push(b'}');
    }
}

/// A report document, written to `W` in one pass in key order.
///
/// Blocks are [`set`](ReportDoc::set) as small [`Value`]s and wait until
/// the writer reaches their key. The module's writers know the head —
/// every key that sorts before `results` — once typing ends, so they
/// write it first and send each row straight to `W`. Rows pushed before
/// the head is written are held in memory until the document is sealed
/// ([`ReportDoc::finish`], [`finish_engine_doc`]), so a caller that learns
/// `conforms` only at the end gets the same bytes. The first write error
/// stops all writing and is returned when the document is sealed.
pub struct ReportDoc<W: Write = Vec<u8>> {
    out: W,
    /// Indent of the document's own braces: 0 at the top level, one step
    /// for a section nested in a `--delta` document.
    indent: usize,
    fields: Fields,
    /// Blocks not yet written, by key.
    pending: Map<String, Value>,
    /// The `exhausted` array, written with the head.
    exhausted: Vec<Value>,
    /// The `conforms` value the head was written with, once it was.
    begun: Option<Option<bool>>,
    rows: usize,
    /// Rows not yet written: all of them before `begin`, then the current
    /// one.
    held: Vec<u8>,
    error: Option<io::Error>,
}

impl ReportDoc {
    /// A fresh document for the given mode/engine pair, rendered into
    /// memory.
    pub fn new(mode: &str, engine: &str) -> Self {
        ReportDoc::to_writer(Vec::new(), mode, engine)
    }

    /// Seals an in-memory document and returns its text. `conforms` is the
    /// run's overall verdict, `null` when any check exhausted (the honest
    /// answer is "unknown").
    pub fn finish(self, conforms: Option<bool>) -> String {
        into_text(self.close(conforms).expect("in-memory writes do not fail"))
    }
}

impl<W: Write> ReportDoc<W> {
    /// A fresh document for the given mode/engine pair, written to `out`.
    pub fn to_writer(out: W, mode: &str, engine: &str) -> Self {
        let mut doc = ReportDoc {
            out,
            indent: 0,
            fields: Fields {
                indent: STEP,
                any: false,
            },
            pending: Map::new(),
            exhausted: Vec::new(),
            begun: None,
            rows: 0,
            held: Vec::new(),
            error: None,
        };
        doc.set("tool", Value::from("shapex"));
        doc.set("mode", Value::from(mode));
        doc.set("engine", Value::from(engine));
        doc
    }

    /// A full typing's before/after section of a `--delta` document.
    fn section(out: W) -> Self {
        let mut doc = ReportDoc::to_writer(out, "typing", "derivative");
        doc.indent = STEP;
        doc.fields.indent = 2 * STEP;
        doc
    }

    /// Sets a top-level key. A key that sorts before `results` must be set
    /// before the head is written.
    pub fn set(&mut self, key: &str, value: Value) {
        debug_assert!(
            self.begun.is_none() || key > "results",
            "`{key}` is set after the head was written"
        );
        self.pending.insert(key.to_string(), value);
    }

    /// Sets the [`engine_blocks`].
    fn set_engine_blocks(&mut self, engine: &Engine, skipped: usize) {
        for (key, value) in engine_blocks(engine, skipped) {
            self.set(&key, value);
        }
    }

    /// Appends one row to the document-level `exhausted` array, before the
    /// head is written.
    pub fn push_exhausted(&mut self, node: &str, shape: &str, e: &Exhaustion) {
        debug_assert!(self.begun.is_none(), "exhausted row after the head");
        let mut m = Map::new();
        m.insert("node".to_string(), Value::from(node));
        m.insert("shape".to_string(), Value::from(shape));
        m.insert("exhaustion".to_string(), e.to_json());
        self.exhausted.push(Value::Object(m));
    }

    fn emit(&mut self, bytes: &[u8]) {
        emit(&mut self.out, &mut self.error, bytes);
    }

    /// Writes the pending blocks whose keys sort before `key` (all of them
    /// for `None`), then `key`'s own prefix.
    fn write_through(&mut self, key: Option<&str>) {
        let mut text = Vec::new();
        while let Some(entry) = self.pending.first_entry() {
            if key.is_some_and(|k| entry.key().as_str() >= k) {
                break;
            }
            let (k, v) = entry.remove_entry();
            self.fields.key(&mut text, &k);
            push_value(&mut text, &v, self.fields.indent);
        }
        if let Some(k) = key {
            self.fields.key(&mut text, k);
        }
        self.emit(&text);
    }

    /// Writes `key` with a value that `write` renders straight to the
    /// output: a nested document too large to hold as a [`Value`].
    fn nested(&mut self, key: &str, write: impl FnOnce(&mut W) -> io::Result<()>) {
        self.write_through(Some(key));
        if self.error.is_none() {
            if let Err(e) = write(&mut self.out) {
                self.error = Some(e);
            }
        }
    }

    /// Writes the head — `conforms`, `exhausted` and every block that sorts
    /// before `results` — and opens `results`. Rows already pushed follow
    /// it; later rows go straight to the output.
    fn begin(&mut self, conforms: Option<bool>) {
        debug_assert!(self.begun.is_none(), "the head is written once");
        self.set("conforms", conforms.map_or(Value::Null, Value::from));
        let exhausted = std::mem::take(&mut self.exhausted);
        self.set("exhausted", Value::Array(exhausted));
        self.begun = Some(conforms);
        self.write_through(Some("results"));
        self.emit(b"[");
        self.flush_rows();
    }

    fn flush_rows(&mut self) {
        emit(&mut self.out, &mut self.error, &self.held);
        self.held.clear();
    }

    /// Appends one verdict row.
    pub fn push_row(&mut self, row: &Row<'_>) {
        if self.error.is_some() {
            return;
        }
        let out = &mut self.held;
        if self.rows > 0 {
            out.push(b',');
        }
        out.push(b'\n');
        pad(out, self.fields.indent + STEP);
        let mut fields = Fields {
            indent: self.fields.indent + 2 * STEP,
            any: false,
        };
        if let Some(b) = row.as_expected {
            fields.key(out, "as_expected");
            push_bool(out, b);
        }
        if let Some(e) = row.exhaustion {
            fields.key(out, "exhaustion");
            push_value(out, &e.to_json(), fields.indent);
        }
        if let Some(b) = row.expected {
            fields.key(out, "expected");
            push_bool(out, b);
        }
        if let Some(f) = row.failure {
            fields.key(out, "failure");
            push_quoted(out, f);
        }
        if let Some(node) = row.node {
            fields.key(out, "node");
            out.extend_from_slice(&node.0);
        }
        fields.key(out, "shape");
        out.extend_from_slice(&row.shape.0);
        fields.key(out, "verdict");
        push_str(out, row.verdict);
        fields.close(out, self.fields.indent + STEP);
        self.rows += 1;
        if self.begun.is_some() {
            self.flush_rows();
        }
    }

    /// Seals the document and returns the writer, or the first write
    /// error. After [`ReportDoc::begin`], `conforms` must be the value
    /// given there.
    fn close(mut self, conforms: Option<bool>) -> io::Result<W> {
        match self.begun {
            None => self.begin(conforms),
            Some(written) => debug_assert_eq!(written, conforms, "conforms changed"),
        }
        let mut text = Vec::new();
        if self.rows > 0 {
            text.push(b'\n');
            pad(&mut text, self.fields.indent);
        }
        text.push(b']');
        self.emit(&text);
        self.write_through(None);
        let mut text = Vec::new();
        self.fields.close(&mut text, self.indent);
        if self.indent == 0 {
            text.push(b'\n');
        }
        self.emit(&text);
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}

/// Writes `bytes` unless an earlier write failed; keeps the first error.
fn emit(out: &mut impl Write, error: &mut Option<io::Error>, bytes: &[u8]) {
    if error.is_none() {
        if let Err(e) = out.write_all(bytes) {
            *error = Some(e);
        }
    }
}

/// The pairs a typing left unanswered, by `(node, shape)`.
type ExhaustedPairs = HashMap<(TermId, ShapeId), Exhaustion>;

/// Queues the `exhausted` entries of a full typing, in row order, and
/// returns its unanswered pairs for [`write_typing_rows`].
fn push_typing_exhausted<W: Write>(
    doc: &mut ReportDoc<W>,
    engine: &Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
) -> ExhaustedPairs {
    let exhausted: ExhaustedPairs = typing
        .exhausted
        .iter()
        .map(|&(n, s, e)| ((n, s), e))
        .collect();
    if exhausted.is_empty() {
        return exhausted;
    }
    for node in graph.subjects() {
        for i in 0..engine.schema().shapes.len() {
            let shape = ShapeId(i as u32);
            if let Some(e) = exhausted.get(&(node, shape)) {
                if !typing.has(node, shape) {
                    let name = pool.term(node).to_string();
                    doc.push_exhausted(&name, engine.label_of(shape).as_str(), e);
                }
            }
        }
    }
    exhausted
}

/// Writes the per-`(node, shape)` rows of a full typing: `conforms` rows
/// straight from the typing, `exhausted` rows for unanswered pairs, and
/// `fails` rows with their [`Engine::explain`] failure, explained just
/// before the row is written. Each subject's name is escaped once, each
/// shape label once per document.
fn write_typing_rows<W: Write>(
    doc: &mut ReportDoc<W>,
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
    exhausted: &ExhaustedPairs,
) {
    let labels: Vec<Quoted> = (0..engine.schema().shapes.len())
        .map(|i| Quoted::new(engine.label_of(ShapeId(i as u32)).as_str()))
        .collect();
    let mut name = Quoted::default();
    for node in graph.subjects() {
        if doc.error.is_some() {
            return;
        }
        name.replace(pool.term(node));
        let mut typed = typing.shapes_of(node).peekable();
        for (i, label) in labels.iter().enumerate() {
            let shape = ShapeId(i as u32);
            let row = Row {
                node: Some(&name),
                ..Row::new(label, "conforms")
            };
            if typed.next_if_eq(&shape).is_some() {
                doc.push_row(&row);
            } else if let Some(e) = exhausted.get(&(node, shape)) {
                doc.push_row(&Row {
                    exhaustion: Some(e),
                    verdict: "exhausted",
                    ..row
                });
            } else {
                let failure = engine.explain(graph, pool, node, shape);
                let text = failure.as_ref().map(|f| f.display(pool));
                doc.push_row(&Row {
                    failure: text.as_ref().map(|t| t as &dyn fmt::Display),
                    verdict: "fails",
                    ..row
                });
            }
        }
    }
}

/// Fills a report document with the rows of a full typing and its
/// `exhausted` entries (see [`typing_report`]), on a document whose head
/// is still open: the rows wait in memory until the document is sealed.
pub fn push_typing_rows<W: Write>(
    doc: &mut ReportDoc<W>,
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
) {
    let exhausted = push_typing_exhausted(doc, engine, graph, pool, typing);
    write_typing_rows(doc, engine, graph, pool, typing, &exhausted);
}

/// Seals an in-memory derivative-engine report document: attaches the run
/// stats, the metrics block, and the lenient skip count, then serializes
/// it.
pub fn finish_engine_doc(
    mut doc: ReportDoc,
    engine: &Engine,
    skipped: usize,
    conforms: Option<bool>,
) -> String {
    doc.set_engine_blocks(engine, skipped);
    doc.finish(conforms)
}

/// Writes a full-typing report into `doc` (a fresh `typing` document, or
/// a mode's own document that carries extra blocks, such as `check
/// --schema-delta`): head and engine blocks first, then each row as it is
/// produced.
pub fn typing_report<W: Write>(
    mut doc: ReportDoc<W>,
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
    skipped: usize,
) -> io::Result<RunStatus> {
    let status = RunStatus::of_typing(typing);
    let exhausted = push_typing_exhausted(&mut doc, engine, graph, pool, typing);
    doc.set_engine_blocks(engine, skipped);
    doc.begin(status.conforms());
    write_typing_rows(&mut doc, engine, graph, pool, typing, &exhausted);
    doc.close(status.conforms())?;
    Ok(status)
}

/// Writes the report of a shape-map run to `out`: one row per association,
/// carrying its expectation and whether the verdict met it.
pub fn map_report<W: Write>(
    out: W,
    engine: &Engine,
    pool: &TermPool,
    map: &ShapeMap,
    outcomes: &[MapOutcome],
    skipped: usize,
) -> io::Result<RunStatus> {
    let status = RunStatus::of_map(outcomes);
    let mut doc = ReportDoc::to_writer(out, "map", "derivative");
    for outcome in outcomes {
        if let Some(e) = &outcome.exhaustion {
            let assoc = &map.associations[outcome.index];
            doc.push_exhausted(&assoc.node.to_string(), assoc.shape.as_str(), e);
        }
    }
    doc.set_engine_blocks(engine, skipped);
    doc.begin(status.conforms());
    let (mut node, mut shape) = (Quoted::default(), Quoted::default());
    for outcome in outcomes {
        let assoc = &map.associations[outcome.index];
        node.replace(&assoc.node);
        shape.replace(assoc.shape.as_str());
        let verdict = if outcome.exhaustion.is_some() {
            "exhausted"
        } else if outcome.conforms {
            "conforms"
        } else {
            "fails"
        };
        let failure = outcome.failure.as_ref().map(|f| f.display(pool));
        doc.push_row(&Row {
            as_expected: Some(outcome.as_expected),
            exhaustion: outcome.exhaustion.as_ref(),
            expected: Some(assoc.expected),
            failure: failure.as_ref().map(|t| t as &dyn fmt::Display),
            node: Some(&node),
            ..Row::new(&shape, verdict)
        });
    }
    doc.close(status.conforms())?;
    Ok(status)
}

/// Why a [`delta_report`] run stopped without a complete report.
#[derive(Debug)]
pub enum DeltaRunError {
    /// Applying the delta failed; the graph was rolled back to its
    /// pre-delta state. Nothing was written.
    Apply(DeltaApplyError),
    /// Revalidation refused the delta (the graph is already mutated).
    /// Nothing was written.
    Revalidate(EngineError),
    /// Writing the report failed (the graph is already mutated).
    Write(io::Error),
}

/// Writes a before/after half of a delta report: typing rows and
/// `conforms`, without the engine blocks (the enclosing document carries
/// those).
fn typing_section<W: Write>(
    out: W,
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
) -> io::Result<W> {
    let mut doc = ReportDoc::section(out);
    let conforms = RunStatus::of_typing(typing).conforms();
    let exhausted = push_typing_exhausted(&mut doc, engine, graph, pool, typing);
    doc.begin(conforms);
    write_typing_rows(&mut doc, engine, graph, pool, typing, &exhausted);
    doc.close(conforms)
}

/// The delta mode: types the graph, applies `delta` all-or-nothing,
/// revalidates only the disturbed pairs, and writes both typings plus a
/// `delta` block counting the applied triples and the invalidated,
/// retyped and reused pairs to `out`. The status is the *after* run's.
/// `file` names the delta's source in the `delta` block when it came from
/// one.
pub fn delta_report<W: Write>(
    out: W,
    engine: &mut Engine,
    ds: &mut Dataset,
    delta: &GraphDelta,
    jobs: usize,
    file: Option<&str>,
    skipped: usize,
) -> Result<RunStatus, DeltaRunError> {
    // Before: a full typing of the unmutated graph (memo-served on a warm
    // engine), which also records the dependency index the plan reads.
    // Its rows are explained against that graph, so the section is
    // rendered now; it is written after `after`, which sorts first.
    let before_typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    let before = typing_section(Vec::new(), engine, &ds.graph, &ds.pool, &before_typing)
        .expect("in-memory writes do not fail");

    ds.try_apply_delta(delta).map_err(DeltaRunError::Apply)?;
    let after_typing = engine
        .revalidate_par(&ds.graph, &ds.pool, delta, jobs)
        .map_err(DeltaRunError::Revalidate)?;

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
    let status = RunStatus::of_typing(&after_typing);
    let mut doc = ReportDoc::to_writer(out, "delta", "derivative");
    doc.set("delta", block);
    doc.set_engine_blocks(engine, skipped);
    doc.nested("after", |out| {
        typing_section(out, engine, &ds.graph, &ds.pool, &after_typing).map(drop)
    });
    doc.nested("before", |out| out.write_all(&before));
    doc.close(status.conforms()).map_err(DeltaRunError::Write)?;
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Resource;

    fn outcome(as_expected: bool, exhaustion: Option<Exhaustion>) -> MapOutcome {
        MapOutcome {
            index: 0,
            conforms: as_expected,
            as_expected,
            failure: None,
            exhaustion,
        }
    }

    /// The one status → (exit code, `conforms`) table every front end
    /// reports, and 3-over-2 precedence in a shape-map run.
    #[test]
    fn run_status_codes_and_map_precedence() {
        let e = Exhaustion {
            resource: Resource::Steps,
            spent: 10,
            limit: 10,
        };
        let table = [
            (RunStatus::Conforms, 0, Some(true)),
            (RunStatus::NonConforming, 2, Some(false)),
            (RunStatus::Exhausted(e), 3, None),
        ];
        for (status, code, conforms) in table {
            assert_eq!((status.exit_code(), status.conforms()), (code, conforms));
        }
        assert_eq!(RunStatus::of_map(&[]), RunStatus::Conforms);
        let unexpected = outcome(false, None);
        assert_eq!(
            RunStatus::of_map(&[outcome(true, None), unexpected.clone()]),
            RunStatus::NonConforming
        );
        let exhausted = outcome(false, Some(e));
        assert_eq!(
            RunStatus::of_map(&[unexpected, exhausted]),
            RunStatus::Exhausted(e)
        );
    }

    /// Every character `serde_json` escapes, and runs around them, escape
    /// to the same text.
    #[test]
    fn escaping_matches_serde_json() {
        let mut all: String = (0u8..0x80).map(char::from).collect();
        all.push_str("é日本𝄞 \u{7f}\u{80}\u{2028}");
        for s in [all.as_str(), "", "plain", "\"\\", "a\u{1}b\u{1f}c"] {
            let mut mine = Vec::new();
            push_quoted(&mut mine, s);
            let theirs = serde_json::to_string(&Value::from(s)).unwrap();
            assert_eq!(String::from_utf8(mine).unwrap(), theirs);
        }
    }

    /// Blocks written at an indent equal the tree's rendering, and keys
    /// come out in sorted order whatever order they were set in.
    #[test]
    fn blocks_render_as_in_a_tree() {
        let block = json!({"b": [1, {"c": null}], "a": {}, "d": [], "e": "x\ny"});
        let mut doc = ReportDoc::new("m", "e");
        doc.set("zeta", block.clone());
        doc.set("alpha", block.clone());
        let text = doc.finish(Some(false));
        let mut tree = Map::new();
        for (k, v) in [
            ("tool", Value::from("shapex")),
            ("mode", Value::from("m")),
            ("engine", Value::from("e")),
            ("zeta", block.clone()),
            ("alpha", block),
            ("conforms", Value::from(false)),
            ("results", Value::Array(Vec::new())),
            ("exhausted", Value::Array(Vec::new())),
        ] {
            tree.insert(k.to_string(), v);
        }
        assert_eq!(text, render(&Value::Object(tree)));
    }

    /// A closed writer's error comes back from `close`, and rows pushed
    /// after it are dropped without formatting.
    #[test]
    fn write_errors_are_returned() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut doc = ReportDoc::to_writer(Closed, "typing", "derivative");
        doc.begin(Some(true));
        let shape = Quoted::new("S");
        doc.push_row(&Row::new(&shape, "conforms"));
        assert!(doc.held.is_empty());
        let err = doc.close(Some(true)).err().expect("a write error");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
