//! JSON report documents for validation runs.
//!
//! The document schema is documented in `DESIGN.md` (§ Observability) and
//! held stable by the CLI tests and the CI smoke step. It lives in the
//! core crate — not the CLI — because byte-identical reports are the
//! contract between every front end. Each engine-backed mode is built
//! here once, document and exit code together: [`typing_report`],
//! [`map_report`] and [`delta_report`] return a [`RunReport`] whose
//! [`RunStatus`] gives both the document's `conforms` value and the 0/2/3
//! exit code. `shapex validate --report json` and the resident server call
//! the same functions and only carry the status on their own channel (a
//! process exit code, an `X-Shapex-Exit` header).
//!
//! Stats, metrics, and exhaustion blocks come from the engine types' own
//! `to_json` methods; this module assembles the document around them.
//! `stats` and `metrics` are per-run work counters: they count the typing
//! runs only, not the [`Engine::explain`] calls that fill failing rows,
//! and may differ with `--jobs`. The rows of an unbudgeted run do not.

use serde_json::{json, Map, Value};

use shapex_rdf::delta::{DeltaApplyError, GraphDelta};
use shapex_rdf::graph::{Dataset, Graph};
use shapex_rdf::pool::TermPool;
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
    /// The serialized document ([`render`] output).
    pub body: String,
    /// The run's status; its exit code is what a front end returns.
    pub status: RunStatus,
}

/// Serializes a report document: pretty-printed, trailing newline.
pub fn render(v: &Value) -> String {
    let mut s = serde_json::to_string_pretty(v).expect("report values contain no NaN");
    s.push('\n');
    s
}

/// One `(node, shape)` verdict row.
pub fn result_json(
    node: &str,
    shape: &str,
    verdict: &str,
    failure: Option<String>,
    exhaustion: Option<&Exhaustion>,
) -> Value {
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
    Value::Object(m)
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

/// The top-level document skeleton shared by every `validate` mode.
pub struct ReportDoc {
    root: Map<String, Value>,
    results: Vec<Value>,
    exhausted: Vec<Value>,
}

impl ReportDoc {
    /// A fresh skeleton for the given mode/engine pair.
    pub fn new(mode: &str, engine: &str) -> Self {
        let mut root = Map::new();
        root.insert("tool".to_string(), Value::from("shapex"));
        root.insert("mode".to_string(), Value::from(mode));
        root.insert("engine".to_string(), Value::from(engine));
        ReportDoc {
            root,
            results: Vec::new(),
            exhausted: Vec::new(),
        }
    }

    /// Sets a top-level key.
    pub fn set(&mut self, key: &str, value: Value) {
        self.root.insert(key.to_string(), value);
    }

    /// Appends one verdict row (see [`result_json`]).
    pub fn push_result(&mut self, row: Value) {
        self.results.push(row);
    }

    /// Appends one row to the document-level `exhausted` array.
    pub fn push_exhausted(&mut self, node: &str, shape: &str, e: &Exhaustion) {
        let mut m = Map::new();
        m.insert("node".to_string(), Value::from(node));
        m.insert("shape".to_string(), Value::from(shape));
        m.insert("exhaustion".to_string(), e.to_json());
        self.exhausted.push(Value::Object(m));
    }

    /// Seals the document. `conforms` is the run's overall verdict; it is
    /// `null` when any check exhausted (the honest answer is "unknown").
    pub fn finish(mut self, conforms: Option<bool>) -> Value {
        self.root.insert(
            "conforms".to_string(),
            conforms.map_or(Value::Null, Value::from),
        );
        self.root
            .insert("results".to_string(), Value::Array(self.results));
        self.root
            .insert("exhausted".to_string(), Value::Array(self.exhausted));
        Value::Object(self.root)
    }
}

/// Fills a report document with the per-`(node, shape)` rows of a full
/// typing: `conforms` rows straight from the typing, `exhausted` rows (plus
/// the document's exhaustion block) for unanswered pairs, and `fails` rows
/// with their [`Engine::explain`] failure for everything else. Shared by
/// the plain full-typing report, both halves of the `--delta` before/after
/// report, and the server's `/validate` endpoint.
pub fn push_typing_rows(
    doc: &mut ReportDoc,
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
) {
    let exhausted: std::collections::HashMap<_, _> = typing
        .exhausted
        .iter()
        .map(|&(n, s, e)| ((n, s), e))
        .collect();
    for node in graph.subjects().collect::<Vec<_>>() {
        for i in 0..engine.schema().shapes.len() {
            let shape = ShapeId(i as u32);
            let node_name = pool.term(node).to_string();
            let shape_name = engine.label_of(shape).as_str().to_string();
            if typing.has(node, shape) {
                doc.push_result(result_json(&node_name, &shape_name, "conforms", None, None));
            } else if let Some(e) = exhausted.get(&(node, shape)) {
                doc.push_result(result_json(
                    &node_name,
                    &shape_name,
                    "exhausted",
                    None,
                    Some(e),
                ));
                doc.push_exhausted(&node_name, &shape_name, e);
            } else {
                let failure = engine
                    .explain(graph, pool, node, shape)
                    .map(|f| f.render(pool));
                doc.push_result(result_json(&node_name, &shape_name, "fails", failure, None));
            }
        }
    }
}

/// Seals a derivative-engine report document: attaches the run stats, the
/// metrics block, and the lenient skip count, then serializes it.
pub fn finish_engine_doc(
    mut doc: ReportDoc,
    engine: &Engine,
    skipped: usize,
    conforms: Option<bool>,
) -> String {
    doc.root.extend(engine_blocks(engine, skipped));
    render(&doc.finish(conforms))
}

/// Seals a full-typing report: the typing's rows go into `doc` (a fresh
/// `typing` skeleton, or a mode's own document that carries extra blocks,
/// such as `check --schema-delta`), then the engine blocks are attached.
pub fn typing_report(
    mut doc: ReportDoc,
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
    skipped: usize,
) -> RunReport {
    push_typing_rows(&mut doc, engine, graph, pool, typing);
    let status = RunStatus::of_typing(typing);
    RunReport {
        body: finish_engine_doc(doc, engine, skipped, status.conforms()),
        status,
    }
}

/// The report of a shape-map run: one row per association, carrying its
/// expectation and whether the verdict met it.
pub fn map_report(
    engine: &Engine,
    pool: &TermPool,
    map: &ShapeMap,
    outcomes: &[MapOutcome],
    skipped: usize,
) -> RunReport {
    let mut doc = ReportDoc::new("map", "derivative");
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
        if let Value::Object(m) = &mut row {
            m.insert("expected".to_string(), Value::from(assoc.expected));
            m.insert("as_expected".to_string(), Value::from(outcome.as_expected));
        }
        doc.push_result(row);
        if let Some(e) = &outcome.exhaustion {
            doc.push_exhausted(&node, assoc.shape.as_str(), e);
        }
    }
    let status = RunStatus::of_map(outcomes);
    RunReport {
        body: finish_engine_doc(doc, engine, skipped, status.conforms()),
        status,
    }
}

/// Why a [`delta_report`] run stopped without a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaRunError {
    /// Applying the delta failed; the graph was rolled back to its
    /// pre-delta state.
    Apply(DeltaApplyError),
    /// Revalidation refused the delta (the graph is already mutated).
    Revalidate(EngineError),
}

/// A before/after half of a delta report: typing rows and `conforms`,
/// without the engine blocks (the enclosing document carries those).
fn typing_section(engine: &mut Engine, graph: &Graph, pool: &TermPool, typing: &Typing) -> Value {
    let mut doc = ReportDoc::new("typing", "derivative");
    push_typing_rows(&mut doc, engine, graph, pool, typing);
    doc.finish(RunStatus::of_typing(typing).conforms())
}

/// The delta mode: types the graph, applies `delta` all-or-nothing,
/// revalidates only the disturbed pairs, and reports both typings plus a
/// `delta` block counting the applied triples and the invalidated,
/// retyped and reused pairs. The status is the *after* run's. `file`
/// names the delta's source in the `delta` block when it came from one.
pub fn delta_report(
    engine: &mut Engine,
    ds: &mut Dataset,
    delta: &GraphDelta,
    jobs: usize,
    file: Option<&str>,
    skipped: usize,
) -> Result<RunReport, DeltaRunError> {
    // Before: a full typing of the unmutated graph (memo-served on a warm
    // engine), which also records the dependency index the plan reads.
    let before_typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    let before = typing_section(engine, &ds.graph, &ds.pool, &before_typing);

    ds.try_apply_delta(delta).map_err(DeltaRunError::Apply)?;
    let after_typing = engine
        .revalidate_par(&ds.graph, &ds.pool, delta, jobs)
        .map_err(DeltaRunError::Revalidate)?;
    let after = typing_section(engine, &ds.graph, &ds.pool, &after_typing);

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
    let mut doc = ReportDoc::new("delta", "derivative");
    doc.set("delta", block);
    doc.set("before", before);
    doc.set("after", after);
    let status = RunStatus::of_typing(&after_typing);
    Ok(RunReport {
        body: finish_engine_doc(doc, engine, skipped, status.conforms()),
        status,
    })
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
}
