//! Rendering a [`ShaclOutcome`] as a W3C-style `sh:ValidationReport`.
//!
//! The JSON document is built with the same helpers (and so the same
//! formatting and key ordering) as the engine's native reports, which is
//! what lets the CLI and the server emit byte-identical documents for the
//! same inputs. `sh:`-prefixed keys carry the report vocabulary of the
//! SHACL recommendation; unprefixed keys (`stats`, `targets`, `conforms`)
//! are this tool's operational envelope, shared with `--report json`.

use serde_json::{Map, Value};

use shapex::report::{engine_blocks, render, RunReport};
use shapex::Engine;

use crate::validate::{ShaclOutcome, ValidationResult};

/// Renders the full report document. Deterministic for a fixed input,
/// engine configuration, and job count (the `stats` block counts engine
/// work, which is scheduling-independent only for `--jobs 1`).
pub fn shacl_report(outcome: &ShaclOutcome, engine: &Engine) -> String {
    shacl_run_report(outcome, engine, 0).body
}

/// [`shacl_report`] with the run's status, and the count of malformed
/// data statements a lenient parse skipped (a `lenient_skipped` key when
/// non-zero, as in every `--report json` document).
pub fn shacl_run_report(outcome: &ShaclOutcome, engine: &Engine, skipped: usize) -> RunReport {
    let status = outcome.status();
    let mut doc = Map::new();
    doc.insert("tool".into(), Value::from("shapex"));
    doc.insert("mode".into(), Value::from("shacl"));
    doc.insert("engine".into(), Value::from("derivative"));
    doc.insert("@type".into(), Value::from("sh:ValidationReport"));
    let conforms = status.conforms().map_or(Value::Null, Value::from);
    doc.insert("sh:conforms".into(), conforms.clone());
    doc.insert("conforms".into(), conforms);
    doc.insert("targets".into(), Value::from(outcome.targets));
    doc.insert(
        "sh:result".into(),
        Value::Array(outcome.results.iter().map(result_row).collect()),
    );
    if !outcome.exhausted.is_empty() {
        doc.insert(
            "exhausted".into(),
            Value::Array(
                outcome
                    .exhausted
                    .iter()
                    .map(|e| {
                        let mut row = Map::new();
                        row.insert("focus".into(), Value::from(e.focus.clone()));
                        row.insert("shape".into(), Value::from(e.shape.clone()));
                        row.insert("exhaustion".into(), e.exhaustion.to_json());
                        Value::Object(row)
                    })
                    .collect(),
            ),
        );
    }
    doc.extend(engine_blocks(engine, skipped));
    RunReport {
        body: render(&Value::Object(doc)),
        status,
    }
}

fn result_row(r: &ValidationResult) -> Value {
    let mut row = Map::new();
    row.insert("@type".into(), Value::from("sh:ValidationResult"));
    row.insert("sh:focusNode".into(), Value::from(r.focus.clone()));
    row.insert("sh:sourceShape".into(), Value::from(r.source_shape.clone()));
    row.insert(
        "sh:sourceConstraintComponent".into(),
        Value::from(r.component),
    );
    row.insert("sh:resultSeverity".into(), Value::from(r.severity.clone()));
    if let Some(p) = &r.path {
        row.insert("sh:resultPath".into(), Value::from(p.clone()));
    }
    if let Some(v) = &r.value {
        row.insert("sh:value".into(), Value::from(v.clone()));
    }
    if let Some(m) = &r.message {
        row.insert("sh:resultMessage".into(), Value::from(m.clone()));
    }
    Value::Object(row)
}

/// Plain-text rendering for terminal use (the CLI's output without
/// `--report json`): one line per violation, a summary line at the end.
pub fn render_text(outcome: &ShaclOutcome) -> String {
    let mut out = String::new();
    for r in &outcome.results {
        out.push_str(&format!(
            "✗ {} {} {}{}{}\n",
            r.focus,
            r.source_shape,
            r.component,
            r.path
                .as_deref()
                .map(|p| format!(" path {p}"))
                .unwrap_or_default(),
            r.value
                .as_deref()
                .map(|v| format!(" value {v}"))
                .unwrap_or_default(),
        ));
    }
    for e in &outcome.exhausted {
        out.push_str(&format!(
            "? {} {} exhausted: {} {}/{}\n",
            e.focus, e.shape, e.exhaustion.resource, e.exhaustion.spent, e.exhaustion.limit
        ));
    }
    match outcome.conforms() {
        Some(true) => out.push_str(&format!("conforms ({} targets)\n", outcome.targets)),
        Some(false) => out.push_str(&format!(
            "does not conform: {} violations over {} targets\n",
            outcome.results.len(),
            outcome.targets
        )),
        None => out.push_str(&format!(
            "undetermined: {} checks exhausted over {} targets\n",
            outcome.exhausted.len(),
            outcome.targets
        )),
    }
    out
}
