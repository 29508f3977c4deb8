//! Correctness gates: compare the verdicts in a report body with
//! reference verdicts.
//!
//! Report documents are pretty-printed with one key per line and sorted
//! keys, so the verdict rows can be read with a line scan instead of a full
//! JSON parse; the scan keeps the client's own work per request small next
//! to the request it checks. Only `results` rows are compared, never the
//! `stats`/`metrics` blocks, which carry per-run counters.

use crate::inputs::PERSON_PREFIX;

/// Which typing document of a report a row belongs to: `/delta` bodies
/// carry a `before` and an `after` document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    Top,
    Before,
    After,
}

/// One verdict row.
pub struct Row<'a> {
    pub section: Section,
    pub node: &'a str,
    pub shape: &'a str,
    pub verdict: &'a str,
}

/// The value of a `"key": "value"` line, without quotes or trailing comma.
fn string_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(key)?.strip_prefix('"')?;
    Some(&rest[..rest.rfind('"')?])
}

/// Every verdict row of a report body, in document order.
pub fn rows(body: &str) -> Vec<Row<'_>> {
    let mut section = Section::Top;
    let (mut node, mut shape) = ("", "");
    let mut out = Vec::new();
    for line in body.lines() {
        match line {
            "  \"after\": {" => section = Section::After,
            "  \"before\": {" => section = Section::Before,
            _ => {}
        }
        let t = line.trim_start();
        if let Some(v) = string_value(t, "\"node\": ") {
            node = v;
        } else if let Some(v) = string_value(t, "\"shape\": ") {
            shape = v;
        } else if let Some(verdict) = string_value(t, "\"verdict\": ") {
            out.push(Row {
                section,
                node,
                shape,
                verdict,
            });
        }
    }
    out
}

/// Index `i` of a node `<PREFIX i>`.
fn node_index(node: &str, prefix: &str) -> Result<usize, String> {
    node.strip_prefix('<')
        .and_then(|n| n.strip_suffix('>'))
        .and_then(|n| n.strip_prefix(prefix))
        .and_then(|i| i.parse().ok())
        .ok_or_else(|| format!("unexpected node {node}"))
}

fn verdict_word(conforms: bool) -> &'static str {
    if conforms {
        "conforms"
    } else {
        "fails"
    }
}

/// Checks one full-typing document: exactly one row per node `<PREFIX i>`
/// and shape, each with the reference verdict. `shapes` pairs a shape
/// label with its per-node reference verdicts.
pub fn check_typing(
    body: &str,
    section: Section,
    prefix: &str,
    shapes: &[(&str, &[bool])],
) -> Result<(), String> {
    let mut seen: Vec<Vec<bool>> = shapes.iter().map(|(_, v)| vec![false; v.len()]).collect();
    for row in rows(body).into_iter().filter(|r| r.section == section) {
        let Some(s) = shapes.iter().position(|(label, _)| *label == row.shape) else {
            return Err(format!("unexpected shape {} in {section:?}", row.shape));
        };
        let i = node_index(row.node, prefix)?;
        let want = *shapes[s]
            .1
            .get(i)
            .ok_or_else(|| format!("node {} out of range", row.node))?;
        if row.verdict != verdict_word(want) {
            return Err(format!(
                "{} @{} in {section:?}: got {}, expected {}",
                row.node,
                row.shape,
                row.verdict,
                verdict_word(want)
            ));
        }
        if std::mem::replace(&mut seen[s][i], true) {
            return Err(format!("duplicate row {} @{}", row.node, row.shape));
        }
    }
    for (s, seen) in seen.iter().enumerate() {
        if let Some(i) = seen.iter().position(|&x| !x) {
            return Err(format!(
                "no row for <{prefix}{i}> @{} in {section:?}",
                shapes[s].0
            ));
        }
    }
    Ok(())
}

/// Checks a `/map` report: one row per association, in order, each with
/// the reference verdict.
pub fn check_map(body: &str, nodes: &[usize], verdicts: &[bool]) -> Result<(), String> {
    let rows = rows(body);
    if rows.len() != nodes.len() {
        return Err(format!(
            "{} map rows for {} associations",
            rows.len(),
            nodes.len()
        ));
    }
    for (row, &i) in rows.iter().zip(nodes) {
        if node_index(row.node, PERSON_PREFIX)? != i || row.verdict != verdict_word(verdicts[i]) {
            return Err(format!(
                "map row {} got {}, expected person{i} {}",
                row.node,
                row.verdict,
                verdict_word(verdicts[i])
            ));
        }
    }
    Ok(())
}

/// Checks a SHACL validation report: every targeted record is counted and
/// the focus nodes with violations are exactly the non-conforming ones.
pub fn check_shacl(body: &str, expected: &[bool]) -> Result<(), String> {
    let mut violating = vec![false; expected.len()];
    let mut targets = None;
    for line in body.lines() {
        let t = line.trim_start();
        if let Some(v) = string_value(t, "\"sh:focusNode\": ") {
            let i = node_index(v, PERSON_PREFIX)?;
            *violating
                .get_mut(i)
                .ok_or_else(|| format!("focus {v} out of range"))? = true;
        } else if let Some(n) = t.strip_prefix("\"targets\": ") {
            targets = n.trim_end_matches(',').parse::<usize>().ok();
        }
    }
    if targets != Some(expected.len()) {
        return Err(format!("targets {targets:?}, expected {}", expected.len()));
    }
    match (0..expected.len()).find(|&i| violating[i] == expected[i]) {
        Some(i) => Err(format!(
            "SHACL focus person{i}: violation reported = {}, expected conforming = {}",
            violating[i], expected[i]
        )),
        None => Ok(()),
    }
}

/// The lines of a report that carry verdicts: every `results` and
/// `sh:result` array, and the SHACL report's top-level `targets` count,
/// trimmed. Without
/// `failure_text`, a failure trace keeps only its presence, not its text.
fn verdict_lines(body: &str, failure_text: bool) -> Vec<&str> {
    let mut out = Vec::new();
    let mut close: Option<String> = None;
    for line in body.lines() {
        let t = line.trim_start();
        if let Some(end) = &close {
            if line.starts_with(end.as_str()) {
                close = None;
            }
            out.push(if !failure_text && t.starts_with("\"failure\": ") {
                "\"failure\""
            } else {
                t
            });
        } else if t.starts_with("\"results\": [") || t.starts_with("\"sh:result\": [") {
            out.push(t);
            if t.ends_with('[') {
                close = Some(format!("{}]", &line[..line.len() - t.len()]));
            }
        } else if line.starts_with("  \"targets\": ") {
            out.push(t);
        }
    }
    out
}

/// Checks that two report bodies carry the same verdict rows, leaving out
/// the `stats`/`metrics` blocks.
pub fn same_rows(a: &str, b: &str, failure_text: bool) -> Result<(), String> {
    let (a, b) = (
        verdict_lines(a, failure_text),
        verdict_lines(b, failure_text),
    );
    if a.is_empty() {
        return Err("no verdict rows".to_string());
    }
    match a.iter().zip(&b).position(|(x, y)| x != y) {
        Some(i) => Err(format!("rows differ: {} vs {}", a[i], b[i])),
        None if a.len() != b.len() => Err(format!("{} vs {} row lines", a.len(), b.len())),
        None => Ok(()),
    }
}
