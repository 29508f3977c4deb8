//! Graph deltas: batches of triple removals and additions.
//!
//! A [`GraphDelta`] describes a mutation of a [`Graph`](crate::graph::Graph)
//! as two sets of triples over pool-stable
//! [`TermId`](crate::pool::TermId)s: triples to remove
//! and triples to add. Applying a delta (see
//! [`Graph::apply_delta`](crate::graph::Graph::apply_delta)) performs the
//! removals first, then the additions, and returns an [`AppliedDelta`]
//! recording exactly which operations took effect — and *where* each
//! removed arc sat in its adjacency lists — so that
//! [`Graph::revert_delta`](crate::graph::Graph::revert_delta) can restore
//! the graph to a structurally identical state (same neighbourhood order,
//! same subject iteration order). That structural round-trip is what lets
//! the incremental-revalidation tests demand byte-identical reports after
//! `apply(δ); revert(δ)`.
//!
//! ## Delta file format
//!
//! [`parse`] reads a line-oriented text format built on Turtle:
//!
//! ```text
//! @prefix foaf: <http://xmlns.com/foaf/0.1/> .
//! @prefix : <http://example.org/> .
//! - :mary foaf:age 65 .
//! + :mary foaf:name "Mary" .
//! ```
//!
//! `@prefix` lines accumulate and scope over all subsequent operation
//! lines; they hold directives only. Each remaining non-empty,
//! non-comment line must start with `+` (add) or `-` (remove) followed by
//! a complete Turtle statement; a statement may expand to several triples
//! (e.g. via `;`/`,` lists), all of which get the line's polarity. A
//! directive written inside an operation line stays in force for the
//! lines after it, like one on a `@prefix` line. Each line is parsed
//! once, so parsing is linear in the file's size.

use crate::graph::Triple;
use crate::pool::TermPool;
use crate::turtle;

/// A batch graph mutation: triples to remove and triples to add.
///
/// Application order is removals first, then additions, so a triple listed
/// in both ends up present. Term ids must come from the same
/// [`TermPool`] as the graph the delta is applied to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Triples removed by this delta (applied first).
    pub removed: Vec<Triple>,
    /// Triples added by this delta (applied after the removals).
    pub added: Vec<Triple>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// True when the delta contains no operations.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }

    /// Total number of operations (removals plus additions).
    pub fn len(&self) -> usize {
        self.removed.len() + self.added.len()
    }

    /// The logical inverse: additions become removals and vice versa.
    ///
    /// Applying `delta` and then `delta.inverse()` restores the graph's
    /// *triple set*; to also restore adjacency order (needed for
    /// byte-identical reports) use
    /// [`Graph::revert_delta`](crate::graph::Graph::revert_delta) with the
    /// [`AppliedDelta`] instead.
    pub fn inverse(&self) -> GraphDelta {
        GraphDelta {
            removed: self.added.clone(),
            added: self.removed.clone(),
        }
    }
}

/// The effective result of applying a [`GraphDelta`] to a graph.
///
/// Records only the operations that actually changed the graph (removing
/// an absent triple or adding a present one is a no-op), plus the adjacency
/// positions each removed triple vacated, so
/// [`Graph::revert_delta`](crate::graph::Graph::revert_delta) can put
/// everything back exactly where it was.
#[derive(Debug, Clone, Default)]
pub struct AppliedDelta {
    /// Each effective removal with the outgoing- and incoming-list indexes
    /// it occupied in the *pre-delta* adjacency lists. Positions are
    /// resolved against the untouched lists (removals are batched and
    /// applied physically once per node), so revert can re-seat all of a
    /// node's arcs in a single merge pass.
    pub(crate) removed: Vec<(Triple, usize, usize)>,
    /// Each effective addition, in application order.
    pub(crate) added: Vec<Triple>,
}

impl AppliedDelta {
    /// Number of triples actually removed.
    pub fn removed_count(&self) -> usize {
        self.removed.len()
    }

    /// Number of triples actually added.
    pub fn added_count(&self) -> usize {
        self.added.len()
    }

    /// The triples actually removed, in application order.
    pub fn removed_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.removed.iter().map(|&(t, _, _)| t)
    }

    /// The triples actually added, in application order.
    pub fn added_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.added.iter().copied()
    }

    /// True when the delta changed nothing.
    pub fn is_noop(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// A syntax error in a delta file, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delta line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DeltaError {}

/// A failure while *applying* a delta to a graph (see
/// [`Graph::try_apply_delta`](crate::graph::Graph::try_apply_delta)).
/// By the time this error is observable the graph has already been rolled
/// back to its pre-delta state — the failed application is a no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaApplyError {
    /// 0-based index of the operation (removals first, then additions)
    /// that failed.
    pub op_index: usize,
    /// Total operations in the delta.
    pub operations: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DeltaApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delta apply failed at operation {}/{} (graph rolled back): {}",
            self.op_index + 1,
            self.operations,
            self.message
        )
    }
}

impl std::error::Error for DeltaApplyError {}

/// Parses the line-oriented delta format (see the [module docs](self))
/// into a [`GraphDelta`], interning all terms into `pool`.
///
/// ```
/// use shapex_rdf::{delta, pool::TermPool};
/// let mut pool = TermPool::new();
/// let d = delta::parse(
///     "@prefix e: <http://e/> .\n- e:a e:p 1 .\n+ e:a e:p 2 .\n",
///     &mut pool,
/// ).unwrap();
/// assert_eq!(d.removed.len(), 1);
/// assert_eq!(d.added.len(), 1);
/// ```
pub fn parse(input: &str, pool: &mut TermPool) -> Result<GraphDelta, DeltaError> {
    let mut scope = turtle::Directives::default();
    let mut delta = GraphDelta::new();
    for (idx, raw) in input.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with("@prefix") {
            // Parsed on its own line, against the declarations already in
            // force, so a malformed one is reported with its own line
            // number, and each line's text is read once.
            let message = match turtle::parse_triples_in(line, pool, &mut scope) {
                (_, Err(e)) => format!("malformed @prefix directive: {e}"),
                (triples, Ok(())) if !triples.is_empty() => {
                    "a @prefix line holds no triples".to_string()
                }
                _ => continue,
            };
            return Err(DeltaError {
                line: lineno,
                message,
            });
        }
        // `strip_prefix`, not `split_at(1)`: a line opening with a
        // multi-byte character must produce a line-numbered error, not a
        // char-boundary panic.
        let (op, stmt) = if let Some(rest) = line.strip_prefix('+') {
            (true, rest.trim_start())
        } else if let Some(rest) = line.strip_prefix('-') {
            (false, rest.trim_start())
        } else {
            return Err(DeltaError {
                line: lineno,
                message: format!("expected '+', '-', '@prefix', or comment, got: {line}"),
            });
        };
        // Parse the statement with the declarations in force, interning
        // directly into the caller's pool.
        let (mut triples, outcome) = turtle::parse_triples_in(stmt, pool, &mut scope);
        if let Err(e) = outcome {
            return Err(DeltaError {
                line: lineno,
                message: e.to_string(),
            });
        }
        triples.sort_unstable();
        triples.dedup();
        if triples.is_empty() {
            return Err(DeltaError {
                line: lineno,
                message: "operation line contains no triple".into(),
            });
        }
        if op {
            delta.added.extend(triples);
        } else {
            delta.removed.extend(triples);
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn parse_basic_delta() {
        let mut pool = TermPool::new();
        let d = parse(
            "# comment\n@prefix e: <http://e/> .\n\n- e:a e:p e:b .\n+ e:a e:q 1, 2 .\n",
            &mut pool,
        )
        .unwrap();
        assert_eq!(d.removed.len(), 1);
        assert_eq!(d.added.len(), 2);
        // Terms landed in the caller's pool.
        assert!(pool.get(&Term::iri("http://e/a")).is_some());
        assert!(pool.get(&Term::iri("http://e/q")).is_some());
    }

    #[test]
    fn parse_rejects_bad_lines() {
        let mut pool = TermPool::new();
        let err = parse("e:a e:p e:b .\n", &mut pool).unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse("@prefix e: <http://e/> .\n+ e:a e:p .\n", &mut pool).unwrap_err();
        assert_eq!(err.line, 2);
        // The pool survives a failed parse.
        pool.intern_iri("http://e/after");
    }

    #[test]
    fn parse_rejects_multibyte_junk_line_without_panicking() {
        // Fail-pre-fix: `split_at(1)` panicked on a line whose first
        // character is multi-byte ("byte index 1 is not a char boundary")
        // instead of reporting a syntax error.
        let mut pool = TermPool::new();
        for junk in ["± e:a e:p e:b .", "→ oops", "é"] {
            let input = format!("@prefix e: <http://e/> .\n{junk}\n");
            let err = parse(&input, &mut pool).unwrap_err();
            assert_eq!(err.line, 2, "{junk}");
            assert!(err.message.contains("expected"), "{}", err.message);
        }
    }

    #[test]
    fn parse_reports_malformed_prefix_on_its_own_line() {
        // Fail-pre-fix: malformed @prefix directives were accumulated
        // unvalidated — the error surfaced (if at all) on a later
        // operation line with that line's number, or was silently
        // swallowed when no operation line followed.
        let mut pool = TermPool::new();
        let err = parse("# header\n@prefix broken <http://e/> .\n", &mut pool).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("@prefix"), "{}", err.message);

        // Still line 2 when an operation line follows.
        let err = parse(
            "@prefix e: <http://e/> .\n@prefix broken\n+ e:a e:p e:b .\n",
            &mut pool,
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn prefix_lines_hold_directives_only() {
        // Fail-pre-fix: a triple on a `@prefix` line was parsed again with
        // every later operation line, and so added by each of them.
        let mut pool = TermPool::new();
        let src = "@prefix e: <http://e/> . e:x e:p e:y .\n+ e:a e:p e:b .\n";
        let err = parse(src, &mut pool).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("no triples"), "{}", err.message);
        // Directives stay in force across lines, redefinitions included.
        let src = "@prefix e: <http://e/> .\n+ e:a e:p e:b .\n\
                   @prefix e: <http://f/> .\n+ e:a e:p e:b .\n";
        let d = parse(src, &mut pool).unwrap();
        let f = pool.get(&Term::iri("http://f/a")).unwrap();
        assert_eq!(d.added.len(), 2);
        assert_eq!(d.added[1].subject, f);
    }

    #[test]
    fn parse_accepts_operator_without_space() {
        let mut pool = TermPool::new();
        let d = parse("@prefix e: <http://e/> .\n+e:a e:p e:b .\n", &mut pool).unwrap();
        assert_eq!(d.added.len(), 1);
    }

    #[test]
    fn inverse_swaps_polarity() {
        let mut pool = TermPool::new();
        let d = parse(
            "@prefix e: <http://e/> .\n- e:a e:p e:b .\n+ e:c e:p e:d .\n",
            &mut pool,
        )
        .unwrap();
        let inv = d.inverse();
        assert_eq!(inv.removed, d.added);
        assert_eq!(inv.added, d.removed);
        assert!(!d.is_empty());
        assert_eq!(d.len(), 2);
        assert!(GraphDelta::new().is_empty());
    }
}
