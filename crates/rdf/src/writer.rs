//! Serializers: canonical N-Triples and a compact Turtle writer with
//! prefix abbreviation and subject grouping.

use std::fmt::Write as _;

use crate::graph::{Graph, Triple};
use crate::pool::{TermId, TermPool};
use crate::term::TermRef;
use crate::vocab::rdf;

/// Serializes a graph as N-Triples, one triple per line, sorted lexically —
/// a canonical form independent of interner state (so two datasets with the
/// same triples serialize identically).
pub fn to_ntriples(graph: &Graph, pool: &TermPool) -> String {
    let mut lines: Vec<String> = graph.triples().map(|t| triple_line(t, pool)).collect();
    lines.sort();
    lines.concat()
}

fn triple_line(t: Triple, pool: &TermPool) -> String {
    format!(
        "{} {} {} .\n",
        pool.term(t.subject),
        pool.term(t.predicate),
        pool.term(t.object)
    )
}

/// Serializes a graph as Turtle using the given `(prefix, namespace)` table,
/// grouping triples by subject with `;`/`,` abbreviations and emitting `a`
/// for `rdf:type`.
pub fn to_turtle(graph: &Graph, pool: &TermPool, prefixes: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, ns) in prefixes {
        let _ = writeln!(out, "@prefix {name}: <{ns}> .");
    }
    if !prefixes.is_empty() {
        out.push('\n');
    }

    let render = |id: TermId| render_term(pool.term(id), prefixes);

    let mut subjects: Vec<TermId> = graph.subjects().collect();
    subjects.sort_by_key(|&s| pool.term(s));
    for s in subjects {
        let mut arcs: Vec<_> = graph.neighbourhood(s).to_vec();
        arcs.sort_by_key(|&(p, o)| (pool.term(p), pool.term(o)));
        let _ = write!(out, "{}", render(s));
        let mut first_pred = true;
        let mut i = 0;
        while i < arcs.len() {
            let (p, _) = arcs[i];
            let sep = if first_pred { " " } else { ";\n    " };
            first_pred = false;
            let pred_str = if pool.term(p) == TermRef::Iri(rdf::TYPE) {
                "a".to_string()
            } else {
                render(p)
            };
            let _ = write!(out, "{sep}{pred_str} ");
            let mut first_obj = true;
            while i < arcs.len() && arcs[i].0 == p {
                if !first_obj {
                    let _ = write!(out, ", ");
                }
                first_obj = false;
                let _ = write!(out, "{}", render(arcs[i].1));
                i += 1;
            }
        }
        let _ = writeln!(out, " .");
    }
    out
}

fn render_term(term: TermRef<'_>, prefixes: &[(&str, &str)]) -> String {
    if let TermRef::Iri(iri) = term {
        for (name, ns) in prefixes {
            if let Some(local) = iri.strip_prefix(ns) {
                if is_safe_local(local) {
                    return format!("{name}:{local}");
                }
            }
        }
    }
    term.to_string()
}

/// Only abbreviate locals that re-parse unambiguously (conservative set).
fn is_safe_local(local: &str) -> bool {
    !local.is_empty()
        && !local.starts_with('.')
        && !local.ends_with('.')
        && local
            .chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dataset;
    use crate::term::{Literal, Term};
    use crate::turtle;
    use crate::vocab::foaf;

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        ds.insert(
            Term::iri("http://example.org/john"),
            Term::iri(foaf::AGE),
            Term::Literal(Literal::integer(23)),
        );
        ds.insert(
            Term::iri("http://example.org/john"),
            Term::iri(foaf::NAME),
            Term::Literal(Literal::string("John")),
        );
        ds.insert(
            Term::iri("http://example.org/john"),
            Term::iri(foaf::KNOWS),
            Term::iri("http://example.org/bob"),
        );
        ds
    }

    #[test]
    fn ntriples_roundtrip() {
        let ds = sample();
        let nt = to_ntriples(&ds.graph, &ds.pool);
        let re = crate::ntriples::parse(&nt).unwrap();
        assert_eq!(re.graph.len(), ds.graph.len());
        // Every original triple survives re-parsing.
        assert_eq!(to_ntriples(&re.graph, &re.pool), nt);
    }

    #[test]
    fn ntriples_is_sorted_and_terminated() {
        let ds = sample();
        let nt = to_ntriples(&ds.graph, &ds.pool);
        for line in nt.lines() {
            assert!(line.ends_with(" ."), "line missing terminator: {line}");
        }
        let lines: Vec<_> = nt.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        // Triple-id sort order and lexical order differ in general, but each
        // run must be self-consistent:
        assert_eq!(nt, to_ntriples(&ds.graph, &ds.pool));
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn turtle_uses_prefixes_and_groups_subjects() {
        let ds = sample();
        let ttl = to_turtle(
            &ds.graph,
            &ds.pool,
            &[("foaf", foaf::NS), ("ex", "http://example.org/")],
        );
        assert!(ttl.contains("@prefix foaf:"));
        assert!(ttl.contains("ex:john"));
        assert!(ttl.contains("foaf:age"));
        // One subject block only.
        assert_eq!(ttl.matches("ex:john").count(), 1);
    }

    #[test]
    fn turtle_roundtrips_through_parser() {
        let ds = sample();
        let ttl = to_turtle(
            &ds.graph,
            &ds.pool,
            &[("foaf", foaf::NS), ("ex", "http://example.org/")],
        );
        let re = turtle::parse(&ttl).unwrap();
        assert_eq!(re.graph.len(), ds.graph.len());
        assert_eq!(
            to_ntriples(&re.graph, &re.pool),
            to_ntriples(&ds.graph, &ds.pool)
        );
    }

    #[test]
    fn turtle_emits_a_for_rdf_type() {
        let mut ds = Dataset::new();
        ds.insert(
            Term::iri("http://e/x"),
            Term::iri(rdf::TYPE),
            Term::iri(foaf::PERSON),
        );
        let ttl = to_turtle(&ds.graph, &ds.pool, &[("foaf", foaf::NS)]);
        assert!(ttl.contains(" a foaf:Person"), "{ttl}");
    }

    #[test]
    fn unsafe_locals_stay_angle_bracketed() {
        let mut ds = Dataset::new();
        ds.insert(
            Term::iri("http://e/with space?no"),
            Term::iri("http://e/p"),
            Term::iri("http://e/o"),
        );
        let ttl = to_turtle(&ds.graph, &ds.pool, &[("ex", "http://e/")]);
        // The raw space is forbidden inside <...> by the IRIREF production,
        // so the writer emits it \u-escaped — and the output re-parses.
        assert!(ttl.contains("<http://e/with\\u0020space?no>"), "{ttl}");
        let re = turtle::parse(&ttl).unwrap();
        assert!(re.pool.get(&Term::iri("http://e/with space?no")).is_some());
    }
}
