//! Schema lints: usage warnings and node-constraint diagnoses.
//!
//! Whether a whole shape can be satisfied is not decided here. That
//! verdict, [`Lint::Unsatisfiable`], needs the shape's language, so it
//! comes from the one emptiness fixpoint over the compiled schema
//! (`shapex::calculus::emptiness`); `shapex::calculus::lints` runs the
//! lints below and appends it. Local diagnoses stay syntactic: an arc
//! whose object constraint no term satisfies is flagged wherever it sits,
//! even when the shape survives it (`e | ∅ ≡ e`).

use std::fmt;

use crate::ast::{ObjectConstraint, ShapeExpr, ShapeLabel};
use crate::constraint::NodeConstraint;
use crate::sat::{constraint_sat, Sat3};
use crate::schema::Schema;
use crate::strre::Regex;

/// One warning about a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lint {
    /// The shape is neither the start shape nor referenced by any other
    /// shape — validators will never reach it implicitly.
    UnusedShape(String),
    /// A start shape is declared but this shape cannot be reached from it.
    UnreachableFromStart(String),
    /// The shape's language is provably empty: no graph conforms. Exact —
    /// backed by the emptiness fixpoint over the compiled schema, never by
    /// syntax alone; [`lints`] never reports it.
    Unsatisfiable(String),
    /// An arc's object constraint is provably unsatisfiable (contradictory
    /// facets, `X` conjoined with `NOT X`, incompatible kinds, ...): the
    /// arc can never fire. The shape as a whole may still be satisfiable
    /// (e.g. the arc sits under `|` or `*`).
    UnsatisfiableConstraint(String),
    /// An arc carries an empty value set `[]` — no object can ever match.
    EmptyValueSet(String),
    /// A `PATTERN` facet whose regex does not parse: it will match
    /// nothing.
    InvalidPattern {
        /// The shape holding the facet.
        shape: String,
        /// The offending pattern source.
        pattern: String,
        /// The regex parser's message.
        error: String,
    },
    /// A cardinality `{0,0}` — equivalent to writing nothing.
    VacuousCardinality(String),
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lint::UnusedShape(s) => {
                write!(
                    f,
                    "shape <{s}> is never referenced and is not the start shape"
                )
            }
            Lint::UnreachableFromStart(s) => {
                write!(f, "shape <{s}> is unreachable from the start shape")
            }
            Lint::Unsatisfiable(s) => {
                write!(f, "shape <{s}> is unsatisfiable: no graph can conform")
            }
            Lint::UnsatisfiableConstraint(s) => {
                write!(
                    f,
                    "shape <{s}> has an arc whose object constraint no term satisfies"
                )
            }
            Lint::EmptyValueSet(s) => {
                write!(
                    f,
                    "shape <{s}> has an empty value set [] — no object can match"
                )
            }
            Lint::InvalidPattern {
                shape,
                pattern,
                error,
            } => write!(
                f,
                "shape <{shape}> has an invalid PATTERN {pattern:?}: {error}"
            ),
            Lint::VacuousCardinality(s) => {
                write!(
                    f,
                    "shape <{s}> has a {{0,0}} cardinality — the expression is inert"
                )
            }
        }
    }
}

/// Runs the usage lints and the per-constraint lints over the schema;
/// every lint but [`Lint::Unsatisfiable`].
pub fn lints(schema: &Schema) -> Vec<Lint> {
    let mut out = Vec::new();
    usage_lints(schema, &mut out);
    for (label, expr) in schema.iter() {
        expr_lints(label, expr, &mut out);
    }
    out
}

fn usage_lints(schema: &Schema, out: &mut Vec<Lint>) {
    let referenced: Vec<&ShapeLabel> = schema.iter().flat_map(|(_, e)| e.references()).collect();
    for label in schema.labels() {
        let is_start = schema.start() == Some(label);
        if !is_start && !referenced.contains(&label) && schema.start().is_some() {
            // With a start shape, anything not referenced and not start is
            // dead; without one, every shape is a potential entry point.
            out.push(Lint::UnusedShape(label.as_str().to_string()));
        }
    }
    if let Some(start) = schema.start() {
        let reachable = schema.reachable(start);
        for label in schema.labels() {
            if !reachable.contains(&label) {
                out.push(Lint::UnreachableFromStart(label.as_str().to_string()));
            }
        }
    }
}

fn expr_lints(label: &ShapeLabel, expr: &ShapeExpr, out: &mut Vec<Lint>) {
    let name = || label.as_str().to_string();
    match expr {
        // `∅` on its own is not a lint: whether it kills the shape depends
        // on context (`e | ∅ ≡ e`), and the emptiness fixpoint decides
        // that exactly.
        ShapeExpr::Empty | ShapeExpr::Epsilon => {}
        ShapeExpr::Arc(arc) => {
            if let ObjectConstraint::Value(c) = &arc.object {
                constraint_lints(label, c, out);
            }
        }
        ShapeExpr::Repeat(e, 0, Some(0)) => {
            out.push(Lint::VacuousCardinality(name()));
            expr_lints(label, e, out);
        }
        ShapeExpr::Star(e) | ShapeExpr::Plus(e) | ShapeExpr::Opt(e) => expr_lints(label, e, out),
        ShapeExpr::Repeat(e, _, _) => expr_lints(label, e, out),
        ShapeExpr::And(a, b) | ShapeExpr::Or(a, b) => {
            expr_lints(label, a, out);
            expr_lints(label, b, out);
        }
    }
}

/// Specific diagnoses first (`[]`, bad `PATTERN`), then the general
/// verdict: if the whole constraint is proven unsatisfiable by
/// [`crate::sat`] and no specific lint already explains why, report it.
/// This subsumes the old ad-hoc kind-contradiction check and catches the
/// cases it missed (contradictory numeric facets, `X ∧ NOT X`).
fn constraint_lints(label: &ShapeLabel, c: &NodeConstraint, out: &mut Vec<Lint>) {
    let before = out.len();
    specific_constraint_lints(label, c, out);
    if out.len() == before && constraint_sat(c) == Sat3::Unsat {
        out.push(Lint::UnsatisfiableConstraint(label.as_str().to_string()));
    }
}

fn specific_constraint_lints(label: &ShapeLabel, c: &NodeConstraint, out: &mut Vec<Lint>) {
    let name = || label.as_str().to_string();
    match c {
        NodeConstraint::ValueSet(vs) if vs.is_empty() => out.push(Lint::EmptyValueSet(name())),
        NodeConstraint::Facet(crate::constraint::Facet::Pattern(p)) => {
            if let Err(error) = Regex::new(p) {
                out.push(Lint::InvalidPattern {
                    shape: name(),
                    pattern: p.to_string(),
                    error,
                });
            }
        }
        NodeConstraint::AllOf(cs) | NodeConstraint::AnyOf(cs) => {
            for inner in cs {
                specific_constraint_lints(label, inner, out);
            }
        }
        NodeConstraint::Not(inner) => specific_constraint_lints(label, inner, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ArcConstraint, ShapeExpr};
    use crate::constraint::{Facet, NodeKind};
    use crate::shexc;
    use shapex_rdf::xsd::Numeric;

    fn lint_src(src: &str) -> Vec<Lint> {
        lints(&shexc::parse(src).unwrap())
    }

    #[test]
    fn clean_schema_has_no_lints() {
        let l = lint_src("PREFIX e: <http://e/>\nstart = @<A>\n<A> { e:p @<B>* }\n<B> { e:q . }");
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn unused_shape_detected() {
        let l = lint_src("PREFIX e: <http://e/>\nstart = @<A>\n<A> { e:p . }\n<Dead> { e:q . }");
        assert!(l.contains(&Lint::UnusedShape("Dead".into())));
        assert!(l.contains(&Lint::UnreachableFromStart("Dead".into())));
    }

    #[test]
    fn no_start_means_no_usage_lints() {
        let l = lint_src("PREFIX e: <http://e/>\n<A> { e:p . }\n<B> { e:q . }");
        assert!(l.is_empty(), "{l:?}");
    }

    #[test]
    fn empty_value_set_detected() {
        let l = lint_src("PREFIX e: <http://e/>\n<A> { e:p [] }");
        assert!(l.contains(&Lint::EmptyValueSet("A".into())));
    }

    #[test]
    fn invalid_pattern_detected() {
        let l = lint_src("PREFIX e: <http://e/>\n<A> { e:p PATTERN \"(unclosed\" }");
        assert!(matches!(&l[0], Lint::InvalidPattern { shape, .. } if shape == "A"));
    }

    #[test]
    fn vacuous_cardinality_detected() {
        let l = lint_src("PREFIX e: <http://e/>\n<A> { e:p .{0,0}, e:q . }");
        assert!(l.contains(&Lint::VacuousCardinality("A".into())));
    }

    #[test]
    fn contradictory_kinds_detected() {
        // `IRI` together with a string facet is fine.
        let l = lint_src(
            "PREFIX e: <http://e/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
             <A> { e:p IRI MINLENGTH 1 }\n<B> { e:q LITERAL MINLENGTH 1 }",
        );
        assert!(l.is_empty(), "kind+facet is fine: {l:?}");
        // Construct the contradiction through the AST (two kinds cannot be
        // written in one ShExC constraint position).
        let schema = Schema::from_rules([(
            ShapeLabel::new("C"),
            ShapeExpr::arc(ArcConstraint::value(
                "http://e/p",
                NodeConstraint::AllOf(vec![
                    NodeConstraint::Kind(NodeKind::Iri),
                    NodeConstraint::Kind(NodeKind::Literal),
                ]),
            )),
        )])
        .unwrap();
        let l = lints(&schema);
        assert!(
            l.contains(&Lint::UnsatisfiableConstraint("C".into())),
            "{l:?}"
        );
        let schema = Schema::from_rules([(
            ShapeLabel::new("D"),
            ShapeExpr::arc(ArcConstraint::value(
                "http://e/p",
                NodeConstraint::AllOf(vec![
                    NodeConstraint::Kind(NodeKind::Iri),
                    NodeConstraint::Datatype("http://dt".into()),
                ]),
            )),
        )])
        .unwrap();
        assert!(lints(&schema).contains(&Lint::UnsatisfiableConstraint("D".into())));
    }

    // Regression (ISSUE 8 satellite 2a): contradictory numeric facets
    // (`MININCLUSIVE 5 MAXINCLUSIVE 3`) previously produced no lint.
    #[test]
    fn contradictory_numeric_facets_detected() {
        let l = lint_src(
            "PREFIX e: <http://e/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
             <A> { e:p xsd:integer MININCLUSIVE 5 MAXINCLUSIVE 3 }",
        );
        assert!(
            l.contains(&Lint::UnsatisfiableConstraint("A".into())),
            "{l:?}"
        );
    }

    // Regression (ISSUE 8 satellite 2b): `X` conjoined with `NOT X` under
    // `AllOf` previously produced no lint.
    #[test]
    fn not_x_conjoined_with_x_detected() {
        let x = NodeConstraint::Facet(Facet::MinInclusive(Numeric::integer(0)));
        let schema = Schema::from_rules([(
            ShapeLabel::new("A"),
            ShapeExpr::arc(ArcConstraint::value(
                "http://e/p",
                NodeConstraint::AllOf(vec![x.clone(), NodeConstraint::Not(Box::new(x))]),
            )),
        )])
        .unwrap();
        let l = lints(&schema);
        assert!(
            l.contains(&Lint::UnsatisfiableConstraint("A".into())),
            "{l:?}"
        );
    }

    #[test]
    fn display_messages() {
        assert!(Lint::UnusedShape("X".into())
            .to_string()
            .contains("never referenced"));
        assert!(Lint::EmptyValueSet("X".into()).to_string().contains("[]"));
        assert!(Lint::Unsatisfiable("X".into())
            .to_string()
            .contains("unsatisfiable"));
        assert!(Lint::UnsatisfiableConstraint("X".into())
            .to_string()
            .contains("no term satisfies"));
    }
}
