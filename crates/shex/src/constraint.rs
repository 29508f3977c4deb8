//! Node constraints: the object value sets `vo ⊆ Vo` of arc constraints.
//!
//! The paper treats `vo` abstractly as a subset of `Vo` and instantiates it
//! with datatype subsets of `L` ("we can consider xsd:int and xsd:string as
//! subsets of L", Example 6) and with explicit value sets (`{1, 2}` in
//! Example 5). This module gives those subsets a concrete, composable
//! syntax mirroring ShEx: node kinds, datatypes, value sets (with stems),
//! numeric and string facets, conjunction, and — as the §10 extension —
//! negation.

use std::cmp::Ordering;
use std::fmt;

use shapex_rdf::term::{Term, TermRef};
use shapex_rdf::vocab::{rdf, xsd};
use shapex_rdf::xsd::{is_valid_lexical, Numeric};

use crate::strre::Regex;

/// The four ShEx node kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An IRI.
    Iri,
    /// A blank node.
    BNode,
    /// A literal.
    Literal,
    /// An IRI or blank node.
    NonLiteral,
}

impl NodeKind {
    /// Does `term` have this kind?
    pub fn matches(self, term: TermRef<'_>) -> bool {
        match self {
            NodeKind::Iri => term.is_iri(),
            NodeKind::BNode => term.is_blank(),
            NodeKind::Literal => term.is_literal(),
            NodeKind::NonLiteral => !term.is_literal(),
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeKind::Iri => "IRI",
            NodeKind::BNode => "BNODE",
            NodeKind::Literal => "LITERAL",
            NodeKind::NonLiteral => "NONLITERAL",
        })
    }
}

/// One member of a value set `[ ... ]`.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSetValue {
    /// An exact term (IRI or literal).
    Term(Term),
    /// An IRI stem `<http://e/ns>~`: any IRI starting with the stem.
    IriStem(Box<str>),
    /// A language tag `@en`: any langString with exactly that tag
    /// (compared case-insensitively).
    Language(Box<str>),
    /// A language stem `@en~`: tag equal to or prefixed by `stem-`.
    LanguageStem(Box<str>),
}

impl ValueSetValue {
    /// Does `term` belong to this value-set member?
    pub fn matches(&self, term: TermRef<'_>) -> bool {
        match self {
            ValueSetValue::Term(t) => TermRef::from(t) == term,
            ValueSetValue::IriStem(stem) => {
                term.as_iri().is_some_and(|iri| iri.starts_with(&**stem))
            }
            ValueSetValue::Language(tag) => term.as_literal().is_some_and(|l| {
                l.language()
                    .is_some_and(|lang| lang.eq_ignore_ascii_case(tag))
            }),
            ValueSetValue::LanguageStem(stem) => term.as_literal().is_some_and(|l| {
                l.language().is_some_and(|lang| {
                    let lang = lang.to_ascii_lowercase();
                    let stem = stem.to_ascii_lowercase();
                    lang == stem || lang.starts_with(&format!("{stem}-"))
                })
            }),
        }
    }
}

/// A string or numeric facet, refining a node constraint (ShEx-style;
/// these are the "predicates" the paper's §10 names as extensions).
#[derive(Debug, Clone, PartialEq)]
pub enum Facet {
    /// Numeric `≥` bound.
    MinInclusive(Numeric),
    /// Numeric `>` bound.
    MinExclusive(Numeric),
    /// Numeric `≤` bound.
    MaxInclusive(Numeric),
    /// Numeric `<` bound.
    MaxExclusive(Numeric),
    /// Exact length in characters of the lexical form / IRI / bnode label.
    Length(usize),
    /// Minimum length in characters.
    MinLength(usize),
    /// Maximum length in characters.
    MaxLength(usize),
    /// Full-match regular expression over the string value, evaluated with
    /// the Brzozowski engine in [`crate::strre`].
    Pattern(Pattern),
}

/// A `PATTERN` facet's source text, with the regex compiled from it once,
/// where the facet is built. Compares, displays and dereferences as the
/// source text; a source that does not compile matches nothing.
#[derive(Debug, Clone)]
pub struct Pattern {
    source: Box<str>,
    regex: Option<Regex>,
}

impl Pattern {
    /// Compiles `source`; an invalid pattern is kept, matching nothing.
    pub fn new(source: impl Into<Box<str>>) -> Pattern {
        let source = source.into();
        let regex = Regex::new(&source).ok();
        Pattern { source, regex }
    }

    /// Does the whole of `value` match? Always `false` for an invalid
    /// pattern.
    pub fn is_match(&self, value: &str) -> bool {
        self.regex.as_ref().is_some_and(|re| re.is_match(value))
    }
}

impl PartialEq for Pattern {
    fn eq(&self, other: &Pattern) -> bool {
        self.source == other.source
    }
}

impl std::ops::Deref for Pattern {
    type Target = str;

    fn deref(&self) -> &str {
        &self.source
    }
}

impl From<&str> for Pattern {
    fn from(source: &str) -> Pattern {
        Pattern::new(source)
    }
}

impl From<Box<str>> for Pattern {
    fn from(source: Box<str>) -> Pattern {
        Pattern::new(source)
    }
}

impl Facet {
    /// Does `term` satisfy this facet?
    pub fn matches(&self, term: TermRef<'_>) -> bool {
        match self {
            Facet::MinInclusive(b) => cmp_numeric(term, b, &[Ordering::Greater, Ordering::Equal]),
            Facet::MinExclusive(b) => cmp_numeric(term, b, &[Ordering::Greater]),
            Facet::MaxInclusive(b) => cmp_numeric(term, b, &[Ordering::Less, Ordering::Equal]),
            Facet::MaxExclusive(b) => cmp_numeric(term, b, &[Ordering::Less]),
            Facet::Length(n) => string_value(term).chars().count() == *n,
            Facet::MinLength(n) => string_value(term).chars().count() >= *n,
            Facet::MaxLength(n) => string_value(term).chars().count() <= *n,
            Facet::Pattern(p) => p.is_match(string_value(term)),
        }
    }
}

/// The string a string facet inspects: lexical form for literals, the IRI
/// text for IRIs, the label for blank nodes (ShEx semantics).
fn string_value(term: TermRef<'_>) -> &str {
    match term {
        TermRef::Iri(iri) => iri,
        TermRef::Blank(label) => label,
        TermRef::Literal(l) => l.lexical_form(),
    }
}

fn cmp_numeric(term: TermRef<'_>, bound: &Numeric, accept: &[Ordering]) -> bool {
    let Some(lit) = term.as_literal() else {
        return false;
    };
    let Some(value) = Numeric::of_literal(lit) else {
        return false;
    };
    value
        .compare(*bound)
        .is_some_and(|ord| accept.contains(&ord))
}

/// A node constraint — a decidable subset of `Vo`.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeConstraint {
    /// `.` — any term at all.
    Any,
    /// `IRI` / `BNODE` / `LITERAL` / `NONLITERAL`.
    Kind(NodeKind),
    /// A datatype IRI: literals whose declared datatype is exactly this IRI
    /// *and* whose lexical form is valid for it. `xsd:string` additionally
    /// accepts plain literals; language-tagged strings only match
    /// `rdf:langString`.
    Datatype(Box<str>),
    /// A value set `[v1 v2 ...]`: any member matching.
    ValueSet(Vec<ValueSetValue>),
    /// A single facet.
    Facet(Facet),
    /// Conjunction, e.g. `xsd:integer MININCLUSIVE 0`.
    AllOf(Vec<NodeConstraint>),
    /// Disjunction: any member matching. Not produced by the ShExC parser
    /// (ShEx spells value disjunction as shape `OR`); the SHACL front-end
    /// compiles `sh:or` over value-testable shapes to this.
    AnyOf(Vec<NodeConstraint>),
    /// Negation (§10 extension): `NOT <constraint>`.
    Not(Box<NodeConstraint>),
}

impl NodeConstraint {
    /// Convenience: `datatype ∧ facets`.
    pub fn datatype_with(datatype: impl Into<Box<str>>, facets: Vec<Facet>) -> Self {
        let mut all = vec![NodeConstraint::Datatype(datatype.into())];
        all.extend(facets.into_iter().map(NodeConstraint::Facet));
        if all.len() == 1 {
            all.pop().expect("one element")
        } else {
            NodeConstraint::AllOf(all)
        }
    }

    /// The membership test `o ∈ vo` (paper Fig. 1, rule *Arc*). Takes a
    /// `&Term` or a [`TermRef`], such as a pool's view of an interned term.
    pub fn matches<'t>(&self, term: impl Into<TermRef<'t>>) -> bool {
        let term = term.into();
        match self {
            NodeConstraint::Any => true,
            NodeConstraint::Kind(k) => k.matches(term),
            NodeConstraint::Datatype(dt) => datatype_matches(dt, term),
            NodeConstraint::ValueSet(vs) => vs.iter().any(|v| v.matches(term)),
            NodeConstraint::Facet(f) => f.matches(term),
            NodeConstraint::AllOf(cs) => cs.iter().all(|c| c.matches(term)),
            NodeConstraint::AnyOf(cs) => cs.iter().any(|c| c.matches(term)),
            NodeConstraint::Not(c) => !c.matches(term),
        }
    }
}

fn datatype_matches(datatype: &str, term: TermRef<'_>) -> bool {
    let Some(lit) = term.as_literal() else {
        return false;
    };
    match datatype {
        // A language-tagged string has datatype rdf:langString.
        rdf::LANG_STRING => lit.language().is_some(),
        xsd::STRING => lit.datatype() == xsd::STRING,
        dt => lit.datatype() == dt && is_valid_lexical(dt, lit.lexical_form()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_rdf::term::Literal;

    fn int(v: i64) -> Term {
        Term::Literal(Literal::integer(v))
    }

    fn s(v: &str) -> Term {
        Term::Literal(Literal::string(v))
    }

    #[test]
    fn any_matches_everything() {
        assert!(NodeConstraint::Any.matches(&Term::iri("http://e/x")));
        assert!(NodeConstraint::Any.matches(&Term::blank("b")));
        assert!(NodeConstraint::Any.matches(&s("lit")));
    }

    #[test]
    fn node_kinds() {
        let lit = s("x");
        let (iri, blank, lit) = (
            TermRef::Iri("http://e/x"),
            TermRef::Blank("b"),
            (&lit).into(),
        );
        assert!(NodeKind::Iri.matches(iri) && !NodeKind::Iri.matches(lit));
        assert!(NodeKind::BNode.matches(blank) && !NodeKind::BNode.matches(iri));
        assert!(NodeKind::Literal.matches(lit) && !NodeKind::Literal.matches(blank));
        assert!(NodeKind::NonLiteral.matches(iri) && NodeKind::NonLiteral.matches(blank));
        assert!(!NodeKind::NonLiteral.matches(lit));
    }

    #[test]
    fn datatype_requires_declared_type_and_valid_lexical() {
        let c = NodeConstraint::Datatype(xsd::INTEGER.into());
        assert!(c.matches(&int(23)));
        // "23" as xsd:string is not an xsd:integer
        assert!(!c.matches(&s("23")));
        // declared integer with junk lexical form is rejected
        assert!(!c.matches(&Term::Literal(Literal::typed("nope", xsd::INTEGER))));
        // non-literals never match datatypes
        assert!(!c.matches(&Term::iri("http://e/x")));
    }

    #[test]
    fn xsd_string_accepts_plain_but_not_tagged() {
        let c = NodeConstraint::Datatype(xsd::STRING.into());
        assert!(c.matches(&s("plain")));
        assert!(!c.matches(&Term::Literal(Literal::lang_string("tagged", "en"))));
        assert!(!c.matches(&int(1)));
    }

    #[test]
    fn lang_string_datatype() {
        let c = NodeConstraint::Datatype(rdf::LANG_STRING.into());
        assert!(c.matches(&Term::Literal(Literal::lang_string("x", "en"))));
        assert!(!c.matches(&s("x")));
    }

    #[test]
    fn value_set_terms() {
        // The paper's Example 5: values {1, 2}.
        let c = NodeConstraint::ValueSet(vec![
            ValueSetValue::Term(int(1)),
            ValueSetValue::Term(int(2)),
        ]);
        assert!(c.matches(&int(1)));
        assert!(c.matches(&int(2)));
        assert!(!c.matches(&int(3)));
        assert!(!c.matches(&s("1"))); // same lexical, different datatype
    }

    #[test]
    fn iri_stem() {
        let c = NodeConstraint::ValueSet(vec![ValueSetValue::IriStem("http://e/ns/".into())]);
        assert!(c.matches(&Term::iri("http://e/ns/thing")));
        assert!(!c.matches(&Term::iri("http://e/other")));
        assert!(!c.matches(&s("http://e/ns/thing")));
    }

    #[test]
    fn language_and_language_stem() {
        let en = Term::Literal(Literal::lang_string("hi", "en"));
        let en_gb = Term::Literal(Literal::lang_string("hi", "en-GB"));
        let fr = Term::Literal(Literal::lang_string("salut", "fr"));
        let lang = NodeConstraint::ValueSet(vec![ValueSetValue::Language("EN".into())]);
        assert!(lang.matches(&en));
        assert!(!lang.matches(&en_gb));
        assert!(!lang.matches(&fr));
        let stem = NodeConstraint::ValueSet(vec![ValueSetValue::LanguageStem("en".into())]);
        assert!(stem.matches(&en));
        assert!(stem.matches(&en_gb));
        assert!(!stem.matches(&fr));
    }

    #[test]
    fn numeric_facets() {
        let c = NodeConstraint::datatype_with(
            xsd::INTEGER,
            vec![
                Facet::MinInclusive(Numeric::integer(0)),
                Facet::MaxExclusive(Numeric::integer(150)),
            ],
        );
        assert!(c.matches(&int(0)));
        assert!(c.matches(&int(149)));
        assert!(!c.matches(&int(150)));
        assert!(!c.matches(&int(-1)));
        assert!(!c.matches(&s("10"))); // not numeric
    }

    #[test]
    fn exclusive_bounds() {
        let c = NodeConstraint::Facet(Facet::MinExclusive(Numeric::integer(5)));
        assert!(!c.matches(&int(5)));
        assert!(c.matches(&int(6)));
        let c = NodeConstraint::Facet(Facet::MaxInclusive(Numeric::integer(5)));
        assert!(c.matches(&int(5)));
        assert!(!c.matches(&int(6)));
    }

    #[test]
    fn string_length_facets() {
        let c = NodeConstraint::Facet(Facet::Length(4));
        assert!(c.matches(&s("John")));
        assert!(!c.matches(&s("Bob")));
        // Length counts chars, not bytes.
        assert!(c.matches(&s("λλλλ")));
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Facet(Facet::MinLength(2)),
            NodeConstraint::Facet(Facet::MaxLength(3)),
        ]);
        assert!(c.matches(&s("ab")));
        assert!(c.matches(&s("abc")));
        assert!(!c.matches(&s("a")));
        assert!(!c.matches(&s("abcd")));
    }

    #[test]
    fn length_applies_to_iris_and_bnodes() {
        let c = NodeConstraint::Facet(Facet::MinLength(8));
        assert!(c.matches(&Term::iri("http://e/x")));
        assert!(!c.matches(&Term::blank("b0")));
    }

    #[test]
    fn pattern_facet() {
        let c = NodeConstraint::Facet(Facet::Pattern(r"\d{4}-\d{2}".into()));
        assert!(c.matches(&s("2015-03")));
        assert!(!c.matches(&s("2015-3")));
        assert!(!c.matches(&s("x2015-03"))); // full match
    }

    #[test]
    fn invalid_pattern_matches_nothing() {
        let c = NodeConstraint::Facet(Facet::Pattern("(".into()));
        assert!(!c.matches(&s("anything")));
    }

    /// The compiled-once pattern gives the verdicts compiling per value
    /// gave, for a valid and an invalid source alike.
    #[test]
    fn compiled_pattern_keeps_per_value_verdicts() {
        let values = ["", "a", "ab", "abab", "ba", "(", "a(b"];
        for source in ["(ab)*", "a(b", "(", "[a-"] {
            let facet = Facet::Pattern(source.into());
            for v in values {
                let expected = Regex::new(source).is_ok_and(|re| re.is_match(v));
                assert_eq!(
                    facet.matches(TermRef::from(&s(v))),
                    expected,
                    "{source} on {v:?}"
                );
            }
        }
        assert!(Facet::Pattern("(ab)*".into()).matches(TermRef::from(&s("abab"))));
        assert_eq!(
            Facet::Pattern("a(b".into()),
            Facet::Pattern(Pattern::new(String::from("a(b")))
        );
    }

    #[test]
    fn negation_extension() {
        let c = NodeConstraint::Not(Box::new(NodeConstraint::Kind(NodeKind::Literal)));
        assert!(c.matches(&Term::iri("http://e/x")));
        assert!(!c.matches(&s("lit")));
        // double negation
        let cc = NodeConstraint::Not(Box::new(c));
        assert!(cc.matches(&s("lit")));
    }

    #[test]
    fn all_of_conjunction() {
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Kind(NodeKind::Literal),
            NodeConstraint::Facet(Facet::Pattern("[A-Z].*".into())),
        ]);
        assert!(c.matches(&s("John")));
        assert!(!c.matches(&s("john")));
        assert!(!c.matches(&Term::iri("http://e/John")));
    }

    #[test]
    fn any_of_disjunction() {
        let c = NodeConstraint::AnyOf(vec![
            NodeConstraint::Datatype(xsd::INTEGER.into()),
            NodeConstraint::Datatype(xsd::STRING.into()),
        ]);
        assert!(c.matches(&int(1)));
        assert!(c.matches(&s("x")));
        assert!(!c.matches(&Term::iri("http://e/x")));
        // Empty disjunction matches nothing.
        assert!(!NodeConstraint::AnyOf(vec![]).matches(&int(1)));
    }

    #[test]
    fn datatype_with_single_is_flat() {
        let c = NodeConstraint::datatype_with(xsd::INTEGER, vec![]);
        assert_eq!(c, NodeConstraint::Datatype(xsd::INTEGER.into()));
    }

    #[test]
    fn decimal_facet_comparison() {
        let c = NodeConstraint::Facet(Facet::MaxInclusive(
            Numeric::parse(xsd::DECIMAL, "2.5").unwrap(),
        ));
        assert!(c.matches(&Term::Literal(Literal::decimal("2.50"))));
        assert!(!c.matches(&Term::Literal(Literal::decimal("2.51"))));
        assert!(c.matches(&int(2)));
    }
}
