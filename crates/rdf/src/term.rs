//! RDF terms: IRIs, blank nodes, and literals.
//!
//! Following the paper's preliminaries (§2): `Vs = I ∪ B`, `Vp = I`,
//! `Vo = I ∪ B ∪ L`. Terms are plain owned values here; the hot paths work
//! on interned [`TermId`](crate::pool::TermId)s instead.

use std::fmt;

use crate::vocab::xsd;

/// An IRI, stored in full (no namespace splitting).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Box<str>);

impl Iri {
    /// Creates an IRI from its textual form. No resolution is performed;
    /// relative IRIs are resolved by the parsers before reaching this type.
    pub fn new(iri: impl Into<Box<str>>) -> Self {
        Iri(iri.into())
    }

    /// The textual form of the IRI, without angle brackets.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Iri {
    /// Writes the IRI in N-Triples `<...>` syntax. Characters the IRIREF
    /// production forbids raw (controls, space, `<>"{}|^`\``, backslash) —
    /// which can only enter an [`Iri`] via `\u` escapes or programmatic
    /// construction — are written back as UCHAR escapes, so serializing and
    /// re-parsing round-trips instead of producing a rejected document.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for ch in self.0.chars() {
            match ch {
                '\u{00}'..='\u{20}' | '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\' => {
                    write!(f, "\\u{:04X}", ch as u32)?
                }
                c => write!(f, "{c}")?,
            }
        }
        write!(f, ">")
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::new(s)
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Iri::new(s)
    }
}

/// A blank node, identified by its label (without the `_:` prefix).
///
/// Labels are significant within a single parsed document/graph; the
/// parsers rename anonymous nodes (`[]`) to fresh `genN` labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Box<str>);

impl BlankNode {
    /// Creates a blank node from its label (no `_:` prefix).
    pub fn new(label: impl Into<Box<str>>) -> Self {
        BlankNode(label.into())
    }

    /// The label, without the `_:` prefix.
    pub fn label(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF literal: a lexical form plus either a datatype IRI or a language
/// tag (in which case the datatype is `rdf:langString`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Box<str>,
    /// Datatype IRI. `xsd:string` for plain literals,
    /// `rdf:langString` when `lang` is set.
    datatype: Box<str>,
    lang: Option<Box<str>>,
}

impl Literal {
    /// A plain string literal (`xsd:string`).
    pub fn string(lexical: impl Into<Box<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: xsd::STRING.into(),
            lang: None,
        }
    }

    /// A literal with an explicit datatype IRI.
    pub fn typed(lexical: impl Into<Box<str>>, datatype: impl Into<Box<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: datatype.into(),
            lang: None,
        }
    }

    /// A language-tagged string (`rdf:langString`). The tag is lowercased,
    /// as language tags are case-insensitive (BCP 47).
    pub fn lang_string(lexical: impl Into<Box<str>>, lang: &str) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: crate::vocab::rdf::LANG_STRING.into(),
            lang: Some(lang.to_ascii_lowercase().into()),
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal::typed(value.to_string(), xsd::INTEGER)
    }

    /// An `xsd:decimal` literal.
    pub fn decimal(lexical: impl Into<Box<str>>) -> Self {
        Literal::typed(lexical, xsd::DECIMAL)
    }

    /// An `xsd:double` literal.
    pub fn double(value: f64) -> Self {
        Literal::typed(format!("{value:E}"), xsd::DOUBLE)
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal::typed(if value { "true" } else { "false" }, xsd::BOOLEAN)
    }

    /// The lexical form of the literal.
    pub fn lexical_form(&self) -> &str {
        &self.lexical
    }

    /// The datatype IRI.
    pub fn datatype(&self) -> &str {
        &self.datatype
    }

    /// The language tag, for `rdf:langString` literals.
    pub fn language(&self) -> Option<&str> {
        self.lang.as_deref()
    }
}

impl fmt::Display for Literal {
    /// Writes the literal in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"")?;
        for ch in self.lexical.chars() {
            match ch {
                '"' => write!(f, "\\\"")?,
                '\\' => write!(f, "\\\\")?,
                '\n' => write!(f, "\\n")?,
                '\r' => write!(f, "\\r")?,
                '\t' => write!(f, "\\t")?,
                c => write!(f, "{c}")?,
            }
        }
        write!(f, "\"")?;
        if let Some(lang) = &self.lang {
            write!(f, "@{lang}")
        } else if &*self.datatype != xsd::STRING {
            write!(f, "^^<{}>", self.datatype)
        } else {
            Ok(())
        }
    }
}

/// Any RDF term. The paper's vocabularies map as:
/// subjects ∈ {Iri, BlankNode}, predicates ∈ {Iri}, objects ∈ any.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI.
    Iri(Iri),
    /// A blank node.
    BlankNode(BlankNode),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Shorthand for an IRI term.
    pub fn iri(iri: impl Into<Box<str>>) -> Self {
        Term::Iri(Iri::new(iri))
    }

    /// Shorthand for a blank-node term.
    pub fn blank(label: impl Into<Box<str>>) -> Self {
        Term::BlankNode(BlankNode::new(label))
    }

    /// True for IRI terms.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True for blank-node terms.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// True for literal terms.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The IRI, when this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// The literal, when this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// True if this term may appear in subject position (`Vs = I ∪ B`).
    pub fn is_valid_subject(&self) -> bool {
        !self.is_literal()
    }

    /// True if this term may appear in predicate position (`Vp = I`).
    pub fn is_valid_predicate(&self) -> bool {
        self.is_iri()
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => i.fmt(f),
            Term::BlankNode(b) => b.fmt(f),
            Term::Literal(l) => l.fmt(f),
        }
    }
}

/// A borrowed view of a [`Term`]: the same three kinds, with every string
/// borrowed. [`TermPool`](crate::pool::TermPool) looks terms up through it,
/// so a parser can ask for a term's id without building the owned term
/// first.
///
/// A literal's fields follow [`Literal`]: the tag, when there is one, is
/// lowercase and the datatype is then `rdf:langString`. A view that breaks
/// this does not equal the term a [`Literal`] constructor would build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermRef<'a> {
    /// An IRI, without angle brackets.
    Iri(&'a str),
    /// A blank node label, without the `_:` prefix.
    Blank(&'a str),
    /// A literal: lexical form, datatype IRI, language tag.
    Literal(&'a str, &'a str, Option<&'a str>),
}

impl TermRef<'_> {
    /// Builds the owned term this view describes.
    pub fn to_term(self) -> Term {
        match self {
            TermRef::Iri(iri) => Term::iri(iri),
            TermRef::Blank(label) => Term::blank(label),
            TermRef::Literal(lexical, datatype, lang) => Term::Literal(Literal {
                lexical: lexical.into(),
                datatype: datatype.into(),
                lang: lang.map(Into::into),
            }),
        }
    }
}

impl<'a> From<&'a Term> for TermRef<'a> {
    fn from(term: &'a Term) -> Self {
        match term {
            Term::Iri(i) => TermRef::Iri(i.as_str()),
            Term::BlankNode(b) => TermRef::Blank(b.label()),
            Term::Literal(l) => TermRef::Literal(&l.lexical, &l.datatype, l.lang.as_deref()),
        }
    }
}

impl From<Iri> for Term {
    fn from(i: Iri) -> Self {
        Term::Iri(i)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::BlankNode(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_wraps_angle_brackets() {
        let iri = Iri::new("http://example.org/a");
        assert_eq!(iri.to_string(), "<http://example.org/a>");
        assert_eq!(iri.as_str(), "http://example.org/a");
    }

    #[test]
    fn blank_node_display() {
        assert_eq!(BlankNode::new("b0").to_string(), "_:b0");
    }

    #[test]
    fn string_literal_display_omits_datatype() {
        assert_eq!(Literal::string("John").to_string(), "\"John\"");
    }

    #[test]
    fn typed_literal_display() {
        let l = Literal::integer(23);
        assert_eq!(
            l.to_string(),
            "\"23\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn lang_literal_display_and_lowercase_tag() {
        let l = Literal::lang_string("Hallo", "DE");
        assert_eq!(l.language(), Some("de"));
        assert_eq!(l.to_string(), "\"Hallo\"@de");
    }

    #[test]
    fn literal_escapes_in_display() {
        let l = Literal::string("a\"b\\c\nd");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn term_position_validity() {
        assert!(Term::iri("http://e/x").is_valid_subject());
        assert!(Term::blank("b").is_valid_subject());
        assert!(!Term::Literal(Literal::string("x")).is_valid_subject());
        assert!(Term::iri("http://e/x").is_valid_predicate());
        assert!(!Term::blank("b").is_valid_predicate());
    }

    #[test]
    fn boolean_literal() {
        assert_eq!(Literal::boolean(true).lexical_form(), "true");
        assert_eq!(
            Literal::boolean(false).datatype(),
            "http://www.w3.org/2001/XMLSchema#boolean"
        );
    }

    #[test]
    fn term_ref_round_trips() {
        for t in [
            Term::iri("http://e/a"),
            Term::blank("b0"),
            Term::Literal(Literal::string("x")),
            Term::Literal(Literal::integer(7)),
            Term::Literal(Literal::lang_string("Hallo", "DE-at")),
        ] {
            assert_eq!(TermRef::from(&t).to_term(), t);
        }
        assert_ne!(TermRef::Iri("x"), TermRef::Blank("x"));
    }

    #[test]
    fn term_ordering_is_total() {
        let mut v = [
            Term::Literal(Literal::string("z")),
            Term::blank("a"),
            Term::iri("http://e/a"),
        ];
        v.sort();
        assert!(v[0].is_iri());
    }
}
