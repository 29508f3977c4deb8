//! Reading a SHACL shapes graph into raw, unresolved shape descriptions.
//!
//! This layer is purely syntactic: it discovers shape nodes, walks RDF
//! lists, parses paths and constraint parameters, and rejects every SHACL
//! term the compiler does not translate (see DESIGN.md §5h). Semantic
//! resolution — merging per-path groups, building engine expressions,
//! classifying `sh:node` references — happens in [`crate::compile`].

use std::collections::BTreeMap;

use shapex_rdf::graph::Dataset;
use shapex_rdf::pool::TermId;
use shapex_rdf::term::Term;
use shapex_rdf::vocab::{rdf, rdfs, sh};
use shapex_rdf::xsd::Numeric;
use shapex_shex::constraint::{Facet, NodeConstraint, NodeKind, ValueSetValue};
use shapex_shex::strre::Regex;

use crate::{err, ShaclError};

/// A SHACL property path, restricted to the forms the derivative engine's
/// arc constraints express directly: a single predicate, forward or
/// inverse. Sequence, alternative, and repetition paths are rejected at
/// read time with error `E002`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Path {
    /// `sh:path ex:p` — forward arcs `focus --p--> value`.
    Forward(Box<str>),
    /// `sh:path [ sh:inversePath ex:p ]` — inverse arcs `value --p--> focus`.
    Inverse(Box<str>),
}

impl Path {
    pub(crate) fn iri(&self) -> &str {
        match self {
            Path::Forward(p) | Path::Inverse(p) => p,
        }
    }

    pub(crate) fn is_inverse(&self) -> bool {
        matches!(self, Path::Inverse(_))
    }

    /// SPARQL-style rendering used in report rows: `<p>` or `^<p>`.
    pub(crate) fn render(&self) -> String {
        match self {
            Path::Forward(p) => format!("<{p}>"),
            Path::Inverse(p) => format!("^<{p}>"),
        }
    }
}

/// The SHACL constraint component a check (and so a report row) comes
/// from. Rendered as the component's `sh:` CURIE in validation reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Component {
    Class,
    Datatype,
    NodeKind,
    MinCount,
    MaxCount,
    MinExclusive,
    MinInclusive,
    MaxExclusive,
    MaxInclusive,
    MinLength,
    MaxLength,
    Pattern,
    LanguageIn,
    In,
    HasValue,
    And,
    Or,
    Not,
    Xone,
    Node,
    Closed,
    /// Fallback for failures the attribution pass cannot localise to a
    /// single component (the derivative said ∅ but every per-component
    /// re-check passed). Non-standard, namespaced to this tool.
    Derivative,
}

impl Component {
    pub(crate) fn iri(self) -> &'static str {
        match self {
            Component::Class => "sh:ClassConstraintComponent",
            Component::Datatype => "sh:DatatypeConstraintComponent",
            Component::NodeKind => "sh:NodeKindConstraintComponent",
            Component::MinCount => "sh:MinCountConstraintComponent",
            Component::MaxCount => "sh:MaxCountConstraintComponent",
            Component::MinExclusive => "sh:MinExclusiveConstraintComponent",
            Component::MinInclusive => "sh:MinInclusiveConstraintComponent",
            Component::MaxExclusive => "sh:MaxExclusiveConstraintComponent",
            Component::MaxInclusive => "sh:MaxInclusiveConstraintComponent",
            Component::MinLength => "sh:MinLengthConstraintComponent",
            Component::MaxLength => "sh:MaxLengthConstraintComponent",
            Component::Pattern => "sh:PatternConstraintComponent",
            Component::LanguageIn => "sh:LanguageInConstraintComponent",
            Component::In => "sh:InConstraintComponent",
            Component::HasValue => "sh:HasValueConstraintComponent",
            Component::And => "sh:AndConstraintComponent",
            Component::Or => "sh:OrConstraintComponent",
            Component::Not => "sh:NotConstraintComponent",
            Component::Xone => "sh:XoneConstraintComponent",
            Component::Node => "sh:NodeConstraintComponent",
            Component::Closed => "sh:ClosedConstraintComponent",
            Component::Derivative => "shapex:DerivativeConstraintComponent",
        }
    }
}

/// A target declaration, detached from the shapes-graph term pool so the
/// compiled schema can outlive it.
#[derive(Debug, Clone)]
pub(crate) enum TargetDecl {
    /// `sh:targetClass C` (and the implicit target when the shape itself
    /// is a `rdfs:Class`): instances of `C` under `rdfs:subClassOf`*.
    Class(Box<str>),
    /// `sh:targetNode t`: the term itself, present in the data or not.
    Node(Term),
    /// `sh:targetSubjectsOf p`.
    SubjectsOf(Box<str>),
    /// `sh:targetObjectsOf p`.
    ObjectsOf(Box<str>),
}

/// One shape node of the shapes graph, read but not yet resolved.
#[derive(Debug, Default)]
pub(crate) struct RawShape {
    pub deactivated: bool,
    pub severity: Option<String>,
    pub messages: Vec<String>,
    pub targets: Vec<TargetDecl>,
    pub path: Option<Path>,
    pub min_count: Option<u32>,
    pub max_count: Option<u32>,
    /// Value tests translated straight to engine node constraints.
    pub tests: Vec<(Component, NodeConstraint)>,
    /// `sh:class` object IRIs.
    pub classes: Vec<Box<str>>,
    /// `sh:node` object shape nodes.
    pub node_refs: Vec<TermId>,
    /// `sh:hasValue` terms.
    pub has_values: Vec<Term>,
    /// `sh:property` child shape nodes.
    pub properties: Vec<TermId>,
    pub and: Vec<Vec<TermId>>,
    pub or: Vec<Vec<TermId>>,
    pub xone: Vec<Vec<TermId>>,
    pub not: Vec<TermId>,
    pub closed: bool,
    pub ignored: Vec<Box<str>>,
}

/// Reads every shape reachable from the discovery seeds. Keys are the
/// shape's node in the *shapes* pool; iteration order (pool id order) is
/// the deterministic compile order.
pub(crate) fn read_shapes(ds: &Dataset) -> Result<BTreeMap<TermId, RawShape>, ShaclError> {
    let r = Reader { ds };
    let mut queue: Vec<TermId> = r.seeds();
    let mut shapes = BTreeMap::new();
    while let Some(id) = queue.pop() {
        if shapes.contains_key(&id) {
            continue;
        }
        let raw = r.parse_shape(id)?;
        for child in raw
            .properties
            .iter()
            .chain(raw.node_refs.iter())
            .chain(raw.not.iter())
            .chain(raw.and.iter().flatten())
            .chain(raw.or.iter().flatten())
            .chain(raw.xone.iter().flatten())
        {
            queue.push(*child);
        }
        shapes.insert(id, raw);
    }
    Ok(shapes)
}

struct Reader<'a> {
    ds: &'a Dataset,
}

impl<'a> Reader<'a> {
    fn pid(&self, iri: &str) -> Option<TermId> {
        self.ds.iri(iri)
    }

    fn objects(&self, s: TermId, p: &str) -> Vec<TermId> {
        match self.pid(p) {
            Some(p) => self.ds.graph.objects(s, p).collect(),
            None => Vec::new(),
        }
    }

    /// Shape discovery seeds: nodes typed as shapes, nodes with a target,
    /// and subjects using `sh:property`. Everything else is reached by
    /// following `sh:property` / `sh:node` / logical-operator edges.
    fn seeds(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        let type_id = self.pid(rdf::TYPE);
        let shape_classes: Vec<TermId> = [sh::NODE_SHAPE, sh::PROPERTY_SHAPE]
            .iter()
            .filter_map(|c| self.pid(c))
            .collect();
        let seed_preds: Vec<TermId> = [
            sh::TARGET_CLASS,
            sh::TARGET_NODE,
            sh::TARGET_SUBJECTS_OF,
            sh::TARGET_OBJECTS_OF,
            sh::PROPERTY,
        ]
        .iter()
        .filter_map(|p| self.pid(p))
        .collect();
        for s in self.ds.graph.subjects() {
            for &(p, o) in self.ds.graph.neighbourhood(s) {
                let typed = Some(p) == type_id && shape_classes.contains(&o);
                if typed || seed_preds.contains(&p) {
                    out.push(s);
                    break;
                }
            }
        }
        out
    }

    /// Walks an `rdf:first`/`rdf:rest` list. Rejects malformed lists
    /// (missing links, cycles) with `E003`.
    fn read_list(&self, head: TermId) -> Result<Vec<TermId>, ShaclError> {
        let nil = self.pid(rdf::NIL);
        let mut items = Vec::new();
        let mut seen = Vec::new();
        let mut cur = head;
        loop {
            if Some(cur) == nil {
                return Ok(items);
            }
            if seen.contains(&cur) {
                return Err(err("E003", "rdf list contains a cycle"));
            }
            seen.push(cur);
            let first = self.objects(cur, rdf::FIRST);
            let rest = self.objects(cur, rdf::REST);
            match (first.as_slice(), rest.as_slice()) {
                (&[f], &[r]) => {
                    items.push(f);
                    cur = r;
                }
                _ => {
                    return Err(err(
                        "E003",
                        format!(
                            "malformed rdf list at {}: expected exactly one rdf:first and rdf:rest",
                            self.ds.pool.term(cur)
                        ),
                    ))
                }
            }
        }
    }

    fn iri_of(&self, id: TermId, what: &str) -> Result<Box<str>, ShaclError> {
        match self.ds.pool.term(id).as_iri() {
            Some(iri) => Ok(iri.into()),
            None => Err(err(
                "E004",
                format!("{what} must be an IRI, got {}", self.ds.pool.term(id)),
            )),
        }
    }

    fn u32_of(&self, id: TermId, what: &str) -> Result<u32, ShaclError> {
        self.ds
            .pool
            .term(id)
            .as_literal()
            .and_then(|l| l.lexical_form().parse::<u32>().ok())
            .ok_or_else(|| {
                err(
                    "E004",
                    format!(
                        "{what} must be a non-negative integer literal, got {}",
                        self.ds.pool.term(id)
                    ),
                )
            })
    }

    fn bool_of(&self, id: TermId, what: &str) -> Result<bool, ShaclError> {
        match self.ds.pool.term(id).as_literal().map(|l| l.lexical_form()) {
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            _ => Err(err("E004", format!("{what} must be \"true\" or \"false\""))),
        }
    }

    fn numeric_of(&self, id: TermId, what: &str) -> Result<Numeric, ShaclError> {
        self.ds
            .pool
            .term(id)
            .as_literal()
            .and_then(Numeric::of_literal)
            .ok_or_else(|| {
                err(
                    "E004",
                    format!(
                        "{what} must be a numeric literal, got {}",
                        self.ds.pool.term(id)
                    ),
                )
            })
    }

    /// Parses a `sh:path` object: a bare IRI (forward) or a blank node
    /// carrying exactly `sh:inversePath <iri>`. Every other path form —
    /// sequences, alternatives, `sh:zeroOrMorePath` and friends — is
    /// outside the engine's arc language and is rejected.
    fn parse_path(&self, id: TermId) -> Result<Path, ShaclError> {
        let term = self.ds.pool.term(id);
        if let Some(iri) = term.as_iri() {
            return Ok(Path::Forward(iri.into()));
        }
        let inv = self.objects(id, sh::INVERSE_PATH);
        if let &[obj] = inv.as_slice() {
            // The blank node must carry nothing but the inverse marker.
            if self.ds.graph.neighbourhood(id).len() == 1 {
                return Ok(Path::Inverse(self.iri_of(obj, "sh:inversePath object")?));
            }
        }
        Err(err(
            "E002",
            format!(
                "unsupported sh:path form at {}: only a predicate IRI or \
                 [ sh:inversePath <iri> ] translate to engine arcs",
                term
            ),
        ))
    }

    /// Translates a `sh:pattern` string (SPARQL REGEX, substring match)
    /// into the engine's full-match pattern facet: anchors at the ends are
    /// honoured, unanchored ends get an explicit `.*`. Anchors in the
    /// middle of the pattern have no full-match equivalent.
    fn translate_pattern(&self, pattern: &str) -> Result<Box<str>, ShaclError> {
        let mut core = pattern;
        let anchored_start = core.starts_with('^');
        if anchored_start {
            core = &core[1..];
        }
        // A trailing `$` anchors the end unless it is escaped (`\$`).
        let anchored_end = core.ends_with('$') && {
            let backslashes = core[..core.len() - 1]
                .chars()
                .rev()
                .take_while(|&c| c == '\\')
                .count();
            backslashes % 2 == 0
        };
        if anchored_end {
            core = &core[..core.len() - 1];
        }
        let mut depth_ok = true;
        let mut chars = core.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => {
                    chars.next();
                }
                '^' | '$' => depth_ok = false,
                _ => {}
            }
        }
        if !depth_ok {
            return Err(err(
                "E004",
                format!(
                    "sh:pattern {pattern:?}: anchors mid-pattern have no full-match translation"
                ),
            ));
        }
        let full = format!(
            "{}({}){}",
            if anchored_start { "" } else { ".*" },
            core,
            if anchored_end { "" } else { ".*" },
        );
        if let Err(e) = Regex::new(&full) {
            return Err(err(
                "E004",
                format!("sh:pattern {pattern:?} does not parse: {e}"),
            ));
        }
        Ok(full.into())
    }

    fn parse_shape(&self, id: TermId) -> Result<RawShape, ShaclError> {
        let mut raw = RawShape::default();
        let subject = self.ds.pool.term(id).to_string();
        let at = |what: &str| format!("{what} at shape {subject}");
        let type_id = self.pid(rdf::TYPE);
        let rdfs_class = self.pid(rdfs::CLASS);

        // Collect multi-valued parameters first so duplicate handling is
        // explicit; neighbourhood order is insertion order, deterministic.
        for &(p, o) in self.ds.graph.neighbourhood(id) {
            if Some(p) == type_id {
                // `?shape a rdfs:Class` declares the implicit class target.
                if Some(o) == rdfs_class {
                    if let Some(iri) = self.ds.pool.term(id).as_iri() {
                        raw.targets.push(TargetDecl::Class(iri.into()));
                    }
                }
                continue;
            }
            let pred = match self.ds.pool.term(p).as_iri() {
                Some(iri) => iri.to_string(),
                None => continue,
            };
            if !pred.starts_with(sh::NS) {
                continue; // foreign annotations are not SHACL parameters
            }
            match pred.as_str() {
                sh::PATH => {
                    if raw.path.is_some() {
                        return Err(err("E004", at("more than one sh:path")));
                    }
                    raw.path = Some(self.parse_path(o)?);
                }
                sh::MIN_COUNT => {
                    if raw.min_count.is_some() {
                        return Err(err("E004", at("more than one sh:minCount")));
                    }
                    raw.min_count = Some(self.u32_of(o, "sh:minCount")?);
                }
                sh::MAX_COUNT => {
                    if raw.max_count.is_some() {
                        return Err(err("E004", at("more than one sh:maxCount")));
                    }
                    raw.max_count = Some(self.u32_of(o, "sh:maxCount")?);
                }
                sh::DATATYPE => {
                    let dt = self.iri_of(o, "sh:datatype")?;
                    raw.tests
                        .push((Component::Datatype, NodeConstraint::Datatype(dt)));
                }
                sh::NODE_KIND => {
                    let kind = self.iri_of(o, "sh:nodeKind")?;
                    let c = match &*kind {
                        sh::IRI => NodeConstraint::Kind(NodeKind::Iri),
                        sh::BLANK_NODE => NodeConstraint::Kind(NodeKind::BNode),
                        sh::LITERAL => NodeConstraint::Kind(NodeKind::Literal),
                        sh::BLANK_NODE_OR_IRI => NodeConstraint::Kind(NodeKind::NonLiteral),
                        sh::BLANK_NODE_OR_LITERAL => {
                            NodeConstraint::Not(Box::new(NodeConstraint::Kind(NodeKind::Iri)))
                        }
                        sh::IRI_OR_LITERAL => {
                            NodeConstraint::Not(Box::new(NodeConstraint::Kind(NodeKind::BNode)))
                        }
                        other => {
                            return Err(err("E004", at(&format!("unknown sh:nodeKind <{other}>"))))
                        }
                    };
                    raw.tests.push((Component::NodeKind, c));
                }
                sh::CLASS => raw.classes.push(self.iri_of(o, "sh:class")?),
                sh::NODE => raw.node_refs.push(o),
                sh::IN => {
                    let values = self
                        .read_list(o)?
                        .into_iter()
                        .map(|v| ValueSetValue::Term(self.ds.pool.term(v).to_term()))
                        .collect();
                    raw.tests
                        .push((Component::In, NodeConstraint::ValueSet(values)));
                }
                sh::HAS_VALUE => raw.has_values.push(self.ds.pool.term(o).to_term()),
                sh::PATTERN => {
                    let lit =
                        self.ds.pool.term(o).as_literal().ok_or_else(|| {
                            err("E004", at("sh:pattern must be a string literal"))
                        })?;
                    let translated = self.translate_pattern(lit.lexical_form())?;
                    raw.tests.push((
                        Component::Pattern,
                        NodeConstraint::Facet(Facet::Pattern(translated.into())),
                    ));
                }
                sh::MIN_LENGTH => {
                    let n = self.u32_of(o, "sh:minLength")? as usize;
                    raw.tests.push((
                        Component::MinLength,
                        NodeConstraint::Facet(Facet::MinLength(n)),
                    ));
                }
                sh::MAX_LENGTH => {
                    let n = self.u32_of(o, "sh:maxLength")? as usize;
                    raw.tests.push((
                        Component::MaxLength,
                        NodeConstraint::Facet(Facet::MaxLength(n)),
                    ));
                }
                sh::LANGUAGE_IN => {
                    let tags: Result<Vec<ValueSetValue>, ShaclError> = self
                        .read_list(o)?
                        .into_iter()
                        .map(|v| {
                            self.ds
                                .pool
                                .term(v)
                                .as_literal()
                                .map(|l| ValueSetValue::Language(l.lexical_form().into()))
                                .ok_or_else(|| {
                                    err("E004", at("sh:languageIn members must be strings"))
                                })
                        })
                        .collect();
                    raw.tests
                        .push((Component::LanguageIn, NodeConstraint::ValueSet(tags?)));
                }
                sh::MIN_INCLUSIVE => raw.tests.push((
                    Component::MinInclusive,
                    NodeConstraint::Facet(Facet::MinInclusive(
                        self.numeric_of(o, "sh:minInclusive")?,
                    )),
                )),
                sh::MIN_EXCLUSIVE => raw.tests.push((
                    Component::MinExclusive,
                    NodeConstraint::Facet(Facet::MinExclusive(
                        self.numeric_of(o, "sh:minExclusive")?,
                    )),
                )),
                sh::MAX_INCLUSIVE => raw.tests.push((
                    Component::MaxInclusive,
                    NodeConstraint::Facet(Facet::MaxInclusive(
                        self.numeric_of(o, "sh:maxInclusive")?,
                    )),
                )),
                sh::MAX_EXCLUSIVE => raw.tests.push((
                    Component::MaxExclusive,
                    NodeConstraint::Facet(Facet::MaxExclusive(
                        self.numeric_of(o, "sh:maxExclusive")?,
                    )),
                )),
                sh::AND => raw.and.push(self.read_list(o)?),
                sh::OR => raw.or.push(self.read_list(o)?),
                sh::XONE => raw.xone.push(self.read_list(o)?),
                sh::NOT => raw.not.push(o),
                sh::PROPERTY => raw.properties.push(o),
                sh::CLOSED => raw.closed = self.bool_of(o, "sh:closed")?,
                sh::IGNORED_PROPERTIES => {
                    for v in self.read_list(o)? {
                        raw.ignored
                            .push(self.iri_of(v, "sh:ignoredProperties member")?);
                    }
                }
                sh::DEACTIVATED => raw.deactivated = self.bool_of(o, "sh:deactivated")?,
                sh::SEVERITY => {
                    let iri = self.iri_of(o, "sh:severity")?;
                    raw.severity = Some(curie(&iri));
                }
                sh::MESSAGE => {
                    if let Some(l) = self.ds.pool.term(o).as_literal() {
                        raw.messages.push(l.lexical_form().to_string());
                    }
                }
                sh::TARGET_CLASS => raw
                    .targets
                    .push(TargetDecl::Class(self.iri_of(o, "sh:targetClass")?)),
                sh::TARGET_NODE => raw
                    .targets
                    .push(TargetDecl::Node(self.ds.pool.term(o).to_term())),
                sh::TARGET_SUBJECTS_OF => raw.targets.push(TargetDecl::SubjectsOf(
                    self.iri_of(o, "sh:targetSubjectsOf")?,
                )),
                sh::TARGET_OBJECTS_OF => raw
                    .targets
                    .push(TargetDecl::ObjectsOf(self.iri_of(o, "sh:targetObjectsOf")?)),
                // Pure annotations: valid SHACL, no validation semantics.
                sh::NAME | sh::DESCRIPTION | sh::ORDER | sh::GROUP | sh::DEFAULT_VALUE => {}
                // Recognised SHACL terms with no translation onto the
                // engine. Failing here — rather than skipping the triple —
                // is what keeps an unsupported shapes graph from
                // validating vacuously (DESIGN.md §5h).
                sh::SPARQL
                | sh::UNIQUE_LANG
                | sh::EQUALS
                | sh::DISJOINT
                | sh::LESS_THAN
                | sh::LESS_THAN_OR_EQUALS
                | sh::QUALIFIED_VALUE_SHAPE
                | sh::QUALIFIED_MIN_COUNT
                | sh::QUALIFIED_MAX_COUNT
                | sh::FLAGS => {
                    return Err(err(
                        "E001",
                        at(&format!("unsupported SHACL term {}", curie(&pred))),
                    ));
                }
                other => {
                    return Err(err(
                        "E001",
                        at(&format!("unrecognised SHACL term {}", curie(other))),
                    ));
                }
            }
        }

        // Structural sanity that is cheap to state here: counts and
        // closedness only make sense with / without a path.
        if raw.path.is_none() && (raw.min_count.is_some() || raw.max_count.is_some()) {
            return Err(err("E004", at("sh:minCount/sh:maxCount require sh:path")));
        }
        if raw.path.is_some() && !raw.properties.is_empty() {
            return Err(err(
                "E006",
                at("sh:property on a property shape (value-node scope) is not translated"),
            ));
        }
        if raw.path.is_some() && raw.closed {
            return Err(err(
                "E006",
                at("sh:closed on a property shape (value-node scope) is not translated"),
            ));
        }
        Ok(raw)
    }
}

/// Shortens a SHACL-namespace IRI to its `sh:` CURIE for messages and
/// report rows; other IRIs render in angle brackets.
pub(crate) fn curie(iri: &str) -> String {
    match iri.strip_prefix(sh::NS) {
        Some(local) => format!("sh:{local}"),
        None => format!("<{iri}>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_rdf::turtle;

    fn read(src: &str) -> Result<BTreeMap<TermId, RawShape>, ShaclError> {
        let ds = turtle::parse(src).expect("shapes parse");
        read_shapes(&ds)
    }

    const PREFIXES: &str = "@prefix sh: <http://www.w3.org/ns/shacl#> .\n\
                            @prefix ex: <http://example.org/> .\n\
                            @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n";

    #[test]
    fn discovers_shapes_and_children() {
        let shapes = read(&format!(
            "{PREFIXES}\
             ex:Person a sh:NodeShape ;\n\
               sh:targetClass ex:PersonC ;\n\
               sh:property [ sh:path ex:name ; sh:minCount 1 ; sh:datatype xsd:string ] ."
        ))
        .unwrap();
        assert_eq!(shapes.len(), 2, "node shape + property child");
        let person = shapes
            .values()
            .find(|s| !s.targets.is_empty())
            .expect("targeted shape");
        assert_eq!(person.properties.len(), 1);
        let child = &shapes[&person.properties[0]];
        assert_eq!(
            child.path,
            Some(Path::Forward("http://example.org/name".into()))
        );
        assert_eq!(child.min_count, Some(1));
        assert_eq!(child.tests.len(), 1);
    }

    #[test]
    fn inverse_path_parses_and_sequence_path_rejected() {
        let shapes = read(&format!(
            "{PREFIXES}\
             ex:S a sh:NodeShape ;\n\
               sh:property [ sh:path [ sh:inversePath ex:member ] ; sh:minCount 1 ] ."
        ))
        .unwrap();
        let child = shapes.values().find(|s| s.path.is_some()).unwrap();
        assert!(child.path.as_ref().unwrap().is_inverse());

        let e = read(&format!(
            "{PREFIXES}ex:S a sh:NodeShape ; sh:property [ sh:path ( ex:a ex:b ) ] ."
        ))
        .unwrap_err();
        assert_eq!(e.code, "E002");
    }

    #[test]
    fn unsupported_terms_fail_not_skip() {
        for (term, frag) in [
            ("sh:uniqueLang", "sh:uniqueLang true"),
            ("sh:equals", "sh:equals ex:other"),
            ("sh:lessThan", "sh:lessThan ex:other"),
            ("sh:qualifiedMinCount", "sh:qualifiedMinCount 1"),
            ("sh:flags", "sh:flags \"i\""),
        ] {
            let e = read(&format!(
                "{PREFIXES}ex:S a sh:NodeShape ; sh:property [ sh:path ex:p ; {frag} ] ."
            ))
            .unwrap_err();
            assert_eq!(e.code, "E001", "{term} must be rejected, got {e}");
            assert!(e.to_string().contains(term), "{e} should name {term}");
        }
        // sh:sparql sits on the node shape itself.
        let e = read(&format!(
            "{PREFIXES}ex:S a sh:NodeShape ; sh:targetNode ex:n ; sh:sparql [ ] ."
        ))
        .unwrap_err();
        assert_eq!(e.code, "E001");
        assert!(e.to_string().contains("sh:sparql"));
    }

    #[test]
    fn unknown_sh_term_rejected() {
        let e = read(&format!(
            "{PREFIXES}ex:S a sh:NodeShape ; sh:frobnicate true ."
        ))
        .unwrap_err();
        assert_eq!(e.code, "E001");
        assert!(e.to_string().contains("sh:frobnicate"));
    }

    #[test]
    fn list_cycle_detected() {
        // Hand-built cyclic list: _:l rdf:first 1 ; rdf:rest _:l .
        let src = format!(
            "{PREFIXES}\
             @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n\
             ex:S a sh:NodeShape ; sh:property [ sh:path ex:p ; sh:in _:l ] .\n\
             _:l rdf:first 1 ; rdf:rest _:l ."
        );
        let e = read(&src).unwrap_err();
        assert_eq!(e.code, "E003");
    }

    #[test]
    fn pattern_translation_honours_anchors() {
        let ds = turtle::parse(PREFIXES).unwrap();
        let r = Reader { ds: &ds };
        assert_eq!(&*r.translate_pattern("ab").unwrap(), ".*(ab).*");
        assert_eq!(&*r.translate_pattern("^ab$").unwrap(), "(ab)");
        assert_eq!(&*r.translate_pattern("^a|b").unwrap(), "(a|b).*");
        assert!(r.translate_pattern("a^b").is_err());
        assert!(r.translate_pattern("(unclosed").is_err());
    }

    #[test]
    fn implicit_class_target() {
        let shapes = read(&format!(
            "{PREFIXES}\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             ex:PersonC a rdfs:Class, sh:NodeShape ;\n\
               sh:property [ sh:path ex:name ; sh:minCount 1 ] ."
        ))
        .unwrap();
        let person = shapes.values().find(|s| !s.properties.is_empty()).unwrap();
        assert!(
            matches!(&person.targets[..], [TargetDecl::Class(c)] if &**c == "http://example.org/PersonC")
        );
    }
}
