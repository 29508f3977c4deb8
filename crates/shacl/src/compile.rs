//! Compiling raw SHACL shapes onto the derivative engine.
//!
//! The central translation (DESIGN.md §5h): every property shape on a
//! single-predicate path `p` becomes a counted arc `(p → C){min,max}` of
//! the engine's regular shape-expression language, the shape's paths are
//! conjoined with the partition operator `‖`, and the engine is run with
//! the *open* closure so only mentioned predicates are gathered. Under
//! that combination the partition semantics coincide exactly with SHACL's
//! per-path counting semantics. Constraints the algebra cannot express on
//! arcs — focus-node tests, `sh:and`/`sh:or`/`sh:not`/`sh:xone` between
//! shapes, attribution — are kept in a thin front-end layer evaluated by
//! [`crate::validate`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

use shapex_rdf::graph::Dataset;
use shapex_rdf::pool::TermId;
use shapex_rdf::term::Term;
use shapex_rdf::vocab::rdf;
use shapex_shex::ast::{ArcConstraint, ObjectConstraint, PredicateSet, ShapeExpr, ShapeLabel};
use shapex_shex::constraint::{NodeConstraint, ValueSetValue};
use shapex_shex::schema::Schema;

use crate::model::{self, Component, Path, RawShape, TargetDecl};
use crate::{err, ShaclError};

/// A compiled SHACL schema: the engine-facing regular shape expressions
/// plus the front-end metadata (targets, focus tests, logic, attribution
/// structure) the validator layers on top.
#[derive(Debug)]
pub struct ShaclSchema {
    pub(crate) shapes: Vec<CompiledShape>,
    pub(crate) engine: Schema,
}

impl ShaclSchema {
    /// Number of compiled shapes (node and property shapes).
    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }
}

/// One shape after resolution, detached from the shapes-graph pool.
#[derive(Debug)]
pub(crate) struct CompiledShape {
    /// Rendered shapes-graph term (`<iri>` / `_:b`), used as
    /// `sh:sourceShape` in reports and as the engine label.
    pub label: String,
    pub deactivated: bool,
    pub severity: String,
    pub message: Option<String>,
    pub targets: Vec<TargetDecl>,
    /// Tests on the focus node itself (node-shape value constraints).
    pub focus: Vec<(Component, NodeConstraint)>,
    /// Node-level `sh:class`: engine-checked via `rdf:type` arcs, listed
    /// here so attribution can name the missing class.
    pub focus_classes: Vec<Box<str>>,
    /// Property shapes attached via `sh:property` (or the shape itself,
    /// when it is a property shape), in shapes-graph order.
    pub groups: Vec<Group>,
    /// Per-value membership checks the engine expression does not cover.
    pub value_checks: Vec<ValueCheck>,
    pub logic: Vec<LogicOp>,
    pub closed: Option<ClosedSpec>,
    /// Engine shape to check the focus node against, when the shape has
    /// any structural (neighbourhood) component.
    pub engine_label: Option<ShapeLabel>,
}

/// One property shape: the attribution-facing view of a counted arc.
#[derive(Debug)]
pub(crate) struct Group {
    pub label: String,
    pub path: Path,
    pub min: Option<u32>,
    pub max: Option<u32>,
    pub tests: Vec<(Component, NodeConstraint)>,
    pub classes: Vec<Box<str>>,
    /// Resolved structural `sh:node` references (pure-engine shapes),
    /// checked per value via the engine.
    pub refs: Vec<usize>,
    pub has_values: Vec<Term>,
    pub severity: String,
    pub message: Option<String>,
}

/// A per-value check the front end runs over a path's value nodes when a
/// path combines arc-expressible constraints with class/shape membership
/// (the arc object is a single constraint; membership of *another* node's
/// neighbourhood needs an engine query per value). Pure cases — a lone
/// `sh:node`, a lone `sh:class` set — compile to arc `Ref`s instead and
/// never appear here.
#[derive(Debug, Clone)]
pub(crate) struct ValueCheck {
    pub path: Path,
    pub classes: Vec<Box<str>>,
    pub refs: Vec<usize>,
}

/// Verdict-level logical operators between shapes. SHACL's shape-level
/// booleans talk about *conformance verdicts*, which the engine's `‖`/`|`
/// operators (partition and alternation of neighbourhoods) do not model,
/// so these stay in the front end.
#[derive(Debug, Clone)]
pub(crate) enum LogicOp {
    And(Vec<usize>),
    Or(Vec<usize>),
    Not(usize),
    Xone(Vec<usize>),
    /// `sh:node` on a node shape: conjunction with another shape.
    Node(usize),
}

/// `sh:closed true` bookkeeping for attribution: predicates that are
/// legitimately present (mentioned forward paths and ignored properties).
#[derive(Debug)]
pub(crate) struct ClosedSpec {
    pub mentioned: Vec<Box<str>>,
    pub ignored: Vec<Box<str>>,
}

/// Compiles a SHACL shapes graph (parsed with the Turtle or N-Triples
/// front end) into a [`ShaclSchema`]. Every SHACL Core term is either
/// translated or rejected with a term-identified error — never silently
/// dropped (see DESIGN.md §5h for the full mapping table).
pub fn compile(shapes_graph: &Dataset) -> Result<ShaclSchema, ShaclError> {
    let raws = model::read_shapes(shapes_graph)?;
    let ids: Vec<TermId> = raws.keys().copied().collect();
    let idx_of: HashMap<TermId, usize> = ids.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let labels: Vec<String> = ids
        .iter()
        .map(|&t| shapes_graph.pool.term(t).to_string())
        .collect();

    let ctx = Ctx {
        raws: &raws,
        ids: &ids,
        idx_of: &idx_of,
        labels: &labels,
    };

    // Front-end structure first (groups, focus tests, logic)…
    let mut shapes = Vec::with_capacity(ids.len());
    for &id in &ids {
        shapes.push(ctx.build_shape(id)?);
    }
    check_logic_acyclic(&shapes)?;

    // …then the engine rules, one per shape with structural content,
    // plus auxiliary `rdf:type` shapes for `sh:class` value checks.
    let mut aux: BTreeMap<Vec<Box<str>>, ShapeLabel> = BTreeMap::new();
    let mut rules: Vec<(ShapeLabel, ShapeExpr)> = Vec::new();
    for shape in &mut shapes {
        let (expr, checks) = ctx.build_expr(shape, &mut aux)?;
        shape.value_checks = checks;
        if let Some(expr) = expr {
            let label = ShapeLabel::new(shape.label.clone());
            shape.engine_label = Some(label.clone());
            rules.push((label, expr));
        }
    }
    for (classes, label) in &aux {
        rules.push((label.clone(), class_expr(classes)));
    }
    let engine = Schema::from_rules(rules)
        .map_err(|e| err("E008", format!("engine schema rejected: {e:?}")))?;
    fill_mentioned(&mut shapes);
    Ok(ShaclSchema { shapes, engine })
}

struct Ctx<'a> {
    raws: &'a BTreeMap<TermId, RawShape>,
    ids: &'a [TermId],
    idx_of: &'a HashMap<TermId, usize>,
    labels: &'a [String],
}

impl<'a> Ctx<'a> {
    fn raw(&self, idx: usize) -> &RawShape {
        &self.raws[&self.ids[idx]]
    }

    /// Folds a shape into a single node constraint, when it tests nothing
    /// but the node itself (no path, no structure, only value tests and
    /// logic over foldable shapes). This is what lets `sh:or` between
    /// value-testable shapes live inside one arc as
    /// [`NodeConstraint::AnyOf`] instead of forcing verdict-level logic.
    fn fold(&self, idx: usize, visiting: &mut Vec<usize>) -> Option<NodeConstraint> {
        if visiting.contains(&idx) {
            return None;
        }
        let raw = self.raw(idx);
        if raw.deactivated {
            // A deactivated shape conforms by definition.
            return Some(NodeConstraint::Any);
        }
        if raw.path.is_some() || !raw.properties.is_empty() || !raw.classes.is_empty() || raw.closed
        {
            return None;
        }
        visiting.push(idx);
        let result = (|| {
            let mut parts: Vec<NodeConstraint> = raw.tests.iter().map(|(_, c)| c.clone()).collect();
            for t in &raw.has_values {
                parts.push(NodeConstraint::ValueSet(vec![ValueSetValue::Term(
                    t.clone(),
                )]));
            }
            for list in &raw.and {
                for &op in list {
                    parts.push(self.fold(self.idx_of[&op], visiting)?);
                }
            }
            for list in &raw.or {
                let members = list
                    .iter()
                    .map(|&op| self.fold(self.idx_of[&op], visiting))
                    .collect::<Option<Vec<_>>>()?;
                parts.push(NodeConstraint::AnyOf(members));
            }
            for list in &raw.xone {
                let members = list
                    .iter()
                    .map(|&op| self.fold(self.idx_of[&op], visiting))
                    .collect::<Option<Vec<_>>>()?;
                parts.push(xone_constraint(members));
            }
            for &op in &raw.not {
                parts.push(NodeConstraint::Not(Box::new(
                    self.fold(self.idx_of[&op], visiting)?,
                )));
            }
            for &op in &raw.node_refs {
                parts.push(self.fold(self.idx_of[&op], visiting)?);
            }
            Some(flatten_all_of(parts))
        })();
        visiting.pop();
        result
    }

    /// True when the shape compiles entirely onto the engine: checking the
    /// engine shape *is* checking the SHACL shape. Only such shapes can be
    /// `sh:node` targets at arc level (`ObjectConstraint::Ref`).
    fn pure_engine(&self, idx: usize) -> bool {
        let raw = self.raw(idx);
        if raw.deactivated
            || !raw.and.is_empty()
            || !raw.or.is_empty()
            || !raw.xone.is_empty()
            || !raw.not.is_empty()
        {
            return false;
        }
        if raw.path.is_some() {
            true // a property shape's whole meaning is its arc
        } else {
            raw.tests.is_empty() && raw.has_values.is_empty() && raw.node_refs.is_empty()
        }
    }

    /// True when the shape contributes any engine rule at all.
    fn has_engine(&self, idx: usize) -> bool {
        let raw = self.raw(idx);
        raw.path.is_some() || !raw.properties.is_empty() || !raw.classes.is_empty() || raw.closed
    }

    /// Resolves value-level `sh:node` references on a property shape:
    /// foldable targets merge into the arc's node constraint, pure-engine
    /// targets become engine references (an arc `Ref` when alone on the
    /// path, a per-value check otherwise), anything else is an
    /// unsupported combination (`E006`).
    fn resolve_value_refs(
        &self,
        raw: &RawShape,
        shape_label: &str,
        tests: &mut Vec<(Component, NodeConstraint)>,
    ) -> Result<Vec<usize>, ShaclError> {
        let mut refs: Vec<usize> = Vec::new();
        for &r in &raw.node_refs {
            let idx = self.idx_of[&r];
            if self.raw(idx).deactivated {
                continue;
            }
            if let Some(c) = self.fold(idx, &mut Vec::new()) {
                tests.push((Component::Node, c));
            } else if self.pure_engine(idx) {
                if self.has_engine(idx) {
                    refs.push(idx);
                }
            } else {
                return Err(err(
                    "E006",
                    format!(
                        "sh:node target {} at {shape_label} mixes focus-level and structural \
                         constraints; an arc object is either a node test or a shape reference",
                        self.labels[idx]
                    ),
                ));
            }
        }
        refs.sort_unstable();
        refs.dedup();
        Ok(refs)
    }

    /// Builds the attribution-facing view of a property shape.
    fn build_group(&self, idx: usize) -> Result<Group, ShaclError> {
        let raw = self.raw(idx);
        let label = self.labels[idx].clone();
        let path = raw
            .path
            .clone()
            .ok_or_else(|| err("E005", format!("sh:property target {label} has no sh:path")))?;
        let mut tests = raw.tests.clone();
        for (component, lists) in [
            (Component::And, &raw.and),
            (Component::Or, &raw.or),
            (Component::Xone, &raw.xone),
        ] {
            for list in lists {
                let members = list
                    .iter()
                    .map(|&op| self.fold(self.idx_of[&op], &mut Vec::new()))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| self.value_logic_err(&label, component))?;
                let folded = match component {
                    Component::And => flatten_all_of(members),
                    Component::Or => NodeConstraint::AnyOf(members),
                    _ => xone_constraint(members),
                };
                tests.push((component, folded));
            }
        }
        for &op in &raw.not {
            let inner = self
                .fold(self.idx_of[&op], &mut Vec::new())
                .ok_or_else(|| self.value_logic_err(&label, Component::Not))?;
            tests.push((Component::Not, NodeConstraint::Not(Box::new(inner))));
        }
        let refs = self.resolve_value_refs(raw, &label, &mut tests)?;
        let mut classes = raw.classes.clone();
        classes.sort_unstable();
        classes.dedup();
        let mut has_values = raw.has_values.clone();
        has_values.dedup();
        Ok(Group {
            label,
            path,
            min: raw.min_count,
            max: raw.max_count,
            tests,
            classes,
            refs,
            has_values,
            severity: raw
                .severity
                .clone()
                .unwrap_or_else(|| "sh:Violation".into()),
            message: join_messages(&raw.messages),
        })
    }

    fn value_logic_err(&self, label: &str, component: Component) -> ShaclError {
        err(
            "E006",
            format!(
                "{} at property shape {label}: logical operands applied to value nodes \
                 must be value-testable shapes (no sh:path/sh:property/sh:class/sh:closed)",
                component.iri()
            ),
        )
    }

    fn build_shape(&self, id: TermId) -> Result<CompiledShape, ShaclError> {
        let idx = self.idx_of[&id];
        let raw = self.raw(idx);
        let label = self.labels[idx].clone();
        let mut shape = CompiledShape {
            label: label.clone(),
            deactivated: raw.deactivated,
            severity: raw
                .severity
                .clone()
                .unwrap_or_else(|| "sh:Violation".into()),
            message: join_messages(&raw.messages),
            targets: raw.targets.clone(),
            focus: Vec::new(),
            focus_classes: Vec::new(),
            groups: Vec::new(),
            value_checks: Vec::new(),
            logic: Vec::new(),
            closed: None,
            engine_label: None,
        };
        if raw.path.is_some() {
            // A property shape validates its targets through its own arc.
            shape.groups.push(self.build_group(idx)?);
            return Ok(shape);
        }
        shape.focus = raw.tests.clone();
        for t in &raw.has_values {
            shape.focus.push((
                Component::HasValue,
                NodeConstraint::ValueSet(vec![ValueSetValue::Term(t.clone())]),
            ));
        }
        shape.focus_classes = raw.classes.clone();
        shape.focus_classes.sort_unstable();
        shape.focus_classes.dedup();
        for (component, lists) in [
            (Component::And, &raw.and),
            (Component::Or, &raw.or),
            (Component::Xone, &raw.xone),
        ] {
            for list in lists {
                let folded = list
                    .iter()
                    .map(|&op| self.fold(self.idx_of[&op], &mut Vec::new()))
                    .collect::<Option<Vec<_>>>();
                match (component, folded) {
                    (Component::And, Some(ms)) => shape.focus.push((component, flatten_all_of(ms))),
                    (Component::Or, Some(ms)) => {
                        shape.focus.push((component, NodeConstraint::AnyOf(ms)))
                    }
                    (_, Some(ms)) => shape.focus.push((component, xone_constraint(ms))),
                    (_, None) => {
                        let ops: Vec<usize> = list.iter().map(|&op| self.idx_of[&op]).collect();
                        shape.logic.push(match component {
                            Component::And => LogicOp::And(ops),
                            Component::Or => LogicOp::Or(ops),
                            _ => LogicOp::Xone(ops),
                        });
                    }
                }
            }
        }
        for &op in &raw.not {
            let op_idx = self.idx_of[&op];
            match self.fold(op_idx, &mut Vec::new()) {
                Some(c) => shape
                    .focus
                    .push((Component::Not, NodeConstraint::Not(Box::new(c)))),
                None => shape.logic.push(LogicOp::Not(op_idx)),
            }
        }
        for &op in &raw.node_refs {
            let op_idx = self.idx_of[&op];
            if self.raw(op_idx).deactivated {
                continue;
            }
            match self.fold(op_idx, &mut Vec::new()) {
                Some(c) => shape.focus.push((Component::Node, c)),
                None => shape.logic.push(LogicOp::Node(op_idx)),
            }
        }
        for &child in &raw.properties {
            shape.groups.push(self.build_group(self.idx_of[&child])?);
        }
        if raw.closed {
            shape.closed = Some(ClosedSpec {
                mentioned: Vec::new(), // filled by build_expr
                ignored: raw.ignored.clone(),
            });
        }
        Ok(shape)
    }

    /// Merges a shape's property groups per path and builds its engine
    /// expression, plus the per-value residue checks for paths that mix
    /// class/shape membership with arc-expressible constraints. The
    /// expression is `None` when the shape has no structural part.
    fn build_expr(
        &self,
        shape: &CompiledShape,
        aux: &mut BTreeMap<Vec<Box<str>>, ShapeLabel>,
    ) -> Result<(Option<ShapeExpr>, Vec<ValueCheck>), ShaclError> {
        #[derive(Default)]
        struct Slot {
            min: u32,
            max: Option<u32>,
            tests: Vec<NodeConstraint>,
            classes: BTreeSet<Box<str>>,
            refs: Vec<usize>,
            has: Vec<Term>,
        }
        let mut slots: BTreeMap<(bool, Box<str>), Slot> = BTreeMap::new();
        for g in &shape.groups {
            let slot = slots
                .entry((g.path.is_inverse(), g.path.iri().into()))
                .or_default();
            slot.min = slot.min.max(g.min.unwrap_or(0));
            slot.max = match (slot.max, g.max) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            slot.tests.extend(g.tests.iter().map(|(_, c)| c.clone()));
            slot.classes.extend(g.classes.iter().cloned());
            slot.refs.extend(g.refs.iter().copied());
            for t in &g.has_values {
                if !slot.has.contains(t) {
                    slot.has.push(t.clone());
                }
            }
        }
        // Node-level `sh:class C` is the same check as
        // `sh:path rdf:type ; sh:hasValue C` (direct types; see §5h for
        // the documented entailment deviation).
        for c in &shape.focus_classes {
            let slot = slots.entry((false, rdf::TYPE.into())).or_default();
            let t = Term::iri(&**c);
            if !slot.has.contains(&t) {
                slot.has.push(t);
            }
        }

        let mut exprs: Vec<ShapeExpr> = Vec::new();
        let mut checks: Vec<ValueCheck> = Vec::new();
        let mut mentioned: Vec<Box<str>> = Vec::new();
        for ((inverse, iri), mut slot) in slots {
            if !inverse {
                mentioned.push(iri.clone());
            }
            slot.refs.sort_unstable();
            slot.refs.dedup();
            let mk_arc = |object: NodeConstraint| {
                let arc =
                    ArcConstraint::new(PredicateSet::one(&*iri), ObjectConstraint::Value(object));
                if inverse {
                    arc.inverted()
                } else {
                    arc
                }
            };
            let only_refs = slot.tests.is_empty() && slot.classes.is_empty() && slot.has.is_empty();
            if slot.refs.len() == 1 && only_refs {
                // A lone structural reference is the arc object itself.
                let target = slot.refs[0];
                let arc =
                    ArcConstraint::reference(&*iri, ShapeLabel::new(self.labels[target].clone()));
                let arc = if inverse { arc.inverted() } else { arc };
                exprs.push(counted(arc, slot.min, slot.max));
                continue;
            }
            if slot.refs.is_empty()
                && !slot.classes.is_empty()
                && slot.tests.is_empty()
                && slot.has.is_empty()
            {
                // A lone class set points every value at the shared
                // auxiliary `rdf:type` shape.
                let classes: Vec<Box<str>> = slot.classes.iter().cloned().collect();
                let label = aux
                    .entry(classes.clone())
                    .or_insert_with(|| ShapeLabel::new(format!("class:{}", classes.join("&"))));
                let arc = ArcConstraint::reference(&*iri, label.clone());
                let arc = if inverse { arc.inverted() } else { arc };
                exprs.push(counted(arc, slot.min, slot.max));
                continue;
            }
            // Mixed case: the arc keeps counting and the node tests; class
            // and shape membership of the value nodes becomes a per-value
            // front-end check (an arc object is a single constraint, and
            // membership lives in the *value's* neighbourhood).
            if !slot.refs.is_empty() || !slot.classes.is_empty() {
                checks.push(ValueCheck {
                    path: if inverse {
                        Path::Inverse(iri.clone())
                    } else {
                        Path::Forward(iri.clone())
                    },
                    classes: slot.classes.iter().cloned().collect(),
                    refs: slot.refs.clone(),
                });
            }
            let value = flatten_all_of(slot.tests.clone());
            // `sh:hasValue t` pins one arc per required term; the residual
            // arc carries the remaining cardinality. A max below the
            // number of required terms is unsatisfiable (∅).
            let k = slot.has.len() as u32;
            let resid_max = match slot.max {
                Some(m) if m < k => {
                    exprs.push(ShapeExpr::Empty);
                    continue;
                }
                Some(m) => Some(m - k),
                None => None,
            };
            let resid_min = slot.min.saturating_sub(k);
            if let Some(m) = slot.max {
                if slot.min > m {
                    exprs.push(ShapeExpr::Empty);
                    continue;
                }
            }
            for t in &slot.has {
                let pinned = flatten_all_of(
                    [NodeConstraint::ValueSet(vec![ValueSetValue::Term(
                        t.clone(),
                    )])]
                    .into_iter()
                    .chain(
                        [value.clone()]
                            .into_iter()
                            .filter(|c| *c != NodeConstraint::Any),
                    )
                    .collect(),
                );
                exprs.push(ShapeExpr::Arc(mk_arc(pinned)));
            }
            exprs.push(counted(mk_arc(value), resid_min, resid_max));
        }

        if let Some(spec) = &shape.closed {
            // Phantom wildcard arc with cardinality {0,0}: mentioning `.`
            // widens open-closure gathering to *every* forward triple, and
            // an unlisted predicate then has no arc to match — exactly
            // `sh:closed`. Ignored properties get absorbing `*` arcs.
            exprs.push(ShapeExpr::repeat(
                ShapeExpr::Arc(ArcConstraint::new(
                    PredicateSet::Any,
                    ObjectConstraint::Value(NodeConstraint::Any),
                )),
                0,
                Some(0),
            ));
            for iri in &spec.ignored {
                exprs.push(ShapeExpr::star(ShapeExpr::Arc(ArcConstraint::value(
                    &**iri,
                    NodeConstraint::Any,
                ))));
            }
        }
        if exprs.is_empty() {
            return Ok((None, checks));
        }
        Ok((Some(ShapeExpr::and_all(exprs)), checks))
    }
}

/// `{min,max}` repetition with the common cases lowered to the engine's
/// dedicated operators (which simplify and memoise better).
fn counted(arc: ArcConstraint, min: u32, max: Option<u32>) -> ShapeExpr {
    let e = ShapeExpr::Arc(arc);
    match (min, max) {
        (0, None) => ShapeExpr::star(e),
        (1, None) => ShapeExpr::plus(e),
        (0, Some(1)) => ShapeExpr::opt(e),
        (m, x) => ShapeExpr::repeat(e, m, x),
    }
}

/// The engine expression for the auxiliary `sh:class` shape: one pinned
/// `rdf:type` arc per required class, plus an absorber for the node's
/// other types.
fn class_expr(classes: &[Box<str>]) -> ShapeExpr {
    let mut parts: Vec<ShapeExpr> = classes
        .iter()
        .map(|c| {
            ShapeExpr::repeat(
                ShapeExpr::Arc(ArcConstraint::value(
                    rdf::TYPE,
                    NodeConstraint::ValueSet(vec![ValueSetValue::Term(Term::iri(&**c))]),
                )),
                1,
                Some(1),
            )
        })
        .collect();
    parts.push(ShapeExpr::star(ShapeExpr::Arc(ArcConstraint::value(
        rdf::TYPE,
        NodeConstraint::Any,
    ))));
    ShapeExpr::and_all(parts)
}

/// `sh:xone` over value-testable members: exactly one matches, spelled as
/// a disjunction of "this one and none of the others".
fn xone_constraint(members: Vec<NodeConstraint>) -> NodeConstraint {
    if members.is_empty() {
        // Zero operands can never have exactly one match.
        return NodeConstraint::Not(Box::new(NodeConstraint::Any));
    }
    let branches = (0..members.len())
        .map(|i| {
            let parts = members
                .iter()
                .enumerate()
                .map(|(j, c)| {
                    if i == j {
                        c.clone()
                    } else {
                        NodeConstraint::Not(Box::new(c.clone()))
                    }
                })
                .collect();
            flatten_all_of(parts)
        })
        .collect();
    NodeConstraint::AnyOf(branches)
}

fn flatten_all_of(mut parts: Vec<NodeConstraint>) -> NodeConstraint {
    parts.retain(|c| *c != NodeConstraint::Any);
    match parts.len() {
        0 => NodeConstraint::Any,
        1 => parts.pop().expect("one element"),
        _ => NodeConstraint::AllOf(parts),
    }
}

fn join_messages(messages: &[String]) -> Option<String> {
    if messages.is_empty() {
        return None;
    }
    let mut sorted = messages.to_vec();
    sorted.sort_unstable();
    Some(sorted.join("; "))
}

/// Records, per closed shape, which forward predicates are legitimately
/// present so attribution can name the offenders: the groups' forward
/// paths, plus `rdf:type` when node-level `sh:class` created a type slot.
/// As in the SHACL spec, `rdf:type` is *not* implicitly allowed — typed
/// nodes under a bare `sh:closed true` need `sh:ignoredProperties`.
fn fill_mentioned(shapes: &mut [CompiledShape]) {
    for shape in shapes {
        let has_classes = !shape.focus_classes.is_empty();
        let Some(spec) = &mut shape.closed else {
            continue;
        };
        let mut mentioned: Vec<Box<str>> = shape
            .groups
            .iter()
            .filter(|g| !g.path.is_inverse())
            .map(|g| g.path.iri().into())
            .collect();
        if has_classes {
            mentioned.push(rdf::TYPE.into());
        }
        mentioned.sort_unstable();
        mentioned.dedup();
        spec.mentioned = mentioned;
    }
}

/// Rejects cycles through verdict-level logic (`sh:and`/`or`/`not`/
/// `xone`/node-level `sh:node`). SHACL leaves recursive shape semantics
/// undefined; arc-level recursion (`sh:node` on values) is well-defined
/// in the engine and allowed, but a verdict that depends on itself is not.
fn check_logic_acyclic(shapes: &[CompiledShape]) -> Result<(), ShaclError> {
    fn visit(shapes: &[CompiledShape], idx: usize, state: &mut [u8]) -> Result<(), ShaclError> {
        match state[idx] {
            1 => {
                return Err(err(
                    "E007",
                    format!(
                        "shape {} participates in a cycle through logical operators; \
                         recursive conformance verdicts are undefined in SHACL",
                        shapes[idx].label
                    ),
                ))
            }
            2 => return Ok(()),
            _ => {}
        }
        state[idx] = 1;
        let ops = shapes[idx].logic.iter().flat_map(|op| match op {
            LogicOp::And(v) | LogicOp::Or(v) | LogicOp::Xone(v) => v.clone(),
            LogicOp::Not(i) | LogicOp::Node(i) => vec![*i],
        });
        for next in ops {
            visit(shapes, next, state)?;
        }
        state[idx] = 2;
        Ok(())
    }
    let mut state = vec![0u8; shapes.len()];
    for idx in 0..shapes.len() {
        visit(shapes, idx, &mut state)?;
    }
    Ok(())
}
