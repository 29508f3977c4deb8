//! Compilation of a [`Schema`] into the engine's internal form: interned
//! predicates, arc tables, and hash-consed expressions.

use std::collections::HashMap;

use shapex_rdf::pool::{TermId, TermPool};
use shapex_shex::ast::{ObjectConstraint, PredicateSet, ShapeExpr, ShapeLabel};
use shapex_shex::constraint::NodeConstraint;
use shapex_shex::display::constraint_to_shexc;
use shapex_shex::schema::{Schema, SchemaError};

use crate::arena::{ArcId, ExprId, ExprPool, Node, Simplify, UNBOUNDED};
use crate::engine::Closure;
use crate::sorbe;

/// Index of a shape in a [`CompiledSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeId(pub u32);

impl ShapeId {
    /// The raw index into the shape table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compiled predicate set: interned ids for fast membership.
#[derive(Debug, Clone)]
pub enum CompiledPredicates {
    /// Wildcard: any predicate.
    Any,
    /// Sorted term ids.
    Ids(Vec<TermId>),
}

impl CompiledPredicates {
    /// Membership test `p ∈ vp` on interned ids.
    pub fn contains(&self, p: TermId) -> bool {
        match self {
            CompiledPredicates::Any => true,
            CompiledPredicates::Ids(ids) => ids.binary_search(&p).is_ok(),
        }
    }

    /// `vp = ∅` (ShExJ can write `"predicates": []`): no triple's
    /// predicate is in the set, so the arc never fires.
    pub fn is_empty(&self) -> bool {
        matches!(self, CompiledPredicates::Ids(ids) if ids.is_empty())
    }
}

/// A compiled object constraint.
#[derive(Debug, Clone)]
pub enum CompiledObject {
    /// Evaluated against the object term (memoised per `(arc, term)`).
    Value(NodeConstraint),
    /// Requires the object to conform to the referenced shape — the §8
    /// *Arcref* rule; evaluation goes through the typing context.
    Ref(ShapeId),
}

/// A compiled arc constraint `vp → vo`.
#[derive(Debug, Clone)]
pub struct CompiledArc {
    /// The predicate set `vp`.
    pub predicates: CompiledPredicates,
    /// The object condition `vo`.
    pub object: CompiledObject,
    /// Matches incoming triples when set (§10 inverse arcs).
    pub inverse: bool,
    /// Owning shape.
    pub shape: ShapeId,
    /// Bit position within the owning shape's satisfaction profiles.
    pub bit: u32,
    /// Human-readable form for diagnostics, e.g. `foaf:age xsd:integer`.
    pub display: String,
}

/// A SORBE conjunct resolved to a compiled arc (see [`crate::sorbe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SorbeSpec {
    /// The conjunct's arc.
    pub arc: ArcId,
    /// Minimum occurrences.
    pub min: u32,
    /// `UNBOUNDED` for `{m,}`.
    pub max: u32,
}

/// Per-shape map from a triple's head `(predicate, direction)` to the arcs
/// whose predicate set covers it, precomputed once at compile time. Profile
/// construction consults this instead of scanning every arc of the shape per
/// triple; it is read-only after compilation and therefore safely shared (by
/// clone) across parallel workers.
///
/// Layout: a sorted key column plus one contiguous arc array holding every
/// bucket back to back. A lookup is a single binary search over `keys`
/// followed by a slice of `explicit` — no hashing, no per-bucket allocation,
/// and clones are three `memcpy`s instead of a `HashMap` rebuild.
#[derive(Debug, Clone, Default)]
pub struct HeadIndex {
    /// Distinct `(predicate, direction)` heads, sorted.
    keys: Vec<(TermId, bool)>,
    /// `offsets[i]..offsets[i + 1]` bounds key `i`'s bucket in `explicit`.
    offsets: Vec<u32>,
    /// All buckets concatenated, each in bit order.
    explicit: Vec<ArcId>,
    wildcard_fwd: Vec<ArcId>,
    wildcard_inv: Vec<ArcId>,
}

impl HeadIndex {
    fn build(arcs: &[ArcId], table: &[CompiledArc]) -> HeadIndex {
        let mut idx = HeadIndex::default();
        // Arcs arrive in bit order, so pairs are pushed in bit order per
        // key; the stable sort below groups keys without reordering a
        // bucket's interior.
        let mut pairs: Vec<((TermId, bool), ArcId)> = Vec::new();
        for &id in arcs {
            let arc = &table[id.index()];
            match &arc.predicates {
                CompiledPredicates::Any => {
                    if arc.inverse {
                        idx.wildcard_inv.push(id);
                    } else {
                        idx.wildcard_fwd.push(id);
                    }
                }
                CompiledPredicates::Ids(ids) => {
                    for &p in ids {
                        pairs.push(((p, arc.inverse), id));
                    }
                }
            }
        }
        pairs.sort_by_key(|&(key, _)| key);
        for (key, id) in pairs {
            if idx.keys.last() != Some(&key) {
                idx.keys.push(key);
                idx.offsets.push(idx.explicit.len() as u32);
            }
            idx.explicit.push(id);
        }
        idx.offsets.push(idx.explicit.len() as u32);
        idx
    }

    /// Arcs that can match a triple with head `(pred, inverse)`, in bit
    /// order within each bucket (explicit predicates first, then wildcard
    /// arcs of the same direction).
    pub fn candidates(&self, pred: TermId, inverse: bool) -> impl Iterator<Item = ArcId> + '_ {
        let wild = if inverse {
            &self.wildcard_inv
        } else {
            &self.wildcard_fwd
        };
        let bucket = match self.keys.binary_search(&(pred, inverse)) {
            Ok(i) => &self.explicit[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        };
        bucket.iter().chain(wild.iter()).copied()
    }
}

/// A compiled shape `λ ↦ e`.
#[derive(Debug, Clone)]
pub struct CompiledShape {
    /// The shape's label `λ`.
    pub label: ShapeLabel,
    /// The compiled expression `δ(λ)`.
    pub expr: ExprId,
    /// `Some` when the shape is in the SORBE subset (§8 future work):
    /// validated by linear counting instead of derivatives.
    pub sorbe: Option<Vec<SorbeSpec>>,
    /// This shape's arcs, in bit order.
    pub arcs: Vec<ArcId>,
    /// Predicates mentioned by forward arcs; `None` if a forward wildcard
    /// predicate occurs (every predicate is relevant then).
    pub forward_predicates: Option<Vec<TermId>>,
    /// Predicates mentioned by inverse arcs; `None` for an inverse
    /// wildcard.
    pub inverse_predicates: Option<Vec<TermId>>,
    /// Whether any arc is inverse (controls incoming-triple gathering).
    pub has_inverse: bool,
    /// Precomputed `(predicate, direction) → candidate arcs` lookup.
    pub head_index: HeadIndex,
    /// Alphabet-class mask: the arc bits *reachable from the compiled
    /// expression*. Simplification can erase arcs (`e{0,0} = ε`), leaving
    /// bits no derivative can observe; satisfaction profiles are masked
    /// with this before interning so triples differing only on
    /// unobservable bits share one derivative class (see [`crate::dfa`]).
    pub class_mask: Box<[u64]>,
}

impl CompiledShape {
    /// Does a triple with predicate `pred` belong to this shape's
    /// neighbourhood `Σg_n`? `inverse` selects incoming triples, and
    /// `pred = None` stands for a predicate no arc of the shape names.
    /// Under closed semantics every outgoing triple counts; under open
    /// semantics only the predicates the shape mentions do. Incoming
    /// triples count only on the predicates the inverse arcs mention: a
    /// node is not responsible for arbitrary incoming triples. Typing
    /// gathers neighbourhoods by this rule and the containment product
    /// builds its alphabet by it.
    #[inline]
    pub fn relevant(&self, closure: Closure, pred: Option<TermId>, inverse: bool) -> bool {
        let mentioned = if inverse {
            if !self.has_inverse {
                return false;
            }
            &self.inverse_predicates
        } else {
            if closure == Closure::Closed {
                return true;
            }
            &self.forward_predicates
        };
        match (mentioned, pred) {
            (None, _) => true,
            (Some(preds), Some(p)) => preds.binary_search(&p).is_ok(),
            (Some(_), None) => false,
        }
    }
}

/// The compiled schema: arcs + shapes + the expression arena.
///
/// `Clone` is deliberate: parallel `type_all` workers each take a private
/// copy (arcs/shapes/index are read-only; the pool diverges per worker as
/// derivatives intern new expressions).
#[derive(Debug, Clone)]
pub struct CompiledSchema {
    /// Every arc constraint across all shapes.
    pub arcs: Vec<CompiledArc>,
    /// The compiled shapes, in declaration order.
    pub shapes: Vec<CompiledShape>,
    index: HashMap<ShapeLabel, ShapeId>,
    /// The shared expression arena.
    pub pool: ExprPool,
    /// Whether any shape can reach itself through references — recursion
    /// depth then depends on the *data*, so uncached checks run on a
    /// dedicated large-stack worker.
    pub has_recursion: bool,
}

impl CompiledSchema {
    /// Compiles `schema`, interning every predicate IRI into `terms`.
    /// Fails if the schema has undefined references.
    pub fn compile(
        schema: &Schema,
        terms: &mut TermPool,
        simplify: Simplify,
    ) -> Result<CompiledSchema, SchemaError> {
        schema.check_references()?;
        schema.check_bounds()?;
        let mut index = HashMap::new();
        for (i, label) in schema.labels().enumerate() {
            index.insert(label.clone(), ShapeId(i as u32));
        }
        let has_recursion = schema.labels().any(|l| schema.is_recursive(l));
        let mut out = CompiledSchema {
            arcs: Vec::new(),
            shapes: Vec::new(),
            index,
            pool: ExprPool::new(simplify),
            has_recursion,
        };
        for (label, expr) in schema.iter() {
            let shape_id = ShapeId(out.shapes.len() as u32);
            let mut ctx = ShapeCtx {
                shape: shape_id,
                arcs: Vec::new(),
                forward: Some(Vec::new()),
                inverse: Some(Vec::new()),
                has_inverse: false,
            };
            let compiled = out.compile_expr(expr, terms, &mut ctx);
            let sorbe = sorbe::classify(expr).map(|conjuncts| {
                conjuncts
                    .iter()
                    .map(|c| SorbeSpec {
                        arc: ctx.arcs[c.arc_pos],
                        min: c.min,
                        max: c.max,
                    })
                    .collect()
            });
            let head_index = HeadIndex::build(&ctx.arcs, &out.arcs);
            let class_mask = reachable_arc_bits(&out.pool, &out.arcs, compiled, ctx.arcs.len());
            out.shapes.push(CompiledShape {
                label: label.clone(),
                expr: compiled,
                sorbe,
                head_index,
                class_mask,
                arcs: ctx.arcs,
                forward_predicates: ctx.forward.map(|mut v| {
                    v.sort();
                    v.dedup();
                    v
                }),
                inverse_predicates: ctx.inverse.map(|mut v| {
                    v.sort();
                    v.dedup();
                    v
                }),
                has_inverse: ctx.has_inverse,
            });
        }
        Ok(out)
    }

    /// Resolves a label to its id.
    pub fn shape_id(&self, label: &ShapeLabel) -> Option<ShapeId> {
        self.index.get(label).copied()
    }

    /// The shape behind an id.
    pub fn shape(&self, id: ShapeId) -> &CompiledShape {
        &self.shapes[id.index()]
    }

    /// The arc behind an id.
    pub fn arc(&self, id: ArcId) -> &CompiledArc {
        &self.arcs[id.index()]
    }

    /// Renders an expression state for diagnostics.
    pub fn render_expr(&self, e: ExprId) -> String {
        self.pool
            .render(e, &|arc| self.arcs[arc.index()].display.clone())
    }

    fn compile_expr(
        &mut self,
        expr: &ShapeExpr,
        terms: &mut TermPool,
        ctx: &mut ShapeCtx,
    ) -> ExprId {
        match expr {
            ShapeExpr::Empty => crate::arena::EMPTY,
            ShapeExpr::Epsilon => crate::arena::EPSILON,
            ShapeExpr::Arc(arc) => {
                let id = ArcId(self.arcs.len() as u32);
                let predicates = match &arc.predicates {
                    PredicateSet::Any => {
                        let slot = if arc.inverse {
                            &mut ctx.inverse
                        } else {
                            &mut ctx.forward
                        };
                        *slot = None;
                        CompiledPredicates::Any
                    }
                    PredicateSet::Iris(iris) => {
                        let mut ids: Vec<TermId> =
                            iris.iter().map(|i| terms.intern_iri(i)).collect();
                        ids.sort();
                        ids.dedup();
                        let slot = if arc.inverse {
                            &mut ctx.inverse
                        } else {
                            &mut ctx.forward
                        };
                        if let Some(v) = slot.as_mut() {
                            v.extend(ids.iter().copied());
                        }
                        CompiledPredicates::Ids(ids)
                    }
                };
                if arc.inverse {
                    ctx.has_inverse = true;
                }
                let object = match &arc.object {
                    ObjectConstraint::Value(c) => CompiledObject::Value(c.clone()),
                    ObjectConstraint::Ref(l) => CompiledObject::Ref(
                        self.index
                            .get(l)
                            .copied()
                            .expect("checked by check_references"),
                    ),
                };
                let display = arc_display(arc);
                let bit = ctx.arcs.len() as u32;
                ctx.arcs.push(id);
                self.arcs.push(CompiledArc {
                    predicates,
                    object,
                    inverse: arc.inverse,
                    shape: ctx.shape,
                    bit,
                    display,
                });
                self.pool.arc(id)
            }
            ShapeExpr::Star(e) => {
                let inner = self.compile_expr(e, terms, ctx);
                self.pool.star(inner)
            }
            // E+ = E ‖ E* (§4)
            ShapeExpr::Plus(e) => {
                let inner = self.compile_expr(e, terms, ctx);
                let star = self.pool.star(inner);
                self.pool.and(inner, star)
            }
            // E? = E | ε (§4)
            ShapeExpr::Opt(e) => {
                let inner = self.compile_expr(e, terms, ctx);
                self.pool.or(inner, crate::arena::EPSILON)
            }
            ShapeExpr::Repeat(e, m, n) => {
                let inner = self.compile_expr(e, terms, ctx);
                self.pool.repeat(inner, *m, n.unwrap_or(UNBOUNDED))
            }
            ShapeExpr::And(a, b) => {
                let ca = self.compile_expr(a, terms, ctx);
                let cb = self.compile_expr(b, terms, ctx);
                self.pool.and(ca, cb)
            }
            ShapeExpr::Or(a, b) => {
                let ca = self.compile_expr(a, terms, ctx);
                let cb = self.compile_expr(b, terms, ctx);
                self.pool.or(ca, cb)
            }
        }
    }
}

/// Collects the shape-local arc bits reachable from `expr` — the shape's
/// compile-time alphabet-class mask. Arcs erased by simplification
/// (`e{0,0} = ε`, annihilated branches) are compiled into the arc table
/// but unreachable from the final expression, so no derivative can read
/// their profile bit; masking them out merges otherwise-identical triple
/// classes.
fn reachable_arc_bits(
    pool: &ExprPool,
    arcs: &[CompiledArc],
    expr: ExprId,
    n_bits: usize,
) -> Box<[u64]> {
    let mut mask = vec![0u64; n_bits.div_ceil(64)];
    let mut seen = vec![false; pool.len()];
    let mut stack = vec![expr];
    while let Some(e) = stack.pop() {
        if std::mem::replace(&mut seen[e.index()], true) {
            continue;
        }
        match pool.node(e) {
            Node::Empty | Node::Epsilon => {}
            Node::Arc(a) => {
                let bit = arcs[a.index()].bit;
                mask[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
            Node::Star(i) | Node::Repeat(i, _, _) => stack.push(i),
            Node::And(a, b) | Node::Or(a, b) => {
                stack.push(a);
                stack.push(b);
            }
        }
    }
    mask.into()
}

struct ShapeCtx {
    shape: ShapeId,
    arcs: Vec<ArcId>,
    forward: Option<Vec<TermId>>,
    inverse: Option<Vec<TermId>>,
    has_inverse: bool,
}

fn arc_display(arc: &shapex_shex::ast::ArcConstraint) -> String {
    let inv = if arc.inverse { "^" } else { "" };
    let pred = match &arc.predicates {
        PredicateSet::Any => ".".to_string(),
        PredicateSet::Iris(iris) if iris.len() == 1 => short_iri(&iris[0]),
        PredicateSet::Iris(iris) => {
            let parts: Vec<_> = iris.iter().map(|i| short_iri(i)).collect();
            format!("({})", parts.join(" "))
        }
    };
    let obj = match &arc.object {
        ObjectConstraint::Ref(l) => format!("@{l}"),
        ObjectConstraint::Value(c) => constraint_display(c),
    };
    format!("{inv}{pred}→{obj}")
}

fn constraint_display(c: &NodeConstraint) -> String {
    match c {
        NodeConstraint::Datatype(dt) => short_iri(dt),
        other => shorten_literals(&constraint_to_shexc(other)),
    }
}

/// Compacts `"N"^^<…XMLSchema#integer>` (and decimal/double) to bare `N`
/// in diagnostic strings — the paper's `b→{1,2}` notation.
fn shorten_literals(s: &str) -> String {
    let mut out = s.to_string();
    for dt in [
        "http://www.w3.org/2001/XMLSchema#integer",
        "http://www.w3.org/2001/XMLSchema#decimal",
        "http://www.w3.org/2001/XMLSchema#double",
    ] {
        let suffix = format!("^^<{dt}>");
        while let Some(pos) = out.find(&suffix) {
            // Find the opening quote of the literal just before `pos`.
            let Some(open) = out[..pos.saturating_sub(1)].rfind('"') else {
                break;
            };
            let lexical = out[open + 1..pos - 1].to_string();
            out.replace_range(open..pos + suffix.len(), &lexical);
        }
    }
    out
}

/// Shortens an IRI to its local name for diagnostics.
fn short_iri(iri: &str) -> String {
    match iri.rfind(['#', '/']) {
        Some(i) if i + 1 < iri.len() => iri[i + 1..].to_string(),
        _ => iri.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Node;
    use shapex_shex::shexc;

    fn compile(src: &str) -> (CompiledSchema, TermPool) {
        let schema = shexc::parse(src).unwrap();
        let mut terms = TermPool::new();
        let c = CompiledSchema::compile(&schema, &mut terms, Simplify::default()).unwrap();
        (c, terms)
    }

    #[test]
    fn example_1_compiles() {
        let (c, terms) = compile(
            r#"
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            <Person> {
              foaf:age xsd:integer
              , foaf:name xsd:string+
              , foaf:knows @<Person>*
            }
            "#,
        );
        assert_eq!(c.shapes.len(), 1);
        assert_eq!(c.arcs.len(), 3);
        let person = c.shape_id(&"Person".into()).unwrap();
        let shape = c.shape(person);
        assert_eq!(shape.arcs.len(), 3);
        // All three foaf predicates interned and recorded as relevant.
        let fwd = shape.forward_predicates.as_ref().unwrap();
        assert_eq!(fwd.len(), 3);
        assert!(terms
            .get(&shapex_rdf::Term::iri(shapex_rdf::vocab::foaf::AGE))
            .is_some());
        // knows arc is a self-reference
        let knows = c.arcs.iter().find(|a| a.display.contains("knows")).unwrap();
        assert!(matches!(knows.object, CompiledObject::Ref(s) if s == person));
        assert!(!shape.has_inverse);
    }

    #[test]
    fn plus_desugars_in_pool() {
        let (c, _) = compile("PREFIX e: <http://e/>\n<S> { e:p .+ }");
        let s = c.shape(ShapeId(0));
        // e+ = e ‖ e*
        let Node::And(a, b) = c.pool.node(s.expr) else {
            panic!("expected And");
        };
        let (arc, star) = if matches!(c.pool.node(a), Node::Arc(_)) {
            (a, b)
        } else {
            (b, a)
        };
        assert!(matches!(c.pool.node(arc), Node::Arc(_)));
        assert!(matches!(c.pool.node(star), Node::Star(_)));
    }

    #[test]
    fn opt_desugars_to_or_epsilon() {
        let (c, _) = compile("PREFIX e: <http://e/>\n<S> { e:p .? }");
        let s = c.shape(ShapeId(0));
        let Node::Or(a, b) = c.pool.node(s.expr) else {
            panic!("expected Or");
        };
        assert!(a == crate::arena::EPSILON || b == crate::arena::EPSILON);
    }

    #[test]
    fn repeat_stays_native() {
        let (c, _) = compile("PREFIX e: <http://e/>\n<S> { e:p .{2,5} }");
        let s = c.shape(ShapeId(0));
        assert!(matches!(c.pool.node(s.expr), Node::Repeat(_, 2, 5)));
    }

    #[test]
    fn wildcard_predicate_clears_relevance() {
        let (c, _) = compile("PREFIX e: <http://e/>\n<S> { e:p ., . IRI }");
        let s = c.shape(ShapeId(0));
        assert!(s.forward_predicates.is_none());
    }

    #[test]
    fn inverse_arcs_tracked() {
        let (c, _) = compile("PREFIX e: <http://e/>\n<S> { ^e:member IRI, e:name . }");
        let s = c.shape(ShapeId(0));
        assert!(s.has_inverse);
        assert_eq!(s.inverse_predicates.as_ref().unwrap().len(), 1);
        assert_eq!(s.forward_predicates.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn undefined_reference_fails_compilation() {
        let schema = shexc::parse("PREFIX e: <http://e/>\n<S> { e:p @<Missing> }").unwrap();
        let mut terms = TermPool::new();
        assert!(CompiledSchema::compile(&schema, &mut terms, Simplify::default()).is_err());
    }

    #[test]
    fn arc_bits_are_shape_local() {
        let (c, _) = compile("PREFIX e: <http://e/>\n<A> { e:p ., e:q . }\n<B> { e:r . }");
        assert_eq!(c.arc(ArcId(0)).bit, 0);
        assert_eq!(c.arc(ArcId(1)).bit, 1);
        // B's first arc restarts at bit 0
        assert_eq!(c.arc(ArcId(2)).bit, 0);
        assert_eq!(c.arc(ArcId(2)).shape, ShapeId(1));
    }

    #[test]
    fn display_is_informative() {
        let (c, _) = compile(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n<S> { foaf:age xsd:integer }",
        );
        assert_eq!(c.arc(ArcId(0)).display, "age→integer");
    }

    #[test]
    fn render_expr_uses_paper_notation() {
        let (c, _) = compile("PREFIX e: <http://e/>\n<S> { e:a [1], e:b [1 2]* }");
        let rendered = c.render_expr(c.shape(ShapeId(0)).expr);
        assert!(rendered.contains('‖'), "{rendered}");
        // Integer value sets render bare, like the paper's b→{1,2}.
        assert!(rendered.contains("b→[1 2]"), "{rendered}");
    }

    #[test]
    fn head_index_matches_hashmap_reference() {
        // Differential check: the binary-search HeadIndex must return the
        // same candidate arcs, in the same order, as a straightforward
        // HashMap-of-buckets build over every head the shape mentions —
        // including heads covered by value-set predicates, wildcards of
        // both directions, and predicates nothing matches.
        let (c, mut terms) = compile(
            r#"
            PREFIX e: <http://e/>
            <S> {
              e:p [1 2]
              , (e:p . | e:q .)
              , ^e:q IRI
              , . .
              , ^. .
              , e:r @<T>*
            }
            <T> { e:q . }
            "#,
        );
        for shape in &c.shapes {
            // Reference build, mirroring the pre-flattening implementation.
            let mut by_pred: HashMap<(TermId, bool), Vec<ArcId>> = HashMap::new();
            let mut wild_fwd = Vec::new();
            let mut wild_inv = Vec::new();
            for &id in &shape.arcs {
                let arc = c.arc(id);
                match &arc.predicates {
                    CompiledPredicates::Any => {
                        if arc.inverse {
                            wild_inv.push(id);
                        } else {
                            wild_fwd.push(id);
                        }
                    }
                    CompiledPredicates::Ids(ids) => {
                        for &p in ids {
                            by_pred.entry((p, arc.inverse)).or_default().push(id);
                        }
                    }
                }
            }
            let mut heads: Vec<(TermId, bool)> = by_pred.keys().copied().collect();
            // Probe an unmentioned predicate too — both sides must agree
            // on the wildcard-only fallback.
            let unmentioned = terms.intern_iri("http://e/unmentioned");
            heads.push((unmentioned, false));
            heads.push((unmentioned, true));
            for (p, inv) in heads {
                let expected: Vec<ArcId> = by_pred
                    .get(&(p, inv))
                    .map(|v| v.as_slice())
                    .unwrap_or(&[])
                    .iter()
                    .chain(if inv { &wild_inv } else { &wild_fwd })
                    .copied()
                    .collect();
                let got: Vec<ArcId> = shape.head_index.candidates(p, inv).collect();
                assert_eq!(got, expected, "head ({p:?}, inverse={inv})");
            }
        }
    }

    #[test]
    fn class_mask_covers_reachable_arcs_only() {
        // `e:p .{0,0}` simplifies to ε, so its arc constraint is compiled
        // (and still owns a profile bit) but is unreachable from the shape
        // expression — the alphabet-class mask must drop that bit while
        // keeping `e:q`'s, so triples differing only on `e:p` fall into
        // the same derivative class.
        let (c, _) = compile("PREFIX e: <http://e/>\n<S> { e:p .{0,0}, e:q . }");
        assert_eq!(c.arcs.len(), 2, "both arcs compile");
        let shape = c.shape(ShapeId(0));
        let q_bit = c.arcs.iter().find(|a| a.display.contains('q')).unwrap().bit;
        let p_bit = c.arcs.iter().find(|a| a.display.contains('p')).unwrap().bit;
        assert_eq!(shape.class_mask.len(), 1);
        assert_eq!(shape.class_mask[0], 1u64 << q_bit);
        assert_eq!(shape.class_mask[0] & (1u64 << p_bit), 0);
    }
}
