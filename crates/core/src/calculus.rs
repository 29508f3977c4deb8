//! The schema calculus: exact emptiness, pairwise shape containment, and
//! schema-to-schema diffing over the compiled expression pool.
//!
//! The validation engine answers "does *this node* conform to *this
//! shape*?"; the calculus answers questions about the shapes themselves:
//!
//! * [`emptiness`] — which shapes have a provably empty language (no graph
//!   conforms), by a greatest fixpoint over the pool with the tri-state
//!   node-constraint checker ([`shapex_shex::sat`]) at the leaves. It is
//!   the only emptiness check: [`lints`] reports its verdicts as
//!   [`Lint::Unsatisfiable`];
//! * [`containment`] — is every neighbourhood accepted by shape `A` also
//!   accepted by shape `B`, decided by a product construction over the
//!   two shapes' derivative automata (Staworko & Wieczorek show this
//!   product decides containment of shape expression schemas; bag
//!   languages of shape expressions are permutation-closed, so the
//!   word-level product is enough);
//! * [`schema_diff`] — given an old and an edited schema, which shapes'
//!   *languages* actually changed (containment both ways), and which
//!   shapes are transitively affected through references — the input to
//!   schema-delta revalidation.
//!
//! The product derives with the engine's own §6 step
//! ([`ExprPool::deriv_step`]) and asks the engine's neighbourhood rule
//! ([`CompiledShape::relevant`]) which triples a shape sees, so its
//! verdicts are about the language the validator accepts.
//!
//! ## The letter alphabet
//!
//! A derivative step consumes one triple, and all the engine ever reads
//! from the triple is its *satisfaction profile* — the set of arcs it can
//! satisfy. The product therefore runs over joint letters: for every
//! triple head `(predicate, direction)` mentioned by either shape (plus
//! one *fresh* predicate per direction standing for everything
//! unmentioned), and every subset `S` of the arcs matching that head, a
//! letter "some triple fires exactly the arcs in `S`". A letter is kept
//! only if it is realizable:
//!
//! * value-object arcs contribute their constraint positively when fired
//!   and negated when matching-but-unfired; the conjunction goes to
//!   [`shapex_shex::sat::conj_sat`]. `Unsat` letters are discarded
//!   (proven unrealizable), `Sat` letters are **exact** (a concrete
//!   witness term exists), `Unknown` letters are kept but **inexact**;
//! * reference-object arcs are treated *symbolically*: `@<X>` is an
//!   uninterpreted predicate on the object keyed by the label name, so
//!   two arcs referencing the same label must fire together, while arcs
//!   referencing different labels may fire independently. Containment is
//!   therefore decided modulo reference names — exactly the congruence
//!   [`schema_diff`] needs, where a changed referenced shape marks its
//!   referrers affected through the closure anyway.
//!
//! ## Verdict honesty
//!
//! [`Verdict::NotContained`] is only reported when a violating product
//! state is reachable through exact letters alone; a violation that needs
//! an inexact letter downgrades to [`Verdict::Undetermined`], as does an
//! arc-subset overflow (more than [`MAX_LETTER_ARCS`] arcs sharing one
//! head). Every transition and every candidate subset charges the
//! [`Budget`] meter, so pathological products return
//! [`Verdict::Exhausted`] instead of hanging.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};

use shapex_rdf::pool::{TermId, TermPool};
use shapex_shex::constraint::NodeConstraint;
use shapex_shex::lints::Lint;
use shapex_shex::sat::{conj_sat, constraint_sat, Sat3};
use shapex_shex::schema::{Schema, SchemaError};
use shapex_shex::ShapeLabel;

use crate::arena::{ArcId, ExprId, ExprPool, Node, Simplify, EMPTY, EPSILON};
use crate::budget::{Budget, BudgetMeter, Exhaustion};
use crate::compile::{CompiledObject, CompiledPredicates, CompiledSchema, CompiledShape, ShapeId};
use crate::engine::Closure;

/// Cap on arcs sharing one `(predicate, direction)` head across both
/// shapes of a containment query: `2^n` subsets are enumerated per head.
/// Overflowing heads are skipped and the query can no longer prove
/// containment (only refute it), so the verdict degrades to
/// [`Verdict::Undetermined`] rather than silently dropping letters.
pub const MAX_LETTER_ARCS: usize = 12;

/// Result of a containment query `A ⊆ B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every neighbourhood accepted by `A` is accepted by `B`, proven by
    /// exhausting the reachable product states.
    Contained,
    /// A distinguishing neighbourhood exists, reachable through exact
    /// (witness-backed) letters only.
    NotContained,
    /// Neither proven: a potential violation sits behind a letter whose
    /// realizability is unknown, or a head overflowed the subset cap.
    Undetermined,
    /// A resource budget tripped before the product was exhausted.
    Exhausted(Exhaustion),
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Contained => write!(f, "contained"),
            Verdict::NotContained => write!(f, "not-contained"),
            Verdict::Undetermined => write!(f, "undetermined"),
            Verdict::Exhausted(e) => write!(f, "exhausted: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Emptiness
// ---------------------------------------------------------------------------

/// Per-shape language emptiness for a compiled schema, indexed by
/// [`ShapeId`]: `Sat3::Unsat` means the shape's language is provably
/// empty, `Sat3::Sat` that a conforming neighbourhood provably exists,
/// `Sat3::Unknown` that the node-constraint checker could not decide.
///
/// Computed as a *greatest* fixpoint — every shape starts satisfiable and
/// verdicts only descend — matching the engine's coinductive typing:
/// `<A> { e:p @<A> }` is satisfiable via a cyclic graph, so recursion
/// through references must not default to empty.
pub fn emptiness(cs: &CompiledSchema) -> Vec<Sat3> {
    let mut state = vec![Sat3::Sat; cs.shapes.len()];
    let mut constraint_memo: HashMap<ArcId, Sat3> = HashMap::new();
    loop {
        let mut memo = HashMap::new();
        let next: Vec<Sat3> = cs
            .shapes
            .iter()
            .map(|s| expr_sat3(cs, s.expr, &state, &mut constraint_memo, &mut memo))
            .collect();
        if next == state {
            return state;
        }
        state = next;
    }
}

/// Emptiness verdict for one pool expression under a fixed per-shape
/// assumption vector. `memo` is per-iteration (it bakes in `state`);
/// `constraint_memo` persists (constraint verdicts are state-free).
fn expr_sat3(
    cs: &CompiledSchema,
    e: ExprId,
    state: &[Sat3],
    constraint_memo: &mut HashMap<ArcId, Sat3>,
    memo: &mut HashMap<ExprId, Sat3>,
) -> Sat3 {
    if let Some(&v) = memo.get(&e) {
        return v;
    }
    let v = match cs.pool.node(e) {
        Node::Empty => Sat3::Unsat,
        // ε, e*, and e{0,n} all accept the empty neighbourhood.
        Node::Epsilon | Node::Star(_) => Sat3::Sat,
        Node::Arc(a) if cs.arc(a).predicates.is_empty() => Sat3::Unsat,
        Node::Arc(a) => match &cs.arc(a).object {
            CompiledObject::Value(c) => *constraint_memo
                .entry(a)
                .or_insert_with(|| constraint_sat(c)),
            CompiledObject::Ref(s) => state[s.index()],
        },
        Node::Repeat(i, m, n) => {
            if n < m {
                // Only representable with simplification disabled.
                Sat3::Unsat
            } else if m == 0 {
                Sat3::Sat
            } else {
                expr_sat3(cs, i, state, constraint_memo, memo)
            }
        }
        Node::And(a, b) => expr_sat3(cs, a, state, constraint_memo, memo).min(expr_sat3(
            cs,
            b,
            state,
            constraint_memo,
            memo,
        )),
        Node::Or(a, b) => expr_sat3(cs, a, state, constraint_memo, memo).max(expr_sat3(
            cs,
            b,
            state,
            constraint_memo,
            memo,
        )),
    };
    memo.insert(e, v);
    v
}

/// Every lint of `schema`: the usage and node-constraint lints of
/// [`shapex_shex::lints::lints`], then [`Lint::Unsatisfiable`] for each
/// shape whose language [`emptiness`] proves empty, in declaration order.
/// Fails as compiling does, so a schema the validator rejects is never
/// linted clean.
pub fn lints(schema: &Schema) -> Result<Vec<Lint>, SchemaError> {
    let cs = CompiledSchema::compile(schema, &mut TermPool::new(), Simplify::default())?;
    let mut out = shapex_shex::lints::lints(schema);
    for (shape, v) in cs.shapes.iter().zip(emptiness(&cs)) {
        if v == Sat3::Unsat {
            out.push(Lint::Unsatisfiable(shape.label.as_str().to_string()));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Containment
// ---------------------------------------------------------------------------

/// One joint letter of the product alphabet: a class of triples firing
/// exactly `fire_a` in shape `A` and `fire_b` in shape `B`. A side that
/// is irrelevant for the letter's head (open semantics filters the
/// predicate out, or an inverse head on a shape with no inverse arcs)
/// keeps its state unchanged instead of deriving.
struct Letter {
    fire_a: Vec<ArcId>,
    fire_b: Vec<ArcId>,
    relevant_a: bool,
    relevant_b: bool,
    /// Backed by a concrete witness term (`conj_sat == Sat`)?
    exact: bool,
}

/// One arc matching the current head, tagged with its side and the facts
/// realizability needs.
struct MatchingArc<'a> {
    is_a: bool,
    id: ArcId,
    /// `Some(constraint)` for value objects.
    value: Option<&'a NodeConstraint>,
    /// `Some(label name)` for reference objects — the uninterpreted
    /// symbol identity.
    symbol: Option<&'a str>,
}

/// Decides `A ⊆ B` over the shapes' neighbourhood languages.
///
/// Both schemas must have been compiled against the **same** [`TermPool`]
/// (so predicate [`TermId`]s are comparable); `a` and `b` may be the same
/// schema. Reference arcs are compared symbolically by label name — see
/// the module docs for what that means for verdict honesty. The `closure`
/// mode must match how the shapes will be validated: open semantics
/// ignores triples whose predicate a shape does not mention, which makes
/// strictly more pairs contained.
pub fn containment(
    a: &CompiledSchema,
    a_id: ShapeId,
    b: &CompiledSchema,
    b_id: ShapeId,
    closure: Closure,
    budget: &Budget,
) -> Verdict {
    let mut meter = budget.meter();
    // Derivatives intern new expressions; work on clones so the compiled
    // schemas stay read-only (and `a` may alias `b`).
    let mut pool_a = a.pool.clone();
    let mut pool_b = b.pool.clone();
    meter.set_arena_baseline(pool_a.len() + pool_b.len());
    let (letters, overflow) = match build_letters(a, a_id, b, b_id, closure, &mut meter) {
        Ok(l) => l,
        Err(e) => return Verdict::Exhausted(e),
    };

    // States are kept in ACI-canonical form (see [`canon`]) so the
    // product closes: derivatives reassociate `And`/`Or` chains freely,
    // and without the quotient the visited set never saturates.
    let mut canon_a: HashMap<ExprId, ExprId> = HashMap::new();
    let mut canon_b: HashMap<ExprId, ExprId> = HashMap::new();
    let start = (
        canon(&mut pool_a, a.shape(a_id).expr, &mut canon_a),
        canon(&mut pool_b, b.shape(b_id).expr, &mut canon_b),
    );
    // Visited product states; the payload records whether the state is
    // known reachable through exact letters alone (upgrades re-enqueue).
    let mut visited: HashMap<(ExprId, ExprId), bool> = HashMap::new();
    visited.insert(start, true);
    let mut work = VecDeque::new();
    work.push_back((start.0, start.1, true));
    let mut inexact_violation = false;
    // Structural derivative memos, one per (letter, side): sub-expressions
    // are shared across states, so these hit often.
    let mut memo_a: Vec<HashMap<ExprId, ExprId>> =
        (0..letters.len()).map(|_| HashMap::new()).collect();
    let mut memo_b: Vec<HashMap<ExprId, ExprId>> =
        (0..letters.len()).map(|_| HashMap::new()).collect();

    while let Some((sa, sb, exact)) = work.pop_front() {
        if pool_a.nullable(sa) && !pool_b.nullable(sb) {
            if exact {
                return Verdict::NotContained;
            }
            inexact_violation = true;
        }
        if sa == EMPTY {
            // A's residual language is empty: no extension is accepted by
            // A, so no violation is reachable from here.
            continue;
        }
        for (i, letter) in letters.iter().enumerate() {
            if let Err(e) = meter.step() {
                return Verdict::Exhausted(e);
            }
            let na = if letter.relevant_a {
                let d = deriv_by_letter(&mut pool_a, &letter.fire_a, sa, &mut memo_a[i]);
                canon(&mut pool_a, d, &mut canon_a)
            } else {
                sa
            };
            let nb = if letter.relevant_b {
                let d = deriv_by_letter(&mut pool_b, &letter.fire_b, sb, &mut memo_b[i]);
                canon(&mut pool_b, d, &mut canon_b)
            } else {
                sb
            };
            if let Err(e) = meter.check_arena(pool_a.len() + pool_b.len()) {
                return Verdict::Exhausted(e);
            }
            let next_exact = exact && letter.exact;
            match visited.entry((na, nb)) {
                Entry::Vacant(v) => {
                    v.insert(next_exact);
                    work.push_back((na, nb, next_exact));
                }
                Entry::Occupied(mut o) => {
                    if next_exact && !*o.get() {
                        o.insert(true);
                        work.push_back((na, nb, true));
                    }
                }
            }
        }
    }
    if inexact_violation || overflow {
        Verdict::Undetermined
    } else {
        Verdict::Contained
    }
}

/// ACI-canonical form of `e`: `And`/`Or` chains are flattened, operands
/// sorted by id (and deduplicated for `Or` — union is idempotent;
/// interleave is not), then re-folded deterministically. Brzozowski's
/// finiteness theorem only holds modulo associativity, commutativity, and
/// idempotence; the arena's binary smart constructors keep too little of
/// that, so the containment product keys its states by this canonical
/// form — without it, reassociated `Or`/`And` shapes proliferate and the
/// BFS never closes. Every rewrite here is a language identity, so the
/// canonical state accepts exactly what the original did.
/// Iterative post-order (explicit work stack, not recursion): derivative
/// chains grow linearly with product depth, deep enough to overflow the
/// call stack on adversarial shapes.
fn canon(pool: &mut ExprPool, root: ExprId, memo: &mut HashMap<ExprId, ExprId>) -> ExprId {
    let mut stack = vec![(root, false)];
    while let Some((e, ready)) = stack.pop() {
        if memo.contains_key(&e) {
            continue;
        }
        if !ready {
            stack.push((e, true));
            match pool.node(e) {
                Node::Empty | Node::Epsilon | Node::Arc(_) => {}
                Node::Star(x) | Node::Repeat(x, _, _) => stack.push((x, false)),
                Node::And(a, b) | Node::Or(a, b) => {
                    stack.push((a, false));
                    stack.push((b, false));
                }
            }
            continue;
        }
        let c = match pool.node(e) {
            Node::Empty | Node::Epsilon | Node::Arc(_) => e,
            Node::Star(x) => {
                let cx = memo[&x];
                pool.star(cx)
            }
            Node::Repeat(x, m, n) => {
                let cx = memo[&x];
                pool.repeat(cx, m, n)
            }
            Node::And(a, b) => {
                let (ca, cb) = (memo[&a], memo[&b]);
                let mut leaves = Vec::new();
                flatten(pool, ca, true, &mut leaves);
                flatten(pool, cb, true, &mut leaves);
                leaves.sort_unstable();
                fold(pool, &leaves, true)
            }
            Node::Or(a, b) => {
                let (ca, cb) = (memo[&a], memo[&b]);
                let mut leaves = Vec::new();
                flatten(pool, ca, false, &mut leaves);
                flatten(pool, cb, false, &mut leaves);
                leaves.sort_unstable();
                leaves.dedup();
                fold(pool, &leaves, false)
            }
        };
        memo.insert(e, c);
    }
    memo[&root]
}

/// Collects the operand leaves of an `And` (or `Or`) chain, left to right.
fn flatten(pool: &ExprPool, e: ExprId, and: bool, out: &mut Vec<ExprId>) {
    let mut stack = vec![e];
    while let Some(e) = stack.pop() {
        match pool.node(e) {
            Node::And(a, b) if and => {
                stack.push(b);
                stack.push(a);
            }
            Node::Or(a, b) if !and => {
                stack.push(b);
                stack.push(a);
            }
            _ => out.push(e),
        }
    }
}

/// Re-folds sorted leaves through the smart constructors.
fn fold(pool: &mut ExprPool, leaves: &[ExprId], and: bool) -> ExprId {
    let mut it = leaves.iter().copied();
    let Some(first) = it.next() else {
        return if and { EPSILON } else { EMPTY };
    };
    it.fold(first, |acc, x| {
        if and {
            pool.and(acc, x)
        } else {
            pool.or(acc, x)
        }
    })
}

/// `∂t(e)` where the triple `t` fires exactly the arcs in `fired`: the
/// engine's §6 rules ([`ExprPool::deriv_step`]) with the satisfaction
/// profile replaced by an explicit arc set.
fn deriv_by_letter(
    pool: &mut ExprPool,
    fired: &[ArcId],
    root: ExprId,
    memo: &mut HashMap<ExprId, ExprId>,
) -> ExprId {
    // Iterative post-order, like `canon`: derivative chains get too deep
    // for the call stack.
    let mut stack = vec![(root, false)];
    while let Some((e, ready)) = stack.pop() {
        if memo.contains_key(&e) {
            continue;
        }
        let node = pool.node(e);
        if !ready {
            stack.push((e, true));
            for x in node.deriv_operands().into_iter().flatten() {
                stack.push((x, false));
            }
            continue;
        }
        let hit = matches!(node, Node::Arc(a) if fired.contains(&a));
        let operands = node.deriv_operands().map(|x| x.map_or(EMPTY, |x| memo[&x]));
        let d = pool.deriv_step(e, hit, operands);
        memo.insert(e, d);
    }
    memo[&root]
}

/// Enumerates the joint letter alphabet for a containment query. Returns
/// the deduplicated letters and whether any head overflowed
/// [`MAX_LETTER_ARCS`] (degrading `Contained` to `Undetermined`).
fn build_letters(
    a: &CompiledSchema,
    a_id: ShapeId,
    b: &CompiledSchema,
    b_id: ShapeId,
    closure: Closure,
    meter: &mut BudgetMeter,
) -> Result<(Vec<Letter>, bool), Exhaustion> {
    let sa = a.shape(a_id);
    let sb = b.shape(b_id);
    let mut overflow = false;
    // Dedup by transition effect: two heads producing the same fire sets
    // and relevance drive the product identically; keep the more exact.
    let mut dedup: HashMap<(Vec<ArcId>, Vec<ArcId>, bool, bool), bool> = HashMap::new();

    for inverse in [false, true] {
        // Candidate heads: every explicit predicate either side mentions
        // in this direction, plus one fresh predicate (`None`) standing
        // for all unmentioned ones (infinitely many IRIs exist, so a
        // fresh head is always realizable).
        let mut heads: BTreeSet<Option<TermId>> = BTreeSet::new();
        heads.insert(None);
        for (cs, shape) in [(a, sa), (b, sb)] {
            for &arc_id in &shape.arcs {
                let arc = cs.arc(arc_id);
                if arc.inverse != inverse {
                    continue;
                }
                if let CompiledPredicates::Ids(ids) = &arc.predicates {
                    heads.extend(ids.iter().map(|&p| Some(p)));
                }
            }
        }
        for head in heads {
            let rel_a = sa.relevant(closure, head, inverse);
            let rel_b = sb.relevant(closure, head, inverse);
            if !rel_a && !rel_b {
                continue;
            }
            let mut matching: Vec<MatchingArc<'_>> = Vec::new();
            if rel_a {
                collect_matching(a, sa, head, inverse, true, &mut matching);
            }
            if rel_b {
                collect_matching(b, sb, head, inverse, false, &mut matching);
            }
            if matching.len() > MAX_LETTER_ARCS {
                overflow = true;
                continue;
            }
            for mask in 0u32..(1u32 << matching.len()) {
                meter.step()?;
                let Some(exact) = realizable(&matching, mask) else {
                    continue;
                };
                let mut fire_a = Vec::new();
                let mut fire_b = Vec::new();
                for (i, ma) in matching.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        if ma.is_a {
                            fire_a.push(ma.id);
                        } else {
                            fire_b.push(ma.id);
                        }
                    }
                }
                let ex = dedup.entry((fire_a, fire_b, rel_a, rel_b)).or_insert(false);
                *ex = *ex || exact;
            }
        }
    }
    let letters = dedup
        .into_iter()
        .map(|((fire_a, fire_b, relevant_a, relevant_b), exact)| Letter {
            fire_a,
            fire_b,
            relevant_a,
            relevant_b,
            exact,
        })
        .collect();
    Ok((letters, overflow))
}

/// Can some triple fire exactly the arcs selected by `mask`? Returns
/// `None` when provably unrealizable, `Some(exact)` otherwise — `exact`
/// when a concrete witness term exists, inexact when the constraint
/// checker returned `Unknown`.
fn realizable(matching: &[MatchingArc<'_>], mask: u32) -> Option<bool> {
    // Reference arcs naming the same label are the same uninterpreted
    // symbol: they must fire together.
    let mut symbols: HashMap<&str, bool> = HashMap::new();
    for (i, ma) in matching.iter().enumerate() {
        let fired = mask & (1 << i) != 0;
        if let Some(sym) = ma.symbol {
            match symbols.entry(sym) {
                Entry::Vacant(v) => {
                    v.insert(fired);
                }
                Entry::Occupied(o) => {
                    if *o.get() != fired {
                        return None;
                    }
                }
            }
        }
    }
    // Value constraints: fired positively, matching-but-unfired negated.
    let mut negs: Vec<NodeConstraint> = Vec::new();
    let mut pos: Vec<&NodeConstraint> = Vec::new();
    for (i, ma) in matching.iter().enumerate() {
        let Some(c) = ma.value else { continue };
        if mask & (1 << i) != 0 {
            pos.push(c);
        } else {
            negs.push(NodeConstraint::Not(Box::new(c.clone())));
        }
    }
    let conj: Vec<&NodeConstraint> = pos.into_iter().chain(negs.iter()).collect();
    match conj_sat(&conj) {
        Sat3::Unsat => None,
        Sat3::Sat => Some(true),
        Sat3::Unknown => Some(false),
    }
}

fn collect_matching<'a>(
    cs: &'a CompiledSchema,
    shape: &CompiledShape,
    head: Option<TermId>,
    inverse: bool,
    is_a: bool,
    out: &mut Vec<MatchingArc<'a>>,
) {
    for &arc_id in &shape.arcs {
        let arc = cs.arc(arc_id);
        if arc.inverse != inverse {
            continue;
        }
        let matches = match head {
            Some(p) => arc.predicates.contains(p),
            // Fresh predicate: only wildcard arcs can cover it.
            None => matches!(arc.predicates, CompiledPredicates::Any),
        };
        if !matches {
            continue;
        }
        let (value, symbol) = match &arc.object {
            CompiledObject::Value(c) => (Some(c), None),
            CompiledObject::Ref(s) => (None, Some(cs.shape(*s).label.as_str())),
        };
        out.push(MatchingArc {
            is_a,
            id: arc_id,
            value,
            symbol,
        });
    }
}

// ---------------------------------------------------------------------------
// Schema diff
// ---------------------------------------------------------------------------

/// The language-level difference between an old and an edited schema —
/// the input to schema-delta revalidation. All label vectors follow the
/// new schema's declaration order (`removed` follows the old schema's).
#[derive(Debug, Clone, Default)]
pub struct SchemaDiff {
    /// Labels in both schemas whose languages provably coincide.
    pub unchanged: Vec<ShapeLabel>,
    /// Labels in both schemas whose languages differ — or could not be
    /// proven equal (undetermined/exhausted verdicts count as changed;
    /// the diff is conservative by construction).
    pub changed: Vec<ShapeLabel>,
    /// Labels only the new schema defines.
    pub added: Vec<ShapeLabel>,
    /// Labels only the old schema defines.
    pub removed: Vec<ShapeLabel>,
    /// New-schema labels whose verdicts may differ from the old run:
    /// `changed ∪ added`, closed transitively over reverse references
    /// (a shape referencing an affected shape is affected).
    pub affected: Vec<ShapeLabel>,
    /// New-schema labels *not* affected: their old verdicts — including
    /// every `(node, shape)` memo entry — remain valid and can seed the
    /// new engine.
    pub reusable: Vec<ShapeLabel>,
    /// The first budget trip, if any containment query exhausted (its
    /// pair is conservatively reported as changed).
    pub exhausted: Option<Exhaustion>,
}

/// Compares two schemas shape-by-shape at the *language* level: a shape
/// counts as unchanged only when containment holds in **both** directions
/// (old ⊆ new and new ⊆ old). Textually rewritten but language-equal
/// shapes (reordered groups, `e | ∅`, `e{1,1}`) therefore stay
/// unchanged, while a widened cardinality is caught even when the text
/// diff is one character. Both schemas are compiled into one fresh
/// [`TermPool`] so predicates align; `budget` governs each of the
/// `2 × |common|` containment products individually.
pub fn schema_diff(
    old: &Schema,
    new: &Schema,
    simplify: Simplify,
    closure: Closure,
    budget: &Budget,
) -> Result<SchemaDiff, SchemaError> {
    let mut terms = TermPool::new();
    let old_cs = CompiledSchema::compile(old, &mut terms, simplify)?;
    let new_cs = CompiledSchema::compile(new, &mut terms, simplify)?;

    let mut diff = SchemaDiff::default();
    let mut affected: BTreeSet<&ShapeLabel> = BTreeSet::new();
    for label in new.labels() {
        let new_id = new_cs.shape_id(label).expect("indexed");
        let Some(old_id) = old_cs.shape_id(label) else {
            diff.added.push(label.clone());
            affected.insert(label);
            continue;
        };
        let fwd = containment(&old_cs, old_id, &new_cs, new_id, closure, budget);
        let bwd = containment(&new_cs, new_id, &old_cs, old_id, closure, budget);
        for v in [fwd, bwd] {
            if let Verdict::Exhausted(e) = v {
                diff.exhausted.get_or_insert(e);
            }
        }
        if fwd == Verdict::Contained && bwd == Verdict::Contained {
            diff.unchanged.push(label.clone());
        } else {
            diff.changed.push(label.clone());
            affected.insert(label);
        }
    }
    for label in old.labels() {
        if new_cs.shape_id(label).is_none() {
            diff.removed.push(label.clone());
        }
    }
    // Reverse-reference closure over the new schema: anything that can
    // reach an affected shape revalidates too.
    loop {
        let mut grew = false;
        for (label, expr) in new.iter() {
            if affected.contains(label) {
                continue;
            }
            if expr.references().iter().any(|r| affected.contains(r)) {
                affected.insert(label);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    for label in new.labels() {
        if affected.contains(label) {
            diff.affected.push(label.clone());
        } else {
            diff.reusable.push(label.clone());
        }
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_shex::ast::{ArcConstraint, ShapeExpr};
    use shapex_shex::constraint::NodeKind;
    use shapex_shex::shexc;

    fn compile(src: &str) -> CompiledSchema {
        let schema = shexc::parse(src).unwrap();
        let mut terms = TermPool::new();
        CompiledSchema::compile(&schema, &mut terms, Simplify::default()).unwrap()
    }

    fn contain(cs: &CompiledSchema, a: &str, b: &str) -> Verdict {
        containment(
            cs,
            cs.shape_id(&a.into()).unwrap(),
            cs,
            cs.shape_id(&b.into()).unwrap(),
            Closure::Closed,
            &Budget::UNLIMITED,
        )
    }

    #[test]
    fn emptiness_trivial_and_dead() {
        let schema = Schema::from_rules([
            (
                ShapeLabel::new("Alive"),
                ShapeExpr::arc(ArcConstraint::value("http://e/p", NodeConstraint::Any)),
            ),
            (ShapeLabel::new("Dead"), ShapeExpr::Empty),
            (
                ShapeLabel::new("DeadRef"),
                ShapeExpr::arc(ArcConstraint::reference("http://e/p", "Dead")),
            ),
        ])
        .unwrap();
        let mut terms = TermPool::new();
        let cs = CompiledSchema::compile(&schema, &mut terms, Simplify::default()).unwrap();
        let e = emptiness(&cs);
        assert_eq!(e[0], Sat3::Sat);
        assert_eq!(e[1], Sat3::Unsat);
        assert_eq!(e[2], Sat3::Unsat);
    }

    #[test]
    fn emptiness_recursion_is_coinductive() {
        let cs = compile("PREFIX e: <http://e/>\n<A> { e:p @<A> }");
        assert_eq!(emptiness(&cs)[0], Sat3::Sat);
    }

    /// The emptiness verdict of `label` in `schema`.
    fn emptiness_of(schema: &Schema, label: &str) -> Sat3 {
        let mut terms = TermPool::new();
        let cs = CompiledSchema::compile(schema, &mut terms, Simplify::default()).unwrap();
        emptiness(&cs)[cs.shape_id(&label.into()).unwrap().index()]
    }

    fn lint_src(src: &str) -> Vec<Lint> {
        lints(&shexc::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn lints_add_unsatisfiable_for_forced_dead_constraints() {
        let prefixes = "PREFIX e: <http://e/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n";
        // A mandatory arc whose object no term satisfies kills the shape;
        // the local lint and the shape verdict are both reported.
        for (body, local) in [
            ("<A> { e:p [] }", Lint::EmptyValueSet("A".into())),
            (
                "<A> { e:p xsd:integer MININCLUSIVE 5 MAXINCLUSIVE 3 }",
                Lint::UnsatisfiableConstraint("A".into()),
            ),
        ] {
            let l = lint_src(&format!("{prefixes}{body}"));
            assert!(l.contains(&local), "{l:?}");
            assert!(l.contains(&Lint::Unsatisfiable("A".into())), "{l:?}");
        }
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
        let l = lints(&schema).unwrap();
        assert!(
            l.contains(&Lint::UnsatisfiableConstraint("C".into())),
            "{l:?}"
        );
        assert!(l.contains(&Lint::Unsatisfiable("C".into())), "{l:?}");
    }

    #[test]
    fn empty_expression_detected() {
        let schema = Schema::from_rules([(ShapeLabel::new("A"), ShapeExpr::Empty)]).unwrap();
        assert_eq!(
            lints(&schema).unwrap(),
            vec![Lint::Unsatisfiable("A".into())]
        );
    }

    // `e | ∅ ≡ e`: the shape conforms fine and must not be flagged.
    #[test]
    fn empty_under_or_is_satisfiable_and_unflagged() {
        let schema = Schema::from_rules([(
            ShapeLabel::new("A"),
            ShapeExpr::or(
                ShapeExpr::arc(ArcConstraint::value("http://e/p", NodeConstraint::Any)),
                ShapeExpr::Empty,
            ),
        )])
        .unwrap();
        assert_eq!(emptiness_of(&schema, "A"), Sat3::Sat);
        let l = lints(&schema).unwrap();
        assert!(l.is_empty(), "satisfiable shape wrongly flagged: {l:?}");
    }

    #[test]
    fn repeat_at_least_two_over_empty_language_detected() {
        // `@<B>{2,}` where <B> is unsatisfiable: forced arc, dead object.
        let schema = Schema::from_rules([
            (
                ShapeLabel::new("A"),
                ShapeExpr::repeat(
                    ShapeExpr::arc(ArcConstraint::reference("http://e/p", "B")),
                    2,
                    None,
                ),
            ),
            (ShapeLabel::new("B"), ShapeExpr::Empty),
        ])
        .unwrap();
        assert_eq!(emptiness_of(&schema, "A"), Sat3::Unsat);
        assert_eq!(emptiness_of(&schema, "B"), Sat3::Unsat);
        let l = lints(&schema).unwrap();
        assert!(l.contains(&Lint::Unsatisfiable("A".into())), "{l:?}");
    }

    #[test]
    fn empty_value_set_arc_forced_by_and_detected() {
        // `e:q . ‖ e:p []` — the dead arc is mandatory at depth.
        let schema = Schema::from_rules([(
            ShapeLabel::new("A"),
            ShapeExpr::and(
                ShapeExpr::arc(ArcConstraint::value("http://e/q", NodeConstraint::Any)),
                ShapeExpr::arc(ArcConstraint::value(
                    "http://e/p",
                    NodeConstraint::ValueSet(vec![]),
                )),
            ),
        )])
        .unwrap();
        assert_eq!(emptiness_of(&schema, "A"), Sat3::Unsat);
    }

    #[test]
    fn dead_branch_under_star_is_still_satisfiable() {
        // `(e:p [])*` accepts the empty bag: satisfiable.
        let schema = Schema::from_rules([(
            ShapeLabel::new("A"),
            ShapeExpr::star(ShapeExpr::arc(ArcConstraint::value(
                "http://e/p",
                NodeConstraint::ValueSet(vec![]),
            ))),
        )])
        .unwrap();
        assert_eq!(emptiness_of(&schema, "A"), Sat3::Sat);
        let l = lints(&schema).unwrap();
        // The dead constraint itself is still worth a local warning...
        assert!(l.contains(&Lint::EmptyValueSet("A".into())));
        // ...but the shape must not be declared unsatisfiable.
        assert!(!l.contains(&Lint::Unsatisfiable("A".into())));
    }

    #[test]
    fn recursive_shape_is_satisfiable_coinductively() {
        // `<A> { e:p @<A> }`: a cyclic graph x →p x conforms, so the
        // greatest fixpoint must come back satisfiable.
        let schema = Schema::from_rules([(
            ShapeLabel::new("A"),
            ShapeExpr::arc(ArcConstraint::reference("http://e/p", "A")),
        )])
        .unwrap();
        assert_eq!(emptiness_of(&schema, "A"), Sat3::Sat);
    }

    #[test]
    fn mutual_recursion_through_dead_shape() {
        // <A> requires @<B>, <B> requires a dead constraint: both empty.
        let schema = Schema::from_rules([
            (
                ShapeLabel::new("A"),
                ShapeExpr::arc(ArcConstraint::reference("http://e/p", "B")),
            ),
            (
                ShapeLabel::new("B"),
                ShapeExpr::and(
                    ShapeExpr::arc(ArcConstraint::reference("http://e/q", "A")),
                    ShapeExpr::arc(ArcConstraint::value(
                        "http://e/r",
                        NodeConstraint::ValueSet(vec![]),
                    )),
                ),
            ),
        ])
        .unwrap();
        assert_eq!(emptiness_of(&schema, "A"), Sat3::Unsat);
        assert_eq!(emptiness_of(&schema, "B"), Sat3::Unsat);
    }

    #[test]
    fn lints_inside_nested_expressions() {
        let l = lint_src("PREFIX e: <http://e/>\n<A> { (e:p [] | e:q .)+ }");
        assert!(l.contains(&Lint::EmptyValueSet("A".into())));
        // The healthy `|` branch keeps the shape alive.
        assert!(!l.contains(&Lint::Unsatisfiable("A".into())));
    }

    #[test]
    fn containment_optional_widens() {
        let cs = compile("PREFIX e: <http://e/>\n<A> { e:p . }\n<B> { e:p .? }");
        assert_eq!(contain(&cs, "A", "B"), Verdict::Contained);
        assert_eq!(contain(&cs, "B", "A"), Verdict::NotContained);
    }

    #[test]
    fn containment_is_reflexive() {
        let cs = compile("PREFIX e: <http://e/>\n<A> { e:p [1 2], e:q @<A>* }");
        assert_eq!(contain(&cs, "A", "A"), Verdict::Contained);
    }

    #[test]
    fn containment_value_sets() {
        let cs = compile("PREFIX e: <http://e/>\n<A> { e:p [1] }\n<B> { e:p [1 2] }");
        assert_eq!(contain(&cs, "A", "B"), Verdict::Contained);
        assert_eq!(contain(&cs, "B", "A"), Verdict::NotContained);
    }

    #[test]
    fn containment_numeric_facets() {
        let cs = compile(
            "PREFIX e: <http://e/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
             <A> { e:p xsd:integer MININCLUSIVE 5 }\n\
             <B> { e:p xsd:integer MININCLUSIVE 3 }",
        );
        assert_eq!(contain(&cs, "A", "B"), Verdict::Contained);
        assert_eq!(contain(&cs, "B", "A"), Verdict::NotContained);
    }

    #[test]
    fn containment_cardinality() {
        let cs = compile("PREFIX e: <http://e/>\n<A> { e:p .{1,2} }\n<B> { e:p .{1,3} }");
        assert_eq!(contain(&cs, "A", "B"), Verdict::Contained);
        assert_eq!(contain(&cs, "B", "A"), Verdict::NotContained);
    }

    #[test]
    fn containment_fresh_predicate_distinguishes() {
        // B's wildcard arc accepts any predicate; A's named arc does not.
        let cs = compile("PREFIX e: <http://e/>\n<A> { e:p . }\n<B> { . . }");
        assert_eq!(contain(&cs, "A", "B"), Verdict::Contained);
        assert_eq!(contain(&cs, "B", "A"), Verdict::NotContained);
    }

    #[test]
    fn containment_refs_are_symbolic() {
        let cs = compile(
            "PREFIX e: <http://e/>\n<A> { e:p @<X> }\n<B> { e:p @<X> }\n\
             <C> { e:p @<Y> }\n<X> { e:q . }\n<Y> { e:q . }",
        );
        // Same label symbol: equal languages.
        assert_eq!(contain(&cs, "A", "B"), Verdict::Contained);
        // Different label symbols are independent — distinguishable.
        assert_eq!(contain(&cs, "A", "C"), Verdict::NotContained);
    }

    #[test]
    fn containment_interleave_order_irrelevant() {
        let cs = compile("PREFIX e: <http://e/>\n<A> { e:p ., e:q . }\n<B> { e:q ., e:p . }");
        assert_eq!(contain(&cs, "A", "B"), Verdict::Contained);
        assert_eq!(contain(&cs, "B", "A"), Verdict::Contained);
    }

    #[test]
    fn containment_open_ignores_unmentioned_predicates() {
        // Closed: B must consume e:q triples it has no arc for — A ⊄ B.
        // Open: B never sees e:q triples, and both accept any e:p graph.
        let cs = compile("PREFIX e: <http://e/>\n<A> { e:p ., e:q .? }\n<B> { e:p . }");
        assert_eq!(contain(&cs, "A", "B"), Verdict::NotContained);
        let open = containment(
            &cs,
            cs.shape_id(&"A".into()).unwrap(),
            &cs,
            cs.shape_id(&"B".into()).unwrap(),
            Closure::Open,
            &Budget::UNLIMITED,
        );
        assert_eq!(open, Verdict::Contained);
    }

    #[test]
    fn containment_respects_budget() {
        // A ⊆ B genuinely holds, so no early violation can short-circuit
        // the search — the product has hundreds of states and must trip
        // the step budget instead of completing.
        let cs = compile("PREFIX e: <http://e/>\n<A> { e:p .{1,400} }\n<B> { e:p .* }");
        let v = containment(
            &cs,
            cs.shape_id(&"A".into()).unwrap(),
            &cs,
            cs.shape_id(&"B".into()).unwrap(),
            Closure::Closed,
            &Budget::steps(50),
        );
        assert!(matches!(v, Verdict::Exhausted(_)), "{v:?}");
    }

    #[test]
    fn containment_pattern_unknown_degrades_not_contained() {
        // A PATTERN whose emptiness interplay the checker cannot decide
        // yields inexact letters; violations through them must come back
        // Undetermined, never NotContained.
        let cs = compile(
            "PREFIX e: <http://e/>\n\
             <A> { e:p PATTERN \"a*\" MINLENGTH 99999 }\n<B> { e:p [1] }",
        );
        let v = contain(&cs, "A", "B");
        assert_ne!(v, Verdict::Contained, "{v:?}");
    }

    #[test]
    fn schema_diff_classifies_shapes() {
        let old = shexc::parse(
            "PREFIX e: <http://e/>\n<A> { e:p . }\n<B> { e:q . }\n<C> { e:r @<B> }\n<Gone> { e:s . }",
        )
        .unwrap();
        let new = shexc::parse(
            "PREFIX e: <http://e/>\n<A> { e:p . }\n<B> { e:q .? }\n<C> { e:r @<B> }\n<New> { e:t . }",
        )
        .unwrap();
        let diff = schema_diff(
            &old,
            &new,
            Simplify::default(),
            Closure::Closed,
            &Budget::UNLIMITED,
        )
        .unwrap();
        let names = |v: &[ShapeLabel]| v.iter().map(|l| l.as_str().to_string()).collect::<Vec<_>>();
        assert_eq!(names(&diff.changed), ["B"]);
        assert_eq!(names(&diff.unchanged), ["A", "C"]);
        assert_eq!(names(&diff.added), ["New"]);
        assert_eq!(names(&diff.removed), ["Gone"]);
        // C references the changed B, so it revalidates despite identical text.
        assert_eq!(names(&diff.affected), ["B", "C", "New"]);
        assert_eq!(names(&diff.reusable), ["A"]);
        assert!(diff.exhausted.is_none());
    }

    #[test]
    fn schema_diff_sees_through_textual_rewrites() {
        // Reordered conjuncts and an `| ∅`-style no-op: language-equal.
        let old = shexc::parse("PREFIX e: <http://e/>\n<A> { e:p ., e:q . }").unwrap();
        let new = shexc::parse("PREFIX e: <http://e/>\n<A> { e:q ., e:p .{1,1} }").unwrap();
        let diff = schema_diff(
            &old,
            &new,
            Simplify::default(),
            Closure::Closed,
            &Budget::UNLIMITED,
        )
        .unwrap();
        assert!(diff.changed.is_empty(), "{:?}", diff.changed);
        assert_eq!(diff.reusable.len(), 1);
    }

    #[test]
    fn verdict_displays() {
        assert_eq!(Verdict::Contained.to_string(), "contained");
        assert_eq!(Verdict::NotContained.to_string(), "not-contained");
        assert_eq!(Verdict::Undetermined.to_string(), "undetermined");
    }
}
