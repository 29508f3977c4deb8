//! The hash-consed expression arena the derivative engine runs on.
//!
//! Derivatives of shape expressions can grow (paper Example 10), and the
//! same subexpressions recur constantly (`∂t(e1 ‖ e2) = ∂t(e1) ‖ e2 | ...`
//! shares `e2` wholesale). Hash-consing every node means:
//!
//! * structural equality is id equality (`ExprId: Copy + Eq`),
//! * the §4 simplification rules and `Or`-duplicate collapse are cheap,
//! * `(expression, triple-class)` derivative memoisation keys are dense.
//!
//! Smart constructors implement the paper's simplification table
//!
//! ```text
//! ∅ | x = x        x | ∅ = x
//! ∅ ‖ x = ∅        x ‖ ∅ = ∅
//! ε ‖ x = x        x ‖ ε = x
//! ```
//!
//! plus idempotence `x | x = x` and commutative normalisation (operands
//! sorted by id) — sound because both `‖` and `|` are commutative on bags.
//! All rules can be disabled for the E9 ablation via [`Simplify`].

use rustc_hash::FxHashMap;

/// Index of a compiled arc constraint within its
/// [`CompiledSchema`](crate::compile::CompiledSchema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcId(pub u32);

impl ArcId {
    /// The raw index into the arc table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Id of a hash-consed expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compiled expression node. `Plus`/`Opt` are desugared at compile time
/// (`E+ = E ‖ E*`, `E? = E | ε`); `Repeat` stays native because its
/// counter-based derivative is linear where the §4 expansion is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// `∅`.
    Empty,
    /// `ε`.
    Epsilon,
    /// An arc constraint `vp → vo`.
    Arc(ArcId),
    /// `e*`.
    Star(ExprId),
    /// `e{m,n}`; `max == u32::MAX` encodes unbounded.
    Repeat(ExprId, u32, u32),
    /// `e1 ‖ e2` — unordered concatenation.
    And(ExprId, ExprId),
    /// `e1 | e2` — alternative.
    Or(ExprId, ExprId),
}

impl Node {
    /// The operands whose derivatives [`ExprPool::deriv_step`] builds
    /// `∂t` of this node from, in the order every derivative walk computes
    /// them: the body of `e*` and of a not yet exhausted `e{m,n}`, and
    /// both sides of `‖` and `|`.
    pub fn deriv_operands(self) -> [Option<ExprId>; 2] {
        match self {
            Node::Empty | Node::Epsilon | Node::Arc(_) | Node::Repeat(_, _, 0) => [None, None],
            Node::Star(x) | Node::Repeat(x, _, _) => [Some(x), None],
            Node::And(a, b) | Node::Or(a, b) => [Some(a), Some(b)],
        }
    }
}

/// Sentinel for an unbounded repeat upper bound.
pub const UNBOUNDED: u32 = u32::MAX;

/// Which simplification rules the constructors apply (E9 ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simplify {
    /// The paper's §4 identity/annihilator rules.
    pub identities: bool,
    /// `x | x = x` and commutative operand sorting.
    pub or_dedup: bool,
}

impl Default for Simplify {
    fn default() -> Self {
        Simplify {
            identities: true,
            or_dedup: true,
        }
    }
}

impl Simplify {
    /// Disables every rule (the E9 `no_simplify` ablation).
    pub fn none() -> Self {
        Simplify {
            identities: false,
            or_dedup: false,
        }
    }
}

/// The arena. `EMPTY` and `EPSILON` are pre-interned at fixed ids.
/// `Clone` lets parallel workers fork a private arena that diverges as
/// each worker interns its own derivative states.
#[derive(Debug, Clone)]
pub struct ExprPool {
    nodes: Vec<Node>,
    ids: FxHashMap<Node, ExprId>,
    /// `ν(e)` computed bottom-up at interning time.
    nullable: Vec<bool>,
    simplify: Simplify,
}

/// Pre-interned `∅`.
pub const EMPTY: ExprId = ExprId(0);
/// Pre-interned `ε`.
pub const EPSILON: ExprId = ExprId(1);

impl ExprPool {
    /// Creates an arena with `∅` and `ε` pre-interned.
    pub fn new(simplify: Simplify) -> Self {
        let mut pool = ExprPool {
            nodes: Vec::new(),
            ids: FxHashMap::default(),
            nullable: Vec::new(),
            simplify,
        };
        assert_eq!(pool.intern(Node::Empty), EMPTY);
        assert_eq!(pool.intern(Node::Epsilon), EPSILON);
        pool
    }

    /// Number of distinct interned nodes — the expression-growth measure
    /// used by experiment E4.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing is interned (never, after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    pub fn node(&self, id: ExprId) -> Node {
        self.nodes[id.index()]
    }

    /// `ν(e)` — precomputed.
    pub fn nullable(&self, id: ExprId) -> bool {
        self.nullable[id.index()]
    }

    fn intern(&mut self, node: Node) -> ExprId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let nullable = match node {
            Node::Empty | Node::Arc(_) => false,
            Node::Epsilon | Node::Star(_) => true,
            // ν(e{m,n}) = (m = 0) ∨ ν(e): zero mandatory copies, or each
            // mandatory copy can itself match the empty graph.
            Node::Repeat(e, m, _) => m == 0 || self.nullable(e),
            Node::And(a, b) => self.nullable(a) && self.nullable(b),
            Node::Or(a, b) => self.nullable(a) || self.nullable(b),
        };
        let id = ExprId(u32::try_from(self.nodes.len()).expect("expression pool overflow"));
        self.nodes.push(node);
        self.nullable.push(nullable);
        self.ids.insert(node, id);
        id
    }

    /// Interns an arc leaf.
    pub fn arc(&mut self, arc: ArcId) -> ExprId {
        self.intern(Node::Arc(arc))
    }

    /// `e*` with `∅* = ε* = ε` and `(e*)* = e*`.
    pub fn star(&mut self, e: ExprId) -> ExprId {
        if self.simplify.identities {
            if e == EMPTY || e == EPSILON {
                return EPSILON;
            }
            if matches!(self.node(e), Node::Star(_)) {
                return e;
            }
        }
        self.intern(Node::Star(e))
    }

    /// `e1 ‖ e2` with the §4 rules.
    pub fn and(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if self.simplify.identities {
            if a == EMPTY || b == EMPTY {
                return EMPTY;
            }
            if a == EPSILON {
                return b;
            }
            if b == EPSILON {
                return a;
            }
        }
        let (a, b) = if self.simplify.or_dedup && b < a {
            (b, a)
        } else {
            (a, b)
        };
        self.intern(Node::And(a, b))
    }

    /// `e1 | e2` with the §4 rules plus idempotence.
    pub fn or(&mut self, a: ExprId, b: ExprId) -> ExprId {
        if self.simplify.identities {
            if a == EMPTY {
                return b;
            }
            if b == EMPTY {
                return a;
            }
        }
        if self.simplify.or_dedup {
            if a == b {
                return a;
            }
            let (a, b) = if b < a { (b, a) } else { (a, b) };
            return self.intern(Node::Or(a, b));
        }
        self.intern(Node::Or(a, b))
    }

    /// `e{m,n}` (`max = UNBOUNDED` for `e{m,}`), normalising the trivial
    /// bounds: `e{0,0} = ε`, `e{1,1} = e`, `e{0,} = e*`.
    pub fn repeat(&mut self, e: ExprId, min: u32, max: u32) -> ExprId {
        debug_assert!(min <= max);
        if self.simplify.identities {
            if max == 0 {
                return EPSILON;
            }
            if e == EPSILON {
                return EPSILON;
            }
            if e == EMPTY {
                // zero copies possible iff min = 0
                return if min == 0 { EPSILON } else { EMPTY };
            }
            if min == 1 && max == 1 {
                return e;
            }
            if min == 0 && max == UNBOUNDED {
                return self.star(e);
            }
        }
        self.intern(Node::Repeat(e, min, max))
    }

    /// One §6 derivative rule: `∂t(e)` from the derivatives `d` of
    /// [`Node::deriv_operands`] (slot for slot; empty slots are ignored),
    /// where `fired` says whether the triple `t` satisfies `e` when `e` is
    /// an arc. The engine and the schema calculus both derive through
    /// here, each with its own walk and memo, so the language the
    /// validator accepts and the one the calculus reasons about cannot
    /// drift apart.
    pub fn deriv_step(&mut self, e: ExprId, fired: bool, d: [ExprId; 2]) -> ExprId {
        match self.node(e) {
            // ∂t(∅) = ∅, ∂t(ε) = ∅
            Node::Empty | Node::Epsilon => EMPTY,
            // ∂t(vp→vo) = ε if the triple satisfies the arc, else ∅
            Node::Arc(_) if fired => EPSILON,
            Node::Arc(_) => EMPTY,
            // ∂t(e*) = ∂t(e) ‖ e*
            Node::Star(_) => self.and(d[0], e),
            // Only reachable with simplification disabled.
            Node::Repeat(_, _, 0) => EMPTY,
            // ∂t(e{m,n}) = ∂t(e) ‖ e{m⊖1, n−1} — the counter rule that
            // avoids the exponential §4 expansion.
            Node::Repeat(inner, m, n) => {
                let n1 = if n == UNBOUNDED { UNBOUNDED } else { n - 1 };
                let rest = self.repeat(inner, m.saturating_sub(1), n1);
                self.and(d[0], rest)
            }
            // ∂t(e1 ‖ e2) = ∂t(e1) ‖ e2 | ∂t(e2) ‖ e1
            Node::And(a, b) => {
                let left = self.and(d[0], b);
                let right = self.and(d[1], a);
                self.or(left, right)
            }
            // ∂t(e1 | e2) = ∂t(e1) | ∂t(e2)
            Node::Or(_, _) => self.or(d[0], d[1]),
        }
    }

    /// Renders an expression in the paper's notation, for diagnostics.
    /// `arc_name` supplies a printable name per arc constraint.
    pub fn render(&self, id: ExprId, arc_name: &dyn Fn(ArcId) -> String) -> String {
        match self.node(id) {
            Node::Empty => "∅".to_string(),
            Node::Epsilon => "ε".to_string(),
            Node::Arc(a) => arc_name(a),
            Node::Star(e) => format!("{}*", self.render_atom(e, arc_name)),
            Node::Repeat(e, m, n) => {
                let bounds = if n == UNBOUNDED {
                    format!("{{{m},}}")
                } else {
                    format!("{{{m},{n}}}")
                };
                format!("{}{bounds}", self.render_atom(e, arc_name))
            }
            Node::And(a, b) => format!(
                "{} ‖ {}",
                self.render_atom(a, arc_name),
                self.render_atom(b, arc_name)
            ),
            Node::Or(a, b) => format!(
                "{} | {}",
                self.render_atom(a, arc_name),
                self.render_atom(b, arc_name)
            ),
        }
    }

    fn render_atom(&self, id: ExprId, arc_name: &dyn Fn(ArcId) -> String) -> String {
        match self.node(id) {
            Node::And(_, _) | Node::Or(_, _) => {
                format!("({})", self.render(id, arc_name))
            }
            _ => self.render(id, arc_name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ExprPool {
        ExprPool::new(Simplify::default())
    }

    #[test]
    fn constants_are_preinterned() {
        let p = pool();
        assert_eq!(p.node(EMPTY), Node::Empty);
        assert_eq!(p.node(EPSILON), Node::Epsilon);
        assert!(!p.nullable(EMPTY));
        assert!(p.nullable(EPSILON));
    }

    #[test]
    fn hash_consing_dedups() {
        let mut p = pool();
        let a = p.arc(ArcId(0));
        let b = p.arc(ArcId(0));
        assert_eq!(a, b);
        let s1 = p.star(a);
        let s2 = p.star(b);
        assert_eq!(s1, s2);
        assert_eq!(p.len(), 4); // ∅, ε, arc, star
    }

    #[test]
    fn paper_simplification_rules() {
        let mut p = pool();
        let x = p.arc(ArcId(0));
        // ∅ | x = x, x | ∅ = x
        assert_eq!(p.or(EMPTY, x), x);
        assert_eq!(p.or(x, EMPTY), x);
        // ∅ ‖ x = ∅, x ‖ ∅ = ∅
        assert_eq!(p.and(EMPTY, x), EMPTY);
        assert_eq!(p.and(x, EMPTY), EMPTY);
        // ε ‖ x = x, x ‖ ε = x
        assert_eq!(p.and(EPSILON, x), x);
        assert_eq!(p.and(x, EPSILON), x);
    }

    #[test]
    fn or_idempotence_and_commutativity() {
        let mut p = pool();
        let x = p.arc(ArcId(0));
        let y = p.arc(ArcId(1));
        assert_eq!(p.or(x, x), x);
        assert_eq!(p.or(x, y), p.or(y, x));
        assert_eq!(p.and(x, y), p.and(y, x));
    }

    #[test]
    fn star_simplifications() {
        let mut p = pool();
        assert_eq!(p.star(EMPTY), EPSILON);
        assert_eq!(p.star(EPSILON), EPSILON);
        let x = p.arc(ArcId(0));
        let s = p.star(x);
        assert_eq!(p.star(s), s);
    }

    #[test]
    fn repeat_normalisation() {
        let mut p = pool();
        let x = p.arc(ArcId(0));
        assert_eq!(p.repeat(x, 0, 0), EPSILON);
        assert_eq!(p.repeat(x, 1, 1), x);
        assert_eq!(p.repeat(x, 0, UNBOUNDED), p.star(x));
        assert_eq!(p.repeat(EPSILON, 2, 5), EPSILON);
        assert_eq!(p.repeat(EMPTY, 0, 3), EPSILON);
        assert_eq!(p.repeat(EMPTY, 1, 3), EMPTY);
        let r = p.repeat(x, 2, 4);
        assert_eq!(p.node(r), Node::Repeat(x, 2, 4));
    }

    #[test]
    fn nullability() {
        let mut p = pool();
        let x = p.arc(ArcId(0));
        let y = p.arc(ArcId(1));
        assert!(!p.nullable(x));
        let s = p.star(x);
        assert!(p.nullable(s));
        let and_xs = p.and(x, s);
        assert!(!p.nullable(and_xs)); // x not nullable
        let or_xs = p.or(x, s);
        assert!(p.nullable(or_xs));
        let r0 = p.repeat(x, 0, 5);
        assert!(p.nullable(r0));
        let r2 = p.repeat(x, 2, 5);
        assert!(!p.nullable(r2));
        let and_ss = {
            let sy = p.star(y);
            p.and(s, sy)
        };
        assert!(p.nullable(and_ss));
    }

    #[test]
    fn no_simplify_mode_preserves_structure() {
        let mut p = ExprPool::new(Simplify::none());
        let x = p.arc(ArcId(0));
        let e = p.or(EMPTY, x);
        assert!(matches!(p.node(e), Node::Or(EMPTY, _)));
        let e = p.and(EPSILON, x);
        assert!(matches!(p.node(e), Node::And(EPSILON, _)));
        // Hash-consing still applies even without simplification.
        assert_eq!(p.or(EMPTY, x), p.or(EMPTY, x));
        // No commutative normalisation:
        let xy = p.or(x, EMPTY);
        let yx = p.or(EMPTY, x);
        assert_ne!(xy, yx);
    }

    #[test]
    fn render_paper_notation() {
        let mut p = pool();
        let a = p.arc(ArcId(0));
        let b = p.arc(ArcId(1));
        let sb = p.star(b);
        let e = p.and(a, sb);
        let name = |arc: ArcId| {
            if arc == ArcId(0) {
                "a→1".to_string()
            } else {
                "b→{1,2}".to_string()
            }
        };
        let s = p.render(e, &name);
        // operand order is normalised; accept either side
        assert!(s == "a→1 ‖ b→{1,2}*" || s == "b→{1,2}* ‖ a→1", "got {s}");
    }

    #[test]
    fn nullable_nested_repeat_with_nullable_body() {
        let mut p = pool();
        let x = p.arc(ArcId(0));
        let opt_x = p.or(x, EPSILON); // x?
        let r = p.repeat(opt_x, 3, 5);
        assert!(p.nullable(r)); // each mandatory copy can match {}
    }
}
