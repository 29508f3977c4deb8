//! Validation results: per-node match outcomes with failure explanations,
//! whole-graph shape typings, and engine statistics.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use shapex_rdf::pool::{TermId, TermPool};
use shapex_shex::ast::ShapeLabel;

use crate::budget::Exhaustion;
use crate::compile::ShapeId;

/// Why a node failed to match a shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// Consuming this triple drove the expression to `∅` — the triple is
    /// not allowed by (the remainder of) the shape. For inverse arcs the
    /// stored triple is `⟨other, p, node⟩`.
    UnexpectedTriple {
        /// The triple's subject.
        subject: TermId,
        /// The triple's predicate.
        predicate: TermId,
        /// The triple's object.
        object: TermId,
    },
    /// All triples consumed but the residual expression is not nullable —
    /// required arcs are missing.
    MissingRequired,
    /// (SORBE fast path) an arc's triple count fell outside its interval.
    Cardinality {
        /// Rendered arc constraint, e.g. `name→string`.
        arc: String,
        /// How many triples matched the arc.
        found: u32,
        /// The arc's minimum.
        min: u32,
        /// `None` for an unbounded maximum.
        max: Option<u32>,
    },
}

/// A failure explanation: what went wrong and the expression state at that
/// point (in the paper's notation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// The expression state *before* the failing step, rendered.
    pub expectation: String,
}

impl Failure {
    /// Renders the failure with terms resolved against `pool`.
    pub fn render(&self, pool: &TermPool) -> String {
        self.display(pool).to_string()
    }

    /// The text of [`Failure::render`] as a [`fmt::Display`], so it can be
    /// written into a report without an intermediate `String`.
    pub fn display<'a>(&'a self, pool: &'a TermPool) -> impl fmt::Display + 'a {
        FailureText {
            failure: self,
            pool,
        }
    }
}

struct FailureText<'a> {
    failure: &'a Failure,
    pool: &'a TermPool,
}

impl fmt::Display for FailureText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let expectation = &self.failure.expectation;
        match &self.failure.kind {
            FailureKind::UnexpectedTriple {
                subject,
                predicate,
                object,
            } => write!(
                f,
                "triple {} {} {} does not match remaining expectation {expectation}",
                self.pool.term(*subject),
                self.pool.term(*predicate),
                self.pool.term(*object),
            ),
            FailureKind::MissingRequired => write!(
                f,
                "node is missing required arcs; remaining expectation {expectation} does not accept the empty graph",
            ),
            FailureKind::Cardinality {
                arc,
                found,
                min,
                max,
            } => {
                write!(f, "arc {arc} occurs {found} times but must occur ")?;
                match max {
                    Some(max) => write!(f, "between {min} and {max}"),
                    None => write!(f, "at least {min}"),
                }
            }
        }
    }
}

/// Tri-state answer to one `(node, shape)` question under a budget.
///
/// `Conforms` and `Fails` are definitive — the fixpoint completed. An
/// `Exhausted` query gave no answer at all: the budget tripped mid-run, so
/// the pair is neither typed nor refuted, and retrying under a larger
/// budget may yield either definitive outcome. A failure's explanation is
/// not part of the verdict: [`Engine::explain`](crate::Engine::explain)
/// derives it from the final typing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The node conforms to the shape.
    Conforms,
    /// The node does not conform.
    Fails,
    /// The budget tripped before an answer was reached.
    Exhausted(Exhaustion),
}

impl Outcome {
    /// True only for a definitive [`Outcome::Conforms`].
    pub fn matched(&self) -> bool {
        matches!(self, Outcome::Conforms)
    }

    /// True when the budget tripped.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Outcome::Exhausted(_))
    }

    /// The exhaustion record, if the budget tripped.
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        match self {
            Outcome::Exhausted(e) => Some(*e),
            _ => None,
        }
    }
}

/// Result of checking one node against one shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchResult {
    /// Whether the node conforms to the shape.
    pub matched: bool,
    /// Present when `matched == false` and a cause was identified.
    pub failure: Option<Failure>,
}

/// A shape typing `τ`: which `(node, shape)` pairs hold (paper §8). This is
/// the greatest-fixpoint typing restricted to the pairs actually queried.
///
/// Under a budget this may be a **partial** typing: pairs whose query
/// exhausted its budget are listed in [`Typing::exhausted`] — they are
/// neither typed nor refuted. [`Typing::is_partial`] distinguishes the two
/// regimes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Typing {
    map: HashMap<TermId, BTreeSet<ShapeId>>,
    /// `(node, shape)` queries that tripped the budget, with what tripped.
    pub exhausted: Vec<(TermId, ShapeId, Exhaustion)>,
}

impl Typing {
    /// An empty typing.
    pub fn new() -> Self {
        Typing::default()
    }

    /// Records that `node` has `shape`.
    pub fn add(&mut self, node: TermId, shape: ShapeId) {
        self.map.entry(node).or_default().insert(shape);
    }

    /// Records that the `(node, shape)` query tripped its budget.
    pub fn add_exhausted(&mut self, node: TermId, shape: ShapeId, exhaustion: Exhaustion) {
        self.exhausted.push((node, shape, exhaustion));
    }

    /// True when at least one query exhausted its budget — the typing is a
    /// sound under-approximation of the total one.
    pub fn is_partial(&self) -> bool {
        !self.exhausted.is_empty()
    }

    /// Does the typing contain `(node, shape)`?
    pub fn has(&self, node: TermId, shape: ShapeId) -> bool {
        self.map.get(&node).is_some_and(|s| s.contains(&shape))
    }

    /// Shapes recorded for `node`.
    pub fn shapes_of(&self, node: TermId) -> impl Iterator<Item = ShapeId> + '_ {
        self.map.get(&node).into_iter().flatten().copied()
    }

    /// Nodes with at least one recorded shape.
    pub fn nodes(&self) -> impl Iterator<Item = TermId> + '_ {
        self.map.keys().copied()
    }

    /// Total number of `(node, shape)` entries.
    pub fn len(&self) -> usize {
        self.map.values().map(BTreeSet::len).sum()
    }

    /// True when no pair is recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Renders the typing as sorted `node → <Shape>` lines.
    pub fn render(&self, pool: &TermPool, labels: &dyn Fn(ShapeId) -> ShapeLabel) -> String {
        let mut lines: Vec<String> = Vec::new();
        for (node, shapes) in &self.map {
            for s in shapes {
                lines.push(format!("{} → {}", pool.term(*node), labels(*s)));
            }
        }
        lines.sort();
        lines.join("\n")
    }
}

/// Counters exposed for the benchmark harness and the E9 ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Individual derivative-rule applications (`∂` node visits).
    pub derivative_steps: u64,
    /// Hits in the `(expression, triple-class)` derivative memo: lazy-DFA
    /// transition-table hits.
    pub deriv_memo_hits: u64,
    /// Distinct triple classes (satisfaction profiles) interned.
    pub triple_classes: u64,
    /// `(node, shape)` checks actually evaluated (memo misses).
    pub node_checks: u64,
    /// Dropped slices of the component stack: how often a pair failed
    /// with finished open pairs above it, which may rest on it and so are
    /// dropped, to be decided again at their next lookup.
    pub gfp_reruns: u64,
    /// Node checks answered by the SORBE counting fast path.
    pub sorbe_checks: u64,
    /// Expression-arena size at last measurement.
    pub expr_pool_size: usize,
    /// Budget steps charged across all queries.
    pub budget_steps: u64,
    /// Largest expression-arena size any query's meter observed.
    pub peak_arena_nodes: usize,
    /// Deepest `(node, shape)` recursion any query reached.
    pub max_depth_reached: u32,
    /// Queries aborted by budget exhaustion.
    pub exhausted_checks: u64,
    /// Memoised `(node, shape)` answers dropped by
    /// [`revalidate`](crate::Engine::revalidate)'s invalidation closure.
    pub invalidated_pairs: u64,
    /// Pairs the dirty-frontier re-typing had to re-evaluate.
    pub retyped_pairs: u64,
    /// Pairs answered straight from the surviving memo during a
    /// revalidation.
    pub reused_pairs: u64,
}

impl Stats {
    /// Folds another engine's counters into this one — the end-of-run
    /// merge of [`type_all_par`](crate::Engine::type_all_par)'s workers
    /// into the coordinator. Monotone
    /// counters add; high-water marks take the max. `triple_classes` then
    /// counts the classes each worker interned after forking the
    /// coordinator's class tables, summed over workers: on a cold engine
    /// two workers meeting the same class both count it, and on a warm one
    /// classes interned before the run are not counted again. The
    /// pool-size measures likewise come from each worker's private arena.
    pub fn absorb(&mut self, other: &Stats) {
        self.derivative_steps += other.derivative_steps;
        self.deriv_memo_hits += other.deriv_memo_hits;
        self.triple_classes += other.triple_classes;
        self.node_checks += other.node_checks;
        self.gfp_reruns += other.gfp_reruns;
        self.sorbe_checks += other.sorbe_checks;
        self.budget_steps += other.budget_steps;
        self.exhausted_checks += other.exhausted_checks;
        self.invalidated_pairs += other.invalidated_pairs;
        self.retyped_pairs += other.retyped_pairs;
        self.reused_pairs += other.reused_pairs;
        self.expr_pool_size = self.expr_pool_size.max(other.expr_pool_size);
        self.peak_arena_nodes = self.peak_arena_nodes.max(other.peak_arena_nodes);
        self.max_depth_reached = self.max_depth_reached.max(other.max_depth_reached);
    }

    /// The counters as a JSON object (the `stats` member of the
    /// `--report json` document — schema documented in `DESIGN.md`).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "derivative_steps": self.derivative_steps,
            "deriv_memo_hits": self.deriv_memo_hits,
            "triple_classes": self.triple_classes,
            "node_checks": self.node_checks,
            "gfp_reruns": self.gfp_reruns,
            "sorbe_checks": self.sorbe_checks,
            "expr_pool_size": self.expr_pool_size,
            "budget_steps": self.budget_steps,
            "peak_arena_nodes": self.peak_arena_nodes,
            "max_depth_reached": self.max_depth_reached as u64,
            "exhausted_checks": self.exhausted_checks,
            "invalidated_pairs": self.invalidated_pairs,
            "retyped_pairs": self.retyped_pairs,
            "reused_pairs": self.reused_pairs,
        })
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "∂-steps={} memo-hits={} classes={} checks={} sorbe={} reruns={} pool={}",
            self.derivative_steps,
            self.deriv_memo_hits,
            self.triple_classes,
            self.node_checks,
            self.sorbe_checks,
            self.gfp_reruns,
            self.expr_pool_size
        )?;
        if self.budget_steps > 0 || self.exhausted_checks > 0 {
            write!(
                f,
                " budget-steps={} peak-arena={} max-depth={} exhausted={}",
                self.budget_steps,
                self.peak_arena_nodes,
                self.max_depth_reached,
                self.exhausted_checks
            )?;
        }
        if self.invalidated_pairs > 0 || self.retyped_pairs > 0 || self.reused_pairs > 0 {
            write!(
                f,
                " invalidated={} retyped={} reused={}",
                self.invalidated_pairs, self.retyped_pairs, self.reused_pairs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typing_add_and_query() {
        let mut pool = TermPool::new();
        let n = pool.intern_iri("http://e/n");
        let m = pool.intern_iri("http://e/m");
        let mut t = Typing::new();
        t.add(n, ShapeId(0));
        t.add(n, ShapeId(1));
        t.add(n, ShapeId(0)); // duplicate ignored
        assert!(t.has(n, ShapeId(0)));
        assert!(t.has(n, ShapeId(1)));
        assert!(!t.has(m, ShapeId(0)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.shapes_of(n).count(), 2);
        assert_eq!(t.shapes_of(m).count(), 0);
    }

    #[test]
    fn typing_render_sorted() {
        let mut pool = TermPool::new();
        let n = pool.intern_iri("http://e/b");
        let m = pool.intern_iri("http://e/a");
        let mut t = Typing::new();
        t.add(n, ShapeId(0));
        t.add(m, ShapeId(0));
        let s = t.render(&pool, &|_| ShapeLabel::new("S"));
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("/a"));
    }

    #[test]
    fn failure_render_unexpected() {
        let mut pool = TermPool::new();
        let s = pool.intern_iri("http://e/s");
        let p = pool.intern_iri("http://e/p");
        let o = pool.intern_iri("http://e/o");
        let f = Failure {
            kind: FailureKind::UnexpectedTriple {
                subject: s,
                predicate: p,
                object: o,
            },
            expectation: "a→1".to_string(),
        };
        let msg = f.render(&pool);
        assert!(msg.contains("<http://e/p>"));
        assert!(msg.contains("a→1"));
    }

    #[test]
    fn failure_render_missing() {
        let pool = TermPool::new();
        let f = Failure {
            kind: FailureKind::MissingRequired,
            expectation: "b→{1,2}".to_string(),
        };
        assert!(f.render(&pool).contains("missing required"));
    }

    #[test]
    fn stats_display() {
        let s = Stats {
            derivative_steps: 10,
            ..Stats::default()
        };
        assert!(s.to_string().contains("∂-steps=10"));
        assert!(!s.to_string().contains("budget-steps"));
        let governed = Stats {
            budget_steps: 7,
            exhausted_checks: 1,
            ..Stats::default()
        };
        assert!(governed.to_string().contains("budget-steps=7"));
        assert!(governed.to_string().contains("exhausted=1"));
    }

    #[test]
    fn outcome_accessors() {
        use crate::budget::{Budget, Resource};
        assert!(Outcome::Conforms.matched());
        assert!(!Outcome::Fails.matched());
        assert!(!Outcome::Fails.is_exhausted());
        let e = Budget::steps(1).meter().step().unwrap_err();
        let o = Outcome::Exhausted(e);
        assert!(o.is_exhausted());
        assert!(!o.matched());
        assert_eq!(o.exhaustion().unwrap().resource, Resource::Steps);
        assert!(Outcome::Fails.exhaustion().is_none());
    }

    #[test]
    fn typing_partial_tracking() {
        use crate::budget::Budget;
        let mut pool = TermPool::new();
        let n = pool.intern_iri("http://e/n");
        let mut t = Typing::new();
        assert!(!t.is_partial());
        let e = Budget::steps(1).meter().step().unwrap_err();
        t.add_exhausted(n, ShapeId(0), e);
        assert!(t.is_partial());
        assert_eq!(t.exhausted.len(), 1);
        assert!(!t.has(n, ShapeId(0)));
    }
}
