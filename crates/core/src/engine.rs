//! The derivative-based validation engine (paper §6–§8).
//!
//! Matching a node consumes its neighbourhood one triple at a time
//! (`e ≃ t ⊕ ts ⇔ ∂t(e) ≃ ts`, §7), so there is no graph decomposition and
//! no backtracking. The two ingredients beyond the calculus itself:
//!
//! * **Triple classes.** `∂t` only depends on *which arc constraints* `t`
//!   satisfies, so each triple is mapped to its class in the shape's
//!   class table (the lazy DFA's, [`crate::dfa`]) first and derivatives
//!   are memoised per `(expression, class)` — the Owens–Reppy–Turon
//!   character-class idea transplanted to triples.
//! * **Typing context `Γ`.** Shape references (§8 *Arcref*) recurse through
//!   the internal `check_inner`; a reference back to an open `(node, shape)`
//!   pair succeeds on a coinductive assumption (`Γ{n→l}` in Fig. 3). Open
//!   pairs sit on a strongly-connected-component stack (Tarjan 1972) used
//!   as a local greatest fixpoint (Liu & Smolka 1998): a pair that finishes
//!   true stays open until the component it rests on closes, and then the
//!   whole component is proven at once; a pair that fails drops the open
//!   pairs above it, which are decided again at their next lookup. Failure
//!   is final and a closed component is a consistent set of assumptions, so
//!   this is the greatest-fixpoint typing (sound because shape references
//!   are never negated, so matching is monotone in the assumptions).

use std::sync::Arc;
use std::time::Instant;

use rustc_hash::{FxHashMap, FxHashSet};
use shapex_rdf::delta::GraphDelta;
use shapex_rdf::graph::Graph;
use shapex_rdf::pool::{TermId, TermPool};
use shapex_shex::ast::ShapeLabel;
use shapex_shex::schema::{Schema, SchemaError};
use shapex_shex::shapemap::ShapeMap;

use crate::arena::{ArcId, ExprId, Node, Simplify, EMPTY, UNBOUNDED};
use crate::budget::{Budget, BudgetMeter, Exhaustion, Resource};
use crate::calculus::{schema_diff, SchemaDiff};
use crate::compile::{CompiledObject, CompiledSchema, ShapeId};
use crate::dfa::ShapeDfa;
use crate::metrics::{Metrics, ShardMetrics, WaveMetrics};
use crate::result::{Failure, FailureKind, MatchResult, Outcome, Stats, Typing};
use crate::sched::{self, Batch, BatchQueue, Executor, PubLog, WorkerCounters};

/// Whether a shape must account for the node's entire neighbourhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Closure {
    /// The paper's semantics: `Σg_n ∈ S_n[[e]]` — every outgoing triple
    /// must be consumed by the expression.
    #[default]
    Closed,
    /// ShEx-style: only triples whose predicate is mentioned by the shape
    /// participate; others are ignored.
    Open,
}

/// Engine configuration. `simplify`, `no_deriv_memo` and `no_sorbe` are
/// the E9 ablation switches; `closure` picks the semantics, and `budget`,
/// `metrics` and `incremental` set limits and optional bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Which simplification rules the expression arena applies.
    pub simplify: Simplify,
    /// Closed (paper) vs open (ShEx) neighbourhood semantics.
    pub closure: Closure,
    /// Disable the `(expression, triple-class)` derivative memo — the
    /// lazy DFA's transition tables (see [`crate::dfa`]) — so every
    /// derivative is recomputed.
    pub no_deriv_memo: bool,
    /// Disable the SORBE counting fast path (§8 future work; see
    /// [`crate::sorbe`]), forcing the general derivative algorithm.
    pub no_sorbe: bool,
    /// Per-query resource limits (see [`crate::budget`]). The default,
    /// [`Budget::UNLIMITED`], governs nothing.
    pub budget: Budget,
    /// Collect fine-grained observability counters (see
    /// [`crate::metrics`]). Off by default: when disabled the engine
    /// allocates no metrics state and instrumentation sites reduce to a
    /// single `Option` discriminant test.
    pub metrics: bool,
    /// Record the reverse shape-reference edges during typing so that
    /// [`Engine::revalidate`] can re-check only the `(node, shape)` pairs
    /// a [`GraphDelta`] actually disturbs. Off by default: recording
    /// costs a hash insert per consumed answer, and without it
    /// `revalidate` falls back to [`Engine::reset`] + a full re-typing.
    pub incremental: bool,
}

/// A validation error at the API boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The queried label has no definition in the schema.
    UnknownShape(String),
    /// The schema failed well-formedness checks at compile time.
    Schema(SchemaError),
    /// A [`Engine::revalidate`] call whose delta does not match the graph:
    /// a triple the delta claims to have added is absent, or one it claims
    /// to have removed (and not re-added) is still present. This means the
    /// delta was never applied — or was applied to a different graph — and
    /// revalidating against it would serve answers from a stale dependency
    /// index.
    StaleDelta {
        /// Human-readable description of the first mismatch found.
        detail: String,
    },
    /// A resource budget tripped before the check completed (see
    /// [`crate::budget`]). Exhaustion is *not* non-conformance: the
    /// question is unanswered, and re-running with a larger budget may
    /// answer it either way.
    ResourceExhausted {
        /// The resource that ran out.
        resource: Resource,
        /// Units spent when the budget tripped.
        spent: u64,
        /// The configured limit.
        limit: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownShape(l) => write!(f, "unknown shape <{l}>"),
            EngineError::Schema(e) => e.fmt(f),
            EngineError::StaleDelta { detail } => {
                write!(f, "delta does not match graph (was it applied?): {detail}")
            }
            EngineError::ResourceExhausted {
                resource,
                spent,
                limit,
            } => write!(f, "{resource} budget exhausted ({spent}/{limit})"),
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// The exhaustion record of a [`EngineError::ResourceExhausted`].
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        match *self {
            EngineError::ResourceExhausted {
                resource,
                spent,
                limit,
            } => Some(Exhaustion {
                resource,
                spent,
                limit,
            }),
            _ => None,
        }
    }
}

impl From<SchemaError> for EngineError {
    fn from(e: SchemaError) -> Self {
        EngineError::Schema(e)
    }
}

impl From<Exhaustion> for EngineError {
    fn from(e: Exhaustion) -> Self {
        EngineError::ResourceExhausted {
            resource: e.resource,
            spent: e.spent,
            limit: e.limit,
        }
    }
}

/// Outcome of one shape-map association (see [`Engine::validate_map`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOutcome {
    /// Index into the shape map's association list.
    pub index: usize,
    /// Whether the node conforms to the shape.
    pub conforms: bool,
    /// Whether the result matches the association's stated expectation
    /// (`@!` associations expect non-conformance). Always `false` for an
    /// exhausted check: the expectation was neither met nor refuted.
    pub as_expected: bool,
    /// The failure explanation, when the node does not conform.
    pub failure: Option<Failure>,
    /// Present when the check exhausted its budget instead of completing;
    /// `conforms` is `false` but the node was *not* proven non-conforming.
    pub exhaustion: Option<Exhaustion>,
}

/// One step of a §7 derivative trace: the consumed triple and the
/// expression state around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The consumed triple's subject.
    pub subject: TermId,
    /// The consumed triple's predicate.
    pub predicate: TermId,
    /// The consumed triple's object.
    pub object: TermId,
    /// Whether the triple was consumed through an inverse arc.
    pub inverse: bool,
    /// Rendered expression before `∂t`.
    pub before: String,
    /// Rendered expression after `∂t`.
    pub after: String,
}

/// A full derivative trace (see [`Engine::trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Per-triple derivative steps, stopping early once the state is `∅`.
    pub steps: Vec<TraceStep>,
    /// The residual expression after all consumed triples.
    pub residual: String,
    /// `ν(residual)`.
    pub nullable: bool,
    /// The overall verdict (`residual ≠ ∅ ∧ ν`).
    pub matched: bool,
}

impl Trace {
    /// Renders the trace in the paper's `e ≃ {…} ⇔ ∂t(e) ≃ {…}` style.
    pub fn render(&self, pool: &TermPool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for step in &self.steps {
            let dir = if step.inverse { "^" } else { "" };
            let _ = writeln!(
                out,
                "∂{dir}⟨{} {} {}⟩:\n    {}\n  → {}",
                pool.term(step.subject),
                pool.term(step.predicate),
                pool.term(step.object),
                step.before,
                step.after
            );
        }
        let _ = writeln!(
            out,
            "ν({}) = {} ⇒ {}",
            self.residual,
            self.nullable,
            if self.matched {
                "MATCHES"
            } else {
                "does NOT match"
            }
        );
        out
    }
}

type Pair = (ShapeId, TermId);

/// A triple of a node's neighbourhood as a shape consumes it:
/// `(pred, other-end, inverse, subject, object)` — the last two are the
/// original triple ends, kept for error reporting.
type NbTriple = (TermId, TermId, bool, TermId, TermId);

/// A decided `(shape, node)` answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Proven,
    Failed,
}

/// Where a match failed, as ids: [`Engine::explain`] renders it, typing
/// drops it.
#[derive(Debug, Clone, Copy)]
enum FailSite {
    /// `∂` of the cited state by the triple `[s, p, o]` is `∅` (on the
    /// SORBE path, a triple no conjunct owns cites the whole expression).
    Triple([TermId; 3], ExprId),
    /// (SORBE) the triple's object fails the arc that owns it.
    Object([TermId; 3], ArcId),
    /// The residual left after every triple is not nullable.
    Residual(ExprId),
    /// (SORBE) an arc's triple count lies outside its `[min, max]`:
    /// `[found, min, max]`.
    Count(ArcId, [u32; 3]),
}

impl FailSite {
    /// The [`Failure`] this site explains.
    fn render(self, schema: &CompiledSchema) -> Failure {
        let display = |arc: ArcId| schema.arc(arc).display.clone();
        let unexpected =
            |[subject, predicate, object]: [TermId; 3]| FailureKind::UnexpectedTriple {
                subject,
                predicate,
                object,
            };
        let (kind, expectation) = match self {
            FailSite::Triple(t, e) => (unexpected(t), schema.render_expr(e)),
            FailSite::Object(t, arc) => (unexpected(t), display(arc)),
            FailSite::Residual(e) => (FailureKind::MissingRequired, schema.render_expr(e)),
            FailSite::Count(arc, [found, min, max]) => {
                let max = (max != UNBOUNDED).then_some(max);
                let kind = FailureKind::Cardinality {
                    arc: display(arc),
                    found,
                    min,
                    max,
                };
                (kind, display(arc))
            }
        };
        Failure { kind, expectation }
    }
}

/// A precomputed invalidation closure for
/// [`Engine::revalidate_par_planned`]: the memoised `(shape, node)` pairs a
/// [`GraphDelta`] can disturb, closed over the reverse shape-reference
/// edges.
///
/// Produced by [`Engine::plan_invalidation`], which reads only the
/// engine's memo, its reference edges and the delta — never the graph — so the
/// plan is valid whether it is computed before, after, or concurrently
/// with applying the delta to the graph.
#[derive(Debug, Default)]
pub struct InvalidationPlan {
    dirty: FxHashSet<Pair>,
}

impl InvalidationPlan {
    /// Number of `(shape, node)` pairs the plan will purge.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// True when the delta cannot disturb any memoised answer.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// The result of [`Engine::swap_schema`]: the engine for the new schema,
/// seeded with every verdict the diff proved reusable.
#[derive(Debug)]
pub struct SchemaSwap {
    /// The new schema's engine, compiled with the old engine's config.
    pub engine: Engine,
    /// The shape-by-shape classification of old against new.
    pub diff: SchemaDiff,
    /// How many `(node, shape)` verdicts moved into `engine`.
    pub transplanted: usize,
}

/// The validator. Holds the compiled schema, the expression arena, and all
/// memo tables; reusable across many [`Engine::check`] calls over the same
/// graph/pool.
#[derive(Debug)]
pub struct Engine {
    schema: CompiledSchema,
    /// The schema `schema` was compiled from: the old side of
    /// [`Engine::swap_schema`]'s diff. Shared with parallel workers.
    source: Arc<Schema>,
    config: EngineConfig,
    /// `(shape, node)` results, persistent across checks.
    memo: FxHashMap<Pair, Verdict>,
    /// Value-constraint satisfaction per `(arc, object term)` — term
    /// semantics never change, so this survives re-runs.
    value_sat: FxHashMap<(ArcId, TermId), bool>,
    /// Per-shape lazy DFAs (see [`crate::dfa`]): each shape's triple-class
    /// table — its masked satisfaction profiles, interned to dense class
    /// ids — and its derivative memo. `∂` is a pure function of
    /// `(expression, class bits)`, so both persist across runs, and a
    /// class id keeps its meaning until [`Engine::reset`] clears them.
    dfas: Vec<ShapeDfa>,
    /// Filled transition cells across all shape DFAs, mirrored here so
    /// the budget's arena accounting is O(1) (see `arena_units`).
    dfa_filled: usize,
    /// `Γ` (Fig. 3): the stack index of every open pair — in progress, or
    /// finished true inside a component that has not closed yet.
    open: FxHashMap<Pair, u32>,
    /// The component stack: open pairs in the order they were entered.
    /// Both it and `open` are empty between queries.
    stack: Vec<Pair>,
    stats: Stats,
    /// Per-query budget meter, reset by each top-level `gfp_run`/trace so
    /// every node in a batch gets the full budget (per-node fault
    /// isolation).
    meter: BudgetMeter,
    /// The start of the parallel run a worker serves. Its meters measure
    /// the deadline from this instant, so `--timeout-ms` bounds the whole
    /// run (a run starts no later than any of its queries). `None` outside
    /// a parallel run: each query's clock then starts at its first poll.
    run_start: Option<Instant>,
    /// Observability counters; allocated only when
    /// [`EngineConfig::metrics`] is set (zero-cost when disabled).
    metrics: Option<Box<Metrics>>,
    /// Reverse shape-reference edges for [`Engine::revalidate`]: consumed
    /// pair → the pairs whose derivation consumed its answer (by memo hit,
    /// coinductive assumption or fresh evaluation). Recorded only when
    /// [`EngineConfig::incremental`] is set. Edges are never removed
    /// between runs (a purged pair re-records on re-evaluation), so a stale
    /// edge can only over-invalidate.
    rdeps: FxHashMap<Pair, FxHashSet<Pair>>,
    /// The stack of pairs currently being evaluated, so dependency
    /// recording knows which pair is consuming a nested answer. Always
    /// empty between queries (frames pop even on budget exhaustion).
    dep_stack: Vec<Pair>,
    /// Shared thread pool for parallel typing, installed by the server so
    /// request-level and intra-request parallelism draw from one pool
    /// (see [`Engine::set_executor`]). `None` means [`Engine::type_all_par`]
    /// spins up a transient pool per call.
    executor: Option<Arc<Executor>>,
    /// Publication buffer for the work-stealing scheduler: when `Some`,
    /// every pair that gets a verdict (a failure, or a closed component)
    /// is recorded here so the worker loop can publish it to its peers
    /// between queries. `None` (the default) keeps the hot path to a
    /// single discriminant test.
    publish: Option<Vec<Pair>>,
    /// The SORBE fast path's conjunct counts: one frame per check in
    /// progress, nested checks above the checks they serve (see
    /// [`Engine::match_sorbe`]). Empty between queries.
    sorbe_counts: Vec<u32>,
}

impl Engine {
    /// Compiles a schema for validation, interning its terms into `terms`.
    pub fn compile(
        schema: &Schema,
        terms: &mut TermPool,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        shapex_rdf::failpoint::hit("engine-compile");
        let compiled = CompiledSchema::compile(schema, terms, config.simplify)?;
        let metrics = config
            .metrics
            .then(|| Box::new(Metrics::new(compiled.shapes.len())));
        let dfas = vec![ShapeDfa::new(); compiled.shapes.len()];
        let mut engine = Engine {
            schema: compiled,
            source: Arc::new(schema.clone()),
            config,
            memo: FxHashMap::default(),
            value_sat: FxHashMap::default(),
            dfas,
            dfa_filled: 0,
            open: FxHashMap::default(),
            stack: Vec::new(),
            stats: Stats::default(),
            meter: BudgetMeter::default(),
            run_start: None,
            metrics,
            rdeps: FxHashMap::default(),
            dep_stack: Vec::new(),
            executor: None,
            publish: None,
            sorbe_counts: Vec::new(),
        };
        engine.measure_pool();
        Ok(engine)
    }

    /// Installs a shared [`Executor`] for parallel typing: subsequent
    /// [`Engine::type_all_par`] / [`Engine::revalidate_par`] calls fan
    /// their workers out on this pool instead of spawning a transient
    /// one. The server installs its request executor here, so one pool
    /// serves both request-level and intra-request parallelism.
    pub fn set_executor(&mut self, executor: Arc<Executor>) {
        self.executor = Some(executor);
    }

    /// Convenience compile with the default configuration.
    pub fn new(schema: &Schema, terms: &mut TermPool) -> Result<Engine, EngineError> {
        Engine::compile(schema, terms, EngineConfig::default())
    }

    /// The compiled schema this engine validates against.
    pub fn schema(&self) -> &CompiledSchema {
        &self.schema
    }

    /// Resolves a shape label to its compiled id.
    pub fn shape_id(&self, label: &ShapeLabel) -> Option<ShapeId> {
        self.schema.shape_id(label)
    }

    /// The label of a compiled shape.
    pub fn label_of(&self, shape: ShapeId) -> &ShapeLabel {
        &self.schema.shape(shape).label
    }

    /// Counters of the typing runs since construction (or
    /// [`Engine::reset`]); the arena sizes are measured as each run ends.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Records the arena size at the end of a run.
    fn measure_pool(&mut self) {
        self.stats.expr_pool_size = self.schema.pool.len();
        self.stats.peak_arena_nodes = self.stats.peak_arena_nodes.max(self.schema.pool.len());
    }

    /// The fine-grained observability counters, when collection is
    /// enabled via [`EngineConfig::metrics`]. `None` otherwise.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_deref()
    }

    /// Runs one instrumentation closure iff metrics collection is on.
    #[inline]
    fn metric(&mut self, f: impl FnOnce(&mut Metrics)) {
        if let Some(m) = &mut self.metrics {
            f(m);
        }
    }

    /// The budget every subsequent query runs under (also settable at
    /// compile time via [`EngineConfig::budget`]).
    pub fn set_budget(&mut self, budget: Budget) {
        self.config.budget = budget;
    }

    /// The currently configured budget.
    pub fn budget(&self) -> Budget {
        self.config.budget
    }

    /// Clears all memoised state (the compiled schema is kept), making the
    /// engine safe to reuse against a different (or mutated) graph.
    ///
    /// This must cover the *persistent* caches too, not just the
    /// `(node, shape)` memo: the DFA class tables restart their numbering
    /// when cleared, so each shape's transitions must go with them, or a
    /// surviving transition would silently alias a different triple class
    /// on the next run.
    pub fn reset(&mut self) {
        self.memo.clear();
        self.value_sat.clear();
        for dfa in &mut self.dfas {
            *dfa = ShapeDfa::new();
        }
        self.dfa_filled = 0;
        self.drop_open();
        self.rdeps.clear();
        self.dep_stack.clear();
        self.stats = Stats::default();
        self.measure_pool();
        if let Some(m) = &mut self.metrics {
            **m = Metrics::new(self.schema.shapes.len());
        }
    }

    /// Checks `node` against the shape named `label` (paper §8:
    /// `Γ ⊢ label ≃s node`).
    ///
    /// ```
    /// use shapex::Engine;
    /// let schema = shapex_shex::shexc::parse(
    ///     "PREFIX e: <http://e/>\n<S> { e:p [1 2]+ }").unwrap();
    /// let mut ds = shapex_rdf::turtle::parse(
    ///     "@prefix e: <http://e/> . e:n e:p 1, 2 .").unwrap();
    /// let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
    /// let n = ds.iri("http://e/n").unwrap();
    /// assert!(engine.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap().matched);
    /// ```
    pub fn check(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        label: &ShapeLabel,
    ) -> Result<MatchResult, EngineError> {
        let shape = self
            .schema
            .shape_id(label)
            .ok_or_else(|| EngineError::UnknownShape(label.as_str().to_string()))?;
        match self.check_id(graph, terms, node, shape) {
            Outcome::Exhausted(e) => Err(e.into()),
            outcome => Ok(MatchResult {
                matched: outcome.matched(),
                failure: self.explain(graph, terms, node, shape),
            }),
        }
    }

    /// Why `node` fails `shape`; `None` unless the memo holds the pair as
    /// failed. The pair's match runs again with every shape reference
    /// answered from the memo (one no run has decided yet is decided
    /// first, by the normal path), and the first triple in neighbourhood
    /// order that drives it to failure is rendered. The maximal typing is
    /// a fixpoint, so the re-run fails again, and it is unique, so the
    /// explanation depends only on the graph and the schema — not on
    /// `--jobs`, on the order pairs were decided in, or on a schema swap.
    /// `None` also when that work exhausts the budget. It is left out of
    /// [`Engine::stats`] and [`Engine::metrics`], which count typing only.
    pub fn explain(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
    ) -> Option<Failure> {
        if self.memo.get(&(shape, node)) != Some(&Verdict::Failed) {
            return None;
        }
        // References the run left undecided are decided first, by the
        // normal path (on the large stack, should they form a chain), so
        // the re-run below recurses into none of them.
        let triples = self.gather_triples(graph, node, shape);
        let mut undecided = Vec::new();
        for &(p, other, inverse, _, _) in &triples {
            for arc in self.schema.shape(shape).head_index.candidates(p, inverse) {
                match self.schema.arc(arc).object {
                    CompiledObject::Ref(t) if !self.memo.contains_key(&(t, other)) => {
                        undecided.push((other, t));
                    }
                    _ => {}
                }
            }
        }
        let (stats, metrics) = (self.stats, self.metrics.take());
        let exhausted = self
            .dispatch(graph, terms, &undecided, 1)
            .iter()
            .any(Outcome::is_exhausted);
        self.meter = self.fresh_meter();
        self.meter.set_arena_baseline(self.arena_units());
        let rerun = (!exhausted).then(|| {
            self.match_neighbourhood(graph, terms, shape, &triples, &mut { u32::MAX }, None)
        });
        (self.stats, self.metrics) = (stats, metrics);
        let site = rerun?.ok()?.err();
        debug_assert!(site.is_some(), "a failed pair fails again");
        Some(site?.render(&self.schema))
    }

    /// Checks `node` against a shape by id.
    ///
    /// Recursion through shape references is as deep as the data's
    /// reference chains (a 10⁵-link `knows`-chain recurses 10⁵ frames), so
    /// on recursive schemas an uncached check runs on a worker thread with
    /// a large stack; memoised answers and non-recursive schemas stay on
    /// the caller's stack.
    pub fn check_id(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
    ) -> Outcome {
        if let Some(answer) = self.memoised_answer(node, shape) {
            return answer;
        }
        if !self.schema.has_recursion {
            return self.gfp_run(graph, terms, node, shape);
        }
        self.on_big_stack(|engine| engine.gfp_run(graph, terms, node, shape))
    }

    /// Checks many `(node, shape)` pairs, amortising the large-stack
    /// worker (needed for data-deep reference recursion) over the whole
    /// batch — prefer this over a `check_id` loop when validating fleets
    /// of nodes against a recursive schema.
    pub fn check_many(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        queries: &[(TermId, ShapeId)],
    ) -> Vec<Outcome> {
        self.dispatch(graph, terms, queries, 1)
    }

    /// The fully-memoised answer for a pair, if any. Exhausted checks are
    /// never memoised — they stay retryable under a larger budget.
    fn memoised_answer(&self, node: TermId, shape: ShapeId) -> Option<Outcome> {
        Some(match self.memo.get(&(shape, node))? {
            Verdict::Proven => Outcome::Conforms,
            Verdict::Failed => Outcome::Fails,
        })
    }

    /// Runs `f` on a worker thread with a large (lazily committed) stack:
    /// comfortably ~10⁵ levels of reference recursion in debug builds.
    fn on_big_stack<R: Send>(&mut self, f: impl FnOnce(&mut Engine) -> R + Send) -> R {
        const WORKER_STACK: usize = 512 << 20;
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("shapex-validate".into())
                .stack_size(WORKER_STACK)
                .spawn_scoped(scope, || f(self))
                .expect("spawn validation worker")
                .join()
                .expect("validation worker panicked")
        })
    }

    /// One top-level query under a fresh budget meter. The queried pair
    /// is the bottom of the component stack, so it always closes or fails
    /// (see the module docs). On exhaustion the query aborts: the open
    /// pairs are dropped undecided while verdicts already reached stay
    /// (they rest on no open pair), and the pair itself is not memoised,
    /// so it can be retried under a larger budget.
    fn gfp_run(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
    ) -> Outcome {
        shapex_rdf::failpoint::hit("typing-wave");
        self.meter = self.fresh_meter();
        // Query boundary of a parallel run: its deadline is checked here
        // even when single queries are too small to reach an amortised poll.
        if self.run_start.is_some() {
            if let Err(exhaustion) = self.meter.poll_deadline() {
                self.stats.exhausted_checks += 1;
                return Outcome::Exhausted(exhaustion);
            }
        }
        self.meter.set_arena_baseline(self.arena_units());
        let result = self.check_inner(graph, terms, node, shape, &mut { u32::MAX });
        if result.is_err() {
            self.drop_open();
            self.stats.exhausted_checks += 1;
        }
        debug_assert!(self.open.is_empty());
        self.fold_meter();
        match result {
            Ok(true) => Outcome::Conforms,
            Ok(false) => Outcome::Fails,
            Err(exhaustion) => Outcome::Exhausted(exhaustion),
        }
    }

    /// Drops every open pair, undecided: the cleanup after an exhausted
    /// query.
    fn drop_open(&mut self) {
        for pair in self.stack.drain(..) {
            self.open.remove(&pair);
        }
        // Frames pop their own dep_stack entries even on the error path;
        // the clear is belt-and-braces so a bug there can't mis-attribute
        // the next query's deps.
        debug_assert!(self.dep_stack.is_empty());
        self.dep_stack.clear();
    }

    /// A per-query meter; a parallel worker's clock runs from the start
    /// of the run.
    fn fresh_meter(&self) -> BudgetMeter {
        let mut meter = self.config.budget.meter();
        if let Some(start) = self.run_start {
            meter.start_clock_at(start);
        }
        meter
    }

    /// Folds the finished query's meter into the persistent stats.
    fn fold_meter(&mut self) {
        self.stats.budget_steps += self.meter.steps_spent();
        self.stats.max_depth_reached = self.stats.max_depth_reached.max(self.meter.peak_depth());
        self.stats.peak_arena_nodes = self.stats.peak_arena_nodes.max(self.meter.peak_arena());
        self.measure_pool();
        if let Some(m) = &mut self.metrics {
            m.budget_steps += self.meter.steps_spent();
            m.arena_high_water = m.arena_high_water.max(self.meter.peak_arena());
        }
    }

    /// Whether the lazy-DFA derivative memo is active (the E9
    /// `no_deriv_memo` ablation turns it off).
    #[inline]
    fn use_dfa(&self) -> bool {
        !self.config.no_deriv_memo
    }

    /// The units `max_arena_nodes` governs: hash-consed expression nodes
    /// plus filled DFA transition cells (table growth counts against the
    /// arena budget — the table is arena-shaped memory that grows with
    /// the same pathological inputs).
    #[inline]
    fn arena_units(&self) -> usize {
        self.schema.pool.len() + self.dfa_filled
    }

    /// Per-shape lazy-DFA sizes: `(label, states, classes, filled
    /// transitions)`.
    pub fn dfa_summary(&self) -> Vec<(String, usize, usize, usize)> {
        self.schema
            .shapes
            .iter()
            .zip(&self.dfas)
            .map(|(sh, d)| {
                (
                    sh.label.as_str().to_string(),
                    d.states(),
                    d.classes(),
                    d.filled(),
                )
            })
            .collect()
    }

    /// Validates every association of a shape map, returning per-entry
    /// outcomes: `(association index, conforms, meets expectation)`.
    /// Unknown shapes yield an error; focus nodes absent from the graph
    /// are checked against the empty neighbourhood.
    pub fn validate_map(
        &mut self,
        graph: &Graph,
        terms: &mut TermPool,
        map: &ShapeMap,
    ) -> Result<Vec<MapOutcome>, EngineError> {
        let mut queries = Vec::with_capacity(map.len());
        for assoc in map.iter() {
            let shape = self
                .schema
                .shape_id(&assoc.shape)
                .ok_or_else(|| EngineError::UnknownShape(assoc.shape.as_str().to_string()))?;
            queries.push((terms.intern(assoc.node.clone()), shape));
        }
        let results = self.check_many(graph, terms, &queries);
        Ok(map
            .iter()
            .zip(queries.into_iter().zip(results))
            .enumerate()
            .map(|(index, (assoc, ((node, shape), result)))| MapOutcome {
                index,
                conforms: result.matched(),
                as_expected: !result.is_exhausted() && result.matched() == assoc.expected,
                failure: self.explain(graph, terms, node, shape),
                exhaustion: result.exhaustion(),
            })
            .collect())
    }

    /// Computes the shape typing of every subject in the graph against
    /// every shape in the schema — the paper's Example 2 workflow.
    ///
    /// Under a budget this is the paper's *total* typing weakened to a
    /// **partial typing**: each `(node, shape)` query gets the full budget,
    /// and a query that exhausts it is recorded in
    /// [`Typing::exhausted`] instead of poisoning the batch — every other
    /// pair's `Conforms`/`Fails` answer is unaffected.
    pub fn type_all(&mut self, graph: &Graph, terms: &TermPool) -> Typing {
        self.type_all_par(graph, terms, 1)
    }

    /// Queries per work-stealing batch — the steal granularity. Small
    /// enough that a hub-heavy shard can be picked apart by idle peers,
    /// large enough that the deque CAS and publication-drain probes stay
    /// off the per-query path.
    const STEAL_BATCH: usize = 16;

    /// Parallel [`Engine::type_all`]: the same `subjects × shapes` query
    /// list, dispatched once to work-stealing workers (see
    /// [`crate::sched`] and DESIGN.md §5g).
    ///
    /// Soundness follows the paper's greatest-fixpoint semantics: each
    /// `(node, shape)` answer is a property of the graph alone, so workers
    /// may compute them in any interleaving. Each worker owns a *private*
    /// memo / `value_sat` / DFA shard seeded with a read-only
    /// snapshot of this engine's; open components never cross
    /// threads (they live only inside one query). Verdicts travel between
    /// workers only through the publication log, and the workers' memos,
    /// counters and DFA fills merge into this engine once, when the run
    /// ends. The resulting [`Typing`] is deterministic and identical to
    /// the sequential [`Engine::type_all`] (under a budget, *which* pair
    /// trips first may differ — see `Typing::exhausted`).
    ///
    /// `jobs <= 1` (and trivially small runs) take the exact sequential
    /// path. On the parallel path the configured deadline, if any, bounds
    /// the whole run: every worker measures it from the run's start.
    pub fn type_all_par(&mut self, graph: &Graph, terms: &TermPool, jobs: usize) -> Typing {
        let queries: Vec<(TermId, ShapeId)> = graph
            .subjects()
            .flat_map(|node| (0..self.schema.shapes.len()).map(move |i| (node, ShapeId(i as u32))))
            .collect();
        let results = self.dispatch(graph, terms, &queries, jobs);
        let mut typing = Typing::new();
        for ((node, shape), result) in queries.into_iter().zip(results) {
            match result {
                Outcome::Conforms => typing.add(node, shape),
                Outcome::Fails => {}
                Outcome::Exhausted(e) => typing.add_exhausted(node, shape, e),
            }
        }
        typing
    }

    /// Answers a batch of queries, in query order: the one execution
    /// path behind [`Engine::check_many`] and [`Engine::type_all_par`].
    ///
    /// `jobs <= 1`, or a batch smaller than two queries per worker, runs
    /// sequentially on this engine — on the large-stack worker when the
    /// schema is recursive and some answer is not memoised yet. Anything
    /// larger is cut into batches for work-stealing workers.
    fn dispatch(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        queries: &[(TermId, ShapeId)],
        jobs: usize,
    ) -> Vec<Outcome> {
        let jobs = jobs.max(1);
        if jobs == 1 || queries.len() < 2 * jobs {
            let run = |engine: &mut Engine| -> Vec<Outcome> {
                queries
                    .iter()
                    .map(|&(node, shape)| match engine.memoised_answer(node, shape) {
                        Some(answer) => answer,
                        None => engine.gfp_run(graph, terms, node, shape),
                    })
                    .collect()
            };
            let all_memoised = queries
                .iter()
                .all(|&(node, shape)| self.memo.contains_key(&(shape, node)));
            if !self.schema.has_recursion || all_memoised {
                return run(self);
            }
            return self.on_big_stack(run);
        }
        // The run's one clock: its deadline for every worker, and its
        // elapsed time in the metrics.
        let run_start = Instant::now();
        // Answers already known are free; the commit sequencer below
        // records them straight into their query slot.
        let mut results: Vec<Option<Outcome>> = vec![None; queries.len()];
        let mut pending: Vec<usize> = Vec::new();
        for (qi, &(node, shape)) in queries.iter().enumerate() {
            match self.memoised_answer(node, shape) {
                Some(answer) => results[qi] = Some(answer),
                None => pending.push(qi),
            }
        }
        // Expression ids are comparable across engines only within the
        // fork-time pool prefix: every worker's arena is a clone of this
        // one, so ids below `fork_len` mean the same node everywhere,
        // while later ids diverge per worker. DFA transition sharing is
        // restricted to that prefix.
        let fork_len = self.schema.pool.len();
        let mut workers: Vec<Engine> = (0..jobs).map(|_| self.fork_worker(run_start)).collect();
        let has_recursion = self.schema.has_recursion;
        // Workers run on a shared executor when one is installed (the
        // server's request pool), else on a transient pool for this call.
        let shared_exec = self.executor.clone();
        let transient_exec;
        let exec: &Executor = match &shared_exec {
            Some(e) => e.as_ref(),
            None => {
                transient_exec =
                    Executor::new(jobs, has_recursion.then_some(512 << 20), "shapex-par");
                &transient_exec
            }
        };
        // The calling thread may execute worker closures itself only when
        // its stack is known to be safe for them: pool threads carry the
        // big lazily-committed stack; a foreign caller joins in only for
        // recursion-free schemas.
        let participate = !has_recursion || exec.on_pool_thread();
        // Publication log: verdicts stream between workers as they are
        // reached — the run's only verdict channel.
        let publog: PubLog<(Pair, bool)> = PubLog::new();
        // Contiguous shares preserve the sequential visit order within
        // each worker (memo locality on reference chains); each share is
        // further cut into batches so idle peers can take a loaded
        // worker's tail.
        let per = pending.len().div_ceil(jobs);
        let timed = self.metrics.is_some();
        let mut outs: Vec<Vec<(usize, Outcome)>> = (0..jobs).map(|_| Vec::new()).collect();
        let mut counters = vec![WorkerCounters::default(); jobs];
        let deques: Vec<BatchQueue> = (0..jobs)
            .map(|w| {
                let lo = (w * per).min(pending.len());
                let hi = ((w + 1) * per).min(pending.len());
                let batches: Vec<Batch> = (lo..hi)
                    .step_by(Self::STEAL_BATCH)
                    .map(|s| Batch {
                        start: s as u32,
                        len: Self::STEAL_BATCH.min(hi - s) as u32,
                    })
                    .collect();
                BatchQueue::new(&batches)
            })
            .collect();
        let deques = &deques;
        let publog = &publog;
        let pending = &pending[..];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = workers
            .iter_mut()
            .zip(outs.iter_mut())
            .zip(counters.iter_mut())
            .enumerate()
            .map(|(w, ((worker, out), ctr))| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    worker.steal_loop(
                        graph, terms, w, jobs, queries, pending, deques, publog, out, ctr, timed,
                    );
                });
                task
            })
            .collect();
        exec.run_tasks(tasks, participate);
        // Deterministic commit sequencer: whatever order workers finished
        // in, verdicts land in their query-index slot and the final typing
        // is assembled in query order below.
        for out in outs {
            for (qi, outcome) in out {
                results[qi] = Some(outcome);
            }
        }
        // End of run: merge every worker once — verdicts into the memo,
        // DFA fill logs into the shared tables (so later runs on this
        // engine start warm), counters into the run totals.
        let mut shards: Vec<ShardMetrics> = Vec::new();
        for (w, worker) in workers.iter_mut().enumerate() {
            if self.use_dfa() {
                for (si, wd) in worker.dfas.iter_mut().enumerate() {
                    for t in wd.take_log() {
                        // Only transitions wholly inside the shared pool
                        // prefix are meaningful engine-wide.
                        if t.src.index() >= fork_len || t.dst.index() >= fork_len {
                            continue;
                        }
                        let my = &mut self.dfas[si];
                        let (c, _) = my.intern_class(wd.class_bits(t.class));
                        let src = my.intern_state(t.src).0;
                        let dst = my.intern_state(t.dst).0;
                        if my.record(src, c, dst) {
                            self.dfa_filled += 1;
                        }
                    }
                }
            }
            let promoted = self.absorb_worker(worker);
            self.stats.absorb(&worker.stats);
            self.stats.peak_arena_nodes = self.stats.peak_arena_nodes.max(worker.schema.pool.len());
            // Fold the worker's reference edges into the shared index so a
            // later `revalidate` sees edges for pairs decided on any shard.
            for (pair, parents) in std::mem::take(&mut worker.rdeps) {
                self.rdeps.entry(pair).or_default().extend(parents);
            }
            if let (Some(m), Some(wm)) = (&mut self.metrics, worker.metrics.as_deref()) {
                m.absorb(wm);
                let c = &counters[w];
                shards.push(ShardMetrics {
                    worker: w,
                    queries: c.executed,
                    stolen: c.stolen,
                    steals: c.steals,
                    steal_attempts: c.steal_attempts,
                    published: c.published,
                    drained: c.drained,
                    busy_us: c.busy_us,
                    idle_us: c.idle_us,
                    promoted: promoted as u64,
                    budget_steps: worker.stats.budget_steps,
                    derivative_steps: worker.stats.derivative_steps,
                });
            }
        }
        self.measure_pool();
        if let Some(m) = &mut self.metrics {
            m.waves.push(WaveMetrics {
                queries: queries.len() as u64,
                memo_answered: (queries.len() - pending.len()) as u64,
                merged_answered: counters.iter().map(|c| c.merged).sum(),
                dispatched: pending.len() as u64,
                steals: counters.iter().map(|c| c.steals).sum(),
                steal_attempts: counters.iter().map(|c| c.steal_attempts).sum(),
                published: counters.iter().map(|c| c.published).sum(),
                elapsed_us: run_start.elapsed().as_micros().min(u64::MAX as u128) as u64,
                shards,
            });
        }
        results
            .into_iter()
            .map(|r| r.expect("every query answered"))
            .collect()
    }

    /// The work-stealing worker body of a parallel run (DESIGN.md §5g).
    ///
    /// Worker `w` drains its own deque front-to-back (sequential order,
    /// memo locality); when dry it probes peers in the deterministic
    /// [`sched::steal_victim`] sequence and takes batches off their
    /// *backs* — the work the owner would reach last. Before each batch
    /// it merges every verdict its peers have published since its last
    /// drain (`or_insert`: a local answer is never overwritten), and
    /// after each query it publishes its own new verdicts. A query whose
    /// verdict was reached earlier in the run (here or by a peer) is
    /// answered from the memo and counted in `ctr.merged`.
    /// The loop ends only when every deque is empty, so each pending
    /// query is executed exactly once by exactly one worker.
    #[allow(clippy::too_many_arguments)]
    fn steal_loop(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        w: usize,
        jobs: usize,
        queries: &[(TermId, ShapeId)],
        pending: &[usize],
        deques: &[BatchQueue],
        publog: &PubLog<(Pair, bool)>,
        out: &mut Vec<(usize, Outcome)>,
        ctr: &mut WorkerCounters,
        timed: bool,
    ) {
        self.publish = Some(Vec::new());
        let mut mark = 0;
        loop {
            let (batch, stolen) = match deques[w].pop_front() {
                Some(b) => (b, false),
                None => {
                    let idle_start = timed.then(Instant::now);
                    let mut got = None;
                    'steal: loop {
                        for attempt in 0..(2 * jobs as u64) {
                            let victim = sched::steal_victim(w, jobs, ctr.executed, attempt);
                            ctr.steal_attempts += 1;
                            if let Some(b) = deques[victim].steal_back() {
                                got = Some(b);
                                break 'steal;
                            }
                        }
                        if deques.iter().all(|d| d.remaining() == 0) {
                            break 'steal;
                        }
                        std::thread::yield_now();
                    }
                    if let Some(t) = idle_start {
                        ctr.idle_us += t.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    }
                    match got {
                        Some(b) => {
                            ctr.steals += 1;
                            (b, true)
                        }
                        None => break,
                    }
                }
            };
            // Merge peers' published verdicts before starting the batch:
            // free answers for everything that follows.
            ctr.drained += publog.drain_from(&mut mark, |&(pair, proven)| {
                self.memo.entry(pair).or_insert(if proven {
                    Verdict::Proven
                } else {
                    Verdict::Failed
                });
            }) as u64;
            let busy_start = timed.then(Instant::now);
            for i in batch.start..batch.start + batch.len {
                let qi = pending[i as usize];
                let (node, shape) = queries[qi];
                let outcome = match self.memoised_answer(node, shape) {
                    Some(answer) => {
                        ctr.merged += 1;
                        answer
                    }
                    None => self.gfp_run(graph, terms, node, shape),
                };
                out.push((qi, outcome));
                ctr.executed += 1;
                if stolen {
                    ctr.stolen += 1;
                }
                self.flush_published(publog, ctr);
            }
            if let Some(t) = busy_start {
                ctr.busy_us += t.elapsed().as_micros().min(u64::MAX as u128) as u64;
            }
        }
        self.publish = None;
    }

    /// Publishes every verdict buffered since the last flush. Buffered
    /// pairs are re-read from the memo at flush time: a pair whose query
    /// later exhausted is still publishable (verdicts are never rolled
    /// back).
    fn flush_published(&mut self, publog: &PubLog<(Pair, bool)>, ctr: &mut WorkerCounters) {
        let buf = match &mut self.publish {
            Some(buf) if !buf.is_empty() => std::mem::take(buf),
            _ => return,
        };
        let entries: Vec<(Pair, bool)> = buf
            .iter()
            .map(|&pair| (pair, self.memo[&pair] == Verdict::Proven))
            .collect();
        ctr.published += publog.publish(entries) as u64;
    }

    /// Re-types the graph after a [`GraphDelta`] was applied to it,
    /// re-evaluating only the `(node, shape)` pairs the delta can disturb
    /// and answering everything else from the persistent memo — the
    /// resulting [`Typing`] is identical to a from-scratch
    /// [`Engine::type_all`] over the mutated graph.
    ///
    /// Requires [`EngineConfig::incremental`] (otherwise this degrades to
    /// [`Engine::reset`] plus a full re-typing). Call it with the
    /// *post-delta* graph; the delta tells the engine which triples
    /// changed. If the graph contradicts the delta — an added triple is
    /// absent, or a removed (and not re-added) triple is still present —
    /// the delta was never applied (or was applied to a different graph)
    /// and the call fails with [`EngineError::StaleDelta`] instead of
    /// serving answers from a stale memo. Applying the same
    /// delta twice is set-idempotent and therefore *not* detectable here.
    ///
    /// ```
    /// use shapex::{Engine, EngineConfig};
    /// use shapex::rdf::{delta, turtle};
    ///
    /// let schema = shapex::shex::shexc::parse(
    ///     "PREFIX e: <http://e/>\n<S> { e:p [1 2]+ }").unwrap();
    /// let mut ds = turtle::parse(
    ///     "@prefix e: <http://e/> . e:a e:p 1 . e:b e:p 3 .").unwrap();
    /// let mut engine = Engine::compile(&schema, &mut ds.pool, EngineConfig {
    ///     incremental: true,
    ///     ..EngineConfig::default()
    /// }).unwrap();
    /// let typing = engine.type_all(&ds.graph, &ds.pool);
    /// let b = ds.iri("http://e/b").unwrap();
    /// assert_eq!(typing.shapes_of(b).count(), 0);
    ///
    /// // Swap b's offending triple for a conforming one: only b's pair
    /// // is re-evaluated, a's answer is served from the memo.
    /// let d = delta::parse(
    ///     "@prefix e: <http://e/> .\n- e:b e:p 3 .\n+ e:b e:p 2 .\n",
    ///     &mut ds.pool).unwrap();
    /// ds.apply_delta(&d);
    /// let typing = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
    /// assert_eq!(typing.shapes_of(b).count(), 1);
    /// assert_eq!(engine.stats().retyped_pairs, 1);
    /// assert_eq!(engine.stats().reused_pairs, 1);
    /// ```
    pub fn revalidate(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        delta: &GraphDelta,
    ) -> Result<Typing, EngineError> {
        self.revalidate_par(graph, terms, delta, 1)
    }

    /// [`Engine::revalidate`] with an explicit worker count: the dirty
    /// frontier is re-typed through [`Engine::type_all_par`].
    pub fn revalidate_par(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        delta: &GraphDelta,
        jobs: usize,
    ) -> Result<Typing, EngineError> {
        let plan = self.plan_invalidation(delta);
        self.revalidate_par_planned(graph, terms, delta, plan, jobs)
    }

    /// [`Engine::revalidate_par`] with a caller-supplied
    /// [`InvalidationPlan`], for callers that computed the plan apart from
    /// the revalidation — before the delta was applied, say, or while it
    /// was being applied. The delta-applied check still runs against the
    /// post-delta graph.
    pub fn revalidate_par_planned(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        delta: &GraphDelta,
        plan: InvalidationPlan,
        jobs: usize,
    ) -> Result<Typing, EngineError> {
        self.check_delta_applied(graph, terms, delta)?;
        if !self.config.incremental {
            // No reference edges were recorded: the only sound move is to
            // drop every cache keyed against the old graph and start over.
            self.reset();
            return Ok(self.type_all_par(graph, terms, jobs));
        }
        Ok(self.revalidate_apply(graph, terms, plan, jobs))
    }

    /// Purges the planned pairs, records reuse accounting, and re-types.
    fn revalidate_apply(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        plan: InvalidationPlan,
        jobs: usize,
    ) -> Typing {
        let invalidated = self.apply_invalidation(plan);
        // Reuse accounting over the post-delta query list, taken before
        // the typing run repopulates the memo.
        let mut reused = 0u64;
        let mut retyped = 0u64;
        for node in graph.subjects() {
            for i in 0..self.schema.shapes.len() {
                if self.memo.contains_key(&(ShapeId(i as u32), node)) {
                    reused += 1;
                } else {
                    retyped += 1;
                }
            }
        }
        self.stats.invalidated_pairs += invalidated;
        self.stats.reused_pairs += reused;
        self.stats.retyped_pairs += retyped;
        self.metric(|m| {
            m.delta_invalidated += invalidated;
            m.delta_reused += reused;
            m.delta_retyped += retyped;
        });
        self.type_all_par(graph, terms, jobs)
    }

    /// Replaces this engine's schema with `new` over the same graph: the
    /// schema-delta counterpart of [`Engine::revalidate`]. Compiles `new`
    /// into `terms` (the pool this engine was compiled into) with this
    /// engine's config, diffs this engine's own source schema against it
    /// with [`schema_diff`] under that config's simplification, closure
    /// and budget, and transplants every reusable shape's verdicts.
    ///
    /// Taking the pool, the semantics and the old schema from `self` is
    /// what makes the transplant sound by construction: the diff's
    /// language-equality proof holds for one closure and one
    /// simplification only, and memo keys line up only within one pool.
    pub fn swap_schema(
        &self,
        new: &Schema,
        terms: &mut TermPool,
    ) -> Result<SchemaSwap, EngineError> {
        let config = self.config;
        let mut engine = Engine::compile(new, terms, config)?;
        let diff = schema_diff(
            &self.source,
            new,
            config.simplify,
            config.closure,
            &config.budget,
        )?;
        let transplanted = engine.transplant_verdicts(self, &diff.reusable);
        Ok(SchemaSwap {
            engine,
            diff,
            transplanted,
        })
    }

    /// Seeds this engine's verdict memo from an engine that validated the
    /// *same graph and term pool* against a different schema, for the
    /// shapes named in `reusable` — the schema-delta counterpart of
    /// [`Engine::revalidate`]'s graph-delta reuse.
    ///
    /// The memo's verdicts move, plus the reverse reference edges that lie
    /// entirely within the reusable set, remapped to this schema's shape
    /// ids; failures are explained afresh under the new schema (see
    /// [`Engine::explain`]). Engine-local caches (`value_sat`, DFA class
    /// and transition tables) stay cold; they are keyed by schema-local
    /// ids and rebuild on demand.
    ///
    /// Soundness rests on the caller's guarantee that every shape in
    /// `reusable` accepts the same language in both schemas *and* only
    /// references shapes that are themselves reusable — exactly what
    /// [`crate::calculus::SchemaDiff::reusable`] certifies (its `affected`
    /// closure walks reverse references) for a diff taken under both
    /// engines' closure and simplification. [`Engine::swap_schema`]
    /// meets all of it by construction. Returns the number of
    /// transplanted `(node, shape)` verdicts.
    pub fn transplant_verdicts(&mut self, old: &Engine, reusable: &[ShapeLabel]) -> usize {
        let mut remap: FxHashMap<ShapeId, ShapeId> = FxHashMap::default();
        for label in reusable {
            if let (Some(o), Some(n)) = (old.schema.shape_id(label), self.schema.shape_id(label)) {
                remap.insert(o, n);
            }
        }
        let mut moved = 0usize;
        for (&(shape, node), &verdict) in &old.memo {
            let Some(&new_shape) = remap.get(&shape) else {
                continue;
            };
            self.memo.insert((new_shape, node), verdict);
            moved += 1;
        }
        // Dependency edges survive only when both endpoints are reusable,
        // so a later *graph*-delta revalidation can still invalidate the
        // transplanted answers. Edges into affected shapes are dropped;
        // those pairs re-record when they are re-evaluated.
        let remap_pair = |(s, n): Pair| remap.get(&s).map(|&ns| (ns, n));
        for (&pair, parents) in &old.rdeps {
            let Some(p) = remap_pair(pair) else { continue };
            let mapped: Vec<Pair> = parents.iter().copied().filter_map(remap_pair).collect();
            if !mapped.is_empty() {
                self.rdeps.entry(p).or_default().extend(mapped);
            }
        }
        self.stats.reused_pairs += moved as u64;
        moved
    }

    /// Cheap sanity check that `delta` was actually applied to `graph`:
    /// every added triple must be present, and every removed triple that
    /// the delta does not also re-add must be absent. O(|delta|) hash
    /// probes.
    fn check_delta_applied(
        &self,
        graph: &Graph,
        terms: &TermPool,
        delta: &GraphDelta,
    ) -> Result<(), EngineError> {
        let describe = |t: &shapex_rdf::Triple| {
            format!(
                "{} {} {}",
                terms.term(t.subject),
                terms.term(t.predicate),
                terms.term(t.object)
            )
        };
        for t in &delta.added {
            if !graph.contains(t) {
                return Err(EngineError::StaleDelta {
                    detail: format!("added triple missing from graph: {} .", describe(t)),
                });
            }
        }
        let added: FxHashSet<&shapex_rdf::Triple> = delta.added.iter().collect();
        for t in &delta.removed {
            if added.contains(t) {
                // Removed then re-added: net effect is presence, checked above.
                continue;
            }
            if graph.contains(t) {
                return Err(EngineError::StaleDelta {
                    detail: format!("removed triple still in graph: {} .", describe(t)),
                });
            }
        }
        Ok(())
    }

    /// Computes the set of memoised answers the delta can reach, closed
    /// transitively over the reverse shape-reference edges. A triple
    /// change is visible to the pairs at its subject (which read outgoing
    /// arcs) and, for shapes with inverse arcs, at its object; of those
    /// only memoised pairs are seeded. That is enough because a memoised
    /// verdict rests only on memoised verdicts: a pair left undecided (its
    /// query exhausted, or it sat above a pair that failed) was consumed
    /// by no verdict but a failure, which stays a failure whatever the
    /// undecided pair turns out to be. Read-only — consults the memo, the
    /// edges and the delta, never the graph — so it can run concurrently
    /// with the delta being applied to the graph. Empty without
    /// [`EngineConfig::incremental`], whose callers reset instead.
    pub fn plan_invalidation(&self, delta: &GraphDelta) -> InvalidationPlan {
        let mut dirty: FxHashSet<Pair> = FxHashSet::default();
        if !self.config.incremental {
            return InvalidationPlan { dirty };
        }
        let shapes = (0..self.schema.shapes.len() as u32).map(ShapeId);
        let inverse: Vec<ShapeId> = shapes
            .clone()
            .filter(|&s| self.schema.shape(s).has_inverse)
            .collect();
        let mut work: Vec<Pair> = Vec::new();
        let mut seed = |pair: Pair| {
            if self.memo.contains_key(&pair) && dirty.insert(pair) {
                work.push(pair);
            }
        };
        // Delta files group triples by subject, so skipping adjacent
        // repeats collapses most subject probes.
        let mut last_subject = None;
        for t in delta.removed.iter().chain(delta.added.iter()) {
            if last_subject != Some(t.subject) {
                last_subject = Some(t.subject);
                shapes.clone().for_each(|s| seed((s, t.subject)));
            }
            inverse.iter().for_each(|&s| seed((s, t.object)));
        }
        while let Some(pair) = work.pop() {
            if let Some(parents) = self.rdeps.get(&pair) {
                for &q in parents {
                    if dirty.insert(q) {
                        work.push(q);
                    }
                }
            }
        }
        InvalidationPlan { dirty }
    }

    /// Purges every pair in the plan from the memo. Returns how many
    /// memoised answers were actually dropped.
    fn apply_invalidation(&mut self, plan: InvalidationPlan) -> u64 {
        let mut purged = 0u64;
        for pair in &plan.dirty {
            if self.memo.remove(pair).is_some() {
                purged += 1;
            }
        }
        purged
    }

    /// A worker engine for [`Engine::type_all_par`]: private copy of the
    /// compiled schema and arena, seeded with this engine's verdicts and
    /// value-constraint answers. DFA class and transition tables are
    /// forked as a snapshot of the coordinator's: classes and states
    /// interned after the fork stay private to the worker, but classes
    /// and filled transitions from before it carry over, and fresh fills
    /// are logged so the end-of-run merge can promote them engine-wide.
    fn fork_worker(&self, run_start: Instant) -> Engine {
        Engine {
            schema: self.schema.clone(),
            source: Arc::clone(&self.source),
            config: self.config,
            memo: self.memo.clone(),
            value_sat: self.value_sat.clone(),
            dfas: self.dfas.iter().map(ShapeDfa::fork).collect(),
            dfa_filled: self.dfa_filled,
            open: FxHashMap::default(),
            stack: Vec::new(),
            stats: Stats::default(),
            meter: BudgetMeter::default(),
            run_start: Some(run_start),
            metrics: self
                .config
                .metrics
                .then(|| Box::new(Metrics::new(self.schema.shapes.len()))),
            rdeps: FxHashMap::default(),
            dep_stack: Vec::new(),
            executor: None,
            publish: None,
            sorbe_counts: Vec::new(),
        }
    }

    /// Merges a worker's verdicts back into this engine's memo. Returns
    /// how many previously unknown pairs were merged.
    fn absorb_worker(&mut self, worker: &Engine) -> usize {
        let mut promoted = 0;
        for (&pair, &verdict) in &worker.memo {
            if self.memo.contains_key(&pair) {
                continue;
            }
            self.memo.insert(pair, verdict);
            promoted += 1;
        }
        for (&key, &sat) in &worker.value_sat {
            self.value_sat.entry(key).or_insert(sat);
        }
        promoted
    }

    /// The typing relation: true iff `node` has shape `shape` given the
    /// memo and the open pairs `Γ`. Lowers `low` to the stack index of the
    /// lowest open pair the answer rests on.
    ///
    /// A fresh pair is pushed on the component stack and evaluated. If it
    /// finishes true resting on a pair below it, it stays open. If it
    /// finishes true resting on nothing below it, it closes its component:
    /// it and every open pair above it are proven together. If it fails,
    /// the failure is final (assumptions only make matching more
    /// permissive), and the open pairs above it — which may rest on it —
    /// are dropped, to be decided again at their next lookup.
    ///
    /// Budgeting: memo hits and coinductive assumptions are free; an actual
    /// evaluation charges one step and one recursion level. On exhaustion
    /// the error propagates straight to [`Engine::gfp_run`], which owns the
    /// cleanup — open pairs left behind here are dropped there.
    fn check_inner(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
        low: &mut u32,
    ) -> Result<bool, Exhaustion> {
        let pair = (shape, node);
        if self.config.incremental {
            // Reverse reference edge: whoever is evaluating right now is
            // consuming this pair's answer — recorded before any of the
            // early returns below, so memo hits and coinductive
            // assumptions leave the same edge as a fresh evaluation.
            if let Some(&parent) = self.dep_stack.last() {
                if parent != pair {
                    self.rdeps.entry(pair).or_default().insert(parent);
                }
            }
        }
        match self.memo.get(&pair) {
            Some(Verdict::Proven) => return Ok(true),
            Some(Verdict::Failed) => return Ok(false),
            None => {}
        }
        if let Some(&index) = self.open.get(&pair) {
            // Γ{n→l}: the coinductive assumption (Fig. 3).
            *low = (*low).min(index);
            return Ok(true);
        }
        let index = u32::try_from(self.stack.len()).expect("component stack fits u32");
        self.open.insert(pair, index);
        self.stack.push(pair);
        self.stats.node_checks += 1;
        self.meter.step()?;
        self.meter.enter_depth()?;
        let steps_before = self.stats.derivative_steps;
        if self.config.incremental {
            self.dep_stack.push(pair);
        }
        let mut rests_on = u32::MAX;
        let triples = self.gather_triples(graph, node, shape);
        let result = self.match_neighbourhood(graph, terms, shape, &triples, &mut rests_on, None);
        if self.config.incremental {
            self.dep_stack.pop();
        }
        self.meter.exit_depth();
        let ok = result?.is_ok();
        let steps_after = self.stats.derivative_steps;
        self.metric(|m| {
            if let Some(sm) = m.per_shape.get_mut(shape.0 as usize) {
                sm.checks += 1;
                // Inclusive attribution: nested reference checks count
                // against the referencing shape too (and against their own).
                sm.derivative_steps += steps_after - steps_before;
                if ok {
                    sm.conforms += 1;
                } else {
                    sm.fails += 1;
                }
            }
        });
        if ok && rests_on < index {
            // True on a pair further down: open until that pair's
            // component closes or is dropped.
            *low = (*low).min(rests_on);
            return Ok(true);
        }
        // Close the component, or fail this pair and drop the finished
        // open pairs above it, which may rest on it.
        if !ok && self.stack.len() > index as usize + 1 {
            self.stats.gfp_reruns += 1;
        }
        for (i, p) in self.stack.drain(index as usize..).enumerate() {
            self.open.remove(&p);
            let verdict = match (ok, i) {
                (true, _) => Verdict::Proven,
                (false, 0) => Verdict::Failed,
                (false, _) => continue,
            };
            self.memo.insert(p, verdict);
            if let Some(buf) = &mut self.publish {
                buf.push(p);
            }
        }
        Ok(ok)
    }

    /// `Σg_n ∈ S_n[[δ(shape)]]` by iterated derivatives (§7). A failing
    /// match names where it failed; typing only reads that it failed, and
    /// [`Engine::explain`] renders the site. With a step recorder, the
    /// states before and after each consumed triple are logged, the `i`th
    /// entry for `triples[i]` (the §7 trace, see [`Engine::trace`]), and
    /// the SORBE fast path, which has no intermediate states, is skipped.
    fn match_neighbourhood(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        shape: ShapeId,
        triples: &[NbTriple],
        low: &mut u32,
        mut steps: Option<&mut Vec<(ExprId, ExprId)>>,
    ) -> Result<Result<(), FailSite>, Exhaustion> {
        let sh = self.schema.shape(shape);
        let mut e = sh.expr;
        if sh.sorbe.is_some() && !self.config.no_sorbe && steps.is_none() {
            return self.match_sorbe(graph, terms, shape, triples, low);
        }
        for &(p, other, inverse, ts, to) in triples {
            let class = self.profile(graph, terms, shape, p, other, inverse, low)?;
            let before = e;
            e = self.deriv(e, shape, class)?;
            if let Some(steps) = steps.as_deref_mut() {
                steps.push((before, e));
            }
            if e == EMPTY {
                return Ok(Err(FailSite::Triple([ts, p, to], before)));
            }
        }
        if self.schema.pool.nullable(e) {
            Ok(Ok(()))
        } else {
            Ok(Err(FailSite::Residual(e)))
        }
    }

    /// Gathers the triples a shape must account for at `node`. Which
    /// triples count is
    /// [`CompiledShape::relevant`](crate::compile::CompiledShape::relevant).
    fn gather_triples(&self, graph: &Graph, node: TermId, shape: ShapeId) -> Vec<NbTriple> {
        let sh = self.schema.shape(shape);
        let closure = self.config.closure;
        let mut triples = Vec::new();
        for &(p, o) in graph.neighbourhood(node) {
            if sh.relevant(closure, Some(p), false) {
                triples.push((p, o, false, node, o));
            }
        }
        if sh.has_inverse {
            for &(s, p) in graph.incoming(node) {
                if sh.relevant(closure, Some(p), true) {
                    triples.push((p, s, true, s, node));
                }
            }
        }
        triples
    }

    /// Produces the paper's §7 derivative trace for `node` against
    /// `label`: the expression state before and after consuming each
    /// triple (Examples 9, 11, 12), recorded by the typing loop itself and
    /// always via the general derivative algorithm (the fast path has no
    /// intermediate states to show). Shape references are resolved with
    /// the full typing machinery.
    pub fn trace(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        label: &ShapeLabel,
    ) -> Result<Trace, EngineError> {
        let shape = self
            .schema
            .shape_id(label)
            .ok_or_else(|| EngineError::UnknownShape(label.as_str().to_string()))?;
        if self.schema.has_recursion {
            // Reference chains recurse with the data's depth; use the
            // large-stack worker like check_id does.
            return self
                .on_big_stack(|engine| engine.trace_inner(graph, terms, node, shape))
                .map_err(EngineError::from);
        }
        self.trace_inner(graph, terms, node, shape)
            .map_err(EngineError::from)
    }

    fn trace_inner(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
    ) -> Result<Trace, Exhaustion> {
        self.meter = self.fresh_meter();
        self.meter.set_arena_baseline(self.arena_units());
        let triples = self.gather_triples(graph, node, shape);
        let mut steps = Vec::new();
        let result = self.match_neighbourhood(
            graph,
            terms,
            shape,
            &triples,
            &mut { u32::MAX },
            Some(&mut steps),
        );
        if result.is_err() {
            self.drop_open();
            self.stats.exhausted_checks += 1;
        }
        self.fold_meter();
        let matched = result?.is_ok();
        // The loop stops at the first `∅`, so the last state reached is
        // the residual.
        let residual = steps
            .last()
            .map_or(self.schema.shape(shape).expr, |&(_, after)| after);
        let render = |e| self.schema.render_expr(e);
        let steps = triples
            .into_iter()
            .zip(steps)
            .map(
                |((predicate, _, inverse, subject, object), (before, after))| TraceStep {
                    subject,
                    predicate,
                    object,
                    inverse,
                    before: render(before),
                    after: render(after),
                },
            )
            .collect();
        Ok(Trace {
            steps,
            residual: render(residual),
            nullable: self.schema.pool.nullable(residual),
            matched,
        })
    }

    /// The SORBE counting fast path (§8 future work, [`crate::sorbe`]):
    /// each triple belongs to at most one conjunct (heads are disjoint),
    /// so matching is bucket-count-and-check — no derivatives. The counts
    /// live on `sorbe_counts`, above those of the checks this one is
    /// nested in, and are popped on every way out.
    fn match_sorbe(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        shape: ShapeId,
        triples: &[NbTriple],
        low: &mut u32,
    ) -> Result<Result<(), FailSite>, Exhaustion> {
        self.stats.sorbe_checks += 1;
        self.metric(|m| {
            if let Some(sm) = m.per_shape.get_mut(shape.0 as usize) {
                sm.sorbe_checks += 1;
            }
        });
        let base = self.sorbe_counts.len();
        let conjuncts = self.sorbe_spec(shape).len();
        self.sorbe_counts.resize(base + conjuncts, 0);
        let result = self.count_sorbe(graph, terms, shape, triples, low, base);
        self.sorbe_counts.truncate(base);
        result
    }

    /// A SORBE shape's conjuncts.
    fn sorbe_spec(&self, shape: ShapeId) -> &[crate::compile::SorbeSpec] {
        self.schema
            .shape(shape)
            .sorbe
            .as_deref()
            .expect("only SORBE shapes take the counting path")
    }

    /// [`Engine::match_sorbe`]'s loop, counting into `sorbe_counts[base..]`.
    fn count_sorbe(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        shape: ShapeId,
        triples: &[NbTriple],
        low: &mut u32,
        base: usize,
    ) -> Result<Result<(), FailSite>, Exhaustion> {
        for &(p, other, inverse, ts, to) in triples {
            // One step per triple: the fast path's unit of work.
            self.meter.step()?;
            let owner = self.sorbe_spec(shape).iter().position(|s| {
                let arc = self.schema.arc(s.arc);
                arc.inverse == inverse && arc.predicates.contains(p)
            });
            let Some(i) = owner else {
                // Closed semantics: a triple no conjunct accounts for.
                let whole = self.schema.shape(shape).expr;
                return Ok(Err(FailSite::Triple([ts, p, to], whole)));
            };
            let arc_id = self.sorbe_spec(shape)[i].arc;
            if !self.arc_object_sat(graph, terms, arc_id, other, low)? {
                return Ok(Err(FailSite::Object([ts, p, to], arc_id)));
            }
            self.sorbe_counts[base + i] += 1;
        }
        let counts = &self.sorbe_counts[base..];
        for (s, &count) in self.sorbe_spec(shape).iter().zip(counts) {
            if count < s.min || count > s.max {
                return Ok(Err(FailSite::Count(s.arc, [count, s.min, s.max])));
            }
        }
        Ok(Ok(()))
    }

    /// Evaluates one arc's object condition against a term, memoising
    /// value constraints and routing shape references through the typing
    /// context.
    fn arc_object_sat(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        arc_id: ArcId,
        other: TermId,
        low: &mut u32,
    ) -> Result<bool, Exhaustion> {
        let target = {
            let arc = self.schema.arc(arc_id);
            match &arc.object {
                CompiledObject::Value(_) => None,
                CompiledObject::Ref(t) => Some(*t),
            }
        };
        match target {
            None => {
                if let Some(&cached) = self.value_sat.get(&(arc_id, other)) {
                    return Ok(cached);
                }
                let v = {
                    let CompiledObject::Value(c) = &self.schema.arc(arc_id).object else {
                        unreachable!("checked above");
                    };
                    c.matches(terms.term(other))
                };
                self.value_sat.insert((arc_id, other), v);
                Ok(v)
            }
            Some(target) => self.check_inner(graph, terms, other, target, low),
        }
    }

    /// Maps a triple to its triple class for `shape` — its id in the
    /// shape's DFA class table — evaluating arc constraints as needed.
    /// Nothing is cached per triple: each bit comes from a cache keyed by
    /// the fact it reads, `value_sat` for a value constraint and the memo
    /// (or `Γ`) for a shape reference, whose lookup in `check_inner`
    /// records the `rdeps` edge and lowers `low`.
    /// Kept out of line: its caller `match_neighbourhood` is on every
    /// level of the shape-reference recursion, and inlining this body
    /// there more than doubles each level's stack frame.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn profile(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        shape: ShapeId,
        pred: TermId,
        other: TermId,
        inverse: bool,
        low: &mut u32,
    ) -> Result<u32, Exhaustion> {
        self.meter.step()?;
        // Only arcs whose head covers `(pred, inverse)` can set a bit —
        // the compile-time head index hands us exactly those instead of a
        // scan over every arc of the shape.
        let (n_arcs, candidates) = {
            let sh = self.schema.shape(shape);
            (
                sh.arcs.len(),
                sh.head_index
                    .candidates(pred, inverse)
                    .collect::<Vec<ArcId>>(),
            )
        };
        self.metric(|m| {
            m.head_index_queries += 1;
            m.head_index_candidates += candidates.len() as u64;
            if let Some(sm) = m.per_shape.get_mut(shape.0 as usize) {
                sm.profiles_computed += 1;
            }
        });
        let mut bits = vec![0u64; n_arcs.div_ceil(64)];
        for arc_id in candidates {
            let bit = self.schema.arc(arc_id).bit;
            if self.arc_object_sat(graph, terms, arc_id, other, low)? {
                bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        // Mask to the shape's alphabet classes: bits of arcs the compiled
        // expression cannot reach are invisible to every derivative, so
        // profiles differing only there are the same triple class.
        for (b, m) in bits
            .iter_mut()
            .zip(self.schema.shape(shape).class_mask.iter())
        {
            *b &= m;
        }
        let (class, fresh) = self.dfas[shape.index()].intern_class(&bits);
        if fresh {
            self.stats.triple_classes += 1;
            let classes = self.dfas[shape.index()].classes() as u64;
            self.metric(|m| {
                if let Some(d) = m.per_shape_dfa.get_mut(shape.0 as usize) {
                    d.classes = d.classes.max(classes);
                }
            });
        }
        Ok(class)
    }

    /// Interns `e` as a dense state of `shape`'s DFA, wiring the state
    /// metrics. Returns the state id.
    fn dfa_state(&mut self, shape: ShapeId, e: ExprId) -> u32 {
        let (s, fresh) = self.dfas[shape.index()].intern_state(e);
        if fresh {
            let states = self.dfas[shape.index()].states() as u64;
            self.metric(|m| {
                m.dfa_states += 1;
                if let Some(d) = m.per_shape_dfa.get_mut(shape.0 as usize) {
                    d.states = d.states.max(states);
                }
            });
        }
        s
    }

    /// `∂t(e)` with `t` abstracted to its triple class `class` of `shape`
    /// (§6 rules, applied
    /// by [`ExprPool::deriv_step`](crate::arena::ExprPool::deriv_step)).
    ///
    /// Budgeting: one step per rule application (cache hits are free),
    /// and the arena cap is checked after the interleaving rule — the one
    /// rule whose `∂t(e1)‖e2 | ∂t(e2)‖e1` expansion can blow up the pool.
    ///
    /// Derivatives are memoised in the shape's lazy-DFA table (nothing
    /// under `no_deriv_memo`).
    fn deriv(&mut self, e: ExprId, shape: ShapeId, class: u32) -> Result<ExprId, Exhaustion> {
        // The DFA state to record the computed transition from, resolved
        // by the probe.
        let src = if !self.use_dfa() {
            None
        } else {
            let src = self.dfa_state(shape, e);
            self.metric(|m| m.dfa_table.lookups += 1);
            if let Some(d) = self.dfas[shape.index()].target(src, class) {
                self.stats.deriv_memo_hits += 1;
                self.metric(|m| m.dfa_table.hits += 1);
                return Ok(d);
            }
            self.metric(|m| m.dfa_table.misses += 1);
            Some(src)
        };
        self.stats.derivative_steps += 1;
        self.meter.step()?;
        let node = self.schema.pool.node(e);
        let fired = match node {
            Node::Arc(a) => self.dfas[shape.index()].class_bit(class, self.schema.arc(a).bit),
            _ => false,
        };
        let mut operands = [EMPTY; 2];
        for (d, x) in operands.iter_mut().zip(node.deriv_operands()) {
            if let Some(x) = x {
                *d = self.deriv(x, shape, class)?;
            }
        }
        let d = self.schema.pool.deriv_step(e, fired, operands);
        if matches!(node, Node::And(_, _)) {
            let units = self.arena_units();
            self.meter.check_arena(units)?;
        }
        if let Some(src) = src {
            shapex_rdf::failpoint::hit("dfa-fill");
            let dst = self.dfa_state(shape, d);
            if self.dfas[shape.index()].record(src, class, dst) {
                self.dfa_filled += 1;
            }
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_rdf::graph::Dataset;
    use shapex_rdf::turtle;
    use shapex_shex::shexc;

    fn setup(schema_src: &str, data_src: &str) -> (Engine, Dataset) {
        let schema = shexc::parse(schema_src).unwrap();
        let mut ds = turtle::parse(data_src).unwrap();
        let engine = Engine::new(&schema, &mut ds.pool).unwrap();
        (engine, ds)
    }

    fn check(engine: &mut Engine, ds: &Dataset, node: &str, shape: &str) -> bool {
        let node = ds.iri(node).expect("node exists");
        engine
            .check(&ds.graph, &ds.pool, node, &shape.into())
            .unwrap()
            .matched
    }

    const EX5_SCHEMA: &str = "PREFIX e: <http://e/>\n<S> { e:a [1], e:b [1 2]* }";

    #[test]
    fn paper_example_11_accepts() {
        // e = a→1 ‖ b→{1,2}*  matches {⟨n,a,1⟩, ⟨n,b,1⟩, ⟨n,b,2⟩}
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1; e:b 1, 2 .");
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
    }

    #[test]
    fn paper_example_12_rejects() {
        // {⟨n,a,1⟩, ⟨n,a,2⟩, ⟨n,b,1⟩}: second a-triple not allowed
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1, 2; e:b 1 .");
        let node = ds.iri("http://e/n").unwrap();
        let r = engine
            .check(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert!(!r.matched);
        let failure = r.failure.expect("failure explanation");
        // ⟨n,a,2⟩ is the triple the derivative rejects
        assert!(matches!(failure.kind, FailureKind::UnexpectedTriple { .. }));
        let msg = failure.render(&ds.pool);
        assert!(msg.contains("\"2\""), "{msg}");
    }

    #[test]
    fn empty_star_accepts_empty_neighbourhood() {
        let (mut engine, mut ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:b [1 2]* }",
            "@prefix e: <http://e/> . e:other e:x 1 .",
        );
        // A node with no triples at all: ν(b→{1,2}*) = true.
        let n = ds.pool.intern_iri("http://e/lonely");
        let r = engine.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap();
        assert!(r.matched);
    }

    #[test]
    fn missing_required_arc_reports() {
        // EX5_SCHEMA is SORBE, so the counting fast path reports the
        // missing arc as a cardinality violation.
        let (mut engine, ds) = setup(
            EX5_SCHEMA,
            "@prefix e: <http://e/> . e:n e:b 1 .", // a→1 missing
        );
        let node = ds.iri("http://e/n").unwrap();
        let r = engine
            .check(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert!(!r.matched);
        let failure = r.failure.unwrap();
        assert!(
            matches!(
                failure.kind,
                FailureKind::Cardinality {
                    found: 0,
                    min: 1,
                    ..
                }
            ),
            "{failure:?}"
        );
        assert!(failure.expectation.contains("a→"));
    }

    #[test]
    fn missing_required_arc_reports_general_path() {
        // With the fast path disabled, the derivative engine reports the
        // residual non-nullable expectation instead.
        let schema = shexc::parse(EX5_SCHEMA).unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:b 1 .").unwrap();
        let mut engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig {
                no_sorbe: true,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let node = ds.iri("http://e/n").unwrap();
        let r = engine
            .check(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert!(!r.matched);
        let failure = r.failure.unwrap();
        assert!(matches!(failure.kind, FailureKind::MissingRequired));
        assert!(failure.expectation.contains("a→"));
    }

    const PERSON_SCHEMA: &str = r#"
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        <Person> {
          foaf:age xsd:integer
          , foaf:name xsd:string+
          , foaf:knows @<Person>*
        }
    "#;

    const PERSON_DATA: &str = r#"
        @prefix : <http://example.org/> .
        @prefix foaf: <http://xmlns.com/foaf/0.1/> .
        :john foaf:age 23;
              foaf:name "John";
              foaf:knows :bob .
        :bob foaf:age 34;
             foaf:name "Bob", "Robert" .
        :mary foaf:age 50, 65 .
    "#;

    #[test]
    fn paper_example_2_typing() {
        let (mut engine, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        assert!(check(&mut engine, &ds, "http://example.org/john", "Person"));
        assert!(check(&mut engine, &ds, "http://example.org/bob", "Person"));
        assert!(!check(
            &mut engine,
            &ds,
            "http://example.org/mary",
            "Person"
        ));
    }

    #[test]
    fn type_all_matches_example_2() {
        let (mut engine, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let typing = engine.type_all(&ds.graph, &ds.pool);
        let person = engine.shape_id(&"Person".into()).unwrap();
        let john = ds.iri("http://example.org/john").unwrap();
        let bob = ds.iri("http://example.org/bob").unwrap();
        let mary = ds.iri("http://example.org/mary").unwrap();
        assert!(typing.has(john, person));
        assert!(typing.has(bob, person));
        assert!(!typing.has(mary, person));
        assert_eq!(typing.len(), 2);
    }

    #[test]
    fn recursive_cycle_validates_coinductively() {
        // a knows b, b knows a — both Persons under gfp semantics.
        let (mut engine, ds) = setup(
            PERSON_SCHEMA,
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :a foaf:age 1; foaf:name "A"; foaf:knows :b .
            :b foaf:age 2; foaf:name "B"; foaf:knows :a .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://example.org/a", "Person"));
        assert!(check(&mut engine, &ds, "http://example.org/b", "Person"));
    }

    #[test]
    fn broken_link_in_cycle_fails_both() {
        // a knows b, b knows c, c is not a person (no name) and c knows a.
        let (mut engine, ds) = setup(
            PERSON_SCHEMA,
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :a foaf:age 1; foaf:name "A"; foaf:knows :b .
            :b foaf:age 2; foaf:name "B"; foaf:knows :c .
            :c foaf:age 3; foaf:knows :a .
            "#,
        );
        assert!(!check(&mut engine, &ds, "http://example.org/c", "Person"));
        assert!(!check(&mut engine, &ds, "http://example.org/b", "Person"));
        assert!(!check(&mut engine, &ds, "http://example.org/a", "Person"));
    }

    /// Every ordering of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        permutations(n - 1)
            .into_iter()
            .flat_map(|p| {
                (0..n).map(move |i| {
                    let mut q = p.clone();
                    q.insert(i, n - 1);
                    q
                })
            })
            .collect()
    }

    #[test]
    fn gfp_rerun_on_failed_assumption() {
        // :d finishes true on the assumption that the open :b holds; then
        // :c fails, so :b fails and drops :d undecided. (:c has no name.)
        const DATA: &str = r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :a foaf:age 1; foaf:name "A"; foaf:knows :b .
            :b foaf:age 2; foaf:name "B"; foaf:knows :d, :c .
            :c foaf:age 3; foaf:knows :a .
            :d foaf:age 4; foaf:name "D"; foaf:knows :b .
        "#;
        // On both matching paths: the SORBE count and the derivative
        // path's profiles must each leave :d resting on the open :b.
        for no_sorbe in [false, true] {
            let setup = || {
                let schema = shexc::parse(PERSON_SCHEMA).unwrap();
                let mut ds = turtle::parse(DATA).unwrap();
                let config = EngineConfig {
                    no_sorbe,
                    ..EngineConfig::default()
                };
                (Engine::compile(&schema, &mut ds.pool, config).unwrap(), ds)
            };
            let (mut engine, ds) = setup();
            assert!(!check(&mut engine, &ds, "http://example.org/a", "Person"));
            let person = engine.shape_id(&"Person".into()).unwrap();
            let d = ds.iri("http://example.org/d").unwrap();
            assert_eq!(engine.stats().gfp_reruns, 1, "b's failure drops one slice");
            assert!(!engine.memo.contains_key(&(person, d)), "d is undecided");
            assert!(engine.open.is_empty() && engine.stack.is_empty());
            // Whatever the query order — meeting :d fresh, dropped or
            // decided — every verdict is the greatest fixpoint's.
            let nodes = ["a", "b", "c", "d"];
            for order in permutations(nodes.len()) {
                let (mut engine, ds) = setup();
                for &i in &order {
                    let iri = format!("http://example.org/{}", nodes[i]);
                    assert!(
                        !check(&mut engine, &ds, &iri, "Person"),
                        "no_sorbe={no_sorbe} {order:?}"
                    );
                }
                for &i in &order {
                    let iri = format!("http://example.org/{}", nodes[i]);
                    assert!(
                        !check(&mut engine, &ds, &iri, "Person"),
                        "no_sorbe={no_sorbe} re-query {order:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn explanation_comes_from_the_final_typing() {
        // Checking :a meets :b fresh, and :b finishes true on the open :a;
        // :a then fails on its missing name and drops :b undecided. Under
        // the final typing :b fails too, so :a's first failing triple is
        // `:a knows :b`, not the missing name the run tripped over.
        const DATA: &str = r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :a foaf:age 1; foaf:knows :b .
            :b foaf:age 2; foaf:name "B"; foaf:knows :a .
        "#;
        let (mut engine, ds) = setup(PERSON_SCHEMA, DATA);
        let person = engine.shape_id(&"Person".into()).unwrap();
        let [a, b] = ["a", "b"].map(|n| ds.iri(&format!("http://example.org/{n}")).unwrap());
        let knows = ds.iri("http://xmlns.com/foaf/0.1/knows").unwrap();
        let cites = |subject, object| FailureKind::UnexpectedTriple {
            subject,
            predicate: knows,
            object,
        };
        assert_eq!(
            engine.check_id(&ds.graph, &ds.pool, a, person),
            Outcome::Fails
        );
        assert!(!engine.memo.contains_key(&(person, b)), "b is undecided");
        let stats = engine.stats();
        let failure = engine.explain(&ds.graph, &ds.pool, a, person).unwrap();
        assert_eq!(failure.kind, cites(a, b));
        assert_eq!(engine.memo.get(&(person, b)), Some(&Verdict::Failed));
        assert_eq!(engine.stats(), stats, "explaining is not typing work");
        let failure = engine.explain(&ds.graph, &ds.pool, b, person).unwrap();
        assert_eq!(failure.kind, cites(b, a));
    }

    #[test]
    fn exhaustion_inside_a_component_leaves_nothing_open() {
        // a → b → c → a, all valid: one component, which closes only
        // when :a finishes. A step budget that trips before then must
        // leave no open pair, stack or dependency frame behind, and
        // memoise none of the three.
        const DATA: &str = r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :a foaf:age 1; foaf:name "A"; foaf:knows :b .
            :b foaf:age 2; foaf:name "B"; foaf:knows :c .
            :c foaf:age 3; foaf:name "C"; foaf:knows :a .
        "#;
        let mut tripped_inside = false;
        for steps in 1.. {
            let (mut engine, ds) = setup_incremental(PERSON_SCHEMA, DATA);
            engine.set_budget(Budget::steps(steps));
            let a = ds.iri("http://example.org/a").unwrap();
            match engine.check(&ds.graph, &ds.pool, a, &"Person".into()) {
                Ok(result) => {
                    assert!(result.matched);
                    assert_eq!(engine.memo.len(), 3, "the component closes whole");
                    break;
                }
                Err(EngineError::ResourceExhausted { .. }) => {
                    tripped_inside |= engine.stats().node_checks == 3;
                    assert!(engine.open.is_empty(), "steps {steps}");
                    assert!(engine.stack.is_empty(), "steps {steps}");
                    assert!(engine.dep_stack.is_empty(), "steps {steps}");
                    assert!(engine.memo.is_empty(), "steps {steps}: {:?}", engine.memo);
                }
                Err(e) => panic!("steps {steps}: {e}"),
            }
        }
        assert!(
            tripped_inside,
            "some budget trips with all three pairs open"
        );
    }

    #[test]
    fn self_loop_person() {
        let (mut engine, ds) = setup(
            PERSON_SCHEMA,
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :n foaf:age 1; foaf:name "N"; foaf:knows :n .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://example.org/n", "Person"));
    }

    #[test]
    fn cardinality_bounds_enforced() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p .{2,3} }",
            r#"
            @prefix e: <http://e/> .
            e:one e:p 1 .
            e:two e:p 1, 2 .
            e:three e:p 1, 2, 3 .
            e:four e:p 1, 2, 3, 4 .
            "#,
        );
        assert!(!check(&mut engine, &ds, "http://e/one", "S"));
        assert!(check(&mut engine, &ds, "http://e/two", "S"));
        assert!(check(&mut engine, &ds, "http://e/three", "S"));
        assert!(!check(&mut engine, &ds, "http://e/four", "S"));
    }

    #[test]
    fn repeat_zero_zero_behaves_as_epsilon_on_every_path() {
        // e{0,0} ≡ ε: nullable, and a triple matching that arc is a
        // *closed*-shape violation, not a consumable arc — identically on
        // the SORBE fast path, the general derivative path, and with
        // simplification disabled (where Repeat(e,0,0) survives interning).
        for (name, config) in [
            ("sorbe", EngineConfig::default()),
            (
                "general",
                EngineConfig {
                    no_sorbe: true,
                    ..EngineConfig::default()
                },
            ),
            (
                "no-simplify",
                EngineConfig {
                    no_sorbe: true,
                    simplify: Simplify::none(),
                    ..EngineConfig::default()
                },
            ),
        ] {
            let schema =
                shexc::parse("PREFIX e: <http://e/>\n<S> { e:q [1], e:p .{0,0} }").unwrap();
            let mut ds =
                turtle::parse("@prefix e: <http://e/> . e:ok e:q 1 . e:bad e:q 1; e:p 5 .")
                    .unwrap();
            let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
            let ok = ds.iri("http://e/ok").unwrap();
            let bad = ds.iri("http://e/bad").unwrap();
            assert!(
                engine
                    .check(&ds.graph, &ds.pool, ok, &"S".into())
                    .unwrap()
                    .matched,
                "{name}: zero occurrences of p{{0,0}} must satisfy"
            );
            assert!(
                !engine
                    .check(&ds.graph, &ds.pool, bad, &"S".into())
                    .unwrap()
                    .matched,
                "{name}: a p-triple must violate p{{0,0}}"
            );
        }
    }

    #[test]
    fn repeat_zero_one_is_optional() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:q [1], e:p .{0,1} }",
            "@prefix e: <http://e/> . e:none e:q 1 . e:one e:q 1; e:p 5 .\n\
             e:two e:q 1; e:p 5, 6 .",
        );
        assert!(check(&mut engine, &ds, "http://e/none", "S"));
        assert!(check(&mut engine, &ds, "http://e/one", "S"));
        assert!(!check(&mut engine, &ds, "http://e/two", "S"));
    }

    #[test]
    fn inverted_bounds_rejected_at_compile() {
        // {1,0} never reaches the arena's repeat() (whose debug_assert
        // would panic): programmatic schemas are rejected with a clear
        // error at compile time, mirroring the ShExC parse-time check.
        use shapex_shex::ast::{ArcConstraint, ShapeExpr};
        use shapex_shex::constraint::NodeConstraint;
        let schema = Schema::from_rules([(
            ShapeLabel::new("S"),
            ShapeExpr::Repeat(
                Box::new(ShapeExpr::arc(ArcConstraint::value(
                    "http://e/p",
                    NodeConstraint::Any,
                ))),
                1,
                Some(0),
            ),
        )])
        .unwrap();
        let mut terms = TermPool::new();
        let err = Engine::new(&schema, &mut terms).unwrap_err();
        let EngineError::Schema(SchemaError::InvalidBounds { min: 1, max: 0, .. }) = err else {
            panic!("expected InvalidBounds, got {err:?}");
        };
        assert!(err.to_string().contains("{1,0}"), "{err}");
    }

    #[test]
    fn closed_semantics_rejects_extra_triples() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:a [1] }",
            "@prefix e: <http://e/> . e:n e:a 1; e:other 2 .",
        );
        assert!(!check(&mut engine, &ds, "http://e/n", "S"));
    }

    #[test]
    fn open_semantics_ignores_unmentioned_predicates() {
        let schema = shexc::parse("PREFIX e: <http://e/>\n<S> { e:a [1] }").unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:a 1; e:other 2 .").unwrap();
        let mut engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig {
                closure: Closure::Open,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let n = ds.iri("http://e/n").unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched
        );
    }

    #[test]
    fn inverse_arc_extension() {
        // Every Department must be pointed at by ≥1 worksIn triple.
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<Dept> { e:name LITERAL, ^e:worksIn IRI+ }",
            r#"
            @prefix e: <http://e/> .
            e:sales e:name "Sales" .
            e:ghost e:name "Ghost" .
            e:alice e:worksIn e:sales .
            e:bob e:worksIn e:sales .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://e/sales", "Dept"));
        assert!(!check(&mut engine, &ds, "http://e/ghost", "Dept"));
    }

    #[test]
    fn or_alternatives() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:a [1] | e:b [2] }",
            r#"
            @prefix e: <http://e/> .
            e:x e:a 1 .
            e:y e:b 2 .
            e:z e:a 1; e:b 2 .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://e/x", "S"));
        assert!(check(&mut engine, &ds, "http://e/y", "S"));
        // Or is exclusive over the whole neighbourhood under closed
        // semantics: z has both triples, neither alternative consumes both.
        assert!(!check(&mut engine, &ds, "http://e/z", "S"));
    }

    #[test]
    fn unknown_shape_is_an_error() {
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1 .");
        let n = ds.iri("http://e/n").unwrap();
        let err = engine
            .check(&ds.graph, &ds.pool, n, &"Nope".into())
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownShape("Nope".into()));
    }

    #[test]
    fn memoisation_reuses_results() {
        let (mut engine, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        check(&mut engine, &ds, "http://example.org/john", "Person");
        let checks_before = engine.stats().node_checks;
        // Second query is fully memoised.
        check(&mut engine, &ds, "http://example.org/john", "Person");
        assert_eq!(engine.stats().node_checks, checks_before);
    }

    #[test]
    fn stats_count_sorbe_checks() {
        // EX5_SCHEMA qualifies for the SORBE fast path: no derivatives.
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1; e:b 1 .");
        check(&mut engine, &ds, "http://e/n", "S");
        let stats = engine.stats();
        assert_eq!(stats.derivative_steps, 0);
        assert!(stats.sorbe_checks > 0);
    }

    /// The SORBE path's counts are a stack: a nested check pushes its
    /// frame above the check it serves, and every way out (a count
    /// failure, a failed object, an exhausted budget) pops it, so the
    /// stack is empty between queries and after an `explain` re-check.
    #[test]
    fn sorbe_count_frames_are_popped_on_every_exit() {
        let schema =
            shexc::parse("PREFIX e: <http://e/>\n<P> { e:name ., e:knows @<P>* }").unwrap();
        let data = "@prefix e: <http://e/> .
            e:a e:name 1; e:knows e:b . e:b e:name 2; e:knows e:c . e:c e:knows e:a .";
        for budget in [Budget::UNLIMITED, Budget::steps(3)] {
            let mut ds = turtle::parse(data).unwrap();
            let config = EngineConfig {
                budget,
                ..EngineConfig::default()
            };
            let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
            let typing = engine.type_all(&ds.graph, &ds.pool);
            assert!(engine.stats().sorbe_checks >= 3);
            assert_eq!(typing.exhausted.is_empty(), budget == Budget::UNLIMITED);
            assert!(engine.sorbe_counts.is_empty());
            let a = ds.iri("http://e/a").unwrap();
            let p = engine.schema().shape_id(&"P".into()).unwrap();
            if budget == Budget::UNLIMITED {
                assert!(!typing.has(a, p));
                assert!(engine.explain(&ds.graph, &ds.pool, a, p).is_some());
                assert!(engine.sorbe_counts.is_empty());
            }
        }
    }

    #[test]
    fn stats_count_derivative_steps() {
        // A shape with alternatives is not SORBE: the general engine runs.
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:a [1] | e:b [1 2]* }",
            "@prefix e: <http://e/> . e:n e:b 1 .",
        );
        check(&mut engine, &ds, "http://e/n", "S");
        let stats = engine.stats();
        assert!(stats.derivative_steps > 0);
        assert!(stats.expr_pool_size > 2);
        assert!(stats.triple_classes >= 1);
        assert_eq!(stats.sorbe_checks, 0);
    }

    #[test]
    fn reset_clears_state() {
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1 .");
        check(&mut engine, &ds, "http://e/n", "S");
        engine.reset();
        assert_eq!(engine.stats().derivative_steps, 0);
        // Still works after reset ({⟨n,a,1⟩} ∈ S_n[[e]], paper Example 7).
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
    }

    #[test]
    fn reset_clears_stale_memos_across_graph_change() {
        // Regression: the memo, `value_sat` and the DFA tables persist
        // across queries for performance, so reset() MUST clear them.
        // Validate against one graph, extend the dataset so the same
        // (shape, pred, object) triple now profiles differently, reset, and
        // re-validate: a stale verdict or derivative would replay the old
        // answer.
        let schema = shexc::parse(
            // An Or keeps the shape off the SORBE fast path so the
            // derivative memo is actually exercised.
            "PREFIX e: <http://e/>\n<S> { e:p @<T> | e:p @<T> }\n<T> { e:q [1]* }",
        )
        .unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:p e:t . e:t e:q 1 .").unwrap();
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        let n = ds.iri("http://e/n").unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched,
            "t conforms to <T>, so n conforms to <S>"
        );
        // Extend the graph: t gains e:q 2, which [1]* rejects — t no
        // longer conforms to <T>, so n must now fail <S>.
        turtle::parse_into("@prefix e: <http://e/> . e:t e:q 2 .", &mut ds).unwrap();
        engine.reset();
        assert!(
            !engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched,
            "stale memo state survived reset()"
        );
    }

    #[test]
    fn reset_clears_dfa_tables_across_graph_change() {
        // Regression companion to the memo test above: with the lazy DFA
        // active (the default), reset() must also drop the per-shape
        // class maps and transition tables — a stale transition keyed by
        // a recycled class id would replay the old graph's derivative.
        let schema =
            shexc::parse("PREFIX e: <http://e/>\n<S> { e:p @<T> | e:p @<T> }\n<T> { e:q [1]* }")
                .unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:p e:t . e:t e:q 1 .").unwrap();
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        let n = ds.iri("http://e/n").unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched
        );
        assert!(
            engine
                .dfa_summary()
                .iter()
                .any(|(_, s, c, f)| *s > 0 && *c > 0 && *f > 0),
            "the derivative run should have populated some shape's DFA: {:?}",
            engine.dfa_summary()
        );
        turtle::parse_into("@prefix e: <http://e/> . e:t e:q 2 .", &mut ds).unwrap();
        engine.reset();
        assert!(
            engine
                .dfa_summary()
                .iter()
                .all(|(_, s, c, f)| *s == 0 && *c == 0 && *f == 0),
            "reset() must clear DFA states, classes, and tables: {:?}",
            engine.dfa_summary()
        );
        assert!(
            !engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched,
            "stale DFA transition survived reset()"
        );
    }

    fn setup_incremental(schema_src: &str, data_src: &str) -> (Engine, Dataset) {
        let schema = shexc::parse(schema_src).unwrap();
        let mut ds = turtle::parse(data_src).unwrap();
        let engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig {
                incremental: true,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        (engine, ds)
    }

    /// A fresh engine's from-scratch typing over the dataset's current
    /// graph — the ground truth incremental revalidation must reproduce.
    fn scratch_typing(schema_src: &str, ds: &mut Dataset) -> Typing {
        let schema = shexc::parse(schema_src).unwrap();
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        engine.type_all(&ds.graph, &ds.pool)
    }

    const MARY_FIX_DELTA: &str = "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
        @prefix : <http://example.org/> .\n\
        - :mary foaf:age 65 .\n\
        + :mary foaf:name \"Mary\" .\n";

    #[test]
    fn reset_clears_dependency_index() {
        // Companion to the stale-memo reset regressions above: the
        // incremental reference edges and the dirty-tracking stack are
        // caches keyed against the old graph too.
        let (mut engine, ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all(&ds.graph, &ds.pool);
        assert!(
            !engine.rdeps.is_empty(),
            "incremental typing must record dependencies"
        );
        assert!(
            engine.dep_stack.is_empty(),
            "the dep stack must drain between queries"
        );
        engine.reset();
        assert!(
            engine.rdeps.is_empty(),
            "reset() must clear the reference edges"
        );
        assert!(engine.dep_stack.is_empty());
        assert_eq!(engine.stats().invalidated_pairs, 0);
    }

    #[test]
    fn revalidate_agrees_with_scratch_on_recursive_schema() {
        let (mut engine, mut ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        let before = engine.type_all(&ds.graph, &ds.pool);
        let mary = ds.iri("http://example.org/mary").unwrap();
        let john = ds.iri("http://example.org/john").unwrap();
        assert_eq!(before.shapes_of(mary).count(), 0);
        assert_eq!(before.shapes_of(john).count(), 1);

        let d = shapex_rdf::delta::parse(MARY_FIX_DELTA, &mut ds.pool).unwrap();
        ds.apply_delta(&d);
        let incremental = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
        assert_eq!(incremental, scratch_typing(PERSON_SCHEMA, &mut ds));
        assert_eq!(incremental.shapes_of(mary).count(), 1);

        let stats = engine.stats();
        assert!(stats.invalidated_pairs >= 1, "{stats:?}");
        assert!(stats.retyped_pairs >= 1, "{stats:?}");
        assert!(
            stats.reused_pairs >= 1,
            "john and bob should be served from the memo: {stats:?}"
        );
    }

    #[test]
    fn revalidate_propagates_through_shared_profile_hits() {
        // n1 and n2 both reference t through an identical (pred, other)
        // triple, so n2's reference check is answered from the memo entry
        // n1's evaluation left. That memo hit must still record the
        // dependency edge to (T, t): a delta at t has to dirty BOTH
        // referrers, not just the one that evaluated (T, t).
        let (mut engine, mut ds) = setup_incremental(
            // The Or keeps the shape off the SORBE fast path, forcing the
            // profile/derivative machinery.
            "PREFIX e: <http://e/>\n<S> { e:p @<T> | e:p @<T> }\n<T> { e:q [1]* }",
            "@prefix e: <http://e/> . e:n1 e:p e:t . e:n2 e:p e:t . e:t e:q 1 .",
        );
        let before = engine.type_all(&ds.graph, &ds.pool);
        let n1 = ds.iri("http://e/n1").unwrap();
        let n2 = ds.iri("http://e/n2").unwrap();
        assert_eq!(before.shapes_of(n1).count(), 1);
        assert_eq!(before.shapes_of(n2).count(), 1);

        // t gains e:q 2, which [1]* rejects: t stops conforming to <T>,
        // so n1 AND n2 must stop conforming to <S>.
        let d = shapex_rdf::delta::parse("@prefix e: <http://e/> .\n+ e:t e:q 2 .\n", &mut ds.pool)
            .unwrap();
        ds.apply_delta(&d);
        let incremental = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
        assert_eq!(incremental.shapes_of(n1).count(), 0);
        assert_eq!(
            incremental.shapes_of(n2).count(),
            0,
            "the memo hit's reference dependency was not recorded"
        );
        assert_eq!(
            incremental,
            scratch_typing(
                "PREFIX e: <http://e/>\n<S> { e:p @<T> | e:p @<T> }\n<T> { e:q [1]* }",
                &mut ds
            )
        );
    }

    #[test]
    fn revalidate_par_agrees_with_scratch() {
        let (mut engine, mut ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all_par(&ds.graph, &ds.pool, 4);
        let d = shapex_rdf::delta::parse(MARY_FIX_DELTA, &mut ds.pool).unwrap();
        ds.apply_delta(&d);
        let incremental = engine.revalidate_par(&ds.graph, &ds.pool, &d, 4).unwrap();
        assert_eq!(incremental, scratch_typing(PERSON_SCHEMA, &mut ds));
    }

    #[test]
    fn empty_delta_retypes_nothing() {
        let (mut engine, ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        let before = engine.type_all(&ds.graph, &ds.pool);
        let node_checks = engine.stats().node_checks;
        let after = engine
            .revalidate(&ds.graph, &ds.pool, &GraphDelta::new())
            .unwrap();
        assert_eq!(before, after);
        let stats = engine.stats();
        assert_eq!(stats.invalidated_pairs, 0);
        assert_eq!(stats.retyped_pairs, 0);
        assert_eq!(stats.reused_pairs, 3, "john, bob, mary × <Person>");
        assert_eq!(
            stats.node_checks, node_checks,
            "an empty delta must not re-evaluate anything"
        );
    }

    #[test]
    fn revalidate_without_incremental_resets_and_recomputes() {
        let (mut engine, mut ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all(&ds.graph, &ds.pool);
        let d = shapex_rdf::delta::parse(MARY_FIX_DELTA, &mut ds.pool).unwrap();
        ds.apply_delta(&d);
        let typing = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
        assert_eq!(typing, scratch_typing(PERSON_SCHEMA, &mut ds));
        let stats = engine.stats();
        assert_eq!(
            (
                stats.invalidated_pairs,
                stats.retyped_pairs,
                stats.reused_pairs
            ),
            (0, 0, 0),
            "the fallback path is a plain reset + full re-typing"
        );
    }

    #[test]
    fn revalidate_handles_subject_additions_and_removals() {
        let (mut engine, mut ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all(&ds.graph, &ds.pool);
        // Remove every triple of mary (she vanishes from the typing
        // universe) and introduce a brand-new conforming subject.
        let d = shapex_rdf::delta::parse(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
             @prefix : <http://example.org/> .\n\
             - :mary foaf:age 50 .\n\
             - :mary foaf:age 65 .\n\
             + :new foaf:age 1 .\n\
             + :new foaf:name \"New\" .\n",
            &mut ds.pool,
        )
        .unwrap();
        ds.apply_delta(&d);
        let incremental = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
        assert_eq!(incremental, scratch_typing(PERSON_SCHEMA, &mut ds));
        let new = ds.iri("http://example.org/new").unwrap();
        let mary = ds.iri("http://example.org/mary").unwrap();
        assert_eq!(incremental.shapes_of(new).count(), 1);
        assert_eq!(incremental.shapes_of(mary).count(), 0);
    }

    const TEAM_SCHEMA: &str = "PREFIX e: <http://e/>\n\
        <Team> { e:name LITERAL , ^e:memberOf @<Member>+ }\n\
        <Member> { e:name LITERAL , e:memberOf IRI }";
    const TEAM_DATA: &str = "@prefix e: <http://e/> .\n\
        e:core e:name \"Core\" .\n\
        e:alice e:name \"Alice\" ; e:memberOf e:core .\n\
        e:ghost e:name \"Ghost\" .";

    #[test]
    fn plan_seeds_the_object_end_only_for_shapes_with_inverse_arcs() {
        // A first member of e:ghost adds no triple with e:ghost as its
        // subject. <Team> reads incoming arcs, so its memoised pair there
        // is seeded from the triple's object; <Member> reads none, so its
        // pair at e:ghost stays. e:dave is new: nothing memoised to seed.
        let (mut engine, mut ds) = setup_incremental(TEAM_SCHEMA, TEAM_DATA);
        engine.type_all(&ds.graph, &ds.pool);
        let (team, member) = (
            engine.shape_id(&"Team".into()).unwrap(),
            engine.shape_id(&"Member".into()).unwrap(),
        );
        let ghost = ds.iri("http://e/ghost").unwrap();
        assert!(engine.memo.contains_key(&(member, ghost)));
        let d = shapex_rdf::delta::parse(
            "@prefix e: <http://e/> .\n\
             + e:dave e:name \"Dave\" .\n\
             + e:dave e:memberOf e:ghost .\n",
            &mut ds.pool,
        )
        .unwrap();
        let plan = engine.plan_invalidation(&d);
        assert_eq!(plan.dirty, FxHashSet::from_iter([(team, ghost)]));
        ds.apply_delta(&d);
        let typing = engine
            .revalidate_par_planned(&ds.graph, &ds.pool, &d, plan, 1)
            .unwrap();
        assert!(
            typing.has(ghost, team),
            "the new member makes e:ghost a team"
        );
        assert_eq!(typing, scratch_typing(TEAM_SCHEMA, &mut ds));
    }

    #[test]
    fn plan_closes_over_reverse_reference_edges() {
        // bob gains a second age, so (Person, bob) is seeded from the
        // triple's subject; john reaches bob through foaf:knows, so the
        // recorded reverse edge adds (Person, john). mary neither changed
        // nor references bob: her memoised pair stays.
        let (mut engine, mut ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all(&ds.graph, &ds.pool);
        let person = engine.shape_id(&"Person".into()).unwrap();
        let [john, bob, mary] =
            ["john", "bob", "mary"].map(|n| ds.iri(&format!("http://example.org/{n}")).unwrap());
        assert!(engine.memo.contains_key(&(person, mary)));
        let d = shapex_rdf::delta::parse(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
             @prefix : <http://example.org/> .\n\
             + :bob foaf:age 35 .\n",
            &mut ds.pool,
        )
        .unwrap();
        let plan = engine.plan_invalidation(&d);
        assert_eq!(
            plan.dirty,
            FxHashSet::from_iter([(person, bob), (person, john)])
        );
        ds.apply_delta(&d);
        let typing = engine
            .revalidate_par_planned(&ds.graph, &ds.pool, &d, plan, 1)
            .unwrap();
        assert!(!typing.has(bob, person) && !typing.has(john, person));
        assert_eq!(typing, scratch_typing(PERSON_SCHEMA, &mut ds));
        assert_eq!(engine.stats().reused_pairs, 1, "only mary is reused");
    }

    #[test]
    fn plan_seeds_only_memoised_pairs() {
        // Seeds come from the memo: before any typing there is nothing to
        // invalidate, and a removed triple seeds its subject's pairs just
        // as an added one does.
        let (mut engine, mut ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        let d = shapex_rdf::delta::parse(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
             @prefix : <http://example.org/> .\n\
             - :mary foaf:age 65 .\n",
            &mut ds.pool,
        )
        .unwrap();
        assert!(engine.plan_invalidation(&d).is_empty());
        engine.type_all(&ds.graph, &ds.pool);
        let person = engine.shape_id(&"Person".into()).unwrap();
        let mary = ds.iri("http://example.org/mary").unwrap();
        assert_eq!(
            engine.plan_invalidation(&d).dirty,
            FxHashSet::from_iter([(person, mary)])
        );
    }

    #[test]
    fn plan_is_empty_without_incremental() {
        // With no reference edges recorded there is nothing to close over,
        // and revalidation resets instead of reading a plan.
        let schema = shexc::parse(PERSON_SCHEMA).unwrap();
        let mut ds = turtle::parse(PERSON_DATA).unwrap();
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        engine.type_all(&ds.graph, &ds.pool);
        assert!(!engine.memo.is_empty());
        let d = shapex_rdf::delta::parse(MARY_FIX_DELTA, &mut ds.pool).unwrap();
        assert!(engine.plan_invalidation(&d).is_empty());
    }

    #[test]
    fn removed_then_readded_triple_passes_the_applied_check() {
        // A triple the delta both removes and re-adds is present after the
        // apply; only a removal that is not re-added must be absent.
        let (mut engine, mut ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all(&ds.graph, &ds.pool);
        let d = shapex_rdf::delta::parse(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
             @prefix : <http://example.org/> .\n\
             - :mary foaf:age 65 .\n\
             - :mary foaf:age 50 .\n\
             + :mary foaf:age 50 .\n",
            &mut ds.pool,
        )
        .unwrap();
        ds.apply_delta(&d);
        let typing = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
        assert_eq!(typing, scratch_typing(PERSON_SCHEMA, &mut ds));
    }

    #[test]
    fn alphabet_classes_refine_overlapping_predicate_sets() {
        // Two arcs share the predicate e:p but differ on the object
        // constraint. Triples satisfying both arcs must land in one
        // class; triples satisfying only the unconstrained arc in
        // another — the class partition refines by satisfaction, not by
        // predicate.
        let schema = shexc::parse("PREFIX e: <http://e/>\n<S> { e:p . , e:p [1 2] }").unwrap();
        let mut ds =
            turtle::parse("@prefix e: <http://e/> . e:n e:p 1, 2 . e:n e:p \"x\" .").unwrap();
        let mut engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig {
                no_sorbe: true, // keep the counting fast path out of the way
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let n = ds.iri("http://e/n").unwrap();
        engine.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap();
        let (_, states, classes, filled) = engine.dfa_summary().remove(0);
        assert_eq!(
            classes, 2,
            "1 and 2 satisfy both arcs (one class); \"x\" only the wildcard arc (second class)"
        );
        assert!(
            states >= 2,
            "initial expression plus at least one derivative"
        );
        assert!(filled >= 1, "at least one transition computed");
    }

    #[test]
    fn dfa_fills_count_against_arena_budget() {
        // `max_arena_nodes` charges filled DFA cells on top of pool
        // growth. A limit above the pool growth alone but within pool
        // growth + fills must therefore trip.
        let schema =
            shexc::parse("PREFIX e: <http://e/>\n<S> { e:a [1 2]{2,3}, e:b [1 2]*, e:c [1 2]* }")
                .unwrap();
        let data = "@prefix e: <http://e/> . e:n e:a 1, 2; e:b 1, 2; e:c 1, 2 .";
        let run = |budget: Budget| {
            let mut ds = turtle::parse(data).unwrap();
            let config = EngineConfig {
                no_sorbe: true, // force the derivative path
                budget,
                ..EngineConfig::default()
            };
            let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
            let pool_before = engine.schema.pool.len();
            let n = ds.iri("http://e/n").unwrap();
            let result = engine.check(&ds.graph, &ds.pool, n, &"S".into());
            let growth = engine.schema.pool.len() - pool_before;
            (result, growth, engine.dfa_filled)
        };
        let (result, growth, fills) = run(Budget::UNLIMITED);
        assert!(result.unwrap().matched);
        assert!(fills > 1, "the run must fill DFA cells (filled {fills})");
        let limit = growth + fills / 2;
        let (limited, ..) = run(Budget::UNLIMITED.with_max_arena_nodes(limit));
        let Err(EngineError::ResourceExhausted { resource, .. }) = limited else {
            panic!("limit {limit} (growth {growth} + fills {fills}) did not trip: {limited:?}");
        };
        assert_eq!(resource, Resource::ArenaNodes);
    }

    #[test]
    fn no_deriv_memo_bypasses_the_dfa_table() {
        // The `no_deriv_memo` ablation turns the only derivative cache
        // off: no cell is filled or hit, the verdict is unchanged, and the
        // arena budget is charged pool growth alone.
        let schema =
            shexc::parse("PREFIX e: <http://e/>\n<S> { e:a [1 2]{2,3}, e:b [1 2]*, e:c [1 2]* }")
                .unwrap();
        let data = "@prefix e: <http://e/> . e:n e:a 1, 2; e:b 1, 2; e:c 1, 2 .";
        let run = |no_deriv_memo: bool, budget: Budget| {
            let mut ds = turtle::parse(data).unwrap();
            let config = EngineConfig {
                no_deriv_memo,
                no_sorbe: true, // force the derivative path
                budget,
                ..EngineConfig::default()
            };
            let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
            let pool_before = engine.schema.pool.len();
            let n = ds.iri("http://e/n").unwrap();
            let result = engine.check(&ds.graph, &ds.pool, n, &"S".into());
            let growth = engine.schema.pool.len() - pool_before;
            (result, growth, engine.dfa_filled, engine.stats())
        };
        let (cached, _, fills, stats) = run(false, Budget::UNLIMITED);
        assert!(cached.unwrap().matched);
        assert!(
            fills > 0 && stats.deriv_memo_hits > 0,
            "the DFA run must use its table"
        );
        let (uncached, growth, fills, stats) = run(true, Budget::UNLIMITED);
        assert!(uncached.unwrap().matched);
        assert_eq!((fills, stats.deriv_memo_hits), (0, 0));
        // The meter trips once growth reaches the limit, so pool growth
        // + 1 is the least limit that lets the run finish.
        let limit = growth + 1;
        let (limited, ..) = run(true, Budget::UNLIMITED.with_max_arena_nodes(limit));
        assert!(
            limited.unwrap().matched,
            "limit {limit} (pool growth + 1) must suffice"
        );
    }

    #[test]
    fn type_all_par_matches_sequential_on_person_data() {
        let (mut seq, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let sequential = seq.type_all(&ds.graph, &ds.pool);
        for jobs in [2, 4, 8] {
            let schema = shexc::parse(PERSON_SCHEMA).unwrap();
            let mut ds2 = turtle::parse(PERSON_DATA).unwrap();
            let mut par = Engine::new(&schema, &mut ds2.pool).unwrap();
            let parallel = par.type_all_par(&ds2.graph, &ds2.pool, jobs);
            assert_eq!(sequential, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn type_all_par_jobs_1_is_sequential() {
        let (mut a, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let (mut b, _) = setup(PERSON_SCHEMA, PERSON_DATA);
        assert_eq!(
            a.type_all(&ds.graph, &ds.pool),
            b.type_all_par(&ds.graph, &ds.pool, 1)
        );
    }

    #[test]
    fn type_all_par_recursive_network() {
        // A cyclic knows-network: coinductive answers must merge across
        // waves without leaking open components between workers.
        let w = shapex_workloads::person_network(
            300,
            shapex_workloads::Topology::Random { degree: 2 },
            0.2,
            11,
        );
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut seq = Engine::new(&schema, &mut ds.pool).unwrap();
        let sequential = seq.type_all(&ds.graph, &ds.pool);
        let mut par = Engine::new(&schema, &mut ds.pool).unwrap();
        let parallel = par.type_all_par(&ds.graph, &ds.pool, 4);
        assert_eq!(sequential, parallel);
        // And the parallel engine's merged memo answers follow-up queries.
        let first = ds.iri(&w.focus[0]).unwrap();
        let person = par.shape_id(&ShapeLabel::new("Person")).unwrap();
        assert_eq!(
            par.check_id(&ds.graph, &ds.pool, first, person).matched(),
            sequential.has(first, person)
        );
    }

    #[test]
    fn type_all_par_shared_deadline_bounds_whole_run() {
        // A zero deadline measured from the run's start: every pair either
        // exhausts or answers from trivial work; the run terminates fast
        // and reports exhaustion rather than hanging.
        let w = shapex_workloads::person_network(200, shapex_workloads::Topology::Chain, 0.0, 3);
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        engine.set_budget(Budget::UNLIMITED.with_deadline(std::time::Duration::ZERO));
        let typing = engine.type_all_par(&ds.graph, &ds.pool, 4);
        assert!(typing.is_partial(), "zero deadline must exhaust something");
    }

    #[test]
    fn type_all_par_zero_deadline_exhausts_every_query_at_its_start() {
        // Workers measure the deadline from the run's start and poll it
        // when each query starts, so under a zero deadline no query of a
        // fresh engine gets to decide anything, and every record is the
        // one a per-query deadline gives: wall clock, spent = limit.
        let w = shapex_workloads::person_network(200, shapex_workloads::Topology::Chain, 0.0, 3);
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        for jobs in [2, 4] {
            let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
            engine.set_budget(Budget::UNLIMITED.with_deadline(std::time::Duration::ZERO));
            let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
            let queries = ds.graph.subjects().count() * engine.schema.shapes.len();
            assert_eq!(typing.nodes().count(), 0, "jobs={jobs}");
            assert_eq!(typing.exhausted.len(), queries, "jobs={jobs}");
            for &(_, _, e) in &typing.exhausted {
                assert_eq!(
                    e,
                    Exhaustion {
                        resource: Resource::WallClock,
                        spent: 0,
                        limit: 0,
                    },
                    "jobs={jobs}"
                );
            }
            assert!(engine.memo.is_empty(), "jobs={jobs}");
        }
    }

    #[test]
    fn ablation_configs_agree_on_results() {
        for config in [
            EngineConfig::default(),
            EngineConfig {
                no_deriv_memo: true,
                ..EngineConfig::default()
            },
            EngineConfig {
                simplify: Simplify {
                    identities: true,
                    or_dedup: false,
                },
                ..EngineConfig::default()
            },
        ] {
            let schema = shexc::parse(PERSON_SCHEMA).unwrap();
            let mut ds = turtle::parse(PERSON_DATA).unwrap();
            let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
            let person = "Person".into();
            let john = ds.iri("http://example.org/john").unwrap();
            let mary = ds.iri("http://example.org/mary").unwrap();
            assert!(
                engine
                    .check(&ds.graph, &ds.pool, john, &person)
                    .unwrap()
                    .matched
            );
            assert!(
                !engine
                    .check(&ds.graph, &ds.pool, mary, &person)
                    .unwrap()
                    .matched
            );
        }
    }

    #[test]
    fn example_10_balanced_expression() {
        // e = (a→{1,2} | b→{1,2})* requires equal counts is wrong — the
        // paper's point is only that derivatives may *grow*; the expression
        // accepts any mix of a/b arcs with values in {1,2}.
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { (e:a [1 2] | e:b [1 2])* }",
            r#"
            @prefix e: <http://e/> .
            e:n e:a 1, 2; e:b 1, 2 .
            e:m e:a 1; e:c 9 .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
        assert!(!check(&mut engine, &ds, "http://e/m", "S"));
    }

    #[test]
    fn literal_object_can_match_empty_shape() {
        // A shape with only optional arcs is satisfied by literals (their
        // neighbourhood is empty).
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p @<T> }\n<T> { e:q .* }",
            "@prefix e: <http://e/> . e:n e:p 42 .",
        );
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
    }

    #[test]
    fn wildcard_predicate_arc() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { . LITERAL+ }",
            r#"
            @prefix e: <http://e/> .
            e:x e:p 1; e:q "s" .
            e:y e:p e:z .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://e/x", "S"));
        assert!(!check(&mut engine, &ds, "http://e/y", "S"));
    }

    #[test]
    fn validate_map_outcomes() {
        let (mut engine, mut ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let map = shapex_shex::shapemap::parse(
            "<http://example.org/john>@<Person>,\n\
             <http://example.org/mary>@!<Person>,\n\
             <http://example.org/mary>@<Person>,\n\
             <http://example.org/unknown>@!<Person>",
        )
        .unwrap();
        let outcomes = engine.validate_map(&ds.graph, &mut ds.pool, &map).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes[0].conforms && outcomes[0].as_expected);
        assert!(!outcomes[1].conforms && outcomes[1].as_expected);
        assert!(!outcomes[2].conforms && !outcomes[2].as_expected);
        assert!(outcomes[2].failure.is_some());
        // Unknown node: empty neighbourhood fails the Person shape.
        assert!(!outcomes[3].conforms && outcomes[3].as_expected);
    }

    #[test]
    fn validate_map_unknown_shape_errors() {
        let (mut engine, mut ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let map = shapex_shex::shapemap::parse("<http://e/x>@<Nope>").unwrap();
        assert!(matches!(
            engine.validate_map(&ds.graph, &mut ds.pool, &map),
            Err(EngineError::UnknownShape(_))
        ));
    }

    #[test]
    fn blank_node_focus() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p [1] }",
            "@prefix e: <http://e/> . _:b e:p 1 .",
        );
        let node = ds.node(&shapex_rdf::Term::blank("b")).unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, node, &"S".into())
                .unwrap()
                .matched
        );
    }

    #[test]
    fn literal_focus_node_against_empty_shape() {
        let (mut engine, mut ds) = setup(
            "PREFIX e: <http://e/>\n<E> { }\n<R> { e:p . }",
            "@prefix e: <http://e/> . e:x e:p 1 .",
        );
        let lit = ds
            .pool
            .intern(shapex_rdf::Term::Literal(shapex_rdf::Literal::integer(1)));
        // A literal has no outgoing triples: matches ε, fails required arcs.
        assert!(
            engine
                .check(&ds.graph, &ds.pool, lit, &"E".into())
                .unwrap()
                .matched
        );
        assert!(
            !engine
                .check(&ds.graph, &ds.pool, lit, &"R".into())
                .unwrap()
                .matched
        );
    }

    #[test]
    fn deep_recursion_chain() {
        // A 20000-link knows-chain: far beyond the default test-thread
        // stack — exercises the large-stack validation worker.
        let w = shapex_workloads::person_network(20_000, shapex_workloads::Topology::Chain, 0.0, 7);
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        let first = ds.iri(&w.focus[0]).unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, first, &ShapeLabel::new("Person"))
                .unwrap()
                .matched
        );
    }

    #[test]
    fn multiple_shapes_per_node() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<HasP> { e:p ., e:q .* }\n<HasQ> { e:q ., e:p .* }",
            "@prefix e: <http://e/> . e:x e:p 1; e:q 2 .",
        );
        let typing = engine.type_all(&ds.graph, &ds.pool);
        let x = ds.iri("http://e/x").unwrap();
        assert_eq!(typing.shapes_of(x).count(), 2);
    }

    #[test]
    fn sorbe_and_general_disagreement_guard_on_duplicate_values() {
        // A SORBE shape whose value constraint rejects one of two triples:
        // both paths must fail identically.
        let schema = shexc::parse("PREFIX e: <http://e/>\n<S> { e:p [1 2]{2} }").unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:p 1, 3 .").unwrap();
        for no_sorbe in [false, true] {
            let mut engine = Engine::compile(
                &schema,
                &mut ds.pool,
                EngineConfig {
                    no_sorbe,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let n = ds.iri("http://e/n").unwrap();
            assert!(
                !engine
                    .check(&ds.graph, &ds.pool, n, &"S".into())
                    .unwrap()
                    .matched
            );
        }
    }

    #[test]
    fn trace_reproduces_example_11() {
        // a→[1] ‖ b→.* over {⟨n,a,1⟩, ⟨n,b,1⟩, ⟨n,b,2⟩}: three steps,
        // residual nullable, matches.
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1; e:b 1, 2 .");
        let node = ds.iri("http://e/n").unwrap();
        let trace = engine
            .trace(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert_eq!(trace.steps.len(), 3);
        assert!(trace.matched);
        assert!(trace.nullable);
        // The first consumed triple is the a-arc (insertion order), and the
        // state drops the consumed obligation.
        assert!(trace.steps[0].before.contains("a→"), "{:?}", trace.steps[0]);
        let rendered = trace.render(&ds.pool);
        assert!(rendered.contains("MATCHES"), "{rendered}");
    }

    #[test]
    fn trace_reproduces_example_12() {
        // {⟨n,a,1⟩, ⟨n,a,2⟩, ⟨n,b,1⟩}: the second a-triple derives ∅ and
        // the trace stops early.
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1, 2; e:b 1 .");
        let node = ds.iri("http://e/n").unwrap();
        let trace = engine
            .trace(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert!(!trace.matched);
        assert_eq!(trace.residual, "∅");
        assert!(trace.steps.len() < 3, "stops at the failing triple");
        assert_eq!(trace.steps.last().unwrap().after, "∅");
    }

    #[test]
    fn trace_on_deep_recursive_chain() {
        // The trace path must use the large-stack worker too.
        let w = shapex_workloads::person_network(5_000, shapex_workloads::Topology::Chain, 0.0, 3);
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        let first = ds.iri(&w.focus[0]).unwrap();
        let trace = engine
            .trace(&ds.graph, &ds.pool, first, &ShapeLabel::new("Person"))
            .unwrap();
        assert!(trace.matched);
        assert_eq!(trace.steps.len(), 3); // age, name, knows
    }

    #[test]
    fn trace_agrees_with_check() {
        let (mut engine, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        for node in ["john", "bob", "mary"] {
            let id = ds.iri(&format!("http://example.org/{node}")).unwrap();
            let checked = engine
                .check(&ds.graph, &ds.pool, id, &"Person".into())
                .unwrap()
                .matched;
            let traced = engine
                .trace(&ds.graph, &ds.pool, id, &"Person".into())
                .unwrap()
                .matched;
            assert_eq!(checked, traced, "{node}");
        }
    }

    #[test]
    fn exhausted_trace_is_an_error_and_leaves_the_engine_usable() {
        // Three triples, one step on a cold engine (memoised derivatives
        // are free): the trace trips the budget inside the typing loop,
        // renders nothing, and counts one exhausted check.
        const DATA: &str = "@prefix e: <http://e/> . e:n e:a 1; e:b 1, 2 .";
        let (mut warm, ds) = setup(EX5_SCHEMA, DATA);
        let node = ds.iri("http://e/n").unwrap();
        let full = warm.trace(&ds.graph, &ds.pool, node, &"S".into()).unwrap();
        let (mut engine, ds) = setup(EX5_SCHEMA, DATA);
        let node = ds.iri("http://e/n").unwrap();
        engine.set_budget(Budget::steps(1));
        let err = engine
            .trace(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { .. }),
            "{err:?}"
        );
        assert_eq!(engine.stats().exhausted_checks, 1);
        engine.set_budget(Budget::UNLIMITED);
        let again = engine
            .trace(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert_eq!(again, full);
    }

    #[test]
    fn trace_interns_classes_in_the_shape_dfa() {
        // The trace walks the typing loop, so its triple classes land in
        // the shape DFA's table, and a later check of the same node
        // interns none.
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1; e:b 1, 2 .");
        let node = ds.iri("http://e/n").unwrap();
        engine
            .trace(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        let classes = |engine: &Engine| -> u64 {
            engine
                .dfa_summary()
                .iter()
                .map(|&(_, _, c, _)| c as u64)
                .sum()
        };
        let traced = engine.stats().triple_classes;
        // a→1, b→1 and b→2 fall into two classes: the a-arc's and the
        // b-arc's.
        assert_eq!(traced, 2);
        assert_eq!(classes(&engine), traced);
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
        assert_eq!(engine.stats().triple_classes, traced);
        assert_eq!(classes(&engine), traced);
    }

    /// Fig. 4, rule *Arctype*: a value-set arc matches a triple whose
    /// object is in the set, producing no typing obligations.
    #[test]
    fn rule_arctype() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p [1 2] }",
            "@prefix e: <http://e/> . e:ok e:p 2 . e:bad e:p 3 .",
        );
        assert!(check(&mut engine, &ds, "http://e/ok", "S"));
        assert!(!check(&mut engine, &ds, "http://e/bad", "S"));
    }

    /// Fig. 4, rule *Arcref*: `vp→l` matches ⟨s,p,o⟩ when o has shape l —
    /// the typing obligation `Γ ⊢ l ≃s o`.
    #[test]
    fn rule_arcref() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p @<T> }\n<T> { e:q [1] }",
            "@prefix e: <http://e/> . e:ok e:p e:t . e:t e:q 1 .\n\
             e:bad e:p e:u . e:u e:q 2 .",
        );
        assert!(check(&mut engine, &ds, "http://e/ok", "S"));
        assert!(!check(&mut engine, &ds, "http://e/bad", "S"));
    }

    /// Fig. 3, rule *MatchShape*: `Γ{n→l} ⊢ δ(l) ≃ Σg_n` — the assumption
    /// added for n itself is what lets a self-referential node close.
    #[test]
    fn rule_matchshape_assumption() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:self @<S> }",
            "@prefix e: <http://e/> . e:n e:self e:n .",
        );
        // n's only triple points at n itself; only Γ{n→S} makes it hold.
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
    }
}
