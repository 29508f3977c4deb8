//! Fine-grained observability counters for the derivative engine.
//!
//! [`Stats`](crate::result::Stats) answers "how much work happened";
//! [`Metrics`] answers *where* it happened: the DFA transition table's
//! hit/miss split, per-shape attribution, `HeadIndex`
//! selectivity, and — for [`Engine::type_all_par`] — one record per
//! parallel run with its timing and per-shard merge accounting.
//!
//! Collection is **off by default** and gated by
//! [`EngineConfig::metrics`](crate::EngineConfig): when disabled the
//! engine holds no `Metrics` allocation at all and every instrumentation
//! site reduces to one branch on an `Option` discriminant — nothing is
//! counted, nothing is timed.
//!
//! Merge discipline (also documented in `DESIGN.md`): parallel workers
//! collect into private `Metrics`/`Stats` shards that start empty, and
//! the coordinator folds each shard in once, when the run ends
//! ([`Metrics::absorb`]). Counters are therefore merged exactly once.
//!
//! [`Engine::type_all_par`]: crate::Engine::type_all_par

use std::fmt;

/// Hit/miss counters for one memo table. The defining invariant — checked
/// by the metric-invariant proptests — is `lookups == hits + misses`
/// (with [`CacheMetrics::hits`] summing every hit flavour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Times the table was consulted.
    pub lookups: u64,
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
}

impl CacheMetrics {
    /// Hit ratio in `[0, 1]`; `0` when the table was never consulted.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    fn absorb(&mut self, other: &CacheMetrics) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// The table's counters as a JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
        })
    }
}

/// Per-shape work attribution, indexed by [`ShapeId`](crate::ShapeId).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeMetrics {
    /// `(node, shape)` evaluations (memo misses) against this shape.
    pub checks: u64,
    /// Evaluations that proved conformance.
    pub conforms: u64,
    /// Evaluations that refuted conformance.
    pub fails: u64,
    /// Derivative-rule applications attributed to this shape's checks.
    pub derivative_steps: u64,
    /// Checks answered by the SORBE counting fast path.
    pub sorbe_checks: u64,
    /// Triples profiled for this shape on the derivative path (one
    /// satisfaction profile per consumed triple).
    pub profiles_computed: u64,
}

impl ShapeMetrics {
    fn absorb(&mut self, other: &ShapeMetrics) {
        self.checks += other.checks;
        self.conforms += other.conforms;
        self.fails += other.fails;
        self.derivative_steps += other.derivative_steps;
        self.sorbe_checks += other.sorbe_checks;
        self.profiles_computed += other.profiles_computed;
    }
}

/// Per-shape lazy-DFA structure sizes (see [`crate::dfa`]). These are
/// *gauges*, not rates: they report how large the shape's automaton has
/// grown, so the end-of-run merge takes the max across shards instead
/// of summing them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DfaShapeMetrics {
    /// Dense expression states interned for the shape.
    pub states: u64,
    /// Alphabet classes interned for the shape.
    pub classes: u64,
}

impl DfaShapeMetrics {
    fn absorb_max(&mut self, now: &DfaShapeMetrics) {
        self.states = self.states.max(now.states);
        self.classes = self.classes.max(now.classes);
    }
}

/// One shard's contribution to a [`WaveMetrics`] record: what a single
/// worker did during the run, folded in when the run ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Worker index.
    pub worker: usize,
    /// Queries this worker executed in the run (its own share plus any
    /// it stole).
    pub queries: u64,
    /// Queries executed from batches stolen off peers' deques.
    pub stolen: u64,
    /// Successful steals (batches taken off a peer's deque).
    pub steals: u64,
    /// Steal probes issued, successful or not; `steals / steal_attempts`
    /// measures contention.
    pub steal_attempts: u64,
    /// Verdicts this worker published to the run's publication log.
    pub published: u64,
    /// Verdicts this worker drained from peers' publications.
    pub drained: u64,
    /// Microseconds spent executing queries (only collected when metrics
    /// are enabled).
    pub busy_us: u64,
    /// Microseconds spent probing for work with an empty deque.
    pub idle_us: u64,
    /// Newly learned `(shape, node)` verdicts merged from this
    /// shard when the run ended.
    pub promoted: u64,
    /// Budget steps the shard spent during the run.
    pub budget_steps: u64,
    /// Derivative-rule applications during the run.
    pub derivative_steps: u64,
}

/// One parallel run (historically a "wave") of
/// [`Engine::type_all_par`](crate::Engine::type_all_par): dispatch sizes,
/// wall-clock, and the per-shard merge record. Each run pushes exactly
/// one record; `memo_answered + dispatched == queries`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveMetrics {
    /// Queries in the run: every `(subject, shape)` pair.
    pub queries: u64,
    /// Queries answered by a verdict memoised *before* the parallel run
    /// started (schema preloading, a previous `type_all*`, a surviving
    /// revalidation memo) — never dispatched.
    pub memo_answered: u64,
    /// Dispatched queries a worker answered from a verdict reached
    /// earlier in *this* run — by itself or drained from a peer's
    /// publication. A subset of [`dispatched`](WaveMetrics::dispatched).
    pub merged_answered: u64,
    /// Queries dispatched to workers.
    pub dispatched: u64,
    /// Successful steals across all workers in the run.
    pub steals: u64,
    /// Steal probes across all workers in the run.
    pub steal_attempts: u64,
    /// Verdicts published to the run's shared log across all workers.
    pub published: u64,
    /// Wall-clock for the run (prefilter through merge), microseconds.
    pub elapsed_us: u64,
    /// Per-worker records for the run.
    pub shards: Vec<ShardMetrics>,
}

/// The engine's observability counters; see the module docs for the
/// collection and merge discipline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Always zero, and in no report: the engine keeps no per-triple
    /// profile cache. Kept only because the `perfbench` harness still
    /// reads these two fields.
    #[doc(hidden)]
    pub profile_stable: CacheMetrics,
    #[doc(hidden)]
    pub profile_assumption: CacheMetrics,
    /// Dense DFA transition-table behaviour: the `(expression,
    /// triple-class)` derivative memo (see [`crate::dfa`]). A miss is
    /// exactly one lazy table fill; not consulted when
    /// `EngineConfig::no_deriv_memo` is set.
    pub dfa_table: CacheMetrics,
    /// DFA expression states interned, summed over shapes.
    pub dfa_states: u64,
    /// Per-shape DFA sizes, indexed by `ShapeId` (gauges, merged by max).
    pub per_shape_dfa: Vec<DfaShapeMetrics>,
    /// `HeadIndex` consultations during profile computation.
    pub head_index_queries: u64,
    /// Candidate arcs the `HeadIndex` returned, summed over queries; the
    /// average `candidates/queries` measures index selectivity against a
    /// full arc scan.
    pub head_index_candidates: u64,
    /// Largest expression-arena size observed by any query's meter.
    pub arena_high_water: usize,
    /// Budget steps charged across all queries.
    pub budget_steps: u64,
    /// Memoised pairs dropped by
    /// [`revalidate`](crate::Engine::revalidate)'s invalidation closure,
    /// summed over revalidations.
    pub delta_invalidated: u64,
    /// Pairs re-evaluated on the dirty frontier during revalidations.
    pub delta_retyped: u64,
    /// Pairs answered from the surviving memo during revalidations.
    pub delta_reused: u64,
    /// Per-shape attribution, indexed by `ShapeId`.
    pub per_shape: Vec<ShapeMetrics>,
    /// One record per parallel
    /// [`type_all_par`](crate::Engine::type_all_par) run with `jobs > 1`.
    pub waves: Vec<WaveMetrics>,
}

impl Metrics {
    /// An empty metrics block with per-shape slots for `shapes` shapes.
    pub fn new(shapes: usize) -> Self {
        Metrics {
            per_shape: vec![ShapeMetrics::default(); shapes],
            per_shape_dfa: vec![DfaShapeMetrics::default(); shapes],
            ..Metrics::default()
        }
    }

    /// Folds another collector's counters into this one — the end-of-run
    /// merge of a parallel worker's shard. Monotone counters add;
    /// high-water marks and DFA size gauges take the max (a level is not
    /// a rate).
    pub fn absorb(&mut self, other: &Metrics) {
        self.dfa_table.absorb(&other.dfa_table);
        self.dfa_states += other.dfa_states;
        if self.per_shape_dfa.len() < other.per_shape_dfa.len() {
            self.per_shape_dfa
                .resize(other.per_shape_dfa.len(), DfaShapeMetrics::default());
        }
        for (slot, o) in self.per_shape_dfa.iter_mut().zip(&other.per_shape_dfa) {
            slot.absorb_max(o);
        }
        self.head_index_queries += other.head_index_queries;
        self.head_index_candidates += other.head_index_candidates;
        self.arena_high_water = self.arena_high_water.max(other.arena_high_water);
        self.budget_steps += other.budget_steps;
        self.delta_invalidated += other.delta_invalidated;
        self.delta_retyped += other.delta_retyped;
        self.delta_reused += other.delta_reused;
        if self.per_shape.len() < other.per_shape.len() {
            self.per_shape
                .resize(other.per_shape.len(), ShapeMetrics::default());
        }
        for (slot, o) in self.per_shape.iter_mut().zip(&other.per_shape) {
            slot.absorb(o);
        }
    }

    /// The metrics block as a JSON object (the `metrics` member of the
    /// `--report json` document — schema documented in `DESIGN.md`).
    /// `labels(i)` names shape `i` for the per-shape rows.
    pub fn to_json(&self, labels: &dyn Fn(usize) -> String) -> serde_json::Value {
        use serde_json::Value;
        let per_shape: Vec<Value> = self
            .per_shape
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let dfa = self.per_shape_dfa.get(i).copied().unwrap_or_default();
                serde_json::json!({
                    "shape": labels(i),
                    "checks": s.checks,
                    "conforms": s.conforms,
                    "fails": s.fails,
                    "derivative_steps": s.derivative_steps,
                    "sorbe_checks": s.sorbe_checks,
                    "profiles_computed": s.profiles_computed,
                    "dfa_states": dfa.states,
                    "dfa_classes": dfa.classes,
                })
            })
            .collect();
        let waves: Vec<Value> = self
            .waves
            .iter()
            .map(|w| {
                let shards: Vec<Value> = w
                    .shards
                    .iter()
                    .map(|s| {
                        serde_json::json!({
                            "worker": s.worker,
                            "queries": s.queries,
                            "stolen": s.stolen,
                            "steals": s.steals,
                            "steal_attempts": s.steal_attempts,
                            "published": s.published,
                            "drained": s.drained,
                            "busy_us": s.busy_us,
                            "idle_us": s.idle_us,
                            "promoted": s.promoted,
                            "budget_steps": s.budget_steps,
                            "derivative_steps": s.derivative_steps,
                        })
                    })
                    .collect();
                serde_json::json!({
                    "queries": w.queries,
                    "memo_answered": w.memo_answered,
                    "merged_answered": w.merged_answered,
                    "dispatched": w.dispatched,
                    "steals": w.steals,
                    "steal_attempts": w.steal_attempts,
                    "published": w.published,
                    "elapsed_us": w.elapsed_us,
                    "shards": Value::Array(shards),
                })
            })
            .collect();
        serde_json::json!({
            "dfa_table": self.dfa_table.to_json(),
            "dfa_states": self.dfa_states,
            "head_index": {
                "queries": self.head_index_queries,
                "candidates": self.head_index_candidates,
            },
            "arena_high_water": self.arena_high_water,
            "budget_steps": self.budget_steps,
            "delta": {
                "invalidated": self.delta_invalidated,
                "retyped": self.delta_retyped,
                "reused": self.delta_reused,
            },
            "per_shape": Value::Array(per_shape),
            "waves": Value::Array(waves),
        })
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dfa-table={}/{} dfa-states={} \
             head-index={}q/{}c arena-hwm={} budget-steps={}",
            self.dfa_table.hits,
            self.dfa_table.lookups,
            self.dfa_states,
            self.head_index_queries,
            self.head_index_candidates,
            self.arena_high_water,
            self.budget_steps,
        )?;
        if !self.waves.is_empty() {
            write!(f, " waves={}", self.waves.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_invariant_and_ratio() {
        let c = CacheMetrics {
            lookups: 10,
            hits: 7,
            misses: 3,
        };
        assert_eq!(c.lookups, c.hits + c.misses);
        assert!((c.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(CacheMetrics::default().hit_ratio(), 0.0);
    }

    #[test]
    fn absorb_adds_counters_and_maxes_high_water() {
        let shard = |lookups, hits, steps, hwm, checks: [u64; 2]| Metrics {
            dfa_table: CacheMetrics {
                lookups,
                hits,
                misses: lookups - hits,
            },
            budget_steps: steps,
            arena_high_water: hwm,
            per_shape: checks
                .iter()
                .map(|&checks| ShapeMetrics {
                    checks,
                    ..ShapeMetrics::default()
                })
                .collect(),
            per_shape_dfa: vec![
                DfaShapeMetrics {
                    states: hwm as u64,
                    classes: 1,
                },
                DfaShapeMetrics::default(),
            ],
            ..Metrics::default()
        };
        let mut total = Metrics::new(2);
        total.absorb(&shard(5, 4, 100, 10, [1, 0]));
        total.absorb(&shard(4, 2, 50, 40, [2, 2]));
        assert_eq!(total.dfa_table.lookups, 9);
        assert_eq!(total.dfa_table.hits, 6);
        assert_eq!(total.dfa_table.misses, 3);
        assert_eq!(total.budget_steps, 150);
        assert_eq!(total.arena_high_water, 40);
        assert_eq!(total.per_shape[0].checks, 3);
        assert_eq!(total.per_shape[1].checks, 2);
        // DFA sizes are gauges: the largest shard wins, nothing sums.
        assert_eq!(total.per_shape_dfa[0].states, 40);
        assert_eq!(total.per_shape_dfa[0].classes, 1);
    }

    #[test]
    fn display_is_compact() {
        let m = Metrics::new(1);
        let s = m.to_string();
        assert!(s.contains("dfa-table=0/0"), "{s}");
        assert!(!s.contains("waves"), "{s}");
    }
}
