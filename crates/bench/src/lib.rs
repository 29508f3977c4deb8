//! Shared helpers for the benchmark harness (see EXPERIMENTS.md for the
//! experiment ↔ bench mapping).

use shapex::{Engine, EngineConfig, ShapeId};
use shapex_backtrack::{BacktrackValidator, BtConfig, BtError};
use shapex_rdf::pool::TermId;
use shapex_shex::ast::ShapeLabel;
use shapex_shex::schema::Schema;
use shapex_shex::shexc;
use shapex_workloads::Workload;

/// A workload compiled for the derivative engine, ready to validate.
pub struct DerivativeRun {
    /// The compiled engine.
    pub engine: Engine,
    /// The workload's data.
    pub dataset: shapex_rdf::graph::Dataset,
    /// Focus node ids.
    pub nodes: Vec<TermId>,
    /// The shape every focus node is checked against.
    pub label: ShapeLabel,
    /// Resolved shape id.
    pub shape: ShapeId,
    /// Ground-truth conformance per focus node.
    pub expected: Vec<bool>,
}

impl DerivativeRun {
    pub fn prepare(mut w: Workload, config: EngineConfig) -> DerivativeRun {
        let schema = shexc::parse(&w.schema).expect("workload schema parses");
        let engine = Engine::compile(&schema, &mut w.dataset.pool, config)
            .expect("workload schema compiles");
        let nodes: Vec<TermId> = w
            .focus
            .iter()
            .map(|iri| w.dataset.iri(iri).expect("focus node in data"))
            .collect();
        let label = ShapeLabel::new(w.shape);
        let shape = engine.shape_id(&label).expect("shape exists");
        DerivativeRun {
            engine,
            dataset: w.dataset,
            nodes,
            label,
            shape,
            expected: w.expected,
        }
    }

    /// Validates every focus node (fresh memo state per call so repeated
    /// bench iterations measure real work), asserting ground truth.
    pub fn validate_all(&mut self) -> usize {
        self.engine.reset();
        let queries: Vec<(TermId, ShapeId)> = self.nodes.iter().map(|&n| (n, self.shape)).collect();
        let results = self
            .engine
            .check_many(&self.dataset.graph, &self.dataset.pool, &queries, 1);
        let mut conforming = 0;
        for (i, result) in results.iter().enumerate() {
            debug_assert_eq!(result.matched(), self.expected[i]);
            conforming += usize::from(result.matched());
        }
        conforming
    }

    /// Like `validate_all`, but under a budget: returns
    /// `(conforming, exhausted)` counts instead of asserting ground truth
    /// (an exhausted check has no ground truth to assert).
    pub fn validate_all_budgeted(&mut self, budget: shapex::Budget) -> (usize, usize) {
        self.engine.reset();
        self.engine.set_budget(budget);
        let queries: Vec<(TermId, ShapeId)> = self.nodes.iter().map(|&n| (n, self.shape)).collect();
        let results = self
            .engine
            .check_many(&self.dataset.graph, &self.dataset.pool, &queries, 1);
        let mut conforming = 0;
        let mut exhausted = 0;
        for result in &results {
            conforming += usize::from(result.matched());
            exhausted += usize::from(result.is_exhausted());
        }
        (conforming, exhausted)
    }
}

/// A workload set up for the backtracking baseline.
pub struct BacktrackRun {
    pub validator: BacktrackValidator,
    pub dataset: shapex_rdf::graph::Dataset,
    pub nodes: Vec<TermId>,
    pub label: ShapeLabel,
}

impl BacktrackRun {
    pub fn prepare(w: Workload, budget: shapex::Budget) -> BacktrackRun {
        let schema = shexc::parse(&w.schema).expect("workload schema parses");
        let validator = BacktrackValidator::with_config(&schema, BtConfig { budget })
            .expect("workload schema compiles");
        let nodes = w
            .focus
            .iter()
            .map(|iri| w.dataset.iri(iri).expect("focus node in data"))
            .collect();
        BacktrackRun {
            validator,
            dataset: w.dataset,
            nodes,
            label: ShapeLabel::new(w.shape),
        }
    }

    /// Validates every focus node; `Err` when the budget blows (the
    /// exponential regime — reported, not timed).
    pub fn validate_all(&self) -> Result<usize, BtError> {
        let mut conforming = 0;
        for &node in &self.nodes {
            conforming += usize::from(self.validator.check(
                &self.dataset.graph,
                &self.dataset.pool,
                node,
                &self.label,
            )?);
        }
        Ok(conforming)
    }
}

/// Parses a workload's schema (for SPARQL generation paths).
pub fn parse_schema(w: &Workload) -> Schema {
    shexc::parse(&w.schema).expect("workload schema parses")
}

/// Peak resident set size of this process so far, in kilobytes (`VmHWM`
/// from `/proc/self/status`; 0 where that file does not exist).
pub fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}
