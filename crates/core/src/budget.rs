//! Resource governance for validation (the robustness counterpart to §6–§8).
//!
//! The derivative engine removes the backtracking baseline's exponential
//! *decomposition*, but the formalism keeps intrinsic worst cases: `‖`
//! derivatives can explode the expression arena, shape references walk
//! cyclic data arbitrarily deep, and `type_all` is node × shape with no
//! ceiling. A [`Budget`] bounds each axis; a [`BudgetMeter`] is charged as
//! the engines run and trips with a structured [`Exhaustion`] instead of a
//! hang or OOM. Checks are amortised counter compares — the wall-clock
//! deadline is polled every [`DEADLINE_POLL_INTERVAL`] steps, never per
//! step — so `Budget::UNLIMITED` (the default) is behaviourally and
//! performance-wise identical to an ungoverned run.

use std::time::{Duration, Instant};

/// How often (in steps) the deadline is polled. A power of two so the
/// check compiles to a mask test.
pub const DEADLINE_POLL_INTERVAL: u64 = 4096;

/// The governed resource axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Engine work steps (derivative rule applications, matcher
    /// decompositions, per-triple counting work, node checks).
    Steps,
    /// Hash-consed expression-arena nodes (schema pool size).
    ArenaNodes,
    /// Nested `(node, shape)` check depth through shape references.
    Depth,
    /// Wall-clock deadline, in milliseconds.
    WallClock,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::Steps => write!(f, "steps"),
            Resource::ArenaNodes => write!(f, "arena-nodes"),
            Resource::Depth => write!(f, "depth"),
            Resource::WallClock => write!(f, "wall-clock-ms"),
        }
    }
}

/// A tripped budget: which resource ran out, how much was spent, and the
/// configured limit. `spent <= limit` always holds — the meter trips *at*
/// the limit, not past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhaustion {
    /// The resource that ran out.
    pub resource: Resource,
    /// Units spent when the meter tripped (milliseconds for
    /// [`Resource::WallClock`]).
    pub spent: u64,
    /// The configured limit in the same units.
    pub limit: u64,
}

impl Exhaustion {
    /// The record as a JSON object (used by `--report json` documents).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "resource": self.resource.to_string(),
            "spent": self.spent,
            "limit": self.limit,
        })
    }
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} budget exhausted ({}/{})",
            self.resource, self.spent, self.limit
        )
    }
}

/// Per-query resource limits. All axes are optional; the default
/// ([`Budget::UNLIMITED`]) governs nothing and preserves ungoverned
/// behaviour exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum engine work steps per query.
    pub max_steps: Option<u64>,
    /// Maximum expression-arena *growth* per query (hash-consed nodes
    /// added beyond the arena's size when the query began). Growth, not
    /// absolute size: the arena persists across queries, so an absolute
    /// cap would let one pathological node poison every later query.
    ///
    /// The charged units are pool nodes *plus* memoised derivative
    /// transitions (lazy-DFA table fills).
    pub max_arena_nodes: Option<usize>,
    /// Maximum `(node, shape)` recursion depth through shape references.
    pub max_depth: Option<u32>,
    /// Wall-clock deadline per query.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// No limits — the default.
    pub const UNLIMITED: Budget = Budget {
        max_steps: None,
        max_arena_nodes: None,
        max_depth: None,
        deadline: None,
    };

    /// A budget capping only work steps.
    pub fn steps(max_steps: u64) -> Budget {
        Budget {
            max_steps: Some(max_steps),
            ..Budget::UNLIMITED
        }
    }

    /// Sets the step limit.
    pub fn with_max_steps(mut self, max_steps: u64) -> Budget {
        self.max_steps = Some(max_steps);
        self
    }

    /// Sets the arena-size limit.
    pub fn with_max_arena_nodes(mut self, max_arena_nodes: usize) -> Budget {
        self.max_arena_nodes = Some(max_arena_nodes);
        self
    }

    /// Sets the recursion-depth limit.
    pub fn with_max_depth(mut self, max_depth: u32) -> Budget {
        self.max_depth = Some(max_depth);
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// True when no axis is governed.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::UNLIMITED
    }

    /// Starts a fresh meter for one query.
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            steps: 0,
            step_limit: self.max_steps.unwrap_or(u64::MAX),
            depth: 0,
            peak_depth: 0,
            depth_limit: self.max_depth.unwrap_or(u32::MAX),
            arena_limit: self.max_arena_nodes.unwrap_or(usize::MAX),
            arena_baseline: 0,
            peak_arena: 0,
            deadline: self.deadline,
            started: None,
        }
    }
}

/// Run-time spend tracking for one query. Created by [`Budget::meter`];
/// charged by the engines; trips with an [`Exhaustion`].
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    steps: u64,
    step_limit: u64,
    depth: u32,
    peak_depth: u32,
    depth_limit: u32,
    arena_limit: usize,
    arena_baseline: usize,
    peak_arena: usize,
    deadline: Option<Duration>,
    /// Captured lazily on the first deadline poll so unlimited budgets
    /// never touch the clock, unless set by [`BudgetMeter::start_clock_at`].
    started: Option<Instant>,
}

impl Default for BudgetMeter {
    fn default() -> Self {
        Budget::UNLIMITED.meter()
    }
}

impl BudgetMeter {
    /// Charges one work step; amortised deadline poll.
    #[inline]
    pub fn step(&mut self) -> Result<(), Exhaustion> {
        self.steps += 1;
        if self.steps >= self.step_limit {
            return Err(Exhaustion {
                resource: Resource::Steps,
                spent: self.step_limit,
                limit: self.step_limit,
            });
        }
        if self.deadline.is_some() && self.steps.is_multiple_of(DEADLINE_POLL_INTERVAL) {
            self.poll_deadline()?;
        }
        Ok(())
    }

    /// Measures the deadline from `start` instead of from the first poll:
    /// the workers of a parallel run share the run's start instant, so
    /// the deadline bounds the whole run.
    pub fn start_clock_at(&mut self, start: Instant) {
        self.started = Some(start);
    }

    /// Checks the wall-clock deadline now (normally amortised via
    /// [`BudgetMeter::step`]).
    pub fn poll_deadline(&mut self) -> Result<(), Exhaustion> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let started = *self.started.get_or_insert_with(Instant::now);
        if started.elapsed() >= deadline {
            let limit = deadline.as_millis().min(u64::MAX as u128) as u64;
            return Err(Exhaustion {
                resource: Resource::WallClock,
                spent: limit,
                limit,
            });
        }
        Ok(())
    }

    /// Enters one level of `(node, shape)` recursion.
    #[inline]
    pub fn enter_depth(&mut self) -> Result<(), Exhaustion> {
        if self.depth >= self.depth_limit {
            return Err(Exhaustion {
                resource: Resource::Depth,
                spent: self.depth_limit as u64,
                limit: self.depth_limit as u64,
            });
        }
        self.depth += 1;
        self.peak_depth = self.peak_depth.max(self.depth);
        Ok(())
    }

    /// Leaves one level of recursion.
    #[inline]
    pub fn exit_depth(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Records the arena units at query start (pool nodes plus memoised
    /// derivative transitions); [`BudgetMeter::check_arena`] measures
    /// growth relative to it.
    pub fn set_arena_baseline(&mut self, arena_nodes: usize) {
        self.arena_baseline = arena_nodes;
        self.peak_arena = self.peak_arena.max(arena_nodes);
    }

    /// Checks the expression arena's growth this query against its cap.
    #[inline]
    pub fn check_arena(&mut self, arena_nodes: usize) -> Result<(), Exhaustion> {
        self.peak_arena = self.peak_arena.max(arena_nodes);
        let grown = arena_nodes.saturating_sub(self.arena_baseline);
        if grown >= self.arena_limit {
            return Err(Exhaustion {
                resource: Resource::ArenaNodes,
                spent: self.arena_limit as u64,
                limit: self.arena_limit as u64,
            });
        }
        Ok(())
    }

    /// Steps charged so far.
    pub fn steps_spent(&self) -> u64 {
        self.steps
    }

    /// Deepest recursion reached.
    pub fn peak_depth(&self) -> u32 {
        self.peak_depth
    }

    /// Largest arena size observed by [`BudgetMeter::check_arena`].
    pub fn peak_arena(&self) -> usize {
        self.peak_arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut m = Budget::UNLIMITED.meter();
        for _ in 0..100_000 {
            m.step().unwrap();
        }
        m.enter_depth().unwrap();
        m.check_arena(usize::MAX - 1).unwrap();
        assert_eq!(m.steps_spent(), 100_000);
    }

    #[test]
    fn steps_trip_at_limit() {
        let mut m = Budget::steps(10).meter();
        for _ in 0..9 {
            m.step().unwrap();
        }
        let e = m.step().unwrap_err();
        assert_eq!(e.resource, Resource::Steps);
        assert_eq!(e.spent, 10);
        assert_eq!(e.limit, 10);
        assert!(e.spent <= e.limit);
    }

    #[test]
    fn depth_trips_and_recovers() {
        let mut m = Budget::UNLIMITED.with_max_depth(2).meter();
        m.enter_depth().unwrap();
        m.enter_depth().unwrap();
        let e = m.enter_depth().unwrap_err();
        assert_eq!(e.resource, Resource::Depth);
        assert_eq!(e.limit, 2);
        m.exit_depth();
        m.enter_depth().unwrap();
        assert_eq!(m.peak_depth(), 2);
    }

    #[test]
    fn arena_trips() {
        let mut m = Budget::UNLIMITED.with_max_arena_nodes(100).meter();
        m.check_arena(99).unwrap();
        let e = m.check_arena(100).unwrap_err();
        assert_eq!(e.resource, Resource::ArenaNodes);
        assert_eq!(m.peak_arena(), 100);
    }

    #[test]
    fn arena_limit_is_growth_from_baseline() {
        // A pool pre-grown to 500 nodes must not count against a later
        // query's growth cap of 100.
        let mut m = Budget::UNLIMITED.with_max_arena_nodes(100).meter();
        m.set_arena_baseline(500);
        m.check_arena(599).unwrap();
        let e = m.check_arena(600).unwrap_err();
        assert_eq!(e.resource, Resource::ArenaNodes);
        assert_eq!(m.peak_arena(), 600);
    }

    #[test]
    fn zero_deadline_trips_on_poll() {
        let mut m = Budget::UNLIMITED.with_deadline(Duration::ZERO).meter();
        // First poll captures the start instant; elapsed >= 0 trips at once.
        let e = m.poll_deadline().unwrap_err();
        assert_eq!(e.resource, Resource::WallClock);
    }

    #[test]
    fn started_clock_without_a_deadline_never_trips() {
        // A parallel worker's meter always starts at the run's instant;
        // without a deadline that instant is never compared with anything.
        let mut m = Budget::steps(2 * DEADLINE_POLL_INTERVAL).meter();
        m.start_clock_at(Instant::now() - Duration::from_secs(3600));
        m.poll_deadline().unwrap();
        for _ in 1..2 * DEADLINE_POLL_INTERVAL {
            m.step().unwrap();
        }
        assert_eq!(m.step().unwrap_err().resource, Resource::Steps);
    }

    #[test]
    fn deadline_polled_through_steps() {
        let mut m = Budget::UNLIMITED.with_deadline(Duration::ZERO).meter();
        let mut tripped = None;
        for i in 0..2 * DEADLINE_POLL_INTERVAL {
            if let Err(e) = m.step() {
                tripped = Some((i, e));
                break;
            }
        }
        let (at, e) = tripped.expect("deadline should trip within one poll interval");
        assert_eq!(e.resource, Resource::WallClock);
        assert!(at < DEADLINE_POLL_INTERVAL);
    }

    #[test]
    fn meter_started_in_the_past_trips_at_first_poll() {
        // A parallel worker's meter measures the deadline from the run's
        // start: once that lies a deadline back, the first poll trips, and
        // the record is the one a per-query deadline gives.
        let deadline = Duration::from_millis(5);
        let mut m = Budget::UNLIMITED.with_deadline(deadline).meter();
        m.start_clock_at(Instant::now() - 2 * deadline);
        let e = m.poll_deadline().unwrap_err();
        assert_eq!(
            e,
            Exhaustion {
                resource: Resource::WallClock,
                spent: 5,
                limit: 5,
            }
        );
        // Through steps, it trips at the first amortised poll.
        let mut m = Budget::UNLIMITED.with_deadline(deadline).meter();
        m.start_clock_at(Instant::now() - 2 * deadline);
        let tripped = (1..=DEADLINE_POLL_INTERVAL).find(|_| m.step().is_err());
        assert_eq!(tripped, Some(DEADLINE_POLL_INTERVAL));
        // A clock started now does not trip a generous deadline.
        let mut m = Budget::UNLIMITED
            .with_deadline(Duration::from_secs(3600))
            .meter();
        m.start_clock_at(Instant::now());
        m.poll_deadline().unwrap();
    }

    #[test]
    fn display_formats() {
        let e = Exhaustion {
            resource: Resource::Steps,
            spent: 10,
            limit: 10,
        };
        assert_eq!(e.to_string(), "steps budget exhausted (10/10)");
        assert_eq!(Resource::WallClock.to_string(), "wall-clock-ms");
    }

    #[test]
    fn builders_compose() {
        let b = Budget::steps(5)
            .with_max_depth(3)
            .with_max_arena_nodes(1000)
            .with_deadline(Duration::from_millis(50));
        assert_eq!(b.max_steps, Some(5));
        assert_eq!(b.max_depth, Some(3));
        assert_eq!(b.max_arena_nodes, Some(1000));
        assert!(!b.is_unlimited());
        assert!(Budget::default().is_unlimited());
    }
}
