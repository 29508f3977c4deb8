//! Lazy shape DFA: the triple-class table + dense transition tables.
//!
//! The derivative engine's hot loop is `state --triple-class--> state`.
//! Two structural facts make it a finite automaton worth materialising:
//!
//! * **Alphabet classes.** `∂t(e)` depends only on which of the shape's
//!   arc constraints `t` satisfies *and the expression can observe* — the
//!   Owens–Reppy–Turon derivative-class idea. Each shape carries a
//!   compile-time [`class_mask`](crate::compile::CompiledShape::class_mask)
//!   (the arc bits reachable from its compiled expression); satisfaction
//!   profiles are masked with it before interning, so all triples the
//!   shape's derivatives treat identically collapse into one small dense
//!   class id. This table is the engine's only one: each profiled triple
//!   is mapped to one of these ids, and `∂` reads a class's arc bits
//!   back from it.
//! * **Dense states.** Derivative results are hash-consed [`ExprId`]s;
//!   only a small set is ever reached from a shape's initial expression.
//!   Renumbering them densely per shape turns the derivative memo into a
//!   flat transition table `Vec<u32>` indexed by `state * stride + class`
//!   — one bounds-checked load instead of a hash per memoised derivative.
//!
//! The table is **lazy**: cells start at a sentinel and are filled the
//! first time the engine actually computes that `(state, class)`
//! derivative: a fill is exactly one memo miss, a hit one derivative the
//! engine did not recompute. The `no_deriv_memo` ablation interns classes
//! but never consults or fills the table.
//!
//! Sharing across [`check_many`](crate::Engine::check_many) shards
//! mirrors the memo merge: workers fork a read-mostly snapshot of the
//! coordinator's classes and tables and log their fills, and when the
//! run ends the coordinator adopts the prefix-valid transitions (class
//! ids are translated through their masked bitsets, which are
//! engine-independent), so later runs start with them filled.
//!
//! Budget accounting: every filled transition counts as one arena unit
//! (see [`Engine`](crate::Engine)'s `arena_units`), so table growth is
//! governed by `max_arena_nodes` together with expression-pool growth.

use rustc_hash::FxHashMap;

use crate::arena::ExprId;

/// Sentinel for a not-yet-computed transition cell.
const UNFILLED: u32 = u32::MAX;

/// One logged table fill, in engine-independent terms: the source and
/// target are hash-consed [`ExprId`]s (comparable across engines within
/// the shared fork-time pool prefix) and `class` is the *local* class id,
/// translated through [`ShapeDfa::class_bits`] when crossing engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Source expression state.
    pub src: ExprId,
    /// Local alphabet-class id (valid only in the logging engine).
    pub class: u32,
    /// Target expression state (`∂class(src)`).
    pub dst: ExprId,
}

/// The lazily built DFA for one shape: interned alphabet classes, densely
/// renumbered expression states, and the flat transition table.
#[derive(Debug, Clone, Default)]
pub struct ShapeDfa {
    /// Masked profile bits → local class id.
    classes: FxHashMap<Box<[u64]>, u32>,
    /// Local class id → masked profile bits (the engine-independent name
    /// of the class, used to translate ids across workers).
    class_bits: Vec<Box<[u64]>>,
    /// Expression → dense state id, indexed directly by `ExprId` (pool
    /// ids are themselves dense, so a sentinel-filled vector beats any
    /// hash table on both the probe and the fill path); [`UNFILLED`]
    /// marks expressions never interned as states.
    state_of: Vec<u32>,
    /// State id → expression.
    expr_of: Vec<ExprId>,
    /// Row width of `table` — the power-of-two class capacity. The table
    /// is rebuilt with a doubled stride when classes outgrow it.
    stride: usize,
    /// `state * stride + class → target state`, [`UNFILLED`] when the
    /// derivative has not been computed yet.
    table: Vec<u32>,
    /// Number of filled cells (the table's arena-unit charge).
    filled: usize,
    /// Fill log drained when a parallel run ends; only populated on
    /// parallel workers (see [`ShapeDfa::fork`]).
    log: Vec<Transition>,
    log_enabled: bool,
}

impl ShapeDfa {
    /// Initial class capacity (row width) of a fresh table.
    const INITIAL_STRIDE: usize = 4;

    /// An empty DFA.
    pub fn new() -> ShapeDfa {
        ShapeDfa::default()
    }

    /// A worker's copy for parallel typing: same snapshot, fill logging
    /// switched on, log empty.
    pub fn fork(&self) -> ShapeDfa {
        let mut d = self.clone();
        d.log.clear();
        d.log_enabled = true;
        d
    }

    /// Number of interned alphabet classes.
    pub fn classes(&self) -> usize {
        self.class_bits.len()
    }

    /// Number of interned states.
    pub fn states(&self) -> usize {
        self.expr_of.len()
    }

    /// Number of filled transition cells.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// The masked profile bits naming a class — the translation key when
    /// moving transitions between engines.
    pub fn class_bits(&self, class: u32) -> &[u64] {
        &self.class_bits[class as usize]
    }

    /// Whether arc `bit` is set in a class's masked profile: whether the
    /// class's triples satisfy that arc constraint.
    #[inline]
    pub(crate) fn class_bit(&self, class: u32, bit: u32) -> bool {
        self.class_bits[class as usize][(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
    }

    /// Interns a masked profile bitset as an alphabet class. Returns the
    /// class id and whether it was freshly interned.
    pub fn intern_class(&mut self, bits: &[u64]) -> (u32, bool) {
        if let Some(&c) = self.classes.get(bits) {
            return (c, false);
        }
        let c = self.class_bits.len() as u32;
        let boxed: Box<[u64]> = bits.into();
        self.classes.insert(boxed.clone(), c);
        self.class_bits.push(boxed);
        if self.class_bits.len() > self.stride {
            self.grow_stride();
        }
        (c, true)
    }

    /// Interns an expression as a dense state. Returns the state id and
    /// whether it was freshly interned.
    pub fn intern_state(&mut self, e: ExprId) -> (u32, bool) {
        if e.index() >= self.state_of.len() {
            self.state_of.resize(e.index() + 1, UNFILLED);
        }
        let known = self.state_of[e.index()];
        if known != UNFILLED {
            return (known, false);
        }
        let s = self.expr_of.len() as u32;
        self.state_of[e.index()] = s;
        self.expr_of.push(e);
        if self.stride == 0 {
            self.stride = Self::INITIAL_STRIDE.max(self.class_bits.len().next_power_of_two());
        }
        self.table.resize(self.table.len() + self.stride, UNFILLED);
        (s, true)
    }

    /// The memoised target of `(state, class)`, if that derivative has
    /// been computed.
    #[inline]
    pub fn target(&self, state: u32, class: u32) -> Option<ExprId> {
        let t = self.table[state as usize * self.stride + class as usize];
        (t != UNFILLED).then(|| self.expr_of[t as usize])
    }

    /// Fills `(src, class) → dst`, logging it when this is a worker copy.
    /// Returns `true` if the cell was previously unfilled.
    pub fn record(&mut self, src: u32, class: u32, dst: u32) -> bool {
        let idx = src as usize * self.stride + class as usize;
        if self.table[idx] != UNFILLED {
            debug_assert_eq!(
                self.table[idx], dst,
                "conflicting derivative for the same (state, class)"
            );
            return false;
        }
        self.table[idx] = dst;
        self.filled += 1;
        if self.log_enabled {
            self.log.push(Transition {
                src: self.expr_of[src as usize],
                class,
                dst: self.expr_of[dst as usize],
            });
        }
        true
    }

    /// Drains the fill log (end-of-run merge).
    pub fn take_log(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.log)
    }

    /// Doubles the row width, re-laying out every existing row.
    fn grow_stride(&mut self) {
        let old = self.stride.max(1);
        let new = (old * 2).max(Self::INITIAL_STRIDE);
        let mut table = vec![UNFILLED; self.expr_of.len() * new];
        for s in 0..self.expr_of.len() {
            table[s * new..s * new + old].copy_from_slice(&self.table[s * old..(s + 1) * old]);
        }
        self.stride = new;
        self.table = table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{ExprPool, Simplify, EMPTY, EPSILON};

    fn expr_states() -> Vec<ExprId> {
        let mut pool = ExprPool::new(Simplify::none());
        let mut ids = vec![EMPTY, EPSILON];
        let mut prev = EPSILON;
        for _ in 0..6 {
            prev = pool.star(prev);
            ids.push(prev);
        }
        ids
    }

    #[test]
    fn classes_and_states_intern_densely() {
        let ids = expr_states();
        let mut dfa = ShapeDfa::new();
        assert_eq!(dfa.intern_class(&[0b01]), (0, true));
        assert_eq!(dfa.intern_class(&[0b10]), (1, true));
        assert_eq!(dfa.intern_class(&[0b01]), (0, false));
        assert_eq!(dfa.classes(), 2);
        let (s0, fresh) = dfa.intern_state(ids[2]);
        assert!(fresh);
        let (s0b, fresh) = dfa.intern_state(ids[2]);
        assert!(!fresh);
        assert_eq!(s0, s0b);
        // The state names its expression: a self-loop's target is it.
        assert!(dfa.record(s0, 0, s0));
        assert_eq!(dfa.target(s0, 0), Some(ids[2]));
        assert!(dfa.class_bit(0, 0) && !dfa.class_bit(0, 1));
        assert!(dfa.class_bit(1, 1) && !dfa.class_bit(1, 0));
    }

    #[test]
    fn fills_are_lazy_and_idempotent() {
        let ids = expr_states();
        let mut dfa = ShapeDfa::new();
        let (c, _) = dfa.intern_class(&[1]);
        let (a, _) = dfa.intern_state(ids[2]);
        let (b, _) = dfa.intern_state(ids[3]);
        assert_eq!(dfa.target(a, c), None);
        assert!(dfa.record(a, c, b));
        assert_eq!(dfa.target(a, c), Some(ids[3]));
        assert!(!dfa.record(a, c, b), "second fill of the same cell");
        assert_eq!(dfa.filled(), 1);
    }

    #[test]
    fn stride_growth_preserves_filled_cells() {
        let ids = expr_states();
        let mut dfa = ShapeDfa::new();
        let (a, _) = dfa.intern_state(ids[2]);
        let (b, _) = dfa.intern_state(ids[3]);
        // Fill a cell per class while forcing several stride doublings.
        for i in 0..40u64 {
            let (c, fresh) = dfa.intern_class(&[1 << (i % 60), i]);
            assert!(fresh);
            dfa.record(a, c, b);
        }
        for i in 0..40u64 {
            let (c, fresh) = dfa.intern_class(&[1 << (i % 60), i]);
            assert!(!fresh);
            assert_eq!(dfa.target(a, c), Some(ids[3]), "class {i} lost by growth");
        }
        assert_eq!(dfa.filled(), 40);
        assert_eq!(dfa.target(b, 0), None);
    }

    #[test]
    fn fork_logs_fills_and_coordinator_stays_silent() {
        let ids = expr_states();
        let mut coord = ShapeDfa::new();
        let (c, _) = coord.intern_class(&[1]);
        let (a, _) = coord.intern_state(ids[2]);
        let (b, _) = coord.intern_state(ids[3]);
        coord.record(a, c, b);
        assert!(
            coord.take_log().is_empty(),
            "coordinator fills are not logged"
        );

        let mut worker = coord.fork();
        // Snapshot carries the transition over.
        assert_eq!(worker.target(a, c), Some(ids[3]));
        let (d, _) = worker.intern_state(ids[4]);
        worker.record(b, c, d);
        let log = worker.take_log();
        assert_eq!(
            log,
            vec![Transition {
                src: ids[3],
                class: c,
                dst: ids[4]
            }],
            "exactly the worker's own fill is logged"
        );
        assert!(worker.take_log().is_empty(), "log drains");
    }

    #[test]
    fn fork_keeps_class_ids_and_new_classes_stay_local() {
        let mut coord = ShapeDfa::new();
        let (c0, _) = coord.intern_class(&[0b01]);
        let (c1, _) = coord.intern_class(&[0b10]);

        let mut worker = coord.fork();
        // The forked table names the coordinator's classes by the same ids.
        assert_eq!(worker.intern_class(&[0b01]), (c0, false));
        assert_eq!(worker.intern_class(&[0b10]), (c1, false));
        // A class first met on the worker takes the next id there only;
        // its bits are what the merge translates it by.
        let (c2, fresh) = worker.intern_class(&[0b11]);
        assert!(fresh);
        assert_eq!(c2, 2);
        assert_eq!(worker.class_bits(c2), &[0b11]);
        assert_eq!(worker.classes(), 3);
        assert_eq!(coord.classes(), 2, "the coordinator's table is untouched");
    }
}
