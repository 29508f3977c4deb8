//! The in-memory graph store.
//!
//! A graph `Σ` is a *set* of triples `⟨s, p, o⟩` (paper §2). The store keeps
//! the set as two adjacency indexes and nothing else: the operation the
//! validator lives on is [`Graph::neighbourhood`], the paper's `Σg_n` — all
//! triples with subject `n` — served as a slice borrow, and an object-side
//! index supports the paper's §10 "inverse arcs" extension. Membership
//! scans the shorter of a triple's two arc lists, and a bulk load
//! deduplicates while it builds the indexes.
//!
//! ## Memory layout
//!
//! Adjacency is a struct-of-arrays design built for million-triple graphs:
//! [`TermId`]s are dense, so per-node arc lists are addressed by a plain
//! `Vec` of 8-byte spans indexed by the id — no hashing on the
//! `neighbourhood` hot path. A span is either *frozen* (a `(start, len)`
//! window into one shared contiguous arc arena, CSR-style) or *thawed* (an
//! index into a side table of owned lists, for nodes mutated by deltas or
//! inserted one at a time). Bulk loads build the graph once with
//! [`Graph::from_triples`]: it counts each node's arcs, fills both arenas
//! in one pass and drops repeated arcs window by window, so no per-node
//! list is ever allocated and a full-typing run scans contiguous memory. A
//! graph built by [`Graph::insert`] is packed the same way by
//! [`Graph::compact`]; a later [`Graph::apply_delta`] thaws only the nodes
//! it actually touches. Neither representation is observable through the
//! API: `neighbourhood` and `incoming` return the same slices, in the same
//! insertion order, frozen or thawed.

use rustc_hash::{FxHashMap, FxHashSet};

use crate::delta::{AppliedDelta, DeltaApplyError, GraphDelta};
use crate::pool::{TermId, TermPool};
use crate::term::{Term, TermRef};

/// A triple of interned term ids: subject, predicate, object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject term id.
    pub subject: TermId,
    /// Predicate term id.
    pub predicate: TermId,
    /// Object term id.
    pub object: TermId,
}

impl Triple {
    /// Builds a triple from interned ids.
    pub fn new(subject: TermId, predicate: TermId, object: TermId) -> Self {
        Triple {
            subject,
            predicate,
            object,
        }
    }
}

/// An outgoing arc `(predicate, object)` in some node's neighbourhood.
pub type Arc = (TermId, TermId);

/// One node's adjacency entry: the window `arena[start .. start + len]`,
/// or, when `start` is [`Span::SIDE`], a node outside the arena — a thawed
/// node whose owned list is `side[len - 1]`, or a never-used node when
/// `len` is 0.
///
/// Unused vs an *emptied* list is a real distinction: a subject whose
/// every triple was removed keeps its (empty) entry, and with it its
/// position in the subject iteration order — see [`Graph::remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The `start` of a span that is not a window into the arena. No
    /// window starts there: arenas hold fewer than `u32::MAX` arcs.
    const SIDE: u32 = u32::MAX;
    /// No entry was ever created for this node.
    const UNUSED: Span = Span {
        start: Span::SIDE,
        len: 0,
    };
}

impl Default for Span {
    fn default() -> Span {
        Span::UNUSED
    }
}

/// Short arc lists are deduplicated by scanning the arcs already kept;
/// longer ones by sorting.
const SHORT_LIST: usize = 32;

/// One direction's adjacency: per-node spans over a shared arc arena,
/// indexed directly by the dense [`TermId`], plus the owned lists of
/// thawed nodes.
#[derive(Debug, Default)]
struct Adjacency {
    arena: Vec<Arc>,
    spans: Vec<Span>,
    side: Vec<Vec<Arc>>,
}

impl Adjacency {
    fn entries(&self, n: TermId) -> &[Arc] {
        let Some(&Span { start, len }) = self.spans.get(n.index()) else {
            return &[];
        };
        if start != Span::SIDE {
            &self.arena[start as usize..start as usize + len as usize]
        } else if len == 0 {
            &[]
        } else {
            &self.side[len as usize - 1]
        }
    }

    /// Has this node ever had an entry (even one since emptied)?
    fn is_used(&self, n: TermId) -> bool {
        self.spans
            .get(n.index())
            .is_some_and(|&s| s != Span::UNUSED)
    }

    /// The node's mutable list, thawing a frozen span (one copy of its
    /// arena window; the window becomes dead arena space until the next
    /// [`Adjacency::compact`]).
    fn list_mut(&mut self, n: TermId) -> &mut Vec<Arc> {
        if self.spans.len() <= n.index() {
            self.spans.resize(n.index() + 1, Span::UNUSED);
        }
        let Span { start, len } = self.spans[n.index()];
        if start == Span::SIDE && len > 0 {
            return &mut self.side[len as usize - 1];
        }
        let list = if start == Span::SIDE {
            Vec::new()
        } else {
            self.arena[start as usize..start as usize + len as usize].to_vec()
        };
        self.side.push(list);
        self.spans[n.index()] = Span {
            start: Span::SIDE,
            len: u32::try_from(self.side.len()).expect("thawed node overflow"),
        };
        self.side.last_mut().expect("just pushed")
    }

    /// Appends an arc; returns `true` when this created the node's entry.
    fn push(&mut self, n: TermId, arc: Arc) -> bool {
        let fresh = !self.is_used(n);
        self.list_mut(n).push(arc);
        fresh
    }

    /// Removes the entries at `positions` (ascending indices into the
    /// node's current list) in one compaction sweep — O(d), not
    /// O(d · |positions|).
    fn remove_positions(&mut self, n: TermId, positions: &[u32]) {
        let v = self.list_mut(n);
        let mut keep = 0usize;
        let mut pi = 0usize;
        for i in 0..v.len() {
            if pi < positions.len() && positions[pi] as usize == i {
                pi += 1;
                continue;
            }
            v[keep] = v[i];
            keep += 1;
        }
        v.truncate(keep);
    }

    /// Re-inserts arcs at their recorded positions (ascending, positions
    /// relative to the *restored* list) in one merge sweep.
    fn restore_positions(&mut self, n: TermId, inserts: &[(u32, Arc)]) {
        let v = self.list_mut(n);
        let final_len = v.len() + inserts.len();
        let mut merged = Vec::with_capacity(final_len);
        let mut vi = 0usize;
        let mut ii = 0usize;
        for pos in 0..final_len {
            if ii < inserts.len() && (inserts[ii].0 as usize <= pos || vi >= v.len()) {
                merged.push(inserts[ii].1);
                ii += 1;
            } else {
                merged.push(v[vi]);
                vi += 1;
            }
        }
        *v = merged;
    }

    /// Folds every span into one freshly packed contiguous arena (node-id
    /// order), turning all thawed lists and stale frozen windows into dense
    /// CSR storage. An adjacency that is packed already is left as it is.
    fn compact(&mut self) {
        let total: usize = self.spans.iter().map(|&s| self.len_of(s)).sum();
        if self.side.is_empty() && total == self.arena.len() {
            return;
        }
        assert!(total < Span::SIDE as usize, "adjacency arena overflow");
        let old = std::mem::take(&mut self.arena);
        let side = std::mem::take(&mut self.side);
        let mut arena = Vec::with_capacity(total);
        for span in &mut self.spans {
            let Span { start, len } = *span;
            if *span == Span::UNUSED {
                continue;
            }
            let kept = arena.len() as u32;
            if start == Span::SIDE {
                arena.extend_from_slice(&side[len as usize - 1]);
            } else {
                arena.extend_from_slice(&old[start as usize..start as usize + len as usize]);
            }
            *span = Span {
                start: kept,
                len: arena.len() as u32 - kept,
            };
        }
        self.arena = arena;
    }

    /// The number of arcs behind `span`.
    fn len_of(&self, span: Span) -> usize {
        match span {
            Span::UNUSED => 0,
            Span {
                start: Span::SIDE,
                len,
            } => self.side[len as usize - 1].len(),
            Span { len, .. } => len as usize,
        }
    }

    /// Builds the packed form [`Adjacency::compact`] gives, straight from
    /// `(node, arc)` pairs in insertion order, keeping the first copy of
    /// each repeated `(node, arc)`: `arcs` is called twice, once to count
    /// each node's arcs and once to place them, and then each node's
    /// window drops its later copies. Every node must be below `nodes`.
    fn from_arcs<I>(nodes: usize, arcs: impl Fn() -> I) -> Adjacency
    where
        I: DoubleEndedIterator<Item = (TermId, Arc)>,
    {
        let Some((_, filler)) = arcs().next() else {
            return Adjacency::default();
        };
        // `ends[n]` counts n's arcs, then becomes the arena offset just
        // past them.
        let mut ends = vec![0u32; nodes];
        for (n, _) in arcs() {
            ends[n.index()] += 1;
        }
        let mut total = 0u32;
        for end in &mut ends {
            total = total.checked_add(*end).expect("adjacency arena overflow");
            *end = total;
        }
        assert!(total < Span::SIDE, "adjacency arena overflow");
        // Every slot is overwritten below; `filler` only gives it a value.
        let mut arena = vec![filler; total as usize];
        // Placing arcs back to front keeps each node's insertion order and
        // leaves `ends[n]` at the node's first arc.
        for (n, arc) in arcs().rev() {
            let slot = &mut ends[n.index()];
            *slot -= 1;
            arena[*slot as usize] = arc;
        }
        // Each window moves down over the space its predecessors freed,
        // keeping first copies only.
        let mut kept = 0usize;
        let mut sorted: Vec<(Arc, u32)> = Vec::new();
        let mut later: Vec<bool> = Vec::new();
        let spans = (0..nodes)
            .map(|n| {
                let window = ends[n] as usize..ends.get(n + 1).map_or(total, |&e| e) as usize;
                if window.is_empty() {
                    return Span::UNUSED;
                }
                let first = kept;
                if window.len() <= SHORT_LIST {
                    for i in window {
                        let arc = arena[i];
                        if !arena[first..kept].contains(&arc) {
                            arena[kept] = arc;
                            kept += 1;
                        }
                    }
                } else {
                    sorted.clear();
                    sorted.extend(arena[window.clone()].iter().copied().zip(0u32..));
                    sorted.sort_unstable();
                    later.clear();
                    later.resize(window.len(), false);
                    for pair in sorted.windows(2) {
                        if pair[0].0 == pair[1].0 {
                            later[pair[1].1 as usize] = true;
                        }
                    }
                    for (i, &drop) in window.zip(&later) {
                        if !drop {
                            arena[kept] = arena[i];
                            kept += 1;
                        }
                    }
                }
                Span {
                    start: first as u32,
                    len: (kept - first) as u32,
                }
            })
            .collect();
        if kept < arena.len() {
            arena.truncate(kept);
            arena.shrink_to_fit();
        }
        Adjacency {
            arena,
            spans,
            side: Vec::new(),
        }
    }
}

/// An in-memory RDF graph over a shared [`TermPool`].
#[derive(Debug, Default)]
pub struct Graph {
    /// Number of triples.
    len: usize,
    /// subject → insertion-ordered (predicate, object) arcs
    outgoing: Adjacency,
    /// object → insertion-ordered (subject, predicate) arcs; inverse arcs
    incoming: Adjacency,
    /// insertion-ordered subjects, for deterministic iteration
    subject_order: Vec<TermId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Builds a graph from `triples` in insertion order, keeping the first
    /// occurrence of each. The result is the graph that inserting each
    /// triple with [`Graph::insert`] and then calling [`Graph::compact`]
    /// gives: the same adjacency order and the same subject order. It is
    /// built packed, with no per-node list and no triple set: each
    /// direction drops the later copies of a repeated triple from its
    /// node's window.
    ///
    /// # Panics
    ///
    /// If a triple holds an id of `nodes` or more; pass the length of the
    /// pool the ids come from.
    pub fn from_triples(triples: Vec<Triple>, nodes: usize) -> Graph {
        let mut seen = vec![false; nodes];
        let mut subject_order: Vec<TermId> = triples
            .iter()
            .filter(|t| !std::mem::replace(&mut seen[t.subject.index()], true))
            .map(|t| t.subject)
            .collect();
        subject_order.shrink_to_fit();
        drop(seen);
        let outgoing = Adjacency::from_arcs(nodes, || {
            triples.iter().map(|t| (t.subject, (t.predicate, t.object)))
        });
        let incoming = Adjacency::from_arcs(nodes, || {
            triples.iter().map(|t| (t.object, (t.subject, t.predicate)))
        });
        Graph {
            len: outgoing.arena.len(),
            outgoing,
            incoming,
            subject_order,
        }
    }

    /// Adds `triples` in order, skipping each one already present (in the
    /// graph or earlier in the list): the graph one [`Graph::insert`] per
    /// triple gives. A graph that has never held a triple is built packed
    /// with [`Graph::from_triples`], which takes `nodes`; any other graph
    /// indexes each touched subject's arcs once, so a batch costs the
    /// touched neighbourhoods plus the batch, however many triples share
    /// one subject and one object.
    pub(crate) fn insert_all(&mut self, triples: Vec<Triple>, nodes: usize) {
        if self.subject_order.is_empty() {
            *self = Graph::from_triples(triples, nodes);
        } else {
            self.add_batch(&triples);
        }
    }

    /// The batched path behind [`Graph::insert_all`]: returns the triples
    /// that took effect, in order.
    fn add_batch(&mut self, triples: &[Triple]) -> Vec<Triple> {
        let mut touched: FxHashSet<TermId> = FxHashSet::default();
        let mut present: FxHashSet<Triple> = FxHashSet::default();
        let mut added = Vec::new();
        for &t in triples {
            if touched.insert(t.subject) {
                let s = t.subject;
                present.extend(
                    self.neighbourhood(s)
                        .iter()
                        .map(|&(p, o)| Triple::new(s, p, o)),
                );
            }
            if present.insert(t) {
                added.push(t);
            }
        }
        for &t in &added {
            self.push(t);
        }
        added
    }

    /// Appends a triple known to be absent.
    fn push(&mut self, triple: Triple) {
        if self
            .outgoing
            .push(triple.subject, (triple.predicate, triple.object))
        {
            self.subject_order.push(triple.subject);
        }
        self.incoming
            .push(triple.object, (triple.subject, triple.predicate));
        self.len += 1;
    }

    /// Inserts a triple. Returns `true` if it was not already present
    /// (graphs are sets; duplicate inserts are no-ops). Costs a scan of
    /// the shorter of the subject's and the object's arc lists. The
    /// parsers and [`Graph::apply_delta`] add in one batch instead, which
    /// indexes each touched subject once.
    pub fn insert(&mut self, triple: Triple) -> bool {
        if self.contains(&triple) {
            return false;
        }
        self.push(triple);
        true
    }

    /// Removes a triple. Returns `true` if it was present. Subject order
    /// is preserved; a subject whose last triple is removed keeps its
    /// position internally (it disappears from [`Graph::subjects`] while
    /// its neighbourhood is empty, and reappears at the same position if a
    /// triple is re-inserted for it).
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let out_arc = (triple.predicate, triple.object);
        let Some(i) = self
            .neighbourhood(triple.subject)
            .iter()
            .position(|&a| a == out_arc)
        else {
            return false;
        };
        self.outgoing.list_mut(triple.subject).remove(i);
        let in_arc = (triple.subject, triple.predicate);
        let j = self
            .incoming(triple.object)
            .iter()
            .position(|&a| a == in_arc)
            .expect("an arc is indexed in both directions");
        self.incoming.list_mut(triple.object).remove(j);
        self.len -= 1;
        true
    }

    /// Packs all adjacency lists into contiguous arena storage — call once
    /// after a bulk load of single inserts. Purely a memory-layout
    /// operation: every observable order and slice is unchanged, and later
    /// mutations transparently thaw the nodes they touch.
    pub fn compact(&mut self) {
        self.outgoing.compact();
        self.incoming.compact();
        self.subject_order.shrink_to_fit();
    }

    /// Convenience: interns three terms into `pool` and inserts the triple.
    pub fn insert_terms(
        &mut self,
        pool: &mut TermPool,
        subject: Term,
        predicate: Term,
        object: Term,
    ) -> Triple {
        debug_assert!(subject.is_valid_subject(), "literal in subject position");
        debug_assert!(predicate.is_valid_predicate(), "non-IRI predicate");
        let t = Triple::new(
            pool.intern(subject),
            pool.intern(predicate),
            pool.intern(object),
        );
        self.insert(t);
        t
    }

    /// Membership test: a scan of the shorter of the subject's outgoing
    /// and the object's incoming arcs.
    pub fn contains(&self, triple: &Triple) -> bool {
        let out = self.neighbourhood(triple.subject);
        let inc = self.incoming(triple.object);
        if out.len() <= inc.len() {
            out.contains(&(triple.predicate, triple.object))
        } else {
            inc.contains(&(triple.subject, triple.predicate))
        }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The paper's `Σg_n`: all `(predicate, object)` arcs leaving `n`,
    /// in insertion order. Empty slice when `n` has no outgoing triples.
    pub fn neighbourhood(&self, n: TermId) -> &[Arc] {
        self.outgoing.entries(n)
    }

    /// Incoming arcs `(subject, predicate)` arriving at `n`
    /// (the §10 inverse-arc extension's data source).
    pub fn incoming(&self, n: TermId) -> &[(TermId, TermId)] {
        self.incoming.entries(n)
    }

    /// Distinct subjects with at least one outgoing triple, in insertion
    /// order. Subjects whose every triple has been removed are skipped, so
    /// a mutated graph iterates identically to a freshly built one with
    /// the same triples.
    pub fn subjects(&self) -> impl Iterator<Item = TermId> + '_ {
        self.subject_order
            .iter()
            .copied()
            .filter(|&s| !self.neighbourhood(s).is_empty())
    }

    /// Applies a [`GraphDelta`]: removals first, then additions. Removing
    /// an absent triple or adding a present one is a no-op. Returns an
    /// [`AppliedDelta`] recording the operations that took effect and the
    /// pre-delta adjacency positions of the removals, which
    /// [`Graph::revert_delta`] consumes to restore the graph exactly.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> AppliedDelta {
        self.try_apply_delta(delta)
            .expect("delta application cannot fail without fault injection")
    }

    /// [`Graph::apply_delta`] with an error channel, and **all-or-nothing**
    /// semantics: if an operation fails mid-delta (today that only happens
    /// through the `delta-apply` failpoint, modelling an I/O error in a
    /// persistent backend), every operation already performed is reverted
    /// and the graph is returned to a state *structurally identical* to its
    /// pre-delta one — same adjacency order, same subject iteration order —
    /// before the error is surfaced. A caller observing
    /// [`Err`] may therefore keep serving from the graph as if the delta
    /// had never been attempted.
    ///
    /// Both phases are batched per touched node. Removals are resolved
    /// against a per-node index of the pre-delta list and applied in one
    /// compaction sweep per node, so a k-triple burst on a d-arc node costs
    /// O(d + k log k) rather than the O(k·d) scan-and-splice a per-triple
    /// `Vec::remove` would pay. Additions are resolved against a set of the
    /// touched subjects' triples, built once per subject, and then
    /// appended.
    pub fn try_apply_delta(&mut self, delta: &GraphDelta) -> Result<AppliedDelta, DeltaApplyError> {
        let mut applied = AppliedDelta::default();
        let total = delta.removed.len() + delta.added.len();

        // Removal phase. (p, o) is unique within a subject's list (the
        // graph is a set), so a lazily built pair → position index over the
        // pre-delta list resolves each removal exactly, and taking the arc
        // out of the index skips a repeated removal; nothing moves
        // physically until every removal op is accounted.
        let mut out_index: FxHashMap<TermId, FxHashMap<Arc, u32>> = FxHashMap::default();
        let mut inc_index: FxHashMap<TermId, FxHashMap<Arc, u32>> = FxHashMap::default();
        let mut out_removed: FxHashMap<TermId, Vec<u32>> = FxHashMap::default();
        let mut inc_removed: FxHashMap<TermId, Vec<u32>> = FxHashMap::default();
        let index_of = |arcs: &[Arc]| -> FxHashMap<Arc, u32> {
            arcs.iter()
                .enumerate()
                .map(|(i, &a)| (a, i as u32))
                .collect()
        };
        for (op, &t) in delta.removed.iter().enumerate() {
            if let Some(message) = crate::failpoint::check("delta-apply") {
                // Nothing has physically moved yet: the graph is
                // byte-identical.
                return Err(DeltaApplyError {
                    op_index: op,
                    operations: total,
                    message,
                });
            }
            let Some(oi) = out_index
                .entry(t.subject)
                .or_insert_with(|| index_of(self.outgoing.entries(t.subject)))
                .remove(&(t.predicate, t.object))
            else {
                continue;
            };
            let ii = inc_index
                .entry(t.object)
                .or_insert_with(|| index_of(self.incoming.entries(t.object)))
                .remove(&(t.subject, t.predicate))
                .expect("triple present but incoming arc unindexed");
            out_removed.entry(t.subject).or_default().push(oi);
            inc_removed.entry(t.object).or_default().push(ii);
            applied.removed.push((t, oi as usize, ii as usize));
        }
        for (n, mut positions) in out_removed {
            positions.sort_unstable();
            self.outgoing.remove_positions(n, &positions);
        }
        for (n, mut positions) in inc_removed {
            positions.sort_unstable();
            self.incoming.remove_positions(n, &positions);
        }
        self.len -= applied.removed.len();

        // Addition phase. Every operation's check comes before anything is
        // added, so a failure has only the removals to undo.
        for k in 0..delta.added.len() {
            if let Some(message) = crate::failpoint::check("delta-apply") {
                self.revert_delta(&applied);
                return Err(DeltaApplyError {
                    op_index: delta.removed.len() + k,
                    operations: total,
                    message,
                });
            }
        }
        applied.added = self.add_batch(&delta.added);
        Ok(applied)
    }

    /// Undoes an [`apply_delta`](Graph::apply_delta): removes the triples
    /// it added and re-inserts the triples it removed at their original
    /// adjacency positions. After the call the graph is structurally
    /// identical to its pre-apply state — same neighbourhood order, same
    /// [`Graph::subjects`] order — so downstream results (reports, stats)
    /// are byte-identical, not merely set-equal.
    ///
    /// Like [`Graph::try_apply_delta`], the work is batched per touched
    /// node: one retain sweep to drop the added arcs, one merge sweep to
    /// re-seat the removed ones, keeping large-delta revert (quarantine
    /// rebuilds, bench restores) linear in the touched neighbourhoods.
    pub fn revert_delta(&mut self, applied: &AppliedDelta) {
        // Drop the added triples.
        let mut out_gone: FxHashMap<TermId, FxHashSet<Arc>> = FxHashMap::default();
        let mut inc_gone: FxHashMap<TermId, FxHashSet<Arc>> = FxHashMap::default();
        for t in applied.added.iter().rev() {
            out_gone
                .entry(t.subject)
                .or_default()
                .insert((t.predicate, t.object));
            inc_gone
                .entry(t.object)
                .or_default()
                .insert((t.subject, t.predicate));
        }
        for (n, gone) in out_gone {
            let list = self.outgoing.list_mut(n);
            let before = list.len();
            list.retain(|a| !gone.contains(a));
            self.len -= before - list.len();
        }
        for (n, gone) in inc_gone {
            self.incoming.list_mut(n).retain(|a| !gone.contains(a));
        }

        // Re-seat the removed triples at their pre-delta positions.
        let mut out_back: FxHashMap<TermId, Vec<(u32, Arc)>> = FxHashMap::default();
        let mut inc_back: FxHashMap<TermId, Vec<(u32, Arc)>> = FxHashMap::default();
        for &(t, oi, ii) in &applied.removed {
            out_back
                .entry(t.subject)
                .or_default()
                .push((oi as u32, (t.predicate, t.object)));
            inc_back
                .entry(t.object)
                .or_default()
                .push((ii as u32, (t.subject, t.predicate)));
        }
        for (n, mut inserts) in out_back {
            inserts.sort_unstable_by_key(|&(pos, _)| pos);
            let fresh = !self.outgoing.is_used(n);
            self.outgoing.restore_positions(n, &inserts);
            self.len += inserts.len();
            if fresh {
                self.subject_order.push(n);
            }
        }
        for (n, mut inserts) in inc_back {
            inserts.sort_unstable_by_key(|&(pos, _)| pos);
            self.incoming.restore_positions(n, &inserts);
        }
    }

    /// All triples, subject by subject in [`Graph::subjects`] order, each
    /// subject's in its neighbourhood order.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.subject_order.iter().flat_map(move |&s| {
            self.neighbourhood(s)
                .iter()
                .map(move |&(p, o)| Triple::new(s, p, o))
        })
    }

    /// All triples sorted by (subject, predicate, object) id — deterministic
    /// order for serialization and tests.
    pub fn triples_sorted(&self) -> Vec<Triple> {
        let mut v: Vec<_> = self.triples().collect();
        v.sort_unstable();
        v
    }

    /// Iterates over triples matching a pattern of optional positions —
    /// the classic triple-store lookup API. Uses the subject index when
    /// the subject is bound, the object index when only the object is,
    /// and scans otherwise.
    ///
    /// ```
    /// use shapex_rdf::turtle;
    /// let ds = turtle::parse(
    ///     "@prefix e: <http://e/> . e:a e:p 1 . e:a e:q 2 . e:b e:p 1 ."
    /// ).unwrap();
    /// let a = ds.iri("http://e/a").unwrap();
    /// let p = ds.iri("http://e/p").unwrap();
    /// assert_eq!(ds.graph.match_pattern(Some(a), None, None).count(), 2);
    /// assert_eq!(ds.graph.match_pattern(None, Some(p), None).count(), 2);
    /// assert_eq!(ds.graph.match_pattern(Some(a), Some(p), None).count(), 1);
    /// ```
    pub fn match_pattern(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Box<dyn Iterator<Item = Triple> + '_> {
        let post = move |t: &Triple| {
            predicate.is_none_or(|p| p == t.predicate) && object.is_none_or(|o| o == t.object)
        };
        match (subject, object) {
            (Some(s), _) => Box::new(
                self.neighbourhood(s)
                    .iter()
                    .map(move |&(p, o)| Triple::new(s, p, o))
                    .filter(move |t| post(t)),
            ),
            (None, Some(o)) => Box::new(
                self.incoming(o)
                    .iter()
                    .map(move |&(s, p)| Triple::new(s, p, o))
                    .filter(move |t| post(t)),
            ),
            (None, None) => Box::new(self.triples().filter(move |t| post(t))),
        }
    }

    /// Objects of triples `(s, p, ·)`.
    pub fn objects(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.neighbourhood(s)
            .iter()
            .filter(move |(pred, _)| *pred == p)
            .map(|(_, o)| *o)
    }
}

/// A graph bundled with the pool it interns into. Most user-facing entry
/// points (parsers, workload generators) produce this.
#[derive(Debug, Default)]
pub struct Dataset {
    /// The term interner backing the graph.
    pub pool: TermPool,
    /// The triple store.
    pub graph: Graph,
}

impl Dataset {
    /// Creates an empty dataset with a fresh pool.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Inserts a triple of owned terms.
    pub fn insert(&mut self, subject: Term, predicate: Term, object: Term) -> Triple {
        self.graph
            .insert_terms(&mut self.pool, subject, predicate, object)
    }

    /// Looks up the id of a node term, if it occurs in the pool. Takes a
    /// `&Term` or a [`TermRef`]; neither allocates.
    pub fn node<'t>(&self, term: impl Into<TermRef<'t>>) -> Option<TermId> {
        self.pool.get(term)
    }

    /// Looks up the id of an IRI node, without allocating.
    pub fn iri(&self, iri: &str) -> Option<TermId> {
        self.pool.get(TermRef::Iri(iri))
    }

    /// [`Graph::compact`] on the bundled graph.
    pub fn compact(&mut self) {
        self.graph.compact();
    }

    /// [`Graph::apply_delta`] on the bundled graph.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> AppliedDelta {
        self.graph.apply_delta(delta)
    }

    /// [`Graph::try_apply_delta`] on the bundled graph: all-or-nothing
    /// application with an error channel for injected mid-delta failures.
    pub fn try_apply_delta(&mut self, delta: &GraphDelta) -> Result<AppliedDelta, DeltaApplyError> {
        self.graph.try_apply_delta(delta)
    }

    /// [`Graph::revert_delta`] on the bundled graph.
    pub fn revert_delta(&mut self, applied: &AppliedDelta) {
        self.graph.revert_delta(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    fn abc(pool: &mut TermPool) -> (TermId, TermId, TermId) {
        (
            pool.intern_iri("http://e/a"),
            pool.intern_iri("http://e/b"),
            pool.intern_iri("http://e/c"),
        )
    }

    #[test]
    fn insert_dedups() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let mut g = Graph::new();
        assert!(g.insert(Triple::new(a, b, c)));
        assert!(!g.insert(Triple::new(a, b, c)));
        assert_eq!(g.len(), 1);
        assert_eq!(g.neighbourhood(a).len(), 1);
    }

    #[test]
    fn neighbourhood_collects_all_subject_arcs() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let d = pool.intern_iri("http://e/d");
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(a, b, d));
        g.insert(Triple::new(a, d, c));
        g.insert(Triple::new(d, b, c)); // different subject
        assert_eq!(g.neighbourhood(a).len(), 3);
        assert_eq!(g.neighbourhood(d).len(), 1);
        assert_eq!(g.neighbourhood(c).len(), 0);
    }

    #[test]
    fn incoming_index_tracks_objects() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(c, b, a));
        assert_eq!(g.incoming(c), &[(a, b)]);
        assert_eq!(g.incoming(a), &[(c, b)]);
        assert_eq!(g.incoming(b), &[]);
    }

    #[test]
    fn subjects_in_insertion_order() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let mut g = Graph::new();
        g.insert(Triple::new(c, b, a));
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(c, a, b));
        let subs: Vec<_> = g.subjects().collect();
        assert_eq!(subs, vec![c, a]);
    }

    #[test]
    fn objects_filters_by_predicate() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let d = pool.intern_iri("http://e/d");
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(a, b, d));
        g.insert(Triple::new(a, d, d));
        let objs: Vec<_> = g.objects(a, b).collect();
        assert_eq!(objs, vec![c, d]);
    }

    #[test]
    fn dataset_insert_and_lookup() {
        let mut ds = Dataset::new();
        ds.insert(
            Term::iri("http://e/john"),
            Term::iri(crate::vocab::foaf::AGE),
            Term::Literal(Literal::integer(23)),
        );
        let john = ds.iri("http://e/john").unwrap();
        assert_eq!(ds.graph.neighbourhood(john).len(), 1);
        assert!(ds.iri("http://e/nobody").is_none());
    }

    #[test]
    fn match_pattern_uses_all_index_paths() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let d = pool.intern_iri("http://e/d");
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(a, d, c));
        g.insert(Triple::new(d, b, c));
        g.insert(Triple::new(d, b, a));
        // subject-bound
        assert_eq!(g.match_pattern(Some(a), None, None).count(), 2);
        // object-bound
        assert_eq!(g.match_pattern(None, None, Some(c)).count(), 3);
        // predicate-only scan
        assert_eq!(g.match_pattern(None, Some(b), None).count(), 3);
        // fully bound
        assert_eq!(g.match_pattern(Some(d), Some(b), Some(a)).count(), 1);
        assert_eq!(g.match_pattern(Some(c), None, None).count(), 0);
        // unconstrained = all triples
        assert_eq!(g.match_pattern(None, None, None).count(), 4);
    }

    #[test]
    fn remove_updates_indexes() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(a, b, a));
        assert!(g.remove(&Triple::new(a, b, c)));
        assert!(!g.remove(&Triple::new(a, b, c))); // already gone
        assert_eq!(g.len(), 1);
        assert_eq!(g.neighbourhood(a), &[(b, a)]);
        assert_eq!(g.incoming(c), &[]);
        assert!(!g.contains(&Triple::new(a, b, c)));
        // Remove the last triple: neighbourhood empties, no panic.
        assert!(g.remove(&Triple::new(a, b, a)));
        assert!(g.is_empty());
        assert_eq!(g.neighbourhood(a), &[]);
    }

    #[test]
    fn subjects_skip_emptied_entries() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(c, b, a));
        g.remove(&Triple::new(a, b, c));
        assert_eq!(g.subjects().collect::<Vec<_>>(), vec![c]);
        // Re-inserting restores the subject at its original position.
        g.insert(Triple::new(a, b, b));
        assert_eq!(g.subjects().collect::<Vec<_>>(), vec![a, c]);
    }

    /// Snapshot of every observable order the byte-identity discipline
    /// cares about.
    fn structure(g: &Graph, pool: &TermPool) -> (Vec<TermId>, Vec<Vec<Arc>>, Vec<Vec<Arc>>) {
        let all: Vec<TermId> = pool.iter().map(|(id, _)| id).collect();
        (
            g.subjects().collect(),
            all.iter().map(|&n| g.neighbourhood(n).to_vec()).collect(),
            all.iter().map(|&n| g.incoming(n).to_vec()).collect(),
        )
    }

    #[test]
    fn compact_is_structurally_invisible() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let d = pool.intern_iri("http://e/d");
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(a, d, c));
        g.insert(Triple::new(c, b, a));
        g.insert(Triple::new(d, b, c));
        g.remove(&Triple::new(a, d, c));
        let before = structure(&g, &pool);
        g.compact();
        assert_eq!(structure(&g, &pool), before);
        assert_eq!(g.len(), 3);
        // Mutation after compaction thaws transparently.
        g.insert(Triple::new(a, d, d));
        assert_eq!(g.neighbourhood(a), &[(b, c), (d, d)]);
        g.remove(&Triple::new(a, d, d));
        assert_eq!(structure(&g, &pool), before);
        // Compacting twice is idempotent.
        g.compact();
        g.compact();
        assert_eq!(structure(&g, &pool), before);
    }

    #[test]
    fn delta_apply_then_revert_is_structural_identity() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let d = pool.intern_iri("http://e/d");
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(a, b, d));
        g.insert(Triple::new(a, d, c));
        g.insert(Triple::new(c, b, a));
        let before_out: Vec<_> = g.neighbourhood(a).to_vec();
        let before_in: Vec<_> = g.incoming(c).to_vec();
        let before_subs: Vec<_> = g.subjects().collect();

        let delta = GraphDelta {
            // a b c sits at outgoing index 0 — removal shifts the rest.
            removed: vec![Triple::new(a, b, c), Triple::new(c, b, a)],
            added: vec![Triple::new(d, b, a), Triple::new(a, b, c)],
        };
        let applied = g.apply_delta(&delta);
        assert_eq!(applied.removed_count(), 2);
        assert_eq!(applied.added_count(), 2);
        assert!(g.contains(&Triple::new(d, b, a)));
        assert!(!g.contains(&Triple::new(c, b, a)));
        // Removed-then-re-added triple is present, now at the tail.
        assert_eq!(g.neighbourhood(a).last(), Some(&(b, c)));

        g.revert_delta(&applied);
        assert_eq!(g.neighbourhood(a), before_out.as_slice());
        assert_eq!(g.incoming(c), before_in.as_slice());
        assert_eq!(g.subjects().collect::<Vec<_>>(), before_subs);
        assert_eq!(g.len(), 4);
        assert!(!g.contains(&Triple::new(d, b, a)));
    }

    #[test]
    fn delta_round_trip_on_compacted_graph() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let d = pool.intern_iri("http://e/d");
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        g.insert(Triple::new(a, b, d));
        g.insert(Triple::new(c, b, a));
        g.compact();
        let before = structure(&g, &pool);
        let delta = GraphDelta {
            removed: vec![Triple::new(a, b, c)],
            added: vec![Triple::new(d, d, d), Triple::new(a, c, c)],
        };
        let applied = g.apply_delta(&delta);
        assert_eq!(g.neighbourhood(a), &[(b, d), (c, c)]);
        assert_eq!(g.subjects().collect::<Vec<_>>(), vec![a, c, d]);
        g.revert_delta(&applied);
        assert_eq!(structure(&g, &pool), before);
    }

    #[test]
    fn large_delta_on_high_fanout_node_round_trips_exactly() {
        // Regression (fail-pre-fix): per-triple `iter().position()` +
        // `Vec::remove` made large-delta apply/revert O(n·d); besides the
        // speed, this pins exact structural identity under a delta that
        // removes every other arc of a 100k-arc node and re-adds a block.
        let mut pool = TermPool::new();
        let hub = pool.intern_iri("http://e/hub");
        let p = pool.intern_iri("http://e/p");
        let mut g = Graph::new();
        let objs: Vec<TermId> = (0..100_000)
            .map(|i| pool.intern_iri(format!("http://e/o{i}").as_str()))
            .collect();
        for &o in &objs {
            g.insert(Triple::new(hub, p, o));
        }
        g.compact();
        let before = structure(&g, &pool);
        let delta = GraphDelta {
            removed: objs
                .iter()
                .step_by(2)
                .map(|&o| Triple::new(hub, p, o))
                .collect(),
            added: (0..1000).map(|i| Triple::new(objs[i], p, hub)).collect(),
        };
        let applied = g.apply_delta(&delta);
        assert_eq!(applied.removed_count(), 50_000);
        assert_eq!(applied.added_count(), 1000);
        assert_eq!(g.neighbourhood(hub).len(), 50_000);
        // Surviving arcs keep their relative order: the odd-indexed objects.
        assert_eq!(g.neighbourhood(hub)[0], (p, objs[1]));
        assert_eq!(g.neighbourhood(hub)[1], (p, objs[3]));
        g.revert_delta(&applied);
        assert_eq!(structure(&g, &pool), before);
        assert_eq!(g.len(), 100_000);
    }

    #[test]
    fn delta_noop_operations_are_skipped() {
        let mut pool = TermPool::new();
        let (a, b, c) = abc(&mut pool);
        let mut g = Graph::new();
        g.insert(Triple::new(a, b, c));
        let delta = GraphDelta {
            removed: vec![Triple::new(c, b, a)], // absent
            added: vec![Triple::new(a, b, c)],   // already present
        };
        let applied = g.apply_delta(&delta);
        assert!(applied.is_noop());
        g.revert_delta(&applied);
        assert_eq!(g.len(), 1);
        assert_eq!(g.neighbourhood(a), &[(b, c)]);
    }

    #[test]
    fn triples_sorted_is_deterministic() {
        let mut ds = Dataset::new();
        ds.insert(
            Term::iri("http://e/b"),
            Term::iri("http://e/p"),
            Term::iri("http://e/o"),
        );
        ds.insert(
            Term::iri("http://e/a"),
            Term::iri("http://e/p"),
            Term::iri("http://e/o"),
        );
        let s1 = ds.graph.triples_sorted();
        let s2 = ds.graph.triples_sorted();
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 2);
    }

    #[test]
    fn spans_are_eight_bytes() {
        assert_eq!(std::mem::size_of::<Span>(), 8);
    }

    /// Terms `0..HUB` plus the hub, whose out- and in-lists grow past
    /// [`SHORT_LIST`].
    const HUB: usize = 24;

    fn ids() -> (TermPool, Vec<TermId>) {
        let mut pool = TermPool::new();
        let ids = (0..=HUB)
            .map(|i| pool.intern_iri(format!("http://e/{i}").as_str()))
            .collect();
        (pool, ids)
    }

    /// A triple as indices into [`ids`]: most are over six subjects and
    /// objects, so they repeat often; the rest leave or reach the hub.
    fn arb_triple() -> impl Strategy<Value = (usize, usize, usize)> {
        (0u8..4, 0usize..HUB, 0usize..3, 0usize..HUB).prop_map(|(kind, a, p, b)| match kind {
            0 | 1 => (a % 6, p, b % 6),
            2 => (HUB, p, b),
            _ => (a, p, HUB),
        })
    }

    fn arb_triples(max: usize) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
        proptest::collection::vec(arb_triple(), 0..max)
    }

    fn triple(ids: &[TermId], (s, p, o): (usize, usize, usize)) -> Triple {
        Triple::new(ids[s], ids[p], ids[o])
    }

    /// Everything observable: length, membership of every triple over the
    /// id space, both adjacency orders, subject order and triple order.
    type Observed = (
        usize,
        Vec<bool>,
        Vec<Vec<Arc>>,
        Vec<Vec<Arc>>,
        Vec<TermId>,
        Vec<Triple>,
    );

    fn observe(g: &Graph, ids: &[TermId]) -> Observed {
        let mut members = Vec::new();
        for &s in ids {
            for &p in &ids[..3] {
                for &o in ids {
                    members.push(g.contains(&Triple::new(s, p, o)));
                }
            }
        }
        (
            g.len(),
            members,
            ids.iter().map(|&n| g.neighbourhood(n).to_vec()).collect(),
            ids.iter().map(|&n| g.incoming(n).to_vec()).collect(),
            g.subjects().collect(),
            g.triples().collect(),
        )
    }

    /// The reference: a set of triples plus, per node, the order in which
    /// its present arcs were (last) added, and subjects in the order they
    /// first got an arc.
    #[derive(Default)]
    struct Model {
        set: std::collections::BTreeSet<Triple>,
        out: FxHashMap<TermId, Vec<Arc>>,
        inc: FxHashMap<TermId, Vec<Arc>>,
        subjects: Vec<TermId>,
    }

    impl Model {
        fn insert(&mut self, t: Triple) -> bool {
            if !self.set.insert(t) {
                return false;
            }
            if !self.out.contains_key(&t.subject) {
                self.subjects.push(t.subject);
            }
            self.out
                .entry(t.subject)
                .or_default()
                .push((t.predicate, t.object));
            self.inc
                .entry(t.object)
                .or_default()
                .push((t.subject, t.predicate));
            true
        }

        fn remove(&mut self, t: Triple) -> bool {
            if !self.set.remove(&t) {
                return false;
            }
            self.out
                .get_mut(&t.subject)
                .unwrap()
                .retain(|&a| a != (t.predicate, t.object));
            self.inc
                .get_mut(&t.object)
                .unwrap()
                .retain(|&a| a != (t.subject, t.predicate));
            true
        }

        fn observe(&self, ids: &[TermId]) -> Observed {
            let mut members = Vec::new();
            for &s in ids {
                for &p in &ids[..3] {
                    for &o in ids {
                        members.push(self.set.contains(&Triple::new(s, p, o)));
                    }
                }
            }
            let list = |m: &FxHashMap<TermId, Vec<Arc>>, n| m.get(&n).cloned().unwrap_or_default();
            let subjects: Vec<TermId> = self
                .subjects
                .iter()
                .copied()
                .filter(|s| !self.out[s].is_empty())
                .collect();
            let triples = subjects
                .iter()
                .flat_map(|&s| self.out[&s].iter().map(move |&(p, o)| Triple::new(s, p, o)))
                .collect();
            (
                self.set.len(),
                members,
                ids.iter().map(|&n| list(&self.out, n)).collect(),
                ids.iter().map(|&n| list(&self.inc, n)).collect(),
                subjects,
                triples,
            )
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packed build with in-window deduplication is the graph one
        /// insert per triple and a compaction give.
        #[test]
        fn from_triples_is_insert_then_compact(list in arb_triples(300)) {
            let (pool, ids) = ids();
            let triples: Vec<Triple> = list.iter().map(|&t| triple(&ids, t)).collect();
            let packed = Graph::from_triples(triples.clone(), pool.len());
            let mut inserted = Graph::new();
            let mut model = Model::default();
            for &t in &triples {
                prop_assert_eq!(inserted.insert(t), model.insert(t));
            }
            let before = observe(&inserted, &ids);
            inserted.compact();
            prop_assert_eq!(observe(&inserted, &ids), before);
            prop_assert_eq!(observe(&packed, &ids), model.observe(&ids));
            prop_assert_eq!(observe(&inserted, &ids), observe(&packed, &ids));
            prop_assert_eq!(packed.triples_sorted(), inserted.triples_sorted());
            prop_assert_eq!(
                packed.triples_sorted(),
                model.set.iter().copied().collect::<Vec<_>>()
            );
            // The batched path from an empty graph is the packed build; on
            // a graph that already holds triples it is one insert each.
            let mut batched = Graph::new();
            batched.insert_all(triples.clone(), pool.len());
            prop_assert_eq!(observe(&batched, &ids), observe(&packed, &ids));
            let (head, tail) = triples.split_at(triples.len() / 2);
            let mut halves = Graph::new();
            halves.insert_all(head.to_vec(), pool.len());
            halves.insert_all(tail.to_vec(), pool.len());
            prop_assert_eq!(observe(&halves, &ids), observe(&packed, &ids));
        }

        /// Inserts, removals and compactions in any order agree with the
        /// set model and its first-occurrence orders.
        #[test]
        fn insert_remove_agree_with_the_model(
            seed in arb_triples(120),
            ops in proptest::collection::vec((0u8..8, arb_triple()), 0..300),
        ) {
            let (pool, ids) = ids();
            let mut model = Model::default();
            let seed: Vec<Triple> = seed.iter().map(|&t| triple(&ids, t)).collect();
            for &t in &seed {
                model.insert(t);
            }
            let mut g = Graph::from_triples(seed, pool.len());
            for (kind, t) in ops {
                let t = triple(&ids, t);
                match kind {
                    0..=3 => prop_assert_eq!(g.insert(t), model.insert(t)),
                    4..=6 => prop_assert_eq!(g.remove(&t), model.remove(t)),
                    _ => g.compact(),
                }
            }
            prop_assert_eq!(observe(&g, &ids), model.observe(&ids));
        }

        /// Applying a delta — with repeated and absent removals, and
        /// repeated and present additions — and reverting it gives back
        /// the identical structure, packed or thawed.
        #[test]
        fn delta_apply_revert_is_identity(
            base in arb_triples(200),
            removed in arb_triples(80),
            added in arb_triples(80),
            thaw in proptest::bool::ANY,
        ) {
            let (pool, ids) = ids();
            let base: Vec<Triple> = base.iter().map(|&t| triple(&ids, t)).collect();
            let mut model = Model::default();
            for &t in &base {
                model.insert(t);
            }
            let mut g = Graph::from_triples(base.clone(), pool.len());
            if thaw {
                // Thaw some nodes first: a removal and its re-insertion.
                if let Some(&t) = base.first() {
                    g.remove(&t);
                    g.insert(t);
                    model.remove(t);
                    model.insert(t);
                }
            }
            let before = observe(&g, &ids);
            prop_assert_eq!(&before, &model.observe(&ids));
            // Removals and additions drawn partly from the graph itself.
            let mut delta = GraphDelta::default();
            for (i, &t) in removed.iter().enumerate() {
                delta.removed.push(match base.get(i) {
                    Some(&b) if i % 2 == 0 => b,
                    _ => triple(&ids, t),
                });
            }
            delta.removed.extend(delta.removed.clone().iter().take(5));
            for (i, &t) in added.iter().enumerate() {
                delta.added.push(match base.get(i) {
                    Some(&b) if i % 3 == 0 => b,
                    _ => triple(&ids, t),
                });
            }
            let applied = g.apply_delta(&delta);
            let removed_now: Vec<Triple> =
                delta.removed.iter().copied().filter(|&t| model.remove(t)).collect();
            let added_now: Vec<Triple> =
                delta.added.iter().copied().filter(|&t| model.insert(t)).collect();
            prop_assert_eq!(applied.removed_count(), removed_now.len());
            prop_assert_eq!(&applied.added, &added_now);
            prop_assert_eq!(observe(&g, &ids), model.observe(&ids));
            g.revert_delta(&applied);
            prop_assert_eq!(observe(&g, &ids), before);
        }
    }

    #[cfg(feature = "fail-inject")]
    #[test]
    fn injected_mid_delta_failure_rolls_back_exactly() {
        use crate::failpoint::{self, Action};
        use crate::{delta, turtle, writer};

        let mut ds = turtle::parse(
            "@prefix e: <http://e/> .\n\
             e:a e:p e:b, e:c .\n\
             e:b e:p e:d .\n",
        )
        .unwrap();
        let d = delta::parse(
            "@prefix e: <http://e/> .\n\
             - e:a e:p e:b .\n\
             - e:b e:p e:d .\n\
             + e:a e:q e:z .\n\
             + e:b e:q e:z .\n",
            &mut ds.pool,
        )
        .unwrap();
        let before = writer::to_ntriples(&ds.graph, &ds.pool);

        // Fail on the third of four operations: both removals land, then
        // the first addition trips — a genuinely half-applied delta that
        // must be rolled back to a byte-identical graph.
        failpoint::set_after("delta-apply", Action::Error("disk full".into()), 2, Some(1));
        let err = ds.try_apply_delta(&d).unwrap_err();
        assert_eq!(err.op_index, 2);
        assert_eq!(err.operations, 4);
        assert!(err.message.contains("disk full"), "{}", err.message);
        assert_eq!(writer::to_ntriples(&ds.graph, &ds.pool), before);

        // The times budget is spent, so the same delta now applies fully —
        // and a revert restores the original serialization again.
        let applied = ds.try_apply_delta(&d).unwrap();
        assert_eq!(applied.removed_count(), 2);
        assert_eq!(applied.added_count(), 2);
        ds.revert_delta(&applied);
        assert_eq!(writer::to_ntriples(&ds.graph, &ds.pool), before);
        failpoint::reset();
    }

    #[cfg(feature = "fail-inject")]
    #[test]
    fn injected_mid_removal_failure_rolls_back_exactly() {
        // Fail during the *removal* phase (op 1 of 2): the first removal
        // has been accounted but nothing has physically moved — rollback
        // must restore the triple set without disturbing adjacency order.
        use crate::failpoint::{self, Action};
        use crate::{delta, turtle, writer};

        let mut ds = turtle::parse("@prefix e: <http://e/> .\ne:a e:p e:b, e:c, e:d .\n").unwrap();
        let d = delta::parse(
            "@prefix e: <http://e/> .\n- e:a e:p e:b .\n- e:a e:p e:d .\n",
            &mut ds.pool,
        )
        .unwrap();
        let before = writer::to_ntriples(&ds.graph, &ds.pool);
        let a = ds.iri("http://e/a").unwrap();
        let before_arcs = ds.graph.neighbourhood(a).to_vec();

        failpoint::set_after("delta-apply", Action::Error("disk full".into()), 1, Some(1));
        let err = ds.try_apply_delta(&d).unwrap_err();
        assert_eq!(err.op_index, 1);
        assert_eq!(writer::to_ntriples(&ds.graph, &ds.pool), before);
        assert_eq!(ds.graph.neighbourhood(a), before_arcs.as_slice());
        failpoint::reset();
    }
}
