//! The in-memory graph store.
//!
//! A graph `Σ` is a *set* of triples `⟨s, p, o⟩` (paper §2). The store keeps
//! a deduplicating triple set plus adjacency indexes; the operation the
//! validator lives on is [`Graph::neighbourhood`], the paper's `Σg_n` — all
//! triples with subject `n` — served as a slice borrow. An object-side
//! index supports the paper's §10 "inverse arcs" extension.
//!
//! ## Memory layout
//!
//! Adjacency is a struct-of-arrays design built for million-triple graphs:
//! [`TermId`]s are dense, so per-node arc lists are addressed by a plain
//! `Vec` of spans indexed by the id — no hashing on the `neighbourhood`
//! hot path. A span is either *frozen* (a `(start, len)` window into one
//! shared contiguous arc arena, CSR-style) or *owned* (a private `Vec` for
//! nodes mutated by deltas or inserted one at a time). Bulk loads build
//! the graph once with [`Graph::from_triples`]: it counts each node's
//! arcs and fills both arenas in one pass, so no per-node list is ever
//! allocated and a full-typing run scans contiguous memory. A graph built
//! by [`Graph::insert`] is packed the same way by [`Graph::compact`]; a
//! later [`Graph::apply_delta`] thaws only the nodes it actually touches.
//! Neither representation is observable through the API: `neighbourhood`
//! and `incoming` return the same slices, in the same insertion order,
//! frozen or owned.

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

/// One node's adjacency entry: never used, a frozen window into the shared
/// arena, or a privately owned list (building / post-mutation).
///
/// `Unused` vs an *emptied* list is a real distinction: a subject whose
/// every triple was removed keeps its (empty) entry, and with it its
/// position in the subject iteration order — see [`Graph::remove`].
#[derive(Debug, Default)]
enum Span {
    /// No entry was ever created for this node.
    #[default]
    Unused,
    /// `arena[start .. start + len]`.
    Frozen {
        /// First arc in the arena.
        start: u32,
        /// Number of arcs.
        len: u32,
    },
    /// A mutable per-node list.
    Owned(Vec<Arc>),
}

/// One direction's adjacency: per-node spans over a shared arc arena,
/// indexed directly by the dense [`TermId`].
#[derive(Debug, Default)]
struct Adjacency {
    arena: Vec<Arc>,
    spans: Vec<Span>,
}

impl Adjacency {
    fn entries(&self, n: TermId) -> &[Arc] {
        match self.spans.get(n.index()) {
            Some(&Span::Frozen { start, len }) => {
                &self.arena[start as usize..start as usize + len as usize]
            }
            Some(Span::Owned(v)) => v,
            _ => &[],
        }
    }

    /// Has this node ever had an entry (even one since emptied)?
    fn is_used(&self, n: TermId) -> bool {
        !matches!(self.spans.get(n.index()), None | Some(Span::Unused))
    }

    fn ensure(&mut self, n: TermId) {
        if self.spans.len() <= n.index() {
            self.spans.resize_with(n.index() + 1, Span::default);
        }
    }

    /// The node's mutable list, thawing a frozen span (one copy of its
    /// arena window; the window becomes dead arena space until the next
    /// [`Adjacency::compact`]).
    fn list_mut(&mut self, n: TermId) -> &mut Vec<Arc> {
        self.ensure(n);
        let slot = &mut self.spans[n.index()];
        if let Span::Frozen { start, len } = *slot {
            let window = &self.arena[start as usize..start as usize + len as usize];
            *slot = Span::Owned(window.to_vec());
        } else if matches!(slot, Span::Unused) {
            *slot = Span::Owned(Vec::new());
        }
        match &mut self.spans[n.index()] {
            Span::Owned(v) => v,
            _ => unreachable!("slot was just thawed"),
        }
    }

    /// Appends an arc; returns `true` when this created the node's entry.
    fn push(&mut self, n: TermId, arc: Arc) -> bool {
        self.ensure(n);
        let fresh = matches!(self.spans[n.index()], Span::Unused);
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
    /// order), turning all owned lists and stale frozen windows into dense
    /// CSR storage.
    fn compact(&mut self) {
        let total: usize = self
            .spans
            .iter()
            .map(|s| match s {
                Span::Unused => 0,
                Span::Frozen { len, .. } => *len as usize,
                Span::Owned(v) => v.len(),
            })
            .sum();
        u32::try_from(total).expect("adjacency arena overflow");
        let old = std::mem::take(&mut self.arena);
        let mut arena = Vec::with_capacity(total);
        for slot in &mut self.spans {
            let start = arena.len() as u32;
            match slot {
                Span::Unused => continue,
                Span::Frozen { start: s, len } => {
                    arena.extend_from_slice(&old[*s as usize..*s as usize + *len as usize]);
                }
                Span::Owned(v) => arena.extend_from_slice(v),
            }
            let len = arena.len() as u32 - start;
            *slot = Span::Frozen { start, len };
        }
        self.arena = arena;
    }

    /// Builds the packed form [`Adjacency::compact`] gives, straight from
    /// `(node, arc)` pairs in insertion order: `arcs` is called twice, once
    /// to count each node's arcs and once to place them. Every node must be
    /// below `nodes`.
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
        // Every slot is overwritten below; `filler` only gives it a value.
        let mut arena = vec![filler; total as usize];
        // Placing arcs back to front keeps each node's insertion order and
        // leaves `ends[n]` at the node's first arc.
        for (n, arc) in arcs().rev() {
            let slot = &mut ends[n.index()];
            *slot -= 1;
            arena[*slot as usize] = arc;
        }
        let spans = (0..nodes)
            .map(|n| {
                let start = ends[n];
                let next = ends.get(n + 1).copied().unwrap_or(total);
                match next - start {
                    0 => Span::Unused,
                    len => Span::Frozen { start, len },
                }
            })
            .collect();
        Adjacency { arena, spans }
    }
}

/// An in-memory RDF graph over a shared [`TermPool`].
#[derive(Debug, Default)]
pub struct Graph {
    triples: FxHashSet<Triple>,
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
    /// built packed, with no per-node list.
    ///
    /// # Panics
    ///
    /// If a triple holds an id of `nodes` or more; pass the length of the
    /// pool the ids come from.
    pub fn from_triples(mut triples: Vec<Triple>, nodes: usize) -> Graph {
        let mut set = FxHashSet::with_capacity_and_hasher(triples.len(), Default::default());
        triples.retain(|t| set.insert(*t));
        set.shrink_to_fit();
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
            triples: set,
            outgoing,
            incoming,
            subject_order,
        }
    }

    /// Inserts a triple. Returns `true` if it was not already present
    /// (graphs are sets; duplicate inserts are no-ops).
    pub fn insert(&mut self, triple: Triple) -> bool {
        if !self.triples.insert(triple) {
            return false;
        }
        if self
            .outgoing
            .push(triple.subject, (triple.predicate, triple.object))
        {
            self.subject_order.push(triple.subject);
        }
        self.incoming
            .push(triple.object, (triple.subject, triple.predicate));
        true
    }

    /// Removes a triple. Returns `true` if it was present. Subject order
    /// is preserved; a subject whose last triple is removed keeps its
    /// position internally (it disappears from [`Graph::subjects`] while
    /// its neighbourhood is empty, and reappears at the same position if a
    /// triple is re-inserted for it).
    pub fn remove(&mut self, triple: &Triple) -> bool {
        if !self.triples.remove(triple) {
            return false;
        }
        self.outgoing
            .list_mut(triple.subject)
            .retain(|&(p, o)| (p, o) != (triple.predicate, triple.object));
        self.incoming
            .list_mut(triple.object)
            .retain(|&(s, p)| (s, p) != (triple.subject, triple.predicate));
        true
    }

    /// Packs all adjacency lists into contiguous arena storage (and trims
    /// the triple set) — call once after a bulk load. Purely a memory-
    /// layout operation: every observable order and slice is unchanged,
    /// and later mutations transparently thaw the nodes they touch.
    pub fn compact(&mut self) {
        self.outgoing.compact();
        self.incoming.compact();
        self.triples.shrink_to_fit();
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

    /// Membership test.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.triples.contains(triple)
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
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
    /// Removals are accounted per operation but applied physically in one
    /// batched compaction sweep per touched node: positions are resolved
    /// against a per-node index of the pre-delta list, so a k-triple burst
    /// on a d-arc node costs O(d + k log k) rather than the O(k·d)
    /// scan-and-splice a per-triple `Vec::remove` would pay.
    pub fn try_apply_delta(&mut self, delta: &GraphDelta) -> Result<AppliedDelta, DeltaApplyError> {
        let mut applied = AppliedDelta::default();
        let total = delta.removed.len() + delta.added.len();

        // Removal phase. (p, o) is unique within a subject's list (the
        // graph is a set), so a lazily built pair → position index over the
        // pre-delta list resolves each removal exactly; nothing moves
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
                // Nothing has physically moved yet: only the triple set
                // shrank. Restore it and the graph is byte-identical.
                for &(r, _, _) in &applied.removed {
                    self.triples.insert(r);
                }
                return Err(DeltaApplyError {
                    op_index: op,
                    operations: total,
                    message,
                });
            }
            if !self.triples.remove(&t) {
                continue;
            }
            let oi = *out_index
                .entry(t.subject)
                .or_insert_with(|| index_of(self.outgoing.entries(t.subject)))
                .get(&(t.predicate, t.object))
                .expect("triple present but arc unindexed");
            let ii = *inc_index
                .entry(t.object)
                .or_insert_with(|| index_of(self.incoming.entries(t.object)))
                .get(&(t.subject, t.predicate))
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

        // Addition phase.
        for (k, &t) in delta.added.iter().enumerate() {
            if let Some(message) = crate::failpoint::check("delta-apply") {
                // Removals are physical by now; the generic revert undoes
                // both phases exactly.
                self.revert_delta(&applied);
                return Err(DeltaApplyError {
                    op_index: delta.removed.len() + k,
                    operations: total,
                    message,
                });
            }
            if self.insert(t) {
                applied.added.push(t);
            }
        }
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
            if !self.triples.remove(t) {
                continue;
            }
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
            self.outgoing.list_mut(n).retain(|a| !gone.contains(a));
        }
        for (n, gone) in inc_gone {
            self.incoming.list_mut(n).retain(|a| !gone.contains(a));
        }

        // Re-seat the removed triples at their pre-delta positions.
        let mut out_back: FxHashMap<TermId, Vec<(u32, Arc)>> = FxHashMap::default();
        let mut inc_back: FxHashMap<TermId, Vec<(u32, Arc)>> = FxHashMap::default();
        for &(t, oi, ii) in &applied.removed {
            if !self.triples.insert(t) {
                continue;
            }
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
            if fresh {
                self.subject_order.push(n);
            }
        }
        for (n, mut inserts) in inc_back {
            inserts.sort_unstable_by_key(|&(pos, _)| pos);
            self.incoming.restore_positions(n, &inserts);
        }
    }

    /// All triples (arbitrary order).
    pub fn triples(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// All triples sorted by (subject, predicate, object) id — deterministic
    /// order for serialization and tests.
    pub fn triples_sorted(&self) -> Vec<Triple> {
        let mut v: Vec<_> = self.triples.iter().copied().collect();
        v.sort();
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
            (None, None) => Box::new(self.triples.iter().copied().filter(move |t| post(t))),
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
