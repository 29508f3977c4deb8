//! Term interning.
//!
//! Validation touches the same IRIs and literals over and over; interning
//! them to dense `u32` ids makes triples 12 bytes, makes term equality an
//! integer compare, and lets downstream code use ids as indexes into dense
//! side tables (the derivative engine's memo tables rely on this).
//!
//! Each distinct term is stored once, in `terms`. The index beside it is an
//! open-addressing table of `(hash, id)` slots that confirms a candidate by
//! comparing against `terms[id]`, so it holds no copy of any term. Lookups
//! go through the borrowed [`TermRef`] view: a parser asks for a term's id
//! with slices of its input and an owned [`Term`] is built only when the
//! term is new to the pool.

use std::hash::Hasher;

use rustc_hash::FxHasher;

use crate::term::{Literal, Term, TermRef};

/// A dense id for an interned [`Term`]. Ids are only meaningful relative to
/// the [`TermPool`] that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// The raw index, usable for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One index slot: the top 32 bits of a term's hash and its id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

/// The id of an empty slot. No term gets it: the pool stops growing one
/// term short of `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// An interner mapping [`Term`]s to dense [`TermId`]s and back.
///
/// One pool is shared between a graph and everything that needs to talk
/// about its nodes (schemas compiled for validation, query engines, ...).
#[derive(Debug, Default)]
pub struct TermPool {
    terms: Vec<Term>,
    /// Linear-probing table, a power of two long and at most half full;
    /// empty until the first term is interned. A term's home slot is the
    /// top bits of its hash.
    slots: Vec<Slot>,
}

/// The hash the index keys a term by. The kind tag and the separators
/// between a literal's fields keep an IRI, a blank node and a literal with
/// the same text apart, and a literal's fields from running together.
fn hash(term: TermRef<'_>) -> u32 {
    let mut h = FxHasher::default();
    match term {
        TermRef::Iri(iri) => {
            h.write_u8(0);
            h.write(iri.as_bytes());
        }
        TermRef::Blank(label) => {
            h.write_u8(1);
            h.write(label.as_bytes());
        }
        TermRef::Literal(lexical, datatype, lang) => {
            h.write_u8(2);
            h.write(lexical.as_bytes());
            h.write_u8(0xff);
            h.write(datatype.as_bytes());
            if let Some(lang) = lang {
                h.write_u8(0xff);
                h.write(lang.as_bytes());
            }
        }
    }
    // FxHasher ends each step with a multiply, so its high bits are the
    // well-mixed ones.
    (h.finish() >> 32) as u32
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        TermPool::default()
    }

    /// Interns a term, returning its id. Idempotent.
    pub fn intern(&mut self, term: Term) -> TermId {
        let hash = hash(TermRef::from(&term));
        match self.find(hash, TermRef::from(&term)) {
            Some(id) => id,
            None => self.insert(hash, term),
        }
    }

    /// Interns a term given as a borrowed view, returning its id. The owned
    /// [`Term`] is built only when the term is new to the pool.
    pub fn intern_ref(&mut self, term: TermRef<'_>) -> TermId {
        let hash = hash(term);
        match self.find(hash, term) {
            Some(id) => id,
            None => self.insert(hash, term.to_term()),
        }
    }

    /// Adds a term that [`TermPool::find`] did not find.
    fn insert(&mut self, hash: u32, term: Term) -> TermId {
        let id = u32::try_from(self.terms.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("term pool overflow");
        if (self.terms.len() + 1) * 2 > self.slots.len() {
            self.grow((self.terms.len() + 1) * 2);
        }
        self.place(Slot { hash, id });
        self.terms.push(term);
        TermId(id)
    }

    /// Interns an IRI given as a string.
    pub fn intern_iri(&mut self, iri: &str) -> TermId {
        self.intern_ref(TermRef::Iri(iri))
    }

    /// Interns a blank node given its label.
    pub fn intern_blank(&mut self, label: &str) -> TermId {
        self.intern_ref(TermRef::Blank(label))
    }

    /// Interns a literal.
    pub fn intern_literal(&mut self, lit: Literal) -> TermId {
        self.intern(Term::Literal(lit))
    }

    /// Looks up an already-interned term without interning it. Takes a
    /// `&Term` or a [`TermRef`]; neither allocates.
    pub fn get<'t>(&self, term: impl Into<TermRef<'t>>) -> Option<TermId> {
        let term = term.into();
        self.find(hash(term), term)
    }

    /// The id of `term`, probing from its home slot until a matching or an
    /// empty slot.
    fn find(&self, hash: u32, term: TermRef<'_>) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return None;
            }
            if slot.hash == hash && TermRef::from(&self.terms[slot.id as usize]) == term {
                return Some(TermId(slot.id));
            }
            i = (i + 1) & mask;
        }
    }

    fn home(&self, hash: u32) -> usize {
        // The top `log2(slots.len())` bits; `grow` keeps at least 16 slots.
        (hash >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// Puts `slot` in the first empty slot from its home. The caller has
    /// checked that the term is absent and that a slot is free.
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(slot.hash);
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Rebuilds the index with room for at least `min_slots` slots. Slots
    /// keep their hash, so no term is hashed again.
    fn grow(&mut self, min_slots: usize) {
        let len = min_slots.max(16).next_power_of_two();
        assert!(len.trailing_zeros() <= 32, "term pool overflow");
        let old = std::mem::replace(&mut self.slots, vec![Slot { hash: 0, id: EMPTY }; len]);
        for slot in old.into_iter().filter(|s| s.id != EMPTY) {
            self.place(slot);
        }
    }

    /// Resolves an id back to its term.
    ///
    /// # Panics
    /// Panics if the id comes from a different pool (index out of range).
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Pre-sizes the term list and the index for `additional` more terms.
    pub fn reserve(&mut self, additional: usize) {
        self.terms.reserve(additional);
        let needed = (self.terms.len() + additional) * 2;
        if needed > self.slots.len() {
            self.grow(needed);
        }
    }

    /// Iterates over all `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }

    /// Consumes the pool, yielding its terms in interning order — id `i`'s
    /// term is element `i`. Used by the parallel parser's merge phase to
    /// re-intern chunk-local pools into the shared one without cloning
    /// every term.
    pub fn into_terms(self) -> Vec<Term> {
        self.terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    #[test]
    fn intern_is_idempotent() {
        let mut pool = TermPool::new();
        let a = pool.intern_iri("http://e/a");
        let b = pool.intern_iri("http://e/a");
        assert_eq!(a, b);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut pool = TermPool::new();
        let a = pool.intern_iri("http://e/a");
        let b = pool.intern_iri("http://e/b");
        let c = pool.intern_blank("a");
        let d = pool.intern_literal(Literal::string("a"));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(c, d);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn same_lexical_different_kind_are_distinct() {
        let mut pool = TermPool::new();
        let iri = pool.intern_iri("x");
        let blank = pool.intern_blank("x");
        let lit = pool.intern_literal(Literal::string("x"));
        assert_ne!(iri, blank);
        assert_ne!(blank, lit);
    }

    #[test]
    fn literal_datatype_distinguishes() {
        let mut pool = TermPool::new();
        let s = pool.intern_literal(Literal::string("1"));
        let i = pool.intern_literal(Literal::integer(1));
        assert_ne!(s, i);
    }

    #[test]
    fn roundtrip_term_lookup() {
        let mut pool = TermPool::new();
        let t = Term::iri("http://e/a");
        let id = pool.intern(t.clone());
        assert_eq!(pool.term(id), &t);
        assert_eq!(pool.get(&t), Some(id));
        assert_eq!(pool.get(&Term::iri("http://e/zzz")), None);
    }

    #[test]
    fn borrowed_and_owned_lookups_agree() {
        let mut pool = TermPool::new();
        let lit = Term::Literal(Literal::lang_string("chat", "FR"));
        let a = pool.intern(lit.clone());
        let b = pool.intern_ref(TermRef::Literal(
            "chat",
            crate::vocab::rdf::LANG_STRING,
            Some("fr"),
        ));
        assert_eq!(a, b);
        assert_eq!(pool.get(TermRef::Iri("chat")), None);
        assert_eq!(pool.get(TermRef::from(&lit)), Some(a));
        // A literal's fields are kept apart: moving text between the
        // lexical form and the datatype makes another term.
        let c = pool.intern_ref(TermRef::Literal("ab", "c", None));
        let d = pool.intern_ref(TermRef::Literal("a", "bc", None));
        assert_ne!(c, d);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn index_survives_growth() {
        let mut pool = TermPool::new();
        let ids: Vec<_> = (0..10_000)
            .map(|i| pool.intern_iri(&format!("http://e/{i}")))
            .collect();
        assert_eq!(pool.len(), 10_000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(pool.get(TermRef::Iri(&format!("http://e/{i}"))), Some(*id));
            assert_eq!(pool.intern_iri(&format!("http://e/{i}")), *id);
        }
        let mut reserved = TermPool::new();
        reserved.reserve(3);
        assert_eq!(reserved.intern_blank("x"), reserved.intern_blank("x"));
    }

    #[test]
    fn iter_yields_in_interning_order() {
        let mut pool = TermPool::new();
        pool.intern_iri("http://e/1");
        pool.intern_iri("http://e/2");
        let terms: Vec<_> = pool.iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(terms[0], Term::iri("http://e/1"));
        assert_eq!(terms[1], Term::iri("http://e/2"));
    }
}
