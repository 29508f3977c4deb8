//! Term interning.
//!
//! Validation touches the same IRIs and literals over and over; interning
//! them to dense `u32` ids makes triples 12 bytes, makes term equality an
//! integer compare, and lets downstream code use ids as indexes into dense
//! side tables (the derivative engine's memo tables rely on this).
//!
//! The pool holds no owned [`Term`]. Each distinct term's text (an IRI, a
//! blank-node label or a literal's lexical form) is appended to one text
//! arena, and the term gets one fixed-size record: its kind, where its text
//! lies, and, for a literal, the index of its datatype IRI or language tag
//! in a side table that keeps each distinct one once. So interning a new
//! term copies its bytes and allocates nothing of its own, and no literal
//! carries a copy of its datatype IRI. [`TermPool::term`] hands a term back
//! as a [`TermRef`] borrowing the arena.
//!
//! The index beside the records is an open-addressing table of `(hash, id)`
//! slots that confirms a candidate by comparing against the record's view,
//! so it holds no copy of any term either. Lookups take a [`TermRef`] too:
//! a parser asks for a term's id with slices of its input.

use std::collections::HashMap;
use std::hash::Hasher;

use rustc_hash::FxHasher;

use crate::term::{Literal, LiteralRef, Term, TermRef};

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

/// One interned term: where its text lies in the arena, and its kind.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Byte offset of the term's text in the arena.
    start: usize,
    /// Byte length of the text.
    len: u32,
    /// The kind in the low [`KIND_BITS`] bits; for a literal, the index of
    /// its annotation (datatype IRI or language tag) above them.
    meta: u32,
}

/// Record kinds.
const IRI: u32 = 0;
const BLANK: u32 = 1;
/// A literal without a language tag: its annotation is its datatype IRI.
const TYPED: u32 = 2;
/// A language-tagged string: its annotation is its tag, and its datatype
/// is `rdf:langString`.
const TAGGED: u32 = 3;
const KIND_BITS: u32 = 2;
const KIND_MASK: u32 = (1 << KIND_BITS) - 1;

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
    /// The text arena: every term's text back to back, in interning
    /// order. A `String` rather than bytes, so that a record's span is
    /// handed out as a `&str` with no decoding and no unsafe code.
    text: String,
    /// One record per term; id `i`'s is element `i`.
    records: Vec<Record>,
    /// The literals' datatype IRIs and language tags, each distinct string
    /// once, and the index of each. The strings come from input, so the
    /// map keeps the standard library's keyed hasher.
    annotations: Vec<Box<str>>,
    annotation_ids: HashMap<Box<str>, u32>,
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
        TermRef::Literal(l) => {
            h.write_u8(2);
            h.write(l.lexical_form().as_bytes());
            h.write_u8(0xff);
            h.write(l.datatype().as_bytes());
            if let Some(lang) = l.language() {
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
        self.intern_ref(TermRef::from(&term))
    }

    /// Interns a term given as a borrowed view, returning its id. A term
    /// new to the pool has its text copied into the arena.
    pub fn intern_ref(&mut self, term: TermRef<'_>) -> TermId {
        let hash = hash(term);
        match self.find(hash, term) {
            Some(id) => id,
            None => self.insert(hash, term),
        }
    }

    /// Adds a term that [`TermPool::find`] did not find.
    fn insert(&mut self, hash: u32, term: TermRef<'_>) -> TermId {
        let id = u32::try_from(self.records.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("term pool overflow");
        let (text, meta) = match term {
            TermRef::Iri(iri) => (iri, IRI),
            TermRef::Blank(label) => (label, BLANK),
            TermRef::Literal(l) => match l.language() {
                None => (l.lexical_form(), TYPED | self.annotation(l.datatype())),
                Some(lang) => (l.lexical_form(), TAGGED | self.annotation(lang)),
            },
        };
        if (self.records.len() + 1) * 2 > self.slots.len() {
            self.grow((self.records.len() + 1) * 2);
        }
        self.place(Slot { hash, id });
        self.records.push(Record {
            start: self.text.len(),
            len: u32::try_from(text.len()).expect("term longer than 4 GiB"),
            meta,
        });
        self.text.push_str(text);
        TermId(id)
    }

    /// The index of an annotation, added if new, shifted into place above
    /// a record's kind.
    fn annotation(&mut self, text: &str) -> u32 {
        let index = match self.annotation_ids.get(text) {
            Some(&index) => index,
            None => {
                let index = u32::try_from(self.annotations.len())
                    .ok()
                    .filter(|&index| index <= u32::MAX >> KIND_BITS)
                    .expect("term pool overflow");
                self.annotations.push(text.into());
                self.annotation_ids.insert(text.into(), index);
                index
            }
        };
        index << KIND_BITS
    }

    /// The view of a record: its text in the arena and, for a literal, its
    /// annotation.
    fn view(&self, record: Record) -> TermRef<'_> {
        let text = &self.text[record.start..record.start + record.len as usize];
        let annotation = || &*self.annotations[(record.meta >> KIND_BITS) as usize];
        match record.meta & KIND_MASK {
            IRI => TermRef::Iri(text),
            BLANK => TermRef::Blank(text),
            TYPED => TermRef::Literal(LiteralRef::typed(text, annotation())),
            _ => TermRef::Literal(LiteralRef::tagged(text, annotation())),
        }
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
        self.intern_ref(TermRef::Literal(LiteralRef::from(&lit)))
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
            if slot.hash == hash && self.view(self.records[slot.id as usize]) == term {
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

    /// Resolves an id back to its term, borrowed from the pool.
    ///
    /// # Panics
    /// Panics if the id comes from a different pool (index out of range).
    pub fn term(&self, id: TermId) -> TermRef<'_> {
        self.view(self.records[id.index()])
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over all `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, TermRef<'_>)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, &r)| (TermId(i as u32), self.view(r)))
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
        assert_eq!(pool.term(id), TermRef::from(&t));
        assert_eq!(pool.get(&t), Some(id));
        assert_eq!(pool.get(&Term::iri("http://e/zzz")), None);
    }

    #[test]
    fn borrowed_and_owned_lookups_agree() {
        let mut pool = TermPool::new();
        let lit = Term::Literal(Literal::lang_string("chat", "FR"));
        let a = pool.intern(lit.clone());
        let b = pool.intern_ref(TermRef::Literal(LiteralRef::tagged("chat", "fr")));
        assert_eq!(a, b);
        assert_eq!(pool.get(TermRef::Iri("chat")), None);
        assert_eq!(pool.get(TermRef::from(&lit)), Some(a));
        // A literal's fields are kept apart: moving text between the
        // lexical form and the datatype makes another term.
        let c = pool.intern_ref(TermRef::Literal(LiteralRef::typed("ab", "c")));
        let d = pool.intern_ref(TermRef::Literal(LiteralRef::typed("a", "bc")));
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
    }

    #[test]
    fn iter_yields_in_interning_order() {
        let mut pool = TermPool::new();
        pool.intern_iri("http://e/1");
        pool.intern_iri("http://e/2");
        let terms: Vec<_> = pool.iter().map(|(_, t)| t.to_term()).collect();
        assert_eq!(terms[0], Term::iri("http://e/1"));
        assert_eq!(terms[1], Term::iri("http://e/2"));
    }

    /// A record is a fixed 16 bytes at most, and a literal's datatype is
    /// stored once however many literals carry it.
    #[test]
    fn records_are_small_and_datatypes_shared() {
        assert!(std::mem::size_of::<Record>() <= 16);
        let mut pool = TermPool::new();
        for i in 0..100 {
            pool.intern_literal(Literal::integer(i));
            pool.intern_literal(Literal::lang_string(format!("{i}"), "EN"));
        }
        assert_eq!(pool.len(), 200);
        assert_eq!(pool.annotations.len(), 2);
        assert_eq!(pool.text.len(), 2 * (10 + 90 * 2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::vocab::xsd;
    use proptest::prelude::*;
    use rustc_hash::FxHashMap;

    /// Short texts over a small alphabet, so that the same text turns up
    /// as an IRI, a blank label, a lexical form, a datatype and a tag:
    /// empty, escaped (quote, backslash, newline, tab) and non-ASCII.
    fn arb_text() -> impl Strategy<Value = String> {
        prop_oneof!["[ab]{0,2}", "[aé日𝄞\"\\\n\t ]{0,3}"]
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        (0u8..6, arb_text(), arb_text()).prop_map(|(kind, text, other)| match kind {
            0 => Term::iri(text),
            1 => Term::blank(text),
            2 => Term::Literal(Literal::string(text)),
            3 => Term::Literal(Literal::typed(text, xsd::INTEGER)),
            4 => Term::Literal(Literal::typed(text, other)),
            _ => Term::Literal(Literal::lang_string(text, &other)),
        })
    }

    proptest! {
        /// Interning in any order with repeats: ids are dense in
        /// first-occurrence order, and each id's view, lookup, rendering
        /// and position in the sort order are those of the term it was
        /// interned from.
        #[test]
        fn pool_views_agree_with_owned_terms(
            terms in proptest::collection::vec(arb_term(), 0..60),
            text in arb_text(),
        ) {
            let mut pool = TermPool::new();
            let mut first: FxHashMap<Term, usize> = FxHashMap::default();
            let mut distinct: Vec<Term> = Vec::new();
            for t in &terms {
                let expected = *first.entry(t.clone()).or_insert_with(|| {
                    distinct.push(t.clone());
                    distinct.len() - 1
                });
                prop_assert_eq!(pool.intern(t.clone()).index(), expected);
            }
            prop_assert_eq!(pool.len(), distinct.len());
            for (i, t) in distinct.iter().enumerate() {
                let id = pool.get(t);
                prop_assert_eq!(id.map(TermId::index), Some(i));
                let view = pool.term(id.unwrap());
                prop_assert_eq!(view, TermRef::from(t));
                prop_assert_eq!(view.to_string(), t.to_string());
                prop_assert_eq!(&view.to_term(), t);
            }
            let views: Vec<_> = pool.iter().map(|(_, v)| v.to_term()).collect();
            prop_assert_eq!(&views, &distinct);
            let mut by_view: Vec<TermId> = pool.iter().map(|(id, _)| id).collect();
            by_view.sort_by_key(|&id| pool.term(id));
            let mut by_term: Vec<usize> = (0..distinct.len()).collect();
            by_term.sort_by_key(|&i| &distinct[i]);
            prop_assert_eq!(by_view.iter().map(|id| id.index()).collect::<Vec<_>>(), by_term);

            let kinds = [
                pool.intern_iri(&text),
                pool.intern_blank(&text),
                pool.intern_literal(Literal::string(text.as_str())),
                pool.intern_literal(Literal::typed(text.as_str(), text.as_str())),
            ];
            for (i, a) in kinds.iter().enumerate() {
                for b in &kinds[i + 1..] {
                    prop_assert_ne!(a, b);
                }
            }
        }
    }
}
