//! Tri-state satisfiability of [`NodeConstraint`]s.
//!
//! The schema calculus (emptiness, containment, schema diffing in
//! `shapex-core`) and the exact lints in [`crate::lints`] both need to
//! answer "does any RDF term satisfy this constraint?" — and, more
//! generally, "is this *conjunction* of constraints and negated
//! constraints satisfiable?". The answer is three-valued:
//!
//! * [`Sat3::Sat`] — a concrete witness term was found and verified with
//!   [`NodeConstraint::matches`], so the verdict is exact.
//! * [`Sat3::Unsat`] — a symbolic contradiction was proven (empty facet
//!   interval, incompatible node kinds, `X ∧ ¬X`, a value set whose
//!   members are all individually refuted, ...), so the verdict is exact.
//! * [`Sat3::Unknown`] — neither: the checker refuses to guess. Callers
//!   must treat `Unknown` conservatively (a shape is only reported
//!   *unsatisfiable* on `Unsat`, only *proven satisfiable* on `Sat`).
//!
//! Soundness rests on an asymmetry: `Sat` is always backed by an actual
//! term evaluated through the same [`NodeConstraint::matches`] code that
//! validation uses, and `Unsat` only by contradictions that hold for
//! *every* term. There is no completeness claim — exotic combinations
//! (e.g. a `PATTERN` whose language is empty but non-obviously so) come
//! back `Unknown`.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use shapex_rdf::term::{Literal, Term};
use shapex_rdf::vocab::{rdf, xsd};
use shapex_rdf::xsd::{is_numeric_datatype, Numeric};

use crate::constraint::{Facet, NodeConstraint, NodeKind, ValueSetValue};
use crate::strre::{CharClass, Re, Regex};

/// Three-valued satisfiability verdict. The `Ord` instance is the
/// knowledge lattice `Unsat < Unknown < Sat`, so `min` is conjunction
/// ("all must hold") and `max` is disjunction ("any suffices") for shape
/// emptiness fixpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sat3 {
    /// Proven unsatisfiable: no term can ever match.
    Unsat,
    /// Not decided either way.
    Unknown,
    /// Proven satisfiable by a concrete witness term.
    Sat,
}

/// Satisfiability of a single constraint.
pub fn constraint_sat(c: &NodeConstraint) -> Sat3 {
    conj_sat(&[c])
}

/// Satisfiability of a conjunction of constraints (each must hold of the
/// same term). This is the form the containment letter enumeration needs:
/// "is there a term matching arcs `S` and *not* matching arcs outside
/// `S`?" is `conj_sat` over positives and [`NodeConstraint::Not`]s.
pub fn conj_sat(cs: &[&NodeConstraint]) -> Sat3 {
    conj_sat_depth(cs, 4)
}

/// The worker behind [`conj_sat`]: direct contradiction/witness checks,
/// then a depth-bounded case split on negated conjunctions —
/// `¬(m₁ ∧ … ∧ mₖ) = ¬m₁ ∨ … ∨ ¬mₖ`, so the verdict is the lattice `max`
/// over the branches (all branches `Unsat` ⇒ `Unsat`; any `Sat` witness
/// transfers to the original). Containment letters routinely produce
/// `X ∧ ¬(D ∧ F)` shapes that only this split can decide.
fn conj_sat_depth(cs: &[&NodeConstraint], depth: u32) -> Sat3 {
    let mut atoms = Atoms::default();
    for c in cs {
        atoms.add_positive(c);
    }
    if atoms.contradiction() {
        return Sat3::Unsat;
    }
    for term in atoms.candidates() {
        if atoms.eval(&term) {
            return Sat3::Sat;
        }
    }
    if depth > 0 {
        // A positive disjunction splits into one branch per member:
        // `AnyOf(m₁…mₖ) ∧ rest` is `(m₁ ∧ rest) ∨ … ∨ (mₖ ∧ rest)`, so the
        // verdict is again the lattice `max` over branches.
        let pos_split = atoms.pos.iter().enumerate().find_map(|(i, p)| match p {
            NodeConstraint::AnyOf(ms) if ms.len() <= 8 => Some((i, ms)),
            _ => None,
        });
        if let Some((idx, members)) = pos_split {
            let mut best = Sat3::Unsat;
            for m in members {
                let mut branch: Vec<NodeConstraint> = atoms
                    .pos
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != idx)
                    .map(|(_, p)| (*p).clone())
                    .collect();
                branch.push(m.clone());
                for n in &atoms.neg {
                    branch.push(NodeConstraint::Not(Box::new((*n).clone())));
                }
                let refs: Vec<&NodeConstraint> = branch.iter().collect();
                best = best.max(conj_sat_depth(&refs, depth - 1));
                if best == Sat3::Sat {
                    return Sat3::Sat;
                }
            }
            return best;
        }
        let split = atoms.neg.iter().enumerate().find_map(|(i, n)| match n {
            NodeConstraint::AllOf(ms) if ms.len() <= 8 => Some((i, ms)),
            _ => None,
        });
        if let Some((idx, members)) = split {
            let mut best = Sat3::Unsat;
            for m in members {
                let mut branch: Vec<NodeConstraint> =
                    atoms.pos.iter().map(|p| (*p).clone()).collect();
                for (j, n) in atoms.neg.iter().enumerate() {
                    if j != idx {
                        branch.push(NodeConstraint::Not(Box::new((*n).clone())));
                    }
                }
                branch.push(NodeConstraint::Not(Box::new(m.clone())));
                let refs: Vec<&NodeConstraint> = branch.iter().collect();
                best = best.max(conj_sat_depth(&refs, depth - 1));
                if best == Sat3::Sat {
                    return Sat3::Sat;
                }
            }
            return best;
        }
    }
    Sat3::Unknown
}

/// The flattened conjunction: positive atoms (no `AllOf` left) and
/// negated constraints (arbitrary, evaluated wholesale against witness
/// candidates).
#[derive(Default)]
struct Atoms<'a> {
    pos: Vec<&'a NodeConstraint>,
    neg: Vec<&'a NodeConstraint>,
}

impl<'a> Atoms<'a> {
    fn add_positive(&mut self, c: &'a NodeConstraint) {
        match c {
            NodeConstraint::Any => {}
            NodeConstraint::AllOf(cs) => {
                for c in cs {
                    self.add_positive(c);
                }
            }
            NodeConstraint::Not(inner) => self.add_negative(inner),
            _ => self.pos.push(c),
        }
    }

    fn add_negative(&mut self, c: &'a NodeConstraint) {
        match c {
            // ¬¬X = X
            NodeConstraint::Not(inner) => self.add_positive(inner),
            // ¬(X ∨ Y) = ¬X ∧ ¬Y — flattens exactly.
            NodeConstraint::AnyOf(cs) => {
                for c in cs {
                    self.add_negative(c);
                }
            }
            // ¬(X ∧ Y) is a disjunction — keep it whole; eval() handles it.
            _ => self.neg.push(c),
        }
    }

    /// True when the term satisfies every positive atom and refutes every
    /// negative one — the exact semantics of the original conjunction.
    fn eval(&self, term: &Term) -> bool {
        self.pos.iter().all(|c| c.matches(term)) && self.neg.iter().all(|c| !c.matches(term))
    }

    /// Symbolic contradiction detection. Every rule here must hold for
    /// *all* terms; returning `true` is an exact `Unsat`.
    fn contradiction(&self) -> bool {
        // ¬(.): nothing escapes the universal constraint.
        if self.neg.iter().any(|c| matches!(c, NodeConstraint::Any)) {
            return true;
        }
        // X ∧ ¬X, structurally.
        if self.pos.iter().any(|p| self.neg.iter().any(|n| n == p)) {
            return true;
        }
        let kinds: Vec<NodeKind> = self
            .pos
            .iter()
            .filter_map(|c| match c {
                NodeConstraint::Kind(k) => Some(*k),
                _ => None,
            })
            .collect();
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                if kinds_contradict(*a, *b) {
                    return true;
                }
            }
        }
        let datatypes: Vec<&str> = self
            .pos
            .iter()
            .filter_map(|c| match c {
                NodeConstraint::Datatype(dt) => Some(&**dt),
                _ => None,
            })
            .collect();
        // Two distinct datatype requirements: a literal has exactly one
        // declared datatype (lang-tagged ⇒ rdf:langString), so they cannot
        // both hold.
        if datatypes
            .iter()
            .enumerate()
            .any(|(i, a)| datatypes[i + 1..].iter().any(|b| a != b))
        {
            return true;
        }
        // Datatypes only match literals.
        let literal_impossible = kinds
            .iter()
            .any(|k| matches!(k, NodeKind::Iri | NodeKind::BNode | NodeKind::NonLiteral));
        if literal_impossible && !datatypes.is_empty() {
            return true;
        }
        // Numeric facets only match numerically-typed literals.
        let numeric_bounds = self.numeric_bounds();
        if !numeric_bounds.is_empty() {
            if literal_impossible {
                return true;
            }
            if datatypes.iter().any(|dt| !is_numeric_datatype(dt)) {
                return true;
            }
            // A positive bound forces the term to be numerically
            // comparable, and within that domain a negated bound flips
            // (`¬(x ≥ 3)` ⇔ `x < 3`) — fold the flipped negatives into
            // the interval. NaN-bounded negatives are vacuously true for
            // comparable terms and are skipped.
            let flipped: Vec<Facet> = self
                .neg
                .iter()
                .filter_map(|c| match c {
                    NodeConstraint::Facet(f) => flip_numeric_facet(f),
                    _ => None,
                })
                .collect();
            let mut all_bounds = numeric_bounds.clone();
            all_bounds.extend(flipped.iter());
            if numeric_interval_empty(&all_bounds) {
                return true;
            }
        }
        if self.length_interval_empty() {
            return true;
        }
        // An invalid PATTERN matches nothing at all.
        for c in &self.pos {
            if let NodeConstraint::Facet(Facet::Pattern(p)) = c {
                if Regex::new(p).is_err() {
                    return true;
                }
            }
        }
        // A value set all of whose members are individually refuted.
        for c in &self.pos {
            if let NodeConstraint::ValueSet(vs) = c {
                if vs.iter().all(|v| self.member_dead(v)) {
                    return true;
                }
            }
        }
        false
    }

    /// Can this value-set member be ruled out for every term it could
    /// denote? Exact for `Term` members (finitely many candidates — one);
    /// for stems, only structural impossibilities are claimed.
    fn member_dead(&self, v: &ValueSetValue) -> bool {
        let literal_required = self.pos.iter().any(|c| {
            matches!(c, NodeConstraint::Kind(NodeKind::Literal))
                || matches!(c, NodeConstraint::Datatype(_))
        }) || !self.numeric_bounds().is_empty();
        let literal_impossible = self.pos.iter().any(|c| {
            matches!(
                c,
                NodeConstraint::Kind(NodeKind::Iri)
                    | NodeConstraint::Kind(NodeKind::BNode)
                    | NodeConstraint::Kind(NodeKind::NonLiteral)
            )
        });
        match v {
            // The member denotes exactly one term: evaluate it.
            ValueSetValue::Term(t) => !self.eval(t),
            // IRI stems denote IRIs only.
            ValueSetValue::IriStem(_) => literal_required,
            // Language members denote lang-tagged literals only.
            ValueSetValue::Language(_) | ValueSetValue::LanguageStem(_) => {
                literal_impossible
                    || self.pos.iter().any(
                        |c| matches!(c, NodeConstraint::Datatype(dt) if &**dt != rdf::LANG_STRING),
                    )
            }
        }
    }

    fn numeric_bounds(&self) -> Vec<&Facet> {
        self.pos
            .iter()
            .filter_map(|c| match c {
                NodeConstraint::Facet(
                    f @ (Facet::MinInclusive(_)
                    | Facet::MinExclusive(_)
                    | Facet::MaxInclusive(_)
                    | Facet::MaxExclusive(_)),
                ) => Some(f),
                _ => None,
            })
            .collect()
    }

    /// Merge `LENGTH`/`MINLENGTH`/`MAXLENGTH` into one interval and test
    /// emptiness. Every term has a string value (lexical form, IRI text,
    /// bnode label), so negated length bounds flip *globally*:
    /// `¬MINLENGTH n` ⇔ `MAXLENGTH n−1` (unsatisfiable outright for
    /// `n = 0`) and `¬MAXLENGTH n` ⇔ `MINLENGTH n+1`.
    fn length_interval_empty(&self) -> bool {
        let mut lo = 0usize;
        let mut hi = usize::MAX;
        for c in &self.pos {
            if let NodeConstraint::Facet(f) = c {
                match f {
                    Facet::Length(n) => {
                        lo = lo.max(*n);
                        hi = hi.min(*n);
                    }
                    Facet::MinLength(n) => lo = lo.max(*n),
                    Facet::MaxLength(n) => hi = hi.min(*n),
                    _ => {}
                }
            }
        }
        for c in &self.neg {
            if let NodeConstraint::Facet(f) = c {
                match f {
                    Facet::MinLength(0) => return true, // every length is ≥ 0
                    Facet::MinLength(n) => hi = hi.min(*n - 1),
                    Facet::MaxLength(n) => match n.checked_add(1) {
                        Some(n1) => lo = lo.max(n1),
                        None => return true, // every length is ≤ usize::MAX
                    },
                    _ => {}
                }
            }
        }
        lo > hi
    }

    /// Witness candidates: value-set members, stem representatives,
    /// canonical literals per mentioned datatype, facet boundary values,
    /// length-matched strings, pattern-derived strings, and generic fresh
    /// terms. Every candidate is *verified* by [`Atoms::eval`]; an
    /// unsuitable candidate merely wastes a probe.
    fn candidates(&self) -> Vec<Term> {
        let mut out: Vec<Term> = Vec::new();
        for c in &self.pos {
            if let NodeConstraint::ValueSet(vs) = c {
                for v in vs {
                    match v {
                        ValueSetValue::Term(t) => out.push(t.clone()),
                        ValueSetValue::IriStem(stem) => {
                            out.push(Term::iri(stem.to_string()));
                            out.push(Term::iri(format!("{stem}x")));
                        }
                        ValueSetValue::Language(tag) | ValueSetValue::LanguageStem(tag) => {
                            out.push(Term::Literal(Literal::lang_string("a", tag)));
                        }
                    }
                }
            }
        }
        let datatypes: Vec<&str> = self
            .pos
            .iter()
            .filter_map(|c| match c {
                NodeConstraint::Datatype(dt) => Some(&**dt),
                _ => None,
            })
            .collect();
        for dt in &datatypes {
            out.extend(canonical_literals(dt));
        }
        // Numeric boundary probes, typed with every plausibly-compatible
        // numeric datatype so facet+datatype conjunctions get a shot.
        let bounds = self.numeric_bounds();
        if !bounds.is_empty() {
            let mut values: Vec<Numeric> = bounds.iter().map(|f| facet_bound(f)).collect();
            let nudged: Vec<Numeric> = values.iter().flat_map(|n| nudge_candidates(*n)).collect();
            values.extend(nudged);
            for (i, a) in bounds.iter().enumerate() {
                for b in &bounds[i + 1..] {
                    if let Some(mid) = midpoint(facet_bound(a), facet_bound(b)) {
                        values.push(mid);
                    }
                }
            }
            let numeric_dts: Vec<&str> = if datatypes.is_empty() {
                vec![xsd::INTEGER, xsd::DECIMAL, xsd::DOUBLE]
            } else {
                datatypes
                    .iter()
                    .copied()
                    .filter(|dt| is_numeric_datatype(dt))
                    .collect()
            };
            for v in &values {
                for dt in &numeric_dts {
                    if let Some(t) = numeric_literal(*v, dt) {
                        out.push(t);
                    }
                }
            }
        }
        // Length-driven strings / IRIs / bnode labels.
        for c in &self.pos {
            if let NodeConstraint::Facet(Facet::Length(n) | Facet::MinLength(n)) = c {
                let n = (*n).min(4096); // don't allocate absurd witnesses
                let s: String = "a".repeat(n);
                out.push(Term::Literal(Literal::string(s.clone())));
                if n > 0 {
                    out.push(Term::iri(s.clone()));
                    out.push(Term::blank(s));
                }
            }
        }
        // Pattern-driven strings: a bounded BFS over the Brzozowski
        // derivative states of the pattern finds a member of its language.
        for c in &self.pos {
            if let NodeConstraint::Facet(Facet::Pattern(p)) = c {
                if let Ok(re) = Regex::new(p) {
                    if let Some(w) = pattern_witness(&re) {
                        out.push(Term::Literal(Literal::string(w.clone())));
                        if !w.is_empty() {
                            out.push(Term::iri(w));
                        }
                    }
                }
            }
        }
        // Generic fresh terms, one per kind plus common literal shapes.
        out.push(Term::iri("http://witness.example/w"));
        out.push(Term::blank("w0"));
        out.push(Term::Literal(Literal::string("a")));
        out.push(Term::Literal(Literal::string("")));
        out.push(Term::Literal(Literal::integer(0)));
        out.push(Term::Literal(Literal::decimal("0.5")));
        out.push(Term::Literal(Literal::double(0.5)));
        out.push(Term::Literal(Literal::lang_string("a", "en")));
        out.push(Term::Literal(Literal::boolean(true)));
        out.truncate(256);
        out
    }
}

/// Mirror of the validation-side kind semantics: two kind requirements are
/// jointly satisfiable only if equal or one is `NONLITERAL` paired with
/// `IRI`/`BNODE`.
fn kinds_contradict(a: NodeKind, b: NodeKind) -> bool {
    use NodeKind::*;
    !matches!(
        (a, b),
        (Iri, Iri)
            | (BNode, BNode)
            | (Literal, Literal)
            | (NonLiteral, NonLiteral)
            | (Iri, NonLiteral)
            | (NonLiteral, Iri)
            | (BNode, NonLiteral)
            | (NonLiteral, BNode)
    )
}

/// The within-comparable-domain complement of a numeric bound facet:
/// `¬(x ≥ b)` ⇔ `x < b` and so on. Only valid when something else forces
/// the term to be numerically comparable. Returns `None` for non-numeric
/// facets and for NaN bounds (`¬(x ≥ NaN)` holds for *every* comparable
/// term, so it contributes nothing to the interval).
fn flip_numeric_facet(f: &Facet) -> Option<Facet> {
    let flipped = match f {
        Facet::MinInclusive(b) => Facet::MaxExclusive(*b),
        Facet::MinExclusive(b) => Facet::MaxInclusive(*b),
        Facet::MaxInclusive(b) => Facet::MinExclusive(*b),
        Facet::MaxExclusive(b) => Facet::MinInclusive(*b),
        _ => return None,
    };
    let b = facet_bound(&flipped);
    // NaN bound: the flipped facet constrains nothing.
    b.compare(b)?;
    Some(flipped)
}

fn facet_bound(f: &Facet) -> Numeric {
    match f {
        Facet::MinInclusive(b)
        | Facet::MinExclusive(b)
        | Facet::MaxInclusive(b)
        | Facet::MaxExclusive(b) => *b,
        _ => unreachable!("numeric_bounds filters to numeric facets"),
    }
}

/// Is the conjunction of numeric bounds an empty interval? Exact: bound
/// comparison goes through [`Numeric::compare`] (256-bit exact for
/// decimal/double mixes; `None` only for NaN, which no literal satisfies).
fn numeric_interval_empty(bounds: &[&Facet]) -> bool {
    // A NaN bound satisfies no comparison at all — the facet alone is
    // unsatisfiable.
    for f in bounds {
        let b = facet_bound(f);
        if b.compare(b).is_none() {
            return true;
        }
    }
    let mut lo: Option<(Numeric, bool)> = None; // (bound, exclusive)
    let mut hi: Option<(Numeric, bool)> = None;
    for f in bounds {
        let b = facet_bound(f);
        match f {
            Facet::MinInclusive(_) | Facet::MinExclusive(_) => {
                let excl = matches!(f, Facet::MinExclusive(_));
                lo = Some(match lo {
                    None => (b, excl),
                    Some((cur, cur_excl)) => match b.compare(cur) {
                        Some(Ordering::Greater) => (b, excl),
                        Some(Ordering::Equal) => (cur, cur_excl || excl),
                        _ => (cur, cur_excl),
                    },
                });
            }
            Facet::MaxInclusive(_) | Facet::MaxExclusive(_) => {
                let excl = matches!(f, Facet::MaxExclusive(_));
                hi = Some(match hi {
                    None => (b, excl),
                    Some((cur, cur_excl)) => match b.compare(cur) {
                        Some(Ordering::Less) => (b, excl),
                        Some(Ordering::Equal) => (cur, cur_excl || excl),
                        _ => (cur, cur_excl),
                    },
                });
            }
            _ => {}
        }
    }
    if let (Some((lo, lo_excl)), Some((hi, hi_excl))) = (lo, hi) {
        match lo.compare(hi) {
            Some(Ordering::Greater) => true,
            Some(Ordering::Equal) => lo_excl || hi_excl,
            _ => false,
        }
    } else {
        false
    }
}

/// Candidate values adjacent to a bound, for open intervals: ±1 at the
/// bound's scale and ±0.1 one scale finer. All checked arithmetic — an
/// overflow just drops the candidate.
fn nudge_candidates(n: Numeric) -> Vec<Numeric> {
    match n {
        Numeric::Decimal { unscaled, scale } => {
            let mut out = Vec::new();
            for d in [1i128, -1] {
                if let Some(u) = unscaled.checked_add(d) {
                    out.push(Numeric::Decimal { unscaled: u, scale });
                }
            }
            if scale < 30 {
                if let Some(u10) = unscaled.checked_mul(10) {
                    for d in [1i128, -1] {
                        if let Some(u) = u10.checked_add(d) {
                            out.push(Numeric::Decimal {
                                unscaled: u,
                                scale: scale + 1,
                            });
                        }
                    }
                }
            }
            out
        }
        Numeric::Double(d) => vec![Numeric::Double(d + 1.0), Numeric::Double(d - 1.0)],
    }
}

/// Exact midpoint of two decimals (or a float midpoint for doubles) for
/// probing open intervals like `(5, 6)`.
fn midpoint(a: Numeric, b: Numeric) -> Option<Numeric> {
    match (a, b) {
        (
            Numeric::Decimal {
                unscaled: ua,
                scale: sa,
            },
            Numeric::Decimal {
                unscaled: ub,
                scale: sb,
            },
        ) => {
            let s = sa.max(sb) + 1;
            if s > 30 {
                return None;
            }
            let ua = ua.checked_mul(10i128.checked_pow(s - sa)?)?;
            let ub = ub.checked_mul(10i128.checked_pow(s - sb)?)?;
            // ua and ub both carry a factor of 10 beyond max(sa, sb), so
            // their sum is even whenever both inputs were exact halves —
            // integer division by 2 is exact here because 10·x + 10·y is
            // always even.
            Some(Numeric::Decimal {
                unscaled: ua.checked_add(ub)? / 2,
                scale: s,
            })
        }
        (Numeric::Double(x), Numeric::Double(y)) => Some(Numeric::Double((x + y) / 2.0)),
        (Numeric::Decimal { .. }, Numeric::Double(d))
        | (Numeric::Double(d), Numeric::Decimal { .. }) => Some(Numeric::Double(d)),
    }
}

/// Renders a numeric value as a literal of the requested datatype, when
/// the value is representable there. Unrepresentable combinations return
/// `None`; invalid-but-rendered ones simply fail `matches` later.
fn numeric_literal(n: Numeric, datatype: &str) -> Option<Term> {
    let lexical = match n {
        Numeric::Decimal { unscaled, scale } => decimal_lexical(unscaled, scale),
        Numeric::Double(d) => {
            if !d.is_finite() {
                return None;
            }
            format!("{d:?}")
        }
    };
    match (n, datatype) {
        (Numeric::Decimal { scale: 0, .. }, _) => {
            Some(Term::Literal(Literal::typed(lexical, datatype)))
        }
        // Fractional decimals only render under decimal/double/float.
        (Numeric::Decimal { .. }, xsd::DECIMAL | xsd::DOUBLE | xsd::FLOAT) => {
            Some(Term::Literal(Literal::typed(lexical, datatype)))
        }
        (Numeric::Decimal { .. }, _) => None,
        (Numeric::Double(_), xsd::DOUBLE | xsd::FLOAT) => {
            Some(Term::Literal(Literal::typed(lexical, datatype)))
        }
        (Numeric::Double(d), _) => {
            // Probe integral doubles through integer datatypes too.
            if d.fract() == 0.0 && d.abs() < 9e15 {
                Some(Term::Literal(Literal::typed(
                    format!("{}", d as i64),
                    datatype,
                )))
            } else {
                None
            }
        }
    }
}

/// `unscaled × 10⁻ˢᶜᵃˡᵉ` as a plain decimal lexical form.
fn decimal_lexical(unscaled: i128, scale: u32) -> String {
    if scale == 0 {
        return unscaled.to_string();
    }
    let negative = unscaled < 0;
    let digits = unscaled.unsigned_abs().to_string();
    let scale = scale as usize;
    let padded = if digits.len() <= scale {
        format!("{}{}", "0".repeat(scale + 1 - digits.len()), digits)
    } else {
        digits
    };
    let (int_part, frac_part) = padded.split_at(padded.len() - scale);
    format!("{}{int_part}.{frac_part}", if negative { "-" } else { "" })
}

/// One valid literal per well-known datatype; unknown datatypes get a
/// generic lexical form (which [`NodeConstraint::matches`] will accept or
/// reject as its validity rules dictate).
fn canonical_literals(datatype: &str) -> Vec<Term> {
    let mk = |lex: &str| Term::Literal(Literal::typed(lex, datatype));
    match datatype {
        rdf::LANG_STRING => vec![Term::Literal(Literal::lang_string("a", "en"))],
        xsd::STRING => vec![Term::Literal(Literal::string("a"))],
        xsd::BOOLEAN => vec![mk("true"), mk("false")],
        xsd::DATE => vec![mk("2000-01-01")],
        xsd::DATE_TIME => vec![mk("2000-01-01T00:00:00")],
        xsd::TIME => vec![mk("00:00:00")],
        xsd::G_YEAR => vec![mk("2000")],
        xsd::ANY_URI => vec![mk("http://witness.example/w")],
        xsd::DOUBLE | xsd::FLOAT => vec![mk("0.5"), mk("1")],
        xsd::DECIMAL => vec![mk("0.5"), mk("1")],
        dt if is_numeric_datatype(dt) => vec![mk("1"), mk("0"), mk("-1")],
        _ => vec![mk("a"), mk("1")],
    }
}

/// Breadth-first search over the pattern's Brzozowski derivative states
/// for a shortest-ish accepted string. Bounded (≤ 400 states, length
/// ≤ 64), so an empty or deviously-sparse language just returns `None`.
pub fn pattern_witness(re: &Regex) -> Option<String> {
    let alphabet = pattern_alphabet(re.ast());
    let mut seen: HashSet<Arc<Re>> = HashSet::new();
    let mut frontier: Vec<(Arc<Re>, String)> = vec![(re.ast().clone(), String::new())];
    seen.insert(re.ast().clone());
    for _ in 0..64 {
        let mut next = Vec::new();
        for (state, prefix) in &frontier {
            if state.nullable() {
                return Some(prefix.clone());
            }
            for &c in &alphabet {
                let d = state.derivative(c);
                if matches!(&*d, Re::Empty) || seen.contains(&d) {
                    continue;
                }
                if seen.len() >= 400 {
                    return None;
                }
                seen.insert(d.clone());
                let mut s = prefix.clone();
                s.push(c);
                next.push((d, s));
            }
        }
        if next.is_empty() {
            return frontier
                .iter()
                .find(|(s, _)| s.nullable())
                .map(|(_, p)| p.clone());
        }
        frontier = next;
    }
    None
}

/// A small probe alphabet for the pattern: one character per class range
/// plus fallbacks that negated classes usually admit.
fn pattern_alphabet(re: &Arc<Re>) -> Vec<char> {
    fn walk(re: &Re, out: &mut Vec<char>) {
        match re {
            Re::Empty | Re::Epsilon => {}
            Re::Class(c) => {
                for probe in class_probes(c) {
                    out.push(probe);
                }
            }
            Re::Concat(a, b) | Re::Alt(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Re::Star(a) => walk(a, out),
        }
    }
    let mut out = Vec::new();
    walk(re, &mut out);
    for fallback in ['a', '0', 'A', ' ', '.', '~'] {
        out.push(fallback);
    }
    out.sort_unstable();
    out.dedup();
    out.truncate(16);
    out
}

fn class_probes(c: &CharClass) -> Vec<char> {
    let mut out = Vec::new();
    for probe in ['a', '0', 'A', 'z', '9', '-', '.', ' ', '~', 'é'] {
        if c.contains(probe) {
            out.push(probe);
            if out.len() >= 2 {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Numeric {
        Numeric::integer(v as i128)
    }

    #[test]
    fn trivial_constraints_are_sat() {
        assert_eq!(constraint_sat(&NodeConstraint::Any), Sat3::Sat);
        for k in [
            NodeKind::Iri,
            NodeKind::BNode,
            NodeKind::Literal,
            NodeKind::NonLiteral,
        ] {
            assert_eq!(constraint_sat(&NodeConstraint::Kind(k)), Sat3::Sat);
        }
        assert_eq!(
            constraint_sat(&NodeConstraint::Datatype(xsd::INTEGER.into())),
            Sat3::Sat
        );
        assert_eq!(
            constraint_sat(&NodeConstraint::Datatype(xsd::DATE.into())),
            Sat3::Sat
        );
    }

    #[test]
    fn empty_value_set_is_unsat() {
        assert_eq!(
            constraint_sat(&NodeConstraint::ValueSet(vec![])),
            Sat3::Unsat
        );
    }

    #[test]
    fn contradictory_numeric_facets_are_unsat() {
        // The ISSUE's documented false negative: MININCLUSIVE 5 MAXINCLUSIVE 3.
        let c = NodeConstraint::datatype_with(
            xsd::INTEGER,
            vec![Facet::MinInclusive(int(5)), Facet::MaxInclusive(int(3))],
        );
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
        // Exclusive bounds meeting at a point are empty too.
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Facet(Facet::MinExclusive(int(5))),
            NodeConstraint::Facet(Facet::MaxInclusive(int(5))),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
    }

    #[test]
    fn open_interval_with_room_is_sat() {
        // (5, 6) has 5.5 — needs a fractional witness.
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Facet(Facet::MinExclusive(int(5))),
            NodeConstraint::Facet(Facet::MaxExclusive(int(6))),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
        // [5, 5] is exactly {5}.
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Facet(Facet::MinInclusive(int(5))),
            NodeConstraint::Facet(Facet::MaxInclusive(int(5))),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn integer_datatype_pins_open_unit_interval_unknown_at_worst() {
        // xsd:integer ∧ (5, 6): genuinely empty, but proving it needs
        // density reasoning the checker doesn't do — must NOT be Sat.
        let c = NodeConstraint::datatype_with(
            xsd::INTEGER,
            vec![Facet::MinExclusive(int(5)), Facet::MaxExclusive(int(6))],
        );
        assert_ne!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn not_x_conjoined_with_x_is_unsat() {
        // The ISSUE's second documented false negative.
        let x = NodeConstraint::Datatype(xsd::STRING.into());
        let c = NodeConstraint::AllOf(vec![x.clone(), NodeConstraint::Not(Box::new(x))]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
    }

    #[test]
    fn double_negation_cancels() {
        let x = NodeConstraint::Kind(NodeKind::Iri);
        let c = NodeConstraint::Not(Box::new(NodeConstraint::Not(Box::new(x))));
        assert_eq!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn kind_contradictions() {
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Kind(NodeKind::Iri),
            NodeConstraint::Kind(NodeKind::BNode),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Kind(NodeKind::Literal),
            NodeConstraint::Kind(NodeKind::NonLiteral),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
        // Compatible pair.
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Kind(NodeKind::Iri),
            NodeConstraint::Kind(NodeKind::NonLiteral),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn datatype_vs_kind() {
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Datatype(xsd::INTEGER.into()),
            NodeConstraint::Kind(NodeKind::NonLiteral),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Datatype(xsd::INTEGER.into()),
            NodeConstraint::Kind(NodeKind::Literal),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn distinct_datatypes_are_unsat() {
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Datatype(xsd::INTEGER.into()),
            NodeConstraint::Datatype(xsd::STRING.into()),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
    }

    #[test]
    fn value_set_filtered_by_facets() {
        use shapex_rdf::term::Term;
        // [1 2] ∧ MININCLUSIVE 10: both members refuted concretely.
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::ValueSet(vec![
                ValueSetValue::Term(Term::Literal(Literal::integer(1))),
                ValueSetValue::Term(Term::Literal(Literal::integer(2))),
            ]),
            NodeConstraint::Facet(Facet::MinInclusive(int(10))),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
        // [1 20]: 20 survives.
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::ValueSet(vec![
                ValueSetValue::Term(Term::Literal(Literal::integer(1))),
                ValueSetValue::Term(Term::Literal(Literal::integer(20))),
            ]),
            NodeConstraint::Facet(Facet::MinInclusive(int(10))),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn iri_stem_vs_literal_kind() {
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::ValueSet(vec![ValueSetValue::IriStem("http://e/".into())]),
            NodeConstraint::Kind(NodeKind::Literal),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
        let c = NodeConstraint::ValueSet(vec![ValueSetValue::IriStem("http://e/".into())]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn language_members() {
        let c = NodeConstraint::ValueSet(vec![ValueSetValue::Language("en".into())]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::ValueSet(vec![ValueSetValue::LanguageStem("en".into())]),
            NodeConstraint::Kind(NodeKind::Iri),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
    }

    #[test]
    fn length_conflicts() {
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Facet(Facet::MinLength(5)),
            NodeConstraint::Facet(Facet::MaxLength(3)),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Facet(Facet::Length(2)),
            NodeConstraint::Facet(Facet::Length(3)),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Facet(Facet::Length(3)),
            NodeConstraint::Facet(Facet::MinLength(2)),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn invalid_pattern_is_unsat() {
        let c = NodeConstraint::Facet(Facet::Pattern("(".into()));
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
    }

    #[test]
    fn pattern_witness_search_proves_sat() {
        let c = NodeConstraint::Facet(Facet::Pattern(r"\d{4}-\d{2}".into()));
        assert_eq!(constraint_sat(&c), Sat3::Sat);
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Kind(NodeKind::Literal),
            NodeConstraint::Facet(Facet::Pattern("[A-Z][a-z]+".into())),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn negated_kind_conjunction() {
        // LITERAL ∧ ¬IRI: any literal works.
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Kind(NodeKind::Literal),
            NodeConstraint::Not(Box::new(NodeConstraint::Kind(NodeKind::Iri))),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
        // ¬(.) is unsatisfiable.
        let c = NodeConstraint::Not(Box::new(NodeConstraint::Any));
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
    }

    #[test]
    fn any_of_splits_exactly() {
        // Empty disjunction is false.
        assert_eq!(constraint_sat(&NodeConstraint::AnyOf(vec![])), Sat3::Unsat);
        // Every branch contradictory ⇒ Unsat.
        let c = NodeConstraint::AllOf(vec![
            NodeConstraint::Kind(NodeKind::Iri),
            NodeConstraint::AnyOf(vec![
                NodeConstraint::Kind(NodeKind::Literal),
                NodeConstraint::Kind(NodeKind::BNode),
            ]),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Unsat);
        // One live branch ⇒ Sat.
        let c = NodeConstraint::AnyOf(vec![
            NodeConstraint::ValueSet(vec![]),
            NodeConstraint::Datatype(xsd::STRING.into()),
        ]);
        assert_eq!(constraint_sat(&c), Sat3::Sat);
        // ¬(X ∨ Y) flattens: ¬IRI ∧ ¬BNODE is satisfied by any literal.
        let c = NodeConstraint::Not(Box::new(NodeConstraint::AnyOf(vec![
            NodeConstraint::Kind(NodeKind::Iri),
            NodeConstraint::Kind(NodeKind::BNode),
        ])));
        assert_eq!(constraint_sat(&c), Sat3::Sat);
    }

    #[test]
    fn conj_api_over_separate_constraints() {
        let a = NodeConstraint::Kind(NodeKind::Literal);
        let b = NodeConstraint::Kind(NodeKind::NonLiteral);
        assert_eq!(conj_sat(&[&a, &b]), Sat3::Unsat);
        let c = NodeConstraint::Datatype(xsd::INTEGER.into());
        assert_eq!(conj_sat(&[&a, &c]), Sat3::Sat);
    }

    #[test]
    fn decimal_lexical_rendering() {
        assert_eq!(decimal_lexical(55, 1), "5.5");
        assert_eq!(decimal_lexical(-55, 1), "-5.5");
        assert_eq!(decimal_lexical(5, 0), "5");
        assert_eq!(decimal_lexical(5, 3), "0.005");
        assert_eq!(decimal_lexical(-5, 3), "-0.005");
    }

    #[test]
    fn lattice_order() {
        assert!(Sat3::Unsat < Sat3::Unknown && Sat3::Unknown < Sat3::Sat);
        assert_eq!(Sat3::Sat.min(Sat3::Unsat), Sat3::Unsat);
        assert_eq!(Sat3::Unknown.max(Sat3::Sat), Sat3::Sat);
    }
}
