//! A Brzozowski-derivative string regular-expression engine.
//!
//! This is the 1964 construction the paper builds on ("Brzozowski proposed
//! a method for directly implementing a regular expression recognizer based
//! on regular expression derivatives", §1). It serves two roles here:
//!
//! * it implements the ShEx `PATTERN` string facet (full-match semantics,
//!   as in XML Schema patterns), and
//! * it is the baseline for experiment E8, demonstrating that derivative
//!   matchers are immune to the catastrophic backtracking of naive
//!   recursive matchers on patterns like `(a|a)*`.
//!
//! Character classes follow the Owens–Reppy–Turon treatment the paper cites
//! (\[21\]): a class is a set of ranges, possibly negated, so large alphabets
//! (Unicode) need no per-symbol enumeration.

use std::collections::HashMap;
use std::sync::Arc;

/// A set of character ranges, possibly negated. Ranges are kept sorted and
/// disjoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CharClass {
    ranges: Vec<(char, char)>,
    negated: bool,
}

impl CharClass {
    /// A class containing exactly `c`.
    pub fn single(c: char) -> Self {
        CharClass {
            ranges: vec![(c, c)],
            negated: false,
        }
    }

    /// A class of inclusive ranges, optionally negated.
    pub fn ranges(mut ranges: Vec<(char, char)>, negated: bool) -> Self {
        ranges.sort();
        CharClass { ranges, negated }
    }

    /// `.` — any character.
    pub fn any() -> Self {
        CharClass {
            ranges: vec![],
            negated: true,
        }
    }

    /// Membership test.
    pub fn contains(&self, c: char) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
        inside != self.negated
    }
}

/// A regular expression over strings. Construct via the smart constructors
/// on [`Re`] or by parsing with [`Regex::new`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Re {
    /// `∅` — rejects everything.
    Empty,
    /// `ε` — accepts only the empty string.
    Epsilon,
    /// A character class (single symbols included).
    Class(CharClass),
    /// Sequential composition.
    Concat(Arc<Re>, Arc<Re>),
    /// Alternation (kept flattened and sorted).
    Alt(Arc<Re>, Arc<Re>),
    /// Kleene closure.
    Star(Arc<Re>),
}

impl Re {
    /// Wraps a class as an expression.
    pub fn class(c: CharClass) -> Arc<Re> {
        Arc::new(Re::Class(c))
    }

    /// An expression matching exactly `c`.
    pub fn char(c: char) -> Arc<Re> {
        Re::class(CharClass::single(c))
    }

    /// Smart constructor: `ε·r = r`, `r·ε = r`, `∅·r = r·∅ = ∅`.
    pub fn concat(a: Arc<Re>, b: Arc<Re>) -> Arc<Re> {
        match (&*a, &*b) {
            (Re::Empty, _) | (_, Re::Empty) => Arc::new(Re::Empty),
            (Re::Epsilon, _) => b,
            (_, Re::Epsilon) => a,
            _ => Arc::new(Re::Concat(a, b)),
        }
    }

    /// Smart constructor: `∅|r = r`, `r|r = r`, plus flattening into a
    /// canonical sorted alternation. Without the canonical form,
    /// derivative *states* of patterns like `(a|aa)*` grow as unbalanced
    /// alternation trees and matching degrades to exponential — the
    /// normalisation Owens–Reppy–Turon §4.1 prescribes (associativity,
    /// commutativity, idempotence of `+`).
    pub fn alt(a: Arc<Re>, b: Arc<Re>) -> Arc<Re> {
        fn gather(r: &Arc<Re>, out: &mut Vec<Arc<Re>>) {
            match &**r {
                Re::Empty => {}
                Re::Alt(x, y) => {
                    gather(x, out);
                    gather(y, out);
                }
                _ => out.push(r.clone()),
            }
        }
        let mut alts = Vec::new();
        gather(&a, &mut alts);
        gather(&b, &mut alts);
        alts.sort();
        alts.dedup();
        let Some(last) = alts.pop() else {
            return Arc::new(Re::Empty);
        };
        alts.into_iter()
            .rev()
            .fold(last, |acc, r| Arc::new(Re::Alt(r, acc)))
    }

    /// Smart constructor: `(r*)* = r*`, `ε* = ε`, `∅* = ε`.
    pub fn star(r: Arc<Re>) -> Arc<Re> {
        match &*r {
            Re::Empty | Re::Epsilon => Arc::new(Re::Epsilon),
            Re::Star(_) => r,
            _ => Arc::new(Re::Star(r)),
        }
    }

    /// `ν(r)`: does `r` accept the empty string?
    pub fn nullable(&self) -> bool {
        match self {
            Re::Empty | Re::Class(_) => false,
            Re::Epsilon | Re::Star(_) => true,
            Re::Concat(a, b) => a.nullable() && b.nullable(),
            Re::Alt(a, b) => a.nullable() || b.nullable(),
        }
    }

    /// Brzozowski derivative `∂c(r)`.
    pub fn derivative(self: &Arc<Re>, c: char) -> Arc<Re> {
        match &**self {
            Re::Empty | Re::Epsilon => Arc::new(Re::Empty),
            Re::Class(cls) => {
                if cls.contains(c) {
                    Arc::new(Re::Epsilon)
                } else {
                    Arc::new(Re::Empty)
                }
            }
            Re::Concat(a, b) => {
                let da_b = Re::concat(a.derivative(c), b.clone());
                if a.nullable() {
                    Re::alt(da_b, b.derivative(c))
                } else {
                    da_b
                }
            }
            Re::Alt(a, b) => Re::alt(a.derivative(c), b.derivative(c)),
            Re::Star(r) => Re::concat(r.derivative(c), self.clone()),
        }
    }
}

/// A compiled pattern with full-match semantics (XSD pattern style: the
/// whole string must match, no implicit anchors needed).
///
/// ```
/// use shapex_shex::strre::Regex;
/// let re = Regex::new(r"97[89]-\d{10}").unwrap();
/// assert!(re.is_match("978-0441172719"));
/// assert!(!re.is_match("978-0441172719 extra")); // full match
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    re: Arc<Re>,
    source: String,
}

impl Regex {
    /// Parses a pattern. Supported syntax: literals, `.`, `|`,
    /// concatenation, `*` `+` `?` `{m}` `{m,}` `{m,n}`, groups `(...)`,
    /// classes `[a-z]` / `[^a-z]`, and escapes `\d \D \w \W \s \S \n \r \t`
    /// plus escaped metacharacters.
    pub fn new(pattern: &str) -> Result<Regex, String> {
        let mut p = PatternParser {
            chars: pattern.chars().collect(),
            pos: 0,
        };
        let re = p.alternation()?;
        if p.pos != p.chars.len() {
            return Err(format!("unexpected '{}' at {}", p.chars[p.pos], p.pos));
        }
        Ok(Regex {
            re,
            source: pattern.to_string(),
        })
    }

    /// The original pattern source.
    pub fn as_str(&self) -> &str {
        &self.source
    }

    /// The compiled AST — exposed for the E8 baseline comparison
    /// ([`backtrack_match`]) and for tests.
    pub fn ast(&self) -> &Arc<Re> {
        &self.re
    }

    /// Wraps an already-built AST (for differential testing against the
    /// structural matchers).
    pub fn from_ast(re: Arc<Re>) -> Regex {
        Regex {
            source: format!("{re:?}"),
            re,
        }
    }

    /// Full-match test by iterated derivatives: `O(|input| × |state|)`,
    /// no backtracking.
    pub fn is_match(&self, input: &str) -> bool {
        let mut state = self.re.clone();
        for c in input.chars() {
            if matches!(*state, Re::Empty) {
                return false; // derivative is ∅: fail fast
            }
            state = state.derivative(c);
        }
        state.nullable()
    }

    /// Like [`Regex::is_match`] but memoises derivative states, giving the
    /// DFA-construction-on-the-fly behaviour of \[21\]. Worth it for long
    /// inputs over small alphabets.
    pub fn is_match_memo(&self, input: &str) -> bool {
        let mut memo: HashMap<(Re, char), Arc<Re>> = HashMap::new();
        let mut state = self.re.clone();
        for c in input.chars() {
            if matches!(*state, Re::Empty) {
                return false;
            }
            let key = ((*state).clone(), c);
            state = match memo.get(&key) {
                Some(next) => next.clone(),
                None => {
                    let next = state.derivative(c);
                    memo.insert(key, next.clone());
                    next
                }
            };
        }
        state.nullable()
    }
}

/// A deliberately naive backtracking matcher over the same `Re` AST — the
/// E8 baseline. Exponential on patterns like `(a|a)*` against non-matching
/// inputs.
pub fn backtrack_match(re: &Arc<Re>, input: &str) -> bool {
    let chars: Vec<char> = input.chars().collect();
    // `try_match(re, i, k)`: match `re` against some prefix of chars[i..],
    // calling k with the index after the consumed prefix.
    fn try_match(re: &Arc<Re>, chars: &[char], i: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
        match &**re {
            Re::Empty => false,
            Re::Epsilon => k(i),
            Re::Class(c) => {
                if i < chars.len() && c.contains(chars[i]) {
                    k(i + 1)
                } else {
                    false
                }
            }
            Re::Concat(a, b) => try_match(a, chars, i, &mut |j| try_match(b, chars, j, k)),
            Re::Alt(a, b) => try_match(a, chars, i, k) || try_match(b, chars, i, k),
            Re::Star(r) => {
                if k(i) {
                    return true;
                }
                try_match(r, chars, i, &mut |j| {
                    // require progress to avoid ε-loops
                    j > i && try_match(re, chars, j, k)
                })
            }
        }
    }
    try_match(re, &chars, 0, &mut |i| i == chars.len())
}

struct PatternParser {
    chars: Vec<char>,
    pos: usize,
}

impl PatternParser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn alternation(&mut self) -> Result<Arc<Re>, String> {
        let mut e = self.sequence()?;
        while self.peek() == Some('|') {
            self.bump();
            e = Re::alt(e, self.sequence()?);
        }
        Ok(e)
    }

    fn sequence(&mut self) -> Result<Arc<Re>, String> {
        let mut e = Arc::new(Re::Epsilon);
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            e = Re::concat(e, self.repeated()?);
        }
        Ok(e)
    }

    fn repeated(&mut self) -> Result<Arc<Re>, String> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.bump();
                    e = Re::star(e);
                }
                Some('+') => {
                    self.bump();
                    e = Re::concat(e.clone(), Re::star(e));
                }
                Some('?') => {
                    self.bump();
                    e = Re::alt(e, Arc::new(Re::Epsilon));
                }
                Some('{') => {
                    self.bump();
                    let (m, n) = self.bounds()?;
                    e = repeat(e, m, n);
                }
                _ => return Ok(e),
            }
        }
    }

    fn bounds(&mut self) -> Result<(u32, Option<u32>), String> {
        let m = self.number()?;
        match self.bump() {
            Some('}') => Ok((m, Some(m))),
            Some(',') => {
                if self.peek() == Some('}') {
                    self.bump();
                    return Ok((m, None));
                }
                let n = self.number()?;
                if self.bump() != Some('}') {
                    return Err("expected '}' after bounds".into());
                }
                if n < m {
                    return Err(format!("invalid bounds {{{m},{n}}}"));
                }
                Ok((m, Some(n)))
            }
            _ => Err("expected '}' or ',' in bounds".into()),
        }
    }

    fn number(&mut self) -> Result<u32, String> {
        let mut n: u32 = 0;
        let mut any = false;
        while let Some(c) = self.peek() {
            if let Some(d) = c.to_digit(10) {
                n = n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(d))
                    .ok_or("bound too large")?;
                any = true;
                self.bump();
            } else {
                break;
            }
        }
        if any {
            Ok(n)
        } else {
            Err("expected number".into())
        }
    }

    fn atom(&mut self) -> Result<Arc<Re>, String> {
        match self.bump() {
            None => Err("unexpected end of pattern".into()),
            Some('(') => {
                let e = self.alternation()?;
                if self.bump() != Some(')') {
                    return Err("unclosed group".into());
                }
                Ok(e)
            }
            Some('[') => self.char_class(),
            Some('.') => Ok(Re::class(CharClass::any())),
            Some('\\') => self.escape().map(Re::class),
            Some(c) if "*+?{}|)".contains(c) => Err(format!("unexpected '{c}'")),
            Some(c) => Ok(Re::char(c)),
        }
    }

    fn escape(&mut self) -> Result<CharClass, String> {
        let c = self.bump().ok_or("trailing backslash")?;
        Ok(match c {
            'd' => CharClass::ranges(vec![('0', '9')], false),
            'D' => CharClass::ranges(vec![('0', '9')], true),
            'w' => CharClass::ranges(vec![('0', '9'), ('A', 'Z'), ('_', '_'), ('a', 'z')], false),
            'W' => CharClass::ranges(vec![('0', '9'), ('A', 'Z'), ('_', '_'), ('a', 'z')], true),
            's' => CharClass::ranges(vec![('\t', '\n'), ('\r', '\r'), (' ', ' ')], false),
            'S' => CharClass::ranges(vec![('\t', '\n'), ('\r', '\r'), (' ', ' ')], true),
            'n' => CharClass::single('\n'),
            'r' => CharClass::single('\r'),
            't' => CharClass::single('\t'),
            c => CharClass::single(c), // escaped metacharacter
        })
    }

    fn char_class(&mut self) -> Result<Arc<Re>, String> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        loop {
            let c = match self.bump() {
                None => return Err("unclosed character class".into()),
                Some(']') if !ranges.is_empty() || negated => break,
                Some(']') => break, // empty class: matches nothing
                Some('\\') => {
                    let cls = self.escape()?;
                    // Only single-char escapes make sense inside a range;
                    // multi-range escapes are unioned in directly.
                    if cls.ranges.len() == 1 && cls.ranges[0].0 == cls.ranges[0].1 && !cls.negated {
                        cls.ranges[0].0
                    } else {
                        ranges.extend(cls.ranges.iter().copied());
                        continue;
                    }
                }
                Some(c) => c,
            };
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.bump(); // '-'
                let hi = self.bump().ok_or("unclosed range")?;
                if hi < c {
                    return Err(format!("invalid range {c}-{hi}"));
                }
                ranges.push((c, hi));
            } else {
                ranges.push((c, c));
            }
        }
        Ok(Re::class(CharClass::ranges(ranges, negated)))
    }
}

/// `r{m,n}` as derivative-friendly expansion (patterns keep small bounds,
/// so expansion is fine here, unlike shape expressions).
fn repeat(e: Arc<Re>, m: u32, n: Option<u32>) -> Arc<Re> {
    let mut out = Arc::new(Re::Epsilon);
    for _ in 0..m {
        out = Re::concat(out, e.clone());
    }
    match n {
        None => Re::concat(out, Re::star(e)),
        Some(n) => {
            for _ in m..n {
                out = Re::concat(out, Re::alt(e.clone(), Arc::new(Re::Epsilon)));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, s: &str) -> bool {
        Regex::new(pat).unwrap().is_match(s)
    }

    #[test]
    fn literal_full_match() {
        assert!(m("abc", "abc"));
        assert!(!m("abc", "ab"));
        assert!(!m("abc", "abcd")); // full-match semantics
        assert!(!m("abc", "xabc"));
    }

    #[test]
    fn alternation_and_grouping() {
        assert!(m("a|b", "a"));
        assert!(m("a|b", "b"));
        assert!(!m("a|b", "c"));
        assert!(m("(ab|cd)e", "abe"));
        assert!(m("(ab|cd)e", "cde"));
    }

    #[test]
    fn quantifiers() {
        assert!(m("a*", ""));
        assert!(m("a*", "aaaa"));
        assert!(!m("a+", ""));
        assert!(m("a+", "aaa"));
        assert!(m("a?", ""));
        assert!(m("a?", "a"));
        assert!(!m("a?", "aa"));
    }

    #[test]
    fn bounded_repetition() {
        assert!(m("a{3}", "aaa"));
        assert!(!m("a{3}", "aa"));
        assert!(m("a{2,4}", "aa"));
        assert!(m("a{2,4}", "aaaa"));
        assert!(!m("a{2,4}", "aaaaa"));
        assert!(m("a{2,}", "aaaaaaa"));
        assert!(!m("a{2,}", "a"));
    }

    #[test]
    fn character_classes() {
        assert!(m("[a-c]+", "abcba"));
        assert!(!m("[a-c]+", "abd"));
        assert!(m("[^0-9]", "x"));
        assert!(!m("[^0-9]", "5"));
        assert!(m("[a-cx]", "x"));
    }

    #[test]
    fn dot_matches_any() {
        assert!(m(".", "x"));
        assert!(m(".", "λ"));
        assert!(!m(".", ""));
        assert!(!m(".", "ab"));
        assert!(m(".*", "anything at all"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"\d{4}", "2015"));
        assert!(!m(r"\d{4}", "201x"));
        assert!(m(r"\w+", "snake_case9"));
        assert!(m(r"\s", " "));
        assert!(m(r"a\.b", "a.b"));
        assert!(!m(r"a\.b", "axb"));
        assert!(m(r"\(x\)", "(x)"));
        assert!(m(r"\D", "x"));
        assert!(!m(r"\D", "7"));
        assert!(!m(r"\W", "x"));
        assert!(!m(r"\S", "\t"));
    }

    #[test]
    fn escape_class_inside_brackets() {
        assert!(m(r"[\d-]+", "12-34"));
        assert!(!m(r"[\d]+", "a"));
    }

    #[test]
    fn mail_style_pattern() {
        let pat = r"[\w.]+@[\w]+\.[a-z]{2,4}";
        assert!(m(pat, "john.doe@example.org"));
        assert!(!m(pat, "not-an-email"));
    }

    #[test]
    fn nullable_cases() {
        assert!(Regex::new("a*").unwrap().re.nullable());
        assert!(Regex::new("").unwrap().re.nullable());
        assert!(!Regex::new("a").unwrap().re.nullable());
        assert!(Regex::new("a?b?").unwrap().re.nullable());
    }

    #[test]
    fn derivative_of_class() {
        let r = Re::char('a');
        assert!(matches!(*r.derivative('a'), Re::Epsilon));
        assert!(matches!(*r.derivative('b'), Re::Empty));
    }

    #[test]
    fn smart_constructors_simplify() {
        let a = Re::char('a');
        assert!(matches!(
            *Re::concat(Arc::new(Re::Empty), a.clone()),
            Re::Empty
        ));
        assert_eq!(Re::concat(Arc::new(Re::Epsilon), a.clone()), a);
        assert_eq!(Re::alt(a.clone(), a.clone()), a);
        assert!(matches!(*Re::star(Arc::new(Re::Epsilon)), Re::Epsilon));
        let sa = Re::star(a.clone());
        assert_eq!(Re::star(sa.clone()), sa);
    }

    #[test]
    fn memoised_match_agrees() {
        let r = Regex::new(r"(ab)*c?").unwrap();
        for s in ["", "ab", "ababc", "abc", "ba", "c"] {
            assert_eq!(r.is_match(s), r.is_match_memo(s), "input {s:?}");
        }
    }

    #[test]
    fn pathological_pattern_is_fast_with_derivatives() {
        // (a|a)* over a^40 b — naive backtracking takes 2^40 paths.
        let r = Regex::new("(a|a)*").unwrap();
        let input = "a".repeat(40) + "b";
        assert!(!r.is_match(&input)); // returns promptly
        assert!(r.is_match(&"a".repeat(40)));
    }

    #[test]
    fn backtracking_baseline_agrees_on_small_inputs() {
        for (pat, s) in [
            ("a*b", "aaab"),
            ("a*b", "aaa"),
            ("(a|b)*", "abba"),
            ("a{2,3}", "aa"),
            ("a{2,3}", "aaaa"),
            ("(ab|a)(c|bc)", "abc"),
        ] {
            let r = Regex::new(pat).unwrap();
            assert_eq!(
                backtrack_match(&r.re, s),
                r.is_match(s),
                "pattern {pat:?} input {s:?}"
            );
        }
    }

    #[test]
    fn invalid_patterns_error() {
        assert!(Regex::new("(a").is_err());
        assert!(Regex::new("a)").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("[a").is_err());
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("[z-a]").is_err());
        assert!(Regex::new("a{").is_err());
    }

    #[test]
    fn empty_class_matches_nothing() {
        assert!(!m("[]", "a"));
        assert!(!m("[]", ""));
    }
}
