//! A Turtle parser covering the language subset real-world shape data uses:
//! prefixes and base (both `@` and SPARQL styles), IRIs with unicode
//! escapes, prefixed names with local escapes, the `a` keyword, predicate
//! (`;`) and object (`,`) lists, all literal forms (short/long,
//! single/double quoted, language tags, datatypes, numeric and boolean
//! shorthand), blank node labels, anonymous blank nodes / property lists
//! (`[...]`), and RDF collections `( ... )`.

use std::collections::HashMap;

use crate::graph::{Dataset, Triple};
use crate::parser::{decode_string_escape, decode_unicode_escape, Cursor, ParseError};
use crate::pool::TermPool;
use crate::term::{Literal, Term};
use crate::vocab::{rdf, xsd};

/// Parses a Turtle document into a fresh [`Dataset`], whose graph is built
/// packed once the document is read.
pub fn parse(input: &str) -> Result<Dataset, ParseError> {
    let mut ds = Dataset::new();
    parse_into(input, &mut ds)?;
    Ok(ds)
}

/// Parses a Turtle document, adding its triples into an existing dataset
/// (terms are interned into the dataset's pool) in one batch once the
/// document is read. On error, the triples parsed before the error have
/// been added.
pub fn parse_into(input: &str, dataset: &mut Dataset) -> Result<(), ParseError> {
    let (triples, outcome) = parse_triples(input, &mut dataset.pool);
    dataset.graph.insert_all(triples, dataset.pool.len());
    outcome
}

/// The triples of a Turtle document in document order, repeats included,
/// with their terms interned into `pool`; on error, the triples parsed
/// before the error, beside it.
pub(crate) fn parse_triples(
    input: &str,
    pool: &mut TermPool,
) -> (Vec<Triple>, Result<(), ParseError>) {
    parse_triples_in(input, pool, &mut Directives::default())
}

/// The `@prefix` and `@base` declarations in force, carried from one
/// [`parse_triples_in`] call to the next.
#[derive(Debug, Default)]
pub(crate) struct Directives {
    prefixes: HashMap<String, String>,
    base: Option<String>,
}

/// [`parse_triples`] with `scope`'s declarations in force; the input's
/// own declarations are added to `scope`.
pub(crate) fn parse_triples_in(
    input: &str,
    pool: &mut TermPool,
    scope: &mut Directives,
) -> (Vec<Triple>, Result<(), ParseError>) {
    if let Some(msg) = crate::failpoint::check("turtle-parse") {
        let error = ParseError::new(1, 1, format!("injected failure: {msg}"));
        return (Vec::new(), Err(error));
    }
    let mut parser = TurtleParser::new(input, pool);
    parser.prefixes = std::mem::take(&mut scope.prefixes);
    parser.base = scope.base.take();
    let outcome = parser.run();
    (scope.prefixes, scope.base) = (parser.prefixes, parser.base);
    (parser.triples, outcome)
}

/// Best-effort parse of a possibly-corrupt Turtle document: statements that
/// fail to parse are skipped — recovering at the next statement-terminating
/// `.` — and reported alongside whatever parsed cleanly.
///
/// Recovery is per *statement*, so one corrupt line does not poison the
/// rest of the document; prefix/base directives seen before the corruption
/// still apply after it. Triples emitted by the salvageable head of a
/// corrupt statement (e.g. the first objects of a `;`/`,` list) are kept.
pub fn parse_lenient(input: &str) -> (Dataset, Vec<ParseError>) {
    let mut ds = Dataset::new();
    let errors = parse_lenient_into(input, &mut ds);
    (ds, errors)
}

/// [`parse_lenient`] into an existing dataset; returns the skipped
/// statements' errors (empty when the document is clean).
pub fn parse_lenient_into(input: &str, dataset: &mut Dataset) -> Vec<ParseError> {
    let mut parser = TurtleParser::new(input, &mut dataset.pool);
    let mut errors = Vec::new();
    loop {
        parser.cur.skip_ws_and_comments();
        if parser.cur.at_end() {
            break;
        }
        if let Err(e) = parser.statement() {
            errors.push(e);
            parser.recover_to_statement_boundary();
        }
    }
    dataset.graph.insert_all(parser.triples, dataset.pool.len());
    errors
}

struct TurtleParser<'a, 'd> {
    cur: Cursor<'a>,
    pool: &'d mut TermPool,
    /// The triples parsed so far, in document order.
    triples: Vec<Triple>,
    prefixes: HashMap<String, String>,
    base: Option<String>,
    next_anon: usize,
    /// How many `[`/`(` groups are open at the current position. Only
    /// consulted by lenient recovery: an error inside a property list or
    /// collection must not treat a `.` inside the still-open group as the
    /// enclosing statement's terminator.
    depth: i32,
}

impl<'a, 'd> TurtleParser<'a, 'd> {
    fn new(input: &'a str, pool: &'d mut TermPool) -> Self {
        TurtleParser {
            cur: Cursor::new(input),
            pool,
            triples: Vec::new(),
            prefixes: HashMap::new(),
            base: None,
            next_anon: 0,
            depth: 0,
        }
    }

    /// Interns a triple's terms and records it.
    fn emit(&mut self, subject: Term, predicate: Term, object: Term) {
        let triple = Triple::new(
            self.pool.intern(subject),
            self.pool.intern(predicate),
            self.pool.intern(object),
        );
        self.triples.push(triple);
    }

    fn run(&mut self) -> Result<(), ParseError> {
        loop {
            self.cur.skip_ws_and_comments();
            if self.cur.at_end() {
                return Ok(());
            }
            self.statement()?;
        }
    }

    fn statement(&mut self) -> Result<(), ParseError> {
        if self.cur.eat_str("@prefix") {
            self.prefix_directive()?;
            self.expect('.')?;
            return Ok(());
        }
        if self.cur.eat_str("@base") {
            self.base_directive()?;
            self.expect('.')?;
            return Ok(());
        }
        // SPARQL-style directives: keyword must be followed by whitespace so
        // that prefixed names like `prefix:x` are not swallowed.
        if self.peek_keyword_ci("PREFIX") {
            self.cur.eat_str_ci("PREFIX");
            self.prefix_directive()?;
            return Ok(());
        }
        if self.peek_keyword_ci("BASE") {
            self.cur.eat_str_ci("BASE");
            self.base_directive()?;
            return Ok(());
        }
        self.triples()?;
        self.expect('.')
    }

    /// Skips forward to just past the next statement-terminating `.` — a
    /// dot followed by whitespace, a comment, or end of input — stepping
    /// over string literals, IRIs, and comments so a `.` inside them does
    /// not end recovery early. Bracket-aware: when the error struck inside
    /// a `[...]` property list or `(...)` collection, a `.` inside the
    /// still-open group belongs to the corrupt statement, so recovery only
    /// accepts a terminator once every open group has been closed again —
    /// otherwise the tail of the group would be replayed as phantom
    /// statements.
    fn recover_to_statement_boundary(&mut self) {
        let mut depth = self.depth;
        self.depth = 0;
        while let Some(c) = self.cur.peek() {
            match c {
                '.' => {
                    self.cur.bump();
                    if depth <= 0
                        && self
                            .cur
                            .peek()
                            .is_none_or(|n| n.is_whitespace() || n == '#')
                    {
                        return;
                    }
                }
                '[' | '(' => {
                    depth += 1;
                    self.cur.bump();
                }
                ']' | ')' => {
                    depth -= 1;
                    self.cur.bump();
                }
                '#' => {
                    while let Some(c) = self.cur.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                '"' | '\'' => self.skip_string_tolerant(c),
                '<' => {
                    self.cur.bump();
                    while let Some(c) = self.cur.bump() {
                        // An IRI never spans lines; give up at one so an
                        // unterminated `<` cannot swallow the document.
                        if c == '>' || c == '\n' {
                            break;
                        }
                    }
                }
                _ => {
                    self.cur.bump();
                }
            }
        }
    }

    /// Skips a (possibly long-form, possibly unterminated) string literal
    /// during recovery. Unterminated short strings stop at the line end.
    fn skip_string_tolerant(&mut self, quote: char) {
        let delim3: String = std::iter::repeat_n(quote, 3).collect();
        if self.cur.rest().starts_with(&delim3) {
            for _ in 0..3 {
                self.cur.bump();
            }
            while !self.cur.at_end() {
                if self.cur.rest().starts_with(&delim3) {
                    for _ in 0..3 {
                        self.cur.bump();
                    }
                    return;
                }
                if self.cur.peek() == Some('\\') {
                    self.cur.bump();
                }
                self.cur.bump();
            }
            return;
        }
        self.cur.bump();
        while let Some(c) = self.cur.bump() {
            match c {
                '\\' => {
                    self.cur.bump();
                }
                '\n' => return,
                c if c == quote => return,
                _ => {}
            }
        }
    }

    fn peek_keyword_ci(&self, kw: &str) -> bool {
        self.cur.starts_with_ci(kw)
            && self.cur.rest()[kw.len()..]
                .chars()
                .next()
                .is_some_and(char::is_whitespace)
    }

    fn prefix_directive(&mut self) -> Result<(), ParseError> {
        self.cur.skip_ws_and_comments();
        let name = self.pname_ns()?;
        self.cur.skip_ws_and_comments();
        let iri = self.iriref()?;
        self.prefixes.insert(name, iri);
        self.cur.skip_ws_and_comments();
        Ok(())
    }

    fn base_directive(&mut self) -> Result<(), ParseError> {
        self.cur.skip_ws_and_comments();
        let iri = self.iriref()?;
        self.base = Some(iri);
        self.cur.skip_ws_and_comments();
        Ok(())
    }

    /// `PNAME_NS`: the `name:` before a prefix IRI (name may be empty).
    fn pname_ns(&mut self) -> Result<String, ParseError> {
        let mut name = String::new();
        while let Some(c) = self.cur.peek() {
            if c == ':' {
                self.cur.bump();
                return Ok(name);
            }
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                name.push(c);
                self.cur.bump();
            } else {
                break;
            }
        }
        Err(self.cur.error("expected ':' terminating prefix name"))
    }

    fn triples(&mut self) -> Result<(), ParseError> {
        self.cur.skip_ws_and_comments();
        let subject = if self.cur.peek() == Some('[') {
            let node = self.blank_node_property_list()?;
            self.cur.skip_ws_and_comments();
            // `[ ... ] .` is a valid statement on its own.
            if self.cur.peek() == Some('.') {
                return Ok(());
            }
            node
        } else if self.cur.peek() == Some('(') {
            self.collection()?
        } else {
            self.subject()?
        };
        self.predicate_object_list(&subject)
    }

    fn predicate_object_list(&mut self, subject: &Term) -> Result<(), ParseError> {
        loop {
            self.cur.skip_ws_and_comments();
            let predicate = self.verb()?;
            loop {
                self.cur.skip_ws_and_comments();
                let object = self.object()?;
                self.emit(subject.clone(), predicate.clone(), object);
                self.cur.skip_ws_and_comments();
                if !self.cur.eat(',') {
                    break;
                }
            }
            if !self.cur.eat(';') {
                return Ok(());
            }
            self.cur.skip_ws_and_comments();
            // Trailing `;` before `.` or `]` is allowed.
            if matches!(self.cur.peek(), Some('.') | Some(']') | None) {
                return Ok(());
            }
            // Multiple consecutive semicolons are also allowed.
            while self.cur.eat(';') {
                self.cur.skip_ws_and_comments();
            }
            if matches!(self.cur.peek(), Some('.') | Some(']') | None) {
                return Ok(());
            }
        }
    }

    fn verb(&mut self) -> Result<Term, ParseError> {
        // `a` keyword: must be followed by a delimiter.
        if self.cur.peek() == Some('a') {
            let next = self.cur.peek2();
            if next.is_none_or(|c| c.is_whitespace() || c == '<' || c == '[' || c == '#') {
                self.cur.bump();
                return Ok(Term::iri(rdf::TYPE));
            }
        }
        let term = self.iri_term()?;
        if !term.is_valid_predicate() {
            return Err(self.cur.error("predicate must be an IRI"));
        }
        Ok(term)
    }

    fn subject(&mut self) -> Result<Term, ParseError> {
        let term = match self.cur.peek() {
            Some('_') => self.blank_node_label()?,
            _ => self.iri_term()?,
        };
        if !term.is_valid_subject() {
            return Err(self.cur.error("subject must be an IRI or blank node"));
        }
        Ok(term)
    }

    fn object(&mut self) -> Result<Term, ParseError> {
        match self.cur.peek() {
            Some('<') => self.iri_term(),
            Some('_') => self.blank_node_label(),
            Some('[') => self.blank_node_property_list(),
            Some('(') => self.collection(),
            Some('"') | Some('\'') => self.rdf_literal(),
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' || c == '.' => {
                self.numeric_literal()
            }
            Some('t') if self.keyword_boolean() => {
                self.cur.eat_str("true");
                Ok(Term::Literal(Literal::boolean(true)))
            }
            Some('f') if self.keyword_boolean() => {
                self.cur.eat_str("false");
                Ok(Term::Literal(Literal::boolean(false)))
            }
            Some(_) => self.iri_term(),
            None => Err(self.cur.error("unexpected end of input, expected object")),
        }
    }

    /// True if the input starts with `true` or `false` followed by a
    /// delimiter (so that prefixed names like `true:x` are untouched).
    fn keyword_boolean(&self) -> bool {
        let rest = self.cur.rest();
        for kw in ["true", "false"] {
            if let Some(after) = rest.strip_prefix(kw) {
                let ok = after.chars().next().is_none_or(|c| {
                    c.is_whitespace() || matches!(c, '.' | ';' | ',' | ')' | ']' | '#')
                });
                if ok {
                    return true;
                }
            }
        }
        false
    }

    fn blank_node_label(&mut self) -> Result<Term, ParseError> {
        if !self.cur.eat_str("_:") {
            return Err(self.cur.error("expected blank node label"));
        }
        let mut label = String::new();
        while let Some(c) = self.cur.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                label.push(c);
                self.cur.bump();
            } else if c == '.' {
                // '.' is allowed inside labels but not at the end.
                match self.cur.peek2() {
                    Some(n) if n.is_alphanumeric() || n == '_' || n == '-' => {
                        label.push(c);
                        self.cur.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        if label.is_empty() {
            return Err(self.cur.error("empty blank node label"));
        }
        Ok(Term::blank(label))
    }

    fn fresh_blank(&mut self) -> Term {
        let t = Term::blank(format!("gen{}", self.next_anon));
        self.next_anon += 1;
        t
    }

    fn blank_node_property_list(&mut self) -> Result<Term, ParseError> {
        self.expect('[')?;
        self.depth += 1;
        let node = self.fresh_blank();
        self.cur.skip_ws_and_comments();
        if self.cur.eat(']') {
            self.depth -= 1;
            return Ok(node);
        }
        self.predicate_object_list(&node)?;
        self.cur.skip_ws_and_comments();
        self.expect(']')?;
        self.depth -= 1;
        Ok(node)
    }

    fn collection(&mut self) -> Result<Term, ParseError> {
        self.expect('(')?;
        self.depth += 1;
        let mut items = Vec::new();
        loop {
            self.cur.skip_ws_and_comments();
            if self.cur.eat(')') {
                self.depth -= 1;
                break;
            }
            items.push(self.object()?);
        }
        // Build the rdf:first/rdf:rest list back-to-front.
        let mut tail = Term::iri(rdf::NIL);
        for item in items.into_iter().rev() {
            let cell = self.fresh_blank();
            self.emit(cell.clone(), Term::iri(rdf::FIRST), item);
            self.emit(cell.clone(), Term::iri(rdf::REST), tail);
            tail = cell;
        }
        Ok(tail)
    }

    fn iri_term(&mut self) -> Result<Term, ParseError> {
        if self.cur.peek() == Some('<') {
            let iri = self.iriref()?;
            return Ok(Term::iri(iri));
        }
        self.prefixed_name()
    }

    fn iriref(&mut self) -> Result<String, ParseError> {
        self.expect('<')?;
        let mut iri = String::new();
        loop {
            let c = self
                .cur
                .bump()
                .ok_or_else(|| self.cur.error("unterminated IRI"))?;
            match c {
                '>' => break,
                '\\' => match self.cur.bump() {
                    Some('u') => iri.push(decode_unicode_escape(&mut self.cur, 4)?),
                    Some('U') => iri.push(decode_unicode_escape(&mut self.cur, 8)?),
                    _ => return Err(self.cur.error("invalid escape in IRI")),
                },
                c if c.is_whitespace() || matches!(c, '<' | '"' | '{' | '}' | '|' | '^' | '`') => {
                    return Err(self
                        .cur
                        .error(format!("character '{c}' not allowed in IRI")))
                }
                c => iri.push(c),
            }
        }
        Ok(self.resolve(&iri))
    }

    /// Resolves a possibly-relative IRI against the current base.
    /// Covers the forms Turtle data uses in practice: absolute IRIs pass
    /// through; fragments append to the base; other relative references
    /// replace the base's last path segment.
    fn resolve(&self, iri: &str) -> String {
        let has_scheme = iri.split_once(':').is_some_and(|(scheme, _)| {
            !scheme.is_empty()
                && scheme
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
                && scheme
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic())
        });
        if has_scheme {
            return iri.to_string();
        }
        let Some(base) = &self.base else {
            return iri.to_string();
        };
        if iri.is_empty() {
            return base.clone();
        }
        if let Some(frag) = iri.strip_prefix('#') {
            let stem = base.split('#').next().unwrap_or(base);
            return format!("{stem}#{frag}");
        }
        if iri.starts_with("//") {
            let scheme = base.split(':').next().unwrap_or("http");
            return format!("{scheme}:{iri}");
        }
        if let Some(abs_path) = iri.strip_prefix('/') {
            // Authority-relative: keep scheme://host.
            if let Some(scheme_end) = base.find("://") {
                let after = &base[scheme_end + 3..];
                let host_end = after
                    .find('/')
                    .map(|i| scheme_end + 3 + i)
                    .unwrap_or(base.len());
                return format!("{}/{}", &base[..host_end], abs_path);
            }
            return format!("{base}/{abs_path}");
        }
        // Path-relative: replace everything after the last '/'.
        match base.rfind('/') {
            Some(i) => format!("{}{}", &base[..=i], iri),
            None => format!("{base}{iri}"),
        }
    }

    fn prefixed_name(&mut self) -> Result<Term, ParseError> {
        let prefix = {
            let mut p = String::new();
            while let Some(c) = self.cur.peek() {
                if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                    p.push(c);
                    self.cur.bump();
                } else {
                    break;
                }
            }
            p
        };
        if !self.cur.eat(':') {
            return Err(self
                .cur
                .error(format!("expected ':' after prefix '{prefix}'")));
        }
        let ns = self
            .prefixes
            .get(&prefix)
            .ok_or_else(|| self.cur.error(format!("undefined prefix '{prefix}:'")))?;
        let mut iri = ns.clone();
        // PN_LOCAL with escapes; '.' only if followed by another local char.
        while let Some(c) = self.cur.peek() {
            match c {
                '\\' => {
                    self.cur.bump();
                    let e = self
                        .cur
                        .bump()
                        .ok_or_else(|| self.cur.error("unterminated local escape"))?;
                    if matches!(
                        e,
                        '_' | '~'
                            | '.'
                            | '-'
                            | '!'
                            | '$'
                            | '&'
                            | '\''
                            | '('
                            | ')'
                            | '*'
                            | '+'
                            | ','
                            | ';'
                            | '='
                            | '/'
                            | '?'
                            | '#'
                            | '@'
                            | '%'
                    ) {
                        iri.push(e);
                    } else {
                        return Err(self.cur.error(format!("invalid local escape '\\{e}'")));
                    }
                }
                '.' => match self.cur.peek2() {
                    Some(n) if is_local_char(n) || n == '\\' => {
                        iri.push('.');
                        self.cur.bump();
                    }
                    _ => break,
                },
                c if is_local_char(c) => {
                    iri.push(c);
                    self.cur.bump();
                }
                _ => break,
            }
        }
        Ok(Term::iri(iri))
    }

    fn rdf_literal(&mut self) -> Result<Term, ParseError> {
        let quote = self.cur.peek().expect("caller checked quote");
        let lexical = self.quoted_string(quote)?;
        // Optional language tag or datatype.
        if self.cur.peek() == Some('@') {
            self.cur.bump();
            let mut lang = String::new();
            while let Some(c) = self.cur.peek() {
                if c.is_ascii_alphanumeric() || c == '-' {
                    lang.push(c);
                    self.cur.bump();
                } else {
                    break;
                }
            }
            if lang.is_empty() {
                return Err(self.cur.error("empty language tag"));
            }
            return Ok(Term::Literal(Literal::lang_string(lexical, &lang)));
        }
        if self.cur.eat_str("^^") {
            let dt = self.iri_term()?;
            let Term::Iri(dt) = dt else {
                return Err(self.cur.error("datatype must be an IRI"));
            };
            return Ok(Term::Literal(Literal::typed(lexical, dt.as_str())));
        }
        Ok(Term::Literal(Literal::string(lexical)))
    }

    fn quoted_string(&mut self, quote: char) -> Result<String, ParseError> {
        // Long form: three quotes.
        let long = {
            let mut buf = [0u8; 4];
            let q = quote.encode_utf8(&mut buf).repeat(3);
            self.cur.eat_str(&q)
        };
        if !long {
            self.expect(quote)?;
        }
        let mut s = String::new();
        loop {
            if long {
                let mut buf = [0u8; 4];
                let q = quote.encode_utf8(&mut buf).repeat(3);
                if self.cur.eat_str(&q) {
                    return Ok(s);
                }
            }
            let c = self
                .cur
                .bump()
                .ok_or_else(|| self.cur.error("unterminated string literal"))?;
            match c {
                '\\' => s.push(decode_string_escape(&mut self.cur)?),
                c if c == quote && !long => return Ok(s),
                '\n' | '\r' if !long => {
                    return Err(self.cur.error("newline in short string literal"))
                }
                c => s.push(c),
            }
        }
    }

    fn numeric_literal(&mut self) -> Result<Term, ParseError> {
        let mut s = String::new();
        if matches!(self.cur.peek(), Some('+') | Some('-')) {
            s.push(self.cur.bump().expect("peeked sign"));
        }
        let mut has_digits = false;
        let mut has_dot = false;
        let mut has_exp = false;
        while let Some(c) = self.cur.peek() {
            match c {
                '0'..='9' => {
                    has_digits = true;
                    s.push(c);
                    self.cur.bump();
                }
                '.' if !has_dot && !has_exp => {
                    // A trailing '.' is the statement terminator, not part
                    // of the number, unless followed by a digit or exponent.
                    match self.cur.peek2() {
                        Some(n) if n.is_ascii_digit() || n == 'e' || n == 'E' => {
                            has_dot = true;
                            s.push('.');
                            self.cur.bump();
                        }
                        _ => break,
                    }
                }
                'e' | 'E' if has_digits && !has_exp => {
                    has_exp = true;
                    s.push(c);
                    self.cur.bump();
                    if matches!(self.cur.peek(), Some('+') | Some('-')) {
                        s.push(self.cur.bump().expect("peeked sign"));
                    }
                }
                _ => break,
            }
        }
        if !has_digits {
            return Err(self.cur.error("expected numeric literal"));
        }
        let datatype = if has_exp {
            xsd::DOUBLE
        } else if has_dot {
            xsd::DECIMAL
        } else {
            xsd::INTEGER
        };
        Ok(Term::Literal(Literal::typed(s, datatype)))
    }

    fn expect(&mut self, ch: char) -> Result<(), ParseError> {
        self.cur.skip_ws_and_comments();
        if self.cur.eat(ch) {
            Ok(())
        } else {
            Err(self.cur.error(format!(
                "expected '{ch}', found {}",
                self.cur
                    .peek()
                    .map(|c| format!("'{c}'"))
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }
}

fn is_local_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '%' | ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Term, TermRef};
    use crate::vocab::{foaf, xsd};

    fn count(src: &str) -> usize {
        parse(src).unwrap().graph.len()
    }

    #[test]
    fn lenient_clean_document_matches_strict() {
        let src = r#"
            @prefix : <http://example.org/> .
            :a :p 1 . :b :p 2 .
        "#;
        let (ds, errors) = parse_lenient(src);
        assert!(errors.is_empty());
        assert_eq!(ds.graph.len(), parse(src).unwrap().graph.len());
    }

    #[test]
    fn lenient_skips_corrupt_statement() {
        let src = r#"
            @prefix : <http://example.org/> .
            :a :p 1 .
            :b :::!garbage here .
            :c :p 3 .
        "#;
        assert!(parse(src).is_err());
        let (ds, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 1);
        assert!(ds.iri("http://example.org/a").is_some());
        assert!(ds.iri("http://example.org/c").is_some());
        assert_eq!(
            ds.graph
                .triples()
                .filter(|t| ds.pool.term(t.object).as_literal().is_some())
                .count(),
            2
        );
    }

    #[test]
    fn lenient_dot_inside_string_does_not_end_recovery() {
        // The corrupt statement contains a string with ". :x :y" inside —
        // recovery must not resume mid-string.
        let src = "@prefix : <http://example.org/> .\n\
                   :a ::bad \"text with . inside\" more garbage .\n\
                   :c :p 3 .\n";
        let (ds, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 1);
        assert!(ds.iri("http://example.org/c").is_some());
    }

    #[test]
    fn lenient_dot_inside_iri_and_comment_skipped() {
        let src = "@prefix : <http://example.org/> .\n\
                   :a ~~ <http://example.org/v1.2/x> # trailing . comment\n\
                   garbage .\n\
                   :c :p 3 .\n";
        let (ds, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 1);
        assert!(ds.iri("http://example.org/c").is_some());
    }

    #[test]
    fn lenient_error_in_property_list_skips_whole_statement() {
        // The error strikes at depth 1, inside `[...]`. Recovery must not
        // accept the "1." inside the brackets as the statement terminator —
        // that would replay ":x :y :z ." as a phantom statement.
        let src = "@prefix : <http://example.org/> .\n\
                   :a :p [ :q %%% 1. :x :y :z . ] .\n\
                   :b :s 3 .\n";
        let (ds, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            ds.iri("http://example.org/x").is_none(),
            "tail of the corrupt list replayed as a phantom statement"
        );
        assert!(ds.iri("http://example.org/b").is_some());
        assert_eq!(ds.graph.len(), 1);
    }

    #[test]
    fn lenient_error_in_nested_collection_skips_whole_statement() {
        let src = "@prefix : <http://example.org/> .\n\
                   :a :p ( 1 ( @@ 2. :x :y :z . ) ) .\n\
                   :b :s 3 .\n";
        let (ds, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(ds.iri("http://example.org/x").is_none());
        assert!(ds.iri("http://example.org/b").is_some());
    }

    #[test]
    fn lenient_depth_resets_between_statements() {
        // Two corrupt statements, the first inside brackets: the elevated
        // depth from the first must not leak into recovery for the second.
        let src = "@prefix : <http://example.org/> .\n\
                   :a :p [ :q %% ] .\n\
                   :c !! plain garbage .\n\
                   :b :s 3 .\n";
        let (ds, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(ds.iri("http://example.org/b").is_some());
    }

    #[test]
    fn lenient_multiple_corrupt_statements() {
        let src = "@prefix : <http://example.org/> .\n\
                   :a :p 1 .\n\
                   !!bad one .\n\
                   :b :p 2 .\n\
                   ??bad two .\n\
                   :c :p 3 .\n";
        let (ds, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 2);
        assert_eq!(ds.graph.len(), 3);
        // Errors carry real positions for diagnostics.
        assert!(errors.iter().all(|e| e.line > 1));
    }

    #[test]
    fn lenient_prefixes_survive_corruption() {
        // The prefix defined before the corrupt line still resolves after.
        let src = "@prefix p: <http://example.org/> .\n\
                   broken junk .\n\
                   p:a p:q p:b .\n";
        let (ds, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 1);
        assert_eq!(ds.graph.len(), 1);
        assert!(ds.iri("http://example.org/a").is_some());
    }

    #[test]
    fn lenient_unterminated_everything_terminates() {
        for src in [
            "@prefix : <http://e/> .\n:a :p \"never closed",
            "@prefix : <http://e/> .\n:a :p \"\"\"long never closed",
            "@prefix : <http://e/> .\n:a :p <never-closed",
            ":a",
            ".",
        ] {
            let (_, errors) = parse_lenient(src);
            assert!(!errors.is_empty(), "{src:?}");
        }
    }

    #[test]
    fn paper_example_2_graph() {
        let src = r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :john foaf:age 23;
                  foaf:name "John";
                  foaf:knows :bob .
            :bob foaf:age 34;
                 foaf:name "Bob", "Robert" .
            :mary foaf:age 50, 65 .
        "#;
        let ds = parse(src).unwrap();
        assert_eq!(ds.graph.len(), 8);
        let john = ds.iri("http://example.org/john").unwrap();
        assert_eq!(ds.graph.neighbourhood(john).len(), 3);
        let mary = ds.iri("http://example.org/mary").unwrap();
        assert_eq!(ds.graph.neighbourhood(mary).len(), 2);
        // foaf:age 23 is an xsd:integer literal
        let age = ds.iri(foaf::AGE).unwrap();
        let objs: Vec<_> = ds.graph.objects(john, age).collect();
        assert_eq!(objs.len(), 1);
        let TermRef::Literal(l) = ds.pool.term(objs[0]) else {
            panic!("expected literal");
        };
        assert_eq!(l.lexical_form(), "23");
        assert_eq!(l.datatype(), xsd::INTEGER);
    }

    #[test]
    fn sparql_style_directives() {
        let src = r#"
            PREFIX ex: <http://example.org/>
            Base <http://base.org/>
            ex:a ex:p <rel> .
        "#;
        let ds = parse(src).unwrap();
        assert!(ds.iri("http://base.org/rel").is_some());
    }

    #[test]
    fn a_keyword_is_rdf_type() {
        let src = "@prefix : <http://e/> . :x a :Person .";
        let ds = parse(src).unwrap();
        assert!(ds.iri(crate::vocab::rdf::TYPE).is_some());
    }

    #[test]
    fn literal_forms() {
        let src = r#"
            @prefix : <http://e/> .
            @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
            :x :p "plain", "typed"^^xsd:string, "tagged"@en-GB,
                 'single', """long
            string""", '''other long''' .
        "#;
        let ds = parse(src).unwrap();
        assert_eq!(ds.graph.len(), 6);
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::lang_string("tagged", "en-GB")))
            .is_some());
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::string("long\n            string")))
            .is_some());
    }

    #[test]
    fn numeric_shorthand_datatypes() {
        let src = "@prefix : <http://e/> . :x :p 42, -7, 3.14, -0.5, 1.0E3, 2e-2 .";
        let ds = parse(src).unwrap();
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::typed("42", xsd::INTEGER)))
            .is_some());
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::typed("3.14", xsd::DECIMAL)))
            .is_some());
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::typed("1.0E3", xsd::DOUBLE)))
            .is_some());
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::typed("2e-2", xsd::DOUBLE)))
            .is_some());
    }

    #[test]
    fn integer_then_statement_dot() {
        // The trailing dot terminates the statement, not the number.
        let src = "@prefix : <http://e/> . :x :p 42.";
        assert_eq!(count(src), 1);
    }

    #[test]
    fn boolean_shorthand() {
        let src = "@prefix : <http://e/> . :x :p true; :q false .";
        let ds = parse(src).unwrap();
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::boolean(true)))
            .is_some());
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::boolean(false)))
            .is_some());
    }

    #[test]
    fn blank_node_labels_and_anon() {
        let src = "@prefix : <http://e/> . _:b1 :p _:b2 . [] :q [ :r :o ] .";
        let ds = parse(src).unwrap();
        assert_eq!(ds.graph.len(), 3);
        assert!(ds.pool.get(&Term::blank("b1")).is_some());
    }

    #[test]
    fn nested_property_lists() {
        let src = "@prefix : <http://e/> . :x :p [ :q [ :r 1 ]; :s 2 ] .";
        assert_eq!(count(src), 4);
    }

    #[test]
    fn collections_expand_to_first_rest() {
        let src = "@prefix : <http://e/> . :x :p (1 2) .";
        let ds = parse(src).unwrap();
        // :x :p cell1, cell1 first/rest, cell2 first/rest = 5 triples
        assert_eq!(ds.graph.len(), 5);
        assert!(ds.iri(rdf::NIL).is_some());
    }

    #[test]
    fn empty_collection_is_nil() {
        let src = "@prefix : <http://e/> . :x :p () .";
        let ds = parse(src).unwrap();
        assert_eq!(ds.graph.len(), 1);
        let x = ds.iri("http://e/x").unwrap();
        let p = ds.iri("http://e/p").unwrap();
        let o = ds.graph.objects(x, p).next().unwrap();
        assert_eq!(ds.pool.term(o), TermRef::Iri(rdf::NIL));
    }

    #[test]
    fn iri_unicode_escapes() {
        let src = r"@prefix : <http://e/> . <http://e/A\U00000042> :p :o .";
        let ds = parse(src).unwrap();
        assert!(ds.iri("http://e/AB").is_some());
    }

    #[test]
    fn local_name_escapes() {
        let src = r"@prefix ex: <http://e/> . ex:with\,comma ex:p ex:o .";
        let ds = parse(src).unwrap();
        assert!(ds.iri("http://e/with,comma").is_some());
    }

    #[test]
    fn local_name_with_inner_dot() {
        let src = "@prefix ex: <http://e/> . ex:a.b ex:p ex:o .";
        let ds = parse(src).unwrap();
        assert!(ds.iri("http://e/a.b").is_some());
    }

    #[test]
    fn relative_iri_resolution() {
        let src = r#"
            @base <http://example.org/dir/doc> .
            <> <#frag> <other> .
            </abs> <//host/x> <http://full/y> .
        "#;
        let ds = parse(src).unwrap();
        assert!(ds.iri("http://example.org/dir/doc").is_some());
        assert!(ds.iri("http://example.org/dir/doc#frag").is_some());
        assert!(ds.iri("http://example.org/dir/other").is_some());
        assert!(ds.iri("http://example.org/abs").is_some());
        assert!(ds.iri("http://host/x").is_some());
        assert!(ds.iri("http://full/y").is_some());
    }

    #[test]
    fn comments_are_skipped() {
        let src = "# header\n@prefix : <http://e/> . # trailing\n:x :p :o . # end";
        assert_eq!(count(src), 1);
    }

    #[test]
    fn undefined_prefix_is_an_error() {
        let err = parse(":x :p :o .").unwrap_err();
        assert!(err.message.contains("undefined prefix"), "{err}");
    }

    #[test]
    fn unterminated_iri_is_an_error() {
        assert!(parse("<http://e/x :p :o .").is_err());
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse("@prefix : <http://e/> . :x :p \"abc .").is_err());
    }

    #[test]
    fn newline_in_short_string_is_an_error() {
        assert!(parse("@prefix : <http://e/> . :x :p \"a\nb\" .").is_err());
    }

    #[test]
    fn missing_dot_is_an_error() {
        let err = parse("@prefix : <http://e/> . :x :p :o").unwrap_err();
        assert!(err.message.contains("expected '.'"), "{err}");
    }

    #[test]
    fn literal_subject_is_an_error() {
        assert!(parse("@prefix : <http://e/> . \"lit\" :p :o .").is_err());
    }

    #[test]
    fn error_position_is_reported() {
        let err = parse("@prefix : <http://e/> .\n:x :p @bad .").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn trailing_semicolon_allowed() {
        let src = "@prefix : <http://e/> . :x :p :o ; .";
        assert_eq!(count(src), 1);
    }

    #[test]
    fn duplicate_triples_collapse() {
        let src = "@prefix : <http://e/> . :x :p :o . :x :p :o .";
        assert_eq!(count(src), 1);
    }

    #[test]
    fn parse_into_shares_pool() {
        let mut ds = Dataset::new();
        parse_into("@prefix : <http://e/> . :a :p :b .", &mut ds).unwrap();
        parse_into("@prefix : <http://e/> . :b :p :a .", &mut ds).unwrap();
        assert_eq!(ds.graph.len(), 2);
        assert_eq!(ds.pool.len(), 3); // :a, :p, :b shared
    }

    #[test]
    fn long_string_with_embedded_quotes() {
        let src = "@prefix : <http://e/> . :x :p \"\"\"she said \"hi\" twice\"\"\" .".to_string();
        let ds = parse(&src).unwrap();
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::string("she said \"hi\" twice")))
            .is_some());
    }

    #[test]
    fn unicode_escapes_in_strings() {
        let src = r#"@prefix : <http://e/> . :x :p "A\u0042\U00000043" ."#;
        let ds = parse(src).unwrap();
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::string("ABC")))
            .is_some());
    }

    #[test]
    fn empty_prefix_name() {
        // The default (empty) prefix is legal Turtle.
        let src = "@prefix : <http://e/> . : :p :o .";
        let ds = parse(src).unwrap();
        assert!(ds.iri("http://e/").is_some());
    }

    #[test]
    fn base_changes_mid_document() {
        let src = r#"
            @base <http://one.example/dir/> .
            <a> <p> <o> .
            @base <http://two.example/dir/> .
            <a> <p> <o> .
        "#;
        let ds = parse(src).unwrap();
        assert!(ds.iri("http://one.example/dir/a").is_some());
        assert!(ds.iri("http://two.example/dir/a").is_some());
    }

    #[test]
    fn prefix_redefinition_takes_effect() {
        let src =
            "@prefix p: <http://one/> . p:x p:q p:y .\n@prefix p: <http://two/> . p:x p:q p:y .";
        let ds = parse(src).unwrap();
        assert!(ds.iri("http://one/x").is_some());
        assert!(ds.iri("http://two/x").is_some());
    }

    #[test]
    fn nested_collections() {
        let src = "@prefix : <http://e/> . :x :p ((1) (2 3)) .";
        let ds = parse(src).unwrap();
        // outer list: 2 cells (4 triples) + :x:p (1) + inner lists: 1 cell
        // (2) + 2 cells (4) = 11 triples
        assert_eq!(ds.graph.len(), 11);
    }

    #[test]
    fn signed_and_decimal_shorthand_objects() {
        let src = "@prefix : <http://e/> . :x :p +5, -0.25, .5 .";
        let ds = parse(src).unwrap();
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::typed("+5", xsd::INTEGER)))
            .is_some());
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::typed("-0.25", xsd::DECIMAL)))
            .is_some());
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::typed(".5", xsd::DECIMAL)))
            .is_some());
    }

    #[test]
    fn anonymous_subject_statement() {
        let src = "@prefix : <http://e/> . [ :p 1; :q 2 ] .";
        let ds = parse(src).unwrap();
        assert_eq!(ds.graph.len(), 2);
    }

    #[test]
    fn crlf_line_endings() {
        let src = "@prefix : <http://e/> .\r\n:x :p :o .\r\n";
        assert_eq!(parse(src).unwrap().graph.len(), 1);
    }

    #[test]
    fn error_on_literal_predicate() {
        assert!(parse("@prefix : <http://e/> . :x \"p\" :o .").is_err());
    }
}
