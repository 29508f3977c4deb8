//! N-Triples parser: one triple per line, full IRIs only, no abbreviations.
//!
//! Strict subset of Turtle, but implemented as its own parser because
//! N-Triples rejects Turtle-only syntax (prefixed names, `a`, multi-line
//! statements, ...). Per the W3C grammar the format is *strictly
//! line-oriented*: a triple may not span lines, comments are only allowed
//! on otherwise-empty lines or after the terminating `.`, and every error
//! is reported with the 1-based line it occurred on.
//!
//! One byte-level scanner reads every line. It slices each term's text out
//! of the input at ASCII delimiters and hands the pool a borrowed
//! [`TermRef`], so a term that is already interned costs no allocation.
//! Only an IRI or literal with a `\` escape is decoded into an owned
//! buffer, and only a language tag with upper-case letters is lowercased
//! into one. Error columns count chars, as the other parsers' do; the
//! scanner works out a column only when it reports an error.
//!
//! Every entry point that builds a [`Dataset`] goes through one loader.
//! It parses blocks of complete lines into the pool and an ordered list of
//! triples, and builds the graph once at the end, packed, with
//! [`Graph::from_triples`]. [`parse`] hands it the whole text as one
//! block. [`read`] hands it a stream in blocks of [`BLOCK_BYTES`], carrying
//! the partial last line of each read over to the next, so the text of a
//! file is never held whole; each block's line count is added to the line
//! numbers of later errors, and a byte that is not UTF-8 is a located
//! error like any other.
//!
//! Line-orientation is also what makes text parallelizable: at `jobs > 1`
//! [`parse_par`] splits the text at line boundaries into chunks, parses
//! them on scoped worker threads with chunk-local term interning, then
//! merges them deterministically into the shared pool — producing a
//! [`Dataset`] *byte-identical* to sequential [`parse`] (same `TermId`
//! assignment, same adjacency order, same first error). [`read`] parses
//! its blocks sequentially: split into 1 MiB blocks, the chunks repeat
//! more of each other's terms, and their merge made a `--jobs 2` load
//! slower than a sequential one (EXPERIMENTS.md E19).

use std::borrow::Cow;
use std::io::Read;

use crate::graph::{Dataset, Graph, Triple};
use crate::parser::{unescape_char, ParseError, ReadError};
use crate::pool::TermPool;
use crate::term::{LiteralRef, TermRef};
use crate::vocab::{rdf, xsd};

/// Parses an N-Triples document into a fresh [`Dataset`], built packed
/// ([`Graph::from_triples`]).
pub fn parse(input: &str) -> Result<Dataset, ParseError> {
    let mut load = Load::default();
    load.text(input)?;
    Ok(load.finish())
}

/// Parses an N-Triples document into an existing dataset, adding its
/// triples in one batch once the text is read; a graph that never held a
/// triple is built packed. Strictly line-oriented. On error, the triples
/// of the lines before the bad one have been added.
pub fn parse_into(input: &str, dataset: &mut Dataset) -> Result<(), ParseError> {
    let pool = &mut dataset.pool;
    let mut triples = Vec::new();
    let outcome = parse_lines(input, 0, &mut |s, p, o| {
        triples.push(Triple::new(
            pool.intern_ref(s),
            pool.intern_ref(p),
            pool.intern_ref(o),
        ));
    });
    dataset.graph.insert_all(triples, dataset.pool.len());
    outcome.map(|_| ())
}

/// Default minimum chunk size for [`parse_par`]: inputs smaller than this
/// per worker aren't worth a thread.
pub const MIN_CHUNK_BYTES: usize = 1 << 16;

/// How many bytes [`read`] takes from its stream at a time. A block is
/// parsed up to its last complete line; a line longer than a block makes
/// the block grow until the line ends.
pub const BLOCK_BYTES: usize = 1 << 20;

/// Parses an N-Triples document on up to `jobs` worker threads.
///
/// The input is split at line boundaries into byte ranges; each worker
/// parses its range into a chunk-local [`TermPool`] and triple list; the
/// merge phase then re-interns each chunk's terms into the shared pool *in
/// chunk order* and replays the triples through it. Because chunk-local
/// interning order is first-occurrence order within the chunk, and
/// interning is idempotent, the merged pool assigns every term exactly the
/// id sequential [`parse`] would — the result is byte-identical, including
/// the first error (workers surface chunk-relative errors; the merge maps
/// the earliest one back to its document line).
pub fn parse_par(input: &str, jobs: usize) -> Result<Dataset, ParseError> {
    parse_par_min_chunk(input, jobs, MIN_CHUNK_BYTES)
}

/// [`parse_par`] with a caller-chosen minimum chunk size. Small documents
/// fall back to sequential parsing under the default threshold; the
/// differential tests pass `min_chunk = 1` so tiny inputs still exercise
/// the chunked path (including torn-seam error handling).
pub fn parse_par_min_chunk(
    input: &str,
    jobs: usize,
    min_chunk: usize,
) -> Result<Dataset, ParseError> {
    let mut load = Load::default();
    load.chunked(input, jobs, min_chunk)?;
    Ok(load.finish())
}

/// Reads an N-Triples document from a stream in blocks of
/// [`BLOCK_BYTES`]. The result, and the first error, are those [`parse`]
/// gives on the whole text; a byte that is not UTF-8 is a [`ParseError`]
/// at its line and column, reported after any syntax error on an earlier
/// line.
pub fn read(reader: impl Read) -> Result<Dataset, ReadError> {
    read_block_size(reader, BLOCK_BYTES)
}

/// [`read`] with a caller-chosen block size. The identity tests pass a few
/// bytes so that lines, CRLF pairs and multibyte chars straddle block
/// boundaries.
pub fn read_block_size(mut reader: impl Read, block_bytes: usize) -> Result<Dataset, ReadError> {
    let block_bytes = block_bytes.max(1);
    let mut load = Load::default();
    let mut buf = Vec::with_capacity(block_bytes);
    loop {
        let old = buf.len();
        // `take` reads until the limit or the end of the stream, so a
        // short read means the end.
        let got = reader
            .by_ref()
            .take(block_bytes as u64)
            .read_to_end(&mut buf)?;
        let at_end = got < block_bytes;
        let end = if at_end {
            buf.len()
        } else {
            // The carried-over bytes hold no '\n': look at the new ones only.
            match buf[old..].iter().rposition(|&b| b == b'\n') {
                Some(i) => old + i + 1,
                None => continue,
            }
        };
        load.bytes(&buf[..end])?;
        buf.drain(..end);
        if at_end {
            return Ok(load.finish());
        }
    }
}

/// What the loader has parsed so far: the pool, every triple in document
/// order (duplicates included), and the number of lines consumed.
#[derive(Default)]
struct Load {
    pool: TermPool,
    triples: Vec<Triple>,
    lines: usize,
}

impl Load {
    /// Parses a block of raw bytes: complete lines, or the rest of the
    /// document. The lines before the first byte that is not UTF-8 are
    /// parsed, so a syntax error among them wins; then that byte is the
    /// error.
    fn bytes(&mut self, bytes: &[u8]) -> Result<(), ParseError> {
        let err = match std::str::from_utf8(bytes) {
            Ok(text) => return self.text(text),
            Err(err) => err,
        };
        let valid = &bytes[..err.valid_up_to()];
        let line_start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let lines = std::str::from_utf8(&valid[..line_start]).expect("prefix of the valid part");
        self.text(lines)?;
        let line = std::str::from_utf8(&valid[line_start..]).expect("suffix of the valid part");
        Err(ParseError::new(
            self.lines + 1,
            line.chars().count() + 1,
            format!("invalid UTF-8 byte 0x{:02X}", bytes[valid.len()]),
        ))
    }

    /// Parses a block of text: complete lines, or the rest of the document.
    fn text(&mut self, text: &str) -> Result<(), ParseError> {
        let Load {
            pool,
            triples,
            lines,
        } = self;
        *lines += parse_lines(text, *lines, &mut |s, p, o| {
            triples.push(Triple::new(
                pool.intern_ref(s),
                pool.intern_ref(p),
                pool.intern_ref(o),
            ));
        })?;
        Ok(())
    }

    /// Parses a block of text on up to `jobs` workers, when it is at least
    /// `min_chunk` bytes per extra worker.
    fn chunked(&mut self, text: &str, jobs: usize, min_chunk: usize) -> Result<(), ParseError> {
        let chunks = split_lines(text, jobs, min_chunk);
        if chunks.len() <= 1 {
            return self.text(text);
        }

        // Each chunk is loaded on its own, with its own pool: its triples
        // hold local ids and its errors chunk-relative lines.
        let parsed: Vec<Result<Load, ParseError>> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&chunk| {
                    s.spawn(move || {
                        let mut load = Load::default();
                        load.text(chunk)?;
                        Ok(load)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("N-Triples worker panicked"))
                .collect()
        });

        // Deterministic merge, in chunk order. Re-interning chunk pools in
        // chunk order reproduces sequential id assignment by induction: a
        // chunk's local pool lists terms in first-occurrence order, so the
        // subset not yet seen globally is interned in exactly the order
        // sequential parsing would first meet it. The first chunk with an
        // error gives the error sequential parsing would: its
        // chunk-relative line plus the lines of every earlier chunk.
        for chunk in parsed {
            let chunk = chunk.map_err(|mut err| {
                err.line += self.lines;
                err
            })?;
            let remap: Vec<_> = chunk
                .pool
                .iter()
                .map(|(_, t)| self.pool.intern_ref(t))
                .collect();
            self.triples.extend(chunk.triples.iter().map(|t| {
                Triple::new(
                    remap[t.subject.index()],
                    remap[t.predicate.index()],
                    remap[t.object.index()],
                )
            }));
            self.lines += chunk.lines;
        }
        Ok(())
    }

    /// The dataset: the pool, and the graph built packed from the triples.
    fn finish(self) -> Dataset {
        let graph = Graph::from_triples(self.triples, self.pool.len());
        Dataset {
            pool: self.pool,
            graph,
        }
    }
}

/// Splits `text` at line boundaries into at most `jobs` chunks of at least
/// about `min_chunk` bytes. Each boundary is advanced to just past the next
/// '\n', so every chunk holds complete lines; byte search keeps the seam
/// scan UTF-8-safe ('\n' never occurs inside a multi-byte char).
fn split_lines(text: &str, jobs: usize, min_chunk: usize) -> Vec<&str> {
    let effective = jobs.max(1).min(text.len() / min_chunk.max(1) + 1);
    if effective <= 1 {
        return vec![text];
    }
    let bytes = text.as_bytes();
    let approx = (text.len() / effective).max(1);
    let mut chunks = Vec::with_capacity(effective);
    let mut start = 0usize;
    while start < text.len() {
        let end = if chunks.len() + 1 == effective {
            text.len()
        } else {
            let end = (start + approx).min(text.len());
            match bytes[end..].iter().position(|&b| b == b'\n') {
                Some(i) => end + i + 1,
                None => text.len(),
            }
        };
        chunks.push(&text[start..end]);
        start = end;
    }
    chunks
}

/// Parses `input` line by line, feeding each triple's terms to `sink` once
/// the whole line has been checked, and returns the number of `'\n'`s read.
/// Errors count lines from `lines_before + 1`. One trailing `'\r'` per line
/// is stripped, so both LF and CRLF documents parse; a `'\r'` anywhere else
/// is an error like any other control character.
fn parse_lines(
    input: &str,
    lines_before: usize,
    sink: &mut impl FnMut(TermRef<'_>, TermRef<'_>, TermRef<'_>),
) -> Result<usize, ParseError> {
    let mut newlines = 0;
    for (i, raw) in input.split('\n').enumerate() {
        newlines = i;
        let mut line = Line {
            text: raw.strip_suffix('\r').unwrap_or(raw),
            pos: 0,
            number: lines_before + i + 1,
        };
        line.skip_ws();
        let subject = match line.peek() {
            None | Some(b'#') => continue, // empty or comment-only line
            Some(b'<') => Scanned::Iri(line.iri()?),
            Some(b'_') => Scanned::Blank(line.blank()?),
            Some(b'"') => return Err(line.error("subject must be an IRI or blank node")),
            Some(_) => return Err(line.got("expected subject")),
        };
        line.skip_ws();
        let predicate = match line.peek() {
            Some(b'<') => Scanned::Iri(line.iri()?),
            Some(_) => return Err(line.got("predicate must be an IRI")),
            None => return Err(line.error("expected predicate before end of line")),
        };
        line.skip_ws();
        let object = match line.peek() {
            Some(b'<') => Scanned::Iri(line.iri()?),
            Some(b'_') => Scanned::Blank(line.blank()?),
            Some(b'"') => line.literal()?,
            Some(_) => return Err(line.got("expected object")),
            None => return Err(line.error("expected object before end of line")),
        };
        line.skip_ws();
        match line.peek() {
            Some(b'.') => line.pos += 1,
            Some(_) => return Err(line.got("expected '.' terminating triple")),
            None => return Err(line.error("expected '.' terminating triple before end of line")),
        }
        line.skip_ws();
        match line.peek() {
            None | Some(b'#') => {}
            Some(_) => {
                let c = line.next_char();
                return Err(line.error(format!(
                    "unexpected '{c}' after triple (one triple per line)"
                )));
            }
        }
        sink(subject.view(), predicate.view(), object.view());
    }
    Ok(newlines)
}

/// A term as scanned from a line: text borrowed from the input, except
/// where an escape or an upper-case language tag had to be rewritten.
enum Scanned<'a> {
    Iri(Cow<'a, str>),
    Blank(&'a str),
    /// Lexical form, datatype IRI, lowercase language tag.
    Literal(Cow<'a, str>, Cow<'a, str>, Option<Cow<'a, str>>),
}

impl Scanned<'_> {
    fn view(&self) -> TermRef<'_> {
        match self {
            Scanned::Iri(iri) => TermRef::Iri(iri),
            Scanned::Blank(label) => TermRef::Blank(label),
            Scanned::Literal(lexical, datatype, lang) => TermRef::Literal(match lang {
                Some(lang) => LiteralRef::tagged(lexical, lang),
                None => LiteralRef::typed(lexical, datatype),
            }),
        }
    }
}

/// One line of the document (without its `'\n'` and one trailing `'\r'`)
/// and the byte offset of the scanner in it. `pos` only ever stops at an
/// ASCII byte, at the end of the line, or just after a whole char, so it is
/// always a char boundary of `text`.
struct Line<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based line number in the document (or chunk).
    number: usize,
}

impl<'a> Line<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The char at `pos`; the caller has seen that the line goes on.
    fn next_char(&self) -> char {
        self.text[self.pos..]
            .chars()
            .next()
            .expect("caller checked that the line goes on")
    }

    /// An error at `pos` naming the char found there.
    fn got(&self, expected: &str) -> ParseError {
        self.error(format!("{expected}, got '{}'", self.next_char()))
    }

    /// Consumes the char at `pos`, if any, and returns it.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.text[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// An error at `pos`. The column is the number of chars before it, plus
    /// one.
    fn error(&self, message: impl Into<String>) -> ParseError {
        let column = self.text[..self.pos].chars().count() + 1;
        ParseError::new(self.number, column, message)
    }

    /// Skips the whitespace the grammar allows between terms: space and tab.
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    /// An IRIREF, from its `<` to its `>`.
    fn iri(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.pos += 1; // '<'
        let mut decoded: Option<String> = None;
        let mut run = self.pos;
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            // Stop at the closing '>', at an escape, and at everything
            // IRIREF forbids raw (controls, space, <"{}|^`), which must be
            // \u-escaped instead.
            let stop = |&b: &u8| {
                matches!(
                    b,
                    0..=0x20 | b'>' | b'\\' | b'<' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`'
                )
            };
            let Some(skip) = rest.iter().position(stop) else {
                self.pos = self.text.len();
                return Err(self.error("unterminated IRI"));
            };
            self.pos += skip;
            match rest[skip] {
                b'>' => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(finish(decoded, tail));
                }
                b'\\' => {
                    let buf = decoded.get_or_insert_with(String::new);
                    buf.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    let c = match self.bump_char() {
                        Some('u') => self.unicode_escape(4)?,
                        Some('U') => self.unicode_escape(8)?,
                        _ => return Err(self.error("invalid escape in IRI (only \\u/\\U allowed)")),
                    };
                    buf.push(c);
                    run = self.pos;
                }
                b => {
                    self.pos += 1;
                    return Err(self.error(format!(
                        "character U+{:04X} not allowed in IRI (use \\u escape)",
                        b
                    )));
                }
            }
        }
    }

    /// A blank node, from its `_:`. A label runs while chars are
    /// alphanumeric (Unicode), `_` or `-`.
    fn blank(&mut self) -> Result<&'a str, ParseError> {
        if !self.text[self.pos..].starts_with("_:") {
            return Err(self.error("expected '_:'"));
        }
        self.pos += 2;
        let start = self.pos;
        while let Some(c) = self.text[self.pos..].chars().next() {
            if !(c.is_alphanumeric() || c == '_' || c == '-') {
                break;
            }
            self.pos += c.len_utf8();
        }
        if self.pos == start {
            return Err(self.error("empty blank node label"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// A literal, from its opening `"` through its tag or datatype.
    fn literal(&mut self) -> Result<Scanned<'a>, ParseError> {
        self.pos += 1; // '"'
        let mut decoded: Option<String> = None;
        let mut run = self.pos;
        let lexical = loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let Some(skip) = rest.iter().position(|&b| matches!(b, b'"' | b'\\' | b'\r')) else {
                self.pos = self.text.len();
                return Err(self.error("unterminated string literal"));
            };
            self.pos += skip;
            match rest[skip] {
                b'"' => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    break finish(decoded, tail);
                }
                b'\\' => {
                    let buf = decoded.get_or_insert_with(String::new);
                    buf.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    buf.push(self.string_escape()?);
                    run = self.pos;
                }
                _ => {
                    // Raw newlines can't reach here (lines are pre-split); a
                    // raw carriage return mid-line is just as forbidden.
                    self.pos += 1;
                    return Err(self.error("carriage return in string literal (use \\r)"));
                }
            }
        };
        if self.peek() == Some(b'@') {
            self.pos += 1;
            let lang = self.lang_tag()?;
            let lang = if lang.bytes().any(|b| b.is_ascii_uppercase()) {
                Cow::Owned(lang.to_ascii_lowercase())
            } else {
                Cow::Borrowed(lang)
            };
            return Ok(Scanned::Literal(
                lexical,
                rdf::LANG_STRING.into(),
                Some(lang),
            ));
        }
        if self.text[self.pos..].starts_with("^^") {
            self.pos += 2;
            if self.peek() != Some(b'<') {
                return Err(self.error("datatype must be an IRI"));
            }
            let datatype = self.iri()?;
            return Ok(Scanned::Literal(lexical, datatype, None));
        }
        Ok(Scanned::Literal(lexical, xsd::STRING.into(), None))
    }

    /// LANGTAG ::= [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*, after its `@`.
    fn lang_tag(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_alphabetic()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("language tag must start with a letter"));
        }
        while self.peek() == Some(b'-') {
            self.pos += 1;
            let subtag = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_alphanumeric()) {
                self.pos += 1;
            }
            if self.pos == subtag {
                return Err(self.error("empty language subtag"));
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// One string escape, after its backslash.
    fn string_escape(&mut self) -> Result<char, ParseError> {
        match self.bump_char() {
            None => Err(self.error("unterminated escape sequence")),
            Some('u') => self.unicode_escape(4),
            Some('U') => self.unicode_escape(8),
            Some(c) => unescape_char(c)
                .ok_or_else(|| self.error(format!("invalid escape sequence '\\{c}'"))),
        }
    }

    /// The hex digits of a `\u` (4) or `\U` (8) escape.
    fn unicode_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        let mut value: u32 = 0;
        for _ in 0..digits {
            let c = self
                .bump_char()
                .ok_or_else(|| self.error("unterminated unicode escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.error(format!("invalid hex digit '{c}' in unicode escape")))?;
            value = value * 16 + d;
        }
        char::from_u32(value).ok_or_else(|| self.error(format!("invalid code point U+{value:X}")))
    }
}

/// A scanned string: the input slice itself when nothing was decoded, else
/// the decoded prefix with the last plain run appended.
fn finish<'a>(decoded: Option<String>, tail: &'a str) -> Cow<'a, str> {
    match decoded {
        None => Cow::Borrowed(tail),
        Some(mut buf) => {
            buf.push_str(tail);
            Cow::Owned(buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Literal, Term};
    use crate::writer;

    #[test]
    fn basic_triples() {
        let src = "<http://e/a> <http://e/p> <http://e/b> .\n\
                   <http://e/a> <http://e/p> \"lit\" .\n";
        let ds = parse(src).unwrap();
        assert_eq!(ds.graph.len(), 2);
    }

    #[test]
    fn typed_and_tagged_literals() {
        let src = concat!(
            "<http://e/a> <http://e/p> \"23\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<http://e/a> <http://e/q> \"hi\"@en .\n"
        );
        let ds = parse(src).unwrap();
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::typed("23", xsd::INTEGER)))
            .is_some());
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::lang_string("hi", "en")))
            .is_some());
    }

    #[test]
    fn blank_nodes() {
        let src = "_:a <http://e/p> _:b .";
        let ds = parse(src).unwrap();
        assert_eq!(ds.graph.len(), 1);
        assert!(ds.pool.get(&Term::blank("a")).is_some());
    }

    #[test]
    fn escapes_in_literals() {
        let src = r#"<http://e/a> <http://e/p> "line\nbreak \"q\" A" ."#;
        let ds = parse(src).unwrap();
        assert!(ds
            .pool
            .get(&Term::Literal(Literal::string("line\nbreak \"q\" A")))
            .is_some());
    }

    #[test]
    fn comments_and_blank_lines() {
        let src = "# comment\n\n<http://e/a> <http://e/p> <http://e/b> . # trailing\n";
        assert_eq!(parse(src).unwrap().graph.len(), 1);
    }

    #[test]
    fn crlf_line_endings() {
        let src = "<http://e/a> <http://e/p> <http://e/b> .\r\n# c\r\n<http://e/a> <http://e/p> <http://e/c> .\r\n";
        assert_eq!(parse(src).unwrap().graph.len(), 2);
    }

    #[test]
    fn rejects_turtle_abbreviations() {
        assert!(parse("ex:a ex:p ex:b .").is_err());
        assert!(parse("<http://e/a> a <http://e/B> .").is_err());
        assert!(parse("<http://e/a> <http://e/p> 42 .").is_err());
    }

    #[test]
    fn rejects_literal_subject() {
        let err = parse("\"lit\" <http://e/p> <http://e/b> .").unwrap_err();
        assert!(err.message.contains("subject"), "{}", err.message);
    }

    #[test]
    fn rejects_blank_predicate() {
        assert!(parse("<http://e/a> _:p <http://e/b> .").is_err());
    }

    #[test]
    fn rejects_literal_datatype() {
        assert!(parse("<http://e/a> <http://e/p> \"x\"^^\"y\" .").is_err());
    }

    #[test]
    fn missing_dot_is_error() {
        assert!(parse("<http://e/a> <http://e/p> <http://e/b>").is_err());
    }

    #[test]
    fn rejects_triple_spanning_lines() {
        // Fail-pre-fix: the old parser skipped arbitrary whitespace
        // (including newlines) between terms, accepting multi-line triples
        // the N-Triples grammar forbids.
        let err = parse("<http://e/a>\n<http://e/p> <http://e/b> .\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("predicate"), "{}", err.message);
    }

    #[test]
    fn rejects_comment_mid_triple() {
        // Fail-pre-fix: comments were skipped *between terms*; the grammar
        // only allows them on empty lines or after the terminating '.'.
        let err = parse("<http://e/a> # oops\n<http://e/p> <http://e/b> .\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_two_triples_on_one_line() {
        let src =
            "<http://e/a> <http://e/p> <http://e/b> . <http://e/a> <http://e/p> <http://e/c> .";
        let err = parse(src).unwrap_err();
        assert!(
            err.message.contains("one triple per line"),
            "{}",
            err.message
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        // Fail-pre-fix (for the multi-line acceptance): errors now name the
        // exact offending line of the document.
        let src = "<http://e/a> <http://e/p> <http://e/b> .\n\
                   \n\
                   <http://e/a> <http://e/p> .\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn rejects_forbidden_chars_in_iri() {
        // Fail-pre-fix: only whitespace was rejected inside <...>; the
        // IRIREF production also forbids <, ", {, }, |, ^, `, and controls.
        for bad in [
            "<http://e/a b>",
            "<http://e/a<b>",
            "<http://e/a\"b>",
            "<http://e/a{b>",
            "<http://e/a|b>",
            "<http://e/a^b>",
            "<http://e/a`b>",
            "<http://e/a\u{7}b>",
        ] {
            let src = format!("{bad} <http://e/p> <http://e/o> .");
            let err = parse(&src).unwrap_err();
            assert_eq!(err.line, 1, "{bad}");
            assert!(err.message.contains("IRI"), "{bad}: {}", err.message);
        }
    }

    #[test]
    fn iri_escape_round_trip() {
        // A \u-escaped forbidden character parses, serializes back as an
        // escape, and re-parses to the same term.
        let src = "<http://e/a\\u0020b> <http://e/p> <http://e/o> .\n";
        let ds = parse(src).unwrap();
        assert!(ds.pool.get(&Term::iri("http://e/a b")).is_some());
        let out = writer::to_ntriples(&ds.graph, &ds.pool);
        assert!(out.contains("<http://e/a\\u0020b>"), "{out}");
        let ds2 = parse(&out).unwrap();
        assert!(ds2.pool.get(&Term::iri("http://e/a b")).is_some());
    }

    #[test]
    fn datatype_escape_round_trip() {
        // A literal's datatype is escaped as an IRI term is, so the
        // printed document parses back to the same literal.
        let src = "<http://e/s> <http://e/p> \"x\"^^<http://e/a\\u0020b> .\n";
        let ds = parse(src).unwrap();
        let typed = Term::Literal(Literal::typed("x", "http://e/a b"));
        assert!(ds.pool.get(&typed).is_some());
        let out = writer::to_ntriples(&ds.graph, &ds.pool);
        assert_eq!(out, src);
        let ds2 = parse(&out).unwrap();
        assert!(ds2.pool.get(&typed).is_some());
        assert_eq!(writer::to_ntriples(&ds2.graph, &ds2.pool), out);
    }

    #[test]
    fn rejects_raw_carriage_return_in_literal() {
        let src = "<http://e/a> <http://e/p> \"a\rb\" .";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("carriage return"), "{}", err.message);
    }

    #[test]
    fn lang_tag_grammar() {
        assert!(parse("<http://e/a> <http://e/p> \"x\"@en .").is_ok());
        assert!(parse("<http://e/a> <http://e/p> \"x\"@en-US .").is_ok());
        assert!(parse("<http://e/a> <http://e/p> \"x\"@en-US-2 .").is_ok());
        // Fail-pre-fix: the old tag scanner took any [a-zA-Z0-9-]+.
        assert!(parse("<http://e/a> <http://e/p> \"x\"@1 .").is_err());
        assert!(parse("<http://e/a> <http://e/p> \"x\"@-en .").is_err());
        assert!(parse("<http://e/a> <http://e/p> \"x\"@en- .").is_err());
    }

    fn sample_doc(lines: usize) -> String {
        let mut doc = String::new();
        for i in 0..lines {
            // Recurring terms across the whole doc force cross-chunk
            // interning overlap; per-line terms force fresh ids.
            doc.push_str(&format!(
                "<http://e/s{}> <http://e/p{}> \"v{i}\"@en .\n",
                i % 97,
                i % 7
            ));
            if i % 13 == 0 {
                doc.push_str("# comment\n\n");
            }
        }
        doc
    }

    fn assert_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.pool.len(), b.pool.len());
        for ((ia, ta), (ib, tb)) in a.pool.iter().zip(b.pool.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(ta, tb);
        }
        assert_eq!(a.graph.triples_sorted(), b.graph.triples_sorted());
        assert_eq!(
            a.graph.subjects().collect::<Vec<_>>(),
            b.graph.subjects().collect::<Vec<_>>()
        );
        for (id, _) in a.pool.iter() {
            assert_eq!(a.graph.neighbourhood(id), b.graph.neighbourhood(id));
            assert_eq!(a.graph.incoming(id), b.graph.incoming(id));
        }
    }

    #[test]
    fn parallel_parse_is_byte_identical() {
        let doc = sample_doc(500);
        let seq = parse(&doc).unwrap();
        for jobs in [2, 3, 4, 7] {
            let par = parse_par_min_chunk(&doc, jobs, 1).unwrap();
            assert_identical(&seq, &par);
        }
    }

    #[test]
    fn parallel_parse_falls_back_sequential_below_threshold() {
        let doc = sample_doc(10);
        let seq = parse(&doc).unwrap();
        let par = parse_par(&doc, 8).unwrap(); // tiny doc: one chunk
        assert_identical(&seq, &par);
    }

    #[test]
    fn parallel_parse_reports_same_error_at_same_line() {
        let mut doc = sample_doc(200);
        doc.push_str("<http://e/bad> <http://e/p> .\n"); // missing object
        doc.push_str(&sample_doc(50));
        let seq_err = parse(&doc).unwrap_err();
        for jobs in [2, 4, 9] {
            let par_err = parse_par_min_chunk(&doc, jobs, 1).unwrap_err();
            assert_eq!(seq_err, par_err, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_parse_reports_earliest_error() {
        // Errors in two different chunks: the merge must surface the first.
        let mut doc = String::new();
        doc.push_str("<http://e/a> <http://e/p> <http://e/b> .\n");
        doc.push_str("broken line one\n");
        doc.push_str(&sample_doc(100));
        doc.push_str("broken line two\n");
        let seq_err = parse(&doc).unwrap_err();
        assert_eq!(seq_err.line, 2);
        let par_err = parse_par_min_chunk(&doc, 6, 1).unwrap_err();
        assert_eq!(seq_err, par_err);
    }

    #[test]
    fn parallel_parse_handles_crlf_and_no_trailing_newline() {
        let doc = sample_doc(120).replace('\n', "\r\n");
        let trimmed = doc.trim_end().to_string(); // no trailing newline
        let seq = parse(&trimmed).unwrap();
        let par = parse_par_min_chunk(&trimmed, 5, 1).unwrap();
        assert_identical(&seq, &par);
    }
}
