//! Shared parsing infrastructure: a character cursor with line/column
//! tracking and the escape decoders of the cursor-based parsers (Turtle,
//! ShExC, shape maps, SPARQL). The byte-level N-Triples scanner shares
//! their one-letter escape table.

use std::fmt;

/// A parse error with 1-based line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column of the error.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Builds an error at a position.
    pub fn new(line: usize, column: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseError {}

/// An error loading a document from a stream: the stream failed, or the
/// text it gave is not a valid document.
#[derive(Debug)]
pub enum ReadError {
    /// Reading the stream failed.
    Io(std::io::Error),
    /// The text is malformed, at this position.
    Parse(ParseError),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<ParseError> for ReadError {
    fn from(e: ParseError) -> Self {
        ReadError::Parse(e)
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => e.fmt(f),
            ReadError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadError {}

/// A peekable character cursor over the input, tracking line/column.
///
/// Public so the ShExC and SPARQL parsers in sibling crates can share it.
pub struct Cursor<'a> {
    input: &'a str,
    /// Byte offset of the next unread char.
    pos: usize,
    line: usize,
    column: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `input`.
    pub fn new(input: &'a str) -> Self {
        Cursor {
            input,
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    /// The next unread character, if any.
    pub fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    /// The character after the next one.
    pub fn peek2(&self) -> Option<char> {
        let mut it = self.input[self.pos..].chars();
        it.next();
        it.next()
    }

    /// Remaining unread input (for keyword lookahead).
    pub fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// Consumes and returns the next character.
    pub fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.pos += ch.len_utf8();
        if ch == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(ch)
    }

    /// Consumes `ch` if it is next; returns whether it did.
    pub fn eat(&mut self, ch: char) -> bool {
        if self.peek() == Some(ch) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consumes the exact string `s` if the input starts with it.
    pub fn eat_str(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            for _ in s.chars() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    /// Case-insensitive variant of [`Cursor::eat_str`] for SPARQL-style
    /// `PREFIX` / `BASE` keywords.
    pub fn eat_str_ci(&mut self, s: &str) -> bool {
        if self.starts_with_ci(s) {
            for _ in s.chars() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    /// Does the remaining input start with `s`, ASCII-case-insensitively?
    /// Safe on any input: a non-char-boundary prefix simply doesn't match.
    pub fn starts_with_ci(&self, s: &str) -> bool {
        self.rest()
            .get(..s.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(s))
    }

    /// [`Cursor::starts_with_ci`] plus a word-boundary check: the keyword
    /// must not be followed by an identifier character.
    pub fn starts_with_keyword_ci(&self, kw: &str) -> bool {
        self.starts_with_ci(kw)
            && self.rest()[kw.len()..]
                .chars()
                .next()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_'))
    }

    /// True when all input has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Builds a [`ParseError`] at the current position.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.column, message)
    }

    /// Skips whitespace and `#`-to-end-of-line comments.
    pub fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }
}

/// Decodes a `\uXXXX` (4 hex digits) or `\UXXXXXXXX` (8 hex digits) escape
/// body already positioned after the backslash and size char.
pub fn decode_unicode_escape(cur: &mut Cursor<'_>, digits: usize) -> Result<char, ParseError> {
    let mut value: u32 = 0;
    for _ in 0..digits {
        let c = cur
            .bump()
            .ok_or_else(|| cur.error("unterminated unicode escape"))?;
        let d = c
            .to_digit(16)
            .ok_or_else(|| cur.error(format!("invalid hex digit '{c}' in unicode escape")))?;
        value = value * 16 + d;
    }
    char::from_u32(value).ok_or_else(|| cur.error(format!("invalid code point U+{value:X}")))
}

/// Decodes one string escape following a backslash (the backslash itself is
/// already consumed).
pub fn decode_string_escape(cur: &mut Cursor<'_>) -> Result<char, ParseError> {
    let c = cur
        .bump()
        .ok_or_else(|| cur.error("unterminated escape sequence"))?;
    match c {
        'u' => decode_unicode_escape(cur, 4),
        'U' => decode_unicode_escape(cur, 8),
        other => unescape_char(other)
            .ok_or_else(|| cur.error(format!("invalid escape sequence '\\{other}'"))),
    }
}

/// The char a one-letter string escape (`\t`, `\n`, `\"`, ...) stands for;
/// `None` for a letter that is no such escape (`u`/`U` take digits and are
/// decoded by their callers).
pub(crate) fn unescape_char(c: char) -> Option<char> {
    Some(match c {
        't' => '\t',
        'b' => '\u{8}',
        'n' => '\n',
        'r' => '\r',
        'f' => '\u{c}',
        '"' => '"',
        '\'' => '\'',
        '\\' => '\\',
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_tracks_lines_and_columns() {
        let mut c = Cursor::new("ab\ncd");
        assert_eq!(c.bump(), Some('a'));
        assert_eq!(c.bump(), Some('b'));
        assert_eq!(c.bump(), Some('\n'));
        let err = c.error("x");
        assert_eq!((err.line, err.column), (2, 1));
        assert_eq!(c.bump(), Some('c'));
        let err = c.error("x");
        assert_eq!((err.line, err.column), (2, 2));
    }

    #[test]
    fn skip_ws_and_comments_skips_both() {
        let mut c = Cursor::new("  # comment\n\t x");
        c.skip_ws_and_comments();
        assert_eq!(c.peek(), Some('x'));
    }

    #[test]
    fn eat_str_ci_matches_any_case() {
        let mut c = Cursor::new("PrEfIx foo");
        assert!(c.eat_str_ci("prefix"));
        assert_eq!(c.peek(), Some(' '));
    }

    #[test]
    fn unicode_escape_decoding() {
        let mut c = Cursor::new("0041");
        assert_eq!(decode_unicode_escape(&mut c, 4).unwrap(), 'A');
        let mut c = Cursor::new("0001F600");
        assert_eq!(decode_unicode_escape(&mut c, 8).unwrap(), '😀');
        let mut c = Cursor::new("zzzz");
        assert!(decode_unicode_escape(&mut c, 4).is_err());
    }

    #[test]
    fn string_escape_decoding() {
        for (src, want) in [("n", '\n'), ("t", '\t'), ("\\", '\\'), ("\"", '"')] {
            let mut c = Cursor::new(src);
            assert_eq!(decode_string_escape(&mut c).unwrap(), want);
        }
        let mut c = Cursor::new("q");
        assert!(decode_string_escape(&mut c).is_err());
    }

    #[test]
    fn error_display_includes_position() {
        let e = ParseError::new(3, 7, "boom");
        assert_eq!(e.to_string(), "3:7: boom");
    }
}
