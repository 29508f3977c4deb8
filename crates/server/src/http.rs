//! A minimal HTTP/1.1 server side: just enough request parsing and
//! response writing for the validation endpoints, hand-rolled over
//! [`std::net::TcpStream`] because the build is offline (no hyper, no
//! tokio — the same constraint that put the stand-in crates in
//! `vendor/`).
//!
//! Deliberate simplifications, all safe for a service that fronts trusted
//! infrastructure rather than the open internet:
//!
//! * connections close after each response unless the client *opts in*
//!   with `Connection: keep-alive` (the connection loop in the crate root
//!   then serves more requests off the same socket, up to a per-connection
//!   cap and an idle timeout);
//! * bodies require `Content-Length` (no chunked encoding);
//! * hard caps on header block (16 KiB) and body (16 MiB) — a request
//!   over either is refused, not buffered, so a misbehaving client
//!   cannot balloon server memory;
//! * a socket read timeout bounds how long a slow client can hold a
//!   worker (slowloris protection).

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request-line + header block.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// How long a worker waits on a slow client before giving up.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request: method, decoded path, query pairs, body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... — uppercased as received.
    pub method: String,
    /// Path without the query string, e.g. `/validate`.
    pub path: String,
    /// Decoded `key=value` query pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the client sent `Connection: keep-alive`. Persistence is
    /// strictly opt-in — absent the header the server closes after the
    /// response, exactly like the pre-keep-alive protocol.
    pub keep_alive: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A request refused at the protocol layer, with the status to answer.
#[derive(Debug)]
pub struct HttpError {
    /// HTTP status code to respond with.
    pub status: u16,
    /// Human-readable reason, included in the error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Reads and parses one request from the stream. `Err(Ok(e))`-style
/// layering is avoided: IO failures (client gone, timeout) come back as
/// `Err(io::Error)` — nothing to answer; protocol violations come back as
/// `Ok(Err(HttpError))` — answer with that status.
///
/// Takes the connection's long-lived [`BufReader`] rather than the bare
/// stream so bytes buffered past one request's body (a pipelining client)
/// are still there when the keep-alive loop reads the next request. The
/// caller owns the read timeout (first-request vs keep-alive idle).
pub fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Result<Request, HttpError>> {
    let mut head = Vec::new();
    // Read header lines up to the blank separator, enforcing the cap.
    loop {
        let mut line = Vec::new();
        let n = read_limited_line(reader, &mut line, MAX_HEADER_BYTES)?;
        if n == 0 {
            // EOF before a full request: client went away.
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        head.extend_from_slice(&line);
        if head.len() > MAX_HEADER_BYTES {
            return Ok(Err(HttpError::new(431, "request header block too large")));
        }
        if line == b"\r\n" || line == b"\n" {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(Err(HttpError::new(400, "malformed request line")));
    };

    let mut content_length = 0usize;
    let mut keep_alive = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = match value.trim().parse() {
                Ok(n) => n,
                Err(_) => return Ok(Err(HttpError::new(400, "bad Content-Length"))),
            };
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list, case-insensitive; "close" anywhere wins.
            let mut close = false;
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                } else if token.eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
            if close {
                keep_alive = false;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(HttpError::new(413, "request body too large")));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = match String::from_utf8(body) {
        Ok(b) => b,
        Err(_) => return Ok(Err(HttpError::new(400, "request body is not UTF-8"))),
    };

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();

    Ok(Ok(Request {
        method: method.to_ascii_uppercase(),
        path: percent_decode(path),
        query,
        body,
        keep_alive,
    }))
}

/// `read_until(b'\n')` with a byte cap, so an endless header line cannot
/// grow the buffer without bound.
fn read_limited_line(
    reader: &mut impl BufRead,
    out: &mut Vec<u8>,
    cap: usize,
) -> io::Result<usize> {
    let mut total = 0usize;
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => return Ok(total),
            _ => {
                out.push(byte[0]);
                total += 1;
                if byte[0] == b'\n' || total > cap {
                    return Ok(total);
                }
            }
        }
    }
}

/// Minimal `%XX` + `+` decoding for paths and query values.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let decoded = bytes
                    .get(i + 1..i + 3)
                    .and_then(|hex| std::str::from_utf8(hex).ok())
                    .and_then(|hex| u8::from_str_radix(hex, 16).ok());
                match decoded {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                        continue;
                    }
                    // Malformed escape: pass the '%' through.
                    None => out.push(b'%'),
                }
            }
            b'+' => out.push(b' '),
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Writes one response and flushes. `extra_headers` are appended verbatim
/// after the standard set. `close` selects the `Connection` header: the
/// connection loop passes `false` only when the client opted into
/// keep-alive and the loop will actually serve another request.
///
/// Head and body leave in one vectored write (looping only on short
/// writes), so the response is never split into a small head segment
/// that Nagle's algorithm holds back until the client's delayed ACK. The
/// body is not copied.
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    let reason = reason_phrase(status);
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bufs = [IoSlice::new(head.as_bytes()), IoSlice::new(body.as_bytes())];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// A JSON error body: `{"error": "..."}` with the given status. Error
/// responses always close — after a refused request the framing on the
/// connection is no longer trustworthy.
pub fn respond_error(stream: &mut impl Write, status: u16, message: &str) -> io::Result<()> {
    let body =
        serde_json::to_string(&serde_json::json!({ "error": message })).expect("error JSON") + "\n";
    respond(stream, status, "application/json", &[], &body, true)
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::{percent_decode, respond};
    use std::io::{self, IoSlice, Write};

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("%2Fpath"), "/path");
        // Malformed escapes pass through instead of panicking.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    const BODY: &str = "{\"status\":\"ok\"}\n";
    const EXPECTED: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
        Content-Length: 16\r\nConnection: keep-alive\r\nX-Shapex-Exit: 0\r\n\r\n\
        {\"status\":\"ok\"}\n";

    fn respond_to(w: &mut impl Write) -> io::Result<()> {
        respond(
            w,
            200,
            "application/json",
            &[("X-Shapex-Exit", "0")],
            BODY,
            false,
        )
    }

    /// A socket that takes every byte it is offered and counts the write
    /// calls it saw.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.bytes.len();
            for b in bufs {
                self.bytes.extend_from_slice(b);
            }
            Ok(self.bytes.len() - before)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A socket that accepts at most `limit` bytes per call, across
    /// slice boundaries, and is interrupted once before every success.
    struct Short {
        bytes: Vec<u8>,
        limit: usize,
        interrupt: bool,
    }

    impl Write for Short {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut budget = self.limit;
            for b in bufs {
                let take = b.len().min(budget);
                self.bytes.extend_from_slice(&b[..take]);
                budget -= take;
            }
            Ok(self.limit - budget)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn head_and_body_leave_in_one_write() {
        let mut w = Counting::default();
        respond_to(&mut w).unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(String::from_utf8(w.bytes).unwrap(), EXPECTED);
    }

    #[test]
    fn short_writes_still_deliver_the_whole_response() {
        for limit in [1, 7, EXPECTED.len() - 1] {
            let mut w = Short {
                bytes: Vec::new(),
                limit,
                interrupt: false,
            };
            respond_to(&mut w).unwrap();
            assert_eq!(
                String::from_utf8(w.bytes).unwrap(),
                EXPECTED,
                "limit {limit}"
            );
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = respond_to(&mut Full).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
