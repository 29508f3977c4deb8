//! The `serve-mixed` closed loop: keep-alive connections to a running
//! `shapex serve`, each sending its next request only after the previous
//! reply arrived, and checking every reply against the scenario's
//! reference verdicts.

use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::check::{check_map, check_shacl, check_typing, Section};
use crate::inputs::{Round, ServeScenario, PERSON_PREFIX};
use crate::stats::quantile;

/// One reply: status and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// A keep-alive HTTP/1.1 connection that reconnects, outside the timed
/// part of a request, after the server closed it.
pub struct Conn {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            reader: None,
        }
    }

    /// Sends `POST path` with `body`; returns the reply and the time from
    /// the first byte sent to the last byte received.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(Reply, Duration)> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.reader = Some(BufReader::new(stream));
        }
        let result = self.exchange(path, body);
        if !matches!(result, Ok((_, _, false))) {
            self.reader = None;
        }
        result.map(|(reply, took, _)| (reply, took))
    }

    fn exchange(&mut self, path: &str, body: &str) -> io::Result<(Reply, Duration, bool)> {
        let reader = self.reader.as_mut().expect("connected above");
        let mut msg = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body.as_bytes());
        let start = Instant::now();
        reader.get_mut().write_all(&msg)?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("status line {line:?}"))
            })?;
        let (mut length, mut keep) = (0usize, false);
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "content-length")
                    })?;
                } else if name.eq_ignore_ascii_case("connection") {
                    keep = value.eq_ignore_ascii_case("keep-alive");
                }
            }
        }
        let mut bytes = vec![0u8; length];
        reader.read_exact(&mut bytes)?;
        let took = start.elapsed();
        let body = String::from_utf8(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        Ok((Reply { status, body }, took, keep))
    }
}

/// The request kinds of the mix, in report order.
pub const OPS: [&str; 5] = ["map", "delta", "validate", "shacl", "reload"];

/// Scripted request bodies shared by the HTTP client and the in-process
/// replay.
pub struct Bodies {
    /// `/load` bodies for the two schemas (the ShEx entries' data is the
    /// same in both, so a reload takes the server's warm path).
    pub load: [String; 2],
    pub load_shacl: String,
}

impl Bodies {
    pub fn new(s: &ServeScenario) -> Bodies {
        let shex = |schema: &str| {
            serde_json::to_string(&json!({"schema": schema, "data": s.shex_ttl.as_str()}))
                .expect("plain JSON")
        };
        Bodies {
            load: [shex(&s.schemas[0]), shex(&s.schemas[1])],
            load_shacl: serde_json::to_string(&json!({
                "schema": s.shacl_shapes.as_str(),
                "schema_format": "shacl",
                "data": s.shacl_ttl.as_str(),
            }))
            .expect("plain JSON"),
        }
    }
}

/// The ShEx entry owned by connection `c`. Each connection has its own
/// entry: the registry answers 500 to a request that reaches an entry
/// while another connection's warm `/load` swaps its schema.
pub fn shex_entry(c: usize) -> String {
    format!("shex{c}")
}

pub const SHACL_ENTRY: &str = "shacl";

/// Reference `Named` verdicts: who has a name, with `flipped` toggled.
fn named(s: &ServeScenario, flipped: Option<usize>) -> Vec<bool> {
    let mut v = s.local.clone();
    if let Some(k) = flipped {
        v[k] = !v[k];
    }
    v
}

/// One step of a round: the request kind, path and body, and the gate
/// its reply must pass.
pub struct Step<'a> {
    pub op: &'static str,
    pub entry: String,
    pub endpoint: &'static str,
    pub body: &'a str,
    pub gate: Gate<'a>,
}

pub enum Gate<'a> {
    /// A `/delta` reply: `before` and `after` typings, each given as the
    /// `Person` verdicts and the flipped person (for `Named`).
    Delta {
        before: (&'a [bool], Option<usize>),
        after: (&'a [bool], Option<usize>),
    },
    Map(&'a [usize], &'a [bool]),
    Typing,
    Shacl,
    Loaded,
}

/// The seven requests of one round on connection `c`: apply a delta,
/// map while applied, revert, map, validate both entries, reload the
/// other schema.
pub fn round_steps<'a>(
    s: &'a ServeScenario,
    bodies: &'a Bodies,
    c: usize,
    round: &'a Round,
    next_schema: usize,
) -> Vec<Step<'a>> {
    let entry = shex_entry(c);
    let k = Some(round.flipped);
    let step = |op, endpoint, body, gate| Step {
        op,
        entry: entry.clone(),
        endpoint,
        body,
        gate,
    };
    vec![
        step(
            "delta",
            "delta",
            &round.apply,
            Gate::Delta {
                before: (&s.expected, None),
                after: (&round.applied, k),
            },
        ),
        step(
            "map",
            "map",
            &round.map_applied.0,
            Gate::Map(&round.map_applied.1, &round.applied),
        ),
        step(
            "delta",
            "delta",
            &round.revert,
            Gate::Delta {
                before: (&round.applied, k),
                after: (&s.expected, None),
            },
        ),
        step(
            "map",
            "map",
            &round.map_reverted.0,
            Gate::Map(&round.map_reverted.1, &s.expected),
        ),
        step("validate", "validate", "", Gate::Typing),
        Step {
            op: "shacl",
            entry: SHACL_ENTRY.to_string(),
            endpoint: "validate",
            body: "",
            gate: Gate::Shacl,
        },
        step("reload", "load", &bodies.load[next_schema], Gate::Loaded),
    ]
}

/// Checks a reply against its gate.
pub fn check_reply(s: &ServeScenario, gate: &Gate, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}: {}", body.trim()));
    }
    match gate {
        Gate::Delta { before, after } => {
            for (section, (person, flipped)) in [(Section::Before, before), (Section::After, after)]
            {
                let named = named(s, *flipped);
                check_typing(
                    body,
                    section,
                    PERSON_PREFIX,
                    &[("Person", person), ("Named", &named)],
                )?;
            }
            Ok(())
        }
        Gate::Map(nodes, verdicts) => check_map(body, nodes, verdicts),
        Gate::Typing => check_typing(
            body,
            Section::Top,
            PERSON_PREFIX,
            &[("Person", &s.expected), ("Named", &s.local)],
        ),
        Gate::Shacl => check_shacl(body, &s.shacl_expected),
        Gate::Loaded => match body.contains("\"loaded\"") {
            true => Ok(()),
            false => Err(format!("load reply {}", body.trim())),
        },
    }
}

/// Operations attempted and failed, with the first few errors and the
/// latencies of the timed ones.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Latencies in ms, per entry of [`OPS`].
    latency: [Vec<f64>; 5],
    rounds_s: Vec<f64>,
}

impl Tally {
    /// Writes `attempted`, `failed` and `errors` into `out`.
    pub fn write_counts(&self, out: &mut serde_json::Map<String, Value>) {
        out.insert("attempted".into(), json!(self.attempted));
        out.insert("failed".into(), json!(self.failed));
        let errors = self
            .errors
            .iter()
            .map(|e| Value::from(e.as_str()))
            .collect();
        out.insert("errors".into(), Value::Array(errors));
    }

    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

fn send(conn: &mut Conn, path: &str, body: &str) -> Result<(Reply, Duration), String> {
    conn.post(path, body)
        .map_err(|e| format!("POST {path}: {e}"))
}

/// Loads the three entries cold and warms each with one untimed, checked
/// `/validate`; returns the warm-up reply bodies of connection 0's ShEx
/// entry and of the SHACL entry.
pub fn setup(
    addr: &str,
    s: &ServeScenario,
    bodies: &Bodies,
    connections: usize,
    tally: &mut Tally,
) -> (String, String) {
    let mut conn = Conn::new(addr);
    let mut loads: Vec<(String, &str)> = (0..connections)
        .map(|c| (shex_entry(c), bodies.load[0].as_str()))
        .collect();
    loads.push((SHACL_ENTRY.to_string(), &bodies.load_shacl));
    let mut exchange = |path: String, body: &str, gate: Gate| {
        let reply = send(&mut conn, &path, body);
        let body = reply
            .as_ref()
            .map_or(String::new(), |(r, _)| r.body.clone());
        tally.record(reply.and_then(|(r, _)| check_reply(s, &gate, r.status, &r.body)));
        body
    };
    for (entry, body) in &loads {
        exchange(format!("/load?id={entry}"), body, Gate::Loaded);
    }
    let mut warm: Vec<String> = loads
        .iter()
        .map(|(entry, _)| {
            let gate = if entry == SHACL_ENTRY {
                Gate::Shacl
            } else {
                Gate::Typing
            };
            exchange(format!("/validate?id={entry}"), "", gate)
        })
        .collect();
    let shacl = warm.pop().expect("the SHACL entry was warmed");
    (warm.swap_remove(0), shacl)
}

/// Runs the closed loop for `seconds` on `connections` connections (one
/// thread each). A round that has started always finishes, so every
/// applied delta is reverted. Writes the reply to connection 0's first
/// delta into `dump` when given.
pub fn run(
    addr: &str,
    s: &ServeScenario,
    bodies: &Bodies,
    connections: usize,
    seconds: f64,
    dump: Option<&Path>,
    setup: Tally,
) -> Value {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    connection_loop(addr, s, bodies, c, deadline, dump.filter(|_| c == 0))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let timed = tallies.iter().map(|t| t.attempted - t.failed).sum::<u64>();
    let mut all = setup;
    for t in tallies {
        all.attempted += t.attempted;
        all.failed += t.failed;
        all.errors.extend(t.errors);
        for (mine, theirs) in all.latency.iter_mut().zip(t.latency) {
            mine.extend(theirs);
        }
        all.rounds_s.extend(t.rounds_s);
    }
    let mut ops = serde_json::Map::new();
    for (op, lat) in OPS.iter().zip(all.latency.iter_mut()) {
        ops.insert(
            op.to_string(),
            json!({"n": lat.len(), "p50_ms": quantile(lat, 0.5), "p90_ms": quantile(lat, 0.9)}),
        );
    }
    let mut out = serde_json::Map::new();
    all.write_counts(&mut out);
    out.insert(
        "round_p50_s".into(),
        json!(quantile(&mut all.rounds_s, 0.5)),
    );
    out.insert("rps".into(), json!(timed as f64 / elapsed));
    out.insert("ops".into(), Value::Object(ops));
    Value::Object(out)
}

fn connection_loop(
    addr: &str,
    s: &ServeScenario,
    bodies: &Bodies,
    c: usize,
    deadline: Instant,
    mut dump: Option<&Path>,
) -> Tally {
    let mut conn = Conn::new(addr);
    let mut tally = Tally::default();
    let script = &s.scripts[c];
    let mut schema = 0;
    let mut r = 0;
    while Instant::now() < deadline {
        schema = 1 - schema;
        let round_start = Instant::now();
        for step in round_steps(s, bodies, c, &script[r % script.len()], schema) {
            let path = format!("/{}?id={}", step.endpoint, step.entry);
            let outcome = send(&mut conn, &path, step.body).and_then(|(reply, took)| {
                let op = OPS.iter().position(|&o| o == step.op).expect("known op");
                tally.latency[op].push(took.as_secs_f64() * 1e3);
                if let (Some(dir), "delta") = (dump, step.op) {
                    let _ = fs::write(dir.join("client_delta.json"), &reply.body);
                    dump = None;
                }
                check_reply(s, &step.gate, reply.status, &reply.body)
            });
            tally.record(outcome);
        }
        tally.rounds_s.push(round_start.elapsed().as_secs_f64());
        r += 1;
    }
    tally
}
