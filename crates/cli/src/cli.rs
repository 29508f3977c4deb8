//! Argument handling and command dispatch, kept library-shaped so the whole
//! surface is unit-testable without spawning processes.

use std::fmt::{self, Write as _};
use std::fs;
use std::io::{self, Write};
use std::time::Duration;

use serde_json::{json, Value};
use shapex::report::{self, finish_engine_doc, DeltaRunError, Quoted, ReportDoc, Row, RunStatus};
use shapex::{
    Budget, Closure, CompiledSchema, Engine, EngineConfig, EngineError, Exhaustion, Typing, Verdict,
};
use shapex_backtrack::{BacktrackValidator, BtConfig, BtError, BtStats};
use shapex_rdf::graph::Dataset;
use shapex_rdf::pool::TermPool;
use shapex_rdf::turtle;
use shapex_rdf::writer;
use shapex_rdf::{DataFormat, ReadError};
use shapex_shex::ast::ShapeLabel;
use shapex_shex::sat::Sat3;
use shapex_shex::schema::Schema;
use shapex_shex::shexc;

/// A command that did not end in success, split so the binary can exit
/// with a distinct code for each kind. The output a run produced — a full
/// report, or partial results before a budget tripped — is already
/// written when one of these is returned.
#[derive(Debug)]
pub enum CliError {
    /// Ordinary failure (bad flags, syntax errors, …) — exit code 1.
    /// Nothing was written.
    Msg(String),
    /// Writing the output failed (a closed pipe, a full disk) — exit code
    /// 1. The run stops at the first failed write.
    Write(io::Error),
    /// A resource budget tripped — exit code [`EXHAUSTED_EXIT_CODE`].
    /// Whatever partial results were produced were written first.
    Exhausted(Exhaustion),
    /// The run completed and the answer is "does not conform" — exit code
    /// [`NONCONFORMANT_EXIT_CODE`]. The full report was written.
    NonConforming,
    /// A `check` run completed but the calculus could not decide — exit
    /// code [`EXHAUSTED_EXIT_CODE`], the same "unknown" contract as
    /// exhaustion: the answer might flip with a larger budget or a richer
    /// decision procedure, so neither 0 nor 2 would be honest.
    Undetermined,
}

/// Exit code for budget exhaustion: distinct from 0 (conforms/ran) and 1
/// (error), so scripts can tell "needs a bigger budget" from "is broken".
///
/// Exhaustion takes precedence over [`NONCONFORMANT_EXIT_CODE`]: a run that
/// is both partially exhausted and non-conforming is *incomplete* — the
/// failing verdicts it did produce might flip with a larger budget, so the
/// honest summary is "needs a bigger budget", not "does not conform".
pub const EXHAUSTED_EXIT_CODE: u8 = 3;

/// Exit code for a completed run whose verdict is non-conformance (a
/// `--node`/`--shape` check that fails, or a `--map` run with unexpected
/// verdicts): distinct from 0 (conforms) and 1 (error), the conventional
/// validator contract.
pub const NONCONFORMANT_EXIT_CODE: u8 = 2;

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Msg(m) => m.fmt(f),
            CliError::Write(e) => write!(f, "writing output: {e}"),
            CliError::Exhausted(exhaustion) => exhaustion.fmt(f),
            CliError::NonConforming => "data does not conform".fmt(f),
            CliError::Undetermined => "verdict undetermined".fmt(f),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Msg(m)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Write(e)
    }
}

/// The exit a finished run's status asks for, once its report is written.
fn ended(status: RunStatus) -> Result<(), CliError> {
    match status {
        RunStatus::Conforms => Ok(()),
        RunStatus::NonConforming => Err(CliError::NonConforming),
        RunStatus::Exhausted(exhaustion) => Err(CliError::Exhausted(exhaustion)),
    }
}

fn write_text(w: &mut dyn Write, text: &str) -> Result<(), CliError> {
    w.write_all(text.as_bytes())?;
    Ok(())
}

/// A finished run as the CLI returns it: the report is written whatever
/// the status, and the status picks the exit code.
fn emit(w: &mut dyn Write, report: &str, status: RunStatus) -> Result<(), CliError> {
    write_text(w, report)?;
    ended(status)
}

/// A run a budget stopped: the partial text is written, then the
/// exhaustion is returned.
fn partial(w: &mut dyn Write, text: &str, exhaustion: Exhaustion) -> CliError {
    match w.write_all(text.as_bytes()) {
        Ok(()) => CliError::Exhausted(exhaustion),
        Err(e) => CliError::Write(e),
    }
}

/// Runs a command line, writing its output to `w` as it is produced.
pub fn run(args: &[String], w: &mut dyn Write) -> Result<(), CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("validate") => validate(&parse_flags(it)?, w),
        Some("serve") => serve(&parse_flags(it)?),
        Some("sparql") => write_text(w, &sparql(&parse_flags(it)?)?),
        Some("query") => write_text(w, &query(&parse_flags(it)?)?),
        Some("convert") => write_text(w, &convert(&parse_flags(it)?)?),
        Some("lint") => write_text(w, &lint(&parse_flags(it)?)?),
        Some("check") => check(&parse_flags(it)?, w),
        Some("parse") => write_text(w, &parse_cmd(&parse_flags(it)?)?),
        Some("--help") | Some("-h") | None => write_text(w, USAGE),
        Some(other) => Err(CliError::Msg(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

const USAGE: &str = "shapex — RDF validation with regular expression derivatives

USAGE:
  shapex validate --schema FILE --data FILE [options]
      Validate Turtle data against a ShExC schema. By default computes the
      full typing (every subject × every shape); use --node/--shape to
      check one pair, or --map to drive validation from a shape map.
      --engine derivative|backtracking   validation algorithm (default: derivative)
      --shacl SHAPES [DATA]              SHACL Core mode: read SHAPES as a SHACL
                                         shapes graph (Turtle, or N-Triples for .nt),
                                         compile it onto the derivative engine
                                         (DESIGN.md §5h), and validate the data graph
                                         from the shapes' targets. Emits a
                                         sh:ValidationReport-shaped document with
                                         --report json (byte-identical to the server's
                                         /validate for a shacl entry), a per-result
                                         text listing otherwise. Unsupported SHACL
                                         terms are compile errors (E001..E008; exit 1),
                                         never silently ignored. Incompatible with
                                         --node/--shape/--map/--trace/--delta and
                                         --engine backtracking; the closure is always
                                         open (--open is redundant)
      --node IRI                         focus node to check
      --shape NAME                       shape label to check against
      --map FILE                         shape map of node@<Shape> associations
      --open                             ShEx-style open shapes (default: closed, as in the paper)
      --no-sorbe                         disable the SORBE counting fast path
      --explain                          print failure explanations
      --trace NODE SHAPE                 print the §7 derivative trace for one pair
                                         (also: bare --trace with --node/--shape)
      --stats                            print engine statistics
      --report json                      machine-readable report on stdout: verdict per
                                         (node, shape), rendered failure traces, exhaustion
                                         records, and — always collected in this mode — the
                                         engine metrics block (see DESIGN.md for the schema)
      --lenient                          skip malformed Turtle statements instead of aborting
      --max-steps N                      per-check derivative/rule step budget
      --max-depth N                      per-check recursion depth budget
      --max-arena N                      per-check expression arena growth budget
      --timeout-ms N                     per-check wall-clock budget in milliseconds
                                         (with --jobs > 1, also bounds the whole run)
      --jobs N                           worker threads for full-typing runs
                                         (default: all cores; 1 = sequential). Parallel
                                         runs use the work-stealing scheduler;
                                         typings are byte-identical to sequential at any
                                         value (under budgets, verdicts agree on every
                                         pair both runs answered)
      --delta FILE                       type the graph, apply the delta file ('+'/'-'
                                         op lines of Turtle statements, with @prefix
                                         lines), then incrementally revalidate only the
                                         disturbed pairs; emits one JSON document with
                                         before/after typing reports (needs --report json);
                                         exit code reflects the after run
      Exit codes: 0 conforms/ran, 1 error, 2 does not conform, 3 budget
      exhausted. Exhaustion wins over non-conformance: a partial run's
      failing verdicts might flip with a larger budget.

  shapex serve --schema FILE --data FILE [options]
      Run the resident validation service: one warm engine per loaded
      graph, HTTP endpoints mirroring the CLI report documents
      (POST /validate, /map, /delta; GET /health, /stats; POST /load to
      register more graphs). Report bodies are byte-identical to
      `validate --report json` output; the CLI-style exit code travels in
      an X-Shapex-Exit header. SIGTERM/SIGINT drain gracefully.
      --addr HOST:PORT                   bind address (default 127.0.0.1:7878; :0 = ephemeral)
      --workers N                        request worker threads (default 4)
      --queue N                          accept-queue depth; beyond it connections are
                                         shed with 503 + Retry-After (default 64)
      --jobs N                           per-request typing threads, also the threads
                                         that parse N-Triples data (default 1, the
                                         exact sequential path the CLI smoke diffs)
      --open                             ShEx open-shape semantics
      --max-steps/--max-depth/--max-arena/--timeout-ms
                                         per-request engine budget (as in validate)

  shapex sparql --schema FILE --shape NAME [--node IRI]
      Print the generated SPARQL validation query for a shape
      (per-node ASK when --node is given, else the Example 4-style SELECT).

  shapex query --data FILE (--query FILE | --ask TEXT | --select TEXT)
      Run a SPARQL query (the supported fragment: BGPs, FILTER, OPTIONAL,
      UNION, sub-SELECT, COUNT/GROUP BY/HAVING) on Turtle data.

  shapex lint --schema FILE
      Report likely mistakes in a schema (dead shapes, empty value sets,
      invalid PATTERNs, contradictory constraints, shapes `check` proves
      unsatisfiable). A schema that does not compile is an error.

  shapex check --schema FILE [options]
      Exact schema calculus over the compiled shapes (DESIGN.md §5f).
      Default mode: per-shape emptiness — proves each shape's language
      empty (unsatisfiable: no neighbourhood can ever conform) or
      inhabited. Exits 2 if any shape is proven unsatisfiable — that proof
      cannot flip, so it outranks undetermined shapes — else 3 if any
      shape is undetermined, else 0.
      --containment A B                  decide L(A) ⊆ L(B) by a budgeted product
                                         construction over neighbourhood letters:
                                         exit 0 contained, 2 a counterexample
                                         neighbourhood exists, 3 undetermined or
                                         budget exhausted (never a hang)
      --schema-delta NEW                 diff this schema against NEW: classify every
                                         shape unchanged/changed/added/removed
                                         (containment both ways, modulo reference
                                         names) and close over reverse references to
                                         the affected set. With --data FILE, type the
                                         data under the old schema, transplant every
                                         reusable verdict, and re-type only affected
                                         shapes — the typing is byte-identical to a
                                         from-scratch run under NEW
      --open                             open-shape letter semantics (must match how
                                         the shapes will be validated)
      --data FILE, --jobs N, --report json, and the budget flags as in
      validate.

  shapex convert --schema FILE [--to shexc|shexj]
      Convert a schema between the compact syntax (ShExC) and the JSON
      interchange form (ShExJ). Input format is detected from content.

  shapex parse --data FILE [--to ntriples|turtle]
      Parse Turtle (or, for .nt files, N-Triples) and re-serialize it.

  Data files ending in .nt are parsed as strict, line-oriented N-Triples
  everywhere a --data flag is accepted; all other files are parsed as
  Turtle. validate, check and parse read an .nt file in blocks of
  complete lines on one thread; serve reads its --data file whole and
  parses N-Triples on --jobs threads.
";

struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn parse_flags<'a>(it: impl Iterator<Item = &'a str>) -> Result<Flags, String> {
    const SWITCHES: [&str; 6] = ["open", "explain", "stats", "no-sorbe", "trace", "lenient"];
    // Flags taking one value, across every subcommand. Anything neither
    // here, in `SWITCHES`, nor one of the positional forms below is an
    // error: a mistyped budget flag must not silently run unbudgeted.
    const VALUES: [&str; 21] = [
        "schema",
        "data",
        "engine",
        "node",
        "shape",
        "map",
        "report",
        "delta",
        "max-steps",
        "max-depth",
        "max-arena",
        "timeout-ms",
        "jobs",
        "addr",
        "workers",
        "queue",
        "query",
        "ask",
        "select",
        "to",
        "schema-delta",
    ];
    let mut it = it.peekable();
    let mut flags = Flags {
        values: Vec::new(),
        switches: Vec::new(),
    };
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument '{arg}'"));
        };
        if name == "shacl" {
            // `--shacl SHAPES [DATA]` names the shapes graph and,
            // optionally, the data graph positionally (the data file can
            // also come via the usual --data flag).
            let shapes = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or("--shacl SHAPES [DATA] needs a shapes-graph file")?;
            flags.values.push(("shacl".to_string(), shapes.to_string()));
            if it.peek().is_some_and(|v| !v.starts_with("--")) {
                let data = it.next().expect("peeked");
                flags.values.push(("data".to_string(), data.to_string()));
            }
        } else if name == "trace" {
            // `--trace NODE SHAPE` takes the focus pair positionally; bare
            // `--trace` (paired with --node/--shape) is still accepted.
            if it.peek().is_some_and(|v| !v.starts_with("--")) {
                let node = it.next().expect("peeked");
                let shape = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or("--trace NODE SHAPE needs a shape label after the node")?;
                flags.values.push(("node".to_string(), node.to_string()));
                flags.values.push(("shape".to_string(), shape.to_string()));
            }
            flags.switches.push(name.to_string());
        } else if name == "containment" {
            // `--containment A B` names the two shapes positionally, like
            // `--trace NODE SHAPE`.
            let a = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or("--containment A B needs two shape labels")?;
            let b = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or("--containment A B needs two shape labels")?;
            flags
                .values
                .push(("containment-a".to_string(), a.to_string()));
            flags
                .values
                .push(("containment-b".to_string(), b.to_string()));
        } else if SWITCHES.contains(&name) {
            flags.switches.push(name.to_string());
        } else if VALUES.contains(&name) {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.values.push((name.to_string(), value.to_string()));
        } else {
            return Err(format!("unknown flag --{name}"));
        }
    }
    Ok(flags)
}

/// `--report json` selects the machine-readable output documented in
/// `DESIGN.md`; absent means the human-readable text report.
fn report_from_flags(flags: &Flags) -> Result<bool, String> {
    match flags.get("report") {
        None => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(format!("unknown report format '{other}' (expected 'json')")),
    }
}

fn load_schema(flags: &Flags) -> Result<Schema, String> {
    let path = flags.require("schema")?;
    let src = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    shexc::parse(&src).map_err(|e| format!("{path}:{e}"))
}

/// Loads the data file in the format its path names
/// ([`DataFormat::from_path`]) through [`DataFormat::read`]: N-Triples is
/// read from the file in blocks of complete lines, so its text is never
/// held whole; Turtle is read whole. With `--lenient` (Turtle only),
/// malformed statements are skipped (recovering at the next `.` boundary)
/// and the skipped count is returned; without it the first syntax error,
/// or in N-Triples the first byte that is not UTF-8, aborts the load. The
/// count is always 0 in strict mode.
fn load_data(flags: &Flags) -> Result<(Dataset, usize), String> {
    let path = flags.require("data")?;
    let reading = |e: io::Error| format!("reading {path}: {e}");
    let file = fs::File::open(path).map_err(reading)?;
    let format = DataFormat::from_path(path);
    if flags.has("lenient") {
        if format == DataFormat::NTriples {
            return Err("--lenient is not supported for N-Triples input".into());
        }
        let src = io::read_to_string(file).map_err(reading)?;
        let (ds, errors) = turtle::parse_lenient(&src);
        return Ok((ds, errors.len()));
    }
    let ds = format.read(file).map_err(|e| match e {
        ReadError::Io(e) => reading(e),
        ReadError::Parse(e) => format!("{path}:{e}"),
    })?;
    Ok((ds, 0))
}

/// Builds the validation [`Budget`] from `--max-steps`, `--max-depth`,
/// `--max-arena`, and `--timeout-ms`. All absent → [`Budget::UNLIMITED`].
fn budget_from_flags(flags: &Flags) -> Result<Budget, String> {
    fn num<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, String> {
        match flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} needs a positive integer, got '{v}'")),
        }
    }
    let mut budget = Budget::UNLIMITED;
    if let Some(n) = num::<u64>(flags, "max-steps")? {
        budget = budget.with_max_steps(n);
    }
    if let Some(n) = num::<u32>(flags, "max-depth")? {
        budget = budget.with_max_depth(n);
    }
    if let Some(n) = num::<u64>(flags, "max-arena")? {
        budget = budget.with_max_arena_nodes(n as usize);
    }
    if let Some(ms) = num::<u64>(flags, "timeout-ms")? {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    Ok(budget)
}

/// Worker-thread count for full-typing runs: `--jobs N` (≥ 1), defaulting
/// to all available cores. `--jobs 1` is the exact sequential path.
fn jobs_from_flags(flags: &Flags) -> Result<usize, String> {
    match flags.get("jobs") {
        None => Ok(shapex::default_jobs()),
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--jobs needs a positive integer, got '{v}'")),
        },
    }
}

/// Converts an engine error into the CLI error type, writing any partial
/// output produced before the budget tripped.
fn engine_err(w: &mut dyn Write, out: &str, e: EngineError) -> CliError {
    match e.exhaustion() {
        Some(exhaustion) => partial(w, out, exhaustion),
        None => CliError::Msg(e.to_string()),
    }
}

/// The one-row document of a `--node`/`--shape` check on `engine`: the
/// verdict row (with its failure explanation), or an exhausted row plus
/// its `exhausted` entry.
fn check_doc(
    engine: &str,
    node: &str,
    shape: &str,
    checked: Result<(bool, Option<String>), Exhaustion>,
) -> (ReportDoc, RunStatus) {
    let mut doc = ReportDoc::new("check", engine);
    let (name, label) = (Quoted::new(node), Quoted::new(shape));
    let row = Row {
        node: Some(&name),
        ..Row::new(&label, "exhausted")
    };
    let status = match checked {
        Ok((matched, failure)) => {
            doc.push_row(&Row {
                failure: failure.as_ref().map(|f| f as &dyn fmt::Display),
                verdict: if matched { "conforms" } else { "fails" },
                ..row
            });
            RunStatus::of_verdict(matched)
        }
        Err(e) => {
            doc.push_row(&Row {
                exhaustion: Some(&e),
                ..row
            });
            doc.push_exhausted(node, shape, &e);
            RunStatus::Exhausted(e)
        }
    };
    (doc, status)
}

/// The engine configuration `validate` flags ask for: closure, the
/// ablation switches and the budget. A JSON report always carries the
/// metrics block, so `report` turns metrics on.
fn engine_config(flags: &Flags, report: bool) -> Result<EngineConfig, String> {
    Ok(EngineConfig {
        closure: if flags.has("open") {
            Closure::Open
        } else {
            Closure::Closed
        },
        no_sorbe: flags.has("no-sorbe"),
        budget: budget_from_flags(flags)?,
        metrics: report,
        ..EngineConfig::default()
    })
}

/// The `--delta FILE` mode ([`report::delta_report`]): full typing of the
/// loaded graph, then apply the delta and incrementally revalidate,
/// emitting one JSON document with `before`/`after` typing sub-reports
/// plus a `delta` block. The exit code comes from the *after* run.
fn validate_delta(
    flags: &Flags,
    w: &mut dyn Write,
    engine: &mut Engine,
    ds: &mut Dataset,
    delta_path: &str,
    skipped: usize,
) -> Result<(), CliError> {
    if flags.get("node").is_some() || flags.get("shape").is_some() || flags.get("map").is_some() {
        return Err(CliError::Msg(
            "--delta recomputes the full typing; it cannot be combined with --node/--shape/--map"
                .into(),
        ));
    }
    if !report_from_flags(flags)? {
        return Err(CliError::Msg(
            "--delta needs --report json (it emits a before/after report document)".into(),
        ));
    }
    let jobs = jobs_from_flags(flags)?;
    let src = fs::read_to_string(delta_path).map_err(|e| format!("reading {delta_path}: {e}"))?;
    let delta =
        shapex_rdf::delta::parse(&src, &mut ds.pool).map_err(|e| format!("{delta_path}:{e}"))?;
    let status = report::delta_report(&mut *w, engine, ds, &delta, jobs, Some(delta_path), skipped)
        .map_err(|e| match e {
            DeltaRunError::Apply(e) => CliError::Msg(e.to_string()),
            DeltaRunError::Revalidate(e) => engine_err(w, "", e),
            DeltaRunError::Write(e) => CliError::Write(e),
        })?;
    ended(status)
}

/// The `serve` subcommand: loads the schema/data pair as entry
/// `default`, installs the SIGTERM/SIGINT drain handlers, and blocks
/// until the service shuts down. Operational chatter goes to stderr so
/// stdout stays clean.
fn serve(flags: &Flags) -> Result<(), CliError> {
    fn num(flags: &Flags, name: &str) -> Result<Option<usize>, String> {
        match flags.get(name) {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(format!("--{name} needs a positive integer, got '{v}'")),
            },
        }
    }
    let mut config = shapex_server::ServerConfig {
        budget: budget_from_flags(flags)?,
        open: flags.has("open"),
        ..shapex_server::ServerConfig::default()
    };
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.to_string();
    }
    if let Some(n) = num(flags, "workers")? {
        config.workers = n;
    }
    if let Some(n) = num(flags, "queue")? {
        config.queue = n;
    }
    if let Some(n) = num(flags, "jobs")? {
        config.jobs = n;
    }

    let schema_path = flags.require("schema")?;
    let data_path = flags.require("data")?;
    let schema_src =
        fs::read_to_string(schema_path).map_err(|e| format!("reading {schema_path}: {e}"))?;
    let data_src =
        fs::read_to_string(data_path).map_err(|e| format!("reading {data_path}: {e}"))?;

    // No-op unless built with --features fail-inject AND SHAPEX_FAILPOINTS
    // is set; the fault-injection smoke drives the service through this.
    for armed in shapex::failpoint::configure_from_env() {
        eprintln!("shapex serve: failpoint armed: {armed}");
    }

    let registry = std::sync::Arc::new(shapex_server::registry::Registry::new());
    registry
        .load(
            "default",
            schema_src,
            shapex_server::registry::SchemaFormat::Shex,
            data_src,
            shapex_server::registry::DataFormat::from_path(data_path),
            config.engine_config(),
            config.jobs,
        )
        .map_err(CliError::Msg)?;

    shapex_server::install_signal_handlers();
    let handle =
        shapex_server::start(config, registry).map_err(|e| format!("starting server: {e}"))?;
    eprintln!("shapex serve: listening on {}", handle.addr());
    handle.wait();
    eprintln!("shapex serve: drained");
    Ok(())
}

/// The `validate --shacl` mode: parse the shapes graph as ordinary RDF,
/// compile it onto the derivative engine (DESIGN.md §5h), validate, and
/// emit a `sh:ValidationReport`-shaped document. Exit codes are the
/// standard validator contract: 0 conforms, 1 error (including every
/// unsupported-term compile error), 2 does not conform, 3 exhausted.
fn validate_shacl(flags: &Flags, w: &mut dyn Write) -> Result<(), CliError> {
    for bad in ["schema", "map", "node", "shape", "delta"] {
        if flags.get(bad).is_some() {
            return Err(CliError::Msg(format!(
                "--shacl drives validation from the shapes graph's targets; \
                 it cannot be combined with --{bad}"
            )));
        }
    }
    if flags.has("trace") {
        return Err(CliError::Msg(
            "--shacl cannot be combined with --trace (trace a compiled shape \
             by label on the ShEx path instead)"
                .into(),
        ));
    }
    if flags.get("engine").is_some_and(|e| e != "derivative") {
        return Err(CliError::Msg(
            "--shacl always runs on the derivative engine".into(),
        ));
    }
    let shapes_path = flags.get("shacl").expect("dispatched on --shacl");
    let shapes_src =
        fs::read_to_string(shapes_path).map_err(|e| format!("reading {shapes_path}: {e}"))?;
    let (mut ds, skipped) = load_data(flags)?;
    let report = report_from_flags(flags)?;
    // The per-path SHACL translation is only correct under the open
    // closure; the validator forces it regardless of --open.
    let config = engine_config(flags, report)?;
    let mut validator = shapex_shacl::load_validator(
        shapes_path,
        &shapes_src,
        DataFormat::from_path(shapes_path),
        &mut ds.pool,
        config,
    )?;
    let outcome = validator.validate_par(&mut ds, jobs_from_flags(flags)?);
    if report {
        let engine = validator.engine();
        let report = shapex_shacl::shacl_run_report(&outcome, engine, skipped);
        return emit(w, &report.body, report.status);
    }
    let mut out = String::new();
    if skipped > 0 {
        let _ = writeln!(out, "lenient: skipped {skipped} malformed statement(s)");
    }
    out.push_str(&shapex_shacl::render_text(&outcome));
    if flags.has("stats") {
        let _ = writeln!(out, "stats: {}", validator.engine().stats());
    }
    emit(w, &out, outcome.status())
}

fn validate(flags: &Flags, w: &mut dyn Write) -> Result<(), CliError> {
    if flags.get("shacl").is_some() {
        return validate_shacl(flags, w);
    }
    let schema = load_schema(flags)?;
    let (mut ds, skipped) = load_data(flags)?;
    let engine_kind = flags.get("engine").unwrap_or("derivative");
    let report = report_from_flags(flags)?;
    let mut out = String::new();
    if skipped > 0 && !report {
        let _ = writeln!(out, "lenient: skipped {skipped} malformed statement(s)");
    }

    match engine_kind {
        "derivative" => {
            let config = EngineConfig {
                // Dependency recording is only paid for when a delta run
                // will consume it.
                incremental: flags.get("delta").is_some(),
                ..engine_config(flags, report)?
            };
            let mut engine =
                Engine::compile(&schema, &mut ds.pool, config).map_err(|e| e.to_string())?;
            if let Some(delta_path) = flags.get("delta") {
                return validate_delta(flags, w, &mut engine, &mut ds, delta_path, skipped);
            }
            if let Some(map_path) = flags.get("map") {
                let src =
                    fs::read_to_string(map_path).map_err(|e| format!("reading {map_path}: {e}"))?;
                let map =
                    shapex_shex::shapemap::parse(&src).map_err(|e| format!("{map_path}:{e}"))?;
                let outcomes = engine
                    .validate_map(&ds.graph, &mut ds.pool, &map)
                    .map_err(|e| e.to_string())?;
                if report {
                    let status =
                        report::map_report(&mut *w, &engine, &ds.pool, &map, &outcomes, skipped)?;
                    return ended(status);
                }
                let mut ok = 0;
                for outcome in &outcomes {
                    let assoc = &map.associations[outcome.index];
                    let verdict = if outcome.exhaustion.is_some() {
                        "EXHAUSTED"
                    } else if outcome.conforms {
                        "conforms"
                    } else {
                        "fails"
                    };
                    let expectation = if outcome.exhaustion.is_some() {
                        "?"
                    } else if outcome.as_expected {
                        "✓"
                    } else {
                        "✗ UNEXPECTED"
                    };
                    let _ = writeln!(
                        out,
                        "{} @{}{} — {verdict} {expectation}",
                        assoc.node,
                        if assoc.expected { "" } else { "!" },
                        assoc.shape
                    );
                    if let Some(e) = outcome.exhaustion {
                        let _ = writeln!(out, "    {e}");
                    } else if !outcome.as_expected {
                        if let (true, Some(f)) = (flags.has("explain"), &outcome.failure) {
                            let _ = writeln!(out, "    because: {}", f.render(&ds.pool));
                        }
                    }
                    ok += usize::from(outcome.exhaustion.is_none() && outcome.as_expected);
                }
                let _ = writeln!(out, "{ok}/{} associations as expected", outcomes.len());
                if flags.has("stats") {
                    let _ = writeln!(out, "stats: {}", engine.stats());
                }
                return emit(w, &out, RunStatus::of_map(&outcomes));
            }
            match (flags.get("node"), flags.get("shape")) {
                (Some(node_iri), Some(shape)) => {
                    let node = ds.pool.intern_iri(node_iri);
                    if flags.has("trace") {
                        let trace = engine
                            .trace(&ds.graph, &ds.pool, node, &ShapeLabel::new(shape))
                            .map_err(|e| engine_err(w, &out, e))?;
                        if report {
                            let mut doc = ReportDoc::new("trace", "derivative");
                            doc.set("node", Value::from(node_iri));
                            doc.set("shape", Value::from(shape));
                            doc.set("trace", report::trace_json(&trace, &ds.pool));
                            return write_text(w, &finish_engine_doc(doc, &engine, skipped, None));
                        }
                        out.push_str(&trace.render(&ds.pool));
                        return write_text(w, &out);
                    }
                    let checked = engine.check(&ds.graph, &ds.pool, node, &ShapeLabel::new(shape));
                    if report {
                        let checked = match checked {
                            Ok(r) => Ok((r.matched, r.failure.map(|f| f.render(&ds.pool)))),
                            Err(e) => {
                                Err(e.exhaustion().ok_or_else(|| CliError::Msg(e.to_string()))?)
                            }
                        };
                        let (doc, status) = check_doc("derivative", node_iri, shape, checked);
                        let body = finish_engine_doc(doc, &engine, skipped, status.conforms());
                        return emit(w, &body, status);
                    }
                    let result = checked.map_err(|e| engine_err(w, &out, e))?;
                    if result.matched {
                        let _ = writeln!(out, "<{node_iri}> conforms to <{shape}>");
                    } else {
                        let _ = writeln!(out, "<{node_iri}> does NOT conform to <{shape}>");
                        if let (true, Some(f)) = (flags.has("explain"), result.failure) {
                            let _ = writeln!(out, "  because: {}", f.render(&ds.pool));
                        }
                    }
                    if flags.has("stats") {
                        let _ = writeln!(out, "stats: {}", engine.stats());
                    }
                    emit(w, &out, RunStatus::of_verdict(result.matched))
                }
                (None, None) => {
                    let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs_from_flags(flags)?);
                    if report {
                        let doc = ReportDoc::to_writer(&mut *w, "typing", "derivative");
                        let status = report::typing_report(
                            doc,
                            &mut engine,
                            &ds.graph,
                            &ds.pool,
                            &typing,
                            skipped,
                        )?;
                        return ended(status);
                    }
                    render_typing(&mut out, flags, &mut engine, &ds, &typing);
                    emit(w, &out, RunStatus::of_typing(&typing))
                }
                _ => Err(CliError::Msg(
                    "--node and --shape must be given together".into(),
                )),
            }
        }
        "backtracking" => {
            let validator = BacktrackValidator::with_config(
                &schema,
                BtConfig {
                    budget: bt_budget(flags)?,
                },
            )
            .map_err(|e| e.to_string())?;
            let (node_iri, shape) = match (flags.get("node"), flags.get("shape")) {
                (Some(n), Some(s)) => (n, s),
                _ => {
                    return Err(CliError::Msg(
                        "--engine backtracking requires --node and --shape".into(),
                    ))
                }
            };
            let node = ds.pool.intern_iri(node_iri);
            let checked = validator.check(&ds.graph, &ds.pool, node, &ShapeLabel::new(shape));
            if report {
                let checked = match checked {
                    Ok(ok) => Ok((ok, None)),
                    Err(BtError::ResourceExhausted(exhaustion)) => Err(exhaustion),
                    Err(other) => return Err(CliError::Msg(other.to_string())),
                };
                let (mut doc, status) = check_doc("backtracking", node_iri, shape, checked);
                doc.set("stats", bt_stats_json(&validator.stats()));
                if skipped > 0 {
                    doc.set("lenient_skipped", Value::from(skipped));
                }
                let body = doc.finish(status.conforms());
                return emit(w, &body, status);
            }
            let ok = checked.map_err(|e| match e {
                BtError::ResourceExhausted(exhaustion) => partial(w, &out, exhaustion),
                other => CliError::Msg(other.to_string()),
            })?;
            let verdict = if ok {
                "conforms to"
            } else {
                "does NOT conform to"
            };
            let _ = writeln!(out, "<{node_iri}> {verdict} <{shape}>");
            if flags.has("stats") {
                let st = validator.stats();
                let _ = writeln!(
                    out,
                    "stats: rules={} decompositions={} gfp-iterations={}",
                    st.rule_applications, st.decompositions, st.gfp_iterations
                );
            }
            emit(w, &out, RunStatus::of_verdict(ok))
        }
        other => Err(CliError::Msg(format!("unknown engine '{other}'"))),
    }
}

/// The `stats` block of a backtracking-engine report (core cannot build
/// it: it does not depend on `shapex-backtrack`).
fn bt_stats_json(s: &BtStats) -> Value {
    json!({
        "rule_applications": s.rule_applications,
        "decompositions": s.decompositions,
        "gfp_iterations": s.gfp_iterations,
        "node_checks": s.node_checks,
        "budget_steps": s.budget_steps,
        "exhausted_checks": s.exhausted_checks,
    })
}

/// The backtracker keeps its own (large, finite) default step budget; only
/// override the pieces the user asked for.
fn bt_budget(flags: &Flags) -> Result<Budget, String> {
    let user = budget_from_flags(flags)?;
    if user.is_unlimited() {
        Ok(BtConfig::default().budget)
    } else {
        Ok(user)
    }
}

fn sparql(flags: &Flags) -> Result<String, String> {
    let schema = load_schema(flags)?;
    let shape = ShapeLabel::new(flags.require("shape")?);
    let query = match flags.get("node") {
        Some(node) => shapex_sparql::generate_node_ask(&schema, &shape, node),
        None => shapex_sparql::generate_select_conforming(&schema, &shape),
    }
    .map_err(|e| e.to_string())?;
    Ok(format!("{query}\n"))
}

fn query(flags: &Flags) -> Result<String, String> {
    let (ds, _) = load_data(flags)?;
    let source = if let Some(path) = flags.get("query") {
        fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
    } else if let Some(text) = flags.get("ask").or_else(|| flags.get("select")) {
        text.to_string()
    } else {
        return Err("provide --query FILE, --ask TEXT, or --select TEXT".into());
    };
    let parsed = shapex_sparql::parser::parse(&source).map_err(|e| e.to_string())?;
    let mut out = String::new();
    match &parsed {
        shapex_sparql::Query::Ask(_) => {
            let answer =
                shapex_sparql::ask(&parsed, &ds.graph, &ds.pool).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "{answer}");
        }
        shapex_sparql::Query::Select(_) => {
            let rows =
                shapex_sparql::select(&parsed, &ds.graph, &ds.pool).map_err(|e| e.to_string())?;
            if rows.is_empty() {
                let _ = writeln!(out, "(no results)");
            }
            for row in &rows {
                let cells: Vec<String> = row
                    .iter()
                    .map(|(var, binding)| format!("?{var} = {}", binding.term(&ds.pool)))
                    .collect();
                let _ = writeln!(out, "{}", cells.join("	"));
            }
            let _ = writeln!(out, "({} solutions)", rows.len());
        }
    }
    Ok(out)
}

fn lint(flags: &Flags) -> Result<String, String> {
    let schema = load_schema(flags)?;
    let warnings = shapex::calculus::lints(&schema).map_err(|e| e.to_string())?;
    if warnings.is_empty() {
        return Ok("no warnings\n".to_string());
    }
    let mut out = String::new();
    for w in &warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    let _ = writeln!(out, "{} warning(s)", warnings.len());
    Ok(out)
}

/// The `check` subcommand: exact schema calculus — per-shape emptiness by
/// default, `--containment A B` for one language-inclusion query,
/// `--schema-delta NEW` for schema diffing (plus verdict-transplant
/// revalidation when `--data` is given). See DESIGN.md §5f.
fn check(flags: &Flags, w: &mut dyn Write) -> Result<(), CliError> {
    let schema = load_schema(flags)?;
    let report = report_from_flags(flags)?;
    if let Some(new_path) = flags.get("schema-delta") {
        return check_schema_delta(flags, w, &schema, new_path, report);
    }
    let budget = budget_from_flags(flags)?;
    let closure = if flags.has("open") {
        Closure::Open
    } else {
        Closure::Closed
    };

    let mut terms = TermPool::default();
    let compiled = CompiledSchema::compile(&schema, &mut terms, EngineConfig::default().simplify)
        .map_err(|e| e.to_string())?;

    if let Some(a) = flags.get("containment-a") {
        let b = flags.get("containment-b").expect("parsed as a pair");
        let resolve = |label: &str| {
            compiled
                .shape_id(&ShapeLabel::new(label))
                .ok_or_else(|| CliError::Msg(format!("unknown shape <{label}>")))
        };
        let verdict = shapex::containment(
            &compiled,
            resolve(a)?,
            &compiled,
            resolve(b)?,
            closure,
            &budget,
        );
        let mut out = String::new();
        let _ = writeln!(out, "<{a}> ⊆ <{b}> — {verdict}");
        if report {
            let mut doc = ReportDoc::new("containment", "calculus");
            doc.set("a", Value::from(a));
            doc.set("b", Value::from(b));
            doc.set("verdict", Value::from(verdict.to_string()));
            if let Verdict::Exhausted(e) = &verdict {
                doc.set("exhaustion", e.to_json());
            }
            let conforms = match &verdict {
                Verdict::Contained => Some(true),
                Verdict::NotContained => Some(false),
                Verdict::Undetermined | Verdict::Exhausted(_) => None,
            };
            out = doc.finish(conforms);
        }
        write_text(w, &out)?;
        return match verdict {
            Verdict::Contained => Ok(()),
            Verdict::NotContained => Err(CliError::NonConforming),
            Verdict::Undetermined => Err(CliError::Undetermined),
            Verdict::Exhausted(exhaustion) => Err(CliError::Exhausted(exhaustion)),
        };
    }

    // Default mode: the per-shape emptiness report.
    let verdicts = shapex::emptiness(&compiled);
    let mut out = String::new();
    let mut doc = ReportDoc::new("emptiness", "calculus");
    let (mut unsat, mut undetermined) = (0usize, 0usize);
    for (shape, v) in compiled.shapes.iter().zip(&verdicts) {
        let verdict = match v {
            Sat3::Sat => "satisfiable",
            Sat3::Unsat => {
                unsat += 1;
                "UNSATISFIABLE (accepts no neighbourhood)"
            }
            Sat3::Unknown => {
                undetermined += 1;
                "undetermined"
            }
        };
        let _ = writeln!(out, "{} — {verdict}", shape.label);
        if report {
            let word = match v {
                Sat3::Sat => "satisfiable",
                Sat3::Unsat => "unsatisfiable",
                Sat3::Unknown => "undetermined",
            };
            doc.push_row(&Row::new(&Quoted::new(shape.label.as_str()), word));
        }
    }
    let _ = writeln!(
        out,
        "{} shape(s): {unsat} unsatisfiable, {undetermined} undetermined",
        verdicts.len()
    );
    if report {
        // An unsatisfiability proof is exact and cannot flip, so it sets
        // the verdict even when other shapes stay undetermined.
        let conforms = if unsat > 0 {
            Some(false)
        } else if undetermined > 0 {
            None
        } else {
            Some(true)
        };
        out = doc.finish(conforms);
    }
    write_text(w, &out)?;
    if unsat > 0 {
        return Err(CliError::NonConforming);
    }
    if undetermined > 0 {
        return Err(CliError::Undetermined);
    }
    Ok(())
}

/// The text rendering of a full typing, shared by `validate` and
/// `check --schema-delta --data`: the conforming pairs, the `--explain`
/// failure of every other pair, the pairs that exhausted their budget,
/// and the `--stats` line.
fn render_typing(
    out: &mut String,
    flags: &Flags,
    engine: &mut Engine,
    ds: &Dataset,
    typing: &Typing,
) {
    let rendered = typing.render(&ds.pool, &|s| engine.label_of(s).clone());
    if rendered.is_empty() {
        let _ = writeln!(out, "no node conforms to any shape");
    } else {
        let _ = writeln!(out, "{rendered}");
    }
    if flags.has("explain") {
        for node in ds.graph.subjects() {
            for i in 0..engine.schema().shapes.len() {
                let shape = shapex::ShapeId(i as u32);
                if typing.has(node, shape) {
                    continue;
                }
                if let Some(f) = engine.explain(&ds.graph, &ds.pool, node, shape) {
                    let _ = writeln!(
                        out,
                        "{} ✗ {}: {}",
                        ds.pool.term(node),
                        engine.label_of(shape),
                        f.render(&ds.pool)
                    );
                }
            }
        }
    }
    if typing.is_partial() {
        let _ = writeln!(
            out,
            "PARTIAL: {} (node, shape) check(s) exhausted their budget:",
            typing.exhausted.len()
        );
        for &(node, shape, e) in &typing.exhausted {
            let _ = writeln!(
                out,
                "  {} @ {} — {e}",
                ds.pool.term(node),
                engine.label_of(shape)
            );
        }
    }
    if flags.has("stats") {
        let _ = writeln!(out, "stats: {}", engine.stats());
    }
}

/// `check --schema-delta NEW`: classify every shape by comparing its
/// language in the old and new schemas; with `--data`, follow up with a
/// transplant-based revalidation ([`Engine::swap_schema`]) whose typing
/// is byte-identical to a from-scratch run under NEW.
fn check_schema_delta(
    flags: &Flags,
    w: &mut dyn Write,
    old_schema: &Schema,
    new_path: &str,
    report: bool,
) -> Result<(), CliError> {
    let src = fs::read_to_string(new_path).map_err(|e| format!("reading {new_path}: {e}"))?;
    let new_schema = shexc::parse(&src).map_err(|e| format!("{new_path}:{e}"))?;
    let config = engine_config(flags, report)?;
    // With data: type under the old schema, then swap NEW in over the
    // same pool; the swap's diff is the classification. Without: the
    // classification alone.
    let (diff, revalidation) = if flags.get("data").is_some() {
        let (mut ds, skipped) = load_data(flags)?;
        let jobs = jobs_from_flags(flags)?;
        let mut old_engine =
            Engine::compile(old_schema, &mut ds.pool, config).map_err(|e| e.to_string())?;
        old_engine.type_all_par(&ds.graph, &ds.pool, jobs);
        let swap = old_engine
            .swap_schema(&new_schema, &mut ds.pool)
            .map_err(|e| e.to_string())?;
        let run = (swap.engine, swap.transplanted, ds, skipped, jobs);
        (swap.diff, Some(run))
    } else {
        let diff = shapex::schema_diff(
            old_schema,
            &new_schema,
            config.simplify,
            config.closure,
            &config.budget,
        )
        .map_err(|e| e.to_string())?;
        (diff, None)
    };

    let labels_json = |labels: &[ShapeLabel]| {
        Value::Array(labels.iter().map(|l| Value::from(l.as_str())).collect())
    };
    let mut diff_json = json!({
        "new_schema": new_path,
        "unchanged": labels_json(&diff.unchanged),
        "changed": labels_json(&diff.changed),
        "added": labels_json(&diff.added),
        "removed": labels_json(&diff.removed),
        "affected": labels_json(&diff.affected),
        "reusable": labels_json(&diff.reusable),
        "exhausted": diff.exhausted.as_ref().map(|e| e.to_json()).unwrap_or(Value::Null),
    });

    let mut out = String::new();
    for (name, labels) in [
        ("unchanged", &diff.unchanged),
        ("changed", &diff.changed),
        ("added", &diff.added),
        ("removed", &diff.removed),
        ("affected", &diff.affected),
        ("reusable", &diff.reusable),
    ] {
        if !labels.is_empty() {
            let list: Vec<&str> = labels.iter().map(|l| l.as_str()).collect();
            let _ = writeln!(out, "{name}: {}", list.join(", "));
        }
    }
    if let Some(e) = &diff.exhausted {
        let _ = writeln!(
            out,
            "exhausted: {e} — every undecided pair was conservatively classified changed"
        );
    }

    let Some((mut engine, transplanted, ds, skipped, jobs)) = revalidation else {
        // Classification only. Exhaustion means the classification is a
        // sound over-approximation, not the exact answer — exit 3.
        let status = diff
            .exhausted
            .map_or(RunStatus::Conforms, RunStatus::Exhausted);
        if report {
            let mut doc = ReportDoc::new("schema-delta", "calculus");
            doc.set("schema_delta", diff_json);
            out = doc.finish(status.conforms());
        }
        return emit(w, &out, status);
    };

    let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    if report {
        let mut doc = ReportDoc::to_writer(&mut *w, "schema-delta", "calculus");
        if let Value::Object(m) = &mut diff_json {
            m.insert("transplanted".to_string(), Value::from(transplanted));
        }
        doc.set("schema_delta", diff_json);
        let status =
            report::typing_report(doc, &mut engine, &ds.graph, &ds.pool, &typing, skipped)?;
        return ended(status);
    }
    let _ = writeln!(out, "transplanted: {transplanted} verdict(s)");
    render_typing(&mut out, flags, &mut engine, &ds, &typing);
    emit(w, &out, RunStatus::of_typing(&typing))
}

fn convert(flags: &Flags) -> Result<String, String> {
    let path = flags.require("schema")?;
    let src = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // Detect: ShExJ documents start with '{'.
    let schema = if src.trim_start().starts_with('{') {
        shapex_shex::shexj::from_json(&src).map_err(|e| format!("{path}: {e}"))?
    } else {
        shexc::parse(&src).map_err(|e| format!("{path}:{e}"))?
    };
    match flags.get("to").unwrap_or("shexj") {
        "shexj" => Ok(shapex_shex::shexj::to_json(&schema) + "\n"),
        "shexc" => Ok(shapex_shex::display::schema_to_shexc(&schema)),
        other => Err(format!("unknown schema format '{other}'")),
    }
}

fn parse_cmd(flags: &Flags) -> Result<String, String> {
    let (ds, skipped) = load_data(flags)?;
    let note = if skipped > 0 {
        format!("# lenient: skipped {skipped} malformed statement(s)\n")
    } else {
        String::new()
    };
    match flags.get("to").unwrap_or("ntriples") {
        "ntriples" => Ok(note + &writer::to_ntriples(&ds.graph, &ds.pool)),
        "turtle" => Ok(note
            + &writer::to_turtle(
                &ds.graph,
                &ds.pool,
                &shapex_rdf::vocab::well_known_prefixes(),
            )),
        other => Err(format!("unknown output format '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write a fixture into a directory of its own (process id, test name
    /// and a per-process counter), so tests running in parallel never
    /// overwrite each other's files.
    fn write_tmp(name: &str, contents: &str) -> String {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let test = std::thread::current()
            .name()
            .unwrap_or("main")
            .replace("::", "-");
        let dir =
            std::env::temp_dir().join(format!("shapex-cli-test-{}-{test}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn person_files() -> (String, String) {
        let schema = write_tmp(
            "schema.shex",
            r#"
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            <Person> { foaf:age xsd:integer, foaf:name xsd:string+ }
            "#,
        );
        let data = write_tmp(
            "data.ttl",
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :john foaf:age 23; foaf:name "John" .
            :mary foaf:age 50, 65 .
            "#,
        );
        (schema, data)
    }

    fn run_ok(args: &[&str]) -> String {
        run_raw(args).unwrap()
    }

    fn run_err(args: &[&str]) -> String {
        run_raw(args).unwrap_err().to_string()
    }

    /// How a command ended that did not succeed, with what it wrote.
    #[derive(Debug)]
    enum Ended {
        Msg(String),
        Exhausted {
            output: String,
            exhaustion: Exhaustion,
        },
        NonConforming {
            output: String,
        },
        Undetermined {
            output: String,
        },
    }

    impl fmt::Display for Ended {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Ended::Msg(m) => m.fmt(f),
                Ended::Exhausted { exhaustion, .. } => exhaustion.fmt(f),
                Ended::NonConforming { .. } => "data does not conform".fmt(f),
                Ended::Undetermined { .. } => "verdict undetermined".fmt(f),
            }
        }
    }

    /// Runs a command line into memory: its output on success, else how
    /// it ended with what it wrote.
    fn run_raw(args: &[&str]) -> Result<String, Ended> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let ran = run(&args, &mut out);
        let output = String::from_utf8(out).unwrap();
        match ran {
            Ok(()) => Ok(output),
            Err(CliError::Msg(m)) => Err(Ended::Msg(m)),
            Err(CliError::Write(e)) => panic!("writing to memory failed: {e}"),
            Err(CliError::Exhausted(exhaustion)) => Err(Ended::Exhausted { output, exhaustion }),
            Err(CliError::NonConforming) => Err(Ended::NonConforming { output }),
            Err(CliError::Undetermined) => Err(Ended::Undetermined { output }),
        }
    }

    #[test]
    fn help_without_args() {
        let out = run_ok(&[]);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn validate_full_typing() {
        let (schema, data) = person_files();
        let out = run_ok(&["validate", "--schema", &schema, "--data", &data]);
        assert!(out.contains("john"), "{out}");
        assert!(!out.contains("mary → "), "{out}");
    }

    #[test]
    fn validate_ntriples_data() {
        let (schema, _) = person_files();
        let data = write_tmp(
            "data.nt",
            concat!(
                "<http://example.org/john> <http://xmlns.com/foaf/0.1/age> \"23\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
                "<http://example.org/john> <http://xmlns.com/foaf/0.1/name> \"John\" .\n",
                "<http://example.org/mary> <http://xmlns.com/foaf/0.1/age> \"50\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            ),
        );
        // The .nt suffix routes through the parallel N-Triples parser; the
        // result must match what the Turtle path produces on the same data.
        let out = run_ok(&[
            "validate", "--schema", &schema, "--data", &data, "--jobs", "2",
        ]);
        assert!(out.contains("john"), "{out}");
        assert!(!out.contains("mary → "), "{out}");
        // --lenient is a Turtle-only recovery mode.
        let err = run_err(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--lenient",
        ]);
        assert!(err.contains("not supported for N-Triples"), "{err}");
        // Strict parsing: errors carry the document line number.
        let bad = write_tmp(
            "bad.nt",
            "<http://e/a> <http://e/p> <http://e/o> .\n<http://e/torn>\n",
        );
        let err = run_err(&["validate", "--schema", &schema, "--data", &bad]);
        assert!(err.contains(":2:"), "{err}");
    }

    #[test]
    fn validate_single_node() {
        let (schema, data) = person_files();
        // A failing check carries its report in a NonConforming error so
        // the binary can exit 2 after printing it.
        let err = run_raw(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--node",
            "http://example.org/mary",
            "--shape",
            "Person",
            "--explain",
        ])
        .unwrap_err();
        let Ended::NonConforming { output } = err else {
            panic!("expected NonConforming, got: {err}");
        };
        assert!(output.contains("does NOT conform"), "{output}");
        assert!(output.contains("because:"), "{output}");
    }

    #[test]
    fn validate_with_backtracking_engine() {
        let (schema, data) = person_files();
        let out = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--engine",
            "backtracking",
            "--node",
            "http://example.org/john",
            "--shape",
            "Person",
            "--stats",
        ]);
        assert!(out.contains("conforms to"), "{out}");
        assert!(out.contains("decompositions="), "{out}");
    }

    #[test]
    fn stats_flag() {
        let (schema, data) = person_files();
        let out = run_ok(&["validate", "--schema", &schema, "--data", &data, "--stats"]);
        assert!(out.contains("∂-steps="), "{out}");
    }

    #[test]
    fn sparql_generation() {
        let (schema, _) = person_files();
        let out = run_ok(&[
            "sparql",
            "--schema",
            &schema,
            "--shape",
            "Person",
            "--node",
            "http://example.org/john",
        ]);
        assert!(out.starts_with("ASK"), "{out}");
        let out = run_ok(&["sparql", "--schema", &schema, "--shape", "Person"]);
        assert!(out.starts_with("SELECT"), "{out}");
    }

    #[test]
    fn parse_roundtrip() {
        let (_, data) = person_files();
        let out = run_ok(&["parse", "--data", &data]);
        assert!(out.contains("<http://example.org/john>"));
        let ttl = run_ok(&["parse", "--data", &data, "--to", "turtle"]);
        assert!(ttl.contains("@prefix"));
    }

    #[test]
    fn errors_are_reported() {
        let (schema, data) = person_files();
        assert!(run_err(&["bogus"]).contains("unknown command"));
        assert!(run_err(&["validate", "--schema", schema.as_str()]).contains("--data"));
        assert!(run_err(&[
            "validate", "--schema", &schema, "--data", &data, "--engine", "quantum"
        ])
        .contains("unknown engine"));
        assert!(run_err(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--node",
            "http://e/x"
        ])
        .contains("together"));
        assert!(
            run_err(&["validate", "--schema", "/nonexistent", "--data", &data]).contains("reading")
        );
    }

    #[test]
    fn trace_flag() {
        let (schema, data) = person_files();
        let out = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--node",
            "http://example.org/john",
            "--shape",
            "Person",
            "--trace",
        ]);
        assert!(out.contains("MATCHES"), "{out}");
        assert!(out.contains("∂"), "{out}");
    }

    #[test]
    fn trace_positional_form_matches_flag_form() {
        let (schema, data) = person_files();
        let flag_form = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--node",
            "http://example.org/john",
            "--shape",
            "Person",
            "--trace",
        ]);
        let positional = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--trace",
            "http://example.org/john",
            "Person",
        ]);
        assert_eq!(flag_form, positional);
        let err = run_err(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--trace",
            "http://e/x",
        ]);
        assert!(err.contains("shape label"), "{err}");
    }

    #[test]
    fn report_json_single_check() {
        let (schema, data) = person_files();
        let out = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--node",
            "http://example.org/john",
            "--shape",
            "Person",
            "--report",
            "json",
        ]);
        let v = serde_json::from_str(&out).expect("report parses");
        assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("check"));
        assert_eq!(v.get("conforms").and_then(|c| c.as_bool()), Some(true));
        let results = v.get("results").and_then(|r| r.as_array()).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].get("verdict").and_then(|s| s.as_str()),
            Some("conforms")
        );
        // --report json always collects metrics; the serialized block
        // preserves the cache invariant lookups == hits + misses, and
        // counts one head-index query per profiled triple.
        let metrics = v.get("metrics").expect("metrics block present");
        let count = |v: &serde_json::Value, k: &str| v.get(k).and_then(|n| n.as_u64()).unwrap();
        let c = metrics.get("dfa_table").unwrap();
        assert_eq!(count(c, "lookups"), count(c, "hits") + count(c, "misses"));
        let per_shape = metrics.get("per_shape").and_then(|p| p.as_array()).unwrap();
        let profiled: u64 = per_shape
            .iter()
            .map(|s| count(s, "profiles_computed"))
            .sum();
        assert_eq!(
            count(metrics.get("head_index").unwrap(), "queries"),
            profiled
        );
        let keys: Vec<&str> = metrics
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "arena_high_water",
                "budget_steps",
                "delta",
                "dfa_states",
                "dfa_table",
                "head_index",
                "per_shape",
                "waves"
            ]
        );
        assert!(v.get("stats").is_some());
    }

    #[test]
    fn report_json_nonconforming_carries_failure_and_exit() {
        let (schema, data) = person_files();
        let err = run_raw(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--node",
            "http://example.org/mary",
            "--shape",
            "Person",
            "--report",
            "json",
        ])
        .unwrap_err();
        let Ended::NonConforming { output } = err else {
            panic!("expected NonConforming, got: {err}");
        };
        let v = serde_json::from_str(&output).expect("report parses");
        assert_eq!(v.get("conforms").and_then(|c| c.as_bool()), Some(false));
        let results = v.get("results").and_then(|r| r.as_array()).unwrap();
        assert_eq!(
            results[0].get("verdict").and_then(|s| s.as_str()),
            Some("fails")
        );
        let failure = results[0].get("failure").and_then(|f| f.as_str()).unwrap();
        assert!(!failure.is_empty());
    }

    #[test]
    fn report_json_full_typing() {
        let (schema, data) = person_files();
        let out = run_ok(&[
            "validate", "--schema", &schema, "--data", &data, "--report", "json",
        ]);
        let v = serde_json::from_str(&out).expect("report parses");
        assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("typing"));
        assert_eq!(v.get("conforms").and_then(|c| c.as_bool()), Some(true));
        let results = v.get("results").and_then(|r| r.as_array()).unwrap();
        // Two subjects × one shape.
        assert_eq!(results.len(), 2);
        let verdict_of = |node: &str| {
            results
                .iter()
                .find(|r| {
                    r.get("node")
                        .and_then(|n| n.as_str())
                        .is_some_and(|n| n.contains(node))
                })
                .and_then(|r| r.get("verdict"))
                .and_then(|s| s.as_str())
                .map(str::to_string)
        };
        assert_eq!(verdict_of("john").as_deref(), Some("conforms"));
        assert_eq!(verdict_of("mary").as_deref(), Some("fails"));
        // Failing rows carry a rendered failure trace.
        let mary = results
            .iter()
            .find(|r| {
                r.get("node")
                    .and_then(|n| n.as_str())
                    .is_some_and(|n| n.contains("mary"))
            })
            .unwrap();
        assert!(mary.get("failure").is_some(), "{out}");
        // The per-shape metrics rows are labeled with the shape name.
        let per_shape = v
            .get("metrics")
            .and_then(|m| m.get("per_shape"))
            .and_then(|p| p.as_array())
            .unwrap();
        assert_eq!(
            per_shape[0].get("shape").and_then(|s| s.as_str()),
            Some("Person")
        );
    }

    #[test]
    fn report_json_exhaustion_wins_and_nulls_verdict() {
        let (schema, data) = person_files();
        let err = run_raw(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--max-steps",
            "1",
            "--report",
            "json",
        ])
        .unwrap_err();
        let Ended::Exhausted { output, .. } = err else {
            panic!("expected Exhausted, got: {err}");
        };
        let v = serde_json::from_str(&output).expect("report parses");
        assert!(v.get("conforms").unwrap().is_null(), "{output}");
        let exhausted = v.get("exhausted").and_then(|e| e.as_array()).unwrap();
        assert!(!exhausted.is_empty());
        let record = exhausted[0].get("exhaustion").unwrap();
        assert_eq!(
            record.get("resource").and_then(|r| r.as_str()),
            Some("steps")
        );
        assert_eq!(record.get("limit").and_then(|l| l.as_u64()), Some(1));
    }

    #[test]
    fn report_json_trace_mode() {
        let (schema, data) = person_files();
        let out = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--trace",
            "http://example.org/john",
            "Person",
            "--report",
            "json",
        ]);
        let v = serde_json::from_str(&out).expect("report parses");
        assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("trace"));
        let trace = v.get("trace").unwrap();
        assert_eq!(trace.get("matched").and_then(|m| m.as_bool()), Some(true));
        let steps = trace.get("steps").and_then(|s| s.as_array()).unwrap();
        assert!(!steps.is_empty());
        assert!(steps[0].get("before").is_some());
        assert!(steps[0].get("after").is_some());
    }

    #[test]
    fn report_json_backtracking_engine() {
        let (schema, data) = person_files();
        let out = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--engine",
            "backtracking",
            "--node",
            "http://example.org/john",
            "--shape",
            "Person",
            "--report",
            "json",
        ]);
        let v = serde_json::from_str(&out).expect("report parses");
        assert_eq!(
            v.get("engine").and_then(|e| e.as_str()),
            Some("backtracking")
        );
        let stats = v.get("stats").unwrap();
        assert!(
            stats
                .get("rule_applications")
                .and_then(|r| r.as_u64())
                .unwrap()
                > 0
        );
    }

    #[test]
    fn report_json_map_mode() {
        let (schema, data) = person_files();
        let map = write_tmp(
            "report.sm",
            "<http://example.org/john>@<Person>,\n<http://example.org/mary>@!<Person>",
        );
        let out = run_ok(&[
            "validate", "--schema", &schema, "--data", &data, "--map", &map, "--report", "json",
        ]);
        let v = serde_json::from_str(&out).expect("report parses");
        assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("map"));
        assert_eq!(v.get("conforms").and_then(|c| c.as_bool()), Some(true));
        let results = v.get("results").and_then(|r| r.as_array()).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[1].get("as_expected").and_then(|b| b.as_bool()),
            Some(true)
        );
        assert_eq!(
            results[1].get("expected").and_then(|b| b.as_bool()),
            Some(false)
        );
    }

    #[test]
    fn report_rejects_unknown_format() {
        let (schema, data) = person_files();
        let err = run_err(&[
            "validate", "--schema", &schema, "--data", &data, "--report", "xml",
        ]);
        assert!(err.contains("unknown report format"), "{err}");
    }

    #[test]
    fn lint_command() {
        let (schema, _) = person_files();
        assert_eq!(run_ok(&["lint", "--schema", &schema]).trim(), "no warnings");
        let dirty = write_tmp(
            "dirty.shex",
            "PREFIX e: <http://e/>\nstart = @<A>\n<A> { e:p [] }\n<Dead> { e:q . }",
        );
        let out = run_ok(&["lint", "--schema", &dirty]);
        assert!(out.contains("empty value set"), "{out}");
        assert!(out.contains("never referenced"), "{out}");
        assert!(out.contains("warning(s)"), "{out}");
    }

    /// `lint` compiles the schema for its emptiness verdicts, so a schema
    /// `check` rejects is an error (exit 1) with the same message, never
    /// "no warnings".
    #[test]
    fn lint_rejects_a_schema_that_does_not_compile() {
        let schema = format!(
            "{}/../../fixtures/_negative/dangling_reference.shex",
            env!("CARGO_MANIFEST_DIR")
        );
        let lint = run_raw(&["lint", "--schema", &schema]).unwrap_err();
        let Ended::Msg(msg) = lint else {
            panic!("expected an error message, got {lint:?}");
        };
        assert_eq!(msg, "shape <S> references undefined shape <Missing>");
        assert_eq!(run_err(&["check", "--schema", &schema]), msg);
    }

    #[test]
    fn check_emptiness_modes_and_exit_split() {
        let (schema, _) = person_files();
        let out = run_ok(&["check", "--schema", &schema]);
        assert!(out.contains("<Person> — satisfiable"), "{out}");
        assert!(out.contains("0 unsatisfiable"), "{out}");
        // A shape whose only alternative demands {2,} of an empty-valued
        // arc is proven empty — exit path NonConforming (code 2), with
        // the satisfiable shape still reported.
        let dead = write_tmp(
            "check-dead.shex",
            "PREFIX e: <http://e/>\n<Dead> { e:p []{2,} }\n<Ok> { e:q . }",
        );
        let err = run_raw(&["check", "--schema", &dead]).unwrap_err();
        let Ended::NonConforming { output } = err else {
            panic!("expected NonConforming, got: {err}");
        };
        assert!(output.contains("<Dead> — UNSATISFIABLE"), "{output}");
        assert!(output.contains("<Ok> — satisfiable"), "{output}");
        // JSON report mode.
        let err = run_raw(&["check", "--schema", &dead, "--report", "json"]).unwrap_err();
        let Ended::NonConforming { output } = err else {
            panic!("expected NonConforming, got: {err}");
        };
        let v: Value = serde_json::from_str(&output).expect("report parses");
        assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("emptiness"));
        assert_eq!(v.get("conforms").and_then(|c| c.as_bool()), Some(false));
        let results = v.get("results").and_then(|r| r.as_array()).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("verdict").and_then(|s| s.as_str()),
            Some("unsatisfiable")
        );
    }

    #[test]
    fn check_containment_exit_codes() {
        let schema = write_tmp(
            "check-cont.shex",
            "PREFIX e: <http://e/>\n<A> { e:p . }\n<B> { e:p .? }\n<C> { e:q . }",
        );
        // A ⊆ B (one occurrence fits the optional) — exit 0.
        let out = run_ok(&["check", "--schema", &schema, "--containment", "A", "B"]);
        assert!(out.contains("contained"), "{out}");
        // B ⊄ A (the empty neighbourhood conforms to B only) — exit 2.
        let err = run_raw(&["check", "--schema", &schema, "--containment", "B", "A"]).unwrap_err();
        let Ended::NonConforming { output } = err else {
            panic!("expected NonConforming, got: {err}");
        };
        assert!(output.contains("not-contained"), "{output}");
        // A starved budget trips Exhausted (exit 3), never a hang.
        let err = run_raw(&[
            "check",
            "--schema",
            &schema,
            "--containment",
            "A",
            "B",
            "--max-steps",
            "1",
        ])
        .unwrap_err();
        assert!(matches!(err, Ended::Exhausted { .. }), "{err}");
        // Unknown labels are plain errors.
        let err = run_raw(&["check", "--schema", &schema, "--containment", "A", "Zzz"]);
        assert!(matches!(err, Err(Ended::Msg(m)) if m.contains("unknown shape")));
        // JSON report carries the verdict.
        let out = run_ok(&[
            "check",
            "--schema",
            &schema,
            "--containment",
            "A",
            "B",
            "--report",
            "json",
        ]);
        let v: Value = serde_json::from_str(&out).expect("report parses");
        assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("containment"));
        assert_eq!(v.get("verdict").and_then(|s| s.as_str()), Some("contained"));
        assert_eq!(v.get("conforms").and_then(|c| c.as_bool()), Some(true));
    }

    #[test]
    fn check_schema_delta_classifies_and_revalidates() {
        let old = write_tmp(
            "delta-old.shex",
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n<Person> { foaf:age xsd:integer, foaf:name xsd:string+ }\n<Thing> { foaf:name . }",
        );
        // Person's name cardinality widens (changed); Thing is textually
        // rewritten but language-equal (unchanged, reusable).
        let new = write_tmp(
            "delta-new.shex",
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n<Person> { foaf:age xsd:integer, foaf:name xsd:string* }\n<Thing> { foaf:name .{1,1} }",
        );
        let out = run_ok(&["check", "--schema", &old, "--schema-delta", &new]);
        assert!(out.contains("changed: Person"), "{out}");
        assert!(out.contains("unchanged: Thing"), "{out}");
        assert!(out.contains("reusable: Thing"), "{out}");

        // With data: the revalidated typing must be byte-identical to a
        // from-scratch typing under the new schema.
        let (_, data) = person_files();
        let delta_out = run_ok(&[
            "check",
            "--schema",
            &old,
            "--schema-delta",
            &new,
            "--data",
            &data,
            "--jobs",
            "1",
        ]);
        assert!(delta_out.contains("transplanted:"), "{delta_out}");
        let scratch = run_ok(&["validate", "--schema", &new, "--data", &data, "--jobs", "1"]);
        let typing_of = |s: &str| {
            s.lines()
                .filter(|l| l.contains('→'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(typing_of(&delta_out), typing_of(&scratch));
    }

    #[test]
    fn convert_command_roundtrip() {
        let (schema, _) = person_files();
        let j = run_ok(&["convert", "--schema", &schema, "--to", "shexj"]);
        assert!(j.contains("TripleConstraint"), "{j}");
        let jpath = write_tmp("schema.json", &j);
        let c = run_ok(&["convert", "--schema", &jpath, "--to", "shexc"]);
        assert!(c.contains("<Person> {"), "{c}");
        assert!(run_err(&["convert", "--schema", &schema, "--to", "yaml"])
            .contains("unknown schema format"));
    }

    #[test]
    fn query_command() {
        let (_, data) = person_files();
        let ask = run_ok(&[
            "query",
            "--data",
            &data,
            "--ask",
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?s foaf:name \"John\" }",
        ]);
        assert_eq!(ask.trim(), "true");
        let select = run_ok(&[
            "query", "--data", &data, "--select",
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?s (COUNT(*) AS ?c) WHERE { ?s foaf:age ?o } GROUP BY ?s HAVING (?c >= 2)",
        ]);
        assert!(select.contains("mary"), "{select}");
        assert!(select.contains("(1 solutions)"), "{select}");
        assert!(run_err(&["query", "--data", &data]).contains("provide"));
        assert!(!run_err(&["query", "--data", &data, "--ask", "NOT SPARQL"]).is_empty());
    }

    #[test]
    fn shape_map_flow() {
        let (schema, data) = person_files();
        let map = write_tmp(
            "assoc.sm",
            "<http://example.org/john>@<Person>,\n<http://example.org/mary>@!<Person>,\n<http://example.org/mary>@<Person>",
        );
        let err = run_raw(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--map",
            &map,
            "--explain",
        ])
        .unwrap_err();
        let Ended::NonConforming { output } = err else {
            panic!("expected NonConforming, got: {err}");
        };
        assert!(output.contains("2/3 associations as expected"), "{output}");
        assert!(output.contains("UNEXPECTED"), "{output}");
        assert!(output.contains("because:"), "{output}");
    }

    #[test]
    fn no_sorbe_flag_agrees() {
        let (schema, data) = person_files();
        let with_fast = run_ok(&["validate", "--schema", &schema, "--data", &data]);
        let without = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--no-sorbe",
        ]);
        assert_eq!(with_fast, without);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A mistyped budget flag must not run unbudgeted, and an unknown
        // switch must not swallow the next argument as its value.
        let (schema, data) = person_files();
        for extra in [
            &["--max-step", "200"][..],
            &["--no-dfa"],
            &["--fixed-shard"],
        ] {
            let mut args = vec!["validate", "--schema", &schema, "--data", &data];
            args.extend_from_slice(extra);
            assert_eq!(run_err(&args), format!("unknown flag {}", extra[0]));
        }
    }

    #[test]
    fn prune_flag_is_rejected() {
        // The compile-time pruning rewrite is gone; its flag is an error
        // rather than a silently ignored switch.
        let (schema, data) = person_files();
        assert_eq!(
            run_err(&["validate", "--schema", &schema, "--data", &data, "--prune"]),
            "unknown flag --prune"
        );
    }

    #[test]
    fn benchmark_flags_are_known() {
        // Every flag `perfbench/bench.py` passes to `validate` and `serve`
        // parses, each with its own value.
        let pairs = [
            ("schema", "s.shex"),
            ("data", "d.ttl"),
            ("jobs", "2"),
            ("report", "json"),
            ("addr", "127.0.0.1:0"),
            ("workers", "2"),
        ];
        let args: Vec<String> = pairs
            .iter()
            .flat_map(|(name, value)| [format!("--{name}"), value.to_string()])
            .collect();
        let flags = parse_flags(args.iter().map(String::as_str)).unwrap();
        for (name, value) in pairs {
            assert_eq!(flags.get(name), Some(value), "--{name}");
        }
    }

    #[test]
    fn budget_flag_exhaustion_is_distinct() {
        let (schema, data) = person_files();
        // --max-steps 1: the very first derivative step trips the budget.
        let err = run_raw(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--node",
            "http://example.org/john",
            "--shape",
            "Person",
            "--max-steps",
            "1",
        ])
        .unwrap_err();
        match err {
            Ended::Exhausted { exhaustion, .. } => {
                assert_eq!(exhaustion.resource, shapex::Resource::Steps);
                assert_eq!(exhaustion.limit, 1);
            }
            other => panic!("expected Exhausted, got: {other}"),
        }
        // A generous budget behaves exactly like no budget.
        let out = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--max-steps",
            "1000000",
            "--max-depth",
            "1000",
            "--timeout-ms",
            "60000",
        ]);
        assert!(out.contains("john"), "{out}");
    }

    #[test]
    fn budget_flag_partial_typing_lists_exhausted_pairs() {
        let (schema, data) = person_files();
        let err = run_raw(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--max-steps",
            "1",
        ])
        .unwrap_err();
        match err {
            Ended::Exhausted { output, exhaustion } => {
                assert!(output.contains("PARTIAL"), "{output}");
                assert!(output.contains("budget exhausted"), "{output}");
                assert_eq!(exhaustion.resource, shapex::Resource::Steps);
            }
            other => panic!("expected Exhausted, got: {other}"),
        }
    }

    #[test]
    fn budget_flag_rejects_garbage() {
        let (schema, data) = person_files();
        let err = run_err(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--max-steps",
            "lots",
        ]);
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn backtracking_respects_budget_flags() {
        let (schema, data) = person_files();
        let err = run_raw(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--engine",
            "backtracking",
            "--node",
            "http://example.org/john",
            "--shape",
            "Person",
            "--max-steps",
            "1",
        ])
        .unwrap_err();
        assert!(
            matches!(err, Ended::Exhausted { .. }),
            "expected Exhausted, got: {err}"
        );
    }

    #[test]
    fn exhaustion_outranks_nonconformance() {
        // A map run where one association fails outright (non-conformance,
        // exit 2 on its own) AND another trips the step budget: the run is
        // partial, so Exhausted (exit 3) must win — the failing verdict
        // might flip with a larger budget.
        let (schema, _) = person_files();
        let mut big = String::from(
            "@prefix : <http://example.org/> .\n\
             @prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
             :mary foaf:age 50, 65 .\n\
             :big foaf:age 23 ",
        );
        for i in 0..200 {
            big.push_str(&format!("; foaf:name \"n{i}\" "));
        }
        big.push_str(".\n");
        let data = write_tmp("precedence.ttl", &big);
        let map = write_tmp(
            "precedence.sm",
            "<http://example.org/mary>@<Person>,\n<http://example.org/big>@<Person>",
        );
        let args = [
            "validate", "--schema", &schema, "--data", &data, "--map", &map,
        ];
        // Sanity: without a budget the same run is merely non-conforming.
        let plain = run_raw(&args).unwrap_err();
        let Ended::NonConforming { output } = &plain else {
            panic!("expected NonConforming, got: {plain}");
        };
        assert!(output.contains("1/2 associations as expected"), "{output}");
        // With a budget mary's check still completes (and fails) but big's
        // exhausts — and exhaustion wins.
        let mut budgeted: Vec<&str> = args.to_vec();
        budgeted.extend(["--max-steps", "40"]);
        let err = run_raw(&budgeted).unwrap_err();
        let Ended::Exhausted { output, .. } = &err else {
            panic!("expected Exhausted, got: {err}");
        };
        assert!(output.contains("UNEXPECTED"), "{output}");
        assert!(output.contains("EXHAUSTED"), "{output}");
    }

    #[test]
    fn jobs_flag_matches_sequential_typing() {
        let (schema, data) = person_files();
        let sequential = run_ok(&[
            "validate", "--schema", &schema, "--data", &data, "--jobs", "1",
        ]);
        for jobs in ["2", "4", "8"] {
            let parallel = run_ok(&[
                "validate", "--schema", &schema, "--data", &data, "--jobs", jobs,
            ]);
            assert_eq!(sequential, parallel, "--jobs {jobs} diverged");
        }
        assert!(
            run_err(&["validate", "--schema", &schema, "--data", &data, "--jobs", "0"])
                .contains("positive integer")
        );
        assert!(
            run_err(&["validate", "--schema", &schema, "--data", &data, "--jobs", "two"])
                .contains("positive integer")
        );
    }

    #[test]
    fn lenient_flag_skips_malformed_statements() {
        let (schema, _) = person_files();
        let data = write_tmp(
            "corrupt.ttl",
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :john foaf:age 23; foaf:name "John" .
            :broken foaf:age %%% garbage %%% .
            :mary foaf:age 50, 65 .
            "#,
        );
        // Strict mode aborts on the corrupt statement.
        let err = run_err(&["validate", "--schema", &schema, "--data", &data]);
        assert!(err.contains("corrupt.ttl"), "{err}");
        // Lenient mode skips it and still validates john.
        let out = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--lenient",
        ]);
        assert!(out.contains("skipped 1 malformed statement(s)"), "{out}");
        assert!(out.contains("john"), "{out}");
        let parsed = run_ok(&["parse", "--data", &data, "--lenient"]);
        assert!(parsed.contains("# lenient: skipped 1"), "{parsed}");
    }

    /// `validate --shacl --lenient` reports the skipped statements in both
    /// output forms, like every ShEx report; a clean parse adds no key.
    #[test]
    fn shacl_lenient_reports_the_skip_count() {
        let fixture = |p: &str| format!("{}/../../fixtures/shacl/{p}", env!("CARGO_MANIFEST_DIR"));
        let shapes = fixture("shapes.ttl");
        let clean = fs::read_to_string(fixture("data.ttl")).unwrap();
        let data = write_tmp("data.ttl", &format!("{clean}this is not turtle .\n"));
        let shacl = |data: &str, extra: &[&str]| {
            let args = [
                &["validate", "--shacl", &shapes, data, "--lenient"][..],
                extra,
            ]
            .concat();
            match run_raw(&args) {
                Err(Ended::NonConforming { output }) => output,
                other => panic!("expected the fixture's violations, got {other:?}"),
            }
        };
        assert!(shacl(&data, &[]).starts_with("lenient: skipped 1 malformed statement(s)\n"));
        let json = |data: &str| -> Value {
            let out = shacl(data, &["--report", "json", "--jobs", "1"]);
            serde_json::from_str(&out).unwrap()
        };
        let v = json(&data);
        assert_eq!(v.get("lenient_skipped").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("mode").and_then(Value::as_str), Some("shacl"));
        assert!(json(&fixture("data.ttl")).get("lenient_skipped").is_none());
    }

    /// `--shacl` reads a `.nt` shapes graph as N-Triples: the fixture's
    /// shapes re-serialized as N-Triples validate like the Turtle file,
    /// and Turtle syntax under a `.nt` name is a parse error.
    #[test]
    fn shacl_ntriples_shapes_graph() {
        let fixture = |p: &str| format!("{}/../../fixtures/shacl/{p}", env!("CARGO_MANIFEST_DIR"));
        let (ttl, data) = (fixture("shapes.ttl"), fixture("data.ttl"));
        let nt = write_tmp("shapes.nt", &run_ok(&["parse", "--data", &ttl]));
        let verdicts = |shapes: &str| {
            let args = ["validate", "--shacl", shapes, &data, "--report", "json"];
            let Err(Ended::NonConforming { output }) = run_raw(&args) else {
                panic!("expected the fixture's violations")
            };
            let v: Value = serde_json::from_str(&output).unwrap();
            let rows = v.get("sh:result").and_then(Value::as_array).unwrap();
            // Rows come in shape order, which the serialization may change.
            let mut components: Vec<Value> = rows
                .iter()
                .map(|r| r.get("sh:sourceConstraintComponent").unwrap().clone())
                .collect();
            components.sort_by_key(|c| c.as_str().map(str::to_string));
            components
        };
        assert_eq!(verdicts(&nt), verdicts(&ttl));
        let turtle_named_nt = write_tmp("shapes.nt", &fs::read_to_string(&ttl).unwrap());
        let err = run_err(&["validate", "--shacl", &turtle_named_nt, &data]);
        assert!(err.starts_with(&format!("{turtle_named_nt}: ")), "{err}");
    }

    #[test]
    fn ntriples_data_errors_are_located() {
        let schema = write_tmp("s.shex", "PREFIX e: <http://e/>\n<S> { e:p . }");
        let data = write_tmp("bad.nt", "");
        fs::write(
            &data,
            b"<http://e/a> <http://e/p> <http://e/b> .\n<http://e/a> <http://e/p> \"\xC3\xA9\xFF\" .\n",
        )
        .unwrap();
        let err = run_err(&["validate", "--schema", &schema, "--data", &data]);
        assert_eq!(err, format!("{data}:2:29: invalid UTF-8 byte 0xFF"));
        let missing = format!("{data}.gone.nt");
        let err = run_err(&["validate", "--schema", &schema, "--data", &missing]);
        assert!(err.starts_with(&format!("reading {missing}: ")), "{err}");
    }

    #[test]
    fn open_mode_flag() {
        let schema = write_tmp("open.shex", "PREFIX e: <http://e/>\n<S> { e:a [1] }");
        let data = write_tmp(
            "open.ttl",
            "@prefix e: <http://e/> . e:n e:a 1; e:other 2 .",
        );
        let closed = run_raw(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--node",
            "http://e/n",
            "--shape",
            "S",
        ])
        .unwrap_err();
        let Ended::NonConforming { output } = closed else {
            panic!("expected NonConforming, got: {closed}");
        };
        assert!(output.contains("does NOT conform"), "{output}");
        let open = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--node",
            "http://e/n",
            "--shape",
            "S",
            "--open",
        ]);
        assert!(open.contains("conforms to"), "{open}");
    }

    /// The delta file used by the `--delta` tests: it repairs mary (drops
    /// the extra age, adds the missing name), flipping her verdict.
    fn mary_delta_file() -> String {
        write_tmp(
            "mary.delta",
            "@prefix : <http://example.org/> .\n\
             @prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
             - :mary foaf:age 65 .\n\
             + :mary foaf:name \"Mary\" .\n",
        )
    }

    #[test]
    fn delta_mode_emits_before_after_report() {
        let (schema, data) = person_files();
        let delta = mary_delta_file();
        let out = run_ok(&[
            "validate", "--schema", &schema, "--data", &data, "--delta", &delta, "--report",
            "json", "--jobs", "1",
        ]);
        let v: Value = serde_json::from_str(&out).expect("report parses");
        assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("delta"));
        let verdict_of = |doc: &Value, node: &str| {
            doc.get("results")
                .and_then(|r| r.as_array())
                .unwrap()
                .iter()
                .find(|r| {
                    r.get("node")
                        .and_then(|n| n.as_str())
                        .is_some_and(|n| n.contains(node))
                })
                .and_then(|r| r.get("verdict"))
                .and_then(|s| s.as_str())
                .map(str::to_string)
        };
        let before = v.get("before").expect("before doc");
        let after = v.get("after").expect("after doc");
        assert_eq!(verdict_of(before, "mary").as_deref(), Some("fails"));
        assert_eq!(verdict_of(after, "mary").as_deref(), Some("conforms"));
        assert_eq!(verdict_of(after, "john").as_deref(), Some("conforms"));
        let d = v.get("delta").expect("delta block");
        assert_eq!(d.get("added").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(d.get("removed").and_then(|n| n.as_u64()), Some(1));
        // Only mary's pair is disturbed; john's answer is reused.
        assert_eq!(d.get("retyped").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(d.get("reused").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(v.get("conforms").and_then(|c| c.as_bool()), Some(true));
    }

    #[test]
    fn delta_after_report_matches_scratch_run() {
        let (schema, data) = person_files();
        let delta = mary_delta_file();
        let out = run_ok(&[
            "validate", "--schema", &schema, "--data", &data, "--delta", &delta, "--report",
            "json", "--jobs", "1",
        ]);
        let v: Value = serde_json::from_str(&out).unwrap();
        // The same end state, typed from scratch: identical result rows.
        let data_after = write_tmp(
            "data-after.ttl",
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :john foaf:age 23; foaf:name "John" .
            :mary foaf:age 50; foaf:name "Mary" .
            "#,
        );
        let scratch = run_ok(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data_after,
            "--report",
            "json",
        ]);
        let s: Value = serde_json::from_str(&scratch).unwrap();
        let after = v.get("after").unwrap();
        assert_eq!(after.get("results"), s.get("results"));
        assert_eq!(after.get("conforms"), s.get("conforms"));
    }

    #[test]
    fn delta_requires_report_json() {
        let (schema, data) = person_files();
        let delta = mary_delta_file();
        let err = run_err(&[
            "validate", "--schema", &schema, "--data", &data, "--delta", &delta,
        ]);
        assert!(err.contains("--report json"), "{err}");
    }

    #[test]
    fn delta_conflicts_with_focus_flags() {
        let (schema, data) = person_files();
        let delta = mary_delta_file();
        let err = run_err(&[
            "validate",
            "--schema",
            &schema,
            "--data",
            &data,
            "--delta",
            &delta,
            "--report",
            "json",
            "--node",
            "http://example.org/mary",
            "--shape",
            "Person",
        ]);
        assert!(err.contains("cannot be combined"), "{err}");
    }

    #[test]
    fn delta_bad_file_reports_line() {
        let (schema, data) = person_files();
        let delta = write_tmp("bad.delta", "+ not turtle at all\n");
        let err = run_err(&[
            "validate", "--schema", &schema, "--data", &data, "--delta", &delta, "--report", "json",
        ]);
        assert!(err.contains("delta line 1"), "{err}");
    }

    /// A writer that takes `left` bytes, then fails as a closed pipe does.
    struct ClosesAfter {
        left: usize,
    }

    impl Write for ClosesAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Output that cannot be written ends the run with a write error, in
    /// every mode, whether the output is streamed or written whole — and
    /// whether the run conformed, failed or exhausted its budget.
    #[test]
    fn write_errors_end_the_run() {
        let fixture = |p: &str| format!("{}/../../fixtures/{p}", env!("CARGO_MANIFEST_DIR"));
        let (schema, data) = (fixture("person/schema.shex"), fixture("person/data.ttl"));
        let (map, delta) = (fixture("person/map.sm"), fixture("person/delta.diff"));
        let base = ["validate", "--schema", &schema, "--data", &data];
        let json: &[&str] = &["--report", "json"];
        let runs: [&[&str]; 7] = [
            &[&base[..], json].concat(),
            &[&base[..], json, &["--map", &map]].concat(),
            &[&base[..], json, &["--delta", &delta]].concat(),
            &[&base[..], json, &["--max-steps", "1"]].concat(),
            &[&base[..], &["--explain"]].concat(),
            &["check", "--schema", &schema, "--report", "json"],
            &["--help"],
        ];
        for args in runs {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            for left in [0, 10] {
                let err = run(&args, &mut ClosesAfter { left }).unwrap_err();
                assert!(matches!(err, CliError::Write(_)), "{args:?}: {err:?}");
                assert_eq!(err.to_string(), "writing output: pipe closed");
            }
        }
    }

    /// Runs a command line and returns its stdout with the process exit
    /// code `main` would use.
    fn run_exit(args: &[&str]) -> (String, u8) {
        match run_raw(args) {
            Ok(out) => (out, 0),
            Err(Ended::NonConforming { output }) => (output, NONCONFORMANT_EXIT_CODE),
            Err(Ended::Exhausted { output, .. }) | Err(Ended::Undetermined { output }) => {
                (output, EXHAUSTED_EXIT_CODE)
            }
            Err(Ended::Msg(m)) => panic!("{args:?} failed: {m}"),
        }
    }

    /// `--delta` through an inverse arc: the edit reaches `<Team>` at
    /// `e:ghost` only through the object of `e:dave e:memberOf e:ghost`.
    /// Both worker counts report the same `delta` block, and the `after`
    /// typing equals a from-scratch run over the post-delta data.
    #[test]
    fn delta_through_an_inverse_arc_matches_scratch() {
        let fixture = |p: &str| {
            format!(
                "{}/../../fixtures/extensions/{p}",
                env!("CARGO_MANIFEST_DIR")
            )
        };
        let schema = fixture("schema.shex");
        let json = |args: &[&str]| -> Value {
            let mut all = vec!["validate", "--schema", &schema];
            all.extend_from_slice(args);
            all.extend_from_slice(&["--report", "json"]);
            serde_json::from_str(&run_exit(&all).0).expect("report parses")
        };
        let at = |doc: &Value, path: &[&str]| -> Value {
            let found = path.iter().try_fold(doc, |v, k| v.get(k));
            found.unwrap_or_else(|| panic!("no {path:?}")).clone()
        };
        let verdict = |doc: &Value, node: &str, shape: &str| -> Option<String> {
            let rows = doc.get("results")?.as_array()?;
            let row = rows.iter().find(|r| {
                r.get("node").and_then(Value::as_str) == Some(node)
                    && r.get("shape").and_then(Value::as_str) == Some(shape)
            })?;
            Some(row.get("verdict")?.as_str()?.to_string())
        };
        let scratch = json(&["--data", &fixture("data_after.ttl")]);
        for jobs in ["1", "2"] {
            let (data, delta) = (fixture("data.ttl"), fixture("delta.diff"));
            let run = json(&["--data", &data, "--delta", &delta, "--jobs", jobs]);
            let counts = ["invalidated", "retyped", "reused"]
                .map(|k| at(&run, &["delta", k]).as_u64().expect("a count"));
            assert_eq!(counts, [1, 3, 11], "--jobs {jobs}");
            for key in ["results", "exhausted", "conforms"] {
                let scratch = at(&scratch, &[key]);
                assert_eq!(at(&run, &["after", key]), scratch, "--jobs {jobs}: {key}");
            }
            let ghost = |side: &str| verdict(&at(&run, &[side]), "<http://e/ghost>", "Team");
            assert_eq!(ghost("before").as_deref(), Some("fails"));
            assert_eq!(ghost("after").as_deref(), Some("conforms"));
        }
    }

    /// CLI = server, for every validate mode the server serves: the
    /// `--report json --jobs 1` output and exit code equal a fresh
    /// in-process registry's body and `X-Shapex-Exit` over the same
    /// fixtures. The one difference the contract allows is the CLI-only
    /// `"file"` key of the `--delta` block.
    #[test]
    fn cli_reports_match_the_server_for_every_mode() {
        use shapex_server::registry::{ApiResponse, DataFormat, Registry, SchemaFormat};
        let fixture = |p: &str| format!("{}/../../fixtures/{p}", env!("CARGO_MANIFEST_DIR"));
        let read = |p: &str| fs::read_to_string(fixture(p)).unwrap();
        let (schema, data) = (fixture("person/schema.shex"), fixture("person/data.ttl"));
        let config = shapex_server::ServerConfig::default().engine_config();
        let registry = || {
            let registry = Registry::new();
            registry
                .load(
                    "default",
                    read("person/schema.shex"),
                    SchemaFormat::Shex,
                    read("person/data.ttl"),
                    DataFormat::Turtle,
                    config,
                    1,
                )
                .unwrap();
            registry
        };
        let served = |r: ApiResponse| {
            assert_eq!(r.status, 200, "{}", r.body);
            (r.body, r.exit)
        };
        let base = ["validate", "--schema", &schema, "--data", &data];
        let json = ["--report", "json", "--jobs", "1"];
        let cli = |extra: &[&str]| run_exit(&[&base[..], extra, &json[..]].concat());

        assert_eq!(cli(&[]), served(registry().validate("default")));

        let map = fixture("person/map.sm");
        let map_run = cli(&["--map", &map]);
        assert_eq!(map_run.1, 0);
        assert_eq!(
            map_run,
            served(registry().map("default", &read("person/map.sm")))
        );

        let delta = fixture("person/delta.diff");
        let (out, exit) = cli(&["--delta", &delta]);
        let mut doc: Value = serde_json::from_str(&out).unwrap();
        let Value::Object(root) = &mut doc else {
            panic!("{out}")
        };
        let Some(Value::Object(block)) = root.get_mut("delta") else {
            panic!("{out}")
        };
        assert_eq!(block.remove("file"), Some(Value::from(delta.as_str())));
        let cli_delta = (shapex::report::render(&doc), exit);
        assert_eq!(
            cli_delta,
            served(registry().delta("default", &read("person/delta.diff")))
        );

        let (shapes, shacl_data) = (fixture("shacl/shapes.ttl"), fixture("shacl/data.ttl"));
        let shacl_run =
            run_exit(&[&["validate", "--shacl", &shapes, &shacl_data][..], &json].concat());
        assert_eq!(shacl_run.1, NONCONFORMANT_EXIT_CODE);
        let shacl_registry = Registry::new();
        shacl_registry
            .load(
                "shacl",
                read("shacl/shapes.ttl"),
                SchemaFormat::Shacl,
                read("shacl/data.ttl"),
                DataFormat::Turtle,
                config,
                1,
            )
            .unwrap();
        assert_eq!(shacl_run, served(shacl_registry.validate("shacl")));
    }
}
