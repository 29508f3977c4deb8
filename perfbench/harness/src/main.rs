//! `perfbench-harness` — the compiled half of the perfbench benchmark
//! (`perfbench/bench.py` drives it).
//!
//! ```text
//! perfbench-harness gen    --workload W --seed N --dir D [--size K]
//! perfbench-harness client --addr HOST:PORT --seed N --seconds S [--size K] [--setup-only] [--dump D] [--flip I]
//! perfbench-harness replay --workload W --seed N --seconds S --dir D [--size K]
//! perfbench-harness check  --workload W --dir D --report FILE [--same-as FILE]
//! ```
//!
//! `gen` writes a workload's input files and names the `--jobs` its
//! `shapex` process runs with; `client` drives a running `shapex serve`
//! through the `serve-mixed` closed loop; `replay` runs a workload's
//! pipeline in-process with spans around every layer call; `check` gates a
//! CLI report against the reference verdicts and, with `--same-as`,
//! compares its verdict rows with another report's. Each prints one JSON
//! object on stdout.

mod check;
mod client;
mod inputs;
mod replay;
mod stats;
mod trace;

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Value};

/// Keep-alive connections in the `serve-mixed` closed loop.
const CONNECTIONS: usize = 2;

struct Args(HashMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            let value = match name {
                "setup-only" => String::new(),
                _ => it
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone(),
            };
            map.insert(name.to_string(), value);
        }
        Ok(Args(map))
    }

    fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.0.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number '{v}'")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

fn default_size(workload: &str) -> Result<usize, String> {
    match workload {
        "cli-uniprot" => Ok(inputs::CLI_UNIPROT_ENTITIES),
        "cli-recursive" => Ok(inputs::CLI_RECURSIVE_PEOPLE),
        "serve-mixed" => Ok(inputs::SERVE_PEOPLE),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// `--jobs` of the `shapex` process a workload runs: `cli-recursive` takes
/// the parallel parser and the work-stealing scheduler, the others the
/// exact sequential path.
fn jobs(workload: &str) -> usize {
    if workload == "cli-recursive" {
        2
    } else {
        1
    }
}

/// The CLI gate: `report` has exactly one row per generated node, each
/// with the reference verdict in `dir/expected.json`.
fn check_cli(dir: &Path, report: &str) -> Result<(), String> {
    let text = fs::read_to_string(dir.join("expected.json"))
        .map_err(|e| format!("reading expected.json: {e}"))?;
    let expected: Value = serde_json::from_str(&text).map_err(|e| format!("expected.json: {e}"))?;
    let field = |name: &str| {
        expected
            .get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("expected.json has no {name}"))
    };
    let verdicts: Vec<bool> = field("verdicts")?.chars().map(|c| c == '1').collect();
    check::check_typing(
        report,
        check::Section::Top,
        field("node_prefix")?,
        &[(field("shape")?, &verdicts)],
    )
}

/// The `serve-mixed` scenario. `--flip I` corrupts the reference verdicts
/// of person I (ShEx and SHACL), so the self-test can see the gates fail.
fn scenario(args: &Args) -> Result<inputs::ServeScenario, String> {
    let people = args.num("size", Some(inputs::SERVE_PEOPLE))?;
    let records = people * inputs::SERVE_SHACL_RECORDS / inputs::SERVE_PEOPLE;
    let mut s = inputs::serve_scenario(
        args.num("seed", None)?,
        people,
        records,
        CONNECTIONS,
        inputs::SCRIPT_ROUNDS,
    )?;
    if args.has("flip") {
        let i: usize = args.num("flip", None)?;
        s.expected[i] = !s.expected[i];
        s.shacl_expected[i] = !s.shacl_expected[i];
    }
    Ok(s)
}

fn run(command: &str, args: &Args) -> Result<Value, String> {
    match command {
        "gen" => {
            let workload = args.str("workload")?;
            let dir = Path::new(args.str("dir")?);
            let start = Instant::now();
            if workload == "serve-mixed" {
                // `shapex serve` needs a default entry to start; the
                // workload's own entries are loaded over HTTP.
                fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
                fs::write(dir.join("default.shex"), "<S> { <http://e/p> . }\n")
                    .and_then(|()| {
                        fs::write(
                            dir.join("default.nt"),
                            "<http://e/s> <http://e/p> <http://e/o> .\n",
                        )
                    })
                    .map_err(|e| format!("writing default entry: {e}"))?;
            } else {
                let size = args.num("size", Some(default_size(workload)?))?;
                inputs::write_cli(workload, args.num("seed", None)?, size, dir)?;
            }
            Ok(json!({"gen_s": start.elapsed().as_secs_f64(), "jobs": jobs(workload)}))
        }
        "client" => {
            let addr = args.str("addr")?;
            let s = scenario(args)?;
            let bodies = client::Bodies::new(&s);
            let start = Instant::now();
            let mut tally = client::Tally::default();
            let (validate, shacl) = client::setup(addr, &s, &bodies, CONNECTIONS, &mut tally);
            let setup_s = start.elapsed().as_secs_f64();
            if args.has("setup-only") {
                let mut out = serde_json::Map::new();
                tally.write_counts(&mut out);
                out.insert("setup_s".into(), json!(setup_s));
                return Ok(Value::Object(out));
            }
            let dump = args.0.get("dump").map(Path::new);
            if let Some(dir) = dump {
                fs::write(dir.join("client_validate.json"), validate)
                    .and_then(|()| fs::write(dir.join("client_shacl.json"), shacl))
                    .map_err(|e| format!("writing warm-up replies: {e}"))?;
            }
            let seconds = args.num("seconds", None)?;
            let mut out = client::run(addr, &s, &bodies, CONNECTIONS, seconds, dump, tally);
            if let Value::Object(m) = &mut out {
                m.insert("setup_s".to_string(), json!(setup_s));
            }
            Ok(out)
        }
        "replay" => {
            let workload = args.str("workload")?;
            let dir = Path::new(args.str("dir")?);
            let seconds: f64 = args.num("seconds", None)?;
            default_size(workload)?;
            let jobs = jobs(workload);
            let mut tracer = trace::Tracer::new();
            let out = if workload == "serve-mixed" {
                let s = scenario(args)?;
                let bodies = client::Bodies::new(&s);
                replay::replay_serve(&s, &bodies, jobs, seconds, dir, &mut tracer)?
            } else {
                replay::replay_cli(dir, jobs, seconds, &mut tracer)?
            };
            tracer.write(&dir.join("spans.jsonl"))?;
            Ok(out)
        }
        "check" => {
            let workload = args.str("workload")?;
            default_size(workload)?;
            let jobs = jobs(workload);
            let dir = Path::new(args.str("dir")?);
            let read = |name: &str| {
                fs::read_to_string(dir.join(name)).map_err(|e| format!("reading {name}: {e}"))
            };
            let report = read(args.str("report")?)?;
            let mut tally = client::Tally::default();
            if workload != "serve-mixed" {
                // `serve-mixed` replies are gated as they arrive.
                tally.record(check_cli(dir, &report));
            }
            if let Some(other) = args.0.get("same-as") {
                // Under `--jobs 2` the failure trace of a failing row can
                // cite a different witness triple from one run to the next
                // (it is recomputed from a memo whose contents depend on
                // which worker proved what), so there only the verdicts
                // and the presence of a trace count.
                let name = args.str("report")?;
                tally.record(
                    check::same_rows(&report, &read(other)?, jobs == 1)
                        .map_err(|e| format!("{name} vs {other}: {e}")),
                );
            }
            let mut out = serde_json::Map::new();
            tally.write_counts(&mut out);
            Ok(Value::Object(out))
        }
        other => Err(format!(
            "unknown command '{other}' (gen, client, replay, check)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-harness (gen|client|replay|check) [--flag value]...");
        return ExitCode::from(2);
    };
    match Args::parse(rest).and_then(|args| run(command, &args)) {
        Ok(out) => {
            println!("{}", serde_json::to_string(&out).expect("plain JSON"));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-harness {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
