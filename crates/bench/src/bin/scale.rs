//! Emits `BENCH_scale.json`: million-triple ingestion curves (E12).
//!
//! ```sh
//! cargo run --release -p shapex-bench --bin scale
//! cargo run --release -p shapex-bench --bin scale -- --triples 1000000 --jobs 1,2,4
//! ```
//!
//! Per dump size (default 1M and 10M triples of the UniProt-shaped
//! workload) the harness measures:
//!
//! - **parse throughput** (triples/sec) of the chunked parallel N-Triples
//!   parser at each `--jobs` count, minimum over `--reps` runs;
//! - **typing throughput** (nodes/sec) of a full `type_all` over the
//!   parsed dump against the UniProt schema;
//! - **peak RSS** (`VmHWM` from `/proc/self/status`) per measurement.
//!
//! Every measurement runs in a *fresh subprocess* (the binary re-executes
//! itself with a hidden `--measure-*` mode) so `VmHWM` — a monotone
//! per-process high-water mark — reflects exactly one configuration, and
//! allocator state never leaks between samples. At `jobs > 1` the child
//! also checks the parallel parse against the sequential one with full
//! structural equality (pool, triples, adjacency), so the numbers are for
//! the *verified-identical* path; the check runs after `VmHWM` is read,
//! so its two datasets are not charged to the row.

use std::process::Command;
use std::time::Instant;

use serde_json::Value;
use shapex_bench::vm_hwm_kb;
use shapex_rdf::ntriples;
use shapex_workloads::scale;

const SEED: u64 = 42;
const DEFAULT_TRIPLES: &[usize] = &[1_000_000, 10_000_000];
const DEFAULT_JOBS: &[usize] = &[1, 2, 4];
const DEFAULT_REPS: usize = 3;

fn entities_for(triples: usize) -> usize {
    (triples as f64 / scale::TRIPLES_PER_ENTITY).ceil() as usize
}

/// Child mode: parse the generated dump `reps` times at `jobs` workers,
/// print one JSON object on stdout. Generation is untimed. At `jobs > 1`
/// the parallel parse is then checked structurally identical to the
/// sequential parse; the high-water mark is read before that check, which
/// holds both datasets at once, so the row charges `parse_par` only with
/// what it uses. A divergence fails the row.
fn measure_parse(entities: usize, jobs: usize, reps: usize) {
    let doc = scale::uniprot_ntriples(entities, SEED);
    let bytes = doc.len();

    let mut samples = Vec::with_capacity(reps);
    let mut triples = 0usize;
    for _ in 0..reps {
        let t = Instant::now();
        let ds = ntriples::parse_par(&doc, jobs).expect("workload parses");
        samples.push(t.elapsed().as_micros() as u64);
        triples = ds.graph.len();
    }
    let vm_hwm = vm_hwm_kb();

    if jobs > 1 {
        let seq = ntriples::parse(&doc).expect("workload parses");
        let par = ntriples::parse_par(&doc, jobs).expect("workload parses in parallel");
        assert_eq!(seq.pool.len(), par.pool.len(), "pool sizes diverge");
        for ((ia, ta), (ib, tb)) in seq.pool.iter().zip(par.pool.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(ta, tb, "TermId {ia:?} bound to different terms");
        }
        assert_eq!(
            seq.graph.triples_sorted(),
            par.graph.triples_sorted(),
            "triple sets diverge"
        );
        for (id, _) in seq.pool.iter() {
            assert_eq!(seq.graph.neighbourhood(id), par.graph.neighbourhood(id));
        }
    }

    let min_us = *samples.iter().min().expect("reps >= 1");
    let samples_v = Value::Array(samples.iter().map(|&s| Value::from(s)).collect());
    let row = serde_json::json!({
        "entities": entities as u64,
        "triples": triples as u64,
        "bytes": bytes as u64,
        "jobs": jobs as u64,
        "verified_identical": jobs > 1,
        "parse_min_us": min_us,
        "parse_samples_us": samples_v,
        "triples_per_sec": triples as f64 / (min_us as f64 / 1e6),
        "mb_per_sec": bytes as f64 / 1e6 / (min_us as f64 / 1e6),
        "vm_hwm_kb": vm_hwm,
    });
    println!("{}", serde_json::to_string(&row).expect("no NaN"));
}

/// Child mode: parse the dump once, compile the UniProt schema, and time a
/// full typing of the graph (every protein node against `<Protein>`).
fn measure_type(entities: usize) {
    use shapex::{Engine, EngineConfig};

    let doc = scale::uniprot_ntriples(entities, SEED);
    let mut ds = ntriples::parse(&doc).expect("workload parses");
    drop(doc);
    let schema = shapex_shex::shexc::parse(&scale::uniprot_schema()).expect("schema parses");
    let mut engine =
        Engine::compile(&schema, &mut ds.pool, EngineConfig::default()).expect("schema compiles");

    let t = Instant::now();
    let typing = engine.type_all(&ds.graph, &ds.pool);
    let us = t.elapsed().as_micros() as u64;
    let nodes = ds.graph.subjects().count();
    let row = serde_json::json!({
        "entities": entities as u64,
        "triples": ds.graph.len() as u64,
        "nodes": nodes as u64,
        "typed_pairs": typing.len() as u64,
        "type_all_us": us,
        "nodes_per_sec": nodes as f64 / (us as f64 / 1e6),
        "vm_hwm_kb": vm_hwm_kb(),
    });
    println!("{}", serde_json::to_string(&row).expect("no NaN"));
}

/// Runs this same binary in a child mode and parses its JSON stdout.
fn child(args: &[String]) -> Value {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("spawning measurement subprocess");
    assert!(
        out.status.success(),
        "measurement {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim())
        .unwrap_or_else(|e| panic!("measurement {args:?} produced bad JSON: {e}"))
}

fn parse_list(v: &str, flag: &str) -> Vec<usize> {
    v.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|_| panic!("{flag} wants comma-separated integers, got '{p}'"))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Hidden child modes (one measurement per process, for VmHWM isolation).
    match args.first().map(String::as_str) {
        Some("--measure-parse") => {
            let e: usize = args[1].parse().unwrap();
            let j: usize = args[2].parse().unwrap();
            let r: usize = args[3].parse().unwrap();
            return measure_parse(e, j, r);
        }
        Some("--measure-type") => {
            let e: usize = args[1].parse().unwrap();
            return measure_type(e);
        }
        _ => {}
    }

    let mut triples = DEFAULT_TRIPLES.to_vec();
    let mut jobs = DEFAULT_JOBS.to_vec();
    let mut reps = DEFAULT_REPS;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--triples" => triples = parse_list(&val("--triples"), "--triples"),
            "--jobs" => jobs = parse_list(&val("--jobs"), "--jobs"),
            "--reps" => reps = val("--reps").parse().expect("--reps wants an integer"),
            other => panic!("unknown flag '{other}' (see the module docs)"),
        }
    }

    let mut sizes = Vec::new();
    for &t in &triples {
        let entities = entities_for(t);
        let mut parse_rows = Vec::new();
        for &j in &jobs {
            let row = child(&[
                "--measure-parse".into(),
                entities.to_string(),
                j.to_string(),
                reps.to_string(),
            ]);
            let f = |k: &str| row.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "parse {t} triples @ jobs={j}: {:.0} triples/s ({:.1} MB/s), peak {} MB",
                f("triples_per_sec"),
                f("mb_per_sec"),
                row.get("vm_hwm_kb").and_then(Value::as_u64).unwrap_or(0) / 1024,
            );
            parse_rows.push(row);
        }
        let typing = child(&["--measure-type".into(), entities.to_string()]);
        println!(
            "type  {t} triples: {:.0} nodes/s, peak {} MB",
            typing
                .get("nodes_per_sec")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            typing.get("vm_hwm_kb").and_then(Value::as_u64).unwrap_or(0) / 1024,
        );
        sizes.push(serde_json::json!({
            "target_triples": t as u64,
            "entities": entities as u64,
            "parse": Value::Array(parse_rows),
            "typing": typing,
        }));
    }

    let doc = serde_json::json!({
        "generated_by": "cargo run --release -p shapex-bench --bin scale",
        "workload": "uniprot-shaped N-Triples (crates/workloads scale::uniprot_ntriples)",
        "allocator": "system",
        "seed": SEED,
        "reps_per_timing": reps as u64,
        "cpus_available": std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        "sizes": Value::Array(sizes),
    });
    let rendered = serde_json::to_string_pretty(&doc).expect("no NaN in report") + "\n";
    std::fs::write("BENCH_scale.json", &rendered).expect("write BENCH_scale.json");
    println!("wrote BENCH_scale.json");
}
