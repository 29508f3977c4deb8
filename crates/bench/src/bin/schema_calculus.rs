//! Emits `BENCH_schema_calculus.json`: schema-delta revalidation
//! (`Engine::swap_schema`: `schema_diff` classification plus verdict
//! transplant into the new engine) against the only alternative a schema edit otherwise leaves —
//! compiling the new schema cold and re-typing everything — across schema
//! churn from 1% to 50% of the shapes (E13).
//!
//! ```sh
//! cargo run --release -p shapex-bench --bin schema_calculus
//! ```
//!
//! The workload is a fleet of independent shapes `<S0>..<S39>`, each
//! validating its own predicate pair, over a graph whose nodes each
//! conform to one shape. Churning a fraction f rewrites the first
//! `ceil(f·40)` shapes' cardinalities (`.+` → `.*`), genuinely changing
//! their languages while the rest stay identical. The delta arm pays for
//! everything it needs — the containment-based diff, the new compile, and
//! the transplant — so the reported speedup is end-to-end honest. The two
//! strategies are sampled interleaved and the reported timing is the
//! minimum over the reps, medians alongside (same rationale as the
//! revalidate bench: the work is deterministic, the minimum is the
//! least-disturbed run).

use std::time::Instant;

use serde_json::Value;
use shapex::{Engine, EngineConfig};
use shapex_rdf::graph::Dataset;
use shapex_rdf::term::{Literal, Term};

const REPS: usize = 9;
const CHURN: [f64; 3] = [0.01, 0.1, 0.5];
const SHAPES: usize = 40;
const NODES: usize = 240;

/// The fleet schema with the first `churned` shapes rewritten to a
/// different language (`.+` loosened to `.*`).
fn schema_src(churned: usize) -> String {
    let mut s = String::from("PREFIX e: <http://e/>\n");
    for i in 0..SHAPES {
        let card = if i < churned { "*" } else { "+" };
        s.push_str(&format!("<S{i}> {{ e:p{i} .{card} , e:q{i} .? }}\n"));
    }
    s
}

/// One subject per node, conforming to shape `n mod SHAPES`.
fn dataset() -> Dataset {
    let mut ds = Dataset::new();
    for n in 0..NODES {
        let subject = Term::iri(format!("http://e/n{n}"));
        let i = n % SHAPES;
        ds.insert(
            subject.clone(),
            Term::iri(format!("http://e/p{i}")),
            Term::Literal(Literal::integer(1)),
        );
        ds.insert(
            subject,
            Term::iri(format!("http://e/q{i}")),
            Term::Literal(Literal::integer(2)),
        );
    }
    ds
}

/// `(min, median)` of a sample vector, in microseconds.
fn min_median(mut samples: Vec<u128>) -> (u64, u64) {
    samples.sort();
    (samples[0] as u64, samples[samples.len() / 2] as u64)
}

fn case(fraction: f64) -> Value {
    let churned = ((SHAPES as f64 * fraction).round() as usize).clamp(1, SHAPES);
    let old = shapex_shex::shexc::parse(&schema_src(0)).expect("old schema parses");
    let new = shapex_shex::shexc::parse(&schema_src(churned)).expect("new schema parses");
    let config = EngineConfig::default();

    let mut ds = dataset();
    // The warm pre-edit engine every delta-arm sample transplants from.
    let mut old_engine = Engine::compile(&old, &mut ds.pool, config).expect("old schema compiles");
    old_engine.type_all(&ds.graph, &ds.pool);

    // Correctness gate: the transplanted typing of the new schema must
    // equal the from-scratch one.
    let swap = old_engine
        .swap_schema(&new, &mut ds.pool)
        .expect("new schema swaps in");
    let (mut warm, diff, transplanted) = (swap.engine, swap.diff, swap.transplanted);
    assert_eq!(diff.changed.len(), churned, "churn miscounted");
    let t_warm = warm.type_all(&ds.graph, &ds.pool);
    let mut scratch = Engine::compile(&new, &mut ds.pool, config).expect("new schema compiles");
    let t_scratch = scratch.type_all(&ds.graph, &ds.pool);
    assert_eq!(t_warm, t_scratch, "schema-delta diverges at {fraction}");

    let mut scratch_samples = Vec::with_capacity(REPS);
    let mut delta_samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        let mut e = Engine::compile(&new, &mut ds.pool, config).expect("compiles");
        e.type_all(&ds.graph, &ds.pool);
        scratch_samples.push(t.elapsed().as_micros());

        let t = Instant::now();
        let mut e = old_engine
            .swap_schema(&new, &mut ds.pool)
            .expect("swaps")
            .engine;
        e.type_all(&ds.graph, &ds.pool);
        delta_samples.push(t.elapsed().as_micros());
    }
    let (scratch_us, scratch_median_us) = min_median(scratch_samples);
    let (delta_us, delta_median_us) = min_median(delta_samples);

    serde_json::json!({
        "churn_fraction": fraction,
        "shapes_changed": churned as u64,
        "shapes_reusable": diff.reusable.len() as u64,
        "transplanted_pairs": transplanted as u64,
        "scratch_us": scratch_us,
        "schema_delta_us": delta_us,
        "scratch_median_us": scratch_median_us,
        "schema_delta_median_us": delta_median_us,
        "speedup": scratch_us as f64 / delta_us.max(1) as f64,
    })
}

fn main() {
    let rows: Vec<Value> = CHURN.iter().map(|&f| case(f)).collect();
    let doc = serde_json::json!({
        "generated_by": "cargo run --release -p shapex-bench --bin schema_calculus",
        "reps_per_timing": REPS as u64,
        "shapes": SHAPES as u64,
        "nodes": NODES as u64,
        "cases": Value::Array(rows),
    });
    let rendered = serde_json::to_string_pretty(&doc).expect("no NaN in report") + "\n";
    let path = "BENCH_schema_calculus.json";
    std::fs::write(path, &rendered).expect("write BENCH_schema_calculus.json");
    for c in doc.get("cases").and_then(|c| c.as_array()).unwrap() {
        let num = |k: &str| c.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        println!(
            "churn {:.0}%: {} µs scratch / {} µs schema-delta ({:.2}x, {} transplanted)",
            c.get("churn_fraction")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
                * 100.0,
            num("scratch_us"),
            num("schema_delta_us"),
            c.get("speedup").and_then(|v| v.as_f64()).unwrap_or(0.0),
            num("transplanted_pairs"),
        );
    }
    println!("wrote {path}");
}
