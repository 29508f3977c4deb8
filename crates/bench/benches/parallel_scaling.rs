//! Parallel typing scaling: `Engine::type_all_par` at 1/2/4/8 workers.
//!
//! Three workload shapes:
//! * wide fan-out of independent record nodes (`flat_person_records`) —
//!   embarrassingly parallel, the headline speedup case;
//! * a recursive referencing network (`person_network`) — workers trade
//!   verdicts through the publication log while the run is going;
//! * the pathological fixtures under budgets — measures governed typing,
//!   where every worker measures the deadline from the run's start.
//!
//! `jobs = 1` is the exact sequential path, so each group's first entry is
//! the baseline the other entries are compared against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use shapex::{Budget, Engine, EngineConfig};
use shapex_rdf::graph::Dataset;
use shapex_workloads::{flat_person_records, person_network, Topology};

const JOBS: [usize; 4] = [1, 2, 4, 8];

fn bench_typing(c: &mut Criterion, name: &str, schema_src: &str, mut ds: Dataset, budget: Budget) {
    let schema = shapex_shex::shexc::parse(schema_src).unwrap();
    let config = EngineConfig {
        budget,
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
    let mut group = c.benchmark_group(format!("parallel_scaling/{name}"));
    for jobs in JOBS {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |bench, &jobs| {
            bench.iter(|| {
                engine.reset();
                black_box(engine.type_all_par(&ds.graph, &ds.pool, jobs))
            })
        });
    }
    group.finish();
}

fn pathological(name: &str) -> (String, Dataset) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/_pathological");
    let schema_src = std::fs::read_to_string(root.join(format!("{name}.shex")))
        .unwrap_or_else(|e| panic!("{name}.shex: {e}"));
    let data_src = std::fs::read_to_string(root.join(format!("{name}.ttl")))
        .unwrap_or_else(|e| panic!("{name}.ttl: {e}"));
    let ds = shapex_rdf::turtle::parse(&data_src).unwrap();
    (schema_src, ds)
}

fn wide_fanout(c: &mut Criterion) {
    let w = flat_person_records(600, 0);
    bench_typing(
        c,
        "flat_records_600",
        &w.schema,
        w.dataset,
        Budget::UNLIMITED,
    );
}

fn recursive_network(c: &mut Criterion) {
    let w = person_network(300, Topology::Random { degree: 2 }, 0.2, 7);
    bench_typing(
        c,
        "person_network_300",
        &w.schema,
        w.dataset,
        Budget::UNLIMITED,
    );
}

fn pathological_fixtures(c: &mut Criterion) {
    // Budgets per the fixtures' design: these exist to blow up, so the
    // bench measures governed (partial) typing, not an unbounded search.
    let (schema, ds) = pathological("fanout");
    bench_typing(c, "pathological_fanout", &schema, ds, Budget::UNLIMITED);
    let (schema, ds) = pathological("interleave");
    bench_typing(
        c,
        "pathological_interleave",
        &schema,
        ds,
        Budget::steps(50_000),
    );
    let (schema, ds) = pathological("deep_recursion");
    bench_typing(
        c,
        "pathological_deep_recursion",
        &schema,
        ds,
        Budget::UNLIMITED.with_max_depth(64),
    );
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

criterion_group! {
    name = benches;
    config = config();
    targets = wide_fanout, recursive_network, pathological_fixtures
}
criterion_main!(benches);
