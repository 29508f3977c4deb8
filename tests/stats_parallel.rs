//! Regression suite for `--stats`/metrics totals under parallel typing.
//!
//! The end-of-run merge in `Engine::type_all_par` folds each worker's
//! counters into the coordinator exactly once. These tests pin the
//! observable consequence: over the `fixtures/_pathological` inputs run
//! **under a steps budget**, a `--jobs 4` run reports byte-identical
//! step/memo totals to the sequential `--jobs 1` run — every exhausted
//! query deterministically burns its full budget, and exhausted pairs are
//! never memoised, so sharding cannot change any total. (Without a budget
//! the totals legitimately diverge: parallel workers re-derive recursive
//! sub-proofs a sequential run would answer from its shared memo.)

use std::fs;
use std::path::{Path, PathBuf};

use shapex::{Budget, Engine, EngineConfig, Metrics, Stats};
use shapex_rdf::graph::Dataset;
use shapex_rdf::turtle;
use shapex_shex::shexc;

fn pathological(name: &str) -> (shapex_shex::Schema, Dataset) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/_pathological");
    let read = |p: PathBuf| fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    let schema = shexc::parse(&read(root.join(format!("{name}.shex")))).expect("schema parses");
    let ds = turtle::parse(&read(root.join(format!("{name}.ttl")))).expect("data parses");
    (schema, ds)
}

/// Runs the full typing at the given worker count and returns the final
/// coordinator-side counters.
fn run(name: &str, budget: Budget, jobs: usize) -> (Stats, Metrics, usize, usize) {
    let (schema, mut ds) = pathological(name);
    let config = EngineConfig {
        budget,
        metrics: true,
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("schema compiles");
    let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    let metrics = engine.metrics().expect("metrics enabled").clone();
    (
        engine.stats(),
        metrics,
        typing.len(),
        typing.exhausted.len(),
    )
}

/// Asserts the totals that must be sharding-invariant. Arena/pool sizes
/// are excluded by design: each worker interns its own arena, so those
/// high-water marks measure per-shard state, not run totals (documented in
/// `Stats::absorb`).
fn assert_totals_match(name: &str, budget: Budget) {
    let (seq, seq_m, seq_typed, seq_exhausted) = run(name, budget, 1);
    let (par, par_m, par_typed, par_exhausted) = run(name, budget, 4);
    assert_eq!(seq_typed, par_typed, "{name}: typed pairs diverged");
    assert_eq!(
        seq_exhausted, par_exhausted,
        "{name}: exhausted pairs diverged"
    );
    for (field, a, b) in [
        (
            "derivative_steps",
            seq.derivative_steps,
            par.derivative_steps,
        ),
        ("deriv_memo_hits", seq.deriv_memo_hits, par.deriv_memo_hits),
        ("node_checks", seq.node_checks, par.node_checks),
        ("gfp_reruns", seq.gfp_reruns, par.gfp_reruns),
        ("sorbe_checks", seq.sorbe_checks, par.sorbe_checks),
        ("budget_steps", seq.budget_steps, par.budget_steps),
        (
            "exhausted_checks",
            seq.exhausted_checks,
            par.exhausted_checks,
        ),
        (
            "max_depth_reached",
            seq.max_depth_reached as u64,
            par.max_depth_reached as u64,
        ),
    ] {
        assert_eq!(
            a, b,
            "{name}: stats.{field} diverged between jobs=1 and jobs=4"
        );
    }
    for (field, a, b) in [
        (
            "profile_stable.lookups",
            seq_m.profile_stable.lookups,
            par_m.profile_stable.lookups,
        ),
        (
            "profile_assumption.lookups",
            seq_m.profile_assumption.lookups,
            par_m.profile_assumption.lookups,
        ),
        (
            "head_index_queries",
            seq_m.head_index_queries,
            par_m.head_index_queries,
        ),
        ("budget_steps", seq_m.budget_steps, par_m.budget_steps),
    ] {
        assert_eq!(
            a, b,
            "{name}: metrics.{field} diverged between jobs=1 and jobs=4"
        );
    }
    // Per-shape attribution must agree too — it is merged through the same
    // delta discipline.
    assert_eq!(
        seq_m.per_shape, par_m.per_shape,
        "{name}: per-shape metrics diverged"
    );
    // The merged metrics obey the cache invariant on both sides.
    for m in [&seq_m, &par_m] {
        for c in [&m.profile_stable, &m.profile_assumption, &m.dfa_table] {
            assert_eq!(
                c.lookups,
                c.hits + c.misses,
                "{name}: cache invariant broken"
            );
        }
    }
}

#[test]
fn deep_recursion_totals_jobs_invariant() {
    // 2000 queries over the e:next cycle; each exhausts its 200-step
    // budget deterministically, whichever worker runs it.
    assert_totals_match("deep_recursion", Budget::steps(200));
}

#[test]
fn fanout_totals_jobs_invariant() {
    // One subject × one shape: the window degenerates to a single query,
    // which must produce identical totals however many workers idle.
    assert_totals_match("fanout", Budget::steps(1_000));
}

#[test]
fn interleave_totals_jobs_invariant() {
    assert_totals_match("interleave", Budget::steps(10_000));
}

#[test]
fn dfa_typing_jobs_invariant_and_matches_uncached() {
    // The lazy DFA shares dense transition tables across shards: workers
    // fork a snapshot and the coordinator merges their fill logs once,
    // when the run ends. Whatever the sharing does to *when* cells fill, the
    // typing must be identical at every jobs count, and identical to the
    // uncached (`no_deriv_memo`) runs. `no_sorbe` forces the derivative
    // path so the tables are genuinely exercised.
    let run = |no_deriv_memo: bool, jobs: usize| {
        let w = shapex_workloads::person_network(
            40,
            shapex_workloads::Topology::Random { degree: 2 },
            0.3,
            7,
        );
        let schema = shexc::parse(&w.schema).expect("schema parses");
        let mut ds = w.dataset;
        let config = EngineConfig {
            no_deriv_memo,
            no_sorbe: true,
            ..EngineConfig::default()
        };
        let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("schema compiles");
        let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
        let filled: usize = engine.dfa_summary().iter().map(|&(_, _, _, f)| f).sum();
        (typing, filled)
    };
    let (dfa_seq, filled_seq) = run(false, 1);
    let (dfa_par, filled_par) = run(false, 4);
    let (uncached_seq, _) = run(true, 1);
    let (uncached_par, _) = run(true, 4);
    assert!(filled_seq > 0, "sequential run never filled a DFA cell");
    assert!(filled_par > 0, "parallel run never filled a DFA cell");
    assert_eq!(
        dfa_seq, dfa_par,
        "DFA typing diverged between jobs=1 and jobs=4"
    );
    assert_eq!(
        uncached_seq, uncached_par,
        "uncached typing diverged between jobs=1 and jobs=4"
    );
    assert_eq!(dfa_seq, uncached_seq, "DFA and uncached typings diverged");
}

#[test]
fn hub_typing_jobs_invariant() {
    // The adversarial shape for static sharding: one (hub, Hub) mega-task
    // whose proof transitively decides every member, plus a Zipf fanout
    // tail. Whatever work stealing and mid-run publication do, the
    // typing must be byte-identical to the sequential run at every worker
    // count.
    let w = shapex_workloads::scale::hub(120, 9);
    let schema = shexc::parse(&w.schema).expect("hub schema parses");
    let mut ds = w.dataset;
    let mut seq =
        Engine::compile(&schema, &mut ds.pool, EngineConfig::default()).expect("compiles");
    let reference = seq.type_all(&ds.graph, &ds.pool);
    let hub_node = ds
        .iri(&format!("{}hub", shapex_workloads::scale::HUB))
        .expect("hub interned");
    let hub_shape = seq.shape_id(&"Hub".into()).expect("Hub shape");
    let member_shape = seq.shape_id(&"Member".into()).expect("Member shape");
    assert!(reference.has(hub_node, hub_shape), "hub must conform");
    for focus in &w.focus {
        let node = ds.iri(focus).expect("member interned");
        assert!(reference.has(node, member_shape), "{focus} must conform");
    }
    for jobs in [1usize, 2, 4] {
        let mut par =
            Engine::compile(&schema, &mut ds.pool, EngineConfig::default()).expect("compiles");
        let typing = par.type_all_par(&ds.graph, &ds.pool, jobs);
        assert_eq!(typing, reference, "typing diverged at jobs={jobs}");
    }
}

#[test]
fn hub_wave_accounting_is_consistent() {
    // One parallel run pushes one wave record. `memo_answered` (verdicts
    // memoised before the run) and `dispatched` tile the query list;
    // `merged_answered` counts the dispatched queries a worker answered
    // from a verdict reached earlier in the same run. On a fresh engine
    // nothing predates the run, and the hub's cascade decides every
    // member while the run is still going, so those member queries are
    // answered from the memo instead of being re-derived.
    let w = shapex_workloads::scale::hub(300, 3);
    let schema = shexc::parse(&w.schema).expect("hub schema parses");
    let mut ds = w.dataset;
    let config = EngineConfig {
        metrics: true,
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
    let typing = engine.type_all_par(&ds.graph, &ds.pool, 2);
    assert!(!typing.is_partial());
    let metrics = engine.metrics().expect("metrics enabled");
    assert_eq!(metrics.waves.len(), 1, "one record per parallel run");
    let wave = &metrics.waves[0];
    assert_eq!(
        wave.memo_answered + wave.dispatched,
        wave.queries,
        "answered + dispatched must tile the run"
    );
    assert_eq!(
        wave.memo_answered, 0,
        "fresh engine has no pre-run memo verdicts"
    );
    assert!(
        wave.merged_answered > 0 && wave.merged_answered <= wave.dispatched,
        "the hub cascade should answer dispatched member queries: {wave:?}"
    );
    assert_eq!(wave.shards.len(), 2);
    assert_eq!(
        wave.dispatched,
        wave.shards.iter().map(|s| s.queries).sum::<u64>(),
        "every dispatched query runs on exactly one shard"
    );
    assert_eq!(
        wave.steals,
        wave.shards.iter().map(|s| s.steals).sum::<u64>(),
        "wave steal total must equal the shard sum"
    );
    assert_eq!(
        wave.steal_attempts,
        wave.shards.iter().map(|s| s.steal_attempts).sum::<u64>(),
        "wave steal-attempt total must equal the shard sum"
    );
    assert_eq!(
        wave.published,
        wave.shards.iter().map(|s| s.published).sum::<u64>(),
        "wave published total must equal the shard sum"
    );
    assert!(
        wave.published > 0,
        "workers should publish verdicts while the run is going"
    );
}

#[test]
fn revalidate_par_is_one_dispatch_of_the_retyped_pairs() {
    // A parallel revalidation is one run: the pairs the invalidation
    // closure left in the memo are answered before dispatch, and exactly
    // the retyped ones are dispatched — none is skipped because an
    // earlier slice of the run happened to merge it first.
    let w = shapex_workloads::person_network(640, shapex_workloads::Topology::Chain, 0.0, 11);
    let schema = shexc::parse(&w.schema).expect("schema parses");
    let mut ds = w.dataset;
    let config = EngineConfig {
        incremental: true,
        metrics: true,
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
    engine.type_all_par(&ds.graph, &ds.pool, 2);
    let waves_before = engine.metrics().expect("metrics enabled").waves.len();
    // A second age breaks person600's `foaf:age` cardinality, which
    // propagates down the `knows` chain to person0: 601 pairs are retyped
    // and the 39 above are reused.
    let delta = shapex_rdf::delta::parse(
        "+ <http://shapex.example/person600> <http://xmlns.com/foaf/0.1/age> 1000 .\n",
        &mut ds.pool,
    )
    .expect("delta parses");
    ds.apply_delta(&delta);
    let typing = engine
        .revalidate_par(&ds.graph, &ds.pool, &delta, 2)
        .expect("delta applied");
    let mut fresh = Engine::new(&schema, &mut ds.pool).expect("compiles");
    assert_eq!(typing, fresh.type_all(&ds.graph, &ds.pool));
    let stats = engine.stats();
    assert_eq!((stats.retyped_pairs, stats.reused_pairs), (601, 39));
    let metrics = engine.metrics().expect("metrics enabled");
    assert_eq!(metrics.waves.len(), waves_before + 1, "one record per run");
    let wave = metrics.waves.last().expect("revalidation wave");
    assert_eq!(wave.dispatched, stats.retyped_pairs, "{wave:?}");
    assert_eq!(wave.memo_answered, stats.reused_pairs, "{wave:?}");
}

#[test]
fn exhausted_queries_burn_exactly_their_budget() {
    // The determinism the jobs-invariance rests on: every exhausted query
    // spends exactly `limit` steps, so budget_steps == exhausted × limit
    // when every query exhausts.
    let (stats, metrics, typed, exhausted) = run("deep_recursion", Budget::steps(200), 4);
    assert_eq!(typed, 0, "no pair should complete under 200 steps");
    assert!(exhausted > 0);
    assert_eq!(stats.budget_steps, exhausted as u64 * 200);
    assert_eq!(metrics.budget_steps, stats.budget_steps);
    assert_eq!(stats.exhausted_checks, exhausted as u64);
}
