//! Regenerates the measured tables in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p shapex-bench --bin report
//! ```
//!
//! E6's all-valid scaling table runs each cell in a child process (this
//! binary with the hidden `--type-all-valid N` mode) so that each cell's
//! peak RSS is its own.
//!
//! Unlike the Criterion benches (which give statistically careful per-point
//! timings), this binary prints the full markdown tables in one pass —
//! median of a few repetitions per cell, which is plenty for the
//! order-of-magnitude shapes the paper's claims are about.

use std::process::Command;
use std::time::Instant;

use shapex::{Engine, EngineConfig, Simplify};
use shapex_bench::{parse_schema, vm_hwm_kb, BacktrackRun, DerivativeRun};
use shapex_shex::ast::ShapeLabel;
use shapex_shex::strre::{backtrack_match, Regex};
use shapex_workloads::{
    alternation_fanout, and_width, balanced_ab, example8_neighbourhood, flat_person_records,
    person_network, repeat_bounds, Topology, Workload,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, n] = &args[..] {
        if mode == "--type-all-valid" {
            type_all_valid_cell(n.parse().expect("--type-all-valid takes a person count"));
            return;
        }
    }
    println!("# shapex experiment report\n");
    println!("(regenerate with `cargo run --release -p shapex-bench --bin report`)\n");
    e1();
    e2();
    e3();
    e4();
    e4b();
    e5();
    e6();
    e7();
    e8();
    e9();
}

const REPS: usize = 5;

/// Median wall time of `REPS` runs, in microseconds.
fn time_us(mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_micros()
        })
        .collect();
    samples.sort();
    samples[REPS / 2]
}

fn derivative_config() -> EngineConfig {
    EngineConfig {
        no_sorbe: true,
        ..EngineConfig::default()
    }
}

fn us(v: u128) -> String {
    if v >= 100_000 {
        format!("{:.1} ms", v as f64 / 1000.0)
    } else {
        format!("{v} µs")
    }
}

fn derivative_cell(w: impl Fn() -> Workload, config: EngineConfig) -> String {
    let mut run = DerivativeRun::prepare(w(), config);
    us(time_us(|| {
        run.validate_all();
    }))
}

/// Backtracking cell: time, or the decomposition count when the budget
/// blows.
fn backtracking_cell(w: impl Fn() -> Workload, budget: u64) -> (String, String) {
    let run = BacktrackRun::prepare(w(), shapex::Budget::steps(budget));
    match run.validate_all() {
        Ok(_) => {
            let t = us(time_us(|| {
                run.validate_all().expect("within budget");
            }));
            run.validator.reset_stats();
            let _ = run.validate_all();
            (t, format!("{}", run.validator.stats().decompositions))
        }
        Err(_) => ("> budget".to_string(), format!("> {budget} steps")),
    }
}

fn e1() {
    println!("## E1 — Fig. 2 / Example 8 head-to-head\n");
    println!("| triples | derivative (general) | SORBE fast path | backtracking | backtracking decompositions |");
    println!("|---:|---:|---:|---:|---:|");
    for b in [2usize, 4, 8, 12, 16, 20, 64, 256] {
        let d = derivative_cell(|| example8_neighbourhood(b), derivative_config());
        let s = derivative_cell(|| example8_neighbourhood(b), EngineConfig::default());
        let (bt, decomp) = backtracking_cell(|| example8_neighbourhood(b), 30_000_000);
        println!("| {} | {d} | {s} | {bt} | {decomp} |", b + 1);
    }
    println!();
}

fn e2() {
    println!("## E2 — And-width decomposition blow-up (2 triples/branch)\n");
    println!("| width | derivative (general) | backtracking |");
    println!("|---:|---:|---:|");
    for w in [1usize, 2, 3, 4, 5, 6, 7] {
        let d = derivative_cell(|| and_width(w, 2), derivative_config());
        let (bt, _) = backtracking_cell(|| and_width(w, 2), 30_000_000);
        println!("| {w} | {d} | {bt} |");
    }
    println!();
}

fn e3() {
    println!("## E3 — derivative scaling in neighbourhood size\n");
    println!("| triples | derivative (general) | SORBE | µs/triple (general) |");
    println!("|---:|---:|---:|---:|");
    for n in [10usize, 100, 1_000, 10_000, 100_000] {
        let mut run = DerivativeRun::prepare(example8_neighbourhood(n), derivative_config());
        let t = time_us(|| {
            run.validate_all();
        });
        let s = derivative_cell(|| example8_neighbourhood(n), EngineConfig::default());
        println!("| {n} | {} | {s} | {:.3} |", us(t), t as f64 / n as f64);
    }
    println!();
}

fn e4() {
    println!("## E4 — Example 10 derivative growth\n");
    println!("| a/b pairs | time | expression arena | ∂-steps |");
    println!("|---:|---:|---:|---:|");
    for pairs in [4usize, 8, 16, 32, 64] {
        let mut run = DerivativeRun::prepare(balanced_ab(pairs), EngineConfig::default());
        let t = time_us(|| {
            run.validate_all();
        });
        run.validate_all();
        let stats = run.engine.stats();
        println!(
            "| {pairs} | {} | {} | {} |",
            us(t),
            stats.expr_pool_size,
            stats.derivative_steps
        );
    }
    println!();
}

fn e4b() {
    println!("## E4b — alternation fan-out `(p→[v1] | … | p→[vk])+`, k distinct triples\n");
    println!("| alternatives k | derivative (general) |");
    println!("|---:|---:|");
    for k in [2usize, 4, 8, 16, 32] {
        let d = derivative_cell(|| alternation_fanout(k, k), derivative_config());
        println!("| {k} | {d} |");
    }
    println!();
}

fn e5() {
    println!("## E5 — cardinality bounds `p→.{{m,n}}` (instance at the upper bound)\n");
    println!("| bounds | native counter | §4 expansion | SORBE counting | backtracking |");
    println!("|---:|---:|---:|---:|---:|");
    for (m, n) in [(2u32, 4u32), (5, 10), (20, 40), (100, 200)] {
        let count = n as usize;
        let native = derivative_cell(|| repeat_bounds(m, n, count), derivative_config());
        let expanded = {
            let w = repeat_bounds(m, n, count);
            let parsed = shapex_shex::shexc::parse(&w.schema).unwrap();
            let expanded = shapex_shex::schema::Schema::from_rules(
                parsed.iter().map(|(l, e)| (l.clone(), e.desugared())),
            )
            .unwrap();
            let rendered = shapex_shex::display::schema_to_shexc(&expanded);
            let w2 = Workload {
                schema: rendered,
                ..w
            };
            let mut run = DerivativeRun::prepare(w2, derivative_config());
            us(time_us(|| {
                run.validate_all();
            }))
        };
        let sorbe = derivative_cell(|| repeat_bounds(m, n, count), EngineConfig::default());
        let (bt, _) = if n <= 10 {
            backtracking_cell(|| repeat_bounds(m, n, count), 30_000_000)
        } else {
            ("—".to_string(), String::new())
        };
        println!("| {{{m},{n}}} | {native} | {expanded} | {sorbe} | {bt} |");
    }
    println!();
}

fn e6() {
    println!("## E6 — recursive person networks (10% invalid)\n");
    println!("| people | topology | derivative (general) | SORBE | gfp reruns |");
    println!("|---:|---|---:|---:|---:|");
    for n in [10usize, 100, 1_000, 10_000] {
        for (name, topology) in [
            ("chain", Topology::Chain),
            ("cycle", Topology::Cycle),
            ("random (deg 2)", Topology::Random { degree: 2 }),
        ] {
            let mut run =
                DerivativeRun::prepare(person_network(n, topology, 0.1, 42), derivative_config());
            let t = time_us(|| {
                run.validate_all();
            });
            let reruns = run.engine.stats().gfp_reruns;
            let s = derivative_cell(
                || person_network(n, topology, 0.1, 42),
                EngineConfig::default(),
            );
            println!("| {n} | {name} | {} | {s} | {reruns} |", us(t));
        }
    }
    println!("\nBacktracking baseline (full gfp table) for contrast:\n");
    println!("| people | topology | backtracking |");
    println!("|---:|---|---:|");
    for n in [10usize, 50] {
        let (bt, _) = backtracking_cell(|| person_network(n, Topology::Cycle, 0.1, 42), 30_000_000);
        println!("| {n} | cycle | {bt} |");
    }
    println!("\nAll-valid random networks (degree 3, one `type_all`, one process per row):\n");
    println!(
        "| people | type_all | peak RSS | RSS above the graph | µs/person | KB/person (peak) |"
    );
    println!("|---:|---:|---:|---:|---:|---:|");
    let exe = std::env::current_exe().expect("own path");
    for n in [1_000usize, 2_000, 4_000, 8_000] {
        let out = Command::new(&exe)
            .args(["--type-all-valid", &n.to_string()])
            .output()
            .expect("spawn E6 cell");
        assert!(out.status.success(), "E6 cell n={n} failed");
        let text = String::from_utf8_lossy(&out.stdout);
        let v: Vec<f64> = text
            .split_whitespace()
            .map(|x| x.parse().expect("E6 cell prints numbers"))
            .collect();
        let [secs, graph_kb, peak_kb] = v[..] else {
            panic!("E6 cell n={n} printed {text:?}");
        };
        println!(
            "| {n} | {:.3} s | {:.1} MB | {:.1} MB | {:.1} | {:.1} |",
            secs,
            peak_kb / 1024.0,
            (peak_kb - graph_kb) / 1024.0,
            secs * 1e6 / n as f64,
            peak_kb / n as f64
        );
    }
    println!();
}

/// One row of E6's all-valid table: `type_all` over
/// `person_network(n, Random { degree: 3 }, 0.0, 42)` with the default
/// configuration. Prints the typing time in seconds, the peak RSS before
/// typing (graph + compiled schema) and after it, in KB.
fn type_all_valid_cell(n: usize) {
    let w = person_network(n, Topology::Random { degree: 3 }, 0.0, 42);
    let schema = parse_schema(&w);
    let mut ds = w.dataset;
    let mut engine = Engine::new(&schema, &mut ds.pool).expect("person schema compiles");
    let graph_kb = vm_hwm_kb();
    let t = Instant::now();
    let typing = engine.type_all(&ds.graph, &ds.pool);
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(typing.len(), n, "every person conforms");
    println!("{secs} {graph_kb} {}", vm_hwm_kb());
}

fn e7() {
    println!("## E7 — flat person records: derivative vs generated SPARQL\n");
    println!("| records | derivative (general) | SORBE | SPARQL eval | SPARQL gen+parse+eval |");
    println!("|---:|---:|---:|---:|---:|");
    for n in [10usize, 50, 200, 1_000] {
        let d = derivative_cell(|| flat_person_records(n, 42), derivative_config());
        let s = derivative_cell(|| flat_person_records(n, 42), EngineConfig::default());
        let w = flat_person_records(n, 42);
        let schema = parse_schema(&w);
        let label = ShapeLabel::new(w.shape.as_str());
        let queries: Vec<_> = w
            .focus
            .iter()
            .map(|iri| {
                let q = shapex_sparql::generate_node_ask(&schema, &label, iri).unwrap();
                shapex_sparql::parser::parse(&q).unwrap()
            })
            .collect();
        let eval_t = us(time_us(|| {
            for q in &queries {
                let _ = shapex_sparql::ask(q, &w.dataset.graph, &w.dataset.pool).unwrap();
            }
        }));
        let full_t = us(time_us(|| {
            for iri in &w.focus {
                let q = shapex_sparql::generate_node_ask(&schema, &label, iri).unwrap();
                let parsed = shapex_sparql::parser::parse(&q).unwrap();
                let _ = shapex_sparql::ask(&parsed, &w.dataset.graph, &w.dataset.pool).unwrap();
            }
        }));
        println!("| {n} | {d} | {s} | {eval_t} | {full_t} |");
    }
    println!();
}

fn e8() {
    println!("## E8 — Brzozowski string derivatives vs naive backtracking, `(a|aa)*` on `aⁿb`\n");
    println!("| n | derivative | derivative (memo) | backtracking |");
    println!("|---:|---:|---:|---:|");
    let re = Regex::new("(a|aa)*").unwrap();
    for n in [8usize, 16, 24, 28, 32] {
        let input = "a".repeat(n) + "b";
        let d = us(time_us(|| {
            assert!(!re.is_match(&input));
        }));
        let m = us(time_us(|| {
            assert!(!re.is_match_memo(&input));
        }));
        let bt = if n <= 28 {
            us(time_us(|| {
                assert!(!backtrack_match(re.ast(), &input));
            }))
        } else {
            "(skipped)".to_string()
        };
        println!("| {n} | {d} | {m} | {bt} |");
    }
    println!();
}

fn e9() {
    println!("## E9 — ablations\n");
    let general = derivative_config();
    let configs: Vec<(&str, EngineConfig)> = vec![
        ("full (general path)", general),
        (
            "no derivative memo",
            EngineConfig {
                no_deriv_memo: true,
                ..general
            },
        ),
        (
            "no Or-dedup",
            EngineConfig {
                simplify: Simplify {
                    identities: true,
                    or_dedup: false,
                },
                ..general
            },
        ),
        ("SORBE fast path", EngineConfig::default()),
    ];
    // Example 10 runs at 8 pairs here: without the derivative memo the
    // growth workload is *exponentially* infeasible — which is the
    // ablation's finding; the small size keeps the rows comparable.
    println!("| config | Example 8 (257 triples) | Example 10 (8 pairs) | person net (500, 10% bad) | arena (Ex. 10) |");
    println!("|---|---:|---:|---:|---:|");
    for (name, config) in &configs {
        let a = derivative_cell(|| example8_neighbourhood(256), *config);
        let mut run10 = DerivativeRun::prepare(balanced_ab(8), *config);
        let b = us(time_us(|| {
            run10.validate_all();
        }));
        run10.validate_all();
        let arena = run10.engine.stats().expr_pool_size;
        let c = derivative_cell(
            || person_network(500, Topology::Random { degree: 2 }, 0.1, 42),
            *config,
        );
        println!("| {name} | {a} | {b} | {c} | {arena} |");
    }
    // No-simplification runs only at a small size (unbounded growth).
    let mut run = DerivativeRun::prepare(
        example8_neighbourhood(32),
        EngineConfig {
            simplify: Simplify::none(),
            no_sorbe: true,
            ..EngineConfig::default()
        },
    );
    let t = us(time_us(|| {
        run.validate_all();
    }));
    run.validate_all();
    println!(
        "| no §4 simplification (33 triples only) | {t} | — | — | {} |",
        run.engine.stats().expr_pool_size
    );
    println!();
}
