//! The traced replay: the same pipelines the CLI and the server run, called
//! in-process through each layer's public functions with a span around
//! every call, so time and counters can be read per layer.

use std::fs;
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Map, Value};
use shapex::report::{finish_engine_doc, push_typing_rows, ReportDoc};
use shapex::{schema_diff, Engine, EngineConfig, Typing};
use shapex_rdf::graph::Dataset;
use shapex_rdf::{delta, ntriples, turtle};
use shapex_server::registry::{ApiResponse, DataFormat, Registry, SchemaFormat};
use shapex_server::ServerConfig;
use shapex_shex::shexc;

use crate::client::{check_reply, round_steps, shex_entry, Bodies, Gate, Tally, OPS, SHACL_ENTRY};
use crate::inputs::ServeScenario;
use crate::trace::Tracer;

/// Cap on timed repetitions of one replayed pipeline.
const MAX_ITERATIONS: usize = 50;
/// Engine-level repetitions of the delta, reload and SHACL breakdowns.
const ENGINE_ROUNDS: usize = 12;
/// Separate loads on which `Dataset::compact` is timed.
const COMPACT_LOADS: usize = 3;
/// Span around each registry call, by entry of [`OPS`].
const REGISTRY_SPANS: [&str; 5] = [
    "server.registry.map",
    "server.registry.delta",
    "server.registry.validate",
    "server.registry.shacl",
    "server.registry.reload",
];

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Wall times of whole replayed units (one CLI pipeline, one round),
/// split by whether spans were recorded. The replay alternates the two,
/// so host noise falls on both alike.
#[derive(Default)]
struct Overhead {
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl Overhead {
    /// Whether unit `i` is traced. Unit 0 is traced, so its output can be
    /// written, and is not timed: it warms caches the rest then share.
    fn traced(i: usize) -> bool {
        i.is_multiple_of(2)
    }

    /// Whether both sides hold a timed unit.
    fn ready(i: usize) -> bool {
        i >= 3
    }

    fn push(&mut self, i: usize, start: Instant) {
        let s = start.elapsed().as_secs_f64();
        match (i, Overhead::traced(i)) {
            (0, _) => {}
            (_, true) => self.traced.push(s),
            (_, false) => self.untraced.push(s),
        }
    }

    /// Median traced unit over median untraced unit: `trace.overhead_ratio`.
    fn ratio(mut self) -> f64 {
        crate::stats::median(&mut self.traced) / crate::stats::median(&mut self.untraced)
    }
}

/// The full-typing report document, built as `validate --report json`
/// and `/validate` build it.
fn typing_report(engine: &mut Engine, ds: &Dataset, typing: &Typing) -> String {
    let mut doc = ReportDoc::new("typing", "derivative");
    push_typing_rows(&mut doc, engine, &ds.graph, &ds.pool, typing);
    finish_engine_doc(doc, engine, 0, (!typing.is_partial()).then_some(true))
}

/// Engine counters after a full typing, as per-layer metrics.
fn engine_counters(engine: &Engine, ds: &Dataset, typing: &Typing, out: &mut Map<String, Value>) {
    let stats = engine.stats();
    let queries = ds.graph.subjects().count() * engine.schema().shapes.len();
    let rechecks = queries - typing.len() - typing.exhausted.len();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), json!(v));
    };
    put("core.node_checks", stats.node_checks as f64);
    put("core.derivative_steps", stats.derivative_steps as f64);
    put("core.gfp_reruns", stats.gfp_reruns as f64);
    put("core.report.rechecks", rechecks as f64);
    put("rdf.triples", ds.graph.len() as f64);
    put("rdf.terms", ds.pool.len() as f64);
    let m = engine
        .metrics()
        .expect("replays run with metrics on, as the CLI report does");
    put("core.dfa_hit_ratio", m.dfa_table.hit_ratio());
    let profile_hits = m.profile_stable.hits + m.profile_assumption.hits;
    let profile_lookups = m.profile_stable.lookups + m.profile_assumption.lookups;
    put(
        "core.profile_hit_ratio",
        ratio(profile_hits, profile_lookups),
    );
    let (steals, attempts) = m
        .waves
        .iter()
        .fold((0, 0), |(s, a), w| (s + w.steals, a + w.steal_attempts));
    let (busy, idle) = m
        .waves
        .iter()
        .flat_map(|w| &w.shards)
        .fold((0, 0), |(b, i), s| (b + s.busy_us, i + s.idle_us));
    put("core.sched.steals", steals as f64);
    put("core.sched.steal_ratio", ratio(steals, attempts));
    put("core.sched.utilization", ratio(busy, busy + idle));
}

/// Replays `shapex validate --jobs <jobs> --report json` on the inputs in
/// `dir` until `seconds` have passed, alternately with and without spans;
/// writes the first report to `replay_report.json`.
pub fn replay_cli(
    dir: &Path,
    jobs: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Value, String> {
    let read =
        |name: &str| fs::read_to_string(dir.join(name)).map_err(|e| format!("reading {name}: {e}"));
    let config = EngineConfig {
        metrics: true,
        ..EngineConfig::default()
    };
    let mut out = Map::new();
    let mut report_bytes = 0;
    let mut overhead = Overhead::default();
    let start = Instant::now();
    for iteration in 0..MAX_ITERATIONS {
        if Overhead::ready(iteration) && start.elapsed().as_secs_f64() > seconds {
            break;
        }
        tracer.set_enabled(Overhead::traced(iteration));
        let unit_start = Instant::now();
        tracer.next_group();
        let root = tracer.begin("cli.validate");
        {
            let schema_src = read("schema.shex")?;
            let schema = tracer
                .span("shex.parse", || shexc::parse(&schema_src))
                .map_err(|e| format!("schema: {e}"))?;
            let text = tracer.span("rdf.read", || read("data.nt"))?;
            // `parse_par` compacts the dataset; on one job it is the
            // sequential `parse`.
            let mut ds = tracer
                .span("rdf.parse", || ntriples::parse_par(&text, jobs))
                .map_err(|e| format!("data: {e}"))?;
            let mut engine = tracer
                .span("core.compile", || {
                    Engine::compile(&schema, &mut ds.pool, config)
                })
                .map_err(|e| e.to_string())?;
            let typing = tracer.span("core.type", || {
                engine.type_all_par(&ds.graph, &ds.pool, jobs)
            });
            let report = tracer.span("core.report", || typing_report(&mut engine, &ds, &typing));
            if iteration == 0 {
                fs::write(dir.join("replay_report.json"), &report)
                    .map_err(|e| format!("writing replay report: {e}"))?;
            }
            report_bytes = report.len();
            engine_counters(&engine, &ds, &typing, &mut out);
        }
        tracer.end(root);
        overhead.push(iteration, unit_start);
    }
    tracer.set_enabled(true);
    // `parse_par` compacts inside the parse; time compaction on its own
    // over uncompacted loads of the same text.
    let text = read("data.nt")?;
    for _ in 0..COMPACT_LOADS {
        let mut ds = Dataset::new();
        ntriples::parse_into(&text, &mut ds).map_err(|e| format!("data: {e}"))?;
        tracer.span("rdf.compact", || ds.compact());
    }
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), json!(v));
    };
    put("rdf.parse_s", tracer.median_s("rdf.parse"));
    put("rdf.compact_ms", ms(tracer.median_s("rdf.compact")));
    put("shex.parse_ms", ms(tracer.median_s("shex.parse")));
    put("core.compile_ms", ms(tracer.median_s("core.compile")));
    put("core.type_s", tracer.median_s("core.type"));
    put("core.report_s", tracer.median_s("core.report"));
    put("core.report_mb", report_bytes as f64 / 1e6);
    put("trace.overhead_ratio", overhead.ratio());
    Ok(Value::Object(out))
}

fn api(reply: ApiResponse) -> (u16, String) {
    (reply.status, reply.body)
}

/// Replays the `serve-mixed` script in-process: first connection 0's
/// rounds through the server's [`Registry`] (half of `seconds`,
/// alternately with and without spans), then the engine-level breakdown
/// of its deltas, reloads and SHACL validations. Writes the warm-up
/// `/validate` bodies and the first `/delta` body to `dir` for comparison
/// with the server's.
pub fn replay_serve(
    s: &ServeScenario,
    bodies: &Bodies,
    jobs: usize,
    seconds: f64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Value, String> {
    let server = ServerConfig {
        jobs,
        ..ServerConfig::default()
    };
    let config = server.engine_config();
    let registry = Registry::new();
    let shex0 = shex_entry(0);
    let load = |id: &str, schema: &str, format: SchemaFormat, data: &str| {
        registry.load(
            id,
            schema.to_string(),
            format,
            data.to_string(),
            DataFormat::Turtle,
            config,
            jobs,
        )
    };
    load(&shex0, &s.schemas[0], SchemaFormat::Shex, &s.shex_ttl)?;
    load(
        SHACL_ENTRY,
        &s.shacl_shapes,
        SchemaFormat::Shacl,
        &s.shacl_ttl,
    )?;
    let mut tally = Tally::default();
    for (entry, gate, file) in [
        (shex0.as_str(), Gate::Typing, "replay_validate.json"),
        (SHACL_ENTRY, Gate::Shacl, "replay_shacl.json"),
    ] {
        let (status, body) = api(registry.validate(entry));
        tally.record(check_reply(s, &gate, status, &body));
        fs::write(dir.join(file), body).map_err(|e| format!("writing {file}: {e}"))?;
    }

    let mut first_delta = true;
    let mut overhead = Overhead::default();
    let start = Instant::now();
    let mut schema = 0;
    for (r, round) in s.scripts[0].iter().cycle().enumerate() {
        if Overhead::ready(r) && start.elapsed().as_secs_f64() > seconds / 2.0 {
            break;
        }
        schema = 1 - schema;
        tracer.set_enabled(Overhead::traced(r));
        let unit_start = Instant::now();
        tracer.next_group();
        let root = tracer.begin("serve.round");
        for step in round_steps(s, bodies, 0, round, schema) {
            let span = REGISTRY_SPANS[OPS.iter().position(|&o| o == step.op).expect("known op")];
            let (status, body) = tracer.span(span, || match step.endpoint {
                "map" => api(registry.map(&step.entry, step.body)),
                "delta" => api(registry.delta(&step.entry, step.body)),
                "validate" => api(registry.validate(&step.entry)),
                _ => load(
                    &step.entry,
                    &s.schemas[schema],
                    SchemaFormat::Shex,
                    &s.shex_ttl,
                )
                .map_or_else(
                    |e| (422, e),
                    |()| (200, format!("{{\"loaded\":\"{}\"}}", step.entry)),
                ),
            });
            if first_delta && step.op == "delta" {
                fs::write(dir.join("replay_delta.json"), &body)
                    .map_err(|e| format!("writing replay delta: {e}"))?;
                first_delta = false;
            }
            tally.record(
                check_reply(s, &step.gate, status, &body)
                    .map_err(|e| format!("replayed {}: {e}", step.op)),
            );
        }
        tracer.end(root);
        overhead.push(r, unit_start);
    }
    tracer.set_enabled(true);

    let mut out = Map::new();
    engine_breakdown(s, config, jobs, tracer, &mut out)?;
    shacl_breakdown(s, config, jobs, tracer, &mut out)?;
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), json!(v));
    };
    for span in REGISTRY_SPANS {
        put(&format!("{span}_ms"), ms(tracer.median_s(span)));
    }
    put("trace.overhead_ratio", overhead.ratio());
    tally.write_counts(&mut out);
    Ok(Value::Object(out))
}

/// The ShEx entry's pipeline at engine level: the cold load, then
/// connection 0's deltas (plan, apply, revalidate and render timed apart)
/// and schema reloads (diff and transplant timed apart).
fn engine_breakdown(
    s: &ServeScenario,
    config: EngineConfig,
    jobs: usize,
    tracer: &mut Tracer,
    out: &mut Map<String, Value>,
) -> Result<(), String> {
    tracer.next_group();
    let mut ds = tracer
        .span("rdf.parse", || turtle::parse(&s.shex_ttl))
        .map_err(|e| format!("data: {e}"))?;
    let schemas: Vec<_> = s
        .schemas
        .iter()
        .map(|src| {
            tracer
                .span("shex.parse", || shexc::parse(src))
                .map_err(|e| format!("schema: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut engine = tracer
        .span("core.compile", || {
            Engine::compile(&schemas[0], &mut ds.pool, config)
        })
        .map_err(|e| e.to_string())?;
    let typing = tracer.span("core.type", || {
        engine.type_all_par(&ds.graph, &ds.pool, jobs)
    });
    let report = tracer.span("core.report", || typing_report(&mut engine, &ds, &typing));
    engine_counters(&engine, &ds, &typing, out);
    let report_mb = report.len() as f64 / 1e6;

    let (mut retyped, mut reused, mut retyped_per_delta) = (0u64, 0u64, Vec::new());
    let mut transplanted = Vec::new();
    let mut current = 0;
    for round in s.scripts[0].iter().take(ENGINE_ROUNDS) {
        for text in [&round.apply, &round.revert] {
            tracer.next_group();
            let before = engine.stats();
            let d = delta::parse(text, &mut ds.pool).map_err(|e| format!("delta: {e}"))?;
            tracer.span("core.report.delta_render", || {
                let t = engine.type_all_par(&ds.graph, &ds.pool, jobs);
                let mut doc = ReportDoc::new("typing", "derivative");
                push_typing_rows(&mut doc, &mut engine, &ds.graph, &ds.pool, &t);
                doc.finish(Some(true))
            });
            let plan = tracer.span("core.incremental.plan", || engine.plan_invalidation(&d));
            tracer
                .span("rdf.delta_apply", || ds.try_apply_delta(&d))
                .map_err(|e| format!("delta apply: {e}"))?;
            let after = tracer
                .span("core.incremental.revalidate", || {
                    engine.revalidate_par_planned(&ds.graph, &ds.pool, &d, plan, jobs)
                })
                .map_err(|e| e.to_string())?;
            tracer.span("core.report.delta_render", || {
                let mut doc = ReportDoc::new("typing", "derivative");
                push_typing_rows(&mut doc, &mut engine, &ds.graph, &ds.pool, &after);
                doc.finish(Some(true))
            });
            let now = engine.stats();
            retyped += now.retyped_pairs - before.retyped_pairs;
            reused += now.reused_pairs - before.reused_pairs;
            retyped_per_delta.push((now.retyped_pairs - before.retyped_pairs) as f64);
        }
        // A reload onto the other schema, as the server's warm `/load`.
        tracer.next_group();
        let next = 1 - current;
        let mut fresh = tracer
            .span("core.calculus.compile", || {
                Engine::compile(&schemas[next], &mut ds.pool, config)
            })
            .map_err(|e| e.to_string())?;
        let diff = tracer
            .span("core.calculus.diff", || {
                schema_diff(
                    &schemas[current],
                    &schemas[next],
                    config.simplify,
                    config.closure,
                    &config.budget,
                )
            })
            .map_err(|e| format!("schema diff: {e:?}"))?;
        let moved = tracer.span("core.calculus.transplant", || {
            fresh.transplant_verdicts(&engine, &diff.reusable)
        });
        transplanted.push(moved as f64);
        engine = fresh;
        current = next;
        // The next request types the changed shape anew, as `/validate`
        // after a reload does.
        tracer.span("core.type.after_reload", || {
            engine.type_all_par(&ds.graph, &ds.pool, jobs)
        });
    }
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), json!(v));
    };
    put("rdf.parse_s", tracer.median_s("rdf.parse"));
    put("shex.parse_ms", ms(tracer.median_s("shex.parse")));
    put("core.compile_ms", ms(tracer.median_s("core.compile")));
    put("core.type_s", tracer.median_s("core.type"));
    put("core.report_s", tracer.median_s("core.report"));
    put("core.report_mb", report_mb);
    put(
        "core.incremental.plan_ms",
        ms(tracer.median_s("core.incremental.plan")),
    );
    put("rdf.delta_apply_ms", ms(tracer.median_s("rdf.delta_apply")));
    put(
        "core.incremental.revalidate_ms",
        ms(tracer.median_s("core.incremental.revalidate")),
    );
    put(
        "core.report.delta_render_ms",
        ms(tracer.median_group_sum_s("core.report.delta_render")),
    );
    put(
        "core.incremental.retyped_pairs",
        crate::stats::median(&mut retyped_per_delta),
    );
    put(
        "core.incremental.reuse_ratio",
        ratio(reused, reused + retyped),
    );
    put(
        "core.calculus.diff_ms",
        ms(tracer.median_s("core.calculus.diff")),
    );
    put(
        "core.calculus.transplanted",
        crate::stats::median(&mut transplanted),
    );
    Ok(())
}

/// The SHACL entry at engine level: shapes compilation, a warm
/// validation and its report, each timed apart.
fn shacl_breakdown(
    s: &ServeScenario,
    config: EngineConfig,
    jobs: usize,
    tracer: &mut Tracer,
    out: &mut Map<String, Value>,
) -> Result<(), String> {
    let mut ds = turtle::parse(&s.shacl_ttl).map_err(|e| format!("SHACL data: {e}"))?;
    let compile = |tracer: &mut Tracer, ds: &mut Dataset| {
        tracer.span("shacl.compile", || {
            let shapes = turtle::parse(&s.shacl_shapes).map_err(|e| format!("shapes: {e}"))?;
            let compiled = shapex_shacl::compile(&shapes).map_err(|e| format!("shapes: {e}"))?;
            shapex_shacl::ShaclValidator::new(compiled, &mut ds.pool, config)
                .map_err(|e| e.to_string())
        })
    };
    let mut validator = compile(tracer, &mut ds)?;
    validator.validate_par(&mut ds, jobs);
    for _ in 0..ENGINE_ROUNDS {
        tracer.next_group();
        compile(tracer, &mut ds)?;
        let outcome = tracer.span("shacl.validate", || validator.validate_par(&mut ds, jobs));
        let report = tracer.span("shacl.report", || {
            shapex_shacl::shacl_report(&outcome, validator.engine())
        });
        crate::check::check_shacl(&report, &s.shacl_expected)?;
    }
    for name in ["shacl.compile", "shacl.validate", "shacl.report"] {
        out.insert(format!("{name}_ms"), json!(ms(tracer.median_s(name))));
    }
    Ok(())
}
