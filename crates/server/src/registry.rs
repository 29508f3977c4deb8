//! The schema/graph registry: named validation contexts, each holding its
//! immutable sources, one warm [`Engine`], and the fault-isolation
//! machinery around it.
//!
//! ## Fault isolation
//!
//! Every engine call runs under [`std::panic::catch_unwind`]. A panic
//! mid-call may leave the engine's caches half-mutated, so the engine is
//! *quarantined* — discarded wholesale — and a replacement is rebuilt
//! from the entry's immutable sources: the schema text, the data text,
//! and the ordered log of successfully applied delta texts. The rebuild
//! is **differentially checked** before the entry returns to service: two
//! independent fresh engines validate the reconstructed graph and their
//! full JSON reports must be byte-identical (the determinism guarantee
//! from the paper's semantics — a rebuilt engine answers exactly like the
//! one it replaced). A rebuild that fails the check leaves the entry
//! out of service (requests get 500) rather than serving doubtful
//! answers.
//!
//! ## Locking
//!
//! One mutex per entry, held for the duration of an engine call and of a
//! warm schema swap: requests that arrive during a warm `/load` wait for
//! the swap instead of finding the entry empty. The schema text, engine
//! configuration and slot share that lock, so a rebuild always pairs a
//! slot with the schema it was compiled from. Panics are caught *inside*
//! the lock scope so the mutex is never poisoned;
//! `unwrap_or_else(PoisonError::into_inner)` is belt-and-braces for the
//! paths that can still poison it (a panic in a rebuild or a warm swap).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use serde_json::{json, to_string, Value};

use shapex::report::{
    delta_report, engine_blocks, map_report, typing_report, DeltaRunError, ReportDoc, RunReport,
};
use shapex::{Engine, EngineConfig, Executor};
use shapex_rdf::delta;
use shapex_rdf::graph::Dataset;
use shapex_shex::schema::Schema;
use shapex_shex::shapemap;

pub use shapex_rdf::DataFormat;

/// CLI-compatible exit code carried in the `X-Shapex-Exit` header: 0 ok,
/// 2 non-conformant, 3 budget exhausted (3 wins over 2).
pub type ExitCode = u8;

/// A request outcome: HTTP status, report/error body, CLI-style exit code.
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (a report document or `{"error": ...}`).
    pub body: String,
    /// CLI-equivalent exit code for the `X-Shapex-Exit` header.
    pub exit: ExitCode,
}

impl ApiResponse {
    fn ok(body: String, exit: ExitCode) -> ApiResponse {
        ApiResponse {
            status: 200,
            body,
            exit,
        }
    }

    fn error(status: u16, message: impl std::fmt::Display) -> ApiResponse {
        ApiResponse {
            status,
            body: to_string(&json!({ "error": message.to_string() })).expect("error JSON") + "\n",
            exit: 1,
        }
    }
}

/// Language of an entry's schema source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchemaFormat {
    /// ShExC compact syntax (the default).
    #[default]
    Shex,
    /// A SHACL Core shapes graph in Turtle, compiled onto the derivative
    /// engine (DESIGN.md §5h). Entries in this format serve
    /// `sh:ValidationReport`-shaped `/validate` documents, byte-identical
    /// to `shapex validate --shacl --report json`; `/map` and `/delta`
    /// are refused with 422.
    Shacl,
}

impl SchemaFormat {
    /// Parses a client-supplied schema format name.
    pub fn from_name(name: &str) -> Result<SchemaFormat, String> {
        match name {
            "shex" => Ok(SchemaFormat::Shex),
            "shacl" => Ok(SchemaFormat::Shacl),
            other => Err(format!(
                "unknown schema format '{other}' (expected 'shex' or 'shacl')"
            )),
        }
    }
}

/// The warm, mutable half of an entry. Discarded wholesale on panic.
struct Slot {
    ds: Dataset,
    kind: SlotKind,
    /// Applied delta texts, in application order — with the schema and
    /// data sources, this reconstructs the exact current state.
    deltas: Vec<String>,
    /// False while quarantined (a rebuild failed its differential check).
    healthy: bool,
}

/// The engine half of a slot, by schema language.
enum SlotKind {
    /// A ShEx entry: the bare engine, driven by the typing endpoints
    /// (boxed, like the SHACL variant, so a slot stays small).
    Shex(Box<Engine>),
    /// A SHACL entry: the engine wrapped in the target-selection /
    /// verdict-logic front end (boxed: the validator carries the compiled
    /// front-end schema alongside the engine).
    Shacl(Box<shapex_shacl::ShaclValidator>),
}

impl SlotKind {
    fn engine(&self) -> &Engine {
        match self {
            SlotKind::Shex(engine) => engine,
            SlotKind::Shacl(v) => v.engine(),
        }
    }

    fn engine_mut(&mut self) -> &mut Engine {
        match self {
            SlotKind::Shex(engine) => engine,
            SlotKind::Shacl(v) => v.engine_mut(),
        }
    }
}

/// One named validation context.
struct Entry {
    schema_format: SchemaFormat,
    data_src: String,
    format: DataFormat,
    live: Mutex<Live>,
    quarantines: AtomicU64,
    rebuilds: AtomicU64,
}

/// The part of an entry a warm `/load` replaces, under one lock.
struct Live {
    schema_src: String,
    config: EngineConfig,
    jobs: usize,
    /// `None` only when a quarantine rebuild failed.
    slot: Option<Slot>,
}

/// Builds a fresh slot from the immutable sources: parse, compile, replay
/// the delta log. Any failure is reported, not panicked.
fn build_slot(
    schema_src: &str,
    schema_format: SchemaFormat,
    data_src: &str,
    format: DataFormat,
    jobs: usize,
    deltas: &[String],
    config: EngineConfig,
) -> Result<Slot, String> {
    let mut ds = format
        .parse(data_src, jobs)
        .map_err(|e| format!("data: {e}"))?;
    for (i, text) in deltas.iter().enumerate() {
        let d =
            delta::parse(text, &mut ds.pool).map_err(|e| format!("replaying delta {i}: {e}"))?;
        ds.try_apply_delta(&d)
            .map_err(|e| format!("replaying delta {i}: {e}"))?;
    }
    let kind = match schema_format {
        SchemaFormat::Shex => {
            let schema: Schema =
                shapex_shex::shexc::parse(schema_src).map_err(|e| format!("schema: {e}"))?;
            let engine =
                Engine::compile(&schema, &mut ds.pool, config).map_err(|e| e.to_string())?;
            SlotKind::Shex(Box::new(engine))
        }
        SchemaFormat::Shacl => {
            // A shapes graph is ordinary RDF, sent as Turtle. Unsupported
            // SHACL terms fail here — at load — never at request time.
            let validator = shapex_shacl::load_validator(
                "schema",
                schema_src,
                DataFormat::Turtle,
                &mut ds.pool,
                config,
            )?;
            SlotKind::Shacl(Box::new(validator))
        }
    };
    Ok(Slot {
        ds,
        kind,
        deltas: deltas.to_vec(),
        healthy: true,
    })
}

/// Swaps a new schema into a live slot in place through
/// [`Engine::swap_schema`]: compiled into the slot's term pool with the
/// live engine's config, seeded with every verdict the schema diff proves
/// reusable. The graph and delta log are untouched. On failure the slot
/// keeps its old engine.
fn warm_swap(new_schema_src: &str, slot: &mut Slot) -> Result<(), String> {
    let SlotKind::Shex(old_engine) = &slot.kind else {
        return Err("warm swap is ShEx-only".to_string());
    };
    let new_schema: Schema =
        shapex_shex::shexc::parse(new_schema_src).map_err(|e| format!("schema: {e}"))?;
    let swap = old_engine
        .swap_schema(&new_schema, &mut slot.ds.pool)
        .map_err(|e| e.to_string())?;
    slot.kind = SlotKind::Shex(Box::new(swap.engine));
    Ok(())
}

/// The validation report of a slot, built by the same functions as
/// `validate --report json` output — the byte-identity contract. ShEx
/// entries emit the full-typing document; SHACL entries emit the
/// `sh:ValidationReport`-shaped document of `validate --shacl`.
fn slot_report(slot: &mut Slot, jobs: usize) -> RunReport {
    match &mut slot.kind {
        SlotKind::Shex(engine) => {
            let typing = engine.type_all_par(&slot.ds.graph, &slot.ds.pool, jobs);
            let doc = ReportDoc::new("typing", "derivative");
            typing_report(doc, engine, &slot.ds.graph, &slot.ds.pool, &typing, 0)
        }
        SlotKind::Shacl(validator) => {
            let outcome = validator.validate_par(&mut slot.ds, jobs);
            shapex_shacl::shacl_run_report(&outcome, validator.engine(), 0)
        }
    }
}

/// The registry of named entries plus service-level counters.
pub struct Registry {
    entries: RwLock<HashMap<String, Entry>>,
    /// The server's request executor, installed on every entry's engine so
    /// intra-request parallel typing shares the request pool instead of
    /// spawning transient threads per run.
    executor: RwLock<Option<Arc<Executor>>>,
    /// Requests that hit a quarantined (out-of-service) entry.
    pub refused_unhealthy: AtomicU64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            entries: RwLock::new(HashMap::new()),
            executor: RwLock::new(None),
            refused_unhealthy: AtomicU64::new(0),
        }
    }

    /// Installs the shared typing/request executor; engines pick it up on
    /// their next call. Harmless to call more than once.
    pub fn set_executor(&self, executor: Arc<Executor>) {
        *self.executor.write().unwrap_or_else(|p| p.into_inner()) = Some(executor);
    }

    /// Registers `id` with schema and data sources, compiling its warm
    /// engine. Replaces any previous entry of the same id.
    ///
    /// Re-registering an id over the *same* data source, format and
    /// engine config takes a warm path: [`Engine::swap_schema`] compiles
    /// the new schema into the entry's existing term pool, classifies
    /// which shapes kept their language, and transplants every verdict of
    /// a reusable shape into the new engine — the entry continues with a
    /// hot memo instead of a cold scratch build, its graph, delta log and
    /// counters kept as-is. The swap holds the entry's lock, so requests
    /// on it wait rather than fail. Quarantined entries always take the
    /// cold path: their state is untrusted by definition.
    #[allow(clippy::too_many_arguments)]
    pub fn load(
        &self,
        id: &str,
        schema_src: String,
        schema_format: SchemaFormat,
        data_src: String,
        format: DataFormat,
        config: EngineConfig,
        jobs: usize,
    ) -> Result<(), String> {
        // SHACL entries always build cold: schema_diff speaks the engine's
        // shape-expression language, not the front end's verdict logic, so
        // a verdict transplant could silently reuse stale answers.
        if schema_format == SchemaFormat::Shex {
            if let Some(outcome) = self.warm_load(id, &schema_src, &data_src, format, config, jobs)
            {
                return outcome;
            }
        }
        let slot = build_slot(
            &schema_src,
            schema_format,
            &data_src,
            format,
            jobs,
            &[],
            config,
        )?;
        let entry = Entry {
            schema_format,
            data_src,
            format,
            live: Mutex::new(Live {
                schema_src,
                config,
                jobs,
                slot: Some(slot),
            }),
            quarantines: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        };
        self.entries
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id.to_string(), entry);
        Ok(())
    }

    /// The warm path of [`Registry::load`]: swaps the new schema into the
    /// live slot of `id` while holding the entry's lock, so concurrent
    /// requests wait behind the swap rather than failing. Applies only
    /// when the entry is a healthy ShEx entry over exactly this data
    /// source, format and engine config (the swap keeps the live engine's
    /// config, so a changed closure, say, needs a fresh engine); `None`
    /// means the caller must build cold. A failed swap leaves the entry
    /// serving its previous schema.
    fn warm_load(
        &self,
        id: &str,
        schema_src: &str,
        data_src: &str,
        format: DataFormat,
        config: EngineConfig,
        jobs: usize,
    ) -> Option<Result<(), String>> {
        let entries = self.entries.read().unwrap_or_else(|p| p.into_inner());
        let entry = entries.get(id)?;
        if entry.schema_format != SchemaFormat::Shex
            || entry.data_src != data_src
            || entry.format != format
        {
            return None;
        }
        let mut guard = entry.live.lock().unwrap_or_else(|p| p.into_inner());
        let live = &mut *guard;
        if live.config != config {
            return None;
        }
        let slot = live.slot.as_mut().filter(|slot| slot.healthy)?;
        Some(warm_swap(schema_src, slot).map(|()| {
            live.schema_src = schema_src.to_string();
            live.jobs = jobs;
        }))
    }

    /// Registered entry ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .entries
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .keys()
            .cloned()
            .collect();
        ids.sort();
        ids
    }

    /// Runs `op` on the entry's slot under fault isolation. On panic the
    /// slot is quarantined and rebuilt (differentially checked) before
    /// the error response is returned; other entries are untouched.
    fn with_entry<R>(
        &self,
        id: &str,
        op: impl FnOnce(&mut Slot, usize) -> R,
    ) -> Result<R, ApiResponse> {
        let entries = self.entries.read().unwrap_or_else(|p| p.into_inner());
        let Some(entry) = entries.get(id) else {
            return Err(ApiResponse::error(
                404,
                format!("no graph registered under id '{id}'"),
            ));
        };
        let mut guard = entry.live.lock().unwrap_or_else(|p| p.into_inner());
        let live = &mut *guard;
        let jobs = live.jobs;
        let Some(slot) = live.slot.as_mut() else {
            self.refused_unhealthy.fetch_add(1, Ordering::Relaxed);
            return Err(ApiResponse::error(
                500,
                format!("entry '{id}' is quarantined and could not be rebuilt"),
            ));
        };
        if !slot.healthy {
            self.refused_unhealthy.fetch_add(1, Ordering::Relaxed);
            return Err(ApiResponse::error(
                500,
                format!("entry '{id}' is quarantined"),
            ));
        }
        // Hand the engine the shared pool (cheap: an Arc clone) so its
        // parallel typing runs on the request executor. Re-done per call so
        // rebuilt slots pick it up too.
        if let Some(exec) = self
            .executor
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
        {
            slot.kind.engine_mut().set_executor(Arc::clone(exec));
        }
        match catch_unwind(AssertUnwindSafe(|| op(slot, jobs))) {
            Ok(r) => Ok(r),
            Err(panic) => {
                // The engine may be half-mutated: quarantine and rebuild
                // from the immutable sources while still holding the lock,
                // so no other request can observe the poisoned state.
                entry.quarantines.fetch_add(1, Ordering::Relaxed);
                let deltas = slot.deltas.clone();
                live.slot = None; // drop the poisoned slot before rebuilding
                let outcome = rebuild_checked(entry, live, &deltas);
                let rebuilt = outcome.is_ok();
                if let Ok(slot) = outcome {
                    entry.rebuilds.fetch_add(1, Ordering::Relaxed);
                    live.slot = Some(slot);
                }
                let msg = panic_message(panic);
                let body = to_string(&json!({
                    "error": format!("engine panicked: {msg}"),
                    "quarantined": true,
                    "rebuilt": rebuilt,
                }))
                .expect("quarantine JSON")
                    + "\n";
                Err(ApiResponse {
                    status: 500,
                    body,
                    exit: 1,
                })
            }
        }
    }

    /// `POST /validate?id=X`: the full-typing report, byte-identical to
    /// `shapex validate --report json` over the same sources.
    pub fn validate(&self, id: &str) -> ApiResponse {
        match self.with_entry(id, slot_report) {
            Ok(report) => ApiResponse::ok(report.body, report.status.exit_code()),
            Err(e) => e,
        }
    }

    /// `POST /map?id=X` with a shape-map body: per-association verdicts,
    /// built exactly like `validate --map --report json`.
    pub fn map(&self, id: &str, map_src: &str) -> ApiResponse {
        let map = match shapemap::parse(map_src) {
            Ok(m) => m,
            Err(e) => return ApiResponse::error(422, format!("shape map: {e}")),
        };
        let result = self.with_entry(id, |slot, _jobs| -> Result<RunReport, String> {
            let SlotKind::Shex(engine) = &mut slot.kind else {
                return Err(
                    "shape maps address ShEx shape labels; entry holds a SHACL schema \
                     (its shapes carry their own targets — use /validate)"
                        .to_string(),
                );
            };
            let outcomes = engine
                .validate_map(&slot.ds.graph, &mut slot.ds.pool, &map)
                .map_err(|e| e.to_string())?;
            Ok(map_report(engine, &slot.ds.pool, &map, &outcomes, 0))
        });
        match result {
            Ok(Ok(report)) => ApiResponse::ok(report.body, report.status.exit_code()),
            Ok(Err(msg)) => ApiResponse::error(422, msg),
            Err(e) => e,
        }
    }

    /// `POST /delta?id=X` with a delta-file body: applies the delta
    /// all-or-nothing, incrementally revalidates, and returns the CLI's
    /// `--delta` before/after document. On any failure the graph is left
    /// byte-identical to its pre-delta state.
    pub fn delta(&self, id: &str, delta_src: &str) -> ApiResponse {
        let result = self.with_entry(id, |slot, jobs| -> Result<RunReport, (u16, String)> {
            let SlotKind::Shex(engine) = &mut slot.kind else {
                return Err((
                    422,
                    "incremental revalidation transplants engine-level verdicts; \
                     a SHACL entry's conformance verdicts also depend on the \
                     front-end logic layer — reload the entry instead"
                        .to_string(),
                ));
            };
            let d = delta::parse(delta_src, &mut slot.ds.pool).map_err(|e| (422, e.to_string()))?;
            let report =
                delta_report(engine, &mut slot.ds, &d, jobs, None, 0).map_err(|e| match e {
                    // The apply rolled the graph back before returning.
                    DeltaRunError::Apply(e) => (500, e.to_string()),
                    DeltaRunError::Revalidate(e) => (422, e.to_string()),
                })?;
            // The delta is now part of the entry's durable state: record
            // it so a quarantine rebuild replays it.
            slot.deltas.push(delta_src.to_string());
            Ok(report)
        });
        match result {
            Ok(Ok(report)) => ApiResponse::ok(report.body, report.status.exit_code()),
            Ok(Err((status, msg))) => ApiResponse::error(status, msg),
            Err(e) => e,
        }
    }

    /// The per-entry `stats` block: engine stats/metrics plus the
    /// quarantine counters.
    pub fn stats(&self) -> Value {
        let entries = self.entries.read().unwrap_or_else(|p| p.into_inner());
        let mut out = serde_json::Map::new();
        let mut ids: Vec<&String> = entries.keys().collect();
        ids.sort();
        for id in ids {
            let entry = &entries[id];
            let live = entry.live.lock().unwrap_or_else(|p| p.into_inner());
            let mut m = serde_json::Map::new();
            m.insert(
                "healthy".to_string(),
                Value::from(live.slot.as_ref().is_some_and(|s| s.healthy)),
            );
            m.insert(
                "quarantines".to_string(),
                Value::from(entry.quarantines.load(Ordering::Relaxed)),
            );
            m.insert(
                "rebuilds".to_string(),
                Value::from(entry.rebuilds.load(Ordering::Relaxed)),
            );
            if let Some(slot) = live.slot.as_ref() {
                m.insert("triples".to_string(), Value::from(slot.ds.graph.len()));
                m.insert("deltas_applied".to_string(), Value::from(slot.deltas.len()));
                m.insert(
                    "schema_format".to_string(),
                    Value::from(match entry.schema_format {
                        SchemaFormat::Shex => "shex",
                        SchemaFormat::Shacl => "shacl",
                    }),
                );
                m.extend(engine_blocks(slot.kind.engine(), 0));
            }
            out.insert(id.clone(), Value::Object(m));
        }
        Value::Object(out)
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Rebuilds a quarantined entry's slot and differentially checks it:
/// the rebuilt engine's full report must be byte-identical to a second,
/// independently built engine's. Disagreement means the reconstruction is
/// not trustworthy — the entry stays out of service.
fn rebuild_checked(entry: &Entry, live: &Live, deltas: &[String]) -> Result<Slot, String> {
    let rebuild = || {
        catch_unwind(AssertUnwindSafe(|| {
            build_slot(
                &live.schema_src,
                entry.schema_format,
                &entry.data_src,
                entry.format,
                live.jobs,
                deltas,
                live.config,
            )
        }))
        .unwrap_or_else(|p| Err(format!("rebuild panicked: {}", panic_message(p))))
    };
    let mut slot = rebuild()?;
    let mut reference = rebuild()?;
    // Differential check: full typing reports, byte for byte. Also warms
    // the replacement slot's memo, so it re-enters service hot.
    if slot_report(&mut slot, live.jobs).body != slot_report(&mut reference, live.jobs).body {
        return Err("differential check failed: rebuilt engine disagrees with reference".into());
    }
    Ok(slot)
}

/// Best-effort panic payload rendering.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
