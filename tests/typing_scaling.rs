//! Recursive typing uses heap linear in the size of the network.
//!
//! Every person in an all-valid random `knows` network sits in one large
//! strongly connected component, so the whole network is proven by
//! coinduction in one query. The test counts live heap bytes with a
//! std-only counting allocator and compares the peak that `type_all` adds
//! on networks of 2k and 8k people: 4× the people must cost well under 8×
//! the heap (linear growth gives about 4×; an engine that copies its open
//! assumptions into every result grows about 16×).
//!
//! This file holds exactly one test, so no other test allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use shapex::Engine;
use shapex_shex::ast::ShapeLabel;
use shapex_workloads::{person_network, Topology};

/// Forwards to [`System`], tracking live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees carry over; the
// bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap bytes `type_all` adds on top of the loaded graph and the
/// compiled schema, for an all-valid degree-3 network of `people`.
fn typing_peak_bytes(people: usize) -> usize {
    let w = person_network(people, Topology::Random { degree: 3 }, 0.0, 7);
    let schema = shapex_shex::shexc::parse(&w.schema).expect("person schema parses");
    let mut ds = w.dataset;
    let mut engine = Engine::new(&schema, &mut ds.pool).expect("compiles");
    let person = engine
        .shape_id(&ShapeLabel::new(w.shape.as_str()))
        .expect("Person is defined");
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let typing = engine.type_all(&ds.graph, &ds.pool);
    let peak = PEAK.load(Relaxed) - base;
    for iri in &w.focus {
        let node = ds.iri(iri).expect("focus node in data");
        assert!(typing.has(node, person), "{iri} must conform");
    }
    peak
}

#[test]
fn recursive_typing_heap_grows_linearly() {
    let small = typing_peak_bytes(2_000);
    let large = typing_peak_bytes(8_000);
    let ratio = large as f64 / small as f64;
    println!("peak typing heap: 2k people {small} B, 8k people {large} B, ratio {ratio:.2}");
    assert!(
        ratio < 8.0,
        "4x the people took {ratio:.2}x the heap ({small} -> {large} bytes)"
    );
}
