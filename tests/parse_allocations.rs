//! Loading N-Triples allocates per block and per table growth, not per
//! term.
//!
//! The pool appends a new term's text to one arena and a fixed-size record
//! to one list, and the reader slices terms out of its block, so a
//! document without escapes or upper-case language tags loads with a
//! number of heap allocations that grows with the logarithm of its size.
//! The test counts them with a std-only counting allocator while
//! `ntriples::read` loads a generated document of about 10k triples, held
//! in memory, and requires fewer than 1 000: a pool that boxed each term's
//! strings would make more than one per term, over 7 000 here.
//!
//! This file holds exactly one test, so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use shapex_rdf::ntriples;
use shapex_workloads::scale;

/// Forwards to [`System`], counting the calls that obtain memory.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees carry over; the
// bookkeeping only touches an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn ntriples_read_allocates_no_memory_per_term() {
    let text = scale::uniprot_ntriples(1_430, 1);
    assert!(!text.contains('\\'), "the document has no escapes");
    let before = CALLS.load(Relaxed);
    let ds = ntriples::read(text.as_bytes()).expect("generated document parses");
    let calls = CALLS.load(Relaxed) - before;
    let triples = ds.graph.len();
    assert!(
        (9_000..11_000).contains(&triples),
        "about 10k triples, got {triples}"
    );
    assert!(
        ds.pool.len() > 7_000,
        "mostly distinct terms, got {}",
        ds.pool.len()
    );
    assert!(
        calls < 1_000,
        "{calls} allocations to load {triples} triples and {} terms",
        ds.pool.len()
    );
}
