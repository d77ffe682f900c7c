//! Heap traffic of the steady-state GP loop.
//!
//! A counting global allocator (this test binary's own) totals the bytes
//! requested while a design is placed for a short and a long iteration
//! cap. Their difference over the extra iterations is what one steady-state
//! iteration allocates: it must stay below a single node-length `f64`
//! vector, so no per-iteration gradient copy, solution snapshot, partial
//! density map or pin scratch is allocated afresh.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xplace::core::{GlobalPlacer, XplaceConfig};
use xplace::db::synthesis::{synthesize, SynthesisSpec};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated by one placement of a fresh design capped at `iters`,
/// and the number of nodes the placer models (cells plus fillers).
fn place(threads: usize, iters: usize) -> (u64, usize) {
    // Large enough for several net and node blocks, so the blocked
    // wirelength and density paths run.
    let spec = SynthesisSpec::new("alloc", 2_600, 2_700).with_seed(20_260_117);
    let mut design = synthesize(&spec).expect("synthesis succeeds");
    let mut cfg = XplaceConfig::xplace().with_threads(threads);
    cfg.schedule.max_iterations = iters;
    let nodes = xplace::ops::PlacementModel::from_design(&design)
        .expect("model")
        .num_nodes();
    let before = BYTES.load(Ordering::Relaxed);
    let report = GlobalPlacer::new(cfg)
        .place(&mut design)
        .expect("placement succeeds");
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(report.iterations, iters, "the run must not stop early");
    (bytes, nodes)
}

#[test]
fn steady_state_iterations_allocate_less_than_one_node_vector() {
    for threads in [1, 2] {
        let (short, nodes) = place(threads, 30);
        let (long, _) = place(threads, 60);
        let per_iter = long.saturating_sub(short) / 30;
        let bound = (nodes * std::mem::size_of::<f64>()) as u64;
        println!("threads {threads}: {per_iter} B per iteration, bound {bound} B ({nodes} nodes)");
        assert!(
            per_iter < bound,
            "threads {threads}: a steady-state iteration allocates {per_iter} B, \
             at least one node-length vector ({bound} B)"
        );
    }
}
