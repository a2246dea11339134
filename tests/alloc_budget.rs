//! Allocation budget of a compile: heap allocations per Rydberg stage.
//!
//! A one-gate stage should cost the compiler about what the program keeps
//! of it — its collective moves, move groups and gate list — plus the
//! transient plan the router hands the move pass. This binary counts the
//! allocation calls of the compiling thread through a counting global
//! allocator and fails when a QFT-64 compile (storage, 4 AODs,
//! `threads = 1`, so every pass runs on that thread) needs more per stage
//! than the pinned bound. The bounds sit about 10 % above the counts of
//! the current code (10.2 greedy, 23.6 auto in a debug build); before the
//! move pass and router reused per-stage scratch they were 24.3 and 71.9.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use powermove_suite::benchmarks::{generate, BenchmarkFamily};
use powermove_suite::hardware::Architecture;
use powermove_suite::powermove::{compile, CompilerConfig, RoutingConfig};

/// The system allocator, counting the allocation calls of each thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per Rydberg stage of one QFT-64 compile under `routing`.
fn allocations_per_stage(routing: RoutingConfig) -> f64 {
    let circuit = generate(BenchmarkFamily::Qft, 64, 1).circuit;
    let arch = Architecture::for_qubits(64).with_num_aods(4);
    let config = CompilerConfig::default()
        .with_routing(routing)
        .with_threads(1);
    let before = ALLOCATIONS.with(Cell::get);
    let program = compile(&circuit, &arch, &config).expect("QFT-64 compiles");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let stages = program.rydberg_stage_count();
    assert!(stages > 1000, "QFT-64 has {stages} stages");
    allocations as f64 / stages as f64
}

#[test]
fn a_greedy_compile_stays_within_its_allocation_budget() {
    let per_stage = allocations_per_stage(RoutingConfig::greedy());
    assert!(per_stage < 11.2, "{per_stage:.2} allocations per stage");
}

#[test]
fn an_auto_compile_stays_within_its_allocation_budget() {
    // Two routes and three lowerings.
    let per_stage = allocations_per_stage(RoutingConfig::auto());
    assert!(per_stage < 26.0, "{per_stage:.2} allocations per stage");
}
