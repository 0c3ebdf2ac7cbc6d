//! Heap allocations on the per-event path, counted by a global allocator.
//!
//! Random mode (Table 4) re-executes each application program 20 times, so
//! whatever the memory system allocates per simulated event is paid on
//! every store, load, flush and fence. This binary counts every heap
//! allocation while the seven random-mode suite programs run at the
//! harness seed, and pins the allocations per simulated event
//! ([`jaaru::ExecStats::events`]) under a ceiling. It also pins that a
//! 2 KiB `memset` and its persist allocate per cache line, not per 8-byte
//! chunk, and pins the allocations per crash point of a pruned model
//! check of the crash-dense log, where most crash points are skipped class
//! members and every class's representative resumes from a snapshot.
//!
//! The counter is process-global, so the binary has exactly one test: a
//! second one running in parallel would add its allocations to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bench::workload::crashprune_workload;
use bench::{evaluation_suite, SuiteMode, HARNESS_SEED};
use jaaru::{Engine, EngineConfig, ExecMode, NullSink, PersistencePolicy, Program, SchedPolicy};
use yashme::{YashmeConfig, YashmeDetector};

/// Counts `alloc`/`alloc_zeroed`/`realloc` calls and forwards every call
/// to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap allocations per simulated event across the random-mode programs
/// may not exceed this: 0.335 measured with the event records in
/// 16-slot chunks shared with snapshots, 0.321 with them in one vector and
/// one copy-on-write record per cache line (0.440 with separate cache,
/// storemap, image and provenance slabs; 1.159 before the allocation-free
/// event path).
const MAX_ALLOCS_PER_EVENT: f64 = 0.35;

/// Allocations one 2 KiB `memset` plus its persist may make per cache
/// line it covers: fewer than the line's eight 8-byte chunks, so no chunk
/// may allocate. Measured at 4.97: three per line (the line's cache
/// record, its store log and its image record) plus one event-table slot
/// chunk per 16 store events and the logarithmic growth of the buffers.
/// With the event records in one vector it measured 4.75, with separate
/// cache, storemap, image and provenance slabs 7.2, and with one lowered
/// `Vec` per chunk 17.4.
const MAX_ALLOCS_PER_MEMSET_LINE: f64 = 5.2;

/// Allocations per crash point of a pruned model check of
/// `crashprune_workload(40, 5)` may not exceed this: about 10% above the
/// 13.6 measured with members absorbed by counter arithmetic and slot
/// chunks shared with snapshots (25.3 when each member's outcome was a
/// copied run and each snapshot copied every live event record).
const MAX_ALLOCS_PER_CRASH_POINT: f64 = 15.0;

/// Runs the seven random-mode programs at the harness seed under
/// `EngineConfig::sequential()` (the benchmark's configuration) and returns
/// `(allocations, simulated events)`. Programs are built before counting.
fn random_mode_allocations() -> (u64, u64) {
    let config = EngineConfig::sequential();
    let (mut allocations, mut events) = (0, 0);
    for entry in evaluation_suite() {
        let SuiteMode::Random(executions) = entry.mode else {
            continue;
        };
        let program = (entry.program)();
        let before = allocs();
        let report = Engine::run_observed(
            &program,
            ExecMode::random(executions, HARNESS_SEED),
            &|| Box::new(YashmeDetector::new(YashmeConfig::default())),
            &config,
            jaaru::obs::Telemetry::off(),
        );
        allocations += allocs() - before;
        events += report.stats().events();
    }
    (allocations, events)
}

/// Model-checks the crash-dense log (480 crash points in 80 classes) with
/// pruning under `EngineConfig::sequential()` and returns `(allocations,
/// crash points)`. The program is built before counting.
fn model_check_allocations() -> (u64, usize) {
    let program = crashprune_workload(40, 5);
    let before = allocs();
    let report = Engine::run_observed(
        &program,
        ExecMode::model_check(),
        &|| Box::new(YashmeDetector::new(YashmeConfig::default())),
        &EngineConfig::sequential(),
        jaaru::obs::Telemetry::off(),
    );
    let allocations = allocs() - before;
    assert!(report.prune_stats().suffixes_skipped > 0, "pruning engaged");
    (allocations, report.crash_points())
}

/// Allocations made by one `memset` of `len` bytes and its `pmem_persist`
/// on a fresh memory system, counted inside the simulated task.
fn memset_persist_allocations(len: u64) -> u64 {
    let counted = Arc::new(AtomicU64::new(0));
    let out = Arc::clone(&counted);
    let program = Program::new("memset-persist").pre_crash(move |ctx| {
        let at = ctx.alloc_line_aligned(len);
        let before = allocs();
        ctx.memset(at, 0xa5, len, "memset");
        pmdk::libpmem::pmem_persist(ctx, at, len, "persist");
        out.store(allocs() - before, Ordering::Relaxed);
    });
    Engine::run_single(
        &program,
        SchedPolicy::Deterministic,
        PersistencePolicy::FullCache,
        0,
        None,
        Box::new(NullSink),
    );
    counted.load(Ordering::Relaxed)
}

#[test]
fn the_event_path_stays_under_its_allocation_budget() {
    let (allocations, events) = random_mode_allocations();
    let per_event = allocations as f64 / events as f64;
    println!("random mode: {allocations} allocations over {events} events ({per_event:.3}/event)");
    let len = 2048;
    let lines = len / pmem::CACHE_LINE_SIZE;
    let memset = memset_persist_allocations(len);
    println!("{len}-byte memset + persist: {memset} allocations over {lines} lines");
    let (mc_allocations, points) = model_check_allocations();
    let per_point = mc_allocations as f64 / points as f64;
    println!(
        "model check: {mc_allocations} allocations over {points} crash points \
         ({per_point:.1}/point)"
    );
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{allocations} heap allocations over {events} simulated events is \
         {per_event:.3} per event, above the budget of {MAX_ALLOCS_PER_EVENT}"
    );
    assert!(
        memset as f64 <= MAX_ALLOCS_PER_MEMSET_LINE * lines as f64,
        "a {len}-byte memset and its persist made {memset} allocations over \
         {lines} lines, above {MAX_ALLOCS_PER_MEMSET_LINE} per line"
    );
    assert!(
        per_point <= MAX_ALLOCS_PER_CRASH_POINT,
        "{mc_allocations} heap allocations over {points} crash points is \
         {per_point:.1} per point, above the budget of {MAX_ALLOCS_PER_CRASH_POINT}"
    );
}
