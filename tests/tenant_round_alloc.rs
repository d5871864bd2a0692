//! Allocation regression for the tenant round: after a short warm-up,
//! `Tenant::apply_into` on the sequential engine must not touch the heap
//! at all — sensing, clustering, the vote, the trust update, drift,
//! re-election (about one round in three here) and the decision line
//! included.
//!
//! A counting `#[global_allocator]` counts this thread's allocations
//! only, so the test harness's own threads cannot disturb the count.
//! It lives in its own test binary because a global allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tibfit_daemon::tenant::{EngineKind, Tenant};
use tibfit_daemon::wire::Report;
use tibfit_experiments::replay::{tenant_seed, FieldScenario};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the wrapper only bumps a thread-local counter that never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const WARMUP: usize = 30;
const MEASURED: usize = 3_000;

#[test]
fn steady_state_sequential_apply_makes_no_heap_allocation() {
    let scenario = FieldScenario::mobile(tenant_seed(7, 0));
    let mut tenant = Tenant::new(0, scenario.clone(), EngineKind::Sequential, 1)
        .expect("mobile scenario builds");
    let reports: Vec<Report> = scenario
        .events(WARMUP + MEASURED)
        .into_iter()
        .enumerate()
        .map(|(i, p)| Report {
            tenant: 0,
            time: i as u64 + 1,
            src: 0,
            seq: i as u64 + 1,
            x: p.x,
            y: p.y,
        })
        .collect();
    assert!(allocations() > 0, "the counting allocator sees this thread");
    let mut line = String::with_capacity(4096);
    for r in &reports[..WARMUP] {
        line.clear();
        tenant.apply_into(r, &mut line);
    }
    let before = allocations();
    for r in &reports[WARMUP..] {
        line.clear();
        tenant.apply_into(r, &mut line);
    }
    let made = allocations() - before;
    assert_eq!(tenant.round(), (WARMUP + MEASURED) as u64);
    assert_eq!(
        made, 0,
        "{made} heap allocations over {MEASURED} steady-state rounds"
    );
}
