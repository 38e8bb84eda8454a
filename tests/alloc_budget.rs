//! The allocation budgets of a monitored request and of a policy compile.
//!
//! A counting global allocator tallies every allocation and reallocation
//! made on the test's own thread. One test runs the `steady` shape — the
//! canonical scenario, 1,000 requests at 1,000 requests per second, seed
//! 7 — and asserts the per-request figure stays within budget: a first
//! run warms up whatever the process builds once (thread-locals, kernel
//! dispatch); the second run is the one counted, set-up included. The
//! other compiles the `policy_heavy` policy base once.
//!
//! The counters are per thread, so neither test's tally sees the other's
//! allocations, nor the harness's own threads.
//!
//! Run with `--nocapture` to print the measured figures.

use drams::core::adversary::NoAdversary;
use drams::core::monitor::MonitorConfig;
use drams::core::scenario::{run_scenario, ScenarioSpec};
use drams::faas::workload::{PolicyGenerator, PolicyShape, Vocabulary};
use drams::policy::compiled::PreparedPolicySet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations plus reallocations one `steady` request may cost (64.2
/// measured, the event loop reusing its emission buffers).
const BUDGET_PER_REQUEST: f64 = 80.0;

/// Allocations plus reallocations one compile of the 1,000-policy base
/// may cost. Before each version was compiled into one arena it took
/// 37,504: every expression, target clause, rule list and string literal
/// had its own allocation, and every 5-rule policy built a target index
/// it never used.
const COMPILE_BUDGET: u64 = 1_000;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator still runs while thread-locals are torn down.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's own layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, as the
        // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn steady() -> ScenarioSpec {
    ScenarioSpec::canonical(&MonitorConfig {
        total_requests: 1_000,
        request_rate_per_sec: 1_000.0,
        seed: 7,
        ..MonitorConfig::default()
    })
}

#[test]
fn steady_request_stays_within_its_allocation_budget() {
    let spec = steady();
    let (warm_up, _) = run_scenario(&spec, &mut NoAdversary);
    let before = CALLS.with(Cell::get);
    let (report, _) = run_scenario(&spec, &mut NoAdversary);
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(report.requests_completed, 1_000);
    assert_eq!(report.requests_completed, warm_up.requests_completed);
    assert!(report.alerts.is_empty());
    #[allow(clippy::cast_precision_loss)]
    let per_request = calls as f64 / report.requests_completed as f64;
    println!(
        "steady: {per_request:.1} allocations + reallocations per request \
         ({calls} over {} requests; budget {BUDGET_PER_REQUEST})",
        report.requests_completed
    );
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.1} allocations + reallocations per steady request, budget {BUDGET_PER_REQUEST}"
    );
}

#[test]
fn compiling_the_1000_policy_base_stays_within_its_allocation_budget() {
    // The `policy_heavy` base: seed 5, 1,000 policies of 5 rules.
    let base = PolicyGenerator::new(Vocabulary::default(), 5).next_policy_set(&PolicyShape {
        policies: 1_000,
        rules_per_policy: 5,
        ..PolicyShape::default()
    });
    let before = CALLS.with(Cell::get);
    let prepared = PreparedPolicySet::compile(&base);
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(prepared.version_digest(), base.version_digest());
    println!(
        "policy_heavy base: {calls} allocations + reallocations to compile 1,000 policies \
         (budget {COMPILE_BUDGET})"
    );
    assert!(
        calls <= COMPILE_BUDGET,
        "{calls} allocations + reallocations to compile the 1,000-policy base, budget {COMPILE_BUDGET}"
    );
}
