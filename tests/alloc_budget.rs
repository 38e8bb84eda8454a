//! The allocation budgets of a monitored request and of a policy compile,
//! and the heap budgets of an unmonitored and a flash-crowd request.
//!
//! A counting global allocator tallies every allocation and reallocation
//! made on the test's own thread, and the bytes live on it and their
//! high-water mark. One test runs the `steady` shape — the canonical
//! scenario, 1,000 requests at 1,000 requests per second, seed 7 — and
//! asserts the per-request figure stays within budget: a first run warms
//! up whatever the process builds once (thread-locals, kernel dispatch);
//! the second run is the one counted, set-up included. Another compiles
//! the `policy_heavy` policy base once. The third runs the
//! `monitoring_off` shape — the canonical scenario with monitoring off,
//! 25,000 requests at 5,000 requests per second, seed 7 — the same way,
//! and bounds the peak live heap of the counted run per request. The
//! fourth does the same for the benchmark's `flash_crowd` shape, where
//! every bounded-state mechanism is armed. The fifth bounds the live heap
//! a Logging Interface holds for the entries it has not yet submitted.
//!
//! The counters are per thread, so no test's tally sees another's
//! allocations, nor the harness's own threads.
//!
//! Run with `--nocapture` to print the measured figures.

use drams::chain::chain::ChainConfig;
use drams::chain::node::Node;
use drams::core::adversary::NoAdversary;
use drams::core::li::LoggingInterface;
use drams::core::logent::LogEntry;
use drams::core::monitor::MonitorConfig;
use drams::core::scenario::{
    run_scenario, DiurnalBand, FlashCrowd, LoadProfile, ScenarioSpec, MIN_RETENTION,
};
use drams::crypto::aead::SymmetricKey;
use drams::crypto::codec::Encode;
use drams::crypto::schnorr::Keypair;
use drams::faas::des::MILLIS;
use drams::faas::workload::{PolicyGenerator, PolicyShape, Vocabulary};
use drams::policy::compiled::PreparedPolicySet;
use drams_bench::log_entry_of_size;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations plus reallocations one `steady` request may cost (56.5
/// measured, the event loop reusing its emission buffers, each PDP slot
/// its journal record, and contract storage sharing each entry's bytes
/// with its transaction; 56.0 while each LI kept its unflushed entries in
/// a resident buffer, so that a flush read no backlog segment back; 56.7
/// while each in-memory file was a run of 64 KiB chunks, 60.1 while
/// storage copied every entry, 61.0 while the PDP memoised its decisions,
/// 63.5 while every contract event carried two heap strings).
const BUDGET_PER_REQUEST: f64 = 80.0;

/// Peak live heap, in bytes, one `monitoring_off` request may hold. The
/// PDP slot's idempotency cache keeps every decision at the default
/// retention, so this is mostly that cache: 322.6 while it held a decoded
/// copy of each as-sent response beside the journal's encoded one, 217.8
/// while it also queued every decision for an eviction that retention 0
/// never makes, 186.3 once it held only the journal position, 169.1
/// without the PDP's decision cache, 146.8 once a run recorded issue
/// times only while monitoring is on, 145.3 since each in-memory file is
/// one `Vec`.
const HEAP_BUDGET_PER_REQUEST: f64 = 160.0;

/// Peak live heap, in bytes, one `flash_crowd` request may hold: its
/// entries in the blocks, the node journal's medium and the stores the
/// run keeps per request (4,456.6 measured). 4,462.2 while each LI also
/// kept its unflushed entries in a resident buffer; 4,522.1 while the node
/// journal was compacted every eight blocks and each in-memory file was
/// a run of 64 KiB chunks; 6,264 while contract storage held a copy of
/// every stored entry beside its block's and each journal compaction
/// gathered the whole live journal into one buffer.
const FLASH_HEAP_BUDGET_PER_REQUEST: f64 = 5_000.0;

/// Live heap an LI may hold per byte of canonical encoding of the
/// entries it owes the chain (1.11 measured: its backlog WAL's
/// in-memory segments, their record framing and their growth slack; 2.74
/// while it also kept each unflushed entry's encoding in a resident
/// buffer beside the WAL).
const LI_HEAP_PER_ENTRY_BYTE: f64 = 1.25;

/// Allocations plus reallocations one compile of the 1,000-policy base
/// may cost. Before each version was compiled into one arena it took
/// 37,504: every expression, target clause, rule list and string literal
/// had its own allocation, and every 5-rule policy built a target index
/// it never used.
const COMPILE_BUDGET: u64 = 1_000;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread less the bytes freed on it: signed,
    /// since a thread may free what another allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has been since it was last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation or reallocation that changes this thread's live
/// bytes by `delta`.
fn count(delta: i64) {
    // `try_with`: the allocator still runs while thread-locals are torn down.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    track(delta);
}

/// Changes this thread's live bytes by `delta` and raises their peak.
fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

#[allow(clippy::cast_possible_wrap)]
fn bytes(n: usize) -> i64 {
    n as i64
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(bytes(layout.size()));
        // SAFETY: forwarded with the caller's own layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(bytes(layout.size()));
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` and `layout` come from this allocator, as the
        // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-bytes(layout.size()));
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
fn monitoring_off_request_stays_within_its_heap_budget() {
    let spec = ScenarioSpec::canonical(&MonitorConfig {
        total_requests: 25_000,
        request_rate_per_sec: 5_000.0,
        seed: 7,
        monitoring_enabled: false,
        ..MonitorConfig::default()
    });
    let (peak, requests) = peak_heap_of_second_run(&spec);
    assert_eq!(requests, 25_000);
    #[allow(clippy::cast_precision_loss)]
    let per_request = peak as f64 / requests as f64;
    println!(
        "monitoring_off: {per_request:.1} B of peak live heap per request \
         ({peak} B over {requests} requests; budget {HEAP_BUDGET_PER_REQUEST})"
    );
    assert!(
        per_request <= HEAP_BUDGET_PER_REQUEST,
        "{per_request:.1} B of peak live heap per monitoring_off request, budget {HEAP_BUDGET_PER_REQUEST}"
    );
}

/// The benchmark's `flash_crowd` workload at its default size: 2,250
/// requests at 3,000 per second, seed 7, on the E14 overload profile with
/// its time axis scaled by 0.05 and the admission cap raised to 256.
fn flash_crowd() -> ScenarioSpec {
    let config = MonitorConfig {
        total_requests: 2_250,
        request_rate_per_sec: 3_000.0,
        seed: 7,
        ..MonitorConfig::default()
    };
    ScenarioSpec {
        name: "flash_crowd".to_string(),
        load: LoadProfile {
            population: 2_000,
            zipf_exponent: 1.1,
            diurnal: vec![
                DiurnalBand {
                    start: 0,
                    multiplier_permille: 700,
                },
                DiurnalBand {
                    start: 200 * MILLIS,
                    multiplier_permille: 1_200,
                },
            ],
            spikes: vec![FlashCrowd {
                from: 200 * MILLIS,
                until: 300 * MILLIS,
                multiplier_permille: 4_000,
            }],
            pep_inflight_cap: 256,
            li_resident_cap: 512,
            idempotency_retention: MIN_RETENTION,
            analyser_retire_lag: MIN_RETENTION,
            policy_history_retention: MIN_RETENTION,
            chain_compact_interval: 8,
        },
        ..ScenarioSpec::canonical(&config)
    }
}

/// Runs `spec` twice and returns the peak live heap of the second run,
/// set-up included, and the requests it completed: the first run warms
/// up whatever the process builds once.
fn peak_heap_of_second_run(spec: &ScenarioSpec) -> (i64, u64) {
    let (warm_up, _) = run_scenario(spec, &mut NoAdversary);
    let requests = warm_up.requests_completed;
    drop(warm_up);
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let (report, _) = run_scenario(spec, &mut NoAdversary);
    let peak = PEAK.with(Cell::get) - before;
    assert_eq!(report.requests_completed, requests);
    assert!(report.alerts.is_empty());
    (peak, report.requests_completed)
}

#[test]
fn flash_crowd_request_stays_within_its_heap_budget() {
    let (peak, requests) = peak_heap_of_second_run(&flash_crowd());
    assert_eq!(requests, 2_250);
    #[allow(clippy::cast_precision_loss)]
    let per_request = peak as f64 / requests as f64;
    println!(
        "flash_crowd: {per_request:.1} B of peak live heap per request \
         ({peak} B over {requests} requests; budget {FLASH_HEAP_BUDGET_PER_REQUEST})"
    );
    assert!(
        per_request <= FLASH_HEAP_BUDGET_PER_REQUEST,
        "{per_request:.1} B of peak live heap per flash_crowd request, budget {FLASH_HEAP_BUDGET_PER_REQUEST}"
    );
}

#[test]
fn an_li_holds_each_unflushed_entry_once() {
    // A batch no run of 4,000 stores fills: the LI only journals.
    let mut node = Node::new(ChainConfig::default());
    let mut li = LoggingInterface::new(
        "li-heap",
        SymmetricKey::from_bytes([9; 32]),
        Keypair::from_seed(b"li-heap"),
        1_000_000,
    );
    let entries: Vec<LogEntry> = (0..4_000).map(|i| log_entry_of_size(i, 128)).collect();
    let canonical: usize = entries.iter().map(|e| e.to_canonical_bytes().len()).sum();
    let before = LIVE.with(Cell::get);
    for entry in &entries {
        assert!(li.store(entry.clone(), &mut node).unwrap().is_empty());
    }
    let held = LIVE.with(Cell::get) - before;
    assert_eq!(li.buffered(), entries.len());
    #[allow(clippy::cast_precision_loss)]
    let per_byte = held as f64 / canonical as f64;
    println!(
        "li: {per_byte:.2} B of live heap per byte of unflushed entry \
         ({held} B for {canonical} B over {} entries; budget {LI_HEAP_PER_ENTRY_BYTE})",
        entries.len()
    );
    assert!(
        per_byte <= LI_HEAP_PER_ENTRY_BYTE,
        "{per_byte:.2} B of live heap per byte of unflushed entry, budget {LI_HEAP_PER_ENTRY_BYTE}"
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
