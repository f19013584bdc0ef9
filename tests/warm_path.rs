//! The warm path of a cached LITL-X program: what a repeat run of the
//! served matmul nest allocates, and how the knowledge base still steers
//! it.
//!
//! Allocations are counted per thread by a counting global allocator, on
//! a one-worker interpreter: every SSP wave of its runs is inline, the
//! naive path spawns no helpers, and `main` runs on the calling thread,
//! so the count of a run is exactly what that thread allocated. The naive
//! `forall` row runs on two workers and counts the calling thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use htvm_adapt::pipeline::{pipeline_hint, NAIVE_POLICY, PIPELINED_POLICY, SSP_COMPILED_POLICY};
use litlx::lang::{parse, Interp, LoopStrategy, Program};

/// The system allocator, counting the allocation events (alloc, zeroed
/// alloc, realloc) of each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tick() {
    // `try_with`: a thread's last deallocations may run after its
    // thread-local is gone; allocations then are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread made while running `f`.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The served matmul nest (perfbench's `litlx-serve` program).
fn matmul(n: usize) -> Program {
    parse(&format!(
        "fn main() {{
            let n = {n};
            let a = array(n * n); let b = array(n * n); let c = array(n * n);
            forall i in 0..n * n {{ a[i] = i % 7 + 1; }}
            forall i in 0..n * n {{ b[i] = i % 5 - 1; }}
            forall i in 0..n {{
              forall j in 0..n {{
                for k in 0..n {{
                  c[i * n + j] += a[i * n + k] * b[k * n + j];
                }}
              }}
            }}
            print(sum(c)); }}"
    ))
    .expect("matmul parses")
}

/// Allocations bounded by what a run of the nest cannot avoid: its three
/// arrays, its printed line, the output vector and a little run
/// scaffolding (the run's shared state, `main`'s frame).
const WARM_ALLOC_BOUND: u64 = 8;

#[test]
fn a_warm_run_allocates_at_most_a_small_fixed_count() {
    let interp = Interp::new(1).with_strategy(LoopStrategy::Ssp);
    for n in [12, 48] {
        let p = matmul(n);
        let cold = interp.run(&p).unwrap();
        let _ = interp.run(&p).unwrap();
        let (warm, allocs) = allocs_of(|| interp.run(&p).unwrap());
        assert_eq!(warm.printed, cold.printed, "n = {n}");
        assert_eq!((warm.ssp_foralls, warm.ssp_plan_hits), (3, 3), "n = {n}");
        assert_eq!(warm.ssp_waves, warm.ssp_inline_waves, "n = {n}");
        assert!(
            allocs <= WARM_ALLOC_BOUND,
            "a warm n = {n} run allocated {allocs} times (bound {WARM_ALLOC_BOUND})"
        );
    }
}

/// What a warm naive `forall` allocates on the calling thread of a
/// two-worker interpreter: the loop's shared state, one capture of its
/// environment for the helper, the helper's job, and one frame for the
/// iterations the caller runs — no copy of the loop's AST. The count is
/// fixed whichever thread runs which chunk.
const NAIVE_FORALL_ALLOC_BOUND: u64 = 6;

#[test]
fn a_warm_naive_forall_copies_no_ast() {
    let interp = Interp::new(2).with_strategy(LoopStrategy::Naive);
    let p = parse(
        "fn main() { let n = 64; let a = array(n);
           forall i in 0..n { let t = i * 2; a[i] = t + n; }
           print(sum(a)); }",
    )
    .unwrap();
    let empty = parse("fn main() { let n = 64; let a = array(n); print(sum(a)); }").unwrap();
    for _ in 0..3 {
        interp.run(&p).unwrap();
        interp.run(&empty).unwrap();
    }
    for _ in 0..20 {
        let (out, with_loop) = allocs_of(|| interp.run(&p).unwrap());
        assert_eq!(out.printed, vec!["8128"]);
        let (_, without) = allocs_of(|| interp.run(&empty).unwrap());
        assert!(
            with_loop - without <= NAIVE_FORALL_ALLOC_BOUND,
            "a warm naive forall allocated {} times (bound {NAIVE_FORALL_ALLOC_BOUND})",
            with_loop - without
        );
    }
}

#[test]
fn a_hint_added_after_warm_runs_takes_effect_on_the_next_run() {
    let interp = Interp::new(1).with_strategy(LoopStrategy::Ssp);
    let kb = interp.knowledge();
    let p = parse(
        "fn main() { let n = 64; let y = array(n);
           forall i in 0..n { y[i] = 2 * i; }
           print(sum(y)); }",
    )
    .unwrap();
    for _ in 0..3 {
        let out = interp.run(&p).unwrap();
        assert_eq!((out.ssp_foralls, out.printed[0].as_str()), (1, "4032"));
    }
    // The loop's program point is the knowledge-base key an `Adaptive`
    // run records its outcome under.
    let adaptive = Interp::new(1).with_strategy(LoopStrategy::Adaptive);
    adaptive.run(&p).unwrap();
    let text = adaptive.knowledge().lock().to_text().unwrap();
    let point = text
        .lines()
        .find_map(|l| l.strip_prefix("outcome\t")?.split('\t').next())
        .expect("the adaptive run recorded an outcome")
        .to_string();
    kb.lock().add_hint(
        &point,
        pipeline_hint([("pipeline".to_string(), "0".to_string())], 1),
    );
    let out = interp.run(&p).unwrap();
    assert_eq!(out.printed, vec!["4032"]);
    assert_eq!(out.ssp_foralls, 0, "`pipeline = 0` must force naive");
    assert_eq!(out.ssp_bailouts, 0, "forced naive is not a bail-out");
}

#[test]
fn only_an_adaptive_interpreter_records_outcomes() {
    let p = matmul(12);
    for strategy in [LoopStrategy::Naive, LoopStrategy::Ssp] {
        let interp = Interp::new(1).with_strategy(strategy);
        let kb = interp.knowledge();
        interp.run(&p).unwrap();
        interp.run(&p).unwrap();
        let text = kb.lock().to_text().unwrap();
        assert!(
            !text.lines().any(|l| l.starts_with("outcome")),
            "{strategy:?} recorded: {text:?}"
        );
    }
    let interp = Interp::new(1).with_strategy(LoopStrategy::Adaptive);
    let kb = interp.knowledge();
    interp.run(&p).unwrap();
    let kb = kb.lock();
    let text = kb.to_text().unwrap();
    let point = text
        .lines()
        .find_map(|l| l.strip_prefix("outcome\t")?.split('\t').next())
        .expect("the adaptive run recorded outcomes");
    assert!(
        [NAIVE_POLICY, PIPELINED_POLICY, SSP_COMPILED_POLICY]
            .iter()
            .any(|pol| kb.recorded(point, pol).is_some()),
        "{text:?}"
    );
}
