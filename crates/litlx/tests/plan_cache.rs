//! Differential tests of the interpreter's SSP plan cache.
//!
//! One warm [`Interp`] runs programs whose `forall`s are reached again
//! and again — inside a `fn f(..)` called under different arguments, and
//! across runs — and every result must be bit-identical to a fresh
//! interpreter's. [`RunOutput::ssp_plan_hits`] says exactly which
//! executions reused a cached plan: identical resolver answers hit; a
//! different array length, alias partition, free scalar (`-0.0` versus
//! `0.0` included) or bound misses.

use htvm_core::Topology;
use litlx::lang::{
    parse, Interp, KernelMode, LoopStrategy, Program, RunOutput, PLAN_CACHE_CAPACITY,
};

const MODES: [KernelMode; 2] = [KernelMode::Compiled, KernelMode::Interpreted];

fn interp(strategy: LoopStrategy, mode: KernelMode) -> Interp {
    Interp::with_topology(Topology::domains(2, 1))
        .with_strategy(strategy)
        .with_kernel_mode(mode)
}

fn ssp(mode: KernelMode) -> Interp {
    interp(LoopStrategy::Ssp, mode)
}

fn prog(src: &str) -> Program {
    parse(src).unwrap_or_else(|e| panic!("{e:?}\n{src}"))
}

/// The e18 matmul nest: three `forall`s.
fn matmul(n: usize) -> String {
    format!(
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
    )
}

/// `f` stores through a two-level nest whose inner bound `k` and scale
/// `s` are free names of the body, so they reach the lowering through
/// the resolver. `main` is appended by each test.
const F: &str = "
fn f(x, y, s, k) {
  forall i in 0..2 {
    forall j in 0..k { y[i * k + j] = x[i * k + j] * s + 1 / s; }
  }
}
fn fill(x) { for i in 0..len(x) { x[i] = i + 1; } }
";

fn with_main(main: &str) -> String {
    format!("{F}\nfn main() {{ {main} }}")
}

fn run(i: &Interp, p: &Program) -> RunOutput {
    i.run(p).unwrap_or_else(|e| panic!("{e}\n{p:?}"))
}

#[test]
fn matmul_hits_all_three_foralls_on_its_second_run() {
    for mode in MODES {
        let i = ssp(mode);
        let p = prog(&matmul(12));
        let first = i.run(&p).unwrap();
        assert_eq!(first.ssp_foralls, 3);
        assert_eq!(first.ssp_plan_hits, 0, "{mode:?}");
        let second = i.run(&p).unwrap();
        assert_eq!(second.ssp_plan_hits, 3, "{mode:?}");
        assert_eq!(second.printed, first.printed);
        assert_eq!(second.ssp_foralls, 3);
    }
}

#[test]
fn identical_answers_hit_within_and_across_runs() {
    let p = prog(&with_main(
        "let a = array(8); let b = array(8); fill(a);
         f(a, b, 2, 4); f(a, b, 2, 4);
         let c = array(8); let d = array(8); fill(c);
         f(c, d, 2, 4);
         print(sum(b)); print(sum(d));",
    ));
    for mode in MODES {
        let i = ssp(mode);
        let first = run(&i, &p);
        assert_eq!(first.ssp_foralls, 3);
        // Fresh arrays of the same lengths and alias partition hit too.
        assert_eq!(first.ssp_plan_hits, 2, "{mode:?}");
        // A program the interpreter has run before hits on every call.
        assert_eq!(run(&i, &p).ssp_plan_hits, 3, "{mode:?}");
    }
}

/// Each `main` calls `f` twice with answers that differ in one guarded
/// respect: the second call must miss.
#[test]
fn each_guarded_difference_misses() {
    let cases = [
        (
            "array length",
            "let a = array(8); let b = array(8); let c = array(9); let d = array(9);
             fill(a); fill(c); f(a, b, 2, 4); f(c, d, 2, 4); print(sum(b) + sum(d));",
        ),
        (
            "aliased versus distinct",
            "let a = array(8); let b = array(8); fill(a); fill(b);
             f(a, b, 2, 4); f(b, b, 2, 4); print(sum(a) + sum(b));",
        ),
        (
            "free scalar",
            "let a = array(8); let b = array(8); fill(a);
             f(a, b, 2, 4); f(a, b, 3, 4); print(sum(b));",
        ),
        (
            "signed zero",
            "let a = array(8); let b = array(8); let d = array(8); fill(a);
             f(a, b, 0, 4); f(a, d, -0, 4); print(sum(b)); print(sum(d));",
        ),
        (
            "inner bound",
            "let a = array(8); let b = array(8); fill(a);
             f(a, b, 2, 4); f(a, b, 2, 3); print(sum(b));",
        ),
    ];
    for (what, main) in cases {
        let p = prog(&with_main(main));
        for mode in MODES {
            let out = run(&ssp(mode), &p);
            assert_eq!(out.ssp_foralls, 2, "{what}");
            assert_eq!(out.ssp_plan_hits, 0, "{what} must miss ({mode:?})");
        }
    }
    // The sign of zero is observable: `1 / s` is +inf or -inf.
    let signed = prog(&with_main(
        "let a = array(8); let b = array(8); let d = array(8); fill(a);
         f(a, b, 0, 4); f(a, d, -0, 4); print(sum(b)); print(sum(d));",
    ));
    assert_eq!(
        run(&ssp(KernelMode::Compiled), &signed).printed,
        ["inf", "-inf"]
    );
}

#[test]
fn different_outer_bounds_miss() {
    let p = prog(
        "fn g(x, lo, hi) { forall i in lo..hi { x[i] = x[i] + i; } }
         fn main() {
           let a = array(8);
           g(a, 0, 8); g(a, 0, 8); g(a, 0, 6); g(a, 1, 6);
           print(sum(a));
         }",
    );
    for mode in MODES {
        let out = run(&ssp(mode), &p);
        assert_eq!(out.ssp_foralls, 4);
        assert_eq!(out.ssp_plan_hits, 1, "only the repeated bounds hit");
    }
}

#[test]
fn bail_outs_are_cached_but_futures_never_hit() {
    let guarded = prog(
        "fn main() {
           let a = array(8);
           forall i in 0..8 { if i > 3 { a[i] = 1; } }
           print(sum(a)); }",
    );
    let future = prog(
        "fn main() {
           let a = array(4);
           future x = 3;
           forall i in 0..4 { a[i] = i; let z = x; }
           print(sum(a)); }",
    );
    for mode in MODES {
        let i = ssp(mode);
        let first = run(&i, &guarded);
        assert_eq!((first.ssp_bailouts, first.ssp_plan_hits), (1, 0));
        let second = run(&i, &guarded);
        assert_eq!((second.ssp_bailouts, second.ssp_plan_hits), (1, 1));
        assert_eq!(second.printed, ["4"]);
        for _ in 0..2 {
            let out = run(&i, &future);
            assert_eq!((out.ssp_bailouts, out.ssp_plan_hits), (1, 0));
        }
    }
}

/// Fault text is a function of the program: the same whether the nest
/// missed after an in-bounds entry for the same point, hit an entry made
/// by an earlier faulting run, or ran on a fresh interpreter.
#[test]
fn out_of_bounds_faults_identically_through_the_cache() {
    let in_bounds = prog(&with_main(
        "let a = array(8); let b = array(8); fill(a); f(a, b, 2, 4); print(sum(b));",
    ));
    let mut oob = prog(&with_main(
        "let a = array(8); let b = array(8); fill(a); f(a, b, 2, 4);
         let c = array(16); let d = array(6); fill(c); f(c, d, 2, 8);",
    ));
    // Both programs call one `f`, so they share its program point.
    let f = in_bounds.get_fn("f").unwrap().clone();
    for g in &mut oob.fns {
        if g.name == "f" {
            *g = f.clone();
        }
    }
    for mode in MODES {
        let fresh = ssp(mode).run(&oob).unwrap_err();
        assert!(
            fresh.contains("out of bounds for array of length 6"),
            "{fresh}"
        );
        let warm = ssp(mode);
        run(&warm, &in_bounds);
        for _ in 0..3 {
            assert_eq!(warm.run(&oob).unwrap_err(), fresh, "{mode:?}");
        }
        // The cache still serves the in-bounds program afterwards.
        assert_eq!(
            run(&warm, &in_bounds).ssp_plan_hits,
            0,
            "d replaced b's plan"
        );
        assert_eq!(run(&warm, &in_bounds).ssp_plan_hits, 1);
    }
}

/// Every program, run repeatedly and interleaved on one warm
/// interpreter, prints exactly what a fresh interpreter prints (or fails
/// with exactly its error), under both kernel modes and both strategies
/// that take the SSP path.
#[test]
fn warm_runs_match_fresh_runs_bit_for_bit() {
    let sources: Vec<String> = vec![
        matmul(6),
        matmul(5),
        with_main(
            "let a = array(8); let b = array(8); fill(a);
             f(a, b, 2, 4); f(a, b, 2, 4); f(b, b, 0.5, 4); print(sum(b));",
        ),
        with_main(
            "let a = array(8); let b = array(8); fill(a);
             f(a, b, 0, 4); print(sum(b)); f(a, b, -0, 4); print(sum(b));",
        ),
        with_main(
            "let a = array(12); let b = array(12); fill(a);
             f(a, b, 3, 6); f(a, b, 3, 5); print(sum(b));",
        ),
        // Enough points for `Adaptive`'s cold-start heuristic to pipeline.
        with_main(
            "let a = array(80); let b = array(80); fill(a);
             f(a, b, 2, 40); f(a, b, 2, 40); f(a, b, 3, 40); print(sum(b));",
        ),
        with_main("let a = array(16); let d = array(6); fill(a); f(a, d, 2, 8);"),
    ];
    let programs: Vec<Program> = sources.iter().map(|s| prog(s)).collect();
    for strategy in [LoopStrategy::Ssp, LoopStrategy::Adaptive] {
        // Under `Adaptive` the knowledge base may send a nest down either
        // path; both report the fault of the first failing point in
        // iteration order, in the same words, so the error text is
        // compared exactly under both strategies.
        let result = |r: Result<RunOutput, String>| r.map(|out| out.printed);
        for mode in MODES {
            let fresh: Vec<_> = programs
                .iter()
                .map(|p| result(interp(strategy, mode).run(p)))
                .collect();
            let warm = interp(strategy, mode);
            for round in 0..3 {
                for (k, p) in programs.iter().enumerate() {
                    assert_eq!(
                        result(warm.run(p)),
                        fresh[k],
                        "program {k}, round {round}, {strategy:?}/{mode:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_cache_stays_bounded_and_evicts_the_least_recent_point() {
    let i = ssp(KernelMode::Compiled);
    let extra = 8;
    let programs: Vec<Program> = (0..PLAN_CACHE_CAPACITY + extra)
        .map(|k| {
            prog(&format!(
                "fn main() {{ let a = array(4); forall i in 0..4 {{ a[i] = i * {k}; }} print(sum(a)); }}"
            ))
        })
        .collect();
    for (k, p) in programs.iter().enumerate() {
        assert_eq!(i.run(p).unwrap().printed, [format!("{}", 6 * k)]);
        assert!(i.cached_plans() <= PLAN_CACHE_CAPACITY);
    }
    assert_eq!(i.cached_plans(), PLAN_CACHE_CAPACITY);
    // The newest point is still cached; the oldest was evicted.
    assert_eq!(i.run(programs.last().unwrap()).unwrap().ssp_plan_hits, 1);
    assert_eq!(i.run(&programs[0]).unwrap().ssp_plan_hits, 0);
    assert_eq!(i.cached_plans(), PLAN_CACHE_CAPACITY);
}
