//! SSP wave placement through the interpreter: a wave runs inline on the
//! calling thread or spread over the pool, and neither placement may
//! change what a program prints or how it fails.
//!
//! Two placements are certain whatever the host's timings: a cold plan
//! spreads every wave of two or more groups (neither of its costs is
//! measured yet), and a one-worker interpreter's waves have one group
//! each, which always runs inline. Whether a *warm* wave runs inline
//! depends on measured costs, so the warm runs assert what must hold on
//! either placement: the cold run's exact output, and
//! `ssp_inline_waves + spread waves == ssp_waves`, the spread waves
//! counted independently from the pool jobs they spawned.

use htvm_core::Topology;
use litlx::lang::{parse, Interp, KernelMode, LoopStrategy, Program};

const MODES: [KernelMode; 2] = [KernelMode::Compiled, KernelMode::Interpreted];

/// Two workers in two domains: every wave of the programs below has two
/// groups.
fn two_workers(mode: KernelMode) -> Interp {
    Interp::with_topology(Topology::domains(2, 1))
        .with_strategy(LoopStrategy::Ssp)
        .with_kernel_mode(mode)
}

/// One worker: every wave has one group.
fn one_worker(mode: KernelMode) -> Interp {
    Interp::new(1)
        .with_strategy(LoopStrategy::Ssp)
        .with_kernel_mode(mode)
}

fn prog(src: &str) -> Program {
    parse(src).unwrap_or_else(|e| panic!("{e:?}\n{src}"))
}

/// A small nest: the served n = 12 matmul, three `forall`s of one wave
/// each, on fractional data so any reordered sum changes bits.
const SMALL: &str = "fn main() {
    let n = 12;
    let a = array(n * n); let b = array(n * n); let c = array(n * n);
    forall i in 0..n * n { a[i] = i % 7 / 3 + 0.1; }
    forall i in 0..n * n { b[i] = i % 5 / 7 - 0.3; }
    forall i in 0..n {
      forall j in 0..n {
        for k in 0..n { c[i * n + j] += a[i * n + k] * b[k * n + j]; }
      }
    }
    print(sum(c)); print(c[0]); print(c[n * n - 1]); }";

/// A carried dependence at the partitioned level: one wavefront wave.
const WAVEFRONT: &str = "fn main() {
    let n = 96;
    let a = array(n + 2);
    a[0] = 0.5; a[1] = 0.25;
    forall i in 0..n { a[i + 2] = a[i + 1] * 0.75 + a[i]; }
    for q in 0..n + 2 { print(a[q]); } }";

#[test]
fn warm_runs_print_what_a_cold_run_prints_on_either_placement() {
    for mode in MODES {
        for (name, src) in [("small", SMALL), ("wavefront", WAVEFRONT)] {
            let p = prog(src);
            let cold = two_workers(mode).run(&p).unwrap();
            assert!(cold.ssp_waves > 0, "{name} {mode:?}: took the SSP path");
            assert_eq!(cold.ssp_bailouts, 0, "{name} {mode:?}");
            assert_eq!(
                cold.ssp_inline_waves, 0,
                "{name} {mode:?}: cold waves spread"
            );
            assert_eq!(cold.sgt_spawns, 2 * cold.ssp_waves, "{name} {mode:?}");

            let single = one_worker(mode).run(&p).unwrap();
            assert_eq!(single.printed, cold.printed, "{name} {mode:?}: inline");
            assert_eq!(single.ssp_waves, cold.ssp_waves);
            assert_eq!(single.ssp_inline_waves, single.ssp_waves, "{name} {mode:?}");
            assert_eq!(single.sgt_spawns, 0, "{name} {mode:?}");

            let warm = two_workers(mode);
            for run in 0..200 {
                let out = warm.run(&p).unwrap();
                assert_eq!(out.printed, cold.printed, "{name} {mode:?} run {run}");
                assert_eq!(out.ssp_waves, cold.ssp_waves, "{name} {mode:?} run {run}");
                // Each spread wave spawned one job per group (two).
                assert_eq!(out.sgt_spawns % 2, 0, "{name} {mode:?} run {run}");
                let spread = out.sgt_spawns / 2;
                assert_eq!(
                    out.ssp_inline_waves + spread,
                    out.ssp_waves,
                    "{name} {mode:?} run {run}"
                );
            }
        }
    }
}

#[test]
fn a_failing_nest_fails_identically_on_either_placement() {
    // The store to `a[10]` at (i, j) = (2, 2) is the first failing point,
    // in the lower of the two groups.
    let p = prog(
        "fn main() {
            let a = array(10);
            forall i in 0..8 { forall j in 0..4 { a[i * 4 + j] = i + j; } }
            print(a[0]); }",
    );
    for mode in MODES {
        let spread = two_workers(mode).run(&p).unwrap_err();
        assert!(spread.contains("out of bounds"), "{mode:?}: {spread}");
        let inline = one_worker(mode).run(&p).unwrap_err();
        assert_eq!(inline, spread, "{mode:?}");
        let warm = two_workers(mode);
        for run in 0..50 {
            assert_eq!(warm.run(&p).unwrap_err(), spread, "{mode:?} run {run}");
        }
    }
}
