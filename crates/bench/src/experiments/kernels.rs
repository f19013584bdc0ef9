//! Kernel-dispatch microbenchmark: ns per point of each LITL-X dispatch
//! tier on the same lowered nest.
//!
//! The tiers are point-at-a-time on the register tape (`Kernel::execute`),
//! run-at-a-time on the strip-mined tape (`CompiledKernel` with the
//! `tape` plan), run-at-a-time through a monomorphized loop (`dot-accum`
//! / `fma-map`), and one tile over the whole nest
//! (`CompiledKernel::execute_tile`, what one SSP group calls). Row names
//! carry the point count of one call.
//!
//! The matmul reduction also runs at n = 48 (`matmul_110592pts`), the
//! served large geometry: its `compiled` row drives one innermost run
//! per call (never jammed), its `tile` row the whole nest as one tile,
//! where four adjacent `j` runs share one loop.
//!
//! The `run_tape` matmul variant multiplies by a constant so the body
//! stays off the monomorphized shapes (5 body instructions): it does one
//! extra multiply per point versus the `compiled` variant, which is noise
//! next to the dispatch overhead being measured. Its `c[..] +=` is the
//! only access to `c`, so its tape runs 64-point strips, as do the `init`
//! rows (`a[i] = i % 7 + 1`, the served matmul's init loops).

use std::time::Instant;

use htvm_core::SharedRegion;
use litlx::lang::{compile, lower_forall, parse, CompiledKernel, Expr, LoweredForall, Stmt, Value};

use super::Scale;
use crate::table::{f3, Table};

/// The small matmul's size.
const N: usize = 24;
/// The served large matmul's size.
const N_LARGE: usize = 48;

/// Lower the first `forall` of `main` with literal bounds.
fn lower_src(src: &str, bindings: &[(&str, Value)]) -> LoweredForall {
    let p = parse(src).unwrap();
    let main = p.get_fn("main").unwrap();
    let Some(Stmt::Forall {
        var,
        from,
        to,
        body,
        ..
    }) = main.body.iter().find(|s| matches!(s, Stmt::Forall { .. }))
    else {
        unreachable!("kernel sources start with a forall")
    };
    let resolve = |name: &str| -> Option<Value> {
        bindings
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
    };
    let f = |e: &Expr| match e {
        Expr::Num(n) => *n as i64,
        _ => panic!("kernel bounds must be literal"),
    };
    lower_forall(var, f(from), f(to), body, &resolve).unwrap()
}

fn matmul_src(n: usize, scale: bool) -> String {
    let rhs = if scale {
        format!("a[i * {n} + k] * b[k * {n} + j] * 2")
    } else {
        format!("a[i * {n} + k] * b[k * {n} + j]")
    };
    format!(
        "fn main() {{ forall i in 0..{n} {{ forall j in 0..{n} {{ for k in 0..{n} {{
            c[i * {n} + j] += {rhs};
        }} }} }} }}"
    )
}

fn matmul_bindings(n: usize) -> Vec<(&'static str, Value)> {
    let data: Vec<f64> = (0..n * n).map(|q| (q % 7) as f64 * 0.25).collect();
    vec![
        ("a", Value::Arr(SharedRegion::from_f64(&data))),
        ("b", Value::Arr(SharedRegion::from_f64(&data))),
        ("c", Value::Arr(SharedRegion::new(n * n))),
    ]
}

/// Sequentially drive a compiled kernel over the whole nest, one
/// innermost run per (outer…) prefix.
fn run_all(c: &CompiledKernel, trips: &[u64]) {
    let depth = trips.len();
    let combos: u64 = trips[..depth - 1].iter().product();
    let n_last = trips[depth - 1] as i64;
    let mut prefix = vec![0i64; depth - 1];
    for w in 0..combos {
        let mut rem = w;
        for (k, &n) in trips[..depth - 1].iter().enumerate().rev() {
            prefix[k] = (rem % n) as i64;
            rem /= n;
        }
        c.execute_run(&prefix, 0, n_last).expect("proven kernel");
    }
}

/// Time `f`, which executes `points` points per call: after one warm-up
/// call, each of `samples` samples repeats it until it has covered at
/// least `min_points`. Returns (median, min) ns per point.
fn ns_per_point(
    points: usize,
    samples: usize,
    min_points: usize,
    mut f: impl FnMut(),
) -> (f64, f64) {
    f();
    let reps = min_points.div_ceil(points).max(1);
    let mut per_point: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_nanos() as f64 / (reps * points) as f64
        })
        .collect();
    per_point.sort_by(f64::total_cmp);
    (per_point[per_point.len() / 2], per_point[0])
}

/// KERNELS — LITL-X kernel dispatch: median and best ns per point of
/// each dispatch tier, at the n = 24 and n = 48 matmul, the init map and
/// an elementwise product.
pub fn kernels(scale: Scale) -> Table {
    let mut t = Table::new(
        "KERNELS LITL-X kernel dispatch: ns per point by tier",
        &["bench", "plan", "ns/pt_p50", "ns/pt_min"],
    );
    let samples = scale.pick(5, 20);
    let min_points = scale.pick(100_000, 2_000_000);
    let mut row = |name: String, plan: &str, points: usize, f: &mut dyn FnMut()| {
        let (p50, min) = ns_per_point(points, samples, min_points, f);
        t.row(&[name, plan.to_string(), f3(p50), f3(min)]);
    };

    // Point-at-a-time tape interpretation — the pre-compile hot path.
    {
        let kernel = lower_src(&matmul_src(N, false), &matmul_bindings(N)).kernel;
        let n = N as i64;
        row(
            format!("matmul_{}pts/point_tape", N * N * N),
            "point",
            N * N * N,
            &mut || {
                let mut idx = [0i64; 3];
                for i in 0..n {
                    idx[0] = i;
                    for j in 0..n {
                        idx[1] = j;
                        for k in 0..n {
                            idx[2] = k;
                            kernel.execute(&idx).expect("in bounds");
                        }
                    }
                }
            },
        );
    }

    // Run-at-a-time on the optimized tape (monomorphization declined).
    {
        let lowered = lower_src(&matmul_src(N, true), &matmul_bindings(N));
        let compiled = compile(&lowered.kernel, &lowered.nest.trip_counts);
        assert_eq!(
            (compiled.info().plan, compiled.info().strip),
            ("tape", 64),
            "scaled matmul must stay generic"
        );
        let trips = &lowered.nest.trip_counts;
        row(
            format!("matmul_{}pts/run_tape", N * N * N),
            "tape",
            N * N * N,
            &mut || run_all(&compiled, trips),
        );
    }

    // Run-at-a-time through the monomorphized dot-accum loop, then the
    // same kernel as one tile over the whole nest, at both sizes.
    for n in [N, N_LARGE] {
        let lowered = lower_src(&matmul_src(n, false), &matmul_bindings(n));
        let compiled = compile(&lowered.kernel, &lowered.nest.trip_counts);
        let plan = compiled.info().plan;
        assert_eq!(plan, "dot-accum");
        let trips = &lowered.nest.trip_counts;
        let pts = n * n * n;
        row(format!("matmul_{pts}pts/compiled"), plan, pts, &mut || {
            run_all(&compiled, trips)
        });
        row(format!("matmul_{pts}pts/tile"), plan, pts, &mut || {
            compiled
                .execute_tile(&[], 0, n as i64)
                .expect("proven kernel")
        });
    }

    // The init loop on the strip-mined tape (one run of 64-point strips,
    // `i % 7` as a wrapping counter) against the per-point tape.
    let init_src = "fn main() { forall i in 0..4096 { a[i] = i % 7 + 1; } }";
    let init = || lower_src(init_src, &[("a", Value::Arr(SharedRegion::new(4096)))]);
    {
        let kernel = init().kernel;
        row("init_4096pts/point_tape".into(), "point", 4096, &mut || {
            for i in 0..4096 {
                kernel.execute(&[i]).expect("in bounds");
            }
        });
    }
    {
        let lowered = init();
        let compiled = compile(&lowered.kernel, &lowered.nest.trip_counts);
        assert_eq!((compiled.info().plan, compiled.info().strip), ("tape", 64));
        row("init_4096pts/strip_tape".into(), "tape", 4096, &mut || {
            compiled.execute_tile(&[], 0, 4096).expect("proven kernel")
        });
    }

    // The elementwise pair: tape interpretation vs the fma-map closure.
    let elt_src = "fn main() { forall i in 0..4096 { d[i] = a[i] * b[i]; } }";
    let elt = || {
        let data: Vec<f64> = (0..4096).map(|q| (q % 13) as f64 * 0.5).collect();
        let bindings = [
            ("a", Value::Arr(SharedRegion::from_f64(&data))),
            ("b", Value::Arr(SharedRegion::from_f64(&data))),
            ("d", Value::Arr(SharedRegion::new(4096))),
        ];
        lower_src(elt_src, &bindings)
    };
    {
        let kernel = elt().kernel;
        row(
            "elementwise_4096pts/point_tape".into(),
            "point",
            4096,
            &mut || {
                for i in 0..4096 {
                    kernel.execute(&[i]).expect("in bounds");
                }
            },
        );
    }
    {
        let lowered = elt();
        let compiled = compile(&lowered.kernel, &lowered.nest.trip_counts);
        assert_eq!(compiled.info().plan, "fma-map");
        row(
            "elementwise_4096pts/compiled".into(),
            "fma-map",
            4096,
            &mut || compiled.execute_run(&[], 0, 4096).expect("proven kernel"),
        );
    }
    t
}
