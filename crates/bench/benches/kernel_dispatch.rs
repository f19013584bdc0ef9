//! Criterion bench for LITL-X kernel dispatch: the same lowered nest
//! executed point-at-a-time on the register tape (`Kernel::execute`),
//! run-at-a-time on the strip-mined tape (`CompiledKernel` with the
//! `tape` plan), run-at-a-time through a monomorphized loop (`dot-accum`
//! / `fma-map`), and as one tile (`CompiledKernel::execute_tile`, what
//! one SSP group calls). Divide the per-iteration time by the point
//! count in the benchmark name to get per-point ns — the quantity the
//! `e18` report rows track at full scale.
//!
//! The `run_tape` matmul variant multiplies by a constant so the body
//! stays off the monomorphized shapes (5 body instructions): it does one
//! extra multiply per point versus the `compiled` variant, which is noise
//! next to the dispatch overhead being measured. Its `c[..] +=` is the
//! only access to `c`, so its tape runs 64-point strips, as do the `init`
//! rows (`a[i] = i % 7 + 1`, the served matmul's init loops).

use criterion::{criterion_group, criterion_main, Criterion};
use htvm_core::SharedRegion;
use litlx::lang::{compile, lower_forall, parse, CompiledKernel, Expr, LoweredForall, Stmt, Value};

const N: usize = 24;

/// Lower the first `forall` of `main` with literal bounds.
fn lower_src(src: &str, bindings: &[(&str, Value)]) -> LoweredForall {
    let p = parse(src).unwrap();
    let main = p.get_fn("main").unwrap();
    let Stmt::Forall {
        var,
        from,
        to,
        body,
        ..
    } = main
        .body
        .iter()
        .find(|s| matches!(s, Stmt::Forall { .. }))
        .unwrap()
    else {
        unreachable!()
    };
    let resolve = |name: &str| -> Option<Value> {
        bindings
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
    };
    let f = |e: &Expr| match e {
        Expr::Num(n) => *n as i64,
        _ => panic!("bench bounds must be literal"),
    };
    lower_forall(var, f(from), f(to), body, &resolve).unwrap()
}

fn matmul_src(scale: bool) -> String {
    let rhs = if scale {
        "a[i * 24 + k] * b[k * 24 + j] * 2"
    } else {
        "a[i * 24 + k] * b[k * 24 + j]"
    };
    format!(
        "fn main() {{ forall i in 0..24 {{ forall j in 0..24 {{ for k in 0..24 {{
            c[i * 24 + j] += {rhs};
        }} }} }} }}"
    )
}

fn matmul_bindings() -> Vec<(&'static str, Value)> {
    let data: Vec<f64> = (0..N * N).map(|q| (q % 7) as f64 * 0.25).collect();
    vec![
        ("a", Value::Arr(SharedRegion::from_f64(&data))),
        ("b", Value::Arr(SharedRegion::from_f64(&data))),
        ("c", Value::Arr(SharedRegion::new(N * N))),
    ]
}

/// Sequentially drive a compiled kernel over the whole nest, one
/// innermost run per (outer…) prefix — what one SSP group does.
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

fn bench_kernel_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_dispatch");

    // Point-at-a-time tape interpretation — the pre-compile hot path.
    {
        let lowered = lower_src(&matmul_src(false), &matmul_bindings());
        let kernel = lowered.kernel;
        let n = N as i64;
        g.bench_function("matmul_13824pts/point_tape", move |b| {
            b.iter(|| {
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
            })
        });
    }

    // Run-at-a-time on the optimized tape (monomorphization declined).
    {
        let lowered = lower_src(&matmul_src(true), &matmul_bindings());
        let compiled = compile(&lowered.kernel, &lowered.nest.trip_counts);
        assert_eq!(
            (compiled.info().plan, compiled.info().strip),
            ("tape", 64),
            "scaled matmul must stay generic"
        );
        let trips = lowered.nest.trip_counts.clone();
        g.bench_function("matmul_13824pts/run_tape", move |b| {
            b.iter(|| run_all(&compiled, &trips))
        });
    }

    // Run-at-a-time through the monomorphized dot-accum loop, then the
    // same kernel as one tile over the whole nest.
    {
        let lowered = lower_src(&matmul_src(false), &matmul_bindings());
        let compiled = compile(&lowered.kernel, &lowered.nest.trip_counts);
        assert_eq!(compiled.info().plan, "dot-accum");
        let trips = lowered.nest.trip_counts.clone();
        let tiled = compiled.clone();
        g.bench_function("matmul_13824pts/compiled", move |b| {
            b.iter(|| run_all(&compiled, &trips))
        });
        g.bench_function("matmul_13824pts/tile", move |b| {
            b.iter(|| tiled.execute_tile(&[], 0, N as i64).expect("proven kernel"))
        });
    }

    // The init loop on the strip-mined tape (one run of 64-point strips,
    // `i % 7` as a wrapping counter) against the per-point tape.
    let init_src = "fn main() { forall i in 0..4096 { a[i] = i % 7 + 1; } }";
    {
        let lowered = lower_src(init_src, &[("a", Value::Arr(SharedRegion::new(4096)))]);
        let kernel = lowered.kernel;
        g.bench_function("init_4096pts/point_tape", move |b| {
            b.iter(|| {
                for i in 0..4096 {
                    kernel.execute(&[i]).expect("in bounds");
                }
            })
        });
    }
    {
        let lowered = lower_src(init_src, &[("a", Value::Arr(SharedRegion::new(4096)))]);
        let compiled = compile(&lowered.kernel, &lowered.nest.trip_counts);
        assert_eq!((compiled.info().plan, compiled.info().strip), ("tape", 64));
        g.bench_function("init_4096pts/strip_tape", move |b| {
            b.iter(|| compiled.execute_tile(&[], 0, 4096).expect("proven kernel"))
        });
    }

    // The elementwise pair: tape interpretation vs the fma-map closure.
    let elt_src = "fn main() { forall i in 0..4096 { d[i] = a[i] * b[i]; } }";
    let elt_bindings = || {
        let data: Vec<f64> = (0..4096).map(|q| (q % 13) as f64 * 0.5).collect();
        vec![
            ("a", Value::Arr(SharedRegion::from_f64(&data))),
            ("b", Value::Arr(SharedRegion::from_f64(&data))),
            ("d", Value::Arr(SharedRegion::new(4096))),
        ]
    };
    {
        let lowered = lower_src(elt_src, &elt_bindings());
        let kernel = lowered.kernel;
        g.bench_function("elementwise_4096pts/point_tape", move |b| {
            b.iter(|| {
                let mut idx = [0i64; 1];
                for i in 0..4096 {
                    idx[0] = i;
                    kernel.execute(&idx).expect("in bounds");
                }
            })
        });
    }
    {
        let lowered = lower_src(elt_src, &elt_bindings());
        let compiled = compile(&lowered.kernel, &lowered.nest.trip_counts);
        assert_eq!(compiled.info().plan, "fma-map");
        g.bench_function("elementwise_4096pts/compiled", move |b| {
            b.iter(|| compiled.execute_run(&[], 0, 4096).expect("proven kernel"))
        });
    }

    g.finish();
}

/// Short sampling: these run on small shared CI hosts; the authoritative
/// comparison table is `e18` in the report binaries.
fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group!(
    name = benches;
    config = quick_config();
    targets = bench_kernel_dispatch
);
criterion_main!(benches);
