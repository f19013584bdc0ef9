//! Workload `litlx-serve`: a closed loop with one client. Each request is
//! a `NativeParcel::fallible` that runs `Interp::run` (SSP strategy,
//! compiled kernels) on one shared interpreter, submitted through an
//! `htvm_serve` tenant on a `Topology::domains(2, 1)` pool. The program is
//! the e18 matmul nest, parsed at set-up, alternating two sizes:
//!
//! * `small`, n = 12: lowering, compiling, SSP partitioning and group
//!   spawns dominate (`Interp::run` re-lowers every `forall` each run);
//! * `large`, n = 48: the compiled kernel dominates.
//!
//! The nest runs on the interpreter's own pool, not the server's:
//! `Interp` has no constructor over an existing `Pool`, and the benchmark
//! measures the product as it is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htvm_core::{Pool, SharedRegion, Topology};
use htvm_serve::{NativeParcel, Outcome, Server, ServerConfig, TenantConfig, TenantHandle};
use litlx::lang::{
    compile, lower_forall, parse, Expr, Interp, KernelMode, LoopStrategy, Program, Stmt, Value,
};

use crate::alloc;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median_of, pct};

/// The two request sizes: (label, n).
pub const SIZES: [(&str, usize); 2] = [("small", 12), ("large", 48)];

/// The e18 matmul nest for size `n`.
pub fn matmul_src(n: usize) -> String {
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

/// `sum(c)` of the nest, computed in plain Rust: the reference every
/// served answer is checked against.
pub fn matmul_reference(n: usize) -> f64 {
    let a: Vec<f64> = (0..n * n).map(|i| (i % 7 + 1) as f64).collect();
    let b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 - 1.0).collect();
    let mut sum = 0.0;
    for i in 0..n {
        for j in 0..n {
            let mut c = 0.0;
            for k in 0..n {
                c += a[i * n + k] * b[k * n + j];
            }
            sum += c;
        }
    }
    sum
}

/// A served answer is correct when the program printed exactly one line
/// and it reads as the reference sum.
pub fn check_output(printed: &[String], reference: f64) -> Result<(), String> {
    match printed {
        [line] => match line.trim().parse::<f64>() {
            Ok(v) if v == reference => Ok(()),
            Ok(v) => Err(format!("sum(c) = {v}, reference {reference}")),
            Err(_) => Err(format!("unparseable output {line:?}")),
        },
        _ => Err(format!("expected one printed line, got {printed:?}")),
    }
}

/// What the request body hands back to the client: stamps in ns since
/// the workload clock (0 = unset) and the run's counters.
#[derive(Default)]
struct Mailbox {
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    run_ns: AtomicU64,
    allocs: AtomicU64,
    ok: AtomicU64,
}

/// Everything built before the clock starts.
pub struct Env {
    tenant: TenantHandle,
    // Owns the dispatcher; dropped after the tenant.
    _server: Server,
    interp: Arc<Interp>,
    programs: Vec<Arc<Program>>,
    references: Vec<f64>,
    parse_us: f64,
    clock: Instant,
}

/// Build the pool, server, tenant and interpreter, parse both programs,
/// compute the references and run each program once (its first run
/// records the loops into the interpreter's knowledge base).
pub fn setup() -> Env {
    let pool = Arc::new(Pool::with_topology(Topology::domains(2, 1)));
    let server = Server::on_pool(pool, ServerConfig::default());
    let tenant = server.register_tenant(TenantConfig::weighted(1));
    let interp = Arc::new(
        Interp::with_topology(Topology::domains(2, 1))
            .with_strategy(LoopStrategy::Ssp)
            .with_kernel_mode(KernelMode::Compiled),
    );
    let t = Instant::now();
    let programs: Vec<Arc<Program>> = SIZES
        .iter()
        .map(|&(_, n)| Arc::new(parse(&matmul_src(n)).expect("matmul nest parses")))
        .collect();
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / SIZES.len() as f64;
    let references = SIZES.iter().map(|&(_, n)| matmul_reference(n)).collect();
    for p in &programs {
        interp.run(p).expect("warm-up run");
    }
    Env {
        tenant,
        _server: server,
        interp,
        programs,
        references,
        parse_us,
        clock: Instant::now(),
    }
}

fn ns_since(clock: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(clock).as_nanos() as u64 + 1
}

/// One served request's measurements.
struct Served {
    round_trip_us: f64,
    queue_us: f64,
    settle_us: f64,
    run_us: f64,
    allocs: u64,
}

fn serve_one(env: &Env, size: usize, r: &mut Report) -> Option<Served> {
    let mail = Arc::new(Mailbox::default());
    let parcel = {
        let interp = env.interp.clone();
        let program = env.programs[size].clone();
        let mail = mail.clone();
        let clock = env.clock;
        let reference = env.references[size];
        NativeParcel::fallible(move |_| -> Result<(), String> {
            mail.start_ns
                .store(ns_since(clock, Instant::now()), Ordering::Relaxed);
            let a0 = alloc::count();
            let t = Instant::now();
            let out = interp.run(&program)?;
            mail.run_ns
                .store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            mail.allocs.store(alloc::count() - a0, Ordering::Relaxed);
            let checked = check_output(&out.printed, reference);
            mail.ok.store(u64::from(checked.is_ok()), Ordering::Relaxed);
            mail.end_ns
                .store(ns_since(clock, Instant::now()), Ordering::Relaxed);
            checked
        })
    };
    let t0 = Instant::now();
    let handle = match env.tenant.submit(parcel) {
        Ok(h) => h,
        Err(e) => {
            r.failed += 1;
            r.note(format!("submit refused: {e}"));
            return None;
        }
    };
    let submitted = ns_since(env.clock, Instant::now());
    let outcome = handle.wait();
    let t1 = Instant::now();
    if outcome != Outcome::Completed || mail.ok.load(Ordering::Relaxed) != 1 {
        r.fail_check(1, format!("{} request: {outcome:?}", SIZES[size].0));
        return None;
    }
    let start = mail.start_ns.load(Ordering::Relaxed);
    let end = mail.end_ns.load(Ordering::Relaxed);
    Some(Served {
        round_trip_us: (t1 - t0).as_secs_f64() * 1e6,
        queue_us: start.saturating_sub(submitted) as f64 / 1e3,
        settle_us: ns_since(env.clock, t1).saturating_sub(end) as f64 / 1e3,
        run_us: mail.run_ns.load(Ordering::Relaxed) as f64 / 1e3,
        allocs: mail.allocs.load(Ordering::Relaxed),
    })
}

/// Serve small and large requests, the size of each drawn from `seed`,
/// for `span` (and until each size has `min_each` samples), check every
/// answer, and report.
///
/// End-to-end slots: `a_p50_us` = `small` round trip p50, `b_p50_us` =
/// `large` round trip p50. `litlx.req_per_s` is requests completed per
/// second.
pub fn run(env: &Env, seed: u64, span: Duration, min_each: usize, traced: bool) -> Report {
    let mut r = Report::default();
    let mut rng = Rng::new(seed);
    let mut served: Vec<Vec<Served>> = vec![Vec::new(), Vec::new()];
    let stats0 = env.interp.pool_stats();
    let t0 = Instant::now();
    let hard_stop = t0 + span * 3;
    loop {
        let now = Instant::now();
        let enough = served.iter().all(|s| s.len() >= min_each);
        if (now >= t0 + span && enough) || now >= hard_stop {
            break;
        }
        let size = rng.below(SIZES.len() as u64) as usize;
        r.attempted += 1;
        if let Some(s) = serve_one(env, size, &mut r) {
            served[size].push(s);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let done: usize = served.iter().map(Vec::len).sum();
    let rt: Vec<Vec<f64>> = served
        .iter()
        .map(|v| v.iter().map(|s| s.round_trip_us).collect())
        .collect();
    r.put("a_p50_us", pct(&rt[0], 0.5), "us");
    r.put("b_p50_us", pct(&rt[1], 0.5), "us");
    r.put("litlx.req_per_s", done as f64 / wall, "1/s");
    r.put("small_p99_us", pct(&rt[0], 0.99), "us");
    r.put("large_p99_us", pct(&rt[1], 0.99), "us");
    if traced {
        traced_metrics(env, &served, stats0, &mut r);
    }
    r
}

fn traced_metrics(env: &Env, served: &[Vec<Served>], stats0: htvm_core::PoolStats, r: &mut Report) {
    let all: Vec<&Served> = served.iter().flatten().collect();
    let queue: Vec<f64> = all.iter().map(|s| s.queue_us).collect();
    let settle: Vec<f64> = all.iter().map(|s| s.settle_us).collect();
    r.put("serve.queue_us.litlx.p50", pct(&queue, 0.5), "us");
    r.put("serve.queue_us.litlx.p99", pct(&queue, 0.99), "us");
    r.put("serve.settle_us.p50", pct(&settle, 0.5), "us");
    r.put("serve.settle_us.p99", pct(&settle, 0.99), "us");
    r.put("litlx.parse_us", env.parse_us, "us");
    for (size, &(label, _)) in SIZES.iter().enumerate() {
        let run: Vec<f64> = served[size].iter().map(|s| s.run_us).collect();
        let allocs: Vec<f64> = served[size].iter().map(|s| s.allocs as f64).collect();
        r.put(format!("litlx.run_us.{label}"), pct(&run, 0.5), "us");
        r.put(
            format!("litlx.allocs_per_run.{label}"),
            pct(&allocs, 0.5),
            "count",
        );
        // Exact per-run counters from the interpreter's own report.
        let out = env.interp.run(&env.programs[size]).expect("counter run");
        r.put(
            format!("litlx.sgt_spawns.{label}"),
            out.sgt_spawns as f64,
            "count",
        );
        r.put(
            format!("litlx.ssp_foralls.{label}"),
            out.ssp_foralls as f64,
            "count",
        );
        r.put(
            format!("litlx.ssp_compiled.{label}"),
            out.ssp_compiled as f64,
            "count",
        );
        r.put(
            format!("litlx.ssp_bailouts.{label}"),
            out.ssp_bailouts as f64,
            "count",
        );
    }
    let ps = env.interp.pool_stats().since(&stats0);
    r.put("litlx.remote_steal_ratio", ps.remote_steal_ratio(), "frac");
    let (lower_us, compile_us) = lower_and_compile_us(SIZES[0].1);
    r.put("litlx.lower_us", lower_us, "us");
    r.put("litlx.compile_us", compile_us, "us");
    r.put(
        "litlx.kernel_ns_per_point",
        kernel_ns_per_point(SIZES[1].1),
        "ns",
    );
}

/// The size-`n` program and the resolver its `forall` bodies and inner
/// bounds lower against (the variables `main` binds before its loops).
fn nests(n: usize) -> (Program, impl Fn(&str) -> Option<Value>) {
    let p = parse(&matmul_src(n)).expect("matmul nest parses");
    let data = |f: fn(usize) -> f64| {
        let v: Vec<f64> = (0..n * n).map(f).collect();
        Value::Arr(SharedRegion::from_f64(&v))
    };
    let bindings = [
        ("n", Value::Num(n as f64)),
        ("a", data(|i| (i % 7 + 1) as f64)),
        ("b", data(|i| (i % 5) as f64 - 1.0)),
        ("c", Value::Arr(SharedRegion::new(n * n))),
    ];
    let resolve = move |name: &str| {
        bindings
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.clone())
    };
    (p, resolve)
}

/// Lower and compile every `forall` of the size-`n` program in isolation;
/// median per-program time (µs) of each stage.
pub fn lower_and_compile_us(n: usize) -> (f64, f64) {
    let (p, resolve) = nests(n);
    let main = p.get_fn("main").expect("main");
    // Top-level bounds are `0..n` or `0..n * n`: evaluate them by hand.
    let bound = |e: &Expr| -> i64 {
        match e {
            Expr::Num(x) => *x as i64,
            Expr::Var(_) => n as i64,
            _ => (n * n) as i64,
        }
    };
    let foralls: Vec<_> = main
        .body
        .iter()
        .filter_map(|s| match s {
            Stmt::Forall {
                var,
                from,
                to,
                body,
                ..
            } => Some((var, bound(from), bound(to), body)),
            _ => None,
        })
        .collect();
    assert_eq!(foralls.len(), 3, "the matmul program has three foralls");
    let lower_all = || {
        foralls
            .iter()
            .map(|(v, a, b, body)| lower_forall(v, *a, *b, body, &resolve).expect("nest lowers"))
            .collect::<Vec<_>>()
    };
    let lowered = lower_all();
    let lower_us = median_of(21, || {
        let t = Instant::now();
        std::hint::black_box(lower_all());
        t.elapsed().as_secs_f64() * 1e6
    });
    let compile_us = median_of(21, || {
        let t = Instant::now();
        for l in &lowered {
            std::hint::black_box(compile(&l.kernel, &l.nest.trip_counts));
        }
        t.elapsed().as_secs_f64() * 1e6
    });
    (lower_us, compile_us)
}

/// `CompiledKernel::execute_run` over the whole size-`n` matmul nest on
/// one thread: median ns per iteration point.
pub fn kernel_ns_per_point(n: usize) -> f64 {
    let (p, resolve) = nests(n);
    let main = p.get_fn("main").expect("main");
    let Some(Stmt::Forall { var, body, .. }) = main
        .body
        .iter()
        .filter(|s| matches!(s, Stmt::Forall { .. }))
        .nth(2)
    else {
        unreachable!("the third forall is the matmul nest")
    };
    let lowered = lower_forall(var, 0, n as i64, body, &resolve).expect("matmul lowers");
    let trips = lowered.nest.trip_counts.clone();
    assert_eq!(trips.len(), 3, "i, j, k levels");
    let kernel = compile(&lowered.kernel, &trips);
    let points = trips.iter().product::<u64>() as f64;
    median_of(11, || {
        let t = Instant::now();
        for i in 0..trips[0] as i64 {
            for j in 0..trips[1] as i64 {
                kernel
                    .execute_run(&[i, j], 0, trips[2] as i64)
                    .expect("proven kernel");
            }
        }
        t.elapsed().as_secs_f64() * 1e9 / points
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_the_interpreter() {
        let interp = Interp::with_topology(Topology::domains(2, 1))
            .with_strategy(LoopStrategy::Ssp)
            .with_kernel_mode(KernelMode::Compiled);
        for (_, n) in SIZES {
            let p = parse(&matmul_src(n)).unwrap();
            let out = interp.run(&p).unwrap();
            check_output(&out.printed, matmul_reference(n)).unwrap();
        }
    }

    #[test]
    fn check_output_rejects_a_corrupted_answer() {
        let reference = matmul_reference(12);
        let good = vec![format!("{reference}")];
        assert!(check_output(&good, reference).is_ok());
        let off_by_one = vec![format!("{}", reference + 1.0)];
        assert!(check_output(&off_by_one, reference).is_err());
        assert!(check_output(&["garbage".to_string()], reference).is_err());
        assert!(check_output(&[], reference).is_err());
        assert!(check_output(&[good[0].clone(), good[0].clone()], reference).is_err());
    }

    #[test]
    fn isolated_stages_measure_something() {
        let (l, c) = lower_and_compile_us(12);
        assert!(l > 0.0 && c > 0.0);
        assert!(kernel_ns_per_point(12) > 0.0);
    }

    #[test]
    fn a_short_run_serves_correct_answers() {
        let env = setup();
        let r = run(&env, 9, Duration::from_millis(50), 3, true);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= 6);
        assert!(r.get("litlx.ssp_compiled.large").unwrap() >= 1.0);
    }
}
