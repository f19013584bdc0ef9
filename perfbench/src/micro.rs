//! Isolated microbenchmarks of single layers, reported beside the
//! in-situ numbers of the traced run. Every figure is the median of
//! several repetitions; every pool is `Topology::domains(2, 1)`.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htvm_core::deque::{Injector, Worker};
use htvm_core::{AdmissionQueue, DomainId, Htvm, HtvmConfig, Pool, Topology, WorkerCtx};
use htvm_serve::Wdrr;

use crate::report::Report;
use crate::stats::{median_of, pct};

fn topo() -> Topology {
    Topology::domains(2, 1)
}

/// Per-operation ns of `ops` operations done by `f`, median of `reps`.
fn ns_per_op(reps: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    median_of(reps, || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e9 / ops as f64
    })
}

/// External `Pool::spawn` until the body starts, `n` times, µs each.
fn spawn_to_start_us(pool: &Pool, n: usize, parked: bool) -> Vec<f64> {
    let clock = Instant::now();
    (0..n)
        .map(|_| {
            if parked {
                pool.wait_fully_parked(Duration::from_secs(1));
            }
            let started = Arc::new(AtomicU64::new(0));
            let s = started.clone();
            let t = Instant::now();
            pool.spawn(move |_| {
                s.store(clock.elapsed().as_nanos() as u64 + 1, Ordering::Release);
            });
            let at = loop {
                let v = started.load(Ordering::Acquire);
                if v != 0 {
                    break v;
                }
                std::hint::spin_loop();
            };
            (at - 1).saturating_sub((t - clock).as_nanos() as u64) as f64 / 1e3
        })
        .collect()
}

/// A self-respawning chain of short jobs through the global injector:
/// keeps workers awake so a spawn finds a busy pool.
fn chain(ctx: &WorkerCtx, stop: Arc<AtomicBool>) {
    for i in 0..256u64 {
        black_box(i);
    }
    if !stop.load(Ordering::Relaxed) {
        ctx.spawn_global(move |c| chain(c, stop));
    }
}

/// Run every microbenchmark and record its metric.
pub fn run(r: &mut Report) {
    let pool = Pool::with_topology(topo());
    let parked = spawn_to_start_us(&pool, 200, true);
    r.put("pool.spawn_start_us.parked", pct(&parked, 0.5), "us");
    {
        let stop = Arc::new(AtomicBool::new(false));
        for _ in 0..2 {
            let stop = stop.clone();
            pool.spawn(move |c| chain(c, stop));
        }
        let busy = spawn_to_start_us(&pool, 2000, false);
        stop.store(true, Ordering::Relaxed);
        pool.wait_quiescent();
        r.put("pool.spawn_start_us.busy", pct(&busy, 0.5), "us");
    }
    r.put(
        "pool.spawn_call_ns",
        ns_per_op(11, 1000, || {
            for _ in 0..1000 {
                pool.spawn(|_| {});
            }
        }),
        "ns",
    );
    pool.wait_quiescent();
    r.put(
        "pool.batch64_call_ns",
        ns_per_op(11, 100, || {
            for _ in 0..100 {
                pool.spawn_batch_in((0..64u64).map(|k| (DomainId(k % 2), |_: &WorkerCtx| {})));
            }
        }),
        "ns",
    );
    pool.wait_quiescent();
    drop(pool);

    let q = AdmissionQueue::new(1024);
    r.put(
        "admission.push_pop_ns",
        ns_per_op(11, 10_000, || {
            for i in 0..10_000u64 {
                let _ = q.try_push(i);
                black_box(q.pop());
            }
        }),
        "ns",
    );

    let mut drr = Wdrr::new(4);
    for (k, w) in [1u64, 2, 4].into_iter().enumerate() {
        drr.ensure(k, w);
    }
    // Queue depths of three always-backlogged tenants of unit-cost
    // requests.
    let depth: Vec<Cell<u64>> = (0..3).map(|_| Cell::new(0)).collect();
    let mut grants = 0u64;
    let round_ns = median_of(11, || {
        for d in &depth {
            d.set(100_000);
        }
        let t = Instant::now();
        let mut g = 0u64;
        for _ in 0..1000 {
            g += drr.round(
                64,
                |k| (depth[k].get() > 0).then_some(1),
                |k| depth[k].set(depth[k].get() - 1),
            );
        }
        grants = g;
        t.elapsed().as_secs_f64() * 1e9 / g.max(1) as f64
    });
    assert!(grants > 0, "the weighted round granted nothing");
    r.put("drr.round_ns_per_grant", round_ns, "ns");

    let w: Worker<u64> = Worker::new_lifo();
    r.put(
        "deque.push_pop_ns",
        ns_per_op(11, 10_000, || {
            for i in 0..10_000u64 {
                w.push(i);
                black_box(w.pop());
            }
        }),
        "ns",
    );
    let s = w.stealer();
    r.put(
        "deque.steal_ns",
        median_of(11, || {
            for i in 0..1000u64 {
                w.push(i);
            }
            let t = Instant::now();
            for _ in 0..1000 {
                black_box(s.steal().success());
            }
            t.elapsed().as_secs_f64() * 1e9 / 1000.0
        }),
        "ns",
    );
    let inj: Injector<u64> = Injector::new();
    r.put(
        "injector.push_batch64_ns",
        median_of(11, || {
            let batches: Vec<Vec<u64>> = (0..100).map(|_| (0..64).collect()).collect();
            let t = Instant::now();
            for b in batches {
                inj.push_batch(b);
            }
            let ns = t.elapsed().as_secs_f64() * 1e9 / 100.0;
            while inj.steal().success().is_some() {}
            ns
        }),
        "ns",
    );
    let dest: Worker<u64> = Worker::new_lifo();
    r.put(
        "injector.steal_batch_ns",
        median_of(11, || {
            for _ in 0..100 {
                inj.push_batch((0..64).collect());
            }
            let t = Instant::now();
            let mut calls = 0u64;
            while inj.steal_batch_and_pop(&dest).success().is_some() {
                calls += 1;
            }
            let ns = t.elapsed().as_secs_f64() * 1e9 / calls.max(1) as f64;
            while dest.pop().is_some() {}
            ns
        }),
        "ns",
    );

    let htvm = Htvm::new(HtvmConfig::with_topology(topo()));
    r.put(
        "lgt.spawn_join_us",
        median_of(11, || {
            let t = Instant::now();
            for _ in 0..100 {
                htvm.lgt(|_| {}).join();
            }
            t.elapsed().as_secs_f64() * 1e6 / 100.0
        }),
        "us",
    );
    r.put(
        "sgt.fanout_ns_per_sgt",
        median_of(11, || {
            let t = Instant::now();
            htvm.lgt(|l| {
                for _ in 0..1024 {
                    l.spawn_sgt(|_| {});
                }
            })
            .join();
            t.elapsed().as_secs_f64() * 1e9 / 1024.0
        }),
        "ns",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_microbenchmark_reports_a_finite_positive_figure() {
        let mut r = Report::default();
        run(&mut r);
        assert_eq!(r.metrics.len(), 12);
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
}
