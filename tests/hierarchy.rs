//! Cross-crate integration: the full thread hierarchy with LITL-X
//! constructs on the native runtime, and the hierarchy on the simulated
//! machine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm::core::{Htvm, HtvmConfig};
use htvm::litlx::atomic::AtomicDomain;
use htvm::litlx::dataflow::FeRegion;
use htvm::litlx::future::future_on;

mod common;

#[test]
fn three_level_hierarchy_composes() {
    let htvm = Htvm::new(HtvmConfig::with_workers(4));
    let total = Arc::new(AtomicU64::new(0));
    // 2 LGTs × 8 SGTs × TGT graph of 4 fibers, each fiber contributes 1.
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let total = total.clone();
            htvm.lgt(move |lgt| {
                for _ in 0..8 {
                    let total = total.clone();
                    lgt.spawn_sgt(move |sgt| {
                        let mut g = sgt.tgt_graph(4);
                        let a = g.fiber(|c| c.frame.set(0, 1));
                        let b = g.fiber(|c| c.frame.set(1, 1));
                        let d = g.fiber(|c| c.frame.set(2, 1));
                        let j = g.fiber(|c| {
                            c.frame
                                .set(3, c.frame.get(0) + c.frame.get(1) + c.frame.get(2) + 1)
                        });
                        g.depends(j, a);
                        g.depends(j, b);
                        g.depends(j, d);
                        let frame = g.run();
                        total.fetch_add(frame.get(3), Ordering::Relaxed);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert_eq!(total.load(Ordering::Relaxed), 2 * 8 * 4);
}

#[test]
fn futures_and_atomics_inside_lgt() {
    let htvm = Htvm::new(HtvmConfig::with_workers(4));
    let dom = Arc::new(AtomicDomain::new(htvm_core::SharedRegion::new(4), 2));
    let h = htvm.lgt({
        let dom = dom.clone();
        move |lgt| {
            dom.region().write(0, 500);
            let f = future_on(lgt, |_| 42u64);
            for _ in 0..100 {
                let dom = dom.clone();
                lgt.spawn_sgt(move |_| {
                    dom.transfer(0, 1, 5);
                });
            }
            let dom2 = dom.clone();
            f.and_then(move |v| {
                dom2.region().write(2, *v);
            });
        }
    });
    h.join();
    assert_eq!(dom.region().read(0) + dom.region().read(1), 500);
    assert_eq!(dom.region().read(2), 42);
}

#[test]
fn fe_region_synchronizes_producer_consumer_sgts() {
    let htvm = Htvm::new(HtvmConfig::with_workers(4));
    let fe = Arc::new(FeRegion::new(16));
    let got = Arc::new(AtomicU64::new(0));
    let h = htvm.lgt({
        let fe = fe.clone();
        let got = got.clone();
        move |lgt| {
            // Consumers first (deferred reads park at the words).
            for i in 0..16usize {
                let fe = fe.clone();
                let got = got.clone();
                lgt.spawn_sgt(move |_| {
                    let got = got.clone();
                    fe.read_when_full(i, move |v| {
                        got.fetch_add(v, Ordering::Relaxed);
                    });
                });
            }
            // Producers fill.
            for i in 0..16usize {
                let fe = fe.clone();
                lgt.spawn_sgt(move |_| {
                    fe.write_full(i, i as u64 + 1);
                });
            }
        }
    });
    h.join();
    assert_eq!(got.load(Ordering::Relaxed), (1..=16).sum::<u64>());
}

#[test]
fn simulated_hierarchy_runs_to_completion() {
    use htvm::core::simrt::run_lgt_fanout;
    use htvm::sim::{compute_task, Engine, MachineConfig, SimThread};

    let mut e = Engine::new(MachineConfig::c64());
    let kernels: Vec<Box<dyn SimThread>> = (0..160)
        .map(|_| Box::new(compute_task(5_000)) as Box<dyn SimThread>)
        .collect();
    let stats = run_lgt_fanout(&mut e, 0, kernels);
    assert_eq!(stats.tasks_completed, 161);
    // 160 equal kernels on 160 units: near-perfect overlap means makespan
    // far below the serial sum.
    assert!(
        stats.now < 5_000 * 40,
        "makespan {} suggests no parallelism",
        stats.now
    );
}

#[test]
fn work_stealing_is_migration() {
    // The paper's "dynamic load adaptation": skewed spawning must migrate
    // via steals on the native pool.
    common::await_parallel_host();
    let htvm = Htvm::new(HtvmConfig::with_workers(4));
    let h = htvm.lgt(|lgt| {
        for _ in 0..200 {
            lgt.spawn_sgt(|_| {
                std::hint::black_box(htvm_apps::workloads::spin_work(20_000));
            });
        }
    });
    h.join();
    let multicore = common::multicore();
    let stats = htvm.pool_stats();
    assert!(
        stats.total_stolen() > 0 || !multicore,
        "no migration happened"
    );
    assert!(
        stats.imbalance() < 1.5 || !multicore,
        "imbalance {} too high with stealing on",
        stats.imbalance()
    );
}
