//! E1–E5: machine-level experiments on the simulated HEC substrate.

use htvm_core::simrt::{SignalAlloc, SpawnPing};
use htvm_sim::{
    strided_kernel, Engine, GAddr, MachineConfig, Placement, SignalId, SimThread, SpawnClass,
};
use litlx::parcel::compare_strategies;
use litlx::percolate::{PercolateKernel, PercolationPlan};

use super::Scale;
use crate::table::{f2, Table};

/// E1 — latency tolerance via hardware multithreading (paper §1, §3.2).
///
/// Sweep hardware threads per unit × DRAM latency scale; the figure of
/// merit is throughput (accesses per kilocycle) of one unit running that
/// many memory-bound kernels. A second column group uses an OS-weight
/// context-switch cost to reproduce the paper's argument for in-stream
/// switching.
pub fn e1_latency_tolerance(scale: Scale) -> Table {
    let mut t = Table::new(
        "E1 latency tolerance: throughput vs hw threads × DRAM latency",
        &[
            "hw_threads",
            "lat_scale",
            "accesses/kcyc (in-stream)",
            "accesses/kcyc (os-switch)",
            "utilization",
        ],
    );
    let hw_sweep: Vec<u16> = scale.pick(vec![1, 2, 4, 8], vec![1, 2, 4, 8, 12, 16]);
    let lat_sweep: Vec<f64> = scale.pick(vec![1.0, 8.0], vec![1.0, 4.0, 8.0, 16.0]);
    let iters = scale.pick(60, 400);
    for &lat in &lat_sweep {
        for &hw in &hw_sweep {
            let run = |switch_cost: u64| {
                let mut cfg = MachineConfig::small();
                cfg.units_per_node = 1;
                cfg.hw_threads_per_unit = hw;
                cfg.switch_cost = switch_cost;
                let mut e = Engine::new(cfg);
                e.memory_mut().set_dram_latency_scale(lat);
                for k in 0..hw as u64 {
                    let kern = strided_kernel(iters, 10, GAddr::dram(0, k * (1 << 20)), 64, 8);
                    e.spawn(Placement::Unit(0, 0), SpawnClass::Sgt, Box::new(kern));
                }
                let s = e.run();
                (
                    s.total_accesses() as f64 / (s.now.max(1) as f64 / 1000.0),
                    s.utilization(1),
                )
            };
            let (instream, util) = run(4);
            let (os, _) = run(2_000);
            t.row(&[
                hw.to_string(),
                format!("{lat:.0}x"),
                f2(instream),
                f2(os),
                f2(util),
            ]);
        }
    }
    t
}

/// E2 — parcels vs remote loads vs bulk fetch (paper §3.2): cycles as the
/// reduced block grows; the crossover shows when moving work to data wins.
pub fn e2_parcels(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2 parcels: remote reduce, cycles by strategy vs block size",
        &["elems", "remote_loads", "bulk_fetch", "parcel", "winner"],
    );
    let sizes: Vec<u64> = scale.pick(vec![4, 64, 1024], vec![4, 16, 64, 256, 1024, 4096, 8192]);
    for &elems in &sizes {
        let (loads, bulk, parcel) = compare_strategies(
            || {
                let mut cfg = MachineConfig::small();
                cfg.nodes = 2;
                Engine::new(cfg)
            },
            elems,
            2,
        );
        let winner = if parcel <= loads && parcel <= bulk {
            "parcel"
        } else if bulk <= loads {
            "bulk"
        } else {
            "loads"
        };
        t.row(&[
            elems.to_string(),
            loads.to_string(),
            bulk.to_string(),
            parcel.to_string(),
            winner.to_string(),
        ]);
    }
    t
}

/// E3 — futures with localized buffering vs global barriers (paper §3.2).
///
/// A `stages × items` pipeline with skewed item costs, on the native
/// runtime: the barrier version synchronizes all items between stages; the
/// future version lets each item flow ahead through `and_then` chains.
pub fn e3_futures(scale: Scale) -> Table {
    use htvm_apps::workloads::spin_work;
    use htvm_core::{Htvm, HtvmConfig, Topology};
    use litlx::future::LitlFuture;

    let items = scale.pick(6usize, 12);
    let stages = scale.pick(6usize, 12);
    let workers = 4usize;
    let unit = scale.pick(30_000u64, 150_000);
    // Pseudo-random per-(item, stage) cost: the stage maximum moves around,
    // which is exactly what makes global barriers pay and futures win.
    let cost = move |i: usize, s: usize| -> u64 { unit * (1 + ((i * 7 + s * 13) % 16) as u64) };

    let mut t = Table::new(
        "E3 futures vs barrier pipeline (native runtime)",
        &["variant", "wall_us", "speedup_vs_barrier"],
    );

    // Barrier variant: one SGT per item per stage; a full join (the global
    // synchronization point the paper complains about) between stages.
    let barrier_us = {
        let htvm = Htvm::new(HtvmConfig::with_topology(Topology::flat(workers)));
        let start = std::time::Instant::now();
        for s in 0..stages {
            let h = htvm.lgt(move |lgt| {
                for i in 0..items {
                    lgt.spawn_sgt(move |_| {
                        std::hint::black_box(spin_work(cost(i, s) / 8));
                    });
                }
            });
            h.join();
        }
        start.elapsed().as_micros() as f64
    };

    // Future variant: each item's stages form an independent dataflow
    // chain resolved into a future; no cross-item synchronization.
    let future_us = {
        let htvm = Htvm::new(HtvmConfig::with_topology(Topology::flat(workers)));
        let start = std::time::Instant::now();
        let done: Vec<LitlFuture<u64>> = (0..items).map(|_| LitlFuture::unresolved()).collect();
        let h = htvm.lgt({
            let done = done.clone();
            move |lgt| {
                for (i, fut) in done.iter().enumerate() {
                    let fut = fut.clone();
                    lgt.spawn_sgt(move |_| {
                        let mut acc = 0u64;
                        for s in 0..stages {
                            acc += std::hint::black_box(spin_work(cost(i, s) / 8)) as u64 + 1;
                        }
                        fut.resolve(acc);
                    });
                }
            }
        });
        h.join();
        for f in &done {
            f.force();
        }
        start.elapsed().as_micros() as f64
    };

    t.row(&["barrier".to_string(), f2(barrier_us), f2(1.0)]);
    t.row(&[
        "futures".to_string(),
        f2(future_us),
        f2(barrier_us / future_us.max(1.0)),
    ]);
    t
}

/// E4 — percolation: stall reduction vs prestage depth (paper §3.2).
pub fn e4_percolation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4 percolation: makespan vs prestage depth",
        &["depth", "cycles", "speedup_vs_demand", "accesses"],
    );
    let tiles = scale.pick(16u64, 64);
    let depths: Vec<u64> = scale.pick(vec![0, 1, 2, 4], vec![0, 1, 2, 3, 4, 6, 8]);
    let mut demand = 0u64;
    for &depth in &depths {
        let mut cfg = MachineConfig::small();
        cfg.hw_threads_per_unit = 16;
        let mut e = Engine::new(cfg);
        let plan = PercolationPlan {
            src_base: GAddr::dram(0, 0),
            tile_bytes: 4096,
            tiles,
            compute_per_tile: 120,
            depth,
        };
        let k = PercolateKernel::new(plan, SignalId(500));
        e.spawn(Placement::Unit(0, 0), SpawnClass::Sgt, Box::new(k));
        let s = e.run();
        if depth == 0 {
            demand = s.now;
        }
        t.row(&[
            depth.to_string(),
            s.now.to_string(),
            f2(demand as f64 / s.now.max(1) as f64),
            s.total_accesses().to_string(),
        ]);
    }
    t
}

/// E5 — invocation/management cost of the three thread grains (paper
/// §3.1.1's cost ordering), on the simulated machine.
pub fn e5_spawn_costs(scale: Scale) -> Table {
    let mut t = Table::new(
        "E5 thread-grain costs: spawn+join round trip by class",
        &["class", "cycles/spawn", "vs_tgt"],
    );
    let reps = scale.pick(20u64, 200);
    let mut tgt_cost = 1f64;
    for (class, name) in [
        (SpawnClass::Tgt, "TGT (fiber)"),
        (SpawnClass::Sgt, "SGT (threaded call)"),
        (SpawnClass::Lgt, "LGT (coarse thread)"),
    ] {
        let mut e = Engine::new(MachineConfig::small());
        let mut sigs = SignalAlloc::new();
        let sig = sigs.fresh();
        e.spawn(
            Placement::Unit(0, 0),
            SpawnClass::Lgt,
            Box::new(SpawnPing::new(class, reps as usize, sig)),
        );
        let s = e.run();
        let per = s.now as f64 / reps as f64;
        if class == SpawnClass::Tgt {
            tgt_cost = per;
        }
        t.row(&[name.to_string(), f2(per), f2(per / tgt_cost)]);
    }
    t
}

/// E5b — native-pool park/wake costs, the other half of the spawn story:
/// E5 prices the *grain* of a spawn on the simulated substrate; this
/// prices the *wakeup* on the real pool. Workers park indefinitely in the
/// per-domain sleeper registry, so the interesting numbers are the
/// spawn-to-first-execution latency against a fully parked pool (one
/// targeted futex wake on the critical path) and the idle cost once
/// everything has parked — which must be zero: no periodic self-wakes
/// (`idle_reparks/s`), no spurious wakes (`idle_wakes`).
pub fn e5b_native_spawn(scale: Scale) -> Table {
    use htvm_core::{Pool, Topology};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let mut t = Table::new(
        "E5b native pool: spawn→exec wake latency and idle cost",
        &[
            "topology",
            "spawn_exec_us_p50",
            "parks",
            "wakes_targeted",
            "wakes_escalated",
            "idle_reparks_per_s",
            "idle_wakes",
        ],
    );
    // A timed-out park wait would silently corrupt both measurements
    // (cold spawns against a warm pool, an idle baseline snapshotted
    // mid-settle); fail loudly so the report can't mis-blame the
    // protocol.
    let wait_parked = |pool: &Pool| {
        assert!(
            pool.wait_fully_parked(Duration::from_secs(10)),
            "pool never fully parked; host too loaded to measure idle cost"
        );
    };
    let reps = scale.pick(30u64, 200);
    for (name, topo) in [
        ("flat-4".to_string(), Topology::flat(4)),
        ("2x2".to_string(), Topology::domains(2, 2)),
    ] {
        let pool = Pool::with_topology(topo);
        let mut lat_us: Vec<f64> = Vec::with_capacity(reps as usize);
        for _ in 0..reps {
            // Cold spawn: measure against a fully parked pool so the wake
            // is on the critical path.
            wait_parked(&pool);
            let nanos = Arc::new(AtomicU64::new(0));
            let n2 = nanos.clone();
            let t0 = Instant::now();
            pool.spawn(move |_| {
                n2.store(t0.elapsed().as_nanos() as u64 + 1, Ordering::SeqCst);
            });
            // Yield, don't spin: a hard spin on a single-CPU host starves
            // the woken worker of the core and measures the scheduler
            // quantum instead of the wake.
            while nanos.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            lat_us.push((nanos.load(Ordering::SeqCst) - 1) as f64 / 1e3);
            pool.wait_quiescent();
        }
        lat_us.sort_by(|a, b| a.total_cmp(b));
        let p50 = lat_us[lat_us.len() / 2];
        // Idle watch: once parked, the pool must stay silent.
        wait_parked(&pool);
        let before = pool.stats();
        let window = Duration::from_millis(scale.pick(40, 150));
        std::thread::sleep(window);
        let after = pool.stats();
        let reparks_per_s = (after.parks - before.parks) as f64 / window.as_secs_f64();
        t.row(&[
            name,
            f2(p50),
            after.parks.to_string(),
            after.wakes_targeted.to_string(),
            after.wakes_escalated.to_string(),
            f2(reparks_per_s),
            (after.total_wakes() - before.total_wakes()).to_string(),
        ]);
    }
    t
}

/// E5c — the price of one queue operation on the scheduling spine:
/// owner push/pop, thief steal, injector publish and batch-steal, for
/// the lock-free spine (`htvm_core::deque`) against the mutex-shim
/// baseline (`crossbeam::deque`, the `Mutex<VecDeque>` vendor shim the
/// pool ran on before the spine landed).
///
/// The `stealers` column is the number of concurrent thieves raiding the
/// queue — 1/2/4, standing in for the workers of a 1/2/4-domain
/// topology all converging on one victim. Owner ops and injector pushes
/// are single-threaded by construction (the deque has one owner; a
/// spawner publishes alone), so those rows show `-`.
///
/// This table is the microbenchmark twin of the `deque` criterion bench
/// and the queue-level decomposition of `pool_spawn_to_exec` in the
/// `spawn_costs` bench: all three measure the same code the pool runs in
/// `native::find_work` / `Pool::spawn_batch_in`.
pub fn e5c_queue_ops(scale: Scale) -> Table {
    use htvm_core::deque as lf;
    use std::sync::Arc;
    use std::time::Instant;

    let mut t = Table::new(
        "E5c queue ops: ns/op, mutex shim vs lock-free spine",
        &["op", "stealers", "mutex_ns", "lockfree_ns", "speedup"],
    );
    let n = scale.pick(40_000u64, 400_000);

    // Owner push+pop round trips on a warmed deque (the spawn-side hot
    // path: a worker pushing then LIFO-popping its own children).
    let push_pop_mutex = {
        let w = crossbeam::deque::Worker::new_lifo();
        let t0 = Instant::now();
        for i in 0..n {
            w.push(i);
            if i % 8 == 7 {
                for _ in 0..8 {
                    std::hint::black_box(w.pop());
                }
            }
        }
        while w.pop().is_some() {}
        t0.elapsed().as_nanos() as f64 / (2 * n) as f64
    };
    let push_pop_lf = {
        let w = lf::Worker::new_lifo();
        let t0 = Instant::now();
        for i in 0..n {
            w.push(i);
            if i % 8 == 7 {
                for _ in 0..8 {
                    std::hint::black_box(w.pop());
                }
            }
        }
        while w.pop().is_some() {}
        t0.elapsed().as_nanos() as f64 / (2 * n) as f64
    };
    t.row(&[
        "deque push+pop".to_string(),
        "-".to_string(),
        f2(push_pop_mutex),
        f2(push_pop_lf),
        f2(push_pop_mutex / push_pop_lf.max(1e-9)),
    ]);

    // Thief steals draining a pre-filled deque, 1/2/4 concurrent thieves
    // (ns per successfully stolen job, wall-clock over the full drain).
    // Thieves are spawned *before* the clock starts and released by a
    // start flag, so 1–4 thread-creation costs never dilute the per-op
    // numbers toward parity. A quick drain lasts about a millisecond, so
    // one timing mostly measures whether the OS happened to run the
    // thieves side by side: each side is drained `DRAIN_REPS` times,
    // alternating with the other, and reports its median.
    const DRAIN_REPS: usize = 5;
    let median = |mut ns: Vec<f64>| {
        ns.sort_by(f64::total_cmp);
        ns[ns.len() / 2]
    };
    for thieves in [1usize, 2, 4] {
        let items = scale.pick(8_000u64, 60_000);
        let drain_mutex = || {
            let w = crossbeam::deque::Worker::new_lifo();
            for i in 0..items {
                w.push(i);
            }
            let taken = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let start = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let handles: Vec<_> = (0..thieves)
                .map(|_| {
                    let s = w.stealer();
                    let taken = taken.clone();
                    let start = start.clone();
                    std::thread::spawn(move || {
                        // Yield, don't spin: on a single-CPU host a hard
                        // spin here would burn a scheduler quantum inside
                        // the timed window.
                        while start.load(std::sync::atomic::Ordering::Acquire) == 0 {
                            std::thread::yield_now();
                        }
                        loop {
                            match s.steal() {
                                crossbeam::deque::Steal::Success(v) => {
                                    std::hint::black_box(v);
                                    taken.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                                _ => return,
                            }
                        }
                    })
                })
                .collect();
            let t0 = Instant::now();
            start.store(1, std::sync::atomic::Ordering::Release);
            for h in handles {
                let _ = h.join();
            }
            let ns = t0.elapsed().as_nanos() as f64 / items as f64;
            assert_eq!(
                taken.load(std::sync::atomic::Ordering::Relaxed),
                items,
                "mutex drain lost jobs"
            );
            ns
        };
        let drain_lf = || {
            let w = lf::Worker::new_lifo();
            for i in 0..items {
                w.push(i);
            }
            let taken = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let start = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let handles: Vec<_> = (0..thieves)
                .map(|_| {
                    let s = w.stealer();
                    let taken = taken.clone();
                    let start = start.clone();
                    std::thread::spawn(move || {
                        // Yield, don't spin: on a single-CPU host a hard
                        // spin here would burn a scheduler quantum inside
                        // the timed window.
                        while start.load(std::sync::atomic::Ordering::Acquire) == 0 {
                            std::thread::yield_now();
                        }
                        // Pin once around the drain, exactly as the
                        // pool's `find_work` pins once around its steal
                        // sweep: each steal inside skips the epoch
                        // publication fence.
                        let _pin = lf::pin();
                        loop {
                            match s.steal() {
                                lf::Steal::Success(v) => {
                                    std::hint::black_box(v);
                                    taken.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                                lf::Steal::Retry => continue,
                                lf::Steal::Empty => return,
                            }
                        }
                    })
                })
                .collect();
            let t0 = Instant::now();
            start.store(1, std::sync::atomic::Ordering::Release);
            for h in handles {
                let _ = h.join();
            }
            let ns = t0.elapsed().as_nanos() as f64 / items as f64;
            assert_eq!(
                taken.load(std::sync::atomic::Ordering::Relaxed),
                items,
                "lock-free drain lost jobs"
            );
            ns
        };
        let (mut mutex_ns, mut lf_ns) = (Vec::new(), Vec::new());
        for _ in 0..DRAIN_REPS {
            mutex_ns.push(drain_mutex());
            lf_ns.push(drain_lf());
        }
        let (drain_mutex, drain_lf) = (median(mutex_ns), median(lf_ns));
        t.row(&[
            "deque steal".to_string(),
            thieves.to_string(),
            f2(drain_mutex),
            f2(drain_lf),
            f2(drain_mutex / drain_lf.max(1e-9)),
        ]);
    }

    // Injector batch publish, per job — the `spawn_batch_in` path. The
    // shim has no batch API, so its side pays one lock round-trip per
    // job (exactly what the pool paid before the spine landed); the
    // lock-free side claims each segment's share of the run with a
    // single `fetch_add`.
    let batch64 = 64u64;
    let rounds = n / batch64;
    let inj_pub_mutex = {
        let inj = crossbeam::deque::Injector::new();
        let t0 = Instant::now();
        for r in 0..rounds {
            for i in 0..batch64 {
                inj.push(r * batch64 + i);
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / (rounds * batch64) as f64;
        while inj.steal().success().is_some() {}
        ns
    };
    let inj_pub_lf = {
        let inj = lf::Injector::new();
        let t0 = Instant::now();
        for r in 0..rounds {
            inj.push_batch((r * batch64..(r + 1) * batch64).collect());
        }
        let ns = t0.elapsed().as_nanos() as f64 / (rounds * batch64) as f64;
        while inj.steal().success().is_some() {}
        ns
    };
    t.row(&[
        "injector batch-publish x64".to_string(),
        "-".to_string(),
        f2(inj_pub_mutex),
        f2(inj_pub_lf),
        f2(inj_pub_mutex / inj_pub_lf.max(1e-9)),
    ]);

    // Batched injector drain into a thief's deque (the `find_work`
    // domain-injector pickup): one steal_batch_and_pop claims a run.
    let batch_items = scale.pick(8_000u64, 60_000);
    let batch_mutex = {
        let inj = crossbeam::deque::Injector::new();
        for i in 0..batch_items {
            inj.push(i);
        }
        let dest = crossbeam::deque::Worker::new_lifo();
        let t0 = Instant::now();
        let mut got = 0u64;
        while inj.steal_batch_and_pop(&dest).success().is_some() {
            got += 1;
            while dest.pop().is_some() {
                got += 1;
            }
        }
        assert_eq!(got, batch_items);
        t0.elapsed().as_nanos() as f64 / batch_items as f64
    };
    let batch_lf = {
        let inj = lf::Injector::new();
        inj.push_batch((0..batch_items).collect());
        let dest = lf::Worker::new_lifo();
        let t0 = Instant::now();
        let mut got = 0u64;
        while inj.steal_batch_and_pop(&dest).success().is_some() {
            got += 1;
            while dest.pop().is_some() {
                got += 1;
            }
        }
        assert_eq!(got, batch_items);
        t0.elapsed().as_nanos() as f64 / batch_items as f64
    };
    t.row(&[
        "injector batch-steal".to_string(),
        "1".to_string(),
        f2(batch_mutex),
        f2(batch_lf),
        f2(batch_mutex / batch_lf.max(1e-9)),
    ]);
    t
}

/// Helper: a boxed strided kernel (shared by benches).
pub fn mem_kernel(iters: u64, compute: u64, offset: u64) -> Box<dyn SimThread> {
    Box::new(strided_kernel(
        iters,
        compute,
        GAddr::dram(0, offset),
        64,
        8,
    ))
}
