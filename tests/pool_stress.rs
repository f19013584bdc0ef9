//! Park/wake protocol stress: hammer the exact races the epoch-stamped
//! sleeper registry exists to close (see `crates/core/src/native.rs`,
//! "Idle protocol").
//!
//! The dangerous window is a spawn landing between a worker's last empty
//! work search and its park. These tests drive the pool through thousands
//! of quiesce→respawn cycles — exactly the cadence that maximizes time
//! spent in that window — across every canonical topology shape, from
//! both external threads and pool workers. A protocol regression shows up
//! as a lost wakeup, which `wait_quiescent` turns into a hang: the CI
//! stress job wraps this suite in a `timeout`, so a hang fails fast
//! instead of stalling the pipeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use htvm::core::{DomainId, Pool, Topology};
use htvm::serve::{NativeParcel, Outcome, RejectReason, Server, ServerConfig, TenantConfig};

/// The four canonical topology shapes: degenerate single worker, flat
/// (singleton domains), grouped, and uneven.
fn topologies() -> [Topology; 4] {
    [
        Topology::flat(1),
        Topology::flat(4),
        Topology::domains(2, 2),
        Topology::from_sizes([1, 3]),
    ]
}

/// Repeated quiesce→respawn cycles: after every quiescence the workers
/// drift toward (or into) park, and the next burst of spawns must drag
/// them back out — thousands of crossings of the check-then-park window.
/// No job may be lost and no `wait_quiescent` may hang.
#[test]
fn quiesce_respawn_cycles_lose_no_jobs() {
    for topo in topologies() {
        let pool = Pool::with_topology(topo.clone());
        let done = Arc::new(AtomicU64::new(0));
        let mut expect = 0u64;
        for cycle in 0..400u64 {
            // Some cycles give the workers time to actually park, so both
            // the spinning and the parked flavors of idle get raced.
            if cycle % 32 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            let nd = pool.num_domains() as u64;
            for i in 0..5u64 {
                let done = done.clone();
                let job = move |_: &htvm::core::WorkerCtx| {
                    done.fetch_add(1, Ordering::Relaxed);
                };
                if i % 2 == 0 {
                    pool.spawn(job);
                } else {
                    pool.spawn_in(DomainId(i % nd), job);
                }
                expect += 1;
            }
            pool.wait_quiescent();
            assert_eq!(
                done.load(Ordering::Relaxed),
                expect,
                "topology {topo:?} lost a job in cycle {cycle}"
            );
        }
        assert_eq!(pool.stats().total_executed(), expect);
    }
}

/// External spawner threads race the workers' park entry concurrently
/// (not phase-locked like the cycle test): several producers, jittered
/// pacing, nested worker-side spawns. Everything must drain.
#[test]
fn concurrent_external_spawns_race_park_entry() {
    for topo in topologies() {
        let pool = Arc::new(Pool::with_topology(topo.clone()));
        let done = Arc::new(AtomicU64::new(0));
        let producers = 3u64;
        let bursts = 120u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let pool = pool.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    for b in 0..bursts {
                        let done = done.clone();
                        // Each burst: one external spawn fanning into two
                        // worker-side spawns (deque pushes wake a domain
                        // sibling — the third wake flavor under race).
                        pool.spawn(move |ctx| {
                            for _ in 0..2 {
                                let done = done.clone();
                                ctx.spawn(move |_| {
                                    done.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                            done.fetch_add(1, Ordering::Relaxed);
                        });
                        // Jitter the pacing so producers hit idle workers
                        // in different phases of the spin-then-park slide.
                        if (b + p) % 16 == 0 {
                            std::thread::sleep(Duration::from_micros(500));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        pool.wait_quiescent();
        assert_eq!(
            done.load(Ordering::Relaxed),
            producers * bursts * 3,
            "topology {topo:?} lost spawns under racing producers"
        );
    }
}

/// Batched domain spawns racing park entry: the batch publishes all jobs
/// before its single epoch bump, then delivers grouped wakes — the
/// protocol's only multi-wake path.
#[test]
fn batched_spawns_race_park_entry() {
    let topo = Topology::domains(2, 2);
    let pool = Pool::with_topology(topo);
    let done = Arc::new(AtomicU64::new(0));
    let mut expect = 0u64;
    for cycle in 0..300u64 {
        if cycle % 32 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let k = 1 + (cycle % 4);
        pool.spawn_batch_in((0..k).map(|g| {
            let done = done.clone();
            (DomainId(g % 2), move |_: &htvm::core::WorkerCtx| {
                done.fetch_add(1, Ordering::Relaxed);
            })
        }));
        expect += k;
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::Relaxed), expect, "cycle {cycle}");
    }
}

/// Panic-after-claim coverage for the injector: a job body unwinding
/// right after it was taken from the injector must not strand the jobs
/// queued behind it — consumption must march on past the panicking job,
/// and the pool must stay fully usable afterwards. A stranded job shows
/// up here as a lost job (`done + panics < spawned`) or a hung
/// `wait_quiescent`.
#[test]
fn panicking_jobs_do_not_strand_injector_slots() {
    let pool = Pool::with_topology(Topology::domains(2, 2));
    let done = Arc::new(AtomicU64::new(0));
    let mut spawned = 0u64;
    let mut expect_panics = 0u64;
    // Three rounds of 100 jobs, a third of them panicking, so panics
    // land at every position of the queue's batch-steal runs.
    for round in 0..3u64 {
        for i in 0..100u64 {
            let done = done.clone();
            if (i + round) % 3 == 0 {
                expect_panics += 1;
                pool.spawn(move |_| panic!("injected failure"));
            } else {
                pool.spawn(move |_| {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            spawned += 1;
        }
        pool.wait_quiescent();
        assert_eq!(
            done.load(Ordering::Relaxed) + pool.stats().panics,
            spawned,
            "a job was stranded in round {round}"
        );
    }
    assert_eq!(pool.stats().panics, expect_panics);
    // The injector must still be fully serviceable after the carnage.
    for _ in 0..64u64 {
        let done = done.clone();
        pool.spawn(move |_| {
            done.fetch_add(1, Ordering::Relaxed);
        });
        spawned += 1;
    }
    pool.wait_quiescent();
    assert_eq!(done.load(Ordering::Relaxed) + expect_panics, spawned);
}

/// The acceptance claim of the protocol change: workers park indefinitely
/// on an idle pool — no 1ms re-poll, no periodic self-wake. `parks`
/// counts park *events*, so a re-polling worker would grow it by ~1000/s;
/// a correctly parked pool holds it flat.
#[test]
fn parked_workers_stay_parked_on_an_idle_pool() {
    for topo in topologies() {
        let pool = Pool::with_topology(topo.clone());
        let workers = pool.workers() as u64;
        assert!(
            pool.wait_fully_parked(Duration::from_secs(30)),
            "topology {topo:?}: workers never parked: {:?}",
            pool.stats()
        );
        let before = pool.stats();
        assert_eq!(before.parks, workers, "each worker parks exactly once");
        // Under the deleted timed-wait protocol this window would see
        // dozens of re-parks per worker.
        std::thread::sleep(Duration::from_millis(60));
        let after = pool.stats();
        assert_eq!(
            after.parks, before.parks,
            "topology {topo:?}: a parked worker woke itself"
        );
        assert_eq!(after.total_wakes(), 0, "nothing spawned, nothing woken");
        assert_eq!(after.total_executed(), 0);
    }
}

/// After real work drains, the pool returns to full park and stays there
/// — quiescence must not leave a worker oscillating.
#[test]
fn pool_reparks_fully_after_work() {
    let pool = Pool::with_topology(Topology::domains(2, 2));
    let done = Arc::new(AtomicU64::new(0));
    for _ in 0..64 {
        let done = done.clone();
        pool.spawn(move |ctx| {
            let done = done.clone();
            ctx.spawn(move |_| {
                done.fetch_add(1, Ordering::Relaxed);
            });
        });
    }
    pool.wait_quiescent();
    assert_eq!(done.load(Ordering::Relaxed), 64);
    // Every worker ends up registered as a sleeper again (the live gauge,
    // not a counter difference — wakes can outnumber parks when a waker
    // pops a worker that registered but refused to sleep).
    assert!(
        pool.wait_fully_parked(Duration::from_secs(30)),
        "pool never re-parked fully: {:?} ({} registered)",
        pool.stats(),
        pool.parked_workers()
    );
    let settled = pool.stats();
    std::thread::sleep(Duration::from_millis(40));
    let later = pool.stats();
    assert_eq!(settled.parks, later.parks, "re-parked pool must stay still");
}

/// Serving-layer churn on the raw pool: 200 tenants join and leave
/// mid-load while a racing thread fires cancellations into the stream.
/// Afterwards the pool must drain back to a *fully parked* state with
/// no leaked sleeper tokens (parks stay flat), every handle must have
/// resolved exactly once, and the per-tenant stat slices must sum to
/// the pool's global counters — the serving layer may not lose or
/// double-count a single grain.
#[test]
fn tenant_churn_with_racing_cancels_drains_clean() {
    const CYCLES: usize = 200;
    const PER_TENANT: usize = 6;
    const LIVE_WINDOW: usize = 4;

    let pool = Arc::new(Pool::with_topology(Topology::domains(2, 2)));
    let server = Server::on_pool(
        pool.clone(),
        ServerConfig {
            max_in_flight: 8,
            ..ServerConfig::default()
        },
    );

    // The canceller races the dispatcher over tokens streamed to it.
    let (tx, rx) = std::sync::mpsc::channel::<htvm::core::CancelToken>();
    let canceller = std::thread::spawn(move || {
        let mut fired = 0u64;
        for token in rx {
            token.cancel();
            fired += 1;
        }
        fired
    });

    let ran = Arc::new(AtomicU64::new(0));
    let mut live = std::collections::VecDeque::new();
    let mut retired = Vec::new();
    for cycle in 0..CYCLES {
        let tenant = server.register_tenant(TenantConfig::weighted((cycle % 4 + 1) as u64));
        let mut handles = Vec::with_capacity(PER_TENANT);
        for i in 0..PER_TENANT {
            let ran = ran.clone();
            let h = tenant
                .submit(NativeParcel::new(move |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }))
                .expect("queue sized for one cycle's burst");
            if i % 3 == 0 {
                tx.send(h.token().clone()).unwrap();
            }
            handles.push(h);
        }
        live.push_back((tenant, handles));
        // Leave mid-load: the oldest tenant closes while its requests
        // may still be queued or in flight.
        if live.len() > LIVE_WINDOW {
            let (old, hs) = live.pop_front().unwrap();
            old.close();
            retired.push((old, hs));
        }
    }
    drop(tx);
    let cancels_fired = canceller.join().unwrap();
    assert_eq!(cancels_fired, (CYCLES * PER_TENANT).div_ceil(3) as u64);
    for (t, _) in &live {
        t.close();
    }
    retired.extend(live.drain(..));

    assert!(
        server.wait_idle(Duration::from_secs(60)),
        "serving pool never drained: {server:?}"
    );

    // Every handle resolved exactly once, and the client-visible
    // outcomes agree with the per-tenant counters bucket by bucket.
    let mut outcome_totals = htvm::serve::TenantStats::default();
    for (tenant, handles) in &retired {
        let mut completed = 0u64;
        let mut cancelled = 0u64;
        let mut closed_rejects = 0u64;
        for h in handles {
            match h.wait() {
                Outcome::Completed => completed += 1,
                Outcome::Cancelled => cancelled += 1,
                Outcome::Rejected(RejectReason::TenantClosed) => closed_rejects += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let stats = tenant.stats();
        assert_eq!(stats.submitted, PER_TENANT as u64);
        assert_eq!(stats.settled(), stats.submitted, "unsettled request");
        assert_eq!(
            (completed, cancelled, closed_rejects),
            (stats.completed, stats.cancelled, stats.closed_rejects),
            "handles and counters disagree for tenant {}",
            tenant.id()
        );
        outcome_totals.completed += completed;
        outcome_totals.cancelled += cancelled;
        outcome_totals.closed_rejects += closed_rejects;
    }
    assert_eq!(
        outcome_totals.completed + outcome_totals.cancelled + outcome_totals.closed_rejects,
        (CYCLES * PER_TENANT) as u64,
        "requests leaked"
    );
    assert_eq!(
        outcome_totals.completed,
        ran.load(Ordering::Relaxed),
        "every Completed ran exactly once and nothing else ran"
    );

    // Per-tenant pool slices sum to the global pool counters: this pool
    // ran nothing but serve work, so nothing may be missing and nothing
    // may be double-tagged.
    let executed_sum: u64 = retired.iter().map(|(t, _)| t.pool_slice().executed).sum();
    let dropped_sum: u64 = retired.iter().map(|(t, _)| t.pool_slice().cancelled).sum();
    let global = pool.stats();
    assert_eq!(executed_sum, global.total_executed());
    assert_eq!(dropped_sum, global.cancelled);
    assert!(
        dropped_sum <= outcome_totals.cancelled,
        "grain-boundary drops are a subset of cancellations"
    );

    server.shutdown();
    // No leaked sleeper tokens: the pool re-parks fully and stays flat.
    assert!(
        pool.wait_fully_parked(Duration::from_secs(30)),
        "pool never re-parked after serving churn: {:?} ({} registered)",
        pool.stats(),
        pool.parked_workers()
    );
    let settled = pool.stats();
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(
        pool.stats().parks,
        settled.parks,
        "a worker kept waking after the serving load ended"
    );
}
