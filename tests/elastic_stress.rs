//! Elastic pool stress: grow/shrink churn racing live load.
//!
//! The elastic protocol's dangerous windows are (a) a retiring worker
//! absorbing a wake token meant for a spawner and parking forever, and
//! (b) jobs stranded in a retired worker's deque. Both show up here as
//! either a lost job (count mismatch) or a hang in `wait_quiescent`
//! (the CI stress job wraps this suite in a `timeout`, so a hang fails
//! fast instead of stalling the pipeline).
//!
//! These tests drive hundreds of grow→retire cycles while external
//! producers keep spawning, then assert exact job conservation and a
//! fully-parked, token-clean quiescent state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use htvm::core::{DomainId, Pool, Topology};

/// Grow/retire cycles with load in flight: every cycle activates
/// headroom slots, spawns a burst that lands partly on the new workers,
/// then retires back down while the burst is still draining. Retired
/// workers must republish their deques, so no job may be lost.
#[test]
fn grow_shrink_cycles_lose_no_jobs() {
    for (topo, headroom) in [
        (Topology::flat(1), 2),
        (Topology::flat(2), 1),
        (Topology::domains(2, 1), 2),
        (Topology::from_sizes([1, 3]), 1),
    ] {
        let pool = Pool::with_elastic(topo.clone(), headroom);
        let base = pool.active_workers();
        let done = Arc::new(AtomicU64::new(0));
        let mut expect = 0u64;
        let nd = pool.num_domains() as u64;
        for cycle in 0..200u64 {
            // Grow into every domain that has a vacant slot.
            let mut grown = Vec::new();
            for d in 0..nd {
                if let Some(w) = pool.grow_in(DomainId(d)) {
                    grown.push(w);
                }
            }
            for i in 0..6u64 {
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
            // Retire the freshly-grown workers while the burst may still
            // be sitting in their deques — the republish path under fire.
            for w in grown {
                assert!(pool.retire_worker(w), "cycle {cycle}: retire refused");
            }
            // Some cycles let the survivors actually park so the next
            // grow races park entry, not just the spinning idle phase.
            if cycle % 32 == 0 {
                pool.wait_quiescent();
                assert_eq!(
                    done.load(Ordering::Relaxed),
                    expect,
                    "topology {topo:?} lost a job by cycle {cycle}"
                );
            }
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::Relaxed), expect, "topology {topo:?}");
        assert_eq!(pool.active_workers(), base, "topology {topo:?}");
        assert_eq!(pool.stats().total_executed(), expect);
        // Token hygiene: once idle, every surviving worker parks and
        // stays parked — a retiree that stole a spawner's token would
        // leave the count short (or a later spawn hung above).
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while pool.parked_workers() < pool.active_workers() {
            assert!(
                std::time::Instant::now() < deadline,
                "topology {topo:?}: workers never fully parked after churn"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// External producers race the grow/retire churn concurrently (not
/// phase-locked like the cycle test): a churn thread flips the worker
/// set while producers spawn from outside. Everything must drain.
#[test]
fn concurrent_producers_race_elastic_churn() {
    let pool = Arc::new(Pool::with_elastic(Topology::domains(2, 1), 2));
    let done = Arc::new(AtomicU64::new(0));
    let producers = 3u64;
    let bursts = 200u64;
    let churn = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            let nd = pool.num_domains() as u64;
            for cycle in 0..200u64 {
                let d = DomainId(cycle % nd);
                if cycle % 2 == 0 {
                    pool.grow_anywhere(d);
                } else {
                    pool.retire_in(d);
                }
                if cycle % 16 == 0 {
                    std::thread::sleep(Duration::from_micros(500));
                } else {
                    std::thread::yield_now();
                }
            }
        })
    };
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let pool = pool.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                for b in 0..bursts {
                    let done = done.clone();
                    // One external spawn fanning into two worker-side
                    // spawns: deque pushes from a worker that may be
                    // flagged retiring mid-job must still be drained.
                    pool.spawn(move |ctx| {
                        for _ in 0..2 {
                            let done = done.clone();
                            ctx.spawn(move |_| {
                                done.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    });
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
    churn.join().unwrap();
    pool.wait_quiescent();
    assert_eq!(
        done.load(Ordering::Relaxed),
        producers * bursts * 3,
        "lost spawns under racing elastic churn"
    );
    // At least the reservation floor survived the churn storm, and the
    // grow/retire ledger balances against the final worker count. A
    // retire is asynchronous — `active_workers` drops when it is
    // requested, `retires` counts it when the worker has vacated its
    // slot — so the ledger is read once no retire is still in flight.
    assert!(pool.active_workers() >= 1);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let s = pool.stats();
        if s.grows as i64 - s.retires as i64 == pool.active_workers() as i64 - 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "grow/retire ledger never settled: {} grows, {} retires, {} active",
            s.grows,
            s.retires,
            pool.active_workers()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let s = pool.stats();
    assert_eq!(
        s.grows as i64 - s.retires as i64,
        pool.active_workers() as i64 - 2
    );
}
