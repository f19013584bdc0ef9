//! Locality-domain work stealing: correctness on every topology shape
//! and proximity preference, all single-CPU safe (the steal observations
//! are made certain by jobs that hold their workers, not by scheduling).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use htvm::core::{DomainId, Htvm, HtvmConfig, Pool, Topology};

/// Every topology shape must drain every job — including affinity spawns
/// aimed at each domain, global spawns, and nested local spawns — on any
/// host, single-CPU included.
#[test]
fn all_topologies_drain_all_jobs() {
    for topo in [
        Topology::flat(1),
        Topology::flat(4),
        Topology::domains(2, 2),
        Topology::domains(4, 1),
        Topology::from_sizes([1, 3]),
        Topology::from_sizes([2, 1, 2]),
    ] {
        let pool = Pool::with_topology(topo.clone());
        let done = Arc::new(AtomicU64::new(0));
        let per_domain = 16u64;
        for d in 0..pool.num_domains() as u64 {
            let done = done.clone();
            pool.spawn_in(DomainId(d), move |ctx| {
                // Each affinity root fans out locally; children are
                // stealable in proximity order.
                for _ in 0..per_domain - 1 {
                    let done = done.clone();
                    ctx.spawn(move |_| {
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        for _ in 0..8 {
            let done = done.clone();
            pool.spawn(move |_| {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_quiescent();
        let expect = pool.num_domains() as u64 * per_domain + 8;
        assert_eq!(
            done.load(Ordering::Relaxed),
            expect,
            "topology {topo:?} lost jobs"
        );
        let stats = pool.stats();
        assert_eq!(stats.total_executed(), expect);
        assert_eq!(stats.domain_of.len(), pool.workers());
    }
}

/// The LGT-level affinity hint: a subtree pinned to each domain in turn
/// completes and joins correctly everywhere (placement is a preference,
/// never a correctness condition).
#[test]
fn lgt_affinity_subtree_completes_on_every_domain() {
    let htvm = Htvm::new(HtvmConfig::with_topology(Topology::domains(2, 2)));
    for d in 0..2 {
        let h = htvm.lgt_in(DomainId(d), |lgt| {
            let mem = lgt.memory().clone();
            for _ in 0..4 {
                let mem = mem.clone();
                lgt.spawn_sgt(move |sgt| {
                    for _ in 0..8 {
                        let mem = mem.clone();
                        sgt.spawn_sgt(move |_| {
                            mem.fetch_add(0, 1);
                        });
                    }
                });
            }
        });
        h.join();
        assert_eq!(h.memory().read(0), 32, "domain {d} subtree incomplete");
    }
}

/// Proximity preference: under a grouped topology, steals are satisfied
/// inside the domain first, so the remote-steal ratio drops below the
/// flat baseline's (which is 1 by construction whenever anything was
/// stolen). The steals are made certain rather than left to scheduling
/// luck: every job holds its worker until a peer of the root's worker —
/// a domain sibling when the topology has siblings — has run a child, so
/// the children can only leave the root's deque by stealing and the
/// sibling's share arrives by a local steal however the host schedules
/// the threads.
#[test]
fn local_steals_preferred_over_remote() {
    // One root job in domain 0 spawns all the work locally; every other
    // worker's share arrives by stealing.
    let run = |topo: Topology, siblings: bool| {
        let pool = Pool::with_topology(topo);
        let root = Arc::new(OnceLock::new());
        let peer_ran = Arc::new(AtomicBool::new(false));
        pool.spawn_in(DomainId(0), move |ctx| {
            root.set((ctx.id, ctx.domain)).unwrap();
            for _ in 0..400 {
                let root = root.clone();
                let peer_ran = peer_ran.clone();
                ctx.spawn(move |ctx| {
                    std::hint::black_box((0..20_000).sum::<u64>());
                    let &(id, domain) = root.get().unwrap();
                    if ctx.id != id && (!siblings || ctx.domain == domain) {
                        peer_ran.store(true, Ordering::SeqCst);
                    }
                    hold_until(&peer_ran);
                });
            }
            hold_until(&peer_ran);
        });
        pool.wait_quiescent();
        pool.stats()
    };
    let flat = run(Topology::flat(4), false);
    let grouped = run(Topology::domains(2, 2), true);
    let summary = format!(
        "flat: {} steals (ratio {:.3}); 2-dom: {} local / {} remote (ratio {:.3})",
        flat.total_stolen(),
        flat.remote_steal_ratio(),
        grouped.total_local_steals(),
        grouped.total_remote_steals(),
        grouped.remote_steal_ratio()
    );
    assert!(flat.total_stolen() > 0, "flat run never stole: {summary}");
    assert!(
        grouped.total_local_steals() > 0
            && grouped.remote_steal_ratio() < flat.remote_steal_ratio(),
        "grouped topology never preferred local steals: {summary}"
    );
}

/// Hold the calling worker until `flag` is set or 10 s pass (the
/// deadline turns a pool that never hands the work on into a failed
/// assertion rather than a hang).
fn hold_until(flag: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
        std::thread::yield_now();
    }
}
