//! End-to-end tests of the serving layer through the umbrella crate:
//! batch jobs re-entering a live serving pool, racing cancellations
//! resolving exactly once, deadlines under load, and a lenient
//! weighted-fairness smoke (the strict fairness property lives in
//! `crates/serve/tests/fairness.rs` on the pure scheduler, where it is
//! deterministic).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htvm::apps::neuro::{run_parallel_on, Mapping, Network, NetworkSim, NetworkSpec};
use htvm::core::{Htvm, HtvmConfig};
use htvm::serve::{NativeParcel, Outcome, Server, ServerConfig, TenantConfig};

fn spikes_sequential(spec: &NetworkSpec, steps: u64) -> u64 {
    let mut sim = NetworkSim::new(Network::build(spec.clone()));
    sim.run(steps);
    sim.total_spikes
}

/// The PR-7 footgun test: `Htvm`/`Pool` handles used to assume one
/// owning batch run. Two concurrent `run_parallel_on` calls — racing
/// each other *and* a serving front-end's request stream on the same
/// pool — must both complete bit-faithfully, with no deadlock and no
/// panic. Completion is dataflow (each run joins its own LGT), never
/// `Pool::wait_quiescent`, which on a shared pool would wait for
/// everyone's work.
#[test]
fn batch_runs_reenter_a_live_serving_pool() {
    let htvm = Arc::new(Htvm::new(HtvmConfig::with_workers(2)));
    let server = Server::new(&htvm, ServerConfig::default());
    let tenant = server.register_tenant(TenantConfig {
        weight: 2,
        queue_capacity: Some(256),
        home: None,
        retry: None,
    });

    let seq = spikes_sequential(&NetworkSpec::tiny(), 120);

    // A request stream that stays live across both batch runs.
    let ticks = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..128)
        .map(|_| {
            let ticks = ticks.clone();
            tenant
                .submit(NativeParcel::new(move |_| {
                    ticks.fetch_add(1, Ordering::Relaxed);
                }))
                .unwrap()
        })
        .collect();

    let runs: Vec<_> = (0..2)
        .map(|_| {
            let htvm = htvm.clone();
            std::thread::spawn(move || {
                run_parallel_on(
                    &htvm,
                    Network::build(NetworkSpec::tiny()),
                    120,
                    Mapping::Hierarchical,
                )
            })
        })
        .collect();
    for run in runs {
        let report = run.join().expect("re-entrant batch run must not panic");
        assert_eq!(
            report.total_spikes, seq,
            "a batch run on a shared serving pool stays bit-faithful"
        );
    }

    for h in &handles {
        assert_eq!(h.wait(), Outcome::Completed);
    }
    assert!(server.wait_idle(Duration::from_secs(30)));
    assert_eq!(ticks.load(Ordering::Relaxed), 128);
    let stats = tenant.stats();
    assert_eq!(stats.completed, 128);
    assert_eq!(stats.settled(), stats.submitted);
}

/// Racing cancellations: every admitted request resolves **exactly
/// once** — the outcome IVar panics on a double write, so any
/// two-resolution bug fails the test structurally, not statistically —
/// and every submission is conserved across the outcome buckets.
#[test]
fn racing_cancels_resolve_exactly_once() {
    const N: usize = 300;
    let htvm = Htvm::new(HtvmConfig::with_workers(2));
    let server = Server::new(
        &htvm,
        ServerConfig {
            max_in_flight: 2,
            ..ServerConfig::default()
        },
    );
    let tenant = server.register_tenant(TenantConfig {
        weight: 1,
        queue_capacity: Some(N),
        home: None,
        retry: None,
    });

    let executed = Arc::new(AtomicU64::new(0));
    let handles: Arc<Vec<_>> = Arc::new(
        (0..N)
            .map(|_| {
                let executed = executed.clone();
                tenant
                    .submit(NativeParcel::new(move |_| {
                        executed.fetch_add(1, Ordering::Relaxed);
                    }))
                    .unwrap()
            })
            .collect(),
    );

    // Two threads cancel the same odd-indexed handles from opposite
    // ends, racing each other *and* the dispatcher.
    let cancellers: Vec<_> = [false, true]
        .into_iter()
        .map(|rev| {
            let handles = handles.clone();
            std::thread::spawn(move || {
                let idx: Box<dyn Iterator<Item = usize>> = if rev {
                    Box::new((0..N).rev())
                } else {
                    Box::new(0..N)
                };
                for i in idx {
                    if i % 2 == 1 {
                        handles[i].cancel();
                    }
                }
            })
        })
        .collect();
    for c in cancellers {
        c.join().unwrap();
    }

    let mut completed = 0u64;
    let mut cancelled = 0u64;
    for (i, h) in handles.iter().enumerate() {
        match h.wait() {
            Outcome::Completed => completed += 1,
            Outcome::Cancelled => {
                assert_eq!(i % 2, 1, "only odd indices were cancelled");
                cancelled += 1;
            }
            other => panic!("request {i} resolved {other:?}"),
        }
    }
    assert!(server.wait_idle(Duration::from_secs(30)));
    assert_eq!(completed + cancelled, N as u64);
    assert_eq!(
        completed,
        executed.load(Ordering::Relaxed),
        "every Completed ran exactly once"
    );

    let stats = tenant.stats();
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.cancelled, cancelled);
    assert_eq!(stats.settled(), stats.submitted);

    // The pool slice agrees: executed bodies == completions; grain-
    // boundary drops are a subset of the cancellations (the rest were
    // caught while still queued).
    let slice = tenant.pool_slice();
    assert_eq!(slice.executed, completed);
    assert!(slice.cancelled <= cancelled);
}

/// Deadlines under load: requests whose deadline already passed resolve
/// `Cancelled` at the grain boundary — none of their bodies run, even
/// while live traffic keeps the pool busy.
#[test]
fn expired_deadlines_never_execute_under_load() {
    let htvm = Htvm::new(HtvmConfig::with_workers(2));
    let server = Server::new(&htvm, ServerConfig::default());
    let live = server.register_tenant(TenantConfig::weighted(1));
    let doomed = server.register_tenant(TenantConfig::weighted(1));

    let past = Instant::now() - Duration::from_millis(1);
    let mut waits = Vec::new();
    for i in 0..50 {
        waits.push((
            false,
            live.submit(NativeParcel::new(move |_| {
                std::hint::black_box(i);
            }))
            .unwrap(),
        ));
        waits.push((
            true,
            doomed
                .submit_with_deadline(NativeParcel::new(|_| panic!("expired body ran")), past)
                .unwrap(),
        ));
    }
    for (is_doomed, h) in &waits {
        let want = if *is_doomed {
            Outcome::Cancelled
        } else {
            Outcome::Completed
        };
        assert_eq!(h.wait(), want);
    }
    assert!(server.wait_idle(Duration::from_secs(30)));
    assert_eq!(doomed.pool_slice().executed, 0, "no expired body ever ran");
    assert_eq!(doomed.stats().cancelled, 50);
    assert_eq!(live.stats().completed, 50);
}

/// Lenient end-to-end fairness: with equal offered load, the
/// weight-4 tenant drains well before the weight-1 tenant. The exact
/// bounded-deficit property is proved on the pure `Wdrr` in
/// `crates/serve/tests/fairness.rs`; here we only require that weights
/// visibly shape completion order on a real pool (with generous slack,
/// so the test stays deterministic on 1-CPU CI).
#[test]
fn heavier_tenants_drain_first() {
    const PER_TENANT: u64 = 60;
    let htvm = Htvm::new(HtvmConfig::with_workers(2));
    let server = Server::new(
        &htvm,
        ServerConfig {
            max_in_flight: 4,
            ..ServerConfig::default()
        },
    );
    let light = server.register_tenant(TenantConfig::weighted(1));
    let mid = server.register_tenant(TenantConfig::weighted(2));
    let heavy = server.register_tenant(TenantConfig::weighted(4));

    // Gate every action so all three queues are fully backlogged
    // before any request finishes: completion order is then shaped by
    // the dispatcher's weighted rounds, not by submission order.
    // Each body counts itself in as it finishes, and the heavy tenant's
    // last body snapshots the light tenant's count: the order is read
    // where it happens, so a test thread that is descheduled while the
    // queues drain cannot see a later state than the one asserted on.
    let go = Arc::new(AtomicBool::new(false));
    let light_ran = Arc::new(AtomicU64::new(0));
    let heavy_ran = Arc::new(AtomicU64::new(0));
    let light_at_drain = Arc::new(AtomicU64::new(u64::MAX));
    let mut handles = Vec::new();
    for _ in 0..PER_TENANT {
        for (t, w) in [(&light, 1), (&mid, 2), (&heavy, 4)] {
            let go = go.clone();
            let light_ran = light_ran.clone();
            let heavy_ran = heavy_ran.clone();
            let light_at_drain = light_at_drain.clone();
            handles.push(
                t.submit(NativeParcel::new(move |_| {
                    while !go.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    match w {
                        1 => {
                            light_ran.fetch_add(1, Ordering::SeqCst);
                        }
                        4 if heavy_ran.fetch_add(1, Ordering::SeqCst) + 1 == PER_TENANT => {
                            light_at_drain
                                .store(light_ran.load(Ordering::SeqCst), Ordering::SeqCst);
                        }
                        _ => {}
                    }
                }))
                .unwrap(),
            );
        }
    }
    go.store(true, Ordering::Release);

    let deadline = Instant::now() + Duration::from_secs(30);
    while heavy.stats().completed < PER_TENANT || light_at_drain.load(Ordering::SeqCst) == u64::MAX
    {
        assert!(Instant::now() < deadline, "heavy tenant never drained");
        std::thread::yield_now();
    }
    let light_done = light_at_drain.load(Ordering::SeqCst);
    assert!(
        light_done < PER_TENANT,
        "weight-1 tenant should still be backlogged when weight-4 drains"
    );
    assert!(
        light_done <= 45,
        "weight-4 should drain ~3x faster than weight-1; light had {light_done}/{PER_TENANT}"
    );

    for h in &handles {
        assert_eq!(h.wait(), Outcome::Completed, "everyone finishes eventually");
    }
    assert!(server.wait_idle(Duration::from_secs(30)));
}
