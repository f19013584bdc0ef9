//! Chaos stress suite: the serving stack under seeded fault injection.
//!
//! A storm of requests runs against a pool whose fault plane injects
//! panics and thread-kills at the worker and dispatcher sites
//! (`htvm::core::faults`). The suite asserts the three supervision
//! invariants end to end:
//!
//! 1. **Zero hangs** — every submitted request resolves exactly one
//!    [`Outcome`] within a bounded wait, whatever died underneath it.
//! 2. **Ledger conservation** — per tenant, every offered submission
//!    lands in exactly one settled bucket
//!    (`TenantStats::settled() == submitted`), and the client-side
//!    outcome tally matches the server's buckets exactly.
//! 3. **Census restored** — every worker death is healed by a respawn
//!    (`worker_deaths == respawns`: nothing in this suite retires), the
//!    pool ends at full strength, and a post-storm tail of requests
//!    still resolves.
//!
//! Fault rules are capped (`max=`) so the storm is finite and the
//! healed pool can prove itself on the tail. Injection is replayable:
//! the per-rule decision for occurrence *n* is a pure function of
//! `(seed, n)`, so a failure here reproduces under the same plan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htvm::core::{FaultKind, FaultPlan, FaultRule, Pool, Topology};
use htvm::serve::{
    NativeParcel, Outcome, RetryPolicy, Server, ServerConfig, TenantConfig, TenantHandle,
};

/// Per-request resolution bound. Generous: the suite asserts liveness,
/// not latency — a trip here means a hung client, the one thing
/// supervision must never allow.
const WAIT: Duration = Duration::from_secs(60);

/// Client-side outcome tally, compared against the server's buckets.
#[derive(Default, Debug)]
struct Tally {
    completed: u64,
    failed: u64,
    cancelled: u64,
    rejected: u64,
}

impl Tally {
    fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Completed => self.completed += 1,
            Outcome::Failed(_) => self.failed += 1,
            Outcome::Cancelled => self.cancelled += 1,
            Outcome::Rejected(_) => self.rejected += 1,
        }
    }
}

/// Submit a replayable counting body, riding out `QueueFull`
/// backpressure with a short client-side wait.
fn submit_counting(tenant: &TenantHandle, runs: &Arc<AtomicU64>) -> htvm::serve::ResponseHandle {
    loop {
        let runs = runs.clone();
        let parcel = NativeParcel::replayable(move |_| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        match tenant.submit(parcel) {
            Ok(h) => return h,
            Err(htvm::serve::SubmitError::QueueFull) => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("tenant refused a live submission: {e}"),
        }
    }
}

#[test]
fn chaos_storm_resolves_every_request_and_heals_the_pool() {
    const REQS: usize = 10_000;
    // ~1% aggregate fault rate across the sites, kills included, each
    // rule capped so the storm ends and the healed pool can prove
    // itself on the clean tail. Whether a seeded rule fires depends on
    // how many hits its site takes in a run, so each site also gets one
    // always-firing rule capped at one. Those come last: the seeded
    // rules count the same hits they would without them.
    let plan = FaultPlan::new()
        .rule(
            FaultRule::new("worker.body", FaultKind::Panic)
                .p(0.01)
                .seed(0xA11CE)
                .max(96),
        )
        .rule(
            FaultRule::new("worker.body", FaultKind::Kill)
                .p(0.004)
                .seed(0xB0B)
                .max(24),
        )
        .rule(
            FaultRule::new("worker.steal", FaultKind::Panic)
                .p(0.0005)
                .seed(0xCAFE)
                .max(8),
        )
        .rule(
            FaultRule::new("serve.dispatch", FaultKind::Kill)
                .p(0.01)
                .seed(0xD15)
                .max(6),
        )
        .rule(FaultRule::new("worker.body", FaultKind::Kill).max(1))
        .rule(FaultRule::new("worker.steal", FaultKind::Panic).max(1))
        .rule(FaultRule::new("serve.dispatch", FaultKind::Kill).max(1));
    let topology = Topology::domains(2, 2);
    let full_census = topology.workers();
    let pool = Arc::new(Pool::with_fault_plan(topology, 0, plan));
    let server = Server::on_pool(
        pool.clone(),
        ServerConfig {
            max_in_flight: 32,
            default_queue_capacity: 1024,
            // No overload shedding: this suite measures failure
            // containment, not triage (sheds would still conserve the
            // ledger, but a zero keeps the buckets easy to read).
            max_queued_total: REQS + 1024,
            ..ServerConfig::default()
        },
    );
    // One tenant retries its failed attempts, one takes failures raw —
    // both must conserve their ledgers identically.
    let tenants = [
        server.register_tenant(TenantConfig {
            weight: 2,
            retry: Some(RetryPolicy {
                base_backoff: Duration::from_micros(100),
                ..RetryPolicy::attempts(3)
            }),
            ..TenantConfig::default()
        }),
        server.register_tenant(TenantConfig::weighted(1)),
    ];

    let runs = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(REQS);
    let mut cancels = 0u64;
    for i in 0..REQS {
        let handle = submit_counting(&tenants[i % tenants.len()], &runs);
        // A sprinkle of client cancellations races the storm.
        if i % 101 == 100 {
            handle.cancel();
            cancels += 1;
        }
        handles.push(handle);
    }
    assert!(cancels > 0);

    // Invariant 1: zero hangs — every request resolves within bound.
    let mut tally = Tally::default();
    for (i, h) in handles.iter().enumerate() {
        let outcome = h
            .wait_timeout(WAIT)
            .unwrap_or_else(|| panic!("request {i} hung past {WAIT:?}"));
        tally.add(outcome);
    }

    // Invariant 2: ledger conservation, server-side and against the
    // client's own tally. `settled()` includes `rejected_full`, which
    // counts refused *offers* (no handle, retried client-side above),
    // so the handle tally matches the buckets minus that column.
    let mut totals = Tally::default();
    let mut rejected_full = 0u64;
    let mut submitted = 0u64;
    for t in &tenants {
        let s = t.stats();
        assert_eq!(
            s.settled(),
            s.submitted,
            "every offer must land in exactly one settled bucket: {s:?}"
        );
        totals.completed += s.completed;
        totals.failed += s.failed;
        totals.cancelled += s.cancelled;
        totals.rejected += s.shed + s.closed_rejects + s.shutdown_rejects;
        rejected_full += s.rejected_full;
        submitted += s.submitted;
    }
    assert_eq!(submitted, REQS as u64 + rejected_full);
    assert_eq!(totals.completed, tally.completed);
    assert_eq!(totals.failed, tally.failed);
    assert_eq!(totals.cancelled, tally.cancelled);
    assert_eq!(totals.rejected, tally.rejected);
    assert!(
        runs.load(Ordering::Relaxed) >= tally.completed,
        "a completed request ran its body at least once"
    );

    // The storm actually stormed: faults fired, workers died, the
    // dispatcher was killed and restarted.
    let injected = pool.fault_plane().injected_total();
    assert!(injected > 0, "the fault plane never fired");
    for site in ["worker.body", "worker.steal", "serve.dispatch"] {
        assert!(
            pool.fault_plane().injected_at(site) >= 1,
            "no fault fired at {site}"
        );
    }
    assert!(
        server.dispatcher_restarts() >= 1,
        "the dispatcher kill rule never exercised the watchdog"
    );

    // Invariant 3: census restored. Every death respawned (no retires
    // here, so the balance is exact); a death still healing when the
    // last request resolved gets a bounded grace period.
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let s = pool.stats();
        if s.worker_deaths == s.respawns || Instant::now() > deadline {
            break s;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        stats.worker_deaths > 0,
        "the kill rules never killed a worker"
    );
    assert_eq!(
        stats.worker_deaths, stats.respawns,
        "every worker death must be healed by a respawn"
    );
    assert_eq!(
        pool.active_workers(),
        full_census,
        "pool back at full strength"
    );

    // The healed pool still serves: a clean tail all resolves.
    let tail: Vec<_> = (0..200)
        .map(|i| submit_counting(&tenants[i % tenants.len()], &runs))
        .collect();
    for (i, h) in tail.iter().enumerate() {
        assert!(
            h.wait_timeout(WAIT).is_some(),
            "post-storm request {i} hung — the pool did not heal"
        );
    }
    server.shutdown();
}

/// The `HTVM_FAULTS` path: a pool built with [`Pool::with_elastic`]
/// arms whatever the environment specifies (the release-mode chaos CI
/// job sets a kill-heavy spec; a plain `cargo test` runs it clean).
/// Either way every request must resolve and the ledger must conserve
/// — the suite's invariants do not depend on which faults fire.
#[test]
fn env_spec_storm_resolves_and_conserves() {
    const REQS: usize = 2_000;
    let pool = Arc::new(Pool::with_elastic(Topology::domains(2, 1), 0));
    let server = Server::on_pool(
        pool.clone(),
        ServerConfig {
            default_queue_capacity: 512,
            max_queued_total: REQS + 512,
            ..ServerConfig::default()
        },
    );
    let tenant = server.register_tenant(TenantConfig {
        weight: 1,
        retry: Some(RetryPolicy {
            base_backoff: Duration::from_micros(100),
            ..RetryPolicy::attempts(2)
        }),
        ..TenantConfig::default()
    });
    let runs = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..REQS).map(|_| submit_counting(&tenant, &runs)).collect();
    for (i, h) in handles.iter().enumerate() {
        assert!(
            h.wait_timeout(WAIT).is_some(),
            "request {i} hung past {WAIT:?}"
        );
    }
    let s = tenant.stats();
    assert_eq!(s.settled(), s.submitted, "ledger must conserve: {s:?}");
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let s = pool.stats();
        if s.worker_deaths == s.respawns || Instant::now() > deadline {
            break s;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        stats.worker_deaths, stats.respawns,
        "every worker death must be healed by a respawn"
    );
    server.shutdown();
}
