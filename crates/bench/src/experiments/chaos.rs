//! E21: serving under chaos — the price of supervision.
//!
//! The same closed-loop request storm runs twice on the serving stack:
//! once clean, once with the fault plane armed at roughly a 1%
//! aggregate rate (body panics, worker kills, dispatcher kills — the
//! PR-10 supervision surface). Per config the table reports the
//! submit-to-execution latency distribution (p50/p99 µs), the wall
//! time of the whole storm, the failure/heal counters
//! (failed/retried/deaths/respawns/restarts), the injections the fault
//! plane reports, and the conservation check: every request settles
//! exactly once and every worker death is healed by a respawn.
//!
//! The interesting read is the *ratio* between the two rows: fault
//! containment (catch_unwind per attempt, the settle gate, the
//! watchdogs) is always on, so the clean row prices the machinery and
//! the fault row prices actual recovery — retries, deque drains,
//! thread respawns, dispatcher restarts.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use htvm_core::{FaultKind, FaultPlan, FaultRule, Pool, Topology};
use htvm_serve::{NativeParcel, RetryPolicy, Server, ServerConfig, TenantConfig};

use super::Scale;
use crate::table::Table;

/// Percentile over a sorted slice (nearest-rank, closed index range).
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The ~1% aggregate fault plan: mostly contained body panics, a
/// sprinkle of worker kills and dispatcher kills so supervision (not
/// just containment) is on the clock. Uncapped — the storm is the
/// steady state being priced, not a transient to ride out — except for
/// one always-firing worker kill, capped at one: whether the seeded
/// kill rule fires depends on how many body hits a run makes, so this
/// rule guarantees a death to heal on any schedule. It comes last, so
/// the seeded rules see the same hit sequence they would without it.
fn storm_plan() -> FaultPlan {
    FaultPlan::new()
        .rule(
            FaultRule::new("worker.body", FaultKind::Panic)
                .p(0.008)
                .seed(0x21C1),
        )
        .rule(
            FaultRule::new("worker.body", FaultKind::Kill)
                .p(0.005)
                .seed(0x21C2),
        )
        .rule(
            FaultRule::new("serve.dispatch", FaultKind::Kill)
                .p(0.002)
                .seed(0x21C3),
        )
        .rule(FaultRule::new("worker.body", FaultKind::Kill).max(1))
}

/// E21 — chaos serving: clean vs ~1%-fault latency, wall time, and the
/// supervision ledger.
pub fn e21_chaos(scale: Scale) -> Table {
    let mut t = Table::new(
        "E21 chaos serving: clean vs 1%-fault",
        &[
            "config",
            "reqs",
            "completed",
            "failed",
            "retried",
            "deaths",
            "respawns",
            "restarts",
            "injections",
            "p50_us",
            "p99_us",
            "wall_ms",
            "check",
        ],
    );
    let reqs = scale.pick(400usize, 10_000);
    let workers = scale.pick(2usize, 4);

    for (name, plan) in [("clean", FaultPlan::new()), ("faults-1pct", storm_plan())] {
        let pool = Arc::new(Pool::with_fault_plan(
            Topology::domains(workers, 1),
            0,
            plan,
        ));
        let server = Server::on_pool(
            pool.clone(),
            ServerConfig {
                max_in_flight: 32,
                default_queue_capacity: 1024,
                max_queued_total: reqs + 1024,
                ..ServerConfig::default()
            },
        );
        // The same retry policy in both configs: the clean row prices
        // the machinery, not a different contract.
        let tenant = server.register_tenant(TenantConfig {
            weight: 1,
            retry: Some(RetryPolicy {
                base_backoff: Duration::from_micros(100),
                ..RetryPolicy::attempts(3)
            }),
            ..TenantConfig::default()
        });
        let lat = Arc::new(Mutex::new(Vec::with_capacity(reqs)));
        let started = Instant::now();
        let handles: Vec<_> = (0..reqs)
            .map(|_| loop {
                let lat = lat.clone();
                let submitted_at = Instant::now();
                let parcel = NativeParcel::replayable(move |_| {
                    lat.lock()
                        .unwrap()
                        .push(submitted_at.elapsed().as_micros() as u64);
                    for i in 0..64u64 {
                        std::hint::black_box(i);
                    }
                });
                match tenant.submit(parcel) {
                    Ok(h) => break h,
                    Err(_) => std::thread::sleep(Duration::from_micros(200)),
                }
            })
            .collect();
        let mut hung = 0usize;
        for h in &handles {
            if h.wait_timeout(Duration::from_secs(60)).is_none() {
                hung += 1;
            }
        }
        let wall = started.elapsed();

        // Census heal: a death still respawning when the last request
        // settled gets a bounded grace period.
        let deadline = Instant::now() + Duration::from_secs(10);
        let stats = loop {
            let s = pool.stats();
            if s.worker_deaths == s.respawns || Instant::now() > deadline {
                break s;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let s = tenant.stats();
        let mut lats = lat.lock().unwrap().clone();
        lats.sort_unstable();
        let balanced =
            hung == 0 && s.settled() == s.submitted && stats.worker_deaths == stats.respawns;
        t.row(&[
            name.to_string(),
            reqs.to_string(),
            s.completed.to_string(),
            s.failed.to_string(),
            s.retried.to_string(),
            stats.worker_deaths.to_string(),
            stats.respawns.to_string(),
            server.dispatcher_restarts().to_string(),
            pool.fault_plane().injected_total().to_string(),
            percentile_us(&lats, 0.50).to_string(),
            percentile_us(&lats, 0.99).to_string(),
            format!("{:.2}", wall.as_secs_f64() * 1e3),
            if balanced {
                "ok".to_string()
            } else {
                "LEAK".to_string()
            },
        ]);
        server.shutdown();
    }
    t
}
