//! The autopilot: a BubbleSched-style controller thread closing the
//! loop between the pool's runtime signals and tenant placement.
//!
//! # Bubbles
//!
//! A [`Bubble`] is a movable pin: the serving layer homes every request
//! of a tenant to the bubble's *current* domain, resolved at dispatch
//! time rather than frozen at registration. The autopilot owns the
//! writes — [`Bubble::set_domain`] migrates the whole subtree on the
//! next dispatch, [`Bubble::burst`] releases it to unaffine placement
//! (the work-stealing spine spreads it), and a later gang re-pins it.
//!
//! # The control loop
//!
//! Each tick the controller:
//!
//! 1. snapshots the pool ([`htvm_core::PoolStats::since`] deltas,
//!    [`htvm_core::Pool::queue_depths`], [`htvm_core::Pool::slot_census`],
//!    parked workers) into a [`BubbleSignals`];
//! 2. reads each live tenant's executed delta from its
//!    [`htvm_core::PoolTag`] into a [`BubbleLoad`];
//! 3. runs [`BubblePolicy::step`] and applies the decisions: bubble
//!    moves land on the tenants' [`Bubble`] handles, elastic decisions
//!    land on the pool ([`htvm_core::Pool::grow_anywhere`] /
//!    [`htvm_core::Pool::retire_in`]).
//!
//! Tenant churn resets the policy (placement state restarts from the
//! bubbles' current pins) — cheap, and it keeps the policy's bubble
//! indices honest without a registry protocol. The policy itself is
//! plain data in `htvm-adapt`; everything that touches the pool lives
//! here.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use htvm_adapt::DomainTraffic;
use htvm_adapt::{BubbleDecision, BubbleLoad, BubblePolicy, BubblePolicyCfg, BubbleSignals};
use htvm_core::{DomainId, Pool};
use parking_lot::Mutex;

/// Sentinel domain meaning "burst": no pin, requests dispatch unaffine.
const BURST: u64 = u64::MAX;

/// A movable home pin for a tenant's subtree. Every dispatch reads it;
/// the autopilot (or a manual controller) writes it.
#[derive(Debug)]
pub struct Bubble {
    domain: AtomicU64,
}

impl Bubble {
    /// A bubble pinned to `home`.
    pub fn pinned(home: DomainId) -> Arc<Self> {
        Arc::new(Self {
            domain: AtomicU64::new(home.0),
        })
    }

    /// The current pin, or `None` while burst.
    pub fn domain(&self) -> Option<DomainId> {
        match self.domain.load(Ordering::Relaxed) {
            BURST => None,
            d => Some(DomainId(d)),
        }
    }

    /// Re-pin the bubble; takes effect on the next dispatch.
    pub fn set_domain(&self, home: DomainId) {
        self.domain.store(home.0, Ordering::Relaxed);
    }

    /// Release the pin: subsequent dispatches go unaffine and the
    /// stealing spine spreads them over the whole machine.
    pub fn burst(&self) {
        self.domain.store(BURST, Ordering::Relaxed);
    }

    /// Whether the bubble is currently burst.
    pub fn is_burst(&self) -> bool {
        self.domain.load(Ordering::Relaxed) == BURST
    }
}

/// What one tenant looks like to the controller.
pub(crate) struct BubbleTenant {
    /// Stable identity across ticks (the tenant's slot id).
    pub id: usize,
    /// The movable pin every dispatch reads.
    pub bubble: Arc<Bubble>,
    /// Cumulative executed jobs for the tenant (its pool-tag slice).
    pub executed: u64,
}

/// Controller knobs.
#[derive(Debug, Clone)]
pub struct AutopilotConfig {
    /// Sampling/decision period.
    pub interval: Duration,
    /// The placement/elasticity policy (see
    /// [`htvm_adapt::BubblePolicyCfg`]).
    pub policy: BubblePolicyCfg,
}

impl Default for AutopilotConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(5),
            policy: BubblePolicyCfg::default(),
        }
    }
}

/// Cumulative counts of applied decisions, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutopilotStats {
    /// Controller ticks evaluated.
    pub ticks: u64,
    /// Bubble migrations applied.
    pub migrates: u64,
    /// Bubbles burst.
    pub bursts: u64,
    /// Bubbles ganged back onto a domain.
    pub gangs: u64,
    /// Workers grown (requests that found a vacant slot).
    pub grows: u64,
    /// Workers retired (requests the pool accepted).
    pub retires: u64,
    /// Times the controller loop was restarted by its supervision
    /// harness after a contained panic (placement state resets; the
    /// bubbles keep their last applied pins). 0 in a healthy pilot.
    pub restarts: u64,
}

impl AutopilotStats {
    /// Total placement + elasticity decisions applied.
    pub fn decisions(&self) -> u64 {
        self.migrates + self.bursts + self.gangs + self.grows + self.retires
    }
}

#[derive(Default)]
struct Counters {
    ticks: AtomicU64,
    migrates: AtomicU64,
    bursts: AtomicU64,
    gangs: AtomicU64,
    grows: AtomicU64,
    retires: AtomicU64,
    restarts: AtomicU64,
}

/// The running controller. Dropping it stops and joins the thread; the
/// bubbles keep their last placement.
pub struct Autopilot {
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Autopilot {
    /// Start a controller over `pool`, steering the tenants yielded by
    /// `tenants` (sampled fresh every tick, so churn is picked up).
    pub(crate) fn start(
        pool: Arc<Pool>,
        cfg: AutopilotConfig,
        tenants: impl Fn() -> Vec<BubbleTenant> + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let handle = {
            let stop = stop.clone();
            let counters = counters.clone();
            std::thread::Builder::new()
                .name("htvm-autopilot".into())
                .spawn(move || supervised_controller(pool, cfg, tenants, stop, counters))
                .expect("spawn autopilot thread")
        };
        Self {
            stop,
            counters,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Cumulative decision counts.
    pub fn stats(&self) -> AutopilotStats {
        AutopilotStats {
            ticks: self.counters.ticks.load(Ordering::Relaxed),
            migrates: self.counters.migrates.load(Ordering::Relaxed),
            bursts: self.counters.bursts.load(Ordering::Relaxed),
            gangs: self.counters.gangs.load(Ordering::Relaxed),
            grows: self.counters.grows.load(Ordering::Relaxed),
            retires: self.counters.retires.load(Ordering::Relaxed),
            restarts: self.counters.restarts.load(Ordering::Relaxed),
        }
    }

    /// Stop the controller and join its thread (idempotent).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Autopilot {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Autopilot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Autopilot")
            .field("stats", &self.stats())
            .finish()
    }
}

/// The autopilot thread body: [`controller_loop`] under a restart
/// harness. A panicking tick (a policy bug, or an injected
/// `serve.autopilot` fault — kills included, since the controller has
/// no successor-thread machinery) is contained and the loop restarts
/// with fresh placement state; the bubbles keep their last applied
/// pins, so a controller crash degrades to "placement freezes" rather
/// than taking the server down.
fn supervised_controller(
    pool: Arc<Pool>,
    cfg: AutopilotConfig,
    tenants: impl Fn() -> Vec<BubbleTenant>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    while !stop.load(Ordering::SeqCst) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            controller_loop(&pool, &cfg, &tenants, &stop, &counters)
        }));
        match result {
            Ok(()) => break, // stop flag observed
            Err(_) => {
                counters.restarts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn controller_loop(
    pool: &Arc<Pool>,
    cfg: &AutopilotConfig,
    tenants: &impl Fn() -> Vec<BubbleTenant>,
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
) {
    let mut policy = BubblePolicy::new(cfg.policy.clone());
    // Maps policy bubble index → tenant id; a mismatch with the fresh
    // tenant snapshot means churn happened and the policy resets.
    let mut roster: Vec<usize> = Vec::new();
    let mut bubbles: Vec<Arc<Bubble>> = Vec::new();
    let mut prev_pool = pool.stats();
    let mut prev_executed: Vec<u64> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(cfg.interval);
        // Fault-injection point for supervision tests: a panic/kill
        // here is contained by `supervised_controller`.
        htvm_core::fault_point!(pool.fault_plane(), "serve.autopilot");
        let snapshot = tenants();
        let ids: Vec<usize> = snapshot.iter().map(|t| t.id).collect();
        if ids != roster {
            policy = BubblePolicy::new(cfg.policy.clone());
            bubbles = snapshot.iter().map(|t| t.bubble.clone()).collect();
            for t in &snapshot {
                let home = t.bubble.domain().map_or(0, |d| d.0 as usize);
                policy.register_bubble(home);
            }
            roster = ids;
            prev_executed = snapshot.iter().map(|t| t.executed).collect();
            continue; // first tick after churn only establishes baselines
        }

        let now = pool.stats();
        let delta = now.since(&prev_pool);
        prev_pool = now;
        let depths = pool.queue_depths();
        let (active, vacant) = pool.slot_census();
        let signals = BubbleSignals {
            traffic: DomainTraffic::new(
                delta.executed_by_domain(),
                delta.local_steals_by_domain(),
                delta.remote_steals_by_domain(),
            ),
            queued_by_domain: depths.domain_injectors.iter().map(|&d| d as u64).collect(),
            queued_global: depths.global_injector as u64
                + depths.workers.iter().sum::<usize>() as u64,
            active_by_domain: active,
            vacant_by_domain: vacant,
            parked_workers: pool.parked_workers(),
        };
        let loads: Vec<BubbleLoad> = snapshot
            .iter()
            .enumerate()
            .map(|(i, t)| BubbleLoad {
                bubble: i,
                executed: t.executed.saturating_sub(prev_executed[i]),
            })
            .collect();
        prev_executed = snapshot.iter().map(|t| t.executed).collect();

        for decision in policy.step(&signals, &loads) {
            match decision {
                BubbleDecision::Migrate { bubble, to } => {
                    bubbles[bubble].set_domain(DomainId(to as u64));
                    counters.migrates.fetch_add(1, Ordering::Relaxed);
                }
                BubbleDecision::Burst { bubble } => {
                    bubbles[bubble].burst();
                    counters.bursts.fetch_add(1, Ordering::Relaxed);
                }
                BubbleDecision::Gang { bubble, domain } => {
                    bubbles[bubble].set_domain(DomainId(domain as u64));
                    counters.gangs.fetch_add(1, Ordering::Relaxed);
                }
                BubbleDecision::Grow { domain } => {
                    if pool.grow_anywhere(DomainId(domain as u64)).is_some() {
                        counters.grows.fetch_add(1, Ordering::Relaxed);
                    }
                }
                BubbleDecision::Retire { domain } => {
                    if pool.retire_in(DomainId(domain as u64)).is_some() {
                        counters.retires.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        counters.ticks.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bubble_round_trips_between_pinned_and_burst() {
        let b = Bubble::pinned(DomainId(1));
        assert_eq!(b.domain(), Some(DomainId(1)));
        assert!(!b.is_burst());
        b.burst();
        assert_eq!(b.domain(), None);
        assert!(b.is_burst());
        b.set_domain(DomainId(0));
        assert_eq!(b.domain(), Some(DomainId(0)));
    }
}
