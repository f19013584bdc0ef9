//! Workload `serve-open`: open-loop arrivals of tiny requests from three
//! tenants (weights 1/2/4) sharing one `htvm_serve::Server` on a
//! `Topology::domains(2, 1)` pool, in three phases:
//!
//! * `light` — Poisson arrivals at 5k rps: the pool and the dispatcher
//!   park between arrivals, so each request pays both wakes;
//! * `heavy` — Poisson arrivals at 50k rps: the dispatcher stays busy with
//!   shallow queues, so per-request dispatch and allocation dominate;
//! * `flood` — the generator keeps every tenant queue non-empty (it tries
//!   each tenant in turn and skips one that answers `QueueFull`), which
//!   measures saturated completions per second.
//!
//! Each request's body spins 64 `black_box` iterations and stamps its end
//! time into a slot pre-sized for that request, so recording costs one
//! atomic store and no lock. Open-loop latency runs from the request's
//! *due* time, so a generator or host stall is charged to the requests it
//! delays.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htvm_core::{Pool, PoolStats, Topology};
use htvm_serve::{
    NativeParcel, Server, ServerConfig, SubmitError, TenantConfig, TenantHandle, TenantStats,
};

use crate::report::Report;
use crate::rng::Rng;
use crate::stats::pct;
use crate::{alloc, host};

/// Tenant weights; the tenant of each request is drawn uniformly.
pub const WEIGHTS: [u64; 3] = [1, 2, 4];
const LIGHT_RPS: f64 = 5_000.0;
const HEAVY_RPS: f64 = 50_000.0;
/// Ceiling on flood completions per second, used only to size the slot
/// array; the flood phase ends early if it ever runs out of slots.
const FLOOD_MAX_RPS: f64 = 800_000.0;
/// Admission-queue capacity per tenant. An idle sleep on the reference
/// host (2 vCPUs) is late by up to ~10 ms at p999, so the generator can
/// owe a burst of 10 ms × 50k rps = 500 arrivals after one stall, about
/// 170 per tenant (uniform choice). Under contention from other guests
/// (15-25% of CPU time stolen by the hypervisor) the server's threads
/// stall far longer: a cap of 1024 per tenant overflowed in `heavy`
/// (stalls of over 60 ms). 4096 per tenant absorbs a 245 ms stall, so a
/// `QueueFull` in `light` or `heavy` reflects the server, not a host
/// stall or the generator's catch-up burst. The shed watermark is the sum
/// of the capacities, which bounded queues never exceed, so nothing is
/// shed.
pub const QUEUE_CAP: usize = 4096;
/// Work per request.
const SPIN: u64 = 64;

/// Arrival offsets from the phase start and the tenant of each request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    pub due_ns: Vec<u64>,
    pub tenant: Vec<u8>,
}

/// Poisson arrivals at `rate` per second over `span`, each assigned a
/// uniformly drawn tenant.
pub fn schedule(rng: &mut Rng, rate: f64, span: Duration) -> Schedule {
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut s = Schedule {
        due_ns: Vec::with_capacity((rate * end * 1.1) as usize),
        tenant: Vec::with_capacity((rate * end * 1.1) as usize),
    };
    loop {
        t += rng.exp_secs(rate);
        if t >= end {
            return s;
        }
        s.due_ns.push((t * 1e9) as u64);
        s.tenant.push(rng.below(WEIGHTS.len() as u64) as u8);
    }
}

/// Per-request time stamps (ns since `clock`, plus one so 0 means
/// "never written") and a count of stamps written twice.
struct Slots {
    clock: Instant,
    end: Box<[AtomicU64]>,
    /// Body start stamps; empty unless traced.
    start: Box<[AtomicU64]>,
    dup: AtomicU64,
}

fn zeroed(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Slots {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.clock).as_nanos() as u64 + 1
    }

    fn stamp(&self, slots: &[AtomicU64], idx: usize) {
        let t = self.ns(Instant::now());
        if slots[idx]
            .compare_exchange(0, t, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            self.dup.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The request body: a little work, then the end stamp.
fn parcel(slots: &Arc<Slots>, idx: usize, traced: bool) -> NativeParcel {
    let slots = slots.clone();
    if traced {
        NativeParcel::new(move |_| {
            slots.stamp(&slots.start, idx);
            for i in 0..SPIN {
                black_box(i);
            }
            slots.stamp(&slots.end, idx);
        })
    } else {
        NativeParcel::new(move |_| {
            for i in 0..SPIN {
                black_box(i);
            }
            slots.stamp(&slots.end, idx);
        })
    }
}

/// Everything built before the clock starts.
pub struct Env {
    // Dropped first: closing the tenants before the server shuts down.
    tenants: Vec<TenantHandle>,
    server: Server,
    pool: Arc<Pool>,
    light: Schedule,
    heavy: Schedule,
    phase: Duration,
    flood_slots: usize,
    slots: Arc<Slots>,
    traced: bool,
}

/// Build the pool, server, tenants, both arrival schedules and the slot
/// arrays for phases of length `phase`.
pub fn setup(seed: u64, phase: Duration, traced: bool) -> Env {
    let pool = Arc::new(Pool::with_topology(Topology::domains(2, 1)));
    let server = Server::on_pool(
        pool.clone(),
        ServerConfig {
            default_queue_capacity: QUEUE_CAP,
            max_queued_total: QUEUE_CAP * WEIGHTS.len(),
            ..ServerConfig::default()
        },
    );
    let tenants = WEIGHTS
        .iter()
        .map(|&w| {
            server.register_tenant(TenantConfig {
                weight: w,
                queue_capacity: Some(QUEUE_CAP),
                ..TenantConfig::default()
            })
        })
        .collect();
    let mut rng = Rng::new(seed);
    let light = schedule(&mut rng, LIGHT_RPS, phase);
    let heavy = schedule(&mut rng, HEAVY_RPS, phase);
    let flood_slots = (FLOOD_MAX_RPS * phase.as_secs_f64()) as usize;
    let n = light.due_ns.len() + heavy.due_ns.len() + flood_slots;
    let slots = Arc::new(Slots {
        clock: Instant::now(),
        end: zeroed(n),
        start: zeroed(if traced { n } else { 0 }),
        dup: AtomicU64::new(0),
    });
    Env {
        tenants,
        server,
        pool,
        light,
        heavy,
        phase,
        flood_slots,
        slots,
        traced,
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Open {
    offered: u64,
    refused: u64,
    lat_us: Vec<f64>,
    lag_us: Vec<f64>,
    submit_ns: Vec<f64>,
    queue_us: Vec<f64>,
    pool: Option<PoolStats>,
    allocs: u64,
}

fn open_phase(env: &Env, sched: &Schedule, base: usize) -> Open {
    let n = sched.due_ns.len();
    let mut o = Open {
        offered: n as u64,
        lag_us: Vec::with_capacity(n),
        ..Open::default()
    };
    let mut submitted_ns = vec![0u64; if env.traced { n } else { 0 }];
    // Start from a cold pool: every worker parked.
    env.pool.wait_fully_parked(Duration::from_secs(1));
    let p0 = env.pool.stats();
    let a0 = alloc::count();
    let t0 = Instant::now();
    for (i, (&off, &tenant)) in sched.due_ns.iter().zip(&sched.tenant).enumerate() {
        let due = t0 + Duration::from_nanos(off);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        o.lag_us.push(due.elapsed().as_secs_f64() * 1e6);
        let tenant = &env.tenants[tenant as usize];
        let p = parcel(&env.slots, base + i, env.traced);
        let res = if env.traced {
            let a = Instant::now();
            let r = tenant.submit(p);
            let b = Instant::now();
            o.submit_ns.push((b - a).as_secs_f64() * 1e9);
            submitted_ns[i] = env.slots.ns(b);
            r
        } else {
            tenant.submit(p)
        };
        if res.is_err() {
            o.refused += 1;
        }
    }
    env.server.wait_idle(Duration::from_secs(60));
    o.allocs = alloc::count() - a0;
    o.pool = Some(env.pool.stats().since(&p0));
    let t0_ns = env.slots.ns(t0);
    for (i, &off) in sched.due_ns.iter().enumerate() {
        let end = env.slots.end[base + i].load(Ordering::Relaxed);
        if end == 0 {
            continue;
        }
        o.lat_us.push(end.saturating_sub(t0_ns + off) as f64 / 1e3);
        if env.traced {
            let start = env.slots.start[base + i].load(Ordering::Relaxed);
            o.queue_us
                .push(start.saturating_sub(submitted_ns[i]) as f64 / 1e3);
        }
    }
    o
}

/// What the flood phase measured.
#[derive(Default)]
struct Flood {
    accepted: u64,
    refused: u64,
    rate: f64,
    share_err: f64,
    busy_frac: f64,
    queue_us: Vec<f64>,
    pool: Option<PoolStats>,
    allocs: u64,
}

fn completed(tenants: &[TenantHandle]) -> Vec<u64> {
    tenants.iter().map(|t| t.stats().completed).collect()
}

fn flood_phase(env: &Env, base: usize) -> Flood {
    let mut f = Flood::default();
    let limit = base + env.flood_slots;
    let mut submitted_ns: Vec<(usize, u64)> = Vec::new();
    let p0 = env.pool.stats();
    let a0 = alloc::count();
    let start = Instant::now();
    let end = start + env.phase;
    // Completions are counted over a window that opens once the queues
    // have filled, so the rate is the saturated one.
    let warm = start + env.phase / 10;
    let mut window: Option<(Instant, Vec<u64>)> = None;
    let mut busy = Duration::ZERO;
    let mut idx = base;
    'flood: loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if window.is_none() && now >= warm {
            window = Some((now, completed(&env.tenants)));
        }
        let mut any = false;
        for tenant in &env.tenants {
            if idx >= limit {
                break 'flood;
            }
            let p = parcel(&env.slots, idx, env.traced);
            let res = if env.traced {
                let a = Instant::now();
                let r = tenant.submit(p);
                let b = Instant::now();
                if r.is_ok() {
                    if window.is_some() {
                        busy += b - a;
                    }
                    submitted_ns.push((idx, env.slots.ns(b)));
                }
                r
            } else {
                tenant.submit(p)
            };
            match res {
                Ok(_) => {
                    idx += 1;
                    f.accepted += 1;
                    any = true;
                }
                Err(SubmitError::QueueFull) => f.refused += 1,
                Err(SubmitError::TenantClosed) => unreachable!("tenant closed mid-run"),
            }
        }
        if !any {
            // Every queue is full: let the workers and the dispatcher run.
            std::thread::yield_now();
        }
    }
    let t1 = Instant::now();
    let c1 = completed(&env.tenants);
    let (t_w, c0) = window.unwrap_or_else(|| (start, vec![0; env.tenants.len()]));
    let span = (t1 - t_w).as_secs_f64();
    let delta: Vec<u64> = c1.iter().zip(&c0).map(|(a, b)| a - b).collect();
    let total: u64 = delta.iter().sum();
    f.rate = total as f64 / span;
    let wsum: u64 = WEIGHTS.iter().sum();
    f.share_err = delta
        .iter()
        .zip(WEIGHTS)
        .map(|(&d, w)| (d as f64 / total.max(1) as f64 - w as f64 / wsum as f64).abs())
        .fold(0.0, f64::max);
    f.busy_frac = busy.as_secs_f64() / span;
    env.server.wait_idle(Duration::from_secs(60));
    f.allocs = alloc::count() - a0;
    f.pool = Some(env.pool.stats().since(&p0));
    for (i, sub) in submitted_ns {
        let s = env.slots.start[i].load(Ordering::Relaxed);
        f.queue_us.push(s.saturating_sub(sub) as f64 / 1e3);
    }
    f
}

/// The tenants' conservation ledger: every submission settled exactly
/// once. Returns the tenants that leaked.
pub fn ledger_check(stats: &[TenantStats]) -> Result<(), String> {
    let bad: Vec<String> = stats
        .iter()
        .enumerate()
        .filter(|(_, s)| s.settled() != s.submitted)
        .map(|(k, s)| {
            format!(
                "tenant {k}: submitted {} settled {}",
                s.submitted,
                s.settled()
            )
        })
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("ledger does not balance: {}", bad.join("; ")))
    }
}

/// Every completed request stamped its slot exactly once: as many
/// written slots as completions, and no slot written twice.
pub fn slot_check(written: u64, duplicated: u64, completed: u64) -> Result<(), String> {
    if written == completed && duplicated == 0 {
        Ok(())
    } else {
        Err(format!(
            "slots: {written} written, {duplicated} written twice, {completed} completed"
        ))
    }
}

fn per_req(v: u64, reqs: u64) -> f64 {
    v as f64 / reqs.max(1) as f64
}

/// Run the three phases (each `env.phase` long) from one generator
/// thread, check the outputs, and report.
///
/// End-to-end slots: `a_p50_us` = `light` p50, `b_p50_us` = `heavy` p50,
/// `sat_rps` is `flood` completions per second.
pub fn run(env: &Env) -> Report {
    let (slack, light, heavy, flood) = std::thread::scope(|s| {
        s.spawn(|| {
            let slack = host::set_timer_slack_1ns();
            let nl = env.light.due_ns.len();
            let light = open_phase(env, &env.light, 0);
            let heavy = open_phase(env, &env.heavy, nl);
            let flood = flood_phase(env, nl + env.heavy.due_ns.len());
            (slack, light, heavy, flood)
        })
        .join()
        .expect("generator thread panicked")
    });
    let mut r = Report::default();
    if !slack {
        r.note(
            "generator timer slack could not be set to 1 ns: gen.lag_us includes the default slack",
        );
    }
    let stats: Vec<TenantStats> = env.tenants.iter().map(TenantHandle::stats).collect();
    if let Err(e) = ledger_check(&stats) {
        r.fail_check(0, e);
    }
    let done: u64 = stats.iter().map(|s| s.completed).sum();
    let written = env
        .slots
        .end
        .iter()
        .filter(|s| s.load(Ordering::Relaxed) != 0)
        .count() as u64;
    if let Err(e) = slot_check(written, env.slots.dup.load(Ordering::Relaxed), done) {
        r.fail_check(written.abs_diff(done).max(1), e);
    }
    let lost: u64 = stats
        .iter()
        .map(|s| s.shed + s.cancelled + s.failed + s.closed_rejects + s.shutdown_rejects)
        .sum();
    r.attempted = light.offered + heavy.offered + flood.accepted;
    r.failed += light.refused + heavy.refused + lost;

    r.put("a_p50_us", pct(&light.lat_us, 0.5), "us");
    r.put("b_p50_us", pct(&heavy.lat_us, 0.5), "us");
    r.put("sat_rps", flood.rate, "1/s");
    let mut lag = light.lag_us.clone();
    lag.extend_from_slice(&heavy.lag_us);
    r.put("serve.refused.light", light.refused as f64, "count");
    r.put("serve.refused.heavy", heavy.refused as f64, "count");
    r.put("light_p90_us", pct(&light.lat_us, 0.9), "us");
    r.put("heavy_p90_us", pct(&heavy.lat_us, 0.9), "us");
    r.put("gen.lag_us.p50", pct(&lag, 0.5), "us");
    r.put("gen.lag_us.p99", pct(&lag, 0.99), "us");
    if env.traced {
        let mut submit = light.submit_ns.clone();
        submit.extend_from_slice(&heavy.submit_ns);
        r.put("serve.submit_ns.p50", pct(&submit, 0.5), "ns");
        r.put("serve.submit_ns.p99", pct(&submit, 0.99), "ns");
        r.put(
            "serve.refused_per_req",
            per_req(flood.refused, flood.accepted),
            "count",
        );
        r.put(
            "serve.allocs_per_req",
            per_req(light.allocs + heavy.allocs, light.offered + heavy.offered),
            "count",
        );
        r.put(
            "serve.allocs_per_req.flood",
            per_req(flood.allocs, flood.accepted),
            "count",
        );
        for (name, q, n, ps) in [
            ("light", &light.queue_us, light.offered, &light.pool),
            ("heavy", &heavy.queue_us, heavy.offered, &heavy.pool),
            ("flood", &flood.queue_us, flood.accepted, &flood.pool),
        ] {
            let ps = ps.as_ref().expect("phase pool stats");
            r.put(format!("serve.queue_us.{name}.p50"), pct(q, 0.5), "us");
            r.put(format!("serve.queue_us.{name}.p99"), pct(q, 0.99), "us");
            r.put(
                format!("serve.wakes_per_req.{name}"),
                per_req(ps.total_wakes(), n),
                "count",
            );
            r.put(
                format!("serve.parks_per_req.{name}"),
                per_req(ps.parks, n),
                "count",
            );
        }
        r.put("drr.share_err", flood.share_err, "frac");
        r.put("client.busy_frac.flood", flood.busy_frac, "frac");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_identical_for_the_same_seed() {
        let span = Duration::from_millis(200);
        let a = schedule(&mut Rng::new(42), HEAVY_RPS, span);
        let b = schedule(&mut Rng::new(42), HEAVY_RPS, span);
        let c = schedule(&mut Rng::new(43), HEAVY_RPS, span);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // About rate × span arrivals, in order, inside the span, over
        // every tenant.
        let n = a.due_ns.len() as f64;
        assert!((n - 10_000.0).abs() < 500.0, "{n} arrivals");
        assert!(a.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.due_ns.last().unwrap() < span.as_nanos() as u64);
        assert!((0..3).all(|t| a.tenant.contains(&t)));
    }

    #[test]
    fn ledger_check_catches_a_leaked_request() {
        let ok = TenantStats {
            submitted: 10,
            completed: 8,
            rejected_full: 2,
            ..TenantStats::default()
        };
        assert!(ledger_check(&[ok, ok]).is_ok());
        let leaked = TenantStats { completed: 7, ..ok };
        let e = ledger_check(&[ok, leaked]).unwrap_err();
        assert!(e.contains("tenant 1"), "{e}");
    }

    #[test]
    fn slot_check_rejects_missing_and_double_stamps() {
        assert!(slot_check(5, 0, 5).is_ok());
        assert!(slot_check(4, 0, 5).is_err());
        assert!(slot_check(5, 1, 5).is_err());
    }

    #[test]
    fn a_short_run_balances_and_measures() {
        let env = setup(3, Duration::from_millis(150), true);
        let r = run(&env);
        // Tails of so short a run are refused (NaN); the checks must pass.
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        assert!(r.get("a_p50_us").unwrap() > 0.0);
        assert!(r.get("sat_rps").unwrap() > 0.0);
        assert!(r.get("serve.allocs_per_req").unwrap() >= 0.0);
    }
}
