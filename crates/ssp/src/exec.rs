//! Native execution of a partitioned SSP plan — the missing back half of
//! §3.3's "partition the software pipelined code into threads".
//!
//! [`run_partitioned`] takes a rectangular loop nest (trip counts), a
//! pipelined level `ℓ`, a [`PartitionPlan`], and a *point body* (a closure
//! executing one iteration point given its full index vector), and runs it
//! on the native [`Pool`]:
//!
//! * levels outer to `ℓ` execute sequentially — each outer index tuple is
//!   one **wave**, joined before the next starts (outer-carried
//!   dependences are satisfied by construction);
//! * the `N_ℓ` iterations of level `ℓ` split into the plan's contiguous
//!   **groups**; each group runs its `ℓ`-range (with all inner levels
//!   sequential inside it) as one SGT-grain pool job, placed round-robin
//!   across the pool's locality domains;
//! * if the plan has a **wavefront** (a dependence carried at `ℓ`), groups
//!   are chained through [`SyncSlot`]s: group `t+1` is enabled by the
//!   signal group `t` delivers on completion — the conservative reading of
//!   the paper's "group t+1 may only start its first d iterations after
//!   group t finishes its last".
//!
//! [`run_partitioned_body`] also takes a **tile body** ([`TileBody`]): it
//! is called once per group with the group's whole `ℓ`-range and walks
//! the inner levels itself, so per-call setup is paid once per group
//! rather than once per point (a compiled LITL-X kernel asserts its box
//! and borrows its scratch once per tile). A point body goes through the
//! same group machinery, with the executor walking the inner levels.
//!
//! The caller **helps**: while a wave is in flight it keeps claiming
//! enabled groups from the ready queue, so execution completes even on a
//! single-worker pool (the spawned pool jobs then drain as no-ops). This
//! is the same help-first discipline the LITL-X naive `forall` uses.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm_core::{DomainId, Pool, SyncSlot};
use parking_lot::Mutex;

use crate::partition::PartitionPlan;
use crate::ssp::{schedule_all_levels, LevelPlan, SspConfig};

/// One iteration point of the nest: receives the full index vector
/// (outermost level first; absolute at the partitioned level if a nonzero
/// `level_lo` was given, 0-based elsewhere). Errors abort the run after
/// the wave in flight; a **panic** is caught and surfaces the same way
/// (as the wave's `Err`), never as a hang or an unwinding caller.
pub type PointBody = dyn Fn(&[i64]) -> Result<(), String> + Send + Sync;

/// One group's **tile** of the nest: receives the wave's outer index
/// tuple (`outer`, one entry per level outside the partitioned level,
/// 0-based) plus the group's half-open range `lo..hi` at the partitioned
/// level (absolute, like [`PointBody`]'s entry there), and executes every
/// point of the tile — each `ℓ`-iteration with all inner levels full and
/// sequential, in lexicographic order. Errors and panics surface exactly
/// as for [`PointBody`].
pub type TileBody = dyn Fn(&[i64], i64, i64) -> Result<(), String> + Send + Sync;

/// The two granularities a partitioned nest can execute at.
#[derive(Clone)]
pub enum NestBody {
    /// Call the body once per iteration point.
    Point(Arc<PointBody>),
    /// Call the body once per group (see [`TileBody`]).
    Tile(Arc<TileBody>),
}

/// What happened during a partitioned native run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    /// The partitioned (pipelined) level.
    pub level: usize,
    /// Groups per wave.
    pub groups: u64,
    /// Waves executed (product of the outer trip counts).
    pub waves: u64,
    /// Whether groups were chained through a signal wavefront.
    pub wavefront: bool,
    /// Iteration points executed.
    pub points: u64,
    /// Contiguous innermost runs those points form: one per group when
    /// the partitioned level is the innermost, else one per index tuple
    /// of the non-innermost levels. Derived from the geometry.
    pub runs: u64,
    /// Pool jobs spawned (one per group per wave).
    pub spawned: u64,
    /// Groups executed by the helping caller rather than a pool worker.
    pub caller_ran: u64,
    /// Intended locality-domain placement, one entry per group (round-robin
    /// over the pool's domains; also recorded in
    /// [`htvm_core::PoolStats::domain_spawns`]).
    pub group_domains: Vec<u64>,
}

/// A level choice plus its thread partition, ready to execute.
#[derive(Debug, Clone)]
pub struct NestExecPlan {
    /// The schedule of the chosen level.
    pub level_plan: LevelPlan,
    /// The split of that level's iterations into thread groups.
    pub partition: PartitionPlan,
}

/// Choose the level to partition for native execution, restricted to
/// `allowed_levels` (e.g. the `forall` levels of a LITL-X nest — a
/// sequential `for` level must not be parallelized by fiat).
///
/// Preference order: wavefront-free levels first (a carried dependence
/// serializes adjacent groups), then minimum modelled cycles, then
/// outermost. Returns `None` if no allowed level can be pipelined.
pub fn plan_native(
    trip_counts: &[u64],
    plans: &[LevelPlan],
    allowed_levels: &[usize],
    threads: u64,
) -> Option<NestExecPlan> {
    let best = plans
        .iter()
        .filter(|p| allowed_levels.contains(&p.level))
        .min_by_key(|p| (p.max_carried_distance > 0, p.total_cycles, p.level))?;
    let partition = PartitionPlan::new(best, trip_counts[best.level], threads);
    Some(NestExecPlan {
        level_plan: best.clone(),
        partition,
    })
}

/// [`plan_native`] over freshly scheduled levels of `nest`.
pub fn plan_native_nest(
    nest: &crate::ir::LoopNest,
    cfg: &SspConfig,
    allowed_levels: &[usize],
    threads: u64,
) -> Option<NestExecPlan> {
    let plans = schedule_all_levels(nest, cfg);
    plan_native(&nest.trip_counts, &plans, allowed_levels, threads)
}

/// One wave's state, shared by the helping caller and the spawned pool
/// jobs. Owns the full geometry so pool jobs need no borrows.
struct Wave {
    // Geometry.
    outer: Vec<i64>,
    inner_counts: Vec<u64>,
    level: usize,
    depth: usize,
    group_ranges: Vec<(u64, u64)>,
    lo: i64,
    body: NestBody,
    // Scheduling.
    ready: Mutex<VecDeque<u64>>,
    /// Chain slots (`slots[g]` enables group `g`); filled before the wave
    /// is released. The slot actions hold the `Wave` in an `Arc` cycle
    /// that resolves once every slot has fired (every group is always
    /// enabled, even on error, so no wave leaks).
    slots: Mutex<Vec<Arc<SyncSlot>>>,
    finished: AtomicU64,
    /// The error of the lowest-indexed failing group so far, with that
    /// index. Keeping the minimum (not the first to arrive) makes a
    /// failing wave's error a function of the nest, not of the schedule.
    error: Mutex<Option<(u64, String)>>,
    caller_ran: AtomicU64,
}

/// Completion bookkeeping for one claimed group, run from `Drop` so it
/// happens **even when the group's body unwinds**: the successor slot is
/// signalled and `finished` is incremented no matter how the group ends.
/// Without this, a panicking [`PointBody`] on a pool worker would be
/// contained by the pool's `catch_unwind` while the wave never learns the
/// group died — `run_partitioned`'s help loop then livelocks forever on
/// `finished < num_groups`.
struct GroupDone<'a> {
    wave: &'a Arc<Wave>,
    group: u64,
    by_caller: bool,
}

impl Drop for GroupDone<'_> {
    fn drop(&mut self) {
        if self.by_caller {
            self.wave.caller_ran.fetch_add(1, Ordering::Relaxed);
        }
        // Enable the successor (wavefront chains only; parallel waves have
        // every slot released up front). A dead group must still signal,
        // or the rest of the chain starves behind it.
        let next = self.wave.slots.lock().get(self.group as usize + 1).cloned();
        if let Some(s) = next {
            s.signal();
        }
        self.wave.finished.fetch_add(1, Ordering::Release);
    }
}

/// Whether group `g` sorts before the recorded failure, if any: such a
/// group still runs, and its error replaces the recorded one.
fn precedes(error: &Option<(u64, String)>, g: u64) -> bool {
    error.as_ref().is_none_or(|(eg, _)| g < *eg)
}

/// Best-effort text of a panic payload (the common `&str`/`String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

impl Wave {
    /// Claim one enabled group. Returns `false` if none is ready.
    ///
    /// Panic-safe: the body runs under `catch_unwind`, a panic is recorded
    /// as the wave's error, and the [`GroupDone`] drop guard performs the
    /// completion bookkeeping on every exit path — so neither a panicking
    /// body nor an unwinding caller can wedge the wave. A group is skipped
    /// only when a lower-indexed group has already failed: every group
    /// below the current error still runs, so the wave ends holding the
    /// error of its lowest-indexed failing group (each group runs its
    /// points in order, so that is the first failing point of the lowest
    /// failing group) whatever order the groups ran in. Because the panic
    /// is caught *here*, it never reaches the pool's own containment:
    /// `PoolStats::panics` deliberately stays at zero for SSP body panics
    /// — the wave's `Err("group N panicked: …")` is their reporting
    /// channel, and the pool counter keeps meaning "panics that escaped a
    /// job unhandled".
    fn try_run_one(self: &Arc<Self>, by_caller: bool) -> bool {
        let Some(g) = self.ready.lock().pop_front() else {
            return false;
        };
        let _done = GroupDone {
            wave: self,
            group: g,
            by_caller,
        };
        if precedes(&self.error.lock(), g) {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute_group(g)))
                    .unwrap_or_else(|p| {
                        Err(format!("group {g} panicked: {}", panic_message(p.as_ref())))
                    });
            if let Err(e) = outcome {
                let mut slot = self.error.lock();
                if precedes(&slot, g) {
                    *slot = Some((g, e));
                }
            }
        }
        true
    }

    /// Run every iteration point of group `g`: its `ℓ`-range, all inner
    /// levels sequential (lexicographic) inside each `ℓ`-iteration. A
    /// [`NestBody::Tile`] body receives the whole range as one call.
    fn execute_group(&self, g: u64) -> Result<(), String> {
        let (glo, ghi) = self.group_ranges[g as usize];
        let (lo, hi) = (self.lo + glo as i64, self.lo + ghi as i64);
        match &self.body {
            NestBody::Point(b) => self.execute_group_points(lo, hi, &**b),
            NestBody::Tile(t) => t(&self.outer, lo, hi),
        }
    }

    /// The point-body adapter: walk the tile `lo..hi` (absolute at the
    /// partitioned level) point by point, inner levels as an odometer.
    fn execute_group_points(&self, lo: i64, hi: i64, body: &PointBody) -> Result<(), String> {
        let mut idx = vec![0i64; self.depth];
        idx[..self.level].copy_from_slice(&self.outer);
        let inner_total: u64 = self.inner_counts.iter().product();
        for l in lo..hi {
            idx[self.level] = l;
            for t in 0..inner_total {
                let mut rem = t;
                for (k, &n) in self.inner_counts.iter().enumerate().rev() {
                    idx[self.level + 1 + k] = (rem % n) as i64;
                    rem /= n;
                }
                body(&idx)?;
            }
        }
        Ok(())
    }
}

/// Execute a partitioned nest on the native pool. `trip_counts` describe
/// the rectangular nest (outermost first); `level_lo` is the absolute
/// value of the partitioned level's first iteration (the body sees
/// absolute indices at `level` — callers whose loops start at 0 pass 0).
///
/// Returns the error of the first failing wave's lowest-indexed failing
/// group — the same error whatever order the groups ran in — after
/// finishing the wave in flight. A body that panics (instead of returning
/// `Err`) is caught wherever it ran — helping caller or pool worker —
/// recorded as its group's error, and still signals its successor group,
/// so the run ends in `Err` rather than livelocking on a group that will
/// never finish.
pub fn run_partitioned(
    pool: &Arc<Pool>,
    trip_counts: &[u64],
    level: usize,
    level_lo: i64,
    part: &PartitionPlan,
    body: Arc<PointBody>,
) -> Result<ExecReport, String> {
    run_partitioned_body(
        pool,
        trip_counts,
        level,
        level_lo,
        part,
        NestBody::Point(body),
    )
}

/// [`run_partitioned`] at either granularity: a [`NestBody::Tile`] body
/// receives each group as one `(outer, lo..hi)` call instead of single
/// points, with identical traversal order, wavefront chaining, placement
/// and error/panic semantics.
pub fn run_partitioned_body(
    pool: &Arc<Pool>,
    trip_counts: &[u64],
    level: usize,
    level_lo: i64,
    part: &PartitionPlan,
    body: NestBody,
) -> Result<ExecReport, String> {
    if level >= trip_counts.len() {
        return Err(format!(
            "partition level {level} out of range for a depth-{} nest",
            trip_counts.len()
        ));
    }
    let mut report = ExecReport {
        level,
        groups: 0,
        waves: 0,
        wavefront: part.wavefront,
        points: 0,
        runs: 0,
        spawned: 0,
        caller_ran: 0,
        group_domains: Vec::new(),
    };
    if trip_counts.contains(&0) {
        return Ok(report); // nothing to run
    }
    let n_l = trip_counts[level];
    let group_size = part.group.max(1);
    let group_ranges: Vec<(u64, u64)> = (0..n_l.div_ceil(group_size))
        .map(|g| (g * group_size, ((g + 1) * group_size).min(n_l)))
        .collect();
    let num_groups = group_ranges.len() as u64;
    let nd = pool.num_domains() as u64;
    let group_domains: Vec<u64> = (0..num_groups).map(|g| g % nd).collect();
    let waves: u64 = trip_counts[..level].iter().product();
    let wave_points: u64 = trip_counts[level..].iter().product();
    let wave_runs = if level + 1 == trip_counts.len() {
        num_groups
    } else {
        trip_counts[level..trip_counts.len() - 1].iter().product()
    };
    report.groups = num_groups;
    report.group_domains = group_domains.clone();

    for w in 0..waves {
        // Decompose the wave number into the outer index tuple.
        let mut outer = vec![0i64; level];
        let mut rem = w;
        for (k, &n) in trip_counts[..level].iter().enumerate().rev() {
            outer[k] = (rem % n) as i64;
            rem /= n;
        }
        let wave = Arc::new(Wave {
            outer,
            inner_counts: trip_counts[level + 1..].to_vec(),
            level,
            depth: trip_counts.len(),
            group_ranges: group_ranges.clone(),
            lo: level_lo,
            body: body.clone(),
            ready: Mutex::new(VecDeque::with_capacity(num_groups as usize)),
            slots: Mutex::new(Vec::new()),
            finished: AtomicU64::new(0),
            error: Mutex::new(None),
            caller_ran: AtomicU64::new(0),
        });
        if part.wavefront {
            // Build the enable slots with one guard signal each, so no
            // group can fire before the whole chain (and its successor
            // slots) is in place. Slot g's action enqueues group g and
            // spawns a pickup job into the group's home domain.
            let slots: Vec<Arc<SyncSlot>> = (0..num_groups)
                .map(|g| {
                    let chain = if g > 0 { 1 } else { 0 };
                    let wv = wave.clone();
                    let pl = pool.clone();
                    let domain = DomainId(group_domains[g as usize]);
                    SyncSlot::with_action(1 + chain, move || {
                        wv.ready.lock().push_back(g);
                        let wv2 = wv.clone();
                        pl.spawn_in(domain, move |_| {
                            // The helping caller may have claimed this
                            // group already; the queue pop decides, so
                            // nothing runs twice and late pickups are
                            // no-ops.
                            wv2.try_run_one(false);
                        });
                    })
                })
                .collect();
            *wave.slots.lock() = slots.clone();
            // Release the guard signals: group 0 becomes ready; the rest
            // of the chain fires as predecessors finish.
            for s in &slots {
                s.signal();
            }
        } else {
            // No wavefront: every group is ready at once — enqueue them
            // all and batch-spawn the pickup jobs (the batch delivers at
            // most one targeted wake per job, grouped by home domain).
            {
                let mut q = wave.ready.lock();
                q.extend(0..num_groups);
            }
            pool.spawn_batch_in((0..num_groups).map(|g| {
                let wv = wave.clone();
                let job = move |_: &htvm_core::WorkerCtx<'_>| {
                    wv.try_run_one(false);
                };
                (DomainId(group_domains[g as usize]), job)
            }));
        }
        report.spawned += num_groups;
        // Help until the wave drains — never block: the caller may *be* a
        // pool worker (a pool job or a served request running a LITL-X
        // program), and parking it on a single-worker pool would deadlock
        // the wave.
        while wave.finished.load(Ordering::Acquire) < num_groups {
            if !wave.try_run_one(true) {
                std::thread::yield_now();
            }
        }
        report.waves += 1;
        report.caller_ran += wave.caller_ran.load(Ordering::Relaxed);
        let err = wave.error.lock().take();
        if let Some((_, e)) = err {
            return Err(e);
        }
        report.points += wave_points;
        report.runs += wave_runs;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LoopNest;
    use htvm_core::Topology;
    use std::sync::atomic::AtomicBool;

    fn pool(topo: Topology) -> Arc<Pool> {
        Arc::new(Pool::with_topology(topo))
    }

    /// Every point of a parallel 2-D nest runs exactly once.
    #[test]
    fn parallel_nest_covers_every_point_once() {
        let nest = LoopNest::elementwise(8, 6);
        let plan = plan_native_nest(&nest, &SspConfig::default(), &[0, 1], 4).unwrap();
        assert!(!plan.partition.wavefront);
        let seen: Arc<Vec<AtomicU64>> = Arc::new((0..48).map(|_| AtomicU64::new(0)).collect());
        let s2 = seen.clone();
        let body: Arc<PointBody> = Arc::new(move |idx| {
            s2[(idx[0] * 6 + idx[1]) as usize].fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let p = pool(Topology::domains(2, 2));
        let level = plan.level_plan.level;
        let rep = run_partitioned(&p, &nest.trip_counts, level, 0, &plan.partition, body).unwrap();
        p.wait_quiescent();
        assert_eq!(rep.points, 48);
        assert!(rep.groups >= 2);
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "point {i} ran a wrong number of times"
            );
        }
        // Placement is round-robin over the 2 domains.
        assert!(rep.group_domains.contains(&0));
        assert!(rep.group_domains.contains(&1));
        assert_eq!(p.stats().total_domain_spawns(), rep.spawned);
    }

    /// A dependence carried at the partitioned level runs as a wavefront:
    /// each level-iteration observes its predecessor's write.
    #[test]
    fn wavefront_respects_carried_dependence() {
        let nest = LoopNest::stencil_like(16, 4);
        // Partition the *time* level (0): it carries the recurrence.
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 0).unwrap();
        let part = PartitionPlan::new(plan, 16, 4);
        assert!(part.wavefront);
        let flags: Arc<Vec<AtomicBool>> =
            Arc::new((0..16).map(|_| AtomicBool::new(false)).collect());
        let f2 = flags.clone();
        let body: Arc<PointBody> = Arc::new(move |idx| {
            let t = idx[0] as usize;
            if t > 0 && !f2[t - 1].load(Ordering::SeqCst) {
                return Err(format!("iteration {t} ran before {}", t - 1));
            }
            if idx[1] == 3 {
                f2[t].store(true, Ordering::SeqCst);
            }
            Ok(())
        });
        let p = pool(Topology::domains(2, 2));
        let rep = run_partitioned(&p, &nest.trip_counts, 0, 0, &part, body).unwrap();
        p.wait_quiescent();
        assert!(rep.wavefront);
        assert_eq!(rep.points, 64);
        assert_eq!(rep.groups, 4);
    }

    /// Outer levels run as sequentially joined waves.
    #[test]
    fn outer_levels_execute_as_sequential_waves() {
        let nest = LoopNest::matmul_like(3, 4, 2);
        // Partition the middle level: 3 outer waves of 4 groups.
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 1).unwrap();
        let part = PartitionPlan::new(plan, 4, 4);
        let max_seen_wave = Arc::new(AtomicU64::new(0));
        let m2 = max_seen_wave.clone();
        let body: Arc<PointBody> = Arc::new(move |idx| {
            let w = idx[0] as u64;
            let prev = m2.fetch_max(w, Ordering::SeqCst);
            if prev > w {
                return Err(format!("wave {w} ran after wave {prev}"));
            }
            Ok(())
        });
        let p = pool(Topology::flat(2));
        let rep = run_partitioned(&p, &nest.trip_counts, 1, 0, &part, body).unwrap();
        p.wait_quiescent();
        assert_eq!(rep.waves, 3);
        assert_eq!(rep.points, 24);
        assert_eq!(rep.spawned, 12);
    }

    /// Single-worker pools must not deadlock: the caller helps.
    #[test]
    fn single_worker_pool_completes() {
        let nest = LoopNest::stencil_like(8, 8);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 0).unwrap();
        let part = PartitionPlan::new(plan, 8, 4);
        let count = Arc::new(AtomicU64::new(0));
        let c2 = count.clone();
        let body: Arc<PointBody> = Arc::new(move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let p = pool(Topology::flat(1));
        let rep = run_partitioned(&p, &nest.trip_counts, 0, 0, &part, body).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 64);
        assert_eq!(rep.points, 64);
    }

    /// Body errors surface and abort after the wave in flight.
    #[test]
    fn body_errors_propagate() {
        let nest = LoopNest::elementwise(4, 4);
        let plan = plan_native_nest(&nest, &SspConfig::default(), &[0], 2).unwrap();
        let body: Arc<PointBody> = Arc::new(|idx| {
            if idx[0] == 2 && idx[1] == 1 {
                Err("injected failure".to_string())
            } else {
                Ok(())
            }
        });
        let p = pool(Topology::flat(2));
        let err = run_partitioned(&p, &nest.trip_counts, 0, 0, &plan.partition, body).unwrap_err();
        p.wait_quiescent();
        assert!(err.contains("injected failure"));
    }

    /// A wave with several failing groups reports the lowest-indexed
    /// one's error, even when higher groups fail first in time: groups
    /// below the recorded failure still run, and their error replaces it.
    #[test]
    fn lowest_failing_group_wins() {
        let nest = LoopNest::elementwise(8, 2);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 0).unwrap();
        let part = PartitionPlan::new(plan, 8, 8);
        assert_eq!(part.group, 1, "one level-0 iteration per group");
        let body: Arc<PointBody> = Arc::new(|idx| match idx[0] {
            2 => {
                // The lowest failing group fails last.
                std::thread::sleep(std::time::Duration::from_millis(5));
                Err("group 2 failed".to_string())
            }
            g if g > 2 => Err(format!("group {g} failed")),
            _ => Ok(()),
        });
        let p = pool(Topology::domains(2, 1));
        for _ in 0..10 {
            let err =
                run_partitioned(&p, &nest.trip_counts, 0, 0, &part, body.clone()).unwrap_err();
            assert_eq!(err, "group 2 failed");
        }
        p.wait_quiescent();
    }

    /// A body that panics mid-wave (instead of returning `Err`) must
    /// surface as the wave's error, not livelock the help loop — on a
    /// single-worker pool the helping caller runs the group itself, so
    /// this also proves the caller path contains the unwind.
    #[test]
    fn panicking_body_errors_on_single_worker() {
        let nest = LoopNest::stencil_like(8, 4);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 0).unwrap();
        let part = PartitionPlan::new(plan, 8, 4);
        assert!(part.wavefront, "time level carries the recurrence");
        let body: Arc<PointBody> = Arc::new(|idx| {
            if idx[0] == 3 {
                panic!("injected panic at t={}", idx[0]);
            }
            Ok(())
        });
        let p = pool(Topology::flat(1));
        let err = run_partitioned(&p, &nest.trip_counts, 0, 0, &part, body).unwrap_err();
        p.wait_quiescent();
        assert!(err.contains("panicked"), "err: {err}");
        assert!(err.contains("injected panic"), "err: {err}");
    }

    /// Same on a grouped multi-worker topology and a parallel (no
    /// wavefront) plan: panicking groups may run on pool workers, whose
    /// `catch_unwind` used to swallow the death without the wave ever
    /// learning — `run_partitioned` then spun forever.
    #[test]
    fn panicking_body_errors_on_grouped_topology() {
        let nest = LoopNest::elementwise(8, 6);
        let plan = plan_native_nest(&nest, &SspConfig::default(), &[0, 1], 4).unwrap();
        assert!(!plan.partition.wavefront);
        let body: Arc<PointBody> = Arc::new(|idx| {
            if idx[0] == 5 {
                panic!("boom");
            }
            Ok(())
        });
        let p = pool(Topology::domains(2, 2));
        let level = plan.level_plan.level;
        let err =
            run_partitioned(&p, &nest.trip_counts, level, 0, &plan.partition, body).unwrap_err();
        p.wait_quiescent();
        assert!(err.contains("panicked"), "err: {err}");
        // The pool survives and takes new work afterwards.
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        p.spawn(move |_| {
            d.fetch_add(1, Ordering::SeqCst);
        });
        p.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    /// A panic in an early wave aborts before later waves start (same
    /// abort-after-the-wave-in-flight contract as a returned `Err`).
    #[test]
    fn panic_aborts_after_wave_in_flight() {
        let nest = LoopNest::matmul_like(3, 4, 2);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 1).unwrap();
        let part = PartitionPlan::new(plan, 4, 4);
        let max_wave = Arc::new(AtomicU64::new(0));
        let m2 = max_wave.clone();
        let body: Arc<PointBody> = Arc::new(move |idx| {
            m2.fetch_max(idx[0] as u64, Ordering::SeqCst);
            if idx[0] == 0 {
                panic!("first wave dies");
            }
            Ok(())
        });
        let p = pool(Topology::flat(2));
        let err = run_partitioned(&p, &nest.trip_counts, 1, 0, &part, body).unwrap_err();
        p.wait_quiescent();
        assert!(err.contains("panicked"), "err: {err}");
        assert_eq!(
            max_wave.load(Ordering::SeqCst),
            0,
            "no wave after the dead one may start"
        );
    }

    /// `level_lo` translates the partitioned level's indices.
    #[test]
    fn level_lo_offsets_partitioned_level() {
        let trips = [4u64];
        let nest = LoopNest::elementwise(4, 1);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let part = PartitionPlan::new(&plans[0], 4, 2);
        let sum = Arc::new(AtomicU64::new(0));
        let s2 = sum.clone();
        let body: Arc<PointBody> = Arc::new(move |idx| {
            s2.fetch_add(idx[0] as u64, Ordering::SeqCst);
            Ok(())
        });
        let p = pool(Topology::flat(2));
        run_partitioned(&p, &trips, 0, 10, &part, body).unwrap();
        p.wait_quiescent();
        assert_eq!(sum.load(Ordering::SeqCst), 10 + 11 + 12 + 13);
    }

    /// A tile body sees every point exactly once — one call per group
    /// per wave, walking the inner level itself — when an *outer* level
    /// is partitioned.
    #[test]
    fn run_body_covers_every_point_once_outer_level() {
        let nest = LoopNest::matmul_like(4, 3, 5);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 1).unwrap();
        let part = PartitionPlan::new(plan, 3, 2);
        let seen: Arc<Vec<AtomicU64>> = Arc::new((0..60).map(|_| AtomicU64::new(0)).collect());
        let tiles = Arc::new(AtomicU64::new(0));
        let (s2, t2) = (seen.clone(), tiles.clone());
        let body: Arc<TileBody> = Arc::new(move |outer, lo, hi| {
            assert_eq!(outer.len(), 1, "the levels outside the partitioned one");
            t2.fetch_add(1, Ordering::SeqCst);
            for j in lo..hi {
                for k in 0..5 {
                    s2[((outer[0] * 3 + j) * 5 + k) as usize].fetch_add(1, Ordering::SeqCst);
                }
            }
            Ok(())
        });
        let p = pool(Topology::flat(2));
        let rep =
            run_partitioned_body(&p, &nest.trip_counts, 1, 0, &part, NestBody::Tile(body)).unwrap();
        p.wait_quiescent();
        assert_eq!(rep.points, 60);
        assert_eq!(rep.runs, 12, "one full innermost span per (i, j)");
        assert_eq!(tiles.load(Ordering::SeqCst), rep.waves * rep.groups);
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "point {i}");
        }
    }

    /// When the partitioned level *is* the innermost one, each group's
    /// range arrives as a single span (offset by `level_lo`).
    #[test]
    fn run_body_spans_partitioned_innermost_level() {
        let trips = [8u64];
        let nest = LoopNest::elementwise(8, 1);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let part = PartitionPlan::new(&plans[0], 8, 4);
        let sum = Arc::new(AtomicU64::new(0));
        let tiles = Arc::new(AtomicU64::new(0));
        let (s2, t2) = (sum.clone(), tiles.clone());
        let body: Arc<TileBody> = Arc::new(move |outer, lo, hi| {
            assert!(outer.is_empty());
            t2.fetch_add(1, Ordering::SeqCst);
            for t in lo..hi {
                s2.fetch_add(t as u64, Ordering::SeqCst);
            }
            Ok(())
        });
        let p = pool(Topology::flat(2));
        let rep = run_partitioned_body(&p, &trips, 0, 100, &part, NestBody::Tile(body)).unwrap();
        p.wait_quiescent();
        assert_eq!(rep.points, 8);
        assert_eq!(rep.runs, tiles.load(Ordering::SeqCst));
        assert_eq!(rep.runs, rep.groups);
        assert_eq!(sum.load(Ordering::SeqCst), (100..108).sum::<u64>());
    }

    /// Tile-body errors propagate like point-body errors.
    #[test]
    fn run_body_errors_propagate() {
        let nest = LoopNest::elementwise(6, 4);
        let plan = plan_native_nest(&nest, &SspConfig::default(), &[0], 3).unwrap();
        let body: Arc<TileBody> = Arc::new(|_, lo, hi| {
            if (lo..hi).contains(&4) {
                Err("tile failed".to_string())
            } else {
                Ok(())
            }
        });
        let p = pool(Topology::flat(2));
        let err = run_partitioned_body(
            &p,
            &nest.trip_counts,
            0,
            0,
            &plan.partition,
            NestBody::Tile(body),
        )
        .unwrap_err();
        p.wait_quiescent();
        assert_eq!(err, "tile failed");
    }

    /// Planning restricted to `allowed_levels` never picks a forbidden
    /// level, and prefers a wavefront-free one.
    #[test]
    fn plan_native_respects_allowed_levels() {
        let nest = LoopNest::stencil_like(8, 64);
        // Both levels schedulable; level 1 is wavefront-free.
        let plan = plan_native_nest(&nest, &SspConfig::default(), &[0, 1], 4).unwrap();
        assert_eq!(plan.level_plan.level, 1, "space level is parallel");
        assert!(!plan.partition.wavefront);
        let only_time = plan_native_nest(&nest, &SspConfig::default(), &[0], 4).unwrap();
        assert_eq!(only_time.level_plan.level, 0);
        assert!(only_time.partition.wavefront);
        assert!(plan_native_nest(&nest, &SspConfig::default(), &[], 4).is_none());
    }
}
