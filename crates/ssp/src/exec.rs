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
//!   **groups**; each group runs its `ℓ`-range with all inner levels
//!   sequential inside it;
//! * each wave has a [`Placement`]. A **spread** wave runs each group as
//!   one SGT-grain pool job, placed round-robin across the pool's
//!   locality domains; if the plan has a **wavefront** (a dependence
//!   carried at `ℓ`), its groups are chained through [`SyncSlot`]s: group
//!   `t+1` is enabled by the signal group `t` delivers on completion — the
//!   conservative reading of the paper's "group t+1 may only start its
//!   first d iterations after group t finishes its last". An **inline**
//!   wave runs its groups in index order on the calling thread, which
//!   satisfies a wavefront by itself, and spawns nothing.
//!
//! [`run_partitioned_body`] also takes a **tile body** ([`TileBody`]): it
//! is called once per group with the group's whole `ℓ`-range and walks
//! the inner levels itself, so per-call setup is paid once per group
//! rather than once per point (a compiled LITL-X kernel asserts its box
//! and borrows its scratch once per tile). A point body goes through the
//! same group machinery, with the executor walking the inner levels.
//!
//! In a spread wave the caller **helps**: while the wave is in flight it
//! keeps claiming enabled groups from the ready queue, so execution
//! completes even on a single-worker pool (the spawned pool jobs then
//! drain as no-ops). This is the same help-first discipline the LITL-X
//! naive `forall` uses.
//!
//! # Placement
//!
//! Spreading a wave of `g` groups costs a pool wake and then `work / g`
//! (the groups run side by side); running it inline costs `work`.
//! [`spread_pays`] is that break-even, `work·(g−1) > wake·g`; a single
//! group never pays. Both costs are measured in situ, by the runs
//! themselves, with no calibration pass:
//!
//! * **work** — the calling thread times the groups it runs itself: all
//!   of them inline, the ones it helped with when spread
//!   ([`ExecReport::caller_ns`] over [`ExecReport::caller_points`] is its
//!   cost per point);
//! * **wake** — the first pool job of each spread wave records how long
//!   after the wave was built it started, into the [`WakeMeter`] the
//!   wave was spread with. It records even when it starts after the
//!   caller drained the wave alone, so slow wakes count as fully as fast
//!   ones.
//!
//! A caller that lacks either measurement spreads — the behaviour before
//! placement existed, and the run that produces both measurements. Both
//! placements give the same result: every point runs once in the same
//! per-group order, and a failing wave ends with the error of its
//! lowest-indexed failing group (`group g panicked: …` for a panic).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// Where a wave's groups run (module docs, "Placement").
#[derive(Debug, Clone)]
pub enum Placement {
    /// Every group in index order on the calling thread: no pool job, no
    /// ready queue, no chain slots.
    Inline,
    /// One pool job per group, placed round-robin over the pool's
    /// domains and chained under a wavefront; the caller helps. Each
    /// wave's first job records its wake into the meter.
    Spread(Arc<WakeMeter>),
}

/// Whether spreading a wave of `groups` groups pays, given the wave's
/// measured work on one thread (`work_ns`) and the pool's measured
/// spawn→start latency (`wake_ns`): only when
/// `work·(groups − 1) > wake·groups`. One group never pays; with more, a
/// missing measurement spreads, which is how it gets measured.
pub fn spread_pays(groups: u64, work_ns: Option<f64>, wake_ns: Option<f64>) -> bool {
    match (work_ns, wake_ns) {
        _ if groups <= 1 => false,
        (Some(work), Some(wake)) => work * (groups - 1) as f64 > wake * groups as f64,
        _ => true,
    }
}

/// The mean spawn→start latency of the first pool job of every wave
/// spread with this meter, in nanoseconds. A caller keeps one per pool
/// and spreads its waves with it (a LITL-X interpreter keeps one).
#[derive(Debug, Default)]
pub struct WakeMeter {
    sum_ns: AtomicU64,
    /// Latencies recorded; published after their sum, so a reader's sum
    /// covers at least the samples it counts.
    samples: AtomicU64,
}

impl WakeMeter {
    /// The mean latency, `None` before the first sample.
    pub fn mean_ns(&self) -> Option<f64> {
        let n = self.samples.load(Ordering::Acquire);
        (n > 0).then(|| self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64)
    }

    fn record(&self, ns: u64) {
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Release);
    }
}

/// What happened during a partitioned native run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// The partitioned (pipelined) level.
    pub level: usize,
    /// Groups per wave.
    pub groups: u64,
    /// Waves executed (product of the outer trip counts).
    pub waves: u64,
    /// Waves that ran [`Placement::Inline`]; the others were spread.
    pub inline_waves: u64,
    /// Whether groups were chained through a signal wavefront.
    pub wavefront: bool,
    /// Iteration points executed.
    pub points: u64,
    /// Contiguous innermost runs those points form: one per group when
    /// the partitioned level is the innermost, else one per index tuple
    /// of the non-innermost levels. Derived from the geometry.
    pub runs: u64,
    /// Pool jobs spawned (one per group per spread wave).
    pub spawned: u64,
    /// Groups executed by the calling thread rather than a pool worker
    /// (every group of an inline wave).
    pub caller_ran: u64,
    /// Wall time the calling thread spent running those groups, in
    /// nanoseconds.
    pub caller_ns: u64,
    /// Iteration points in those groups.
    pub caller_points: u64,
    /// Intended locality-domain placement, one entry per group (round-robin
    /// over the pool's domains; a spread wave's spawns are also recorded
    /// in [`htvm_core::PoolStats::domain_spawns`]).
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

/// A run's nest geometry and body, the same for all of its waves:
/// borrowed by inline waves, owned behind an `Arc` by spread ones (their
/// pool jobs may outlive the run).
struct Geometry<'t> {
    trips: Cow<'t, [u64]>,
    level: usize,
    /// Iterations per group at the partitioned level (the last group may
    /// be short).
    group: u64,
    /// Absolute index of the partitioned level's first iteration.
    lo: i64,
    body: NestBody,
}

impl Geometry<'_> {
    /// Group `g`'s absolute range at the partitioned level.
    fn range(&self, g: u64) -> (i64, i64) {
        let start = g * self.group;
        let end = (start + self.group).min(self.trips[self.level]);
        (self.lo + start as i64, self.lo + end as i64)
    }

    /// Iteration points in group `g`.
    fn points(&self, g: u64) -> u64 {
        let (lo, hi) = self.range(g);
        (hi - lo) as u64 * self.trips[self.level + 1..].iter().product::<u64>()
    }

    /// Run every iteration point of group `g` of the wave at `outer`: its
    /// `ℓ`-range, all inner levels sequential (lexicographic) inside each
    /// `ℓ`-iteration. A [`NestBody::Tile`] body receives the whole range
    /// as one call. A panic comes back as the group's error.
    fn run_group(&self, outer: &[i64], g: u64) -> Result<(), String> {
        let (lo, hi) = self.range(g);
        catch_unwind(AssertUnwindSafe(|| match &self.body {
            NestBody::Point(b) => self.walk_points(outer, lo, hi, &**b),
            NestBody::Tile(t) => t(outer, lo, hi),
        }))
        .unwrap_or_else(|p| Err(format!("group {g} panicked: {}", panic_message(p.as_ref()))))
    }

    /// The point-body adapter: walk the tile `lo..hi` (absolute at the
    /// partitioned level) point by point, inner levels as an odometer.
    fn walk_points(&self, outer: &[i64], lo: i64, hi: i64, body: &PointBody) -> Result<(), String> {
        let inner = &self.trips[self.level + 1..];
        let mut idx = vec![0i64; self.trips.len()];
        idx[..self.level].copy_from_slice(outer);
        let inner_total: u64 = inner.iter().product();
        for l in lo..hi {
            idx[self.level] = l;
            for t in 0..inner_total {
                let mut rem = t;
                for (k, &n) in inner.iter().enumerate().rev() {
                    idx[self.level + 1 + k] = (rem % n) as i64;
                    rem /= n;
                }
                body(&idx)?;
            }
        }
        Ok(())
    }

    fn to_owned(&self) -> Geometry<'static> {
        Geometry {
            trips: Cow::Owned(self.trips.to_vec()),
            level: self.level,
            group: self.group,
            lo: self.lo,
            body: self.body.clone(),
        }
    }
}

/// One spread wave's state, shared by the helping caller and the spawned
/// pool jobs.
struct Wave {
    geom: Arc<Geometry<'static>>,
    outer: Vec<i64>,
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
    /// When the wave was built, just before its first spawn.
    built: Instant,
    /// Where the first pool job records how long after `built` it started.
    wake: Arc<WakeMeter>,
    /// Whether a pool job has started.
    woken: AtomicBool,
}

/// Completion bookkeeping for one claimed group, run from `Drop` so it
/// happens **even when the group's run unwinds**: the successor slot is
/// signalled and `finished` is incremented no matter how the group ends.
/// Without this, a group dying on a pool worker would be contained by the
/// pool's `catch_unwind` while the wave never learns the group died —
/// the caller's help loop then livelocks forever on `finished <
/// num_groups`.
struct GroupDone<'a> {
    wave: &'a Wave,
    group: u64,
}

impl Drop for GroupDone<'_> {
    fn drop(&mut self) {
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
    /// Claim one enabled group, if any is ready.
    fn claim(&self) -> Option<u64> {
        self.ready.lock().pop_front()
    }

    /// A pool job: the wave's first one records its wake, then each runs
    /// one group if any is left. The helping caller may have claimed them all already; the
    /// queue pop decides, so nothing runs twice and late pickups are
    /// no-ops.
    fn job(&self) {
        if !self.woken.load(Ordering::Relaxed) && !self.woken.swap(true, Ordering::Relaxed) {
            self.wake.record(self.built.elapsed().as_nanos() as u64);
        }
        if let Some(g) = self.claim() {
            self.run(g);
        }
    }

    /// Run claimed group `g`.
    ///
    /// Panic-safe: the group's panic comes back from
    /// [`Geometry::run_group`] as its error, and the [`GroupDone`] drop
    /// guard performs the completion bookkeeping on every exit path — so
    /// neither a panicking body nor an unwinding caller can wedge the
    /// wave. A group is skipped only when a lower-indexed group has
    /// already failed: every group below the current error still runs, so
    /// the wave ends holding the error of its lowest-indexed failing group
    /// (each group runs its points in order, so that is the first failing
    /// point of the lowest failing group) whatever order the groups ran
    /// in. Because the panic is caught *here*, it never reaches the pool's
    /// own containment: `PoolStats::panics` deliberately stays at zero for
    /// SSP body panics — the wave's `Err("group N panicked: …")` is their
    /// reporting channel, and the pool counter keeps meaning "panics that
    /// escaped a job unhandled".
    fn run(&self, g: u64) {
        let _done = GroupDone {
            wave: self,
            group: g,
        };
        if precedes(&self.error.lock(), g) {
            if let Err(e) = self.geom.run_group(&self.outer, g) {
                let mut slot = self.error.lock();
                if precedes(&slot, g) {
                    *slot = Some((g, e));
                }
            }
        }
    }
}

/// Execute a partitioned nest on the native pool, every wave spread.
/// `trip_counts` describe the rectangular nest (outermost first);
/// `level_lo` is the absolute value of the partitioned level's first
/// iteration (the body sees absolute indices at `level` — callers whose
/// loops start at 0 pass 0).
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
        Placement::Spread(Arc::default()),
    )
}

/// [`run_partitioned`] at either granularity and either placement: a
/// [`NestBody::Tile`] body receives each group as one `(outer, lo..hi)`
/// call instead of single points, with identical traversal order,
/// wavefront chaining and error/panic semantics. Every wave of one call
/// has the same shape, so `placement` applies to all of them.
pub fn run_partitioned_body(
    pool: &Arc<Pool>,
    trip_counts: &[u64],
    level: usize,
    level_lo: i64,
    part: &PartitionPlan,
    body: NestBody,
    placement: Placement,
) -> Result<ExecReport, String> {
    if level >= trip_counts.len() {
        return Err(format!(
            "partition level {level} out of range for a depth-{} nest",
            trip_counts.len()
        ));
    }
    let mut report = ExecReport {
        level,
        wavefront: part.wavefront,
        ..ExecReport::default()
    };
    if trip_counts.contains(&0) {
        return Ok(report); // nothing to run
    }
    let geom = Geometry {
        trips: Cow::Borrowed(trip_counts),
        level,
        group: part.group.max(1),
        lo: level_lo,
        body,
    };
    let num_groups = part.groups(trip_counts[level]);
    let nd = pool.num_domains() as u64;
    report.groups = num_groups;
    report.group_domains = (0..num_groups).map(|g| g % nd).collect();
    let waves: u64 = trip_counts[..level].iter().product();
    let wave_points: u64 = trip_counts[level..].iter().product();
    let wave_runs = if level + 1 == trip_counts.len() {
        num_groups
    } else {
        trip_counts[level..trip_counts.len() - 1].iter().product()
    };
    let spread = match placement {
        Placement::Inline => None,
        Placement::Spread(wake) => Some((Arc::new(geom.to_owned()), wake)),
    };
    let mut outer = vec![0i64; level];
    for w in 0..waves {
        // Decompose the wave number into the outer index tuple.
        let mut rem = w;
        for (k, &n) in trip_counts[..level].iter().enumerate().rev() {
            outer[k] = (rem % n) as i64;
            rem /= n;
        }
        match &spread {
            None => run_inline(&geom, &outer, num_groups, wave_points, &mut report)?,
            Some((geom, wake)) => {
                run_spread(pool, geom, wake, &outer, part.wavefront, &mut report)?
            }
        }
        report.waves += 1;
        report.points += wave_points;
        report.runs += wave_runs;
    }
    Ok(report)
}

/// One inline wave: its groups in index order on the calling thread,
/// stopping at the first failure — the lowest failing group.
fn run_inline(
    geom: &Geometry<'_>,
    outer: &[i64],
    num_groups: u64,
    wave_points: u64,
    report: &mut ExecReport,
) -> Result<(), String> {
    let start = Instant::now();
    for g in 0..num_groups {
        geom.run_group(outer, g)?;
    }
    report.caller_ns += start.elapsed().as_nanos() as u64;
    report.caller_points += wave_points;
    report.caller_ran += num_groups;
    report.inline_waves += 1;
    Ok(())
}

/// One spread wave: a pool job per group, the caller helping until the
/// wave drains.
fn run_spread(
    pool: &Arc<Pool>,
    geom: &Arc<Geometry<'static>>,
    wake: &Arc<WakeMeter>,
    outer: &[i64],
    wavefront: bool,
    report: &mut ExecReport,
) -> Result<(), String> {
    let num_groups = report.groups;
    let nd = pool.num_domains() as u64;
    let wave = Arc::new(Wave {
        geom: geom.clone(),
        outer: outer.to_vec(),
        ready: Mutex::new(VecDeque::with_capacity(num_groups as usize)),
        slots: Mutex::new(Vec::new()),
        finished: AtomicU64::new(0),
        error: Mutex::new(None),
        built: Instant::now(),
        wake: wake.clone(),
        woken: AtomicBool::new(false),
    });
    if wavefront {
        // Build the enable slots with one guard signal each, so no group
        // can fire before the whole chain (and its successor slots) is in
        // place. Slot g's action enqueues group g and spawns a pickup job
        // into the group's home domain.
        let slots: Vec<Arc<SyncSlot>> = (0..num_groups)
            .map(|g| {
                let chain = if g > 0 { 1 } else { 0 };
                let wv = wave.clone();
                let pl = pool.clone();
                SyncSlot::with_action(1 + chain, move || {
                    wv.ready.lock().push_back(g);
                    let wv2 = wv.clone();
                    pl.spawn_in(DomainId(g % nd), move |_| wv2.job());
                })
            })
            .collect();
        *wave.slots.lock() = slots.clone();
        // Release the guard signals: group 0 becomes ready; the rest of
        // the chain fires as predecessors finish.
        for s in &slots {
            s.signal();
        }
    } else {
        // No wavefront: every group is ready at once — enqueue them all
        // and batch-spawn the pickup jobs (the batch delivers at most one
        // targeted wake per job, grouped by home domain).
        wave.ready.lock().extend(0..num_groups);
        pool.spawn_batch_in((0..num_groups).map(|g| {
            let wv = wave.clone();
            (DomainId(g % nd), move |_: &htvm_core::WorkerCtx<'_>| {
                wv.job()
            })
        }));
    }
    report.spawned += num_groups;
    // Help until the wave drains — never block: the caller may *be* a pool
    // worker (a pool job or a served request running a LITL-X program),
    // and parking it on a single-worker pool would deadlock the wave.
    while wave.finished.load(Ordering::Acquire) < num_groups {
        match wave.claim() {
            Some(g) => {
                let start = Instant::now();
                wave.run(g);
                report.caller_ns += start.elapsed().as_nanos() as u64;
                report.caller_points += geom.points(g);
                report.caller_ran += 1;
            }
            None => std::thread::yield_now(),
        }
    }
    let err = wave.error.lock().take();
    match err {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LoopNest;
    use htvm_core::Topology;

    /// Every scenario below runs under both placements (a fresh meter
    /// each time).
    fn placements() -> [Placement; 2] {
        [Placement::Spread(Arc::default()), Placement::Inline]
    }

    fn pool(topo: Topology) -> Arc<Pool> {
        Arc::new(Pool::with_topology(topo))
    }

    /// [`run_partitioned_body`] at `placement`, checking the counters that
    /// differ between placements: an inline run spawns nothing and its
    /// caller runs (and times) every group; a spread run spawns one job
    /// per group per wave, and its caller runs at most all of them.
    fn run_at(
        p: &Arc<Pool>,
        trips: &[u64],
        level: usize,
        lo: i64,
        part: &PartitionPlan,
        body: NestBody,
        placement: &Placement,
    ) -> Result<ExecReport, String> {
        let out = run_partitioned_body(p, trips, level, lo, part, body, placement.clone());
        if let Ok(rep) = &out {
            let all = rep.waves * rep.groups;
            match placement {
                Placement::Inline => {
                    assert_eq!(rep.inline_waves, rep.waves);
                    assert_eq!(rep.spawned, 0);
                    assert_eq!(rep.caller_ran, all);
                    assert_eq!(rep.caller_points, rep.points);
                }
                Placement::Spread(wake) => {
                    assert_eq!(rep.inline_waves, 0);
                    assert_eq!(rep.spawned, all);
                    assert!(rep.caller_ran <= all);
                    assert!(rep.caller_points <= rep.points);
                    // Each wave's first job records its wake — those that
                    // start late, once the pool drains.
                    p.wait_quiescent();
                    assert_eq!(wake.samples.load(Ordering::Acquire), rep.waves);
                }
            }
        }
        out
    }

    /// The placement-independent outcome of a run: its `Result`, with
    /// the report cut down to what both placements must agree on.
    type Outcome = Result<(u64, u64, u64, u64, bool, Vec<u64>), String>;

    fn outcome(out: &Result<ExecReport, String>) -> Outcome {
        out.as_ref()
            .map(|r| {
                let domains = r.group_domains.clone();
                (r.points, r.runs, r.waves, r.groups, r.wavefront, domains)
            })
            .map_err(Clone::clone)
    }

    /// Both placements ended the same way.
    fn assert_same(outcomes: &[Outcome]) {
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0], outcomes[1], "spread vs inline");
    }

    /// Every point of a parallel 2-D nest runs exactly once.
    #[test]
    fn parallel_nest_covers_every_point_once() {
        let nest = LoopNest::elementwise(8, 6);
        let plan = plan_native_nest(&nest, &SspConfig::default(), &[0, 1], 4).unwrap();
        assert!(!plan.partition.wavefront);
        let level = plan.level_plan.level;
        let mut outcomes = Vec::new();
        for placement in placements() {
            let seen: Arc<Vec<AtomicU64>> = Arc::new((0..48).map(|_| AtomicU64::new(0)).collect());
            let s2 = seen.clone();
            let body: Arc<PointBody> = Arc::new(move |idx| {
                s2[(idx[0] * 6 + idx[1]) as usize].fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
            let p = pool(Topology::domains(2, 2));
            let out = run_at(
                &p,
                &nest.trip_counts,
                level,
                0,
                &plan.partition,
                NestBody::Point(body),
                &placement,
            );
            p.wait_quiescent();
            let rep = out.clone().unwrap();
            assert_eq!(rep.points, 48);
            assert!(rep.groups >= 2);
            for (i, c) in seen.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::SeqCst),
                    1,
                    "point {i} ran a wrong number of times ({placement:?})"
                );
            }
            // Placement is round-robin over the 2 domains.
            assert!(rep.group_domains.contains(&0));
            assert!(rep.group_domains.contains(&1));
            assert_eq!(p.stats().total_domain_spawns(), rep.spawned);
            outcomes.push(outcome(&out));
        }
        assert_same(&outcomes);
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
        let mut outcomes = Vec::new();
        for placement in placements() {
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
            let out = run_at(
                &p,
                &nest.trip_counts,
                0,
                0,
                &part,
                NestBody::Point(body),
                &placement,
            );
            p.wait_quiescent();
            let rep = out.clone().unwrap();
            assert!(rep.wavefront);
            assert_eq!(rep.points, 64);
            assert_eq!(rep.groups, 4);
            outcomes.push(outcome(&out));
        }
        assert_same(&outcomes);
    }

    /// Outer levels run as sequentially joined waves.
    #[test]
    fn outer_levels_execute_as_sequential_waves() {
        let nest = LoopNest::matmul_like(3, 4, 2);
        // Partition the middle level: 3 outer waves of 4 groups.
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 1).unwrap();
        let part = PartitionPlan::new(plan, 4, 4);
        let mut outcomes = Vec::new();
        for placement in placements() {
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
            let out = run_at(
                &p,
                &nest.trip_counts,
                1,
                0,
                &part,
                NestBody::Point(body),
                &placement,
            );
            p.wait_quiescent();
            let rep = out.clone().unwrap();
            assert_eq!(rep.waves, 3);
            assert_eq!(rep.points, 24);
            let spawned = match placement {
                Placement::Spread(_) => 12,
                Placement::Inline => 0,
            };
            assert_eq!(rep.spawned, spawned);
            outcomes.push(outcome(&out));
        }
        assert_same(&outcomes);
    }

    /// Single-worker pools must not deadlock: the caller helps.
    #[test]
    fn single_worker_pool_completes() {
        let nest = LoopNest::stencil_like(8, 8);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 0).unwrap();
        let part = PartitionPlan::new(plan, 8, 4);
        let mut outcomes = Vec::new();
        for placement in placements() {
            let count = Arc::new(AtomicU64::new(0));
            let c2 = count.clone();
            let body: Arc<PointBody> = Arc::new(move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
            let p = pool(Topology::flat(1));
            let out = run_at(
                &p,
                &nest.trip_counts,
                0,
                0,
                &part,
                NestBody::Point(body),
                &placement,
            );
            assert_eq!(count.load(Ordering::SeqCst), 64);
            assert_eq!(out.as_ref().unwrap().points, 64);
            outcomes.push(outcome(&out));
        }
        assert_same(&outcomes);
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
        let mut outcomes = Vec::new();
        for placement in placements() {
            let out = run_at(
                &p,
                &nest.trip_counts,
                0,
                0,
                &plan.partition,
                NestBody::Point(body.clone()),
                &placement,
            );
            assert!(out.as_ref().unwrap_err().contains("injected failure"));
            outcomes.push(outcome(&out));
        }
        p.wait_quiescent();
        assert_same(&outcomes);
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
        for placement in placements() {
            for _ in 0..10 {
                let err = run_at(
                    &p,
                    &nest.trip_counts,
                    0,
                    0,
                    &part,
                    NestBody::Point(body.clone()),
                    &placement,
                )
                .unwrap_err();
                assert_eq!(err, "group 2 failed", "{placement:?}");
            }
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
        let mut outcomes = Vec::new();
        for placement in placements() {
            let out = run_at(
                &p,
                &nest.trip_counts,
                0,
                0,
                &part,
                NestBody::Point(body.clone()),
                &placement,
            );
            let err = out.as_ref().unwrap_err();
            assert!(err.contains("panicked"), "err: {err}");
            assert!(err.contains("injected panic"), "err: {err}");
            outcomes.push(outcome(&out));
        }
        p.wait_quiescent();
        assert_same(&outcomes);
        assert_eq!(
            outcomes[1],
            Err("group 1 panicked: injected panic at t=3".to_string())
        );
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
        let mut outcomes = Vec::new();
        for placement in placements() {
            let out = run_at(
                &p,
                &nest.trip_counts,
                level,
                0,
                &plan.partition,
                NestBody::Point(body.clone()),
                &placement,
            );
            let err = out.as_ref().unwrap_err();
            assert!(err.contains("panicked"), "err: {err}");
            outcomes.push(outcome(&out));
        }
        p.wait_quiescent();
        assert_same(&outcomes);
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
        let mut outcomes = Vec::new();
        for placement in placements() {
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
            let out = run_at(
                &p,
                &nest.trip_counts,
                1,
                0,
                &part,
                NestBody::Point(body),
                &placement,
            );
            p.wait_quiescent();
            let err = out.as_ref().unwrap_err();
            assert!(err.contains("panicked"), "err: {err}");
            assert_eq!(
                max_wave.load(Ordering::SeqCst),
                0,
                "no wave after the dead one may start"
            );
            outcomes.push(outcome(&out));
        }
        assert_same(&outcomes);
    }

    /// `level_lo` translates the partitioned level's indices.
    #[test]
    fn level_lo_offsets_partitioned_level() {
        let trips = [4u64];
        let nest = LoopNest::elementwise(4, 1);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let part = PartitionPlan::new(&plans[0], 4, 2);
        let mut outcomes = Vec::new();
        for placement in placements() {
            let sum = Arc::new(AtomicU64::new(0));
            let s2 = sum.clone();
            let body: Arc<PointBody> = Arc::new(move |idx| {
                s2.fetch_add(idx[0] as u64, Ordering::SeqCst);
                Ok(())
            });
            let p = pool(Topology::flat(2));
            let out = run_at(&p, &trips, 0, 10, &part, NestBody::Point(body), &placement);
            p.wait_quiescent();
            assert_eq!(sum.load(Ordering::SeqCst), 10 + 11 + 12 + 13);
            outcomes.push(outcome(&out));
        }
        assert_same(&outcomes);
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
        let mut outcomes = Vec::new();
        for placement in placements() {
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
            let out = run_at(
                &p,
                &nest.trip_counts,
                1,
                0,
                &part,
                NestBody::Tile(body),
                &placement,
            );
            p.wait_quiescent();
            let rep = out.clone().unwrap();
            assert_eq!(rep.points, 60);
            assert_eq!(rep.runs, 12, "one full innermost span per (i, j)");
            assert_eq!(tiles.load(Ordering::SeqCst), rep.waves * rep.groups);
            for (i, c) in seen.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "point {i} ({placement:?})");
            }
            outcomes.push(outcome(&out));
        }
        assert_same(&outcomes);
    }

    /// When the partitioned level *is* the innermost one, each group's
    /// range arrives as a single span (offset by `level_lo`).
    #[test]
    fn run_body_spans_partitioned_innermost_level() {
        let trips = [8u64];
        let nest = LoopNest::elementwise(8, 1);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let part = PartitionPlan::new(&plans[0], 8, 4);
        let mut outcomes = Vec::new();
        for placement in placements() {
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
            let out = run_at(&p, &trips, 0, 100, &part, NestBody::Tile(body), &placement);
            p.wait_quiescent();
            let rep = out.clone().unwrap();
            assert_eq!(rep.points, 8);
            assert_eq!(rep.runs, tiles.load(Ordering::SeqCst));
            assert_eq!(rep.runs, rep.groups);
            assert_eq!(sum.load(Ordering::SeqCst), (100..108).sum::<u64>());
            outcomes.push(outcome(&out));
        }
        assert_same(&outcomes);
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
        let mut outcomes = Vec::new();
        for placement in placements() {
            let out = run_at(
                &p,
                &nest.trip_counts,
                0,
                0,
                &plan.partition,
                NestBody::Tile(body.clone()),
                &placement,
            );
            assert_eq!(out.as_ref().unwrap_err(), "tile failed");
            outcomes.push(outcome(&out));
        }
        p.wait_quiescent();
        assert_same(&outcomes);
    }

    /// The break-even `work·(g−1) > wake·g` with injected costs: below
    /// and at it a wave stays inline, above it spreading pays; one group
    /// never pays; a missing measurement spreads.
    #[test]
    fn spread_pays_above_the_break_even() {
        let wake = Some(10.0);
        // g = 2: spreading pays once work > 2·wake.
        assert!(!spread_pays(2, Some(19.0), wake));
        assert!(!spread_pays(2, Some(20.0), wake));
        assert!(spread_pays(2, Some(21.0), wake));
        // g = 4: once work > 4/3·wake.
        assert!(!spread_pays(4, Some(13.0), wake));
        assert!(spread_pays(4, Some(14.0), wake));
        // A free wake pays for any measured work.
        assert!(spread_pays(2, Some(1.0), Some(0.0)));
        // One group: never, measured or not.
        for (work, wake) in [(Some(1e9), Some(0.0)), (None, None), (None, wake)] {
            assert!(!spread_pays(1, work, wake));
        }
        // Cold start: either measurement missing spreads.
        for (work, wake) in [(None, wake), (Some(1.0), None), (None, None)] {
            assert!(spread_pays(2, work, wake));
            assert!(spread_pays(8, work, wake));
        }
    }

    /// The meter's mean is over every recorded wake; none yet is `None`.
    #[test]
    fn wake_meter_means_its_samples() {
        let m = WakeMeter::default();
        assert_eq!((m.mean_ns(), m.samples.load(Ordering::Acquire)), (None, 0));
        for ns in [1_000, 3_000, 80_000] {
            m.record(ns);
        }
        assert_eq!(
            (m.mean_ns(), m.samples.load(Ordering::Acquire)),
            (Some(28_000.0), 3)
        );
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
