//! Native execution of a partitioned SSP plan — the missing back half of
//! §3.3's "partition the software pipelined code into threads".
//!
//! [`run_partitioned`] takes a rectangular loop nest (trip counts), a
//! pipelined level `ℓ`, a [`PartitionPlan`] and a [`Placement`] holding
//! the **tile body** ([`TileBody`]), and runs the nest on the native
//! [`Pool`]:
//!
//! * levels outer to `ℓ` execute sequentially — each outer index tuple is
//!   one **wave**, joined before the next starts (outer-carried
//!   dependences are satisfied by construction);
//! * the `N_ℓ` iterations of level `ℓ` split into the plan's contiguous
//!   **groups**; the body is called once per group with the group's whole
//!   `ℓ`-range and walks the inner levels itself, so per-call setup is
//!   paid once per group rather than once per point (a compiled LITL-X
//!   kernel asserts its box and borrows its scratch once per tile);
//! * an **inline** wave runs its groups in index order on the calling
//!   thread and spawns nothing; an inline run borrows its body. A
//!   **spread** wave spawns one SGT-grain pool job per group in one
//!   batch, placed round-robin across the pool's locality domains; every
//!   group is ready at once, so the jobs and the calling thread claim
//!   groups from one atomic cursor. The jobs may start after the call
//!   returns (and then find nothing to claim), so a spread run's body is
//!   shared (`Arc`).
//!
//! In a spread wave the caller **helps**: it claims groups until the
//! cursor passes the last one, then waits for the groups the pool jobs
//! claimed, so execution completes even on a single-worker pool (the
//! spawned pool jobs then drain as no-ops). This is the same help-first
//! discipline the LITL-X naive `forall` uses.
//!
//! # Wavefronts run inline
//!
//! If the plan has a **wavefront** (a dependence carried at `ℓ`), group
//! `t+1` may start only after group `t` has finished — the conservative
//! reading of the paper's "group t+1 may only start its first d
//! iterations after group t finishes its last". Such a wave is serial
//! whichever threads run it: spread, it would pay a spawn and a hand-off
//! per group and overlap nothing. So a wavefront wave always runs inline,
//! whatever placement the caller passes, and index order satisfies the
//! chain by itself.
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
//! placement existed, and the run that produces both measurements.
//!
//! Timing an inline wave reads the clock twice, which costs about as
//! much as a small wave's work, so a caller that reruns one plan need not
//! time every run: [`times_inline_run`] times a plan's first
//! [`TIMED_FIRST_RUNS`] runs and then every [`TIME_EVERY`]-th, and the
//! other inline runs use [`Placement::InlineUntimed`]. A plan's cost then
//! follows a drifting host within [`TIME_EVERY`] runs. Both
//! placements give the same result: every point runs once in the same
//! per-group order, and a failing wave ends with the error of its
//! lowest-indexed failing group (`group g panicked: …` for a panic).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use htvm_core::sync::{EventCount, WaitMeter};
use htvm_core::{DomainId, Pool, WorkerCtx};
use parking_lot::Mutex;

use crate::partition::PartitionPlan;
use crate::ssp::{schedule_all_levels, LevelPlan, SspConfig};

/// One group's **tile** of the nest: receives the wave's outer index
/// tuple (`outer`, one entry per level outside the partitioned level,
/// 0-based) plus the group's half-open range `lo..hi` at the partitioned
/// level (absolute: offset by the run's `level_lo`), and executes every
/// point of the tile — each `ℓ`-iteration with all inner levels full and
/// sequential, in lexicographic order. An error aborts the run after the
/// wave in flight; a **panic** is caught and surfaces the same way (as
/// the wave's `Err`), never as a hang or an unwinding caller.
pub type TileBody = dyn Fn(&[i64], i64, i64) -> Result<(), String> + Send + Sync;

/// A [`TileBody`] borrowed for one call, which runs it on the calling
/// thread only ([`Placement::Inline`]).
pub type InlineTile<'a> = dyn Fn(&[i64], i64, i64) -> Result<(), String> + 'a;

/// Where a wave's groups run (module docs, "Placement"), with the body
/// that runs them.
pub enum Placement<'a> {
    /// Every group in index order on the calling thread: no pool job.
    Inline(&'a InlineTile<'a>),
    /// As [`Placement::Inline`], without reading the clock: the report's
    /// [`ExecReport::caller_ns`] and [`ExecReport::caller_points`] stay 0.
    InlineUntimed(&'a InlineTile<'a>),
    /// One pool job per group, placed round-robin over the pool's
    /// domains, each holding a clone of the body; the caller helps. Each
    /// wave's first job records its wake into the meter. A wavefront
    /// wave runs inline instead (module docs).
    Spread(Arc<TileBody>, Arc<WakeMeter>),
}

/// How many of a plan's runs are timed before sampling starts.
pub const TIMED_FIRST_RUNS: u64 = 4;

/// After the first runs, one run in this many is timed.
pub const TIME_EVERY: u64 = 16;

/// Whether a plan's `run`-th run (from 0) times its inline waves (module
/// docs, "Placement").
pub fn times_inline_run(run: u64) -> bool {
    run < TIMED_FIRST_RUNS || run.is_multiple_of(TIME_EVERY)
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
    /// Waves that ran inline: every wave of an inline placement or
    /// wavefront run; the others were spread.
    pub inline_waves: u64,
    /// Whether the plan has a signal wavefront (its waves then ran
    /// inline).
    pub wavefront: bool,
    /// Iteration points executed.
    pub points: u64,
    /// Contiguous innermost runs those points form: one per group when
    /// the partitioned level is the innermost, else one per index tuple
    /// of the non-innermost levels. Derived from the geometry.
    pub runs: u64,
    /// Pool jobs spawned (one per group per spread wave), placed
    /// round-robin over the pool's domains
    /// ([`htvm_core::PoolStats::domain_spawns`] records where).
    pub spawned: u64,
    /// Groups executed by the calling thread rather than a pool worker
    /// (every group of an inline wave).
    pub caller_ran: u64,
    /// Wall time the calling thread spent running those groups, in
    /// nanoseconds (of the timed ones: [`Placement::InlineUntimed`]
    /// times none).
    pub caller_ns: u64,
    /// Iteration points in the groups it timed.
    pub caller_points: u64,
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

/// A run's groups at the partitioned level, the same for all of its
/// waves.
#[derive(Clone)]
struct Geometry {
    /// Iterations at the partitioned level.
    n: u64,
    /// Iterations per group (the last group may be short).
    group: u64,
    /// Groups per wave.
    groups: u64,
    /// Points per iteration at the partitioned level (the product of the
    /// inner trip counts).
    inner: u64,
    /// Absolute index of the partitioned level's first iteration.
    lo: i64,
}

impl Geometry {
    /// Group `g`'s absolute range at the partitioned level.
    fn range(&self, g: u64) -> (i64, i64) {
        let start = g * self.group;
        let end = (start + self.group).min(self.n);
        (self.lo + start as i64, self.lo + end as i64)
    }

    /// Run group `g` of the wave at `outer` as one tile of `body`. A
    /// panic comes back as the group's error.
    fn run_group(&self, body: &InlineTile<'_>, outer: &[i64], g: u64) -> Result<(), String> {
        let (lo, hi) = self.range(g);
        catch_unwind(AssertUnwindSafe(|| body(outer, lo, hi)))
            .unwrap_or_else(|p| Err(format!("group {g} panicked: {}", panic_message(p.as_ref()))))
    }
}

/// One spread wave's state, shared by the helping caller and the spawned
/// pool jobs.
struct Wave {
    geom: Geometry,
    body: Arc<TileBody>,
    outer: Vec<i64>,
    /// The next unclaimed group. Every group of a spread wave is ready at
    /// once, so a claim is one `fetch_add`; a claim at or past
    /// `geom.groups` finds the wave fully claimed.
    next: AtomicU64,
    /// Groups finished; the caller's join waits for `geom.groups`.
    finished: EventCount,
    /// The error of the lowest-indexed failing group so far, with that
    /// index. Keeping the minimum (not the first to arrive) makes a
    /// failing wave's error a function of the nest, not of the schedule.
    error: Mutex<Option<(u64, String)>>,
    /// When the wave was built, just before its spawn.
    built: Instant,
    /// Where the first pool job records how long after `built` it started.
    wake: Arc<WakeMeter>,
    /// Whether a pool job has started.
    woken: AtomicBool,
}

/// Counts a claimed group finished from `Drop`, so it happens **even when
/// the group's run unwinds**. Without this, a group dying on a pool
/// worker would be contained by the pool's `catch_unwind` while the wave
/// never learns the group died — the caller's join then waits forever on
/// `finished < groups`.
struct GroupDone<'a>(&'a EventCount);

impl Drop for GroupDone<'_> {
    fn drop(&mut self) {
        self.0.add(1);
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
    /// Claim the next group, if any is left.
    fn claim(&self) -> Option<u64> {
        let g = self.next.fetch_add(1, Ordering::Relaxed);
        (g < self.geom.groups).then_some(g)
    }

    /// A pool job: the wave's first one records its wake, then each runs
    /// one group if any is left. The helping caller may have claimed them
    /// all already; the cursor decides, so nothing runs twice and late
    /// pickups are no-ops.
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
    /// guard counts the group finished on every exit path — so neither a
    /// panicking body nor an unwinding caller can wedge the wave. A group
    /// is skipped only when a lower-indexed group has already failed:
    /// every group below the current error still runs, so the wave ends
    /// holding the error of its lowest-indexed failing group (each group
    /// runs its points in order, so that is the first failing point of
    /// the lowest failing group) whatever order the groups ran in.
    /// Because the panic is caught *here*, it never reaches the pool's
    /// own containment: `PoolStats::panics` deliberately stays at zero
    /// for SSP body panics — the wave's `Err("group N panicked: …")` is
    /// their reporting channel, and the pool counter keeps meaning
    /// "panics that escaped a job unhandled".
    fn run(&self, g: u64) {
        let _done = GroupDone(&self.finished);
        if precedes(&self.error.lock(), g) {
            if let Err(e) = self.geom.run_group(&*self.body, &self.outer, g) {
                let mut slot = self.error.lock();
                if precedes(&slot, g) {
                    *slot = Some((g, e));
                }
            }
        }
    }
}

/// Execute a partitioned nest on the native pool. `trip_counts` describe
/// the rectangular nest (outermost first); `level_lo` is the absolute
/// value of the partitioned level's first iteration (the body sees
/// absolute indices at `level` — callers whose loops start at 0 pass 0).
/// Every wave of one call has the same shape, so `placement` applies to
/// all of them; a wavefront plan runs inline whatever it says (module
/// docs).
///
/// Returns the error of the first failing wave's lowest-indexed failing
/// group — the same error whatever order the groups ran in — after
/// finishing the wave in flight. A body that panics (instead of returning
/// `Err`) is caught wherever it ran — calling thread or pool worker — and
/// recorded as its group's error, so the run ends in `Err` rather than
/// waiting on a group that will never finish.
pub fn run_partitioned(
    pool: &Arc<Pool>,
    trip_counts: &[u64],
    level: usize,
    level_lo: i64,
    part: &PartitionPlan,
    placement: Placement<'_>,
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
        n: trip_counts[level],
        group: part.group.max(1),
        groups: part.groups(trip_counts[level]),
        inner: trip_counts[level + 1..].iter().product(),
        lo: level_lo,
    };
    report.groups = geom.groups;
    let waves: u64 = trip_counts[..level].iter().product();
    let wave_points = geom.n * geom.inner;
    let wave_runs = if level + 1 == trip_counts.len() {
        geom.groups
    } else {
        trip_counts[level..trip_counts.len() - 1].iter().product()
    };
    let (body, spread, timed) = match &placement {
        Placement::Inline(body) => (*body, None, true),
        Placement::InlineUntimed(body) => (*body, None, false),
        Placement::Spread(body, wake) => (
            &**body as &InlineTile<'_>,
            (!part.wavefront).then_some((body, wake)),
            true,
        ),
    };
    let mut outer = vec![0i64; level];
    for w in 0..waves {
        // Decompose the wave number into the outer index tuple.
        let mut rem = w;
        for (k, &n) in trip_counts[..level].iter().enumerate().rev() {
            outer[k] = (rem % n) as i64;
            rem /= n;
        }
        match spread {
            None => run_inline(&geom, body, &outer, timed, &mut report)?,
            Some((body, wake)) => run_spread(pool, &geom, body, wake, &outer, &mut report)?,
        }
        report.waves += 1;
        report.points += wave_points;
        report.runs += wave_runs;
    }
    Ok(report)
}

/// One inline wave: its groups in index order on the calling thread,
/// stopping at the first failure — the lowest failing group. Timed if
/// `timed`.
fn run_inline(
    geom: &Geometry,
    body: &InlineTile<'_>,
    outer: &[i64],
    timed: bool,
    report: &mut ExecReport,
) -> Result<(), String> {
    let start = timed.then(Instant::now);
    for g in 0..geom.groups {
        geom.run_group(body, outer, g)?;
    }
    if let Some(start) = start {
        report.caller_ns += start.elapsed().as_nanos() as u64;
        report.caller_points += geom.n * geom.inner;
    }
    report.caller_ran += geom.groups;
    report.inline_waves += 1;
    Ok(())
}

/// One spread wave: a batch of pool jobs, one per group, the caller
/// helping until the wave drains.
fn run_spread(
    pool: &Arc<Pool>,
    geom: &Geometry,
    body: &Arc<TileBody>,
    wake: &Arc<WakeMeter>,
    outer: &[i64],
    report: &mut ExecReport,
) -> Result<(), String> {
    let groups = geom.groups;
    let nd = pool.num_domains() as u64;
    let wave = Arc::new(Wave {
        geom: geom.clone(),
        body: body.clone(),
        outer: outer.to_vec(),
        next: AtomicU64::new(0),
        finished: EventCount::new(),
        error: Mutex::new(None),
        built: Instant::now(),
        wake: wake.clone(),
        woken: AtomicBool::new(false),
    });
    // The batch delivers at most one targeted wake per job, grouped by
    // home domain.
    pool.spawn_batch_in((0..groups).map(|g| {
        let wv = wave.clone();
        (DomainId(g % nd), move |_: &WorkerCtx<'_>| wv.job())
    }));
    report.spawned += groups;
    // Help until every group is claimed, then wait for the ones the pool
    // jobs claimed. The caller may *be* a pool worker (a pool job or a
    // served request running a LITL-X program), so it must not wait while
    // a group is still unclaimed: on a one-worker pool nobody else would
    // run it. Once every group is claimed, each one runs to its end on
    // the thread that claimed it, so the join depends on no queued job
    // and may park.
    while let Some(g) = wave.claim() {
        let start = Instant::now();
        wave.run(g);
        report.caller_ns += start.elapsed().as_nanos() as u64;
        let (lo, hi) = geom.range(g);
        report.caller_points += (hi - lo) as u64 * geom.inner;
        report.caller_ran += 1;
    }
    static SPREAD_JOIN: WaitMeter = WaitMeter::new();
    wave.finished.wait_for(groups, &SPREAD_JOIN);
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

    #[test]
    fn a_plan_times_its_first_runs_then_every_kth() {
        let timed: Vec<u64> = (0..70).filter(|&r| times_inline_run(r)).collect();
        assert_eq!(timed, [0, 1, 2, 3, 16, 32, 48, 64]);
        assert_eq!((TIMED_FIRST_RUNS, TIME_EVERY), (4, 16));
    }

    /// A placement without its body: the scenarios below build the
    /// body, then run it under each.
    #[derive(Debug)]
    enum Place {
        Spread(Arc<WakeMeter>),
        Inline,
    }

    /// Every scenario below runs under both placements (a fresh meter
    /// each time).
    fn placements() -> [Place; 2] {
        [Place::Spread(Arc::default()), Place::Inline]
    }

    fn pool(topo: Topology) -> Arc<Pool> {
        Arc::new(Pool::with_topology(topo))
    }

    /// A tile body that calls `point` at every point of its tile in
    /// lexicographic order, walking the inner levels of `trips`: the
    /// scenarios below state their bodies per point.
    fn pointwise(
        trips: &[u64],
        point: impl Fn(&[i64]) -> Result<(), String> + Send + Sync + 'static,
    ) -> Arc<TileBody> {
        fn walk(
            trips: &[u64],
            idx: &mut Vec<i64>,
            point: &dyn Fn(&[i64]) -> Result<(), String>,
        ) -> Result<(), String> {
            let Some(&n) = trips.get(idx.len()) else {
                return point(idx);
            };
            for i in 0..n as i64 {
                idx.push(i);
                walk(trips, idx, point)?;
                idx.pop();
            }
            Ok(())
        }
        let trips = trips.to_vec();
        Arc::new(move |outer, lo, hi| {
            (lo..hi).try_for_each(|l| {
                let mut idx = outer.to_vec();
                idx.push(l);
                walk(&trips, &mut idx, &point)
            })
        })
    }

    /// [`run_partitioned`] at `placement`, checking the counters that
    /// differ between placements: an inline run — and a wavefront run,
    /// whatever its placement — spawns nothing and its caller runs (and
    /// times) every group; a spread run spawns one job per group per
    /// wave, and its caller runs at most all of them.
    fn run_at(
        p: &Arc<Pool>,
        trips: &[u64],
        level: usize,
        lo: i64,
        part: &PartitionPlan,
        body: Arc<TileBody>,
        placement: &Place,
    ) -> Result<ExecReport, String> {
        let placed = match placement {
            Place::Spread(wake) => Placement::Spread(body.clone(), wake.clone()),
            Place::Inline => Placement::Inline(&*body),
        };
        let out = run_partitioned(p, trips, level, lo, part, placed);
        if let Ok(rep) = &out {
            let all = rep.waves * rep.groups;
            match placement {
                Place::Spread(wake) if !rep.wavefront => {
                    assert_eq!(rep.inline_waves, 0);
                    assert_eq!(rep.spawned, all);
                    assert!(rep.caller_ran <= all);
                    assert!(rep.caller_points <= rep.points);
                    // Each wave's first job records its wake — those that
                    // start late, once the pool drains.
                    p.wait_quiescent();
                    assert_eq!(wake.samples.load(Ordering::Acquire), rep.waves);
                }
                _ => {
                    assert_eq!(rep.inline_waves, rep.waves);
                    assert_eq!(rep.spawned, 0);
                    assert_eq!(rep.caller_ran, all);
                    assert_eq!(rep.caller_points, rep.points);
                }
            }
        }
        out
    }

    /// The placement-independent outcome of a run: its `Result`, with
    /// the report cut down to what both placements must agree on.
    type Outcome = Result<(u64, u64, u64, u64, bool), String>;

    fn outcome(out: &Result<ExecReport, String>) -> Outcome {
        out.as_ref()
            .map(|r| (r.points, r.runs, r.waves, r.groups, r.wavefront))
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
            let body = pointwise(&nest.trip_counts, move |idx| {
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
                body,
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
            let stats = p.stats();
            assert_eq!(stats.total_domain_spawns(), rep.spawned);
            if let Place::Spread(_) = placement {
                // Placement is round-robin over the 2 domains.
                assert_eq!(stats.domain_spawns.len(), 2);
                assert!(
                    stats.domain_spawns.iter().all(|&d| d > 0),
                    "{:?}",
                    stats.domain_spawns
                );
            }
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
            let body = pointwise(&nest.trip_counts, move |idx| {
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
            let out = run_at(&p, &nest.trip_counts, 0, 0, &part, body, &placement);
            p.wait_quiescent();
            let rep = out.clone().unwrap();
            assert!(rep.wavefront);
            assert_eq!(rep.points, 64);
            assert_eq!(rep.groups, 4);
            outcomes.push(outcome(&out));
        }
        assert_same(&outcomes);
    }

    /// A wavefront wave is serial whoever runs it, so a wavefront plan
    /// runs every wave inline even when asked to spread: no pool job, no
    /// wake sample, every group run and timed by the calling thread.
    #[test]
    fn wavefront_plan_runs_inline_when_asked_to_spread() {
        let nest = LoopNest::stencil_like(16, 4);
        let plans = schedule_all_levels(&nest, &SspConfig::default());
        let plan = plans.iter().find(|p| p.level == 0).unwrap();
        let part = PartitionPlan::new(plan, 16, 4);
        assert!(part.wavefront);
        let wake = Arc::new(WakeMeter::default());
        let p = pool(Topology::domains(2, 1));
        let body = pointwise(&nest.trip_counts, |_| Ok(()));
        let placement = Placement::Spread(body, wake.clone());
        let rep = run_partitioned(&p, &nest.trip_counts, 0, 0, &part, placement).unwrap();
        p.wait_quiescent();
        assert_eq!((rep.waves, rep.groups, rep.points), (1, 4, 64));
        assert_eq!(rep.spawned, 0);
        assert_eq!(rep.inline_waves, rep.waves);
        assert_eq!(rep.caller_ran, rep.waves * rep.groups);
        assert_eq!(rep.caller_points, rep.points);
        assert_eq!(p.stats().total_domain_spawns(), 0);
        assert_eq!(wake.mean_ns(), None);
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
            let body = pointwise(&nest.trip_counts, move |idx| {
                let w = idx[0] as u64;
                let prev = m2.fetch_max(w, Ordering::SeqCst);
                if prev > w {
                    return Err(format!("wave {w} ran after wave {prev}"));
                }
                Ok(())
            });
            let p = pool(Topology::flat(2));
            let out = run_at(&p, &nest.trip_counts, 1, 0, &part, body, &placement);
            p.wait_quiescent();
            let rep = out.clone().unwrap();
            assert_eq!(rep.waves, 3);
            assert_eq!(rep.points, 24);
            let spawned = match placement {
                Place::Spread(_) => 12,
                Place::Inline => 0,
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
        let mut outcomes = Vec::new();
        // The time level is a wavefront (inline whatever the placement);
        // the space level spreads.
        for level in [0, 1] {
            let plan = plans.iter().find(|p| p.level == level).unwrap();
            let part = PartitionPlan::new(plan, 8, 4);
            assert_eq!(part.wavefront, level == 0);
            for placement in placements() {
                let count = Arc::new(AtomicU64::new(0));
                let c2 = count.clone();
                let body = pointwise(&nest.trip_counts, move |_| {
                    c2.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                });
                let p = pool(Topology::flat(1));
                let out = run_at(&p, &nest.trip_counts, level, 0, &part, body, &placement);
                assert_eq!(count.load(Ordering::SeqCst), 64);
                assert_eq!(out.as_ref().unwrap().points, 64);
                outcomes.push(outcome(&out));
            }
            assert_same(&outcomes);
            outcomes.clear();
        }
    }

    /// Body errors surface and abort after the wave in flight.
    #[test]
    fn body_errors_propagate() {
        let nest = LoopNest::elementwise(4, 4);
        let plan = plan_native_nest(&nest, &SspConfig::default(), &[0], 2).unwrap();
        let body = pointwise(&nest.trip_counts, |idx| {
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
                body.clone(),
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
        let body = pointwise(&nest.trip_counts, |idx| match idx[0] {
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
                let err = run_at(&p, &nest.trip_counts, 0, 0, &part, body.clone(), &placement)
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
        let body = pointwise(&nest.trip_counts, |idx| {
            if idx[0] == 3 {
                panic!("injected panic at t={}", idx[0]);
            }
            Ok(())
        });
        let p = pool(Topology::flat(1));
        let mut outcomes = Vec::new();
        for placement in placements() {
            let out = run_at(&p, &nest.trip_counts, 0, 0, &part, body.clone(), &placement);
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
        let body = pointwise(&nest.trip_counts, |idx| {
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
                body.clone(),
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
            let body = pointwise(&nest.trip_counts, move |idx| {
                m2.fetch_max(idx[0] as u64, Ordering::SeqCst);
                if idx[0] == 0 {
                    panic!("first wave dies");
                }
                Ok(())
            });
            let p = pool(Topology::flat(2));
            let out = run_at(&p, &nest.trip_counts, 1, 0, &part, body, &placement);
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
            let body = pointwise(&trips, move |idx| {
                s2.fetch_add(idx[0] as u64, Ordering::SeqCst);
                Ok(())
            });
            let p = pool(Topology::flat(2));
            let out = run_at(&p, &trips, 0, 10, &part, body, &placement);
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
            let out = run_at(&p, &nest.trip_counts, 1, 0, &part, body, &placement);
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
            let out = run_at(&p, &trips, 0, 100, &part, body, &placement);
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
                body.clone(),
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
