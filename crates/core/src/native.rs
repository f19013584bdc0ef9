//! The native work-stealing pool that executes SGTs on OS threads.
//!
//! Every queue on the spawn/steal path is **lock-free** (the
//! [`crate::deque`] scheduling spine): each worker owns a Chase–Lev LIFO
//! deque (good locality for the spawn-subtree it is working on; owner
//! push/pop never takes a lock or, in the common case, even an RMW);
//! each domain owns a segmented MPMC injector for affinity-directed
//! spawns; spawns from outside the pool go to a global injector of the
//! same kind. Workers are partitioned into **locality domains** (a
//! [`Topology`] mirroring the paper's thread-unit groups). An idle
//! worker searches for work in **proximity order**:
//!
//! 1. its own deque (LIFO),
//! 2. sibling deques within its domain (FIFO victim side — a *local*
//!    steal),
//! 3. its domain's injector (home work, not a steal),
//! 4. remote domains, nearest ring order — their injectors and their
//!    workers' deques (a *remote* steal),
//! 5. the global injector.
//!
//! Inside a domain this is still the classic Cilk/EARTH discipline the
//! paper's SGT level inherits; across domains it is the hierarchical
//! stealing of Thibault et al.'s BubbleSched line: migration stays cheap
//! (in-domain) until imbalance forces it to cross a domain boundary. Work
//! stealing doubles as the *dynamic load adaptation* mechanism of §2 at
//! the SGT grain, and the local/remote steal counters in [`PoolStats`]
//! measure how often that adaptation had to pay the remote price.
//!
//! # Idle protocol: the epoch-stamped sleeper registry
//!
//! A worker whose search comes up empty spins politely for a bounded
//! number of cycles, then **parks indefinitely** on its own private
//! condvar. Parked workers are recorded in a per-domain **sleeper
//! registry**, and spawns deliver **targeted single wakes** — one futex
//! op aimed at the locality level that owns the work — instead of
//! broadcasting to the whole pool:
//!
//! * [`Pool::spawn_in`] / [`WorkerCtx::spawn_in_domain`] wake one sleeper
//!   registered in the job's home domain, falling outward in ring order
//!   only when that domain has no sleeper ([`PoolStats::wakes_escalated`]
//!   counts the fallbacks);
//! * [`WorkerCtx::spawn`] wakes a domain sibling of the spawning worker
//!   first (the new job sits in its LIFO deque, so a sibling is the
//!   cheapest thief);
//! * [`Pool::spawn`] / [`WorkerCtx::spawn_global`] wake exactly one
//!   worker, rotating the starting domain so unaffine work does not
//!   hammer domain 0;
//! * [`Pool::spawn_batch_in`] wakes at most one sleeper per job, grouped
//!   by domain — never more wakes than jobs, never a broadcast.
//!
//! The classic check-then-park race (a spawn lands between a worker's
//! last empty search and its park) is closed by a global **epoch**
//! counter instead of a timed re-poll. The invariants:
//!
//! 1. every spawn *publishes its job*, then *bumps the epoch*, then looks
//!    for a sleeper to wake (in that order);
//! 2. a parking worker reads the epoch *before* its final search and
//!    re-checks it after registering in the sleeper list: a mismatch
//!    means a spawn may have slipped past the search, so the worker
//!    unregisters and searches again instead of sleeping;
//! 3. if both sides race, sequential consistency guarantees at least one
//!    of them loses: either the worker observes the bumped epoch (and
//!    re-searches), or the spawner observes the registration (and wakes
//!    the worker);
//! 4. a registered worker is popped by at most one waker (the pop removes
//!    it), and the wake token is delivered under the worker's private
//!    mailbox lock, so it is never lost — and never goes *stale*: a
//!    worker that finds itself already popped while withdrawing a
//!    registration waits for that in-flight token before leaving park,
//!    so every token is consumed by the registration it paid for;
//! 5. lock order is mailbox → sleeper list on the worker side, and
//!    sleeper list (released) *then* mailbox on the waker side, so the
//!    two never deadlock.
//!
//! On an idle pool every worker parks once and stays parked — zero CPU,
//! zero periodic self-wakes — which is what lets the §2 story ("idle
//! thread units cost nothing, wakeups are targeted") actually hold.
//! [`PoolStats::parks`] counts park events; a pool that re-polls would
//! show it climbing on an idle pool.
//!
//! # Elastic workers
//!
//! The worker set can change at runtime. [`Pool::with_elastic`]
//! pre-provisions vacant worker **slots** in every domain (the lock-free
//! spine's per-worker arrays — stealers, counters, mailboxes — are
//! indexed concurrently and cannot grow, so capacity is fixed while
//! membership is not). [`Pool::grow_in`] activates a vacant slot by
//! handing it its parked deque and spawning a thread; [`Pool::retire_in`]
//! asks an active worker to leave via a three-step handshake mirroring
//! shutdown (set the slot's `Retiring` flag, bump the idle-protocol
//! epoch, deliver a targeted wake to exactly that worker):
//!
//! 1. the retiring worker finishes its current job, **drains its own
//!    deque** and republishes every job into its domain's injector (the
//!    jobs are already counted in the active gauge, so conservation
//!    holds), then wakes up to one sleeper per republished job plus one
//!    unconditional rotated wake — the latter re-issues any wake token
//!    that a spawner may have spent on the leaving worker;
//! 2. it parks its (now empty) deque back into the slot for a future
//!    `grow_in` — the slot's stealer stays valid across the whole cycle,
//!    so no per-worker array is ever resized;
//! 3. the thread exits, which deregisters its thread-local epoch
//!    participant from the spine's reclamation registry (the TLS
//!    destructor marks the slot inactive; see [`crate::deque`]).
//!
//! The pool never retires its last active worker (work queued anywhere
//! is reachable by any worker through the proximity sweep, but only if
//! at least one worker exists to sweep). Workers built from a detected
//! machine topology pin themselves to their assigned cpu on startup
//! (see [`crate::machine`]).
//!
//! # Supervision: worker death and in-place respawn
//!
//! Job-body panics are contained by `run_job`'s `catch_unwind` and cost
//! one `panics` tick — the worker survives. But an unwind that escapes the
//! job boundary (runtime bugs in the steal/park paths, or an injected
//! *kill* from the [`crate::faults`] plane, which `run_job` deliberately
//! rethrows) kills the OS thread. Every worker therefore runs under a
//! `DeathWatch` drop guard that owns the deque and fires only on an
//! unwinding exit:
//!
//! 1. count the death ([`PoolStats::worker_deaths`]) and drain the dead
//!    worker's deque into its domain injector with the same
//!    republish-and-rewake sequence as a retire (the jobs are already in
//!    the active gauge — nothing is lost, nobody waits on a job stranded
//!    in a dead worker's deque);
//! 2. if the slot was mid-retire, complete the retire on the dying
//!    thread's behalf (park the deque, mark the slot vacant, count the
//!    retire) — the retire reservation already adjusted the gauge;
//! 3. otherwise, if the pool is not shutting down, **respawn a fresh
//!    thread into the same still-`Active` slot** with the drained deque
//!    ([`PoolStats::respawns`]). Keeping the slot `Active` throughout
//!    means the heal never races `grow_in`/`retire_in` over slot
//!    ownership and `active_workers` never dips: detection and respawn
//!    are one atomic step from every other thread's point of view.
//!
//! Thread `JoinHandle`s live in `Shared` so a dying worker can register
//! its replacement; `Pool::drop` joins in a loop until no handle remains
//! (a handle pushed by a mid-shutdown death is joined on the next pass).

use std::cell::Cell;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::cancel::CancelToken;
use crate::chk::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Condvar, Mutex, Ordering};
use crate::deque::{Injector, Steal, Stealer, Worker as Deque};
use crate::faults::{FaultPlan, FaultPlane};
use crate::ids::{DomainId, WorkerId};
use crate::sleepers::Sleepers;
use crate::topology::Topology;

type JobBody = Box<dyn FnOnce(&WorkerCtx) + Send>;

/// The unit the scheduling spine moves around: a body plus the serving
/// layer's optional envelope — a cancellation token checked at the
/// grain boundary (see `run_job`) and a per-tenant accounting tag.
/// Batch spawns carry a bare body; the envelope costs them nothing but
/// two `None` words per job.
struct Job {
    body: JobBody,
    token: Option<CancelToken>,
    tag: Option<PoolTag>,
}

impl Job {
    fn plain(body: JobBody) -> Self {
        Self {
            body,
            token: None,
            tag: None,
        }
    }
}

/// Per-tenant slice of the pool's execution counters. Cloneable and
/// cheap (an `Arc` of two atomics); hand one to every spawn made on a
/// tenant's behalf via [`SpawnOpts::tag`] and read the slice back with
/// [`PoolTag::stats`]. When a pool runs only tagged work, the slices
/// partition the global [`PoolStats`]: Σ `executed` over tags equals
/// [`PoolStats::total_executed`] and Σ `cancelled` equals
/// [`PoolStats::cancelled`].
#[derive(Clone, Default)]
pub struct PoolTag {
    counters: Arc<TagCounters>,
}

#[derive(Default)]
struct TagCounters {
    executed: AtomicU64,
    cancelled: AtomicU64,
}

impl PoolTag {
    /// A fresh tag with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot this tag's slice of the pool counters.
    pub fn stats(&self) -> TagStats {
        TagStats {
            executed: self.counters.executed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for PoolTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolTag")
            .field("stats", &self.stats())
            .finish()
    }
}

/// A snapshot of one [`PoolTag`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Jobs carrying this tag whose body ran (claimed at the grain
    /// boundary; includes bodies that then panicked).
    pub executed: u64,
    /// Jobs carrying this tag dropped at the grain boundary because
    /// their token had resolved cancelled.
    pub cancelled: u64,
}

/// Envelope options for [`Pool::spawn_with`]: placement, cancellation,
/// and per-tenant accounting. `Default` is equivalent to
/// [`Pool::spawn`] — global injector, no token, no tag.
#[derive(Default, Clone)]
pub struct SpawnOpts {
    /// Home this job in a specific domain's injector (as
    /// [`Pool::spawn_in`]) instead of the global injector.
    pub domain: Option<DomainId>,
    /// Check this token at the grain boundary: if it has resolved (or
    /// just resolves) cancelled, the body is dropped unrun and the job
    /// counts toward [`PoolStats::cancelled`] instead of `executed`.
    pub token: Option<CancelToken>,
    /// Attribute the job's outcome to this tag's [`TagStats`] slice.
    pub tag: Option<PoolTag>,
}

/// Per-worker counters, readable after the run.
#[derive(Debug, Default)]
struct WorkerCounters {
    executed: AtomicU64,
    local_steals: AtomicU64,
    remote_steals: AtomicU64,
}

/// How a worker obtained a job (for the counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Acquire {
    /// Own deque, own domain's injector, or the global injector.
    Owned,
    /// Stolen from a sibling deque within the worker's domain.
    LocalSteal,
    /// Stolen from another domain (deque or domain injector).
    RemoteSteal,
}

/// A snapshot of pool activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs executed per worker.
    pub executed: Vec<u64>,
    /// Jobs stolen from a sibling within the worker's own domain, per
    /// worker (the cheap migrations).
    pub local_steals: Vec<u64>,
    /// Jobs stolen across a domain boundary, per worker (the expensive
    /// migrations the proximity order tries to avoid).
    pub remote_steals: Vec<u64>,
    /// Jobs that panicked (contained; the worker survives).
    pub panics: u64,
    /// Jobs dropped unrun at the grain boundary because their
    /// [`CancelToken`] had resolved cancelled — the serving layer's
    /// cancel-while-queued path. Not counted in `executed`.
    pub cancelled: u64,
    /// Domain index of each worker (parallel to the vectors above).
    pub domain_of: Vec<usize>,
    /// Jobs spawned with an explicit domain affinity, per domain — the
    /// placement record of batched group spawns (`Pool::spawn_batch_in`)
    /// and affinity spawns (`Pool::spawn_in`). A group scheduler reads
    /// this back to confirm where its work was *aimed*; the `executed`
    /// counters say where it actually ran.
    pub domain_spawns: Vec<u64>,
    /// Times a worker entered the sleeper registry to park (a park is
    /// indefinite: an idle pool parks each worker once and this counter
    /// then stays flat — a climbing value on an idle pool would betray a
    /// self-waking re-poll). A worker that registers but withdraws because
    /// a spawn (or shutdown) raced in still counts once; withdrawals only
    /// happen while spawns are in flight or the pool is being torn down,
    /// so on an idle, live pool this equals committed parks exactly.
    pub parks: u64,
    /// Wakes satisfied by a sleeper in the spawn's first-choice domain
    /// (the home domain for affinity spawns, the spawner's own domain for
    /// worker-local spawns, the rotor's pick for unaffine spawns).
    pub wakes_targeted: u64,
    /// Wakes that fell outward in ring order because the first-choice
    /// domain had no sleeper — the wake-side analogue of a remote steal.
    pub wakes_escalated: u64,
    /// Workers activated at runtime ([`Pool::grow_in`]), cumulative.
    pub grows: u64,
    /// Workers retired at runtime ([`Pool::retire_in`]), cumulative —
    /// counted when the retiring worker's drain completes, not when the
    /// retire is requested.
    pub retires: u64,
    /// Worker threads that died by an unwind escaping the job boundary
    /// (injected kills, runtime bugs) — see the module header,
    /// *Supervision*. Every death also republishes the dead worker's
    /// deque, so no job is lost with the thread.
    pub worker_deaths: u64,
    /// Worker threads respawned in place by supervision after a death.
    /// On a healthy pool that is not shutting down,
    /// `worker_deaths == respawns + retires-completed-by-death` once the
    /// dust settles; the chaos suite asserts the census directly.
    pub respawns: u64,
}

impl PoolStats {
    /// Total jobs executed.
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Element-wise difference against an earlier snapshot of the
    /// *same pool* — what happened between the two `stats()` calls.
    /// This is how a batch run scoped to a long-lived serving pool
    /// (`run_parallel_on`) reports its own share of the counters.
    /// Saturating, so a racy read that runs slightly backwards clamps
    /// to zero instead of wrapping.
    pub fn since(&self, base: &PoolStats) -> PoolStats {
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter()
                .zip(b.iter().chain(std::iter::repeat(&0)))
                .map(|(x, y)| x.saturating_sub(*y))
                .collect()
        };
        PoolStats {
            executed: sub(&self.executed, &base.executed),
            local_steals: sub(&self.local_steals, &base.local_steals),
            remote_steals: sub(&self.remote_steals, &base.remote_steals),
            panics: self.panics.saturating_sub(base.panics),
            cancelled: self.cancelled.saturating_sub(base.cancelled),
            domain_of: self.domain_of.clone(),
            domain_spawns: sub(&self.domain_spawns, &base.domain_spawns),
            parks: self.parks.saturating_sub(base.parks),
            wakes_targeted: self.wakes_targeted.saturating_sub(base.wakes_targeted),
            wakes_escalated: self.wakes_escalated.saturating_sub(base.wakes_escalated),
            grows: self.grows.saturating_sub(base.grows),
            retires: self.retires.saturating_sub(base.retires),
            worker_deaths: self.worker_deaths.saturating_sub(base.worker_deaths),
            respawns: self.respawns.saturating_sub(base.respawns),
        }
    }

    /// Total steals of either kind.
    pub fn total_stolen(&self) -> u64 {
        self.total_local_steals() + self.total_remote_steals()
    }

    /// Total in-domain steals.
    pub fn total_local_steals(&self) -> u64 {
        self.local_steals.iter().sum()
    }

    /// Total cross-domain steals.
    pub fn total_remote_steals(&self) -> u64 {
        self.remote_steals.iter().sum()
    }

    /// Total jobs spawned with explicit domain affinity.
    pub fn total_domain_spawns(&self) -> u64 {
        self.domain_spawns.iter().sum()
    }

    /// Total sleeper wakes of either kind.
    pub fn total_wakes(&self) -> u64 {
        self.wakes_targeted + self.wakes_escalated
    }

    /// Fraction of wakes that had to leave the first-choice domain (0 when
    /// nothing was woken). The wake-side counterpart of
    /// [`PoolStats::remote_steal_ratio`].
    pub fn escalated_wake_ratio(&self) -> f64 {
        let total = self.total_wakes();
        if total == 0 {
            0.0
        } else {
            self.wakes_escalated as f64 / total as f64
        }
    }

    /// Fraction of steals that crossed a domain boundary (0 when nothing
    /// was stolen). Under [`Topology::flat`] every steal is remote, so the
    /// ratio is 1 whenever any stealing happened; grouped topologies earn
    /// a lower ratio by satisfying steals within a domain first.
    pub fn remote_steal_ratio(&self) -> f64 {
        let total = self.total_stolen();
        if total == 0 {
            0.0
        } else {
            self.total_remote_steals() as f64 / total as f64
        }
    }

    /// Number of domains covered by this snapshot.
    pub fn num_domains(&self) -> usize {
        self.domain_of.iter().max().map_or(0, |&d| d + 1)
    }

    fn sum_by_domain(&self, per_worker: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.num_domains()];
        for (w, &v) in per_worker.iter().enumerate() {
            out[self.domain_of[w]] += v;
        }
        out
    }

    /// Jobs executed per domain.
    pub fn executed_by_domain(&self) -> Vec<u64> {
        self.sum_by_domain(&self.executed)
    }

    /// In-domain steals per domain (attributed to the thief's domain).
    pub fn local_steals_by_domain(&self) -> Vec<u64> {
        self.sum_by_domain(&self.local_steals)
    }

    /// Cross-domain steals per domain (attributed to the thief's domain).
    pub fn remote_steals_by_domain(&self) -> Vec<u64> {
        self.sum_by_domain(&self.remote_steals)
    }

    /// Coefficient of variation of per-worker executed counts — the load
    /// imbalance measure used by the experiments (0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        cv(self.executed.iter().map(|&x| x as f64))
    }

    /// Coefficient of variation of per-domain executed counts, normalized
    /// by domain size (each domain contributes its mean jobs *per
    /// worker*, so uneven topologies don't read as imbalanced when every
    /// worker did equal work): how evenly the load spread across the
    /// locality domains (0 = perfectly balanced). Under
    /// [`Topology::flat`] this coincides with [`PoolStats::imbalance`].
    pub fn imbalance_by_domain(&self) -> f64 {
        let mut sizes = vec![0u64; self.num_domains()];
        for &d in &self.domain_of {
            sizes[d] += 1;
        }
        let per_worker = self
            .executed_by_domain()
            .iter()
            .zip(&sizes)
            .map(|(&e, &s)| e as f64 / s.max(1) as f64)
            .collect::<Vec<_>>();
        cv(per_worker.into_iter())
    }
}

/// Coefficient of variation of a value sequence, in one pass (Welford's
/// online mean/variance update).
fn cv(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut n, mut mean, mut m2) = (0.0f64, 0.0f64, 0.0f64);
    for x in xs {
        n += 1.0;
        let d = x - mean;
        mean += d / n;
        m2 += d * (x - mean);
    }
    if n == 0.0 || mean == 0.0 {
        return 0.0;
    }
    (m2 / n).sqrt() / mean
}

/// Slot lifecycle states (see the module header, *Elastic workers*).
/// `Active` → `Retiring` is requested by [`Pool::retire_in`];
/// `Retiring` → `Vacant` is committed by the worker itself after its
/// drain; `Vacant` → `Active` is claimed by [`Pool::grow_in`].
const SLOT_ACTIVE: u8 = 0;
const SLOT_RETIRING: u8 = 1;
const SLOT_VACANT: u8 = 2;

struct Shared {
    topology: Topology,
    injector: Injector<Job>,
    /// One affinity injector per locality domain.
    domain_injectors: Vec<Injector<Job>>,
    /// Affinity spawns per domain (see [`PoolStats::domain_spawns`]).
    domain_spawns: Vec<AtomicU64>,
    stealers: Vec<Stealer<Job>>,
    counters: Vec<WorkerCounters>,
    /// Jobs spawned but not yet finished (includes currently-running).
    active: AtomicUsize,
    /// Jobs whose body panicked (the unwind is contained per job).
    panics: AtomicU64,
    /// Jobs dropped unrun at the grain boundary (cancelled token).
    cancelled: AtomicU64,
    shutdown: AtomicBool,
    /// Per-slot lifecycle state (`SLOT_ACTIVE` / `SLOT_RETIRING` /
    /// `SLOT_VACANT`), parallel to `stealers`.
    slot_states: Vec<AtomicU8>,
    /// Live count of active (non-vacant) worker slots. Decremented by the
    /// *reservation* in [`Pool::retire_in`] — not by the worker's exit —
    /// so concurrent retires cannot race the pool below one worker.
    active_workers: AtomicUsize,
    /// Parked deques of vacant slots, indexed by slot. A retiring worker
    /// stores its drained deque here *before* marking the slot vacant;
    /// `grow_in` takes it back after winning the vacant→active CAS, so
    /// the mutex hand-off orders the two and the slot's stealer stays
    /// valid across the whole retire/grow cycle.
    vacant_deques: Mutex<Vec<Option<Deque<Job>>>>,
    /// Cumulative grow events (see [`PoolStats::grows`]).
    grows: AtomicU64,
    /// Cumulative completed retires (see [`PoolStats::retires`]).
    retires: AtomicU64,
    /// Worker threads lost to an escaped unwind (see module header,
    /// *Supervision*).
    worker_deaths: AtomicU64,
    /// Worker threads respawned in place by supervision.
    respawns: AtomicU64,
    /// Worker thread handles, including supervision respawns (which is
    /// why they live here and not on [`Pool`]: a dying worker registers
    /// its replacement). Drained in a loop by `Pool::drop`.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The armed fault-injection plane (off by default; see
    /// [`crate::faults`]). Owned per pool so concurrent pools — and the
    /// serving layer driving this pool, which shares the plane via
    /// [`Pool::fault_plane`] — never interfere.
    faults: FaultPlane,
    /// Park/wake coordination for idle workers ([`crate::sleepers`] owns
    /// the protocol and its counters; this module just drives it).
    sleepers: Sleepers,
    /// Quiescence coordination for `wait_quiescent`.
    quiet_lock: Mutex<()>,
    quiet_cv: Condvar,
}

/// Execution context handed to every SGT body.
pub struct WorkerCtx<'a> {
    shared: &'a Arc<Shared>,
    deque: &'a Deque<Job>,
    /// This worker's id.
    pub id: WorkerId,
    /// The locality domain this worker belongs to.
    pub domain: DomainId,
    /// Set when a [`PanicAccounting`] guard already counted the current
    /// job's panic, so `run_job` does not count it a second time.
    panic_counted: Cell<bool>,
}

/// Counts an unwinding job body's panic in `PoolStats::panics` at the
/// point the guard drops — see [`WorkerCtx::panic_accounting`].
pub(crate) struct PanicAccounting<'c, 'a> {
    ctx: &'c WorkerCtx<'a>,
}

impl Drop for PanicAccounting<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.ctx.panic_counted.replace(true) {
            self.ctx.shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<'a> WorkerCtx<'a> {
    /// A guard that counts the current job's panic, if it unwinds, when
    /// the guard drops rather than after the body has fully unwound. A job
    /// whose own drop guards publish its completion declares this guard
    /// *after* them (locals drop in reverse order), so whoever observes
    /// the completion also observes the panic in the pool's stats.
    pub(crate) fn panic_accounting(&self) -> PanicAccounting<'_, 'a> {
        PanicAccounting { ctx: self }
    }

    /// Spawn a child job onto this worker's own deque (LIFO — depth-first,
    /// cache-friendly; stealable by idle peers, siblings first). Wakes one
    /// sleeping domain sibling if there is one — the cheapest thief for a
    /// job sitting in this worker's deque.
    pub fn spawn(&self, job: impl FnOnce(&WorkerCtx) + Send + 'static) {
        self.shared.active.fetch_add(1, Ordering::AcqRel);
        self.deque.push(Job::plain(Box::new(job)));
        self.shared.bump_epoch();
        self.shared.wake_one_in(self.domain.0 as usize);
    }

    /// Spawn to the global injector (used when the spawner wants to
    /// *avoid* keeping the work local). Wakes exactly one sleeper, with a
    /// rotating first-choice domain.
    pub fn spawn_global(&self, job: impl FnOnce(&WorkerCtx) + Send + 'static) {
        self.shared.active.fetch_add(1, Ordering::AcqRel);
        self.shared.injector.push(Job::plain(Box::new(job)));
        self.shared.bump_epoch();
        self.shared.wake_one_rotated();
    }

    /// Spawn into a specific domain's injector: the job is "home" there
    /// (its pickup is not a steal) and only leaves via a remote steal when
    /// the other domains have run dry.
    ///
    /// # Panics
    /// Panics if `domain` is out of range for the pool's topology.
    pub fn spawn_in_domain(&self, domain: DomainId, job: impl FnOnce(&WorkerCtx) + Send + 'static) {
        self.shared
            .spawn_in_domain(domain, Job::plain(Box::new(job)));
    }

    /// Number of workers in the pool.
    pub fn workers(&self) -> usize {
        self.shared.stealers.len()
    }

    /// Number of locality domains in the pool.
    pub fn num_domains(&self) -> usize {
        self.shared.topology.num_domains()
    }
}

impl Shared {
    /// Invariant 1 of the idle protocol: called by every spawn *after* its
    /// job is visible in a deque or injector and *before* any sleeper
    /// lookup. A batch bumps once for the whole batch.
    fn bump_epoch(&self) {
        self.sleepers.bump_epoch();
    }

    /// Wake one sleeper, preferring `home` and falling outward in ring
    /// order (see [`Sleepers::wake_one_in`]).
    fn wake_one_in(&self, home: usize) {
        self.sleepers.wake_one_in(home);
    }

    /// Wake one sleeper with no affinity (see
    /// [`Sleepers::wake_one_rotated`]).
    fn wake_one_rotated(&self) {
        self.sleepers.wake_one_rotated();
    }

    /// Shutdown broadcast: pop and token every registered sleeper. The
    /// only remaining full-pool wake, and it runs once per pool lifetime.
    fn wake_all_for_shutdown(&self) {
        self.sleepers.wake_all();
    }

    /// Park worker `w` of `domain` until a wake token arrives
    /// (see [`Sleepers::park`]); shutdown and a pending retire of this
    /// slot both double as abort signals, so neither a closing pool nor
    /// a retire request ever strands a worker in the registry.
    fn park(&self, w: usize, domain: DomainId, observed_epoch: u64) {
        self.sleepers
            .park(w, domain.0 as usize, observed_epoch, || {
                self.shutdown.load(Ordering::SeqCst)
                    || self.slot_states[w].load(Ordering::SeqCst) == SLOT_RETIRING
            });
    }

    fn spawn_in_domain(&self, domain: DomainId, job: Job) {
        self.push_in_domain(domain, job);
        self.bump_epoch();
        self.wake_one_in(domain.0 as usize);
    }

    /// Enqueue a job into a domain injector without waking anyone — the
    /// building block of batched spawns (wakes are grouped per batch).
    fn push_in_domain(&self, domain: DomainId, job: Job) {
        assert!(
            (domain.0 as usize) < self.domain_injectors.len(),
            "{domain} out of range for a {}-domain pool",
            self.domain_injectors.len()
        );
        self.active.fetch_add(1, Ordering::AcqRel);
        self.domain_spawns[domain.0 as usize].fetch_add(1, Ordering::Relaxed);
        self.domain_injectors[domain.0 as usize].push(job);
    }

    fn job_finished(&self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.quiet_lock.lock();
            self.quiet_cv.notify_all();
        }
    }
}

/// An approximate snapshot of queue depths across the scheduling spine
/// (see [`Pool::queue_depths`] for the relaxed racy-read contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueDepths {
    /// Approximate jobs in each worker's own deque.
    pub workers: Vec<usize>,
    /// Approximate jobs in each domain's injector.
    pub domain_injectors: Vec<usize>,
    /// Approximate jobs in the global injector.
    pub global_injector: usize,
}

impl QueueDepths {
    /// Approximate total queued (not yet running) jobs.
    pub fn total(&self) -> usize {
        self.workers.iter().sum::<usize>()
            + self.domain_injectors.iter().sum::<usize>()
            + self.global_injector
    }
}

/// A work-stealing thread pool partitioned into locality domains, with a
/// fixed slot capacity and an elastic active worker set (see the module
/// header, *Elastic workers*).
pub struct Pool {
    shared: Arc<Shared>,
}

impl Pool {
    /// Spin up a pool with no locality grouping: `workers` singleton
    /// domains (at least 1) — the uniform work-stealing baseline.
    pub fn new(workers: usize) -> Self {
        Self::with_topology(Topology::flat(workers))
    }

    /// Spin up one OS thread per worker of `topology`, grouped into its
    /// locality domains. The pool has no vacant slots: capacity equals
    /// the active worker count and [`Pool::grow_in`] always fails.
    pub fn with_topology(topology: Topology) -> Self {
        Self::with_elastic(topology, 0)
    }

    /// Spin up `topology`'s workers plus `headroom` *vacant slots per
    /// domain*. Vacant slots cost their deque and mailbox but no thread;
    /// [`Pool::grow_in`] activates them and [`Pool::retire_in`] returns
    /// active workers to vacancy at runtime. The pool's [`Topology`] (and
    /// every per-worker stats vector) covers all slots, active or not.
    ///
    /// When `topology` carries cpu pin assignments (a detected machine
    /// topology), headroom slots inherit the cpus of their domain
    /// round-robin, so an extra worker on a core-domain lands on one of
    /// that core's SMT siblings.
    ///
    /// The fault plane is armed from `HTVM_FAULTS` (off when unset); use
    /// [`Pool::with_fault_plan`] to arm a programmatic plan instead.
    pub fn with_elastic(topology: Topology, headroom: usize) -> Self {
        Self::with_fault_plan(topology, headroom, FaultPlan::from_env())
    }

    /// [`Pool::with_elastic`] with an explicit [`FaultPlan`] instead of
    /// the `HTVM_FAULTS` environment spec — the chaos suites use this to
    /// arm per-test plans without cross-test env interference.
    pub fn with_fault_plan(topology: Topology, headroom: usize, plan: FaultPlan) -> Self {
        let base_sizes = topology.sizes().to_vec();
        let slot_topology = if headroom == 0 {
            topology.clone()
        } else {
            let sizes: Vec<usize> = base_sizes.iter().map(|&s| s + headroom).collect();
            let mut slot_topo = Topology::from_sizes(sizes.clone());
            if topology.cpu_of(0).is_some() {
                let mut cpus = Vec::with_capacity(sizes.iter().sum());
                for (d, &size) in sizes.iter().enumerate() {
                    let home = topology.workers_of(DomainId(d as u64));
                    let home_cpus: Vec<usize> = home.filter_map(|w| topology.cpu_of(w)).collect();
                    for i in 0..size {
                        cpus.push(home_cpus[i % home_cpus.len()]);
                    }
                }
                slot_topo = slot_topo.with_cpus(cpus);
            }
            slot_topo
        };
        let slots = slot_topology.workers();
        let deques: Vec<Deque<Job>> = (0..slots).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let counters = (0..slots).map(|_| WorkerCounters::default()).collect();
        let domain_injectors = (0..slot_topology.num_domains())
            .map(|_| Injector::new())
            .collect();
        let domain_spawns = (0..slot_topology.num_domains())
            .map(|_| AtomicU64::new(0))
            .collect();
        let sleepers = Sleepers::new(slot_topology.num_domains(), slots);
        // The first `base_sizes[d]` slots of each domain start active;
        // the headroom tail of each domain starts vacant.
        let mut active_of_slot = vec![false; slots];
        let mut active_count = 0usize;
        for (d, &size) in base_sizes.iter().enumerate() {
            let range = slot_topology.workers_of(DomainId(d as u64));
            for slot in range.take(size) {
                active_of_slot[slot] = true;
                active_count += 1;
            }
        }
        let slot_states = active_of_slot
            .iter()
            .map(|&a| AtomicU8::new(if a { SLOT_ACTIVE } else { SLOT_VACANT }))
            .collect();
        let shared = Arc::new(Shared {
            topology: slot_topology,
            injector: Injector::new(),
            domain_injectors,
            domain_spawns,
            stealers,
            counters,
            active: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            slot_states,
            active_workers: AtomicUsize::new(active_count),
            vacant_deques: Mutex::new(Vec::new()),
            grows: AtomicU64::new(0),
            retires: AtomicU64::new(0),
            worker_deaths: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            handles: Mutex::new(Vec::with_capacity(active_count)),
            faults: FaultPlane::new(plan),
            sleepers,
            quiet_lock: Mutex::new(()),
            quiet_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(active_count);
        let mut vacant = Vec::with_capacity(slots);
        for (i, deque) in deques.into_iter().enumerate() {
            if active_of_slot[i] {
                let shared = shared.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("htvm-worker-{i}"))
                        .spawn(move || worker_loop(i, deque, shared))
                        .expect("spawn worker thread"),
                );
                vacant.push(None);
            } else {
                vacant.push(Some(deque));
            }
        }
        *shared.vacant_deques.lock() = vacant;
        *shared.handles.lock() = handles;
        Self { shared }
    }

    /// This pool's fault-injection plane (see [`crate::faults`]). The
    /// serving layer hits its own fault points (`serve.dispatch`, …)
    /// against the same plane so one `HTVM_FAULTS` spec or
    /// [`FaultPlan`] governs the whole stack above this pool.
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.shared.faults
    }

    /// Activate one vacant slot in `domain`: hand it its parked deque and
    /// spawn a worker thread for it. Returns the activated worker's id,
    /// or `None` when the domain has no vacant slot (always the case for
    /// pools built without headroom).
    ///
    /// # Panics
    /// Panics if `domain` is out of range for the pool's topology.
    pub fn grow_in(&self, domain: DomainId) -> Option<WorkerId> {
        for slot in self.shared.topology.workers_of(domain) {
            if self.shared.slot_states[slot]
                .compare_exchange(SLOT_VACANT, SLOT_ACTIVE, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // The vacant→active CAS wins the slot; the deque was
                // stored before the slot went vacant (mutex-ordered), so
                // the take cannot miss.
                let deque = self.shared.vacant_deques.lock()[slot]
                    .take()
                    .expect("vacant slot holds a parked deque");
                self.shared.active_workers.fetch_add(1, Ordering::SeqCst);
                self.shared.grows.fetch_add(1, Ordering::Relaxed);
                let shared = self.shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("htvm-worker-{slot}"))
                    .spawn(move || worker_loop(slot, deque, shared))
                    .expect("spawn worker thread");
                self.shared.handles.lock().push(handle);
                return Some(WorkerId(slot as u64));
            }
        }
        None
    }

    /// Grow in whichever domain has a vacant slot, preferring `first`
    /// and falling outward in ring order (the wake-escalation order).
    pub fn grow_anywhere(&self, first: DomainId) -> Option<WorkerId> {
        let nd = self.num_domains();
        (0..nd)
            .map(|off| DomainId(((first.0 as usize + off) % nd) as u64))
            .find_map(|d| self.grow_in(d))
    }

    /// Ask one active worker of `domain` to retire (highest slot first).
    /// Asynchronous: the returned worker finishes its current job, drains
    /// and republishes its deque, then vacates its slot — poll
    /// [`Pool::active_workers`] or [`PoolStats::retires`] to observe
    /// completion. Returns `None` when the domain has no active worker to
    /// spare or the pool is down to its last active worker (the pool
    /// never retires that one: queued work is only reachable while
    /// somebody sweeps).
    ///
    /// # Panics
    /// Panics if `domain` is out of range for the pool's topology.
    pub fn retire_in(&self, domain: DomainId) -> Option<WorkerId> {
        if !self.reserve_retire() {
            return None;
        }
        for slot in self.shared.topology.workers_of(domain).rev() {
            if self.flag_retiring(slot) {
                return Some(WorkerId(slot as u64));
            }
        }
        // No active slot in this domain: return the reservation.
        self.shared.active_workers.fetch_add(1, Ordering::SeqCst);
        None
    }

    /// Ask one *specific* worker to retire (same handshake and same
    /// last-worker guard as [`Pool::retire_in`]). Returns whether the
    /// retire was requested — `false` when the slot is not currently
    /// active or the pool is down to one worker.
    pub fn retire_worker(&self, worker: WorkerId) -> bool {
        let slot = worker.0 as usize;
        if slot >= self.workers() || !self.reserve_retire() {
            return false;
        }
        if self.flag_retiring(slot) {
            true
        } else {
            self.shared.active_workers.fetch_add(1, Ordering::SeqCst);
            false
        }
    }

    /// Reserve a retire against the active gauge. Decrementing *before*
    /// choosing a slot is what makes "never below one active worker" hold
    /// under concurrent retires: two racing callers both see `a == 2` but
    /// only one CAS wins the reservation.
    fn reserve_retire(&self) -> bool {
        loop {
            let a = self.shared.active_workers.load(Ordering::SeqCst);
            if a <= 1 {
                return false;
            }
            if self
                .shared
                .active_workers
                .compare_exchange(a, a - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Flip one slot active→retiring and deliver the retire wake. Same
    /// two-sided shape as shutdown (invariant 3): flag (SeqCst), epoch
    /// bump, then the targeted wake. A worker mid-park either sees the
    /// flag/bump in its registered re-check (the park abort covers the
    /// flag directly), or its registration is visible to `wake_worker`.
    fn flag_retiring(&self, slot: usize) -> bool {
        if self.shared.slot_states[slot]
            .compare_exchange(
                SLOT_ACTIVE,
                SLOT_RETIRING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            self.shared.bump_epoch();
            let domain = self.shared.topology.domain_of(slot).0 as usize;
            self.shared.sleepers.wake_worker(slot, domain);
            true
        } else {
            false
        }
    }

    /// Currently active (non-vacant) worker slots. Counts a requested
    /// retire immediately (the reservation), even while the retiring
    /// worker is still draining.
    pub fn active_workers(&self) -> usize {
        self.shared.active_workers.load(Ordering::SeqCst)
    }

    /// Per-domain census of slot states: `(active, vacant)` counts, each
    /// indexed by domain. A slot mid-retire counts as active (its thread
    /// is still draining); the two vectors therefore sum to the slot
    /// capacity per domain. Racy by nature — a controller's planning
    /// input, not a synchronization primitive.
    pub fn slot_census(&self) -> (Vec<usize>, Vec<usize>) {
        let nd = self.num_domains();
        let mut active = vec![0usize; nd];
        let mut vacant = vec![0usize; nd];
        for (slot, state) in self.shared.slot_states.iter().enumerate() {
            let d = self.shared.topology.domain_of(slot).0 as usize;
            if state.load(Ordering::SeqCst) == SLOT_VACANT {
                vacant[d] += 1;
            } else {
                active[d] += 1;
            }
        }
        (active, vacant)
    }

    /// Spawn a job from outside the pool. Wakes exactly one worker (a
    /// rotating first-choice domain spreads unaffine wakes over the
    /// topology) — one futex op per spawn, not a broadcast.
    pub fn spawn(&self, job: impl FnOnce(&WorkerCtx) + Send + 'static) {
        self.shared.active.fetch_add(1, Ordering::AcqRel);
        self.shared.injector.push(Job::plain(Box::new(job)));
        self.shared.bump_epoch();
        self.shared.wake_one_rotated();
    }

    /// Spawn a job from outside the pool with domain affinity: it lands in
    /// `domain`'s injector and stays there unless imbalance forces a
    /// remote steal.
    ///
    /// # Panics
    /// Panics if `domain` is out of range for the pool's topology.
    pub fn spawn_in(&self, domain: DomainId, job: impl FnOnce(&WorkerCtx) + Send + 'static) {
        self.shared
            .spawn_in_domain(domain, Job::plain(Box::new(job)));
    }

    /// Spawn with the serving envelope: optional domain affinity,
    /// optional [`CancelToken`] (checked at the grain boundary — a job
    /// whose token resolved cancelled is dropped unrun and its body
    /// destructors run on the worker thread), and optional [`PoolTag`]
    /// accounting. Wake behavior matches [`Pool::spawn_in`] /
    /// [`Pool::spawn`] according to whether a domain is given.
    ///
    /// # Panics
    /// Panics if `opts.domain` is out of range for the pool's topology.
    pub fn spawn_with(&self, opts: SpawnOpts, job: impl FnOnce(&WorkerCtx) + Send + 'static) {
        let envelope = Job {
            body: Box::new(job),
            token: opts.token,
            tag: opts.tag,
        };
        match opts.domain {
            Some(domain) => self.shared.spawn_in_domain(domain, envelope),
            None => {
                self.shared.active.fetch_add(1, Ordering::AcqRel);
                self.shared.injector.push(envelope);
                self.shared.bump_epoch();
                self.shared.wake_one_rotated();
            }
        }
    }

    /// Spawn a batch of domain-affine jobs with grouped wakes: every job
    /// lands in its domain's injector first, then each domain receives up
    /// to as many targeted wakes as it received jobs — never more wakes
    /// than jobs, never a pool-wide broadcast. A group scheduler (e.g.
    /// `htvm_ssp::exec`) uses this to place one iteration group per domain
    /// without paying a futex storm per group; the placement is recorded
    /// in [`PoolStats::domain_spawns`].
    ///
    /// # Panics
    /// Panics if any domain is out of range for the pool's topology.
    pub fn spawn_batch_in<F>(&self, jobs: impl IntoIterator<Item = (DomainId, F)>)
    where
        F: FnOnce(&WorkerCtx) + Send + 'static,
    {
        let nd = self.shared.domain_injectors.len();
        let mut per_domain: Vec<Vec<Job>> = (0..nd).map(|_| Vec::new()).collect();
        for (domain, job) in jobs {
            assert!(
                (domain.0 as usize) < nd,
                "{domain} out of range for a {nd}-domain pool"
            );
            per_domain[domain.0 as usize].push(Job::plain(Box::new(job)));
        }
        let mut wakes = vec![0u64; nd];
        let mut any = false;
        for (d, batch) in per_domain.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let n = batch.len();
            self.shared.active.fetch_add(n, Ordering::AcqRel);
            self.shared.domain_spawns[d].fetch_add(n as u64, Ordering::Relaxed);
            // One lock-free publish per domain: the whole run claims its
            // injector slots with a single `fetch_add` per segment
            // crossed, instead of n individual enqueues.
            self.shared.domain_injectors[d].push_batch(batch);
            wakes[d] = n as u64;
            any = true;
        }
        if !any {
            return;
        }
        // One epoch bump covers the whole batch (every job was published
        // above); then hand each domain its share of wakes. `wake_one_in`
        // returns immediately once nobody is parked, so a large batch on a
        // busy pool costs one atomic load per job, not a futex each.
        self.shared.bump_epoch();
        for (d, &n) in wakes.iter().enumerate() {
            for _ in 0..n {
                self.shared.wake_one_in(d);
            }
        }
    }

    /// Block until every spawned job (including transitively spawned
    /// children) has finished.
    ///
    /// **Shared-pool caveat:** quiescence is a *global* property — the
    /// active count covers every spawner, not just the caller. On a
    /// long-lived serving pool that is continuously fed (`htvm_serve`),
    /// this may never return; a batch run sharing such a pool must
    /// track its own completion (e.g. dataflow joins on its own
    /// handles, as `run_parallel_on` does) instead of waiting for the
    /// whole pool to drain.
    pub fn wait_quiescent(&self) {
        let mut g = self.shared.quiet_lock.lock();
        while self.shared.active.load(Ordering::Acquire) != 0 {
            self.shared.quiet_cv.wait(&mut g);
        }
    }

    /// Number of worker slots (active plus vacant). Per-worker stats
    /// vectors and [`Topology::workers`] use this count; the live thread
    /// count is [`Pool::active_workers`]. Equal for pools built without
    /// elastic headroom.
    pub fn workers(&self) -> usize {
        self.shared.stealers.len()
    }

    /// The pool's locality-domain topology.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// Number of locality domains.
    pub fn num_domains(&self) -> usize {
        self.shared.topology.num_domains()
    }

    /// Workers currently registered in the sleeper registry — a live
    /// gauge, not a cumulative counter. Note this cannot be derived from
    /// [`PoolStats::parks`] minus [`PoolStats::total_wakes`]: a waker can
    /// pop a worker that registered but then refused to sleep (failed
    /// epoch re-check), recording a wake with no matching park.
    pub fn parked_workers(&self) -> usize {
        self.shared.sleepers.parked()
    }

    /// Block (politely yielding) until every worker is registered in the
    /// sleeper registry, or `timeout` elapses; returns whether the pool
    /// became fully parked. Because a worker records its park in
    /// [`PoolStats::parks`] *before* joining the gauge, a `true` return
    /// also guarantees the counter has settled — no in-flight park can
    /// bump it afterwards while the pool stays idle. Intended for tests
    /// and benchmarks that need a cold-pool baseline; production code
    /// never needs to wait for idleness.
    pub fn wait_fully_parked(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        // `<` rather than `!=`: on an elastic pool the parked gauge can
        // transiently exceed the active count while a retire reservation
        // has landed but its worker is still registered.
        while self.parked_workers() < self.active_workers() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Approximate queue depths across the pool's scheduling spine — a
    /// **racy snapshot**, not a consistent cut: each count is read
    /// independently from lock-free cursors while workers keep pushing,
    /// popping and stealing, so the numbers can be mutually inconsistent
    /// and stale by the time this returns (a job mid-migration may be
    /// counted twice or not at all). That is the documented contract for
    /// everything queue depth feeds — steal-victim skipping inside the
    /// pool, and load probes like this one. Use [`Pool::wait_quiescent`]
    /// plus [`Pool::stats`] when an exact account is needed.
    pub fn queue_depths(&self) -> QueueDepths {
        QueueDepths {
            workers: self.shared.stealers.iter().map(|s| s.len()).collect(),
            domain_injectors: self
                .shared
                .domain_injectors
                .iter()
                .map(|i| i.len())
                .collect(),
            global_injector: self.shared.injector.len(),
        }
    }

    /// Current activity snapshot.
    pub fn stats(&self) -> PoolStats {
        let load = |f: fn(&WorkerCounters) -> &AtomicU64| -> Vec<u64> {
            self.shared
                .counters
                .iter()
                .map(|c| f(c).load(Ordering::Relaxed))
                .collect()
        };
        PoolStats {
            executed: load(|c| &c.executed),
            local_steals: load(|c| &c.local_steals),
            remote_steals: load(|c| &c.remote_steals),
            panics: self.shared.panics.load(Ordering::Relaxed),
            cancelled: self.shared.cancelled.load(Ordering::Relaxed),
            domain_of: (0..self.workers())
                .map(|w| self.shared.topology.domain_of(w).0 as usize)
                .collect(),
            domain_spawns: self
                .shared
                .domain_spawns
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            parks: self.shared.sleepers.parks(),
            wakes_targeted: self.shared.sleepers.wakes_targeted(),
            wakes_escalated: self.shared.sleepers.wakes_escalated(),
            grows: self.shared.grows.load(Ordering::Relaxed),
            retires: self.shared.retires.load(Ordering::Relaxed),
            worker_deaths: self.shared.worker_deaths.load(Ordering::Relaxed),
            respawns: self.shared.respawns.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // SeqCst store + epoch bump: a worker mid-park either sees the
        // flag/bump in its registered re-check, or its registration is
        // visible to the drain below — the same two-sided argument as a
        // spawn (module-header invariant 3).
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.bump_epoch();
        self.shared.wake_all_for_shutdown();
        // Includes handles of already-exited retirees (those joins return
        // immediately). Looped: a worker dying concurrently with shutdown
        // may register a respawn handle after the first drain — joining
        // the dead worker's own handle happens-after that push, so the
        // next pass always picks the replacement up.
        //
        // The drop can run ON a pool worker: a job dropped mid-unwind can
        // hold the last strong reference to a stack that owns the pool
        // (e.g. a serving request's finish guard → server inner →
        // `Arc<Pool>`). Joining that worker's own handle would be a
        // self-join — std's join panics on the EDEADLK, and a panic
        // inside this destructor during the unwind aborts the process —
        // so the self-handle is detached instead. That is safe: the
        // worker owns its own `Arc<Shared>`, so nothing this thread still
        // touches is freed before it exits.
        let me = std::thread::current().id();
        loop {
            let handles: Vec<JoinHandle<()>> = self.shared.handles.lock().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                if h.thread().id() == me {
                    continue;
                }
                let _ = h.join();
            }
        }
    }
}

/// Failed full work-search cycles an idle worker tolerates (yielding the
/// CPU each time) before it parks indefinitely in the sleeper registry.
/// Bulk-synchronous codes re-spawn work within a phase's tail (tens to
/// hundreds of µs); parking there would pay a full futex wake (itself
/// tens to hundreds of µs on virtualized hosts) per phase.
/// Spinning-then-parking is the standard work-stealing discipline (cf.
/// rayon/Cilk); each cycle yields, so the spin donates its core whenever
/// anything else is runnable. Once parked, a worker consumes nothing
/// until a spawn delivers a wake token.
const IDLE_SPINS_BEFORE_PARK: u32 = 512;

/// Drain one `Steal` source, retrying on contention.
fn try_steal(source: impl Fn() -> Steal<Job>) -> Option<Job> {
    loop {
        match source() {
            Steal::Success(job) => return Some(job),
            Steal::Retry => continue,
            Steal::Empty => return None,
        }
    }
}

/// One full proximity-ordered work search (steps 2–5 of the module-header
/// protocol; step 1, the own deque, is handled by the caller). Returns the
/// job and how it was acquired.
fn find_work(
    shared: &Shared,
    index: usize,
    my_domain: DomainId,
    deque: &Deque<Job>,
) -> Option<(Job, Acquire)> {
    // Chaos hook on the steal path: fires before the epoch pin so an
    // injected unwind never holds reclamation back. A kill here escapes
    // to the worker's DeathWatch while no job is held.
    crate::fault_point!(shared.faults, "worker.steal");
    // Pin once for the whole proximity sweep: epoch pins are reentrant,
    // so every steal attempt below rides this guard's fence instead of
    // paying its own — a sweep over W victims costs one fence, not W.
    // The guard drops before the job runs (the caller executes outside
    // this function), so job bodies never hold back reclamation.
    let _pin = crate::deque::pin();
    let topo = &shared.topology;
    let home = topo.workers_of(my_domain);

    // 2. Sibling deques within the domain, ring order after self.
    //
    // Victim selection reads the deques' *approximate* length snapshots
    // (`Stealer::is_empty` — two plain loads, no fence, no pin): a victim
    // that looks empty is skipped without paying a full steal attempt.
    // The snapshot is racy by contract — it may miss a push that lands
    // mid-search — but that cannot strand work: a spawner publishes its
    // job *before* bumping the idle-protocol epoch, so any worker that
    // subsequently parks on this search's "empty" answer re-checks the
    // epoch and re-searches (module header, invariants 1–3).
    let span = home.len();
    for off in 1..span {
        let v = home.start + (index - home.start + off) % span;
        if shared.stealers[v].is_empty() {
            continue;
        }
        if let Some(job) = try_steal(|| shared.stealers[v].steal()) {
            return Some((job, Acquire::LocalSteal));
        }
    }
    // 3. The domain's own injector: home work, not a steal.
    if let Some(job) =
        try_steal(|| shared.domain_injectors[my_domain.0 as usize].steal_batch_and_pop(deque))
    {
        return Some((job, Acquire::Owned));
    }
    // 4. Remote domains, ring order after the home domain: raid the
    // injector first (undispatched work migrates cheaper than a hot
    // deque's), then the workers' deques.
    let nd = topo.num_domains();
    for doff in 1..nd {
        let d = (my_domain.0 as usize + doff) % nd;
        if let Some(job) = try_steal(|| shared.domain_injectors[d].steal()) {
            return Some((job, Acquire::RemoteSteal));
        }
        for v in topo.workers_of(DomainId(d as u64)) {
            // Same approximate-length pre-check as the sibling scan.
            if shared.stealers[v].is_empty() {
                continue;
            }
            if let Some(job) = try_steal(|| shared.stealers[v].steal()) {
                return Some((job, Acquire::RemoteSteal));
            }
        }
    }
    // 5. The global injector.
    if let Some(job) = try_steal(|| shared.injector.steal_batch_and_pop(deque)) {
        return Some((job, Acquire::Owned));
    }
    None
}

/// One full work search: own deque first (step 1, LIFO), then the
/// proximity-ordered steps 2–5 of [`find_work`].
fn next_job(
    shared: &Shared,
    index: usize,
    domain: DomainId,
    deque: &Deque<Job>,
) -> Option<(Job, Acquire)> {
    if let Some(job) = deque.pop() {
        return Some((job, Acquire::Owned));
    }
    find_work(shared, index, domain, deque)
}

fn worker_loop(index: usize, deque: Deque<Job>, shared: Arc<Shared>) {
    if let Some(cpu) = shared.topology.cpu_of(index) {
        // Advisory: a rejected mask (cpu offline, cgroup cpuset) leaves
        // the worker unpinned, which is slower but never wrong.
        let _ = crate::machine::pin_current_thread(cpu);
    }
    // Supervision: the watch owns the deque so an unwind escaping
    // `run_worker` (an injected kill, a runtime bug) can republish it and
    // respawn the slot from the dying thread's own drop glue. Normal
    // exits (shutdown, retire) disarm it and take the deque back.
    let mut watch = DeathWatch {
        index,
        deque: Some(deque),
        shared: shared.clone(),
    };
    let retire = run_worker(
        index,
        watch.deque.as_ref().expect("watch holds deque"),
        &shared,
    );
    let deque = watch.deque.take().expect("watch still holds deque");
    drop(watch);
    if retire {
        finish_retire(index, deque, &shared);
    }
}

/// The per-worker supervision guard (module header, *Supervision*): owns
/// the worker's deque; fires only when the thread exits by unwinding.
struct DeathWatch {
    index: usize,
    deque: Option<Deque<Job>>,
    shared: Arc<Shared>,
}

impl Drop for DeathWatch {
    fn drop(&mut self) {
        let Some(deque) = self.deque.take() else {
            return; // disarmed: normal shutdown/retire exit
        };
        let shared = &self.shared;
        let index = self.index;
        shared.worker_deaths.fetch_add(1, Ordering::Relaxed);
        // Republish the dead worker's queued jobs exactly as a retire
        // would: they are already in the active gauge, and every one gets
        // its wake (plus the unconditional rotated wake re-issuing any
        // token a spawner spent on this worker before it died).
        let domain = shared.topology.domain_of(index).0 as usize;
        let mut republished = 0usize;
        while let Some(job) = deque.pop() {
            shared.domain_injectors[domain].push(job);
            republished += 1;
        }
        shared.bump_epoch();
        for _ in 0..republished {
            shared.wake_one_in(domain);
        }
        shared.wake_one_rotated();
        // A death can race a retire request for the same slot: the
        // reservation already came out of `active_workers`, so complete
        // the retire here instead of resurrecting a worker nobody wants.
        if shared.slot_states[index].load(Ordering::SeqCst) == SLOT_RETIRING {
            let mut vacant = shared.vacant_deques.lock();
            vacant[index] = Some(deque);
            drop(vacant);
            shared.slot_states[index].store(SLOT_VACANT, Ordering::SeqCst);
            shared.retires.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the pool is tearing down; nothing to heal
        }
        // Respawn into the same still-Active slot. The slot never passes
        // through Vacant, so the heal cannot race `grow_in` over slot
        // ownership and the `active_workers` gauge is untouched. If
        // shutdown lands between the check above and this spawn, the new
        // worker observes the flag at its loop top (or in its park-abort
        // re-check) and exits; `Pool::drop`'s join loop reaps it.
        shared.respawns.fetch_add(1, Ordering::Relaxed);
        let respawn = self.shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("htvm-worker-{index}"))
            .spawn(move || worker_loop(index, deque, respawn))
            .expect("respawn worker thread");
        shared.handles.lock().push(handle);
    }
}

/// The worker's job loop. Returns `true` when the worker must retire
/// (drain + republish, in [`finish_retire`]) and `false` on shutdown.
fn run_worker(index: usize, deque: &Deque<Job>, shared: &Arc<Shared>) -> bool {
    let ctx = WorkerCtx {
        shared,
        deque,
        id: WorkerId(index as u64),
        domain: shared.topology.domain_of(index),
        panic_counted: Cell::new(false),
    };
    let mut idle_spins = 0u32;
    loop {
        // The retire flag is checked at every grain boundary — one SeqCst
        // load per job, which is noise next to the accounting RMWs a job
        // already pays — so a busy worker retires after its current job,
        // not after its deque happens to run dry.
        if shared.slot_states[index].load(Ordering::SeqCst) == SLOT_RETIRING {
            return !shared.shutdown.load(Ordering::Acquire);
        }
        if let Some((job, how)) = next_job(shared, index, ctx.domain, deque) {
            idle_spins = 0;
            run_job(shared, index, &ctx, job, how);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        // Nothing anywhere: spin politely for a while (new work usually
        // arrives at phase boundaries within microseconds), then park
        // indefinitely — only a spawn's wake token, a retire request or
        // shutdown ends the park, never a timer.
        idle_spins += 1;
        if idle_spins < IDLE_SPINS_BEFORE_PARK {
            std::thread::yield_now();
            continue;
        }
        idle_spins = 0;
        // Pre-park protocol (invariant 2): observe the epoch, then prove
        // the pool empty once more *under that observation* before
        // committing to park. Reading the epoch only here keeps the
        // globally-written counter's cache line off the per-job hot path
        // above — a spawn-heavy pool never touches it.
        let epoch = shared.sleepers.observe_epoch();
        if let Some((job, how)) = next_job(shared, index, ctx.domain, deque) {
            run_job(shared, index, &ctx, job, how);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        // Chaos hook on the park path: fires *before* registration, so an
        // injected kill never strands a dead worker's entry in the
        // sleeper registry (a registered corpse would eat one wake).
        crate::fault_point!(shared.faults, "worker.park");
        shared.park(index, ctx.domain, epoch);
    }
}

/// Complete a retire: drain the worker's own deque into its domain
/// injector (the jobs are already in the active gauge — this is a
/// republish, not a spawn), re-issue wakes for the republished work plus
/// one rotated wake for any token a spawner may have spent on this
/// worker, park the deque in the slot for a future [`Pool::grow_in`],
/// and mark the slot vacant. The thread then exits; its thread-local
/// epoch participant is deregistered by the TLS destructor
/// (see [`crate::deque`]).
fn finish_retire(index: usize, deque: Deque<Job>, shared: &Arc<Shared>) {
    let domain = shared.topology.domain_of(index).0 as usize;
    // Nothing lands in this deque once we stop executing: only the owner
    // pushes (worker-local spawns and injector batch refills both happen
    // on this thread). Stealers may keep raiding it concurrently, which
    // only helps the drain.
    let mut republished = 0usize;
    while let Some(job) = deque.pop() {
        shared.domain_injectors[domain].push(job);
        republished += 1;
    }
    shared.bump_epoch();
    for _ in 0..republished {
        shared.wake_one_in(domain);
    }
    // A spawner that saw this worker parked may have spent its single
    // wake token on us (invariant 4 delivered it; we consumed it to get
    // here). Its job is published and findable, but nobody else was
    // woken for it — hand the wake on unconditionally. On an empty pool
    // the woken worker searches once, finds nothing and re-parks.
    shared.wake_one_rotated();
    {
        let mut vacant = shared.vacant_deques.lock();
        vacant[index] = Some(deque);
    }
    // Vacant only after the deque is parked (mutex-ordered with
    // `grow_in`'s take).
    shared.slot_states[index].store(SLOT_VACANT, Ordering::SeqCst);
    shared.retires.fetch_add(1, Ordering::Relaxed);
}

fn run_job(shared: &Arc<Shared>, index: usize, ctx: &WorkerCtx, job: Job, how: Acquire) {
    let Job { body, token, tag } = job;
    // Grain-boundary cancellation checkpoint: `try_claim` is the
    // `PENDING → CLAIMED` CAS that races `CancelToken::cancel` — exactly
    // one side wins, so a job cancelled while queued is either dropped
    // here (its cancelled resolution already ran via the token's hook)
    // or runs to completion, never both and never neither. Dropping the
    // body on this thread also runs its captured destructors, so
    // whatever the closure owns (in-flight gauges, response state) is
    // released on a worker, not leaked in an injector.
    let claimed = token.as_ref().is_none_or(|t| t.try_claim());
    if !claimed {
        shared.cancelled.fetch_add(1, Ordering::Relaxed);
        if let Some(tag) = &tag {
            tag.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        drop(body);
        shared.job_finished();
        return;
    }
    let c = &shared.counters[index];
    c.executed.fetch_add(1, Ordering::Relaxed);
    if let Some(tag) = &tag {
        tag.counters.executed.fetch_add(1, Ordering::Relaxed);
    }
    match how {
        Acquire::Owned => {}
        Acquire::LocalSteal => {
            c.local_steals.fetch_add(1, Ordering::Relaxed);
        }
        Acquire::RemoteSteal => {
            c.remote_steals.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Contain panics to the job: an unwinding body must not take down the
    // worker (the pool would silently lose a fraction of its parallelism)
    // nor leak the active count (wait_quiescent would hang forever).
    // Exception: an injected *kill* payload (see [`crate::faults`]) is
    // accounted like any panic but then deliberately rethrown — the
    // fault plane is asking for thread death, and supervision (the
    // worker's DeathWatch) must heal it. Accounting first means even a
    // killed job settles the active gauge before the thread dies.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::fault_point!(shared.faults, "worker.body");
        body(ctx)
    }));
    if let Err(payload) = result {
        if !ctx.panic_counted.replace(false) {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        let kill = crate::faults::injected_from_payload(payload.as_ref()).is_some_and(|f| f.kill);
        shared.job_finished();
        if kill {
            std::panic::resume_unwind(payload);
        }
    } else {
        shared.job_finished();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    /// Poll `f` until it holds or ~2s elapse (supervision counters are
    /// bumped by the dying thread's drop glue, which runs *after* the
    /// job's active-gauge settle — `wait_quiescent` alone can return a
    /// hair early).
    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        for _ in 0..2000 {
            if f() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        f()
    }

    #[test]
    fn killed_worker_respawns_and_loses_no_jobs() {
        use crate::faults::{FaultKind, FaultRule};
        let plan = FaultPlan::new().rule(FaultRule::new("worker.body", FaultKind::Kill).max(2));
        let pool = Pool::with_fault_plan(Topology::flat(2), 0, plan);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let done = done.clone();
            pool.spawn(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_quiescent();
        assert_eq!(
            done.load(Ordering::SeqCst),
            98,
            "exactly the 2 killed jobs are lost"
        );
        assert!(
            eventually(|| {
                let s = pool.stats();
                s.worker_deaths == 2 && s.respawns == 2
            }),
            "supervision healed both deaths: {:?} deaths / {:?} respawns",
            pool.stats().worker_deaths,
            pool.stats().respawns
        );
        assert_eq!(
            pool.stats().panics,
            2,
            "kills are accounted like panics first"
        );
        assert_eq!(pool.active_workers(), 2, "census intact");
        // The healed pool still executes new work.
        let done2 = done.clone();
        pool.spawn(move |_| {
            done2.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 99);
    }

    #[test]
    fn kill_on_the_park_path_heals_without_stranding_wakes() {
        use crate::faults::{FaultKind, FaultRule};
        let plan = FaultPlan::new().rule(FaultRule::new("worker.park", FaultKind::Kill).max(1));
        let pool = Pool::with_fault_plan(Topology::flat(2), 0, plan);
        // Let the pool go idle: some worker reaches the park hook and dies.
        assert!(
            eventually(|| {
                let s = pool.stats();
                s.worker_deaths == 1 && s.respawns == 1
            }),
            "idle worker died at the park hook and was respawned"
        );
        assert_eq!(pool.stats().panics, 0, "no job was involved");
        // The healed pool still runs work to completion (wakes intact).
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let done = done.clone();
            pool.spawn(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 50);
        assert_eq!(pool.active_workers(), 2);
    }

    #[test]
    fn delay_faults_perturb_timing_only() {
        use crate::faults::{FaultKind, FaultRule};
        let plan = FaultPlan::new().rule(
            FaultRule::new(
                "worker.body",
                FaultKind::Delay(std::time::Duration::from_micros(50)),
            )
            .p(0.5)
            .seed(7),
        );
        let pool = Pool::with_fault_plan(Topology::flat(2), 0, plan);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let done = done.clone();
            pool.spawn(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 64);
        let s = pool.stats();
        assert_eq!((s.panics, s.worker_deaths, s.respawns), (0, 0, 0));
        assert!(pool.fault_plane().injected_total() > 0, "delays did fire");
    }

    #[test]
    fn runs_all_jobs() {
        let pool = Pool::new(4);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let done = done.clone();
            pool.spawn(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 100);
        assert_eq!(pool.stats().total_executed(), 100);
    }

    #[test]
    fn nested_spawns_are_awaited() {
        let pool = Pool::new(4);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let done = done.clone();
            pool.spawn(move |ctx| {
                for _ in 0..10 {
                    let done = done.clone();
                    ctx.spawn(move |_| {
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn deep_recursion_completes() {
        let pool = Pool::new(4);
        let done = Arc::new(AtomicU64::new(0));
        fn rec(depth: u32, ctx: &WorkerCtx, done: Arc<AtomicU64>) {
            if depth == 0 {
                done.fetch_add(1, Ordering::SeqCst);
                return;
            }
            for _ in 0..2 {
                let done = done.clone();
                ctx.spawn(move |c| rec(depth - 1, c, done));
            }
        }
        let d2 = done.clone();
        pool.spawn(move |ctx| rec(10, ctx, d2));
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 1024);
    }

    /// Hold the calling worker until `done` holds or 10 s pass. A held
    /// worker cannot take more work, so a test job that waits here for a
    /// peer's progress makes that progress depend on the pool handing the
    /// remaining work to another worker — by construction, not by the
    /// luck of OS scheduling — and the deadline turns a pool that never
    /// does into a failed assertion rather than a hang.
    fn hold_until(done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn work_spreads_across_workers() {
        let pool = Pool::new(4);
        let seen = Arc::new(Mutex::new(HashSet::new()));
        for _ in 0..400 {
            let seen = seen.clone();
            pool.spawn(move |ctx| {
                seen.lock().insert(ctx.id);
                // Rendezvous: no job finishes until two workers have run.
                hold_until(|| seen.lock().len() >= 2);
            });
        }
        pool.wait_quiescent();
        assert!(
            seen.lock().len() >= 2,
            "expected at least two workers to participate"
        );
    }

    #[test]
    fn stealing_happens_under_skewed_spawning() {
        let pool = Pool::new(4);
        // One root job spawns all the work locally; others must steal.
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        pool.spawn(move |ctx| {
            for _ in 0..200 {
                let d = d.clone();
                ctx.spawn(move |_| {
                    std::hint::black_box((0..5000).sum::<u64>());
                    d.fetch_add(1, Ordering::SeqCst);
                });
            }
            // The root holds its worker until a child has run: the
            // children sit in this worker's deque, so only a thief can
            // run one.
            hold_until(|| d.load(Ordering::SeqCst) > 0);
        });
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 200);
        assert!(
            pool.stats().total_stolen() > 0,
            "peers should have stolen from the busy worker"
        );
    }

    #[test]
    fn flat_topology_steals_are_all_remote() {
        // Under flat (singleton domains) a worker has no siblings: every
        // steal must be classified remote.
        let pool = Pool::new(4);
        let d = Arc::new(AtomicU64::new(0));
        let d2 = d.clone();
        pool.spawn(move |ctx| {
            for _ in 0..100 {
                let d = d2.clone();
                ctx.spawn(move |_| {
                    std::hint::black_box((0..5000).sum::<u64>());
                    d.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        pool.wait_quiescent();
        let stats = pool.stats();
        assert_eq!(stats.total_local_steals(), 0, "flat has no siblings");
        assert_eq!(stats.total_stolen(), stats.total_remote_steals());
    }

    #[test]
    fn grouped_topologies_drain_all_work() {
        for topo in [
            Topology::flat(1),
            Topology::flat(3),
            Topology::domains(2, 2),
            Topology::from_sizes([1, 3]),
        ] {
            let pool = Pool::with_topology(topo.clone());
            let done = Arc::new(AtomicU64::new(0));
            for _ in 0..8 {
                let done = done.clone();
                pool.spawn(move |ctx| {
                    for _ in 0..8 {
                        let done = done.clone();
                        ctx.spawn(move |_| {
                            done.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
            pool.wait_quiescent();
            assert_eq!(done.load(Ordering::SeqCst), 64, "topology {topo:?}");
        }
    }

    #[test]
    fn domain_affinity_spawns_complete() {
        let pool = Pool::with_topology(Topology::domains(2, 2));
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..50u64 {
            let done = done.clone();
            pool.spawn_in(DomainId(i % 2), move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 50);
        assert_eq!(pool.stats().total_executed(), 50);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_domain_spawn_panics() {
        let pool = Pool::with_topology(Topology::domains(2, 1));
        pool.spawn_in(DomainId(2), |_| {});
    }

    #[test]
    fn batched_domain_spawns_complete_and_are_recorded() {
        let pool = Pool::with_topology(Topology::domains(2, 2));
        let done = Arc::new(AtomicU64::new(0));
        pool.spawn_batch_in((0..10u64).map(|g| {
            let done = done.clone();
            (DomainId(g % 2), move |_: &WorkerCtx| {
                done.fetch_add(1, Ordering::SeqCst);
            })
        }));
        // An empty batch is a no-op, not a hang.
        pool.spawn_batch_in(std::iter::empty::<(DomainId, fn(&WorkerCtx))>());
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 10);
        let stats = pool.stats();
        assert_eq!(stats.domain_spawns, vec![5, 5]);
        assert_eq!(stats.total_domain_spawns(), 10);
    }

    #[test]
    fn worker_ctx_reports_domain() {
        let pool = Pool::with_topology(Topology::domains(2, 2));
        let seen = Arc::new(Mutex::new(Vec::new()));
        for d in 0..2u64 {
            for _ in 0..8 {
                let seen = seen.clone();
                pool.spawn_in(DomainId(d), move |ctx| {
                    seen.lock().push((d, ctx.id, ctx.domain));
                    // The ctx's own id/domain are always consistent with
                    // the topology, wherever the job ended up running.
                    std::hint::black_box((0..1000).sum::<u64>());
                });
            }
        }
        pool.wait_quiescent();
        let topo = pool.topology().clone();
        for (_, id, dom) in seen.lock().iter() {
            assert_eq!(topo.domain_of(id.0 as usize), *dom);
        }
        assert_eq!(pool.num_domains(), 2);
    }

    #[test]
    fn cancelled_jobs_are_dropped_and_counted() {
        let pool = Pool::new(2);
        let ran = Arc::new(AtomicU64::new(0));
        let tag = PoolTag::new();
        // Park the pool so queued jobs sit in the injector while we
        // cancel half of them before anything runs.
        wait_all_parked(&pool);
        let mut tokens = Vec::new();
        for _ in 0..10 {
            let token = CancelToken::new();
            tokens.push(token.clone());
            let ran = ran.clone();
            pool.spawn_with(
                SpawnOpts {
                    token: Some(token),
                    tag: Some(tag.clone()),
                    ..SpawnOpts::default()
                },
                move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                },
            );
        }
        for t in &tokens[..5] {
            t.cancel();
        }
        pool.wait_quiescent();
        let stats = pool.stats();
        let slice = tag.stats();
        // At least the 5 pre-cancelled tokens resolved cancelled; a
        // racing worker may have claimed some before the cancel landed,
        // so assert conservation, not an exact split.
        assert_eq!(slice.executed + slice.cancelled, 10);
        assert_eq!(slice.executed, ran.load(Ordering::SeqCst));
        assert_eq!(stats.cancelled, slice.cancelled);
        assert_eq!(stats.total_executed(), slice.executed);
        let resolved = tokens.iter().filter(|t| t.is_cancelled()).count();
        let claimed = tokens.iter().filter(|t| t.was_claimed()).count();
        assert_eq!(resolved + claimed, 10, "every token settled exactly once");
    }

    #[test]
    fn spawn_with_domain_routes_to_injector() {
        let pool = Pool::with_topology(Topology::domains(2, 1));
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        pool.spawn_with(
            SpawnOpts {
                domain: Some(DomainId(1)),
                ..SpawnOpts::default()
            },
            move |_| {
                d.fetch_add(1, Ordering::SeqCst);
            },
        );
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats().domain_spawns, vec![0, 1]);
    }

    #[test]
    fn dropped_cancelled_body_runs_destructors_on_worker() {
        struct Marker(Arc<AtomicU64>);
        impl Drop for Marker {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = Pool::new(1);
        wait_all_parked(&pool);
        let drops = Arc::new(AtomicU64::new(0));
        let token = CancelToken::new();
        token.cancel();
        let m = Marker(drops.clone());
        pool.spawn_with(
            SpawnOpts {
                token: Some(token),
                ..SpawnOpts::default()
            },
            move |_| {
                let _keep = &m;
                unreachable!("cancelled before dispatch");
            },
        );
        pool.wait_quiescent();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "closure state released");
        assert_eq!(pool.stats().cancelled, 1);
        assert_eq!(pool.stats().total_executed(), 0);
    }

    #[test]
    fn stats_since_reports_the_delta() {
        let pool = Pool::new(2);
        for _ in 0..5 {
            pool.spawn(|_| {});
        }
        pool.wait_quiescent();
        let base = pool.stats();
        for _ in 0..3 {
            pool.spawn(|_| {});
        }
        pool.wait_quiescent();
        let delta = pool.stats().since(&base);
        assert_eq!(delta.total_executed(), 3);
        assert_eq!(delta.panics, 0);
        assert_eq!(delta.domain_of, base.domain_of);
    }

    #[test]
    fn wait_quiescent_with_no_work_returns() {
        let pool = Pool::new(2);
        pool.wait_quiescent();
    }

    #[test]
    fn pool_shuts_down_cleanly() {
        let pool = Pool::new(3);
        pool.spawn(|_| {});
        pool.wait_quiescent();
        drop(pool);
    }

    #[test]
    fn imbalance_metric_behaves() {
        let s = PoolStats {
            executed: vec![10, 10, 10, 10],
            local_steals: vec![0; 4],
            remote_steals: vec![0; 4],
            panics: 0,
            cancelled: 0,
            domain_of: vec![0, 0, 1, 1],
            domain_spawns: vec![0; 2],
            parks: 0,
            wakes_targeted: 0,
            wakes_escalated: 0,
            grows: 0,
            retires: 0,
            worker_deaths: 0,
            respawns: 0,
        };
        assert!(s.imbalance() < 1e-9);
        assert!(s.imbalance_by_domain() < 1e-9);
        let s2 = PoolStats {
            executed: vec![40, 0, 0, 0],
            local_steals: vec![0; 4],
            remote_steals: vec![0; 4],
            panics: 0,
            cancelled: 0,
            domain_of: vec![0, 0, 1, 1],
            domain_spawns: vec![0; 2],
            parks: 0,
            wakes_targeted: 0,
            wakes_escalated: 0,
            grows: 0,
            retires: 0,
            worker_deaths: 0,
            respawns: 0,
        };
        assert!(s2.imbalance() > 1.0);
        assert!(s2.imbalance_by_domain() > 0.9);
        // Uneven topology, perfectly balanced per worker: the domain
        // metric must normalize by domain size and report 0.
        let s3 = PoolStats {
            executed: vec![100, 100, 100, 100],
            local_steals: vec![0; 4],
            remote_steals: vec![0; 4],
            panics: 0,
            cancelled: 0,
            domain_of: vec![0, 1, 1, 1],
            domain_spawns: vec![0; 2],
            parks: 0,
            wakes_targeted: 0,
            wakes_escalated: 0,
            grows: 0,
            retires: 0,
            worker_deaths: 0,
            respawns: 0,
        };
        assert!(s3.imbalance_by_domain() < 1e-9);
    }

    #[test]
    fn per_domain_aggregation_and_ratio() {
        let s = PoolStats {
            executed: vec![5, 7, 1, 3],
            local_steals: vec![2, 0, 1, 0],
            remote_steals: vec![1, 0, 0, 0],
            panics: 0,
            cancelled: 0,
            domain_of: vec![0, 0, 1, 1],
            domain_spawns: vec![3, 1],
            parks: 0,
            wakes_targeted: 0,
            wakes_escalated: 0,
            grows: 0,
            retires: 0,
            worker_deaths: 0,
            respawns: 0,
        };
        assert_eq!(s.executed_by_domain(), vec![12, 4]);
        assert_eq!(s.local_steals_by_domain(), vec![2, 1]);
        assert_eq!(s.remote_steals_by_domain(), vec![1, 0]);
        assert_eq!(s.total_stolen(), 4);
        assert_eq!(s.total_domain_spawns(), 4);
        assert!((s.remote_steal_ratio() - 0.25).abs() < 1e-12);
        let empty = PoolStats {
            executed: vec![0; 2],
            local_steals: vec![0; 2],
            remote_steals: vec![0; 2],
            panics: 0,
            cancelled: 0,
            domain_of: vec![0, 1],
            domain_spawns: vec![0; 2],
            parks: 0,
            wakes_targeted: 0,
            wakes_escalated: 0,
            grows: 0,
            retires: 0,
            worker_deaths: 0,
            respawns: 0,
        };
        assert_eq!(empty.remote_steal_ratio(), 0.0);
    }

    #[test]
    fn panicking_job_does_not_hang_quiescence() {
        let pool = Pool::new(2);
        pool.spawn(|_| panic!("injected failure"));
        pool.wait_quiescent();
        assert_eq!(pool.stats().panics, 1);
    }

    #[test]
    fn pool_survives_panics_and_keeps_working() {
        let pool = Pool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..50 {
            let done = done.clone();
            pool.spawn(move |_| {
                if i % 5 == 0 {
                    panic!("injected failure {i}");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 40);
        assert_eq!(pool.stats().panics, 10);
        // All workers are still alive and accept new work.
        for _ in 0..10 {
            let done = done.clone();
            pool.spawn(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn children_of_panicking_job_still_run() {
        let pool = Pool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        pool.spawn(move |ctx| {
            for _ in 0..8 {
                let d = d.clone();
                ctx.spawn(move |_| {
                    d.fetch_add(1, Ordering::SeqCst);
                });
            }
            panic!("parent fails after spawning");
        });
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 8);
        assert_eq!(pool.stats().panics, 1);
    }

    /// Block until every worker of `pool` has parked. Parking is thread
    /// state, not CPU occupancy, so this is deterministic even on a
    /// single-CPU host — it only needs the idle spin budget to run out.
    fn wait_all_parked(pool: &Pool) {
        assert!(
            pool.wait_fully_parked(std::time::Duration::from_secs(30)),
            "workers never parked: {:?}",
            pool.stats()
        );
    }

    #[test]
    fn idle_workers_park_once_and_stay_parked() {
        let pool = Pool::with_topology(Topology::domains(2, 2));
        wait_all_parked(&pool);
        let before = pool.stats();
        assert_eq!(before.parks, 4, "each worker parks exactly once");
        // Long enough that the deleted 1ms re-poll would have re-parked
        // every worker dozens of times.
        std::thread::sleep(std::time::Duration::from_millis(80));
        let after = pool.stats();
        assert_eq!(after.parks, before.parks, "a parked worker woke itself");
        assert_eq!(after.total_wakes(), 0, "nothing spawned, nothing woken");
        assert_eq!(after.total_executed(), 0);
        assert_eq!(pool.parked_workers(), 4, "the live gauge agrees");
    }

    #[test]
    fn affinity_spawn_wakes_home_domain_sleeper() {
        let pool = Pool::with_topology(Topology::domains(2, 2));
        wait_all_parked(&pool);
        let done = Arc::new(AtomicU64::new(0));
        let d2 = done.clone();
        pool.spawn_in(DomainId(1), move |_| {
            d2.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        let stats = pool.stats();
        // The wake was satisfied inside the home domain: no escalation.
        assert_eq!(stats.wakes_targeted, 1, "{stats:?}");
        assert_eq!(stats.wakes_escalated, 0, "{stats:?}");
    }

    #[test]
    fn exhausted_home_domain_escalates_the_wake() {
        // Domain 0 has a single worker. The first affinity spawn pops it
        // from the registry synchronously (the pop happens inside
        // `spawn_in`, before the worker has even woken), so the second
        // spawn finds domain 0 empty and must fall outward in ring order
        // to a domain-1 sleeper.
        let pool = Pool::with_topology(Topology::from_sizes([1, 3]));
        wait_all_parked(&pool);
        let done = Arc::new(AtomicU64::new(0));
        // Handshake instead of a sleep: whichever worker runs the first
        // job blocks on `gate` until the test releases it after the
        // second spawn, so no amount of test-thread preemption can let a
        // worker re-park between the two spawns.
        let gate = Arc::new(AtomicU64::new(0));
        {
            let done = done.clone();
            let gate = gate.clone();
            pool.spawn_in(DomainId(0), move |_| {
                while gate.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let done = done.clone();
            pool.spawn_in(DomainId(0), move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        gate.store(1, Ordering::Release);
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 2);
        let stats = pool.stats();
        assert_eq!(stats.wakes_targeted, 1, "{stats:?}");
        assert_eq!(stats.wakes_escalated, 1, "{stats:?}");
        assert!((stats.escalated_wake_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn external_spawn_wakes_exactly_one_worker() {
        let pool = Pool::with_topology(Topology::domains(2, 2));
        wait_all_parked(&pool);
        let done = Arc::new(AtomicU64::new(0));
        let d2 = done.clone();
        pool.spawn(move |_| {
            d2.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats().total_wakes(), 1, "one spawn, one wake");
    }

    #[test]
    fn batch_spawn_wakes_at_most_one_sleeper_per_job() {
        let pool = Pool::with_topology(Topology::domains(2, 2));
        wait_all_parked(&pool);
        let done = Arc::new(AtomicU64::new(0));
        pool.spawn_batch_in((0..2u64).map(|g| {
            let done = done.clone();
            (DomainId(g), move |_: &WorkerCtx| {
                done.fetch_add(1, Ordering::SeqCst);
            })
        }));
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 2);
        let stats = pool.stats();
        assert!(stats.total_wakes() <= 2, "{stats:?}");
        assert!(stats.total_wakes() >= 1, "a fully parked pool needs a wake");
    }

    #[test]
    fn workers_repark_after_quiescence_and_wake_again() {
        let pool = Pool::with_topology(Topology::domains(2, 1));
        wait_all_parked(&pool);
        let done = Arc::new(AtomicU64::new(0));
        for round in 1..=3u64 {
            let parked_before = pool.stats().parks;
            for _ in 0..4 {
                let done = done.clone();
                pool.spawn(move |_| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.wait_quiescent();
            assert_eq!(done.load(Ordering::SeqCst), 4 * round);
            // At least one worker was woken for the round (the pool was
            // fully parked) and must re-park once the pool drains.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while pool.stats().parks == parked_before {
                assert!(
                    std::time::Instant::now() < deadline,
                    "woken workers never re-parked: {:?}",
                    pool.stats()
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    /// Poll until the pool's completed-retire counter reaches `n` (retire
    /// is asynchronous: the reservation lands immediately, the drain when
    /// the worker next checks its flag).
    fn wait_retires(pool: &Pool, n: u64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while pool.stats().retires < n {
            assert!(
                std::time::Instant::now() < deadline,
                "retire never completed: {:?}",
                pool.stats()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn fixed_pools_have_no_headroom() {
        let pool = Pool::new(2);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.active_workers(), 2);
        assert_eq!(pool.grow_in(DomainId(0)), None);
    }

    #[test]
    fn grow_and_retire_round_trip() {
        let pool = Pool::with_elastic(Topology::domains(2, 1), 1);
        // 2 domains × (1 active + 1 vacant) = 4 slots, 2 threads.
        assert_eq!(pool.workers(), 4);
        assert_eq!(pool.active_workers(), 2);
        let grown = pool.grow_in(DomainId(0)).expect("a vacant slot exists");
        assert_eq!(pool.active_workers(), 3);
        assert_eq!(pool.grow_in(DomainId(0)), None, "domain 0 is full now");
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let done = done.clone();
            pool.spawn(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 64);
        let retired = pool.retire_in(DomainId(0)).expect("domain 0 can shrink");
        // Highest active slot of the domain goes first — the one we grew.
        assert_eq!(retired, grown);
        assert_eq!(pool.active_workers(), 2);
        wait_retires(&pool, 1);
        // The slot is reusable: grow it again and run more work through it.
        assert_eq!(pool.grow_in(DomainId(0)), Some(grown));
        for _ in 0..64 {
            let done = done.clone();
            pool.spawn(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 128);
        let stats = pool.stats();
        assert_eq!(stats.grows, 2);
        assert_eq!(stats.retires, 1);
    }

    #[test]
    fn pool_never_retires_its_last_worker() {
        let pool = Pool::with_elastic(Topology::flat(1), 2);
        assert_eq!(pool.active_workers(), 1);
        assert_eq!(pool.retire_in(DomainId(0)), None);
        // Grow one, and the original becomes retirable — but only one of
        // the two can go.
        pool.grow_in(DomainId(0)).expect("headroom exists");
        assert!(pool.retire_in(DomainId(0)).is_some());
        assert_eq!(pool.retire_in(DomainId(0)), None);
        assert_eq!(pool.active_workers(), 1);
    }

    #[test]
    fn retiring_worker_republishes_its_queued_children() {
        // Two workers in one domain. Block one with a decoy job, have the
        // other spawn children into its own deque and block too — the
        // children cannot move (the only possible thief is busy). Retire
        // the spawner mid-job: when its gate opens it must drain and
        // republish every child into the domain injector, observable
        // before the decoy worker is released to run them.
        let pool = Pool::with_elastic(Topology::from_sizes([2]), 0);
        let done = Arc::new(AtomicU64::new(0));
        let decoy_gate = Arc::new(AtomicU64::new(0));
        let spawner_gate = Arc::new(AtomicU64::new(0));
        let spawner_id = Arc::new(AtomicU64::new(u64::MAX));
        {
            let gate = decoy_gate.clone();
            pool.spawn(move |_| {
                while gate.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            });
        }
        // Wait until the decoy occupies one worker (it parks nobody: it
        // spins). Then the second job must land on the other worker.
        while pool.queue_depths().total() > 0 {
            std::thread::yield_now();
        }
        {
            let (done, gate, id) = (done.clone(), spawner_gate.clone(), spawner_id.clone());
            pool.spawn(move |ctx| {
                for _ in 0..16 {
                    let done = done.clone();
                    ctx.spawn(move |_| {
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
                id.store(ctx.id.0, Ordering::SeqCst);
                while gate.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            });
        }
        while spawner_id.load(Ordering::SeqCst) == u64::MAX {
            std::thread::yield_now();
        }
        let spawner = WorkerId(spawner_id.load(Ordering::SeqCst));
        assert!(pool.retire_worker(spawner), "spawner is active");
        assert!(!pool.retire_worker(spawner), "already retiring");
        // Open the spawner's gate: it finishes its job, sees the retire
        // flag, and republishes all 16 children into the domain injector.
        spawner_gate.store(1, Ordering::SeqCst);
        wait_retires(&pool, 1);
        assert_eq!(
            pool.queue_depths().domain_injectors[0],
            16,
            "children republished, untouched (their only thief is busy)"
        );
        assert_eq!(done.load(Ordering::SeqCst), 0);
        assert_eq!(pool.active_workers(), 1);
        // Release the decoy: the survivor picks the republished work up.
        decoy_gate.store(1, Ordering::SeqCst);
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 16, "no republished job lost");
    }

    #[test]
    fn grow_retire_cycles_conserve_jobs_and_tokens() {
        let pool = Pool::with_elastic(Topology::domains(2, 1), 2);
        let done = Arc::new(AtomicU64::new(0));
        let mut spawned = 0u64;
        for cycle in 0..40u64 {
            let d = DomainId(cycle % 2);
            for _ in 0..8 {
                let done = done.clone();
                pool.spawn_in(d, move |_| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
                spawned += 1;
            }
            if cycle % 2 == 0 {
                pool.grow_anywhere(d);
            } else {
                pool.retire_in(d);
            }
        }
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), spawned);
        // Every requested retire completed (no worker wedged mid-drain),
        // after which the pool still parks cleanly: no leaked token can
        // be pending against a vacated slot.
        let stats = pool.stats();
        wait_retires(&pool, stats.retires);
        assert!(
            pool.wait_fully_parked(std::time::Duration::from_secs(30)),
            "{:?}",
            pool.stats()
        );
        assert!(pool.active_workers() >= 1);
    }

    #[test]
    fn retire_wakes_a_parked_worker_out_of_the_registry() {
        let pool = Pool::with_elastic(Topology::flat(2), 0);
        wait_all_parked(&pool);
        let retired = pool.retire_in(DomainId(1)).expect("two active workers");
        assert_eq!(retired, WorkerId(1));
        wait_retires(&pool, 1);
        // The survivor still parks; the retiree is out of the registry.
        assert!(
            pool.wait_fully_parked(std::time::Duration::from_secs(30)),
            "{:?}",
            pool.stats()
        );
        assert_eq!(pool.parked_workers(), 1);
        // And the pool still executes work afterwards.
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        pool.spawn(move |_| {
            d.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
