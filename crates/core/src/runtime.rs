//! The `Htvm` facade: the thread hierarchy over the native pool.
//!
//! * [`Htvm::lgt`] starts a large-grain thread: it gets private memory (a
//!   [`SharedRegion`], allocated on first use) and a completion handle.
//!   [`Htvm::lgt_in`] adds a locality-domain affinity hint: the LGT's
//!   whole SGT subtree is kept in that domain of the pool's [`Topology`]
//!   unless imbalance forces a remote steal. Both run the body as a pool
//!   job.
//! * [`Htvm::run_lgt`] runs the body as the LGT **on the calling thread**
//!   — the thread that reaches the LGT becomes its master instead of
//!   handing it to a worker and waiting — then joins the SGT subtree, which
//!   runs on the pool. A panicking body is re-raised only after the join.
//!   The caller must not be a worker of the same pool (like a blocking
//!   [`LgtHandle::join`], the join would park a worker the subtree may
//!   need).
//! * [`LgtCtx::spawn_sgt`] invokes a small-grain thread: a stealable job
//!   with its own [`Frame`]; it sees the LGT memory through the context.
//!   SGTs land on the spawning worker's deque and migrate in proximity
//!   order — domain siblings first, remote domains only when a whole
//!   domain has run dry (see [`crate::native`]). A caller-run LGT has no
//!   deque, so its SGTs enter through the pool's injectors.
//! * [`SgtCtx::tgt_graph`] runs a tiny-grain thread graph inline, sharing
//!   the SGT frame.
//!
//! Completion tracking is dataflow, not fork-join: each LGT keeps an
//! outstanding-SGT counter and fires an [`IVar`] when it drains, so joining
//! an LGT never blocks a pool worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::frame::Frame;
use crate::ids::{DomainId, IdGen, LgtId, SgtId};
use crate::native::{Pool, PoolStats, WorkerCtx};
use crate::region::SharedRegion;
use crate::sync::{IVar, WaitMeter};
use crate::tgt::TgtGraph;
use crate::topology::Topology;

/// Configuration of the native HTVM runtime.
#[derive(Debug, Clone)]
pub struct HtvmConfig {
    /// Locality-domain layout of the SGT pool (worker count and grouping).
    /// Defaults to a flat topology over the available CPUs.
    pub topology: Topology,
    /// Words of private memory given to each LGT (allocated when the LGT
    /// first asks for its memory).
    pub lgt_memory_words: usize,
    /// Slots in each SGT frame.
    pub frame_slots: usize,
}

impl Default for HtvmConfig {
    fn default() -> Self {
        Self {
            topology: Topology::default(),
            lgt_memory_words: 1 << 16,
            frame_slots: 16,
        }
    }
}

impl HtvmConfig {
    /// A config with a specific worker count and no locality grouping.
    pub fn with_workers(workers: usize) -> Self {
        Self::with_topology(Topology::flat(workers))
    }

    /// A config with an explicit locality-domain topology.
    pub fn with_topology(topology: Topology) -> Self {
        Self {
            topology,
            ..Self::default()
        }
    }
}

struct LgtShared {
    id: LgtId,
    /// Private memory, zeroed and allocated on first use: an LGT that
    /// never touches it (every LITL-X program run) skips a
    /// `lgt_memory_words` allocation and its memset.
    memory: OnceLock<SharedRegion>,
    memory_words: usize,
    /// Outstanding SGTs + 1 for the LGT body itself.
    outstanding: AtomicU64,
    done: IVar<()>,
    sgt_ids: IdGen,
    frame_slots: usize,
    /// Locality-domain affinity: when set, SGTs spawned from outside the
    /// home domain are routed back to its injector instead of the local
    /// deque, so the subtree stays home unless imbalance steals it away.
    home: Option<DomainId>,
}

impl LgtShared {
    fn memory(&self) -> &SharedRegion {
        self.memory
            .get_or_init(|| SharedRegion::new(self.memory_words))
    }

    fn retire_one(&self) {
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.put(());
        }
    }
}

/// Retires one outstanding count on drop — including during unwinding, so
/// a panicking LGT/SGT body (contained by the pool) cannot leak the count
/// and wedge [`LgtHandle::join`] forever. Jobs declare a
/// [`WorkerCtx::panic_accounting`] guard after it, so a panic is counted
/// before the retire can release a joiner.
struct RetireGuard(Arc<LgtShared>);

impl Drop for RetireGuard {
    fn drop(&mut self) {
        self.0.retire_one();
    }
}

/// The native HTVM runtime.
pub struct Htvm {
    pool: Arc<Pool>,
    cfg: HtvmConfig,
    lgt_ids: IdGen,
}

impl Htvm {
    /// Start the runtime.
    pub fn new(cfg: HtvmConfig) -> Self {
        Self {
            pool: Arc::new(Pool::with_topology(cfg.topology.clone())),
            cfg,
            lgt_ids: IdGen::new(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The pool's locality-domain topology.
    pub fn topology(&self) -> &Topology {
        self.pool.topology()
    }

    /// Number of locality domains.
    pub fn num_domains(&self) -> usize {
        self.pool.num_domains()
    }

    /// Pool activity counters (steals double as migration counts; the
    /// local/remote split measures how often migration crossed a domain
    /// boundary, and the park/wake counters measure what idling cost —
    /// `parks` stays flat on an idle runtime, `wakes_escalated` counts
    /// wakeups that could not be satisfied in the spawn's home domain).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The underlying native pool — the escape hatch for executor layers
    /// (e.g. `htvm_ssp::exec`) that schedule iteration groups directly with
    /// domain placement instead of going through the LGT/SGT facade.
    pub fn pool(&self) -> Arc<Pool> {
        self.pool.clone()
    }

    /// Invoke a large-grain thread with no placement preference. The body
    /// runs on the pool; use the returned handle to join.
    pub fn lgt<F>(&self, body: F) -> LgtHandle
    where
        F: FnOnce(&LgtCtx) + Send + 'static,
    {
        self.lgt_impl(None, body)
    }

    /// Invoke a large-grain thread with a locality-domain affinity hint:
    /// the body starts in `domain` and every SGT of its subtree is kept
    /// there unless imbalance forces a remote steal.
    ///
    /// # Panics
    /// Panics if `domain` is out of range for the configured topology.
    pub fn lgt_in<F>(&self, domain: DomainId, body: F) -> LgtHandle
    where
        F: FnOnce(&LgtCtx) + Send + 'static,
    {
        self.lgt_impl(Some(domain), body)
    }

    /// A fresh LGT whose outstanding count holds one unit for the body.
    fn new_lgt(&self, home: Option<DomainId>) -> Arc<LgtShared> {
        Arc::new(LgtShared {
            id: LgtId(self.lgt_ids.next()),
            memory: OnceLock::new(),
            memory_words: self.cfg.lgt_memory_words,
            outstanding: AtomicU64::new(1),
            done: IVar::new(),
            sgt_ids: IdGen::new(),
            frame_slots: self.cfg.frame_slots,
            home,
        })
    }

    fn lgt_impl<F>(&self, home: Option<DomainId>, body: F) -> LgtHandle
    where
        F: FnOnce(&LgtCtx) + Send + 'static,
    {
        let shared = self.new_lgt(home);
        let handle = LgtHandle {
            shared: shared.clone(),
        };
        let job = move |worker: &WorkerCtx<'_>| {
            let _retire = RetireGuard(shared.clone());
            let _panics = worker.panic_accounting();
            let ctx = LgtCtx {
                shared: &shared,
                origin: Origin::Worker(worker),
            };
            body(&ctx);
        };
        match home {
            Some(domain) => self.pool.spawn_in(domain, job),
            None => self.pool.spawn(job),
        }
        handle
    }

    /// Run `body` as an LGT on the calling thread, then block until every
    /// SGT it (transitively) spawned has completed. The subtree runs on
    /// the pool; the body itself costs no pool job and no cross-thread
    /// hand-off, so the body needs neither `Send` nor `'static`.
    ///
    /// If the body panics, the subtree is still joined and the panic is
    /// then re-raised on the caller (it is not counted in
    /// [`PoolStats::panics`], which counts panics contained by the pool).
    ///
    /// Must not be called from a worker of this runtime's pool: like a
    /// blocking [`LgtHandle::join`] there, the join would hold a worker
    /// the subtree may need.
    pub fn run_lgt<F>(&self, body: F)
    where
        F: FnOnce(&LgtCtx),
    {
        let shared = self.new_lgt(None);
        let ctx = LgtCtx {
            shared: &shared,
            origin: Origin::Caller(&self.pool),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
        shared.retire_one();
        LgtHandle { shared }.join();
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Join handle of a large-grain thread.
pub struct LgtHandle {
    shared: Arc<LgtShared>,
}

impl LgtHandle {
    /// The LGT's id.
    pub fn id(&self) -> LgtId {
        self.shared.id
    }

    /// Block until the LGT body and every SGT it (transitively) spawned
    /// have completed.
    ///
    /// Spins for a measured window, then parks (see [`IVar::get`]).
    pub fn join(&self) {
        static JOIN: WaitMeter = WaitMeter::new();
        self.shared.done.get(&JOIN);
    }

    /// Non-blocking completion probe.
    pub fn is_done(&self) -> bool {
        self.shared.done.is_full()
    }

    /// The LGT's private memory (valid after or during the run).
    pub fn memory(&self) -> SharedRegion {
        self.shared.memory().clone()
    }
}

/// Context visible to an LGT body.
pub struct LgtCtx<'a> {
    shared: &'a Arc<LgtShared>,
    origin: Origin<'a>,
}

/// The thread an SGT is spawned from: a pool worker (an LGT started with
/// [`Htvm::lgt`], or any SGT), or the caller of [`Htvm::run_lgt`], which
/// reaches the pool only through its outside-spawn entry points.
#[derive(Clone, Copy)]
enum Origin<'a> {
    Worker(&'a WorkerCtx<'a>),
    Caller(&'a Pool),
}

impl<'a> LgtCtx<'a> {
    /// The LGT's id.
    pub fn id(&self) -> LgtId {
        self.shared.id
    }

    /// The LGT's private memory, visible to all of its SGTs (§3.1.1: "a
    /// group of SGTs invoked from an LGT will see the private memory of the
    /// LGT").
    pub fn memory(&self) -> &SharedRegion {
        self.shared.memory()
    }

    /// Invoke a small-grain thread.
    pub fn spawn_sgt<F>(&self, body: F)
    where
        F: FnOnce(&SgtCtx) + Send + 'static,
    {
        spawn_sgt_impl(self.shared, self.origin, body, SgtTarget::Local);
    }

    /// Invoke an SGT via the global queue (no locality preference) — used
    /// when the spawner knows the work should spread immediately.
    pub fn spawn_sgt_spread<F>(&self, body: F)
    where
        F: FnOnce(&SgtCtx) + Send + 'static,
    {
        spawn_sgt_impl(self.shared, self.origin, body, SgtTarget::Spread);
    }

    /// Invoke an SGT with an explicit locality-domain placement: it lands
    /// in `domain`'s injector regardless of the LGT's home domain — for
    /// schedulers that hand-place work (group partitioners, pinned
    /// pipeline stages) while keeping LGT completion tracking.
    ///
    /// # Panics
    /// Panics if `domain` is out of range for the pool's topology.
    pub fn spawn_sgt_in<F>(&self, domain: DomainId, body: F)
    where
        F: FnOnce(&SgtCtx) + Send + 'static,
    {
        spawn_sgt_impl(self.shared, self.origin, body, SgtTarget::Domain(domain));
    }

    /// Number of pool workers (for partitioning decisions).
    pub fn workers(&self) -> usize {
        match self.origin {
            Origin::Worker(w) => w.workers(),
            Origin::Caller(pool) => pool.workers(),
        }
    }

    /// Number of locality domains of the pool.
    pub fn num_domains(&self) -> usize {
        match self.origin {
            Origin::Worker(w) => w.num_domains(),
            Origin::Caller(pool) => pool.num_domains(),
        }
    }
}

/// Where a freshly spawned SGT should land.
#[derive(Debug, Clone, Copy)]
enum SgtTarget {
    /// The spawning worker's deque (or the LGT's home-domain injector if
    /// the subtree drifted out of its home domain). From a caller-run LGT,
    /// which has no deque: the home-domain injector, else the global one.
    Local,
    /// The global injector — spread immediately.
    Spread,
    /// A specific domain's injector.
    Domain(DomainId),
}

fn spawn_sgt_impl<F>(shared: &Arc<LgtShared>, origin: Origin<'_>, body: F, target: SgtTarget)
where
    F: FnOnce(&SgtCtx) + Send + 'static,
{
    shared.outstanding.fetch_add(1, Ordering::AcqRel);
    let home = shared.home;
    let shared = shared.clone();
    let job = move |w: &WorkerCtx<'_>| {
        let _retire = RetireGuard(shared.clone());
        let _panics = w.panic_accounting();
        let frame = Frame::new(shared.frame_slots);
        let ctx = SgtCtx {
            shared: &shared,
            worker: w,
            frame,
            id: SgtId(shared.sgt_ids.next()),
        };
        body(&ctx);
    };
    match origin {
        Origin::Worker(worker) => match target {
            SgtTarget::Spread => worker.spawn_global(job),
            SgtTarget::Domain(domain) => worker.spawn_in_domain(domain, job),
            SgtTarget::Local => match home {
                // A subtree that drifted out of its home domain (a remote
                // steal took the parent) routes new SGTs back home instead
                // of growing the remote worker's deque.
                Some(domain) if domain != worker.domain => worker.spawn_in_domain(domain, job),
                _ => worker.spawn(job),
            },
        },
        Origin::Caller(pool) => match (target, home) {
            (SgtTarget::Domain(domain), _) | (SgtTarget::Local, Some(domain)) => {
                pool.spawn_in(domain, job)
            }
            (SgtTarget::Spread, _) | (SgtTarget::Local, None) => pool.spawn(job),
        },
    }
}

/// Context visible to an SGT body.
pub struct SgtCtx<'a> {
    shared: &'a Arc<LgtShared>,
    worker: &'a WorkerCtx<'a>,
    /// This invocation's private frame.
    pub frame: Frame,
    id: SgtId,
}

impl<'a> SgtCtx<'a> {
    /// This SGT invocation's id.
    pub fn id(&self) -> SgtId {
        self.id
    }

    /// The enclosing LGT's private memory.
    pub fn memory(&self) -> &SharedRegion {
        self.shared.memory()
    }

    /// Spawn a sibling/child SGT (same LGT).
    pub fn spawn_sgt<F>(&self, body: F)
    where
        F: FnOnce(&SgtCtx) + Send + 'static,
    {
        spawn_sgt_impl(
            self.shared,
            Origin::Worker(self.worker),
            body,
            SgtTarget::Local,
        );
    }

    /// Spawn a sibling/child SGT via the global queue (no locality
    /// preference) — the SGT-level analogue of [`LgtCtx::spawn_sgt_spread`].
    pub fn spawn_sgt_spread<F>(&self, body: F)
    where
        F: FnOnce(&SgtCtx) + Send + 'static,
    {
        spawn_sgt_impl(
            self.shared,
            Origin::Worker(self.worker),
            body,
            SgtTarget::Spread,
        );
    }

    /// Spawn a sibling/child SGT with explicit domain placement — the
    /// SGT-level analogue of [`LgtCtx::spawn_sgt_in`].
    ///
    /// # Panics
    /// Panics if `domain` is out of range for the pool's topology.
    pub fn spawn_sgt_in<F>(&self, domain: DomainId, body: F)
    where
        F: FnOnce(&SgtCtx) + Send + 'static,
    {
        spawn_sgt_impl(
            self.shared,
            Origin::Worker(self.worker),
            body,
            SgtTarget::Domain(domain),
        );
    }

    /// Build a TGT graph whose fibers share a fresh frame of `slots` slots;
    /// run it inline with [`TgtGraph::run`].
    pub fn tgt_graph(&self, slots: usize) -> TgtGraph {
        TgtGraph::new(slots)
    }

    /// Worker id executing this SGT (affinity diagnostics).
    pub fn worker_id(&self) -> crate::ids::WorkerId {
        self.worker.id
    }

    /// Locality domain of the worker executing this SGT (affinity
    /// diagnostics: compare against the LGT's home domain to see whether
    /// the subtree stayed home).
    pub fn domain(&self) -> DomainId {
        self.worker.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> Htvm {
        Htvm::new(HtvmConfig::with_workers(4))
    }

    #[test]
    fn lgt_join_waits_for_all_sgts() {
        let htvm = rt();
        let h = htvm.lgt(|lgt| {
            let mem = lgt.memory().clone();
            for i in 0..64 {
                let mem = mem.clone();
                lgt.spawn_sgt(move |_| {
                    mem.fetch_add(i % 8, 1);
                });
            }
        });
        h.join();
        let mem = h.memory();
        let total: u64 = (0..8).map(|i| mem.read(i)).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn nested_sgt_spawns_are_tracked() {
        let htvm = rt();
        let h = htvm.lgt(|lgt| {
            let mem = lgt.memory().clone();
            for _ in 0..4 {
                let mem = mem.clone();
                lgt.spawn_sgt(move |sgt| {
                    for _ in 0..4 {
                        let mem = mem.clone();
                        sgt.spawn_sgt(move |_| {
                            mem.fetch_add(0, 1);
                        });
                    }
                });
            }
        });
        h.join();
        assert_eq!(h.memory().read(0), 16);
    }

    #[test]
    fn sgts_see_lgt_private_memory() {
        let htvm = rt();
        let h = htvm.lgt(|lgt| {
            lgt.memory().write(5, 123);
            let mem = lgt.memory().clone();
            lgt.spawn_sgt(move |sgt| {
                let v = sgt.memory().read(5);
                mem.write(6, v * 2);
            });
        });
        h.join();
        assert_eq!(h.memory().read(6), 246);
    }

    #[test]
    fn tgt_graph_runs_inside_sgt() {
        let htvm = rt();
        let h = htvm.lgt(|lgt| {
            let mem = lgt.memory().clone();
            lgt.spawn_sgt(move |sgt| {
                let mut g = sgt.tgt_graph(2);
                let a = g.fiber(|c| c.frame.set(0, 20));
                let b = g.fiber(|c| c.frame.set(1, c.frame.get(0) + 1));
                g.depends(b, a);
                let frame = g.run();
                mem.write(0, frame.get(1));
            });
        });
        h.join();
        assert_eq!(h.memory().read(0), 21);
    }

    #[test]
    fn two_lgts_have_disjoint_memory() {
        let htvm = rt();
        let h1 = htvm.lgt(|lgt| lgt.memory().write(0, 1));
        let h2 = htvm.lgt(|lgt| lgt.memory().write(0, 2));
        h1.join();
        h2.join();
        assert_eq!(h1.memory().read(0), 1);
        assert_eq!(h2.memory().read(0), 2);
        assert_ne!(h1.id(), h2.id());
    }

    #[test]
    fn is_done_transitions() {
        let htvm = rt();
        let h = htvm.lgt(|_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        // Not a strict guarantee, but 20 ms is far beyond spawn latency.
        h.join();
        assert!(h.is_done());
    }

    #[test]
    fn run_lgt_convenience() {
        let htvm = rt();
        let caller = std::thread::current().id();
        let mut ran_on = None;
        htvm.run_lgt(|lgt| {
            lgt.memory().write(0, 7);
            ran_on = Some(std::thread::current().id());
        });
        assert_eq!(ran_on, Some(caller), "the body runs on the calling thread");
    }

    /// A leaf SGT that finishes well after its spawner returned, so a
    /// missing join shows up as an uncounted leaf.
    fn slow_leaf(count: &Arc<AtomicU64>) -> impl FnOnce(&SgtCtx) + Send + 'static {
        let count = count.clone();
        move |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            count.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn caller_run_lgt_joins_every_spawn_kind() {
        let htvm = Htvm::new(HtvmConfig::with_topology(Topology::domains(2, 2)));
        let leaves = Arc::new(AtomicU64::new(0));
        htvm.run_lgt(|lgt| {
            assert_eq!(lgt.workers(), 4);
            assert_eq!(lgt.num_domains(), 2);
            for i in 0..4u64 {
                let (a, b, c) = (leaves.clone(), leaves.clone(), leaves.clone());
                lgt.spawn_sgt(move |sgt| sgt.spawn_sgt(slow_leaf(&a)));
                lgt.spawn_sgt_spread(move |sgt| sgt.spawn_sgt_spread(slow_leaf(&b)));
                lgt.spawn_sgt_in(DomainId(i % 2), move |sgt| {
                    sgt.spawn_sgt_in(DomainId((i + 1) % 2), slow_leaf(&c))
                });
            }
        });
        assert_eq!(leaves.load(Ordering::Relaxed), 12, "run_lgt returned early");
    }

    #[test]
    fn caller_run_lgt_records_domain_placements() {
        let htvm = Htvm::new(HtvmConfig::with_topology(Topology::domains(2, 2)));
        let leaves = Arc::new(AtomicU64::new(0));
        htvm.run_lgt(|lgt| {
            for i in 0..6u64 {
                let leaves = leaves.clone();
                lgt.spawn_sgt_in(DomainId(u64::from(i >= 4)), move |sgt| {
                    sgt.spawn_sgt_in(DomainId(1), slow_leaf(&leaves))
                });
            }
        });
        assert_eq!(leaves.load(Ordering::Relaxed), 6);
        // Caller placements [4, 2] plus the SGTs' six into domain 1.
        assert_eq!(htvm.pool_stats().domain_spawns, vec![4, 8]);
    }

    #[test]
    fn caller_run_lgt_nested_fanout_on_one_worker() {
        let htvm = Htvm::new(HtvmConfig::with_workers(1));
        let leaves = Arc::new(AtomicU64::new(0));
        htvm.run_lgt(|lgt| {
            for _ in 0..8 {
                let leaves = leaves.clone();
                lgt.spawn_sgt(move |sgt| {
                    for _ in 0..8 {
                        let leaves = leaves.clone();
                        sgt.spawn_sgt(move |_| {
                            leaves.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(leaves.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn caller_run_lgt_panic_is_raised_after_the_join() {
        let htvm = rt();
        let leaves = Arc::new(AtomicU64::new(0));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            htvm.run_lgt(|lgt| {
                for _ in 0..8 {
                    lgt.spawn_sgt(slow_leaf(&leaves));
                }
                panic!("injected caller-run LGT failure");
            })
        }));
        let payload = caught.expect_err("the body's panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected caller-run LGT failure")
        );
        assert_eq!(
            leaves.load(Ordering::Relaxed),
            8,
            "sibling SGTs ran before the re-raise"
        );
        assert_eq!(htvm.pool_stats().panics, 0, "the pool contained nothing");
    }

    #[test]
    fn panicking_sgt_does_not_wedge_join() {
        let htvm = rt();
        let h = htvm.lgt(|lgt| {
            let mem = lgt.memory().clone();
            lgt.spawn_sgt(|_| panic!("injected SGT failure"));
            lgt.spawn_sgt(move |_| {
                mem.fetch_add(0, 1);
            });
        });
        h.join(); // must return despite the panic
        assert_eq!(h.memory().read(0), 1, "sibling SGT still ran");
        assert_eq!(htvm.pool_stats().panics, 1);
    }

    #[test]
    fn panicking_lgt_body_does_not_wedge_join() {
        let htvm = rt();
        let h = htvm.lgt(|_| panic!("injected LGT failure"));
        h.join();
        assert!(h.is_done());
    }

    #[test]
    fn sgt_spread_from_sgt_completes() {
        let htvm = rt();
        let h = htvm.lgt(|lgt| {
            let mem = lgt.memory().clone();
            lgt.spawn_sgt(move |sgt| {
                for _ in 0..16 {
                    let mem = mem.clone();
                    sgt.spawn_sgt_spread(move |_| {
                        mem.fetch_add(0, 1);
                    });
                }
            });
        });
        h.join();
        assert_eq!(h.memory().read(0), 16);
    }

    #[test]
    fn lgt_with_domain_affinity_completes() {
        let htvm = Htvm::new(HtvmConfig::with_topology(Topology::domains(2, 2)));
        assert_eq!(htvm.num_domains(), 2);
        assert_eq!(htvm.workers(), 4);
        let h = htvm.lgt_in(DomainId(1), |lgt| {
            let mem = lgt.memory().clone();
            for _ in 0..32 {
                let mem = mem.clone();
                lgt.spawn_sgt(move |sgt| {
                    // The ctx must report a valid domain either way.
                    assert!(sgt.domain().0 < 2);
                    mem.fetch_add(0, 1);
                });
            }
        });
        h.join();
        assert_eq!(h.memory().read(0), 32);
    }

    #[test]
    fn every_domain_can_host_an_lgt() {
        let htvm = Htvm::new(HtvmConfig::with_topology(Topology::domains(3, 1)));
        let handles: Vec<_> = (0..3)
            .map(|d| {
                htvm.lgt_in(DomainId(d), move |lgt| {
                    lgt.memory().write(0, d + 1);
                })
            })
            .collect();
        for (d, h) in handles.iter().enumerate() {
            h.join();
            assert_eq!(h.memory().read(0), d as u64 + 1);
        }
    }

    #[test]
    fn domain_targeted_sgt_spawns_complete_and_are_recorded() {
        let htvm = Htvm::new(HtvmConfig::with_topology(Topology::domains(2, 2)));
        let h = htvm.lgt(|lgt| {
            let mem = lgt.memory().clone();
            for i in 0..16u64 {
                let mem = mem.clone();
                // Alternate explicit placements from the LGT level…
                lgt.spawn_sgt_in(DomainId(i % 2), move |sgt| {
                    // …and from the SGT level.
                    let mem = mem.clone();
                    sgt.spawn_sgt_in(DomainId((i + 1) % 2), move |_| {
                        mem.fetch_add(0, 1);
                    });
                });
            }
        });
        h.join();
        assert_eq!(h.memory().read(0), 16);
        // Every explicit placement is recorded per domain.
        let stats = htvm.pool_stats();
        assert_eq!(stats.total_domain_spawns(), 32);
        assert_eq!(stats.domain_spawns, vec![16, 16]);
    }

    #[test]
    fn spread_spawns_complete() {
        let htvm = rt();
        let h = htvm.lgt(|lgt| {
            let mem = lgt.memory().clone();
            for _ in 0..32 {
                let mem = mem.clone();
                lgt.spawn_sgt_spread(move |_| {
                    mem.fetch_add(0, 1);
                });
            }
        });
        h.join();
        assert_eq!(h.memory().read(0), 32);
    }
}
