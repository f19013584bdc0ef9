//! The serving front-end: tenants, admission, weighted dispatch,
//! shedding, and teardown.
//!
//! # Architecture
//!
//! ```text
//! client thread (TenantHandle::submit)                      pool workers
//! ────────────────────────────────────                      ────────────
//! admit ──► AdmissionQueue (bounded, per tenant;
//!   │         QueueFull/TenantClosed)
//!   ▼
//! arm cancel hook
//!   ▼
//! dispatch lock free? ──yes──► dispatch pass ──────────► Pool::spawn_with
//!   │                          retire closed tenants,     (token + tag +
//!   no (a pass is running)     shed, due retries,          home domain)
//!   ▼                          Wdrr::round                       │
//! kick ──► dispatcher thread: runs the same pass ◄── completion at the
//!          for contended submits, capacity freed      in-flight cap kicks
//!          at the cap, retry backoffs, close and
//!          shutdown; sleeps when nothing is kicked
//! ```
//!
//! Each tenant owns a long-lived subtree of the machine: a home
//! locality domain its requests are homed to (`SpawnOpts::domain`), a
//! [`htvm_core::PoolTag`] slicing the pool's counters per tenant, and
//! a weight feeding the [`Wdrr`] dispatcher. One **dispatch pass**
//! moves requests from admission queues into the pool's injectors; it
//! runs under a single lock, so only one thread decides dispatch at a
//! time, whichever thread that is. A submitting thread that finds the
//! lock free runs the pass itself, so an uncontended request reaches
//! the pool without crossing a sleeping thread. The dispatcher thread
//! runs the pass only when kicked, and the kick is a flag under
//! `wake_lock`, so no kick is lost between a pass and the wait. The
//! pool itself stays a pure work-stealing substrate — the serving
//! policy (fairness, shedding, cancellation) lives entirely above it.
//!
//! # Exactly-once resolution
//!
//! Every admitted request resolves exactly once, through the
//! request's **settle gate** (`ReqState`: open → attempt running →
//! settled, see `request.rs`) layered over the per-attempt
//! [`CancelToken`] state machine (see `htvm_core::cancel`):
//!
//! * **Completed/Failed** — each dispatched attempt runs under its own
//!   *attempt token* (a `child()` of the request's root token). Its job
//!   wrapper enters the gate's running state before calling the body,
//!   and skips the body if the request already settled. The body is
//!   wrapped in `catch_unwind`: a normal return settles `Completed`; a
//!   panic is classified into a typed [`RequestFault`] (injected fault
//!   site / kernel trap / plain panic) and — once the tenant's
//!   [`RetryPolicy`] is exhausted — settles `Failed`. The unwind is
//!   re-raised so the pool's containment and kill-propagation
//!   accounting stay intact.
//! * **Cancelled** — the hook armed on the root token at admission
//!   settles from whichever thread wins the root CAS, but only while no
//!   attempt body runs (the root stays pending under a running child,
//!   so the gate, not the token, decides). An attempt dropped unrun at
//!   the pool's grain boundary (the *attempt* token observed the root's
//!   cancel or deadline through the parent chain) settles from the
//!   finish guard's drop path instead.
//! * **Rejected** — a pass claims the root token before shedding
//!   (overload, tenant close, shutdown): if the claim loses, a
//!   concurrent cancel already resolved the request and the shed
//!   becomes a no-op.
//! * **Retried** — a failed or shed attempt whose tenant policy still
//!   allows it settles *nothing*: the request reopens its gate and
//!   parks in the tenant's retry backlog until its backoff elapses,
//!   then re-dispatches as attempt *n+1* with a fresh attempt token.
//!   Only the final attempt settles, so the ledger still conserves.
//!
//! In-flight accounting never depends on who wins: the drop guard that
//! decrements `in_flight` travels *inside* the job closure, so it runs
//! on a worker whether the body executes, panics, or is dropped unrun —
//! and its drop path also settles the request if the attempt died
//! without reporting (e.g. an injected thread kill), so no client ever
//! hangs on `wait()`.
//!
//! # Supervision
//!
//! The dispatcher thread is itself a failure domain. Its loop runs
//! under a `catch_unwind` restart harness: a plain panic restarts the
//! dispatch loop in place; an injected *kill* lets the thread die and a
//! drop-guard (`DispatcherWatch`) respawns a successor thread —
//! admitted requests are untouched either way because the fault point
//! (`serve.dispatch`) sits *before* the thread takes the dispatch lock,
//! and the WDRR state lives in that lock, not on the thread. The fault
//! point fires only on the dispatcher thread, never in a pass a
//! submitter runs. `shutdown` joins the whole chain of successors. The
//! [`Autopilot`] controller thread has the same restart harness (see
//! `autopilot.rs`).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use htvm_core::{
    AdmissionQueue, AdmitError, CancelToken, DomainId, Htvm, Pool, PoolTag, SpawnOpts, TagStats,
    WorkerCtx,
};
use litlx::{NativeParcel, ReplayAction};
use parking_lot::{Condvar, Mutex};

use crate::autopilot::{Autopilot, AutopilotConfig, Bubble, BubbleTenant};
use crate::drr::Wdrr;
use crate::request::{Outcome, RejectReason, ReqState, RequestFault, ResponseHandle, SubmitError};
use crate::retry::RetryPolicy;

/// Server-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Deficit credit per unit weight per dispatch round.
    pub quantum: u64,
    /// Maximum requests dispatched into the pool but not yet finished;
    /// dispatch stalls (not the clients' submits) when reached.
    pub max_in_flight: usize,
    /// Admission-queue capacity for tenants that don't override it.
    pub default_queue_capacity: usize,
    /// Shed watermark: when total queued requests across tenants
    /// exceed this, the dispatcher sheds newest-first from the
    /// lowest-weight backlogged tenant until back under.
    pub max_queued_total: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            quantum: 4,
            max_in_flight: 64,
            default_queue_capacity: 64,
            max_queued_total: 1024,
        }
    }
}

/// Per-tenant registration knobs.
#[derive(Debug, Clone, Default)]
pub struct TenantConfig {
    /// Relative dispatch weight (clamped to ≥ 1).
    pub weight: u64,
    /// Admission-queue bound; defaults to
    /// [`ServerConfig::default_queue_capacity`].
    pub queue_capacity: Option<usize>,
    /// Initial home locality domain for the tenant's bubble; defaults
    /// to `tenant_id % num_domains` (round-robin placement). The pin is
    /// *initial* only: the tenant's [`Bubble`] can be re-pinned or
    /// burst at runtime (by the [`Autopilot`] or by hand).
    pub home: Option<DomainId>,
    /// Opt-in retry policy: failed attempts (and overload sheds) are
    /// re-admitted after a seeded exponential backoff instead of
    /// settling, within the policy's attempt/budget/deadline bounds.
    /// `None` (the default) settles every failure immediately.
    /// Execution retries additionally require a replayable parcel
    /// ([`NativeParcel::replayable`] / [`NativeParcel::fallible`]);
    /// one-shot bodies only get shed-before-run retries.
    pub retry: Option<RetryPolicy>,
}

impl TenantConfig {
    /// A tenant with the given weight and defaults otherwise.
    pub fn weighted(weight: u64) -> Self {
        Self {
            weight,
            ..Self::default()
        }
    }
}

/// Counters a tenant accumulates over its lifetime. Conservation: every
/// submission ends in exactly one bucket —
/// `submitted == rejected_full + completed + failed + cancelled +
/// shed + closed_rejects + shutdown_rejects + still_pending`.
/// `retried` counts *re-admissions*, not outcomes, and sits outside
/// the ledger: a retried request is still pending until its final
/// attempt settles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Submissions offered (admitted or not).
    pub submitted: u64,
    /// Refused at the admission boundary (queue full).
    pub rejected_full: u64,
    /// Actions that ran to completion.
    pub completed: u64,
    /// Requests that settled [`Outcome::Failed`] — panicked, hit an
    /// injected fault, or trapped in a kernel, with any retry policy
    /// exhausted (the unwind was contained; the pool survived).
    pub failed: u64,
    /// Requests resolved cancelled (explicit or deadline).
    pub cancelled: u64,
    /// Requests shed under overload ([`RejectReason::Overload`]).
    pub shed: u64,
    /// Requests rejected because the tenant closed — refused at submit
    /// time or drained from the queue by the dispatcher.
    pub closed_rejects: u64,
    /// Queued requests rejected when the server shut down.
    pub shutdown_rejects: u64,
    /// Attempts re-admitted under the tenant's [`RetryPolicy`]
    /// (failed-attempt and shed retries). Not a settled bucket.
    pub retried: u64,
}

impl TenantStats {
    /// Requests that reached a terminal outcome or were refused.
    pub fn settled(&self) -> u64 {
        self.rejected_full
            + self.completed
            + self.failed
            + self.cancelled
            + self.shed
            + self.closed_rejects
            + self.shutdown_rejects
    }
}

#[derive(Default)]
struct TenantCounters {
    submitted: AtomicU64,
    rejected_full: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    shed: AtomicU64,
    closed_rejects: AtomicU64,
    shutdown_rejects: AtomicU64,
    retried: AtomicU64,
}

/// A request sitting in an admission queue (or the retry backlog).
struct Queued {
    action: Box<dyn FnOnce(&WorkerCtx) + Send>,
    cost: u64,
    /// The request's *root* token — the identity `ResponseHandle`
    /// cancels through; each dispatch derives a fresh attempt child.
    token: CancelToken,
    state: Arc<ReqState>,
    /// 0-based attempt number this entry represents.
    attempt: u32,
    /// Replayable body, for execution retries after a failed attempt.
    replay: Option<ReplayAction>,
}

struct TenantShared {
    id: usize,
    weight: u64,
    /// The tenant's movable home pin, read at *dispatch* time — a
    /// migration moves every not-yet-dispatched request of the subtree.
    bubble: Arc<Bubble>,
    queue: AdmissionQueue<Queued>,
    tag: PoolTag,
    counters: Arc<TenantCounters>,
    retry: Option<RetryPolicy>,
    /// Requests waiting out a retry backoff: `(due, request)`. Drained
    /// by the dispatcher once due (dispatched directly — they already
    /// won admission once), and swept with a typed rejection on tenant
    /// close / shutdown. Pushes re-check `queue.is_closed()` under this
    /// lock so no entry can slip in behind the closing sweep.
    retry_q: Mutex<Vec<(Instant, Queued)>>,
}

/// The dispatch pass's state: the WDRR scheduler plus reusable
/// scratch, so a pass allocates nothing once warm.
struct DispatchState {
    drr: Wdrr,
    /// The tenant table as this pass sees it, by id (`None` for a
    /// retired slot). Refilled at the start of each pass and cleared at
    /// the end, keeping its capacity.
    by_id: Vec<Option<Arc<TenantShared>>>,
}

/// What a dispatch pass left behind.
struct PassOutcome {
    /// Queued work remains while in-flight capacity is free: another
    /// pass can dispatch more (a WDRR round accrues each tenant's
    /// credit once per cycle).
    more: bool,
    /// The earliest not-yet-due retry backoff, if any.
    next_due: Option<Instant>,
}

thread_local! {
    /// Set while this thread runs a dispatch pass. A `Server` dropped
    /// from inside a pass (a rejected request's closure held the last
    /// handle) must not join a dispatcher thread that may be waiting
    /// for the lock this thread holds.
    static IN_PASS: Cell<bool> = const { Cell::new(false) };
}

struct ServerInner {
    pool: Arc<Pool>,
    cfg: ServerConfig,
    /// Slot index == tenant id; `None` slots are retired tenants
    /// (slots are reused by later registrations).
    tenants: Mutex<Vec<Option<Arc<TenantShared>>>>,
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
    /// Held by whichever thread runs a dispatch pass: a submitter that
    /// wins `try_lock`, or the dispatcher thread.
    dispatch: Mutex<DispatchState>,
    /// The dispatcher thread's kick flag: set by [`ServerInner::kick`],
    /// cleared by the dispatcher before the pass that serves it.
    wake_lock: Mutex<bool>,
    wake_cv: Condvar,
    /// The dispatcher thread plus any successors respawned after a
    /// kill; `shutdown` joins the whole chain.
    dispatcher: Mutex<Vec<JoinHandle<()>>>,
    /// Times the dispatch loop was restarted (in place after a plain
    /// panic, or as a fresh thread after an injected kill).
    dispatcher_restarts: AtomicU64,
}

impl ServerInner {
    /// Ask the dispatcher thread for a pass (contended submit, capacity
    /// freed at the cap, retry parked, close, shutdown). The flag makes
    /// the kick stick: a kick that lands while the dispatcher is
    /// mid-pass is seen before it next waits. Only the first kick of a
    /// batch notifies.
    fn kick(&self) {
        let mut pending = self.wake_lock.lock();
        if !*pending {
            *pending = true;
            self.wake_cv.notify_one();
        }
    }

    fn live_tenants(&self) -> Vec<Arc<TenantShared>> {
        self.tenants.lock().iter().flatten().cloned().collect()
    }
}

/// Rides inside the dispatched job closure, so it runs on the worker
/// for every exit of an attempt: body completed, body panicked (the
/// dispatch wrapper classifies and calls [`FinishGuard::fail`]), body
/// dropped unrun at the grain boundary, or the whole closure dropped
/// by a dying thread. Its `Drop` is the last line of defence — it
/// settles the request if nothing else did (no client ever hangs) and
/// unconditionally maintains the `in_flight` gauge.
struct FinishGuard {
    inner: Arc<ServerInner>,
    tenant: Arc<TenantShared>,
    state: Arc<ReqState>,
    /// The request's root token (cancel identity across attempts).
    root: CancelToken,
    /// This attempt's child token, handed to the pool's grain boundary.
    attempt_token: CancelToken,
    /// 0-based attempt number.
    attempt: u32,
    cost: u64,
    replay: Option<ReplayAction>,
    /// Set by `complete`/`fail`; a drop with this still false means the
    /// attempt died without reporting.
    resolved: bool,
}

impl FinishGuard {
    /// The body is about to run: move the gate to running. `false`
    /// means a cancel settled the request between the grain boundary's
    /// claim and here, and the body must not run.
    fn enter(&mut self) -> bool {
        self.resolved = !self.state.enter();
        !self.resolved
    }

    /// The body returned normally: settle `Completed`.
    fn complete(&mut self) {
        self.resolved = true;
        let counters = &self.tenant.counters;
        self.state.settle_attempt(Outcome::Completed, || {
            counters.completed.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// The body panicked (already classified into `fault`): schedule a
    /// retry if the tenant's policy and a replayable body allow it,
    /// otherwise settle `Failed`.
    fn fail(&mut self, fault: RequestFault) {
        self.resolved = true;
        if let Some(replay) = self.replay.clone() {
            let action = {
                let r = replay.clone();
                Box::new(move |ctx: &WorkerCtx| r(ctx))
            };
            let q = Queued {
                action,
                cost: self.cost,
                token: self.root.clone(),
                state: self.state.clone(),
                attempt: self.attempt,
                replay: Some(replay),
            };
            if schedule_retry(&self.inner, &self.tenant, q).is_ok() {
                return;
            }
        }
        let counters = &self.tenant.counters;
        self.state.settle_attempt(Outcome::Failed(fault), || {
            counters.failed.fetch_add(1, Ordering::Relaxed);
        });
    }
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        if !self.resolved {
            // The attempt never reported. Two ways here: the grain
            // boundary dropped the body unrun because the *attempt*
            // token resolved cancelled (root cancel or deadline seen
            // through the parent chain — the root's own hook never
            // fires for a deadline observed on a child), or the
            // executing thread died with the closure never run /
            // mid-unwind without reaching `fail` (e.g. an injected
            // kill). Settle accordingly so no client hangs; the gate
            // makes a lost race a silent no-op.
            if !self.attempt_token.was_claimed() && self.attempt_token.is_cancelled() {
                let counters = &self.tenant.counters;
                self.state.settle(Outcome::Cancelled, || {
                    counters.cancelled.fetch_add(1, Ordering::Relaxed);
                });
            } else {
                // If this drop is running inside an unwind that a fault
                // point on this thread raised (e.g. `worker.body` fires
                // in the pool *around* our catch_unwind wrapper), the
                // thread-local injection record recovers the typed
                // fault; `fail` then applies the retry policy exactly
                // as for an in-body failure.
                let fault = if std::thread::panicking() {
                    htvm_core::faults::take_last_injected()
                        .map(|f| RequestFault::new(f.site, f.to_string()))
                } else {
                    None
                };
                let fault = fault.unwrap_or_else(|| {
                    RequestFault::new("serve.abandoned", "attempt dropped without running")
                });
                self.fail(fault);
            }
        }
        // A pass stalls only at the cap, so only a completion from the
        // cap can unblock queued work; below it, nothing waits on us.
        let prev = self.inner.in_flight.fetch_sub(1, Ordering::SeqCst);
        if prev >= self.inner.cfg.max_in_flight {
            self.inner.kick();
        }
    }
}

/// Try to park `q` in its tenant's retry backlog for another attempt.
/// `q.attempt` is the attempt that just failed (or was shed unrun);
/// on success the entry is re-numbered `attempt + 1` and `Err` hands
/// the request back untouched when the policy refuses (caller settles).
fn schedule_retry(
    inner: &Arc<ServerInner>,
    t: &Arc<TenantShared>,
    mut q: Queued,
) -> Result<(), Queued> {
    let Some(policy) = &t.retry else {
        return Err(q);
    };
    if !policy.attempts_allow(q.attempt) {
        return Err(q);
    }
    let c = &t.counters;
    let retried = c.retried.load(Ordering::Relaxed);
    if !policy.budget_allows(retried, c.submitted.load(Ordering::Relaxed)) {
        return Err(q);
    }
    let backoff = policy.backoff_for(q.attempt, retried);
    if let Some(d) = q.token.deadline() {
        if Instant::now() + backoff >= d {
            // Doomed: the deadline expires before the retry could run.
            return Err(q);
        }
    }
    {
        // is_closed is re-checked under the retry_q lock: the closing
        // sweep (close/shutdown) drains under this same lock *after*
        // closing the queue, so either we see the close here or the
        // sweep sees our entry — never a stranded request.
        let mut rq = t.retry_q.lock();
        if inner.shutdown.load(Ordering::SeqCst) || t.queue.is_closed() {
            return Err(q);
        }
        // Reopen before the entry is visible: the next attempt may be
        // dispatched the moment the lock drops, and it must find the
        // gate open to enter. Then look for a cancel: one that landed
        // while the failed attempt ran found the gate running and
        // settled nothing, so the caller settles; from here on a
        // cancel's hook settles the parked request itself.
        q.state.reopen();
        if q.token.is_cancelled() {
            return Err(q);
        }
        q.attempt += 1;
        c.retried.fetch_add(1, Ordering::Relaxed);
        rq.push((Instant::now() + backoff, q));
    }
    inner.kick();
    Ok(())
}

/// A handle to a registered tenant. Dropping the handle closes the
/// tenant (queued requests resolve `Rejected(TenantClosed)`; in-flight
/// requests finish normally).
pub struct TenantHandle {
    shared: Arc<TenantShared>,
    inner: Arc<ServerInner>,
    closed_by_handle: bool,
}

impl TenantHandle {
    /// The tenant's id (its dispatcher key).
    pub fn id(&self) -> usize {
        self.shared.id
    }

    /// The tenant's dispatch weight.
    pub fn weight(&self) -> u64 {
        self.shared.weight
    }

    /// The tenant's current home domain, or `None` while its bubble is
    /// burst (requests dispatch unaffine).
    pub fn home(&self) -> Option<DomainId> {
        self.shared.bubble.domain()
    }

    /// The tenant's bubble handle — re-pin ([`Bubble::set_domain`]) or
    /// release ([`Bubble::burst`]) the whole subtree at runtime.
    pub fn bubble(&self) -> &Arc<Bubble> {
        &self.shared.bubble
    }

    /// Submit a parcel with a fresh cancellation token.
    pub fn submit(&self, parcel: NativeParcel) -> Result<ResponseHandle, SubmitError> {
        self.submit_with_token(parcel, CancelToken::new())
    }

    /// Submit a parcel that auto-cancels at `deadline` (observed at the
    /// pool's grain boundary — an expired request queued behind a long
    /// backlog resolves `Cancelled` instead of running).
    pub fn submit_with_deadline(
        &self,
        parcel: NativeParcel,
        deadline: Instant,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit_with_token(parcel, CancelToken::with_deadline(deadline))
    }

    /// Submit a parcel guarded by a caller-supplied token — e.g. a
    /// `child()` of a tenant-wide token, so cancelling the parent fans
    /// out to every outstanding request of the subtree.
    ///
    /// Each token must guard **at most one** submission: the token's
    /// cancelled-hook slot holds one hook, so a second submission with
    /// the same token silently disarms the first request's cancelled
    /// resolution and can hang its `wait()`. To tie many requests to
    /// one cancellation scope, submit a fresh [`CancelToken::child`]
    /// of the shared token per request (as above), never the shared
    /// token itself.
    pub fn submit_with_token(
        &self,
        parcel: NativeParcel,
        token: CancelToken,
    ) -> Result<ResponseHandle, SubmitError> {
        let counters = &self.shared.counters;
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        let state = ReqState::new();
        let cost = parcel.cost();
        let replay = parcel.replay_action();
        let queued = Queued {
            action: parcel.into_action(),
            cost,
            token: token.clone(),
            state: state.clone(),
            attempt: 0,
            replay,
        };
        match self.shared.queue.try_push(queued) {
            Ok(()) => {
                // Arm the cancelled resolution only once the request is
                // admitted, so a rejected submission never leaves a
                // hook on the caller's token. Exactly-once still holds
                // against everything a concurrent pass may already have
                // done with the queued request: if the token resolved
                // cancelled first the hook runs immediately (here), if
                // it was claimed (shed via the rejection claim) the hook
                // is dropped unrun, and if an attempt body already runs
                // the gate makes the hook a no-op.
                {
                    let state = state.clone();
                    let counters = counters.clone();
                    token.on_cancelled(move || {
                        state.settle(Outcome::Cancelled, || {
                            counters.cancelled.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
                dispatch_or_kick(&self.inner);
                Ok(ResponseHandle { state, token })
            }
            Err(AdmitError::Full(_)) => {
                counters.rejected_full.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::QueueFull)
            }
            Err(AdmitError::Closed(_)) => {
                counters.closed_rejects.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::TenantClosed)
            }
        }
    }

    /// Current admission-queue depth plus requests waiting out a retry
    /// backoff.
    pub fn queued(&self) -> usize {
        self.shared.queue.len() + self.shared.retry_q.lock().len()
    }

    /// Lifetime counters (see [`TenantStats`] for the conservation
    /// invariant).
    pub fn stats(&self) -> TenantStats {
        let c = &self.shared.counters;
        TenantStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected_full: c.rejected_full.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            closed_rejects: c.closed_rejects.load(Ordering::Relaxed),
            shutdown_rejects: c.shutdown_rejects.load(Ordering::Relaxed),
            retried: c.retried.load(Ordering::Relaxed),
        }
    }

    /// This tenant's slice of the pool's execution counters (jobs whose
    /// bodies ran / were dropped cancelled at the grain boundary).
    pub fn pool_slice(&self) -> TagStats {
        self.shared.tag.stats()
    }

    /// Stop admitting (idempotent). Queued requests resolve
    /// `Rejected(TenantClosed)` at the next dispatch pass;
    /// in-flight requests finish normally; the tenant's slot is
    /// retired once drained.
    pub fn close(&self) {
        self.shared.queue.close();
        self.inner.kick();
    }
}

impl Drop for TenantHandle {
    fn drop(&mut self) {
        if self.closed_by_handle {
            self.close();
        }
    }
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantHandle")
            .field("id", &self.id())
            .field("weight", &self.weight())
            .field("queued", &self.queued())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The multi-tenant serving front-end (see the [module docs](self)).
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Serve on `htvm`'s pool — the pool handle outlives any single
    /// batch run, which is exactly what a server needs.
    pub fn new(htvm: &Htvm, cfg: ServerConfig) -> Self {
        Self::on_pool(htvm.pool(), cfg)
    }

    /// Serve on an explicit pool handle.
    pub fn on_pool(pool: Arc<Pool>, cfg: ServerConfig) -> Self {
        let inner = Arc::new(ServerInner {
            pool,
            tenants: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            dispatch: Mutex::new(DispatchState {
                drr: Wdrr::new(cfg.quantum),
                by_id: Vec::new(),
            }),
            wake_lock: Mutex::new(false),
            wake_cv: Condvar::new(),
            dispatcher: Mutex::new(Vec::new()),
            dispatcher_restarts: AtomicU64::new(0),
            cfg,
        });
        let handle = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("htvm-serve-dispatch".into())
                .spawn(move || dispatcher_thread(inner))
                .expect("spawn dispatcher thread")
        };
        inner.dispatcher.lock().push(handle);
        Self { inner }
    }

    /// Register a tenant; its id is the smallest retired slot (ids are
    /// reused after teardown).
    ///
    /// # Panics
    /// Panics if called after [`Server::shutdown`], or if
    /// `cfg.home` is out of range for the pool's topology.
    pub fn register_tenant(&self, cfg: TenantConfig) -> TenantHandle {
        let nd = self.inner.pool.num_domains();
        let capacity = cfg
            .queue_capacity
            .unwrap_or(self.inner.cfg.default_queue_capacity);
        let mut tenants = self.inner.tenants.lock();
        // Checked under the tenants lock, against a flag that is also
        // *stored* under it (see `Server::shutdown`): a registration
        // that passes this check inserted its tenant before the flag
        // was set, so the final drain pass — which snapshots the
        // tenants under the lock after observing the flag — is
        // guaranteed to see and reject it. No tenant can
        // slip in behind the final drain and strand its requests.
        assert!(
            !self.inner.shutdown.load(Ordering::SeqCst),
            "register_tenant on a shut-down server"
        );
        let id = tenants
            .iter()
            .position(Option::is_none)
            .unwrap_or(tenants.len());
        let home = cfg.home.unwrap_or(DomainId((id % nd) as u64));
        assert!(
            (home.0 as usize) < nd,
            "{home} out of range for a {nd}-domain pool"
        );
        let shared = Arc::new(TenantShared {
            id,
            weight: cfg.weight.max(1),
            bubble: Bubble::pinned(home),
            queue: AdmissionQueue::new(capacity),
            tag: PoolTag::new(),
            counters: Arc::new(TenantCounters::default()),
            retry: cfg.retry,
            retry_q: Mutex::new(Vec::new()),
        });
        if id == tenants.len() {
            tenants.push(Some(shared.clone()));
        } else {
            tenants[id] = Some(shared.clone());
        }
        drop(tenants);
        TenantHandle {
            shared,
            inner: self.inner.clone(),
            closed_by_handle: true,
        }
    }

    /// The pool this server dispatches into.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.inner.pool
    }

    /// Start a BubbleSched-style [`Autopilot`] over this server: a
    /// controller thread that samples the pool's steal/queue/occupancy
    /// signals each tick and steers tenant bubbles (migrate / burst /
    /// gang) and the elastic worker set (grow / retire). Several
    /// autopilots over one server would fight; start at most one.
    pub fn autopilot(&self, cfg: AutopilotConfig) -> Autopilot {
        let inner = self.inner.clone();
        Autopilot::start(inner.pool.clone(), cfg, move || {
            inner
                .live_tenants()
                .iter()
                .map(|t| BubbleTenant {
                    id: t.id,
                    bubble: t.bubble.clone(),
                    executed: t.tag.stats().executed,
                })
                .collect()
        })
    }

    /// Requests dispatched into the pool but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::SeqCst)
    }

    /// Total requests currently sitting in admission queues or retry
    /// backlogs.
    pub fn queued_total(&self) -> usize {
        self.inner
            .tenants
            .lock()
            .iter()
            .flatten()
            .map(|t| t.queue.len() + t.retry_q.lock().len())
            .sum()
    }

    /// Times the dispatch loop was restarted by its supervision
    /// harness (in place after a contained panic, or as a respawned
    /// thread after an injected kill). 0 in a healthy server.
    pub fn dispatcher_restarts(&self) -> u64 {
        self.inner.dispatcher_restarts.load(Ordering::Relaxed)
    }

    /// Live (registered, not yet retired) tenants.
    pub fn tenant_count(&self) -> usize {
        self.inner.tenants.lock().iter().flatten().count()
    }

    /// Block (politely yielding) until no request is queued or in
    /// flight, or `timeout` elapses; returns whether the server
    /// drained. Unlike `Pool::wait_quiescent` this only covers *this
    /// server's* requests, so it is safe alongside other pool users.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.queued_total() != 0 || self.in_flight() != 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Stop the dispatcher (idempotent): close every tenant, resolve
    /// all queued requests `Rejected(ServerShutdown)`, and join the
    /// dispatcher thread. In-flight requests finish normally on the
    /// pool.
    pub fn shutdown(&self) {
        {
            // Store the flag under the tenants lock so it serializes
            // against `register_tenant`'s check: every registration
            // either completes before this store (and is seen by the
            // dispatcher's final drain) or observes the flag and
            // panics. Without the lock a registration could pass the
            // check yet insert after the final drain's snapshot,
            // stranding its requests forever.
            let _tenants = self.inner.tenants.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.kick();
        // Join the dispatcher *chain*: a thread dying to an injected
        // kill pushes its successor's handle before it exits (in its
        // watch guard's drop glue), so once `join` returns the push is
        // visible — loop until the list stays empty. A shutdown reached
        // from inside a dispatch pass (a `Server` released from a
        // request the pass dropped) detaches instead: this thread holds
        // the dispatch lock the dispatcher needs for its final drain,
        // and on the dispatcher thread itself std's join panics on the
        // EDEADLK. The dispatcher drains and exits once the pass ends.
        if IN_PASS.get() {
            return;
        }
        loop {
            let handles: Vec<JoinHandle<()>> = self.inner.dispatcher.lock().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tenants", &self.tenant_count())
            .field("queued", &self.queued_total())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// Resolve a popped-but-never-dispatched request as `Rejected(reason)`.
/// The pass *claims* the root token first (disarming the cancel hook —
/// if the claim loses, a concurrent cancel already resolved the
/// request), then races the settle gate like every other resolver.
fn resolve_rejected(q: Queued, reason: RejectReason, bucket: &AtomicU64) {
    if q.token.try_claim() {
        q.state.settle(Outcome::Rejected(reason), || {
            bucket.fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// Drop guard armed while a dispatcher thread is alive: if the thread
/// dies unwinding (an injected kill rethrown by [`dispatcher_thread`]),
/// the guard respawns a successor — unless the server is shutting
/// down, in which case dying *is* the clean exit.
struct DispatcherWatch {
    inner: Arc<ServerInner>,
    armed: bool,
}

impl Drop for DispatcherWatch {
    fn drop(&mut self) {
        if !self.armed || self.inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name("htvm-serve-dispatch".into())
            .spawn(move || dispatcher_thread(inner));
        if let Ok(h) = handle {
            // Pushed from the dying thread's drop glue, so `shutdown`'s
            // join of *this* thread happens-after the push and its next
            // sweep sees the successor.
            self.inner.dispatcher.lock().push(h);
        }
    }
}

/// The dispatcher thread body: [`dispatcher_loop`] under the
/// supervision harness. A contained panic restarts the loop in place
/// (same thread; the WDRR state lives in the dispatch lock and
/// carries over); an injected kill is rethrown so the thread dies and
/// [`DispatcherWatch`] respawns a successor. Both paths count in
/// `dispatcher_restarts`. Requests are never lost to either: the
/// `serve.dispatch` fault point fires before the thread takes the
/// dispatch lock, and everything queued simply waits for the next
/// pass.
fn dispatcher_thread(inner: Arc<ServerInner>) {
    let mut watch = DispatcherWatch {
        inner: inner.clone(),
        armed: true,
    };
    loop {
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatcher_loop(&inner)));
        match result {
            Ok(()) => break, // clean shutdown exit
            Err(payload) => {
                inner.dispatcher_restarts.fetch_add(1, Ordering::Relaxed);
                if htvm_core::faults::injected_from_payload(payload.as_ref())
                    .is_some_and(|f| f.kill)
                {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
    watch.armed = false;
}

/// The dispatcher thread's loop: a pass, then sleep until kicked or
/// until the earliest retry backoff is due. With nothing kicked and no
/// backoff pending it waits with no timeout, so an idle server never
/// wakes.
fn dispatcher_loop(inner: &Arc<ServerInner>) {
    loop {
        // Fault-injection point for supervision tests: fires while no
        // request is held, so a panic/kill here strands nothing.
        htvm_core::fault_point!(inner.pool.fault_plane(), "serve.dispatch");
        let stopping = inner.shutdown.load(Ordering::SeqCst);
        let out = run_pass(inner, &mut inner.dispatch.lock());
        if stopping {
            // That pass saw the flag and rejected everything queued.
            return;
        }
        if out.more {
            continue;
        }
        let mut pending = inner.wake_lock.lock();
        if !*pending {
            match out.next_due {
                None => inner.wake_cv.wait(&mut pending),
                Some(due) => {
                    let now = Instant::now();
                    if due > now {
                        inner.wake_cv.wait_for(&mut pending, due - now);
                    }
                }
            }
        }
        // Cleared before the next pass, which serves every kick up to
        // here; a kick after this point sets the flag again.
        *pending = false;
    }
}

/// Run a pass on the calling thread if no other thread is running one,
/// and kick the dispatcher thread if that is not possible or the pass
/// left runnable work behind. Never blocks on the dispatch lock: a
/// contended lock means a pass is running, and the kick makes the
/// dispatcher run another after it.
fn dispatch_or_kick(inner: &Arc<ServerInner>) {
    let more = match inner.dispatch.try_lock() {
        Some(mut st) => run_pass(inner, &mut st).more,
        None => true,
    };
    if more {
        inner.kick();
    }
}

/// [`pass`] with the calling thread marked as inside it (see
/// [`IN_PASS`]).
fn run_pass(inner: &Arc<ServerInner>, st: &mut DispatchState) -> PassOutcome {
    IN_PASS.set(true);
    let out = pass(inner, st);
    IN_PASS.set(false);
    out
}

/// One dispatch pass: retire closed tenants, shed overload,
/// re-dispatch due retries, and run a WDRR round under the in-flight
/// cap. The caller holds the dispatch lock, so passes never overlap.
fn pass(inner: &Arc<ServerInner>, st: &mut DispatchState) -> PassOutcome {
    let DispatchState { drr, by_id } = st;
    let shutting_down = inner.shutdown.load(Ordering::SeqCst);
    by_id.clear();
    by_id.extend(inner.tenants.lock().iter().cloned());

    // Retire closed tenants: drain their queues and retry backlogs with
    // a typed rejection, then free the slot. A tenant that closes after
    // its check here stays live for this pass and retires on the next
    // (its close kicks the dispatcher).
    for slot in by_id.iter_mut() {
        let Some(t) = slot.as_ref() else { continue };
        if shutting_down {
            t.queue.close();
        }
        if !t.queue.is_closed() {
            continue;
        }
        let (reason, bucket) = if shutting_down {
            (RejectReason::ServerShutdown, &t.counters.shutdown_rejects)
        } else {
            (RejectReason::TenantClosed, &t.counters.closed_rejects)
        };
        for q in t.queue.drain() {
            resolve_rejected(q, reason, bucket);
        }
        let parked: Vec<(Instant, Queued)> = std::mem::take(&mut *t.retry_q.lock());
        for (_, q) in parked {
            resolve_rejected(q, reason, bucket);
        }
        drr.remove(t.id);
        inner.tenants.lock()[t.id] = None;
        *slot = None;
    }
    if shutting_down {
        by_id.clear();
        return PassOutcome {
            more: false,
            next_due: None,
        };
    }

    // Shed overload: newest work from the lowest-weight backlogged
    // tenant goes first, until back under the watermark. A tenant with
    // a retry policy gets its shed work parked for a backoff instead of
    // rejected — an unrun body is replayable by definition, so one-shot
    // parcels are eligible too.
    loop {
        let total: usize = by_id.iter().flatten().map(|t| t.queue.len()).sum();
        if total <= inner.cfg.max_queued_total {
            break;
        }
        let Some(t) = by_id
            .iter()
            .flatten()
            .filter(|t| !t.queue.is_empty())
            .min_by_key(|t| t.weight)
        else {
            break;
        };
        if let Some(q) = t.queue.pop_newest() {
            if let Err(q) = schedule_retry(inner, t, q) {
                resolve_rejected(q, RejectReason::Overload, &t.counters.shed);
            }
        }
    }

    // Re-dispatch due retries directly under the in-flight cap: they
    // won admission (and a DRR grant) once already — the backoff, not
    // the round, is their pacing. The dispatcher thread sleeps until
    // the earliest backoff still pending. A due entry left behind by
    // the cap needs no timer: the completion that frees the cap kicks.
    let now = Instant::now();
    let mut next_due: Option<Instant> = None;
    for t in by_id.iter().flatten() {
        if t.retry.is_none() {
            continue; // schedule_retry never parks without a policy
        }
        while inner.in_flight.load(Ordering::SeqCst) < inner.cfg.max_in_flight {
            let due = {
                let mut rq = t.retry_q.lock();
                match rq.iter().position(|(due, _)| *due <= now) {
                    Some(i) => rq.swap_remove(i).1,
                    None => break,
                }
            };
            dispatch_queued(inner, t, due);
        }
        for (due, _) in t.retry_q.lock().iter() {
            if *due > now && next_due.is_none_or(|n| *due < n) {
                next_due = Some(*due);
            }
        }
    }

    // Weighted dispatch under the in-flight cap. A key with no tenant
    // in `by_id` reads as idle rather than indexing out of range.
    for t in by_id.iter().flatten() {
        drr.ensure(t.id, t.weight);
    }
    let capacity = inner
        .cfg
        .max_in_flight
        .saturating_sub(inner.in_flight.load(Ordering::SeqCst)) as u64;
    if capacity > 0 {
        let live = |k: usize| by_id.get(k).and_then(Option::as_ref);
        drr.round(
            capacity,
            |k| live(k).and_then(|t| t.queue.peek(|q| q.cost)),
            |k| {
                if let Some(t) = live(k) {
                    dispatch_one(inner, t);
                }
            },
        );
    }

    let more = inner.in_flight.load(Ordering::SeqCst) < inner.cfg.max_in_flight
        && by_id.iter().flatten().any(|t| !t.queue.is_empty());
    by_id.clear();
    PassOutcome { more, next_due }
}

/// Pop one request from `t` and hand it to the pool.
fn dispatch_one(inner: &Arc<ServerInner>, t: &Arc<TenantShared>) {
    if let Some(q) = t.queue.pop() {
        dispatch_queued(inner, t, q);
    }
}

/// Hand a request to the pool with the full envelope (home domain,
/// attempt token, tag) and the finish guard riding inside the closure.
fn dispatch_queued(inner: &Arc<ServerInner>, t: &Arc<TenantShared>, q: Queued) {
    if q.token.is_cancelled() {
        // Already resolved by the root's cancel hook while queued;
        // nothing to dispatch and the in-flight gauge was never
        // touched.
        return;
    }
    inner.in_flight.fetch_add(1, Ordering::SeqCst);
    // Each attempt runs under its own child of the root token: the
    // child observes root cancels and deadlines through the parent
    // chain (so grain-boundary drops still work), while leaving the
    // root PENDING for the *next* attempt if this one fails into a
    // retry.
    let attempt_token = q.token.child();
    let mut guard = FinishGuard {
        inner: inner.clone(),
        tenant: t.clone(),
        state: q.state,
        root: q.token,
        attempt_token: attempt_token.clone(),
        attempt: q.attempt,
        cost: q.cost,
        replay: q.replay,
        resolved: false,
    };
    let action = q.action;
    inner.pool.spawn_with(
        SpawnOpts {
            // Resolved at dispatch time: a bubble migration moves every
            // not-yet-dispatched request; a burst bubble goes unaffine.
            domain: t.bubble.domain(),
            token: Some(attempt_token),
            tag: Some(t.tag.clone()),
        },
        move |ctx| {
            if !guard.enter() {
                return;
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| action(ctx)));
            match result {
                Ok(()) => guard.complete(),
                Err(payload) => {
                    // Classify into a typed fault, settle-or-retry,
                    // then re-raise so the pool's panic accounting and
                    // kill propagation (worker death → DeathWatch)
                    // behave exactly as for an unwrapped body.
                    let fault = RequestFault::from_payload(payload.as_ref());
                    guard.fail(fault);
                    drop(guard);
                    std::panic::resume_unwind(payload);
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_core::Topology;

    fn quick_server(cfg: ServerConfig) -> Server {
        Server::on_pool(Arc::new(Pool::with_topology(Topology::domains(2, 1))), cfg)
    }

    /// Submit a request on `tenant` whose body spins until its gate opens,
    /// and return once the server has a request in flight (the blocker,
    /// when it is the first; failing after 30 s): it then holds a worker
    /// and an in-flight slot until the test stores `true` into the
    /// returned gate.
    fn gated_blocker(tenant: &TenantHandle) -> (Arc<AtomicBool>, ResponseHandle) {
        let gate = Arc::new(AtomicBool::new(false));
        let g = gate.clone();
        let blocker = tenant
            .submit(NativeParcel::new(move |_| {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        poll_until(deadline, "blocker never dispatched", || {
            tenant.inner.in_flight.load(Ordering::SeqCst) > 0
        });
        (gate, blocker)
    }

    /// Spin until `pred` holds, failing with `what` once `deadline`
    /// passes.
    fn poll_until(deadline: Instant, what: &str, mut pred: impl FnMut() -> bool) {
        while !pred() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn submit_completes_and_counts() {
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let handles: Vec<_> = (0..20)
            .map(|_| tenant.submit(NativeParcel::new(|_| {})).unwrap())
            .collect();
        for h in &handles {
            assert_eq!(h.wait(), Outcome::Completed);
        }
        assert!(server.wait_idle(Duration::from_secs(10)));
        let stats = tenant.stats();
        assert_eq!(stats.submitted, 20);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.settled(), 20);
        assert_eq!(tenant.pool_slice().executed, 20);
    }

    #[test]
    fn queue_full_is_typed_backpressure() {
        // A paused pool can't drain, so the 2-slot queue must overflow.
        let server = quick_server(ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        });
        let tenant = server.register_tenant(TenantConfig {
            weight: 1,
            queue_capacity: Some(2),
            ..TenantConfig::default()
        });
        // The blocker is in flight, so the queue stays full behind it.
        let (gate, blocker) = gated_blocker(&tenant);
        let mut accepted = Vec::new();
        let mut full = 0;
        for _ in 0..20 {
            match tenant.submit(NativeParcel::new(|_| {})) {
                Ok(h) => accepted.push(h),
                Err(SubmitError::QueueFull) => full += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(full > 0, "bounded queue must refuse at capacity");
        gate.store(true, Ordering::Release);
        assert_eq!(blocker.wait(), Outcome::Completed);
        for h in &accepted {
            assert_eq!(h.wait(), Outcome::Completed);
        }
        assert_eq!(tenant.stats().rejected_full, full);
    }

    #[test]
    fn cancel_while_queued_resolves_cancelled() {
        let server = quick_server(ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        });
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let (gate, blocker) = gated_blocker(&tenant);
        let victim = tenant.submit(NativeParcel::new(|_| {})).unwrap();
        assert!(victim.cancel(), "queued request is cancellable");
        assert_eq!(victim.wait(), Outcome::Cancelled);
        assert!(!victim.cancel(), "second cancel is a no-op");
        gate.store(true, Ordering::Release);
        assert_eq!(blocker.wait(), Outcome::Completed);
        assert!(server.wait_idle(Duration::from_secs(10)));
        let stats = tenant.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn expired_deadline_resolves_cancelled() {
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let h = tenant
            .submit_with_deadline(
                NativeParcel::new(|_| panic!("must not run")),
                Instant::now() - Duration::from_millis(1),
            )
            .unwrap();
        assert_eq!(h.wait(), Outcome::Cancelled);
        assert!(server.wait_idle(Duration::from_secs(10)));
        assert_eq!(tenant.stats().failed, 0);
    }

    #[test]
    fn panicking_action_resolves_failed() {
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let h = tenant
            .submit(NativeParcel::new(|_| panic!("injected request failure")))
            .unwrap();
        match h.wait() {
            Outcome::Failed(f) => {
                assert_eq!(f.site, "request.body");
                assert!(f.message.contains("injected request failure"), "{f}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        let ok = tenant.submit(NativeParcel::new(|_| {})).unwrap();
        assert_eq!(ok.wait(), Outcome::Completed, "worker survived");
        assert!(server.wait_idle(Duration::from_secs(10)));
        assert_eq!(tenant.stats().failed, 1);
    }

    #[test]
    fn close_rejects_queued_requests_and_retires_the_slot() {
        let server = quick_server(ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        });
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let (gate, blocker) = gated_blocker(&tenant);
        let stranded = tenant.submit(NativeParcel::new(|_| {})).unwrap();
        tenant.close();
        assert!(matches!(
            tenant.submit(NativeParcel::new(|_| {})),
            Err(SubmitError::TenantClosed)
        ));
        assert_eq!(
            stranded.wait(),
            Outcome::Rejected(RejectReason::TenantClosed)
        );
        gate.store(true, Ordering::Release);
        assert_eq!(blocker.wait(), Outcome::Completed, "in-flight unaffected");
        assert!(server.wait_idle(Duration::from_secs(10)));
        // The slot retires and is reused by the next registration.
        let deadline = Instant::now() + Duration::from_secs(10);
        poll_until(deadline, "tenant never retired", || {
            server.tenant_count() == 0
        });
        let next = server.register_tenant(TenantConfig::weighted(2));
        assert_eq!(next.id(), tenant.id(), "retired slot is reused");
    }

    #[test]
    fn dispatcher_survives_tenants_closing_mid_pass() {
        // Regression: a tenant closing between the dispatcher's retire
        // check and its live filter kept a `Wdrr` key with no `by_id`
        // entry, and the round's closures indexed out of bounds —
        // killing the dispatcher and hanging every later request. Churn
        // the two shapes that exposed it (the only tenant closes →
        // `by_id` is empty; the highest-id tenant closes → `by_id` is
        // short) and then prove the dispatcher is still alive.
        let server = quick_server(ServerConfig::default());
        let mut handles = Vec::new();
        let mut persistent = None;
        for round in 0..200 {
            if round == 100 {
                // From here on the churned tenant gets id 1: closing it
                // leaves a key above `by_id.len()` while id 0 stays live.
                persistent = Some(server.register_tenant(TenantConfig::weighted(1)));
            }
            let tenant = server.register_tenant(TenantConfig::weighted(1));
            for _ in 0..3 {
                handles.push(tenant.submit(NativeParcel::new(|_| {})).unwrap());
            }
            tenant.close();
        }
        // A dead dispatcher can't dispatch: a fresh tenant's request
        // would never resolve. Bounded wait so the failure is a panic,
        // not a hung test.
        let fresh = server.register_tenant(TenantConfig::weighted(1));
        let probe = fresh.submit(NativeParcel::new(|_| {})).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        poll_until(deadline, "dispatcher died during tenant churn", || {
            probe.try_outcome().is_some()
        });
        assert_eq!(probe.wait(), Outcome::Completed);
        // Every churned request still settled exactly once (Completed
        // or Rejected(TenantClosed), depending on when its tenant's
        // close landed).
        for h in &handles {
            poll_until(deadline, "churned request never settled", || {
                h.try_outcome().is_some()
            });
            assert!(matches!(
                h.wait(),
                Outcome::Completed | Outcome::Rejected(RejectReason::TenantClosed)
            ));
        }
        drop(persistent);
    }

    #[test]
    fn rejected_submission_does_not_arm_the_callers_token() {
        // Regression: the cancel hook used to be armed before admission,
        // so a QueueFull/TenantClosed rejection left it on the caller's
        // token — a later cancel of that token (e.g. a tenant-wide
        // parent fanning out) then counted a `cancelled` for a request
        // already counted `rejected_full`.
        let server = quick_server(ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        });
        let tenant = server.register_tenant(TenantConfig {
            weight: 1,
            queue_capacity: Some(1),
            ..TenantConfig::default()
        });
        let (gate, blocker) = gated_blocker(&tenant);
        let queued = tenant.submit(NativeParcel::new(|_| {})).unwrap();
        let rejected_token = CancelToken::new();
        assert!(matches!(
            tenant.submit_with_token(NativeParcel::new(|_| {}), rejected_token.clone()),
            Err(SubmitError::QueueFull)
        ));
        // The caller still owns the token; cancelling it later must not
        // resolve (or count) anything for the rejected submission.
        rejected_token.cancel();
        gate.store(true, Ordering::Release);
        assert_eq!(blocker.wait(), Outcome::Completed);
        assert_eq!(queued.wait(), Outcome::Completed);
        assert!(server.wait_idle(Duration::from_secs(10)));
        let stats = tenant.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.rejected_full, 1);
        assert_eq!(
            stats.cancelled, 0,
            "rejected submission was counted cancelled"
        );
        assert_eq!(stats.settled(), stats.submitted);
    }

    #[test]
    fn submit_after_close_lands_in_closed_rejects() {
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let done = tenant.submit(NativeParcel::new(|_| {})).unwrap();
        assert_eq!(done.wait(), Outcome::Completed);
        tenant.close();
        assert!(matches!(
            tenant.submit(NativeParcel::new(|_| {})),
            Err(SubmitError::TenantClosed)
        ));
        assert!(server.wait_idle(Duration::from_secs(10)));
        let stats = tenant.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(
            stats.closed_rejects, 1,
            "submit-time close reject uncounted"
        );
        assert_eq!(stats.settled(), stats.submitted, "conservation violated");
    }

    #[test]
    fn overload_sheds_lowest_weight_newest_first() {
        // Paused drain (max_in_flight 1 + blocker) and a tiny watermark
        // force the shed path deterministically.
        let server = quick_server(ServerConfig {
            max_in_flight: 1,
            max_queued_total: 4,
            ..ServerConfig::default()
        });
        let heavy = server.register_tenant(TenantConfig::weighted(8));
        let light = server.register_tenant(TenantConfig::weighted(1));
        let (gate, blocker) = gated_blocker(&heavy);
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(light.submit(NativeParcel::new(|_| {})).unwrap());
            handles.push(heavy.submit(NativeParcel::new(|_| {})).unwrap());
        }
        // Wait for the dispatcher to act on the over-watermark queues.
        let deadline = Instant::now() + Duration::from_secs(10);
        poll_until(deadline, "nothing was shed", || light.stats().shed > 0);
        gate.store(true, Ordering::Release);
        assert_eq!(blocker.wait(), Outcome::Completed);
        let outcomes: Vec<Outcome> = handles.iter().map(|h| h.wait()).collect();
        assert!(outcomes.contains(&Outcome::Rejected(RejectReason::Overload)));
        assert!(server.wait_idle(Duration::from_secs(10)));
        assert!(
            light.stats().shed >= heavy.stats().shed,
            "lowest weight sheds first: light={:?} heavy={:?}",
            light.stats(),
            heavy.stats()
        );
    }

    #[test]
    fn shutdown_rejects_queued_and_joins() {
        let server = quick_server(ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        });
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let (gate, blocker) = gated_blocker(&tenant);
        let stranded = tenant.submit(NativeParcel::new(|_| {})).unwrap();
        gate.store(true, Ordering::Release);
        server.shutdown();
        assert_eq!(
            stranded.wait(),
            Outcome::Rejected(RejectReason::ServerShutdown)
        );
        assert_eq!(blocker.wait(), Outcome::Completed);
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn bubble_moves_are_resolved_at_dispatch_time() {
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig {
            weight: 1,
            home: Some(DomainId(0)),
            ..TenantConfig::default()
        });
        assert_eq!(tenant.home(), Some(DomainId(0)));
        let pool = server.pool().clone();
        let spawns_at = |pool: &Pool| pool.stats().domain_spawns;

        let base = spawns_at(&pool);
        tenant.submit(NativeParcel::new(|_| {})).unwrap().wait();
        let after_pinned = spawns_at(&pool);
        assert_eq!(after_pinned[0], base[0] + 1, "pinned dispatch homes to 0");

        // Re-pin: the *next* dispatch follows the bubble, no resubmit.
        tenant.bubble().set_domain(DomainId(1));
        assert_eq!(tenant.home(), Some(DomainId(1)));
        tenant.submit(NativeParcel::new(|_| {})).unwrap().wait();
        let after_moved = spawns_at(&pool);
        assert_eq!(
            after_moved[1],
            after_pinned[1] + 1,
            "migrated dispatch homes to 1"
        );

        // Burst: dispatches go unaffine — no domain-spawn record at all.
        tenant.bubble().burst();
        assert_eq!(tenant.home(), None);
        tenant.submit(NativeParcel::new(|_| {})).unwrap().wait();
        let after_burst = spawns_at(&pool);
        assert_eq!(
            after_burst.iter().sum::<u64>(),
            after_moved.iter().sum::<u64>(),
            "burst dispatch is unaffine"
        );
        assert!(server.wait_idle(Duration::from_secs(10)));
    }

    #[test]
    fn autopilot_grows_the_pool_under_queue_pressure_and_retires_when_idle() {
        use crate::autopilot::AutopilotConfig;
        // 2 domains × 1 worker, with one vacant headroom slot each.
        let pool = Arc::new(Pool::with_elastic(Topology::domains(2, 1), 1));
        let server = Server::on_pool(pool.clone(), ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let pilot = server.autopilot(AutopilotConfig {
            interval: Duration::from_millis(1),
            ..AutopilotConfig::default()
        });
        assert_eq!(pool.active_workers(), 2);

        // Both active workers block; a backlog piles up in the pool's
        // queues behind them until the controller must grow. The backlog
        // is submitted only once both blockers run, so neither worker
        // can drain it first.
        let gate = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let g = gate.clone();
            let started = started.clone();
            handles.push(
                tenant
                    .submit(NativeParcel::new(move |_| {
                        started.fetch_add(1, Ordering::SeqCst);
                        while !g.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }))
                    .unwrap(),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        poll_until(deadline, "blockers never both ran", || {
            started.load(Ordering::SeqCst) == 2
        });
        for _ in 0..40 {
            handles.push(tenant.submit(NativeParcel::new(|_| {})).unwrap());
        }
        poll_until(deadline, "autopilot never grew the pool", || {
            pool.stats().grows > 0
        });
        gate.store(true, Ordering::Release);
        for h in &handles {
            assert_eq!(h.wait(), Outcome::Completed);
        }
        assert!(server.wait_idle(Duration::from_secs(10)));

        // Idle streak: the controller hands the extra workers back.
        poll_until(deadline, "autopilot never retired", || {
            pool.stats().retires > 0
        });
        let stats = pilot.stats();
        assert!(stats.grows >= 1, "{stats:?}");
        pilot.stop();
        pilot.stop(); // idempotent
        assert!(pilot.stats().retires >= 1 || pool.stats().retires >= 1);
    }

    #[test]
    fn tenant_wide_token_fans_out_to_children() {
        let server = quick_server(ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        });
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let root = CancelToken::new();
        let (gate, blocker) = gated_blocker(&tenant);
        let children: Vec<_> = (0..4)
            .map(|_| {
                tenant
                    .submit_with_token(NativeParcel::new(|_| {}), root.child())
                    .unwrap()
            })
            .collect();
        root.cancel();
        gate.store(true, Ordering::Release);
        assert_eq!(blocker.wait(), Outcome::Completed);
        for c in &children {
            assert_eq!(
                c.wait(),
                Outcome::Cancelled,
                "queued children observe the parent at the grain boundary"
            );
        }
    }

    #[test]
    fn flaky_replayable_request_retries_to_completion() {
        use std::sync::atomic::AtomicU32;
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig {
            weight: 1,
            retry: Some(RetryPolicy {
                base_backoff: Duration::from_micros(100),
                ..RetryPolicy::attempts(3)
            }),
            ..TenantConfig::default()
        });
        // Fails twice, succeeds on the third attempt — exactly within
        // a 3-attempt policy.
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        let h = tenant
            .submit(NativeParcel::replayable(move |_| {
                if t.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient failure");
                }
            }))
            .unwrap();
        assert_eq!(h.wait(), Outcome::Completed);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        assert!(server.wait_idle(Duration::from_secs(10)));
        let stats = tenant.stats();
        assert_eq!(stats.retried, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.settled(), stats.submitted, "conservation");
    }

    #[test]
    fn exhausted_retries_settle_failed_with_the_last_fault() {
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig {
            weight: 1,
            retry: Some(RetryPolicy {
                base_backoff: Duration::from_micros(100),
                ..RetryPolicy::attempts(2)
            }),
            ..TenantConfig::default()
        });
        let h = tenant
            .submit(NativeParcel::replayable(|_| panic!("always broken")))
            .unwrap();
        match h.wait() {
            Outcome::Failed(f) => assert!(f.message.contains("always broken"), "{f}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(server.wait_idle(Duration::from_secs(10)));
        let stats = tenant.stats();
        assert_eq!(stats.retried, 1, "one re-admission under attempts(2)");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.settled(), stats.submitted, "conservation");
    }

    #[test]
    fn one_shot_body_never_retries_execution() {
        // A FnOnce parcel is consumed by its first run: the policy must
        // not (cannot) replay it, so the failure settles immediately.
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig {
            weight: 1,
            retry: Some(RetryPolicy::attempts(5)),
            ..TenantConfig::default()
        });
        let h = tenant
            .submit(NativeParcel::new(|_| panic!("one-shot failure")))
            .unwrap();
        assert!(matches!(h.wait(), Outcome::Failed(_)));
        assert!(server.wait_idle(Duration::from_secs(10)));
        assert_eq!(tenant.stats().retried, 0);
        assert_eq!(tenant.stats().failed, 1);
    }

    #[test]
    fn fallible_parcel_surfaces_a_typed_kernel_fault() {
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let h = tenant
            .submit(NativeParcel::fallible(|_| {
                Err::<(), _>("index 9 out of bounds for array of length 4")
            }))
            .unwrap();
        match h.wait() {
            Outcome::Failed(f) => {
                assert_eq!(f.site, "kernel");
                assert_eq!(f.message, "index 9 out of bounds for array of length 4");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(server.wait_idle(Duration::from_secs(10)));
        assert_eq!(tenant.stats().failed, 1);
    }

    #[test]
    fn deadline_bounds_the_retry_loop() {
        // The deadline expires before any backoff could complete, so
        // the first failure settles instead of parking a doomed retry.
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig {
            weight: 1,
            retry: Some(RetryPolicy {
                base_backoff: Duration::from_secs(5),
                max_backoff: Duration::from_secs(5),
                ..RetryPolicy::attempts(10)
            }),
            ..TenantConfig::default()
        });
        let h = tenant
            .submit_with_deadline(
                NativeParcel::replayable(|_| panic!("fails fast")),
                Instant::now() + Duration::from_millis(200),
            )
            .unwrap();
        assert!(
            matches!(h.wait(), Outcome::Failed(_)),
            "settles instead of waiting out a 5s backoff"
        );
        assert!(server.wait_idle(Duration::from_secs(10)));
        assert_eq!(tenant.stats().retried, 0);
    }

    #[test]
    fn wait_timeout_returns_none_while_in_flight_then_the_outcome() {
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let (gate, h) = gated_blocker(&tenant);
        assert_eq!(
            h.wait_timeout(Duration::from_millis(10)),
            None,
            "still in flight"
        );
        gate.store(true, Ordering::Release);
        assert_eq!(
            h.wait_timeout(Duration::from_secs(10)),
            Some(Outcome::Completed)
        );
    }

    /// Submit a gated request, then a second one behind it under
    /// `max_in_flight: 1`, and release the gate. Submit-side passes
    /// dispatch the first request but leave the second behind the cap,
    /// so only a dispatcher-thread pass after the first completes can
    /// dispatch it: the second request completing proves the
    /// dispatcher thread survived its faults. Returns both outcomes.
    fn serve_through_the_dispatcher(
        server: &Server,
        deadline: Instant,
    ) -> (Option<Outcome>, Option<Outcome>) {
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let (gate, first) = gated_blocker(&tenant);
        let second = tenant.submit(NativeParcel::new(|_| {})).unwrap();
        gate.store(true, Ordering::Release);
        let left = || deadline.saturating_duration_since(Instant::now());
        (first.wait_timeout(left()), second.wait_timeout(left()))
    }

    /// Wait, within `deadline`, until the dispatcher has restarted at
    /// least `n` times.
    fn await_restarts(server: &Server, n: u64, deadline: Instant) {
        let what = format!("dispatcher restarted fewer than {n} times");
        poll_until(deadline, &what, || server.dispatcher_restarts() >= n);
    }

    #[test]
    fn killed_dispatcher_respawns_and_keeps_serving() {
        use htvm_core::{FaultKind, FaultPlan, FaultRule, Topology};
        // The first two dispatch passes die to an injected kill —
        // each takes its whole thread down — and the DispatcherWatch
        // guard respawns a successor both times. max=2 lets the third
        // thread live.
        let plan = FaultPlan::new().rule(
            FaultRule::new("serve.dispatch", FaultKind::Kill)
                .p(1.0)
                .seed(7)
                .max(2),
        );
        let pool = Arc::new(Pool::with_fault_plan(Topology::domains(2, 1), 0, plan));
        let server = Server::on_pool(
            pool,
            ServerConfig {
                max_in_flight: 1,
                ..ServerConfig::default()
            },
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        let (first, second) = serve_through_the_dispatcher(&server, deadline);
        assert_eq!(first, Some(Outcome::Completed));
        assert_eq!(
            second,
            Some(Outcome::Completed),
            "a killed dispatcher must not strand admitted requests"
        );
        await_restarts(&server, 2, deadline);
        server.shutdown();
    }

    #[test]
    fn panicking_dispatcher_restarts_in_place() {
        use htvm_core::{FaultKind, FaultPlan, FaultRule, Topology};
        let plan = FaultPlan::new().rule(
            FaultRule::new("serve.dispatch", FaultKind::Panic)
                .p(1.0)
                .seed(11)
                .max(3),
        );
        let pool = Arc::new(Pool::with_fault_plan(Topology::domains(2, 1), 0, plan));
        let server = Server::on_pool(
            pool,
            ServerConfig {
                max_in_flight: 1,
                ..ServerConfig::default()
            },
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        let (first, second) = serve_through_the_dispatcher(&server, deadline);
        assert_eq!(first, Some(Outcome::Completed));
        assert_eq!(second, Some(Outcome::Completed));
        await_restarts(&server, 3, deadline);
        server.shutdown();
    }

    #[test]
    fn cancel_loses_to_a_running_body() {
        // Regression: an attempt runs under a child of the root token
        // and only the child is claimed at the grain boundary, so the
        // root stayed pending while the body ran. A cancel then won the
        // root CAS and settled `Cancelled` for a body that went on to
        // run to completion, and its `Completed` lost the gate. The
        // running body now holds the gate, and the cancel loses.
        use std::sync::mpsc;
        let server = quick_server(ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let ran = Arc::new(AtomicU64::new(0));
        let r = ran.clone();
        let h = tenant
            .submit(NativeParcel::new(move |_| {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                r.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("body never started");
        assert!(!h.cancel(), "a cancel resolved a request whose body runs");
        assert!(
            h.token().cancel_requested(),
            "the running body can still observe the request"
        );
        release_tx.send(()).unwrap();
        assert_eq!(h.wait(), Outcome::Completed);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert!(server.wait_idle(Duration::from_secs(10)));
        let stats = tenant.stats();
        assert_eq!((stats.completed, stats.cancelled), (1, 0));
        assert_eq!(stats.settled(), stats.submitted, "conservation");
    }

    #[test]
    fn injected_worker_fault_is_typed_with_its_site() {
        use htvm_core::{FaultKind, FaultPlan, FaultRule, Topology};
        // Every body hit once: the fault surfaces as a typed Failed
        // naming the injection site, not an opaque panic.
        let plan = FaultPlan::new().rule(
            FaultRule::new("worker.body", FaultKind::Panic)
                .p(1.0)
                .seed(3)
                .max(1),
        );
        let pool = Arc::new(Pool::with_fault_plan(Topology::domains(2, 1), 0, plan));
        let server = Server::on_pool(pool, ServerConfig::default());
        let tenant = server.register_tenant(TenantConfig::weighted(1));
        let h = tenant.submit(NativeParcel::new(|_| {})).unwrap();
        match h.wait() {
            Outcome::Failed(f) => assert_eq!(f.site, "worker.body"),
            other => panic!("expected Failed, got {other:?}"),
        }
        let ok = tenant.submit(NativeParcel::new(|_| {})).unwrap();
        assert_eq!(ok.wait(), Outcome::Completed, "fault capped at max=1");
        server.shutdown();
    }
}
