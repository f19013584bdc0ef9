//! Request-side types: the typed outcome of a submission and the
//! handle a client holds while its parcel is in flight.
//!
//! Every admitted request resolves to **exactly one** [`Outcome`],
//! delivered through a dataflow [`IVar`] — the same write-once cell
//! the runtime uses for LGT results. Exactly-once is enforced by a
//! per-request **settle gate** (`ReqState`), a three-state cell that
//! elects the one resolver among every party that might race to
//! deliver an outcome — the finish guard on a worker, the cancel hook
//! on the client's token, a shed or close on a dispatch pass, a
//! supervision drop during a dispatcher restart:
//!
//! ```text
//!   OPEN ──enter──► RUNNING ──complete / fail──► SETTLED
//!    │  ◄──reopen──┘ (failed attempt parked for a retry)
//!    └──cancel hook / rejection / unrun drop──────► SETTLED
//! ```
//!
//! A body runs only after its attempt wins `OPEN → RUNNING`, and the
//! cancel hook settles only from `OPEN`: a cancel that lands while the
//! body runs loses (the request settles `Completed`/`Failed` from the
//! attempt), and a cancel that settles first makes the attempt skip
//! the body. So a request whose body runs is never reported
//! `Cancelled`: a cancel settles it only while no attempt body runs —
//! before the first, or while a failed attempt's retry waits out its
//! backoff. The [`CancelToken`] state machine
//! still arbitrates *claim vs cancel* per attempt, but the root token
//! stays pending while an attempt runs under its child, so the token
//! CAS alone is not the request-level authority.
//!
//! Failures are **typed, never silent**: a panicking body, an
//! injected fault, a kernel trap — all settle as
//! [`Outcome::Failed`] with a [`RequestFault`] naming the failure
//! site. No client ever hangs on a `wait()` because an attempt died;
//! the finish guard's drop path settles the request even when the
//! executing thread is killed mid-flight.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use htvm_core::{CancelToken, IVar};

/// Why the serving layer refused to run an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Shed under overload: total queued work crossed the server's
    /// watermark and this tenant's weight lost the triage.
    Overload,
    /// The tenant was closed while the request was still queued.
    TenantClosed,
    /// The server shut down while the request was still queued.
    ServerShutdown,
}

/// A typed execution failure: *where* an attempt died and *why*.
///
/// Carried by [`Outcome::Failed`]. The `site` is a stable,
/// dot-separated label in the same namespace as the fault plane's
/// injection sites (`htvm_core::faults`) — an injected fault surfaces
/// with the site it was injected at (e.g. `worker.body`), a kernel
/// trap as `kernel`, an ordinary panicking body as `request.body`,
/// and a request abandoned by a dying dispatcher as
/// `serve.abandoned`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFault {
    /// Stable failure-site label (see type docs).
    pub site: &'static str,
    /// Human-readable description recovered from the panic payload.
    pub message: String,
}

impl RequestFault {
    pub(crate) fn new(site: &'static str, message: impl Into<String>) -> Self {
        Self {
            site,
            message: message.into(),
        }
    }

    /// Classify a caught panic payload into a typed fault.
    pub(crate) fn from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        if let Some(f) = htvm_core::faults::injected_from_payload(payload) {
            return Self::new(f.site, f.to_string());
        }
        if let Some(k) = payload.downcast_ref::<litlx::ParcelFault>() {
            return Self::new("kernel", k.message.clone());
        }
        Self::new("request.body", htvm_core::faults::describe_payload(payload))
    }
}

impl std::fmt::Display for RequestFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request failed at {}: {}", self.site, self.message)
    }
}

/// The terminal state of a submitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The request's action ran to completion on the pool.
    Completed,
    /// The request's [`CancelToken`] resolved cancelled (explicit
    /// cancel or deadline expiry) before the action ran.
    Cancelled,
    /// The request failed — its action panicked, hit an injected
    /// fault, trapped in a kernel, or was abandoned by a dying
    /// dispatcher — and its retry policy (if any) is exhausted. The
    /// fault names the failure site; the pool and server survived.
    Failed(RequestFault),
    /// The serving layer refused to run the request (typed shed).
    Rejected(RejectReason),
}

/// Why a submission was refused at the admission boundary (the request
/// never entered the system; there is no handle and no outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's bounded admission queue is full — backpressure;
    /// retry later or shed client-side.
    QueueFull,
    /// The tenant has been closed (or the server shut down); do not
    /// retry.
    TenantClosed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "tenant admission queue is full"),
            SubmitError::TenantClosed => write!(f, "tenant is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Gate states (see the [module docs](self)).
const OPEN: u8 = 0;
const RUNNING: u8 = 1;
const SETTLED: u8 = 2;

/// Shared per-request state: the write-once outcome cell plus the
/// settle gate that elects its single writer.
pub(crate) struct ReqState {
    pub(crate) outcome: IVar<Outcome>,
    /// `SeqCst` throughout: a retry's reopen-then-check-the-token and
    /// a cancel's resolve-the-token-then-settle must not both miss
    /// each other, which needs the gate and the token's state in one
    /// total order.
    gate: AtomicU8,
}

impl ReqState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            outcome: IVar::new(),
            gate: AtomicU8::new(OPEN),
        })
    }

    /// An attempt is about to run its body: `OPEN → RUNNING`. `false`
    /// means the request already settled (a cancel won before the
    /// body started) and the body must not run.
    pub(crate) fn enter(&self) -> bool {
        self.gate
            .compare_exchange(OPEN, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// A failed attempt hands the request to its retry: `RUNNING →
    /// OPEN`, so the next attempt can enter and a cancel can settle
    /// the request while it waits out its backoff. A no-op for a
    /// request whose body never ran (a shed retry).
    pub(crate) fn reopen(&self) {
        let _ = self
            .gate
            .compare_exchange(RUNNING, OPEN, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Deliver the request's one outcome from outside any running
    /// attempt (cancel hook, rejection, an attempt dropped unrun):
    /// settles only from `OPEN`. The winner runs `count` (its
    /// accounting bump), writes the cell, and gets `true`; every other
    /// caller is a no-op returning `false`. Counting only on a win is
    /// what keeps the conservation ledger exact; counting *before* the
    /// cell is written means any thread that observes the outcome (the
    /// `put` releases, `wait`'s read acquires) also observes the bump —
    /// so a ledger read taken after `wait` returns never runs ahead of
    /// the stats.
    pub(crate) fn settle(&self, outcome: Outcome, count: impl FnOnce()) -> bool {
        let won = self
            .gate
            .compare_exchange(OPEN, SETTLED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if won {
            count();
            self.outcome.put(outcome);
        }
        won
    }

    /// Deliver the outcome of the current attempt: settles from
    /// `RUNNING` (the body returned or panicked) or from `OPEN` (the
    /// attempt died before its body started), with the same counting
    /// discipline as [`ReqState::settle`].
    pub(crate) fn settle_attempt(&self, outcome: Outcome, count: impl FnOnce()) -> bool {
        let won = self.gate.swap(SETTLED, Ordering::SeqCst) != SETTLED;
        if won {
            count();
            self.outcome.put(outcome);
        }
        won
    }
}

/// The client's handle to an admitted request.
pub struct ResponseHandle {
    pub(crate) state: Arc<ReqState>,
    pub(crate) token: CancelToken,
}

impl ResponseHandle {
    /// Block until the request resolves. Call from client threads, not
    /// from pool workers (it parks the calling thread).
    pub fn wait(&self) -> Outcome {
        self.state.outcome.get()
    }

    /// Block until the request resolves or `timeout` elapses.
    ///
    /// `None` means *still in flight* (e.g. parked in a retry
    /// backoff), not failed — the request will still settle exactly
    /// once, and a later `wait`/`wait_timeout` can pick it up.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        self.state.outcome.get_timeout(timeout)
    }

    /// The outcome if the request has already resolved.
    pub fn try_outcome(&self) -> Option<Outcome> {
        self.state.outcome.try_get()
    }

    /// Request cancellation. Returns `true` if this call resolved the
    /// request to [`Outcome::Cancelled`] — no attempt body runs after
    /// it; `false` if it had already settled or its body is running (it
    /// will still resolve — e.g. to `Completed`/`Failed` — and a
    /// running body can observe the request via its token's
    /// `cancel_requested`).
    pub fn cancel(&self) -> bool {
        self.token.cancel() && matches!(self.try_outcome(), Some(Outcome::Cancelled))
    }

    /// The request's cancellation token (e.g. to derive `child` tokens
    /// for an SGT subtree, or to poll `cancel_requested` from the
    /// action).
    ///
    /// The token already guards *this* request, and a token guards at
    /// most one submission — do not pass it to another
    /// `submit_with_token` call (that would disarm this request's
    /// cancelled resolution); derive a `child()` instead.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseHandle")
            .field("outcome", &self.try_outcome())
            .field("token", &self.token)
            .finish()
    }
}
