//! The virtual scheduler: real OS threads serialized onto a single baton.
//!
//! Exactly one virtual thread runs at a time. Every instrumented operation
//! (atomic, fence, lock, condvar, spawn/join) calls a *yield point*; the
//! scheduler records the event and picks the next runnable thread with a
//! seeded xorshift PRNG, so the whole interleaving — and therefore every
//! observable outcome of a data-race-free-but-wrongly-synchronized program
//! — is a pure function of the seed. Blocking primitives deschedule the
//! caller and re-ready it on release/notify/finish. If no thread is
//! runnable while some are still blocked, that schedule is a deadlock (a
//! lost wakeup shows up exactly this way) and the run fails with a
//! replayable seed + operation trace.
//!
//! Because the baton admits one thread at a time and every handoff goes
//! through a mutex, all memory written by the previously scheduled thread
//! is visible to the next one: the explorer explores *sequentially
//! consistent* interleavings. Weak-memory reorderings are out of scope
//! (see ARCHITECTURE.md §verification for what covers those).
//!
//! On failure the scheduler flips into **free-run** mode: every virtual
//! thread is released from the baton and runs on real concurrency so the
//! iteration can drain instead of leaking threads parked on the handshake.
//! Condvar waits become timed waits in free-run so a waiter whose notifier
//! already exited cannot hang the teardown.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering as AtOrd};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Number of trailing trace events reproduced in a failure report.
const TRACE_TAIL: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Ready,
    BlockedMutex(usize),
    BlockedCv(usize),
    BlockedJoin(usize),
    Done,
}

#[derive(Clone, Copy)]
struct Event {
    step: u64,
    tid: usize,
    label: &'static str,
}

struct State {
    statuses: Vec<Status>,
    current: Option<usize>,
    rng: u64,
    steps: u64,
    max_steps: u64,
    preempt_left: Option<u32>,
    trace: Vec<Event>,
    /// `(message, formatted trace)` — the trace is frozen at failure time
    /// so free-run teardown can't append nondeterministic tail events.
    failure: Option<(String, String)>,
    free_run: bool,
    done: usize,
}

/// One exploration iteration's scheduler. Shared by all of the
/// iteration's virtual threads through an `Arc`.
pub(crate) struct SchedInner {
    mx: Mutex<State>,
    cv: Condvar,
    /// Mirror of `State::free_run` readable without the lock (fast path
    /// for yield points after a failure).
    free: AtomicBool,
}

fn strip<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(|p| p.into_inner())
}

/// SplitMix64 — used to whiten user seeds and derive per-iteration seeds.
/// A private copy of `htvm_core::faults::splitmix64`: this crate has no
/// runtime dependencies (`htvm-core` depends on it under its `check`
/// feature), so it cannot import the core's.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn next_rng(st: &mut State) -> u64 {
    let mut x = st.rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    st.rng = x;
    x
}

impl SchedInner {
    pub(crate) fn new(seed: u64, max_steps: u64, preemption_bound: Option<u32>) -> Arc<Self> {
        let whitened = splitmix64(seed);
        Arc::new(Self {
            mx: Mutex::new(State {
                // tid 0 is the scenario's root thread, scheduled first.
                statuses: vec![Status::Ready],
                current: Some(0),
                rng: if whitened == 0 {
                    0x9E37_79B9_7F4A_7C15
                } else {
                    whitened
                },
                steps: 0,
                max_steps,
                preempt_left: preemption_bound,
                trace: Vec::new(),
                failure: None,
                free_run: false,
                done: 0,
            }),
            cv: Condvar::new(),
            free: AtomicBool::new(false),
        })
    }

    fn st(&self) -> MutexGuard<'_, State> {
        strip(self.mx.lock())
    }

    fn fail(&self, st: &mut State, msg: String) {
        if st.failure.is_none() {
            let trace = Self::format_trace(st);
            st.failure = Some((msg, trace));
        }
        st.free_run = true;
        self.free.store(true, AtOrd::Release);
        self.cv.notify_all();
    }

    /// Pick the next runnable thread (possibly `me`) and hand it the
    /// baton. With a preemption bound, a runnable `me` keeps the baton
    /// once the budget is spent; each involuntary switch away from a
    /// runnable thread costs one unit.
    fn pick_next(&self, st: &mut State, me: usize) {
        let runnable: Vec<usize> = st
            .statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Ready)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if st.done < st.statuses.len() {
                let dump: Vec<String> = st
                    .statuses
                    .iter()
                    .enumerate()
                    .map(|(i, s)| format!("t{i}={s:?}"))
                    .collect();
                self.fail(
                    st,
                    format!(
                        "deadlock: every live thread is blocked ({}) — a lost wakeup looks exactly like this",
                        dump.join(", ")
                    ),
                );
            } else {
                st.current = None;
            }
            self.cv.notify_all();
            return;
        }
        let me_ready = st.statuses.get(me).copied() == Some(Status::Ready);
        let pick = if me_ready && st.preempt_left == Some(0) {
            me
        } else {
            let p = runnable[(next_rng(st) as usize) % runnable.len()];
            if me_ready && p != me {
                if let Some(n) = st.preempt_left.as_mut() {
                    *n -= 1;
                }
            }
            p
        };
        st.current = Some(pick);
        if pick != me {
            self.cv.notify_all();
        }
    }

    fn wait_turn(&self, mut st: MutexGuard<'_, State>, me: usize) {
        while !(st.free_run || st.current == Some(me)) {
            st = strip(self.cv.wait(st));
        }
    }

    /// A voluntary yield point: record the op about to execute, charge the
    /// step budget, reschedule.
    fn yield_at(&self, me: usize, label: &'static str) {
        let mut st = self.st();
        if st.free_run {
            return;
        }
        st.steps += 1;
        let step = st.steps;
        st.trace.push(Event {
            step,
            tid: me,
            label,
        });
        if step > st.max_steps {
            let max = st.max_steps;
            self.fail(
                &mut st,
                format!("step budget ({max}) exhausted — livelock or runaway schedule"),
            );
            return;
        }
        self.pick_next(&mut st, me);
        self.wait_turn(st, me);
    }

    /// Deschedule `me` as `status`; optionally first re-ready the waiters
    /// of a just-released mutex (the condvar-wait path releases the lock
    /// and blocks in one baton-atomic step).
    fn block_at(
        &self,
        me: usize,
        status: Status,
        label: &'static str,
        release_mutex: Option<usize>,
    ) {
        let mut st = self.st();
        if st.free_run {
            return;
        }
        st.steps += 1;
        let step = st.steps;
        st.trace.push(Event {
            step,
            tid: me,
            label,
        });
        if let Some(addr) = release_mutex {
            Self::ready_mutex_waiters(&mut st, addr);
        }
        st.statuses[me] = status;
        self.pick_next(&mut st, me);
        self.wait_turn(st, me);
    }

    fn ready_mutex_waiters(st: &mut State, addr: usize) {
        for s in st.statuses.iter_mut() {
            if *s == Status::BlockedMutex(addr) {
                *s = Status::Ready;
            }
        }
    }

    /// Register a new virtual thread; it starts `Ready` and runs when the
    /// scheduler first picks it.
    pub(crate) fn register(&self) -> usize {
        let mut st = self.st();
        st.statuses.push(Status::Ready);
        st.statuses.len() - 1
    }

    /// Entry handshake for a freshly spawned virtual thread.
    pub(crate) fn wait_until_scheduled(&self, me: usize) {
        let st = self.st();
        self.wait_turn(st, me);
    }

    /// Join: block until `target` finishes (no-op if it already has).
    fn join_at(&self, me: usize, target: usize) {
        let mut st = self.st();
        if st.free_run || st.statuses[target] == Status::Done {
            return;
        }
        st.steps += 1;
        let step = st.steps;
        st.trace.push(Event {
            step,
            tid: me,
            label: "thread::join",
        });
        st.statuses[me] = Status::BlockedJoin(target);
        self.pick_next(&mut st, me);
        self.wait_turn(st, me);
    }

    /// A virtual thread's body finished (or panicked — recorded
    /// separately): mark done, release joiners, hand off the baton.
    pub(crate) fn finish(&self, me: usize) {
        let mut st = self.st();
        st.statuses[me] = Status::Done;
        st.done += 1;
        if !st.free_run {
            st.steps += 1;
            let step = st.steps;
            st.trace.push(Event {
                step,
                tid: me,
                label: "finish",
            });
        }
        for s in st.statuses.iter_mut() {
            if *s == Status::BlockedJoin(me) {
                *s = Status::Ready;
            }
        }
        self.pick_next(&mut st, me);
        // Unconditionally wake outcome watchers (the iteration driver).
        self.cv.notify_all();
    }

    /// Record a panic that unwound out of a virtual thread's body as the
    /// iteration's failure (first failure wins).
    pub(crate) fn record_panic(&self, tid: usize, payload: Box<dyn std::any::Any + Send>) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_owned());
        let mut st = self.st();
        self.fail(&mut st, format!("virtual thread t{tid} panicked: {msg}"));
    }

    /// Block until the iteration either fails or every virtual thread
    /// finishes. Returns the step count on success, `(message, trace)` on
    /// failure.
    pub(crate) fn wait_outcome(&self) -> Result<u64, (String, String)> {
        let mut st = self.st();
        loop {
            if let Some((msg, trace)) = st.failure.clone() {
                return Err((msg, trace));
            }
            if st.done == st.statuses.len() {
                return Ok(st.steps);
            }
            st = strip(self.cv.wait(st));
        }
    }

    fn format_trace(st: &State) -> String {
        let n = st.trace.len();
        let start = n.saturating_sub(TRACE_TAIL);
        let mut out = String::new();
        if start > 0 {
            out.push_str(&format!("    … {start} earlier events elided …\n"));
        }
        for e in &st.trace[start..] {
            out.push_str(&format!(
                "    step {:>6}  t{}  {}\n",
                e.step, e.tid, e.label
            ));
        }
        out
    }
}

thread_local! {
    static CTX: RefCell<Option<(Arc<SchedInner>, usize)>> = const { RefCell::new(None) };
}

/// Bind this OS thread to a scheduler as virtual thread `tid`.
pub(crate) fn install(sched: Arc<SchedInner>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((sched, tid)));
}

pub(crate) fn ctx() -> Option<(Arc<SchedInner>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// The scheduler, if this thread is virtual AND the iteration has not
/// flipped into free-run teardown.
pub(crate) fn ctx_if_scheduled() -> Option<(Arc<SchedInner>, usize)> {
    ctx().filter(|(s, _)| !s.free.load(AtOrd::Acquire))
}

/// How the current OS thread relates to a scheduler.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// No scheduler on this thread: primitives pass straight through.
    Unscheduled,
    /// Scheduled but the iteration failed: drain on real concurrency.
    FreeRun,
    /// Under the baton.
    Scheduled,
}

pub(crate) fn mode() -> Mode {
    match ctx() {
        None => Mode::Unscheduled,
        Some((s, _)) => {
            if s.free.load(AtOrd::Acquire) {
                Mode::FreeRun
            } else {
                Mode::Scheduled
            }
        }
    }
}

pub(crate) fn in_scheduled() -> bool {
    mode() == Mode::Scheduled
}

/// The yield point every instrumented operation passes through.
pub(crate) fn yield_point(label: &'static str) {
    if let Some((sched, me)) = ctx_if_scheduled() {
        sched.yield_at(me, label);
    }
}

/// Deschedule the caller until `addr`'s mutex is released.
pub(crate) fn block_on_mutex(addr: usize) {
    if let Some((sched, me)) = ctx_if_scheduled() {
        sched.block_at(me, Status::BlockedMutex(addr), "Mutex::blocked", None);
    }
}

/// Mark every thread blocked on `addr`'s mutex runnable again (the real
/// lock has just been released).
pub(crate) fn mutex_released(addr: usize) {
    if let Some((sched, _)) = ctx_if_scheduled() {
        let mut st = sched.st();
        if !st.free_run {
            SchedInner::ready_mutex_waiters(&mut st, addr);
        }
    }
}

/// Condvar wait: in one baton-atomic step, re-ready the released mutex's
/// waiters and deschedule the caller as a waiter on `cv_addr`.
pub(crate) fn cv_block(cv_addr: usize, mutex_addr: usize) {
    if let Some((sched, me)) = ctx_if_scheduled() {
        sched.block_at(
            me,
            Status::BlockedCv(cv_addr),
            "Condvar::wait",
            Some(mutex_addr),
        );
    }
}

/// Virtual notify: re-ready one (PRNG-chosen) or all waiters of `cv_addr`.
/// No spurious wakeups under the baton — determinism over realism; the
/// predicate loops in the code under test don't care.
pub(crate) fn cv_notify(cv_addr: usize, all: bool) {
    if let Some((sched, me)) = ctx_if_scheduled() {
        let mut st = sched.st();
        if st.free_run {
            return;
        }
        let waiters: Vec<usize> = st
            .statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::BlockedCv(cv_addr))
            .map(|(i, _)| i)
            .collect();
        st.steps += 1;
        let step = st.steps;
        st.trace.push(Event {
            step,
            tid: me,
            label: if all {
                "Condvar::notify_all"
            } else {
                "Condvar::notify_one"
            },
        });
        if waiters.is_empty() {
            return;
        }
        if all {
            for w in waiters {
                st.statuses[w] = Status::Ready;
            }
        } else {
            let w = waiters[(next_rng(&mut st) as usize) % waiters.len()];
            st.statuses[w] = Status::Ready;
        }
    }
}

/// Scheduler-aware join (no-op when unscheduled; the real join handles it).
pub(crate) fn join_on(target: usize) {
    if let Some((sched, me)) = ctx_if_scheduled() {
        sched.join_at(me, target);
    }
}

/// Did the current thread's iteration fail? (Used to skip real joins
/// during free-run teardown, where a leaked waiter could hang them.)
pub(crate) fn failed_current() -> bool {
    matches!(mode(), Mode::FreeRun)
}
