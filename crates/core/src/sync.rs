//! The HTVM synchronization model: dataflow-style primitives.
//!
//! The paper's synchronization model calls for "synchronization constructs
//! for data-flow style operations" (§3.2). Following EARTH — the SGT/TGT
//! ancestor the authors cite — the base primitive is the **sync slot**: a
//! counter initialized to the number of inputs a computation waits for;
//! every data arrival signals the slot; when the count reaches zero the
//! associated continuation is *enabled* (here: executed or enqueued). All
//! higher-level constructs (futures, barriers, atomic sections) reduce to
//! sync slots plus write-once cells.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chk::{
    AtomicBool, AtomicIsize, AtomicU32, AtomicU64, Condvar, Mutex, MutexGuard, Ordering,
};

/// The continuation state of a [`SyncSlot`] — a one-way street:
/// `Unset → Armed → Fired` (re-arming an unfired slot is allowed;
/// re-arming a fired one is a recorded no-op).
enum ActionState {
    /// No continuation attached yet.
    Unset,
    /// A continuation is waiting for the count to drain.
    Armed(Box<dyn FnOnce() + Send>),
    /// The continuation has run; the slot is spent.
    Fired,
}

/// An EARTH-style sync slot: fires its continuation exactly once, when
/// `count` signals have arrived.
///
/// The continuation runs on the thread that delivers the final signal —
/// matching EARTH, where the fiber enabled by the last sync signal is
/// enqueued by the signalling processor.
///
/// "Exactly once" is a property of the slot, not of one continuation:
/// once the slot has fired, [`SyncSlot::set_action`] refuses to arm it
/// again (returning `false` and counting the attempt in
/// [`SyncSlot::late_actions`]), so no slot ever runs two continuations.
pub struct SyncSlot {
    remaining: AtomicIsize,
    action: Mutex<ActionState>,
    /// Losing `set_action` attempts, dropped on the floor by contract:
    /// arrivals after the slot fired, plus arrivals after the threshold
    /// crossed that found another action already armed.
    late_actions: AtomicU64,
}

impl SyncSlot {
    /// A slot that fires after `count` signals. `count == 0` fires
    /// immediately at construction... except that there is no continuation
    /// yet, so zero-count slots fire on `set_action`.
    pub fn new(count: usize) -> Arc<Self> {
        Arc::new(Self {
            remaining: AtomicIsize::new(count as isize),
            action: Mutex::new(ActionState::Unset),
            late_actions: AtomicU64::new(0),
        })
    }

    /// A slot with its continuation attached.
    pub fn with_action(count: usize, action: impl FnOnce() + Send + 'static) -> Arc<Self> {
        let slot = Self::new(count);
        slot.set_action(action);
        slot
    }

    /// Attach (or replace, if the threshold has not yet been crossed) the
    /// continuation. If the count already reached zero, the action runs
    /// immediately on this thread.
    ///
    /// Returns `true` if the caller's action was armed or ran. Every loser
    /// gets `false` plus exactly one [`SyncSlot::late_actions`] tick: a
    /// caller that finds the slot already `Fired`, *or* that finds the
    /// threshold crossed with someone else's action armed — that armed
    /// action belongs to the crossing signal's in-flight `try_fire`
    /// and must not be replaced. (Replacing it was the historical bug: the
    /// armed action was dropped on the floor, the loser was told `true`,
    /// and `late_actions` never moved. Found by the schedule explorer —
    /// seed `0x203cfdbad06e70dc` in `crates/check/tests/schedule_explore.rs`.)
    ///
    /// The `remaining` check therefore lives *inside* the action lock: the
    /// lock serializes every arm/fire transition, so "crossed + Armed"
    /// reliably means an in-flight `try_fire` owns that action, and
    /// "crossed + Unset" means the firing is ours to take.
    pub fn set_action(self: &Arc<Self>, action: impl FnOnce() + Send + 'static) -> bool {
        {
            let mut slot = self.action.lock();
            let crossed = self.remaining.load(Ordering::Acquire) <= 0;
            match &*slot {
                ActionState::Fired => {
                    self.late_actions.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                ActionState::Armed(_) if crossed => {
                    // The crossing signal's try_fire (past its fetch_sub,
                    // not yet through this lock) owns the armed action; we
                    // are the late one.
                    self.late_actions.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                ActionState::Unset if crossed => {
                    // Count already drained and nothing armed: the firing
                    // is ours. Mark the slot spent under the lock, run the
                    // action outside it (it may re-enter this slot).
                    *slot = ActionState::Fired;
                }
                _ => {
                    *slot = ActionState::Armed(Box::new(action));
                    return true;
                }
            }
        }
        action();
        true
    }

    /// Deliver one signal. Returns `true` if this signal enabled the
    /// continuation.
    pub fn signal(self: &Arc<Self>) -> bool {
        self.signal_n(1)
    }

    /// Deliver `n` signals at once.
    pub fn signal_n(self: &Arc<Self>, n: usize) -> bool {
        let prev = self.remaining.fetch_sub(n as isize, Ordering::AcqRel);
        if prev > 0 && prev <= n as isize {
            self.try_fire();
            true
        } else {
            false
        }
    }

    /// Signals still outstanding (may be negative if over-signalled).
    pub fn outstanding(&self) -> isize {
        self.remaining.load(Ordering::Acquire)
    }

    /// Whether the continuation has already run.
    pub fn has_fired(&self) -> bool {
        matches!(*self.action.lock(), ActionState::Fired)
    }

    /// How many [`SyncSlot::set_action`] calls lost the race and were
    /// dropped as no-ops — exactly one tick per losing caller, whether it
    /// arrived after the fire or in the window between the threshold
    /// crossing and the fire.
    pub fn late_actions(&self) -> u64 {
        self.late_actions.load(Ordering::Relaxed)
    }

    /// Run the continuation if one is armed, marking the slot spent. The
    /// `Fired` marker is written under the same lock that guards arming,
    /// so a concurrent `set_action` either re-arms *before* the take (its
    /// action runs here — it replaced an unfired one) or observes `Fired`
    /// and no-ops; two continuations can never both run.
    fn try_fire(&self) {
        let action = {
            let mut slot = self.action.lock();
            match std::mem::replace(&mut *slot, ActionState::Fired) {
                ActionState::Armed(f) => Some(f),
                // No continuation yet: stay unset so a zero-count slot can
                // still fire on a later `set_action`.
                ActionState::Unset => {
                    *slot = ActionState::Unset;
                    None
                }
                ActionState::Fired => None,
            }
        };
        if let Some(f) = action {
            f();
        }
    }
}

impl std::fmt::Debug for SyncSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncSlot")
            .field("remaining", &self.outstanding())
            .field("fired", &self.has_fired())
            .finish()
    }
}

/// The spin phase's hard limit, in polls: every completion wait parks
/// after at most this many `yield_now` polls, whatever its meter says.
/// 256 is the window phase-structured LGT joins have long spun before
/// blocking.
#[cfg(not(feature = "check"))]
const SPIN_CEILING: u32 = 256;
/// Under the schedule explorer every poll is a schedule point: a short
/// window keeps scenarios finite and leaves the park path reachable.
#[cfg(feature = "check")]
const SPIN_CEILING: u32 = 2;

/// One call site's record of how long its completion waits take: the
/// spin budget of the spin-then-park wait behind [`IVar::get`] and
/// [`EventCount::wait_for`]. Keep one in a `static` beside the call
/// (`static JOIN: WaitMeter = WaitMeter::new();`), so each site learns
/// its own wait length.
///
/// The meter is bookkeeping, not protocol: it uses plain `std` atomics
/// even under the `check` feature, so it adds no schedule points, and
/// racing updates may drop a sample.
#[derive(Debug, Default)]
pub struct WaitMeter {
    /// EWMA of this site's completed waits, in ns; 0 until the first.
    ewma_ns: std::sync::atomic::AtomicU64,
    /// Waits that reached the park phase (cumulative).
    parks: std::sync::atomic::AtomicU64,
}

/// The spin phase of one wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpinWindow {
    /// Polls before parking, whatever the clock says.
    polls: u32,
    /// Elapsed time at which the wait stops spinning; `None` for a fresh
    /// meter, which spins the whole ceiling.
    until_ns: Option<u64>,
}

/// The budget rule: spin while the wait is younger than twice this
/// site's EWMA, and never past `ceiling` polls.
fn spin_window(ewma_ns: u64, ceiling: u32) -> SpinWindow {
    SpinWindow {
        polls: ceiling,
        until_ns: (ewma_ns > 0).then(|| ewma_ns.saturating_mul(2)),
    }
}

/// Fold one completed wait into the EWMA (weight 1/8). Never returns 0,
/// which marks a fresh meter.
fn ewma_fold(ewma_ns: u64, sample_ns: u64) -> u64 {
    if ewma_ns == 0 {
        return sample_ns.max(1);
    }
    (ewma_ns.saturating_mul(7).saturating_add(sample_ns) / 8).max(1)
}

impl WaitMeter {
    /// A fresh meter: its first wait spins the whole ceiling.
    pub const fn new() -> Self {
        Self {
            ewma_ns: std::sync::atomic::AtomicU64::new(0),
            parks: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// EWMA of this site's completed waits, in ns (0: none yet). A wait
    /// that found its condition already true is not a sample.
    fn ewma_ns(&self) -> u64 {
        self.ewma_ns.load(Ordering::Relaxed)
    }

    /// Waits at this site that spun out their window and parked.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    fn window(&self) -> SpinWindow {
        // The explorer replays schedules by seed: its window must not
        // depend on the clock or on what earlier iterations recorded.
        if cfg!(feature = "check") {
            return spin_window(0, SPIN_CEILING);
        }
        spin_window(self.ewma_ns(), SPIN_CEILING)
    }

    fn record(&self, start: Instant) {
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.ewma_ns
            .store(ewma_fold(self.ewma_ns(), ns), Ordering::Relaxed);
    }
}

/// The park half of a completion wait: a lock, a condvar, and a count of
/// the waiters that need a waker to take the lock.
///
/// The protocol is the sleeper registry's check-then-park handshake
/// (see [`crate::sleepers`]), with the completion in place of the epoch:
/// a waiter registers (`SeqCst`) *then* re-checks the completion under
/// the lock before each sleep; a waker publishes the completion (`SeqCst`)
/// *then* reads the registration. In one total order at least one side
/// sees the other, so either the waiter finds the completion and never
/// sleeps, or the waker finds the registration, takes the lock — which
/// the waiter holds from its re-check until the condvar releases it —
/// and notifies. A waker that finds no registration touches neither the
/// lock nor the condvar.
#[derive(Default)]
struct Gate<G> {
    lock: Mutex<G>,
    cv: Condvar,
    /// Parked waiters, plus (for an [`IVar`]) buffered continuations.
    /// 32 bits keep a served request's state inside one small
    /// allocation size class.
    registered: AtomicU32,
}

impl<G> Gate<G> {
    /// Spin, then park, until `ready` holds (`true`) or `deadline` passes
    /// (`false`). `ready` must read the completion `SeqCst`.
    fn wait(&self, meter: &WaitMeter, deadline: Option<Instant>, ready: impl Fn() -> bool) -> bool {
        if ready() {
            return true;
        }
        let start = Instant::now();
        let window = meter.window();
        let spin_until = window
            .until_ns
            .and_then(|ns| start.checked_add(Duration::from_nanos(ns)))
            .into_iter()
            .chain(deadline)
            .min();
        for _ in 0..window.polls {
            std::thread::yield_now();
            if ready() {
                meter.record(start);
                return true;
            }
            if spin_until.is_some_and(|t| Instant::now() >= t) {
                break;
            }
        }
        meter.parks.fetch_add(1, Ordering::Relaxed);
        let mut g = self.lock.lock();
        self.registered.fetch_add(1, Ordering::SeqCst);
        let done = loop {
            if ready() {
                break true;
            }
            match deadline {
                None => self.cv.wait(&mut g),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break false;
                    }
                    self.cv.wait_for(&mut g, d - now);
                }
            }
        };
        self.registered.fetch_sub(1, Ordering::SeqCst);
        drop(g);
        if done {
            meter.record(start);
        }
        done
    }

    /// The waker's half, called after the completion is published
    /// (`SeqCst`): if anyone registered, take the lock, notify every
    /// parked waiter and hand the guard back; otherwise `None`, with no
    /// lock taken.
    fn wake(&self) -> Option<MutexGuard<'_, G>> {
        if self.registered.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let g = self.lock.lock();
        self.cv.notify_all();
        Some(g)
    }
}

/// A write-once cell with dataflow readers — the substrate of LITL-X
/// futures ("eager producer-consumer computing, with efficient localized
/// buffering of requests at the site of the needed values", §3.2).
///
/// Readers that arrive before the value either wait ([`IVar::get`]) or
/// leave a continuation buffered *at the cell* ([`IVar::on_full`]) — the
/// localized request buffering of the paper (an I-structure in dataflow
/// terms). A waiting reader spins on the cell's `done` flag for a
/// measured window and then parks; `put` takes the cell's lock only when
/// a reader is parked or a continuation is buffered.
pub struct IVar<T> {
    value: std::sync::OnceLock<T>,
    /// Set (`SeqCst`) after `value`: the flag readers poll, and the
    /// completion the gate's handshake publishes.
    done: AtomicBool,
    /// Buffered continuations live under the gate's lock.
    gate: Gate<Vec<Waiter<T>>>,
}

/// A reader continuation buffered at the cell until the value arrives.
type Waiter<T> = Box<dyn FnOnce(&T) + Send>;

impl<T> Default for IVar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IVar<T> {
    /// An empty cell.
    pub fn new() -> Self {
        Self {
            value: std::sync::OnceLock::new(),
            done: AtomicBool::new(false),
            gate: Gate::default(),
        }
    }

    /// Fill the cell. Panics on double write (single-assignment semantics).
    /// All buffered continuations run on the filling thread, in arrival
    /// order, with no lock held.
    pub fn put(&self, value: T) {
        if self.value.set(value).is_err() {
            panic!("IVar::put: double write to single-assignment cell");
        }
        self.done.store(true, Ordering::SeqCst);
        if let Some(mut guard) = self.gate.wake() {
            let waiters = std::mem::take(&mut *guard);
            // Run with the lock dropped: a continuation may re-enter
            // this very cell.
            drop(guard);
            let value = self.value.get().expect("published before `done`");
            for w in waiters {
                w(value);
            }
        }
    }

    /// **Mutant for explorer validation** (only with the `check` feature):
    /// an [`IVar::put`] whose waker reads the registration *before*
    /// publishing `done`, and skips the notify when that stale read saw
    /// no parked waiter. A reader that registers and parks in between
    /// sleeps through the put; the explorer must find that schedule.
    #[cfg(feature = "check")]
    pub fn put_mutant_stale_parked_read(&self, value: T) {
        let stale = self.gate.registered.load(Ordering::SeqCst);
        if self.value.set(value).is_err() {
            panic!("IVar::put: double write to single-assignment cell");
        }
        self.done.store(true, Ordering::SeqCst);
        if stale > 0 {
            let _g = self.gate.lock.lock();
            self.gate.cv.notify_all();
        }
    }

    /// True once the cell has been written. Lock-free.
    pub fn is_full(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Read the value if present. Lock-free.
    pub fn try_get(&self) -> Option<T>
    where
        T: Clone,
    {
        self.read(self.done.load(Ordering::Acquire))
    }

    fn read(&self, done: bool) -> Option<T>
    where
        T: Clone,
    {
        done.then(|| self.value.get().expect("published before `done`").clone())
    }

    /// Wait until the value is available: poll the cell's `done` flag,
    /// yielding between polls, for as long as `meter` budgets (under
    /// twice its EWMA of past waits, never past the shared ceiling), then
    /// park on the cell's condvar until `put` notifies. Intended for
    /// LGT-level code; SGT code should prefer [`IVar::on_full`] to avoid
    /// occupying a worker.
    pub fn get(&self, meter: &WaitMeter) -> T
    where
        T: Clone,
    {
        self.gate
            .wait(meter, None, || self.done.load(Ordering::SeqCst));
        self.read(true).expect("woken on a full cell")
    }

    /// [`IVar::get`] with a bound: wait until the value is available or
    /// `timeout` elapses, returning `None` on timeout. The cell is
    /// unaffected either way — a later `get`/`get_timeout` still sees the
    /// value when it arrives.
    pub fn get_timeout(&self, timeout: Duration, meter: &WaitMeter) -> Option<T>
    where
        T: Clone,
    {
        let deadline = Instant::now() + timeout;
        let done = self
            .gate
            .wait(meter, Some(deadline), || self.done.load(Ordering::SeqCst));
        self.read(done)
    }

    /// Run `f` with the value once available: immediately if already full,
    /// otherwise buffered at the cell and run by the producer on `put`.
    /// Either way `f` runs with no internal lock held.
    ///
    /// A buffered continuation registers at the gate like a parked
    /// reader, so the producer's `put` knows to take the lock for it.
    pub fn on_full(&self, f: impl FnOnce(&T) + Send + 'static) {
        if !self.done.load(Ordering::Acquire) {
            let mut waiters = self.gate.lock.lock();
            self.gate.registered.fetch_add(1, Ordering::SeqCst);
            if !self.done.load(Ordering::SeqCst) {
                waiters.push(Box::new(f));
                return;
            }
        }
        f(self.value.get().expect("published before `done`"));
    }

    /// Number of buffered (deferred) readers.
    pub fn deferred_readers(&self) -> usize {
        self.gate.lock.lock().len()
    }
}

impl<T> std::fmt::Debug for IVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IVar")
            .field("full", &self.is_full())
            .finish()
    }
}

/// A reusable counting barrier for LGT-level phases.
///
/// The paper lists "synchronous global barriers" among the productivity
/// problems it wants to *limit*; this type exists mostly as the baseline
/// that the dataflow experiments beat.
pub struct PoolBarrier {
    parties: usize,
    arrived: Mutex<(usize, u64)>, // (count, generation)
    cv: Condvar,
}

impl PoolBarrier {
    /// A barrier for `parties` participants.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        Self {
            parties,
            arrived: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    /// Arrive and wait for all parties. Returns `true` on the serial
    /// (last-arriving) participant.
    pub fn wait(&self) -> bool {
        let mut st = self.arrived.lock();
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.parties {
            st.0 = 0;
            st.1 += 1;
            self.cv.notify_all();
            true
        } else {
            while st.1 == gen {
                self.cv.wait(&mut st);
            }
            false
        }
    }
}

/// A monotone event counter with threshold waits — the join of a
/// naive `forall` and of a spread SSP wave, where each finished share of
/// the work adds to the count and the caller waits for the total.
#[derive(Default)]
pub struct EventCount {
    count: AtomicU64,
    gate: Gate<()>,
}

impl EventCount {
    /// Zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment, and wake the waiters if any is parked.
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::SeqCst);
        self.gate.wake();
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Wait until the counter reaches `target`: spin, then park, as
    /// [`IVar::get`].
    pub fn wait_for(&self, target: u64, meter: &WaitMeter) {
        self.gate
            .wait(meter, None, || self.count.load(Ordering::SeqCst) >= target);
    }
}

impl std::fmt::Debug for EventCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventCount")
            .field("count", &self.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use Duration;

    #[test]
    fn sync_slot_fires_exactly_once() {
        let fired = Arc::new(AtomicUsize::new(0));
        let slot = SyncSlot::with_action(3, {
            let fired = fired.clone();
            move || {
                fired.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(!slot.signal());
        assert!(!slot.signal());
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert!(slot.signal());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Over-signalling must not re-fire.
        assert!(!slot.signal());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn sync_slot_zero_count_fires_on_attach() {
        let fired = Arc::new(AtomicUsize::new(0));
        let slot = SyncSlot::new(0);
        slot.set_action({
            let fired = fired.clone();
            move || {
                fired.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn sync_slot_signal_n_batches() {
        let fired = Arc::new(AtomicUsize::new(0));
        let slot = SyncSlot::with_action(10, {
            let fired = fired.clone();
            move || {
                fired.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(!slot.signal_n(9));
        assert!(slot.signal_n(5));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    /// The documented "fires exactly once" contract: a continuation
    /// attached *after* the slot fired must not run — historically it ran
    /// immediately, so one slot could fire twice.
    #[test]
    fn sync_slot_post_fire_set_action_is_a_recorded_noop() {
        let fired = Arc::new(AtomicUsize::new(0));
        let slot = SyncSlot::with_action(1, {
            let fired = fired.clone();
            move || {
                fired.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(slot.signal());
        assert!(slot.has_fired());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Late attach: dropped, recorded, reported.
        let late = fired.clone();
        assert!(!slot.set_action(move || {
            late.fetch_add(100, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "late action must not run");
        assert_eq!(slot.late_actions(), 1);
        // Further signals still cannot resurrect it.
        assert!(!slot.signal());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    /// Replacing a not-yet-fired action is still allowed (and the
    /// replacement is the one that runs).
    #[test]
    fn sync_slot_replace_before_fire_runs_replacement() {
        let fired = Arc::new(AtomicUsize::new(0));
        let slot = SyncSlot::with_action(1, {
            let fired = fired.clone();
            move || {
                fired.fetch_add(1, Ordering::SeqCst);
            }
        });
        let f2 = fired.clone();
        assert!(slot.set_action(move || {
            f2.fetch_add(10, Ordering::SeqCst);
        }));
        assert!(slot.signal());
        assert_eq!(fired.load(Ordering::SeqCst), 10);
        assert_eq!(slot.late_actions(), 0);
    }

    /// A zero-count slot stays armable until its action has actually run:
    /// signalling an actionless slot must not burn the firing.
    #[test]
    fn sync_slot_unset_fire_does_not_spend_the_slot() {
        let fired = Arc::new(AtomicUsize::new(0));
        let slot = SyncSlot::new(1);
        assert!(slot.signal(), "threshold crossed with no action armed");
        assert!(!slot.has_fired(), "nothing ran yet");
        let f2 = fired.clone();
        assert!(slot.set_action(move || {
            f2.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(slot.has_fired());
    }

    #[test]
    fn sync_slot_concurrent_signals_fire_once() {
        for _ in 0..50 {
            let fired = Arc::new(AtomicUsize::new(0));
            let slot = SyncSlot::with_action(8, {
                let fired = fired.clone();
                move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                }
            });
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let slot = slot.clone();
                    std::thread::spawn(move || {
                        slot.signal();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(fired.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn ivar_buffers_deferred_readers() {
        let iv: IVar<u32> = IVar::new();
        let seen = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let seen = seen.clone();
            iv.on_full(move |v| {
                seen.fetch_add(*v as usize, Ordering::SeqCst);
            });
        }
        assert_eq!(iv.deferred_readers(), 3);
        iv.put(5);
        assert_eq!(seen.load(Ordering::SeqCst), 15);
        assert_eq!(iv.deferred_readers(), 0);
        // Late reader runs immediately.
        let seen2 = seen.clone();
        iv.on_full(move |v| {
            seen2.fetch_add(*v as usize, Ordering::SeqCst);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 20);
    }

    #[test]
    #[should_panic(expected = "double write")]
    fn ivar_rejects_double_put() {
        let iv: IVar<u32> = IVar::new();
        iv.put(1);
        iv.put(2);
    }

    #[test]
    fn ivar_blocking_get_sees_producer() {
        let iv = Arc::new(IVar::<u64>::new());
        let reader = {
            let iv = iv.clone();
            std::thread::spawn(move || iv.get(&WaitMeter::new()))
        };
        std::thread::sleep(Duration::from_millis(10));
        iv.put(42);
        assert_eq!(reader.join().unwrap(), 42);
    }

    /// The budget rule, exactly: a fresh meter spins the whole ceiling
    /// with no time limit; a measured one spins until twice its EWMA,
    /// still never past the ceiling.
    #[test]
    fn spin_window_is_twice_the_ewma_under_the_ceiling() {
        assert_eq!(
            spin_window(0, 256),
            SpinWindow {
                polls: 256,
                until_ns: None
            }
        );
        assert_eq!(
            spin_window(3_500, 256),
            SpinWindow {
                polls: 256,
                until_ns: Some(7_000)
            }
        );
        assert_eq!(
            spin_window(1, 2),
            SpinWindow {
                polls: 2,
                until_ns: Some(2)
            }
        );
        assert_eq!(spin_window(u64::MAX, 256).until_ns, Some(u64::MAX));
    }

    #[test]
    fn ewma_folds_at_one_eighth_and_never_reads_fresh() {
        assert_eq!(ewma_fold(0, 8_000), 8_000, "first sample seeds it");
        assert_eq!(ewma_fold(8_000, 16_000), 9_000);
        assert_eq!(ewma_fold(9_000, 1_000), 8_000);
        assert_eq!(ewma_fold(0, 0), 1, "0 is reserved for a fresh meter");
        assert_eq!(ewma_fold(1, 0), 1);
        let mut e = 0;
        for _ in 0..64 {
            e = ewma_fold(e, 2_000);
        }
        assert_eq!(e, 2_000, "a steady sample is a fixed point");
    }

    #[test]
    fn wait_on_a_full_cell_returns_without_parking() {
        let meter = WaitMeter::new();
        let iv = IVar::new();
        iv.put(3u32);
        assert_eq!(iv.get(&meter), 3);
        assert_eq!(iv.get_timeout(Duration::ZERO, &meter), Some(3));
        let ec = EventCount::new();
        ec.add(2);
        ec.wait_for(2, &meter);
        assert_eq!(meter.parks(), 0);
        assert_eq!(meter.ewma_ns(), 0, "a wait that never waited is no sample");
    }

    /// The `put` is held back until the waiter is seen in its park phase
    /// (the meter's park count, not a timer), so the waiter must park —
    /// exactly once: the notify ends the wait, with no second park.
    #[test]
    fn held_back_put_parks_the_waiter_exactly_once() {
        let meter = Arc::new(WaitMeter::new());
        let iv = Arc::new(IVar::<u64>::new());
        let reader = {
            let (iv, meter) = (iv.clone(), meter.clone());
            std::thread::spawn(move || iv.get(&meter))
        };
        while meter.parks() == 0 {
            std::thread::yield_now();
        }
        iv.put(42);
        assert_eq!(reader.join().unwrap(), 42);
        assert_eq!(meter.parks(), 1);
        assert!(meter.ewma_ns() > 0, "a completed wait is a sample");
        assert_eq!(iv.gate.registered.load(Ordering::SeqCst), 0);

        let meter = Arc::new(WaitMeter::new());
        let ec = Arc::new(EventCount::new());
        let waiter = {
            let (ec, meter) = (ec.clone(), meter.clone());
            std::thread::spawn(move || ec.wait_for(2, &meter))
        };
        while meter.parks() == 0 {
            std::thread::yield_now();
        }
        ec.add(1);
        ec.add(1);
        waiter.join().unwrap();
        assert_eq!(meter.parks(), 1);
        assert_eq!(ec.gate.registered.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn timed_wait_gives_up_and_a_later_wait_sees_the_value() {
        let meter = WaitMeter::new();
        let iv = IVar::<u8>::new();
        assert_eq!(iv.get_timeout(Duration::from_millis(1), &meter), None);
        assert_eq!(meter.parks(), 1);
        assert_eq!(meter.ewma_ns(), 0, "a timed-out wait is no sample");
        iv.put(5);
        assert_eq!(iv.get_timeout(Duration::from_millis(1), &meter), Some(5));
    }

    #[test]
    fn barrier_releases_all_parties() {
        let b = Arc::new(PoolBarrier::new(4));
        let serials = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let b = b.clone();
                let serials = serials.clone();
                std::thread::spawn(move || {
                    if b.wait() {
                        serials.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(serials.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn barrier_is_reusable() {
        let b = Arc::new(PoolBarrier::new(2));
        let h = {
            let b = b.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    b.wait();
                }
            })
        };
        for _ in 0..10 {
            b.wait();
        }
        h.join().unwrap();
    }

    #[test]
    fn event_count_wait_for() {
        let ec = Arc::new(EventCount::new());
        let h = {
            let ec = ec.clone();
            std::thread::spawn(move || {
                ec.wait_for(5, &WaitMeter::new());
                ec.get()
            })
        };
        for _ in 0..5 {
            ec.add(1);
        }
        assert!(h.join().unwrap() >= 5);
    }
}
