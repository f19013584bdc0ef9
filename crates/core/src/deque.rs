//! The scheduling spine: a Chase–Lev work-stealing deque per worker and a
//! locked FIFO injector per domain (plus one global), the queues every
//! spawn and steal of [`crate::native`] goes through.
//!
//! The paper's premise (§3.1.1) is that SGTs only pay off when spawn and
//! steal cost far less than the task grain. A mutex on the owner's
//! push/pop path serializes exactly the operations that must be cheapest,
//! so the per-worker deque is lock-free; the injectors, which take a
//! publish per affinity-directed spawn or batch, are plain locked queues
//! (as BubbleSched's runqueues, and Go's and Tokio's inject queues, are):
//!
//! * [`Worker`]/[`Stealer`] — the **Chase–Lev deque** (Chase & Lev, SPAA
//!   2005; orderings per Lê et al., PPoPP 2013): a growable circular
//!   buffer with a `bottom` index written only by the owner and a `top`
//!   index advanced only by CAS. The owner pushes and pops LIFO at the
//!   bottom with plain loads/stores (no RMW except when racing for the
//!   last element); thieves steal FIFO at the top with one CAS.
//! * [`Injector`] — a **`Mutex<VecDeque>` FIFO** with an atomic length
//!   stored under the lock. An empty probe (every idle spin of
//!   `native::find_work` probes two injectors) reads the length and
//!   never locks; [`Injector::push_batch`] publishes a whole batch under
//!   one lock, and [`Injector::steal_batch_and_pop`] moves a run of jobs
//!   into a thief's deque under one lock. The injector lock is a leaf:
//!   nothing else is locked, and no fault point fires, while it is held.
//!
//! # Memory-ordering invariants (who writes what)
//!
//! Deque: **only the owner writes `bottom`** (push: `Release` store after
//! the slot write; pop: speculative decrement then `SeqCst` fence before
//! reading `top`). **`top` only moves forward, and only by CAS** (steal,
//! or the owner's pop racing for the last element), so an index can never
//! be claimed twice and the monotone `i64` rules out ABA. A thief reads
//! the slot *before* its CAS and discards the value on failure — the read
//! may race an owner push that has wrapped the ring, which is the deque's
//! one intentional race; the failed CAS proves the value was dead.
//!
//! Injector: the length is stored (`Release`) under the lock after every
//! change and read (`Acquire`) without it, so a probe that reads 0 can only
//! miss a push that was still in flight — the same answer a lock-free
//! queue gives for a job whose producer has not yet published it.
//!
//! # Ring retirement: rings live until the deque drops
//!
//! Growing the deque replaces its ring, but a thief may still be reading
//! through the old pointer. Nothing is freed while any handle exists:
//! `grow` links the old ring behind the new one, so the live ring owns
//! every ring it replaced, and the chain is freed only when the last
//! [`Worker`]/[`Stealer`] handle drops the shared deque. A thief holds an
//! `Arc` on the deque, so any ring pointer it loaded outlives its read —
//! no epoch, pin or hazard pointer is needed. Rings double and never
//! shrink, so the retained rings (64 + 128 + … + cap/2 slots) total fewer
//! slots than the live ring: retirement at most doubles the deque's
//! footprint, which it holds for its life.
//!
//! # Approximate lengths
//!
//! [`Worker::len`], [`Stealer::len`], [`Injector::len`] (and the
//! `is_empty` companions) are **racy snapshots**: they read shared
//! counters without synchronizing against in-flight operations, so the
//! answer can be stale by the time it returns. That is the documented
//! contract for every consumer that feeds queue depth into steal decisions
//! (see `native::find_work`): a false "empty" can only skip a victim whose
//! work arrived mid-search, and the pool's epoch-stamped park protocol
//! already forces a re-search before any worker sleeps, so no job is
//! stranded. Anything that needs an exact count must drain the queue.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::Arc;

use crate::chk::{fence, AtomicI64, AtomicPtr, AtomicUsize, Mutex, Ordering};

/// Result of a steal attempt (same three-way contract as crossbeam's).
pub enum Steal<T> {
    /// A job was stolen.
    Success(T),
    /// The queue was observably empty.
    Empty,
    /// A concurrent operation won the race; the caller may retry.
    Retry,
}

impl<T> Steal<T> {
    /// Whether the attempt observed an empty queue.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }

    /// The stolen value, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Chase–Lev deque.
// ---------------------------------------------------------------------------

/// Initial ring capacity (doubles on overflow; must be a power of two).
const MIN_BUFFER_CAP: usize = 64;

/// The deque's ring buffer: a power-of-two count of possibly-uninitialized
/// slots, indexed by the low bits of the logical position.
struct Buf<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// The ring this one replaced (null for the first). Thieves may still
    /// read it, so it is freed only with this ring (module header).
    prev: *mut Buf<T>,
}

impl<T> Buf<T> {
    fn alloc(cap: usize, prev: *mut Buf<T>) -> *mut Buf<T> {
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Box::into_raw(Box::new(Buf { slots, prev }))
    }

    fn cap(&self) -> usize {
        self.slots.len()
    }

    fn slot(&self, index: i64) -> *mut MaybeUninit<T> {
        // Logical indices are non-negative; the ring mask needs the low
        // bits only.
        self.slots[index as usize & (self.cap() - 1)].get()
    }

    /// Move `v` into the slot for `index`.
    ///
    /// # Safety
    /// Only the owner may call it, for a position no thief can claim yet
    /// (at or above `bottom`); a live value there would leak.
    unsafe fn write(&self, index: i64, v: T) {
        ptr::write(self.slot(index), MaybeUninit::new(v));
    }

    /// Copy the value out of the slot for `index`.
    ///
    /// # Safety
    /// The slot must hold a value written by `write`. The caller must own
    /// the logical position (won its CAS / holds the bottom), or must
    /// discard the value with `mem::forget` if the claim fails — the
    /// deque's one intentional race (see the module header).
    unsafe fn read(&self, index: i64) -> T {
        ptr::read(self.slot(index)).assume_init()
    }
}

impl<T> Drop for Buf<T> {
    /// Frees the chain of replaced rings without dropping slot contents
    /// (live values were copied forward; dead copies are plain bytes).
    fn drop(&mut self) {
        if !self.prev.is_null() {
            // SAFETY: `prev` came from `Box::into_raw` in `grow`, and this
            // ring is its only owner.
            drop(unsafe { Box::from_raw(self.prev) });
        }
    }
}

struct DequeInner<T> {
    /// Next position the owner will push to. Written only by the owner.
    bottom: AtomicI64,
    /// Next position a thief will steal from. Advanced only by CAS.
    top: AtomicI64,
    /// Current ring buffer; it owns every ring it replaced. Replaced only
    /// by the owner (grow).
    buffer: AtomicPtr<Buf<T>>,
}

// SAFETY: `bottom`, `top` and `buffer` are atomics, and the rings behind
// `buffer` are written only by the owner and read under the protocol
// above; values of `T` cross threads only on a successful steal, hence
// `T: Send`. The rings are freed only by `Drop`, with exclusive access.
unsafe impl<T: Send> Send for DequeInner<T> {}
unsafe impl<T: Send> Sync for DequeInner<T> {}

impl<T> Drop for DequeInner<T> {
    fn drop(&mut self) {
        // Exclusive access: drop the undrained values, then the ring chain.
        let buf = *self.buffer.get_mut();
        // SAFETY: no handle is left, so nobody else reads the rings, and
        // positions `top..bottom` hold live values of the current ring.
        unsafe {
            for i in *self.top.get_mut()..*self.bottom.get_mut() {
                drop((*buf).read(i));
            }
            drop(Box::from_raw(buf));
        }
    }
}

/// The owner end of a Chase–Lev deque: LIFO push/pop, no locks, no RMW
/// except when racing a thief for the last element.
///
/// `Worker` is `Send` but deliberately not `Sync` or `Clone`: exactly one
/// thread may own it, which is what makes the plain `bottom` stores safe.
pub struct Worker<T> {
    inner: Arc<DequeInner<T>>,
    /// Suppresses auto-`Sync`: `bottom` writes assume a unique owner.
    _not_sync: PhantomData<*mut ()>,
}

// SAFETY: moving the owner end to another thread is fine; concurrent use
// from two threads is prevented by `!Sync` + `!Clone`.
unsafe impl<T: Send> Send for Worker<T> {}

impl<T> Default for Worker<T> {
    fn default() -> Self {
        Self::new_lifo()
    }
}

impl<T> Worker<T> {
    /// New empty deque (LIFO owner end, FIFO thief end — the only flavor
    /// Chase–Lev has; the name keeps the crossbeam call sites).
    pub fn new_lifo() -> Self {
        Self {
            inner: Arc::new(DequeInner {
                bottom: AtomicI64::new(0),
                top: AtomicI64::new(0),
                buffer: AtomicPtr::new(Buf::alloc(MIN_BUFFER_CAP, ptr::null_mut())),
            }),
            _not_sync: PhantomData,
        }
    }

    /// A thief handle sharing this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: self.inner.clone(),
        }
    }

    /// Push onto the owner end (bottom). Two plain atomic loads, the slot
    /// write, and one `Release` store — the publication point.
    #[inline]
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        // Owner-only: nobody else replaces the buffer.
        let mut buf = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: rings live as long as the deque; the owner alone writes
        // position `b`, which no thief claims before the `bottom` store.
        unsafe {
            if b - t >= (*buf).cap() as i64 {
                buf = self.grow(b, t, buf);
            }
            (*buf).write(b, value);
        }
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Pop from the owner end (LIFO). The `SeqCst` fence orders the
    /// speculative `bottom` decrement before the `top` read, so the owner
    /// and a racing thief cannot both claim the last element without one
    /// of them seeing the other (Lê et al.'s protocol).
    #[inline]
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        if t < b {
            // More than one element: the bottom one is ours outright.
            // SAFETY: position `b` is below every thief's claim.
            return Some(unsafe { (*buf).read(b) });
        }
        // Exactly one element: race thieves for it via the top CAS.
        let won = inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        inner.bottom.store(b + 1, Ordering::Relaxed);
        if won {
            // SAFETY: the CAS won position `b`.
            Some(unsafe { (*buf).read(b) })
        } else {
            None
        }
    }

    /// Double the buffer, copying the live range. The new ring takes
    /// ownership of the old one, which thieves may still be reading.
    ///
    /// # Safety
    /// Owner-only, with `old` the current ring and `t..b` its live range.
    unsafe fn grow(&self, b: i64, t: i64, old: *mut Buf<T>) -> *mut Buf<T> {
        let new = Buf::alloc((*old).cap() * 2, old);
        for i in t..b {
            ptr::copy_nonoverlapping((*old).slot(i), (*new).slot(i), 1);
        }
        self.inner.buffer.store(new, Ordering::Release);
        new
    }

    /// Approximate number of queued jobs (racy snapshot — see the module
    /// header's relaxed contract).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Approximate emptiness (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> DequeInner<T> {
    fn len(&self) -> usize {
        let t = self.top.load(Ordering::Acquire);
        let b = self.bottom.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }
}

/// The fence the Chase–Lev steal needs between its `top` and `bottom`
/// loads (load-bearing in Lê et al.'s proof: it is what forces the
/// owner's post-fence `top` read to observe any thief CAS that could
/// conflict with a plain bottom take). On x86-64 the TSO model never
/// reorders loads and Lê et al.'s verified x86 mapping of `steal` carries
/// no hardware fence here, so a compiler fence (which still pins program
/// order) suffices; weak architectures get the full `SeqCst` fence the
/// portable proof requires.
#[inline(always)]
fn steal_order_fence() {
    #[cfg(target_arch = "x86_64")]
    crate::chk::compiler_fence(Ordering::SeqCst);
    #[cfg(not(target_arch = "x86_64"))]
    fence(Ordering::SeqCst);
}

/// The thief end of a Chase–Lev deque; steals FIFO from the top. Cloneable
/// and shareable across threads. Its `Arc` keeps every ring the deque ever
/// used alive, including after the [`Worker`] drops.
pub struct Stealer<T> {
    inner: Arc<DequeInner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Stealer<T> {
    /// Steal the oldest job. One CAS on success; [`Steal::Retry`] when a
    /// concurrent steal or the owner's last-element pop won the race.
    #[inline]
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        steal_order_fence();
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = inner.buffer.load(Ordering::Acquire);
        // Read the value *before* the claim; the CAS outcome decides
        // whether the bytes were live (see module header). SAFETY: `self`
        // keeps the deque, and with it every ring, alive.
        let value = unsafe { (*buf).read(t) };
        if inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(value)
        } else {
            std::mem::forget(value);
            Steal::Retry
        }
    }

    /// Approximate number of queued jobs (racy snapshot — see the module
    /// header's relaxed contract).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Approximate emptiness (racy snapshot). Cheaper than a failed
    /// [`Stealer::steal`]: no fence.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// **Mutant for explorer validation** (only with the `check` feature):
    /// a deliberately broken steal that claims with a plain `top` store
    /// instead of the CAS. Two thieves that read the same `top` both "win",
    /// duplicating one element and skipping another — the classic
    /// double-take. The schedule explorer must find a schedule exposing it;
    /// the failing seed is committed as proof the explorer covers the
    /// deque's claim race. Only sound for `T: Copy` (the duplicate read
    /// would otherwise double-drop).
    #[cfg(feature = "check")]
    pub fn steal_mutant_no_cas(&self) -> Steal<T>
    where
        T: Copy,
    {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        steal_order_fence();
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = inner.buffer.load(Ordering::Acquire);
        // SAFETY: as in `steal`.
        let value = unsafe { (*buf).read(t) };
        // BUG (deliberate): unconditional store instead of CAS — a racing
        // thief (or the owner's last-element pop) is silently overwritten.
        inner.top.store(t + 1, Ordering::SeqCst);
        Steal::Success(value)
    }
}

// ---------------------------------------------------------------------------
// Locked FIFO injector.
// ---------------------------------------------------------------------------

/// Most jobs one [`Injector::steal_batch_and_pop`] moves into the thief's
/// deque besides the one it returns.
const MAX_BATCH_CARRY: usize = 31;

/// A FIFO injector: many producers, many consumers, exact FIFO order (a
/// job is stolen only after every job pushed before it).
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
    /// `queue.len()`, stored under the lock after every change, so an
    /// empty probe needs no lock.
    len: AtomicUsize,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    /// New empty injector.
    pub fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueue one job.
    pub fn push(&self, value: T) {
        let mut q = self.queue.lock();
        q.push_back(value);
        self.len.store(q.len(), Ordering::Release);
    }

    /// Enqueue a whole batch under one lock. Values become visible
    /// together, in order.
    pub fn push_batch(&self, values: Vec<T>) {
        if values.is_empty() {
            return;
        }
        let mut q = self.queue.lock();
        q.extend(values);
        self.len.store(q.len(), Ordering::Release);
    }

    /// Dequeue the oldest job.
    pub fn steal(&self) -> Steal<T> {
        if self.len.load(Ordering::Acquire) == 0 {
            return Steal::Empty;
        }
        let mut q = self.queue.lock();
        let Some(value) = q.pop_front() else {
            return Steal::Empty;
        };
        self.len.store(q.len(), Ordering::Release);
        Steal::Success(value)
    }

    /// Pop the oldest job and move half of the rest after it, at most 31
    /// (`MAX_BATCH_CARRY`), into `dest` (the thief's own deque) as one
    /// contiguous FIFO run — crossbeam's batching rule, under one lock.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        if self.len.load(Ordering::Acquire) == 0 {
            return Steal::Empty;
        }
        let mut q = self.queue.lock();
        let Some(first) = q.pop_front() else {
            return Steal::Empty;
        };
        let carry = (q.len() / 2).min(MAX_BATCH_CARRY);
        for v in q.drain(..carry) {
            dest.push(v);
        }
        self.len.store(q.len(), Ordering::Release);
        Steal::Success(first)
    }

    /// Approximate number of queued jobs (racy snapshot — see the module
    /// header's relaxed contract).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Approximate emptiness (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    /// The injector's former segment size: the injector tests keep the
    /// inputs that crossed its segment boundaries.
    const SEGMENT_CAP: usize = 32;

    #[test]
    fn lifo_owner_fifo_thief() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3), "owner pops newest");
        assert!(
            matches!(s.steal(), Steal::Success(1)),
            "thief steals oldest"
        );
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
    }

    #[test]
    fn deque_grows_past_initial_capacity() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        let n = (MIN_BUFFER_CAP * 4 + 7) as u64;
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len() as u64, n);
        // Steal a few from the top (oldest first)...
        for i in 0..10 {
            assert_eq!(s.steal().success(), Some(i));
        }
        // ...then pop the rest LIFO.
        for i in (10..n).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn last_element_race_is_single_winner() {
        // Sequentially, the owner wins the b == t race by CAS.
        let w = Worker::new_lifo();
        w.push(7u64);
        assert_eq!(w.pop(), Some(7));
        assert_eq!(w.pop(), None);
        let s = w.stealer();
        assert!(s.steal().is_empty());
    }

    #[test]
    fn concurrent_steals_preserve_every_job_once() {
        let w = Worker::new_lifo();
        let n = 10_000u64;
        let sum = Arc::new(TestCounter::new(0));
        let count = Arc::new(TestCounter::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let s = w.stealer();
                let sum = sum.clone();
                let count = count.clone();
                std::thread::spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if count.load(Ordering::Relaxed) == n {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for i in 1..=n {
            w.push(i);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
    }

    #[test]
    fn owner_pop_races_thieves_without_loss() {
        let w = Worker::new_lifo();
        let n = 20_000u64;
        let stolen = Arc::new(TestCounter::new(0));
        let stop = Arc::new(TestCounter::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = w.stealer();
                let stolen = stolen.clone();
                let stop = stop.clone();
                std::thread::spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            stolen.fetch_add(v, Ordering::Relaxed);
                        }
                        _ => {
                            if stop.load(Ordering::Relaxed) == 1 {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut popped = 0u64;
        for i in 1..=n {
            w.push(i);
            if i % 3 == 0 {
                if let Some(v) = w.pop() {
                    popped += v;
                }
            }
        }
        while let Some(v) = w.pop() {
            popped += v;
        }
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            popped + stolen.load(Ordering::Relaxed),
            n * (n + 1) / 2,
            "every pushed value claimed exactly once"
        );
    }

    #[test]
    fn injector_is_fifo() {
        let inj = Injector::new();
        let n = (SEGMENT_CAP * 3 + 5) as u64;
        for i in 0..n {
            inj.push(i);
        }
        assert_eq!(inj.len() as u64, n);
        for i in 0..n {
            assert_eq!(inj.steal().success(), Some(i), "strict FIFO");
        }
        assert!(inj.steal().is_empty());
        assert!(inj.is_empty());
    }

    #[test]
    fn injector_batch_push_is_fifo_across_segments() {
        let inj = Injector::new();
        inj.push(0u64);
        // A batch spanning two segment boundaries.
        inj.push_batch((1..=(SEGMENT_CAP as u64 * 2 + 3)).collect());
        let mut got = Vec::new();
        while let Some(v) = inj.steal().success() {
            got.push(v);
        }
        let want: Vec<u64> = (0..=(SEGMENT_CAP as u64 * 2 + 3)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn injector_batch_steal_moves_run_into_worker() {
        let inj = Injector::new();
        for i in 0..10u64 {
            inj.push(i);
        }
        let w = Worker::new_lifo();
        let got = inj.steal_batch_and_pop(&w);
        assert_eq!(got.success(), Some(0));
        assert!(!w.is_empty(), "batch landed in the worker deque");
        // The moved run is the next-oldest values, in FIFO positions.
        let mut drained = Vec::new();
        while let Some(v) = w.pop() {
            drained.push(v);
        }
        drained.sort_unstable();
        assert_eq!(drained, (1..=drained.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producers_and_consumers_drain_exactly() {
        let inj = Arc::new(Injector::new());
        let per = 5_000u64;
        let producers = 2;
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let inj = inj.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 1_000 {
                        match inj.steal() {
                            Steal::Success(v) => {
                                got.push(v);
                                dry = 0;
                            }
                            _ => {
                                dry += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let prod_handles: Vec<_> = (0..producers)
            .map(|p| {
                let inj = inj.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        inj.push(p * per + i);
                    }
                })
            })
            .collect();
        for h in prod_handles {
            h.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        // Whatever the consumers missed before drying out is still queued.
        while let Some(v) = inj.steal().success() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..producers * per).collect::<Vec<_>>());
    }

    /// A drop-counting payload: catches double-drops and leaks in the
    /// undrained-value paths.
    struct Droppy(Arc<TestCounter>);
    impl Drop for Droppy {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn undrained_values_drop_exactly_once() {
        let drops = Arc::new(TestCounter::new(0));
        {
            let w = Worker::new_lifo();
            for _ in 0..(MIN_BUFFER_CAP * 2 + 9) {
                w.push(Droppy(drops.clone())); // forces one grow + leftovers
            }
            drop(w.pop()); // one drained
        }
        assert_eq!(
            drops.load(Ordering::Relaxed) as usize,
            MIN_BUFFER_CAP * 2 + 9
        );
        let drops2 = Arc::new(TestCounter::new(0));
        {
            let inj = Injector::new();
            for _ in 0..(SEGMENT_CAP + 3) {
                inj.push(Droppy(drops2.clone()));
            }
            for _ in 0..5 {
                drop(inj.steal().success());
            }
        }
        assert_eq!(drops2.load(Ordering::Relaxed) as usize, SEGMENT_CAP + 3);
    }

    /// A `Stealer` outlives its `Worker` across four ring doublings: every
    /// replaced ring stays readable until the last handle drops, and each
    /// value drops exactly once then.
    #[test]
    fn stealer_outlives_worker_across_ring_doublings() {
        let drops = Arc::new(TestCounter::new(0));
        let n = MIN_BUFFER_CAP * 8 + 5;
        let s = {
            let w = Worker::new_lifo();
            for _ in 0..n {
                w.push(Droppy(drops.clone()));
            }
            w.stealer()
        };
        for _ in 0..10 {
            drop(s.steal().success().expect("the worker's values outlive it"));
        }
        assert_eq!(s.len(), n - 10);
        assert_eq!(drops.load(Ordering::Relaxed), 10);
        drop(s);
        assert_eq!(drops.load(Ordering::Relaxed) as usize, n);
    }

    #[test]
    fn approximate_lengths_track_sequential_truth() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        assert!(w.is_empty() && s.is_empty());
        for i in 0..5 {
            w.push(i);
        }
        // With no concurrency the snapshot is exact.
        assert_eq!(w.len(), 5);
        assert_eq!(s.len(), 5);
        w.pop();
        s.steal();
        assert_eq!(w.len(), 3);
    }
}
