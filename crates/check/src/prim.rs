//! Instrumented drop-ins for the primitives the core runtime is built on.
//!
//! Each type wraps the *real* `std::sync` primitive and calls a scheduler
//! yield point immediately before the operation. On a thread that is not
//! under a scheduler (or after an iteration has flipped into free-run
//! teardown) every wrapper degrades to a plain passthrough: same atomic op,
//! same ordering, one thread-local read of overhead. That matters because
//! enabling `htvm-core`'s `check` feature swaps these types in for *every*
//! user of the crate in the build — tests that never touch the explorer
//! must keep their exact pre-instrumentation semantics.
//!
//! Under a scheduler, the baton (one runnable thread at a time, every
//! handoff through a mutex) makes each operation effectively sequentially
//! consistent regardless of its declared `Ordering` — which is exactly the
//! model the explorer explores. See ARCHITECTURE.md §verification.
//!
//! `Mutex`/`Condvar` mirror the vendored `parking_lot` shim's surface
//! (poison-free `lock()`, `Condvar::wait(&mut guard)`), so the core can
//! swap between the two with a one-line `use`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

use crate::sched;

pub use std::sync::atomic::Ordering;

macro_rules! int_atomic {
    ($(#[$meta:meta])* $name:ident, $std:ident, $t:ty) => {
        $(#[$meta])*
        pub struct $name(std::sync::atomic::$std);

        impl $name {
            /// A new atomic holding `v`.
            pub const fn new(v: $t) -> Self {
                Self(std::sync::atomic::$std::new(v))
            }

            /// Instrumented `load`.
            pub fn load(&self, order: Ordering) -> $t {
                sched::yield_point(concat!(stringify!($name), "::load"));
                self.0.load(order)
            }

            /// Instrumented `store`.
            pub fn store(&self, v: $t, order: Ordering) {
                sched::yield_point(concat!(stringify!($name), "::store"));
                self.0.store(v, order)
            }

            /// Instrumented `swap`.
            pub fn swap(&self, v: $t, order: Ordering) -> $t {
                sched::yield_point(concat!(stringify!($name), "::swap"));
                self.0.swap(v, order)
            }

            /// Instrumented `fetch_add`.
            pub fn fetch_add(&self, v: $t, order: Ordering) -> $t {
                sched::yield_point(concat!(stringify!($name), "::fetch_add"));
                self.0.fetch_add(v, order)
            }

            /// Instrumented `fetch_sub`.
            pub fn fetch_sub(&self, v: $t, order: Ordering) -> $t {
                sched::yield_point(concat!(stringify!($name), "::fetch_sub"));
                self.0.fetch_sub(v, order)
            }

            /// Instrumented `compare_exchange`.
            pub fn compare_exchange(
                &self,
                current: $t,
                new: $t,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$t, $t> {
                sched::yield_point(concat!(stringify!($name), "::compare_exchange"));
                self.0.compare_exchange(current, new, success, failure)
            }

            /// Instrumented `compare_exchange_weak` (never fails spuriously
            /// under the baton — the real op on a quiescent cell).
            pub fn compare_exchange_weak(
                &self,
                current: $t,
                new: $t,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$t, $t> {
                sched::yield_point(concat!(stringify!($name), "::compare_exchange_weak"));
                self.0.compare_exchange_weak(current, new, success, failure)
            }

            /// Exclusive access needs no yield point: `&mut self` proves no
            /// other thread can touch the cell.
            pub fn get_mut(&mut self) -> &mut $t {
                self.0.get_mut()
            }

            /// Unwrap the value.
            pub fn into_inner(self) -> $t {
                self.0.into_inner()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(<$t>::default())
            }
        }
    };
}

int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicU64`].
    AtomicU64, AtomicU64, u64
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicUsize`].
    AtomicUsize, AtomicUsize, usize
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicIsize`].
    AtomicIsize, AtomicIsize, isize
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicI64`].
    AtomicI64, AtomicI64, i64
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicU32`].
    AtomicU32, AtomicU32, u32
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicU8`].
    AtomicU8, AtomicU8, u8
);

/// Instrumented [`std::sync::atomic::AtomicBool`].
pub struct AtomicBool(std::sync::atomic::AtomicBool);

impl AtomicBool {
    /// A new atomic holding `v`.
    pub const fn new(v: bool) -> Self {
        Self(std::sync::atomic::AtomicBool::new(v))
    }

    /// Instrumented `load`.
    pub fn load(&self, order: Ordering) -> bool {
        sched::yield_point("AtomicBool::load");
        self.0.load(order)
    }

    /// Instrumented `store`.
    pub fn store(&self, v: bool, order: Ordering) {
        sched::yield_point("AtomicBool::store");
        self.0.store(v, order)
    }

    /// Instrumented `swap`.
    pub fn swap(&self, v: bool, order: Ordering) -> bool {
        sched::yield_point("AtomicBool::swap");
        self.0.swap(v, order)
    }

    /// Instrumented `compare_exchange`.
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        sched::yield_point("AtomicBool::compare_exchange");
        self.0.compare_exchange(current, new, success, failure)
    }

    /// Exclusive access; no yield point needed.
    pub fn get_mut(&mut self) -> &mut bool {
        self.0.get_mut()
    }

    /// Unwrap the value.
    pub fn into_inner(self) -> bool {
        self.0.into_inner()
    }
}

impl fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

/// Instrumented [`std::sync::atomic::AtomicPtr`].
pub struct AtomicPtr<T>(std::sync::atomic::AtomicPtr<T>);

impl<T> AtomicPtr<T> {
    /// A new atomic holding `p`.
    pub const fn new(p: *mut T) -> Self {
        Self(std::sync::atomic::AtomicPtr::new(p))
    }

    /// Instrumented `load`.
    pub fn load(&self, order: Ordering) -> *mut T {
        sched::yield_point("AtomicPtr::load");
        self.0.load(order)
    }

    /// Instrumented `store`.
    pub fn store(&self, p: *mut T, order: Ordering) {
        sched::yield_point("AtomicPtr::store");
        self.0.store(p, order)
    }

    /// Instrumented `swap`.
    pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        sched::yield_point("AtomicPtr::swap");
        self.0.swap(p, order)
    }

    /// Instrumented `compare_exchange`.
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        sched::yield_point("AtomicPtr::compare_exchange");
        self.0.compare_exchange(current, new, success, failure)
    }

    /// Exclusive access; no yield point needed.
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.0.get_mut()
    }

    /// Unwrap the pointer.
    pub fn into_inner(self) -> *mut T {
        self.0.into_inner()
    }
}

impl<T> fmt::Debug for AtomicPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Instrumented [`std::sync::atomic::fence`]: a schedule point, then the
/// real fence.
pub fn fence(order: Ordering) {
    sched::yield_point("fence");
    std::sync::atomic::fence(order);
}

/// Instrumented [`std::sync::atomic::compiler_fence`]. Under the explorer
/// this is a schedule point like any other — on x86-64 the deque's
/// steal-side ordering rides on exactly this fence, so the explorer must
/// be allowed to preempt here.
pub fn compiler_fence(order: Ordering) {
    sched::yield_point("compiler_fence");
    std::sync::atomic::compiler_fence(order);
}

fn strip_lock<'a, T: ?Sized>(
    r: Result<std::sync::MutexGuard<'a, T>, std::sync::PoisonError<std::sync::MutexGuard<'a, T>>>,
) -> std::sync::MutexGuard<'a, T> {
    r.unwrap_or_else(|p| p.into_inner())
}

/// Instrumented mutex with the vendored `parking_lot` shim's poison-free
/// surface. Under a scheduler, acquisition is a try-lock loop with
/// deschedule-on-contention so the explorer controls who wins.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; releasing it re-readies descheduled contenders.
pub struct MutexGuard<'a, T: ?Sized> {
    m: &'a Mutex<T>,
    g: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Unwrap the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire, descheduling (under the explorer) on contention.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if sched::in_scheduled() {
            let addr = self as *const Self as *const () as usize;
            loop {
                sched::yield_point("Mutex::lock");
                if !sched::in_scheduled() {
                    break; // failure teardown began mid-acquisition
                }
                match self.inner.try_lock() {
                    Ok(g) => {
                        return MutexGuard {
                            m: self,
                            g: Some(g),
                        }
                    }
                    Err(std::sync::TryLockError::WouldBlock) => sched::block_on_mutex(addr),
                    Err(std::sync::TryLockError::Poisoned(p)) => {
                        return MutexGuard {
                            m: self,
                            g: Some(p.into_inner()),
                        }
                    }
                }
            }
        }
        MutexGuard {
            m: self,
            g: Some(strip_lock(self.inner.lock())),
        }
    }

    /// Non-blocking acquire (a single schedule point, never deschedules).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        sched::yield_point("Mutex::try_lock");
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                m: self,
                g: Some(g),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                m: self,
                g: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Exclusive access; no yield point needed.
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.g.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.g.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = self.g.take() {
            drop(g); // release the real lock first…
                     // …then re-ready anyone the scheduler descheduled on it.
            sched::mutex_released(self.m as *const Mutex<T> as *const () as usize);
        }
    }
}

/// Result of [`Condvar::wait_for`], mirroring the parking_lot shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notify.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Instrumented condvar. Under a scheduler, waiting deschedules the
/// caller as a waiter on this condvar's address and notifying re-readies
/// one (PRNG-chosen) or all waiters — no spurious wakeups, so a schedule
/// is a pure function of the seed.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar { .. }")
    }
}

impl Condvar {
    /// A new condvar.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Wait until notified (or, in free-run teardown, for a bounded
    /// interval so a notifier that already exited cannot hang teardown;
    /// the resulting spurious wakeup is within the condvar contract).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match sched::mode() {
            sched::Mode::Scheduled => {
                let cv_addr = self as *const Self as *const () as usize;
                let m = guard.m;
                let m_addr = m as *const Mutex<T> as *const () as usize;
                // Drop the real lock, then (baton-atomically) re-ready its
                // contenders and deschedule as a waiter on this condvar.
                guard.g = None;
                sched::cv_block(cv_addr, m_addr);
                // Re-acquire through the full instrumented path; the old
                // empty guard is dropped harmlessly by the assignment.
                *guard = m.lock();
            }
            sched::Mode::FreeRun => {
                let g = guard.g.take().expect("guard present");
                let g = match self.inner.wait_timeout(g, Duration::from_millis(50)) {
                    Ok((g, _)) => g,
                    Err(p) => p.into_inner().0,
                };
                guard.g = Some(g);
            }
            sched::Mode::Unscheduled => {
                let g = guard.g.take().expect("guard present");
                let g = self.inner.wait(g).unwrap_or_else(|p| p.into_inner());
                guard.g = Some(g);
            }
        }
    }

    /// Timed wait. Under the explorer there is no virtual clock, so this
    /// degrades to a single schedule point that reports a timeout — i.e.
    /// timed waits become polling, which every caller's predicate loop
    /// already tolerates.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        if sched::in_scheduled() {
            let m = guard.m;
            let m_addr = m as *const Mutex<T> as *const () as usize;
            guard.g = None;
            // Release across the schedule point like a real timed wait
            // would, then immediately "time out" and re-acquire.
            sched::mutex_released(m_addr);
            sched::yield_point("Condvar::wait_for");
            *guard = m.lock();
            return WaitTimeoutResult(true);
        }
        let g = guard.g.take().expect("guard present");
        let (g, res) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, res)) => (g, res),
            Err(p) => p.into_inner(),
        };
        guard.g = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    /// Notify one waiter (PRNG-chosen under the explorer).
    pub fn notify_one(&self) {
        if sched::in_scheduled() {
            sched::cv_notify(self as *const Self as *const () as usize, false);
        }
        // Always real-notify too: no-op for virtual waiters, needed for
        // free-run teardown and passthrough mode.
        self.inner.notify_one();
    }

    /// Notify all waiters.
    pub fn notify_all(&self) {
        if sched::in_scheduled() {
            sched::cv_notify(self as *const Self as *const () as usize, true);
        }
        self.inner.notify_all();
    }
}
