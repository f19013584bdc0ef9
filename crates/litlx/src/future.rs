//! Futures "for eager producer-consumer computing, with efficient localized
//! buffering of requests at the site of the needed values" (§3.2, citing
//! Halstead's Multilisp).
//!
//! A [`LitlFuture`] couples an SGT producing a value with an
//! [`htvm_core::IVar`]: consumers either block at the LGT level
//! ([`LitlFuture::force`]) or — the latency-tolerant path — attach a
//! continuation that the producer runs on fill ([`LitlFuture::and_then`]),
//! so no worker ever idles on an unresolved value. The queue of deferred
//! continuations lives *at the cell* — the paper's localized buffering.

use std::sync::Arc;

use htvm_core::sync::WaitMeter;
use htvm_core::{IVar, LgtCtx, SgtCtx};

/// A handle to an eagerly-computed value.
pub struct LitlFuture<T> {
    cell: Arc<IVar<T>>,
}

impl<T> Clone for LitlFuture<T> {
    fn clone(&self) -> Self {
        Self {
            cell: self.cell.clone(),
        }
    }
}

impl<T: Send + Sync + 'static> LitlFuture<T> {
    /// An unresolved future backed by a fresh cell (resolve with
    /// [`LitlFuture::resolve`]).
    pub fn unresolved() -> Self {
        Self {
            cell: Arc::new(IVar::new()),
        }
    }

    /// An already-resolved future.
    pub fn ready(value: T) -> Self {
        let f = Self::unresolved();
        f.cell.put(value);
        f
    }

    /// Resolve explicitly (for producers that are not SGT closures).
    pub fn resolve(&self, value: T) {
        self.cell.put(value);
    }

    /// True once the producer has delivered.
    pub fn is_resolved(&self) -> bool {
        self.cell.is_full()
    }

    /// Number of consumers currently buffered at the value site.
    pub fn buffered_consumers(&self) -> usize {
        self.cell.deferred_readers()
    }

    /// Block until resolved and clone the value out. LGT-level only: this
    /// parks the calling OS thread.
    pub fn force(&self) -> T
    where
        T: Clone,
    {
        static FORCE: WaitMeter = WaitMeter::new();
        self.cell.get(&FORCE)
    }

    /// Non-blocking read.
    pub fn poll(&self) -> Option<T>
    where
        T: Clone,
    {
        self.cell.try_get()
    }

    /// Attach a dataflow consumer: runs immediately if resolved, otherwise
    /// buffered at the cell and run by the producer. This is the
    /// SGT-friendly consumption path.
    pub fn and_then(&self, f: impl FnOnce(&T) + Send + 'static) {
        self.cell.on_full(f);
    }
}

impl<T> std::fmt::Debug for LitlFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LitlFuture")
            .field("resolved", &self.cell.is_full())
            .finish()
    }
}

/// Spawn `producer` as an SGT of `lgt` and hand back the future it fills.
pub fn future_on<T, F>(lgt: &LgtCtx<'_>, producer: F) -> LitlFuture<T>
where
    T: Send + Sync + 'static,
    F: FnOnce(&SgtCtx) -> T + Send + 'static,
{
    let fut = LitlFuture::unresolved();
    let cell = fut.cell.clone();
    lgt.spawn_sgt(move |sgt| {
        cell.put(producer(sgt));
    });
    fut
}

/// Spawn `producer` as a child SGT from inside another SGT.
pub fn future_from_sgt<T, F>(sgt: &SgtCtx<'_>, producer: F) -> LitlFuture<T>
where
    T: Send + Sync + 'static,
    F: FnOnce(&SgtCtx) -> T + Send + 'static,
{
    let fut = LitlFuture::unresolved();
    let cell = fut.cell.clone();
    sgt.spawn_sgt(move |s| {
        cell.put(producer(s));
    });
    fut
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_core::{Htvm, HtvmConfig, Topology};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn rt() -> Htvm {
        Htvm::new(HtvmConfig::with_topology(Topology::flat(4)))
    }

    #[test]
    fn force_returns_produced_value() {
        let htvm = rt();
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        let h = htvm.lgt(move |lgt| {
            let f = future_on(lgt, |_| 6u64 * 7);
            o.store(f.force(), Ordering::SeqCst);
        });
        h.join();
        assert_eq!(out.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn and_then_runs_for_every_consumer() {
        let htvm = rt();
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let h = htvm.lgt(move |lgt| {
            let f = future_on(lgt, |_| 10u64);
            for _ in 0..5 {
                let s = s.clone();
                f.and_then(move |v| {
                    s.fetch_add(*v, Ordering::SeqCst);
                });
            }
        });
        h.join();
        assert_eq!(sum.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn ready_future_is_immediate() {
        let f = LitlFuture::ready(9i32);
        assert!(f.is_resolved());
        assert_eq!(f.poll(), Some(9));
        assert_eq!(f.force(), 9);
        assert_eq!(f.buffered_consumers(), 0);
    }

    #[test]
    fn unresolved_buffers_consumers_at_value_site() {
        let f: LitlFuture<u32> = LitlFuture::unresolved();
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            let hits = hits.clone();
            f.and_then(move |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(f.buffered_consumers(), 3);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        f.resolve(1);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn futures_chain_without_blocking_workers() {
        let htvm = rt();
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        let h = htvm.lgt(move |lgt| {
            let a = future_on(lgt, |_| 2u64);
            let b: LitlFuture<u64> = LitlFuture::unresolved();
            let b2 = b.clone();
            a.and_then(move |v| b2.resolve(v * 3));
            let o = o.clone();
            b.and_then(move |v| o.store(*v, Ordering::SeqCst));
        });
        h.join();
        assert_eq!(out.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn future_from_sgt_nests() {
        let htvm = rt();
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        let h = htvm.lgt(move |lgt| {
            let o = o.clone();
            lgt.spawn_sgt(move |sgt| {
                let f = future_from_sgt(sgt, |_| 5u64);
                let o = o.clone();
                f.and_then(move |v| o.store(*v + 1, Ordering::SeqCst));
            });
        });
        h.join();
        assert_eq!(out.load(Ordering::SeqCst), 6);
    }
}
