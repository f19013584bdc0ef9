//! LGT private memory for the native runtime.
//!
//! The HTVM memory model gives each LGT "its own private memory space" that
//! the SGTs it invokes can all see (§3.1.1). On the native runtime this is a
//! [`SharedRegion`]: a word-granularity memory area that many SGTs may read
//! and write concurrently without locks (every word is an atomic). It plays
//! the role that the simulated runtime gives to scratchpad/on-chip regions
//! addressed through `htvm_sim::GAddr`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A lock-free, word-addressed memory region shared by the SGTs of one LGT.
#[derive(Debug, Clone)]
pub struct SharedRegion {
    words: Arc<[AtomicU64]>,
}

impl SharedRegion {
    /// A zeroed region of `n` 64-bit words, in one allocation: the
    /// counts and the words share it, so a slab access is one pointer
    /// hop from the handle.
    pub fn new(n: usize) -> Self {
        Self {
            words: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Build from `f64` data.
    pub fn from_f64(data: &[f64]) -> Self {
        let r = Self::new(data.len());
        for (i, &x) in data.iter().enumerate() {
            r.write_f64(i, x);
        }
        r
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the region is zero-length.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Read word `i`.
    pub fn read(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::Relaxed)
    }

    /// Write word `i`.
    pub fn write(&self, i: usize, v: u64) {
        self.words[i].store(v, Ordering::Relaxed);
    }

    /// Read word `i` as `f64`.
    pub fn read_f64(&self, i: usize) -> f64 {
        f64::from_bits(self.read(i))
    }

    /// Write word `i` as `f64`.
    pub fn write_f64(&self, i: usize, v: f64) {
        self.write(i, v.to_bits());
    }

    /// Atomic add on word `i` (u64), returning the previous value.
    pub fn fetch_add(&self, i: usize, v: u64) -> u64 {
        self.words[i].fetch_add(v, Ordering::AcqRel)
    }

    /// Atomic add on word `i` interpreted as `f64` (CAS loop).
    pub fn fetch_add_f64(&self, i: usize, v: f64) {
        let w = &self.words[i];
        let mut cur = w.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match w.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The words as `f64`s, first to last: one relaxed load per word over
    /// the slab, with no per-element `Arc` deref or bounds check.
    pub fn iter_f64(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.words
            .iter()
            .map(|w| f64::from_bits(w.load(Ordering::Relaxed)))
    }

    /// Copy out as `f64`s.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.iter_f64().collect()
    }

    /// Whether two handles alias the same underlying memory. Dependence
    /// analysis (LITL-X loop lowering) needs identity, not equality: two
    /// differently-named bindings of one region must be treated as the
    /// same array.
    pub fn same_region(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.words, &other.words)
    }

    /// The region's word slab, for run-at-a-time kernel execution.
    ///
    /// Compiled kernels iterate contiguous runs over this slice instead of
    /// calling [`SharedRegion::read_f64`] once per element: taking the
    /// slice once per run amortizes the `Arc` indirection, and iterating a
    /// subslice (or indexing it with a hoisted bounds proof) keeps the
    /// inner loop free of per-element checks. All element access is still
    /// relaxed-atomic — a `SharedRegion` may always be written concurrently
    /// (e.g. by a racing `spawn` block), so handing out plain `&[f64]`
    /// would be unsound no matter what the kernel proves about itself.
    pub fn atomics(&self) -> &[AtomicU64] {
        &self.words
    }

    /// Read word `i` as `f64` without a bounds check.
    ///
    /// # Safety
    ///
    /// `i < self.len()`. The LITL-X kernel compiler is the intended
    /// caller: it proves the bound at compile time (min/max of each affine
    /// index over the nest's rectangular iteration box) and routes every
    /// unprovable access to the checked fallback instead.
    #[inline]
    pub unsafe fn read_f64_unchecked(&self, i: usize) -> f64 {
        debug_assert!(i < self.words.len());
        f64::from_bits(self.words.get_unchecked(i).load(Ordering::Relaxed))
    }

    /// Write word `i` as `f64` without a bounds check.
    ///
    /// # Safety
    ///
    /// `i < self.len()` — same compile-time-proof contract as
    /// [`SharedRegion::read_f64_unchecked`].
    #[inline]
    pub unsafe fn write_f64_unchecked(&self, i: usize, v: f64) {
        debug_assert!(i < self.words.len());
        self.words
            .get_unchecked(i)
            .store(v.to_bits(), Ordering::Relaxed);
    }

    /// Non-atomic-RMW accumulate (`relaxed load + add + relaxed store`)
    /// without a bounds check — the compiled-kernel fast path for `+=`
    /// stores whose location is provably touched by only one thread at a
    /// time (the SSP executor serializes same-location accumulates through
    /// the wavefront; see `litlx::lang::compile`). Unlike
    /// [`SharedRegion::fetch_add_f64`] there is no CAS loop, so a *truly*
    /// concurrent writer could lose an update — never UB, but only
    /// sequential-equivalent under the executor's disjointness guarantee.
    ///
    /// # Safety
    ///
    /// `i < self.len()` — same compile-time-proof contract as
    /// [`SharedRegion::read_f64_unchecked`].
    #[inline]
    pub unsafe fn accum_f64_unchecked(&self, i: usize, v: f64) {
        debug_assert!(i < self.words.len());
        let w = self.words.get_unchecked(i);
        let cur = f64::from_bits(w.load(Ordering::Relaxed));
        w.store((cur + v).to_bits(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_f64() {
        let r = SharedRegion::from_f64(&[1.0, 2.5, -3.0]);
        assert_eq!(r.read_f64(1), 2.5);
        r.write_f64(1, 7.25);
        assert_eq!(r.to_f64_vec(), vec![1.0, 7.25, -3.0]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn clones_alias_the_same_memory() {
        let a = SharedRegion::new(2);
        let b = a.clone();
        a.write(0, 99);
        assert_eq!(b.read(0), 99);
    }

    #[test]
    fn run_access_matches_checked_access() {
        let r = SharedRegion::from_f64(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.atomics().len(), 4);
        // SAFETY: indices < len by construction.
        unsafe {
            assert_eq!(r.read_f64_unchecked(2), 3.0);
            r.write_f64_unchecked(1, 9.5);
            r.accum_f64_unchecked(1, 0.5);
        }
        assert_eq!(r.read_f64(1), 10.0);
    }

    #[test]
    fn concurrent_f64_adds_do_not_lose_updates() {
        let r = SharedRegion::new(1);
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        r.fetch_add_f64(0, 0.5);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(r.read_f64(0), 2000.0);
    }
}
