//! Model-equivalence and linearizability properties for the
//! scheduling spine (`htvm_core::deque`).
//!
//! The oracle is the vendored mutex-shim (`crossbeam::deque`): same
//! LIFO-owner/FIFO-thief contract, trivially correct under a lock. The
//! sequential properties drive both implementations through identical
//! randomized op sequences and demand *identical* observable results;
//! the concurrent properties give up determinism and instead check the
//! invariants that survive real interleavings — nothing lost, nothing
//! duplicated, FIFO order per consumer, and batch publishes that stay
//! intact at the sizes that crossed the injector's former segment
//! boundaries.

use proptest::prelude::*;

use htvm::core::deque::{Injector, Steal, Worker};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The injector's former segment size: the batch tests keep the inputs
/// that straddled its segment boundaries.
const SEGMENT_CAP: usize = 32;

/// One sequential deque op, decoded from a byte pair.
#[derive(Debug, Clone, Copy)]
enum DequeOp {
    Push(u64),
    Pop,
    Steal,
}

fn decode_ops(raw: &[(u8, u8)]) -> Vec<DequeOp> {
    let mut next = 0u64;
    raw.iter()
        .map(|&(kind, _)| match kind % 5 {
            // Bias toward pushes so sequences reach interesting depths.
            0..=2 => {
                next += 1;
                DequeOp::Push(next)
            }
            3 => DequeOp::Pop,
            _ => DequeOp::Steal,
        })
        .collect()
}

/// Drain a `Steal` result into an `Option`, retry-looping like the pool
/// does. Sequentially, the lock-free deque never returns `Retry` (there
/// is nobody to lose a race to), but the loop keeps the contract honest.
fn steal_once<T>(mut f: impl FnMut() -> Steal<T>) -> Option<T> {
    loop {
        match f() {
            Steal::Success(v) => return Some(v),
            Steal::Empty => return None,
            Steal::Retry => continue,
        }
    }
}

fn shim_steal_once<T>(mut f: impl FnMut() -> crossbeam::deque::Steal<T>) -> Option<T> {
    loop {
        match f() {
            crossbeam::deque::Steal::Success(v) => return Some(v),
            crossbeam::deque::Steal::Empty => return None,
            crossbeam::deque::Steal::Retry => continue,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sequential model equivalence: any interleaving of owner pushes,
    /// owner pops and thief steals produces byte-identical results on
    /// the Chase–Lev deque and the mutex-shim oracle.
    #[test]
    fn deque_matches_mutex_oracle(raw in proptest::collection::vec((0u8..5, 0u8..1), 0..300)) {
        let ops = decode_ops(&raw);
        let lf = Worker::new_lifo();
        let lf_thief = lf.stealer();
        let shim = crossbeam::deque::Worker::new_lifo();
        let shim_thief = shim.stealer();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                DequeOp::Push(v) => {
                    lf.push(v);
                    shim.push(v);
                }
                DequeOp::Pop => {
                    prop_assert_eq!(lf.pop(), shim.pop(), "pop diverged at op {}", i);
                }
                DequeOp::Steal => {
                    let a = steal_once(|| lf_thief.steal());
                    let b = shim_steal_once(|| shim_thief.steal());
                    prop_assert_eq!(a, b, "steal diverged at op {}", i);
                }
            }
            prop_assert_eq!(lf.len(), shim.len(), "length diverged at op {}", i);
        }
        // Drain both: the leftovers must agree too.
        loop {
            let (a, b) = (lf.pop(), shim.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// Sequential injector equivalence: pushes (single and batched) and
    /// steals observe the exact same FIFO on both implementations.
    #[test]
    fn injector_matches_mutex_oracle(raw in proptest::collection::vec((0u8..6, 1u8..40), 0..120)) {
        let lf = Injector::new();
        let shim = crossbeam::deque::Injector::new();
        let mut next = 0u64;
        for (i, &(kind, n)) in raw.iter().enumerate() {
            match kind % 3 {
                0 => {
                    next += 1;
                    lf.push(next);
                    shim.push(next);
                }
                1 => {
                    // Batch push: the shim has no batch API, so the oracle
                    // sees the same values one at a time — FIFO visibility
                    // must come out identical anyway.
                    let batch: Vec<u64> = (next + 1..=next + n as u64).collect();
                    next += n as u64;
                    for &v in &batch {
                        shim.push(v);
                    }
                    lf.push_batch(batch);
                }
                _ => {
                    let a = steal_once(|| lf.steal());
                    let b = shim_steal_once(|| shim.steal());
                    prop_assert_eq!(a, b, "injector steal diverged at op {}", i);
                }
            }
        }
        loop {
            let (a, b) = (steal_once(|| lf.steal()), shim_steal_once(|| shim.steal()));
            prop_assert_eq!(a, b, "injector drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// Concurrent linearizability-lite: an owner interleaving pushes and
    /// pops races two thieves. Every pushed value must be claimed exactly
    /// once (owner or thief), and each thief's haul must arrive in push
    /// order — steals claim monotonically increasing top indices, so a
    /// reordered haul would betray a torn claim.
    #[test]
    fn concurrent_steals_lose_nothing_and_keep_fifo(
        n in 64u64..512,
        pop_every in 2u64..7,
    ) {
        let w = Worker::new_lifo();
        let done = Arc::new(AtomicU64::new(0));
        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let s = w.stealer();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while done.load(Ordering::Acquire) == 0 {
                        if let Steal::Success(v) = s.steal() {
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    // Final sweep after the owner stops.
                    while let Steal::Success(v) = s.steal() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let mut owner_got = Vec::new();
        for i in 1..=n {
            w.push(i);
            if i % pop_every == 0 {
                if let Some(v) = w.pop() {
                    owner_got.push(v);
                }
            }
        }
        while let Some(v) = w.pop() {
            owner_got.push(v);
        }
        done.store(1, Ordering::Release);
        let hauls: Vec<Vec<u64>> = thieves.into_iter().map(|h| h.join().unwrap()).collect();
        for haul in &hauls {
            prop_assert!(
                haul.windows(2).all(|p| p[0] < p[1]),
                "a thief observed out-of-order steals: {:?}",
                haul
            );
        }
        let mut all: Vec<u64> = owner_got;
        all.extend(hauls.into_iter().flatten());
        all.sort_unstable();
        prop_assert_eq!(all, (1..=n).collect::<Vec<_>>());
    }

    /// Segment-boundary batches under concurrent stealers: publishing
    /// batches sized exactly at/around the segment capacity (k−1, k, k+1,
    /// and 2k+1 for a double crossing) must never drop, duplicate, or
    /// reorder FIFO-visible jobs — each concurrent consumer's haul stays
    /// strictly increasing and the union is exactly what was pushed.
    #[test]
    fn injector_segment_boundary_batches_stay_fifo(
        delta in 0usize..4,
        rounds in 2usize..6,
    ) {
        let k = SEGMENT_CAP;
        let batch_len = [k - 1, k, k + 1, 2 * k + 1][delta];
        let inj = Arc::new(Injector::new());
        let total = (rounds * batch_len) as u64;
        let done = Arc::new(AtomicU64::new(0));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let inj = inj.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while done.load(Ordering::Acquire) == 0 {
                        if let Steal::Success(v) = inj.steal() {
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    while let Steal::Success(v) = inj.steal() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let mut next = 0u64;
        for _ in 0..rounds {
            let batch: Vec<u64> = (next..next + batch_len as u64).collect();
            next += batch_len as u64;
            inj.push_batch(batch);
        }
        done.store(1, Ordering::Release);
        let hauls: Vec<Vec<u64>> = consumers.into_iter().map(|h| h.join().unwrap()).collect();
        for haul in &hauls {
            prop_assert!(
                haul.windows(2).all(|p| p[0] < p[1]),
                "consumer saw FIFO violation near segment boundary (batch {}): {:?}",
                batch_len,
                haul
            );
        }
        let mut all: Vec<u64> = hauls.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..total).collect::<Vec<_>>());
    }
}

/// Deterministic (non-prop) regression: `steal_batch_and_pop` across a
/// segment boundary claims a contiguous FIFO run — first job returned,
/// the carried run landing in the thief's deque, no holes.
#[test]
fn batch_steal_run_is_contiguous_fifo() {
    let inj = Injector::new();
    let n = SEGMENT_CAP as u64 + 5;
    inj.push_batch((0..n).collect());
    let dest = Worker::new_lifo();
    let first = steal_once(|| inj.steal_batch_and_pop(&dest)).expect("non-empty");
    assert_eq!(first, 0, "batch steal pops the FIFO head");
    let mut carried = Vec::new();
    while let Some(v) = dest.pop() {
        carried.push(v);
    }
    carried.sort_unstable();
    assert_eq!(
        carried,
        (1..=carried.len() as u64).collect::<Vec<_>>(),
        "the carried run is the contiguous FIFO prefix after the popped head"
    );
    // Everything else is still in the injector, still in order.
    let mut rest = Vec::new();
    while let Some(v) = steal_once(|| inj.steal()) {
        rest.push(v);
    }
    assert_eq!(rest, (carried.len() as u64 + 1..n).collect::<Vec<_>>());
}
