//! Bounded per-tenant admission queues — the serving layer's
//! backpressure boundary.
//!
//! A serving front-end must not let one misbehaving tenant queue
//! unbounded work into the pool's injectors: admission control happens
//! *before* dispatch, in a small bounded queue per tenant. A full
//! queue rejects at submit time (the caller gets its item back and
//! surfaces a typed backpressure error); a closed queue rejects
//! everything (tenant teardown). The dispatcher drains these queues
//! into the pool under the weighted deficit-round-robin policy
//! (`htvm_serve::Wdrr`).
//!
//! The queue is a plain mutex-protected ring — admission is a
//! millisecond-scale boundary, not the nanosecond-scale steal path, so
//! it does not need the spine's lock-free deque. The mutex comes from
//! `crate::chk`, so under `--features check` the producer→dispatcher
//! handoff runs on the schedule explorer's instrumented twins and the
//! `schedule_explore` suite can drive the submit/pop/close races
//! deterministically.

use std::collections::VecDeque;

use crate::chk::Mutex;

/// Why [`AdmissionQueue::try_push`] refused an item; the item rides
/// along so the caller can resolve it (nothing is silently dropped).
#[derive(Debug)]
pub enum AdmitError<T> {
    /// The queue is at capacity — backpressure; try again later.
    Full(T),
    /// The queue has been closed — the tenant is gone; do not retry.
    Closed(T),
}

impl<T> AdmitError<T> {
    /// Recover the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            AdmitError::Full(item) | AdmitError::Closed(item) => item,
        }
    }
}

struct Q<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Items accepted over the queue's lifetime.
    pushed: u64,
    /// Items refused over the queue's lifetime (full or closed).
    rejected: u64,
}

/// A bounded MPMC admission queue (see the [module docs](self)).
pub struct AdmissionQueue<T> {
    inner: Mutex<Q<T>>,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Q {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                pushed: 0,
                rejected: 0,
            }),
            capacity,
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admit `item`, or hand it back with the reason.
    pub fn try_push(&self, item: T) -> Result<(), AdmitError<T>> {
        let mut q = self.inner.lock();
        if q.closed {
            q.rejected += 1;
            return Err(AdmitError::Closed(item));
        }
        if q.items.len() >= self.capacity {
            q.rejected += 1;
            return Err(AdmitError::Full(item));
        }
        q.items.push_back(item);
        q.pushed += 1;
        Ok(())
    }

    /// Dequeue the oldest admitted item (FIFO); `None` when empty. A
    /// closed queue still pops — close stops admission, not drainage.
    pub fn pop(&self) -> Option<T> {
        self.inner.lock().items.pop_front()
    }

    /// Observe the head item without dequeuing it (the dispatcher reads
    /// its cost to decide whether the tenant's deficit covers it).
    pub fn peek<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.inner.lock().items.front().map(f)
    }

    /// Dequeue the *newest* admitted item — the shedding side: under
    /// overload the freshest work is dropped first, preserving the
    /// oldest requests' FIFO latency order.
    pub fn pop_newest(&self) -> Option<T> {
        self.inner.lock().items.pop_back()
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().items.is_empty()
    }

    /// Stop admitting (idempotent). Already-queued items remain
    /// poppable/drainable.
    pub fn close(&self) {
        self.inner.lock().closed = true;
    }

    /// Whether [`AdmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Remove and return everything currently queued (oldest first).
    pub fn drain(&self) -> Vec<T> {
        self.inner.lock().items.drain(..).collect()
    }

    /// Items accepted over the queue's lifetime.
    pub fn pushed(&self) -> u64 {
        self.inner.lock().pushed
    }

    /// Items refused over the queue's lifetime (full or closed).
    pub fn rejected(&self) -> u64 {
        self.inner.lock().rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.capacity(), 2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(AdmitError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(|&x| x), Some(1));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.pushed(), 2);
        assert_eq!(q.rejected(), 1);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(7).unwrap();
        assert!(q.try_push(8).is_err());
    }

    #[test]
    fn close_rejects_but_still_drains() {
        let q = AdmissionQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert!(q.is_closed());
        match q.try_push("c") {
            Err(AdmitError::Closed("c")) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.drain(), vec!["a", "b"]);
        assert!(q.is_empty());
        // Close is idempotent.
        q.close();
        assert_eq!(q.rejected(), 1);
    }

    #[test]
    fn pop_newest_sheds_freshest_first() {
        let q = AdmissionQueue::new(8);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_newest(), Some(3));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop_newest(), Some(2));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn into_inner_recovers_rejected_item() {
        let q = AdmissionQueue::new(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2).unwrap_err().into_inner(), 2);
        q.close();
        assert_eq!(q.try_push(3).unwrap_err().into_inner(), 3);
    }
}
