//! The shim layer behind the `check` feature: one import site for every
//! concurrency primitive the scheduling spine is built on.
//!
//! `deque.rs`, `sleepers.rs`, `native.rs` and `sync.rs` take their
//! atomics, fences, mutexes and condvars from this module instead of
//! naming `std::sync::atomic` / `parking_lot` directly. In a normal build
//! these are plain re-exports — zero cost, zero behavior change. With
//! `--features check` they resolve to `htvm_check::prim`'s instrumented
//! versions, which yield to the deterministic schedule explorer at every
//! operation (see `crates/check` and ARCHITECTURE.md §verification).

#[cfg(feature = "check")]
pub(crate) use htvm_check::prim::{
    compiler_fence, fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64,
    AtomicU8, AtomicUsize, Condvar, Mutex, MutexGuard,
};

#[cfg(not(feature = "check"))]
pub(crate) use std::sync::atomic::{
    compiler_fence, fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64,
    AtomicU8, AtomicUsize,
};

#[cfg(not(feature = "check"))]
pub(crate) use parking_lot::{Condvar, Mutex, MutexGuard};

// Same type either way; re-exported so shim users need one import line.
pub(crate) use std::sync::atomic::Ordering;
