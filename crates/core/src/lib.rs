//! # htvm-core — the HTVM execution model
//!
//! Implements §3.1 of Gao et al. (IPDPS 2006): a **hierarchical threaded
//! virtual machine** with three thread grains and the memory and
//! synchronization models that tie them together.
//!
//! * **LGT** (large-grain thread) — a substantial computation with its own
//!   private memory, sharing a global address space with other LGTs.
//!   Spawned via [`Htvm::lgt`]; backed by the work-stealing pool.
//! * **SGT** (small-grain thread) — a threaded function call in the
//!   Cilk/EARTH sense. Invoked from an LGT, sees the LGT's private memory,
//!   and owns a private [`Frame`] for its local state. Spawned via
//!   [`LgtCtx::spawn_sgt`].
//! * **TGT** (tiny-grain thread) — an EARTH fiber / CARE strand: shares the
//!   frame of its enclosing SGT invocation and communicates with sibling
//!   TGTs "by using registers under the compiler control", modelled here as
//!   direct frame-slot reads/writes inside one [`TgtGraph`].
//!
//! Synchronization is **dataflow style** throughout (the paper's
//! synchronization model): [`sync::SyncSlot`] is an EARTH-style counter that
//! fires a continuation when enough signals arrive; [`sync::IVar`] is a
//! write-once value with deferred readers (the substrate for LITL-X
//! futures); [`sync::PoolBarrier`] builds global barriers from sync slots so
//! they can also be *avoided* (the paper's complaint about "synchronous
//! global barriers").
//!
//! Two runtimes execute the model:
//!
//! * [`native`] — a work-stealing pool over OS threads, built on the
//!   first-party [`deque`] spine (lock-free Chase–Lev worker deques plus
//!   locked FIFO injectors whose empty probe takes no lock), for real
//!   parallel execution and wall-clock benchmarks. Its workers are
//!   grouped into **locality domains** ([`topology::Topology`]) mirroring
//!   the paper's thread-unit groups; idle workers steal in proximity order
//!   (domain siblings before remote domains) and LGTs can pin their SGT
//!   subtree to a home domain ([`Htvm::lgt_in`]).
//! * [`simrt`] — a mapping of the hierarchy onto the `htvm-sim`
//!   function-accurate machine, for experiments that must control memory
//!   latency, spawn costs and thread-unit counts.
//!
//! ```
//! use htvm_core::{Htvm, HtvmConfig};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let htvm = Htvm::new(HtvmConfig::default());
//! let sum = Arc::new(AtomicU64::new(0));
//! let lgt = htvm.lgt({
//!     let sum = sum.clone();
//!     move |lgt| {
//!         for i in 0..8u64 {
//!             let sum = sum.clone();
//!             lgt.spawn_sgt(move |_sgt| {
//!                 sum.fetch_add(i, Ordering::Relaxed);
//!             });
//!         }
//!     }
//! });
//! lgt.join();
//! assert_eq!(sum.load(Ordering::Relaxed), 28);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod cancel;
pub(crate) mod chk;
pub mod deque;
pub mod faults;
pub mod frame;
pub mod ids;
pub mod machine;
pub mod native;
pub mod region;
pub mod runtime;
pub mod simrt;
pub mod sleepers;
pub mod sync;
pub mod tgt;
pub mod topology;

pub use admission::{AdmissionQueue, AdmitError};
pub use cancel::CancelToken;
pub use faults::{FaultKind, FaultPlan, FaultPlane, FaultRule, InjectedFault};
pub use frame::Frame;
pub use ids::{DomainId, LgtId, SgtId, TgtId, WorkerId};
pub use machine::{Level, MachineTree};
pub use native::{Pool, PoolStats, PoolTag, QueueDepths, SpawnOpts, TagStats, WorkerCtx};
pub use region::SharedRegion;
pub use runtime::{Htvm, HtvmConfig, LgtCtx, LgtHandle, SgtCtx};
pub use sync::{IVar, PoolBarrier, SyncSlot};
pub use tgt::{TgtCtx, TgtGraph};
pub use topology::Topology;
