//! # litlx — the LITL-X programming constructs and mini-language
//!
//! LITL-X ("Latency Intrinsic-Tolerant Language", §3.2 of Gao et al.,
//! IPDPS 2006) organizes parallel computation so that latency is *hidden*
//! rather than avoided. The paper specifies five construct classes; each has
//! a module here:
//!
//! | Paper construct | Module |
//! |---|---|
//! | Coarse-grain multithreading with in-stream context switching | provided by `htvm-sim` hardware threads + [`future`] continuations |
//! | Parcel-driven split-transaction computation | [`parcel`] |
//! | Futures with localized buffering of requests | [`future`] |
//! | Percolation of code/data ahead of execution | [`percolate`] |
//! | Dataflow synchronization + atomic memory blocks | [`dataflow`], [`atomic`] |
//!
//! The [`lang`] module implements the LITL-X prototype language itself: a
//! small imperative language with `forall`, `spawn`, `future`/`force`,
//! `atomic` and `@hint(...)` pragmas, interpreted on the native HTVM
//! runtime. Domain-expert "scripts" (§4.1) are LITL-X source with hint
//! pragmas; the structured hints they carry are extracted into the schema
//! defined by `htvm-adapt`.
//!
//! # Example
//!
//! Parse and run a LITL-X kernel on the native runtime:
//!
//! ```
//! use litlx::lang::{parse, Interp};
//!
//! let prog = parse(
//!     "fn main() {
//!          let n = 8;
//!          let a = array(n);
//!          forall i in 0..n { a[i] = i * 2; }
//!          print(sum(a));
//!      }",
//! )
//! .expect("kernel parses");
//! let out = Interp::new(2).run(&prog).expect("kernel runs");
//! assert_eq!(out.printed, vec!["56"]);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod atomic;
pub mod dataflow;
pub mod future;
pub mod lang;
pub mod parcel;
pub mod percolate;

pub use atomic::AtomicDomain;
pub use dataflow::FeRegion;
pub use future::{future_on, LitlFuture};
pub use parcel::{NativeParcel, ParcelBuilder, ParcelFault, RemoteReduce, ReplayAction};
pub use percolate::{PercolateKernel, PercolationPlan};
