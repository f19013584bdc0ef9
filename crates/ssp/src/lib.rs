//! # htvm-ssp — software pipelining for HTVM loop nests
//!
//! §3.3 of Gao et al. (IPDPS 2006) builds its loop-parallelism story on
//! **Single-dimension Software Pipelining** (SSP, Rong et al., CGO 2004):
//! instead of software-pipelining only the innermost loop (classic modulo
//! scheduling), choose "the most profitable loop level" of the nest,
//! software-pipeline *that* level, and then "partition the software
//! pipelined code into threads" to exploit instruction-level and
//! thread-level parallelism simultaneously.
//!
//! This crate implements the whole chain:
//!
//! * [`ir`] — loop-nest IR: trip counts per level, operations with
//!   latencies and resource classes, dependences with distance vectors;
//! * [`ddg`] — the reduced data-dependence graph for a chosen level, with
//!   the two classic lower bounds **recMII** (recurrence-constrained) and
//!   **resMII** (resource-constrained);
//! * [`modulo`] — iterative modulo scheduling (Rau's algorithm: II search,
//!   height-based priority, modulo reservation table);
//! * [`ssp`] — per-level scheduling, the execution-time model
//!   `outer × (Nℓ + S − 1) × II × inner`, and most-profitable-level
//!   selection (cycles first, data reuse as tie-break);
//! * [`partition`] — the paper's proposed SSP→threads extension: groups of
//!   `ℓ`-level iterations become SGTs; cross-group dependences form a
//!   signal wavefront; runnable both as a cost model and on the `htvm-sim`
//!   machine;
//! * [`exec`] — the native back end: a [`partition::PartitionPlan`] runs on
//!   the `htvm_core` work-stealing pool, each iteration group one call of
//!   a tile body, either inline on the calling thread or spread as
//!   SGT-grain jobs placed round-robin across locality domains. A plan
//!   with cross-group dependences (a signal wavefront) runs its groups
//!   inline in index order, which satisfies the wavefront by itself.
//!
//! ```
//! use htvm_ssp::ir::LoopNest;
//! use htvm_ssp::ssp::schedule_all_levels;
//!
//! // c[i][j] += a[i][k] * b[k][j] — reduction carried by the innermost k.
//! let nest = LoopNest::matmul_like(16, 16, 16);
//! let plans = schedule_all_levels(&nest, &Default::default());
//! let best = plans.iter().min_by_key(|p| p.total_cycles).unwrap();
//! // The innermost level carries the recurrence, so the best level is not
//! // the innermost one.
//! assert_ne!(best.level, nest.depth() - 1);
//! ```

pub mod ddg;
pub mod exec;
pub mod ir;
pub mod modulo;
pub mod partition;
pub mod ssp;

pub use ddg::{Ddg, MiiBounds};
pub use exec::{plan_native, plan_native_nest, run_partitioned, ExecReport, NestExecPlan};
pub use ir::{Dep, LoopNest, Op, OpKind};
pub use modulo::{modulo_schedule, ModuloSchedule, Resources, ScheduleError};
pub use partition::{PartitionPlan, ThreadedSspModel};
pub use ssp::{schedule_all_levels, select_level, LevelPlan, SspConfig};
