//! # htvm-adapt — runtime adaptation for HTVM
//!
//! §2 of Gao et al. (IPDPS 2006) identifies "four classes of adaptivity
//! critical to the performance of the system"; §4 adds the structured-hint
//! knowledge base and execution monitoring that steer them. One module per
//! mechanism:
//!
//! | Paper mechanism | Module |
//! |---|---|
//! | Loop parallelism adaptation (static vs dynamic loop scheduling) | [`loop_sched`] |
//! | Dynamic load adaptation (thread migration) | [`load`] |
//! | Locality adaptation (data migration, replication, copy consistency) | [`locality`] |
//! | Latency adaptation (react to drifting memory latency) | [`latency`] |
//! | Runtime performance monitoring (§4.2) | [`monitor`] |
//! | Structured hints + Program/Execution Knowledge Database (§4.1) | [`hints`] |
//! | Continuous compilation (static partial schedules completed at run time, §3.3) | [`continuous`] |
//! | Naive vs SSP-pipelined loop-path selection (§3.3 ∘ §4.1) | [`pipeline`] |
//! | BubbleSched-style dynamic placement + elastic worker advice | [`bubble`] |
//!
//! The modules are runtime-agnostic where possible: schedulers and policies
//! are plain data structures evaluated either analytically, on recorded
//! traces, or on the `htvm-sim` machine; the native runtime uses the same
//! types through `htvm-core`.
//!
//! # Example
//!
//! The feedback loop in miniature: observed steal traffic becomes a
//! structured hint, the knowledge base stores it, and the next run reads
//! the placement decision back out:
//!
//! ```
//! use htvm_adapt::locality::{affinity_hints, AffinityThresholds, DomainTraffic};
//! use htvm_adapt::KnowledgeBase;
//!
//! // A run on a 2-domain pool: domain 0 did the work, and most steals
//! // crossed a domain boundary.
//! let traffic = DomainTraffic::new(vec![900, 40], vec![3, 1], vec![30, 10]);
//! let mut kb = KnowledgeBase::new();
//! for hint in affinity_hints(&traffic, &AffinityThresholds::default()) {
//!     kb.add_hint("main_loop", hint);
//! }
//! // Next run (same 2-domain topology): pin the subtree to the busiest
//! // domain (Htvm::lgt_in). A run under a different topology would get
//! // None — stale placement hints degrade, never misfire.
//! assert_eq!(kb.home_domain("main_loop", 2), Some(0));
//! assert_eq!(kb.home_domain("main_loop", 4), None);
//! ```

#![warn(missing_docs)]

pub mod bubble;
pub mod continuous;
pub mod hints;
pub mod latency;
pub mod load;
pub mod locality;
pub mod loop_sched;
pub mod monitor;
pub mod pipeline;

pub use bubble::{
    BubbleDecision, BubbleLoad, BubblePlacement, BubblePolicy, BubblePolicyCfg, BubbleSignals,
};
pub use continuous::{ContinuousCompiler, PartialSchedule, PolicyOutcome};
pub use hints::{HintCategory, HintTarget, KnowledgeBase, StructuredHint};
pub use latency::{AdaptiveConcurrency, EwmaLatency};
pub use load::{LoadPolicy, LoadSimConfig, LoadSimResult};
pub use locality::{
    affinity_hints, AffinityThresholds, ConsistencyKind, Directory, DomainTraffic, LocalityCosts,
    LocalityPolicy,
};
pub use loop_sched::{evaluate_schedule, CostModel, IterationCosts, ScheduleKind, ScheduleOutcome};
pub use monitor::{Metric, Monitor, MonitorConfig};
pub use pipeline::{
    decide_loop_path, hinted_loop_path, record_loop_outcome, DecisionReason, LoopPath,
    LoopPathDecision, LoopShape,
};
