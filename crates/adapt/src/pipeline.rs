//! Naive vs software-pipelined loop execution — the adaptation policy that
//! closes §3.3's loop with §4.1's knowledge base.
//!
//! A LITL-X `forall` nest can execute two ways: the naive flat SGT fan-out
//! (one chunked SGT per worker) or the SSP path (lower to a loop nest,
//! pick a level, partition it into domain-placed groups —
//! `htvm_ssp::exec`). [`decide_loop_path`] picks, in priority order:
//!
//! 1. an explicit `pipeline` hint at the program point (from a LITL-X
//!    `@hint(pipeline)` pragma or a domain expert's database entry) —
//!    forced, no questions asked;
//! 2. recorded outcomes: whichever of the two policies measured faster at
//!    this point in a previous run ("an integrated part of our
//!    Program/Execution Knowledge Database");
//! 3. a static heuristic: pipeline multi-level nests with enough points to
//!    amortize group spawns; leave small or flat loops on the naive path.
//!
//! After every execution the runtime calls [`record_loop_outcome`] so the
//! next run (or the next execution of the same loop) decides from data.

use crate::hints::{HintCategory, HintTarget, KnowledgeBase, StructuredHint};

/// Policy names under which loop-path outcomes are recorded.
pub const NAIVE_POLICY: &str = "naive";
/// Recorded-outcome name of the SSP-partitioned path.
pub const PIPELINED_POLICY: &str = "pipelined";
/// Fine-grained policy name: the SSP path running the interpreted
/// point-at-a-time kernel tape.
pub const SSP_INTERP_POLICY: &str = "ssp-interp";
/// Fine-grained policy name: the SSP path running the compiled
/// run-at-a-time kernel.
pub const SSP_COMPILED_POLICY: &str = "ssp-compiled";

/// The two ways a `forall` nest can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopPath {
    /// Flat SGT fan-out with a chunked dynamic schedule.
    Naive,
    /// Lower to a loop nest, software-pipeline a level, partition into
    /// thread groups on the native pool.
    Pipelined,
}

/// A decision plus its optional tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopPathDecision {
    /// Which path to take.
    pub path: LoopPath,
    /// Forced pipelined level (`level = k` in the hint), if any.
    pub level: Option<usize>,
    /// Forced group size in iterations (`chunk = k` in the hint), if any.
    pub chunk: Option<u64>,
    /// Why the decision fell where it did (for reports and tests).
    pub reason: DecisionReason,
}

/// Provenance of a loop-path decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// A `pipeline` hint forced the choice.
    Hint,
    /// Recorded outcomes at this point decided.
    Recorded,
    /// The static heuristic decided (no hint, no history).
    Heuristic,
}

/// Shape of the loop nest, as far as the policy needs to know it.
#[derive(Debug, Clone, Copy)]
pub struct LoopShape {
    /// Nest depth (1 = a flat `forall`).
    pub depth: usize,
    /// Total iteration points.
    pub points: u64,
    /// Pool workers available.
    pub workers: usize,
}

/// Translate a LITL-X `@hint(pipeline, …)` pragma's key/value view into a
/// structured hint for the knowledge base. `pipeline` maps to a
/// computation-pattern hint targeted at the adaptive compiler, carrying
/// the `pipeline`/`level`/`chunk` keys.
pub fn pipeline_hint(
    kv: impl IntoIterator<Item = (String, String)>,
    priority: u32,
) -> StructuredHint {
    StructuredHint::new(
        HintCategory::ComputationPattern,
        HintTarget::AdaptiveCompiler,
        priority,
        kv,
    )
}

/// The decision a `pipeline` hint at `point` forces, if there is one:
/// step 1 of [`decide_loop_path`], the only step that reads no recorded
/// outcome and needs no loop shape. Allocates nothing.
pub fn hinted_loop_path(kb: &KnowledgeBase, point: &str) -> Option<LoopPathDecision> {
    let h = kb.hint_with(point, "pipeline")?;
    let on = !matches!(h.get("pipeline"), Some("0" | "false" | "off" | "no"));
    Some(LoopPathDecision {
        path: if on {
            LoopPath::Pipelined
        } else {
            LoopPath::Naive
        },
        level: h.get("level").and_then(|s| s.parse().ok()),
        chunk: h.get("chunk").and_then(|s| s.parse().ok()),
        reason: DecisionReason::Hint,
    })
}

/// Decide how a `forall` nest at `point` should execute. See the module
/// docs for the priority order.
pub fn decide_loop_path(kb: &KnowledgeBase, point: &str, shape: LoopShape) -> LoopPathDecision {
    // 1. Expert/pragma override.
    if let Some(d) = hinted_loop_path(kb, point) {
        return d;
    }
    // 2. Measured history: both policies recorded → the faster one wins;
    // one policy recorded → keep exploring the other only while it has no
    // number at all (the continuous compiler's try-everything-once rule).
    let naive = kb.recorded(point, NAIVE_POLICY);
    let piped = kb.recorded(point, PIPELINED_POLICY);
    match (naive, piped) {
        (Some(n), Some(p)) => {
            return LoopPathDecision {
                path: if p <= n {
                    LoopPath::Pipelined
                } else {
                    LoopPath::Naive
                },
                level: None,
                chunk: None,
                reason: DecisionReason::Recorded,
            };
        }
        (Some(_), None) => {
            return LoopPathDecision {
                path: LoopPath::Pipelined,
                level: None,
                chunk: None,
                reason: DecisionReason::Recorded,
            };
        }
        (None, Some(_)) => {
            return LoopPathDecision {
                path: LoopPath::Naive,
                level: None,
                chunk: None,
                reason: DecisionReason::Recorded,
            };
        }
        (None, None) => {}
    }
    // 3. Static heuristic: multi-level nests with enough work per worker
    // amortize group spawns and benefit from level choice; flat or tiny
    // loops stay naive.
    let enough = shape.points >= (shape.workers as u64).saturating_mul(32);
    LoopPathDecision {
        path: if shape.depth >= 2 && enough {
            LoopPath::Pipelined
        } else {
            LoopPath::Naive
        },
        level: None,
        chunk: None,
        reason: DecisionReason::Heuristic,
    }
}

/// Record an observed loop execution (wall time in nanoseconds) under the
/// path's policy name, feeding future [`decide_loop_path`] calls.
pub fn record_loop_outcome(kb: &mut KnowledgeBase, point: &str, path: LoopPath, nanos: u64) {
    let policy = match path {
        LoopPath::Naive => NAIVE_POLICY,
        LoopPath::Pipelined => PIPELINED_POLICY,
    };
    kb.record_outcome(point, policy, nanos);
}

/// What a `forall` actually executed as, one grain finer than
/// [`LoopPath`]: the SSP path may run the interpreted per-point tape or
/// a compiled run-at-a-time kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPathTaken {
    /// The naive flat fan-out (including SSP bail-outs).
    Naive,
    /// SSP-partitioned, interpreted kernel tape.
    SspInterp,
    /// SSP-partitioned, compiled run-at-a-time kernel.
    SspCompiled,
}

impl ExecPathTaken {
    /// Fine-grained knowledge-base policy name.
    pub fn policy(self) -> &'static str {
        match self {
            ExecPathTaken::Naive => NAIVE_POLICY,
            ExecPathTaken::SspInterp => SSP_INTERP_POLICY,
            ExecPathTaken::SspCompiled => SSP_COMPILED_POLICY,
        }
    }

    /// The coarse path this refines.
    pub fn loop_path(self) -> LoopPath {
        match self {
            ExecPathTaken::Naive => LoopPath::Naive,
            ExecPathTaken::SspInterp | ExecPathTaken::SspCompiled => LoopPath::Pipelined,
        }
    }
}

/// Record a fine-grained execution outcome: the wall time lands under
/// both the fine policy name (so reports can compare interpreted vs
/// compiled directly) and the coarse [`LoopPath`] policy that
/// [`decide_loop_path`] reads — a fast compiled run therefore makes the
/// Adaptive strategy prefer the pipelined path at this point from the
/// first observation.
pub fn record_exec_outcome(kb: &mut KnowledgeBase, point: &str, taken: ExecPathTaken, nanos: u64) {
    kb.record_outcome(point, taken.policy(), nanos);
    if taken != ExecPathTaken::Naive {
        // `Naive` already records under NAIVE_POLICY via its fine name.
        record_loop_outcome(kb, point, taken.loop_path(), nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(depth: usize, points: u64, workers: usize) -> LoopShape {
        LoopShape {
            depth,
            points,
            workers,
        }
    }

    #[test]
    fn hint_forces_the_choice_with_knobs() {
        let mut kb = KnowledgeBase::new();
        kb.add_hint(
            "main:i",
            pipeline_hint(
                [
                    ("pipeline".to_string(), "1".to_string()),
                    ("level".to_string(), "1".to_string()),
                    ("chunk".to_string(), "8".to_string()),
                ],
                10,
            ),
        );
        let d = decide_loop_path(&kb, "main:i", shape(1, 4, 2));
        assert_eq!(d.path, LoopPath::Pipelined);
        assert_eq!(d.level, Some(1));
        assert_eq!(d.chunk, Some(8));
        assert_eq!(d.reason, DecisionReason::Hint);
    }

    #[test]
    fn hint_can_force_naive() {
        let mut kb = KnowledgeBase::new();
        kb.add_hint(
            "p",
            pipeline_hint([("pipeline".to_string(), "off".to_string())], 1),
        );
        let d = decide_loop_path(&kb, "p", shape(3, 1 << 20, 4));
        assert_eq!(d.path, LoopPath::Naive);
        assert_eq!(d.reason, DecisionReason::Hint);
    }

    #[test]
    fn recorded_outcomes_beat_the_heuristic() {
        let mut kb = KnowledgeBase::new();
        record_loop_outcome(&mut kb, "p", LoopPath::Naive, 5_000);
        record_loop_outcome(&mut kb, "p", LoopPath::Pipelined, 9_000);
        let d = decide_loop_path(&kb, "p", shape(3, 1 << 20, 4));
        assert_eq!(d.path, LoopPath::Naive, "measured naive was faster");
        assert_eq!(d.reason, DecisionReason::Recorded);
        // Flip the measurements: the decision flips.
        record_loop_outcome(&mut kb, "p", LoopPath::Pipelined, 1_000);
        let d = decide_loop_path(&kb, "p", shape(3, 1 << 20, 4));
        assert_eq!(d.path, LoopPath::Pipelined);
    }

    #[test]
    fn one_sided_history_explores_the_other_path() {
        let mut kb = KnowledgeBase::new();
        record_loop_outcome(&mut kb, "p", LoopPath::Naive, 5_000);
        let d = decide_loop_path(&kb, "p", shape(1, 8, 4));
        assert_eq!(d.path, LoopPath::Pipelined, "pipelined not yet measured");
        record_loop_outcome(&mut kb, "p", LoopPath::Pipelined, 9_999);
        let d = decide_loop_path(&kb, "p", shape(1, 8, 4));
        assert_eq!(d.path, LoopPath::Naive, "now both measured: naive wins");
    }

    #[test]
    fn heuristic_pipelines_deep_big_nests_only() {
        let kb = KnowledgeBase::new();
        assert_eq!(
            decide_loop_path(&kb, "p", shape(3, 64 * 64, 4)).path,
            LoopPath::Pipelined
        );
        assert_eq!(
            decide_loop_path(&kb, "p", shape(1, 64 * 64, 4)).path,
            LoopPath::Naive,
            "flat loops stay naive"
        );
        assert_eq!(
            decide_loop_path(&kb, "p", shape(3, 16, 4)).path,
            LoopPath::Naive,
            "tiny nests stay naive"
        );
    }

    #[test]
    fn compiled_outcome_feeds_the_coarse_decision() {
        let mut kb = KnowledgeBase::new();
        record_exec_outcome(&mut kb, "p", ExecPathTaken::Naive, 9_000);
        record_exec_outcome(&mut kb, "p", ExecPathTaken::SspCompiled, 1_000);
        // Recorded under the fine name for reports…
        assert!(kb.recorded("p", SSP_COMPILED_POLICY).is_some());
        // …and under the coarse pair, so the decision prefers pipelined.
        let d = decide_loop_path(&kb, "p", shape(1, 8, 4));
        assert_eq!(d.path, LoopPath::Pipelined);
        assert_eq!(d.reason, DecisionReason::Recorded);
    }

    #[test]
    fn exec_path_maps_to_policies_and_coarse_paths() {
        assert_eq!(ExecPathTaken::Naive.policy(), NAIVE_POLICY);
        assert_eq!(ExecPathTaken::SspInterp.policy(), SSP_INTERP_POLICY);
        assert_eq!(ExecPathTaken::SspCompiled.policy(), SSP_COMPILED_POLICY);
        assert_eq!(ExecPathTaken::SspInterp.loop_path(), LoopPath::Pipelined);
        assert_eq!(ExecPathTaken::Naive.loop_path(), LoopPath::Naive);
    }

    #[test]
    fn outcomes_persist_through_the_text_format() {
        let mut kb = KnowledgeBase::new();
        record_loop_outcome(&mut kb, "p", LoopPath::Pipelined, 123);
        record_loop_outcome(&mut kb, "p", LoopPath::Naive, 456);
        let back = KnowledgeBase::from_text(&kb.to_text().unwrap()).unwrap();
        let d = decide_loop_path(&back, "p", shape(1, 1, 1));
        assert_eq!(d.path, LoopPath::Pipelined);
        assert_eq!(d.reason, DecisionReason::Recorded);
    }
}
