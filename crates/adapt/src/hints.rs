//! Structured hints and the Program/Execution Knowledge Database (§4.1).
//!
//! "We plan to define and implement a system of structured hints to capture
//! and apply the combined expertise of the domain specialist and the
//! compiler. … the hints must address, in a general way, issues of:
//! 1) data locality, 2) monitoring priorities, 3) data access patterns, and
//! 4) computation patterns."
//!
//! A [`StructuredHint`] is data, not prose: a category (the four above), a
//! target component (adaptive compiler / runtime / monitor — "each hint can
//! be expressly targeted at some part of the execution model"), a priority,
//! and key/value payload. The [`KnowledgeBase`] maps program points
//! (function / loop names) to hint sets and answers the one question the
//! continuous compiler asks: *which candidate policies survive the hints?*

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::loop_sched::ScheduleKind;

/// The four hint categories mandated by §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HintCategory {
    /// Where data should live / move.
    DataLocality,
    /// What the monitor should watch.
    MonitoringPriority,
    /// How data is accessed (stride, reuse, sharing).
    AccessPattern,
    /// The shape of the computation (regular/irregular, cost variance).
    ComputationPattern,
}

/// The execution-model component a hint addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HintTarget {
    /// The adaptive (dynamic) compiler.
    AdaptiveCompiler,
    /// The runtime system.
    Runtime,
    /// The monitoring system.
    Monitor,
}

/// One structured hint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructuredHint {
    /// Category (the four paper-mandated classes).
    pub category: HintCategory,
    /// Component the hint targets.
    pub target: HintTarget,
    /// Priority: higher wins on conflict.
    pub priority: u32,
    /// Free-form key/value payload (e.g. `cost_variance = "high"`,
    /// `schedule = "guided"`, `watch = "remote_accesses"`).
    pub kv: BTreeMap<String, String>,
}

impl StructuredHint {
    /// Construct from key/value pairs (e.g. lowered from a LITL-X
    /// `@hint(...)` pragma).
    pub fn new(
        category: HintCategory,
        target: HintTarget,
        priority: u32,
        kv: impl IntoIterator<Item = (String, String)>,
    ) -> Self {
        Self {
            category,
            target,
            priority,
            kv: kv.into_iter().collect(),
        }
    }

    /// Value of a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.kv.get(key).map(String::as_str)
    }
}

/// The knowledge base: program point → hints, plus recorded outcomes
/// ("an integrated part of our Program/Execution Knowledge Database").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KnowledgeBase {
    hints: BTreeMap<String, Vec<StructuredHint>>,
    /// Measured makespans per point, then per policy name — the execution
    /// side of the database, fed back by the continuous compiler. Nested
    /// so a lookup borrows its keys and a repeat record updates in place.
    outcomes: BTreeMap<String, BTreeMap<String, u64>>,
}

impl KnowledgeBase {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a hint to a program point (loop/function name).
    pub fn add_hint(&mut self, point: &str, hint: StructuredHint) {
        self.hints.entry(point.to_string()).or_default().push(hint);
    }

    /// Hints at a point, highest priority first.
    pub fn hints_at(&self, point: &str) -> Vec<&StructuredHint> {
        let mut v: Vec<&StructuredHint> = self
            .hints
            .get(point)
            .map(|h| h.iter().collect())
            .unwrap_or_default();
        v.sort_by_key(|h| std::cmp::Reverse(h.priority));
        v
    }

    /// The highest-priority hint at a point that carries `key` (the
    /// earliest added among equals: the first such hint of
    /// [`KnowledgeBase::hints_at`]), without building the sorted list.
    pub fn hint_with(&self, point: &str, key: &str) -> Option<&StructuredHint> {
        self.hints
            .get(point)?
            .iter()
            .filter(|h| h.kv.contains_key(key))
            .min_by_key(|h| std::cmp::Reverse(h.priority))
    }

    /// Record a measured outcome.
    pub fn record_outcome(&mut self, point: &str, policy: &str, makespan: u64) {
        let policies = match self.outcomes.get_mut(point) {
            Some(p) => p,
            None => self.outcomes.entry(point.to_string()).or_default(),
        };
        match policies.get_mut(policy) {
            Some(m) => *m = makespan,
            None => {
                policies.insert(policy.to_string(), makespan);
            }
        }
    }

    /// Recorded makespan of one specific policy at a point.
    pub fn recorded(&self, point: &str, policy: &str) -> Option<u64> {
        self.outcomes.get(point)?.get(policy).copied()
    }

    /// Best recorded policy at a point (the first by name among equals).
    pub fn best_recorded(&self, point: &str) -> Option<(&str, u64)> {
        self.outcomes
            .get(point)?
            .iter()
            .min_by_key(|(_, &m)| m)
            .map(|(pol, &m)| (pol.as_str(), m))
    }

    /// The §4.1 pruning step: reduce a loop-scheduling policy portfolio to
    /// the candidates consistent with the hints at `point`.
    ///
    /// Interpretation of well-known keys (computation-pattern hints):
    /// * `cost_variance = "none"` → static policies suffice;
    /// * `cost_variance = "high"` → drop static policies; keep
    ///   fine-grained dynamic ones (self-sched small chunks, factoring);
    /// * `cost_trend = "monotonic"` → guided/trapezoid favoured (their
    ///   decreasing chunks match a decreasing tail);
    /// * `schedule = <name>` → exactly that policy (expert override).
    pub fn prune_schedules(&self, point: &str, portfolio: &[ScheduleKind]) -> Vec<ScheduleKind> {
        let hints = self.hints_at(point);
        let mut out: Vec<ScheduleKind> = portfolio.to_vec();
        for h in hints {
            if let Some(name) = h.get("schedule") {
                let exact: Vec<ScheduleKind> = portfolio
                    .iter()
                    .copied()
                    .filter(|k| k.name().starts_with(name))
                    .collect();
                if !exact.is_empty() {
                    return exact;
                }
            }
            match h.get("cost_variance") {
                Some("none") => {
                    out.retain(|k| {
                        matches!(k, ScheduleKind::StaticBlock | ScheduleKind::StaticCyclic)
                    });
                }
                Some("high") => {
                    out.retain(|k| {
                        matches!(
                            k,
                            ScheduleKind::SelfSched(_)
                                | ScheduleKind::Factoring
                                | ScheduleKind::Guided
                                | ScheduleKind::Trapezoid
                                | ScheduleKind::Affinity
                        )
                    });
                }
                _ => {}
            }
            if h.get("cost_trend") == Some("monotonic") {
                out.retain(|k| {
                    matches!(
                        k,
                        ScheduleKind::Guided | ScheduleKind::Trapezoid | ScheduleKind::Factoring
                    )
                });
            }
        }
        if out.is_empty() {
            // Hints must narrow, never wedge: fall back to the portfolio.
            portfolio.to_vec()
        } else {
            out
        }
    }

    /// Locality-domain affinity at a point: the `home_domain` carried by
    /// the highest-priority `DataLocality` hint aimed at the runtime
    /// (emitted by [`crate::locality::affinity_hints`] from observed steal
    /// traffic, or written by a domain expert). The runtime applies it by
    /// invoking the point's LGT with `Htvm::lgt_in(DomainId(d), …)`.
    ///
    /// `num_domains` is the *current* pool's domain count: hints recorded
    /// under a different topology (their `num_domains` fingerprint
    /// disagrees) or naming an out-of-range domain are skipped — a stale
    /// persisted hint must degrade to "no preference", never panic the
    /// spawn or pin the subtree somewhere semantically unrelated.
    pub fn home_domain(&self, point: &str, num_domains: usize) -> Option<u64> {
        self.hints_at(point)
            .iter()
            .filter(|h| h.category == HintCategory::DataLocality && h.target == HintTarget::Runtime)
            .filter(|h| match h.get("num_domains") {
                Some(n) => n.parse() == Ok(num_domains),
                None => true, // hand-written hints may omit the fingerprint
            })
            .find_map(|h| {
                h.get("home_domain")
                    .and_then(|v| v.parse().ok())
                    .filter(|&d: &u64| (d as usize) < num_domains)
            })
    }

    /// Monitoring priorities at a point (keys of `watch = …` hints aimed at
    /// the monitor).
    pub fn monitor_priorities(&self, point: &str) -> Vec<String> {
        self.hints_at(point)
            .iter()
            .filter(|h| h.target == HintTarget::Monitor)
            .filter_map(|h| h.get("watch").map(str::to_string))
            .collect()
    }

    /// Serialize to a line-oriented text format, so the knowledge database
    /// persists *across executions* — the paper's database is "an
    /// integrated part" of the system, not per-run scratch. The format is
    /// one record per line:
    ///
    /// ```text
    /// hint <TAB> point <TAB> category <TAB> target <TAB> priority <TAB> k=v;k=v
    /// outcome <TAB> point <TAB> policy <TAB> makespan
    /// ```
    ///
    /// Returns an error if any key/value contains a delimiter character
    /// (tab, newline, `;`, `=`), rather than producing ambiguous output.
    pub fn to_text(&self) -> Result<String, String> {
        let check = |s: &str| -> Result<(), String> {
            if s.contains(['\t', '\n', ';', '=']) {
                Err(format!("unserializable token `{s}` (contains a delimiter)"))
            } else {
                Ok(())
            }
        };
        let mut out = String::new();
        for (point, hints) in &self.hints {
            check(point)?;
            for h in hints {
                let kv =
                    h.kv.iter()
                        .map(|(k, v)| {
                            check(k)?;
                            check(v)?;
                            Ok(format!("{k}={v}"))
                        })
                        .collect::<Result<Vec<_>, String>>()?
                        .join(";");
                out.push_str(&format!(
                    "hint\t{point}\t{:?}\t{:?}\t{}\t{kv}\n",
                    h.category, h.target, h.priority
                ));
            }
        }
        for (point, policies) in &self.outcomes {
            for (policy, makespan) in policies {
                check(point)?;
                check(policy)?;
                out.push_str(&format!("outcome\t{point}\t{policy}\t{makespan}\n"));
            }
        }
        Ok(out)
    }

    /// Parse the [`KnowledgeBase::to_text`] format. Unknown line kinds or
    /// malformed records are errors (a corrupt database must not be
    /// silently half-loaded).
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut kb = Self::new();
        for (no, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["hint", point, category, target, priority, kv] => {
                    let category = match *category {
                        "DataLocality" => HintCategory::DataLocality,
                        "MonitoringPriority" => HintCategory::MonitoringPriority,
                        "AccessPattern" => HintCategory::AccessPattern,
                        "ComputationPattern" => HintCategory::ComputationPattern,
                        other => return Err(format!("line {}: bad category `{other}`", no + 1)),
                    };
                    let target = match *target {
                        "AdaptiveCompiler" => HintTarget::AdaptiveCompiler,
                        "Runtime" => HintTarget::Runtime,
                        "Monitor" => HintTarget::Monitor,
                        other => return Err(format!("line {}: bad target `{other}`", no + 1)),
                    };
                    let priority: u32 = priority
                        .parse()
                        .map_err(|_| format!("line {}: bad priority `{priority}`", no + 1))?;
                    let kv = kv
                        .split(';')
                        .filter(|p| !p.is_empty())
                        .map(|pair| {
                            pair.split_once('=')
                                .map(|(k, v)| (k.to_string(), v.to_string()))
                                .ok_or_else(|| format!("line {}: bad pair `{pair}`", no + 1))
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    kb.add_hint(point, StructuredHint::new(category, target, priority, kv));
                }
                ["outcome", point, policy, makespan] => {
                    let m: u64 = makespan
                        .parse()
                        .map_err(|_| format!("line {}: bad makespan `{makespan}`", no + 1))?;
                    kb.record_outcome(point, policy, m);
                }
                _ => return Err(format!("line {}: unrecognized record", no + 1)),
            }
        }
        Ok(kb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb_with(point: &str, kv: &[(&str, &str)], category: HintCategory) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.add_hint(
            point,
            StructuredHint::new(
                category,
                HintTarget::AdaptiveCompiler,
                10,
                kv.iter().map(|(k, v)| (k.to_string(), v.to_string())),
            ),
        );
        kb
    }

    #[test]
    fn no_hints_keeps_portfolio() {
        let kb = KnowledgeBase::new();
        let pruned = kb.prune_schedules("loop1", &ScheduleKind::PORTFOLIO);
        assert_eq!(pruned.len(), ScheduleKind::PORTFOLIO.len());
    }

    #[test]
    fn high_variance_drops_static() {
        let kb = kb_with(
            "loop1",
            &[("cost_variance", "high")],
            HintCategory::ComputationPattern,
        );
        let pruned = kb.prune_schedules("loop1", &ScheduleKind::PORTFOLIO);
        assert!(!pruned.contains(&ScheduleKind::StaticBlock));
        assert!(!pruned.contains(&ScheduleKind::StaticCyclic));
        assert!(!pruned.is_empty());
    }

    #[test]
    fn no_variance_keeps_only_static() {
        let kb = kb_with(
            "loop1",
            &[("cost_variance", "none")],
            HintCategory::ComputationPattern,
        );
        let pruned = kb.prune_schedules("loop1", &ScheduleKind::PORTFOLIO);
        assert_eq!(
            pruned,
            vec![ScheduleKind::StaticBlock, ScheduleKind::StaticCyclic]
        );
    }

    #[test]
    fn expert_override_selects_exactly() {
        let kb = kb_with(
            "loop1",
            &[("schedule", "guided")],
            HintCategory::ComputationPattern,
        );
        let pruned = kb.prune_schedules("loop1", &ScheduleKind::PORTFOLIO);
        assert_eq!(pruned, vec![ScheduleKind::Guided]);
    }

    #[test]
    fn contradictory_hints_fall_back_to_portfolio() {
        let mut kb = kb_with(
            "loop1",
            &[("cost_variance", "none")],
            HintCategory::ComputationPattern,
        );
        kb.add_hint(
            "loop1",
            StructuredHint::new(
                HintCategory::ComputationPattern,
                HintTarget::AdaptiveCompiler,
                5,
                [("cost_trend".to_string(), "monotonic".to_string())],
            ),
        );
        // none → static only; monotonic → guided/trapezoid/factoring only:
        // intersection empty → full portfolio (hints never wedge).
        let pruned = kb.prune_schedules("loop1", &ScheduleKind::PORTFOLIO);
        assert_eq!(pruned.len(), ScheduleKind::PORTFOLIO.len());
    }

    #[test]
    fn priority_orders_hints() {
        let mut kb = KnowledgeBase::new();
        kb.add_hint(
            "p",
            StructuredHint::new(HintCategory::DataLocality, HintTarget::Runtime, 1, []),
        );
        kb.add_hint(
            "p",
            StructuredHint::new(HintCategory::DataLocality, HintTarget::Runtime, 9, []),
        );
        let hs = kb.hints_at("p");
        assert_eq!(hs[0].priority, 9);
    }

    #[test]
    fn outcomes_feed_back() {
        let mut kb = KnowledgeBase::new();
        kb.record_outcome("loop1", "guided", 1_000);
        kb.record_outcome("loop1", "static-block", 1_500);
        let (best, m) = kb.best_recorded("loop1").unwrap();
        assert_eq!(best, "guided");
        assert_eq!(m, 1_000);
        assert!(kb.best_recorded("other").is_none());
    }

    #[test]
    fn text_round_trip_preserves_everything() {
        let mut kb = KnowledgeBase::new();
        kb.add_hint(
            "loop1",
            StructuredHint::new(
                HintCategory::ComputationPattern,
                HintTarget::AdaptiveCompiler,
                10,
                [("cost_trend".to_string(), "monotonic".to_string())],
            ),
        );
        kb.add_hint(
            "loop2",
            StructuredHint::new(HintCategory::DataLocality, HintTarget::Runtime, 3, []),
        );
        kb.record_outcome("loop1", "trapezoid", 12_802);
        kb.record_outcome("loop1", "static-block", 24_205);

        let text = kb.to_text().unwrap();
        let back = KnowledgeBase::from_text(&text).unwrap();
        assert_eq!(back.hints_at("loop1").len(), 1);
        assert_eq!(
            back.hints_at("loop1")[0].get("cost_trend"),
            Some("monotonic")
        );
        assert_eq!(back.hints_at("loop2")[0].priority, 3);
        assert_eq!(back.best_recorded("loop1"), Some(("trapezoid", 12_802)));
        // Round-tripping again is a fixed point.
        assert_eq!(back.to_text().unwrap(), text);
    }

    #[test]
    fn loaded_outcomes_short_circuit_search() {
        use crate::continuous::{ContinuousCompiler, PartialSchedule};
        use crate::loop_sched::{CostModel, IterationCosts};
        // First process: search and persist.
        let costs = IterationCosts::Decreasing.generate(400, 100, 3);
        let mut first = ContinuousCompiler::new();
        let out1 = first.complete(
            &PartialSchedule::full("k"),
            &costs,
            8,
            &CostModel::default(),
        );
        assert!(out1.trials > 0);
        let saved = first.kb.to_text().unwrap();
        // Second process: load the database; no trials needed.
        let mut second = ContinuousCompiler {
            kb: KnowledgeBase::from_text(&saved).unwrap(),
        };
        let out2 = second.complete(
            &PartialSchedule::full("k"),
            &costs,
            8,
            &CostModel::default(),
        );
        assert_eq!(out2.trials, 0, "persisted knowledge must be reused");
        assert_eq!(out2.policy, out1.policy);
    }

    #[test]
    fn corrupt_text_is_rejected() {
        assert!(KnowledgeBase::from_text("garbage\tline").is_err());
        assert!(KnowledgeBase::from_text("hint\tp\tNope\tRuntime\t1\t").is_err());
        assert!(KnowledgeBase::from_text("outcome\tp\tpolicy\tNaN").is_err());
        // Empty and blank-line input is fine.
        assert!(KnowledgeBase::from_text("\n\n").is_ok());
    }

    #[test]
    fn delimiters_in_keys_are_unserializable() {
        let mut kb = KnowledgeBase::new();
        kb.add_hint(
            "p",
            StructuredHint::new(
                HintCategory::AccessPattern,
                HintTarget::Runtime,
                1,
                [("bad;key".to_string(), "v".to_string())],
            ),
        );
        assert!(kb.to_text().is_err());
    }

    #[test]
    fn home_domain_reads_highest_priority_locality_hint() {
        let mut kb = KnowledgeBase::new();
        assert_eq!(kb.home_domain("main", 4), None);
        kb.add_hint(
            "main",
            StructuredHint::new(
                HintCategory::DataLocality,
                HintTarget::Runtime,
                3,
                [("home_domain".to_string(), "0".to_string())],
            ),
        );
        kb.add_hint(
            "main",
            StructuredHint::new(
                HintCategory::DataLocality,
                HintTarget::Runtime,
                9,
                [("home_domain".to_string(), "2".to_string())],
            ),
        );
        // A locality hint aimed elsewhere must not shadow the runtime one.
        kb.add_hint(
            "main",
            StructuredHint::new(
                HintCategory::DataLocality,
                HintTarget::Monitor,
                99,
                [("home_domain".to_string(), "7".to_string())],
            ),
        );
        assert_eq!(kb.home_domain("main", 4), Some(2));
        assert_eq!(kb.home_domain("other", 4), None);
        // An out-of-range index falls through to the next valid hint.
        assert_eq!(kb.home_domain("main", 2), Some(0));
        assert_eq!(kb.home_domain("main", 1), Some(0));
    }

    #[test]
    fn home_domain_rejects_stale_topology_fingerprints() {
        use crate::locality::{affinity_hints, AffinityThresholds, DomainTraffic};
        // Observed under a flat(8)-style topology: 8 singleton domains,
        // busiest is domain 7.
        let mut executed = vec![10u64; 8];
        executed[7] = 500;
        let traffic = DomainTraffic::new(executed, vec![0; 8], {
            let mut r = vec![0u64; 8];
            r[7] = 40;
            r
        });
        let mut kb = KnowledgeBase::new();
        for h in affinity_hints(&traffic, &AffinityThresholds::default()) {
            kb.add_hint("main", h);
        }
        // Same topology: the hint applies.
        assert_eq!(kb.home_domain("main", 8), Some(7));
        // Re-run under a 2-domain pool: dom7 is meaningless there — the
        // stale hint must degrade to "no preference", not panic lgt_in.
        assert_eq!(kb.home_domain("main", 2), None);
    }

    #[test]
    fn steal_traffic_round_trips_into_the_knowledge_base() {
        use crate::locality::{affinity_hints, AffinityThresholds, DomainTraffic};
        // A flat-topology run: every steal is remote → the hint system
        // proposes pinning the subtree to the busiest domain.
        let traffic = DomainTraffic::new(vec![30, 400, 20], vec![0, 0, 0], vec![25, 3, 12]);
        let mut kb = KnowledgeBase::new();
        for h in affinity_hints(&traffic, &AffinityThresholds::default()) {
            kb.add_hint("md_force_pass", h);
        }
        assert_eq!(kb.home_domain("md_force_pass", 3), Some(1));
        assert_eq!(
            kb.monitor_priorities("md_force_pass"),
            vec!["remote_steals"]
        );
        // And it survives persistence like every other hint.
        let back = KnowledgeBase::from_text(&kb.to_text().unwrap()).unwrap();
        assert_eq!(back.home_domain("md_force_pass", 3), Some(1));
    }

    #[test]
    fn monitor_priorities_extracted() {
        let mut kb = KnowledgeBase::new();
        kb.add_hint(
            "p",
            StructuredHint::new(
                HintCategory::MonitoringPriority,
                HintTarget::Monitor,
                5,
                [("watch".to_string(), "remote_accesses".to_string())],
            ),
        );
        kb.add_hint(
            "p",
            StructuredHint::new(
                HintCategory::AccessPattern,
                HintTarget::Runtime,
                5,
                [("watch".to_string(), "ignored".to_string())],
            ),
        );
        assert_eq!(kb.monitor_priorities("p"), vec!["remote_accesses"]);
    }
}
