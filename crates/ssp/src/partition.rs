//! Partitioning software-pipelined code into threads — the paper's novel
//! proposal (§3.3): "the software pipelined code is partitioned into
//! threads, each thread composed of several iterations of the selected
//! loop level. The approach is unique in that it exploits instruction-level
//! and thread-level parallelism simultaneously."
//!
//! A [`PartitionPlan`] splits the `N_ℓ` iterations of the pipelined level
//! into `T` contiguous groups. Each group runs the SSP kernel over its
//! iterations on its own thread (SGT). If any dependence is carried at the
//! pipelined level, group `t+1` may only start its first `d` iterations
//! after group `t` finishes its last — a signal wavefront; otherwise the
//! groups are fully independent.
//!
//! [`ThreadedSspModel`] is the analytic cost model; experiment E8 also
//! executes plans on the `htvm-sim` machine (see `htvm-bench`).

use crate::ssp::LevelPlan;

/// A split of the pipelined level's iterations into thread groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Number of threads.
    pub threads: u64,
    /// Iterations of the pipelined level per thread (last may be short).
    pub group: u64,
    /// Whether a level-carried dependence forces a start-up wave between
    /// adjacent groups.
    pub wavefront: bool,
    /// Maximum level-carried distance (wave depth).
    pub max_distance: u64,
}

impl PartitionPlan {
    /// Split `n_l` iterations over `threads` threads given the level plan's
    /// dependence structure.
    pub fn new(plan: &LevelPlan, n_l: u64, threads: u64) -> Self {
        let threads = threads.clamp(1, n_l.max(1));
        let group = n_l.div_ceil(threads);
        let max_distance = plan.max_carried_distance;
        Self {
            threads,
            group,
            wavefront: max_distance > 0,
            max_distance,
        }
    }

    /// Groups the split forms over `n_l` iterations: `group` each, the
    /// last possibly short.
    pub fn groups(&self, n_l: u64) -> u64 {
        n_l.div_ceil(self.group.max(1))
    }
}

/// Analytic model of SSP + threading.
#[derive(Debug, Clone)]
pub struct ThreadedSspModel {
    /// Cycles for one thread to process `g` level-iterations:
    /// `slice + (g − 1) × II` plus the saturation bound scaled to the
    /// thread's share of the machine.
    pub per_thread_cycles: u64,
    /// Total modelled cycles including the wavefront delay and spawn
    /// overhead.
    pub total_cycles: u64,
    /// Parallel speedup over the single-thread SSP schedule.
    pub speedup: f64,
}

impl ThreadedSspModel {
    /// Model running `plan` (for a nest whose pipelined level has `n_l`
    /// iterations and `outer` sequential repetitions) on `threads` thread
    /// units, each with its own functional units, with `spawn_cost` cycles
    /// to start each thread.
    ///
    /// The single-unit resource bound does not shrink with threads —
    /// each thread unit brings its own units, so saturation divides by T.
    pub fn evaluate(
        plan: &LevelPlan,
        outer: u64,
        n_l: u64,
        inner: u64,
        res_mii: u64,
        threads: u64,
        spawn_cost: u64,
    ) -> ThreadedSspModel {
        let part = PartitionPlan::new(plan, n_l, threads);
        let g = part.group;
        let ii = plan.schedule.ii;
        let slice = plan.slice_len;

        // One group on one unit.
        let saturation = g * inner * res_mii;
        let path = slice + g.saturating_sub(1) * ii;
        let per_thread = saturation.max(path);

        // Wavefront: group t starts after group t-1 produced its boundary
        // values — one slice-depth delay per hop for carried deps.
        let wave_delay = if part.wavefront {
            (part.threads - 1) * per_thread.min(g * ii + slice)
        } else {
            0
        };
        let startup = spawn_cost * part.threads;
        let total = outer * (per_thread + wave_delay) + startup;

        let single = {
            let sat1 = n_l * inner * res_mii;
            let path1 = slice + n_l.saturating_sub(1) * ii;
            outer * sat1.max(path1)
        };
        ThreadedSspModel {
            per_thread_cycles: per_thread,
            total_cycles: total,
            speedup: single as f64 / total as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LoopNest;
    use crate::ssp::{schedule_level, SspConfig};

    fn matmul_plan() -> (LoopNest, LevelPlan) {
        let nest = LoopNest::matmul_like(64, 16, 16);
        let plan = schedule_level(&nest, 0, &SspConfig::default()).unwrap();
        (nest, plan)
    }

    #[test]
    fn partition_splits_evenly() {
        let (_, plan) = matmul_plan();
        let p = PartitionPlan::new(&plan, 64, 4);
        assert_eq!(p.threads, 4);
        assert_eq!(p.group, 16);
    }

    #[test]
    fn partition_clamps_threads_to_iterations() {
        let (_, plan) = matmul_plan();
        let p = PartitionPlan::new(&plan, 8, 100);
        assert_eq!(p.threads, 8);
        assert_eq!(p.group, 1);
    }

    #[test]
    fn parallel_level_has_no_wavefront() {
        let (_, plan) = matmul_plan();
        let p = PartitionPlan::new(&plan, 64, 4);
        assert!(!p.wavefront, "i-level of matmul carries no dependence");
    }

    #[test]
    fn stencil_time_level_has_wavefront() {
        let nest = LoopNest::stencil_like(32, 64);
        let plan = schedule_level(&nest, 0, &SspConfig::default()).unwrap();
        let p = PartitionPlan::new(&plan, 32, 4);
        assert!(p.wavefront, "time level carries the recurrence");
    }

    #[test]
    fn threading_scales_parallel_levels() {
        let (nest, plan) = matmul_plan();
        let inner: u64 = nest.trip_counts[1..].iter().product();
        let m1 = ThreadedSspModel::evaluate(&plan, 1, 64, inner, 2, 1, 120);
        let m8 = ThreadedSspModel::evaluate(&plan, 1, 64, inner, 2, 8, 120);
        assert!(
            m8.speedup > 4.0,
            "8 threads on a parallel level: speedup {:.2}",
            m8.speedup
        );
        assert!(m8.total_cycles < m1.total_cycles);
    }

    #[test]
    fn threading_saturates_with_diminishing_returns() {
        let (nest, plan) = matmul_plan();
        let inner: u64 = nest.trip_counts[1..].iter().product();
        let m32 = ThreadedSspModel::evaluate(&plan, 1, 64, inner, 2, 32, 120);
        let m64 = ThreadedSspModel::evaluate(&plan, 1, 64, inner, 2, 64, 120);
        let marginal = m32.total_cycles as f64 / m64.total_cycles as f64;
        assert!(
            marginal < 2.0,
            "doubling threads at saturation must not double speed"
        );
    }

    #[test]
    fn wavefront_limits_speedup() {
        let nest = LoopNest::stencil_like(32, 64);
        let plan = schedule_level(&nest, 0, &SspConfig::default()).unwrap();
        let m8 = ThreadedSspModel::evaluate(&plan, 1, 32, 64, 2, 8, 120);
        let nest2 = LoopNest::stencil_like(32, 64);
        let free = schedule_level(&nest2, 1, &SspConfig::default()).unwrap();
        let f8 = ThreadedSspModel::evaluate(&free, 32, 64, 1, 2, 8, 120);
        assert!(
            f8.speedup > m8.speedup,
            "space-parallel partition ({:.2}×) should beat wavefront ({:.2}×)",
            f8.speedup,
            m8.speedup
        );
    }

    #[test]
    fn spawn_cost_matters_for_tiny_groups() {
        let (nest, plan) = matmul_plan();
        let inner: u64 = nest.trip_counts[1..].iter().product();
        let cheap = ThreadedSspModel::evaluate(&plan, 1, 64, inner, 2, 64, 10);
        let costly = ThreadedSspModel::evaluate(&plan, 1, 64, inner, 2, 64, 100_000);
        assert!(costly.total_cycles > cheap.total_cycles);
        assert!(costly.speedup < cheap.speedup);
    }
}
