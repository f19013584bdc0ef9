//! A1–A4: ablations of the design choices DESIGN.md §6 calls out.
//!
//! Where the E-series experiments reproduce the paper's claims, these
//! sweeps isolate single mechanisms: each varies exactly one knob of a
//! design decision and reports where the decision stops/starts paying.

use htvm_sim::{strided_kernel, Engine, GAddr, MachineConfig, Placement, SignalId, SpawnClass};
use litlx::percolate::{PercolateKernel, PercolationPlan};

use htvm_adapt::loop_sched::{evaluate_schedule, CostModel, IterationCosts, ScheduleKind};

use super::Scale;
use crate::table::{f2, f3, Table};

/// A1 — context-switch cost sweep: at what switch cost does hardware
/// multithreading stop hiding memory latency? (Ablates E1's in-stream vs
/// OS-weight dichotomy into a full curve; paper §3.2 bullet 1.)
pub fn a1_switch_cost(scale: Scale) -> Table {
    let mut t = Table::new(
        "A1 switch-cost ablation: throughput vs per-switch cycles (8 hw threads, 8x DRAM)",
        &["switch_cost", "accesses/kcyc", "vs_free_switch"],
    );
    let iters = scale.pick(60, 400);
    let sweep: Vec<u64> = scale.pick(
        vec![1, 16, 256, 4096],
        vec![1, 4, 16, 64, 256, 1024, 4096, 16384],
    );
    let mut base = 0.0f64;
    for &sc in &sweep {
        let mut cfg = MachineConfig::small();
        cfg.units_per_node = 1;
        cfg.hw_threads_per_unit = 8;
        cfg.switch_cost = sc;
        let mut e = Engine::new(cfg);
        e.memory_mut().set_dram_latency_scale(8.0);
        for k in 0..8u64 {
            let kern = strided_kernel(iters, 10, GAddr::dram(0, k * (1 << 20)), 64, 8);
            e.spawn(Placement::Unit(0, 0), SpawnClass::Sgt, Box::new(kern));
        }
        let s = e.run();
        let thr = s.total_accesses() as f64 / (s.now.max(1) as f64 / 1000.0);
        if sc == sweep[0] {
            base = thr;
        }
        t.row(&[sc.to_string(), f2(thr), f2(thr / base.max(1e-9))]);
    }
    t
}

/// A2 — chunk-size ablation for self-scheduling: the overhead/imbalance
/// trade-off that motivates guided/trapezoid/factoring chunk laws
/// (paper §3.3).
pub fn a2_chunk_size(scale: Scale) -> Table {
    let mut t = Table::new(
        "A2 chunk-size ablation: self-sched(k), makespan vs k",
        &["distribution", "k", "makespan", "chunks", "imbalance"],
    );
    let n = scale.pick(400, 2_000);
    let workers = 16;
    let model = CostModel::default();
    let ks: Vec<u64> = scale.pick(vec![1, 8, 64], vec![1, 2, 4, 8, 16, 32, 64, 128]);
    for dist in [IterationCosts::Random, IterationCosts::Bimodal] {
        let costs = dist.generate(n, 100, 13);
        for &k in &ks {
            let out = evaluate_schedule(ScheduleKind::SelfSched(k), &costs, workers, &model);
            t.row(&[
                dist.name().to_string(),
                k.to_string(),
                out.makespan.to_string(),
                out.chunks.to_string(),
                f3(out.imbalance),
            ]);
        }
    }
    t
}

/// A3 — percolation depth × DRAM latency grid: prestaging depth needed to
/// hide a given latency (paper §3.2's percolation, beyond E4's single
/// latency point).
pub fn a3_percolation_grid(scale: Scale) -> Table {
    let mut t = Table::new(
        "A3 percolation grid: makespan by prestage depth × DRAM latency",
        &["lat_scale", "depth", "cycles", "speedup_vs_demand"],
    );
    let tiles = scale.pick(16u64, 64);
    let depths: Vec<u64> = scale.pick(vec![0, 1, 2, 4], vec![0, 1, 2, 3, 4, 8]);
    let lats: Vec<f64> = scale.pick(vec![1.0, 8.0], vec![1.0, 2.0, 4.0, 8.0, 16.0]);
    for &lat in &lats {
        let mut demand = 0u64;
        for &depth in &depths {
            let mut cfg = MachineConfig::small();
            cfg.hw_threads_per_unit = 16;
            let mut e = Engine::new(cfg);
            e.memory_mut().set_dram_latency_scale(lat);
            let plan = PercolationPlan {
                src_base: GAddr::dram(0, 0),
                tile_bytes: 4096,
                tiles,
                compute_per_tile: 120,
                depth,
            };
            let k = PercolateKernel::new(plan, SignalId(500));
            e.spawn(Placement::Unit(0, 0), SpawnClass::Sgt, Box::new(k));
            let s = e.run();
            if depth == depths[0] {
                demand = s.now;
            }
            t.row(&[
                format!("{lat:.0}x"),
                depth.to_string(),
                s.now.to_string(),
                f2(demand as f64 / s.now.max(1) as f64),
            ]);
        }
    }
    t
}

/// A4 — grain-size crossover: overhead fraction of running N independent
/// tasks at each thread class, by task size. Quantifies §3.1.1's rule of
/// thumb that grain class must match task weight.
pub fn a4_grain_crossover(scale: Scale) -> Table {
    let mut t = Table::new(
        "A4 grain crossover: overhead of thread class vs task size",
        &["task_cycles", "class", "makespan", "overhead_frac"],
    );
    let tasks = scale.pick(32u64, 128);
    let sizes: Vec<u64> = scale.pick(
        vec![50, 1_000, 20_000],
        vec![50, 200, 1_000, 5_000, 20_000, 100_000],
    );
    for &size in &sizes {
        for (class, name) in [
            (SpawnClass::Tgt, "TGT"),
            (SpawnClass::Sgt, "SGT"),
            (SpawnClass::Lgt, "LGT"),
        ] {
            let mut cfg = MachineConfig::small();
            cfg.units_per_node = 4;
            cfg.hw_threads_per_unit = 2;
            let mut e = Engine::new(cfg);
            // One spawner thread issues all tasks (spawn cost charged to
            // it, per class), tasks spread across units.
            let mut i = 0u64;
            e.spawn_closure(Placement::Unit(0, 0), move |_| {
                if i < tasks {
                    i += 1;
                    htvm_sim::Effect::Spawn {
                        task: Box::new(compute_task(size)),
                        place: Placement::AnyWhere,
                        class,
                    }
                } else {
                    htvm_sim::Effect::Done
                }
            });
            let s = e.run();
            // Ideal: compute spread over the 4 units (hardware threads
            // overlap latency, not compute), no spawn/reap costs.
            let ideal = (tasks * size) as f64 / 4.0;
            t.row(&[
                size.to_string(),
                name.to_string(),
                s.now.to_string(),
                f3((s.now as f64 - ideal).max(0.0) / ideal),
            ]);
        }
    }
    t
}

/// A single-burst compute task of `size` cycles (A4's unit of work).
fn compute_task(size: u64) -> impl FnMut(&mut htvm_sim::TaskCtx) -> htvm_sim::Effect + Send {
    let mut phase = 0u8;
    move |_| {
        if phase == 0 {
            phase = 1;
            htvm_sim::Effect::Compute(size)
        } else {
            htvm_sim::Effect::Done
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_high_switch_cost_kills_throughput() {
        let t = a1_switch_cost(Scale::Quick);
        let thr = t.column_f64("accesses/kcyc");
        assert!(
            thr.last().unwrap() * 4.0 < thr[0],
            "OS-weight switching must collapse throughput: {thr:?}"
        );
    }

    #[test]
    fn a2_extreme_chunks_lose_to_moderate() {
        let t = a2_chunk_size(Scale::Quick);
        let get = |dist: &str, k: &str| -> f64 {
            t.cell("makespan", |r| r[0] == dist && r[1] == k)
                .unwrap()
                .parse()
                .unwrap()
        };
        // k=1 pays maximal dispatch overhead; k=8 is cheaper on random.
        assert!(get("random", "8") < get("random", "1"));
    }

    #[test]
    fn a3_deeper_prestage_never_slower() {
        let t = a3_percolation_grid(Scale::Quick);
        let speedups = t.column_f64("speedup_vs_demand");
        assert!(speedups.iter().all(|&s| s >= 0.99), "{speedups:?}");
    }

    #[test]
    fn a4_lgt_overhead_shrinks_with_task_size() {
        let t = a4_grain_crossover(Scale::Quick);
        let lgt: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[1] == "LGT")
            .map(|r| r[3].parse().unwrap())
            .collect();
        assert!(
            lgt.last().unwrap() < &lgt[0],
            "LGT overhead fraction must fall as tasks grow: {lgt:?}"
        );
    }
}
