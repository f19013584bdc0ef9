//! Workload `md-step`: repeated calls of
//! `htvm_apps::md::parallel::run_md_parallel_topo` on the e15 quick
//! system (450 waters, 8 ion pairs, 30 protein beads, seeded through
//! `SystemSpec::seed`) over a `Topology::domains(2, 1)` pool, each call a
//! fixed number of velocity-Verlet steps. Calls alternate two grains:
//!
//! * `a`, `MdGrain::PerCell`: one LGT per force pass fans out one SGT per
//!   occupied cell (hundreds), so deque push/pop/steal and LGT join cost
//!   show;
//! * `b`, `MdGrain::Chunks(4)`: the coarse decomposition, four SGTs per
//!   pass, so the force kernel dominates.
//!
//! Serving does no work here.

use std::time::{Duration, Instant};

use htvm_apps::md::forces::force_on_particle;
use htvm_apps::md::integrate::{run_md, Thermostat};
use htvm_apps::md::parallel::{run_md_parallel_topo, MdGrain, MdRunReport};
use htvm_apps::md::{CellList, ForceParams, MdSystem, SystemSpec};
use htvm_core::Topology;

use crate::alloc;
use crate::report::Report;
use crate::stats::{median, median_of, pct};

/// Steps per call.
pub const STEPS: usize = 4;
const DT: f64 = 0.001;
/// The two grains: (label, grain).
pub const GRAINS: [(&str, MdGrain); 2] = [
    ("percell", MdGrain::PerCell),
    ("chunks4", MdGrain::Chunks(4)),
];
/// Relative tolerance against the sequential reference potential: the
/// parallel pass sums per-particle shares in a different order.
pub const REL_TOL: f64 = 1e-12;

/// The e15 quick system, seeded.
pub fn spec(seed: u64) -> SystemSpec {
    SystemSpec {
        box_len: 12.0,
        waters: 450,
        ion_pairs: 8,
        protein_beads: 30,
        seed,
        ..SystemSpec::default()
    }
}

/// A call's final potential is correct when it is within [`REL_TOL`] of
/// the sequential reference and bitwise equal to the first call of the
/// same grain (the parallel pass is deterministic).
pub fn check_potential(potential: f64, sequential: f64, first: Option<f64>) -> Result<(), String> {
    let rel = (potential - sequential).abs() / sequential.abs().max(f64::MIN_POSITIVE);
    if rel.is_nan() || rel > REL_TOL {
        return Err(format!(
            "potential {potential:e} differs from sequential {sequential:e} by {rel:e} relative"
        ));
    }
    match first {
        Some(f) if f.to_bits() != potential.to_bits() => Err(format!(
            "potential {potential:e} not bitwise equal to the first call's {f:e}"
        )),
        _ => Ok(()),
    }
}

/// Everything built before the clock starts.
pub struct Env {
    system: MdSystem,
    params: ForceParams,
    sequential: f64,
}

/// Build the system and compute the sequential reference potential.
pub fn setup(seed: u64) -> Env {
    let system = MdSystem::build(&spec(seed));
    let params = ForceParams::default();
    let mut s = system.clone();
    let (sequential, _) = run_md(&mut s, &params, DT, STEPS, Thermostat::None);
    Env {
        system,
        params,
        sequential,
    }
}

fn call(env: &Env, grain: MdGrain) -> (MdRunReport, Duration) {
    let sys = env.system.clone();
    let t = Instant::now();
    let rep = run_md_parallel_topo(
        sys,
        &env.params,
        DT,
        STEPS,
        Topology::domains(2, 1),
        grain,
        Thermostat::None,
    );
    (rep, t.elapsed())
}

/// Call alternately with each grain for `span` (and until each grain has
/// `min_each` calls), check every potential, and report.
///
/// End-to-end slots: `a_p50_us` = per-cell step time p50, `b_p50_us` =
/// chunks(4) step time p50 (a call's wall time over its steps),
/// `md.steps_per_s` is steps per second over all calls.
pub fn run(env: &Env, span: Duration, min_each: usize, traced: bool) -> Report {
    let mut r = Report::default();
    let mut step_us: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
    let mut first: [Option<f64>; 2] = [None, None];
    // Per-cell call internals (traced): SGTs, steals, imbalance, allocs,
    // pool creation.
    let mut inside: Vec<[f64; 6]> = Vec::new();
    let t0 = Instant::now();
    let hard_stop = t0 + span * 3;
    let mut busy = Duration::ZERO;
    let mut k = 0usize;
    loop {
        let now = Instant::now();
        let enough = step_us.iter().all(|s| s.len() >= min_each);
        if (now >= t0 + span && enough) || now >= hard_stop {
            break;
        }
        let g = k % GRAINS.len();
        k += 1;
        r.attempted += 1;
        let a0 = alloc::count();
        let (rep, wall) = call(env, GRAINS[g].1);
        let allocs = alloc::count() - a0;
        busy += wall;
        if let Err(e) = check_potential(rep.potential, env.sequential, first[g]) {
            r.fail_check(1, format!("{}: {e}", GRAINS[g].0));
            continue;
        }
        first[g].get_or_insert(rep.potential);
        step_us[g].push(wall.as_secs_f64() * 1e6 / STEPS as f64);
        if traced && g == 0 {
            let steps = STEPS as f64;
            inside.push([
                rep.sgt_count as f64 / steps,
                rep.pool.total_local_steals() as f64 / steps,
                rep.pool.total_remote_steals() as f64 / steps,
                rep.pool.imbalance(),
                allocs as f64 / steps,
                (wall.saturating_sub(rep.elapsed)).as_secs_f64() * 1e3,
            ]);
        }
    }
    let done: usize = step_us.iter().map(Vec::len).sum();
    r.put("a_p50_us", pct(&step_us[0], 0.5), "us");
    r.put("b_p50_us", pct(&step_us[1], 0.5), "us");
    r.put(
        "md.steps_per_s",
        (done * STEPS) as f64 / busy.as_secs_f64(),
        "1/s",
    );
    r.put("step_p90_ms", pct(&step_us[0], 0.9) / 1e3, "ms");
    if traced {
        // Medians over the per-cell calls (each row is one call).
        let col = |c: usize| -> f64 {
            let v: Vec<f64> = inside.iter().map(|row| row[c]).collect();
            if v.is_empty() {
                f64::NAN
            } else {
                median(&v)
            }
        };
        r.put("md.sgts_per_step", col(0), "count");
        r.put("md.steals_local_per_step", col(1), "count");
        r.put("md.steals_remote_per_step", col(2), "count");
        r.put("md.imbalance", col(3), "cv");
        r.put("md.allocs_per_step", col(4), "count");
        r.put("md.pool_create_ms", col(5), "ms");
        let seq_ms = seq_step_ms(env);
        r.put("md.seq_step_ms", seq_ms, "ms");
        r.put("md.speedup", seq_ms * 1e3 / pct(&step_us[0], 0.5), "x");
        let (build_ms, force_ms) = cellbuild_and_force_ms(env);
        r.put("md.cellbuild_ms", build_ms, "ms");
        r.put("md.force_seq_ms", force_ms, "ms");
    }
    r
}

/// Sequential `run_md` of the same call: median ms per step.
fn seq_step_ms(env: &Env) -> f64 {
    median_of(5, || {
        let mut s = env.system.clone();
        let t = Instant::now();
        std::hint::black_box(run_md(&mut s, &env.params, DT, STEPS, Thermostat::None));
        t.elapsed().as_secs_f64() * 1e3 / STEPS as f64
    })
}

/// `CellList::build` and one sequential `force_on_particle` pass over
/// every particle: median ms of each.
fn cellbuild_and_force_ms(env: &Env) -> (f64, f64) {
    let sys = &env.system;
    let cutoff = env.params.cutoff;
    let build = median_of(21, || {
        let t = Instant::now();
        std::hint::black_box(CellList::build(sys, cutoff));
        t.elapsed().as_secs_f64() * 1e3
    });
    let cl = CellList::build(sys, cutoff);
    let force = median_of(11, || {
        let t = Instant::now();
        for i in 0..sys.len() {
            std::hint::black_box(force_on_particle(sys, &cl, &env.params, i));
        }
        t.elapsed().as_secs_f64() * 1e3
    });
    (build, force)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_potential_rejects_corrupted_potentials() {
        let seq = -1234.5678;
        let close = seq * (1.0 + 1e-14);
        assert!(check_potential(close, seq, None).is_ok());
        assert!(check_potential(close, seq, Some(close)).is_ok());
        // Off by far more than the tolerance.
        assert!(check_potential(seq * (1.0 + 1e-9), seq, None).is_err());
        // Within tolerance but not bitwise equal to the first call.
        assert!(check_potential(close, seq, Some(seq)).is_err());
        assert!(check_potential(f64::NAN, seq, None).is_err());
    }

    #[test]
    fn parallel_calls_match_the_sequential_reference() {
        let env = setup(5);
        let r = run(&env, Duration::from_millis(10), 2, true);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        assert!(r.get("md.sgts_per_step").unwrap() > 10.0);
    }
}
