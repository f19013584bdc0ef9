//! Experiment implementations (DESIGN.md §5; results in EXPERIMENTS.md).
//!
//! Each `eNN_*` function builds the workload, runs every configuration of
//! its sweep, and returns a [`crate::Table`]. `Scale::Quick` shrinks the
//! sweep for integration tests; `Scale::Full` is what `htvm-bench` runs
//! unless given `--quick`. [`REGISTRY`] names every experiment the
//! binary can run.

pub mod ablations;
pub mod apps;
pub mod chaos;
pub mod domains;
pub mod elastic;
pub mod kernels;
pub mod machine;
pub mod sched;
pub mod serving;
pub mod ssp_native;

pub use ablations::{a1_switch_cost, a2_chunk_size, a3_percolation_grid, a4_grain_crossover};
pub use apps::{e14_neocortex, e15_md, e16_litlx};
pub use chaos::e21_chaos;
pub use domains::e17_domains;
pub use elastic::e20_elastic;
pub use kernels::kernels;
pub use machine::{
    e1_latency_tolerance, e2_parcels, e3_futures, e4_percolation, e5_spawn_costs, e5b_native_spawn,
    e5c_queue_ops,
};
pub use sched::{
    e10_locality, e11_latency_adapt, e12_hints, e13_monitor, e6_loop_sched, e7_ssp, e8_ssp_mt,
    e9_load_balance,
};
pub use serving::e19_serving;
pub use ssp_native::e18_ssp_native;

/// Sweep size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweep for tests (seconds).
    Quick,
    /// Full sweep for the reports.
    Full,
}

impl Scale {
    /// Pick `q` under Quick, `f` under Full.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

/// One registered experiment: its command-line id, one line for
/// `htvm-bench list`, and the sweep (most experiments return one table).
/// Ids are `eNN` for the paper tables, `aN` for the ablations and a word
/// for the microbenchmark tables.
pub type Experiment = (&'static str, &'static str, fn(Scale) -> Vec<crate::Table>);

/// Every experiment the `htvm-bench` binary can run, in report order.
/// `all` walks the `e` ids and `ablations` the `a` ids.
#[rustfmt::skip]
pub const REGISTRY: &[Experiment] = &[
    ("e1", "multithreading hides memory latency", |s| vec![e1_latency_tolerance(s)]),
    ("e2", "parcels vs per-element remote loads", |s| vec![e2_parcels(s)]),
    ("e3", "futures vs global barriers (native runtime)", |s| vec![e3_futures(s)]),
    ("e4", "percolation vs demand fetch", |s| vec![e4_percolation(s)]),
    ("e5", "grain spawn costs, pool wake latency (e5b), queue ops (e5c)",
        |s| vec![e5_spawn_costs(s), e5b_native_spawn(s), e5c_queue_ops(s)]),
    ("e6", "loop-scheduling portfolio under cost skew", |s| vec![e6_loop_sched(s)]),
    ("e7", "SSP level selection vs innermost modulo scheduling", |s| vec![e7_ssp(s)]),
    ("e8", "threaded SSP: speedup vs thread count", |s| vec![e8_ssp_mt(s)]),
    ("e9", "load adaptation: migration policies", |s| vec![e9_load_balance(s)]),
    ("e10", "locality adaptation: migration/replication", |s| vec![e10_locality(s)]),
    ("e11", "latency adaptation under latency drift", |s| vec![e11_latency_adapt(s)]),
    ("e12", "structured hints prune the policy search", |s| vec![e12_hints(s)]),
    ("e13", "monitoring overhead vs sampling period", |s| vec![e13_monitor(s)]),
    ("e14", "Fig. 2 neocortex: hierarchical vs flat mapping", |s| vec![e14_neocortex(s)]),
    ("e15", "fine-grain MD: SGT-per-cell vs coarse chunks", |s| vec![e15_md(s)]),
    ("e16", "LITL-X interpreted vs hand-coded kernels", |s| vec![e16_litlx(s)]),
    ("e17", "locality domains: steal traffic by topology", |s| vec![e17_domains(s)]),
    ("e18", "SSP native: naive vs interpreted vs compiled", |s| vec![e18_ssp_native(s)]),
    ("e19", "multi-tenant serving: latency and ledger", |s| vec![e19_serving(s)]),
    ("e20", "elastic topology: adaptive vs static placement", |s| vec![e20_elastic(s)]),
    ("e21", "chaos serving: clean vs ~1%-fault storm", |s| vec![e21_chaos(s)]),
    ("a1", "ablation: context-switch cost", |s| vec![a1_switch_cost(s)]),
    ("a2", "ablation: self-scheduling chunk size", |s| vec![a2_chunk_size(s)]),
    ("a3", "ablation: percolation depth x DRAM latency", |s| vec![a3_percolation_grid(s)]),
    ("a4", "ablation: grain crossover by task size", |s| vec![a4_grain_crossover(s)]),
    ("kernels", "LITL-X kernel dispatch tiers: ns per point", |s| vec![kernels(s)]),
];

/// The registered experiment called `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|(x, _, _)| *x == id)
}

/// The registered experiments whose id starts with `prefix`, in order.
fn group(prefix: char) -> impl Iterator<Item = &'static Experiment> {
    REGISTRY
        .iter()
        .filter(move |(id, _, _)| id.starts_with(prefix))
}

/// Every paper experiment (the `e` ids) in order: `htvm-bench all`.
pub fn run_all(scale: Scale) -> Vec<crate::Table> {
    group('e').flat_map(|(_, _, run)| run(scale)).collect()
}

/// Every ablation (the `a` ids) in order: `htvm-bench ablations`.
pub fn run_all_ablations(scale: Scale) -> Vec<crate::Table> {
    group('a').flat_map(|(_, _, run)| run(scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The leading word of every table title `all` and `ablations`
    /// report, in order.
    const REPORT_TITLES: &[&str] = &[
        "E1", "E2", "E3", "E4", "E5", "E5b", "E5c", "E6", "E7", "E8", "E9", "E10", "E11", "E12",
        "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "A1", "A2", "A3", "A4",
    ];

    #[test]
    fn ids_are_unique_and_resolve() {
        for (i, (id, about, _)) in REGISTRY.iter().enumerate() {
            assert!(!about.is_empty(), "{id} has no description");
            assert_eq!(find(id).map(|x| x.0), Some(*id));
            assert!(
                REGISTRY[i + 1..].iter().all(|(other, _, _)| other != id),
                "duplicate id {id}"
            );
        }
        assert!(find("e22").is_none());
    }

    #[test]
    fn all_and_ablations_walk_every_report_title_in_order() {
        // A title's id is its lowercased word without the sub-table
        // letter: E5b and E5c are tables of `e5`.
        let mut ids: Vec<String> = REPORT_TITLES
            .iter()
            .map(|w| w.trim_end_matches(['b', 'c']).to_lowercase())
            .collect();
        ids.dedup();
        let all: Vec<&str> = group('e').map(|x| x.0).collect();
        let ablations: Vec<&str> = group('a').map(|x| x.0).collect();
        assert_eq!([all, ablations].concat(), ids);
    }
}
