//! `htvm-bench`: run the reproduction's experiments from one registry
//! (`htvm_bench::experiments::REGISTRY`).
//!
//! ```text
//! htvm-bench list              registered ids, one line each
//! htvm-bench run <id>...       run experiments (e1..e21, a1..a4, kernels)
//! htvm-bench all               every e-id in order; refreshes BENCH_pool.json
//!                              and BENCH_serving.json
//! htvm-bench ablations         every a-id in order
//! htvm-bench check             perf-trajectory guard against the baselines
//! ```
//!
//! `--quick` runs the reduced sweep (the default is full scale), and
//! `--json <path>` / `HTVM_BENCH_JSON` writes a machine-readable summary
//! (see `htvm_bench::report`). `run e19` and `run e21` refresh their
//! own rows of `BENCH_serving.json`; no other id writes a baseline.
//!
//! `check` re-runs the guarded experiments at quick scale and exits 1 if
//! any committed `BENCH_pool.json` or `BENCH_serving.json` row regressed
//! by more than the factor (default 2.0, `HTVM_TRAJECTORY_FACTOR` to
//! override) — see `htvm_bench::trajectory`.

use htvm_bench::experiments::{
    e18_ssp_native, e20_elastic, e21_chaos, e5c_queue_ops, find, run_all, run_all_ablations, Scale,
    REGISTRY,
};
use htvm_bench::report::{
    emit, is_serving_baseline_table, pool_baseline_path, serving_baseline_path,
    write_pool_baseline, write_serving_baseline,
};
use htvm_bench::trajectory::{compare, factor_from_env, parse_baseline, Baseline};
use htvm_bench::Table;

const USAGE: &str = "usage: htvm-bench <list | run <id>... | all | ablations | check> \
                     [--quick] [--json <path>]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Positional words: the command and its ids.
    let mut words = Vec::new();
    let mut quick = false;
    let env_json = std::env::var("HTVM_BENCH_JSON").ok();
    let mut json = env_json.as_deref().filter(|s| !s.is_empty());
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--json" => json = Some(it.next().unwrap_or_else(|| fail("--json needs a path"))),
            "--quick" => quick = true,
            _ if a.starts_with("--json=") => json = Some(&a["--json=".len()..]),
            _ if a.starts_with('-') => fail(&format!("unknown flag `{a}`")),
            _ => words.push(a),
        }
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let label = if quick { "quick" } else { "full" };

    match words.as_slice() {
        ["list"] => {
            for (id, about, _) in REGISTRY {
                println!("{id:<8} {about}");
            }
        }
        ["run", ids @ ..] if !ids.is_empty() => {
            let runs: Vec<_> = ids
                .iter()
                .map(|id| {
                    find(id).unwrap_or_else(|| {
                        fail(&format!("unknown experiment `{id}` (`htvm-bench list`)"))
                    })
                })
                .collect();
            let tables: Vec<Table> = runs.iter().flat_map(|(_, _, run)| run(scale)).collect();
            let refs: Vec<&Table> = tables.iter().collect();
            emit(&ids.join(","), &refs, json);
            if refs.iter().any(|t| is_serving_baseline_table(t)) {
                write_serving_baseline(label, &refs);
            }
        }
        ["all"] => {
            let tables = run_all(scale);
            let refs: Vec<&Table> = tables.iter().collect();
            emit("all", &refs, json);
            write_pool_baseline(label, &refs);
            write_serving_baseline(label, &refs);
        }
        ["ablations"] => {
            let tables = run_all_ablations(scale);
            emit("ablations", &tables.iter().collect::<Vec<_>>(), json);
        }
        ["check"] => check(),
        _ => fail(USAGE),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("htvm-bench: {msg}");
    std::process::exit(2);
}

fn load_quick_baseline(path: &std::path::Path, regen_hint: &str) -> Baseline {
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("trajectory check: cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let baseline = match parse_baseline(&doc) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("trajectory check: {e}");
            std::process::exit(1);
        }
    };
    if baseline.scale != "quick" {
        eprintln!(
            "trajectory check: committed baseline {} is `{}` scale; regenerate it with \
             `{regen_hint}`",
            path.display(),
            baseline.scale
        );
        std::process::exit(1);
    }
    baseline
}

fn check() {
    let factor = factor_from_env();
    let mut issues = Vec::new();

    let pool_path = pool_baseline_path();
    let pool = load_quick_baseline(
        &pool_path,
        "cargo run -p htvm-bench --release -- all --quick",
    );
    println!(
        "trajectory check: factor {factor}x against {}",
        pool_path.display()
    );
    let fresh_pool = [
        e5c_queue_ops(Scale::Quick),
        e18_ssp_native(Scale::Quick),
        e20_elastic(Scale::Quick),
    ];
    let refs: Vec<&Table> = fresh_pool.iter().collect();
    issues.extend(compare(&pool, &refs, factor));
    for t in &refs {
        t.print();
    }

    let serving_path = serving_baseline_path();
    let serving = load_quick_baseline(
        &serving_path,
        "cargo run -p htvm-bench --release -- run e21 --quick",
    );
    println!(
        "trajectory check: factor {factor}x against {}",
        serving_path.display()
    );
    // Only E21 is guarded in the serving baseline (E19's percentile rows
    // are informational), so only E21 is re-run here.
    let fresh_serving = [e21_chaos(Scale::Quick)];
    let refs: Vec<&Table> = fresh_serving.iter().collect();
    issues.extend(compare(&serving, &refs, factor));
    for t in &refs {
        t.print();
    }

    if issues.is_empty() {
        println!("trajectory check: all guarded rows within {factor}x of baseline");
        return;
    }
    for i in &issues {
        eprintln!("{i}");
    }
    eprintln!("trajectory check: {} issue(s)", issues.len());
    std::process::exit(1);
}
