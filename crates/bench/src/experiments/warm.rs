//! Warm-run ladder: what a repeat `Interp::run` of a small LITL-X
//! program costs, one construct at a time.
//!
//! Each row is a program run again and again on one warm interpreter
//! built like the served one (`Topology::domains(2, 1)`, SSP strategy,
//! compiled kernels), so its plans are cached and its waves placed. The
//! rows climb from an empty `main` through `let`s, arrays and 4-point
//! `forall`s to the served n = 12 and n = 48 matmul nests; the derived
//! rows are differences of medians (and of minimums):
//!
//! * `per_let` — one `let x = n * n + k` (`lets_8` over `let_n`, / 8);
//! * `per_array` — one `let a = array(n * n)` (`array` over `let_n`);
//! * `first_forall` — the first 4-point `forall` (`forall_1` over
//!   `arrays_sum`);
//! * `per_extra_forall` — each further one (`forall_8` over `forall_1`,
//!   / 7).
//!
//! The table asserts no timing; its numbers move with the host.

use std::time::Instant;

use htvm_core::Topology;
use litlx::lang::{parse, Interp, KernelMode, LoopStrategy};

use super::Scale;
use crate::table::{f3, Table};

/// The served matmul nest (perfbench's `litlx-serve` program).
fn matmul_src(n: usize) -> String {
    format!(
        "fn main() {{
            let n = {n};
            let a = array(n * n); let b = array(n * n); let c = array(n * n);
            forall i in 0..n * n {{ a[i] = i % 7 + 1; }}
            forall i in 0..n * n {{ b[i] = i % 5 - 1; }}
            forall i in 0..n {{
              forall j in 0..n {{
                for k in 0..n {{
                  c[i * n + j] += a[i * n + k] * b[k * n + j];
                }}
              }}
            }}
            print(sum(c)); }}"
    )
}

/// `main` with three arrays, `foralls` distinct 4-point `forall`s and a
/// printed sum.
fn foralls_src(foralls: usize) -> String {
    let loops: String = (0..foralls)
        .map(|k| format!("forall i in 0..4 {{ c[i] = i + {k}; }}\n"))
        .collect();
    format!(
        "fn main() {{ let n = 12;
            let a = array(n * n); let b = array(n * n); let c = array(n * n);
            {loops} print(sum(c)); }}"
    )
}

/// The ladder's programs: (row, source).
fn ladder() -> Vec<(&'static str, String)> {
    let lets: String = (1..=8)
        .map(|k| format!("let x{k} = n * n + {k}; "))
        .collect();
    vec![
        ("empty", "fn main() {}".to_string()),
        ("let_n", "fn main() { let n = 12; }".to_string()),
        ("lets_8", format!("fn main() {{ let n = 12; {lets}}}")),
        (
            "array",
            "fn main() { let n = 12; let a = array(n * n); }".to_string(),
        ),
        ("arrays_sum", foralls_src(0)),
        ("forall_1", foralls_src(1)),
        ("forall_8", foralls_src(8)),
        ("matmul_n12", matmul_src(12)),
        ("matmul_n48", matmul_src(48)),
    ]
}

/// WARM — median and best ns per warm `Interp::run` of each ladder
/// program, plus the derived per-construct rows.
pub fn warm(scale: Scale) -> Table {
    let mut t = Table::new(
        "WARM LITL-X warm-run ladder: ns per Interp::run (served interpreter shape)",
        &["program", "ns_p50", "ns_min"],
    );
    let samples = scale.pick(3, 21);
    let reps = scale.pick(20, 2000);
    let interp = Interp::with_topology(Topology::domains(2, 1))
        .with_strategy(LoopStrategy::Ssp)
        .with_kernel_mode(KernelMode::Compiled);
    let mut timed = Vec::new();
    for (name, src) in ladder() {
        let p = parse(&src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let first = interp.run(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut per_run: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..reps {
                    let out = interp.run(&p).expect("warm run");
                    assert_eq!(out.printed, first.printed, "{name}");
                }
                t0.elapsed().as_nanos() as f64 / reps as f64
            })
            .collect();
        per_run.sort_by(f64::total_cmp);
        let (p50, min) = (per_run[per_run.len() / 2], per_run[0]);
        t.row(&[name.to_string(), f3(p50), f3(min)]);
        timed.push((name, p50, min));
    }
    let get = |row: &str| {
        let &(_, p50, min) = timed.iter().find(|(n, _, _)| *n == row).expect("row");
        (p50, min)
    };
    let derived = [
        ("per_let", "lets_8", "let_n", 8.0),
        ("per_array", "array", "let_n", 1.0),
        ("first_forall", "forall_1", "arrays_sum", 1.0),
        ("per_extra_forall", "forall_8", "forall_1", 7.0),
    ];
    for (name, hi, lo, count) in derived {
        let ((hp, hm), (lp, lm)) = (get(hi), get(lo));
        t.row(&[
            name.to_string(),
            f3((hp - lp) / count),
            f3((hm - lm) / count),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_reports_every_row() {
        let t = warm(Scale::Quick);
        for row in [
            "empty",
            "lets_8",
            "matmul_n48",
            "per_let",
            "per_extra_forall",
        ] {
            assert!(t.cell("program", |r| r[0] == row).is_some(), "{row}");
        }
        assert_eq!(t.column_f64("ns_p50").len(), 13);
    }
}
