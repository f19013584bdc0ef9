//! Report plumbing for the `htvm-bench` binary: print tables to stdout
//! and, when asked, write a machine-readable JSON summary so future runs
//! can track the perf trajectory without scraping stdout.
//!
//! The binary takes the JSON sink from a `--json <path>` (or
//! `--json=<path>`) argument, with the `HTVM_BENCH_JSON` environment
//! variable as fallback.
//!
//! ```text
//! cargo run -p htvm-bench --release -- run e18 --json e18.json
//! HTVM_BENCH_JSON=all.json cargo run -p htvm-bench --release -- all
//! ```
//!
//! The summary is one object per experiment table (`id`, `columns`,
//! `rows`) plus the invocation's experiment ids.

use std::path::{Path, PathBuf};

use crate::table::Table;

/// The tables as the body of a JSON array.
fn tables_json(tables: &[&Table]) -> String {
    tables
        .iter()
        .map(|t| t.to_json())
        .collect::<Vec<_>>()
        .join(",")
}

/// The full JSON summary document for a set of tables.
pub fn summary_json(id: &str, tables: &[&Table]) -> String {
    let body = tables_json(tables);
    format!("{{\"experiment\":\"{id}\",\"tables\":[{body}]}}\n")
}

/// Print every table and, given a sink path, write the JSON summary
/// there. `id` names what ran (e.g. `"e18"`, `"all"`).
pub fn emit(id: &str, tables: &[&Table], json: Option<&str>) {
    for t in tables {
        t.print();
    }
    if let Some(path) = json {
        match std::fs::write(path, summary_json(id, tables)) {
            Ok(()) => eprintln!("wrote JSON summary to {path}"),
            Err(e) => eprintln!("failed to write JSON summary to {path}: {e}"),
        }
    }
}

/// Experiment tables that make up the pool's perf baseline: the spawn/
/// steal cost pyramid (E5 grain costs, E5b park/wake latency, E5c queue
/// ops) plus the topology, SSP, and elastic-placement end-to-end tables
/// (E17, E18, E20) that sit on top of it.
pub fn is_pool_baseline_table(t: &Table) -> bool {
    ["E5 ", "E5b", "E5c", "E17", "E18", "E20"]
        .iter()
        .any(|p| t.title.starts_with(p))
}

/// Where a baseline file lives: the workspace root, regardless of the
/// invocation's working directory (a cwd-relative write would silently
/// strand the baseline wherever the binary happened to run). Resolved
/// from this crate's manifest dir at compile time; if that checkout path
/// no longer exists (an installed/copied binary), fall back to cwd.
fn baseline_path(file: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    if root.is_dir() {
        root.join(file)
    } else {
        PathBuf::from(file)
    }
}

/// Write a scale-labelled baseline document holding `tables` to `path`;
/// `what` names it in the log line.
fn write_baseline(kind: &str, what: &str, path: &Path, scale: &str, tables: &[&Table]) {
    let body = tables_json(tables);
    let doc = format!("{{\"experiment\":\"{kind}\",\"scale\":\"{scale}\",\"tables\":[{body}]}}\n");
    match std::fs::write(path, doc) {
        Ok(()) => eprintln!("wrote {what} to {}", path.display()),
        Err(e) => eprintln!("failed to write {what} to {}: {e}", path.display()),
    }
}

/// Where the pool baseline lives (see `baseline_path`). Public so the
/// trajectory guard reads the same file this module writes.
pub fn pool_baseline_path() -> PathBuf {
    baseline_path("BENCH_pool.json")
}

/// Write `BENCH_pool.json` — the machine-readable perf baseline future
/// PRs diff against. Filters `tables` down to the pool-trajectory set
/// ([`is_pool_baseline_table`]) and records the scale label so quick
/// and full baselines are never compared to each other by accident.
pub fn write_pool_baseline(scale: &str, tables: &[&Table]) {
    let picked: Vec<&Table> = tables
        .iter()
        .copied()
        .filter(|t| is_pool_baseline_table(t))
        .collect();
    let path = pool_baseline_path();
    write_baseline("pool_baseline", "pool perf baseline", &path, scale, &picked);
}

/// Experiment tables that make up the serving-layer baseline: the E19
/// open-loop latency/conservation table and the E21 chaos table (clean
/// vs faulted serving under supervision).
pub fn is_serving_baseline_table(t: &Table) -> bool {
    ["E19", "E21"].iter().any(|p| t.title.starts_with(p))
}

/// Where the serving baseline lives (see `baseline_path`). Public so the
/// trajectory guard reads the same file this module writes.
pub fn serving_baseline_path() -> PathBuf {
    baseline_path("BENCH_serving.json")
}

/// Write `BENCH_serving.json` — the serving-layer latency/conservation
/// baseline (the E19 and E21 tables) future PRs diff against,
/// scale-labelled like the pool baseline.
///
/// Merges rather than clobbers: a single-experiment run (`run e19` or
/// `run e21`) refreshes its own table while same-scale tables it did not
/// re-run are carried over from the committed document, so the two runs
/// never erase each other's baseline.
pub fn write_serving_baseline(scale: &str, tables: &[&Table]) {
    let picked: Vec<&Table> = tables
        .iter()
        .copied()
        .filter(|t| is_serving_baseline_table(t))
        .collect();
    // Carry over committed same-scale tables the caller did not re-run.
    let path = serving_baseline_path();
    let carried: Vec<Table> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|doc| crate::trajectory::parse_baseline(&doc).ok())
        .filter(|b| b.scale == scale)
        .map(|b| {
            b.tables
                .into_iter()
                .filter(|t| {
                    is_serving_baseline_table(t) && !picked.iter().any(|p| p.title == t.title)
                })
                .collect()
        })
        .unwrap_or_default();
    let mut all: Vec<&Table> = carried.iter().chain(picked.iter().copied()).collect();
    all.sort_by(|a, b| a.title.cmp(&b.title));
    write_baseline("serving_baseline", "serving baseline", &path, scale, &all);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_wraps_tables() {
        let mut t = Table::new("E0 demo", &["k", "v"]);
        t.push(&["a", "1"]);
        let s = summary_json("e0", &[&t]);
        assert!(s.contains("\"experiment\":\"e0\""));
        assert!(s.contains("\"id\":\"E0 demo\""));
        assert!(s.contains("[\"a\",\"1\"]"));
    }

    #[test]
    fn json_escapes_delimiters() {
        let mut t = Table::new("quote \" and \\ back", &["c"]);
        t.push(&["line\nbreak"]);
        let j = t.to_json();
        assert!(j.contains("quote \\\" and \\\\ back"));
        assert!(j.contains("line\\nbreak"));
    }
}
