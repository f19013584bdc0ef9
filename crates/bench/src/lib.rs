//! # htvm-bench — the experiment harness
//!
//! One module per experiment of the reproduction (see DESIGN.md §5 for the
//! index and EXPERIMENTS.md for recorded results). Every experiment is a
//! library function returning a [`table::Table`], so that
//!
//! * the `htvm-bench` binary runs any of them by id from one registry
//!   ([`experiments::REGISTRY`]) and prints the table the paper
//!   reproduction reports,
//! * integration tests re-run the same code at reduced scale and assert
//!   the *shape* of the result (who wins, where the crossover falls),
//! * the `kernels` table times the LITL-X kernel dispatch tiers.
//!
//! Run everything with `cargo run -p htvm-bench --release -- all`, one
//! experiment with `-- run e18`, and the ids with `-- list`.
//!
//! # Example
//!
//! Experiments return [`Table`]s, so tests (and downstream tooling) can
//! assert on cells instead of scraping stdout:
//!
//! ```
//! use htvm_bench::Table;
//!
//! let mut t = Table::new("demo: steal traffic", &["topology", "remote_ratio"]);
//! t.push(&["flat", "1.000"]);
//! t.push(&["2-dom", "0.412"]);
//! assert_eq!(t.cell("remote_ratio", |r| r[0] == "2-dom"), Some("0.412"));
//! assert_eq!(t.column_f64("remote_ratio"), vec![1.0, 0.412]);
//! println!("{}", t.render());
//! ```

pub mod experiments;
pub mod report;
pub mod table;
pub mod trajectory;

pub use table::Table;
