//! The LITL-X prototype language.
//!
//! §3.2 of the paper proposes LITL-X as "a powerful set of semantic
//! constructs to organize parallel computations in a way that
//! hides/manages latency and limits the effects of overhead", and §4.1 has
//! domain experts expressing knowledge "as scripts, which give specific
//! annotations to the source". This module implements that prototype:
//! a small imperative language with
//!
//! * `forall i in a..b { … }` — parallel loop, executed as SGTs with the
//!   schedule chosen by an `@hint` pragma (`static`, `chunk(k)`, `guided`),
//! * `spawn { … }` — fire-and-forget SGT (joined at LGT exit),
//! * `future x = expr;` / `force(x)` — eager producer-consumer values,
//! * `atomic { … }` — an atomic block of memory operations,
//! * `@hint(key = value, …)` — structured-hint pragmas attached to the
//!   following statement or function; exported to the tooling via
//!   [`Program::hints`].
//!
//! ```
//! use litlx::lang::{parse, Interp};
//!
//! let src = r#"
//!     fn main() {
//!         let n = 64;
//!         let a = array(n);
//!         @hint(schedule = "guided")
//!         forall i in 0..n {
//!             a[i] = i * 2;
//!         }
//!         let s = sum(a);
//!         print(s);
//!     }
//! "#;
//! let prog = parse(src).unwrap();
//! let out = Interp::new(2).run(&prog).unwrap();
//! assert_eq!(out.printed, vec!["4032".to_string()]);
//! ```

pub mod ast;
pub mod compile;
mod env;
pub mod executor;
pub mod interp;
pub mod lexer;
pub mod lower;
pub mod parser;
mod plan_cache;
pub mod profile;
mod resolve;

pub use ast::{Expr, FnDef, Hint, Program, Stmt};
pub use compile::{compile, CompileInfo, CompiledKernel, KernelFault, VectorIsa};
pub use executor::{KernelMode, LoopStrategy};
pub use interp::{Interp, RunOutput, Value};
pub use lexer::{lex, Token};
pub use lower::{lower_forall, Kernel, KernelCode, LowerBail, LoweredForall};
pub use parser::{parse, ParseError};
pub use plan_cache::PLAN_CACHE_CAPACITY;
pub use profile::{suggest_hint, ForallProfile, ProfileState};
