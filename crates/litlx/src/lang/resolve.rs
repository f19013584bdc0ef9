//! Name resolution: the pass that turns a parsed [`Program`] into the
//! [`Module`] the interpreter walks, once per program rather than once
//! per run.
//!
//! A LITL-X name means the binding visible where it executes: the
//! innermost enclosing block that has already bound it, up to the
//! function's parameters (a function body sees nothing else). Blocks run
//! their statements in order, once per entry, so that binding is a
//! static fact, and the pass records it:
//!
//! * **Frames and slots.** A block that binds anything (its `let`s and
//!   `future`s), and every function, loop, `forall` and `spawn` body,
//!   gets a frame at run time: a slot array sized here. Every binding
//!   gets a [`Slot`] — its frame's depth (a function's frame is 0) and
//!   its index. A repeated `let` in one block reuses its slot; a read
//!   before an inner block's `let` resolves to the outer binding. A name
//!   bound nowhere visible stays a name, and fails only when it runs
//!   (`undefined variable`, `assignment to undefined variable`,
//!   `undefined array`), so a branch never taken is no error.
//! * **Calls.** A call names a function of the program (user functions
//!   shadow builtins), a builtin, or nothing (`unknown function`, again
//!   at run time).
//! * **Ids.** Every `forall`, `spawn` and `future` gets a dense id into
//!   the module's tables. A `forall` keeps its source (for the SSP
//!   lowering, whose resolver is by name), its knowledge-base key, the
//!   slots of the names visible at it, and its plan slot
//!   ([`PointEntry`]).
//! * **Which frames are shared.** A parallel body — a `forall` body
//!   (which naive helpers run on other threads), a `spawn` block or a
//!   `future` expression — reads its enclosing frames from other
//!   threads. A frame is **locked** (shared by reference, behind a
//!   mutex) when a `forall` body assigns into it from inside, or when it
//!   encloses a `spawn` or `future`, whose body runs alongside the rest
//!   of the block. Every other frame is a plain local of the thread that
//!   runs its block; the helpers of a naive `forall` get a copy of it,
//!   which is exact because nothing writes it while the loop runs.

use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use super::ast::{BinOp, Expr, FnDef, Hint, Name, Program, Stmt};
use super::executor::pipeline_pragma;
use super::plan_cache::PointEntry;

/// Where a binding lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// The depth of its frame among the frames enclosing it (0: the
    /// function's).
    pub(crate) depth: u32,
    /// Its index in that frame.
    pub(crate) index: u32,
}

/// The size and sharing of one block's frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameShape {
    pub(crate) slots: usize,
    /// Shared by reference behind a mutex (module docs).
    pub(crate) locked: bool,
}

/// A statement list and the frame it runs in: `None` runs it in the
/// enclosing block's frame (it binds nothing of its own).
pub(crate) struct Block {
    pub(crate) frame: Option<FrameShape>,
    pub(crate) stmts: Vec<RStmt>,
}

/// A builtin function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Array,
    Len,
    Sum,
    Force,
    Sqrt,
    Abs,
    Exp,
    Log,
    Sin,
    Cos,
    Floor,
    Pow,
    Min,
    Max,
    Workers,
    Print,
}

const BUILTINS: [(&str, Builtin, usize); 16] = [
    ("array", Builtin::Array, 1),
    ("len", Builtin::Len, 1),
    ("sum", Builtin::Sum, 1),
    ("force", Builtin::Force, 1),
    ("sqrt", Builtin::Sqrt, 1),
    ("abs", Builtin::Abs, 1),
    ("exp", Builtin::Exp, 1),
    ("log", Builtin::Log, 1),
    ("sin", Builtin::Sin, 1),
    ("cos", Builtin::Cos, 1),
    ("floor", Builtin::Floor, 1),
    ("pow", Builtin::Pow, 2),
    ("min", Builtin::Min, 2),
    ("max", Builtin::Max, 2),
    ("workers", Builtin::Workers, 0),
    ("print", Builtin::Print, 1),
];

impl Builtin {
    /// Its source name and the argument count it takes.
    pub(crate) fn signature(self) -> (&'static str, usize) {
        let (name, _, arity) = BUILTINS[self as usize];
        (name, arity)
    }
}

/// A resolved expression: [`Expr`] node for node.
pub(crate) enum RExpr {
    Num(f64),
    Var(Slot),
    /// A name bound nowhere visible.
    Unbound(Name),
    Index(Box<RExpr>, Box<RExpr>),
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
    Neg(Box<RExpr>),
    Not(Box<RExpr>),
    /// A call of the module's function with this index.
    Call(usize, Vec<RExpr>),
    Builtin(Builtin, Vec<RExpr>),
    /// A call of a function that does not exist.
    Unknown(String),
}

/// A resolved statement: [`Stmt`] for [`Stmt`]. A name that is bound
/// nowhere visible is kept (`Err`) for its run-time error.
pub(crate) enum RStmt {
    Let(Slot, RExpr),
    Assign(Result<Slot, Name>, RExpr),
    StoreIndex {
        array: Result<Slot, Name>,
        index: RExpr,
        value: RExpr,
        accumulate: bool,
    },
    If(RExpr, Block, Block),
    While(RExpr, Block),
    /// The loop variable is slot 0 of the body's frame.
    For(RExpr, RExpr, Block),
    /// `module.foralls[id]`.
    Forall {
        id: usize,
        from: RExpr,
        to: RExpr,
    },
    /// `module.spawns[id]`.
    Spawn(usize),
    /// The future's slot and `module.futures[id]`.
    Future(Slot, usize),
    Atomic(Block),
    Return(Option<RExpr>),
    Expr(RExpr),
}

/// One resolved function.
pub(crate) struct Func {
    pub(crate) name: String,
    /// The slot of each parameter in the function's frame.
    pub(crate) params: Vec<u32>,
    pub(crate) body: Block,
    /// The ids of the `forall`s in its body.
    foralls: Range<usize>,
}

/// One resolved `forall`.
pub(crate) struct Forall {
    pub(crate) var: Name,
    /// Its source body, for the SSP lowering and the shape estimate.
    pub(crate) ast: Vec<Stmt>,
    pub(crate) hints: Vec<Hint>,
    /// The `pipeline` key/values of its pragmas, if any.
    pub(crate) pragma: Option<Vec<(String, String)>>,
    /// The body, the loop variable at slot 0 of its frame.
    pub(crate) body: Block,
    /// The slot of every name visible at the loop, innermost binding
    /// first.
    pub(crate) scope: Vec<(Name, Slot)>,
    /// Its plan slot and knowledge-base key.
    pub(crate) entry: Arc<PointEntry>,
}

/// A resolved program.
pub(crate) struct Module {
    /// The program's functions, pinned: a module belongs to the program
    /// whose functions are these very allocations, which cannot be freed
    /// or changed while pinned.
    pins: Vec<Arc<FnDef>>,
    pub(crate) fns: Vec<Func>,
    /// The index of `main`, if the program has one.
    pub(crate) main: Option<usize>,
    pub(crate) foralls: Vec<Forall>,
    pub(crate) spawns: Vec<Block>,
    pub(crate) futures: Vec<RExpr>,
    /// Use stamp for least-recently-used eviction.
    pub(crate) last_used: AtomicU64,
}

impl Module {
    /// Whether this is the module of `program`.
    pub(crate) fn is_of(&self, program: &Program) -> bool {
        self.pins.len() == program.fns.len()
            && self
                .pins
                .iter()
                .zip(&program.fns)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Use `other`'s plan slots for every function the two modules share,
    /// so a function keeps one plan per `forall` whichever program runs it.
    pub(crate) fn share_points(&mut self, other: &Module) {
        for (f, pin) in self.fns.iter().zip(&self.pins) {
            let Some(g) = other.pins.iter().position(|p| Arc::ptr_eq(p, pin)) else {
                continue;
            };
            for (a, b) in f.foralls.clone().zip(other.fns[g].foralls.clone()) {
                self.foralls[a].entry = other.foralls[b].entry.clone();
            }
        }
    }

    /// The plan slots of this module.
    pub(crate) fn points(&self) -> impl Iterator<Item = &Arc<PointEntry>> {
        self.foralls.iter().map(|f| &f.entry)
    }
}

impl Forall {
    /// The slot `name` resolves to at the loop, if it is bound there.
    pub(crate) fn slot_of(&self, name: &str) -> Option<Slot> {
        self.scope
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|&(_, s)| s)
    }
}

/// Resolve `program` (module docs). Its plan slots are fresh.
pub(crate) fn resolve(program: &Program) -> Module {
    let mut r = Resolver {
        program,
        names: Vec::new(),
        frames: Vec::new(),
        parallel: Vec::new(),
        foralls: Vec::new(),
        spawns: Vec::new(),
        futures: Vec::new(),
    };
    let fns = program.fns.iter().map(|f| r.function(f)).collect();
    Module {
        pins: program.fns.clone(),
        fns,
        main: program.fns.iter().position(|f| f.name == "main"),
        foralls: r.foralls,
        spawns: r.spawns,
        futures: r.futures,
        last_used: AtomicU64::new(0),
    }
}

/// The knowledge-base key of a program point, stable across executions
/// *and* processes: the induction variable plus a structural fingerprint
/// of the body, so two different loops sharing a variable name cannot
/// exchange hints or recorded outcomes.
fn point_key(var: &str, body: &[Stmt]) -> String {
    use std::fmt::Write;
    let mut h = Fnv1a(0xcbf29ce484222325);
    write!(h, "{body:?}").expect("hashing never fails");
    format!("{var}@{:012x}", h.0 & 0xffff_ffff_ffff)
}

/// FNV-1a over the text written to it — deterministic across processes
/// (unlike the std hasher), so knowledge persisted by one run keys
/// correctly in the next. Hashing the body's `Debug` text as it is
/// written avoids building the string.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.as_bytes() {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

/// A frame being resolved.
struct Open {
    /// Where its bindings start in [`Resolver::names`].
    names_from: usize,
    slots: usize,
    locked: bool,
}

struct Resolver<'p> {
    program: &'p Program,
    /// The visible bindings, innermost last.
    names: Vec<(Name, Slot)>,
    /// The open frames, outermost first: frame `d` has depth `d`.
    frames: Vec<Open>,
    /// The depth of the root frame of each enclosing parallel body.
    parallel: Vec<u32>,
    foralls: Vec<Forall>,
    spawns: Vec<Block>,
    futures: Vec<RExpr>,
}

/// The names `stmts` binds in their own frame.
fn binds(stmts: &[Stmt]) -> bool {
    stmts
        .iter()
        .any(|s| matches!(s, Stmt::Let(..) | Stmt::Future(..)))
}

impl Resolver<'_> {
    fn function(&mut self, f: &FnDef) -> Func {
        let first = self.foralls.len();
        self.open();
        let params = f.params.iter().map(|p| self.bind(p).index).collect();
        let stmts = self.stmts(&f.body);
        let body = self.close(stmts);
        Func {
            name: f.name.clone(),
            params,
            body,
            foralls: first..self.foralls.len(),
        }
    }

    fn open(&mut self) {
        self.frames.push(Open {
            names_from: self.names.len(),
            slots: 0,
            locked: false,
        });
    }

    fn close(&mut self, stmts: Vec<RStmt>) -> Block {
        let f = self.frames.pop().expect("an open frame");
        self.names.truncate(f.names_from);
        Block {
            frame: Some(FrameShape {
                slots: f.slots,
                locked: f.locked,
            }),
            stmts,
        }
    }

    fn depth(&self) -> u32 {
        self.frames.len() as u32 - 1
    }

    /// Bind `name` in the innermost frame: its slot there if it has one.
    fn bind(&mut self, name: &Name) -> Slot {
        let depth = self.depth();
        let f = self.frames.last_mut().expect("an open frame");
        if let Some((_, s)) = self.names[f.names_from..].iter().find(|(n, _)| n == name) {
            return *s;
        }
        let slot = Slot {
            depth,
            index: f.slots as u32,
        };
        f.slots += 1;
        self.names.push((name.clone(), slot));
        slot
    }

    fn lookup(&self, name: &str) -> Option<Slot> {
        self.names
            .iter()
            .rev()
            .find(|(n, _)| &**n == name)
            .map(|&(_, s)| s)
    }

    /// A nested block: in a frame of its own only if it binds anything.
    fn block(&mut self, stmts: &[Stmt]) -> Block {
        if binds(stmts) {
            self.open();
            let stmts = self.stmts(stmts);
            self.close(stmts)
        } else {
            Block {
                frame: None,
                stmts: self.stmts(stmts),
            }
        }
    }

    /// A loop body: a frame of its own, the loop variable at slot 0.
    fn loop_body(&mut self, var: &Name, stmts: &[Stmt]) -> Block {
        self.open();
        self.bind(var);
        let stmts = self.stmts(stmts);
        self.close(stmts)
    }

    /// A parallel body's root frame runs on another thread.
    fn parallel_body(&mut self, body: impl FnOnce(&mut Self) -> Block) -> Block {
        self.parallel.push(self.frames.len() as u32);
        let block = body(self);
        self.parallel.pop();
        block
    }

    /// A `spawn` or `future` captures every open frame by reference.
    fn lock_open_frames(&mut self) {
        for f in &mut self.frames {
            f.locked = true;
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Vec<RStmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> RStmt {
        match s {
            Stmt::Let(name, e) => {
                let e = self.expr(e);
                RStmt::Let(self.bind(name), e)
            }
            Stmt::Assign(name, e) => {
                let target = self.lookup(name);
                if let (Some(slot), Some(&root)) = (target, self.parallel.last()) {
                    if slot.depth < root {
                        self.frames[slot.depth as usize].locked = true;
                    }
                }
                RStmt::Assign(target.ok_or_else(|| name.clone()), self.expr(e))
            }
            Stmt::StoreIndex {
                array,
                index,
                value,
                accumulate,
            } => RStmt::StoreIndex {
                array: self.lookup(array).ok_or_else(|| array.clone()),
                index: self.expr(index),
                value: self.expr(value),
                accumulate: *accumulate,
            },
            Stmt::If(c, then, els) => RStmt::If(self.expr(c), self.block(then), self.block(els)),
            Stmt::While(c, body) => RStmt::While(self.expr(c), self.block(body)),
            Stmt::For(var, from, to, body) => {
                RStmt::For(self.expr(from), self.expr(to), self.loop_body(var, body))
            }
            Stmt::Forall {
                var,
                from,
                to,
                body,
                hints,
            } => {
                let (from, to) = (self.expr(from), self.expr(to));
                let mut scope: Vec<(Name, Slot)> = Vec::new();
                for (n, s) in self.names.iter().rev() {
                    if !scope.iter().any(|(m, _)| m == n) {
                        scope.push((n.clone(), *s));
                    }
                }
                let block = self.parallel_body(|r| r.loop_body(var, body));
                self.foralls.push(Forall {
                    var: var.clone(),
                    ast: body.clone(),
                    hints: hints.clone(),
                    pragma: pipeline_pragma(hints),
                    body: block,
                    scope,
                    entry: Arc::new(PointEntry::new(point_key(var, body))),
                });
                RStmt::Forall {
                    id: self.foralls.len() - 1,
                    from,
                    to,
                }
            }
            Stmt::Spawn(body) => {
                self.lock_open_frames();
                let block = self.parallel_body(|r| {
                    r.open();
                    let stmts = r.stmts(body);
                    r.close(stmts)
                });
                self.spawns.push(block);
                RStmt::Spawn(self.spawns.len() - 1)
            }
            Stmt::Future(name, e) => {
                self.lock_open_frames();
                // The expression sees the future's own binding.
                let slot = self.bind(name);
                let e = self.expr(e);
                self.futures.push(e);
                RStmt::Future(slot, self.futures.len() - 1)
            }
            Stmt::Atomic(body) => RStmt::Atomic(self.block(body)),
            Stmt::Return(e) => RStmt::Return(e.as_ref().map(|e| self.expr(e))),
            Stmt::Expr(e) => RStmt::Expr(self.expr(e)),
        }
    }

    fn expr(&self, e: &Expr) -> RExpr {
        let bx = |e: &Expr| Box::new(self.expr(e));
        match e {
            Expr::Num(n) => RExpr::Num(*n),
            Expr::Var(name) => match self.lookup(name) {
                Some(slot) => RExpr::Var(slot),
                None => RExpr::Unbound(name.clone()),
            },
            Expr::Index(a, i) => RExpr::Index(bx(a), bx(i)),
            Expr::Bin(op, l, r) => RExpr::Bin(*op, bx(l), bx(r)),
            Expr::Neg(x) => RExpr::Neg(bx(x)),
            Expr::Not(x) => RExpr::Not(bx(x)),
            Expr::Call(name, args) => {
                let args = || args.iter().map(|a| self.expr(a)).collect();
                if let Some(f) = self.program.fns.iter().position(|f| f.name == *name) {
                    RExpr::Call(f, args())
                } else if let Some(&(_, b, _)) = BUILTINS.iter().find(|(n, _, _)| n == name) {
                    RExpr::Builtin(b, args())
                } else {
                    RExpr::Unknown(name.clone())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse;

    fn module(src: &str) -> Module {
        resolve(&parse(src).unwrap())
    }

    fn shape(b: &Block) -> (usize, bool) {
        let f = b.frame.expect("a frame");
        (f.slots, f.locked)
    }

    #[test]
    fn builtins_are_listed_in_declaration_order() {
        for (i, (_, b, _)) in BUILTINS.iter().enumerate() {
            assert_eq!(*b as usize, i);
        }
    }

    #[test]
    fn a_repeated_let_reuses_its_slot_and_blocks_without_bindings_share_a_frame() {
        let m = module(
            "fn main() { let x = 1; let x = 2; let y = x;
               if 1 { print(x); } else { let z = 3; }
               while 0 { let x = 4; print(x); } }",
        );
        let main = &m.fns[m.main.unwrap()];
        assert_eq!(shape(&main.body), (2, false));
        let RStmt::If(_, then, els) = &main.body.stmts[3] else {
            panic!("if")
        };
        assert!(then.frame.is_none());
        assert_eq!(shape(els), (1, false));
        let RStmt::While(_, body) = &main.body.stmts[4] else {
            panic!("while")
        };
        let RStmt::Expr(RExpr::Builtin(Builtin::Print, args)) = &body.stmts[1] else {
            panic!("print")
        };
        assert!(matches!(args[0], RExpr::Var(Slot { depth: 1, index: 0 })));
    }

    #[test]
    fn only_frames_parallel_bodies_write_or_capture_are_locked() {
        let m = module(
            "fn main() { let s = 0; let a = array(4);
               forall i in 0..4 { let t = i; t = t + 1; a[i] = t; } }
             fn g() { let s = 0; forall i in 0..4 { s = i; } }
             fn h() { let s = 0; for k in 0..2 { spawn { let w = k; } } }",
        );
        assert_eq!(shape(&m.fns[0].body), (2, false));
        assert_eq!(shape(&m.foralls[0].body), (2, false));
        assert_eq!(shape(&m.fns[1].body), (1, true));
        assert_eq!(shape(&m.fns[2].body), (1, true));
        let RStmt::For(_, _, body) = &m.fns[2].body.stmts[1] else {
            panic!("for")
        };
        assert_eq!(shape(body), (1, true));
        assert_eq!(shape(&m.spawns[0]), (1, false));
    }

    #[test]
    fn a_forall_sees_the_innermost_binding_of_each_visible_name() {
        let m = module(
            "fn main() { let n = 4; let a = array(n);
               if 1 { let n = 2; forall i in 0..n { a[i] = n; } } }",
        );
        let f = &m.foralls[0];
        assert_eq!(f.slot_of("n"), Some(Slot { depth: 1, index: 0 }));
        assert_eq!(f.slot_of("a"), Some(Slot { depth: 0, index: 1 }));
        assert_eq!(f.slot_of("i"), None);
        assert_eq!(f.scope.len(), 2);
    }
}
