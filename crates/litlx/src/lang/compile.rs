//! Compiling the lowered kernel tape for tile-at-a-time execution.
//!
//! [`super::lower`] produces a per-point register tape: correct, but every
//! iteration point pays a scratch borrow, per-instruction dispatch, an
//! affine-index evaluation and a bounds check per access, and a
//! `Result<(), String>` error path. This module takes that tape plus the
//! nest's rectangular trip counts and produces a [`CompiledKernel`] that
//! executes whole **tiles** — one SSP group's range at its partitioned
//! level, every inner level full — instead of points:
//!
//! 1. **Tape optimization** — constant folding, dead-register
//!    elimination, and a preamble/body split that hoists everything
//!    invariant in the innermost level (constants, outer index values,
//!    loads with innermost stride 0 from arrays the kernel never stores)
//!    to once-per-run execution. `innermost index % constant` over a
//!    non-negative index range becomes a wrapping counter.
//! 2. **Bounds-check hoisting** — each access's affine index is bounded
//!    over the whole iteration box at compile time (interval arithmetic in
//!    `i128`, so no intermediate overflow). A proven access runs
//!    branch-free and infallibly through the `SharedRegion` unchecked
//!    API; an unproven access keeps a checked fallback whose error — a
//!    tiny `Copy` [`KernelFault`] — is formatted only if it surfaces.
//! 3. **Strength reduction** — affine polynomials become per-slot base
//!    indices, evaluated once per tile and advanced by a per-level carry
//!    as the tile walks its inner levels, plus per-point stride
//!    increments inside a run.
//! 4. **Tile execution** — [`CompiledKernel::execute_tile`] asserts the
//!    tile lies in the compiled box and borrows its scratch once, then
//!    walks the tile's innermost **runs** in lexicographic order and
//!    dispatches the plan on each without re-asserting.
//!    [`CompiledKernel::execute_run`] is the one-run tile.
//! 5. **Run plans** — the two shapes the benchmarks hit get native
//!    closed-form loops, unrolled by 4 over the region word slabs:
//!    `Plan::DotAccum` (`c[..] += a[..] * b[..]` with an
//!    innermost-invariant store, the matmul reduction) and
//!    `Plan::FmaMap` (`d[..] = a[..] * b[..] (+ k)`, the elementwise
//!    map). One run of `DotAccum` is one serial add chain, bound by the
//!    add latency, so a tile **jams** [`JAM`] adjacent runs — level
//!    `last - 1` indices `j … j + 3` — into one loop with one
//!    accumulator per run, each starting from its own `c` location
//!    (`ic + r·cc`, `cc` the `c` slot's step at level `last - 1`). It
//!    jams only when `cc ≠ 0` (the `c` locations are distinct) and at
//!    least `JAM` runs of the tile remain at that level; the remaining
//!    runs, and every [`CompiledKernel::execute_run`], take the one-run
//!    loop, the same loop at width 1.
//!
//!    A jamming dot-accum also **packs** `b` when the rule of `packs_b`
//!    holds — the matmul's shape, the one measured: `b` steps one word
//!    per run at level `last - 1` (each run reads its own column, and one
//!    step of `PACK_JAM` runs is a contiguous slice), `a` does not step
//!    there (the runs share each `a` load), and `b` has zero
//!    coefficients on every level above `last - 1`. `b`'s
//!    `(last - 1) × innermost` footprint is then the same for every walk
//!    of level `last - 1` in a tile, and a tile that walks it more than once
//!    copies it once, with relaxed-atomic loads, into a plain `f64`
//!    panel in the thread's scratch, laid out in blocks of [`PACK_JAM`]
//!    runs with the runs of one innermost step adjacent. Each block
//!    then runs as one loop of [`PACK_JAM`] accumulators whose step is a
//!    plain-`f64` multiply-add over a panel row — the loop the
//!    autovectorizer takes (GotoBLAS's panel packing). The rest of each
//!    `last - 1` walk takes [`JAM`] runs, then one. A footprint above
//!    `PANEL_CAP` words, fewer than [`PACK_JAM`] runs at level
//!    `last - 1`, or a tile with one walk of it (no reuse: the copy
//!    would cost more than it saves) keeps the unpacked loops, as does
//!    every other dot-accum shape (a transposed `a`, a strided `b`).
//!
//!    Every other body runs on the strip-mined tape, `Plan::Tape`:
//!    each body instruction executes over a strip of innermost points
//!    held in column registers, so instruction dispatch is paid once per
//!    strip. The strip is [`STRIP`] points wide when every access is
//!    proven and every stored array has exactly one access slot, and one
//!    point wide otherwise — the same code, reproducing the per-point
//!    order and fault identity exactly.
//!
//! # Why the results stay bit-identical to the interpreted path
//!
//! The SSP executor serializes every pair of iterations that can touch
//! one location: same-location accesses inside one partitioned-level
//! iteration run sequentially in one group, and pairs that span
//! partitioned-level iterations force a wavefront (the lowering emits
//! carried dependences at every distinguishing level, in both directions
//! for free levels), which runs groups in ascending order. Execution
//! order is therefore exactly the sequential lexicographic order, so
//!
//! * accumulate stores may use a plain load-add-store
//!   ([`SharedRegion::accum_f64_unchecked`]) instead of a CAS loop, and
//! * `Plan::DotAccum` may keep the accumulator in a register for the
//!   whole run and store once — the products are applied in iteration
//!   order to the loaded value, so the final bits equal the per-point
//!   read-add-write sequence. This requires the store array to be
//!   distinct from both load arrays (checked at compile time; regions
//!   are identity-deduplicated, and distinct regions never overlap).
//! * a jammed `Plan::DotAccum` loop runs independent chains: each run's
//!   accumulator adds that run's own products, in `k` order, onto the
//!   value loaded from that run's own `c` location, and the jammed runs'
//!   `c` locations are distinct (`cc ≠ 0`). Interleaving the chains
//!   moves no product from one sum to another and reassociates nothing;
//!   the loads it reorders read arrays no run stores, and the SSP
//!   wavefront still serializes every other writer of those locations.
//! * a packed `Plan::DotAccum` block computes each run's products from
//!   the same two values, multiplied the same way, added in the same `k`
//!   order onto the same loaded `c` value — there is no FMA (Rust never
//!   contracts `x * y + s`) and no reassociation. The panel
//!   holds what the unpacked loop would read: the nest never writes the
//!   packed array (the store array is distinct from both loads), so
//!   nothing in the tile can change it between the copy and its uses.
//!   A racing writer outside the nest (a concurrent `spawn`) is not
//!   synchronized with the tile, so relaxed-atomic semantics already
//!   allow every load of the tile to return the value it read at the
//!   copy: reading the panel once per tile is one of the executions the
//!   unpacked loop may have.
//! * a wide strip runs instruction `k` for every point of the strip
//!   before instruction `k + 1`. With every stored array touched by one
//!   access slot only, no load reads an array the strip writes, and each
//!   stored location receives its writes from its one store instruction
//!   in point order; with every access proven, no fault can be reordered
//!   against a store. Every value a point computes is therefore the one
//!   the per-point order computes.
//!
//! Kernel `%` takes an exact integer path when both operands are
//! integer-valued, below 2^53 in magnitude, and the divisor is nonzero:
//! the truncated `i64` remainder, signed like the dividend, is exactly
//! f64 `%` (including its `-0.0` results). Everything else calls f64 `%`.
//!
//! The unrolled loops never reassociate floating-point sums. Access to a
//! `SharedRegion` stays relaxed-atomic throughout — a racing LITL-X
//! `spawn` may always write one concurrently, so handing LLVM a plain
//! `&[f64]` over it would be undefined behaviour no matter what the
//! kernel proves about itself. Relaxed `AtomicU64` loads/stores compile
//! to bare moves on x86-64, but the atomic slabs keep the autovectorizer
//! off; the packed panel is the kernel's own memory, copied out of the
//! slab, so the loop over it vectorizes without any new `unsafe`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm_core::SharedRegion;

use super::ast::BinOp;
use super::lower::{AffineIdx, KInstr, Kernel, KernelCode, MathFn, MathFn2};

/// A data-dependent bounds fault from an unproven access of the checked
/// fallback path. Deliberately a tiny `Copy` value: the hot loop returns
/// it by value and nothing allocates unless the caller formats it (the
/// text matches the interpreted kernel's error, so both paths report
/// identically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelFault {
    /// Array-table index of the faulting access.
    pub arr: usize,
    /// The affine index value that fell outside the array.
    pub index: i64,
    /// Length of the array.
    pub len: usize,
}

impl std::fmt::Display for KernelFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "index {} out of bounds for array of length {}",
            self.index, self.len
        )
    }
}

impl std::error::Error for KernelFault {}

/// One array access of the compiled kernel: the original affine form,
/// its innermost stride, and whether the whole-box bounds proof held.
#[derive(Debug, Clone)]
pub struct RunAccess {
    /// Array-table index.
    pub arr: usize,
    /// The affine index over absolute induction values.
    pub idx: AffineIdx,
    /// Innermost-level coefficient: the per-point index increment.
    pub stride: i64,
    /// Whether `min/max` of `idx` over the iteration box is provably in
    /// bounds — the license for the branch-free unchecked path.
    pub proven: bool,
}

/// One instruction of the optimized tape. Mirrors [`KInstr`] except that
/// loads and stores reference an access **slot** whose index is
/// maintained incrementally per point instead of re-evaluating the
/// affine polynomial.
#[derive(Debug, Clone, PartialEq)]
enum CInstr {
    Const {
        dst: usize,
        val: f64,
    },
    IdxVal {
        dst: usize,
        level: usize,
    },
    Load {
        dst: usize,
        slot: usize,
    },
    Bin {
        dst: usize,
        op: BinOp,
        a: usize,
        b: usize,
    },
    Neg {
        dst: usize,
        a: usize,
    },
    Call1 {
        dst: usize,
        f: MathFn,
        a: usize,
    },
    Call2 {
        dst: usize,
        f: MathFn2,
        a: usize,
        b: usize,
    },
    Store {
        src: usize,
        slot: usize,
        accumulate: bool,
    },
    /// `r[dst] = (innermost absolute index) % m`, for a non-negative
    /// innermost range: a counter wrapping at `m`.
    IdxRem {
        dst: usize,
        m: i64,
    },
}

impl CInstr {
    fn dst(&self) -> Option<usize> {
        match self {
            CInstr::Const { dst, .. }
            | CInstr::IdxVal { dst, .. }
            | CInstr::Load { dst, .. }
            | CInstr::Bin { dst, .. }
            | CInstr::Neg { dst, .. }
            | CInstr::Call1 { dst, .. }
            | CInstr::Call2 { dst, .. }
            | CInstr::IdxRem { dst, .. } => Some(*dst),
            CInstr::Store { .. } => None,
        }
    }

    fn operands(&self) -> (Option<usize>, Option<usize>) {
        match self {
            CInstr::Const { .. }
            | CInstr::IdxVal { .. }
            | CInstr::Load { .. }
            | CInstr::IdxRem { .. } => (None, None),
            CInstr::Neg { a, .. } | CInstr::Call1 { a, .. } => (Some(*a), None),
            CInstr::Bin { a, b, .. } | CInstr::Call2 { a, b, .. } => (Some(*a), Some(*b)),
            CInstr::Store { src, .. } => (Some(*src), None),
        }
    }
}

/// The `c[..] += a[..] * b[..]` reduction with an innermost-invariant
/// store: per-run register accumulation, one store.
#[derive(Debug, Clone, Copy)]
struct DotAccum {
    /// Access slots: the two loads and the accumulate store.
    a: usize,
    b: usize,
    c: usize,
    /// The index steps `[ca, cb, cc]` of slots `a`, `b`, `c` from one
    /// innermost run to the next at level `last - 1` (zero in a one-level
    /// nest): run `r` of a jam starts `r` steps on.
    step: [i64; 3],
    /// Whether a tile packs `b` into a panel and jams [`PACK_JAM`] runs
    /// over it (module docs, step 5).
    pack: bool,
}

impl DotAccum {
    /// Whether adjacent runs jam (module docs, step 5): they store to
    /// distinct `c` locations (`cc != 0`).
    fn jams(&self) -> bool {
        self.step[2] != 0
    }

    /// The runs-per-call widths a tile walk uses, widest first.
    fn widths(&self) -> &'static [usize] {
        match (self.pack, self.jams()) {
            (true, _) => &[PACK_JAM, JAM, 1],
            (false, true) => &[JAM, 1],
            (false, false) => &[1],
        }
    }
}

/// The packing rule (module docs, step 5) over the affine coefficients
/// of a dot-accum's store `c` and loads `a`, `b`: whether `b` packs.
/// The runs jam only when `c` steps at level `last - 1`. There `b` must
/// step one word per run, so a panel row is one contiguous slice, and
/// `a` must not step, so a block's runs share each `a` load; `b` must
/// have zero coefficients on every level above, so one panel of its
/// `(last - 1) × innermost` footprint serves every run of a tile.
fn packs_b(c: &[i64], a: &[i64], b: &[i64]) -> bool {
    let Some(jam) = c.len().checked_sub(2) else {
        return false;
    };
    c[jam] != 0 && a[jam] == 0 && b[jam] == 1 && b[..jam].iter().all(|&x| x == 0)
}

/// The `d[..] = a[..] * b[..] (+ k)` elementwise map; `k` is a
/// preamble register (run-invariant), if present.
#[derive(Debug, Clone, Copy)]
struct FmaMap {
    a: usize,
    b: usize,
    dst: usize,
    addend: Option<usize>,
}

/// How a compiled kernel executes a run.
#[derive(Debug, Clone)]
enum Plan {
    /// Monomorphized accumulate reduction (see [`DotAccum`]).
    DotAccum(DotAccum),
    /// Monomorphized elementwise FMA map (see [`FmaMap`]).
    FmaMap(FmaMap),
    /// The strip-mined tape executor.
    Tape,
}

/// Points per strip of a wide strip-mined tape (module docs, step 5).
pub const STRIP: usize = 64;

/// Adjacent dot-accum runs jammed into one loop over the atomic slabs
/// (module docs, step 5).
pub const JAM: usize = 4;

/// Adjacent dot-accum runs jammed into one loop over a packed panel
/// (module docs, step 5).
pub const PACK_JAM: usize = 16;

/// Largest `(last - 1) × innermost` footprint, in words, whose panel a
/// tile packs; a larger one runs the unpacked loops (module docs,
/// step 5).
const PANEL_CAP: u64 = 1 << 17;

/// Introspection of a compilation, for tests, benches and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileInfo {
    /// Which executor the kernel got: `"dot-accum"`, `"fma-map"` or
    /// `"tape"`.
    pub plan: &'static str,
    /// Total access slots.
    pub accesses: usize,
    /// Slots whose bounds proof held.
    pub proven: usize,
    /// Instructions hoisted to the once-per-run preamble.
    pub hoisted: usize,
    /// Per-point body instructions after optimization.
    pub body: usize,
    /// Whether every access is proven (the kernel is infallible).
    pub all_proven: bool,
    /// Innermost points per strip of the tape executor: [`STRIP`] or 1
    /// (module docs, step 5).
    pub strip: usize,
    /// Innermost runs per call a tile walk uses, widest first (module
    /// docs, step 5): `[PACK_JAM, JAM, 1]` for a packing dot-accum,
    /// `[JAM, 1]` for a jamming one, `[1]` otherwise.
    pub jams: &'static [usize],
}

impl CompileInfo {
    /// Whether a dot-accum tile packs `b` into a panel (module docs,
    /// step 5): its widest jam is [`PACK_JAM`].
    pub fn packs(&self) -> bool {
        self.jams[0] == PACK_JAM
    }
}

/// The immutable result of compiling a kernel against one nest geometry
/// and one set of array lengths: everything but the arrays themselves.
/// Shared behind an `Arc`, it is rebound to each run's arrays by
/// `CompiledKernel::bind`, which asserts the lengths the bounds proofs
/// were made against.
#[derive(Debug)]
pub(crate) struct CompiledCode {
    lens: Vec<usize>,
    los: Vec<i64>,
    trips: Vec<u64>,
    accesses: Vec<RunAccess>,
    /// `carry[k * accesses.len() + s]`: slot `s`'s index change when a
    /// tile steps level `k` (below the innermost) and resets the levels
    /// between it and the innermost from their last value to 0.
    carry: Vec<i64>,
    preamble: Vec<CInstr>,
    body: Vec<CInstr>,
    /// Preamble registers the body reads: broadcast into the column
    /// registers before each run of the tape.
    broadcast: Vec<usize>,
    regs: usize,
    plan: Plan,
    strip: usize,
}

/// A compiled kernel bound to one run's array table, executing runs of
/// the innermost level.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    code: Arc<CompiledCode>,
    arrays: Vec<SharedRegion>,
}

/// Bound `idx` over the rectangular box `[los[l], los[l]+trips[l])` per
/// level and check the extremes against `len`. Interval arithmetic in
/// `i128`: the i64 coefficients and bounds cannot overflow the product
/// space.
fn prove_in_bounds(idx: &AffineIdx, los: &[i64], trips: &[u64], len: usize) -> bool {
    let mut lo = idx.offset as i128;
    let mut hi = idx.offset as i128;
    for ((&c, &l0), &n) in idx.coefs.iter().zip(los).zip(trips) {
        if n == 0 {
            // Empty box: nothing will execute; treat as unproven so the
            // unchecked path is never licensed by a vacuous proof.
            return false;
        }
        let at_lo = (c as i128) * (l0 as i128);
        let at_hi = (c as i128) * (l0 as i128 + n as i128 - 1);
        lo += at_lo.min(at_hi);
        hi += at_lo.max(at_hi);
    }
    lo >= 0 && hi < len as i128
}

/// Magnitude bound of the exact integer paths: every integer below it is
/// an exact f64, and so is every intermediate of an `i64` remainder.
const EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// `x` as an integer, if it is one strictly below 2^53 in magnitude
/// (`-0.0` maps to 0; NaN and infinities to `None`).
#[inline(always)]
fn exact_int(x: f64) -> Option<i64> {
    if x.abs() < EXACT_INT {
        let i = x as i64;
        if i as f64 == x {
            return Some(i);
        }
    }
    None
}

/// f64 `%`, bit for bit, with an integer fast path: for integer-valued
/// operands below 2^53 and a nonzero divisor, the truncated `i64`
/// remainder is the exact f64 remainder, and giving it the dividend's
/// sign reproduces f64 `%`'s signed zeros.
#[inline(always)]
fn rem_f64(x: f64, y: f64) -> f64 {
    match (exact_int(x), exact_int(y)) {
        (Some(a), Some(b)) if b != 0 => ((a % b) as f64).copysign(x),
        _ => x % y,
    }
}

fn eval_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Rem => rem_f64(x, y),
        BinOp::Eq => (x == y) as i64 as f64,
        BinOp::Ne => (x != y) as i64 as f64,
        BinOp::Lt => (x < y) as i64 as f64,
        BinOp::Le => (x <= y) as i64 as f64,
        BinOp::Gt => (x > y) as i64 as f64,
        BinOp::Ge => (x >= y) as i64 as f64,
        BinOp::And | BinOp::Or => unreachable!("bailed at lowering"),
    }
}

fn eval_call1(f: MathFn, x: f64) -> f64 {
    match f {
        MathFn::Sqrt => x.sqrt(),
        MathFn::Abs => x.abs(),
        MathFn::Exp => x.exp(),
        MathFn::Log => x.ln(),
        MathFn::Sin => x.sin(),
        MathFn::Cos => x.cos(),
        MathFn::Floor => x.floor(),
    }
}

fn eval_call2(f: MathFn2, x: f64, y: f64) -> f64 {
    match f {
        MathFn2::Pow => x.powf(y),
        MathFn2::Min => x.min(y),
        MathFn2::Max => x.max(y),
    }
}

/// Compile `kernel` against the nest's rectangular `trips` (one count
/// per level, outermost first — the same geometry the SSP executor
/// partitions). The result is tied to this geometry and to the lengths
/// of `kernel.arrays`: the bounds proofs quantify over exactly this box,
/// [`CompiledKernel::execute_tile`] asserts membership, and
/// `CompiledKernel::bind` asserts the lengths.
pub fn compile(kernel: &Kernel, trips: &[u64]) -> CompiledKernel {
    let lens: Vec<usize> = kernel.arrays.iter().map(SharedRegion::len).collect();
    let code = Arc::new(compile_code(&kernel.code, lens, trips));
    CompiledKernel::bind(code, kernel.arrays.clone())
}

/// The array-independent core of [`compile`]: `lens[k]` is the length
/// the bounds proofs assume for array-table entry `k`.
pub(crate) fn compile_code(kernel: &KernelCode, lens: Vec<usize>, trips: &[u64]) -> CompiledCode {
    assert_eq!(
        kernel.los.len(),
        trips.len(),
        "trip counts must cover every nest level"
    );
    let depth = trips.len();
    let innermost = depth - 1;

    // Pass 1: KInstr -> CInstr, collecting access slots (base + stride +
    // bounds proof) and folding constants as we go.
    let mut accesses: Vec<RunAccess> = Vec::new();
    let slot = |accesses: &mut Vec<RunAccess>, arr: usize, idx: &AffineIdx| -> usize {
        accesses.push(RunAccess {
            arr,
            idx: idx.clone(),
            stride: *idx.coefs.last().expect("depth >= 1"),
            proven: prove_in_bounds(idx, &kernel.los, trips, lens[arr]),
        });
        accesses.len() - 1
    };
    let mut known: Vec<Option<f64>> = vec![None; kernel.regs];
    // Registers holding the innermost index value. `% constant` of one
    // becomes a counter only over a non-negative range below 2^53, where
    // its non-negative values are exactly f64 `%` (a negative dividend
    // would need `-0.0`s).
    let mut innermost_idx = vec![false; kernel.regs];
    let inner_lo = kernel.los[innermost];
    let counter_ok = inner_lo >= 0 && (inner_lo as f64 + trips[innermost] as f64) < EXACT_INT;
    let mut instrs: Vec<CInstr> = Vec::with_capacity(kernel.instrs.len());
    for ins in &kernel.instrs {
        match ins {
            KInstr::Const { dst, val } => {
                known[*dst] = Some(*val);
                instrs.push(CInstr::Const {
                    dst: *dst,
                    val: *val,
                });
            }
            KInstr::IdxVal { dst, level } => {
                innermost_idx[*dst] = *level == innermost;
                instrs.push(CInstr::IdxVal {
                    dst: *dst,
                    level: *level,
                });
            }
            KInstr::Load { dst, arr, idx } => {
                let s = slot(&mut accesses, *arr, idx);
                instrs.push(CInstr::Load { dst: *dst, slot: s });
            }
            KInstr::Bin { dst, op, a, b } => match (known[*a], known[*b]) {
                (Some(x), Some(y)) => {
                    let v = eval_bin(*op, x, y);
                    known[*dst] = Some(v);
                    instrs.push(CInstr::Const { dst: *dst, val: v });
                }
                (None, Some(c))
                    if *op == BinOp::Rem
                        && innermost_idx[*a]
                        && counter_ok
                        && exact_int(c).is_some_and(|m| m != 0) =>
                {
                    instrs.push(CInstr::IdxRem {
                        dst: *dst,
                        m: c.abs() as i64,
                    });
                }
                _ => instrs.push(CInstr::Bin {
                    dst: *dst,
                    op: *op,
                    a: *a,
                    b: *b,
                }),
            },
            KInstr::Neg { dst, a } => match known[*a] {
                Some(x) => {
                    known[*dst] = Some(-x);
                    instrs.push(CInstr::Const { dst: *dst, val: -x });
                }
                None => instrs.push(CInstr::Neg { dst: *dst, a: *a }),
            },
            KInstr::Call1 { dst, f, a } => match known[*a] {
                Some(x) => {
                    let v = eval_call1(*f, x);
                    known[*dst] = Some(v);
                    instrs.push(CInstr::Const { dst: *dst, val: v });
                }
                None => instrs.push(CInstr::Call1 {
                    dst: *dst,
                    f: *f,
                    a: *a,
                }),
            },
            KInstr::Call2 { dst, f, a, b } => match (known[*a], known[*b]) {
                (Some(x), Some(y)) => {
                    let v = eval_call2(*f, x, y);
                    known[*dst] = Some(v);
                    instrs.push(CInstr::Const { dst: *dst, val: v });
                }
                _ => instrs.push(CInstr::Call2 {
                    dst: *dst,
                    f: *f,
                    a: *a,
                    b: *b,
                }),
            },
            KInstr::Store {
                src,
                arr,
                idx,
                accumulate,
            } => {
                let s = slot(&mut accesses, *arr, idx);
                instrs.push(CInstr::Store {
                    src: *src,
                    slot: s,
                    accumulate: *accumulate,
                });
            }
        }
    }

    // The strip-mined tape borrows an instruction's operand columns
    // beside its destination column, which needs operands numbered below
    // the destination — true of the lowering's single-assignment tape.
    for ins in &instrs {
        if let Some(d) = ins.dst() {
            let (a, b) = ins.operands();
            assert!(
                a.is_none_or(|a| a < d) && b.is_none_or(|b| b < d),
                "kernel registers must be defined before use: {ins:?}"
            );
        }
    }

    // Pass 2: dead-register elimination (backward liveness). Stores are
    // roots. A dead *load* may only be dropped when its bounds are proven
    // — an unproven dead load must stay, or the compiled kernel would
    // stop faulting where the interpreted one faults.
    let mut live = vec![false; kernel.regs];
    let mut keep = vec![false; instrs.len()];
    for (i, ins) in instrs.iter().enumerate().rev() {
        let needed = match ins {
            CInstr::Store { .. } => true,
            CInstr::Load { dst, slot } => live[*dst] || !accesses[*slot].proven,
            other => other.dst().map(|d| live[d]).unwrap_or(false),
        };
        keep[i] = needed;
        if needed {
            let (a, b) = ins.operands();
            if let Some(a) = a {
                live[a] = true;
            }
            if let Some(b) = b {
                live[b] = true;
            }
        }
    }
    let instrs: Vec<CInstr> = instrs
        .into_iter()
        .zip(keep)
        .filter_map(|(ins, k)| k.then_some(ins))
        .collect();

    // Pass 3: preamble/body split. Innermost-invariant instructions run
    // once per run. A load hoists only when its innermost stride is 0,
    // its bounds are proven (a hoisted fault would reorder against body
    // stores), and the kernel never stores its array (a body store could
    // feed it mid-run).
    let mut array_stored = vec![false; lens.len()];
    for ins in &instrs {
        if let CInstr::Store { slot, .. } = ins {
            array_stored[accesses[*slot].arr] = true;
        }
    }
    let mut hoisted_reg = vec![false; kernel.regs];
    let mut preamble = Vec::new();
    let mut body = Vec::new();
    for ins in instrs {
        let hoist = match &ins {
            CInstr::Const { .. } => true,
            CInstr::IdxVal { level, .. } => *level < innermost,
            CInstr::Load { slot, .. } => {
                let a = &accesses[*slot];
                a.stride == 0 && a.proven && !array_stored[a.arr]
            }
            CInstr::Neg { a, .. } | CInstr::Call1 { a, .. } => hoisted_reg[*a],
            CInstr::Bin { a, b, .. } | CInstr::Call2 { a, b, .. } => {
                hoisted_reg[*a] && hoisted_reg[*b]
            }
            CInstr::Store { .. } | CInstr::IdxRem { .. } => false,
        };
        if hoist {
            if let Some(d) = ins.dst() {
                hoisted_reg[d] = true;
            }
            preamble.push(ins);
        } else {
            body.push(ins);
        }
    }

    // Pass 4: monomorphization over the residual body.
    let mut plan = match_dot_accum(&body, &accesses)
        .or_else(|| match_fma_map(&body, &accesses, &hoisted_reg))
        .unwrap_or(Plan::Tape);

    // The tape's strip width (module docs, step 5): wide only when no
    // access can fault and no stored array is touched by a second slot.
    let mut slots_per_array = vec![0usize; lens.len()];
    let mut all_proven = true;
    for ins in preamble.iter().chain(&body) {
        if let CInstr::Load { slot, .. } | CInstr::Store { slot, .. } = ins {
            slots_per_array[accesses[*slot].arr] += 1;
            all_proven &= accesses[*slot].proven;
        }
    }
    let single_slot_stores = (0..lens.len()).all(|k| !array_stored[k] || slots_per_array[k] == 1);
    let strip = if all_proven && single_slot_stores {
        STRIP
    } else {
        1
    };

    let mut broadcast: Vec<usize> = Vec::new();
    for ins in &body {
        let (a, b) = ins.operands();
        for r in [a, b].into_iter().flatten() {
            if hoisted_reg[r] && !broadcast.contains(&r) {
                broadcast.push(r);
            }
        }
    }

    // Per-level index carries for the tile walk (levels below the
    // innermost): stepping level `k` adds its coefficient and rewinds
    // every level between it and the innermost from its last index to 0.
    let mut carry = Vec::with_capacity(innermost * accesses.len());
    for k in 0..innermost {
        carry.extend(accesses.iter().map(|a| {
            a.idx.coefs[k]
                - (k + 1..innermost)
                    .map(|m| a.idx.coefs[m] * (trips[m] as i64 - 1))
                    .sum::<i64>()
        }));
    }
    if let (Plan::DotAccum(m), Some(k)) = (&mut plan, innermost.checked_sub(1)) {
        let run_step = &carry[k * accesses.len()..];
        m.step = [run_step[m.a], run_step[m.b], run_step[m.c]];
        let coefs = |s: usize| accesses[s].idx.coefs.as_slice();
        m.pack = packs_b(coefs(m.c), coefs(m.a), coefs(m.b))
            && trips[k] >= PACK_JAM as u64
            && trips[k] * trips[innermost] <= PANEL_CAP;
    }

    CompiledCode {
        lens,
        los: kernel.los.clone(),
        trips: trips.to_vec(),
        accesses,
        carry,
        preamble,
        body,
        broadcast,
        regs: kernel.regs,
        plan,
        strip,
    }
}

/// Match `c[inv] += a[..] * b[..]`: two loads, a multiply of exactly
/// those, an accumulate store of the product whose index is
/// innermost-invariant. Requires full bounds proofs and a store array
/// distinct from both load arrays (the run-long register accumulator
/// defers the store to the end of the run, which must not be observable
/// through a load).
fn match_dot_accum(body: &[CInstr], accesses: &[RunAccess]) -> Option<Plan> {
    let [CInstr::Load { dst: r1, slot: sa }, CInstr::Load { dst: r2, slot: sb }, CInstr::Bin {
        dst: r3,
        op: BinOp::Mul,
        a,
        b,
    }, CInstr::Store {
        src,
        slot: sc,
        accumulate: true,
    }] = body
    else {
        return None;
    };
    if !((a == r1 && b == r2) || (a == r2 && b == r1)) || src != r3 {
        return None;
    }
    let (aa, ab, ac) = (&accesses[*sa], &accesses[*sb], &accesses[*sc]);
    if ac.stride != 0 || !(aa.proven && ab.proven && ac.proven) {
        return None;
    }
    if ac.arr == aa.arr || ac.arr == ab.arr {
        return None;
    }
    Some(Plan::DotAccum(DotAccum {
        a: *sa,
        b: *sb,
        c: *sc,
        step: [0; 3],
        pack: false,
    }))
}

/// Match `d[..] = a[..] * b[..]` or `d[..] = a[..] * b[..] + k` with `k`
/// a run-invariant (preamble) register. Requires full bounds proofs and
/// a destination array distinct from both sources: the unrolled loop
/// batches four loads before four stores, which is only
/// order-equivalent when they cannot alias.
fn match_fma_map(body: &[CInstr], accesses: &[RunAccess], hoisted_reg: &[bool]) -> Option<Plan> {
    let (sa, sb, r1, r2, mul, rest) = match body {
        [CInstr::Load { dst: r1, slot: sa }, CInstr::Load { dst: r2, slot: sb }, CInstr::Bin {
            dst,
            op: BinOp::Mul,
            a,
            b,
        }, rest @ ..] => (*sa, *sb, *r1, *r2, (*dst, *a, *b), rest),
        _ => return None,
    };
    let (r3, a, b) = mul;
    if !((a == r1 && b == r2) || (a == r2 && b == r1)) {
        return None;
    }
    let (addend, store) = match rest {
        [CInstr::Store {
            src,
            slot,
            accumulate: false,
        }] if *src == r3 => (None, *slot),
        [CInstr::Bin {
            dst: r4,
            op: BinOp::Add,
            a: x,
            b: y,
        }, CInstr::Store {
            src,
            slot,
            accumulate: false,
        }] if *src == *r4 => {
            let k = if *x == r3 && hoisted_reg.get(*y).copied().unwrap_or(false) {
                *y
            } else if *y == r3 && hoisted_reg.get(*x).copied().unwrap_or(false) {
                *x
            } else {
                return None;
            };
            (Some(k), *slot)
        }
        _ => return None,
    };
    let (aa, ab, ad) = (&accesses[sa], &accesses[sb], &accesses[store]);
    if !(aa.proven && ab.proven && ad.proven) {
        return None;
    }
    if ad.arr == aa.arr || ad.arr == ab.arr {
        return None;
    }
    Some(Plan::FmaMap(FmaMap {
        a: sa,
        b: sb,
        dst: store,
        addend,
    }))
}

/// Relaxed-atomic `f64` load without a bounds check.
///
/// # Safety
///
/// `i` is non-negative and `(i as usize) < w.len()` — established by the
/// caller's compile-time bounds proof plus `execute_tile`'s box assertion.
#[inline(always)]
unsafe fn lrel(w: &[AtomicU64], i: i64) -> f64 {
    debug_assert!(0 <= i && (i as usize) < w.len());
    f64::from_bits(w.get_unchecked(i as usize).load(Ordering::Relaxed))
}

/// Relaxed-atomic `f64` store without a bounds check.
///
/// # Safety
///
/// Same contract as [`lrel`].
#[inline(always)]
unsafe fn srel(w: &[AtomicU64], i: i64, v: f64) {
    debug_assert!(0 <= i && (i as usize) < w.len());
    w.get_unchecked(i as usize)
        .store(v.to_bits(), Ordering::Relaxed);
}

/// One strip of column registers.
type Lanes = [f64; STRIP];

/// Per-thread tile scratch: scalar registers (the preamble's), column
/// registers (the tape's), absolute induction values, the per-slot
/// base indices and a packing dot-accum's panel — borrowed **once per
/// tile**, not once per run or point.
struct TileScratch {
    regs: Vec<f64>,
    cols: Vec<Lanes>,
    abs: Vec<i64>,
    idxs: Vec<i64>,
    panel: Vec<f64>,
}

thread_local! {
    static TILE_SCRATCH: std::cell::RefCell<TileScratch> = const {
        std::cell::RefCell::new(TileScratch {
            regs: Vec::new(),
            cols: Vec::new(),
            abs: Vec::new(),
            idxs: Vec::new(),
            panel: Vec::new(),
        })
    };
}

/// The column of `dst`, and below it the columns of its operands: the
/// lowering numbers registers in definition order and assigns each once,
/// so every operand register is below its instruction's `dst`
/// (asserted by `compile_code`).
#[inline(always)]
fn dst_col(cols: &mut [Lanes], dst: usize) -> (&[Lanes], &mut Lanes) {
    let (operands, rest) = cols.split_at_mut(dst);
    (operands, &mut rest[0])
}

/// `cols[dst][p] = f(cols[a][p])` over the strip's `w` lanes.
#[inline(always)]
fn lanes1(cols: &mut [Lanes], dst: usize, a: usize, w: usize, f: impl Fn(f64) -> f64) {
    let (src, out) = dst_col(cols, dst);
    for (v, &x) in out[..w].iter_mut().zip(&src[a][..w]) {
        *v = f(x);
    }
}

/// `cols[dst][p] = f(cols[a][p], cols[b][p])` over the strip's `w` lanes.
#[inline(always)]
fn lanes2(
    cols: &mut [Lanes],
    dst: usize,
    a: usize,
    b: usize,
    w: usize,
    f: impl Fn(f64, f64) -> f64,
) {
    let (src, out) = dst_col(cols, dst);
    let (xs, ys) = (&src[a][..w], &src[b][..w]);
    for ((v, &x), &y) in out[..w].iter_mut().zip(xs).zip(ys) {
        *v = f(x, y);
    }
}

impl CompiledKernel {
    /// Bind compiled `code` to one run's array table.
    ///
    /// # Panics
    ///
    /// If the table's lengths differ from those the code was compiled
    /// against (the unchecked accesses are licensed by bounds proofs over
    /// exactly those lengths), or if two entries are one region (the
    /// lowering deduplicates aliases, and the monomorphized shapes rely
    /// on distinct entries never overlapping).
    pub(crate) fn bind(code: Arc<CompiledCode>, arrays: Vec<SharedRegion>) -> Self {
        assert!(
            arrays.len() == code.lens.len()
                && arrays.iter().zip(&code.lens).all(|(a, &n)| a.len() == n),
            "array lengths differ from the compiled kernel's"
        );
        for (k, a) in arrays.iter().enumerate() {
            assert!(
                !arrays[..k].iter().any(|b| b.same_region(a)),
                "array-table entries must be distinct regions"
            );
        }
        Self { code, arrays }
    }

    /// What the compiler did with this kernel.
    pub fn info(&self) -> CompileInfo {
        let c = &self.code;
        CompileInfo {
            plan: match c.plan {
                Plan::DotAccum(_) => "dot-accum",
                Plan::FmaMap(_) => "fma-map",
                Plan::Tape => "tape",
            },
            accesses: c.accesses.len(),
            proven: c.accesses.iter().filter(|a| a.proven).count(),
            hoisted: c.preamble.len(),
            body: c.body.len(),
            all_proven: c.accesses.iter().all(|a| a.proven),
            strip: c.strip,
            jams: match &c.plan {
                Plan::DotAccum(m) => m.widths(),
                _ => &[1],
            },
        }
    }

    /// The access slots (for tests asserting which proofs held).
    pub fn accesses(&self) -> &[RunAccess] {
        &self.code.accesses
    }

    /// Execute one tile: with `outer` the 0-based indices of the levels
    /// outside level `outer.len()`, every iteration point whose index at
    /// that level lies in `lo..hi` (0-based) — inner levels full — in
    /// lexicographic order. This is one SSP group's work
    /// ([`htvm_ssp::exec::TileBody`]); the kernel translates indices via
    /// the nest's lower bounds.
    ///
    /// # Panics
    ///
    /// If the tile lies outside the compiled iteration box. The bounds
    /// proofs quantify over exactly that box, so membership is asserted
    /// — not assumed — before any unchecked access; the SSP executor
    /// catches the panic as the group's error.
    pub fn execute_tile(&self, outer: &[i64], lo: i64, hi: i64) -> Result<(), KernelFault> {
        self.code.execute_tile(&self.arrays, outer, lo, hi)
    }

    /// Execute one run: the iteration points `(prefix, t)` for `t` in
    /// `t0..t1`, where `prefix` holds the 0-based indices of every level
    /// but the innermost — the one-run tile.
    ///
    /// # Panics
    ///
    /// If `prefix` does not cover every level but the innermost, or the
    /// run lies outside the compiled iteration box (as
    /// [`CompiledKernel::execute_tile`]).
    pub fn execute_run(&self, prefix: &[i64], t0: i64, t1: i64) -> Result<(), KernelFault> {
        assert_eq!(
            prefix.len(),
            self.code.trips.len() - 1,
            "run prefix must cover every level but the innermost"
        );
        self.execute_tile(prefix, t0, t1)
    }
}

/// Tile execution lives on the code, with the bound array table as an
/// argument: the hot loops then read the code through a plain shared
/// reference, which the optimizer may keep in registers across the
/// relaxed-atomic stores. Only [`CompiledKernel::execute_tile`] calls in,
/// with the table `CompiledKernel::bind` checked against `lens`.
impl CompiledCode {
    /// [`CompiledKernel::execute_tile`] over `arrays`, a table whose
    /// lengths are `self.lens` and whose entries are distinct regions.
    fn execute_tile(
        &self,
        arrays: &[SharedRegion],
        outer: &[i64],
        lo: i64,
        hi: i64,
    ) -> Result<(), KernelFault> {
        let depth = self.trips.len();
        let level = outer.len();
        assert!(
            level < depth,
            "tile prefix of {level} levels in a depth-{depth} nest"
        );
        for (l, &p) in outer.iter().enumerate() {
            assert!(
                p >= 0 && (p as u64) < self.trips[l],
                "tile prefix {p} outside level {l} (trip count {})",
                self.trips[l]
            );
        }
        let n_level = self.trips[level];
        assert!(
            0 <= lo && lo <= hi && (hi as u64) <= n_level,
            "tile {lo}..{hi} outside level {level}'s trip count {n_level}"
        );
        if lo == hi || self.trips[level + 1..].contains(&0) {
            return Ok(()); // an empty tile
        }
        let last = depth - 1;
        TILE_SCRATCH.with(|cell| {
            let mut borrow = cell.borrow_mut();
            let TileScratch {
                regs,
                cols,
                abs,
                idxs,
                panel,
            } = &mut *borrow;
            abs.clear();
            abs.extend(self.los.iter().zip(outer).map(|(l0, p)| l0 + p));
            abs.push(self.los[level] + lo);
            abs.extend_from_slice(&self.los[level + 1..]);
            idxs.clear();
            idxs.extend(self.accesses.iter().map(|a| a.idx.eval(abs)));
            regs.clear();
            regs.resize(self.regs, 0.0);
            if matches!(self.plan, Plan::Tape) && cols.len() < self.regs {
                cols.resize(self.regs, [0.0; STRIP]);
            }
            if level == last {
                return self.run(arrays, regs, cols, abs, idxs, (hi - lo) as usize);
            }
            // Walk the levels `level..last` as an odometer (`level` over
            // `lo..hi`, the rest full), one full innermost run per tuple —
            // or, for a jamming dot-accum, the widest jam of runs left at
            // level `last - 1` in one call, the odometer then resuming
            // from the last of them. A packing dot-accum first copies
            // `b`'s footprint for the `PACK_JAM`-wide blocks of every
            // `last - 1` walk, which all start at `j0`.
            let n_last = self.trips[last] as usize;
            let slots = self.accesses.len();
            let end = |k: usize| self.los[k] + if k == level { hi } else { self.trips[k] as i64 };
            let j0 = abs[last - 1];
            let jam = match &self.plan {
                Plan::DotAccum(m) if m.jams() => {
                    let blocks = (end(last - 1) - j0) as usize / PACK_JAM;
                    // Only a tile that walks the `last - 1` level more
                    // than once reads its panel more than once.
                    let reused = level + 1 < last
                        && (hi - lo > 1 || self.trips[level + 1..last - 1].iter().any(|&t| t > 1));
                    let packed = m.pack && blocks > 0 && reused;
                    if packed {
                        self.pack_panel(arrays, m, idxs[m.b], blocks, n_last, panel);
                    }
                    Some((m, packed))
                }
                _ => None,
            };
            let block = n_last * PACK_JAM;
            loop {
                let left = end(last - 1) - abs[last - 1];
                // No preamble before a jam: the dot-accum body reads none
                // of its registers, and it has no effects.
                let runs = match jam {
                    Some((m, true)) if left >= PACK_JAM as i64 => {
                        let at = (abs[last - 1] - j0) as usize / PACK_JAM * block;
                        self.run_dot_accum_packed::<PACK_JAM>(
                            arrays,
                            m,
                            &panel[at..at + block],
                            idxs,
                            n_last,
                        );
                        PACK_JAM
                    }
                    Some((m, _)) if left >= JAM as i64 => {
                        self.run_dot_accum::<JAM>(arrays, m, idxs, n_last);
                        JAM
                    }
                    _ => {
                        self.run(arrays, regs, cols, abs, idxs, n_last)?;
                        1
                    }
                };
                if runs > 1 {
                    let skip = runs as i64 - 1;
                    abs[last - 1] += skip;
                    let carry = &self.carry[(last - 1) * slots..last * slots];
                    for (i, c) in idxs.iter_mut().zip(carry) {
                        *i += skip * c;
                    }
                }
                let mut k = last - 1;
                loop {
                    if abs[k] + 1 < end(k) {
                        abs[k] += 1;
                        let carry = &self.carry[k * slots..(k + 1) * slots];
                        for (i, c) in idxs.iter_mut().zip(carry) {
                            *i += c;
                        }
                        break;
                    }
                    if k == level {
                        return Ok(());
                    }
                    abs[k] = self.los[k];
                    k -= 1;
                }
            }
        })
    }

    /// One innermost run of `n` points from the current `abs` (the run's
    /// first point) and `idxs` (each slot's index there): the preamble,
    /// then the plan. Inlined into both call sites of `execute_tile`,
    /// and the tape kept out of line, which measured ~10 ns less per
    /// one-run tile than an out-of-line `run`.
    #[inline(always)]
    fn run(
        &self,
        arrays: &[SharedRegion],
        regs: &mut [f64],
        cols: &mut [Lanes],
        abs: &[i64],
        idxs: &[i64],
        n: usize,
    ) -> Result<(), KernelFault> {
        self.run_preamble(arrays, abs, idxs, regs);
        match &self.plan {
            Plan::DotAccum(m) => {
                self.run_dot_accum::<1>(arrays, m, idxs, n);
                Ok(())
            }
            Plan::FmaMap(m) => {
                self.run_fma_map(arrays, m, regs, idxs, n);
                Ok(())
            }
            Plan::Tape => self.run_tape(arrays, regs, cols, abs[abs.len() - 1], idxs, n),
        }
    }

    /// The once-per-run preamble. Infallible by construction: only
    /// proven loads hoist.
    fn run_preamble(&self, arrays: &[SharedRegion], abs: &[i64], idxs: &[i64], regs: &mut [f64]) {
        for ins in &self.preamble {
            match ins {
                CInstr::Const { dst, val } => regs[*dst] = *val,
                CInstr::IdxVal { dst, level } => regs[*dst] = abs[*level] as f64,
                CInstr::Load { dst, slot } => {
                    let a = &self.accesses[*slot];
                    // SAFETY: hoisted loads are proven in bounds over the
                    // whole box, and `execute_tile` asserted membership;
                    // `idxs[slot]` is the affine form at this run's point.
                    regs[*dst] = unsafe { arrays[a.arr].read_f64_unchecked(idxs[*slot] as usize) };
                }
                CInstr::Bin { dst, op, a, b } => regs[*dst] = eval_bin(*op, regs[*a], regs[*b]),
                CInstr::Neg { dst, a } => regs[*dst] = -regs[*a],
                CInstr::Call1 { dst, f, a } => regs[*dst] = eval_call1(*f, regs[*a]),
                CInstr::Call2 { dst, f, a, b } => {
                    regs[*dst] = eval_call2(*f, regs[*a], regs[*b]);
                }
                CInstr::Store { .. } | CInstr::IdxRem { .. } => {
                    unreachable!("stores and index counters never hoist")
                }
            }
        }
    }

    /// Copy `b`'s footprint for `blocks` blocks of [`PACK_JAM`] runs into
    /// `panel`, from `ib`, `b`'s index at the tile's first point: run `r`
    /// of block `q` at innermost step `k` lands at
    /// `[(q·n + k)·PACK_JAM + r]`, so each step of a block reads one
    /// contiguous row. The loads are relaxed-atomic and bounds-checked;
    /// the kernel never stores `b` (the matcher requires a distinct store
    /// array), so the panel stays what each run would read, up to a
    /// racing writer (module docs).
    fn pack_panel(
        &self,
        arrays: &[SharedRegion],
        m: &DotAccum,
        ib: i64,
        blocks: usize,
        n: usize,
        panel: &mut Vec<f64>,
    ) {
        let ab = &self.accesses[m.b];
        let bw = arrays[ab.arr].atomics();
        let db = ab.stride;
        panel.clear();
        panel.resize(blocks * n * PACK_JAM, 0.0);
        let (rows, _) = panel.as_chunks_mut::<PACK_JAM>();
        for (qk, row) in rows.iter_mut().enumerate() {
            let (q, k) = ((qk / n) as i64, (qk % n) as i64);
            // `b` steps one word per run (`packs_b`): a row is one slice,
            // one bounds check.
            let words = &bw[(ib + q * PACK_JAM as i64 + k * db) as usize..][..PACK_JAM];
            for (v, w) in row.iter_mut().zip(words) {
                *v = f64::from_bits(w.load(Ordering::Relaxed));
            }
        }
    }

    /// `R` adjacent dot-accum runs over a packed block of `b`
    /// ([`CompiledCode::pack_panel`]): `panel` holds `R` values per
    /// innermost step, one per run, so each step is one plain-`f64`
    /// multiply-add of the runs' shared `a` value across the `R`
    /// accumulators, which the autovectorizer takes. `a` and `c` stay on
    /// the proven atomic accessors. Requires `m.pack` (so `a` does not
    /// step across the runs) and `R` runs of the tile left at level
    /// `last - 1`.
    #[inline(always)]
    fn run_dot_accum_packed<const R: usize>(
        &self,
        arrays: &[SharedRegion],
        m: &DotAccum,
        panel: &[f64],
        idxs: &[i64],
        n: usize,
    ) {
        let (aa, ac) = (&self.accesses[m.a], &self.accesses[m.c]);
        let aw = arrays[aa.arr].atomics();
        let cw = arrays[ac.arr].atomics();
        let da = aa.stride;
        let cc = m.step[2];
        let mut ia = idxs[m.a];
        let ic = idxs[m.c];
        let (rows, _) = panel.as_chunks::<R>();
        // SAFETY: as in `run_dot_accum` — every `a` and `c` index is the
        // access's affine form at a point of one of the `R` runs, which
        // lie in the asserted tile, and both slots are proven. Run `r`
        // adds exactly the products of its unpacked loop, in `k` order,
        // onto its own loaded `c` value.
        unsafe {
            let mut s: [f64; R] = std::array::from_fn(|r| lrel(cw, ic + r as i64 * cc));
            for row in &rows[..n] {
                let x = lrel(aw, ia);
                for (s, &y) in s.iter_mut().zip(row) {
                    *s += x * y;
                }
                ia += da;
            }
            for (r, s) in s.into_iter().enumerate() {
                srel(cw, ic + r as i64 * cc, s);
            }
        }
    }

    /// `R` adjacent innermost runs of the dot-accum shape in one loop:
    /// run `r` starts `r` steps of level `last - 1` (`m.step`) past
    /// `idxs` and keeps its own accumulator, so the `R` serial add chains
    /// overlap. `R = 1` is the one-run loop; `R > 1` requires
    /// `m.jams()` (distinct `c` locations) and `R` runs of the tile
    /// left at level `last - 1`.
    #[inline(always)]
    fn run_dot_accum<const R: usize>(
        &self,
        arrays: &[SharedRegion],
        m: &DotAccum,
        idxs: &[i64],
        n: usize,
    ) {
        let (aa, ab, ac) = (
            &self.accesses[m.a],
            &self.accesses[m.b],
            &self.accesses[m.c],
        );
        let aw = arrays[aa.arr].atomics();
        let bw = arrays[ab.arr].atomics();
        let cw = arrays[ac.arr].atomics();
        let (da, db) = (aa.stride, ab.stride);
        let [ca, cb, cc] = m.step;
        let mut ia = idxs[m.a];
        let mut ib = idxs[m.b];
        let ic = idxs[m.c];
        // SAFETY: every index below is the access's affine form evaluated
        // at a point of one of the `R` runs, which the caller guarantees
        // lie in the tile; `execute_tile` asserted the tile lies in the
        // compiled box and the matcher required full bounds proofs over
        // that box. Keeping each run's accumulator in a register is
        // exact: its products are added in iteration order onto its own
        // loaded value (bit-identical to per-point read-add-write — the
        // SSP wavefront guarantees no concurrent writer), the `R` stored
        // locations are distinct (`cc != 0` when `R > 1`), and the store
        // array is proven distinct from both load arrays.
        unsafe {
            let mut s: [f64; R] = std::array::from_fn(|r| lrel(cw, ic + r as i64 * cc));
            // One `k` step of every chain, from the chain-0 indices. A
            // slot whose run step is 0 is one location for every chain:
            // it is loaded once (a relaxed-atomic load is never merged by
            // the optimizer).
            let mut k_step = |ia: i64, ib: i64| {
                let (x0, y0) = (lrel(aw, ia), lrel(bw, ib));
                for (r, s) in s.iter_mut().enumerate() {
                    let r = r as i64;
                    let x = if r == 0 || ca == 0 {
                        x0
                    } else {
                        lrel(aw, ia + r * ca)
                    };
                    let y = if r == 0 || cb == 0 {
                        y0
                    } else {
                        lrel(bw, ib + r * cb)
                    };
                    *s += x * y;
                }
            };
            // Unrolled to 4 products per trip in all.
            let unroll = (4 / R).max(1);
            let mut k = 0usize;
            while k + unroll <= n {
                for u in 0..unroll as i64 {
                    k_step(ia + u * da, ib + u * db);
                }
                ia += unroll as i64 * da;
                ib += unroll as i64 * db;
                k += unroll;
            }
            while k < n {
                k_step(ia, ib);
                ia += da;
                ib += db;
                k += 1;
            }
            for (r, s) in s.into_iter().enumerate() {
                srel(cw, ic + r as i64 * cc, s);
            }
        }
    }

    fn run_fma_map(
        &self,
        arrays: &[SharedRegion],
        m: &FmaMap,
        regs: &[f64],
        idxs: &[i64],
        n: usize,
    ) {
        let (aa, ab, ad) = (
            &self.accesses[m.a],
            &self.accesses[m.b],
            &self.accesses[m.dst],
        );
        let aw = arrays[aa.arr].atomics();
        let bw = arrays[ab.arr].atomics();
        let dw = arrays[ad.arr].atomics();
        let (da, db, dd) = (aa.stride, ab.stride, ad.stride);
        let mut ia = idxs[m.a];
        let mut ib = idxs[m.b];
        let mut id = idxs[m.dst];
        let add = m.addend.map(|r| regs[r]);
        // SAFETY: as in `run_dot_accum` — tile-in-box asserted, all three
        // slots proven. The 4-wide batches reorder loads against stores
        // only across arrays proven distinct (the matcher rejects
        // aliases), and no floating-point sum is reassociated: each
        // point computes exactly `a*b` or `a*b + k` as the interpreter
        // would.
        unsafe {
            let mut k = 0usize;
            if let Some(v) = add {
                while k + 4 <= n {
                    let p0 = lrel(aw, ia) * lrel(bw, ib) + v;
                    let p1 = lrel(aw, ia + da) * lrel(bw, ib + db) + v;
                    let p2 = lrel(aw, ia + 2 * da) * lrel(bw, ib + 2 * db) + v;
                    let p3 = lrel(aw, ia + 3 * da) * lrel(bw, ib + 3 * db) + v;
                    srel(dw, id, p0);
                    srel(dw, id + dd, p1);
                    srel(dw, id + 2 * dd, p2);
                    srel(dw, id + 3 * dd, p3);
                    ia += 4 * da;
                    ib += 4 * db;
                    id += 4 * dd;
                    k += 4;
                }
                while k < n {
                    srel(dw, id, lrel(aw, ia) * lrel(bw, ib) + v);
                    ia += da;
                    ib += db;
                    id += dd;
                    k += 1;
                }
            } else {
                while k + 4 <= n {
                    let p0 = lrel(aw, ia) * lrel(bw, ib);
                    let p1 = lrel(aw, ia + da) * lrel(bw, ib + db);
                    let p2 = lrel(aw, ia + 2 * da) * lrel(bw, ib + 2 * db);
                    let p3 = lrel(aw, ia + 3 * da) * lrel(bw, ib + 3 * db);
                    srel(dw, id, p0);
                    srel(dw, id + dd, p1);
                    srel(dw, id + 2 * dd, p2);
                    srel(dw, id + 3 * dd, p3);
                    ia += 4 * da;
                    ib += 4 * db;
                    id += 4 * dd;
                    k += 4;
                }
                while k < n {
                    srel(dw, id, lrel(aw, ia) * lrel(bw, ib));
                    ia += da;
                    ib += db;
                    id += dd;
                    k += 1;
                }
            }
        }
    }

    /// The strip-mined tape: each body instruction runs over a strip of
    /// up to `self.strip` innermost points in column registers before the
    /// next instruction starts (module docs, step 5). `t` is the run's
    /// first absolute innermost index, `idxs` each slot's index there.
    /// Proven accesses run branch-free; unproven ones (only ever in
    /// one-point strips) are checked and fault allocation-free.
    #[inline(never)]
    fn run_tape(
        &self,
        arrays: &[SharedRegion],
        regs: &[f64],
        cols: &mut [Lanes],
        t: i64,
        idxs: &[i64],
        n: usize,
    ) -> Result<(), KernelFault> {
        let width = self.strip.min(n);
        for &r in &self.broadcast {
            cols[r][..width].fill(regs[r]);
        }
        let mut s = 0usize;
        while s < n {
            let w = width.min(n - s);
            let t0 = t + s as i64;
            for ins in &self.body {
                match ins {
                    CInstr::Const { dst, val } => cols[*dst][..w].fill(*val),
                    // Only the innermost level's index value stays in
                    // the body; the outer ones hoist.
                    CInstr::IdxVal { dst, .. } => {
                        for (p, v) in cols[*dst][..w].iter_mut().enumerate() {
                            *v = (t0 + p as i64) as f64;
                        }
                    }
                    CInstr::IdxRem { dst, m } => {
                        // `t0 >= 0`: the compiler emits counters only
                        // over non-negative innermost ranges.
                        let mut r = t0 % m;
                        for v in cols[*dst][..w].iter_mut() {
                            *v = r as f64;
                            r += 1;
                            if r == *m {
                                r = 0;
                            }
                        }
                    }
                    CInstr::Load { dst, slot } => {
                        let a = &self.accesses[*slot];
                        let (st, i0) = (a.stride, idxs[*slot] + s as i64 * a.stride);
                        let region = &arrays[a.arr];
                        let col = &mut cols[*dst][..w];
                        if a.proven {
                            let words = region.atomics();
                            for (p, v) in col.iter_mut().enumerate() {
                                // SAFETY: proven over the box; tile-in-box
                                // asserted by `execute_tile`.
                                *v = unsafe { lrel(words, i0 + p as i64 * st) };
                            }
                        } else {
                            for (p, v) in col.iter_mut().enumerate() {
                                let i = i0 + p as i64 * st;
                                if i < 0 || i as usize >= region.len() {
                                    return Err(KernelFault {
                                        arr: a.arr,
                                        index: i,
                                        len: region.len(),
                                    });
                                }
                                *v = region.read_f64(i as usize);
                            }
                        }
                    }
                    CInstr::Bin { dst, op, a, b } => {
                        let (d, a, b) = (*dst, *a, *b);
                        match op {
                            BinOp::Add => lanes2(cols, d, a, b, w, |x, y| x + y),
                            BinOp::Sub => lanes2(cols, d, a, b, w, |x, y| x - y),
                            BinOp::Mul => lanes2(cols, d, a, b, w, |x, y| x * y),
                            BinOp::Div => lanes2(cols, d, a, b, w, |x, y| x / y),
                            BinOp::Rem => lanes2(cols, d, a, b, w, rem_f64),
                            op => lanes2(cols, d, a, b, w, |x, y| eval_bin(*op, x, y)),
                        }
                    }
                    CInstr::Neg { dst, a } => lanes1(cols, *dst, *a, w, |x| -x),
                    CInstr::Call1 { dst, f, a } => {
                        lanes1(cols, *dst, *a, w, |x| eval_call1(*f, x));
                    }
                    CInstr::Call2 { dst, f, a, b } => {
                        lanes2(cols, *dst, *a, *b, w, |x, y| eval_call2(*f, x, y));
                    }
                    CInstr::Store {
                        src,
                        slot,
                        accumulate,
                    } => {
                        let a = &self.accesses[*slot];
                        let (st, i0) = (a.stride, idxs[*slot] + s as i64 * a.stride);
                        let region = &arrays[a.arr];
                        let col = &cols[*src][..w];
                        if a.proven {
                            // SAFETY: proven over the box; tile-in-box
                            // asserted by `execute_tile`. The plain
                            // load-add-store accumulate is exact under
                            // the executor's serialization of
                            // same-location accesses (module docs).
                            unsafe {
                                if *accumulate {
                                    for (p, &v) in col.iter().enumerate() {
                                        region
                                            .accum_f64_unchecked((i0 + p as i64 * st) as usize, v);
                                    }
                                } else {
                                    for (p, &v) in col.iter().enumerate() {
                                        region
                                            .write_f64_unchecked((i0 + p as i64 * st) as usize, v);
                                    }
                                }
                            }
                        } else {
                            for (p, &v) in col.iter().enumerate() {
                                let i = i0 + p as i64 * st;
                                if i < 0 || i as usize >= region.len() {
                                    return Err(KernelFault {
                                        arr: a.arr,
                                        index: i,
                                        len: region.len(),
                                    });
                                }
                                if *accumulate {
                                    region.fetch_add_f64(i as usize, v);
                                } else {
                                    region.write_f64(i as usize, v);
                                }
                            }
                        }
                    }
                }
            }
            s += w;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::interp::Value;
    use crate::lang::lower::{lower_forall, LoweredForall};
    use crate::lang::parser::parse;
    use crate::lang::Stmt;

    /// Lower the first `forall` of `main` with the given free bindings.
    fn lower_src(src: &str, bindings: &[(&str, Value)]) -> LoweredForall {
        let p = parse(src).unwrap();
        let main = p.get_fn("main").unwrap();
        let Stmt::Forall {
            var,
            from,
            to,
            body,
            ..
        } = main
            .body
            .iter()
            .find(|s| matches!(s, Stmt::Forall { .. }))
            .unwrap()
        else {
            unreachable!()
        };
        let resolve = |name: &str| -> Option<Value> {
            bindings
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
        };
        let f = |e: &crate::lang::Expr| match e {
            crate::lang::Expr::Num(n) => *n as i64,
            _ => panic!("test bounds must be literal"),
        };
        lower_forall(var, f(from), f(to), body, &resolve).unwrap()
    }

    /// Run the compiled kernel over the full nest, run-at-a-time.
    fn run_all(c: &CompiledKernel, trips: &[u64]) -> Result<(), KernelFault> {
        let depth = trips.len();
        let combos: u64 = trips[..depth - 1].iter().product();
        for w in 0..combos {
            let mut prefix = vec![0i64; depth - 1];
            let mut rem = w;
            for (k, &n) in trips[..depth - 1].iter().enumerate().rev() {
                prefix[k] = (rem % n) as i64;
                rem /= n;
            }
            c.execute_run(&prefix, 0, trips[depth - 1] as i64)?;
        }
        Ok(())
    }

    #[test]
    fn matmul_compiles_to_dot_accum_and_matches_interpreter() {
        let n = 6usize;
        let src = "fn main() {
            forall i in 0..6 {
              forall j in 0..6 {
                for k in 0..6 {
                  c[i * 6 + j] += a[i * 6 + k] * b[k * 6 + j];
                }
              }
            }
          }";
        let data: Vec<f64> = (0..n * n).map(|v| (v as f64) * 0.37 - 3.1).collect();
        let a = SharedRegion::from_f64(&data);
        let b = SharedRegion::from_f64(&data.iter().map(|x| x * 1.5).collect::<Vec<_>>());
        let c1 = SharedRegion::new(n * n);
        let c2 = SharedRegion::new(n * n);
        let bind = |c: &SharedRegion| {
            vec![
                ("a", Value::Arr(a.clone())),
                ("b", Value::Arr(b.clone())),
                ("c", Value::Arr(c.clone())),
            ]
        };
        // Interpreted point-at-a-time reference.
        let l1 = lower_src(src, &bind(&c1));
        for i in 0..n as i64 {
            for j in 0..n as i64 {
                for k in 0..n as i64 {
                    l1.kernel.execute(&[i, j, k]).unwrap();
                }
            }
        }
        // Compiled run-at-a-time.
        let l2 = lower_src(src, &bind(&c2));
        let compiled = compile(&l2.kernel, &l2.nest.trip_counts);
        assert_eq!(compiled.info().plan, "dot-accum");
        assert!(compiled.info().all_proven);
        run_all(&compiled, &l2.nest.trip_counts).unwrap();
        // Bit-identical, not just close: the compiled reduction keeps
        // sequential order.
        assert_eq!(c1.to_f64_vec(), c2.to_f64_vec());
    }

    #[test]
    fn elementwise_product_compiles_to_fma_map() {
        let src = "fn main() {
            forall i in 0..4 {
              forall j in 0..5 {
                d[i * 5 + j] = x[i * 5 + j] * y[i * 5 + j];
              }
            }
          }";
        let x = SharedRegion::from_f64(&(0..20).map(|v| v as f64 * 0.5).collect::<Vec<_>>());
        let y = SharedRegion::from_f64(&(0..20).map(|v| v as f64 + 1.0).collect::<Vec<_>>());
        let d = SharedRegion::new(20);
        let l = lower_src(
            src,
            &[
                ("x", Value::Arr(x.clone())),
                ("y", Value::Arr(y.clone())),
                ("d", Value::Arr(d.clone())),
            ],
        );
        let c = compile(&l.kernel, &l.nest.trip_counts);
        assert_eq!(c.info().plan, "fma-map");
        run_all(&c, &l.nest.trip_counts).unwrap();
        for v in 0..20 {
            assert_eq!(d.read_f64(v), (v as f64 * 0.5) * (v as f64 + 1.0));
        }
    }

    #[test]
    fn aliasing_store_falls_back_to_tape() {
        // d aliases x: the monomorphized shapes must refuse, the tape
        // must still produce the sequential answer.
        let region = SharedRegion::from_f64(&(0..8).map(|v| v as f64).collect::<Vec<_>>());
        let src = "fn main() {
            forall i in 0..8 { d[i] = x[i] * x[i]; }
          }";
        let l = lower_src(
            src,
            &[
                ("x", Value::Arr(region.clone())),
                ("d", Value::Arr(region.clone())),
            ],
        );
        let c = compile(&l.kernel, &l.nest.trip_counts);
        assert_eq!(c.info().plan, "tape", "aliased map must not monomorphize");
        c.execute_run(&[], 0, 8).unwrap();
        for v in 0..8 {
            assert_eq!(region.read_f64(v), (v * v) as f64);
        }
    }

    #[test]
    fn unproven_access_keeps_checked_fallback_and_faults_lazily() {
        // a[i + 3] over i in 0..10 against len 8: max index 12 — proof
        // fails, kernel stays fallible, and the fault formats like the
        // interpreter's error.
        let src = "fn main() { forall i in 0..10 { a[i + 3] = 1; } }";
        let a = SharedRegion::new(8);
        let l = lower_src(src, &[("a", Value::Arr(a.clone()))]);
        let c = compile(&l.kernel, &l.nest.trip_counts);
        assert_eq!(c.info().plan, "tape");
        assert!(!c.info().all_proven);
        assert!(c.execute_run(&[], 0, 5).is_ok(), "indices 3..=7 fit");
        let fault = c.execute_run(&[], 5, 10).unwrap_err();
        assert_eq!(fault.index, 8);
        assert_eq!(fault.len, 8);
        assert!(fault.to_string().contains("out of bounds"));
    }

    #[test]
    fn constant_folding_and_dce_shrink_the_tape() {
        // `2 * 3` folds; the dead `let` (proven load) disappears.
        let src = "fn main() {
            forall i in 0..8 {
              let dead = a[i];
              b[i] = a[i] * (2 * 3);
            }
          }";
        let a = SharedRegion::from_f64(&[1.0; 8]);
        let b = SharedRegion::new(8);
        let l = lower_src(
            src,
            &[("a", Value::Arr(a.clone())), ("b", Value::Arr(b.clone()))],
        );
        let c = compile(&l.kernel, &l.nest.trip_counts);
        let info = c.info();
        // The folded constant hoists to the preamble; the body keeps only
        // live-load / mul / store.
        assert_eq!(info.body, 3, "{info:?}");
        c.execute_run(&[], 0, 8).unwrap();
        assert_eq!(b.read_f64(3), 6.0);
    }

    #[test]
    fn dead_unproven_load_is_kept_for_fault_parity() {
        let src = "fn main() {
            forall i in 0..10 {
              let dead = a[i + 3];
              b[i] = i;
            }
          }";
        let a = SharedRegion::new(8);
        let b = SharedRegion::new(16);
        let l = lower_src(
            src,
            &[("a", Value::Arr(a.clone())), ("b", Value::Arr(b.clone()))],
        );
        let c = compile(&l.kernel, &l.nest.trip_counts);
        let fault = c.execute_run(&[], 0, 10).unwrap_err();
        assert_eq!(fault.index, 8, "the dead load must still fault");
        // Exactly like the interpreted kernel.
        assert!(l.kernel.execute(&[5]).is_err());
    }

    #[test]
    fn preamble_hoists_run_invariants() {
        // `i * 10` and the constant hoist; only the store (plus the
        // innermost index value) stays per-point.
        let src = "fn main() {
            forall i in 0..4 {
              forall j in 0..8 {
                b[i * 8 + j] = i * 10 + j;
              }
            }
          }";
        let b = SharedRegion::new(32);
        let l = lower_src(src, &[("b", Value::Arr(b.clone()))]);
        let c = compile(&l.kernel, &l.nest.trip_counts);
        let info = c.info();
        assert!(info.hoisted >= 2, "{info:?}");
        run_all(&c, &l.nest.trip_counts).unwrap();
        for v in 0..32 {
            assert_eq!(b.read_f64(v), ((v / 8) * 10 + v % 8) as f64);
        }
    }

    #[test]
    fn runs_outside_the_box_panic_instead_of_reading() {
        let src = "fn main() { forall i in 0..8 { a[i] = 1; } }";
        let a = SharedRegion::new(8);
        let l = lower_src(src, &[("a", Value::Arr(a.clone()))]);
        let c = compile(&l.kernel, &l.nest.trip_counts);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.execute_run(&[], 0, 9)));
        assert!(r.is_err(), "a run past the trip count must panic");
    }

    #[test]
    fn tile_over_an_empty_inner_level_runs_nothing() {
        // Compiled against a box whose middle level is empty, a tile has
        // no points: the walk must not run the middle level's index 0
        // (here an unproven store that would fault).
        let src = "fn main() {
            forall i in 0..2 { forall j in 0..2 { for k in 0..3 {
              a[i * 6 + j * 3 + k + 4] = 1;
            } } }
          }";
        let a = SharedRegion::new(8);
        let l = lower_src(src, &[("a", Value::Arr(a.clone()))]);
        let c = compile(&l.kernel, &[2, 0, 3]);
        assert_eq!(c.execute_tile(&[], 0, 2), Ok(()));
        assert_eq!(a.to_f64_vec(), vec![0.0; 8]);
    }

    /// `c[i * nj + j] += a[i * 5 + k] * b[k * nj + j]` over `0..ni × 0..nj
    /// × 0..5` on fractional data, `c` starting fractional: the regions
    /// (`c` last) and the nest's source.
    fn jam_nest(ni: usize, nj: usize) -> ([SharedRegion; 3], String) {
        let frac = |len: usize, d: f64, o: f64| {
            SharedRegion::from_f64(&(0..len).map(|v| v as f64 / d + o).collect::<Vec<_>>())
        };
        let src = format!(
            "fn main() {{
                forall i in 0..{ni} {{ forall j in 0..{nj} {{ for k in 0..5 {{
                  c[i * {nj} + j] += a[i * 5 + k] * b[k * {nj} + j];
                }} }} }}
              }}"
        );
        let regions = [
            frac(ni * 5, 7.0, 0.3),
            frac(5 * nj, 11.0, -0.1),
            frac(ni * nj, 13.0, 0.0),
        ];
        (regions, src)
    }

    /// [`jam_nest`] point by point on the interpreted tape, and compiled
    /// as `tiles` (which must cover the nest once): the compiled
    /// kernel's info and whether the final `c` bits match.
    fn jam_tiles_match(ni: usize, nj: usize, tiles: &[(&[i64], i64, i64)]) -> (CompileInfo, bool) {
        let mut bits = Vec::new();
        let mut info = None;
        for compiled in [false, true] {
            let ([a, b, c], src) = jam_nest(ni, nj);
            let bind = [
                ("a", Value::Arr(a)),
                ("b", Value::Arr(b)),
                ("c", Value::Arr(c.clone())),
            ];
            let l = lower_src(&src, &bind);
            if compiled {
                let k = compile(&l.kernel, &l.nest.trip_counts);
                for &(outer, lo, hi) in tiles {
                    k.execute_tile(outer, lo, hi).unwrap();
                }
                info = Some(k.info());
            } else {
                for i in 0..ni as i64 {
                    for j in 0..nj as i64 {
                        for k in 0..5 {
                            l.kernel.execute(&[i, j, k]).unwrap();
                        }
                    }
                }
            }
            bits.push(
                c.to_f64_vec()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
        (info.unwrap(), bits[0] == bits[1])
    }

    #[test]
    fn jam_leaves_the_last_runs_of_a_tile_to_the_one_run_loop() {
        // `j` extent 7: a tile over all of `j` jams runs 0..4 and has
        // exactly `JAM - 1` runs left; a tile of `JAM - 1` runs at the
        // jam level itself never jams, and must stop at its `hi`.
        assert_eq!(JAM - 1, 3, "the tiles below assume JAM = 4");
        let ([a, b, c], src) = jam_nest(2, 7);
        let init = c.to_f64_vec();
        let bind = [
            ("a", Value::Arr(a)),
            ("b", Value::Arr(b)),
            ("c", Value::Arr(c.clone())),
        ];
        let l = lower_src(&src, &bind);
        let k = compile(&l.kernel, &l.nest.trip_counts);
        k.execute_tile(&[0], 1, 4).unwrap();
        assert_eq!(c.read_f64(4), init[4], "a tile must stop at its hi");
        let tiles: [(&[i64], i64, i64); 4] =
            [(&[0], 1, 4), (&[0], 0, 1), (&[0], 4, 7), (&[], 1, 2)];
        let (info, same) = jam_tiles_match(2, 7, &tiles);
        assert_eq!((info.plan, info.jams), ("dot-accum", &[JAM, 1][..]));
        assert!(same);
    }

    #[test]
    fn packed_jam_leaves_the_rest_of_a_row_to_jam_and_one_run_loops() {
        // `j` extent PACK_JAM + JAM + 3: a tile of two or more rows packs
        // one block per row and leaves one `JAM` block and `JAM - 1`
        // single runs; a one-row tile and tiles at the jam level run the
        // unpacked loops over the same row. A packed tile must stop at
        // its `hi` row.
        let nj = PACK_JAM + JAM + 3;
        let ([a, b, c], src) = jam_nest(4, nj);
        let init = c.to_f64_vec();
        let bind = [
            ("a", Value::Arr(a)),
            ("b", Value::Arr(b)),
            ("c", Value::Arr(c.clone())),
        ];
        let l = lower_src(&src, &bind);
        let k = compile(&l.kernel, &l.nest.trip_counts);
        k.execute_tile(&[], 1, 3).unwrap();
        assert_eq!(
            &c.to_f64_vec()[3 * nj..],
            &init[3 * nj..],
            "a tile must stop at its hi"
        );
        let nj = nj as i64;
        let tiles: [(&[i64], i64, i64); 5] = [
            (&[], 1, 3),
            (&[], 3, 4),
            (&[0], 0, PACK_JAM as i64),
            (&[0], PACK_JAM as i64, nj - 1),
            (&[0], nj - 1, nj),
        ];
        let (info, same) = jam_tiles_match(4, nj as usize, &tiles);
        assert_eq!(
            (info.plan, info.jams),
            ("dot-accum", &[PACK_JAM, JAM, 1][..])
        );
        assert!(same);
    }

    #[test]
    fn packs_b_only_in_the_matmul_shape() {
        let n = 48;
        // Matmul: `c[i n + j] += a[i n + k] * b[k n + j]`: `b` packs.
        assert!(packs_b(&[n, 1, 0], &[n, 0, 1], &[0, 1, n]));
        // Four levels: zero on both levels above the jam level.
        assert!(packs_b(&[n, n, 1, 0], &[n, n, 0, 1], &[0, 0, 1, n]));
        // A transposed `a` steps with `j`: the runs share no `a` load.
        assert!(!packs_b(&[n, 1, 0], &[0, n, 1], &[0, 1, n]));
        // `b` strided in `j` (a transposed `b`): a row is no slice.
        assert!(!packs_b(&[n, 1, 0], &[n, 0, 1], &[0, n, 1]));
        // `b` fixed in `j`: nothing to pack per run.
        assert!(!packs_b(&[n, 1, 0], &[0, n, 1], &[3, 0, 1]));
        // `b` depends on an outer level: its footprint moves per row.
        assert!(!packs_b(&[n, 1, 0], &[n, 0, 1], &[n * n, 1, n]));
        assert!(!packs_b(&[n, n, 1, 0], &[n, n, 0, 1], &[0, 1, 1, n]));
        // `c` fixed in `j`: the runs do not jam, so nothing packs.
        assert!(!packs_b(&[1, 0, 0], &[n, 0, 1], &[0, 1, n]));
        // One-level nest: no jam level.
        assert!(!packs_b(&[0], &[1], &[1]));
    }

    #[test]
    fn packing_follows_the_jam_width_and_the_footprint_cap() {
        // A footprint at the cap packs, one word above it falls back, and
        // fewer than `PACK_JAM` runs at the jam level never pack.
        let nk = (PANEL_CAP / PACK_JAM as u64) as usize;
        for (nj, nk, packs) in [
            (PACK_JAM, nk, true),
            (PACK_JAM, nk + 1, false),
            (PACK_JAM - 1, 5, false),
        ] {
            let src = format!(
                "fn main() {{
                    forall i in 0..2 {{ forall j in 0..{nj} {{ for k in 0..{nk} {{
                      c[i * {nj} + j] += a[i * {nk} + k] * b[k * {nj} + j];
                    }} }} }}
                  }}"
            );
            let bind = [
                ("a", Value::Arr(SharedRegion::new(2 * nk))),
                ("b", Value::Arr(SharedRegion::new(nk * nj))),
                ("c", Value::Arr(SharedRegion::new(2 * nj))),
            ];
            let l = lower_src(&src, &bind);
            let info = compile(&l.kernel, &l.nest.trip_counts).info();
            assert_eq!(
                (info.plan, info.packs()),
                ("dot-accum", packs),
                "{nj} x {nk}"
            );
        }
    }

    #[test]
    fn scan_recurrence_runs_on_the_tape_bitwise() {
        let src = "fn main() {
            forall i in 0..31 { a[i + 1] = a[i] + i; }
          }";
        let mk = || SharedRegion::from_f64(&(0..32).map(|v| v as f64 * 0.125).collect::<Vec<_>>());
        let (a1, a2) = (mk(), mk());
        let l1 = lower_src(src, &[("a", Value::Arr(a1.clone()))]);
        for i in 0..31 {
            l1.kernel.execute(&[i]).unwrap();
        }
        let l2 = lower_src(src, &[("a", Value::Arr(a2.clone()))]);
        let c = compile(&l2.kernel, &l2.nest.trip_counts);
        assert_eq!(c.info().plan, "tape");
        assert!(c.info().all_proven);
        c.execute_run(&[], 0, 31).unwrap();
        assert_eq!(a1.to_f64_vec(), a2.to_f64_vec());
    }
}
