//! Differential tests for the LITL-X kernel compiler: naive fan-out,
//! interpreted SSP, and compiled SSP must agree on every lowerable nest.
//!
//! ## Where bitwise equality holds — and where it cannot
//!
//! * **Interpreted SSP vs compiled SSP** is compared *bitwise on any
//!   data, fractional included*: the compiler preserves the tape's
//!   evaluation order exactly (one in-order accumulator per run of the
//!   dot-accum shape, jammed runs included, no reassociation — see
//!   `litlx::lang::compile`), and
//!   SSP group execution order is the sequential lexicographic order, so
//!   the two paths perform the same float operations in the same order.
//! * **Naive vs SSP** cannot be compared with a *parallel* naive run at
//!   all: the generated nests carry genuine dependences (offset stores),
//!   which the flat fan-out races on by design — its output is
//!   scheduler-dependent. The naive reference is therefore the
//!   single-worker naive executor, which claims and executes chunks in
//!   order (exactly sequential). Even order-independent `+=` programs
//!   would additionally need integer-valued data for a parallel-naive
//!   comparison: the naive fan-out commits its CAS accumulates in
//!   scheduler-dependent order, and float addition does not reassociate.
//!   The generator emits integer-valued programs anyway (every
//!   intermediate a small exactly-representable integer), so all
//!   comparisons in this suite are bitwise — no approximate tolerance
//!   anywhere.
//!
//! The 256-case sweep is an explicit seed loop rather than a `proptest!`
//! block: the vendored proptest honors `PROPTEST_CASES` from the
//! environment (CI pins it to 64), which would silently shrink a
//! `with_cases(256)` config below the acceptance bar.

use htvm_core::{SharedRegion, Topology};
use litlx::lang::{
    compile, lower_forall, parse, Expr, Interp, KernelMode, LoopStrategy, LoweredForall, Program,
    RunOutput, Stmt, Value,
};

/// Deterministic per-seed generator state (same scheme as
/// `tests/ssp_native.rs`).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random affine nest over integer-valued data: `t` is stored through
/// mixed-radix strides plus small offsets (which create genuine carried
/// dependences and unprovable accesses), `s` is read-only. All values
/// stay small integers, so f64 arithmetic is exact in any order.
fn gen_program(seed: u64) -> String {
    let mut r = Lcg(seed.wrapping_add(0x9e3779b97f4a7c15));
    let depth = 1 + r.below(3) as usize;
    let trips: Vec<u64> = (0..depth).map(|_| 2 + r.below(3)).collect();
    let points: u64 = trips.iter().product();
    let strides: Vec<u64> = (0..depth)
        .map(|l| trips[l + 1..].iter().product::<u64>())
        .collect();
    let pad = 4u64;
    let t_len = points + pad;
    let s_len = points + pad;
    let vars = ["v0", "v1", "v2"];
    let mr = |r: &mut Lcg| -> String {
        let off = r.below(pad);
        let terms: Vec<String> = (0..depth)
            .map(|l| format!("{} * {}", vars[l], strides[l]))
            .collect();
        format!("{} + {off}", terms.join(" + "))
    };
    let expr = |r: &mut Lcg| -> String {
        match r.below(5) {
            0 => format!("{}", 1 + r.below(4)),
            1 => vars[r.below(depth as u64) as usize].to_string(),
            2 => format!("s[{}]", mr(r)),
            3 => format!("t[{}]", mr(r)),
            _ => format!(
                "{} * {} + {}",
                vars[r.below(depth as u64) as usize],
                1 + r.below(3),
                1 + r.below(4)
            ),
        }
    };
    let stores = 1 + r.below(2);
    let mut body = String::new();
    for _ in 0..stores {
        let opch = if r.below(3) == 0 { "+=" } else { "=" };
        let lhs = mr(&mut r);
        let e1 = expr(&mut r);
        let e2 = expr(&mut r);
        body.push_str(&format!("t[{lhs}] {opch} {e1} + {e2}; "));
    }
    let mut nest = body;
    for l in (0..depth).rev() {
        let kw = if l == 0 || r.below(2) == 0 {
            "forall"
        } else {
            "for"
        };
        nest = format!("{kw} {} in 0..{} {{ {nest} }}", vars[l], trips[l]);
    }
    format!(
        "fn main() {{
            let s = array({s_len});
            let t = array({t_len});
            for q in 0..{s_len} {{ s[q] = q % 5 + 1; }}
            for q in 0..{t_len} {{ t[q] = q % 3; }}
            {nest}
            for q in 0..{t_len} {{ print(t[q]); }}
        }}"
    )
}

fn run_ssp(p: &Program, mode: KernelMode) -> RunOutput {
    Interp::with_topology(Topology::domains(2, 2))
        .with_strategy(LoopStrategy::Ssp)
        .with_kernel_mode(mode)
        .run(p)
        .expect("ssp run")
}

/// The acceptance sweep: 256 random affine nests through all three
/// execution paths, compared bitwise (integer-valued data — see the
/// module docs for why that makes naive comparable at all).
#[test]
fn differential_naive_interp_compiled_256_cases() {
    for seed in 0..256u64 {
        let src = gen_program(seed);
        let p = parse(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: generated program failed to parse: {e}"));
        let naive = Interp::new(1).run(&p).expect("naive run");
        let interp = run_ssp(&p, KernelMode::Interpreted);
        let compiled = run_ssp(&p, KernelMode::Compiled);
        for (name, out) in [("interp", &interp), ("compiled", &compiled)] {
            assert_eq!(
                out.ssp_bailouts, 0,
                "seed {seed} ({name}): generator left the lowerable fragment:\n{src}"
            );
            assert_eq!(
                out.ssp_foralls, 1,
                "seed {seed} ({name}): nest did not take the SSP path:\n{src}"
            );
        }
        assert_eq!(interp.ssp_compiled, 0, "seed {seed}");
        assert_eq!(
            compiled.ssp_compiled, compiled.ssp_foralls,
            "seed {seed}: compiled mode must run the compiled kernel:\n{src}"
        );
        assert_eq!(
            interp.printed, naive.printed,
            "seed {seed}: interpreted SSP diverged from naive:\n{src}"
        );
        assert_eq!(
            compiled.printed, interp.printed,
            "seed {seed}: compiled SSP diverged from interpreted SSP:\n{src}"
        );
    }
}

/// Fractional data: naive ordering is not comparable, but interpreted vs
/// compiled SSP must still match bitwise — including through a dot-accum
/// reduction, the shape where an unsound compiler would reassociate.
#[test]
fn fractional_matmul_interp_vs_compiled_bitwise() {
    let src = "fn main() {
        let n = 10;
        let a = array(n * n); let b = array(n * n); let c = array(n * n);
        for q in 0..n * n { a[q] = q / 7 + 1 / 3; b[q] = q / 11 - 1 / 9; }
        forall i in 0..n { forall j in 0..n { for k in 0..n {
            c[i * n + j] += a[i * n + k] * b[k * n + j];
        } } }
        for q in 0..n * n { print(c[q]); } }";
    let p = parse(src).unwrap();
    let interp = run_ssp(&p, KernelMode::Interpreted);
    let compiled = run_ssp(&p, KernelMode::Compiled);
    assert_eq!(interp.ssp_bailouts, 0);
    assert_eq!(
        compiled.printed, interp.printed,
        "dot-accum must not reassociate"
    );
    assert!(compiled.ssp_compiled >= 1);
}

/// Targeted case for the fma-map shape (elementwise product, with and
/// without a hoisted addend) on fractional data.
#[test]
fn fractional_elementwise_interp_vs_compiled_bitwise() {
    for body in ["d[i] = a[i] * b[i];", "d[i] = a[i] * b[i] + k;"] {
        let src = format!(
            "fn main() {{
                let n = 64; let k = 1 / 3;
                let a = array(n); let b = array(n); let d = array(n);
                for q in 0..n {{ a[q] = q / 7; b[q] = q / 13 - 2; }}
                forall i in 0..n {{ {body} }}
                for q in 0..n {{ print(d[q]); }} }}"
        );
        let p = parse(&src).unwrap();
        let interp = run_ssp(&p, KernelMode::Interpreted);
        let compiled = run_ssp(&p, KernelMode::Compiled);
        assert_eq!(interp.ssp_bailouts, 0, "{body}");
        assert_eq!(compiled.printed, interp.printed, "{body}");
        assert!(compiled.ssp_compiled >= 1, "{body}");
    }
}

/// Targeted case for the tape fallback: a store that aliases a loaded
/// array keeps the nest off the monomorphized shapes, and a distance-1
/// recurrence additionally forces the wavefront. Output must still be
/// bitwise-identical across modes.
#[test]
fn recurrence_on_the_tape_interp_vs_compiled_bitwise() {
    let src = "fn main() {
        let n = 48;
        let a = array(n + 1);
        a[0] = 1 / 3;
        forall i in 0..n { a[i + 1] = a[i] * 1 / 2 + i; }
        for q in 0..n + 1 { print(a[q]); } }";
    let p = parse(src).unwrap();
    let interp = run_ssp(&p, KernelMode::Interpreted);
    let compiled = run_ssp(&p, KernelMode::Compiled);
    assert_eq!(interp.ssp_bailouts, 0);
    assert_eq!(interp.ssp_wavefronts, 1, "distance-1 dep must wavefront");
    assert_eq!(compiled.ssp_wavefronts, 1);
    assert_eq!(compiled.printed, interp.printed);
}

/// Bounds-hoist bail-out, benign case: an access the prover cannot bound
/// (`t[v0 * 3 + off]` with the offset pushing past the proven box) runs
/// on the checked fallback and still matches the interpreter when every
/// runtime index is in bounds.
#[test]
fn unproven_access_in_bounds_matches_across_modes() {
    let src = "fn main() {
        let n = 20;
        let t = array(n + 3);
        for q in 0..n + 3 { t[q] = q % 4; }
        forall i in 0..n { t[i + 3] += i * 2; }
        for q in 0..n + 3 { print(t[q]); } }";
    let p = parse(src).unwrap();
    let naive = Interp::new(1).run(&p).expect("sequential");
    let interp = run_ssp(&p, KernelMode::Interpreted);
    let compiled = run_ssp(&p, KernelMode::Compiled);
    assert_eq!(interp.ssp_bailouts, 0);
    assert_eq!(interp.printed, naive.printed);
    assert_eq!(compiled.printed, interp.printed);
}

/// Bounds-hoist bail-out, faulting case: when an unproven access really
/// is out of bounds at runtime, both modes fail with the same
/// lazily-formatted message (the compiled path must not have traded the
/// check away, and must not pay for `format!` on the in-bounds points).
#[test]
fn unproven_access_out_of_bounds_errors_identically() {
    let src = "fn main() {
        let n = 10;
        let t = array(n);
        forall i in 0..n { t[i + 3] = 1; }
        print(t[0]); }";
    let p = parse(src).unwrap();
    let e_interp = Interp::with_topology(Topology::flat(2))
        .with_strategy(LoopStrategy::Ssp)
        .with_kernel_mode(KernelMode::Interpreted)
        .run(&p)
        .expect_err("index 12 exceeds length 10");
    let e_compiled = Interp::with_topology(Topology::flat(2))
        .with_strategy(LoopStrategy::Ssp)
        .with_kernel_mode(KernelMode::Compiled)
        .run(&p)
        .expect_err("index 12 exceeds length 10");
    assert!(
        e_interp.contains("out of bounds"),
        "unexpected error: {e_interp}"
    );
    // The first fault the wave reports depends on group scheduling, so
    // compare the shape of the message, not the exact index.
    assert!(
        e_compiled.contains("out of bounds"),
        "unexpected error: {e_compiled}"
    );
}

/// Run `src` on the SSP path under `mode` over four workers in two
/// domains (several groups per wave).
fn try_ssp(src: &str, mode: KernelMode) -> Result<RunOutput, String> {
    Interp::with_topology(Topology::domains(2, 2))
        .with_strategy(LoopStrategy::Ssp)
        .with_kernel_mode(mode)
        .run(&parse(src).unwrap())
}

/// Tile execution (each SSP group one `execute_tile` call) against the
/// point-at-a-time interpreted kernel, on the nest shapes whose group
/// walks differ: a 1-level map (the tile is one run), a matmul
/// partitioned at level 0 (the tile walks `j` and `k`) and at level 1
/// (one tile per group per `i` wave, walking `k`), and the wavefront
/// scan (chained one-run tiles). Arrays must match bit for bit.
#[test]
fn tile_execution_matches_interpreted_bitwise() {
    let matmul = |level: usize| {
        format!(
            "fn main() {{
                let n = 9;
                let a = array(n * n); let b = array(n * n); let c = array(n * n);
                for q in 0..n * n {{ a[q] = q / 7 + 1 / 3; b[q] = q / 11 - 1 / 9; }}
                @hint(pipeline = 1, level = {level})
                forall i in 0..n {{ forall j in 0..n {{ for k in 0..n {{
                    c[i * n + j] += a[i * n + k] * b[k * n + j];
                }} }} }}
                for q in 0..n * n {{ print(c[q]); }} }}"
        )
    };
    let nests = [
        (
            "1-level map",
            "fn main() {
                let n = 150;
                let a = array(n); let d = array(n);
                for q in 0..n { a[q] = q / 7 - 3; }
                forall i in 0..n { d[i] = a[i] * 0.25 + i % 9 - i / 3; }
                for q in 0..n { print(d[q]); } }"
                .to_string(),
        ),
        ("matmul, level 0", matmul(0)),
        ("matmul, level 1", matmul(1)),
        (
            "wavefront scan",
            "fn main() {
                let n = 40;
                let a = array(n + 1);
                a[0] = 1 / 3;
                forall i in 0..n { a[i + 1] = a[i] * 1 / 2 + i % 4; }
                for q in 0..n + 1 { print(a[q]); } }"
                .to_string(),
        ),
    ];
    for (name, src) in &nests {
        let interp = try_ssp(src, KernelMode::Interpreted).expect(name);
        let tiled = try_ssp(src, KernelMode::Compiled).expect(name);
        assert_eq!(interp.ssp_bailouts, 0, "{name}");
        assert_eq!(tiled.ssp_compiled, tiled.ssp_foralls, "{name}");
        assert!(tiled.ssp_foralls >= 1, "{name}");
        assert_eq!(tiled.ssp_wavefronts, interp.ssp_wavefronts, "{name}");
        assert_eq!(tiled.printed, interp.printed, "{name}");
    }
}

/// A nest that faults on an unproven access: the tiled kernel fails with
/// exactly the interpreted kernel's error (the lowest failing group's
/// first failing point), not merely one of the same shape.
#[test]
fn tile_fault_matches_interpreted_error_text() {
    for src in [
        "fn main() {
            let a = array(10);
            forall i in 0..8 { forall j in 0..4 { a[i * 4 + j] = i + j; } }
            print(a[0]); }",
        "fn main() {
            let t = array(12);
            forall i in 0..16 { t[i + 3] += i % 5; }
            print(t[0]); }",
    ] {
        let interp = try_ssp(src, KernelMode::Interpreted).expect_err("faults");
        let tiled = try_ssp(src, KernelMode::Compiled).expect_err("faults");
        assert!(interp.contains("out of bounds"), "{interp}");
        assert_eq!(tiled, interp);
    }
}

/// The size-`(ni, nj, nk)` dot-accum nest `c[c] += a[a] * b[b]` over
/// fractional data, its `forall` partitioned at `level` into groups of
/// `chunk` level iterations (the default group size if `None`); it
/// prints `c`. `nj` and `nk` in the index texts are replaced by the
/// extents. Returns the source and the length of its three arrays.
fn dot_accum_program(
    (c, a, b, kw): (&str, &str, &str, &str),
    (ni, nj, nk): (usize, usize, usize),
    level: usize,
    chunk: Option<usize>,
) -> (String, usize) {
    let nest = format!(
        "forall i in 0..{ni} {{ {kw} j in 0..{nj} {{ for k in 0..{nk} {{
            c[{c}] += a[{a}] * b[{b}];
        }} }} }}"
    )
    .replace("nj", &nj.to_string())
    .replace("nk", &nk.to_string());
    let len = ni * nj * nk.max(3) + 8;
    let chunk = chunk.map_or(String::new(), |c| format!(", chunk = {c}"));
    let src = format!(
        "fn main() {{
            let a = array({len}); let b = array({len}); let c = array({len});
            for q in 0..{len} {{ a[q] = q / 7 + 1 / 3; b[q] = q / 11 - 1 / 9; c[q] = q / 13; }}
            @hint(pipeline = 1, level = {level}{chunk})
            {nest}
            for q in 0..{ni} * {nj} + 8 {{ print(c[q]); }} }}"
    );
    (src, len)
}

/// The plan and jam widths `compile` picks for the first nest of a
/// [`dot_accum_program`] source over arrays of length `len`.
fn jams_of(src: &str, len: usize) -> (&'static str, &'static [usize]) {
    let bindings: Vec<(&str, Value)> = ["a", "b", "c"]
        .into_iter()
        .map(|v| (v, Value::Arr(SharedRegion::new(len))))
        .collect();
    let l = lower_src(src, &bindings);
    let info = compile(&l.kernel, &l.nest.trip_counts).info();
    (info.plan, info.jams)
}

/// The jammed dot-accum loops — `compile::PACK_JAM` runs over a packed
/// panel of `b`, then `compile::JAM` runs over the atomic slabs, then one
/// run — against the point-at-a-time interpreted kernel on fractional
/// data, where a reassociated sum would change bits.
///
/// * `j` extents 1 to 9 (each remainder of the jam-4 loop) and 12, 17,
///   18, 23 and 48, so a packed block is followed by every tail mix of
///   jam-4 and single runs; `k` extents 1 and 5, and 0, which the
///   lowering refuses (an empty level), so both modes run it naive.
/// * Level 0 in the default groups and in groups of two rows (each tile
///   reads its panel twice; the odd last row walks once and does not
///   pack). Level 1 in the default groups and in groups of 5 and 17 `j`
///   indices: tiles at the jam level, short ones taking the one-run
///   remainder, and none packing even with a full block, since they
///   reuse nothing.
/// * Shapes: the matmul, the only one that packs; a transposed `a` (it
///   steps with `j`); a transposed `b` (it steps 5 words per run); a
///   `b` fixed in `j` (its load is shared by the chains); a `b` that
///   depends on `i` (its footprint moves per row); and a `c` fixed in `j`
///   (the runs write one location, so they must not jam).
#[test]
fn jammed_dot_accum_matches_interpreted_bitwise() {
    // (name, `c`, `a`, `b` index; `j` keyword; jams; packs when wide).
    let shapes = [
        (
            "matmul",
            "i * nj + j",
            "i * nk + k",
            "k * nj + j",
            "forall",
            true,
            true,
        ),
        (
            "transposed a",
            "i * nj + j",
            "j * nk + k",
            "k * nj + j",
            "forall",
            true,
            false,
        ),
        (
            "transposed b",
            "i * nj + j",
            "i * nk + k",
            "j * 5 + k",
            "forall",
            true,
            false,
        ),
        (
            "b fixed in j",
            "i * nj + j",
            "j * nk + k",
            "k * 3 + i",
            "forall",
            true,
            false,
        ),
        (
            "b depends on i",
            "i * nj + j",
            "i * nk + k",
            "i * nj * nk + k * nj + j",
            "forall",
            true,
            false,
        ),
        (
            "c fixed in j",
            "i",
            "i * nk + k",
            "k * nj + j",
            "for",
            false,
            false,
        ),
    ];
    let (pack_jam, jam) = (compile::PACK_JAM, compile::JAM);
    for (name, c, a, b, kw, jams, packs) in shapes {
        for nj in (1..=9).chain([12, 17, 18, 23, 48]) {
            for nk in [0, 1, 5] {
                // A `for` level cannot be the partitioned one.
                let parts: &[(usize, Option<usize>)] = if kw == "forall" {
                    &[
                        (0, None),
                        (0, Some(2)),
                        (1, None),
                        (1, Some(5)),
                        (1, Some(17)),
                    ]
                } else {
                    &[(0, None), (0, Some(2))]
                };
                for &(level, chunk) in parts {
                    let (src, len) = dot_accum_program((c, a, b, kw), (3, nj, nk), level, chunk);
                    let case =
                        format!("{name}, j extent {nj}, k extent {nk}, level {level}/{chunk:?}");
                    let interp = try_ssp(&src, KernelMode::Interpreted).expect(&case);
                    let jammed = try_ssp(&src, KernelMode::Compiled).expect(&case);
                    assert_eq!(jammed.printed, interp.printed, "{case}");
                    if nk == 0 {
                        assert_eq!(jammed.ssp_compiled, 0, "{case}");
                        assert!(jammed.ssp_bailouts >= 1, "{case}");
                        continue;
                    }
                    let want: &[usize] = match (jams, packs && nj >= pack_jam) {
                        (false, _) => &[1],
                        (true, false) => &[jam, 1],
                        (true, true) => &[pack_jam, jam, 1],
                    };
                    assert_eq!(jams_of(&src, len), ("dot-accum", want), "{case}");
                    assert_eq!(interp.ssp_bailouts, 0, "{case}");
                    assert_eq!(jammed.ssp_compiled, jammed.ssp_foralls, "{case}");
                    assert!(jammed.ssp_foralls >= 1, "{case}");
                }
            }
        }
    }
}

/// A packable matmul whose `(j × k)` footprint sits one `k` step above
/// the panel cap falls back to the unpacked loops; one at the cap packs.
/// Both match the interpreted kernel bitwise.
#[test]
fn panel_cap_falls_back_to_unpacked_jam_bitwise() {
    let shape = ("i * nj + j", "i * nk + k", "k * nj + j", "forall");
    let nj = compile::PACK_JAM;
    // The compiler's private `PANEL_CAP`: 2^17 words.
    let at_cap = (1 << 17) / nj;
    for (nk, packs) in [(at_cap, true), (at_cap + 1, false)] {
        let (src, len) = dot_accum_program(shape, (2, nj, nk), 0, Some(2));
        assert_eq!(jams_of(&src, len).1[0] == nj, packs, "k extent {nk}");
        let interp = try_ssp(&src, KernelMode::Interpreted).unwrap();
        let compiled = try_ssp(&src, KernelMode::Compiled).unwrap();
        assert_eq!(compiled.ssp_compiled, 1);
        assert_eq!(compiled.printed, interp.printed, "k extent {nk}");
    }
}

/// Packed tiles in spread waves: two workers each run a group of four
/// rows, packing their own panels, and the result matches the
/// interpreted kernel bitwise.
#[test]
fn packed_tiles_in_spread_waves_match_interpreted_bitwise() {
    let shape = ("i * nj + j", "i * nk + k", "k * nj + j", "forall");
    let (src, len) = dot_accum_program(shape, (8, 48, 5), 0, Some(4));
    assert_eq!(jams_of(&src, len).1[0], compile::PACK_JAM);
    let run = |mode| {
        Interp::with_topology(Topology::domains(2, 1))
            .with_strategy(LoopStrategy::Ssp)
            .with_kernel_mode(mode)
            .run(&parse(&src).unwrap())
            .unwrap()
    };
    let interp = run(KernelMode::Interpreted);
    let compiled = run(KernelMode::Compiled);
    // A fresh plan has no measured cost, so its first run spreads.
    assert!(
        compiled.ssp_inline_waves < compiled.ssp_waves,
        "waves must spread"
    );
    assert_eq!(compiled.ssp_compiled, 1);
    assert_eq!(compiled.printed, interp.printed);
}

/// Lower the first `forall` of `main` (literal bounds) over `bindings`.
fn lower_src(src: &str, bindings: &[(&str, Value)]) -> LoweredForall {
    let p = parse(src).unwrap();
    let main = p.get_fn("main").unwrap();
    let Some(Stmt::Forall {
        var,
        from,
        to,
        body,
        ..
    }) = main.body.iter().find(|s| matches!(s, Stmt::Forall { .. }))
    else {
        panic!("no forall in {src}")
    };
    let literal = |e: &Expr| match e {
        Expr::Num(n) => *n as i64,
        Expr::Neg(x) => match x.as_ref() {
            Expr::Num(n) => -*n as i64,
            _ => panic!("test bounds must be literal"),
        },
        _ => panic!("test bounds must be literal"),
    };
    let resolve = |name: &str| {
        bindings
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
    };
    lower_forall(var, literal(from), literal(to), body, &resolve).unwrap()
}

/// Run a 1-level `forall` over `d` (and `a`, if the body names it) both
/// ways: compiled as one tile, and point by point on the interpreted
/// tape. Returns the compiled kernel's strip width, both results (`Err`
/// text included) and both final `d` arrays as bit patterns.
fn tile_vs_points(
    src: &str,
    d_len: usize,
    a: &[f64],
) -> (usize, [Result<(), String>; 2], [Vec<u64>; 2]) {
    let mut results = Vec::new();
    let mut arrays = Vec::new();
    let mut strip = 0;
    for compiled in [true, false] {
        let d = SharedRegion::new(d_len);
        let bindings = [
            ("d", Value::Arr(d.clone())),
            ("a", Value::Arr(SharedRegion::from_f64(a))),
        ];
        let l = lower_src(src, &bindings);
        let n = l.nest.trip_counts[0] as i64;
        let r = if compiled {
            let k = compile(&l.kernel, &l.nest.trip_counts);
            strip = k.info().strip;
            k.execute_tile(&[], 0, n).map_err(|f| f.to_string())
        } else {
            (0..n).try_for_each(|i| l.kernel.execute(&[i]))
        };
        results.push(r);
        arrays.push(d.to_f64_vec().iter().map(|v| v.to_bits()).collect());
    }
    let [rc, ri]: [Result<(), String>; 2] = results.try_into().unwrap();
    let [ac, ai]: [Vec<u64>; 2] = arrays.try_into().unwrap();
    (strip, [rc, ri], [ac, ai])
}

type Dividend = (&'static str, fn(f64) -> f64);

/// Kernel `%` is f64 `%` bit for bit — integer fast path, wrapping
/// counter and fmod fallback alike — at both strip widths, signed zeros
/// included. The second store of each width-1 body gives `d` a second
/// access slot, which is what narrows the strip.
#[test]
fn kernel_rem_matches_f64_rem_bitwise_at_both_strip_widths() {
    let mut negative_zeros = 0;
    for (lo, hi) in [(-40i64, 40i64), (0, 40)] {
        for div in ["1", "(-1)", "7", "(-7)", "0.5"] {
            let y: f64 = div.trim_matches(['(', ')']).parse().unwrap();
            // Each dividend's source text and its value in f64.
            let dividends: [Dividend; 4] = [
                ("i", |i| i),
                ("(i * 1)", |i| i),
                ("(i * -1)", |i| -i),
                ("(i * 0.5)", |i| i * 0.5),
            ];
            for (x, xf) in dividends {
                let off = -lo;
                for (strip, second) in [(64, ""), (1, " d[i + {off}] = d[i + {off}] * 1;")] {
                    let second = second.replace("{off}", &off.to_string());
                    let src = format!(
                        "fn main() {{ forall i in {lo}..{hi} {{ d[i + {off}] = {x} % {div};{second} }} }}"
                    );
                    let (got, results, [tiled, points]) =
                        tile_vs_points(&src, (hi - lo) as usize, &[]);
                    assert_eq!(got, strip, "{src}");
                    assert_eq!(results, [Ok(()), Ok(())], "{src}");
                    assert_eq!(tiled, points, "{src}");
                    for (k, &bits) in tiled.iter().enumerate() {
                        let want = xf((lo + k as i64) as f64) % y;
                        assert_eq!(bits, want.to_bits(), "{src} at i = {}", lo + k as i64);
                        negative_zeros += (want == 0.0 && want.is_sign_negative()) as usize;
                    }
                }
            }
        }
    }
    assert!(negative_zeros > 0, "the sweep must produce -0.0 results");
}

/// The tape's strip width is a property of the body: one point for a
/// body that loads and stores one array, or that has an unproven access,
/// 64 otherwise — and the result, fault included, matches the
/// interpreted kernel either way.
#[test]
fn tape_strip_width_follows_the_body_and_matches_interpreter() {
    let a: Vec<f64> = (0..80).map(|q| q as f64 * 0.375 - 7.0).collect();
    let cases = [
        // Loads and stores `d`: two slots on a stored array.
        (
            "fn main() { forall i in 0..79 { d[i + 1] = d[i] * 0.5 + a[i]; } }",
            80,
            1,
        ),
        // `d[i + 3]` over `0..80` against length 80: unproven, and faults
        // at i = 77 after the earlier points' stores.
        (
            "fn main() { forall i in 0..80 { d[i + 3] = a[i] + i % 6; } }",
            80,
            1,
        ),
        // Every access proven, `d` stored through one slot.
        (
            "fn main() { forall i in 0..80 { d[i] = a[i] * 3 + i % 6 - a[79 - i]; } }",
            80,
            64,
        ),
    ];
    for (src, d_len, strip) in cases {
        let (got, [rc, ri], [tiled, points]) = tile_vs_points(src, d_len, &a);
        assert_eq!(got, strip, "{src}");
        assert_eq!(rc, ri, "{src}");
        assert_eq!(tiled, points, "{src}");
    }
}
