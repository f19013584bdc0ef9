//! What a LITL-X name means: the binding visible where it executes.
//!
//! Every case pins exact output or exact error text, on a naive
//! interpreter with two workers, so `forall` bodies run on helper SGTs as
//! well as on the calling thread.

use litlx::lang::{parse, Interp, LoopStrategy};

fn interp() -> Interp {
    Interp::new(2).with_strategy(LoopStrategy::Naive)
}

fn run(src: &str) -> Vec<String> {
    let p = parse(src).unwrap_or_else(|e| panic!("{e:?}\n{src}"));
    interp()
        .run(&p)
        .unwrap_or_else(|e| panic!("{e}\n{src}"))
        .printed
}

fn run_err(src: &str) -> String {
    let p = parse(src).unwrap_or_else(|e| panic!("{e:?}\n{src}"));
    match interp().run(&p) {
        Ok(out) => panic!("expected an error, printed {:?}\n{src}", out.printed),
        Err(e) => e,
    }
}

#[test]
fn unbound_names_fail_with_their_own_text() {
    let cases = [
        ("fn main() { print(nope); }", "undefined variable `nope`"),
        (
            "fn main() { nope = 1; }",
            "assignment to undefined variable `nope`",
        ),
        ("fn main() { q[0] = 1; }", "undefined array `q`"),
        ("fn main() { nope(1); }", "unknown function `nope`"),
        // A callee that does not exist fails before its arguments run.
        ("fn main() { nope(zz); }", "unknown function `nope`"),
        // A user function's arguments run before its arity is checked.
        (
            "fn f(a) { return a; } fn main() { f(zz, 1); }",
            "undefined variable `zz`",
        ),
        (
            "fn f(a, b) { return a; } fn main() { f(1); }",
            "f: expected 2 arguments, got 1",
        ),
        (
            "fn main() { print(sqrt(1, 2)); }",
            "sqrt: expected 1 arguments, got 2",
        ),
        (
            "fn main() { let q = 1; q[0] = 1; }",
            "indexed store: expected array, got Num(1)",
        ),
        // `let x = x` reads before it binds.
        ("fn main() { let x = x; }", "undefined variable `x`"),
        // A block's bindings end with the block.
        (
            "fn main() { if 1 { let y = 1; } print(y); }",
            "undefined variable `y`",
        ),
        (
            "fn main() { for i in 0..2 { } print(i); }",
            "undefined variable `i`",
        ),
        // An error raised in a naive `forall` body on any thread.
        (
            "fn main() { forall i in 0..8 { let t = i + missing; } }",
            "undefined variable `missing`",
        ),
        (
            "fn main() { forall i in 0..8 { gone = i; } }",
            "assignment to undefined variable `gone`",
        ),
    ];
    for (src, want) in cases {
        assert_eq!(run_err(src), want, "{src}");
    }
}

#[test]
fn an_unbound_name_on_a_branch_never_taken_is_no_error() {
    assert_eq!(
        run("fn main() {
               if 0 { print(nope); nope = 1; q[0] = 1; missing(2); }
               let i = 0;
               while i < 0 { print(never); }
               for k in 0..0 { print(never); }
               forall k in 0..0 { print(never); }
               print(1); }"),
        ["1"]
    );
}

#[test]
fn a_read_before_an_inner_let_falls_through_to_the_outer_binding() {
    assert_eq!(
        run("fn main() {
               let x = 1;
               if 1 { print(x); let x = 2; print(x); x = 3; print(x); }
               print(x);
               let x = x + 10;
               print(x); }"),
        ["1", "2", "3", "1", "11"]
    );
}

#[test]
fn a_repeated_let_in_one_block_rebinds_the_name() {
    assert_eq!(
        run("fn main() {
               let x = 1; let y = x; let x = x + 1; let x = x * 10;
               print(x); print(y); }"),
        ["20", "1"]
    );
}

#[test]
fn assignment_reaches_the_innermost_visible_binding() {
    assert_eq!(
        run("fn main() {
               let s = 0; let t = 100;
               for i in 0..4 { s = s + i; let t = i; t = t + 1; }
               let i = 99;
               for i in 0..2 { print(i); }
               print(s); print(t); print(i); }"),
        ["0", "1", "6", "100", "99"]
    );
}

#[test]
fn every_loop_iteration_gets_a_fresh_frame() {
    // In each iteration `x` is read before the iteration's own `let x`:
    // the outer binding, never the previous iteration's.
    assert_eq!(
        run("fn main() {
               let x = 100; let i = 0;
               while i < 2 { print(x); let x = i; print(x); i = i + 1; }
               for k in 0..2 { print(x); let x = k + 5; print(x); }
               print(x); }"),
        ["100", "0", "100", "1", "100", "5", "100", "6", "100"]
    );
    // A `spawn` in each iteration keeps that iteration's bindings.
    assert_eq!(
        run("fn main() {
               let a = array(3);
               for i in 0..3 { let x = i * 10; spawn { a[i] = x + 1; } }
               while a[0] * a[1] * a[2] == 0 { }
               print(a[0]); print(a[1]); print(a[2]); }"),
        ["1", "11", "21"]
    );
}

#[test]
fn a_function_body_sees_only_its_parameters() {
    assert_eq!(
        run_err("fn f() { return x; } fn main() { let x = 1; print(f()); }"),
        "undefined variable `x`"
    );
    assert_eq!(
        run("fn g(n) { let t = n + 1; return t; }
             fn main() { let t = 5; let n = 40; print(g(t)); print(t); print(n); }"),
        ["6", "5", "40"]
    );
}

#[test]
fn recursion_binds_fresh_parameters_per_call() {
    assert_eq!(
        run("fn fib(n) { if n < 2 { return n; } let a = fib(n - 1); let b = fib(n - 2); return a + b; }
             fn depth(n, acc) { if n == 0 { return acc; } return depth(n - 1, acc + n); }
             fn main() { print(fib(15)); print(depth(20, 0)); }"),
        ["610", "210"]
    );
}

#[test]
fn user_functions_shadow_builtins() {
    assert_eq!(
        run("fn sqrt(x) { return x + 1; } fn main() { print(sqrt(4)); print(abs(0 - 4)); }"),
        ["5", "4"]
    );
}

#[test]
fn a_scalar_assigned_in_a_naive_forall_is_last_writer_wins() {
    let out = run("fn main() {
           let s = 0; let t = -1; let u = 0;
           forall i in 0..64 { s = 7; t = i; }
           forall i in 0..64 { if i == 37 { u = 42; } }
           forall i in 0..8 { let s = i; }
           print(s); print(t); print(u); }");
    assert_eq!(out[0], "7");
    let t: i64 = out[1].parse().unwrap();
    assert!((0..64).contains(&t), "t = {t}: some iteration's write");
    assert_eq!(out[2], "42");
    assert_eq!(out.len(), 3);
}

#[test]
fn naive_forall_bodies_read_every_enclosing_binding() {
    assert_eq!(
        run("fn fill(a, base) {
               let n = 4;
               forall i in 0..n {
                 let row = base + i * 10;
                 forall j in 0..n { a[i * n + j] = row + j; }
               }
             }
             fn main() { let a = array(16); fill(a, 1000); print(sum(a)); print(a[13]); }"),
        ["16264", "1031"]
    );
}

#[test]
fn spawn_and_future_capture_the_environment() {
    assert_eq!(
        run("fn sq(v) { future f = v * v; return force(f); }
             fn main() {
               let k = 5;
               future f = k * 2;
               print(force(f));
               print(sq(7));
               let s = 0;
               spawn { s = 9; }
               while s == 0 { }
               print(s);
               let a = array(1);
               let m = 3;
               spawn { let w = m + 1; a[0] = w; }
               while a[0] == 0 { }
               print(a[0]); }"),
        ["10", "49", "9", "4"]
    );
    // A future's expression sees the future's own binding.
    assert_eq!(
        run_err("fn main() { future f = f + 1; print(force(f)); }"),
        "left operand: got an unforced future; apply force(…)"
    );
}
