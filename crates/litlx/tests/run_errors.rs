//! How a LITL-X run reports failure: a panic in `main` is an error, not a
//! truncated success, and a failing naive `forall` reports the same error
//! whatever order its chunks ran in.

use litlx::lang::{parse, Interp};

#[test]
fn panic_in_main_is_an_error() {
    // `array(1e19)` overflows the region's capacity and panics.
    let p = parse("fn main() { print(1); let a = array(1e19); print(2); }").unwrap();
    let err = Interp::new(2).run(&p).unwrap_err();
    assert!(err.starts_with("main panicked: "), "got: {err}");
}

#[test]
fn interp_runs_again_after_a_panicking_main() {
    let interp = Interp::new(2);
    let bad = parse("fn main() { let a = array(1e19); }").unwrap();
    assert!(interp.run(&bad).is_err());
    let good = parse(
        "fn main() { let a = array(64);
           forall i in 0..64 { a[i] = i; }
           print(sum(a)); }",
    )
    .unwrap();
    assert_eq!(interp.run(&good).unwrap().printed, vec!["2016"]);
}

#[test]
fn naive_forall_reports_its_lowest_failing_iteration() {
    // Iterations 15 and 20 both fault. Under the static schedule on four
    // workers they sit in different chunks, and the chunk holding 15 is
    // slow, so 20 usually fails first in time; the loop must still report
    // iteration 15's error.
    let p = parse(
        "fn main() { let a = array(4);
           forall i in 0..64 {
             if i < 16 { let s = 0; for k in 0..300 { s = s + k; } }
             if i == 15 { a[100] = 1; }
             if i == 20 { a[200] = 1; }
           } }",
    )
    .unwrap();
    let interp = Interp::new(4);
    for run in 0..50 {
        let err = interp.run(&p).unwrap_err();
        assert_eq!(
            err, "index 100 out of bounds for array of length 4",
            "run {run}"
        );
    }
}

#[test]
fn panic_inside_naive_forall_is_an_error() {
    let p = parse(
        "fn main() { let a = array(64);
           forall i in 0..64 { if i == 40 { let b = array(1e19); } a[i] = 1; }
           print(sum(a)); }",
    )
    .unwrap();
    let err = Interp::new(4).run(&p).unwrap_err();
    assert!(
        err.starts_with("forall iteration 40 panicked: "),
        "got: {err}"
    );
}

#[test]
fn return_inside_naive_forall_is_an_error_on_every_thread() {
    // At every iteration, so the helpers' chunks hit it too.
    let p = parse("fn main() { forall i in 0..64 { return 1; } }").unwrap();
    for _ in 0..10 {
        let err = Interp::new(4).run(&p).unwrap_err();
        assert_eq!(err, "`return` inside forall is not allowed");
    }
}
