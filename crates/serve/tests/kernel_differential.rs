//! Differential test: the same faulting LITL-X kernel, run under both
//! kernel modes, surfaces through the serving layer as the same typed
//! [`Outcome::Failed`] — never a panic and never a hang.
//!
//! The kernel's nested `forall` stores past the end of a 10-element
//! array (max index 31). Under [`KernelMode::Compiled`] the checked
//! tile-at-a-time body traps it as a `KernelFault`; under
//! [`KernelMode::Interpreted`] the point-at-a-time tape reports the
//! same condition. Both are carried out of the request body by
//! [`NativeParcel::fallible`] and recovered by the server as a
//! `RequestFault` at site `"kernel"` with identical text.

use htvm_core::{Htvm, HtvmConfig};
use htvm_serve::{NativeParcel, Outcome, RequestFault, Server, ServerConfig, TenantConfig};
use litlx::lang::{parse, Interp, KernelMode, LoopStrategy};

const FAULTY_SRC: &str = "fn main() {
    let a = array(10);
    forall i in 0..8 {
      forall j in 0..4 { a[i * 4 + j] = 1; }
    } }";

/// Submit the faulting kernel through a fresh server and return the
/// typed fault the request resolved to.
fn fault_through_server(mode: KernelMode) -> RequestFault {
    let htvm = Htvm::new(HtvmConfig::default());
    let server = Server::new(&htvm, ServerConfig::default());
    let tenant = server.register_tenant(TenantConfig::weighted(1));
    let resp = tenant
        .submit(NativeParcel::fallible(move |_ctx| {
            let prog = parse(FAULTY_SRC).expect("kernel parses");
            Interp::new(2)
                .with_strategy(LoopStrategy::Ssp)
                .with_kernel_mode(mode)
                .run(&prog)
                .map(|_| ())
        }))
        .expect("request admitted");
    let outcome = resp.wait();
    let stats = tenant.stats();
    assert_eq!(stats.failed, 1, "the kernel fault must be accounted");
    assert_eq!(stats.completed, 0);
    server.shutdown();
    match outcome {
        Outcome::Failed(fault) => fault,
        other => panic!("expected Outcome::Failed, got {other:?}"),
    }
}

#[test]
fn kernel_fault_is_typed_and_identical_under_both_kernel_modes() {
    let compiled = fault_through_server(KernelMode::Compiled);
    let interpreted = fault_through_server(KernelMode::Interpreted);

    // Never a panic: both resolved to a typed fault at the kernel site.
    assert_eq!(compiled.site, "kernel");
    assert_eq!(interpreted.site, "kernel");

    // Differential: the compiled checked path formats its `KernelFault`
    // with the interpreter's exact wording, so the two modes report the
    // same failure, verbatim.
    assert_eq!(compiled, interpreted);
    assert!(
        compiled
            .message
            .contains("out of bounds for array of length 10"),
        "got: {}",
        compiled.message
    );
}

#[test]
fn kernel_fault_text_matches_a_direct_run() {
    // The fault the server reports is exactly the error a direct
    // `Interp::run` returns — serving adds typing, not translation.
    let prog = parse(FAULTY_SRC).expect("kernel parses");
    let direct = Interp::new(2)
        .with_strategy(LoopStrategy::Ssp)
        .run(&prog)
        .expect_err("the kernel faults");
    let served = fault_through_server(KernelMode::Compiled);
    assert_eq!(served.message, direct);
}
