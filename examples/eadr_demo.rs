//! eADR platforms (§7.5): the cache is inside the persistence domain, so
//! flushing is unnecessary — but persistency races remain, because stores
//! can still straddle a crash inside the (volatile) store buffer.
//!
//! This example shows the containment relation the paper states: "the
//! absence of races on a non-eADR system implies the absence of races on
//! eADR systems, but the opposite is not true."
//!
//! Run with: `cargo run --example eadr_demo`

use yashme_repro::prelude::*;

fn two_stores() -> Program {
    Program::new("eadr")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(32); // a different cache line
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.store_u64(y, 2, Atomicity::Plain, "y");
            ctx.clflush(y);
            ctx.sfence();
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(32);
            let _ = ctx.load_u64(y, Atomicity::Plain);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        })
}

fn main() {
    let default = yashme::model_check(&two_stores());
    let eadr = yashme::check(
        &two_stores(),
        ExecMode::model_check(),
        YashmeConfig::eadr(),
        &EngineConfig::default(),
    );

    println!("program: store x; store y; clflush y; sfence — post-crash reads y then x");
    println!();
    println!("non-eADR races: {:?}", default.race_labels());
    println!("eADR races:     {:?}", eadr.race_labels());
    println!();
    println!(
        "On a conventional platform both stores race (neither flush is \
         forced into the consistent prefix by the reads)."
    );
    println!(
        "On eADR, x is safe: the post-crash execution observed y, a later \
         store by the same thread, and the TSO store buffer drains in FIFO \
         order — so x had left the buffer, and on eADR leaving the buffer \
         IS persistence. y itself still races: the crash can hit while y's \
         chunks are mid-buffer."
    );
    assert!(default.race_labels().contains(&"x"));
    assert!(default.race_labels().contains(&"y"));
    assert!(!eadr.race_labels().contains(&"x"));
    assert!(eadr.race_labels().contains(&"y"));
}
