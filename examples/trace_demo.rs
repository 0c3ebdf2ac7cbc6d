//! Execution tracing: run the detector with span tracing on, print what
//! each simulated run did, then explain every race report step by step —
//! the debugging workflow behind `yashme --explain` and `--trace-out`.
//!
//! Run with: `cargo run --example trace_demo`

use yashme::render;
use yashme_repro::prelude::*;

fn main() {
    let program = Program::new("traced")
        .pre_crash(|ctx: &mut Ctx| {
            let key = ctx.root();
            let value = ctx.root_slot(1);
            ctx.store_u64(value, 7070, Atomicity::Plain, "Pair.value");
            ctx.mfence();
            ctx.store_u64(key, 707, Atomicity::Plain, "Pair.key");
            ctx.clflush(key);
            ctx.sfence();
        })
        .post_crash(|ctx: &mut Ctx| {
            let key = ctx.root();
            let value = ctx.root_slot(1);
            if ctx.load_u64(key, Atomicity::Plain) == 707 {
                let _ = ctx.load_u64(value, Atomicity::Plain);
            }
        });

    let report = yashme::check(
        &program,
        ExecMode::model_check(),
        YashmeConfig::default(),
        &EngineConfig::default().with_trace(true),
    );

    // One lane per simulated run, in run order (run i is lane i + 1);
    // timestamps are virtual-clock ticks, one per engine event.
    let trace = report.trace().expect("tracing was on");
    println!("=== execution trace ===");
    for (lane, buf) in (1..).zip(trace.lanes()) {
        for span in &buf.spans {
            println!(
                "lane {lane} [{:>4}+{:<3}] {:<16} {}",
                span.start,
                span.dur,
                span.phase.name(),
                span.name
            );
        }
        for instant in &buf.instants {
            println!(
                "lane {lane} [{:>4}    ] {:<16} {}",
                instant.ts,
                instant.phase.name(),
                instant.name
            );
        }
    }
    println!(
        "{} run(s), {} span(s), {} event(s)",
        trace.runs(),
        trace.span_count(),
        trace.event_count()
    );
    println!();
    println!("=== detector reports ===");
    for (i, race) in report.races().iter().enumerate() {
        print!("{}", render::render_explain("traced", i + 1, race));
    }
    assert!(!report.races().is_empty());
}
