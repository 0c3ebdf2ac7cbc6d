//! Criterion benchmarks for Table 5's timing columns: per-benchmark
//! single-execution wall time with the Yashme detector attached versus
//! plain Jaaru (no detector).
//!
//! The paper reports that "they have comparable running times because the
//! race checks introduce minimal overheads" — the shape to look for here is
//! Yashme ≈ Jaaru per benchmark.

use bench::{evaluation_suite, HARNESS_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jaaru::obs::Telemetry;
use jaaru::{Engine, EngineConfig, ExecMode};
use yashme::YashmeConfig;

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("table5-timing");
    group.sample_size(10);
    for entry in evaluation_suite() {
        let program = (entry.program)();
        group.bench_with_input(
            BenchmarkId::new("yashme", entry.name),
            &program,
            |b, program| {
                b.iter(|| {
                    yashme::check(
                        program,
                        ExecMode::random(1, HARNESS_SEED),
                        YashmeConfig::default(),
                        &EngineConfig::default(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("jaaru", entry.name),
            &program,
            |b, program| {
                b.iter(|| {
                    Engine::run_observed(
                        program,
                        ExecMode::random(1, HARNESS_SEED),
                        &|| Box::new(jaaru::NullSink),
                        &EngineConfig::default(),
                        Telemetry::off(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_prefix_vs_baseline(c: &mut Criterion) {
    // Ablation: does prefix expansion cost anything at detection time?
    let mut group = c.benchmark_group("prefix-ablation");
    group.sample_size(10);
    let program = (evaluation_suite()[0].program)(); // CCEH
    group.bench_function("prefix", |b| {
        b.iter(|| {
            yashme::check(
                &program,
                ExecMode::random(1, HARNESS_SEED),
                YashmeConfig::default(),
                &EngineConfig::default(),
            )
        })
    });
    group.bench_function("baseline", |b| {
        b.iter(|| {
            yashme::check(
                &program,
                ExecMode::random(1, HARNESS_SEED),
                YashmeConfig::baseline(),
                &EngineConfig::default(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_overhead, bench_prefix_vs_baseline);
criterion_main!(benches);
