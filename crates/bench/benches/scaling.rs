//! Scaling benchmarks: model-checking cost as a function of workload size.
//!
//! Model-checking cost is (crash points + 1) executions; crash points grow
//! linearly with the number of flush/fence operations, so the total should
//! scale roughly quadratically with workload size. This quantifies the
//! paper's motivation for prefix expansion: exhaustively covering the
//! store→flush windows by crash injection alone is what gets expensive.

use bench::workload::{cceh_workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jaaru::EngineConfig;

fn bench_model_check_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("model-check-scaling");
    group.sample_size(10);
    for factor in [1usize, 2, 4] {
        let program = cceh_workload(WorkloadConfig::scaled(factor));
        group.bench_with_input(
            BenchmarkId::new("cceh", factor * 4),
            &program,
            |b, program| b.iter(|| yashme::model_check(program)),
        );
    }
    group.finish();
}

fn bench_single_execution_scaling(c: &mut Criterion) {
    // A single random execution scales linearly with the op count — this is
    // the per-execution cost the detector adds its "minimal overhead" to.
    let mut group = c.benchmark_group("single-execution-scaling");
    group.sample_size(10);
    for factor in [1usize, 4, 16] {
        let program = cceh_workload(WorkloadConfig::scaled(factor));
        group.bench_with_input(
            BenchmarkId::new("cceh", factor * 4),
            &program,
            |b, program| {
                b.iter(|| {
                    yashme::check(
                        program,
                        jaaru::ExecMode::random(1, 15),
                        yashme::YashmeConfig::default(),
                        &EngineConfig::default(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_model_check_scaling,
    bench_single_execution_scaling
);
criterion_main!(benches);
