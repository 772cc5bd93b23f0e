//! `batch_analysis` — the analysis kernel's paper-default DP/GN1/GN2/AnyOf
//! pass (`BatchAnalyzer::analyze_batch`) on fixed 256-taskset populations
//! from every figure distribution, packing included.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpga_rt_analysis::{BatchAnalyzer, TaskSetBatch};
use fpga_rt_bench::figure_tasksets;
use fpga_rt_gen::FigureWorkload;
use fpga_rt_model::TaskSet;
use std::hint::black_box;

const POPULATION: usize = 256;

fn population(workload: &FigureWorkload) -> Vec<TaskSet<f64>> {
    figure_tasksets(workload, POPULATION, 20070326)
}

/// Batch kernel: pack once into the reused SoA store, one pass for all
/// four series.
fn run_batch(
    tasksets: &[TaskSet<f64>],
    device: &fpga_rt_model::Fpga,
    batch: &mut TaskSetBatch,
    out: &mut Vec<fpga_rt_analysis::BatchVerdicts>,
) -> usize {
    batch.clear();
    for ts in tasksets {
        batch.push(ts);
    }
    BatchAnalyzer::new().analyze_batch(batch, device, out);
    out.iter()
        .map(|v| {
            usize::from(v.dp.accepted)
                + usize::from(v.gn1.accepted)
                + usize::from(v.gn2.accepted)
                + usize::from(v.any_of.accepted)
        })
        .sum()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_analysis");
    for workload in FigureWorkload::all() {
        let tasksets = population(&workload);
        let device = workload.device();
        let mut batch = TaskSetBatch::new();
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("batch", workload.id), &tasksets, |b, tasksets| {
            b.iter(|| black_box(run_batch(tasksets, &device, &mut batch, &mut out)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
