//! Fig. 2: adaptive mesh refinement (compiler analysis) vs grid-style
//! repeated evaluation of the cost surrogate.
mod common;
use criterion::Criterion;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_mesh_refinement");
    g.bench_function("mesh_refine_7_rounds", |b| b.iter(distill_bench::fig2));
    g.finish();
}

fn main() {
    let mut c = common::quick_criterion();
    bench(&mut c);
    c.final_summary();
}
