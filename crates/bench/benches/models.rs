//! Criterion benchmarks for the generative structural models (FCL, TCL,
//! TriCycLe) and the graph-analysis primitives they depend on.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use agmdp_datasets::{generate_dataset, DatasetSpec};
use agmdp_graph::clustering::average_local_clustering;
use agmdp_graph::triangles::count_triangles;
use agmdp_models::{ChungLuModel, SampleSpec, StructuralModel, TclModel, TriCycLeModel};

fn models(c: &mut Criterion) {
    let input = generate_dataset(&DatasetSpec::lastfm().scaled(0.3), 11).expect("dataset");
    let degrees = input.degrees();
    let triangles = count_triangles(&input);
    let mut group = c.benchmark_group("models");
    group.sample_size(10);

    group.bench_function("triangle_count", |b| {
        b.iter(|| black_box(count_triangles(&input)));
    });

    group.bench_function("average_local_clustering", |b| {
        b.iter(|| black_box(average_local_clustering(&input)));
    });

    group.bench_function("fcl_generate", |b| {
        let model = ChungLuModel::new(degrees.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(model.sample(&SampleSpec::graph(), &mut rng).unwrap()));
    });

    group.bench_function("tcl_fit_rho_em", |b| {
        b.iter(|| black_box(agmdp_models::tcl::estimate_rho(&input, 10)));
    });

    group.bench_function("tcl_generate", |b| {
        let model = TclModel::fit(&input, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(model.sample(&SampleSpec::graph(), &mut rng).unwrap()));
    });

    group.bench_function("tricycle_generate", |b| {
        let model = TriCycLeModel::new(degrees.clone(), triangles).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(model.sample(&SampleSpec::graph(), &mut rng).unwrap()));
    });

    group.finish();
}

criterion_group!(benches, models);
criterion_main!(benches);
