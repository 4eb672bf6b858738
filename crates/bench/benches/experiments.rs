//! Criterion benchmarks with one group per paper table/figure: each benchmark
//! runs a single-cell slice of the corresponding experiment so `cargo bench`
//! exercises (and times) every reproduction path. The full sweeps are produced
//! by the `exp_*` binaries (see DESIGN.md's per-experiment index).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use agmdp_core::correlations_dp::{learn_correlations_dp, CorrelationMethod};
use agmdp_core::node_dp::learn_correlations_node_dp;
use agmdp_core::workflow::{synthesize, AgmConfig, Privacy, StructuralModelKind};
use agmdp_core::ThetaF;
use agmdp_datasets::{generate_dataset, DatasetSpec};
use agmdp_graph::clustering::average_local_clustering;
use agmdp_graph::degree::DegreeSequence;
use agmdp_graph::triangles::count_triangles;
use agmdp_metrics::distance::{hellinger_distance, mean_absolute_error};
use agmdp_models::{ChungLuModel, SampleSpec, StructuralModel, TclModel, TriCycLeModel};

fn experiment_benches(c: &mut Criterion) {
    let input = generate_dataset(&DatasetSpec::lastfm().scaled(0.25), 42).expect("dataset");
    let truth_f = ThetaF::from_graph(&input);

    // Table 6: dataset property measurement.
    let mut table6 = c.benchmark_group("table6_dataset_properties");
    table6.sample_size(10);
    table6.bench_function("measure_properties_lastfm_scaled", |b| {
        b.iter(|| {
            let tri = count_triangles(&input);
            let c_avg = average_local_clustering(&input);
            let dist = DegreeSequence::from_graph(&input).distribution();
            black_box((tri, c_avg, dist.len()))
        });
    });
    table6.finish();

    // Figure 1: truncation heuristic (one epsilon cell: heuristic k).
    let mut fig1 = c.benchmark_group("fig1_truncation_heuristic");
    fig1.sample_size(10);
    fig1.bench_function("theta_f_mae_heuristic_k_eps05", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let est = learn_correlations_dp(
                &input,
                0.5,
                CorrelationMethod::EdgeTruncation { k: None },
                &mut rng,
            )
            .unwrap();
            black_box(mean_absolute_error(
                truth_f.probabilities(),
                est.probabilities(),
            ))
        });
    });
    fig1.finish();

    // Figures 2 & 3: structural models.
    let mut fig23 = c.benchmark_group("fig2_fig3_structural_models");
    fig23.sample_size(10);
    let degrees = input.degrees();
    let triangles = count_triangles(&input);
    fig23.bench_function("fcl_cell", |b| {
        let model = ChungLuModel::new(degrees.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(model.sample(&SampleSpec::graph(), &mut rng).unwrap()));
    });
    fig23.bench_function("tcl_cell", |b| {
        let model = TclModel::fit(&input, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(model.sample(&SampleSpec::graph(), &mut rng).unwrap()));
    });
    fig23.bench_function("tricycle_cell", |b| {
        let model = TriCycLeModel::new(degrees.clone(), triangles).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(model.sample(&SampleSpec::graph(), &mut rng).unwrap()));
    });
    fig23.finish();

    // Figure 5: one cell per Theta_F estimator.
    let mut fig5 = c.benchmark_group("fig5_theta_f_estimators");
    fig5.sample_size(10);
    for (label, method) in [
        (
            "edge_truncation",
            CorrelationMethod::EdgeTruncation { k: None },
        ),
        (
            "smooth_sensitivity",
            CorrelationMethod::SmoothSensitivity { delta: 1e-6 },
        ),
        (
            "sample_aggregate",
            CorrelationMethod::SampleAggregate { group_size: 32 },
        ),
        ("naive_laplace", CorrelationMethod::NaiveLaplace),
    ] {
        fig5.bench_function(label, |b| {
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| black_box(learn_correlations_dp(&input, 0.3, method, &mut rng).unwrap()));
        });
    }
    fig5.finish();

    // Tables 2–5: one synthesized graph per (model, epsilon) cell.
    let mut tables = c.benchmark_group("tables2_5_agmdp");
    tables.sample_size(10);
    for (label, model) in [
        ("agmdp_fcl", StructuralModelKind::Fcl),
        ("agmdp_tricl", StructuralModelKind::TriCycLe),
    ] {
        tables.bench_function(format!("{label}_eps_ln2"), |b| {
            let config = AgmConfig {
                privacy: Privacy::Dp { epsilon: 2f64.ln() },
                model,
                ..AgmConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(6);
            b.iter(|| black_box(synthesize(&input, &config, &mut rng).unwrap().num_edges()));
        });
    }
    tables.finish();

    // Section 7: node-DP cell.
    let mut node_dp = c.benchmark_group("section7_node_dp");
    node_dp.sample_size(10);
    node_dp.bench_function("node_dp_theta_f_eps_ln2", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let est = learn_correlations_node_dp(&input, 2f64.ln(), 0.01, None, &mut rng).unwrap();
            black_box(hellinger_distance(
                truth_f.probabilities(),
                est.probabilities(),
            ))
        });
    });
    node_dp.finish();
}

criterion_group!(benches, experiment_benches);
criterion_main!(benches);
