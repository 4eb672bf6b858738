//! Scalability benchmark for the deterministic parallel synthesis engine
//! (`agmdp_models::parallel`): one full sampling pass (attribute vectors +
//! FCL edge generation + acceptance-refinement loops) from pre-learned
//! parameters, over the grid nodes ∈ {10k, 100k, 1M} × threads ∈ {1, 4, 8}.
//!
//! Fitting is excluded on purpose — the DP learners are serial by design —
//! so the cells isolate exactly the phase the engine parallelises. At a fixed
//! seed every cell of one node size produces the same graph (bit-identical
//! output is the engine's contract); only the wall-clock differs.
//!
//! `AGMDP_BENCH_JSON=BENCH_parallel.json cargo bench -p agmdp-bench --bench
//! parallel` reproduces the committed numbers. The committed baseline was
//! measured inside a container with **two vCPUs** (`nproc = 2`), so the `t4`
//! and `t8` cells run on two cores at most; re-run on a multi-core host to
//! see the engine's scaling (the thread-count grid is preserved in the JSON
//! either way).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use agmdp_core::params::{ThetaF, ThetaM, ThetaX};
use agmdp_core::workflow::{
    synthesize_from_parameters, AgmConfig, LearnedParameters, Privacy, StructuralModelKind,
};
use agmdp_graph::AttributeSchema;

/// Synthetic learned parameters for an `n`-node FCL workload: a truncated
/// power-law-ish degree sequence (average degree ≈ 6), a binary attribute
/// with a 60/40 split and homophilic edge correlations.
fn workload(n: usize) -> LearnedParameters {
    let schema = AttributeSchema::new(1);
    let degree_sequence: Vec<usize> = (0..n).map(|i| 2 + (n / (i + 1)).min(50) % 9).collect();
    LearnedParameters {
        theta_x: ThetaX::new(schema, vec![0.6, 0.4]).expect("theta_x"),
        theta_f: ThetaF::new(schema, vec![0.45, 0.2, 0.35]).expect("theta_f"),
        theta_m: ThetaM {
            degree_sequence,
            triangles: None,
        },
        num_nodes: n,
        schema,
    }
}

fn config(threads: usize) -> AgmConfig {
    AgmConfig {
        privacy: Privacy::Dp { epsilon: 1.0 },
        model: StructuralModelKind::Fcl,
        threads,
        // The orphan rewiring pass is serial post-processing; keep the cells
        // focused on the sampling phase the engine parallelises.
        orphan_postprocessing: false,
        ..AgmConfig::default()
    }
}

fn parallel_synthesis(c: &mut Criterion) {
    let sizes: &[(usize, &str, usize)] = &[
        (10_000, "10k", 10),
        (100_000, "100k", 5),
        (1_000_000, "1m", 2),
    ];
    for &(n, label, samples) in sizes {
        let params = workload(n);
        let mut group = c.benchmark_group("parallel");
        group.sample_size(samples);
        for threads in [1usize, 4, 8] {
            let cfg = config(threads);
            group.bench_function(format!("fcl_{label}_t{threads}"), |b| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(2016);
                    black_box(
                        synthesize_from_parameters(&params, &cfg, &mut rng)
                            .expect("synthesis")
                            .num_edges(),
                    )
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, parallel_synthesis);
criterion_main!(benches);
