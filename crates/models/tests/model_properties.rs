//! Property-based tests for the generative structural models.

use std::sync::Mutex;

use agmdp_graph::triangles::count_triangles;
use agmdp_graph::{AttributeSchema, AttributedGraph};
use agmdp_models::acceptance::AcceptanceContext;
use agmdp_models::baselines::uniform_edge_graph;
use agmdp_models::{
    ChungLuModel, ExecPolicy, PiSampler, Sample, SampleOutput, SampleSpec, StageObserver,
    StructuralModel, SynthesisStage, TclModel, TriCycLeModel,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Samples a plain graph from `model`.
fn sample_graph(model: &dyn StructuralModel, rng: &mut dyn RngCore) -> AttributedGraph {
    model
        .sample(&SampleSpec::graph(), rng)
        .and_then(Sample::into_graph)
        .unwrap()
}

/// Strategy producing a usable desired-degree sequence (at least one positive
/// degree, modest sizes so generation stays fast).
fn degree_sequence() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..8, 8..60).prop_map(|mut d| {
        if d.iter().all(|&x| x == 0) {
            d[0] = 2;
            d[1] = 2;
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FCL output is always a simple graph over the requested node set with
    /// the requested number of edges (when achievable).
    #[test]
    fn fcl_output_is_well_formed(degrees in degree_sequence(), seed in 0u64..500) {
        let model = ChungLuModel::new(degrees.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = sample_graph(&model, &mut rng);
        prop_assert_eq!(g.num_nodes(), degrees.len());
        prop_assert!(g.check_consistency().is_ok());
        prop_assert!(g.num_edges() <= model.target_edges());
        // No node exceeds n-1 neighbors (simple graph).
        prop_assert!(g.max_degree() < degrees.len());
    }

    /// TriCycLe terminates and produces a consistent graph for arbitrary
    /// degree sequences and triangle targets — including unreachable targets.
    #[test]
    fn tricycle_always_terminates_consistently(
        degrees in degree_sequence(),
        target in 0u64..500,
        seed in 0u64..500,
    ) {
        let model = TriCycLeModel::new(degrees.clone(), target)
            .unwrap()
            .with_max_iteration_factor(5);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = sample_graph(&model, &mut rng);
        prop_assert_eq!(g.num_nodes(), degrees.len());
        prop_assert!(g.check_consistency().is_ok());
    }

    /// TCL preserves the target edge count exactly and stays consistent.
    #[test]
    fn tcl_output_is_well_formed(degrees in degree_sequence(), rho in 0.0f64..1.0, seed in 0u64..500) {
        let model = TclModel::new(degrees.clone(), rho).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = sample_graph(&model, &mut rng);
        prop_assert_eq!(g.num_nodes(), degrees.len());
        prop_assert!(g.check_consistency().is_ok());
        prop_assert!(g.num_edges() <= model.target_edges());
    }

    /// With acceptance probability zero for a configuration, no generated edge
    /// ever carries that configuration (for any of the three models).
    #[test]
    fn zero_acceptance_blocks_configurations(seed in 0u64..200) {
        let n = 40usize;
        let schema = AttributeSchema::new(1);
        let degrees = vec![4usize; n];
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 0)).collect();
        // Forbid mixed (0,1) edges.
        let ctx = AcceptanceContext::new(codes, schema, vec![1.0, 0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let models: Vec<Box<dyn StructuralModel>> = vec![
            Box::new(ChungLuModel::new(degrees.clone()).unwrap()),
            Box::new(TclModel::new(degrees.clone(), 0.4).unwrap()),
            Box::new(TriCycLeModel::new(degrees.clone(), 30).unwrap().with_orphan_extension(false)),
        ];
        for model in &models {
            let spec = SampleSpec::graph().with_acceptance(&ctx);
            let g = model.sample(&spec, &mut rng).unwrap().into_graph().unwrap();
            for e in g.edges() {
                prop_assert_eq!(g.attribute_code(e.u), g.attribute_code(e.v));
            }
        }
    }

    /// The pi sampler only ever returns nodes with positive (non-excluded)
    /// desired degree.
    #[test]
    fn pi_sampler_respects_support(degrees in degree_sequence(), seed in 0u64..200) {
        prop_assume!(degrees.iter().any(|&d| d > 0));
        let sampler = PiSampler::from_degrees(&degrees).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let v = sampler.sample(&mut rng) as usize;
            prop_assert!(degrees[v] > 0);
        }
    }

    /// The uniform-edge baseline always produces exactly the requested number
    /// of edges (capped at the complete graph) and a simple graph.
    #[test]
    fn uniform_edge_graph_properties(n in 2usize..60, m in 0usize..400, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = uniform_edge_graph(n, m, &mut rng).unwrap();
        let cap = n * (n - 1) / 2;
        prop_assert_eq!(g.num_edges(), m.min(cap));
        prop_assert!(g.check_consistency().is_ok());
    }
}

/// TriCycLe's triangle counts respond monotonically (on average) to the target
/// parameter — a sanity check that the rewiring loop actually drives the
/// statistic it is parameterised by.
#[test]
fn tricycle_triangles_increase_with_target() {
    let degrees: Vec<usize> = (0..200)
        .map(|i| 3 + (200 / (3 * (i + 1))).min(10))
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let mean_triangles = |target: u64, rng: &mut StdRng| -> f64 {
        (0..3)
            .map(|_| {
                let model = TriCycLeModel::new(degrees.clone(), target)
                    .unwrap()
                    .with_orphan_extension(false);
                let g = sample_graph(&model, rng);
                count_triangles(&g) as f64
            })
            .sum::<f64>()
            / 3.0
    };
    let low = mean_triangles(20, &mut rng);
    let high = mean_triangles(400, &mut rng);
    assert!(
        high > low,
        "triangle target 400 should yield more triangles ({high}) than target 20 ({low})"
    );
}

/// The model configurations the `sample` contract tests cover, by name.
/// A third of the nodes have degree one, so the orphan extensions have
/// nodes to wire up.
fn contract_models() -> Vec<(&'static str, Box<dyn StructuralModel>)> {
    let degrees: Vec<usize> = (0..150)
        .map(|i| {
            if i % 3 == 0 {
                1
            } else {
                2 + (150 / (i + 1)).min(9)
            }
        })
        .collect();
    vec![
        ("fcl", Box::new(ChungLuModel::new(degrees.clone()).unwrap())),
        (
            "fcl+orphans",
            Box::new(
                ChungLuModel::new(degrees.clone())
                    .unwrap()
                    .with_orphan_postprocessing(true),
            ),
        ),
        (
            "tcl",
            Box::new(TclModel::new(degrees.clone(), 0.4).unwrap()),
        ),
        (
            "tricycle",
            Box::new(
                TriCycLeModel::new(degrees.clone(), 80)
                    .unwrap()
                    .with_orphan_extension(false),
            ),
        ),
        (
            "tricycle+orphans",
            Box::new(TriCycLeModel::new(degrees, 80).unwrap()),
        ),
    ]
}

/// An acceptance context over the contract models' 150 nodes whose
/// probabilities all lie strictly inside (0, 1), so every coin matters.
fn contract_context() -> AcceptanceContext {
    let codes: Vec<u32> = (0..150u32).map(|i| u32::from(i % 2 == 0)).collect();
    AcceptanceContext::new(codes, AttributeSchema::new(1), vec![0.9, 0.4, 0.8]).unwrap()
}

/// The stream-identity contract of `StructuralModel::sample`: at the same
/// RNG state, an edge-list sample holds the same edge set as the graph
/// sample and leaves the RNG in the same state. The AGM refinement loop
/// relies on it when it keeps intermediate samples as edge lists.
#[test]
fn edge_list_sample_matches_graph_sample_and_rng_stream() {
    let ctx = contract_context();
    let chunked = ExecPolicy::new(2).with_chunk_size(64);
    for (name, model) in contract_models() {
        for acceptance in [None, Some(&ctx)] {
            for policy in [None, Some(&chunked)] {
                let mut spec = SampleSpec::graph();
                if let Some(ctx) = acceptance {
                    spec = spec.with_acceptance(ctx);
                }
                if let Some(policy) = policy {
                    spec = spec.with_policy(policy);
                }
                let run = |output: SampleOutput| {
                    let mut rng = StdRng::seed_from_u64(31);
                    let sample = model.sample(&spec.with_output(output), &mut rng).unwrap();
                    let mut edges = match (output, sample) {
                        (SampleOutput::Graph, Sample::Graph(graph)) => graph.edge_vec(),
                        (SampleOutput::EdgeList, Sample::EdgeList(edges)) => edges,
                        _ => panic!("{name}: wrong output kind"),
                    };
                    edges.sort_unstable();
                    (edges, rng.next_u64())
                };
                let case = format!(
                    "{name}, acceptance: {}, chunked: {}",
                    acceptance.is_some(),
                    policy.is_some()
                );
                let (graph_edges, graph_next) = run(SampleOutput::Graph);
                let (list_edges, list_next) = run(SampleOutput::EdgeList);
                assert!(!graph_edges.is_empty(), "{case}: empty sample");
                assert_eq!(graph_edges, list_edges, "{case}: edge sets differ");
                assert_eq!(graph_next, list_next, "{case}: RNG streams differ");
            }
        }
    }
}

/// Records every stage boundary in call order.
#[derive(Default)]
struct RecordingObserver {
    events: Mutex<Vec<(&'static str, SynthesisStage)>>,
}

impl StageObserver for RecordingObserver {
    fn stage_start(&self, stage: SynthesisStage) {
        self.events.lock().unwrap().push(("start", stage));
    }

    fn stage_end(&self, stage: SynthesisStage) {
        self.events.lock().unwrap().push(("end", stage));
    }
}

/// Each model reports the same balanced, non-nested stage sequence for both
/// output kinds and both samplers; the service and the benchmark attribute
/// time to `edge_sample` and `rewire` by these brackets. A rejected context
/// fails before any stage starts.
#[test]
fn sample_reports_per_model_stage_brackets() {
    use SynthesisStage::{EdgeSample, Rewire};
    let expected: [(&str, &[SynthesisStage]); 5] = [
        ("fcl", &[EdgeSample]),
        ("fcl+orphans", &[EdgeSample, Rewire]),
        ("tcl", &[EdgeSample]),
        ("tricycle", &[EdgeSample, Rewire]),
        ("tricycle+orphans", &[EdgeSample, Rewire]),
    ];
    let chunked = ExecPolicy::new(2).with_chunk_size(64);
    let mismatched =
        AcceptanceContext::new(vec![0, 1], AttributeSchema::new(1), vec![1.0; 3]).unwrap();
    for ((name, model), (expected_name, stages)) in contract_models().into_iter().zip(expected) {
        assert_eq!(name, expected_name);
        let want: Vec<(&str, SynthesisStage)> = stages
            .iter()
            .flat_map(|&stage| [("start", stage), ("end", stage)])
            .collect();
        for output in [SampleOutput::Graph, SampleOutput::EdgeList] {
            for policy in [None, Some(&chunked)] {
                let observer = RecordingObserver::default();
                let mut spec = SampleSpec::graph()
                    .with_output(output)
                    .with_observer(&observer);
                if let Some(policy) = policy {
                    spec = spec.with_policy(policy);
                }
                model.sample(&spec, &mut StdRng::seed_from_u64(5)).unwrap();
                assert_eq!(
                    observer.events.into_inner().unwrap(),
                    want,
                    "{name}, {output:?}, chunked: {}",
                    policy.is_some()
                );
            }
        }
        let observer = RecordingObserver::default();
        let spec = SampleSpec::graph()
            .with_acceptance(&mismatched)
            .with_observer(&observer);
        assert!(model.sample(&spec, &mut StdRng::seed_from_u64(5)).is_err());
        assert!(observer.events.into_inner().unwrap().is_empty(), "{name}");
    }
}
