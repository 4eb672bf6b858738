//! The pruned Ladder local-sensitivity scan is exact: it returns the
//! all-pairs maximum common-neighbor count on every graph, on both graph
//! representations, and the Ladder release on a skewed Pokec stand-in is
//! pinned so that any change to the scan that alters `LS(G)` (and with it
//! the rung widths) shows up as a changed outcome.

use agmdp_datasets::{generate_dataset, DatasetSpec};
use agmdp_graph::AttributedGraph;
use agmdp_privacy::ladder::{dp_triangle_count, triangle_local_sensitivity};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `max_{i < j} |Γ(i) ∩ Γ(j)|` over an adjacency matrix, 0 without pairs.
fn brute_force_ls(g: &AttributedGraph) -> usize {
    let n = g.num_nodes();
    let mut adjacent = vec![vec![false; n]; n];
    for e in g.edges() {
        adjacent[e.u as usize][e.v as usize] = true;
        adjacent[e.v as usize][e.u as usize] = true;
    }
    let mut best = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let common = (0..n).filter(|&w| adjacent[i][w] && adjacent[j][w]).count();
            best = best.max(common);
        }
    }
    best
}

/// Asserts the scan equals the brute force on the graph and its snapshot.
fn assert_exact(g: &AttributedGraph) {
    let expected = brute_force_ls(g);
    assert_eq!(triangle_local_sensitivity(g), expected, "AttributedGraph");
    assert_eq!(
        triangle_local_sensitivity(&g.freeze()),
        expected,
        "FrozenGraph"
    );
}

fn graph_from(n: usize, edges: &[(u32, u32)]) -> AttributedGraph {
    let mut g = AttributedGraph::unattributed(n);
    for &(u, v) in edges {
        if u != v && (u as usize) < n && (v as usize) < n {
            g.try_add_edge(u, v).unwrap();
        }
    }
    g
}

fn clique(n: usize) -> Vec<(u32, u32)> {
    let n = n as u32;
    (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect()
}

fn star(center: u32, leaves: std::ops::Range<u32>) -> Vec<(u32, u32)> {
    leaves.map(|v| (center, v)).collect()
}

#[test]
fn local_sensitivity_is_exact_on_structured_graphs() {
    // Fewer than three nodes, and no edges at all.
    for n in 0..3 {
        assert_exact(&graph_from(n, &clique(n)));
    }
    assert_exact(&graph_from(12, &[]));
    // Stars, cliques, and both padded with isolated nodes.
    assert_exact(&graph_from(9, &star(0, 1..9)));
    assert_exact(&graph_from(20, &star(4, 5..12)));
    for n in 3..9 {
        assert_exact(&graph_from(n, &clique(n)));
        assert_exact(&graph_from(n + 5, &clique(n)));
    }
    // A clique and a larger star side by side: the star's hub ranks first
    // but the clique holds the maximum.
    let mut edges = clique(6);
    edges.extend(star(6, 7..30));
    assert_exact(&graph_from(30, &edges));
}

/// A tie at the stopping boundary: after the hub sets `best = k - 1`, the
/// maximum `k` is reached only by a pair whose endpoints both have degree
/// exactly `k`, so the scan must still visit the first node with
/// `d_i == best + 1` and may stop at the next one, where `d_i == best`.
#[test]
fn local_sensitivity_is_exact_at_the_stopping_boundary() {
    for k in 3..7u32 {
        // Nodes: hub 0; x = 1; a = 2, b = 3; c_1..c_k; l_1..l_{k-1}; m_1..m_5.
        let c = 4..4 + k;
        let l = c.end..c.end + k - 1;
        let m = l.end..l.end + 5;
        let n = m.end as usize;
        let mut edges = Vec::new();
        for v in c.clone() {
            edges.push((2, v));
            edges.push((3, v));
        }
        for v in l.clone() {
            edges.push((0, v));
            edges.push((1, v));
        }
        edges.extend(star(0, m));
        let g = graph_from(n, &edges);
        assert_eq!(g.degree(0) as u32, k + 4);
        assert_eq!(g.degree(2) as u32, k);
        assert_eq!(g.degree(3) as u32, k);
        assert_eq!(brute_force_ls(&g), k as usize);
        assert_exact(&g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random graphs on up to 60 nodes, dense to sparse.
    #[test]
    fn local_sensitivity_matches_brute_force(
        n in 0usize..=60,
        edges in proptest::collection::vec((0u32..60, 0u32..60), 0..400),
    ) {
        assert_exact(&graph_from(n, &edges));
    }

    /// Random graphs with a few planted hubs, so the degree order is skewed
    /// and both pruning rules cut work.
    #[test]
    fn local_sensitivity_matches_brute_force_with_hubs(
        n in 10usize..=60,
        hubs in proptest::collection::vec((0u32..4, 4u32..60), 0..150),
        edges in proptest::collection::vec((4u32..60, 4u32..60), 0..80),
    ) {
        let mut all = hubs;
        all.extend(edges);
        assert_exact(&graph_from(n, &all));
    }
}

/// `dp_triangle_count` on `generate_dataset(pokec, 0.02)` (11,853 nodes,
/// 74,508 edges, maximum degree 1,174, `LS = 240`): local sensitivity, rung
/// and estimate for three fixed seeds, recorded from the all-pairs scan.
#[test]
fn ladder_outcome_is_pinned_on_a_skewed_graph() {
    let g = generate_dataset(&DatasetSpec::pokec().scaled(0.02), 2016).unwrap();
    assert_eq!(
        (g.num_nodes(), g.num_edges(), g.max_degree()),
        (11_853, 74_508, 1_174)
    );
    let frozen = g.freeze();
    for (seed, epsilon, rung, estimate) in [
        (1u64, 0.1, 3usize, 49_205.0),
        (2, 0.5, 11, 52_414.0),
        (3, 1.0, 4, 50_532.0),
    ] {
        for outcome in [
            dp_triangle_count(&g, epsilon, &mut StdRng::seed_from_u64(seed)).unwrap(),
            dp_triangle_count(&frozen, epsilon, &mut StdRng::seed_from_u64(seed)).unwrap(),
        ] {
            assert_eq!(outcome.local_sensitivity, 240, "seed {seed}");
            assert_eq!(outcome.true_count, 49_734, "seed {seed}");
            assert_eq!(outcome.rung, rung, "seed {seed}");
            assert_eq!(
                outcome.estimate.to_bits(),
                f64::to_bits(estimate),
                "seed {seed}"
            );
        }
    }
}
