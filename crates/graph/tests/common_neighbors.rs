//! Every [`GraphView`] implementor counts common neighbors exactly: the
//! owned adjacency lists, the CSR snapshot, a borrowed CSR view and a
//! memory-mapped `.agb` file all agree with a set-based reference on every
//! node pair of one skewed graph, where hub × leaf pairs take the galloping
//! branch of the intersection and comparable pairs the merge.

use std::collections::HashSet;

use agmdp_graph::io::write_binary_file;
use agmdp_graph::{AttributeSchema, AttributedGraph, FrozenView, GraphView, MappedGraph, NodeId};

/// A 400-node graph with five hubs (node `h` links to about one node in
/// `h + 1`) over a sparse random background, from a fixed xorshift stream.
fn skewed_graph() -> AttributedGraph {
    let n: u32 = 400;
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut g = AttributedGraph::new(n as usize, AttributeSchema::new(1));
    for v in 5..n {
        for h in 0..5u32 {
            if next() % u64::from(h + 1) == 0 {
                g.try_add_edge(h, v).unwrap();
            }
        }
    }
    for _ in 0..3 * n {
        let u = (next() % u64::from(n - 5)) as NodeId + 5;
        let v = (next() % u64::from(n - 5)) as NodeId + 5;
        if u != v {
            g.try_add_edge(u, v).unwrap();
        }
    }
    g
}

/// Checks `view` against set intersections of `g`'s lists on every node
/// pair, in both argument orders.
fn assert_matches_reference<G: GraphView>(name: &str, view: &G, g: &AttributedGraph) {
    let sets: Vec<HashSet<NodeId>> = g
        .nodes()
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    for u in g.nodes() {
        for v in u..g.num_nodes() as NodeId {
            let expected = sets[u as usize].intersection(&sets[v as usize]).count();
            assert_eq!(
                view.common_neighbor_count(u, v),
                expected,
                "{name}: ({u}, {v})"
            );
            assert_eq!(
                view.common_neighbor_count(v, u),
                expected,
                "{name}: ({v}, {u})"
            );
        }
    }
}

#[test]
fn every_graph_view_counts_common_neighbors_exactly() {
    let g = skewed_graph();
    // The graph must exercise both branches of the intersection kernel.
    let degrees = g.degrees();
    let leaf = degrees[5..]
        .iter()
        .copied()
        .filter(|&d| d > 0)
        .min()
        .unwrap();
    assert!(degrees[0] >= 64 * leaf, "hub {} vs leaf {leaf}", degrees[0]);

    let frozen = g.freeze();
    let path =
        std::env::temp_dir().join(format!("agmdp_common_neighbors_{}.agb", std::process::id()));
    write_binary_file(&frozen, &path).unwrap();
    let mapped = MappedGraph::open(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_matches_reference("AttributedGraph", &g, &g);
    assert_matches_reference("FrozenGraph", &frozen, &g);
    assert_matches_reference("FrozenView", &FrozenView::of_frozen(&frozen), &g);
    assert_matches_reference("MappedGraph", &mapped, &g);
}
