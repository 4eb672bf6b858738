//! The immutable CSR snapshot of an attributed graph.
//!
//! The pipeline's read-only phase — TriCycLe acceptance scoring, every metric
//! in `agmdp-metrics`, the evaluation harness and the service's
//! `GET /evaluate` — traverses a graph that will never change again. The
//! mutable [`AttributedGraph`] pays for its
//! insertability with one heap allocation per node (`Vec<Vec<NodeId>>`),
//! which scatters neighbor lists across the heap; [`FrozenGraph`] is the
//! same graph *frozen* into three flat arrays (compressed sparse row):
//!
//! * `offsets[v] .. offsets[v + 1]` indexes node `v`'s slice of `neighbors`,
//! * `neighbors` holds every (half-)edge endpoint, sorted within each node,
//! * `attributes[v]` is node `v`'s attribute code.
//!
//! Degrees become two adjacent array reads, neighbor iteration is a single
//! contiguous scan, and whole-graph traversals (triangle counting, degree
//! histograms) stream linearly through memory. Freezing is `O(n + m)` and
//! performed once per graph; thawing reconstructs an [`AttributedGraph`]
//! equal to the original.
//!
//! The snapshot is also the in-memory image of the binary `.agb` interchange
//! format (see [`crate::io`]): reading a binary file produces a `FrozenGraph`
//! without any re-sorting or re-indexing.

use crate::attributes::{AttributeSchema, EdgeConfigIndex};
use crate::error::GraphError;
use crate::graph::{AttributedGraph, Edge, NodeId};
use crate::view::GraphView;
use crate::Result;

/// An immutable attributed graph in compressed-sparse-row form.
///
/// Construct one with [`AttributedGraph::freeze`], [`FrozenGraph::from_graph`]
/// or by reading a binary graph file ([`crate::io::from_binary`]). All read
/// accessors mirror `AttributedGraph`'s and return identical values; the
/// [`GraphView`] impl lets every analysis function accept either
/// representation.
///
/// ```
/// use agmdp_graph::{AttributedGraph, GraphView};
///
/// let mut g = AttributedGraph::unattributed(4);
/// g.add_edge(0, 1).unwrap();
/// g.add_edge(1, 2).unwrap();
/// g.add_edge(2, 0).unwrap();
/// let frozen = g.freeze();
/// assert_eq!(frozen.num_edges(), 3);
/// assert_eq!(frozen.neighbors(2), &[0, 1]);
/// assert!(frozen.has_edge(0, 2));
/// assert_eq!(agmdp_graph::triangles::count_triangles(&frozen), 1);
/// assert_eq!(frozen.thaw(), g);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenGraph {
    schema: AttributeSchema,
    /// `offsets[v]..offsets[v+1]` is node `v`'s slice of `neighbors`;
    /// `offsets.len() == n + 1`, `offsets[0] == 0`, `offsets[n] == 2m`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists (`2m` entries).
    neighbors: Vec<NodeId>,
    /// Attribute code of each node (`f_w` encoding), `n` entries.
    attributes: Vec<u32>,
    /// Number of undirected edges (`neighbors.len() / 2`).
    num_edges: usize,
}

impl FrozenGraph {
    /// Snapshots `g` into CSR form. `O(n + m)`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX / 2` edges (the CSR
    /// offsets are 32-bit; at the pipeline's million-node scale this bound is
    /// three orders of magnitude away).
    #[must_use]
    pub fn from_graph(g: &AttributedGraph) -> Self {
        let half_edges = 2 * g.num_edges();
        assert!(
            u32::try_from(half_edges).is_ok(),
            "graph too large to freeze: {half_edges} half-edges exceed u32 offsets"
        );
        let mut offsets = Vec::with_capacity(g.num_nodes() + 1);
        let mut neighbors = Vec::with_capacity(half_edges);
        offsets.push(0u32);
        for v in g.nodes() {
            neighbors.extend_from_slice(g.neighbors(v));
            offsets.push(neighbors.len() as u32);
        }
        Self {
            schema: g.schema(),
            offsets,
            neighbors,
            attributes: g.attribute_codes().to_vec(),
            num_edges: g.num_edges(),
        }
    }

    /// Builds a snapshot directly from CSR arrays, validating every
    /// structural invariant (used by the binary graph reader; a file that
    /// passes its checksum can still encode an inconsistent graph).
    ///
    /// Requirements: `offsets` has `n + 1` monotone entries starting at 0 and
    /// ending at `neighbors.len()` (which must be even); each node's slice is
    /// strictly sorted, in-range, self-loop-free and symmetric; `attributes`
    /// has `n` codes valid under `schema`.
    pub fn from_csr(
        schema: AttributeSchema,
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        attributes: Vec<u32>,
    ) -> Result<Self> {
        validate_csr_structure(&offsets, &neighbors)?;
        validate_attribute_codes(schema, &attributes, offsets.len() - 1)?;
        let num_edges = neighbors.len() / 2;
        Ok(Self {
            schema,
            offsets,
            neighbors,
            attributes,
            num_edges,
        })
    }

    /// Builds a snapshot from CSR arrays whose invariants the caller has
    /// already established (used by [`crate::mmap::FrozenView::to_frozen`],
    /// whose slices were validated at view construction) — skips the
    /// `O(n + m log d)` re-validation of [`FrozenGraph::from_csr`].
    pub(crate) fn from_csr_unchecked(
        schema: AttributeSchema,
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        attributes: Vec<u32>,
        num_edges: usize,
    ) -> Self {
        debug_assert!(!offsets.is_empty() && neighbors.len() == 2 * num_edges);
        Self {
            schema,
            offsets,
            neighbors,
            attributes,
            num_edges,
        }
    }

    /// Reconstructs a mutable [`AttributedGraph`] equal to the graph this
    /// snapshot was frozen from (adjacency lists come back sorted, so
    /// `frozen.thaw() == original` holds exactly).
    #[must_use]
    pub fn thaw(&self) -> AttributedGraph {
        let mut g = AttributedGraph::new(self.num_nodes(), self.schema);
        g.set_all_attribute_codes(&self.attributes)
            .expect("frozen attribute codes are schema-valid");
        for e in self.edges() {
            g.add_edge(e.u, e.v)
                .expect("frozen snapshot contains no duplicate edges or self-loops");
        }
        g
    }

    /// The attribute schema of this graph.
    #[must_use]
    pub fn schema(&self) -> AttributeSchema {
        self.schema
    }

    /// Number of nodes `n = |N|`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Degree of node `v` — two adjacent offset reads, no indirection.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Allocation-free iterator over all node degrees, by node id.
    pub fn degree_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// The sorted neighbor list `Γ(v)` of node `v` — a contiguous slice of
    /// the CSR array.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Returns `true` if the undirected edge `(u, v)` is present
    /// (binary search of the shorter endpoint's slice; out-of-range
    /// endpoints return `false`).
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        GraphView::has_edge(self, u, v)
    }

    /// Number of common neighbors `|Γ(u) ∩ Γ(v)|` (see
    /// [`GraphView::common_neighbor_count`]).
    #[must_use]
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        GraphView::common_neighbor_count(self, u, v)
    }

    /// Enumerates all edges in canonical (lexicographic) order with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        GraphView::edges(self)
    }

    /// The degrees of all nodes, indexed by node id (allocates; prefer
    /// [`FrozenGraph::degree_iter`] on hot paths).
    #[must_use]
    pub fn degrees(&self) -> Vec<usize> {
        self.degree_iter().collect()
    }

    /// Maximum degree `d_max` (0 for an empty graph).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.degree_iter().max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for an empty graph).
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        GraphView::avg_degree(self)
    }

    /// The attribute code (`f_w` encoding) of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn attribute_code(&self, v: NodeId) -> u32 {
        self.attributes[v as usize]
    }

    /// Attribute codes for all nodes, indexed by node id.
    #[must_use]
    pub fn attribute_codes(&self) -> &[u32] {
        &self.attributes
    }

    /// The edge-configuration index `F_w(x_u, x_v)` of an edge's endpoints.
    #[must_use]
    pub fn edge_config(&self, u: NodeId, v: NodeId) -> EdgeConfigIndex {
        GraphView::edge_config(self, u, v)
    }

    /// The raw CSR arrays `(offsets, neighbors, attributes)` — the exact
    /// payload of the binary graph format.
    #[must_use]
    pub fn csr_parts(&self) -> (&[u32], &[NodeId], &[u32]) {
        (&self.offsets, &self.neighbors, &self.attributes)
    }
}

/// Validates every structural CSR invariant over raw slices — shared by
/// [`FrozenGraph::from_csr`] (owned deserialisation) and
/// [`crate::mmap::FrozenView::new`] (zero-copy views), so both paths accept
/// and reject exactly the same array contents.
///
/// Checks: non-empty offsets starting at 0 and ending at `neighbors.len()`
/// (which must be even), non-decreasing offsets, each node's list strictly
/// sorted / in-range / self-loop-free, and edge symmetry.
pub(crate) fn validate_csr_structure(offsets: &[u32], neighbors: &[NodeId]) -> Result<()> {
    let invalid = |msg: String| GraphError::Format(format!("invalid CSR graph: {msg}"));
    if offsets.is_empty() {
        return Err(invalid("empty offsets array".into()));
    }
    let n = offsets.len() - 1;
    if offsets[0] != 0 {
        return Err(invalid(format!(
            "offsets must start at 0, got {}",
            offsets[0]
        )));
    }
    if *offsets.last().expect("non-empty") as usize != neighbors.len() {
        return Err(invalid(format!(
            "final offset {} does not match {} neighbor entries",
            offsets.last().expect("non-empty"),
            neighbors.len()
        )));
    }
    if neighbors.len() % 2 != 0 {
        return Err(invalid(format!(
            "odd half-edge count {} (undirected graphs store each edge twice)",
            neighbors.len()
        )));
    }
    for w in offsets.windows(2) {
        if w[1] < w[0] {
            return Err(invalid("offsets must be non-decreasing".into()));
        }
    }
    let list = |v: usize| &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
    // Per-list structure: strictly sorted, in range, no self-loops.
    for v in 0..n {
        let mut prev: Option<NodeId> = None;
        for &u in list(v) {
            if (u as usize) >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: u,
                    num_nodes: n,
                });
            }
            if u as usize == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            if let Some(p) = prev {
                if p >= u {
                    return Err(invalid(format!(
                        "neighbor list of node {v} is not strictly sorted"
                    )));
                }
            }
            prev = Some(u);
        }
    }
    // Symmetry: every half-edge has its mirror.
    for v in 0..n {
        for &u in list(v) {
            if list(u as usize).binary_search(&(v as NodeId)).is_err() {
                return Err(invalid(format!("edge ({v}, {u}) is not symmetric")));
            }
        }
    }
    Ok(())
}

/// Validates that `attributes` holds exactly `n` codes, each representable
/// under `schema` — the attribute half of the CSR validation, shared with
/// the zero-copy view.
pub(crate) fn validate_attribute_codes(
    schema: AttributeSchema,
    attributes: &[u32],
    n: usize,
) -> Result<()> {
    if attributes.len() != n {
        return Err(GraphError::Format(format!(
            "invalid CSR graph: {} attribute codes for {n} nodes",
            attributes.len()
        )));
    }
    for &code in attributes {
        schema.validate_code(code)?;
    }
    Ok(())
}

impl GraphView for FrozenGraph {
    fn num_nodes(&self) -> usize {
        FrozenGraph::num_nodes(self)
    }
    fn num_edges(&self) -> usize {
        FrozenGraph::num_edges(self)
    }
    fn schema(&self) -> AttributeSchema {
        FrozenGraph::schema(self)
    }
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        FrozenGraph::neighbors(self, v)
    }
    fn attribute_code(&self, v: NodeId) -> u32 {
        FrozenGraph::attribute_code(self, v)
    }
    fn degree(&self, v: NodeId) -> usize {
        FrozenGraph::degree(self, v)
    }
}

impl From<&AttributedGraph> for FrozenGraph {
    fn from(g: &AttributedGraph) -> Self {
        Self::from_graph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttributedGraph {
        let mut g = AttributedGraph::new(5, AttributeSchema::new(2));
        g.set_all_attribute_codes(&[0, 1, 2, 3, 1]).unwrap();
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)] {
            g.add_edge(u, v).unwrap();
        }
        g
    }

    #[test]
    fn freeze_preserves_every_read_accessor() {
        let g = sample();
        let f = g.freeze();
        assert_eq!(f.num_nodes(), g.num_nodes());
        assert_eq!(f.num_edges(), g.num_edges());
        assert_eq!(f.schema(), g.schema());
        assert_eq!(f.max_degree(), g.max_degree());
        assert_eq!(f.avg_degree(), g.avg_degree());
        assert_eq!(f.degrees(), g.degrees());
        assert_eq!(f.attribute_codes(), g.attribute_codes());
        for v in g.nodes() {
            assert_eq!(f.neighbors(v), g.neighbors(v));
            assert_eq!(f.degree(v), g.degree(v));
            assert_eq!(f.attribute_code(v), g.attribute_code(v));
        }
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(f.has_edge(u, v), g.has_edge(u, v));
                if u != v {
                    assert_eq!(f.common_neighbor_count(u, v), g.common_neighbor_count(u, v));
                    assert_eq!(f.edge_config(u, v), g.edge_config(u, v));
                }
            }
        }
        let fe: Vec<Edge> = f.edges().collect();
        assert_eq!(fe, g.edge_vec());
    }

    #[test]
    fn thaw_roundtrips_exactly() {
        let g = sample();
        assert_eq!(g.freeze().thaw(), g);
        let empty = AttributedGraph::unattributed(0);
        assert_eq!(empty.freeze().thaw(), empty);
        let isolated = AttributedGraph::unattributed(3);
        assert_eq!(isolated.freeze().thaw(), isolated);
    }

    #[test]
    fn empty_and_edgeless_graphs_freeze() {
        let f = AttributedGraph::unattributed(0).freeze();
        assert_eq!(f.num_nodes(), 0);
        assert_eq!(f.num_edges(), 0);
        assert_eq!(f.max_degree(), 0);
        assert_eq!(f.avg_degree(), 0.0);
        assert_eq!(f.edges().count(), 0);
        let f = AttributedGraph::unattributed(4).freeze();
        assert_eq!(f.num_nodes(), 4);
        assert_eq!(f.degrees(), vec![0; 4]);
    }

    #[test]
    fn from_csr_accepts_valid_and_rejects_broken_inputs() {
        let g = sample();
        let f = g.freeze();
        let (offsets, neighbors, attributes) = f.csr_parts();
        let rebuilt = FrozenGraph::from_csr(
            g.schema(),
            offsets.to_vec(),
            neighbors.to_vec(),
            attributes.to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, f);

        let schema = AttributeSchema::new(0);
        // Empty offsets.
        assert!(FrozenGraph::from_csr(schema, vec![], vec![], vec![]).is_err());
        // Final offset disagrees with the neighbor array.
        assert!(FrozenGraph::from_csr(schema, vec![0, 2], vec![1], vec![0]).is_err());
        // Self-loop.
        assert!(matches!(
            FrozenGraph::from_csr(schema, vec![0, 2, 2], vec![0, 1], vec![0, 0]),
            Err(GraphError::SelfLoop { .. })
        ));
        // Asymmetric edge: 0 -> 1 without 1 -> 0.
        assert!(FrozenGraph::from_csr(schema, vec![0, 1, 2], vec![1, 0], vec![0, 0]).is_ok());
        assert!(FrozenGraph::from_csr(schema, vec![0, 1, 1], vec![1], vec![0, 0]).is_err());
        // Out-of-range neighbor.
        assert!(matches!(
            FrozenGraph::from_csr(schema, vec![0, 1, 2], vec![5, 0], vec![0, 0]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        // Unsorted neighbor list.
        assert!(
            FrozenGraph::from_csr(schema, vec![0, 2, 3, 4], vec![2, 1, 0, 0], vec![0, 0, 0])
                .is_err()
        );
        // Attribute code outside the schema.
        assert!(matches!(
            FrozenGraph::from_csr(AttributeSchema::new(1), vec![0, 0], vec![], vec![7]),
            Err(GraphError::AttributeCodeOutOfRange { .. })
        ));
        // Decreasing offsets.
        assert!(
            FrozenGraph::from_csr(schema, vec![0, 2, 1, 2], vec![1, 0], vec![0, 0, 0]).is_err()
        );
    }

    #[test]
    fn generic_consumers_accept_both_representations() {
        fn wedge_sum<G: GraphView>(g: &G) -> usize {
            g.degree_iter().map(|d| d * d.saturating_sub(1) / 2).sum()
        }
        let g = sample();
        assert_eq!(wedge_sum(&g), wedge_sum(&g.freeze()));
    }
}
