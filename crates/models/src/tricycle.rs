//! The TriCycLe random graph model (Algorithm 1 of the paper).
//!
//! TriCycLe is the paper's new structural model, designed so that its
//! parameters — the degree sequence `S` and the triangle count `n_Δ` — are
//! statistics with accurate differentially private estimators. Generation has
//! two phases:
//!
//! 1. **Seed phase.** A Chung-Lu graph with the desired number of edges is
//!    sampled from the degree-proportional distribution π.
//! 2. **Triangle phase.** While the graph has fewer than `n_Δ` triangles, a
//!    transitive edge is proposed: sample `v_i ~ π`, pick a uniform neighbor
//!    `v_k`, then a uniform neighbor `v_j` of `v_k` (a friend of a friend).
//!    The *oldest* edge `e_qr` is removed to keep the expected degree sequence,
//!    but the replacement is rejected (and `e_qr` reinstated as the *youngest*
//!    edge) if it would decrease the net triangle count.
//!
//! The orphan-node extension of Section 3.3 excludes degree-one nodes from π,
//! generates `m − |N₁|` seed edges, and wires the remaining orphans up with
//! Algorithm 2 (applied to both the seed and the final graph). When AGM
//! acceptance probabilities are supplied, every proposed edge (seed and
//! transitive) is additionally subjected to the accept/reject filter, which is
//! exactly how Algorithm 3 integrates TriCycLe (footnote 4).

use std::collections::VecDeque;

use rand::RngCore;

use agmdp_graph::graph::Edge;
use agmdp_graph::triangles::count_triangles;
use agmdp_graph::AttributedGraph;

use crate::acceptance::{Sample, SampleSpec, StructuralModel};
use crate::chung_lu::{sample_cl_graph, sample_uniform};
use crate::error::ModelError;
use crate::observe::SynthesisStage;
use crate::pi::PiSampler;
use crate::postprocess::wire_orphans;
use crate::Result;

/// The TriCycLe structural model, parameterised by `Θ_M = {S, n_Δ}`.
#[derive(Debug, Clone)]
pub struct TriCycLeModel {
    degrees: Vec<usize>,
    target_triangles: u64,
    orphan_extension: bool,
    max_iteration_factor: usize,
    /// The π alias table, built once per (degrees, orphan flag) and shared
    /// by every sample call — the AGM workflow samples from the same model
    /// four times per synthesis.
    pi: PiSampler,
}

impl TriCycLeModel {
    /// Creates a model from the desired degree sequence and triangle count.
    pub fn new(degrees: Vec<usize>, target_triangles: u64) -> Result<Self> {
        let total: usize = degrees.iter().sum();
        if degrees.is_empty() || total == 0 {
            return Err(ModelError::InvalidDegreeSequence(
                "degree sequence must contain a positive degree".to_string(),
            ));
        }
        let pi = Self::build_pi(&degrees, true)?;
        Ok(Self {
            degrees,
            target_triangles,
            orphan_extension: true,
            max_iteration_factor: 30,
            pi,
        })
    }

    /// π excludes degree-one nodes under the orphan extension (they are
    /// wired afterwards by Algorithm 2); falls back to the full distribution
    /// if that would leave the pool empty.
    fn build_pi(degrees: &[usize], orphan_extension: bool) -> Result<PiSampler> {
        if orphan_extension {
            PiSampler::from_degrees_excluding(degrees, 1)
                .or_else(|_| PiSampler::from_degrees(degrees))
        } else {
            PiSampler::from_degrees(degrees)
        }
    }

    /// Enables or disables the orphan-node extension (enabled by default).
    #[must_use]
    pub fn with_orphan_extension(mut self, enabled: bool) -> Self {
        if self.orphan_extension != enabled {
            self.pi = Self::build_pi(&self.degrees, enabled)
                .expect("a constructed model has a valid degree sequence");
        }
        self.orphan_extension = enabled;
        self
    }

    /// Sets the safety cap on rewiring iterations, expressed as a multiple of
    /// the edge count (default 30). The cap only matters when the requested
    /// triangle count is unreachable for the degree sequence (e.g. a very
    /// noisy DP estimate); generation then stops with the triangles it has.
    #[must_use]
    pub fn with_max_iteration_factor(mut self, factor: usize) -> Self {
        self.max_iteration_factor = factor.max(1);
        self
    }

    /// The desired degree sequence `S`.
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// The target triangle count `n_Δ`.
    #[must_use]
    pub fn target_triangles(&self) -> u64 {
        self.target_triangles
    }

    /// Total number of edges implied by the degree sequence.
    #[must_use]
    pub fn target_edges(&self) -> usize {
        (self.degrees.iter().sum::<usize>() as f64 / 2.0).round() as usize
    }
}

fn pop_oldest_present(ages: &mut VecDeque<Edge>, graph: &AttributedGraph) -> Option<Edge> {
    while let Some(e) = ages.pop_front() {
        if graph.has_edge(e.u, e.v) {
            return Some(e);
        }
        // The edge was removed by post-processing; skip it.
    }
    None
}

impl StructuralModel for TriCycLeModel {
    fn num_nodes(&self) -> usize {
        self.degrees.len()
    }

    /// Phase 1 (the Chung-Lu seed graph, the `O(m)` bulk) runs through the
    /// chunked parallel sampler when the spec carries a policy; phase 2
    /// (triangle-targeted rewiring) is inherently sequential — each accepted
    /// replacement changes the neighbor lists the next proposal samples from
    /// — and always draws from the caller's RNG, so its stream is identical
    /// for every thread count.
    ///
    /// The observer sees the two phases as [`SynthesisStage::EdgeSample`]
    /// (seed graph) and [`SynthesisStage::Rewire`] (triangle rewiring plus
    /// orphan post-processing); no clock is read here.
    fn sample(&self, spec: &SampleSpec<'_>, rng: &mut dyn RngCore) -> Result<Sample> {
        let acceptance = spec.acceptance_for(self.num_nodes())?;
        let observer = spec.observer();
        let m_total = self.target_edges();

        let pi = &self.pi;

        let degree_one = self.degrees.iter().filter(|&&d| d == 1).count();
        let seed_edges = if self.orphan_extension {
            m_total.saturating_sub(degree_one).max(1)
        } else {
            m_total.max(1)
        };

        // Phase 1: Chung-Lu seed graph (with acceptance filtering when given).
        observer.stage_start(SynthesisStage::EdgeSample);
        let (mut graph, order) = sample_cl_graph(
            self.num_nodes(),
            pi,
            seed_edges,
            acceptance,
            spec.policy(),
            rng,
        );
        if self.orphan_extension {
            wire_orphans(&mut graph, &self.degrees, pi, rng);
        }
        observer.stage_end(SynthesisStage::EdgeSample);
        let mut ages: VecDeque<Edge> = order.into();

        // Phase 2: rewire edges until the triangle target is met.
        observer.stage_start(SynthesisStage::Rewire);
        let mut tau = count_triangles(&graph);
        let max_iterations = self
            .max_iteration_factor
            .saturating_mul(m_total)
            .saturating_add(1_000);
        let mut iterations = 0usize;
        while tau < self.target_triangles && iterations < max_iterations {
            iterations += 1;
            let vi = pi.sample(rng);
            let Some(&vk) = sample_uniform(graph.neighbors(vi), rng) else {
                continue;
            };
            let Some(&vj) = sample_uniform(graph.neighbors(vk), rng) else {
                continue;
            };
            if vj == vi || graph.has_edge(vi, vj) {
                continue;
            }
            if let Some(ctx) = acceptance {
                if !ctx.accepts(vi, vj, rng) {
                    continue;
                }
            }
            // Oldest still-present edge to replace.
            let Some(eqr) = pop_oldest_present(&mut ages, &graph) else {
                break;
            };
            let cn_qr = graph.common_neighbor_count(eqr.u, eqr.v) as u64;
            graph
                .remove_edge(eqr.u, eqr.v)
                .expect("edge presence was just checked");
            let cn_ij = graph.common_neighbor_count(vi, vj) as u64;
            if cn_ij >= cn_qr {
                graph.add_edge(vi, vj).expect("non-edge was just checked");
                ages.push_back(Edge::new(vi, vj));
                tau = tau + cn_ij - cn_qr;
            } else {
                // Undo the removal; e_qr becomes the youngest edge so the
                // algorithm cannot get stuck re-proposing it immediately.
                graph.add_edge(eqr.u, eqr.v).expect("edge was just removed");
                ages.push_back(eqr);
            }
        }

        if self.orphan_extension {
            wire_orphans(&mut graph, &self.degrees, pi, rng);
        }
        observer.stage_end(SynthesisStage::Rewire);
        spec.finish(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::{sample_graph, AcceptanceContext};
    use agmdp_graph::clustering::average_local_clustering;
    use agmdp_graph::components::is_connected;
    use agmdp_graph::AttributeSchema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small power-law-ish degree sequence summing to an even total.
    fn test_degrees(n: usize) -> Vec<usize> {
        let mut d: Vec<usize> = (0..n).map(|i| 2 + (n / (4 * (i + 1))).min(12)).collect();
        if d.iter().sum::<usize>() % 2 == 1 {
            d[0] += 1;
        }
        d
    }

    #[test]
    fn construction_validates() {
        assert!(TriCycLeModel::new(vec![], 5).is_err());
        assert!(TriCycLeModel::new(vec![0, 0], 5).is_err());
        let m = TriCycLeModel::new(vec![2, 2, 2], 1).unwrap();
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.target_triangles(), 1);
        assert_eq!(m.target_edges(), 3);
        assert_eq!(m.degrees(), &[2, 2, 2]);
    }

    #[test]
    fn reaches_the_triangle_target_when_feasible() {
        let degrees = test_degrees(150);
        let target = 120u64;
        let model = TriCycLeModel::new(degrees, target)
            .unwrap()
            .with_orphan_extension(false);
        let mut rng = StdRng::seed_from_u64(11);
        let g = sample_graph(&model, &SampleSpec::graph(), &mut rng).unwrap();
        let triangles = count_triangles(&g);
        assert!(
            triangles >= target,
            "generated {triangles} triangles, wanted at least {target}"
        );
        g.check_consistency().unwrap();
    }

    #[test]
    fn produces_more_clustering_than_plain_chung_lu() {
        use crate::chung_lu::ChungLuModel;
        let degrees = test_degrees(200);
        let target = 250u64;
        let mut rng = StdRng::seed_from_u64(12);
        let tri_model = TriCycLeModel::new(degrees.clone(), target).unwrap();
        let tri = sample_graph(&tri_model, &SampleSpec::graph(), &mut rng).unwrap();
        let cl_model = ChungLuModel::new(degrees).unwrap();
        let cl = sample_graph(&cl_model, &SampleSpec::graph(), &mut rng).unwrap();
        assert!(
            count_triangles(&tri) > count_triangles(&cl),
            "TriCycLe should create more triangles than CL"
        );
        assert!(average_local_clustering(&tri) > average_local_clustering(&cl));
    }

    #[test]
    fn edge_count_stays_close_to_target() {
        let degrees = test_degrees(150);
        let m_target: usize = degrees.iter().sum::<usize>() / 2;
        let model = TriCycLeModel::new(degrees, 100).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let g = sample_graph(&model, &SampleSpec::graph(), &mut rng).unwrap();
        let m = g.num_edges() as f64;
        assert!(
            (m - m_target as f64).abs() / m_target as f64 <= 0.15,
            "edge count {m} strays too far from {m_target}"
        );
    }

    #[test]
    fn orphan_extension_yields_connected_graph() {
        let mut degrees = vec![1usize; 120];
        for d in degrees.iter_mut().take(30) {
            *d = 7;
        }
        let model = TriCycLeModel::new(degrees, 60).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let g = sample_graph(&model, &SampleSpec::graph(), &mut rng).unwrap();
        assert!(
            is_connected(&g),
            "orphan extension must produce a connected graph"
        );
    }

    #[test]
    fn unreachable_target_terminates() {
        // Only 4 nodes of degree 1 — one or two edges, no triangles possible,
        // but a huge target: generation must still terminate quickly.
        let model = TriCycLeModel::new(vec![1, 1, 1, 1], 1_000)
            .unwrap()
            .with_orphan_extension(false)
            .with_max_iteration_factor(5);
        let mut rng = StdRng::seed_from_u64(15);
        let g = sample_graph(&model, &SampleSpec::graph(), &mut rng).unwrap();
        assert!(count_triangles(&g) < 1_000);
    }

    #[test]
    fn acceptance_probabilities_shape_edge_configurations() {
        let n = 160;
        let schema = AttributeSchema::new(1);
        let degrees = vec![5usize; n];
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 0)).collect();
        // Forbid mixed (0,1) edges: homophily taken to the extreme.
        let ctx = AcceptanceContext::new(codes, schema, vec![1.0, 0.0, 1.0]).unwrap();
        let model = TriCycLeModel::new(degrees, 200)
            .unwrap()
            .with_orphan_extension(false);
        let mut rng = StdRng::seed_from_u64(16);
        let spec = SampleSpec::graph().with_acceptance(&ctx);
        let g = sample_graph(&model, &spec, &mut rng).unwrap();
        let mixed = g
            .edges()
            .filter(|e| g.attribute_code(e.u) != g.attribute_code(e.v))
            .count();
        assert_eq!(mixed, 0, "acceptance probability 0 must block mixed edges");
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn acceptance_mismatch_is_rejected() {
        let schema = AttributeSchema::new(1);
        let ctx = AcceptanceContext::new(vec![0, 1], schema, vec![1.0; 3]).unwrap();
        let model = TriCycLeModel::new(vec![2, 2, 2], 1).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        assert!(model
            .sample(&SampleSpec::graph().with_acceptance(&ctx), &mut rng)
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let model = TriCycLeModel::new(test_degrees(80), 50).unwrap();
        let g1 =
            sample_graph(&model, &SampleSpec::graph(), &mut StdRng::seed_from_u64(21)).unwrap();
        let g2 =
            sample_graph(&model, &SampleSpec::graph(), &mut StdRng::seed_from_u64(21)).unwrap();
        assert_eq!(g1.edge_vec(), g2.edge_vec());
    }
}
