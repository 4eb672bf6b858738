//! A fixed reference task, timed beside the jobs, that tracks how fast the
//! host runs graph work at the moment.
//!
//! A shared host's speed drifts: neighbours on the same cores and caches
//! slow memory-bound work by 10–30 % for minutes at a time, far longer than
//! a run. A run's median job time therefore carries the host's state with
//! it. The reference task is graph work of the same kind as a job (a
//! triangle count by sorted-list intersection and degree-proportional edge
//! proposals into a hash set, over the workload's own input) written in the
//! benchmark itself, so no change to the program moves it. Timed between
//! the jobs of a run, its median is the run's host speed, and a job time
//! divided by it is steady from run to run while a change to the program
//! still moves it in full.

use std::cmp::Ordering;
use std::collections::HashSet;

use agmdp_graph::GraphView;

use crate::common::timed;
use crate::report::Report;
use crate::stats::median;

/// The reference task on a workload's input graphs.
#[derive(Debug)]
pub struct Reference {
    /// Forward adjacency (neighbours with a larger id), CSR offsets.
    offsets: Vec<usize>,
    /// Forward adjacency targets, each list sorted.
    targets: Vec<u32>,
    /// Both endpoints of every edge: a uniform pick from it is a
    /// degree-proportional node.
    endpoints: Vec<u32>,
}

impl Reference {
    /// Copies `graphs`, as one disjoint union, into the task's own arrays.
    pub fn new<G: GraphView>(graphs: &[&G]) -> Self {
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        let mut endpoints = Vec::new();
        let mut base = 0u32;
        for g in graphs {
            for v in g.nodes() {
                // Neighbour lists are sorted, so the forward part is too.
                for &u in g.neighbors(v).iter().filter(|&&u| u > v) {
                    targets.push(base + u);
                    endpoints.extend([base + v, base + u]);
                }
                offsets.push(targets.len());
            }
            base += g.num_nodes() as u32;
        }
        Self {
            offsets,
            targets,
            endpoints,
        }
    }

    fn forward(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Triangles of the union, by sorted-list intersection of forward
    /// neighbours.
    fn triangles(&self) -> u64 {
        let mut triangles = 0u64;
        for v in 0..self.offsets.len() as u32 - 1 {
            let nv = self.forward(v);
            for &u in nv {
                let nu = self.forward(u);
                let (mut i, mut j) = (0, 0);
                while i < nv.len() && j < nu.len() {
                    match nv[i].cmp(&nu[j]) {
                        Ordering::Less => i += 1,
                        Ordering::Greater => j += 1,
                        Ordering::Equal => {
                            triangles += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        triangles
    }

    /// Distinct pairs among as many degree-proportional proposals as there
    /// are edges, deduplicated in a hash set.
    fn proposals(&self) -> u64 {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = self.endpoints.len() as u64;
        let mut seen = HashSet::with_capacity(self.targets.len());
        for _ in 0..self.targets.len() {
            let a = self.endpoints[(next() % n) as usize];
            let b = self.endpoints[(next() % n) as usize];
            if a != b {
                seen.insert((u64::from(a.min(b)) << 32) | u64::from(a.max(b)));
            }
        }
        seen.len() as u64
    }

    /// Seconds the task takes now.
    pub fn time(&self) -> f64 {
        let (secs, sum) = timed(|| self.triangles() + self.proposals());
        std::hint::black_box(sum);
        secs
    }

    /// Reports `host.reference_s`, the median of `timings` timings of the
    /// task, for traced runs: it turns their layer seconds into the same
    /// units as the job metrics.
    pub fn report(&self, report: &mut Report, timings: usize) {
        let times: Vec<f64> = (0..timings).map(|_| self.time()).collect();
        report.metric(
            "host.reference_s",
            median(&times),
            "s",
            times.len(),
            "median; the reference task on the workload's inputs",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_graph::{AttributeSchema, AttributedGraph};

    #[test]
    fn counts_the_triangles_of_a_disjoint_union() {
        // K4 has four triangles; two copies have eight.
        let mut g = AttributedGraph::new(4, AttributeSchema::new(1));
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            g.add_edge(u, v).unwrap();
        }
        let reference = Reference::new(&[&g, &g]);
        assert_eq!(reference.triangles(), 8);
        assert!(reference.proposals() >= 1);
        assert!(reference.time() > 0.0);
    }
}
