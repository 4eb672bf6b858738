//! The structural-model abstraction used by AGM / AGM-DP.
//!
//! AGM treats the structural model `M` as a black box that proposes edges;
//! the attribute correlations are injected by accepting or rejecting each
//! proposed edge with a probability that depends only on the edge's attribute
//! configuration (Section 4, footnote 4). [`AcceptanceContext`] carries the
//! per-configuration acceptance probabilities together with the attribute
//! codes that were sampled for the synthetic nodes; [`StructuralModel`] is the
//! trait each generator implements so AGM-DP can swap FCL, TCL or TriCycLe
//! without changing the workflow. Its one operation,
//! [`StructuralModel::sample`], takes a [`SampleSpec`] that carries the
//! choices of the call and returns a [`Sample`].

use rand::Rng;
use rand::RngCore;

use agmdp_graph::{AttributeSchema, AttributedGraph, Edge, NodeId};

use crate::error::ModelError;
use crate::observe::{NoopStageObserver, StageObserver};
use crate::parallel::ExecPolicy;
use crate::Result;

/// Acceptance-probability context for attribute-aware edge generation.
#[derive(Debug, Clone)]
pub struct AcceptanceContext {
    /// Attribute code of every synthetic node (indexed by node id).
    pub attribute_codes: Vec<u32>,
    /// The attribute schema the codes belong to.
    pub schema: AttributeSchema,
    /// Acceptance probability for each edge configuration
    /// (indexed by [`agmdp_graph::attributes::EdgeConfigIndex`]), each in `[0, 1]`.
    pub acceptance: Vec<f64>,
}

impl AcceptanceContext {
    /// Creates a context, validating dimensions and probability ranges.
    pub fn new(
        attribute_codes: Vec<u32>,
        schema: AttributeSchema,
        acceptance: Vec<f64>,
    ) -> Result<Self> {
        if acceptance.len() != schema.num_edge_configs() {
            return Err(ModelError::AcceptanceMismatch(format!(
                "expected {} acceptance probabilities, got {}",
                schema.num_edge_configs(),
                acceptance.len()
            )));
        }
        if acceptance
            .iter()
            .any(|&p| !(0.0..=1.0).contains(&p) || p.is_nan())
        {
            return Err(ModelError::AcceptanceMismatch(
                "acceptance probabilities must lie in [0, 1]".to_string(),
            ));
        }
        for &code in &attribute_codes {
            if schema.validate_code(code).is_err() {
                return Err(ModelError::AcceptanceMismatch(format!(
                    "attribute code {code} out of range for schema width {}",
                    schema.width()
                )));
            }
        }
        Ok(Self {
            attribute_codes,
            schema,
            acceptance,
        })
    }

    /// Acceptance probability of a proposed edge between nodes `u` and `v`.
    #[must_use]
    pub fn probability(&self, u: NodeId, v: NodeId) -> f64 {
        let cu = self.attribute_codes[u as usize];
        let cv = self.attribute_codes[v as usize];
        self.acceptance[self.schema.edge_config(cu, cv)]
    }

    /// Performs the accept/reject coin flip for a proposed edge.
    pub fn accepts<R: Rng + ?Sized>(&self, u: NodeId, v: NodeId, rng: &mut R) -> bool {
        rng.gen::<f64>() <= self.probability(u, v)
    }

    /// Copies the attribute codes onto a generated graph.
    pub fn apply_attributes(&self, graph: &mut AttributedGraph) -> Result<()> {
        graph
            .set_all_attribute_codes(&self.attribute_codes)
            .map_err(|e| ModelError::AcceptanceMismatch(e.to_string()))
    }
}

/// Which form a [`StructuralModel::sample`] call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOutput {
    /// The sampled graph, carrying the acceptance context's attribute codes.
    Graph,
    /// Only the sampled edges, for callers that inspect the edge multiset and
    /// discard the sample: the AGM refinement loop observes Θ_F of each
    /// intermediate graph and never reads its adjacency. A model may skip
    /// materialising the graph.
    EdgeList,
}

/// The choices of one [`StructuralModel::sample`] call: an optional
/// acceptance filter, an optional execution policy, the stage observer and
/// the output kind.
///
/// [`SampleSpec::graph`] starts from the plain form (no acceptance filter,
/// the sequential reference sampler, no observer, a graph); the `with_*`
/// builders change the rest.
#[derive(Clone, Copy)]
pub struct SampleSpec<'a> {
    acceptance: Option<&'a AcceptanceContext>,
    policy: Option<&'a ExecPolicy>,
    observer: &'a dyn StageObserver,
    output: SampleOutput,
}

impl<'a> SampleSpec<'a> {
    /// A plain graph sample: the structural parameters alone, as used for
    /// the temporary edge set `E'` in Algorithm 3.
    #[must_use]
    pub fn graph() -> Self {
        Self {
            acceptance: None,
            policy: None,
            observer: &NoopStageObserver,
            output: SampleOutput::Graph,
        }
    }

    /// Filters every proposed edge by the acceptance probabilities in `ctx`;
    /// a graph sample then carries the context's attribute codes.
    #[must_use]
    pub fn with_acceptance(mut self, ctx: &'a AcceptanceContext) -> Self {
        self.acceptance = Some(ctx);
        self
    }

    /// Samples edges on the chunked, deterministically parallel engine of
    /// [`crate::parallel`] instead of the sequential reference sampler.
    #[must_use]
    pub fn with_policy(mut self, policy: &'a ExecPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Reports stage boundaries to `observer`.
    #[must_use]
    pub fn with_observer(mut self, observer: &'a dyn StageObserver) -> Self {
        self.observer = observer;
        self
    }

    /// Asks for `output` instead of the current output kind.
    #[must_use]
    pub fn with_output(mut self, output: SampleOutput) -> Self {
        self.output = output;
        self
    }

    /// The acceptance context, checked against the model's node count. This
    /// is the only way a model reads the context, so every model rejects a
    /// mismatched one before it draws anything.
    pub fn acceptance_for(&self, num_nodes: usize) -> Result<Option<&'a AcceptanceContext>> {
        match self.acceptance {
            Some(ctx) if ctx.attribute_codes.len() != num_nodes => {
                Err(ModelError::AcceptanceMismatch(format!(
                    "model has {num_nodes} nodes but context has {} attribute codes",
                    ctx.attribute_codes.len()
                )))
            }
            acceptance => Ok(acceptance),
        }
    }

    /// The execution policy; `None` selects the sequential reference sampler.
    #[must_use]
    pub fn policy(&self) -> Option<&'a ExecPolicy> {
        self.policy
    }

    /// The stage observer ([`NoopStageObserver`] unless one was given).
    #[must_use]
    pub fn observer(&self) -> &'a dyn StageObserver {
        self.observer
    }

    /// The requested output kind.
    #[must_use]
    pub fn output(&self) -> SampleOutput {
        self.output
    }

    /// Returns a sampled graph in the requested output kind; a graph sample
    /// gets the acceptance context's attribute codes.
    pub fn finish(&self, mut graph: AttributedGraph) -> Result<Sample> {
        match self.output {
            SampleOutput::Graph => {
                if let Some(ctx) = self.acceptance {
                    ctx.apply_attributes(&mut graph)?;
                }
                Ok(Sample::Graph(graph))
            }
            SampleOutput::EdgeList => Ok(Sample::EdgeList(graph.edge_vec())),
        }
    }
}

/// What a [`StructuralModel::sample`] call returns: the output kind its
/// [`SampleSpec`] asked for.
#[derive(Debug)]
pub enum Sample {
    /// A full graph ([`SampleOutput::Graph`]).
    Graph(AttributedGraph),
    /// The sampled edges only ([`SampleOutput::EdgeList`]).
    EdgeList(Vec<Edge>),
}

impl Sample {
    /// The sampled graph; an error for an edge-list sample, which has none.
    pub fn into_graph(self) -> Result<AttributedGraph> {
        match self {
            Sample::Graph(graph) => Ok(graph),
            Sample::EdgeList(_) => Err(ModelError::InvalidParameter(
                "an edge-list sample carries no graph".to_string(),
            )),
        }
    }
}

/// A generative structural model in the sense of Section 2.2: anything that
/// can produce an edge set over a fixed node set, optionally filtered by AGM
/// acceptance probabilities.
pub trait StructuralModel {
    /// Number of nodes in the graphs this model generates.
    fn num_nodes(&self) -> usize;

    /// Samples one graph, or its edge list, as `spec` asks.
    ///
    /// Every implementation keeps four contracts:
    ///
    /// * **Acceptance.** The context comes from
    ///   [`SampleSpec::acceptance_for`], so a context whose node count does
    ///   not match the model is rejected before any draw.
    /// * **Thread-count invariance.** Under a policy, `policy.threads()`
    ///   changes only how chunks are scheduled, never the output.
    /// * **Stream identity.** An edge-list sample holds the same edge *set*
    ///   as the graph sample at the same RNG state (only the enumeration
    ///   order may differ) and consumes the same RNG stream, so switching a
    ///   call site between the two output kinds never changes downstream
    ///   output.
    /// * **Stages.** The observer sees balanced, non-nested
    ///   [`EdgeSample`](crate::SynthesisStage::EdgeSample) /
    ///   [`Rewire`](crate::SynthesisStage::Rewire) brackets. Observers
    ///   receive *only* callbacks: no implementation may read a clock.
    fn sample(&self, spec: &SampleSpec<'_>, rng: &mut dyn RngCore) -> Result<Sample>;
}

/// Test shorthand: samples `spec` from `model` and unwraps the graph.
#[cfg(test)]
pub(crate) fn sample_graph(
    model: &dyn StructuralModel,
    spec: &SampleSpec<'_>,
    rng: &mut dyn RngCore,
) -> Result<AttributedGraph> {
    model.sample(spec, rng)?.into_graph()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn context_validation() {
        let schema = AttributeSchema::new(1); // 3 edge configs
        assert!(AcceptanceContext::new(vec![0, 1], schema, vec![1.0; 3]).is_ok());
        assert!(AcceptanceContext::new(vec![0, 1], schema, vec![1.0; 2]).is_err());
        assert!(AcceptanceContext::new(vec![0, 1], schema, vec![1.0, 2.0, 0.5]).is_err());
        assert!(AcceptanceContext::new(vec![0, 5], schema, vec![1.0; 3]).is_err());
        assert!(AcceptanceContext::new(vec![0, 1], schema, vec![f64::NAN, 0.5, 0.5]).is_err());
    }

    #[test]
    fn probability_lookup_uses_edge_config() {
        let schema = AttributeSchema::new(1);
        // Edge configs for w=1: (0,0) -> 0, (0,1) -> 1, (1,1) -> 2.
        let ctx = AcceptanceContext::new(vec![0, 1, 1], schema, vec![0.1, 0.5, 0.9]).unwrap();
        assert!((ctx.probability(0, 0) - 0.1).abs() < 1e-12);
        assert!((ctx.probability(0, 1) - 0.5).abs() < 1e-12);
        assert!((ctx.probability(1, 2) - 0.9).abs() < 1e-12);
        assert!((ctx.probability(1, 0) - ctx.probability(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn accepts_respects_extreme_probabilities() {
        let schema = AttributeSchema::new(1);
        let ctx = AcceptanceContext::new(vec![0, 1], schema, vec![0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(ctx.accepts(0, 1, &mut rng)); // config (0,1) has p = 1
            assert!(!ctx.accepts(0, 0, &mut rng)); // config (0,0) has p = 0
        }
    }

    #[test]
    fn apply_attributes_copies_codes() {
        let schema = AttributeSchema::new(2);
        let ctx = AcceptanceContext::new(vec![3, 0, 2], schema, vec![1.0; 10]).unwrap();
        let mut g = AttributedGraph::new(3, schema);
        ctx.apply_attributes(&mut g).unwrap();
        assert_eq!(g.attribute_codes(), &[3, 0, 2]);
        // Wrong node count fails.
        let mut small = AttributedGraph::new(2, schema);
        assert!(ctx.apply_attributes(&mut small).is_err());
    }
}
