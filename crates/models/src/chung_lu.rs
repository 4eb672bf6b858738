//! The (Fast) Chung-Lu random graph model.
//!
//! CL generates a graph matching a desired degree sequence in expectation by
//! sampling both endpoints of every edge from the degree-proportional
//! distribution π (Section 3.3). FCL draws each endpoint in constant time
//! from π's Walker alias table ([`crate::pi`]); proposals that would create
//! self-loops or duplicate edges are redrawn, which is the bias-corrected
//! variant (cFCL) behaviour of resampling rather than silently dropping edge
//! slots. TCL and TriCycLe share this CL seed phase (`sample_cl_edges`
//! sequentially, or the chunked parallel engine under a policy).
//!
//! The chunked engine proposes in rounds of fixed-size chunks, each with its
//! own RNG stream. A round runs its chunks in waves and stops after the wave
//! that fills the target, so the chunks whose edges would be discarded never
//! run; a stable radix sort on packed edge keys finds each key's first
//! arrival. The thread count never changes the output.
//!
//! The model optionally applies AGM acceptance probabilities to every proposal
//! (used by AGM-DP-FCL) and optionally excludes degree-one nodes from π and
//! wires them up afterwards with the orphan post-processing of Algorithm 2.

use rand::Rng;
use rand::RngCore;

use agmdp_graph::graph::Edge;
use agmdp_graph::{AttributeSchema, AttributedGraph};

use crate::acceptance::{AcceptanceContext, Sample, SampleOutput, SampleSpec, StructuralModel};
use crate::error::ModelError;
use crate::observe::SynthesisStage;
use crate::parallel::{chunk_rng, run_chunks, BlockRng, ExecPolicy};
use crate::pi::PiSampler;
use crate::postprocess::wire_orphans;
use crate::Result;

/// Attempt multiplier: edge sampling gives up after
/// `MAX_ATTEMPT_FACTOR * target_edges + 1000` proposals, which keeps
/// generation total even when acceptance probabilities are very small.
const MAX_ATTEMPT_FACTOR: usize = 200;

/// Oversampling factor of the chunked sampler: each round proposes twice the
/// missing edge count, so duplicate- and acceptance-rejections rarely force a
/// second round on sparse graphs.
const ROUND_OVERSAMPLE: usize = 2;

/// Samples `target_edges` CL edges over `n` nodes into a fresh graph.
///
/// Returns the graph together with the edges in insertion order (TriCycLe
/// needs the age order for its oldest-edge replacement rule).
pub(crate) fn sample_cl_edges(
    n: usize,
    pi: &PiSampler,
    target_edges: usize,
    schema: AttributeSchema,
    acceptance: Option<&AcceptanceContext>,
    rng: &mut dyn RngCore,
) -> (AttributedGraph, Vec<Edge>) {
    let mut graph = AttributedGraph::new(n, schema);
    let mut order = Vec::with_capacity(target_edges);
    let max_attempts = MAX_ATTEMPT_FACTOR
        .saturating_mul(target_edges)
        .saturating_add(1_000);
    let mut attempts = 0usize;
    while graph.num_edges() < target_edges && attempts < max_attempts {
        attempts += 1;
        let u = pi.sample(rng);
        let v = pi.sample(rng);
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        if let Some(ctx) = acceptance {
            if !ctx.accepts(u, v, rng) {
                continue;
            }
        }
        graph.add_edge(u, v).expect("endpoints validated above");
        order.push(Edge::new(u, v));
    }
    (graph, order)
}

/// The chunked, deterministically parallel form of [`sample_cl_edges`].
///
/// Proposals are generated round by round: every round proposes
/// `ROUND_OVERSAMPLE ×` the missing edge count, split into fixed-size chunks.
/// Each chunk wraps its own [`chunk_rng`] stream in a [`BlockRng`] (ChaCha
/// output pulled in 1 KiB blocks instead of word-at-a-time) and runs three
/// cache-friendly passes over a flat, pre-sized proposal buffer:
///
/// 1. **Propose** — fill the buffer with π-sampled endpoint pairs in one
///    tight loop (the alias table and the RNG block stay hot in cache).
/// 2. **Filter** — drop self-loops and edges accepted in earlier rounds, by
///    binary search over the sorted packed keys of the round-start snapshot
///    (skipped entirely against an empty snapshot, which is every proposal
///    of the first round). No randomness is consumed.
/// 3. **Accept** — flip the AGM acceptance coin for each surviving pair
///    from the same chunk stream.
///
/// Chunks run in waves, in chunk order, and the survivors of each wave are
/// merged serially: a candidate is kept if it is the first arrival of its
/// key in the round, until the target is reached. The round stops after the
/// wave that fills the target, so chunks whose edges would be thrown away
/// never run (see [`sample_cl_edge_list_chunked`]).
///
/// The chunk layout, per-chunk draw sequence and merge order depend only on
/// the target and the master seed drawn from `rng`, so the output is
/// **bit-identical for every thread count** — including `threads = 1`,
/// which runs the same chunk sequence inline. (The stream differs from the
/// serial [`sample_cl_edges`], which redraws rejected proposals from a
/// single sequential RNG — and the per-draw sequence itself is pinned by
/// the goldens; see `docs/ARCHITECTURE.md`.)
fn sample_cl_edges_chunked(
    n: usize,
    pi: &PiSampler,
    target_edges: usize,
    schema: AttributeSchema,
    acceptance: Option<&AcceptanceContext>,
    policy: &ExecPolicy,
    rng: &mut dyn RngCore,
) -> (AttributedGraph, Vec<Edge>) {
    let order = sample_cl_edge_list_chunked(pi, target_edges, acceptance, policy, rng);
    let graph = AttributedGraph::from_unique_edges(n, schema, &order)
        .expect("sampled edges are deduplicated, in range and loop-free");
    (graph, order)
}

/// The Chung-Lu seed phase every model starts from: `target_edges` CL edges
/// over `n` nodes, drawn by the chunked engine under a `policy` and by the
/// sequential reference sampler [`sample_cl_edges`] otherwise. The graph
/// takes the acceptance context's schema; [`SampleSpec::finish`] stamps the
/// codes.
pub(crate) fn sample_cl_graph(
    n: usize,
    pi: &PiSampler,
    target_edges: usize,
    acceptance: Option<&AcceptanceContext>,
    policy: Option<&ExecPolicy>,
    rng: &mut dyn RngCore,
) -> (AttributedGraph, Vec<Edge>) {
    let schema = acceptance.map_or(AttributeSchema::new(0), |c| c.schema);
    match policy {
        Some(policy) => {
            sample_cl_edges_chunked(n, pi, target_edges, schema, acceptance, policy, rng)
        }
        None => sample_cl_edges(n, pi, target_edges, schema, acceptance, rng),
    }
}

/// The sampling core of [`sample_cl_edges_chunked`], stopping at the
/// deduplicated edge list: the adjacency structure is never materialised.
/// Callers that only need the edge multiset (the AGM refinement loop
/// observes Θ_F of intermediate samples and discards them) use this to skip
/// the `O(n + m)` graph build.
///
/// A round's chunk layout is fixed before any chunk runs; what is lazy is
/// how many of its chunks run. Waves of consecutive chunks run until the
/// target is full: the first wave is sized as if every proposal survives,
/// later ones from the round's survival rate so far, and every wave has at
/// least `threads` chunks. This is exact, not an approximation: a chunk's
/// survivors are a pure function of (master seed, chunk index, round-start
/// snapshot), and the serial merge never reads past the chunk that fills
/// the target. Keys kept by earlier waves of the same round are therefore
/// dropped in the merge, never inside a chunk — filtering them there would
/// skip their acceptance coins and shift the chunk's stream.
///
/// Each wave finds first arrivals with one stable radix sort of its
/// (edge, arrival index) pairs on the packed key: the head of every
/// equal-key run is the key's first arrival, and the heads come out in key
/// order, ready to merge into the sorted key set. The round that fills the
/// target skips that merge.
fn sample_cl_edge_list_chunked(
    pi: &PiSampler,
    target_edges: usize,
    acceptance: Option<&AcceptanceContext>,
    policy: &ExecPolicy,
    rng: &mut dyn RngCore,
) -> Vec<Edge> {
    let master = rng.next_u64();
    let mut order: Vec<Edge> = Vec::with_capacity(target_edges);
    // Sorted packed keys of every kept edge. During a round, `[..split]` is
    // the round-start snapshot the chunk filter binary-searches, and
    // `[split..]` is a second sorted run holding the keys kept by the
    // round's earlier waves. The graph itself is only materialised once,
    // after sampling finishes.
    let mut accepted_keys: Vec<u64> = Vec::with_capacity(target_edges);
    let max_attempts = MAX_ATTEMPT_FACTOR
        .saturating_mul(target_edges)
        .saturating_add(1_000);
    let mut attempts = 0usize;
    let mut next_chunk = 0u64;
    let chunk_size = policy.chunk_size();
    // Wave-scratch buffers, allocated once and reused: dense workloads
    // converge through a geometric tail of tiny rounds, and per-wave
    // allocations would dominate those rounds' real work.
    let mut by_key: Vec<(Edge, u32)> = Vec::new();
    let mut sort_scratch: Vec<(Edge, u32)> = Vec::new();
    let mut first_arrival: Vec<bool> = Vec::new();
    while order.len() < target_edges && attempts < max_attempts {
        let missing = target_edges - order.len();
        let proposals = missing
            .saturating_mul(ROUND_OVERSAMPLE)
            .min(max_attempts - attempts)
            .max(1);
        let num_chunks = proposals.div_ceil(chunk_size);
        let round_base = next_chunk;
        let round_start = order.len();
        let split = accepted_keys.len();
        let mut chunks_run = 0usize;
        while chunks_run < num_chunks && order.len() < target_edges {
            let wave = wave_chunks(
                target_edges - order.len(),
                (chunks_run * chunk_size).min(proposals),
                order.len() - round_start,
                chunk_size,
                policy.threads(),
                num_chunks - chunks_run,
            );
            let snapshot = &accepted_keys[..split];
            let batches = run_chunks(policy.threads(), wave, |i| {
                let chunk = chunks_run + i;
                let mut chunk_rng = BlockRng::new(chunk_rng(master, round_base + chunk as u64));
                let count = if chunk + 1 == num_chunks {
                    proposals - chunk * chunk_size
                } else {
                    chunk_size
                };
                // Pass 1: flat proposal buffer, sized once.
                let mut survivors: Vec<Edge> = Vec::with_capacity(count);
                for _ in 0..count {
                    let u = pi.sample(&mut chunk_rng);
                    let v = pi.sample(&mut chunk_rng);
                    survivors.push(Edge::new(u, v));
                }
                // Pass 2: structural filter (consumes no randomness; the
                // empty-snapshot skip therefore cannot change the stream).
                if snapshot.is_empty() {
                    survivors.retain(|e| e.u != e.v);
                } else {
                    survivors
                        .retain(|e| e.u != e.v && snapshot.binary_search(&edge_key(e)).is_err());
                }
                // Pass 3: acceptance coins, drawn from the same chunk stream.
                if let Some(ctx) = acceptance {
                    survivors.retain(|e| ctx.accepts(e.u, e.v, &mut chunk_rng));
                }
                survivors
            });
            chunks_run += wave;
            let candidates = || batches.iter().flatten();
            by_key.clear();
            by_key.reserve(batches.iter().map(Vec::len).sum());
            by_key.extend(candidates().zip(0..).map(|(e, i)| (*e, i)));
            radix_sort_by_key(&mut by_key, &mut sort_scratch, |(e, _)| edge_key(e));
            // Run heads are first arrivals within the wave; a walk along the
            // round's sorted earlier-wave keys drops those already kept.
            first_arrival.clear();
            first_arrival.resize(by_key.len(), false);
            let earlier = &accepted_keys[split..];
            let mut next_earlier = 0;
            let mut prev_key = None;
            for (e, idx) in &by_key {
                let key = edge_key(e);
                if prev_key == Some(key) {
                    continue;
                }
                prev_key = Some(key);
                while next_earlier < earlier.len() && earlier[next_earlier] < key {
                    next_earlier += 1;
                }
                first_arrival[*idx as usize] = earlier.get(next_earlier) != Some(&key);
            }
            for (e, &first) in candidates().zip(&first_arrival) {
                if order.len() >= target_edges {
                    break;
                }
                if first {
                    order.push(*e);
                }
            }
            // Every first arrival was kept unless the target is now full, in
            // which case no later wave or round reads the key set again.
            // `by_key` lists them in key order, so they form a sorted run.
            if order.len() < target_edges {
                let tail = accepted_keys.len() - split;
                accepted_keys.extend(
                    by_key
                        .iter()
                        .filter(|(_, idx)| first_arrival[*idx as usize])
                        .map(|(e, _)| edge_key(e)),
                );
                merge_sorted_tail(&mut accepted_keys[split..], tail);
            }
        }
        next_chunk += num_chunks as u64;
        attempts += proposals;
        if order.len() < target_edges {
            merge_sorted_tail(&mut accepted_keys, split);
        }
    }
    order
}

/// Number of chunks in a round's next wave: enough to fill the `missing`
/// edges if proposals keep surviving at the round's rate so far (`kept` of
/// `proposed`; every proposal survives before the first wave, and a round
/// that has kept nothing yet counts as one kept), but never fewer than
/// `threads` and never past the round's last chunk.
fn wave_chunks(
    missing: usize,
    proposed: usize,
    kept: usize,
    chunk_size: usize,
    threads: usize,
    remaining: usize,
) -> usize {
    let needed = if proposed == 0 {
        missing
    } else {
        missing.saturating_mul(proposed).div_ceil(kept.max(1))
    };
    needed.div_ceil(chunk_size).max(threads).min(remaining)
}

/// Bits per radix digit: 256 counters per digit stay resident in L1.
const RADIX_BITS: u32 = 8;
/// Digits per `u64` key.
const RADIX_DIGITS: usize = (u64::BITS / RADIX_BITS) as usize;
/// Buckets per digit.
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;

/// Sorts `items` ascending by `key` with a stable LSD radix sort, so items
/// with equal keys keep their input order.
///
/// One counting pass builds every digit's histogram, and a digit on which
/// all keys agree needs no scatter pass: only the digits in use are sorted
/// (edge keys over `n` nodes carry about `2·log₂ n` varying bits).
/// `scratch` is working space, reused across calls.
fn radix_sort_by_key<T: Copy>(items: &mut Vec<T>, scratch: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let len = items.len();
    let digit = |k: u64, d: usize| (k >> (d as u32 * RADIX_BITS)) as usize & (RADIX_BUCKETS - 1);
    let Some(&fill) = items.first() else {
        return;
    };
    scratch.clear();
    scratch.resize(len, fill);
    let mut counts = [[0usize; RADIX_BUCKETS]; RADIX_DIGITS];
    for item in items.iter() {
        let k = key(item);
        for (d, hist) in counts.iter_mut().enumerate() {
            hist[digit(k, d)] += 1;
        }
    }
    for (d, hist) in counts.iter_mut().enumerate() {
        // Also true for every digit of a one-item input.
        if hist.contains(&len) {
            continue;
        }
        let mut offset = 0;
        for slot in hist.iter_mut() {
            let count = *slot;
            *slot = offset;
            offset += count;
        }
        for item in items.iter() {
            let bucket = &mut hist[digit(key(item), d)];
            scratch[*bucket] = *item;
            *bucket += 1;
        }
        std::mem::swap(items, scratch);
    }
}

/// Merges a sorted `keys[..split]` prefix with a sorted `keys[split..]` tail
/// in place (backward two-pointer merge; only elements larger than the
/// tail's minimum move). The two runs are disjoint by construction here, but
/// the merge is correct for any sorted runs.
fn merge_sorted_tail(keys: &mut [u64], split: usize) {
    if split == 0 || split == keys.len() || keys[split - 1] <= keys[split] {
        return;
    }
    let tail: Vec<u64> = keys[split..].to_vec();
    let mut i = split; // unmerged prefix length
    let mut j = tail.len(); // unmerged tail length
    let mut k = keys.len();
    while j > 0 {
        if i > 0 && keys[i - 1] > tail[j - 1] {
            keys[k - 1] = keys[i - 1];
            i -= 1;
        } else {
            keys[k - 1] = tail[j - 1];
            j -= 1;
        }
        k -= 1;
    }
}

/// Canonical `u < v` edge packed into one comparable word.
#[inline]
fn edge_key(e: &Edge) -> u64 {
    (u64::from(e.u) << 32) | u64::from(e.v)
}

/// The Chung-Lu / FCL structural model.
///
/// ```
/// use agmdp_models::{ChungLuModel, ExecPolicy, Sample, SampleSpec, StructuralModel};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let model = ChungLuModel::new(vec![3; 40]).unwrap();
/// // The chunked engine's contract: the thread count never changes the
/// // output, only how chunks are scheduled.
/// let sample = |threads: usize| {
///     let policy = ExecPolicy::new(threads);
///     model
///         .sample(&SampleSpec::graph().with_policy(&policy), &mut StdRng::seed_from_u64(7))
///         .and_then(Sample::into_graph)
///         .unwrap()
/// };
/// let (serial, parallel) = (sample(1), sample(4));
/// assert_eq!(serial.edge_vec(), parallel.edge_vec());
/// assert_eq!(serial.num_edges(), model.target_edges());
/// ```
#[derive(Debug, Clone)]
pub struct ChungLuModel {
    degrees: Vec<usize>,
    /// The π alias table, built once at construction and shared by every
    /// sample call (the AGM workflow samples from the same model four
    /// times per synthesis: the temporary edge set plus each refinement).
    pi: PiSampler,
    target_edges: usize,
    postprocess_orphans: bool,
}

impl ChungLuModel {
    /// Creates a model from the desired degree sequence (`degrees[i]` is the
    /// desired degree of node `i`). The target edge count is
    /// `round(Σ d_i / 2)`.
    pub fn new(degrees: Vec<usize>) -> Result<Self> {
        let total: usize = degrees.iter().sum();
        if degrees.is_empty() || total == 0 {
            return Err(ModelError::InvalidDegreeSequence(
                "degree sequence must contain a positive degree".to_string(),
            ));
        }
        let target_edges = (total as f64 / 2.0).round() as usize;
        let pi = PiSampler::from_degrees(&degrees)?;
        Ok(Self {
            degrees,
            pi,
            target_edges,
            postprocess_orphans: false,
        })
    }

    /// Enables the orphan-node post-processing extension (Algorithm 2): the
    /// generated graph is rewired so every node joins the main connected
    /// component while respecting desired degrees as far as possible.
    #[must_use]
    pub fn with_orphan_postprocessing(mut self, enabled: bool) -> Self {
        self.postprocess_orphans = enabled;
        self
    }

    /// The desired degree sequence.
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// The number of edges the model aims to generate.
    #[must_use]
    pub fn target_edges(&self) -> usize {
        self.target_edges
    }
}

impl StructuralModel for ChungLuModel {
    fn num_nodes(&self) -> usize {
        self.degrees.len()
    }

    /// The observer sees CL sampling as [`SynthesisStage::EdgeSample`] and
    /// the optional orphan post-process (Algorithm 2) as
    /// [`SynthesisStage::Rewire`]; no clock is read here.
    fn sample(&self, spec: &SampleSpec<'_>, rng: &mut dyn RngCore) -> Result<Sample> {
        let acceptance = spec.acceptance_for(self.num_nodes())?;
        let observer = spec.observer();
        observer.stage_start(SynthesisStage::EdgeSample);
        // Only the chunked sampler can stop at the edge list. Algorithm 2
        // rewires *through* the graph (drawing from the same RNG), so with
        // orphans enabled every output kind takes the graph path.
        if let (SampleOutput::EdgeList, Some(policy), false) =
            (spec.output(), spec.policy(), self.postprocess_orphans)
        {
            let edges =
                sample_cl_edge_list_chunked(&self.pi, self.target_edges, acceptance, policy, rng);
            observer.stage_end(SynthesisStage::EdgeSample);
            return Ok(Sample::EdgeList(edges));
        }
        let (mut graph, _order) = sample_cl_graph(
            self.num_nodes(),
            &self.pi,
            self.target_edges,
            acceptance,
            spec.policy(),
            rng,
        );
        observer.stage_end(SynthesisStage::EdgeSample);
        if self.postprocess_orphans {
            observer.stage_start(SynthesisStage::Rewire);
            wire_orphans(&mut graph, &self.degrees, &self.pi, rng);
            observer.stage_end(SynthesisStage::Rewire);
        }
        spec.finish(graph)
    }
}

/// Convenience: draws a uniformly random element of `slice`.
pub(crate) fn sample_uniform<'a, T, R: Rng + ?Sized>(slice: &'a [T], rng: &mut R) -> Option<&'a T> {
    if slice.is_empty() {
        None
    } else {
        Some(&slice[rng.gen_range(0..slice.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::sample_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn power_lawish_degrees(n: usize) -> Vec<usize> {
        (0..n).map(|i| 1 + (n / (i + 1)).min(20)).collect()
    }

    #[test]
    fn construction_validates_degrees() {
        assert!(ChungLuModel::new(vec![]).is_err());
        assert!(ChungLuModel::new(vec![0, 0]).is_err());
        let m = ChungLuModel::new(vec![2, 2, 2]).unwrap();
        assert_eq!(m.target_edges(), 3);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.degrees(), &[2, 2, 2]);
    }

    #[test]
    fn generates_requested_edge_count() {
        let degrees = power_lawish_degrees(300);
        let model = ChungLuModel::new(degrees.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let g = sample_graph(&model, &SampleSpec::graph(), &mut rng).unwrap();
        assert_eq!(g.num_nodes(), 300);
        assert_eq!(g.num_edges(), model.target_edges());
        g.check_consistency().unwrap();
    }

    #[test]
    fn expected_degrees_are_roughly_preserved() {
        // High-degree nodes should end up with much larger degree than
        // low-degree nodes; check rank correlation loosely.
        let mut degrees = vec![1usize; 200];
        degrees[0] = 60;
        degrees[1] = 40;
        let model = ChungLuModel::new(degrees).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut d0 = 0usize;
        let mut d_rest = 0usize;
        for _ in 0..20 {
            let g = sample_graph(&model, &SampleSpec::graph(), &mut rng).unwrap();
            d0 += g.degree(0);
            d_rest += g.degree(100);
        }
        assert!(
            d0 > 10 * d_rest.max(1),
            "hub degree {d0} vs leaf degree {d_rest}"
        );
    }

    #[test]
    fn acceptance_zero_for_config_blocks_those_edges() {
        let schema = AttributeSchema::new(1);
        let n = 120;
        let degrees = vec![4usize; n];
        // Half the nodes have attribute 0, half 1; forbid 0-0 edges entirely.
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 1)).collect();
        // configs: (0,0)=0, (0,1)=1, (1,1)=2
        let ctx = AcceptanceContext::new(codes, schema, vec![0.0, 1.0, 1.0]).unwrap();
        let model = ChungLuModel::new(degrees).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let g = sample_graph(&model, &SampleSpec::graph().with_acceptance(&ctx), &mut rng).unwrap();
        for e in g.edges() {
            let cfg = g.edge_config(e.u, e.v);
            assert_ne!(cfg, 0, "edge {e:?} has forbidden configuration 0-0");
        }
        // Attributes must be applied to the output graph.
        assert_eq!(g.attribute_code(1), 1);
        assert_eq!(g.attribute_code(0), 0);
    }

    #[test]
    fn acceptance_context_size_mismatch_is_rejected() {
        let schema = AttributeSchema::new(1);
        let ctx = AcceptanceContext::new(vec![0, 1], schema, vec![1.0; 3]).unwrap();
        let model = ChungLuModel::new(vec![2, 2, 2]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(
            sample_graph(&model, &SampleSpec::graph().with_acceptance(&ctx), &mut rng).is_err()
        );
    }

    #[test]
    fn orphan_postprocessing_connects_the_graph() {
        // Many degree-one nodes: plain CL would orphan a good fraction of them.
        let mut degrees = vec![1usize; 150];
        for d in degrees.iter_mut().take(30) {
            *d = 8;
        }
        let model = ChungLuModel::new(degrees)
            .unwrap()
            .with_orphan_postprocessing(true);
        let mut rng = StdRng::seed_from_u64(5);
        let g = sample_graph(&model, &SampleSpec::graph(), &mut rng).unwrap();
        assert!(
            agmdp_graph::components::is_connected(&g),
            "post-processed graph must be connected"
        );
        g.check_consistency().unwrap();
    }

    #[test]
    fn sample_uniform_helper() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(sample_uniform::<u32, _>(&[], &mut rng).is_none());
        let v = [10, 20, 30];
        for _ in 0..50 {
            assert!(v.contains(sample_uniform(&v, &mut rng).unwrap()));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let model = ChungLuModel::new(power_lawish_degrees(100)).unwrap();
        let g1 = sample_graph(&model, &SampleSpec::graph(), &mut StdRng::seed_from_u64(9)).unwrap();
        let g2 = sample_graph(&model, &SampleSpec::graph(), &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(g1.edge_vec(), g2.edge_vec());
    }

    #[test]
    fn chunked_sampler_is_thread_count_invariant() {
        // Small chunks force many chunks per round, so work stealing really
        // interleaves; the merged output must not care.
        let model = ChungLuModel::new(power_lawish_degrees(400)).unwrap();
        let generate = |threads: usize| {
            let policy = ExecPolicy::new(threads).with_chunk_size(64);
            let spec = SampleSpec::graph().with_policy(&policy);
            sample_graph(&model, &spec, &mut StdRng::seed_from_u64(11)).unwrap()
        };
        let serial = generate(1);
        assert_eq!(serial.num_edges(), model.target_edges());
        serial.check_consistency().unwrap();
        for threads in [2, 4, 8] {
            let parallel = generate(threads);
            assert_eq!(parallel.edge_vec(), serial.edge_vec());
            assert_eq!(parallel.attribute_codes(), serial.attribute_codes());
        }
    }

    #[test]
    fn chunked_sampler_respects_acceptance_across_threads() {
        let schema = AttributeSchema::new(1);
        let n = 200;
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 1)).collect();
        let ctx = AcceptanceContext::new(codes, schema, vec![0.0, 1.0, 1.0]).unwrap();
        let model = ChungLuModel::new(vec![4usize; n]).unwrap();
        let generate = |threads: usize| {
            let policy = ExecPolicy::new(threads).with_chunk_size(128);
            let spec = SampleSpec::graph()
                .with_acceptance(&ctx)
                .with_policy(&policy);
            sample_graph(&model, &spec, &mut StdRng::seed_from_u64(12)).unwrap()
        };
        let serial = generate(1);
        for e in serial.edges() {
            assert_ne!(serial.edge_config(e.u, e.v), 0);
        }
        assert_eq!(generate(8).edge_vec(), serial.edge_vec());
        // Mismatched contexts are rejected on the parallel path too.
        let bad = AcceptanceContext::new(vec![0, 1], schema, vec![1.0; 3]).unwrap();
        let serial_policy = ExecPolicy::serial();
        let spec = SampleSpec::graph()
            .with_acceptance(&bad)
            .with_policy(&serial_policy);
        assert!(model.sample(&spec, &mut StdRng::seed_from_u64(1)).is_err());
    }

    #[test]
    fn chunked_sampler_terminates_on_impossible_targets() {
        // Acceptance probability 0 everywhere: no proposal ever survives, so
        // the sampler must stop at its attempt cap instead of spinning.
        let schema = AttributeSchema::new(1);
        let n = 40;
        let codes: Vec<u32> = (0..n as u32).map(|i| u32::from(i % 2 == 1)).collect();
        let ctx = AcceptanceContext::new(codes, schema, vec![0.0, 0.0, 0.0]).unwrap();
        let model = ChungLuModel::new(vec![3usize; n]).unwrap();
        let policy = ExecPolicy::new(2).with_chunk_size(32);
        let spec = SampleSpec::graph()
            .with_acceptance(&ctx)
            .with_policy(&policy);
        let g = sample_graph(&model, &spec, &mut StdRng::seed_from_u64(13)).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    /// The eager round the wave sampler replaced, kept verbatim as its
    /// oracle: every chunk of a round runs, and first arrivals are found
    /// with a comparison sort over (key, arrival index).
    fn eager_edge_list(
        pi: &PiSampler,
        target_edges: usize,
        acceptance: Option<&AcceptanceContext>,
        policy: &ExecPolicy,
        rng: &mut dyn RngCore,
    ) -> Vec<Edge> {
        let master = rng.next_u64();
        let mut order: Vec<Edge> = Vec::with_capacity(target_edges);
        // Canonical packed keys of every accepted edge, kept sorted between
        // rounds: later rounds' structural filter binary-searches this flat
        // array instead of walking per-node adjacency lists, and the graph
        // itself is only materialised once, after sampling finishes.
        let mut accepted_keys: Vec<u64> = Vec::with_capacity(target_edges);
        let max_attempts = MAX_ATTEMPT_FACTOR
            .saturating_mul(target_edges)
            .saturating_add(1_000);
        let mut attempts = 0usize;
        let mut next_chunk = 0u64;
        // Round-scratch buffers, allocated once and reused: dense workloads
        // converge through a geometric tail of tiny rounds, and per-round
        // allocations would dominate those rounds' real work.
        let mut candidates: Vec<Edge> = Vec::new();
        let mut by_key: Vec<(u64, u32)> = Vec::new();
        let mut first_arrival: Vec<bool> = Vec::new();
        while order.len() < target_edges && attempts < max_attempts {
            let missing = target_edges - order.len();
            let proposals = missing
                .saturating_mul(ROUND_OVERSAMPLE)
                .min(max_attempts - attempts)
                .max(1);
            let chunk_size = policy.chunk_size();
            let num_chunks = proposals.div_ceil(chunk_size);
            let snapshot = &accepted_keys;
            let round_base = next_chunk;
            let batches = run_chunks(policy.threads(), num_chunks, |chunk| {
                let mut chunk_rng = BlockRng::new(chunk_rng(master, round_base + chunk as u64));
                let count = if chunk + 1 == num_chunks {
                    proposals - chunk * chunk_size
                } else {
                    chunk_size
                };
                // Pass 1: flat proposal buffer, sized once.
                let mut survivors: Vec<Edge> = Vec::with_capacity(count);
                for _ in 0..count {
                    let u = pi.sample(&mut chunk_rng);
                    let v = pi.sample(&mut chunk_rng);
                    survivors.push(Edge::new(u, v));
                }
                // Pass 2: structural filter (consumes no randomness; the
                // empty-snapshot skip therefore cannot change the stream).
                if snapshot.is_empty() {
                    survivors.retain(|e| e.u != e.v);
                } else {
                    survivors
                        .retain(|e| e.u != e.v && snapshot.binary_search(&edge_key(e)).is_err());
                }
                // Pass 3: acceptance coins, drawn from the same chunk stream.
                if let Some(ctx) = acceptance {
                    survivors.retain(|e| ctx.accepts(e.u, e.v, &mut chunk_rng));
                }
                survivors
            });
            next_chunk += num_chunks as u64;
            attempts += proposals;
            // Serial merge in chunk order. Intra-round duplicates were invisible
            // to the snapshot filter; a sort over (key, arrival index) finds each
            // key's first arrival, which replicates one-at-a-time insertion
            // exactly — same edges kept, in the same order — without paying a
            // per-edge adjacency insertion.
            candidates.clear();
            candidates.extend(batches.into_iter().flatten());
            by_key.clear();
            by_key.extend(
                candidates
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (edge_key(e), i as u32)),
            );
            by_key.sort_unstable();
            first_arrival.clear();
            first_arrival.resize(candidates.len(), false);
            let mut prev_key = None;
            for &(key, idx) in &by_key {
                if prev_key != Some(key) {
                    prev_key = Some(key);
                    first_arrival[idx as usize] = true;
                }
            }
            let split = accepted_keys.len();
            for (i, e) in candidates.iter().enumerate() {
                if order.len() >= target_edges {
                    break;
                }
                if first_arrival[i] {
                    accepted_keys.push(edge_key(e));
                    order.push(*e);
                }
            }
            // This round's keys form a small unsorted tail behind an already
            // sorted prefix: sort the tail and merge in place instead of
            // re-sorting the whole array every round.
            accepted_keys[split..].sort_unstable();
            merge_sorted_tail(&mut accepted_keys, split);
        }
        order
    }

    /// A small degree sequence over `n` nodes, dense enough that targets
    /// near `n²/4` force duplicate rejections and extra rounds.
    fn dense_degrees(n: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(1..=n)).collect()
    }

    /// The acceptance tables of the equivalence test: none, all-1, mixed,
    /// all-0 (every round ends at the attempt cap) and very low (many
    /// waves and rounds).
    fn acceptance_table(kind: u8, n: usize, mixed: [f64; 3]) -> Option<AcceptanceContext> {
        let table = match kind {
            0 => return None,
            1 => [1.0; 3],
            2 => mixed,
            3 => [0.0; 3],
            _ => [0.03, 0.01, 0.05],
        };
        let codes = (0..n as u32).map(|i| u32::from(i % 3 == 1)).collect();
        Some(AcceptanceContext::new(codes, AttributeSchema::new(1), table.to_vec()).unwrap())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The wave sampler releases the eager oracle's edge list, in the
        /// same order, at every chunk size and thread count, and leaves the
        /// caller's RNG at the same position.
        #[test]
        fn wave_sampler_matches_eager_oracle(
            n in 2usize..16,
            degree_seed in 0u64..u64::MAX,
            seed in 0u64..u64::MAX,
            target_kind in 0u8..4,
            acceptance_kind in 0u8..5,
            chunk_kind in 0usize..4,
            mixed in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        ) {
            let degrees = dense_degrees(n, degree_seed);
            let pi = PiSampler::from_degrees(&degrees).unwrap();
            let target = match target_kind {
                0 => 0,
                1 => 1,
                2 => n * n / 4 + n % 3,
                _ => degrees.iter().sum::<usize>() / 2,
            };
            let ctx = acceptance_table(acceptance_kind, n, [mixed.0, mixed.1, mixed.2]);
            let chunk_size = [1, 3, 64, ExecPolicy::DEFAULT_CHUNK_SIZE][chunk_kind];
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            let expected = eager_edge_list(
                &pi,
                target,
                ctx.as_ref(),
                &ExecPolicy::serial().with_chunk_size(chunk_size),
                &mut oracle_rng,
            );
            let expected_next = oracle_rng.next_u64();
            for threads in [1, 2, 4] {
                let policy = ExecPolicy::new(threads).with_chunk_size(chunk_size);
                let mut rng = StdRng::seed_from_u64(seed);
                let edges = sample_cl_edge_list_chunked(&pi, target, ctx.as_ref(), &policy, &mut rng);
                proptest::prop_assert_eq!(&edges, &expected);
                proptest::prop_assert_eq!(rng.next_u64(), expected_next);
            }
        }

        /// The radix sort agrees with the standard library's stable sort on
        /// random keys, including keys with many duplicates.
        #[test]
        fn radix_sort_matches_stable_sort(
            keys in proptest::collection::vec(0u64..u64::MAX, 0..600),
            few_distinct in 0u8..2,
        ) {
            let keys: Vec<u64> = if few_distinct == 1 {
                keys.iter().map(|k| (k % 5) << (k % 64)).collect()
            } else {
                keys
            };
            assert_radix_sort_is_stable_sort(&keys);
        }
    }

    #[test]
    fn wave_sampler_matches_eager_oracle_on_sparse_graphs() {
        // Hundreds of chunks per round: waves of many chunks, a partly run
        // last wave, and a round that stops well before its last chunk.
        let pi = PiSampler::from_degrees(&power_lawish_degrees(3_000)).unwrap();
        let mixed = acceptance_table(2, 3_000, [0.2, 0.9, 0.6]);
        for (ctx, target) in [(None, 4_000), (mixed.as_ref(), 3_000)] {
            for chunk_size in [64, 1_000] {
                let eager = eager_edge_list(
                    &pi,
                    target,
                    ctx,
                    &ExecPolicy::serial().with_chunk_size(chunk_size),
                    &mut StdRng::seed_from_u64(15),
                );
                assert_eq!(eager.len(), target);
                for threads in [1, 2, 4] {
                    let policy = ExecPolicy::new(threads).with_chunk_size(chunk_size);
                    let mut rng = StdRng::seed_from_u64(15);
                    let waves = sample_cl_edge_list_chunked(&pi, target, ctx, &policy, &mut rng);
                    assert_eq!(waves, eager, "chunk size {chunk_size}, {threads} threads");
                }
            }
        }
    }

    /// Sorts `(key, input position)` pairs both ways and compares them.
    fn assert_radix_sort_is_stable_sort(keys: &[u64]) {
        let mut items: Vec<(u64, u32)> = keys.iter().zip(0..).map(|(&k, i)| (k, i)).collect();
        let mut expected = items.clone();
        expected.sort_by_key(|&(key, _)| key);
        radix_sort_by_key(&mut items, &mut Vec::new(), |&(key, _)| key);
        assert_eq!(items, expected);
    }

    #[test]
    fn radix_sort_uses_all_64_bits_of_edge_keys() {
        // Node ids near u32::MAX put varying digits in both key halves.
        let mut rng = StdRng::seed_from_u64(14);
        let keys: Vec<u64> = (0..2_000)
            .map(|_| {
                let u = u32::MAX - rng.gen_range(0..300);
                let v = rng.gen_range(0..u32::MAX);
                edge_key(&Edge::new(u, v))
            })
            .collect();
        assert!(keys.iter().any(|&k| k >> 56 == 0xFF));
        assert_radix_sort_is_stable_sort(&keys);
    }

    #[test]
    fn radix_sort_edge_cases() {
        assert_radix_sort_is_stable_sort(&[]);
        assert_radix_sort_is_stable_sort(&[u64::MAX]);
        // All-equal keys: every digit is skipped, arrival order is kept.
        let mut items: Vec<(u64, u32)> = (0..100).map(|i| (0xDEAD_BEEF, i)).collect();
        radix_sort_by_key(&mut items, &mut Vec::new(), |&(key, _)| key);
        assert!(items.iter().map(|&(_, i)| i).eq(0..100));
        // A reused scratch buffer with stale contents does not leak into
        // the next sort.
        let mut scratch = vec![(7, 7); 3];
        let mut items = vec![(3u64, 0u32), (1, 1), (3, 2), (u64::MAX, 3), (0, 4)];
        radix_sort_by_key(&mut items, &mut scratch, |&(key, _)| key);
        assert_eq!(items, [(0, 4), (1, 1), (3, 0), (3, 2), (u64::MAX, 3)]);
    }

    #[test]
    fn wave_sizes_follow_the_survival_rate() {
        // Before any chunk runs, every proposal is assumed to survive.
        assert_eq!(wave_chunks(1_000, 0, 0, 100, 1, 50), 10);
        // Half of the proposals survived: twice the chunks.
        assert_eq!(wave_chunks(1_000, 400, 200, 100, 1, 50), 20);
        // Never fewer than `threads`, never past the round's last chunk.
        assert_eq!(wave_chunks(1, 0, 0, 100, 4, 50), 4);
        assert_eq!(wave_chunks(1_000, 0, 0, 100, 4, 3), 3);
        // Nothing kept yet counts as one kept proposal.
        assert_eq!(wave_chunks(10, 100, 0, 100, 1, 50), 10);
        assert_eq!(wave_chunks(10, 1_000, 0, 100, 1, 50), 50);
    }
}
