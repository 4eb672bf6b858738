//! Pieces every workload shares: the work directory, input generation in a
//! child process, peak RSS, provenance, and the layer-by-layer composition
//! of one synthesis job that the traced runs time.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use agmdp_core::workflow::{
    learn_parameters, synthesize_from_parameters_observed, AgmConfig, Privacy,
};
use agmdp_datasets::{generate_dataset, DatasetSpec};
use agmdp_eval::{GraphProfile, UtilityReport};
use agmdp_graph::triangles::count_triangles;
use agmdp_graph::{io, FrozenGraph, GraphView, MappedGraph};
use agmdp_service::engine::GraphStats;
use agmdp_service::{SynthesisEngine, SynthesisRequest};

use crate::report::Report;
use crate::trace::Tracer;

/// Salt the engine applies to a request seed to derive the sampling stream
/// (`engine.rs`); the traced composition must use the same stream, and the
/// run fails if its release differs from the engine's.
pub const SAMPLING_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Generator seed of every dataset stand-in: the `agmdp generate-dataset`
/// default. The stand-ins are fixed graphs, as the paper's datasets are; the
/// workload seed varies the traffic instead (request seeds, and with them
/// the DP noise and the sampled releases, the arrival schedule and the keys
/// hits repeat).
pub const DATASET_SEED: u64 = 2016;

/// Total ε registered per dataset: far more than any run spends.
pub const BUDGET: f64 = 1e9;

/// A per-run scratch directory inside the checkout, removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.perfbench_work/<workload>-<pid>` under the current
    /// directory.
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let path =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Remove the parent too once no other run uses it.
        let _ = fs::remove_dir(".perfbench_work");
    }
}

/// The dataset preset `name` at `scale`.
pub fn spec(name: &str, scale: f64) -> Result<DatasetSpec, String> {
    let base = match name {
        "lastfm" => DatasetSpec::lastfm(),
        "petster" => DatasetSpec::petster(),
        "epinions" => DatasetSpec::epinions(),
        "pokec" => DatasetSpec::pokec(),
        other => return Err(format!("unknown dataset preset {other}")),
    };
    Ok(base.scaled(scale))
}

/// Child-process entry point: generates one dataset and writes it as `.agb`.
pub fn generate_to(name: &str, scale: f64, seed: u64, out: &Path) -> Result<(), String> {
    let graph = generate_dataset(&spec(name, scale)?, seed).map_err(|e| e.to_string())?;
    io::write_binary_file(&graph, out).map_err(|e| e.to_string())
}

/// Generates a dataset in a child process, so that the generator's memory
/// peak stays out of this process's peak RSS. Untimed: the program only
/// receives generated inputs.
pub fn generate_input(name: &str, scale: f64, seed: u64, out: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("--generate")
        .arg(name)
        .arg(scale.to_string())
        .arg(seed.to_string())
        .arg(out)
        .status()
        .map_err(|e| format!("cannot start the generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("generating {name}@{scale} failed: {status}"))
    }
}

/// Reports n, m and triangles of a graph file, and returns the triangles.
pub fn describe_input(report: &mut Report, label: &str, path: &Path) -> Result<u64, String> {
    let graph = MappedGraph::open(path).map_err(|e| e.to_string())?;
    let triangles = count_triangles(&graph);
    report.info(format!(
        "input {label}: n={} m={} triangles={triangles}",
        graph.num_nodes(),
        graph.num_edges(),
    ));
    Ok(triangles)
}

/// `min(T~, T) / max(T~, T)` for a release's triangle count `T~` against
/// the input's `T`: 1 for an exact count, falling towards 0 as the count
/// misses in either direction. Unlike the relative error it is never near 0
/// for a good release, so its run-to-run spread stays small relative to its
/// value.
pub fn triangle_ratio(release: u64, input: u64) -> f64 {
    let (lo, hi) = if release < input {
        (release, input)
    } else {
        (input, release)
    };
    if hi == 0 {
        1.0
    } else {
        lo as f64 / hi as f64
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host and build provenance lines.
pub fn provenance(report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
    };
    let commit = run("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let rustc = run("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    report.info(format!(
        "host: nproc={nproc} commit={commit} rustc=\"{rustc}\""
    ));
}

/// The `AgmConfig` the engine builds for `request`.
pub fn config_of(request: &SynthesisRequest) -> AgmConfig {
    AgmConfig {
        privacy: Privacy::Dp {
            epsilon: request.epsilon,
        },
        model: request.model,
        correlation_method: request.method,
        refinement_iterations: request.refinement_iterations,
        orphan_postprocessing: true,
        threads: request.threads,
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// The release a traced job produced, for comparison with the engine's.
#[derive(Debug)]
pub struct TracedJob {
    /// Index of the job's root span.
    pub root: usize,
    /// The release.
    pub release: FrozenGraph,
    /// Its summary statistics.
    pub stats: GraphStats,
    /// Its utility against the original.
    pub utility: UtilityReport,
    /// The `.agb` artifact, when the job writes to a release store.
    pub artifact: Option<Vec<u8>>,
}

/// Re-composes `SynthesisEngine::run` from the layers' public functions,
/// with a span around each call: admission, thaw, fit, sampling (whose
/// stages arrive through the observer seam), freeze, profile and score,
/// summary statistics, serialisation and the store insert.
#[derive(Debug)]
pub struct Composer<'a> {
    engine: &'a SynthesisEngine,
    tracer: &'a Tracer,
    profiles: BTreeMap<String, Arc<GraphProfile>>,
}

impl<'a> Composer<'a> {
    /// A composer over `engine`, recording into `tracer`.
    pub fn new(engine: &'a SynthesisEngine, tracer: &'a Tracer) -> Self {
        Self {
            engine,
            tracer,
            profiles: BTreeMap::new(),
        }
    }

    /// Runs `request` cold, layer by layer. The admission is charged to
    /// `admit_as` (a request with a fresh seed, so that it is cold too); the
    /// fit and the sample use `request`'s own seed, so the release equals
    /// the engine's release of `request`.
    pub fn cold_job(
        &mut self,
        request: &SynthesisRequest,
        admit_as: &SynthesisRequest,
    ) -> Result<TracedJob, String> {
        let root = self.tracer.open("job");
        let result = self.cold_job_inner(root, request, admit_as);
        self.tracer.close();
        result
    }

    fn cold_job_inner(
        &mut self,
        root: usize,
        request: &SynthesisRequest,
        admit_as: &SynthesisRequest,
    ) -> Result<TracedJob, String> {
        let t = self.tracer;
        let engine = self.engine;
        let admission = t
            .span("service.admit_cold", || engine.admit(admit_as))
            .map_err(|e| e.to_string())?;
        if admission.cache_hit() {
            return Err("the traced admission was not cold".to_string());
        }
        drop(admission);
        let config = config_of(request);
        let dataset = engine
            .registry()
            .get(&request.dataset)
            .map_err(|e| e.to_string())?;
        let input = t.span("graph.thaw", || dataset.thaw());
        let mut learn_rng = StdRng::seed_from_u64(request.seed);
        let params = t
            .span("core.fit", || {
                learn_parameters(&input, &config, &mut learn_rng)
            })
            .map_err(|e| e.to_string())?;
        drop(input);
        let mut sample_rng = StdRng::seed_from_u64(request.seed ^ SAMPLING_SEED_SALT);
        let synthetic = t
            .span("models.sample", || {
                synthesize_from_parameters_observed(&params, &config, &mut sample_rng, t)
            })
            .map_err(|e| e.to_string())?;
        let release = t.span("graph.freeze", || synthetic.freeze());
        drop(synthetic);
        let profile = match self.profiles.get(&request.dataset) {
            Some(p) => Arc::clone(p),
            None => {
                let p = Arc::new(t.span("eval.profile", || GraphProfile::of(dataset.as_ref())));
                self.profiles
                    .insert(request.dataset.clone(), Arc::clone(&p));
                p
            }
        };
        let utility = t.span("eval.score", || UtilityReport::against(&profile, &release));
        if request.return_graph {
            t.span("graph.to_text", || io::to_text(&release));
        }
        let stats = t.span("graph.stats", || GraphStats {
            nodes: release.num_nodes(),
            edges: release.num_edges(),
            triangles: count_triangles(&release),
            max_degree: release.max_degree(),
            avg_degree: release.avg_degree(),
        });
        let artifact = match engine.release_store() {
            Some(store) => {
                let artifact = t.span("graph.to_binary", || io::to_binary(&release));
                t.span("service.store_insert", || {
                    store.insert(request, &artifact, &stats, &utility)
                })
                .map_err(|e| e.to_string())?;
                Some(artifact)
            }
            None => None,
        };
        Ok(TracedJob {
            root,
            release,
            stats,
            utility,
            artifact,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_ratio_is_symmetric_in_the_miss() {
        assert_eq!(triangle_ratio(100, 100), 1.0);
        assert_eq!(triangle_ratio(90, 100), 0.9);
        assert_eq!(triangle_ratio(100, 90), 0.9);
        assert_eq!(triangle_ratio(0, 100), 0.0);
        assert_eq!(triangle_ratio(0, 0), 1.0);
    }
}
