//! The batch workloads: one client in a closed loop against an in-process
//! `SynthesisEngine` on the Pokec stand-in. Cold jobs (fresh seed) alternate
//! with warm jobs (the same request again, so the fit cache hits).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use agmdp_core::correlations_dp::CorrelationMethod;
use agmdp_core::workflow::{synthesize_from_parameters_observed, Privacy, StructuralModelKind};
use agmdp_graph::{io, MappedGraph};
use agmdp_models::observe::NoopStageObserver;
use agmdp_service::cache::FitKey;
use agmdp_service::engine::SynthesisOutcome;
use agmdp_service::{BudgetLedger, ReleaseStore, SynthesisEngine, SynthesisRequest};

use crate::common::{
    config_of, describe_input, generate_input, peak_rss_mb, timed, triangle_ratio, Composer,
    WorkDir, BUDGET, DATASET_SEED, SAMPLING_SEED_SALT,
};
use crate::reference::Reference;
use crate::report::Report;
use crate::schedule::splitmix;
use crate::stats::{mean, median, Outcome};
use crate::trace::{layer_self_time_under, totals, Tracer};
use crate::{Args, SETUP_REPEATS};

const DATASET: &str = "pokec";
/// A cold TriCycLe job on `pokec@0.05` takes about 0.8 s, so a run holds
/// 20 or more cold/warm pairs and its medians do not hinge on a few jobs.
const SCALE: f64 = 0.05;
const EPSILON: f64 = 1.0;
const THREADS: usize = 2;
/// Timings of the reference task in a traced run.
pub const REFERENCE_TIMINGS: usize = 9;
/// The `ok_in_limit_ratio` limit on the batch workloads: a job that takes
/// longer counts as missed.
const JOB_LIMIT: Duration = Duration::from_secs(60);

fn request(model: StructuralModelKind, seed: u64) -> SynthesisRequest {
    SynthesisRequest {
        dataset: DATASET.to_string(),
        epsilon: EPSILON,
        model,
        method: CorrelationMethod::EdgeTruncation { k: None },
        seed,
        refinement_iterations: 3,
        return_graph: false,
        threads: THREADS,
    }
}

/// Opens a file-backed ledger, builds the engine and registers the input:
/// the set-up a user of the in-process engine pays before the first job.
fn set_up(work: &WorkDir) -> Result<SynthesisEngine, String> {
    let ledger = BudgetLedger::open(work.join("ledger.wal")).map_err(|e| e.to_string())?;
    let engine = SynthesisEngine::new(ledger);
    let graph = io::load_frozen_file(work.join("input.agb")).map_err(|e| e.to_string())?;
    engine
        .register_frozen_dataset(DATASET, graph, BUDGET)
        .map_err(|e| e.to_string())?;
    Ok(engine)
}

struct Prepared {
    work: WorkDir,
    reference: Reference,
    engine: SynthesisEngine,
    job_seeds: StdRng,
    input_triangles: u64,
}

fn prepare(
    args: &Args,
    model: StructuralModelKind,
    report: &mut Report,
) -> Result<Prepared, String> {
    let work = WorkDir::create(&args.workload).map_err(|e| e.to_string())?;
    let input = work.join("input.agb");
    generate_input(DATASET, SCALE, DATASET_SEED, &input)?;
    let input_triangles = describe_input(
        report,
        &format!("{DATASET}@{SCALE} (generator seed {DATASET_SEED})"),
        &input,
    )?;
    report.info(format!(
        "request: model={} epsilon={EPSILON} method=truncation iterations=3 threads={THREADS}",
        model.name()
    ));
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        drop(engine.take());
        let (seconds, built) = timed(|| set_up(&work));
        setups.push(seconds);
        engine = Some(built?);
    }
    report.metric(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "median; ledger open + replay, engine, load + register input",
    );
    let mapped = MappedGraph::open(&input).map_err(|e| e.to_string())?;
    let reference = Reference::new(&[&mapped]);
    Ok(Prepared {
        reference,
        work,
        engine: engine.expect("SETUP_REPEATS > 0"),
        job_seeds: StdRng::seed_from_u64(splitmix(args.seed ^ 0x5eed)),
        input_triangles,
    })
}

fn next_seed(rng: &mut StdRng) -> u64 {
    rand::Rng::gen::<u64>(rng) >> 1
}

/// The fidelity metrics, means over the run's distinct releases.
fn fidelity(report: &mut Report, releases: &[SynthesisOutcome], input_triangles: u64) {
    let n = releases.len();
    let ratio: Vec<f64> = releases
        .iter()
        .map(|o| triangle_ratio(o.stats.triangles, input_triangles))
        .collect();
    let ks: Vec<f64> = releases.iter().map(|o| o.utility.ks_degree).collect();
    let sim: Vec<f64> = releases
        .iter()
        .map(|o| 1.0 - o.utility.attr_edge_hellinger)
        .collect();
    let re: Vec<f64> = releases
        .iter()
        .map(|o| o.utility.triangle_count_re)
        .collect();
    report.metric(
        "triangle_ratio",
        mean(&ratio),
        "ratio",
        n,
        "mean over releases; min(T~,T)/max(T~,T)",
    );
    report.metric("degree_ks", mean(&ks), "ratio", n, "mean over releases");
    report.metric(
        "attr_edge_similarity",
        mean(&sim),
        "ratio",
        n,
        "mean over releases; 1 - Hellinger",
    );
    report.info(format!(
        "paper measures, mean over {n} releases: triangle_re={} degree_ks={} attr_edge_hellinger={}",
        mean(&re),
        mean(&ks),
        1.0 - mean(&sim)
    ));
}

fn check_ledger(report: &mut Report, engine: &SynthesisEngine, expected: f64) {
    let spent = engine
        .ledger()
        .status(DATASET)
        .map_or(f64::NAN, |s| s.spent);
    report.check((spent - expected).abs() < 1e-9, || {
        format!("ledger spent {spent}, but cold admissions drew {expected}")
    });
}

/// Checks the determinism contract on `cold`'s request: the release
/// sampled at one thread from the cached fit equals, byte for byte, the
/// engine's release at two.
fn check_threads(
    report: &mut Report,
    engine: &SynthesisEngine,
    req: &SynthesisRequest,
    served: &SynthesisOutcome,
) -> Result<(), String> {
    let key = FitKey::new(
        DATASET,
        Privacy::Dp { epsilon: EPSILON },
        req.model,
        req.method,
        req.seed,
    );
    let params = engine
        .cache()
        .peek(&key)
        .ok_or("the checked request is not in the fit cache")?;
    let mut at_one = req.clone();
    at_one.threads = 1;
    let mut rng = StdRng::seed_from_u64(req.seed ^ SAMPLING_SEED_SALT);
    let release = synthesize_from_parameters_observed(
        &params,
        &config_of(&at_one),
        &mut rng,
        &NoopStageObserver,
    )
    .map_err(|e| e.to_string())?
    .freeze();
    report.check(
        served.graph_text.as_deref() == Some(io::to_text(&release).as_str()),
        || {
            format!(
                "release of seed {} differs between threads 1 and {THREADS}",
                req.seed
            )
        },
    );
    Ok(())
}

/// One job: its admit + run seconds and its outcome.
fn job(
    report: &mut Report,
    engine: &SynthesisEngine,
    req: &SynthesisRequest,
) -> Result<(f64, SynthesisOutcome), String> {
    let (secs, outcome) = timed(|| engine.synthesize(req));
    report.tally.record(if outcome.is_ok() {
        Outcome::Ok
    } else {
        Outcome::JobFailed
    });
    Ok((secs, outcome.map_err(|e| e.to_string())?))
}

/// Untraced run: pairs of a cold and a warm job in a closed loop, started
/// while less than `args.seconds` have passed. Every job returns its graph,
/// so warm releases are compared byte for byte with their cold ones.
pub fn run(args: &Args, model: StructuralModelKind, report: &mut Report) -> Result<(), String> {
    let mut p = prepare(args, model, report)?;
    let engine = &p.engine;
    let start = Instant::now();
    let (mut cold_s, mut warm_s) = (vec![], vec![]);
    let mut releases = vec![];
    let mut seeds = vec![];
    let mut spent = 0.0;
    let mut first = None;
    let mut ref_s = vec![];
    while start.elapsed() < Duration::from_secs(args.seconds) {
        ref_s.push(p.reference.time());
        let seed = next_seed(&mut p.job_seeds);
        seeds.push(seed);
        let mut req = request(model, seed);
        req.return_graph = true;
        let (secs, mut cold) = job(report, engine, &req)?;
        cold_s.push(secs);
        spent += cold.epsilon_spent;
        report.check(!cold.cache_hit && cold.epsilon_spent == EPSILON, || {
            format!(
                "cold job spent {} (cache_hit={})",
                cold.epsilon_spent, cold.cache_hit
            )
        });

        let (secs, warm) = job(report, engine, &req)?;
        warm_s.push(secs);
        report.check(warm.cache_hit && warm.epsilon_spent == 0.0, || {
            format!(
                "warm job spent {} (cache_hit={})",
                warm.epsilon_spent, warm.cache_hit
            )
        });
        report.check(
            warm.graph_text.is_some() && warm.graph_text == cold.graph_text,
            || format!("warm release of seed {seed} is not byte-identical to its cold release"),
        );
        // Keep the first release's graph for the determinism check after
        // the loop and drop the others', so that peak RSS does not grow
        // with the number of jobs a run fits in.
        if first.is_none() {
            first = Some(req);
        } else {
            cold.graph_text = None;
        }
        releases.push(cold);
    }
    report.info(format!("job seeds: {seeds:?}"));
    check_ledger(report, engine, spent);
    let req = first.expect("at least one pair ran");
    check_threads(report, engine, &req, &releases[0])?;

    let in_limit = cold_s
        .iter()
        .chain(&warm_s)
        .filter(|&&s| s <= JOB_LIMIT.as_secs_f64())
        .count();
    let jobs = cold_s.len() + warm_s.len();
    job_metrics(report, &cold_s, &warm_s, &ref_s, "graph returned");
    report.metric(
        "ok_in_limit_ratio",
        in_limit as f64 / report.tally.attempted as f64,
        "ratio",
        jobs,
        &format!("limit {} s per job", JOB_LIMIT.as_secs()),
    );
    fidelity(report, &releases, p.input_triangles);
    report.info(format!(
        "traffic shares: cold={:.3} fit_cache_hit={:.3} store_hit=0; closed loop, 1 client",
        cold_s.len() as f64 / jobs as f64,
        warm_s.len() as f64 / jobs as f64
    ));
    report.metric(
        "peak_rss_mb",
        peak_rss_mb(),
        "MiB",
        1,
        "VmHWM of the run; input generated in a child",
    );
    drop(p.work);
    Ok(())
}

/// `cold_job_ref_p50` and `warm_job_ref_p50`: the median job time over the
/// median time of the reference task timed between the jobs (see
/// `reference.rs`). The seconds behind them are printed too.
pub fn job_metrics(report: &mut Report, cold_s: &[f64], warm_s: &[f64], ref_s: &[f64], note: &str) {
    let reference = median(ref_s);
    report.info(format!(
        "job seconds: cold p50 {:.6} s (n={}), warm p50 {:.6} s (n={}); reference task p50 {reference:.6} s (n={})",
        median(cold_s),
        cold_s.len(),
        median(warm_s),
        warm_s.len(),
        ref_s.len()
    ));
    report.metric(
        "cold_job_ref_p50",
        median(cold_s) / reference,
        "x_ref",
        cold_s.len(),
        &format!("median admit + run / reference task, {note}"),
    );
    report.metric(
        "warm_job_ref_p50",
        median(warm_s) / reference,
        "x_ref",
        warm_s.len(),
        "median admit + run of a fit-cache hit / reference task",
    );
}

/// Traced run: one untraced cold job, then the same job composed layer by
/// layer with a span per call, then its sampling again at one thread.
pub fn run_traced(
    args: &Args,
    model: StructuralModelKind,
    report: &mut Report,
) -> Result<(), String> {
    let mut p = prepare(args, model, report)?;
    let engine = &p.engine;
    let input = p.work.join("input.agb");
    let mut opens = vec![];
    let mut trusted = vec![];
    for _ in 0..SETUP_REPEATS {
        let (s, g) = timed(|| MappedGraph::open(&input));
        g.map_err(|e| e.to_string())?;
        opens.push(s);
        let (s, g) = timed(|| MappedGraph::open_trusted(&input));
        g.map_err(|e| e.to_string())?;
        trusted.push(s);
    }
    report.metric(
        "graph.mmap_open_s",
        median(&opens),
        "s",
        opens.len(),
        "verified tier, input",
    );
    report.metric(
        "graph.mmap_open_trusted_s",
        median(&trusted),
        "s",
        trusted.len(),
        "trusted tier, input",
    );

    p.reference.report(report, REFERENCE_TIMINGS);

    let seed = next_seed(&mut p.job_seeds);
    let req = request(model, seed);
    let (untraced_s, outcome) = timed(|| engine.synthesize(&req));
    let outcome_done = Instant::now();
    let outcome = outcome.map_err(|e| e.to_string())?;
    report.tally.record(Outcome::Ok);
    let late_ms = outcome_done.elapsed().as_secs_f64() * 1e3;
    let (admit_hit_s, admission) = timed(|| engine.admit(&req));
    report.check(admission.map(|a| a.cache_hit()).unwrap_or(false), || {
        "warm admission missed the fit cache".into()
    });

    let tracer = Tracer::default();
    let mut composer = Composer::new(engine, &tracer);
    let admit_as = request(model, next_seed(&mut p.job_seeds));
    let job = composer.cold_job(&req, &admit_as)?;
    report.tally.record(Outcome::Ok);
    report.check(
        job.stats == outcome.stats && job.utility == outcome.utility,
        || "the traced composition's release differs from SynthesisEngine::run's".to_string(),
    );
    check_ledger(report, engine, 2.0 * EPSILON);

    // Sampling again at one thread: the edge-sampling ratio, and the
    // determinism contract on the same parameters.
    let key = FitKey::new(
        DATASET,
        Privacy::Dp { epsilon: EPSILON },
        model,
        req.method,
        seed,
    );
    let params = engine
        .cache()
        .peek(&key)
        .ok_or("the traced request is not in the fit cache")?;
    let serial = Tracer::default();
    let mut one = req.clone();
    one.threads = 1;
    let mut rng = StdRng::seed_from_u64(seed ^ SAMPLING_SEED_SALT);
    let release_one = serial
        .span("models.sample", || {
            synthesize_from_parameters_observed(&params, &config_of(&one), &mut rng, &serial)
        })
        .map_err(|e| e.to_string())?
        .freeze();
    let (to_text_s, text) = timed(|| io::to_text(&job.release));
    report.check(io::to_text(&release_one) == text, || {
        format!("release of seed {seed} differs between threads 1 and 2")
    });
    let (to_binary_s, artifact) = timed(|| io::to_binary(&job.release));

    // The batch path has no release store; a side store filled with this
    // release measures the store layer on a Pokec-sized artifact.
    let store = ReleaseStore::open(p.work.join("side-store")).map_err(|e| e.to_string())?;
    let (insert_s, inserted) = timed(|| store.insert(&req, &artifact, &job.stats, &job.utility));
    inserted.map_err(|e| e.to_string())?;
    let (lookup_s, found) = timed(|| store.lookup(&req));
    report.check(found.is_some(), || "side store lookup missed".into());

    let spans = tracer.spans();
    let serial_spans = serial.spans();
    layer_metrics(
        report,
        &spans,
        &[job.root],
        untraced_s,
        spans[job.root].duration(),
    );
    let t2 = totals(&spans, "models.edge_sample").wall;
    let t1 = totals(&serial_spans, "models.edge_sample").wall;
    report.metric(
        "models.edge_sample_t1_over_t2",
        t1 / t2,
        "ratio",
        1,
        "same parameters, 1 vs 2 threads",
    );
    report.metric(
        "models.release_edges",
        job.stats.edges as f64,
        "count",
        1,
        "",
    );
    report.metric(
        "models.edges_per_s",
        job.stats.edges as f64 / t2,
        "1/s",
        1,
        "release edges / edge_sample_s",
    );
    report.metric("graph.to_text_s", to_text_s, "s", 1, "release");
    report.metric("graph.text_bytes", text.len() as f64, "bytes", 1, "release");
    report.metric("graph.to_binary_s", to_binary_s, "s", 1, "release");
    report.metric(
        "graph.agb_bytes",
        artifact.len() as f64,
        "bytes",
        1,
        "release",
    );
    report.metric("service.admit_hit_s", admit_hit_s, "s", 1, "fit-cache hit");
    report.metric("service.store_insert_s", insert_s, "s", 1, "side store");
    report.metric("service.store_lookup_s", lookup_s, "s", 1, "side store");
    report.metric("service.store_hit_ratio", 1.0, "ratio", 1, "side store");
    report.metric(
        "service.store_bytes",
        artifact.len() as f64,
        "bytes",
        1,
        "side store",
    );
    report.metric(
        "service.run_s",
        untraced_s,
        "s",
        1,
        "admit + run, untraced cold job",
    );
    side_ledger(report, &p.work)?;
    report.metric(
        "service.ledger_spends",
        2.0,
        "count",
        1,
        "cold admissions on the engine",
    );
    report.metric(
        "loadgen.late_ms_tail",
        late_ms,
        "ms",
        1,
        "closed loop: next call after the previous completed",
    );
    no_http(report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1, "");
    drop(p.work);
    Ok(())
}

/// The metrics the traced jobs' spans give, against the summed untraced
/// and traced job times; layer times are means per job.
pub fn layer_metrics(
    report: &mut Report,
    spans: &[crate::trace::Span],
    roots: &[usize],
    untraced_s: f64,
    traced_s: f64,
) {
    let jobs = roots.len() as f64;
    let per_job = |name: &str| totals(spans, name);
    let n = roots.len();
    let sample = per_job("models.sample");
    let stage_sum: f64 = ["models.attr_sample", "models.edge_sample", "models.rewire"]
        .iter()
        .map(|s| per_job(s).wall)
        .sum();
    for (metric, span) in [
        ("core.fit_s", "core.fit"),
        ("graph.thaw_s", "graph.thaw"),
        ("graph.freeze_s", "graph.freeze"),
        ("graph.stats_s", "graph.stats"),
        ("models.rewire_s", "models.rewire"),
        ("models.edge_sample_s", "models.edge_sample"),
        ("models.attr_sample_s", "models.attr_sample"),
        ("eval.profile_s", "eval.profile"),
        ("eval.score_s", "eval.score"),
        ("service.admit_cold_s", "service.admit_cold"),
    ] {
        report.metric(
            metric,
            per_job(span).wall / jobs,
            "s",
            n,
            "mean per traced job",
        );
    }
    for (metric, span) in [
        ("core.fit_calls", "core.fit"),
        ("models.rewire_calls", "models.rewire"),
        ("models.edge_sample_calls", "models.edge_sample"),
    ] {
        report.metric(
            metric,
            per_job(span).calls as f64 / jobs,
            "count",
            n,
            "per traced job",
        );
    }
    report.metric(
        "models.other_s",
        (sample.wall - stage_sum) / jobs,
        "s",
        n,
        "sampling outside the observed stages",
    );
    let covered: f64 = roots.iter().map(|&r| layer_self_time_under(spans, r)).sum();
    report.metric(
        "trace.overhead_ratio",
        traced_s / untraced_s,
        "ratio",
        n,
        "traced / untraced job time",
    );
    report.metric(
        "trace.coverage",
        covered / untraced_s,
        "ratio",
        n,
        "layer self time / untraced job time",
    );
    report.metric(
        "trace.untraced_job_s",
        untraced_s / jobs,
        "s",
        n,
        "mean per job",
    );
    report.metric(
        "trace.traced_job_s",
        traced_s / jobs,
        "s",
        n,
        "mean per job",
    );
    let mut layers: Vec<(&str, f64)> = [
        "core.fit",
        "graph.thaw",
        "graph.freeze",
        "graph.stats",
        "graph.to_text",
        "graph.to_binary",
        "models.attr_sample",
        "models.edge_sample",
        "models.rewire",
        "eval.profile",
        "eval.score",
        "service.admit_cold",
        "service.store_insert",
    ]
    .iter()
    .map(|&s| (s, totals(spans, s).wall / jobs))
    .collect();
    layers.push(("models.other", (sample.wall - stage_sum) / jobs));
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let line: Vec<String> = layers.iter().map(|(s, v)| format!("{s}={v:.4}")).collect();
    report.info(format!(
        "layer self time per traced job, largest first (s): {}",
        line.join(" ")
    ));
}

/// Mean time of one spend on a file-backed ledger of its own (journal
/// append + fsync), so that the run's ledger keeps only real admissions.
pub fn side_ledger(report: &mut Report, work: &WorkDir) -> Result<(), String> {
    const SPENDS: usize = 20;
    let ledger = BudgetLedger::open(work.join("side-ledger.wal")).map_err(|e| e.to_string())?;
    ledger.register("side", BUDGET).map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(SPENDS);
    for _ in 0..SPENDS {
        let (s, r) = timed(|| ledger.spend("side", 1.0));
        r.map_err(|e| e.to_string())?;
        times.push(s);
    }
    report.metric(
        "service.ledger_spend_s",
        median(&times),
        "s",
        SPENDS,
        "median; side ledger",
    );
    Ok(())
}

/// The HTTP-only metrics, zero on a workload without HTTP traffic.
fn no_http(report: &mut Report) {
    for (name, unit) in [
        ("service.http_share_of_hit", "ratio"),
        ("service.sheds_503", "count"),
        ("service.sheds_429", "count"),
        ("service.poll_useful_ratio", "ratio"),
        ("loadgen.hit_ms_p50", "ms"),
        ("loadgen.hit_ms_tail", "ms"),
        ("loadgen.cold_ms_p50", "ms"),
        ("loadgen.cold_ms_tail", "ms"),
        ("loadgen.sent", "count"),
    ] {
        report.metric(name, 0.0, unit, 0, "no HTTP traffic on this workload");
    }
}
