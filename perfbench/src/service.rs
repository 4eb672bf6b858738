//! The `service_mixed` workload: the in-process event server with a
//! file-backed ledger and a release store, two tenants registered by path,
//! and an open-loop mix of release-store hits (reads) and fresh-seed cold
//! jobs (writes) from two client connections.

use std::thread;
use std::time::{Duration, Instant};

use serde::Value;

use agmdp_core::correlations_dp::CorrelationMethod;
use agmdp_core::workflow::{synthesize_from_parameters_observed, Privacy, StructuralModelKind};
use agmdp_graph::{io, MappedGraph};
use agmdp_service::cache::FitKey;
use agmdp_service::json;
use agmdp_service::{BudgetLedger, ReleaseStore, ServiceConfig, SynthesisEngine, SynthesisRequest};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::{job_metrics, layer_metrics, side_ledger, REFERENCE_TIMINGS};
use crate::common::{
    config_of, describe_input, generate_input, peak_rss_mb, timed, triangle_ratio, Composer,
    WorkDir, BUDGET, DATASET_SEED, SAMPLING_SEED_SALT,
};
use crate::http::Client;
use crate::reference::Reference;
use crate::report::Report;
use crate::schedule::{
    drive, open_loop, splitmix, Arrival, Exchange, Kind, Mix, Pacing, Poll, Polls, Record, Sent,
};
use crate::stats::{mean, median, tail, Outcome, Tally};
use crate::trace::Tracer;
use crate::{Args, SETUP_REPEATS};

const DATASETS: [&str; 2] = ["lastfm", "petster"];
const SCALE: f64 = 1.0;
const EPSILON: f64 = 1.0;
/// Warmed requests per tenant: the keys store hits repeat.
const WARMED_PER_DATASET: usize = 8;
/// Server worker threads.
const WORKERS: usize = 2;
/// Client connections (and threads): at most the host's two cores.
const CONNS: usize = 2;
/// Arrival rate, requests per second. A cold job costs about 0.07 s of one
/// core, so the cold tenth of this rate keeps about half of one core busy
/// with jobs.
const RATE: f64 = 60.0;
const COLD_SHARE: f64 = 0.1;
const HIT_GRAPH_SHARE: f64 = 0.5;
/// `ok_in_limit_ratio` limits, from the due time.
const HIT_LIMIT: Duration = Duration::from_millis(50);
const COLD_LIMIT: Duration = Duration::from_secs(1);
/// Share of `--seconds` the HTTP load runs for; the engine phase gets the
/// rest.
const LOAD_SHARE: f64 = 0.5;
/// Set-ups per run; `setup_s` is their median. A set-up takes a few
/// milliseconds, so many are cheap and steady the median.
const SETUPS: usize = 41;
const PACING: Pacing = Pacing {
    poll_every: Duration::from_millis(5),
    drain: Duration::from_secs(60),
};

fn body(dataset: usize, seed: u64, return_graph: bool) -> String {
    format!(
        "{{\"dataset\":\"{}\",\"epsilon\":{EPSILON:?},\"seed\":{seed},\"threads\":1,\"return_graph\":{return_graph}}}",
        DATASETS[dataset]
    )
}

fn request(dataset: usize, seed: u64, return_graph: bool) -> SynthesisRequest {
    SynthesisRequest {
        dataset: DATASETS[dataset].to_string(),
        epsilon: EPSILON,
        model: StructuralModelKind::TriCycLe,
        method: CorrelationMethod::EdgeTruncation { k: None },
        seed,
        refinement_iterations: 3,
        return_graph,
        threads: 1,
    }
}

/// A warmed request and its cold release.
#[derive(Debug, Clone)]
struct Warmed {
    dataset: usize,
    seed: u64,
    text: String,
}

/// Utility figures of one release: triangle ratio, degree KS, attribute-edge
/// similarity (1 - Hellinger), triangle relative error.
type Fidelity = [f64; 4];

/// The fidelity of a job result, against its tenant's input triangles.
fn fidelity_of(result: &Value, input_triangles: &[u64; 2]) -> Option<Fidelity> {
    let utility = json::get(result, "utility")?;
    let f = |k: &str| json::get(utility, k).and_then(json::as_f64);
    let dataset = json::get(result, "dataset").and_then(json::as_str)?;
    let d = DATASETS.iter().position(|&name| name == dataset)?;
    let triangles = json::get(result, "stats")
        .and_then(|stats| json::get(stats, "triangles"))
        .and_then(json::as_u64)?;
    Some([
        triangle_ratio(triangles, input_triangles[d]),
        f("ks_degree")?,
        1.0 - f("attr_edge_hellinger")?,
        f("triangle_count_re")?,
    ])
}

fn parse(body: &str) -> Result<Value, String> {
    json::parse(body).map_err(|e| format!("bad JSON response: {e}"))
}

fn field_f64(v: &Value, key: &str) -> Option<f64> {
    json::get(v, key).and_then(json::as_f64)
}

fn field_bool(v: &Value, key: &str) -> Option<bool> {
    json::get(v, key).and_then(json::as_bool)
}

/// Polls `job` until it leaves the queue; returns its result object.
fn wait_job(client: &mut Client, job: u64) -> Result<Value, String> {
    let deadline = Instant::now() + PACING.drain;
    loop {
        let reply = client
            .call("GET", &format!("/jobs/{job}"), None)
            .map_err(|e| e.to_string())?;
        let doc = parse(&reply.body)?;
        match json::get(&doc, "status").and_then(json::as_str) {
            Some("completed") => {
                return json::get(&doc, "result")
                    .cloned()
                    .ok_or_else(|| "no result".to_string())
            }
            Some("failed") => return Err(format!("job {job} failed: {}", reply.body)),
            _ if Instant::now() > deadline => return Err(format!("job {job} did not finish")),
            _ => thread::sleep(PACING.poll_every),
        }
    }
}

fn post_synthesize(client: &mut Client, body: &str) -> Result<Value, String> {
    let reply = client
        .call("POST", "/synthesize", Some(body))
        .map_err(|e| e.to_string())?;
    if reply.status != 202 {
        return Err(format!(
            "POST /synthesize returned {}: {}",
            reply.status, reply.body
        ));
    }
    parse(&reply.body)
}

fn job_id(doc: &Value) -> Result<u64, String> {
    json::get(doc, "job_id")
        .and_then(json::as_u64)
        .ok_or_else(|| "no job_id".to_string())
}

/// One client connection of the load.
struct HttpExchange<'a> {
    client: Client,
    warmed: &'a [Warmed],
    input_triangles: [u64; 2],
    failures: Vec<String>,
    spent: [f64; 2],
    store_hits: u64,
    fit_cache_hits: u64,
    colds: u64,
    releases: Vec<Fidelity>,
}

impl HttpExchange<'_> {
    fn hit(&mut self, key: usize, return_graph: bool) -> Result<(), Outcome> {
        let w = &self.warmed[key];
        let reply = self
            .client
            .call(
                "POST",
                "/synthesize",
                Some(&body(w.dataset, w.seed, return_graph)),
            )
            .map_err(|_| Outcome::IoError)?;
        if reply.status != 202 {
            return Err(Outcome::from_status(reply.status));
        }
        let doc = parse(&reply.body).map_err(|_| Outcome::IoError)?;
        self.classify(&doc);
        if field_bool(&doc, "store_hit") != Some(true)
            || field_f64(&doc, "epsilon_spent") != Some(0.0)
        {
            self.failures.push(format!(
                "a warmed request was not an ε-free store hit: {}",
                reply.body
            ));
        }
        let id = job_id(&doc).map_err(|_| Outcome::IoError)?;
        let reply = self
            .client
            .call("GET", &format!("/jobs/{id}"), None)
            .map_err(|_| Outcome::IoError)?;
        if reply.status != 200 {
            return Err(Outcome::from_status(reply.status));
        }
        let doc = parse(&reply.body).map_err(|_| Outcome::IoError)?;
        let result = json::get(&doc, "result").ok_or(Outcome::JobFailed)?;
        if field_f64(result, "epsilon_spent") != Some(0.0) {
            self.failures
                .push(format!("store hit for job {id} reports ε spent"));
        }
        if return_graph {
            let text = json::get(result, "graph").and_then(json::as_str);
            if text != Some(w.text.as_str()) {
                self.failures.push(format!(
                    "store hit for {} seed {} is not byte-identical to its cold release",
                    DATASETS[w.dataset], w.seed
                ));
            }
        }
        Ok(())
    }

    fn classify(&mut self, doc: &Value) {
        if field_bool(doc, "store_hit") == Some(true) {
            self.store_hits += 1;
        } else if field_bool(doc, "cache_hit") == Some(true) {
            self.fit_cache_hits += 1;
        } else {
            self.colds += 1;
        }
    }

    fn cold(&mut self, dataset: usize, seed: u64) -> Sent {
        let reply = match self
            .client
            .call("POST", "/synthesize", Some(&body(dataset, seed, false)))
        {
            Ok(r) => r,
            Err(_) => return Sent::Done(Outcome::IoError),
        };
        if reply.status != 202 {
            return Sent::Done(Outcome::from_status(reply.status));
        }
        let Ok(doc) = parse(&reply.body) else {
            return Sent::Done(Outcome::IoError);
        };
        self.classify(&doc);
        let spent = field_f64(&doc, "epsilon_spent").unwrap_or(f64::NAN);
        self.spent[dataset] += spent;
        if field_bool(&doc, "cache_hit") != Some(false) || spent != EPSILON {
            self.failures
                .push(format!("a fresh-seed request was not cold: {}", reply.body));
        }
        match job_id(&doc) {
            Ok(id) => Sent::Pending(id),
            Err(_) => Sent::Done(Outcome::IoError),
        }
    }
}

impl Exchange for HttpExchange<'_> {
    fn send(&mut self, arrival: &Arrival) -> Sent {
        match arrival.kind {
            Kind::Hit { key, return_graph } => Sent::Done(match self.hit(key, return_graph) {
                Ok(()) => Outcome::Ok,
                Err(outcome) => outcome,
            }),
            Kind::Cold { dataset, seed } => self.cold(dataset, seed),
        }
    }

    fn poll(&mut self, _arrival: &Arrival, job: u64) -> Poll {
        let Ok(reply) = self.client.call("GET", &format!("/jobs/{job}"), None) else {
            return Poll::Done(Outcome::IoError);
        };
        if reply.status != 200 {
            return Poll::Done(Outcome::from_status(reply.status));
        }
        let Ok(doc) = parse(&reply.body) else {
            return Poll::Done(Outcome::IoError);
        };
        match json::get(&doc, "status").and_then(json::as_str) {
            Some("completed") => {
                let result = json::get(&doc, "result");
                match result.and_then(|r| fidelity_of(r, &self.input_triangles)) {
                    Some(f) => self.releases.push(f),
                    None => self.failures.push(format!("job {job} has no utility")),
                }
                Poll::Done(Outcome::Ok)
            }
            Some("failed") => Poll::Done(Outcome::JobFailed),
            _ => Poll::Running,
        }
    }
}

fn server_config(work: &WorkDir) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: WORKERS,
        ledger_path: Some(work.join("ledger.wal")),
        quiet: true,
        release_store: Some(work.join("store")),
        ..ServiceConfig::default()
    }
}

/// Starts the server and registers both tenants by path (verified mmap).
fn set_up(work: &WorkDir) -> Result<agmdp_service::ServerHandle, String> {
    let handle = agmdp_service::start(&server_config(work)).map_err(|e| e.to_string())?;
    let mut client = Client::new(handle.local_addr());
    for name in DATASETS {
        let path = work.join(&format!("{name}.agb"));
        let body = format!(
            "{{\"name\":\"{name}\",\"budget\":{BUDGET:?},\"path\":\"{}\"}}",
            path.display()
        );
        let reply = client
            .call("POST", "/datasets", Some(&body))
            .map_err(|e| e.to_string())?;
        if reply.status != 201 {
            return Err(format!(
                "registering {name} returned {}: {}",
                reply.status, reply.body
            ));
        }
    }
    Ok(handle)
}

/// Runs every warmed request cold, two at a time, and keeps its release.
fn warm_up(
    client: &mut Client,
    seeds: &[(usize, u64)],
    input_triangles: &[u64; 2],
    spent: &mut [f64; 2],
    releases: &mut Vec<Fidelity>,
) -> Result<Vec<Warmed>, String> {
    let mut warmed = Vec::with_capacity(seeds.len());
    for pair in seeds.chunks(2) {
        let mut jobs = Vec::new();
        for &(dataset, seed) in pair {
            let doc = post_synthesize(client, &body(dataset, seed, true))?;
            let eps = field_f64(&doc, "epsilon_spent").unwrap_or(f64::NAN);
            if field_bool(&doc, "cache_hit") != Some(false) || eps != EPSILON {
                return Err(format!("warm-up request was not cold: {doc:?}"));
            }
            spent[dataset] += eps;
            jobs.push((dataset, seed, job_id(&doc)?));
        }
        for (dataset, seed, id) in jobs {
            let result = wait_job(client, id)?;
            releases.push(
                fidelity_of(&result, input_triangles).ok_or("warm-up release has no utility")?,
            );
            let text = json::get(&result, "graph")
                .and_then(json::as_str)
                .ok_or("warm-up release has no graph")?
                .to_string();
            warmed.push(Warmed {
                dataset,
                seed,
                text,
            });
        }
    }
    Ok(warmed)
}

/// Everything the HTTP phase measured.
struct Measured {
    records: Vec<Record>,
    polls: Polls,
    tally: Tally,
    hit_ms: Vec<f64>,
    releases: Vec<Fidelity>,
    schedule: Vec<Arrival>,
    warmed: Vec<Warmed>,
    cold_admissions: u64,
}

fn http_phase(
    args: &Args,
    work: &WorkDir,
    input_triangles: [u64; 2],
    report: &mut Report,
) -> Result<Measured, String> {
    let (server_s, handle) = timed(|| set_up(work));
    let handle = handle?;
    report.info(format!(
        "server start + 2 registrations over HTTP: {server_s:.6} s (n=1, first start: creates the ledger; not part of setup_s)"
    ));
    let addr = handle.local_addr();

    let mut seed_rng = StdRng::seed_from_u64(splitmix(args.seed ^ 0x3a43));
    let warm_seeds: Vec<(usize, u64)> = (0..DATASETS.len())
        .flat_map(|d| (0..WARMED_PER_DATASET).map(move |_| d))
        .map(|d| (d, rand::Rng::gen::<u64>(&mut seed_rng) >> 1))
        .collect();
    let mut spent = [0.0; 2];
    let mut releases = Vec::new();
    let mut client = Client::new(addr);
    let (warm_s, warmed) = timed(|| {
        warm_up(
            &mut client,
            &warm_seeds,
            &input_triangles,
            &mut spent,
            &mut releases,
        )
    });
    let warmed = warmed?;
    report.info(format!(
        "store warm-up: {} cold jobs in {warm_s:.3} s (not part of setup_s)",
        warmed.len()
    ));

    let load_seconds = args.seconds as f64 * LOAD_SHARE;
    let count = (RATE * load_seconds).round() as usize;
    let mix = Mix {
        rate: RATE,
        count,
        cold_share: COLD_SHARE,
        hit_graph_share: HIT_GRAPH_SHARE,
        keys: warmed.len(),
        datasets: DATASETS.len(),
        conns: CONNS,
    };
    let schedule = open_loop(splitmix(args.seed ^ 0x10ad), &mix);
    report.info(format!(
        "load: open loop, {count} arrivals at {RATE}/s over {CONNS} connections, cold share {COLD_SHARE}, hits with graph {HIT_GRAPH_SHARE}; server workers {WORKERS}"
    ));
    let start = Instant::now() + Duration::from_millis(20);
    let per_conn: Vec<Vec<Arrival>> = (0..CONNS)
        .map(|c| schedule.iter().filter(|a| a.conn == c).copied().collect())
        .collect();
    let warmed_ref = &warmed;
    let results: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|mine| {
                scope.spawn(move || {
                    let mut ex = HttpExchange {
                        client: Client::new(addr),
                        warmed: warmed_ref,
                        input_triangles,
                        failures: vec![],
                        spent: [0.0; 2],
                        store_hits: 0,
                        fit_cache_hits: 0,
                        colds: 0,
                        releases: vec![],
                    };
                    let (records, polls) = drive(mine, start, PACING, &mut ex);
                    (records, polls, ex)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });

    let mut records = Vec::new();
    let mut polls = Polls::default();
    let (mut store_hits, mut fit_hits, mut colds) = (0, 0, 0);
    for (r, p, ex) in results {
        records.extend(r);
        polls.sent += p.sent;
        polls.useful += p.useful;
        for f in ex.failures {
            report.fail(f);
        }
        for (total, part) in spent.iter_mut().zip(ex.spent) {
            *total += part;
        }
        store_hits += ex.store_hits;
        fit_hits += ex.fit_cache_hits;
        colds += ex.colds;
        releases.extend(ex.releases);
    }
    records.sort_by_key(|r| r.arrival.index);

    // The ledger's spend must equal the ε the cold admissions reported.
    for (d, name) in DATASETS.iter().enumerate() {
        let reply = client
            .call("GET", &format!("/budget/{name}"), None)
            .map_err(|e| e.to_string())?;
        let ledger = parse(&reply.body)
            .ok()
            .and_then(|v| field_f64(&v, "spent"))
            .unwrap_or(f64::NAN);
        report.check((ledger - spent[d]).abs() < 1e-9, || {
            format!(
                "{name}: ledger spent {ledger}, cold admissions drew {}",
                spent[d]
            )
        });
    }
    handle.stop();

    let mut tally = Tally::default();
    for r in &records {
        tally.record(r.outcome);
    }
    let ok = |kind_cold: bool| -> Vec<&Record> {
        records
            .iter()
            .filter(|r| {
                r.outcome == Outcome::Ok && matches!(r.arrival.kind, Kind::Cold { .. }) == kind_cold
            })
            .collect()
    };
    let hits = ok(false);
    let cold = ok(true);
    let hit_ms: Vec<f64> = hits.iter().map(|r| r.latency.as_secs_f64() * 1e3).collect();
    latency_metrics(report, "loadgen.hit_ms", &hits);
    latency_metrics(report, "loadgen.cold_ms", &cold);
    let in_limit = records
        .iter()
        .filter(|r| {
            r.outcome == Outcome::Ok
                && r.latency
                    <= match r.arrival.kind {
                        Kind::Hit { .. } => HIT_LIMIT,
                        Kind::Cold { .. } => COLD_LIMIT,
                    }
        })
        .count();
    report.metric(
        "ok_in_limit_ratio",
        in_limit as f64 / records.len() as f64,
        "ratio",
        records.len(),
        &format!(
            "limits {} ms hit, {} ms cold, from due time",
            HIT_LIMIT.as_millis(),
            COLD_LIMIT.as_millis()
        ),
    );
    let sent = records.len() as f64;
    report.info(format!(
        "traffic shares (from responses): store_hit={:.4} fit_cache_hit={:.4} cold={:.4} of {} requests",
        store_hits as f64 / sent,
        fit_hits as f64 / sent,
        colds as f64 / sent,
        records.len()
    ));
    let warm_seed_list: Vec<u64> = warm_seeds.iter().map(|w| w.1).collect();
    report.info(format!(
        "warmed seeds: {warm_seed_list:?}; load seed {}",
        splitmix(args.seed ^ 0x10ad)
    ));
    report.info(format!(
        "request: model=tricycle epsilon={EPSILON} method=truncation iterations=3 threads=1"
    ));
    Ok(Measured {
        records,
        polls,
        tally,
        hit_ms,
        releases,
        schedule,
        warmed,
        cold_admissions: colds + warm_seeds.len() as u64,
    })
}

/// `<prefix>_p50` and `<prefix>_tail` of the records' latencies from due
/// time, in ms.
fn latency_metrics(report: &mut Report, prefix: &str, records: &[&Record]) {
    let ms: Vec<f64> = records
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    report.metric(
        &format!("{prefix}_p50"),
        median(&ms),
        "ms",
        ms.len(),
        "from due time",
    );
    if let Some(t) = tail(&ms) {
        report.metric(
            &format!("{prefix}_tail"),
            t.value,
            "ms",
            t.samples,
            &t.label(),
        );
    }
}

/// The fidelity metrics, means over `releases`.
fn fidelity_metrics(report: &mut Report, releases: &[Fidelity]) {
    let n = releases.len();
    let col = |i: usize| -> Vec<f64> { releases.iter().map(|f| f[i]).collect() };
    report.metric(
        "triangle_ratio",
        mean(&col(0)),
        "ratio",
        n,
        "mean over releases; min(T~,T)/max(T~,T)",
    );
    report.metric("degree_ks", mean(&col(1)), "ratio", n, "mean over releases");
    report.metric(
        "attr_edge_similarity",
        mean(&col(2)),
        "ratio",
        n,
        "mean over releases; 1 - Hellinger",
    );
    report.info(format!(
        "paper measures, mean over {n} releases: triangle_re={} degree_ks={} attr_edge_hellinger={}",
        mean(&col(3)),
        mean(&col(1)),
        1.0 - mean(&col(2))
    ));
}

/// Generates both tenants' inputs; returns the work directory and each
/// input's triangle count.
fn prepare(args: &Args, report: &mut Report) -> Result<(WorkDir, [u64; 2]), String> {
    let work = WorkDir::create(&args.workload).map_err(|e| e.to_string())?;
    let mut triangles = [0; 2];
    for (d, name) in DATASETS.iter().enumerate() {
        let path = work.join(&format!("{name}.agb"));
        generate_input(name, SCALE, DATASET_SEED, &path)?;
        triangles[d] = describe_input(
            report,
            &format!("{name}@{SCALE} (generator seed {DATASET_SEED})"),
            &path,
        )?;
    }
    Ok((work, triangles))
}

/// Untraced run.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let (work, triangles) = prepare(args, report)?;
    set_ups(&work, report)?;
    let m = http_phase(args, &work, triangles, report)?;
    report.tally.absorb(&m.tally);
    let budget = Duration::from_secs_f64(args.seconds as f64 * (1.0 - LOAD_SHARE));
    engine_phase(&work, &m, splitmix(args.seed ^ 0xe9e), budget, report)?;
    fidelity_metrics(report, &m.releases);
    report.metric(
        "peak_rss_mb",
        peak_rss_mb(),
        "MiB",
        1,
        "VmHWM; server and client share the process",
    );
    drop(work);
    Ok(())
}

/// An in-process engine configured like the server's (file-backed ledger,
/// release store, tenants mapped by path), with both tenants registered.
fn engine_like_server(work: &WorkDir, prefix: &str) -> Result<SynthesisEngine, String> {
    let mut engine = SynthesisEngine::new(
        BudgetLedger::open(work.join(&format!("{prefix}-ledger.wal")))
            .map_err(|e| e.to_string())?,
    );
    engine.set_release_store(
        ReleaseStore::open(work.join(&format!("{prefix}-store"))).map_err(|e| e.to_string())?,
    );
    for name in DATASETS {
        let mapped =
            MappedGraph::open(work.join(&format!("{name}.agb"))).map_err(|e| e.to_string())?;
        engine
            .register_mapped_dataset(name, mapped, BUDGET)
            .map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// `setup_s`: the median of `SETUPS` set-ups of the engine behind the
/// server (ledger open + replay, store open, both tenants mapped by path
/// with the verified tier and registered). The server's own start and its
/// two HTTP registrations add socket round trips between threads, whose
/// wake-up latency on a shared host is noisy: timed as the set-up, their
/// median over ten runs moved by 54 % between two sets of runs of the same
/// code. They are printed, not gated.
fn set_ups(work: &WorkDir, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (s, engine) = timed(|| engine_like_server(work, "setup"));
        engine?;
        setups.push(s);
    }
    report.metric(
        "setup_s",
        median(&setups),
        "s",
        setups.len(),
        "median; ledger open + replay, store open, 2 verified mmap registrations",
    );
    Ok(())
}

/// `graph.mmap_open_s`: verified-tier opens of both inputs.
fn mmap_opens(work: &WorkDir, report: &mut Report) -> Result<(), String> {
    let mut opens = vec![];
    for name in DATASETS {
        let path = work.join(&format!("{name}.agb"));
        for _ in 0..SETUP_REPEATS {
            let (s, g) = timed(|| MappedGraph::open(&path));
            g.map_err(|e| e.to_string())?;
            opens.push(s);
        }
    }
    report.metric(
        "graph.mmap_open_s",
        median(&opens),
        "s",
        opens.len(),
        "verified tier, inputs",
    );
    Ok(())
}

/// The reference task over both tenants' inputs.
fn reference_task(work: &WorkDir) -> Result<Reference, String> {
    let inputs = DATASETS
        .iter()
        .map(|name| MappedGraph::open(work.join(&format!("{name}.agb"))))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Reference::new(&inputs.iter().collect::<Vec<_>>()))
}

/// The service's job times without HTTP: the schedule's cold requests run
/// in a closed loop on an in-process engine, each once cold and once warm
/// (the same request again, a fit-cache hit), for `budget`. Once the
/// schedule's cold requests are spent, requests with fresh seeds drawn from
/// `fresh_seed`, alternating between the tenants, fill the rest of it, so
/// that the medians cover the whole phase.
fn engine_phase(
    work: &WorkDir,
    m: &Measured,
    fresh_seed: u64,
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let engine = engine_like_server(work, "engine")?;
    let reference = reference_task(work)?;
    let mut spent = [0.0_f64; 2];
    let (mut cold_s, mut warm_s) = (vec![], vec![]);
    let scheduled = m.schedule.iter().filter_map(|a| match a.kind {
        Kind::Cold { dataset, seed } => Some((dataset, seed)),
        Kind::Hit { .. } => None,
    });
    let mut fresh_rng = StdRng::seed_from_u64(fresh_seed);
    let fresh = (0..).map(move |i: usize| {
        (
            i % DATASETS.len(),
            rand::Rng::gen::<u64>(&mut fresh_rng) >> 1,
        )
    });
    let start = Instant::now();
    let mut ref_s = vec![];
    for (dataset, seed) in scheduled.chain(fresh) {
        if start.elapsed() >= budget && !cold_s.is_empty() {
            break;
        }
        ref_s.push(reference.time());
        let req = request(dataset, seed, false);
        let (s, cold) = timed(|| engine.synthesize(&req));
        let cold = cold.map_err(|e| e.to_string())?;
        cold_s.push(s);
        spent[dataset] += cold.epsilon_spent;
        report.check(!cold.cache_hit && cold.epsilon_spent == EPSILON, || {
            "an engine-phase cold job was not cold".into()
        });
        let (s, warm) = timed(|| engine.synthesize(&req));
        let warm = warm.map_err(|e| e.to_string())?;
        warm_s.push(s);
        report.check(warm.cache_hit && warm.epsilon_spent == 0.0, || {
            "an engine-phase warm job spent ε".into()
        });
        report.check(
            warm.stats == cold.stats && warm.utility == cold.utility,
            || "an engine-phase warm release differs from its cold release".into(),
        );
    }
    for (d, name) in DATASETS.iter().enumerate() {
        let ledger = engine.ledger().status(name).map_or(f64::NAN, |s| s.spent);
        report.check((ledger - spent[d]).abs() < 1e-9, || {
            format!(
                "engine phase {name}: ledger {ledger}, admissions {}",
                spent[d]
            )
        });
    }
    job_metrics(
        report,
        &cold_s,
        &warm_s,
        &ref_s,
        "in-process engine, closed loop",
    );
    Ok(())
}

/// Traced run: the HTTP phase untraced, then its request sequence replayed
/// against an in-process engine with spans around each layer call.
pub fn run_traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let (work, triangles) = prepare(args, report)?;
    let m = http_phase(args, &work, triangles, report)?;
    report.tally.absorb(&m.tally);

    reference_task(&work)?.report(report, REFERENCE_TIMINGS);
    mmap_opens(&work, report)?;
    let engine = engine_like_server(&work, "replay")?;
    let mut spent = [0.0_f64; 2];
    for w in &m.warmed {
        let out = engine
            .synthesize(&request(w.dataset, w.seed, true))
            .map_err(|e| e.to_string())?;
        spent[w.dataset] += out.epsilon_spent;
        report.check(out.graph_text.as_deref() == Some(w.text.as_str()), || {
            "the in-process release differs from the server's".to_string()
        });
    }
    let store = engine.release_store().expect("store attached above");
    let mut trusted = Vec::with_capacity(m.warmed.len());
    for w in &m.warmed {
        let stem = ReleaseStore::release_stem(&request(w.dataset, w.seed, false));
        let path = store.dir().join(format!("{stem}.agb"));
        let (s, g) = timed(|| MappedGraph::open_trusted(path));
        g.map_err(|e| e.to_string())?;
        trusted.push(s);
    }
    report.metric(
        "graph.mmap_open_trusted_s",
        median(&trusted),
        "s",
        trusted.len(),
        "trusted tier, stored releases",
    );

    let tracer = Tracer::default();
    let mut composer = Composer::new(&engine, &tracer);
    let (mut lookups, mut hit_lookups) = (0u64, vec![]);
    let (mut admit_hit, mut run_s) = (vec![], vec![]);
    let mut untraced = 0.0;
    let mut roots = vec![];
    let mut text_s = vec![];
    let mut text_bytes = vec![];
    let mut agb_bytes = vec![];
    let mut release_edges = vec![];
    let mut first_cold = None;
    let mut fresh = StdRng::seed_from_u64(splitmix(args.seed ^ 0xad));
    let replay_budget = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let replay_start = Instant::now();
    for arrival in &m.schedule {
        if replay_start.elapsed() > replay_budget && !roots.is_empty() {
            break;
        }
        let req = match arrival.kind {
            Kind::Hit { key, return_graph } => {
                request(m.warmed[key].dataset, m.warmed[key].seed, return_graph)
            }
            Kind::Cold { dataset, seed } => request(dataset, seed, false),
        };
        lookups += 1;
        let (s, found) = timed(|| engine.store_lookup(&req));
        let dataset = match arrival.kind {
            Kind::Hit { key, return_graph } => {
                hit_lookups.push(s);
                match found {
                    Some(out) => report.check(
                        !return_graph
                            || out.graph_text.as_deref() == Some(m.warmed[key].text.as_str()),
                        || "an in-process store hit differs from its cold release".to_string(),
                    ),
                    None => report.fail("a warmed request missed the in-process store"),
                }
                continue;
            }
            Kind::Cold { dataset, .. } => dataset,
        };
        report.check(found.is_none(), || {
            "a fresh-seed request hit the store".to_string()
        });
        let (admit_s, admission) = timed(|| engine.admit(&req));
        let admission = admission.map_err(|e| e.to_string())?;
        spent[dataset] += admission.epsilon_spent();
        let (ran_s, outcome) = timed(|| engine.run(&req, admission));
        let outcome = outcome.map_err(|e| e.to_string())?;
        run_s.push(ran_s);
        untraced += admit_s + ran_s;
        let (hit_s, again) = timed(|| engine.admit(&req));
        report.check(again.map(|a| a.cache_hit()).unwrap_or(false), || {
            "warm admission missed the fit cache".into()
        });
        admit_hit.push(hit_s);
        let admit_as = request(dataset, rand::Rng::gen::<u64>(&mut fresh) | 1 << 62, false);
        spent[dataset] += EPSILON;
        let job = composer.cold_job(&req, &admit_as)?;
        report.check(
            job.stats == outcome.stats && job.utility == outcome.utility,
            || "the traced composition's release differs from SynthesisEngine::run's".to_string(),
        );
        let (s, text) = timed(|| io::to_text(&job.release));
        text_s.push(s);
        text_bytes.push(text.len() as f64);
        agb_bytes.push(job.artifact.as_ref().map_or(0, Vec::len) as f64);
        release_edges.push(job.stats.edges as f64);
        roots.push(job.root);
        first_cold.get_or_insert((req, text));
    }
    for (d, name) in DATASETS.iter().enumerate() {
        let ledger = engine.ledger().status(name).map_or(f64::NAN, |s| s.spent);
        report.check((ledger - spent[d]).abs() < 1e-9, || {
            format!("replay {name}: ledger {ledger}, admissions {}", spent[d])
        });
    }

    let spans = tracer.spans();
    let traced = roots.iter().map(|&r| spans[r].duration()).sum();
    layer_metrics(report, &spans, &roots, untraced, traced);
    let to_binary = crate::trace::totals(&spans, "graph.to_binary");
    let insert = crate::trace::totals(&spans, "service.store_insert");
    let jobs = roots.len().max(1) as f64;
    report.metric(
        "graph.to_binary_s",
        to_binary.wall / jobs,
        "s",
        roots.len(),
        "mean per cold job",
    );
    report.metric(
        "graph.agb_bytes",
        mean(&agb_bytes),
        "bytes",
        agb_bytes.len(),
        "mean per release",
    );
    report.metric(
        "graph.to_text_s",
        mean(&text_s),
        "s",
        text_s.len(),
        "mean per release",
    );
    report.metric(
        "graph.text_bytes",
        mean(&text_bytes),
        "bytes",
        text_bytes.len(),
        "mean per release",
    );
    report.metric(
        "service.store_insert_s",
        insert.wall / jobs,
        "s",
        roots.len(),
        "mean per cold job",
    );
    report.metric(
        "service.store_bytes",
        mean(&agb_bytes),
        "bytes",
        agb_bytes.len(),
        "written per cold job",
    );
    report.metric(
        "service.store_lookup_s",
        median(&hit_lookups),
        "s",
        hit_lookups.len(),
        "median store-hit lookup",
    );
    report.metric(
        "service.store_hit_ratio",
        hit_lookups.len() as f64 / lookups as f64,
        "ratio",
        lookups as usize,
        "replay",
    );
    report.metric(
        "service.admit_hit_s",
        median(&admit_hit),
        "s",
        admit_hit.len(),
        "median fit-cache-hit admission",
    );
    report.metric(
        "service.run_s",
        mean(&run_s),
        "s",
        run_s.len(),
        "mean SynthesisEngine::run, cold",
    );
    let engine_hit_ms = median(&hit_lookups) * 1e3;
    let http_hit_ms = median(&m.hit_ms);
    report.metric(
        "service.http_share_of_hit",
        (http_hit_ms - engine_hit_ms) / http_hit_ms,
        "ratio",
        m.hit_ms.len(),
        "(hit_ms_p50 - engine store-hit p50) / hit_ms_p50",
    );
    report.metric(
        "service.sheds_503",
        m.tally.shed_503 as f64,
        "count",
        m.records.len(),
        "",
    );
    report.metric(
        "service.sheds_429",
        m.tally.shed_429 as f64,
        "count",
        m.records.len(),
        "",
    );
    report.metric(
        "service.poll_useful_ratio",
        m.polls.useful as f64 / m.polls.sent.max(1) as f64,
        "ratio",
        m.polls.sent as usize,
        "polls that found the job finished / all polls",
    );
    report.metric(
        "service.ledger_spends",
        m.cold_admissions as f64,
        "count",
        1,
        "cold admissions of the HTTP phase",
    );
    side_ledger(report, &work)?;
    let late: Vec<f64> = m
        .records
        .iter()
        .map(|r| r.late.as_secs_f64() * 1e3)
        .collect();
    if let Some(t) = tail(&late) {
        report.metric("loadgen.late_ms_tail", t.value, "ms", t.samples, &t.label());
    }
    report.metric("loadgen.sent", m.records.len() as f64, "count", 1, "");
    report.info(format!(
        "replayed {} arrivals, {} cold jobs traced",
        lookups,
        roots.len()
    ));

    // Edge sampling of one replayed job at one and two threads, which also
    // checks the determinism contract on it.
    let (req, text) = first_cold.ok_or("the replay traced no cold job")?;
    let key = FitKey::new(
        &req.dataset,
        Privacy::Dp { epsilon: EPSILON },
        req.model,
        req.method,
        req.seed,
    );
    let params = engine
        .cache()
        .peek(&key)
        .ok_or("the replayed request is not in the fit cache")?;
    let mut edge = [0.0; 2];
    for (i, threads) in [1usize, 2].into_iter().enumerate() {
        let t = Tracer::default();
        let mut one = req.clone();
        one.threads = threads;
        let mut rng = StdRng::seed_from_u64(req.seed ^ SAMPLING_SEED_SALT);
        let release = synthesize_from_parameters_observed(&params, &config_of(&one), &mut rng, &t)
            .map_err(|e| e.to_string())?
            .freeze();
        report.check(io::to_text(&release) == text, || {
            format!("release differs at {threads} threads")
        });
        edge[i] = crate::trace::totals(&t.spans(), "models.edge_sample").wall;
    }
    report.metric(
        "models.edge_sample_t1_over_t2",
        edge[0] / edge[1],
        "ratio",
        1,
        "one replayed job, 1 vs 2 threads",
    );
    let edge_sample_s = crate::trace::totals(&spans, "models.edge_sample").wall;
    report.metric(
        "models.release_edges",
        mean(&release_edges),
        "count",
        release_edges.len(),
        "mean per release",
    );
    report.metric(
        "models.edges_per_s",
        release_edges.iter().sum::<f64>() / edge_sample_s,
        "1/s",
        release_edges.len(),
        "release edges / edge_sample time",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1, "");
    drop(composer);
    drop(engine);
    drop(work);
    Ok(())
}
