//! `serve-online` and `serve-bulk`: an in-process `camp_serve::Server`
//! with the default worker pool and one real calibration (SPR2S, CXL-A),
//! driven by closed-loop clients over one persistent connection each.
//!
//! `serve-online` sends small requests (1–8 signatures), the
//! online-placement caller; `serve-bulk` sends fleet-sized batches of
//! 96–224 signatures, whose frames are many times larger than the 8 KiB
//! `BufWriter` buffer. Both draw their signatures from
//! `camp_bench::corpus`.
//!
//! Every answer is checked bit for bit against a `camp-core`
//! recomputation from the daemon's own calibration, captured through the
//! `calibrate` hook so nothing is fitted twice.

use crate::stats::{self, mae_pct, slowdown};
use crate::suite::{self, DEVICE, PLATFORM};
use crate::trace::{Spans, Tracer};
use crate::{Metrics, Outcome};
use camp_bench::corpus;
use camp_core::{best_shot, Calibration, CampPredictor, InterleaveModel, Signature};
use camp_serve::protocol::{read_frame, write_frame};
use camp_serve::{
    Client, DevicePrediction, PredictRequest, Request, Response, ServeConfig, Server,
};
use camp_sim::{DeviceKind, Platform, Workload};
use camp_workloads::rng::SplitMix;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client-side stages of one request, in order.
pub const CLIENT_STAGES: [&str; 4] = ["render", "write", "wait", "parse"];

/// A socket read that takes longer than this fails the request.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Passes over [`TRUTH`] per run.
const TRUTH_PASSES: usize = 3;

/// The cheapest member of each suite family: real DRAM profiles whose
/// CXL-A slowdown is simulated, sent to the daemon once per run to
/// measure the accuracy of its answers.
const TRUTH: [&str; 13] = [
    "mlc.memset-4m",
    "spec.548.exchange2-1t",
    "gap.tc-road",
    "pbbs.bfs-1t",
    "parsec.swaptions-8t",
    "xs.unionized-lg-8t",
    "redis.scan-sm",
    "voltdb.read-heavy-lg",
    "spark.wordcount-8t",
    "ycsb.a-sm",
    "ai.gpt2-decode",
    "phx.openssl-1t",
    "db.btree_lookup-sm",
];

#[derive(Clone, Copy)]
pub enum Mix {
    Online,
    Bulk,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Online => "serve-online",
            Mix::Bulk => "serve-bulk",
        }
    }

    /// Requests per second of `--seconds`: the fixed amount of work,
    /// sized so one pass lasts about that long on a 2-core machine.
    fn requests_per_second(self) -> usize {
        match self {
            Mix::Online => 9000,
            Mix::Bulk => 18,
        }
    }

    /// Rounds a load pass is cut into, each sent from fresh client
    /// threads on fresh connections so that thread placement on the
    /// shared cores is drawn anew. A bulk request's latency is mostly
    /// timer-driven stalls rather than CPU, and rounds of a few requests
    /// only add noise, so its pass is one round.
    fn rounds(self) -> usize {
        match self {
            Mix::Online => 30,
            Mix::Bulk => 1,
        }
    }

    fn batch(self, rng: &mut SplitMix) -> usize {
        match self {
            Mix::Online => 1 + rng.below(8) as usize,
            Mix::Bulk => 96 + rng.below(129) as usize,
        }
    }
}

/// The seeded request corpus: ids `0..count`, every signature from
/// `camp_bench::corpus`, all for the daemon's calibrated devices.
pub fn corpus(mix: Mix, seed: u64, count: usize) -> Vec<PredictRequest> {
    let mut rng = SplitMix::new(seed);
    (0..count)
        .map(|id| {
            let batch = mix.batch(&mut rng);
            PredictRequest {
                id: id as u64,
                platform: PLATFORM,
                devices: Vec::new(),
                signatures: (0..batch).map(|_| corpus::signature(&mut rng)).collect(),
            }
        })
        .collect()
}

/// Calibrations the daemon fitted at start-up, with the seconds each fit
/// took.
static FITTED: Mutex<Vec<(Calibration, f64)>> = Mutex::new(Vec::new());

/// The daemon's `calibrate` hook: the real fit, with a copy kept for the
/// recomputation.
fn fit_and_keep(platform: Platform, device: DeviceKind) -> Calibration {
    let start = Instant::now();
    let calibration = Calibration::fit(platform, device);
    let seconds = start.elapsed().as_secs_f64();
    FITTED
        .lock()
        .expect("no thread panics holding FITTED")
        .push((calibration.clone(), seconds));
    calibration
}

/// What the daemon should answer for `request`, computed with `camp-core`
/// the way the daemon's contract describes: per signature and device, the
/// slowdown decomposition plus Best-shot over the one-run interleave
/// model.
pub fn recompute(
    request: &PredictRequest,
    predictors: &[(DeviceKind, CampPredictor)],
    tracer: &Tracer,
) -> Result<Vec<Vec<DevicePrediction>>, String> {
    let subject = request.id.to_string();
    let shots = tracer.span("core", "best_shot_batch", &subject, || {
        request
            .signatures
            .iter()
            .enumerate()
            .map(|(index, signature)| {
                let label = format!("request-{}[{index}]", request.id);
                predictors
                    .iter()
                    .map(|(_, predictor)| {
                        InterleaveModel::try_from_signature(signature, predictor, &label)
                            .map(|model| best_shot(&model))
                            .map_err(|error| error.to_string())
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let predictions = tracer.span("core", "predict_batch", &subject, || {
        request
            .signatures
            .iter()
            .map(|signature| {
                predictors
                    .iter()
                    .map(|(_, p)| p.predict_signature(signature))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    Ok(shots
        .into_iter()
        .zip(predictions)
        .map(|(shots, predictions)| {
            shots
                .into_iter()
                .zip(predictions)
                .zip(predictors)
                .map(|((shot, prediction), (device, _))| DevicePrediction {
                    device: *device,
                    prediction,
                    best_ratio: shot.ratio,
                    best_slowdown: shot.predicted_slowdown,
                })
                .collect()
        })
        .collect())
}

/// Checks the daemon's answer to `request` against the recomputation
/// `expected`: the id is echoed, there is one result per signature and
/// per calibrated device, every value matches bit for bit, `best_ratio`
/// lies in [0, 1] and `best_slowdown` is no greater than the returned
/// total or 0.
pub fn check_answer(
    request: &PredictRequest,
    answer: &Response,
    expected: &[Vec<DevicePrediction>],
) -> Result<(), String> {
    let id = request.id;
    let Response::Predictions { id: answered, results } = answer else {
        return Err(format!("request {id}: answered with {}", describe(answer)));
    };
    if *answered != id {
        return Err(format!("request {id}: answer carries id {answered}"));
    }
    if results.len() != request.signatures.len() || expected.len() != results.len() {
        return Err(format!(
            "request {id}: {} results for {} signatures",
            results.len(),
            request.signatures.len()
        ));
    }
    for (index, (got, want)) in results.iter().zip(expected).enumerate() {
        if got.len() != want.len() {
            return Err(format!(
                "request {id}, signature {index}: {} device results, {} devices calibrated",
                got.len(),
                want.len()
            ));
        }
        for (g, w) in got.iter().zip(want) {
            let bits = |d: &DevicePrediction| {
                [
                    d.prediction.drd,
                    d.prediction.cache,
                    d.prediction.store,
                    d.best_ratio,
                    d.best_slowdown,
                ]
                .map(f64::to_bits)
            };
            if g.device != w.device || bits(g) != bits(w) {
                return Err(format!(
                    "request {id}, signature {index}: answered {g:?}, recomputed {w:?}"
                ));
            }
            if !(0.0..=1.0).contains(&g.best_ratio) {
                return Err(format!("request {id}: best_ratio {} outside [0, 1]", g.best_ratio));
            }
            let limit = g.prediction.total().min(0.0) + 1e-9;
            if g.best_slowdown > limit {
                return Err(format!(
                    "request {id}: best_slowdown {} above min(total {}, 0)",
                    g.best_slowdown,
                    g.prediction.total()
                ));
            }
        }
    }
    Ok(())
}

fn describe(response: &Response) -> String {
    match response {
        Response::Predictions { id, .. } => format!("predictions for id {id}"),
        Response::Stats(_) => "a stats snapshot".to_string(),
        Response::Ok => "ok".to_string(),
        Response::Error { code, detail } => format!("error {}: {detail}", code.as_str()),
    }
}

/// One request/response round trip as the client saw it.
struct Exchange {
    latency_us: f64,
    /// Round of the pass the request was sent in.
    round: usize,
    /// Completion time, in seconds since its round began.
    done_s: f64,
    answer: Result<Response, String>,
    request_bytes: usize,
    response_bytes: usize,
}

/// A client connection with its stages apart, so each stage can sit in
/// its own span; traced and untraced passes both use it. It copies
/// `camp_serve::Client` (whose fields are private): the same socket
/// settings as `Client::connect`, the same buffered reader and writer,
/// the same protocol functions. A change to `Client::connect` has to be
/// made here too.
struct StagedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl StagedClient {
    fn connect(addr: SocketAddr) -> std::io::Result<StagedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(StagedClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// One round trip: (answer, request bytes, response bytes).
    fn call(
        &mut self,
        request: &Request,
        id: u64,
        tracer: &Tracer,
    ) -> (Result<Response, String>, usize, usize) {
        let subject = id.to_string();
        tracer.span("serve.client", "request", &subject, || {
            let body =
                tracer.span("serve.client", "render", &subject, || request.to_json().render());
            let sent = tracer
                .span("serve.client", "write", &subject, || write_frame(&mut self.writer, &body));
            if let Err(error) = sent {
                return (Err(error.to_string()), body.len(), 0);
            }
            let frame =
                tracer.span("serve.client", "wait", &subject, || read_frame(&mut self.reader));
            let frame = match frame {
                Ok(Some(frame)) => frame,
                Ok(None) => return (Err("server hung up".to_string()), body.len(), 0),
                Err(error) => return (Err(error.to_string()), body.len(), 0),
            };
            let answer =
                tracer.span("serve.client", "parse", &subject, || Response::from_text(&frame));
            (answer, body.len(), frame.len())
        })
    }
}

/// One load pass: `rounds` rounds of `clients` closed-loop clients,
/// each taking the next unsent request of its round as soon as its
/// previous one is answered. Returns the exchanges in request order and
/// the pass's wall time.
fn load(
    addr: SocketAddr,
    requests: &[Request],
    clients: usize,
    rounds: usize,
    tracer: &Tracer,
) -> (Vec<Exchange>, f64) {
    let start = Instant::now();
    let size = requests.len().div_ceil(rounds).max(1);
    let exchanges = tracer.root("bench", "pass:serve", |root| {
        let mut exchanges = Vec::with_capacity(requests.len());
        for (round, chunk) in requests.chunks(size).enumerate() {
            let next = AtomicUsize::new(0);
            let round_start = Instant::now();
            let mut sent: Vec<(usize, Exchange)> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..clients)
                    .map(|_| {
                        let (next, round_start) = (&next, &round_start);
                        scope.spawn(move || {
                            tracer.with_parent(root, || {
                                client_loop(addr, chunk, round * size, next, round_start, tracer)
                            })
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|worker| worker.join().expect("client threads do not panic"))
                    .collect()
            });
            sent.sort_by_key(|(index, _)| *index);
            exchanges.extend(sent.into_iter().map(|(_, mut exchange)| {
                exchange.round = round;
                exchange
            }));
        }
        exchanges
    });
    (exchanges, start.elapsed().as_secs_f64())
}

/// One client of a round: sends requests of `chunk` (whose first request
/// is number `offset` of the pass) until none is left.
fn client_loop(
    addr: SocketAddr,
    chunk: &[Request],
    offset: usize,
    next: &AtomicUsize,
    round_start: &Instant,
    tracer: &Tracer,
) -> Vec<(usize, Exchange)> {
    let mut connection = StagedClient::connect(addr).map_err(|error| format!("connect: {error}"));
    let mut exchanges = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(request) = chunk.get(index) else {
            return exchanges;
        };
        let start = Instant::now();
        let (answer, request_bytes, response_bytes) = match &mut connection {
            Ok(client) => client.call(request, (offset + index) as u64, tracer),
            Err(error) => (Err(error.clone()), 0, 0),
        };
        let exchange = Exchange {
            latency_us: start.elapsed().as_secs_f64() * 1e6,
            round: 0,
            done_s: round_start.elapsed().as_secs_f64(),
            answer,
            request_bytes,
            response_bytes,
        };
        exchanges.push((index, exchange));
    }
}

/// End-to-end figures of one load pass: the median over its rounds of
/// each round's prediction rate and median latency, and the tail over
/// every request of the pass. Only requests answered with predictions
/// count; a refusal is not a served request, however fast.
struct PassFigures {
    predictions_per_s: f64,
    latency_p50_us: f64,
    latency_tail_us: f64,
    /// Percentile the tail is taken at.
    tail: f64,
}

fn pass_figures(corpus: &[PredictRequest], exchanges: &[Exchange], devices: usize) -> PassFigures {
    let rounds = exchanges.iter().map(|e| e.round + 1).max().unwrap_or(0);
    let mut by_round: Vec<Vec<(f64, f64, usize)>> = vec![Vec::new(); rounds];
    for (request, e) in corpus.iter().zip(exchanges) {
        if let Ok(Response::Predictions { .. }) = e.answer {
            by_round[e.round].push((e.done_s, e.latency_us, request.signatures.len() * devices));
        }
    }
    let (mut rates, mut medians) = (Vec::new(), Vec::new());
    for round in by_round.iter().filter(|round| !round.is_empty()) {
        let wall_s = round.iter().map(|r| r.0).fold(0.0, f64::max);
        let predictions: usize = round.iter().map(|r| r.2).sum();
        let latencies: Vec<f64> = round.iter().map(|r| r.1).collect();
        rates.push(predictions as f64 / wall_s);
        medians.push(stats::median(&latencies));
    }
    let all: Vec<f64> = by_round.iter().flatten().map(|r| r.1).collect();
    let tail = stats::tail_percentile(all.len());
    PassFigures {
        predictions_per_s: stats::median(&rates),
        latency_p50_us: stats::median(&medians),
        latency_tail_us: stats::percentile(&all, tail),
        tail,
    }
}

/// The daemon's `stats` counters, in the order [`Tallies`] keeps them.
const COUNTERS: [&str; 7] = [
    "requests",
    "predictions",
    "completed",
    "shed",
    "protocol_errors",
    "model_errors",
    "deadline_exceeded",
];

/// What the client can tell of the daemon's counters from the answers it
/// received: each counter lies in `[low, high]`. An answer pins its
/// counters; a request refused part-way (deadline, model error) may have
/// counted some of its predictions, and one that broke on the wire may
/// or may not have been counted at all.
#[derive(Default)]
struct Tallies {
    low: [u64; 7],
    high: [u64; 7],
}

impl Tallies {
    fn add(&mut self, counter: usize, low: u64, high: u64) {
        self.low[counter] += low;
        self.high[counter] += high;
    }

    fn count(
        &mut self,
        request: &PredictRequest,
        answer: &Result<Response, String>,
        devices: usize,
    ) {
        use camp_serve::ErrorCode;
        let [requests, predictions, completed, shed, protocol, model, deadline] =
            [0, 1, 2, 3, 4, 5, 6];
        let signatures = (request.signatures.len() * devices) as u64;
        match answer {
            Ok(Response::Predictions { .. }) => {
                self.add(requests, 1, 1);
                self.add(predictions, signatures, signatures);
                self.add(completed, 1, 1);
            }
            Ok(Response::Error { code: ErrorCode::Overloaded, .. }) => self.add(shed, 1, 1),
            Ok(Response::Error { code: ErrorCode::BadRequest, .. }) => self.add(protocol, 1, 1),
            Ok(Response::Error { code: ErrorCode::Deadline, .. }) => {
                self.add(requests, 1, 1);
                self.add(deadline, 1, 1);
                self.add(predictions, 0, signatures);
            }
            Ok(Response::Error { code: ErrorCode::Model, .. }) => {
                self.add(requests, 1, 1);
                self.add(model, 1, 1);
                self.add(predictions, 0, signatures);
            }
            Ok(_) => self.add(requests, 1, 1),
            Err(_) => {
                for counter in [requests, completed, shed, protocol, model, deadline] {
                    self.add(counter, 0, 1);
                }
                self.add(predictions, 0, signatures);
            }
        }
    }
}

/// Checks every answered exchange of a pass against its recomputation
/// and tallies it. Requests that failed (an error answer or a broken
/// connection) are counted; the first few are noted.
fn check_pass(
    corpus: &[PredictRequest],
    exchanges: &[Exchange],
    expected: &[Vec<Vec<DevicePrediction>>],
    devices: usize,
    tallies: &mut Tallies,
    outcome: &mut Outcome,
) {
    for ((request, exchange), expected) in corpus.iter().zip(exchanges).zip(expected) {
        tallies.count(request, &exchange.answer, devices);
        outcome.attempted += 1;
        let failure = match &exchange.answer {
            Ok(Response::Error { code, detail }) => format!("{}: {detail}", code.as_str()),
            Err(error) => error.clone(),
            Ok(answer) => {
                if let Err(problem) = check_answer(request, answer, expected) {
                    if outcome.problems.len() < 10 {
                        outcome.problems.push(problem);
                    }
                }
                continue;
            }
        };
        outcome.failed += 1;
        if outcome.failed <= 3 {
            outcome.notes.push(format!("request {} failed: {failure}", request.id));
        }
    }
}

/// Simulates [`TRUTH`] through the profile-once pipeline and checks the
/// runs, the cheapest against a plain `Machine::run` too. Then sends the
/// DRAM signatures to the daemon in one request with id `id` and pairs
/// its totals with the simulated CXL-A slowdowns. Returns the traced
/// pass, the simulation rate and the pairs.
fn truth(
    addr: SocketAddr,
    id: u64,
    suite: &[Box<dyn Workload>],
    predictors: &[(DeviceKind, CampPredictor)],
    tracer: &Tracer,
    tallies: &mut Tallies,
    outcome: &mut Outcome,
) -> (suite::Pass, f64, Vec<(f64, f64)>) {
    let members: Vec<usize> = TRUTH
        .iter()
        .map(|name| {
            suite
                .iter()
                .position(|w| w.name() == *name)
                .expect("truth workload is in the suite")
        })
        .collect();
    // TRUTH_PASSES passes, so the simulation rate can take each workload's
    // best: a short pass on a shared machine would otherwise take it from
    // one noisy stretch.
    let off = Tracer::new(false);
    let passes: Vec<suite::Pass> = (0..TRUTH_PASSES)
        .map(|i| suite::pass(suite, &members, &predictors[0].1, if i == 0 { tracer } else { &off }))
        .collect();
    for pass in &passes {
        outcome.attempted += members.len();
        outcome.failed += pass.failed;
        for item in &pass.items {
            outcome.problems.extend(suite::check_item(item));
        }
    }
    if let Some(item) = passes[0].items.iter().min_by_key(|item| item.ops) {
        let workload = suite.iter().find(|w| w.name() == item.name).expect("item is in the suite");
        outcome.problems.extend(suite::check_plain_run(item, workload.as_ref()));
    }
    // Each workload's fastest pass: simulated ops per busy host second of
    // one thread.
    let mut best_s: HashMap<&str, f64> = HashMap::new();
    for item in passes.iter().flat_map(|pass| &pass.items) {
        let best = best_s.entry(item.name.as_str()).or_insert(f64::INFINITY);
        *best = best.min(item.latency_s);
    }
    let ops: usize = passes[0].items.iter().map(|item| 2 * item.ops).sum();
    let best_rate = ops as f64 / best_s.values().sum::<f64>();
    drop(best_s);
    let pass = passes.into_iter().next().expect("at least one truth pass");
    let request = PredictRequest {
        id,
        platform: PLATFORM,
        devices: Vec::new(),
        signatures: pass.items.iter().map(|item| Signature::from_report(&item.dram)).collect(),
    };
    let expected = recompute(&request, predictors, &Tracer::new(false));
    let answer = Client::connect(addr, Some(IO_TIMEOUT))
        .and_then(|mut client| client.call(&Request::Predict(request.clone())))
        .map_err(|error| error.to_string());
    tallies.count(&request, &answer, predictors.len());
    outcome.attempted += 1;
    let mut pairs = Vec::new();
    match (&answer, expected) {
        (Ok(Response::Error { code, detail }), _) => {
            outcome.failed += 1;
            outcome.notes.push(format!("truth request failed: {}: {detail}", code.as_str()));
        }
        (Err(error), _) => {
            outcome.failed += 1;
            outcome.notes.push(format!("truth request failed: {error}"));
        }
        (Ok(answer), Ok(expected)) => {
            if let Err(problem) = check_answer(&request, answer, &expected) {
                outcome.problems.push(problem);
            }
            if let Response::Predictions { results, .. } = answer {
                for (item, result) in pass.items.iter().zip(results) {
                    let total = result.first().map_or(f64::NAN, |d| d.prediction.total());
                    pairs.push((total, slowdown(item.dram.cycles, item.slow.cycles)));
                }
            }
        }
        (Ok(_), Err(error)) => {
            outcome.problems.push(format!("truth recomputation failed: {error}"))
        }
    }
    (pass, best_rate, pairs)
}

/// Replays every request of the corpus in-process through the server's
/// stages — `Request::from_text`, the `camp-core` predictor and
/// Best-shot, `Response::to_json().render()` — each in its own span.
/// Returns the rendered response sizes in request order.
fn replay(
    requests: &[Request],
    predictors: &[(DeviceKind, CampPredictor)],
    tracer: &Tracer,
) -> Vec<usize> {
    requests
        .iter()
        .enumerate()
        .map(|(index, request)| {
            let subject = index.to_string();
            let body = request.to_json().render();
            let parsed = tracer.span("serve", "parse", &subject, || Request::from_text(&body));
            let Ok(Request::Predict(parsed)) = parsed else {
                return 0;
            };
            let results = tracer
                .span("serve", "predict", &subject, || recompute(&parsed, predictors, tracer));
            let Ok(results) = results else {
                return 0;
            };
            let response = Response::Predictions { id: parsed.id, results };
            tracer.span("serve", "render", &subject, || response.to_json().render()).len()
        })
        .collect()
}

/// Set-ups per run. `setup_s` is their median: one 13–16 s calibration
/// fit moved by a fifth between runs of the same code.
const SETUPS: usize = 2;

pub fn run(mix: Mix, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let manifest =
        traced.then(|| crate::out_path(&format!("{}-seed{seed}.manifest.jsonl", mix.name())));
    // Set-up: build the suite (where the truth set comes from) and start
    // the daemon, which fits its calibration. Done SETUPS times; the last
    // daemon serves the run.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let (suite, server) = loop {
        let start = Instant::now();
        let suite = camp_workloads::suite();
        let suite_s = start.elapsed().as_secs_f64();
        let last = setups.len() + 1 == SETUPS;
        let config = ServeConfig {
            pairs: vec![(PLATFORM, DEVICE)],
            manifest_out: if last { manifest.clone() } else { None },
            calibrate: fit_and_keep,
            ..ServeConfig::default()
        };
        let server = Server::start(config).expect("the daemon binds a local port");
        setups.push((start.elapsed().as_secs_f64(), suite_s));
        if last {
            break (suite, server);
        }
        server.shutdown();
        if let Err(error) = server.join() {
            outcome.problems.push(format!("daemon shutdown failed: {error}"));
        }
    };
    let fitted = FITTED.lock().expect("no thread panics holding FITTED").clone();
    let fits: Vec<f64> = fitted.iter().map(|(_, seconds)| *seconds).collect();
    let totals: Vec<f64> = setups.iter().map(|(total, _)| *total).collect();
    let builds: Vec<f64> = setups.iter().map(|(_, build)| *build).collect();
    let listens: Vec<f64> = setups
        .iter()
        .zip(&fits)
        .map(|((total, build), fit)| total - build - fit)
        .collect();
    let setup_s = stats::median(&totals);
    let calibration = fitted.last().expect("the daemon fitted its calibration").0.clone();
    let predictors = vec![(DEVICE, CampPredictor::new(calibration))];
    let devices = predictors.len();
    let addr = server.addr();

    let corpus = corpus(mix, seed, mix.requests_per_second() * seconds as usize);
    let requests: Vec<Request> = corpus.iter().cloned().map(Request::Predict).collect();
    let expected: Vec<Vec<Vec<DevicePrediction>>> = corpus
        .iter()
        .map(|request| {
            recompute(request, &predictors, &Tracer::new(false)).unwrap_or_else(|error| {
                outcome.problems.push(format!("recomputing request {}: {error}", request.id));
                Vec::new()
            })
        })
        .collect();
    let signatures: usize = corpus.iter().map(|request| request.signatures.len()).sum();
    let clients = camp_bench::par::default_jobs().min(2);
    let mut tallies = Tallies::default();

    let rss_ready = crate::rss_mb();
    // Warm-up, untimed: the first 2 % of the corpus, so connection set-up
    // and first-touch allocation in the daemon fall outside the pass.
    let warm = (corpus.len() / 50).max(clients);
    let (warm_exchanges, _) =
        load(addr, &requests[..warm], clients, mix.rounds(), &Tracer::new(false));
    check_pass(&corpus, &warm_exchanges, &expected, devices, &mut tallies, &mut outcome);
    let plain = load(addr, &requests, clients, mix.rounds(), &Tracer::new(false));
    let rss_loaded = crate::rss_mb();
    let tracer = Tracer::new(traced);
    let staged = traced.then(|| load(addr, &requests, clients, mix.rounds(), &tracer));
    for (exchanges, _) in std::iter::once(&plain).chain(&staged) {
        check_pass(&corpus, exchanges, &expected, devices, &mut tallies, &mut outcome);
    }
    let (truth_pass, sim_ops_per_s, pairs) = truth(
        addr,
        corpus.len() as u64,
        &suite,
        &predictors,
        &tracer,
        &mut tallies,
        &mut outcome,
    );
    let replayed = traced.then(|| replay(&requests, &predictors, &tracer));

    // The daemon's counters must lie within the client's tallies. The
    // stats request counts itself among the requests (COUNTERS[0]).
    tallies.add(0, 1, 1);
    match Client::connect(addr, Some(IO_TIMEOUT)).and_then(|mut client| client.stats()) {
        Ok(stats) => {
            let counters = [
                stats.requests,
                stats.predictions,
                stats.completed,
                stats.shed,
                stats.protocol_errors,
                stats.model_errors,
                stats.deadline_exceeded,
            ];
            for (counter, (name, got)) in COUNTERS.iter().zip(counters).enumerate() {
                let (low, high) = (tallies.low[counter], tallies.high[counter]);
                if !(low..=high).contains(&got) {
                    let tallied =
                        if low == high { low.to_string() } else { format!("{low}..={high}") };
                    outcome
                        .problems
                        .push(format!("stats: {name} = {got}, client tallied {tallied}"));
                }
                outcome.per_layer.insert(format!("serve.stats.{name}"), got as f64);
            }
        }
        Err(error) => outcome.problems.push(format!("stats request failed: {error}")),
    }
    server.shutdown();
    if let Err(error) = server.join() {
        outcome.problems.push(format!("daemon shutdown failed: {error}"));
    }

    let (exchanges, wall_s) = &plain;
    let figures = pass_figures(&corpus, exchanges, devices);
    outcome.notes.push(format!(
        "set-up: median of {SETUPS}, each {}",
        totals.iter().map(|s| format!("{s:.3} s")).collect::<Vec<_>>().join(", ")
    ));
    outcome.notes.push(format!(
        "truth set: {} workloads, {sim_ops_per_s:.0} simulated ops per busy second (best of {TRUTH_PASSES})",
        truth_pass.items.len()
    ));
    outcome.notes.push(format!(
        "{}: {} requests ({signatures} signatures) from {clients} clients in {wall_s:.3} s, \
         {} rounds, latency tail = p{}",
        mix.name(),
        corpus.len(),
        mix.rounds(),
        figures.tail
    ));
    outcome.end_to_end = Metrics::from([
        ("setup_s".into(), setup_s),
        ("prediction_mae_pct".into(), mae_pct(&pairs)),
        ("predictions_per_s".into(), figures.predictions_per_s),
        ("latency_p50_us".into(), figures.latency_p50_us),
        ("latency_tail_us".into(), figures.latency_tail_us),
    ]);

    let (Some((staged, _)), Some(replayed)) = (staged, replayed) else {
        return outcome;
    };
    let (spans, chrome) = tracer.finish().expect("tracing was on");
    outcome.chrome = Some(chrome);
    for (request, (exchange, rendered)) in corpus.iter().zip(staged.iter().zip(&replayed)) {
        let answered = matches!(exchange.answer, Ok(Response::Predictions { .. }));
        if answered && exchange.response_bytes != *rendered {
            outcome.problems.push(format!(
                "request {}: received a {}-byte answer, the replay renders {rendered} bytes",
                request.id, exchange.response_bytes
            ));
            break;
        }
    }
    let layer = &mut outcome.per_layer;
    suite::layer_metrics(&truth_pass, &spans, layer);
    layer.insert("sim.ops_per_s".into(), sim_ops_per_s);
    serve_layers(&spans, &staged, signatures, layer);
    layer.insert("workloads.suite_build_ms".into(), stats::median(&builds) * 1e3);
    layer.insert("core.calibration_fit_s".into(), stats::median(&fits));
    layer.insert("serve.listen_ms".into(), stats::median(&listens) * 1e3);
    layer.insert("serve.rss_growth_mb".into(), rss_loaded - rss_ready);
    let staged_figures = pass_figures(&corpus, &staged, devices);
    layer.insert(
        "trace.overhead_pct".into(),
        (figures.predictions_per_s / staged_figures.predictions_per_s - 1.0) * 100.0,
    );
    if let Some(path) = manifest {
        manifest_layers(&path, layer, &mut outcome.problems);
    }
    outcome
}

/// Per-layer metrics of the serving path: client stages (mean, median,
/// tail), the replayed server stages, what is left for transport, and
/// frame sizes.
fn serve_layers(spans: &Spans, staged: &[Exchange], signatures: usize, layer: &mut Metrics) {
    for stage in CLIENT_STAGES {
        let values = spans.micros("serve.client", stage);
        let tail = stats::tail_percentile(values.len());
        layer.insert(format!("serve.client.{stage}_us"), stats::mean(&values));
        layer.insert(format!("serve.client.{stage}_us.p50"), stats::median(&values));
        layer.insert(format!("serve.client.{stage}_us.tail"), stats::percentile(&values, tail));
    }
    let server: f64 = ["parse", "predict", "render"]
        .iter()
        .map(|stage| {
            let mean = spans.mean_us("serve", stage);
            layer.insert(format!("serve.{stage}_us"), mean);
            mean
        })
        .sum();
    layer.insert("serve.latency_mean_us".into(), spans.mean_us("serve.client", "request"));
    layer.insert("serve.transport_us".into(), spans.mean_us("serve.client", "wait") - server);
    let per_call_us = |stage| spans.total_s("core", stage) * 1e6 / signatures.max(1) as f64;
    layer.insert("core.predict_us".into(), per_call_us("predict_batch"));
    layer.insert("core.best_shot_us".into(), per_call_us("best_shot_batch"));
    let mean_kib = |bytes: fn(&Exchange) -> usize| {
        staged.iter().map(|e| bytes(e) as f64).sum::<f64>() / (1024.0 * staged.len().max(1) as f64)
    };
    layer.insert("serve.request_kb".into(), mean_kib(|e| e.request_bytes));
    layer.insert("serve.response_kb".into(), mean_kib(|e| e.response_bytes));
}

/// Size of the serve manifest written at `join`, and how long
/// `camp_obs::manifest::validate` takes over it.
fn manifest_layers(path: &std::path::Path, layer: &mut Metrics, problems: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            problems.push(format!("reading the serve manifest {}: {error}", path.display()));
            return;
        }
    };
    let start = Instant::now();
    let summary = camp_obs::manifest::validate(&text);
    layer.insert("obs.manifest_validate_s".into(), start.elapsed().as_secs_f64());
    let records = text.lines().count().saturating_sub(1);
    match summary {
        Ok(summary) if summary.spans + summary.events == records => {}
        Ok(summary) => problems
            .push(format!("serve manifest: {records} records, validator counted {summary:?}")),
        Err(error) => problems.push(format!("serve manifest does not validate: {error}")),
    }
    layer.insert("obs.manifest_records".into(), records as f64);
    layer.insert("obs.manifest_mb".into(), text.len() as f64 / (1 << 20) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::stats::Hyperbola;

    /// A calibration with made-up constants: the checker's tests need
    /// predictions, not a fit.
    fn calibration(device: DeviceKind, slow_idle_latency: f64) -> Calibration {
        Calibration {
            platform: PLATFORM,
            device,
            hyperbola: Hyperbola { p: 1.3, q: 60.0 },
            k_drd: 0.9,
            k_drd_aol: 0.8,
            l3_hit_latency: 70.0,
            k_cache: 0.5,
            k_store: 0.7,
            dram_idle_latency: 239.4,
            slow_idle_latency,
            samples: 5,
        }
    }

    /// A three-signature request for two devices, and its faithful answer.
    fn fixture() -> (PredictRequest, Vec<Vec<DevicePrediction>>, Response) {
        let mut request = corpus(Mix::Online, 7, 1).remove(0);
        let mut rng = SplitMix::new(11);
        request.signatures = (0..3).map(|_| corpus::signature(&mut rng)).collect();
        let predictors = vec![
            (DeviceKind::CxlA, CampPredictor::new(calibration(DeviceKind::CxlA, 449.4))),
            (DeviceKind::Numa, CampPredictor::new(calibration(DeviceKind::Numa, 300.0))),
        ];
        let expected = recompute(&request, &predictors, &Tracer::new(false)).expect("finite");
        let answer = Response::Predictions { id: request.id, results: expected.clone() };
        (request, expected, answer)
    }

    fn results(answer: &mut Response) -> &mut Vec<Vec<DevicePrediction>> {
        match answer {
            Response::Predictions { results, .. } => results,
            _ => unreachable!("fixture answers with predictions"),
        }
    }

    #[test]
    fn a_faithful_answer_passes() {
        let (request, expected, answer) = fixture();
        assert_eq!(check_answer(&request, &answer, &expected), Ok(()));
    }

    #[test]
    fn a_corrupted_prediction_value_is_rejected() {
        let (request, expected, mut answer) = fixture();
        let value = &mut results(&mut answer)[1][0].prediction.drd;
        *value = f64::from_bits(value.to_bits() + 1);
        let error = check_answer(&request, &answer, &expected).unwrap_err();
        assert!(error.contains("signature 1"), "{error}");
    }

    #[test]
    fn a_wrong_response_id_is_rejected() {
        let (request, expected, answer) = fixture();
        let Response::Predictions { results, .. } = answer else {
            unreachable!()
        };
        let answer = Response::Predictions { id: request.id + 1, results };
        let error = check_answer(&request, &answer, &expected).unwrap_err();
        assert!(error.contains("id"), "{error}");
    }

    #[test]
    fn a_missing_device_is_rejected() {
        let (request, expected, mut answer) = fixture();
        results(&mut answer)[2].pop();
        let error = check_answer(&request, &answer, &expected).unwrap_err();
        assert!(error.contains("device"), "{error}");
    }

    #[test]
    fn an_error_answer_and_a_missing_signature_are_rejected() {
        let (request, expected, mut answer) = fixture();
        let refusal = Response::Error {
            code: camp_serve::ErrorCode::Overloaded,
            detail: "queue full".to_string(),
        };
        assert!(check_answer(&request, &refusal, &expected).is_err());
        results(&mut answer).pop();
        assert!(check_answer(&request, &answer, &expected).is_err());
    }

    #[test]
    fn tallies_pin_answered_counters_and_widen_for_broken_requests() {
        let (request, _, answer) = fixture();
        let refusal = Response::Error {
            code: camp_serve::ErrorCode::Overloaded,
            detail: "queue full".to_string(),
        };
        let mut tallies = Tallies::default();
        tallies.count(&request, &Ok(answer), 2);
        tallies.count(&request, &Ok(refusal), 2);
        tallies.count(&request, &Err("connection reset".to_string()), 2);
        // requests, predictions, completed, shed, protocol, model, deadline
        assert_eq!(tallies.low, [1, 6, 1, 1, 0, 0, 0]);
        assert_eq!(tallies.high, [2, 12, 2, 2, 1, 1, 1]);
    }

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        assert_eq!(corpus(Mix::Bulk, 3, 4), corpus(Mix::Bulk, 3, 4));
        assert_ne!(corpus(Mix::Bulk, 3, 4), corpus(Mix::Bulk, 4, 4));
        for request in corpus(Mix::Bulk, 3, 20) {
            assert!((96..=224).contains(&request.signatures.len()));
        }
        for request in corpus(Mix::Online, 3, 200) {
            assert!((1..=8).contains(&request.signatures.len()));
        }
    }
}
