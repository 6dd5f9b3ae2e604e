//! The serve phase: an in-process `xhc-serve` daemon on loopback, sent a
//! seeded, interleaved mix of four request classes in two ways.
//!
//! - The **closed-loop step** gives the class latencies: one connection
//!   sends each request as soon as the previous answer arrives, and each
//!   request is timed from send to answer.
//!
//! The daemon's threads and the generator's keep to a CPU each (see
//! `host.rs`).
//! - The **open-loop ladder** gives the capacity: requests go out at
//!   fixed rates, each timed from the instant it was due, so a stalled
//!   connection charges the wait to every request queued behind it.
//!
//! Every response is checked after its step, outside the timed interval.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use xhc_core::{
    backend_for, BackendId, PartitionEngine, PlanOptions, SplitStrategy, WorkloadInput,
};
use xhc_lint::{check_cancel_params, check_xmap, LintConfig};
use xhc_scan::XMap;
use xhc_serve::client::{self, Client, HttpResponse};
use xhc_serve::{Server, ServerConfig, ServerHandle};
use xhc_trace::{Trace, TraceSession};
use xhc_wire::{encode_plan, encode_xmap, hash_hex, plan_request_hash_with_options};
use xhc_workload::WorkloadSpec;

use crate::host::{self, Placement};
use crate::plan::cancel_config;
use crate::stats::{mean, median, percentile};
use crate::SplitMix;

/// HTTP worker threads of the daemon.
pub const WORKERS: usize = 2;
/// Engine threads per plan inside the daemon.
pub const ENGINE_THREADS: usize = 1;
/// Keep-alive connections the ladder sends over, one thread each;
/// request `i` goes out on connection `i % CONNECTIONS`. The closed-loop
/// step uses the first alone, so no two requests ever overlap there.
pub const CONNECTIONS: usize = 2;
/// Distinct maps the hit, fetch and race classes draw from; all are
/// planned during warm-up. Each class visits them in turn, so every run
/// weighs every map equally: with 16 maps drawn at random, the race
/// median of two seeds differed by 25% on the same host.
pub const HIT_POOL: usize = 64;
/// The request mix, as one block of ten consecutive requests. The heavy
/// classes sit at fixed slots half a block apart, one on each
/// connection, so on the ladder a cold request and a race never overlap
/// each other; the eight light slots hold four hits and four fetches,
/// shuffled per block from the seed.
const BLOCK: usize = 10;
/// The first slot of every block.
const COLD_SLOT: usize = 0;
const RACE_SLOT: usize = 5;
const LIGHT: [Class; 8] = [
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Fetch,
    Class::Fetch,
    Class::Fetch,
    Class::Fetch,
];
/// Requests of the closed-loop step, which every class latency comes
/// from: 800 cold, 800 races, 3,200 hits and 3,200 fetches, so 10 lie
/// beyond the p99 of each of its eight slices.
pub const CLOSED_REQUESTS: usize = 8000;
/// The capacity ladder, requests per second, lowest first.
pub const LADDER_RPS: [f64; 2] = [200.0, 300.0];
/// Share of the run's seconds each ladder step takes: 1,080 and 1,013
/// requests at 45 s, so ten lie beyond each step's p99.
pub const STEP_SHARE: [f64; 2] = [0.12, 0.075];
/// A ladder step passes when its all-request p99 is within this limit.
/// On a quiet host the 300/s step reads about 9 ms; with 8% of the CPU
/// stolen by the hypervisor it read 54 ms, so the limit sits above that.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// ... and the generator sent its median request within this limit of
/// its due time: a backlog that grows over the step pushes the median
/// send far past its due time.
pub const LATE_LIMIT_MS: f64 = 5.0;
/// The engine options every plan request carries.
pub const STRATEGY: SplitStrategy = SplitStrategy::BestCost;

/// A request class of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `POST /v1/plan` of a never-seen map: decode, lint, engine,
    /// certify, three store writes.
    Cold,
    /// `POST /v1/plan` of a cached map: decode, lint, canonical
    /// re-encode, hash, store read.
    Hit,
    /// `GET /v1/plan/{hash}`: store read only.
    Fetch,
    /// `POST /v1/plan/race` across all five backends of a cached map.
    Race,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Cold, Class::Hit, Class::Fetch, Class::Race];

    pub fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Hit => "hit",
            Class::Fetch => "fetch",
            Class::Race => "race",
        }
    }
}

/// One scheduled request: its class, the map it names (an index into
/// the run's serve maps) and when it is due, in seconds from the start
/// of its step (0 throughout the closed-loop step).
#[derive(Debug, Clone, Copy)]
struct Req {
    class: Class,
    map: usize,
    due_s: f64,
}

/// The seeded request schedules of one run.
#[derive(Debug)]
pub struct Schedule {
    /// The closed-loop step, all due at once.
    closed: Vec<Req>,
    /// One request sequence per ladder step. Due times count from the
    /// start of the step.
    ladder: Vec<Vec<Req>>,
    /// Maps the schedules reference: the hit pool, then one per cold
    /// request.
    pub num_maps: usize,
}

impl Schedule {
    /// Draws the class sequence from `seed`: the closed-loop step, then
    /// each ladder step of a run of `seconds`, its requests spaced evenly
    /// at its rate. Cold requests take fresh map indices, so no cold map
    /// is ever submitted twice; the other classes cycle through the pool.
    pub fn new(seed: u64, seconds: f64) -> Schedule {
        let mut rng = SplitMix(seed ^ 0x5e77_e000);
        let mut next_cold = HIT_POOL;
        let mut next_pool = [0usize; Class::ALL.len()];
        // `n` requests, request `i` due at `i * spacing_s`.
        let mut phase = |n: usize, spacing_s: f64| -> Vec<Req> {
            let mut light = LIGHT;
            (0..n)
                .map(|i| {
                    let class = match i % BLOCK {
                        COLD_SLOT => {
                            // A new block: Fisher-Yates over its light slots.
                            for j in (1..light.len()).rev() {
                                light.swap(j, (rng.next_u64() % (j as u64 + 1)) as usize);
                            }
                            Class::Cold
                        }
                        RACE_SLOT => Class::Race,
                        slot => light[slot - 1 - usize::from(slot > RACE_SLOT)],
                    };
                    let map = if class == Class::Cold {
                        next_cold += 1;
                        next_cold - 1
                    } else {
                        let next = &mut next_pool[class as usize];
                        *next += 1;
                        (*next - 1) % HIT_POOL
                    };
                    Req {
                        class,
                        map,
                        due_s: i as f64 * spacing_s,
                    }
                })
                .collect()
        };
        let closed = phase(CLOSED_REQUESTS, 0.0);
        let ladder = LADDER_RPS
            .iter()
            .zip(STEP_SHARE)
            .map(|(&rate, share)| {
                phase(
                    (rate * seconds * share).round().max(1.0) as usize,
                    1.0 / rate,
                )
            })
            .collect();
        Schedule {
            closed,
            ladder,
            num_maps: next_cold,
        }
    }
}

/// Scale divisor of the CKT-B copies the hit, fetch and race classes
/// use.
pub const POOL_SCALE: usize = 20;
/// Scale divisor of the cold maps: twice the pool maps' size, so the
/// engine and certify work, not the store's three file creations,
/// dominates a cold request.
pub const COLD_SCALE: usize = 10;

/// One serve map: the X map, its wire body and its plan's cache key.
pub struct ServeMap {
    xmap: XMap,
    body: Vec<u8>,
    hash: u64,
}

fn plan_options(threads: usize) -> PlanOptions {
    PlanOptions {
        strategy: STRATEGY,
        threads,
        ..PlanOptions::default()
    }
}

/// Generates the `count` serve maps of a run: the hit pool, then the
/// cold maps, each a scaled copy of CKT-B with its own seed drawn from
/// `seed`.
pub fn generate_maps(seed: u64, count: usize) -> Vec<ServeMap> {
    let cancel = cancel_config();
    (0..count)
        .map(|i| {
            let scale = if i < HIT_POOL { POOL_SCALE } else { COLD_SCALE };
            let xmap = WorkloadSpec {
                seed: SplitMix(seed ^ 0x0005_e7e0 ^ ((i as u64) << 20)).next_u64(),
                ..WorkloadSpec::ckt_b().scaled(scale)
            }
            .generate();
            let body = encode_xmap(&xmap);
            let hash =
                plan_request_hash_with_options(&body, cancel.m(), cancel.q(), &plan_options(0));
            ServeMap { xmap, body, hash }
        })
        .collect()
}

/// The offline plan the daemon must return for `map`, byte for byte.
fn oracle(map: &ServeMap) -> Vec<u8> {
    let outcome =
        PartitionEngine::with_options(cancel_config(), plan_options(ENGINE_THREADS)).run(&map.xmap);
    encode_plan(&outcome, map.xmap.num_patterns())
}

/// What one request saw: latency from its due time and from its send
/// time, how late it was sent, and the response.
struct Outcome {
    latency_ms: f64,
    service_ms: f64,
    late_ms: f64,
    response: Option<HttpResponse>,
}

fn send(client: &mut Client, req: &Req, maps: &[ServeMap]) -> Option<HttpResponse> {
    let map = &maps[req.map];
    let query = match STRATEGY {
        SplitStrategy::BestCost => "strategy=best-cost",
        SplitStrategy::LargestClass => "strategy=largest",
    };
    let result = match req.class {
        Class::Cold | Class::Hit => client.post(
            &format!("/v1/plan?{query}"),
            "application/octet-stream",
            &map.body,
        ),
        Class::Fetch => client.get(&format!("/v1/plan/{}", hash_hex(map.hash))),
        Class::Race => client.post(
            &format!("/v1/plan/race?{query}"),
            "application/octet-stream",
            &map.body,
        ),
    };
    result.ok()
}

/// Sends `reqs`: request `i` goes out on connection `i % clients.len()`
/// at its due time, or as soon as that connection is free if it is late
/// (all of them, in the closed-loop step). The sending threads hold
/// themselves to `cpu`. Returns the outcomes in schedule order.
fn drive(
    clients: &mut [Client],
    reqs: &[Req],
    maps: &[ServeMap],
    cpu: Option<usize>,
) -> Vec<Outcome> {
    let lanes = clients.len();
    let start = Instant::now() + Duration::from_millis(2);
    let base_s = reqs.first().map_or(0.0, |r| r.due_s);
    let mut per_lane: Vec<Vec<(usize, Outcome)>> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        host::pin_thread(cpu);
                    }
                    let mut out = Vec::new();
                    for (i, req) in reqs.iter().enumerate().skip(lane).step_by(lanes) {
                        let due = start + Duration::from_secs_f64(req.due_s - base_s);
                        let now = Instant::now();
                        if now < due {
                            thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let response = send(client, req, maps);
                        let done = Instant::now();
                        out.push((
                            i,
                            Outcome {
                                latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                                service_ms: (done - sent).as_secs_f64() * 1e3,
                                late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                                response,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut slots: Vec<Option<Outcome>> = (0..reqs.len()).map(|_| None).collect();
    for lane in per_lane.iter_mut() {
        for (i, outcome) in lane.drain(..) {
            slots[i] = Some(outcome);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("every request was sent"))
        .collect()
}

/// Whether `outcome` is the correct answer to `req`: status 200, the
/// cache header its class implies, and a body byte-identical to the
/// offline plan (for a race, a hybrid leg carrying the same plan hash).
fn correct(req: &Req, outcome: &Outcome, maps: &[ServeMap], expected: &[Option<Vec<u8>>]) -> bool {
    let Some(r) = &outcome.response else {
        return false;
    };
    let hex = hash_hex(maps[req.map].hash);
    let plan = expected[req.map]
        .as_deref()
        .expect("every requested map has an oracle plan");
    r.status == 200
        && r.header("x-xhc-plan-hash") == Some(hex.as_str())
        && match req.class {
            Class::Cold => r.header("x-xhc-cache") == Some("miss") && r.body == plan,
            Class::Hit => r.header("x-xhc-cache") == Some("hit") && r.body == plan,
            Class::Fetch => r.body == plan,
            Class::Race => {
                let body = r.body_text();
                body.matches("\"backend\":\"").count() == BackendId::ALL.len()
                    && body.contains("\"backend\":\"hybrid\"")
                    && body.contains(&format!("\"plan_hash\":\"{hex}\",\"cache\":\"hit\""))
            }
        }
}

/// Parses the daemon's `/metrics` page into `name{labels} -> value`.
fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let page = client::get(addr, "/metrics")
        .map(|r| r.body_text())
        .unwrap_or_default();
    page.lines()
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Counter and stage-histogram growth summed over pairs of scrapes.
#[derive(Default)]
struct Deltas(HashMap<String, f64>);

impl Deltas {
    fn add(&mut self, before: &HashMap<String, f64>, after: &HashMap<String, f64>) {
        for (key, value) in after {
            *self.0.entry(key.clone()).or_default() +=
                value - before.get(key).copied().unwrap_or(0.0);
        }
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Mean milliseconds per observation of a stage histogram.
    fn stage_mean_ms(&self, stage: &str) -> f64 {
        let sum = self.get(&format!("xhc_stage_latency_ns_sum{{stage=\"{stage}\"}}"));
        let count = self.get(&format!("xhc_stage_latency_ns_count{{stage=\"{stage}\"}}"));
        if count > 0.0 {
            sum / count / 1e6
        } else {
            0.0
        }
    }
}

/// What the serve phase measured.
#[derive(Default)]
pub struct ServeResult {
    /// Every closed-loop request's class and latency from send to answer
    /// in ms, in schedule order (a failed request counts as infinitely
    /// late).
    pub closed_ms: Vec<(Class, f64)>,
    /// Good requests per second at the highest ladder step that passed
    /// (0 if none did).
    pub goodput_rps: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Attempted and failed requests per class, over every phase.
    pub per_class: HashMap<&'static str, (u64, u64)>,
    /// Per-layer figures (trace mode only).
    pub layers: Vec<(&'static str, f64, &'static str)>,
    pub trace: Option<Trace>,
}

impl ServeResult {
    /// Counts the checked requests of one phase.
    fn account(&mut self, reqs: &[Req], ok: &[bool]) {
        for (req, good) in reqs.iter().zip(ok) {
            let entry = self.per_class.entry(req.class.name()).or_default();
            entry.0 += 1;
            self.attempted += 1;
            if !good {
                entry.1 += 1;
                self.failed += 1;
            }
        }
    }
}

/// A running daemon and the requests sent to it so far.
pub struct Session<'a> {
    maps: &'a [ServeMap],
    schedule: &'a Schedule,
    store_dir: &'a Path,
    trace: bool,
    addr: SocketAddr,
    handle: ServerHandle,
    runner: thread::JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
    expected: Vec<Option<Vec<u8>>>,
    result: ServeResult,
    /// Outcomes of the closed-loop step so far, in schedule order.
    closed: Vec<Outcome>,
    deltas: Deltas,
    /// The CPU the generator's threads hold themselves to.
    generator_cpu: Option<usize>,
}

impl<'a> Session<'a> {
    /// Boots the daemon on a fresh store under `store_dir` and warms it,
    /// untimed: every pool map is planned (cold), then touched through
    /// the hit, fetch and race paths on every connection. With a
    /// `placement`, the daemon's threads and the generator's each keep
    /// to their own CPU.
    pub fn start(
        maps: &'a [ServeMap],
        schedule: &'a Schedule,
        store_dir: &'a Path,
        trace: bool,
        placement: Option<Placement>,
    ) -> Session<'a> {
        let _ = std::fs::remove_dir_all(store_dir);
        let config = ServerConfig::new(store_dir)
            .with_workers(WORKERS)
            .with_threads(ENGINE_THREADS);
        let server = Server::bind("127.0.0.1:0", config).expect("bind a loopback port");
        let addr = server.local_addr();
        let handle = server.handle();
        // The event loop holds itself to the daemon's CPU before it spawns
        // the workers, which inherit it.
        let daemon_cpu = placement.map(|p| p.daemon);
        let runner = thread::spawn(move || {
            if let Some(cpu) = daemon_cpu {
                host::pin_thread(cpu);
            }
            server.run()
        });
        let mut expected: Vec<Option<Vec<u8>>> = vec![None; maps.len()];
        for (i, map) in maps.iter().enumerate().take(HIT_POOL) {
            expected[i] = Some(oracle(map));
        }
        let mut session = Session {
            maps,
            schedule,
            store_dir,
            trace,
            addr,
            handle,
            runner,
            clients: (0..CONNECTIONS).map(|_| Client::new(addr)).collect(),
            expected,
            result: ServeResult::default(),
            closed: Vec::new(),
            deltas: Deltas::default(),
            generator_cpu: placement.map(|p| p.generator),
        };
        let prime: Vec<Req> = (0..HIT_POOL)
            .map(|map| Req {
                class: Class::Cold,
                map,
                due_s: 0.0,
            })
            .collect();
        let touch: Vec<Req> = (0..HIT_POOL)
            .flat_map(|map| {
                [Class::Hit, Class::Fetch, Class::Race].map(|class| Req {
                    class,
                    map,
                    due_s: 0.0,
                })
            })
            .collect();
        for reqs in [&prime, &touch] {
            let outcomes = drive(&mut session.clients, reqs, maps, session.generator_cpu);
            let ok: Vec<bool> = reqs
                .iter()
                .zip(&outcomes)
                .map(|(r, o)| correct(r, o, maps, &session.expected))
                .collect();
            session.result.account(reqs, &ok);
        }
        session
    }

    /// Sends segment `k` of `n` equal segments of the closed-loop step,
    /// bracketed by `/metrics` scrapes (and, in trace mode, a trace
    /// session; the last one is kept for the chrome export). Returns the
    /// number of requests sent.
    pub fn closed_slice(&mut self, k: usize, n: usize) -> usize {
        let reqs = &self.schedule.closed;
        let segment = &reqs[k * reqs.len() / n..(k + 1) * reqs.len() / n];
        let before = scrape(self.addr);
        let session = if self.trace {
            Some(TraceSession::begin().expect("no other trace session in the benchmark"))
        } else {
            None
        };
        let outcomes = drive(
            &mut self.clients[..1],
            segment,
            self.maps,
            self.generator_cpu,
        );
        if let Some(session) = session {
            self.result.trace = Some(session.finish());
        }
        self.deltas.add(&before, &scrape(self.addr));
        self.closed.extend(outcomes);
        segment.len()
    }

    /// Sends the ladder steps, shuts the daemon down, checks every
    /// response and evaluates the ladder.
    pub fn finish(self) -> ServeResult {
        let Session {
            maps,
            schedule,
            store_dir,
            trace,
            handle,
            runner,
            mut clients,
            mut expected,
            mut result,
            closed,
            deltas,
            generator_cpu,
            ..
        } = self;
        assert_eq!(
            closed.len(),
            schedule.closed.len(),
            "every closed-loop segment was sent"
        );
        let steps: Vec<Vec<Outcome>> = schedule
            .ladder
            .iter()
            .map(|reqs| drive(&mut clients, reqs, maps, generator_cpu))
            .collect();
        drop(clients);
        handle.shutdown();
        match runner.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("serve: daemon failed: {e}"),
            Err(_) => eprintln!("serve: daemon thread panicked"),
        }

        // The oracle for every cold map, then the checks, all untimed.
        for (i, slot) in expected.iter_mut().enumerate().skip(HIT_POOL) {
            *slot = Some(oracle(&maps[i]));
        }
        let check = |reqs: &[Req], outcomes: &[Outcome]| -> Vec<bool> {
            reqs.iter()
                .zip(outcomes)
                .map(|(r, o)| correct(r, o, maps, &expected))
                .collect()
        };

        let ok = check(&schedule.closed, &closed);
        result.account(&schedule.closed, &ok);
        result.closed_ms = schedule
            .closed
            .iter()
            .zip(&closed)
            .zip(&ok)
            .map(|((r, o), g)| (r.class, if *g { o.service_ms } else { f64::INFINITY }))
            .collect();

        for (step, (reqs, outcomes)) in schedule.ladder.iter().zip(&steps).enumerate() {
            let ok = check(reqs, outcomes);
            result.account(reqs, &ok);
            let lat: Vec<f64> = outcomes
                .iter()
                .zip(&ok)
                .map(|(o, g)| if *g { o.latency_ms } else { f64::INFINITY })
                .collect();
            let late: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
            let p99 = percentile(&lat, 99.0);
            let late_p50 = median(&late);
            let passed =
                p99 <= LATENCY_LIMIT_MS && late_p50 <= LATE_LIMIT_MS && ok.iter().all(|g| *g);
            // Good requests over the step's wall time, first due to last
            // completion.
            let span_s = outcomes
                .iter()
                .zip(reqs)
                .map(|(o, r)| r.due_s + o.latency_ms / 1e3)
                .fold(0.0, f64::max);
            let good = lat.iter().filter(|&&ms| ms <= LATENCY_LIMIT_MS).count();
            let goodput = good as f64 / span_s;
            eprintln!(
                "serve ladder {} rps: p99 {p99:.2} ms, late p50 {late_p50:.3} ms, goodput {goodput:.1} rps, {}",
                LADDER_RPS[step],
                if passed { "pass" } else { "FAIL" }
            );
            if passed {
                result.goodput_rps = goodput;
            }
        }

        if trace {
            result.layers = layer_metrics(maps, &closed, &steps[0], &deltas);
        }
        let _ = std::fs::remove_dir_all(store_dir);
        result
    }
}

/// The serve-side per-layer figures: stage means from the `/metrics`
/// deltas over the closed-loop step, the front end's share of its
/// client latency, the generator's lateness on the first ladder step,
/// and offline timings of the layers a request runs (wire encode, lint
/// gate, each backend) on the pool maps.
fn layer_metrics(
    maps: &[ServeMap],
    closed: &[Outcome],
    first_step: &[Outcome],
    deltas: &Deltas,
) -> Vec<(&'static str, f64, &'static str)> {
    let hits = deltas.get("xhc_cache_hits_total");
    let misses = deltas.get("xhc_cache_misses_total");
    let service = mean(&closed.iter().map(|o| o.service_ms).collect::<Vec<_>>());
    let late: Vec<f64> = first_step.iter().map(|o| o.late_ms).collect();
    let mut out = vec![
        (
            "serve.queue_wait_ms",
            deltas.stage_mean_ms("queue_wait"),
            "ms",
        ),
        ("serve.decode_ms", deltas.stage_mean_ms("decode"), "ms"),
        ("serve.lint_ms", deltas.stage_mean_ms("lint"), "ms"),
        ("serve.plan_ms", deltas.stage_mean_ms("plan"), "ms"),
        ("serve.encode_ms", deltas.stage_mean_ms("encode"), "ms"),
        ("serve.store_ms", deltas.stage_mean_ms("store"), "ms"),
        ("serve.handler_ms", deltas.stage_mean_ms("total"), "ms"),
        ("serve.hit_ratio", hits / (hits + misses), "ratio"),
        ("serve.shed", deltas.get("xhc_shed_total"), "count"),
        ("serve.timeouts", deltas.get("xhc_timeouts_total"), "count"),
        (
            "aio.frontend_ms",
            service - deltas.stage_mean_ms("queue_wait") - deltas.stage_mean_ms("total"),
            "ms",
        ),
        ("loadgen.late_ms", percentile(&late, 99.0), "ms"),
    ];

    let pool = &maps[..HIT_POOL];
    let time_ms = |f: &dyn Fn(&ServeMap)| -> f64 {
        median(
            &pool
                .iter()
                .map(|m| {
                    let started = Instant::now();
                    f(m);
                    started.elapsed().as_secs_f64() * 1e3
                })
                .collect::<Vec<_>>(),
        )
    };
    out.push((
        "wire.encode_xmap_ms",
        time_ms(&|m| {
            std::hint::black_box(encode_xmap(&m.xmap));
        }),
        "ms",
    ));
    out.push((
        "wire.xmap_bytes",
        median(&pool.iter().map(|m| m.body.len() as f64).collect::<Vec<_>>()),
        "bytes",
    ));
    let cancel = cancel_config();
    out.push((
        "lint.gate_ms",
        time_ms(&|m| {
            let lint = LintConfig::default();
            let mut report = check_xmap(&lint, &m.xmap);
            report.merge(check_cancel_params(&lint, cancel.m(), cancel.q()));
            std::hint::black_box(report);
        }),
        "ms",
    ));
    for (id, name) in [
        (BackendId::Hybrid, "core.backend.hybrid_ms"),
        (BackendId::MaskingOnly, "core.backend.masking_ms"),
        (BackendId::CancelingOnly, "core.backend.canceling_ms"),
        (BackendId::Superset, "core.backend.superset_ms"),
        (BackendId::XCode, "core.backend.xcode_ms"),
    ] {
        let opts = PlanOptions {
            backend: id,
            ..plan_options(ENGINE_THREADS)
        };
        out.push((
            name,
            time_ms(&|m| {
                std::hint::black_box(
                    backend_for(id).plan(&WorkloadInput::new(&m.xmap, cancel), &opts),
                );
            }),
            "ms",
        ));
    }
    out
}
