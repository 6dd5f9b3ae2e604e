//! `xhc-loadgen`: a closed-loop load generator for the planning daemon.
//!
//! Boots an in-process `xhc-serve` daemon on a loopback socket, warms
//! the plan cache once, then drives it with many concurrent keep-alive
//! clients (default 1000) each issuing a stream of plan requests over
//! one reused connection. Every `200` body is checked byte-for-byte
//! against the offline engine — throughput numbers for wrong answers
//! are worthless — and the run fails if the daemon sheds (`429`)
//! unless `--allow-shed` says shedding is the point of the experiment
//! (in which case every `429` must carry a sane `Retry-After`).
//!
//! Reports p50/p95/p99 request latency and can write (`--json`) or
//! merge (`--merge`, replacing earlier `loadgen/` cases) the numbers
//! into a `BENCH_serve.json`-style snapshot.
//!
//! ```text
//! xhc-loadgen [--clients N] [--requests N] [--workers N] [--threads N]
//!             [--max-inflight N] [--queue-depth N] [--allow-shed]
//!             [--json PATH] [--merge PATH]
//! ```

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use xhc_bench::timing::percentile;
use xhc_core::PartitionEngine;
use xhc_misr::XCancelConfig;
use xhc_serve::{client, Server, ServerConfig};
use xhc_wire::{encode_plan, encode_xmap};
use xhc_workload::WorkloadSpec;

struct Args {
    clients: usize,
    requests: usize,
    workers: usize,
    threads: usize,
    max_inflight: Option<usize>,
    queue_depth: Option<usize>,
    allow_shed: bool,
    json: Option<PathBuf>,
    merge: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 1000,
        requests: 10,
        workers: 8,
        threads: 2,
        max_inflight: None,
        queue_depth: None,
        allow_shed: false,
        json: None,
        merge: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let num = |argv: &[String], i: usize, flag: &str| -> Result<usize, String> {
        argv.get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs an integer argument"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--clients" => {
                args.clients = num(&argv, i, "--clients")?.max(1);
                i += 1;
            }
            "--requests" => {
                args.requests = num(&argv, i, "--requests")?.max(1);
                i += 1;
            }
            "--workers" => {
                args.workers = num(&argv, i, "--workers")?.max(1);
                i += 1;
            }
            "--threads" => {
                args.threads = num(&argv, i, "--threads")?;
                i += 1;
            }
            "--max-inflight" => {
                args.max_inflight = Some(num(&argv, i, "--max-inflight")?.max(1));
                i += 1;
            }
            "--queue-depth" => {
                args.queue_depth = Some(num(&argv, i, "--queue-depth")?.max(1));
                i += 1;
            }
            "--allow-shed" => args.allow_shed = true,
            "--json" => {
                args.json = Some(PathBuf::from(argv.get(i + 1).ok_or("--json needs a path")?));
                i += 1;
            }
            "--merge" => {
                args.merge = Some(PathBuf::from(
                    argv.get(i + 1).ok_or("--merge needs a path")?,
                ));
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

/// One client's tally: latencies of its `200`s plus status counts.
#[derive(Default)]
struct ClientResult {
    latencies_ns: Vec<u64>,
    ok: u64,
    shed: u64,
    shed_without_retry_after: u64,
    shed_bad_retry_after: u64,
    mismatched_bodies: u64,
    other_statuses: u64,
    io_errors: u64,
}

fn run_client(
    addr: SocketAddr,
    requests: usize,
    path: &str,
    body: &[u8],
    expected: &[u8],
    barrier: &Barrier,
) -> ClientResult {
    let mut c = client::Client::new(addr);
    let mut out = ClientResult::default();
    barrier.wait();
    for _ in 0..requests {
        let started = Instant::now();
        match c.post(path, "application/octet-stream", body) {
            Ok(r) if r.status == 200 => {
                out.latencies_ns.push(started.elapsed().as_nanos() as u64);
                out.ok += 1;
                if r.body != expected {
                    out.mismatched_bodies += 1;
                }
            }
            Ok(r) if r.status == 429 => {
                out.shed += 1;
                match r.header("retry-after").and_then(|v| v.parse::<u64>().ok()) {
                    None => out.shed_without_retry_after += 1,
                    Some(secs) if !(1..=60).contains(&secs) => out.shed_bad_retry_after += 1,
                    Some(_) => {}
                }
            }
            Ok(_) => out.other_statuses += 1,
            Err(_) => out.io_errors += 1,
        }
    }
    out
}

/// The snapshot case lines this run contributes.
fn case_lines(tag: &str, lat: &[u64]) -> Vec<String> {
    let min = lat.first().copied().unwrap_or(0);
    let mean = if lat.is_empty() {
        0
    } else {
        lat.iter().sum::<u64>() / lat.len() as u64
    };
    vec![format!(
        "{{\"name\": \"loadgen/{tag}\", \"iters\": {}, \"min_ns\": {min}, \"median_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {mean}}}",
        lat.len(),
        percentile(lat, 50),
        percentile(lat, 95),
        percentile(lat, 99),
    )]
}

/// Merges this run's `loadgen/` cases into an existing snapshot (the
/// line-based format `xhc_bench::timing::Harness::to_json` writes),
/// replacing any previous `loadgen/` cases. A missing or foreign file
/// is rewritten from scratch.
fn merge_snapshot(path: &PathBuf, fresh: &[String]) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut header: Vec<String> = Vec::new();
    let mut cases: Vec<String> = Vec::new();
    let mut in_cases = false;
    for line in existing.lines() {
        if line.trim_start().starts_with("\"cases\"") {
            in_cases = true;
            continue;
        }
        if !in_cases {
            if line.trim() == "{" || line.trim_start().starts_with('"') {
                header.push(line.to_string());
            }
            continue;
        }
        let trimmed = line.trim().trim_end_matches(',');
        if trimmed.starts_with('{') && !trimmed.contains("\"name\": \"loadgen/") {
            cases.push(trimmed.to_string());
        }
    }
    if header.is_empty() {
        header = vec![
            "{".to_string(),
            "  \"group\": \"serve_latency\",".to_string(),
            "  \"budget_ms\": 0,".to_string(),
        ];
    }
    cases.extend(fresh.iter().cloned());
    let mut out = String::new();
    for line in &header {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        out.push_str("    ");
        out.push_str(case);
        if i + 1 < cases.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xhc-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };

    let spec = WorkloadSpec {
        total_cells: 800,
        num_chains: 8,
        num_patterns: 96,
        seed: 0xBEEF,
        ..WorkloadSpec::default()
    };
    let xmap = spec.generate();
    let body = encode_xmap(&xmap);
    let offline = PartitionEngine::new(XCancelConfig::new(32, 7)).run(&xmap);
    let expected = encode_plan(&offline, xmap.num_patterns());
    let path = "/v1/plan?m=32&q=7";

    let store_dir = std::env::temp_dir().join(format!("xhc-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    // Headroom by default: the bench measures latency, not shedding, so
    // admission control must stay out of the way unless the caller
    // narrows it on purpose.
    let config = ServerConfig::new(&store_dir)
        .with_workers(args.workers)
        .with_threads(args.threads)
        .with_max_inflight(args.max_inflight.unwrap_or(args.clients * 2))
        .with_queue_depth(args.queue_depth.unwrap_or(args.clients * 2));
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    // Warm the cache so the measured requests are steady-state hits.
    let warm = client::post(addr, path, "application/octet-stream", &body).expect("warm cache");
    assert_eq!(warm.status, 200, "{}", warm.body_text());
    assert_eq!(
        warm.body, expected,
        "daemon plan differs from offline engine"
    );

    println!(
        "xhc-loadgen: {} keep-alive clients x {} requests against {addr} \
         ({} workers, {} engine threads)",
        args.clients, args.requests, args.workers, args.threads
    );
    let barrier = Arc::new(Barrier::new(args.clients));
    let started = Instant::now();
    let results: Vec<ClientResult> = thread::scope(|scope| {
        let mut joins = Vec::with_capacity(args.clients);
        for _ in 0..args.clients {
            let barrier = Arc::clone(&barrier);
            let (body, expected) = (&body, &expected);
            let requests = args.requests;
            let builder = thread::Builder::new().stack_size(256 * 1024);
            joins.push(
                builder
                    .spawn_scoped(scope, move || {
                        run_client(addr, requests, path, body, expected, &barrier)
                    })
                    .expect("spawn client"),
            );
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let wall = started.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let mut total = ClientResult::default();
    for r in results {
        latencies.extend_from_slice(&r.latencies_ns);
        total.ok += r.ok;
        total.shed += r.shed;
        total.shed_without_retry_after += r.shed_without_retry_after;
        total.shed_bad_retry_after += r.shed_bad_retry_after;
        total.mismatched_bodies += r.mismatched_bodies;
        total.other_statuses += r.other_statuses;
        total.io_errors += r.io_errors;
    }
    latencies.sort_unstable();
    let sent = (args.clients * args.requests) as u64;
    let p50 = percentile(&latencies, 50);
    let p95 = percentile(&latencies, 95);
    let p99 = percentile(&latencies, 99);
    println!(
        "xhc-loadgen: {sent} sent in {:.2}s ({:.0} req/s): {} ok, {} shed, {} other, {} io errors",
        wall.as_secs_f64(),
        sent as f64 / wall.as_secs_f64(),
        total.ok,
        total.shed,
        total.other_statuses,
        total.io_errors
    );
    println!(
        "xhc-loadgen: latency p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms",
        p50 as f64 / 1e6,
        p95 as f64 / 1e6,
        p99 as f64 / 1e6
    );

    handle.shutdown();
    let _ = join.join();
    let _ = std::fs::remove_dir_all(&store_dir);

    let tag = format!("keepalive_hit_{}c", args.clients);
    let lines = case_lines(&tag, &latencies);
    if let Some(json) = &args.json {
        let mut out = String::from("{\n  \"group\": \"serve_load\",\n  \"cases\": [\n");
        out.push_str(&format!("    {}\n", lines[0]));
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(json, out) {
            eprintln!("xhc-loadgen: writing {}: {e}", json.display());
            return ExitCode::FAILURE;
        }
        println!("xhc-loadgen: snapshot written to {}", json.display());
    }
    if let Some(merge) = &args.merge {
        if let Err(e) = merge_snapshot(merge, &lines) {
            eprintln!("xhc-loadgen: merging into {}: {e}", merge.display());
            return ExitCode::FAILURE;
        }
        println!("xhc-loadgen: cases merged into {}", merge.display());
    }

    // Verdicts. Correctness first: any mismatched plan is fatal.
    if total.mismatched_bodies > 0 {
        eprintln!(
            "xhc-loadgen: FAILED: {} responses were not byte-identical to the offline engine",
            total.mismatched_bodies
        );
        return ExitCode::FAILURE;
    }
    if total.other_statuses > 0 || total.io_errors > 0 {
        eprintln!("xhc-loadgen: FAILED: unexpected statuses or transport errors");
        return ExitCode::FAILURE;
    }
    if args.allow_shed {
        if total.shed == 0 {
            eprintln!("xhc-loadgen: FAILED: --allow-shed expected the daemon to shed");
            return ExitCode::FAILURE;
        }
        if total.shed_without_retry_after > 0 || total.shed_bad_retry_after > 0 {
            eprintln!(
                "xhc-loadgen: FAILED: {} 429s without Retry-After, {} with out-of-range values",
                total.shed_without_retry_after, total.shed_bad_retry_after
            );
            return ExitCode::FAILURE;
        }
    } else if total.shed > 0 {
        eprintln!(
            "xhc-loadgen: FAILED: {} requests shed below the configured admission ceiling",
            total.shed
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
