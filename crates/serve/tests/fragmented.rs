//! Wire-level and robustness tests for the event loop: fragmented and
//! pipelined requests must reproduce the committed golden responses
//! (`tests/golden/*.http`) byte for byte at every engine thread count;
//! concurrent same-workload submissions must share one packed matrix
//! build; overload must shed with `429` + `Retry-After`; a slow-loris
//! sender must be timed out with `408`; and the keep-alive client must
//! reuse and recover connections.
//!
//! The golden files were recorded from a daemon answering each request
//! with `Connection: close` framing; a keep-alive response differs from
//! them only in its `Connection` header.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

use xhc_serve::{client, Server, ServerConfig};
use xhc_wire::encode_xmap;
use xhc_workload::WorkloadSpec;

/// A small but nontrivial workload (a few hundred X's).
fn test_spec() -> WorkloadSpec {
    WorkloadSpec {
        total_cells: 300,
        num_chains: 6,
        num_patterns: 48,
        seed: 0xCAFE,
        ..WorkloadSpec::default()
    }
}

/// The cache-hit response to `POST /v1/plan?m=32&q=7` with the
/// [`test_spec`] X map as its body.
const GOLDEN_PLAN_HIT: &[u8] = include_bytes!("golden/plan_hit_m32_q7.http");
/// The answer to a `Transfer-Encoding: chunked` plan request.
const GOLDEN_CHUNKED_501: &[u8] = include_bytes!("golden/chunked_501.http");
/// The answer to a partial request head followed by silence.
const GOLDEN_SLOW_LORIS_408: &[u8] = include_bytes!("golden/slow_loris_408.http");
/// The answer to `GET /healthz`.
const GOLDEN_HEALTHZ: &[u8] = include_bytes!("golden/healthz.http");

/// A heavier workload, for tests that need the engine busy long enough
/// for concurrency to be observable.
fn slow_spec() -> WorkloadSpec {
    WorkloadSpec {
        total_cells: 4000,
        num_chains: 8,
        num_patterns: 96,
        seed: 0xBEEF,
        ..WorkloadSpec::default()
    }
}

struct TestServer {
    addr: std::net::SocketAddr,
    handle: xhc_serve::ServerHandle,
    join: Option<thread::JoinHandle<std::io::Result<()>>>,
    store_dir: PathBuf,
}

impl TestServer {
    /// Starts a daemon on its own store directory.
    fn start(tag: &str, configure: impl FnOnce(ServerConfig) -> ServerConfig) -> TestServer {
        let store_dir =
            std::env::temp_dir().join(format!("xhc-fragmented-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&store_dir);
        let config = configure(ServerConfig::new(&store_dir).with_workers(8));
        let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            join: Some(join),
            store_dir,
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        let _ = fs::remove_dir_all(&self.store_dir);
    }
}

/// Serializes a plan POST; `close` controls the `Connection` header.
fn render_plan_request(path: &str, body: &[u8], close: bool) -> Vec<u8> {
    let mut head = format!(
        "POST {path} HTTP/1.1\r\nHost: xhc-serve\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\n",
        body.len()
    );
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    let mut buf = head.into_bytes();
    buf.extend_from_slice(body);
    buf
}

/// Writes `wire` in `chunk`-byte fragments with a pause between each —
/// many TCP segments for one request — then reads the response to EOF.
fn send_fragmented(addr: std::net::SocketAddr, wire: &[u8], chunk: usize) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for piece in wire.chunks(chunk) {
        stream.write_all(piece).expect("write fragment");
        stream.flush().unwrap();
        thread::sleep(Duration::from_millis(1));
    }
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

/// Writes `wire` in one segment and reads the response(s) to EOF.
fn send_whole(addr: std::net::SocketAddr, wire: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(wire).expect("write request");
    stream.flush().unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

/// Splits one HTTP response off the front of `buf` using its
/// `Content-Length`, returning `(response, rest)`.
fn split_response(buf: &[u8]) -> (&[u8], &[u8]) {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head terminator")
        + 4;
    let head = std::str::from_utf8(&buf[..head_end]).expect("ASCII head");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .expect("Content-Length header")
        .parse()
        .expect("integer Content-Length");
    buf.split_at(head_end + content_length)
}

/// Asserts `response` equals `golden` byte for byte, printing both as
/// lossy UTF-8 on a mismatch (plan bodies are binary).
fn assert_golden(response: &[u8], golden: &[u8], what: &str) {
    assert!(
        response == golden,
        "{what} differs from the golden transcript\n--- got ---\n{}\n--- golden ---\n{}",
        String::from_utf8_lossy(response),
        String::from_utf8_lossy(golden)
    );
}

/// Primes `server`'s store so the compared responses are cache hits (a
/// cold miss carries its own engine wall time, which is never
/// reproducible byte for byte).
fn prime(server: &TestServer, body: &[u8]) {
    let r = client::post(
        server.addr,
        "/v1/plan?m=32&q=7",
        "application/octet-stream",
        body,
    )
    .expect("prime");
    assert_eq!(r.status, 200, "{}", r.body_text());
}

#[test]
fn fragmented_requests_match_the_golden_transcript() {
    let body = encode_xmap(&test_spec().generate());
    for engine_threads in [1usize, 2, 8] {
        let server = TestServer::start(&format!("frag-{engine_threads}"), |c| {
            c.with_threads(engine_threads)
        });
        prime(&server, &body);
        // One request over many small TCP segments.
        let wire = render_plan_request("/v1/plan?m=32&q=7", &body, true);
        let response = send_fragmented(server.addr, &wire, 64);
        assert_golden(
            &response,
            GOLDEN_PLAN_HIT,
            &format!("fragmented response at {engine_threads} engine threads"),
        );
    }
}

#[test]
fn pipelined_requests_match_the_golden_transcript() {
    let body = encode_xmap(&test_spec().generate());
    for engine_threads in [1usize, 2, 8] {
        let server = TestServer::start(&format!("pipe-{engine_threads}"), |c| {
            c.with_threads(engine_threads)
        });
        prime(&server, &body);
        // Two requests in ONE segment: a keep-alive plan fetch, then a
        // closing plan fetch. The event loop must answer both, in
        // order, on the one connection.
        let mut wire = render_plan_request("/v1/plan?m=32&q=7", &body, false);
        wire.extend_from_slice(&render_plan_request("/v1/plan?m=32&q=7", &body, true));
        let combined = send_whole(server.addr, &wire);
        let (first, rest) = split_response(&combined);
        let (second, tail) = split_response(rest);
        assert!(tail.is_empty(), "unexpected trailing bytes");

        // The keep-alive response differs from the golden one only in
        // its Connection header; normalize the (ASCII) head only — the
        // body is binary plan bytes.
        let head_len = first
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator")
            + 4;
        let mut first_normalized = std::str::from_utf8(&first[..head_len])
            .expect("ASCII head")
            .replace("Connection: keep-alive", "Connection: close")
            .into_bytes();
        first_normalized.extend_from_slice(&first[head_len..]);
        assert_golden(
            &first_normalized,
            GOLDEN_PLAN_HIT,
            &format!("pipelined response 1 at {engine_threads} engine threads"),
        );
        assert_golden(
            second,
            GOLDEN_PLAN_HIT,
            &format!("pipelined response 2 at {engine_threads} engine threads"),
        );
    }
}

#[test]
fn concurrent_best_cost_submissions_share_one_matrix_build() {
    xhc_trace::enable_stats();
    // The big workload: its BestCost engine run takes tens of
    // milliseconds, and the shared matrix stays alive for the whole
    // run — so barrier-released concurrent submissions overlap the
    // builder comfortably even on a loaded CI machine.
    let xmap = slow_spec().generate();
    let body = encode_xmap(&xmap);
    // How many rows one packed build streams (the `xbm.stream_rows`
    // cost of a single build), measured offline. This bumps the stat
    // registry too, so snapshot after it.
    let rows_per_build = xmap.to_bitmatrix().num_rows() as u64;
    assert!(rows_per_build > 0);
    let stat = |name: &str| -> u64 {
        xhc_trace::stats_snapshot()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| v)
    };

    let server = TestServer::start("batch", |c| c.with_threads(2));
    const CLIENTS: usize = 4;
    // Sharing is only guaranteed while requests actually overlap, so a
    // pathological scheduler stall can legitimately split the build;
    // retry a fresh round (distinct cache keys each time) before
    // declaring the batching path broken.
    const ATTEMPTS: usize = 3;
    let mut built_rows = 0;
    let mut batched = 0;
    for attempt in 0..ATTEMPTS {
        let rows_before = stat("xbm.stream_rows");
        let batched_before = stat("serve.batched");
        let barrier = Barrier::new(CLIENTS);
        let results: Vec<u16> = thread::scope(|scope| {
            let mut joins = Vec::new();
            for i in 0..CLIENTS {
                let body = body.clone();
                let addr = server.addr;
                let barrier = &barrier;
                let rounds = 40 + attempt * CLIENTS + i;
                joins.push(scope.spawn(move || {
                    barrier.wait();
                    // Same workload, different engine options: distinct
                    // cache keys (no single-flight merge), one shared
                    // packed-matrix build.
                    let path = format!("/v1/plan?m=32&q=7&strategy=best-cost&max_rounds={rounds}");
                    client::post(addr, &path, "application/octet-stream", &body)
                        .expect("post plan")
                        .status
                }));
            }
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for status in results {
            assert_eq!(status, 200);
        }
        built_rows = stat("xbm.stream_rows") - rows_before;
        batched = stat("serve.batched") - batched_before;
        if built_rows == rows_per_build {
            break;
        }
    }
    assert_eq!(
        built_rows, rows_per_build,
        "expected exactly one packed-matrix build for {CLIENTS} concurrent submissions \
         in at least one of {ATTEMPTS} rounds"
    );
    assert_eq!(
        batched,
        (CLIENTS - 1) as u64,
        "every non-building submission must reuse the shared matrix"
    );
}

#[test]
fn overload_sheds_with_retry_after() {
    let body = encode_xmap(&slow_spec().generate());
    let server = TestServer::start("shed", |c| {
        c.with_threads(1)
            .with_workers(1)
            .with_max_inflight(1)
            .with_queue_depth(1)
    });
    const CLIENTS: usize = 6;
    let barrier = Barrier::new(CLIENTS);
    let responses: Vec<_> = thread::scope(|scope| {
        let mut joins = Vec::new();
        for i in 0..CLIENTS {
            let body = body.clone();
            let addr = server.addr;
            let barrier = &barrier;
            joins.push(scope.spawn(move || {
                barrier.wait();
                // Distinct cache keys so single-flight cannot collapse
                // the load before admission control sees it.
                let path = format!("/v1/plan?m=32&q=7&max_rounds={}", 50 + i);
                client::post(addr, &path, "application/octet-stream", &body).expect("post plan")
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed = responses.iter().filter(|r| r.status == 429).count();
    assert_eq!(ok + shed, CLIENTS, "only 200 or 429 expected");
    assert!(ok >= 1, "at least one request must be admitted");
    assert!(
        shed >= 1,
        "a 1-deep daemon under 6 concurrent plans must shed"
    );
    for r in responses.iter().filter(|r| r.status == 429) {
        let retry: u64 = r
            .header("retry-after")
            .expect("429 must carry Retry-After")
            .parse()
            .expect("Retry-After is integral seconds");
        assert!(
            (1..=60).contains(&retry),
            "Retry-After {retry} out of range"
        );
    }
    // The shed counter made it to /metrics.
    let page = client::get(server.addr, "/metrics").expect("scrape metrics");
    let shed_metric: u64 = page
        .body_text()
        .lines()
        .find(|l| l.starts_with("xhc_shed_total "))
        .expect("xhc_shed_total present")
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(shed_metric, shed as u64);
}

#[test]
fn chunked_transfer_encoding_is_rejected_with_501() {
    // Bodies are Content-Length framed only: a chunked request gets an
    // explicit 501 with a diagnostic body instead of a generic parse
    // failure.
    let server = TestServer::start("chunked", |c| c.with_threads(1));
    let wire: &[u8] = b"POST /v1/plan?m=32&q=7 HTTP/1.1\r\n\
        Host: xhc-serve\r\n\
        Transfer-Encoding: chunked\r\n\
        Connection: close\r\n\r\n\
        4\r\nBODY\r\n0\r\n\r\n";
    let response = send_whole(server.addr, wire);
    assert_golden(&response, GOLDEN_CHUNKED_501, "chunked request");
}

#[test]
fn slow_loris_senders_get_408() {
    let server = TestServer::start("loris", |c| c.with_threads(1).with_read_timeout_ms(150));
    // A partial request head, then silence: the daemon must answer 408
    // instead of holding the connection forever.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /v1/plan HTTP/1.1\r\nHost: xhc-serve\r\n")
        .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read 408");
    assert_golden(&response, GOLDEN_SLOW_LORIS_408, "slow-loris answer");
}

#[test]
fn idle_connections_are_closed_silently() {
    let server = TestServer::start("idle", |c| c.with_threads(1).with_read_timeout_ms(100));
    // A connection that never sends a byte is not a slow loris — it is
    // just idle keep-alive, and is closed without a response.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read EOF");
    assert!(response.is_empty(), "idle close must not send bytes");
}

/// A fake daemon that answers each of `connections` connections with
/// one golden `/healthz` response (`Connection: close`) and then closes
/// it. Returns its address and a join handle yielding the request heads
/// it read.
fn one_shot_healthz(connections: usize) -> (std::net::SocketAddr, thread::JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let join = thread::spawn(move || {
        let mut heads = Vec::new();
        for _ in 0..connections {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream);
            let mut head = String::new();
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).expect("read request") == 0 || line == "\r\n" {
                    break;
                }
                head.push_str(&line);
            }
            let mut stream = reader.into_inner();
            stream.write_all(GOLDEN_HEALTHZ).expect("write response");
            heads.push(head);
        }
        heads
    });
    (addr, join)
}

#[test]
fn keep_alive_client_reuses_and_recovers() {
    let event = TestServer::start("client-ev", |c| c.with_threads(1));
    let mut c = client::Client::new(event.addr);
    assert!(!c.is_connected());
    let first = c.get("/healthz").expect("first get");
    assert_eq!(first.status, 200);
    assert!(c.is_connected(), "keep-alive connection must be cached");
    let second = c.get("/metrics").expect("second get");
    assert_eq!(second.status, 200);
    assert!(c.is_connected());
    // POST over the same connection works too.
    let body = encode_xmap(&test_spec().generate());
    let planned = c
        .post("/v1/plan?m=32&q=7", "application/octet-stream", &body)
        .expect("post plan");
    assert_eq!(planned.status, 200, "{}", planned.body_text());

    // A server that answers `Connection: close` and hangs up: the
    // client must honour the header and reconnect for the next call.
    let (addr, fake) = one_shot_healthz(2);
    let mut c = client::Client::new(addr);
    let r = c.get("/healthz").expect("one-shot get");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, b"ok\n");
    assert!(
        !c.is_connected(),
        "a Connection: close response must drop the cached stream"
    );
    let r = c.get("/healthz").expect("reconnected get");
    assert_eq!(r.status, 200);
    let heads = fake.join().expect("fake server");
    assert_eq!(heads.len(), 2, "the second call must open a new connection");
    assert!(heads
        .iter()
        .all(|h| h.starts_with("GET /healthz HTTP/1.1\r\n")));
}

#[test]
fn healthz_matches_the_golden_transcript() {
    let server = TestServer::start("healthz", |c| c.with_threads(1));
    let response = send_whole(
        server.addr,
        b"GET /healthz HTTP/1.1\r\nHost: xhc-serve\r\nConnection: close\r\n\r\n",
    );
    assert_golden(&response, GOLDEN_HEALTHZ, "/healthz");
}
