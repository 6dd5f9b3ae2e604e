//! `xhc-perfbench`: the end-to-end benchmark of the xhybrid planning
//! pipeline and planning daemon, with a per-layer ledger.
//!
//! ```text
//! xhc-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! A workload names one of the paper's circuits. Each run sets up its
//! inputs from the seed, then spends about half of `S` in the plan phase
//! (the offline `xhybrid plan --profile` pipeline on the full-size
//! circuit, see `plan.rs`) and the rest serving: an in-process daemon
//! gets scaled CKT-B maps, the same in every workload, first in a closed
//! loop and then open-loop on a rate ladder (see `serve.rs`). Plan passes
//! and the closed loop alternate in eight slices each. Every operation is
//! checked for correctness outside its timed interval. The last line of
//! standard output is one JSON object: `{"correct", "attempted",
//! "failed", "metrics"}`, with the end-to-end metrics under `--trace 0`
//! and the per-layer ledger under `--trace 1`.
//! `RATIONALE.md` says why each workload and metric exists.

mod host;
mod plan;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use xhc_core::SplitStrategy;
use xhc_workload::WorkloadSpec;

use stats::{cpu_ticks, median, peak_rss_mb, percentile, process_cpu_s, Metrics};

/// SplitMix64: derives every input seed from the run's `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One workload: the paper circuit its plan phase plans at full size.
/// The serve phase is the same in every workload.
struct Workload {
    name: &'static str,
    circuit: fn() -> WorkloadSpec,
    /// The plan phase's split strategy.
    strategy: SplitStrategy,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "plan_ckt_a",
        circuit: WorkloadSpec::ckt_a,
        strategy: SplitStrategy::LargestClass,
    },
    Workload {
        name: "plan_ckt_c",
        circuit: WorkloadSpec::ckt_c,
        strategy: SplitStrategy::BestCost,
    },
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Slices the plan phase and the closed-loop serve step are cut into;
/// the slices of the two alternate.
const ROUNDS: usize = 8;
/// Share of `--seconds` the plan phase takes. The closed-loop step (a
/// fixed count, about 11 s) and the ladder (`serve::STEP_SHARE`, a
/// fifth) take the rest.
const PLAN_SHARE: f64 = 0.5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where traces and the daemon's store go: the build directory, which
/// is inside the checkout and ignored by git.
fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(base).join("perfbench")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xhc-perfbench: {e}");
            eprintln!(
                "usage: xhc-perfbench --workload plan_ckt_a|plan_ckt_c --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Fix the default worker pool (used where no explicit thread count
    // reaches) before anything reads it, and the allocator's thresholds
    // before anything large is allocated.
    std::env::set_var("XHC_THREADS", plan::ENGINE_THREADS.to_string());
    let malloc_pinned = host::pin_malloc();
    let placement = host::Placement::from_affinity();
    eprintln!(
        "malloc thresholds pinned: {malloc_pinned}; {}",
        placement.map_or("daemon and generator unpinned".to_string(), |p| format!(
            "daemon on CPU {}, generator on CPU {}",
            p.daemon, p.generator
        ))
    );

    let w = args.workload;
    let base = (w.circuit)();
    let spec = WorkloadSpec {
        seed: SplitMix(args.seed).next_u64() ^ base.seed,
        ..base
    };
    let plan_seconds = args.seconds * PLAN_SHARE;
    let schedule = serve::Schedule::new(args.seed, args.seconds);

    // Set-up: generate the full-size map and every serve map, SETUPS
    // times; keep the last.
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let started = Instant::now();
        let xmap = spec.generate();
        generate_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let maps = serve::generate_maps(args.seed, schedule.num_maps);
        setup_s.push(started.elapsed().as_secs_f64());
        inputs = Some((xmap, maps));
    }
    let (xmap, maps) = inputs.expect("at least one set-up");
    eprintln!(
        "{}: {} {} cells x {} patterns, {} X's; {} serve maps; set-up {:.3} s",
        w.name,
        spec.name,
        xmap.config().total_cells(),
        xmap.num_patterns(),
        xmap.total_x(),
        maps.len(),
        median(&setup_s)
    );

    // The phases alternate in ROUNDS slices, so both sample the host
    // over the whole run rather than over one contiguous window each.
    let dir = out_dir();
    let store = dir.join(format!("store-{}-{}", w.name, std::process::id()));
    let mut planner = plan::Planner::new(&xmap, w.strategy, args.trace);
    let mut serving = serve::Session::start(&maps, &schedule, &store, args.trace, placement);
    let ticks_before = cpu_ticks();
    // CPU time per request the whole process (daemon and generator)
    // spends on each closed-loop slice; the plan phase never runs at the
    // same time.
    let mut serve_cpu_ms = Vec::new();
    for round in 0..ROUNDS {
        planner.run_for(plan_seconds / ROUNDS as f64);
        let cpu_before = process_cpu_s();
        let sent = serving.closed_slice(round, ROUNDS);
        serve_cpu_ms.push(1e3 * (process_cpu_s() - cpu_before) / sent as f64);
    }
    if let (Some((steal0, all0)), Some((steal1, all1))) = (ticks_before, cpu_ticks()) {
        eprintln!(
            "host steal over the measured slices: {:.1}% of CPU time",
            100.0 * (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64
        );
    }
    let planned = planner.finish();
    let served = serving.finish();

    let attempted = planned.attempted + served.attempted;
    let failed = planned.failed + served.failed;
    eprintln!(
        "{}: plan passes {} ({} failed), requests {} ({} failed)",
        w.name, planned.attempted, planned.failed, served.attempted, served.failed
    );
    for class in serve::Class::ALL {
        let (a, f) = served
            .per_class
            .get(class.name())
            .copied()
            .unwrap_or((0, 0));
        eprintln!("  {:<6} attempted {a:>6} failed {f}", class.name());
    }

    // The client's view of the closed-loop step. The tail is taken per
    // slice (1,000 requests, 10 beyond the p99) and reported as the median
    // over the slices, so one slice that met a stalled host does not set
    // it alone.
    let closed = &served.closed_ms;
    let class_p50 = |c: serve::Class| -> f64 {
        median(
            &closed
                .iter()
                .filter(|r| r.0 == c)
                .map(|r| r.1)
                .collect::<Vec<_>>(),
        )
    };
    let slice_p99: Vec<f64> = (0..ROUNDS)
        .map(|k| {
            let slice = &closed[k * closed.len() / ROUNDS..(k + 1) * closed.len() / ROUNDS];
            percentile(&slice.iter().map(|r| r.1).collect::<Vec<_>>(), 99.0)
        })
        .collect();
    let client = [
        ("loadgen.cold_p50_ms", class_p50(serve::Class::Cold)),
        ("loadgen.hit_p50_ms", class_p50(serve::Class::Hit)),
        ("loadgen.fetch_p50_ms", class_p50(serve::Class::Fetch)),
        ("loadgen.race_p50_ms", class_p50(serve::Class::Race)),
        ("loadgen.p99_ms", median(&slice_p99)),
    ];
    for (name, ms) in client {
        eprintln!("{name}: {ms:.4}");
    }
    eprintln!(
        "plan_s over {} passes (quartiles {:.1} / {:.1} / {:.1} ms); p99 of each closed-loop slice {:.2?} ms; serve CPU per request of each slice {:.3?} ms",
        planned.untraced_ms.len(),
        percentile(&planned.untraced_ms, 25.0),
        median(&planned.untraced_ms),
        percentile(&planned.untraced_ms, 75.0),
        slice_p99,
        serve_cpu_ms
    );

    // `plan_s` and the serve CPU figure are the lower quartile of the
    // run's samples. Other tenants' load only ever adds time, and it comes
    // in bursts of seconds that can cover half a run, where a median would
    // fall on whichever side the bursts put it; the lower quartile
    // measures the program's cost when the host is least contended
    // (RATIONALE.md, "Steadiness evidence").
    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m.put("plan_s", percentile(&planned.untraced_ms, 25.0) / 1e3, "s");
        m.put("control_bits", planned.control_bits, "bits");
        m.put("goodput_rps", served.goodput_rps, "1/s");
    } else {
        let unaccounted_pct = plan::print_ledger(&planned);
        let layer =
            |f: fn(&plan::Layers) -> f64| median(&planned.layers.iter().map(f).collect::<Vec<_>>());
        let counter = |f: fn(&plan::Counters) -> f64| {
            median(&planned.counters.iter().map(f).collect::<Vec<_>>())
        };
        m.put("workload.generate_ms", median(&generate_ms), "ms");
        m.put("scan.pack_ms", layer(|l| l.pack), "ms");
        m.put("scan.fill_ms", layer(|l| l.fill), "ms");
        m.put("core.engine_ms", layer(|l| l.engine), "ms");
        m.put("core.rounds", planned.rounds as f64, "count");
        m.put("core.partitions", planned.partitions as f64, "count");
        m.put("core.candidates", counter(|c| c.candidates), "count");
        m.put("core.pruned", counter(|c| c.pruned), "count");
        m.put(
            "core.prune_ratio",
            counter(|c| c.pruned) / counter(|c| c.candidates),
            "ratio",
        );
        m.put(
            "bits.superset_calls",
            counter(|c| c.superset_calls),
            "count",
        );
        m.put("bits.rows_tested", counter(|c| c.rows_tested), "count");
        m.put("bits.lane_words", counter(|c| c.lane_words), "count");
        m.put("bits.gauss_ms", counter(|c| c.gauss_ms), "ms");
        m.put("misr.validate_ms", layer(|l| l.validate), "ms");
        m.put(
            "misr.validated_patterns",
            planned.validated_patterns as f64,
            "count",
        );
        m.put("misr.symbols", planned.symbols as f64, "count");
        m.put("misr.halts", counter(|c| c.halts), "count");
        m.put("misr.x_canceled", counter(|c| c.x_canceled), "count");
        m.put("verify.certify_ms", layer(|l| l.certify), "ms");
        m.put("verify.check_ms", median(&planned.check_ms), "ms");
        m.put("wire.encode_plan_ms", layer(|l| l.encode), "ms");
        m.put("wire.plan_bytes", planned.plan_bytes as f64, "bytes");
        m.put(
            "serve.cpu_per_request_ms",
            percentile(&serve_cpu_ms, 25.0),
            "ms",
        );
        for &(name, value, unit) in &served.layers {
            m.put(name, value, unit);
        }
        for (name, ms) in client {
            m.put(name, ms, "ms");
        }
        m.put("plan.unaccounted_pct", unaccounted_pct, "%");
        let untraced = median(&planned.untraced_ms);
        m.put(
            "trace.overhead_pct",
            100.0 * (median(&planned.traced_ms) - untraced) / untraced,
            "%",
        );
        for (phase, trace) in [("plan", &planned.trace), ("serve", &served.trace)] {
            if let Some(trace) = trace {
                let path = dir.join(format!("trace-{}-{}-{phase}.json", w.name, args.seed));
                match std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, trace.to_chrome_json()))
                {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                }
            }
        }
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        m.to_json()
    );
    ExitCode::SUCCESS
}
