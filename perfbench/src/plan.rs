//! The plan phase: the offline `xhybrid plan --profile` pipeline on a
//! full-size circuit, repeated for a fixed time.
//!
//! One pass is pack → engine → mask-fill → cancel validation → encode →
//! certify, each step a call into the crate that owns it. Validation
//! covers the same prefix as the CLI (`PLAN_VALIDATE_PATTERNS` and
//! `PLAN_VALIDATE_SYMBOLS` in `src/bin/xhybrid.rs`). Every pass is
//! checked afterwards, outside its timed interval.

use std::time::Instant;

use xhc_core::{PartitionEngine, PartitionOutcome, PlanOptions, SplitStrategy};
use xhc_logic::Trit;
use xhc_misr::{CancelSession, SessionReport, Taps, XCancelConfig};
use xhc_scan::{ResponseMatrix, XMap};
use xhc_trace::{Trace, TraceSession};
use xhc_verify::PlanCertificate;

use crate::stats::median;

/// Patterns the CLI's validation covers at most.
const VALIDATE_PATTERNS: usize = 64;
/// Symbol budget (`cells × patterns`) of the CLI's validation session.
const VALIDATE_SYMBOLS: usize = 1 << 18;
/// Engine threads of the offline pipeline, fixed so the figures never
/// depend on the host's core count.
pub const ENGINE_THREADS: usize = 2;

/// The X-canceling configuration every phase plans with (the CLI's
/// defaults).
pub fn cancel_config() -> XCancelConfig {
    XCancelConfig::new(32, 7)
}

/// Wall time of each pipeline layer in one pass, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub pack: f64,
    pub engine: f64,
    pub fill: f64,
    pub validate: f64,
    pub encode: f64,
    pub certify: f64,
}

impl Layers {
    /// `(name, ms)` rows in pipeline order.
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("scan.pack", self.pack),
            ("core.engine", self.engine),
            ("scan.fill", self.fill),
            ("misr.validate", self.validate),
            ("wire.encode_plan", self.encode),
            ("verify.certify", self.certify),
        ]
    }

    pub fn sum(&self) -> f64 {
        self.rows().iter().map(|(_, ms)| ms).sum()
    }
}

/// One pipeline pass and everything its correctness check needs.
struct Pass {
    total_ms: f64,
    layers: Layers,
    outcome: PartitionOutcome,
    plan_bytes: Vec<u8>,
    cert: PlanCertificate,
    session: SessionReport,
    sample: usize,
    sample_leaked: usize,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` inside a benchmark-side span named `name`; returns its
/// result and wall time in milliseconds.
fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = xhc_trace::span(name);
    let started = Instant::now();
    let out = f();
    (out, ms_since(started))
}

/// Gates the responses of the first `sample` patterns through the
/// planned masks, X's only and data bits zero, exactly as `xhybrid plan`
/// does before its validation session. Returns the masked responses and
/// the number of X's that leak through.
fn mask_fill(xmap: &XMap, outcome: &PartitionOutcome, sample: usize) -> (ResponseMatrix, usize) {
    let config = xmap.config().clone();
    let cells = config.total_cells();
    let mut masked = ResponseMatrix::filled(config.clone(), sample, Trit::Zero);
    let mut leaked = 0usize;
    for p in 0..sample {
        let part = outcome
            .partitions
            .iter()
            .position(|set| set.contains(p))
            .expect("every pattern is in a partition");
        for c in 0..cells {
            if xmap.is_x(p, config.cell_at(c)) && !outcome.masks[part].masks(c) {
                masked.set(p, config.cell_at(c), Trit::X);
                leaked += 1;
            }
        }
    }
    (masked, leaked)
}

fn pipeline(xmap: &XMap, opts: PlanOptions) -> Pass {
    let cancel = cancel_config();
    let cells = xmap.config().total_cells();
    let sample = xmap
        .num_patterns()
        .min(VALIDATE_PATTERNS)
        .min((VALIDATE_SYMBOLS / cells.max(1)).max(1));
    let span = xhc_trace::span("bench.pipeline");
    let started = Instant::now();
    let (matrix, pack) = layer("bench.pack", || xmap.to_bitmatrix());
    let (outcome, engine) = layer("bench.engine", || {
        PartitionEngine::with_options(cancel, opts).run_with_matrix(xmap, Some(&matrix))
    });
    let ((masked, sample_leaked), fill) = layer("bench.fill", || mask_fill(xmap, &outcome, sample));
    let (session, validate) = layer("bench.validate", || {
        CancelSession::new(xmap.config().clone(), cancel, Taps::default_for(cancel.m()))
            .run(&masked)
    });
    let (plan_bytes, encode) = layer("bench.encode", || {
        xhc_wire::encode_plan(&outcome, xmap.num_patterns())
    });
    let (cert, certify) = layer("bench.certify", || {
        xhc_verify::certify_plan(xmap, cancel, &outcome, &plan_bytes, None)
    });
    let total_ms = ms_since(started);
    drop(span);
    // The packed matrix and the masked responses are freed after the
    // timed interval, as the CLI frees them at exit.
    drop((matrix, masked));
    Pass {
        total_ms,
        layers: Layers {
            pack,
            engine,
            fill,
            validate,
            encode,
            certify,
        },
        outcome,
        plan_bytes,
        cert,
        session,
        sample,
        sample_leaked,
    }
}

/// The total control bits a certificate accounts for, in the cost
/// model's expression shape: `L·C·#partitions + m·q·leakedX/(m−q)`.
fn certified_control_bits(cert: &PlanCertificate) -> f64 {
    let leaked: usize = cert.partitions.iter().map(|p| p.leaked_x).sum();
    let mask = cert.mask_bits as u128 * cert.num_partitions as u128;
    let cancel = cert.m as f64 * cert.q as f64 * leaked as f64 / (cert.m - cert.q) as f64;
    mask as f64 + cancel
}

/// Program counters and spans of one traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub candidates: f64,
    pub pruned: f64,
    pub superset_calls: f64,
    pub rows_tested: f64,
    pub lane_words: f64,
    pub gauss_ms: f64,
    pub halts: f64,
    pub x_canceled: f64,
}

impl Counters {
    fn from_trace(trace: &Trace) -> Counters {
        let c = |name: &str| trace.counter(name).unwrap_or(0) as f64;
        Counters {
            candidates: c("partition.candidates"),
            pruned: c("partition.pruned"),
            superset_calls: c("xbm.superset_calls"),
            rows_tested: c("xbm.rows_tested"),
            lane_words: c("xbm.lane_words"),
            gauss_ms: trace
                .spans("gauss.eliminate")
                .map(|e| e.dur_ns as f64 / 1e6)
                .sum(),
            halts: c("cancel.halts"),
            x_canceled: c("cancel.x_total"),
        }
    }
}

/// What the plan phase measured.
#[derive(Debug, Default)]
pub struct PlanResult {
    /// Wall time of every untraced pass, in milliseconds.
    pub untraced_ms: Vec<f64>,
    /// Wall time of every traced pass (trace mode only).
    pub traced_ms: Vec<f64>,
    /// Layer times of the traced passes (trace mode) or of every pass.
    pub layers: Vec<Layers>,
    /// Program counters of the traced passes.
    pub counters: Vec<Counters>,
    /// Wall time of `xhc_verify::check` on each pass's certificate.
    pub check_ms: Vec<f64>,
    pub control_bits: f64,
    pub partitions: usize,
    pub rounds: usize,
    pub plan_bytes: usize,
    pub validated_patterns: usize,
    pub symbols: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The last traced pass, for the chrome export.
    pub trace: Option<Trace>,
}

/// Runs plan passes on one map in timed slices, accumulating a
/// [`PlanResult`].
pub struct Planner<'a> {
    xmap: &'a XMap,
    opts: PlanOptions,
    trace: bool,
    reference: Vec<u8>,
    out: PlanResult,
}

impl<'a> Planner<'a> {
    /// Runs the untimed warm-up pass, whose plan bytes every later pass
    /// must reproduce.
    pub fn new(xmap: &'a XMap, strategy: SplitStrategy, trace: bool) -> Planner<'a> {
        let opts = PlanOptions {
            strategy,
            threads: ENGINE_THREADS,
            ..PlanOptions::default()
        };
        let warm = pipeline(xmap, opts);
        let out = PlanResult {
            control_bits: warm.outcome.cost.total(),
            partitions: warm.outcome.partitions.len(),
            rounds: warm.outcome.rounds.len(),
            plan_bytes: warm.plan_bytes.len(),
            validated_patterns: warm.sample,
            symbols: warm.sample * xmap.config().total_cells(),
            ..PlanResult::default()
        };
        Planner {
            xmap,
            opts,
            trace,
            reference: warm.plan_bytes,
            out,
        }
    }

    /// Runs passes until `seconds` have gone by, at least one. With
    /// `trace`, every second pass records a trace session; the others
    /// stay untraced, so the difference is the tracing overhead.
    pub fn run_for(&mut self, seconds: f64) {
        let started = Instant::now();
        loop {
            self.pass();
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    fn pass(&mut self) {
        let out = &mut self.out;
        let index = out.attempted + 1;
        let session = if self.trace && index.is_multiple_of(2) {
            Some(TraceSession::begin().expect("no other trace session in the benchmark"))
        } else {
            None
        };
        let pass = pipeline(self.xmap, self.opts);
        if let Some(session) = session {
            let recorded = session.finish();
            out.counters.push(Counters::from_trace(&recorded));
            out.traced_ms.push(pass.total_ms);
            out.layers.push(pass.layers);
            out.trace = Some(recorded);
        } else {
            out.untraced_ms.push(pass.total_ms);
            if !self.trace {
                out.layers.push(pass.layers);
            }
        }
        out.attempted += 1;

        // The correctness gate, outside the timed interval.
        let check_started = Instant::now();
        let checked = xhc_verify::check(
            &pass.cert,
            &pass.outcome,
            &pass.plan_bytes,
            self.xmap,
            cancel_config(),
        );
        out.check_ms.push(ms_since(check_started));
        let mut ok = true;
        if let Err(e) = checked {
            eprintln!("plan pass {index}: certificate check failed: {e}");
            ok = false;
        }
        if pass.outcome.cost.total() != certified_control_bits(&pass.cert) {
            eprintln!(
                "plan pass {index}: control bits {} disagree with the certificate's {}",
                pass.outcome.cost.total(),
                certified_control_bits(&pass.cert)
            );
            ok = false;
        }
        if pass.session.total_x != pass.sample_leaked {
            eprintln!(
                "plan pass {index}: validation saw {} X's, {} leaked through the masks",
                pass.session.total_x, pass.sample_leaked
            );
            ok = false;
        }
        if pass.plan_bytes != self.reference {
            eprintln!("plan pass {index}: plan bytes differ from the warm-up pass");
            ok = false;
        }
        if !ok {
            out.failed += 1;
        }
    }

    pub fn finish(self) -> PlanResult {
        self.out
    }
}

/// Prints the ledger of the traced passes to stderr: each layer's median
/// time and share, and the `unaccounted` row (pipeline time in no layer).
/// Returns the median pass's unaccounted share, in percent.
pub fn print_ledger(result: &PlanResult) -> f64 {
    let total = median(&result.traced_ms);
    eprintln!("plan ledger over {} traced passes:", result.traced_ms.len());
    eprintln!("  {:<18} {:>10} {:>7}", "layer", "median ms", "share");
    for (i, (name, _)) in Layers::default().rows().iter().enumerate() {
        let ms = median(
            &result
                .layers
                .iter()
                .map(|l| l.rows()[i].1)
                .collect::<Vec<_>>(),
        );
        eprintln!("  {name:<18} {ms:>10.3} {:>6.1}%", 100.0 * ms / total);
    }
    let unaccounted: Vec<f64> = result
        .traced_ms
        .iter()
        .zip(&result.layers)
        .map(|(t, l)| t - l.sum())
        .collect();
    let ms = median(&unaccounted);
    eprintln!(
        "  {:<18} {ms:>10.3} {:>6.1}%",
        "unaccounted",
        100.0 * ms / total
    );
    eprintln!("  {:<18} {total:>10.3}", "pipeline");
    median(
        &unaccounted
            .iter()
            .zip(&result.traced_ms)
            .map(|(u, t)| 100.0 * u / t)
            .collect::<Vec<_>>(),
    )
}
