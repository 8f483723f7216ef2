//! One training run — the benchmark's unit operation — under a deadline.
//!
//! The run executes on a detached thread that owns all of its inputs, and
//! the caller waits on a channel with a timeout: `FrugalEngine::run` never
//! returns after a trainer panics (its peers spin at the barrier), so the
//! runner must not wait for it to.

use crate::host;
use crate::seams::{TimedModel, TimedWorkload};
use crate::workloads::{digest, Bench, Oracle, N_GPUS};
use frugal_core::{FrugalEngine, TrainReport, Workload};
use frugal_telemetry::Telemetry;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: only the per-step clock.
    Timed,
    /// `FrugalConfig::checked()`: P²F invariant and race checks armed.
    Checked,
    /// Telemetry attached, seams timed.
    Traced,
}

/// Span ring per engine thread in traced runs (spans are not exported;
/// the ring only has to exist for the recorders).
const TRACE_SPANS_PER_THREAD: usize = 4096;

/// Everything measured about one completed run.
pub struct RunResult {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub samples: u64,
    pub step_intervals_ms: Vec<f64>,
    pub report: TrainReport,
    /// `Workload::keys`: (ns, calls, keys returned) — traced runs only.
    pub keys: (u64, u64, u64),
    /// `forward_backward`: (ns, calls).
    pub fb: (u64, u64),
    /// `end_step`: (ns, calls).
    pub end_step: (u64, u64),
    digest: u64,
}

impl RunResult {
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }
}

/// Why an operation failed.
#[derive(Debug)]
pub enum Failure {
    /// The run thread died (panic in the engine's caller thread).
    Panicked,
    /// No result before the deadline (includes trainer panics, which hang
    /// the engine).
    Overran(Duration),
    /// The checked run reported P²F violations or host-store races.
    Unsafe { violations: usize, races: usize },
    /// The final host store or loss differs from the serial oracle's.
    Mismatch {
        digest: u64,
        oracle_digest: u64,
        final_loss: f32,
        oracle_loss: f32,
    },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Panicked => write!(f, "run thread panicked"),
            Failure::Overran(d) => {
                write!(f, "no result within the {:.0} s deadline", d.as_secs_f64())
            }
            Failure::Unsafe { violations, races } => {
                write!(f, "{violations} P2F violations, {races} races")
            }
            Failure::Mismatch {
                digest,
                oracle_digest,
                final_loss,
                oracle_loss,
            } => write!(
                f,
                "store digest {digest:016x} vs oracle {oracle_digest:016x}, \
                 final loss {final_loss} vs oracle {oracle_loss}"
            ),
        }
    }
}

/// Runs `bench` once in `mode`, waiting at most `deadline`, and checks the
/// result against `oracle`.
pub fn run(
    bench: Bench,
    mode: Mode,
    oracle: &Oracle,
    deadline: Duration,
) -> Result<RunResult, Failure> {
    let (tx, rx) = mpsc::channel();
    let rss_reset = host::reset_peak_rss();
    let handle = std::thread::spawn(move || {
        // A send error only means the caller gave up at its deadline.
        let _ = tx.send(execute(bench, mode));
    });
    let mut result = match rx.recv_timeout(deadline) {
        Ok(r) => r,
        Err(mpsc::RecvTimeoutError::Timeout) => return Err(Failure::Overran(deadline)),
        Err(mpsc::RecvTimeoutError::Disconnected) => return Err(Failure::Panicked),
    };
    // The thread has sent its result and is exiting.
    if handle.join().is_err() {
        return Err(Failure::Panicked);
    }
    result.peak_rss_mb = if rss_reset { host::peak_rss_mb() } else { 0.0 };
    let (violations, races) = (result.report.violations, result.report.races);
    if violations > 0 || races > 0 {
        return Err(Failure::Unsafe { violations, races });
    }
    if result.digest != oracle.digest
        || result.report.final_loss.to_bits() != oracle.final_loss.to_bits()
    {
        return Err(Failure::Mismatch {
            digest: result.digest,
            oracle_digest: oracle.digest,
            final_loss: result.report.final_loss,
            oracle_loss: oracle.final_loss,
        });
    }
    Ok(result)
}

/// What a run trains with: the wrapped inputs and a fresh engine.
struct Setup {
    workload: TimedWorkload,
    model: TimedModel,
    engine: FrugalEngine,
    /// Wall time to build the three.
    seconds: f64,
}

/// Set-up: trace, fresh model and engine (host-store allocation and
/// initialisation), configured for `mode`.
fn set_up(bench: Bench, mode: Mode) -> Setup {
    let t_setup = Instant::now();
    let inputs = bench.inputs();
    let mut cfg = bench.config();
    match mode {
        Mode::Timed => {}
        Mode::Checked => cfg = cfg.checked(),
        Mode::Traced => {
            let ledger_steps = (bench.steps + cfg.lookahead + 2) as usize;
            let max_stalls = bench.steps as usize * N_GPUS * 2;
            cfg = cfg.with_telemetry(Telemetry::with_ledger_capacity(
                TRACE_SPANS_PER_THREAD,
                max_stalls,
                ledger_steps,
            ));
        }
    }
    let traced = mode == Mode::Traced;
    let workload = TimedWorkload::new(inputs.workload, traced);
    let model = TimedModel::new(inputs.model, bench.steps, traced);
    let engine = FrugalEngine::new(cfg, workload.n_keys(), bench.dim());
    Setup {
        workload,
        model,
        engine,
        seconds: t_setup.elapsed().as_secs_f64(),
    }
}

/// Set-up alone, from a trimmed heap like every run; returns its seconds.
pub fn setup_only(bench: Bench) -> f64 {
    host::trim_heap();
    set_up(bench, Mode::Timed).seconds
}

/// The run itself: set-up, training, then the store digest.
fn execute(bench: Bench, mode: Mode) -> RunResult {
    let Setup {
        workload,
        model,
        engine,
        seconds: setup_s,
    } = set_up(bench, mode);

    let cpu0 = host::process_cpu_s();
    let t_run = Instant::now();
    let report = engine.run(&workload, &model);
    let wall_s = t_run.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;

    RunResult {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb: 0.0,
        samples: bench.steps * workload.samples_per_step(),
        step_intervals_ms: model.step_intervals_ms(),
        keys: (
            workload.keys.ns(),
            workload.keys.calls(),
            workload.keys.items(),
        ),
        fb: (model.fb.ns(), model.fb.calls()),
        end_step: (model.end_step.ns(), model.end_step.calls()),
        digest: digest(engine.store()),
        report,
    }
}
