//! Wrappers around the two public seams the engine calls: the sampled
//! workload (`Workload::keys`) and the model (`forward_backward`,
//! `end_step`).
//!
//! Untraced runs only read one clock per step, at stream 0's
//! `forward_backward` entry (the step-time series). Traced runs also time
//! every call through both seams.

use frugal_core::{BatchGrads, EmbeddingModel, Workload};
use frugal_data::Key;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A call counter with accumulated wall time.
#[derive(Debug, Default)]
pub struct CallTimer {
    ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
}

impl CallTimer {
    fn record(&self, start: Instant, items: u64) {
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }
}

/// `Workload` wrapper timing `keys` when traced.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    traced: bool,
    pub keys: CallTimer,
}

impl TimedWorkload {
    pub fn new(inner: Box<dyn Workload>, traced: bool) -> Self {
        TimedWorkload {
            inner,
            traced,
            keys: CallTimer::default(),
        }
    }
}

impl Workload for TimedWorkload {
    fn n_keys(&self) -> u64 {
        self.inner.n_keys()
    }

    fn n_gpus(&self) -> usize {
        self.inner.n_gpus()
    }

    fn samples_per_step(&self) -> u64 {
        self.inner.samples_per_step()
    }

    fn keys(&self, step: u64, gpu: usize) -> Vec<Key> {
        if !self.traced {
            return self.inner.keys(step, gpu);
        }
        let t0 = Instant::now();
        let keys = self.inner.keys(step, gpu);
        self.keys.record(t0, keys.len() as u64);
        keys
    }
}

/// `EmbeddingModel` wrapper: the per-step clock, plus call timers when
/// traced.
pub struct TimedModel {
    inner: Box<dyn EmbeddingModel>,
    traced: bool,
    origin: Instant,
    /// Nanoseconds since `origin` at stream 0's `forward_backward` entry,
    /// per step (0 = not reached).
    step_start_ns: Vec<AtomicU64>,
    pub fb: CallTimer,
    pub end_step: CallTimer,
}

impl TimedModel {
    pub fn new(inner: Box<dyn EmbeddingModel>, steps: u64, traced: bool) -> Self {
        TimedModel {
            inner,
            traced,
            origin: Instant::now(),
            step_start_ns: (0..steps).map(|_| AtomicU64::new(0)).collect(),
            fb: CallTimer::default(),
            end_step: CallTimer::default(),
        }
    }

    /// Wall time between consecutive step starts, in milliseconds.
    pub fn step_intervals_ms(&self) -> Vec<f64> {
        let starts: Vec<u64> = self
            .step_start_ns
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        starts
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0]) as f64 / 1e6)
            .collect()
    }
}

impl EmbeddingModel for TimedModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn forward_backward(&self, gpu: usize, step: u64, keys: &[Key], rows: &[f32]) -> BatchGrads {
        let t0 = Instant::now();
        if gpu == 0 {
            if let Some(slot) = self.step_start_ns.get(step as usize) {
                // Every epoch deals stream 0 to exactly one member, so
                // each step gets exactly one stamp.
                slot.store(
                    t0.duration_since(self.origin).as_nanos() as u64,
                    Ordering::Relaxed,
                );
            }
        }
        let grads = self.inner.forward_backward(gpu, step, keys, rows);
        if self.traced {
            self.fb.record(t0, keys.len() as u64);
        }
        grads
    }

    fn end_step(&self, step: u64) {
        if !self.traced {
            return self.inner.end_step(step);
        }
        let t0 = Instant::now();
        self.inner.end_step(step);
        self.end_step.record(t0, 1);
    }

    fn dense_flops_per_sample(&self) -> f64 {
        self.inner.dense_flops_per_sample()
    }

    fn dense_layers(&self) -> u32 {
        self.inner.dense_layers()
    }

    fn dense_param_bytes(&self) -> u64 {
        self.inner.dense_param_bytes()
    }
}
