//! # frugal-models — the embedding models of the paper's evaluation
//!
//! * [`Dlrm`] — Facebook's recommendation model (embedding tables + a
//!   512-512-256-1 MLP head, BCE loss), the REC workload of §4.1.
//! * [`KgModel`] with [`KgScorer`] — TransE (the KG workload) plus the
//!   Exp #11 sensitivity scorers DistMult, ComplEx, and SimplE, trained
//!   with margin-ranking loss over negative samples.
//!
//! Both implement [`frugal_core::EmbeddingModel`], so any engine (Frugal,
//! Frugal-Sync, or the baselines) can train them. [`auc`] and [`hits_at_k`]
//! evaluate the trained models.

#![warn(missing_docs)]

mod dlrm;
mod kg;
mod metrics;

pub use dlrm::Dlrm;
pub use kg::{KgModel, KgScorer};
pub use metrics::{auc, hits_at_k};

/// Test support shared by the model modules.
#[cfg(test)]
mod testutil {
    use frugal_core::EmbeddingModel;
    use frugal_data::Key;

    /// Runs `steps` steps of GPUs 0 and 1 on `m` (GPU `g`'s batch at step
    /// `s` is `keys(s, g)`, with deterministic rows), the two
    /// `forward_backward` calls of a step either one after the other or
    /// released together on two threads. Returns every call's gradient and
    /// loss bits.
    pub(crate) fn two_gpu_steps(
        m: &dyn EmbeddingModel,
        keys: impl Fn(u64, usize) -> Vec<Key> + Sync,
        steps: u64,
        concurrent: bool,
    ) -> Vec<Vec<u32>> {
        let fb = |gpu: usize, step: u64| {
            let keys = keys(step, gpu);
            let rows: Vec<f32> = (0..keys.len() * m.dim())
                .map(|i| ((i as u64 * 31 + step * 7 + gpu as u64) % 23) as f32 / 23.0 - 0.5)
                .collect();
            let g = m.forward_backward(gpu, step, &keys, &rows);
            let mut bits: Vec<u32> = g.emb_grads.iter().map(|v| v.to_bits()).collect();
            bits.push(g.loss.to_bits());
            bits
        };
        let mut out = Vec::new();
        for step in 0..steps {
            if concurrent {
                let start = std::sync::Barrier::new(2);
                std::thread::scope(|sc| {
                    let handles: Vec<_> = (0..2)
                        .map(|gpu| {
                            let (start, fb) = (&start, &fb);
                            sc.spawn(move || {
                                start.wait();
                                fb(gpu, step)
                            })
                        })
                        .collect();
                    out.extend(
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("trainer thread")),
                    );
                });
            } else {
                out.push(fb(0, step));
                out.push(fb(1, step));
            }
            m.end_step(step);
        }
        out
    }
}
