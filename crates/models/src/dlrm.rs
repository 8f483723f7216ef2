//! DLRM — Facebook's Deep Learning Recommendation Model (paper §4.1).
//!
//! The paper trains DLRM with embedding dimension 32 and a fully connected
//! 512-512-256-1 head. Here the sparse features are mean-pooled into one
//! `dim`-wide vector per sample (the paper's "aggregating them as inputs to
//! DNN") and pushed through a real [`Mlp`] with binary-cross-entropy loss
//! against the trace's synthetic click labels.
//!
//! The MLP is shared across the simulated GPUs behind a read-write lock.
//! Every GPU's `forward_backward` only reads it, so the trainers of a step
//! run their dense math at the same time, as data-parallel GPUs do. Each
//! GPU's dense gradients are stashed during backward and applied once per
//! step in GPU-index order by [`EmbeddingModel::end_step`], the MLP's sole
//! writer — a deterministic stand-in for the dense all-reduce, whose
//! communication cost is modeled via [`EmbeddingModel::dense_param_bytes`].

use frugal_core::{BatchGrads, EmbeddingModel};
use frugal_data::{Key, RecTrace};
use frugal_tensor::{bce_with_logits, LinearGrad, Matrix, Mlp};
use parking_lot::{Mutex, RwLock};

/// DLRM over a recommendation trace.
#[derive(Debug)]
pub struct Dlrm {
    trace: RecTrace,
    mlp: RwLock<Mlp>,
    dense_stash: Mutex<Vec<Option<Vec<LinearGrad>>>>,
    dims: Vec<usize>,
    dense_lr: f32,
    /// When false, skip the real MLP math (gradients become a cheap decay
    /// term) while still reporting full DNN FLOPs to the cost model — used
    /// by large benchmark sweeps where only traffic shape matters.
    compute_dense: bool,
}

impl Dlrm {
    /// Creates a DLRM with the paper's head (`512-512-256-1`) over `trace`.
    pub fn paper(trace: RecTrace, seed: u64) -> Self {
        let dim = trace.spec().embedding_dim as usize;
        Self::new(trace, &[dim, 512, 512, 256, 1], 0.01, seed, true)
    }

    /// Creates a DLRM with explicit MLP widths (`dims[0]` must equal the
    /// trace's embedding dimension, `dims.last()` must be 1).
    ///
    /// # Panics
    ///
    /// Panics if the widths don't satisfy the conditions above.
    pub fn new(
        trace: RecTrace,
        dims: &[usize],
        dense_lr: f32,
        seed: u64,
        compute_dense: bool,
    ) -> Self {
        assert_eq!(
            dims[0],
            trace.spec().embedding_dim as usize,
            "MLP input width must match the embedding dimension"
        );
        assert_eq!(
            *dims.last().expect("non-empty dims"),
            1,
            "CTR head is 1-wide"
        );
        let n = trace.n_gpus();
        Dlrm {
            mlp: RwLock::new(Mlp::new(dims, seed)),
            dense_stash: Mutex::new((0..n).map(|_| None).collect()),
            dims: dims.to_vec(),
            trace,
            dense_lr,
            compute_dense,
        }
    }

    /// Number of MLP layers (Exp #11 deepens this).
    pub fn n_layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// The trace this model trains on.
    pub fn trace(&self) -> &RecTrace {
        &self.trace
    }

    /// Click probabilities for a batch: `rows` holds the embeddings of
    /// `keys` (one group of `n_features` keys per sample), flattened like
    /// [`frugal_core::EmbeddingModel::forward_backward`]'s input.
    ///
    /// # Panics
    ///
    /// Panics if the batch is not a multiple of `n_features`, or if the
    /// model was built with `compute_dense = false`.
    pub fn predict(&self, keys: &[Key], rows: &[f32]) -> Vec<f32> {
        assert!(self.compute_dense, "predict requires real dense math");
        let dim = self.dim();
        assert_eq!(rows.len(), keys.len() * dim, "rows/keys mismatch");
        let nf = self.trace.spec().n_features as usize;
        let b = keys.len() / nf;
        assert_eq!(b * nf, keys.len(), "batch not a multiple of n_features");
        let mut pooled = Matrix::zeros(b, dim);
        for s in 0..b {
            let row = pooled.row_mut(s);
            for f in 0..nf {
                let base = (s * nf + f) * dim;
                for (d, v) in row.iter_mut().enumerate() {
                    *v += rows[base + d];
                }
            }
            for v in row.iter_mut() {
                *v /= nf as f32;
            }
        }
        let mlp = self.mlp.read();
        let pass = mlp.forward(&pooled);
        pass.output()
            .as_slice()
            .iter()
            .map(|&x| frugal_tensor::sigmoid(x))
            .collect()
    }
}

impl EmbeddingModel for Dlrm {
    fn dim(&self) -> usize {
        self.dims[0]
    }

    fn forward_backward(&self, gpu: usize, step: u64, keys: &[Key], rows: &[f32]) -> BatchGrads {
        let dim = self.dim();
        assert_eq!(rows.len(), keys.len() * dim, "rows/keys mismatch");
        let nf = self.trace.spec().n_features as usize;
        let b = keys.len() / nf;
        assert_eq!(b * nf, keys.len(), "batch not a multiple of n_features");

        if !self.compute_dense {
            // Cheap surrogate: weight-decay-shaped gradients with realistic
            // sparsity/volume; dense math skipped.
            let emb_grads = rows.iter().map(|&v| 0.01 * v).collect();
            return BatchGrads {
                emb_grads,
                loss: 0.0,
            };
        }

        let labels = self.trace.step_batch(step, gpu).labels;
        assert_eq!(labels.len(), b, "trace labels/batch mismatch");

        // Mean-pool each sample's feature embeddings.
        let mut pooled = Matrix::zeros(b, dim);
        for s in 0..b {
            let row = pooled.row_mut(s);
            for f in 0..nf {
                let base = (s * nf + f) * dim;
                for (d, v) in row.iter_mut().enumerate() {
                    *v += rows[base + d];
                }
            }
            for v in row.iter_mut() {
                *v /= nf as f32;
            }
        }

        let mlp = self.mlp.read();
        let pass = mlp.forward(&pooled);
        let logits: Vec<f32> = pass.output().as_slice().to_vec();
        let (loss, d_logits) = bce_with_logits(&logits, &labels);
        let (dense_grads, d_pooled) = mlp.backward(&pass, &Matrix::from_vec(b, 1, d_logits));
        drop(mlp);
        self.dense_stash.lock()[gpu] = Some(dense_grads);

        // Un-pool: each feature embedding receives d_pooled / n_features.
        let mut emb_grads = vec![0.0f32; rows.len()];
        for s in 0..b {
            let dp = d_pooled.row(s);
            for f in 0..nf {
                let base = (s * nf + f) * dim;
                for (d, &g) in dp.iter().enumerate() {
                    emb_grads[base + d] = g / nf as f32;
                }
            }
        }
        BatchGrads { emb_grads, loss }
    }

    fn end_step(&self, _step: u64) {
        if !self.compute_dense {
            return;
        }
        let mut stash = self.dense_stash.lock();
        let mut mlp = self.mlp.write();
        // Apply per-GPU dense gradients in GPU index order (the
        // deterministic stand-in for an all-reduce + single update).
        for slot in stash.iter_mut() {
            if let Some(grads) = slot.take() {
                mlp.apply_sgd(&grads, self.dense_lr);
            }
        }
    }

    fn dense_flops_per_sample(&self) -> f64 {
        self.dims
            .windows(2)
            .map(|w| 6.0 * (w[0] * w[1]) as f64)
            .sum()
    }

    fn dense_layers(&self) -> u32 {
        (self.dims.len() - 1) as u32
    }

    fn dense_param_bytes(&self) -> u64 {
        self.dims
            .windows(2)
            .map(|w| (w[0] * w[1] + w[1]) as u64 * 4)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::two_gpu_steps;
    use frugal_data::RecDatasetSpec;

    fn small_trace(n_gpus: usize) -> RecTrace {
        let mut spec = RecDatasetSpec::avazu().scaled_to_ids(500);
        spec.embedding_dim = 8;
        RecTrace::new(spec, 16, n_gpus, 7).unwrap()
    }

    #[test]
    fn shapes_and_flops() {
        let m = Dlrm::new(small_trace(1), &[8, 16, 1], 0.01, 1, true);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.n_layers(), 2);
        assert_eq!(m.dense_flops_per_sample(), 6.0 * (8.0 * 16.0 + 16.0));
        assert_eq!(m.dense_param_bytes(), ((8 * 16 + 16) + (16 + 1)) * 4);
        assert_eq!(m.dense_layers(), 2);
    }

    #[test]
    fn forward_backward_produces_aligned_grads() {
        let t = small_trace(1);
        let m = Dlrm::new(t, &[8, 16, 1], 0.01, 1, true);
        let keys = m.trace().step_batch(0, 0).keys;
        let rows = vec![0.01f32; keys.len() * 8];
        let g = m.forward_backward(0, 0, &keys, &rows);
        assert_eq!(g.emb_grads.len(), rows.len());
        assert!(g.loss > 0.0);
        m.end_step(0);
    }

    #[test]
    fn training_reduces_bce() {
        // Full-loop sanity: repeatedly training on the same step's batch
        // must drive the BCE loss down (embeddings + MLP both learn).
        let t = small_trace(1);
        let m = Dlrm::new(t, &[8, 16, 1], 0.05, 3, true);
        let keys = m.trace().step_batch(0, 0).keys;
        let mut rows = vec![0.01f32; keys.len() * 8];
        let first = m.forward_backward(0, 0, &keys, &rows).loss;
        let mut last = first;
        for _ in 0..300 {
            let g = m.forward_backward(0, 0, &keys, &rows);
            last = g.loss;
            for (r, gr) in rows.iter_mut().zip(&g.emb_grads) {
                *r -= 0.5 * gr;
            }
            m.end_step(0);
        }
        assert!(last < first * 0.93, "loss {first} -> {last}");
    }

    #[test]
    fn surrogate_mode_skips_dense() {
        let t = small_trace(1);
        let m = Dlrm::new(t, &[8, 16, 1], 0.01, 1, false);
        let keys = m.trace().step_batch(0, 0).keys;
        let rows = vec![0.5f32; keys.len() * 8];
        let g = m.forward_backward(0, 0, &keys, &rows);
        assert_eq!(g.loss, 0.0);
        assert!((g.emb_grads[0] - 0.005).abs() < 1e-7);
        // Full FLOPs still reported for the cost model.
        assert!(m.dense_flops_per_sample() > 0.0);
    }

    #[test]
    fn predict_outputs_probabilities() {
        let t = small_trace(1);
        let m = Dlrm::new(t, &[8, 16, 1], 0.01, 1, true);
        let keys = m.trace().step_batch(0, 0).keys;
        let rows = vec![0.02f32; keys.len() * 8];
        let probs = m.predict(&keys, &rows);
        assert_eq!(probs.len(), 16);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn concurrent_forward_backward_matches_sequential_bitwise() {
        let dims = [8, 32, 16, 1];
        let trace = small_trace(2);
        let seq = Dlrm::new(trace.clone(), &dims, 0.05, 9, true);
        let par = Dlrm::new(trace.clone(), &dims, 0.05, 9, true);
        let keys = |s, g| trace.step_batch(s, g).keys;
        assert_eq!(
            two_gpu_steps(&seq, keys, 4, false),
            two_gpu_steps(&par, keys, 4, true)
        );
        // Debug prints every f32 in its shortest round-trip form (signed
        // zeros included), so equal text means equal parameter bits.
        assert_eq!(
            format!("{:?}", *seq.mlp.read()),
            format!("{:?}", *par.mlp.read())
        );
    }

    #[test]
    #[should_panic(expected = "input width must match")]
    fn rejects_mismatched_input_width() {
        let _ = Dlrm::new(small_trace(1), &[16, 8, 1], 0.01, 1, true);
    }
}
