//! Knowledge-graph embedding models (paper §4.1 and Exp #11).
//!
//! Four scorers over (head, relation, tail) triples: TransE (the paper's
//! main KG model, dim 400, negative batch 200, margin ranking loss) plus
//! the Exp #11 sensitivity set — DistMult, ComplEx, SimplE.
//!
//! Entity embeddings live in the engines' host store; relation embeddings
//! (a small table — 1.3 k–14.8 k rows) are dense parameters owned by the
//! model behind a read-write lock, like DLRM's MLP: every GPU's
//! `forward_backward` only reads them, concurrently, and
//! [`EmbeddingModel::end_step`] alone updates them once per step in GPU
//! order.
//!
//! Scores follow a *distance* convention (lower = better match), so
//! similarity scorers (DistMult/ComplEx/SimplE) are negated before the
//! margin-ranking loss.
//!
//! A batch's `m` negatives are shared by all of its triples, so
//! `forward_backward` scores every triple against one dim-major panel of
//! them, and adds each (head, other) pair's gradient straight into the
//! batch gradient. Both keep the floating-point operations, and their
//! order, of scoring and differentiating each pair alone (DESIGN §18), so
//! the tests compare bit for bit against a copy of that per-pair code.

use frugal_core::{BatchGrads, EmbeddingModel};
use frugal_data::{Key, KgTrace};
use frugal_embed::{initial_value, GradAggregator};
use frugal_tensor::margin_ranking;
use parking_lot::{Mutex, RwLock};

/// Which triple scorer to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KgScorer {
    /// `‖h + r − t‖₁` (Bordes et al.).
    TransE,
    /// `−Σ h∘r∘t` (Yang et al.).
    DistMult,
    /// `−Re⟨h, r, t̄⟩` over complex halves (Trouillon et al.).
    ComplEx,
    /// `−½(⟨h₁, r₁, t₂⟩ + ⟨t₁, r₂, h₂⟩)` over halves (Kazemi & Poole).
    SimplE,
}

impl KgScorer {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            KgScorer::TransE => "TransE",
            KgScorer::DistMult => "DistMult",
            KgScorer::ComplEx => "ComplEx",
            KgScorer::SimplE => "SimplE",
        }
    }

    /// All four scorers, in the order of Fig 18a.
    pub fn all() -> [KgScorer; 4] {
        [
            KgScorer::ComplEx,
            KgScorer::DistMult,
            KgScorer::SimplE,
            KgScorer::TransE,
        ]
    }
}

/// A knowledge-graph embedding model over a [`KgTrace`].
#[derive(Debug)]
pub struct KgModel {
    scorer: KgScorer,
    trace: KgTrace,
    dim: usize,
    margin: f32,
    relations: RwLock<Vec<f32>>,
    /// Per-GPU relation gradients of the last `forward_backward`, in
    /// first-arrival order; `end_step` applies and clears them, keeping
    /// their arenas for the next step.
    rel_stash: Mutex<Vec<GradAggregator>>,
    rel_lr: f32,
    compute: bool,
}

impl KgModel {
    /// Creates a model; `compute = false` replaces the scorer math with a
    /// cheap surrogate for large benchmark sweeps (FLOPs still modeled).
    ///
    /// # Panics
    ///
    /// Panics if the scorer needs an even dimension (ComplEx/SimplE) and
    /// the trace's dimension is odd.
    pub fn new(scorer: KgScorer, trace: KgTrace, seed: u64, compute: bool) -> Self {
        let dim = trace.spec().embedding_dim as usize;
        if matches!(scorer, KgScorer::ComplEx | KgScorer::SimplE) {
            assert!(
                dim.is_multiple_of(2),
                "{} needs an even dimension",
                scorer.name()
            );
        }
        let n_rel = trace.spec().n_relations;
        let mut relations = Vec::with_capacity(n_rel as usize * dim);
        for rel in 0..n_rel {
            for d in 0..dim {
                relations.push(initial_value(seed ^ 0x9E37_79B9, rel, d));
            }
        }
        let n_gpus = trace.n_gpus();
        KgModel {
            scorer,
            dim,
            margin: 1.0,
            relations: RwLock::new(relations),
            rel_stash: Mutex::new((0..n_gpus).map(|_| GradAggregator::new(dim)).collect()),
            rel_lr: 0.05,
            trace,
            compute,
        }
    }

    /// The scorer in use.
    pub fn scorer(&self) -> KgScorer {
        self.scorer
    }

    /// The trace this model trains on.
    pub fn trace(&self) -> &KgTrace {
        &self.trace
    }

    /// Distance scores (lower = better) of the triple `(h, r, ·)` against
    /// every tail of the dim-major `panel`, where `panel[i * m + j]` is
    /// dimension `i` of tail `j` and `m = out.len()`. A single tail row is a
    /// one-column panel, so the positive tail is scored by the same code.
    ///
    /// Each score is one accumulator that starts where the per-triple sum
    /// starts (`-0.0`, the seed of `f32`'s `Sum`, for TransE and DistMult;
    /// `0.0` for ComplEx and SimplE) and adds the same rounded
    /// per-dimension terms in ascending dimension order. Only the loop nest
    /// differs: tails are innermost, so the loop vectorises across them,
    /// and [`DIM_BLOCK`] dimensions are added per pass over the
    /// accumulators.
    fn score_panel(&self, h: &[f32], r: &[f32], panel: &[f32], out: &mut [f32]) {
        let len = self.dim - self.pair_offset();
        out.fill(match self.scorer {
            KgScorer::TransE | KgScorer::DistMult => -0.0,
            KgScorer::ComplEx | KgScorer::SimplE => 0.0,
        });
        let blocked = len - len % DIM_BLOCK;
        for i in (0..blocked).step_by(DIM_BLOCK) {
            self.add_terms::<DIM_BLOCK>(h, r, i, panel, out);
        }
        for i in blocked..len {
            self.add_terms::<1>(h, r, i, panel, out);
        }
        for s in out {
            *s = match self.scorer {
                KgScorer::TransE => *s,
                KgScorer::DistMult | KgScorer::ComplEx => -*s,
                KgScorer::SimplE => -0.5 * *s,
            };
        }
    }

    /// The offset of the dimension score term `i` pairs with: ComplEx and
    /// SimplE have `dim/2` terms, pairing `i` with `i + dim/2`; TransE and
    /// DistMult have `dim` terms, each reading `i` alone.
    fn pair_offset(&self) -> usize {
        match self.scorer {
            KgScorer::TransE | KgScorer::DistMult => 0,
            KgScorer::ComplEx | KgScorer::SimplE => self.dim / 2,
        }
    }

    /// Adds the score terms of dimensions `i0..i0 + U` of `(h, r)` into
    /// `acc[j]` for every tail `j` of `panel`, in ascending dimension
    /// order. The head/relation products the per-triple expression
    /// evaluates first are hoisted out of the tail loop; the rest keeps
    /// its association.
    fn add_terms<const U: usize>(
        &self,
        h: &[f32],
        r: &[f32],
        i0: usize,
        panel: &[f32],
        acc: &mut [f32],
    ) {
        let m = acc.len();
        let k = self.dim / 2;
        let pair = self.pair_offset();
        let t1: [&[f32]; U] = std::array::from_fn(|u| &panel[(i0 + u) * m..][..m]);
        let t2: [&[f32]; U] = std::array::from_fn(|u| &panel[(pair + i0 + u) * m..][..m]);
        match self.scorer {
            KgScorer::TransE => {
                let hr: [f32; U] = std::array::from_fn(|u| h[i0 + u] + r[i0 + u]);
                fold(acc, t1, t2, |u, t, _| (hr[u] - t).abs());
            }
            KgScorer::DistMult => {
                let hr: [f32; U] = std::array::from_fn(|u| h[i0 + u] * r[i0 + u]);
                fold(acc, t1, t2, |u, t, _| hr[u] * t);
            }
            KgScorer::ComplEx => {
                let p: [[f32; 4]; U] = std::array::from_fn(|u| {
                    let i = i0 + u;
                    let (hr, hi) = (h[i], h[k + i]);
                    let (rr, ri) = (r[i], r[k + i]);
                    [hr * rr, hi * ri, hr * ri, hi * rr]
                });
                fold(acc, t1, t2, |u, tr, ti| {
                    let [a, b, c, e] = p[u];
                    a * tr + b * tr + c * ti - e * ti
                });
            }
            KgScorer::SimplE => {
                // The second term is `(t₁ * r₂) * h₂`: only `h₁ * r₁` hoists.
                let p: [[f32; 3]; U] = std::array::from_fn(|u| {
                    let i = i0 + u;
                    [h[i] * r[i], r[k + i], h[k + i]]
                });
                fold(acc, t1, t2, |u, t1, t2| {
                    let [hr, r2, h2] = p[u];
                    hr * t2 + t1 * r2 * h2
                });
            }
        }
    }

    /// Adds `coeff × ∂score/∂(h,r,t)` into the gradient rows.
    #[allow(clippy::too_many_arguments)]
    fn accumulate(
        &self,
        h: &[f32],
        r: &[f32],
        t: &[f32],
        coeff: f32,
        gh: &mut [f32],
        gr: &mut [f32],
        gt: &mut [f32],
    ) {
        let d = self.dim;
        let k = d / 2;
        // Re-sliced to `d` so the indexing below compiles without bounds
        // checks and vectorises.
        let (h, r, t) = (&h[..d], &r[..d], &t[..d]);
        let (gh, gr, gt) = (&mut gh[..d], &mut gr[..d], &mut gt[..d]);
        match self.scorer {
            KgScorer::TransE => {
                for i in 0..d {
                    let s = (h[i] + r[i] - t[i]).signum();
                    gh[i] += coeff * s;
                    gr[i] += coeff * s;
                    gt[i] -= coeff * s;
                }
            }
            KgScorer::DistMult => {
                for i in 0..d {
                    gh[i] -= coeff * r[i] * t[i];
                    gr[i] -= coeff * h[i] * t[i];
                    gt[i] -= coeff * h[i] * r[i];
                }
            }
            KgScorer::ComplEx => {
                for i in 0..k {
                    let (hr, hi) = (h[i], h[k + i]);
                    let (rr, ri) = (r[i], r[k + i]);
                    let (tr, ti) = (t[i], t[k + i]);
                    gh[i] -= coeff * (rr * tr + ri * ti);
                    gh[k + i] -= coeff * (ri * tr - rr * ti);
                    gr[i] -= coeff * (hr * tr - hi * ti);
                    gr[k + i] -= coeff * (hi * tr + hr * ti);
                    gt[i] -= coeff * (hr * rr + hi * ri);
                    gt[k + i] -= coeff * (hr * ri - hi * rr);
                }
            }
            KgScorer::SimplE => {
                for i in 0..k {
                    gh[i] -= coeff * 0.5 * r[i] * t[k + i];
                    gh[k + i] -= coeff * 0.5 * t[i] * r[k + i];
                    gr[i] -= coeff * 0.5 * h[i] * t[k + i];
                    gr[k + i] -= coeff * 0.5 * t[i] * h[k + i];
                    gt[i] -= coeff * 0.5 * r[k + i] * h[k + i];
                    gt[k + i] -= coeff * 0.5 * h[i] * r[i];
                }
            }
        }
    }
}

/// Dimensions whose score terms are added per pass over a triple's
/// accumulators: each accumulator is loaded and stored once per block
/// instead of once per dimension.
const DIM_BLOCK: usize = 8;

/// `acc[j] += term(u, t1[u][j], t2[u][j])` for `u` in `0..U`, in that
/// order, for every `j`.
#[inline(always)]
fn fold<const U: usize>(
    acc: &mut [f32],
    t1: [&[f32]; U],
    t2: [&[f32]; U],
    term: impl Fn(usize, f32, f32) -> f32,
) {
    for (j, a) in acc.iter_mut().enumerate() {
        let mut x = *a;
        for u in 0..U {
            x += term(u, t1[u][j], t2[u][j]);
        }
        *a = x;
    }
}

/// The `m × d` row-major `rows` as a `d × m` dim-major panel.
fn transpose(rows: &[f32], d: usize) -> Vec<f32> {
    let m = rows.len() / d;
    let mut panel = vec![0.0f32; rows.len()];
    for (j, row) in rows.chunks_exact(d).enumerate() {
        for (i, &v) in row.iter().enumerate() {
            panel[i * m + j] = v;
        }
    }
    panel
}

impl EmbeddingModel for KgModel {
    fn dim(&self) -> usize {
        self.dim
    }

    fn forward_backward(&self, gpu: usize, step: u64, keys: &[Key], rows: &[f32]) -> BatchGrads {
        let d = self.dim;
        assert_eq!(rows.len(), keys.len() * d, "rows/keys mismatch");
        if !self.compute {
            return BatchGrads {
                emb_grads: rows.iter().map(|&v| 0.01 * v).collect(),
                loss: 0.0,
            };
        }
        let batch = self.trace.step_batch(step, gpu);
        let b = batch.n_triples();
        let m = batch.negatives.len();
        assert_eq!(keys.len(), 2 * b + m, "key layout mismatch");

        // Every triple of the batch shares the same m negatives.
        let panel = transpose(&rows[2 * b * d..], d);
        let row = |n: usize| &rows[n * d..(n + 1) * d];
        let rel_table = self.relations.read();
        let rel_row = |i: usize| {
            let rel = batch.relations[i] as usize;
            &rel_table[rel * d..(rel + 1) * d]
        };
        // Taken out of the stash (an empty aggregator does not allocate) so
        // the lock is not held while computing.
        let mut rel_grads =
            std::mem::replace(&mut self.rel_stash.lock()[gpu], GradAggregator::new(d));
        rel_grads.clear();
        let mut emb_grads = vec![0.0f32; rows.len()];
        // Heads are rows 0..b; positive tails and negatives follow.
        let (head_grads, other_grads) = emb_grads.split_at_mut(b * d);
        let mut neg_scores = vec![0.0f32; m];
        let mut coeffs = vec![0.0f32; m];
        let mut loss_sum = 0.0f32;

        for i in 0..b {
            let (h, r) = (row(i), rel_row(i));
            let mut pos = 0.0;
            self.score_panel(h, r, row(b + i), std::slice::from_mut(&mut pos));
            self.score_panel(h, r, &panel, &mut neg_scores);
            let (loss, d_pos) = margin_ranking(pos, &neg_scores, self.margin, &mut coeffs);
            loss_sum += loss;

            // The positive tail first, then every negative, each adding its
            // gradient terms straight into the head, other and relation
            // rows. Since `emb_grads` starts at +0.0 and so never holds
            // -0.0, `e ± v` rounds exactly like `e + (0.0 ± v)`, i.e. like
            // summing each pair into its own zeroed row first.
            let gh = &mut head_grads[i * d..(i + 1) * d];
            let gr = rel_grads.row_mut(batch.relations[i]);
            let pairs = std::iter::once((b + i, d_pos))
                .chain(coeffs.iter().enumerate().map(|(j, &c)| (2 * b + j, c)));
            for (other, coeff) in pairs {
                if coeff == 0.0 {
                    continue;
                }
                let go = &mut other_grads[(other - b) * d..(other - b + 1) * d];
                self.accumulate(h, r, row(other), coeff, gh, gr, go);
            }
        }
        drop(rel_table);
        self.rel_stash.lock()[gpu] = rel_grads;

        BatchGrads {
            emb_grads,
            loss: loss_sum / b.max(1) as f32,
        }
    }

    fn end_step(&self, _step: u64) {
        if !self.compute {
            return;
        }
        let mut stash = self.rel_stash.lock();
        let mut rel_table = self.relations.write();
        let d = self.dim;
        for grads in stash.iter_mut() {
            for (rel, grad) in grads.entries() {
                let row = &mut rel_table[rel as usize * d..(rel as usize + 1) * d];
                for (p, &g) in row.iter_mut().zip(grad) {
                    *p -= self.rel_lr * g;
                }
            }
            grads.clear();
        }
    }

    fn dense_flops_per_sample(&self) -> f64 {
        // One positive + m negative scores, each ~8 ops per dimension,
        // doubled for backward.
        let m = self.trace.spec().neg_sample_size as f64;
        16.0 * self.dim as f64 * (m + 1.0)
    }

    fn dense_layers(&self) -> u32 {
        1
    }

    fn dense_param_bytes(&self) -> u64 {
        // Relation gradients synchronized per step: roughly one relation row
        // per positive triple.
        self.trace.batch_per_gpu() as u64 * self.dim as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::two_gpu_steps;
    use frugal_data::KgDatasetSpec;

    fn small_trace(dim: u32) -> KgTrace {
        let mut spec = KgDatasetSpec::fb15k().scaled_to_entities(200);
        spec.embedding_dim = dim;
        spec.neg_sample_size = 4;
        KgTrace::new(spec, 3, 1, 5).unwrap()
    }

    fn model(scorer: KgScorer) -> KgModel {
        KgModel::new(scorer, small_trace(6), 3, true)
    }

    /// Finite-difference check of the full margin loss w.r.t. entity rows.
    fn check_gradients(scorer: KgScorer) {
        let m = model(scorer);
        let batch = m.trace().step_batch(0, 0);
        let keys: Vec<Key> = batch.entity_keys().collect();
        let d = m.dim();
        // Pseudo-random but deterministic rows.
        let rows: Vec<f32> = (0..keys.len() * d)
            .map(|i| ((i * 37 + 11) % 17) as f32 / 17.0 - 0.5)
            .collect();
        let loss_of = |rows: &[f32]| {
            let g = m.forward_backward(0, 0, &keys, rows);
            g.loss
        };
        let g = m.forward_backward(0, 0, &keys, &rows);
        let eps = 1e-3f32;
        let b = batch.n_triples() as f32;
        for probe in [0usize, d + 1, rows.len() - 1] {
            let mut rp = rows.clone();
            rp[probe] += eps;
            let mut rm = rows.clone();
            rm[probe] -= eps;
            let numeric = (loss_of(&rp) - loss_of(&rm)) / (2.0 * eps);
            // forward_backward returns mean-over-triples loss but raw
            // per-element grads; normalize.
            let analytic = g.emb_grads[probe] / b;
            assert!(
                (analytic - numeric).abs() < 5e-2,
                "{}: elem {probe}: analytic {analytic} vs numeric {numeric}",
                scorer.name()
            );
        }
    }

    #[test]
    fn transe_gradients() {
        check_gradients(KgScorer::TransE);
    }

    #[test]
    fn distmult_gradients() {
        check_gradients(KgScorer::DistMult);
    }

    #[test]
    fn complex_gradients() {
        check_gradients(KgScorer::ComplEx);
    }

    #[test]
    fn simple_gradients() {
        check_gradients(KgScorer::SimplE);
    }

    #[test]
    fn training_separates_positives_from_negatives() {
        let m = model(KgScorer::TransE);
        let batch = m.trace().step_batch(0, 0);
        let keys: Vec<Key> = batch.entity_keys().collect();
        let d = m.dim();
        let mut rows: Vec<f32> = (0..keys.len() * d)
            .map(|i| ((i * 29 + 3) % 13) as f32 / 13.0 - 0.5)
            .collect();
        let first = m.forward_backward(0, 0, &keys, &rows).loss;
        let mut last = first;
        for _ in 0..80 {
            let g = m.forward_backward(0, 0, &keys, &rows);
            last = g.loss;
            for (r, gr) in rows.iter_mut().zip(&g.emb_grads) {
                *r -= 0.05 * gr;
            }
            m.end_step(0);
        }
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    #[test]
    fn surrogate_mode() {
        let m = KgModel::new(KgScorer::TransE, small_trace(6), 3, false);
        let g = m.forward_backward(0, 0, &[1, 2], &[1.0; 12]);
        assert_eq!(g.loss, 0.0);
        assert!((g.emb_grads[0] - 0.01).abs() < 1e-7);
    }

    #[test]
    fn concurrent_forward_backward_matches_sequential_bitwise() {
        let mut spec = KgDatasetSpec::fb15k().scaled_to_entities(200);
        spec.embedding_dim = 6;
        spec.neg_sample_size = 4;
        let trace = KgTrace::new(spec, 8, 2, 5).unwrap();
        let keys = |s, g| trace.step_batch(s, g).entity_keys().collect();
        let bits =
            |m: &KgModel| -> Vec<u32> { m.relations.read().iter().map(|v| v.to_bits()).collect() };
        for scorer in KgScorer::all() {
            let seq = KgModel::new(scorer, trace.clone(), 3, true);
            let par = KgModel::new(scorer, trace.clone(), 3, true);
            assert_eq!(
                two_gpu_steps(&seq, keys, 4, false),
                two_gpu_steps(&par, keys, 4, true),
                "{}",
                scorer.name()
            );
            assert_eq!(bits(&seq), bits(&par), "{}", scorer.name());
        }
    }

    #[test]
    #[should_panic(expected = "even dimension")]
    fn complex_rejects_odd_dim() {
        let _ = KgModel::new(KgScorer::ComplEx, small_trace(5), 3, true);
    }

    /// One triple's score written as plain per-triple loops: `sum()` for
    /// TransE/DistMult, a `0.0`-seeded accumulator for ComplEx/SimplE.
    fn reference_score(scorer: KgScorer, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        let d = h.len();
        let k = d / 2;
        match scorer {
            KgScorer::TransE => (0..d).map(|i| (h[i] + r[i] - t[i]).abs()).sum(),
            KgScorer::DistMult => -(0..d).map(|i| h[i] * r[i] * t[i]).sum::<f32>(),
            KgScorer::ComplEx => {
                let mut s = 0.0;
                for i in 0..k {
                    let (hr, hi) = (h[i], h[k + i]);
                    let (rr, ri) = (r[i], r[k + i]);
                    let (tr, ti) = (t[i], t[k + i]);
                    s += hr * rr * tr + hi * ri * tr + hr * ri * ti - hi * rr * ti;
                }
                -s
            }
            KgScorer::SimplE => {
                let mut s = 0.0;
                for i in 0..k {
                    s += h[i] * r[i] * t[k + i] + t[i] * r[k + i] * h[k + i];
                }
                -0.5 * s
            }
        }
    }

    /// Values with signed zeros mixed in, so zero-sum cases show.
    fn val(i: usize) -> f32 {
        match i % 7 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 37 + 11) % 17) as f32 / 17.0 - 0.5,
        }
    }

    #[test]
    fn panel_scores_match_per_triple_scores_bitwise() {
        // 13 tails: not a multiple of any SIMD width. Dimension 18 gives
        // the half-split scorers one full DIM_BLOCK and a remainder.
        for d in [6, 18] {
            let tails: Vec<Vec<f32>> = (0..11)
                .map(|n| (0..d).map(|i| val(i * (n + 2) + n)).collect())
                .chain([vec![0.0; d], vec![-0.0; d]])
                .collect();
            let panel = transpose(&tails.concat(), d);
            // A mixed (h, r), and an all-positive one whose products with
            // the `-0.0` tail are all `-0.0`, which pins each sum's seed.
            let heads_rels = [
                (
                    (0..d).map(val).collect(),
                    (0..d).map(|i| val(i + 3)).collect(),
                ),
                (vec![0.5f32; d], vec![0.25f32; d]),
            ];
            for scorer in KgScorer::all() {
                let m = KgModel::new(scorer, small_trace(d as u32), 3, true);
                for (h, r) in &heads_rels {
                    let want: Vec<u32> = tails
                        .iter()
                        .map(|t| reference_score(scorer, h, r, t).to_bits())
                        .collect();
                    let mut got = vec![f32::NAN; tails.len()];
                    m.score_panel(h, r, &panel, &mut got);
                    let got: Vec<u32> = got.iter().map(|s| s.to_bits()).collect();
                    assert_eq!(got, want, "{} d={d}", scorer.name());
                    // A single row is a one-column panel.
                    for (t, &w) in tails.iter().zip(&want) {
                        let mut one = f32::NAN;
                        m.score_panel(h, r, t, std::slice::from_mut(&mut one));
                        assert_eq!(one.to_bits(), w, "{} d={d}", scorer.name());
                    }
                }
            }
        }
    }

    /// What [`reference_forward_backward`] computes.
    struct Reference {
        emb_grads: Vec<f32>,
        loss: f32,
        /// Relation gradients in first-arrival order.
        rel_grads: Vec<(Key, Vec<f32>)>,
        /// Pairs skipped for a zero margin coefficient.
        skipped: usize,
    }

    /// The per-pair algorithm the panel kernel replaced: every score from
    /// [`reference_score`], the margin loss inline, and each (head, other)
    /// pair's gradient accumulated into freshly zeroed scratch rows that
    /// are then added into the batch gradient.
    fn reference_forward_backward(m: &KgModel, gpu: usize, step: u64, rows: &[f32]) -> Reference {
        let d = m.dim;
        let batch = m.trace.step_batch(step, gpu);
        let (b, n_neg) = (batch.n_triples(), batch.negatives.len());
        let rel_table = m.relations.read();
        let row = |n: usize| &rows[n * d..(n + 1) * d];
        let mut emb_grads = vec![0.0f32; rows.len()];
        let mut rel_grads: Vec<(Key, Vec<f32>)> = Vec::new();
        let mut loss_sum = 0.0f32;
        let mut skipped = 0;
        for i in 0..b {
            let (h, rel) = (row(i), batch.relations[i]);
            let r = &rel_table[rel as usize * d..(rel as usize + 1) * d];
            let pos = reference_score(m.scorer, h, r, row(b + i));
            let n = n_neg as f32;
            let (mut loss, mut d_pos, mut d_negs) = (0.0f32, 0.0f32, Vec::new());
            for j in 0..n_neg {
                let margin = m.margin + pos - reference_score(m.scorer, h, r, row(2 * b + j));
                if margin > 0.0 {
                    loss += margin;
                    d_pos += 1.0;
                    d_negs.push(-1.0 / n);
                } else {
                    d_negs.push(0.0);
                }
            }
            loss_sum += loss / n;
            let slot = match rel_grads.iter().position(|&(k, _)| k == rel) {
                Some(slot) => slot,
                None => {
                    rel_grads.push((rel, vec![0.0; d]));
                    rel_grads.len() - 1
                }
            };
            let pairs = std::iter::once((b + i, d_pos / n))
                .chain(d_negs.iter().enumerate().map(|(j, &c)| (2 * b + j, c)));
            for (other, coeff) in pairs {
                if coeff == 0.0 {
                    skipped += 1;
                    continue;
                }
                let (mut g_head, mut g_other) = (vec![0.0f32; d], vec![0.0f32; d]);
                let gr = &mut rel_grads[slot].1;
                m.accumulate(h, r, row(other), coeff, &mut g_head, gr, &mut g_other);
                for (e, g) in emb_grads[i * d..(i + 1) * d].iter_mut().zip(&g_head) {
                    *e += g;
                }
                for (e, g) in emb_grads[other * d..(other + 1) * d]
                    .iter_mut()
                    .zip(&g_other)
                {
                    *e += g;
                }
            }
        }
        Reference {
            emb_grads,
            loss: loss_sum / b as f32,
            rel_grads,
            skipped,
        }
    }

    #[test]
    fn forward_backward_matches_per_pair_reference_bitwise() {
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for scorer in KgScorer::all() {
            let dims: &[u32] = match scorer {
                KgScorer::TransE | KgScorer::DistMult => &[6, 7, 17, 18],
                KgScorer::ComplEx | KgScorer::SimplE => &[6, 18],
            };
            for &dim in dims {
                let mut spec = KgDatasetSpec::fb15k().scaled_to_entities(200);
                spec.embedding_dim = dim;
                spec.neg_sample_size = 13;
                let trace = KgTrace::new(spec, 11, 2, 9).unwrap();
                let m = KgModel::new(scorer, trace.clone(), 3, true);
                let d = dim as usize;
                // Signed zeros in the relation table too.
                for (n, v) in m.relations.write().iter_mut().enumerate() {
                    if n % 5 < 2 {
                        *v = val(n);
                    }
                }
                let mut skipped = 0;
                for step in 0..3 {
                    for gpu in 0..2 {
                        let batch = trace.step_batch(step, gpu);
                        let keys: Vec<Key> = batch.entity_keys().collect();
                        let b = batch.n_triples();
                        // Wide enough that some margins hold and some do not.
                        let mut rows: Vec<f32> = (0..keys.len() * d)
                            .map(|i| 4.0 * val(i * 3 + step as usize + gpu))
                            .collect();
                        // Negative 3 equals the first positive tail.
                        rows.copy_within(b * d..(b + 1) * d, (2 * b + 3) * d);
                        let want = reference_forward_backward(&m, gpu, step, &rows);
                        skipped += want.skipped;
                        assert!(want.emb_grads.iter().any(|&g| g != 0.0));
                        let got = m.forward_backward(gpu, step, &keys, &rows);
                        let what = format!("{} dim {dim} step {step} gpu {gpu}", scorer.name());
                        assert_eq!(bits(&got.emb_grads), bits(&want.emb_grads), "{what}");
                        assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{what}");
                        let stash = m.rel_stash.lock();
                        let got_rel: Vec<(Key, Vec<u32>)> =
                            stash[gpu].entries().map(|(k, g)| (k, bits(g))).collect();
                        let want_rel: Vec<(Key, Vec<u32>)> =
                            want.rel_grads.iter().map(|(k, g)| (*k, bits(g))).collect();
                        assert_eq!(got_rel, want_rel, "{what}");
                    }
                    m.end_step(step);
                }
                // Both kinds of pair occurred: some skipped, most added.
                assert!(
                    skipped > 0,
                    "{} dim {dim}: no zero coefficient",
                    scorer.name()
                );
            }
        }
    }

    #[test]
    fn scorer_metadata() {
        assert_eq!(KgScorer::all().len(), 4);
        assert_eq!(KgScorer::TransE.name(), "TransE");
        let m = model(KgScorer::DistMult);
        assert_eq!(m.scorer(), KgScorer::DistMult);
        assert!(m.dense_flops_per_sample() > 0.0);
        assert!(m.dense_param_bytes() > 0);
        assert_eq!(m.dense_layers(), 1);
    }
}
