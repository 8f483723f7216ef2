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

use frugal_core::{BatchGrads, EmbeddingModel};
use frugal_data::{Key, KgTrace};
use frugal_embed::initial_value;
use frugal_tensor::margin_ranking;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;

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

/// Per-GPU stashed relation gradients: `(relation key, gradient)`.
type RelGrads = Vec<(Key, Vec<f32>)>;

/// A knowledge-graph embedding model over a [`KgTrace`].
#[derive(Debug)]
pub struct KgModel {
    scorer: KgScorer,
    trace: KgTrace,
    dim: usize,
    margin: f32,
    relations: RwLock<Vec<f32>>,
    rel_stash: Mutex<Vec<Option<RelGrads>>>,
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
            rel_stash: Mutex::new((0..n_gpus).map(|_| None).collect()),
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

    /// Distance scores of the `N` triples `(h, r, ts[n])` (lower = better).
    ///
    /// Each score is one accumulator folding its terms in ascending index
    /// order, exactly as scoring the triple alone would; batching tails
    /// only interleaves the `N` independent dependency chains, so it cannot
    /// change a bit. TransE and DistMult start from `-0.0`, the neutral
    /// element `f32`'s `Sum` folds from.
    fn scores<const N: usize>(&self, h: &[f32], r: &[f32], ts: [&[f32]; N]) -> [f32; N] {
        let d = self.dim;
        let k = d / 2;
        match self.scorer {
            KgScorer::TransE => fold_terms(d, -0.0, ts, |i, t| (h[i] + r[i] - t[i]).abs()),
            KgScorer::DistMult => fold_terms(d, -0.0, ts, |i, t| h[i] * r[i] * t[i]).map(|s| -s),
            KgScorer::ComplEx => fold_terms(k, 0.0, ts, |i, t| {
                let (hr, hi) = (h[i], h[k + i]);
                let (rr, ri) = (r[i], r[k + i]);
                let (tr, ti) = (t[i], t[k + i]);
                hr * rr * tr + hi * ri * tr + hr * ri * ti - hi * rr * ti
            })
            .map(|s| -s),
            KgScorer::SimplE => fold_terms(k, 0.0, ts, |i, t| {
                h[i] * r[i] * t[k + i] + t[i] * r[k + i] * h[k + i]
            })
            .map(|s| -0.5 * s),
        }
    }

    /// Adds `coeff × ∂score/∂(h,r,t)` into the gradient buffers.
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

/// Negatives scored together by [`KgModel::scores`].
const SCORE_LANES: usize = 8;

/// `[init + Σᵢ term(i, ts[n])]` for each `n`, every sum taken in ascending
/// `i` with its own accumulator.
fn fold_terms<const N: usize>(
    len: usize,
    init: f32,
    ts: [&[f32]; N],
    term: impl Fn(usize, &[f32]) -> f32,
) -> [f32; N] {
    let mut acc = [init; N];
    for i in 0..len {
        for (a, t) in acc.iter_mut().zip(ts) {
            *a += term(i, t);
        }
    }
    acc
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

        let rel_table = self.relations.read();
        let mut emb_grads = vec![0.0f32; rows.len()];
        let mut rel_grads: HashMap<Key, Vec<f32>> = HashMap::new();
        let mut rel_order: Vec<Key> = Vec::new();
        let mut loss_sum = 0.0f32;
        // Scratch for one (head, other) gradient pair: head/tail/negative
        // slices of emb_grads alias the same Vec, so direct splits won't
        // do. Zeroed before every use, so each pair sums from 0.0 as a
        // fresh buffer would.
        let mut g_head = vec![0.0f32; d];
        let mut g_other = vec![0.0f32; d];
        let mut negs = vec![0.0f32; m];
        let neg_row = |j: usize| &rows[(2 * b + j) * d..(2 * b + j + 1) * d];

        for i in 0..b {
            let h = &rows[i * d..(i + 1) * d];
            let t = &rows[(b + i) * d..(b + i + 1) * d];
            let rel = batch.relations[i];
            let r = &rel_table[rel as usize * d..(rel as usize + 1) * d];
            let [pos] = self.scores(h, r, [t]);
            for j in (0..m).step_by(SCORE_LANES) {
                if j + SCORE_LANES <= m {
                    let ts: [&[f32]; SCORE_LANES] = std::array::from_fn(|n| neg_row(j + n));
                    negs[j..j + SCORE_LANES].copy_from_slice(&self.scores(h, r, ts));
                } else {
                    for (jj, s) in negs.iter_mut().enumerate().skip(j) {
                        [*s] = self.scores(h, r, [neg_row(jj)]);
                    }
                }
            }
            let (loss, d_pos, d_negs) = margin_ranking(pos, &negs, self.margin);
            loss_sum += loss;

            let gr = rel_grads.entry(rel).or_insert_with(|| {
                rel_order.push(rel);
                vec![0.0; d]
            });
            // The positive tail first, then every negative, each adding its
            // (head, other) gradient pair into emb_grads.
            let pairs = std::iter::once((b + i, d_pos))
                .chain(d_negs.iter().enumerate().map(|(j, &dn)| (2 * b + j, dn)));
            for (other, coeff) in pairs {
                if coeff == 0.0 {
                    continue;
                }
                g_head.fill(0.0);
                g_other.fill(0.0);
                let o = &rows[other * d..(other + 1) * d];
                self.accumulate(h, r, o, coeff, &mut g_head, gr, &mut g_other);
                for (e, &g) in emb_grads[i * d..(i + 1) * d].iter_mut().zip(&g_head) {
                    *e += g;
                }
                for (e, &g) in emb_grads[other * d..(other + 1) * d]
                    .iter_mut()
                    .zip(&g_other)
                {
                    *e += g;
                }
            }
        }
        drop(rel_table);
        let rel_list: Vec<(Key, Vec<f32>)> = rel_order
            .into_iter()
            .map(|rel| {
                let g = rel_grads.remove(&rel).expect("ordered rel present");
                (rel, g)
            })
            .collect();
        self.rel_stash.lock()[gpu] = Some(rel_list);

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
        for slot in stash.iter_mut() {
            if let Some(list) = slot.take() {
                for (rel, grad) in list {
                    let row = &mut rel_table[rel as usize * d..(rel as usize + 1) * d];
                    for (p, &g) in row.iter_mut().zip(&grad) {
                        *p -= self.rel_lr * g;
                    }
                }
            }
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
        let seq = KgModel::new(KgScorer::TransE, trace.clone(), 3, true);
        let par = KgModel::new(KgScorer::TransE, trace.clone(), 3, true);
        let keys = |s, g| trace.step_batch(s, g).entity_keys().collect();
        assert_eq!(
            two_gpu_steps(&seq, keys, 4, false),
            two_gpu_steps(&par, keys, 4, true)
        );
        let bits =
            |m: &KgModel| -> Vec<u32> { m.relations.read().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&seq), bits(&par));
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

    #[test]
    fn batched_scores_match_per_triple_scores_bitwise() {
        let d = 6;
        // Values with signed zeros mixed in, so zero-sum cases show.
        let val = |i: usize| match i % 7 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 37 + 11) % 17) as f32 / 17.0 - 0.5,
        };
        let tails: Vec<Vec<f32>> = (0..SCORE_LANES)
            .map(|n| (0..d).map(|i| val(i * (n + 2) + n)).collect())
            .chain([vec![0.0; d], vec![-0.0; d]])
            .collect();
        // A mixed (h, r), and an all-positive one whose products with the
        // `-0.0` tail are all `-0.0`, which pins each sum's starting value.
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
                let lanes: [&[f32]; SCORE_LANES] = std::array::from_fn(|n| &tails[n][..]);
                let batched = m.scores(h, r, lanes).map(f32::to_bits);
                assert_eq!(batched[..], want[..SCORE_LANES], "{}", scorer.name());
                for (t, &w) in tails.iter().zip(&want) {
                    assert_eq!(m.scores(h, r, [t])[0].to_bits(), w, "{}", scorer.name());
                }
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
