//! Deterministic per-key gradient aggregation.
//!
//! Within one synchronous step, several samples (possibly on several GPUs)
//! can touch the same embedding row. Synchronous training sums their
//! gradients before the optimizer applies them. Floating-point addition is
//! not associative, so to let a multi-threaded engine reproduce the serial
//! reference *bitwise*, gradients must be summed in a canonical order:
//! sample order within a GPU, GPU index order across GPUs.
//!
//! Accumulators live in one flat arena (`data`) indexed by a key → slot
//! map, so an aggregator can be [`cleared`](GradAggregator::clear) and
//! reused step after step without re-allocating — the engine keeps one per
//! trainer on its hot loop.

use crate::kernels;
use frugal_data::{Key, KeyHashMap};
use std::sync::Arc;

/// Accumulates per-key gradients in arrival order.
///
/// # Examples
///
/// ```
/// use frugal_embed::GradAggregator;
///
/// let mut agg = GradAggregator::new(2);
/// agg.add(7, &[1.0, 2.0]);
/// agg.add(7, &[0.5, 0.5]);
/// let grads = agg.into_sorted();
/// assert_eq!(grads, vec![(7, vec![1.5, 2.5])]);
/// ```
#[derive(Debug, Clone)]
pub struct GradAggregator {
    dim: usize,
    /// Key → slot index into `order`/`data` (fast deterministic hasher —
    /// one probe per sample on the aggregation hot path).
    index: KeyHashMap<usize>,
    order: Vec<Key>,
    /// Slot `i`'s accumulator is `data[i * dim..(i + 1) * dim]`.
    data: Vec<f32>,
}

impl GradAggregator {
    /// Creates an aggregator for `dim`-wide gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        GradAggregator {
            dim,
            index: KeyHashMap::default(),
            order: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Width of the gradients this aggregator accumulates.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Empties the aggregator but keeps every allocation (map table, order
    /// list, arena) for reuse on the next step.
    pub fn clear(&mut self) {
        self.index.clear();
        self.order.clear();
        self.data.clear();
    }

    fn slot(&mut self, key: Key) -> usize {
        match self.index.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.order.len();
                self.index.insert(key, i);
                self.order.push(key);
                self.data.resize(self.data.len() + self.dim, 0.0);
                i
            }
        }
    }

    /// Adds `grad` to the accumulator of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != dim`.
    pub fn add(&mut self, key: Key, grad: &[f32]) {
        assert_eq!(grad.len(), self.dim, "gradient length != dim");
        kernels::add(self.row_mut(key), grad);
    }

    /// The accumulator of `key`, zero-filled on its first arrival, for
    /// callers that add gradient terms into it directly.
    pub fn row_mut(&mut self, key: Key) -> &mut [f32] {
        let i = self.slot(key);
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Adds `grad` scaled by `scale` to the accumulator of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != dim`.
    pub fn add_scaled(&mut self, key: Key, grad: &[f32], scale: f32) {
        assert_eq!(grad.len(), self.dim, "gradient length != dim");
        kernels::add_scaled(self.row_mut(key), grad, scale);
    }

    /// Number of distinct keys accumulated.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates the accumulated `(key, grad)` pairs in *first-arrival*
    /// order without draining. This is the read side of the decentralized
    /// sharded reduce: every trainer scans the per-GPU aggregators in GPU
    /// index order and folds only the keys its shard owns, so the per-key
    /// summation order stays identical to the serial leader merge.
    pub fn entries(&self) -> impl Iterator<Item = (Key, &[f32])> + '_ {
        let dim = self.dim;
        self.order
            .iter()
            .enumerate()
            .map(move |(i, &k)| (k, &self.data[i * dim..(i + 1) * dim]))
    }

    /// Drains into `(key, grad)` pairs in *first-arrival* order — the
    /// canonical order for deterministic downstream application.
    pub fn into_arrival_order(self) -> Vec<(Key, Vec<f32>)> {
        let dim = self.dim;
        self.order
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, self.data[i * dim..(i + 1) * dim].to_vec()))
            .collect()
    }

    /// Drains into `(key, grad)` pairs sorted by key (for tests and merges).
    pub fn into_sorted(self) -> Vec<(Key, Vec<f32>)> {
        let mut v = self.into_arrival_order();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Drains the accumulated gradients into shared rows, appending
    /// `(key, Arc(grad))` to `out` in first-arrival order, and clears the
    /// aggregator for reuse. The `Arc` per row is the only allocation: the
    /// same shared gradient travels to the g-entry W set and the owner
    /// GPU's cache update, so nothing is cloned downstream.
    pub fn drain_arcs(&mut self, out: &mut Vec<(Key, Arc<[f32]>)>) {
        for (i, &k) in self.order.iter().enumerate() {
            out.push((k, Arc::from(&self.data[i * self.dim..(i + 1) * self.dim])));
        }
        self.clear();
    }

    /// Folds `other`'s accumulators into `self` (first-arrival order within
    /// `other`) and clears `other`, keeping both allocations alive. This is
    /// the reusable form of [`GradAggregator::merge`] for per-GPU aggregates
    /// folded in GPU index order.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn merge_from(&mut self, other: &mut GradAggregator) {
        assert_eq!(self.dim, other.dim, "dim mismatch");
        for (i, &k) in other.order.iter().enumerate() {
            kernels::add(
                self.row_mut(k),
                &other.data[i * other.dim..(i + 1) * other.dim],
            );
        }
        other.clear();
    }

    /// Merges `other` into `self` (used to fold per-GPU aggregates in GPU
    /// index order).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn merge(&mut self, mut other: GradAggregator) {
        self.merge_from(&mut other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_key() {
        let mut agg = GradAggregator::new(2);
        agg.add(1, &[1.0, 1.0]);
        agg.add(2, &[2.0, 2.0]);
        agg.add(1, &[3.0, 3.0]);
        assert_eq!(agg.len(), 2);
        let out = agg.into_sorted();
        assert_eq!(out[0], (1, vec![4.0, 4.0]));
        assert_eq!(out[1], (2, vec![2.0, 2.0]));
    }

    #[test]
    fn arrival_order_is_first_touch() {
        let mut agg = GradAggregator::new(1);
        agg.add(9, &[1.0]);
        agg.add(3, &[1.0]);
        agg.add(9, &[1.0]);
        let keys: Vec<Key> = agg
            .into_arrival_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![9, 3]);
    }

    #[test]
    fn add_scaled_scales() {
        let mut agg = GradAggregator::new(1);
        agg.add_scaled(1, &[2.0], 0.5);
        agg.add_scaled(1, &[2.0], 0.25);
        assert_eq!(agg.into_sorted(), vec![(1, vec![1.5])]);
    }

    #[test]
    fn merge_folds_in_order() {
        let mut a = GradAggregator::new(1);
        a.add(1, &[1.0]);
        let mut b = GradAggregator::new(1);
        b.add(1, &[2.0]);
        b.add(2, &[5.0]);
        a.merge(b);
        assert_eq!(a.into_sorted(), vec![(1, vec![3.0]), (2, vec![5.0])]);
    }

    #[test]
    fn merge_from_drains_other_and_reuses() {
        let mut a = GradAggregator::new(2);
        let mut b = GradAggregator::new(2);
        b.add(4, &[1.0, 2.0]);
        a.merge_from(&mut b);
        assert!(b.is_empty(), "source drained");
        // The drained source is reusable and independent.
        b.add(5, &[9.0, 9.0]);
        a.merge_from(&mut b);
        assert_eq!(
            a.into_sorted(),
            vec![(4, vec![1.0, 2.0]), (5, vec![9.0, 9.0])]
        );
    }

    #[test]
    fn drain_arcs_preserves_arrival_order_and_clears() {
        let mut agg = GradAggregator::new(1);
        agg.add(9, &[1.0]);
        agg.add(3, &[2.0]);
        agg.add(9, &[0.5]);
        let mut out = Vec::new();
        agg.drain_arcs(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].0, &out[0].1[..]), (9, &[1.5f32][..]));
        assert_eq!((out[1].0, &out[1].1[..]), (3, &[2.0f32][..]));
        assert!(agg.is_empty());
        // Cleared aggregator accumulates from zero again.
        agg.add(9, &[4.0]);
        assert_eq!(agg.into_sorted(), vec![(9, vec![4.0])]);
    }

    #[test]
    fn clear_resets_accumulators() {
        let mut agg = GradAggregator::new(1);
        agg.add(1, &[1.0]);
        agg.clear();
        assert!(agg.is_empty());
        agg.add(1, &[2.0]);
        assert_eq!(agg.into_sorted(), vec![(1, vec![2.0])]);
    }

    #[test]
    #[should_panic(expected = "gradient length != dim")]
    fn rejects_bad_dim() {
        let mut agg = GradAggregator::new(2);
        agg.add(1, &[1.0]);
    }

    #[test]
    fn empty_behaviour() {
        let agg = GradAggregator::new(3);
        assert!(agg.is_empty());
        assert!(agg.into_sorted().is_empty());
    }

    /// Trainer `g`'s step aggregator: overlapping keys with magnitudes
    /// spread far enough apart that f32 summation order is observable.
    fn trainer_agg(g: usize) -> GradAggregator {
        let mut agg = GradAggregator::new(2);
        for &key in &[1u64, 2, 9] {
            let v = (g as f32 + 1.0) * 1e4 + key as f32 * 1e-3;
            agg.add(key, &[v, 1.0 / v]);
        }
        agg
    }

    fn merged_bits(gpu_order: &[usize]) -> Vec<(Key, Vec<u32>)> {
        let mut merged = GradAggregator::new(2);
        for &g in gpu_order {
            merged.merge(trainer_agg(g));
        }
        merged
            .into_sorted()
            .into_iter()
            .map(|(k, v)| (k, v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    /// The decentralized reduce's core bit-equality argument: trainers may
    /// *arrive* at the barrier in any order, but the merge always folds the
    /// per-GPU aggregators in GPU index order, so the merged f32 bits are
    /// invariant. The guard assertion shows the test has teeth — these
    /// values really are order-sensitive, so folding in arrival order
    /// would diverge.
    #[test]
    fn merge_is_invariant_under_trainer_arrival_order() {
        let canonical = merged_bits(&[0, 1, 2, 3]);
        // Order sensitivity guard: an out-of-index-order fold changes bits.
        assert_ne!(
            canonical,
            merged_bits(&[3, 2, 1, 0]),
            "values not order-sensitive; the invariance below would be vacuous"
        );
        // Arrival permutations all reduce through the same index-order
        // fold: deposit order must leave no trace in the bits.
        for arrival in [[1usize, 0, 3, 2], [3, 0, 1, 2], [2, 3, 0, 1]] {
            let mut slots: Vec<Option<GradAggregator>> = (0..4).map(|_| None).collect();
            for g in arrival {
                slots[g] = Some(trainer_agg(g)); // "deposit at barrier A"
            }
            let mut merged = GradAggregator::new(2);
            for slot in &mut slots {
                merged.merge_from(slot.as_mut().expect("all deposited"));
            }
            let bits: Vec<(Key, Vec<u32>)> = merged
                .into_sorted()
                .into_iter()
                .map(|(k, v)| (k, v.iter().map(|x| x.to_bits()).collect()))
                .collect();
            assert_eq!(bits, canonical, "arrival {arrival:?} changed merged bits");
        }
    }
}
