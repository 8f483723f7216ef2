//! Single-threaded replay of each engine layer's public functions on the
//! workload's own key stream, at its own shapes: the isolated cost that the
//! traced run's in-engine phases are compared against.

use crate::workloads::{Bench, CACHE_RATIO, N_GPUS};
use frugal_core::{GEntryStore, PendingWrites, PqOpScratch, ShardMap};
use frugal_data::{Key, KeyHashSet};
use frugal_embed::{kernels, GpuCache, GradAggregator, HostStore, InsertOutcome, Sharding};
use frugal_pq::{PriorityQueue, TwoLevelPq, INFINITE};
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Steps of the key stream replayed through the sparse layers.
const SPARSE_STEPS: u64 = 60;
/// Steps replayed through the model (each runs every stream's batch).
const MODEL_STEPS: u64 = 8;

/// Isolated per-unit costs and the per-step volumes they apply to.
#[derive(Debug, Clone, Copy, Default)]
pub struct IsoCosts {
    /// `add_writes_batch` + `add_reads_batch`, per registered key.
    pub gentry_register_ns_per_key: f64,
    /// Writes + lookahead reads registered per step, all trainers.
    pub registered_keys_per_step: f64,
    /// `dequeue_batch_guarded` + `take_writes_into`, per claimed row.
    pub pq_drain_ns_per_row: f64,
    /// `kernels::sgd_step` into the host store, per (row, Δ) applied.
    pub sgd_ns_per_row: f64,
    /// (row, Δ) writes produced per step (one per unique key).
    pub writes_per_step: f64,
    /// Cache lookup plus miss fill, per owned unique key.
    pub cache_ns_per_key: f64,
    /// `add` + `merge_from` + `drain_arcs`, per sampled key.
    pub agg_ns_per_key: f64,
    /// Mean `forward_backward` call.
    pub fb_ms_per_call: f64,
}

/// Accumulated replay time (ns) and the units it covered, per layer.
#[derive(Default)]
struct Tally {
    reg_ns: u64,
    reg_keys: u64,
    drain_ns: u64,
    drained_rows: u64,
    sgd_ns: u64,
    sgd_rows: u64,
    cache_ns: u64,
    lookups: u64,
    agg_ns: u64,
    agg_keys: u64,
}

fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Replays `bench`'s inputs through every layer, one thread.
pub fn replay(bench: &Bench) -> IsoCosts {
    let inputs = bench.inputs();
    let workload = inputs.workload.as_ref();
    let cfg = bench.config();
    let dim = bench.dim();
    let n = N_GPUS;
    let lookahead = cfg.lookahead;
    let steps = SPARSE_STEPS.min(bench.steps);
    let n_keys = workload.n_keys();

    // The stream, generated up front so sampling stays out of every timer.
    let stream: Vec<Vec<Vec<Key>>> = (0..steps + lookahead)
        .map(|s| (0..n).map(|g| workload.keys(s, g)).collect())
        .collect();
    let dedup_by_shard = |lists: &[Vec<Key>]| -> Vec<Key> {
        let mut seen = KeyHashSet::default();
        let mut keys: Vec<Key> = lists
            .iter()
            .flatten()
            .copied()
            .filter(|&k| seen.insert(k))
            .collect();
        keys.sort_by_key(|&k| GEntryStore::shard_of(k));
        keys
    };

    let store = HostStore::new(n_keys, dim, bench.seed);
    let gstore = GEntryStore::new();
    let pq = TwoLevelPq::new(cfg.steps + lookahead + 2);
    pq.set_upper_bound(lookahead + 1);
    let mut pq_ops = PqOpScratch::default();
    let smap = ShardMap::initial(n, GEntryStore::n_shards());
    let sharding = Sharding::new(n);
    let mut caches: Vec<GpuCache> = (0..n)
        .map(|_| {
            let mut c = GpuCache::new(
                sharding.cache_capacity(n_keys, CACHE_RATIO),
                dim,
                cfg.cache_policy,
            );
            c.set_hot_threshold(sharding.hot_threshold(n_keys, CACHE_RATIO));
            c
        })
        .collect();
    let grad: Vec<f32> = (0..dim).map(|d| 1e-3 * (d as f32 + 1.0)).collect();
    let mut aggs: Vec<GradAggregator> = (0..n).map(|_| GradAggregator::new(dim)).collect();
    let mut merged = GradAggregator::new(dim);
    let mut updates: Vec<(Key, Arc<[f32]>)> = Vec::new();
    let guard = AtomicU64::new(INFINITE);
    let mut batch = Vec::with_capacity(cfg.flush_batch);
    let mut writes: PendingWrites = Vec::new();
    let mut claims: Vec<(Key, usize, usize)> = Vec::new();
    let mut seen = KeyHashSet::default();
    let mut unique: Vec<Key> = Vec::new();
    let mut row = vec![0.0f32; dim];

    let mut t = Tally::default();
    let register_reads = |step: u64, pq_ops: &mut PqOpScratch, t: &mut Tally| {
        let keys = dedup_by_shard(&stream[step as usize]);
        let t0 = Instant::now();
        gstore.add_reads_batch(step, &keys, &pq, pq_ops);
        t.reg_ns += t0.elapsed().as_nanos() as u64;
        t.reg_keys += keys.len() as u64;
    };
    for r in 0..lookahead.min(steps) {
        register_reads(r, &mut pq_ops, &mut t);
    }

    // Flush: drain everything the queue hands out (as an idle flusher
    // does), then apply the claimed writes with SGD.
    let mut drain = |t: &mut Tally| loop {
        batch.clear();
        writes.clear();
        claims.clear();
        let t0 = Instant::now();
        pq.dequeue_batch_guarded(cfg.flush_batch, &mut batch, &guard);
        if batch.is_empty() {
            break;
        }
        batch.sort_unstable();
        for &(key, p) in &batch {
            let start = writes.len();
            let got = gstore.take_writes_into(key, p, &mut writes);
            if got > 0 {
                claims.push((key, start, start + got));
            }
        }
        t.drain_ns += t0.elapsed().as_nanos() as u64;
        t.drained_rows += claims.len() as u64;
        let t1 = Instant::now();
        for &(key, a, b) in &claims {
            store.write_row(key, |row| {
                for (_, g) in &writes[a..b] {
                    kernels::sgd_step(row, g, cfg.lr);
                }
            });
        }
        t.sgd_ns += t1.elapsed().as_nanos() as u64;
        t.sgd_rows += writes.len() as u64;
    };

    for s in 0..steps {
        let lists = &stream[s as usize];
        // Forward reads: trainer g serves stream g's unique keys in arrival
        // order — owned keys from its cache (a miss fills under the
        // workload's policy), everything else from the host store. Only the
        // cache calls are timed; the host reads keep rows as warm as in the
        // engine.
        for (trainer, (cache, list)) in caches.iter_mut().zip(lists).enumerate() {
            cache.begin_step(s);
            seen.clear();
            unique.clear();
            unique.extend(list.iter().copied().filter(|&k| seen.insert(k)));
            for &key in &unique {
                if !smap.owns_key(trainer, key) {
                    store.read_row(key, &mut row);
                    continue;
                }
                let t0 = Instant::now();
                let hit = cache.get(&key).is_some();
                let filled = !hit
                    && cache.admits(key)
                    && !matches!(
                        cache.fill_into(key, |dst| store.read_row(key, dst)),
                        InsertOutcome::Rejected
                    );
                t.cache_ns += t0.elapsed().as_nanos() as u64;
                t.lookups += 1;
                if !hit && !filled {
                    store.read_row(key, &mut row);
                }
            }
        }
        // Aggregation: per-stream add, fold in stream order, drain.
        let t0 = Instant::now();
        for (agg, list) in aggs.iter_mut().zip(lists) {
            for &key in list {
                agg.add(key, &grad);
            }
        }
        for agg in &mut aggs {
            merged.merge_from(agg);
        }
        updates.clear();
        merged.drain_arcs(&mut updates);
        t.agg_ns += t0.elapsed().as_nanos() as u64;
        t.agg_keys += lists.iter().map(|l| l.len() as u64).sum::<u64>();

        // Registration: the step's writes, then the reads of s + L.
        updates.sort_by_key(|(k, _)| GEntryStore::shard_of(*k));
        let t0 = Instant::now();
        gstore.add_writes_batch(s, &updates, &pq, &mut pq_ops);
        t.reg_ns += t0.elapsed().as_nanos() as u64;
        t.reg_keys += updates.len() as u64;
        register_reads(s + lookahead, &mut pq_ops, &mut t);
        pq.set_upper_bound(s + 1 + lookahead);
        drain(&mut t);
    }
    pq.set_upper_bound(cfg.steps + lookahead + 1);
    drain(&mut t);

    IsoCosts {
        gentry_register_ns_per_key: per(t.reg_ns, t.reg_keys),
        registered_keys_per_step: t.reg_keys as f64 / steps as f64,
        pq_drain_ns_per_row: per(t.drain_ns, t.drained_rows),
        sgd_ns_per_row: per(t.sgd_ns, t.sgd_rows),
        writes_per_step: t.sgd_rows as f64 / steps as f64,
        cache_ns_per_key: per(t.cache_ns, t.lookups),
        agg_ns_per_key: per(t.agg_ns, t.agg_keys),
        fb_ms_per_call: replay_model(bench, &store),
    }
}

/// Mean `forward_backward` time over the first [`MODEL_STEPS`] steps of
/// every stream, on a fresh model, with `end_step` between steps so dense
/// state evolves as in training.
fn replay_model(bench: &Bench, store: &HostStore) -> f64 {
    let inputs = bench.inputs();
    let dim = bench.dim();
    let (mut ns, mut calls) = (0u64, 0u64);
    for s in 0..MODEL_STEPS.min(bench.steps) {
        for g in 0..N_GPUS {
            let keys = inputs.workload.keys(s, g);
            let mut rows = vec![0.0f32; keys.len() * dim];
            for (row, &key) in rows.chunks_exact_mut(dim).zip(&keys) {
                store.read_row(key, row);
            }
            let t0 = Instant::now();
            black_box(inputs.model.forward_backward(g, s, &keys, &rows));
            ns += t0.elapsed().as_nanos() as u64;
            calls += 1;
        }
        inputs.model.end_step(s);
    }
    per(ns, calls) / 1e6
}
