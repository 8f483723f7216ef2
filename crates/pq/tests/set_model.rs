//! Model-based property tests: the lock-free set against a `HashSet`, and
//! the two-level PQ against a sorted reference, over random op sequences.

use frugal_pq::{LockFreeSet, PriorityQueue, TwoLevelPq, INFINITE};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    TakeAny(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..128).prop_map(Op::Insert),
        (0u64..128).prop_map(Op::Remove),
        (0usize..8).prop_map(Op::TakeAny),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lockfree_set_matches_hashset_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let set = LockFreeSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    if !model.contains(&k) {
                        set.insert(k);
                        model.insert(k);
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(set.remove(k), model.remove(&k));
                }
                Op::TakeAny(max) => {
                    let mut out = Vec::new();
                    let got = set.take_any(max, |k| out.push(k));
                    prop_assert!(got <= max);
                    for k in out {
                        prop_assert!(model.remove(&k), "took absent key {}", k);
                    }
                }
            }
            prop_assert_eq!(set.len(), model.len());
        }
        for &k in &model {
            prop_assert!(set.contains(k), "model key {} missing", k);
        }
    }

    #[test]
    fn two_level_pq_top_is_sound(
        inserts in proptest::collection::vec((0u64..64, 0u64..33), 1..100),
    ) {
        // top_priority must never exceed the true minimum live priority —
        // the safety direction the P2F wait condition depends on.
        let pq = TwoLevelPq::new(32);
        let mut seen = HashSet::new();
        let mut min_live = INFINITE;
        for &(k, p) in &inserts {
            if seen.insert(k) {
                let p = if p == 32 { INFINITE } else { p };
                pq.enqueue(k, p);
                min_live = min_live.min(p);
            }
        }
        prop_assert!(pq.top_priority() <= min_live);
    }
}
