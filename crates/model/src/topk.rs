//! The bounded top-k of the engines that find their answers out of order.

use std::collections::{BinaryHeap, HashMap};

use ir2_geo::OrderedF64;

use crate::SpatialObject;

/// The canonical bounded top-k: a max-heap of the k smallest `(distance,
/// id)` keys, with the object of each. The `(distance, id)` order makes the
/// kept *set* (and the final order) independent of arrival order — which
/// candidate a scan met first, which shard emitted a result first, or
/// which worker thread inserted it first.
///
/// A search whose stream is already in distance order does not need one: it
/// stops at the k-th result.
#[derive(Debug)]
pub struct TopK<const N: usize> {
    k: usize,
    heap: BinaryHeap<(OrderedF64, u64)>,
    kept: HashMap<u64, SpatialObject<N>>,
}

impl<const N: usize> TopK<N> {
    /// An empty top-k that keeps at most `k` objects.
    pub fn new(k: usize) -> Self {
        // Room for k + 1 without an allocation sized by k alone: a request
        // may ask for far more results than exist (`usize::MAX` for "all").
        let room = k.min(1024) + 1;
        Self {
            k,
            heap: BinaryHeap::with_capacity(room),
            kept: HashMap::with_capacity(room),
        }
    }

    /// Number of objects held (at most `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no object is held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `k` objects are held, so a candidate must beat the k-th.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Current k-th distance, or +∞ while fewer than k objects are held.
    pub fn threshold(&self) -> f64 {
        if self.is_full() {
            self.heap.peek().map_or(f64::INFINITY, |&(d, _)| d.0)
        } else {
            f64::INFINITY
        }
    }

    /// Offers `obj` at distance `d`; it is kept if it is among the k
    /// smallest `(distance, id)` keys seen so far.
    pub fn insert(&mut self, obj: SpatialObject<N>, d: f64) {
        // Replication can present the same object twice: a failover
        // restart re-emits the dead attempt's hits, and a hedged loser's
        // partial drain overlaps the winner's. An id determines its
        // distance, so dropping repeats is exact — and necessary: pushing
        // a duplicate key would make `heap` and `kept` disagree on
        // occupancy and silently shrink the answer below k.
        if self.kept.contains_key(&obj.id) {
            return;
        }
        let key = (OrderedF64(d), obj.id);
        if self.is_full() {
            match self.heap.peek() {
                Some(&worst) if key < worst => {
                    self.heap.pop();
                    self.kept.remove(&worst.1);
                }
                _ => return,
            }
        }
        self.kept.insert(obj.id, obj);
        self.heap.push(key);
    }

    /// The kept objects with their distances, ascending by `(distance,
    /// id)`.
    pub fn into_sorted(mut self) -> Vec<(SpatialObject<N>, f64)> {
        let mut keys = self.heap.into_vec();
        keys.sort_unstable();
        keys.into_iter()
            .filter_map(|(d, id)| self.kept.remove(&id).map(|o| (o, d.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u64) -> SpatialObject<2> {
        SpatialObject::new(id, [0.0, 0.0], "")
    }

    #[test]
    fn keeps_the_k_smallest_keys_in_order() {
        let mut topk = TopK::new(2);
        assert_eq!(topk.threshold(), f64::INFINITY);
        for (id, d) in [(1, 3.0), (2, 1.0), (3, 2.0), (4, 2.0)] {
            topk.insert(obj(id), d);
        }
        assert!(topk.is_full());
        assert_eq!(topk.len(), 2);
        assert_eq!(topk.threshold(), 2.0);
        let ids: Vec<(u64, f64)> = topk.into_sorted().iter().map(|(o, d)| (o.id, *d)).collect();
        assert_eq!(
            ids,
            vec![(2, 1.0), (3, 2.0)],
            "a tie goes to the smaller id"
        );
    }

    #[test]
    fn a_repeated_id_is_dropped() {
        let mut topk = TopK::new(3);
        topk.insert(obj(7), 1.0);
        topk.insert(obj(7), 1.0);
        topk.insert(obj(8), 2.0);
        assert_eq!(topk.len(), 2);
        assert!(!topk.is_full());
        assert_eq!(topk.into_sorted().len(), 2);
    }

    #[test]
    fn k_zero_keeps_nothing_and_k_huge_allocates_little() {
        let mut none = TopK::<2>::new(0);
        none.insert(obj(1), 0.0);
        assert!(none.is_empty() && none.is_full());
        let mut all = TopK::<2>::new(usize::MAX);
        all.insert(obj(1), 0.0);
        assert_eq!(all.threshold(), f64::INFINITY);
        assert_eq!(all.into_sorted().len(), 1);
    }
}
