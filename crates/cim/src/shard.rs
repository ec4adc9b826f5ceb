//! Shard planning for intra-model parallelism.
//!
//! Column-wise psum quantization keeps every row tile's shift-add
//! contribution independent until the final merged dequantization, and
//! every layer in this workspace processes batch elements independently.
//! Both properties make a sweep splittable into **shards** — contiguous
//! ranges of row tiles (within one convolution) or of batch rows (within
//! one coalesced serving sweep) — that execute on different threads or
//! serve workers and rejoin **bit-exactly**: shard outputs are scattered
//! (exact copies, never re-summed) back into the canonical layout before
//! the fixed-order accumulation runs.
//!
//! [`ShardPlan`] is the one implementation of that partitioning; the
//! prepared conv executor uses it over row tiles and the `cq-serve` shard
//! pool uses it over the rows of an oversized sweep.

use std::ops::Range;

/// A partition of `0..num_items` into contiguous, disjoint, covering
/// shards (each non-empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    num_items: usize,
    shards: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Splits `num_items` into (up to) `num_shards` contiguous shards of
    /// near-equal size: sizes differ by at most one, earlier shards take
    /// the remainder. A shard count larger than `num_items` is clamped —
    /// shards are never empty.
    ///
    /// # Panics
    ///
    /// Panics if `num_items == 0` or `num_shards == 0`.
    pub fn split(num_items: usize, num_shards: usize) -> Self {
        assert!(num_items > 0, "nothing to shard");
        assert!(num_shards > 0, "need at least one shard");
        let n = num_shards.min(num_items);
        let (base, extra) = (num_items / n, num_items % n);
        let mut shards = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let len = base + usize::from(i < extra);
            shards.push(start..start + len);
            start += len;
        }
        debug_assert_eq!(start, num_items);
        Self { num_items, shards }
    }

    /// Splits `num_items` into the fewest shards of at most `max_shard`
    /// items each (`ceil(num_items / max_shard)` shards, balanced like
    /// [`ShardPlan::split`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_items == 0` or `max_shard == 0`.
    pub fn split_max(num_items: usize, max_shard: usize) -> Self {
        assert!(max_shard > 0, "max shard size must be positive");
        Self::split(num_items, num_items.div_ceil(max_shard))
    }

    /// The partitioned item count.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard ranges, ascending and contiguous.
    pub fn shards(&self) -> &[Range<usize>] {
        &self.shards
    }

    /// Iterates the shard ranges.
    pub fn iter(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.shards.iter().cloned()
    }

    /// Whether the plan is a single shard (sharding is a no-op).
    pub fn is_trivial(&self) -> bool {
        self.shards.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_balanced_and_covering() {
        let p = ShardPlan::split(10, 3);
        assert_eq!(p.shards(), &[0..4, 4..7, 7..10]);
        assert_eq!(p.num_shards(), 3);
        assert_eq!(p.num_items(), 10);
        assert!(!p.is_trivial());
    }

    #[test]
    fn oversubscribed_split_clamps_to_items() {
        let p = ShardPlan::split(2, 7);
        assert_eq!(p.shards(), &[0..1, 1..2]);
        assert!(ShardPlan::split(1, 7).is_trivial());
    }

    #[test]
    fn split_max_bounds_shard_size() {
        let p = ShardPlan::split_max(10, 4);
        assert_eq!(p.num_shards(), 3);
        assert!(p.iter().all(|r| r.len() <= 4));
        assert!(ShardPlan::split_max(3, 8).is_trivial());
    }

    #[test]
    #[should_panic(expected = "nothing to shard")]
    fn empty_split_rejected() {
        let _ = ShardPlan::split(0, 1);
    }
}
