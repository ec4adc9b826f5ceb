//! Quantization granularity (paper Fig. 1) and the group layouts that
//! assign every tensor element to a scale-factor group.

use cq_tensor::Tensor;
use std::fmt;
use std::ops::Range;

/// Quantization granularity: how many elements share one scale factor.
///
/// Matches the paper's Fig. 1: (a)/(d) layer-wise, (b)/(e) array-wise,
/// (c)/(f) column-wise, for weights and partial sums respectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Granularity {
    /// One scale factor for the whole layer.
    Layer,
    /// One scale factor per CIM array tile.
    Array,
    /// One scale factor per array column (per logical column for weights,
    /// per physical column — i.e. per bit-split — for partial sums).
    Column,
}

impl Granularity {
    /// Short label used in experiment tables ("L", "A", "C").
    pub fn letter(self) -> &'static str {
        match self {
            Granularity::Layer => "L",
            Granularity::Array => "A",
            Granularity::Column => "C",
        }
    }

    /// All three granularities, coarse to fine.
    pub const ALL: [Granularity; 3] = [Granularity::Layer, Granularity::Array, Granularity::Column];
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Granularity::Layer => "layer",
            Granularity::Array => "array",
            Granularity::Column => "column",
        };
        f.write_str(s)
    }
}

/// Maps tensor elements to scale-factor groups.
///
/// Two layouts cover every case in this workspace:
///
/// * [`GroupLayout::Single`] — the whole tensor is one group (layer-wise).
/// * [`GroupLayout::Channelwise`] — the tensor is `[outer…, channels, inner]`
///   in row-major order and a per-channel `map` assigns groups. This covers
///   weights `[OC, Cin, K, K]` (channels = `OC·Cin`, inner = `K·K`) and
///   partial sums `[B, CH, OH, OW]` (channels = `CH`, inner = `OH·OW`,
///   batch folds into `outer`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupLayout {
    /// Every element belongs to group 0.
    Single,
    /// Group of flat index `i` is `map[(i / inner) % channels]`.
    Channelwise {
        /// Contiguous elements per channel.
        inner: usize,
        /// Number of channels (the dimension the map indexes).
        channels: usize,
        /// Per-channel group id; `len() == channels`.
        map: Vec<u32>,
        /// Total number of groups (`max(map) + 1`).
        num_groups: usize,
    },
}

impl GroupLayout {
    /// The single-group (layer-wise) layout.
    pub fn single() -> Self {
        GroupLayout::Single
    }

    /// Builds a channel-wise layout from a per-channel group map.
    ///
    /// # Panics
    ///
    /// Panics if `map` is empty or `inner == 0`.
    pub fn channelwise(inner: usize, map: Vec<u32>) -> Self {
        assert!(inner > 0, "inner extent must be positive");
        assert!(!map.is_empty(), "empty group map");
        let num_groups = *map.iter().max().unwrap() as usize + 1;
        GroupLayout::Channelwise {
            inner,
            channels: map.len(),
            map,
            num_groups,
        }
    }

    /// Like [`GroupLayout::channelwise`] but with an explicit total group
    /// count, for layouts that address a subset of a larger scale table
    /// (e.g. one bit-split's slice of the column-wise partial-sum scales).
    ///
    /// # Panics
    ///
    /// Panics if `map` is empty, `inner == 0`, or `num_groups` is smaller
    /// than the map requires.
    pub fn channelwise_with_groups(inner: usize, map: Vec<u32>, num_groups: usize) -> Self {
        assert!(inner > 0, "inner extent must be positive");
        assert!(!map.is_empty(), "empty group map");
        let needed = *map.iter().max().unwrap() as usize + 1;
        assert!(
            num_groups >= needed,
            "num_groups {num_groups} < required {needed}"
        );
        GroupLayout::Channelwise {
            inner,
            channels: map.len(),
            map,
            num_groups,
        }
    }

    /// Group id of a channel index (for layouts where grouping is purely
    /// per channel, e.g. partial-sum columns).
    pub fn group_of_channel(&self, ch: usize) -> usize {
        match self {
            GroupLayout::Single => 0,
            GroupLayout::Channelwise { channels, map, .. } => map[ch % channels] as usize,
        }
    }

    /// Number of scale-factor groups.
    pub fn num_groups(&self) -> usize {
        match self {
            GroupLayout::Single => 1,
            GroupLayout::Channelwise { num_groups, .. } => *num_groups,
        }
    }

    /// Group id of a flat element index.
    #[inline]
    pub fn group_of(&self, flat: usize) -> usize {
        match self {
            GroupLayout::Single => 0,
            GroupLayout::Channelwise {
                inner,
                channels,
                map,
                ..
            } => map[(flat / inner) % channels] as usize,
        }
    }

    /// The maximal runs of consecutive elements that share a group, in
    /// index order, for a tensor of `numel` elements: `(range, group)`
    /// pairs tiling `0..numel`. Neighbouring channels mapped to one group
    /// (including across a batch boundary) form one run, so a
    /// [`GroupLayout::Single`] tensor is a single run.
    ///
    /// Every grouped loop walks these runs instead of resolving
    /// [`GroupLayout::group_of`] per element.
    ///
    /// # Panics
    ///
    /// Panics if `numel` is not a whole number of `channels × inner`
    /// blocks.
    pub fn runs(&self, numel: usize) -> impl Iterator<Item = (Range<usize>, usize)> + '_ {
        let (inner, map): (usize, &[u32]) = match self {
            GroupLayout::Single => (numel.max(1), &[0]),
            GroupLayout::Channelwise {
                inner,
                channels,
                map,
                ..
            } => {
                let block = inner * channels;
                assert!(
                    numel % block == 0,
                    "numel {numel} not a multiple of {block}"
                );
                (*inner, map)
            }
        };
        // Walk channel instances `k` (channel `c = k % channels` of block
        // `k / channels`), merging neighbours of one group.
        let n = numel / inner;
        let (mut k, mut c) = (0, 0);
        std::iter::from_fn(move || {
            if k >= n {
                return None;
            }
            let (start, g) = (k, map[c]);
            loop {
                k += 1;
                c = if c + 1 == map.len() { 0 } else { c + 1 };
                if k >= n || map[c] != g {
                    break;
                }
            }
            Some((start * inner..k * inner, g as usize))
        })
    }

    /// Checks that a tensor is compatible with this layout.
    ///
    /// # Panics
    ///
    /// Panics if the tensor's element count is not a whole number of
    /// `channels × inner` blocks.
    pub fn validate(&self, t: &Tensor) {
        if let GroupLayout::Channelwise {
            inner, channels, ..
        } = self
        {
            let block = inner * channels;
            assert!(
                block > 0 && t.numel() % block == 0,
                "tensor with {} elements incompatible with channelwise layout ({channels} ch × {inner} inner)",
                t.numel()
            );
        }
    }

    /// Element count per group for a tensor of `numel` elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor size is incompatible with the layout.
    pub fn counts(&self, numel: usize) -> Vec<usize> {
        match self {
            GroupLayout::Single => vec![numel],
            GroupLayout::Channelwise {
                inner,
                channels,
                map,
                num_groups,
            } => {
                let block = inner * channels;
                assert!(
                    numel % block == 0,
                    "numel {numel} not a multiple of {block}"
                );
                let repeats = numel / block;
                let mut counts = vec![0usize; *num_groups];
                for &g in map {
                    counts[g as usize] += inner * repeats;
                }
                counts
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_ordering_and_labels() {
        assert!(Granularity::Layer < Granularity::Array);
        assert!(Granularity::Array < Granularity::Column);
        assert_eq!(Granularity::Column.letter(), "C");
        assert_eq!(Granularity::Layer.to_string(), "layer");
    }

    #[test]
    fn single_layout_is_one_group() {
        let l = GroupLayout::single();
        assert_eq!(l.num_groups(), 1);
        assert_eq!(l.group_of(123), 0);
        assert_eq!(l.counts(10), vec![10]);
    }

    #[test]
    fn channelwise_groups_by_channel_with_batch_fold() {
        // Tensor [B=2, CH=3, inner=4]; channels 0,1 -> group 0; channel 2 -> group 1.
        let l = GroupLayout::channelwise(4, vec![0, 0, 1]);
        assert_eq!(l.num_groups(), 2);
        // flat index 0..4 -> ch 0, 4..8 -> ch1, 8..12 -> ch2, 12.. -> batch 1 ch 0 again
        assert_eq!(l.group_of(0), 0);
        assert_eq!(l.group_of(5), 0);
        assert_eq!(l.group_of(9), 1);
        assert_eq!(l.group_of(12), 0);
        assert_eq!(l.group_of(20), 1);
        assert_eq!(l.counts(24), vec![16, 8]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn counts_rejects_incompatible_size() {
        GroupLayout::channelwise(4, vec![0, 1]).counts(10);
    }

    #[test]
    fn channelwise_with_groups_allows_sparse_group_usage() {
        // A per-split layout addressing groups 4..8 of an 8-scale table.
        let l = GroupLayout::channelwise_with_groups(2, vec![4, 5, 6, 7], 8);
        assert_eq!(l.num_groups(), 8);
        assert_eq!(l.group_of(0), 4);
        assert_eq!(l.group_of(7), 7);
        // Unused groups get zero counts.
        let counts = l.counts(8);
        assert_eq!(&counts[..4], &[0, 0, 0, 0]);
        assert_eq!(&counts[4..], &[2, 2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "num_groups")]
    fn channelwise_with_groups_rejects_too_few() {
        let _ = GroupLayout::channelwise_with_groups(1, vec![0, 5], 3);
    }

    #[test]
    fn group_of_channel_matches_group_of() {
        let l = GroupLayout::channelwise(3, vec![2, 0, 1]);
        for ch in 0..3 {
            assert_eq!(l.group_of_channel(ch), l.group_of(ch * 3));
            // Batch folding: channel index wraps.
            assert_eq!(l.group_of_channel(ch + 3), l.group_of_channel(ch));
        }
        assert_eq!(GroupLayout::single().group_of_channel(9), 0);
    }

    /// Runs tile the tensor in index order, agree with `group_of` on
    /// every element, and are maximal.
    #[test]
    fn runs_tile_the_tensor_and_match_group_of() {
        let layouts = [
            (GroupLayout::single(), 10),
            (GroupLayout::channelwise(4, vec![0, 0, 1]), 24),
            (GroupLayout::channelwise(2, vec![1, 0, 0, 1]), 16),
            (
                GroupLayout::channelwise_with_groups(2, vec![4, 5, 6, 7], 8),
                16,
            ),
            (GroupLayout::channelwise(3, vec![0, 0]), 12),
        ];
        for (l, numel) in &layouts {
            let runs: Vec<_> = l.runs(*numel).collect();
            let mut next = 0;
            for (i, (r, g)) in runs.iter().enumerate() {
                assert_eq!(r.start, next, "{l:?}: runs tile in order");
                assert!(!r.is_empty());
                assert!(r.clone().all(|e| l.group_of(e) == *g), "{l:?}: {r:?}");
                if i > 0 {
                    assert_ne!(runs[i - 1].1, *g, "{l:?}: runs are maximal");
                }
                next = r.end;
            }
            assert_eq!(next, *numel);
        }
        assert_eq!(GroupLayout::single().runs(0).count(), 0);
        assert_eq!(GroupLayout::channelwise(3, vec![0, 0]).runs(12).count(), 1);
    }

    #[test]
    fn validate_accepts_weight_tensor_pattern() {
        // Weight [OC=2, Cin=3, K=2, K=2]: channels = 6, inner = 4.
        let map = vec![0, 0, 0, 1, 1, 1];
        let l = GroupLayout::channelwise(4, map);
        let w = Tensor::zeros(&[2, 3, 2, 2]);
        l.validate(&w);
        assert_eq!(l.counts(w.numel()), vec![12, 12]);
    }
}
