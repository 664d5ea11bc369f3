//! Property-based tests for the partition generators.

use eavm_partitions::{
    bell_number, multiset_partitions, multiset_partitions_capped, rgs::is_valid_rgs,
    BoundedPartitions, IntegerPartitions, SetPartitions,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every emitted partition of {0..n} covers the set exactly once,
    /// blocks are ordered by least element, and the stream is duplicate-
    /// free with Bell(n) entries.
    #[test]
    fn set_partitions_are_exact_covers(n in 1usize..9) {
        let mut seen = BTreeSet::new();
        let mut count = 0u128;
        for p in SetPartitions::new(n) {
            count += 1;
            let mut all: Vec<usize> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
            for b in &p {
                prop_assert!(!b.is_empty());
                prop_assert!(b.windows(2).all(|w| w[0] < w[1]));
            }
            // Blocks ordered by smallest element.
            prop_assert!(p.windows(2).all(|w| w[0][0] < w[1][0]));
            prop_assert!(seen.insert(p));
        }
        prop_assert_eq!(count, bell_number(n));
    }

    /// The RGS invariant holds at every step of the iteration.
    #[test]
    fn rgs_stays_valid_throughout(n in 1usize..8) {
        let mut it = SetPartitions::new(n);
        while it.next().is_some() {
            prop_assert!(is_valid_rgs(it.current_rgs()));
        }
    }

    /// Bounded enumeration is exactly the filtered unbounded stream, in
    /// the same order.
    #[test]
    fn bounded_equals_filtered_full_stream(n in 1usize..8, max_blocks in 1usize..8, max_size in 1usize..8) {
        let bounded: Vec<_> = BoundedPartitions::new(n, max_blocks, max_size).collect();
        let filtered: Vec<_> = SetPartitions::new(n)
            .filter(|p| p.len() <= max_blocks && p.iter().all(|b| b.len() <= max_size))
            .collect();
        prop_assert_eq!(bounded, filtered);
    }

    /// Multiset partitions preserve the input multiset, are canonical
    /// (non-increasing blocks), duplicate-free, and respect the block cap.
    #[test]
    fn multiset_partitions_preserve_counts(
        counts in proptest::collection::vec(0u32..5, 1..4),
        cap in 1u32..8,
    ) {
        let parts = multiset_partitions(&counts, cap);
        let total: u32 = counts.iter().sum();
        if total == 0 {
            prop_assert!(parts.is_empty());
            return Ok(());
        }
        let mut seen = BTreeSet::new();
        for p in &parts {
            let mut sum = vec![0u32; counts.len()];
            for block in p {
                prop_assert!(block.iter().any(|&x| x > 0));
                prop_assert!(block.iter().sum::<u32>() <= cap);
                for (s, x) in sum.iter_mut().zip(block) {
                    *s += x;
                }
            }
            prop_assert_eq!(&sum, &counts);
            prop_assert!(p.windows(2).all(|w| w[0] >= w[1]));
            prop_assert!(seen.insert(p.clone()));
        }
        // With a cap at least the whole multiset, the single-block
        // partition must appear first.
        if cap >= total {
            prop_assert_eq!(&parts[0], &vec![counts.clone()]);
        }
    }

    /// For a single type, multiset partitions with unbounded cap count
    /// the integer partitions, which the labelled count dominates.
    #[test]
    fn multiset_is_never_larger_than_labelled(n in 1u32..8) {
        let ms = multiset_partitions(&[n], u32::MAX).len() as u128;
        prop_assert!(ms <= bell_number(n as usize));
    }
}

/// The in-place integer stream is the one-type multiset enumeration:
/// same partitions, same order, and the same prefix under a cap, for
/// every `n <= 24` and every part bound.
#[test]
fn integer_partitions_match_one_type_multiset_partitions() {
    for n in 0..=24u32 {
        for max_part in 0..=n {
            for cap in [1usize, 2, 3, usize::MAX] {
                let want: Vec<Vec<u32>> = multiset_partitions_capped(&[n], max_part, cap)
                    .into_iter()
                    .map(|p| p.into_iter().map(|block| block[0]).collect())
                    .collect();
                let mut stream = IntegerPartitions::new(n, max_part);
                let mut got = Vec::new();
                while got.len() < cap {
                    let Some(p) = stream.next_partition() else {
                        break;
                    };
                    got.push(p.to_vec());
                }
                assert_eq!(got, want, "n={n} max_part={max_part} cap={cap}");
            }
        }
    }
}
