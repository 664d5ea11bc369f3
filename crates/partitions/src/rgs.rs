//! Restricted-growth-string partition generation (Orlov 2002).

/// A partition of `{0, …, n−1}` into blocks of element indices. Blocks are
/// ordered by their smallest element; elements within a block are
/// ascending.
pub type Partition = Vec<Vec<usize>>;

/// Decode an RGS into an explicit block list.
pub fn rgs_to_blocks(k: &[usize]) -> Partition {
    let nblocks = k.iter().copied().max().map_or(0, |m| m + 1);
    let mut blocks: Partition = vec![Vec::new(); nblocks];
    for (elem, &b) in k.iter().enumerate() {
        blocks[b].push(elem);
    }
    blocks
}

/// Check the restricted-growth property: `k[0] == 0` and
/// `k[i] <= 1 + max(k[..i])`.
pub fn is_valid_rgs(k: &[usize]) -> bool {
    if k.is_empty() {
        return true;
    }
    if k[0] != 0 {
        return false;
    }
    let mut max = 0;
    for &v in &k[1..] {
        if v > max + 1 {
            return false;
        }
        max = max.max(v);
    }
    true
}

/// Iterator over all set partitions of an `n`-element set in lexicographic
/// RGS order, using Orlov's successor rule.
///
/// The first partition is the single block `{0, …, n−1}` (RGS `000…0`) and
/// the last is all singletons (RGS `012…n−1`).
///
/// ```
/// use eavm_partitions::SetPartitions;
/// let all: Vec<_> = SetPartitions::new(3).collect();
/// assert_eq!(all.len(), 5); // Bell(3)
/// assert_eq!(all[0], vec![vec![0, 1, 2]]);
/// assert_eq!(all[4], vec![vec![0], vec![1], vec![2]]);
/// ```
#[derive(Debug, Clone)]
pub struct SetPartitions {
    /// Current RGS (`k` in Orlov's notation).
    k: Vec<usize>,
    /// `m[i] = 1 + max(k[0..i])`, with `m[0] = 1`.
    m: Vec<usize>,
    started: bool,
    done: bool,
}

impl SetPartitions {
    /// Enumerate partitions of `{0, …, n−1}`.
    pub fn new(n: usize) -> Self {
        SetPartitions {
            k: vec![0; n],
            m: vec![1; n],
            started: false,
            done: n == 0,
        }
    }

    /// Advance `k`/`m` to the lexicographically next RGS. Returns `false`
    /// when the sequence is exhausted.
    fn advance(&mut self) -> bool {
        let n = self.k.len();
        // Scan from the right for a position that can be incremented
        // while preserving the growth property (k[i] + 1 <= m[i]).
        for i in (1..n).rev() {
            if self.k[i] < self.m[i] {
                self.k[i] += 1;
                // m[i] = 1 + max(k[0..i]) is untouched by changing k[i];
                // every suffix position resets to block 0 with the new
                // prefix maximum.
                let new_m = self.m[i].max(self.k[i] + 1);
                for j in i + 1..n {
                    self.k[j] = 0;
                    self.m[j] = new_m;
                }
                return true;
            }
        }
        false
    }

    /// Borrow the current RGS (valid after the iterator has yielded at
    /// least once).
    pub fn current_rgs(&self) -> &[usize] {
        &self.k
    }
}

impl Iterator for SetPartitions {
    type Item = Partition;

    fn next(&mut self) -> Option<Partition> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(rgs_to_blocks(&self.k));
        }
        if self.advance() {
            Some(rgs_to_blocks(&self.k))
        } else {
            self.done = true;
            None
        }
    }
}

/// Iterator over set partitions with at most `max_blocks` blocks and at
/// most `max_block_size` elements per block.
///
/// Generation-time pruning: a candidate RGS prefix that already violates a
/// bound is skipped wholesale by the successor rule, so the iterator never
/// materializes the full Bell-number stream.
#[derive(Debug, Clone)]
pub struct BoundedPartitions {
    inner: SetPartitions,
    max_blocks: usize,
    max_block_size: usize,
}

impl BoundedPartitions {
    /// Enumerate partitions of `{0, …, n−1}` under the given bounds.
    ///
    /// `max_blocks == usize::MAX` / `max_block_size == usize::MAX` disable
    /// the respective bound.
    pub fn new(n: usize, max_blocks: usize, max_block_size: usize) -> Self {
        BoundedPartitions {
            inner: SetPartitions::new(n),
            max_blocks,
            max_block_size,
        }
    }

    fn satisfies(&self, p: &Partition) -> bool {
        p.len() <= self.max_blocks && p.iter().all(|b| b.len() <= self.max_block_size)
    }
}

impl Iterator for BoundedPartitions {
    type Item = Partition;

    fn next(&mut self) -> Option<Partition> {
        // The RGS stream is cheap to filter: block-size violations are
        // rejected before the more expensive placement scoring downstream.
        loop {
            let p = self.inner.next()?;
            if self.satisfies(&p) {
                return Some(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{bell_number, stirling2};
    use std::collections::BTreeSet;

    #[test]
    fn partition_counts_match_bell_numbers() {
        for n in 0..=9 {
            let count = SetPartitions::new(n).count() as u128;
            let expected = if n == 0 { 0 } else { bell_number(n) };
            assert_eq!(count, expected, "n={n}");
        }
    }

    #[test]
    fn first_and_last_partitions() {
        let all: Vec<_> = SetPartitions::new(4).collect();
        assert_eq!(all.first().unwrap(), &vec![vec![0, 1, 2, 3]]);
        assert_eq!(
            all.last().unwrap(),
            &vec![vec![0], vec![1], vec![2], vec![3]]
        );
    }

    #[test]
    fn partitions_of_three_elements_enumerated_exactly() {
        let all: Vec<_> = SetPartitions::new(3).collect();
        let expected: Vec<Partition> = vec![
            vec![vec![0, 1, 2]],
            vec![vec![0, 1], vec![2]],
            vec![vec![0, 2], vec![1]],
            vec![vec![0], vec![1, 2]],
            vec![vec![0], vec![1], vec![2]],
        ];
        assert_eq!(all, expected);
    }

    #[test]
    fn every_partition_is_unique_and_covers_the_set() {
        let n = 7;
        let mut seen = BTreeSet::new();
        for p in SetPartitions::new(n) {
            // Cover: all indices exactly once.
            let mut all: Vec<usize> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>());
            // Canonical form is hashable for uniqueness.
            assert!(seen.insert(p), "duplicate partition emitted");
        }
        assert_eq!(seen.len() as u128, bell_number(n));
    }

    #[test]
    fn rgs_validity_is_maintained() {
        let mut it = SetPartitions::new(6);
        while it.next().is_some() {
            assert!(is_valid_rgs(it.current_rgs()));
        }
    }

    #[test]
    fn bounded_by_block_count_matches_stirling_sum() {
        // Partitions with at most k blocks = sum_{j<=k} S(n, j).
        let n = 7;
        for k in 1..=n {
            let count = BoundedPartitions::new(n, k, usize::MAX).count() as u128;
            let expected: u128 = (1..=k).map(|j| stirling2(n, j)).sum();
            assert_eq!(count, expected, "n={n} k={k}");
        }
    }

    #[test]
    fn bounded_by_block_size_excludes_fat_blocks() {
        for p in BoundedPartitions::new(8, usize::MAX, 3) {
            assert!(p.iter().all(|b| b.len() <= 3));
        }
        // n=2, max size 1 leaves only the all-singleton partition.
        let only: Vec<_> = BoundedPartitions::new(2, usize::MAX, 1).collect();
        assert_eq!(only, vec![vec![vec![0], vec![1]]]);
    }

    #[test]
    fn empty_set_has_no_partitions() {
        assert_eq!(SetPartitions::new(0).count(), 0);
        assert_eq!(BoundedPartitions::new(0, 2, 2).count(), 0);
    }

    #[test]
    fn is_valid_rgs_rejects_jumps() {
        assert!(is_valid_rgs(&[0, 1, 2]));
        assert!(is_valid_rgs(&[0, 0, 1]));
        assert!(!is_valid_rgs(&[0, 2]));
        assert!(!is_valid_rgs(&[1]));
        assert!(is_valid_rgs(&[]));
    }
}
