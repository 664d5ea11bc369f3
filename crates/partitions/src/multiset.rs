//! Multiset partition enumeration.
//!
//! The paper's job requests bundle 1–4 VMs *of the same application
//! profile*, and bursts bundle up to 5 such jobs. VMs of equal type are
//! interchangeable for allocation purposes, so enumerating partitions of
//! the *multiset* of workload types (rather than of the labelled VM set)
//! collapses the search space dramatically: e.g. 8 identical VMs have
//! Bell(8) = 4140 labelled partitions but only p(8) = 22 distinct
//! multiset partitions.
//!
//! A block is a type-count vector `Vec<u32>` (one entry per workload
//! type); a multiset partition is a list of blocks. Enumeration emits
//! blocks in non-increasing lexicographic order, which canonicalizes each
//! partition and guarantees no duplicates.

/// One multiset partition: a list of blocks, each a per-type count vector.
/// Blocks appear in non-increasing lexicographic order.
pub type MultisetPart = Vec<Vec<u32>>;

/// Enumerate every partition of the multiset described by `counts`
/// (`counts[i]` = multiplicity of type `i`), with at most
/// `max_block_total` items per block (`u32::MAX` disables the bound).
///
/// ```
/// use eavm_partitions::multiset_partitions;
/// // The paper's 4-VM job request: integer partitions of 4.
/// let parts = multiset_partitions(&[4], u32::MAX);
/// assert_eq!(parts.len(), 5); // 4, 3+1, 2+2, 2+1+1, 1+1+1+1
/// ```
pub fn multiset_partitions(counts: &[u32], max_block_total: u32) -> Vec<MultisetPart> {
    multiset_partitions_capped(counts, max_block_total, usize::MAX)
}

/// Like [`multiset_partitions`], but stops *generating* once `max_parts`
/// partitions have been emitted — the enumeration cost is bounded by the
/// cap instead of the (potentially astronomic) full count. The emitted
/// prefix is identical to the first `max_parts` entries of the unbounded
/// enumeration.
pub fn multiset_partitions_capped(
    counts: &[u32],
    max_block_total: u32,
    max_parts: usize,
) -> Vec<MultisetPart> {
    let total: u32 = counts.iter().sum();
    if total == 0 || max_parts == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut acc: MultisetPart = Vec::new();
    // The first block may be anything up to the whole remaining multiset.
    let roof = counts.to_vec();
    recurse(
        counts.to_vec(),
        &roof,
        max_block_total,
        max_parts,
        &mut acc,
        &mut out,
    );
    out
}

/// Recursive core: pick the next block `b` with `0 < b ≤ remaining`
/// (component-wise), `b ≤_lex roof` (canonical non-increasing order), and
/// `Σb ≤ max_block_total`; recurse on the rest with `roof = b`.
fn recurse(
    remaining: Vec<u32>,
    roof: &[u32],
    max_block_total: u32,
    max_parts: usize,
    acc: &mut MultisetPart,
    out: &mut Vec<MultisetPart>,
) {
    if out.len() >= max_parts {
        return;
    }
    if remaining.iter().all(|&c| c == 0) {
        out.push(acc.clone());
        return;
    }
    // Enumerate candidate blocks in decreasing lexicographic order so the
    // output is itself canonically ordered.
    let mut candidates = subvectors(&remaining);
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    for b in candidates {
        if out.len() >= max_parts {
            return;
        }
        if b.as_slice() > roof {
            continue;
        }
        if b.iter().sum::<u32>() > max_block_total {
            continue;
        }
        let rest: Vec<u32> = remaining.iter().zip(&b).map(|(r, x)| r - x).collect();
        acc.push(b.clone());
        recurse(rest, &b, max_block_total, max_parts, acc, out);
        acc.pop();
    }
}

/// All non-zero component-wise subvectors of `v`.
fn subvectors(v: &[u32]) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new()];
    for &c in v {
        let mut next = Vec::with_capacity(out.len() * (c as usize + 1));
        for prefix in &out {
            for x in 0..=c {
                let mut p = prefix.clone();
                p.push(x);
                next.push(p);
            }
        }
        out = next;
    }
    out.retain(|b| b.iter().any(|&x| x > 0));
    out
}

/// Number of items in a block.
pub fn block_total(block: &[u32]) -> u32 {
    block.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Integer partition counts p(n) — multiset partitions of n identical
    /// items.
    const P: [usize; 11] = [0, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42];

    #[test]
    fn single_type_counts_match_integer_partitions() {
        for n in 1..=10u32 {
            let parts = multiset_partitions(&[n], u32::MAX);
            assert_eq!(parts.len(), P[n as usize], "p({n})");
        }
    }

    #[test]
    fn known_small_multisets() {
        // {a, b}: {ab}, {a}{b}
        assert_eq!(multiset_partitions(&[1, 1], u32::MAX).len(), 2);
        // {a, a, b}: {aab}, {aa}{b}, {ab}{a}, {a}{a}{b}
        assert_eq!(multiset_partitions(&[2, 1], u32::MAX).len(), 4);
        // {a, a, b, b}: 9 partitions (OEIS A020555-style table value).
        assert_eq!(multiset_partitions(&[2, 2], u32::MAX).len(), 9);
    }

    #[test]
    fn partitions_preserve_the_multiset() {
        let counts = vec![2u32, 1, 3];
        for p in multiset_partitions(&counts, u32::MAX) {
            let mut sum = vec![0u32; counts.len()];
            for block in &p {
                assert!(block.iter().any(|&x| x > 0), "empty block emitted");
                for (s, x) in sum.iter_mut().zip(block) {
                    *s += x;
                }
            }
            assert_eq!(sum, counts);
        }
    }

    #[test]
    fn no_duplicate_partitions() {
        let parts = multiset_partitions(&[3, 2, 1], u32::MAX);
        let set: BTreeSet<_> = parts.iter().cloned().collect();
        assert_eq!(set.len(), parts.len());
    }

    #[test]
    fn blocks_are_canonically_non_increasing() {
        for p in multiset_partitions(&[2, 2, 2], u32::MAX) {
            for w in p.windows(2) {
                assert!(w[0] >= w[1], "blocks must be non-increasing: {p:?}");
            }
        }
    }

    #[test]
    fn block_size_bound_is_enforced() {
        let bounded = multiset_partitions(&[4, 0, 0], 2);
        for p in &bounded {
            for b in p {
                assert!(block_total(b) <= 2);
            }
        }
        // 4 identical items, blocks of at most 2: {2,2}, {2,1,1}, {1,1,1,1}.
        assert_eq!(bounded.len(), 3);
    }

    #[test]
    fn empty_multiset_yields_nothing() {
        assert!(multiset_partitions(&[], u32::MAX).is_empty());
        assert!(multiset_partitions(&[0, 0], u32::MAX).is_empty());
    }

    #[test]
    fn bound_smaller_than_every_item_still_allows_singletons() {
        let parts = multiset_partitions(&[3, 1], 1);
        assert_eq!(parts.len(), 1, "only all-singletons is feasible");
        assert_eq!(parts[0].len(), 4);
    }

    #[test]
    fn capped_enumeration_is_a_prefix_of_the_full_one() {
        let full = multiset_partitions(&[4, 3, 2], 6);
        for cap in [0usize, 1, 2, 7, full.len(), full.len() + 5] {
            let capped = multiset_partitions_capped(&[4, 3, 2], 6, cap);
            assert_eq!(capped.len(), cap.min(full.len()));
            assert_eq!(&capped[..], &full[..capped.len()]);
        }
    }

    #[test]
    fn cap_bounds_generation_cost_on_huge_spaces() {
        // (8,6,6) with block cap 10 has hundreds of thousands of
        // partitions; with a cap the call must return promptly.
        #[expect(
            clippy::disallowed_methods,
            reason = "perf-sanity test asserting a loose wall-clock bound on capped enumeration; no replayed state involved"
        )]
        let start = std::time::Instant::now();
        let some = multiset_partitions_capped(&[8, 6, 6], 10, 4_096);
        assert_eq!(some.len(), 4_096);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "capped generation took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn multiset_is_far_smaller_than_labelled_enumeration() {
        use crate::counting::bell_number;
        // 8 identical VMs: 22 multiset partitions vs Bell(8)=4140.
        let ms = multiset_partitions(&[8], u32::MAX).len();
        assert_eq!(ms, 22);
        assert_eq!(bell_number(8), 4140);
    }
}
