//! # eavm-partitions
//!
//! Set-partition enumeration after M. Orlov, *"Efficient Generation of Set
//! Partitions"* (Univ. of Ulm tech report, 2002) — the algorithm the paper
//! cites (\[21\]) for its brute-force search over VM groupings.
//!
//! A partition of `{0, 1, …, n−1}` is encoded as a *restricted growth
//! string* (RGS) `k[0..n]` with `k[0] = 0` and
//! `k[i] ≤ 1 + max(k[0..i])`: element `i` belongs to block `k[i]`.
//! Orlov's algorithm steps through RGSs in lexicographic order with O(n)
//! work per step using an auxiliary array `m[i] = 1 + max(k[0..i])`.
//!
//! Four enumeration surfaces are provided:
//!
//! * [`SetPartitions`] — all partitions of an `n`-element set (Bell(n)
//!   many).
//! * [`BoundedPartitions`] — partitions with at most `max_blocks` blocks
//!   and at most `max_block_size` elements per block, pruned during
//!   generation (the allocator caps block size at what a server can
//!   host).
//! * [`multiset_partitions`] — partitions of a *multiset* of workload
//!   types, where VMs of the same type are interchangeable: vastly fewer
//!   candidates than Bell(n) when a job request's VMs share one profile,
//!   which is exactly the paper's workload shape.
//! * [`IntegerPartitions`] — the one-type special case of
//!   [`multiset_partitions`], in the same order: the partitions of `n`
//!   interchangeable items, advanced in place in one reused buffer. The
//!   PROACTIVE allocator's requests are single-typed, so this is what
//!   its search walks.

#![forbid(unsafe_code)]
// D4: replay-critical state compares floats only through `total_cmp`
// or explicit epsilons (DESIGN.md §10).
#![deny(clippy::float_cmp, clippy::float_cmp_const)]

pub mod counting;
pub mod integer;
pub mod multiset;
pub mod rgs;

pub use counting::{bell_number, stirling2};
pub use integer::IntegerPartitions;
pub use multiset::{multiset_partitions, multiset_partitions_capped, MultisetPart};
pub use rgs::{BoundedPartitions, Partition, SetPartitions};
