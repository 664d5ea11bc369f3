//! Integer partition stream.
//!
//! `n` interchangeable items split exactly like the integer `n`: a
//! job request's VMs share one profile, so its candidate groupings are
//! the integer partitions of its VM count. [`IntegerPartitions`] steps
//! through them in place, reusing one buffer, in the same order as
//! [`multiset_partitions`](crate::multiset_partitions) on the
//! one-type multiset `[n]`: parts non-increasing, partitions in
//! decreasing lexicographic order.

/// Every partition of `n` into parts of at most `max_part`, advanced in
/// place: after the first call, [`IntegerPartitions::next_partition`]
/// allocates nothing.
///
/// ```
/// use eavm_partitions::IntegerPartitions;
/// let mut parts = IntegerPartitions::new(4, 4);
/// let mut seen = Vec::new();
/// while let Some(p) = parts.next_partition() {
///     seen.push(p.to_vec());
/// }
/// assert_eq!(seen, [vec![4], vec![3, 1], vec![2, 2], vec![2, 1, 1], vec![1, 1, 1, 1]]);
/// ```
#[derive(Debug, Clone)]
pub struct IntegerPartitions {
    n: u32,
    max_part: u32,
    parts: Vec<u32>,
    started: bool,
}

impl IntegerPartitions {
    /// The partitions of `n` with every part at most `max_part`. Yields
    /// nothing when `n` or `max_part` is 0.
    pub fn new(n: u32, max_part: u32) -> Self {
        IntegerPartitions {
            n,
            max_part,
            parts: Vec::new(),
            started: false,
        }
    }

    /// Advance to the next partition and return its parts, largest
    /// first; `None` once the stream is exhausted.
    pub fn next_partition(&mut self) -> Option<&[u32]> {
        if !self.started {
            self.started = true;
            if self.n == 0 || self.max_part == 0 {
                return None;
            }
            self.parts.reserve_exact(self.n as usize);
            fill(&mut self.parts, self.n, self.max_part.min(self.n));
            return Some(&self.parts);
        }
        // The rightmost part above 1 shrinks by one; everything after it
        // (all 1s) plus the freed unit is refilled greedily with parts no
        // larger than the shrunk one.
        let j = self.parts.iter().rposition(|&p| p > 1)?;
        let part = self.parts[j] - 1;
        let rest = 1 + (self.parts.len() - 1 - j) as u32;
        self.parts[j] = part;
        self.parts.truncate(j + 1);
        fill(&mut self.parts, rest, part);
        Some(&self.parts)
    }
}

/// Append `total` as parts of `part`, then the remainder if any.
fn fill(parts: &mut Vec<u32>, total: u32, part: u32) {
    parts.extend(std::iter::repeat_n(part, (total / part) as usize));
    let rest = total % part;
    if rest > 0 {
        parts.push(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_yields_nothing_and_an_exhausted_stream_stays_exhausted() {
        assert_eq!(IntegerPartitions::new(0, 3).next_partition(), None);
        assert_eq!(IntegerPartitions::new(3, 0).next_partition(), None);
        let mut it = IntegerPartitions::new(1, 1);
        assert_eq!(it.next_partition(), Some(&[1][..]));
        assert_eq!(it.next_partition(), None);
        assert_eq!(it.next_partition(), None);
    }
}
