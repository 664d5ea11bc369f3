//! Entity identifiers.
//!
//! Every entity the system reasons about — virtual machines, physical
//! servers, and trace job requests — gets its own opaque integer id type so
//! that an index into the server table cannot be accidentally used to look
//! up a VM. The ids are plain `u32`s internally: datacenter-scale
//! simulations (10,000 VMs in the paper's trace) fit comfortably, and small
//! ids keep the hot simulator structs compact.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw index.
            #[inline]
            pub const fn new(v: u32) -> Self {
                Self(v)
            }

            /// The raw index value.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(v: usize) -> Self {
                Self(v as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a single virtual machine.
    VmId,
    "vm"
);
id_type!(
    /// Identifier of a physical server in the simulated cloud.
    ServerId,
    "srv"
);
id_type!(
    /// Identifier of a job request in the (cleaned) workload trace.
    JobId,
    "job"
);

/// A monotonically increasing id allocator, used by the simulator and trace
/// adapters to mint fresh [`VmId`]s / [`JobId`]s.
#[derive(Debug, Default, Clone)]
pub struct IdAllocator {
    next: u32,
}

impl IdAllocator {
    /// A fresh allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next id as a raw `u32`.
    pub fn next_raw(&mut self) -> u32 {
        let id = self.next;
        self.next = self
            .next
            .checked_add(1)
            .expect("id space exhausted (more than u32::MAX entities)");
        id
    }

    /// Number of ids handed out so far.
    pub fn allocated(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(VmId::new(3).to_string(), "vm3");
        assert_eq!(ServerId::new(0).to_string(), "srv0");
        assert_eq!(JobId::new(42).to_string(), "job42");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "exercises the derived `Hash` impl; the set is only counted, never iterated"
    )]
    fn ids_are_ordered_and_hashable() {
        assert!(VmId::new(1) < VmId::new(2));
        let set: std::collections::HashSet<ServerId> =
            [ServerId::new(1), ServerId::new(1), ServerId::new(2)]
                .into_iter()
                .collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn conversions_roundtrip() {
        let v = VmId::from(7usize);
        assert_eq!(v.index(), 7);
        let s = ServerId::from(9u32);
        assert_eq!(s.0, 9);
    }

    #[test]
    fn allocator_is_monotonic() {
        let mut alloc = IdAllocator::new();
        let a = alloc.next_raw();
        let b = alloc.next_raw();
        let c = alloc.next_raw();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(alloc.allocated(), 3);
    }
}
