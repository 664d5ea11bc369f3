//! The strategy interface between allocator and datacenter simulator.
//!
//! The simulator owns servers and VM lifecycles; a strategy only sees a
//! snapshot of per-server type mixes plus the incoming request, and
//! answers with placements (which server receives how many VMs of the
//! request). Returning [`EavmError::Infeasible`] tells the simulator to
//! queue the request and retry after the next completion event — the
//! paper's clouds are finite, so backpressure is part of the semantics.

use eavm_types::{EavmError, JobId, MixVector, Seconds, ServerId, WorkloadType};

/// Snapshot of one server's current allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerView {
    /// Server identity (stable across calls).
    pub id: ServerId,
    /// VMs currently resident, by type.
    pub mix: MixVector,
    /// Hardware platform index (0 in a homogeneous fleet); strategies
    /// with per-platform knowledge key their model on this.
    pub platform: u32,
    /// Physical CPU slots of this server (the FIRST-FIT/BEST-FIT
    /// capacity basis; 4 on the reference machine).
    pub cpu_slots: u32,
}

impl ServerView {
    /// A reference-platform server view (platform 0, 4 CPU slots).
    pub fn homogeneous(id: ServerId, mix: MixVector) -> Self {
        ServerView {
            id,
            mix,
            platform: 0,
            cpu_slots: 4,
        }
    }
}

/// The incoming job request, as the strategy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestView {
    /// Trace request id.
    pub id: JobId,
    /// Application profile of every VM in the request.
    pub workload: WorkloadType,
    /// Number of VMs requested (1–4 in the paper's adaptation).
    pub vm_count: u32,
    /// Response-time deadline of the request's type.
    pub deadline: Seconds,
}

impl RequestView {
    /// The request as a type-mix vector.
    pub fn mix(&self) -> MixVector {
        MixVector::single(self.workload, self.vm_count)
    }
}

/// One placement: `add` VMs joining server `server`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Target server.
    pub server: ServerId,
    /// VMs added there, by type.
    pub add: MixVector,
}

/// A VM allocation policy.
pub trait AllocationStrategy {
    /// Human-readable strategy label (`FF`, `FF-2`, `PA-0.5`, ...), used
    /// in result tables.
    fn name(&self) -> String;

    /// Decide placements for `request` given the current `servers`
    /// snapshot. The returned placements must cover the request exactly;
    /// return [`EavmError::Infeasible`] to queue the request instead.
    fn allocate(
        &mut self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<Placement>, EavmError>;
}

/// Verify that placements cover the request exactly and target distinct
/// known servers; used by the simulator (and tests) to validate strategy
/// output.
pub fn validate_placements(
    request: &RequestView,
    servers: &[ServerView],
    placements: &[Placement],
) -> Result<(), EavmError> {
    let mut covered = MixVector::EMPTY;
    let mut seen = std::collections::BTreeSet::new();
    for p in placements {
        if p.add.is_empty() {
            return Err(EavmError::Infeasible(format!(
                "empty placement on {}",
                p.server
            )));
        }
        if !seen.insert(p.server) {
            return Err(EavmError::Infeasible(format!(
                "duplicate placement target {}",
                p.server
            )));
        }
        if !servers.iter().any(|s| s.id == p.server) {
            return Err(EavmError::Infeasible(format!(
                "placement on unknown server {}",
                p.server
            )));
        }
        covered += p.add;
    }
    if covered != request.mix() {
        return Err(EavmError::Infeasible(format!(
            "placements cover {covered}, request needs {}",
            request.mix()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> RequestView {
        RequestView {
            id: JobId::new(1),
            workload: WorkloadType::Cpu,
            vm_count: 3,
            deadline: Seconds(4800.0),
        }
    }

    fn servers() -> Vec<ServerView> {
        (0..3)
            .map(|i| ServerView::homogeneous(ServerId::new(i), MixVector::EMPTY))
            .collect()
    }

    #[test]
    fn request_mix_is_single_typed() {
        assert_eq!(request().mix(), MixVector::new(3, 0, 0));
    }

    #[test]
    fn valid_split_placement_passes() {
        let p = vec![
            Placement {
                server: ServerId::new(0),
                add: MixVector::new(2, 0, 0),
            },
            Placement {
                server: ServerId::new(2),
                add: MixVector::new(1, 0, 0),
            },
        ];
        validate_placements(&request(), &servers(), &p).unwrap();
    }

    #[test]
    fn undercoverage_is_rejected() {
        let p = vec![Placement {
            server: ServerId::new(0),
            add: MixVector::new(2, 0, 0),
        }];
        assert!(validate_placements(&request(), &servers(), &p).is_err());
    }

    #[test]
    fn wrong_type_is_rejected() {
        let p = vec![Placement {
            server: ServerId::new(0),
            add: MixVector::new(0, 3, 0),
        }];
        assert!(validate_placements(&request(), &servers(), &p).is_err());
    }

    #[test]
    fn unknown_server_and_duplicates_are_rejected() {
        let p = vec![Placement {
            server: ServerId::new(9),
            add: MixVector::new(3, 0, 0),
        }];
        assert!(validate_placements(&request(), &servers(), &p).is_err());

        let p = vec![
            Placement {
                server: ServerId::new(0),
                add: MixVector::new(2, 0, 0),
            },
            Placement {
                server: ServerId::new(0),
                add: MixVector::new(1, 0, 0),
            },
        ];
        assert!(validate_placements(&request(), &servers(), &p).is_err());
    }

    #[test]
    fn empty_placement_is_rejected() {
        let p = vec![
            Placement {
                server: ServerId::new(0),
                add: MixVector::new(3, 0, 0),
            },
            Placement {
                server: ServerId::new(1),
                add: MixVector::EMPTY,
            },
        ];
        assert!(validate_placements(&request(), &servers(), &p).is_err());
    }
}
