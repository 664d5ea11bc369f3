//! Integration: a service edge path the unit tests don't reach —
//! admission load-shedding under a full control channel — observed
//! through the telemetry registry as well as the stats snapshot.

use std::sync::Arc;

use eavm_benchdb::{DbBuilder, ModelDatabase};
use eavm_service::{AllocService, ServiceConfig, SubmitOutcome};
use eavm_swf::{Priority, VmRequest};
use eavm_telemetry::Telemetry;
use eavm_types::{JobId, Seconds, WorkloadType};

fn db() -> ModelDatabase {
    DbBuilder::exact().build().expect("db")
}

fn request(id: u32, ty: WorkloadType, vms: u32) -> VmRequest {
    VmRequest {
        id: JobId::new(id),
        submit: Seconds(0.0),
        workload: ty,
        vm_count: vms,
        deadline: Seconds(1e7),
        priority: Priority::Standard,
    }
}

/// `try_submit` against a capacity-1 admission channel must shed once
/// the coordinator falls behind, and every shed must land in both the
/// stats snapshot and the registry counter.
#[test]
fn try_submit_sheds_on_a_full_admission_queue() {
    let telemetry = Telemetry::new();
    let mut config = ServiceConfig::new(1, 4).with_telemetry(Arc::clone(&telemetry));
    config.queue_capacity = 1;
    config.deadlines = [Seconds(1e7); 3];
    let service = AllocService::start(db(), config).expect("start");

    // Each submission costs the admission loop real placement work, so a
    // tight enough loop must outrun a one-slot channel.
    let mut shed = 0u64;
    for i in 0..512 {
        if let SubmitOutcome::Shed(_) = service.try_submit(request(i, WorkloadType::Cpu, 1)) {
            shed += 1;
        }
    }
    assert!(
        shed > 0,
        "512 tight-loop submissions never filled the queue"
    );

    let stats = service.shutdown().expect("shutdown");
    assert_eq!(stats.shed_admission, shed);
    assert_eq!(telemetry.snapshot().counter("service.shed.admission"), shed);
    // Everything that got in received a verdict path of some kind.
    assert_eq!(
        stats.submitted,
        512 - shed,
        "accepted submissions must all reach the admission loop"
    );
}
