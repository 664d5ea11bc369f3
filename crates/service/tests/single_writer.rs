//! Integration: the service runs on exactly one thread. This file holds
//! a single test so no other test's threads share the process while it
//! counts.

use eavm_benchdb::DbBuilder;
use eavm_service::{AllocService, ServiceConfig};

/// Threads of this process, from the kernel's own count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
#[cfg(target_os = "linux")]
fn start_spawns_exactly_one_thread_and_shutdown_joins_it() {
    let db = DbBuilder::exact().build().expect("db");
    let before = threads();
    let service = AllocService::start(db, ServiceConfig::new(1, 8)).expect("start");
    assert_eq!(threads(), before + 1, "start must spawn one thread");
    service.shutdown().expect("shutdown");
    assert_eq!(threads(), before, "shutdown must join it");
}
