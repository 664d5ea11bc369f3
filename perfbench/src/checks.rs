//! Correctness checks run on every pass, and the failure tally.

use eavm_service::{verdict_line, ServiceStats, Verdict};
use eavm_simulator::SimOutcome;
use eavm_swf::VmRequest;
use eavm_types::MixVector;

/// Requests attempted and failed across a run, with what failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// The first few failed checks, in order.
    pub problems: Vec<String>,
}

impl Tally {
    /// Account one pass over `requests` requests. `Ok(n)` means the pass
    /// ran and checked out with `n` shed or missing verdicts; `Err`
    /// (an errored pass or a failed check) fails every request of it.
    pub fn pass(&mut self, label: &str, requests: usize, outcome: Result<u64, String>) {
        self.attempted += requests as u64;
        let problem = match outcome {
            Ok(0) => return,
            Ok(lost) => {
                self.failed += lost;
                format!("{label}: {lost} request(s) shed or without a final verdict")
            }
            Err(e) => {
                self.failed += requests as u64;
                format!("{label}: {e}")
            }
        };
        if self.problems.len() < 16 {
            self.problems.push(problem);
        }
    }
}

/// A simulator outcome conserves the trace's VMs and equals the
/// reference outcome bit for bit.
pub fn sim(outcome: &SimOutcome, reference: &SimOutcome, vms: u64) -> Result<u64, String> {
    if outcome.vms as u64 != vms {
        return Err(format!(
            "{} simulated {} VMs, the trace has {vms}",
            outcome.strategy, outcome.vms
        ));
    }
    if outcome != reference {
        return Err(format!(
            "{} outcome differs from the reference (energy {} vs {})",
            outcome.strategy, outcome.energy.0, reference.energy.0
        ));
    }
    Ok(0)
}

/// Every ticket of a service pass has exactly one final verdict, every
/// admission places exactly the request's VMs, and admitted + shed
/// equals submitted. Returns the shed and missing verdicts.
pub fn verdicts(
    requests: &[VmRequest],
    verdicts: &[(u64, Verdict)],
    stats: &ServiceStats,
) -> Result<u64, String> {
    let mut finals = vec![0u32; requests.len()];
    let mut shed = 0u64;
    for (ticket, verdict) in verdicts {
        let Some(request) = requests.get(*ticket as usize) else {
            return Err(format!("verdict for unknown ticket {ticket}"));
        };
        match verdict {
            Verdict::Admitted { placements, .. }
            | Verdict::AdmittedCrossShard { placements, .. } => {
                let placed = placements
                    .iter()
                    .fold(MixVector::EMPTY, |acc, p| acc + p.add);
                if placed != MixVector::single(request.workload, request.vm_count) {
                    return Err(format!(
                        "ticket {ticket} placed {placed}, requested {} x {}",
                        request.vm_count, request.workload
                    ));
                }
            }
            Verdict::Shed { .. } => shed += 1,
            Verdict::Queued { .. } | Verdict::Requeued { .. } => continue,
        }
        finals[*ticket as usize] += 1;
    }
    if let Some(ticket) = finals.iter().position(|&n| n > 1) {
        return Err(format!(
            "ticket {ticket} has {} final verdicts",
            finals[ticket]
        ));
    }
    let missing = finals.iter().filter(|&&n| n == 0).count() as u64;
    let admitted = stats.admitted_local + stats.admitted_cross_shard;
    let shed_counted = stats.shed_admission
        + stats.shed_wait_queue
        + stats.shed_unplaceable
        + stats.shed_shard_failure
        + stats.shed_storage_degraded
        + stats.shed_queue_aged
        + stats.shed_brownout_class;
    let n = requests.len() as u64;
    if stats.submitted != n || admitted + shed_counted != n || stats.parked != 0 {
        return Err(format!(
            "submitted {} of {n}, admitted {admitted} + shed {shed_counted}, {} still parked",
            stats.submitted, stats.parked
        ));
    }
    Ok(shed + missing)
}

/// The canonical verdict log of a pass: one `verdict_line` per verdict,
/// by ticket, in emission order within a ticket.
pub fn verdict_log(verdicts: &[(u64, Verdict)]) -> String {
    let mut sorted: Vec<&(u64, Verdict)> = verdicts.iter().collect();
    sorted.sort_by_key(|(ticket, _)| *ticket);
    sorted
        .iter()
        .map(|(ticket, verdict)| format!("{ticket} {}\n", verdict_line(*ticket, verdict)))
        .collect()
}
