//! Lowering a validated [`ScenarioSpec`] onto the existing machinery:
//! each phase's arrival mix becomes a synthetic SWF segment (via
//! [`eavm_swf::TraceGenerator`] + [`eavm_swf::adapt_trace`]), phase
//! fault knobs become [`eavm_faults::FaultEvent`]s scoped to the phase
//! window, and maintenance/brownout host ranges become *scheduled*
//! crash/degradation events at the phase boundary. The output is one
//! globally renumbered request stream plus one merged [`FaultPlan`] —
//! exactly what [`crate::engine`] feeds the simulator or the service.
//!
//! Everything here is a pure function of the spec (and the model
//! database's solo times), so the same scenario file always compiles to
//! the byte-identical workload.

use eavm_faults::{mix64, FaultConfig, FaultEvent, FaultKind, FaultPlan, LookupFaults};
use eavm_swf::{adapt_trace, AdaptConfig, GeneratorConfig, TraceGenerator, VmRequest};
use eavm_types::{JobId, Seconds};

use crate::spec::{ExitCondition, Mode, PhaseSpec, Policy, ScenarioSpec};

/// Stream-splitting constant (the SplitMix64 increment), used to derive
/// independent per-phase seeds from the scenario master seed.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One phase after lowering: its time window and its slice of the
/// global request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPhase {
    /// Phase name from the spec.
    pub name: String,
    /// Window start (seconds since scenario start).
    pub start: f64,
    /// Window end; the next phase starts here.
    pub end: f64,
    /// Index of the phase's first request in the global stream.
    pub first_request: usize,
    /// One past the phase's last request.
    pub end_request: usize,
    /// Resolved placement policy (phase override or scenario default).
    pub policy: Policy,
}

impl CompiledPhase {
    /// Number of requests submitted during this phase.
    pub fn request_count(&self) -> usize {
        self.end_request - self.first_request
    }
}

/// A scenario lowered to concrete inputs for the drivers.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// The validated source spec.
    pub spec: ScenarioSpec,
    /// All requests, submit-sorted and renumbered densely from 0.
    pub requests: Vec<VmRequest>,
    /// Phase windows, in execution order.
    pub phases: Vec<CompiledPhase>,
    /// Merged host-fault schedule across every phase window, plus the
    /// lookup-failure predicate (simulate mode; empty host schedule in
    /// service mode, which validation already guarantees).
    pub fault_plan: FaultPlan,
}

impl CompiledScenario {
    /// The requests submitted during phase `k`.
    pub fn phase_requests(&self, k: usize) -> &[VmRequest] {
        let p = &self.phases[k];
        &self.requests[p.first_request..p.end_request]
    }
}

/// Generate one phase's job segment. For [`ExitCondition::Jobs`] the
/// count is exact; for [`ExitCondition::AfterSeconds`] the generator is
/// re-run with a doubling job budget until the segment spans the
/// window, then truncated to arrivals strictly inside it — still a pure
/// function of the config, since each re-run restarts from the seed.
fn phase_segment(phase: &PhaseSpec, gen_seed: u64) -> Result<(eavm_swf::SwfTrace, f64), String> {
    let base = |total_jobs: usize| GeneratorConfig {
        seed: gen_seed,
        total_jobs,
        mean_burst_gap_s: phase.mean_gap_s,
        max_burst_jobs: phase.max_burst,
        runtime_mu: phase.runtime_mu,
        runtime_sigma: phase.runtime_sigma,
        // Exact arrival counts: the cleaning pass is not part of a
        // scenario, every generated job enters the workload.
        failed_frac: 0.0,
        cancelled_frac: 0.0,
        diurnal_amplitude: phase.diurnal,
    };
    let at = |msg: String| format!("phase {:?}: {msg}", phase.name);
    match phase.exit {
        ExitCondition::Jobs(n) => {
            let mut generator = TraceGenerator::new(base(n)).map_err(&at)?;
            let trace = generator.generate();
            let span = trace
                .jobs
                .last()
                .map(|j| j.submit_time as f64)
                .unwrap_or(0.0)
                + phase.mean_gap_s;
            Ok((trace, span))
        }
        ExitCondition::AfterSeconds(window) => {
            // Expected arrivals ≈ window / gap bursts × mean burst size.
            let per_burst = (phase.max_burst + 1) as f64 / 2.0;
            let mut budget = ((window / phase.mean_gap_s) * per_burst).ceil().max(1.0) as usize + 8;
            loop {
                let mut generator = TraceGenerator::new(base(budget)).map_err(&at)?;
                let mut trace = generator.generate();
                let spans_window = trace
                    .jobs
                    .last()
                    .is_some_and(|j| (j.submit_time as f64) >= window);
                if spans_window {
                    trace.jobs.retain(|j| (j.submit_time as f64) < window);
                    return Ok((trace, window));
                }
                budget = budget.saturating_mul(2);
                if budget > 4_000_000 {
                    return Err(at(format!(
                        "exit_after_s = {window} needs over 4M jobs at this arrival rate"
                    )));
                }
            }
        }
    }
}

/// The scheduled (non-stochastic) fault events of one phase window:
/// maintenance takes `offline_hosts` down for the whole window, a
/// brownout degrades `degrade_hosts` at `degrade_factor` for the whole
/// window.
fn scheduled_events(phase: &PhaseSpec, start: f64, end: f64, events: &mut Vec<FaultEvent>) {
    let duration = (end - start).max(1.0);
    if let Some(range) = phase.offline_hosts {
        for host in range.start..range.end {
            events.push(FaultEvent {
                at: start,
                host,
                kind: FaultKind::HostCrash { down_for: duration },
            });
        }
    }
    if let Some(range) = phase.degrade_hosts {
        for host in range.start..range.end {
            events.push(FaultEvent {
                at: start,
                host,
                kind: FaultKind::HostDegraded {
                    duration,
                    factor: phase.degrade_factor.clamp(0.05, 1.0),
                },
            });
        }
    }
}

/// Lower a validated spec into requests + phase windows + fault plan.
/// `solo` is the model database's per-type solo times (the deadline
/// basis: deadline = `qos_factor × solo`).
pub fn compile(spec: &ScenarioSpec, solo: [Seconds; 3]) -> Result<CompiledScenario, String> {
    debug_assert!(spec.validate().is_ok());
    let hosts = spec.fleet.servers + spec.fleet.big_nodes;
    let mut requests: Vec<VmRequest> = Vec::new();
    let mut phases: Vec<CompiledPhase> = Vec::new();
    let mut events: Vec<FaultEvent> = Vec::new();
    let mut clock = 0.0f64;

    for (i, phase) in spec.phases.iter().enumerate() {
        let stream = (i as u64 + 1).wrapping_mul(GOLDEN);
        let gen_seed = mix64(spec.seed ^ stream);
        let (trace, span) = phase_segment(phase, gen_seed)?;

        let adapt_cfg = AdaptConfig {
            seed: mix64(gen_seed ^ 0xADA7),
            vms_min: phase.vms_min,
            vms_max: phase.vms_max,
            max_burst: phase.max_burst,
            qos_factor: spec.qos_factor,
            solo_times: solo,
        };
        adapt_cfg
            .validate()
            .map_err(|e| format!("phase {:?}: {e}", phase.name))?;
        let first_request = requests.len();
        for mut request in adapt_trace(&trace, &adapt_cfg) {
            request.submit += Seconds(clock);
            requests.push(request);
        }

        let start = clock;
        let end = clock + span;
        // Per-phase stochastic fault plan: its own window, its own seed
        // stream — this is how a scenario switches fault regimes
        // mid-run. Events are generated in window-relative time and
        // shifted to absolute.
        if phase.crash_rate > 0.0 || phase.degrade_rate > 0.0 {
            let cfg = FaultConfig {
                seed: mix64(spec.faults.seed ^ stream),
                crash_rate: phase.crash_rate,
                degrade_rate: phase.degrade_rate,
                mean_downtime: phase.mean_downtime_s,
                mean_degradation: phase.mean_degradation_s,
                degrade_factor: phase.degrade_factor,
                lookup_failure_rate: 0.0,
            };
            let window = FaultPlan::generate(&cfg, hosts, span);
            events.extend(window.events().iter().map(|e| FaultEvent {
                at: e.at + start,
                ..*e
            }));
        }
        scheduled_events(phase, start, end, &mut events);

        phases.push(CompiledPhase {
            name: phase.name.clone(),
            start,
            end,
            first_request,
            end_request: requests.len(),
            policy: phase.policy.clone().unwrap_or_else(|| spec.policy.clone()),
        });
        clock = end;
    }

    if requests.is_empty() {
        return Err(
            "scenario generates no requests (windows too short for the arrival rate)".into(),
        );
    }
    // Renumber densely: strategies and the service key on the id.
    for (i, request) in requests.iter_mut().enumerate() {
        request.id = JobId::from(i);
    }

    // Same lookup-predicate seeding as FaultPlan::generate, so
    // simulate- and service-mode lookups fail identically per seed.
    let lookup = LookupFaults::new(
        mix64(spec.faults.seed ^ 0x100C),
        spec.faults.lookup_failure_rate,
    );
    let fault_plan = FaultPlan::from_events(events, lookup);
    if spec.mode == Mode::Service {
        debug_assert!(fault_plan.events().is_empty());
    }

    Ok(CompiledScenario {
        spec: spec.clone(),
        requests,
        phases,
        fault_plan,
    })
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact, bit-reproducible values")]
mod tests {
    use super::*;
    use crate::parse::parse_scenario;

    fn solo() -> [Seconds; 3] {
        [Seconds(1200.0), Seconds(1000.0), Seconds(900.0)]
    }

    const TWO_PHASE: &str = r#"
[scenario]
name = "t"
seed = 11
alpha = 0.5

[fleet]
servers = 8

[phase.calm]
exit_jobs = 30
mean_gap_s = 120.0

[phase.storm]
exit_after_s = 3600.0
mean_gap_s = 15.0
max_burst = 6
crash_rate = 0.4
strategy = "ff"
"#;

    fn compiled() -> CompiledScenario {
        let spec = parse_scenario(TWO_PHASE).expect("spec");
        compile(&spec, solo()).expect("compile")
    }

    #[test]
    fn phases_partition_the_request_stream() {
        let c = compiled();
        assert_eq!(c.phases.len(), 2);
        assert_eq!(c.phases[0].first_request, 0);
        assert_eq!(c.phases[0].end_request, 30);
        assert_eq!(c.phases[1].first_request, 30);
        assert_eq!(c.phases[1].end_request, c.requests.len());
        assert!(c.phases[1].request_count() > 0);
        // Windows are contiguous and the second is exactly the sim-time
        // budget.
        assert_eq!(c.phases[0].end, c.phases[1].start);
        assert!((c.phases[1].end - c.phases[1].start - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn requests_are_renumbered_and_submit_sorted() {
        let c = compiled();
        for (i, r) in c.requests.iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
        for w in c.requests.windows(2) {
            assert!(w[0].submit <= w[1].submit);
        }
        // Phase-2 arrivals live inside the phase-2 window.
        for r in c.phase_requests(1) {
            assert!(r.submit.value() >= c.phases[1].start);
            assert!(r.submit.value() < c.phases[1].end);
        }
    }

    #[test]
    fn fault_plans_switch_at_the_phase_boundary() {
        let c = compiled();
        // The calm phase schedules nothing; every event is inside the
        // storm window.
        assert!(!c.fault_plan.events().is_empty());
        for e in c.fault_plan.events() {
            assert!(e.at >= c.phases[1].start && e.at < c.phases[1].end);
            assert!(e.host < 8);
        }
    }

    #[test]
    fn policy_overrides_resolve_per_phase() {
        let c = compiled();
        assert_eq!(c.phases[0].policy, Policy::Proactive { alpha: 0.5 });
        assert_eq!(c.phases[1].policy, Policy::Named("ff".into()));
    }

    #[test]
    fn compilation_is_deterministic() {
        let a = compiled();
        let b = compiled();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.fault_plan, b.fault_plan);
    }

    #[test]
    fn maintenance_ranges_become_scheduled_events() {
        let text = r#"
[scenario]
name = "m"
alpha = 0.5

[fleet]
servers = 10

[phase.work]
exit_jobs = 10

[phase.maintenance]
exit_jobs = 10
offline_hosts = 0..3
degrade_hosts = 3..5
degrade_factor = 0.4
"#;
        let spec = parse_scenario(text).expect("spec");
        let c = compile(&spec, solo()).expect("compile");
        let boundary = c.phases[1].start;
        let crashes: Vec<_> = c
            .fault_plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::HostCrash { .. }))
            .collect();
        let degrades: Vec<_> = c
            .fault_plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::HostDegraded { .. }))
            .collect();
        assert_eq!(crashes.len(), 3);
        assert_eq!(degrades.len(), 2);
        for e in crashes.iter().chain(&degrades) {
            assert_eq!(e.at, boundary);
        }
        let span = c.phases[1].end - c.phases[1].start;
        match crashes[0].kind {
            FaultKind::HostCrash { down_for } => {
                assert!((down_for - span).abs() < 1e-9 || down_for >= 1.0)
            }
            _ => unreachable!(),
        }
    }
}
