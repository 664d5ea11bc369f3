//! # eavm-telemetry
//!
//! Dependency-free observability for the EAVM workspace: a named
//! metrics [`Registry`] (atomic [`Counter`]s, [`Gauge`]s,
//! log-bucketed [`Histogram`]s with p50/p95/p99/max), a bounded
//! structured event [`Journal`], and deterministic exporters
//! (Prometheus text format and JSON, see [`MetricsSnapshot`]).
//!
//! The crate sits at the bottom of the workspace dependency DAG — below
//! even `eavm-types` — so every layer (core search, simulator, service,
//! CLI, benches) can emit into one shared [`Telemetry`] handle instead
//! of growing its own ad-hoc stat structs.
//!
//! ## Enabled vs disabled
//!
//! A [`Telemetry`] is constructed either enabled ([`Telemetry::new`])
//! or disabled ([`Telemetry::disabled`]). A disabled handle hands out
//! no-op instruments — an increment is a branch on a `None` and nothing
//! else — and drops journal events, so instrumented hot paths cost
//! effectively nothing when observability is off. Crucially, neither
//! mode reads the wall clock on any code path that feeds allocation
//! decisions, so deterministic replay stays bit-exact with telemetry
//! enabled (asserted by `tests/service_replay.rs` at the workspace
//! root).

#![forbid(unsafe_code)]

mod export;
mod journal;
mod metrics;

pub use journal::{Event, Journal, Severity};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};

use std::fmt;
use std::sync::Arc;

/// Default bound on retained journal events.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// Shared observability handle: one registry plus one journal.
///
/// Cheap to clone via `Arc`; every subsystem that wants to emit metrics
/// holds an `Arc<Telemetry>` and registers its instruments by name.
pub struct Telemetry {
    enabled: bool,
    registry: Registry,
    journal: Journal,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("journal_capacity", &self.journal.capacity())
            .finish()
    }
}

impl Telemetry {
    /// An enabled handle with the default journal capacity.
    pub fn new() -> Arc<Telemetry> {
        Telemetry::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An enabled handle retaining at most `capacity` journal events.
    pub fn with_journal_capacity(capacity: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: true,
            registry: Registry::new(),
            journal: Journal::new(capacity),
        })
    }

    /// A disabled handle: instruments are no-ops, events are dropped.
    pub fn disabled() -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: false,
            registry: Registry::new(),
            journal: Journal::new(1),
        })
    }

    /// Whether instruments record and events are retained.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get or register a counter (no-op when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        if self.enabled {
            self.registry.counter(name)
        } else {
            Counter::noop()
        }
    }

    /// Get or register a gauge (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        if self.enabled {
            self.registry.gauge(name)
        } else {
            Gauge::noop()
        }
    }

    /// Get or register a histogram (no-op when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        if self.enabled {
            self.registry.histogram(name)
        } else {
            Histogram::noop()
        }
    }

    /// Append a journal event (dropped when disabled). `time_s` is
    /// virtual time — callers must not pass wall-clock readings on
    /// deterministic paths.
    pub fn event(
        &self,
        time_s: f64,
        subsystem: &'static str,
        severity: Severity,
        message: impl Into<String>,
        fields: Vec<(&'static str, String)>,
    ) {
        if self.enabled {
            self.journal
                .push(time_s, subsystem, severity, message, fields);
        }
    }

    /// Snapshot every registered instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The event journal (empty when disabled).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_handle_records() {
        let t = Telemetry::new();
        t.counter("a").inc();
        t.counter("b").add(4);
        t.gauge("g").set(7);
        t.histogram("h").record(10);
        t.event(1.0, "test", Severity::Info, "hello", vec![]);
        let snap = t.snapshot();
        assert_eq!(snap.counter("a"), 1);
        assert_eq!(snap.counter("b"), 4);
        assert_eq!(snap.gauges, vec![("g".to_string(), 7)]);
        assert_eq!(snap.histograms[0].1.count, 1);
        assert_eq!(t.journal().events().len(), 1);
    }

    #[test]
    fn disabled_handle_drops_everything() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("a").inc();
        t.counter("b").add(9);
        t.gauge("g").set(7);
        t.histogram("h").record(10);
        t.event(1.0, "test", Severity::Error, "dropped", vec![]);
        assert!(t.snapshot().is_empty());
        assert!(t.journal().events().is_empty());
    }

    #[test]
    fn instruments_are_shared_by_name() {
        let t = Telemetry::new();
        t.counter("x").inc();
        t.counter("x").inc();
        assert_eq!(t.snapshot().counter("x"), 2);
    }
}
