//! Counting and timing adapters around the public layer traits.
//!
//! Each adapter implements the same trait it wraps and forwards every
//! call unchanged, so a traced pass makes exactly the decisions of an
//! untraced one (the ladder checks this); it only adds a clock read on
//! each side of the calls it times.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use eavm_core::{
    AllocationModel, AllocationStrategy, MixEstimate, Placement, RequestView, ServerView,
};
use eavm_types::{EavmError, Joules, MixVector, Seconds, Watts, WorkloadType};

/// Calls made into one layer and the wall time they took.
#[derive(Debug, Default)]
pub struct Span {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl Span {
    /// A shared, empty span.
    pub fn shared() -> Rc<Span> {
        Rc::new(Span::default())
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Total time of the recorded calls, in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.nanos.get()
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.calls.set(self.calls.get() + 1);
        self.nanos.set(self.nanos.get() + ns);
        out
    }
}

/// Cost of one `Instant::now()` call, so self times can discount the
/// clock reads the adapters add: a timed span contains about one read,
/// its parent about one more.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut last = Instant::now();
    let t = Instant::now();
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    let total: Duration = last.duration_since(t);
    total.as_nanos() as f64 / f64::from(READS)
}

/// An [`AllocationModel`] whose estimating calls are timed into a
/// [`Span`]. Accessors (`solo_time`, `max_mix`, `cpu_slots`) are
/// forwarded untimed: they read configuration, not the model.
#[derive(Debug)]
pub struct TimedModel<M> {
    inner: M,
    span: Rc<Span>,
}

impl<M> TimedModel<M> {
    /// Wrap `inner`, recording into `span`.
    pub fn new(inner: M, span: Rc<Span>) -> Self {
        TimedModel { inner, span }
    }
}

impl<M: AllocationModel> AllocationModel for TimedModel<M> {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        self.span.time(|| self.inner.exec_time(mix, ty))
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        self.span.time(|| self.inner.power(mix))
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        self.span.time(|| self.inner.run_energy(mix))
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.inner.solo_time(ty)
    }

    fn max_mix(&self) -> MixVector {
        self.inner.max_mix()
    }

    fn cpu_slots(&self) -> u32 {
        self.inner.cpu_slots()
    }

    fn slowdown(&self, mix: MixVector, ty: WorkloadType) -> Result<f64, EavmError> {
        self.span.time(|| self.inner.slowdown(mix, ty))
    }

    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        self.span.time(|| self.inner.estimate_mix(mix))
    }
}

/// An [`AllocationStrategy`] whose `allocate` calls are timed into a
/// [`Span`].
#[derive(Debug)]
pub struct TimedStrategy<S> {
    inner: S,
    span: Rc<Span>,
}

impl<S> TimedStrategy<S> {
    /// Wrap `inner`, recording into `span`.
    pub fn new(inner: S, span: Rc<Span>) -> Self {
        TimedStrategy { inner, span }
    }
}

impl<S: AllocationStrategy> AllocationStrategy for TimedStrategy<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn allocate(
        &mut self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<Placement>, EavmError> {
        let span = Rc::clone(&self.span);
        span.time(|| self.inner.allocate(request, servers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_core::AnalyticModel;

    #[test]
    fn timed_model_forwards_and_counts() {
        let span = Span::shared();
        let timed = TimedModel::new(AnalyticModel::reference(), Rc::clone(&span));
        let plain = AnalyticModel::reference();
        let mix = MixVector::new(2, 1, 0);
        assert_eq!(timed.estimate_mix(mix).ok(), plain.estimate_mix(mix).ok());
        assert_eq!(timed.max_mix(), plain.max_mix());
        assert_eq!(span.calls(), 1);
        assert!(clock_read_ns() > 0.0);
    }
}
