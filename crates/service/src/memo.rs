//! Memoized model lookups: an LRU cache in front of the hot
//! [`AllocationModel::estimate_mix`] path.
//!
//! The partition search scores every candidate block against every
//! candidate server, and successive requests revisit the same joined
//! mixes constantly — the key space is tiny (bounded by the OS bounds)
//! compared to the number of lookups. [`MemoModel`] wraps any
//! [`AllocationModel`] with an LRU keyed on [`MixKey`] (the canonical
//! resident-mix + pending-block form) and counts hits, misses, and
//! evictions for the service's stats snapshot.
//!
//! Transparency is the contract: a `MemoModel<M>` must answer every
//! query bit-identically to `M` (the deterministic-replay integration
//! test asserts this end-to-end against `Simulation::run`). Only
//! successful `estimate_mix` results are cached; errors always re-query.

use std::cell::RefCell;
// eavm-lint: allow(D3, reason = "LRU index map is point-lookup only (get/insert/remove by MixKey); nothing ever iterates it, and the hash lookup is the memoized hot path")
use std::collections::HashMap;

use eavm_core::{AllocationModel, MixEstimate, MixKey};
use eavm_telemetry::Counter;
use eavm_types::{EavmError, Joules, MixVector, Seconds, Watts, WorkloadType};

/// Live counter handles backing one cache, writing onto `stripe`.
///
/// The default ([`CacheMetrics::standalone`]) is a private set of real
/// counters, so a bare [`LruCache::new`] still counts — registry-backed
/// services instead hand their cache the registry's telemetry counters
/// (several caches may share them, one stripe each), making the
/// registry the single source of truth while [`LruCache::stats`] keeps
/// reporting per-cache numbers off its own stripe.
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
    /// Capacity evictions.
    pub evictions: Counter,
    /// Stripe this cache writes and reads.
    pub stripe: usize,
}

impl CacheMetrics {
    /// Private single-stripe counters (the non-registry default).
    pub fn standalone() -> CacheMetrics {
        CacheMetrics {
            hits: Counter::standalone(),
            misses: Counter::standalone(),
            evictions: Counter::standalone(),
            stripe: 0,
        }
    }
}

impl Default for CacheMetrics {
    fn default() -> Self {
        CacheMetrics::standalone()
    }
}

/// Counters of one cache's lifetime, exposed in `ServiceStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to consult the wrapped model.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Slot of the intrusive LRU list. `prev`/`next` index into the slab;
/// `usize::MAX` terminates the list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: MixKey,
    value: MixEstimate,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A fixed-capacity LRU map `MixKey -> MixEstimate`: O(1) get/insert via
/// a hash map over an intrusive doubly-linked recency list.
#[derive(Debug)]
pub struct LruCache {
    // eavm-lint: allow(D3, reason = "point lookups only; recency order lives in the intrusive list, never in map iteration")
    map: HashMap<MixKey, usize>,
    slots: Vec<Slot>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    metrics: CacheMetrics,
}

impl LruCache {
    /// An empty cache holding at most `capacity` entries (min 1), with
    /// private standalone counters.
    pub fn new(capacity: usize) -> Self {
        LruCache::with_metrics(capacity, CacheMetrics::standalone())
    }

    /// An empty cache counting into the given (possibly registry-backed,
    /// possibly shared-across-caches) counter handles.
    pub fn with_metrics(capacity: usize, metrics: CacheMetrics) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            // eavm-lint: allow(D3, reason = "see the field declaration: lookup-only map")
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            metrics,
        }
    }

    /// Unlink slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Link slot `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look `key` up, counting a hit (and refreshing recency) or a miss.
    pub fn get(&mut self, key: MixKey) -> Option<MixEstimate> {
        match self.map.get(&key).copied() {
            Some(i) => {
                self.metrics.hits.add_on(self.metrics.stripe, 1);
                if self.head != i {
                    self.unlink(i);
                    self.link_front(i);
                }
                Some(self.slots[i].value)
            }
            None => {
                self.metrics.misses.add_on(self.metrics.stripe, 1);
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting the least recently used one
    /// at capacity.
    pub fn insert(&mut self, key: MixKey, value: MixEstimate) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        }
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            // Reuse the LRU tail slot in place.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.metrics.evictions.add_on(self.metrics.stripe, 1);
            self.slots[victim] = Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            };
            victim
        };
        self.map.insert(key, i);
        self.link_front(i);
    }

    /// Counter snapshot (this cache's stripe only).
    pub fn stats(&self) -> CacheStats {
        let m = &self.metrics;
        CacheStats {
            hits: m.hits.on_stripe(m.stripe),
            misses: m.misses.on_stripe(m.stripe),
            evictions: m.evictions.on_stripe(m.stripe),
            len: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// An [`AllocationModel`] wrapper memoizing `estimate_mix` through an
/// [`LruCache`]. `exec_time` and `run_energy` are answered from the same
/// cached estimate; `power`, `solo_time`, `max_mix`, and `cpu_slots`
/// delegate (the search path never calls them per-candidate).
///
/// Not `Sync`: the service's admission loop owns its instance, so the
/// cache needs no locking.
#[derive(Debug)]
pub struct MemoModel<M> {
    inner: M,
    cache: RefCell<LruCache>,
}

impl<M: AllocationModel> MemoModel<M> {
    /// Wrap `inner` with a cache of `capacity` estimates.
    pub fn new(inner: M, capacity: usize) -> Self {
        MemoModel::with_metrics(inner, capacity, CacheMetrics::standalone())
    }

    /// Wrap `inner` with a cache counting into `metrics`.
    pub fn with_metrics(inner: M, capacity: usize, metrics: CacheMetrics) -> Self {
        MemoModel {
            inner,
            cache: RefCell::new(LruCache::with_metrics(capacity, metrics)),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Counter snapshot of the cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.borrow().stats()
    }
}

impl<M: AllocationModel> AllocationModel for MemoModel<M> {
    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        if mix.is_empty() {
            // The database has no empty register; never cache the inner
            // model's error path.
            return self.inner.estimate_mix(mix);
        }
        let key = MixKey::of(mix);
        if let Some(est) = self.cache.borrow_mut().get(key) {
            return Ok(est);
        }
        let est = self.inner.estimate_mix(mix)?;
        self.cache.borrow_mut().insert(key, est);
        Ok(est)
    }

    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        self.estimate_mix(mix)?
            .time_of(ty)
            .ok_or_else(|| EavmError::ModelMiss(format!("type {ty} absent from mix {mix}")))
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        if mix.is_empty() {
            return self.inner.run_energy(mix);
        }
        Ok(self.estimate_mix(mix)?.energy)
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        self.inner.power(mix)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_benchdb::DbBuilder;
    use eavm_core::DbModel;

    fn db_model() -> DbModel {
        DbModel::new(DbBuilder::exact().build().unwrap())
    }

    fn est(t: f64) -> MixEstimate {
        MixEstimate {
            per_type_time: [Some(Seconds(t)), None, None],
            energy: Joules(t * 100.0),
        }
    }

    #[test]
    fn lru_counts_hits_misses_and_serves_cached_values() {
        let mut c = LruCache::new(4);
        let k = MixKey::of(MixVector::new(1, 2, 3));
        assert!(c.get(k).is_none());
        c.insert(k, est(1.0));
        assert_eq!(c.get(k), Some(est(1.0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (1, 1, 0, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut c = LruCache::new(2);
        let ka = MixKey::of(MixVector::new(1, 0, 0));
        let kb = MixKey::of(MixVector::new(2, 0, 0));
        let kc = MixKey::of(MixVector::new(3, 0, 0));
        c.insert(ka, est(1.0));
        c.insert(kb, est(2.0));
        // Touch A so B becomes the LRU entry; C must evict B, not A.
        assert!(c.get(ka).is_some());
        c.insert(kc, est(3.0));
        assert!(c.get(ka).is_some());
        assert!(c.get(kb).is_none());
        assert!(c.get(kc).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().len, 2);
    }

    #[test]
    fn lru_reinsert_refreshes_value_without_eviction() {
        let mut c = LruCache::new(2);
        let k = MixKey::of(MixVector::new(1, 1, 1));
        c.insert(k, est(1.0));
        c.insert(k, est(2.0));
        assert_eq!(c.get(k), Some(est(2.0)));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().len, 1);
    }

    #[test]
    fn lru_exercises_churn_beyond_capacity() {
        let mut c = LruCache::new(8);
        for round in 0..3u32 {
            for i in 0..32u32 {
                let k = MixKey::of(MixVector::new(i, round, 0));
                c.insert(k, est(i as f64));
                assert_eq!(c.get(k), Some(est(i as f64)));
            }
        }
        let s = c.stats();
        assert_eq!(s.len, 8);
        assert_eq!(s.evictions as usize, 3 * 32 - 8);
    }

    #[test]
    fn shared_striped_metrics_attribute_per_cache() {
        // Two caches share one set of sharded counters, each on its own
        // stripe: per-cache stats split, the counter sums fleet-wide.
        let hits = Counter::standalone_sharded(2);
        let misses = Counter::standalone_sharded(2);
        let evictions = Counter::standalone_sharded(2);
        let mk = |stripe| CacheMetrics {
            hits: hits.clone(),
            misses: misses.clone(),
            evictions: evictions.clone(),
            stripe,
        };
        let mut a = LruCache::with_metrics(4, mk(0));
        let mut b = LruCache::with_metrics(4, mk(1));
        let k = MixKey::of(MixVector::new(1, 2, 3));
        a.insert(k, est(1.0));
        a.get(k);
        a.get(k);
        b.get(k); // miss: caches are independent, only counters are shared
        assert_eq!(a.stats().hits, 2);
        assert_eq!(a.stats().misses, 0);
        assert_eq!(b.stats().hits, 0);
        assert_eq!(b.stats().misses, 1);
        assert_eq!(hits.get(), 2);
        assert_eq!(misses.get(), 1);
    }

    #[test]
    fn memo_model_is_transparent() {
        let plain = db_model();
        let memo = MemoModel::new(db_model(), 64);
        for mix in [
            MixVector::new(1, 0, 0),
            MixVector::new(2, 1, 1),
            MixVector::new(0, 3, 2),
            MixVector::EMPTY,
        ] {
            assert_eq!(
                plain.estimate_mix(mix).is_ok(),
                memo.estimate_mix(mix).is_ok()
            );
            if let Ok(a) = plain.estimate_mix(mix) {
                // Twice: the second answer comes from the cache.
                assert_eq!(memo.estimate_mix(mix).unwrap(), a);
                assert_eq!(memo.estimate_mix(mix).unwrap(), a);
            }
            assert_eq!(
                plain.run_energy(mix).unwrap(),
                memo.run_energy(mix).unwrap()
            );
            assert_eq!(plain.power(mix).unwrap(), memo.power(mix).unwrap());
        }
        for ty in WorkloadType::ALL {
            assert_eq!(plain.solo_time(ty), memo.solo_time(ty));
        }
        assert_eq!(plain.max_mix(), memo.max_mix());
        assert_eq!(plain.cpu_slots(), memo.cpu_slots());
        let s = memo.cache_stats();
        assert!(s.hits > 0 && s.misses > 0);
    }

    #[test]
    fn memo_model_caches_repeat_lookups() {
        let memo = MemoModel::new(db_model(), 64);
        let mix = MixVector::new(2, 1, 0);
        for _ in 0..10 {
            memo.estimate_mix(mix).unwrap();
        }
        let s = memo.cache_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 9);
    }
}
