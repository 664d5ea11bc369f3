//! Property: the resilience layer and the memoization layer compose
//! without contaminating each other. In the service's model stack
//! (`ResilientModel<MemoModel<DbModel>>`) an injected transient lookup
//! failure is answered by the analytic fallback *before* the memo layer
//! is ever consulted — so a degraded answer must never be inserted into
//! the cache (where it would outlive the fault and silently poison
//! every later hit), and `model_fallbacks` must count exactly the
//! degraded answers, no more, no less.

use std::sync::OnceLock;

use eavm_benchdb::{DbBuilder, ModelDatabase};
use eavm_core::{AllocationModel, AnalyticModel, DbModel, ResilientModel};
use eavm_faults::LookupFaults;
use eavm_service::MemoModel;
use eavm_telemetry::Counter;
use eavm_types::MixVector;
use proptest::prelude::*;

fn db() -> &'static ModelDatabase {
    static DB: OnceLock<ModelDatabase> = OnceLock::new();
    DB.get_or_init(|| DbBuilder::exact().build().expect("db"))
}

/// Small covered mixes the empirical database can answer for.
fn mix_pool() -> &'static Vec<MixVector> {
    static POOL: OnceLock<Vec<MixVector>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = Vec::new();
        for c in 0..=2u32 {
            for m in 0..=2u32 {
                for i in 0..=2u32 {
                    let mix = MixVector::new(c, m, i);
                    if !mix.is_empty() && db().covers(mix) {
                        pool.push(mix);
                    }
                }
            }
        }
        pool
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn faulted_lookups_bypass_and_never_poison_the_memo_cache(
        seed in 1u64..u64::MAX,
        rate in 0.0f64..=1.0,
        picks in proptest::collection::vec(0usize..64, 1..80),
    ) {
        let pool = mix_pool();
        let faults = LookupFaults::new(seed, rate);
        let stack = ResilientModel::with_faults(
            MemoModel::new(DbModel::new(db().clone()), 1024),
            faults,
            Counter::standalone(),
            0,
        );
        let primary = DbModel::new(db().clone());
        let analytic = AnalyticModel::reference();

        let mut ordinal = 0u64;
        let mut degraded = 0u64;
        let mut clean = 0u64;
        let mut clean_mixes = std::collections::BTreeSet::new();
        #[expect(
            clippy::explicit_counter_loop,
            reason = "not `enumerate()`: the ordinal advances only when faults are enabled, exactly like the wrapper's internal counter"
        )]
        for pick in &picks {
            let mix = pool[pick % pool.len()];
            // Mirror the wrapper's fault predicate: one fault-eligible
            // lookup per estimate, pure in (seed, ordinal).
            let faulted = faults.is_enabled() && {
                let k = ordinal;
                ordinal += 1;
                faults.fails(k)
            };
            let got = stack.estimate_mix(mix).expect("estimate");
            if faulted {
                degraded += 1;
                prop_assert_eq!(got, analytic.estimate_mix(mix).expect("analytic"),
                    "a faulted lookup must be answered by the analytic fallback");
            } else {
                clean += 1;
                clean_mixes.insert(format!("{mix}"));
                prop_assert_eq!(got, primary.estimate_mix(mix).expect("primary"),
                    "an unfaulted lookup must be answered by the primary (possibly memoized)");
            }
        }

        // Exactly the degraded answers are counted as fallbacks.
        prop_assert_eq!(stack.model_fallbacks(), degraded);

        // The memo cache saw exactly the clean lookups: every faulted
        // one bypassed it entirely...
        let cache = stack.inner().cache_stats();
        prop_assert_eq!(cache.hits + cache.misses, clean);
        // ...and inserted nothing: the resident entries are exactly the
        // distinct mixes that had at least one clean lookup (capacity
        // 1024 means nothing was ever evicted).
        prop_assert_eq!(cache.evictions, 0);
        prop_assert_eq!(cache.len, clean_mixes.len());
        prop_assert_eq!(cache.misses, clean_mixes.len() as u64,
            "first clean lookup of each mix misses, the rest must hit");
    }
}
