//! Property-based tests for the database layer: CSV/auxiliary-file
//! roundtrips for arbitrary well-formed values, and lookup totality.

use eavm_benchdb::{AuxData, DbRecord, ModelDatabase};
use eavm_types::{Joules, MixVector, Seconds, Watts, WorkloadType};
use proptest::prelude::*;

fn arb_mix_nonempty() -> impl Strategy<Value = MixVector> {
    (0u32..12, 0u32..6, 0u32..9)
        .prop_map(|(c, m, i)| MixVector::new(c, m, i))
        .prop_filter("non-empty", |m| !m.is_empty())
}

fn arb_record() -> impl Strategy<Value = DbRecord> {
    (
        arb_mix_nonempty(),
        10.0f64..1e5,
        1.0f64..1e7,
        125.0f64..270.0,
    )
        .prop_map(|(mix, time, energy, power)| DbRecord {
            mix,
            time: Seconds(time),
            avg_time_vm: Seconds(time / mix.total() as f64),
            energy: Joules(energy),
            max_power: Watts(power),
            edp: energy * time,
            per_type_time: WorkloadType::ALL
                .map(|ty| (mix[ty] > 0).then(|| Seconds(time * (0.5 + 0.1 * ty.index() as f64)))),
        })
}

proptest! {
    #[test]
    fn record_csv_roundtrip(r in arb_record()) {
        let line = r.to_csv();
        let back = DbRecord::from_csv(&line).unwrap();
        prop_assert_eq!(back.mix, r.mix);
        prop_assert!((back.time.value() - r.time.value()).abs() < 1e-3);
        prop_assert!((back.energy.value() - r.energy.value()).abs() < 1e-3);
        for ty in WorkloadType::ALL {
            prop_assert_eq!(back.time_of(ty).is_some(), r.time_of(ty).is_some());
        }
        back.validate().unwrap();
    }

    #[test]
    fn aux_text_roundtrip(
        (pc, pm, pi) in (1u32..16, 1u32..16, 1u32..16),
        (ec, em, ei) in (1u32..16, 1u32..16, 1u32..16),
        (tc, tm, ti) in (60.0f64..5e3, 60.0f64..5e3, 60.0f64..5e3),
    ) {
        let aux = AuxData::new(
            MixVector::new(pc, pm, pi),
            MixVector::new(ec, em, ei),
            [Seconds(tc), Seconds(tm), Seconds(ti)],
        );
        let back = AuxData::from_text(&aux.to_text()).unwrap();
        prop_assert_eq!(back.os_perf, aux.os_perf);
        prop_assert_eq!(back.os_energy, aux.os_energy);
        prop_assert_eq!(back.os_bounds, aux.os_bounds);
        for ty in WorkloadType::ALL {
            prop_assert!((back.solo_time(ty).value() - aux.solo_time(ty).value()).abs() < 1e-3);
        }
    }

    /// A database built from arbitrary unique records finds each of them
    /// and misses everything else.
    #[test]
    fn lookup_is_total_on_stored_keys(records in proptest::collection::vec(arb_record(), 1..40)) {
        // Deduplicate keys (the constructor rejects duplicates).
        let mut seen = std::collections::BTreeSet::new();
        let unique: Vec<DbRecord> = records
            .into_iter()
            .filter(|r| seen.insert(r.mix))
            .collect();
        let aux = AuxData::new(
            MixVector::new(11, 5, 8),
            MixVector::new(11, 5, 8),
            [Seconds(1200.0), Seconds(1000.0), Seconds(900.0)],
        );
        let db = ModelDatabase::new(unique.clone(), aux).unwrap();
        prop_assert_eq!(db.len(), unique.len());
        for r in &unique {
            prop_assert_eq!(db.lookup(r.mix).map(|x| x.mix), Some(r.mix));
        }
        prop_assert!(db.lookup(MixVector::new(99, 99, 99)).is_none());
        // Records stay sorted.
        for w in db.records().windows(2) {
            prop_assert!(w[0].mix < w[1].mix);
        }
    }

    /// Database CSV text roundtrips as a whole.
    #[test]
    fn database_csv_roundtrip(records in proptest::collection::vec(arb_record(), 1..25)) {
        let mut seen = std::collections::BTreeSet::new();
        let unique: Vec<DbRecord> = records
            .into_iter()
            .filter(|r| seen.insert(r.mix))
            .collect();
        let aux = AuxData::new(
            MixVector::new(11, 5, 8),
            MixVector::new(11, 5, 8),
            [Seconds(1200.0), Seconds(1000.0), Seconds(900.0)],
        );
        let db = ModelDatabase::new(unique, aux).unwrap();
        let back = ModelDatabase::from_csv(&db.to_csv(), &db.aux().to_text()).unwrap();
        prop_assert_eq!(back.len(), db.len());
        prop_assert_eq!(back.to_csv(), db.to_csv());
    }
}
