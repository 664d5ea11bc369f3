//! Exactness of `DbModel`'s per-mix table: for every mix in the box one
//! larger than `max_mix()` on each axis (so the out-of-box fall-through
//! is covered too), the empty mix included, `estimate_mix`, `exec_time`
//! and `run_energy` answer bit for bit what the database's binary
//! search (`ModelDatabase::estimate`) answers, errors included.

use eavm_benchdb::{AuxData, DbBuilder, ModelDatabase};
use eavm_core::{AllocationModel, DbModel};
use eavm_telemetry::Counter;
use eavm_testbed::{ContentionModel, RunSimulator, ServerSpec};
use eavm_types::{MixVector, Seconds, WorkloadType};

fn bits(t: Option<Seconds>) -> Option<u64> {
    t.map(|t| t.value().to_bits())
}

fn assert_table_is_exact(db: ModelDatabase) {
    let (hits, misses) = (Counter::standalone(), Counter::standalone());
    let model = DbModel::with_counters(db.clone(), hits.clone(), misses.clone());
    let b = model.max_mix();
    let probe = MixVector::new(b.cpu + 1, b.mem + 1, b.io + 1);
    let (mut in_box, mut fell_through) = (0u64, 0u64);
    for mix in MixVector::space(probe) {
        let reference = db.estimate(mix);
        let got = model.estimate_mix(mix);
        match (&reference, &got) {
            (Ok(r), Ok(g)) => {
                assert_eq!(
                    r.per_type_time.map(bits),
                    g.per_type_time.map(bits),
                    "{mix}"
                );
                assert_eq!(
                    r.energy.value().to_bits(),
                    g.energy.value().to_bits(),
                    "{mix}"
                );
            }
            (Err(r), Err(g)) => assert_eq!(r.to_string(), g.to_string(), "{mix}"),
            _ => panic!("{mix}: database {reference:?} vs table {got:?}"),
        }
        for ty in WorkloadType::ALL {
            let want = reference.as_ref().ok().and_then(|r| r.time_of(ty));
            let got = model.exec_time(mix, ty).ok();
            assert_eq!(bits(want), bits(got), "{mix}/{ty}");
        }
        let energy = model
            .run_energy(mix)
            .map(|e| e.value().to_bits())
            .map_err(|e| e.to_string());
        if mix.is_empty() {
            // The empty mix draws no dynamic energy; the database has
            // no register for it.
            assert_eq!(energy, Ok(0f64.to_bits()));
        } else {
            let want = reference
                .as_ref()
                .map(|r| r.energy.value().to_bits())
                .map_err(|e| e.to_string());
            assert_eq!(want, energy, "{mix}");
        }
        if mix.is_empty() {
            continue;
        }
        if mix.fits_within(&b) && reference.is_ok() {
            in_box += 1;
        } else {
            fell_through += 1;
        }
    }
    // Each non-empty mix above took five counted lookups (estimate_mix,
    // three exec_time, run_energy): table hits for every in-box mix the
    // database can estimate, fall-throughs for the rest. The empty mix
    // counts as neither.
    assert!(in_box > 0 && fell_through > 0);
    assert_eq!(hits.get(), 5 * in_box);
    assert_eq!(misses.get(), 5 * fell_through);
}

#[test]
fn table_matches_the_exact_database() {
    assert_table_is_exact(DbBuilder::exact().build().expect("exact db"));
}

#[test]
fn table_matches_a_metered_database() {
    let db = DbBuilder {
        meter_seed: Some(7),
        ..Default::default()
    }
    .build()
    .expect("metered db");
    assert_table_is_exact(db);
}

#[test]
fn table_matches_the_big_node_database() {
    let db = DbBuilder {
        sim: RunSimulator {
            server: ServerSpec::big_node(),
            model: ContentionModel::default(),
        },
        meter_seed: Some(42),
        ..Default::default()
    }
    .build()
    .expect("big-node db");
    assert!(db.aux().os_bounds.cpu > DbBuilder::exact().build().expect("db").aux().os_bounds.cpu);
    assert_table_is_exact(db);
}

#[test]
fn an_oversized_box_keeps_no_table() {
    // The bounds come from the auxiliary file; a corrupt one must not
    // make the model allocate a table for them.
    let db = DbBuilder::exact().build().expect("db");
    let huge = MixVector::new(1 << 20, 1 << 20, 1 << 20);
    let aux = AuxData {
        os_bounds: huge,
        ..db.aux().clone()
    };
    let db = ModelDatabase::new(db.records().to_vec(), aux).expect("db");
    let (hits, misses) = (Counter::standalone(), Counter::standalone());
    let model = DbModel::with_counters(db.clone(), hits.clone(), misses.clone());
    assert_eq!(model.max_mix(), huge);
    for mix in [MixVector::new(2, 1, 0), MixVector::new(1, 1, 1)] {
        let want = db.estimate(mix).expect("estimate");
        let got = model.estimate_mix(mix).expect("estimate");
        assert_eq!(want.per_type_time.map(bits), got.per_type_time.map(bits));
        assert_eq!(want.energy.value().to_bits(), got.energy.value().to_bits());
    }
    assert!(model.estimate_mix(MixVector::EMPTY).is_err());
    assert_eq!((hits.get(), misses.get()), (0, 2));
}
