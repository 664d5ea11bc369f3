//! `Proactive::explain` against a naive reference search.
//!
//! The oracle below is the straightforward reading of Fig. 3: enumerate
//! the multiset partitions of the request, place each block greedily
//! by evaluating every candidate server from scratch (a hostability and
//! QoS check, an estimate of the new mix, the run energy of the old
//! one), then rank the placed partitions. It is a test oracle only.
//! The allocator must return exactly what it returns: the same
//! candidates in the same order, the same placements, and the same
//! energy, time and score bit for bit, on random fleets, platforms,
//! goals and QoS settings.

use std::cell::Cell;
use std::sync::LazyLock;

use eavm_benchdb::DbBuilder;
use eavm_core::{
    AllocationModel, DbModel, MixEstimate, OptimizationGoal, PartitionCandidate, Placement,
    Proactive, RequestView, SearchCaps, ServerView,
};
use eavm_partitions::multiset_partitions_capped;
use eavm_testbed::{ContentionModel, RunSimulator, ServerSpec};
use eavm_types::{EavmError, JobId, Joules, MixVector, Seconds, ServerId, Watts, WorkloadType};
use proptest::prelude::*;

static EXACT: LazyLock<DbModel> =
    LazyLock::new(|| DbModel::new(DbBuilder::exact().build().expect("exact db")));

static BIG_NODE: LazyLock<DbModel> = LazyLock::new(|| {
    DbModel::new(
        DbBuilder {
            sim: RunSimulator {
                server: ServerSpec::big_node(),
                model: ContentionModel::default(),
            },
            meter_seed: Some(42),
            ..Default::default()
        }
        .build()
        .expect("big-node db"),
    )
});

/// Everything that configures one search.
#[derive(Debug, Clone)]
struct Config {
    goal: OptimizationGoal,
    deadlines: [Seconds; 3],
    enforce_qos: bool,
    qos_margin: f64,
    max_partitions: usize,
}

impl Config {
    fn proactive<M: AllocationModel>(&self, models: Vec<M>) -> Proactive<M> {
        Proactive::heterogeneous(models, self.goal, self.deadlines)
            .with_qos_enforcement(self.enforce_qos)
            .with_qos_margin(self.qos_margin)
            .with_caps(SearchCaps {
                max_partitions: self.max_partitions,
            })
    }
}

struct Oracle<'a, M> {
    models: &'a [M],
    cfg: &'a Config,
}

impl<M: AllocationModel> Oracle<'_, M> {
    fn model_for(&self, platform: u32) -> &M {
        self.models
            .get(platform as usize)
            .unwrap_or(&self.models[0])
    }

    fn feasible(&self, mix: MixVector, platform: u32) -> bool {
        let model = self.model_for(platform);
        if !mix.fits_within(&model.max_mix()) {
            return false;
        }
        if !self.cfg.enforce_qos {
            return true;
        }
        match model.estimate_mix(mix) {
            Ok(est) => WorkloadType::ALL
                .into_iter()
                .all(|ty| match est.time_of(ty) {
                    Some(t) => t <= self.cfg.deadlines[ty.index()] * self.cfg.qos_margin,
                    None => true,
                }),
            Err(_) => false,
        }
    }

    fn place_partition(
        &self,
        blocks: &[MixVector],
        servers: &[ServerView],
    ) -> Option<(Vec<Placement>, Joules, Seconds)> {
        let mut mixes: Vec<MixVector> = servers.iter().map(|s| s.mix).collect();
        let mut adds = vec![MixVector::EMPTY; servers.len()];
        let mut energy = Joules::ZERO;
        let mut time = Seconds::ZERO;
        for block in blocks {
            let mut candidates = Vec::new();
            let mut empty_seen = Vec::new();
            for (i, m) in mixes.iter().enumerate() {
                if m.is_empty() {
                    if !empty_seen.contains(&servers[i].platform) {
                        candidates.push(i);
                        empty_seen.push(servers[i].platform);
                    }
                } else {
                    candidates.push(i);
                }
            }
            let mut best: Option<(usize, Joules, Seconds)> = None;
            for i in candidates {
                let platform = servers[i].platform;
                let model = self.model_for(platform);
                let new_mix = mixes[i] + *block;
                if !self.feasible(new_mix, platform) {
                    continue;
                }
                let Ok(new_est) = model.estimate_mix(new_mix) else {
                    continue;
                };
                let old_energy = if mixes[i].is_empty() {
                    Joules::ZERO
                } else {
                    match model.run_energy(mixes[i]) {
                        Ok(e) => e,
                        Err(_) => continue,
                    }
                };
                let d_energy = (new_est.energy - old_energy).max(Joules::ZERO);
                let block_time = WorkloadType::ALL
                    .into_iter()
                    .filter(|&ty| block[ty] > 0)
                    .filter_map(|ty| new_est.time_of(ty))
                    .fold(Seconds::ZERO, Seconds::max);
                let better = match &best {
                    None => true,
                    Some((_, be, bt)) => {
                        let e_norm = d_energy.value() / be.value().max(f64::MIN_POSITIVE);
                        let t_norm = block_time.value() / bt.value().max(f64::MIN_POSITIVE);
                        self.cfg.goal.score(e_norm, t_norm) < 1.0 - 1e-12
                    }
                };
                if better {
                    best = Some((i, d_energy, block_time));
                }
            }
            let (i, d_energy, block_time) = best?;
            mixes[i] += *block;
            adds[i] += *block;
            energy += d_energy;
            time = time.max(block_time);
        }
        let placements = servers
            .iter()
            .zip(&adds)
            .filter(|(_, add)| !add.is_empty())
            .map(|(s, add)| Placement {
                server: s.id,
                add: *add,
            })
            .collect();
        Some((placements, energy, time))
    }

    fn explain(
        &self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<PartitionCandidate>, EavmError> {
        let mix = request.mix();
        let max_block = WorkloadType::ALL
            .into_iter()
            .filter(|&ty| mix[ty] > 0)
            .map(|ty| {
                self.models
                    .iter()
                    .map(|m| m.max_mix()[ty])
                    .max()
                    .unwrap_or(0)
            })
            .min()
            .unwrap_or(0);
        if max_block == 0 {
            return Err(EavmError::Infeasible("unhostable type".into()));
        }
        let mut min_energy = f64::INFINITY;
        let mut min_time = f64::INFINITY;
        let mut out = Vec::new();
        let counts = [mix.cpu, mix.mem, mix.io];
        for part in multiset_partitions_capped(&counts, max_block, self.cfg.max_partitions) {
            let blocks: Vec<MixVector> = part
                .iter()
                .map(|b| MixVector::new(b[0], b[1], b[2]))
                .collect();
            if let Some((placements, energy, time)) = self.place_partition(&blocks, servers) {
                min_energy = min_energy.min(energy.value());
                min_time = min_time.min(time.value());
                out.push(PartitionCandidate {
                    blocks,
                    placements,
                    energy,
                    time,
                    score: 0.0,
                    chosen: false,
                });
            }
        }
        let mut best: Option<(f64, usize)> = None;
        for (i, c) in out.iter_mut().enumerate() {
            let e_norm = if min_energy > 0.0 {
                c.energy.value() / min_energy
            } else {
                1.0
            };
            let t_norm = if min_time > 0.0 {
                c.time.value() / min_time
            } else {
                1.0
            };
            c.score = self.cfg.goal.score(e_norm, t_norm);
            if best.is_none_or(|(s, _)| c.score < s - 1e-12) {
                best = Some((c.score, i));
            }
        }
        if let Some((_, i)) = best {
            out[i].chosen = true;
        }
        Ok(out)
    }
}

fn assert_same(
    got: &Result<Vec<PartitionCandidate>, EavmError>,
    want: &Result<Vec<PartitionCandidate>, EavmError>,
) -> Result<(), TestCaseError> {
    let (got, want) = match (got, want) {
        (Ok(g), Ok(w)) => (g, w),
        (Err(_), Err(_)) => return Ok(()),
        _ => return Err(TestCaseError(format!("explain {got:?} vs oracle {want:?}"))),
    };
    prop_assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        prop_assert_eq!(&g.blocks, &w.blocks);
        prop_assert_eq!(&g.placements, &w.placements);
        prop_assert_eq!(g.energy.value().to_bits(), w.energy.value().to_bits());
        prop_assert_eq!(g.time.value().to_bits(), w.time.value().to_bits());
        prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
        prop_assert_eq!(g.chosen, w.chosen);
    }
    Ok(())
}

/// One server: a random resident mix (often empty, sometimes at or past
/// the reference box edge) and a platform. Platform 2, and platform 1
/// in a one-platform case, have no model of their own: the allocator
/// falls back to the reference model but still tells their empty
/// servers apart from the reference platform's.
fn server_strategy() -> impl Strategy<Value = (MixVector, u32)> {
    (0u32..9, 0u32..=11, 0u32..=5, 0u32..=8, 0u32..3).prop_map(|(kind, c, m, i, platform)| {
        let mix = match kind {
            0..=2 => MixVector::EMPTY,
            3..=6 => MixVector::new(c % 4, m % 3, i % 4),
            _ => MixVector::new(c, m, i),
        };
        (mix, platform)
    })
}

/// α ∈ {0, 0.5, 1, random}, QoS on or off with a random margin,
/// `max_partitions` ∈ {1, 3, default}, and deadlines scaled so QoS
/// sometimes binds.
fn config_strategy() -> impl Strategy<Value = Config> {
    (
        0u32..4,
        0.0f64..=1.0,
        proptest::bool::ANY,
        0.05f64..=1.0,
        0usize..3,
        0.5f64..2.0,
    )
        .prop_map(
            |(pick, random_alpha, enforce_qos, qos_margin, cap, scale)| {
                let alpha = [0.0, 0.5, 1.0, random_alpha][pick as usize];
                Config {
                    goal: OptimizationGoal::new(alpha).expect("alpha in range"),
                    deadlines: [4800.0, 4000.0, 3600.0].map(|d| Seconds(d * scale)),
                    enforce_qos,
                    qos_margin,
                    max_partitions: [1, 3, SearchCaps::default().max_partitions][cap],
                }
            },
        )
}

fn request_strategy() -> impl Strategy<Value = RequestView> {
    (0usize..3, 1u32..=20).prop_map(|(ty, n)| RequestView {
        id: JobId::new(1),
        workload: WorkloadType::ALL[ty],
        vm_count: n,
        deadline: Seconds(3600.0),
    })
}

fn models(platforms: u32) -> Vec<DbModel> {
    let mut models = vec![EXACT.clone()];
    if platforms == 2 {
        models.push(BIG_NODE.clone());
    }
    models
}

fn fleet(servers: &[(MixVector, u32)]) -> Vec<ServerView> {
    servers
        .iter()
        .enumerate()
        .map(|(i, &(mix, platform))| ServerView {
            id: ServerId::new(i as u32),
            mix,
            platform,
            cpu_slots: 4,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn explain_matches_the_reference_search(
        platforms in 1u32..=2,
        servers in proptest::collection::vec(server_strategy(), 1..81),
        cfg in config_strategy(),
        request in request_strategy(),
    ) {
        let models = models(platforms);
        let servers = fleet(&servers);
        let want = Oracle { models: &models, cfg: &cfg }.explain(&request, &servers);
        let got = cfg.proactive(models.clone()).explain(&request, &servers);
        assert_same(&got, &want)?;
    }
}

/// `DbModel` with every estimating call counted.
struct Counting<'a> {
    inner: &'a DbModel,
    calls: &'a Cell<u64>,
}

impl Counting<'_> {
    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }
}

impl AllocationModel for Counting<'_> {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        self.count();
        self.inner.exec_time(mix, ty)
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        self.count();
        self.inner.power(mix)
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        self.count();
        self.inner.run_energy(mix)
    }

    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        self.count();
        self.inner.estimate_mix(mix)
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.inner.solo_time(ty)
    }

    fn max_mix(&self) -> MixVector {
        self.inner.max_mix()
    }
}

/// A 70-server fleet (the paper's SMALLER cloud) with 40 servers busy
/// in a fixed pattern and the rest powered off.
fn seventy_servers() -> Vec<ServerView> {
    (0..70u32)
        .map(|i| {
            let mix = if i < 40 {
                MixVector::new(i % 3, (i / 3) % 2, i % 4)
            } else {
                MixVector::EMPTY
            };
            ServerView::homogeneous(ServerId::new(i), mix)
        })
        .collect()
}

#[test]
fn one_search_makes_one_lookup_per_distinct_evaluation() {
    let cfg = Config {
        goal: OptimizationGoal::BALANCED,
        deadlines: [Seconds(4800.0), Seconds(4000.0), Seconds(3600.0)],
        enforce_qos: true,
        qos_margin: 1.0,
        max_partitions: SearchCaps::default().max_partitions,
    };
    let servers = seventy_servers();
    let request = RequestView {
        id: JobId::new(1),
        workload: WorkloadType::Cpu,
        vm_count: 4,
        deadline: Seconds(4800.0),
    };
    let (oracle_calls, calls) = (Cell::new(0), Cell::new(0));
    let oracle_model = [Counting {
        inner: &EXACT,
        calls: &oracle_calls,
    }];
    let want = Oracle {
        models: &oracle_model,
        cfg: &cfg,
    }
    .explain(&request, &servers);
    let got = cfg
        .proactive(vec![Counting {
            inner: &EXACT,
            calls: &calls,
        }])
        .explain(&request, &servers);
    assert_same(&got, &want).expect("same candidates");
    assert_eq!(oracle_calls.get(), 1320, "reference lookups");
    assert_eq!(calls.get(), 206, "lookups");
}
