//! The chaos-injection flags shared by `simulate`, `serve`, `recover`,
//! `replay-online`, and `scenario run`: parsed once into [`ChaosFlags`]
//! so every subcommand agrees on names, defaults, and validation.
//!
//! * `--fault-seed N` — seed for fault plans / lookup faults (default
//!   `0xFA17`).
//! * `--fault-rate F` — expected crashes *and* degradations per
//!   host-hour (simulator) or the knob deriving the transient
//!   model-lookup failure probability (service); must be in `[0, 1]`.
//!
//! The durability plane has its own fault family (torn appends, bit
//! rot, ENOSPC, dropped syncs, failed renames), parsed by
//! [`storage_fault_flags`] into an [`eavm_storage::StorageFaultConfig`]
//! armed on the journal's storage backend.

use eavm_faults::{FaultConfig, FaultPlan, LookupFaults};
use eavm_storage::StorageFaultConfig;

use crate::args::Args;

/// Default chaos seed, shared with [`eavm_scenario::FaultSpec`].
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// The two chaos flags, each remembering whether it was given
/// explicitly (so `scenario run` can overlay only what the user set).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosFlags {
    seed: Option<u64>,
    rate: Option<f64>,
}

impl ChaosFlags {
    /// Parse and validate the chaos flags from a command line.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let rate: Option<f64> = args.get_optional("fault-rate")?;
        // `fraction_or` owns the range check (and its error message).
        args.fraction_or("fault-rate", 0.0)?;
        Ok(ChaosFlags {
            seed: args.get_optional("fault-seed")?,
            rate,
        })
    }

    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_FAULT_SEED)
    }

    pub fn rate(&self) -> f64 {
        self.rate.unwrap_or(0.0)
    }

    /// Arm a deterministic host-level [`FaultPlan`] over `hosts` hosts
    /// and a horizon of the last submission plus ten hours. Returns
    /// `None` when no rate (or a zero rate) was given.
    pub fn host_plan(
        &self,
        hosts: usize,
        requests: &[eavm_swf::VmRequest],
    ) -> Option<(u64, f64, FaultPlan)> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let seed = self.seed();
        let horizon = requests
            .iter()
            .map(|r| r.submit.value())
            .fold(0.0f64, f64::max)
            + 36_000.0;
        let plan = FaultPlan::generate(&FaultConfig::uniform(seed, rate), hosts, horizon);
        Some((seed, rate, plan))
    }

    /// Arm transient model-lookup failures for the online service (same
    /// seeding as the simulator's plan). `None` when the rate is zero.
    pub fn lookup_faults(&self) -> Option<LookupFaults> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let seed = self.seed();
        let lookup = FaultConfig::uniform(seed, rate).lookup_failure_rate;
        Some(LookupFaults::new(seed, lookup))
    }

    /// Overlay explicitly-given flags onto a scenario's fault spec
    /// (command line wins over the file), then re-validate the spec so
    /// overrides cannot smuggle in a mode/feature mismatch.
    pub fn apply_to_spec(&self, spec: &mut eavm_scenario::ScenarioSpec) -> Result<(), String> {
        if let Some(seed) = self.seed {
            spec.faults.seed = seed;
        }
        if let Some(rate) = self.rate {
            spec.faults.lookup_failure_rate = rate;
        }
        spec.validate()
    }
}

/// Parse the storage-fault flags shared by `serve` and `recover` into
/// a [`StorageFaultConfig`], or `None` when no fault is armed:
///
/// * `--storage-torn-append F` — probability an append tears mid-write.
/// * `--storage-bit-flip F` — probability a read-back flips one bit.
/// * `--storage-drop-sync F` — probability an fsync is silently dropped.
/// * `--storage-fail-rename F` — probability an atomic rename fails.
/// * `--storage-enospc-after BYTES` — byte budget before writes ENOSPC.
/// * `--storage-fault-seed N` — deterministic seed (default `0xFA17`);
///   rejected on its own, since a seed with nothing armed is a typo.
pub fn storage_fault_flags(args: &Args) -> Result<Option<StorageFaultConfig>, String> {
    let torn = args.fraction_or("storage-torn-append", 0.0)?;
    let flip = args.fraction_or("storage-bit-flip", 0.0)?;
    let drop = args.fraction_or("storage-drop-sync", 0.0)?;
    let rename = args.fraction_or("storage-fail-rename", 0.0)?;
    let enospc = args.get_optional::<u64>("storage-enospc-after")?;
    if enospc == Some(0) {
        return Err("--storage-enospc-after must be nonzero".into());
    }
    let armed = torn > 0.0 || flip > 0.0 || drop > 0.0 || rename > 0.0 || enospc.is_some();
    if !armed {
        if args.get_optional::<u64>("storage-fault-seed")?.is_some() {
            return Err(
                "--storage-fault-seed needs a storage fault rate or --storage-enospc-after".into(),
            );
        }
        return Ok(None);
    }
    let seed = args.get_or("storage-fault-seed", DEFAULT_FAULT_SEED)?;
    let mut faults = StorageFaultConfig::quiet(seed)
        .with_torn_append(torn)
        .with_bit_flip(flip)
        .with_drop_sync(drop)
        .with_fail_rename(rename);
    if let Some(bytes) = enospc {
        faults = faults.with_enospc_after(bytes);
    }
    Ok(Some(faults))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> ChaosFlags {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        ChaosFlags::from_args(&Args::parse(&argv).expect("argv parses")).expect("flags parse")
    }

    #[test]
    fn defaults_arm_nothing() {
        let flags = parse(&["x"]);
        assert_eq!(flags.seed(), DEFAULT_FAULT_SEED);
        assert!(flags.host_plan(8, &[]).is_none());
        assert!(flags.lookup_faults().is_none());
    }

    #[test]
    fn rate_flag_validates() {
        let argv: Vec<String> = ["x", "--fault-rate", "1.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = ChaosFlags::from_args(&Args::parse(&argv).expect("argv parses"))
            .expect_err("rate out of range");
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn overrides_only_touch_given_flags() {
        let mut spec = eavm_scenario::parse_scenario(
            "[scenario]\nname = \"t\"\nmode = \"simulate\"\n\
             [fleet]\nservers = 4\n\
             [phase.base]\nexit_jobs = 10\n",
        )
        .expect("valid scenario");
        let before = spec.faults.seed;
        parse(&["x"]).apply_to_spec(&mut spec).expect("no-op apply");
        assert_eq!(spec.faults.seed, before);

        parse(&["x", "--fault-seed", "7", "--fault-rate", "0.25"])
            .apply_to_spec(&mut spec)
            .expect("overrides apply");
        assert_eq!(spec.faults.seed, 7);
        assert!((spec.faults.lookup_failure_rate - 0.25).abs() < 1e-12);

        // An out-of-range override fails the re-validation.
        let bad = ChaosFlags {
            seed: None,
            rate: Some(2.0),
        };
        let err = bad.apply_to_spec(&mut spec).expect_err("rate out of range");
        assert!(err.contains("lookup_failure_rate"), "{err}");
    }

    fn storage(argv: &[&str]) -> Result<Option<StorageFaultConfig>, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        storage_fault_flags(&Args::parse(&argv).expect("argv parses"))
    }

    #[test]
    fn storage_flags_arm_only_when_a_fault_is_given() {
        assert!(storage(&["x"]).expect("parses").is_none());
        let armed = storage(&["x", "--storage-bit-flip", "0.5"])
            .expect("parses")
            .expect("armed");
        assert!(!armed.is_quiet());

        let err = storage(&["x", "--storage-fault-seed", "9"]).expect_err("seed alone");
        assert!(err.contains("storage-fault-seed"), "{err}");
        let err = storage(&["x", "--storage-enospc-after", "0"]).expect_err("zero budget");
        assert!(err.contains("nonzero"), "{err}");
        let err = storage(&["x", "--storage-torn-append", "1.5"]).expect_err("out of range");
        assert!(err.contains("[0, 1]"), "{err}");
    }
}
