//! # eavm-migrate — live-migration cost model + online consolidation
//!
//! The paper argues that a good proactive placement "avoids costly VM
//! migrations" but never prices a migration; the simulator's original
//! comparison point was a flat per-move penalty. This crate replaces
//! that with a *physical* cost model and a deterministic consolidation
//! policy, so the static-vs-dynamic energy/SLA frontier can be measured
//! honestly (DESIGN.md §12):
//!
//! * [`MigrationModel`] — bounded iterative pre-copy: total copied
//!   bytes, pre-copy duration, and stop-and-copy downtime derived from
//!   the VM memory footprint, the NIC bandwidth, and the guest
//!   dirty-page rate, with parameters drawn from the testbed
//!   [`ServerSpec`](eavm_testbed::ServerSpec).
//! * [`ConsolidationConfig`] / [`plan_moves`] — threshold-driven donor
//!   selection with all-or-nothing drains, first-fit receivers under a
//!   capacity bound, and [`Hysteresis`] so a host that just received
//!   (or donated) VMs cannot immediately donate again (no flapping).
//! * [`MigrationTally`] — the accounting side: migrations, migrated
//!   megabytes, cumulative downtime/stall, hosts powered down, and SLA
//!   violations charged to moved VMs.
//!
//! The crate is deliberately dependency-light (types + testbed only)
//! and replay-critical: no wall clocks, no OS randomness, no
//! iteration-order-randomized containers (the workspace `clippy.toml`
//! rules D1–D3 apply).

#![forbid(unsafe_code)]
// D4: replay-critical state compares floats only through `total_cmp`
// or explicit epsilons (DESIGN.md §10).
#![deny(clippy::float_cmp, clippy::float_cmp_const)]

mod model;
mod policy;
mod tally;

pub use model::{MigrationCost, MigrationModel};
pub use policy::{plan_moves, ConsolidationConfig, HostLoad, Hysteresis, Move, MovePlan};
pub use tally::MigrationTally;
