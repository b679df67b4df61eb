//! Pinned outputs of the default seed. A run on [`PINNED_SEED`] whose report
//! digest or exact counter differs from the value here has changed the
//! program's behaviour: it is counted as failed, not as a speed-up.

use crate::workload::Workload;
use std::collections::BTreeMap;

/// The seed whose outputs are pinned.
pub const PINNED_SEED: u64 = 0;

/// Digest of each workload's report on [`PINNED_SEED`].
const DIGESTS: [(Workload, u64); 4] = [
    (Workload::FleetOverload, 0x186a_dbb7_4867_f314),
    (Workload::FleetSteady, 0xa869_47f9_54ab_f59b),
    (Workload::DseFresh, 0x0743_55e9_3a7b_dcd0),
    (Workload::ServeAdaptive, 0x4e79_6bf5_d372_28f1),
];

/// Exact counters of each workload's traced run on [`PINNED_SEED`].
const COUNTERS: [(Workload, &str, u64); 22] = [
    (Workload::FleetOverload, "lower.keys", 5),
    (Workload::FleetOverload, "sim.events", 3_300_000),
    (Workload::FleetOverload, "sim.tiles", 400_000),
    (Workload::FleetOverload, "sim.total_cycles", 89_934_431),
    (Workload::FleetOverload, "serve.served", 50_000),
    (Workload::FleetSteady, "lower.keys", 5),
    (Workload::FleetSteady, "sim.events", 3_300_000),
    (Workload::FleetSteady, "sim.tiles", 400_000),
    (Workload::FleetSteady, "sim.total_cycles", 124_579_735),
    (Workload::FleetSteady, "serve.served", 50_000),
    (Workload::DseFresh, "core.ops", 28_121_539),
    (Workload::DseFresh, "lower.keys", 95),
    (Workload::DseFresh, "sim.tiles", 5_254),
    (Workload::DseFresh, "sim.total_cycles", 883_778),
    (Workload::DseFresh, "dse.layer_evals", 192),
    (Workload::ServeAdaptive, "core.ops", 28_121_539),
    (Workload::ServeAdaptive, "lower.keys", 5),
    (Workload::ServeAdaptive, "sim.events", 2_064_000),
    (Workload::ServeAdaptive, "sim.tiles", 823_168),
    (Workload::ServeAdaptive, "sim.total_cycles", 324_200_457),
    (Workload::ServeAdaptive, "serve.served", 2_000),
    (Workload::ServeAdaptive, "dse.layer_evals", 192),
];

/// Checks a report digest against the pin.
pub fn check_digest(wl: Workload, seed: u64, digest: u64) -> Result<(), String> {
    if seed != PINNED_SEED {
        return Ok(());
    }
    match DIGESTS.iter().find(|(w, _)| *w == wl) {
        Some(&(_, pinned)) if pinned != digest => Err(format!(
            "changed behaviour: report digest {digest:016x}, pinned {pinned:016x}"
        )),
        _ => Ok(()),
    }
}

/// The pinned counters of `wl` that `seen` lacks or reads differently.
pub fn counter_mismatches(wl: Workload, seed: u64, seen: &BTreeMap<&str, u64>) -> Vec<String> {
    if seed != PINNED_SEED {
        return Vec::new();
    }
    COUNTERS
        .iter()
        .filter(|(w, ..)| *w == wl)
        .filter_map(|&(_, name, pinned)| match seen.get(name) {
            Some(&v) if v == pinned => None,
            Some(&v) => Some(format!("changed behaviour: {name} is {v}, pinned {pinned}")),
            None => Some(format!("{name} was not measured")),
        })
        .collect()
}
