//! Mutation harness: seeds known-bad defects into a [`MappingResult`] so a
//! kill suite can assert the verifier rejects every mutant with the
//! documented rule id.
//!
//! Each [`Mutation`] names one defect class from the issue's threat model
//! (swapped schedule levels, a dropped transfer, an oversubscribed level,
//! corrupted input homing, a capacity overflow, a stale fingerprint, a
//! tampered report) together with [`Mutation::expected_rule`], the rule a
//! correct verifier must fire. [`Mutation::apply`] performs the in-memory
//! corruption; it returns `Err` when the mutation does not apply to the given
//! result (for example dropping a transfer from a single-tile mapping).

use crate::diag::rule_info;
use fpfa_arch::{MemId, MemRef};
use fpfa_core::{ClusterId, MappingResult, ValueRef};
use std::sync::Arc;

/// One seedable defect class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Swap two dependence-connected schedule levels (single tile).
    SwapScheduleLevels,
    /// Move clusters until one level holds more than `num_pps` data-paths
    /// (single tile).
    OversubscribeLevel,
    /// Remove one inter-tile [`fpfa_core::TransferJob`] (multi tile).
    DropTransfer,
    /// Re-home one read-only statespace word without moving its preload.
    CorruptInputHoming,
    /// Add a preload entry past the end of a memory.
    OverflowPreload,
    /// Flip a bit of the stored configuration fingerprint.
    CorruptFingerprint,
    /// Bump a headline report counter.
    TamperReport,
}

impl Mutation {
    /// Every defect class, in documentation order.
    pub fn all() -> &'static [Mutation] {
        &[
            Mutation::SwapScheduleLevels,
            Mutation::OversubscribeLevel,
            Mutation::DropTransfer,
            Mutation::CorruptInputHoming,
            Mutation::OverflowPreload,
            Mutation::CorruptFingerprint,
            Mutation::TamperReport,
        ]
    }

    /// The rule id a correct verifier must report for this defect class.
    pub fn expected_rule(self) -> &'static str {
        let id = match self {
            Mutation::SwapScheduleLevels => "FV003",
            Mutation::OversubscribeLevel => "FV004",
            Mutation::DropTransfer => "FV009",
            Mutation::CorruptInputHoming => "FV012",
            Mutation::OverflowPreload => "FV008",
            Mutation::CorruptFingerprint => "FV013",
            Mutation::TamperReport => "FV014",
        };
        debug_assert!(rule_info(id).is_some(), "undocumented rule {id}");
        id
    }

    /// Corrupts `result` in place.
    ///
    /// # Errors
    /// A human-readable reason when the mutation does not apply to this
    /// result's shape (wrong tile count, nothing to corrupt). The result is
    /// untouched in that case.
    pub fn apply(self, result: &mut MappingResult) -> Result<String, String> {
        match self {
            Mutation::SwapScheduleLevels => swap_schedule_levels(result),
            Mutation::OversubscribeLevel => oversubscribe_level(result),
            Mutation::DropTransfer => drop_transfer(result),
            Mutation::CorruptInputHoming => corrupt_input_homing(result),
            Mutation::OverflowPreload => overflow_preload(result),
            Mutation::CorruptFingerprint => {
                result.config_fingerprint ^= 1;
                Ok("flipped the low bit of the configuration fingerprint".into())
            }
            Mutation::TamperReport => {
                result.report.cycles = result.report.cycles.wrapping_add(1);
                Ok("incremented report.cycles".into())
            }
        }
    }
}

/// Finds a dependence edge spanning adjacent levels and swaps those levels.
fn swap_schedule_levels(result: &mut MappingResult) -> Result<String, String> {
    if result.multi.is_some() {
        return Err("schedule-level swap targets single-tile results".into());
    }
    let mut pair: Option<(usize, usize)> = None;
    for cluster in result.clustered.ids() {
        let Some(level) = result.schedule.level_of(cluster) else {
            continue;
        };
        for pred in result.clustered.predecessors(cluster) {
            if result.schedule.level_of(*pred) == Some(level.wrapping_sub(1)) {
                pair = Some((level - 1, level));
                break;
            }
        }
        if pair.is_some() {
            break;
        }
    }
    let Some((a, b)) = pair else {
        return Err("no dependence edge spans adjacent levels".into());
    };
    Arc::make_mut(&mut result.schedule).swap_levels(a, b);
    Ok(format!("swapped dependence-connected levels {a} and {b}"))
}

/// Crams clusters into level 0 until it exceeds the ALU count.
fn oversubscribe_level(result: &mut MappingResult) -> Result<String, String> {
    if result.multi.is_some() {
        return Err("level oversubscription targets single-tile results".into());
    }
    let num_pps = result.program.config.num_pps;
    if result.clustered.len() <= num_pps {
        return Err(format!(
            "only {} clusters; cannot oversubscribe {num_pps} ALUs",
            result.clustered.len()
        ));
    }
    let ids: Vec<ClusterId> = result.clustered.ids().collect();
    let schedule = Arc::make_mut(&mut result.schedule);
    let mut moved = 0usize;
    for id in ids {
        if schedule.level(0).len() > num_pps {
            break;
        }
        if schedule.level_of(id) != Some(0) {
            schedule.move_cluster(id, 0);
            moved += 1;
        }
    }
    Ok(format!(
        "moved {moved} clusters into level 0 ({} > {num_pps} ALUs)",
        schedule.level(0).len()
    ))
}

/// Deletes the first inter-tile transfer, leaving its cut edge unserved.
fn drop_transfer(result: &mut MappingResult) -> Result<String, String> {
    let Some(multi) = result.multi.as_mut() else {
        return Err("transfer drop targets multi-tile results".into());
    };
    if multi.program.transfers.is_empty() {
        return Err("mapping has no inter-tile transfers".into());
    }
    let multi = Arc::make_mut(multi);
    let dropped = multi.program.transfers.remove(0);
    Ok(format!(
        "dropped transfer of {} ({} -> {})",
        dropped.op, dropped.from, dropped.to
    ))
}

/// Moves a read-only statespace word's map entry without moving its preload.
fn corrupt_input_homing(result: &mut MappingResult) -> Result<String, String> {
    let read_only: Vec<i64> = result
        .mapping_graph
        .mem_reads
        .iter()
        .copied()
        .filter(|addr| {
            let written = match result.multi.as_deref() {
                Some(multi) => multi.program.written_addresses.contains(addr),
                None => result.program.written_addresses.contains(addr),
            };
            !written
        })
        .collect();
    let Some(&addr) = read_only.first() else {
        return Err("kernel has no read-only statespace words".into());
    };
    let missing = || format!("address {addr} is not in the statespace map");
    if let Some(multi) = result.multi.as_mut() {
        let map = &mut Arc::make_mut(multi).program.statespace_map;
        let index = map
            .binary_search_by_key(&addr, |&(address, _)| address)
            .map_err(|_| missing())?;
        map[index].1 .1.offset += 1;
    } else {
        let map = &mut Arc::make_mut(&mut result.program).statespace_map;
        let index = map
            .binary_search_by_key(&addr, |&(address, _)| address)
            .map_err(|_| missing())?;
        map[index].1.offset += 1;
    }
    Ok(format!("re-homed read-only statespace word {addr}"))
}

/// Adds a preload entry one word past the end of mem1.
fn overflow_preload(result: &mut MappingResult) -> Result<String, String> {
    let bogus = |config: &fpfa_arch::TileConfig| {
        (
            ValueRef::Const(1),
            MemRef::new(0, MemId::Mem1, config.mem_words),
        )
    };
    if let Some(multi) = result.multi.as_mut() {
        let multi = Arc::make_mut(multi);
        let entry = bogus(&multi.program.tiles[0].config);
        multi.program.tiles[0].preload.push(entry);
    } else {
        let program = Arc::make_mut(&mut result.program);
        let entry = bogus(&program.config);
        program.preload.push(entry);
    }
    Ok("preloaded a word one past the end of mem1".into())
}
