//! Disk saboteurs for the persisted artifact cache: deterministic,
//! seed-driven corruption of any of the store's three lane files —
//! `artifacts.json` (static), `dyn_artifacts.json` (dynamic) or
//! `sig_index.json` (signature), which share one document shape
//! (`{schema, entries: {hex: {checksum, value}}}`) — modelling the ways a
//! cache file actually goes bad in the field (crash mid-write, bit rot,
//! version skew, tampering).

use crate::plan::FaultPlan;
use std::io;
use std::path::Path;

/// The corruption families the saboteur can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Replace the file with seeded garbage bytes (including invalid
    /// UTF-8): total loss.
    Garbage,
    /// Cut the file at a seeded interior offset: a crash mid-write under
    /// a non-atomic writer.
    Truncate,
    /// Rewrite the schema version to a stale one: an old binary's cache
    /// left behind after an upgrade.
    StaleSchema,
    /// Alter one entry's stored checksum digit: targeted tampering the
    /// per-entry validation must catch while the rest of the cache loads.
    ChecksumFlip,
}

impl DiskFault {
    /// All families, for schedule-driven selection.
    pub const ALL: [DiskFault; 4] =
        [DiskFault::Garbage, DiskFault::Truncate, DiskFault::StaleSchema, DiskFault::ChecksumFlip];

    /// The family `plan` selects for `key`.
    pub fn chosen(plan: &FaultPlan, key: u64) -> DiskFault {
        Self::ALL[plan.pick("disk.fault", key, Self::ALL.len())]
    }
}

/// Which persisted cache document a disk fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLane {
    /// `artifacts.json` — static features and CFG summaries.
    Static,
    /// `dyn_artifacts.json` — environment sets and dynamic profiles.
    Dynamic,
    /// `sig_index.json` — retrieval signatures.
    Signature,
}

impl CacheLane {
    /// On-disk file name of the lane's document.
    pub fn file_name(self) -> &'static str {
        match self {
            CacheLane::Static => patchecko_scanhub::CACHE_FILE,
            CacheLane::Dynamic => patchecko_scanhub::DYN_CACHE_FILE,
            CacheLane::Signature => patchecko_scanhub::SIG_INDEX_FILE,
        }
    }
}

/// Apply `fault` to the static-lane cache under `dir` — see
/// [`sabotage_lane`].
///
/// # Errors
/// Propagates filesystem errors; the cache file must exist.
pub fn sabotage(dir: &Path, fault: DiskFault, plan: &FaultPlan) -> io::Result<String> {
    sabotage_lane(dir, CacheLane::Static, fault, plan)
}

/// Apply `fault` to `lane`'s cache document under `dir`, deterministically
/// per `plan`. Returns a human-readable description of what was done (for
/// failure-schedule logs).
///
/// # Errors
/// Propagates filesystem errors; the lane's cache file must exist.
pub fn sabotage_lane(
    dir: &Path,
    lane: CacheLane,
    fault: DiskFault,
    plan: &FaultPlan,
) -> io::Result<String> {
    let path = dir.join(lane.file_name());
    let bytes = std::fs::read(&path)?;
    let key = bytes.len() as u64;
    let (mutated, what) = match fault {
        DiskFault::Garbage => {
            let len = 16 + plan.pick("disk.garbage.len", key, 4096);
            let garbage: Vec<u8> = (0..len)
                .map(|i| (plan.draw("disk.garbage.byte", key ^ i as u64) & 0xff) as u8)
                .collect();
            (garbage, format!("overwrote with {len} garbage bytes"))
        }
        DiskFault::Truncate => {
            let cut = 1 + plan.pick("disk.truncate.at", key, bytes.len().saturating_sub(2).max(1));
            (bytes[..cut].to_vec(), format!("truncated {} -> {cut} bytes", bytes.len()))
        }
        DiskFault::StaleSchema => {
            let json = String::from_utf8_lossy(&bytes);
            let stale = json.replacen(
                &format!("\"schema\":{}", patchecko_scanhub::SCHEMA_VERSION),
                "\"schema\":1",
                1,
            );
            (stale.into_bytes(), "rewrote schema version to v1".to_string())
        }
        DiskFault::ChecksumFlip => {
            let json = String::from_utf8_lossy(&bytes).into_owned();
            let needle = "\"checksum\":";
            let hits: Vec<usize> = json.match_indices(needle).map(|(i, _)| i).collect();
            if hits.is_empty() {
                return Ok("no checksum field to flip".to_string());
            }
            let at = hits[plan.pick("disk.flip.entry", key, hits.len())] + needle.len();
            let mut out = json.into_bytes();
            // Rotate the first digit of the stored checksum; always lands
            // on a different valid number.
            let d = out[at];
            debug_assert!(d.is_ascii_digit());
            out[at] = b'0' + (d - b'0' + 1) % 10;
            (out, format!("flipped checksum digit at byte {at}"))
        }
    };
    std::fs::write(&path, mutated)?;
    scope::inc("fault.injected");
    scope::inc("fault.disk.sabotage");
    Ok(what)
}
