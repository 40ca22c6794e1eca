//! One persistent cache lane: the machinery behind each of the artifact
//! store's three cache files.
//!
//! A `Lane<V>` owns a 16-way sharded map from [`ArtifactKey`] to `Arc<V>`,
//! its `{prefix}.hits` / `.misses` / `.quarantined` counters and
//! quarantine log, single-flight `get_or_compute` (concurrent misses on
//! one key run one compute; the rest wait and serve its result), and one
//! JSON document on disk: `{schema, entries: {hex: {checksum, value}}}`,
//! where `checksum` is the value's structural [`Checksummed::checksum`].
//!
//! `save` writes a temp file and renames it into place, so a crash
//! mid-save leaves the previous document intact. `load` trusts nothing:
//!
//! * a missing file is an empty lane;
//! * invalid UTF-8, unparseable JSON or a document of the wrong shape is
//!   quarantined whole and renamed to `<file>.quarantined`, so the
//!   evidence survives and the next save starts clean;
//! * a stale schema version discards every entry;
//! * an entry with an invalid key, a malformed body or a checksum mismatch
//!   is evicted; the rest of the document still loads.
//!
//! A quarantined entry is just a future miss: the store recomputes it, so
//! cache damage never surfaces as an error or a different result.

use crate::key::{ArtifactKey, SCHEMA_VERSION};
use parking_lot::Mutex;
use scope::{Counter, MetricsRegistry};
use serde::de::DeserializeOwned;
use serde::value::Value;
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, PoisonError};

/// Shards per lane: a power of two above the scheduler's worker counts.
const NUM_SHARDS: usize = 16;

/// A cached value that can prove on load that it is the value that was
/// saved.
pub(crate) trait Checksummed {
    /// Structural checksum over the value's exact contents (floats by
    /// `to_bits`, length-prefixed sequences), so any tampered or truncated
    /// field changes it and JSON formatting never does.
    fn checksum(&self) -> u64;
}

/// The in-flight table behind single-flight computation, shared by every
/// lane: no compute asks for a second claim, so no wait can deadlock, and
/// the one key two lanes share (a function's features and signature) at
/// worst serialises those two computes. `std::sync::Condvar` because the
/// vendored `parking_lot` has none: waiters sleep instead of polling.
#[derive(Default)]
pub(crate) struct Flight {
    inflight: std::sync::Mutex<HashSet<ArtifactKey>>,
    done: std::sync::Condvar,
}

/// RAII claim on one in-flight key: dropping it — on success *or* unwind
/// — releases the key and wakes every waiter, so a panicking winner can
/// never strand losers on the condvar.
struct FlightClaim<'a> {
    flight: &'a Flight,
    key: ArtifactKey,
}

impl Flight {
    /// Try to become the computer for `key`. `Some(claim)` means this
    /// caller won and must compute + publish (the claim releases on
    /// drop). `None` means another caller was already computing; by the
    /// time `None` is returned that computation has finished (published
    /// or failed) — re-check the cache.
    fn claim(&self, key: ArtifactKey) -> Option<FlightClaim<'_>> {
        let mut set = self.inflight.lock().expect("flight lock");
        if set.insert(key) {
            return Some(FlightClaim { flight: self, key });
        }
        while set.contains(&key) {
            set = self.done.wait(set).expect("flight lock");
        }
        None
    }
}

impl Drop for FlightClaim<'_> {
    fn drop(&mut self) {
        // No panic in `Drop`: a poisoned set is still valid (every update is
        // one insert or remove), so release the key regardless.
        self.flight.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&self.key);
        self.flight.done.notify_all();
    }
}

/// One sharded, counted, persistent cache lane (see the module docs).
pub(crate) struct Lane<V> {
    file: &'static str,
    shards: Vec<Mutex<HashMap<ArtifactKey, Arc<V>>>>,
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    pub(crate) quarantined: Counter,
    quarantine_log: Mutex<Vec<String>>,
}

impl<V: Checksummed + Serialize + DeserializeOwned> Lane<V> {
    /// An empty lane persisting to `file`, counting into `registry` under
    /// `prefix` (`{prefix}.hits`, `.misses`, `.quarantined`).
    pub(crate) fn new(registry: &MetricsRegistry, prefix: &str, file: &'static str) -> Lane<V> {
        Lane {
            file,
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: registry.counter(&format!("{prefix}.hits")),
            misses: registry.counter(&format!("{prefix}.misses")),
            quarantined: registry.counter(&format!("{prefix}.quarantined")),
            quarantine_log: Mutex::new(Vec::new()),
        }
    }

    /// Resident entries.
    pub(crate) fn entries(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().len() as u64).sum()
    }

    /// Details of every quarantine event since construction.
    pub(crate) fn quarantine_records(&self) -> Vec<String> {
        self.quarantine_log.lock().clone()
    }

    /// Record a quarantine event: the offending entry is never inserted
    /// (evicted by construction), the counter moves, the detail is kept.
    fn quarantine(&self, detail: String) {
        self.quarantined.inc();
        self.quarantine_log.lock().push(detail);
    }

    fn lookup(&self, key: ArtifactKey) -> Option<Arc<V>> {
        let found = self.shards[key.shard(NUM_SHARDS)].lock().get(&key).cloned();
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        found
    }

    fn insert(&self, key: ArtifactKey, value: V) -> Arc<V> {
        let arc = Arc::new(value);
        self.shards[key.shard(NUM_SHARDS)].lock().insert(key, Arc::clone(&arc));
        arc
    }

    /// The value under `key`, computing and caching it on a miss. One of
    /// any set of concurrent missers runs `compute` (outside every shard
    /// lock); the rest wait on `flight` and serve its result, or claim the
    /// key themselves if it failed and published nothing.
    ///
    /// # Errors
    /// Whatever `compute` returns.
    pub(crate) fn get_or_compute<E>(
        &self,
        key: ArtifactKey,
        flight: &Flight,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        loop {
            if let Some(found) = self.lookup(key) {
                return Ok(found);
            }
            if let Some(_claim) = flight.claim(key) {
                return Ok(self.insert(key, compute()?));
            }
            // A concurrent winner just finished this key: loop to serve its
            // published entry (or claim the flight ourselves if it failed).
        }
    }

    /// Write the lane to `dir/<file>` (creating `dir` as needed) through a
    /// temp file + rename. Entries stream out in key order, each serialised
    /// straight from the shared value, so the bytes are deterministic and
    /// no entry is copied or held beyond its own write.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub(crate) fn save(&self, dir: &Path) -> io::Result<()> {
        let mut entries: Vec<(ArtifactKey, Arc<V>)> = Vec::new();
        for shard in &self.shards {
            entries.extend(shard.lock().iter().map(|(k, v)| (*k, Arc::clone(v))));
        }
        entries.sort_unstable_by_key(|(k, _)| *k);
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{}.tmp.{}", self.file, std::process::id()));
        let mut out = io::BufWriter::new(std::fs::File::create(&tmp)?);
        write!(out, "{{\"schema\":{SCHEMA_VERSION},\"entries\":{{")?;
        for (i, (key, value)) in entries.iter().enumerate() {
            let body = serde_json::to_string(&**value)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let (sep, hex, checksum) =
                (if i == 0 { "" } else { "," }, key.to_hex(), value.checksum());
            write!(out, "{sep}\"{hex}\":{{\"checksum\":{checksum},\"value\":{body}}}")?;
        }
        out.write_all(b"}}")?;
        out.into_inner()?;
        std::fs::rename(&tmp, dir.join(self.file))
    }

    /// Load `dir/<file>` into this (empty) lane under the trust-nothing
    /// policy of the module docs.
    ///
    /// # Errors
    /// Propagates filesystem errors other than `NotFound`.
    pub(crate) fn load(&self, dir: &Path) -> io::Result<()> {
        let path = dir.join(self.file);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let entries = match parse_document(bytes) {
            Ok(entries) => entries,
            Err(Unusable::Stale(schema)) => {
                self.quarantine(format!(
                    "{}: stale schema v{schema} (current v{SCHEMA_VERSION}), entries discarded",
                    path.display()
                ));
                return Ok(());
            }
            Err(Unusable::Unparseable(why)) => {
                let _ = std::fs::rename(&path, dir.join(format!("{}.quarantined", self.file)));
                self.quarantine(format!("{}: unparseable ({why})", path.display()));
                return Ok(());
            }
        };
        for (hex, entry) in entries {
            match decode_entry::<V>(&hex, entry) {
                Ok((key, value)) => {
                    self.insert(key, value);
                }
                Err(why) => self.quarantine(format!("{} entry {hex}: {why}", self.file)),
            }
        }
        Ok(())
    }
}

/// Why a whole lane document is rejected: a stale schema version is
/// discarded, anything else is not a lane document and is renamed aside.
enum Unusable {
    Stale(u64),
    Unparseable(String),
}

/// The raw `hex → {checksum, value}` entries of a current-schema document.
fn parse_document(bytes: Vec<u8>) -> Result<Vec<(String, Value)>, Unusable> {
    fn bad(e: impl std::fmt::Display) -> Unusable {
        Unusable::Unparseable(e.to_string())
    }
    let json = String::from_utf8(bytes).map_err(|_| bad("invalid UTF-8"))?;
    let doc: Value = serde_json::from_str(&json).map_err(bad)?;
    drop(json);
    let mut fields = serde::de::into_map(doc).map_err(bad)?;
    let schema: u64 = serde::de::field(&mut fields, "schema").map_err(bad)?;
    if schema != u64::from(SCHEMA_VERSION) {
        return Err(Unusable::Stale(schema));
    }
    serde::de::field(&mut fields, "entries").and_then(serde::de::into_map).map_err(bad)
}

/// Validate one persisted entry: a canonical key, a `{checksum, value}`
/// body, and a value whose recomputed checksum matches the stored one.
fn decode_entry<V: Checksummed + DeserializeOwned>(
    hex: &str,
    entry: Value,
) -> Result<(ArtifactKey, V), String> {
    let key = ArtifactKey::from_hex(hex).ok_or("invalid key")?;
    let mut body = serde::de::into_map(entry).map_err(|e| e.to_string())?;
    let stored: u64 = serde::de::field(&mut body, "checksum").map_err(|e| e.to_string())?;
    let value: V = serde::de::field(&mut body, "value").map_err(|e| e.to_string())?;
    let computed = value.checksum();
    if stored != computed {
        return Err(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }
    Ok((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ArtifactStore, CacheStats, CACHE_FILE, DYN_CACHE_FILE, SIG_INDEX_FILE};
    use crate::testfix::dyn_fixture;
    use patchecko_core::dynsource::{DynProfile, DynProfileSource};
    use patchecko_core::features::StaticFeatures;
    use patchecko_core::pipeline::FeatureSource;
    use patchecko_core::retrieval::FunctionSignature;
    use vm::env::ExecEnv;
    use vm::exec::VmConfig;
    use vm::fuzz::FuzzConfig;
    use vm::loader::LoadedBinary;

    /// What a load must survive, applied to one lane file.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Damage {
        Missing,
        Garbage,
        Truncated,
        StaleSchema,
        FlippedChecksum,
        InvalidKey,
    }

    /// Every value all three lanes serve for the dynamic fixture.
    type Pass = (Vec<StaticFeatures>, Vec<FunctionSignature>, Vec<ExecEnv>, Vec<DynProfile>);

    fn pass(store: &ArtifactStore, lb: &LoadedBinary, fuzz: &FuzzConfig, vmc: &VmConfig) -> Pass {
        let feats = store.features_all(lb.binary()).unwrap();
        let sigs = store.signatures_all(lb.binary(), &feats);
        let envs = store.environments(lb, fuzz, vmc).unwrap();
        let profiles = (0..2).map(|f| store.profile(lb, f, &envs, vmc).unwrap()).collect();
        (feats, sigs, envs.envs, profiles)
    }

    /// A 32-byte key whose byte 16 falls inside a two-byte character.
    fn split_char_key() -> String {
        format!("{}é{}", "0".repeat(15), "0".repeat(15))
    }

    fn damage(path: &Path, how: Damage) {
        let json = std::fs::read_to_string(path).unwrap();
        let damaged = match how {
            Damage::Missing => return std::fs::remove_file(path).unwrap(),
            Damage::Garbage => b"{ not json at all \xff\xfe".to_vec(),
            Damage::Truncated => json.as_bytes()[..json.len() / 2].to_vec(),
            Damage::StaleSchema => {
                let stale =
                    json.replacen(&format!("\"schema\":{SCHEMA_VERSION}"), "\"schema\":4", 1);
                assert_ne!(stale, json, "schema field rewritten");
                stale.into_bytes()
            }
            Damage::FlippedChecksum | Damage::InvalidKey => {
                let mut doc: Value = serde_json::from_str(&json).unwrap();
                let Value::Map(fields) = &mut doc else { panic!("document is an object") };
                let Some((_, Value::Map(entries))) =
                    fields.iter_mut().find(|(k, _)| k == "entries")
                else {
                    panic!("document has an entry map")
                };
                let (hex, Value::Map(body)) = &mut entries[0] else { panic!("entry is an object") };
                if how == Damage::InvalidKey {
                    *hex = split_char_key();
                } else {
                    match body.iter_mut().find(|(k, _)| k == "checksum") {
                        Some((_, Value::Int(c))) => *c ^= 1,
                        Some((_, Value::UInt(c))) => *c ^= 1,
                        other => panic!("checksum field: {other:?}"),
                    }
                }
                serde_json::to_string(&doc).unwrap().into_bytes()
            }
        };
        std::fs::write(path, damaged).unwrap();
    }

    /// One table for every lane: each failure mode against each of the
    /// three files quarantines exactly what it should, leaves the other two
    /// lanes alone, and fails open — the next pass recomputes exactly what
    /// was lost, bitwise-identical to the cold pass, and repopulates the
    /// lane.
    #[test]
    fn every_lane_survives_every_failure_mode() {
        // [entries, quarantined, misses] of one lane.
        type LaneStats = fn(&CacheStats) -> [u64; 3];
        let lanes: [(&str, LaneStats); 3] = [
            (CACHE_FILE, |s| [s.entries, s.quarantined, s.misses]),
            (DYN_CACHE_FILE, |s| [s.dyn_entries, s.dyn_quarantined, s.dyn_misses]),
            (SIG_INDEX_FILE, |s| [s.sig_entries, s.sig_quarantined, s.sig_misses]),
        ];
        // (damage, entries kept of n, quarantines, renamed aside, record)
        type Case = (Damage, fn(u64) -> u64, u64, bool, &'static str);
        let cases: [Case; 6] = [
            (Damage::Missing, |_| 0, 0, false, ""),
            (Damage::Garbage, |_| 0, 1, true, "unparseable (invalid UTF-8)"),
            (Damage::Truncated, |_| 0, 1, true, "unparseable"),
            (Damage::StaleSchema, |_| 0, 1, false, "stale schema v4"),
            (Damage::FlippedChecksum, |n| n - 1, 1, false, "checksum mismatch"),
            (Damage::InvalidKey, |n| n - 1, 1, false, "invalid key"),
        ];

        let (lb, fuzz, vmc) = dyn_fixture();
        let root = std::env::temp_dir().join(format!("scanhub-lanes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cold_store = ArtifactStore::new();
        let cold = pass(&cold_store, &lb, &fuzz, &vmc);
        cold_store.save(&root.join("base")).unwrap();
        let full = cold_store.stats();

        for (file, lane) in lanes {
            for (how, kept, quarantined, renamed, record) in cases {
                let case = format!("{file} / {how:?}");
                let dir = root.join(format!("{file}-{how:?}"));
                std::fs::create_dir_all(&dir).unwrap();
                for f in [CACHE_FILE, DYN_CACHE_FILE, SIG_INDEX_FILE] {
                    std::fs::copy(root.join("base").join(f), dir.join(f)).unwrap();
                }
                damage(&dir.join(file), how);

                let store = ArtifactStore::load(&dir).unwrap();
                let n = lane(&full)[0];
                assert_eq!(lane(&store.stats()), [kept(n), quarantined, 0], "{case}");
                let others = || lanes.iter().filter(move |(f, _)| *f != file);
                for (other, other_lane) in others() {
                    let untouched = [other_lane(&full)[0], 0, 0];
                    assert_eq!(other_lane(&store.stats()), untouched, "{case}: {other}");
                }
                let records = store.quarantine_records();
                assert_eq!(records.len() as u64, quarantined, "{case}: {records:?}");
                assert!(records.iter().all(|r| r.contains(record)), "{case}: {records:?}");
                assert_eq!(dir.join(format!("{file}.quarantined")).exists(), renamed, "{case}");
                assert_eq!(dir.join(file).exists(), !renamed && how != Damage::Missing, "{case}");

                assert_eq!(pass(&store, &lb, &fuzz, &vmc), cold, "{case}: fails open");
                let after = store.stats();
                assert_eq!(lane(&after), [n, quarantined, n - kept(n)], "{case}: recomputed");
                for (other, other_lane) in others() {
                    assert_eq!(other_lane(&after)[2], 0, "{case}: {other} served from cache");
                }
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
