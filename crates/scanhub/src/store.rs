//! The content-addressed artifact store: three persistent cache lanes
//! (see `crate::lane`) behind the pipeline's [`FeatureSource`] and
//! [`DynProfileSource`] seams.
//!
//! * **static** ([`CACHE_FILE`], `cache.*`) — [`Artifact`]s: the Table-I
//!   feature vector and condensed CFG of each function;
//! * **dynamic** ([`DYN_CACHE_FILE`], `dyncache.*`) — `DynEntry`s:
//!   environment sets and dynamic profiles (Table VII's dominant cost), so
//!   a warm re-audit performs zero VM executions. Their keys are
//!   domain-separated, so both kinds share one map;
//! * **signature** ([`SIG_INDEX_FILE`], `index.*`) — the retrieval
//!   signature behind the top-K pre-filter, derived from the features
//!   under the same key.
//!
//! Each lane loads and quarantines on its own, and every lane fails open:
//! a quarantined or missing entry is recomputed, bitwise-identical to a
//! cold run. The crate-internal `*_ns` entry points relocate keys by a
//! tenant salt ([`crate::key::tenant_salt`]) so tenants sharing one store
//! never observe each other's artifacts; the trait impls on the store are
//! the zero-salt namespace.

use crate::key::{ArtifactKey, Fnv2};
use crate::lane::{Checksummed, Flight, Lane};
use disasm::CfgSummary;
use fwbin::format::Binary;
use patchecko_core::dynsource::{self, DynProfile, DynProfileSource, EnvSet};
use patchecko_core::error::ScanError;
use patchecko_core::features::{self, StaticFeatures};
use patchecko_core::pipeline::FeatureSource;
use patchecko_core::retrieval::FunctionSignature;
use scope::{Counter, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::path::Path;
use std::sync::Arc;
use vm::env::{ArgSpec, ExecEnv};
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;
use vm::loader::LoadedBinary;

/// On-disk file name of the static lane.
pub const CACHE_FILE: &str = "artifacts.json";

/// On-disk file name of the dynamic lane.
pub const DYN_CACHE_FILE: &str = "dyn_artifacts.json";

/// On-disk file name of the signature lane.
pub const SIG_INDEX_FILE: &str = "sig_index.json";

/// The cached artifacts of one function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Artifact {
    /// Table-I static feature vector.
    pub features: StaticFeatures,
    /// Condensed control-flow graph.
    pub cfg: CfgSummary,
}

/// FNV-1a over the exact bit patterns of the feature vector and every
/// CFG-summary field.
impl Checksummed for Artifact {
    fn checksum(&self) -> u64 {
        let mut h = Fnv2::new();
        for &f in self.features.as_slice() {
            h.update_u64(f.to_bits());
        }
        let cfg = &self.cfg;
        h.update_u32(cfg.num_blocks);
        h.update_u32(cfg.num_edges);
        h.update_u64(cfg.cyclomatic as u64);
        for k in cfg.kind_counts {
            h.update_u32(k);
        }
        h.update_u32(cfg.max_block_len);
        h.update_u32(cfg.byte_size);
        h.hi
    }
}

/// One entry of the dynamic lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum DynEntry {
    /// The surviving execution environments of a reference function, in
    /// generation order (keyed by [`ArtifactKey::for_env_set`]).
    Envs(Vec<ExecEnv>),
    /// A function's dynamic profile over one environment set (keyed by
    /// [`ArtifactKey::for_dyn_profile`]).
    Profile(DynProfile),
}

/// FNV-1a over every environment's full contents (input bytes, argument
/// specs with exact float bits, global overrides), or over a profile's ok
/// bits and exact feature bits; length-prefixed throughout.
impl Checksummed for DynEntry {
    fn checksum(&self) -> u64 {
        let mut h = Fnv2::new();
        match self {
            DynEntry::Envs(envs) => {
                h.update_u64(envs.len() as u64);
                for env in envs {
                    h.update_u64(env.input.len() as u64);
                    h.update(&env.input);
                    h.update_u64(env.args.len() as u64);
                    for arg in &env.args {
                        let (tag, bits) = match *arg {
                            ArgSpec::InputPtr => (1, 0),
                            ArgSpec::Int(v) => (2, v as u64),
                            ArgSpec::Float(v) => (3, v.to_bits()),
                        };
                        h.update(&[tag]);
                        h.update_u64(bits);
                    }
                    h.update_u64(env.global_overrides.len() as u64);
                    for &(gid, v) in &env.global_overrides {
                        h.update_u64(u64::from(gid));
                        h.update_u64(v as u64);
                    }
                }
            }
            DynEntry::Profile(p) => {
                h.update_u64(p.ok.len() as u64);
                for &b in &p.ok {
                    h.update(&[b as u8]);
                }
                h.update_u64(p.features.len() as u64);
                for f in &p.features {
                    for &x in f.as_slice() {
                        h.update_u64(x.to_bits());
                    }
                }
            }
        }
        h.hi
    }
}

/// FNV-1a over the quantized vector and the MinHash values.
impl Checksummed for FunctionSignature {
    fn checksum(&self) -> u64 {
        let mut h = Fnv2::new();
        h.update_u64(self.q.len() as u64);
        for &q in &self.q {
            h.update_u64(q as i64 as u64);
        }
        h.update_u64(self.minhash.len() as u64);
        for &m in &self.minhash {
            h.update_u32(m);
        }
        h.hi
    }
}

/// A point-in-time snapshot of the store's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from the map.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Disassembly + feature extractions actually performed.
    pub extractions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Persisted entries (or whole files) that failed validation on load.
    #[serde(default)]
    pub quarantined: u64,
    /// Dynamic-lane lookups (environment sets and profiles) served from
    /// the cache — each one is a batch of VM executions *not* performed.
    #[serde(default)]
    pub dyn_hits: u64,
    /// Dynamic-lane lookups that found nothing.
    #[serde(default)]
    pub dyn_misses: u64,
    /// Dynamic profiles actually computed by live VM execution.
    #[serde(default)]
    pub dyn_profiled: u64,
    /// Dynamic-lane entries currently resident (env sets + profiles).
    #[serde(default)]
    pub dyn_entries: u64,
    /// Dynamic-lane entries (or whole files) that failed validation on load.
    #[serde(default)]
    pub dyn_quarantined: u64,
    /// Signature-lane lookups served from the cache (a retrieval
    /// signature *not* recomputed from its features).
    #[serde(default)]
    pub sig_hits: u64,
    /// Signature-lane lookups that found nothing.
    #[serde(default)]
    pub sig_misses: u64,
    /// Signature-lane entries currently resident.
    #[serde(default)]
    pub sig_entries: u64,
    /// Signature-lane entries (or whole files) that failed validation.
    #[serde(default)]
    pub sig_quarantined: u64,
}

impl CacheStats {
    /// Hit fraction in [0, 1]; 0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot.
    ///
    /// Saturating: when `earlier` is not actually earlier — it came from
    /// a different store, or from before a quarantine/reload replaced the
    /// store behind the same cache dir — each counter clamps at zero
    /// instead of panicking in debug builds (or wrapping to ~2⁶⁴ in
    /// release and reporting nonsense like "18446744073709551615 hits").
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            extractions: self.extractions.saturating_sub(earlier.extractions),
            entries: self.entries,
            quarantined: self.quarantined.saturating_sub(earlier.quarantined),
            dyn_hits: self.dyn_hits.saturating_sub(earlier.dyn_hits),
            dyn_misses: self.dyn_misses.saturating_sub(earlier.dyn_misses),
            dyn_profiled: self.dyn_profiled.saturating_sub(earlier.dyn_profiled),
            dyn_entries: self.dyn_entries,
            dyn_quarantined: self.dyn_quarantined.saturating_sub(earlier.dyn_quarantined),
            sig_hits: self.sig_hits.saturating_sub(earlier.sig_hits),
            sig_misses: self.sig_misses.saturating_sub(earlier.sig_misses),
            sig_entries: self.sig_entries,
            sig_quarantined: self.sig_quarantined.saturating_sub(earlier.sig_quarantined),
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {} extractions, {} entries, {} quarantined; \
             dyn: {} hits / {} misses, {} profiled, {} entries, {} quarantined; \
             sig: {} hits / {} misses, {} entries, {} quarantined",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.extractions,
            self.entries,
            self.quarantined,
            self.dyn_hits,
            self.dyn_misses,
            self.dyn_profiled,
            self.dyn_entries,
            self.dyn_quarantined,
            self.sig_hits,
            self.sig_misses,
            self.sig_entries,
            self.sig_quarantined
        )
    }
}

/// The artifact store: three lanes sharing one in-flight table, plus the
/// `cache.extractions` / `dyncache.profiled` work counters. Each store owns
/// its `scope` registry — a fresh private one by default, so concurrent
/// stores never see each other's counts; the CLI passes
/// `scope::global_shared()` so cache activity lands beside span timings.
pub struct ArtifactStore {
    artifacts: Lane<Artifact>,
    dynamic: Lane<DynEntry>,
    signatures: Lane<FunctionSignature>,
    flight: Flight,
    registry: Arc<MetricsRegistry>,
    extractions: Counter,
    profiled: Counter,
}

impl Default for ArtifactStore {
    fn default() -> ArtifactStore {
        ArtifactStore::new()
    }
}

impl ArtifactStore {
    /// An empty store with a fresh private metrics registry.
    pub fn new() -> ArtifactStore {
        ArtifactStore::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// An empty store recording its cache counters into `registry`.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> ArtifactStore {
        ArtifactStore {
            artifacts: Lane::new(&registry, "cache", CACHE_FILE),
            dynamic: Lane::new(&registry, "dyncache", DYN_CACHE_FILE),
            signatures: Lane::new(&registry, "index", SIG_INDEX_FILE),
            flight: Flight::default(),
            extractions: registry.counter("cache.extractions"),
            profiled: registry.counter("dyncache.profiled"),
            registry,
        }
    }

    /// The registry this store's counters live in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let (a, d, s) = (&self.artifacts, &self.dynamic, &self.signatures);
        CacheStats {
            hits: a.hits.get(),
            misses: a.misses.get(),
            extractions: self.extractions.get(),
            entries: a.entries(),
            quarantined: a.quarantined.get(),
            dyn_hits: d.hits.get(),
            dyn_misses: d.misses.get(),
            dyn_profiled: self.profiled.get(),
            dyn_entries: d.entries(),
            dyn_quarantined: d.quarantined.get(),
            sig_hits: s.hits.get(),
            sig_misses: s.misses.get(),
            sig_entries: s.entries(),
            sig_quarantined: s.quarantined.get(),
        }
    }

    /// Details of every quarantine event since construction (validation
    /// failures found while loading the disk layer), static lane first,
    /// then dynamic, then signature.
    pub fn quarantine_records(&self) -> Vec<String> {
        let mut records = self.artifacts.quarantine_records();
        records.extend(self.dynamic.quarantine_records());
        records.extend(self.signatures.quarantine_records());
        records
    }

    /// Number of resident static-lane entries.
    pub fn len(&self) -> usize {
        self.artifacts.entries() as usize
    }

    /// Whether the static lane holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The artifacts of function `idx` of `bin` in the namespace named by
    /// `salt`, extracting and caching on first sight. Concurrent misses on
    /// one key single-flight, so `cache.extractions` counts distinct
    /// extractions even under a racing scheduler.
    fn artifact(
        &self,
        bin: &Binary,
        idx: usize,
        salt: (u64, u64),
    ) -> Result<Arc<Artifact>, ScanError> {
        let key = ArtifactKey::for_function(bin, idx).namespaced(salt);
        self.artifacts.get_or_compute(key, &self.flight, || {
            self.extractions.inc();
            let dis = disasm::disassemble(bin, idx)
                .map_err(|e| ScanError::extraction(&bin.lib_name, idx, &e))?;
            Ok(Artifact {
                features: features::extract(&dis, &bin.functions[idx]),
                cfg: dis.cfg.summary(),
            })
        })
    }

    /// Pre-populate the store with every function of an image. Returns the
    /// number of functions visited.
    ///
    /// # Errors
    /// The first extraction failure, if any function fails to decode.
    pub fn warm_image(&self, image: &fwbin::FirmwareImage) -> Result<usize, ScanError> {
        for bin in &image.binaries {
            for idx in 0..bin.function_count() {
                self.artifact(bin, idx, (0, 0))?;
            }
        }
        Ok(image.binaries.iter().map(Binary::function_count).sum())
    }

    /// Write every lane to its own file under `dir` (creating `dir` as
    /// needed) — corruption in one file never takes down the others.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        self.artifacts.save(dir)?;
        self.dynamic.save(dir)?;
        self.signatures.save(dir)
    }

    /// Load a store persisted by [`ArtifactStore::save`]. Each lane's file
    /// is untrusted and validated on its own (see `crate::lane`): damage
    /// is quarantined and becomes a miss, never an error.
    ///
    /// # Errors
    /// Propagates filesystem errors other than `NotFound`.
    pub fn load(dir: &Path) -> std::io::Result<ArtifactStore> {
        ArtifactStore::load_with_registry(dir, Arc::new(MetricsRegistry::new()))
    }

    /// [`ArtifactStore::load`] recording cache counters into `registry`
    /// (quarantines found during the load are counted there too).
    ///
    /// # Errors
    /// Propagates filesystem errors other than `NotFound`.
    pub fn load_with_registry(
        dir: &Path,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<ArtifactStore> {
        let store = ArtifactStore::with_registry(registry);
        store.artifacts.load(dir)?;
        store.dynamic.load(dir)?;
        store.signatures.load(dir)?;
        Ok(store)
    }

    /// [`FeatureSource::features_all`] in the namespace named by `salt`.
    pub(crate) fn features_all_ns(
        &self,
        bin: &Binary,
        salt: (u64, u64),
    ) -> Result<Vec<StaticFeatures>, ScanError> {
        (0..bin.function_count()).map(|i| self.features_one_ns(bin, i, salt)).collect()
    }

    /// [`FeatureSource::features_one`] in the namespace named by `salt`.
    pub(crate) fn features_one_ns(
        &self,
        bin: &Binary,
        idx: usize,
        salt: (u64, u64),
    ) -> Result<StaticFeatures, ScanError> {
        Ok(self.artifact(bin, idx, salt)?.features.clone())
    }

    /// [`FeatureSource::signatures_all`] in the namespace named by `salt`:
    /// `feats` must be the binary's full feature list (as returned by
    /// `features_all`). A signature is a pure function of the features
    /// under the same key, so the two lanes can never disagree.
    pub(crate) fn signatures_all_ns(
        &self,
        bin: &Binary,
        feats: &[StaticFeatures],
        salt: (u64, u64),
    ) -> Vec<FunctionSignature> {
        feats
            .iter()
            .enumerate()
            .map(|(idx, f)| {
                let key = ArtifactKey::for_function(bin, idx).namespaced(salt);
                let Ok(sig) = self.signatures.get_or_compute(key, &self.flight, || {
                    Ok::<_, Infallible>(FunctionSignature::of(f))
                });
                (*sig).clone()
            })
            .collect()
    }

    /// [`DynProfileSource::environments`] in the namespace named by `salt`.
    pub(crate) fn environments_ns(
        &self,
        reference: &LoadedBinary,
        fuzz_cfg: &FuzzConfig,
        vm: &VmConfig,
        salt: (u64, u64),
    ) -> Result<EnvSet, ScanError> {
        let key = ArtifactKey::for_env_set(reference.binary(), fuzz_cfg, vm).namespaced(salt);
        let live = || dynsource::live_environments(reference, fuzz_cfg, vm);
        let Ok(entry) = self
            .dynamic
            .get_or_compute(key, &self.flight, || Ok::<_, Infallible>(DynEntry::Envs(live().envs)));
        match &*entry {
            // Recomputing the fingerprint from the stored contents keeps the
            // env-set → profile linkage self-validating: a tampered env list
            // would fingerprint differently and miss every derived profile.
            DynEntry::Envs(envs) => Ok(EnvSet::new(envs.clone(), vm)),
            // Only a damaged file can put a profile under an env-set key.
            DynEntry::Profile(_) => Ok(live()),
        }
    }

    /// [`DynProfileSource::profile`] in the namespace named by `salt`:
    /// one live profiling run (a whole batch of VM executions) serves every
    /// concurrent requester.
    ///
    /// # Panics
    /// When `func` is out of range for `target`'s function table (same
    /// contract as `LoadedBinary::run_any`).
    pub(crate) fn profile_ns(
        &self,
        target: &LoadedBinary,
        func: usize,
        envs: &EnvSet,
        vm: &VmConfig,
        salt: (u64, u64),
    ) -> Result<DynProfile, ScanError> {
        // Same contract and message as `LoadedBinary::run_any`, checked
        // first so a warm and a cold lane degrade identically.
        assert!(
            func < target.function_count(),
            "function index {func} out of range (table holds {})",
            target.function_count()
        );
        let key =
            ArtifactKey::for_dyn_profile(target.binary(), func, envs.fingerprint).namespaced(salt);
        let live = || {
            self.profiled.inc();
            dynsource::live_profile(target, func, &envs.envs, vm)
        };
        let Ok(entry) = self
            .dynamic
            .get_or_compute(key, &self.flight, || Ok::<_, Infallible>(DynEntry::Profile(live())));
        match &*entry {
            DynEntry::Profile(profile) => Ok(profile.clone()),
            // Only a damaged file can put an env set under a profile key.
            DynEntry::Envs(_) => Ok(live()),
        }
    }
}

impl FeatureSource for ArtifactStore {
    fn features_all(&self, bin: &Binary) -> Result<Vec<StaticFeatures>, ScanError> {
        self.features_all_ns(bin, (0, 0))
    }

    fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
        self.features_one_ns(bin, idx, (0, 0))
    }

    fn signatures_all(&self, bin: &Binary, feats: &[StaticFeatures]) -> Vec<FunctionSignature> {
        self.signatures_all_ns(bin, feats, (0, 0))
    }
}

/// The dynamic lane behind the pipeline's [`DynProfileSource`] seam.
/// Infallible by construction: a damaged entry was quarantined at load and
/// is just a miss here, answered live — bitwise-identical, never an error.
impl DynProfileSource for ArtifactStore {
    fn environments(
        &self,
        reference: &LoadedBinary,
        fuzz_cfg: &FuzzConfig,
        vm: &VmConfig,
    ) -> Result<EnvSet, ScanError> {
        self.environments_ns(reference, fuzz_cfg, vm, (0, 0))
    }

    fn profile(
        &self,
        target: &LoadedBinary,
        func: usize,
        envs: &EnvSet,
        vm: &VmConfig,
    ) -> Result<DynProfile, ScanError> {
        self.profile_ns(target, func, envs, vm, (0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::{dyn_fixture, store_binary as sample_binary};
    use patchecko_core::pipeline::DirectExtraction;

    #[test]
    fn second_lookup_hits_and_skips_extraction() {
        let store = ArtifactStore::new();
        let bin = sample_binary();
        let cold = store.features_all(&bin).unwrap();
        let s1 = store.stats();
        assert_eq!(s1.hits, 0);
        assert_eq!(s1.misses, bin.function_count() as u64);
        assert_eq!(s1.extractions, bin.function_count() as u64);

        let warm = store.features_all(&bin).unwrap();
        let s2 = store.stats();
        assert_eq!(s2.extractions, s1.extractions, "warm pass extracts nothing");
        assert_eq!(s2.hits, bin.function_count() as u64);
        assert_eq!(cold, warm);
        assert!(s2.hit_rate() > 0.49 && s2.hit_rate() < 0.51);
    }

    #[test]
    fn cached_features_match_direct_extraction() {
        let store = ArtifactStore::new();
        let bin = sample_binary();
        let direct = DirectExtraction.features_all(&bin).unwrap();
        // Twice: once populating, once from cache.
        assert_eq!(store.features_all(&bin).unwrap(), direct);
        assert_eq!(store.features_all(&bin).unwrap(), direct);
        for (idx, expected) in direct.iter().enumerate() {
            assert_eq!(&store.features_one(&bin, idx).unwrap(), expected);
        }
    }

    #[test]
    fn corrupt_binary_extraction_is_typed_not_a_panic() {
        let store = ArtifactStore::new();
        let mut bin = sample_binary();
        bin.functions[2].code = vec![0xEE, 0xEE, 0xEE];
        match store.features_all(&bin) {
            Err(ScanError::Extraction { function: 2, .. }) => {}
            other => panic!("expected typed extraction error, got {other:?}"),
        }
        // Healthy functions are still servable individually.
        assert!(store.features_one(&bin, 0).is_ok());
    }

    #[test]
    fn persistence_roundtrip_preserves_artifacts() {
        let dir = std::env::temp_dir().join(format!("scanhub-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::new();
        let bin = sample_binary();
        store.features_all(&bin).unwrap();
        store.save(&dir).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.len(), store.len());
        assert_eq!(reloaded.stats().quarantined, 0, "a clean cache quarantines nothing");
        let before = reloaded.stats();
        let feats = reloaded.features_all(&bin).unwrap();
        let after = reloaded.stats();
        assert_eq!(after.extractions, before.extractions, "reloaded store serves from cache");
        assert_eq!(after.misses, before.misses);
        assert_eq!(feats, DirectExtraction.features_all(&bin).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh temp cache dir, cleaned before use.
    fn temp_cache(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scanhub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn stats_delta_saturates_across_quarantine_reload() {
        // Snapshot a warmed store, then quarantine-reload the cache dir
        // (the reloaded store's counters restart at zero). A delta taken
        // across that boundary used to underflow — panicking in debug,
        // reporting ~2^64 hits in release. It must clamp at zero.
        let dir = temp_cache("delta-saturate");
        let bin = sample_binary();
        let store = ArtifactStore::new();
        store.features_all(&bin).unwrap();
        store.features_all(&bin).unwrap();
        store.save(&dir).unwrap();
        let before = store.stats();
        assert!(before.hits > 0 && before.extractions > 0);

        // Corrupt the cache so the reload starts from an empty store.
        std::fs::write(dir.join("artifacts.json"), b"garbage").unwrap();
        let reloaded = ArtifactStore::load(&dir).unwrap();
        let after = reloaded.stats();
        let delta = after.since(&before);
        assert_eq!(delta.hits, 0, "saturates instead of underflowing");
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.extractions, 0);
        assert_eq!(delta.quarantined, 1, "the quarantine itself still shows");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_delta_on_same_store_is_exact() {
        let store = ArtifactStore::new();
        let bin = sample_binary();
        store.features_all(&bin).unwrap();
        let mid = store.stats();
        store.features_all(&bin).unwrap();
        let delta = store.stats().since(&mid);
        assert_eq!(delta.hits, bin.function_count() as u64);
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.extractions, 0);
    }

    #[test]
    fn counters_live_in_the_supplied_registry() {
        let reg = Arc::new(scope::MetricsRegistry::new());
        let store = ArtifactStore::with_registry(Arc::clone(&reg));
        let bin = sample_binary();
        store.features_all(&bin).unwrap();
        store.features_all(&bin).unwrap();
        let snap = reg.snapshot();
        let n = bin.function_count() as u64;
        assert_eq!(snap.counter("cache.misses"), n);
        assert_eq!(snap.counter("cache.extractions"), n);
        assert_eq!(snap.counter("cache.hits"), n);
        // stats() reads the very same counters.
        let stats = store.stats();
        assert_eq!(stats.hits, snap.counter("cache.hits"));
        assert!(Arc::ptr_eq(store.registry(), &reg));
    }

    #[test]
    fn dyn_lane_roundtrip_serves_cached_envs_and_profiles() {
        let dir = temp_cache("dyn-roundtrip");
        let (lb, fuzz, vmc) = dyn_fixture();
        let store = ArtifactStore::new();
        let envs = store.environments(&lb, &fuzz, &vmc).unwrap();
        let cold = store.profile(&lb, 1, &envs, &vmc).unwrap();
        let s = store.stats();
        assert_eq!((s.dyn_hits, s.dyn_misses, s.dyn_profiled), (0, 2, 1));
        assert_eq!(s.dyn_entries, 2, "one env set + one profile resident");
        store.save(&dir).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.stats().dyn_entries, 2);
        assert_eq!(reloaded.stats().dyn_quarantined, 0, "a clean dyn cache quarantines nothing");
        let envs2 = reloaded.environments(&lb, &fuzz, &vmc).unwrap();
        assert_eq!(envs2.envs, envs.envs);
        assert_eq!(envs2.fingerprint, envs.fingerprint, "recomputed fingerprint matches");
        let warm = reloaded.profile(&lb, 1, &envs2, &vmc).unwrap();
        assert_eq!(warm, cold, "cached profile is bitwise-identical to the live one");
        let s = reloaded.stats();
        assert_eq!((s.dyn_hits, s.dyn_misses), (2, 0), "warm pass is all hits");
        assert_eq!(s.dyn_profiled, 0, "warm pass executes nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sig_lane_roundtrip_serves_cached_signatures() {
        let dir = temp_cache("sig-roundtrip");
        let store = ArtifactStore::new();
        let bin = sample_binary();
        let n = bin.function_count() as u64;
        let feats = store.features_all(&bin).unwrap();
        let sigs = store.signatures_all(&bin, &feats);
        let s = store.stats();
        assert_eq!((s.sig_hits, s.sig_misses, s.sig_entries), (0, n, n));
        assert_eq!(store.signatures_all(&bin, &feats), sigs, "warm pass serves the same values");
        assert_eq!(store.stats().sig_hits, n);
        store.save(&dir).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        let s = reloaded.stats();
        assert_eq!(s.sig_entries, n);
        assert_eq!(s.sig_quarantined, 0, "a clean sig index quarantines nothing");
        assert_eq!(reloaded.signatures_all(&bin, &feats), sigs);
        let s = reloaded.stats();
        assert_eq!((s.sig_hits, s.sig_misses), (n, 0), "reloaded lane is warm");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn swapped_dyn_entry_kinds_are_answered_live() {
        // Checksums validate values, not the key they sit under: a file
        // whose env set and profile trade places loads clean, and each
        // mis-kinded entry is answered live instead of served.
        let dir = temp_cache("dyn-swapped");
        let (lb, fuzz, vmc) = dyn_fixture();
        let store = ArtifactStore::new();
        let envs = store.environments(&lb, &fuzz, &vmc).unwrap();
        let cold = store.profile(&lb, 0, &envs, &vmc).unwrap();
        store.save(&dir).unwrap();

        let path = dir.join(DYN_CACHE_FILE);
        let mut doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let serde_json::Value::Map(fields) = &mut doc else { panic!("document is an object") };
        let Some((_, serde_json::Value::Map(entries))) =
            fields.iter_mut().find(|(k, _)| k == "entries")
        else {
            panic!("document has an entry map")
        };
        let (first, second) = entries.split_at_mut(1);
        std::mem::swap(&mut first[0].1, &mut second[0].1);
        std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();

        let reloaded = ArtifactStore::load(&dir).unwrap();
        assert_eq!(reloaded.stats().dyn_quarantined, 0, "both entries are individually valid");
        let envs2 = reloaded.environments(&lb, &fuzz, &vmc).unwrap();
        assert_eq!(envs2.envs, envs.envs);
        assert_eq!(reloaded.profile(&lb, 0, &envs2, &vmc).unwrap(), cold);
        assert_eq!(reloaded.stats().dyn_profiled, 1, "the mis-kinded profile re-executes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dyn_profile_out_of_range_panics_like_run_any() {
        let (lb, fuzz, vmc) = dyn_fixture();
        let store = ArtifactStore::new();
        let envs = store.environments(&lb, &fuzz, &vmc).unwrap();
        let _ = store.profile(&lb, lb.function_count() + 1, &envs, &vmc);
    }

    #[test]
    fn concurrent_same_key_misses_single_flight_to_one_extraction() {
        let store = Arc::new(ArtifactStore::new());
        let bin = Arc::new(sample_binary());
        let n = bin.function_count() as u64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (store, bin) = (Arc::clone(&store), Arc::clone(&bin));
                s.spawn(move || store.features_all(&bin).unwrap());
            }
        });
        let stats = store.stats();
        assert_eq!(stats.extractions, n, "one extraction per function, regardless of racers");
        assert_eq!(stats.entries, n);
    }

    #[test]
    fn failed_winner_releases_the_flight_for_waiters() {
        // Every racer must get the typed error back — a panicking or
        // failing winner may not strand waiters on the condvar.
        let store = Arc::new(ArtifactStore::new());
        let mut bin = sample_binary();
        bin.functions[2].code = vec![0xEE, 0xEE, 0xEE];
        let bin = Arc::new(bin);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (store, bin) = (Arc::clone(&store), Arc::clone(&bin));
                    s.spawn(move || store.features_one(&bin, 2))
                })
                .collect();
            for h in handles {
                match h.join().unwrap() {
                    Err(ScanError::Extraction { function: 2, .. }) => {}
                    other => panic!("expected typed extraction error, got {other:?}"),
                }
            }
        });
    }

    /// Every lane's checksum survives a JSON round-trip (bit-exact floats)
    /// and moves when any field does.
    #[test]
    fn checksums_are_structural_and_json_stable() {
        fn check<
            V: Checksummed + Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
        >(
            value: &V,
            tampered: &V,
        ) {
            let back: V = serde_json::from_str(&serde_json::to_string(value).unwrap()).unwrap();
            assert_eq!(&back, value);
            assert_eq!(back.checksum(), value.checksum(), "JSON round-trip preserves the checksum");
            assert_ne!(tampered.checksum(), value.checksum(), "{tampered:?}");
        }
        let store = ArtifactStore::new();
        let bin = sample_binary();
        let artifact = (*store.artifact(&bin, 0, (0, 0)).unwrap()).clone();
        let mut t = artifact.clone();
        t.cfg.num_blocks += 1;
        check(&artifact, &t);
        let mut t = artifact.clone();
        t.features.0[3] = f64::from_bits(t.features.0[3].to_bits() ^ 1);
        check(&artifact, &t);

        let sig = FunctionSignature::of(&artifact.features);
        let mut t = sig.clone();
        t.q[7] ^= 1;
        check(&sig, &t);
        let mut t = sig.clone();
        t.minhash[3] ^= 1;
        check(&sig, &t);

        let envs = DynEntry::Envs(vec![
            ExecEnv::for_buffer(vec![1, 2, 3], &[7]),
            ExecEnv {
                input: vec![9; 4],
                args: vec![ArgSpec::InputPtr, ArgSpec::Float(0.1 + 0.2)],
                global_overrides: vec![(2, -5)],
            },
        ]);
        let DynEntry::Envs(e) = &envs else { unreachable!() };
        let mut flipped = e.clone();
        flipped[0].input[1] ^= 1;
        check(&envs, &DynEntry::Envs(flipped));
        let mut fewer_args = e.clone();
        fewer_args[1].args.pop();
        check(&envs, &DynEntry::Envs(fewer_args));

        let mut f = vm::DynFeatures([0.0; vm::NUM_DYN_FEATURES]);
        f.0[0] = 1.25;
        f.0[3] = -0.000_1;
        let p = DynProfile { ok: vec![true, false], features: vec![f.clone(), f] };
        let mut ok_flipped = p.clone();
        ok_flipped.ok[1] = true;
        check(&DynEntry::Profile(p.clone()), &DynEntry::Profile(ok_flipped));
        let mut nudged = p.clone();
        nudged.features[0].0[0] = 1.250_000_001;
        check(&DynEntry::Profile(p), &DynEntry::Profile(nudged));
    }
}
