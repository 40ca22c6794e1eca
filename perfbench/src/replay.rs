//! The single-threaded layer replay: the pipeline's steps re-run one by
//! one through each layer's public function, in the pipeline's order —
//! `reference_feature_set_with`, `features_all`, `classify_product`,
//! `LoadedBinary::load` ×2, `environments`, `profile`,
//! `similarity::rank` and, for audits, `detect_patch_best_with` — each
//! inside a bench-side span (see [`crate::spans`]). Every replayed result
//! is compared with the end-to-end one by the caller.
//!
//! The step logic mirrors `Patchecko::analyze_library_ctl`,
//! `dynamic_stage`, `analyze_image_ctl` and `eval::audit_image_ctl`; a
//! drift between the two shows up as a replay mismatch, which fails the
//! run.

use crate::spans::Recorder;
use corpus::vulndb::{DbEntry, VulnDb};
use fwbin::format::Binary;
use fwbin::FirmwareImage;
use patchecko_core::differential::{self, DifferentialConfig, PatchVerdict};
use patchecko_core::dynsource::{self, DynProfileSource, EnvSet};
use patchecko_core::error::ScanError;
use patchecko_core::features::{self, StaticFeatures};
use patchecko_core::pipeline::{Basis, FeatureSource, ImageMatch, Patchecko};
use patchecko_core::report::{AuditFinding, AuditReport, AuditStatus};
use patchecko_core::similarity::{self, RankedCandidate};
use patchecko_scanhub::CacheStats;
use std::collections::BTreeMap;
use std::sync::Arc;
use vm::loader::LoadedBinary;

/// Where the replay's artifacts come from: the same cache the end-to-end
/// run used (a store or a tenant view of one), plus its counters so cache
/// misses can be told apart from hits.
pub struct Sources<'a> {
    /// Static lane.
    pub features: &'a dyn FeatureSource,
    /// Dynamic lane.
    pub dynsrc: Arc<dyn DynProfileSource>,
    /// The backing store's counters.
    pub stats: &'a dyn Fn() -> CacheStats,
}

/// Work counts gathered by the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Functions disassembled (cache misses).
    pub disasm_functions: u64,
    /// (reference, target) pairs classified.
    pub nn_pairs: u64,
    /// `LoadedBinary::load` calls.
    pub vm_loads: u64,
    /// Environments produced by fuzzing (env-set misses).
    pub fuzz_envs: u64,
    /// Candidates profiled.
    pub candidates: u64,
    /// Candidates that survived execution validation.
    pub validated: u64,
    /// Candidates run through the differential engine.
    pub diff_calls: u64,
}

/// The replay of one library's analysis, reduced to what the end-to-end
/// outputs carry.
struct LibraryResult {
    candidates: usize,
    validated: usize,
    top: Option<RankedCandidate>,
    degraded: bool,
}

/// The replay of one image analysis.
pub struct ImageResult {
    /// Static candidates, image-wide.
    pub candidates: usize,
    /// Validated candidates, image-wide.
    pub validated: usize,
    /// Libraries whose dynamic stage degraded.
    pub degraded: usize,
    /// The image-wide best match.
    pub best: Option<ImageMatch>,
}

/// Credit the disassembly and feature extraction a cache call performed:
/// re-run both on `funcs` (binary, function index), keeping the share of
/// the time that matches the `missed` count the cache reported.
pub fn probe_extraction(
    rec: &mut Recorder,
    parent: usize,
    funcs: &[(&Binary, usize)],
    missed: u64,
    counts: &mut Counts,
) {
    if missed == 0 || funcs.is_empty() {
        return;
    }
    let share = missed as f64 / funcs.len() as f64;
    let dis: Vec<_> = rec.probe_share(parent, "disasm", share, || {
        funcs
            .iter()
            .map(|&(b, i)| disasm::disassemble(b, i).expect("replayed code decodes"))
            .collect()
    });
    rec.probe_share(parent, "features", share, || {
        dis.iter()
            .zip(funcs)
            .map(|(d, &(b, i))| features::extract(d, &b.functions[i]))
            .collect::<Vec<_>>()
    });
    counts.disasm_functions += missed;
}

/// Static features of every function of `bin` through the cache, with
/// misses credited to disassembly and feature extraction.
pub fn target_features(
    rec: &mut Recorder,
    src: &Sources,
    bin: &Binary,
    counts: &mut Counts,
) -> Vec<StaticFeatures> {
    let before = rec.untimed(|| (src.stats)().extractions);
    let (feats, id) = rec.span("cache", || {
        src.features.features_all(bin).expect("features extract")
    });
    let missed = rec.untimed(|| (src.stats)().extractions) - before;
    let funcs: Vec<_> = (0..bin.function_count()).map(|i| (bin, i)).collect();
    probe_extraction(rec, id, &funcs, missed, counts);
    feats
}

/// Per-target best probability and reference, folded exactly as the
/// pipeline folds a reference-major score matrix (strict `>`, references
/// ascending).
pub fn fold_scores(
    scores: impl IntoIterator<Item = ((usize, usize), f32)>,
    targets: usize,
) -> (Vec<f32>, Vec<usize>) {
    let mut probs = vec![0.0f32; targets];
    let mut best_ref = vec![0usize; targets];
    for ((r, j), s) in scores {
        if s > probs[j] {
            probs[j] = s;
            best_ref[j] = r;
        }
    }
    (probs, best_ref)
}

/// Static-only ranking for candidates without dynamic evidence (the
/// pipeline's degraded fallback).
fn static_fallback(probs: &[f32], candidates: &[usize]) -> Vec<RankedCandidate> {
    let mut ranked: Vec<RankedCandidate> = candidates
        .iter()
        .map(|&c| RankedCandidate {
            function_index: c,
            distance: 1.0 - f64::from(probs[c]),
        })
        .collect();
    ranked.sort_by(|a, b| {
        similarity::distance_order(a.distance, b.distance)
            .then(a.function_index.cmp(&b.function_index))
    });
    ranked
}

fn degraded(probs: &[f32], candidates: &[usize]) -> LibraryResult {
    LibraryResult {
        candidates: candidates.len(),
        validated: 0,
        top: static_fallback(probs, candidates).into_iter().next(),
        degraded: true,
    }
}

/// One dynamic-lane call, with a live re-run credited to `layer` when the
/// lane missed (`moved` reads the miss counter the call would move).
fn dyn_call<T, P>(
    rec: &mut Recorder,
    src: &Sources,
    moved: fn(&CacheStats) -> u64,
    call: impl FnOnce() -> T,
    layer: &'static str,
    probe: impl FnOnce() -> P,
) -> (T, Option<P>) {
    let before = rec.untimed(|| moved(&(src.stats)()));
    let (out, id) = rec.span("cache", call);
    let missed = rec.untimed(|| moved(&(src.stats)())) > before;
    let probed = missed.then(|| rec.probe(id, layer, probe));
    (out, probed)
}

fn replay_library(
    rec: &mut Recorder,
    analyzer: &Patchecko,
    entry: &DbEntry,
    basis: Basis,
    bin: &Binary,
    src: &Sources,
    counts: &mut Counts,
) -> LibraryResult {
    let patched = basis == Basis::Patched;
    let cfg = &analyzer.config;

    // Reference re-derivation: compiles the DB entry's platform variants,
    // then serves their features from the cache.
    let before = rec.untimed(|| (src.stats)().extractions);
    let (references, id) = rec.span("cache", || {
        Patchecko::reference_feature_set_with(entry, basis, src.features)
            .expect("reference features")
    });
    let variants = rec.probe(id, "refs", || entry.reference_variants(patched));
    let missed = rec.untimed(|| (src.stats)().extractions) - before;
    let funcs: Vec<_> = variants.iter().map(|v| (v, 0)).collect();
    probe_extraction(rec, id, &funcs, missed, counts);

    // Static stage.
    let feats = target_features(rec, src, bin, counts);
    let (probs, candidates) = rec
        .span("nn", || {
            if references.is_empty() || feats.is_empty() {
                return (vec![0.0f32; feats.len()], Vec::new());
            }
            let scores = analyzer.detector.classify_product(&references, &feats);
            let n = feats.len();
            let (probs, _) = fold_scores(
                scores.iter().enumerate().map(|(k, &s)| ((k / n, k % n), s)),
                n,
            );
            let candidates: Vec<usize> = probs
                .iter()
                .enumerate()
                .filter(|(_, p)| **p >= analyzer.detector.threshold)
                .map(|(i, _)| i)
                .collect();
            (probs, candidates)
        })
        .0;
    counts.nn_pairs += (references.len() * feats.len()) as u64;

    // Loads: the reference compiled for the target's platform, and the
    // target itself.
    let ref_bin = rec
        .span("refs", || entry.reference_for(bin.arch, patched))
        .0;
    let ref_loaded = rec.span("vm.load", || LoadedBinary::load(ref_bin)).0;
    let target_loaded = rec.span("vm.load", || LoadedBinary::load(bin.clone())).0;
    counts.vm_loads += 2;
    let (Ok(reference), Ok(target)) = (ref_loaded, target_loaded) else {
        return degraded(&probs, &candidates);
    };

    // Dynamic stage.
    let (envset, fuzzed) = dyn_call(
        rec,
        src,
        |s| s.dyn_misses,
        || src.dynsrc.environments(&reference, &cfg.fuzz, &cfg.vm),
        "fuzz",
        || dynsource::live_environments(&reference, &cfg.fuzz, &cfg.vm),
    );
    counts.fuzz_envs += fuzzed.map_or(0, |s| s.len() as u64);
    let envset = envset.unwrap_or_else(|_| EnvSet::new(Vec::new(), &cfg.vm));
    if envset.is_empty() && !candidates.is_empty() {
        return degraded(&probs, &candidates);
    }
    let (ref_profile, _) = dyn_call(
        rec,
        src,
        |s| s.dyn_profiled,
        || src.dynsrc.profile(&reference, 0, &envset, &cfg.vm),
        "vm.exec",
        || dynsource::live_profile(&reference, 0, &envset.envs, &cfg.vm),
    );
    let reference_profile = match ref_profile {
        Ok(p) if p.validated() => p.features,
        _ if candidates.is_empty() => Vec::new(),
        _ => return degraded(&probs, &candidates),
    };
    let mut validated = Vec::new();
    let mut profiles = Vec::new();
    let mut fallback = Vec::new();
    for &c in &candidates {
        let (profile, _) = dyn_call(
            rec,
            src,
            |s| s.dyn_profiled,
            || src.dynsrc.profile(&target, c, &envset, &cfg.vm),
            "vm.exec",
            || dynsource::live_profile(&target, c, &envset.envs, &cfg.vm),
        );
        match profile {
            Ok(p) if p.validated() => {
                validated.push(c);
                profiles.push((c, p.features));
            }
            Ok(_) => {}
            Err(_) => fallback.push(c),
        }
    }
    counts.candidates += candidates.len() as u64;
    counts.validated += validated.len() as u64;
    let mut ranking = rec
        .span("rank", || {
            similarity::rank(&reference_profile, &profiles, cfg.minkowski_p)
        })
        .0;
    ranking.extend(static_fallback(&probs, &fallback));
    LibraryResult {
        candidates: candidates.len(),
        validated: validated.len(),
        top: ranking.into_iter().next(),
        degraded: !fallback.is_empty(),
    }
}

/// Replay one whole-image analysis (every library, then the image-wide
/// best match).
pub fn replay_image(
    rec: &mut Recorder,
    analyzer: &Patchecko,
    image: &FirmwareImage,
    entry: &DbEntry,
    basis: Basis,
    src: &Sources,
    counts: &mut Counts,
) -> ImageResult {
    let libs: Vec<LibraryResult> = image
        .binaries
        .iter()
        .map(|bin| replay_library(rec, analyzer, entry, basis, bin, src, counts))
        .collect();
    let mut best: Option<(usize, usize, f64, bool)> = None;
    for (li, lib) in libs.iter().enumerate() {
        if let Some(r) = &lib.top {
            let replace = match best {
                Some((_, _, d, deg)) => (lib.degraded, r.distance) < (deg, d),
                None => true,
            };
            if replace {
                best = Some((li, r.function_index, r.distance, lib.degraded));
            }
        }
    }
    ImageResult {
        candidates: libs.iter().map(|l| l.candidates).sum(),
        validated: libs.iter().map(|l| l.validated).sum(),
        degraded: libs.iter().filter(|l| l.degraded).count(),
        best: best.map(|(li, fi, distance, degraded)| ImageMatch {
            library: image.binaries[li].lib_name.clone(),
            library_index: li,
            function_index: fi,
            distance,
            degraded,
        }),
    }
}

/// One CVE's audit: both-basis image analyses, then the differential
/// engine on each library's located candidates.
fn replay_finding(
    rec: &mut Recorder,
    analyzer: &Patchecko,
    image: &FirmwareImage,
    entry: &DbEntry,
    diff: &DifferentialConfig,
    src: &Sources,
    counts: &mut Counts,
) -> Result<(AuditStatus, Option<String>, Option<PatchVerdict>), ScanError> {
    let va = replay_image(rec, analyzer, image, entry, Basis::Vulnerable, src, counts);
    let pa = replay_image(rec, analyzer, image, entry, Basis::Patched, src, counts);
    let mut by_lib: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for m in va.best.iter().chain(pa.best.iter()) {
        let cands = by_lib.entry(m.library_index).or_default();
        if !cands.contains(&m.function_index) {
            cands.push(m.function_index);
        }
    }
    let mut best: Option<(String, usize, PatchVerdict, f64)> = None;
    for (li, cands) in by_lib {
        let bin = &image.binaries[li];
        counts.diff_calls += cands.len() as u64;
        let verdict = rec
            .span("diff", || {
                differential::detect_patch_best_with(
                    analyzer,
                    entry,
                    bin,
                    &cands,
                    diff,
                    src.features,
                    &src.dynsrc,
                )
            })
            .0?;
        if let Some((idx, v)) = verdict {
            let dyn_prox = v.dyn_dist_vulnerable.min(v.dyn_dist_patched);
            let proximity = if dyn_prox.is_finite() { dyn_prox } else { 0.0 }
                + v.static_dist_vulnerable.min(v.static_dist_patched);
            if best.as_ref().is_none_or(|(_, _, _, d)| proximity < *d) {
                best = Some((bin.lib_name.clone(), idx, v, proximity));
            }
        }
    }
    Ok(match best {
        Some((lib, idx, v, _)) => (
            if v.patched {
                AuditStatus::Patched
            } else {
                AuditStatus::Vulnerable
            },
            Some(format!("{lib}:{idx}")),
            Some(v),
        ),
        None => (AuditStatus::NotFound, None, None),
    })
}

/// Replay a whole-image audit against every database entry.
///
/// # Errors
/// The first transient failure, as the end-to-end audit would return it.
pub fn replay_audit(
    rec: &mut Recorder,
    analyzer: &Patchecko,
    db: &VulnDb,
    image: &FirmwareImage,
    diff: &DifferentialConfig,
    src: &Sources,
    counts: &mut Counts,
) -> Result<AuditReport, ScanError> {
    let mut findings = Vec::new();
    for entry in &db.entries {
        let (status, located, verdict, error) =
            match replay_finding(rec, analyzer, image, entry, diff, src, counts) {
                Ok((status, located, verdict)) => (status, located, verdict, None),
                Err(e) if e.is_transient() => return Err(e),
                Err(e) => (AuditStatus::Error, None, None, Some(e)),
            };
        let degraded = verdict.as_ref().is_some_and(|v| v.degraded);
        findings.push(AuditFinding {
            cve: entry.entry.cve.clone(),
            expected_library: entry.entry.library.clone(),
            severity: format!("{:?}", entry.entry.severity).to_lowercase(),
            cwe: Some(entry.meta.cwe().to_string()),
            cvss: Some(entry.meta.metrics.base_score),
            status,
            located,
            verdict,
            degraded,
            error,
        });
    }
    Ok(AuditReport {
        device: image.device.clone(),
        patch_level: image.patch_level.clone(),
        libraries: image.binaries.len(),
        functions: image.total_functions(),
        findings,
        telemetry: None,
    })
}
