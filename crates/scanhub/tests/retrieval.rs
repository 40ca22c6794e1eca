//! Acceptance gates for indexed candidate retrieval (the signature/LSH
//! pre-filter in front of the NN scan):
//!
//! * **identity** — `--retrieval topk:K` with K ≥ the reference count is
//!   bitwise-identical to the exact all-pairs scan (probs, candidates,
//!   best_ref), both with direct extraction and through the persistent
//!   artifact cache (property-tested over generated libraries on all
//!   four ISAs);
//! * **recall** — at the default K, indexed retrieval retains ≥ 99% of
//!   the exact scan's detections on the seed fixture, across all 4 ISAs
//!   × all 6 optimization levels against a reference pool wide enough
//!   that real pruning happens;
//! * **persistence** — a hub scan in top-K mode populates the signature
//!   lane incrementally, serves it warm, and survives a save/load cycle.

use corpus::catalog;
use corpus::dataset1::Dataset1Config;
use corpus::vulndb::VulnDb;
use fwbin::isa::{Arch, OptLevel};
use fwlang::gen::Generator;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::{Basis, Patchecko, PipelineConfig, ScanCtx};
use patchecko_core::retrieval::{Retrieval, DEFAULT_TOP_K};
use patchecko_scanhub::{ArtifactStore, ScanHub};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn shared_detector() -> &'static Detector {
    static DET: OnceLock<Detector> = OnceLock::new();
    DET.get_or_init(|| {
        let ds = corpus::build_dataset1(&Dataset1Config {
            num_libraries: 10,
            min_functions: 8,
            max_functions: 12,
            seed: 1,
            include_catalog: true,
        });
        let cfg = DetectorConfig {
            pairs_per_function: 6,
            train: TrainConfig { epochs: 10, batch: 256, lr: 1e-3, seed: 7, ..Default::default() },
            ..DetectorConfig::default()
        };
        detector::train(&ds, &cfg).0
    })
}

fn small_db() -> &'static VulnDb {
    static DB: OnceLock<VulnDb> = OnceLock::new();
    DB.get_or_init(|| {
        let mut db = corpus::build_vulndb(0, 1);
        db.entries.truncate(10);
        db
    })
}

fn analyzer(retrieval: Retrieval) -> Patchecko {
    let cfg = PipelineConfig { retrieval, ..PipelineConfig::default() };
    Patchecko::new(shared_detector().clone(), cfg)
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Top-K retrieval with K = |references| visits every pair the exact
    /// scan visits — the whole scan must come out bitwise-identical, on
    /// every ISA, through the artifact cache (cold and warm, so cached
    /// signatures feed the index the second time around).
    #[test]
    fn topk_at_full_k_is_bitwise_identical_through_the_cache(seed in 0u64..10_000, n in 3usize..7) {
        let entry = &small_db().entries[0];
        let refs = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
        let exact = analyzer(Retrieval::Exact);
        let topk = analyzer(Retrieval::TopK { k: refs.len() });
        let store = Arc::new(ArtifactStore::new());
        let ctx = ScanCtx::over(&store);
        for arch in Arch::ALL {
            let lib = Generator::new(seed).library_sized("libprop", n);
            let bin = fwbin::compile_library(&lib, arch, OptLevel::O1).unwrap();
            let e = exact.scan_library(&bin, &refs, &ctx).unwrap();
            let cold = topk.scan_library(&bin, &refs, &ctx).unwrap();
            let warm = topk.scan_library(&bin, &refs, &ctx).unwrap();
            for t in [&cold, &warm] {
                prop_assert_eq!(bits(&e.probs), bits(&t.probs));
                prop_assert_eq!(&e.candidates, &t.candidates);
                prop_assert_eq!(&e.best_ref, &t.best_ref);
            }
        }
    }
}

/// Recall gate: at the default K against a reference DB of each entry's
/// 4 true platform variants plus 60 distractor reference functions (wide
/// enough that top-16 really prunes), the indexed scan must retain
/// ≥ 99% of the exact scan's detections (detection recall: a function
/// the exact scan flags is still flagged), and must not disagree on any
/// threshold decision for more than 1% of targets. Targets are the seed
/// fixture: the catalog entries' own vulnerable and patched libraries
/// compiled at every (ISA, optimization level) pair — the paper's
/// use-case, where the true match is a cross-compiled variant of a
/// pooled reference.
#[test]
fn default_k_detection_recall_is_at_least_99_percent_across_isas_and_opts() {
    let db = small_db();
    let distractors: Vec<StaticFeatures> = {
        let lib = Generator::new(99).library_sized("libdistract", 60);
        let bin = fwbin::compile_library(&lib, Arch::Arm64, OptLevel::O2).unwrap();
        patchecko_core::features::extract_all(&bin).unwrap()
    };
    let exact = analyzer(Retrieval::Exact);
    let topk = analyzer(Retrieval::TopK { k: DEFAULT_TOP_K });

    let (mut flagged, mut retained, mut total, mut agree) = (0u32, 0u32, 0u32, 0u32);
    for entry in &db.entries {
        let mut pool = Patchecko::reference_feature_set(entry, Basis::Vulnerable).unwrap();
        pool.extend(distractors.iter().cloned());
        assert!(pool.len() > DEFAULT_TOP_K, "pool must be wide enough to prune");
        for patched in [false, true] {
            let lib = catalog::reference_library(&entry.entry, patched);
            for arch in Arch::ALL {
                for opt in OptLevel::ALL {
                    let bin = fwbin::compile_library(&lib, arch, opt).unwrap();
                    let e = exact.scan_library(&bin, &pool, &ScanCtx::default()).unwrap();
                    let t = topk.scan_library(&bin, &pool, &ScanCtx::default()).unwrap();
                    for f in 0..e.total {
                        total += 1;
                        let ef = e.candidates.contains(&f);
                        let tf = t.candidates.contains(&f);
                        if ef {
                            flagged += 1;
                            if tf {
                                retained += 1;
                            }
                        }
                        if ef == tf {
                            agree += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(flagged > 0, "the seed fixture must produce detections");
    let recall = f64::from(retained) / f64::from(flagged);
    let agreement = f64::from(agree) / f64::from(total);
    assert!(
        recall >= 0.99,
        "detection recall {recall:.4} below the 99% gate \
         ({retained}/{flagged} exact detections retained at K={DEFAULT_TOP_K})"
    );
    assert!(
        agreement >= 0.99,
        "threshold-decision agreement {agreement:.4} below the 99% gate ({agree}/{total})"
    );
}

/// A top-K hub scan populates the persistent signature lane (cold:
/// all misses + inserts), serves it warm (all hits), and the lane
/// survives persist/reload — with the scan results bitwise-stable
/// throughout and the pruning counters moving in the hub's registry.
#[test]
fn hub_topk_scan_populates_and_serves_the_persistent_index() {
    let dir = std::env::temp_dir().join(format!("scanhub-retrieval-hub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entry = &small_db().entries[0];
    // K below the reference count (4 variants), so the index really
    // selects and the pruning counters move.
    let hub = ScanHub::with_cache_dir(analyzer(Retrieval::TopK { k: 2 }), &dir).unwrap();
    let bin = Generator::new(11).library_sized("libhub", 6);
    let bin = fwbin::compile_library(&bin, Arch::Arm64, OptLevel::O2).unwrap();
    let n = bin.function_count() as u64;

    let pruned_before = scope::snapshot().counter("index.pairs_pruned");
    let cold = hub.scan_library(&bin, entry, Basis::Vulnerable).unwrap();
    let s = hub.stats();
    assert_eq!(s.sig_entries, n, "cold scan inserts one signature per target function");
    assert_eq!((s.sig_hits, s.sig_misses), (0, n));
    assert!(
        scope::snapshot().counter("index.pairs_pruned") >= pruned_before + n,
        "k=2 of 4 references prunes pairs (band-collision rescue may add a few back)"
    );

    let warm = hub.scan_library(&bin, entry, Basis::Vulnerable).unwrap();
    assert_eq!(bits(&cold.probs), bits(&warm.probs));
    assert_eq!(hub.stats().sig_hits, n, "warm scan serves every signature from the lane");

    assert!(hub.persist().unwrap());
    let hub2 = ScanHub::with_cache_dir(analyzer(Retrieval::TopK { k: 2 }), &dir).unwrap();
    let s = hub2.stats();
    assert_eq!(s.sig_entries, n, "signature lane survives reload");
    assert_eq!(s.sig_quarantined, 0);
    let reloaded = hub2.scan_library(&bin, entry, Basis::Vulnerable).unwrap();
    assert_eq!(bits(&cold.probs), bits(&reloaded.probs));
    assert_eq!(cold.best_ref, reloaded.best_ref);
    let s = hub2.stats();
    assert_eq!((s.sig_hits, s.sig_misses), (n, 0), "reloaded lane is warm");
    std::fs::remove_dir_all(&dir).unwrap();
}
