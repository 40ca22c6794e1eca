//! End-to-end integration tests: the full PATCHECKO workflow against
//! miniature device images, spanning every crate in the workspace.

use patchecko::core::detector::{self, Detector, DetectorConfig};
use patchecko::core::differential::{self, DifferentialConfig};
use patchecko::core::eval;
use patchecko::core::pipeline::{Basis, Patchecko, PipelineConfig, ScanCtx};
use patchecko::core::similarity;
use patchecko::corpus;
use patchecko::corpus::dataset1::Dataset1Config;
use patchecko::neural::net::TrainConfig;
use std::sync::OnceLock;

fn shared_patchecko() -> &'static Patchecko {
    static P: OnceLock<Patchecko> = OnceLock::new();
    P.get_or_init(|| {
        let ds = corpus::build_dataset1(&Dataset1Config {
            num_libraries: 20,
            min_functions: 8,
            max_functions: 14,
            seed: 1,
            include_catalog: true,
        });
        let cfg = DetectorConfig {
            pairs_per_function: 12,
            train: TrainConfig { epochs: 40, batch: 256, lr: 1e-3, seed: 3, ..Default::default() },
            ..DetectorConfig::default()
        };
        let (det, history, metrics) = detector::train(&ds, &cfg);
        // The headline claims hold even at 1/5 scale.
        assert!(metrics.accuracy > 0.88, "detector accuracy {}", metrics.accuracy);
        assert!(metrics.auc > 0.92, "AUC {}", metrics.auc);
        assert_eq!(history.epochs.len(), cfg.train.epochs);
        Patchecko::new(det, PipelineConfig::default())
    })
}

fn shared_device() -> &'static corpus::DeviceBuild {
    static D: OnceLock<corpus::DeviceBuild> = OnceLock::new();
    D.get_or_init(|| {
        corpus::build_device(&corpus::android_things_spec(), &corpus::full_catalog(), 0.06)
    })
}

fn shared_db() -> &'static corpus::VulnDb {
    static DB: OnceLock<corpus::VulnDb> = OnceLock::new();
    DB.get_or_init(|| corpus::build_vulndb(0, 1))
}

#[test]
fn flagship_hybrid_detection_ranks_target_top3() {
    let p = shared_patchecko();
    let device = shared_device();
    let entry = shared_db().get("CVE-2018-9412").unwrap();
    let truth = device.truth_for("CVE-2018-9412").unwrap();
    let bin = device.image.binary(&truth.library).unwrap();

    let analysis = p.analyze_library(bin, entry, Basis::Vulnerable, &ScanCtx::default()).unwrap();
    assert!(analysis.scan.candidates.contains(&truth.function_index), "static stage keeps target");
    assert!(analysis.dynamic.validated.contains(&truth.function_index), "target survives envs");
    let rank = similarity::rank_of(&analysis.dynamic.ranking, truth.function_index).unwrap();
    assert!(rank <= 3, "paper: top-3 100% of the time, got {rank}");
    // Dynamic pruning is monotone.
    assert!(analysis.dynamic.validated.len() <= analysis.scan.candidates.len());
}

#[test]
fn patch_verdicts_for_representative_cves() {
    let p = shared_patchecko();
    let device = shared_device();
    let db = shared_db();
    let diff = DifferentialConfig::default();

    // Flagship: present and vulnerable on Android Things.
    let (row, _) =
        eval::evaluate_patch_detection(p, db.get("CVE-2018-9412").unwrap(), device, &diff).unwrap();
    assert_eq!(row.detected_patched, Some(false));
    assert!(row.correct());

    // A patched 2017 CVE: verdict must flip.
    let (row, _) =
        eval::evaluate_patch_detection(p, db.get("CVE-2017-13232").unwrap(), device, &diff).unwrap();
    assert_eq!(row.detected_patched, Some(true));
    assert!(row.correct());

    // The paper's single Table VIII miss: one-integer patch, reported
    // "patched" against a not-patched ground truth via the tie-break.
    let (row, verdict) =
        eval::evaluate_patch_detection(p, db.get("CVE-2018-9470").unwrap(), device, &diff).unwrap();
    assert_eq!(row.detected_patched, Some(true), "the deliberate miss");
    assert!(!row.truth_patched);
    assert!(!row.correct());
    assert!(verdict.unwrap().tie_break, "9470 must be decided by the tie-break");
}

#[test]
fn heavy_patch_misses_vulnerable_basis_but_not_patched_basis() {
    // The paper's CVE-2017-13209 behaviour (patched on Android Things with
    // a restructuring patch): the vulnerable-basis deep model misses the
    // target; the patched basis finds it.
    let p = shared_patchecko();
    let device = shared_device();
    let entry = shared_db().get("CVE-2017-13209").unwrap();
    let truth = device.truth_for("CVE-2017-13209").unwrap();
    assert!(truth.patched);
    let bin = device.image.binary(&truth.library).unwrap();

    let va = p.analyze_library(bin, entry, Basis::Vulnerable, &ScanCtx::default()).unwrap();
    assert!(
        !va.scan.candidates.contains(&truth.function_index),
        "vulnerable basis misses the heavily-patched target (Table VI row)"
    );
    let pa = p.analyze_library(bin, entry, Basis::Patched, &ScanCtx::default()).unwrap();
    assert!(
        pa.scan.candidates.contains(&truth.function_index),
        "patched basis finds it (Table VII row)"
    );
    let rank = similarity::rank_of(&pa.dynamic.ranking, truth.function_index).unwrap();
    assert!(rank <= 3);
}

#[test]
fn differential_engine_memmove_signature() {
    // The case study's key signal: the memmove import distinguishes the
    // vulnerable flagship build from the patched one.
    let p = shared_patchecko();
    let device = shared_device();
    let entry = shared_db().get("CVE-2018-9412").unwrap();
    let truth = device.truth_for("CVE-2018-9412").unwrap();
    let bin = device.image.binary(&truth.library).unwrap();
    let v = differential::detect_patch(
        p,
        entry,
        bin,
        truth.function_index,
        &DifferentialConfig::default(),
        &ScanCtx::default(),
    )
    .unwrap();
    assert!(v.signature.vuln_imports.contains(&"memmove".to_string()));
    assert!(!v.signature.patched_imports.contains(&"memmove".to_string()));
    assert!(v.signature.target_imports.contains(&"memmove".to_string()));
    assert!(!v.patched);
}

#[test]
fn detector_checkpoint_roundtrips_through_json() {
    let p = shared_patchecko();
    let json = serde_json::to_string(&p.detector).unwrap();
    let back: Detector = serde_json::from_str(&json).unwrap();
    // Same predictions after reload.
    let entry = shared_db().get("CVE-2018-9451").unwrap();
    let f = Patchecko::reference_features(entry, Basis::Vulnerable, &ScanCtx::default()).unwrap();
    let g = Patchecko::reference_features(entry, Basis::Patched, &ScanCtx::default()).unwrap();
    assert_eq!(p.detector.similarity(&f, &g), back.similarity(&f, &g));
}

#[test]
fn whole_image_audit_matches_ground_truth() {
    // The deployment flow: audit the full image with no ground truth, then
    // score against the held-out truth — accuracy must reach the paper's
    // ballpark even at test scale.
    let p = shared_patchecko();
    let device = shared_device();
    let db = shared_db();
    let report = eval::audit_image(
        p,
        db,
        &device.image,
        &patchecko::core::DifferentialConfig::default(),
        &ScanCtx::default(),
    )
    .unwrap();
    assert_eq!(report.findings.len(), 25);
    assert_eq!(report.device, "android_things_1.0");
    let mut correct = 0;
    for f in &report.findings {
        let truth = device.truth_for(&f.cve).unwrap();
        let verdict_patched = match f.status {
            patchecko::core::AuditStatus::Patched => Some(true),
            patchecko::core::AuditStatus::Vulnerable => Some(false),
            patchecko::core::AuditStatus::NotFound | patchecko::core::AuditStatus::Error => None,
        };
        if verdict_patched == Some(truth.patched) {
            correct += 1;
        }
    }
    assert!(correct >= 21, "audit accuracy {correct}/25");
    // The markdown report is complete.
    let md = report.to_markdown();
    assert!(md.contains("CVE-2018-9412"));
    assert!(md.contains("Exposed to"));
}

#[test]
fn image_analysis_locates_best_match_in_right_library() {
    let p = shared_patchecko();
    let device = shared_device();
    let entry = shared_db().get("CVE-2018-9412").unwrap();
    let truth = device.truth_for("CVE-2018-9412").unwrap();
    let result =
        p.analyze_image(&device.image, entry, Basis::Vulnerable, &ScanCtx::default()).unwrap();
    assert_eq!(result.analyses.len(), device.image.binaries.len());
    let best = result.best.expect("flagship is present");
    assert_eq!(best.library, truth.library, "best match lands in the right library");
    assert_eq!(best.function_index, truth.function_index);
}

#[test]
fn exploit_channel_perfects_table8_at_test_scale() {
    // The §V-D ablation, as a regression test: with PoCs, every verdict on
    // the small device is correct, including CVE-2018-9470.
    let p = shared_patchecko();
    let device = shared_device();
    let db = shared_db();
    let cfg = patchecko::core::DifferentialConfig {
        use_exploit_channel: true,
        ..Default::default()
    };
    let (row, verdict) =
        eval::evaluate_patch_detection(p, db.get("CVE-2018-9470").unwrap(), device, &cfg).unwrap();
    assert!(row.correct(), "exploit channel resolves the tiny patch: {verdict:?}");
}

#[test]
fn cve_rows_are_internally_consistent() {
    let p = shared_patchecko();
    let device = shared_device();
    for cve in ["CVE-2018-9451", "CVE-2017-13208", "CVE-2018-9498"] {
        let entry = shared_db().get(cve).unwrap();
        let (row, analysis) = eval::evaluate_cve(p, entry, device, Basis::Vulnerable).unwrap();
        assert_eq!(row.tp + row.tn + row.fp + row.fn_, row.total as u32);
        assert_eq!(row.tp + row.fn_, 1);
        assert_eq!(row.execution, analysis.dynamic.validated.len());
        assert!(row.fp_percent <= 100.0);
        if row.tp == 1 {
            assert!(row.ranking.is_some(), "{cve}: found targets must be ranked");
        }
    }
}
