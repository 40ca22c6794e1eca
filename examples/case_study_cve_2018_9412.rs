//! The §IV case study: CVE-2018-9412, `ID3::removeUnsynchronization` in
//! `libstagefright`.
//!
//! ```text
//! cargo run --release --example case_study_cve_2018_9412
//! ```
//!
//! Walks the exact narrative of the paper's Implementation & Case-Study
//! section: show the vulnerable and patched source (Figure 6), extract
//! features, locate the candidate set with the deep model, fuzz the
//! reference function for execution environments, prune candidates by
//! execution, rank by dynamic Minkowski similarity (Tables III-V), and run
//! the differential engine to decide the patch is absent.

use patchecko::core::detector::{self, DetectorConfig};
use patchecko::core::differential::{self, DifferentialConfig};
use patchecko::core::pipeline::{Basis, Patchecko, PipelineConfig, ScanCtx};
use patchecko::core::similarity;
use patchecko::corpus::{self, catalog};
use patchecko::corpus::dataset1::Dataset1Config;
use patchecko::fwlang::pretty;
use patchecko::neural::net::TrainConfig;

fn main() {
    // --- Figure 6: the source-level view (unpadded cores for clarity) ---
    let (vuln_core, patched_core, _) = catalog::remove_unsynchronization();
    println!("=== Figure 6 (left): vulnerable removeUnsynchronization ===\n");
    println!("{}", pretty::function(&vuln_core));
    println!("=== Figure 6 (right): patched removeUnsynchronization ===\n");
    println!("{}", pretty::function(&patched_core));
    println!(
        "the patch removed the memmove and added one more if condition for\n\
         value checking — exactly the paper's description.\n"
    );

    // --- Train the detector ---
    println!("=== training the deep-learning detector ===");
    let ds = corpus::build_dataset1(&Dataset1Config {
        num_libraries: 20,
        min_functions: 8,
        max_functions: 14,
        seed: 1,
        include_catalog: true,
    });
    let (det, _, metrics) = detector::train(
        &ds,
        &DetectorConfig {
            pairs_per_function: 8,
            train: TrainConfig { epochs: 20, batch: 256, lr: 1e-3, seed: 7, ..Default::default() },
            ..DetectorConfig::default()
        },
    );
    println!("detector accuracy {:.1}% (paper: >93%)\n", metrics.accuracy * 100.0);

    // --- The target: Android Things 1.0's libstagefright, stripped ---
    let db = corpus::build_vulndb(0, 1);
    let entry = db.get("CVE-2018-9412").unwrap();
    let device = corpus::build_device(&corpus::android_things_spec(), &corpus::full_catalog(), 0.1);
    let truth = device.truth_for("CVE-2018-9412").unwrap();
    let bin = device.image.binary("libstagefright").unwrap();
    println!(
        "=== target: {} in {} ({} functions, stripped: {}) ===\n",
        truth.library,
        device.image.device,
        bin.function_count(),
        bin.is_stripped()
    );

    let patchecko = Patchecko::new(det, PipelineConfig::default());

    // --- Vulnerability detection by deep learning ---
    let analysis = patchecko
        .analyze_library(bin, entry, Basis::Vulnerable, &ScanCtx::default())
        .expect("scan failed");
    println!(
        "deep learning stage: {} candidate functions of {} total \
         (paper: 252 of 5,646)",
        analysis.scan.candidates.len(),
        analysis.scan.total
    );

    // --- Dynamic analysis engine ---
    println!(
        "execution validation: {} candidates survived the input validation \
         (paper: 38 of 252)",
        analysis.dynamic.validated.len()
    );
    println!("\n=== Table III analog: dynamic features of survivors (env-averaged) ===");
    print!("{:<18}", "candidate");
    for f in [1usize, 6, 7, 9, 10, 13, 14, 18, 20] {
        print!("{:>8}", format!("F{f}"));
    }
    println!();
    for (cand, profile) in &analysis.dynamic.profiles {
        let avg = |idx: usize| -> f64 {
            profile.iter().map(|p| p.feature(idx)).sum::<f64>() / profile.len().max(1) as f64
        };
        print!("{:<18}", format!("candidate_{cand}"));
        for f in [1usize, 6, 7, 9, 10, 13, 14, 18, 20] {
            print!("{:>8.1}", avg(f));
        }
        let marker = if *cand == truth.function_index { "  <== removeUnsynchronization" } else { "" };
        println!("{marker}");
    }

    // --- Calculating function similarity (Table IV) ---
    println!("\n=== Table IV analog: similarity ranking (vulnerable basis) ===");
    for (i, r) in analysis.dynamic.ranking.iter().take(10).enumerate() {
        let name = device.ground_truth_name(&truth.library, r.function_index).unwrap_or("?");
        println!("  #{:<2} candidate_{:<4} sim {:>8.1}   {}", i + 1, r.function_index, r.distance, name);
    }
    let rank = similarity::rank_of(&analysis.dynamic.ranking, truth.function_index);
    println!("true target rank: {rank:?} (paper: #1, sim 34.7 vs 68.1 for #2)");

    // --- Differential analysis engine ---
    println!("\n=== differential engine: is it patched? ===");
    let verdict = differential::detect_patch(
        &patchecko,
        entry,
        bin,
        truth.function_index,
        &DifferentialConfig::default(),
        &ScanCtx::default(),
    )
    .expect("differential analysis failed");
    println!(
        "dynamic similarity: {:.1} vs vulnerable ref, {:.1} vs patched ref \
         (paper: 34.7 vs 65.6)",
        verdict.dyn_dist_vulnerable, verdict.dyn_dist_patched
    );
    println!(
        "signature: target imports {:?}; vulnerable ref has memmove: {}, patched ref: {}",
        verdict.signature.target_imports,
        verdict.signature.vuln_imports.contains(&"memmove".to_string()),
        verdict.signature.patched_imports.contains(&"memmove".to_string()),
    );
    println!(
        "verdict: {} (ground truth: {}) — the paper concludes the same: \
         \"the target function is still vulnerable and not patched\"",
        if verdict.patched { "PATCHED" } else { "STILL VULNERABLE" },
        if truth.patched { "patched" } else { "vulnerable" }
    );
}
