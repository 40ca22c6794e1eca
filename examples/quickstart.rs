//! Quickstart: find a known-vulnerable function in a stripped firmware
//! image, end to end, in under a minute.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The flow is the paper's Figure 1 at miniature scale: train the
//! deep-learning detector on a small Dataset I, build a stripped device
//! image that embeds the CVE-2018-9412 (`removeUnsynchronization`) analog,
//! statically scan the target library, prune candidates by executing them,
//! and rank the survivors by dynamic similarity.

use patchecko::core::detector::{self, DetectorConfig};
use patchecko::core::pipeline::{Basis, Patchecko, PipelineConfig, ScanCtx};
use patchecko::core::similarity;
use patchecko::corpus;
use patchecko::corpus::dataset1::Dataset1Config;
use patchecko::neural::net::TrainConfig;

fn main() {
    // 1. Dataset I: cross-platform training corpus (small here; use
    //    `num_libraries: 100` for the paper scale).
    println!("[1/4] building Dataset I and training the detector...");
    let ds = corpus::build_dataset1(&Dataset1Config {
        num_libraries: 20,
        min_functions: 8,
        max_functions: 14,
        seed: 1,
        include_catalog: true,
    });
    let (det, _history, metrics) = detector::train(
        &ds,
        &DetectorConfig {
            pairs_per_function: 8,
            train: TrainConfig { epochs: 20, batch: 256, lr: 1e-3, seed: 7, ..Default::default() },
            ..DetectorConfig::default()
        },
    );
    println!(
        "      detector: {:.1}% accuracy, AUC {:.3} on held-out pairs",
        metrics.accuracy * 100.0,
        metrics.auc
    );

    // 2. Dataset II + III: the CVE database and a stripped device image.
    println!("[2/4] building the vulnerability database and device image...");
    let db = corpus::build_vulndb(0, 1);
    let catalog = corpus::full_catalog();
    let device = corpus::build_device(&corpus::android_things_spec(), &catalog, 0.1);
    let entry = db.get("CVE-2018-9412").expect("flagship CVE");
    let truth = device.truth_for("CVE-2018-9412").expect("ground truth");
    let target = device.image.binary(&truth.library).expect("host library");
    println!(
        "      image {} has {} libraries, {} functions total",
        device.image.device,
        device.image.binaries.len(),
        device.image.total_functions()
    );

    // 3. The hybrid pipeline.
    println!("[3/4] running the hybrid analysis for CVE-2018-9412...");
    let patchecko = Patchecko::new(det, PipelineConfig::default());
    let analysis = patchecko
        .analyze_library(target, entry, Basis::Vulnerable, &ScanCtx::default())
        .expect("scan failed");
    println!(
        "      static stage: {} of {} functions flagged in {:.3}s",
        analysis.scan.candidates.len(),
        analysis.scan.total,
        analysis.scan.seconds
    );
    println!(
        "      dynamic stage: {} candidates survived execution validation in {:.3}s",
        analysis.dynamic.validated.len(),
        analysis.dynamic.seconds
    );

    // 4. The verdict.
    println!("[4/4] ranking:");
    for (i, r) in analysis.dynamic.ranking.iter().take(3).enumerate() {
        let marker = if r.function_index == truth.function_index { "  <== true target" } else { "" };
        println!("      #{} candidate_{} (distance {:.1}){}", i + 1, r.function_index, r.distance, marker);
    }
    match similarity::rank_of(&analysis.dynamic.ranking, truth.function_index) {
        Some(rank) => println!("\nfound the vulnerable function at rank {rank}."),
        None => println!("\nthe target was not ranked (unexpected at this scale)."),
    }
}
