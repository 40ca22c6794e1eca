//! Table III: dynamic feature vectors of the surviving candidate functions
//! for CVE-2018-9412 (`removeUnsynchronization`) on Android Things, with
//! the vulnerability-database reference function in the last row.
//!
//! The paper's signal: only the true candidate shares the reference's
//! branch/arithmetic frequency profile (features F13/F14) and anonymous-
//! region traffic (F18).
//!
//! ```text
//! cargo run --release -p patchecko-bench --bin table3_dynamic_profile
//! ```

use patchecko_bench::{build, write_json, HarnessOpts};
use patchecko_core::pipeline::{Basis, ScanCtx};
use vm::loader::LoadedBinary;

#[derive(serde::Serialize)]
struct ProfileRow {
    candidate: String,
    ground_truth: String,
    features: Vec<f64>,
}

fn main() {
    let opts = HarnessOpts::parse();
    let ev = build(&opts);
    let device = &ev.devices[0]; // Android Things
    let entry = ev.db.get("CVE-2018-9412").expect("flagship CVE in database");
    let truth = device.truth_for("CVE-2018-9412").expect("ground truth");
    let bin = device.image.binary(&truth.library).expect("libstagefright");

    let analysis =
        ev.patchecko.analyze_library(bin, entry, Basis::Vulnerable, &ScanCtx::default()).unwrap();
    eprintln!(
        "[table3] candidates {} -> validated {}",
        analysis.scan.candidates.len(),
        analysis.dynamic.validated.len()
    );

    // Reference profile (averaged over environments for display, like the
    // paper's single row per candidate).
    let avg = |envs: &[vm::DynFeatures]| -> Vec<f64> {
        if envs.is_empty() {
            return vec![0.0; vm::NUM_DYN_FEATURES];
        }
        let mut out = vec![0.0; vm::NUM_DYN_FEATURES];
        for e in envs {
            for (o, v) in out.iter_mut().zip(e.as_slice()) {
                *o += v;
            }
        }
        out.iter_mut().for_each(|v| *v /= envs.len() as f64);
        out
    };

    let mut rows: Vec<ProfileRow> = Vec::new();
    for (cand, profile) in &analysis.dynamic.profiles {
        let marker = if *cand == truth.function_index { " <== true target" } else { "" };
        rows.push(ProfileRow {
            candidate: format!("candidate_{cand}{marker}"),
            ground_truth: device
                .ground_truth_name(&truth.library, *cand)
                .unwrap_or("?")
                .to_string(),
            features: avg(profile),
        });
    }
    // Reference row (the paper's "Vulnerable function" last row) — the
    // device-architecture reference build, as the dynamic stage uses.
    let reference =
        LoadedBinary::load(entry.reference_for(bin.arch, false)).expect("reference loads");
    let envs = ev.patchecko.make_environments(&reference);
    let ref_profile: Vec<vm::DynFeatures> = envs
        .iter()
        .map(|e| reference.run_any(0, e, &ev.patchecko.config.vm).features)
        .collect();
    rows.push(ProfileRow {
        candidate: "Vulnerable function".into(),
        ground_truth: entry.entry.function.clone(),
        features: avg(&ref_profile),
    });

    println!("\nTable III: dynamic feature profile for CVE-2018-9412 candidates\n");
    print!("{:<28}", "Candidate");
    for i in 1..=vm::NUM_DYN_FEATURES {
        print!("{:>7}", format!("F{i}"));
    }
    println!();
    println!("{}", "-".repeat(28 + 7 * vm::NUM_DYN_FEATURES));
    for r in &rows {
        print!("{:<28}", r.candidate);
        for v in &r.features {
            print!("{:>7.1}", v);
        }
        println!();
    }
    println!("\nfeature key:");
    for (i, name) in vm::DYN_FEATURE_NAMES.iter().enumerate() {
        println!("  F{:<3} {name}", i + 1);
    }
    println!(
        "paper reference: only the true candidate matches the reference's \
         F13/F14 branch/arith frequencies and F18 anon traffic (Table III)"
    );

    write_json(&opts.out, "table3_dynamic_profile.json", &rows);
}
