//! Tables IV and V: top-10 similarity rankings for CVE-2018-9412 on
//! Android Things — Table IV searches with the vulnerable reference, Table
//! V with the patched reference.
//!
//! The paper's reading: the true function (`removeUnsynchronization`) tops
//! the vulnerable-basis ranking with a clear gap (34.7 vs 68.1) and comes a
//! close second on the patched basis (65.6) because the device carries the
//! unpatched version.
//!
//! ```text
//! cargo run --release -p patchecko-bench --bin table45_rankings
//! ```

use patchecko_bench::{build, write_json, HarnessOpts, Table};
use patchecko_core::pipeline::{Basis, ScanCtx};

#[derive(serde::Serialize)]
struct RankRow {
    rank: usize,
    candidate: String,
    distance: f64,
    ground_truth: String,
    is_target: bool,
}

fn main() {
    let opts = HarnessOpts::parse();
    let ev = build(&opts);
    let device = &ev.devices[0];
    let entry = ev.db.get("CVE-2018-9412").expect("flagship CVE");
    let truth = device.truth_for("CVE-2018-9412").expect("ground truth");
    let bin = device.image.binary(&truth.library).expect("libstagefright");

    let mut artifacts = std::collections::BTreeMap::new();
    for (label, basis) in
        [("Table IV (vulnerable basis)", Basis::Vulnerable), ("Table V (patched basis)", Basis::Patched)]
    {
        let analysis =
            ev.patchecko.analyze_library(bin, entry, basis, &ScanCtx::default()).unwrap();
        println!("\n{label}: top-10 ranking for CVE-2018-9412\n");
        let table = Table::new(&[("rank", 4), ("candidate", 14), ("sim", 9), ("ground truth", 42)]);
        let mut rows = Vec::new();
        for (i, r) in analysis.dynamic.ranking.iter().take(10).enumerate() {
            let name = device
                .ground_truth_name(&truth.library, r.function_index)
                .unwrap_or("?")
                .to_string();
            let is_target = r.function_index == truth.function_index;
            table.row(&[
                format!("{}", i + 1),
                format!("candidate_{}", r.function_index),
                format!("{:.1}", r.distance),
                format!("{}{}", name, if is_target { "  <== true target" } else { "" }),
            ]);
            rows.push(RankRow {
                rank: i + 1,
                candidate: format!("candidate_{}", r.function_index),
                distance: r.distance,
                ground_truth: name,
                is_target,
            });
        }
        if let Some(pos) =
            patchecko_core::rank_of(&analysis.dynamic.ranking, truth.function_index)
        {
            println!("\ntrue target ranked #{pos} of {}", analysis.dynamic.ranking.len());
        } else {
            println!("\ntrue target missing from ranking (N/A)");
        }
        artifacts.insert(label.to_string(), rows);
    }
    println!(
        "\npaper reference: Table IV ranks the true function #1 (sim 34.7, next 68.1); \
         Table V ranks it #2 (65.6) behind an incorrect #1 (32.8) because the \
         device carries the unpatched version"
    );

    write_json(&opts.out, "table45_rankings.json", &artifacts);
}
