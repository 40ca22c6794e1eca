//! Dynamic-lane speedups: cold vs warm whole-image audits through the
//! scanhub cache.
//!
//! The cold path pays everything — disassembly, feature extraction, the
//! NN forward pass, environment fuzzing, and every VM execution of the
//! pipeline's validation stage and the differential engine's three-way
//! comparisons. The warm path is the service's steady state: static
//! features *and* dynamic profiles are served from the content-addressed
//! store, so a re-audit performs zero VM executions (asserted below
//! before any timing runs, via the global `vm.executions` counter).

use criterion::{criterion_group, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use corpus::dataset1::Dataset1Config;
use corpus::vulndb::VulnDb;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::pipeline::{live_profiling, Patchecko, PipelineConfig, StaticScan};
use patchecko_scanhub::ScanHub;
use vm::loader::LoadedBinary;
use vm::trace::DynFeatures;

fn small_detector() -> Detector {
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
}

fn small_db() -> VulnDb {
    let mut db = corpus::build_vulndb(0, 1);
    db.entries.truncate(3);
    db
}

fn vm_executions() -> u64 {
    scope::snapshot().counter("vm.executions")
}

fn bench_dyncache(c: &mut Criterion) {
    let detector = small_detector();
    // A production-sized fuzz budget: the cold path pays environment
    // generation and per-candidate execution in full, the warm path
    // serves all of it from the dynamic lane.
    let analyzer = || {
        let cfg = PipelineConfig {
            fuzz: vm::FuzzConfig { rounds: 1500, num_envs: 10, ..vm::FuzzConfig::default() },
            ..PipelineConfig::default()
        };
        Patchecko::new(detector.clone(), cfg)
    };
    let db = small_db();
    let device =
        corpus::build_device(&corpus::android_things_spec(), &corpus::full_catalog(), 0.05);
    let image = &device.image;
    let diff = DifferentialConfig::default();

    // Correctness gate before any timing: a warm re-audit must be
    // VM-free and bit-identical to the cold audit it was warmed by.
    let warm_hub = ScanHub::with_registry(analyzer(), scope::global_shared());
    let cold_report = warm_hub.audit_tenant(&db, image, &diff, "").unwrap();
    let executed = vm_executions();
    let warm_report = warm_hub.audit_tenant(&db, image, &diff, "").unwrap();
    assert_eq!(vm_executions(), executed, "warm re-audit must perform zero VM executions");
    assert_eq!(
        serde_json::to_string(&cold_report).unwrap(),
        serde_json::to_string(&warm_report).unwrap(),
        "the dynamic cache must not change audit results"
    );

    // Cold: every iteration starts from an empty store — full extraction,
    // fuzzing, and per-candidate VM execution.
    c.bench_function("dyncache/audit_cold", |b| {
        b.iter_batched(
            || ScanHub::new(analyzer()),
            |hub| black_box(hub.audit_tenant(&db, image, &diff, "").unwrap()),
            BatchSize::SmallInput,
        )
    });

    // Warm: the steady state — cache lookups plus the NN forward pass.
    c.bench_function("dyncache/audit_warm", |b| {
        b.iter(|| black_box(warm_hub.audit_tenant(&db, image, &diff, "").unwrap()))
    });

    bench_dyn_stage(c, &detector, &device);
}

/// Dynamic-stage isolation: the engine-rework headline. Both engines run
/// the identical cold dynamic stage — environment fuzzing, reference
/// profiling, candidate validation + profiling — against the same target/
/// reference pair and the production fuzz budget. Bitwise profile identity
/// is asserted here, before any timing, so the recorded speedup is between
/// two provably equivalent implementations.
fn bench_dyn_stage(c: &mut Criterion, detector: &Detector, device: &corpus::device::DeviceBuild) {
    let full_db = corpus::build_vulndb(0, 1);
    let entry = full_db.get("CVE-2018-9412").unwrap();
    let truth = device.truth_for("CVE-2018-9412").unwrap();
    let bin = device.image.binary(&truth.library).unwrap();
    let target = Arc::new(LoadedBinary::load(bin.clone()).unwrap());
    let reference = Arc::new(LoadedBinary::load(entry.vulnerable_bin.clone()).unwrap());
    let n = target.function_count();
    let scan = StaticScan {
        library: truth.library.clone(),
        total: n,
        probs: vec![0.5; n],
        candidates: (0..n).collect(),
        best_ref: vec![0; n],
        seconds: 0.0,
    };
    let pipeline_for = |engine: vm::Engine| {
        let cfg = PipelineConfig {
            fuzz: vm::FuzzConfig { rounds: 1500, num_envs: 10, ..vm::FuzzConfig::default() },
            vm: vm::VmConfig { engine, ..vm::VmConfig::default() },
            ..PipelineConfig::default()
        };
        Patchecko::new(detector.clone(), cfg)
    };
    let fast = pipeline_for(vm::Engine::Fast);
    let interp = pipeline_for(vm::Engine::Interp);
    let dynsrc = live_profiling();

    // Correctness gate before any timing: both engines must produce
    // bitwise-identical dynamic analyses (floats compared by bit pattern).
    let a = fast.dynamic_stage(&target, &scan, &reference, &dynsrc);
    let b = interp.dynamic_stage(&target, &scan, &reference, &dynsrc);
    let bits = |fs: &[DynFeatures]| -> Vec<Vec<u64>> {
        fs.iter().map(|f| f.0.iter().map(|x| x.to_bits()).collect()).collect()
    };
    assert_eq!(a.envs, b.envs, "engines must fuzz identical environment sets");
    assert_eq!(a.validated, b.validated, "engines must validate identical candidate sets");
    assert_eq!(
        bits(&a.reference_profile),
        bits(&b.reference_profile),
        "engines must produce bitwise-identical reference profiles"
    );
    for ((ca, fa), (cb, fb)) in a.profiles.iter().zip(&b.profiles) {
        assert_eq!((ca, bits(fa)), (cb, bits(fb)), "engines must produce bitwise-identical profiles");
    }
    assert_eq!(
        a.ranking.iter().map(|r| (r.function_index, r.distance.to_bits())).collect::<Vec<_>>(),
        b.ranking.iter().map(|r| (r.function_index, r.distance.to_bits())).collect::<Vec<_>>(),
        "engines must produce bitwise-identical rankings"
    );

    c.bench_function("dyncache/dyn_stage_cold_interp", |b| {
        b.iter(|| black_box(interp.dynamic_stage(&target, &scan, &reference, &dynsrc)))
    });
    c.bench_function("dyncache/dyn_stage_cold_fast", |b| {
        b.iter(|| black_box(fast.dynamic_stage(&target, &scan, &reference, &dynsrc)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dyncache
}

fn main() {
    benches();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dyncache.json");
    criterion::write_json_summary(path).expect("write BENCH_dyncache.json");
    println!("wrote {path}");
    // The warm hub recorded its hit/miss ledger and the vm.executions
    // chokepoint into the global scope registry; show the combined view.
    patchecko_bench::print_telemetry("bench_dyncache");
}
