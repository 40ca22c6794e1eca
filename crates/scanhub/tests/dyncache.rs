//! The dynamic-lane acceptance property: a warm re-audit performs ZERO VM
//! executions. Every environment set and dynamic profile — pipeline
//! validation, reference profiling, and the differential engine's
//! three-way comparisons — is served from the cache, observed through the
//! process-global `vm.executions` counter that `Vm::run` increments as its
//! single chokepoint.
//!
//! The counter is process-global, so the tests in this file serialize on a
//! local mutex; as an integration-test binary the file owns its process
//! and no other suite's VM runs can leak in.

use corpus::dataset1::Dataset1Config;
use corpus::vulndb::VulnDb;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::cancel::CancelToken;
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::dynsource::{DynProfile, DynProfileSource, EnvSet};
use patchecko_core::error::ScanError;
use patchecko_core::eval;
use patchecko_core::pipeline::{Patchecko, PipelineConfig, ScanCtx};
use patchecko_core::report::AuditReport;
use patchecko_scanhub::ScanHub;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use vm::exec::VmConfig;
use vm::fuzz::FuzzConfig;
use vm::loader::LoadedBinary;

/// Serializes the tests below: both read the global `vm.executions`
/// counter, which any concurrently running VM would perturb.
fn vm_counter_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

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

fn shared_device() -> &'static corpus::DeviceBuild {
    static DEV: OnceLock<corpus::DeviceBuild> = OnceLock::new();
    DEV.get_or_init(|| {
        corpus::build_device(&corpus::android_things_spec(), &corpus::full_catalog(), 0.05)
    })
}

fn small_db() -> VulnDb {
    let mut db = corpus::build_vulndb(0, 1);
    db.entries.truncate(3);
    db
}

fn vm_executions() -> u64 {
    scope::snapshot().counter("vm.executions")
}

#[test]
fn warm_reaudit_executes_zero_vm_runs() {
    let _guard = vm_counter_lock().lock().unwrap();
    let hub = ScanHub::new(Patchecko::new(shared_detector().clone(), PipelineConfig::default()));
    let db = small_db();
    let image = &shared_device().image;
    let diff = DifferentialConfig::default();

    let before_cold = vm_executions();
    let cold = hub.audit_tenant(&db, image, &diff, "").unwrap();
    let after_cold = vm_executions();
    assert!(after_cold > before_cold, "cold audit must actually execute on the VM");
    let stats_cold = hub.stats();
    assert!(stats_cold.dyn_misses > 0, "cold audit fills the dynamic lane");
    assert!(stats_cold.dyn_profiled > 0, "cold audit profiles live");

    let warm = hub.audit_tenant(&db, image, &diff, "").unwrap();
    assert_eq!(
        vm_executions(),
        after_cold,
        "warm re-audit must perform zero VM executions"
    );
    let delta = hub.stats().since(&stats_cold);
    assert_eq!(delta.dyn_misses, 0, "warm re-audit must not miss the dynamic lane");
    assert_eq!(delta.dyn_profiled, 0, "warm re-audit must not profile live");
    assert!(delta.dyn_hits > 0, "warm re-audit is served by the dynamic lane");

    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "the dynamic cache must not change audit results"
    );
}

#[test]
fn persisted_dyn_cache_serves_fresh_hub_with_zero_vm_runs() {
    let _guard = vm_counter_lock().lock().unwrap();
    let dir = std::env::temp_dir().join(format!("scanhub-dyncache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = small_db();
    let image = &shared_device().image;
    let diff = DifferentialConfig::default();
    let analyzer = || Patchecko::new(shared_detector().clone(), PipelineConfig::default());

    let cold_hub = ScanHub::with_cache_dir(analyzer(), &dir).unwrap();
    let cold = cold_hub.audit_tenant(&db, image, &diff, "").unwrap();
    assert!(cold_hub.persist().unwrap(), "cold audit produces new artifacts to persist");
    drop(cold_hub);

    // A fresh hub — fresh process in spirit — reads the same cache
    // directory and must answer the whole audit without touching the VM.
    let warm_hub = ScanHub::with_cache_dir(analyzer(), &dir).unwrap();
    assert!(warm_hub.stats().dyn_entries > 0, "persisted dynamic lane reloads");
    let before_warm = vm_executions();
    let warm = warm_hub.audit_tenant(&db, image, &diff, "").unwrap();
    assert_eq!(
        vm_executions(),
        before_warm,
        "an audit served from a persisted dynamic cache executes nothing"
    );
    let stats = warm_hub.stats();
    assert_eq!(stats.dyn_profiled, 0);
    assert_eq!(stats.dyn_misses, 0);
    assert!(stats.dyn_hits > 0);

    assert_eq!(
        serde_json::to_string(&cold).unwrap(),
        serde_json::to_string(&warm).unwrap(),
        "persisted dynamic cache must reproduce the cold report bitwise"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A profile source that refuses every call, as a service's circuit
/// breaker substitutes one to force static-only evidence.
struct RefusingProfiles;

impl DynProfileSource for RefusingProfiles {
    fn environments(
        &self,
        _: &LoadedBinary,
        _: &FuzzConfig,
        _: &VmConfig,
    ) -> Result<EnvSet, ScanError> {
        Err(ScanError::Injected { site: "test".into(), detail: "refused".into() })
    }

    fn profile(
        &self,
        _: &LoadedBinary,
        _: usize,
        _: &EnvSet,
        _: &VmConfig,
    ) -> Result<DynProfile, ScanError> {
        Err(ScanError::Injected { site: "test".into(), detail: "refused".into() })
    }
}

/// One row per `ScanCtx` field, each an audit of the same image through a
/// fresh hub's base-namespace (`""`) view with that one field varied:
/// - `features`/`profiles` from the view: byte-identical to the default
///   (live) context — the un-namespaced hub path changes no result;
/// - an already-expired `cancel`: typed `DeadlineExceeded` before any
///   extraction or VM execution;
/// - a refusing `profiles`: every located finding degrades to static
///   evidence, and the dynamic lane is left exactly as it was.
#[test]
fn every_scan_ctx_field_does_what_it_says() {
    let _guard = vm_counter_lock().lock().unwrap();
    let db = small_db();
    let image = &shared_device().image;
    let diff = DifferentialConfig::default();
    let analyzer = || Patchecko::new(shared_detector().clone(), PipelineConfig::default());
    let json = |r: &AuditReport| serde_json::to_string(r).unwrap();
    let direct = eval::audit_image(&analyzer(), &db, image, &diff, &ScanCtx::default()).unwrap();

    for row in ["view features + profiles", "expired cancel", "refusing profiles"] {
        let hub = ScanHub::new(analyzer());
        let view = Arc::new(hub.tenant_view(""));
        let vm_before = vm_executions();
        let ctx = match row {
            "expired cancel" => ScanCtx {
                cancel: CancelToken::with_budget(Duration::ZERO),
                ..ScanCtx::over(&view)
            },
            "refusing profiles" => {
                ScanCtx { profiles: Arc::new(RefusingProfiles), ..ScanCtx::over(&view) }
            }
            _ => ScanCtx::over(&view),
        };
        let result = eval::audit_image(&hub.analyzer, &db, image, &diff, &ctx);
        let stats = hub.stats();
        match row {
            "expired cancel" => {
                assert!(
                    matches!(result, Err(ScanError::DeadlineExceeded { budget_ms: 0 })),
                    "{row}: {result:?}"
                );
                assert_eq!(stats.extractions, 0, "{row}: nothing extracted");
                assert_eq!(vm_executions(), vm_before, "{row}: nothing executed");
            }
            "refusing profiles" => {
                let report = result.unwrap();
                let located: Vec<_> =
                    report.findings.iter().filter(|f| f.located.is_some()).collect();
                assert!(!located.is_empty(), "{row}: static evidence still locates targets");
                assert!(located.iter().all(|f| f.degraded), "{row}: {located:?}");
                assert!(stats.extractions > 0, "{row}: the static lane is served normally");
                assert_eq!(
                    (stats.dyn_hits, stats.dyn_misses, stats.dyn_profiled, stats.dyn_entries),
                    (0, 0, 0, 0),
                    "{row}: the dynamic lane is untouched"
                );
                assert_eq!(vm_executions(), vm_before, "{row}: nothing executed");
            }
            _ => {
                assert_eq!(json(&result.unwrap()), json(&direct), "{row}");
                let tenant = hub.audit_tenant(&db, image, &diff, "").unwrap();
                assert_eq!(json(&tenant), json(&direct), "{row}: ScanHub::audit_tenant(\"\")");
            }
        }
    }
}
