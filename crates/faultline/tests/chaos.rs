//! The chaos suite: seeded fault injection against the scan pipeline's
//! resilience claims.
//!
//! Headline invariants (from the failure model in DESIGN.md §9):
//!
//! 1. **No panic escapes the scheduler** — worker deaths, including raw
//!    panics, are contained, classified, and retried.
//! 2. **The cache never serves corrupt features or signatures** —
//!    whatever happens to the on-disk layer, a reloaded store's answers are
//!    bit-identical to fresh extraction.
//! 3. **Transient faults leave no trace** — a faulty run whose injected
//!    faults were retried away produces bitwise-identical outcomes to a
//!    clean run.
//! 4. **The dynamic lane fails open to live execution** — sabotage of
//!    `dyn_artifacts.json` quarantines the damage, the next run falls
//!    back to live fuzzing/VM execution with results bitwise-identical
//!    to a cold run, and the following save self-heals the cache.
//!
//! Set `FAULTLINE_SEED=<n>` to pin every test to one seed (CI runs a
//! small fixed-seed matrix); unset, each test sweeps seeds drawn by
//! proptest. Each case appends its seed to a schedule log under
//! `CARGO_TARGET_TMPDIR` before acting, so a red run's last log line
//! identifies the schedule to replay.

use corpus::dataset1::Dataset1Config;
use corpus::vulndb::VulnDb;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::error::ScanError;
use patchecko_core::pipeline::{
    live_profiling, Basis, DirectExtraction, FeatureSource, Patchecko, PipelineConfig,
};
use patchecko_core::dynsource::DynProfileSource;
use patchecko_faultline::{
    disk, hook, image, CacheLane, DiskFault, FaultPlan, FaultyFeatureSource, SourceFaults,
};
use patchecko_scanhub::{full_schedule, ArtifactStore, JobOutcome, RetryPolicy, ScanHub};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::io::Write;
use std::sync::{Arc, OnceLock};

/// The pinned seed, when the suite runs in fixed-seed (CI matrix) mode.
fn pinned_seed() -> Option<u64> {
    std::env::var("FAULTLINE_SEED").ok().and_then(|s| s.parse().ok())
}

/// Seed strategy: the pinned seed, or a proptest sweep.
fn seeds() -> BoxedStrategy<u64> {
    match pinned_seed() {
        Some(seed) => proptest::strategy::boxed(Just(seed)),
        None => proptest::strategy::boxed(0u64..1_000_000),
    }
}

/// Case count: one per pinned seed, a sweep otherwise.
fn cases(sweep: u32) -> ProptestConfig {
    ProptestConfig { cases: if pinned_seed().is_some() { 1 } else { sweep }, ..Default::default() }
}

/// Append this case's schedule to the failure log *before* acting: if the
/// case panics, the last line names the schedule to replay.
fn log_case(test: &str, detail: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::create_dir_all(dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(format!("faultline-{test}.log")))
    {
        let _ = writeln!(f, "{detail}");
    }
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

fn hub_with(retry: RetryPolicy) -> ScanHub {
    let mut analyzer = Patchecko::new(shared_detector().clone(), PipelineConfig::default());
    analyzer.config.threads = Some(2);
    ScanHub::new(analyzer).with_retry_policy(retry)
}

/// Outcomes only (attempts and wall-clock legitimately differ between a
/// clean and a faulty-but-retried run).
fn outcome_fingerprint(report: &patchecko_scanhub::BatchReport) -> Vec<String> {
    report.records.iter().map(|r| serde_json::to_string(&r.outcome).unwrap()).collect()
}

/// One clean batch run, shared across cases — the identity baseline.
fn clean_fingerprint() -> &'static Vec<String> {
    static CLEAN: OnceLock<Vec<String>> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let hub = Arc::new(hub_with(RetryPolicy::no_retry()));
        let db = Arc::new(small_db());
        let images = Arc::new(vec![shared_device().image.clone()]);
        let jobs = full_schedule(images.len(), &db, &[Basis::Vulnerable]);
        let report = hub.batch_audit(&images, &db, &jobs);
        assert_eq!(report.failed(), 0, "the clean baseline must be clean");
        outcome_fingerprint(&report)
    })
}

fn compile(seed: u64) -> fwbin::format::Binary {
    let lib = fwlang::gen::Generator::new(seed % 64).library_sized("libchaos", 6);
    fwbin::compile_library(&lib, fwbin::isa::Arch::Arm64, fwbin::isa::OptLevel::O1).unwrap()
}

fn feature_bits(source: &impl FeatureSource, bin: &fwbin::format::Binary) -> Vec<Vec<u64>> {
    source
        .features_all(bin)
        .unwrap()
        .iter()
        .map(|f| f.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Retrieval signatures of every function of `bin`, served by `source`.
fn signatures(
    source: &impl FeatureSource,
    bin: &fwbin::format::Binary,
) -> Vec<patchecko_core::retrieval::FunctionSignature> {
    source.signatures_all(bin, &source.features_all(bin).unwrap())
}

/// A fast fuzzer config for the dynamic-lane properties: same determinism
/// guarantees as the default, a fraction of the executions.
fn small_fuzz() -> vm::FuzzConfig {
    vm::FuzzConfig { rounds: 40, num_envs: 3, ..vm::FuzzConfig::default() }
}

/// Bitwise image of a full dynamic pass over every function of `lb`
/// through `store`'s dynamic lane: per-function ok bits and exact feature
/// bit patterns.
fn dyn_pass_bits(
    store: &ArtifactStore,
    lb: &vm::LoadedBinary,
    fuzz: &vm::FuzzConfig,
    vmc: &vm::VmConfig,
) -> Vec<(Vec<bool>, Vec<Vec<u64>>)> {
    let envs = store.environments(lb, fuzz, vmc).unwrap();
    (0..lb.function_count())
        .map(|f| {
            let p = store.profile(lb, f, &envs, vmc).unwrap();
            let bits = p
                .features
                .iter()
                .map(|v| v.as_slice().iter().map(|x| x.to_bits()).collect())
                .collect();
            (p.ok, bits)
        })
        .collect()
}

proptest! {
    #![proptest_config(cases(4))]

    /// Invariants 1+3: transient worker deaths (typed errors) are retried
    /// away; every job completes and outcomes match the clean run
    /// bitwise.
    #[test]
    fn retried_worker_deaths_leave_no_trace(seed in seeds()) {
        log_case("retried_worker_deaths", &format!("seed {seed}: worker_deaths die_in=2 deaths=2"));
        let plan = FaultPlan::new(seed);
        let retry = RetryPolicy { max_attempts: 4, base_backoff_ms: 0, job_timeout_ms: None };
        let hub = Arc::new(hub_with(retry).with_fault_hook(hook::worker_deaths(plan, 2, 2)));
        let db = Arc::new(small_db());
        let images = Arc::new(vec![shared_device().image.clone()]);
        let jobs = full_schedule(images.len(), &db, &[Basis::Vulnerable]);
        let victims = hook::victims(&plan, &jobs, 2);

        let report = hub.batch_audit(&images, &db, &jobs);
        prop_assert_eq!(report.failed(), 0, "transient deaths must all be retried away");
        for &v in &victims {
            prop_assert_eq!(report.records[v].attempts, 3, "two deaths cost exactly two retries");
        }
        prop_assert_eq!(report.retried().count(), victims.len());
        prop_assert_eq!(&outcome_fingerprint(&report), clean_fingerprint(),
            "a faulty run whose faults were retried away must rank identically");
    }

    /// Invariants 1+3 again, with the rawest fault a worker can produce:
    /// a panic mid-dispatch. Nothing escapes the scheduler, and outcomes
    /// still match the clean run.
    #[test]
    fn panicking_workers_are_contained(seed in seeds()) {
        log_case("panicking_workers", &format!("seed {seed}: panicking_deaths die_in=2 deaths=1"));
        let plan = FaultPlan::new(seed);
        let retry = RetryPolicy { max_attempts: 3, base_backoff_ms: 0, job_timeout_ms: None };
        let hub = Arc::new(hub_with(retry).with_fault_hook(hook::panicking_deaths(plan, 2, 1)));
        let db = Arc::new(small_db());
        let images = Arc::new(vec![shared_device().image.clone()]);
        let jobs = full_schedule(images.len(), &db, &[Basis::Vulnerable]);
        let victims = hook::victims(&plan, &jobs, 2);

        // If a panic escaped the scheduler, this call would abort the test.
        let report = hub.batch_audit(&images, &db, &jobs);
        prop_assert_eq!(report.failed(), 0, "a panicked attempt retries like any transient fault");
        for &v in &victims {
            prop_assert_eq!(report.records[v].attempts, 2);
        }
        prop_assert_eq!(&outcome_fingerprint(&report), clean_fingerprint());
    }

    /// Worker deaths that outlast the retry budget fail *closed*: a typed,
    /// transient-classified error with the full attempt count — and the
    /// healthy jobs still match the clean run.
    #[test]
    fn permanent_deaths_fail_typed_and_contained(seed in seeds()) {
        log_case("permanent_deaths", &format!("seed {seed}: worker_deaths die_in=2 deaths=MAX"));
        let plan = FaultPlan::new(seed);
        let retry = RetryPolicy { max_attempts: 3, base_backoff_ms: 0, job_timeout_ms: None };
        let hub =
            Arc::new(hub_with(retry).with_fault_hook(hook::worker_deaths(plan, 2, u32::MAX)));
        let db = Arc::new(small_db());
        let images = Arc::new(vec![shared_device().image.clone()]);
        let jobs = full_schedule(images.len(), &db, &[Basis::Vulnerable]);
        let victims = hook::victims(&plan, &jobs, 2);

        let report = hub.batch_audit(&images, &db, &jobs);
        prop_assert_eq!(report.failed(), victims.len());
        let clean = clean_fingerprint();
        let fingerprint = outcome_fingerprint(&report);
        for (i, record) in report.records.iter().enumerate() {
            if victims.contains(&i) {
                match &record.outcome {
                    JobOutcome::Failed { error: ScanError::Injected { .. }, attempts: 3 } => {}
                    other => prop_assert!(false, "expected exhausted Injected, got {other:?}"),
                }
            } else {
                prop_assert_eq!(&fingerprint[i], &clean[i], "healthy jobs are untouched");
            }
        }
        prop_assert!(!report.failure_summary().is_empty() || victims.is_empty());
    }
}

proptest! {
    #![proptest_config(cases(16))]

    /// Invariant 2: whatever the saboteur does to the static or the
    /// signature lane's file — garbage, truncation, stale schema, checksum
    /// tampering — a reloaded store quarantines the damage and serves
    /// features and retrieval signatures bit-identical to fresh derivation.
    #[test]
    fn cache_never_serves_corruption(seed in seeds()) {
        let plan = FaultPlan::new(seed);
        let fault = DiskFault::chosen(&plan, seed);
        let lane = [CacheLane::Static, CacheLane::Signature][plan.pick("disk.lane", seed, 2)];
        log_case("cache_corruption", &format!("seed {seed}: {fault:?} on {lane:?} lane"));
        let dir = std::env::temp_dir()
            .join(format!("faultline-disk-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let bin = compile(seed);
        let store = ArtifactStore::new();
        let fresh = feature_bits(&DirectExtraction, &bin);
        let fresh_sigs = signatures(&DirectExtraction, &bin);
        prop_assert_eq!(&feature_bits(&store, &bin), &fresh);
        prop_assert_eq!(&signatures(&store, &bin), &fresh_sigs);
        store.save(&dir).unwrap();

        let what = disk::sabotage_lane(&dir, lane, fault, &plan).unwrap();
        let reloaded = ArtifactStore::load(&dir).unwrap();
        let stats = reloaded.stats();
        let quarantined = match lane {
            CacheLane::Signature => stats.sig_quarantined,
            _ => stats.quarantined,
        };
        prop_assert!(quarantined >= 1,
            "sabotage ({what}) of the {lane:?} lane must be noticed and quarantined");
        prop_assert!(!reloaded.quarantine_records().is_empty());
        prop_assert_eq!(&feature_bits(&reloaded, &bin), &fresh,
            "a sabotaged cache ({what}) must re-extract, bit-identical to fresh");
        prop_assert_eq!(&signatures(&reloaded, &bin), &fresh_sigs,
            "a sabotaged cache ({what}) must re-derive signatures, bit-identical to fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The loader survives arbitrary container damage: bit flips and
    /// truncation yield `Ok` or a typed `LoadError`, never a panic.
    #[test]
    fn loader_never_panics_on_corrupt_images(seed in seeds(), flips in 1usize..16) {
        log_case("loader_corruption", &format!("seed {seed}: {flips} bit flips + truncation"));
        let plan = FaultPlan::new(seed);
        let bin = compile(seed);
        for bytes in [
            image::corrupted_encoding(&bin, &plan, flips),
            image::truncated_encoding(&bin, &plan),
        ] {
            let outcome = std::panic::catch_unwind(|| {
                vm::LoadedBinary::from_bytes(&bytes).map(|_| ())
            });
            match outcome {
                Ok(Ok(())) => {} // flips landed somewhere harmless
                Ok(Err(_load_error)) => {} // typed rejection: the contract
                Err(_) => prop_assert!(false,
                    "loader panicked on corrupt image (seed {seed}, {flips} flips)"),
            }
        }
    }

    /// Transient extraction faults at the pipeline's feature seam surface
    /// as typed, retriable errors — and once the fault heals, the analysis
    /// is bit-identical to a clean run.
    #[test]
    fn healed_extraction_faults_leave_no_trace(seed in seeds()) {
        log_case("extraction_faults", &format!("seed {seed}: transient_errors 1-in-3"));
        let plan = FaultPlan::new(seed);
        let db = corpus::build_vulndb(0, 1);
        let entry = db.get("CVE-2018-9412").unwrap();
        let device = shared_device();
        let truth = device.truth_for("CVE-2018-9412").unwrap();
        let bin = device.image.binary(&truth.library).unwrap();
        let analyzer = Patchecko::new(shared_detector().clone(), PipelineConfig::default());

        let clean = analyzer
            .analyze_library_with(bin, entry, Basis::Vulnerable, &DirectExtraction, &live_profiling())
            .unwrap();

        let faulty =
            FaultyFeatureSource::new(DirectExtraction, plan, SourceFaults::transient_errors(3));
        let mut result = analyzer.analyze_library_with(bin, entry, Basis::Vulnerable, &faulty, &live_profiling());
        let mut retries = 0;
        while let Err(err) = result {
            prop_assert!(matches!(err, ScanError::Injected { .. }), "unexpected error {err}");
            prop_assert!(err.is_transient(), "injected faults must classify transient");
            retries += 1;
            prop_assert!(retries <= 64, "every fault heals, so retries must converge");
            result = analyzer.analyze_library_with(bin, entry, Basis::Vulnerable, &faulty, &live_profiling());
        }
        let healed = result.unwrap();
        prop_assert_eq!(&healed.scan.probs, &clean.scan.probs);
        prop_assert_eq!(&healed.scan.candidates, &clean.scan.candidates);
        prop_assert_eq!(&healed.dynamic.validated, &clean.dynamic.validated);
        prop_assert_eq!(&healed.dynamic.ranking, &clean.dynamic.ranking,
            "healed run must rank bit-identically to clean");
        prop_assert_eq!(healed.dynamic.confidence, clean.dynamic.confidence);
    }
}

proptest! {
    #![proptest_config(cases(6))]

    /// Invariant 4: whatever the saboteur does to `dyn_artifacts.json`,
    /// a reloaded store quarantines the damage and the next dynamic pass
    /// falls back to live VM execution, bitwise-identical to a cold run.
    /// The static lane never notices.
    #[test]
    fn dyn_cache_never_serves_corruption(seed in seeds()) {
        let plan = FaultPlan::new(seed);
        let fault = DiskFault::chosen(&plan, seed ^ 0xD15C);
        log_case("dyn_cache_corruption", &format!("seed {seed}: {fault:?} on dynamic lane"));
        let dir = std::env::temp_dir()
            .join(format!("faultline-dyndisk-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let lb = vm::LoadedBinary::load(compile(seed)).unwrap();
        let (fuzz, vmc) = (small_fuzz(), vm::VmConfig::default());
        let store = ArtifactStore::new();
        let cold = dyn_pass_bits(&store, &lb, &fuzz, &vmc);
        store.save(&dir).unwrap();

        let what = disk::sabotage_lane(&dir, CacheLane::Dynamic, fault, &plan).unwrap();
        let reloaded = ArtifactStore::load(&dir).unwrap();
        prop_assert!(reloaded.stats().dyn_quarantined >= 1,
            "dynamic-lane sabotage ({what}) must be noticed and quarantined");
        prop_assert_eq!(reloaded.stats().quarantined, 0,
            "static lane untouched by dynamic-lane damage");
        let warm = dyn_pass_bits(&reloaded, &lb, &fuzz, &vmc);
        prop_assert_eq!(&warm, &cold,
            "a sabotaged dynamic lane ({what}) must fall back to live execution, \
             bit-identical to a cold run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Engine chaos case through the VM seam: the dynamic lane is
    /// populated under the fast engine, sabotaged on disk, and the
    /// live-execution fallback re-runs under the reference *interpreter*.
    /// Results must still match the fast cold pass bit for bit: cached
    /// profiles are engine-invariant (the engine is deliberately not part
    /// of any cache key), so a mixed pass — some entries served from the
    /// surviving cache, some re-executed live by the other engine — is
    /// indistinguishable from a homogeneous one.
    #[test]
    fn dyn_cache_fallback_is_engine_invariant(seed in seeds()) {
        let plan = FaultPlan::new(seed);
        let fault = DiskFault::chosen(&plan, seed ^ 0xE491);
        log_case("dyn_cache_engine", &format!("seed {seed}: {fault:?} on dynamic lane"));
        let dir = std::env::temp_dir()
            .join(format!("faultline-dyneng-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let lb = vm::LoadedBinary::load(compile(seed)).unwrap();
        let fuzz = small_fuzz();
        let fast_cfg = vm::VmConfig { engine: vm::Engine::Fast, ..vm::VmConfig::default() };
        let interp_cfg = vm::VmConfig { engine: vm::Engine::Interp, ..vm::VmConfig::default() };
        let store = ArtifactStore::new();
        let cold_fast = dyn_pass_bits(&store, &lb, &fuzz, &fast_cfg);
        store.save(&dir).unwrap();

        let what = disk::sabotage_lane(&dir, CacheLane::Dynamic, fault, &plan).unwrap();
        let reloaded = ArtifactStore::load(&dir).unwrap();
        prop_assert!(reloaded.stats().dyn_quarantined >= 1,
            "dynamic-lane sabotage ({what}) must be noticed and quarantined");
        let warm_interp = dyn_pass_bits(&reloaded, &lb, &fuzz, &interp_cfg);
        prop_assert_eq!(&warm_interp, &cold_fast,
            "interpreter fallback after sabotage ({what}) must match the fast-engine \
             cold pass bit for bit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Invariant 4, second half: after the fallback pass repaired the lane
    /// in memory, the next save writes a clean document — a third process
    /// loads zero quarantines and serves everything from cache (no live
    /// profiling at all).
    #[test]
    fn sabotaged_dyn_cache_self_heals_on_next_save(seed in seeds()) {
        let plan = FaultPlan::new(seed);
        let fault = DiskFault::chosen(&plan, seed ^ 0x4EA1);
        log_case("dyn_cache_self_heal", &format!("seed {seed}: {fault:?} on dynamic lane"));
        let dir = std::env::temp_dir()
            .join(format!("faultline-dynheal-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let lb = vm::LoadedBinary::load(compile(seed)).unwrap();
        let (fuzz, vmc) = (small_fuzz(), vm::VmConfig::default());
        let store = ArtifactStore::new();
        let cold = dyn_pass_bits(&store, &lb, &fuzz, &vmc);
        store.save(&dir).unwrap();
        disk::sabotage_lane(&dir, CacheLane::Dynamic, fault, &plan).unwrap();

        // Second process: quarantine + live fallback repairs the lane in
        // memory, then persists the repaired state.
        let repaired = ArtifactStore::load(&dir).unwrap();
        dyn_pass_bits(&repaired, &lb, &fuzz, &vmc);
        repaired.save(&dir).unwrap();

        // Third process: the damage is gone and the whole pass is cache
        // hits — no quarantine, no live profiling.
        let healed = ArtifactStore::load(&dir).unwrap();
        prop_assert_eq!(healed.stats().dyn_quarantined, 0, "re-save heals the lane");
        let warm = dyn_pass_bits(&healed, &lb, &fuzz, &vmc);
        prop_assert_eq!(&warm, &cold);
        let stats = healed.stats();
        prop_assert_eq!(stats.dyn_profiled, 0, "healed warm pass performs no live profiling");
        prop_assert_eq!(stats.dyn_misses, 0, "healed warm pass is all hits");
        prop_assert_eq!(stats.dyn_hits, 1 + lb.function_count() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
