//! `audit_cold` and `audit_warm`: `ScanHub::batch_audit` over both device
//! images × the featured CVEs × both bases.
//!
//! A cold pass opens the hub on an empty cache directory; a warm pass
//! opens it on the directory written during set-up (the load is timed).
//! Both end with `persist`. One operation is one batch job.

use crate::calib::Probe;
use crate::layers::{self, Replay};
use crate::replay::{self, Counts, Sources};
use crate::report::{Metrics, Outcome};
use crate::setup::{self, GenTimes};
use crate::spans::Recorder;
use crate::stats::{median, Passes};
use crate::{trace_file, Run, SETUP_REPEATS, TRACE_ROUNDS};
use corpus::VulnDb;
use fwbin::FirmwareImage;
use patchecko_core::detector::Detector;
use patchecko_core::dynsource::DynProfileSource;
use patchecko_core::pipeline::Basis;
use patchecko_core::retrieval::Retrieval;
use patchecko_scanhub::schedule::{full_schedule, JobOutcome, JobSpec};
use patchecko_scanhub::{ArtifactStore, BatchReport, ScanHub};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

struct Bench {
    detector: Detector,
    db: Arc<VulnDb>,
    images: Arc<Vec<FirmwareImage>>,
    jobs: Vec<JobSpec>,
    /// The cache directory warm passes open (`None` for cold passes).
    warm_dir: Option<PathBuf>,
    /// Where cold passes start from an empty cache.
    cold_dir: PathBuf,
    gen: GenTimes,
    digest: u64,
}

struct Pass {
    wall_s: f64,
    report: BatchReport,
}

fn vm_executions() -> u64 {
    scope::snapshot().counter("vm.executions")
}

/// The batch's job records with every timing field zeroed: the bytes a
/// cold and a warm pass must agree on.
fn masked(report: &BatchReport) -> String {
    let records: Vec<_> = report
        .records
        .iter()
        .cloned()
        .map(|mut r| {
            r.seconds = 0.0;
            r
        })
        .collect();
    serde_json::to_string(&records).expect("job records serialize")
}

impl Bench {
    fn setup(seed: u64, warm: bool, work: &Path) -> Bench {
        let mut gen = GenTimes::default();
        let detector = setup::train_detector(&mut gen);
        let images = setup::build_images(seed, &mut gen);
        let digest = setup::image_digest(&images);
        let db = corpus::build_vulndb(0, 1);
        let jobs = full_schedule(images.len(), &db, &[Basis::Vulnerable, Basis::Patched]);
        let mut bench = Bench {
            detector,
            db: Arc::new(db),
            images: Arc::new(images),
            jobs,
            warm_dir: None,
            cold_dir: work.join("cold"),
            gen,
            digest,
        };
        if warm {
            let dir = work.join("warm");
            bench.pass(&dir, true, setup::nproc());
            bench.warm_dir = Some(dir);
        }
        bench
    }

    /// One batch through a hub opened on `dir` (emptied first when
    /// `fresh`), with `threads` pipeline threads and scheduler workers.
    fn pass(&self, dir: &Path, fresh: bool, threads: usize) -> Pass {
        if fresh {
            let _ = std::fs::remove_dir_all(dir);
        }
        let analyzer = setup::analyzer(&self.detector, Retrieval::Exact, threads);
        let started = Instant::now();
        let hub = Arc::new(ScanHub::with_cache_dir(analyzer, dir).expect("open the cache dir"));
        let report = hub.batch_audit(&self.images, &self.db, &self.jobs);
        hub.persist().expect("persist the cache");
        Pass {
            wall_s: started.elapsed().as_secs_f64(),
            report,
        }
    }

    /// One pass of the workload: cold from an empty directory, or warm
    /// from the set-up cache.
    fn measured(&self, threads: usize) -> Pass {
        match &self.warm_dir {
            Some(dir) => self.pass(dir, false, threads),
            None => self.pass(&self.cold_dir, true, threads),
        }
    }

    fn functions(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| self.images[j.image].total_functions() as f64)
            .sum()
    }

    /// Cold ≡ warm with timings masked, and a warm pass extracts nothing
    /// and executes no VM instruction. Returns the reference bytes every
    /// measured pass must reproduce.
    fn gate(&self, work: &Path) -> Result<String, String> {
        let dir = work.join("gate");
        let cold = self.pass(&dir, true, setup::nproc());
        let executed = vm_executions();
        let warm = self.pass(&dir, false, setup::nproc());
        let vm_moved = vm_executions() - executed;
        let reference = masked(&cold.report);
        if masked(&warm.report) != reference {
            return Err("audit gate: warm batch report differs from the cold one".into());
        }
        let extractions = warm.report.cache_delta.extractions;
        if extractions != 0 || vm_moved != 0 {
            return Err(format!(
                "audit gate: warm pass did {extractions} extractions and {vm_moved} VM executions"
            ));
        }
        if let Some(dir) = &self.warm_dir {
            if masked(&self.pass(dir, false, setup::nproc()).report) != reference {
                return Err("audit gate: set-up cache serves a different report".into());
            }
        }
        Ok(reference)
    }
}

/// Run `audit_cold` (`warm == false`) or `audit_warm`.
pub fn run(r: &Run, warm: bool) -> Result<Outcome, String> {
    let work = setup::work_dir(&r.workload, r.seed);
    let mut setup_s = Vec::new();
    let mut bench: Option<Bench> = None;
    let mut probe = Probe::new(setup::nproc());
    for _ in 0..SETUP_REPEATS {
        let (b, wall_s) = probe.around(|| Bench::setup(r.seed, warm, &work));
        setup_s.push(wall_s);
        if bench.as_ref().is_some_and(|prev| prev.digest != b.digest) {
            return Err("set-up is not deterministic: image digests differ".into());
        }
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    eprintln!(
        "[perfbench] {}: input digest {:016x}",
        r.workload, bench.digest
    );
    let reference = bench.gate(&work)?;
    let outcome = if r.trace {
        traced(r, &bench, &reference, &work)
    } else {
        timed(r, &bench, &reference, median(&setup_s) * probe.scale())
    };
    let _ = std::fs::remove_dir_all(&work);
    Ok(outcome)
}

fn timed(r: &Run, bench: &Bench, reference: &str, setup_s: f64) -> Outcome {
    let jobs = bench.jobs.len() as f64;
    let functions = bench.functions();
    let mut passes = Passes::default();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut probe = Probe::new(setup::nproc());
    let started = Instant::now();
    while !passes.enough(started.elapsed().as_secs_f64(), r.seconds) {
        let (p, _) = probe.around(|| bench.measured(setup::nproc()));
        attempted += p.report.records.len() as u64;
        failed += p.report.failed() as u64;
        correct &= masked(&p.report) == reference;
        let latency = p.report.records.iter().map(|j| j.seconds * 1e3).collect();
        passes.push(jobs, functions, p.wall_s, latency);
    }
    eprintln!("[perfbench] {}: {}", r.workload, passes.summary());
    eprintln!("[perfbench] {}: {}", r.workload, probe.summary());
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    passes.record(&mut m, probe.scale());
    m.set("peak_rss_mb", setup::peak_rss_mb());
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    }
}

fn traced(r: &Run, bench: &Bench, reference: &str, work: &Path) -> Outcome {
    let mut m = Metrics::default();
    let (mut plain, mut traced_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut last = None;
    for _ in 0..TRACE_ROUNDS {
        plain.push(bench.measured(setup::nproc()).wall_s);
        scope::trace::enable();
        let p = {
            let _span = scope::SpanGuard::enter("bench.audit_pass");
            bench.measured(setup::nproc())
        };
        scope::trace::disable();
        traced_s.push(p.wall_s);
        attempted += p.report.records.len() as u64;
        failed += p.report.failed() as u64;
        correct &= masked(&p.report) == reference;
        last = Some(p);
    }
    let last = last.expect("at least one traced pass");
    m.set("trace_overhead", median(&traced_s) / median(&plain) - 1.0);
    layers::record_cache(&mut m, &last.report.cache_delta);
    if let Some(t) = &last.report.telemetry {
        layers::record_telemetry(&mut m, t);
    }
    let pass_dir = bench
        .warm_dir
        .clone()
        .unwrap_or_else(|| bench.cold_dir.clone());
    m.set("cache.bytes", setup::dir_bytes(&pass_dir) as f64);
    layers::record_gen(&mut m, &bench.gen);

    // The layer replay, alternating with what it is held against: the
    // same pass, untraced, on one thread (hub open, batch and persist).
    let e2e: Vec<_> = last.report.records.iter().map(|j| &j.outcome).collect();
    let e2e = serde_json::to_string(&e2e).ok();
    let mut rounds = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        let program = bench.measured(1);
        attempted += program.report.records.len() as u64;
        failed += program.report.failed() as u64;
        correct &= masked(&program.report) == reference;
        let replay = layer_replay(bench, work);
        if serde_json::to_string(&replay.output).ok() != e2e {
            eprintln!(
                "[perfbench] {}: the layer replay disagrees with the batch",
                r.workload
            );
            correct = false;
        }
        rounds.push((program.wall_s * 1e3, replay));
    }
    m.set("failed_share", failed as f64 / attempted.max(1) as f64);
    let replay = layers::record_replays(&mut m, rounds);
    scope::trace::enable();
    replay.rec.export_trace();
    scope::trace::disable();
    trace_file(r);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    }
}

/// The layer replay, single-threaded, over the same schedule and the
/// same cache state a measured pass starts from.
fn layer_replay(bench: &Bench, work: &Path) -> Replay<Vec<JobOutcome>> {
    let empty = work.join("replay-empty");
    let _ = std::fs::remove_dir_all(&empty);
    let source_dir = bench.warm_dir.clone().unwrap_or(empty);
    let analyzer = setup::analyzer(&bench.detector, Retrieval::Exact, 1);
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let store = Arc::new(
        rec.span("cache.load", || ArtifactStore::load(&source_dir))
            .0
            .expect("load"),
    );
    let stats = || store.stats();
    let src = Sources {
        features: &*store,
        dynsrc: Arc::clone(&store) as Arc<dyn DynProfileSource>,
        stats: &stats,
    };
    let mut replayed = Vec::new();
    for spec in &bench.jobs {
        let entry = bench.db.get(&spec.cve).expect("scheduled CVEs exist");
        let image = &bench.images[spec.image];
        let i = replay::replay_image(
            &mut rec,
            &analyzer,
            image,
            entry,
            spec.basis,
            &src,
            &mut counts,
        );
        replayed.push(JobOutcome::Completed {
            candidates: i.candidates,
            validated: i.validated,
            best: i.best,
        });
    }
    rec.span("cache.save", || store.save(&work.join("replay-save")))
        .0
        .expect("save");
    Replay::finish(rec, counts, replayed)
}
