//! `corpus_scan`: scanner-only streaming throughput. A ~10⁴-function
//! corpus, generated during set-up and held in memory, is streamed
//! through a fresh hub's cache lanes with top-K retrieval against the
//! 100-row featured reference pool (working set 64). One operation is
//! one working set: the up to 64 units (libraries) the stream holds at
//! once. Units come in two size clusters, so a per-unit median would sit
//! between them and track their mix rather than the scanner's speed; a
//! working set spans both.
//!
//! Latency comes from a pass-through feature source that stamps the start
//! of each unit's scan; the scan itself is exactly `ScanHub::scan_stream`
//! (the analyzer's streaming scan over the hub's store).

use crate::calib::Probe;
use crate::layers::{self, Replay};
use crate::replay::{self, Counts, Sources};
use crate::report::{Metrics, Outcome};
use crate::setup::{self, GenTimes};
use crate::spans::Recorder;
use crate::stats::{median, Passes};
use crate::{trace_file, Run, SETUP_REPEATS, TRACE_ROUNDS};
use corpus::StreamConfig;
use fwbin::format::Binary;
use patchecko_core::detector::Detector;
use patchecko_core::error::ScanError;
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::FeatureSource;
use patchecko_core::retrieval::{FunctionSignature, Retrieval, SignatureSet, DEFAULT_TOP_K};
use patchecko_core::stream::StreamScanReport;
use patchecko_scanhub::{ArtifactStore, CacheStats, ScanHub};
use scope::TelemetrySnapshot;
use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Instant;

/// Units held in memory at once by the streaming scan.
const WORKING_SET: usize = 64;
/// The retrieval gate: share of the exact scan's planted detections the
/// top-K scan must keep.
const RECALL_FLOOR: f64 = 0.99;

/// One match, in comparable form: (unit, library, function, reference,
/// probability bits).
type MatchKey = (usize, String, usize, usize, u32);

fn keys(report: &StreamScanReport) -> Vec<MatchKey> {
    report
        .matches
        .iter()
        .map(|m| {
            (
                m.unit,
                m.library.clone(),
                m.function,
                m.reference,
                m.probability.to_bits(),
            )
        })
        .collect()
}

/// Pass-through feature source recording when each unit's scan starts
/// (the streaming scan asks for a unit's features first).
struct Stamped<'a> {
    store: &'a ArtifactStore,
    starts: Mutex<Vec<Instant>>,
}

impl FeatureSource for Stamped<'_> {
    fn features_all(&self, bin: &Binary) -> Result<Vec<StaticFeatures>, ScanError> {
        self.starts.lock().expect("stamp lock").push(Instant::now());
        self.store.features_all(bin)
    }

    fn features_one(&self, bin: &Binary, idx: usize) -> Result<StaticFeatures, ScanError> {
        self.store.features_one(bin, idx)
    }

    fn signatures_all(&self, bin: &Binary, feats: &[StaticFeatures]) -> Vec<FunctionSignature> {
        self.store.signatures_all(bin, feats)
    }
}

struct Bench {
    detector: Detector,
    cfg: StreamConfig,
    units: Vec<Binary>,
    pool: Vec<StaticFeatures>,
    gen: GenTimes,
    digest: u64,
}

struct Pass {
    wall_s: f64,
    report: Result<StreamScanReport, ScanError>,
    /// Per working set: from its first unit's start to the next working
    /// set's (or the end of the scan).
    batch_ms: Vec<f64>,
    cache: CacheStats,
    telemetry: TelemetrySnapshot,
}

impl Bench {
    fn setup(seed: u64) -> Bench {
        let mut gen = GenTimes::default();
        let detector = setup::train_detector(&mut gen);
        let pool = setup::reference_pool(&corpus::build_vulndb(0, 1));
        let cfg = setup::corpus_config(seed);
        let units = setup::build_corpus(&cfg, &mut gen);
        let digest = setup::digest(&units);
        Bench {
            detector,
            cfg,
            units,
            pool,
            gen,
            digest,
        }
    }

    /// Working sets in one stream over the corpus: the operations of a pass.
    fn batches(&self) -> u64 {
        self.units.len().div_ceil(WORKING_SET) as u64
    }

    /// One streaming scan over the whole corpus through a fresh hub with
    /// `threads` pipeline threads.
    fn pass(&self, threads: usize) -> Pass {
        let units = self.units.clone();
        let hub = ScanHub::new(setup::analyzer(
            &self.detector,
            Retrieval::TopK { k: DEFAULT_TOP_K },
            threads,
        ));
        let stamped = Stamped {
            store: hub.store(),
            starts: Mutex::new(Vec::new()),
        };
        let global_before = scope::snapshot();
        let started = Instant::now();
        let report = hub
            .analyzer
            .scan_stream_with(units, &self.pool, WORKING_SET, &stamped);
        let ended = Instant::now();
        let starts = stamped.starts.into_inner().expect("stamp lock");
        let firsts = starts.iter().step_by(WORKING_SET);
        let nexts = starts.iter().skip(WORKING_SET).step_by(WORKING_SET);
        let batch_ms = firsts
            .zip(nexts.chain(std::iter::once(&ended)))
            .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
            .collect();
        Pass {
            wall_s: (ended - started).as_secs_f64(),
            report,
            batch_ms,
            cache: hub.stats(),
            telemetry: hub
                .registry()
                .snapshot()
                .merged(&scope::snapshot().since(&global_before)),
        }
    }

    /// Top-K keeps ≥ 99% of the exact scan's planted detections; the hub
    /// path equals the direct one; the working set bounds live units.
    /// Returns the matches every measured pass must reproduce.
    fn gate(&self) -> Result<Vec<MatchKey>, String> {
        let direct = |retrieval| {
            setup::analyzer(&self.detector, retrieval, setup::nproc())
                .scan_stream(self.units.clone(), &self.pool, WORKING_SET)
                .map_err(|e| format!("corpus gate: direct scan failed: {e}"))
        };
        let exact = direct(Retrieval::Exact)?;
        let topk = direct(Retrieval::TopK { k: DEFAULT_TOP_K })?;
        let hub = self
            .pass(setup::nproc())
            .report
            .map_err(|e| format!("corpus gate: hub scan failed: {e}"))?;
        if keys(&hub) != keys(&topk) {
            return Err("corpus gate: hub streaming scan differs from the direct scan".into());
        }
        if hub.peak_live > WORKING_SET {
            return Err(format!(
                "corpus gate: {} live units > working set",
                hub.peak_live
            ));
        }
        let flagged = |r: &StreamScanReport| -> HashSet<(usize, usize)> {
            r.matches.iter().map(|m| (m.unit, m.function)).collect()
        };
        let (exact_set, topk_set) = (flagged(&exact), flagged(&hub));
        let exact_true: Vec<_> = corpus::manifest(&self.cfg)
            .iter()
            .map(|p| (p.unit, p.function_index))
            .filter(|d| exact_set.contains(d))
            .collect();
        if exact_true.is_empty() {
            return Err("corpus gate: the exact scan found no planted CVE".into());
        }
        let kept = exact_true.iter().filter(|d| topk_set.contains(*d)).count();
        let recall = kept as f64 / exact_true.len() as f64;
        eprintln!(
            "[perfbench] corpus_scan: top-K keeps {kept}/{} planted detections",
            exact_true.len()
        );
        if recall < RECALL_FLOOR {
            return Err(format!("corpus gate: recall {recall:.4} < {RECALL_FLOOR}"));
        }
        Ok(keys(&hub))
    }
}

/// Run `corpus_scan`.
pub fn run(r: &Run) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut bench: Option<Bench> = None;
    let mut probe = Probe::new(setup::nproc());
    for _ in 0..SETUP_REPEATS {
        let previous = bench.take().map(|b| b.digest);
        let (b, wall_s) = probe.around(|| Bench::setup(r.seed));
        setup_s.push(wall_s);
        if previous.is_some_and(|d| d != b.digest) {
            return Err("set-up is not deterministic: corpus digests differ".into());
        }
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    eprintln!(
        "[perfbench] corpus_scan: input digest {:016x}",
        bench.digest
    );
    let reference = bench.gate()?;
    if r.trace {
        Ok(traced(r, &bench, &reference))
    } else {
        timed(r, &bench, &reference, median(&setup_s) * probe.scale())
    }
}

fn timed(r: &Run, bench: &Bench, reference: &[MatchKey], setup_s: f64) -> Result<Outcome, String> {
    let mut passes = Passes::default();
    let (mut attempted, mut correct) = (0u64, true);
    let mut probe = Probe::new(setup::nproc());
    let started = Instant::now();
    while !passes.enough(started.elapsed().as_secs_f64(), r.seconds) {
        let (p, _) = probe.around(|| bench.pass(setup::nproc()));
        attempted += bench.batches();
        let report = p
            .report
            .map_err(|e| format!("a measured streaming scan failed: {e}"))?;
        correct &= keys(&report) == reference;
        passes.push(
            p.batch_ms.len() as f64,
            report.functions as f64,
            p.wall_s,
            p.batch_ms,
        );
    }
    eprintln!("[perfbench] corpus_scan: {}", passes.summary());
    eprintln!("[perfbench] corpus_scan: {}", probe.summary());
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    passes.record(&mut m, probe.scale());
    m.set("peak_rss_mb", setup::peak_rss_mb());
    Ok(Outcome {
        correct,
        attempted,
        failed: 0,
        metrics: m,
    })
}

fn traced(r: &Run, bench: &Bench, reference: &[MatchKey]) -> Outcome {
    let mut m = Metrics::default();
    let (mut plain, mut traced_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut last = None;
    for _ in 0..TRACE_ROUNDS {
        plain.push(bench.pass(setup::nproc()).wall_s);
        scope::trace::enable();
        let p = {
            let _span = scope::SpanGuard::enter("bench.corpus_pass");
            bench.pass(setup::nproc())
        };
        scope::trace::disable();
        traced_s.push(p.wall_s);
        attempted += bench.batches();
        match &p.report {
            Ok(report) => correct &= keys(report) == reference,
            Err(_) => failed += bench.batches(),
        }
        last = Some(p);
    }
    let last = last.expect("at least one traced pass");
    m.set("trace_overhead", median(&traced_s) / median(&plain) - 1.0);
    layers::record_cache(&mut m, &last.cache);
    layers::record_telemetry(&mut m, &last.telemetry);
    layers::record_gen(&mut m, &bench.gen);

    // The layer replay, alternating with what it is held against: the
    // same streaming scan, untraced, on one thread.
    let mut rounds = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        let program = bench.pass(1);
        attempted += bench.batches();
        match &program.report {
            Ok(report) => correct &= keys(report) == reference,
            Err(_) => failed += bench.batches(),
        }
        let replay = layer_replay(bench);
        if replay.output != reference {
            eprintln!(
                "[perfbench] corpus_scan: the layer replay disagrees with the streaming scan"
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

/// The layer replay: the streaming scan's per-unit steps through a fresh
/// store, as a fresh hub would run them.
fn layer_replay(bench: &Bench) -> Replay<Vec<MatchKey>> {
    let analyzer = setup::analyzer(&bench.detector, Retrieval::TopK { k: DEFAULT_TOP_K }, 1);
    let detector = &analyzer.detector;
    let store = ArtifactStore::new();
    let stats = || store.stats();
    let src = Sources {
        features: &store,
        dynsrc: patchecko_core::pipeline::live_profiling(),
        stats: &stats,
    };
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let index = rec
        .span("retrieval", || {
            let sigs: Vec<_> = bench.pool.iter().map(FunctionSignature::of).collect();
            SignatureSet::build(&sigs)
        })
        .0;
    let mut replayed: Vec<MatchKey> = Vec::new();
    for (unit, bin) in bench.units.iter().enumerate() {
        let feats = replay::target_features(&mut rec, &src, bin, &mut counts);
        let before = rec.untimed(|| stats().sig_misses);
        let (sigs, id) = rec.span("cache", || store.signatures_all(bin, &feats));
        let missed = rec.untimed(|| stats().sig_misses) - before;
        if missed > 0 {
            let share = missed as f64 / feats.len().max(1) as f64;
            rec.probe_share(id, "retrieval", share, || {
                feats.iter().map(FunctionSignature::of).collect::<Vec<_>>()
            });
        }
        if feats.is_empty() {
            continue;
        }
        let pairs = rec
            .span("retrieval", || {
                let mut pairs: Vec<(u32, u32)> = Vec::new();
                for (j, sig) in sigs.iter().enumerate() {
                    pairs.extend(
                        index
                            .candidates(sig, DEFAULT_TOP_K)
                            .into_iter()
                            .map(|r| (r, j as u32)),
                    );
                }
                pairs
            })
            .0;
        let (probs, best_ref) = rec
            .span("nn", || {
                let scores = detector.classify_pairs(&bench.pool, &feats, &pairs);
                replay::fold_scores(
                    pairs
                        .iter()
                        .zip(&scores)
                        .map(|(&(r, j), &s)| ((r as usize, j as usize), s)),
                    feats.len(),
                )
            })
            .0;
        counts.nn_pairs += pairs.len() as u64;
        for (f, p) in probs.iter().enumerate() {
            if *p >= detector.threshold {
                replayed.push((unit, bin.lib_name.clone(), f, best_ref[f], p.to_bits()));
            }
        }
    }
    Replay::finish(rec, counts, replayed)
}
