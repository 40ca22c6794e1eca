//! Per-layer metrics from the two halves of a traced run: the replay's
//! self times and work counts, and the counters the program itself keeps
//! (cache stats, scope telemetry) over one traced end-to-end pass.

use crate::replay::Counts;
use crate::report::Metrics;
use crate::setup::GenTimes;
use crate::spans::{Attribution, Recorder};
use crate::stats::{attributed_share, ratio};
use patchecko_scanhub::CacheStats;
use scope::TelemetrySnapshot;

/// Replay layer (span name) → metric.
const LAYER_MS: &[(&str, &str)] = &[
    ("disasm", "disasm.ms"),
    ("features", "features.ms"),
    ("retrieval", "retrieval.ms"),
    ("nn", "nn.ms"),
    ("refs", "refs.ms"),
    ("fuzz", "fuzz.ms"),
    ("vm.load", "vm.load_ms"),
    ("vm.exec", "vm.exec_ms"),
    ("rank", "rank.ms"),
    ("diff", "diff.ms"),
    ("cache", "cache.lookup_ms"),
    ("cache.load", "cache.load_ms"),
    ("cache.save", "cache.save_ms"),
    ("wire.encode", "wire.encode_ms"),
    ("wire.decode", "wire.decode_ms"),
];

/// One layer replay: its attribution (taken when it ended), its spans,
/// its work counts and what it produced.
pub struct Replay<T> {
    /// Per-layer self times and the replay wall.
    pub attribution: Attribution,
    /// The spans, for the trace file.
    pub rec: Recorder,
    /// Work counts.
    pub counts: Counts,
    /// The replayed results, for comparison with the end-to-end ones.
    pub output: T,
}

impl<T> Replay<T> {
    /// Close a replay: its attribution is taken now.
    pub fn finish(rec: Recorder, counts: Counts, output: T) -> Replay<T> {
        Replay {
            attribution: rec.finish(),
            rec,
            counts,
            output,
        }
    }
}

/// Record the per-layer self times, work counts and residual of one of
/// several rounds. A round is an untraced, single-threaded program run of
/// the replayed work (its wall time, ms) followed at once by the replay,
/// so its share compares two runs made moments apart. The round with the
/// median share is reported: a burst of outside load in one run does not
/// set the residual. What the replay's layer spans do not cover of the
/// program run is unattributed. Returns that round's replay.
pub fn record_replays<T>(m: &mut Metrics, mut rounds: Vec<(f64, Replay<T>)>) -> Replay<T> {
    let share = |(program_ms, r): &(f64, Replay<T>)| {
        attributed_share(r.attribution.attributed_ms(), *program_ms)
    };
    rounds.sort_by(|a, b| share(a).total_cmp(&share(b)));
    let shares: Vec<f64> = rounds.iter().map(share).collect();
    eprintln!("[perfbench] attributed share per program-run/replay round {shares:.3?}");
    let (program_ms, chosen) = rounds.swap_remove(rounds.len() / 2);
    let (a, c) = (&chosen.attribution, &chosen.counts);
    for (layer, name) in LAYER_MS {
        m.set(name, a.ms(layer));
    }
    debug_assert!(
        a.layer_ms
            .keys()
            .all(|l| LAYER_MS.iter().any(|(k, _)| k == l)),
        "every replay layer maps to a metric"
    );
    m.set("replay.wall_ms", a.wall_ms);
    m.set("program.wall_ms", program_ms);
    m.set("unattributed_ms", a.unattributed_ms(program_ms));
    m.set(
        "attributed_share",
        attributed_share(a.attributed_ms(), program_ms),
    );
    m.set("disasm.functions", c.disasm_functions as f64);
    m.set("nn.pairs", c.nn_pairs as f64);
    m.set("vm.loads", c.vm_loads as f64);
    m.set("fuzz.envs", c.fuzz_envs as f64);
    m.set(
        "vm.validated_ratio",
        ratio(c.validated as f64, c.candidates as f64),
    );
    m.set("diff.calls", c.diff_calls as f64);
    chosen
}

/// Record the cache counters' movement over one end-to-end pass.
pub fn record_cache(m: &mut Metrics, d: &CacheStats) {
    m.set("cache.hits", d.hits as f64);
    m.set("cache.misses", d.misses as f64);
    m.set("cache.hit_ratio", d.hit_rate());
    m.set("cache.extractions", d.extractions as f64);
    m.set(
        "dyncache.hit_ratio",
        ratio(d.dyn_hits as f64, (d.dyn_hits + d.dyn_misses) as f64),
    );
    m.set(
        "cache.quarantined",
        (d.quarantined + d.dyn_quarantined + d.sig_quarantined) as f64,
    );
}

/// Record the program's own counters over one end-to-end pass.
pub fn record_telemetry(m: &mut Metrics, t: &TelemetrySnapshot) {
    m.set("vm.executions", t.counter("vm.executions") as f64);
    m.set("sched.attempts", t.counter("sched.attempts") as f64);
    m.set("sched.retries", t.counter("sched.retries") as f64);
    m.set("pool.tasks", t.counter("pool.tasks") as f64);
    let job = t.duration("span.sched.job");
    m.set(
        "sched.job_ms",
        job.map_or(0.0, |d| d.mean_ns() as f64 / 1e6),
    );
    let kept = t.counter("index.candidates") as f64;
    let pruned = t.counter("index.pairs_pruned") as f64;
    m.set("retrieval.pairs_kept", kept);
    m.set("retrieval.pairs_pruned", pruned);
    m.set("retrieval.keep_ratio", ratio(kept, kept + pruned));
}

/// Record the generator's set-up timings.
pub fn record_gen(m: &mut Metrics, g: &GenTimes) {
    m.set("gen.train_s", g.train_s);
    m.set("gen.image_s", g.image_s);
    m.set("gen.corpus_s", g.corpus_s);
}
