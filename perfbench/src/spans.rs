//! Bench-side spans for the single-threaded layer replay.
//!
//! Every call the replay makes into a layer's public function runs inside
//! a [`Recorder::span`]. When one public call covers two layers — a cache
//! miss that extracts features, a dynamic-lane miss that runs the VM —
//! the inner layer's public function is re-run on the same inputs as a
//! [`Recorder::probe`]: a detached child whose duration is credited to the
//! inner layer and subtracted from the outer call's self time. Probe runs
//! and bench bookkeeping ([`Recorder::untimed`]) are excluded from the
//! replay's wall time. The `unattributed` line is not measured against
//! that wall (every replayed call sits in a span, so it would be ~0 by
//! construction) but against the program's own single-threaded time for
//! the same work: `program − Σ self`.
//!
//! Spans stay in memory; [`Recorder::export_trace`] hands them to scope's
//! Chrome-trace buffer when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the time is credited to.
    pub layer: &'static str,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
    /// The span this one's time is carved out of (probes only).
    pub parent: Option<usize>,
}

/// Per-layer self time of a finished replay.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self milliseconds per layer.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Replay wall milliseconds, probes and bookkeeping excluded.
    pub wall_ms: f64,
}

impl Attribution {
    /// Milliseconds credited to `layer` (0 when it never ran).
    pub fn ms(&self, layer: &str) -> f64 {
        self.layer_ms.get(layer).copied().unwrap_or(0.0)
    }

    /// Σ self time over every layer.
    pub fn attributed_ms(&self) -> f64 {
        self.layer_ms.values().sum()
    }

    /// Time of `program_ms` (the program's own run of the replayed work)
    /// that no layer span accounts for.
    pub fn unattributed_ms(&self, program_ms: f64) -> f64 {
        (program_ms - self.attributed_ms()).max(0.0)
    }
}

/// In-memory span recorder for one replay.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    excluded: Duration,
}

impl Recorder {
    /// Start a replay clock now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            excluded: Duration::ZERO,
        }
    }

    /// Run `f` as one span of `layer`; returns its output and the span id
    /// (for attaching probes).
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let started = Instant::now();
        let out = f();
        let dur = started.elapsed();
        self.spans.push(Span {
            layer,
            start: started - self.origin,
            dur,
            parent: None,
        });
        (out, self.spans.len() - 1)
    }

    /// Run `f` — the inner layer's public function on the inputs span
    /// `parent` already processed — and credit its time to `layer`,
    /// carving it out of `parent`'s self time.
    pub fn probe<T>(&mut self, parent: usize, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.probe_share(parent, layer, 1.0, f)
    }

    /// [`Recorder::probe`] when only `share` of the probed work ran inside
    /// the parent call (say, 3 of 16 functions missed the cache): the
    /// probe re-runs all of it and credits that share of its time.
    pub fn probe_share<T>(
        &mut self,
        parent: usize,
        layer: &'static str,
        share: f64,
        f: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        self.excluded += elapsed;
        let dur = elapsed.mul_f64(share.clamp(0.0, 1.0));
        self.spans.push(Span {
            layer,
            start: started - self.origin,
            dur,
            parent: Some(parent),
        });
        out
    }

    /// Run bench bookkeeping (counter reads, result assembly checks)
    /// outside the replay's wall time.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.excluded += started.elapsed();
        out
    }

    /// Per-layer self times and the replay wall, as of now.
    pub fn finish(&self) -> Attribution {
        let wall = self.origin.elapsed().saturating_sub(self.excluded);
        Attribution {
            layer_ms: self_times(&self.spans),
            wall_ms: ms(wall),
        }
    }

    /// Hand every span to scope's Chrome-trace buffer (no-op unless
    /// capture is enabled). Probes nest one level under their parent.
    pub fn export_trace(&self) {
        let base = self.origin.saturating_duration_since(scope::trace::epoch());
        let tid = scope::trace::thread_id();
        for s in &self.spans {
            scope::trace::record(scope::trace::TraceEvent {
                name: s.layer,
                detail: Some(
                    if s.parent.is_some() {
                        "replay probe"
                    } else {
                        "replay"
                    }
                    .into(),
                ),
                ts_us: (base + s.start).as_micros() as u64,
                dur_us: s.dur.as_micros() as u64,
                tid,
                depth: usize::from(s.parent.is_some()),
            });
        }
    }
}

/// Self time per layer: a span's duration minus the probes carved out of
/// it (clamped at zero when a probe ran slower than the call it models).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut carved = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            carved[p] += s.dur;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(carved) {
        *out.entry(s.layer).or_insert(0.0) += ms(s.dur.saturating_sub(c));
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ms: u64, dur_ms: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start: Duration::from_millis(start_ms),
            dur: Duration::from_millis(dur_ms),
            parent,
        }
    }

    #[test]
    fn probes_are_carved_out_of_their_parent() {
        let spans = vec![
            span("cache", 0, 10, None),
            span("disasm", 10, 4, Some(0)),
            span("features", 14, 3, Some(0)),
            span("nn", 17, 5, None),
            span("cache", 22, 2, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["cache"], 3.0 + 2.0);
        assert_eq!(t["disasm"], 4.0);
        assert_eq!(t["features"], 3.0);
        assert_eq!(t["nn"], 5.0);
        let a = Attribution {
            layer_ms: t,
            wall_ms: 20.0,
        };
        assert_eq!(a.attributed_ms(), 17.0);
        assert_eq!(a.unattributed_ms(25.0), 8.0);
        assert_eq!(a.unattributed_ms(16.0), 0.0);
    }

    #[test]
    fn a_slow_probe_clamps_its_parent_at_zero() {
        let t = self_times(&[span("cache", 0, 2, None), span("vm.exec", 2, 3, Some(0))]);
        assert_eq!(t["cache"], 0.0);
        assert_eq!(t["vm.exec"], 3.0);
    }

    #[test]
    fn probes_and_bookkeeping_leave_the_wall() {
        let mut rec = Recorder::new();
        let (_, id) = rec.span("cache", || std::thread::sleep(Duration::from_millis(5)));
        rec.probe(id, "disasm", || {
            std::thread::sleep(Duration::from_millis(20))
        });
        rec.untimed(|| std::thread::sleep(Duration::from_millis(20)));
        let a = rec.finish();
        assert!(
            a.wall_ms < 20.0,
            "probe and bookkeeping time excluded: {}",
            a.wall_ms
        );
        assert!(a.ms("disasm") >= 20.0);
    }
}
