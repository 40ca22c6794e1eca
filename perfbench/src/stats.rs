//! Order statistics, the per-pass accumulator of a timed run, and the
//! attribution ratio the report is built from.

use crate::report::Metrics;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the samples at or below it. `p` in (0, 100].
///
/// # Panics
/// On an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Whether percentile `p` of `n` samples has at least `beyond` samples
/// strictly above its rank — the condition for reporting it as a tail.
pub fn tail_supported(n: usize, p: f64, beyond: usize) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= beyond
}

/// Share of the program's time for the replayed work that the replay's
/// layer spans account for, clamped to [0, 1]. A zero program time means
/// nothing ran: nothing to attribute.
pub fn attributed_share(attributed_ms: f64, program_ms: f64) -> f64 {
    if program_ms <= 0.0 {
        return 0.0;
    }
    (attributed_ms / program_ms).clamp(0.0, 1.0)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Passes a timed run makes at least.
pub const MIN_PASSES: usize = 4;

/// Per-pass wall-clock measurements of one timed run. A pass is one batch
/// (audits), one corpus stream (`corpus_scan`) or one closed-loop round
/// (`scand_mixed`).
#[derive(Debug, Default)]
pub struct Passes {
    ops_rate: Vec<f64>,
    fn_rate: Vec<f64>,
    latency_ms: Vec<Vec<f64>>,
}

impl Passes {
    /// Record a pass: `ops` operations over `functions` functions in
    /// `wall_s` seconds, with each operation's latency.
    pub fn push(&mut self, ops: f64, functions: f64, wall_s: f64, latency_ms: Vec<f64>) {
        self.ops_rate.push(ops / wall_s);
        self.fn_rate.push(functions / wall_s);
        self.latency_ms.push(latency_ms);
    }

    fn latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.latency_ms.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Whether the run has measured enough: `seconds` elapsed, at least
    /// [`MIN_PASSES`] passes, and enough operations for a p90.
    pub fn enough(&self, elapsed_s: f64, seconds: f64) -> bool {
        let total = self.latency_ms.iter().map(Vec::len).sum();
        elapsed_s >= seconds && self.ops_rate.len() >= MIN_PASSES && tail_supported(total, 90.0, 10)
    }

    /// Set `ops_per_s`, `functions_per_s` (medians over every pass) and
    /// `op_ms_p50`/`op_ms_p90` (over every pass's operations), each taken
    /// to the reference host speed: times multiplied by `scale` (see
    /// [`crate::calib::Probe::scale`]), rates divided by it.
    pub fn record(&self, m: &mut Metrics, scale: f64) {
        m.set("ops_per_s", median(&self.ops_rate) / scale);
        m.set("functions_per_s", median(&self.fn_rate) / scale);
        let latency = self.latencies();
        m.set("op_ms_p50", percentile(&latency, 50.0) * scale);
        m.set("op_ms_p90", percentile(&latency, 90.0) * scale);
    }

    /// One stderr line: every pass's wall-clock rate and their median,
    /// and the sample count behind the percentiles.
    pub fn summary(&self) -> String {
        format!(
            "{} passes, wall-clock ops/s per pass {:.1?} (median {:.1}); {} latency samples",
            self.ops_rate.len(),
            self.ops_rate,
            median(&self.ops_rate),
            self.latencies().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_known_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 90.0), 180.0);
        assert_eq!(percentile(&w, 95.0), 190.0);
    }

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert!(tail_supported(100, 90.0, 10));
        assert!(!tail_supported(99, 90.0, 10));
        assert!(tail_supported(200, 95.0, 10));
        assert!(!tail_supported(199, 95.0, 10));
        assert!(tail_supported(20, 50.0, 10));
    }

    #[test]
    fn passes_report_medians_and_pooled_latency() {
        let mut p = Passes::default();
        p.push(10.0, 100.0, 1.0, vec![1.0; 50]);
        p.push(10.0, 100.0, 2.0, vec![50.0; 50]);
        assert!(!p.enough(1.0, 1.0), "too few passes");
        p.push(10.0, 100.0, 0.5, vec![2.0; 50]);
        p.push(10.0, 100.0, 4.0, vec![90.0; 50]);
        assert!(!p.enough(0.5, 1.0));
        assert!(p.enough(1.0, 1.0));
        let mut m = Metrics::default();
        p.record(&mut m, 1.0);
        assert_eq!(m.get("ops_per_s"), Some(7.5));
        assert_eq!(m.get("functions_per_s"), Some(75.0));
        assert_eq!(m.get("op_ms_p50"), Some(2.0));
        assert_eq!(m.get("op_ms_p90"), Some(90.0));
    }

    #[test]
    fn passes_are_reported_at_the_reference_speed() {
        let mut p = Passes::default();
        // A pass on a host at half the reference speed (scale 0.5)
        // counts as one of half its wall time.
        p.push(10.0, 100.0, 2.0, vec![4.0, 8.0]);
        let mut m = Metrics::default();
        p.record(&mut m, 0.5);
        assert_eq!(m.get("ops_per_s"), Some(10.0));
        assert_eq!(m.get("functions_per_s"), Some(100.0));
        assert_eq!(m.get("op_ms_p50"), Some(2.0));
        assert_eq!(m.get("op_ms_p90"), Some(4.0));
    }

    #[test]
    fn attributed_share_is_a_clamped_ratio() {
        assert_eq!(attributed_share(90.0, 100.0), 0.9);
        assert_eq!(attributed_share(0.0, 100.0), 0.0);
        assert_eq!(attributed_share(101.0, 100.0), 1.0);
        assert_eq!(attributed_share(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
