//! The host-speed probe: a fixed kernel of the benchmark's own, timed in
//! a child process on `nproc` threads before the first and after every
//! measured pass (or set-up) of a run.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by 1.5× and more over seconds to minutes, and a fixed loop slows down
//! with the program, in CPU time as much as in wall time. So a run's
//! times are reported at a reference speed: multiplied by
//! [`REFERENCE_MS`] ÷ the run's median probe time (rates divided by it).
//! The kernel calls no program code, so a faster program still reads
//! faster. It mixes the program's kinds of work: interpreter-style
//! dispatch with scattered reads and writes over a table, floating-point
//! dot products, and allocation-heavy hash-map work. It runs on as many
//! threads as the workloads do, so that other load on the machine slows
//! both alike. The wall-clock figures are printed on stderr.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One probe's wall time, ms, at the reference speed (about its median on
/// 2 threads of the 2-vCPU VM the bounds were set on). A run's times are
/// reported as if its median probe had taken exactly this long.
pub const REFERENCE_MS: f64 = 32.0;

/// Words in each thread's dispatch table (1 MiB).
const TABLE: usize = 1 << 17;
/// Dispatch steps per probe.
const STEPS: usize = 1_000_000;
/// Insertions into the probe's hash map.
const INSERTS: u64 = 30_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

/// Interpreter-style dispatch with scattered reads and writes over
/// `table`, and a dot product every 64 steps.
fn dispatch(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let a: [f64; 256] = std::array::from_fn(|i| i as f64 * 0.5);
    let b: [f64; 256] = std::array::from_fn(|i| 1.0 / (i + 1) as f64);
    let (mut x, mut acc, mut f) = (0x9e37_79b9_7f4a_7c15u64, 0u64, 0.0f64);
    for step in 0..STEPS {
        x = xorshift(x);
        let slot = (x as usize) & mask;
        match x >> 61 {
            0 => acc = acc.wrapping_add(table[slot]),
            1 => table[slot] ^= acc,
            2 => acc = acc.rotate_left(7) ^ x,
            3 => acc = acc.wrapping_mul(table[slot] | 1),
            4 => table[slot] = table[slot].wrapping_add(step as u64),
            5 => acc ^= acc >> 3,
            6 => acc = acc.wrapping_sub(x >> 11),
            _ => acc = acc.wrapping_add(u64::from(table[slot] < x)),
        }
        if step % 64 == 0 {
            let off = (x as usize) & 127;
            f += a[off..off + 128]
                .iter()
                .zip(&b[off..off + 128])
                .map(|(p, q)| p * q)
                .sum::<f64>();
        }
    }
    acc ^ f.to_bits()
}

/// Allocation-heavy map work: short vectors inserted into a hash map
/// under random keys, random lookups, then the keys formatted and
/// sorted.
fn maps() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut found = 0u64;
    for i in 0..INSERTS {
        x = xorshift(x);
        map.insert(x % (2 * INSERTS), (0..(x % 24) as u32).collect());
        if i % 3 == 0 {
            x = xorshift(x);
            found += map.get(&(x % (2 * INSERTS))).map_or(0, |v| v.len() as u64);
        }
    }
    let mut keys: Vec<String> = map.keys().map(|k| format!("{k:x}")).collect();
    keys.sort_unstable();
    found ^ keys.len() as u64
}

/// One run of the fixed kernel. The result is only there so that the
/// work cannot be optimised away.
fn kernel(table: &mut [u64]) -> u64 {
    dispatch(table) ^ maps()
}

/// The flag that makes the benchmark binary a probe process: it runs the
/// kernel once on every thread to warm up, then once more timed, and
/// prints that time in ms.
pub const CHILD_FLAG: &str = "--host-probe";

/// The probe process's `main`: `perfbench --host-probe <threads>`.
pub fn child_main(threads: usize) {
    let mut tables: Vec<Vec<u64>> = (0..threads.max(1)).map(|_| vec![1u64; TABLE]).collect();
    let mut run = || {
        let started = Instant::now();
        std::thread::scope(|s| {
            for table in &mut tables {
                s.spawn(move || black_box(kernel(table)));
            }
        });
        started.elapsed().as_secs_f64() * 1e3
    };
    run();
    println!("{}", run());
}

/// The probe: a fresh process of this binary per sample, so that its
/// memory neither counts in `peak_rss_mb` nor shapes the program's heap.
/// Keeps the times it has measured.
pub struct Probe {
    threads: usize,
    samples_ms: Vec<f64>,
}

impl Probe {
    /// A probe on `threads` threads, run once.
    pub fn new(threads: usize) -> Probe {
        let mut probe = Probe {
            threads,
            samples_ms: Vec::new(),
        };
        probe.sample();
        probe
    }

    /// Run one probe process and keep its time.
    fn sample(&mut self) {
        let out = std::env::current_exe()
            .and_then(|exe| {
                Command::new(exe)
                    .args([CHILD_FLAG, &self.threads.to_string()])
                    .stderr(Stdio::inherit())
                    .output()
            })
            .expect("run the host-speed probe");
        let ms = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse::<f64>()
            .expect("the host-speed probe prints its time");
        self.samples_ms.push(ms);
    }

    /// Run `work`, then probe again. Returns what `work` returned and its
    /// wall time, seconds.
    pub fn around<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let started = Instant::now();
        let value = work();
        let wall_s = started.elapsed().as_secs_f64();
        self.sample();
        (value, wall_s)
    }

    /// The reference-speed factor of the probes so far: multiply wall
    /// times by it (divide rates by it) to get the reference-speed figure.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / median(&self.samples_ms)
    }

    /// One stderr line: the probe times and the factor.
    pub fn summary(&self) -> String {
        format!(
            "host-speed probe: {} samples {:.1?}, median {:.2} ms, reference {REFERENCE_MS} ms, scale {:.3}",
            self.samples_ms.len(),
            self.samples_ms,
            median(&self.samples_ms),
            self.scale()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_the_reference_over_the_median_probe() {
        let probe = Probe {
            threads: 1,
            samples_ms: vec![REFERENCE_MS * 2.0, REFERENCE_MS * 9.0, REFERENCE_MS * 2.0],
        };
        assert_eq!(probe.scale(), 0.5);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let mut a = vec![1u64; TABLE];
        let mut b = vec![1u64; TABLE];
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert_eq!(a, b);
    }
}
