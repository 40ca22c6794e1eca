//! Inputs: the trained detector, the two device images and the streamed
//! corpus, all generated from the workload seed. The program under test
//! only ever sees what these functions build; the generator's own time is
//! recorded here (`gen.*`) and kept out of every throughput figure.

use corpus::dataset1::Dataset1Config;
use corpus::StreamConfig;
use fwbin::format::Binary;
use fwbin::FirmwareImage;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::{Basis, Patchecko, PipelineConfig};
use patchecko_core::retrieval::Retrieval;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Device-image scale (1.0 = the paper-derived library sizes).
pub const IMAGE_SCALE: f64 = 0.05;
/// Generated functions in the `corpus_scan` stream.
pub const CORPUS_FUNCTIONS: usize = 10_000;
/// One planted CVE function every this many corpus units.
pub const CORPUS_PLANT_EVERY: usize = 4;

/// Generator timings of one set-up, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenTimes {
    /// Detector training (Dataset I generation included).
    pub train_s: f64,
    /// Device-image generation.
    pub image_s: f64,
    /// Corpus generation.
    pub corpus_s: f64,
}

/// splitmix64: spreads a small workload seed over all 64 bits.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker count for every concurrent part of the benchmark.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The detector every workload scans with: a small, fixed training run
/// (independent of the workload seed, so the model is the same on every
/// run and only the scanned inputs vary).
pub fn train_detector(times: &mut GenTimes) -> Detector {
    let started = Instant::now();
    let ds = corpus::build_dataset1(&Dataset1Config {
        num_libraries: 10,
        min_functions: 8,
        max_functions: 12,
        seed: 1,
        include_catalog: true,
    });
    let cfg = DetectorConfig {
        pairs_per_function: 6,
        train: TrainConfig {
            epochs: 10,
            batch: 256,
            lr: 1e-3,
            seed: 7,
            ..Default::default()
        },
        ..DetectorConfig::default()
    };
    let detector = detector::train(&ds, &cfg).0;
    times.train_s = started.elapsed().as_secs_f64();
    detector
}

/// An analyzer with `threads` pipeline threads.
pub fn analyzer(detector: &Detector, retrieval: Retrieval, threads: usize) -> Patchecko {
    Patchecko::new(
        detector.clone(),
        PipelineConfig {
            threads: Some(threads),
            retrieval,
            ..PipelineConfig::default()
        },
    )
}

/// The Android Things and Pixel 2 XL images, their build seeds mixed
/// with the workload seed.
pub fn build_images(seed: u64, times: &mut GenTimes) -> Vec<FirmwareImage> {
    let started = Instant::now();
    let catalog = corpus::full_catalog();
    let images = [corpus::android_things_spec(), corpus::pixel2xl_spec()]
        .into_iter()
        .map(|mut spec| {
            spec.seed ^= mix(seed);
            corpus::build_device(&spec, &catalog, IMAGE_SCALE).image
        })
        .collect();
    times.image_s = started.elapsed().as_secs_f64();
    images
}

/// The corpus stream configuration for `seed`.
pub fn corpus_config(seed: u64) -> StreamConfig {
    let mut cfg = StreamConfig::sized(CORPUS_FUNCTIONS, mix(seed ^ 0xBE9C));
    cfg.plant_every = CORPUS_PLANT_EVERY;
    cfg
}

/// Every unit of the corpus, pre-built in memory.
pub fn build_corpus(cfg: &StreamConfig, times: &mut GenTimes) -> Vec<Binary> {
    let started = Instant::now();
    let units = corpus::build_units_parallel(cfg, 0, cfg.units(), nproc())
        .into_iter()
        .map(|u| u.binary)
        .collect();
    times.corpus_s = started.elapsed().as_secs_f64();
    units
}

/// The featured CVEs' vulnerable reference variants flattened into one
/// pool: 25 CVEs × 4 platform variants = 100 reference rows.
pub fn reference_pool(db: &corpus::VulnDb) -> Vec<StaticFeatures> {
    db.featured()
        .iter()
        .flat_map(|entry| {
            Patchecko::reference_feature_set(entry, Basis::Vulnerable)
                .expect("reference variants extract")
        })
        .collect()
}

/// Order-sensitive content digest of a list of binaries.
pub fn digest<'a>(bins: impl IntoIterator<Item = &'a Binary>) -> u64 {
    bins.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ corpus::stream::unit_content_fingerprint(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Digest of a set of images, binaries in image order.
pub fn image_digest(images: &[FirmwareImage]) -> u64 {
    digest(images.iter().flat_map(|i| &i.binaries))
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A scratch directory for this run under `.bench_work/` in the current
/// directory (the checkout root), emptied first.
pub fn work_dir(workload: &str, seed: u64) -> PathBuf {
    let dir = Path::new(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// Total size of the regular files directly under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        let mut t = GenTimes::default();
        assert_eq!(
            image_digest(&build_images(3, &mut t)),
            image_digest(&build_images(3, &mut t))
        );
        assert_ne!(
            image_digest(&build_images(3, &mut t)),
            image_digest(&build_images(4, &mut t))
        );

        let mut small = corpus_config(3);
        small.target_functions = 320;
        let again = {
            let mut c = corpus_config(3);
            c.target_functions = 320;
            c
        };
        assert_eq!(
            digest(&build_corpus(&small, &mut t)),
            digest(&build_corpus(&again, &mut t))
        );
        let mut other = corpus_config(4);
        other.target_functions = 320;
        assert_ne!(
            digest(&build_corpus(&small, &mut t)),
            digest(&build_corpus(&other, &mut t))
        );
    }
}
