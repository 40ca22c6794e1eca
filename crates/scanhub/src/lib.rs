//! # patchecko-scanhub — the persistent scan service
//!
//! The one-shot pipeline in `patchecko-core` re-disassembles every
//! function, re-extracts all 48 Table-I features, and classifies pairs on
//! every invocation. At fleet scale — many CVEs against many firmware
//! images, most functions byte-identical between image revisions — that
//! repeated work dominates. This crate turns the pipeline into a reusable
//! service:
//!
//! * [`key`] — content-addressed [`ArtifactKey`]s: a stable 128-bit hash
//!   of a function's code bytes, architecture, extractor-relevant record
//!   metadata, and the feature-schema version;
//! * `lane` — one generic persistent cache lane (`Lane<V>` over any
//!   checksummed value): a sharded map with hit/miss/quarantine
//!   counters, single-flight compute, and one hardened JSON file
//!   (temp-file + rename saves, quarantine-on-load);
//! * [`store`] — the [`ArtifactStore`]: three lanes behind the pipeline's
//!   seams — static [`Artifact`]s (Table-I features + CFG summary,
//!   `artifacts.json`), dynamic entries (environment sets and
//!   per-function profiles, `dyn_artifacts.json`, so a warm re-audit
//!   performs zero VM executions), and retrieval signatures behind the
//!   top-K candidate pre-filter (`sig_index.json`);
//! * [`namespace`] — per-tenant [`TenantView`]s over one shared store:
//!   content keys are relocated by a tenant salt so co-resident tenants
//!   (the scan daemon's clients) never observe each other's artifacts;
//! * [`schedule`] — the (image × CVE × basis) job scheduler over the
//!   shared persistent worker pool ([`neural::pool`]), with per-job
//!   wall-clock budgets, timing, and graceful failure records;
//! * [`hub`] — [`ScanHub`], binding a trained
//!   [`Patchecko`](patchecko_core::pipeline::Patchecko) analyzer to a
//!   store so scans, audits, and batches all reuse cached artifacts.
//!
//! ## Example
//!
//! ```no_run
//! use patchecko_core::pipeline::{Basis, Patchecko, PipelineConfig};
//! use patchecko_scanhub::{schedule, ScanHub};
//!
//! # fn main() -> std::io::Result<()> {
//! # let detector: patchecko_core::detector::Detector = unimplemented!();
//! use std::sync::Arc;
//! let hub = Arc::new(ScanHub::with_cache_dir(
//!     Patchecko::new(detector, PipelineConfig::default()),
//!     "/var/cache/patchecko",
//! )?);
//! let db = Arc::new(corpus::build_vulndb(0, 1));
//! let images = Arc::new(vec![/* loaded FirmwareImages */]);
//! let jobs = schedule::full_schedule(images.len(), &db, &[Basis::Vulnerable]);
//! let report = hub.batch_audit(&images, &db, &jobs);
//! println!("{} jobs, cache {}", report.records.len(), report.cache);
//! hub.persist()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hub;
pub mod key;
mod lane;
pub mod namespace;
pub mod schedule;
pub mod store;
#[cfg(test)]
pub(crate) mod testfix;

pub use hub::{BatchReport, ScanHub};
pub use key::{tenant_salt, ArtifactKey, SCHEMA_VERSION};
pub use namespace::TenantView;
pub use schedule::{
    full_schedule, run_jobs, FaultHook, JobOutcome, JobRecord, JobSpec, RetryPolicy,
};
pub use store::{Artifact, ArtifactStore, CacheStats, CACHE_FILE, DYN_CACHE_FILE, SIG_INDEX_FILE};
