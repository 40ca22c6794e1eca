//! `scand_mixed`: an in-process scan daemon over a Unix socket, driven by
//! a closed loop of `nproc` clients under two tenants. Each client sends
//! its next request only after the previous reply: mostly `scan`
//! requests for (image, CVE, basis), with an `audit` every
//! [`AUDIT_EVERY`]th. Both tenants' namespaces are warmed during set-up.
//! The daemon runs `nproc` executors, each request on one pipeline
//! thread, so the closed loop's parallelism is across requests. One
//! operation is one request; refused and erroring requests count as
//! failed.

use crate::calib::Probe;
use crate::layers::{self, Replay};
use crate::replay::{self, Counts, Sources};
use crate::report::{Metrics, Outcome};
use crate::setup::{self, mix, GenTimes};
use crate::spans::Recorder;
use crate::stats::{median, ratio, Passes};
use crate::{trace_file, Run, SETUP_REPEATS, TRACE_ROUNDS};
use corpus::VulnDb;
use fwbin::FirmwareImage;
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::dynsource::DynProfileSource;
use patchecko_core::error::ScanError;
use patchecko_core::pipeline::Basis;
use patchecko_core::retrieval::Retrieval;
use patchecko_scand::proto::{self, Op, Outcome as Reply, Request, Response, ScanSummary};
use patchecko_scand::{ScanClient, ScanServer, ServerConfig, ServiceStats};
use patchecko_scanhub::ScanHub;
use std::collections::HashMap;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The two tenants; client `c` acts for `TENANTS[c % 2]`.
const TENANTS: [&str; 2] = ["acme", "globex"];
/// Every this many requests of a client, one is an audit. An audit is
/// two analyses per DB entry plus the differential stage, so it takes
/// tens of scans' time; at one in five, audits are 20% of requests and
/// sit inside the latency tail: `op_ms_p50` reads a scan and `op_ms_p90`
/// an audit. A closed-loop round is one such group per client.
const AUDIT_EVERY: usize = 5;

/// A client's request: a scan of the hosted image, or an audit of it.
#[derive(Clone, Debug)]
enum Req {
    Scan { cve: String, basis: Basis },
    Audit,
}

impl Req {
    fn key(&self) -> String {
        match self {
            Req::Scan { cve, basis } => format!("scan/{cve}/{basis}"),
            Req::Audit => "audit".into(),
        }
    }

    fn op(&self) -> Op {
        match self {
            Req::Scan { cve, basis } => Op::Scan {
                image: 0,
                cve: cve.clone(),
                basis: *basis,
            },
            Req::Audit => Op::Audit { image: 0 },
        }
    }
}

/// Client `client`'s `k`-th request under workload seed `seed`.
fn request(db: &VulnDb, seed: u64, client: usize, k: usize) -> Req {
    if k % AUDIT_EVERY == AUDIT_EVERY - 1 {
        return Req::Audit;
    }
    let z = mix(seed ^ mix(client as u64) ^ mix(k as u64 + 1));
    let featured = db.featured();
    let cve = featured[(z % featured.len() as u64) as usize]
        .entry
        .cve
        .clone();
    let basis = if (z >> 32) & 1 == 0 {
        Basis::Vulnerable
    } else {
        Basis::Patched
    };
    Req::Scan { cve, basis }
}

/// Every distinct request a tenant can send.
fn distinct(db: &VulnDb) -> Vec<Req> {
    let mut all = vec![Req::Audit];
    for entry in db.featured() {
        for basis in [Basis::Vulnerable, Basis::Patched] {
            all.push(Req::Scan {
                cve: entry.entry.cve.clone(),
                basis,
            });
        }
    }
    all
}

/// One reply, serialized for comparison.
fn send(client: &mut ScanClient, req: &Req) -> Result<String, ScanError> {
    match req {
        Req::Scan { cve, basis } => client.scan(0, cve, *basis).map(|s| json(&s)),
        Req::Audit => client.audit(0).map(|a| json(&a)),
    }
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("replies serialize")
}

struct Bench {
    server: ScanServer,
    socket: PathBuf,
    db: VulnDb,
    image: FirmwareImage,
    gen: GenTimes,
    digest: u64,
}

impl Bench {
    fn setup(seed: u64, socket: PathBuf) -> Bench {
        let mut gen = GenTimes::default();
        let detector = setup::train_detector(&mut gen);
        let image = setup::build_images(seed, &mut gen).swap_remove(0);
        let digest = setup::image_digest(std::slice::from_ref(&image));
        let db = corpus::build_vulndb(0, 1);
        let hub = ScanHub::new(setup::analyzer(&detector, Retrieval::Exact, 1));
        let diff = DifferentialConfig::default();
        std::thread::scope(|s| {
            for tenant in TENANTS {
                let (hub, db, image, diff) = (&hub, &db, &image, &diff);
                s.spawn(move || {
                    hub.audit_tenant(db, image, diff, tenant)
                        .expect("warm-up audit")
                });
            }
        });
        let mut cfg = ServerConfig::new(&socket);
        cfg.workers = setup::nproc();
        let server = ScanServer::start(cfg, hub, vec![image.clone()], corpus::build_vulndb(0, 1))
            .expect("start the scan daemon");
        Bench {
            server,
            socket,
            db,
            image,
            gen,
            digest,
        }
    }

    fn stop(self) {
        let drained = ScanClient::connect(&self.socket, "").and_then(|mut c| c.drain());
        if drained.is_ok() {
            self.server.join();
        }
    }

    /// Direct `ScanHub` results for every distinct request of every
    /// tenant, keyed by (tenant, request).
    fn direct(&self) -> HashMap<(usize, String), String> {
        let hub = self.server.hub();
        let diff = DifferentialConfig::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..TENANTS.len())
                .map(|t| {
                    let (hub, diff) = (hub, &diff);
                    s.spawn(move || {
                        distinct(&self.db)
                            .into_iter()
                            .map(|req| {
                                let out = match &req {
                                    Req::Scan { cve, basis } => {
                                        let entry = self.db.get(cve).expect("featured CVE");
                                        let a = hub
                                            .scan_image_tenant(
                                                &self.image,
                                                entry,
                                                *basis,
                                                TENANTS[t],
                                            )
                                            .expect("direct scan");
                                        json(&ScanSummary::from_analysis(&a))
                                    }
                                    Req::Audit => json(
                                        &hub.audit_tenant(&self.db, &self.image, diff, TENANTS[t])
                                            .expect("direct audit"),
                                    ),
                                };
                                ((t, req.key()), out)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("direct results"))
                .collect()
        })
    }

    /// Every reply equals the direct result: one client per tenant sends
    /// every distinct request once.
    fn gate(&self, expected: &HashMap<(usize, String), String>) -> Result<(), String> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..TENANTS.len())
                .map(|t| {
                    s.spawn(move || -> Result<(), String> {
                        let mut client = ScanClient::connect(&self.socket, TENANTS[t])
                            .map_err(|e| format!("scand gate: {e}"))?;
                        for req in distinct(&self.db) {
                            let got = send(&mut client, &req)
                                .map_err(|e| format!("scand gate: {} failed: {e}", req.key()))?;
                            if Some(&got) != expected.get(&(t, req.key())) {
                                return Err(format!("scand gate: {} reply differs", req.key()));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("gate client"))
        })
    }

    fn functions(&self, req: &Req) -> f64 {
        let per_image = self.image.total_functions() as f64;
        match req {
            Req::Scan { .. } => per_image,
            Req::Audit => per_image * 2.0 * self.db.entries.len() as f64,
        }
    }
}

/// One client's log: (client, request index, latency ms, reply).
type Log = Vec<(usize, usize, f64, Result<String, ScanError>)>;

/// One round of the closed loop: `nproc` clients, each sending its
/// requests `first..first + AUDIT_EVERY` (one audit among them), the next
/// only after the previous reply. Returns the log and the round's wall
/// time.
fn closed_loop(b: &Bench, seed: u64, first: usize) -> (Log, f64) {
    let started = Instant::now();
    let log = std::thread::scope(|s| {
        let handles: Vec<_> = (0..setup::nproc())
            .map(|c| {
                s.spawn(move || {
                    let mut client = ScanClient::connect(&b.socket, TENANTS[c % TENANTS.len()])
                        .expect("connect");
                    (first..first + AUDIT_EVERY)
                        .map(|k| {
                            let req = request(&b.db, seed, c, k);
                            let sent = Instant::now();
                            let reply = send(&mut client, &req);
                            (c, k, sent.elapsed().as_secs_f64() * 1e3, reply)
                        })
                        .collect::<Log>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (log, started.elapsed().as_secs_f64())
}

/// (failed requests, mismatching replies) in a log.
fn check(
    b: &Bench,
    seed: u64,
    log: &Log,
    expected: &HashMap<(usize, String), String>,
) -> (u64, u64) {
    let mut failed = 0;
    let mut wrong = 0;
    for (c, k, _, reply) in log {
        let key = request(&b.db, seed, *c, *k).key();
        match reply {
            Ok(got) if Some(got) == expected.get(&(c % TENANTS.len(), key)) => {}
            Ok(_) => wrong += 1,
            Err(_) => failed += 1,
        }
    }
    (failed, wrong)
}

/// Run `scand_mixed`.
pub fn run(r: &Run) -> Result<Outcome, String> {
    let work = setup::work_dir(&r.workload, r.seed);
    let mut setup_s = Vec::new();
    let mut bench: Option<Bench> = None;
    let mut probe = Probe::new(setup::nproc());
    for i in 0..SETUP_REPEATS {
        let (b, wall_s) = probe.around(|| Bench::setup(r.seed, work.join(format!("s{i}.sock"))));
        setup_s.push(wall_s);
        if let Some(prev) = bench.take() {
            if prev.digest != b.digest {
                return Err("set-up is not deterministic: image digests differ".into());
            }
            prev.stop();
        }
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    eprintln!(
        "[perfbench] scand_mixed: input digest {:016x}",
        bench.digest
    );
    let expected = bench.direct();
    let result = bench.gate(&expected).map(|()| {
        if r.trace {
            traced(r, &bench, &expected)
        } else {
            timed(r, &bench, &expected, median(&setup_s) * probe.scale())
        }
    });
    bench.stop();
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn timed(r: &Run, b: &Bench, expected: &HashMap<(usize, String), String>, setup_s: f64) -> Outcome {
    let mut passes = Passes::default();
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    // Client-side milliseconds and counts of scans and audits.
    let mut by_kind = [(0.0f64, 0usize); 2];
    let mut probe = Probe::new(setup::nproc());
    let started = Instant::now();
    let mut round = 0;
    while !passes.enough(started.elapsed().as_secs_f64(), r.seconds) {
        let ((log, wall), _) = probe.around(|| closed_loop(b, r.seed, round * AUDIT_EVERY));
        let (f, w) = check(b, r.seed, &log, expected);
        attempted += log.len() as u64;
        failed += f;
        wrong += w;
        for (c, k, ms, _) in &log {
            let kind = usize::from(matches!(request(&b.db, r.seed, *c, *k), Req::Audit));
            by_kind[kind].0 += ms;
            by_kind[kind].1 += 1;
        }
        let functions: f64 = log
            .iter()
            .map(|(c, k, _, _)| b.functions(&request(&b.db, r.seed, *c, *k)))
            .sum();
        passes.push(
            log.len() as f64,
            functions,
            wall,
            log.iter().map(|e| e.2).collect(),
        );
        round += 1;
    }
    eprintln!("[perfbench] scand_mixed: {}", passes.summary());
    eprintln!("[perfbench] {}: {}", r.workload, probe.summary());
    let [(scan_ms, scans), (audit_ms, audits)] = by_kind;
    eprintln!(
        "[perfbench] scand_mixed: {scans} scans at {:.1} ms mean, {audits} audits at {:.1} ms mean; audits hold {:.0}% of client time",
        ratio(scan_ms, scans as f64),
        ratio(audit_ms, audits as f64),
        100.0 * ratio(audit_ms, scan_ms + audit_ms)
    );
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    passes.record(&mut m, probe.scale());
    m.set("peak_rss_mb", setup::peak_rss_mb());
    Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: m,
    }
}

/// Server-side latency over a phase: (total ns, requests) across tenants.
fn server_latency(after: &ServiceStats, before: &ServiceStats) -> (u64, u64) {
    after.tenants.iter().fold((0, 0), |(ns, n), (name, t)| {
        let base = before
            .tenants
            .get(name)
            .and_then(|b| b.latency.clone())
            .unwrap_or_default();
        let d = t.latency.clone().unwrap_or_default().since(&base);
        (ns + d.total_ns, n + d.count)
    })
}

fn traced(r: &Run, b: &Bench, expected: &HashMap<(usize, String), String>) -> Outcome {
    let mut m = Metrics::default();
    let (mut plain, mut traced_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let mut last = None;
    for _ in 0..TRACE_ROUNDS {
        plain.push(closed_loop(b, r.seed, 0).1);
        let before = b.server.stats();
        scope::trace::enable();
        let (log, wall) = {
            let _span = scope::SpanGuard::enter("bench.scand_phase");
            closed_loop(b, r.seed, 0)
        };
        scope::trace::disable();
        let after = b.server.stats();
        traced_s.push(wall);
        let (f, w) = check(b, r.seed, &log, expected);
        attempted += log.len() as u64;
        failed += f;
        wrong += w;
        last = Some((log, before, after));
    }
    let (log, before, after) = last.expect("at least one traced phase");
    m.set("trace_overhead", median(&traced_s) / median(&plain) - 1.0);
    layers::record_cache(&mut m, &after.cache.since(&before.cache));
    layers::record_telemetry(&mut m, &after.telemetry.since(&before.telemetry));
    m.set(
        "vm.executions",
        after.vm_executions.saturating_sub(before.vm_executions) as f64,
    );
    let (server_ns, served) = server_latency(&after, &before);
    let server_ms = ratio(server_ns as f64, served as f64) / 1e6;
    let round_trip_ms = log.iter().map(|e| e.2).sum::<f64>() / log.len().max(1) as f64;
    m.set("scand.server_ms", server_ms);
    m.set("scand.wait_ms", round_trip_ms - server_ms);
    let tenant_sum = |s: &ServiceStats, f: fn(&patchecko_scand::TenantStats) -> u64| -> u64 {
        s.tenants.values().map(f).sum()
    };
    m.set(
        "scand.deduped",
        (tenant_sum(&after, |t| t.deduped) - tenant_sum(&before, |t| t.deduped)) as f64,
    );
    m.set(
        "scand.rejected",
        (tenant_sum(&after, |t| t.rejected) - tenant_sum(&before, |t| t.rejected)) as f64,
    );
    layers::record_gen(&mut m, &b.gen);

    // The layer replay, alternating with what it is held against: the
    // replayed requests sent one at a time over the socket.
    let mut rounds = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        let (ms, f, w) = program_pass(r, b, expected);
        attempted += (TENANTS.len() * AUDIT_EVERY) as u64;
        failed += f;
        wrong += w;
        let replay = layer_replay(r, b, expected);
        wrong += replay.output;
        rounds.push((ms, replay));
    }
    m.set("failed_share", failed as f64 / attempted.max(1) as f64);
    let replay = layers::record_replays(&mut m, rounds);
    scope::trace::enable();
    replay.rec.export_trace();
    scope::trace::disable();
    trace_file(r);
    Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: m,
    }
}

/// Each tenant's first [`AUDIT_EVERY`] requests sent one at a time, from
/// one client per tenant, with nothing else in flight; the daemon runs
/// each on one pipeline thread. Returns (summed round trips in ms,
/// failed requests, mismatching replies).
fn program_pass(
    r: &Run,
    b: &Bench,
    expected: &HashMap<(usize, String), String>,
) -> (f64, u64, u64) {
    let (mut ms, mut failed, mut wrong) = (0.0, 0, 0);
    for (t, tenant) in TENANTS.iter().enumerate() {
        let mut client = ScanClient::connect(&b.socket, tenant).expect("connect");
        for k in 0..AUDIT_EVERY {
            let req = request(&b.db, r.seed, t, k);
            let sent = Instant::now();
            let reply = send(&mut client, &req);
            ms += sent.elapsed().as_secs_f64() * 1e3;
            match reply {
                Ok(got) if Some(&got) == expected.get(&(t, req.key())) => {}
                Ok(_) => wrong += 1,
                Err(_) => failed += 1,
            }
        }
    }
    (ms, failed, wrong)
}

/// The layer replay: the requests of [`program_pass`] encoded, decoded,
/// executed step by step through the tenant's warm namespace, and the
/// replies encoded and decoded again. Its output counts replies that
/// differ from the daemon's.
fn layer_replay(r: &Run, b: &Bench, expected: &HashMap<(usize, String), String>) -> Replay<u64> {
    let hub = b.server.hub();
    let analyzer = &hub.analyzer;
    let diff = DifferentialConfig::default();
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut mismatches = 0u64;
    for (t, tenant) in TENANTS.iter().enumerate() {
        let view = Arc::new(hub.tenant_view(tenant));
        let stats = || view.store().stats();
        let src = Sources {
            features: &*view,
            dynsrc: Arc::clone(&view) as Arc<dyn DynProfileSource>,
            stats: &stats,
        };
        for k in 0..AUDIT_EVERY {
            let req = request(&b.db, r.seed, t, k);
            let frame = Request {
                tenant: tenant.to_string(),
                tag: k as u64,
                deadline_ms: None,
                op: req.op(),
            };
            let mut buf = Vec::new();
            rec.span("wire.encode", || proto::send(&mut buf, &frame))
                .0
                .expect("encode");
            let decoded: Request = rec
                .span("wire.decode", || proto::recv(&mut Cursor::new(&buf)))
                .0
                .expect("decode")
                .expect("frame");
            let outcome = match decoded.op {
                Op::Scan { cve, basis, .. } => {
                    let entry = b.db.get(&cve).expect("featured CVE");
                    let i = replay::replay_image(
                        &mut rec,
                        analyzer,
                        &b.image,
                        entry,
                        basis,
                        &src,
                        &mut counts,
                    );
                    Reply::Scan(ScanSummary {
                        cve,
                        basis,
                        candidates: i.candidates,
                        validated: i.validated,
                        degraded: i.degraded,
                        best: i.best,
                    })
                }
                _ => match replay::replay_audit(
                    &mut rec,
                    analyzer,
                    &b.db,
                    &b.image,
                    &diff,
                    &src,
                    &mut counts,
                ) {
                    Ok(report) => Reply::Audit(Box::new(report)),
                    Err(e) => Reply::Error(e),
                },
            };
            let mut out = Vec::new();
            let response = Response {
                tag: decoded.tag,
                outcome,
            };
            rec.span("wire.encode", || proto::send(&mut out, &response))
                .0
                .expect("encode");
            let back: Response = rec
                .span("wire.decode", || proto::recv(&mut Cursor::new(&out)))
                .0
                .expect("decode")
                .expect("frame");
            let got = rec.untimed(|| match back.outcome {
                Reply::Scan(s) => Some(json(&s)),
                Reply::Audit(a) => Some(json(&*a)),
                _ => None,
            });
            if got.as_ref() != expected.get(&(t, req.key())) {
                eprintln!(
                    "[perfbench] scand_mixed: replayed {} differs from the daemon",
                    req.key()
                );
                mismatches += 1;
            }
        }
    }
    Replay::finish(rec, counts, mismatches)
}
