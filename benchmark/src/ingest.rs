//! `ingest_serve`: writes beside reads. A durable `IncrementalDriver`,
//! bootstrapped from the first 80% of the experiment world's documents,
//! ingests twenty 1% doc-arrival batches back to back while open-loop
//! traffic (1,000 req/s) reads through a `Server` over its service; then
//! the driver is dropped and `restore_durable` brings it back from disk.
//!
//! This is the only workload that exercises the fold, cache reuse, the
//! WAL, checkpoints, ontology deltas, snapshot freeze and publish; the
//! build kernel runs only on dirty clusters.
//!
//! Each round starts from a copy of the same baseline checkpoint, so
//! every round folds the same batches onto the same state.

use crate::calib::Calibration;
use crate::load::{self, Mix, Pace, Phase, Until};
use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::serve;
use crate::{build, trace, Args};
use giant::adapter::{build_serving, GiantSetup};
use giant::apps::incremental::{DurabilityConfig, IncrementalDriver, IngestReport};
use giant::apps::serving::OntologyService;
use giant::incr::{union_input, DeltaBatch, IncrementalState};
use giant::mining::{GiantConfig, GiantModels, PipelineInput};
use giant::net::{Server, ServerConfig, StatsReport};
use giant::obs::MetricsSnapshot;
use giant::text::Annotator;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bootstrap share of the documents, then this many 1% batches.
const BOOTSTRAP: f64 = 0.80;
const BATCHES: usize = 20;
/// The readers' offered rate, req/s: half of `serve`'s, because at
/// 2,000 req/s a host stall beside an ingest let the open-loop backlog
/// outgrow the admission queue, and the server shed up to 0.7% of a
/// round's requests.
const READ_RATE: f64 = 1000.0;
/// Serving frames each driver retains.
const KEEP_FRAMES: usize = 2;
/// Recoveries timed per round, each from its own copy of the files the
/// ingests left behind (a recovery rewrites them).
const RECOVERIES: usize = 1;

/// One round's measurements.
pub struct Round {
    /// The reader traffic beside the ingests, and the server's view of it.
    phase: Phase,
    stats: StatsReport,
    metrics: MetricsSnapshot,
    /// Span self times, when the round was traced.
    self_s: BTreeMap<String, f64>,
    /// Seconds spent inside `ingest` calls.
    wall_s: f64,
    ingest_ms: Vec<f64>,
    /// Each ingest's time in reference-job units.
    ingest_rel: Vec<f64>,
    reports: Vec<IngestReport>,
    replayed: usize,
    wal_bytes: u64,
    checkpoint_bytes: u64,
}

/// Everything a round needs: the world's batches, the models, the full
/// rebuild every round must converge to and the baseline checkpoint.
pub struct World {
    annotator: Annotator,
    models: GiantModels,
    batches: Vec<DeltaBatch>,
    full_dump: String,
    baseline: DurabilityConfig,
    /// The union of every batch, what the full rebuild mined.
    union: PipelineInput,
    /// The bootstrapped driver's service, for the in-process probes.
    service: Arc<OntologyService>,
    docs: usize,
    clicks: usize,
    delta_docs: usize,
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

fn dump(driver: &IncrementalDriver) -> String {
    giant::ontology::io::dump(driver.state().ontology())
}

/// Splits `setup`'s stream into an 80% bootstrap and [`BATCHES`] 1%
/// batches, bootstraps a durable driver in `work/baseline` and builds
/// the request mix over it.
pub fn prepare(setup: &GiantSetup, models: &GiantModels, work: &Path, seed: u64) -> (World, Mix) {
    let stream = setup.corpus_stream();
    let cuts: Vec<f64> = (0..BATCHES)
        .map(|i| BOOTSTRAP + i as f64 * (1.0 - BOOTSTRAP) / BATCHES as f64)
        .collect();
    let batches = stream.split_on_doc_arrival(&cuts);
    // The full rebuild over every batch: the reference the incremental
    // ontology must equal, and the product the base serving resources
    // (encoder, TF-IDF, Duet) are trained from.
    let union = union_input(
        stream.categories.clone(),
        stream.annotator.clone(),
        &batches,
    );
    let full = giant::mining::run_pipeline(&union, models, &GiantConfig::default());
    let base = (*build_serving(setup, &full).service.resources()).clone();
    let state = IncrementalState::new(
        stream.categories.clone(),
        stream.annotator.clone(),
        models.clone(),
        GiantConfig::default(),
    );
    let (mut driver, _) =
        IncrementalDriver::bootstrap(state, base, batches[0].clone(), KEEP_FRAMES)
            .expect("bootstrap folds");
    let baseline = DurabilityConfig::new(work.join("baseline"));
    driver
        .enable_durability(baseline.clone())
        .expect("enable durability");
    let service = Arc::clone(driver.service());
    let mix = Mix::new(
        serve::pools_of(setup, &full, &service),
        1 << 18,
        seed ^ 0xB0A7,
    );
    drop(driver);
    let world = World {
        annotator: stream.annotator.clone(),
        models: models.clone(),
        full_dump: giant::ontology::io::dump(&full.ontology),
        delta_docs: batches[1..].iter().map(|b| b.docs.len()).sum(),
        batches,
        baseline,
        union,
        service,
        docs: stream.docs.len(),
        clicks: stream.clicks.len(),
    };
    (world, mix)
}

/// One round: restore the baseline into `dir`, ingest every delta batch
/// under reader traffic, then drop the driver and time `restore_durable`.
/// A traced round arms `giant-obs` after the baseline restore.
fn round(
    world: &World,
    mix: &Mix,
    dir: &Path,
    traced: bool,
    cal: &mut Calibration,
    out: &mut Outcome,
) -> Round {
    let _ = std::fs::remove_dir_all(dir);
    copy_dir(&world.baseline.dir, dir).expect("copy the baseline checkpoint");
    let cfg = DurabilityConfig::new(dir);
    let (mut driver, _) = IncrementalDriver::restore_durable(
        cfg.clone(),
        world.annotator.clone(),
        world.models.clone(),
        KEEP_FRAMES,
    )
    .expect("restore the baseline");
    let server = Server::start(
        Arc::clone(driver.service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");
    if traced {
        trace::arm();
    }
    let stop = AtomicBool::new(false);
    let deltas: Vec<DeltaBatch> = world.batches[1..].to_vec();
    let (ingest_ms, ingest_rel, reports, phase) = std::thread::scope(|scope| {
        let traffic = scope.spawn(|| {
            load::run_phase(
                &load::connect(server.local_addr()),
                mix,
                0,
                Pace::Rate(READ_RATE),
                Until::Flag(&stop),
                false,
            )
        });
        let mut ingest_ms = Vec::with_capacity(BATCHES);
        let mut ingest_rel = Vec::with_capacity(BATCHES);
        let mut reports = Vec::with_capacity(BATCHES);
        for batch in deltas {
            let (rel, secs, r) = cal.relative(|| driver.ingest(batch));
            ingest_ms.push(secs * 1e3);
            ingest_rel.push(rel);
            match r {
                Ok(rep) => reports.push(rep),
                Err(e) => {
                    eprintln!("[ingest] ingest failed: {e}");
                    out.failed += 1;
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        let phase = traffic.join().expect("traffic thread panicked");
        (ingest_ms, ingest_rel, reports, phase)
    });
    let wall_s = ingest_ms.iter().sum::<f64>() / 1e3;
    let (stats, metrics) = (server.stats_report(), server.metrics_report());
    server.shutdown();
    out.attempted += BATCHES as u64;
    serve::account(out, "ingest traffic", &phase);

    let live = dump(&driver);
    out.gate(live == world.full_dump, || {
        "incrementally built ontology differs from the full rebuild".into()
    });
    let wal_bytes = file_len(&cfg.wal_path());
    let checkpoint_bytes = file_len(&cfg.checkpoint_path());
    drop(driver);

    let mut recover_s = Vec::with_capacity(RECOVERIES);
    let mut replayed = 0;
    for k in 0..RECOVERIES {
        let copy = dir.with_extension(format!("recover{k}"));
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(dir, &copy).expect("copy the ingested state");
        let t = Instant::now();
        let restored = IncrementalDriver::restore_durable(
            DurabilityConfig::new(&copy),
            world.annotator.clone(),
            world.models.clone(),
            KEEP_FRAMES,
        );
        recover_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match restored {
            Ok((driver, report)) => {
                out.gate(dump(&driver) == live, || {
                    "restored ontology differs from the live one".into()
                });
                replayed = report.replayed;
            }
            Err(e) => {
                eprintln!("[ingest] restore failed: {e}");
                out.failed += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    let self_s = if traced {
        trace::disarm()
    } else {
        BTreeMap::new()
    };
    let _ = std::fs::remove_dir_all(dir);
    eprintln!(
        "[ingest] round: {wall_s:.3}s in {BATCHES} ingests, ms {ingest_ms:.1?} ref {ingest_rel:.2?}, recover {recover_s:.4?}s ({replayed} replayed)",
    );
    Round {
        phase,
        stats,
        metrics,
        self_s,
        wall_s,
        ingest_ms,
        ingest_rel,
        reports,
        replayed,
        wal_bytes,
        checkpoint_bytes,
    }
}

/// The ingest layers of `world`: one traced round, reported from its
/// `IngestReport`s, the WAL and checkpoint files, the registry's span
/// histograms and counters, and the span self times.
pub fn probe_layers(out: &mut Outcome, world: &World, mix: &Mix, work: &Path) -> Round {
    let before = giant::obs::registry().snapshot();
    let cal = &mut Calibration::single();
    let r = round(world, mix, &work.join("round"), true, cal, out);
    let after = giant::obs::registry().snapshot();
    report_layers(out, &r, &before, &after, world.delta_docs);
    r
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let t_setup = Instant::now();
    let setup = GiantSetup::generate_with(
        crate::experiment_world(args.seed),
        &crate::filtered_clicks(),
    );
    let models = crate::train_models();
    let (world, mix) = prepare(&setup, &models, work, args.seed);
    let setup_s = t_setup.elapsed().as_secs_f64();
    eprintln!(
        "[ingest] setup {setup_s:.2}s: {} docs ({} in {BATCHES} batches), {} queries, {} clicks",
        world.docs,
        world.delta_docs,
        world.union.click_graph.n_queries(),
        world.clicks
    );
    let round_dir = work.join("round");

    if args.trace {
        let cal = &mut Calibration::single();
        let plain = round(&world, &mix, &round_dir, false, cal, &mut out);
        let traced = probe_layers(&mut out, &world, &mix, work);
        trace::report_overhead(&mut out, traced.wall_s, plain.wall_s);
        serve::report_layers(
            &mut out,
            &traced.stats,
            &traced.metrics,
            &traced.phase,
            &traced.self_s,
        );
        trace::serve_probes(&mut out, &world.service.frame(), &mix.pool);
        // The full build's layers, probed over the union of the batches.
        build::layers(&mut out, &world.union, &models);
        trace::kernel_probes(&mut out, &models, crate::experiment_world(args.seed));
        trace::report_world(&mut out, world.docs, world.clicks);
        return out;
    }

    let t_phase = Instant::now();
    let mut cal = Calibration::single();
    let mut ingest_rel = Vec::new();
    while ingest_rel.is_empty() || t_phase.elapsed().as_secs_f64() < args.seconds {
        ingest_rel.extend(round(&world, &mix, &round_dir, false, &mut cal, &mut out).ingest_rel);
    }
    eprintln!("[ingest] reference job {:.3} ms", cal.ref_ms());
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("op_ref", median(&ingest_rel), "ref");
    out
}

/// Ingest-side per-layer metrics of a traced round.
fn report_layers(
    out: &mut Outcome,
    r: &Round,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    delta_docs: usize,
) {
    let p50_ms = |f: &dyn Fn(&IngestReport) -> Option<f64>| -> f64 {
        let v: Vec<f64> = r.reports.iter().filter_map(f).map(|s| s * 1e3).collect();
        quantile(&v, 0.5)
    };
    out.metric("incr.ingest_ms.p50", median(&r.ingest_ms), "ms");
    out.metric("incr.docs_per_s", delta_docs as f64 / r.wall_s, "docs/s");
    out.metric(
        "incr.wal_append_us.p50",
        p50_ms(&|x| x.wal_secs) * 1e3,
        "us",
    );
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    out.metric(
        "wal.syncs_per_batch",
        delta("wal.syncs") as f64 / BATCHES as f64,
        "count",
    );
    out.metric("incr.fold_ms.p50", p50_ms(&|x| Some(x.fold_secs)), "ms");
    out.metric(
        "apps.publish_ms.p50",
        p50_ms(&|x| Some(x.publish_secs)),
        "ms",
    );
    out.metric(
        "incr.checkpoint_ms.p50",
        p50_ms(&|x| x.checkpoint_secs),
        "ms",
    );
    let (reused, mined) = r.reports.iter().fold((0, 0), |(a, b), x| {
        (a + x.clusters_reused, b + x.clusters_mined)
    });
    out.metric(
        "core.cache_reuse",
        reused as f64 / (reused + mined).max(1) as f64,
        "ratio",
    );
    out.metric("incr.checkpoint_bytes", r.checkpoint_bytes as f64, "bytes");
    out.metric("incr.wal_bytes", r.wal_bytes as f64, "bytes");
    // Spans record only while armed, which starts after the baseline
    // restore: the restore spans are the recoveries', averaged here.
    let span_ms = |name: &str| {
        (trace::hist(after, name).1 - trace::hist(before, name).1) as f64 / 1e3 / RECOVERIES as f64
    };
    out.metric("incr.restore_ms", span_ms("span.restore"), "ms");
    out.metric("incr.replay_ms", span_ms("span.restore.replay"), "ms");
    out.metric("incr.replayed", r.replayed as f64, "count");
    trace::report_self_times(
        out,
        &r.self_s,
        &[
            "ingest.wal_append",
            "ingest.fold",
            "ingest.publish",
            "ingest.checkpoint",
            "restore",
            "restore.replay",
        ],
    );
}
