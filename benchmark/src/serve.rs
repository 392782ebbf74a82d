//! `serve`: the read-only front door. An in-process `giant_net::Server`
//! over the experiment world's service takes open-loop traffic on one
//! connection at a fixed 2,000 req/s.
//!
//! Only `net` and `apps` serving work here. Light kinds cost about a
//! microsecond in process, so their latency is socket and queue time;
//! the heavy kinds expose tagging and story-tree cost.

use crate::calib::Calibration;
use crate::load::{self, class_percentiles, Mix, Pace, Phase, Until, QUANTILES};
use crate::report::{median, peak_rss_mb, quantile_sorted, Outcome};
use crate::{build, ingest, trace, Args};
use giant::adapter::{build_serving, GiantSetup};
use giant::apps::serving::OntologyService;
use giant::mining::{GiantConfig, GiantOutput};
use giant::net::wire::{KIND_LABELS, N_KINDS};
use giant::net::{Server, ServerConfig, StatsReport};
use giant::obs::MetricsSnapshot;
use giant::ontology::NodeKind;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The fixed offered rate, req/s.
pub const RATE: f64 = 2000.0;
/// The measured phase is closed-loop bursts of this many requests, each
/// keeping [`BURST_WINDOW`] requests outstanding and timed against the
/// reference job around it, repeated until the time is spent.
const BURST: usize = 4000;
/// Requests a burst keeps outstanding (below the admission queue's 256,
/// so none is shed).
const BURST_WINDOW: usize = 64;
/// Requests of a probe phase (and of a traced run's untraced reference
/// phase): four seconds at [`RATE`].
const PROBE_REQUESTS: usize = 8000;
/// Spans the server records, reported by their self time.
pub const NET_SPANS: [&str; 4] = ["net.batch", "net.serve", "serve_batch", "net.reply"];

/// Failure and lateness accounting for one phase that must not fail.
pub fn account(out: &mut Outcome, what: &str, phase: &Phase) {
    out.attempted += phase.sent as u64;
    out.failed += (phase.failures() + phase.io_errors) as u64;
    eprintln!(
        "[{what}] sent {} ok {} typed_err {} shed {} bad {} missing {} io_err {} | sender late p50 {:.0}us p99 {:.0}us max {:.0}us | achieved {:.0} req/s",
        phase.sent,
        phase.count(load::Status::Ok),
        phase.count(load::Status::TypedErr),
        phase.count(load::Status::Shed),
        phase.count(load::Status::Bad),
        phase.count(load::Status::Missing),
        phase.io_errors,
        phase.late_q(0.5),
        phase.late_q(0.99),
        phase.late_q(1.0),
        phase.achieved_rps(),
    );
    out.gate(!phase.sender_fell_behind(), || {
        format!(
            "{what}: the load generator fell behind its schedule (median lateness {:.0}us)",
            phase.late_q(0.5)
        )
    });
}

/// The serving layers of a traced phase: client latency per class,
/// per-kind server latency, the time spent outside the server, queue
/// wait, batching, generator health and the server spans' self times.
pub fn report_layers(
    out: &mut Outcome,
    stats: &StatsReport,
    metrics: &MetricsSnapshot,
    phase: &Phase,
    self_s: &BTreeMap<String, f64>,
) {
    let lat = class_percentiles(phase, 0..phase.sent);
    for (c, class) in ["light", "heavy"].iter().enumerate() {
        for (q, (_, name)) in QUANTILES.iter().enumerate() {
            out.metric(format!("serve_{class}_{name}_us"), lat[c][q], "us");
        }
    }
    for row in stats.kinds.iter().take(4) {
        out.metric(format!("net.server_us.{}.p50", row.kind), row.p50_us, "us");
        out.metric(format!("net.server_us.{}.p99", row.kind), row.p99_us, "us");
    }
    // Means are additive, so client mean minus server mean is the time a
    // request spends outside the server: sockets, the client, Nagle.
    for (class, light) in [("light", true), ("heavy", false)] {
        let (n, sum) = (0..N_KINDS)
            .filter(|&k| k < 4 && load::is_light(k) == light)
            .map(|k| trace::hist(metrics, &format!("net.latency.{}", KIND_LABELS[k])))
            .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
        let server_mean = sum as f64 / n.max(1) as f64;
        out.metric(
            format!("net.outside_us.{class}"),
            load::class_mean_us(phase, light) - server_mean,
            "us",
        );
    }
    let (p50, p99) = match metrics.get("net.queue.wait_us") {
        Some(giant::obs::MetricValue::Histogram(h)) => (h.p50_us, h.p99_us),
        _ => (0.0, 0.0),
    };
    out.metric("net.queue_wait_us.p50", p50, "us");
    out.metric("net.queue_wait_us.p99", p99, "us");
    out.metric(
        "net.batch_mean",
        stats.served as f64 / stats.batches.max(1) as f64,
        "count",
    );
    out.metric("net.sender_late_us.p99", phase.late_q(0.99), "us");
    out.metric(
        "net.typed_errors",
        phase.count(load::Status::TypedErr) as f64,
        "count",
    );
    trace::report_self_times(out, self_s, &NET_SPANS);
}

/// The served service of one pipeline product and the request mix over
/// it: every mined concept and entity (conceptualize), entity
/// (recommend), document (tag_document) and story seed (story_tree).
pub fn prepare(setup: &GiantSetup, output: &GiantOutput, seed: u64) -> (Arc<OntologyService>, Mix) {
    let service = build_serving(setup, output).service;
    let mix = Mix::new(pools_of(setup, output, &service), 1 << 18, seed ^ 0xB0A7);
    (Arc::new(service), mix)
}

/// The request pools of `setup`'s world served by `service`.
pub fn pools_of(
    setup: &GiantSetup,
    output: &GiantOutput,
    service: &OntologyService,
) -> [Vec<giant::apps::serving::ServeRequest>; 4] {
    let entities: Vec<String> = setup
        .world
        .entities
        .iter()
        .map(|e| e.tokens.join(" "))
        .collect();
    load::pools(
        output
            .mined_of_kind(NodeKind::Concept)
            .iter()
            .map(|m| format!("best {}", m.tokens.join(" ")))
            .collect(),
        &entities,
        setup
            .corpus
            .docs
            .iter()
            .map(|d| (d.title.clone(), d.sentences.clone())),
        service.resources().stories.iter().map(|s| s.node),
    )
}

/// Checks that repeated requests got identical replies, within and
/// across `phases`, and every distinct reply against in-process serve on
/// `svc`'s frame.
fn check_replies(out: &mut Outcome, phases: &[&Phase], mix: &Mix, svc: &OntologyService) {
    let mut seen: Vec<Option<&Vec<u8>>> = vec![None; mix.pool.len()];
    let mut unstable: usize = phases.iter().map(|p| p.unstable_replies).sum();
    for phase in phases {
        for (slot, reply) in seen.iter_mut().zip(&phase.first_reply) {
            match (*slot, reply) {
                (None, Some(r)) => *slot = Some(r),
                (Some(prev), Some(r)) if prev != r => unstable += 1,
                _ => {}
            }
        }
    }
    let frame = svc.frame();
    let bad = seen
        .iter()
        .zip(&mix.pool)
        .filter(|(seen, req)| seen.is_some_and(|b| *b != load::in_process_reply(&frame, req)))
        .count();
    out.gate(bad == 0, || {
        format!("{bad} distinct wire replies differ from in-process serve")
    });
    out.gate(unstable == 0, || {
        format!("{unstable} repeated requests got differing replies")
    });
}

/// One phase of [`PROBE_REQUESTS`] at [`RATE`] against a fresh server
/// over `svc`, checked and accounted.
fn phase_on_fresh_server(
    out: &mut Outcome,
    svc: &Arc<OntologyService>,
    mix: &Mix,
    traced: bool,
) -> (Phase, StatsReport, MetricsSnapshot, BTreeMap<String, f64>) {
    let server = Server::start(Arc::clone(svc), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");
    if traced {
        trace::arm();
    }
    let phase = load::run_phase(
        &load::connect(server.local_addr()),
        mix,
        0,
        Pace::Rate(RATE),
        Until::Count(PROBE_REQUESTS),
        true,
    );
    let self_s = if traced {
        trace::disarm()
    } else {
        BTreeMap::new()
    };
    let (stats, metrics) = (server.stats_report(), server.metrics_report());
    server.shutdown();
    account(out, if traced { "traced phase" } else { "phase" }, &phase);
    check_replies(out, &[&phase], mix, svc);
    (phase, stats, metrics, self_s)
}

/// The serving layers of `svc` under `mix`: a traced phase on a fresh
/// server, plus the in-process serve and wire-codec probes. Returns the
/// traced phase's light p50, µs.
pub fn probe_layers(out: &mut Outcome, svc: &Arc<OntologyService>, mix: &Mix) -> f64 {
    let (phase, stats, metrics, self_s) = phase_on_fresh_server(out, svc, mix, true);
    report_layers(out, &stats, &metrics, &phase, &self_s);
    trace::serve_probes(out, &svc.frame(), &mix.pool);
    light_p50(&phase)
}

fn light_p50(phase: &Phase) -> f64 {
    quantile_sorted(&phase.latencies(0..phase.sent, load::is_light), 0.5)
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let t_setup = Instant::now();
    let setup = GiantSetup::generate(crate::experiment_world(args.seed));
    let models = crate::train_models();
    let output = setup.run_pipeline(&models, &GiantConfig::default());
    let (svc, mix) = prepare(&setup, &output, args.seed);
    let server = Server::start(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");
    let setup_s = t_setup.elapsed().as_secs_f64();
    eprintln!(
        "[serve] setup {setup_s:.2}s: {} docs, {} clicks, {} distinct requests",
        setup.corpus.docs.len(),
        setup.log.records.len(),
        mix.pool.len(),
    );

    if args.trace {
        server.shutdown();
        let (plain, ..) = phase_on_fresh_server(&mut out, &svc, &mix, false);
        let traced = probe_layers(&mut out, &svc, &mix);
        trace::report_overhead(&mut out, traced, light_p50(&plain));
        // The build and ingest layers do no work while this workload
        // serves; they are probed over the same world afterwards.
        build::layers(&mut out, &setup.pipeline_input(), &models);
        let (world, mix) = ingest::prepare(&setup, &models, work, args.seed);
        ingest::probe_layers(&mut out, &world, &mix, work);
        trace::kernel_probes(&mut out, &models, crate::experiment_world(args.seed));
        trace::report_world(&mut out, setup.corpus.docs.len(), setup.log.records.len());
        return out;
    }

    // The measured phase. Its requests must all succeed; they are the
    // run's attempted operations.
    let (mut rel, mut per_req_ms, mut phases) = (Vec::new(), Vec::new(), Vec::new());
    let mut cal = Calibration::all_cpus();
    // One connection for every burst: a fresh one per burst gives the
    // server a new reader thread each time, and the memory each thread's
    // allocator arena keeps made `peak_rss_mb` spread twice as much
    // between runs.
    let conn = load::connect(server.local_addr());
    let t_phase = Instant::now();
    while phases.is_empty() || t_phase.elapsed().as_secs_f64() < args.seconds {
        let first = phases.len() * BURST;
        let (r, secs, phase) = cal.relative(|| {
            load::run_phase(
                &conn,
                &mix,
                first,
                Pace::Window(BURST_WINDOW),
                Until::Count(BURST),
                true,
            )
        });
        rel.push(r);
        per_req_ms.push(secs * 1e3 / BURST as f64);
        out.attempted += phase.sent as u64;
        out.failed += (phase.failures() + phase.io_errors) as u64;
        phases.push(phase);
    }
    drop(conn);
    server.shutdown();
    check_replies(&mut out, &phases.iter().collect::<Vec<_>>(), &mix, &svc);
    eprintln!(
        "[serve] {} bursts, ms per request {per_req_ms:.4?}\n[serve] burst ref {rel:.2?}\n[serve] reference job {:.3} ms",
        phases.len(),
        cal.ref_ms()
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("op_ref", median(&rel), "ref");
    out
}
