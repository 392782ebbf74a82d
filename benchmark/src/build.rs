//! `build`: batch ontology construction of a tiled experiment world at
//! one thread, K=1 then K=4 shards per iteration.
//!
//! The mining kernel (QTIG, GCTSP forward, role forward,
//! `event_elements`), the walks and federation do all the work; net,
//! serving and the WAL do none. One thread, because both build targets
//! are per-core and multi-thread timings on a small shared host are not
//! steady.

use crate::calib::Calibration;
use crate::report::{median, peak_rss_mb, Outcome};
use crate::{ingest, serve, trace, Args};
use giant::adapter::GiantSetup;
use giant::data::tile_config;
use giant::incr::union_input;
use giant::mining::{GiantConfig, GiantModels, GiantOutput, PipelineInput};
use std::path::Path;
use std::time::Instant;

/// Tiles of the experiment world the workload builds.
const TILES: usize = 1;

fn config(shards: usize, threads: usize) -> GiantConfig {
    GiantConfig {
        shards,
        threads,
        ..GiantConfig::default()
    }
}

/// One timed build: seconds and the product.
fn timed_build(
    input: &PipelineInput,
    models: &GiantModels,
    cfg: &GiantConfig,
) -> (f64, GiantOutput) {
    let t = Instant::now();
    let out = giant::mining::run_pipeline(input, models, cfg);
    (t.elapsed().as_secs_f64(), out)
}

fn dump(out: &GiantOutput) -> String {
    giant::ontology::io::dump(&out.ontology)
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let t_setup = Instant::now();
    let base = crate::experiment_world(args.seed);
    let stream = GiantSetup::scaled_corpus_stream(base, &crate::filtered_clicks(), TILES);
    let input = union_input(
        stream.categories.clone(),
        stream.annotator.clone(),
        &[stream.as_one_batch()],
    );
    let models = crate::train_models();
    let setup_s = t_setup.elapsed().as_secs_f64();
    let n_docs = input.docs.len();
    eprintln!(
        "[build] setup {setup_s:.2}s: {TILES} tiles, {n_docs} docs, {} queries, {} clicks",
        input.click_graph.n_queries(),
        stream.clicks.len()
    );

    let first_k1;
    if args.trace {
        let (plain, o1) = timed_build(&input, &models, &config(1, 1));
        out.attempted += 1;
        first_k1 = dump(&o1);
        let (traced, t1) = layers(&mut out, &input, &models);
        out.gate(first_k1 == dump(&t1), || {
            "traced K=1 build differs from the untraced one".into()
        });
        trace::report_overhead(&mut out, traced, plain);
        // The serving and ingest layers do no work here; they are probed
        // over tile 0 of the same seeded world, after the builds.
        let tile0 = GiantSetup::generate_with(tile_config(&base, 0), &crate::filtered_clicks());
        let t0_out = tile0.run_pipeline(&models, &GiantConfig::default());
        let (svc, mix) = serve::prepare(&tile0, &t0_out, args.seed);
        serve::probe_layers(&mut out, &svc, &mix);
        let (world, mix) = ingest::prepare(&tile0, &models, work, args.seed);
        ingest::probe_layers(&mut out, &world, &mix, work);
        trace::kernel_probes(&mut out, &models, base);
        trace::report_world(&mut out, n_docs, stream.clicks.len());
    } else {
        let (op_ref, k1) = measure(args, &input, &models, &mut out);
        first_k1 = k1;
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.metric("op_ref", op_ref, "ref");
    }

    // Thread invariance, outside timing: K=1 at every hardware thread.
    let threads = giant_exec::hardware_threads();
    let (_, wide) = timed_build(&input, &models, &config(1, threads));
    out.attempted += 1;
    out.gate(first_k1 == dump(&wide), || {
        format!("K=1 build at threads={threads} differs from threads=1")
    });
    out
}

/// The measured phase: a K=1 then a K=4 build, repeated until the time is
/// spent, with a reading of the reference job before every build and
/// after the last; every iteration's dump must equal the first one at its
/// K. Returns the median pair's time in units of the reference job's
/// median time, and the K=1 dump. A build takes about 2 s, long enough
/// for the host's speed to change within it, so the run's median reading
/// is a steadier measure of that speed than the readings next to each
/// build.
fn measure(
    args: &Args,
    input: &PipelineInput,
    models: &GiantModels,
    out: &mut Outcome,
) -> (f64, String) {
    let mut first: [Option<String>; 2] = [None, None];
    let mut secs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut cal = Calibration::single();
    let t_phase = Instant::now();
    while secs[0].is_empty() || t_phase.elapsed().as_secs_f64() < args.seconds {
        for (slot, shards) in [1, 4].into_iter().enumerate() {
            cal.probe();
            let (s, o) = timed_build(input, models, &config(shards, 1));
            out.attempted += 1;
            secs[slot].push(s);
            let d = dump(&o);
            match &first[slot] {
                None => first[slot] = Some(d),
                Some(f) => out.gate(*f == d, || {
                    format!(
                        "K={shards} iteration {} differs from the first",
                        secs[slot].len()
                    )
                }),
            }
        }
    }
    cal.probe();
    eprintln!(
        "[build] K=1 secs {:.3?}\n[build] K=4 secs {:.3?}\n[build] reference job {:.3} ms",
        secs[0],
        secs[1],
        cal.ref_ms()
    );
    let pairs: Vec<f64> = secs[0].iter().zip(&secs[1]).map(|(a, b)| a + b).collect();
    (
        median(&pairs) * 1e3 / cal.ref_ms(),
        first[0].take().unwrap_or_default(),
    )
}

/// The build layers of `input`: a traced K=1 and a traced K=4 build at
/// one thread, reported from `GiantOutput::timings`, the pipeline span's
/// self time and the ontology sizes. Returns the traced K=1 build's
/// seconds and product.
pub fn layers(
    out: &mut Outcome,
    input: &PipelineInput,
    models: &GiantModels,
) -> (f64, GiantOutput) {
    trace::arm();
    let (s1, k1) = timed_build(input, models, &config(1, 1));
    let self_k1 = trace::disarm();
    trace::arm();
    let (_, k4) = timed_build(input, models, &config(4, 1));
    let self_k4 = trace::disarm();
    out.attempted += 2;
    report_layers(out, &k1, &k4);
    // The stage spans have no children, so their self times are the
    // stage seconds; the root's self time is what no stage covers.
    for (tag, self_s) in [("k1", &self_k1), ("k4", &self_k4)] {
        out.metric(
            format!("span.pipeline.self_s.{tag}"),
            self_s.get("pipeline").copied().unwrap_or(0.0),
            "s",
        );
    }
    (s1, k1)
}

/// Stage seconds from `GiantOutput::timings` and ontology sizes.
fn report_layers(out: &mut Outcome, k1: &GiantOutput, k4: &GiantOutput) {
    let get = |o: &GiantOutput, stage: &str| o.timings.get(stage).unwrap_or(0.0);
    let sum = |o: &GiantOutput, pred: &dyn Fn(&str) -> bool| -> f64 {
        o.timings
            .entries()
            .iter()
            .filter(|(n, _)| pred(n))
            .map(|(_, s)| s)
            .sum()
    };
    out.metric("text.text_sync_s.k1", get(k1, "text_sync"), "s");
    out.metric("text.text_sync_s.k4", get(k4, "text_sync"), "s");
    out.metric("graph.plan_s", get(k1, "mine.plan"), "s");
    out.metric("core.mine_execute_s", get(k1, "mine.execute"), "s");
    out.metric("core.event_elements_s", get(k1, "event_elements"), "s");
    out.metric(
        "core.tail_s",
        sum(k1, &|n| {
            n == "mine.merge" || n.starts_with("link_") || n.starts_with("derive_")
        }),
        "s",
    );
    out.metric("core.shard_partition_s", get(k4, "shard.partition"), "s");
    out.metric(
        "core.shard_mine_max_s",
        k4.timings
            .entries()
            .iter()
            .filter(|(n, _)| n.starts_with("shard.mine."))
            .map(|(_, s)| *s)
            .fold(0.0, f64::max),
        "s",
    );
    out.metric(
        "core.federate_s",
        get(k4, "federate.align") + get(k4, "federate.merge"),
        "s",
    );
    for (tag, o) in [("k1", k1), ("k4", k4)] {
        let stats = o.ontology.stats();
        out.metric(
            format!("ontology.nodes.{tag}"),
            stats.total_nodes() as f64,
            "count",
        );
        out.metric(
            format!("ontology.edges.{tag}"),
            stats.total_edges() as f64,
            "count",
        );
    }
}
