//! The traced run's instruments: arming `giant-obs` around a phase and
//! reading back the spans the program already records, plus the
//! outside-in probes that time single kernels through public APIs. Probes
//! run only in traced runs, after the measured phases, so they never
//! perturb an end-to-end number.

use crate::load::in_process_reply;
use crate::report::{median, Outcome};
use giant::adapter::GiantSetup;
use giant::apps::serving::{ServeRequest, ServingFrame};
use giant::data::MiningExample;
use giant::data::{tile_config, WorldConfig};
use giant::mining::{build_cluster_qtig, GiantModels};
use giant::net::wire::{decode_reply, encode_request_frame, Request};
use giant::net::wire::{kind_index, KIND_LABELS, N_KINDS};
use giant::obs::{MetricValue, MetricsSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Arms span recording and the folded-stacks profiler from a clean slate.
pub fn arm() {
    giant::obs::clear_profile();
    giant::obs::clear_recent_spans();
    giant::obs::set_profiling(true);
    giant::obs::arm(true);
}

/// Disarms and returns the self time (seconds) accumulated per span name
/// since [`arm`], summed over every stack the span appeared in.
pub fn disarm() -> BTreeMap<String, f64> {
    giant::obs::arm(false);
    giant::obs::set_profiling(false);
    let mut self_s = BTreeMap::new();
    for line in giant::obs::folded_stacks().lines() {
        let Some((path, us)) = line.rsplit_once(' ') else {
            continue;
        };
        let leaf = path.rsplit(';').next().unwrap_or(path);
        // Per-shard spans fold into one name: their sum is the shards'
        // total mining time.
        let leaf = if leaf.starts_with("shard.mine.") {
            "shard.mine"
        } else {
            leaf
        };
        *self_s.entry(leaf.to_string()).or_insert(0.0) += us.parse::<f64>().unwrap_or(0.0) / 1e6;
    }
    self_s
}

/// Reports `span.<name>.self_s` for each of `names` (0 when the span did
/// not run).
pub fn report_self_times(out: &mut Outcome, self_s: &BTreeMap<String, f64>, names: &[&str]) {
    for name in names {
        out.metric(
            format!("span.{name}.self_s"),
            self_s.get(*name).copied().unwrap_or(0.0),
            "s",
        );
    }
}

/// The registry histogram `name` as (count, sum µs), 0 when unregistered.
pub fn hist(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    match snap.get(name) {
        Some(MetricValue::Histogram(h)) => (h.count, h.sum_us),
        _ => (0, 0),
    }
}

/// Tracing overhead: the traced measurement `traced` over the untraced
/// `plain` one (1.02 = tracing made it 2% slower).
pub fn report_overhead(out: &mut Outcome, traced: f64, plain: f64) {
    out.metric(
        "obs.traced_over_untraced",
        traced / plain.max(1e-12),
        "ratio",
    );
}

/// Host facts (CPUs, and the reference job's time, which converts the
/// end-to-end `ref` units to milliseconds on this host) and the
/// workload's input size, which every traced run records.
pub fn report_world(out: &mut Outcome, docs: usize, clicks: usize) {
    out.metric("host.nproc", crate::report::nproc() as f64, "count");
    out.metric(
        "host.hardware_threads",
        giant_exec::hardware_threads() as f64,
        "count",
    );
    let mut cal = crate::calib::Calibration::single();
    for _ in 0..5 {
        cal.probe();
    }
    out.metric("host.ref_ms", cal.ref_ms(), "ms");
    out.metric("world.docs", docs as f64, "count");
    out.metric("world.clicks", clicks as f64, "count");
}

/// Median over `reps` passes of the mean per-item time of `f`, µs.
fn per_item_us<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let passes: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for it in items {
                f(it);
            }
            t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
        })
        .collect();
    median(&passes)
}

/// Build-kernel probes over the CMD/EMD test-split clusters of tile 0 of
/// `base`: QTIG construction, the GCTSP phrase forward and the role
/// forward, each as mean µs per cluster.
pub fn kernel_probes(out: &mut Outcome, models: &GiantModels, base: WorldConfig) {
    let tile0 = GiantSetup::generate_with(tile_config(&base, 0), &crate::filtered_clicks());
    let annotator = &tile0.world.annotator();
    let (cmd_test, emd_test) = (&tile0.cmd.test, &tile0.emd.test);
    let clusters: Vec<&MiningExample> = cmd_test.iter().chain(emd_test).collect();
    let qtig_us = per_item_us(&clusters, 3, |c| {
        std::hint::black_box(build_cluster_qtig(annotator, &c.queries, &c.titles));
    });
    let qtigs: Vec<_> = clusters
        .iter()
        .map(|c| build_cluster_qtig(annotator, &c.queries, &c.titles))
        .collect();
    let gctsp_us = per_item_us(&qtigs, 3, |q| {
        std::hint::black_box(models.phrase_model.predict_positive_nodes(q));
    });
    let event_qtigs = &qtigs[cmd_test.len()..];
    let role_us = per_item_us(event_qtigs, 3, |q| {
        std::hint::black_box(models.role_model.predict_classes(q));
    });
    out.metric("core.qtig_build_us", qtig_us, "us");
    out.metric("nn.gctsp_forward_us", gctsp_us, "us");
    out.metric("nn.role_forward_us", role_us, "us");
    out.metric("probe.clusters", clusters.len() as f64, "count");
}

/// In-process serve time per kind over the request pool (median of the
/// per-request medians of three passes), and the client-side wire codec
/// cost per request (encode the request frame, decode the reply).
pub fn serve_probes(out: &mut Outcome, frame: &ServingFrame, pool: &[ServeRequest]) {
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); N_KINDS];
    for req in pool {
        let passes: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let _ = std::hint::black_box(frame.serve(req));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        by_kind[kind_index(req)].push(median(&passes));
    }
    for (k, times) in by_kind.iter().enumerate().take(4) {
        out.metric(
            format!("apps.serve_us.{}", KIND_LABELS[k]),
            median(times),
            "us",
        );
    }
    let replies: Vec<Vec<u8>> = pool.iter().map(|r| in_process_reply(frame, r)).collect();
    let items: Vec<(&ServeRequest, &Vec<u8>)> = pool.iter().zip(&replies).collect();
    let wire_us = per_item_us(&items, 5, |(req, reply)| {
        let frame = encode_request_frame(1, &Request::Serve((*req).clone())).expect("encode");
        std::hint::black_box(frame);
        std::hint::black_box(decode_reply(reply).expect("decode"));
    });
    out.metric("net.wire_us", wire_us, "us");
}
