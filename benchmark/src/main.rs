//! End-to-end benchmark for GIANT: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <build|serve|ingest_serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload generates its inputs from `--seed`, times everything
//! before its measured phase as `setup_s`, measures for about `--seconds`,
//! checks its outputs, and prints one JSON object as the last line of
//! stdout: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the workload's end-to-end metrics; with
//! `--trace 1` the run arms `giant-obs`, runs the outside-in kernel probes
//! and reports per-layer metrics instead. A run whose correctness gate
//! fails prints `"correct": false` with no metrics and exits non-zero.
//! Human-readable detail goes to stderr. `benchmark/METRICS.md` maps each
//! per-layer metric to the end-to-end metric it should move.

mod build;
mod calib;
mod ingest;
mod load;
mod report;
mod serve;
mod trace;

use giant::adapter::{to_training_clusters, GiantSetup, ModelTrainConfig};
use giant::data::{tile_config, ClickConfig, WorldConfig};
use giant::mining::train::{train_phrase_model, train_role_model};
use giant::mining::GiantModels;
use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .ok_or("--seconds must be a number in (0, 600]")?;
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The experiment world `--seed` generates (one tile of it, for `build`).
pub fn experiment_world(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ..WorldConfig::experiment()
    }
}

/// The spam-filtered click log every workload but `serve` mines: 1%
/// residual uniform noise.
pub fn filtered_clicks() -> ClickConfig {
    ClickConfig {
        noise_fraction: 0.01,
        ..ClickConfig::default()
    }
}

/// The models every workload mines with: the paper-sized configuration
/// (`ModelTrainConfig::default()`) trained on tile 0 of the default
/// experiment world, as `GiantSetup::train_models` trains them, less the
/// concept-only phrase model it trains for its loss report and drops.
/// The phrase and role models train at once, one per thread, which
/// halves the set-up every run pays. Training is part of every
/// workload's set-up, but its world does not follow `--seed`: on some
/// world seeds (6 and 15, for example) GCTSP training degenerates and
/// the pipeline mines nothing, which would make runs with different
/// seeds measure different work. The models are tile-agnostic (the
/// domain templates repeat), so the seeded worlds mine comparable
/// ontologies with them.
pub fn train_models() -> GiantModels {
    let tile0 = GiantSetup::generate_with(
        tile_config(&WorldConfig::experiment(), 0),
        &filtered_clicks(),
    );
    let cfg = ModelTrainConfig::default();
    let annotator = tile0.world.annotator();
    let emd_train = to_training_clusters(&tile0.emd.train);
    // The phrase model sees event clusters too, so the pipeline mines
    // both kinds.
    let mut all_train = to_training_clusters(&tile0.cmd.train);
    all_train.extend(emd_train.iter().cloned());
    std::thread::scope(|scope| {
        let role = scope.spawn(|| train_role_model(&emd_train, &annotator, cfg.role).0);
        let phrase_model = train_phrase_model(&all_train, &annotator, cfg.phrase).0;
        GiantModels {
            phrase_model,
            role_model: role.join().expect("role-model training panicked"),
        }
    })
}

/// A scratch directory under the working directory, removed on drop (also
/// when a gate fails), so a run leaves nothing behind in its checkout.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <build|serve|ingest_serve> --seed <n> --seconds <s> --trace <0|1>\nerror: {e}");
            return ExitCode::from(2);
        }
    };
    // Arming must be an explicit choice of this run, never inherited.
    giant::obs::arm(false);
    let work = match WorkDir::new(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot create work directory: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[bench] workload={} seed={} seconds={} trace={} nproc={} hardware_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        report::nproc(),
        giant_exec::hardware_threads()
    );
    let outcome: Outcome = match args.workload.as_str() {
        "build" => build::run(&args, work.path()),
        "serve" => serve::run(&args, work.path()),
        "ingest_serve" => ingest::run(&args, work.path()),
        other => {
            eprintln!("unknown workload {other:?} (expected build, serve or ingest_serve)");
            return ExitCode::from(2);
        }
    };
    drop(work);
    outcome.print()
}
