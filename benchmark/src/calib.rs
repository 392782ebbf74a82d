//! A fixed reference job that measures how fast the host runs right now.
//!
//! On a small shared host the speed one process gets moves by up to 1.7x
//! for seconds to minutes at a time as other tenants come and go, and
//! every timing of the program moves with it. The benchmark times this
//! job, which is its own code and never the program's, beside each timed
//! operation, and reports the operation's time in units of the job's
//! time: a program change moves the ratio, a change of host speed moves
//! both sides of it.
//! The job mixes what the pipeline does: random reads from a map larger
//! than a core's cache, string hashing into a map, small dense
//! matrix-vector products and a sort.

use crate::report::median;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64, so the job is the same on every host and run.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

/// Entries of [`table`]: about 8 MiB, four times a core's L2 cache.
const TABLE_LEN: u64 = 1 << 18;

/// The key of entry `i` of [`table`].
fn key(i: u64) -> u64 {
    mix(7u64.wrapping_add((i + 1).wrapping_mul(GAMMA)))
}

/// The map the job reads at random; built once per process.
fn table() -> &'static HashMap<u64, u64> {
    static TABLE: OnceLock<HashMap<u64, u64>> = OnceLock::new();
    TABLE.get_or_init(|| (0..TABLE_LEN).map(|i| (key(i), i)).collect())
}

/// One pass of the reference job; returns a checksum so nothing is
/// optimised away.
fn job() -> u64 {
    // Each pass reads other entries, so no pass finds them cached.
    static PASSES_RUN: AtomicU64 = AtomicU64::new(0);
    let mut s = PASSES_RUN.fetch_add(1, Ordering::Relaxed);
    let table = table();
    let mut hits = 0u64;
    for _ in 0..100_000 {
        let i = next(&mut s) % TABLE_LEN;
        hits = hits.wrapping_add(table.get(&key(i)).copied().unwrap_or(0));
    }
    // Word counts over a token stream drawn from a 4,096-word vocabulary.
    let vocab: Vec<String> = (0..4096).map(|i| format!("w{i}x{}", i * 7919)).collect();
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for _ in 0..60_000 {
        *counts
            .entry(&vocab[(next(&mut s) % 4096) as usize])
            .or_insert(0) += 1;
    }
    // Dense 32x32 matrix-vector products, the size of the R-GCN layers.
    let m: Vec<f64> = (0..32 * 32)
        .map(|_| (next(&mut s) % 1000) as f64 / 1e3)
        .collect();
    let mut v: Vec<f64> = (0..32).map(|i| i as f64 / 32.0).collect();
    for _ in 0..2_000 {
        v = (0..32)
            .map(|r| (0..32).map(|c| m[r * 32 + c] * v[c]).sum::<f64>().tanh())
            .collect();
    }
    let mut keys: Vec<u64> = (0..60_000).map(|_| next(&mut s)).collect();
    keys.sort_unstable();
    hits ^ counts.len() as u64 ^ keys[keys.len() / 2] ^ v[0].to_bits()
}

/// Passes of the job per probe; a probe reads their median.
const PASSES: usize = 3;

/// One pass: `threads` copies of the job at once, each on its own
/// thread; returns the mean of their times, seconds.
fn pass(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let copies: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let t = Instant::now();
                    std::hint::black_box(job());
                    t.elapsed().as_secs_f64()
                })
            })
            .collect();
        copies
            .into_iter()
            .map(|c| c.join().expect("reference job panicked"))
            .sum::<f64>()
            / threads as f64
    })
}

/// Times operations against the reference job run just before and just
/// after each one.
pub struct Calibration {
    /// Copies of the job each pass runs at once.
    threads: usize,
    /// Every probe's reading, seconds.
    probes: Vec<f64>,
}

impl Calibration {
    /// For operations that keep one thread busy (a build, an ingest
    /// call): one copy of the job at a time.
    pub fn single() -> Self {
        Self {
            threads: 1,
            probes: Vec::new(),
        }
    }

    /// For operations that keep every CPU busy (a server under a
    /// closed-loop burst): a copy of the job per CPU, because a tenant
    /// that slows one CPU of a small host slows the server without
    /// slowing a single job that happens to run on the other. Over seven
    /// to ten seeds this cut the spread (interquartile range over median)
    /// of `serve`'s ratio from 0.23 to 0.10, while for ingest calls it
    /// widened it from 0.05 to 0.12.
    pub fn all_cpus() -> Self {
        Self {
            threads: crate::report::nproc(),
            probes: Vec::new(),
        }
    }

    /// The job's time now: the median of [`PASSES`] passes, seconds.
    pub fn probe(&mut self) -> f64 {
        let passes: Vec<f64> = (0..PASSES).map(|_| pass(self.threads)).collect();
        let secs = median(&passes);
        self.probes.push(secs);
        secs
    }

    /// Runs `f` between two probes; returns its time in units of the
    /// job's mean time around it, its wall seconds and its result.
    pub fn relative<T>(&mut self, f: impl FnOnce() -> T) -> (f64, f64, T) {
        let before = self.probe();
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        let after = self.probe();
        (secs / ((before + after) / 2.0), secs, r)
    }

    /// The job's median time over every probe, milliseconds.
    pub fn ref_ms(&self) -> f64 {
        median(&self.probes) * 1e3
    }
}
