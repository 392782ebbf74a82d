//! Open-loop traffic against a `giant_net::Server`: the request mix, one
//! connection with a sender and a receiver thread, and the latency and
//! failure accounting shared by `serve` and `ingest_serve`.
//!
//! Open loop models independent users: request `i` is due at `i / rate`
//! seconds after the epoch whether or not earlier replies arrived, and its
//! latency is taken from that due instant, so a stall is charged to every
//! request it delays. The sender sleeps until the next due instant and
//! then writes every due frame in one `write_all`; how late it ran against
//! the schedule is reported.

use crate::report::quantile_sorted;
use giant::apps::serving::{ServeRequest, ServingFrame};
use giant::net::wire::{
    decode_reply, encode_frame, encode_request_frame, read_frame, Reply, Request, FRAME_HEADER,
};
use giant::net::wire::{encode_reply_payload, kind_index};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Traffic shares of conceptualize / recommend / tag_document / story_tree.
const SHARES: [f64; 4] = [0.45, 0.30, 0.15, 0.10];

/// Request kinds in [`kind_index`] order that count as light: their
/// in-process cost is about a microsecond, so their latency is socket and
/// queue time. The rest (tag_document, story_tree) are heavy.
pub fn is_light(kind: usize) -> bool {
    kind < 2
}

/// The zipf head moves every this many requests: each kind's items are
/// re-ranked by a fresh seeded shuffle, as attention moves on to other
/// documents and events. A phase then samples several hot sets, so its
/// latency does not rest on the cost of the few items one world happens
/// to rank first (which moved `serve_heavy_p50_us` by up to 40% between
/// seeds with a fixed ranking).
const ROTATE: usize = 1000;

/// How long the receiver waits for a reply before counting the rest of a
/// phase as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Frame id of the end-of-phase sentinel (a `Stats` request, answered
/// inline by the server's reader thread).
const SENTINEL_ID: u64 = u64::MAX;

/// The distinct requests of a workload, pre-encoded, and the seeded
/// sequence of draws from them.
pub struct Mix {
    pub pool: Vec<ServeRequest>,
    payloads: Vec<Vec<u8>>,
    kinds: Vec<usize>,
    draws: Vec<u32>,
}

/// Cumulative zipf(s=1) masses for a pool of `n` ranked items.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect()
}

fn draw(rng: &mut StdRng, cum: &[f64]) -> usize {
    let x = rng.random::<f64>() * cum.last().copied().unwrap_or(0.0);
    cum.partition_point(|&c| c < x)
        .min(cum.len().saturating_sub(1))
}

impl Mix {
    /// Kind chosen by [`SHARES`], item within its kind by zipf rank (a
    /// few hot items, a long tail) under a ranking reshuffled every
    /// [`ROTATE`] draws; `n_draws` draws from `seed`. A kind whose pool is
    /// empty (a world where mining found no events has no story seeds) is
    /// left out and the other shares scale up.
    pub fn new(pools: [Vec<ServeRequest>; 4], n_draws: usize, seed: u64) -> Self {
        let live: Vec<(f64, Vec<ServeRequest>)> = SHARES
            .into_iter()
            .zip(pools)
            .filter(|(_, p)| !p.is_empty())
            .collect();
        assert!(
            !live.is_empty(),
            "the request mix needs at least one request"
        );
        let total: f64 = live.iter().map(|(s, _)| s).sum();
        let share_cum: Vec<f64> = live
            .iter()
            .scan(0.0, |acc, (s, _)| {
                *acc += s / total;
                Some(*acc)
            })
            .collect();
        let offsets: Vec<usize> = live
            .iter()
            .scan(0, |acc, (_, p)| {
                let o = *acc;
                *acc += p.len();
                Some(o)
            })
            .collect();
        let cdfs: Vec<Vec<f64>> = live.iter().map(|(_, p)| zipf_cdf(p.len())).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ranking: Vec<Vec<usize>> =
            live.iter().map(|(_, p)| (0..p.len()).collect()).collect();
        let draws = (0..n_draws)
            .map(|i| {
                if i % ROTATE == 0 {
                    for r in &mut ranking {
                        // Fisher-Yates.
                        for j in (1..r.len()).rev() {
                            r.swap(j, rng.random_range(0..=j));
                        }
                    }
                }
                let x: f64 = rng.random();
                let k = share_cum.partition_point(|&c| c < x).min(live.len() - 1);
                (offsets[k] + ranking[k][draw(&mut rng, &cdfs[k])]) as u32
            })
            .collect();
        let pool: Vec<ServeRequest> = live.into_iter().flat_map(|(_, p)| p).collect();
        let payloads = pool
            .iter()
            .map(|r| {
                let frame = encode_request_frame(0, &Request::Serve(r.clone()))
                    .expect("pool requests fit in a frame");
                frame[FRAME_HEADER..].to_vec()
            })
            .collect();
        let kinds = pool.iter().map(kind_index).collect();
        Self {
            pool,
            payloads,
            kinds,
            draws,
        }
    }

    /// Pool index of request `i` (the draw sequence repeats when a phase
    /// outruns it).
    fn item(&self, i: usize) -> usize {
        self.draws[i % self.draws.len()] as usize
    }

    /// Kind index of request `i`.
    pub fn kind(&self, i: usize) -> usize {
        self.kinds[self.item(i)]
    }
}

/// When a phase stops sending.
pub enum Until<'a> {
    /// After this many requests.
    Count(usize),
    /// Once the flag is set.
    Flag(&'a AtomicBool),
}

/// What the receiver saw for one request.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Missing,
    Ok,
    /// A typed `Reply::Err`, e.g. a story seed a publish retired.
    TypedErr,
    Shed,
    Bad,
}

/// One phase's per-request record.
pub struct Phase {
    pub rate: f64,
    /// Requests written to the socket.
    pub sent: usize,
    /// Latency from the due instant, microseconds, per request.
    pub lat_us: Vec<f64>,
    pub status: Vec<Status>,
    pub kind: Vec<usize>,
    /// How late the sender wrote each request, microseconds.
    pub late_us: Vec<f64>,
    /// Socket errors on either side.
    pub io_errors: usize,
    /// Distinct requests whose replies differed between repetitions.
    pub unstable_replies: usize,
    /// First Ok/TypedErr reply payload per pool item, when kept.
    pub first_reply: Vec<Option<Vec<u8>>>,
}

impl Phase {
    pub fn count(&self, s: Status) -> usize {
        self.status.iter().filter(|&&x| x == s).count()
    }

    /// Shed, bad and missing replies plus socket errors.
    pub fn failures(&self) -> usize {
        self.count(Status::Shed) + self.count(Status::Bad) + self.count(Status::Missing)
    }

    /// Requests answered (Ok or typed error) within the schedule's span,
    /// per second of that span: a server that keeps up answers nearly
    /// all of them; one building a backlog does not.
    pub fn achieved_rps(&self) -> f64 {
        let span_s = self.sent as f64 / self.rate;
        let answered = (0..self.sent)
            .filter(|&i| {
                matches!(self.status[i], Status::Ok | Status::TypedErr)
                    && i as f64 / self.rate + self.lat_us[i] / 1e6 <= span_s
            })
            .count();
        answered as f64 / span_s.max(1e-9)
    }

    /// Sorted latencies of answered requests in `range` whose kind passes
    /// `pick`.
    pub fn latencies(
        &self,
        range: std::ops::Range<usize>,
        pick: impl Fn(usize) -> bool,
    ) -> Vec<f64> {
        let mut v: Vec<f64> = range
            .filter(|&i| {
                matches!(self.status[i], Status::Ok | Status::TypedErr) && pick(self.kind[i])
            })
            .map(|i| self.lat_us[i])
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Sender lateness quantile, microseconds.
    pub fn late_q(&self, q: f64) -> f64 {
        let mut v = self.late_us.clone();
        v.sort_by(f64::total_cmp);
        quantile_sorted(&v, q)
    }

    /// Whether the sender fell behind its schedule: a median lateness of a
    /// millisecond means the offered rate was not really offered.
    pub fn sender_fell_behind(&self) -> bool {
        self.late_q(0.5) > 1000.0
    }
}

/// How a phase paces its requests.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Open loop: request `i` is due `i / rate` seconds after the epoch.
    Rate(f64),
    /// Closed loop: as fast as the server answers, with at most this many
    /// requests outstanding (below the admission queue's bound, so none
    /// is shed). Latencies and lateness are then not meaningful.
    Window(usize),
}

/// A client connection to the server at `addr`. A well-behaved client:
/// its own writes are not held back by Nagle, so what remains is the
/// server's behaviour.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set read timeout");
    stream
}

/// Sends `mix` (starting at draw `first`) paced by `pace` over `conn`
/// until `until`, and receives every reply; the connection is idle again
/// when this returns, so later phases can reuse it. `keep_replies` keeps
/// the first reply per pool item and compares later ones to it.
pub fn run_phase(
    conn: &TcpStream,
    mix: &Mix,
    first: usize,
    pace: Pace,
    until: Until<'_>,
    keep_replies: bool,
) -> Phase {
    let (rate, window) = match pace {
        Pace::Rate(r) => (r, usize::MAX),
        Pace::Window(w) => (f64::INFINITY, w),
    };
    let cap = match until {
        Until::Count(n) => n,
        Until::Flag(_) => usize::MAX,
    };
    let stream = conn.try_clone().expect("clone stream");
    let read_half = conn.try_clone().expect("clone stream");
    let sent_total = AtomicU64::new(0);
    let received_total = AtomicUsize::new(0);
    let epoch = Instant::now();
    let due = |i: usize| epoch + Duration::from_secs_f64(i as f64 / rate);

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut stream = stream;
            let mut late_us = Vec::new();
            let mut buf = Vec::new();
            let mut i = 0usize;
            let mut io_error = false;
            loop {
                let stop = match &until {
                    Until::Count(n) => i >= *n,
                    Until::Flag(f) => f.load(Ordering::SeqCst),
                };
                if stop {
                    break;
                }
                let now = Instant::now();
                let next = due(i);
                if now < next {
                    std::thread::sleep(next - now);
                    continue;
                }
                let room =
                    |i: usize| i.saturating_sub(received_total.load(Ordering::SeqCst)) < window;
                if !room(i) {
                    // The receiver unparks this thread on every reply.
                    std::thread::park_timeout(Duration::from_millis(1));
                    continue;
                }
                buf.clear();
                while i < cap && due(i) <= now && room(i) {
                    late_us.push((now - due(i)).as_secs_f64() * 1e6);
                    let payload = mix.payloads[mix.item(first + i)].clone();
                    buf.extend(encode_frame(i as u64 + 1, payload).expect("frame fits"));
                    i += 1;
                }
                if stream.write_all(&buf).is_err() {
                    io_error = true;
                    break;
                }
            }
            sent_total.store(i as u64, Ordering::SeqCst);
            let sentinel = encode_request_frame(SENTINEL_ID, &Request::Stats).expect("stats frame");
            if !io_error && stream.write_all(&sentinel).is_err() {
                io_error = true;
            }
            (late_us, io_error)
        });

        let sender_thread = sender.thread().clone();
        // Receiver: this thread.
        let mut reader = BufReader::new(read_half);
        let mut lat_us = Vec::new();
        let mut status = Vec::new();
        let mut first_reply: Vec<Option<Vec<u8>>> = vec![None; mix.pool.len()];
        let mut unstable = 0usize;
        let mut received = 0usize;
        let mut sentinel_seen = false;
        let mut recv_error = false;
        loop {
            if sentinel_seen && received as u64 == sent_total.load(Ordering::SeqCst) {
                break;
            }
            let (id, payload) = match read_frame(&mut reader) {
                Ok(f) => f,
                Err(_) => {
                    recv_error = true;
                    // Unblock a sender stuck on a full socket.
                    let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
                    break;
                }
            };
            let now = Instant::now();
            if id == SENTINEL_ID {
                sentinel_seen = true;
                continue;
            }
            let Some(idx) = (id as usize).checked_sub(1) else {
                continue;
            };
            if idx >= status.len() {
                status.resize(idx + 1, Status::Missing);
                lat_us.resize(idx + 1, f64::NAN);
            }
            received += 1;
            received_total.store(received, Ordering::SeqCst);
            sender_thread.unpark();
            lat_us[idx] = (now - due(idx)).as_secs_f64() * 1e6;
            status[idx] = match decode_reply(&payload) {
                Ok(Reply::Ok(_)) => Status::Ok,
                Ok(Reply::Err(_)) => Status::TypedErr,
                Ok(Reply::Shed { .. }) => Status::Shed,
                _ => Status::Bad,
            };
            if keep_replies && matches!(status[idx], Status::Ok | Status::TypedErr) {
                let slot = &mut first_reply[mix.item(first + idx)];
                match slot {
                    None => *slot = Some(payload),
                    Some(prev) if *prev != payload => unstable += 1,
                    Some(_) => {}
                }
            }
        }
        let (late_us, send_error) = sender.join().expect("sender thread panicked");
        let sent = sent_total.load(Ordering::SeqCst) as usize;
        status.resize(sent, Status::Missing);
        lat_us.resize(sent, f64::NAN);
        Phase {
            rate,
            sent,
            kind: (0..sent).map(|i| mix.kind(first + i)).collect(),
            lat_us,
            status,
            late_us,
            io_errors: usize::from(send_error) + usize::from(recv_error),
            unstable_replies: unstable,
            first_reply,
        }
    })
}

/// The reply bytes `frame` gives `req` in process — what the wire must
/// carry.
pub fn in_process_reply(frame: &ServingFrame, req: &ServeRequest) -> Vec<u8> {
    let reply = match frame.serve(req) {
        Ok(r) => Reply::Ok(r),
        Err(e) => Reply::Err(e),
    };
    encode_reply_payload(&reply).expect("reply fits in a frame")
}

/// The latency quantiles reported per class, with their name suffixes.
pub const QUANTILES: [(f64, &str); 2] = [(0.50, "p50"), (0.99, "p99")];

/// Latency in µs per class (light, heavy) and [`QUANTILES`] entry.
pub type ClassLatency = [[f64; 2]; 2];

/// [`ClassLatency`] of the answered requests in `range`.
pub fn class_percentiles(phase: &Phase, range: std::ops::Range<usize>) -> ClassLatency {
    [true, false].map(|light| {
        let v = phase.latencies(range.clone(), |k| is_light(k) == light);
        QUANTILES.map(|(q, _)| quantile_sorted(&v, q))
    })
}

/// Mean client latency of answered requests of the given class.
pub fn class_mean_us(phase: &Phase, light: bool) -> f64 {
    let v = phase.latencies(0..phase.sent, |k| is_light(k) == light);
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The four request pools from a serving frame's view of the world:
/// every mined concept, entity, document and story seed.
pub fn pools(
    concept_queries: Vec<String>,
    entity_names: &[String],
    docs: impl Iterator<Item = (String, Vec<String>)>,
    stories: impl Iterator<Item = giant::ontology::NodeId>,
) -> [Vec<ServeRequest>; 4] {
    let mut conceptualize: Vec<ServeRequest> = concept_queries
        .into_iter()
        .map(|query| ServeRequest::Conceptualize { query })
        .collect();
    conceptualize.extend(entity_names.iter().map(|e| ServeRequest::Conceptualize {
        query: format!("{e} review"),
    }));
    let recommend = entity_names
        .iter()
        .map(|e| ServeRequest::Recommend {
            query: format!("{e} news"),
        })
        .collect();
    let tag = docs
        .map(|(title, sentences)| ServeRequest::TagDocument { title, sentences })
        .collect();
    let story = stories
        .map(|seed| ServeRequest::StoryTree { seed })
        .collect();
    [conceptualize, recommend, tag, story]
}
