//! Per-layer probes for the traced run: timed calls into each crate's
//! public functions from outside, shaped by the workload where the
//! layer's load depends on it.

use sct_admission::Controller;
use sct_cluster::{ClusterSpec, PlacementStrategy, ReplicaMap, ServerId};
use sct_core::config::SimConfig;
use sct_media::{Catalog, ClientProfile, VideoId};
use sct_simcore::{EventQueue, Exponential, Rng, SimTime, ZipfLike};
use sct_transmission::{
    allocate_incremental, AllocScratch, SchedulerKind, ServerEngine, Stream, StreamId,
};
use sct_workload::{calibrated_rate, RequestGenerator};
use std::hint::black_box;
use std::time::Instant;

/// The paper's view rate, Mb/s.
const VIEW_RATE: f64 = 3.0;
/// The paper's client receive cap, Mb/s.
const RECEIVE_CAP: f64 = 30.0;
/// Timed batches per measurement; the median batch is reported.
const BATCHES: usize = 7;

pub type Metrics = Vec<(String, f64, &'static str)>;

/// The `q`-quantile of `xs`, interpolating linearly between order
/// statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = (xs.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median over [`BATCHES`] of the mean host nanoseconds per call of `op`
/// run `per_batch` times.
fn ns_per_call(per_batch: usize, mut op: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&xs)
}

/// A playback stream of a 10–20 minute video, as on the `huge` system.
fn stream(id: u64, rng: &mut Rng, now: SimTime) -> Stream {
    let size_mb = rng.range_f64(600.0, 1200.0) * VIEW_RATE;
    let client = ClientProfile::new(0.2 * 900.0 * VIEW_RATE, RECEIVE_CAP);
    Stream::new(
        StreamId(id),
        VideoId((id % 100) as u32),
        size_mb,
        VIEW_RATE,
        client,
        now,
    )
}

/// `transmission.*`: one server engine loaded to `s - 1` of its `s` view
/// slots (admissions spread over a few simulated seconds, nothing yet
/// finished), for each streams-per-server point of the scaling row.
pub fn transmission(seed: u64) -> Metrics {
    let mut out = Metrics::new();
    for s in [33usize, 100, 1000, 4000] {
        let mut rng = Rng::new(seed ^ s as u64);
        let capacity = s as f64 * VIEW_RATE;
        let mut engine = ServerEngine::new(ServerId(0), capacity, SchedulerKind::Eftf);
        let mut now = SimTime::ZERO;
        for id in 0..s as u64 - 1 {
            now = SimTime::from_secs(id as f64 * 0.01);
            engine.admit(stream(id, &mut rng, now), now);
        }
        let extra = stream(s as u64, &mut rng, now);
        let per_batch = (200_000 / s).max(5);
        let admits: Vec<f64> = (0..(per_batch * BATCHES).min(101))
            .map(|_| {
                let mut e = engine.clone();
                let st = extra.clone();
                let t0 = Instant::now();
                black_box(e.admit(st, now));
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        let mut e = engine.clone();
        let mut t = now;
        let advance = ns_per_call(per_batch, || {
            t += 1e-4;
            e.advance_to(t);
        });
        let mut e = engine.clone();
        let reschedule = ns_per_call(per_batch, || {
            black_box(e.reschedule(now));
        });
        let next_event = ns_per_call(per_batch, || {
            black_box(engine.next_event_after(now));
        });
        let mut e = engine.clone();
        let reap = ns_per_call(per_batch, || {
            black_box(e.reap_finished(now));
        });
        let mut streams = engine.streams().to_vec();
        let mut scratch = AllocScratch::default();
        let allocate = ns_per_call(per_batch, || {
            black_box(allocate_incremental(
                SchedulerKind::Eftf,
                capacity,
                now,
                &mut streams,
                &mut scratch,
            ));
        });
        for (op, v) in [
            ("admit", median(&admits)),
            ("advance_to", advance),
            ("reschedule", reschedule),
            ("next_event_after", next_event),
            ("reap_finished", reap),
            ("allocate", allocate),
        ] {
            out.push((format!("transmission.{op}_ns.s{s}"), v, "ns"));
        }
    }
    out
}

/// Wake payload of the queue pattern: a server and its wake generation,
/// or the arrival stream.
#[derive(Clone, Copy)]
enum Wake {
    Arrival,
    Server(u32, u64),
}

/// `simcore.*`: the event loop's queue pattern replayed against
/// `EventQueue` directly. One arrival stream at the workload's calibrated
/// rate; every arrival re-arms a random server (leaving its pending wake
/// stale), and every live wake re-arms its own server one mean
/// inter-completion gap later. Push and pop are timed per call with the
/// clock's own read cost subtracted.
pub fn simcore(config: &SimConfig, seed: u64) -> Metrics {
    const POPS: usize = 300_000;
    let system = &config.system;
    let servers = system.n_servers;
    let rate = arrival_rate(config, seed);
    let mean_length = 0.5 * (system.video_length_secs.0 + system.video_length_secs.1);
    let wake_gap = Exponential::new(system.svbr() as f64 / mean_length);
    let arrival_gap = Exponential::new(rate);
    let mut rng = Rng::new(seed);
    let mut gens = vec![0u64; servers];
    let mut queue: EventQueue<Wake> = EventQueue::with_capacity(1024);
    queue.push(SimTime::ZERO, Wake::Arrival);
    for s in 0..servers {
        queue.push(
            SimTime::ZERO + wake_gap.sample(&mut rng),
            Wake::Server(s as u32, 0),
        );
    }
    let clock = clock_ns();
    let (mut push_ns, mut pushes, mut pop_ns, mut stale) = (0.0, 0u64, 0.0, 0u64);
    let mut timed_push = |q: &mut EventQueue<Wake>, t: SimTime, w: Wake| {
        let t0 = Instant::now();
        q.push(t, w);
        push_ns += t0.elapsed().as_nanos() as f64 - clock;
        pushes += 1;
    };
    for _ in 0..POPS {
        let t0 = Instant::now();
        let entry = queue.pop().expect("the arrival stream never drains");
        pop_ns += t0.elapsed().as_nanos() as f64 - clock;
        let now = entry.time;
        match entry.payload {
            Wake::Arrival => {
                let s = rng.below(servers);
                gens[s] += 1;
                timed_push(
                    &mut queue,
                    now + wake_gap.sample(&mut rng),
                    Wake::Server(s as u32, gens[s]),
                );
                timed_push(
                    &mut queue,
                    now + arrival_gap.sample(&mut rng),
                    Wake::Arrival,
                );
            }
            Wake::Server(s, g) if g != gens[s as usize] => stale += 1,
            Wake::Server(s, _) => {
                let s = s as usize;
                gens[s] += 1;
                timed_push(
                    &mut queue,
                    now + wake_gap.sample(&mut rng),
                    Wake::Server(s as u32, gens[s]),
                );
            }
        }
    }
    let counters = queue.counters();
    vec![
        ("simcore.push_ns".into(), push_ns / pushes as f64, "ns"),
        ("simcore.pop_ns".into(), pop_ns / POPS as f64, "ns"),
        (
            "simcore.stale_pop_ratio".into(),
            stale as f64 / POPS as f64,
            "ratio",
        ),
        (
            "simcore.scanned_per_pop".into(),
            counters.scanned as f64 / POPS as f64,
            "count",
        ),
        ("simcore.rebuilds".into(), counters.rebuilds as f64, "count"),
    ]
}

/// Median cost of one back-to-back pair of clock reads, ns.
fn clock_ns() -> f64 {
    let xs: Vec<f64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&xs)
}

/// The calibrated (100 % offered load) arrival rate of `config`'s system
/// at its θ, per second.
fn arrival_rate(config: &SimConfig, seed: u64) -> f64 {
    let catalog = config.system.catalog(&mut Rng::new(seed));
    let popularity = ZipfLike::new(catalog.len(), config.theta);
    calibrated_rate(
        config.system.total_bandwidth_mbps(),
        &catalog,
        popularity.probs(),
    )
}

/// `admission.admit_ns.*`: `Controller::admit` on `n` Large-type servers
/// (100 view slots each) after even placement, every fourth server one
/// tenth below full and the rest full, so requests split between direct
/// placement, migration (with DRM) and rejection. Each sample admits into
/// a fresh copy of the loaded state; the mean over a fixed request
/// sequence is reported.
pub fn admission(seed: u64) -> Metrics {
    let mut out = Metrics::new();
    for n in [5usize, 20, 256] {
        let mut rng = Rng::new(seed ^ (n as u64) << 8);
        let catalog = Catalog::uniform_lengths(n.max(25) * 4, 3600.0, 7200.0, VIEW_RATE, &mut rng);
        let cluster = ClusterSpec::homogeneous(n, 300.0, 50.0);
        let popularity = ZipfLike::new(catalog.len(), 0.271);
        let map =
            PlacementStrategy::even_paper().place(&catalog, &cluster, popularity.probs(), &mut rng);
        let client = ClientProfile::new(0.2 * catalog.avg_size_mb(), RECEIVE_CAP);
        let mut engines: Vec<ServerEngine> = cluster
            .ids()
            .map(|id| ServerEngine::new(id, 300.0, SchedulerKind::Eftf))
            .collect();
        let mut next_id = 0u64;
        let mut make = |video: VideoId, now: SimTime| {
            next_id += 1;
            let size = catalog.video(video).size_mb();
            Stream::new(StreamId(next_id), video, size, VIEW_RATE, client, now)
        };
        let mut now = SimTime::ZERO;
        for round in 0..100 {
            now = SimTime::from_secs(round as f64 * 0.1);
            for (s, engine) in engines.iter_mut().enumerate() {
                let held = map.videos_on(ServerId(s as u16));
                if held.is_empty() || (s % 4 == 0 && round >= 90) {
                    continue;
                }
                let video = held[rng.below(held.len())];
                engine.admit(make(video, now), now);
            }
        }
        let now = now + 1.0;
        let requests: Vec<Stream> = (0..if n >= 256 { 64 } else { 256 })
            .map(|_| make(VideoId(rng.below(catalog.len()) as u32), now))
            .collect();
        for (label, controller) in [
            ("nodrm", Controller::paper_no_migration()),
            ("drm", Controller::paper_single_hop()),
        ] {
            let mut total = 0.0;
            for req in &requests {
                let mut engines = engines.clone();
                let mut controller = controller.clone();
                let mut admit_rng = Rng::new(seed);
                let t0 = Instant::now();
                black_box(controller.admit(req.clone(), &mut engines, &map, now, &mut admit_rng));
                total += t0.elapsed().as_nanos() as f64;
            }
            out.push((
                format!("admission.admit_ns.{label}.n{n}"),
                total / requests.len() as f64,
                "ns",
            ));
        }
    }
    out
}

/// `cluster.place_ms` and `workload.next_request_ns` for `config`'s
/// system: the placement and request stream its set-up builds.
pub fn setup_layers(config: &SimConfig, seed: u64) -> Metrics {
    let system = &config.system;
    let catalog = system.catalog(&mut Rng::new(seed));
    let cluster = system.cluster();
    let popularity = ZipfLike::new(catalog.len(), config.theta);
    let places: Vec<f64> = (0..15)
        .map(|i| {
            let mut rng = Rng::new(seed ^ i);
            let t0 = Instant::now();
            let map: ReplicaMap =
                config
                    .placement
                    .place(&catalog, &cluster, popularity.probs(), &mut rng);
            let secs = t0.elapsed().as_secs_f64();
            black_box(map);
            secs * 1e3
        })
        .collect();
    let rate = calibrated_rate(cluster.total_bandwidth_mbps(), &catalog, popularity.probs());
    let mut generator = RequestGenerator::new(rate, &popularity, &Rng::new(seed));
    let next_request = ns_per_call(20_000, || {
        black_box(generator.next_request());
    });
    vec![
        ("cluster.place_ms".into(), median(&places), "ms"),
        ("workload.next_request_ns".into(), next_request, "ns"),
    ]
}
