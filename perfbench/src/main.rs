//! The repository's benchmark: host time, memory and checked simulated
//! outputs of four workloads, plus a traced run that times each layer
//! from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted` (trials run), `failed` (trials that broke a check) and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. See `perfbench/README.md` for what each workload
//! loads and which metric each layer should move.

mod layers;
mod speed;
mod trace;
mod workloads;

use layers::{median, quantile, Metrics};
use sct_core::{LoopProfile, Probe, SimOutcome};
use speed::ClockProbe;
use std::process::ExitCode;
use std::time::Instant;
use trace::{EventClock, Kind, Spans};
use workloads::{
    check, run_trial, run_unit, setup_secs, Observers, Slices, Trial, TrialStats, Workload,
};

/// The seed whose simulated statistics `reference.json` pins.
const DEFAULT_SEED: u64 = 1;
/// Seed held out for confirming later claims; like every seed other than
/// [`DEFAULT_SEED`], only the invariant, non-perturbation, steady-state
/// and shape checks apply to it.
const HELD_OUT_SEED: u64 = 2;
/// Host CPUs the benchmark process may use (fewer if the host has fewer).
const MAX_CPUS: usize = 2;
/// Host seconds of event loop one slice of a timed unit should last.
const SLICE_SECS: f64 = 0.0002;
/// Set-up samples taken after each timed unit, so they span the run; each
/// is the fastest of a burst of [`SETUP_BURST`] set-ups.
const SETUP_BURSTS_PER_UNIT: usize = 4;
const SETUP_BURST: usize = 5;
/// Clock readings taken before the first timed unit, after each one and
/// at the end of the run (each about 0.1 ms).
const CLOCK_READINGS: usize = 16;
/// Fewest timed units per run, whatever `--seconds` says.
const MIN_UNITS: usize = 3;

const REFERENCE: &str = include_str!("../reference.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}|all|write-reference> \
                 [--seed n] [--seconds s] [--trace 0|1]\n\
                 seed {DEFAULT_SEED} is pinned by reference.json; seed {HELD_OUT_SEED} is held out \
                 for confirming claims",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "all" => return run_all(),
        "write-reference" => return write_reference(),
        _ => {}
    }
    let Some(w) = workloads::build(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let cpus = pin_cpus(MAX_CPUS);
    let reference = if args.seed == DEFAULT_SEED {
        match reference_for(w.name) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let report = if args.trace {
        traced_run(&w, &args, reference.as_deref())
    } else {
        end_to_end_run(&w, &args, reference.as_deref())
    };
    eprintln!("perfbench: {} seed {} on {cpus} cpu(s)", w.name, args.seed);
    report.print(w.name);
    ExitCode::SUCCESS
}

/// What a run prints.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Report {
    fn print(&self, name: &str) {
        let mut human = format!("{name}:");
        for (k, v, unit) in &self.metrics {
            human += &format!(" {k}={v:.6} {unit};");
        }
        println!(
            "{human} trials_failed/trials_run={}/{}",
            self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v, unit)| {
                // JSON has no non-finite numbers; a non-finite metric is a
                // benchmark bug, reported as such by `correct`.
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Every trial of the workload run one after another with the
/// event-boundary clock attached (the non-perturbation baseline), plus
/// the trials' host costs.
fn traced_pass(
    w: &Workload,
    clock: &mut EventClock,
    mut spans: Option<&mut Spans>,
    parent: Option<usize>,
) -> Vec<Trial> {
    let mut trials = Vec::new();
    for config in w.trial_configs() {
        let t0 = Instant::now();
        let trial = run_trial(&config, w.observers, Some(&mut *clock as &mut dyn Probe));
        let t3 = Instant::now();
        let (events, window) = clock.end_trial();
        if let Some(spans) = spans.as_deref_mut() {
            // Set-up runs from the call to the first event boundary (so it
            // holds the first event, which has no boundary before it); the
            // epilogue builds the outcome and finishes the observers.
            let (first, last) = window.unwrap_or((t3, t3));
            let id = spans.push("trial", parent, t0, t3);
            spans.push("setup", Some(id), t0, first);
            let loop_id = spans.push("loop", Some(id), first, last);
            spans.push("epilogue", Some(id), last, t3);
            for (kind, stream, start, end) in events {
                let e = spans.push(event_span_name(kind), Some(loop_id), start, end);
                spans.spans[e].stream = stream;
            }
        }
        trials.push(trial);
    }
    trials
}

fn event_span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Arrival => "event.arrival",
        Kind::Completion => "event.completion",
        Kind::SilentWake => "event.silent_wake",
        Kind::Other => "event.other",
    }
}

fn outcomes(trials: &[Trial]) -> Vec<SimOutcome> {
    trials.iter().map(|t| t.outcome.clone()).collect()
}

/// Counts failed trials.
fn failures(flags: &[bool]) -> usize {
    flags.iter().filter(|&&f| f).count()
}

/// The statistic the traced run's overhead figures report over their
/// samples: the lower quartile. The host is shared, and its neighbours'
/// load only ever adds time.
const HOST_TIME_QUANTILE: f64 = 0.25;

fn host_time(samples: &[f64]) -> f64 {
    quantile(samples, HOST_TIME_QUANTILE)
}

/// Events per loop slice such that a slice lasts about [`SLICE_SECS`] on
/// this host, judged from the baseline pass.
fn slice_events(trials: &[Trial]) -> u64 {
    let events: u64 = trials.iter().map(|t| t.profile.events).sum();
    let secs: f64 = trials.iter().map(|t| t.profile.wall_secs).sum();
    if secs > 0.0 {
        (events as f64 * SLICE_SECS / secs).round().max(1.0) as u64
    } else {
        1
    }
}

/// End-to-end run: one traced pass (the non-perturbation baseline, which
/// also warms the process), then untraced timed units, each followed by
/// clock readings and set-up samples, until the time budget is spent.
///
/// The host's neighbours slow it in bursts of milliseconds to seconds, so
/// whole-unit times of identical work move by ±20 % within a run. Each
/// unit is therefore cut into slices of identical work (about
/// [`SLICE_SECS`] of event loop each, or one `run_trials` cell), every
/// slice keeps its fastest repeat across the run, and the unit's times are
/// the sums of those: the unit as it runs when no neighbour interferes.
/// The host's clock also drifts between runs; all host times are scaled to
/// the reference clock (see [`speed`]).
fn end_to_end_run(w: &Workload, args: &Args, reference: Option<&[TrialStats]>) -> Report {
    let start = Instant::now();
    let baseline_trials = traced_pass(w, &mut EventClock::new(false), None, None);
    let every = slice_events(&baseline_trials);
    let baseline = outcomes(&baseline_trials);
    let mut flags = check(w, &baseline, &baseline, reference);
    let mut fastest: Option<Vec<Slices>> = None;
    let (mut unit_secs, mut setups) = (Vec::new(), Vec::new());
    let mut clock = ClockProbe::default();
    clock.read(CLOCK_READINGS);
    while unit_secs.len() < MIN_UNITS
        || start.elapsed().as_secs_f64() + median(&unit_secs) <= args.seconds
    {
        let t0 = Instant::now();
        let unit = run_unit(w, every);
        unit_secs.push(t0.elapsed().as_secs_f64());
        let mut unit_flags = check(w, &unit.outcomes, &baseline, reference);
        match fastest.as_mut() {
            None => fastest = Some(unit.slices),
            Some(best) => {
                let alike = best.len() == unit.slices.len()
                    && best
                        .iter_mut()
                        .zip(&unit.slices)
                        .all(|(b, s)| b.keep_fastest(s));
                if !alike {
                    unit_flags.iter_mut().for_each(|f| *f = true);
                }
            }
        }
        flags.extend(unit_flags);
        clock.read(CLOCK_READINGS);
        setups.extend((0..SETUP_BURSTS_PER_UNIT).map(|_| {
            (0..SETUP_BURST)
                .map(|_| setup_secs(w))
                .fold(f64::INFINITY, f64::min)
        }));
    }
    clock.read(CLOCK_READINGS);
    let scale = clock.to_reference();
    let best = fastest.unwrap_or_default();
    let events: u64 = baseline.iter().map(|o| o.events_processed).sum();
    let loop_secs = best.iter().map(Slices::loop_secs).sum::<f64>() * scale;
    Report {
        attempted: flags.len(),
        failed: failures(&flags),
        metrics: vec![
            (
                "wall_s".into(),
                best.iter().map(Slices::total_secs).sum::<f64>() * scale,
                "s",
            ),
            ("events_per_s".into(), events as f64 / loop_secs, "1/s"),
            ("setup_s".into(), median(&setups) * scale, "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ],
    }
}

/// Host seconds of a pass, summed over its trials.
fn pass_secs(trials: &[Trial]) -> f64 {
    trials.iter().map(|t| t.outer_secs).sum()
}

/// Traced run: one pass recorded into spans (written to
/// `perfbench/out/`), then rounds of untraced, traced and observer-variant
/// passes for the overhead figures until the time budget is spent, then
/// the per-crate layer probes.
fn traced_run(w: &Workload, args: &Args, reference: Option<&[TrialStats]>) -> Report {
    let start = Instant::now();
    let mut spans = Spans::new(start);
    let mut clock = EventClock::new(true);
    let root = spans.push("workload", None, start, start);
    let baseline = outcomes(&traced_pass(w, &mut clock, Some(&mut spans), Some(root)));
    let mut flags = check(w, &baseline, &baseline, reference);

    let pass = |observers: Observers, traced: bool| -> Vec<Trial> {
        let mut clock = traced.then(|| EventClock::new(true));
        w.trial_configs()
            .iter()
            .map(|config| {
                let trial = run_trial(
                    config,
                    observers,
                    clock.as_mut().map(|c| c as &mut dyn Probe),
                );
                if let Some(c) = clock.as_mut() {
                    c.end_trial();
                }
                trial
            })
            .collect()
    };
    let (mut base_s, mut traced_s, mut bare_s, mut spans_s, mut series_s, mut unit_s) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    // The untraced pass with the lowest host time feeds the `core` figures.
    let mut best: Vec<Trial> = Vec::new();
    while base_s.is_empty()
        || start.elapsed().as_secs_f64() * (1.0 + 1.0 / base_s.len() as f64) <= args.seconds
    {
        let base = pass(w.observers, false);
        let traced = pass(w.observers, true);
        for p in [&base, &traced] {
            flags.extend(check(w, &outcomes(p), &baseline, reference));
        }
        traced_s.push(pass_secs(&traced));
        bare_s.push(match w.observers {
            Observers::None => pass_secs(&base),
            _ => pass_secs(&pass(Observers::None, false)),
        });
        spans_s.push(pass_secs(&pass(Observers::Spans, false)));
        series_s.push(pass_secs(&pass(Observers::Series, false)));
        unit_s.push(if w.fanout {
            let unit = run_unit(w, u64::MAX);
            flags.extend(check(w, &unit.outcomes, &baseline, reference));
            unit.wall_secs()
        } else {
            pass_secs(&base)
        });
        base_s.push(pass_secs(&base));
        if best.is_empty() || pass_secs(&base) < pass_secs(&best) {
            best = base;
        }
    }
    let mut m = Metrics::new();

    // core: the loop's own phase timers.
    let sum = |f: &dyn Fn(&LoopProfile) -> f64| best.iter().map(|t| f(&t.profile)).sum::<f64>();
    let events = sum(&|p| p.events as f64);
    for (name, secs) in [
        ("dispatch", sum(&|p| p.dispatch.secs)),
        ("alloc", sum(&|p| p.alloc.secs)),
        ("wake", sum(&|p| p.wake.secs)),
        ("probe", sum(&|p| p.probe.secs)),
        ("self", sum(&|p| p.self_secs())),
        (
            "outside_dispatch",
            sum(&|p| p.wall_secs - p.dispatch.secs - p.barrier.secs),
        ),
    ] {
        m.push((
            format!("core.{name}_ns_per_event"),
            secs * 1e9 / events,
            "ns",
        ));
    }
    // core event boundaries, from the recorded pass.
    for kind in [Kind::Arrival, Kind::Completion, Kind::SilentWake] {
        let d: Vec<f64> = clock.durations[kind as usize]
            .iter()
            .map(|&x| x as f64)
            .collect();
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            let v = if d.is_empty() { 0.0 } else { quantile(&d, q) };
            m.push((format!("core.event_ns.{}.{label}", kind.name()), v, "ns"));
        }
    }
    for kind in Kind::ALL {
        m.push((
            format!("core.events.{}", kind.name()),
            clock.counts[kind as usize] as f64,
            "count",
        ));
    }

    let widest = w.widest();
    m.extend(layers::transmission(args.seed));
    m.extend(layers::simcore(widest, args.seed));
    m.extend(layers::admission(args.seed));
    let (migrated, rejected) = best.iter().fold((0, 0), |(a, b), t| {
        (
            a + t.outcome.stats.accepted_via_migration,
            b + t.outcome.stats.rejected,
        )
    });
    let attempts = migrated + rejected;
    m.push((
        "admission.drm_success_ratio".into(),
        if attempts == 0 {
            0.0
        } else {
            migrated as f64 / attempts as f64
        },
        "ratio",
    ));
    m.extend(layers::setup_layers(widest, args.seed));

    // runner: `run_trials` spreads each cell's trials over this many threads.
    let threads = if w.fanout {
        let per_cell = w.cells.iter().map(|c| c.trials as usize).max().unwrap_or(1);
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(per_cell)
    } else {
        1
    };
    m.push(("runner.threads".into(), threads as f64, "count"));
    m.push((
        "runner.fanout_efficiency".into(),
        sum(&|p| p.wall_secs) / (threads as f64 * host_time(&unit_s)),
        "ratio",
    ));

    let overhead =
        |with: &[f64], without: &[f64]| (host_time(with) / host_time(without) - 1.0) * 100.0;
    m.push((
        "probe.spans_overhead_pct".into(),
        overhead(&spans_s, &bare_s),
        "%",
    ));
    m.push((
        "probe.timeseries_overhead_pct".into(),
        overhead(&series_s, &bare_s),
        "%",
    ));
    m.push((
        "trace.overhead_pct".into(),
        overhead(&traced_s, &base_s),
        "%",
    ));

    spans.spans[root].end_ns = spans.ns(Instant::now());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.spans.jsonl", w.name, args.seed));
    if let Err(e) = spans.write(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
        flags.push(true);
    }
    Report {
        attempted: flags.len(),
        failed: failures(&flags),
        metrics: m,
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Restricts this process to at most `max` of the CPUs it may run on, so
/// `runner::run_trials` (which sizes its fan-out from
/// `available_parallelism`) spreads over the same width on any host.
/// Must run before any thread is spawned: threads inherit the mask.
/// Returns the resulting width.
fn pin_cpus(max: usize) -> usize {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } == 0 {
        let mut keep = [0u64; 16];
        let mut n = 0;
        for bit in 0..size * 8 {
            if n < max && mask[bit / 64] >> (bit % 64) & 1 == 1 {
                keep[bit / 64] |= 1 << (bit % 64);
                n += 1;
            }
        }
        // SAFETY: `keep` is a readable buffer of exactly `size` bytes
        // holding a non-empty subset of the current mask.
        if n > 0 && unsafe { sched_setaffinity(0, size, keep.as_ptr()) } != 0 {
            eprintln!("perfbench: could not restrict the CPU set; using the host's");
        }
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The stored statistics of `name`'s trials at [`DEFAULT_SEED`].
fn reference_for(name: &str) -> Result<Vec<TrialStats>, String> {
    let all: Vec<(String, Vec<TrialStats>)> =
        serde_json::from_str(REFERENCE).map_err(|e| format!("reference.json: {e}"))?;
    all.into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, t)| t)
        .ok_or(format!("reference.json has no entry for {name}"))
}

/// Regenerates `reference.json` from the current simulator at
/// [`DEFAULT_SEED`]. Only for deliberate re-baselines: the file is what
/// the default-seed check compares against.
fn write_reference() -> ExitCode {
    let mut all: Vec<(String, Vec<TrialStats>)> = Vec::new();
    for name in workloads::NAMES {
        let w = workloads::build(name, DEFAULT_SEED).expect("known workload");
        let trials = traced_pass(&w, &mut EventClock::new(false), None, None);
        all.push((
            name.to_string(),
            trials.iter().map(|t| TrialStats::of(&t.outcome)).collect(),
        ));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    let text = serde_json::to_string_pretty(&all).expect("reference serializes") + "\n";
    match std::fs::write(&path, text) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: writing {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in its own child process (so each reports its own
/// peak memory) with the remaining arguments, relaying their reports.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let rest: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for name in workloads::NAMES {
        let mut args = rest.clone();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed above");
        args[at + 1] = name.to_string();
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            _ => ok = false,
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
