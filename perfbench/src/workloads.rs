//! The four benchmark workloads, generated from the workload seed, and
//! the checks every trial's simulated output must pass.
//!
//! Every workload runs the simulator's default execution plane
//! (`shards = 1`, `threads = 1`), so a change to the sharded or parallel
//! planes can never make a workload unrunnable or incomparable.

use crate::trace::SliceClock;
use sct_admission::MigrationPolicy;
use sct_cluster::PlacementStrategy;
use sct_core::config::{SimConfig, StagingSpec};
use sct_core::runner::{run_trials, TrialPlan};
use sct_core::{LoopProfile, Probe, SimOutcome, Simulation, SpanProbe, TimeSeriesProbe};
use sct_workload::SystemSpec;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["huge_fill", "dense_steady", "paper_sweep", "ops_drill"];

/// Flight-recorder window for `ops_drill`, simulated seconds.
const TIMESERIES_WINDOW_SECS: f64 = 900.0;

/// One simulated configuration and how many trials of it a unit runs.
pub struct Cell {
    pub config: SimConfig,
    pub trials: u32,
}

pub struct Workload {
    pub name: &'static str,
    pub cells: Vec<Cell>,
    /// Trials go through `runner::run_trials` (the `figures` path), so the
    /// fan-out over host threads is part of what is timed.
    pub fanout: bool,
    /// The repository's observers every trial carries.
    pub observers: Observers,
    /// Steady-state self-check: a unit whose trials' mean measured-window
    /// utilisation falls below this was timing a fill transient, and all
    /// its trials count as failed.
    pub min_utilization: Option<f64>,
}

/// The configurations of workload `name` at workload seed `seed`; `None`
/// for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let single = |name, config, trials, observers, min_utilization| Workload {
        name,
        cells: vec![Cell { config, trials }],
        fanout: false,
        observers,
        min_utilization,
    };
    let w = match name {
        // The million-slot system's cold start: 256 servers × 12 Gb/s,
        // 90 simulated seconds from empty. Arrivals dominate, so the event
        // queue (with its stale wakes) and the 256-server admission scan
        // carry the load.
        "huge_fill" => single(
            "huge_fill",
            plane(SimConfig::builder(SystemSpec::huge()))
                .theta(0.271)
                .duration_hours(0.025)
                .warmup_hours(0.0)
                .seed(seed)
                .build(),
            HUGE_TRIALS,
            Observers::None,
            None,
        ),
        // 4 servers × 4,000 slots measured after the fill transient: few
        // pending wakes, thousands of streams per engine, so the engine's
        // per-stream passes carry the load and the queue idles.
        "dense_steady" => single(
            "dense_steady",
            plane(SimConfig::builder(dense_system()))
                .theta(0.271)
                .duration_hours(DENSE_WARMUP_HOURS + DENSE_MEASURED_HOURS)
                .warmup_hours(DENSE_WARMUP_HOURS)
                .seed(seed)
                .build(),
            DENSE_TRIALS,
            Observers::None,
            Some(STEADY_UTILIZATION),
        ),
        // The paper's Fig. 4 grid as `figures` runs it, at reduced length:
        // Small and Large × four θ × {no migration, single-hop DRM}.
        "paper_sweep" => {
            let mut cells = Vec::new();
            for system in [SystemSpec::small_paper(), SystemSpec::large_paper()] {
                for theta in SWEEP_THETAS {
                    for migration in sweep_migrations() {
                        let config = plane(SimConfig::builder(system.clone()))
                            .duration_hours(SWEEP_HOURS)
                            .warmup_hours(SWEEP_WARMUP_HOURS)
                            .theta(theta)
                            .placement(PlacementStrategy::even_paper())
                            .migration(migration)
                            .staging(StagingSpec::AbsoluteMb(0.0))
                            .seed(seed)
                            .build();
                        cells.push(Cell {
                            config,
                            trials: SWEEP_TRIALS,
                        });
                    }
                }
            }
            Workload {
                name: "paper_sweep",
                cells,
                fanout: true,
                observers: Observers::None,
                min_utilization: None,
            }
        }
        // Large with single-hop DRM, server failures and viewer pauses,
        // observed by the span and flight-recorder probes: the engine and
        // controller write paths (fail, evacuate, remove, pause) and the
        // probe fan-out.
        "ops_drill" => single(
            "ops_drill",
            plane(SimConfig::builder(SystemSpec::large_paper()))
                .migration(MigrationPolicy::single_hop())
                .failures(20.0, 0.5)
                .interactivity(0.5, 60.0, 600.0)
                .duration_hours(OPS_HOURS)
                .warmup_hours(1.0)
                .seed(seed)
                .build(),
            OPS_TRIALS,
            Observers::Both,
            Some(STEADY_UTILIZATION),
        ),
        _ => return None,
    };
    Some(w)
}

/// A seed's catalog and placement move one `huge_fill` trial's host cost
/// per event by ±25 %; three trials per unit average that out.
const HUGE_TRIALS: u32 = 3;
const DENSE_WARMUP_HOURS: f64 = 15.0 / 60.0;
const DENSE_MEASURED_HOURS: f64 = 2.0 / 60.0;
/// A seed's 100-video catalog moves one trial's event count by ±10 %; two
/// trials per unit halve that.
const DENSE_TRIALS: u32 = 2;
const STEADY_UTILIZATION: f64 = 0.85;
const SWEEP_THETAS: [f64; 4] = [-1.5, -0.5, 0.5, 1.0];
const SWEEP_HOURS: f64 = 4.0;
const SWEEP_WARMUP_HOURS: f64 = 0.5;
/// All cells share each trial's seed (common random numbers, as in
/// `figures`), so a seed's catalogs and placements move every cell together;
/// four trials per cell average that out.
const SWEEP_TRIALS: u32 = 4;
const OPS_HOURS: f64 = 20.0;
/// Three independent trials per unit average out the per-seed spread in
/// failure count and catalog that one trial's host cost shows.
const OPS_TRIALS: u32 = 3;
/// Utilisation difference the Fig. 4 shape check treats as equal.
const SHAPE_TOLERANCE: f64 = 1e-3;

fn plane(b: sct_core::SimConfigBuilder) -> sct_core::SimConfigBuilder {
    b.shards(1).threads(1)
}

/// The `huge` server type (12 Gb/s, 4,000 slots) on four servers and a
/// 100-video catalog.
fn dense_system() -> SystemSpec {
    SystemSpec {
        name: "dense".into(),
        n_servers: 4,
        n_videos: 100,
        ..SystemSpec::huge()
    }
}

/// Fig. 4's no-migration and one-hop curves (instantaneous hand-off).
fn sweep_migrations() -> [MigrationPolicy; 2] {
    [
        MigrationPolicy::disabled(),
        MigrationPolicy {
            handoff_latency_secs: 0.0,
            ..MigrationPolicy::single_hop()
        },
    ]
}

impl Workload {
    /// Every trial of one unit as a stand-alone config, in unit order,
    /// carrying the seeds `run_trials` derives from the cell's seed.
    pub fn trial_configs(&self) -> Vec<SimConfig> {
        let mut out = Vec::new();
        for cell in &self.cells {
            let plan = TrialPlan::new(cell.trials, cell.config.seed);
            for i in 0..cell.trials {
                let mut c = cell.config.clone();
                c.seed = plan.seed(i);
                out.push(c);
            }
        }
        out
    }

    /// The cell with the most servers: the one whose set-up, placement
    /// and arrival stream the per-layer probes are shaped by.
    pub fn widest(&self) -> &SimConfig {
        &self
            .cells
            .iter()
            .max_by_key(|c| c.config.system.n_servers)
            .expect("every workload has a cell")
            .config
    }
}

/// What one trial cost the host.
pub struct Trial {
    pub outcome: SimOutcome,
    /// Host seconds from the call into `Simulation` to the end of the
    /// observers' exports.
    pub outer_secs: f64,
    pub profile: LoopProfile,
    /// Host instants of the call, of the event loop's return and of the
    /// end of the observers' exports.
    pub called: Instant,
    pub returned: Instant,
    pub done: Instant,
}

/// Which of the repository's own observers ride along on a trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observers {
    None,
    Spans,
    Series,
    Both,
}

/// Runs one trial of `config` with `observers` (finished into their
/// exports, as a user would) plus the benchmark's own `clock` probe,
/// timing the call from outside.
pub fn run_trial(config: &SimConfig, observers: Observers, clock: Option<&mut dyn Probe>) -> Trial {
    let called = Instant::now();
    let mut spans = matches!(observers, Observers::Spans | Observers::Both).then(SpanProbe::new);
    let mut series = matches!(observers, Observers::Series | Observers::Both)
        .then(|| TimeSeriesProbe::new(config, TIMESERIES_WINDOW_SECS));
    let mut hub: Vec<&mut dyn Probe> = Vec::new();
    if let Some(p) = spans.as_mut() {
        hub.push(p);
    }
    if let Some(p) = series.as_mut() {
        hub.push(p);
    }
    if let Some(p) = clock {
        hub.push(p);
    }
    let (outcome, profile) = Simulation::run_profiled(config, &mut hub);
    let returned = Instant::now();
    drop(hub);
    if let Some(p) = spans {
        std::hint::black_box(p.finish(config.duration.as_secs()));
    }
    if let Some(p) = series {
        std::hint::black_box(p.finish());
    }
    let done = Instant::now();
    Trial {
        outcome,
        outer_secs: (done - called).as_secs_f64(),
        profile,
        called,
        returned,
        done,
    }
}

/// Host seconds of one trial (or, for a fan-out workload, one cell) cut
/// into slices whose work is identical from repeat to repeat: set-up
/// (the call to the first event boundary, first event included), the
/// event loop in slices of a fixed number of events (the last one running
/// to the loop's return), and the observers' exports.
#[derive(Clone, Debug)]
pub struct Slices {
    pub setup: f64,
    pub looped: Vec<f64>,
    pub export: f64,
}

impl Slices {
    /// The slices of `trial`, given the event boundaries its
    /// [`SliceClock`] marked.
    fn of(trial: &Trial, marks: &[Instant]) -> Self {
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        let first = marks.first().copied().unwrap_or(trial.returned);
        let last = marks.last().copied().unwrap_or(first);
        let mut looped: Vec<f64> = marks.windows(2).map(|w| secs(w[0], w[1])).collect();
        looped.push(secs(last, trial.returned));
        Slices {
            setup: secs(trial.called, first),
            looped,
            export: secs(trial.returned, trial.done),
        }
    }

    pub fn loop_secs(&self) -> f64 {
        self.looped.iter().sum()
    }

    pub fn total_secs(&self) -> f64 {
        self.setup + self.loop_secs() + self.export
    }

    /// Keeps, slice by slice, the faster of `self` and `other`. Returns
    /// `false` (and changes nothing) if the two were not cut alike, which
    /// means the repeats did not do the same work.
    pub fn keep_fastest(&mut self, other: &Slices) -> bool {
        if self.looped.len() != other.looped.len() {
            return false;
        }
        self.setup = self.setup.min(other.setup);
        self.export = self.export.min(other.export);
        for (a, b) in self.looped.iter_mut().zip(&other.looped) {
            *a = a.min(*b);
        }
        true
    }
}

/// One timed, untraced pass over the whole workload.
pub struct Unit {
    /// One entry per trial, or per cell when trials ran inside
    /// `run_trials` (which takes no probe, so a cell is one slice).
    pub slices: Vec<Slices>,
    pub outcomes: Vec<SimOutcome>,
}

impl Unit {
    pub fn wall_secs(&self) -> f64 {
        self.slices.iter().map(Slices::total_secs).sum()
    }
}

/// Runs the workload once, the way its users run it, marking every
/// `every`-th event boundary of each trial.
pub fn run_unit(w: &Workload, every: u64) -> Unit {
    let mut outcomes = Vec::new();
    let mut slices = Vec::new();
    if w.fanout {
        for cell in &w.cells {
            let t0 = Instant::now();
            outcomes.extend(run_trials(
                &cell.config,
                TrialPlan::new(cell.trials, cell.config.seed),
            ));
            slices.push(Slices {
                setup: 0.0,
                looped: vec![t0.elapsed().as_secs_f64()],
                export: 0.0,
            });
        }
    } else {
        for config in w.trial_configs() {
            let mut clock = SliceClock::new(every);
            let t = run_trial(&config, w.observers, Some(&mut clock));
            slices.push(Slices::of(&t, &clock.marks));
            outcomes.push(t.outcome);
        }
    }
    Unit { slices, outcomes }
}

/// Host seconds outside the event loop for one trial of each of the
/// workload's configs (catalog, placement, world build, epilogue), summed
/// over the configs. Each config is cut to a few simulated milliseconds so
/// the loop itself is negligible; the loop's own wall is subtracted anyway.
pub fn setup_secs(w: &Workload) -> f64 {
    let mut total = 0.0;
    for cell in &w.cells {
        let mut config = cell.config.clone();
        config.warmup = sct_simcore::SimTime::ZERO;
        config.duration = sct_simcore::SimTime::from_secs(SETUP_PROBE_SECS);
        let t = run_trial(&config, Observers::None, None);
        total += t.outer_secs - t.profile.wall_secs;
    }
    total
}

/// Simulated length of a set-up probe trial.
const SETUP_PROBE_SECS: f64 = 0.005;

/// The per-trial statistics the reference pins at the default seed.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrialStats {
    pub utilization: f64,
    pub arrivals: u64,
    pub accepted_direct: u64,
    pub accepted_via_migration: u64,
    pub rejected: u64,
    pub completions: u64,
    pub events_processed: u64,
}

impl TrialStats {
    pub fn of(o: &SimOutcome) -> Self {
        TrialStats {
            utilization: o.utilization,
            arrivals: o.stats.arrivals,
            accepted_direct: o.stats.accepted_direct,
            accepted_via_migration: o.stats.accepted_via_migration,
            rejected: o.stats.rejected,
            completions: o.completions,
            events_processed: o.events_processed,
        }
    }

    /// Equal counters and bit-identical utilisation.
    pub fn matches(&self, other: &TrialStats) -> bool {
        self.utilization.to_bits() == other.utilization.to_bits() && self == other
    }
}

/// Checks one unit's trial outcomes against `baseline` (the same trials
/// run traced, which must be bit-identical), the invariants, the
/// steady-state floor, the Fig. 4 shape claim on the sweep and, when
/// given, the stored reference. Returns one flag per trial: `true` if the
/// trial failed any check.
pub fn check(
    w: &Workload,
    outcomes: &[SimOutcome],
    baseline: &[SimOutcome],
    reference: Option<&[TrialStats]>,
) -> Vec<bool> {
    let mut failed: Vec<bool> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let invariants = o.stats.arrivals == o.stats.accepted() + o.stats.rejected
                && (0.0..=1.0).contains(&o.utilization)
                && o.events_processed > 0;
            let identical = baseline
                .get(i)
                .is_some_and(|b| b == o && b.utilization.to_bits() == o.utilization.to_bits());
            let pinned =
                reference.is_none_or(|r| r.get(i).is_some_and(|r| r.matches(&TrialStats::of(o))));
            !(invariants && identical && pinned)
        })
        .collect();
    let mean = |s: &[SimOutcome]| s.iter().map(|o| o.utilization).sum::<f64>() / s.len() as f64;
    // The steady-state floor applies to the unit's measured windows
    // together: with failures a single 20 h trial can dip just below it
    // (once in 120 trials over 40 seeds), while a fill transient drags
    // every trial down.
    let transient = w
        .min_utilization
        .is_some_and(|m| outcomes.is_empty() || mean(outcomes) < m);
    if transient
        || outcomes.len() != baseline.len()
        || reference.is_some_and(|r| r.len() != outcomes.len())
    {
        failed.iter_mut().for_each(|f| *f = true);
    }
    if w.fanout {
        // Cells come in (no migration, single-hop) pairs over one system
        // and θ: DRM must not lose utilisation at any θ, to within a
        // tenth of a percentage point (below Fig. 4's plotting
        // resolution). At θ = −1.5 DRM rarely finds a victim and its
        // effect is noise of either sign, a few 1e-5 at most.
        let mut start = 0;
        for pair in w.cells.chunks(2) {
            let n0 = pair[0].trials as usize;
            let n1 = pair[1].trials as usize;
            let end = (start + n0 + n1).min(outcomes.len());
            let mid = (start + n0).min(end);
            if mid == start
                || end == mid
                || mean(&outcomes[mid..end]) < mean(&outcomes[start..mid]) - SHAPE_TOLERANCE
            {
                failed[start..end].iter_mut().for_each(|f| *f = true);
            }
            start = end;
        }
    }
    failed
}
