//! Thread-invariance matrix.
//!
//! A trial runs on one thread, but independent trials run concurrently
//! on worker threads (`sct_core::runner::run_trials` fans them out over
//! `std::thread::scope`). That is only sound if a trial carries no
//! hidden per-thread or process-wide state: its outcome must not depend
//! on which thread runs it or on what else runs beside it. This test
//! runs the four golden scenarios (the same configs `golden_outcomes.rs`
//! locks against pre-refactor fixtures) for `shards ∈ {1, 2, 4}`, each
//! cell on `THREADS` scoped worker threads at once, and asserts every
//! [`SimOutcome`] and span set equals the `shards = 1` run on the
//! calling thread; the time-series recorder's `windows`/`alerts`
//! sections are pinned the same way on a flash crowd. Every scenario
//! also checks `run_trials` (threaded fan-out) against trial-by-trial
//! runs on the calling thread.

use sct_core::runner::{run_trials, TrialPlan};
use sct_core::spans::capture;
use semi_continuous_vod::prelude::*;

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: usize = 2;

/// Runs `f` on `THREADS` scoped worker threads at once and returns
/// their results in thread order.
fn on_worker_threads<T: Send>(f: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS).map(|_| scope.spawn(&f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Asserts that `build(shards)` yields the calling thread's `shards = 1`
/// outcome and span set on every worker thread for every shard count,
/// and that `run_trials` equals the same trials run one by one here.
fn assert_thread_invariant(name: &str, build: impl Fn(usize) -> SimConfig + Sync) {
    let (base_outcome, base_spans) = capture(&build(1));
    assert!(
        !base_spans.spans.is_empty(),
        "{name}: scenario produced no spans — matrix would be vacuous"
    );
    for &shards in &SHARDS {
        for (thread, (outcome, spans)) in on_worker_threads(|| capture(&build(shards)))
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                outcome, base_outcome,
                "{name}: SimOutcome diverged at shards = {shards}, worker thread {thread}"
            );
            assert_eq!(
                spans, base_spans,
                "{name}: span set diverged at shards = {shards}, worker thread {thread}"
            );
        }
    }

    let cfg = build(2);
    let plan = TrialPlan::new(THREADS as u32, cfg.seed);
    let here: Vec<SimOutcome> = (0..plan.trials)
        .map(|i| {
            let mut c = cfg.clone();
            c.seed = plan.seed(i);
            Simulation::run(&c)
        })
        .collect();
    assert_eq!(
        run_trials(&cfg, plan),
        here,
        "{name}: run_trials diverged from trial-by-trial runs"
    );
}

#[test]
fn parallel_matrix_small_no_migration() {
    assert_thread_invariant("small_no_migration", |shards| {
        SimConfig::builder(SystemSpec::small_paper())
            .duration_hours(3.0)
            .warmup_hours(0.5)
            .sample_interval_secs(900.0)
            .track_per_video(true)
            .shards(shards)
            .seed(1001)
            .build()
    });
}

#[test]
fn parallel_matrix_small_migration_interactive() {
    assert_thread_invariant("small_migration_interactive", |shards| {
        SimConfig::builder(SystemSpec::small_paper())
            .theta(0.0)
            .migration(MigrationPolicy::single_hop())
            .interactivity(0.3, 60.0, 600.0)
            .waitlist(120.0, 50)
            .shards(shards)
            .seed(1002)
            .duration_hours(3.0)
            .warmup_hours(0.5)
            .build()
    });
}

#[test]
fn parallel_matrix_large_no_migration_replication() {
    assert_thread_invariant("large_no_migration_replication", |shards| {
        SimConfig::builder(SystemSpec::large_paper())
            .theta(-0.5)
            .replication(ReplicationSpec::default_paper_scale())
            .shards(shards)
            .seed(1003)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build()
    });
}

#[test]
fn parallel_matrix_large_migration_failures() {
    assert_thread_invariant("large_migration_failures", |shards| {
        SimConfig::builder(SystemSpec::large_paper())
            .migration(MigrationPolicy::single_hop())
            .failures(4.0, 0.5)
            .shards(shards)
            .seed(1004)
            .duration_hours(2.0)
            .warmup_hours(0.5)
            .build()
    });
}

/// The flight recorder's outcome-bearing sections (`windows`, `alerts`)
/// must be bit-identical whichever thread records them: a flash crowd
/// (skewed demand under a strong diurnal swing) recorded on worker
/// threads at every shard count must match the `shards = 1` recording
/// made on the calling thread.
#[test]
fn timeseries_recording_is_thread_invariant() {
    let record = |shards: usize| {
        let cfg = SimConfig::builder(SystemSpec::small_paper())
            .theta(-0.5)
            .migration(MigrationPolicy::single_hop())
            .diurnal(0.9, 2.0)
            .sample_interval_secs(600.0)
            .track_per_video(true)
            .shards(shards)
            .seed(2024)
            .duration_hours(3.0)
            .warmup_hours(0.5)
            .build();
        let mut probe = TimeSeriesProbe::new(&cfg, 600.0);
        Simulation::run_with_probes(&cfg, &mut [&mut probe]);
        probe.finish()
    };
    let base = record(1);
    assert!(!base.windows.is_empty());
    for &shards in &SHARDS {
        for (thread, rec) in on_worker_threads(|| record(shards)).into_iter().enumerate() {
            assert_eq!(
                rec.windows, base.windows,
                "window series diverged at shards = {shards}, worker thread {thread}"
            );
            assert_eq!(
                rec.alerts, base.alerts,
                "alert stream diverged at shards = {shards}, worker thread {thread}"
            );
        }
    }
}
