//! Execution-plane trace schema and barrier-stall analyzer.
//!
//! An [`ExecTrace`] is the wire form of the core's execution-plane
//! recorder (`sct-core::exec`, exported by `sctsim run --exec-trace
//! FILE`): wall-clock records of how the epoch machinery actually ran —
//! per-epoch election/merge/re-attach windows on the coordinator, one
//! [`BurstRecord`] per elected shard with its worker slot and wall
//! window, and one [`RunRecord`] per classic (plane/fallback) run. All
//! timestamps are monotonic microseconds since the recorder was
//! attached; *nothing* here is virtual time except the horizon-slack
//! annotations, which are copied from the (deterministic) election
//! snapshots.
//!
//! The export is a single JSON document that is simultaneously:
//!
//! * a Chrome-trace/Perfetto file (`traceEvents` key — one tid per
//!   worker thread with nested burst slices, barrier slices on the
//!   coordinator track, counter tracks for elected shards and pending
//!   events) loadable in `ui.perfetto.dev`; and
//! * the structured record (`exec` key) that [`ExecTrace::from_json`]
//!   parses back and [`ExecTrace::analyze`] decomposes.
//!
//! [`ExecReport`] renders the Amdahl-style verdict `sctsim exec FILE`
//! prints: serialization fraction, per-shard load-imbalance ratio
//! (max/mean burst events), stall attribution (tight horizons vs
//! foreign-push buffering vs small-burst inline fallback), and a
//! one-line bottleneck verdict reconciled against the merged
//! `LoopProfiler` barrier phase carried in [`ExecTrace::profile`].

use crate::snapshot::ProfileSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One shard's epoch burst: which worker slot ran it, its wall window,
/// and what the burst saw.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BurstRecord {
    /// The elected shard.
    pub shard: u32,
    /// Worker slot that executed the burst (0 = the coordinator thread).
    pub worker: u32,
    /// Burst start, microseconds since the recorder attached.
    pub start_us: f64,
    /// Burst end, microseconds.
    pub end_us: f64,
    /// Events the burst processed.
    pub events: u64,
    /// Events pending on the shard at election.
    pub pending: u64,
    /// Cross-shard pushes the burst buffered for the barrier.
    pub foreign_pushes: u64,
    /// Virtual-time slack between the shard's head and the epoch
    /// horizon at election (`None` when the epoch was unbounded).
    pub slack_secs: Option<f64>,
    /// `true` when the burst stalled at the horizon with work pending.
    pub stalled: bool,
}

impl BurstRecord {
    /// Burst wall duration, seconds.
    pub fn wall_secs(&self) -> f64 {
        ((self.end_us - self.start_us) / 1e6).max(0.0)
    }
}

/// One parallel epoch: coordinator phase windows, the offload decision,
/// and the elected shards' bursts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Election start (barrier entry), microseconds.
    pub elect_start_us: f64,
    /// Election + worker-loading end, microseconds.
    pub elect_end_us: f64,
    /// Merge start (all bursts joined), microseconds.
    pub merge_start_us: f64,
    /// Merge end (logs interleaved, emissions replayed), microseconds.
    pub merge_end_us: f64,
    /// Re-attach end (run summaries emitted, shells restored).
    pub reattach_end_us: f64,
    /// Total events pending on the elected shards at election.
    pub pending: u64,
    /// `true` when bursts were dispatched to worker threads; `false`
    /// when they ran inline on the coordinator.
    pub offloaded: bool,
    /// Worker threads the offload used (1 when inline).
    pub threads_used: u32,
    /// One record per elected shard, in election (head-key) order.
    pub bursts: Vec<BurstRecord>,
}

impl EpochRecord {
    /// The burst phase's wall window: latest end minus earliest start.
    pub fn burst_span_secs(&self) -> f64 {
        let lo = self
            .bursts
            .iter()
            .map(|b| b.start_us)
            .fold(f64::MAX, f64::min);
        let hi = self
            .bursts
            .iter()
            .map(|b| b.end_us)
            .fold(f64::MIN, f64::max);
        if self.bursts.is_empty() {
            0.0
        } else {
            ((hi - lo) / 1e6).max(0.0)
        }
    }

    /// Sum of the bursts' own wall durations, seconds.
    pub fn burst_busy_secs(&self) -> f64 {
        self.bursts.iter().map(BurstRecord::wall_secs).sum()
    }

    /// Events across all bursts.
    pub fn events(&self) -> u64 {
        self.bursts.iter().map(|b| b.events).sum()
    }

    /// Max/mean burst event count — the epoch's load-imbalance ratio.
    /// 1.0 for perfectly balanced epochs and single-burst epochs.
    pub fn imbalance(&self) -> f64 {
        let n = self.bursts.len();
        let total = self.events();
        if n == 0 || total == 0 {
            return 1.0;
        }
        let max = self.bursts.iter().map(|b| b.events).max().unwrap_or(0);
        max as f64 * n as f64 / total as f64
    }
}

/// One classic run (the plane run between epochs, or every run of an
/// ineligible/single-shard config): barrier window + drain window on
/// the coordinator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// The elected shard.
    pub shard: u32,
    /// Barrier (election) start, microseconds.
    pub elect_start_us: f64,
    /// Election end / drain start, microseconds.
    pub elect_end_us: f64,
    /// Drain end, microseconds.
    pub end_us: f64,
    /// Events the run processed.
    pub events: u64,
    /// Events pending on the shard at election.
    pub pending: u64,
    /// Virtual-time slack to the cross-shard horizon at election
    /// (`None` on the monolithic loop).
    pub slack_secs: Option<f64>,
    /// `true` when the run stalled at the horizon with work pending.
    pub stalled: bool,
}

/// A complete execution-plane recording of one trial. See the module
/// docs for the dual JSON form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecTrace {
    /// Schema version (1).
    pub version: u32,
    /// Event-loop shards the run was configured with.
    pub shards: u32,
    /// Worker threads the run was configured with.
    pub threads: u32,
    /// The offload threshold (pending events) the run used.
    pub offload_min_events: u64,
    /// Wall seconds from recorder attach to trace finish.
    pub wall_secs: f64,
    /// Parallel epochs, in execution order.
    pub epochs: Vec<EpochRecord>,
    /// Classic runs, in execution order.
    pub runs: Vec<RunRecord>,
    /// The run's merged `LoopProfiler` report, for reconciling the
    /// recorder's barrier accounting against the loop's own.
    pub profile: ProfileSnapshot,
}

/// Wrapper that keeps a parsed JSON tree as-is (used to reach the
/// `exec` key of the combined Perfetto document).
struct RawValue(serde::Value);

impl serde::Deserialize for RawValue {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(RawValue(v.clone()))
    }
}

impl ExecTrace {
    /// Parses a trace from the combined export: accepts either the
    /// combined `{"traceEvents": [...], "exec": {...}}` document or a
    /// bare `ExecTrace` object.
    pub fn from_json(text: &str) -> Result<ExecTrace, String> {
        let raw: RawValue =
            serde_json::from_str(text).map_err(|e| format!("invalid exec trace: {e}"))?;
        let map = raw
            .0
            .as_map()
            .ok_or_else(|| "invalid exec trace: not a JSON object".to_string())?;
        let body = map
            .iter()
            .find(|(k, _)| k == "exec")
            .map(|(_, v)| v)
            .unwrap_or(&raw.0);
        <ExecTrace as serde::Deserialize>::from_value(body)
            .map_err(|e| format!("invalid exec trace: {e}"))
    }

    /// Serialises the combined document: a Perfetto `traceEvents` array
    /// plus the structured trace under `exec`.
    pub fn to_json(&self) -> String {
        let body = serde_json::to_string(self).expect("exec trace serialises");
        format!(
            "{{\"traceEvents\":[\n{}\n],\n\"exec\":{body}}}\n",
            self.perfetto_events().join(",\n")
        )
    }

    /// Parallel epochs recorded (the core's `epochs_run`).
    pub fn epochs_run(&self) -> u64 {
        self.epochs.len() as u64
    }

    /// Bursts dispatched to worker threads.
    pub fn bursts_offloaded(&self) -> u64 {
        self.epochs
            .iter()
            .filter(|e| e.offloaded)
            .map(|e| e.bursts.len() as u64)
            .sum()
    }

    /// Bursts that ran inline on the coordinator.
    pub fn bursts_inline(&self) -> u64 {
        self.epochs
            .iter()
            .filter(|e| !e.offloaded)
            .map(|e| e.bursts.len() as u64)
            .sum()
    }

    /// Events recorded across epochs and classic runs.
    pub fn total_events(&self) -> u64 {
        self.epochs.iter().map(EpochRecord::events).sum::<u64>()
            + self.runs.iter().map(|r| r.events).sum::<u64>()
    }

    /// The Chrome-trace events of the combined export, one JSON object
    /// per string. Track layout: pid 1 = the execution plane; tid 0 is
    /// the coordinator thread (barrier slices, inline bursts, classic
    /// runs), tid `k ≥ 1` is worker slot `k`; counter tracks for the
    /// elected-shard count and pending events sample at every election.
    fn perfetto_events(&self) -> Vec<String> {
        let mut ev: Vec<String> = Vec::new();
        ev.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"execution plane\"}}"
                .to_string(),
        );
        ev.push(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"coordinator\"}}"
                .to_string(),
        );
        let max_worker = self
            .epochs
            .iter()
            .flat_map(|e| e.bursts.iter().map(|b| b.worker))
            .max()
            .unwrap_or(0);
        for w in 1..=max_worker {
            ev.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            ));
        }
        let slice = |name: &str, cat: &str, tid: u32, lo: f64, hi: f64, args: String| {
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":{tid},\"ts\":{lo},\"dur\":{},\"args\":{{{args}}}}}",
                (hi - lo).max(0.0)
            )
        };
        let counter = |name: &str, ts: f64, key: &str, value: f64| {
            format!(
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{ts},\
                 \"args\":{{\"{key}\":{value}}}}}"
            )
        };
        for (i, e) in self.epochs.iter().enumerate() {
            ev.push(counter(
                "elected shards",
                e.elect_start_us,
                "shards",
                e.bursts.len() as f64,
            ));
            ev.push(counter(
                "pending events",
                e.elect_start_us,
                "events",
                e.pending as f64,
            ));
            ev.push(slice(
                &format!("epoch {i}"),
                "epoch",
                0,
                e.elect_start_us,
                e.reattach_end_us,
                format!(
                    "\"pending\":{},\"offloaded\":{},\"threads_used\":{}",
                    e.pending, e.offloaded, e.threads_used
                ),
            ));
            ev.push(slice(
                "elect",
                "barrier",
                0,
                e.elect_start_us,
                e.elect_end_us,
                String::new(),
            ));
            for b in &e.bursts {
                ev.push(slice(
                    &format!("burst shard {}", b.shard),
                    "burst",
                    b.worker,
                    b.start_us,
                    b.end_us,
                    format!(
                        "\"events\":{},\"pending\":{},\"foreign_pushes\":{},\"stalled\":{}",
                        b.events, b.pending, b.foreign_pushes, b.stalled
                    ),
                ));
            }
            ev.push(slice(
                "merge",
                "barrier",
                0,
                e.merge_start_us,
                e.merge_end_us,
                String::new(),
            ));
            ev.push(slice(
                "reattach",
                "barrier",
                0,
                e.merge_end_us,
                e.reattach_end_us,
                String::new(),
            ));
            ev.push(counter("elected shards", e.reattach_end_us, "shards", 0.0));
        }
        for r in &self.runs {
            ev.push(counter("elected shards", r.elect_start_us, "shards", 1.0));
            ev.push(counter(
                "pending events",
                r.elect_start_us,
                "events",
                r.pending as f64,
            ));
            ev.push(slice(
                "elect",
                "barrier",
                0,
                r.elect_start_us,
                r.elect_end_us,
                String::new(),
            ));
            ev.push(slice(
                &format!("run shard {}", r.shard),
                "run",
                0,
                r.elect_end_us,
                r.end_us,
                format!(
                    "\"events\":{},\"pending\":{},\"stalled\":{}",
                    r.events, r.pending, r.stalled
                ),
            ));
            ev.push(counter("elected shards", r.end_us, "shards", 0.0));
        }
        ev
    }

    /// Decomposes the trace into the Amdahl-style report.
    pub fn analyze(&self) -> ExecReport {
        let wall = self.wall_secs.max(1e-12);
        let secs = |lo: f64, hi: f64| ((hi - lo) / 1e6).max(0.0);
        let elect_secs: f64 = self
            .epochs
            .iter()
            .map(|e| secs(e.elect_start_us, e.elect_end_us))
            .sum();
        let merge_secs: f64 = self
            .epochs
            .iter()
            .map(|e| secs(e.merge_start_us, e.merge_end_us))
            .sum();
        let reattach_secs: f64 = self
            .epochs
            .iter()
            .map(|e| secs(e.merge_end_us, e.reattach_end_us))
            .sum();
        let run_elect_secs: f64 = self
            .runs
            .iter()
            .map(|r| secs(r.elect_start_us, r.elect_end_us))
            .sum();
        let run_secs: f64 = self
            .runs
            .iter()
            .map(|r| secs(r.elect_end_us, r.end_us))
            .sum();
        let serial_secs = elect_secs + merge_secs + reattach_secs + run_elect_secs + run_secs;

        let mut burst_span_secs = 0.0;
        let mut burst_busy_secs = 0.0;
        let mut idle_secs = 0.0;
        let mut inline_span_secs = 0.0;
        let mut imb_num = 0.0;
        let mut imb_den = 0u64;
        let mut stalled = 0u64;
        let mut bursts = 0u64;
        let mut slack_sum = 0.0;
        let mut slack_n = 0u64;
        let mut foreign = 0u64;
        for e in &self.epochs {
            let span = e.burst_span_secs();
            let busy = e.burst_busy_secs();
            burst_span_secs += span;
            burst_busy_secs += busy;
            if e.offloaded {
                let slots = e.threads_used.max(1) as f64;
                idle_secs += (slots * span - busy).max(0.0);
            } else {
                inline_span_secs += span;
            }
            let events = e.events();
            imb_num += e.imbalance() * events as f64;
            imb_den += events;
            for b in &e.bursts {
                bursts += 1;
                stalled += b.stalled as u64;
                foreign += b.foreign_pushes;
                if let Some(s) = b.slack_secs {
                    slack_sum += s;
                    slack_n += 1;
                }
            }
        }
        let epoch_events: u64 = self.epochs.iter().map(EpochRecord::events).sum();
        let run_events: u64 = self.runs.iter().map(|r| r.events).sum();
        let total_events = epoch_events + run_events;

        // Wall-time attribution. Straggler waste is per-slot idle
        // converted back to coordinator-wall by dividing by the slots
        // that were waiting.
        let frac_serial = serial_secs / wall;
        let frac_imbalance = self
            .epochs
            .iter()
            .filter(|e| e.offloaded)
            .map(|e| {
                let slots = e.threads_used.max(1) as f64;
                (e.burst_span_secs() - e.burst_busy_secs() / slots).max(0.0)
            })
            .sum::<f64>()
            / wall;
        let frac_inline = inline_span_secs / wall;

        let imbalance_ratio = if imb_den == 0 {
            1.0
        } else {
            imb_num / imb_den as f64
        };
        let stalled_fraction = if bursts == 0 {
            0.0
        } else {
            stalled as f64 / bursts as f64
        };
        let mean_slack_secs = if slack_n == 0 {
            0.0
        } else {
            slack_sum / slack_n as f64
        };
        let foreign_per_kevent = if total_events == 0 {
            0.0
        } else {
            foreign as f64 * 1000.0 / total_events as f64
        };
        let inline_event_fraction = if epoch_events == 0 {
            0.0
        } else {
            self.epochs
                .iter()
                .filter(|e| !e.offloaded)
                .map(EpochRecord::events)
                .sum::<u64>() as f64
                / epoch_events as f64
        };
        let profiler_barrier_secs = self
            .profile
            .phases
            .iter()
            .find(|p| p.name == "barrier")
            .map_or(0.0, |p| p.secs);
        // The recorder's own barrier accounting: everything the
        // coordinator does outside event execution — epoch elect/merge/
        // re-attach plus the classic runs' election windows. This is
        // what the LoopProfiler charges to its `barrier` phase.
        let exec_barrier_secs = elect_secs + merge_secs + reattach_secs + run_elect_secs;

        let verdict = {
            let inline_note = inline_event_fraction > 0.5 && self.threads > 1;
            if frac_serial >= frac_imbalance && frac_serial >= frac_inline {
                let mut v = format!(
                    "serialization — coordinator-only work (elect/merge/re-attach \
                     + plane runs) consumes {:.1}% of wall, capping speedup at \
                     {:.2}x regardless of thread count",
                    frac_serial * 100.0,
                    1.0 / frac_serial.max(1e-9),
                );
                if stalled_fraction > 0.5 {
                    let _ = write!(
                        v,
                        "; tight horizons cut {:.0}% of bursts short (mean slack {:.3}s \
                         virtual), so each barrier buys little parallel work",
                        stalled_fraction * 100.0,
                        mean_slack_secs,
                    );
                }
                v
            } else if frac_imbalance >= frac_inline {
                format!(
                    "load imbalance — stragglers waste {:.1}% of wall \
                     (max/mean burst events {:.2})",
                    frac_imbalance * 100.0,
                    imbalance_ratio,
                )
            } else {
                format!(
                    "small-burst inline fallback — {:.1}% of wall ran single-threaded \
                     because pending events stayed below offload_min_events = {}{}",
                    frac_inline * 100.0,
                    self.offload_min_events,
                    if inline_note {
                        format!(
                            " ({:.0}% of epoch events never reached a worker thread)",
                            inline_event_fraction * 100.0
                        )
                    } else {
                        String::new()
                    },
                )
            }
        };

        ExecReport {
            wall_secs: self.wall_secs,
            shards: self.shards,
            threads: self.threads,
            epochs: self.epochs_run(),
            offloaded_epochs: self.epochs.iter().filter(|e| e.offloaded).count() as u64,
            classic_runs: self.runs.len() as u64,
            epoch_events,
            run_events,
            elect_secs,
            merge_secs,
            reattach_secs,
            run_elect_secs,
            run_secs,
            serial_secs,
            serialization_fraction: frac_serial,
            burst_span_secs,
            burst_busy_secs,
            worker_idle_secs: idle_secs,
            imbalance_fraction: frac_imbalance,
            inline_fraction: frac_inline,
            imbalance_ratio,
            stalled_burst_fraction: stalled_fraction,
            mean_slack_secs,
            foreign_per_kevent,
            inline_event_fraction,
            exec_barrier_secs,
            profiler_barrier_secs,
            verdict,
        }
    }
}

/// The analyzer's decomposition of an [`ExecTrace`]. All fractions are
/// of total recorder wall time unless noted.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecReport {
    /// Recorder wall time, seconds.
    pub wall_secs: f64,
    /// Configured shards.
    pub shards: u32,
    /// Configured threads.
    pub threads: u32,
    /// Parallel epochs executed.
    pub epochs: u64,
    /// Epochs whose bursts were dispatched to worker threads.
    pub offloaded_epochs: u64,
    /// Classic (plane/fallback) runs executed.
    pub classic_runs: u64,
    /// Events processed inside epochs.
    pub epoch_events: u64,
    /// Events processed by classic runs.
    pub run_events: u64,
    /// Coordinator wall in epoch elections, seconds.
    pub elect_secs: f64,
    /// Coordinator wall in epoch merges, seconds.
    pub merge_secs: f64,
    /// Coordinator wall in epoch re-attach/summaries, seconds.
    pub reattach_secs: f64,
    /// Coordinator wall in classic-run elections, seconds.
    pub run_elect_secs: f64,
    /// Coordinator wall draining classic runs, seconds.
    pub run_secs: f64,
    /// Total coordinator-only (serialized) wall, seconds.
    pub serial_secs: f64,
    /// `serial_secs / wall_secs` — the Amdahl serial fraction.
    pub serialization_fraction: f64,
    /// Sum of per-epoch burst-phase windows, seconds.
    pub burst_span_secs: f64,
    /// Sum of individual burst durations, seconds.
    pub burst_busy_secs: f64,
    /// Slot-seconds workers spent idle inside offloaded epochs.
    pub worker_idle_secs: f64,
    /// Wall fraction lost to stragglers in offloaded epochs.
    pub imbalance_fraction: f64,
    /// Wall fraction spent in inline (non-offloaded) burst phases.
    pub inline_fraction: f64,
    /// Events-weighted mean of per-epoch max/mean burst events.
    pub imbalance_ratio: f64,
    /// Fraction of bursts that stalled at the epoch horizon.
    pub stalled_burst_fraction: f64,
    /// Mean virtual-time horizon slack at election, seconds.
    pub mean_slack_secs: f64,
    /// Foreign pushes buffered per thousand events.
    pub foreign_per_kevent: f64,
    /// Fraction of epoch events processed by inline epochs.
    pub inline_event_fraction: f64,
    /// The recorder's own barrier accounting (elect + merge + re-attach
    /// + classic elections), seconds — compare `profiler_barrier_secs`.
    pub exec_barrier_secs: f64,
    /// The merged `LoopProfiler` barrier phase, seconds.
    pub profiler_barrier_secs: f64,
    /// The one-line bottleneck verdict.
    pub verdict: String,
}

impl ExecReport {
    /// Renders the report as the text `sctsim exec` prints.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# Execution-plane analysis");
        let _ = writeln!(
            s,
            "trace: {} shards x {} threads; {} epochs ({} offloaded), {} classic runs; \
             {} epoch events + {} run events over {:.3} s wall",
            self.shards,
            self.threads,
            self.epochs,
            self.offloaded_epochs,
            self.classic_runs,
            self.epoch_events,
            self.run_events,
            self.wall_secs,
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "## Amdahl decomposition (fractions of wall)");
        let _ = writeln!(
            s,
            "serialized coordinator work   {:>7.3} s  ({:.1}%)",
            self.serial_secs,
            self.serialization_fraction * 100.0
        );
        let _ = writeln!(
            s,
            "  epoch elect / merge / re-attach   {:.3} / {:.3} / {:.3} s",
            self.elect_secs, self.merge_secs, self.reattach_secs
        );
        let _ = writeln!(
            s,
            "  classic runs (elect + drain)      {:.3} + {:.3} s",
            self.run_elect_secs, self.run_secs
        );
        let _ = writeln!(
            s,
            "parallel burst phases         {:>7.3} s span, {:.3} s busy, \
             {:.3} slot-s idle",
            self.burst_span_secs, self.burst_busy_secs, self.worker_idle_secs
        );
        let _ = writeln!(
            s,
            "load-imbalance ratio          {:>7.2}  (max/mean burst events, \
             events-weighted)",
            self.imbalance_ratio
        );
        let _ = writeln!(
            s,
            "Amdahl ceiling                {:>7.2}x  (1 / serial fraction)",
            1.0 / self.serialization_fraction.max(1e-9)
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "## Stall attribution");
        let _ = writeln!(
            s,
            "tight horizons            {:.1}% of bursts stalled at the epoch horizon \
             (mean slack {:.4} s virtual)",
            self.stalled_burst_fraction * 100.0,
            self.mean_slack_secs
        );
        let _ = writeln!(
            s,
            "foreign-push buffering    {:.2} pushes per 1k events",
            self.foreign_per_kevent
        );
        let _ = writeln!(
            s,
            "small-burst inline path   {:.1}% of wall, {:.1}% of epoch events",
            self.inline_fraction * 100.0,
            self.inline_event_fraction * 100.0
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "## Reconciliation");
        let pct = if self.profiler_barrier_secs > 0.0 {
            (self.exec_barrier_secs - self.profiler_barrier_secs) / self.profiler_barrier_secs
                * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "recorder barrier {:.3} s vs LoopProfiler barrier phase {:.3} s ({:+.1}%)",
            self.exec_barrier_secs, self.profiler_barrier_secs, pct
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "## Verdict");
        let _ = writeln!(s, "bottleneck: {}", self.verdict);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ProfilePhase;

    fn profile(barrier_secs: f64) -> ProfileSnapshot {
        ProfileSnapshot {
            wall_secs: 1.0,
            events: 1000,
            events_per_sec: 1000.0,
            phases: vec![ProfilePhase {
                name: "barrier".to_string(),
                secs: barrier_secs,
                calls: 10,
            }],
        }
    }

    fn burst(shard: u32, worker: u32, lo: f64, hi: f64, events: u64) -> BurstRecord {
        BurstRecord {
            shard,
            worker,
            start_us: lo,
            end_us: hi,
            events,
            pending: events,
            foreign_pushes: 0,
            slack_secs: Some(0.5),
            stalled: true,
        }
    }

    fn sample_trace() -> ExecTrace {
        ExecTrace {
            version: 1,
            shards: 4,
            threads: 2,
            offload_min_events: 256,
            wall_secs: 0.001,
            epochs: vec![
                EpochRecord {
                    elect_start_us: 0.0,
                    elect_end_us: 100.0,
                    merge_start_us: 400.0,
                    merge_end_us: 500.0,
                    reattach_end_us: 520.0,
                    pending: 30,
                    offloaded: true,
                    threads_used: 2,
                    bursts: vec![burst(1, 0, 100.0, 400.0, 20), burst(2, 1, 110.0, 200.0, 10)],
                },
                EpochRecord {
                    elect_start_us: 600.0,
                    elect_end_us: 610.0,
                    merge_start_us: 650.0,
                    merge_end_us: 660.0,
                    reattach_end_us: 665.0,
                    pending: 4,
                    offloaded: false,
                    threads_used: 1,
                    bursts: vec![burst(1, 0, 610.0, 650.0, 4)],
                },
            ],
            runs: vec![RunRecord {
                shard: 0,
                elect_start_us: 700.0,
                elect_end_us: 710.0,
                end_us: 900.0,
                events: 50,
                pending: 50,
                slack_secs: None,
                stalled: false,
            }],
            profile: profile(0.00024),
        }
    }

    #[test]
    fn trace_round_trips_through_the_combined_json() {
        let trace = sample_trace();
        let text = trace.to_json();
        assert!(text.contains("\"traceEvents\""), "{text}");
        assert!(text.contains("\"exec\""), "{text}");
        let back = ExecTrace::from_json(&text).unwrap();
        assert_eq!(back, trace);
        // A bare object (no traceEvents wrapper) also parses.
        let bare = serde_json::to_string(&trace).unwrap();
        assert_eq!(ExecTrace::from_json(&bare).unwrap(), trace);
        assert!(ExecTrace::from_json("[1,2]").is_err());
        assert!(ExecTrace::from_json("{nope").is_err());
    }

    #[test]
    fn perfetto_events_cover_workers_barriers_and_counters() {
        let trace = sample_trace();
        let events = trace.perfetto_events();
        let text = events.join("\n");
        assert!(text.contains("\"name\":\"worker 1\""), "{text}");
        assert!(text.contains("\"name\":\"coordinator\""), "{text}");
        assert!(text.contains(
            "\"name\":\"burst shard 2\",\"cat\":\"burst\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        ));
        assert!(text.contains("\"name\":\"elect\",\"cat\":\"barrier\""));
        assert!(text.contains("\"name\":\"merge\",\"cat\":\"barrier\""));
        assert!(text.contains("\"name\":\"elected shards\",\"ph\":\"C\""));
        assert!(text.contains("\"name\":\"pending events\",\"ph\":\"C\""));
        assert!(text.contains("\"name\":\"run shard 0\",\"cat\":\"run\""));
    }

    #[test]
    fn analyzer_decomposes_and_reconciles() {
        let report = sample_trace().analyze();
        assert_eq!(report.epochs, 2);
        assert_eq!(report.offloaded_epochs, 1);
        assert_eq!(report.classic_runs, 1);
        assert_eq!(report.epoch_events, 34);
        assert_eq!(report.run_events, 50);
        // Serial: elect 100+10, merge 100+10, reattach 20+5, run elect
        // 10, run drain 190 → 445 us.
        assert!(
            (report.serial_secs - 445e-6).abs() < 1e-12,
            "{}",
            report.serial_secs
        );
        // Imbalance of the offloaded epoch: max 20 of mean 15 → 4/3,
        // weighted with the inline epoch's 1.0 on 4 events.
        let expect = (20.0 * 2.0 / 30.0 * 30.0 + 1.0 * 4.0) / 34.0;
        assert!((report.imbalance_ratio - expect).abs() < 1e-12);
        assert!(report.stalled_burst_fraction > 0.99);
        // exec barrier = serial minus the classic drain: 255 us.
        assert!((report.exec_barrier_secs - 255e-6).abs() < 1e-12);
        assert!((report.profiler_barrier_secs - 0.00024).abs() < 1e-15);
        let text = report.to_text();
        assert!(text.contains("## Amdahl decomposition"), "{text}");
        assert!(text.contains("## Stall attribution"), "{text}");
        assert!(text.contains("bottleneck: "), "{text}");
        assert!(text.contains("LoopProfiler barrier phase"), "{text}");
    }

    #[test]
    fn verdict_names_serialization_when_the_coordinator_dominates() {
        let report = sample_trace().analyze();
        // 445 us serialized of 1000 us wall dominates everything else.
        assert!(
            report.verdict.starts_with("serialization"),
            "{}",
            report.verdict
        );
        assert!(
            report.verdict.contains("tight horizons"),
            "{}",
            report.verdict
        );
    }

    #[test]
    fn verdict_names_imbalance_when_stragglers_dominate() {
        let mut trace = sample_trace();
        trace.wall_secs = 0.0006;
        trace.epochs[0].elect_end_us = 5.0;
        trace.epochs[0].merge_start_us = 500.0;
        trace.epochs[0].merge_end_us = 505.0;
        trace.epochs[0].reattach_end_us = 506.0;
        trace.epochs[0].bursts = vec![burst(1, 0, 5.0, 500.0, 100), burst(2, 1, 5.0, 50.0, 10)];
        trace.epochs.truncate(1);
        trace.runs.clear();
        let report = trace.analyze();
        assert!(
            report.verdict.starts_with("load imbalance"),
            "{}",
            report.verdict
        );
    }

    #[test]
    fn verdict_names_inline_fallback_when_nothing_offloads() {
        let mut trace = sample_trace();
        trace.wall_secs = 0.0005;
        for e in &mut trace.epochs {
            e.offloaded = false;
            e.threads_used = 1;
        }
        trace.epochs[0].bursts.iter_mut().for_each(|b| b.worker = 0);
        // Shrink the coordinator windows so the inline burst span wins.
        trace.epochs[0].elect_end_us = 2.0;
        trace.epochs[0].merge_start_us = 400.0;
        trace.epochs[0].merge_end_us = 402.0;
        trace.epochs[0].reattach_end_us = 403.0;
        trace.runs.clear();
        let report = trace.analyze();
        assert!(
            report.verdict.starts_with("small-burst inline fallback"),
            "{}",
            report.verdict
        );
    }
}
