//! Property test for [`ShardedQueue`]'s keyed slots under barrier runs:
//! for random push / re-key / cancel schedules, draining the queue run
//! by run visits exactly the plain [`EventQueue`]'s pop order (extends
//! the sharded `barrier_matches_single_queue` property, which uses
//! plain pushes only, to keyed slots).
//!
//! The harness mirrors how `sct-core` drives the queue: one classic run
//! after another until every shard drains. Every shard owns one keyed
//! slot (shard `s` owns slot `s`), re-armed the way the simulator
//! re-arms a server's wake. A seed event may follow up with a plain
//! push on its own shard, a plain push on a foreign shard, and one slot
//! operation on any shard's slot:
//!
//! * a re-key, under a fresh key (a reschedule);
//! * a keep-if-armed re-arm, which keeps an armed slot's key and burns a
//!   sequence number, i.e. a re-arm with no reschedule in between;
//! * a cancel (the server failed or was repaired).
//!
//! Follow-ups land at any time, so foreign pushes and re-keys tighten
//! the active run's horizon. The oracle plays the same re-arms as
//! generation-stamped plain pushes and discards stale ones when they
//! pop.

use proptest::prelude::*;
use sct_simcore::{EventQueue, ShardedQueue, SimTime};
use std::collections::HashMap;

/// One generated seed event: raw shard pick, time, own-push delay,
/// foreign-push delay, slot-op delay, slot-op kind. The vendored
/// proptest has no `Option` strategy, so negative delays encode "no
/// follow-up".
type Entry = (usize, f64, f64, f64, f64, usize);

fn delay(d: f64) -> Option<f64> {
    (d >= 0.0).then_some(d)
}

/// A slot operation requested by a seed event.
#[derive(Clone, Copy)]
enum SlotOp {
    /// Arm `slot` at `at`; with `keep`, an already-armed slot keeps its
    /// key instead.
    Arm {
        slot: usize,
        at: SimTime,
        keep: bool,
    },
    /// Disarm `slot`.
    Cancel(usize),
}

/// The follow-ups of one visited event.
struct FollowUps {
    own: Option<SimTime>,
    foreign: Option<(usize, SimTime)>,
    slot: Option<SlotOp>,
}

/// The follow-up rule for event `id`. Only seed events (ids below
/// `entries.len()`) follow up, which bounds the recursion.
fn follow_ups(
    id: u32,
    now: SimTime,
    entries: &[Entry],
    shards: &[usize],
    n_shards: usize,
) -> FollowUps {
    let Some(&(_, _, own_d, foreign_d, slot_d, kind)) = entries.get(id as usize) else {
        return FollowUps {
            own: None,
            foreign: None,
            slot: None,
        };
    };
    let my = shards[id as usize];
    // A deterministic shard other than my own, if there is one.
    let other = (n_shards > 1).then(|| (my + 1 + id as usize % (n_shards - 1)) % n_shards);
    let target = id as usize % n_shards;
    FollowUps {
        own: delay(own_d).map(|d| now + d),
        foreign: other.zip(delay(foreign_d)).map(|(s, d)| (s, now + d)),
        slot: delay(slot_d).map(|d| match kind {
            0 => SlotOp::Arm {
                slot: target,
                at: now + d,
                keep: false,
            },
            1 => SlotOp::Arm {
                slot: target,
                at: now + d,
                keep: true,
            },
            _ => SlotOp::Cancel(target),
        }),
    }
}

/// Ids of pushed events, unique per (parent, kind) since only seed ids
/// (< entries.len()) push.
fn own_id(entries: &[Entry], parent: u32) -> u32 {
    entries.len() as u32 + 3 * parent
}
fn foreign_id(entries: &[Entry], parent: u32) -> u32 {
    entries.len() as u32 + 3 * parent + 1
}
fn rearm_id(entries: &[Entry], parent: u32) -> u32 {
    entries.len() as u32 + 3 * parent + 2
}

fn shard_assignment(entries: &[Entry], n_shards: usize) -> Vec<usize> {
    entries.iter().map(|&(raw, ..)| raw % n_shards).collect()
}

/// The oracle: one plain queue, same seed pushes, same follow-ups,
/// popped in the global total order.
fn run_oracle(entries: &[Entry], n_shards: usize) -> Vec<(SimTime, u32)> {
    let shards = shard_assignment(entries, n_shards);
    let mut q = EventQueue::new();
    for (id, &(_, t, ..)) in entries.iter().enumerate() {
        q.push(SimTime::from_secs(t), id as u32);
    }
    // Per slot: generation, and the time its live entry is at (if any).
    let mut gen = vec![0u64; n_shards];
    let mut live: Vec<Option<SimTime>> = vec![None; n_shards];
    // Re-arm id → (slot, generation it was pushed under).
    let mut stamp: HashMap<u32, (usize, u64)> = HashMap::new();
    let mut visits = Vec::new();
    while let Some(e) = q.pop() {
        let id = e.payload;
        if let Some(&(slot, g)) = stamp.get(&id) {
            if g != gen[slot] {
                continue; // superseded by a later re-arm or a cancel
            }
            // Popping a slot's entry reschedules it: any duplicate
            // pushed under the same generation is stale now.
            gen[slot] += 1;
            live[slot] = None;
        }
        let f = follow_ups(id, e.time, entries, &shards, n_shards);
        if let Some(t) = f.own {
            q.push(t, own_id(entries, id));
        }
        if let Some((_, t)) = f.foreign {
            q.push(t, foreign_id(entries, id));
        }
        match f.slot {
            Some(SlotOp::Arm { slot, at, keep }) => {
                let rid = rearm_id(entries, id);
                match live[slot] {
                    // No reschedule: a duplicate under the same
                    // generation, at the live entry's time.
                    Some(armed) if keep => q.push(armed, rid),
                    _ => {
                        gen[slot] += 1;
                        live[slot] = Some(at);
                        q.push(at, rid);
                    }
                }
                stamp.insert(rid, (slot, gen[slot]));
            }
            Some(SlotOp::Cancel(slot)) => {
                gen[slot] += 1;
                live[slot] = None;
            }
            None => {}
        }
        visits.push((e.time, id));
    }
    visits
}

/// The sharded runner: classic barrier runs until every shard drains.
fn run_sharded(entries: &[Entry], n_shards: usize) -> Vec<(SimTime, u32)> {
    let shards = shard_assignment(entries, n_shards);
    let mut q = ShardedQueue::new(n_shards, 8);
    for (id, &(_, t, ..)) in entries.iter().enumerate() {
        q.push(shards[id], SimTime::from_secs(t), id as u32);
    }
    let mut visits = Vec::new();
    while let Some(token) = q.begin_run() {
        while let Some(e) = q.pop_run(&token) {
            let id = e.payload;
            let f = follow_ups(id, e.time, entries, &shards, n_shards);
            if let Some(t) = f.own {
                q.push(token.shard(), t, own_id(entries, id));
            }
            if let Some((target, t)) = f.foreign {
                q.push(target, t, foreign_id(entries, id));
            }
            match f.slot {
                Some(SlotOp::Arm { slot, at, keep }) => {
                    if keep && q.armed(slot, slot).is_some() {
                        q.skip_seq();
                    } else {
                        q.push_keyed(slot, slot, at, rearm_id(entries, id));
                    }
                }
                Some(SlotOp::Cancel(slot)) => {
                    q.cancel(slot, slot);
                }
                None => {}
            }
            visits.push((e.time, id));
        }
        q.end_run(token);
    }
    assert!(q.is_empty(), "sharded runner left events behind");
    visits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any seed schedule and shard count, the sharded runner's
    /// visit order equals the plain single-queue pop order, event for
    /// event.
    #[test]
    fn sharded_runs_match_the_single_queue(
        n_shards in 1usize..5,
        entries in prop::collection::vec(
            // Negative delay = no follow-up (~1/3 of draws each).
            (
                0usize..8,
                0.0f64..1000.0,
                -25.0f64..50.0,
                -25.0f64..50.0,
                -25.0f64..50.0,
                0usize..3,
            ),
            0..40,
        ),
    ) {
        let expected = run_oracle(&entries, n_shards);
        let got = run_sharded(&entries, n_shards);
        prop_assert_eq!(got, expected);
    }
}
