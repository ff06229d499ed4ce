//! The host's clock speed, read with a dependency chain.
//!
//! The benchmark's host is shared, and the core clock it grants drifts with
//! its neighbours' load: over tens of minutes it moved between 3.0 and
//! 2.5 GHz in 100 MHz steps, and every host time with it. So a run
//! reads the clock with [`ClockProbe`] between its timed units, and the
//! end-to-end figures scale their host seconds by the clock the run saw
//! against [`REFERENCE_HZ`]: they read as host seconds at the reference
//! clock, i.e. clock cycles. A change to the simulator moves them as it
//! moves host time; a change in the clock the host grants moves the probe
//! with them and cancels. Slowdowns the chain does not feel (contention
//! for caches and memory) are left in, and are what the per-slice minima
//! of the timed units are for.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the chain per reading. Each step is three dependent
/// shift-and-xor pairs, six cycles on any core that retires one dependent
/// integer operation per cycle, so a reading is 300,000 cycles (about
/// 0.1 ms).
const STEPS: u64 = 50_000;
const CYCLES_PER_STEP: f64 = 6.0;

/// The clock the chain showed, undisturbed, on the host the benchmark was
/// tuned on (an Intel Xeon virtual machine, CPU model 207): the rate that
/// makes the scaled figures read as that host's seconds.
pub const REFERENCE_HZ: f64 = 3.0e9;

/// Reads the host clock the run is granted.
#[derive(Default)]
pub struct ClockProbe {
    /// Fastest reading so far, host seconds per reading.
    fastest: Option<f64>,
}

impl ClockProbe {
    /// Takes `n` readings and keeps the fastest seen so far: the clock at
    /// its least disturbed, which a longer run finds more surely.
    pub fn read(&mut self, n: usize) {
        for _ in 0..n {
            let secs = chain_secs();
            self.fastest = Some(self.fastest.map_or(secs, |f| f.min(secs)));
        }
    }

    /// Host clock rate from the fastest reading, Hz.
    pub fn hz(&self) -> f64 {
        self.fastest
            .map_or(REFERENCE_HZ, |secs| STEPS as f64 * CYCLES_PER_STEP / secs)
    }

    /// Factor that turns this run's host seconds into seconds at
    /// [`REFERENCE_HZ`].
    pub fn to_reference(&self) -> f64 {
        self.hz() / REFERENCE_HZ
    }
}

fn chain_secs() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}
