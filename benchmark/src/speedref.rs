//! The speed reference: a fixed piece of work — a dependent-load chain
//! over a 64 MB table, then a dependent arithmetic chain — run after
//! every session, so that each round knows how fast the machine was
//! while its sessions ran.
//!
//! On this sandbox the same deterministic enumeration runs up to 2×
//! slower for seconds to minutes at a time, whole 22 s runs included, so
//! no statistic *within* a run removes it. What slows is partly memory
//! (per-round `ttk` of `enum-deep` correlated r = 0.5–0.8 with a 64 MB
//! pointer chase taken in the same round) and partly the core itself
//! (r = 0.3–0.5 with an arithmetic loop, more on `open-cold`). Dividing
//! each round's timings by the reference's slowdown — half its
//! memory half, half its arithmetic half, each against a nominal
//! figure — cut the spread of ten runs' medians from 12–18 % to 2–5 % on
//! `enum-deep` and from 6–19 % to 2–4 % on `open-cold` (three sets of
//! ten runs; the README has the table). The two workloads that run
//! entirely on the client thread therefore report their timings *at
//! reference speed*. The two whose time is mostly parks and round trips
//! (`remote-cold`, `wire-mixed`) do not follow the reference (r ≈ 0.3,
//! scaling made them worse) and report raw milliseconds; on the wire
//! workload the sampling pause also knocked the client out of phase
//! with the reactor's park cycle and made the round p50 bimodal.
//!
//! An earlier attempt to divide by an interleaved *arithmetic-only*
//! kernel made agreement worse; the memory half is what carries most of
//! the signal.

use crate::harness::Rng;
use std::time::Instant;

/// What the two halves cost on this sandbox in an ordinary period (the
/// medians over thirty runs), so that a scaled figure reads like the
/// raw one did then.
const REF_LOAD_NS: f64 = 265.0;
const REF_STEP_NS: f64 = 1.9;
/// 16 Mi `u32`s: 64 MB, far beyond the last-level cache and the TLB.
const TABLE_LEN: usize = 1 << 24;
/// ≈ 1 ms of dependent loads, then ≈ 0.3 ms of xorshift steps, a sample.
const LOADS_PER_SAMPLE: usize = 4_000;
const STEPS_PER_SAMPLE: usize = 150_000;

pub struct SpeedRef {
    next: Vec<u32>,
    pos: u32,
    x: u64,
    load_ns: f64,
    step_ns: f64,
    samples: u64,
}

impl SpeedRef {
    /// Builds the table as one cycle through every slot (Sattolo's
    /// algorithm), so a chain never falls into a short, cached loop.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut rng = Rng::new(0x5EED_5EED);
        for i in (1..TABLE_LEN).rev() {
            let j = (rng.next_u64() % i as u64) as usize;
            next.swap(i, j);
        }
        SpeedRef {
            next,
            pos: 0,
            x: 0x9E37_79B9_7F4A_7C15,
            load_ns: 0.0,
            step_ns: 0.0,
            samples: 0,
        }
    }

    /// Heap bytes the table holds (taken out of `peak_heap_mb`).
    pub fn bytes(&self) -> usize {
        self.next.len() * std::mem::size_of::<u32>()
    }

    /// One sample: follows the chain where the last sample stopped,
    /// then runs the arithmetic chain.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut pos = self.pos;
        for _ in 0..LOADS_PER_SAMPLE {
            pos = self.next[pos as usize];
        }
        self.pos = std::hint::black_box(pos);
        let t1 = Instant::now();
        // xorshift64: each step needs the one before, and the compiler
        // cannot collapse it the way it collapses an affine recurrence.
        let mut x = self.x;
        for _ in 0..STEPS_PER_SAMPLE {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.x = std::hint::black_box(x);
        let t2 = Instant::now();
        self.load_ns += (t1 - t0).as_nanos() as f64;
        self.step_ns += (t2 - t1).as_nanos() as f64;
        self.samples += 1;
    }

    /// How much slower than nominal the reference ran over the samples
    /// since the last call: the mean of its two halves' slowdowns
    /// (1.0 = nominal; 0.0 = no samples).
    pub fn take_slowdown(&mut self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let per_load = self.load_ns / (self.samples * LOADS_PER_SAMPLE as u64) as f64;
        let per_step = self.step_ns / (self.samples * STEPS_PER_SAMPLE as u64) as f64;
        (self.load_ns, self.step_ns, self.samples) = (0.0, 0.0, 0);
        0.5 * per_load / REF_LOAD_NS + 0.5 * per_step / REF_STEP_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_and_samples_accumulate() {
        let mut r = SpeedRef::new();
        assert_eq!(r.bytes(), 64 << 20);
        // Sattolo: no fixed points, and the chain returns to 0 only
        // after visiting every slot (spot-checked on a prefix).
        assert!(r.next.iter().enumerate().all(|(i, &n)| n as usize != i));
        let mut pos = 0u32;
        for _ in 0..1_000_000 {
            pos = r.next[pos as usize];
            assert_ne!(pos, 0);
        }
        assert_eq!(r.take_slowdown(), 0.0);
        r.sample();
        r.sample();
        assert!(r.take_slowdown() > 0.0);
        assert_eq!(r.take_slowdown(), 0.0, "taking resets");
    }
}
