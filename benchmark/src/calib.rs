//! The calibration loop: a fixed amount of single-thread work whose duration
//! tracks how fast this box is running *right now*. Host times are divided
//! by it (see [`crate::stats::calibrated`]), which cancels the slow minutes
//! of a shared sandbox that a raw wall-clock reading would keep.

use std::hint::black_box;
use std::time::Instant;

use beehive_sim::Rng;

/// Pointer-chase buffer: 64 Ki `u32` links = 256 KiB — past L1, inside L2,
/// like the interpreter's own hot data. Sizing it: on the 2-core reference
/// box the speed of everything flips between two modes a few times a minute
/// (≈25 % apart); a 128–256 KiB chase tracked `repro`'s own time through
/// those flips (spread of the ratio 2–3 %), an ALU-only loop slightly worse,
/// and a 4 MiB chase clearly worse (5–7 %): it also hears the neighbours'
/// DRAM traffic, which `repro` mostly does not.
const LINKS: usize = 1 << 16;

/// Chase steps per calibration. A source constant, never auto-tuned: the
/// loop must be the same work on every box and at every commit. Sized to
/// [`crate::stats::CALIB_REF_S`] on the reference 2-core box in its fast
/// mode.
const STEPS: u64 = 27_000_000;

/// Owns the chase buffer and remembers the latest reading, so that two
/// invocations timed back to back share the calibration between them.
pub struct Calibrator {
    links: Vec<u32>,
    last: Option<f64>,
    /// Every reading taken, for the noise verdict.
    pub readings: Vec<f64>,
}

impl Calibrator {
    /// Build the buffer: one random cycle through all links (Sattolo's
    /// shuffle, fixed seed), so the chase never falls into a short loop.
    pub fn new() -> Calibrator {
        let mut links: Vec<u32> = (0..LINKS as u32).collect();
        let mut rng = Rng::new(0xCA11_B8A7);
        for i in (1..LINKS).rev() {
            let j = rng.gen_range(i as u64) as usize;
            links.swap(i, j);
        }
        Calibrator {
            links,
            last: None,
            readings: Vec::new(),
        }
    }

    /// Run the loop once with `steps` chase steps; seconds taken.
    fn time_loop(&self, steps: u64) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        let mut acc = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..steps {
            at = self.links[at as usize];
            // Integer mix (xorshift-multiply): ALU work between the loads.
            acc ^= at as u64;
            acc = acc.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            acc ^= acc >> 29;
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }

    /// Take a fresh reading.
    pub fn measure(&mut self) -> f64 {
        let s = self.time_loop(STEPS);
        self.last = Some(s);
        self.readings.push(s);
        s
    }

    /// The reading taken just before now if there is one, else a fresh one.
    pub fn before(&mut self) -> f64 {
        match self.last {
            Some(s) => s,
            None => self.measure(),
        }
    }

    /// Forget the latest reading (call after untimed work, so the next
    /// timed invocation gets a fresh "before").
    pub fn invalidate(&mut self) {
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_visits_every_link_once_per_cycle() {
        let c = Calibrator::new();
        let mut seen = vec![false; LINKS];
        let mut at = 0u32;
        for _ in 0..LINKS {
            assert!(!seen[at as usize], "short cycle");
            seen[at as usize] = true;
            at = c.links[at as usize];
        }
        assert_eq!(at, 0, "one full cycle returns to the start");
    }

    #[test]
    fn loop_time_grows_with_steps() {
        // black_box is only a hint; confirm the work is not optimised away.
        let c = Calibrator::new();
        assert!(c.time_loop(2_000_000) > c.time_loop(20_000));
    }
}
