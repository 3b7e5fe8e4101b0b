//! LCS baseline — lazy thread-block scheduling (Lee et al., HPCA 2014).
//!
//! LCS observes the execution of the *first* thread block on each core
//! and computes a static optimal block count from it, with no dynamic
//! tuning afterwards. During observation the core runs a single block;
//! once it completes, the memory-stall fraction `f` of the observation
//! window sizes the block count needed to hide memory latency:
//! `N ≈ 1 / (1 - f)` (a core stalled half the time needs two blocks to
//! stay busy, and so on), capped by the window count.
//!
//! In the paper's bandwidth-bound regime `f` is large, so LCS chooses
//! the maximum — behaving like the unoptimized baseline, which is why
//! the paper reports it shows "no meaningful improvements" there.

use llamcat_sim::arb::{ThrottleController, ThrottleInputs};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Running the first block alone and measuring.
    Observe { start_mem: u64, start_cycle: u64 },
    /// Decision locked in.
    Fixed { limit: usize },
}

/// Lazy per-core block-count selection.
#[derive(Clone)]
pub struct Lcs {
    phase: Vec<Phase>,
    seen_tbs: Vec<u64>,
}

impl Lcs {
    pub fn new() -> Self {
        Lcs {
            phase: Vec::new(),
            seen_tbs: Vec::new(),
        }
    }
}

impl Default for Lcs {
    fn default() -> Self {
        Self::new()
    }
}

impl ThrottleController for Lcs {
    fn tick(&mut self, inputs: &ThrottleInputs<'_>, max_tb: &mut [usize]) {
        let n = max_tb.len();
        if self.phase.len() != n {
            self.reset(n);
        }
        for (c, tb) in max_tb.iter_mut().enumerate() {
            match self.phase[c] {
                Phase::Observe {
                    start_mem,
                    start_cycle,
                } => {
                    *tb = 1;
                    if inputs.tbs_completed[c] > self.seen_tbs[c] {
                        // First block finished: decide.
                        let elapsed = (inputs.cycle - start_cycle).max(1);
                        let stalled = inputs.c_mem[c].saturating_sub(start_mem).min(elapsed);
                        let busy = (elapsed - stalled).max(1);
                        let needed = elapsed.div_ceil(busy) as usize;
                        let limit = needed.clamp(1, inputs.num_windows);
                        self.phase[c] = Phase::Fixed { limit };
                        *tb = limit;
                    }
                }
                Phase::Fixed { limit } => {
                    *tb = limit;
                }
            }
        }
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        // LCS reacts only to first-block completions (`tbs_completed`
        // moving), which happen on core-retirement ticks — discrete
        // events the fast-forward engine never skips. Between them the
        // observation/decision state and the max_tb output are frozen.
        None
    }

    fn reset(&mut self, num_cores: usize) {
        self.phase = vec![
            Phase::Observe {
                start_mem: 0,
                start_cycle: 0,
            };
            num_cores
        ];
        self.seen_tbs = vec![0; num_cores];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs<'a>(
        cycle: u64,
        c_mem: &'a [u64],
        tbs: &'a [u64],
        zero: &'a [u64],
        active: &'a [usize],
    ) -> ThrottleInputs<'a> {
        ThrottleInputs {
            cycle,
            num_windows: 4,
            num_slices: 8,
            progress: zero,
            c_mem,
            c_idle: zero,
            llc_stall_cycles: 0,
            active_tbs: active,
            tbs_completed: tbs,
        }
    }

    #[test]
    fn observes_with_one_block() {
        let mut l = Lcs::new();
        let mut max_tb = vec![4usize; 1];
        let zero = [0u64];
        let active = [1usize];
        l.tick(&inputs(10, &[0], &[0], &zero, &active), &mut max_tb);
        assert_eq!(max_tb, vec![1], "lazy: single block while observing");
    }

    #[test]
    fn memory_bound_first_block_selects_maximum() {
        let mut l = Lcs::new();
        let mut max_tb = vec![4usize; 1];
        let zero = [0u64];
        let active = [1usize];
        l.tick(&inputs(0, &[0], &[0], &zero, &active), &mut max_tb);
        // Block completes at cycle 1000 having stalled 900 cycles:
        // N = ceil(1000 / 100) = 10 -> capped at 4.
        l.tick(&inputs(1000, &[900], &[1], &zero, &active), &mut max_tb);
        assert_eq!(max_tb, vec![4]);
        // Decision is static afterwards.
        l.tick(&inputs(5000, &[4900], &[9], &zero, &active), &mut max_tb);
        assert_eq!(max_tb, vec![4]);
    }

    #[test]
    fn compute_bound_first_block_stays_low() {
        let mut l = Lcs::new();
        let mut max_tb = vec![4usize; 1];
        let zero = [0u64];
        let active = [1usize];
        l.tick(&inputs(0, &[0], &[0], &zero, &active), &mut max_tb);
        // Stalled only 200 of 1000 cycles: N = ceil(1000/800) = 2.
        l.tick(&inputs(1000, &[200], &[1], &zero, &active), &mut max_tb);
        assert_eq!(max_tb, vec![2]);
    }

    #[test]
    fn cores_decide_independently() {
        let mut l = Lcs::new();
        let mut max_tb = vec![4usize; 2];
        let zero = [0u64; 2];
        let active = [1usize; 2];
        l.tick(&inputs(0, &[0, 0], &[0, 0], &zero, &active), &mut max_tb);
        // Core 0 finishes memory-bound; core 1 still observing.
        l.tick(
            &inputs(1000, &[900, 500], &[1, 0], &zero, &active),
            &mut max_tb,
        );
        assert_eq!(max_tb[0], 4);
        assert_eq!(max_tb[1], 1);
    }
}
