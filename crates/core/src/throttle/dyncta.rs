//! DYNCTA baseline (Kayıran et al., PACT 2013).
//!
//! Every core independently monitors its idle cycles (C_idle) and
//! memory-contention stall cycles (C_mem) over a fixed sampling period
//! and nudges its own thread-block limit by ±1:
//!
//! * very idle → it is starved of work: raise the limit;
//! * heavy memory waiting → contention: lower the limit;
//! * light memory waiting → headroom: raise the limit.
//!
//! DYNCTA throttles *all* cores with the same rule and has no global
//! (spatial) coordination — the gap the paper's dynmg controller fills;
//! dynmg's in-core level runs this same rule on its Table 4 thresholds.
//! Threshold defaults follow the parameter sweep run for this
//! reproduction (`table_sweeps` bench), mirroring the paper's "for a
//! fair comparison" re-sweep.

use llamcat_sim::arb::{ThrottleController, ThrottleInputs};
use serde::{Deserialize, Serialize};

/// DYNCTA parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynctaConfig {
    /// Sampling period in cycles.
    pub period: u64,
    /// ΔC_idle above which the limit is raised.
    pub idle_threshold: u64,
    /// ΔC_mem above which the limit is lowered.
    pub mem_high: u64,
    /// ΔC_mem below which the limit is raised.
    pub mem_low: u64,
}

impl Default for DynctaConfig {
    fn default() -> Self {
        // PACT'13-style operating point: a long adjustment period and
        // a high/low band near the top of the range. In practice it is
        // inert: lowering a limit needs ΔC_mem above `mem_high`, 8028
        // of the 8192-cycle period (98% memory stall), which the
        // evaluated workloads never reach. No limit ever drops, and
        // all 12 fig7 points run the same cycles as no throttling
        // (ROADMAP item 1; re-sweeping these defaults is item 1(b)).
        DynctaConfig {
            period: 8192,
            idle_threshold: 64,
            mem_high: 8028,
            mem_low: 7372,
        }
    }
}

/// Per-core dynamic CTA throttling.
#[derive(Clone)]
pub struct Dyncta {
    cfg: DynctaConfig,
    next_sample: u64,
    prev_mem: Vec<u64>,
    prev_idle: Vec<u64>,
    limit: Vec<usize>,
}

impl Dyncta {
    pub fn new(cfg: DynctaConfig) -> Self {
        Dyncta {
            cfg,
            next_sample: cfg.period,
            prev_mem: Vec::new(),
            prev_idle: Vec::new(),
            limit: Vec::new(),
        }
    }
}

impl Default for Dyncta {
    fn default() -> Self {
        Self::new(DynctaConfig::default())
    }
}

impl ThrottleController for Dyncta {
    fn tick(&mut self, inputs: &ThrottleInputs<'_>, max_tb: &mut [usize]) {
        let n = max_tb.len();
        if self.limit.len() != n {
            self.reset(n);
        }
        // Lazy clamp of the "start from maximum" sentinel now that the
        // window count is known.
        for l in self.limit.iter_mut() {
            *l = (*l).min(inputs.num_windows);
        }
        if inputs.cycle >= self.next_sample {
            self.next_sample = inputs.cycle + self.cfg.period;
            for c in 0..n {
                let d_mem = inputs.c_mem[c].saturating_sub(self.prev_mem[c]);
                let d_idle = inputs.c_idle[c].saturating_sub(self.prev_idle[c]);
                self.prev_mem[c] = inputs.c_mem[c];
                self.prev_idle[c] = inputs.c_idle[c];
                if d_idle > self.cfg.idle_threshold {
                    self.limit[c] = (self.limit[c] + 1).min(inputs.num_windows);
                } else if d_mem > self.cfg.mem_high {
                    self.limit[c] = self.limit[c].saturating_sub(1).max(1);
                } else if d_mem < self.cfg.mem_low {
                    self.limit[c] = (self.limit[c] + 1).min(inputs.num_windows);
                }
            }
        }
        for (tb, &limit) in max_tb.iter_mut().zip(&self.limit) {
            *tb = limit.clamp(1, inputs.num_windows);
        }
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        // Limits only move at sampling boundaries.
        Some(self.next_sample)
    }

    fn reset(&mut self, num_cores: usize) {
        self.prev_mem = vec![0; num_cores];
        self.prev_idle = vec![0; num_cores];
        // DYNCTA starts from the maximum and backs off.
        self.limit = vec![usize::MAX; num_cores];
        self.next_sample = self.cfg.period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs<'a>(
        cycle: u64,
        c_mem: &'a [u64],
        c_idle: &'a [u64],
        progress: &'a [u64],
        tbs: &'a [u64],
        active: &'a [usize],
    ) -> ThrottleInputs<'a> {
        ThrottleInputs {
            cycle,
            num_windows: 4,
            num_slices: 8,
            progress,
            c_mem,
            c_idle,
            llc_stall_cycles: 0,
            active_tbs: active,
            tbs_completed: tbs,
        }
    }

    fn test_cfg() -> DynctaConfig {
        DynctaConfig {
            period: 2048,
            idle_threshold: 16,
            mem_high: 1024,
            mem_low: 410,
        }
    }

    #[test]
    fn backs_off_under_memory_pressure() {
        let mut d = Dyncta::new(test_cfg());
        let mut max_tb = vec![4usize; 2];
        let progress = [0u64; 2];
        let tbs = [0u64; 2];
        let active = [4usize; 2];
        // Period 1: both cores heavily memory stalled.
        let c_mem = [2000u64, 2000];
        let c_idle = [0u64, 0];
        d.tick(
            &inputs(2048, &c_mem, &c_idle, &progress, &tbs, &active),
            &mut max_tb,
        );
        assert_eq!(max_tb, vec![3, 3]);
        // Period 2: still stalled — backs off further.
        let c_mem = [4000u64, 4000];
        d.tick(
            &inputs(4096, &c_mem, &c_idle, &progress, &tbs, &active),
            &mut max_tb,
        );
        assert_eq!(max_tb, vec![2, 2]);
    }

    #[test]
    fn recovers_when_contention_clears() {
        let mut d = Dyncta::new(test_cfg());
        let mut max_tb = vec![4usize; 1];
        let progress = [0u64];
        let tbs = [0u64];
        let active = [4usize];
        let c_idle = [0u64];
        d.tick(
            &inputs(2048, &[2000], &c_idle, &progress, &tbs, &active),
            &mut max_tb,
        );
        assert_eq!(max_tb, vec![3]);
        // Contention gone (delta below mem_low): raise again.
        d.tick(
            &inputs(4096, &[2100], &c_idle, &progress, &tbs, &active),
            &mut max_tb,
        );
        assert_eq!(max_tb, vec![4]);
    }

    #[test]
    fn idleness_overrides_memory_signal() {
        let mut d = Dyncta::new(test_cfg());
        let mut max_tb = vec![4usize; 1];
        let progress = [0u64];
        let tbs = [0u64];
        let active = [4usize];
        d.tick(
            &inputs(2048, &[2000], &[0], &progress, &tbs, &active),
            &mut max_tb,
        );
        assert_eq!(max_tb, vec![3]);
        // Both high idle and high memory: idle wins (starved core).
        d.tick(
            &inputs(4096, &[4000], &[100], &progress, &tbs, &active),
            &mut max_tb,
        );
        assert_eq!(max_tb, vec![4]);
    }

    #[test]
    fn limit_stays_in_bounds() {
        let mut d = Dyncta::new(test_cfg());
        let mut max_tb = vec![4usize; 1];
        let progress = [0u64];
        let tbs = [0u64];
        let active = [4usize];
        let mut mem = 0;
        for k in 1..20 {
            mem += 2000;
            d.tick(
                &inputs(2048 * k, &[mem], &[0], &progress, &tbs, &active),
                &mut max_tb,
            );
            assert!(max_tb[0] >= 1);
        }
        assert_eq!(max_tb, vec![1], "saturates at one block");
    }

    #[test]
    fn no_change_between_samples() {
        let mut d = Dyncta::new(test_cfg());
        let mut max_tb = vec![4usize; 1];
        let progress = [0u64];
        let tbs = [0u64];
        let active = [4usize];
        d.tick(
            &inputs(100, &[90], &[0], &progress, &tbs, &active),
            &mut max_tb,
        );
        assert_eq!(max_tb, vec![4], "before the first period ends");
    }
}
