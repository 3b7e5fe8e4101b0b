//! Two-level dynamic multi-gear throttling — "dynmg" (Section 4.2, the
//! paper's throttling contribution).
//!
//! **Global level** (every `sampling_period` cycles): the proportion of
//! LLC stall cycles `t_cs` classifies system contention (Table 3); the
//! gear moves per Algorithm 1 (+1 on high, −1 on low, +2 on extreme);
//! the gear determines *how many* cores are throttled (Table 1:
//! 0, 1/8, 1/4, 1/2, 3/4 of the cores) and the *fastest* cores — largest
//! progress counters — are the ones throttled, for load balance.
//!
//! **In-core level** (every `sub_period` cycles): each throttled core
//! runs the DYNCTA rule ([`Dyncta`]) on its own C_mem / C_idle deltas
//! (Table 4 thresholds) to pick its block limit; unthrottled cores run
//! unrestricted. The two-level split is the paper's innovation: spatial
//! selection globally, degree selection locally, on different timescales
//! (Table 2: 2000-cycle periods, 400-cycle sub-periods).

use llamcat_sim::arb::{ThrottleController, ThrottleInputs};
use serde::{Deserialize, Serialize};

use super::dyncta::{Dyncta, DynctaConfig};

/// Contention classification (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Contention {
    Low,
    Normal,
    High,
    Extreme,
}

impl Contention {
    /// Classifies a cache-stall proportion per Table 3:
    /// [0, 0.1) low, [0.1, 0.2) normal, [0.2, 0.375) high,
    /// [0.375, 1] extremely high.
    pub fn classify(t_cs: f64) -> Self {
        if t_cs < 0.1 {
            Contention::Low
        } else if t_cs < 0.2 {
            Contention::Normal
        } else if t_cs < 0.375 {
            Contention::High
        } else {
            Contention::Extreme
        }
    }
}

/// In-core controller thresholds (Table 4), applied per sub-period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InCoreConfig {
    /// C_idle upper bound: more idling than this raises the limit.
    pub c_idle_upper: u64,
    /// C_mem upper bound: more memory stalling lowers the limit.
    pub c_mem_upper: u64,
    /// C_mem lower bound: less memory stalling raises the limit.
    pub c_mem_lower: u64,
}

impl Default for InCoreConfig {
    fn default() -> Self {
        // Table 4 values.
        InCoreConfig {
            c_idle_upper: 4,
            c_mem_upper: 250,
            c_mem_lower: 180,
        }
    }
}

/// Full dynmg configuration (Tables 1–4 defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynMgConfig {
    /// Global sampling period (Table 2: 2000 cycles).
    pub sampling_period: u64,
    /// In-core sub-period (Table 2: 400 cycles).
    pub sub_period: u64,
    /// Maximum gear (Table 2: gear 4).
    pub max_gear: usize,
    /// Fraction of cores throttled per gear (Table 1).
    pub gear_fractions: Vec<f64>,
    pub in_core: InCoreConfig,
}

impl Default for DynMgConfig {
    fn default() -> Self {
        // Parameters re-swept for this substrate (`table_sweeps` bench),
        // mirroring how the paper obtained Table 2 by sweeping on its
        // own simulator. `paper_table2()` gives the paper's literal
        // values.
        DynMgConfig {
            sampling_period: 6000,
            sub_period: 1200,
            max_gear: 4,
            gear_fractions: vec![0.0, 1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0, 3.0 / 4.0],
            in_core: InCoreConfig::default(),
        }
    }
}

impl DynMgConfig {
    /// The paper's literal Table 2 configuration (sampling period 2000,
    /// sub-period 400, max gear 4).
    pub fn paper_table2() -> Self {
        DynMgConfig {
            sampling_period: 2000,
            sub_period: 400,
            ..Default::default()
        }
    }
}

impl DynMgConfig {
    /// Cores throttled at `gear` for an `n`-core system (Table 1).
    pub fn throttled_at(&self, gear: usize, n: usize) -> usize {
        let frac = self.gear_fractions[gear.min(self.gear_fractions.len() - 1)];
        (frac * n as f64).round() as usize
    }
}

/// The two-level dynamic multi-gear throttle controller.
#[derive(Clone)]
pub struct DynMg {
    cfg: DynMgConfig,
    gear: usize,
    next_sample: u64,
    prev_stall: u64,
    /// Progress counters at the last global sample (for velocity).
    prev_progress: Vec<u64>,
    /// The in-core level: each core's persistent DYNCTA block limit.
    in_core: Dyncta,
    throttled: Vec<bool>,
    /// Scratch for the per-sample velocity sort (reused; sampling never
    /// allocates).
    order_scratch: Vec<usize>,
    /// Most recent classification (exposed for tests / reports).
    pub last_contention: Contention,
}

impl DynMg {
    pub fn new(cfg: DynMgConfig) -> Self {
        assert_eq!(
            cfg.gear_fractions.len(),
            cfg.max_gear + 1,
            "one fraction per gear"
        );
        DynMg {
            next_sample: cfg.sampling_period,
            in_core: Dyncta::new(DynctaConfig {
                period: cfg.sub_period,
                idle_threshold: cfg.in_core.c_idle_upper,
                mem_high: cfg.in_core.c_mem_upper,
                mem_low: cfg.in_core.c_mem_lower,
            }),
            cfg,
            gear: 0,
            prev_stall: 0,
            prev_progress: Vec::new(),
            throttled: Vec::new(),
            order_scratch: Vec::new(),
            last_contention: Contention::Low,
        }
    }

    /// Current gear (for reports).
    pub fn gear(&self) -> usize {
        self.gear
    }

    /// Algorithm 1: gear transition for one sampling period.
    fn adjust_gear(gear: usize, max_gear: usize, contention: Contention) -> usize {
        match contention {
            Contention::High => (gear + 1).min(max_gear),
            Contention::Low => gear.saturating_sub(1),
            Contention::Extreme => {
                if gear + 2 <= max_gear {
                    gear + 2
                } else {
                    max_gear
                }
            }
            Contention::Normal => gear,
        }
    }

    fn sample_global(&mut self, inputs: &ThrottleInputs<'_>) {
        let d_stall = inputs.llc_stall_cycles.saturating_sub(self.prev_stall);
        self.prev_stall = inputs.llc_stall_cycles;
        let denom = (self.cfg.sampling_period * inputs.num_slices as u64) as f64;
        let t_cs = d_stall as f64 / denom;
        self.last_contention = Contention::classify(t_cs);
        self.gear = Self::adjust_gear(self.gear, self.cfg.max_gear, self.last_contention);

        // Throttle the fastest cores: largest progress-counter advance
        // over the sampling period (recent velocity tracks who is
        // currently racing ahead; cumulative counts lag role swaps).
        let n = inputs.progress.len();
        let k = self.cfg.throttled_at(self.gear, n);
        self.order_scratch.clear();
        self.order_scratch.extend(0..n);
        let prev = &self.prev_progress;
        self.order_scratch.sort_by_key(|&c| {
            let v = inputs.progress[c].saturating_sub(prev[c]);
            std::cmp::Reverse((v, std::cmp::Reverse(c)))
        });
        for c in 0..n {
            self.prev_progress[c] = inputs.progress[c];
        }
        for t in self.throttled.iter_mut() {
            *t = false;
        }
        for &c in self.order_scratch.iter().take(k) {
            self.throttled[c] = true;
        }
    }
}

impl Default for DynMg {
    fn default() -> Self {
        Self::new(DynMgConfig::default())
    }
}

impl ThrottleController for DynMg {
    fn tick(&mut self, inputs: &ThrottleInputs<'_>, max_tb: &mut [usize]) {
        let n = max_tb.len();
        if self.throttled.len() != n {
            self.reset(n);
        }
        // In-core level first: writes every core's own DYNCTA limit.
        self.in_core.tick(inputs, max_tb);
        if inputs.cycle >= self.next_sample {
            self.next_sample = inputs.cycle + self.cfg.sampling_period;
            self.sample_global(inputs);
        }
        // A throttled core always gives up at least one window; the
        // in-core limit sets the degree below that.
        let cap = inputs.num_windows.saturating_sub(1).max(1);
        for (tb, &throttled) in max_tb.iter_mut().zip(&self.throttled) {
            *tb = if throttled {
                (*tb).min(cap)
            } else {
                inputs.num_windows
            };
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Between sampling boundaries the controller's state and its
        // max_tb output are fixed; the next state change is the nearer
        // of the in-core sub-period and the global sampling period.
        let sub = self.in_core.next_event(now).unwrap_or(u64::MAX);
        Some(sub.min(self.next_sample))
    }

    fn reset(&mut self, num_cores: usize) {
        self.gear = 0;
        self.prev_stall = 0;
        self.prev_progress = vec![0; num_cores];
        self.in_core.reset(num_cores);
        self.throttled = vec![false; num_cores];
        self.next_sample = self.cfg.sampling_period;
        self.last_contention = Contention::Low;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_classification() {
        assert_eq!(Contention::classify(0.0), Contention::Low);
        assert_eq!(Contention::classify(0.0999), Contention::Low);
        assert_eq!(Contention::classify(0.1), Contention::Normal);
        assert_eq!(Contention::classify(0.1999), Contention::Normal);
        assert_eq!(Contention::classify(0.2), Contention::High);
        assert_eq!(Contention::classify(0.374), Contention::High);
        assert_eq!(Contention::classify(0.375), Contention::Extreme);
        assert_eq!(Contention::classify(1.0), Contention::Extreme);
    }

    #[test]
    fn table1_gear_fractions() {
        let cfg = DynMgConfig::default();
        assert_eq!(cfg.throttled_at(0, 16), 0);
        assert_eq!(cfg.throttled_at(1, 16), 2); // 1/8
        assert_eq!(cfg.throttled_at(2, 16), 4); // 1/4
        assert_eq!(cfg.throttled_at(3, 16), 8); // 1/2
        assert_eq!(cfg.throttled_at(4, 16), 12); // 3/4
    }

    #[test]
    fn algorithm1_transitions() {
        use Contention::*;
        assert_eq!(DynMg::adjust_gear(0, 4, High), 1);
        assert_eq!(DynMg::adjust_gear(4, 4, High), 4);
        assert_eq!(DynMg::adjust_gear(2, 4, Low), 1);
        assert_eq!(DynMg::adjust_gear(0, 4, Low), 0);
        assert_eq!(DynMg::adjust_gear(1, 4, Extreme), 3);
        assert_eq!(DynMg::adjust_gear(3, 4, Extreme), 4);
        assert_eq!(DynMg::adjust_gear(2, 4, Normal), 2);
    }

    fn inputs<'a>(
        cycle: u64,
        stall: u64,
        progress: &'a [u64],
        c_mem: &'a [u64],
        c_idle: &'a [u64],
        active: &'a [usize],
        tbs: &'a [u64],
    ) -> ThrottleInputs<'a> {
        ThrottleInputs {
            cycle,
            num_windows: 4,
            num_slices: 8,
            progress,
            c_mem,
            c_idle,
            llc_stall_cycles: stall,
            active_tbs: active,
            tbs_completed: tbs,
        }
    }

    #[test]
    fn throttles_fastest_cores_under_contention() {
        let mut d = DynMg::new(DynMgConfig::paper_table2());
        let mut max_tb = vec![4usize; 4];
        let c_mem = [0u64; 4];
        let c_idle = [0u64; 4];
        let active = [4usize; 4];
        let tbs = [0u64; 4];
        // Extreme contention: stalls = 0.5 * period * slices.
        let stall = 2000 * 8 / 2;
        let progress = [100u64, 50, 80, 10];
        d.tick(
            &inputs(2000, stall, &progress, &c_mem, &c_idle, &active, &tbs),
            &mut max_tb,
        );
        // Gear jumped 0 -> 2 (extreme): throttle 1/4 of 4 cores = 1 core,
        // the fastest (core 0).
        assert_eq!(d.gear(), 2);
        assert_eq!(d.last_contention, Contention::Extreme);
        assert!(max_tb[0] < 4, "fastest core throttled");
        assert_eq!(&max_tb[1..], &[4, 4, 4], "others unthrottled");
    }

    #[test]
    fn gear_relaxes_when_contention_clears() {
        let mut d = DynMg::new(DynMgConfig::paper_table2());
        let mut max_tb = vec![4usize; 4];
        let c_mem = [0u64; 4];
        let c_idle = [0u64; 4];
        let active = [4usize; 4];
        let tbs = [0u64; 4];
        let progress = [1u64, 2, 3, 4];
        let heavy = 2000 * 8 / 2;
        d.tick(
            &inputs(2000, heavy, &progress, &c_mem, &c_idle, &active, &tbs),
            &mut max_tb,
        );
        assert_eq!(d.gear(), 2);
        // Next period: no additional stalls -> Low -> gear down.
        d.tick(
            &inputs(4000, heavy, &progress, &c_mem, &c_idle, &active, &tbs),
            &mut max_tb,
        );
        assert_eq!(d.gear(), 1);
        d.tick(
            &inputs(6000, heavy, &progress, &c_mem, &c_idle, &active, &tbs),
            &mut max_tb,
        );
        assert_eq!(d.gear(), 0);
        assert_eq!(max_tb, vec![4, 4, 4, 4], "no throttling at gear 0");
    }

    #[test]
    fn in_core_limit_follows_sub_period_memory_signal() {
        let mut d = DynMg::new(DynMgConfig::paper_table2());
        let mut max_tb = vec![4usize; 2];
        let active = [4usize; 2];
        let tbs = [0u64; 2];
        let c_idle = [0u64; 2];
        let progress = [10u64, 0];
        // Establish extreme contention so core 0 is throttled.
        let stall = 2000 * 8;
        // Sub-period ticks accumulate C_mem > upper bound (250/400).
        let mut mem = [0u64; 2];
        for k in 1..=5u64 {
            mem = [300 * k, 300 * k];
            d.tick(
                &inputs(400 * k, stall, &progress, &mem, &c_idle, &active, &tbs),
                &mut max_tb,
            );
        }
        // After the 2000-cycle sample, core 0 throttled with reduced limit.
        assert!(max_tb[0] < 4, "in-core limit reduced, got {}", max_tb[0]);
        assert_eq!(max_tb[1], 4);
        let _ = mem;
    }

    #[test]
    fn gear_never_exceeds_bounds() {
        let mut d = DynMg::new(DynMgConfig::paper_table2());
        let mut max_tb = vec![4usize; 4];
        let c_mem = [0u64; 4];
        let c_idle = [0u64; 4];
        let active = [4usize; 4];
        let tbs = [0u64; 4];
        let progress = [0u64; 4];
        let mut stall = 0;
        for k in 1..10u64 {
            stall += 2000 * 8; // always extreme
            d.tick(
                &inputs(2000 * k, stall, &progress, &c_mem, &c_idle, &active, &tbs),
                &mut max_tb,
            );
            assert!(d.gear() <= 4);
        }
        assert_eq!(d.gear(), 4, "saturates at max gear");
    }
}
