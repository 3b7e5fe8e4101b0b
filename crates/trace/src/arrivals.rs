//! Deterministic open-system arrival processes.
//!
//! PR 4's serving mixes were a *closed* system: every request was
//! pre-tagged into the `Program` with a fixed arrival cycle. Open-system
//! serving instead draws request arrival cycles from a seeded
//! [`ArrivalSpec`] and lets the simulator's request injector admit work
//! mid-run. This module is the arrival half of that contract: given a
//! request count it produces a sorted, reproducible arrival schedule —
//! the injector half lives in `llamcat-sim::serve`.
//!
//! All randomness is a hand-rolled splitmix64 stream keyed by the spec's
//! `seed`, so a spec serializes to JSON and replays to the identical
//! schedule on every run (the property the Skip-vs-Cycle differential
//! suite leans on).

use serde::{Deserialize, Serialize};

/// Simulated cycle count (mirrors `llamcat_sim::types::Cycle`; this
/// crate deliberately stays independent of the simulator's clock types
/// beyond the alias).
pub type Cycle = u64;

/// splitmix64: tiny, high-quality, dependency-free PRNG. One u64 of
/// state, one output per step.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform sample in `[0, 1)` with 53 bits of mantissa.
#[inline]
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exponential inter-arrival gap with the given mean, rounded to whole
/// cycles. `1 - u` keeps the argument of `ln` in `(0, 1]`.
#[inline]
fn exp_gap(state: &mut u64, mean: u64) -> Cycle {
    let u = unit_f64(state);
    (-(mean as f64) * (1.0 - u).ln()).round() as Cycle
}

/// A deterministic, seeded arrival process: how request arrival cycles
/// are drawn for an open-system serving run.
///
/// Every variant yields a nondecreasing schedule; requests are numbered
/// in arrival order, so request ids double as the FCFS tiebreak when
/// two requests land on the same cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// One request every `period` cycles, starting at `start`.
    Fixed {
        period: Cycle,
        #[serde(default)]
        start: Cycle,
    },
    /// Poisson process: exponential inter-arrival gaps with mean
    /// `mean_gap` cycles (arrival rate = 1 / `mean_gap`).
    Poisson { mean_gap: u64, seed: u64 },
    /// Bursts of `burst` requests, `gap_in_burst` cycles apart inside a
    /// burst, with exponential inter-burst gaps of mean `burst_gap`.
    Bursty {
        burst: usize,
        gap_in_burst: Cycle,
        burst_gap: u64,
        seed: u64,
    },
    /// Trace replay: explicit arrival cycles (must cover every request;
    /// sorted on use).
    Trace { cycles: Vec<Cycle> },
}

impl ArrivalSpec {
    /// Validates the spec for a run of `n` requests: the schedule must
    /// be computable without overflowing `u64`, and no arrival may land
    /// on `Cycle::MAX`, which the simulator reads as "never".
    pub fn validate(&self, n: usize) -> Result<(), String> {
        self.schedule(n).map(|_| ())
    }

    /// The arrival cycle of each of `n` requests, sorted nondecreasing.
    ///
    /// Panics on an invalid spec; call [`ArrivalSpec::validate`] first
    /// when the spec came from user input.
    pub fn arrivals(&self, n: usize) -> Vec<Cycle> {
        self.schedule(n).expect("invalid arrival spec")
    }

    /// Builds the schedule with checked arithmetic (every variant is
    /// deterministic, so validation builds exactly what a run replays).
    fn schedule(&self, n: usize) -> Result<Vec<Cycle>, String> {
        let overflow = || format!("{} overflows u64 within {n} arrivals", self.label());
        let out = match self {
            ArrivalSpec::Fixed { period, start } => (0..n as u64)
                .map(|i| i.checked_mul(*period)?.checked_add(*start))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(overflow)?,
            ArrivalSpec::Poisson { mean_gap, seed } => {
                if *mean_gap == 0 {
                    return Err("poisson arrival process needs mean_gap >= 1".into());
                }
                let mut state = *seed;
                let mut now: Cycle = 0;
                (0..n)
                    .map(|_| {
                        now = now.checked_add(exp_gap(&mut state, *mean_gap))?;
                        Some(now)
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(overflow)?
            }
            ArrivalSpec::Bursty {
                burst,
                gap_in_burst,
                burst_gap,
                seed,
            } => {
                if *burst == 0 {
                    return Err("bursty arrival process needs burst >= 1".into());
                } else if *burst_gap == 0 {
                    return Err("bursty arrival process needs burst_gap >= 1".into());
                }
                let mut state = *seed;
                let mut burst_start: Cycle = 0;
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    if !out.is_empty() {
                        // Advance past the burst's *span*, not just its
                        // start: an exponential draw smaller than
                        // (burst-1)*gap_in_burst would start the next burst
                        // inside the current one and break the
                        // nondecreasing-schedule contract.
                        let gap = exp_gap(&mut state, *burst_gap).max(1);
                        burst_start = (*burst as u64 - 1)
                            .checked_mul(*gap_in_burst)
                            .and_then(|span| span.checked_add(gap)?.checked_add(burst_start))
                            .ok_or_else(overflow)?;
                    }
                    for i in 0..(*burst).min(n - out.len()) as u64 {
                        let at = i.checked_mul(*gap_in_burst);
                        out.push(
                            at.and_then(|d| d.checked_add(burst_start))
                                .ok_or_else(overflow)?,
                        );
                    }
                }
                out
            }
            ArrivalSpec::Trace { cycles } => {
                if cycles.len() < n {
                    return Err(format!(
                        "arrival trace covers {} requests, run needs {n}",
                        cycles.len()
                    ));
                }
                // Sort first, then keep the earliest n: a surplus trace
                // replays its n earliest arrivals, not an arbitrary
                // prefix of the unsorted file.
                let mut out = cycles.clone();
                out.sort_unstable();
                out.truncate(n);
                out
            }
        };
        // Every schedule is nondecreasing, so the last arrival is the latest.
        if out.last() == Some(&Cycle::MAX) {
            return Err(format!(
                "{} puts an arrival at cycle u64::MAX, which means never",
                self.label()
            ));
        }
        Ok(out)
    }

    /// Compact label for tables and JSONL (e.g. `poisson(g500,s7)`).
    pub fn label(&self) -> String {
        match self {
            ArrivalSpec::Fixed { period, start } => format!("fixed(p{period},s{start})"),
            ArrivalSpec::Poisson { mean_gap, seed } => format!("poisson(g{mean_gap},s{seed})"),
            ArrivalSpec::Bursty {
                burst,
                gap_in_burst,
                burst_gap,
                seed,
            } => format!("bursty(b{burst},i{gap_in_burst},g{burst_gap},s{seed})"),
            ArrivalSpec::Trace { cycles } => format!("trace[{}]", cycles.len()),
        }
    }

    /// Label for a run of `n` requests. Identical to [`ArrivalSpec::label`]
    /// except that a surplus replay trace surfaces how much of it the run
    /// actually uses: `trace[3 of 5]` means the 3 earliest of 5 recorded
    /// arrivals replay.
    pub fn label_for(&self, n: usize) -> String {
        match self {
            ArrivalSpec::Trace { cycles } if cycles.len() > n => {
                format!("trace[{n} of {}]", cycles.len())
            }
            _ => self.label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_is_an_arithmetic_schedule() {
        let a = ArrivalSpec::Fixed {
            period: 100,
            start: 7,
        };
        assert_eq!(a.arrivals(4), vec![7, 107, 207, 307]);
    }

    #[test]
    fn poisson_is_seeded_and_sorted() {
        let a = ArrivalSpec::Poisson {
            mean_gap: 500,
            seed: 42,
        };
        let x = a.arrivals(16);
        let y = a.arrivals(16);
        assert_eq!(x, y, "same seed must replay the same schedule");
        assert!(x.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
        let b = ArrivalSpec::Poisson {
            mean_gap: 500,
            seed: 43,
        };
        assert_ne!(x, b.arrivals(16), "different seed, different schedule");
        // Mean gap is in the right ballpark (law of large numbers at
        // n = 512 with generous tolerance).
        let n = 512;
        let last = *a.arrivals(n).last().unwrap() as f64;
        let mean = last / n as f64;
        assert!((200.0..1000.0).contains(&mean), "mean gap {mean} off");
    }

    #[test]
    fn bursty_emits_bursts() {
        let a = ArrivalSpec::Bursty {
            burst: 3,
            gap_in_burst: 10,
            burst_gap: 10_000,
            seed: 1,
        };
        let x = a.arrivals(6);
        assert_eq!(x.len(), 6);
        // First burst is exactly 0, 10, 20.
        assert_eq!(&x[..3], &[0, 10, 20]);
        // Second burst starts strictly later and keeps the in-burst gap.
        assert!(x[3] > 20);
        assert_eq!(x[4] - x[3], 10);
        assert!(x.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trace_replay_sorts_and_validates() {
        let a = ArrivalSpec::Trace {
            cycles: vec![300, 100, 100],
        };
        assert_eq!(a.arrivals(3), vec![100, 100, 300]);
        assert!(a.validate(4).is_err(), "short trace must be rejected");
    }

    #[test]
    fn surplus_trace_replays_the_earliest_arrivals() {
        // Pre-fix, the first n *unsorted* entries were taken, so this
        // replayed [900, 100] -> [100, 900] instead of the two earliest
        // recorded arrivals.
        let a = ArrivalSpec::Trace {
            cycles: vec![900, 100, 50, 700],
        };
        assert_eq!(a.arrivals(2), vec![50, 100]);
        assert_eq!(a.label(), "trace[4]");
        assert_eq!(a.label_for(2), "trace[2 of 4]", "surplus is surfaced");
        assert_eq!(a.label_for(4), "trace[4]", "exact cover keeps the label");
    }

    #[test]
    fn overlapping_bursts_stay_sorted() {
        // Regression pin for the arrival-order bug: an inter-burst gap
        // drawn smaller than the burst's span ((burst-1) * gap_in_burst)
        // used to start the next burst *inside* the current one. With
        // burst_gap = 1 every exponential draw is tiny, so the pre-fix
        // schedule was e.g. [0, 1000, 2000, 1, 1001, 2001, ...] —
        // non-monotonic, breaking the (arrival, id) FCFS contract.
        let a = ArrivalSpec::Bursty {
            burst: 3,
            gap_in_burst: 1_000,
            burst_gap: 1,
            seed: 7,
        };
        let x = a.arrivals(12);
        assert!(
            x.windows(2).all(|w| w[0] <= w[1]),
            "bursty schedule must be nondecreasing, got {x:?}"
        );
        // The burst structure survives the fix: in-burst gaps are exact.
        assert_eq!(&x[..3], &[0, 1_000, 2_000]);
        assert!(x[3] > x[2], "next burst starts after the previous ends");
        assert_eq!(x[4] - x[3], 1_000);
    }

    // Every arrival-process variant yields a nondecreasing schedule
    // (the documented contract request ids lean on as the FCFS
    // tiebreak). Fails on the pre-fix Bursty generator whenever the
    // inter-burst draw lands inside the previous burst's span.
    proptest! {
        #[test]
        fn all_variants_are_nondecreasing(
            kind in 0usize..4,
            period in 0u64..5_000,
            start in 0u64..10_000,
            mean in 1u64..5_000,
            burst in 1usize..6,
            gap_in_burst in 0u64..3_000,
            burst_gap in 1u64..100,
            seed in 0u64..1_000,
            n in 1usize..33,
            raw in proptest::collection::vec(0u64..1_000_000, 33..64),
        ) {
            let spec = match kind {
                0 => ArrivalSpec::Fixed { period, start },
                1 => ArrivalSpec::Poisson { mean_gap: mean, seed },
                2 => ArrivalSpec::Bursty { burst, gap_in_burst, burst_gap, seed },
                _ => ArrivalSpec::Trace { cycles: raw },
            };
            spec.validate(n).expect("generated specs are valid");
            let x = spec.arrivals(n);
            prop_assert_eq!(x.len(), n);
            prop_assert!(
                x.windows(2).all(|w| w[0] <= w[1]),
                "{} produced a decreasing schedule: {:?}",
                spec.label(),
                x
            );
            // Replays are deterministic: the schedule is a pure function
            // of the spec.
            prop_assert_eq!(x, spec.arrivals(n));
        }
    }

    #[test]
    fn overflowing_schedules_are_rejected() {
        // Pre-fix these validated; `arrivals` then panicked in debug
        // builds and returned [9.2e18, 1.8e19, 9.2e18] in release.
        let half = u64::MAX / 2;
        let fixed = ArrivalSpec::Fixed {
            period: half,
            start: half,
        };
        assert_eq!(fixed.validate(2), Ok(()), "two arrivals still fit");
        assert!(fixed.validate(3).unwrap_err().contains("overflows"));
        // Cycle::MAX means "never": no arrival may land on it.
        let never = ArrivalSpec::Trace {
            cycles: vec![0, u64::MAX],
        };
        assert!(never.validate(2).unwrap_err().contains("never"));
        assert_eq!(never.arrivals(1), vec![0], "an unused surplus is fine");
        let poisson = ArrivalSpec::Poisson {
            mean_gap: u64::MAX,
            seed: 1,
        };
        assert!(poisson.validate(2).is_err());
        let bursty = ArrivalSpec::Bursty {
            burst: 2,
            gap_in_burst: half,
            burst_gap: u64::MAX,
            seed: 1,
        };
        assert!(bursty.validate(2).is_ok());
        assert!(bursty.validate(3).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let a = ArrivalSpec::Bursty {
            burst: 4,
            gap_in_burst: 5,
            burst_gap: 2_000,
            seed: 9,
        };
        let s = serde_json::to_string(&a).unwrap();
        let b: ArrivalSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.arrivals(8), b.arrivals(8));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            ArrivalSpec::Fixed {
                period: 9,
                start: 0
            }
            .label(),
            "fixed(p9,s0)"
        );
        assert_eq!(
            ArrivalSpec::Poisson {
                mean_gap: 500,
                seed: 7
            }
            .label(),
            "poisson(g500,s7)"
        );
    }
}
