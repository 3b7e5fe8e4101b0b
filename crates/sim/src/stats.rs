//! Simulation statistics.
//!
//! The counters here are exactly the quantities the paper's evaluation
//! plots: execution cycles (performance), L2 hit rate, MSHR hit rate
//! (merges / cache misses), MSHR `numEntry` occupancy ("MSHR entry util"),
//! cache stall proportion `t_cs` (drives the dynmg contention classifier,
//! Table 3) and DRAM bandwidth (Fig 8).

use serde::{Deserialize, Serialize};

use crate::types::{Cycle, LINE_BYTES};

/// Counters for one LLC slice.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SliceStats {
    /// Requests that completed tag lookup.
    pub lookups: u64,
    /// Tag hits.
    pub hits: u64,
    /// Tag misses (merged + newly allocated).
    pub misses: u64,
    /// Misses merged into an existing MSHR entry ("MSHR hits").
    pub mshr_merges: u64,
    /// Misses that allocated a new MSHR entry.
    pub mshr_allocs: u64,
    /// Cycles the slice pipeline was stalled on MSHR reservation failure.
    pub stall_cycles: u64,
    /// Stalls caused by entry exhaustion specifically.
    pub stall_entry_full: u64,
    /// Stalls caused by target exhaustion specifically.
    pub stall_target_full: u64,
    /// Cycles the tag-pipe head was blocked on the busy data port
    /// (hit-bandwidth starvation; also counted in `stall_cycles`).
    pub stall_data_port: u64,
    /// Sum over cycles of occupied MSHR entries (for mean occupancy).
    pub mshr_occupancy_integral: u64,
    /// Sum over cycles of request-queue occupancy.
    pub req_q_occupancy_integral: u64,
    /// Sum over cycles of response-queue occupancy.
    pub resp_q_occupancy_integral: u64,
    /// Requests refused at the ingress because the request queue was full.
    pub req_q_rejects: u64,
    /// Lines written into storage from the response path.
    pub fills: u64,
    /// Dirty victims written back to DRAM.
    pub writebacks: u64,
    /// Cycles the storage port was spent serving the response path.
    pub resp_port_cycles: u64,
    /// Cycles the storage port was spent serving the request path.
    pub req_port_cycles: u64,
}

/// Counters for one core.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CoreStats {
    /// Thread blocks completed.
    pub tbs_completed: u64,
    /// Instructions issued (vector ops).
    pub instrs_issued: u64,
    /// Vector loads issued.
    pub loads: u64,
    /// Vector stores issued.
    pub stores: u64,
    /// L1 line lookups.
    pub l1_lookups: u64,
    /// L1 line hits.
    pub l1_hits: u64,
    /// L1 misses merged into a pending entry.
    pub l1_merges: u64,
    /// Cycles with no thread block resident at all (idle).
    pub idle_cycles: u64,
    /// Cycles where every resident thread block was waiting on memory.
    pub mem_stall_cycles: u64,
    /// Cycles the core issued at least one instruction.
    pub active_cycles: u64,
    /// Sum of load round-trip latencies (issue to data return).
    pub load_latency_sum: u64,
    /// Number of completed loads (for mean latency).
    pub load_count: u64,
}

/// Counters for one DRAM channel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChannelStats {
    pub reads: u64,
    pub writes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    pub activates: u64,
    pub precharges: u64,
    pub refreshes: u64,
    /// DRAM cycles the data bus carried a burst.
    pub data_bus_busy: u64,
    /// Sum of read-queue residency times in DRAM cycles.
    pub read_latency_sum: u64,
}

/// LLC-side counters attributed to one serving request (tenant).
///
/// Every increment mirrors an untagged [`SliceStats`] increment at the
/// exact same point of the pipeline, so per-request counters always sum
/// to the untagged totals (a proptest in `crates/sim/tests/mix_equiv.rs`
/// pins this), and the fast-forward engine accrues them in the same
/// closed forms — per-request stats are byte-identical across step
/// modes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestLlcStats {
    /// Requests of this tenant that completed tag lookup.
    pub lookups: u64,
    /// Tag hits.
    pub hits: u64,
    /// Tag misses (merged + newly allocated).
    pub misses: u64,
    /// Misses merged into an existing MSHR entry.
    pub mshr_merges: u64,
    /// Misses that allocated a new MSHR entry.
    pub mshr_allocs: u64,
    /// Pipeline stall cycles charged to this tenant (the tenant whose
    /// request sat at the blocked pipeline head).
    pub stall_cycles: u64,
}

impl RequestLlcStats {
    /// Accumulates another tenant-attributed counter set (used to merge
    /// per-slice attributions into the run-level per-request view).
    pub fn merge(&mut self, other: &RequestLlcStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.mshr_merges += other.mshr_merges;
        self.mshr_allocs += other.mshr_allocs;
        self.stall_cycles += other.stall_cycles;
    }
}

/// Aggregate counters for the tiered KV store (see [`crate::kv`]).
///
/// `hits + misses + merges == lookups` — every KV-classified DRAM read
/// is exactly one of warm-hit, promotion-starting miss, or a merge into
/// an in-flight promotion ([`SimStats::check_consistency`] pins this).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvTierStats {
    /// KV-classified DRAM reads that consulted the warm tier.
    pub lookups: u64,
    /// Lookups whose KV block was already warm.
    pub hits: u64,
    /// Lookups that started a promotion from the slow tier.
    pub misses: u64,
    /// Lookups merged into an already in-flight promotion.
    pub merges: u64,
    /// Promotions whose transfer completed (≤ `misses`; a run cut off
    /// by the cycle budget can leave transfers in flight).
    pub promotions: u64,
    /// Warm blocks evicted to make room for a completed promotion.
    pub evictions: u64,
}

/// KV-tier counters attributed to one serving request (tenant).
///
/// Mirrors [`KvTierStats`] increment-for-increment (evictions are
/// charged to the request whose promotion forced them), so per-request
/// counters always sum to the tier totals — and byte-identically across
/// step modes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestKvStats {
    /// KV-classified DRAM reads of this tenant.
    pub lookups: u64,
    /// Warm-tier hits.
    pub hits: u64,
    /// Promotions this tenant started.
    pub misses: u64,
    /// Reads merged into an in-flight promotion.
    pub merges: u64,
    /// Evictions forced by this tenant's completed promotions.
    pub evictions: u64,
}

impl RequestKvStats {
    /// Accumulates another tenant-attributed counter set.
    pub fn merge(&mut self, other: &RequestKvStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.merges += other.merges;
        self.evictions += other.evictions;
    }
}

/// Per-request (tenant) breakdown of a run: completion progress plus
/// the LLC interference profile of the request's traffic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestStats {
    /// Thread blocks the request contributed to the trace.
    pub blocks_total: u64,
    /// Thread blocks of the request that retired.
    pub blocks_completed: u64,
    /// Cycle at which the request's blocks became schedulable.
    pub arrival: Cycle,
    /// Whether every block of the request retired within the budget.
    pub completed: bool,
    /// Cycle during which the request's last block retired (only
    /// meaningful when `completed`).
    pub completion_cycle: Cycle,
    /// Cycle at which the serving scheduler admitted the request —
    /// equal to `arrival` for closed (pre-tagged) runs, later under an
    /// open-system admission queue. `None` while still queued.
    #[serde(default)]
    pub admitted: Option<Cycle>,
    /// Cycle during which the request's *first* block retired. `None`
    /// until then.
    #[serde(default)]
    pub first_retire: Option<Cycle>,
    /// Cycle at which the serving scheduler terminally rejected or
    /// deadline-dropped the request (see
    /// [`crate::serve::ServePolicy::RejectAboveQueue`] and
    /// [`crate::serve::ServePolicy::DeadlineDrop`]). A rejected request
    /// never admits and never completes. `None` everywhere else.
    #[serde(default)]
    pub rejected: Option<Cycle>,
    /// Times the request was preempted — its unissued blocks withdrawn
    /// back to the admission queue by a higher-class arrival (see
    /// [`crate::serve::ServePolicy::PriorityPreempt`]).
    #[serde(default)]
    pub preemptions: u32,
    /// Serving priority class (higher = more urgent): the attached
    /// injector's class, 0 for closed runs and classless serve sets.
    /// The simulator never sees a closed mix's classes; the experiment
    /// layer reports them from the mix.
    #[serde(default)]
    pub class: u8,
    /// LLC counters attributed to this request, summed over slices.
    pub llc: RequestLlcStats,
    /// KV-tier counters attributed to this request (all zero when no
    /// tier is attached; defaulted so pre-tier archives deserialize).
    #[serde(default)]
    pub kv: RequestKvStats,
}

impl RequestStats {
    /// Cycles from arrival to completion (0 when not completed, and 0
    /// for a trivially-complete request that contributed no blocks).
    /// Completion during the tick of cycle `c` counts `c + 1` elapsed
    /// cycles, matching the run-level `SimStats::cycles` convention.
    pub fn cycles_to_completion(&self) -> Cycle {
        if self.completed && self.blocks_total > 0 {
            self.completion_cycle + 1 - self.arrival
        } else {
            0
        }
    }

    /// Time-to-first-token proxy: cycles from *arrival* to the first
    /// retired block (inclusive of the retiring cycle, like
    /// [`RequestStats::cycles_to_completion`]). Queueing delay under an
    /// open-system admission policy is included — that is the latency a
    /// client would see. `None` until a block retires.
    pub fn ttft(&self) -> Option<Cycle> {
        self.first_retire.map(|c| c + 1 - self.arrival)
    }

    /// Mean time-between-tokens proxy: average cycles between
    /// consecutive block retirements after the first. `None` unless
    /// the request completed with at least two blocks.
    pub fn mean_tbt(&self) -> Option<f64> {
        if self.completed && self.blocks_total >= 2 {
            let first = self.first_retire?;
            Some((self.completion_cycle - first) as f64 / (self.blocks_total - 1) as f64)
        } else {
            None
        }
    }

    /// Cycles the request waited in the admission queue (0 for closed
    /// runs, where admission *is* arrival). `None` while still queued.
    pub fn queue_delay(&self) -> Option<Cycle> {
        self.admitted.map(|a| a - self.arrival)
    }

    /// Classifies the request against an SLO: `Rejected` if the
    /// admission policy terminally rejected or deadline-dropped it,
    /// `Met` if it completed with TTFT within `ttft_deadline` cycles
    /// and (when a TBT deadline is given and the request has ≥ 2
    /// blocks) mean TBT within `tbt_deadline`, `Missed` otherwise —
    /// including requests still queued or in flight when the cycle
    /// budget ran out. Only `Met` requests count toward goodput.
    pub fn slo_outcome(&self, ttft_deadline: Cycle, tbt_deadline: Option<Cycle>) -> SloOutcome {
        if self.rejected.is_some() {
            return SloOutcome::Rejected;
        }
        let ttft_ok = self.completed && self.ttft().is_some_and(|t| t <= ttft_deadline);
        let tbt_ok = match (tbt_deadline, self.mean_tbt()) {
            (Some(d), Some(tbt)) => tbt <= d as f64,
            // No deadline, or a 0/1-block request with no TBT to judge.
            _ => true,
        };
        if ttft_ok && tbt_ok {
            SloOutcome::Met
        } else {
            SloOutcome::Missed
        }
    }
}

/// Per-request verdict against a serving SLO (see
/// [`RequestStats::slo_outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloOutcome {
    /// Completed within every configured deadline; counts toward goodput.
    Met,
    /// Admitted (or still queued) but failed a deadline or never finished.
    Missed,
    /// Terminally rejected or deadline-dropped by the admission policy.
    Rejected,
}

/// Aggregated statistics for a full simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Total execution time in core cycles (operator completion).
    pub cycles: Cycle,
    /// Core clock frequency used for wall-time conversion, GHz.
    pub freq_ghz: f64,
    pub slices: Vec<SliceStats>,
    pub cores: Vec<CoreStats>,
    pub channels: Vec<ChannelStats>,
    /// Per-core progress counters (requests served at the LLC) at the end
    /// of the run.
    pub progress: Vec<u64>,
    /// Thread blocks migrated between cores by the global scheduler.
    pub tb_migrations: u64,
    /// Per-request (tenant) breakdowns, indexed by request id. Solo
    /// runs report exactly one entry; legacy constructors leave it
    /// empty until [`crate::system::System::collect_stats`] fills it.
    #[serde(default)]
    pub requests: Vec<RequestStats>,
    /// Tiered KV store totals (`None` when no tier was attached).
    #[serde(default)]
    pub kv: Option<KvTierStats>,
}

impl SimStats {
    pub fn new(num_slices: usize, num_cores: usize, num_channels: usize) -> Self {
        SimStats {
            cycles: 0,
            freq_ghz: 0.0,
            slices: vec![SliceStats::default(); num_slices],
            cores: vec![CoreStats::default(); num_cores],
            channels: vec![ChannelStats::default(); num_channels],
            progress: vec![0; num_cores],
            tb_migrations: 0,
            requests: Vec::new(),
            kv: None,
        }
    }

    /// Total L2 lookups across slices.
    pub fn l2_lookups(&self) -> u64 {
        self.slices.iter().map(|s| s.lookups).sum()
    }

    /// L2 hit rate: hits / lookups.
    pub fn l2_hit_rate(&self) -> f64 {
        let lookups = self.l2_lookups();
        if lookups == 0 {
            return 0.0;
        }
        self.slices.iter().map(|s| s.hits).sum::<u64>() as f64 / lookups as f64
    }

    /// MSHR hit rate as the paper defines it: requests merged into an
    /// existing entry divided by the number of cache misses.
    pub fn mshr_hit_rate(&self) -> f64 {
        let misses: u64 = self.slices.iter().map(|s| s.misses).sum();
        if misses == 0 {
            return 0.0;
        }
        self.slices.iter().map(|s| s.mshr_merges).sum::<u64>() as f64 / misses as f64
    }

    /// Mean MSHR `numEntry` occupancy as a fraction of capacity.
    pub fn mshr_entry_util(&self, entries_per_slice: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let integral: u64 = self.slices.iter().map(|s| s.mshr_occupancy_integral).sum();
        integral as f64 / (self.cycles as f64 * self.slices.len() as f64 * entries_per_slice as f64)
    }

    /// Proportion of cache-stall cycles, `t_cs` (Table 3 input), averaged
    /// over slices.
    pub fn t_cs(&self) -> f64 {
        if self.cycles == 0 || self.slices.is_empty() {
            return 0.0;
        }
        let stalls: u64 = self.slices.iter().map(|s| s.stall_cycles).sum();
        stalls as f64 / (self.cycles as f64 * self.slices.len() as f64)
    }

    /// Bytes moved to/from DRAM.
    pub fn dram_bytes(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| (c.reads + c.writes) * LINE_BYTES)
            .sum()
    }

    /// Number of DRAM line accesses (reads + writes).
    pub fn dram_accesses(&self) -> u64 {
        self.channels.iter().map(|c| c.reads + c.writes).sum()
    }

    /// Average DRAM bandwidth over the run in GB/s.
    pub fn dram_bandwidth_gbs(&self) -> f64 {
        if self.cycles == 0 || self.freq_ghz == 0.0 {
            return 0.0;
        }
        let seconds = self.cycles as f64 / (self.freq_ghz * 1e9);
        self.dram_bytes() as f64 / seconds / 1e9
    }

    /// DRAM row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let total: u64 = self
            .channels
            .iter()
            .map(|c| c.row_hits + c.row_misses + c.row_conflicts)
            .sum();
        if total == 0 {
            return 0.0;
        }
        self.channels.iter().map(|c| c.row_hits).sum::<u64>() as f64 / total as f64
    }

    /// Mean load latency observed by cores, in cycles.
    pub fn mean_load_latency(&self) -> f64 {
        let n: u64 = self.cores.iter().map(|c| c.load_count).sum();
        if n == 0 {
            return 0.0;
        }
        self.cores.iter().map(|c| c.load_latency_sum).sum::<u64>() as f64 / n as f64
    }

    /// Aggregate L1 hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        let lookups: u64 = self.cores.iter().map(|c| c.l1_lookups).sum();
        if lookups == 0 {
            return 0.0;
        }
        self.cores.iter().map(|c| c.l1_hits).sum::<u64>() as f64 / lookups as f64
    }

    /// Consistency check used by integration tests: hits + misses must
    /// equal lookups, and merges + allocs must equal misses, per slice.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, s) in self.slices.iter().enumerate() {
            if s.hits + s.misses != s.lookups {
                return Err(format!(
                    "slice {i}: hits {} + misses {} != lookups {}",
                    s.hits, s.misses, s.lookups
                ));
            }
            if s.mshr_merges + s.mshr_allocs != s.misses {
                return Err(format!(
                    "slice {i}: merges {} + allocs {} != misses {}",
                    s.mshr_merges, s.mshr_allocs, s.misses
                ));
            }
        }
        for (i, c) in self.cores.iter().enumerate() {
            if c.l1_hits + c.l1_merges > c.l1_lookups {
                return Err(format!("core {i}: L1 hits+merges exceed lookups"));
            }
        }
        if !self.requests.is_empty() {
            // Per-request attribution must partition the untagged
            // totals: every event and every attributed stall cycle is
            // charged to exactly one request.
            let sums: [(&str, u64, u64); 4] = [
                (
                    "lookups",
                    self.requests.iter().map(|r| r.llc.lookups).sum(),
                    self.slices.iter().map(|s| s.lookups).sum(),
                ),
                (
                    "hits",
                    self.requests.iter().map(|r| r.llc.hits).sum(),
                    self.slices.iter().map(|s| s.hits).sum(),
                ),
                (
                    "misses",
                    self.requests.iter().map(|r| r.llc.misses).sum(),
                    self.slices.iter().map(|s| s.misses).sum(),
                ),
                (
                    "stall cycles",
                    self.requests.iter().map(|r| r.llc.stall_cycles).sum(),
                    self.slices.iter().map(|s| s.stall_cycles).sum(),
                ),
            ];
            for (what, tagged, total) in sums {
                if tagged != total {
                    return Err(format!(
                        "per-request {what} sum {tagged} != untagged total {total}"
                    ));
                }
            }
            for (r, req) in self.requests.iter().enumerate() {
                if req.llc.hits + req.llc.misses != req.llc.lookups {
                    return Err(format!("request {r}: hits + misses != lookups"));
                }
                if req.llc.mshr_merges + req.llc.mshr_allocs != req.llc.misses {
                    return Err(format!("request {r}: merges + allocs != misses"));
                }
                if req.completed && req.blocks_completed != req.blocks_total {
                    return Err(format!("request {r}: completed with blocks outstanding"));
                }
                if req.rejected.is_some() && (req.completed || req.admitted.is_some()) {
                    return Err(format!(
                        "request {r}: terminally rejected yet admitted/completed"
                    ));
                }
            }
        }
        if let Some(kv) = &self.kv {
            if kv.hits + kv.misses + kv.merges != kv.lookups {
                return Err(format!(
                    "kv: hits {} + misses {} + merges {} != lookups {}",
                    kv.hits, kv.misses, kv.merges, kv.lookups
                ));
            }
            if kv.promotions > kv.misses {
                return Err(format!(
                    "kv: {} promotions completed but only {} started",
                    kv.promotions, kv.misses
                ));
            }
            if !self.requests.is_empty() {
                // KV attribution must partition the tier totals, exactly
                // like the LLC counters above.
                let sums: [(&str, u64, u64); 5] = [
                    (
                        "lookups",
                        self.requests.iter().map(|r| r.kv.lookups).sum(),
                        kv.lookups,
                    ),
                    (
                        "hits",
                        self.requests.iter().map(|r| r.kv.hits).sum(),
                        kv.hits,
                    ),
                    (
                        "misses",
                        self.requests.iter().map(|r| r.kv.misses).sum(),
                        kv.misses,
                    ),
                    (
                        "merges",
                        self.requests.iter().map(|r| r.kv.merges).sum(),
                        kv.merges,
                    ),
                    (
                        "evictions",
                        self.requests.iter().map(|r| r.kv.evictions).sum(),
                        kv.evictions,
                    ),
                ];
                for (what, tagged, total) in sums {
                    if tagged != total {
                        return Err(format!(
                            "per-request kv {what} sum {tagged} != tier total {total}"
                        ));
                    }
                }
                for (r, req) in self.requests.iter().enumerate() {
                    if req.kv.hits + req.kv.misses + req.kv.merges != req.kv.lookups {
                        return Err(format!("request {r}: kv hits + misses + merges != lookups"));
                    }
                }
            }
        } else if self
            .requests
            .iter()
            .any(|r| r.kv != RequestKvStats::default())
        {
            return Err("per-request kv counters without a kv tier".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(cycles: u64) -> SimStats {
        let mut s = SimStats::new(2, 2, 2);
        s.cycles = cycles;
        s.freq_ghz = 2.0;
        s
    }

    #[test]
    fn hit_rates_empty_run() {
        let s = stats_with(0);
        assert_eq!(s.l2_hit_rate(), 0.0);
        assert_eq!(s.mshr_hit_rate(), 0.0);
        assert_eq!(s.t_cs(), 0.0);
        assert_eq!(s.dram_bandwidth_gbs(), 0.0);
    }

    #[test]
    fn l2_hit_rate_aggregates_slices() {
        let mut s = stats_with(100);
        s.slices[0].lookups = 10;
        s.slices[0].hits = 5;
        s.slices[0].misses = 5;
        s.slices[1].lookups = 10;
        s.slices[1].hits = 10;
        assert!((s.l2_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mshr_hit_rate_definition() {
        // Paper definition: merges / cache misses.
        let mut s = stats_with(100);
        s.slices[0].misses = 8;
        s.slices[0].mshr_merges = 6;
        s.slices[0].mshr_allocs = 2;
        assert!((s.mshr_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_math() {
        let mut s = stats_with(2_000_000_000); // 1 second at 2 GHz
        s.channels[0].reads = 1_000_000;
        // 1e6 lines * 64B = 64 MB over 1 s = 0.064 GB/s.
        assert!((s.dram_bandwidth_gbs() - 0.064).abs() < 1e-9);
    }

    #[test]
    fn t_cs_is_per_slice_proportion() {
        let mut s = stats_with(1000);
        s.slices[0].stall_cycles = 500;
        s.slices[1].stall_cycles = 0;
        assert!((s.t_cs() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn request_cycles_to_completion() {
        let mut r = RequestStats {
            arrival: 100,
            blocks_total: 4,
            ..Default::default()
        };
        assert_eq!(r.cycles_to_completion(), 0, "incomplete request");
        r.completed = true;
        r.completion_cycle = 499;
        assert_eq!(r.cycles_to_completion(), 400);
        // A trivially-complete zero-block request did no work.
        r.blocks_total = 0;
        assert_eq!(r.cycles_to_completion(), 0);
    }

    #[test]
    fn request_latency_metrics() {
        let mut r = RequestStats {
            arrival: 100,
            blocks_total: 5,
            ..Default::default()
        };
        assert_eq!(r.ttft(), None, "no block retired yet");
        assert_eq!(r.queue_delay(), None, "still queued");
        r.admitted = Some(160);
        r.first_retire = Some(199);
        assert_eq!(r.queue_delay(), Some(60));
        assert_eq!(r.ttft(), Some(100), "arrival -> first retire, inclusive");
        assert_eq!(r.mean_tbt(), None, "not completed yet");
        r.completed = true;
        r.completion_cycle = 599;
        assert_eq!(r.mean_tbt(), Some(100.0), "(599 - 199) / 4 blocks");
        // Closed runs: admission is arrival, queue delay 0.
        r.admitted = Some(r.arrival);
        assert_eq!(r.queue_delay(), Some(0));
    }

    #[test]
    fn slo_outcome_classification() {
        let mut r = RequestStats {
            arrival: 100,
            blocks_total: 5,
            ..Default::default()
        };
        // Still queued / in flight when the budget ran out.
        assert_eq!(r.slo_outcome(1_000, None), SloOutcome::Missed);
        r.admitted = Some(100);
        r.first_retire = Some(199);
        r.completed = true;
        r.blocks_completed = 5;
        r.completion_cycle = 599;
        // TTFT 100, mean TBT 100.
        assert_eq!(r.slo_outcome(100, None), SloOutcome::Met);
        assert_eq!(r.slo_outcome(99, None), SloOutcome::Missed);
        assert_eq!(r.slo_outcome(100, Some(100)), SloOutcome::Met);
        assert_eq!(r.slo_outcome(100, Some(99)), SloOutcome::Missed);
        // Rejection dominates everything else.
        let dropped = RequestStats {
            arrival: 100,
            blocks_total: 5,
            rejected: Some(150),
            ..Default::default()
        };
        assert_eq!(dropped.slo_outcome(1_000, None), SloOutcome::Rejected);
        // A single-block request has no TBT to judge.
        let single = RequestStats {
            blocks_total: 1,
            blocks_completed: 1,
            completed: true,
            first_retire: Some(9),
            completion_cycle: 9,
            ..Default::default()
        };
        assert_eq!(single.slo_outcome(10, Some(1)), SloOutcome::Met);
    }

    #[test]
    fn consistency_rejects_rejected_yet_admitted() {
        let mut s = stats_with(10);
        s.requests = vec![RequestStats {
            blocks_total: 1,
            rejected: Some(5),
            ..Default::default()
        }];
        s.check_consistency().unwrap();
        s.requests[0].admitted = Some(5);
        assert!(s.check_consistency().is_err());
    }

    #[test]
    fn consistency_checks_request_partition() {
        let mut s = stats_with(10);
        s.slices[0].lookups = 4;
        s.slices[0].hits = 1;
        s.slices[0].misses = 3;
        s.slices[0].mshr_allocs = 3;
        s.requests = vec![RequestStats {
            blocks_total: 1,
            blocks_completed: 1,
            completed: true,
            llc: RequestLlcStats {
                lookups: 4,
                hits: 1,
                misses: 3,
                mshr_allocs: 3,
                ..Default::default()
            },
            ..Default::default()
        }];
        s.check_consistency().unwrap();
        // A lost lookup attribution is caught.
        s.requests[0].llc.lookups = 3;
        s.requests[0].llc.hits = 0;
        assert!(s.check_consistency().is_err());
    }

    #[test]
    fn consistency_detects_mismatch() {
        let mut s = stats_with(10);
        s.slices[0].lookups = 3;
        s.slices[0].hits = 1;
        s.slices[0].misses = 1;
        assert!(s.check_consistency().is_err());
        s.slices[0].misses = 2;
        s.slices[0].mshr_allocs = 2;
        assert!(s.check_consistency().is_ok());
    }
}
