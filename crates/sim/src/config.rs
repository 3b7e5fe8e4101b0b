//! System configuration mirroring Table 5 of the paper.
//!
//! Every structural parameter of the simulated machine lives here so that
//! the benchmark harness can sweep cache sizes (Fig 9), queue depths and
//! MSHR geometry without touching simulator code. `SystemConfig::table5()`
//! reproduces the exact configuration the paper evaluates.

use serde::{Deserialize, Serialize};

use crate::cache::MAX_ASSOC;
use crate::noc::Noc;
use crate::types::LINE_BYTES;

/// Arbitration between the request path and the response path for the
/// shared LLC storage port (Section 3.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReqRespPolicy {
    /// Serve a response whenever one is queued ("response-queue-first";
    /// the policy the paper's experiments use).
    ResponseFirst,
    /// Prioritize requests; only when the response queue is full are
    /// requests and responses served in turn (COBRRA-style baseline).
    RequestFirst,
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set). Lines are [`LINE_BYTES`] long, as
    /// in every cache of the machine.
    pub associativity: usize,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.capacity_bytes / (LINE_BYTES * self.associativity as u64)) as usize
    }
}

/// Per-core private L1 configuration (Table 5, "L1 cache" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L1Config {
    pub geometry: CacheGeometry,
    /// Hit latency in core cycles.
    pub latency: u64,
    /// Maximum distinct outstanding line misses tracked per core.
    pub miss_entries: usize,
    /// Maximum requests merged per outstanding line.
    pub miss_targets: usize,
    /// Streaming hint: inserted lines are placed at LRU position so that
    /// single-use streams do not displace reused data.
    pub streaming: bool,
}

/// Shared L2 (LLC) configuration (Table 5, "L2 slice" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2Config {
    /// Total capacity across all slices, in bytes.
    pub capacity_bytes: u64,
    /// Number of address-interleaved slices.
    pub num_slices: usize,
    pub associativity: usize,
    /// Tag/pipeline latency for a lookup (cycles).
    pub hit_latency: u64,
    /// Data-array latency added to a hit before the response leaves (cycles).
    pub data_latency: u64,
    /// Cycles the slice data port is occupied per cache-hit readout.
    /// The MSHR path does not use the data port (fills forward directly
    /// to cores), which is precisely why the paper finds "MSHR can be
    /// more efficient in capturing temporal locality than cache
    /// storage": a merge overlaps DRAM latency while a hit queues for
    /// the data array.
    pub hit_occupancy: u64,
    /// Extra latency of an MSHR lookup after a tag miss (cycles).
    pub mshr_latency: u64,
    /// MSHR entries per slice (`numEntry`).
    pub mshr_entries: usize,
    /// Mergeable requests per MSHR entry (`numTarget`).
    pub mshr_targets: usize,
    /// Request queue capacity per slice.
    pub req_q_size: usize,
    /// Response queue capacity per slice.
    pub resp_q_size: usize,
    /// Request/response arbitration for the storage port.
    pub req_resp: ReqRespPolicy,
}

impl L2Config {
    /// Bytes of capacity per slice.
    pub fn slice_capacity(&self) -> u64 {
        self.capacity_bytes / self.num_slices as u64
    }

    /// Cache sets per slice.
    pub fn sets_per_slice(&self) -> usize {
        (self.slice_capacity() / (LINE_BYTES * self.associativity as u64)) as usize
    }
}

/// Vector-core configuration (Table 5, "Core" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Number of instruction windows (thread-block slots) per core.
    pub num_inst_windows: usize,
    /// Instructions each window can hold in flight.
    pub inst_window_depth: usize,
    /// Width of one vector memory access in bytes (vector-len).
    pub vector_len_bytes: u64,
}

/// Interconnect configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Base one-way latency, core to LLC slice, in core cycles
    /// (router/serialization overhead before per-hop distance).
    pub req_base: u64,
    /// Base one-way latency, LLC slice to core, in core cycles.
    pub resp_base: u64,
    /// Additional latency per mesh hop.
    pub hop_latency: u64,
    /// Model per-(core, slice) mesh distances (Fig 3); false gives a
    /// uniform-latency crossbar.
    pub mesh: bool,
}

/// DDR5 device/channel timing, expressed in DRAM clock cycles (tCK).
///
/// Defaults correspond to DDR5-3200 (tCK = 0.625 ns) with 8 Gb x16
/// devices: a 32-bit subchannel with BL16 moves one 64 B line per burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramTiming {
    /// DRAM clock period in picoseconds (DDR5-3200: 625 ps).
    pub tck_ps: u64,
    /// CAS latency (READ to data start).
    pub cl: u64,
    /// RCD: ACTIVATE to internal READ/WRITE.
    pub trcd: u64,
    /// RP: PRECHARGE to ACTIVATE.
    pub trp: u64,
    /// RAS: ACTIVATE to PRECHARGE (minimum row open time).
    pub tras: u64,
    /// Write latency (WRITE to data start).
    pub cwl: u64,
    /// Burst length in data-bus cycles (BL16 occupies BL/2 = 8 tCK).
    pub tbl: u64,
    /// Column-to-column, same bank group.
    pub tccd_l: u64,
    /// Column-to-column, different bank group.
    pub tccd_s: u64,
    /// ACT-to-ACT, same bank group.
    pub trrd_l: u64,
    /// ACT-to-ACT, different bank group.
    pub trrd_s: u64,
    /// Four-activate window.
    pub tfaw: u64,
    /// Write recovery (end of write data to PRECHARGE).
    pub twr: u64,
    /// Write-to-read turnaround, same rank.
    pub twtr: u64,
    /// Read-to-precharge.
    pub trtp: u64,
    /// Average refresh interval.
    pub trefi: u64,
    /// Refresh cycle time (all-bank).
    pub trfc: u64,
}

impl DramTiming {
    /// JEDEC-flavoured DDR5-3200AN timing set.
    pub fn ddr5_3200() -> Self {
        DramTiming {
            tck_ps: 625,
            cl: 26,
            trcd: 26,
            trp: 26,
            tras: 52,
            cwl: 24,
            tbl: 8,
            tccd_l: 8,
            tccd_s: 8,
            trrd_l: 8,
            trrd_s: 8,
            tfaw: 32,
            twr: 48,
            twtr: 16,
            trtp: 12,
            trefi: 6240,
            trfc: 472,
        }
    }
}

/// DRAM organisation (Table 5, "DRAM" row: DDR5_8Gb_x16, 4 ranks,
/// DDR5-3200, 4 channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    pub channels: usize,
    pub ranks: usize,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Row-buffer (page) size in bytes per bank.
    pub row_bytes: u64,
    pub timing: DramTiming,
    /// Read queue capacity per channel.
    pub read_q_size: usize,
    /// Write queue capacity per channel.
    pub write_q_size: usize,
    /// Drain writes once the write queue reaches this occupancy.
    pub write_high_watermark: usize,
    /// Stop draining writes below this occupancy.
    pub write_low_watermark: usize,
    /// Enable periodic refresh.
    pub refresh: bool,
}

impl DramConfig {
    /// Table 5 organisation: 4 channels, 4 ranks, DDR5 x16 (4 bank groups
    /// of 2 banks on a 32-bit subchannel), 2 KiB rows.
    pub fn table5() -> Self {
        DramConfig {
            channels: 4,
            ranks: 4,
            bank_groups: 4,
            banks_per_group: 2,
            row_bytes: 2048,
            timing: DramTiming::ddr5_3200(),
            read_q_size: 32,
            write_q_size: 32,
            write_high_watermark: 24,
            write_low_watermark: 8,
            refresh: true,
        }
    }

    /// Total banks per channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Peak channel bandwidth in bytes per second (one line per tBL).
    pub fn peak_channel_bw(&self) -> f64 {
        let burst_seconds = self.timing.tbl as f64 * self.timing.tck_ps as f64 * 1e-12;
        LINE_BYTES as f64 / burst_seconds
    }
}

/// Longest latency, in core cycles, a configuration may ask for: of a
/// NoC trip (the largest request latency, or the L2 data latency plus
/// the largest response latency; Table 5: 34) and of the L2 tag plus
/// MSHR pipeline (Table 5: 8). Keeps the structures sized by them small
/// and `now + latency` far from overflow.
pub const MAX_LATENCY: u64 = 1 << 16;

/// Complete system configuration (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core clock frequency in GHz (paper: 1.96 GHz).
    pub freq_ghz: f64,
    pub num_cores: usize,
    pub core: CoreConfig,
    pub l1: L1Config,
    pub l2: L2Config,
    pub noc: NocConfig,
    pub dram: DramConfig,
}

impl SystemConfig {
    /// The exact configuration of Table 5.
    pub fn table5() -> Self {
        SystemConfig {
            freq_ghz: 1.96,
            num_cores: 16,
            core: CoreConfig {
                num_inst_windows: 4,
                inst_window_depth: 128,
                vector_len_bytes: 128,
            },
            l1: L1Config {
                geometry: CacheGeometry {
                    capacity_bytes: 64 * 1024,
                    associativity: 8,
                },
                latency: 1,
                miss_entries: 32,
                miss_targets: 8,
                streaming: true,
            },
            l2: L2Config {
                capacity_bytes: 16 * 1024 * 1024,
                num_slices: 8,
                associativity: 8,
                hit_latency: 3,
                data_latency: 25,
                hit_occupancy: 4,
                mshr_latency: 5,
                mshr_entries: 6,
                mshr_targets: 8,
                req_q_size: 12,
                resp_q_size: 64,
                req_resp: ReqRespPolicy::ResponseFirst,
            },
            noc: NocConfig {
                req_base: 2,
                resp_base: 2,
                hop_latency: 1,
                mesh: true,
            },
            dram: DramConfig::table5(),
        }
    }

    /// Same system with a different total L2 capacity (Fig 9 sweeps
    /// 16 MB / 32 MB / 64 MB).
    pub fn with_l2_mb(mut self, mb: u64) -> Self {
        self.l2.capacity_bytes = mb * 1024 * 1024;
        self
    }

    /// Core clock period in picoseconds.
    pub fn core_period_ps(&self) -> u64 {
        (1000.0 / self.freq_ghz).round() as u64
    }

    /// Validates internal consistency; returns a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be positive".into());
        }
        if !self.l2.num_slices.is_power_of_two() {
            return Err("num_slices must be a power of two".into());
        }
        if !self.dram.channels.is_power_of_two() {
            return Err("DRAM channels must be a power of two".into());
        }
        // Checked before any set count is derived: both divide by the
        // associativity, and every cache indexes `LINE_BYTES` lines.
        for (level, assoc) in [
            ("L1", self.l1.geometry.associativity),
            ("L2", self.l2.associativity),
        ] {
            if !(1..=MAX_ASSOC).contains(&assoc) {
                return Err(format!("{level} associativity must lie in 1..={MAX_ASSOC}"));
            }
        }
        if self.l2.sets_per_slice() == 0 {
            return Err("L2 slice must contain at least one set".into());
        }
        if !self.l1.geometry.num_sets().is_power_of_two() {
            return Err("L1 sets must be a power of two".into());
        }
        if self.l2.mshr_entries == 0 || self.l2.mshr_targets == 0 {
            return Err("MSHR dimensions must be positive".into());
        }
        // MA/BMA keep one `sent_reqs` slot per cycle of the tag plus
        // MSHR pipeline, so that span must be positive and bounded.
        match self.l2.hit_latency.checked_add(self.l2.mshr_latency) {
            Some(1..=MAX_LATENCY) => {}
            _ => {
                return Err(format!(
                    "L2 hit_latency + mshr_latency must lie in 1..={MAX_LATENCY}"
                ))
            }
        }
        if self.dram.write_low_watermark >= self.dram.write_high_watermark {
            return Err("write watermarks must satisfy low < high".into());
        }
        if !self.core.vector_len_bytes.is_multiple_of(LINE_BYTES)
            && !LINE_BYTES.is_multiple_of(self.core.vector_len_bytes)
        {
            return Err("vector length must divide or be a multiple of the line size".into());
        }
        // The NoC's calendar wheels span the longest trip a message can
        // take.
        let bound = |base| Noc::latency_bound(&self.noc, base, self.num_cores);
        let req = bound(self.noc.req_base);
        let resp = bound(self.noc.resp_base).and_then(|r| r.checked_add(self.l2.data_latency));
        match (req, resp) {
            (Some(req), Some(resp)) if req.max(resp) <= MAX_LATENCY => Ok(()),
            _ => Err(format!(
                "NoC latencies (plus the L2 data latency for responses) must stay within \
                 {MAX_LATENCY} cycles"
            )),
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::table5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_matches_paper() {
        let c = SystemConfig::table5();
        assert_eq!(c.num_cores, 16);
        assert_eq!(c.l2.capacity_bytes, 16 * 1024 * 1024);
        assert_eq!(c.l2.num_slices, 8);
        assert_eq!(c.l2.mshr_entries, 6);
        assert_eq!(c.l2.mshr_targets, 8);
        assert_eq!(c.l2.hit_latency, 3);
        assert_eq!(c.l2.data_latency, 25);
        assert_eq!(c.l2.mshr_latency, 5);
        assert_eq!(c.l2.req_q_size, 12);
        assert_eq!(c.l2.resp_q_size, 64);
        assert_eq!(c.core.num_inst_windows, 4);
        assert_eq!(c.core.inst_window_depth, 128);
        assert_eq!(c.l1.geometry.capacity_bytes, 64 * 1024);
        assert_eq!(c.dram.channels, 4);
        assert_eq!(c.dram.ranks, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn l2_slice_geometry() {
        let c = SystemConfig::table5();
        // 16 MB / 8 slices / (64 B * 8 ways) = 4096 sets per slice.
        assert_eq!(c.l2.sets_per_slice(), 4096);
        assert_eq!(c.l2.slice_capacity(), 2 * 1024 * 1024);
    }

    #[test]
    fn l1_geometry() {
        let c = SystemConfig::table5();
        // 64 KB / (64 B * 8) = 128 sets.
        assert_eq!(c.l1.geometry.num_sets(), 128);
        // Config files that still carry the retired `line_bytes` field
        // parse to the same machine.
        let json = serde_json::to_string(&c).unwrap();
        let old = json.replacen(
            r#""associativity":8}"#,
            r#""associativity":8,"line_bytes":64}"#,
            1,
        );
        assert_ne!(old, json);
        assert_eq!(serde_json::from_str::<SystemConfig>(&old).unwrap(), c);
    }

    #[test]
    fn cache_size_sweep_helper() {
        let c = SystemConfig::table5().with_l2_mb(64);
        assert_eq!(c.l2.capacity_bytes, 64 * 1024 * 1024);
        assert_eq!(c.l2.sets_per_slice(), 16384);
    }

    #[test]
    fn core_period() {
        let c = SystemConfig::table5();
        // 1 / 1.96 GHz = 510.2 ps.
        assert_eq!(c.core_period_ps(), 510);
    }

    #[test]
    fn peak_bandwidth_is_plausible() {
        let d = DramConfig::table5();
        let bw = d.peak_channel_bw();
        // 64 B per 5 ns = 12.8 GB/s per channel.
        assert!((bw - 12.8e9).abs() < 0.1e9, "got {bw}");
    }

    #[test]
    fn validation_rejects_broken_configs() {
        let mut c = SystemConfig::table5();
        c.l2.num_slices = 3;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table5();
        c.num_cores = 0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table5();
        c.dram.write_low_watermark = 30;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table5();
        c.noc.req_base = u64::MAX;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table5();
        c.noc.hop_latency = u64::MAX / 2;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table5();
        c.l2.data_latency = MAX_LATENCY;
        assert!(c.validate().is_err());
        c.l2.data_latency = 100;
        assert!(c.validate().is_ok());
        let mut c = SystemConfig::table5();
        (c.l2.hit_latency, c.l2.mshr_latency) = (0, 0);
        assert!(c.validate().is_err());
        c.l2.hit_latency = u64::MAX;
        assert!(c.validate().is_err());
    }
}
