//! Fundamental identifiers and message types shared across the simulator.
//!
//! Everything the simulator moves around is expressed in terms of *line
//! addresses* (byte address of a cache-line-aligned block) and small integer
//! identifiers. Keeping these as plain newtypes (rather than a general
//! object graph) keeps the hot tick loop allocation-free.

use serde::{Deserialize, Serialize};

/// Byte address in the simulated physical address space.
pub type Addr = u64;

/// Simulated core-clock cycle count.
pub type Cycle = u64;

/// Index of a processor core (vector core) in the system.
pub type CoreId = usize;

/// Index of an LLC slice.
pub type SliceId = usize;

/// Index of an instruction window within a core.
pub type WindowId = usize;

/// Monotonically increasing identifier for in-flight memory requests.
pub type ReqId = u64;

/// Cache line size used throughout the system (Table 5: 64 B).
pub const LINE_BYTES: u64 = 64;

/// Returns the line-aligned base address containing `addr`.
#[inline(always)]
pub fn line_of(addr: Addr) -> Addr {
    addr & !(LINE_BYTES - 1)
}

/// Returns the line index (address divided by the line size).
#[inline(always)]
pub fn line_index(addr: Addr) -> u64 {
    addr >> LINE_BYTES.trailing_zeros()
}

/// A memory request travelling from a core's L1 towards an LLC slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemReq {
    /// Unique id, assigned by the issuing L1.
    pub id: ReqId,
    /// Core that issued the request.
    pub core: CoreId,
    /// Serving request (tenant) the issuing thread block belongs to;
    /// 0 for solo traces. Pure attribution — no policy reads it.
    pub request: u32,
    /// Line-aligned address.
    pub line_addr: Addr,
    /// True for (posted) write-through stores, false for loads.
    pub is_write: bool,
    /// Core cycle at which the request entered the memory system
    /// (for latency accounting).
    pub issued_at: Cycle,
}

/// A response travelling from an LLC slice back to a core.
///
/// Responses are only generated for loads; stores are posted (fire and
/// forget) because the L1 is write-through / write-no-allocate and the
/// core never waits on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemResp {
    /// Id of the original request.
    pub id: ReqId,
    /// Core the response is destined for.
    pub core: CoreId,
    /// Line-aligned address of the returned data.
    pub line_addr: Addr,
}

/// A request from an LLC slice to the DRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramReq {
    /// Line-aligned address.
    pub line_addr: Addr,
    /// True for write-backs of dirty victims, false for fills.
    pub is_write: bool,
    /// Slice that issued the request (fills are routed back to it).
    pub slice: SliceId,
}

/// A completed DRAM read returning a line to an LLC slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramFill {
    pub line_addr: Addr,
    pub slice: SliceId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(0x12345), 0x12340);
        assert_eq!(line_index(128), 2);
    }

    #[test]
    fn line_of_is_idempotent() {
        for addr in [0u64, 1, 63, 64, 65, 4095, 1 << 40] {
            assert_eq!(line_of(line_of(addr)), line_of(addr));
            assert_eq!(line_of(addr) % LINE_BYTES, 0);
        }
    }
}
