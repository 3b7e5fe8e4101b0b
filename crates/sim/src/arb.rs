//! Pluggable policy interfaces: request arbitration and thread throttling.
//!
//! The simulator substrate defines the *traits* plus the trivial default
//! policies (FIFO arbitration, no throttling). The paper's contribution —
//! balanced/MSHR-aware arbitration and two-level dynamic multi-gear
//! throttling — and the published baselines (DYNCTA, LCS, COBRRA) are
//! implemented in the `llamcat` crate on top of these interfaces.
//!
//! The policy types are type parameters of [`crate::system::System`]
//! and [`crate::llc::LlcSlice`], so a policy outside that crate's
//! registry is simply another implementation of these traits. One that
//! is also `Clone` supports snapshot and fork
//! ([`crate::system::System::snapshot`]).

use crate::mshr::MshrFile;
use crate::pool::{ReqHandle, ReqPool};
use crate::types::{Cycle, MemReq};

/// Everything an arbiter may consult when choosing a request
/// (Fig 4/Fig 5 of the paper: the queue itself, the per-core served
/// counters, and the real-time MSHR wire).
///
/// The request queue is handle-based (see [`crate::pool`]): `queue`
/// lists the live requests in FIFO order (index 0 is oldest) and
/// [`ArbiterCtx::req`] resolves one against the pool. Indices returned
/// by [`RequestArbiter::select`] are positions in `queue`.
pub struct ArbiterCtx<'a> {
    /// Request-queue handles in FIFO order (index 0 is oldest).
    pub queue: &'a [ReqHandle],
    /// The arena the handles point into.
    pub pool: &'a ReqPool,
    /// The slice's live MSHR file (the paper's "direct wire"): the
    /// state after this cycle's fill and MSHR-pipe stages, read in place
    /// rather than copied.
    pub mshr: &'a MshrFile,
    /// Requests served per core by this slice since operator start
    /// (the `cnt` registers of Fig 4).
    pub served: &'a [u64],
    /// Per serving request: whether its KV is mid-promotion in the
    /// tiered KV store (see [`crate::kv`]). Empty when no tier is
    /// attached — index with [`ArbiterCtx::kv_busy_of`], which treats
    /// out-of-range as not busy.
    pub kv_busy: &'a [bool],
    /// Current core cycle.
    pub cycle: Cycle,
}

impl<'a> ArbiterCtx<'a> {
    /// Queue length.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue holds no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queued request at FIFO position `i`.
    #[inline]
    pub fn req(&self, i: usize) -> &'a MemReq {
        self.pool.get(self.queue[i])
    }

    /// Iterates the queued requests in FIFO order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &'a MemReq> + '_ {
        self.queue.iter().map(|&h| self.pool.get(h))
    }

    /// Whether the request at FIFO position `i` belongs to a tenant
    /// whose KV is mid-promotion (always false without a KV tier).
    #[inline]
    pub fn kv_busy_of(&self, i: usize) -> bool {
        self.kv_busy
            .get(self.req(i).request as usize)
            .copied()
            .unwrap_or(false)
    }
}

/// Which path gets the shared storage port this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortPreference {
    Response,
    Request,
}

/// Request-selection policy for one LLC slice.
///
/// `select` is consulted only on cycles where the slice can actually
/// accept a new request, so a returned index is a commitment: the slice
/// removes that entry and feeds it to the tag pipeline. It is called at
/// most once per cycle, before that cycle's [`RequestArbiter::tick`]
/// (per-cycle speculation state may rely on this). Implementations
/// keep their own speculation state (hit buffer, sent_reqs) up to date in
/// the callbacks.
pub trait RequestArbiter {
    /// Chooses the index of the request to service, or `None` to idle.
    fn select(&mut self, ctx: &ArbiterCtx<'_>) -> Option<usize>;

    /// Called when the tag lookup of a request resolves to a cache hit.
    fn note_hit(&mut self, _line_addr: u64) {}

    /// Called when a DRAM fill installs a line into this slice.
    fn note_fill(&mut self, _line_addr: u64) {}

    /// Called once per core cycle (ages speculation FIFOs).
    fn tick(&mut self) {}

    /// Called at operator start; clears all history.
    fn reset(&mut self) {}

    /// Optional dynamic override of the request/response storage-port
    /// arbitration (used by the COBRRA baseline). `None` keeps the
    /// default response-queue-first order: a queued response is served
    /// before any request.
    fn port_preference(
        &mut self,
        _req_q_len: usize,
        _resp_q_len: usize,
        _resp_q_cap: usize,
    ) -> Option<PortPreference> {
        None
    }

    /// Event bound for the fast-forward engine ([`crate::system::StepMode::Skip`]).
    ///
    /// Returns a lower bound on the first cycle `>= now` at which this
    /// arbiter's autonomous evolution (its per-cycle [`RequestArbiter::tick`]
    /// aging, or state mutated by [`RequestArbiter::port_preference`] under
    /// unchanged queue lengths) could influence a future decision in a way
    /// that [`RequestArbiter::skip`] does not reproduce. `None` means
    /// "never": skipping `k` cycles and calling `skip(k)` is exactly
    /// equivalent to `k` ticks. `Some(now)` disables skipping entirely —
    /// the conservative default for implementations that have not audited
    /// their per-cycle state.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// Fast-forwards `cycles` consecutive idle cycles: must leave the
    /// arbiter in exactly the state `cycles` calls to
    /// [`RequestArbiter::tick`] (with no intervening `select`/`note_*`
    /// callbacks) would. The default replays `tick` literally, which is
    /// always correct; implementations with aging state should provide a
    /// closed form.
    fn skip(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }
}

/// Default arbitration: first-come, first-served.
#[derive(Debug, Default, Clone)]
pub struct FifoArbiter;

impl RequestArbiter for FifoArbiter {
    fn select(&mut self, ctx: &ArbiterCtx<'_>) -> Option<usize> {
        if ctx.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None // stateless: ticking it is a no-op
    }
}

/// Observable system state handed to a throttle controller every cycle.
///
/// All counters are *cumulative*; controllers compute deltas over their
/// own sampling periods.
pub struct ThrottleInputs<'a> {
    pub cycle: Cycle,
    /// Instruction windows per core (upper bound for `max_tb`).
    pub num_windows: usize,
    /// Number of LLC slices (for normalizing stall cycles into t_cs).
    pub num_slices: usize,
    /// Per-core progress: requests served across all LLC slices.
    pub progress: &'a [u64],
    /// Per-core cycles in which *all* resident thread blocks were waiting
    /// on memory (C_mem).
    pub c_mem: &'a [u64],
    /// Per-core cycles with no thread block resident (C_idle).
    pub c_idle: &'a [u64],
    /// Total LLC stall cycles summed over slices (for t_cs).
    pub llc_stall_cycles: u64,
    /// Thread blocks currently resident per core.
    pub active_tbs: &'a [usize],
    /// Thread blocks completed per core (cumulative; used by LCS to
    /// detect first-block completion).
    pub tbs_completed: &'a [u64],
}

/// Thread-throttling policy: decides, every cycle, the maximum number of
/// concurrently resident thread blocks per core.
pub trait ThrottleController {
    /// Updates `max_tb[c]` in place; entries must remain in
    /// `1..=num_windows`.
    fn tick(&mut self, inputs: &ThrottleInputs<'_>, max_tb: &mut [usize]);

    /// Called at operator start.
    fn reset(&mut self, _num_cores: usize) {}

    /// Event bound for the fast-forward engine ([`crate::system::StepMode::Skip`]).
    ///
    /// Returns a lower bound on the first cycle `>= now` at which a call
    /// to [`ThrottleController::tick`] could either mutate controller
    /// state or produce a different `max_tb` than the previous call,
    /// assuming the cumulative inputs keep accruing at their current
    /// per-cycle rates (which is exactly what holds inside a skip
    /// window). Period-driven controllers return their next sampling
    /// boundary; `None` means the controller only reacts to discrete
    /// system events (which are never skipped). `Some(now)` — the
    /// conservative default — disables skipping.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }
}

/// Default: no throttling (all windows usable).
#[derive(Debug, Default, Clone)]
pub struct NoThrottle;

impl ThrottleController for NoThrottle {
    fn tick(&mut self, inputs: &ThrottleInputs<'_>, max_tb: &mut [usize]) {
        for m in max_tb.iter_mut() {
            *m = inputs.num_windows;
        }
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None // stateless, constant output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with(reqs: &[(usize, u64)]) -> (ReqPool, Vec<ReqHandle>) {
        let mut pool = ReqPool::default();
        let handles = reqs
            .iter()
            .map(|&(core, addr)| {
                pool.alloc(MemReq {
                    id: addr,
                    core,
                    request: 0,
                    line_addr: addr,
                    is_write: false,
                    issued_at: 0,
                })
            })
            .collect();
        (pool, handles)
    }

    #[test]
    fn fifo_picks_oldest() {
        let mut a = FifoArbiter;
        let snap = MshrFile::new(1, 1);
        let (pool, q) = pool_with(&[(1, 0x40), (0, 0x80)]);
        let ctx = ArbiterCtx {
            queue: &q,
            pool: &pool,
            mshr: &snap,
            served: &[0, 0],
            kv_busy: &[],
            cycle: 0,
        };
        assert_eq!(a.select(&ctx), Some(0));
        let ctx = ArbiterCtx {
            queue: &[],
            pool: &pool,
            mshr: &snap,
            served: &[0, 0],
            kv_busy: &[],
            cycle: 0,
        };
        assert_eq!(a.select(&ctx), None);
    }

    #[test]
    fn no_throttle_grants_all_windows() {
        let mut t = NoThrottle;
        let mut max_tb = vec![1usize; 4];
        let inputs = ThrottleInputs {
            cycle: 0,
            num_windows: 4,
            num_slices: 8,
            progress: &[0; 4],
            c_mem: &[0; 4],
            c_idle: &[0; 4],
            llc_stall_cycles: 0,
            active_tbs: &[0; 4],
            tbs_completed: &[0; 4],
        };
        t.tick(&inputs, &mut max_tb);
        assert!(max_tb.iter().all(|&m| m == 4));
    }
}
