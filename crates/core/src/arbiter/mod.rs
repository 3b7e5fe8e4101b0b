//! LLC request-arbitration policies (Section 4 of the paper).
//!
//! * [`balanced::BalancedArbiter`] — policy **B**: serve the core with
//!   the smallest progress counter first.
//! * [`mshr_aware::MshrAwareArbiter`] — policies **MA** / **BMA**:
//!   prioritize speculated cache hits and MSHR hits using the hit
//!   buffer, the live MSHR file and the `sent_reqs` ring.
//! * [`cobrra::CobrraArbiter`] — the COBRRA baseline (adaptive
//!   request-response arbitration, bypass disabled).
//! * [`prefix_aware::PrefixAwareArbiter`] — policy **PFA**: deprioritize
//!   tenants whose KV blocks are mid-promotion from the slow tier.

pub mod balanced;
pub mod cobrra;
pub mod hit_buffer;
pub mod mshr_aware;
pub mod prefix_aware;
pub mod sent_reqs;

pub use balanced::BalancedArbiter;
pub use cobrra::CobrraArbiter;
pub use hit_buffer::HitBuffer;
pub use mshr_aware::{MshrAwareArbiter, MshrAwareConfig, TieBreak};
pub use prefix_aware::PrefixAwareArbiter;
pub use sent_reqs::SentReqs;

use llamcat_sim::arb::{ArbiterCtx, FifoArbiter, PortPreference, RequestArbiter};
use llamcat_sim::types::Cycle;

/// Closed-world enum over every arbiter this crate knows, used to
/// monomorphize the simulator's per-tick dispatch: the experiment layer
/// builds a `System<ArbiterKind, ThrottleKind>` so the hot loop issues
/// no virtual calls (the variant check is a predictable branch — every
/// slice holds the same variant for a whole run). A policy outside
/// this set is its own type parameter of `System`.
#[derive(Clone)]
pub enum ArbiterKind {
    Fifo(FifoArbiter),
    Balanced(BalancedArbiter),
    MshrAware(MshrAwareArbiter),
    Cobrra(CobrraArbiter),
    PrefixAware(PrefixAwareArbiter),
}

macro_rules! each_arbiter {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            ArbiterKind::Fifo($inner) => $body,
            ArbiterKind::Balanced($inner) => $body,
            ArbiterKind::MshrAware($inner) => $body,
            ArbiterKind::Cobrra($inner) => $body,
            ArbiterKind::PrefixAware($inner) => $body,
        }
    };
}

impl RequestArbiter for ArbiterKind {
    #[inline]
    fn select(&mut self, ctx: &ArbiterCtx<'_>) -> Option<usize> {
        each_arbiter!(self, a => a.select(ctx))
    }

    #[inline]
    fn note_hit(&mut self, line_addr: u64) {
        each_arbiter!(self, a => a.note_hit(line_addr))
    }

    #[inline]
    fn note_fill(&mut self, line_addr: u64) {
        each_arbiter!(self, a => a.note_fill(line_addr))
    }

    #[inline]
    fn tick(&mut self) {
        each_arbiter!(self, a => a.tick())
    }

    #[inline]
    fn reset(&mut self) {
        each_arbiter!(self, a => a.reset())
    }

    #[inline]
    fn port_preference(
        &mut self,
        req_q_len: usize,
        resp_q_len: usize,
        resp_q_cap: usize,
    ) -> Option<PortPreference> {
        each_arbiter!(self, a => a.port_preference(req_q_len, resp_q_len, resp_q_cap))
    }

    #[inline]
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        each_arbiter!(self, a => a.next_event(now))
    }

    #[inline]
    fn skip(&mut self, cycles: u64) {
        each_arbiter!(self, a => a.skip(cycles))
    }
}
