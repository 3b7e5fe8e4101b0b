//! Prefix-cache-aware arbitration — policy "PFA".
//!
//! With a tiered KV store attached, a request whose shared-prefix KV
//! blocks are mid-promotion from the slow tier cannot make progress at
//! the DRAM boundary anyway: its reads park as waiters until the
//! transfer lands. A FIFO arbiter keeps spending slice bandwidth on
//! that tenant's queue entries while its neighbours' warm traffic sits
//! behind them. PFA deprioritizes requests the KV tier has marked busy
//! (see `llamcat_sim::kv`): it serves the oldest queued entry whose
//! tenant has *no* in-flight promotion, falling back to plain FIFO when
//! every queued tenant is blocked (or when no KV tier is attached and
//! the busy view is empty).

use llamcat_sim::arb::{ArbiterCtx, RequestArbiter};

/// Policy PFA: oldest request whose tenant is not waiting on a KV
/// promotion, FIFO when all are.
#[derive(Debug, Default, Clone)]
pub struct PrefixAwareArbiter;

impl RequestArbiter for PrefixAwareArbiter {
    fn select(&mut self, ctx: &ArbiterCtx<'_>) -> Option<usize> {
        if ctx.is_empty() {
            return None;
        }
        // Oldest non-busy entry; all-busy degrades to FIFO so the queue
        // still drains (a parked head retries at the dispatch boundary).
        Some((0..ctx.len()).find(|&i| !ctx.kv_busy_of(i)).unwrap_or(0))
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        None // stateless between selections: ticking is a no-op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamcat_sim::mshr::MshrFile;
    use llamcat_sim::pool::{ReqHandle, ReqPool};
    use llamcat_sim::types::MemReq;

    fn pool_with(reqs: &[(usize, u32, u64)]) -> (ReqPool, Vec<ReqHandle>) {
        let mut pool = ReqPool::default();
        let handles = reqs
            .iter()
            .map(|&(core, request, addr)| {
                pool.alloc(MemReq {
                    id: addr,
                    core,
                    request,
                    line_addr: addr,
                    is_write: false,
                    issued_at: 0,
                })
            })
            .collect();
        (pool, handles)
    }

    fn ctx_with<'a>(
        queue: &'a [ReqHandle],
        pool: &'a ReqPool,
        kv_busy: &'a [bool],
        snap: &'a MshrFile,
    ) -> ArbiterCtx<'a> {
        ArbiterCtx {
            queue,
            pool,
            mshr: snap,
            served: &[],
            kv_busy,
            cycle: 0,
        }
    }

    #[test]
    fn skips_busy_tenants_oldest_first() {
        let mut a = PrefixAwareArbiter;
        let snap = MshrFile::new(1, 1);
        let (pool, queue) = pool_with(&[(0, 0, 0x40), (1, 1, 0x80), (2, 2, 0xc0)]);
        // Tenant 0 is mid-promotion: oldest non-busy entry wins.
        let busy = vec![true, false, false];
        assert_eq!(a.select(&ctx_with(&queue, &pool, &busy, &snap)), Some(1));
    }

    #[test]
    fn all_busy_degrades_to_fifo() {
        let mut a = PrefixAwareArbiter;
        let snap = MshrFile::new(1, 1);
        let (pool, queue) = pool_with(&[(0, 0, 0x40), (1, 1, 0x80)]);
        let busy = vec![true, true];
        assert_eq!(a.select(&ctx_with(&queue, &pool, &busy, &snap)), Some(0));
    }

    #[test]
    fn no_kv_tier_is_plain_fifo() {
        let mut a = PrefixAwareArbiter;
        let snap = MshrFile::new(1, 1);
        let (pool, queue) = pool_with(&[(3, 7, 0x40), (0, 0, 0x80)]);
        // Empty busy view (no tier attached): every tenant reads as idle.
        assert_eq!(a.select(&ctx_with(&queue, &pool, &[], &snap)), Some(0));
    }

    #[test]
    fn empty_queue_yields_none() {
        let mut a = PrefixAwareArbiter;
        let snap = MshrFile::new(1, 1);
        let pool = ReqPool::default();
        assert_eq!(a.select(&ctx_with(&[], &pool, &[], &snap)), None);
    }
}
