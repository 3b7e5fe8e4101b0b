//! Balanced arbitration — policy "B" (Section 4.1).
//!
//! Default arbiters serve first-come-first-served; a core whose requests
//! happen to arrive early can monopolize the slice's limited MSHR
//! entries and starve its peers. Policy B tracks per-core progress
//! counters (requests served since operator start, the `cnt` registers
//! of Fig 4) and always picks the queued request whose requester has the
//! *smallest* counter value, FIFO among ties.

use llamcat_sim::arb::{ArbiterCtx, RequestArbiter};

/// Policy B: serve cores on an equivalent basis.
#[derive(Debug, Default, Clone)]
pub struct BalancedArbiter;

impl RequestArbiter for BalancedArbiter {
    fn select(&mut self, ctx: &ArbiterCtx<'_>) -> Option<usize> {
        // Least-served core first, FIFO (queue position) among ties.
        (0..ctx.len()).min_by_key(|&i| (ctx.served[ctx.req(i).core], i))
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

    fn ctx_with<'a>(
        queue: &'a [ReqHandle],
        pool: &'a ReqPool,
        served: &'a [u64],
        snap: &'a MshrFile,
    ) -> ArbiterCtx<'a> {
        ArbiterCtx {
            queue,
            pool,
            mshr: snap,
            served,
            kv_busy: &[],
            cycle: 0,
        }
    }

    #[test]
    fn picks_least_served_core() {
        let mut b = BalancedArbiter;
        let snap = MshrFile::new(1, 1);
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80), (2, 0xc0)]);
        let served = vec![10, 2, 5];
        assert_eq!(b.select(&ctx_with(&queue, &pool, &served, &snap)), Some(1));
    }

    #[test]
    fn fifo_among_ties() {
        let mut b = BalancedArbiter;
        let snap = MshrFile::new(1, 1);
        let (pool, queue) = pool_with(&[(2, 0x40), (1, 0x80), (1, 0xc0)]);
        let served = vec![0, 3, 3];
        // served[2]=3 for entry 0, served[1]=3 for entries 1 and 2.
        // All tie; FIFO wins.
        assert_eq!(b.select(&ctx_with(&queue, &pool, &served, &snap)), Some(0));
    }

    #[test]
    fn empty_queue_yields_none() {
        let mut b = BalancedArbiter;
        let snap = MshrFile::new(1, 1);
        let pool = ReqPool::default();
        assert_eq!(b.select(&ctx_with(&[], &pool, &[0, 0], &snap)), None);
    }
}
