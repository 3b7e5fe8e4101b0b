//! MSHR-aware arbitration — policies "MA" and "BMA" (Section 4.3).
//!
//! Two observations drive the policy: (1) cache hits never stall the
//! pipeline, and (2) the MSHR lookup of an *MSHR hit* (merge) overlaps
//! DRAM latency — so hits of both kinds should be let into the cache
//! ahead of entry-allocating misses, keeping the pipeline flowing and
//! the MSHR entries working. The arbiter predicts request type using the
//! hit buffer (recent hits + fills) and the combination of the live MSHR
//! file with `sent_reqs` (Fig 5):
//!
//! 1. inferred cache hit → highest priority;
//! 2. inferred MSHR hit → second priority;
//! 3. tie-break: FIFO ("MA") or the balanced pick ("BMA").
//!
//! `select` ranks the queue in one pass, keeping the lexicographic
//! minimum of (rank, tie key, FIFO index): the tie key is the core's
//! served count for BMA and 0 for MA, so FIFO order breaks what remains.

use llamcat_sim::arb::{ArbiterCtx, RequestArbiter};
use llamcat_sim::types::Addr;

use super::hit_buffer::HitBuffer;
use super::sent_reqs::SentReqs;

/// Tie-breaking rule when speculation ranks requests equally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Default request arbitration (FIFO) — policy "MA".
    Fifo,
    /// Balanced progress-counter arbitration — policy "BMA".
    Balanced,
}

/// Configuration of the speculation hardware.
#[derive(Debug, Clone, Copy)]
pub struct MshrAwareConfig {
    /// Hit-buffer entries (each one line address).
    pub hit_buffer_entries: usize,
    /// Record DRAM fills in the hit buffer as predicted future hits
    /// (the `inform` path of Fig 4).
    pub record_fills: bool,
    /// LLC tag-pipeline latency (sent_reqs residency component).
    pub hit_latency: u64,
    /// LLC MSHR-lookup latency (sent_reqs residency component).
    pub mshr_latency: u64,
}

impl Default for MshrAwareConfig {
    fn default() -> Self {
        MshrAwareConfig {
            hit_buffer_entries: 48,
            record_fills: true,
            hit_latency: 3,
            mshr_latency: 5,
        }
    }
}

/// The MA / BMA arbiter.
#[derive(Clone)]
pub struct MshrAwareArbiter {
    cfg: MshrAwareConfig,
    tie: TieBreak,
    hit_buffer: HitBuffer,
    sent: SentReqs,
}

impl MshrAwareArbiter {
    pub fn new(cfg: MshrAwareConfig, tie: TieBreak) -> Self {
        MshrAwareArbiter {
            hit_buffer: HitBuffer::new(cfg.hit_buffer_entries),
            sent: SentReqs::new(cfg.hit_latency, cfg.mshr_latency),
            cfg,
            tie,
        }
    }

    /// Step 2 of Fig 5: speculate whether `line` is a cache hit.
    fn spec_hit(&self, line: Addr) -> bool {
        self.hit_buffer.contains(line)
    }

    /// Step 3 of Fig 5: speculate whether `line` will merge into the
    /// MSHR. True when the combined MSHR file ∪ sent_reqs view shows the
    /// line pending *and* its target list still has room (merging into a
    /// full entry stalls, which is what we are trying to avoid).
    fn spec_mshr_hit(&self, ctx: &ArbiterCtx<'_>, line: Addr) -> bool {
        if let Some(free) = ctx.mshr.free_targets(line) {
            return free > 0;
        }
        self.sent.pending_miss(line)
    }
}

impl RequestArbiter for MshrAwareArbiter {
    fn select(&mut self, ctx: &ArbiterCtx<'_>) -> Option<usize> {
        // Rank: 0 = inferred cache hit, 1 = inferred MSHR hit, 2 = rest.
        // The sentinel rank 3 loses to any request.
        let mut best = (3u8, 0u64, 0usize);
        for (i, req) in ctx.iter().enumerate() {
            let line = req.line_addr;
            let rank = if self.spec_hit(line) {
                0
            } else if best.0 == 0 {
                continue; // cannot beat a rank-0 candidate
            } else if self.spec_mshr_hit(ctx, line) {
                1
            } else {
                2
            };
            let tie = match self.tie {
                TieBreak::Fifo => 0,
                TieBreak::Balanced => ctx.served[req.core],
            };
            // Strict `<`: an equal key keeps the older request.
            if (rank, tie) < (best.0, best.1) {
                best = (rank, tie, i);
                if (rank, tie) == (0, 0) {
                    break; // no later request can beat it
                }
            }
        }
        let (rank, _, choice) = best;
        if rank == 3 {
            return None;
        }
        // Step 4 of Fig 5: the chosen request enters sent_reqs with its
        // spec_hit_result bit.
        self.sent.push(ctx.req(choice).line_addr, rank == 0);
        Some(choice)
    }

    fn note_hit(&mut self, line_addr: u64) {
        self.hit_buffer.record(line_addr);
    }

    fn note_fill(&mut self, line_addr: u64) {
        if self.cfg.record_fills {
            self.hit_buffer.record(line_addr);
        }
    }

    fn tick(&mut self) {
        self.sent.tick();
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        // The only autonomous state is sent_reqs aging, which `skip`
        // fast-forwards exactly — so skipping never needs to wake us.
        None
    }

    fn skip(&mut self, cycles: u64) {
        self.sent.skip(cycles);
    }

    fn reset(&mut self) {
        self.hit_buffer.clear();
        self.sent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamcat_sim::mshr::{MshrFile, MshrTarget};
    use llamcat_sim::pool::{ReqHandle, ReqPool};
    use llamcat_sim::types::MemReq;
    use proptest::prelude::*;

    /// Policy MA on Table 5's LLC.
    fn ma() -> MshrAwareArbiter {
        MshrAwareArbiter::new(MshrAwareConfig::default(), TieBreak::Fifo)
    }

    /// Policy BMA: MA with balanced tie-breaking.
    fn bma() -> MshrAwareArbiter {
        MshrAwareArbiter::new(MshrAwareConfig::default(), TieBreak::Balanced)
    }

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

    fn target(k: usize) -> MshrTarget {
        MshrTarget {
            req_id: k as u64,
            core: 0,
            is_write: false,
        }
    }

    fn mshr_with(lines: &[(u64, usize)], targets: usize) -> MshrFile {
        let mut f = MshrFile::new(8, targets);
        for &(line, n) in lines {
            for k in 0..n {
                f.register(line, target(k));
            }
        }
        f
    }

    fn ctx<'a>(
        queue: &'a [ReqHandle],
        pool: &'a ReqPool,
        mshr: &'a MshrFile,
        served: &'a [u64],
    ) -> ArbiterCtx<'a> {
        ArbiterCtx {
            queue,
            pool,
            mshr,
            served,
            kv_busy: &[],
            cycle: 0,
        }
    }

    /// The two-pass ranking the one-pass `select` replaced: rank every
    /// request, gather the best-ranked ones in FIFO order, then break the
    /// tie (first for MA, least-served core then FIFO for BMA). Returns
    /// the pick and its rank; `pending` answers the `sent_reqs` query.
    fn two_pass_oracle(
        a: &MshrAwareArbiter,
        ctx: &ArbiterCtx<'_>,
        pending: impl Fn(Addr) -> bool,
    ) -> Option<(usize, u8)> {
        let rank_of = |line| {
            if a.hit_buffer.contains(line) {
                0
            } else if ctx
                .mshr
                .free_targets(line)
                .map_or(pending(line), |free| free > 0)
            {
                1
            } else {
                2
            }
        };
        let ranks: Vec<u8> = ctx.iter().map(|r| rank_of(r.line_addr)).collect();
        let best = *ranks.iter().min()?;
        let mut candidates = (0..ranks.len()).filter(|&i| ranks[i] == best);
        let pick = match a.tie {
            TieBreak::Fifo => candidates.next(),
            TieBreak::Balanced => candidates.min_by_key(|&i| (ctx.served[ctx.req(i).core], i)),
        }?;
        Some((pick, best))
    }

    #[test]
    fn prefers_inferred_cache_hit() {
        let mut a = ma();
        a.note_hit(0xc0);
        let mshr = MshrFile::new(8, 8);
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80), (2, 0xc0)]);
        let served = vec![0, 0, 0];
        assert_eq!(a.select(&ctx(&queue, &pool, &mshr, &served)), Some(2));
    }

    #[test]
    fn prefers_mshr_hit_over_plain_miss() {
        let mut a = ma();
        let mshr = mshr_with(&[(0x80, 1)], 8);
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80)]);
        let served = vec![0, 0];
        assert_eq!(a.select(&ctx(&queue, &pool, &mshr, &served)), Some(1));
    }

    #[test]
    fn full_target_entry_not_preferred() {
        let mut a = ma();
        // Entry with all 4 targets used: merging would stall.
        let mshr = mshr_with(&[(0x80, 4)], 4);
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80)]);
        let served = vec![0, 0];
        assert_eq!(
            a.select(&ctx(&queue, &pool, &mshr, &served)),
            Some(0),
            "FIFO among plain requests when merge would stall"
        );
    }

    #[test]
    fn sent_reqs_predicts_mshr_hit_before_snapshot_updates() {
        let mut a = ma();
        let mshr = MshrFile::new(8, 8);
        let served = vec![0, 0];
        // First selection: plain miss to 0x40 goes into sent_reqs.
        let (pool, queue) = pool_with(&[(0, 0x40)]);
        assert_eq!(a.select(&ctx(&queue, &pool, &mshr, &served)), Some(0));
        a.tick();
        // Next cycle: another request to 0x40 is predicted to merge
        // even though the MSHR file is still empty.
        let (pool, queue) = pool_with(&[(1, 0x80), (0, 0x40)]);
        assert_eq!(
            a.select(&ctx(&queue, &pool, &mshr, &served)),
            Some(1 /* 0x40 */)
        );
    }

    #[test]
    fn spec_hit_masks_sent_reqs() {
        let mut a = ma();
        a.note_hit(0x40);
        let mshr = MshrFile::new(8, 8);
        let served = vec![0, 0];
        // 0x40 chosen as a speculated hit: it must NOT count as a pending
        // miss afterwards.
        let (pool, queue) = pool_with(&[(0, 0x40)]);
        assert_eq!(a.select(&ctx(&queue, &pool, &mshr, &served)), Some(0));
        assert!(!a.sent.pending_miss(0x40));
        a.tick();
        // A plain miss to 0x80 vs a second 0x40 (still predicted hit via
        // the hit buffer): 0x40 wins by rank 0, not by pending-miss.
        let (pool, queue) = pool_with(&[(1, 0x80), (0, 0x40)]);
        assert_eq!(a.select(&ctx(&queue, &pool, &mshr, &served)), Some(1));
    }

    #[test]
    fn bma_tie_breaks_by_progress() {
        let mut a = bma();
        let mshr = MshrFile::new(8, 8);
        // No speculation info: all requests tie at rank 2.
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80), (2, 0xc0)]);
        let served = vec![9, 1, 5];
        assert_eq!(a.select(&ctx(&queue, &pool, &mshr, &served)), Some(1));
    }

    #[test]
    fn ma_tie_breaks_fifo() {
        let mut a = ma();
        let mshr = MshrFile::new(8, 8);
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80)]);
        let served = vec![9, 1];
        assert_eq!(a.select(&ctx(&queue, &pool, &mshr, &served)), Some(0));
    }

    #[test]
    fn sent_reqs_ages_out() {
        let mut a = ma();
        let mshr = MshrFile::new(8, 8);
        let served = vec![0, 0];
        let (pool, queue) = pool_with(&[(0, 0x40)]);
        a.select(&ctx(&queue, &pool, &mshr, &served));
        for _ in 0..8 {
            a.tick();
        }
        // After hit+mshr latency the prediction expires; 0x40 no longer
        // preferred.
        let (pool, queue) = pool_with(&[(1, 0x80), (0, 0x40)]);
        assert_eq!(a.select(&ctx(&queue, &pool, &mshr, &served)), Some(0));
    }

    #[test]
    fn built_arbiters_speculate_over_their_llc_pipeline() {
        use crate::arbiter::ArbiterKind;
        use crate::spec::ArbSpec;
        let mut l2 = llamcat_sim::config::SystemConfig::table5().l2;
        l2.hit_latency = 6;
        let residency = 6 + l2.mshr_latency;
        for spec in [ArbSpec::MshrAware, ArbSpec::BalancedMshrAware] {
            let ArbiterKind::MshrAware(mut a) = spec.build_kind_for(&l2) else {
                panic!("{spec:?} builds an MSHR-aware arbiter");
            };
            let mshr = MshrFile::new(8, 8);
            let (pool, queue) = pool_with(&[(0, 0x40)]);
            assert_eq!(a.select(&ctx(&queue, &pool, &mshr, &[0])), Some(0));
            for _ in 1..residency {
                a.tick();
                assert!(
                    a.sent.pending_miss(0x40),
                    "visible within {residency} cycles"
                );
            }
            a.tick();
            assert!(
                !a.sent.pending_miss(0x40),
                "retired after {residency} cycles"
            );
        }
    }

    #[test]
    fn sent_entry_visible_for_residency_minus_one_cycles_and_skip_is_ticks() {
        for (hit, mshr) in [(3, 5), (0, 1), (1, 0), (2, 2)] {
            let residency = hit + mshr;
            let mut s = SentReqs::new(hit, mshr);
            s.push(0x40, false);
            for _ in 1..residency {
                s.tick();
                assert!(s.pending_miss(0x40), "visible within {residency} cycles");
            }
            s.tick();
            assert!(!s.pending_miss(0x40), "retired after {residency} cycles");
            // skip(k) leaves exactly the state of k ticks, from a ring
            // holding a mix of misses, hits and idle cycles.
            for k in 0..3 * residency {
                let mut ticked = SentReqs::new(hit, mshr);
                for c in 0..residency {
                    if c % 3 != 2 {
                        ticked.push(0x40 * (c + 1), c % 3 == 1);
                    }
                    ticked.tick();
                }
                let mut skipped = ticked.clone();
                (0..k).for_each(|_| ticked.tick());
                skipped.skip(k);
                assert_eq!(skipped, ticked, "skip({k}) at residency {residency}");
            }
        }
    }

    // The one-pass `select` picks what the two-pass oracle picks, and the
    // `sent_reqs` ring answers what the FIFO it replaced (a list of
    // (line, spec_hit, cycles left) entries) would, over random queues,
    // served counters, MSHR files, hit-buffer histories and
    // select/tick/skip sequences.
    proptest! {
        #[test]
        fn one_pass_select_matches_two_pass_oracle(
            latencies in (0u64..4, 1u64..6, 1usize..6, 0u8..2),
            served in proptest::collection::vec(0u64..3, 4),
            mshr_shape in (1usize..5, 1usize..4),
            ops in proptest::collection::vec(
                (0u8..6, 0u64..12, proptest::collection::vec((0usize..4, 0u64..12), 0..7)),
                1..120,
            ),
        ) {
            let (hit_latency, mshr_latency, entries, balanced) = latencies;
            let cfg = MshrAwareConfig { hit_buffer_entries: entries, record_fills: true, hit_latency, mshr_latency };
            let tie = if balanced == 1 { TieBreak::Balanced } else { TieBreak::Fifo };
            let mut a = MshrAwareArbiter::new(cfg, tie);
            let mut mshr = MshrFile::new(mshr_shape.0, mshr_shape.1);
            let mut served = served;
            let mut fifo: Vec<(Addr, bool, u64)> = Vec::new();
            for (kind, x, queue) in ops {
                let line = x * 0x40;
                match kind {
                    0 => a.note_hit(line),
                    1 => a.note_fill(line),
                    2 => { mshr.register(line, target(0)); }
                    3 => { mshr.complete(line); }
                    4 => {
                        let (pool, q) = pool_with(&queue.iter().map(|&(c, l)| (c, l * 0x40)).collect::<Vec<_>>());
                        let c = ctx(&q, &pool, &mshr, &served);
                        let want = two_pass_oracle(&a, &c, |l| fifo.iter().any(|e| e.0 == l && !e.1));
                        let got = a.select(&c);
                        prop_assert_eq!(got, want.map(|w| w.0));
                        if let Some((i, rank)) = want {
                            fifo.push((queue[i].1 * 0x40, rank == 0, hit_latency + mshr_latency));
                            served[queue[i].0] += 1;
                        }
                        a.tick();
                        fifo.iter_mut().for_each(|e| e.2 -= 1);
                    }
                    _ => {
                        a.skip(x);
                        fifo.iter_mut().for_each(|e| e.2 = e.2.saturating_sub(x));
                    }
                }
                fifo.retain(|e| e.2 > 0);
                for l in (0..12).map(|x| x * 0x40) {
                    prop_assert_eq!(a.sent.pending_miss(l), fifo.iter().any(|e| e.0 == l && !e.1));
                }
            }
        }
    }

    #[test]
    fn reset_clears_speculation() {
        let mut a = bma();
        a.note_hit(0x40);
        a.reset();
        let mshr = MshrFile::new(8, 8);
        let (pool, queue) = pool_with(&[(1, 0x80), (0, 0x40)]);
        let served = vec![0, 0];
        assert_eq!(
            a.select(&ctx(&queue, &pool, &mshr, &served)),
            Some(0),
            "FIFO"
        );
    }
}
