//! Multi-tenant serving mixes: N co-scheduled requests in one trace.
//!
//! Real serving never runs one operator in isolation: a machine holds
//! many requests at once — mixed prefill and decode, heterogeneous
//! sequence lengths, staggered arrivals — and the shared LLC is exactly
//! where they interfere. A [`WorkloadMix`] composes N requests (each any
//! [`Workload`] plus an optional arrival cycle) into a single
//! [`Program`] in which every thread block is tagged with its request
//! id, so the simulator can attribute completion and LLC behavior per
//! request (`SimStats::requests`).
//!
//! Two deterministic composition disciplines:
//!
//! * [`MixAssignment::Partitioned`] — the cores are split into N
//!   contiguous groups, one per request (earlier requests get the
//!   larger shares when the division is uneven). Requests interfere
//!   *only* through the shared LLC, MSHRs, NoC and DRAM — the spatial
//!   isolation discipline. A single-request partitioned mix is
//!   bit-identical to the solo trace.
//! * [`MixAssignment::Interleaved`] — every request is laid out over
//!   all cores and blocks are interleaved round-robin by request, so
//!   requests additionally contend for cores, instruction windows and
//!   L1s — the time-sharing discipline.
//!
//! Tenants live in disjoint address spaces: request `r`'s blocks run
//! at relocation base `r * REQUEST_VA_STRIDE`, so no KV-cache line is
//! ever (falsely) shared across requests. The one deliberate exception
//! is the shared-prefix KV window (see
//! [`SharedPrefixWorkload`](crate::workloads::SharedPrefixWorkload)):
//! addresses at/above `SHARED_KV_BASE` are left unrelocated, so every
//! tenant reading a common system prompt hits the *same* lines. The
//! rule is [`relocate`](llamcat_sim::prog::relocate), applied by the
//! cores at issue, not here: composition builds each distinct block
//! (same workload instance, tile and `(h, g, l-tile)`) once into the
//! program's arena, and every later tenant aliases it at its own base.
//! Tenants that share one `Arc<dyn Workload>` therefore cost one
//! tenant's instructions, however many requests there are.
//!
//! A [`WorkloadMix`] is the *closed-system* composition: the request
//! set and every arrival cycle are baked into the [`Program`] before
//! the run starts. Open-system serving — requests drawn from a seeded
//! [`ArrivalSpec`](crate::arrivals::ArrivalSpec) and injected mid-run
//! by a serving scheduler — instead composes its per-request traces
//! with [`generate_serve_set`], which leaves the program arrival-free
//! and home cores *relative* so the simulator's request injector can
//! place each admitted request at admission time.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use llamcat_sim::kv::SHARED_KV_BASE;
use llamcat_sim::prog::{Instr, Program, RequestId};
use llamcat_sim::types::{Addr, Cycle};
use serde::{Deserialize, Serialize};

use crate::mapping::Layout;
use crate::tracegen::{Lowering, TraceGenConfig, TraceMeta};
use crate::workloads::{plan, Workload};

/// Virtual-address stride between tenants. Larger than every tensor
/// base the workloads use (the attention-output partials top out just
/// above `OUT_BASE` = 2^39), so tenant address spaces never overlap.
pub const REQUEST_VA_STRIDE: Addr = 1 << 40;

/// How a mix's thread blocks are laid over the machine's cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MixAssignment {
    /// Deterministic core partitioning: request `r` owns a contiguous
    /// group of cores; interference is confined to the shared memory
    /// system.
    #[default]
    Partitioned,
    /// Interleaved block assignment: every request spans all cores,
    /// blocks alternate round-robin by request in trace order.
    Interleaved,
}

impl MixAssignment {
    /// Stable name (labels, JSONL).
    pub fn label(&self) -> &'static str {
        match self {
            MixAssignment::Partitioned => "part",
            MixAssignment::Interleaved => "ilv",
        }
    }
}

/// One co-scheduled request of a mix.
#[derive(Debug, Clone)]
pub struct MixedRequest {
    /// The request's operator (sequence length baked into the shape).
    pub workload: Arc<dyn Workload>,
    /// Cycle at which the request arrives; its thread blocks are not
    /// schedulable before this.
    pub arrival: Cycle,
    /// Serving priority class (higher = more urgent; 0 = best-effort).
    /// Trace generation ignores it — only class-aware admission
    /// policies (`PriorityPreempt`) act on it.
    pub class: u8,
}

/// Per-request and aggregate metadata of a generated mix trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixMeta {
    /// One [`TraceMeta`] per request, in request order.
    pub per_request: Vec<TraceMeta>,
    pub num_blocks: usize,
    pub total_load_bytes: u64,
    pub total_store_bytes: u64,
    pub max_block_instrs: usize,
}

impl MixMeta {
    /// Totals over the per-request metadata.
    fn fold(per_request: Vec<TraceMeta>) -> Self {
        MixMeta {
            num_blocks: per_request.iter().map(|m| m.num_blocks).sum(),
            total_load_bytes: per_request.iter().map(|m| m.total_load_bytes).sum(),
            total_store_bytes: per_request.iter().map(|m| m.total_store_bytes).sum(),
            max_block_instrs: per_request
                .iter()
                .map(|m| m.max_block_instrs)
                .max()
                .unwrap_or(0),
            per_request,
        }
    }
}

/// N requests composed into one multi-tenant trace.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    pub requests: Vec<MixedRequest>,
    pub assignment: MixAssignment,
}

impl WorkloadMix {
    /// An empty mix with the given core-assignment discipline.
    pub fn new(assignment: MixAssignment) -> Self {
        WorkloadMix {
            requests: Vec::new(),
            assignment,
        }
    }

    /// A single-request mix (reproduces the solo trace bit-for-bit
    /// under [`MixAssignment::Partitioned`]).
    pub fn solo(workload: Arc<dyn Workload>) -> Self {
        WorkloadMix::new(MixAssignment::Partitioned).request(workload, 0)
    }

    /// Adds a best-effort (class 0) request arriving at `arrival`.
    pub fn request(self, workload: Arc<dyn Workload>, arrival: Cycle) -> Self {
        self.classed_request(workload, arrival, 0)
    }

    /// Adds a request arriving at `arrival` with a priority class.
    pub fn classed_request(
        mut self,
        workload: Arc<dyn Workload>,
        arrival: Cycle,
        class: u8,
    ) -> Self {
        self.requests.push(MixedRequest {
            workload,
            arrival,
            class,
        });
        self
    }

    /// Stable label: the requests' labels and sequence lengths joined,
    /// prefixed with the assignment discipline for multi-tenant mixes.
    pub fn label(&self) -> String {
        let parts: Vec<String> = self
            .requests
            .iter()
            .map(|r| {
                let mut s = format!("{}/L{}", r.workload.label(), r.workload.shape().seq_len);
                if r.arrival > 0 {
                    s.push_str(&format!("@{}", r.arrival));
                }
                if r.class > 0 {
                    s.push_str(&format!("#c{}", r.class));
                }
                s
            })
            .collect();
        format!("mix:{}[{}]", self.assignment.label(), parts.join(" + "))
    }

    /// Rejects degenerate mixes: no requests, or any request with an
    /// invalid shape (zero sequence length included).
    pub fn validate(&self) -> Result<(), String> {
        if self.requests.is_empty() {
            return Err("mix has no requests".into());
        }
        for (r, req) in self.requests.iter().enumerate() {
            req.workload
                .validate()
                .map_err(|e| format!("mix request {r} ({}): {e}", req.workload.label()))?;
        }
        Ok(())
    }

    /// The contiguous core shares of a partitioned mix over `num_cores`
    /// cores: `(start, count)` per request, earlier requests taking the
    /// larger shares when the division is uneven.
    pub fn partition(&self, num_cores: usize) -> Result<Vec<(usize, usize)>, String> {
        let n = self.requests.len();
        if num_cores < n {
            return Err(format!(
                "partitioned mix of {n} requests needs at least {n} cores, machine has {num_cores}"
            ));
        }
        let base = num_cores / n;
        let extra = num_cores % n;
        let mut shares = Vec::with_capacity(n);
        let mut start = 0;
        for r in 0..n {
            let count = base + usize::from(r < extra);
            shares.push((start, count));
            start += count;
        }
        Ok(shares)
    }

    /// Lowers the mix to one request-tagged [`Program`].
    ///
    /// Every request is planned through the ordinary [`Workload`]
    /// machinery (same `layout`, same `l_tile`), tagged, given its own
    /// address space as a relocation base, and composed per the
    /// assignment discipline; requests sharing a workload instance share
    /// its blocks. Deterministic: same mix, same program.
    pub fn generate(
        &self,
        layout: Layout,
        l_tile: usize,
        cfg: &TraceGenConfig,
    ) -> Result<(Program, MixMeta), String> {
        self.validate()?;
        let shares: Vec<(usize, usize)> = match self.assignment {
            MixAssignment::Partitioned => self.partition(cfg.num_cores)?,
            MixAssignment::Interleaved => vec![(0, cfg.num_cores); self.requests.len()],
        };
        let mut tenants = Vec::with_capacity(self.requests.len());
        for (r, (req, &(start, count))) in self.requests.iter().zip(&shares).enumerate() {
            let mut tenant = plan(req.workload.as_ref(), layout, l_tile, cfg, count)
                .map_err(|e| format!("mix request {r}: {e}"))?;
            for [core, ..] in &mut tenant.blocks {
                *core += start;
            }
            tenants.push(tenant);
        }
        let interleaved = self.assignment == MixAssignment::Interleaved;
        let (mut program, metas) = compose(&tenants, interleaved);
        program.arrivals = (program.request_tags.iter())
            .map(|&r| self.requests[r as usize].arrival)
            .collect();
        Ok((program, MixMeta::fold(metas)))
    }
}

/// Composes `requests` into one *open-system* serve set: every
/// request's trace is generated on the relative core range
/// `0..cores_per_request`, given its own address space as a relocation
/// base and request-tagged (requests sharing a workload instance share
/// its blocks) — but the program carries **no arrivals** and the
/// home cores stay relative. The simulator's request injector decides
/// *when* each request's blocks become schedulable and *which*
/// absolute cores they land on (FCFS and concurrency caps keep the
/// relative range at core 0; continuous batching offsets it to the
/// admitting slot's core group).
///
/// Deterministic: same inputs, same program. Blocks are request-major,
/// so a request's blocks are contiguous in `TbId` order.
pub fn generate_serve_set(
    requests: &[Arc<dyn Workload>],
    cores_per_request: usize,
    layout: Layout,
    l_tile: usize,
    cfg: &TraceGenConfig,
) -> Result<(Program, MixMeta), String> {
    if requests.is_empty() {
        return Err("serve set has no requests".into());
    }
    if cores_per_request == 0 {
        return Err("serve set needs at least one core per request".into());
    }
    let mut tenants = Vec::with_capacity(requests.len());
    for (r, req) in requests.iter().enumerate() {
        req.validate()
            .map_err(|e| format!("serve request {r} ({}): {e}", req.label()))?;
        let tenant = plan(req.as_ref(), layout, l_tile, cfg, cores_per_request)
            .map_err(|e| format!("serve request {r}: {e}"))?;
        if tenant.blocks.is_empty() {
            return Err(format!("serve request {r}: trace has no thread blocks"));
        }
        tenants.push(tenant);
    }
    let (program, metas) = compose(&tenants, false);
    Ok((program, MixMeta::fold(metas)))
}

/// Composes the tenants into one request-tagged program: request-major,
/// or round-robin by request when `interleaved` (per-core queues then
/// alternate tenants). Tenant `r` is tagged `r` and runs at relocation
/// base `r * REQUEST_VA_STRIDE`.
///
/// Each distinct block (same workload instance, tile and
/// `(h, g, l-tile)`, see [`Lowering::template_key`]) is built once,
/// straight into the arena, which is sized up front for the distinct
/// tenants; every later tenant's copy of it is an alias at its own base.
/// Returns each tenant's summary too.
fn compose(tenants: &[Lowering<dyn Workload>], interleaved: bool) -> (Program, Vec<TraceMeta>) {
    let blocks = tenants.iter().map(|t| t.blocks.len()).sum();
    let mut instances = HashSet::new();
    let instrs = (tenants.iter())
        .filter(|t| instances.insert(t.instance()))
        .map(Lowering::instrs_estimate)
        .sum();
    let mut program = Program::with_capacity(blocks, instrs);
    program.request_tags.reserve_exact(blocks);
    let mut templates = HashMap::new();
    let mut metas = vec![TraceMeta::default(); tenants.len()];
    let rounds = tenants.iter().map(|t| t.blocks.len()).max().unwrap_or(0);
    let order: Box<dyn Iterator<Item = (usize, usize)>> = match interleaved {
        true => Box::new((0..rounds).flat_map(|i| (0..tenants.len()).map(move |r| (r, i)))),
        false => Box::new((0..tenants.len()).flat_map(|r| (0..rounds).map(move |i| (r, i)))),
    };
    for (r, i) in order.filter(|&(r, i)| i < tenants[r].blocks.len()) {
        let tenant = &tenants[r];
        let template = *templates.entry(tenant.template_key(i)).or_insert_with(|| {
            program.template(|arena| {
                let first = arena.len();
                tenant.build(i, arena);
                debug_assert!(
                    arena[first..].iter().all(private_within_stride),
                    "solo trace address exceeds the tenant VA stride"
                );
            })
        });
        let tb = program.num_blocks();
        program.push_relocated(tenant.blocks[i][0], template, r as Addr * REQUEST_VA_STRIDE);
        metas[r].add(program.block(tb));
        program.request_tags.push(r as RequestId);
    }
    program.shrink_to_fit();
    (program, metas)
}

/// Whether `instr` leaves relocation inside its tenant's address space:
/// private addresses stay below [`REQUEST_VA_STRIDE`]; shared-prefix
/// lines (at/above [`SHARED_KV_BASE`]) are not relocated at all.
fn private_within_stride(instr: &Instr) -> bool {
    match *instr {
        Instr::Load { addr, .. } | Instr::Store { addr, .. } => {
            !(REQUEST_VA_STRIDE..SHARED_KV_BASE).contains(&addr)
        }
        Instr::Compute { .. } | Instr::Barrier => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::LogitOp;
    use crate::workloads::{LogitWorkload, PrefillLogitWorkload, SharedPrefixWorkload};

    fn decode(seq_len: usize) -> Arc<dyn Workload> {
        Arc::new(LogitWorkload::new(LogitOp {
            heads: 2,
            group_size: 4,
            seq_len,
            head_dim: 128,
        }))
    }

    fn prefill(seq_len: usize) -> Arc<dyn Workload> {
        Arc::new(PrefillLogitWorkload::new(
            LogitOp {
                heads: 2,
                group_size: 2,
                seq_len,
                head_dim: 128,
            },
            4,
        ))
    }

    fn cfg() -> TraceGenConfig {
        TraceGenConfig::default()
    }

    #[test]
    fn solo_partitioned_mix_reproduces_solo_trace() {
        let w = decode(128);
        let mix = WorkloadMix::solo(w.clone());
        let (p_mix, meta) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        let mapping = w.mapping(Layout::PairStream, 32, cfg().num_cores);
        let (p_solo, solo_meta) = w.generate(&mapping, &cfg());
        assert!(
            p_mix.blocks().eq(p_solo.blocks()),
            "blocks must be bit-identical"
        );
        assert_eq!(p_mix.assignment, p_solo.assignment);
        assert_eq!(p_mix.num_requests(), 1);
        assert_eq!(meta.per_request, vec![solo_meta]);
    }

    #[test]
    fn partitioned_requests_occupy_disjoint_cores_and_addresses() {
        let mix = WorkloadMix::new(MixAssignment::Partitioned)
            .request(decode(128), 0)
            .request(prefill(128), 0);
        let (p, meta) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        assert_eq!(p.num_requests(), 2);
        assert_eq!(meta.per_request.len(), 2);
        let mut cores: Vec<HashSet<usize>> = vec![HashSet::new(), HashSet::new()];
        let mut lines: Vec<HashSet<u64>> = vec![HashSet::new(), HashSet::new()];
        for tb in 0..p.num_blocks() {
            let r = p.request_of(tb) as usize;
            cores[r].insert(p.assignment[tb]);
            for i in p.block(tb) {
                if let Instr::Load { addr, .. } | Instr::Store { addr, .. } = &i {
                    lines[r].insert(addr / 64);
                    assert_eq!(
                        (addr / REQUEST_VA_STRIDE) as usize,
                        r,
                        "address outside the tenant's VA window"
                    );
                }
            }
        }
        assert!(
            cores[0].is_disjoint(&cores[1]),
            "core shares must not overlap"
        );
        // Request 0 owns cores [0, 8), request 1 owns [8, 16); each uses
        // min(pairs, share) of its cores.
        assert!(cores[0].iter().all(|&c| c < 8));
        assert!(cores[1].iter().all(|&c| (8..16).contains(&c)));
        assert!(lines[0].is_disjoint(&lines[1]));
    }

    #[test]
    fn uneven_partition_favors_earlier_requests() {
        let mix = WorkloadMix::new(MixAssignment::Partitioned)
            .request(decode(128), 0)
            .request(decode(128), 0)
            .request(decode(128), 0);
        // 16 cores over 3 requests: 6 + 5 + 5.
        assert_eq!(mix.partition(16).unwrap(), vec![(0, 6), (6, 5), (11, 5)]);
        assert!(mix.partition(2).is_err(), "more requests than cores");
    }

    #[test]
    fn interleaved_alternates_requests_in_block_order() {
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(decode(128), 0)
            .request(decode(128), 0);
        let (p, _) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        // Both requests have the same block count: tags strictly
        // alternate 0, 1, 0, 1, ...
        for tb in 0..p.num_blocks() {
            assert_eq!(p.request_of(tb), (tb % 2) as u32);
        }
        // Both requests share the same (full-machine) core layout: the
        // decode shape has 8 (h, g) pairs, so both land on cores 0..8.
        let cores_of = |r: u32| -> HashSet<usize> {
            (0..p.num_blocks())
                .filter(|&tb| p.request_of(tb) == r)
                .map(|tb| p.assignment[tb])
                .collect()
        };
        assert_eq!(cores_of(0).len(), 8);
        assert_eq!(
            cores_of(0),
            cores_of(1),
            "interleaved tenants contend for cores"
        );
    }

    #[test]
    fn arrivals_tag_every_block_of_the_request() {
        let mix = WorkloadMix::new(MixAssignment::Partitioned)
            .request(decode(128), 0)
            .request(decode(128), 5_000);
        let (p, _) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        for tb in 0..p.num_blocks() {
            let expect = if p.request_of(tb) == 0 { 0 } else { 5_000 };
            assert_eq!(p.arrival_of(tb), expect);
        }
        assert_eq!(p.request_arrivals(), vec![0, 5_000]);
    }

    #[test]
    fn labels_are_stable_and_carry_arrivals() {
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(decode(128), 0)
            .request(prefill(256), 1_000);
        assert_eq!(
            mix.label(),
            "mix:ilv[logit h2 g4 d128/L128 + prefill h2 g2 d128 q4/L256@1000]"
        );
    }

    #[test]
    fn degenerate_mixes_are_rejected() {
        assert!(WorkloadMix::new(MixAssignment::Partitioned)
            .validate()
            .is_err());
        let zero_seq = WorkloadMix::solo(decode(0));
        assert!(
            zero_seq.validate().is_err(),
            "zero seq_len must be rejected"
        );
        let bad_tile = WorkloadMix::solo(decode(128));
        assert!(bad_tile.generate(Layout::PairStream, 48, &cfg()).is_err());
    }

    #[test]
    fn serve_set_is_relative_arrival_free_and_request_major() {
        let (p, meta) = generate_serve_set(
            &[decode(128), prefill(128)],
            4,
            Layout::PairStream,
            32,
            &cfg(),
        )
        .unwrap();
        assert_eq!(p.num_requests(), 2);
        assert!(p.arrivals.is_empty(), "serve programs carry no arrivals");
        assert_eq!(meta.per_request.len(), 2);
        assert_eq!(meta.num_blocks, p.num_blocks());
        // Home cores are relative to the request's slot.
        assert!(p.assignment.iter().all(|&c| c < 4));
        // Request-major: tags are nondecreasing.
        let tags: Vec<u32> = (0..p.num_blocks()).map(|tb| p.request_of(tb)).collect();
        assert!(tags.windows(2).all(|w| w[0] <= w[1]));
        // Disjoint tenant address spaces, as for closed mixes.
        for tb in 0..p.num_blocks() {
            for i in p.block(tb) {
                if let Instr::Load { addr, .. } | Instr::Store { addr, .. } = &i {
                    assert_eq!((addr / REQUEST_VA_STRIDE) as u32, p.request_of(tb));
                }
            }
        }
        assert!(
            generate_serve_set(&[], 4, Layout::PairStream, 32, &cfg()).is_err(),
            "empty serve set must be rejected"
        );
        assert!(
            generate_serve_set(&[decode(128)], 0, Layout::PairStream, 32, &cfg()).is_err(),
            "zero-core slots must be rejected"
        );
    }

    #[test]
    fn shared_prefix_lines_survive_relocation_across_tenants() {
        use crate::workloads::SharedPrefixWorkload;
        use llamcat_sim::kv::SHARED_KV_BASE;
        let shared = || -> Arc<dyn Workload> {
            Arc::new(SharedPrefixWorkload::new(
                LogitOp {
                    heads: 2,
                    group_size: 4,
                    seq_len: 128,
                    head_dim: 128,
                },
                64,
            ))
        };
        let mix = WorkloadMix::new(MixAssignment::Partitioned)
            .request(shared(), 0)
            .request(shared(), 0);
        let (p, _) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        let mut shared_lines: Vec<HashSet<u64>> = vec![HashSet::new(), HashSet::new()];
        for tb in 0..p.num_blocks() {
            let r = p.request_of(tb) as usize;
            for i in p.block(tb) {
                if let Instr::Load { addr, .. } | Instr::Store { addr, .. } = &i {
                    if *addr >= SHARED_KV_BASE {
                        shared_lines[r].insert(addr / 64);
                    } else {
                        assert_eq!(
                            (addr / REQUEST_VA_STRIDE) as usize,
                            r,
                            "private address outside the tenant's VA window"
                        );
                    }
                }
            }
        }
        assert!(!shared_lines[0].is_empty(), "the prefix reached the trace");
        assert_eq!(
            shared_lines[0], shared_lines[1],
            "both tenants read the same shared-prefix lines"
        );
    }

    #[test]
    fn composed_traces_are_pinned() {
        use crate::format::program_fnv1a;
        use crate::workloads::SharedPrefixWorkload;
        let shared: Arc<dyn Workload> = Arc::new(SharedPrefixWorkload::new(
            LogitOp {
                heads: 2,
                group_size: 4,
                seq_len: 128,
                head_dim: 128,
            },
            64,
        ));
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(decode(128), 0)
            .request(shared.clone(), 3_000);
        let (p, _) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        assert_eq!(
            program_fnv1a(&p),
            12279896976348316285,
            "interleaved mix trace changed"
        );
        let (p, _) = generate_serve_set(
            &[decode(128), prefill(128), shared],
            4,
            Layout::Spatial,
            32,
            &cfg(),
        )
        .unwrap();
        assert_eq!(
            program_fnv1a(&p),
            14898795481515292273,
            "serve-set trace changed"
        );
    }

    #[test]
    fn mix_meta_sums_per_request_traffic() {
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(decode(128), 0)
            .request(prefill(128), 0);
        let (p, meta) = mix.generate(Layout::PairStream, 32, &cfg()).unwrap();
        assert_eq!(meta.num_blocks, p.num_blocks());
        assert_eq!(
            meta.total_load_bytes,
            meta.per_request
                .iter()
                .map(|m| m.total_load_bytes)
                .sum::<u64>()
        );
        let whole = TraceMeta::of(p.blocks());
        assert_eq!(meta.total_load_bytes, whole.total_load_bytes);
        assert_eq!(meta.total_store_bytes, whole.total_store_bytes);
    }

    fn shared_prefix(seq_len: usize) -> Arc<dyn Workload> {
        Arc::new(SharedPrefixWorkload::new(
            LogitOp {
                heads: 2,
                group_size: 2,
                seq_len,
                head_dim: 128,
            },
            seq_len / 2,
        ))
    }

    /// Relocation as composition applied it before blocks shared
    /// templates: each tenant's own copy, shifted in place.
    fn relocate_copy(instrs: &mut [Instr], offset: Addr) {
        for instr in instrs {
            if let Instr::Load { addr, .. } | Instr::Store { addr, .. } = instr {
                if *addr < SHARED_KV_BASE {
                    assert!(*addr < REQUEST_VA_STRIDE);
                    *addr += offset;
                }
            }
        }
    }

    /// A composed trace spelled out: every block's instructions, home
    /// core, request tag and arrival.
    struct Expanded {
        blocks: Vec<Vec<Instr>>,
        assignment: Vec<usize>,
        tags: Vec<RequestId>,
        arrivals: Vec<Cycle>,
        meta: MixMeta,
    }

    /// The oracle: every tenant lowered on its own core share as a solo
    /// trace, its blocks copied and relocated into its address space,
    /// then composed request-major or round-robin by request. `None` if
    /// some tenant has no legal mapping.
    fn oracle(
        tenants: &[(Arc<dyn Workload>, Cycle)],
        shares: &[(usize, usize)],
        interleaved: bool,
        layout: Layout,
    ) -> Option<Expanded> {
        let mut solos = Vec::new();
        for ((w, _), &(start, count)) in tenants.iter().zip(shares) {
            let cfg = TraceGenConfig {
                num_cores: count,
                ..cfg()
            };
            let (p, meta) = w.lower(layout, 32, &cfg).ok()?;
            let blocks: Vec<(usize, Vec<Instr>)> = (p.blocks().zip(&p.assignment))
                .map(|(b, &core)| (core + start, b.to_vec()))
                .collect();
            solos.push((blocks, meta));
        }
        let rounds = solos.iter().map(|(b, _)| b.len()).max().unwrap_or(0);
        let order: Vec<(usize, usize)> = match interleaved {
            true => (0..rounds)
                .flat_map(|i| (0..solos.len()).map(move |r| (r, i)))
                .collect(),
            false => (0..solos.len())
                .flat_map(|r| (0..rounds).map(move |i| (r, i)))
                .collect(),
        };
        let mut out = Expanded {
            blocks: Vec::new(),
            assignment: Vec::new(),
            tags: Vec::new(),
            arrivals: Vec::new(),
            meta: MixMeta::fold(solos.iter().map(|(_, m)| *m).collect()),
        };
        for (r, i) in order.into_iter().filter(|&(r, i)| i < solos[r].0.len()) {
            let (core, mut block) = solos[r].0[i].clone();
            relocate_copy(&mut block, r as Addr * REQUEST_VA_STRIDE);
            out.blocks.push(block);
            out.assignment.push(core);
            out.tags.push(r as RequestId);
            out.arrivals.push(tenants[r].1);
        }
        Some(out)
    }

    /// Asserts `p` and `meta` are the oracle's trace, block by block.
    fn assert_expands_to(p: &Program, meta: &MixMeta, want: &Expanded) {
        assert_eq!(p.num_blocks(), want.blocks.len());
        for (tb, block) in want.blocks.iter().enumerate() {
            assert_eq!(&p.block(tb).to_vec(), block, "block {tb}");
        }
        assert_eq!(p.assignment, want.assignment);
        assert_eq!(p.request_tags, want.tags);
        assert_eq!(meta, &want.meta);
        let decoded = Program::with_requests(
            &want.blocks,
            want.assignment.clone(),
            want.tags.clone(),
            p.arrivals.clone(),
        );
        assert_eq!(p, &decoded, "program equality compares expanded blocks");
    }

    proptest::proptest! {
        // Shared templates are invisible: closed mixes (partitioned and
        // interleaved, staggered arrivals) and serve sets of 1-6 tenants
        // drawn from 2-3 workloads, shared prefix included, expand to
        // the trace the oracle builds by copying every tenant.
        #[test]
        fn sharing_is_invisible(
            pool_size in 2usize..4,
            picks in proptest::collection::vec((0usize..3, 0u64..3), 1..7),
            shape in (0u8..3, 0u8..4, 1usize..5),
        ) {
            let pool = [decode(64), shared_prefix(64), prefill(64)];
            let (kind, layout, cores_per_request) = shape;
            let layout = [
                Layout::PairStream,
                Layout::Spatial,
                Layout::RoundRobinGInner,
                Layout::RoundRobinLInner,
            ][layout as usize];
            let tenants: Vec<(Arc<dyn Workload>, Cycle)> = (picks.iter())
                .map(|&(w, slot)| (pool[w % pool_size].clone(), slot * 1_000))
                .collect();
            if kind == 2 {
                let requests: Vec<Arc<dyn Workload>> =
                    tenants.iter().map(|(w, _)| w.clone()).collect();
                let open: Vec<_> = requests.iter().map(|w| (w.clone(), 0)).collect();
                let shares = vec![(0, cores_per_request); requests.len()];
                let got = generate_serve_set(&requests, cores_per_request, layout, 32, &cfg());
                match oracle(&open, &shares, false, layout) {
                    Some(want) => {
                        let (p, meta) = got.unwrap();
                        assert_expands_to(&p, &meta, &want);
                        assert!(p.arrivals.is_empty());
                    }
                    None => assert!(got.is_err()),
                }
            } else {
                let assignment = [MixAssignment::Partitioned, MixAssignment::Interleaved][kind as usize];
                let mut mix = WorkloadMix::new(assignment);
                for (w, arrival) in &tenants {
                    mix = mix.request(w.clone(), *arrival);
                }
                let shares = match assignment {
                    MixAssignment::Partitioned => mix.partition(cfg().num_cores).unwrap(),
                    MixAssignment::Interleaved => vec![(0, cfg().num_cores); tenants.len()],
                };
                let interleaved = assignment == MixAssignment::Interleaved;
                let got = mix.generate(layout, 32, &cfg());
                match oracle(&tenants, &shares, interleaved, layout) {
                    Some(want) => {
                        let (p, meta) = got.unwrap();
                        assert_expands_to(&p, &meta, &want);
                        assert_eq!(p.arrivals, want.arrivals);
                    }
                    None => assert!(got.is_err()),
                }
            }
        }
    }

    #[test]
    fn serve_set_arena_holds_one_request() {
        // serve-poisson's shape: 32 llama3-70b decode requests at seq 64
        // on 4-core slots share one request's instructions.
        let request: Arc<dyn Workload> = Arc::new(LogitWorkload::new(LogitOp::llama3_70b(64)));
        let (p, meta) =
            generate_serve_set(&vec![request.clone(); 32], 4, Layout::default(), 32, &cfg())
                .unwrap();
        assert_eq!(p.arena_len(), 9_728);
        assert_eq!(meta.per_request[0].num_blocks * 32, p.num_blocks());
        let solo_cfg = TraceGenConfig {
            num_cores: 4,
            ..cfg()
        };
        let (solo, _) = request.lower(Layout::default(), 32, &solo_cfg).unwrap();
        assert_eq!(solo.arena_len(), 9_728, "one request's instructions");
    }

    #[test]
    fn identical_tenants_share_one_arena() {
        // Four interleaved shared-prefix tenants of one instance hold
        // one tenant's instructions; four instances hold four copies.
        let tenant = shared_prefix(128);
        let (solo, _) = tenant.lower(Layout::PairStream, 32, &cfg()).unwrap();
        let mix = |instances: &dyn Fn() -> Arc<dyn Workload>| {
            let mut mix = WorkloadMix::new(MixAssignment::Interleaved);
            for _ in 0..4 {
                mix = mix.request(instances(), 0);
            }
            mix.generate(Layout::PairStream, 32, &cfg()).unwrap().0
        };
        let shared = mix(&|| tenant.clone());
        assert_eq!(shared.num_blocks(), 4 * solo.num_blocks());
        assert_eq!(shared.arena_len(), solo.arena_len());
        let copied = mix(&|| shared_prefix(128));
        assert_eq!(copied.arena_len(), 4 * solo.arena_len());
        assert_eq!(shared, copied, "sharing is invisible");
    }
}
