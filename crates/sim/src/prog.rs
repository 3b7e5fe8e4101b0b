//! Executable trace representation: thread blocks of vector instructions.
//!
//! The hybrid framework (Section 5 of the paper) drives each simulated
//! vector core with a memory trace: "cycles of each non-memory
//! operations, memory access addresses, R/W". A trace is partitioned
//! into *thread blocks* — the unit the runtime scheduler assigns to
//! instruction windows and migrates between cores.
//!
//! A [`Program`] is the one representation of a trace, from generation
//! to simulation. Its instruction arena holds each *distinct* block
//! once, as a [`Template`]; every thread block is a template plus a
//! relocation base, read as a [`Block`] view. Tenants of a mix or a
//! serve set that run the same operator are the same template at
//! different bases, so trace memory grows with the distinct tenants,
//! not with the requests. A solo trace is the base-0 case. The system
//! shares the program as it is, copying nothing.
//!
//! One rule relocates, [`relocate`]: a load or store below
//! [`SHARED_KV_BASE`] moves by the block's base; shared-prefix lines
//! (at or above it) stay where they are, so every tenant reading a
//! common system prompt reads the same lines. The cores apply it as
//! they issue.

use std::hint::select_unpredictable;

use serde::{Deserialize, Serialize};

use crate::kv::SHARED_KV_BASE;
use crate::types::{Addr, Cycle};

/// One vector instruction of a thread block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// Non-memory work occupying the vector unit for `cycles`.
    Compute { cycles: u32 },
    /// Vector load of `bytes` starting at `addr` (split into line
    /// requests by the L1).
    Load { addr: Addr, bytes: u32 },
    /// Vector store of `bytes` at `addr` (posted; write-through).
    Store { addr: Addr, bytes: u32 },
    /// Wait until all outstanding loads of this thread block returned
    /// (reduction barrier before dependent stores).
    Barrier,
}

/// Identifier of a thread block within a [`Program`].
pub type TbId = usize;

/// Identifier of a serving request (tenant) within a [`Program`].
///
/// Solo traces are request 0 throughout; multi-tenant mixes tag every
/// thread block with the request that produced it so the simulator can
/// attribute completion and LLC behavior per request.
pub type RequestId = u32;

/// A complete operator trace: thread blocks plus their initial
/// assignment to cores.
///
/// A thread block is a short sequence of instructions covering 1–2
/// output cache lines (Section 6.2.2). Its instructions live in the
/// program's one arena as a [`Template`], which any number of blocks
/// share: block `tb` reads its template relocated by its own base (see
/// [`relocate`]), as the view [`Program::block`] returns. Trace
/// generation appends new blocks in place ([`Program::push_block`]) and
/// aliases repeated ones ([`Program::push_relocated`]). The trace files
/// of `llamcat_trace::format` write every block expanded and read back
/// base-0 blocks; equality compares the expanded blocks, never the
/// sharing.
///
/// `assignment[i]` is the home core of block `i`; the runtime scheduler
/// may migrate blocks to other cores when their home core falls behind.
///
/// `request_tags[i]` / `arrivals[i]` tag block `i` with the serving
/// request it belongs to and the cycle at which that request arrives
/// (blocks are not schedulable before their arrival). Both vectors are
/// optional: empty means "one request, present from cycle 0" — the
/// solo-trace encoding.
#[derive(Debug, Clone)]
pub struct Program {
    /// Every distinct block's instructions, as trace generation wrote
    /// them.
    instrs: Vec<Instr>,
    /// Block `tb`'s template and relocation base.
    spans: Vec<Span>,
    pub assignment: Vec<usize>,
    /// Per-block request id; empty = all blocks belong to request 0.
    pub request_tags: Vec<RequestId>,
    /// Per-block release cycle; empty = all blocks available at cycle 0.
    pub arrivals: Vec<Cycle>,
}

/// A range of a program's instruction arena holding one block's
/// instructions, unrelocated. Blocks that run the same instructions at
/// different bases share it.
#[derive(Debug, Clone, Copy)]
pub struct Template {
    start: u32,
    end: u32,
}

/// One thread block: its template and relocation base.
#[derive(Debug, Clone, Copy)]
struct Span {
    template: Template,
    base: Addr,
}

/// The one relocation rule: `instr` as a block at `base` issues it. A
/// load or store below [`SHARED_KV_BASE`] moves by `base`; shared-prefix
/// lines, and every other instruction, are left as they are.
#[inline]
pub fn relocate(instr: Instr, base: Addr) -> Instr {
    // Branch-free: a block may alternate shared and private lines.
    let at = |addr: Addr| select_unpredictable(addr < SHARED_KV_BASE, addr + base, addr);
    match instr {
        Instr::Load { addr, bytes } => Instr::Load {
            addr: at(addr),
            bytes,
        },
        Instr::Store { addr, bytes } => Instr::Store {
            addr: at(addr),
            bytes,
        },
        Instr::Compute { .. } | Instr::Barrier => instr,
    }
}

/// One thread block's instructions as its core issues them: a template
/// read through its block's relocation base.
#[derive(Clone, Copy)]
pub struct Block<'a> {
    template: &'a [Instr],
    base: Addr,
}

impl<'a> Block<'a> {
    #[inline]
    pub fn len(&self) -> usize {
        self.template.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.template.is_empty()
    }

    /// Instruction `pc`, relocated; `None` past the end.
    #[inline]
    pub fn get(&self, pc: usize) -> Option<Instr> {
        self.template.get(pc).map(|&i| relocate(i, self.base))
    }

    /// The instructions, relocated.
    pub fn iter(&self) -> Instrs<'a> {
        Instrs {
            template: self.template.iter(),
            base: self.base,
        }
    }

    /// The instructions, relocated, in a vector of their own.
    pub fn to_vec(&self) -> Vec<Instr> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for Block<'a> {
    type Item = Instr;
    type IntoIter = Instrs<'a>;

    fn into_iter(self) -> Instrs<'a> {
        self.iter()
    }
}

impl PartialEq for Block<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Block<'_> {}

/// Iterator over a [`Block`]'s relocated instructions.
#[derive(Clone)]
pub struct Instrs<'a> {
    template: std::slice::Iter<'a, Instr>,
    base: Addr,
}

impl Iterator for Instrs<'_> {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        self.template.next().map(|&i| relocate(i, self.base))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.template.size_hint()
    }
}

impl ExactSizeIterator for Instrs<'_> {}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.assignment == other.assignment
            && self.request_tags == other.request_tags
            && self.arrivals == other.arrivals
            && self.blocks().eq(other.blocks())
    }
}

impl Eq for Program {}

impl Default for Program {
    fn default() -> Self {
        Program::with_capacity(0, 0)
    }
}

impl Program {
    /// An empty program with room for `blocks` blocks over templates
    /// holding `instrs` instructions in all.
    pub fn with_capacity(blocks: usize, instrs: usize) -> Self {
        Program {
            instrs: Vec::with_capacity(instrs),
            spans: Vec::with_capacity(blocks),
            assignment: Vec::with_capacity(blocks),
            request_tags: Vec::new(),
            arrivals: Vec::new(),
        }
    }

    /// Adds a template to the arena: `fill` pushes its instructions
    /// onto the end of the arena, which already holds every earlier
    /// template's. No block uses it until
    /// [`push_relocated`](Program::push_relocated) names it.
    pub fn template(&mut self, fill: impl FnOnce(&mut Vec<Instr>)) -> Template {
        let first = self.instrs.len();
        fill(&mut self.instrs);
        assert!(
            self.instrs.len() >= first,
            "a template may only append to the arena"
        );
        let end = u32::try_from(self.instrs.len())
            .expect("a program holds at most u32::MAX instructions");
        Template {
            start: first as u32,
            end,
        }
    }

    /// Appends one thread block homed on `core` that runs `template`
    /// relocated by `base`.
    pub fn push_relocated(&mut self, core: usize, template: Template, base: Addr) {
        debug_assert!(template.end as usize <= self.instrs.len());
        self.spans.push(Span { template, base });
        self.assignment.push(core);
    }

    /// Appends one thread block homed on `core` over a template of its
    /// own at base 0: `fill` pushes the block's instructions onto the
    /// end of the arena.
    pub fn push_block(&mut self, core: usize, fill: impl FnOnce(&mut Vec<Instr>)) {
        let template = self.template(fill);
        self.push_relocated(core, template, 0);
    }

    /// Drops the arena's and the block list's spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.instrs.shrink_to_fit();
        self.spans.shrink_to_fit();
    }

    /// Instructions the arena holds: every template once, however many
    /// blocks share it.
    pub fn arena_len(&self) -> usize {
        self.instrs.len()
    }

    /// A fully tagged program, built block by block (tests and
    /// examples): one home core per block in `assignment`, and per-block
    /// `request_tags` and `arrivals` that are either complete or empty
    /// (the solo defaults).
    pub fn with_requests<B: AsRef<[Instr]>>(
        blocks: impl IntoIterator<Item = B>,
        assignment: Vec<usize>,
        request_tags: Vec<RequestId>,
        arrivals: Vec<Cycle>,
    ) -> Self {
        let mut program = Program::round_robin(blocks, 1);
        let n = program.num_blocks();
        assert_eq!(assignment.len(), n, "one home core per block");
        assert!([0, n].contains(&request_tags.len()) && [0, n].contains(&arrivals.len()));
        program.assignment = assignment;
        program.request_tags = request_tags;
        program.arrivals = arrivals;
        program
    }

    /// Round-robin assignment of `blocks` over `num_cores` cores, in
    /// block order (consecutive blocks land on consecutive cores, which
    /// is what keeps GQA-sharing blocks temporally close).
    pub fn round_robin<B: AsRef<[Instr]>>(
        blocks: impl IntoIterator<Item = B>,
        num_cores: usize,
    ) -> Self {
        let mut program = Program::default();
        for (i, block) in blocks.into_iter().enumerate() {
            program.push_block(i % num_cores, |instrs| {
                instrs.extend_from_slice(block.as_ref())
            });
        }
        program
    }

    pub fn num_blocks(&self) -> usize {
        self.spans.len()
    }

    /// Block `tb`'s instructions.
    #[inline]
    pub fn block(&self, tb: TbId) -> Block<'_> {
        let Span { template, base } = self.spans[tb];
        Block {
            template: &self.instrs[template.start as usize..template.end as usize],
            base,
        }
    }

    /// Every block's instructions, in block order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Block<'_>> {
        (0..self.num_blocks()).map(|tb| self.block(tb))
    }

    /// Request that thread block `tb` belongs to (0 for solo traces).
    #[inline]
    pub fn request_of(&self, tb: TbId) -> RequestId {
        self.request_tags.get(tb).copied().unwrap_or(0)
    }

    /// Cycle at which thread block `tb` becomes schedulable.
    #[inline]
    pub fn arrival_of(&self, tb: TbId) -> Cycle {
        self.arrivals.get(tb).copied().unwrap_or(0)
    }

    /// Number of requests in the trace: `max(tag) + 1`, or 1 for an
    /// untagged (solo) program.
    pub fn num_requests(&self) -> usize {
        self.request_tags
            .iter()
            .map(|&r| r as usize + 1)
            .max()
            .unwrap_or(1)
    }

    /// Thread blocks belonging to each request, indexed by request id.
    pub fn blocks_per_request(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_requests()];
        if self.request_tags.is_empty() {
            counts[0] = self.num_blocks() as u64;
        } else {
            for &r in &self.request_tags {
                counts[r as usize] += 1;
            }
        }
        counts
    }

    /// Arrival cycle of each request (the minimum arrival over its
    /// blocks; 0 for requests without blocks).
    pub fn request_arrivals(&self) -> Vec<Cycle> {
        let mut arrivals = vec![Cycle::MAX; self.num_requests()];
        for tb in 0..self.num_blocks() {
            let r = self.request_of(tb) as usize;
            arrivals[r] = arrivals[r].min(self.arrival_of(tb));
        }
        for a in arrivals.iter_mut() {
            if *a == Cycle::MAX {
                *a = 0;
            }
        }
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_accounting() {
        let p = Program::round_robin(
            [
                vec![
                    Instr::Load {
                        addr: 0,
                        bytes: 128,
                    },
                    Instr::Compute { cycles: 4 },
                    Instr::Load {
                        addr: 128,
                        bytes: 128,
                    },
                    Instr::Barrier,
                    Instr::Store {
                        addr: 4096,
                        bytes: 64,
                    },
                ],
                vec![Instr::Barrier],
            ],
            2,
        );
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.block(0).len(), 5);
        assert_eq!(p.block(1).to_vec(), [Instr::Barrier]);
        assert_eq!(p.blocks().map(|b| b.len()).collect::<Vec<_>>(), [5, 1]);
    }

    #[test]
    fn round_robin_assignment() {
        let p = Program::round_robin([[]; 5], 2);
        assert_eq!(p.assignment, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn untagged_program_is_one_request_from_cycle_zero() {
        let p = Program::round_robin([[]; 3], 2);
        assert_eq!(p.num_requests(), 1);
        assert_eq!(p.request_of(2), 0);
        assert_eq!(p.arrival_of(2), 0);
        assert_eq!(p.blocks_per_request(), vec![3]);
        assert_eq!(p.request_arrivals(), vec![0]);
    }

    #[test]
    fn tagged_program_tracks_requests_and_arrivals() {
        let p = Program::with_requests(
            [[]; 4],
            vec![0, 1, 0, 1],
            vec![0, 1, 1, 0],
            vec![0, 500, 500, 0],
        );
        assert_eq!(p.num_requests(), 2);
        assert_eq!(p.request_of(1), 1);
        assert_eq!(p.arrival_of(2), 500);
        assert_eq!(p.blocks_per_request(), vec![2, 2]);
        assert_eq!(p.request_arrivals(), vec![0, 500]);
    }

    #[test]
    fn relocation_moves_private_accesses_only() {
        let base = 3 << 40;
        let load = |addr| Instr::Load { addr, bytes: 128 };
        assert_eq!(relocate(load(64), base), load(base + 64));
        assert_eq!(
            relocate(Instr::Store { addr: 0, bytes: 8 }, base),
            Instr::Store {
                addr: base,
                bytes: 8
            }
        );
        assert_eq!(relocate(load(SHARED_KV_BASE - 1), 1), load(SHARED_KV_BASE));
        assert_eq!(relocate(load(SHARED_KV_BASE), base), load(SHARED_KV_BASE));
        assert_eq!(relocate(Instr::Barrier, base), Instr::Barrier);
        let compute = Instr::Compute { cycles: 7 };
        assert_eq!(relocate(compute, base), compute);
    }

    #[test]
    fn shared_templates_read_as_their_expansion() {
        let instrs = [
            Instr::Load {
                addr: 128,
                bytes: 128,
            },
            Instr::Load {
                addr: SHARED_KV_BASE,
                bytes: 64,
            },
            Instr::Barrier,
        ];
        let mut shared = Program::default();
        let t = shared.template(|arena| arena.extend(instrs));
        shared.push_relocated(0, t, 0);
        shared.push_relocated(1, t, 1 << 40);
        assert_eq!(shared.arena_len(), 3, "one template for both blocks");
        let moved = [
            Instr::Load {
                addr: (1 << 40) + 128,
                bytes: 128,
            },
            instrs[1],
            instrs[2],
        ];
        assert_eq!(shared.block(1).to_vec(), moved);
        assert_eq!(shared.block(1).get(0), Some(moved[0]));
        assert_eq!(shared.block(1).get(3), None);
        // Equality compares expanded blocks, not how they are stored.
        let expanded = Program::round_robin([&instrs[..], &moved[..]], 2);
        assert_eq!(expanded.arena_len(), 6);
        assert_eq!(shared, expanded);
        let other = Program::round_robin([&instrs[..], &instrs[..]], 2);
        assert_ne!(shared, other);
    }
}
