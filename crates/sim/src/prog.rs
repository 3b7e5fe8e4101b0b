//! Executable trace representation: thread blocks of vector instructions.
//!
//! The hybrid framework (Section 5 of the paper) drives each simulated
//! vector core with a memory trace: "cycles of each non-memory
//! operations, memory access addresses, R/W". A trace is partitioned
//! into *thread blocks* — the unit the runtime scheduler assigns to
//! instruction windows and migrates between cores.
//!
//! A [`Program`] is the one representation of a trace, from generation
//! to simulation: all blocks' instructions in one arena, read block by
//! block as slices. The system shares it as it is, copying nothing.

use serde::{Deserialize, Serialize};

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
/// output cache lines (Section 6.2.2). Every block lives in one
/// instruction arena, back to back in block order: trace generation
/// appends blocks in place ([`Program::push_block`]) and the simulator
/// reads block `tb` as the slice [`Program::block`] returns. The trace
/// files of `llamcat_trace::format` convert to and from this layout.
///
/// `assignment[i]` is the home core of block `i`; the runtime scheduler
/// may migrate blocks to other cores when their home core falls behind.
///
/// `request_tags[i]` / `arrivals[i]` tag block `i` with the serving
/// request it belongs to and the cycle at which that request arrives
/// (blocks are not schedulable before their arrival). Both vectors are
/// optional: empty means "one request, present from cycle 0" — the
/// solo-trace encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Every block's instructions, back to back in block order.
    instrs: Vec<Instr>,
    /// `start[tb]..start[tb + 1]` is block `tb`'s range of `instrs`
    /// (one entry more than there are blocks).
    start: Vec<u32>,
    pub assignment: Vec<usize>,
    /// Per-block request id; empty = all blocks belong to request 0.
    pub request_tags: Vec<RequestId>,
    /// Per-block release cycle; empty = all blocks available at cycle 0.
    pub arrivals: Vec<Cycle>,
}

impl Default for Program {
    fn default() -> Self {
        Program::with_capacity(0, 0)
    }
}

impl Program {
    /// An empty program with room for `blocks` blocks holding `instrs`
    /// instructions in all.
    pub fn with_capacity(blocks: usize, instrs: usize) -> Self {
        let mut start = Vec::with_capacity(blocks + 1);
        start.push(0);
        Program {
            instrs: Vec::with_capacity(instrs),
            start,
            assignment: Vec::with_capacity(blocks),
            request_tags: Vec::new(),
            arrivals: Vec::new(),
        }
    }

    /// Appends one thread block homed on `core`: `fill` pushes the
    /// block's instructions onto the end of the arena, which already
    /// holds every earlier block's.
    pub fn push_block(&mut self, core: usize, fill: impl FnOnce(&mut Vec<Instr>)) {
        let first = self.instrs.len();
        fill(&mut self.instrs);
        assert!(
            self.instrs.len() >= first,
            "a block may only append to the arena"
        );
        let end = u32::try_from(self.instrs.len())
            .expect("a program holds at most u32::MAX instructions");
        self.start.push(end);
        self.assignment.push(core);
    }

    /// Drops the arena's spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.instrs.shrink_to_fit();
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
        self.start.len() - 1
    }

    /// Block `tb`'s instructions.
    #[inline]
    pub fn block(&self, tb: TbId) -> &[Instr] {
        &self.instrs[self.start[tb] as usize..self.start[tb + 1] as usize]
    }

    /// Every block's instructions, in block order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = &[Instr]> {
        self.start
            .windows(2)
            .map(|w| &self.instrs[w[0] as usize..w[1] as usize])
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
        assert_eq!(p.block(1), &[Instr::Barrier]);
        assert_eq!(p.blocks().map(<[Instr]>::len).collect::<Vec<_>>(), [5, 1]);
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
}
