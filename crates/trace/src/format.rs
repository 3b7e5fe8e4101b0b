//! Trace container with human-readable (JSON) and compact binary
//! persistence.
//!
//! The hybrid framework writes traces to disk so that trace generation
//! (cheap, analytical) and simulation (expensive, cycle-level) can run
//! as separate pipeline stages — the same decoupling the paper's
//! Timeloop → Ramulator2 flow uses.

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use llamcat_sim::prog::{Instr, Program, ThreadBlock};

use crate::tracegen::TraceMeta;
use crate::workload::LogitOp;

/// Magic header of the original (solo, untagged) binary trace format.
const MAGIC_V1: &[u8; 8] = b"LLAMCAT1";
/// Magic header of the request-tagged binary trace format: every block
/// record carries its serving-request id and arrival cycle.
const MAGIC_V2: &[u8; 8] = b"LLAMCAT2";

/// A trace plus the metadata needed to interpret or regenerate it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceFile {
    pub op: LogitOp,
    pub meta: TraceMeta,
    pub program: Program,
}

impl TraceFile {
    /// Serializes to pretty JSON (diffable, greppable).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserializes from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Writes the compact binary encoding: the v1 layout for untagged
    /// solo traces (no per-block overhead), v2 with per-block
    /// (request, arrival) records for tagged mixes.
    pub fn write_binary<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let tagged = !self.program.request_tags.is_empty() || !self.program.arrivals.is_empty();
        w.write_all(if tagged { MAGIC_V2 } else { MAGIC_V1 })?;
        let header = serde_json::to_vec(&(self.op, self.meta)).expect("header serializes");
        write_u64(w, header.len() as u64)?;
        w.write_all(&header)?;
        write_u64(w, self.program.blocks.len() as u64)?;
        for (tb, (block, &core)) in self
            .program
            .blocks
            .iter()
            .zip(&self.program.assignment)
            .enumerate()
        {
            write_u64(w, core as u64)?;
            if tagged {
                write_u64(w, self.program.request_of(tb) as u64)?;
                write_u64(w, self.program.arrival_of(tb))?;
            }
            write_u64(w, block.instrs.len() as u64)?;
            for i in &block.instrs {
                match i {
                    Instr::Compute { cycles } => {
                        w.write_all(&[0])?;
                        write_u64(w, *cycles as u64)?;
                    }
                    Instr::Load { addr, bytes } => {
                        w.write_all(&[1])?;
                        write_u64(w, *addr)?;
                        write_u64(w, *bytes as u64)?;
                    }
                    Instr::Store { addr, bytes } => {
                        w.write_all(&[2])?;
                        write_u64(w, *addr)?;
                        write_u64(w, *bytes as u64)?;
                    }
                    Instr::Barrier => {
                        w.write_all(&[3])?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Reads the compact binary encoding: the current request-tagged v2
    /// layout, or the legacy v1 layout (read back as a solo request-0
    /// trace).
    pub fn read_binary<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let tagged = match &magic {
            m if m == MAGIC_V2 => true,
            m if m == MAGIC_V1 => false,
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic")),
        };
        let header_len = read_u64(r)? as usize;
        let mut header = vec![0u8; header_len];
        r.read_exact(&mut header)?;
        let (op, meta): (LogitOp, TraceMeta) = serde_json::from_slice(&header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let num_blocks = read_u64(r)? as usize;
        let mut blocks = Vec::with_capacity(num_blocks);
        let mut assignment = Vec::with_capacity(num_blocks);
        let mut request_tags = Vec::new();
        let mut arrivals = Vec::new();
        for _ in 0..num_blocks {
            assignment.push(read_u64(r)? as usize);
            if tagged {
                let tag = read_u64(r)?;
                let tag = u32::try_from(tag).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "request tag exceeds u32")
                })?;
                request_tags.push(tag);
                arrivals.push(read_u64(r)?);
            }
            let n = read_u64(r)? as usize;
            let mut instrs = Vec::with_capacity(n);
            for _ in 0..n {
                let mut tag = [0u8; 1];
                r.read_exact(&mut tag)?;
                let instr = match tag[0] {
                    0 => Instr::Compute {
                        cycles: read_u64(r)? as u32,
                    },
                    1 => Instr::Load {
                        addr: read_u64(r)?,
                        bytes: read_u64(r)? as u32,
                    },
                    2 => Instr::Store {
                        addr: read_u64(r)?,
                        bytes: read_u64(r)? as u32,
                    },
                    3 => Instr::Barrier,
                    t => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unknown instruction tag {t}"),
                        ))
                    }
                };
                instrs.push(instr);
            }
            blocks.push(ThreadBlock { instrs });
        }
        Ok(TraceFile {
            op,
            meta,
            program: Program::with_requests(blocks, assignment, request_tags, arrivals),
        })
    }
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Layout;
    use crate::tracegen::TraceGenConfig;
    use crate::workloads::{LogitWorkload, Workload};

    fn sample() -> TraceFile {
        let op = LogitOp {
            heads: 2,
            group_size: 2,
            seq_len: 64,
            head_dim: 128,
        };
        let cfg = TraceGenConfig::default();
        let mapping = Layout::Spatial.mapping(&op, 32, cfg.num_cores);
        let (program, meta) = LogitWorkload::new(op).generate(&mapping, &cfg);
        TraceFile { op, meta, program }
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let s = t.to_json();
        let u = TraceFile::from_json(&s).unwrap();
        assert_eq!(t.program.blocks, u.program.blocks);
        assert_eq!(t.meta, u.meta);
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        let u = TraceFile::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(t.program.blocks, u.program.blocks);
        assert_eq!(t.program.assignment, u.program.assignment);
        assert_eq!(t.op, u.op);
    }

    #[test]
    fn binary_is_denser_than_json() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        assert!(buf.len() < t.to_json().len());
    }

    /// A request-tagged mix trace (tags, staggered arrivals) through
    /// the container.
    fn tagged_sample() -> TraceFile {
        use crate::mix::{MixAssignment, WorkloadMix};
        use std::sync::Arc;

        let op = LogitOp {
            heads: 2,
            group_size: 2,
            seq_len: 64,
            head_dim: 128,
        };
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(Arc::new(LogitWorkload::new(op)), 0)
            .request(Arc::new(LogitWorkload::new(op)), 700);
        let cfg = TraceGenConfig::default();
        let (program, mix_meta) = mix.generate(Layout::PairStream, 32, &cfg).unwrap();
        let meta = TraceMeta {
            num_blocks: mix_meta.num_blocks,
            total_load_bytes: mix_meta.total_load_bytes,
            total_store_bytes: mix_meta.total_store_bytes,
            max_block_instrs: mix_meta.max_block_instrs,
        };
        TraceFile { op, meta, program }
    }

    #[test]
    fn tagged_json_round_trip() {
        let t = tagged_sample();
        let u = TraceFile::from_json(&t.to_json()).unwrap();
        assert_eq!(u.program.blocks, t.program.blocks);
        assert_eq!(u.program.request_tags, t.program.request_tags);
        assert_eq!(u.program.arrivals, t.program.arrivals);
        assert_eq!(u.program.num_requests(), 2);
    }

    #[test]
    fn tagged_binary_round_trip() {
        let t = tagged_sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"LLAMCAT2");
        let u = TraceFile::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(u.program.blocks, t.program.blocks);
        assert_eq!(u.program.assignment, t.program.assignment);
        assert_eq!(u.program.request_tags, t.program.request_tags);
        assert_eq!(u.program.arrivals, t.program.arrivals);
        assert_eq!(u.program.request_arrivals(), vec![0, 700]);
    }

    #[test]
    fn untagged_traces_keep_the_compact_v1_layout() {
        // Solo traces write the legacy v1 layout — no per-block
        // (tag, arrival) overhead — and read back as request 0.
        let t = sample();
        let mut v1 = Vec::new();
        t.write_binary(&mut v1).unwrap();
        assert_eq!(&v1[..8], b"LLAMCAT1");
        let u = TraceFile::read_binary(&mut v1.as_slice()).unwrap();
        assert_eq!(u.program.blocks, t.program.blocks);
        assert!(u.program.request_tags.is_empty());
        assert_eq!(u.program.num_requests(), 1, "v1 traces are solo request 0");
        // The tagged encoding pays exactly 16 extra bytes per block.
        let mut tagged = t.clone();
        tagged.program.request_tags = vec![0; tagged.program.blocks.len()];
        tagged.program.arrivals = vec![0; tagged.program.blocks.len()];
        let mut v2 = Vec::new();
        tagged.write_binary(&mut v2).unwrap();
        assert_eq!(&v2[..8], b"LLAMCAT2");
        assert_eq!(v2.len(), v1.len() + 16 * t.program.blocks.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = b"NOTATRCE".to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        assert!(TraceFile::read_binary(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(TraceFile::read_binary(&mut buf.as_slice()).is_err());
    }
}
