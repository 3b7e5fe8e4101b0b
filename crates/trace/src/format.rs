//! Trace container with human-readable (JSON) and compact binary
//! persistence.
//!
//! The hybrid framework writes traces to disk so that trace generation
//! (cheap, analytical) and simulation (expensive, cycle-level) can run
//! as separate pipeline stages — the same decoupling the paper's
//! Timeloop → Ramulator2 flow uses.
//!
//! This module alone knows the on-disk shapes (the nested
//! `{"blocks":[{"instrs":[…]}],…}` JSON and the v1/v2 binary layouts)
//! and converts them to and from [`Program`]'s instruction arena. Every
//! block is written expanded, its template relocated by its base, so a
//! file never shows which blocks share a template; it reads back as
//! base-0 blocks. A malformed file is an error, never a panic.

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use llamcat_sim::prog::{Instr, Program, RequestId};
use llamcat_sim::types::Cycle;

use crate::tracegen::TraceMeta;
use crate::workload::LogitOp;

/// Magic header of the original (solo, untagged) binary trace format.
const MAGIC_V1: &[u8; 8] = b"LLAMCAT1";
/// Magic header of the request-tagged binary trace format: every block
/// record carries its serving-request id and arrival cycle.
const MAGIC_V2: &[u8; 8] = b"LLAMCAT2";

/// A trace plus the metadata needed to interpret or regenerate it.
#[derive(Debug, Clone)]
pub struct TraceFile {
    pub op: LogitOp,
    pub meta: TraceMeta,
    pub program: Program,
}

/// The JSON shape of a [`TraceFile`].
#[derive(Serialize, Deserialize)]
struct TraceFileJson {
    op: LogitOp,
    meta: TraceMeta,
    program: ProgramJson,
}

/// The JSON shape of a [`Program`]: one nested instruction list per
/// block. `request_tags` and `arrivals` may be absent (solo traces
/// written before requests existed).
#[derive(Serialize, Deserialize)]
struct ProgramJson {
    blocks: Vec<BlockJson>,
    assignment: Vec<usize>,
    #[serde(default)]
    request_tags: Vec<RequestId>,
    #[serde(default)]
    arrivals: Vec<Cycle>,
}

#[derive(Serialize, Deserialize)]
struct BlockJson {
    instrs: Vec<Instr>,
}

impl From<&Program> for ProgramJson {
    fn from(p: &Program) -> Self {
        ProgramJson {
            blocks: (p.blocks())
                .map(|b| BlockJson { instrs: b.to_vec() })
                .collect(),
            assignment: p.assignment.clone(),
            request_tags: p.request_tags.clone(),
            arrivals: p.arrivals.clone(),
        }
    }
}

impl ProgramJson {
    /// The program, if every per-block vector covers every block.
    fn into_program(self) -> Result<Program, String> {
        let n = self.blocks.len();
        let (cores, tags, arrivals) = (
            self.assignment.len(),
            self.request_tags.len(),
            self.arrivals.len(),
        );
        if cores != n || ![0, n].contains(&tags) || ![0, n].contains(&arrivals) {
            return Err(format!("trace has {n} blocks but {cores} home cores, {tags} request tags and {arrivals} arrivals"));
        }
        if let Some(&tag) = self.request_tags.iter().find(|&&r| r as usize >= n) {
            return Err(sparse_tag(tag, n as u64));
        }
        let instrs = self.blocks.iter().map(|b| b.instrs.len()).sum();
        let mut program = Program::with_capacity(n, instrs);
        for (block, core) in self.blocks.into_iter().zip(self.assignment) {
            program.push_block(core, |arena| arena.extend(block.instrs));
        }
        program.request_tags = self.request_tags;
        program.arrivals = self.arrivals;
        Ok(program)
    }
}

impl TraceFile {
    /// Serializes to JSON (diffable, greppable).
    pub fn to_json(&self) -> String {
        let (op, meta, program) = (self.op, self.meta, ProgramJson::from(&self.program));
        serde_json::to_string(&TraceFileJson { op, meta, program })
            .expect("trace serialization cannot fail")
    }

    /// Deserializes from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let json: TraceFileJson = serde_json::from_str(s).map_err(|e| e.to_string())?;
        Ok(TraceFile {
            op: json.op,
            meta: json.meta,
            program: json.program.into_program()?,
        })
    }

    /// Writes the compact binary encoding: the v1 layout for untagged
    /// solo traces (no per-block overhead), v2 with per-block
    /// (request, arrival) records for tagged mixes.
    pub fn write_binary<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let p = &self.program;
        let tagged = !p.request_tags.is_empty() || !p.arrivals.is_empty();
        w.write_all(if tagged { MAGIC_V2 } else { MAGIC_V1 })?;
        let header = serde_json::to_vec(&(self.op, self.meta)).expect("header serializes");
        write_u64(w, header.len() as u64)?;
        w.write_all(&header)?;
        write_u64(w, p.num_blocks() as u64)?;
        for (tb, (block, &core)) in p.blocks().zip(&p.assignment).enumerate() {
            write_u64(w, core as u64)?;
            if tagged {
                write_u64(w, p.request_of(tb) as u64)?;
                write_u64(w, p.arrival_of(tb))?;
            }
            write_u64(w, block.len() as u64)?;
            for i in block {
                // A tag byte, then the instruction's fields as u64s.
                let (tag, fields) = match i {
                    Instr::Compute { cycles } => (0, [Some(cycles as u64), None]),
                    Instr::Load { addr, bytes } => (1, [Some(addr), Some(bytes as u64)]),
                    Instr::Store { addr, bytes } => (2, [Some(addr), Some(bytes as u64)]),
                    Instr::Barrier => (3, [None, None]),
                };
                w.write_all(&[tag])?;
                for v in fields.into_iter().flatten() {
                    write_u64(w, v)?;
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
            _ => return Err(invalid("bad magic")),
        };
        // Counts come from the file, so nothing is sized from them: a
        // count larger than the input ends at the input's end, in an
        // error.
        let header_len = read_u64(r)?;
        let mut header = Vec::new();
        r.by_ref().take(header_len).read_to_end(&mut header)?;
        if header.len() as u64 != header_len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let (op, meta): (LogitOp, TraceMeta) =
            serde_json::from_slice(&header).map_err(|e| invalid(&e.to_string()))?;
        let num_blocks = read_u64(r)?;
        let mut program = Program::default();
        let mut instrs = 0u64;
        for _ in 0..num_blocks {
            let core = read_u64(r)? as usize;
            if tagged {
                let tag = read_u32(r)?;
                if tag as u64 >= num_blocks {
                    return Err(invalid(&sparse_tag(tag, num_blocks)));
                }
                program.request_tags.push(tag);
                program.arrivals.push(read_u64(r)?);
            }
            let len = read_u64(r)?;
            instrs = instrs.saturating_add(len);
            if instrs > u32::MAX as u64 {
                return Err(invalid("trace exceeds u32::MAX instructions"));
            }
            let mut block: io::Result<()> = Ok(());
            program.push_block(core, |arena| {
                block = (0..len).try_for_each(|_| read_instr(r).map(|i| arena.push(i)))
            });
            block?;
        }
        Ok(TraceFile { op, meta, program })
    }
}

/// The error for request tag `tag` in a trace of `blocks` blocks. Such a
/// trace holds at most `blocks` requests, and the simulator sizes its
/// per-request tables by the largest tag: a tag at or beyond the block
/// count would ask for memory no such trace needs.
fn sparse_tag(tag: RequestId, blocks: u64) -> String {
    format!("request tag {tag} is not below the trace's {blocks} blocks")
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_instr<R: Read>(r: &mut R) -> io::Result<Instr> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => Instr::Compute {
            cycles: read_u32(r)?,
        },
        1 => Instr::Load {
            addr: read_u64(r)?,
            bytes: read_u32(r)?,
        },
        2 => Instr::Store {
            addr: read_u64(r)?,
            bytes: read_u32(r)?,
        },
        3 => Instr::Barrier,
        t => return Err(invalid(&format!("unknown instruction tag {t}"))),
    })
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a u64 field whose value must fit a u32 (request tags, compute
/// cycles, access bytes).
fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    u32::try_from(read_u64(r)?).map_err(|_| invalid("field exceeds u32"))
}

/// FNV-1a of `bytes`.
#[cfg(test)]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// FNV-1a of `program`'s JSON encoding.
#[cfg(test)]
pub(crate) fn program_fnv1a(program: &Program) -> u64 {
    fnv1a(&serde_json::to_vec(&ProgramJson::from(program)).expect("program serializes"))
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
        assert_eq!(t.program, u.program);
        assert_eq!(t.meta, u.meta);
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        let u = TraceFile::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(t.program, u.program);
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
        assert_eq!(u.program, t.program);
        assert_eq!(u.program.num_requests(), 2);
    }

    #[test]
    fn tagged_binary_round_trip() {
        let t = tagged_sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"LLAMCAT2");
        let u = TraceFile::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(u.program, t.program);
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
        assert_eq!(u.program, t.program);
        assert!(u.program.request_tags.is_empty());
        assert_eq!(u.program.num_requests(), 1, "v1 traces are solo request 0");
        // The tagged encoding pays exactly 16 extra bytes per block.
        let mut tagged = t.clone();
        tagged.program.request_tags = vec![0; tagged.program.num_blocks()];
        tagged.program.arrivals = vec![0; tagged.program.num_blocks()];
        let mut v2 = Vec::new();
        tagged.write_binary(&mut v2).unwrap();
        assert_eq!(&v2[..8], b"LLAMCAT2");
        assert_eq!(v2.len(), v1.len() + 16 * t.program.num_blocks());
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

    #[test]
    fn binary_encodings_are_pinned() {
        // FNV-1a of `write_binary`'s bytes, v1 and v2.
        let pin = |t: &TraceFile| {
            let mut buf = Vec::new();
            t.write_binary(&mut buf).unwrap();
            (fnv1a(&buf), buf.len())
        };
        assert_eq!(pin(&sample()), (0x39053f50731f0df6, 9992));
        assert_eq!(pin(&tagged_sample()), (0x8d89c359c60cc648, 20075));
    }

    #[test]
    fn serde_round_trip() {
        let p = Program::round_robin(
            [[
                Instr::Load {
                    addr: 64,
                    bytes: 64,
                },
                Instr::Barrier,
            ]],
            1,
        );
        let q = ProgramJson::from(&p);
        let s = serde_json::to_string(&q).unwrap();
        let q: ProgramJson = serde_json::from_str(&s).unwrap();
        assert_eq!(q.into_program().unwrap(), p);
    }

    #[test]
    fn tagged_serde_round_trip() {
        let p = Program::with_requests(
            vec![Vec::<Instr>::new(); 2],
            vec![0, 1],
            vec![0, 1],
            vec![0, 64],
        );
        let s = serde_json::to_string(&ProgramJson::from(&p)).unwrap();
        let q: ProgramJson = serde_json::from_str(&s).unwrap();
        let q = q.into_program().unwrap();
        assert_eq!(q.request_tags, p.request_tags);
        assert_eq!(q.arrivals, p.arrivals);
    }

    #[test]
    fn legacy_json_without_tags_parses() {
        let legacy = r#"{"blocks": [{"instrs": []}], "assignment": [0]}"#;
        let p: ProgramJson = serde_json::from_str(legacy).unwrap();
        let p = p.into_program().unwrap();
        assert_eq!(p.num_requests(), 1);
        assert!(p.request_tags.is_empty());
        assert!(p.arrivals.is_empty());
    }

    /// `json` with the first `from` replaced by `to`.
    fn edit(json: &str, from: &str, to: &str) -> String {
        assert!(json.contains(from), "{from} not in the trace");
        json.replacen(from, to, 1)
    }

    #[test]
    fn json_with_a_per_block_entry_too_few_is_rejected() {
        let solo = sample().to_json();
        let short = edit(&solo, r#""assignment":[0,"#, r#""assignment":["#);
        assert!(TraceFile::from_json(&short).is_err());
        let tagged = tagged_sample().to_json();
        for field in ["assignment", "request_tags", "arrivals"] {
            let key = format!(r#""{field}":["#);
            let short = edit(&tagged, &format!("{key}0,"), &key);
            assert!(TraceFile::from_json(&short).is_err(), "{field}");
        }
    }

    #[test]
    fn json_with_a_per_block_entry_too_many_is_rejected() {
        let solo = sample().to_json();
        let long = edit(&solo, r#""assignment":["#, r#""assignment":[0,"#);
        assert!(TraceFile::from_json(&long).is_err());
        let tagged = tagged_sample().to_json();
        for field in ["assignment", "request_tags", "arrivals"] {
            let key = format!(r#""{field}":["#);
            let long = edit(&tagged, &key, &format!("{key}0,"));
            assert!(TraceFile::from_json(&long).is_err(), "{field}");
        }
    }

    /// Offset of the block count in a binary trace: magic, header
    /// length, header.
    fn blocks_at(buf: &[u8]) -> usize {
        16 + u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize
    }

    fn set_u64(buf: &mut [u8], at: usize, v: u64) {
        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn read(buf: &[u8]) -> io::Result<TraceFile> {
        TraceFile::read_binary(&mut &buf[..])
    }

    #[test]
    fn binary_counts_beyond_the_input_are_rejected() {
        let mut v1 = Vec::new();
        sample().write_binary(&mut v1).unwrap();
        let at = blocks_at(&v1);
        // The header length, the block count and the first block's
        // instruction count (after its home core).
        for count_at in [8, at, at + 16] {
            for count in [u64::MAX / 2, u64::MAX] {
                let mut buf = v1.clone();
                set_u64(&mut buf, count_at, count);
                assert!(read(&buf).is_err(), "count {count:#x} at {count_at}");
            }
        }
    }

    #[test]
    fn binary_fields_wider_than_u32_are_rejected() {
        // A v1 trace of one block holding one instruction: `tag`, then
        // `fields`.
        let one_instr = |tag: u8, fields: &[u64]| {
            let mut buf = Vec::new();
            sample().write_binary(&mut buf).unwrap();
            buf.truncate(blocks_at(&buf));
            for v in [1, 0, 1].iter().chain(fields) {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            let at = buf.len() - 8 * fields.len();
            buf.insert(at, tag);
            buf
        };
        assert!(read(&one_instr(0, &[u32::MAX as u64])).is_ok());
        assert!(read(&one_instr(1, &[64, u32::MAX as u64])).is_ok());
        assert!(read(&one_instr(0, &[1 << 32])).is_err(), "compute cycles");
        assert!(read(&one_instr(1, &[64, 1 << 32])).is_err(), "load bytes");
        assert!(read(&one_instr(2, &[64, 1 << 32])).is_err(), "store bytes");
    }

    #[test]
    fn binary_request_tags_beyond_the_block_count_are_rejected() {
        // A v2 record is home core, request tag, arrival, instruction
        // count: the first block's tag follows the block count and the
        // core.
        let t = tagged_sample();
        let n = t.program.num_blocks() as u64;
        let mut v2 = Vec::new();
        t.write_binary(&mut v2).unwrap();
        let tag_at = blocks_at(&v2) + 16;
        for (tag, ok) in [(n - 1, true), (n, false), (4_000_000_000, false)] {
            let mut buf = v2.clone();
            set_u64(&mut buf, tag_at, tag);
            match read(&buf) {
                Ok(u) => assert!(ok && u.program.request_of(0) as u64 == tag, "tag {tag}"),
                Err(e) => assert!(!ok && e.kind() == io::ErrorKind::InvalidData, "tag {tag}"),
            }
        }
    }

    #[test]
    fn json_request_tags_beyond_the_block_count_are_rejected() {
        let t = tagged_sample();
        let n = t.program.num_blocks();
        let json = t.to_json();
        for (tag, ok) in [(n - 1, true), (n, false), (4_000_000_000, false)] {
            let sparse = edit(
                &json,
                r#""request_tags":[0,"#,
                &format!(r#""request_tags":[{tag},"#),
            );
            match TraceFile::from_json(&sparse) {
                Ok(u) => assert!(ok && u.program.request_of(0) as usize == tag, "tag {tag}"),
                Err(e) => assert!(!ok && e.contains("request tag"), "tag {tag}: {e}"),
            }
        }
    }

    proptest::proptest! {
        // Mutated v1, v2 and JSON encodings decode to `Ok` or `Err`,
        // never a panic: truncations, byte flips and overwritten counts.
        #[test]
        fn mutated_encodings_never_panic(
            encoding in 0u8..3,
            cut in proptest::prelude::any::<u64>(),
            flips in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), 1u8..255), 0..4),
            count in (0u8..4, 0usize..7, proptest::prelude::any::<u64>()),
        ) {
            let t = if encoding == 0 { sample() } else { tagged_sample() };
            let mut buf = Vec::new();
            match encoding {
                2 => buf = t.to_json().into_bytes(),
                _ => t.write_binary(&mut buf).unwrap(),
            }
            let (target, value, random) = count;
            if encoding < 2 {
                // Overwrite the header length, the block count, the
                // first block's instruction count (v2 records carry 16
                // more bytes before it), or nothing.
                let at = blocks_at(&buf);
                let count_at = [8, at, at + 16 + 16 * encoding as usize, buf.len()][target as usize];
                let value = [0, 1, 8, u32::MAX as u64, u64::MAX / 2, u64::MAX, random][value];
                if count_at + 8 <= buf.len() {
                    set_u64(&mut buf, count_at, value);
                }
            }
            for (at, mask) in flips {
                let at = (at % buf.len() as u64) as usize;
                buf[at] ^= mask;
            }
            if cut & 1 == 1 {
                buf.truncate(((cut >> 1) % buf.len() as u64) as usize);
            }
            if encoding < 2 {
                let _ = read(&buf);
            } else {
                let _ = TraceFile::from_json(&String::from_utf8_lossy(&buf));
            }
        }
    }
}
