//! Property-based tests (proptest) over the core data structures and
//! invariants of the simulator and the policies.

use proptest::prelude::*;

use llamcat::spec::ThrottleSpec;
use llamcat::throttle::Contention;
use llamcat_sim::arb::{ThrottleController, ThrottleInputs};
use llamcat_sim::cache::{InsertPolicy, SetAssocCache};
use llamcat_sim::mshr::{MshrFile, MshrOutcome, MshrTarget};
use llamcat_sim::types::LINE_BYTES;

// ---------------------------------------------------------------------
// Cache model vs a naive reference implementation.
// ---------------------------------------------------------------------

/// Straightforward LRU reference: per set, a vector ordered by recency.
struct RefCache {
    sets: Vec<Vec<u64>>, // most recent last
    assoc: usize,
    num_sets: u64,
}

impl RefCache {
    fn new(num_sets: usize, assoc: usize) -> Self {
        RefCache {
            sets: vec![Vec::new(); num_sets],
            assoc,
            num_sets: num_sets as u64,
        }
    }
    fn set_of(&self, line: u64) -> usize {
        (line % self.num_sets) as usize
    }
    fn access(&mut self, line: u64) -> bool {
        let s = self.set_of(line);
        if let Some(pos) = self.sets[s].iter().position(|&l| l == line) {
            self.sets[s].remove(pos);
            self.sets[s].push(line);
            true
        } else {
            false
        }
    }
    fn insert(&mut self, line: u64) {
        let s = self.set_of(line);
        if let Some(pos) = self.sets[s].iter().position(|&l| l == line) {
            self.sets[s].remove(pos);
        } else if self.sets[s].len() == self.assoc {
            self.sets[s].remove(0);
        }
        self.sets[s].push(line);
    }
}

proptest! {
    #[test]
    fn cache_matches_reference_model(
        ops in proptest::collection::vec((0u64..256, any::<bool>()), 1..400)
    ) {
        let mut dut = SetAssocCache::new(8, 4, 0);
        let mut reference = RefCache::new(8, 4);
        for (line, is_insert) in ops {
            let addr = line * LINE_BYTES;
            if is_insert {
                dut.insert(addr, false, InsertPolicy::Mru);
                reference.insert(line);
            } else {
                let got = dut.access(addr, false);
                let want = reference.access(line);
                prop_assert_eq!(got, want, "access({}) diverged", line);
            }
        }
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        lines in proptest::collection::vec(0u64..512, 1..300)
    ) {
        let mut dut = SetAssocCache::new(4, 2, 0);
        for line in lines {
            dut.insert(line * LINE_BYTES, false, InsertPolicy::Mru);
            prop_assert!(dut.occupancy() <= 4 * 2);
        }
    }

    // -----------------------------------------------------------------
    // MSHR invariants.
    // -----------------------------------------------------------------

    #[test]
    fn mshr_never_exceeds_dimensions(
        ops in proptest::collection::vec((0u64..16, any::<bool>()), 1..300)
    ) {
        let mut mshr = MshrFile::new(4, 3);
        let mut pending: Vec<u64> = Vec::new();
        let mut per_line: std::collections::HashMap<u64, usize> = Default::default();
        for (line, register) in ops {
            let addr = line * LINE_BYTES;
            if register {
                let t = MshrTarget { req_id: 0, core: 0, is_write: false };
                match mshr.register(addr, t) {
                    MshrOutcome::Allocated => {
                        pending.push(addr);
                        per_line.insert(addr, 1);
                    }
                    MshrOutcome::Merged => {
                        *per_line.get_mut(&addr).expect("merged into pending") += 1;
                    }
                    MshrOutcome::FullEntries => {
                        prop_assert_eq!(mshr.occupancy(), 4);
                    }
                    MshrOutcome::FullTargets => {
                        prop_assert_eq!(per_line[&addr], 3);
                    }
                }
            } else if let Some(addr) = pending.pop() {
                let targets = mshr.complete(addr).expect("pending entry exists");
                prop_assert_eq!(targets.len(), per_line.remove(&addr).unwrap());
            }
            prop_assert!(mshr.occupancy() <= 4);
            for (_, &n) in per_line.iter() {
                prop_assert!(n <= 3);
            }
        }
    }

    // -----------------------------------------------------------------
    // Throttle controllers always produce legal limits.
    // -----------------------------------------------------------------

    #[test]
    fn throttle_limits_always_in_bounds(
        seed_mem in proptest::collection::vec(0u64..4000, 8),
        seed_idle in proptest::collection::vec(0u64..4000, 8),
        stalls in 0u64..2_000_000,
        windows in 1usize..6,
    ) {
        for spec in [ThrottleSpec::dyncta(), ThrottleSpec::Lcs, ThrottleSpec::dynmg()] {
            let mut ctl = spec.build_kind();
            ctl.reset(8);
            let mut max_tb = vec![windows; 8];
            let mut c_mem = seed_mem.clone();
            let mut c_idle = seed_idle.clone();
            let progress: Vec<u64> = (0..8).map(|i| (i as u64) * 1000).collect();
            let tbs: Vec<u64> = vec![1; 8];
            let active = vec![windows; 8];
            for step in 1..40u64 {
                for (m, i) in c_mem.iter_mut().zip(c_idle.iter_mut()) {
                    *m += step * 37 % 401;
                    *i += step * 13 % 7;
                }
                let inputs = ThrottleInputs {
                    cycle: step * 500,
                    num_windows: windows,
                    num_slices: 8,
                    progress: &progress,
                    c_mem: &c_mem,
                    c_idle: &c_idle,
                    llc_stall_cycles: stalls + step * 100,
                    active_tbs: &active,
                    tbs_completed: &tbs,
                };
                ctl.tick(&inputs, &mut max_tb);
                for &m in &max_tb {
                    prop_assert!(m >= 1 && m <= windows,
                        "{}: produced illegal limit {m}", spec.label());
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Contention classification is total and monotone.
    // -----------------------------------------------------------------

    #[test]
    fn contention_classification_total_and_monotone(t in 0.0f64..1.0) {
        let c = Contention::classify(t);
        let rank = |c: Contention| match c {
            Contention::Low => 0,
            Contention::Normal => 1,
            Contention::High => 2,
            Contention::Extreme => 3,
        };
        // Monotone: a higher stall proportion never maps to a lower band.
        let c2 = Contention::classify((t + 0.05).min(1.0));
        prop_assert!(rank(c2) >= rank(c));
    }

    // -----------------------------------------------------------------
    // Trace generation invariants (addresses within tensors, coverage).
    // -----------------------------------------------------------------

    #[test]
    fn trace_addresses_stay_in_tensor_bounds(
        heads in 1usize..4,
        group in 1usize..5,
        ltiles in 1usize..6,
    ) {
        use llamcat_sim::prog::Instr;
        use llamcat_trace::prelude::*;
        let op = LogitOp {
            heads,
            group_size: group,
            seq_len: ltiles * 32,
            head_dim: 128,
        };
        prop_assume!(op.validate().is_ok());
        let cfg = TraceGenConfig::default();
        let mapping = Layout::Spatial.mapping(&op, 32, cfg.num_cores);
        let (program, meta) = LogitWorkload::new(op).generate(&mapping, &cfg);
        prop_assert_eq!(meta.num_blocks, heads * group * ltiles);
        let q_end = Q_BASE + op.q_bytes();
        let k_end = K_BASE + op.k_bytes();
        let s_end = SCORE_BASE + op.score_bytes();
        for block in &program.blocks {
            for i in &block.instrs {
                match *i {
                    Instr::Load { addr, bytes } => {
                        let end = addr + bytes as u64;
                        let in_q = addr >= Q_BASE && end <= q_end;
                        let in_k = addr >= K_BASE && end <= k_end;
                        prop_assert!(in_q || in_k, "load outside Q/K: {addr:#x}");
                    }
                    Instr::Store { addr, bytes } => {
                        let end = addr + bytes as u64;
                        prop_assert!(addr >= SCORE_BASE && end <= s_end,
                            "store outside scores: {addr:#x}");
                    }
                    _ => {}
                }
            }
        }
        // Load traffic is exactly G streams of K plus the Q rows.
        let q_traffic = (heads * group * ltiles) as u64 * op.k_row_bytes();
        prop_assert_eq!(
            meta.total_load_bytes,
            op.k_bytes() * group as u64 + q_traffic
        );
        prop_assert_eq!(meta.total_store_bytes, op.score_bytes());
    }
}
