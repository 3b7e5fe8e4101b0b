//! Cross-crate integration tests: trace generation -> simulation ->
//! statistics, under every policy combination.

use llamcat::experiment::{Experiment, Layout};
use llamcat::spec::PolicySpec;
use llamcat_sim::stats::SimStats;
use llamcat_trace::workload::LogitOp;
use llamcat_trace::workloads::WorkloadSpec;

fn small(model: &WorkloadSpec, policy: PolicySpec) -> Experiment {
    Experiment::from_spec(model, 256).policy(policy)
}

#[test]
fn every_policy_combination_completes_and_is_consistent() {
    for p in PolicySpec::matrix() {
        let r = small(&WorkloadSpec::llama3_70b(), p).run();
        assert!(r.completed, "{} must complete", r.policy_label);
        let stats = r.stats.as_ref().expect("stats present");
        stats
            .check_consistency()
            .unwrap_or_else(|e| panic!("{}: {e}", r.policy_label));
    }
}

#[test]
fn both_models_run() {
    for model in [WorkloadSpec::llama3_70b(), WorkloadSpec::llama3_405b()] {
        let r = small(&model, PolicySpec::dynmg_bma()).run();
        assert!(r.completed);
        assert!(r.dram_accesses > 0);
    }
}

#[test]
fn all_layouts_do_the_same_work() {
    let stores = |s: &SimStats| -> u64 { s.cores.iter().map(|c| c.stores).sum() };
    let loads = |s: &SimStats| -> u64 { s.cores.iter().map(|c| c.loads).sum() };
    let mut seen = Vec::new();
    for layout in [
        Layout::PairStream,
        Layout::Spatial,
        Layout::RoundRobinGInner,
        Layout::RoundRobinLInner,
    ] {
        let r = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 256)
            .layout(layout)
            .run();
        assert!(r.completed, "{layout:?}");
        let st = r.stats.as_ref().expect("stats");
        seen.push((loads(st), stores(st)));
    }
    // Identical instruction volume regardless of layout.
    assert!(seen.windows(2).all(|w| w[0] == w[1]), "{seen:?}");
}

#[test]
fn determinism_across_runs() {
    let run = || {
        Experiment::from_spec(&WorkloadSpec::llama3_405b(), 256)
            .policy(PolicySpec::dynmg_bma())
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.dram_accesses, b.dram_accesses);
    assert_eq!(a.tb_migrations, b.tb_migrations);
    let (sa, sb) = (a.stats.as_ref().unwrap(), b.stats.as_ref().unwrap());
    for (x, y) in sa.slices.iter().zip(sb.slices.iter()) {
        assert_eq!(x.hits, y.hits);
        assert_eq!(x.mshr_merges, y.mshr_merges);
        assert_eq!(x.stall_cycles, y.stall_cycles);
    }
}

#[test]
fn l2_capacity_changes_behaviour_monotonically_enough() {
    // Larger caches must never make the unoptimized machine slower by
    // more than noise, and DRAM traffic must not increase.
    let mut prev_accesses = u64::MAX;
    for mb in [8, 16, 64] {
        let r = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 1024)
            .l2_mb(mb)
            .run();
        assert!(r.completed);
        assert!(
            r.dram_accesses <= prev_accesses,
            "traffic should not grow with cache size"
        );
        prev_accesses = r.dram_accesses;
    }
}

#[test]
fn dram_traffic_is_bounded_by_workload_extremes() {
    let r = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 512).run();
    let op = LogitOp::llama3_70b(512);
    let min_lines = op.k_bytes() / 64; // each K line at least once
    let max_lines = (op.max_read_bytes() + op.score_bytes() * 3) / 64;
    assert!(
        r.dram_accesses >= min_lines,
        "must fetch all of K at least once: {} < {min_lines}",
        r.dram_accesses
    );
    assert!(
        r.dram_accesses <= max_lines,
        "cannot exceed zero-reuse traffic plus stores: {} > {max_lines}",
        r.dram_accesses
    );
}

#[test]
fn progress_counters_sum_to_served_requests() {
    let r = Experiment::from_spec(&WorkloadSpec::llama3_70b(), 256).run();
    let st = r.stats.as_ref().unwrap();
    let served: u64 = st.progress.iter().sum();
    let lookups: u64 = st.slices.iter().map(|s| s.lookups).sum();
    assert_eq!(served, lookups);
}

#[test]
fn speedup_math_is_symmetric() {
    let a = small(&WorkloadSpec::llama3_70b(), PolicySpec::unoptimized()).run();
    let b = small(&WorkloadSpec::llama3_70b(), PolicySpec::dynmg()).run();
    let s1 = b.speedup_over(&a);
    let s2 = a.speedup_over(&b);
    assert!((s1 * s2 - 1.0).abs() < 1e-12);
}

#[test]
fn experiment_reports_carry_metrics() {
    let r = small(&WorkloadSpec::llama3_70b(), PolicySpec::dynmg_bma()).run();
    assert!(r.l2_hit_rate >= 0.0 && r.l2_hit_rate <= 1.0);
    assert!(r.mshr_hit_rate >= 0.0 && r.mshr_hit_rate <= 1.0);
    assert!(r.mshr_entry_util >= 0.0 && r.mshr_entry_util <= 1.0);
    assert!(r.t_cs >= 0.0 && r.t_cs <= 1.0);
    assert!(r.dram_bandwidth_gbs > 0.0);
    assert_eq!(r.l2_mb, 16);
    assert_eq!(r.policy_label, "dynmg+BMA");
}

#[test]
fn trace_file_round_trip_through_simulation() {
    use llamcat_trace::prelude::*;
    let op = LogitOp::llama3_70b(256);
    let cfg = TraceGenConfig::default();
    let mapping = Layout::Spatial.mapping(&op, 32, cfg.num_cores);
    let (program, meta) = LogitWorkload::new(op).generate(&mapping, &cfg);
    let tf = TraceFile { op, meta, program };
    let mut buf = Vec::new();
    tf.write_binary(&mut buf).unwrap();
    let rt = TraceFile::read_binary(&mut buf.as_slice()).unwrap();

    // The reloaded trace must simulate identically to the original.
    use llamcat_sim::arb::{FifoArbiter, NoThrottle};
    use llamcat_sim::config::SystemConfig;
    use llamcat_sim::system::System;
    let run = |p: llamcat_sim::prog::Program| {
        let mut sys = System::new(SystemConfig::table5(), p, &|_| FifoArbiter, NoThrottle);
        sys.run(100_000_000).0.cycles
    };
    assert_eq!(run(tf.program), run(rt.program));
}
