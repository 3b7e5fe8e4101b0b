//! Criterion micro-benchmarks of the simulator substrate itself:
//! DRAM channel throughput, cache-model operations, MSHR operations and
//! small end-to-end system runs. These guard against performance
//! regressions in the hot tick loop (the figure benches depend on the
//! simulator staying fast).
//!
//! The `step_mode` target additionally reports the wall-clock speedup
//! of the idle-cycle-skipping engine (`StepMode::Skip`) over the
//! cycle-accurate reference on fig7-shaped decode workloads, across the
//! arithmetic-intensity spectrum (`compute_cycles_per_row`), asserting
//! byte-identical statistics along the way. In `--test` mode (as run by
//! CI) the comparison uses a small shape so the whole bench stays
//! fast while still exercising both engines end to end.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use llamcat::experiment::Experiment;
use llamcat::spec::{MixSpec, PolicySpec};
use llamcat_sim::arb::{FifoArbiter, NoThrottle};
use llamcat_sim::cache::{InsertPolicy, SetAssocCache};
use llamcat_sim::config::{DramConfig, SystemConfig};
use llamcat_sim::dram::{AddressMapping, Channel, MappingScheme};
use llamcat_sim::mshr::{MshrFile, MshrTarget};
use llamcat_sim::prog::{Instr, Program, ThreadBlock};
use llamcat_sim::system::{StepMode, System};
use llamcat_sim::types::LINE_BYTES;
use llamcat_trace::workloads::WorkloadSpec;

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/access_hit", |b| {
        let mut cache = SetAssocCache::new(4096, 8, 3);
        for line in 0..4096u64 {
            cache.insert(line * LINE_BYTES * 8, false, InsertPolicy::Mru);
        }
        let mut line = 0u64;
        b.iter(|| {
            line = (line + 1) % 4096;
            std::hint::black_box(cache.access(line * LINE_BYTES * 8, false))
        });
    });
    c.bench_function("cache/insert_evict", |b| {
        let mut cache = SetAssocCache::new(128, 8, 0);
        let mut line = 0u64;
        b.iter(|| {
            line += 1;
            std::hint::black_box(cache.insert(line * LINE_BYTES, false, InsertPolicy::Mru))
        });
    });
}

fn bench_mshr(c: &mut Criterion) {
    c.bench_function("mshr/register_complete", |b| {
        let mut mshr = MshrFile::new(6, 8);
        let t = MshrTarget {
            req_id: 0,
            core: 0,
            is_write: false,
        };
        let mut addr = 0u64;
        b.iter(|| {
            addr += 64;
            mshr.register(addr, t);
            std::hint::black_box(mshr.complete(addr).map(|targets| targets.len()))
        });
    });
}

fn bench_dram(c: &mut Criterion) {
    c.bench_function("dram/streaming_channel", |b| {
        let mut cfg = DramConfig::table5();
        cfg.refresh = false;
        let mapping = AddressMapping::new(&cfg, MappingScheme::RoBaRaCoCh);
        b.iter_batched(
            || Channel::new(cfg, 0),
            |mut ch| {
                let mut out = Vec::new();
                let mut sent = 0u64;
                while out.len() < 32 {
                    if sent < 32 {
                        let a = sent * 4 * LINE_BYTES;
                        if ch.enqueue_read(a, mapping.decode(a), 0) {
                            sent += 1;
                        }
                    }
                    ch.tick(&mut out);
                }
                out.len()
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_system(c: &mut Criterion) {
    c.bench_function("system/small_run", |b| {
        let mut cfg = SystemConfig::table5();
        cfg.num_cores = 4;
        cfg.dram.refresh = false;
        let blocks: Vec<ThreadBlock> = (0..16)
            .map(|i| ThreadBlock {
                instrs: vec![
                    Instr::Load {
                        addr: i * 4096,
                        bytes: 128,
                    },
                    Instr::Load {
                        addr: i * 4096 + 128,
                        bytes: 128,
                    },
                    Instr::Barrier,
                ],
            })
            .collect();
        let program = Program::round_robin(blocks, cfg.num_cores);
        b.iter_batched(
            || System::new(cfg, program.clone(), &|_| FifoArbiter, NoThrottle),
            |mut sys| {
                let (stats, _) = sys.run(100_000);
                stats.cycles
            },
            BatchSize::SmallInput,
        );
    });
}

/// One cycle-vs-skip comparison on a fig7-shaped decode cell. Returns
/// (cycle seconds, skip seconds, simulated cycles, executed event
/// cycles) after asserting byte-identical `SimStats`.
fn compare_modes(seq_len: usize, policy: PolicySpec, compute_per_row: u32) -> (f64, f64, u64, u64) {
    let mut e = Experiment::from_spec(&WorkloadSpec::llama3_70b(), seq_len).policy(policy);
    e.tracegen.compute_cycles_per_row = compute_per_row;
    let program = e.build_program();
    let mk = |p: Program| {
        let arb = e.policy.arb.clone();
        System::new(
            e.config,
            p,
            &move |_| arb.build_kind_for(&e.config.l2),
            e.policy.throttle.build_kind(),
        )
    };
    let t0 = Instant::now();
    let (stats_cycle, out_cycle) = mk(program.clone()).run_with_mode(u64::MAX, StepMode::Cycle);
    let t_cycle = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut sys = mk(program);
    let (stats_skip, out_skip) = sys.run_with_mode(u64::MAX, StepMode::Skip);
    let t_skip = t0.elapsed().as_secs_f64();
    assert_eq!(out_cycle, out_skip, "RunOutcome diverged between modes");
    assert_eq!(
        serde_json::to_string(&stats_cycle).unwrap(),
        serde_json::to_string(&stats_skip).unwrap(),
        "SimStats diverged between step modes (seq {seq_len}, cpr {compute_per_row})"
    );
    let (executed, _) = sys.step_counts();
    (t_cycle, t_skip, stats_cycle.cycles, executed)
}

/// Wall-clock speedup of `StepMode::Skip` over `StepMode::Cycle` on
/// fig7-shaped decode, across the arithmetic-intensity spectrum.
///
/// The report is deliberately honest about both ends: the paper-default
/// memory-bound trace (1 compute cycle per K row) keeps some component
/// busy nearly every cycle, so an observationally-equivalent engine has
/// almost nothing to skip (~1x); as per-row vector work grows (fused
/// dequant/softmax-style kernels), whole-machine idle windows open up
/// and the event engine's cost scales with *events* instead of cycles
/// (>=5x from a few hundred compute cycles per row; asymptotically the
/// skip-mode time goes flat while cycle-mode time keeps growing).
fn bench_step_mode(_c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (seq_len, spectrum): (usize, &[u32]) = if test_mode {
        (256, &[1, 64])
    } else {
        (2048, &[1, 16, 64, 128, 256, 512])
    };
    println!("\n### step_mode: Skip vs Cycle on fig7-shaped decode (llama3 70b @ {seq_len})");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "cpr", "sim-cycles", "exec-frac", "cycle-s", "skip-s", "speedup"
    );
    for &cpr in spectrum {
        let (t_cycle, t_skip, cycles, executed) =
            compare_modes(seq_len, PolicySpec::unoptimized(), cpr);
        println!(
            "{:>8} {:>12} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x",
            cpr,
            cycles,
            executed as f64 / cycles as f64,
            t_cycle,
            t_skip,
            t_cycle / t_skip
        );
    }
    // The full policy stack must stay byte-identical under skip too.
    let (t_cycle, t_skip, ..) = compare_modes(seq_len, PolicySpec::dynmg_bma(), 1);
    println!("  dynmg+BMA (cpr 1): cycle {t_cycle:.3}s skip {t_skip:.3}s");
}

/// One measured throughput cell for the machine-readable report.
struct SpeedCell {
    workload: &'static str,
    mode: llamcat_sim::system::StepMode,
    cycles: u64,
    wall_s: f64,
}

impl SpeedCell {
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_s
    }
}

/// Runs one experiment in both step modes, best-of-`reps` wall time.
fn measure_cell(workload: &'static str, e: &Experiment, reps: usize, out: &mut Vec<SpeedCell>) {
    use llamcat_sim::system::StepMode;
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let exp = e.clone().step_mode(mode);
        let mut best = f64::MAX;
        let mut cycles = 0;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = exp.run();
            best = best.min(t0.elapsed().as_secs_f64());
            cycles = r.cycles;
        }
        out.push(SpeedCell {
            workload,
            mode,
            cycles,
            wall_s: best,
        });
    }
}

/// End-to-end simulator throughput on the ISSUE-5 benchmark cells —
/// the fig7-shaped memory-bound decode trace, a prefill trace, and one
/// PR-4 serving mix — in both step modes. Prints a table and, when
/// `LLAMCAT_SIM_SPEED_JSON` names a path, writes the machine-readable
/// report that `BENCH_sim_speed.json` archives (the perf-trajectory
/// artifact future PRs compare against).
fn bench_sim_speed_cells(_c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (seq_len, reps) = if test_mode { (256, 1) } else { (2048, 3) };

    let mut cells = Vec::new();
    let decode = Experiment::from_spec(&WorkloadSpec::llama3_70b(), seq_len)
        .policy(PolicySpec::unoptimized());
    measure_cell("fig7-decode-70b", &decode, reps, &mut cells);
    let decode_bma =
        Experiment::from_spec(&WorkloadSpec::llama3_70b(), seq_len).policy(PolicySpec::dynmg_bma());
    measure_cell("fig7-decode-70b-dynmg+BMA", &decode_bma, reps, &mut cells);
    let prefill = Experiment::from_spec(
        &WorkloadSpec::PrefillLogit {
            heads: 8,
            group_size: 8,
            head_dim: 128,
            query_tokens: 16,
        },
        seq_len,
    )
    .policy(PolicySpec::unoptimized());
    measure_cell("prefill-logit", &prefill, reps, &mut cells);
    let mix = MixSpec::partitioned()
        .request(WorkloadSpec::llama3_70b(), seq_len, 0)
        .request(
            WorkloadSpec::PrefillLogit {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                query_tokens: 4,
            },
            seq_len / 2,
            0,
        );
    let mix_exp = Experiment::from_mix_spec(&mix)
        .expect("mix composes")
        .policy(PolicySpec::dynmg_bma());
    measure_cell("mix-decode+prefill-dynmg+BMA", &mix_exp, reps, &mut cells);

    println!("\n### sim_speed cells (seq {seq_len}, best of {reps})");
    for cell in &cells {
        println!(
            "{:<30} {:?}: {:>10} cycles  {:>7.3}s  {:>12.0} cyc/s",
            cell.workload,
            cell.mode,
            cell.cycles,
            cell.wall_s,
            cell.cycles_per_sec()
        );
    }

    if let Ok(path) = std::env::var("LLAMCAT_SIM_SPEED_JSON") {
        let mut json = String::from("{\n  \"schema\": \"llamcat-sim-speed/1\",\n");
        json.push_str(&llamcat_bench::bench_meta_json_fields());
        json.push_str(&format!("  \"seq_len\": {seq_len},\n  \"cells\": [\n"));
        for (i, cell) in cells.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"workload\": \"{}\", \"mode\": \"{:?}\", \"cycles\": {}, \"wall_s\": {:.4}, \"cycles_per_sec\": {:.0}}}{}\n",
                cell.workload,
                cell.mode,
                cell.cycles,
                cell.wall_s,
                cell.cycles_per_sec(),
                if i + 1 == cells.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write sim_speed JSON report");
        println!("wrote {path}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache, bench_mshr, bench_dram, bench_system, bench_step_mode, bench_sim_speed_cells
}
criterion_main!(benches);
