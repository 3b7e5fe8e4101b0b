//! Skip vs Cycle: host time of the two step modes on fig7-shaped decode
//! (Llama3 70b Logit, unoptimized machine) across the arithmetic-
//! intensity spectrum, i.e. vector compute cycles per K row.
//!
//! The paper-default memory-bound trace (1 cycle per row) keeps some
//! component busy nearly every cycle, so an exact event engine has
//! little to skip. As per-row work grows, whole-machine idle windows
//! open and Skip's cost follows events rather than cycles. Both modes
//! must report the same cycle count.
//!
//! ```text
//! cargo run --release --example step_modes
//! ```

use std::time::Instant;

use llamcat::experiment::Experiment;
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

fn main() {
    let seq_len = 2048;
    println!("Skip vs Cycle, Llama3 70b Logit @ seq {seq_len}");
    println!(
        "{:>6} {:>12} {:>9} {:>9} {:>8}",
        "cpr", "sim-cycles", "cycle-s", "skip-s", "speedup"
    );
    for cpr in [1, 16, 64, 128, 256, 512] {
        let mut e = Experiment::from_spec(&WorkloadSpec::llama3_70b(), seq_len);
        e.tracegen.compute_cycles_per_row = cpr;
        let timed = |mode| {
            let t0 = Instant::now();
            let r = e.clone().step_mode(mode).run();
            (r.cycles, t0.elapsed().as_secs_f64())
        };
        let (cycles, t_cycle) = timed(StepMode::Cycle);
        let (skip_cycles, t_skip) = timed(StepMode::Skip);
        assert_eq!(cycles, skip_cycles, "step modes diverged at cpr {cpr}");
        println!(
            "{cpr:>6} {cycles:>12} {t_cycle:>9.3} {t_skip:>9.3} {:>7.2}x",
            t_cycle / t_skip
        );
    }
}
