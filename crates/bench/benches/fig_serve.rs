//! fig_serve: open-system serving — arrival-rate sweep to the
//! saturation knee.
//!
//! The paper (and fig_mix) evaluate closed request sets: every request
//! is known before cycle 0. This target opens the system: a seeded
//! arrival process feeds the request injector mid-run, and a serving
//! scheduler (FCFS, max-concurrency, continuous batching, plus the
//! overload policies — reject-above-queue, deadline-drop and
//! priority-preempt) decides whether and when queued requests reach the
//! machine. Sweeping the arrival rate from light load toward saturation
//! locates two knees per cell:
//!
//! - the **latency knee** — the rate where p99 TTFT departs from its
//!   light-load plateau by more than 3x; and
//! - the **goodput knee** — the rate where SLO attainment under the
//!   TTFT deadline first drops below 90%, which is where admission
//!   control starts paying for itself.
//!
//! Every sweep point runs in both step modes and asserts byte-identical
//! per-request statistics (arrival, admission, rejection, preemption,
//! TTFT, TBT, SLO verdict), extending the Skip ≡ Cycle guarantee to
//! mid-run injection with overload admission. One JSON record per
//! (cell, rate) point goes to stdout; when `LLAMCAT_FIG_SERVE_JSON`
//! names a path, a machine-readable report with the per-cell knees and
//! every sweep point is written there.
//!
//! Scale via `LLAMCAT_SCALE` as usual (full | half | quick). Set
//! `LLAMCAT_FIG_SERVE_BURSTY=1` to swap the Poisson arrivals for an
//! overlapping-burst storm at the same mean rate (the regime the
//! headline arrival-order bugfix unblocked).

use llamcat::experiment::{Experiment, RunReport};
use llamcat::spec::{ArrivalSpec, PolicySpec, ServePolicySpec, ServeSpec, SloSpec};
use llamcat_bench::{goodput_knee, run_experiments, scale_divisor, scale_label, GoodputKnee};
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

/// One serving cell of the sweep: a serving policy × a cache policy.
struct ServeCell {
    name: &'static str,
    scheduler: ServePolicySpec,
    policy: PolicySpec,
    /// Priority classes for the cell's requests (empty = all class 0).
    classes: Vec<u8>,
}

fn cells(n_req: usize, ttft_deadline: u64) -> Vec<ServeCell> {
    // The priority cell interleaves best-effort (0) and urgent (1)
    // requests so every burst carries preemptors.
    let alternating: Vec<u8> = (0..n_req).map(|i| (i % 2) as u8).collect();
    vec![
        ServeCell {
            name: "fcfs/unoptimized",
            scheduler: ServePolicySpec::Fcfs,
            policy: PolicySpec::unoptimized(),
            classes: Vec::new(),
        },
        ServeCell {
            name: "fcfs/dynmg+BMA",
            scheduler: ServePolicySpec::Fcfs,
            policy: PolicySpec::dynmg_bma(),
            classes: Vec::new(),
        },
        ServeCell {
            name: "maxc2/dynmg+BMA",
            scheduler: ServePolicySpec::MaxConcurrency { max: 2 },
            policy: PolicySpec::dynmg_bma(),
            classes: Vec::new(),
        },
        ServeCell {
            name: "cb4/dynmg+BMA",
            scheduler: ServePolicySpec::ContinuousBatching { slots: 4 },
            policy: PolicySpec::dynmg_bma(),
            classes: Vec::new(),
        },
        ServeCell {
            name: "rej4q2/dynmg+BMA",
            scheduler: ServePolicySpec::RejectAboveQueue { slots: 4, depth: 2 },
            policy: PolicySpec::dynmg_bma(),
            classes: Vec::new(),
        },
        ServeCell {
            name: "ddl4/dynmg+BMA",
            scheduler: ServePolicySpec::DeadlineDrop {
                slots: 4,
                ttft_deadline,
            },
            policy: PolicySpec::dynmg_bma(),
            classes: Vec::new(),
        },
        ServeCell {
            name: "prio4/dynmg+BMA",
            scheduler: ServePolicySpec::PriorityPreempt { slots: 4 },
            policy: PolicySpec::dynmg_bma(),
            classes: alternating,
        },
    ]
}

/// The sweep's arrival process at one mean rate: Poisson by default, an
/// overlapping-burst storm (same mean gap) under
/// `LLAMCAT_FIG_SERVE_BURSTY=1`.
fn arrivals_for(mean_gap: u64, bursty: bool) -> ArrivalSpec {
    if bursty {
        // Bursts of 4 back-to-back-ish arrivals; the inter-burst gap
        // keeps the mean rate at one request per `mean_gap` cycles.
        ArrivalSpec::Bursty {
            burst: 4,
            gap_in_burst: (mean_gap / 8).max(1),
            burst_gap: mean_gap.saturating_mul(4).max(1),
            seed: 7,
        }
    } else {
        ArrivalSpec::Poisson { mean_gap, seed: 7 }
    }
}

fn serve_spec(
    seq_len: usize,
    n_req: usize,
    mean_gap: u64,
    ttft_deadline: u64,
    bursty: bool,
    cell: &ServeCell,
) -> ServeSpec {
    let mut spec = ServeSpec::new(
        WorkloadSpec::llama3_70b(),
        seq_len,
        n_req,
        arrivals_for(mean_gap, bursty),
    )
    .scheduler(cell.scheduler)
    .slo(SloSpec::ttft(ttft_deadline));
    if !cell.classes.is_empty() {
        spec = spec.classes(cell.classes.clone());
    }
    spec
}

/// Sorted-sample quantile (nearest rank on the sorted slice).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One finished sweep point: the latency profile of a (cell, rate) run.
struct SweepPoint {
    mean_gap: u64,
    p50_ttft: u64,
    p99_ttft: u64,
    mean_queue_delay: f64,
    completed: usize,
    rejected: usize,
    preemptions: u64,
    slo_met: usize,
    attainment: f64,
    goodput_per_mcycle: f64,
    cycles: u64,
}

fn point_of(report: &RunReport, mean_gap: u64) -> SweepPoint {
    let mut ttfts: Vec<u64> = report.requests.iter().filter_map(|r| r.ttft).collect();
    ttfts.sort_unstable();
    assert!(
        !ttfts.is_empty(),
        "no request retired a block at gap {mean_gap}"
    );
    let delays: Vec<u64> = report
        .requests
        .iter()
        .filter_map(|r| r.queue_delay)
        .collect();
    let slo = report.slo.as_ref().expect("fig_serve always sets an SLO");
    SweepPoint {
        mean_gap,
        p50_ttft: quantile(&ttfts, 0.50),
        p99_ttft: quantile(&ttfts, 0.99),
        mean_queue_delay: delays.iter().sum::<u64>() as f64 / delays.len().max(1) as f64,
        completed: report.requests.iter().filter(|r| r.completed).count(),
        rejected: report
            .requests
            .iter()
            .filter(|r| r.rejected.is_some())
            .count(),
        preemptions: report
            .requests
            .iter()
            .map(|r| u64::from(r.preemptions))
            .sum(),
        slo_met: slo.met,
        attainment: slo.attainment,
        goodput_per_mcycle: slo.goodput_per_mcycle,
        cycles: report.cycles,
    }
}

fn main() {
    let div = scale_divisor();
    let seq_len = 1024 / div;
    let n_req = if div >= 8 { 4 } else { 8 };
    let bursty = std::env::var("LLAMCAT_FIG_SERVE_BURSTY").is_ok_and(|v| v == "1");

    // Calibrate the rate axis in units of the solo service time, so
    // the sweep brackets the knee at every scale: gaps well above the
    // service time are the open ("light load") regime, gaps below it
    // force queueing.
    let solo = Experiment::from_spec(&WorkloadSpec::llama3_70b(), seq_len)
        .policy(PolicySpec::dynmg_bma())
        .run();
    assert!(solo.completed && solo.cycles > 0);
    let svc = solo.cycles;
    // An unloaded request's TTFT: the reference for both the SLO
    // deadline (4x, generous at light load, unreachable once queueing
    // stacks up) and the saturated-at-lightest-point diagnostic.
    let solo_ttft = solo.requests[0].ttft.unwrap_or(svc).max(1);
    let ttft_deadline = solo_ttft.saturating_mul(4);
    let gap_factors: &[f64] = if div >= 8 {
        &[4.0, 1.0, 0.25]
    } else {
        &[8.0, 4.0, 2.0, 1.0, 0.5, 0.25]
    };
    let gaps: Vec<u64> = gap_factors
        .iter()
        .map(|f| ((svc as f64 * f) as u64).max(1))
        .collect();

    println!(
        "# fig_serve — open-system arrival-rate sweep to the saturation knee \
         (scale: {}, seq {seq_len}, {n_req} requests, {} arrivals, solo service {svc} cycles, \
         solo TTFT {solo_ttft}, SLO TTFT deadline {ttft_deadline})",
        scale_label(),
        if bursty { "burst-storm" } else { "poisson" },
    );

    // The whole sweep — every (cell, gap) in both step modes — as one
    // parallel batch.
    let cell_defs = cells(n_req, ttft_deadline);
    let mut experiments = Vec::new();
    for cell in &cell_defs {
        for &gap in &gaps {
            let spec = serve_spec(seq_len, n_req, gap, ttft_deadline, bursty, cell);
            for mode in [StepMode::Cycle, StepMode::Skip] {
                experiments.push(
                    Experiment::from_serve_spec(&spec)
                        .expect("serve spec composes")
                        .policy(cell.policy.clone())
                        .step_mode(mode),
                );
            }
        }
    }
    let reports = run_experiments(&experiments).expect("fig_serve sweep");

    let mut json_points: Vec<String> = Vec::new();
    let mut knees: Vec<(String, Option<u64>, &'static str, GoodputKnee)> = Vec::new();
    for (c, cell) in cell_defs.iter().enumerate() {
        println!("\n### {} ({})", cell.name, cell.policy.label());
        println!(
            "{:>12} {:>14} {:>10} {:>10} {:>12} {:>10} {:>8} {:>8} {:>10}",
            "mean-gap",
            "rate/Mcyc",
            "p50-ttft",
            "p99-ttft",
            "mean-queue",
            "completed",
            "rejected",
            "slo-met",
            "goodput"
        );
        let mut points = Vec::with_capacity(gaps.len());
        for (g, &gap) in gaps.iter().enumerate() {
            let base = (c * gaps.len() + g) * 2;
            let (cycle, skip) = (&reports[base], &reports[base + 1]);
            assert_eq!(
                serde_json::to_string(&cycle.requests).unwrap(),
                serde_json::to_string(&skip.requests).unwrap(),
                "per-request stats diverged between step modes ({}, gap {gap})",
                cell.name
            );
            assert_eq!(cycle.cycles, skip.cycles);
            let pt = point_of(cycle, gap);
            println!(
                "{:>12} {:>14.2} {:>10} {:>10} {:>12.0} {:>7}/{} {:>8} {:>8} {:>10.3}",
                pt.mean_gap,
                1e6 / pt.mean_gap as f64,
                pt.p50_ttft,
                pt.p99_ttft,
                pt.mean_queue_delay,
                pt.completed,
                n_req,
                pt.rejected,
                pt.slo_met,
                pt.goodput_per_mcycle,
            );
            points.push(pt);
        }
        // The latency knee: the first rate (sweeping load upward) whose
        // p99 TTFT leaves the light-load plateau by more than 3x. The
        // plateau baseline is the lightest point — which is only a
        // plateau if that point is itself unsaturated, so check it and
        // report the difference between "never saturates" and "already
        // saturated everywhere". Saturation at the lightest point shows
        // as both an elevated p99 (vs the unloaded solo TTFT) and a
        // heavy TTFT tail (p99 >> p50 — queueing variance); a narrow
        // slot width alone shifts the whole distribution without
        // spreading it, and is not saturation.
        let plateau = points[0].p99_ttft.max(1);
        let knee = points
            .iter()
            .find(|p| p.p99_ttft > plateau.saturating_mul(3))
            .map(|p| p.mean_gap);
        let spread_at_lightest = points[0].p99_ttft > points[0].p50_ttft.max(1).saturating_mul(2);
        let knee_status = if knee.is_some() {
            "found"
        } else if plateau > solo_ttft.saturating_mul(3) && spread_at_lightest {
            "saturated_at_lightest"
        } else {
            "not_reached"
        };
        match knee {
            Some(gap) => println!(
                "    knee: p99 TTFT exceeds 3x light-load plateau at mean gap {gap} \
                 ({:.2} requests/Mcyc)",
                1e6 / gap as f64
            ),
            None if knee_status == "saturated_at_lightest" => println!(
                "    knee: WARNING — lightest point is already saturated (p99 TTFT {plateau} \
                 > 3x solo TTFT {solo_ttft}); the knee lies below this sweep's rate range"
            ),
            None => println!("    knee: not reached in this sweep"),
        }
        // The goodput knee: the first rate where SLO attainment under
        // the TTFT deadline drops below 90% — the overload onset the
        // admission policies are supposed to move. Same status
        // treatment as the latency knee: a sweep whose lightest point
        // is already below threshold has no knee in range (reporting
        // the sweep edge once made every cell claim the identical
        // "knee" regardless of policy).
        let attainment_curve: Vec<(u64, f64)> =
            points.iter().map(|p| (p.mean_gap, p.attainment)).collect();
        let goodput = goodput_knee(&attainment_curve, 0.9);
        match goodput {
            GoodputKnee::Found { mean_gap: gap } => println!(
                "    goodput knee: SLO attainment drops below 90% at mean gap {gap} \
                 ({:.2} requests/Mcyc)",
                1e6 / gap as f64
            ),
            GoodputKnee::SaturatedAtLightest => println!(
                "    goodput knee: WARNING — attainment {:.3} < 0.9 already at the \
                 lightest rate; the knee lies below this sweep's rate range",
                points[0].attainment
            ),
            GoodputKnee::NotReached => {
                println!("    goodput knee: attainment >= 90% across the sweep")
            }
        }
        for pt in &points {
            json_points.push(format!(
                "{{\"cell\": \"{}\", \"policy\": \"{}\", \"mean_gap\": {}, \
                 \"rate_per_mcyc\": {:.4}, \"p50_ttft\": {}, \"p99_ttft\": {}, \
                 \"mean_queue_delay\": {:.1}, \"completed\": {}, \"rejected\": {}, \
                 \"preemptions\": {}, \"slo_met\": {}, \"attainment\": {:.4}, \
                 \"goodput_per_mcyc\": {:.4}, \"cycles\": {}, \"knee_gap\": {}, \
                 \"knee_status\": \"{knee_status}\", \"goodput_knee_gap\": {}, \
                 \"goodput_knee_status\": \"{}\"}}",
                cell.name,
                cell.policy.label(),
                pt.mean_gap,
                1e6 / pt.mean_gap as f64,
                pt.p50_ttft,
                pt.p99_ttft,
                pt.mean_queue_delay,
                pt.completed,
                pt.rejected,
                pt.preemptions,
                pt.slo_met,
                pt.attainment,
                pt.goodput_per_mcycle,
                pt.cycles,
                knee.map_or("null".into(), |g| g.to_string()),
                goodput.gap().map_or("null".into(), |g| g.to_string()),
                goodput.status_label(),
            ));
        }
        knees.push((cell.name.to_string(), knee, knee_status, goodput));
    }

    // Deterministic JSONL artifact (byte-identical across runs).
    println!("\n## JSONL");
    for line in &json_points {
        println!("{line}");
    }

    if let Ok(path) = std::env::var("LLAMCAT_FIG_SERVE_JSON") {
        let mut json = String::from("{\n  \"schema\": \"llamcat-fig-serve/4\",\n");
        json.push_str(&format!(
            "  \"seq_len\": {seq_len},\n  \"num_requests\": {n_req},\n  \
             \"arrivals\": \"{}\",\n  \"solo_service_cycles\": {svc},\n  \
             \"solo_ttft\": {solo_ttft},\n  \"ttft_deadline\": {ttft_deadline},\n",
            if bursty { "bursty" } else { "poisson" },
        ));
        json.push_str("  \"knees\": [\n");
        for (i, (name, knee, status, goodput)) in knees.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"cell\": \"{name}\", \"knee_gap\": {}, \"knee_status\": \"{status}\", \
                 \"goodput_knee_gap\": {}, \"goodput_knee_status\": \"{}\"}}{}\n",
                knee.map_or("null".into(), |g| g.to_string()),
                goodput.gap().map_or("null".into(), |g| g.to_string()),
                goodput.status_label(),
                if i + 1 == knees.len() { "" } else { "," }
            ));
        }
        json.push_str("  ],\n  \"points\": [\n");
        for (i, line) in json_points.iter().enumerate() {
            json.push_str(&format!(
                "    {line}{}\n",
                if i + 1 == json_points.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write fig_serve JSON report");
        println!("wrote {path}");
    }
}
