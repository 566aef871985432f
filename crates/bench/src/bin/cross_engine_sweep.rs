//! Wide differential sweep of the timed replay against the reference
//! replay (`ftbar_sim::reference`), plus the static route-coverage rule
//! against the timed masking verdict.
//!
//! ```text
//! cargo run --release -p ftbar-bench --bin cross_engine_sweep [-- --test]
//! ```
//!
//! For every generated FTBAR schedule over full, ring, mesh, hypercube and
//! bus machines at Npf 1 and 2, the sweep replays the fault-free run, every
//! single processor failure at 0, mid-schedule and at an instant spread
//! across the schedule by processor, every link failure mid-schedule, and
//! at Npf 2 every processor pair. Any
//! replica outcome or comm arrival on which the two replays differ is a
//! `disagreement` and makes the run exit 1.
//!
//! It also compares, for every failure pattern of at most Npf processors
//! failing at 0, `validate::route_coverage_verdicts` with whether the timed
//! replay completes every operation. Those disagreements are printed but do
//! not fail the run: they are the known gap between the static rule and
//! the static-order deadlocks the replay sees.
//!
//! `--test` runs a small sweep (under a second) for CI; the full sweep
//! takes minutes.

use ftbar_core::{ftbar, replay, validate, FailureScenario, Schedule};
use ftbar_model::{Arch, LinkId, Problem, ProcId, Time};
use ftbar_sim::reference;
use ftbar_workload::{arch, layered, timing, LayeredConfig, TimingConfig};

/// The scenarios replayed on one schedule.
fn scenarios(problem: &Problem, schedule: &Schedule) -> Vec<FailureScenario> {
    let procs = problem.arch().proc_count();
    let makespan = schedule.makespan().ticks();
    let mid = Time::from_ticks(makespan / 2);
    let mut out = vec![FailureScenario::none(procs)];
    for p in problem.arch().procs() {
        let k = 2 * u64::from(p.0) + 1;
        let spread = Time::from_ticks(makespan * k / (2 * procs as u64 + 1));
        for t in [Time::ZERO, mid, spread] {
            out.push(FailureScenario::single(procs, p, t));
        }
    }
    for l in 0..schedule.link_count() {
        out.push(FailureScenario::none(procs).with_link_failure(LinkId(l as u32), mid));
    }
    if problem.npf() >= 2 {
        for p in problem.arch().procs() {
            for q in problem.arch().procs().filter(|&q| q > p) {
                out.push(FailureScenario::multi(procs, &[(p, Time::ZERO), (q, mid)]));
            }
        }
    }
    out
}

/// Patterns on which the static route-coverage rule and the timed replay
/// disagree, as `(failed processors, static verdict)`.
fn coverage_disagreements(problem: &Problem, schedule: &Schedule) -> Vec<(Vec<u32>, bool)> {
    let procs = problem.arch().proc_count();
    validate::route_coverage_verdicts(problem, schedule)
        .into_iter()
        .filter_map(|(mask, covered)| {
            let failed: Vec<u32> = (0..procs as u32).filter(|p| mask >> p & 1 == 1).collect();
            let at_zero: Vec<(ProcId, Time)> =
                failed.iter().map(|&p| (ProcId(p), Time::ZERO)).collect();
            let scen = FailureScenario::multi(procs, &at_zero);
            let masked = replay(problem, schedule, &scen).all_ops_complete();
            (masked != covered).then_some((failed, covered))
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let machines: [(&str, Arch); 7] = [
        ("full4", arch::fully_connected(4)),
        ("full5", arch::fully_connected(5)),
        ("ring4", arch::ring(4)),
        ("ring6", arch::ring(6)),
        ("mesh3x2", arch::mesh(3, 2)),
        ("hypercube3", arch::hypercube(3)),
        ("bus4", arch::bus(4)),
    ];
    let (sizes, ccrs, seeds): (&[usize], &[f64], u64) = if smoke {
        (&[12, 40], &[0.5, 2.0], 2)
    } else {
        (&[20, 60, 150, 200], &[0.5, 2.0, 5.0], 4)
    };

    let mut disagreements = 0usize;
    let mut coverage_total = 0usize;
    for (name, machine) in &machines {
        let (mut problems, mut replays, mut machine_disagreements, mut coverage) = (0, 0, 0, 0);
        for npf in [1u32, 2] {
            for &n_ops in sizes {
                for &ccr in ccrs {
                    for seed in 0..seeds {
                        let seed = 1_000 * n_ops as u64 + seed;
                        let alg = layered(&LayeredConfig {
                            n_ops,
                            seed,
                            ..Default::default()
                        });
                        let config = TimingConfig {
                            ccr,
                            npf,
                            seed,
                            ..Default::default()
                        };
                        let label = format!("{name} n={n_ops} ccr={ccr} npf={npf} seed={seed}");
                        let Ok(problem) = timing(alg, machine.clone(), &config) else {
                            println!("{label}: skipped (invalid problem)");
                            continue;
                        };
                        let Ok(schedule) = ftbar::schedule(&problem) else {
                            println!("{label}: skipped (unschedulable)");
                            continue;
                        };
                        problems += 1;
                        for scen in scenarios(&problem, &schedule) {
                            replays += 1;
                            let ours = reference::run(&problem, &schedule, &scen);
                            if let Some(d) = ours.disagreement(&replay(&problem, &schedule, &scen))
                            {
                                machine_disagreements += 1;
                                println!("{label}: disagreement {d} under {scen:?}");
                            }
                        }
                        for (failed, covered) in coverage_disagreements(&problem, &schedule) {
                            coverage += 1;
                            println!(
                                "{label}: route-coverage says {} but the replay says {} for {failed:?} at 0",
                                if covered { "masked" } else { "unmasked" },
                                if covered { "unmasked" } else { "masked" },
                            );
                        }
                    }
                }
            }
        }
        println!(
            "{name:<11} {problems:>4} schedules {replays:>6} replays \
             {machine_disagreements} disagreement(s) {coverage} route-coverage disagreement(s)"
        );
        disagreements += machine_disagreements;
        coverage_total += coverage;
    }
    println!(
        "total: {disagreements} reference/replay disagreement(s), \
         {coverage_total} route-coverage/replay disagreement(s) (reported, not gated)"
    );
    if disagreements > 0 {
        std::process::exit(1);
    }
}
