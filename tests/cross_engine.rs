//! Cross-engine agreement: the analytic replay, the naive reference replay
//! and the multi-iteration DES must tell the same story about the same
//! schedule and scenario.

use ftbar::model::{Arch, LinkId, ProcId, Time};
use ftbar::prelude::*;
use ftbar::sim::reference;
use ftbar::workload::presets::{problem_on, Topology};
use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};
use proptest::prelude::*;

fn make_problem(n_ops: usize, ccr: f64, seed: u64) -> Problem {
    problem_on(Topology::Full, n_ops, ccr, seed)
}

/// A generated instance, as `ftbar gen` builds it.
fn generated(machine: Arch, n_ops: usize, ccr: f64, npf: u32, seed: u64) -> Problem {
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
    timing(alg, machine, &config).expect("generated problems are valid")
}

/// Every replica outcome and every comm arrival of the reference replay
/// equals the analytic replay's.
fn assert_reference_matches_replay(problem: &Problem, schedule: &Schedule, scen: &FailureScenario) {
    let ours = reference::run(problem, schedule, scen);
    if let Some(d) = ours.disagreement(&replay(problem, schedule, scen)) {
        panic!("{d} under {scen:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reference_equals_replay_on_random_problems(
        n_ops in 3usize..18,
        ccr in 0.2f64..4.0,
        seed in 0u64..10_000,
        failing in 0u32..4,
        fail_at in 0u64..12_000,
    ) {
        let problem = make_problem(n_ops, ccr, seed);
        let schedule = ftbar_schedule(&problem).expect("schedules");
        let scen = FailureScenario::single(
            4,
            ProcId(failing),
            Time::from_ticks(fail_at),
        );
        assert_reference_matches_replay(&problem, &schedule, &scen);
    }

    #[test]
    fn des_first_iteration_equals_replay_completion(
        n_ops in 3usize..18,
        ccr in 0.2f64..4.0,
        seed in 0u64..10_000,
        failing in 0u32..4,
    ) {
        let problem = make_problem(n_ops, ccr, seed);
        let schedule = ftbar_schedule(&problem).expect("schedules");
        let scen = FailureScenario::single(4, ProcId(failing), Time::ZERO);
        let ana = replay(&problem, &schedule, &scen);

        let mut plan = FaultPlan::new(4);
        plan.permanent(ProcId(failing), Time::ZERO);
        let sim = simulate(&problem, &schedule, &plan, &SimConfig::default());
        prop_assert_eq!(sim.iterations[0].completion, ana.completion());
    }
}

#[test]
fn nominal_reference_equals_replay_on_paper_example() {
    let problem = paper_example();
    let schedule = ftbar_schedule(&problem).expect("schedules");
    assert_reference_matches_replay(&problem, &schedule, &FailureScenario::none(3));
}

/// Store-and-forward machines, each at Npf 1 and 2: every single processor
/// failure at 0 and mid-schedule, every link failure mid-schedule, and at
/// Npf 2 every pair of processors failing at 0 and mid-schedule.
#[test]
fn reference_equals_replay_on_multi_hop_topologies() {
    let machines = [
        ("ring4", arch::ring(4)),
        ("ring6", arch::ring(6)),
        ("mesh3x2", arch::mesh(3, 2)),
        ("hypercube3", arch::hypercube(3)),
    ];
    for (i, (name, machine)) in machines.into_iter().enumerate() {
        for npf in [1, 2] {
            let seed = 40 + 2 * i as u64 + u64::from(npf);
            let problem = generated(machine.clone(), 30, 2.0, npf, seed);
            let schedule = ftbar_schedule(&problem).expect("schedules");
            assert!(
                schedule.comms().iter().any(|c| c.hops.len() > 1),
                "{name}: no multi-hop comm to check"
            );
            let procs = problem.arch().proc_count();
            let mid = Time::from_ticks(schedule.makespan().ticks() / 2);
            let mut scens = vec![FailureScenario::none(procs)];
            for p in problem.arch().procs() {
                scens.push(FailureScenario::single(procs, p, Time::ZERO));
                scens.push(FailureScenario::single(procs, p, mid));
            }
            for l in 0..schedule.link_count() {
                scens.push(FailureScenario::none(procs).with_link_failure(LinkId(l as u32), mid));
            }
            if npf == 2 {
                for p in problem.arch().procs() {
                    for q in problem.arch().procs().filter(|&q| q > p) {
                        scens.push(FailureScenario::multi(procs, &[(p, Time::ZERO), (q, mid)]));
                    }
                }
            }
            for scen in &scens {
                assert_reference_matches_replay(&problem, &schedule, scen);
            }
        }
    }
}

#[test]
fn des_steady_state_is_periodic_without_failures() {
    let problem = make_problem(14, 1.5, 7);
    let schedule = ftbar_schedule(&problem).unwrap();
    let sim = simulate(
        &problem,
        &schedule,
        &FaultPlan::new(4),
        &SimConfig {
            iterations: 5,
            detection: Detection::None,
        },
    );
    assert!(sim.all_masked());
    let period = sim.iterations[1].start - sim.iterations[0].start;
    for w in sim.iterations.windows(2) {
        assert_eq!(w[1].start - w[0].start, period, "iterations drift");
    }
}

/// Scenarios on which a seeded differential sweep caught the replay
/// breaking a rule of DESIGN.md §7: a cancelled comm releases its later
/// hops at once (rule 6); a grant sees every hop made ready at its instant
/// (rule 7); a pending hop booked exactly at the arbitration instant still
/// holds its slot (rule 3); a failed relay's comms are cancelled at the
/// failure (rule 5).
#[test]
fn reference_equals_replay_on_pinned_sweep_cases() {
    type Case = (Arch, usize, f64, u32, u64, &'static [(u32, u64)]);
    let cases: [Case; 6] = [
        (arch::ring(6), 9, 0.5, 1, 158, &[(3, 0)]),
        (arch::fully_connected(5), 50, 1.5, 2, 187, &[(2, 0)]),
        (arch::ring(6), 21, 1.5, 1, 34, &[(0, 7806), (1, 3903)]),
        (
            arch::fully_connected(5),
            36,
            4.5,
            1,
            125,
            &[(0, 1994), (4, 3988)],
        ),
        (arch::ring(4), 26, 0.5, 2, 467, &[(0, 2786), (3, 5573)]),
        (arch::ring(6), 49, 0.5, 1, 158, &[(2, 28742)]),
    ];
    for (machine, n_ops, ccr, npf, seed, failures) in cases {
        let problem = generated(machine, n_ops, ccr, npf, seed);
        let schedule = ftbar_schedule(&problem).expect("schedules");
        let failures: Vec<(ProcId, Time)> = failures
            .iter()
            .map(|&(p, t)| (ProcId(p), Time::from_ticks(t)))
            .collect();
        let scen = FailureScenario::multi(problem.arch().proc_count(), &failures);
        assert_reference_matches_replay(&problem, &schedule, &scen);
    }
}

/// Characterization of a known gap between the static `route-coverage`
/// rule and the timed replay (ROADMAP item 1): on this N = 12 ring(6)
/// schedule at `Npf = 2`, the static rule calls the failure of {P3, P5}
/// at 0 masked, while the replay and the reference replay both lose an
/// operation. Fixing item 1 must flip this test: whichever side is wrong,
/// the two verdicts must then agree.
#[test]
fn route_coverage_calls_masked_what_both_replays_lose() {
    let problem = generated(arch::ring(6), 12, 0.5, 2, 12001);
    let schedule = ftbar_schedule(&problem).expect("schedules");
    let mask = 1 << 3 | 1 << 5;
    let verdicts = ftbar::core::validate::route_coverage_verdicts(&problem, &schedule);
    assert_eq!(
        verdicts.iter().find(|&&(m, _)| m == mask),
        Some(&(mask, true)),
        "route-coverage says {{P3, P5}} at 0 is masked"
    );
    let scen = FailureScenario::multi(6, &[(ProcId(3), Time::ZERO), (ProcId(5), Time::ZERO)]);
    assert!(
        !replay(&problem, &schedule, &scen).all_ops_complete(),
        "the replay loses an operation"
    );
    let ours = reference::run(&problem, &schedule, &scen);
    let lost = problem.alg().ops().find(|&op| {
        schedule
            .replicas_of(op)
            .iter()
            .all(|r| ours.outcomes[r.index()].end().is_none())
    });
    assert!(lost.is_some(), "the reference replay loses an operation");
}

/// Golden schedule snapshots: the engine-pipeline refactor must leave both
/// schedulers **bit-identical** on these pinned instances.
///
/// The JSON files under `tests/golden/` were generated from the
/// pre-refactor (PR 3) schedulers. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test cross_engine golden` — never as a
/// side effect of making a failing test pass.
mod golden {
    use ftbar::core::{DuplicationStats, Schedule, SweepStrategy};
    use ftbar::model::Problem;
    use ftbar::prelude::*;
    use ftbar::workload::presets::{problem_on, Topology};
    use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};

    /// A layered problem on `arch` at `Npf = 1`.
    fn layered_problem(arch: ftbar::model::Arch, n_ops: usize, ccr: f64, seed: u64) -> Problem {
        let alg = layered(&LayeredConfig {
            n_ops,
            seed,
            ..Default::default()
        });
        let config = TimingConfig {
            ccr,
            npf: 1,
            seed,
            ..Default::default()
        };
        timing(alg, arch, &config).expect("generated problems are valid")
    }

    /// A layered problem on a fully connected `procs`-processor machine at
    /// CCR 2 and `Npf = 1`.
    fn full_problem(procs: usize, n_ops: usize, seed: u64) -> Problem {
        layered_problem(arch::fully_connected(procs), n_ops, 2.0, seed)
    }

    /// One pinned instance per supported topology family, plus two
    /// fully connected N = 200 instances.
    fn cases() -> Vec<(&'static str, Problem)> {
        vec![
            ("paper", paper_example()),
            ("ring4_seed11", problem_on(Topology::Ring, 24, 1.5, 11)),
            ("mesh3x2_seed12", problem_on(Topology::Mesh, 24, 1.5, 12)),
            (
                "hypercube3_seed13",
                problem_on(Topology::Hypercube, 24, 1.5, 13),
            ),
            ("full4_n200_seed14", full_problem(4, 200, 14)),
            ("full6_n200_seed15", full_problem(6, 200, 15)),
        ]
    }

    /// FTBAR-only instances where `Minimize_start_time` duplicates
    /// heavily (CCR 5, N = 300). On the multi-hop topologies one
    /// placement's comms share links (relayed routes, coverage
    /// alternatives), and deep nested duplications are kept and rolled
    /// back; at `Npf = 2` coverage augmentation adds alternative routes
    /// most often. The fully connected `Npf = 0` instance has one input
    /// per dependency, so nearly every placement tries a duplication.
    fn duplication_heavy_cases() -> Vec<(&'static str, Problem)> {
        vec![
            (
                "mesh3x2_n300_seed16",
                layered_problem(arch::mesh(3, 2), 300, 5.0, 16),
            ),
            (
                "ring6_n300_seed17",
                layered_problem(arch::ring(6), 300, 5.0, 17),
            ),
            (
                "full4_npf0_n300_seed40",
                super::generated(arch::fully_connected(4), 300, 5.0, 0, 40),
            ),
            (
                "ring6_npf2_n300_seed20",
                super::generated(arch::ring(6), 300, 5.0, 2, 20),
            ),
            (
                "mesh3x2_npf2_n300_seed22",
                super::generated(arch::mesh(3, 2), 300, 5.0, 2, 22),
            ),
        ]
    }

    fn golden_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("golden")
    }

    fn check(scheduler: &str, name: &str, schedule: &Schedule) {
        let path = golden_dir().join(format!("{scheduler}_{name}.json"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(golden_dir()).unwrap();
            let json = serde_json::to_string_pretty(schedule).expect("schedules serialize");
            std::fs::write(&path, json + "\n").unwrap();
            return;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        let pinned: Schedule = serde_json::from_str(text.trim()).expect("golden parses");
        assert_eq!(
            *schedule, pinned,
            "{scheduler} diverged from the pinned pre-refactor schedule on `{name}`"
        );
    }

    #[test]
    fn ftbar_matches_pinned_schedules() {
        // The default (incremental) sweep and the naive reference sweep
        // must both reproduce the pinned bytes.
        let naive = FtbarConfig {
            sweep: SweepStrategy::Naive,
            ..FtbarConfig::default()
        };
        for (name, problem) in cases() {
            check("ftbar", name, &ftbar_schedule(&problem).expect("schedules"));
            let oracle = ftbar_schedule_with(&problem, &naive).expect("schedules");
            check("ftbar", name, &oracle.schedule);
        }
    }

    #[test]
    fn ftbar_matches_pinned_duplication_heavy_schedules() {
        for (name, problem) in duplication_heavy_cases() {
            let schedule = ftbar_schedule(&problem).expect("schedules");
            let duplicated = schedule.replicas().iter().filter(|r| r.duplicated).count();
            assert!(
                duplicated * 4 >= problem.alg().op_count(),
                "`{name}` should duplicate heavily, got {duplicated} duplicates"
            );
            check("ftbar", name, &schedule);
        }
    }

    #[test]
    fn duplication_bound_prunes_trials_on_the_npf0_instance() {
        let (_, problem) = duplication_heavy_cases()
            .into_iter()
            .find(|(name, _)| *name == "full4_npf0_n300_seed40")
            .expect("pinned case");
        let out = ftbar_schedule_with(&problem, &FtbarConfig::default()).expect("schedules");
        let d = out.dup_stats;
        assert!(d.pruned > 0, "no trial pruned: {d}");
        assert_eq!(d.trials, d.accepted + d.rejected);
    }

    #[test]
    fn duplication_counters_match_the_pinned_runs() {
        // Pruning, aborts and cheaper evaluations must not change what
        // `Minimize_start_time` does, only what it costs: every counter
        // of these runs is pinned. So are the sweep's counters, as
        // `(probes, recomputes, skipped_ops, bound_skips, version_hits +
        // replay_hits)`: the probe cache may serve a hit from another
        // tier, but must never re-plan a row more often.
        let pinned = [
            (
                "mesh3x2_n300_seed16",
                DuplicationStats {
                    evaluations: 10517,
                    trials: 5021,
                    accepted: 2502,
                    rejected: 2519,
                    pruned: 127,
                    aborted: 125,
                    max_depth: 24,
                    committed_replicas: 5496,
                    committed_comms: 21803,
                    rolled_back_replicas: 4098,
                    rolled_back_comms: 21677,
                },
                (3324, 2322, 1476, 2741, 1002),
            ),
            (
                "ring6_n300_seed17",
                DuplicationStats {
                    evaluations: 12774,
                    trials: 6143,
                    accepted: 2835,
                    rejected: 3308,
                    pruned: 39,
                    aborted: 112,
                    max_depth: 24,
                    committed_replicas: 6631,
                    committed_comms: 32059,
                    rolled_back_replicas: 5297,
                    rolled_back_comms: 31948,
                },
                (2316, 1985, 1283, 1677, 331),
            ),
        ];
        let cases = duplication_heavy_cases();
        for (name, stats, sweep) in pinned {
            let (_, problem) = cases.iter().find(|(n, _)| *n == name).expect("pinned case");
            let out = ftbar_schedule_with(problem, &FtbarConfig::default()).expect("schedules");
            assert_eq!(out.dup_stats, stats, "`{name}`: {}", out.dup_stats);
            let s = out
                .sweep_stats
                .expect("the incremental sweep records stats");
            let hits = s.version_hits + s.replay_hits;
            let got = (s.probes, s.recomputes, s.skipped_ops, s.bound_skips, hits);
            assert_eq!(got, sweep, "`{name}`: {s}");
        }
    }

    #[test]
    fn hbp_matches_pinned_schedules() {
        for (name, problem) in cases() {
            check("hbp", name, &hbp_schedule(&problem).expect("schedules"));
        }
    }
}

/// One `ReplayPlan` replays every scenario — processor patterns at 0 and
/// mid-schedule, link failures, `suppress_comms_to` and
/// `extend_durations` — forward, then in reverse, then split across two
/// threads; every result equals a fresh `replay_with`, so no run state
/// leaks from one run into the next.
#[test]
fn one_replay_plan_equals_fresh_replays_in_any_order() {
    use ftbar::core::{replay_with, ReplayConfig, ReplayPlan};

    let mut unmasked = 0;
    for (machine, npf, seed) in [
        (arch::ring(6), 2, 61),
        (arch::mesh(3, 2), 1, 62),
        (arch::fully_connected(5), 2, 63),
    ] {
        let problem = generated(machine, 40, 2.0, npf, seed);
        let schedule = ftbar_schedule(&problem).expect("schedules");
        let procs = problem.arch().proc_count();
        let mid = Time::from_ticks(schedule.makespan().ticks() / 2);
        let quiet = ReplayConfig::default();
        let suppress_p0 = ReplayConfig {
            suppress_comms_to: (0..procs).map(|p| p == 0).collect(),
            ..Default::default()
        };
        let jitter = ReplayConfig {
            extend_durations: (0..schedule.replica_count())
                .map(|r| Time::from_ticks(r as u64 % 7 * 300))
                .collect(),
            ..Default::default()
        };
        let mut runs = vec![(FailureScenario::none(procs), jitter.clone())];
        for p in problem.arch().procs() {
            for at in [Time::ZERO, mid] {
                runs.push((FailureScenario::single(procs, p, at), quiet.clone()));
                if npf == 2 {
                    for q in problem.arch().procs().filter(|&q| q > p) {
                        let pair = FailureScenario::multi(procs, &[(p, at), (q, mid)]);
                        runs.push((pair, quiet.clone()));
                    }
                }
            }
        }
        runs.push((
            FailureScenario::single(procs, ProcId(0), Time::ZERO),
            suppress_p0,
        ));
        runs.push((FailureScenario::single(procs, ProcId(1), mid), jitter));
        for l in problem.arch().links() {
            let link_down = FailureScenario::none(procs).with_link_failure(l, mid);
            runs.push((link_down.clone(), quiet.clone()));
            runs.push((
                FailureScenario::single(procs, ProcId(2), Time::ZERO)
                    .with_link_failure(l, Time::ZERO),
                quiet.clone(),
            ));
        }

        let fresh: Vec<_> = runs
            .iter()
            .map(|(scen, cfg)| replay_with(&problem, &schedule, scen, cfg))
            .collect();
        let plan = ReplayPlan::new(&problem, &schedule);
        for (i, (scen, cfg)) in runs.iter().enumerate() {
            assert_eq!(plan.run(scen, cfg), fresh[i], "forward run {i}: {scen:?}");
        }
        for (i, (scen, cfg)) in runs.iter().enumerate().rev() {
            assert_eq!(plan.run(scen, cfg), fresh[i], "reverse run {i}: {scen:?}");
        }
        let half = runs.len() / 2;
        std::thread::scope(|s| {
            let plan = &plan;
            let (front, back) = runs.split_at(half);
            let t = s.spawn(move || {
                front
                    .iter()
                    .map(|(sc, c)| plan.run(sc, c))
                    .collect::<Vec<_>>()
            });
            let tail: Vec<_> = back.iter().map(|(sc, c)| plan.run(sc, c)).collect();
            let head = t.join().expect("the worker replays");
            assert_eq!([head, tail].concat(), fresh, "runs split across threads");
        });
        unmasked += fresh.iter().filter(|r| !r.all_ops_complete()).count();
    }
    assert!(unmasked > 0, "the scenarios include unmasked ones");
}
