//! Cross-engine agreement: the three execution engines — analytic replay,
//! multi-iteration DES, and the threaded executive — must tell the same
//! story about the same schedule and scenario.

use ftbar::model::{ProcId, Time};
use ftbar::prelude::*;
use ftbar::sim::executive::{self, ExecOutcome};
use ftbar::workload::presets::{problem_on, Topology};
use proptest::prelude::*;

fn make_problem(n_ops: usize, ccr: f64, seed: u64) -> Problem {
    problem_on(Topology::Full, n_ops, ccr, seed)
}

fn assert_executive_matches_replay(problem: &Problem, scen: &FailureScenario) {
    let schedule = ftbar_schedule(problem).expect("schedules");
    let exec = executive::run(problem, &schedule, scen).expect("single-hop");
    let ana = replay(problem, &schedule, scen);
    for i in 0..schedule.replica_count() {
        let expected = match ana.outcomes()[i] {
            ftbar::core::ReplicaOutcome::Completed { start, end } => {
                ExecOutcome::Completed { start, end }
            }
            ftbar::core::ReplicaOutcome::Lost => ExecOutcome::Lost,
        };
        assert_eq!(exec.outcomes[i], expected, "replica {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn executive_equals_replay_on_random_problems(
        n_ops in 3usize..18,
        ccr in 0.2f64..4.0,
        seed in 0u64..10_000,
        failing in 0u32..4,
        fail_at in 0u64..12_000,
    ) {
        let problem = make_problem(n_ops, ccr, seed);
        let scen = FailureScenario::single(
            4,
            ProcId(failing),
            Time::from_ticks(fail_at),
        );
        assert_executive_matches_replay(&problem, &scen);
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
fn nominal_executive_equals_replay_on_paper_example() {
    let problem = paper_example();
    assert_executive_matches_replay(&problem, &FailureScenario::none(3));
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

/// Golden schedule snapshots: the engine-pipeline refactor must leave both
/// schedulers **bit-identical** on these pinned instances.
///
/// The JSON files under `tests/golden/` were generated from the
/// pre-refactor (PR 3) schedulers. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test cross_engine golden` — never as a
/// side effect of making a failing test pass.
mod golden {
    use ftbar::core::Schedule;
    use ftbar::model::Problem;
    use ftbar::prelude::*;
    use ftbar::workload::presets::{problem_on, Topology};
    use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};

    /// A layered problem on a fully connected `procs`-processor machine at
    /// CCR 2 and `Npf = 1`.
    fn full_problem(procs: usize, n_ops: usize, seed: u64) -> Problem {
        let alg = layered(&LayeredConfig {
            n_ops,
            seed,
            ..Default::default()
        });
        let config = TimingConfig {
            ccr: 2.0,
            npf: 1,
            seed,
            ..Default::default()
        };
        timing(alg, arch::fully_connected(procs), &config).expect("generated problems are valid")
    }

    /// One pinned instance per supported topology family, plus two
    /// fully connected instances above the adaptive sweep cutoff, so the
    /// incremental engine is pinned too.
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
        for (name, problem) in cases() {
            check("ftbar", name, &ftbar_schedule(&problem).expect("schedules"));
        }
    }

    #[test]
    fn hbp_matches_pinned_schedules() {
        for (name, problem) in cases() {
            check("hbp", name, &hbp_schedule(&problem).expect("schedules"));
        }
    }
}

#[test]
fn executive_rejects_multi_hop_topologies() {
    // On a ring, some comms need two hops; the executive must refuse
    // rather than silently misexecute.
    let problem = problem_on(Topology::Ring, 10, 1.0, 3);
    let schedule = ftbar_schedule(&problem).unwrap();
    let has_multi_hop = schedule.comms().iter().any(|c| c.hops.len() > 1);
    let result = executive::run(&problem, &schedule, &FailureScenario::none(4));
    if has_multi_hop {
        assert!(result.is_err());
    } else {
        assert!(result.is_ok());
    }
}
