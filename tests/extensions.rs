//! Tests of the paper's §7 future-work extensions implemented here:
//! link-failure tolerance analysis and reliability estimation.

use ftbar::core::analysis::analyze_link_failures;
use ftbar::core::reliability::{estimate, estimate_npf_bound, FailureRates};
use ftbar::model::{LinkId, ProcId, Time};
use ftbar::prelude::*;
use ftbar::sim::reference;
use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};
use proptest::prelude::*;

fn mesh_problem(n_ops: usize, ccr: f64, seed: u64) -> Problem {
    let alg = layered(&LayeredConfig {
        n_ops,
        seed,
        ..Default::default()
    });
    timing(
        alg,
        arch::fully_connected(4),
        &TimingConfig {
            ccr,
            npf: 1,
            seed,
            ..Default::default()
        },
    )
    .expect("valid problem")
}

#[test]
fn point_to_point_schedules_mask_single_link_failures() {
    // The Npf+1 comms of a dependency originate on distinct processors, so
    // on a complete point-to-point mesh they use distinct links.
    for seed in 0..6u64 {
        let problem = mesh_problem(14, 2.0, seed);
        let schedule = ftbar_schedule(&problem).unwrap();
        let report = analyze_link_failures(&problem, &schedule);
        assert!(report.tolerated, "seed {seed}: {report:#?}");
    }
}

#[test]
fn bus_schedules_cannot_mask_a_bus_failure() {
    let alg = layered(&LayeredConfig {
        n_ops: 12,
        seed: 5,
        ..Default::default()
    });
    let problem = timing(
        alg,
        arch::bus(3),
        &TimingConfig {
            ccr: 1.0,
            npf: 1,
            seed: 5,
            ..Default::default()
        },
    )
    .unwrap();
    let schedule = ftbar_schedule(&problem).unwrap();
    // If the schedule needs any inter-processor comm, losing the only bus
    // at t=0 cannot be masked.
    if schedule.comm_count() > 0 {
        let report = analyze_link_failures(&problem, &schedule);
        assert!(!report.tolerated);
    }
}

#[test]
fn late_link_failure_is_harmless() {
    let problem = paper_example();
    let schedule = ftbar_schedule(&problem).unwrap();
    let after = schedule.last_activity() + Time::from_units(1.0);
    let scen = FailureScenario::none(3).with_link_failure(LinkId(0), after);
    let r = replay(&problem, &schedule, &scen);
    assert_eq!(r.completion(), Some(schedule.completion()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reference_matches_replay_under_link_failures(
        n_ops in 3usize..16,
        ccr in 0.3f64..3.0,
        seed in 0u64..10_000,
        link in 0u32..6,
        fail_at in 0u64..10_000,
    ) {
        let problem = mesh_problem(n_ops, ccr, seed);
        let schedule = ftbar_schedule(&problem).expect("schedules");
        let scen = FailureScenario::none(4)
            .with_link_failure(LinkId(link), Time::from_ticks(fail_at));
        let ours = reference::run(&problem, &schedule, &scen);
        let d = ours.disagreement(&replay(&problem, &schedule, &scen));
        prop_assert!(d.is_none(), "{}", d.unwrap_or_default());
    }

    #[test]
    fn combined_proc_and_link_failures_degrade_monotonically(
        n_ops in 4usize..14,
        seed in 0u64..10_000,
    ) {
        // More failures can only lose more replicas (never resurrect one).
        let problem = mesh_problem(n_ops, 1.0, seed);
        let schedule = ftbar_schedule(&problem).expect("schedules");
        let single = FailureScenario::single(4, ProcId(0), Time::ZERO);
        let double = FailureScenario::single(4, ProcId(0), Time::ZERO)
            .with_link_failure(LinkId(1), Time::ZERO);
        let r1 = replay(&problem, &schedule, &single);
        let r2 = replay(&problem, &schedule, &double);
        for i in 0..schedule.replica_count() {
            let lost1 = matches!(r1.outcomes()[i], ftbar::core::ReplicaOutcome::Lost);
            let lost2 = matches!(r2.outcomes()[i], ftbar::core::ReplicaOutcome::Lost);
            // Anything lost with fewer failures stays lost with more.
            if lost1 {
                prop_assert!(lost2, "replica {} resurrected by an extra failure", i);
            }
        }
    }

    #[test]
    fn reliability_decreases_with_rate(
        n_ops in 4usize..12,
        seed in 0u64..10_000,
    ) {
        let problem = mesh_problem(n_ops, 1.0, seed);
        let schedule = ftbar_schedule(&problem).expect("schedules");
        let lo = estimate(&problem, &schedule, &FailureRates::uniform(4, 0.001));
        let hi = estimate(&problem, &schedule, &FailureRates::uniform(4, 0.05));
        prop_assert!(lo.iteration_reliability >= hi.iteration_reliability);
        prop_assert!(lo.iteration_reliability > lo.single_copy_reference);
        // The exact enumeration is never below the Npf closed-form bound.
        let bound = estimate_npf_bound(&problem, &schedule, &FailureRates::uniform(4, 0.05));
        prop_assert!(hi.iteration_reliability + 1e-12 >= bound);
    }
}
