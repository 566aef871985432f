//! Contingency-engine contracts: the static route-coverage verdict and
//! the DES replay verdict must agree on every ≤Npf failure pattern,
//! campaigns must be byte-deterministic across worker counts, and the
//! fault-tolerance certificate must separate FT from non-FT schedules.

use ftbar::core::validate::route_coverage_verdicts;
use ftbar::model::{paper_example, ProcId, Time};
use ftbar::prelude::*;
use ftbar::service::run_campaign;
use ftbar::sim::scenario::{self, ScenarioConfig};
use ftbar::workload::presets::{problem_on, Topology};
use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};

/// The paper example plus one preset problem per topology family.
fn problem_suite() -> Vec<(String, Problem)> {
    let mut suite = vec![("paper".to_owned(), paper_example())];
    for (i, t) in Topology::ALL.into_iter().enumerate() {
        suite.push((
            t.name().to_owned(),
            problem_on(t, 12 + 2 * i, 1.0, 7_000 + i as u64),
        ));
    }
    suite
}

/// Turns a failure-pattern bitmask into `t = 0` fail-silent failures.
fn scenario_of(mask: u64, proc_count: usize) -> FailureScenario {
    let failures: Vec<(ProcId, Time)> = (0..proc_count as u32)
        .filter(|p| mask >> p & 1 == 1)
        .map(|p| (ProcId(p), Time::ZERO))
        .collect();
    FailureScenario::multi(proc_count, &failures)
}

/// Satellite 1: for every ≤Npf pattern on every suite problem, the static
/// validator's route-coverage verdict and the behavioural replay verdict
/// must agree — a disagreement is a bug in one of them.
#[test]
fn static_and_behavioural_verdicts_agree() {
    for (name, problem) in problem_suite() {
        let schedule = ftbar_schedule(&problem).expect("suite problems schedule");
        let verdicts = route_coverage_verdicts(&problem, &schedule);
        assert!(!verdicts.is_empty(), "{name}: Npf = 1 tracks patterns");
        for (mask, covered) in verdicts {
            let result = ftbar::core::replay(
                &problem,
                &schedule,
                &scenario_of(mask, problem.arch().proc_count()),
            );
            assert_eq!(
                result.all_ops_complete(),
                covered,
                "{name}: pattern {mask:#b} static verdict {covered} \
                 disagrees with the replay"
            );
        }
    }
}

/// The agreement must also hold on schedules that do NOT tolerate
/// failures: the non-FT baseline is the negative control.
#[test]
fn non_ft_schedule_fails_statically_and_behaviourally() {
    let problem = paper_example();
    let schedule = schedule_non_ft(&problem).expect("non-FT schedules");
    let verdicts = route_coverage_verdicts(&problem, &schedule);
    assert!(!verdicts.is_empty());
    let mut uncovered = 0;
    for (mask, covered) in verdicts {
        let result = ftbar::core::replay(
            &problem,
            &schedule,
            &scenario_of(mask, problem.arch().proc_count()),
        );
        assert_eq!(result.all_ops_complete(), covered, "pattern {mask:#b}");
        uncovered += usize::from(!covered);
    }
    assert!(uncovered > 0, "single copies cannot mask every failure");
}

/// Satellite 2: same seed ⇒ byte-identical reports for any worker count,
/// mirroring the `batch_service.rs` determinism suite.
#[test]
fn campaign_reports_are_worker_count_invariant() {
    for topology in [Topology::Ring, Topology::Hypercube] {
        let problem = problem_on(topology, 14, 1.0, 9_100);
        let schedule = ftbar_schedule(&problem).unwrap();
        let config = ScenarioConfig {
            beyond: 2,
            samples_per_size: 8,
            exhaustive_cap: 4, // force the sampled path on size 2/3
            links: true,
            jitter_samples: 3,
            seed: 42,
            ..Default::default()
        };
        let serial = run_campaign(&problem, &schedule, &config, 1);
        for workers in [2, 4] {
            let parallel = run_campaign(&problem, &schedule, &config, workers);
            assert_eq!(
                scenario::render_json(&serial),
                scenario::render_json(&parallel),
                "{}: --jobs {workers} changed the report",
                topology.name()
            );
            assert_eq!(
                scenario::render_text(&serial),
                scenario::render_text(&parallel)
            );
        }
        // A different seed must actually change the sampled draws.
        let reseeded = run_campaign(
            &problem,
            &schedule,
            &ScenarioConfig { seed: 43, ..config },
            1,
        );
        assert_eq!(reseeded.scenario_count, serial.scenario_count);
    }
}

/// The paper example's certificate: every Npf = 1 pattern survives, the
/// empirical maximum matches the design bound, and the non-FT baseline
/// FAILs the same check.
#[test]
fn certificate_separates_ft_from_non_ft() {
    let problem = paper_example();
    let ft = ftbar_schedule(&problem).unwrap();
    let report = run_campaign(&problem, &ft, &ScenarioConfig::default(), 2);
    let cert = &report.certificate;
    assert!(cert.pass, "{cert:?}");
    assert_eq!(cert.design_npf, 1);
    assert_eq!(cert.empirical_max, 1);
    assert!(cert.counting_upper >= 1);
    let k1 = &report.sizes[0];
    assert!(k1.exhaustive, "size 1 must be enumerated, not sampled");
    assert_eq!(k1.group.survived, k1.group.scenarios);

    let non_ft = schedule_non_ft(&problem).unwrap();
    let report = run_campaign(&problem, &non_ft, &ScenarioConfig::default(), 2);
    let cert = &report.certificate;
    assert!(!cert.pass, "{cert:?}");
    assert_eq!(cert.empirical_max, 0);
    assert_eq!(cert.counting_upper, 0, "single copies, single hosts");
    assert!(scenario::render_text(&report).contains("certificate: FAIL"));
}

/// Satellite 3 (the >64-processor fallback): pattern tracking degrades to
/// empty on 65 processors, but scheduling, the replay, and the DES
/// simulation still mask a single failure — including of a processor
/// whose index does not fit a 64-bit pattern mask.
#[test]
fn beyond_64_processors_falls_back_without_losing_masking() {
    let alg = layered(&LayeredConfig {
        n_ops: 10,
        seed: 11,
        ..Default::default()
    });
    let problem = timing(
        alg,
        arch::fully_connected(65),
        &TimingConfig {
            ccr: 0.5,
            npf: 1,
            seed: 11,
            ..Default::default()
        },
    )
    .expect("65-processor problem");
    let schedule = ftbar_schedule(&problem).unwrap();
    assert!(
        route_coverage_verdicts(&problem, &schedule).is_empty(),
        "no 64-bit masks beyond 64 processors"
    );

    let mut plan = FaultPlan::new(65);
    plan.permanent(ProcId(64), Time::ZERO);
    let report = simulate(&problem, &schedule, &plan, &SimConfig::default());
    assert!(report.all_masked(), "Npf = 1 masks P64's failure");

    // The campaign still certifies it empirically: the k = 1 sweep is
    // exhaustive (65 subsets) and stands in for the degraded static rule.
    let report = run_campaign(
        &problem,
        &schedule,
        &ScenarioConfig {
            beyond: 0,
            ..Default::default()
        },
        4,
    );
    assert_eq!(report.sizes[0].group.scenarios, 65);
    assert!(report.certificate.pass, "{:?}", report.certificate);
}

/// The data-flow rule of `route_coverage_verdicts`, evaluated the naive
/// way: one pattern at a time, one `bool` per replica and pattern, each
/// dependency's comms found by scanning every comm.
fn naive_route_coverage(problem: &Problem, schedule: &Schedule, masks: &[u64]) -> Vec<bool> {
    let alg = problem.alg();
    let mut surv = vec![vec![false; masks.len()]; schedule.replica_count()];
    for &op in alg.topo_order() {
        for &rid in schedule.replicas_of(op) {
            let rep = schedule.replica(rid);
            for (pi, &mask) in masks.iter().enumerate() {
                if mask >> rep.proc.index() & 1 == 1 {
                    continue;
                }
                surv[rid.index()][pi] = alg.sched_preds(op).all(|(dep, pred)| {
                    let comms: Vec<_> = schedule
                        .comms()
                        .iter()
                        .filter(|c| c.dst == rid && c.dep == dep)
                        .collect();
                    if comms.is_empty() {
                        schedule
                            .replica_on(pred, rep.proc)
                            .is_some_and(|l| surv[l.index()][pi])
                    } else {
                        comms.iter().any(|c| {
                            surv[c.src.index()][pi]
                                && c.hops.iter().all(|h| mask >> h.from.index() & 1 == 0)
                        })
                    }
                });
            }
        }
    }
    (0..masks.len())
        .map(|pi| {
            alg.ops().all(|op| {
                schedule
                    .replicas_of(op)
                    .iter()
                    .any(|&r| surv[r.index()][pi])
            })
        })
        .collect()
}

/// The bitset route-coverage rule equals the naive per-pattern oracle on
/// seeded full(5), ring(6), mesh:3x2 and hypercube:3 specs at Npf 1 and 2,
/// and on full(12) at Npf 2, whose 78 patterns fill a second bitset word.
#[test]
fn route_coverage_verdicts_equal_a_naive_per_pattern_oracle() {
    let machines = [
        ("full5", arch::fully_connected(5)),
        ("ring6", arch::ring(6)),
        ("mesh3x2", arch::mesh(3, 2)),
        ("hypercube3", arch::hypercube(3)),
    ];
    let mut cases = Vec::new();
    for (i, (name, machine)) in machines.into_iter().enumerate() {
        for npf in [1, 2] {
            for seed in [0u64, 1] {
                cases.push((name, machine.clone(), 40, npf, 8_000 + 10 * i as u64 + seed));
            }
        }
    }
    cases.push(("full12", arch::fully_connected(12), 30, 2, 8_100));
    let mut uncovered = 0;
    for (name, machine, n_ops, npf, seed) in cases {
        let alg = layered(&LayeredConfig {
            n_ops,
            seed,
            ..Default::default()
        });
        let config = TimingConfig {
            ccr: 2.0,
            npf,
            seed,
            ..Default::default()
        };
        let problem = timing(alg, machine, &config).expect("generated problems are valid");
        let schedule = ftbar_schedule(&problem).expect("schedules");
        let verdicts = route_coverage_verdicts(&problem, &schedule);
        let n = problem.arch().proc_count();
        let expected_patterns = n + if npf == 2 { n * (n - 1) / 2 } else { 0 };
        assert_eq!(verdicts.len(), expected_patterns, "{name}: pattern count");
        let masks: Vec<u64> = verdicts.iter().map(|&(m, _)| m).collect();
        let oracle = naive_route_coverage(&problem, &schedule, &masks);
        for ((mask, covered), want) in verdicts.into_iter().zip(oracle) {
            assert_eq!(
                covered, want,
                "{name} Npf {npf} seed {seed}: pattern {mask:#b}"
            );
            uncovered += usize::from(!covered);
        }
    }
    assert!(uncovered > 0, "the suite exercises uncovered patterns too");
}
