//! Replay goldens: the timed replay, the failure analysis built on it, the
//! validator's violation list, the multi-iteration DES and the reference
//! replay must keep producing exactly the pinned bytes.
//!
//! Mid-schedule failures (the thorough analysis, and one explicit replay
//! per instance) exercise the forfeit and cancel paths of link arbitration;
//! the multi-hop ring and mesh instances exercise store-and-forward chains.
//!
//! The files `tests/golden/replay_*.txt` were generated from the quadratic
//! replay, before the comm adjacency index and the link head cursor.
//! Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test
//! replay_golden` — never as a side effect of making a failing test pass.

use std::fmt::Write as _;

use ftbar::core::analysis::{analyze_link_failures, analyze_with, AnalysisConfig};
use ftbar::core::ReplicaOutcome;
use ftbar::model::{Arch, ProcId};
use ftbar::prelude::*;
use ftbar::sim::reference;
use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};

/// A generated instance, as `ftbar gen` builds it.
fn generated(machine: Arch, n_ops: usize, ccr: f64, npf: u32, seed: u64) -> Problem {
    let alg = layered(&LayeredConfig {
        n_ops,
        seed,
        ..Default::default()
    });
    timing(
        alg,
        machine,
        &TimingConfig {
            ccr,
            npf,
            seed,
            ..Default::default()
        },
    )
    .expect("generated problems are valid")
}

/// The pinned instances: the paper example, and seeded multi-hop
/// architectures at Npf 1 and 2.
fn cases() -> Vec<(&'static str, Problem)> {
    vec![
        ("paper", paper_example()),
        ("ring6_npf1", generated(arch::ring(6), 80, 2.0, 1, 21)),
        ("ring6_npf2", generated(arch::ring(6), 80, 2.0, 2, 22)),
        ("mesh3x2_npf1", generated(arch::mesh(3, 2), 80, 2.0, 1, 23)),
        ("mesh3x2_npf2", generated(arch::mesh(3, 2), 80, 2.0, 2, 24)),
    ]
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("reports serialize")
}

/// 64-bit FNV-1a: a stable digest independent of the standard library's
/// hasher.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("replay_{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        actual == pinned,
        "replay output diverged from the pinned golden `{}`",
        path.display()
    );
}

/// The first `npf` processors, failing at half the nominal makespan.
fn mid_failure(problem: &Problem, schedule: &Schedule) -> FailureScenario {
    let at = Time::from_ticks(schedule.makespan().ticks() / 2);
    let failures: Vec<(ProcId, Time)> = (0..problem.npf()).map(|p| (ProcId(p), at)).collect();
    FailureScenario::multi(problem.arch().proc_count(), &failures)
}

#[test]
fn analysis_reports_match_pinned_bytes() {
    for (name, problem) in cases() {
        let schedule = ftbar_schedule(&problem).expect("schedules");
        let mut out = String::new();
        // Thousands of scenarios per instance: pin their JSON by digest,
        // with the summary in clear.
        let thorough = analyze_with(&problem, &schedule, &AnalysisConfig { thorough: true });
        let unmasked = thorough
            .scenarios
            .iter()
            .filter(|s| s.completion.is_none())
            .count();
        let lines: String = thorough.scenarios.iter().map(|s| json(s) + "\n").collect();
        writeln!(out, "thorough scenarios: {}", thorough.scenarios.len()).unwrap();
        writeln!(out, "unmasked: {unmasked}").unwrap();
        writeln!(out, "scenarios fnv1a64: {:016x}", fnv1a64(lines.as_bytes())).unwrap();
        writeln!(out, "nominal: {}", json(&thorough.nominal)).unwrap();
        writeln!(out, "worst: {}", json(&thorough.worst_completion)).unwrap();
        writeln!(out, "tolerated: {}", json(&thorough.tolerated)).unwrap();
        writeln!(out, "rtc_met: {}", json(&thorough.rtc_met)).unwrap();
        writeln!(
            out,
            "links: {}",
            json(&analyze_link_failures(&problem, &schedule))
        )
        .unwrap();
        let scen = mid_failure(&problem, &schedule);
        writeln!(out, "mid-failure replay: {}", json(&scen)).unwrap();
        writeln!(out, "{}", json(&replay(&problem, &schedule, &scen))).unwrap();
        check(name, &out);
    }
}

#[test]
fn non_ft_violations_match_pinned_text() {
    // The Npf = 0 schedule checked against the Npf = 1 problem: masking
    // fails, so the validator's full violation list is pinned.
    let problem = paper_example();
    let schedule = schedule_non_ft(&problem).expect("schedules");
    let mut out = String::new();
    for v in validate(&problem, &schedule) {
        writeln!(out, "{v}").unwrap();
    }
    check("validate_paper_non_ft", &out);
}

#[test]
fn des_and_reference_match_pinned_outcomes() {
    // The DES on a multi-hop instance, one permanent mid-schedule failure,
    // over three iterations.
    let problem = generated(arch::ring(6), 80, 2.0, 1, 21);
    let schedule = ftbar_schedule(&problem).expect("schedules");
    let at = Time::from_ticks(schedule.makespan().ticks() / 2);
    let mut plan = FaultPlan::new(problem.arch().proc_count());
    plan.permanent(ProcId(2), at);
    let config = SimConfig {
        iterations: 3,
        ..SimConfig::default()
    };
    check(
        "des_ring6_npf1",
        &(json(&simulate(&problem, &schedule, &plan, &config)) + "\n"),
    );

    // The reference replay on a fully connected instance, one processor
    // failing mid-schedule.
    let problem = generated(arch::fully_connected(4), 80, 2.0, 1, 25);
    let schedule = ftbar_schedule(&problem).expect("schedules");
    let at = Time::from_ticks(schedule.makespan().ticks() / 2);
    let scen = FailureScenario::single(4, ProcId(1), at);
    let run = reference::run(&problem, &schedule, &scen);
    let mut out = String::new();
    for (i, o) in run.outcomes.iter().enumerate() {
        match o {
            ReplicaOutcome::Completed { start, end } => {
                writeln!(out, "rep{i} {} {}", start.ticks(), end.ticks()).unwrap()
            }
            ReplicaOutcome::Lost => writeln!(out, "rep{i} lost").unwrap(),
        }
    }
    check("reference_full4", &out);
}
