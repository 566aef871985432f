//! Fault-tolerance analysis: exhaustive replay over failure patterns.
//!
//! Because the schedule is static, the completion date of every operation is
//! computable **before execution**, both without failures and under any
//! pattern of up to `Npf` fail-silent processor failures (the paper's
//! point 2 in §2). [`analyze`] replays every subset of at most `Npf`
//! processors failing at `t = 0` (the paper's evaluation scenario) and, in
//! [`AnalysisConfig::thorough`] mode, also at every distinct nominal replica
//! completion boundary — catching mid-schedule failures.

use ftbar_model::{Problem, ProcId, Time};
use serde::{Deserialize, Serialize};

use crate::replay::{FailureScenario, ReplayConfig, ReplayPlan, ReplayResult};
use crate::schedule::Schedule;

/// Configuration of [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Also sample failure instants at every nominal replica end (not just
    /// `t = 0`). Cost grows with schedule size.
    pub thorough: bool,
}

/// One analyzed failure pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The failing processors (each failing at [`ScenarioOutcome::at`]).
    pub procs: Vec<ProcId>,
    /// Failure instant.
    pub at: Time,
    /// Schedule length of the replay, `None` when some operation never
    /// completed (masking failed).
    pub completion: Option<Time>,
}

/// Result of [`analyze`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToleranceReport {
    /// Nominal (fault-free) schedule length from replay.
    pub nominal: Time,
    /// Every analyzed scenario.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Longest completion across scenarios (`None` if any scenario failed).
    pub worst_completion: Option<Time>,
    /// True if every scenario masked its failures.
    pub tolerated: bool,
    /// `Some(true/false)`: worst completion vs. the problem's `Rtc`
    /// (`None` when the problem has no `Rtc` or masking failed).
    pub rtc_met: Option<bool>,
}

impl ToleranceReport {
    /// Completion when exactly `proc` fails at `t = 0`, if analyzed.
    pub fn single_failure_completion(&self, proc: ProcId) -> Option<Time> {
        self.scenarios
            .iter()
            .find(|s| s.at == Time::ZERO && s.procs == [proc])
            .and_then(|s| s.completion)
    }
}

/// Enumerates all non-empty subsets of processors with size ≤ `npf`,
/// in deterministic order.
fn failure_subsets(proc_count: usize, npf: usize) -> Vec<Vec<ProcId>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    fn rec(
        out: &mut Vec<Vec<ProcId>>,
        current: &mut Vec<ProcId>,
        from: usize,
        n: usize,
        left: usize,
    ) {
        if !current.is_empty() {
            out.push(current.clone());
        }
        if left == 0 {
            return;
        }
        for i in from..n {
            current.push(ProcId(i as u32));
            rec(out, current, i + 1, n, left - 1);
            current.pop();
        }
    }
    rec(&mut out, &mut current, 0, proc_count, npf);
    out.sort_by_key(|s| (s.len(), s.clone()));
    out
}

/// Replays every failure pattern of size ≤ `problem.npf()` and reports
/// worst-case behaviour.
pub fn analyze(problem: &Problem, schedule: &Schedule) -> ToleranceReport {
    analyze_with(problem, schedule, &AnalysisConfig::default())
}

/// [`analyze`] with explicit configuration.
pub fn analyze_with(
    problem: &Problem,
    schedule: &Schedule,
    config: &AnalysisConfig,
) -> ToleranceReport {
    let plan = ReplayPlan::new(problem, schedule);
    let nominal = plan.run(
        &FailureScenario::none(problem.arch().proc_count()),
        &ReplayConfig::default(),
    );
    analyze_from_nominal(&plan, config, &nominal)
}

/// [`analyze_with`] over `plan`, given the schedule's fault-free replay, so
/// a caller that already ran it (the validator) does not replay it twice.
pub(crate) fn analyze_from_nominal(
    plan: &ReplayPlan,
    config: &AnalysisConfig,
    nominal: &ReplayResult,
) -> ToleranceReport {
    let (problem, schedule) = (plan.problem(), plan.schedule());
    let n = problem.arch().proc_count();
    let nominal = nominal
        .completion()
        .expect("a valid schedule completes nominally");

    let mut instants = vec![Time::ZERO];
    if config.thorough {
        let mut ends: Vec<Time> = schedule.replicas().iter().map(|r| r.end()).collect();
        ends.sort();
        ends.dedup();
        // Failing just before a replica completes kills it; approximate
        // "just before" by one tick less.
        for e in ends {
            if !e.is_zero() {
                instants.push(e.saturating_sub(Time::from_ticks(1)));
            }
        }
        instants.sort();
        instants.dedup();
    }

    let mut scenarios = Vec::new();
    let mut worst: Option<Time> = Some(nominal);
    for subset in failure_subsets(n, problem.npf() as usize) {
        for &at in &instants {
            let failures: Vec<(ProcId, Time)> = subset.iter().map(|&p| (p, at)).collect();
            let scen = FailureScenario::multi(n, &failures);
            let completion = plan.run(&scen, &ReplayConfig::default()).completion();
            worst = match (worst, completion) {
                (Some(w), Some(c)) => Some(w.max(c)),
                _ => None,
            };
            scenarios.push(ScenarioOutcome {
                procs: subset.clone(),
                at,
                completion,
            });
        }
    }
    let tolerated = scenarios.iter().all(|s| s.completion.is_some());
    let rtc_met = match (problem.rtc(), worst) {
        (Some(rtc), Some(w)) => Some(w <= rtc),
        _ => None,
    };
    ToleranceReport {
        nominal,
        scenarios,
        worst_completion: worst,
        tolerated,
        rtc_met,
    }
}

/// One analyzed link-failure pattern (extension; paper §7 future work).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkScenarioOutcome {
    /// The failing link.
    pub link: ftbar_model::LinkId,
    /// Failure instant.
    pub at: Time,
    /// Schedule length of the replay, `None` when masking failed.
    pub completion: Option<Time>,
}

/// Result of [`analyze_link_failures`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkToleranceReport {
    /// One outcome per link, failing alone at `t = 0`.
    pub scenarios: Vec<LinkScenarioOutcome>,
    /// True if every single link failure is masked.
    pub tolerated: bool,
    /// Longest completion across masked scenarios.
    pub worst_completion: Option<Time>,
}

/// Replays every *single link* failing fail-silently at `t = 0`.
///
/// The paper only tolerates processor failures; this extension answers its
/// §7 question. On point-to-point topologies the `Npf + 1` replicated comms
/// of a dependency traverse pairwise distinct links (their sources are on
/// distinct processors), so FTBAR schedules typically mask single link
/// failures for free — on a shared bus they cannot.
pub fn analyze_link_failures(problem: &Problem, schedule: &Schedule) -> LinkToleranceReport {
    let n = problem.arch().proc_count();
    let plan = ReplayPlan::new(problem, schedule);
    let mut scenarios = Vec::new();
    let mut worst: Option<Time> = Some(Time::ZERO);
    for link in problem.arch().links() {
        let scen = FailureScenario::none(n).with_link_failure(link, Time::ZERO);
        let completion = plan.run(&scen, &ReplayConfig::default()).completion();
        worst = match (worst, completion) {
            (Some(w), Some(c)) => Some(w.max(c)),
            _ => None,
        };
        scenarios.push(LinkScenarioOutcome {
            link,
            at: Time::ZERO,
            completion,
        });
    }
    LinkToleranceReport {
        tolerated: scenarios.iter().all(|s| s.completion.is_some()),
        worst_completion: worst,
        scenarios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftbar;
    use ftbar_model::paper_example;

    #[test]
    fn subsets_enumeration() {
        let s = failure_subsets(3, 1);
        assert_eq!(s, vec![vec![ProcId(0)], vec![ProcId(1)], vec![ProcId(2)]]);
        let s = failure_subsets(3, 2);
        assert_eq!(s.len(), 3 + 3);
        assert!(s.contains(&vec![ProcId(0), ProcId(2)]));
        let s = failure_subsets(4, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn paper_example_tolerates_one_failure() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let report = analyze(&p, &s);
        assert!(report.tolerated);
        assert_eq!(report.rtc_met, Some(true));
        assert_eq!(report.scenarios.len(), 3);
        for proc in p.arch().procs() {
            assert!(report.single_failure_completion(proc).is_some());
        }
        let worst = report.worst_completion.unwrap();
        assert!(worst <= p.rtc().unwrap());
        assert!(worst >= report.nominal.min(worst));
    }

    #[test]
    fn thorough_mode_samples_more_instants() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let quick = analyze(&p, &s);
        let thorough = analyze_with(&p, &s, &AnalysisConfig { thorough: true });
        assert!(thorough.scenarios.len() > quick.scenarios.len());
        assert!(thorough.tolerated, "mid-schedule failures must be masked");
        // Thorough worst case is at least as bad as the quick one.
        assert!(thorough.worst_completion.unwrap() >= quick.worst_completion.unwrap());
    }

    #[test]
    fn paper_example_masks_single_link_failures() {
        // The three point-to-point links: each dependency's two comms use
        // distinct links, so any one link may die.
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let report = analyze_link_failures(&p, &s);
        assert_eq!(report.scenarios.len(), 3);
        assert!(report.tolerated, "{report:#?}");
        assert!(report.worst_completion.is_some());
    }

    #[test]
    fn non_ft_schedule_is_not_tolerant() {
        let p = paper_example();
        let s0 = crate::basic::schedule_non_ft(&p);
        let s0 = s0.unwrap();
        // Analyze the npf=0 schedule against the npf=1 problem.
        let report = analyze(&p, &s0);
        assert!(
            !report.tolerated,
            "a single-replica schedule cannot mask a processor failure"
        );
    }
}
