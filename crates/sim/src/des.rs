//! Multi-iteration discrete-event simulation of a static schedule under a
//! fault plan, with the two failure-handling options of paper §5.
//!
//! The cyclic execution model (§3.2) runs the schedule once per input
//! event. Iterations execute back to back: iteration `i + 1` begins when
//! iteration `i` has finished (every surviving resource idle). Within one
//! iteration the timing semantics are exactly
//! [`ftbar_core::replay`]; across iterations this module adds:
//!
//! * **intermittent failures** — a processor silent during part of an
//!   iteration is lost for that whole iteration (a killed static sequence
//!   cannot resynchronize mid-iteration), but participates again in later
//!   iterations once recovered;
//! * **detection mode** ([`Detection::None`] vs [`Detection::Array`]):
//!   without detection, healthy processors keep sending to faulty ones
//!   (tolerates intermittent failures); with the faulty-processor array,
//!   comms toward detected processors are suppressed from the next
//!   iteration on — and a recovered processor stays excluded forever (the
//!   paper's §5 drawback, observable in the metrics).

use ftbar_core::{FailureScenario, ReplayConfig, ReplayPlan, Schedule};
use ftbar_model::{LinkId, Problem, ProcId, Time};
use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;

/// Failure-handling option (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Detection {
    /// Option 1: no detection. Comms to faulty processors still occupy
    /// links; intermittent failures recover transparently.
    #[default]
    None,
    /// Option 2: each processor maintains an array of detected-faulty
    /// processors (from missed comm deadlines) and stops sending to them.
    /// Recovered processors stay excluded.
    Array,
}

/// Configuration of [`simulate`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of iterations to run.
    pub iterations: usize,
    /// Failure-handling option.
    pub detection: Detection,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            iterations: 1,
            detection: Detection::None,
        }
    }
}

/// Per-iteration outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationReport {
    /// Absolute start instant of the iteration.
    pub start: Time,
    /// Iteration length (relative completion), `None` when some operation
    /// produced no result anywhere (masking failed).
    pub completion: Option<Time>,
    /// Processors silent at any point during this iteration.
    pub failed_procs: Vec<ProcId>,
    /// Links silent at any point during this iteration.
    pub failed_links: Vec<LinkId>,
    /// Comms actually delivered.
    pub comms_delivered: usize,
    /// Comms cancelled (dead source / mid-flight failure) or suppressed by
    /// the faulty-processor array.
    pub comms_cancelled: usize,
}

/// Result of [`simulate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// One report per iteration.
    pub iterations: Vec<IterationReport>,
    /// Total simulated time (end of the last iteration).
    pub total_time: Time,
    /// Detected-faulty array at the end (always empty without detection).
    pub detected_faulty: Vec<ProcId>,
}

impl SimReport {
    /// True if every iteration masked its failures.
    pub fn all_masked(&self) -> bool {
        self.iterations.iter().all(|i| i.completion.is_some())
    }

    /// Longest iteration completion observed.
    pub fn worst_iteration(&self) -> Option<Time> {
        self.iterations.iter().filter_map(|i| i.completion).max()
    }
}

/// Simulates `config.iterations` back-to-back executions of `schedule`
/// under `plan`.
///
/// # Panics
///
/// Panics if `schedule`/`problem` shapes mismatch or
/// `config.iterations == 0`.
pub fn simulate(
    problem: &Problem,
    schedule: &Schedule,
    plan: &FaultPlan,
    config: &SimConfig,
) -> SimReport {
    assert!(config.iterations > 0, "need at least one iteration");
    let n = problem.arch().proc_count();
    let mut detected = vec![false; n];
    let mut clock = Time::ZERO;
    let mut iterations = Vec::with_capacity(config.iterations);
    let replay_plan = ReplayPlan::new(problem, schedule);

    for _ in 0..config.iterations {
        // Horizon estimate for mapping absolute fault windows onto this
        // iteration: nominal schedule span (failures only stretch the tail;
        // a failure that begins after the nominal horizon but before the
        // stretched end is conservatively ignored for this iteration).
        let horizon = schedule.last_activity().max(Time::from_ticks(1));
        let iter_end_estimate = clock + horizon;

        let mut failures: Vec<(ProcId, Time)> = Vec::new();
        let mut failed_procs = Vec::new();
        for p in problem.arch().procs() {
            let fail_abs = if detected[p.index()] {
                // Option 2: once detected, permanently excluded.
                Some(clock)
            } else {
                plan.first_failure_in(p, clock, iter_end_estimate)
            };
            if let Some(t) = fail_abs {
                failures.push((p, t - clock));
                failed_procs.push(p);
            }
        }
        let mut scenario = FailureScenario::multi(n, &failures);
        let mut failed_links = Vec::new();
        for l in problem.arch().links() {
            if let Some(t) = plan.first_link_failure_in(l, clock, iter_end_estimate) {
                scenario = scenario.with_link_failure(l, t - clock);
                failed_links.push(l);
            }
        }
        let replay_cfg = ReplayConfig {
            suppress_comms_to: match config.detection {
                Detection::None => Vec::new(),
                Detection::Array => detected.clone(),
            },
            extend_durations: Vec::new(),
        };
        let result = replay_plan.run(&scenario, &replay_cfg);

        let delivered = (0..schedule.comm_count())
            .filter(|&c| result.comm_arrival(ftbar_core::CommId(c as u32)).is_some())
            .count();
        iterations.push(IterationReport {
            start: clock,
            completion: result.completion(),
            failed_procs: failed_procs.clone(),
            failed_links,
            comms_delivered: delivered,
            comms_cancelled: schedule.comm_count() - delivered,
        });

        if config.detection == Detection::Array {
            for &(p, _) in &failures {
                detected[p.index()] = true;
            }
        }
        // Advance to the end of this iteration.
        clock += result.last_event().max(horizon);
    }

    SimReport {
        total_time: clock,
        detected_faulty: (0..n as u32)
            .map(ProcId)
            .filter(|p| detected[p.index()])
            .collect(),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_core::ftbar;
    use ftbar_model::paper_example;

    fn t(u: f64) -> Time {
        Time::from_units(u)
    }

    fn setup() -> (Problem, Schedule) {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        (p, s)
    }

    #[test]
    fn fault_free_iterations_repeat_identically() {
        let (p, s) = setup();
        let r = simulate(
            &p,
            &s,
            &FaultPlan::new(3),
            &SimConfig {
                iterations: 4,
                detection: Detection::None,
            },
        );
        assert!(r.all_masked());
        let c0 = r.iterations[0].completion.unwrap();
        for it in &r.iterations {
            assert_eq!(it.completion, Some(c0));
            assert!(it.failed_procs.is_empty());
            assert_eq!(it.comms_cancelled, 0);
        }
        assert!(r.detected_faulty.is_empty());
    }

    #[test]
    fn permanent_failure_affects_all_later_iterations() {
        let (p, s) = setup();
        let mut plan = FaultPlan::new(3);
        plan.permanent(ProcId(0), Time::ZERO);
        let r = simulate(
            &p,
            &s,
            &plan,
            &SimConfig {
                iterations: 3,
                detection: Detection::None,
            },
        );
        assert!(r.all_masked(), "Npf = 1 masks a permanent single failure");
        for it in &r.iterations {
            assert_eq!(it.failed_procs, vec![ProcId(0)]);
            assert!(it.comms_cancelled > 0);
        }
    }

    #[test]
    fn intermittent_failure_recovers_without_detection() {
        let (p, s) = setup();
        let mut plan = FaultPlan::new(3);
        // Fails during iteration 0 only (nominal horizon ≈ 15).
        plan.intermittent(ProcId(1), t(1.0), t(2.0));
        let r = simulate(
            &p,
            &s,
            &plan,
            &SimConfig {
                iterations: 3,
                detection: Detection::None,
            },
        );
        assert!(r.all_masked());
        assert_eq!(r.iterations[0].failed_procs, vec![ProcId(1)]);
        // Option 1: recovered for the remaining iterations.
        assert!(r.iterations[1].failed_procs.is_empty());
        assert!(r.iterations[2].failed_procs.is_empty());
        assert_eq!(r.iterations[2].comms_cancelled, 0);
    }

    #[test]
    fn detection_array_excludes_recovered_processors() {
        let (p, s) = setup();
        let mut plan = FaultPlan::new(3);
        plan.intermittent(ProcId(1), t(1.0), t(2.0));
        let r = simulate(
            &p,
            &s,
            &plan,
            &SimConfig {
                iterations: 3,
                detection: Detection::Array,
            },
        );
        assert!(r.all_masked());
        // Option 2 drawback: P2 stays excluded after recovery.
        assert_eq!(r.detected_faulty, vec![ProcId(1)]);
        assert_eq!(r.iterations[1].failed_procs, vec![ProcId(1)]);
        assert_eq!(r.iterations[2].failed_procs, vec![ProcId(1)]);
    }

    #[test]
    fn detection_array_reduces_link_traffic() {
        let (p, s) = setup();
        let mut plan = FaultPlan::new(3);
        plan.permanent(ProcId(0), Time::ZERO);
        let without = simulate(
            &p,
            &s,
            &plan,
            &SimConfig {
                iterations: 2,
                detection: Detection::None,
            },
        );
        let with = simulate(
            &p,
            &s,
            &plan,
            &SimConfig {
                iterations: 2,
                detection: Detection::Array,
            },
        );
        // From iteration 1 on, comms toward P1 are suppressed.
        assert!(with.iterations[1].comms_delivered <= without.iterations[1].comms_delivered);
        assert!(with.all_masked());
    }

    #[test]
    fn two_simultaneous_failures_break_masking() {
        let (p, s) = setup();
        let mut plan = FaultPlan::new(3);
        plan.permanent(ProcId(0), Time::ZERO);
        plan.permanent(ProcId(1), Time::ZERO);
        let r = simulate(&p, &s, &plan, &SimConfig::default());
        assert!(!r.all_masked());
    }

    #[test]
    fn fault_at_time_zero_is_masked() {
        // Edge case: the processor is dead before its first slot starts.
        let (p, s) = setup();
        let mut plan = FaultPlan::new(3);
        plan.permanent(ProcId(2), Time::ZERO);
        let r = simulate(&p, &s, &plan, &SimConfig::default());
        assert!(r.all_masked());
        assert_eq!(r.iterations[0].failed_procs, vec![ProcId(2)]);
    }

    #[test]
    fn fault_after_schedule_completion_changes_nothing() {
        // Edge case: the window opens after the single iteration's horizon,
        // so no iteration ever observes it.
        let (p, s) = setup();
        let nominal = simulate(&p, &s, &FaultPlan::new(3), &SimConfig::default());
        let mut plan = FaultPlan::new(3);
        plan.permanent(ProcId(0), s.last_activity() + t(100.0));
        let r = simulate(&p, &s, &plan, &SimConfig::default());
        assert_eq!(r, nominal);
        assert!(r.iterations[0].failed_procs.is_empty());
        assert!(r.iterations[0].failed_links.is_empty());
        assert_eq!(r.iterations[0].comms_cancelled, 0);
    }

    #[test]
    fn link_failure_is_simulated_not_ignored() {
        // Regression for the silent-drop bug: link windows used to be
        // impossible to express, so plans could only model processor
        // faults. Killing L1.2 at t = 0 must now show up in the report and
        // cancel its traffic.
        let (p, s) = setup();
        let nominal = simulate(&p, &s, &FaultPlan::new(3), &SimConfig::default());
        let mut plan = FaultPlan::new(3);
        plan.link_permanent(LinkId(0), Time::ZERO);
        let r = simulate(&p, &s, &plan, &SimConfig::default());
        assert_eq!(r.iterations[0].failed_links, vec![LinkId(0)]);
        assert!(r.iterations[0].failed_procs.is_empty());
        assert!(
            r.iterations[0].comms_delivered < nominal.iterations[0].comms_delivered,
            "a dead link must lose at least one transfer"
        );
    }

    #[test]
    fn simultaneous_proc_and_link_failure_is_masked() {
        // P1 dies at t = 0 together with L1.2. Every transfer on L1.2 has
        // the dead P1 as an endpoint, so the combination is no worse than
        // the processor failure alone and Npf = 1 masking must hold.
        let (p, s) = setup();
        let mut plan = FaultPlan::new(3);
        plan.permanent(ProcId(0), Time::ZERO);
        plan.link_permanent(LinkId(0), Time::ZERO);
        let r = simulate(&p, &s, &plan, &SimConfig::default());
        assert!(r.all_masked());
        assert_eq!(r.iterations[0].failed_procs, vec![ProcId(0)]);
        assert_eq!(r.iterations[0].failed_links, vec![LinkId(0)]);
    }

    #[test]
    fn intermittent_link_failure_recovers_across_iterations() {
        let (p, s) = setup();
        let mut plan = FaultPlan::new(3);
        plan.link_intermittent(LinkId(1), t(0.5), t(1.5));
        let r = simulate(
            &p,
            &s,
            &plan,
            &SimConfig {
                iterations: 2,
                detection: Detection::None,
            },
        );
        assert_eq!(r.iterations[0].failed_links, vec![LinkId(1)]);
        assert!(r.iterations[1].failed_links.is_empty());
        assert_eq!(r.iterations[1].comms_cancelled, 0);
    }

    #[test]
    fn staggered_failures_across_iterations_are_each_masked() {
        // One failure per iteration (never two at once): §4.4 notes several
        // failures in a row are supported. With a permanent model the procs
        // accumulate, so use intermittent windows within distinct
        // iterations.
        let (p, s) = setup();
        let horizon = s.last_activity();
        let mut plan = FaultPlan::new(3);
        plan.intermittent(ProcId(0), t(1.0), t(2.0)); // iteration 0
        plan.intermittent(ProcId(1), horizon + t(1.0), horizon + t(2.0)); // iteration 1
        let r = simulate(
            &p,
            &s,
            &plan,
            &SimConfig {
                iterations: 2,
                detection: Detection::None,
            },
        );
        assert!(r.all_masked());
        assert_eq!(r.iterations[0].failed_procs, vec![ProcId(0)]);
        assert_eq!(r.iterations[1].failed_procs, vec![ProcId(1)]);
    }
}
