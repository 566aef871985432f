//! Schedule reliability estimation (extension; paper §7 names "taking
//! reliability into account" as future work).
//!
//! Model: each processor fails fail-silently as a Poisson process with rate
//! `λ_p` (failures per time unit), independently; a processor contributes a
//! replica's output only if it survives until that replica's completion.
//! For one iteration of a static schedule:
//!
//! * a replica booked on `p` with nominal end `e` succeeds with probability
//!   `exp(−λ_p · e)` — the probability `p` survives past `e` (fail-silent
//!   failures before the start also kill the output, so the window is
//!   `[0, e]`);
//! * an operation succeeds if at least one replica succeeds **and** its
//!   chosen source replicas delivered — to stay conservative (and cheap)
//!   we lower-bound: an operation's output survives a *processor-set*
//!   outcome iff the replay under that outcome completes it.
//!
//! [`estimate`] computes the **exact** per-iteration reliability by
//! enumerating processor survival patterns (feasible for the small
//! architectures of embedded systems — `2^P` replays with `P ≤ ~12`),
//! weighting each pattern by its probability under the exponential model
//! with failures pinned at `t = 0` (a conservative choice: a processor that
//! fails anywhere within the iteration is treated as silent throughout).
//!
//! [`estimate_npf_bound`] gives the closed-form lower bound that only uses
//! the schedule's tolerance level: `P(at most Npf processors fail)`.

use ftbar_model::{Problem, ProcId, Time};
use serde::{Deserialize, Serialize};

use crate::replay::{FailureScenario, ReplayConfig, ReplayPlan};
use crate::schedule::Schedule;

/// Per-processor failure rates (per time unit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRates {
    rates: Vec<f64>,
}

impl FailureRates {
    /// Uniform rate `lambda` for `proc_count` processors.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn uniform(proc_count: usize, lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda >= 0.0, "rates must be ≥ 0");
        FailureRates {
            rates: vec![lambda; proc_count],
        }
    }

    /// Individual rates, one per processor.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or not finite.
    pub fn per_proc(rates: Vec<f64>) -> Self {
        assert!(
            rates.iter().all(|l| l.is_finite() && *l >= 0.0),
            "rates must be ≥ 0"
        );
        FailureRates { rates }
    }

    /// Rate of one processor.
    pub fn rate(&self, p: ProcId) -> f64 {
        self.rates[p.index()]
    }

    /// Number of processors covered.
    pub fn proc_count(&self) -> usize {
        self.rates.len()
    }

    /// Probability that `p` survives the whole window `[0, horizon]`.
    pub fn survival(&self, p: ProcId, horizon: Time) -> f64 {
        (-self.rate(p) * horizon.as_units()).exp()
    }
}

/// Result of [`estimate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityReport {
    /// Probability that one iteration delivers every output.
    pub iteration_reliability: f64,
    /// Reliability of the *non-replicated* reference: all processors that
    /// host work must survive (computed over the same horizon).
    pub single_copy_reference: f64,
    /// The horizon used (nominal schedule span).
    pub horizon: Time,
    /// Number of processor-outcome patterns whose replay completed.
    pub surviving_patterns: usize,
    /// Total patterns enumerated (`2^P`).
    pub total_patterns: usize,
}

/// Exact per-iteration reliability by exhaustive outcome enumeration.
///
/// # Panics
///
/// Panics if `rates` does not cover the architecture, or if the
/// architecture has more than 20 processors (the enumeration is `2^P`).
pub fn estimate(problem: &Problem, schedule: &Schedule, rates: &FailureRates) -> ReliabilityReport {
    let n = problem.arch().proc_count();
    assert_eq!(rates.proc_count(), n, "rates/architecture mismatch");
    assert!(
        n <= 20,
        "2^P enumeration is intractable beyond ~20 processors"
    );
    let horizon = schedule.last_activity();

    let p_survive: Vec<f64> = problem
        .arch()
        .procs()
        .map(|p| rates.survival(p, horizon))
        .collect();

    let plan = ReplayPlan::new(problem, schedule);
    let mut reliability = 0.0;
    let mut surviving_patterns = 0usize;
    for mask in 0u32..(1 << n) {
        // Pattern probability: dead processors fail within the window.
        let mut prob = 1.0;
        let mut failures = Vec::new();
        for (i, survive_p) in p_survive.iter().enumerate() {
            if mask & (1 << i) == 0 {
                prob *= survive_p;
            } else {
                prob *= 1.0 - survive_p;
                failures.push((ProcId(i as u32), Time::ZERO));
            }
        }
        if prob == 0.0 {
            continue;
        }
        let ok = if failures.is_empty() {
            true
        } else {
            let scen = FailureScenario::multi(n, &failures);
            plan.run(&scen, &ReplayConfig::default()).all_ops_complete()
        };
        if ok {
            reliability += prob;
            surviving_patterns += 1;
        }
    }

    // Reference: one copy of everything — all processors hosting at least
    // one replica must survive. Computed on the same schedule's hosting set
    // as a conservative stand-in for the npf = 0 deployment.
    let mut hosting: Vec<bool> = vec![false; n];
    for rep in schedule.replicas() {
        hosting[rep.proc.index()] = true;
    }
    let single_copy_reference: f64 = p_survive
        .iter()
        .enumerate()
        .filter(|(i, _)| hosting[*i])
        .map(|(_, s)| s)
        .product();

    ReliabilityReport {
        iteration_reliability: reliability,
        single_copy_reference,
        horizon,
        surviving_patterns,
        total_patterns: 1 << n,
    }
}

/// Closed-form lower bound using only the tolerance level: the probability
/// that at most `npf` processors fail within the horizon.
pub fn estimate_npf_bound(problem: &Problem, schedule: &Schedule, rates: &FailureRates) -> f64 {
    let n = problem.arch().proc_count();
    let horizon = schedule.last_activity();
    let p_survive: Vec<f64> = problem
        .arch()
        .procs()
        .map(|p| rates.survival(p, horizon))
        .collect();
    let npf = schedule.npf() as usize;
    // Sum over subsets of size <= npf of (failures fail, others survive).
    let mut total = 0.0;
    for mask in 0u32..(1 << n) {
        if (mask.count_ones() as usize) > npf {
            continue;
        }
        let mut prob = 1.0;
        for (i, survive_p) in p_survive.iter().enumerate() {
            prob *= if mask & (1 << i) == 0 {
                *survive_p
            } else {
                1.0 - survive_p
            };
        }
        total += prob;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{basic, ftbar};
    use ftbar_model::paper_example;

    #[test]
    fn zero_rate_means_certainty() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let r = estimate(&p, &s, &FailureRates::uniform(3, 0.0));
        assert!((r.iteration_reliability - 1.0).abs() < 1e-12);
        assert!((r.single_copy_reference - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replication_beats_single_copy() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let rates = FailureRates::uniform(3, 0.01);
        let r = estimate(&p, &s, &rates);
        assert!(r.iteration_reliability > r.single_copy_reference, "{r:#?}");
        assert!(r.iteration_reliability < 1.0);
        assert!(r.iteration_reliability > 0.9, "{r:#?}");
    }

    #[test]
    fn ft_schedule_more_reliable_than_non_ft() {
        let p = paper_example();
        let ft = ftbar::schedule(&p).unwrap();
        let non_ft = basic::schedule_non_ft(&p).unwrap();
        let rates = FailureRates::uniform(3, 0.02);
        let r_ft = estimate(&p, &ft, &rates);
        let r_nf = estimate(&p, &non_ft, &rates);
        assert!(
            r_ft.iteration_reliability > r_nf.iteration_reliability,
            "ft {} vs non-ft {}",
            r_ft.iteration_reliability,
            r_nf.iteration_reliability
        );
    }

    #[test]
    fn exact_estimate_dominates_npf_bound() {
        // The schedule may tolerate some patterns larger than Npf (e.g. a
        // dead processor that hosted only redundant replicas), so the exact
        // enumeration is at least the closed-form bound.
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let rates = FailureRates::uniform(3, 0.05);
        let exact = estimate(&p, &s, &rates).iteration_reliability;
        let bound = estimate_npf_bound(&p, &s, &rates);
        assert!(exact + 1e-12 >= bound, "exact {exact} < bound {bound}");
    }

    #[test]
    fn heterogeneous_rates() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let flaky_p1 = FailureRates::per_proc(vec![0.2, 0.001, 0.001]);
        let flaky_p3 = FailureRates::per_proc(vec![0.001, 0.001, 0.2]);
        let r1 = estimate(&p, &s, &flaky_p1);
        let r3 = estimate(&p, &s, &flaky_p3);
        // Both still well above the single-copy reference.
        assert!(r1.iteration_reliability > r1.single_copy_reference);
        assert!(r3.iteration_reliability > r3.single_copy_reference);
    }

    #[test]
    fn survival_math() {
        let rates = FailureRates::uniform(2, 0.1);
        let s = rates.survival(ProcId(0), Time::from_units(10.0));
        assert!((s - (-1.0f64).exp()).abs() < 1e-12);
        assert_eq!(rates.rate(ProcId(1)), 0.1);
    }

    #[test]
    #[should_panic(expected = "rates must be ≥ 0")]
    fn negative_rates_rejected() {
        let _ = FailureRates::uniform(2, -1.0);
    }
}
