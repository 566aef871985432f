//! Schedule validation: structural invariants + behavioural cross-checks.
//!
//! [`validate`] checks everything the correctness argument of §5 relies on:
//!
//! 1. coverage: every operation has ≥ `Npf + 1` replicas, on pairwise
//!    distinct processors;
//! 2. resource sanity: processor/link timelines are sorted and
//!    non-overlapping; durations match the `Exe` tables; replicas respect
//!    the `Dis` constraints;
//! 3. comm sanity: every comm follows one of the problem's candidate
//!    routes (primary or disjoint alternative) between its endpoint
//!    processors, hops chain causally, the first hop departs no earlier
//!    than the producer's completion;
//! 4. wiring: every replica's remote dependency receives comms from
//!    `min(Npf + 1, replica count)` producer replicas on distinct
//!    processors, or has a local producer;
//! 5. **route coverage**: a static data-flow check — for every failure
//!    pattern of size ≤ `Npf`, every operation keeps a replica whose whole
//!    support (sources, routes, transitive inputs) survives the pattern
//!    (the failure-disjointness criterion, see `DESIGN.md`);
//! 6. **nominal replay equivalence**: replaying with no failure reproduces
//!    every booked start/end exactly (the schedule is exactly as analyzable
//!    as the paper claims);
//! 7. **masking**: every failure pattern of size ≤ `Npf` at `t = 0`
//!    completes every operation.

use core::fmt;

use ftbar_model::{Problem, Time};

use crate::analysis::{analyze_from_nominal, AnalysisConfig};
use crate::builder::{bit_get, bit_set, failure_patterns};
use crate::replay::{
    DepSource, FailureScenario, ReplayConfig, ReplayPlan, ReplayResult, ReplicaOutcome,
};
use crate::schedule::{ReplicaId, Schedule};

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check failed.
    pub rule: &'static str,
    /// Details naming the offending entities.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Validates `schedule` against `problem`; returns all violations found
/// (empty = valid).
pub fn validate(problem: &Problem, schedule: &Schedule) -> Vec<Violation> {
    let mut v = Vec::new();
    check_coverage(problem, schedule, &mut v);
    check_resources(problem, schedule, &mut v);
    check_comms(problem, schedule, &mut v);
    // One flattened wiring serves the wiring and route-coverage checks and
    // every replay; one fault-free replay serves both the equivalence
    // check and the masking analysis.
    let plan = ReplayPlan::new(problem, schedule);
    check_wiring(&plan, &mut v);
    check_route_coverage(&plan, &mut v);
    let nominal = plan.run(
        &FailureScenario::none(problem.arch().proc_count()),
        &ReplayConfig::default(),
    );
    check_nominal_replay(problem, schedule, &nominal, &mut v);
    check_masking(&plan, &nominal, &mut v);
    v
}

/// Convenience: `Ok(())` when [`validate`] finds nothing.
///
/// # Errors
///
/// Returns the violation list otherwise.
pub fn assert_valid(problem: &Problem, schedule: &Schedule) -> Result<(), Vec<Violation>> {
    let v = validate(problem, schedule);
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

fn check_coverage(problem: &Problem, schedule: &Schedule, v: &mut Vec<Violation>) {
    let k = problem.replication();
    for op in problem.alg().ops() {
        let reps = schedule.replicas_of(op);
        let mut procs: Vec<_> = reps.iter().map(|&r| schedule.replica(r).proc).collect();
        procs.sort();
        let before = procs.len();
        procs.dedup();
        if procs.len() != before {
            v.push(Violation {
                rule: "distinct-processors",
                detail: format!(
                    "operation {} has two replicas on one processor",
                    problem.alg().op(op).name()
                ),
            });
        }
        if procs.len() < k {
            v.push(Violation {
                rule: "replication",
                detail: format!(
                    "operation {} has {} replicas, need {}",
                    problem.alg().op(op).name(),
                    procs.len(),
                    k
                ),
            });
        }
    }
}

fn check_resources(problem: &Problem, schedule: &Schedule, v: &mut Vec<Violation>) {
    // Processor timelines: order, overlap, durations, Dis.
    for proc in problem.arch().procs() {
        let order = schedule.proc_order(proc);
        for w in order.windows(2) {
            let (a, b) = (schedule.replica(w[0]), schedule.replica(w[1]));
            if a.slot.start > b.slot.start || a.slot.end > b.slot.start {
                v.push(Violation {
                    rule: "proc-timeline",
                    detail: format!("{} and {} overlap on {}", w[0], w[1], proc),
                });
            }
        }
        for &rid in order {
            let rep = schedule.replica(rid);
            match problem.exec().get(rep.op, proc) {
                None => v.push(Violation {
                    rule: "dis-constraint",
                    detail: format!(
                        "{} hosts {} despite a Dis forbid",
                        proc,
                        problem.alg().op(rep.op).name()
                    ),
                }),
                Some(dur) => {
                    if rep.slot.duration() != dur {
                        v.push(Violation {
                            rule: "exec-duration",
                            detail: format!(
                                "{} on {} lasts {} instead of {}",
                                problem.alg().op(rep.op).name(),
                                proc,
                                rep.slot.duration(),
                                dur
                            ),
                        });
                    }
                }
            }
        }
    }
    // Link timelines.
    for link in problem.arch().links() {
        let order = schedule.link_order(link);
        let mut prev_end = Time::ZERO;
        let mut prev_start = Time::ZERO;
        for &(cid, hop) in order {
            let h = &schedule.comm(cid).hops[hop];
            if h.link != link {
                v.push(Violation {
                    rule: "link-order",
                    detail: format!("{cid} hop {hop} listed on the wrong link"),
                });
                continue;
            }
            if h.slot.start < prev_end || h.slot.start < prev_start {
                v.push(Violation {
                    rule: "link-timeline",
                    detail: format!("{cid} hop {hop} overlaps its predecessor on {link}"),
                });
            }
            prev_end = h.slot.end;
            prev_start = h.slot.start;
            let dur = problem.comm().get(schedule.comm(cid).dep, link);
            if dur != Some(h.slot.duration()) {
                v.push(Violation {
                    rule: "comm-duration",
                    detail: format!("{cid} hop {hop} duration mismatch on {link}"),
                });
            }
        }
    }
}

fn check_comms(problem: &Problem, schedule: &Schedule, v: &mut Vec<Violation>) {
    for (i, comm) in schedule.comms().iter().enumerate() {
        let src = schedule.replica(comm.src);
        let dst = schedule.replica(comm.dst);
        let (dep_src, dep_dst) = problem.alg().dep_endpoints(comm.dep);
        if src.op != dep_src || dst.op != dep_dst {
            v.push(Violation {
                rule: "comm-endpoints",
                detail: format!("comm{i} endpoints do not match dependency {}", comm.dep),
            });
        }
        let route_ok = problem.routes().all(src.proc, dst.proc).iter().any(|r| {
            r.hops().len() == comm.hops.len()
                && r.hops()
                    .iter()
                    .zip(&comm.hops)
                    .all(|(r, h)| r.link == h.link && r.from == h.from && r.to == h.to)
        });
        if !route_ok {
            v.push(Violation {
                rule: "comm-route",
                detail: format!("comm{i} does not follow a candidate route"),
            });
        }
        if comm.hops[0].slot.start < src.slot.end {
            v.push(Violation {
                rule: "comm-causality",
                detail: format!("comm{i} departs before its producer completes"),
            });
        }
        for w in comm.hops.windows(2) {
            if w[1].slot.start < w[0].slot.end {
                v.push(Violation {
                    rule: "comm-chaining",
                    detail: format!("comm{i} hop starts before the previous hop arrives"),
                });
            }
        }
    }
}

fn check_wiring(plan: &ReplayPlan, v: &mut Vec<Violation>) {
    let (problem, schedule) = (plan.problem(), plan.schedule());
    let k = problem.replication();
    for (ri, rep) in schedule.replicas().iter().enumerate() {
        let rid = ReplicaId(ri as u32);
        let preds = plan.sched_preds(rep.op);
        for (&(dep, pred), slot) in preds.iter().zip(plan.dep_slots(rid)) {
            match plan.dep_src[slot] {
                DepSource::Local(_) => {}
                DepSource::Unwired => v.push(Violation {
                    rule: "wiring",
                    detail: format!(
                        "{} of {} on {} has neither comms nor a local producer",
                        problem.alg().dep_name(dep),
                        problem.alg().op(rep.op).name(),
                        rep.proc
                    ),
                }),
                DepSource::Comms => {
                    let mut src_procs: Vec<_> = plan
                        .comms_of
                        .incoming(rid)
                        .iter()
                        .filter(|c| plan.comm_slot[c.index()] == Some(slot as u32))
                        .map(|&c| schedule.replica(schedule.comm(c).src).proc)
                        .collect();
                    src_procs.sort();
                    src_procs.dedup();
                    let expected = k.min(schedule.replicas_of(pred).len());
                    if src_procs.len() < expected {
                        v.push(Violation {
                            rule: "wiring-redundancy",
                            detail: format!(
                                "{} into {} on {}: {} distinct sources, expected {}",
                                problem.alg().dep_name(dep),
                                problem.alg().op(rep.op).name(),
                                rep.proc,
                                src_procs.len(),
                                expected
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// The static route-coverage data-flow result.
struct RouteCoverage {
    /// Failure patterns as processor bitmasks, every non-empty subset of
    /// size ≤ `Npf`.
    patterns: Vec<u64>,
    /// Words per pattern bitset: `ceil(patterns / 64)`.
    words: usize,
    /// Per operation, a bitset over `patterns` (`words` words from
    /// `op * words`): the patterns under which some replica of the
    /// operation keeps a surviving support (sources, routes, transitive
    /// inputs).
    op_surv: Vec<u64>,
}

impl RouteCoverage {
    fn op_bits(&self, op: ftbar_model::OpId) -> &[u64] {
        &self.op_surv[op.index() * self.words..][..self.words]
    }
}

/// Per-failure-pattern verdict of the static **route-coverage** rule: for
/// each non-empty processor subset of size ≤ `Npf` (as a bitmask), whether
/// every operation keeps a replica whose whole data-flow support survives
/// the pattern (the failure-disjointness criterion, `DESIGN.md` §2).
///
/// This is the validator's rule 5 exposed pattern by pattern, so the
/// contingency engine can cross-check the *static* verdict against the
/// *behavioural* one from the DES replay — any disagreement is a bug in
/// one of them. Empty when `Npf = 0`, or on architectures with more than
/// 64 processors (where the builder degrades pattern tracking too).
pub fn route_coverage_verdicts(problem: &Problem, schedule: &Schedule) -> Vec<(u64, bool)> {
    let Some(cov) = route_coverage(&ReplayPlan::new(problem, schedule)) else {
        return Vec::new();
    };
    let mut all = vec![!0u64; cov.words];
    for op in problem.alg().ops() {
        for (a, &b) in all.iter_mut().zip(cov.op_bits(op)) {
            *a &= b;
        }
    }
    cov.patterns
        .iter()
        .enumerate()
        .map(|(pi, &mask)| (mask, bit_get(&all, pi)))
        .collect()
}

/// Evaluates the data-flow rule over every pattern at once: one bitset of
/// surviving patterns per replica, computed in topological order of the
/// operations, so every producer replica is settled before its consumers.
fn route_coverage(plan: &ReplayPlan) -> Option<RouteCoverage> {
    let (problem, schedule) = (plan.problem(), plan.schedule());
    let n = problem.arch().proc_count();
    let patterns = failure_patterns(n, problem.npf() as usize);
    if patterns.is_empty() {
        return None; // npf = 0, or too many processors to track (builder degraded too)
    }
    let words = patterns.len().div_ceil(64);
    // Per processor: the patterns it survives.
    let mut proc_alive = vec![0u64; n * words];
    for (pi, &mask) in patterns.iter().enumerate() {
        for p in (0..n).filter(|&p| mask >> p & 1 == 0) {
            bit_set(&mut proc_alive[p * words..][..words], pi);
        }
    }

    let mut surv = vec![0u64; schedule.replica_count() * words];
    let mut op_surv = vec![0u64; problem.alg().op_count() * words];
    // Per dependency slot of the current replica: the patterns under which
    // one of its comms survives (source replica and every sending
    // processor of the route alive).
    let mut via_comms: Vec<u64> = Vec::new();
    for &op in problem.alg().topo_order() {
        for &rid in schedule.replicas_of(op) {
            let slots = plan.dep_slots(rid);
            via_comms.clear();
            via_comms.resize(slots.len() * words, 0);
            for &c in plan.comms_of.incoming(rid) {
                let Some(slot) = plan.comm_slot[c.index()] else {
                    continue;
                };
                let comm = schedule.comm(c);
                let at = (slot as usize - slots.start) * words;
                for w in 0..words {
                    let route = comm
                        .hops
                        .iter()
                        .fold(!0u64, |m, h| m & proc_alive[h.from.index() * words + w]);
                    via_comms[at + w] |= surv[comm.src.index() * words + w] & route;
                }
            }
            let proc = schedule.replica(rid).proc.index();
            for w in 0..words {
                let mut bits = proc_alive[proc * words + w];
                for (i, slot) in slots.clone().enumerate() {
                    bits &= match plan.dep_src[slot] {
                        DepSource::Comms => via_comms[i * words + w],
                        DepSource::Local(l) => surv[l.index() * words + w],
                        DepSource::Unwired => 0,
                    };
                }
                surv[rid.index() * words + w] = bits;
                op_surv[op.index() * words + w] |= bits;
            }
        }
    }
    Some(RouteCoverage {
        patterns,
        words,
        op_surv,
    })
}

/// Static failure-disjointness check (`DESIGN.md`): for every failure
/// pattern `F` of size ≤ `Npf`, every operation must keep one replica whose
/// whole support survives `F` — its processor is alive, and each dependency
/// is fed either by a surviving comm (source replica survives, no route
/// processor in `F`) or, when no comms were booked for it, by a surviving
/// local producer replica (the replay's source rule). Unlike the replay
/// masking check this is purely structural, so a violation names the exact
/// data-flow cut rather than a timed starvation.
fn check_route_coverage(plan: &ReplayPlan, v: &mut Vec<Violation>) {
    let problem = plan.problem();
    let n = problem.arch().proc_count();
    let Some(cov) = route_coverage(plan) else {
        return;
    };
    for op in problem.alg().ops() {
        for (pi, &mask) in cov.patterns.iter().enumerate() {
            if !bit_get(cov.op_bits(op), pi) {
                let names: Vec<String> = (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| {
                        problem
                            .arch()
                            .proc(ftbar_model::ProcId(i as u32))
                            .name()
                            .to_owned()
                    })
                    .collect();
                v.push(Violation {
                    rule: "route-coverage",
                    detail: format!(
                        "failure of {{{}}} cuts every data-flow support of operation {}",
                        names.join(", "),
                        problem.alg().op(op).name()
                    ),
                });
            }
        }
    }
}

fn check_nominal_replay(
    problem: &Problem,
    schedule: &Schedule,
    nominal: &ReplayResult,
    v: &mut Vec<Violation>,
) {
    for (i, rep) in schedule.replicas().iter().enumerate() {
        match nominal.outcomes()[i] {
            ReplicaOutcome::Completed { start, end } => {
                if start != rep.slot.start || end != rep.slot.end {
                    v.push(Violation {
                        rule: "nominal-replay",
                        detail: format!(
                            "replica {i} of {} replayed at [{start}, {end}], booked [{}, {}]",
                            problem.alg().op(rep.op).name(),
                            rep.slot.start,
                            rep.slot.end
                        ),
                    });
                }
            }
            ReplicaOutcome::Lost => v.push(Violation {
                rule: "nominal-replay",
                detail: format!("replica {i} lost without any failure"),
            }),
        }
    }
}

fn check_masking(plan: &ReplayPlan, nominal: &ReplayResult, v: &mut Vec<Violation>) {
    let problem = plan.problem();
    let report = analyze_from_nominal(plan, &AnalysisConfig::default(), nominal);
    for s in &report.scenarios {
        if s.completion.is_none() {
            let names: Vec<_> = s
                .procs
                .iter()
                .map(|&p| problem.arch().proc(p).name().to_owned())
                .collect();
            v.push(Violation {
                rule: "masking",
                detail: format!(
                    "failure of {{{}}} at {} is not masked",
                    names.join(", "),
                    s.at
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{basic, ftbar};
    use ftbar_model::paper_example;

    #[test]
    fn ftbar_schedule_is_valid() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let violations = validate(&p, &s);
        assert!(violations.is_empty(), "violations: {violations:#?}");
        assert!(assert_valid(&p, &s).is_ok());
    }

    #[test]
    fn non_ft_schedule_fails_replication_and_masking() {
        let p = paper_example();
        let s = basic::schedule_non_ft(&p).unwrap();
        let violations = validate(&p, &s);
        assert!(violations.iter().any(|v| v.rule == "replication"));
        assert!(violations.iter().any(|v| v.rule == "masking"));
        assert!(assert_valid(&p, &s).is_err());
    }

    #[test]
    fn violation_display() {
        let v = Violation {
            rule: "demo",
            detail: "something odd".into(),
        };
        assert_eq!(v.to_string(), "[demo] something odd");
    }
}
