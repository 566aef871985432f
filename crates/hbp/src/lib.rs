//! HBP — Height-Based Partitioning (Hashimoto, Tsuchiya, Kikuno; IEICE
//! 2002): the comparison baseline of the FTBAR paper's §6.
//!
//! HBP tolerates **one** processor failure on a **homogeneous** system by
//! scheduling two copies of every task on distinct processors. Tasks are
//! partitioned by *height* (their level in the precedence DAG) and the
//! partitions are scheduled in increasing height order; within a height
//! group, tasks go in decreasing bottom-level order and, for each task, the
//! algorithm examines **every ordered pair of distinct processors** for its
//! two copies and keeps the pair minimizing the later finish time (ties:
//! earlier first finish, then smaller processor ids).
//!
//! The original publication has no public implementation; this is a
//! reconstruction that preserves every property the DSN paper states about
//! HBP (see DESIGN.md §5):
//!
//! * homogeneous assumption (it simply reads the heterogeneous tables, as
//!   FTBAR "downgraded" reads homogeneous ones);
//! * software redundancy of the *operations only* — no predecessor
//!   duplication (`Minimize_start_time` is FTBAR's edge);
//! * exhaustive O(P²) processor-pair exploration per task, which is why its
//!   scheduling time exceeds FTBAR's (the paper's complexity remark);
//! * identical comm wiring rules, inherited from
//!   [`ftbar_core::ScheduleBuilder`], so both schedulers are judged by the
//!   same validator and replay.
//!
//! Structurally, HBP is a [`PlacementPolicy`] on the shared
//! [`ftbar_core::engine`] pipeline: the engine owns the ready set, the
//! probe cache, and the undo-log transactions; this crate contributes only
//! the height/bottom-level selection rank and the transactional
//! processor-pair search.
//!
//! # Example
//!
//! ```
//! use ftbar_model::paper_example;
//!
//! let problem = paper_example();
//! let schedule = ftbar_hbp::schedule(&problem)?;
//! for op in problem.alg().ops() {
//!     assert!(schedule.replicas_of(op).len() >= 2);
//! }
//! # Ok::<(), ftbar_core::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ftbar_core::engine::{Engine, EngineConfig, EngineCx, EnginePools, PlacementPolicy};
use ftbar_core::{BuilderState, PointFocus, Schedule, ScheduleError};
use ftbar_graph::node_levels;
use ftbar_model::{OpId, Problem, ProcId, Time};

/// How the processor pair for a task's two copies is searched.
///
/// Both variants produce bit-identical schedules (asserted by the
/// cross-engine property tests); the exhaustive search is retained as the
/// reference and for benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairSearch {
    /// Bound the ordered-pair search with cached single-copy probes and
    /// stop once the bound exceeds the best pair found. It wins at every
    /// size measured (`BENCH_scheduling.json`).
    #[default]
    Pruned,
    /// Evaluate every ordered processor pair unconditionally (the
    /// published algorithm verbatim), uncached.
    Exhaustive,
}

/// Tunable knobs of the HBP scheduler.
#[derive(Debug, Clone, Default)]
pub struct HbpConfig {
    /// Processor-pair search strategy (pruned by default).
    pub pair_search: PairSearch,
}

/// Schedules `problem` with the HBP heuristic (pruned pair search).
///
/// Replication level follows the problem's `npf` (the original algorithm
/// fixes it at 2, i.e. `npf = 1`; higher values generalize the pair search
/// to tuples greedily).
///
/// # Errors
///
/// Propagates [`ScheduleError`] from the booking layer (unreachable for a
/// validated problem).
pub fn schedule(problem: &Problem) -> Result<Schedule, ScheduleError> {
    schedule_with(problem, &HbpConfig::default())
}

/// Runs HBP with an explicit configuration.
///
/// # Errors
///
/// See [`schedule`].
pub fn schedule_with(problem: &Problem, config: &HbpConfig) -> Result<Schedule, ScheduleError> {
    schedule_with_pools(problem, config, EnginePools::default()).map(|(s, _)| s)
}

/// As [`schedule_with`], seeded with recycled engine arenas and returning
/// them for the next run — the batch service's per-worker steady state.
/// Bit-identical to an unpooled run.
///
/// # Errors
///
/// See [`schedule`].
pub fn schedule_with_pools(
    problem: &Problem,
    config: &HbpConfig,
    pools: EnginePools,
) -> Result<(Schedule, EnginePools), ScheduleError> {
    let exhaustive = config.pair_search == PairSearch::Exhaustive;
    let policy = HbpPolicy::new(problem);
    let engine_config = EngineConfig {
        // The pruned pair search bounds with cached single-copy probes; the
        // exhaustive reference never probes ahead, so it runs uncached.
        cache: (!exhaustive).then_some(PointFocus::Full),
        trace: false,
        retain: false,
    };
    let state = BuilderState::new(problem);
    let out = Engine::resume(problem, state, &[], policy, engine_config, pools).run()?;
    Ok((out.schedule, out.pools))
}

/// HBP as an engine policy: static height/bottom-level order for
/// selection, transactional ordered-pair search for commitment.
struct HbpPolicy {
    k: usize,
    /// The full processing order: (height asc, bottom-level desc, id asc).
    /// Walking it with a cursor reproduces the published height-partition
    /// processing exactly, and the next operation is always ready — its
    /// predecessors all have strictly smaller heights, hence earlier
    /// positions, so they are already scheduled (the engine's ready-set
    /// `debug_assert` checks this invariant on every step).
    order: Vec<OpId>,
    cursor: usize,
    /// Scratch reused across operations (hot loop: no per-op allocations).
    allowed: Vec<ProcId>,
    pairs: Vec<(Time, ProcId, ProcId)>,
}

impl HbpPolicy {
    fn new(problem: &Problem) -> Self {
        let alg = problem.alg();

        // Height = hop level in the intra-iteration DAG.
        let mut g: ftbar_graph::DiGraph<(), ()> = ftbar_graph::DiGraph::new();
        for _ in alg.ops() {
            g.add_node(());
        }
        for dep in alg.deps() {
            if alg.is_sched_dep(dep) {
                let (s, d) = alg.dep_endpoints(dep);
                g.add_edge(ftbar_graph::NodeId(s.0), ftbar_graph::NodeId(d.0), ());
            }
        }
        let heights = node_levels(&g).expect("validated algorithm graphs are acyclic");

        // Priority within a height group: descending bottom level (critical
        // tasks first), ties by id.
        let pressure = ftbar_core::Pressure::new(problem);
        let mut order: Vec<OpId> = alg.ops().collect();
        order.sort_by(|&a, &b| {
            heights[a.index()]
                .cmp(&heights[b.index()])
                .then(
                    pressure
                        .bottom_level(b)
                        .partial_cmp(&pressure.bottom_level(a))
                        .expect("bottom levels are finite"),
                )
                .then(a.cmp(&b))
        });
        HbpPolicy {
            k: problem.replication(),
            order,
            cursor: 0,
            allowed: Vec::new(),
            pairs: Vec::new(),
        }
    }
}

impl PlacementPolicy for HbpPolicy {
    fn select(&mut self, _cx: &mut EngineCx<'_>, _ready: &[OpId]) -> Result<OpId, ScheduleError> {
        let op = self.order[self.cursor];
        self.cursor += 1;
        Ok(op)
    }

    /// Chooses the processor tuple for the `k` copies of `op`.
    ///
    /// For `k = 2` (the published algorithm) every ordered pair of distinct
    /// allowed processors is evaluated jointly inside an undo-log
    /// [`EngineCx::trial`]; for larger `k` the pair search seeds the first
    /// two copies and the remaining ones are added greedily by earliest
    /// finish.
    ///
    /// On a cached engine, pairs are tried in ascending order of the lower
    /// bound `max(end(p1), end(p2))` over single-copy probes, and the
    /// search stops once the bound exceeds the best later-finish found.
    /// The bound is sound because adding bookings never accelerates a
    /// probe (free timeline gaps only shrink) and booked arrivals never
    /// beat probed ones (a placement's own comms can only delay each other
    /// on shared links), so `e1 ≥ probe(p1)` and `e2 ≥ probe(p2)`; every
    /// skipped pair therefore finishes strictly later than the kept one
    /// and cannot win under the lexicographic tie-break — the chosen pair,
    /// and the schedule, are bit-identical to the exhaustive search.
    fn commit(
        &mut self,
        cx: &mut EngineCx<'_>,
        op: OpId,
        placed: &mut Vec<ProcId>,
    ) -> Result<(), ScheduleError> {
        let k = self.k;
        self.allowed.clear();
        self.allowed.extend(cx.problem().exec().allowed_procs(op));
        if self.allowed.len() < k {
            return Err(ScheduleError::NotEnoughProcessors { op, needed: k });
        }
        if k == 1 {
            // Degenerate (non-FT) case: earliest finish over all processors.
            let mut best: Option<(Time, ProcId)> = None;
            for i in 0..self.allowed.len() {
                let p = self.allowed[i];
                let end = cx.probe(op, p)?.end_best;
                if best.is_none_or(|b| (end, p) < b) {
                    best = Some((end, p));
                }
            }
            let p = best.expect("non-empty").1;
            cx.builder_mut().place(op, p)?;
            placed.push(p);
            return Ok(());
        }

        // Ordered-pair search (the O(P^2) cost the paper mentions). Each
        // attempt books both copies for real inside a `trial` and is
        // unwound through the engine's undo log — no per-pair deep clone.
        self.pairs.clear();
        if cx.cached() {
            // Bound phase: one cached probe per processor, then pairs
            // ascending by bound (ties in `(p1, p2)` order, matching the
            // exhaustive iteration).
            for i in 0..self.allowed.len() {
                let p1 = self.allowed[i];
                let e1 = cx.probe(op, p1)?.end_best;
                for j in 0..self.allowed.len() {
                    let p2 = self.allowed[j];
                    if p1 == p2 {
                        continue;
                    }
                    let e2 = cx.probe(op, p2)?.end_best;
                    self.pairs.push((e1.max(e2), p1, p2));
                }
            }
            self.pairs.sort_unstable();
        } else {
            for &p1 in self.allowed.iter() {
                for &p2 in self.allowed.iter() {
                    if p1 != p2 {
                        self.pairs.push((Time::ZERO, p1, p2));
                    }
                }
            }
        }
        let mut best: Option<(Time, Time, ProcId, ProcId)> = None;
        for i in 0..self.pairs.len() {
            let (bound, p1, p2) = self.pairs[i];
            if let Some((bl, _, _, _)) = &best {
                // Bounds ascend: every remaining pair finishes strictly
                // later than the incumbent and cannot win the tie-break.
                if bound > *bl {
                    break;
                }
            }
            let ends = cx.trial(|cx| {
                let Ok(r1) = cx.builder_mut().place(op, p1) else {
                    return Ok(None);
                };
                let Ok(r2) = cx.builder_mut().place(op, p2) else {
                    return Ok(None);
                };
                Ok(Some((
                    cx.builder().replica(r1).end(),
                    cx.builder().replica(r2).end(),
                )))
            })?;
            let Some((e1, e2)) = ends else { continue };
            let (later, earlier) = (e1.max(e2), e1.min(e2));
            let better = match &best {
                None => true,
                Some((bl, be, bp1, bp2)) => (later, earlier, p1, p2) < (*bl, *be, *bp1, *bp2),
            };
            if better {
                best = Some((later, earlier, p1, p2));
            }
        }
        let (_, _, p1, p2) = best.ok_or(ScheduleError::NotEnoughProcessors { op, needed: k })?;
        cx.builder_mut().place(op, p1)?;
        cx.builder_mut().place(op, p2)?;
        placed.push(p1);
        placed.push(p2);

        // Generalization beyond the published k = 2: greedy earliest finish
        // for the remaining copies.
        for _ in 2..k {
            let mut next: Option<(Time, ProcId)> = None;
            for i in 0..self.allowed.len() {
                let p = self.allowed[i];
                if cx.builder().has_replica_on(op, p) {
                    continue;
                }
                let end = cx.probe(op, p)?.end_best;
                if next.is_none_or(|b| (end, p) < b) {
                    next = Some((end, p));
                }
            }
            match next {
                Some((_, p)) => {
                    cx.builder_mut().place(op, p)?;
                    placed.push(p);
                }
                None => return Err(ScheduleError::NotEnoughProcessors { op, needed: k }),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_core::{analysis, validate};
    use ftbar_model::paper_example;

    #[test]
    fn hbp_schedules_the_paper_example() {
        let p = paper_example();
        let s = schedule(&p).unwrap();
        let violations = validate::validate(&p, &s);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn hbp_masks_single_failures() {
        let p = paper_example();
        let s = schedule(&p).unwrap();
        let report = analysis::analyze(&p, &s);
        assert!(report.tolerated);
    }

    #[test]
    fn hbp_never_duplicates_predecessors() {
        let p = paper_example();
        let s = schedule(&p).unwrap();
        assert!(s.replicas().iter().all(|r| !r.duplicated));
        for op in p.alg().ops() {
            assert_eq!(s.replicas_of(op).len(), 2, "exactly two copies per task");
        }
    }

    #[test]
    fn hbp_is_deterministic() {
        let p = paper_example();
        assert_eq!(schedule(&p).unwrap(), schedule(&p).unwrap());
    }

    #[test]
    fn pruned_pair_search_matches_exhaustive() {
        let p = paper_example();
        let pruned = schedule(&p).unwrap();
        let exhaustive = schedule_with(
            &p,
            &HbpConfig {
                pair_search: PairSearch::Exhaustive,
            },
        )
        .unwrap();
        assert_eq!(pruned, exhaustive);
    }

    #[test]
    fn hbp_and_ftbar_are_comparable_on_the_example() {
        // The paper's FTBAR-vs-HBP claim is an *average* over random graphs
        // (Figures 9-10, reproduced by the bench crate); on one tiny
        // instance either may win. Here we only require both to produce
        // valid fault-tolerant schedules within Rtc.
        let p = paper_example();
        let hbp = schedule(&p).unwrap();
        let ft = ftbar_core::ftbar::schedule(&p).unwrap();
        let rtc = p.rtc().unwrap();
        assert!(hbp.makespan() <= rtc);
        assert!(ft.makespan() <= rtc);
    }

    #[test]
    fn npf_zero_degenerates_to_single_copies() {
        let p = paper_example().with_npf(0).unwrap();
        let s = schedule(&p).unwrap();
        for op in p.alg().ops() {
            assert_eq!(s.replicas_of(op).len(), 1);
        }
    }

    #[test]
    fn pooled_rerun_is_bit_identical() {
        let p = paper_example();
        let config = HbpConfig::default();
        let (first, pools) = schedule_with_pools(&p, &config, EnginePools::default()).unwrap();
        let (second, _) = schedule_with_pools(&p, &config, pools).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn npf_two_generalizes() {
        // Needs >= 3 allowed processors per op; build a 4-proc homogeneous
        // problem.
        use ftbar_model::{Alg, Arch, CommTable, ExecTable, Problem, Time};
        let mut b = Alg::builder("t");
        let x = b.comp("X");
        let y = b.comp("Y");
        b.dep(x, y);
        let alg = b.build().unwrap();
        let mut a = Arch::builder("quad");
        let ps: Vec<_> = (0..4).map(|i| a.proc(format!("P{i}"))).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                a.link(format!("L{i}{j}"), &[ps[i], ps[j]]);
            }
        }
        let arch = a.build().unwrap();
        let exec = ExecTable::uniform(2, 4, Time::from_units(1.0));
        let comm = CommTable::uniform(1, 6, Time::from_units(0.5));
        let mut pb = Problem::builder(alg, arch, exec, comm);
        pb.npf(2);
        let p = pb.build().unwrap();
        let s = schedule(&p).unwrap();
        for op in p.alg().ops() {
            assert_eq!(s.replicas_of(op).len(), 3);
        }
        assert!(analysis::analyze(&p, &s).tolerated);
    }
}
