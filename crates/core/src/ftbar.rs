//! The FTBAR heuristic (paper §4.2): greedy list scheduling with active
//! replication.
//!
//! Each main-loop step:
//!
//! 1. **À** For every candidate operation (all predecessors scheduled),
//!    compute the schedule pressure `σ(o, p) = S_worst(o, p) + S̄(o)` on
//!    every allowed processor and keep the `Npf + 1` smallest.
//! 2. **Á** Select the most *urgent* candidate: the one whose kept-set
//!    maximum pressure is largest.
//! 3. **Â** Place the selected operation on its `Npf + 1` kept processors,
//!    applying `Minimize_start_time` (LIP duplication) on each.
//! 4. **Ã** Update the candidate set with newly-enabled successors.
//!
//! Ties break deterministically (smaller processor id, then smaller
//! operation id), so the scheduler is a pure function of the problem.
//!
//! The main loop itself (ready-set bookkeeping, cache routing, retiring,
//! tracing) lives in the shared [`crate::engine`] pipeline; this module
//! contributes the FTBAR [`PlacementPolicy`] — micro-steps À/Á as
//! `select` (incremental [`SweepEngine`] or the retained naive reference
//! sweep) and micro-step Â as `commit`.

use ftbar_model::{OpId, Problem, ProcId};

use crate::builder::BuilderState;
use crate::engine::{Engine, EngineConfig, EngineCx, EngineOutcome, EnginePools, PlacementPolicy};
use crate::error::ScheduleError;
use crate::pressure::Pressure;
use crate::schedule::Schedule;
use crate::sweep::{PointFocus, SweepEngine};

pub use crate::engine::StepTrace;

/// Cost function used at micro-step À.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostFunction {
    /// The paper's schedule pressure: `S_worst(o, p) + S̄(o)`.
    #[default]
    SchedulePressure,
    /// Ablation: plain earliest start time `S_best(o, p)` (no look-ahead).
    EarliestStart,
}

/// How micro-steps À/Á evaluate the candidate pressures.
///
/// The exact strategies produce bit-identical schedules (asserted by the
/// cross-topology property tests); the naive sweep is retained as the
/// tests' reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepStrategy {
    /// The default: runs the incremental sweep at every size. Kept as its
    /// own name so cache keys and snapshot seeds that say `adaptive`
    /// still parse and mean the default.
    #[default]
    Adaptive,
    /// Probe-cache driven: only pairs invalidated by the last placement are
    /// recomputed (see [`crate::sweep`]).
    Incremental,
    /// Re-probe every ⟨candidate, processor⟩ pair from scratch each step:
    /// the reference the tests check the incremental sweep against.
    Naive,
    /// Two-phase hierarchical clustering (see [`crate::cluster`]): group
    /// the operations into convex super-operations of at most
    /// [`FtbarConfig::cluster_size`] members, schedule the cluster graph
    /// exactly, then re-schedule the original operations with placements
    /// pinned to the cluster's processors. The only strategy that is
    /// **not** bit-identical to the others — it trades makespan for
    /// sweep width and is only run when asked for by name.
    Clustered,
}

impl SweepStrategy {
    /// Every strategy, in the order the CLI and the daemon list them.
    pub const ALL: [SweepStrategy; 4] = [
        SweepStrategy::Adaptive,
        SweepStrategy::Incremental,
        SweepStrategy::Naive,
        SweepStrategy::Clustered,
    ];

    /// The stable lowercase name used by the CLI `--strategy` flag, the
    /// daemon's `strategy` field, cache keys and snapshot seeds.
    pub fn name(self) -> &'static str {
        match self {
            SweepStrategy::Adaptive => "adaptive",
            SweepStrategy::Incremental => "incremental",
            SweepStrategy::Naive => "naive",
            SweepStrategy::Clustered => "clustered",
        }
    }

    /// Inverse of [`SweepStrategy::name`]; `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<SweepStrategy> {
        SweepStrategy::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Default [`FtbarConfig::cluster_size`]: big enough that the cluster
/// graph is two orders of magnitude smaller than the operation graph,
/// small enough that the pinned expansion keeps a meaningful choice of
/// processors per operation.
pub const DEFAULT_CLUSTER_SIZE: usize = 8;

/// Tunable knobs of the FTBAR scheduler.
///
/// The defaults reproduce the paper's algorithm; the other settings exist
/// for the ablation benchmarks and the incremental-vs-naive sweep
/// comparisons.
#[derive(Debug, Clone)]
pub struct FtbarConfig {
    /// Cost function for processor selection.
    pub cost: CostFunction,
    /// Disable `Minimize_start_time` (LIP duplication) when `true`.
    pub no_duplication: bool,
    /// Record a [`StepTrace`] (with schedule snapshots) per main-loop step.
    pub trace: bool,
    /// Pressure evaluation strategy (the incremental sweep by default).
    pub sweep: SweepStrategy,
    /// Maximum members per super-operation under
    /// [`SweepStrategy::Clustered`]; ignored by the exact strategies.
    pub cluster_size: usize,
}

impl Default for FtbarConfig {
    fn default() -> Self {
        FtbarConfig {
            cost: CostFunction::default(),
            no_duplication: false,
            trace: false,
            sweep: SweepStrategy::default(),
            cluster_size: DEFAULT_CLUSTER_SIZE,
        }
    }
}

/// Result of [`schedule_with`]: the schedule plus an optional step trace.
#[derive(Debug, Clone)]
pub struct FtbarOutcome {
    /// The fault-tolerant static schedule.
    pub schedule: Schedule,
    /// Per-step trace; empty unless [`FtbarConfig::trace`] was set.
    pub steps: Vec<StepTrace>,
    /// Probe-cache counters; `None` only under [`SweepStrategy::Naive`].
    pub sweep_stats: Option<crate::sweep::SweepStats>,
    /// `Minimize_start_time` and undo-log counters (the expansion phase's
    /// for [`SweepStrategy::Clustered`]).
    pub dup_stats: crate::DuplicationStats,
}

/// FTBAR as an engine policy: micro-steps À/Á in `select` (sweep-engine
/// driven or the retained naive reference), micro-step Â in `commit`.
struct FtbarPolicy {
    cost: CostFunction,
    no_duplication: bool,
    k: usize,
    /// `S̄(o)` per operation (static), for the naive sweep.
    bottom: Vec<f64>,
    /// The incremental kept-set engine; `None` under the naive strategy.
    sweep: Option<SweepEngine>,
    /// The `Npf + 1` processors kept at the last `select`.
    kept: Vec<(ProcId, f64)>,
    /// All pairs evaluated for the selected candidate (naive sweep only;
    /// consumed by the step trace).
    all: Vec<(ProcId, f64)>,
    /// Scratch: per-candidate sigmas (naive sweep).
    sigmas: Vec<(ProcId, f64)>,
}

impl FtbarPolicy {
    /// The retained naive reference sweep: re-probe every ⟨candidate,
    /// processor⟩ pair from scratch, keep the `Npf + 1` best per op,
    /// select the candidate whose kept-set maximum pressure is largest.
    fn select_naive(
        &mut self,
        cx: &mut EngineCx<'_>,
        cand: &[OpId],
    ) -> Result<OpId, ScheduleError> {
        let problem = cx.problem();
        type Selection = (f64, OpId, Vec<(ProcId, f64)>);
        let mut selected: Option<Selection> = None;
        for &op in cand {
            self.sigmas.clear();
            for proc in problem.arch().procs() {
                if !problem.exec().allows(op, proc) {
                    continue;
                }
                let probe = cx.probe(op, proc)?;
                let sigma = match self.cost {
                    CostFunction::SchedulePressure => {
                        probe.start_worst.as_units() + self.bottom[op.index()]
                    }
                    CostFunction::EarliestStart => probe.start_best.as_units(),
                };
                self.sigmas.push((proc, sigma));
            }
            self.sigmas.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("pressures are finite")
                    .then(a.0.cmp(&b.0))
            });
            if self.sigmas.len() < self.k {
                return Err(ScheduleError::NotEnoughProcessors { op, needed: self.k });
            }
            // Micro-step Á: urgency = the kept-set maximum pressure.
            let urgency = self.sigmas[self.k - 1].1;
            let take = match &selected {
                None => true,
                // Strictly greater keeps the smallest op id on ties
                // (candidates iterate in ascending id order).
                Some((u, _, _)) => urgency > *u,
            };
            if take {
                selected = Some((urgency, op, self.sigmas.clone()));
            }
        }
        let (_, op, all) = selected.expect("candidate set is non-empty");
        self.kept.clear();
        self.kept.extend_from_slice(&all[..self.k]);
        self.all = all;
        Ok(op)
    }
}

impl PlacementPolicy for FtbarPolicy {
    fn select(&mut self, cx: &mut EngineCx<'_>, ready: &[OpId]) -> Result<OpId, ScheduleError> {
        match &mut self.sweep {
            Some(sweep) => {
                let (b, cache) = cx.sweep_parts();
                let cache = cache.expect("incremental FTBAR runs on a cached engine");
                let (op, kept) = sweep.select(cache, b, ready)?;
                self.kept.clear();
                self.kept.extend_from_slice(kept);
                Ok(op)
            }
            None => self.select_naive(cx, ready),
        }
    }

    fn commit(
        &mut self,
        cx: &mut EngineCx<'_>,
        op: OpId,
        placed: &mut Vec<ProcId>,
    ) -> Result<(), ScheduleError> {
        // Micro-step Â: place on the Npf+1 best processors.
        for i in 0..self.kept.len() {
            let proc = self.kept[i].0;
            if cx.builder().has_replica_on(op, proc) {
                // An earlier LIP duplication already put a replica here.
                placed.push(proc);
                continue;
            }
            if self.no_duplication {
                cx.builder_mut().place(op, proc)?;
            } else {
                cx.builder_mut().place_min_start(op, proc)?;
            }
            placed.push(proc);
        }
        Ok(())
    }

    fn pressures(
        &mut self,
        cx: &mut EngineCx<'_>,
        op: OpId,
    ) -> Result<Vec<(ProcId, f64)>, ScheduleError> {
        match &mut self.sweep {
            Some(sweep) => {
                let (b, cache) = cx.sweep_parts();
                let cache = cache.expect("incremental FTBAR runs on a cached engine");
                sweep.pressures_of(cache, b, op)
            }
            None => Ok(std::mem::take(&mut self.all)),
        }
    }

    fn retired(&mut self, op: OpId) {
        if let Some(sweep) = &mut self.sweep {
            sweep.retire(op);
        }
    }
}

/// Runs FTBAR with default configuration.
///
/// # Errors
///
/// Propagates [`ScheduleError`] — with a validated [`Problem`] the only
/// reachable failure is pathological (e.g. `Npf + 1` exceeding the allowed
/// processors of an operation, which problem validation already excludes).
///
/// # Example
///
/// ```
/// use ftbar_core::ftbar;
/// use ftbar_model::paper_example;
///
/// let problem = paper_example();
/// let schedule = ftbar::schedule(&problem)?;
/// // Npf = 1: every operation is replicated on two distinct processors.
/// for op in problem.alg().ops() {
///     assert!(schedule.replicas_of(op).len() >= 2);
/// }
/// # Ok::<(), ftbar_core::ScheduleError>(())
/// ```
pub fn schedule(problem: &Problem) -> Result<Schedule, ScheduleError> {
    schedule_with(problem, &FtbarConfig::default()).map(|o| o.schedule)
}

/// Runs FTBAR with an explicit configuration.
///
/// # Errors
///
/// See [`schedule`].
pub fn schedule_with(
    problem: &Problem,
    config: &FtbarConfig,
) -> Result<FtbarOutcome, ScheduleError> {
    schedule_with_pools(problem, config, EnginePools::default()).map(|(o, _)| o)
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
    config: &FtbarConfig,
    pools: EnginePools,
) -> Result<(FtbarOutcome, EnginePools), ScheduleError> {
    if config.sweep == SweepStrategy::Clustered {
        return crate::cluster::schedule_clustered(problem, config, pools);
    }
    let state = BuilderState::new(problem);
    let pressure = Pressure::new(problem);
    let out = run(problem, state, &[], config, &pressure, false, pools)?;
    Ok((
        FtbarOutcome {
            schedule: out.schedule,
            steps: out.steps,
            sweep_stats: out.sweep_stats,
            dup_stats: out.dup_stats,
        },
        out.pools,
    ))
}

/// The one FTBAR run: resumes the main loop on `state`, whose placements
/// are exactly the operations of `completed` in that step order, with a
/// fresh policy (bottom levels from `pressure`, the sweep engine's static
/// bounds restricted to the still-pending operations) and a cold probe
/// cache on `pools`. A fresh run is the resume of an empty
/// [`BuilderState`] from step 0. With `retain`, the outcome carries the
/// suffix placement log and the final state (the caller stitches
/// `completed`'s log back on) and no step trace. The strategy must not be
/// [`SweepStrategy::Clustered`]: the two-phase expansion has no single
/// placement log to resume.
pub(crate) fn run(
    problem: &Problem,
    state: BuilderState,
    completed: &[OpId],
    config: &FtbarConfig,
    pressure: &Pressure,
    retain: bool,
    pools: EnginePools,
) -> Result<EngineOutcome, ScheduleError> {
    let mut pending = vec![true; problem.alg().op_count()];
    for &op in completed {
        pending[op.index()] = false;
    }
    let (policy, cache) = build_policy(problem, config, pressure, &pending);
    let engine_config = EngineConfig {
        cache,
        trace: config.trace && !retain,
        retain,
    };
    Engine::resume(problem, state, completed, policy, engine_config, pools).run()
}

/// Builds the FTBAR policy and the engine cache focus for a run whose
/// still-to-place operations are the `pending` ones.
fn build_policy(
    problem: &Problem,
    config: &FtbarConfig,
    pressure: &Pressure,
    pending: &[bool],
) -> (FtbarPolicy, Option<PointFocus>) {
    let (sweep, cache) = match config.sweep {
        SweepStrategy::Clustered => unreachable!("dispatched by the caller"),
        SweepStrategy::Adaptive | SweepStrategy::Incremental => {
            let engine = SweepEngine::new(problem, pressure, config.cost, pending);
            // The selection sweep only ranks by the cost function's field,
            // so the cache completes just that probe (see `PointFocus`).
            let focus = match config.cost {
                CostFunction::SchedulePressure => PointFocus::WorstOnly,
                CostFunction::EarliestStart => PointFocus::BestOnly,
            };
            (Some(engine), Some(focus))
        }
        SweepStrategy::Naive => (None, None),
    };
    let policy = FtbarPolicy {
        cost: config.cost,
        no_duplication: config.no_duplication,
        k: problem.replication(),
        bottom: problem
            .alg()
            .ops()
            .map(|op| pressure.bottom_level(op))
            .collect(),
        sweep,
        kept: Vec::new(),
        all: Vec::new(),
        sigmas: Vec::new(),
    };
    (policy, cache)
}

/// Schedules `problem` with the incremental engine and returns the probe
/// cache effectiveness counters (diagnostics; used by the perf gate).
///
/// # Panics
///
/// Panics if the problem cannot be scheduled.
pub fn sweep_stats_for(problem: &Problem) -> crate::sweep::SweepStats {
    let config = FtbarConfig {
        sweep: SweepStrategy::Incremental,
        ..FtbarConfig::default()
    };
    schedule_with(problem, &config)
        .expect("schedules")
        .sweep_stats
        .expect("incremental sweep records stats")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_model::{paper_example, Time};

    #[test]
    fn strategy_names_are_inverse() {
        for s in SweepStrategy::ALL {
            assert_eq!(SweepStrategy::from_name(s.name()), Some(s));
        }
        assert_eq!(SweepStrategy::default().name(), "adaptive");
        assert_eq!(SweepStrategy::from_name("turbo"), None);
    }

    #[test]
    fn paper_example_meets_rtc() {
        let p = paper_example();
        let s = schedule(&p).unwrap();
        let rtc = p.rtc().unwrap();
        assert!(
            s.makespan() <= rtc,
            "makespan {} must be within Rtc {}",
            s.makespan(),
            rtc
        );
        assert!(s.makespan() > Time::ZERO);
    }

    #[test]
    fn every_op_replicated_on_distinct_procs() {
        let p = paper_example();
        let s = schedule(&p).unwrap();
        for op in p.alg().ops() {
            let reps = s.replicas_of(op);
            assert!(
                reps.len() >= 2,
                "{} under-replicated",
                p.alg().op(op).name()
            );
            let mut procs: Vec<_> = reps.iter().map(|&r| s.replica(r).proc).collect();
            procs.sort();
            procs.dedup();
            assert_eq!(procs.len(), reps.len(), "replicas share a processor");
        }
    }

    #[test]
    fn deterministic() {
        let p = paper_example();
        let a = schedule(&p).unwrap();
        let b = schedule(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn npf_zero_yields_single_replicas_and_shorter_schedule() {
        let p = paper_example();
        let p0 = p.with_npf(0).unwrap();
        let s0 = schedule(&p0).unwrap();
        let s1 = schedule(&p).unwrap();
        for op in p0.alg().ops() {
            assert!(!s0.replicas_of(op).is_empty());
        }
        assert!(
            s0.makespan() <= s1.makespan(),
            "non-FT schedule must not be longer"
        );
    }

    #[test]
    fn trace_records_each_step() {
        let p = paper_example();
        let out = schedule_with(
            &p,
            &FtbarConfig {
                trace: true,
                ..FtbarConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.steps.len(), p.alg().op_count());
        // Step 1 must schedule I (the only entry op).
        let i = p.alg().op_by_name("I").unwrap();
        assert_eq!(out.steps[0].op, i);
        assert_eq!(out.steps[0].procs.len(), 2);
        // Snapshots grow monotonically.
        for w in out.steps.windows(2) {
            assert!(w[0].snapshot.replica_count() <= w[1].snapshot.replica_count());
        }
        assert_eq!(
            out.steps.last().unwrap().snapshot.replica_count(),
            out.schedule.replica_count()
        );
    }

    #[test]
    fn no_duplication_config_produces_no_duplicates() {
        let p = paper_example();
        let out = schedule_with(
            &p,
            &FtbarConfig {
                no_duplication: true,
                ..FtbarConfig::default()
            },
        )
        .unwrap();
        assert!(out.schedule.replicas().iter().all(|r| !r.duplicated));
        // Exactly Npf+1 replicas per op in that case.
        for op in p.alg().ops() {
            assert_eq!(out.schedule.replicas_of(op).len(), 2);
        }
    }

    #[test]
    fn earliest_start_cost_also_schedules() {
        let p = paper_example();
        let out = schedule_with(
            &p,
            &FtbarConfig {
                cost: CostFunction::EarliestStart,
                ..FtbarConfig::default()
            },
        )
        .unwrap();
        for op in p.alg().ops() {
            assert!(out.schedule.replicas_of(op).len() >= 2);
        }
    }

    #[test]
    fn pooled_rerun_is_bit_identical() {
        let p = paper_example();
        let config = FtbarConfig::default();
        let (first, pools) = schedule_with_pools(&p, &config, EnginePools::default()).unwrap();
        let (second, _) = schedule_with_pools(&p, &config, pools).unwrap();
        assert_eq!(first.schedule, second.schedule);
    }

    #[test]
    fn paper_example_duplication_counters_are_pinned() {
        let p = paper_example();
        let pinned = crate::DuplicationStats {
            evaluations: 26,
            trials: 4,
            accepted: 4,
            rejected: 0,
            pruned: 2,
            aborted: 0,
            max_depth: 2,
            committed_replicas: 22,
            committed_comms: 6,
            rolled_back_replicas: 0,
            rolled_back_comms: 0,
        };
        // Selection only probes, so every exact sweep does the same
        // duplication work.
        for sweep in [SweepStrategy::Naive, SweepStrategy::Incremental] {
            let out = schedule_with(
                &p,
                &FtbarConfig {
                    sweep,
                    ..FtbarConfig::default()
                },
            )
            .unwrap();
            let d = out.dup_stats;
            assert_eq!(d, pinned, "{}", sweep.name());
            assert_eq!(d.trials, d.accepted + d.rejected);
            let s = &out.schedule;
            assert_eq!(
                d.committed_replicas - d.rolled_back_replicas,
                s.replica_count() as u64
            );
            assert_eq!(
                d.committed_comms - d.rolled_back_comms,
                s.comm_count() as u64
            );
            // Every kept duplicate was placed by one accepted trial.
            let duplicated = s.replicas().iter().filter(|r| r.duplicated).count();
            assert!(duplicated as u64 <= d.accepted);
        }
    }
}
