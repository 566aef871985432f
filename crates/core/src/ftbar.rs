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

use crate::builder::{BuilderState, Checkpoint, ScheduleBuilder};
use crate::engine::{Engine, EngineConfig, EngineCx, EnginePools, PlacementPolicy};
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
/// All strategies produce bit-identical schedules (asserted by the
/// cross-topology property tests); the naive sweep is retained as the
/// reference and for the benchmarks pinning the speedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepStrategy {
    /// Pick [`SweepStrategy::Naive`] below
    /// [`ADAPTIVE_SWEEP_CUTOFF`] operations and
    /// [`SweepStrategy::Incremental`] at or above it. The probe cache's
    /// bookkeeping only amortizes once enough pairs survive between steps;
    /// below the crossover the naive sweep's straight-line probes win, so
    /// the engine picks per problem instead of defaulting to either.
    #[default]
    Adaptive,
    /// Probe-cache driven: only pairs invalidated by the last placement are
    /// recomputed (see [`crate::sweep`]).
    Incremental,
    /// Re-probe every ⟨candidate, processor⟩ pair from scratch each step.
    Naive,
    /// Two-phase hierarchical clustering (see [`crate::cluster`]): group
    /// the operations into convex super-operations of at most
    /// [`FtbarConfig::cluster_size`] members, schedule the cluster graph
    /// exactly, then re-schedule the original operations with placements
    /// pinned to the cluster's processors. The only strategy that is
    /// **not** bit-identical to the others — it trades makespan for
    /// sweep width and is never chosen by [`SweepStrategy::Adaptive`].
    Clustered,
}

/// Problem size (operation count) at which [`SweepStrategy::Adaptive`]
/// switches from the naive to the incremental sweep: the measured
/// incremental-vs-naive crossover on the committed `BENCH_scheduling.json`
/// workloads (4 processors, CCR 5) sits between 50 and 80 operations.
pub const ADAPTIVE_SWEEP_CUTOFF: usize = 64;

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
    /// Pressure evaluation strategy (size-adaptive by default).
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

impl FtbarConfig {
    /// The concrete sweep strategy used for a problem of `n_ops`
    /// operations: [`SweepStrategy::Adaptive`] resolves by
    /// [`ADAPTIVE_SWEEP_CUTOFF`], the explicit strategies to
    /// themselves. Never returns [`SweepStrategy::Adaptive`];
    /// [`SweepStrategy::Clustered`] only when explicitly requested.
    pub fn resolved_sweep(&self, n_ops: usize) -> SweepStrategy {
        match self.sweep {
            SweepStrategy::Adaptive => {
                if n_ops >= ADAPTIVE_SWEEP_CUTOFF {
                    SweepStrategy::Incremental
                } else {
                    SweepStrategy::Naive
                }
            }
            explicit => explicit,
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
    /// Probe-cache counters; `None` when the resolved strategy is
    /// [`SweepStrategy::Naive`] (including adaptive runs below the cutoff).
    pub sweep_stats: Option<crate::sweep::SweepStats>,
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
    let n_ops = problem.alg().op_count();
    if config.resolved_sweep(n_ops) == SweepStrategy::Clustered {
        return crate::cluster::schedule_clustered(problem, config, pools);
    }
    let (policy, cache) = build_policy(problem, config);
    let engine_config = EngineConfig {
        cache,
        trace: config.trace,
        retain: false,
    };
    let out = Engine::with_pools(problem, policy, engine_config, pools).run()?;
    Ok((
        FtbarOutcome {
            schedule: out.schedule,
            steps: out.steps,
            sweep_stats: out.sweep_stats,
        },
        out.pools,
    ))
}

/// Builds the FTBAR policy and the engine cache focus for `problem`. The
/// caller has already dispatched [`SweepStrategy::Clustered`] elsewhere.
fn build_policy(problem: &Problem, config: &FtbarConfig) -> (FtbarPolicy, Option<PointFocus>) {
    let pressure = Pressure::new(problem);
    build_policy_from(problem, config, &pressure, None)
}

/// [`build_policy`] with a caller-supplied [`Pressure`] (avoiding a
/// recompute when the caller already has one) and, for resumed runs, the
/// pending-operation mask that lets the sweep engine restrict its static
/// slack bounds to operations that can still become candidates.
fn build_policy_from(
    problem: &Problem,
    config: &FtbarConfig,
    pressure: &Pressure,
    pending: Option<&[bool]>,
) -> (FtbarPolicy, Option<PointFocus>) {
    let n_ops = problem.alg().op_count();
    let (sweep, cache) = match config.resolved_sweep(n_ops) {
        SweepStrategy::Adaptive => unreachable!("resolved_sweep never returns Adaptive"),
        SweepStrategy::Clustered => unreachable!("dispatched by the caller"),
        SweepStrategy::Incremental => {
            let engine = match pending {
                Some(mask) => SweepEngine::new_pending(problem, pressure, config.cost, mask),
                None => SweepEngine::new(problem, pressure, config.cost),
            };
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

/// A retained FTBAR run: the schedule plus everything
/// [`crate::reschedule()`] needs to repair it later.
pub(crate) struct RetainedParts {
    pub schedule: Schedule,
    /// `(op, checkpoint before its commit)` per main-loop step.
    pub steps: Vec<(OpId, Checkpoint)>,
    /// The final builder state, detached from the problem.
    pub state: BuilderState,
    /// Bit patterns of the problem's bottom levels, indexed by operation —
    /// kept so a later repair can diff them against the edited problem's
    /// levels without recomputing this problem's [`Pressure`].
    pub bottom_bits: Vec<u64>,
}

/// Runs FTBAR with [`EngineConfig::retain`] set, keeping the placement
/// log and the final builder state. The schedule is bit-identical to
/// [`schedule_with`]. The resolved strategy must not be
/// [`SweepStrategy::Clustered`] (the two-phase expansion has no single
/// placement log to retain — callers fall back to plain scheduling).
pub(crate) fn run_retained(
    problem: &Problem,
    config: &FtbarConfig,
) -> Result<RetainedParts, ScheduleError> {
    debug_assert_ne!(
        config.resolved_sweep(problem.alg().op_count()),
        SweepStrategy::Clustered,
        "clustered runs cannot be retained"
    );
    let (policy, cache) = build_policy(problem, config);
    let bottom_bits = policy.bottom.iter().map(|b| b.to_bits()).collect();
    let engine_config = EngineConfig {
        cache,
        trace: false,
        retain: true,
    };
    let out = Engine::new(problem, policy, engine_config).run()?;
    let retained = out.retained.expect("retain was requested");
    Ok(RetainedParts {
        schedule: out.schedule,
        steps: retained.steps,
        state: retained.state,
        bottom_bits,
    })
}

/// Resumes FTBAR on a partially built `builder` whose placements are
/// exactly the operations of `completed`, in that step order, finishing
/// the run with a fresh policy (bottom levels from the caller-supplied
/// `pressure`, the sweep engine's static bounds restricted to the
/// still-pending operations) and a cold probe cache. Returns the suffix
/// placement log only — the caller stitches `completed`'s log back on.
pub(crate) fn resume_retained(
    builder: ScheduleBuilder<'_>,
    completed: &[OpId],
    config: &FtbarConfig,
    pressure: &Pressure,
) -> Result<RetainedParts, ScheduleError> {
    let problem = builder.problem();
    let mut pending = vec![true; problem.alg().op_count()];
    for &op in completed {
        pending[op.index()] = false;
    }
    let (policy, cache) = build_policy_from(problem, config, pressure, Some(&pending));
    let bottom_bits = policy.bottom.iter().map(|b| b.to_bits()).collect();
    let engine_config = EngineConfig {
        cache,
        trace: false,
        retain: true,
    };
    let out = Engine::resume(builder, completed, policy, engine_config).run()?;
    let retained = out.retained.expect("retain was requested");
    Ok(RetainedParts {
        schedule: out.schedule,
        steps: retained.steps,
        state: retained.state,
        bottom_bits,
    })
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
}
