//! The unified scheduling-engine pipeline.
//!
//! FTBAR's main loop and the HBP reconstruction share one skeleton:
//! maintain the set of *ready* operations (all scheduling predecessors
//! placed), pick the next operation, place its `Npf + 1` replicas through
//! the transactional booking layer, retire it, and unlock its successors.
//! Before this module that skeleton existed twice — each copy hand-wired
//! into the probe cache and the undo log. [`Engine`] owns that loop
//! exactly once:
//!
//! * the [`ScheduleBuilder`] (booking, undo-log checkpoints, pools);
//! * the optional [`ProbeCache`] (every probe a policy issues through
//!   [`EngineCx::probe`] is cache-routed, and retired operations' rows are
//!   dropped centrally);
//! * Kahn-style ready-set bookkeeping (pending-predecessor counters, no
//!   per-step rescans);
//! * undo-log transactions ([`EngineCx::trial`]: checkpoint, speculate,
//!   roll back — the only rollback call site in the pipeline);
//! * per-step tracing ([`StepTrace`]) and arena recycling
//!   ([`EnginePools`], for the batch service's worker threads).
//!
//! What remains per scheduler is a [`PlacementPolicy`]: *which* ready
//! operation to take ([`PlacementPolicy::select`] — FTBAR's
//! schedule-pressure urgency, HBP's static height/bottom-level rank) and
//! *how* to commit its replicas ([`PlacementPolicy::commit`] — FTBAR's
//! kept-set placement with `Minimize_start_time`, HBP's transactional
//! processor-pair search). A new heuristic is a new policy impl, not a
//! third copy of the loop — see `examples/custom_scheduler.rs` and
//! DESIGN.md §8.
//!
//! The engine is a *pure refactor* of the loops it replaced: policies
//! issue the same probes and placements in the same order, so FTBAR and
//! HBP schedules are bit-identical to the pre-engine implementations
//! (pinned by the golden snapshots in `tests/cross_engine.rs`).

use ftbar_model::{OpId, Problem, ProcId};

use crate::builder::{BuilderPools, BuilderState, Checkpoint, ProbePoint, ScheduleBuilder};
use crate::error::ScheduleError;
use crate::schedule::Schedule;
use crate::sweep::{CachePools, PointFocus, ProbeCache, SweepStats};

/// One recorded main-loop step (for the paper's Figures 5–6).
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// 1-based step number.
    pub step: usize,
    /// The operation selected this step.
    pub op: OpId,
    /// The processors it was placed on (policy order).
    pub procs: Vec<ProcId>,
    /// All evaluated `(processor, pressure)` pairs, ascending by pressure
    /// (empty for policies without a pressure notion).
    pub pressures: Vec<(ProcId, f64)>,
    /// Snapshot of the schedule after the step.
    pub snapshot: Schedule,
}

/// A scheduling heuristic plugged into the [`Engine`] pipeline.
///
/// The engine drives the loop; the policy answers two questions per step.
/// Policies see the world through [`EngineCx`]: probes are cache-routed,
/// speculative work goes through [`EngineCx::trial`], and committed
/// placements through the builder.
///
/// **Contract for probe correctness:** call [`EngineCx::probe`] only at
/// transactionally consistent states — in particular, never between the
/// speculative placements inside an [`EngineCx::trial`] — because the
/// probe cache's replica-set stamps are sound only between committed
/// states. Probing *after* committed placements is fine, including
/// placements of the probed operation itself in the same step: the stamp
/// covers the operation's own replica set as well as its predecessors',
/// so committed placements invalidate exactly the affected rows (HBP's
/// greedy `k > 2` tail relies on this).
pub trait PlacementPolicy {
    /// Picks the next operation from `ready` (non-empty, ascending by
    /// operation id; every member has all scheduling predecessors placed).
    ///
    /// # Errors
    ///
    /// Any [`ScheduleError`] — typically a propagated probe failure.
    fn select(&mut self, cx: &mut EngineCx<'_>, ready: &[OpId]) -> Result<OpId, ScheduleError>;

    /// Places every replica of `op`, pushing the hosting processors into
    /// `placed` in placement order (`placed` arrives empty; it is an
    /// engine-recycled buffer, so the hot loop allocates nothing per
    /// step). The engine retires `op` afterwards.
    ///
    /// # Errors
    ///
    /// Any [`ScheduleError`] — e.g. [`ScheduleError::NotEnoughProcessors`].
    fn commit(
        &mut self,
        cx: &mut EngineCx<'_>,
        op: OpId,
        placed: &mut Vec<ProcId>,
    ) -> Result<(), ScheduleError>;

    /// Full evaluated pressure list of `op` for the step trace, ascending.
    /// Called between [`PlacementPolicy::select`] and
    /// [`PlacementPolicy::commit`], only when tracing is enabled. The
    /// default reports no pressures.
    ///
    /// # Errors
    ///
    /// Any [`ScheduleError`] — typically a propagated probe failure.
    fn pressures(
        &mut self,
        cx: &mut EngineCx<'_>,
        op: OpId,
    ) -> Result<Vec<(ProcId, f64)>, ScheduleError> {
        let _ = (cx, op);
        Ok(Vec::new())
    }

    /// Notifies the policy that `op` was committed and retired (its probe
    /// cache row is already dropped). The default does nothing.
    fn retired(&mut self, op: OpId) {
        let _ = op;
    }
}

/// Static configuration of an [`Engine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Route policy probes through a [`ProbeCache`] completing the given
    /// focus (`None`: probe the builder directly — the reference mode).
    pub cache: Option<PointFocus>,
    /// Record a [`StepTrace`] (with schedule snapshots) per step.
    pub trace: bool,
    /// Retain the run for incremental re-scheduling: record a per-step
    /// `(op, checkpoint)` placement log and keep the finished builder
    /// state ([`EngineOutcome::retained`]). The schedule is unchanged;
    /// retained pools are kept inside the state instead of being
    /// reclaimed.
    pub retain: bool,
}

/// The replayable remains of a retained run ([`EngineConfig::retain`]):
/// the per-step placement log — which operation each main-loop step
/// committed, and the undo-log [`Checkpoint`] taken right before that
/// commit — plus the finished builder state. Rolling the state back to
/// `steps[t].1` reproduces the exact builder the run had entering step
/// `t`, which is what [`crate::reschedule()`] resumes from.
#[derive(Debug)]
pub struct RetainedRun {
    /// `(committed op, checkpoint before its commit)` per step, in step
    /// order.
    pub steps: Vec<(OpId, Checkpoint)>,
    /// The builder state at the end of the run, detached from the problem.
    pub state: BuilderState,
}

/// Result of [`Engine::run`].
#[derive(Debug)]
pub struct EngineOutcome {
    /// The finished schedule.
    pub schedule: Schedule,
    /// Per-step trace; empty unless [`EngineConfig::trace`] was set.
    pub steps: Vec<StepTrace>,
    /// Probe-cache counters; `None` when the engine ran uncached.
    pub sweep_stats: Option<SweepStats>,
    /// Recyclable arenas for the next engine (see [`EnginePools`]).
    pub pools: EnginePools,
    /// The placement log and final builder state; `None` unless
    /// [`EngineConfig::retain`] was set.
    pub retained: Option<RetainedRun>,
}

/// Recyclable, problem-agnostic arenas of a finished [`Engine`]: the
/// builder's plan/undo pools and the probe cache's entry buffers. The
/// batch service keeps one per worker thread and threads it through every
/// job, so steady-state scheduling does not re-grow these between jobs.
#[derive(Debug, Default)]
pub struct EnginePools {
    builder: BuilderPools,
    cache: CachePools,
}

/// The policy's window into the engine-owned state: the builder, the
/// probe cache, and the undo-log transaction entry point.
#[derive(Debug)]
pub struct EngineCx<'p> {
    builder: ScheduleBuilder<'p>,
    cache: Option<ProbeCache>,
}

impl<'p> EngineCx<'p> {
    /// The problem being scheduled.
    pub fn problem(&self) -> &'p Problem {
        self.builder.problem()
    }

    /// Replicas required per operation (`Npf + 1`).
    pub fn replication(&self) -> usize {
        self.builder.replication()
    }

    /// Read access to the booking state.
    pub fn builder(&self) -> &ScheduleBuilder<'p> {
        &self.builder
    }

    /// Write access to the booking state, for placements. Probing should
    /// go through [`EngineCx::probe`] instead, so the cache serves it.
    pub fn builder_mut(&mut self) -> &mut ScheduleBuilder<'p> {
        &mut self.builder
    }

    /// Whether probes are cache-routed (policies may use this to decide
    /// whether probe-based pruning is worth the bookkeeping).
    pub fn cached(&self) -> bool {
        self.cache.is_some()
    }

    /// Probes `op` on `proc` — through the cache when the engine has one,
    /// directly against the builder otherwise. Bit-identical either way.
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::probe`].
    pub fn probe(&mut self, op: OpId, proc: ProcId) -> Result<ProbePoint, ScheduleError> {
        match &mut self.cache {
            Some(cache) => cache.probe(&self.builder, op, proc),
            None => self.builder.probe(op, proc),
        }
    }

    /// Runs `f` speculatively inside an undo-log transaction: a checkpoint
    /// is taken before and the builder is rolled back to it afterwards,
    /// whether `f` succeeds or fails. The closure's value (typically
    /// probed finish times of trial placements) survives the rollback.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; the rollback happens regardless.
    pub fn trial<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ScheduleError>,
    ) -> Result<T, ScheduleError> {
        let mark = self.builder.checkpoint();
        let result = f(self);
        self.builder.rollback(mark);
        result
    }

    /// Split borrow for the incremental sweep: the (immutable) builder and
    /// the cache, together. `None` cache when the engine runs uncached.
    pub fn sweep_parts(&mut self) -> (&ScheduleBuilder<'p>, Option<&mut ProbeCache>) {
        (&self.builder, self.cache.as_mut())
    }
}

/// The unified main loop. See the module docs.
#[derive(Debug)]
pub struct Engine<'p, P> {
    cx: EngineCx<'p>,
    policy: P,
    /// Kahn pending-predecessor counters.
    pending: Vec<u32>,
    /// The ready set as a sorted vector (ascending op id): policies sweep
    /// it every step, and a dense sorted slice iterates an order of
    /// magnitude faster than a `BTreeSet` at large candidate counts, while
    /// binary-search insert/remove stays cheap at the sizes the pending
    /// counters produce.
    ready: Vec<OpId>,
    trace: bool,
    retain: bool,
    /// Number of steps already committed before this engine took over
    /// (non-zero only for [`Engine::resume`]); offsets step numbering.
    step_base: usize,
}

impl<'p, P: PlacementPolicy> Engine<'p, P> {
    /// An engine for `problem` driven by `policy`.
    pub fn new(problem: &'p Problem, policy: P, config: EngineConfig) -> Self {
        Self::with_pools(problem, policy, config, EnginePools::default())
    }

    /// As [`Engine::new`], seeded with arenas recycled from a previous
    /// engine ([`EngineOutcome::pools`]). Bit-identical to a fresh engine.
    pub fn with_pools(
        problem: &'p Problem,
        policy: P,
        config: EngineConfig,
        pools: EnginePools,
    ) -> Self {
        let alg = problem.alg();
        let pending: Vec<u32> = alg
            .ops()
            .map(|o| alg.sched_preds(o).count() as u32)
            .collect();
        let mut ready: Vec<OpId> = alg.entry_ops().into_iter().collect();
        ready.sort_unstable();
        Engine {
            cx: EngineCx {
                builder: ScheduleBuilder::new_with_pools(problem, pools.builder),
                cache: config
                    .cache
                    .map(|focus| ProbeCache::new_focused_with_pools(problem, focus, pools.cache)),
            },
            policy,
            pending,
            ready,
            trace: config.trace,
            retain: config.retain,
            step_base: 0,
        }
    }

    /// An engine that picks up a partially built schedule: `builder`
    /// already carries the placements of exactly the operations in
    /// `completed` (in that step order), and the engine continues the main
    /// loop from there — the pending counters and the ready set are
    /// rebuilt as if the loop itself had just committed `completed`.
    ///
    /// The probe cache (if configured) starts cold; cache state never
    /// affects results, only speed, so a resumed run selects and places
    /// exactly as a from-scratch run that reached this state. This is the
    /// replay half of [`crate::reschedule()`].
    pub fn resume(
        builder: ScheduleBuilder<'p>,
        completed: &[OpId],
        policy: P,
        config: EngineConfig,
    ) -> Self {
        let problem = builder.problem();
        let alg = problem.alg();
        let mut pending: Vec<u32> = alg
            .ops()
            .map(|o| alg.sched_preds(o).count() as u32)
            .collect();
        let mut done = vec![false; alg.op_count()];
        for &op in completed {
            debug_assert!(!done[op.index()], "completed ops are distinct");
            done[op.index()] = true;
            for (_, succ) in alg.sched_succs(op) {
                pending[succ.index()] -= 1;
            }
        }
        let mut ready: Vec<OpId> = alg
            .ops()
            .filter(|o| !done[o.index()] && pending[o.index()] == 0)
            .collect();
        ready.sort_unstable();
        Engine {
            cx: EngineCx {
                cache: config
                    .cache
                    .map(|focus| ProbeCache::new_focused(problem, focus)),
                builder,
            },
            policy,
            pending,
            ready,
            trace: config.trace,
            retain: config.retain,
            step_base: completed.len(),
        }
    }

    /// Runs the pipeline to completion: one `select`/`commit` step per
    /// operation, ready-set updates in between, every operation scheduled
    /// exactly once.
    ///
    /// # Errors
    ///
    /// The first [`ScheduleError`] a policy step propagates.
    pub fn run(mut self) -> Result<EngineOutcome, ScheduleError> {
        let alg = self.cx.problem().alg();
        let mut steps = Vec::new();
        let mut marks: Vec<(OpId, Checkpoint)> = Vec::new();
        let mut step = self.step_base;
        // Recycled placement buffer: the loop allocates nothing per step.
        let mut placed: Vec<ProcId> = Vec::new();
        while !self.ready.is_empty() {
            step += 1;
            let op = self.policy.select(&mut self.cx, &self.ready)?;
            debug_assert!(
                self.ready.binary_search(&op).is_ok(),
                "selected op must be ready"
            );
            let pressures = if self.trace {
                self.policy.pressures(&mut self.cx, op)?
            } else {
                Vec::new()
            };
            if self.retain {
                // The mark brackets everything this step will book;
                // rolling back to it re-enters the step on a clean state.
                marks.push((op, self.cx.builder.checkpoint()));
            }
            placed.clear();
            self.policy.commit(&mut self.cx, op, &mut placed)?;

            // Retire: the pair rows of a placed operation are never probed
            // again; unlock successors whose last predecessor this was.
            if let Ok(pos) = self.ready.binary_search(&op) {
                self.ready.remove(pos);
            }
            if let Some(cache) = &mut self.cx.cache {
                cache.forget_op(op);
            }
            self.policy.retired(op);
            for (_, succ) in alg.sched_succs(op) {
                self.pending[succ.index()] -= 1;
                if self.pending[succ.index()] == 0 {
                    if let Err(pos) = self.ready.binary_search(&succ) {
                        self.ready.insert(pos, succ);
                    }
                }
            }

            if self.trace {
                steps.push(StepTrace {
                    step,
                    op,
                    procs: placed.clone(),
                    pressures,
                    snapshot: self.cx.builder.finish_snapshot(),
                });
            }
        }
        let sweep_stats = self.cx.cache.as_ref().map(ProbeCache::stats);
        let cache_pools = self.cx.cache.map(ProbeCache::reclaim).unwrap_or_default();
        let (schedule, builder_pools, retained) = if self.retain {
            // Keep the builder alive as a detached state; its recycling
            // pools travel inside the state instead of being reclaimed.
            let schedule = self.cx.builder.finish_snapshot();
            let state = self.cx.builder.into_state();
            (
                schedule,
                BuilderPools::default(),
                Some(RetainedRun {
                    steps: marks,
                    state,
                }),
            )
        } else {
            let (schedule, pools) = self.cx.builder.finish_reclaim();
            (schedule, pools, None)
        };
        Ok(EngineOutcome {
            schedule,
            steps,
            sweep_stats,
            pools: EnginePools {
                builder: builder_pools,
                cache: cache_pools,
            },
            retained,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_model::{paper_example, Time};

    /// A minimal policy: first ready operation, replicas on the first
    /// `Npf + 1` allowed processors — no cost function at all.
    struct FirstFit;

    impl PlacementPolicy for FirstFit {
        fn select(
            &mut self,
            _cx: &mut EngineCx<'_>,
            ready: &[OpId],
        ) -> Result<OpId, ScheduleError> {
            Ok(*ready.first().expect("non-empty"))
        }

        fn commit(
            &mut self,
            cx: &mut EngineCx<'_>,
            op: OpId,
            placed: &mut Vec<ProcId>,
        ) -> Result<(), ScheduleError> {
            let k = cx.replication();
            placed.extend(cx.problem().exec().allowed_procs(op).take(k));
            if placed.len() < k {
                return Err(ScheduleError::NotEnoughProcessors { op, needed: k });
            }
            let procs = std::mem::take(placed);
            for &p in &procs {
                cx.builder_mut().place(op, p)?;
            }
            *placed = procs;
            Ok(())
        }
    }

    #[test]
    fn first_fit_policy_schedules_every_op() {
        let p = paper_example();
        let out = Engine::new(&p, FirstFit, EngineConfig::default())
            .run()
            .unwrap();
        for op in p.alg().ops() {
            assert_eq!(out.schedule.replicas_of(op).len(), 2);
        }
        assert!(crate::validate::validate(&p, &out.schedule).is_empty());
        assert!(out.sweep_stats.is_none(), "uncached engine has no stats");
    }

    #[test]
    fn cached_and_uncached_probes_agree() {
        let p = paper_example();
        let cached = Engine::new(
            &p,
            FirstFit,
            EngineConfig {
                cache: Some(PointFocus::Full),
                ..EngineConfig::default()
            },
        )
        .run()
        .unwrap();
        let plain = Engine::new(&p, FirstFit, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(cached.schedule, plain.schedule);
        assert!(cached.sweep_stats.is_some());
    }

    #[test]
    fn trial_rolls_back_speculative_placements() {
        let p = paper_example();
        let op = p.alg().op_by_name("I").unwrap();
        let proc = p.exec().allowed_procs(op).next().unwrap();
        let mut cx = EngineCx {
            builder: ScheduleBuilder::new(&p),
            cache: None,
        };
        let end: Time = cx
            .trial(|cx| {
                let r = cx.builder_mut().place(op, proc)?;
                Ok(cx.builder().replica(r).end())
            })
            .unwrap();
        assert!(end > Time::ZERO);
        assert!(cx.builder().replicas_of(op).is_empty(), "trial must unwind");
    }

    #[test]
    fn pooled_rerun_is_bit_identical() {
        let p = paper_example();
        let first = Engine::new(
            &p,
            FirstFit,
            EngineConfig {
                cache: Some(PointFocus::Full),
                ..EngineConfig::default()
            },
        )
        .run()
        .unwrap();
        let second = Engine::with_pools(
            &p,
            FirstFit,
            EngineConfig {
                cache: Some(PointFocus::Full),
                ..EngineConfig::default()
            },
            first.pools,
        )
        .run()
        .unwrap();
        assert_eq!(first.schedule, second.schedule);
    }
}
