//! Incremental re-scheduling: repair a schedule after a [`ProblemEdit`]
//! instead of re-running FTBAR from scratch.
//!
//! A normal run retains, at negligible cost, three things (see
//! [`ScheduleArtifacts`]): the placement log (the operation chosen at each
//! main-loop step plus the undo-log checkpoint taken just before its
//! commit), the final booking [`BuilderState`] (no scratch pools), and
//! the configuration.
//! [`reschedule`] then repairs an edit in three moves:
//!
//! 1. **Affected set.** For a timing tweak, the operations whose probe
//!    inputs the edit can reach are the edited operation itself (its
//!    execution or incoming-communication durations changed) plus every
//!    operation whose schedule-pressure bottom level changed — detected
//!    exactly, by bitwise comparison of the [`Pressure`] arrays of the old
//!    and edited problems.
//! 2. **Invalidation frontier.** The first step `F` of the recorded run
//!    at which an affected operation was *ready* (a candidate). Every
//!    selection and placement before `F` read only unaffected inputs, so
//!    the prefix is byte-for-byte what a from-scratch run on the edited
//!    problem would produce. §14 of DESIGN.md gives the full argument.
//! 3. **Rollback + resume.** Roll the retained state back to the
//!    checkpoint of step `F` and resume the engine over the remaining
//!    operations with a fresh policy (bottom levels from the edited
//!    problem) and a cold probe cache — both exact, so the suffix too is
//!    identical to from-scratch.
//!
//! Structural edits (anything but the two timing tweaks) and clustered
//! runs fall back to a full retained run on the edited problem. Either
//! way the result is **bit-identical to `ftbar::schedule_with` on the
//! edited problem** — by construction here, and by property test in
//! `tests/reschedule_repair.rs`.

use ftbar_model::{OpId, Problem};

use crate::builder::{BuilderState, Checkpoint};
use crate::edit::{EditError, ProblemEdit};
use crate::engine::{EnginePools, RetainedRun};
use crate::error::ScheduleError;
use crate::ftbar::{self, FtbarConfig, SweepStrategy};
use crate::pressure::Pressure;
use crate::schedule::Schedule;

/// Everything a retained FTBAR run keeps so that a later edit can be
/// repaired instead of re-scheduled: the edited problem, the
/// configuration, the placement log, and the final builder state.
///
/// Produced by [`schedule_retained`] and by every successful
/// [`reschedule`] (so repairs chain). Clustered runs retain no engine
/// state; their artifacts always repair via the full-run fallback.
#[derive(Debug, Clone)]
pub struct ScheduleArtifacts {
    problem: Problem,
    config: FtbarConfig,
    /// The placement log and final booking state; `None` for clustered
    /// runs (no single placement log exists).
    retained: Option<RetainedRun>,
    /// Bit patterns of this problem's bottom levels, per operation — the
    /// "old" side of the repair-time [`Pressure`] diff, retained so a
    /// repair computes only the edited problem's levels. Empty exactly
    /// when `retained` is `None` (the diff is then never taken).
    bottom_bits: Vec<u64>,
}

impl ScheduleArtifacts {
    /// The problem this run scheduled (after any edits applied so far).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The configuration the run used (edits never change it).
    pub fn config(&self) -> &FtbarConfig {
        &self.config
    }

    /// Number of recorded placement steps (0 for clustered runs, which
    /// retain no placement log).
    pub fn step_count(&self) -> usize {
        self.retained.as_ref().map_or(0, |run| run.steps.len())
    }
}

/// How [`reschedule`] repaired an edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// True when the repair was a full re-run of the edited problem.
    pub fell_back: bool,
    /// Why the full-run fallback was taken (`None` on the repair path).
    pub reason: Option<&'static str>,
    /// First invalidated step: placements `0..frontier` were reused
    /// verbatim (0 on the fallback path).
    pub frontier: usize,
    /// Total placement steps in the repaired schedule.
    pub steps_total: usize,
}

impl RepairReport {
    /// Steps actually re-placed by the repair.
    pub fn steps_replayed(&self) -> usize {
        self.steps_total - self.frontier
    }
}

/// A repaired schedule plus fresh artifacts (for chaining further edits)
/// and the repair report.
#[derive(Debug)]
pub struct RescheduleOutcome {
    /// The schedule of the edited problem — bit-identical to a
    /// from-scratch run.
    pub schedule: Schedule,
    /// Retained state of the repaired run; feed it to the next
    /// [`reschedule`].
    pub artifacts: ScheduleArtifacts,
    /// What the repair did.
    pub report: RepairReport,
}

/// Why a [`reschedule`] call failed.
#[derive(Debug)]
pub enum RescheduleError {
    /// The edit could not be applied to the previous problem.
    Edit(EditError),
    /// The edited problem could not be scheduled.
    Schedule(ScheduleError),
}

impl std::fmt::Display for RescheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RescheduleError::Edit(e) => write!(f, "{e}"),
            RescheduleError::Schedule(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RescheduleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RescheduleError::Edit(e) => Some(e),
            RescheduleError::Schedule(e) => Some(e),
        }
    }
}

impl From<EditError> for RescheduleError {
    fn from(e: EditError) -> Self {
        RescheduleError::Edit(e)
    }
}

impl From<ScheduleError> for RescheduleError {
    fn from(e: ScheduleError) -> Self {
        RescheduleError::Schedule(e)
    }
}

/// Runs FTBAR and captures [`ScheduleArtifacts`] for later repair. The
/// schedule is bit-identical to [`ftbar::schedule_with`] with the same
/// configuration.
///
/// # Errors
///
/// Exactly those of [`ftbar::schedule_with`].
pub fn schedule_retained(
    problem: &Problem,
    config: &FtbarConfig,
) -> Result<(Schedule, ScheduleArtifacts), ScheduleError> {
    schedule_retained_with_pools(problem.clone(), config, EnginePools::default())
        .map(|(schedule, artifacts, _)| (schedule, artifacts))
}

/// As [`schedule_retained`], taking the problem by value — the artifacts
/// keep it, read back through [`ScheduleArtifacts::problem`] — and seeded
/// with recycled engine arenas, returned for the next run as
/// [`ftbar::schedule_with_pools`] does. The artifacts hold no pools.
///
/// # Errors
///
/// Exactly those of [`ftbar::schedule_with`].
pub fn schedule_retained_with_pools(
    problem: Problem,
    config: &FtbarConfig,
    pools: EnginePools,
) -> Result<(Schedule, ScheduleArtifacts, EnginePools), ScheduleError> {
    if config.sweep == SweepStrategy::Clustered {
        // Clustered expansion has no single placement log; retain nothing
        // and let every repair of these artifacts take the full-run path.
        let (out, pools) = ftbar::schedule_with_pools(&problem, config, pools)?;
        let artifacts = ScheduleArtifacts {
            problem,
            config: config.clone(),
            retained: None,
            bottom_bits: Vec::new(),
        };
        return Ok((out.schedule, artifacts, pools));
    }
    let state = BuilderState::new(&problem);
    let pressure = Pressure::new(&problem);
    run_retained(problem, config, &pressure, state, &[], pools)
}

/// Applies `edit` to the previously scheduled problem and produces the
/// edited problem's schedule — by rollback-and-resume when the edit is a
/// timing tweak with retained state, by a full run otherwise. The result
/// is bit-identical to scheduling the edited problem from scratch either
/// way; only the cost differs.
///
/// # Errors
///
/// [`RescheduleError::Edit`] if the edit does not apply (unknown names,
/// bad values, or the edited problem fails validation);
/// [`RescheduleError::Schedule`] if the edited problem cannot be
/// scheduled.
pub fn reschedule(
    prev: &ScheduleArtifacts,
    edit: &ProblemEdit,
) -> Result<RescheduleOutcome, RescheduleError> {
    reschedule_with_pools(prev, edit, EnginePools::default()).map(|(out, _)| out)
}

/// As [`reschedule`], seeded with recycled engine arenas and returning
/// them for the next run. An error drops the arenas.
///
/// # Errors
///
/// As [`reschedule`].
pub fn reschedule_with_pools(
    prev: &ScheduleArtifacts,
    edit: &ProblemEdit,
    mut pools: EnginePools,
) -> Result<(RescheduleOutcome, EnginePools), RescheduleError> {
    let edited = edit.apply(&prev.problem)?;

    let fallback_reason = if edit.is_structural() {
        Some("structural edit")
    } else if prev.retained.is_none() {
        Some("no retained state (clustered run)")
    } else {
        None
    };
    let (schedule, artifacts, pools, frontier) = match fallback_reason {
        Some(_) => {
            let (schedule, artifacts, pools) =
                schedule_retained_with_pools(edited, &prev.config, pools)?;
            (schedule, artifacts, pools, 0)
        }
        None => {
            let RetainedRun { steps, state } = prev.retained.as_ref().expect("checked above");
            let pressure = Pressure::new(&edited);
            let affected = affected_ops(prev, &pressure, edit);
            let frontier = invalidation_frontier(&prev.problem, steps, &affected);
            let mut state = state.clone();
            if frontier < steps.len() {
                state.rollback(steps[frontier].1, &mut pools.builder);
            }
            let prefix = &steps[..frontier];
            let (schedule, artifacts, pools) =
                run_retained(edited, &prev.config, &pressure, state, prefix, pools)?;
            (schedule, artifacts, pools, frontier)
        }
    };
    let report = RepairReport {
        fell_back: fallback_reason.is_some(),
        reason: fallback_reason,
        frontier,
        steps_total: artifacts.step_count(),
    };
    let outcome = RescheduleOutcome {
        schedule,
        artifacts,
        report,
    };
    Ok((outcome, pools))
}

/// Runs FTBAR on `problem` from `state`, whose placements are exactly the
/// steps of `prefix`, retaining the run: the artifacts' placement log is
/// `prefix` followed by the resumed steps.
fn run_retained(
    problem: Problem,
    config: &FtbarConfig,
    pressure: &Pressure,
    state: BuilderState,
    prefix: &[(OpId, Checkpoint)],
    pools: EnginePools,
) -> Result<(Schedule, ScheduleArtifacts, EnginePools), ScheduleError> {
    let completed: Vec<OpId> = prefix.iter().map(|&(op, _)| op).collect();
    let out = ftbar::run(&problem, state, &completed, config, pressure, true, pools)?;
    let mut run = out.retained.expect("retain was requested");
    run.steps.splice(0..0, prefix.iter().copied());
    let bottom_bits = problem
        .alg()
        .ops()
        .map(|op| pressure.bottom_level(op).to_bits())
        .collect();
    let artifacts = ScheduleArtifacts {
        problem,
        config: config.clone(),
        retained: Some(run),
        bottom_bits,
    };
    Ok((out.schedule, artifacts, out.pools))
}

/// The operations whose selection or placement inputs the timing tweak
/// can reach: the edited operation itself plus every operation whose
/// bottom level changed — compared bitwise (the edited problem's fresh
/// [`Pressure`] against the bit patterns retained from the previous run),
/// so this is exact, not a conservative over-approximation.
fn affected_ops(prev: &ScheduleArtifacts, new: &Pressure, edit: &ProblemEdit) -> Vec<bool> {
    let alg = prev.problem.alg();
    let mut affected: Vec<bool> = alg
        .ops()
        .map(|op| prev.bottom_bits[op.index()] != new.bottom_level(op).to_bits())
        .collect();
    let target = match edit {
        ProblemEdit::TweakExec { op, .. } => alg.op_by_name(op),
        // A comm tweak changes the arrival probes of the *consumer*; the
        // producer's own placement never reads its outgoing durations.
        ProblemEdit::TweakComm { dst, .. } => alg.op_by_name(dst),
        _ => unreachable!("only timing tweaks take the repair path"),
    };
    affected[target.expect("edit applied, so the name resolved").index()] = true;
    affected
}

/// First recorded step at which an affected operation was ready, i.e.
/// was a selection candidate: replay the ready-set evolution along the
/// recorded placement order and take the minimum first-ready step over
/// the affected set. Placements strictly before this step saw no
/// affected candidate and no affected input.
fn invalidation_frontier(
    problem: &Problem,
    steps: &[(OpId, Checkpoint)],
    affected: &[bool],
) -> usize {
    let alg = problem.alg();
    let mut pending: Vec<u32> = alg
        .ops()
        .map(|op| alg.sched_preds(op).count() as u32)
        .collect();
    let mut first_ready: Vec<usize> = pending
        .iter()
        .map(|&n| if n == 0 { 0 } else { usize::MAX })
        .collect();
    for (t, &(op, _)) in steps.iter().enumerate() {
        for (_, succ) in alg.sched_succs(op) {
            pending[succ.index()] -= 1;
            if pending[succ.index()] == 0 {
                first_ready[succ.index()] = t + 1;
            }
        }
    }
    alg.ops()
        .filter(|op| affected[op.index()])
        .map(|op| first_ready[op.index()])
        .min()
        .unwrap_or(steps.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_model::paper_example;

    fn tweak(op: &str, proc: &str, units: f64) -> ProblemEdit {
        ProblemEdit::TweakExec {
            op: op.into(),
            proc: proc.into(),
            units,
        }
    }

    #[test]
    fn retained_run_matches_plain_run() {
        let problem = paper_example();
        let config = FtbarConfig::default();
        let plain = ftbar::schedule_with(&problem, &config).unwrap().schedule;
        let (retained, artifacts) = schedule_retained(&problem, &config).unwrap();
        assert_eq!(plain, retained);
        assert_eq!(artifacts.step_count(), problem.alg().op_count());
    }

    #[test]
    fn repair_matches_from_scratch() {
        let problem = paper_example();
        let config = FtbarConfig::default();
        let (_, artifacts) = schedule_retained(&problem, &config).unwrap();
        let edit = tweak("O", "P1", 7.5);
        let out = reschedule(&artifacts, &edit).unwrap();
        assert!(!out.report.fell_back);
        let edited = edit.apply(&problem).unwrap();
        let scratch = ftbar::schedule_with(&edited, &config).unwrap().schedule;
        assert_eq!(out.schedule, scratch);
        // The repaired artifacts chain: edit again from them.
        let edit2 = tweak("A", "P2", 1.25);
        let out2 = reschedule(&out.artifacts, &edit2).unwrap();
        let edited2 = edit2.apply(&edited).unwrap();
        let scratch2 = ftbar::schedule_with(&edited2, &config).unwrap().schedule;
        assert_eq!(out2.schedule, scratch2);
    }

    #[test]
    fn structural_edit_falls_back_and_still_matches() {
        let problem = paper_example();
        let config = FtbarConfig::default();
        let (_, artifacts) = schedule_retained(&problem, &config).unwrap();
        let edit = ProblemEdit::SetNpf { npf: 0 };
        let out = reschedule(&artifacts, &edit).unwrap();
        assert!(out.report.fell_back);
        assert_eq!(out.report.reason, Some("structural edit"));
        let edited = edit.apply(&problem).unwrap();
        let scratch = ftbar::schedule_with(&edited, &config).unwrap().schedule;
        assert_eq!(out.schedule, scratch);
    }

    #[test]
    fn bad_edit_surfaces_as_edit_error() {
        let problem = paper_example();
        let (_, artifacts) = schedule_retained(&problem, &FtbarConfig::default()).unwrap();
        let edit = tweak("NOPE", "P1", 1.0);
        assert!(matches!(
            reschedule(&artifacts, &edit),
            Err(RescheduleError::Edit(EditError::UnknownOp(_)))
        ));
    }

    #[test]
    fn frontier_is_first_ready_step_of_affected_op() {
        let problem = paper_example();
        let config = FtbarConfig::default();
        let (_, artifacts) = schedule_retained(&problem, &config).unwrap();
        // Tweaking an exit op's exec time leaves every bottom level above
        // it changed or unchanged per the tables; the frontier can never
        // exceed the step where that op first became ready.
        let edit = tweak("O", "P3", 9.0);
        let out = reschedule(&artifacts, &edit).unwrap();
        assert!(out.report.frontier <= out.report.steps_total);
        assert!(out.report.steps_replayed() >= 1);
    }
}
