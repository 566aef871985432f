//! Batched multi-problem scheduling — the service layer over the
//! [`ftbar_core::engine`] pipeline.
//!
//! The papers this repo leans on (Dwork–Halpern–Waarts on performing work
//! under faults, Goemans–Lynch–Saias on fault-tolerance bounds) frame the
//! production regime as *many independent fault-tolerant work items at
//! high throughput*, not one problem at a time. This crate is that
//! regime's front door: submit a batch of independent scheduling
//! [`JobSpec`]s, get one [`JobOutcome`] per job — or fan a whole
//! contingency campaign ([`run_campaign`], backed by
//! [`ftbar_sim::scenario`]) across the same worker pool.
//!
//! Guarantees:
//!
//! * **Determinism** — each job is a pure function of its spec, results
//!   are returned in submission order, and the output is bit-identical
//!   for every worker count (`--jobs 1` and `--jobs 4` agree; pinned by
//!   `tests/batch_service.rs`).
//! * **Isolation** — a poisoned job (unparsable spec, infeasible `npf`,
//!   unschedulable problem, or a worker panic caught at the job boundary)
//!   yields an `Err` in *its* slot; every other job completes normally.
//! * **Steady-state allocation** — each worker thread recycles one
//!   [`EnginePools`] arena through all the jobs it runs, so per-job setup
//!   does not re-grow the plan/undo/cache buffers. That holds for batch
//!   jobs ([`ftbar_core::ftbar::schedule_with_pools`]) and for the
//!   daemon's FTBAR requests, repairs and snapshot seed replay, which run
//!   through the pooled retained entries
//!   ([`ftbar_core::schedule_retained_with_pools`],
//!   [`ftbar_core::reschedule_with_pools`]); retained artifacts hold no
//!   pools.
//!
//! Work is distributed over `std::thread::scope` threads by an
//! atomic job cursor; ordering is restored by submission index, so the
//! (nondeterministic) claim order never leaks into results.
//!
//! Beyond one-shot batches, the crate hosts the long-lived scheduling
//! daemon: [`server`] (listener, admission control, panic isolation,
//! graceful degradation, clean shutdown), [`cache`] (canonical-key
//! memoization with byte-budget LRU eviction), [`proto`] (the JSON-lines
//! wire protocol and its documented error codes), [`client`] (retrying
//! requester + persistent pipelined connection), [`persist`] (crash-safe
//! snapshot/restore of the cache, artifact seeds, and poisoned set for
//! warm restarts), and [`chaos`] (the deterministic fault-injection
//! harness — including restart campaigns against the snapshot files —
//! that proves the daemon survives all of the above).

// `deny` (not `forbid`) solely for the one `#[allow]` in `signal`: the
// SIGTERM latch needs a C signal handler; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod persist;
pub mod proto;
pub mod server;
pub mod signal;

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use ftbar_core::engine::EnginePools;
use ftbar_core::json::JsonObject;
use ftbar_core::reschedule::{schedule_retained_with_pools, ScheduleArtifacts};
use ftbar_core::{ftbar, FtbarConfig, ReplayPlan, Schedule, SweepStrategy};
use ftbar_model::{spec, Problem};
use ftbar_sim::scenario;

/// Which scheduler a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// FTBAR (paper §4.2), default configuration.
    #[default]
    Ftbar,
    /// The HBP comparison baseline.
    Hbp,
}

impl SchedulerKind {
    /// Stable lowercase name, as used in the JSON output and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Ftbar => "ftbar",
            SchedulerKind::Hbp => "hbp",
        }
    }
}

/// The problem a job schedules.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Spec-language text, parsed and validated inside the job (so a bad
    /// spec poisons only its own slot).
    Spec(String),
    /// An already-validated problem.
    Problem(Box<Problem>),
    /// A job poisoned before submission (e.g. an unreadable spec file):
    /// fails with this message, in its own slot, like any other error.
    Invalid(String),
}

/// One independent scheduling job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Caller-chosen label, echoed in the result (e.g. the spec path).
    pub name: String,
    /// The problem to schedule.
    pub input: JobInput,
    /// Scheduler to run.
    pub scheduler: SchedulerKind,
    /// Override the spec's `npf` (applied before scheduling; an
    /// infeasible value poisons only this job).
    pub npf: Option<u32>,
}

/// Batch driver configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads (`--jobs`). Clamped to at least 1; `1` runs
    /// serially on the caller's thread.
    pub jobs: usize,
    /// Retain each job's full [`Schedule`] in its [`JobResult`] (the
    /// summary metrics are always present).
    pub keep_schedules: bool,
    /// Fault-injection hook for tests and the chaos harness: a job whose
    /// name or spec text contains this marker panics inside the job
    /// boundary, exercising the panic-isolation path. `None` in
    /// production.
    pub panic_marker: Option<String>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            jobs: 1,
            keep_schedules: false,
            panic_marker: None,
        }
    }
}

/// Metrics of one successfully scheduled job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Scheduler that ran.
    pub scheduler: SchedulerKind,
    /// Effective `npf` (after any override).
    pub npf: u32,
    /// Operation count of the problem.
    pub ops: usize,
    /// Processor count of the architecture.
    pub procs: usize,
    /// Makespan of the schedule.
    pub makespan: ftbar_model::Time,
    /// Completion instant (= makespan for these schedulers).
    pub completion: ftbar_model::Time,
    /// Total replicas booked.
    pub replicas: usize,
    /// Total comms booked.
    pub comms: usize,
    /// Whether the real-time constraint was met; `None` without an `Rtc`.
    pub rtc_met: Option<bool>,
    /// The schedule itself, when [`BatchConfig::keep_schedules`] was set.
    pub schedule: Option<Schedule>,
}

/// One job's slot in the batch output.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Submission index (results are returned in this order).
    pub index: usize,
    /// The job's label.
    pub name: String,
    /// The job's result; `Err` carries a human-readable message and
    /// affects no other slot.
    pub result: Result<JobResult, String>,
}

/// Runs `n` indexed work items across `workers` pooled threads and
/// returns the results in index order.
///
/// The shared fan-out core of [`run_batch`] and [`run_campaign`]: an
/// atomic cursor hands out indices, each worker recycles one `S` scratch
/// value (its per-worker arena) through every item it claims, and slots
/// are reassembled by index — so as long as `work` is a pure function of
/// its index, the output is byte-identical for every worker count.
/// `workers <= 1` runs serially on the caller's thread.
pub fn run_indexed<S, T>(
    n: usize,
    workers: usize,
    work: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T>
where
    S: Default + Send,
    T: Send,
{
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        let mut state = S::default();
        return (0..n).map(|i| work(i, &mut state)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let work = &work;
            s.spawn(move || {
                // One recycled scratch value per worker, threaded through
                // every item it claims.
                let mut state = S::default();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if tx.send((i, work(i, &mut state))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Restore index order: claim order is racy, slots are not.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, out) in rx {
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every item reports exactly once"))
            .collect()
    })
}

/// Runs every job and returns one outcome per job, in submission order.
///
/// The output is a pure function of `jobs` and
/// [`BatchConfig::keep_schedules`] — the worker count only changes
/// wall-clock time, never a byte of the results.
pub fn run_batch(jobs: &[JobSpec], config: &BatchConfig) -> Vec<JobOutcome> {
    run_indexed(jobs.len(), config.jobs, |i, pools: &mut EnginePools| {
        let taken = std::mem::take(pools);
        // Job-boundary panic isolation: a panicking job lands in its own
        // `Err` slot instead of poisoning the scoped join. `mem::take`
        // already left fresh pools in place for the worker's next job.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(i, &jobs[i], config, taken)
        })) {
            Ok((outcome, p)) => {
                *pools = p;
                outcome
            }
            Err(payload) => JobOutcome {
                index: i,
                name: jobs[i].name.clone(),
                result: Err(format!("job panicked: {}", panic_message(payload.as_ref()))),
            },
        }
    })
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

/// Runs a whole contingency campaign (see [`ftbar_sim::scenario`]) for
/// one `(problem, schedule)` pair across `workers` pooled threads.
///
/// Scenario generation and report assembly are single-threaded and
/// deterministic; only the (pure) per-scenario replays fan out, and their
/// results are reassembled by scenario index — the report is
/// byte-identical for every worker count, mirroring [`run_batch`].
pub fn run_campaign(
    problem: &Problem,
    schedule: &Schedule,
    config: &scenario::ScenarioConfig,
    workers: usize,
) -> scenario::ReliabilityReport {
    let scenarios = scenario::generate(problem, schedule, config);
    let deadline = config.deadline.unwrap_or_else(|| schedule.completion());
    let plan = ReplayPlan::new(problem, schedule);
    let results: Vec<scenario::ScenarioResult> =
        run_indexed(scenarios.len(), workers, |i, (): &mut ()| {
            scenario::evaluate(&plan, &scenarios[i], deadline)
        });
    scenario::assemble(problem, schedule, config, &scenarios, &results)
}

/// Runs one job, recycling `pools` (returned for the worker's next job).
fn run_job(
    index: usize,
    job: &JobSpec,
    config: &BatchConfig,
    pools: EnginePools,
) -> (JobOutcome, EnginePools) {
    let (result, pools) = job_result(job, config, pools);
    (
        JobOutcome {
            index,
            name: job.name.clone(),
            result,
        },
        pools,
    )
}

fn job_result(
    job: &JobSpec,
    config: &BatchConfig,
    pools: EnginePools,
) -> (Result<JobResult, String>, EnginePools) {
    // Chaos/test hook: deliberately panic inside the job boundary.
    if let Some(marker) = &config.panic_marker {
        let hit = job.name.contains(marker.as_str())
            || matches!(&job.input, JobInput::Spec(s) if s.contains(marker.as_str()));
        if hit {
            panic!("injected panic (marker `{marker}`)");
        }
    }
    // Parse/validate inside the job: bad inputs poison only this slot.
    let problem = match &job.input {
        JobInput::Spec(text) => parse_problem(text, job.npf).map(Cow::Owned),
        JobInput::Problem(p) => override_npf(Cow::Borrowed(p), job.npf),
        JobInput::Invalid(message) => Err(message.clone()),
    };
    let problem = match problem {
        Ok(p) => p,
        Err(e) => return (Err(e), pools),
    };
    let (scheduled, pools) = run_scheduler(
        problem,
        job.scheduler,
        SweepStrategy::default(),
        false,
        pools,
    );
    let result = scheduled.map(|(schedule, run)| {
        JobResult::new(
            job.scheduler,
            run.problem(),
            schedule,
            config.keep_schedules,
        )
    });
    (result, pools)
}

/// Applies an `npf` override to a job's problem.
fn override_npf(problem: Cow<'_, Problem>, npf: Option<u32>) -> Result<Cow<'_, Problem>, String> {
    match npf {
        None => Ok(problem),
        Some(npf) => problem
            .with_npf(npf)
            .map(Cow::Owned)
            .map_err(|e| format!("npf override: {e}")),
    }
}

/// Parses spec text and applies an `npf` override: the spec → [`Problem`]
/// step of batch jobs, daemon `schedule` and `reschedule` requests, and
/// snapshot seed replay. `Err` carries the message the job fails with.
pub(crate) fn parse_problem(text: &str, npf: Option<u32>) -> Result<Problem, String> {
    let problem = spec::parse_problem(text).map_err(|e| format!("spec error: {e}"))?;
    override_npf(Cow::Owned(problem), npf).map(Cow::into_owned)
}

/// The problem a run scheduled. A retaining FTBAR run moves it into its
/// artifacts, which keep it for later repair; the others hand it back.
/// A short-lived return value, so the large variant stays unboxed: a box
/// would cost every retained run one more allocation.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Scheduled<'p> {
    /// The problem as the caller gave it.
    Plain(Cow<'p, Problem>),
    /// The retained run, which holds the problem.
    Retained(ScheduleArtifacts),
}

impl Scheduled<'_> {
    /// The problem the run scheduled.
    pub(crate) fn problem(&self) -> &Problem {
        match self {
            Scheduled::Plain(problem) => problem,
            Scheduled::Retained(artifacts) => artifacts.problem(),
        }
    }

    /// The retained artifacts, when the run had steps to keep.
    pub(crate) fn artifacts(self) -> Option<ScheduleArtifacts> {
        match self {
            Scheduled::Retained(artifacts) if artifacts.step_count() > 0 => Some(artifacts),
            _ => None,
        }
    }
}

/// Runs `scheduler` on `problem` with the `sweep` strategy (FTBAR only),
/// recycling `pools`: the one scheduler dispatch of batch jobs, daemon
/// requests and snapshot seed replay. With `retain`, FTBAR also keeps its
/// engine state for later repair ([`schedule_retained_with_pools`],
/// bit-identical to the unretained run), moving an owned problem into the
/// artifacts instead of copying it; HBP never retains. A failed run
/// restarts the arena; `Err` carries the message the job fails with.
pub(crate) fn run_scheduler(
    problem: Cow<'_, Problem>,
    scheduler: SchedulerKind,
    sweep: SweepStrategy,
    retain: bool,
    pools: EnginePools,
) -> (Result<(Schedule, Scheduled<'_>), String>, EnginePools) {
    let config = FtbarConfig {
        sweep,
        ..FtbarConfig::default()
    };
    let run = match scheduler {
        SchedulerKind::Ftbar if retain => {
            schedule_retained_with_pools(problem.into_owned(), &config, pools).map(
                |(schedule, artifacts, pools)| ((schedule, Scheduled::Retained(artifacts)), pools),
            )
        }
        SchedulerKind::Ftbar => ftbar::schedule_with_pools(&problem, &config, pools)
            .map(|(outcome, pools)| ((outcome.schedule, Scheduled::Plain(problem)), pools)),
        SchedulerKind::Hbp => {
            ftbar_hbp::schedule_with_pools(&problem, &ftbar_hbp::HbpConfig::default(), pools)
                .map(|(schedule, pools)| ((schedule, Scheduled::Plain(problem)), pools))
        }
    };
    match run {
        Ok((scheduled, pools)) => (Ok(scheduled), pools),
        Err(e) => (Err(format!("schedule error: {e}")), EnginePools::default()),
    }
}

impl JobResult {
    /// The metrics of `schedule`, a schedule of `problem` by `scheduler`,
    /// keeping the schedule itself when `keep_schedule` is set.
    pub(crate) fn new(
        scheduler: SchedulerKind,
        problem: &Problem,
        schedule: Schedule,
        keep_schedule: bool,
    ) -> JobResult {
        JobResult {
            scheduler,
            npf: problem.npf(),
            ops: problem.alg().op_count(),
            procs: problem.arch().proc_count(),
            makespan: schedule.makespan(),
            completion: schedule.completion(),
            replicas: schedule.replica_count(),
            comms: schedule.comm_count(),
            rtc_met: problem.rtc().map(|rtc| schedule.makespan() <= rtc),
            schedule: keep_schedule.then_some(schedule),
        }
    }

    /// Writes the result members shared by the batch report and the
    /// daemon's `ok` response: `"status": "ok"`, the metrics, the
    /// `degraded` flag when set, and the schedule when kept.
    pub(crate) fn write_json(&self, out: &mut JsonObject, degraded: bool) {
        out.str("status", "ok")
            .str("scheduler", self.scheduler.name())
            .raw("npf", self.npf)
            .raw("ops", self.ops)
            .raw("procs", self.procs)
            .raw("makespan", format_args!("\"{}\"", self.makespan))
            .raw("makespan_ticks", self.makespan.ticks())
            .raw("completion_ticks", self.completion.ticks())
            .raw("replicas", self.replicas)
            .raw("comms", self.comms)
            .opt("rtc_met", self.rtc_met);
        if degraded {
            out.raw("degraded", true);
        }
        if let Some(schedule) = &self.schedule {
            let json = serde_json::to_string(schedule).expect("schedules serialize");
            out.raw("schedule", json);
        }
    }
}

/// Renders batch outcomes as deterministic JSON (stable field order, no
/// timing data — byte-identical across runs and worker counts).
pub fn render_json(outcomes: &[JobOutcome]) -> String {
    let rows = outcomes.iter().map(|o| {
        let mut row = JsonObject::new();
        row.raw("index", o.index).str("name", &o.name);
        match &o.result {
            Ok(r) => r.write_json(&mut row, false),
            Err(msg) => {
                row.str("status", "error").str("error", msg);
            }
        }
        row.finish()
    });
    JsonObject::multiline()
        .raw("schema", 1)
        .rows("jobs", rows)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_model::paper_example;

    fn paper_jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                name: format!("job{i}"),
                input: JobInput::Problem(Box::new(paper_example())),
                scheduler: if i % 2 == 0 {
                    SchedulerKind::Ftbar
                } else {
                    SchedulerKind::Hbp
                },
                npf: None,
            })
            .collect()
    }

    #[test]
    fn batch_matches_direct_scheduling() {
        let jobs = paper_jobs(4);
        let out = run_batch(
            &jobs,
            &BatchConfig {
                jobs: 1,
                keep_schedules: true,
                ..BatchConfig::default()
            },
        );
        let p = paper_example();
        let ft = ftbar::schedule(&p).unwrap();
        let hbp = ftbar_hbp::schedule(&p).unwrap();
        for o in &out {
            let r = o.result.as_ref().unwrap();
            let expected = match r.scheduler {
                SchedulerKind::Ftbar => &ft,
                SchedulerKind::Hbp => &hbp,
            };
            assert_eq!(r.schedule.as_ref().unwrap(), expected);
            assert_eq!(r.rtc_met, Some(true));
        }
    }

    #[test]
    fn worker_count_never_changes_results() {
        let jobs = paper_jobs(7);
        let serial = run_batch(&jobs, &BatchConfig::default());
        for workers in [2, 4, 9] {
            let parallel = run_batch(
                &jobs,
                &BatchConfig {
                    jobs: workers,
                    ..BatchConfig::default()
                },
            );
            assert_eq!(render_json(&serial), render_json(&parallel));
        }
    }

    #[test]
    fn campaign_worker_count_never_changes_report() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let cfg = scenario::ScenarioConfig {
            links: true,
            jitter_samples: 2,
            ..Default::default()
        };
        let serial = scenario::render_json(&run_campaign(&p, &s, &cfg, 1));
        for workers in [2, 4, 9] {
            assert_eq!(
                scenario::render_json(&run_campaign(&p, &s, &cfg, workers)),
                serial
            );
        }
    }

    #[test]
    fn poisoned_jobs_fail_alone() {
        let mut jobs = paper_jobs(3);
        jobs.insert(
            1,
            JobSpec {
                name: "bad-spec".into(),
                input: JobInput::Spec("algorithm nope {".into()),
                scheduler: SchedulerKind::Ftbar,
                npf: None,
            },
        );
        jobs.insert(
            3,
            JobSpec {
                name: "bad-npf".into(),
                input: JobInput::Problem(Box::new(paper_example())),
                scheduler: SchedulerKind::Ftbar,
                npf: Some(99),
            },
        );
        let out = run_batch(&jobs, &BatchConfig::default());
        assert_eq!(out.len(), 5);
        assert!(out[1].result.is_err());
        assert!(out[3].result.is_err());
        for i in [0, 2, 4] {
            assert!(out[i].result.is_ok(), "job {i} must be isolated");
        }
    }

    #[test]
    fn json_is_parseable_and_escaped() {
        let jobs = vec![JobSpec {
            name: "quote\"and\\slash".into(),
            input: JobInput::Spec("bad".into()),
            scheduler: SchedulerKind::Hbp,
            npf: None,
        }];
        let out = run_batch(&jobs, &BatchConfig::default());
        let json = render_json(&out);
        assert!(json.contains("\\\"and\\\\slash"));
        assert!(json.contains("\"status\": \"error\""));
    }
}
