//! FTBAR — distributed, fault-tolerant static scheduling.
//!
//! This crate implements the heart of *"An Algorithm for Automatically
//! Obtaining Distributed and Fault-Tolerant Static Schedules"* (Girault,
//! Kalla, Sighireanu, Sorel — DSN 2003):
//!
//! * [`ftbar`] — the FTBAR list-scheduling heuristic with active
//!   replication (`Npf + 1` replicas per operation, replicated comms over
//!   parallel links, schedule-pressure cost function, `Minimize_start_time`
//!   predecessor duplication);
//! * [`basic`] — the non-fault-tolerant baseline (`Npf = 0`) and the
//!   paper's overhead metric;
//! * [`ScheduleBuilder`] — the low-level booking machinery, reusable by
//!   external schedulers (the HBP comparator crate builds on it);
//! * [`Schedule`] — the immutable result, with per-resource static orders;
//! * [`replay`] — deterministic timed replay with fail-silent processor
//!   failures (the runtime semantics of paper §5);
//! * [`analysis`] — exhaustive verification that every failure pattern of
//!   size ≤ `Npf` is masked, and worst-case completion vs. `Rtc`;
//! * [`validate`] — structural + behavioural schedule validation;
//! * [`gantt`] / [`export`] — ASCII Gantt charts, summaries, DOT;
//! * [`json`] — the writer behind every hand-rendered JSON object.
//!
//! # Quick start
//!
//! ```
//! use ftbar_core::{analysis, ftbar, gantt};
//! use ftbar_model::paper_example;
//!
//! let problem = paper_example(); // Fig. 2 + Tables 1-2, Npf = 1, Rtc = 16
//! let schedule = ftbar::schedule(&problem)?;
//! assert!(schedule.makespan() <= problem.rtc().unwrap());
//!
//! let report = analysis::analyze(&problem, &schedule);
//! assert!(report.tolerated); // any single processor failure is masked
//! println!("{}", gantt::render(&problem, &schedule, 100));
//! # Ok::<(), ftbar_core::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod basic;
mod builder;
pub mod cluster;
pub mod edit;
pub mod engine;
mod error;
pub mod export;
pub mod ftbar;
pub mod gantt;
pub mod json;
mod pressure;
pub mod reliability;
mod replay;
pub mod reschedule;
mod schedule;
pub mod stats;
pub mod sweep;
mod timeline;
pub mod validate;

pub use builder::{
    BuilderPools, BuilderState, Checkpoint, DuplicationStats, Lane, PlanProbe, ProbeEvent,
    ProbePoint, ProbeScratch, ScheduleBuilder,
};
pub use edit::{EditError, ProblemEdit};
pub use engine::{
    Engine, EngineConfig, EngineCx, EngineOutcome, EnginePools, PlacementPolicy, RetainedRun,
};
pub use error::ScheduleError;
pub use ftbar::{
    CostFunction, FtbarConfig, FtbarOutcome, StepTrace, SweepStrategy, DEFAULT_CLUSTER_SIZE,
};
pub use pressure::Pressure;
pub use replay::{
    replay, replay_with, FailureScenario, ReplayConfig, ReplayPlan, ReplayResult, ReplicaOutcome,
};
pub use reschedule::{
    reschedule, reschedule_with_pools, schedule_retained, schedule_retained_with_pools,
    RepairReport, RescheduleError, RescheduleOutcome, ScheduleArtifacts,
};
pub use schedule::{BookedHop, Comm, CommId, CommIndex, Replica, ReplicaId, Schedule};
pub use sweep::{CachePools, PointFocus, ProbeCache, SweepEngine, SweepStats};
pub use timeline::{Slot, Timeline};
