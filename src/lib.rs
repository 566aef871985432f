//! # ftbar — distributed, fault-tolerant static scheduling
//!
//! A complete implementation of *"An Algorithm for Automatically Obtaining
//! Distributed and Fault-Tolerant Static Schedules"* (A. Girault, H. Kalla,
//! M. Sighireanu, Y. Sorel — DSN 2003), plus every substrate the paper
//! relies on: problem models, a spec language, the HBP comparison baseline,
//! workload generators, a fault-injection simulator and a reference replay.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`graph`] | DAG substrate (topological sort, longest paths, DOT) |
//! | [`model`] | `Time`, algorithm/architecture graphs, `Exe`/`Dis` tables, `Rtc`, `Npf`, spec language, the paper's example |
//! | [`core`] | FTBAR, the non-FT baseline, schedules, replay, analysis, validation, Gantt |
//! | [`hbp`] | the Height-Based Partitioning comparison scheduler |
//! | [`workload`] | random layered DAGs (§6.1), classic families, architectures, timing |
//! | [`sim`] | multi-iteration fault injection (§5), the contingency engine, and the reference replay |
//! | [`service`] | deterministic batched scheduling of many independent problems |
//!
//! # Quick start
//!
//! ```
//! use ftbar::prelude::*;
//!
//! // The paper's running example: 9 operations, 3 processors, Npf = 1.
//! let problem = paper_example();
//! let schedule = ftbar_schedule(&problem)?;
//! assert!(schedule.makespan() <= problem.rtc().unwrap());
//!
//! // Every single-processor failure is masked, within the deadline.
//! let report = analyze(&problem, &schedule);
//! assert!(report.tolerated);
//! assert_eq!(report.rtc_met, Some(true));
//! # Ok::<(), ftbar::core::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ftbar_core as core;
pub use ftbar_graph as graph;
pub use ftbar_hbp as hbp;
pub use ftbar_model as model;
pub use ftbar_service as service;
pub use ftbar_sim as sim;
pub use ftbar_workload as workload;

/// The most common imports, renamed for clarity at the call site.
pub mod prelude {
    pub use ftbar_core::analysis::{analyze, ToleranceReport};
    pub use ftbar_core::basic::schedule_non_ft;
    pub use ftbar_core::ftbar::schedule as ftbar_schedule;
    pub use ftbar_core::ftbar::{schedule_with as ftbar_schedule_with, FtbarConfig};
    pub use ftbar_core::gantt;
    pub use ftbar_core::validate::validate;
    pub use ftbar_core::{replay, FailureScenario, Schedule, ScheduleError};
    pub use ftbar_hbp::schedule as hbp_schedule;
    pub use ftbar_model::{paper_example, Alg, Arch, CommTable, ExecTable, OpKind, Problem, Time};
    pub use ftbar_sim::{simulate, Detection, FaultPlan, SimConfig};
}
