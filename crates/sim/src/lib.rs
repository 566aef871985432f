//! Fault-injection simulation for FTBAR schedules (the runtime side of
//! the paper, §5), and a reference replay to check the timed replay with.
//!
//! * [`FaultPlan`] — fail-silent failures over absolute time, permanent or
//!   intermittent;
//! * [`simulate`] — multi-iteration discrete-event simulation with the two
//!   failure-handling options of §5 ([`Detection::None`] /
//!   [`Detection::Array`]);
//! * [`scenario`] — the contingency engine: exhaustive N−k fault sweeps,
//!   Monte Carlo campaigns, and the Goemans/Lynch/Saias-style
//!   fault-tolerance certificate;
//! * [`reference`](mod@reference) — a naive single-threaded replay written
//!   from the documented semantics alone, the test oracle for
//!   [`ftbar_core::replay`].
//!
//! # Example
//!
//! ```
//! use ftbar_core::ftbar;
//! use ftbar_model::{paper_example, ProcId, Time};
//! use ftbar_sim::{simulate, Detection, FaultPlan, SimConfig};
//!
//! let problem = paper_example();
//! let schedule = ftbar::schedule(&problem)?;
//! let mut plan = FaultPlan::new(3);
//! plan.permanent(ProcId(0), Time::ZERO);
//! let report = simulate(&problem, &schedule, &plan, &SimConfig {
//!     iterations: 3,
//!     detection: Detection::Array,
//! });
//! assert!(report.all_masked()); // Npf = 1 masks the single failure
//! # Ok::<(), ftbar_core::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod des;
mod fault;
pub mod reference;
pub mod scenario;

pub use des::{simulate, Detection, IterationReport, SimConfig, SimReport};
pub use fault::{FaultPlan, FaultWindow, LinkFaultWindow};
