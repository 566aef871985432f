//! Failure masking at runtime: inject fail-silent crashes — permanent and
//! intermittent — into a multi-iteration simulation, under both
//! failure-handling options of the paper's §5.
//!
//! ```text
//! cargo run --example failure_masking
//! ```

use ftbar::model::{ProcId, Time};
use ftbar::prelude::*;

fn main() -> Result<(), ScheduleError> {
    let problem = paper_example();
    let schedule = ftbar_schedule(&problem)?;

    // --- Scenario 1: P1 crashes permanently mid-iteration. -------------
    let mut plan = FaultPlan::new(3);
    plan.permanent(ProcId(0), Time::from_units(2.0));
    let report = simulate(
        &problem,
        &schedule,
        &plan,
        &SimConfig {
            iterations: 3,
            detection: Detection::None,
        },
    );
    println!("== permanent crash of P1 at t=2, no detection ==");
    for (i, it) in report.iterations.iter().enumerate() {
        println!(
            "iteration {i}: completion {:?}, {} comms delivered, {} cancelled",
            it.completion.map(|t| t.to_string()),
            it.comms_delivered,
            it.comms_cancelled
        );
    }
    assert!(report.all_masked());

    // --- Scenario 2: intermittent failure, with and without detection. --
    let mut plan = FaultPlan::new(3);
    plan.intermittent(ProcId(1), Time::from_units(1.0), Time::from_units(3.0));
    let no_detect = simulate(
        &problem,
        &schedule,
        &plan,
        &SimConfig {
            iterations: 3,
            detection: Detection::None,
        },
    );
    let detect = simulate(
        &problem,
        &schedule,
        &plan,
        &SimConfig {
            iterations: 3,
            detection: Detection::Array,
        },
    );
    println!("\n== intermittent failure of P2 during iteration 0 ==");
    println!(
        "option 1 (no detection): P2 failed in iterations {:?} — it recovers",
        no_detect
            .iterations
            .iter()
            .enumerate()
            .filter(|(_, it)| !it.failed_procs.is_empty())
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    );
    println!(
        "option 2 (faulty array):  P2 failed in iterations {:?} — once detected, excluded forever",
        detect
            .iterations
            .iter()
            .enumerate()
            .filter(|(_, it)| !it.failed_procs.is_empty())
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    );
    assert!(no_detect.all_masked() && detect.all_masked());
    assert!(no_detect.iterations[2].failed_procs.is_empty());
    assert_eq!(detect.detected_faulty, vec![ProcId(1)]);

    println!("\nall scenarios masked.");
    Ok(())
}
