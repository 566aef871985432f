//! Schedule statistics: utilization, communication volume, replication
//! accounting — the numbers a deployment engineer reads off a schedule.

use ftbar_model::{Problem, Time};
use serde::{Deserialize, Serialize};

use crate::schedule::Schedule;

/// Aggregated statistics of one schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Nominal schedule length (Gantt height).
    pub makespan: Time,
    /// Per-processor busy time, indexed by processor id.
    pub proc_busy: Vec<Time>,
    /// Per-processor utilization in `[0, 1]` w.r.t. the makespan.
    pub proc_utilization: Vec<f64>,
    /// Per-link busy time.
    pub link_busy: Vec<Time>,
    /// Per-link busy time divided by the makespan. Unlike processor
    /// utilization this can exceed 1: a redundant comm only has to arrive
    /// for the failure case, so the slower of a replica's `Npf + 1` inputs
    /// may still be on its links after the last replica has ended.
    pub link_utilization: Vec<f64>,
    /// Total replicas (including duplicated ones).
    pub replicas: usize,
    /// Replicas created by `Minimize_start_time` duplication.
    pub duplicated_replicas: usize,
    /// Average replicas per operation.
    pub avg_replication: f64,
    /// Total inter-processor transfers booked.
    pub comms: usize,
    /// Total time booked on links (sums every hop).
    pub comm_time: Time,
    /// Total execution time booked on processors.
    pub exec_time: Time,
}

impl ScheduleStats {
    /// Mean processor utilization.
    pub fn mean_proc_utilization(&self) -> f64 {
        if self.proc_utilization.is_empty() {
            0.0
        } else {
            self.proc_utilization.iter().sum::<f64>() / self.proc_utilization.len() as f64
        }
    }
}

/// Computes [`ScheduleStats`] for a schedule.
pub fn stats(problem: &Problem, schedule: &Schedule) -> ScheduleStats {
    let makespan = schedule.makespan();
    let horizon = makespan.max(Time::from_ticks(1));

    let mut proc_busy = vec![Time::ZERO; problem.arch().proc_count()];
    for rep in schedule.replicas() {
        proc_busy[rep.proc.index()] += rep.slot.duration();
    }
    let mut link_busy = vec![Time::ZERO; problem.arch().link_count()];
    let mut comm_time = Time::ZERO;
    for comm in schedule.comms() {
        for hop in &comm.hops {
            link_busy[hop.link.index()] += hop.slot.duration();
            comm_time += hop.slot.duration();
        }
    }
    let exec_time: Time = proc_busy.iter().copied().sum();
    let duplicated = schedule.replicas().iter().filter(|r| r.duplicated).count();
    let op_count = schedule.op_count().max(1);

    ScheduleStats {
        makespan,
        proc_utilization: proc_busy
            .iter()
            .map(|b| b.as_units() / horizon.as_units())
            .collect(),
        link_utilization: link_busy
            .iter()
            .map(|b| b.as_units() / horizon.as_units())
            .collect(),
        proc_busy,
        link_busy,
        replicas: schedule.replica_count(),
        duplicated_replicas: duplicated,
        avg_replication: schedule.replica_count() as f64 / op_count as f64,
        comms: schedule.comm_count(),
        comm_time,
        exec_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{basic, ftbar};
    use ftbar_model::paper_example;

    #[test]
    fn paper_example_stats_are_sane() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let st = stats(&p, &s);
        assert_eq!(st.makespan, Time::from_units(15.05));
        assert_eq!(st.proc_busy.len(), 3);
        assert_eq!(st.link_busy.len(), 3);
        assert!(st
            .proc_utilization
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
        assert!(st
            .link_utilization
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
        // Npf = 1: at least two replicas per op.
        assert!(st.avg_replication >= 2.0);
        assert!(
            st.duplicated_replicas > 0,
            "the example duplicates A et al."
        );
        assert_eq!(st.replicas, s.replica_count());
        assert!(st.exec_time > st.makespan, "3 processors work in parallel");
        assert!(st.mean_proc_utilization() > 0.3);
    }

    #[test]
    fn non_ft_uses_less_of_everything() {
        let p = paper_example();
        let ft = stats(&p, &ftbar::schedule(&p).unwrap());
        let nf = stats(&p, &basic::schedule_non_ft(&p).unwrap());
        assert!(nf.replicas < ft.replicas);
        assert!(nf.exec_time < ft.exec_time);
        assert!(nf.comms <= ft.comms);
    }
}
