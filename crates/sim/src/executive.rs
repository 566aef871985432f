//! A threaded distributed executive: runs a static schedule on real OS
//! threads with message passing, the concurrency analogue of the executive
//! SynDEx generates from a schedule.
//!
//! * one **compute thread per processor**, executing its replica sequence
//!   in static order with blocking receives (no timeouts — paper §2
//!   point 4);
//! * one **communication thread per link**, transmitting the link's comms
//!   in the grant order fixed offline by the analytic replay (the loaded
//!   "TDMA table"; fault-free it is exactly the booked static order of
//!   paper §4.2 — under failures the replay's forfeit arbitration keeps it
//!   deadlock-free);
//! * data travels as length-prefixed byte messages ([`crate::wire`]) over
//!   `crossbeam` channels; receivers take the **first** arrival for each
//!   dependency and discard later replicas (active replication);
//! * time is *logical*: every action carries the timestamp algebra of the
//!   analytic replay, so the executive's outcome is deterministic and — as
//!   the integration tests assert — byte-identical to
//!   [`ftbar_core::replay`], while the interleaving of real threads is
//!   exercised for races and deadlocks.
//!
//! Fail-silent failures are injected by timestamp: a processor whose
//! replica would complete after its failure instant publishes nothing from
//! then on. (Cancellation notices exist only so the *test harness*
//! terminates; the modelled system relies on replication, not on
//! notifications.)
//!
//! Multi-hop (store-and-forward) routes are not supported by the threaded
//! executive — [`run`] returns [`ExecutiveError::MultiHop`] — since every
//! experimental topology in the paper is fully connected.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use ftbar_core::{CommId, CommIndex, FailureScenario, ReplicaId, Schedule};
use ftbar_model::{OpId, Problem, ProcId, Time};
use parking_lot::{Condvar, Mutex};

use crate::wire::{decode, encode, Message};

/// Error returned by [`run`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecutiveError {
    /// The schedule contains a multi-hop comm.
    MultiHop {
        /// The offending comm.
        comm: CommId,
    },
}

impl core::fmt::Display for ExecutiveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecutiveError::MultiHop { comm } => {
                write!(f, "{comm} uses a multi-hop route; the threaded executive requires point-to-point reachability")
            }
        }
    }
}

impl std::error::Error for ExecutiveError {}

/// Outcome of one replica under the executive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Ran to completion at the given logical window.
    Completed {
        /// Logical start.
        start: Time,
        /// Logical end.
        end: Time,
    },
    /// Produced nothing (processor failed or inputs never arrived).
    Lost,
}

/// Result of [`run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutiveReport {
    /// Per-replica outcomes, indexed by [`ReplicaId`].
    pub outcomes: Vec<ExecOutcome>,
    /// Total messages physically delivered over links.
    pub messages_delivered: usize,
}

impl ExecutiveReport {
    /// End of the first completed replica of `op`, if any.
    pub fn op_completion(&self, schedule: &Schedule, op: OpId) -> Option<Time> {
        schedule
            .replicas_of(op)
            .iter()
            .filter_map(|&r| match self.outcomes[r.index()] {
                ExecOutcome::Completed { end, .. } => Some(end),
                ExecOutcome::Lost => None,
            })
            .min()
    }
}

/// One mailbox item per processor: the comm, and `Some(wire bytes)` for a
/// delivery or `None` for a cancellation notice.
type Delivery = (CommId, Option<bytes::Bytes>);

/// State of one comm's source data, shared between the producing compute
/// thread and the link thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Pending,
    Ready(Time),
    Cancelled,
}

#[derive(Debug)]
struct CommSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl CommSlot {
    fn new() -> Self {
        CommSlot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        }
    }

    fn set(&self, s: SlotState) {
        let mut g = self.state.lock();
        if *g == SlotState::Pending {
            *g = s;
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> SlotState {
        let mut g = self.state.lock();
        while *g == SlotState::Pending {
            self.cv.wait(&mut g);
        }
        *g
    }
}

/// Runs the schedule on real threads under the given failure scenario and
/// returns per-replica outcomes with logical timestamps.
///
/// # Errors
///
/// [`ExecutiveError::MultiHop`] if any comm spans more than one link.
pub fn run(
    problem: &Problem,
    schedule: &Schedule,
    scenario: &FailureScenario,
) -> Result<ExecutiveReport, ExecutiveError> {
    for c in 0..schedule.comm_count() {
        if schedule.comm(CommId(c as u32)).hops.len() != 1 {
            return Err(ExecutiveError::MultiHop {
                comm: CommId(c as u32),
            });
        }
    }

    let n_procs = schedule.proc_count();
    // The analytic replay fixes the realized per-link grant order and comm
    // arrival instants (the offline "TDMA table" a deployment would load
    // into its communication units — under the forfeit arbitration of
    // `ftbar_core::replay`, the nominal order is exactly the booked order).
    // Processor-side timing below is computed live from deliveries and is
    // asserted equal to the replay by the test suite.
    let ana = ftbar_core::replay(problem, schedule, scenario);
    let mut realized: Vec<Vec<(CommId, Option<Time>)>> = vec![Vec::new(); schedule.link_count()];
    {
        let mut delivered: Vec<Vec<(Time, CommId)>> = vec![Vec::new(); schedule.link_count()];
        for c in 0..schedule.comm_count() {
            let cid = CommId(c as u32);
            let link = schedule.comm(cid).hops[0].link.index();
            match ana.comm_arrival(cid) {
                Some(t) => delivered[link].push((t, cid)),
                None => realized[link].push((cid, None)),
            }
        }
        for (link, mut d) in delivered.into_iter().enumerate() {
            d.sort();
            // Cancelled notices first (they unblock starving receivers
            // immediately), then deliveries in realized time order.
            let mut seq: Vec<(CommId, Option<Time>)> = realized[link].clone();
            seq.extend(d.into_iter().map(|(t, c)| (c, Some(t))));
            realized[link] = seq;
        }
    }
    let realized = Arc::new(realized);

    let slots: Arc<Vec<CommSlot>> = Arc::new(
        (0..schedule.comm_count())
            .map(|_| CommSlot::new())
            .collect(),
    );
    let mut senders: Vec<Sender<Delivery>> = Vec::new();
    let mut receivers: Vec<Option<Receiver<Delivery>>> = Vec::new();
    for _ in 0..n_procs {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(Some(rx));
    }

    let outcome_cells: Arc<Vec<Mutex<ExecOutcome>>> = Arc::new(
        (0..schedule.replica_count())
            .map(|_| Mutex::new(ExecOutcome::Lost))
            .collect(),
    );
    let delivered_count = Arc::new(Mutex::new(0usize));
    let index = CommIndex::new(schedule);
    let outbox = &Outbox {
        index: &index,
        slots: &slots,
    };

    std::thread::scope(|scope| {
        // Link threads: transmit in the realized grant order. A comm the
        // replay cancelled emits a cancellation notice without waiting (its
        // producer may never publish); a delivered comm waits for its
        // producer's data, then puts it on the wire with the realized
        // arrival timestamp.
        for link in problem.arch().links() {
            let slots = Arc::clone(&slots);
            let senders = senders.clone();
            let delivered_count = Arc::clone(&delivered_count);
            let realized = Arc::clone(&realized);
            scope.spawn(move || {
                for &(cid, arrival) in &realized[link.index()] {
                    let comm = schedule.comm(cid);
                    let dst_proc = schedule.replica(comm.dst).proc;
                    let Some(arrival) = arrival else {
                        let _ = senders[dst_proc.index()].send((cid, None));
                        continue;
                    };
                    match slots[cid.index()].wait() {
                        SlotState::Ready(_) => {
                            let msg = Message {
                                comm: cid.0,
                                dep: comm.dep.0,
                                timestamp: arrival,
                            };
                            *delivered_count.lock() += 1;
                            let _ = senders[dst_proc.index()].send((cid, Some(encode(&msg))));
                        }
                        SlotState::Cancelled => {
                            // Diverging from the replay is impossible for a
                            // deterministic schedule; unblock the receiver
                            // defensively anyway.
                            let _ = senders[dst_proc.index()].send((cid, None));
                        }
                        SlotState::Pending => unreachable!("wait() never returns Pending"),
                    }
                }
            });
        }
        drop(senders);

        // Compute threads.
        for proc in problem.arch().procs() {
            let rx = receivers[proc.index()].take().expect("one thread per proc");
            let outcome_cells = Arc::clone(&outcome_cells);
            scope.spawn(move || {
                compute_thread(
                    problem,
                    schedule,
                    scenario,
                    proc,
                    rx,
                    outbox,
                    &outcome_cells,
                );
            });
        }
    });

    let outcomes = outcome_cells.iter().map(|c| *c.lock()).collect();
    let messages_delivered = *delivered_count.lock();
    Ok(ExecutiveReport {
        outcomes,
        messages_delivered,
    })
}

/// Where a compute thread publishes results: each comm's source slot,
/// reached through the comm adjacency of the producing replica.
struct Outbox<'a> {
    index: &'a CommIndex,
    slots: &'a [CommSlot],
}

impl Outbox<'_> {
    /// Sets the source slot of every outgoing comm of `rid`.
    fn publish(&self, rid: ReplicaId, state: SlotState) {
        for c in self.index.outgoing(rid) {
            self.slots[c.index()].set(state);
        }
    }

    /// Cancels every not-yet-published outgoing comm of the replicas in
    /// `order[from..]`.
    fn cancel_from(&self, order: &[ReplicaId], from: usize) {
        for &rid in &order[from..] {
            self.publish(rid, SlotState::Cancelled);
        }
    }
}

fn compute_thread(
    problem: &Problem,
    schedule: &Schedule,
    scenario: &FailureScenario,
    proc: ProcId,
    rx: Receiver<Delivery>,
    outbox: &Outbox<'_>,
    outcomes: &[Mutex<ExecOutcome>],
) {
    let order: Vec<ReplicaId> = schedule.proc_order(proc).to_vec();
    let fail = scenario.fail_time(proc);
    // First-arrival bookkeeping: comm -> Some(arrival) / None (cancelled).
    let mut inbox: std::collections::HashMap<CommId, Option<Time>> =
        std::collections::HashMap::new();
    let mut local_end: std::collections::HashMap<OpId, Time> = std::collections::HashMap::new();
    let mut prev_end = Time::ZERO;

    for (idx, &rid) in order.iter().enumerate() {
        let rep = schedule.replica(rid);
        // Wired inputs: group incoming comms by dependency.
        let mut by_dep: std::collections::BTreeMap<u32, Vec<CommId>> =
            std::collections::BTreeMap::new();
        for &c in outbox.index.incoming(rid) {
            by_dep.entry(schedule.comm(c).dep.0).or_default().push(c);
        }
        let mut ready = Time::ZERO;
        let mut starved = false;
        for (dep_raw, comms) in &by_dep {
            let _ = dep_raw;
            // The first *logical* arrival among this dependency's comms. In
            // a deployed system physical time equals logical time, so the
            // first message received is the logical minimum; here thread
            // scheduling is unrelated to timestamps, so we wait until every
            // wired comm resolved (delivered or cancelled) and take the
            // minimum — same value, deterministic.
            let arrival = loop {
                if comms.iter().all(|c| inbox.contains_key(c)) {
                    break comms
                        .iter()
                        .filter_map(|c| inbox.get(c).copied().flatten())
                        .min(); // None => every source cancelled: starvation
                }
                match rx.recv() {
                    Ok((cid, payload)) => {
                        let t = payload
                            .map(|b| decode(&b).expect("well-formed wire message").timestamp);
                        inbox.insert(cid, t);
                    }
                    Err(_) => {
                        // All links done: everything pending is resolved.
                        break comms
                            .iter()
                            .filter_map(|c| inbox.get(c).copied().flatten())
                            .min();
                    }
                }
            };
            match arrival {
                Some(t) => ready = ready.max(t),
                None => {
                    starved = true;
                    break;
                }
            }
        }
        if starved {
            // Blocking receive would hang forever; the harness marks this
            // replica (and the rest of the sequence) lost.
            outbox.cancel_from(&order, idx);
            return;
        }
        // Local (unwired) dependencies.
        for (dep, pred) in problem.alg().sched_preds(rep.op) {
            let wired = by_dep.contains_key(&dep.0);
            if !wired {
                match local_end.get(&pred) {
                    Some(&t) => ready = ready.max(t),
                    None => {
                        // Local producer lost => this proc already returned.
                        outbox.cancel_from(&order, idx);
                        return;
                    }
                }
            }
        }
        let start = prev_end.max(ready);
        let end = start + rep.slot.duration();
        if let Some(tf) = fail {
            if end > tf {
                // Fail-silent: this and all later replicas publish nothing.
                outbox.cancel_from(&order, idx);
                return;
            }
        }
        *outcomes[rid.index()].lock() = ExecOutcome::Completed { start, end };
        local_end.insert(rep.op, end);
        prev_end = end;
        outbox.publish(rid, SlotState::Ready(end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_core::{ftbar, replay, ReplicaOutcome};
    use ftbar_model::paper_example;

    fn agrees_with_replay(scenario: &FailureScenario) {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let exec = run(&p, &s, scenario).unwrap();
        let ana = replay(&p, &s, scenario);
        for i in 0..s.replica_count() {
            let expected = match ana.outcomes()[i] {
                ReplicaOutcome::Completed { start, end } => ExecOutcome::Completed { start, end },
                ReplicaOutcome::Lost => ExecOutcome::Lost,
            };
            assert_eq!(
                exec.outcomes[i], expected,
                "replica {i} diverges from the analytic replay"
            );
        }
    }

    #[test]
    fn nominal_execution_matches_replay() {
        agrees_with_replay(&FailureScenario::none(3));
    }

    #[test]
    fn single_failures_match_replay() {
        for proc in 0..3u32 {
            agrees_with_replay(&FailureScenario::single(3, ProcId(proc), Time::ZERO));
        }
    }

    #[test]
    fn mid_schedule_failures_match_replay() {
        for ticks in [1_000u64, 3_000, 7_500] {
            agrees_with_replay(&FailureScenario::single(
                3,
                ProcId(0),
                Time::from_ticks(ticks),
            ));
        }
    }

    #[test]
    fn double_failures_terminate_cleanly() {
        // Beyond Npf the system cannot mask, but the harness must not hang.
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let scen = FailureScenario::multi(3, &[(ProcId(0), Time::ZERO), (ProcId(1), Time::ZERO)]);
        let exec = run(&p, &s, &scen).unwrap();
        let i = p.alg().op_by_name("I").unwrap();
        assert!(exec.op_completion(&s, i).is_none());
    }

    #[test]
    fn repeated_runs_are_deterministic_despite_threading() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let scen = FailureScenario::single(3, ProcId(1), Time::from_units(2.0));
        let a = run(&p, &s, &scen).unwrap();
        for _ in 0..8 {
            let b = run(&p, &s, &scen).unwrap();
            assert_eq!(a, b);
        }
    }
}
