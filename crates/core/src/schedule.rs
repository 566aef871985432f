//! The static schedule produced by the schedulers.
//!
//! A [`Schedule`] is a set of operation *replicas* booked on processors and
//! *comms* (replicated data transfers, each a chain of link hops) booked on
//! links, with a fixed total order per resource. It is a passive value:
//! queries only. Construction goes through
//! [`ScheduleBuilder`](crate::ScheduleBuilder).

use core::fmt;

use ftbar_model::{DepId, LinkId, OpId, ProcId, Time};
use serde::{Deserialize, Serialize};

use crate::timeline::Slot;

/// Identifier of a replica within a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// Returns the id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rep{}", self.0)
    }
}

/// Identifier of a comm within a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CommId(pub u32);

impl CommId {
    /// Returns the id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CommId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comm{}", self.0)
    }
}

/// One scheduled replica of an operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Replica {
    /// The replicated operation.
    pub op: OpId,
    /// Hosting processor.
    pub proc: ProcId,
    /// Nominal (fault-free) execution window; `start` is the paper's
    /// `S_best` placement.
    pub slot: Slot,
    /// The paper's `S_worst`: earliest start accounting for the *latest*
    /// booked input arrival (used for priorities, recorded for analysis).
    pub start_worst: Time,
    /// True if the replica was created by LIP duplication
    /// (`Minimize_start_time`) rather than by main-loop selection.
    pub duplicated: bool,
}

impl Replica {
    /// Nominal start time.
    pub fn start(&self) -> Time {
        self.slot.start
    }

    /// Nominal end time.
    pub fn end(&self) -> Time {
        self.slot.end
    }
}

/// One booked hop of a comm on a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BookedHop {
    /// Link carrying the hop.
    pub link: LinkId,
    /// Sending processor.
    pub from: ProcId,
    /// Receiving processor.
    pub to: ProcId,
    /// Nominal transfer window on the link.
    pub slot: Slot,
}

/// A scheduled data transfer: the value of one data-dependency sent from one
/// producer replica to one consumer replica, over a (possibly multi-hop)
/// route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comm {
    /// The data-dependency carried.
    pub dep: DepId,
    /// Producer replica.
    pub src: ReplicaId,
    /// Consumer replica.
    pub dst: ReplicaId,
    /// Route hops, in order; never empty.
    pub hops: Vec<BookedHop>,
}

impl Comm {
    /// Nominal arrival time at the consumer's processor.
    pub fn arrival(&self) -> Time {
        self.hops
            .last()
            .expect("comms have at least one hop")
            .slot
            .end
    }

    /// Nominal departure time from the producer's processor.
    pub fn departure(&self) -> Time {
        self.hops
            .first()
            .expect("comms have at least one hop")
            .slot
            .start
    }
}

/// A complete static schedule (immutable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    pub(crate) npf: u32,
    pub(crate) replicas: Vec<Replica>,
    pub(crate) comms: Vec<Comm>,
    /// Per operation: its replicas, in booking order.
    pub(crate) replicas_of: Vec<Vec<ReplicaId>>,
    /// Per processor: replicas in static (start) order.
    pub(crate) proc_order: Vec<Vec<ReplicaId>>,
    /// Per link: `(comm, hop index)` in static (start) order.
    pub(crate) link_order: Vec<Vec<(CommId, usize)>>,
}

impl Schedule {
    /// The failure count the schedule was built for.
    pub fn npf(&self) -> u32 {
        self.npf
    }

    /// All replicas, indexed by [`ReplicaId`].
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// All comms, indexed by [`CommId`].
    pub fn comms(&self) -> &[Comm] {
        &self.comms
    }

    /// A replica by id.
    pub fn replica(&self, id: ReplicaId) -> &Replica {
        &self.replicas[id.index()]
    }

    /// A comm by id.
    pub fn comm(&self, id: CommId) -> &Comm {
        &self.comms[id.index()]
    }

    /// Replicas of an operation, in booking order.
    pub fn replicas_of(&self, op: OpId) -> &[ReplicaId] {
        &self.replicas_of[op.index()]
    }

    /// Replicas booked on a processor, in static execution order.
    pub fn proc_order(&self, proc: ProcId) -> &[ReplicaId] {
        &self.proc_order[proc.index()]
    }

    /// Hops booked on a link, in static transfer order.
    pub fn link_order(&self, link: LinkId) -> &[(CommId, usize)] {
        &self.link_order[link.index()]
    }

    /// Number of operations covered.
    pub fn op_count(&self) -> usize {
        self.replicas_of.len()
    }

    /// Number of processors.
    pub fn proc_count(&self) -> usize {
        self.proc_order.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.link_order.len()
    }

    /// The replica of `op` hosted on `proc`, if any.
    pub fn replica_on(&self, op: OpId, proc: ProcId) -> Option<ReplicaId> {
        self.replicas_of(op)
            .iter()
            .copied()
            .find(|&r| self.replica(r).proc == proc)
    }

    /// Nominal makespan: the end of the last replica (the Gantt length; the
    /// paper's schedule length, `FTSL`).
    pub fn makespan(&self) -> Time {
        self.replicas
            .iter()
            .map(|r| r.end())
            .fold(Time::ZERO, Time::max)
    }

    /// Nominal completion of useful work: for each operation the end of its
    /// *first* finishing replica, maximized over operations (operations
    /// without any replica — possible in partial schedules — are skipped).
    /// Never later than [`Schedule::makespan`].
    pub fn completion(&self) -> Time {
        (0..self.replicas_of.len())
            .filter_map(|op| {
                self.replicas_of[op]
                    .iter()
                    .map(|&r| self.replica(r).end())
                    .min()
            })
            .fold(Time::ZERO, Time::max)
    }

    /// End of the last booked activity, replicas and comms included.
    pub fn last_activity(&self) -> Time {
        let comm_end = self
            .comms
            .iter()
            .map(|c| c.arrival())
            .fold(Time::ZERO, Time::max);
        self.makespan().max(comm_end)
    }

    /// Total number of inter-processor data transfers (comm count).
    pub fn comm_count(&self) -> usize {
        self.comms.len()
    }

    /// Total replica count (including duplicated ones).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }
}

/// Per-replica comm adjacency of a [`Schedule`]: the ids of the comms each
/// replica consumes and produces, in comm order.
///
/// Built once in O(R + C) as two compressed sparse rows (an offset per
/// replica into one flat id array per direction), so the replay and the
/// validator answer each replica's adjacency in time proportional to its
/// own comm count instead of scanning every comm. Kept
/// outside [`Schedule`] so the schedule's serialized form is unchanged.
#[derive(Debug, Clone)]
pub struct CommIndex {
    in_off: Vec<u32>,
    in_ids: Vec<CommId>,
    out_off: Vec<u32>,
    out_ids: Vec<CommId>,
}

impl CommIndex {
    /// Indexes every comm of `schedule` by consumer and producer replica.
    pub fn new(schedule: &Schedule) -> Self {
        let rows = schedule.replica_count();
        let (in_off, in_ids) = csr(rows, &schedule.comms, |c| c.dst);
        let (out_off, out_ids) = csr(rows, &schedule.comms, |c| c.src);
        CommIndex {
            in_off,
            in_ids,
            out_off,
            out_ids,
        }
    }

    /// Comms consumed by `replica`, in comm order.
    pub fn incoming(&self, replica: ReplicaId) -> &[CommId] {
        let r = replica.index();
        &self.in_ids[self.in_off[r] as usize..self.in_off[r + 1] as usize]
    }

    /// Comms produced by `replica`, in comm order.
    pub fn outgoing(&self, replica: ReplicaId) -> &[CommId] {
        let r = replica.index();
        &self.out_ids[self.out_off[r] as usize..self.out_off[r + 1] as usize]
    }
}

/// Counting-sort CSR of comm ids keyed by one endpoint replica; ids stay in
/// comm order within each row.
fn csr(rows: usize, comms: &[Comm], key: impl Fn(&Comm) -> ReplicaId) -> (Vec<u32>, Vec<CommId>) {
    let mut off = vec![0u32; rows + 1];
    for c in comms {
        off[key(c).index() + 1] += 1;
    }
    for r in 0..rows {
        off[r + 1] += off[r];
    }
    let mut next = off.clone();
    let mut ids = vec![CommId(0); comms.len()];
    for (i, c) in comms.iter().enumerate() {
        let slot = &mut next[key(c).index()];
        ids[*slot as usize] = CommId(i as u32);
        *slot += 1;
    }
    (off, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_displays() {
        assert_eq!(ReplicaId(4).to_string(), "rep4");
        assert_eq!(CommId(2).to_string(), "comm2");
    }

    #[test]
    fn comm_index_rows_match_a_scan_of_every_comm() {
        let p = ftbar_model::paper_example();
        let s = crate::ftbar::schedule(&p).unwrap();
        let index = CommIndex::new(&s);
        let scan = |rid: ReplicaId, end: fn(&Comm) -> ReplicaId| -> Vec<CommId> {
            (0..s.comm_count() as u32)
                .map(CommId)
                .filter(|&c| end(s.comm(c)) == rid)
                .collect()
        };
        let mut total = 0;
        for r in 0..s.replica_count() as u32 {
            let rid = ReplicaId(r);
            assert_eq!(index.incoming(rid), scan(rid, |c| c.dst));
            assert_eq!(index.outgoing(rid), scan(rid, |c| c.src));
            total += index.incoming(rid).len();
        }
        assert_eq!(total, s.comm_count());
    }

    // Other behavioural tests for Schedule queries live in builder.rs and
    // the integration tests, where real schedules are constructed.
}
