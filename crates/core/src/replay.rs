//! Timed replay of a static schedule, in the absence or presence of
//! fail-silent processor failures (paper §4.3/§5 semantics).
//!
//! The replay executes the schedule the way the generated distributed
//! executive would:
//!
//! * each processor runs its replicas **in static order**; a replica starts
//!   as soon as the previous one finished *and* its first complete input set
//!   is available (blocking receive, no timeouts);
//! * each link grants transmissions by **forfeit arbitration** over the
//!   static booked order: fault-free, transmissions happen exactly in the
//!   booked order at the booked times; a comm whose data is late because of
//!   a failure *forfeits* its slot, so other communication units proceed —
//!   a strict global head-of-line rule would deadlock under failures (a
//!   stalled comm's producer can transitively wait on a transfer queued
//!   behind it); a comm whose producer died is silently cancelled
//!   (fail-silent senders never put data on the wire);
//! * a processor that fails at `t` completes nothing from `t` on and sends
//!   nothing from `t` on (transfers cut mid-flight are discarded by the
//!   receiver);
//! * comms toward a failed processor still occupy their links (no failure
//!   detection — the paper's runtime option 1);
//! * a cancelled comm releases the booked slots of all its remaining hops
//!   at once, on every link of its route;
//! * within one instant, every replica and hop end applies first, then the
//!   failures, then link arbitration, so a grant sees every hop whose data
//!   arrived at its instant.
//!
//! DESIGN.md §7 states every rule in full; `ftbar_sim::reference` is a
//! naive second implementation of them, used as this replay's test oracle.
//!
//! In the **absence** of failures the replay reproduces the booked times
//! exactly; the validator asserts this invariant.

use ftbar_model::{DepId, OpId, Problem, ProcId, Time};
use serde::{Deserialize, Serialize};

use crate::schedule::{CommId, CommIndex, ReplicaId, Schedule};

/// A failure scenario: for each processor — and optionally each link — the
/// instant it fails (fail-silent, permanent for the rest of the iteration).
///
/// Link failures are an extension beyond the paper (its §7 names them as
/// future work, following Dima et al.): a failed link transmits nothing
/// from its failure instant on; transfers cut mid-flight are discarded by
/// the receiver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureScenario {
    fail_at: Vec<Option<Time>>,
    /// Sparse: grown on demand by [`FailureScenario::with_link_failure`].
    link_fail_at: Vec<Option<Time>>,
}

impl FailureScenario {
    /// No failure at all.
    pub fn none(proc_count: usize) -> Self {
        FailureScenario {
            fail_at: vec![None; proc_count],
            link_fail_at: Vec::new(),
        }
    }

    /// A single processor failing at `t`.
    pub fn single(proc_count: usize, proc: ProcId, t: Time) -> Self {
        let mut s = Self::none(proc_count);
        s.fail_at[proc.index()] = Some(t);
        s
    }

    /// Several processors failing at given instants.
    pub fn multi(proc_count: usize, failures: &[(ProcId, Time)]) -> Self {
        let mut s = Self::none(proc_count);
        for &(p, t) in failures {
            s.fail_at[p.index()] = Some(t);
        }
        s
    }

    /// Adds a fail-silent link failure at `t` (builder style).
    #[must_use]
    pub fn with_link_failure(mut self, link: ftbar_model::LinkId, t: Time) -> Self {
        if self.link_fail_at.len() <= link.index() {
            self.link_fail_at.resize(link.index() + 1, None);
        }
        self.link_fail_at[link.index()] = Some(t);
        self
    }

    /// The failure instant of `proc`, if it fails.
    pub fn fail_time(&self, proc: ProcId) -> Option<Time> {
        self.fail_at[proc.index()]
    }

    /// The failure instant of `link`, if it fails.
    pub fn link_fail_time(&self, link: ftbar_model::LinkId) -> Option<Time> {
        self.link_fail_at.get(link.index()).copied().flatten()
    }

    /// Processors that fail, in id order.
    pub fn failed_procs(&self) -> Vec<ProcId> {
        (0..self.fail_at.len() as u32)
            .map(ProcId)
            .filter(|&p| self.fail_at[p.index()].is_some())
            .collect()
    }

    /// Number of failing processors.
    pub fn failure_count(&self) -> usize {
        self.fail_at.iter().filter(|f| f.is_some()).count()
    }

    /// Number of failing links.
    pub fn link_failure_count(&self) -> usize {
        self.link_fail_at.iter().filter(|f| f.is_some()).count()
    }
}

/// What happened to one replica during a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaOutcome {
    /// Executed to completion.
    Completed {
        /// Actual start.
        start: Time,
        /// Actual end.
        end: Time,
    },
    /// Produced nothing: its processor died first, or its inputs never
    /// arrived (possible only beyond the tolerated failure count).
    Lost,
}

impl ReplicaOutcome {
    /// The completion time, if completed.
    pub fn end(&self) -> Option<Time> {
        match self {
            ReplicaOutcome::Completed { end, .. } => Some(*end),
            ReplicaOutcome::Lost => None,
        }
    }
}

/// Result of a replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayResult {
    outcomes: Vec<ReplicaOutcome>,
    /// Arrival of each comm at its final destination (`None`: cancelled).
    comm_arrivals: Vec<Option<Time>>,
    /// Per operation: end of its first completed replica.
    op_completion: Vec<Option<Time>>,
    /// Latest op completion, if every operation completed somewhere.
    completion: Option<Time>,
    /// Time of the last processed event (links included).
    last_event: Time,
}

impl ReplayResult {
    /// Outcome of each replica, indexed by [`ReplicaId`].
    pub fn outcomes(&self) -> &[ReplicaOutcome] {
        &self.outcomes
    }

    /// Outcome of one replica.
    pub fn outcome(&self, r: ReplicaId) -> ReplicaOutcome {
        self.outcomes[r.index()]
    }

    /// Delivered arrival time of a comm (`None` if cancelled).
    pub fn comm_arrival(&self, c: CommId) -> Option<Time> {
        self.comm_arrivals[c.index()]
    }

    /// End of the first completed replica of each operation.
    pub fn op_completions(&self) -> &[Option<Time>] {
        &self.op_completion
    }

    /// True if every operation completed on at least one processor
    /// (failure masking succeeded).
    pub fn all_ops_complete(&self) -> bool {
        self.completion.is_some()
    }

    /// The schedule length of this execution: latest first-completion over
    /// all operations. `None` if some operation never completed.
    pub fn completion(&self) -> Option<Time> {
        self.completion
    }

    /// Time of the last event (including straggler comms).
    pub fn last_event(&self) -> Time {
        self.last_event
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RState {
    Pending,
    Running { start: Time, end: Time },
    Done { start: Time, end: Time },
    Lost,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Replica finished (priority 0 — completes before a same-instant fail).
    ReplicaEnd(ReplicaId),
    /// Hop finished transmitting.
    HopEnd(CommId, usize),
    /// Processor becomes silent.
    ProcFail(ProcId),
    /// Re-evaluate a link's arbitration (a booked reservation expired).
    LinkProbe(u32),
}

/// Options for [`replay_with`].
#[derive(Debug, Clone, Default)]
pub struct ReplayConfig {
    /// Per processor: when `true`, comms whose *final destination* is this
    /// processor are not sent at all. Models the paper's §5 runtime option 2
    /// (failure detection with a faulty-processor array): healthy processors
    /// stop sending to detected-faulty ones, freeing link bandwidth.
    pub suppress_comms_to: Vec<bool>,
    /// Per replica (indexed by [`ReplicaId`]): additive execution-time
    /// stretch, modelling timing jitter beyond the worst-case `Exe` tables.
    /// Shorter than `replica_count` is allowed (missing entries stretch by
    /// zero); empty reproduces the booked durations exactly. The static
    /// order and the blocking-receive semantics are unchanged — jitter only
    /// delays completions, so the replay measures how much slack the
    /// schedule really has before the `Rtc` deadline breaks.
    pub extend_durations: Vec<Time>,
}

/// Replays `schedule` under `scenario`.
///
/// # Panics
///
/// Panics if `schedule` does not belong to `problem` (mismatched counts).
pub fn replay(problem: &Problem, schedule: &Schedule, scenario: &FailureScenario) -> ReplayResult {
    replay_with(problem, schedule, scenario, &ReplayConfig::default())
}

/// [`replay`] with explicit options.
///
/// # Panics
///
/// Panics if `schedule` does not belong to `problem` (mismatched counts).
pub fn replay_with(
    problem: &Problem,
    schedule: &Schedule,
    scenario: &FailureScenario,
    config: &ReplayConfig,
) -> ReplayResult {
    ReplayPlan::new(problem, schedule).run(scenario, config)
}

/// Where one dependency slot of a replica reads its input from: the
/// statically wired sources (DESIGN.md §7 rule 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DepSource {
    /// Comms were booked for the dependency; the first delivery feeds it.
    Comms,
    /// No comm was booked; the producer's replica on the same processor
    /// feeds it.
    Local(ReplicaId),
    /// Neither: the replica can never start.
    Unwired,
}

/// The wiring of one `(problem, schedule)` pair, flattened once and shared
/// by every replay of that schedule: [`ReplayPlan::run`] only reads it, so
/// one plan serves the nominal replay, every failure pattern, and worker
/// threads alike.
///
/// A replica's *dependency slots* are one per scheduling dependency of its
/// operation, in `Alg::sched_preds` order, numbered consecutively across
/// replicas.
#[derive(Debug)]
pub struct ReplayPlan<'a> {
    problem: &'a Problem,
    schedule: &'a Schedule,
    /// Per-replica comm adjacency: outgoing comms at each replica end,
    /// incoming ones for the validator's static checks.
    pub(crate) comms_of: CommIndex,
    /// Scheduling predecessors `(dep, producer op)` of operation `o`:
    /// `preds[pred_off[o] .. pred_off[o + 1]]`, in `sched_preds` order.
    preds: Vec<(DepId, OpId)>,
    pred_off: Vec<u32>,
    /// Dependency slots of replica `r`: `dep_off[r] .. dep_off[r + 1]`.
    dep_off: Vec<u32>,
    /// Per slot: its statically wired source.
    pub(crate) dep_src: Vec<DepSource>,
    /// Per comm: the consumer's slot its delivery feeds (`None` when its
    /// dependency does not constrain the consumer within the iteration).
    pub(crate) comm_slot: Vec<Option<u32>>,
    /// Hops of comm `c` in the flat per-hop run state: `hop_off[c] ..
    /// hop_off[c + 1]`.
    hop_off: Vec<u32>,
}

impl<'a> ReplayPlan<'a> {
    /// Flattens the wiring of `schedule` for replay.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` does not belong to `problem` (mismatched counts).
    pub fn new(problem: &'a Problem, schedule: &'a Schedule) -> Self {
        assert_eq!(
            schedule.proc_count(),
            problem.arch().proc_count(),
            "schedule/problem mismatch"
        );
        let (preds, pred_off) = crate::builder::flat_sched_preds(problem.alg());
        let preds_of =
            |o: OpId| &preds[pred_off[o.index()] as usize..pred_off[o.index() + 1] as usize];
        let mut dep_off = Vec::with_capacity(schedule.replica_count() + 1);
        dep_off.push(0u32);
        let mut dep_src = Vec::new();
        for rep in schedule.replicas() {
            for &(_, pred) in preds_of(rep.op) {
                dep_src.push(match schedule.replica_on(pred, rep.proc) {
                    Some(local) => DepSource::Local(local),
                    None => DepSource::Unwired,
                });
            }
            dep_off.push(dep_src.len() as u32);
        }
        let mut comm_slot = Vec::with_capacity(schedule.comm_count());
        let mut hop_off = Vec::with_capacity(schedule.comm_count() + 1);
        hop_off.push(0u32);
        for comm in schedule.comms() {
            let slot = preds_of(schedule.replica(comm.dst).op)
                .iter()
                .position(|&(d, _)| d == comm.dep)
                .map(|i| dep_off[comm.dst.index()] + i as u32);
            if let Some(s) = slot {
                dep_src[s as usize] = DepSource::Comms;
            }
            comm_slot.push(slot);
            hop_off.push(hop_off[hop_off.len() - 1] + comm.hops.len() as u32);
        }
        ReplayPlan {
            problem,
            schedule,
            comms_of: CommIndex::new(schedule),
            preds,
            pred_off,
            dep_off,
            dep_src,
            comm_slot,
            hop_off,
        }
    }

    /// The problem this plan replays against.
    pub fn problem(&self) -> &'a Problem {
        self.problem
    }

    /// The schedule this plan replays.
    pub fn schedule(&self) -> &'a Schedule {
        self.schedule
    }

    /// Scheduling predecessors `(dep, producer op)` of `op`, in
    /// `Alg::sched_preds` order.
    pub(crate) fn sched_preds(&self, op: OpId) -> &[(DepId, OpId)] {
        &self.preds[self.pred_off[op.index()] as usize..self.pred_off[op.index() + 1] as usize]
    }

    /// The dependency slots of `r`, in `sched_preds` order of its op.
    pub(crate) fn dep_slots(&self, r: ReplicaId) -> std::ops::Range<usize> {
        self.dep_off[r.index()] as usize..self.dep_off[r.index() + 1] as usize
    }

    /// Replays the schedule under `scenario` with `config`. Every call
    /// starts from fresh run state, so calls are independent of each
    /// other and of their order.
    pub fn run(&self, scenario: &FailureScenario, config: &ReplayConfig) -> ReplayResult {
        let mut r = Run::new(self, scenario, config);
        if !config.suppress_comms_to.is_empty() {
            for c in 0..self.schedule.comm_count() {
                let cid = CommId(c as u32);
                let dst_proc = self.schedule.replica(self.schedule.comm(cid).dst).proc;
                if config.suppress_comms_to[dst_proc.index()] {
                    r.cancel(cid);
                }
            }
        }
        r.run()
    }
}

/// The state of one replay: flat per-replica, per-slot, per-comm, per-hop
/// and per-link tables over a [`ReplayPlan`].
struct Run<'p, 'a> {
    plan: &'p ReplayPlan<'a>,
    schedule: &'a Schedule,
    scenario: &'p FailureScenario,
    config: &'p ReplayConfig,

    rstate: Vec<RState>,
    /// Per dependency slot: earliest wired comm arrival.
    dep_ready: Vec<Option<Time>>,
    /// Per comm: next hop to transmit.
    comm_next_hop: Vec<usize>,
    /// Per hop (flat, see [`ReplayPlan`]): delivery time at hop end.
    hop_done: Vec<Option<Time>>,
    comm_cancelled: Vec<bool>,
    comm_arrival: Vec<Option<Time>>,

    /// Per proc: index into proc_order of the next replica to start.
    proc_next: Vec<usize>,
    proc_dead: Vec<bool>,
    /// Per hop (flat): transmission has been granted.
    hop_started: Vec<bool>,
    link_busy_until: Vec<Time>,
    /// Per link: true while a hop is in flight.
    link_in_flight: Vec<bool>,
    /// Per link: index into `link_order` of the first hop neither started
    /// nor cancelled. Both flags only ever turn on, so the skipped prefix
    /// can never become pending again.
    link_head: Vec<usize>,
    /// Per link: number of hops that are ready to transmit (data arrived,
    /// not started, not cancelled), so arbitration skips a link with none.
    link_ready: Vec<usize>,

    /// Links to arbitrate once the current instant's ends and failures are
    /// all applied, each listed once (`link_dirty` marks membership).
    dirty: Vec<usize>,
    link_dirty: Vec<bool>,

    /// Pending events by `(time, priority, seq)`; `seq` is unique, so the
    /// event itself never decides the order.
    queue: std::collections::BinaryHeap<std::cmp::Reverse<(Time, u8, u64, Event)>>,
    seq: u64,
    last_event: Time,
}

impl Event {
    /// Same-instant priority: ends, then failures, then link probes.
    fn prio(self) -> u8 {
        match self {
            Event::ReplicaEnd(_) | Event::HopEnd(..) => 0,
            Event::ProcFail(_) => 1,
            Event::LinkProbe(_) => 2,
        }
    }
}

impl<'p, 'a> Run<'p, 'a> {
    fn new(
        plan: &'p ReplayPlan<'a>,
        scenario: &'p FailureScenario,
        config: &'p ReplayConfig,
    ) -> Self {
        let schedule = plan.schedule;
        let hops = *plan.hop_off.last().expect("offsets start at 0") as usize;
        Run {
            plan,
            schedule,
            scenario,
            config,
            rstate: vec![RState::Pending; schedule.replica_count()],
            dep_ready: vec![None; plan.dep_src.len()],
            comm_next_hop: vec![0; schedule.comm_count()],
            hop_done: vec![None; hops],
            comm_cancelled: vec![false; schedule.comm_count()],
            comm_arrival: vec![None; schedule.comm_count()],
            proc_next: vec![0; schedule.proc_count()],
            proc_dead: vec![false; schedule.proc_count()],
            hop_started: vec![false; hops],
            link_busy_until: vec![Time::ZERO; schedule.link_count()],
            link_in_flight: vec![false; schedule.link_count()],
            link_head: vec![0; schedule.link_count()],
            link_ready: vec![0; schedule.link_count()],
            dirty: Vec::new(),
            link_dirty: vec![false; schedule.link_count()],
            queue: std::collections::BinaryHeap::new(),
            seq: 0,
            last_event: Time::ZERO,
        }
    }

    /// Index of hop `hop` of `cid` in the flat per-hop tables.
    fn hop_index(&self, cid: CommId, hop: usize) -> usize {
        self.plan.hop_off[cid.index()] as usize + hop
    }

    fn push(&mut self, t: Time, e: Event) {
        self.seq += 1;
        self.queue
            .push(std::cmp::Reverse((t, e.prio(), self.seq, e)));
    }

    fn run(mut self) -> ReplayResult {
        for p in self.plan.problem.arch().procs() {
            if let Some(t) = self.scenario.fail_time(p) {
                self.push(t, Event::ProcFail(p));
            }
        }
        for p in 0..self.schedule.proc_count() {
            self.try_start_proc(ProcId(p as u32));
        }
        for l in 0..self.schedule.link_count() {
            self.mark_link(l);
        }
        loop {
            // Same-instant tie order: replica and hop ends, then failures,
            // then link arbitration — so a grant sees every hop that
            // became ready at its instant, whatever order the heap pops
            // same-instant ends in.
            let instant_over = self
                .queue
                .peek()
                .is_none_or(|std::cmp::Reverse((t, ..))| *t > self.last_event);
            if instant_over && !self.dirty.is_empty() {
                while let Some(l) = self.dirty.pop() {
                    self.link_dirty[l] = false;
                    self.try_start_link(l, self.last_event);
                }
                continue;
            }
            let Some(std::cmp::Reverse((t, _, _, event))) = self.queue.pop() else {
                break;
            };
            self.last_event = self.last_event.max(t);
            match event {
                Event::ReplicaEnd(r) => self.on_replica_end(r),
                Event::HopEnd(c, h) => self.on_hop_end(c, h, t),
                Event::ProcFail(p) => self.on_proc_fail(p),
                Event::LinkProbe(l) => self.try_start_link(l as usize, t),
            }
        }
        self.finish()
    }

    /// Queues `link` for arbitration at the end of the current instant.
    fn mark_link(&mut self, link: usize) {
        if !self.link_dirty[link] {
            self.link_dirty[link] = true;
            self.dirty.push(link);
        }
    }

    /// Tries to start the next pending replica on `p`.
    fn try_start_proc(&mut self, p: ProcId) {
        if self.proc_dead[p.index()] {
            return;
        }
        let order = self.schedule.proc_order(p);
        let Some(&rid) = order.get(self.proc_next[p.index()]) else {
            return;
        };
        if self.rstate[rid.index()] != RState::Pending {
            return;
        }
        // Previous replica must be finished.
        let prev_end = if self.proc_next[p.index()] == 0 {
            Time::ZERO
        } else {
            match self.rstate[order[self.proc_next[p.index()] - 1].index()] {
                RState::Done { end, .. } => end,
                _ => return, // still running (or lost => proc dead anyway)
            }
        };
        // First complete input set: every dependency has one arrival from
        // its statically wired sources (booked comms, or the local replica).
        let mut ready = Time::ZERO;
        for slot in self.plan.dep_slots(rid) {
            let arrival = match self.plan.dep_src[slot] {
                DepSource::Comms => self.dep_ready[slot],
                DepSource::Local(local) => match self.rstate[local.index()] {
                    RState::Done { end, .. } => Some(end),
                    _ => None,
                },
                DepSource::Unwired => None,
            };
            match arrival {
                Some(t) => ready = ready.max(t),
                None => return, // no wired arrival yet
            }
        }
        let start = prev_end.max(ready);
        let dur = self.schedule.replica(rid).slot.duration()
            + self
                .config
                .extend_durations
                .get(rid.index())
                .copied()
                .unwrap_or(Time::ZERO);
        let end = start + dur;
        self.rstate[rid.index()] = RState::Running { start, end };
        self.push(end, Event::ReplicaEnd(rid));
    }

    fn on_replica_end(&mut self, rid: ReplicaId) {
        let RState::Running { start, end } = self.rstate[rid.index()] else {
            return; // lost at a processor failure in the meantime
        };
        self.rstate[rid.index()] = RState::Done { start, end };
        // Outgoing comms may now transmit.
        let plan = self.plan;
        for &c in plan.comms_of.outgoing(rid) {
            if !self.comm_cancelled[c.index()] {
                self.link_ready[self.schedule.comm(c).hops[0].link.index()] += 1;
            }
        }
        let p = self.schedule.replica(rid).proc;
        self.proc_next[p.index()] += 1;
        self.try_start_proc(p);
        for &c in plan.comms_of.outgoing(rid) {
            self.mark_link(self.schedule.comm(c).hops[0].link.index());
        }
    }

    fn on_hop_end(&mut self, cid: CommId, hop: usize, t: Time) {
        if self.comm_cancelled[cid.index()] {
            // Sender died mid-flight: receiver discards; free the link.
            let l = self.schedule.comm(cid).hops[hop].link.index();
            self.link_in_flight[l] = false;
            self.mark_link(l);
            return;
        }
        let comm = self.schedule.comm(cid);
        let h = self.hop_index(cid, hop);
        self.hop_done[h] = Some(t);
        self.comm_next_hop[cid.index()] = hop + 1;
        let l = comm.hops[hop].link.index();
        self.link_in_flight[l] = false;
        if hop + 1 == comm.hops.len() {
            // Final delivery: satisfy the consumer's dependency.
            self.comm_arrival[cid.index()] = Some(t);
            if let Some(s) = self.plan.comm_slot[cid.index()] {
                let slot = &mut self.dep_ready[s as usize];
                *slot = Some(slot.map_or(t, |old| old.min(t)));
            }
            self.try_start_proc(self.schedule.replica(comm.dst).proc);
        } else {
            let next_l = comm.hops[hop + 1].link.index();
            self.link_ready[next_l] += 1;
            self.mark_link(next_l);
        }
        self.mark_link(l);
    }

    fn on_proc_fail(&mut self, p: ProcId) {
        self.proc_dead[p.index()] = true;
        // Kill everything not yet completed on p.
        for &rid in self.schedule.proc_order(p) {
            if !matches!(self.rstate[rid.index()], RState::Done { .. }) {
                self.rstate[rid.index()] = RState::Lost;
            }
        }
        // Cancel comms sourced from the lost replicas, and comms currently
        // in flight whose sending processor is p.
        for c in 0..self.schedule.comm_count() {
            let cid = CommId(c as u32);
            if self.comm_cancelled[c] {
                continue;
            }
            let comm = self.schedule.comm(cid);
            let src_lost = matches!(self.rstate[comm.src.index()], RState::Lost);
            // A pending or in-flight hop sent from p will never complete.
            let next = self.comm_next_hop[c];
            let sends_from_p = comm.hops.get(next).is_some_and(|h| h.from == p);
            if src_lost || sends_from_p {
                if self.comm_arrival[c].is_some() {
                    continue; // already fully delivered
                }
                self.cancel(cid);
                if let Some(h) = comm.hops.get(next) {
                    self.mark_link(h.link.index());
                }
            }
        }
    }

    /// When the data of hop `hop` of `cid` arrived, if the hop may transmit
    /// once its link grants it: it is the comm's current hop, and the
    /// producer completed (first hop) or the previous hop was delivered.
    fn ready_at(&self, cid: CommId, hop: usize) -> Option<Time> {
        if self.comm_next_hop[cid.index()] != hop {
            return None;
        }
        if hop == 0 {
            match self.rstate[self.schedule.comm(cid).src.index()] {
                RState::Done { end, .. } => Some(end),
                _ => None,
            }
        } else {
            self.hop_done[self.hop_index(cid, hop - 1)]
        }
    }

    /// Cancels `cid`, retiring its current hop from its link's ready count
    /// if that hop was waiting for a grant, and probing the links of its
    /// later hops.
    fn cancel(&mut self, cid: CommId) {
        let c = cid.index();
        if self.comm_cancelled[c] {
            return;
        }
        let hop = self.comm_next_hop[c];
        if let Some(h) = self.schedule.comm(cid).hops.get(hop) {
            if !self.hop_started[self.hop_index(cid, hop)] && self.ready_at(cid, hop).is_some() {
                self.link_ready[h.link.index()] -= 1;
            }
        }
        self.comm_cancelled[c] = true;
        // The comm's later hops stop holding their booked slots now: their
        // links arbitrate again at this instant (DESIGN.md §7).
        for h in self.schedule.comm(cid).hops.iter().skip(hop + 1) {
            self.mark_link(h.link.index());
        }
    }
    /// Tries to transmit one pending hop on `link`, at logical time `now`.
    ///
    /// Grant rule ("forfeit arbitration"): pending hops are considered in
    /// the static booked order; a *ready* hop may be granted only if every
    /// earlier-booked pending hop has **forfeited** — i.e. the candidate's
    /// effective start is strictly after that hop's booked start (it missed
    /// its slot, necessarily because a failure delayed its data). In a
    /// fault-free run nothing ever forfeits, so transmissions reproduce the
    /// booked order and times exactly; under failures a stalled comm cannot
    /// dead-lock the link for other communication units (the head-of-line
    /// circular wait the global-order rule would create — see DESIGN.md).
    ///
    /// One pass over the live part of the booked order decides it: events
    /// run in time order, so every ready hop's data arrived at or before
    /// `now` and all candidates share one effective start. Booked starts
    /// never decrease along the order, so a pending hop booked at or after
    /// that start blocks every ready hop after it, and a ready hop with no
    /// such hop ahead of it is granted. The pass therefore stops at the
    /// first ready hop (grant it) or the first pending hop booked at or
    /// after the start (wake just after its booked start), whichever comes
    /// first.
    fn try_start_link(&mut self, link: usize, now: Time) {
        if self.link_in_flight[link] {
            return;
        }
        let order = self.schedule.link_order(ftbar_model::LinkId(link as u32));
        'grant: while self.link_ready[link] > 0 {
            // Skip the prefix of hops already started or cancelled: both
            // flags only ever turn on, so those hops never pend again.
            let mut head = self.link_head[link];
            while let Some(&(cid, hop)) = order.get(head) {
                if !self.comm_cancelled[cid.index()] && !self.hop_started[self.hop_index(cid, hop)]
                {
                    break;
                }
                head += 1;
            }
            self.link_head[link] = head;
            let start = self.link_busy_until[link].max(now);
            for &(cid, hop) in &order[head..] {
                if self.comm_cancelled[cid.index()] || self.hop_started[self.hop_index(cid, hop)] {
                    continue;
                }
                if let Some(ready) = self.ready_at(cid, hop) {
                    debug_assert!(ready <= now, "hop data arrives at an event");
                    if self.grant(link, cid, hop, start) {
                        return;
                    }
                    // Cut by a failure: arbitrate again.
                    continue 'grant;
                }
                let booked = self.schedule.comm(cid).hops[hop].slot.start;
                if start <= booked {
                    // A still-live reservation ahead of every ready hop.
                    self.push(booked + Time::from_ticks(1), Event::LinkProbe(link as u32));
                    return;
                }
            }
            unreachable!("a ready hop pends on the link");
        }
    }

    /// Grants hop `hop` of `cid` on `link` from `start`, applying the
    /// fail-silent cuts. Returns `false` if a failure of the sender or the
    /// link cancelled the comm instead.
    fn grant(&mut self, link: usize, cid: CommId, hop: usize, start: Time) -> bool {
        let h = &self.schedule.comm(cid).hops[hop];
        let end = start + h.slot.duration();
        let cut = [
            self.scenario.fail_time(h.from),
            self.scenario
                .link_fail_time(ftbar_model::LinkId(link as u32)),
        ]
        .into_iter()
        .flatten()
        .min();
        match cut {
            Some(tf) if tf <= start => {
                // Already silent: nothing hits the wire.
                self.cancel(cid);
                false
            }
            Some(tf) if tf < end => {
                // Dies mid-send: receiver discards, link freed at tf.
                self.cancel(cid);
                self.link_busy_until[link] = tf;
                false
            }
            _ => {
                self.link_busy_until[link] = end;
                self.link_in_flight[link] = true;
                let hi = self.hop_index(cid, hop);
                self.hop_started[hi] = true;
                self.link_ready[link] -= 1;
                self.push(end, Event::HopEnd(cid, hop));
                true
            }
        }
    }

    fn finish(self) -> ReplayResult {
        let outcomes: Vec<ReplicaOutcome> = self
            .rstate
            .iter()
            .map(|s| match *s {
                RState::Done { start, end } => ReplicaOutcome::Completed { start, end },
                _ => ReplicaOutcome::Lost,
            })
            .collect();
        let op_completion: Vec<Option<Time>> = (0..self.schedule.op_count())
            .map(|op| {
                self.schedule
                    .replicas_of(ftbar_model::OpId(op as u32))
                    .iter()
                    .filter_map(|&r| outcomes[r.index()].end())
                    .min()
            })
            .collect();
        let completion = op_completion
            .iter()
            .copied()
            .try_fold(Time::ZERO, |acc, c| c.map(|t| acc.max(t)));
        ReplayResult {
            outcomes,
            comm_arrivals: self.comm_arrival,
            op_completion,
            completion,
            last_event: self.last_event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftbar;
    use ftbar_model::paper_example;

    fn t(u: f64) -> Time {
        Time::from_units(u)
    }

    #[test]
    fn nominal_replay_matches_booked_times() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let r = replay(&p, &s, &FailureScenario::none(3));
        assert!(r.all_ops_complete());
        for (i, rep) in s.replicas().iter().enumerate() {
            match r.outcomes()[i] {
                ReplicaOutcome::Completed { start, end } => {
                    assert_eq!(start, rep.start(), "replica {i} start");
                    assert_eq!(end, rep.end(), "replica {i} end");
                }
                ReplicaOutcome::Lost => panic!("replica {i} lost with no failure"),
            }
        }
        assert_eq!(r.completion(), Some(s.completion()));
    }

    #[test]
    fn single_failures_are_masked() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        for proc in p.arch().procs() {
            let scen = FailureScenario::single(3, proc, Time::ZERO);
            let r = replay(&p, &s, &scen);
            assert!(
                r.all_ops_complete(),
                "failure of {} must be masked",
                p.arch().proc(proc).name()
            );
            // Rtc still holds in the faulty runs (paper §4.3: 15.35, 15.05,
            // 12.6, all below 16).
            assert!(r.completion().unwrap() <= p.rtc().unwrap());
        }
    }

    #[test]
    fn failed_proc_completes_nothing() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let scen = FailureScenario::single(3, ProcId(0), Time::ZERO);
        let r = replay(&p, &s, &scen);
        for (i, rep) in s.replicas().iter().enumerate() {
            if rep.proc == ProcId(0) {
                assert_eq!(r.outcomes()[i], ReplicaOutcome::Lost);
            }
        }
    }

    #[test]
    fn late_failure_preserves_completed_work() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        // Fail P1 after the whole schedule: identical to nominal.
        let after = s.makespan() + t(1.0);
        let r = replay(&p, &s, &FailureScenario::single(3, ProcId(0), after));
        let nominal = replay(&p, &s, &FailureScenario::none(3));
        assert_eq!(r.completion(), nominal.completion());
    }

    #[test]
    fn two_failures_with_npf_one_may_break() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let scen = FailureScenario::multi(3, &[(ProcId(0), Time::ZERO), (ProcId(1), Time::ZERO)]);
        let r = replay(&p, &s, &scen);
        // I cannot run on P3, so killing P1 and P2 must lose the input op.
        assert!(!r.all_ops_complete());
    }

    #[test]
    fn failure_lengthens_or_equals_completion() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let nominal = replay(&p, &s, &FailureScenario::none(3))
            .completion()
            .unwrap();
        for proc in p.arch().procs() {
            let r = replay(&p, &s, &FailureScenario::single(3, proc, Time::ZERO));
            if let Some(c) = r.completion() {
                // Losing a processor can also *shorten* the useful-work
                // completion when the failed processor hosted only the slow
                // replicas — the paper sees exactly that (12.6 for P3).
                assert!(c.as_units() > 0.0);
                let _ = nominal;
            }
        }
    }

    #[test]
    fn jitter_delays_but_preserves_completion() {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let none = FailureScenario::none(3);
        let nominal = replay(&p, &s, &none).completion().unwrap();
        let cfg = ReplayConfig {
            extend_durations: vec![t(0.5); s.replica_count()],
            ..Default::default()
        };
        let r = replay_with(&p, &s, &none, &cfg);
        assert!(r.all_ops_complete(), "jitter never loses operations");
        assert!(
            r.completion().unwrap() >= nominal + t(0.5),
            "a uniform stretch delays every first completion"
        );
        // A short vector stretches only the covered prefix; the rest runs
        // at booked durations.
        let partial = ReplayConfig {
            extend_durations: vec![t(0.5)],
            ..Default::default()
        };
        let rp = replay_with(&p, &s, &none, &partial);
        assert!(rp.completion().unwrap() >= nominal);
        assert!(rp.completion().unwrap() <= r.completion().unwrap());
    }

    #[test]
    fn scenario_accessors() {
        let scen = FailureScenario::multi(4, &[(ProcId(1), t(2.0)), (ProcId(3), t(0.0))]);
        assert_eq!(scen.failure_count(), 2);
        assert_eq!(scen.failed_procs(), vec![ProcId(1), ProcId(3)]);
        assert_eq!(scen.fail_time(ProcId(1)), Some(t(2.0)));
        assert_eq!(scen.fail_time(ProcId(0)), None);
    }
}
