//! Low-level schedule construction: replica placement, route-aware comm
//! booking, and the paper's `Minimize_start_time` predecessor-duplication
//! procedure.
//!
//! [`ScheduleBuilder`] is the mutable state shared by all schedulers in this
//! workspace (FTBAR, the non-FT baseline, and the HBP comparator). It owns
//! one [`Timeline`] per processor and per link and books:
//!
//! * **replicas** — operation instances placed in the earliest feasible gap
//!   of a processor timeline at their `S_best` (first complete input set);
//! * **comms** — for every ⟨predecessor, replica⟩ pair without a reliable
//!   local copy of the predecessor, transfers from distinct predecessor
//!   replicas routed over link timelines, in parallel.
//!
//! # Failure-disjoint booking
//!
//! The paper's wiring rule — `Npf + 1` comms from distinct source
//! processors, or none at all when a local replica exists — masks `Npf`
//! failures only on fully connected architectures. On store-and-forward
//! topologies a single intermediate processor can carry several comms (or
//! all inputs of the local copy), so the builder reasons about failure
//! patterns explicitly: it tracks, per booked replica, the exact set of
//! failure patterns (processor subsets of size ≤ `Npf`) the replica
//! survives, and a dependency plan is accepted only when, for *every*
//! pattern not containing the consumer's processor, some planned source
//! survives — the source replica itself survives the pattern and no
//! processor on the comm's route is in it. When the classic choice falls
//! short, additional comms are booked over the problem's cached
//! vertex-disjoint alternative routes ([`ftbar_model::RouteTable`]) until
//! the pattern space is covered (or provably cannot be, in which case the
//! builder keeps the best-effort classic plan). See `DESIGN.md` for the
//! correctness argument.
//!
//! # Transactions
//!
//! Rollback (paper step Ð, "undo all the replications") is transactional
//! through an undo log: [`ScheduleBuilder::checkpoint`] marks the current
//! extent of the append-only replica/comm logs, and
//! [`ScheduleBuilder::rollback`] unwinds every timeline insertion, replica
//! push, and comm booking made since a mark. Attempt-and-compare search
//! (`place_min_start`, HBP's processor-pair probing) rolls back instead of
//! deep-cloning the whole builder per attempt.

use ftbar_model::{DepId, LinkId, OpId, Problem, ProcId, Time};

use crate::error::ScheduleError;
use crate::schedule::{BookedHop, Comm, CommId, Replica, ReplicaId, Schedule};
use crate::timeline::Timeline;

/// A bookable resource timeline: a processor lane or a link lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// The processor's execution timeline.
    Proc(ProcId),
    /// The link's transfer timeline.
    Link(LinkId),
}

/// One timeline probe performed while evaluating [`ScheduleBuilder::probe`],
/// recorded by [`ScheduleBuilder::probe_traced`].
///
/// A probed placement is a pure function of (a) the static problem tables,
/// (b) the predecessor replica sets (guarded by
/// [`ScheduleBuilder::op_replicas_version`]), and (c) the answers the lane
/// timelines gave to exactly these probe calls — so a cached [`ProbePoint`]
/// is still exact whenever every recorded event reproduces
/// ([`ScheduleBuilder::replay_probe`]). The sweep engine builds its
/// invalidation on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeEvent {
    /// The probed lane.
    pub lane: Lane,
    /// The ready instant the probe started from.
    pub ready: Time,
    /// The requested duration.
    pub dur: Time,
    /// The start the timeline answered.
    pub start: Time,
}

/// Maximum recursion depth of `Minimize_start_time` (bounds the cost of
/// duplicating whole ancestor chains on deep graphs).
const MAX_DUPLICATION_DEPTH: usize = 24;

/// Probed (non-mutating) placement estimate for an ⟨operation, processor⟩
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePoint {
    /// Earliest start given the *first* arriving input set (`S_best`).
    pub start_best: Time,
    /// Earliest start given the *latest* booked input arrival (`S_worst`).
    pub start_worst: Time,
    /// `start_best` plus the execution time on the probed processor.
    pub end_best: Time,
}

/// A transaction mark returned by [`ScheduleBuilder::checkpoint`].
///
/// Because the builder's replica and comm stores are append-only, a mark is
/// just their extents; [`ScheduleBuilder::rollback`] unwinds everything
/// booked after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    replicas: usize,
    comms: usize,
}

/// One selected remote source for a dependency: a producer replica, the
/// candidate route (index into the problem's [`ftbar_model::RouteTable`]
/// entry for the ⟨producer processor, consumer processor⟩ pair), the probed
/// arrival, and the processors whose failure silences the transfer.
#[derive(Debug, Clone, Copy)]
struct RemoteSource {
    src: ReplicaId,
    route: usize,
    arrival: Time,
    /// Bitmask over processors: the source plus the route's intermediates.
    blockers: u64,
}

/// How one dependency's data reaches a replica being planned. Remote
/// choices index into the owning [`PlanBuf`]'s flat source pool.
#[derive(Debug, Clone, Copy)]
enum PlanItem {
    /// A replica of the producer lives on the same processor; no comms.
    Local { src: ReplicaId, ready: Time },
    /// Data arrives over links from `pool[start..start + len]`
    /// (ascending by probed arrival).
    Remote { start: u32, len: u32 },
}

/// Outcome of choosing the sources of one dependency
/// ([`ScheduleBuilder::pick_dep_sources`]): either a reliable/forced local
/// copy, or the remote sources left in the caller's scratch buffer
/// (ascending by `(arrival, src, route)`).
enum DepPick {
    Local {
        src: ReplicaId,
        ready: Time,
    },
    Remote {
        /// Worst (`Npf + 1`-th smallest) primary-route arrival before
        /// coverage augmentation — the quantity LIP selection ranks by.
        primary_worst: Time,
        /// A (fragile) local replica of the producer exists nonetheless.
        local: bool,
    },
}

/// A reusable flat input plan: one [`PlanItem`] per dependency plus the
/// pooled remote sources, and the best/worst ready instants of the full
/// input set. Owned by the builder and recycled across placements — the
/// booking path allocates nothing per attempt.
#[derive(Debug, Clone, Default)]
struct PlanBuf {
    items: Vec<(DepId, PlanItem)>,
    pool: Vec<RemoteSource>,
    best_ready: Time,
    worst_ready: Time,
    /// Latest Immediate Predecessor w.r.t. the planned processor, if any.
    lip: Option<(Time, OpId)>,
}

/// Saved bookings of one completed placement — the replica pushed after a
/// checkpoint and its comms, with their exact slots. After speculative work
/// on the same state was rolled back, [`ScheduleBuilder::replay_segment`]
/// redoes the placement verbatim (no planning, no probing): the state is
/// identical to when the segment was saved, so every `insert_at` lands in a
/// free gap and all ids come out unchanged.
#[derive(Debug, Clone)]
struct PlacedSegment {
    replica: Replica,
    surv: Vec<u64>,
    fully: bool,
    comms: Vec<Comm>,
}

/// Reusable buffers for the allocation-free probe path
/// ([`ScheduleBuilder::probe_traced_with`]). Callers on the hot sweep keep
/// one per worker; contents are meaningless between calls.
#[derive(Debug, Clone, Default)]
pub struct ProbeScratch {
    chosen: Vec<RemoteSource>,
}

/// The input-plan half of a probe ([`ScheduleBuilder::probe_plan`]): what a
/// would-be replica's inputs cost, before the hosting processor's timeline
/// is consulted. Splitting here lets the sweep engine cache the expensive
/// plan evaluation (source selection, route probing, coverage) under
/// link-lane/replica-set invalidation only, while the volatile processor
/// lanes — written by every placement — cost just two binary-search probes
/// per refresh ([`ScheduleBuilder::proc_probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanProbe {
    /// `op` already has a replica on the processor: the probe is its
    /// recorded times, independent of any timeline.
    Fixed(ProbePoint),
    /// Input-set ready instants and the execution duration; the probe
    /// completes as
    /// `start_best/worst = proc_probe(proc, best/worst_ready, dur)`.
    Ready {
        /// Earliest instant the first complete input set is available.
        best_ready: Time,
        /// Earliest instant accounting for the latest planned arrival.
        worst_ready: Time,
        /// Execution time of `op` on the probed processor.
        dur: Time,
    },
}

/// Bitmasks limit pattern tracking to this many processors; larger
/// architectures degrade to the classic distinct-source rule.
const MAX_TRACKED_PROCS: usize = 64;

/// All non-empty processor subsets of size ≤ `npf`, as bitmasks, in
/// deterministic order (empty when `npf == 0` or the architecture exceeds
/// [`MAX_TRACKED_PROCS`]). Shared by the builder's coverage search and the
/// validator's `route-coverage` check so both always reason over the same
/// pattern space.
pub(crate) fn failure_patterns(proc_count: usize, npf: usize) -> Vec<u64> {
    if npf == 0 || proc_count > MAX_TRACKED_PROCS {
        return Vec::new();
    }
    let mut out = Vec::new();
    fn rec(out: &mut Vec<u64>, mask: u64, from: usize, n: usize, left: usize) {
        if mask != 0 {
            out.push(mask);
        }
        if left == 0 {
            return;
        }
        for i in from..n {
            rec(out, mask | (1 << i), i + 1, n, left - 1);
        }
    }
    rec(&mut out, 0, 0, proc_count, npf);
    out
}

fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

fn bit_set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Incremental schedule state. See the module docs.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder<'p> {
    problem: &'p Problem,
    proc_tl: Vec<Timeline<ReplicaId>>,
    link_tl: Vec<Timeline<(CommId, usize)>>,
    replicas: Vec<Replica>,
    comms: Vec<Comm>,
    replicas_of: Vec<Vec<ReplicaId>>,
    /// The failure patterns tracked for this problem (size ≤ `Npf` subsets).
    patterns: Vec<u64>,
    /// Per replica: bitset over `patterns` — the patterns it survives.
    surv: Vec<Vec<u64>>,
    /// Per replica: survives every pattern not containing its processor.
    fully_live: Vec<bool>,
    /// Recycled input-plan buffer for the booking path (placements
    /// allocate nothing per attempt).
    plan_buf: PlanBuf,
    /// Recycled per-dependency source buffer shared by booking and the
    /// internal probe paths.
    plan_scratch: ProbeScratch,
    /// LIP of the last planned placement (set by `place_flagged` from its
    /// input plan; consumed by `place_min_inner`).
    last_lip: Option<OpId>,
    /// Flattened scheduling-predecessor adjacency: `preds[pred_off[op] ..
    /// pred_off[op + 1]]` — the boxed `Alg::sched_preds` iterator is too
    /// expensive for the planning hot paths.
    preds: Vec<(DepId, OpId)>,
    pred_off: Vec<u32>,
    /// Monotone count of mutation bursts (placements, rollbacks,
    /// replays); lets observers detect quiescence cheaply. See
    /// [`ScheduleBuilder::mutation_count`].
    mutations: u64,
    /// Recycled hop buffers (rollback returns unwound comms' allocations
    /// here; booking reuses them — the speculation loop allocates nothing
    /// in steady state).
    hops_pool: Vec<Vec<BookedHop>>,
    /// Recycled survival bitsets, same lifecycle.
    surv_pool: Vec<Vec<u64>>,
    /// Recycled segment comm buffers, same lifecycle.
    seg_comms_pool: Vec<Vec<Comm>>,
}

/// Recyclable buffers of a finished [`ScheduleBuilder`]: the input-plan
/// arena, the probe scratch, and the undo-log pools. Problem-agnostic —
/// reclaim them from one builder ([`ScheduleBuilder::finish_reclaim`]) and
/// seed the next one ([`ScheduleBuilder::new_with_pools`]), even for a
/// different [`Problem`]. The batch service threads these through every
/// job a worker runs, so steady-state scheduling allocates nothing per
/// job beyond the problem-sized state itself.
#[derive(Debug, Default)]
pub struct BuilderPools {
    plan_buf: PlanBuf,
    plan_scratch: ProbeScratch,
    hops: Vec<Vec<BookedHop>>,
    surv: Vec<Vec<u64>>,
    seg_comms: Vec<Vec<Comm>>,
}

/// The entire mutable state of a [`ScheduleBuilder`], detached from its
/// problem reference — every timeline, booked replica and comm, survival
/// bitset, and recycling pool, exactly as the builder left them.
///
/// Captured with [`ScheduleBuilder::into_state`] at the end of a run and
/// re-attached later with [`ScheduleBuilder::from_state`], this is the
/// retained substrate of incremental re-scheduling: cloning the state,
/// re-attaching it to an edited (timing-compatible) problem, and rolling
/// back to a recorded [`Checkpoint`] reproduces the exact builder a
/// from-scratch run of the edited problem would have at that step.
#[derive(Debug, Clone)]
pub struct BuilderState {
    proc_tl: Vec<Timeline<ReplicaId>>,
    link_tl: Vec<Timeline<(CommId, usize)>>,
    replicas: Vec<Replica>,
    comms: Vec<Comm>,
    replicas_of: Vec<Vec<ReplicaId>>,
    patterns: Vec<u64>,
    surv: Vec<Vec<u64>>,
    fully_live: Vec<bool>,
    plan_buf: PlanBuf,
    plan_scratch: ProbeScratch,
    last_lip: Option<OpId>,
    preds: Vec<(DepId, OpId)>,
    pred_off: Vec<u32>,
    mutations: u64,
    hops_pool: Vec<Vec<BookedHop>>,
    surv_pool: Vec<Vec<u64>>,
    seg_comms_pool: Vec<Vec<Comm>>,
}

impl<'p> ScheduleBuilder<'p> {
    /// Creates an empty builder for `problem`.
    pub fn new(problem: &'p Problem) -> Self {
        Self::new_with_pools(problem, BuilderPools::default())
    }

    /// As [`ScheduleBuilder::new`], seeded with recycled buffer `pools`.
    ///
    /// Purely an allocation optimization: the pools never carry schedule
    /// state, so a pooled builder behaves bit-identically to a fresh one.
    pub fn new_with_pools(problem: &'p Problem, mut pools: BuilderPools) -> Self {
        pools.plan_buf.items.clear();
        pools.plan_buf.pool.clear();
        pools.plan_scratch.chosen.clear();
        let alg = problem.alg();
        let mut preds = Vec::with_capacity(alg.dep_count());
        let mut pred_off = Vec::with_capacity(alg.op_count() + 1);
        pred_off.push(0);
        for op in alg.ops() {
            preds.extend(alg.sched_preds(op));
            pred_off.push(preds.len() as u32);
        }
        // On a fully connected architecture (every ordered pair one hop
        // apart — the paper's model) a comm is lost only with its source
        // processor, so the classic `Npf + 1` distinct-source rule already
        // defeats every failure pattern: every replica is fully live and
        // coverage augmentation never fires (DESIGN.md §2 point 1). Skip
        // pattern tracking entirely — the booking decisions, and hence the
        // schedules, are bit-identical, only cheaper.
        let patterns = if Self::fully_connected(problem) {
            Vec::new()
        } else {
            failure_patterns(problem.arch().proc_count(), problem.npf() as usize)
        };
        ScheduleBuilder {
            problem,
            proc_tl: vec![Timeline::new(); problem.arch().proc_count()],
            link_tl: vec![Timeline::new(); problem.arch().link_count()],
            replicas: Vec::new(),
            comms: Vec::new(),
            replicas_of: vec![Vec::new(); problem.alg().op_count()],
            patterns,
            surv: Vec::new(),
            fully_live: Vec::new(),
            plan_buf: pools.plan_buf,
            plan_scratch: pools.plan_scratch,
            last_lip: None,
            preds,
            pred_off,
            mutations: 0,
            hops_pool: pools.hops,
            surv_pool: pools.surv,
            seg_comms_pool: pools.seg_comms,
        }
    }

    /// Detaches the builder's entire mutable state from its problem
    /// reference (see [`BuilderState`]). The inverse of
    /// [`ScheduleBuilder::from_state`].
    pub fn into_state(self) -> BuilderState {
        BuilderState {
            proc_tl: self.proc_tl,
            link_tl: self.link_tl,
            replicas: self.replicas,
            comms: self.comms,
            replicas_of: self.replicas_of,
            patterns: self.patterns,
            surv: self.surv,
            fully_live: self.fully_live,
            plan_buf: self.plan_buf,
            plan_scratch: self.plan_scratch,
            last_lip: self.last_lip,
            preds: self.preds,
            pred_off: self.pred_off,
            mutations: self.mutations,
            hops_pool: self.hops_pool,
            surv_pool: self.surv_pool,
            seg_comms_pool: self.seg_comms_pool,
        }
    }

    /// Re-attaches a detached [`BuilderState`] to `problem`, restoring a
    /// fully usable builder.
    ///
    /// `problem` need not be the instance the state was captured from, but
    /// it must be *booking-compatible* with it: same operation / processor
    /// / link / dependency counts, same scheduling DAG, same exec/comm
    /// allowed-entry pattern (hence the same route table shape), and the
    /// same `Npf`. Timing *values* may differ — that is the incremental
    /// reschedule contract: bookings made before the edit's invalidation
    /// frontier are identical under both problems, and everything after
    /// the frontier is rolled back before the builder is driven again.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the problem's dimensions do not match
    /// the state's.
    pub fn from_state(problem: &'p Problem, state: BuilderState) -> Self {
        debug_assert_eq!(state.proc_tl.len(), problem.arch().proc_count());
        debug_assert_eq!(state.link_tl.len(), problem.arch().link_count());
        debug_assert_eq!(state.replicas_of.len(), problem.alg().op_count());
        debug_assert_eq!(state.pred_off.len(), problem.alg().op_count() + 1);
        ScheduleBuilder {
            problem,
            proc_tl: state.proc_tl,
            link_tl: state.link_tl,
            replicas: state.replicas,
            comms: state.comms,
            replicas_of: state.replicas_of,
            patterns: state.patterns,
            surv: state.surv,
            fully_live: state.fully_live,
            plan_buf: state.plan_buf,
            plan_scratch: state.plan_scratch,
            last_lip: state.last_lip,
            preds: state.preds,
            pred_off: state.pred_off,
            mutations: state.mutations,
            hops_pool: state.hops_pool,
            surv_pool: state.surv_pool,
            seg_comms_pool: state.seg_comms_pool,
        }
    }

    /// Monotone counter bumped by every mutating operation (placement,
    /// rollback, segment replay). Equal values bracket a quiescent span in
    /// which no timeline or replica store changed — the sweep engine's
    /// cue that its per-step change masks are current.
    pub fn mutation_count(&self) -> u64 {
        self.mutations
    }

    /// True when every ordered processor pair is one hop apart (the
    /// paper's fully connected model; includes bus topologies — links do
    /// not fail in this model, only processors do).
    fn fully_connected(problem: &Problem) -> bool {
        let n = problem.arch().proc_count();
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let routes = problem
                    .routes()
                    .all(ProcId::from_index(s), ProcId::from_index(d));
                if routes.first().is_none_or(|r| r.hop_count() != 1) {
                    return false;
                }
            }
        }
        true
    }

    /// The problem being scheduled.
    pub fn problem(&self) -> &'p Problem {
        self.problem
    }

    /// Replication level (`Npf + 1`).
    pub fn replication(&self) -> usize {
        self.problem.replication()
    }

    /// True if `op` already has a replica hosted on `proc`.
    pub fn has_replica_on(&self, op: OpId, proc: ProcId) -> bool {
        self.replica_on(op, proc).is_some()
    }

    /// The replica of `op` on `proc`, if any.
    pub fn replica_on(&self, op: OpId, proc: ProcId) -> Option<ReplicaId> {
        self.replicas_of[op.index()]
            .iter()
            .copied()
            .find(|&r| self.replicas[r.index()].proc == proc)
    }

    /// Replicas of `op` booked so far.
    pub fn replicas_of(&self, op: OpId) -> &[ReplicaId] {
        &self.replicas_of[op.index()]
    }

    /// A booked replica.
    pub fn replica(&self, id: ReplicaId) -> &Replica {
        &self.replicas[id.index()]
    }

    /// The monotone mutation counter of a lane's timeline (see
    /// [`Timeline::version`]): equal versions of the same lane imply
    /// identical bookings. Rollback churn bumps it conservatively.
    pub fn lane_version(&self, lane: Lane) -> u64 {
        match lane {
            Lane::Proc(p) => self.proc_tl[p.index()].version(),
            Lane::Link(l) => self.link_tl[l.index()].version(),
        }
    }

    /// Replica-set version of `op`: its current replica count.
    ///
    /// Committed bookings are never removed — rollback only unwinds
    /// *speculative* work back to a checkpoint — so between any two
    /// **transactionally consistent** observations (no checkpoint pending,
    /// as at the top of a scheduler main-loop step), an equal count implies
    /// the very same replica list. Mid-transaction states can alias
    /// (a rolled-back replica id is reused by the next booking); cache
    /// observations must therefore happen at committed states, which is
    /// how the sweep engine drives it.
    pub fn op_replicas_version(&self, op: OpId) -> u64 {
        self.replicas_of[op.index()].len() as u64
    }

    /// The latest booked end over *all* lanes (processor and link
    /// timelines), [`Time::ZERO`] on an empty schedule. Every probe answer
    /// on the current state is `≤ max(ready, max_lane_end())`, which is
    /// what makes the sweep engine's urgency upper bound sound.
    pub fn max_lane_end(&self) -> Time {
        let p = self.proc_tl.iter().map(|t| t.last_end());
        let l = self.link_tl.iter().map(|t| t.last_end());
        p.chain(l).fold(Time::ZERO, Time::max)
    }

    /// Re-runs a recorded probe event against the current timelines and
    /// reports whether the answer is unchanged. When every event of a
    /// [`ScheduleBuilder::probe_traced`] call replays (and the involved
    /// replica sets are unchanged), the recorded [`ProbePoint`] is still
    /// exact even though lane versions moved.
    pub fn replay_probe(&self, ev: &ProbeEvent) -> bool {
        let got = match ev.lane {
            Lane::Proc(p) => self.proc_tl[p.index()].probe(ev.ready, ev.dur),
            Lane::Link(l) => self.link_tl[l.index()].probe(ev.ready, ev.dur),
        };
        got == ev.start
    }

    /// Marks the current transaction point. Everything booked after the
    /// mark can be unwound with [`ScheduleBuilder::rollback`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            replicas: self.replicas.len(),
            comms: self.comms.len(),
        }
    }

    /// Unwinds every replica push, comm booking, and timeline insertion
    /// made since `mark`, restoring the builder to its state at
    /// [`ScheduleBuilder::checkpoint`] time.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `mark` does not come from this builder's
    /// own past — marks are not transferable across builders and cannot be
    /// replayed after an earlier rollback already consumed them.
    pub fn rollback(&mut self, mark: Checkpoint) {
        self.mutations += 1;
        debug_assert!(
            mark.replicas <= self.replicas.len() && mark.comms <= self.comms.len(),
            "rollback mark is ahead of the builder state"
        );
        for cid in (mark.comms..self.comms.len()).rev() {
            for (i, hop) in self.comms[cid].hops.iter().enumerate() {
                let removed =
                    self.link_tl[hop.link.index()].remove_at(hop.slot, &(CommId(cid as u32), i));
                debug_assert!(removed, "booked hop present on its link");
            }
        }
        for comm in self.comms.drain(mark.comms..) {
            let mut hops = comm.hops;
            hops.clear();
            self.hops_pool.push(hops);
        }
        for rid in (mark.replicas..self.replicas.len()).rev() {
            let rep = &self.replicas[rid];
            let removed =
                self.proc_tl[rep.proc.index()].remove_at(rep.slot, &ReplicaId(rid as u32));
            debug_assert!(removed, "booked replica present on its processor");
            let list = &mut self.replicas_of[rep.op.index()];
            debug_assert_eq!(list.last(), Some(&ReplicaId(rid as u32)));
            list.pop();
        }
        self.replicas.truncate(mark.replicas);
        self.surv_pool.extend(self.surv.drain(mark.replicas..));
        self.fully_live.truncate(mark.replicas);
    }

    /// Probes where a replica of `op` would land on `proc` without booking
    /// anything. If `op` already has a replica there, returns its recorded
    /// times.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::Forbidden`] if the `Dis` constraints exclude the
    ///   pair;
    /// * [`ScheduleError::PredNotScheduled`] if a predecessor has no replica
    ///   yet.
    pub fn probe(&self, op: OpId, proc: ProcId) -> Result<ProbePoint, ScheduleError> {
        self.probe_with(op, proc, &mut ProbeScratch::default(), None)
    }

    /// [`ScheduleBuilder::probe`] that additionally appends every timeline
    /// probe it performs to `events` (in deterministic evaluation order).
    /// The recorded events, together with the replica-set versions of `op`
    /// and its predecessors, fully determine the result — the contract the
    /// sweep engine's cache invalidation relies on (`DESIGN.md` §7).
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::probe`]. `events` content is unspecified on
    /// error.
    pub fn probe_traced(
        &self,
        op: OpId,
        proc: ProcId,
        events: &mut Vec<ProbeEvent>,
    ) -> Result<ProbePoint, ScheduleError> {
        self.probe_with(op, proc, &mut ProbeScratch::default(), Some(events))
    }

    /// As [`ScheduleBuilder::probe_traced`], reusing the caller's scratch
    /// buffers — the allocation-free form of a traced probe.
    pub fn probe_traced_with(
        &self,
        op: OpId,
        proc: ProcId,
        events: &mut Vec<ProbeEvent>,
        scratch: &mut ProbeScratch,
    ) -> Result<ProbePoint, ScheduleError> {
        self.probe_with(op, proc, scratch, Some(events))
    }

    fn probe_with(
        &self,
        op: OpId,
        proc: ProcId,
        scratch: &mut ProbeScratch,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Result<ProbePoint, ScheduleError> {
        match self.probe_plan_with(op, proc, scratch, trace.as_deref_mut())? {
            PlanProbe::Fixed(point) => Ok(point),
            PlanProbe::Ready {
                best_ready,
                worst_ready,
                dur,
            } => {
                let start_best = self.proc_tl[proc.index()].probe(best_ready, dur);
                let start_worst = self.proc_tl[proc.index()].probe(worst_ready, dur);
                if let Some(tr) = trace {
                    tr.push(ProbeEvent {
                        lane: Lane::Proc(proc),
                        ready: best_ready,
                        dur,
                        start: start_best,
                    });
                    tr.push(ProbeEvent {
                        lane: Lane::Proc(proc),
                        ready: worst_ready,
                        dur,
                        start: start_worst,
                    });
                }
                Ok(ProbePoint {
                    start_best,
                    start_worst,
                    end_best: start_best + dur,
                })
            }
        }
    }

    /// The input-plan half of [`ScheduleBuilder::probe`]: everything up to
    /// (but excluding) the hosting processor's timeline. Recorded `events`
    /// are link-lane probes only — the result is a pure function of the
    /// static tables, the replica sets of `op` and its predecessors, and
    /// exactly these link answers.
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::probe`].
    pub fn probe_plan(
        &self,
        op: OpId,
        proc: ProcId,
        events: &mut Vec<ProbeEvent>,
        scratch: &mut ProbeScratch,
    ) -> Result<PlanProbe, ScheduleError> {
        self.probe_plan_with(op, proc, scratch, Some(events))
    }

    fn probe_plan_with(
        &self,
        op: OpId,
        proc: ProcId,
        scratch: &mut ProbeScratch,
        trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Result<PlanProbe, ScheduleError> {
        if let Some(r) = self.replica_on(op, proc) {
            // Recorded times of a booked replica: no timelines consulted
            // (replica slots are immutable; the set is guarded by
            // `op_replicas_version`).
            let rep = &self.replicas[r.index()];
            return Ok(PlanProbe::Fixed(ProbePoint {
                start_best: rep.start(),
                start_worst: rep.start_worst,
                end_best: rep.end(),
            }));
        }
        let dur = self
            .problem
            .exec()
            .get(op, proc)
            .ok_or(ScheduleError::Forbidden { op, proc })?;
        let (best_ready, worst_ready) = self.input_ready_times(op, proc, scratch, trace)?;
        Ok(PlanProbe::Ready {
            best_ready,
            worst_ready,
            dur,
        })
    }

    /// Earliest start `t ≥ ready` for a `dur`-long slot on `proc`'s
    /// execution timeline (the point-completion half of the split probe;
    /// see [`PlanProbe`]).
    pub fn proc_probe(&self, proc: ProcId, ready: Time, dur: Time) -> Time {
        self.proc_tl[proc.index()].probe(ready, dur)
    }

    /// Chooses how dependency `dep` (produced by `pred`) reaches `proc`:
    /// Fig. 3(b) — a *reliable* local replica of the predecessor suppresses
    /// all comms (intra-processor, cost 0; on fully connected architectures
    /// every replica is reliable, reproducing the paper exactly, while
    /// elsewhere a local copy that can starve no longer silences redundant
    /// comms) — or Fig. 3(c) — the `Npf + 1` sources with the earliest
    /// probed arrival over their primary routes, extended along alternative
    /// routes until every tracked failure pattern is defeated, falling back
    /// to a fragile local copy where coverage is unachievable. Remote
    /// choices are left in `chosen`, ascending by `(arrival, src, route)`.
    ///
    /// Shared by the probing and the booking path, so the two can never
    /// disagree on a plan.
    fn pick_dep_sources(
        &self,
        op: OpId,
        dep: DepId,
        pred: OpId,
        proc: ProcId,
        chosen: &mut Vec<RemoteSource>,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Result<DepPick, ScheduleError> {
        let preds = &self.replicas_of[pred.index()];
        if preds.is_empty() {
            return Err(ScheduleError::PredNotScheduled { op, pred });
        }
        let k = self.replication();
        let local = self.replica_on(pred, proc);
        if let Some(l) = local {
            if self.fully_live[l.index()] {
                let ready = self.replicas[l.index()].end();
                return Ok(DepPick::Local { src: l, ready });
            }
        }
        chosen.clear();
        for &r in preds {
            if self.replicas[r.index()].proc == proc {
                continue;
            }
            chosen.push(
                self.remote_candidate(dep, r, proc, 0, trace.as_deref_mut())
                    .expect("primary route"),
            );
        }
        if chosen.is_empty() {
            // Only the (fragile) local copy exists: nothing to book.
            let l = local.expect("a predecessor replica exists on this processor");
            let ready = self.replicas[l.index()].end();
            return Ok(DepPick::Local { src: l, ready });
        }
        chosen.sort_by_key(|c| (c.arrival, c.src));
        chosen.truncate(k);
        let primary_worst = chosen.last().expect("non-empty").arrival;
        let covered = self.augment_for_coverage(dep, proc, pred, chosen, trace);
        if !covered {
            if let Some(l) = local {
                // Disjoint coverage is unachievable; keep the fragile
                // local copy (pre-routing behaviour, best effort).
                let ready = self.replicas[l.index()].end();
                return Ok(DepPick::Local { src: l, ready });
            }
        }
        chosen.sort_by_key(|c| (c.arrival, c.src, c.route));
        Ok(DepPick::Remote {
            primary_worst,
            local: local.is_some(),
        })
    }

    /// Plans how each intra-iteration dependency of `op` reaches `proc`,
    /// into the reusable `buf`. Booking path — the probe path uses
    /// [`ScheduleBuilder::input_ready_times`]; both share
    /// [`ScheduleBuilder::pick_dep_sources`].
    fn plan_inputs_buf(
        &self,
        op: OpId,
        proc: ProcId,
        buf: &mut PlanBuf,
        scratch: &mut ProbeScratch,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Result<(), ScheduleError> {
        buf.items.clear();
        buf.pool.clear();
        buf.best_ready = Time::ZERO;
        buf.worst_ready = Time::ZERO;
        buf.lip = None;
        for di in self.pred_off[op.index()]..self.pred_off[op.index() + 1] {
            let (dep, pred) = self.preds[di as usize];
            match self.pick_dep_sources(
                op,
                dep,
                pred,
                proc,
                &mut scratch.chosen,
                trace.as_deref_mut(),
            )? {
                DepPick::Local { src, ready } => {
                    buf.best_ready = buf.best_ready.max(ready);
                    buf.worst_ready = buf.worst_ready.max(ready);
                    buf.items.push((dep, PlanItem::Local { src, ready }));
                }
                DepPick::Remote {
                    primary_worst,
                    local,
                } => {
                    let chosen = &scratch.chosen;
                    buf.best_ready = buf
                        .best_ready
                        .max(chosen.first().expect("non-empty").arrival);
                    buf.worst_ready = buf
                        .worst_ready
                        .max(chosen.last().expect("non-empty").arrival);
                    let start = buf.pool.len() as u32;
                    buf.pool.extend_from_slice(chosen);
                    buf.items.push((
                        dep,
                        PlanItem::Remote {
                            start,
                            len: chosen.len() as u32,
                        },
                    ));
                    // The Latest Immediate Predecessor falls out of the
                    // plan for free: among remote-fed dependencies whose
                    // producer has no replica on `proc` yet and may execute
                    // there, the one with the latest worst primary arrival
                    // (ties toward the smaller operation id).
                    if !local && self.problem.exec().allows(pred, proc) {
                        let better = match buf.lip {
                            None => true,
                            Some((bw, bo)) => {
                                primary_worst > bw || (primary_worst == bw && pred < bo)
                            }
                        };
                        if better {
                            buf.lip = Some((primary_worst, pred));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The best/worst input-set ready instants of a would-be replica of
    /// `op` on `proc` — what [`ScheduleBuilder::probe`] needs, without
    /// materializing the per-dependency plans. Buffers come from `scratch`;
    /// the hot sweep calls this thousands of times per schedule.
    fn input_ready_times(
        &self,
        op: OpId,
        proc: ProcId,
        scratch: &mut ProbeScratch,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Result<(Time, Time), ScheduleError> {
        let mut best_ready = Time::ZERO;
        let mut worst_ready = Time::ZERO;
        for di in self.pred_off[op.index()]..self.pred_off[op.index() + 1] {
            let (dep, pred) = self.preds[di as usize];
            match self.pick_dep_sources(
                op,
                dep,
                pred,
                proc,
                &mut scratch.chosen,
                trace.as_deref_mut(),
            )? {
                DepPick::Local { ready, .. } => {
                    best_ready = best_ready.max(ready);
                    worst_ready = worst_ready.max(ready);
                }
                DepPick::Remote { .. } => {
                    let chosen = &scratch.chosen;
                    best_ready = best_ready.max(chosen.first().expect("non-empty").arrival);
                    worst_ready = worst_ready.max(chosen.last().expect("non-empty").arrival);
                }
            }
        }
        Ok((best_ready, worst_ready))
    }

    /// Builds the candidate for sending `dep` from `src` to `dst_proc` over
    /// route `route_idx` of the problem's route table. `None` if the route
    /// does not exist or some hop cannot carry the dependency.
    fn remote_candidate(
        &self,
        dep: DepId,
        src: ReplicaId,
        dst_proc: ProcId,
        route_idx: usize,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> Option<RemoteSource> {
        let rep = &self.replicas[src.index()];
        let route = self
            .problem
            .routes()
            .all(rep.proc, dst_proc)
            .get(route_idx)?;
        let mut t = rep.end();
        let mut blockers = 0u64;
        for hop in route.hops() {
            let dur = self.problem.comm().get(dep, hop.link)?;
            let start = self.link_tl[hop.link.index()].probe(t, dur);
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(ProbeEvent {
                    lane: Lane::Link(hop.link),
                    ready: t,
                    dur,
                    start,
                });
            }
            t = start + dur;
            if hop.from.index() < MAX_TRACKED_PROCS {
                blockers |= 1 << hop.from.index();
            }
        }
        Some(RemoteSource {
            src,
            route: route_idx,
            arrival: t,
            blockers,
        })
    }

    /// Extends `chosen` until every tracked failure pattern (excluding
    /// those containing `dst_proc`) leaves a surviving source, drawing from
    /// `pred`'s replicas hosted away from `dst_proc`. Returns whether full
    /// coverage was reached.
    fn augment_for_coverage(
        &self,
        dep: DepId,
        dst_proc: ProcId,
        pred: OpId,
        chosen: &mut Vec<RemoteSource>,
        mut trace: Option<&mut Vec<ProbeEvent>>,
    ) -> bool {
        if self.patterns.is_empty() {
            return true;
        }
        loop {
            let Some((pi, mask)) = self.first_uncovered(dst_proc, chosen) else {
                return true;
            };
            let mut best: Option<RemoteSource> = None;
            for &r in &self.replicas_of[pred.index()] {
                if self.replicas[r.index()].proc == dst_proc {
                    continue; // not remote
                }
                if !bit_get(&self.surv[r.index()], pi) {
                    continue; // the source replica itself dies under F
                }
                let src_proc = self.replicas[r.index()].proc;
                let n_routes = self.problem.routes().all(src_proc, dst_proc).len();
                for ri in 0..n_routes {
                    if chosen.iter().any(|c| c.src == r && c.route == ri) {
                        continue;
                    }
                    let Some(c) = self.remote_candidate(dep, r, dst_proc, ri, trace.as_deref_mut())
                    else {
                        continue;
                    };
                    if c.blockers & mask != 0 {
                        continue;
                    }
                    let better = match &best {
                        None => true,
                        Some(b) => (c.arrival, c.src, c.route) < (b.arrival, b.src, b.route),
                    };
                    if better {
                        best = Some(c);
                    }
                }
            }
            match best {
                Some(c) => chosen.push(c),
                None => return false,
            }
        }
    }

    /// The first tracked failure pattern (excluding patterns that contain
    /// `dst_proc`) under which no chosen source survives.
    fn first_uncovered(&self, dst_proc: ProcId, chosen: &[RemoteSource]) -> Option<(usize, u64)> {
        let pbit = 1u64 << dst_proc.index();
        self.patterns
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, mask)| mask & pbit == 0)
            .find(|&(pi, mask)| {
                !chosen
                    .iter()
                    .any(|c| c.blockers & mask == 0 && bit_get(&self.surv[c.src.index()], pi))
            })
    }

    /// Places a replica of `op` on `proc`, booking its incoming comms, with
    /// no predecessor duplication. Returns the new replica's id.
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::probe`], plus [`ScheduleError::ReplicaExists`]
    /// if `op` is already hosted on `proc`. On error the builder is
    /// unchanged.
    pub fn place(&mut self, op: OpId, proc: ProcId) -> Result<ReplicaId, ScheduleError> {
        self.place_flagged(op, proc, false)
    }

    fn place_flagged(
        &mut self,
        op: OpId,
        proc: ProcId,
        duplicated: bool,
    ) -> Result<ReplicaId, ScheduleError> {
        if self.has_replica_on(op, proc) {
            return Err(ScheduleError::ReplicaExists { op, proc });
        }
        let dur = self
            .problem
            .exec()
            .get(op, proc)
            .ok_or(ScheduleError::Forbidden { op, proc })?;
        // Recycle the builder-owned plan buffers (placements are on the
        // `Minimize_start_time` hot path; no allocation per attempt).
        let mut buf = std::mem::take(&mut self.plan_buf);
        let mut scratch = std::mem::take(&mut self.plan_scratch);
        let planned = self.plan_inputs_buf(op, proc, &mut buf, &mut scratch, None);
        self.plan_scratch = scratch;
        if let Err(e) = planned {
            self.plan_buf = buf;
            return Err(e);
        }
        self.last_lip = buf.lip.map(|(_, o)| o);
        let rid = ReplicaId(self.replicas.len() as u32);
        self.mutations += 1;

        // Book the comms for real, in dependency order then arrival order.
        // Booked arrivals may differ slightly from probed ones because
        // bookings interact on shared links; ready times use booked values.
        let mut best_ready = Time::ZERO;
        let mut worst_ready = Time::ZERO;
        for &(dep, item) in &buf.items {
            match item {
                PlanItem::Local { ready, .. } => {
                    best_ready = best_ready.max(ready);
                    worst_ready = worst_ready.max(ready);
                }
                PlanItem::Remote { start, len } => {
                    let mut dep_best = Time::MAX;
                    let mut dep_worst = Time::ZERO;
                    for c in &buf.pool[start as usize..(start + len) as usize] {
                        let arrival = self.book_comm(dep, c.src, rid, proc, c.route);
                        dep_best = dep_best.min(arrival);
                        dep_worst = dep_worst.max(arrival);
                    }
                    best_ready = best_ready.max(dep_best);
                    worst_ready = worst_ready.max(dep_worst);
                }
            }
        }

        // The replica survives a failure pattern iff its processor does and
        // every dependency keeps a surviving planned source.
        let pbit = 1u64 << (proc.index().min(MAX_TRACKED_PROCS - 1));
        let mut surv = self.surv_pool.pop().unwrap_or_default();
        surv.clear();
        surv.resize(self.patterns.len().div_ceil(64), 0);
        let mut fully = true;
        for (pi, &mask) in self.patterns.iter().enumerate() {
            if mask & pbit != 0 {
                continue;
            }
            let ok = buf.items.iter().all(|&(_, item)| match item {
                PlanItem::Local { src, .. } => bit_get(&self.surv[src.index()], pi),
                PlanItem::Remote { start, len } => buf.pool[start as usize..(start + len) as usize]
                    .iter()
                    .any(|c| c.blockers & mask == 0 && bit_get(&self.surv[c.src.index()], pi)),
            });
            if ok {
                bit_set(&mut surv, pi);
            } else {
                fully = false;
            }
        }
        self.plan_buf = buf;

        let start_worst = self.proc_tl[proc.index()].probe(worst_ready, dur);
        let slot = self.proc_tl[proc.index()].insert_earliest(best_ready, dur, rid);
        self.replicas.push(Replica {
            op,
            proc,
            slot,
            start_worst,
            duplicated,
        });
        self.replicas_of[op.index()].push(rid);
        self.surv.push(surv);
        self.fully_live.push(fully);
        Ok(rid)
    }

    /// Books one comm (all hops of route `route_idx` between the hosting
    /// processors) and returns its arrival time.
    fn book_comm(
        &mut self,
        dep: DepId,
        src: ReplicaId,
        dst: ReplicaId,
        dst_proc: ProcId,
        route_idx: usize,
    ) -> Time {
        let src_rep = &self.replicas[src.index()];
        let cid = CommId(self.comms.len() as u32);
        let mut t = src_rep.end();
        let mut hops = self.hops_pool.pop().unwrap_or_default();
        hops.clear();
        let route = &self.problem.routes().all(src_rep.proc, dst_proc)[route_idx];
        for (i, hop) in route.hops().iter().enumerate() {
            let dur = self
                .problem
                .comm()
                .get(dep, hop.link)
                .expect("candidate routes are transmissible");
            let slot = self.link_tl[hop.link.index()].insert_earliest(t, dur, (cid, i));
            t = slot.end;
            hops.push(BookedHop {
                link: hop.link,
                from: hop.from,
                to: hop.to,
                slot,
            });
        }
        debug_assert!(!hops.is_empty(), "remote comms traverse at least one link");
        self.comms.push(Comm {
            dep,
            src,
            dst,
            hops,
        });
        t
    }

    /// Places a replica of `op` on `proc` applying the paper's
    /// `Minimize_start_time`: repeatedly duplicate the Latest Immediate
    /// Predecessor (LIP) onto `proc` (recursively minimized) while doing so
    /// strictly reduces the replica's `S_worst`; otherwise undo (the
    /// baseline placement without duplication is kept). All speculative
    /// work runs through the undo log — no builder clones.
    ///
    /// # Errors
    ///
    /// As [`ScheduleBuilder::place`].
    pub fn place_min_start(&mut self, op: OpId, proc: ProcId) -> Result<ReplicaId, ScheduleError> {
        self.place_min_inner(op, proc, 0)
    }

    fn place_min_inner(
        &mut self,
        op: OpId,
        proc: ProcId,
        depth: usize,
    ) -> Result<ReplicaId, ScheduleError> {
        // Ê/Ë: baseline placement (fails fast if o cannot run on p). Its
        // input plan doubles as the Ì-guard: the LIP falls out of planning
        // (computed on the pre-placement state, identical to the
        // post-retraction state the loop below would see). No LIP means
        // the baseline placement is final — no retract/redo round trip.
        let base = self.checkpoint();
        let rid = self.place_flagged(op, proc, depth > 0)?;
        let mut best_worst = self.replicas[rid.index()].start_worst;
        let first_lip = if depth < MAX_DUPLICATION_DEPTH {
            self.last_lip
        } else {
            None
        };
        if first_lip.is_none() {
            return Ok(rid);
        }

        // Retract the baseline, keeping its bookings as a redo segment;
        // the state now carries only the accepted duplications (none yet)
        // and `op` is re-placed at the end.
        // `segment` always holds `op`'s placement as booked on the current
        // (post-unwinding) state: the baseline initially, then the last
        // accepted trial. Committing is a verbatim redo — the second
        // planning pass of the paper's step Ê/Ñ loop is never repeated.
        let mut segment = self.retract_segment(base);
        // Ì: while there is a remote predecessor whose (k-th) arrival is
        // latest, try duplicating it locally (the first candidate was
        // already found on this exact state by the guard above).
        let mut next_lip = first_lip;
        while let Some(lip) = next_lip {
            let cur = self.checkpoint();
            // Í: duplicate it onto proc, recursively minimized.
            if self.place_min_inner(lip, proc, depth + 1).is_err() {
                self.rollback(cur);
                break;
            }
            // Î: re-evaluate op's placement with the duplicate present.
            let trial = self.checkpoint();
            let Ok(rid2) = self.place_flagged(op, proc, depth > 0) else {
                // Undoes this round's duplication too, restoring the state
                // `segment` was saved on.
                self.rollback(cur);
                break;
            };
            // The trial's plan was computed on the post-duplication state:
            // its LIP is exactly the next candidate should we keep it.
            let trial_lip = self.last_lip;
            let w2 = self.replicas[rid2.index()].start_worst;
            if w2 < best_worst {
                // Ñ: keep the duplication, look for the new LIP.
                best_worst = w2;
                let old = std::mem::replace(&mut segment, self.retract_segment(trial));
                self.recycle_segment(old);
                next_lip = trial_lip;
            } else {
                // Ï/Ð: undo the duplication and stop.
                self.rollback(cur);
                break;
            }
        }
        // Commit `op` on top of whatever duplications were kept: the saved
        // segment was booked on this exact state.
        Ok(self.replay_segment(segment))
    }

    /// Retracts the placement booked since `base` (exactly one replica and
    /// its comms) from the timelines and stores, keeping its bookings for a
    /// later verbatim redo — a rollback that steals instead of dropping.
    fn retract_segment(&mut self, base: Checkpoint) -> PlacedSegment {
        self.mutations += 1;
        debug_assert_eq!(base.replicas + 1, self.replicas.len());
        for cid in (base.comms..self.comms.len()).rev() {
            for (i, hop) in self.comms[cid].hops.iter().enumerate() {
                let removed =
                    self.link_tl[hop.link.index()].remove_at(hop.slot, &(CommId(cid as u32), i));
                debug_assert!(removed, "booked hop present on its link");
            }
        }
        let mut comms = self.seg_comms_pool.pop().unwrap_or_default();
        comms.clear();
        comms.extend(self.comms.drain(base.comms..));
        let rid = ReplicaId(base.replicas as u32);
        let replica = self.replicas.pop().expect("segment replica present");
        let removed = self.proc_tl[replica.proc.index()].remove_at(replica.slot, &rid);
        debug_assert!(removed, "booked replica present on its processor");
        let list = &mut self.replicas_of[replica.op.index()];
        debug_assert_eq!(list.last(), Some(&rid));
        list.pop();
        let surv = self.surv.pop().expect("segment survival bits present");
        let fully = self.fully_live.pop().expect("segment liveness present");
        PlacedSegment {
            replica,
            surv,
            fully,
            comms,
        }
    }

    /// Redoes a retracted placement on the exact state it was retracted
    /// from. See [`PlacedSegment`].
    fn replay_segment(&mut self, mut seg: PlacedSegment) -> ReplicaId {
        self.mutations += 1;
        let rid = ReplicaId(self.replicas.len() as u32);
        let slot = seg.replica.slot;
        self.proc_tl[seg.replica.proc.index()]
            .insert_at(slot.start, slot.duration(), rid)
            .expect("segment replays on the state it was saved from");
        self.replicas_of[seg.replica.op.index()].push(rid);
        self.replicas.push(seg.replica);
        self.surv.push(seg.surv);
        self.fully_live.push(seg.fully);
        for comm in seg.comms.drain(..) {
            let cid = CommId(self.comms.len() as u32);
            for (i, hop) in comm.hops.iter().enumerate() {
                self.link_tl[hop.link.index()]
                    .insert_at(hop.slot.start, hop.slot.duration(), (cid, i))
                    .expect("segment replays on the state it was saved from");
            }
            self.comms.push(comm);
        }
        self.seg_comms_pool.push(seg.comms);
        rid
    }

    /// Returns a superseded segment's buffers to the pools.
    fn recycle_segment(&mut self, mut seg: PlacedSegment) {
        self.surv_pool.push(seg.surv);
        for comm in seg.comms.drain(..) {
            let mut hops = comm.hops;
            hops.clear();
            self.hops_pool.push(hops);
        }
        self.seg_comms_pool.push(seg.comms);
    }

    /// Per-resource static orders, derived from the timelines.
    #[allow(clippy::type_complexity)]
    fn resource_orders(&self) -> (Vec<Vec<ReplicaId>>, Vec<Vec<(CommId, usize)>>) {
        let proc_order = self
            .proc_tl
            .iter()
            .map(|tl| tl.iter().map(|(_, &r)| r).collect())
            .collect();
        let link_order = self
            .link_tl
            .iter()
            .map(|tl| tl.iter().map(|(_, &c)| c).collect())
            .collect();
        (proc_order, link_order)
    }

    /// Freezes the builder into an immutable [`Schedule`].
    pub fn finish(self) -> Schedule {
        self.finish_reclaim().0
    }

    /// As [`ScheduleBuilder::finish`], also reclaiming the recyclable
    /// buffer pools for the next builder (see [`BuilderPools`]).
    pub fn finish_reclaim(mut self) -> (Schedule, BuilderPools) {
        let (proc_order, link_order) = self.resource_orders();
        // Stale hop/survival buffers from unwound speculation recycle just
        // as well as empty ones; each is cleared at reuse time.
        let pools = BuilderPools {
            plan_buf: std::mem::take(&mut self.plan_buf),
            plan_scratch: std::mem::take(&mut self.plan_scratch),
            hops: std::mem::take(&mut self.hops_pool),
            surv: std::mem::take(&mut self.surv_pool),
            seg_comms: std::mem::take(&mut self.seg_comms_pool),
        };
        let schedule = Schedule {
            npf: self.problem.npf(),
            replicas: self.replicas,
            comms: self.comms,
            replicas_of: self.replicas_of,
            proc_order,
            link_order,
        };
        (schedule, pools)
    }

    /// A [`Schedule`] snapshot of the current state, leaving the builder
    /// usable. Copies only what the schedule needs (replicas, comms, static
    /// orders) — not the timelines, undo bookkeeping, or survival bitsets
    /// that `self.clone().finish()` used to drag along per step-trace
    /// snapshot.
    pub fn finish_snapshot(&self) -> Schedule {
        let (proc_order, link_order) = self.resource_orders();
        Schedule {
            npf: self.problem.npf(),
            replicas: self.replicas.clone(),
            comms: self.comms.clone(),
            replicas_of: self.replicas_of.clone(),
            proc_order,
            link_order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_model::{paper_example, Alg, Arch, CommTable, ExecTable};

    fn t(u: f64) -> Time {
        Time::from_units(u)
    }

    /// Two ops in a chain on two processors, npf = 1.
    fn chain_problem() -> Problem {
        let mut b = Alg::builder("chain");
        let x = b.comp("X");
        let y = b.comp("Y");
        b.dep(x, y);
        let alg = b.build().unwrap();
        let mut b = Arch::builder("duo");
        let p1 = b.proc("P1");
        let p2 = b.proc("P2");
        b.link("L", &[p1, p2]);
        let arch = b.build().unwrap();
        let exec = ExecTable::uniform(2, 2, t(2.0));
        let comm = CommTable::uniform(1, 1, t(1.0));
        let mut pb = Problem::builder(alg, arch, exec, comm);
        pb.npf(1);
        pb.build().unwrap()
    }

    /// `X -> Y` on a four-processor ring, npf = 1: multi-hop routes.
    fn ring_problem() -> Problem {
        let mut b = Alg::builder("chain");
        let x = b.comp("X");
        let y = b.comp("Y");
        b.dep(x, y);
        let alg = b.build().unwrap();
        let mut b = Arch::builder("ring4");
        let ps: Vec<_> = (0..4).map(|i| b.proc(format!("P{i}"))).collect();
        for i in 0..4 {
            b.link(format!("L{i}"), &[ps[i], ps[(i + 1) % 4]]);
        }
        let arch = b.build().unwrap();
        let exec = ExecTable::uniform(2, 4, t(2.0));
        let comm = CommTable::uniform(1, 4, t(1.0));
        let mut pb = Problem::builder(alg, arch, exec, comm);
        pb.npf(1);
        pb.build().unwrap()
    }

    #[test]
    fn place_entry_op_starts_at_zero() {
        let p = chain_problem();
        let mut b = ScheduleBuilder::new(&p);
        let x = p.alg().op_by_name("X").unwrap();
        let r = b.place(x, ProcId(0)).unwrap();
        assert_eq!(b.replica(r).start(), Time::ZERO);
        assert_eq!(b.replica(r).end(), t(2.0));
        assert!(!b.replica(r).duplicated);
    }

    #[test]
    fn duplicate_placement_rejected() {
        let p = chain_problem();
        let mut b = ScheduleBuilder::new(&p);
        let x = p.alg().op_by_name("X").unwrap();
        b.place(x, ProcId(0)).unwrap();
        assert!(matches!(
            b.place(x, ProcId(0)),
            Err(ScheduleError::ReplicaExists { .. })
        ));
    }

    #[test]
    fn pred_not_scheduled_rejected() {
        let p = chain_problem();
        let mut b = ScheduleBuilder::new(&p);
        let y = p.alg().op_by_name("Y").unwrap();
        assert!(matches!(
            b.place(y, ProcId(0)),
            Err(ScheduleError::PredNotScheduled { .. })
        ));
        assert!(matches!(
            b.probe(y, ProcId(0)),
            Err(ScheduleError::PredNotScheduled { .. })
        ));
    }

    #[test]
    fn local_pred_suppresses_comms() {
        let p = chain_problem();
        let mut b = ScheduleBuilder::new(&p);
        let x = p.alg().op_by_name("X").unwrap();
        let y = p.alg().op_by_name("Y").unwrap();
        b.place(x, ProcId(0)).unwrap();
        b.place(x, ProcId(1)).unwrap();
        let r = b.place(y, ProcId(0)).unwrap();
        // X is local on P1: Y starts right after it, zero comms.
        assert_eq!(b.replica(r).start(), t(2.0));
        let sched = b.finish();
        assert_eq!(sched.comm_count(), 0);
    }

    #[test]
    fn remote_pred_books_npf_plus_one_comms() {
        let p = chain_problem();
        let x = p.alg().op_by_name("X").unwrap();
        let y = p.alg().op_by_name("Y").unwrap();
        let mut b2 = ScheduleBuilder::new(&p);
        b2.place(x, ProcId(0)).unwrap();
        let r = b2.place(y, ProcId(1)).unwrap();
        // X ends at 2, comm takes 1 => Y starts at 3 on P2.
        assert_eq!(b2.replica(r).start(), t(3.0));
        let sched = b2.finish();
        assert_eq!(sched.comm_count(), 1);
        assert_eq!(sched.comms()[0].arrival(), t(3.0));
    }

    #[test]
    fn worst_start_tracks_latest_arrival() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        // I on P1 (end 1.0) and P2 (end 1.3).
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        // A on P3: receives I from P1 via L1.3 (1.25) and from P2 via L2.3
        // (1.25): arrivals 2.25 and 2.55.
        let r = b.place(a, ProcId(2)).unwrap();
        assert_eq!(b.replica(r).start(), t(2.25));
        assert_eq!(b.replica(r).start_worst, t(2.55));
        assert_eq!(b.replica(r).end(), t(3.25)); // A on P3 takes 1.0
    }

    #[test]
    fn probe_matches_place() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        let probe = b.probe(a, ProcId(2)).unwrap();
        let r = b.place(a, ProcId(2)).unwrap();
        assert_eq!(probe.start_best, b.replica(r).start());
        assert_eq!(probe.start_worst, b.replica(r).start_worst);
        assert_eq!(probe.end_best, b.replica(r).end());
        // Probing an already-placed pair returns the recorded times.
        let probe2 = b.probe(a, ProcId(2)).unwrap();
        assert_eq!(probe2.start_best, b.replica(r).start());
    }

    #[test]
    fn forbidden_pairs_error() {
        let p = paper_example();
        let i = p.alg().op_by_name("I").unwrap();
        let b = ScheduleBuilder::new(&p);
        assert!(matches!(
            b.probe(i, ProcId(2)),
            Err(ScheduleError::Forbidden { .. })
        ));
    }

    #[test]
    fn min_start_duplicates_lip_when_profitable() {
        // Mirrors the paper's step 3 (Fig. 6): duplicating A on P3 lets C
        // start locally instead of waiting for a comm.
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        let c = alg.op_by_name("C").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        b.place(a, ProcId(0)).unwrap();
        b.place(a, ProcId(1)).unwrap();
        // Without duplication C on P3 waits for a comm from A.
        let probe_plain = b.probe(c, ProcId(2)).unwrap();
        let r = b.place_min_start(c, ProcId(2)).unwrap();
        // Duplication must not be worse than the plain placement.
        assert!(b.replica(r).start_worst <= probe_plain.start_worst);
        // A must now have a (duplicated) replica on P3.
        let a_on_p3 = b.replica_on(a, ProcId(2));
        assert!(a_on_p3.is_some(), "LIP A should be duplicated on P3");
        assert!(b.replica(a_on_p3.unwrap()).duplicated);
    }

    #[test]
    fn min_start_keeps_baseline_when_duplication_useless() {
        let p = chain_problem();
        let x = p.alg().op_by_name("X").unwrap();
        let y = p.alg().op_by_name("Y").unwrap();
        let mut b = ScheduleBuilder::new(&p);
        b.place(x, ProcId(0)).unwrap();
        b.place(x, ProcId(1)).unwrap();
        // X is already local on both processors: no LIP to duplicate.
        let before = b.finish().replica_count();
        let p2 = chain_problem();
        let mut b = ScheduleBuilder::new(&p2);
        b.place(x, ProcId(0)).unwrap();
        b.place(x, ProcId(1)).unwrap();
        b.place_min_start(y, ProcId(0)).unwrap();
        let sched = b.finish();
        assert_eq!(sched.replica_count(), before + 1);
        assert_eq!(sched.comm_count(), 0);
    }

    #[test]
    fn finish_orders_resources_by_start() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        b.place(a, ProcId(0)).unwrap();
        b.place(a, ProcId(2)).unwrap();
        let s = b.finish();
        for proc in 0..s.proc_count() {
            let order = s.proc_order(ProcId(proc as u32));
            for w in order.windows(2) {
                assert!(s.replica(w[0]).start() <= s.replica(w[1]).start());
            }
        }
        assert_eq!(s.replicas_of(i).len(), 2);
        assert_eq!(s.replicas_of(a).len(), 2);
        assert!(s.makespan() > Time::ZERO);
        assert!(s.completion() <= s.makespan());
        assert!(s.makespan() <= s.last_activity());
    }

    #[test]
    fn rollback_restores_the_exact_state() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        let before = b.clone().finish();
        let mark = b.checkpoint();
        // A speculative placement books a replica and two comms...
        b.place(a, ProcId(2)).unwrap();
        assert!(b.clone().finish() != before);
        // ...and rolling back erases all of it.
        b.rollback(mark);
        assert_eq!(b.clone().finish(), before);
        // The builder is fully usable afterwards and reproduces the same
        // placement deterministically.
        let r = b.place(a, ProcId(2)).unwrap();
        assert_eq!(b.replica(r).start(), t(2.25));
    }

    #[test]
    fn nested_rollbacks_unwind_in_order() {
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        let m0 = b.checkpoint();
        b.place(i, ProcId(0)).unwrap();
        let m1 = b.checkpoint();
        b.place(i, ProcId(1)).unwrap();
        b.place(a, ProcId(0)).unwrap();
        b.rollback(m1);
        assert_eq!(b.replicas_of(i).len(), 1);
        assert!(b.replicas_of(a).is_empty());
        b.rollback(m0);
        assert!(b.replicas_of(i).is_empty());
        assert_eq!(b.clone().finish().replica_count(), 0);
    }

    #[test]
    fn ring_consumer_books_failure_disjoint_comms() {
        // X on P0 and P1, Y on P2, npf = 1. The primary route P0 -> P2 goes
        // through P1, so killing P1 would silence both classic comms (the
        // direct one from P1 and the relayed one from P0). The route-aware
        // plan adds a third comm from P0 around the other side of the ring.
        let p = ring_problem();
        let x = p.alg().op_by_name("X").unwrap();
        let y = p.alg().op_by_name("Y").unwrap();
        let mut b = ScheduleBuilder::new(&p);
        b.place(x, ProcId(0)).unwrap();
        b.place(x, ProcId(1)).unwrap();
        b.place(y, ProcId(2)).unwrap();
        b.place(y, ProcId(3)).unwrap();
        let s = b.finish();
        // Y on P2: for every single failure among {P0, P1, P3} some comm
        // must survive (source and intermediates alive).
        let y_on_p2 = s.replica_on(y, ProcId(2)).unwrap();
        let index = crate::CommIndex::new(&s);
        for fail in [0u32, 1, 3] {
            let survives = index
                .incoming(y_on_p2)
                .iter()
                .map(|&c| s.comm(c))
                .any(|c| c.hops.iter().all(|h| h.from != ProcId(fail)));
            assert!(survives, "failure of P{fail} severs every comm into Y@P2");
        }
    }

    #[test]
    fn fully_connected_booking_is_unchanged_by_routing() {
        // On the paper's architecture the classic Npf+1 distinct sources
        // already defeat every failure pattern: no augmentation comms.
        let p = paper_example();
        let alg = p.alg();
        let mut b = ScheduleBuilder::new(&p);
        let i = alg.op_by_name("I").unwrap();
        let a = alg.op_by_name("A").unwrap();
        b.place(i, ProcId(0)).unwrap();
        b.place(i, ProcId(1)).unwrap();
        b.place(a, ProcId(2)).unwrap();
        let s = b.finish();
        assert_eq!(s.comm_count(), 2, "exactly Npf + 1 comms, as in the paper");
    }
}
